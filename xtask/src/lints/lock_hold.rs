//! `lock_hold`: guards must not be held across source scans, and the
//! stats-mutex must be acquired before (never under) a store lock.
//!
//! Two rules, both over *guard bindings* — `let g = x.lock()…;` where the
//! right-hand side ends in an argument-less `.lock()` / `.read()` /
//! `.write()` (modulo `.expect(…)` / `.unwrap()` / `.unwrap_or_else(…)`
//! adapters). Chained temporaries (`x.lock().unwrap().len()`) drop their
//! guard at the end of the statement and are exempt from rule 1:
//!
//! 1. **No scan under a guard** — while any guard binding is live (from
//!    its `let` to the end of its enclosing block, or an explicit
//!    `drop(g)`), calling into a wrapper/docstore pipeline entry point
//!    (`scan`, `scan_batches`, `resume_batches`, `scan_hint`,
//!    `column_stats`, `aggregate`, `fold_stats`) is flagged: those calls do I/O-shaped
//!    work (page fetches, full-collection aggregates) and convoy every
//!    other thread behind the lock — the PR 7 review bug class. A resumed
//!    scan is shorter than a full one, not free: it still fetches.
//! 2. **Stats-before-store order** — acquiring a stats lock (receiver
//!    path mentions `stats`) while a store guard (receiver mentions
//!    `rows`, `collections`, `docstore`, `documents` or `store`) is live
//!    inverts the workspace's lock order and is flagged, binding or not.

use super::{Diagnostic, LOCK_HOLD};
use crate::lexer::{Kind, Lexed, Tok};
use crate::walker::{cfg_test_spans, functions, in_spans};

const GUARD_CALLS: &[&str] = &["lock", "read", "write"];
const GUARD_ADAPTERS: &[&str] = &["expect", "unwrap", "unwrap_or_else"];
const SCAN_ENTRY_CALLS: &[&str] = &[
    "scan",
    "scan_batches",
    "resume_batches",
    "scan_hint",
    "column_stats",
    "aggregate",
    "fold_stats",
];
const STORE_WORDS: &[&str] = &["rows", "collections", "docstore", "documents", "store"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardKind {
    Stats,
    Store,
    Other,
}

#[derive(Debug)]
struct Guard {
    name: String,
    kind: GuardKind,
    /// Brace depth the binding's block lives at; the guard dies when the
    /// walk closes a brace back below this depth.
    depth: usize,
    line: u32,
}

/// Is `tokens[i]` an argument-less call of one of `names` in method
/// position — `. name ( )`?
fn argless_method_call(tokens: &[Tok], i: usize, names: &[&str]) -> bool {
    tokens[i].kind == Kind::Ident
        && names.contains(&tokens[i].text.as_str())
        && i > 0
        && tokens[i - 1].is_punct('.')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// Classifies a guard by the identifiers in its receiver expression.
fn classify(receiver: &[Tok]) -> GuardKind {
    let has = |word: &str| {
        receiver
            .iter()
            .any(|t| t.kind == Kind::Ident && t.text.contains(word))
    };
    if has("stats") {
        GuardKind::Stats
    } else if STORE_WORDS.iter().any(|w| has(w)) {
        GuardKind::Store
    } else {
        GuardKind::Other
    }
}

/// If the statement starting at token `let_i` (an ident `let`) binds a
/// guard, returns `(binding name, kind, token index where the binding
/// becomes live, whether this is an `if let`/`while let`)`.
///
/// The right-hand side runs from `=` to the first `;` (or, for
/// `if let`/`while let`, the first `{`) at group depth 0. It binds a guard
/// when its tail — after stripping trailing adapter calls — is
/// `. lock|read|write ( )`.
fn guard_binding(
    tokens: &[Tok],
    let_i: usize,
    conditional: bool,
) -> Option<(String, GuardKind, usize)> {
    // Pattern: tokens from after `let` to the `=` (at group depth 0, and
    // not `==`). The binding name is the last ident in the pattern.
    let mut i = let_i + 1;
    let mut depth = 0usize;
    let mut name: Option<String> = None;
    let eq = loop {
        let tok = tokens.get(i)?;
        if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if tok.is_punct('=') && depth == 0 {
            if tokens.get(i + 1).is_some_and(|t| t.is_punct('=')) {
                return None; // `==` — not a binding
            }
            break i;
        } else if tok.is_punct(';') || tok.is_punct('{') {
            return None; // `let x;` or something unexpected
        } else if tok.kind == Kind::Ident && !matches!(tok.text.as_str(), "mut" | "ref") {
            name = Some(tok.text.clone());
        }
        i += 1;
    };
    let name = name?;
    // Right-hand side extent.
    let mut j = eq + 1;
    let mut depth = 0usize;
    let end = loop {
        let tok = tokens.get(j)?;
        if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && tok.is_punct(';') {
            break j;
        } else if depth == 0 && tok.is_punct('{') {
            if conditional {
                break j; // `if let … = rhs {` — block starts here
            }
            // A block in the rhs (`let x = { … };`): skip it wholesale.
            let close = crate::walker::matching_brace(tokens, j)?;
            j = close + 1;
            continue;
        }
        j += 1;
    };
    let rhs = &tokens[eq + 1..end];
    // Strip trailing adapter call groups, then require `. guard ( )`.
    let mut tail = rhs.len();
    loop {
        // A call group at the tail: `. name ( … )` with the `)` at tail-1.
        if tail < 4 || !rhs[tail - 1].is_punct(')') {
            break;
        }
        // Find the `(` matching the trailing `)`.
        let mut depth = 0usize;
        let mut open = None;
        for k in (0..tail).rev() {
            if rhs[k].is_punct(')') {
                depth += 1;
            } else if rhs[k].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    open = Some(k);
                    break;
                }
            }
        }
        let open = open?;
        if open < 2 {
            return None;
        }
        let callee = &rhs[open - 1];
        let dot = &rhs[open - 2];
        if callee.kind != Kind::Ident || !dot.is_punct('.') {
            return None;
        }
        if GUARD_ADAPTERS.contains(&callee.text.as_str()) {
            tail = open - 2;
            continue;
        }
        if GUARD_CALLS.contains(&callee.text.as_str()) && open + 1 == tail - 1 {
            // Argument-less guard call at the (adapter-stripped) tail.
            let kind = classify(&rhs[..open.saturating_sub(2)]);
            return Some((name, kind, end));
        }
        return None;
    }
    None
}

pub fn check(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let test_spans = cfg_test_spans(tokens);
    let all = functions(tokens);
    let mut out = Vec::new();
    for span in &all {
        // Test code (mock sources, fixtures) is exempt — the contract
        // protects serving paths. Nested-fn spans overlap their parents;
        // walking only outermost spans avoids double-reporting (the walk
        // treats an inner fn's braces like any block).
        if in_spans(&test_spans, span.open) {
            continue;
        }
        if all
            .iter()
            .any(|f| f.open < span.open && span.close < f.close)
        {
            continue;
        }
        walk_fn(file, tokens, span, &mut out);
    }
    out
}

/// The receiver path feeding a `.` method call at `dot`: contiguous
/// `ident`/`.`/`:` tokens walking left. Stops at anything else (a call
/// result `)`, an operator, a statement boundary) — unknown receivers
/// classify as [`GuardKind::Other`], which only ever under-reports.
fn receiver_of(tokens: &[Tok], dot: usize) -> &[Tok] {
    let mut start = dot;
    while start > 0 {
        let prev = &tokens[start - 1];
        let path_piece = prev.kind == Kind::Ident || prev.is_punct('.') || prev.is_punct(':');
        if !path_piece {
            break;
        }
        start -= 1;
    }
    &tokens[start..dot]
}

fn walk_fn(file: &str, tokens: &[Tok], span: &crate::walker::FnSpan, out: &mut Vec<Diagnostic>) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Bindings found ahead of their live point: (live_at, guard).
    let mut pending: Vec<(usize, Guard)> = Vec::new();
    let mut i = span.open;
    while i <= span.close {
        let tok = &tokens[i];
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if tok.is_ident("let") {
            let conditional =
                i > 0 && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while"));
            if let Some((name, kind, live_at)) = guard_binding(tokens, i, conditional) {
                // A conditional binding lives only inside the block that
                // follows; a plain one lives in the current block.
                let guard_depth = if conditional { depth + 1 } else { depth };
                pending.push((
                    live_at,
                    Guard {
                        name,
                        kind,
                        depth: guard_depth,
                        line: tok.line,
                    },
                ));
            }
        } else if tok.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(dropped) = tokens.get(i + 2) {
                if let Some(pos) = guards.iter().rposition(|g| g.name == dropped.text) {
                    guards.remove(pos);
                }
            }
        } else if tok.kind == Kind::Ident
            && SCAN_ENTRY_CALLS.contains(&tok.text.as_str())
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i > 0
            && !tokens[i - 1].is_ident("fn")
        {
            if let Some(guard) = guards.last() {
                out.push(Diagnostic::new(
                    file,
                    tok.line,
                    LOCK_HOLD,
                    format!(
                        "call to `{}` while guard `{}` (bound line {}) is live; \
                         scope the guard in a block or drop() it first",
                        tok.text, guard.name, guard.line
                    ),
                ));
            }
        } else if argless_method_call(tokens, i, GUARD_CALLS) {
            // Any acquisition (binding or temporary) of a stats lock under
            // a live store guard inverts the stats-before-store order.
            let kind = classify(receiver_of(tokens, i - 1));
            if kind == GuardKind::Stats && guards.iter().any(|g| g.kind == GuardKind::Store) {
                out.push(Diagnostic::new(
                    file,
                    tok.line,
                    LOCK_HOLD,
                    "stats lock acquired while a store guard is live; the workspace \
                     order is stats-mutex first, then the store lock",
                ));
            }
        }
        // Promote bindings whose live point we just passed.
        let mut k = 0;
        while k < pending.len() {
            if pending[k].0 <= i + 1 {
                let (_, guard) = pending.remove(k);
                guards.push(guard);
            } else {
                k += 1;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const GOOD: &str = include_str!("../../fixtures/lock_hold_good.rs");
    const BAD: &str = include_str!("../../fixtures/lock_hold_bad.rs");

    #[test]
    fn bad_fixture_is_flagged() {
        let diags = check("fixture", &lex(BAD));
        assert!(diags.len() >= 2, "got {diags:?}");
        assert!(diags.iter().all(|d| d.lint == LOCK_HOLD));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("stats lock acquired")),
            "order violation missing: {diags:?}"
        );
    }

    #[test]
    fn good_fixture_is_clean() {
        let diags = check("fixture", &lex(GOOD));
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn resume_under_the_scan_cache_guard_is_flagged() {
        let diags = check("fixture", &lex(BAD));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("`resume_batches`") && d.message.contains("`scans`")),
            "resumed scan under the `scans` guard missing: {diags:?}"
        );
    }

    #[test]
    fn block_scoped_guard_dies_before_scan() {
        let src = "fn f(&self) { let cell = { let mut g = self.scans.lock().expect(\"p\"); g.entry() }; self.source.scan_batches(cell); }";
        assert!(check("f", &lex(src)).is_empty());
    }

    #[test]
    fn dropped_guard_is_not_live() {
        let src = "fn f(&self) { let g = self.cache.lock().unwrap(); g.touch(); drop(g); self.wrapper.scan_batches(r); }";
        assert!(check("f", &lex(src)).is_empty());
    }

    #[test]
    fn chained_temporary_is_exempt() {
        let src =
            "fn f(&self) { let n = self.rows.read().len(); self.wrapper.scan_batches(r); g(n); }";
        assert!(check("f", &lex(src)).is_empty());
    }

    #[test]
    fn stats_then_store_order_is_allowed() {
        let src = "fn push(&self) { let mut stats = self.stats.lock(); stats.observe(); self.rows.write().push(row); }";
        assert!(check("f", &lex(src)).is_empty());
    }
}
