//! `durability`: the WAL-append-before-apply contract over the one write
//! path.
//!
//! A journaled system acknowledges a write only once it is on stable
//! storage, which holds exactly as long as every public write routes
//! through `BdiSystem::apply` instead of poking the in-memory stores
//! directly. Four rules over the registered file:
//!
//! 1. **Coverage** — every registered entry point must exist; a rename or
//!    removal that silently drops a write path out of the contract is
//!    flagged at the top of the file.
//! 2. **Reach** — every other entry point's body must call the write path
//!    (`apply`).
//! 3. **No direct applies** — an entry point, the write path included,
//!    must not call a store mutation method (`.insert(…)`, `.extend(…)`,
//!    `.push(…)`, …) itself: applying before (or beside) journaling would
//!    acknowledge state the WAL never saw. The apply belongs in the
//!    replay-shared apply step (`apply_write`).
//! 4. **Order** — inside the write path, `append` and `commit` (the fsync)
//!    must both occur before the apply step.

use super::{Diagnostic, DURABILITY};
use crate::lexer::{Kind, Lexed, Tok};
use crate::walker::functions;

/// The one write path every entry point must reach.
const WRITE_FN: &str = "apply";
/// The apply step the write path shares with recovery replay.
const APPLY_FN: &str = "apply_write";

/// Store-mutation method names an entry point must never call directly —
/// the union of what `apply_write` invokes on the quad store, the document
/// store and the table wrappers.
const MUTATION_CALLS: &[&str] = &[
    "insert",
    "insert_many",
    "extend",
    "remove",
    "clear",
    "clear_graph",
    "push",
];

/// Is `tokens[i]` a method call of one of `names` — `. name (`?
fn method_call(tokens: &[Tok], i: usize, names: &[&str]) -> bool {
    tokens[i].kind == Kind::Ident
        && names.contains(&tokens[i].text.as_str())
        && i > 0
        && tokens[i - 1].is_punct('.')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Checks the registered entry points (`fn_names`, the write path among
/// them) of `lexed`.
pub fn check(file: &str, lexed: &Lexed, fn_names: &[&str]) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let fns = functions(tokens);
    let mut out = Vec::new();

    for name in fn_names {
        let Some(span) = fns.iter().find(|f| f.name == *name) else {
            out.push(Diagnostic::new(
                file,
                1,
                DURABILITY,
                format!(
                    "registered durability entry point `{name}` not found; \
                     update the registration if it was renamed"
                ),
            ));
            continue;
        };
        let body = &tokens[span.open..=span.close];
        if *name != WRITE_FN && !body.iter().any(|t| t.is_ident(WRITE_FN)) {
            out.push(Diagnostic::new(
                file,
                span.start_line,
                DURABILITY,
                format!(
                    "entry point `{name}` does not reach the write path \
                     (no `{WRITE_FN}` call); an acknowledged write must be \
                     journaled before it is applied"
                ),
            ));
        }
        for i in span.open..=span.close {
            if method_call(tokens, i, MUTATION_CALLS) {
                out.push(Diagnostic::new(
                    file,
                    tokens[i].line,
                    DURABILITY,
                    format!(
                        "entry point `{name}` calls store mutation `.{}(…)` \
                         directly; route the apply through `{WRITE_FN}` so \
                         the WAL sees it first",
                        tokens[i].text
                    ),
                ));
            }
        }
    }

    // The write path's ordering: append + commit strictly before the apply
    // step. A write path that applies first would acknowledge unlogged
    // state.
    match fns.iter().find(|f| f.name == WRITE_FN) {
        None => out.push(Diagnostic::new(
            file,
            1,
            DURABILITY,
            format!("write path `{WRITE_FN}` not found"),
        )),
        Some(span) => {
            let pos = |ident: &str| (span.open..=span.close).find(|&i| tokens[i].is_ident(ident));
            let apply = pos(APPLY_FN);
            for evidence in ["append", "commit"] {
                let ok = match (pos(evidence), apply) {
                    (Some(e), Some(a)) => e < a,
                    (Some(_), None) => true, // no apply at all — nothing out of order
                    (None, _) => false,
                };
                if !ok {
                    out.push(Diagnostic::new(
                        file,
                        span.start_line,
                        DURABILITY,
                        format!(
                            "`{WRITE_FN}` must `{evidence}` before `{APPLY_FN}` \
                             — the WAL write and fsync are the acknowledgement"
                        ),
                    ));
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const GOOD: &str = include_str!("../../fixtures/durability_good.rs");
    const BAD: &str = include_str!("../../fixtures/durability_bad.rs");
    const ENTRY_POINTS: &[&str] = &["apply", "insert_doc", "insert_docs", "push_row"];

    #[test]
    fn bad_fixture_is_flagged() {
        let diags = check("fixture", &lex(BAD), ENTRY_POINTS);
        assert!(diags.len() >= 4, "got {diags:?}");
        assert!(diags.iter().all(|d| d.lint == DURABILITY));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("does not reach the write path")),
            "missing-reach diagnostic absent: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("directly")),
            "direct-mutation diagnostic absent: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("not found")),
            "missing-entry-point diagnostic absent: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("before `apply_write`")),
            "ordering diagnostic absent: {diags:?}"
        );
    }

    #[test]
    fn good_fixture_is_clean() {
        let diags = check("fixture", &lex(GOOD), ENTRY_POINTS);
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn a_write_path_that_applies_before_commit_is_flagged() {
        let src = "impl D { fn apply(&self, w: Write) { self.wal.append(1, &b); \
                   self.apply_write(w); self.wal.commit(); } }";
        let diags = check("f", &lex(src), &["apply"]);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("`commit` before `apply_write`")),
            "got {diags:?}"
        );
    }

    #[test]
    fn missing_entry_point_is_reported_even_in_clean_files() {
        let src = "impl D { fn apply(&self) { self.wal.append(1, &b); \
                   self.wal.commit(); self.apply_write(w); } }";
        let diags = check("f", &lex(src), &["apply", "push_row"]);
        assert_eq!(diags.len(), 1, "got {diags:?}");
        assert!(diags[0].message.contains("not found"));
    }
}
