//! `deadline`: operator pull loops and the pager's producer loops
//! must stay cancellable — a stalled source may not hang a query past its
//! deadline. Every `loop`/`while`/`for` body inside the registered
//! functions must contain *cancellation evidence*: a deadline or timeout
//! consultation (`deadline`, `deadline_passed`, `DeadlineExceeded`,
//! `recv_timeout`, any `*timeout*` identifier) or a bounded-channel
//! send (`send`/`try_send` — a disconnected or full channel is how a
//! producer learns its consumer gave up), or a call to a *checking
//! function* — one listed in `CHECKING_CALLS` because it is itself a
//! registered target whose loops check, such as `next_batch`. Loops that are
//! genuinely bounded another way carry
//! `// analyze: allow(deadline, <reason>)`. Every registered function must
//! exist: a rename that silently drops a loop out of the contract is
//! flagged at the top of the file.

use super::{Diagnostic, DEADLINE};
use crate::lexer::{Kind, Lexed, Tok};
use crate::walker::{functions, matching_brace};

/// Whether `tok` is evidence the surrounding loop consults a deadline or
/// cancellation signal.
fn is_evidence(tok: &Tok) -> bool {
    if tok.kind != Kind::Ident {
        return false;
    }
    let text = tok.text.as_str();
    text == "DeadlineExceeded"
        || text == "send"
        || text == "try_send"
        || text.contains("deadline")
        || text.contains("timeout")
        || text.contains("cancel")
}

/// Whether the tokens at `k` are a call to one of `checking_calls`:
/// the name followed by `(`.
fn is_checking_call(tokens: &[Tok], k: usize, checking_calls: &[&str]) -> bool {
    tokens[k].kind == Kind::Ident
        && checking_calls.contains(&tokens[k].text.as_str())
        && tokens.get(k + 1).is_some_and(|t| t.is_punct('('))
}

/// Checks every loop body inside functions of `lexed` named in `fn_names`;
/// a call to one of `checking_calls` counts as evidence.
pub fn check(
    file: &str,
    lexed: &Lexed,
    fn_names: &[&str],
    checking_calls: &[&str],
) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let fns = functions(tokens);
    let mut out = Vec::new();
    for name in fn_names {
        if !fns.iter().any(|f| f.name == *name) {
            out.push(Diagnostic::new(
                file,
                1,
                DEADLINE,
                format!(
                    "registered deadline target `{name}` not found; \
                     update the registration if it was renamed"
                ),
            ));
        }
    }
    for span in fns {
        if !fn_names.contains(&span.name.as_str()) {
            continue;
        }
        let mut i = span.open;
        while i < span.close {
            let tok = &tokens[i];
            let is_loop_kw = tok.is_ident("loop") || tok.is_ident("while") || tok.is_ident("for");
            if is_loop_kw {
                // The loop body is the first `{` after the keyword (loop
                // headers cannot contain bare braces in Rust). `for` in
                // `for<'a>` HRTBs has no `{`-terminated header here —
                // the registered functions are plain operator/pager code.
                let mut j = i + 1;
                let mut open = None;
                while j < span.close {
                    if tokens[j].is_punct('{') {
                        open = Some(j);
                        break;
                    }
                    if tokens[j].is_punct(';') {
                        break; // e.g. `while x.step();` — not a loop here
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    if let Some(close) = matching_brace(tokens, open) {
                        // Evidence in the header counts too:
                        // `while deadline_ok() { … }`.
                        let covered = (i..=close).any(|k| {
                            is_evidence(&tokens[k]) || is_checking_call(tokens, k, checking_calls)
                        });
                        if !covered {
                            out.push(Diagnostic::new(
                                file,
                                tok.line,
                                DEADLINE,
                                format!(
                                    "loop in `{}` has no deadline/cancellation check \
                                     (deadline/timeout consult, recv_timeout, bounded send, \
                                     or a call to a checking function)",
                                    span.name
                                ),
                            ));
                        }
                        // Continue *inside* the loop too: nested loops each
                        // need their own evidence-or-inherit check — the
                        // scan simply proceeds token by token.
                    }
                }
            }
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const GOOD: &str = include_str!("../../fixtures/deadline_good.rs");
    const BAD: &str = include_str!("../../fixtures/deadline_bad.rs");

    #[test]
    fn bad_fixture_is_flagged() {
        let diags = check("fixture", &lex(BAD), &["next_batch", "run"], &[]);
        assert!(diags.len() >= 2, "got {diags:?}");
        assert!(diags.iter().all(|d| d.lint == DEADLINE));
    }

    #[test]
    fn good_fixture_is_clean() {
        let diags = check(
            "fixture",
            &lex(GOOD),
            &["next_batch", "run", "collect_scan"],
            &[],
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn unregistered_functions_are_ignored() {
        let src = "fn helper() { loop { spin(); } } fn next_batch() {}";
        assert!(check("f", &lex(src), &["next_batch"], &[]).is_empty());
    }

    #[test]
    fn missing_target_is_reported_even_in_clean_files() {
        let src = "fn next_batch() { while !policy.deadline_passed() { step(); } }";
        let diags = check("f", &lex(src), &["next_batch", "execute_plan"], &[]);
        assert_eq!(diags.len(), 1, "got {diags:?}");
        assert!(diags[0].message.contains("`execute_plan` not found"));
    }

    #[test]
    fn evidence_in_header_counts() {
        let src = "fn next_batch() { while !policy.deadline_passed() { step(); } }";
        assert!(check("f", &lex(src), &["next_batch"], &[]).is_empty());
    }

    #[test]
    fn only_a_call_to_a_checking_function_counts() {
        let src = "fn drain() { while let Some(b) = op.next_batch()? { keep(b); } }";
        assert!(check("f", &lex(src), &["drain"], &["next_batch"]).is_empty());
        // The name alone, not called, is no evidence.
        let src = "fn drain() { loop { let f = next_batch; keep(f); } }";
        assert_eq!(check("f", &lex(src), &["drain"], &["next_batch"]).len(), 1);
    }
}
