//! Token-walking utilities shared by the lints: brace matching, function
//! spans, `#[cfg(test)]` regions. Everything works on the significant-token
//! stream from [`crate::lexer::lex`]; nothing here panics on arbitrary input.

use crate::lexer::{Kind, Tok};

/// Index of the `}` matching the `{` at `open` (both token indices), or
/// `None` when unbalanced (runs off the end).
pub fn matching_brace(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// One `fn` item: its name and the token range of its body (exclusive of
/// the braces), plus source lines for region scans over comments.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Token index of the body's `{`.
    pub open: usize,
    /// Token index of the body's `}`.
    pub close: usize,
    pub start_line: u32,
    pub end_line: u32,
}

/// Every `fn` item in the stream (including nested fns and methods; a
/// nested fn yields its own span inside its parent's). Trait-method
/// declarations without bodies are skipped.
pub fn functions(tokens: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            let Some(name_tok) = tokens.get(i + 1) else {
                break;
            };
            if name_tok.kind == Kind::Ident {
                // The body `{` is the first brace after the signature; a
                // `;` first means a bodyless declaration. Signatures can't
                // contain braces (no const-generic braces in this tree).
                let mut j = i + 2;
                let mut open = None;
                while let Some(tok) = tokens.get(j) {
                    if tok.is_punct('{') {
                        open = Some(j);
                        break;
                    }
                    if tok.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    if let Some(close) = matching_brace(tokens, open) {
                        out.push(FnSpan {
                            name: name_tok.text.clone(),
                            open,
                            close,
                            start_line: tokens[i].line,
                            end_line: tokens[close].line,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Token ranges covered by `#[cfg(test)]` (or any `cfg(...)` mentioning
/// `test`): the attribute itself through the end of the item it gates —
/// the matching `}` of the item's block, or the terminating `;` for
/// brace-less items (`use`, type aliases).
pub fn cfg_test_spans(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Attribute body: up to the matching `]`.
            let mut depth = 0usize;
            let mut end = None;
            for (j, tok) in tokens.iter().enumerate().skip(i + 1) {
                if tok.is_punct('[') {
                    depth += 1;
                } else if tok.is_punct(']') {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = Some(j);
                        break;
                    }
                }
            }
            let Some(attr_end) = end else {
                break;
            };
            let attr = &tokens[i..=attr_end];
            let is_cfg_test = attr.iter().any(|t| t.is_ident("cfg"))
                && attr
                    .iter()
                    .any(|t| t.is_ident("test") || t.is_ident("tests"));
            if is_cfg_test {
                // The gated item runs to its block's `}` or to a `;`
                // before any block opens.
                let mut j = attr_end + 1;
                let mut span_end = tokens.len().saturating_sub(1);
                while let Some(tok) = tokens.get(j) {
                    if tok.is_punct('{') {
                        span_end = matching_brace(tokens, j).unwrap_or(span_end);
                        break;
                    }
                    if tok.is_punct(';') {
                        span_end = j;
                        break;
                    }
                    j += 1;
                }
                out.push((i, span_end));
                i = span_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Whether token index `i` falls in any of `spans`.
pub fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(s, e)| i >= s && i <= e)
}

/// The function span (innermost) containing token index `i`, if any.
pub fn enclosing_fn(fns: &[FnSpan], i: usize) -> Option<&FnSpan> {
    fns.iter()
        .filter(|f| f.open <= i && i <= f.close)
        .min_by_key(|f| f.close - f.open)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_functions_and_bodies() {
        let lexed = lex("impl X { fn a(&self) -> u32 { 1 } }\nfn b<T: Ord>(t: T) { t; }\ntrait T { fn decl(&self); }");
        let fns = functions(&lexed.tokens);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn cfg_test_mod_is_spanned() {
        let lexed = lex("fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        let spans = cfg_test_spans(&lexed.tokens);
        assert_eq!(spans.len(), 1);
        let unwrap_at = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(in_spans(&spans, unwrap_at));
        let live_at = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("live"))
            .unwrap();
        assert!(!in_spans(&spans, live_at));
    }
}
