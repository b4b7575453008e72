//! A hand-rolled, panic-free Rust lexer — just enough token structure for
//! the repo lints: identifiers, punctuation, literals (including raw
//! strings and nested block comments), line numbers, and the
//! `// analyze: allow(lint, reason)` escape comments.
//!
//! Deliberately not `syn`: the vendor tree is offline-only and the lints
//! only need token-level scanning with brace/attribute tracking. The lexer
//! must accept *any* byte soup without panicking (proptested); unknown
//! bytes lex as single-character punctuation.

/// What a significant (non-comment, non-whitespace) token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `scan_batches`, `r#type`, …).
    Ident,
    /// One punctuation character (`{`, `.`, `!`, …). Multi-char operators
    /// surface as consecutive tokens; the lints only match single chars.
    Punct,
    /// String, raw-string, byte-string or char literal (text excluded —
    /// the lints never look inside literals).
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime (`'a`) — distinct from a char literal.
    Lifetime,
}

/// One significant token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: Kind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == Kind::Ident && self.text == word
    }

    /// Whether this token is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// One comment (line or block) with the line it starts on. Doc comments
/// (`///`, `//!`, `/** */`) are comments too — the lints treat them as
/// prose.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// The lexed file: significant tokens plus the comment stream (kept
/// separate so token-pattern scans need no filtering, while region scans
/// can still search prose by line range).
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Never panics, never fails: malformed input (unterminated
/// strings, stray bytes) degrades to best-effort tokens, which is the
/// right behaviour for a linter that must not crash the build on code
/// rustc itself will reject with a better message.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: lossy(&bytes[start..i]),
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: lossy(&bytes[start..i.min(bytes.len())]),
                });
            }
            b'"' => {
                let (next, lines) = skip_string(bytes, i);
                out.tokens.push(Tok {
                    kind: Kind::Literal,
                    text: String::new(),
                    line,
                });
                line += lines;
                i = next;
            }
            b'r' | b'b' if raw_string_at(bytes, i).is_some() => {
                // r"...", r#"..."#, br"...", b"..." — all skip as one literal.
                let (next, lines) = raw_string_at(bytes, i).unwrap_or((i + 1, 0));
                out.tokens.push(Tok {
                    kind: Kind::Literal,
                    text: String::new(),
                    line,
                });
                line += lines;
                i = next;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`, `'\u{1F600}'`).
                let (tok, next, lines) = lifetime_or_char(bytes, i, line);
                out.tokens.push(tok);
                line += lines;
                i = next;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                // `1.5` — consume a fraction, but not `1.method()` or `1..2`.
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                }
                out.tokens.push(Tok {
                    kind: Kind::Number,
                    text: lossy(&bytes[start..i]),
                    line,
                });
            }
            _ if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric() || bytes[i] >= 0x80)
                {
                    i += 1;
                }
                let mut text = lossy(&bytes[start..i]);
                // `r#type` raw identifiers: the `r#` was not a raw string
                // (checked above), so glue the `#`-prefixed name on.
                if text == "r" && bytes.get(i) == Some(&b'#') {
                    let word_start = i + 1;
                    let mut j = word_start;
                    while j < bytes.len()
                        && (bytes[j] == b'_'
                            || bytes[j].is_ascii_alphanumeric()
                            || bytes[j] >= 0x80)
                    {
                        j += 1;
                    }
                    if j > word_start {
                        text = lossy(&bytes[word_start..j]);
                        i = j;
                    }
                }
                out.tokens.push(Tok {
                    kind: Kind::Ident,
                    text,
                    line,
                });
            }
            _ => {
                out.tokens.push(Tok {
                    kind: Kind::Punct,
                    text: (b as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Skips a `"…"` string starting at the opening quote; returns (index past
/// the closing quote, newlines crossed). Unterminated: runs to EOF.
fn skip_string(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut lines = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                lines += 1;
                i += 1;
            }
            b'"' => return (i + 1, lines),
            _ => i += 1,
        }
    }
    (bytes.len(), lines)
}

/// If a raw/byte string starts at `i` (`r"`, `r#"`, `br#"`, `b"`), skips it
/// and returns (index past the end, newlines crossed); `None` when `i` is
/// an ordinary identifier starting with `r`/`b`.
fn raw_string_at(bytes: &[u8], i: usize) -> Option<(usize, u32)> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    let raw = bytes.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    if !raw && hashes == 0 {
        // b"..." — an escaped string.
        let (next, lines) = skip_string(bytes, j);
        return Some((next, lines));
    }
    // Raw string: ends at `"` followed by `hashes` `#`s; no escapes.
    let mut k = j + 1;
    let mut lines = 0u32;
    while k < bytes.len() {
        if bytes[k] == b'\n' {
            lines += 1;
            k += 1;
            continue;
        }
        if bytes[k] == b'"' {
            let end = k + 1;
            if bytes.len() >= end + hashes && bytes[end..end + hashes].iter().all(|&b| b == b'#') {
                return Some((end + hashes, lines));
            }
        }
        k += 1;
    }
    Some((bytes.len(), lines))
}

/// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char literal) at `i`.
fn lifetime_or_char(bytes: &[u8], i: usize, line: u32) -> (Tok, usize, u32) {
    // Escaped char: always a literal.
    if bytes.get(i + 1) == Some(&b'\\') {
        let mut j = i + 2;
        let mut lines = 0u32;
        while j < bytes.len() && bytes[j] != b'\'' {
            if bytes[j] == b'\n' {
                lines += 1;
            }
            j += 1;
        }
        return (
            Tok {
                kind: Kind::Literal,
                text: String::new(),
                line,
            },
            (j + 1).min(bytes.len()),
            lines,
        );
    }
    // `'x'` (any single byte or multi-byte char then a quote) is a char
    // literal; `'ident` with no closing quote right after is a lifetime.
    let mut j = i + 1;
    while j < bytes.len()
        && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric() || bytes[j] >= 0x80)
    {
        j += 1;
    }
    if j > i + 1 && bytes.get(j) == Some(&b'\'') && j == i + 2 {
        // Exactly one word byte then a quote: 'a'
        return (
            Tok {
                kind: Kind::Literal,
                text: String::new(),
                line,
            },
            j + 1,
            0,
        );
    }
    if j > i + 1 && bytes.get(j) == Some(&b'\'') {
        // Multi-byte word then quote: a (unicode) char literal like '∂'.
        return (
            Tok {
                kind: Kind::Literal,
                text: String::new(),
                line,
            },
            j + 1,
            0,
        );
    }
    if j > i + 1 {
        return (
            Tok {
                kind: Kind::Lifetime,
                text: lossy(&bytes[i + 1..j]),
                line,
            },
            j,
            0,
        );
    }
    // Bare quote (e.g. `'('` handled above fails: non-word char). Treat
    // `'<non-word>'` as a char literal when a closing quote follows.
    if bytes.get(i + 2) == Some(&b'\'') {
        return (
            Tok {
                kind: Kind::Literal,
                text: String::new(),
                line,
            },
            i + 3,
            0,
        );
    }
    (
        Tok {
            kind: Kind::Punct,
            text: "'".to_owned(),
            line,
        },
        i + 1,
        0,
    )
}

/// One `// analyze: allow(lint, reason)` escape comment.
#[derive(Debug, Clone)]
pub struct Escape {
    pub line: u32,
    pub lint: String,
    pub reason: String,
}

/// Extracts escape comments. A malformed escape (missing lint name or
/// empty reason) is returned with an empty `reason` — the driver turns
/// those into diagnostics rather than silently honouring them.
pub fn escapes(comments: &[Comment]) -> Vec<Escape> {
    let mut out = Vec::new();
    for comment in comments {
        let Some(rest) = comment
            .text
            .split_once("analyze:")
            .map(|(_, rest)| rest.trim_start())
        else {
            continue;
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(args) = args.split_once(')').map(|(a, _)| a) else {
            // Unterminated allow(: surface as malformed.
            out.push(Escape {
                line: comment.line,
                lint: String::new(),
                reason: String::new(),
            });
            continue;
        };
        let (lint, reason) = match args.split_once(',') {
            Some((lint, reason)) => (lint.trim().to_owned(), reason.trim().to_owned()),
            None => (args.trim().to_owned(), String::new()),
        };
        out.push(Escape {
            line: comment.line,
            lint,
            reason,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let lexed = lex("fn main() {\n    let x = 1;\n}\n");
        let kinds: Vec<Kind> = lexed.tokens.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&Kind::Number));
        let let_tok = lexed.tokens.iter().find(|t| t.is_ident("let")).unwrap();
        assert_eq!(let_tok.line, 2);
        let close = lexed.tokens.iter().rfind(|t| t.is_punct('}')).unwrap();
        assert_eq!(close.line, 3);
    }

    #[test]
    fn strings_hide_their_contents() {
        let lexed = lex(r#"call("fn not_a_fn() { }", other)"#);
        assert_eq!(
            idents(r#"call("fn not_a_fn() { }", other)"#),
            ["call", "other"]
        );
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == Kind::Literal)
                .count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"quote \" inside\"#; after(s)";
        assert_eq!(idents(src), ["let", "s", "after", "s"]);
        let src2 = "let s = r\"plain\"; after(s)";
        assert_eq!(idents(src2), ["let", "s", "after", "s"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(idents("a(b\"\\r\\n\") c"), ["a", "c"]);
        assert_eq!(idents("a(br#\"x\"#) c"), ["a", "c"]);
    }

    #[test]
    fn comments_are_separated() {
        let lexed = lex("x // trailing fn fake\n/* block fn fake2 */ y");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            ["x", "y"]
        );
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("trailing"));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'q'; let nl = '\\n'; }");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == Kind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == Kind::Literal)
                .count(),
            2
        );
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* never closed", "'\\", "b\"", "'"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn escape_comments_parse() {
        let lexed = lex(
            "// analyze: allow(deadline, bounds checked two lines up)\nx[i];\n// analyze: allow(deadline)\n",
        );
        let escapes = escapes(&lexed.comments);
        assert_eq!(escapes.len(), 2);
        assert_eq!(escapes[0].lint, "deadline");
        assert_eq!(escapes[0].reason, "bounds checked two lines up");
        assert_eq!(escapes[0].line, 1);
        assert!(escapes[1].reason.is_empty());
    }
}
