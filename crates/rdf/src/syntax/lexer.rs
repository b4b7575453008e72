//! Tokenizer shared by SPARQL, Turtle and TriG.

use super::ParseError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Token {
    /// `SELECT`, `FROM`, `WHERE`, `VALUES`, `PREFIX`, `GRAPH`, `DISTINCT` —
    /// matched case-insensitively and normalized to upper case.
    Keyword(String),
    /// `?name`.
    Var(String),
    /// `<iri>` content, without brackets.
    Iri(String),
    /// `prefix:local`, `_:label`, and bare `a`.
    PrefixedName(String),
    /// String literal content (unescaped) with optional language / datatype
    /// handled by the parser via following tokens.
    Literal(String),
    /// `@lang` following a literal; also Turtle's `@prefix`.
    LangTag(String),
    /// `^^` announcing a datatype.
    DatatypeMarker,
    /// Number literal kept as its lexical form.
    Number(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Semicolon,
    Comma,
    Star,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Var(v) => write!(f, "?{v}"),
            Token::Iri(i) => write!(f, "<{i}>"),
            Token::PrefixedName(p) => write!(f, "{p}"),
            Token::Literal(l) => write!(f, "\"{l}\""),
            Token::LangTag(l) => write!(f, "@{l}"),
            Token::DatatypeMarker => write!(f, "^^"),
            Token::Number(n) => write!(f, "{n}"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Dot => write!(f, "."),
            Token::Semicolon => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Star => write!(f, "*"),
        }
    }
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "VALUES", "PREFIX", "GRAPH", "DISTINCT",
];

/// Whether `c` can start a name. ASCII digits never reach this test: they
/// start a number.
fn starts_name(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte length of the name at the start of `s`. A name continues with
/// letters, digits and `_ - : . / ~`, except that a `.` belongs to it only
/// when a letter, digit, `_`, `-` or `/` follows: a trailing dot is
/// statement punctuation.
fn name_len(s: &str) -> usize {
    let mut chars = s.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let continues = match c {
            '.' => chars
                .peek()
                .is_some_and(|&(_, n)| n.is_alphanumeric() || matches!(n, '_' | '-' | '/')),
            _ => c.is_alphanumeric() || matches!(c, '_' | '-' | ':' | '/' | '~'),
        };
        if !continues {
            return i;
        }
    }
    s.len()
}

/// Whether `s` is one name to the lexer: what a blank node label must be.
pub(crate) fn is_name(s: &str) -> bool {
    !s.is_empty() && name_len(s) == s.len()
}

/// Whether a language tag character continues the run after `@`.
fn lang_char(c: char) -> bool {
    c.is_alphanumeric() || c == '-'
}

/// Whether `s` lexes back whole after `@`.
pub(crate) fn is_lang_tag(s: &str) -> bool {
    !s.is_empty() && s.chars().all(lang_char)
}

/// Whether `s` lexes back as exactly one prefixed name (`pfx:local`).
pub(crate) fn is_prefixed_name(s: &str) -> bool {
    s.starts_with(|c: char| starts_name(c) && !c.is_ascii_digit())
        && !s.starts_with("_:")
        && name_len(s) == s.len()
}

/// The character offset of byte offset `byte` in `input`.
fn char_offset(input: &str, byte: usize) -> usize {
    input[..byte].chars().count()
}

/// Reads the string literal opening at `input[start]`, resolving the
/// SPARQL/Turtle `ECHAR` escapes; returns its value and byte length.
fn string_literal(input: &str, start: usize) -> Result<(String, usize), ParseError> {
    let mut value = String::new();
    let mut chars = input[start..].char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        value.push(match c {
            '"' => return Ok((value, i + 1)),
            '\\' => match chars.next() {
                Some((_, 't')) => '\t',
                Some((_, 'b')) => '\u{8}',
                Some((_, 'n')) => '\n',
                Some((_, 'r')) => '\r',
                Some((_, 'f')) => '\u{c}',
                Some((_, e @ ('"' | '\'' | '\\'))) => e,
                Some((j, e)) => {
                    return Err(ParseError::BadEscape(e, char_offset(input, start + j)))
                }
                None => break,
            },
            c => c,
        });
    }
    Err(ParseError::Unterminated("string literal"))
}

/// Tokenizes a SPARQL query or a Turtle / TriG document.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let mut i = 0;
    while let Some(c) = input[i..].chars().next() {
        let rest = &input[i..];
        let next = rest[c.len_utf8()..].chars().next();
        // Length of the run after a one-byte sigil (`?x`, `@en`).
        let run = |more: fn(char) -> bool| rest[1..].find(|c| !more(c)).unwrap_or(rest.len() - 1);
        let (token, len) = match c {
            _ if c.is_whitespace() => {
                i += c.len_utf8();
                continue;
            }
            '#' => {
                i += rest.find('\n').unwrap_or(rest.len());
                continue;
            }
            '{' => (Token::LBrace, 1),
            '}' => (Token::RBrace, 1),
            '(' => (Token::LParen, 1),
            ')' => (Token::RParen, 1),
            ';' => (Token::Semicolon, 1),
            ',' => (Token::Comma, 1),
            '*' => (Token::Star, 1),
            '.' => (Token::Dot, 1),
            '?' | '$' => match run(|c| c.is_alphanumeric() || c == '_') {
                0 => return Err(ParseError::UnexpectedChar(c, char_offset(input, i))),
                n => (Token::Var(rest[1..=n].to_owned()), n + 1),
            },
            '<' => {
                let end = rest.find('>').ok_or(ParseError::Unterminated("IRI"))?;
                (Token::Iri(rest[1..end].to_owned()), end + 1)
            }
            '"' => {
                let (value, len) = string_literal(input, i)?;
                (Token::Literal(value), len)
            }
            '@' => {
                let n = run(lang_char);
                (Token::LangTag(rest[1..=n].to_owned()), n + 1)
            }
            '^' if next == Some('^') => (Token::DatatypeMarker, 2),
            _ if c.is_ascii_digit() || (c == '-' && next.is_some_and(|n| n.is_ascii_digit())) => {
                let b = rest.as_bytes();
                let mut n = 1;
                // A dot belongs to the number only with a digit after it.
                while b.get(n).is_some_and(|d| d.is_ascii_digit())
                    || (b.get(n) == Some(&b'.') && b.get(n + 1).is_some_and(u8::is_ascii_digit))
                {
                    n += 1;
                }
                (Token::Number(rest[..n].to_owned()), n)
            }
            _ if starts_name(c) => {
                let n = name_len(rest);
                let word = &rest[..n];
                let token = match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) {
                    Some(k) => Token::Keyword((*k).to_owned()),
                    None => Token::PrefixedName(word.to_owned()),
                };
                (token, n)
            }
            _ => return Err(ParseError::UnexpectedChar(c, char_offset(input, i))),
        };
        tokens.push(token);
        i += len;
    }
    Ok(tokens)
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_minimal_query() {
        let toks = tokenize("SELECT ?x WHERE { ?x a <http://e/C> . }").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Var("x".into()),
                Token::Keyword("WHERE".into()),
                Token::LBrace,
                Token::Var("x".into()),
                Token::PrefixedName("a".into()),
                Token::Iri("http://e/C".into()),
                Token::Dot,
                Token::RBrace,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = tokenize("select ?x where { }").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[2], Token::Keyword("WHERE".into()));
    }

    #[test]
    fn literals_with_lang_and_datatype() {
        let toks = tokenize(r#""chat"@en "12"^^xsd:integer"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Literal("chat".into()),
                Token::LangTag("en".into()),
                Token::Literal("12".into()),
                Token::DatatypeMarker,
                Token::PrefixedName("xsd:integer".into()),
            ]
        );
    }

    #[test]
    fn prefixed_names_keep_dots_inside() {
        let toks = tokenize("sup:Monitor.v2 sup:p sup:o .").unwrap();
        assert_eq!(toks[0], Token::PrefixedName("sup:Monitor.v2".into()));
        assert_eq!(toks.last(), Some(&Token::Dot));
    }

    #[test]
    fn one_name_rule_for_every_format() {
        // Letters (any script), digits and `_ - : . / ~`; a dot only
        // with a name character after it.
        let toks = tokenize("e:a.b~c/d-é e:x. e:y..z").unwrap();
        assert_eq!(toks[0], Token::PrefixedName("e:a.b~c/d-é".into()));
        assert_eq!(toks[1..3], [Token::PrefixedName("e:x".into()), Token::Dot]);
        assert_eq!(toks[3..5], [Token::PrefixedName("e:y".into()), Token::Dot]);
        assert!(is_prefixed_name("e:a.b"));
        assert!(!is_prefixed_name("e:a."));
        assert!(!is_prefixed_name("_:b0"));
        assert!(!is_prefixed_name("1e:a"));
    }

    #[test]
    fn unterminated_iri_is_an_error() {
        assert!(matches!(
            tokenize("<http://e/x"),
            Err(ParseError::Unterminated("IRI"))
        ));
    }

    #[test]
    fn numbers_lex_and_trailing_dot_separates() {
        let toks = tokenize("42 3.25 7 .").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number("42".into()),
                Token::Number("3.25".into()),
                Token::Number("7".into()),
                Token::Dot,
            ]
        );
    }

    #[test]
    fn echar_escapes_decode_and_any_other_escape_is_an_error() {
        let toks = tokenize(r#""\t\b\n\r\f\"\'\\""#).unwrap();
        assert_eq!(toks, [Token::Literal("\t\u{8}\n\r\u{c}\"'\\".into())]);
        assert_eq!(tokenize(r#"é "a\qb""#), Err(ParseError::BadEscape('q', 5)));
    }

    #[test]
    fn error_offsets_count_characters() {
        assert_eq!(tokenize("éé ^"), Err(ParseError::UnexpectedChar('^', 3)));
        assert_eq!(
            tokenize("e:日本 $"),
            Err(ParseError::UnexpectedChar('$', 5))
        );
        assert_eq!(tokenize("😀"), Err(ParseError::UnexpectedChar('😀', 0)));
    }
}
