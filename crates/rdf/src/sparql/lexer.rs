//! Tokenizer for the SPARQL subset.

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
    /// `prefix:local` (also bare `a`).
    PrefixedName(String),
    /// String literal content (unescaped) with optional language / datatype
    /// handled by the parser via following tokens.
    Literal(String),
    /// `@lang` following a literal.
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

/// Lexer errors.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum LexError {
    #[error("unexpected character {0:?} at offset {1}")]
    UnexpectedChar(char, usize),
    #[error("unterminated {0}")]
    Unterminated(&'static str),
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "VALUES", "PREFIX", "GRAPH", "DISTINCT",
];

/// Tokenizes a query string.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            _ if c.is_whitespace() => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '?' | '$' => {
                i += 1;
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                if start == i {
                    return Err(LexError::UnexpectedChar('?', start));
                }
                tokens.push(Token::Var(bytes[start..i].iter().collect()));
            }
            '<' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != '>' {
                    i += 1;
                }
                if i == bytes.len() {
                    return Err(LexError::Unterminated("IRI"));
                }
                tokens.push(Token::Iri(bytes[start..i].iter().collect()));
                i += 1;
            }
            '"' => {
                i += 1;
                let mut value = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError::Unterminated("string literal"));
                    }
                    match bytes[i] {
                        '\\' => {
                            i += 1;
                            if i >= bytes.len() {
                                return Err(LexError::Unterminated("string literal"));
                            }
                            value.push(match bytes[i] {
                                'n' => '\n',
                                't' => '\t',
                                'r' => '\r',
                                other => other,
                            });
                            i += 1;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        other => {
                            value.push(other);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token::Literal(value));
            }
            '@' => {
                i += 1;
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '-') {
                    i += 1;
                }
                tokens.push(Token::LangTag(bytes[start..i].iter().collect()));
            }
            '^' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '^' {
                    tokens.push(Token::DatatypeMarker);
                    i += 2;
                } else {
                    return Err(LexError::UnexpectedChar('^', i));
                }
            }
            _ if c.is_ascii_digit()
                || (c == '-' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit()) =>
            {
                let start = i;
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    // A trailing dot is statement punctuation.
                    if bytes[i] == '.' && (i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token::Number(bytes[start..i].iter().collect()));
            }
            _ if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_alphanumeric()
                        || matches!(bytes[i], '_' | '-' | ':' | '.' | '/' | '~'))
                {
                    // A trailing dot is statement punctuation, not name.
                    if bytes[i] == '.'
                        && (i + 1 >= bytes.len()
                            || !(bytes[i + 1].is_alphanumeric()
                                || matches!(bytes[i + 1], '_' | '-' | '/')))
                    {
                        break;
                    }
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    tokens.push(Token::Keyword(upper));
                } else {
                    tokens.push(Token::PrefixedName(word));
                }
            }
            other => return Err(LexError::UnexpectedChar(other, i)),
        }
    }
    Ok(tokens)
}

#[cfg(test)]
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
    fn unterminated_iri_is_an_error() {
        assert!(matches!(
            tokenize("<http://e/x"),
            Err(LexError::Unterminated("IRI"))
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
}
