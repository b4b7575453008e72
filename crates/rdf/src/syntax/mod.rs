//! The one reader of RDF text: a tokenizer and the productions SPARQL,
//! Turtle and TriG share.
//!
//! ```text
//! prefixDecl  := PREFIX pname iri | '@prefix' pname iri '.'
//! graphBlock  := GRAPH (var | iri) group
//! group       := '{' triples* '}'
//! triples     := node verb node (',' node)* (';' verb node (',' node)*)* '.'?
//! document    := (prefixDecl | graphBlock | iri group | triples)*
//! ```
//!
//! Three front doors sit on it, and each rejects what its format may not
//! hold: [`crate::sparql::parse_query`] (no blank nodes),
//! [`crate::turtle::parse_turtle`] and [`crate::trig::parse_trig`] (no
//! variables, no `GRAPH ?g`, no literal subjects, each top-level triples
//! block ended by its `.`; Turtle also no graph blocks). Both document
//! formats go through [`parse_document`].

// Parses text from outside the process: a bad byte is an `Err`, never a
// panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub(crate) mod lexer;

use crate::model::{BlankNode, GraphName, InvalidTerm, Iri, Literal, Quad, Subject, Term};
use crate::sparql::ast::*;
use crate::turtle::PrefixMap;
use lexer::{tokenize, Token};

/// Errors raised while reading SPARQL, Turtle or TriG text. Offsets count
/// characters.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum ParseError {
    #[error("unexpected character {0:?} at offset {1}")]
    UnexpectedChar(char, usize),
    #[error("invalid escape sequence \\{0} at offset {1}")]
    BadEscape(char, usize),
    #[error("unterminated {0}")]
    Unterminated(&'static str),
    #[error("unexpected end of input while parsing {0}")]
    UnexpectedEof(&'static str),
    #[error("expected {expected}, found `{found}`")]
    Unexpected {
        expected: &'static str,
        found: String,
    },
    #[error("unknown prefix in `{0}`")]
    UnknownPrefix(String),
    #[error("VALUES row has {found} terms but {expected} variables are declared")]
    ValuesArity { expected: usize, found: usize },
    #[error("invalid term: {0}")]
    InvalidTerm(#[from] InvalidTerm),
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: PrefixMap,
}

impl Parser {
    pub(crate) fn new(input: &str, prefixes: PrefixMap) -> Result<Self, ParseError> {
        Ok(Self {
            tokens: tokenize(input)?,
            pos: 0,
            prefixes,
        })
    }

    pub(crate) fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    pub(crate) fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn expect(
        &mut self,
        expected: &Token,
        what: &'static str,
    ) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if &t == expected => Ok(()),
            Some(t) => Err(ParseError::Unexpected {
                expected: what,
                found: t.to_string(),
            }),
            None => Err(ParseError::UnexpectedEof(what)),
        }
    }

    pub(crate) fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            Some(t) => Err(ParseError::Unexpected {
                expected: "keyword",
                found: t.to_string(),
            }),
            None => Err(ParseError::UnexpectedEof("keyword")),
        }
    }

    pub(crate) fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if k == kw)
    }

    pub(crate) fn parse_prefix_decl(&mut self) -> Result<(), ParseError> {
        let turtle = matches!(self.peek(), Some(Token::LangTag(t)) if t == "prefix");
        if turtle {
            self.bump();
        } else {
            self.expect_keyword("PREFIX")?;
        }
        let name = match self.bump() {
            // `pfx:` lexes as a prefixed name with an empty local part.
            Some(Token::PrefixedName(p)) => p.trim_end_matches(':').to_owned(),
            Some(t) => {
                return Err(ParseError::Unexpected {
                    expected: "prefix name",
                    found: t.to_string(),
                })
            }
            None => return Err(ParseError::UnexpectedEof("prefix name")),
        };
        let iri = self.parse_iri()?;
        self.prefixes.insert(name, iri.as_str().to_owned());
        if turtle {
            self.expect(&Token::Dot, "`.` ending @prefix")?;
        }
        Ok(())
    }

    pub(crate) fn parse_iri(&mut self) -> Result<Iri, ParseError> {
        match self.bump() {
            Some(Token::Iri(iri)) => Ok(Iri::try_new(&iri)?),
            Some(Token::PrefixedName(name)) => self.prefixes.expand(&name),
            Some(t) => Err(ParseError::Unexpected {
                expected: "IRI",
                found: t.to_string(),
            }),
            None => Err(ParseError::UnexpectedEof("IRI")),
        }
    }

    pub(crate) fn parse_graph_block(
        &mut self,
        patterns: &mut Vec<QuadPattern>,
    ) -> Result<(), ParseError> {
        self.expect_keyword("GRAPH")?;
        let spec = match self.peek() {
            Some(Token::Var(_)) => {
                let Some(Token::Var(v)) = self.bump() else {
                    unreachable!()
                };
                GraphSpec::Var(Variable::new(v))
            }
            _ => GraphSpec::Named(self.parse_iri()?),
        };
        self.parse_group(spec, patterns)
    }

    fn parse_group(
        &mut self,
        spec: GraphSpec,
        patterns: &mut Vec<QuadPattern>,
    ) -> Result<(), ParseError> {
        self.expect(&Token::LBrace, "`{` opening GRAPH block")?;
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    return Ok(());
                }
                Some(_) => {
                    self.parse_triples(spec.clone(), patterns)?;
                }
                None => return Err(ParseError::UnexpectedEof("GRAPH block")),
            }
        }
    }

    pub(crate) fn parse_constant_term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(Token::PrefixedName(name)) if name.starts_with("_:") => {
                let blank = BlankNode::try_new(&name[2..])?;
                self.bump();
                return Ok(Term::Blank(blank));
            }
            Some(Token::Iri(_) | Token::PrefixedName(_)) => {
                return Ok(Term::Iri(self.parse_iri()?))
            }
            _ => {}
        }
        match self.bump() {
            Some(Token::Literal(value)) => match self.peek() {
                Some(Token::LangTag(_)) => {
                    let Some(Token::LangTag(lang)) = self.bump() else {
                        unreachable!()
                    };
                    Ok(Term::Literal(Literal::try_lang_string(&value, &lang)?))
                }
                Some(Token::DatatypeMarker) => {
                    self.bump();
                    let dt = self.parse_iri()?;
                    Ok(Term::Literal(Literal::typed(value, dt)))
                }
                _ => Ok(Term::Literal(Literal::string(value))),
            },
            Some(Token::Number(n)) => {
                let datatype = if n.contains('.') {
                    &crate::vocab::xsd::DOUBLE
                } else {
                    &crate::vocab::xsd::INTEGER
                };
                Ok(Term::Literal(Literal::typed(n, (**datatype).clone())))
            }
            Some(t) => Err(ParseError::Unexpected {
                expected: "constant term",
                found: t.to_string(),
            }),
            None => Err(ParseError::UnexpectedEof("constant term")),
        }
    }

    fn parse_node(&mut self) -> Result<TermOrVar, ParseError> {
        match self.peek() {
            Some(Token::Var(_)) => {
                let Some(Token::Var(v)) = self.bump() else {
                    unreachable!()
                };
                Ok(TermOrVar::Var(Variable::new(v)))
            }
            Some(Token::PrefixedName(name)) if name == "a" => {
                self.bump();
                Ok(TermOrVar::Term(Term::Iri(
                    (*crate::vocab::rdf::TYPE).clone(),
                )))
            }
            _ => Ok(TermOrVar::Term(self.parse_constant_term()?)),
        }
    }

    /// Parses one triples block; true when it ended with its `.`.
    pub(crate) fn parse_triples(
        &mut self,
        graph: GraphSpec,
        patterns: &mut Vec<QuadPattern>,
    ) -> Result<bool, ParseError> {
        let subject = self.parse_node()?;
        self.parse_predicate_objects(subject, graph, patterns)
    }

    fn parse_predicate_objects(
        &mut self,
        subject: TermOrVar,
        graph: GraphSpec,
        patterns: &mut Vec<QuadPattern>,
    ) -> Result<bool, ParseError> {
        loop {
            let predicate = self.parse_node()?;
            loop {
                let object = self.parse_node()?;
                patterns.push(QuadPattern {
                    pattern: TriplePattern {
                        subject: subject.clone(),
                        predicate: predicate.clone(),
                        object,
                    },
                    graph: graph.clone(),
                });
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.bump();
                    continue;
                }
                break;
            }
            match self.peek() {
                Some(Token::Semicolon) => {
                    self.bump();
                    // Dangling `;` before `.` or `}`.
                    if matches!(self.peek(), Some(Token::Dot)) {
                        self.bump();
                        return Ok(true);
                    }
                    if matches!(self.peek(), Some(Token::RBrace) | None) {
                        return Ok(false);
                    }
                    continue;
                }
                Some(Token::Dot) => {
                    self.bump();
                    return Ok(true);
                }
                _ => return Ok(false),
            }
        }
    }
}

/// Parses a Turtle or TriG document into quads (triples outside a graph
/// block land in the default graph) and the prefixes it declares.
pub(crate) fn parse_document(input: &str) -> Result<(Vec<Quad>, PrefixMap), ParseError> {
    let mut parser = Parser::new(input, PrefixMap::new())?;
    let mut patterns = Vec::new();
    while let Some(token) = parser.peek() {
        match token {
            Token::Keyword(k) if k == "PREFIX" => parser.parse_prefix_decl()?,
            Token::LangTag(t) if t == "prefix" => parser.parse_prefix_decl()?,
            Token::Keyword(k) if k == "GRAPH" => parser.parse_graph_block(&mut patterns)?,
            _ => {
                let node = parser.parse_node()?;
                if parser.peek() == Some(&Token::LBrace) {
                    let TermOrVar::Term(Term::Iri(name)) = node else {
                        return Err(ParseError::Unexpected {
                            expected: "graph IRI",
                            found: node.to_string(),
                        });
                    };
                    parser.parse_group(GraphSpec::Named(name), &mut patterns)?;
                } else if !parser.parse_predicate_objects(node, GraphSpec::Active, &mut patterns)? {
                    return Err(match parser.peek() {
                        Some(t) => ParseError::Unexpected {
                            expected: "`.` ending a triples block",
                            found: t.to_string(),
                        },
                        None => ParseError::UnexpectedEof("triples block"),
                    });
                }
            }
        }
    }
    let quads = patterns
        .into_iter()
        .map(into_quad)
        .collect::<Result<_, _>>()?;
    Ok((quads, parser.prefixes))
}

/// Turns a parsed pattern into data, rejecting what RDF data cannot hold.
fn into_quad(qp: QuadPattern) -> Result<Quad, ParseError> {
    let term = |node: TermOrVar| match node {
        TermOrVar::Term(t) => Ok(t),
        TermOrVar::Var(v) => Err(ParseError::Unexpected {
            expected: "RDF term",
            found: v.to_string(),
        }),
    };
    let subject =
        Subject::try_from(term(qp.pattern.subject)?).map_err(|l| ParseError::Unexpected {
            expected: "IRI or blank node subject",
            found: l.to_string(),
        })?;
    let predicate = match term(qp.pattern.predicate)? {
        Term::Iri(p) => p,
        other => {
            return Err(ParseError::Unexpected {
                expected: "predicate IRI",
                found: other.to_string(),
            })
        }
    };
    let graph = match qp.graph {
        GraphSpec::Active => GraphName::Default,
        GraphSpec::Named(g) => GraphName::Named(g),
        GraphSpec::Var(v) => {
            return Err(ParseError::Unexpected {
                expected: "graph IRI",
                found: v.to_string(),
            })
        }
    };
    Ok(Quad {
        subject,
        predicate,
        object: term(qp.pattern.object)?,
        graph,
    })
}
