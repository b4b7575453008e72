//! Recursive-descent parser for the SPARQL subset.
//!
//! Accepts the grammar:
//!
//! ```text
//! query       := prefixDecl* SELECT DISTINCT? (var+ | '*') (FROM iri)? WHERE groupGraph
//! groupGraph  := '{' (valuesClause | graphBlock | triples)* '}'
//! valuesClause:= VALUES '(' var* ')' '{' ('(' term* ')')* '}'
//! ```
//!
//! over the `prefixDecl`, `graphBlock` and `triples` productions shared
//! with Turtle and TriG, which covers Code 3 / Code 5 / Code 8 of the
//! paper plus variables and `GRAPH ?g { … }`.

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

use super::ast::*;
use crate::model::Term;
use crate::syntax::lexer::Token;
pub use crate::syntax::ParseError;
use crate::syntax::Parser;
use crate::turtle::PrefixMap;

/// Parses a SPARQL `SELECT` query. `base_prefixes` seeds the prefix table
/// (queries may add their own `PREFIX` declarations on top). Blank nodes
/// are rejected: the evaluator has no semantics for them.
pub fn parse_query(input: &str, base_prefixes: &PrefixMap) -> Result<SelectQuery, ParseError> {
    let query = Parser::new(input, base_prefixes.clone())?.parse_query()?;
    let pattern_terms = query.patterns.iter().flat_map(|qp| {
        let p = &qp.pattern;
        [&p.subject, &p.predicate, &p.object].map(TermOrVar::as_term)
    });
    let value_terms = query.values.iter().flat_map(|v| v.rows.iter().flatten());
    if let Some(blank) = pattern_terms
        .flatten()
        .chain(value_terms)
        .find(|t| matches!(t, Term::Blank(_)))
    {
        return Err(ParseError::Unexpected {
            expected: "IRI, literal or variable",
            found: blank.to_string(),
        });
    }
    Ok(query)
}

impl Parser {
    fn parse_query(&mut self) -> Result<SelectQuery, ParseError> {
        while self.at_keyword("PREFIX") {
            self.parse_prefix_decl()?;
        }
        self.expect_keyword("SELECT")?;
        if self.at_keyword("DISTINCT") {
            self.bump();
        }
        let mut select = Vec::new();
        loop {
            match self.peek() {
                Some(Token::Var(_)) => {
                    if let Some(Token::Var(name)) = self.bump() {
                        select.push(Variable::new(name));
                    }
                }
                Some(Token::Star) => {
                    self.bump();
                    break;
                }
                _ => break,
            }
        }
        let from = if self.at_keyword("FROM") {
            self.bump();
            Some(self.parse_iri()?)
        } else {
            None
        };
        self.expect_keyword("WHERE")?;
        self.expect(&Token::LBrace, "`{`")?;

        let mut values = None;
        let mut patterns = Vec::new();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                Some(Token::Keyword(k)) if k == "VALUES" => {
                    values = Some(self.parse_values()?);
                }
                Some(Token::Keyword(k)) if k == "GRAPH" => {
                    self.parse_graph_block(&mut patterns)?;
                }
                Some(_) => {
                    self.parse_triples(GraphSpec::Active, &mut patterns)?;
                }
                None => return Err(ParseError::UnexpectedEof("`}`")),
            }
        }
        Ok(SelectQuery {
            select,
            from,
            values,
            patterns,
        })
    }

    fn parse_values(&mut self) -> Result<ValuesClause, ParseError> {
        self.expect_keyword("VALUES")?;
        self.expect(&Token::LParen, "`(` after VALUES")?;
        let mut vars = Vec::new();
        loop {
            match self.bump() {
                Some(Token::Var(v)) => vars.push(Variable::new(v)),
                Some(Token::RParen) => break,
                Some(t) => {
                    return Err(ParseError::Unexpected {
                        expected: "variable or `)`",
                        found: t.to_string(),
                    })
                }
                None => return Err(ParseError::UnexpectedEof("VALUES variables")),
            }
        }
        self.expect(&Token::LBrace, "`{` opening VALUES rows")?;
        let mut rows = Vec::new();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                Some(Token::LParen) => {
                    self.bump();
                    let mut row = Vec::new();
                    loop {
                        if matches!(self.peek(), Some(Token::RParen)) {
                            self.bump();
                            break;
                        }
                        row.push(self.parse_constant_term()?);
                    }
                    if row.len() != vars.len() {
                        return Err(ParseError::ValuesArity {
                            expected: vars.len(),
                            found: row.len(),
                        });
                    }
                    rows.push(row);
                }
                Some(t) => {
                    return Err(ParseError::Unexpected {
                        expected: "`(` or `}` in VALUES rows",
                        found: t.to_string(),
                    })
                }
                None => return Err(ParseError::UnexpectedEof("VALUES rows")),
            }
        }
        Ok(ValuesClause { vars, rows })
    }
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

    fn prefixes() -> PrefixMap {
        let mut p = PrefixMap::with_common_vocabularies();
        p.insert("sup", "http://e/sup/");
        p.insert("G", "http://e/G/");
        p
    }

    #[test]
    fn parses_the_paper_template_query() {
        // Code 8 of the paper, modulo namespaces.
        let q = parse_query(
            r#"
            SELECT ?x ?y
            FROM <http://e/Global>
            WHERE {
                VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
                sup:SoftwareApplication G:hasFeature sup:applicationId .
                sup:SoftwareApplication sup:hasMonitor sup:Monitor .
                sup:Monitor sup:generatesQoS sup:InfoMonitor .
                sup:InfoMonitor G:hasFeature sup:lagRatio
            }
            "#,
            &prefixes(),
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from.as_ref().unwrap().as_str(), "http://e/Global");
        let values = q.values.unwrap();
        assert_eq!(values.vars.len(), 2);
        assert_eq!(values.rows.len(), 1);
        assert_eq!(values.rows[0][0], Term::iri("http://e/sup/applicationId"));
        assert_eq!(q.patterns.len(), 4);
        // All template patterns are constant.
        assert!(q.patterns.iter().all(|p| p.pattern.bound_count() == 3));
    }

    #[test]
    fn parses_variables_and_graph_blocks() {
        let q = parse_query(
            "SELECT ?g WHERE { GRAPH ?g { sup:Monitor G:hasFeature sup:monitorId } }",
            &prefixes(),
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 1);
        assert!(matches!(&q.patterns[0].graph, GraphSpec::Var(v) if v.name() == "g"));
    }

    #[test]
    fn parses_prefix_declarations() {
        let q = parse_query(
            "PREFIX ex: <http://x.org/> SELECT ?s WHERE { ?s a ex:C . }",
            &PrefixMap::new(),
        )
        .unwrap();
        let TermOrVar::Term(obj) = &q.patterns[0].pattern.object else {
            panic!("expected constant object");
        };
        assert_eq!(obj, &Term::iri("http://x.org/C"));
    }

    #[test]
    fn select_star_and_semicolon_lists() {
        let q = parse_query(
            "SELECT * WHERE { ?s a sup:C ; sup:p ?o1 , ?o2 . }",
            &prefixes(),
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 3);
        assert_eq!(q.projection().len(), 3);
    }

    #[test]
    fn values_arity_mismatch_is_an_error() {
        let err = parse_query(
            "SELECT ?x ?y WHERE { VALUES (?x ?y) { (sup:a) } }",
            &prefixes(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ParseError::ValuesArity {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn blank_nodes_and_non_echar_escapes_are_rejected() {
        let blank = parse_query("SELECT ?x WHERE { _:b sup:p ?x . }", &prefixes());
        assert!(matches!(blank, Err(ParseError::Unexpected { found, .. }) if found == "_:b"));
        let escape = parse_query(r#"SELECT ?x WHERE { ?x sup:p "a\qb" }"#, &prefixes());
        assert!(matches!(escape, Err(ParseError::BadEscape('q', 30))));
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let err = parse_query("SELECT ?x WHERE { ?x a zz:C . }", &PrefixMap::new()).unwrap_err();
        assert!(matches!(err, ParseError::UnknownPrefix(_)));
    }

    #[test]
    fn literals_in_patterns() {
        let q = parse_query(
            r#"SELECT ?s WHERE { ?s sup:label "hello"@en . ?s sup:count "3"^^xsd:integer . }"#,
            &prefixes(),
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 2);
        let TermOrVar::Term(Term::Literal(l)) = &q.patterns[0].pattern.object else {
            panic!("expected literal");
        };
        assert_eq!(l.lang(), Some("en"));
    }
}
