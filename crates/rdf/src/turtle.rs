//! Turtle subset reader and writer.
//!
//! Supports the fragment of Turtle the paper's metamodels use (Codes 6–7):
//! `@prefix` directives, IRIs (angle-bracketed or prefixed names), blank
//! nodes, plain / language-tagged / typed literals, predicate lists (`;`),
//! object lists (`,`) and comments. No collections, no `[ ... ]` anonymous
//! blank-node property lists, no multiline strings — the vocabularies don't
//! need them, and the parser rejects them loudly rather than mis-reading.

use crate::model::{BlankNode, GraphName, Iri, Literal, Quad, Term, Triple};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a literal's lexical form for serialization.
pub(crate) fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_literal(s: &str) -> Result<String, TurtleError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => return Err(TurtleError::BadEscape(other)),
            None => return Err(TurtleError::UnexpectedEof("escape sequence")),
        }
    }
    Ok(out)
}

/// Errors produced while parsing Turtle.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum TurtleError {
    #[error("unexpected end of input while parsing {0}")]
    UnexpectedEof(&'static str),
    #[error("unknown prefix: {0}")]
    UnknownPrefix(String),
    #[error("unexpected character {0:?} at offset {1}")]
    UnexpectedChar(char, usize),
    #[error("invalid escape sequence: \\{0}")]
    BadEscape(char),
    #[error("expected {expected} but found {found:?}")]
    Expected {
        expected: &'static str,
        found: String,
    },
    #[error("literal is not a valid subject")]
    LiteralSubject,
    #[error("invalid IRI: {0}")]
    BadIri(String),
}

/// A prefix table used by both the writer and the parser.
#[derive(Debug, Clone, Default)]
pub struct PrefixMap {
    prefixes: BTreeMap<String, String>,
}

impl PrefixMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// A prefix map preloaded with the vocabularies of the BDI ontology.
    pub fn with_common_vocabularies() -> Self {
        let mut map = Self::new();
        map.insert("rdf", crate::vocab::rdf::NS);
        map.insert("rdfs", crate::vocab::rdfs::NS);
        map.insert("owl", crate::vocab::owl::NS);
        map.insert("xsd", crate::vocab::xsd::NS);
        map.insert("voaf", crate::vocab::voaf::NS);
        map.insert("vann", crate::vocab::vann::NS);
        map.insert("sc", crate::vocab::sc::NS);
        map
    }

    /// Registers `prefix:` → namespace.
    pub fn insert(&mut self, prefix: impl Into<String>, namespace: impl Into<String>) {
        self.prefixes.insert(prefix.into(), namespace.into());
    }

    /// Expands a prefixed name `pfx:local`.
    pub(crate) fn expand(&self, prefixed: &str) -> Result<Iri, TurtleError> {
        let (pfx, local) = prefixed
            .split_once(':')
            .ok_or_else(|| TurtleError::UnknownPrefix(prefixed.to_owned()))?;
        let ns = self
            .prefixes
            .get(pfx)
            .ok_or_else(|| TurtleError::UnknownPrefix(pfx.to_owned()))?;
        Iri::try_new(&format!("{ns}{local}")).map_err(|e| TurtleError::BadIri(e.to_string()))
    }

    /// Compacts an IRI into `pfx:local` when a registered namespace prefixes
    /// it; otherwise returns the `<...>` form.
    pub(crate) fn compact(&self, iri: &Iri) -> String {
        let s = iri.as_str();
        for (pfx, ns) in &self.prefixes {
            if let Some(local) = s.strip_prefix(ns.as_str()) {
                if !local.is_empty()
                    && local
                        .chars()
                        .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '/'))
                    && !local.contains('/')
                {
                    return format!("{pfx}:{local}");
                }
            }
        }
        format!("<{s}>")
    }

    /// Iterates registered `(prefix, namespace)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.prefixes.iter().map(|(p, n)| (p.as_str(), n.as_str()))
    }
}

/// Serializes triples as Turtle, grouping by subject and using `;` lists.
pub fn write_turtle<'a>(
    triples: impl IntoIterator<Item = &'a Triple>,
    prefixes: &PrefixMap,
) -> String {
    let mut by_subject: BTreeMap<String, Vec<&Triple>> = BTreeMap::new();
    let mut subject_terms: BTreeMap<String, &Term> = BTreeMap::new();
    for t in triples {
        let key = t.subject.to_string();
        by_subject.entry(key.clone()).or_default().push(t);
        subject_terms.entry(key).or_insert(&t.subject);
    }

    let mut out = String::new();
    for (pfx, ns) in prefixes.iter() {
        let _ = writeln!(out, "@prefix {pfx}: <{ns}> .");
    }
    if !by_subject.is_empty() {
        out.push('\n');
    }
    for (key, triples) in &by_subject {
        let subject = subject_terms[key];
        let _ = write!(out, "{}", render_term(subject, prefixes));
        let mut grouped: BTreeMap<String, Vec<&Triple>> = BTreeMap::new();
        for t in triples {
            grouped
                .entry(t.predicate.as_str().to_owned())
                .or_default()
                .push(t);
        }
        let n = grouped.len();
        for (i, (_, ts)) in grouped.iter().enumerate() {
            let pred = &ts[0].predicate;
            let _ = write!(out, " {} ", render_predicate(pred, prefixes));
            for (j, t) in ts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", render_term(&t.object, prefixes));
            }
            out.push_str(if i + 1 == n { " .\n" } else { " ;\n   " });
        }
    }
    out
}

fn render_predicate(pred: &Iri, prefixes: &PrefixMap) -> String {
    if pred.as_str() == crate::vocab::rdf::TYPE.as_str() {
        "a".to_owned()
    } else {
        prefixes.compact(pred)
    }
}

fn render_term(term: &Term, prefixes: &PrefixMap) -> String {
    match term {
        Term::Iri(iri) => prefixes.compact(iri),
        Term::Blank(b) => format!("_:{}", b.label()),
        Term::Literal(lit) => {
            let mut s = format!("\"{}\"", escape_literal(lit.lexical()));
            if let Some(lang) = lit.lang() {
                let _ = write!(s, "@{lang}");
            } else if let Some(dt) = lit.datatype() {
                let _ = write!(s, "^^{}", prefixes.compact(dt));
            }
            s
        }
    }
}

/// Parses a Turtle document into triples, returning the triples and the
/// prefix map declared by the document.
pub fn parse_turtle(input: &str) -> Result<(Vec<Triple>, PrefixMap), TurtleError> {
    let mut parser = Parser::new(input);
    parser.parse_document()?;
    Ok((parser.triples, parser.prefixes))
}

/// Parses Turtle and loads the triples into `graph` of `store`.
pub fn load_turtle(
    store: &crate::store::QuadStore,
    graph: &GraphName,
    input: &str,
) -> Result<usize, TurtleError> {
    let (triples, _) = parse_turtle(input)?;
    Ok(store.extend(triples.into_iter().map(|t| Quad {
        subject: t.subject,
        predicate: t.predicate,
        object: t.object,
        graph: graph.clone(),
    })))
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    prefixes: PrefixMap,
    triples: Vec<Triple>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            prefixes: PrefixMap::new(),
            triples: Vec::new(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn expect_char(&mut self, expected: char) -> Result<(), TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c == expected => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(TurtleError::UnexpectedChar(c, self.pos)),
            None => Err(TurtleError::UnexpectedEof("punctuation")),
        }
    }

    fn parse_document(&mut self) -> Result<(), TurtleError> {
        loop {
            self.skip_ws();
            if self.rest().is_empty() {
                return Ok(());
            }
            if self.rest().starts_with("@prefix") {
                self.parse_prefix_directive()?;
            } else {
                self.parse_triple_block()?;
            }
        }
    }

    fn parse_prefix_directive(&mut self) -> Result<(), TurtleError> {
        self.pos += "@prefix".len();
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            self.bump();
        }
        let prefix = self.input[start..self.pos].to_owned();
        self.expect_char(':')?;
        self.skip_ws();
        let iri = self.parse_angle_iri()?;
        self.expect_char('.')?;
        self.prefixes.insert(prefix, iri.as_str().to_owned());
        Ok(())
    }

    fn parse_angle_iri(&mut self) -> Result<Iri, TurtleError> {
        self.expect_char('<')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '>' {
                let iri = Iri::try_new(&self.input[start..self.pos])
                    .map_err(|e| TurtleError::BadIri(e.to_string()))?;
                self.bump();
                return Ok(iri);
            }
            self.bump();
        }
        Err(TurtleError::UnexpectedEof("IRI"))
    }

    fn parse_prefixed_name(&mut self) -> Result<Iri, TurtleError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/') {
                self.bump();
            } else {
                break;
            }
        }
        // A trailing '.' is statement punctuation, not part of the name.
        let mut name = &self.input[start..self.pos];
        while name.ends_with('.') {
            name = &name[..name.len() - 1];
            self.pos -= 1;
        }
        if name.is_empty() {
            return Err(TurtleError::Expected {
                expected: "prefixed name",
                found: self.rest().chars().take(10).collect(),
            });
        }
        self.prefixes.expand(name)
    }

    fn parse_term(&mut self) -> Result<Term, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_angle_iri()?)),
            Some('"') => self.parse_literal(),
            Some('_') if self.rest().starts_with("_:") => {
                self.pos += 2;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(Term::Blank(BlankNode::new(&self.input[start..self.pos])))
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                // `a` keyword or prefixed name.
                if self.rest().starts_with('a')
                    && self
                        .rest()
                        .chars()
                        .nth(1)
                        .is_some_and(|c| c.is_whitespace())
                {
                    self.bump();
                    return Ok(Term::Iri((*crate::vocab::rdf::TYPE).clone()));
                }
                Ok(Term::Iri(self.parse_prefixed_name()?))
            }
            Some(c) => Err(TurtleError::UnexpectedChar(c, self.pos)),
            None => Err(TurtleError::UnexpectedEof("term")),
        }
    }

    fn parse_literal(&mut self) -> Result<Term, TurtleError> {
        self.expect_char('"')?;
        let mut raw = String::new();
        loop {
            match self.bump() {
                Some('\\') => {
                    raw.push('\\');
                    match self.bump() {
                        Some(c) => raw.push(c),
                        None => return Err(TurtleError::UnexpectedEof("literal escape")),
                    }
                }
                Some('"') => break,
                Some(c) => raw.push(c),
                None => return Err(TurtleError::UnexpectedEof("literal")),
            }
        }
        let lexical = unescape_literal(&raw)?;
        match self.peek() {
            Some('@') => {
                self.bump();
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '-' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(Term::Literal(Literal::lang_string(
                    lexical,
                    &self.input[start..self.pos],
                )))
            }
            Some('^') if self.rest().starts_with("^^") => {
                self.pos += 2;
                let dt = if self.peek() == Some('<') {
                    self.parse_angle_iri()?
                } else {
                    self.parse_prefixed_name()?
                };
                Ok(Term::Literal(Literal::typed(lexical, dt)))
            }
            _ => Ok(Term::Literal(Literal::string(lexical))),
        }
    }

    fn parse_triple_block(&mut self) -> Result<(), TurtleError> {
        let subject = self.parse_term()?;
        if subject.is_literal() {
            return Err(TurtleError::LiteralSubject);
        }
        loop {
            self.skip_ws();
            let predicate = match self.parse_term()? {
                Term::Iri(iri) => iri,
                other => {
                    return Err(TurtleError::Expected {
                        expected: "predicate IRI",
                        found: other.to_string(),
                    })
                }
            };
            loop {
                let object = self.parse_term()?;
                self.triples.push(Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.skip_ws();
                match self.peek() {
                    Some(',') => {
                        self.bump();
                        continue;
                    }
                    _ => break,
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(';') => {
                    self.bump();
                    // Allow a dangling `;` before `.`
                    self.skip_ws();
                    if self.peek() == Some('.') {
                        self.bump();
                        return Ok(());
                    }
                    continue;
                }
                Some('.') => {
                    self.bump();
                    return Ok(());
                }
                Some(c) => return Err(TurtleError::UnexpectedChar(c, self.pos)),
                None => return Err(TurtleError::UnexpectedEof("statement terminator")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let doc = r#"
            @prefix ex: <http://example.org/> .
            ex:a ex:p ex:b .
            ex:a ex:q "lit" .
        "#;
        let (triples, prefixes) = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(
            prefixes.expand("ex:a").unwrap().as_str(),
            "http://example.org/a"
        );
    }

    #[test]
    fn parse_predicate_and_object_lists() {
        let doc = r#"
            @prefix ex: <http://example.org/> .
            ex:a ex:p ex:b , ex:c ;
                 ex:q ex:d .
        "#;
        let (triples, _) = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 3);
        assert!(triples
            .iter()
            .all(|t| t.subject == Term::iri("http://example.org/a")));
    }

    #[test]
    fn parse_a_keyword_and_typed_literals() {
        let doc = r#"
            @prefix ex: <http://example.org/> .
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            ex:a a ex:Class ; ex:v "12"^^xsd:integer ; ex:l "hi"@en .
        "#;
        let (triples, _) = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 3);
        let type_triple = &triples[0];
        assert_eq!(
            type_triple.predicate.as_str(),
            crate::vocab::rdf::TYPE.as_str()
        );
        let int = triples[1].object.as_literal().unwrap();
        assert_eq!(int.as_integer(), Some(12));
        let lang = triples[2].object.as_literal().unwrap();
        assert_eq!(lang.lang(), Some("en"));
    }

    #[test]
    fn parse_paper_metamodel_snippet() {
        // Abbreviated Code 6 from the paper.
        let doc = r#"
            @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            @prefix G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/> .
            G:Concept rdf:type rdfs:Class ;
                rdfs:isDefinedBy <http://www.essi.upc.edu/~snadal/BDIOntology/Global/> .
            G:hasFeature rdf:type rdf:Property ;
                rdfs:domain G:Concept ;
                rdfs:range G:Feature .
        "#;
        let (triples, _) = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 5);
    }

    #[test]
    fn round_trip_write_then_parse() {
        let triples = vec![
            Triple::new(
                Iri::new("http://e/s"),
                Iri::new("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                Iri::new("http://e/C"),
            ),
            Triple::new(
                Iri::new("http://e/s"),
                Iri::new("http://e/p"),
                Literal::string("x \"y\""),
            ),
            Triple::new(
                Iri::new("http://e/s"),
                Iri::new("http://e/p"),
                Literal::integer(5),
            ),
        ];
        let mut prefixes = PrefixMap::with_common_vocabularies();
        prefixes.insert("e", "http://e/");
        let doc = write_turtle(&triples, &prefixes);
        let (parsed, _) = parse_turtle(&doc).unwrap();
        let mut a: Vec<String> = triples.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = parsed.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let err = parse_turtle("zz:a zz:p zz:b .").unwrap_err();
        assert!(matches!(err, TurtleError::UnknownPrefix(_)));
    }

    #[test]
    fn blank_nodes_parse() {
        let doc = r#"
            @prefix ex: <http://example.org/> .
            _:b0 ex:p ex:a .
        "#;
        let (triples, _) = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject, Term::Blank(BlankNode::new("b0")));
    }

    #[test]
    fn load_into_store_graph() {
        let store = crate::store::QuadStore::new();
        let g = GraphName::named(Iri::new("http://e/g"));
        let n = load_turtle(&store, &g, "@prefix ex: <http://e/> . ex:a ex:p ex:b .").unwrap();
        assert_eq!(n, 1);
        assert_eq!(store.graph_len(&g), 1);
    }

    #[test]
    fn escape_round_trip() {
        let original = "line1\nline2\t\"quoted\" back\\slash";
        let escaped = escape_literal(original);
        assert_eq!(unescape_literal(&escaped).unwrap(), original);
    }
}
