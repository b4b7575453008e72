//! Turtle subset reader and writer.
//!
//! Supports the fragment of Turtle the paper's metamodels use (Codes 6–7):
//! `@prefix` / `PREFIX` directives, IRIs (angle-bracketed or prefixed
//! names), blank nodes, plain / language-tagged / typed / numeric literals,
//! predicate lists (`;`), object lists (`,`) and comments. No collections,
//! no `[ ... ]` anonymous blank-node property lists, no multiline strings —
//! the vocabularies don't need them, and the parser rejects them loudly
//! rather than mis-reading. It is read with the tokenizer and triples
//! grammar SPARQL and TriG use.

use crate::model::{GraphName, Iri, Quad, Subject, Term, Triple};
use crate::syntax::{lexer, parse_document, ParseError};
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
    pub(crate) fn expand(&self, prefixed: &str) -> Result<Iri, ParseError> {
        let unknown = || ParseError::UnknownPrefix(prefixed.to_owned());
        let (pfx, local) = prefixed.split_once(':').ok_or_else(unknown)?;
        let ns = self.prefixes.get(pfx).ok_or_else(unknown)?;
        Iri::try_new(&format!("{ns}{local}")).map_err(|_| ParseError::Unexpected {
            expected: "IRI",
            found: prefixed.to_owned(),
        })
    }

    /// Compacts an IRI into `pfx:local` when a registered namespace prefixes
    /// it and the lexer reads the result back as one name; otherwise
    /// returns the `<...>` form.
    pub(crate) fn compact(&self, iri: &Iri) -> String {
        let s = iri.as_str();
        for (pfx, ns) in &self.prefixes {
            if let Some(local) = s.strip_prefix(ns.as_str()) {
                if !local.is_empty()
                    && !pfx.contains(':')
                    && local
                        .chars()
                        .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
                {
                    let name = format!("{pfx}:{local}");
                    if lexer::is_prefixed_name(&name) {
                        return name;
                    }
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
    let triples: Vec<&Triple> = triples.into_iter().collect();
    let mut out = String::new();
    write_prefixes(&mut out, prefixes);
    if !triples.is_empty() {
        out.push('\n');
    }
    write_triples(
        &mut out,
        triples
            .into_iter()
            .map(|t| (&t.subject, &t.predicate, &t.object)),
        prefixes,
        "",
    );
    out
}

/// Writes one `@prefix` line per registered prefix.
pub(crate) fn write_prefixes(out: &mut String, prefixes: &PrefixMap) {
    for (pfx, ns) in prefixes.iter() {
        let _ = writeln!(out, "@prefix {pfx}: <{ns}> .");
    }
}

/// Writes `(subject, predicate, object)` triples grouped by subject, each
/// line starting with `indent`.
pub(crate) fn write_triples<'a>(
    out: &mut String,
    triples: impl IntoIterator<Item = (&'a Subject, &'a Iri, &'a Term)>,
    prefixes: &PrefixMap,
    indent: &str,
) {
    let mut by_subject: BTreeMap<String, (&Subject, BTreeMap<&Iri, Vec<&Term>>)> = BTreeMap::new();
    for (s, p, o) in triples {
        let (_, predicates) = by_subject
            .entry(s.to_string())
            .or_insert_with(|| (s, BTreeMap::new()));
        predicates.entry(p).or_default().push(o);
    }
    for (subject, predicates) in by_subject.values() {
        let subject = Term::from((*subject).clone());
        let _ = write!(out, "{indent}{}", render_term(&subject, prefixes));
        for (i, (pred, objects)) in predicates.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, " ;\n{indent}   ");
            }
            let _ = write!(out, " {} ", render_predicate(pred, prefixes));
            for (j, object) in objects.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&render_term(object, prefixes));
            }
        }
        out.push_str(" .\n");
    }
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
/// prefix map declared by the document. A graph block is TriG, not Turtle,
/// and is an error here.
pub fn parse_turtle(input: &str) -> Result<(Vec<Triple>, PrefixMap), ParseError> {
    let (quads, prefixes) = parse_document(input)?;
    let triples = quads
        .into_iter()
        .map(|q| match q.graph {
            GraphName::Default => Ok(q.into_triple()),
            GraphName::Named(g) => Err(ParseError::Unexpected {
                expected: "triples outside a graph block",
                found: g.to_string(),
            }),
        })
        .collect::<Result<_, _>>()?;
    Ok((triples, prefixes))
}

/// Parses Turtle and loads the triples into `graph` of `store`.
pub fn load_turtle(
    store: &crate::store::QuadStore,
    graph: &GraphName,
    input: &str,
) -> Result<usize, ParseError> {
    let (triples, _) = parse_turtle(input)?;
    Ok(store.extend(triples.into_iter().map(|t| Quad {
        subject: t.subject,
        predicate: t.predicate,
        object: t.object,
        graph: graph.clone(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BlankNode, Literal};

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
            .all(|t| t.subject == Iri::new("http://example.org/a").into()));
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
            // `e:a.` would read back as `e:a` and a `.`.
            Triple::new(
                Iri::new("http://e/s"),
                Iri::new("http://e/p"),
                Iri::new("http://e/a."),
            ),
        ];
        let mut prefixes = PrefixMap::with_common_vocabularies();
        prefixes.insert("e", "http://e/");
        let doc = write_turtle(&triples, &prefixes);
        assert!(doc.contains("<http://e/a.>"));
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
        assert!(matches!(err, ParseError::UnknownPrefix(_)));
    }

    #[test]
    fn sparql_prefix_and_numeric_literals() {
        let doc = "PREFIX ex: <http://example.org/>\nex:a ex:n 7 ; ex:x 2.5 ; ex:t \"it\\'s\" .";
        let (triples, _) = parse_turtle(doc).unwrap();
        let lit = |i: usize| triples[i].object.as_literal().unwrap();
        assert_eq!(lit(0).datatype(), Some(&*crate::vocab::xsd::INTEGER));
        assert_eq!(lit(1).datatype(), Some(&*crate::vocab::xsd::DOUBLE));
        assert_eq!(lit(2).lexical(), "it's");
    }

    #[test]
    fn graph_blocks_and_unterminated_triples_are_not_turtle() {
        let graph = "@prefix e: <http://e/> . e:g { e:a e:p e:b . }";
        assert!(matches!(
            parse_turtle(graph),
            Err(ParseError::Unexpected { .. })
        ));
        let open = "@prefix e: <http://e/> . e:a e:p e:b";
        assert_eq!(
            parse_turtle(open).unwrap_err(),
            ParseError::UnexpectedEof("triples block")
        );
        let literal_subject = "@prefix e: <http://e/> . \"s\" e:p e:b .";
        assert!(parse_turtle(literal_subject).is_err());
    }

    #[test]
    fn blank_nodes_parse() {
        let doc = r#"
            @prefix ex: <http://example.org/> .
            _:b0 ex:p ex:a .
        "#;
        let (triples, _) = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject, BlankNode::new("b0").into());
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
        assert_eq!(
            lexer::tokenize(&format!("\"{escaped}\"")).unwrap(),
            [lexer::Token::Literal(original.into())]
        );
    }
}
