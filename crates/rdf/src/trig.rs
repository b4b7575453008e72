//! TriG subset reader and writer — Turtle extended with named graphs.
//!
//! The full BDI ontology `T` is a *dataset* (default graph + the `G`/`S`/`M`
//! graphs + one LAV named graph per wrapper), which plain Turtle cannot
//! express. This module supports the TriG fragment needed to serialize and
//! reload `T` losslessly:
//!
//! ```text
//! @prefix ex: <http://example.org/> .
//! ex:defaultSubject ex:p ex:o .            # default graph
//! GRAPH ex:g1 { ex:a ex:p ex:b . }         # named graphs
//! ex:g2 { ex:c ex:p ex:d . }               # brace form without keyword
//! ```
//!
//! It is read with the tokenizer and triples grammar Turtle and SPARQL use.

use crate::model::{GraphName, Quad};
use crate::store::QuadStore;
use crate::syntax::{parse_document, ParseError};
use crate::turtle::{write_prefixes, write_triples, PrefixMap};
use std::fmt::Write as _;

/// Serializes quads as TriG: each run of quads sharing a graph becomes
/// plain triples (the default graph) or one `GRAPH` block.
/// [`QuadStore::quads`] yields one run per graph; any other order still
/// reads back as the same quads.
pub fn write_trig(quads: &[Quad], prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    write_prefixes(&mut out, prefixes);
    out.push('\n');
    for run in quads.chunk_by(|a, b| a.graph == b.graph) {
        let Some(first) = run.first() else { continue };
        let triples = run.iter().map(|q| (&q.subject, &q.predicate, &q.object));
        match &first.graph {
            GraphName::Default => {
                write_triples(&mut out, triples, prefixes, "");
                out.push('\n');
            }
            GraphName::Named(graph) => {
                let _ = writeln!(out, "GRAPH {} {{", prefixes.compact(graph));
                write_triples(&mut out, triples, prefixes, "  ");
                out.push_str("}\n\n");
            }
        }
    }
    out
}

/// Reads a TriG document into quads (triples outside a graph block land
/// in the default graph) — the reader [`write_trig`]'s output goes back
/// through.
pub fn parse_trig(input: &str) -> Result<Vec<Quad>, ParseError> {
    parse_document(input).map(|(quads, _)| quads)
}

/// Loads a TriG document into a store, returning how many quads were new.
pub fn load_trig(store: &QuadStore, input: &str) -> Result<usize, ParseError> {
    Ok(store.extend(parse_trig(input)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Iri;

    fn sample_store() -> QuadStore {
        let store = QuadStore::new();
        store.insert(&Quad::new(
            Iri::new("http://e/s"),
            Iri::new("http://e/p"),
            Iri::new("http://e/o"),
            GraphName::Default,
        ));
        store.insert(&Quad::new(
            Iri::new("http://e/a"),
            Iri::new("http://e/p"),
            crate::model::Literal::string("lit \"quoted\""),
            GraphName::Named(Iri::new("http://e/g1")),
        ));
        store.insert(&Quad::new(
            Iri::new("http://e/b"),
            Iri::new("http://e/q"),
            Iri::new("http://e/c"),
            GraphName::Named(Iri::new("http://e/g2")),
        ));
        store
    }

    #[test]
    fn round_trip_store_to_trig_and_back() {
        let store = sample_store();
        let mut prefixes = PrefixMap::new();
        prefixes.insert("e", "http://e/");
        let doc = write_trig(&store.quads(), &prefixes);

        let reloaded = QuadStore::new();
        let n = load_trig(&reloaded, &doc).unwrap();
        assert_eq!(n, 3);
        let mut a: Vec<String> = store.quads().iter().map(|q| q.to_string()).collect();
        let mut b: Vec<String> = reloaded.quads().iter().map(|q| q.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_graph_keyword_and_brace_forms() {
        let doc = r#"
            @prefix e: <http://e/> .
            e:x e:p e:y .
            GRAPH e:g1 { e:a e:p e:b . }
            e:g2 { e:c e:p e:d . }
        "#;
        let quads = parse_trig(doc).unwrap();
        assert_eq!(quads.len(), 3);
        assert_eq!(
            quads
                .iter()
                .filter(|q| q.graph == GraphName::Default)
                .count(),
            1
        );
        assert!(quads
            .iter()
            .any(|q| q.graph == GraphName::Named(Iri::new("http://e/g2"))));
    }

    #[test]
    fn angle_bracket_graph_names() {
        let doc = r#"
            @prefix e: <http://e/> .
            GRAPH <http://e/gX> { e:a e:p e:b . }
        "#;
        let quads = parse_trig(doc).unwrap();
        assert_eq!(quads[0].graph, GraphName::Named(Iri::new("http://e/gX")));
    }

    #[test]
    fn braces_in_literals_and_comments_do_not_end_a_block() {
        let doc = r#"
            @prefix e: <http://e/> .
            e:x e:p "contains { braces } and a dot ." .
            GRAPH e:g {
                # a } and a " in a comment
                e:a e:p "also } here" . }
        "#;
        let quads = parse_trig(doc).unwrap();
        assert_eq!(quads.len(), 2);
        let lit = quads
            .iter()
            .find(|q| q.graph == GraphName::Default)
            .unwrap();
        assert!(lit.object.to_string().contains("braces"));
    }

    #[test]
    fn unterminated_graph_is_an_error() {
        let doc = "@prefix e: <http://e/> . GRAPH e:g { e:a e:p e:b .";
        assert_eq!(
            parse_trig(doc),
            Err(ParseError::UnexpectedEof("GRAPH block"))
        );
    }

    #[test]
    fn empty_document_parses() {
        assert!(parse_trig("").unwrap().is_empty());
        assert!(parse_trig("# just a comment\n").unwrap().is_empty());
    }
}
