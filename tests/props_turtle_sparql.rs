//! Property-based tests for the Turtle and TriG serializer/parser round
//! trips and the SPARQL evaluator against a naive reference implementation.

use bdi::rdf::model::{BlankNode, GraphName, Iri, Literal, Quad, Subject, Term, Triple};
use bdi::rdf::sparql::{self, EvalOptions};
use bdi::rdf::store::QuadStore;
use bdi::rdf::trig::{parse_trig, write_trig};
use bdi::rdf::turtle::{parse_turtle, write_turtle, PrefixMap};
use proptest::prelude::*;

/// Every kind of character `Iri::try_new` admits: URI punctuation,
/// `{}|\^` and the backtick, control characters and multibyte text.
const IRI_TAIL: &str = "[a-z0-9{}|\\\\^`~!$&'()*+,;=:/?#@%._\\-\\[\\]é日😀\u{1}\u{7f}]{1,8}";

/// IRIs under no registered namespace, IRIs under `sc:` that the writer
/// compacts unless the local name would not read back whole (one ending
/// in `.`, or holding `..`), and IRIs over every admitted character.
fn arb_iri() -> impl Strategy<Value = Iri> {
    prop_oneof![
        (0u8..8).prop_map(|i| Iri::new(format!("http://t.example/r/{i}"))),
        "[a-z0-9._é\\-]{1,6}".prop_map(|local| Iri::new(format!("http://schema.org/{local}"))),
        "[a-zé]{1,3}\\.".prop_map(|local| Iri::new(format!("http://schema.org/{local}"))),
        IRI_TAIL.prop_map(|tail| Iri::new(format!("http://schema.org/{tail}"))),
    ]
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    // Escapable and control characters, quotes, newlines and multibyte
    // text are deliberately frequent.
    let text = "[a-z\"'\\\\\n\t\r\u{0}\u{1}\u{8}\u{c}\u{7f}#{}<>@^.é日😀 ]{0,10}";
    prop_oneof![
        text.prop_map(Literal::string),
        (-100i64..100).prop_map(Literal::integer),
        (text, "[a-zA-Z0-9\\-é ._]{1,6}").prop_map(|(s, tag)| {
            Literal::try_lang_string(&s, &tag).unwrap_or_else(|_| Literal::lang_string(s, "en"))
        }),
        (text, arb_iri()).prop_map(|(s, dt)| Literal::typed(s, dt)),
    ]
}

/// Labels over the name characters and a few the lexer stops at; those
/// `try_new` refuses fall back to `b0`.
fn arb_blank() -> impl Strategy<Value = BlankNode> {
    "[a-zA-Z0-9_.:/~\\-é #]{1,5}"
        .prop_map(|label| BlankNode::try_new(&label).unwrap_or_else(|_| BlankNode::new("b0")))
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (
        arb_iri(),
        arb_iri(),
        prop_oneof![
            arb_iri().prop_map(Term::Iri),
            arb_literal().prop_map(Term::Literal)
        ],
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn turtle_round_trips(triples in prop::collection::vec(arb_triple(), 0..40)) {
        let prefixes = PrefixMap::with_common_vocabularies();
        let doc = write_turtle(triples.iter(), &prefixes);
        let (parsed, _) = parse_turtle(&doc).expect("serializer output must parse");

        let canon = |ts: &[Triple]| {
            let mut v: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
            v.sort();
            v.dedup();
            v
        };
        prop_assert_eq!(canon(&parsed), canon(&triples));
    }

    #[test]
    fn trig_round_trips(
        quads in prop::collection::vec(
            (
                prop_oneof![arb_iri().prop_map(Subject::Iri), arb_blank().prop_map(Subject::Blank)],
                arb_iri(),
                prop_oneof![
                    arb_iri().prop_map(Term::Iri),
                    arb_blank().prop_map(Term::Blank),
                    arb_literal().prop_map(Term::Literal)
                ],
                prop::option::of(arb_iri()),
            ),
            0..40,
        ),
    ) {
        let mut quads: Vec<Quad> = quads
            .into_iter()
            .map(|(s, p, o, g)| Quad::new(s, p, o, g.map_or(GraphName::Default, GraphName::Named)))
            .collect();
        let doc = write_trig(&quads, &PrefixMap::with_common_vocabularies());
        let mut parsed = parse_trig(&doc).expect("serializer output must parse");
        parsed.sort();
        quads.sort();
        prop_assert_eq!(parsed, quads);
    }

    #[test]
    fn single_pattern_queries_agree_with_filter(
        triples in prop::collection::vec(arb_triple(), 0..40),
        p in arb_iri(),
    ) {
        let store = QuadStore::new();
        for t in &triples {
            store.insert_triple(t);
        }
        let query = sparql::parse_query(
            &format!("SELECT ?s ?o WHERE {{ ?s <{}> ?o . }}", p.as_str()),
            &PrefixMap::new(),
        ).unwrap();
        let sols = sparql::evaluate(&store, &query, &EvalOptions { default_graph_as_union: true });

        let mut expected: Vec<(String, String)> = triples
            .iter()
            .filter(|t| t.predicate == p)
            .map(|t| (t.subject.to_string(), t.object.to_string()))
            .collect();
        expected.sort();
        expected.dedup();

        let mut actual: Vec<(String, String)> = sols
            .bindings
            .iter()
            .map(|b| {
                (
                    b.get_by_name("s").unwrap().to_string(),
                    b.get_by_name("o").unwrap().to_string(),
                )
            })
            .collect();
        actual.sort();
        actual.dedup();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn two_pattern_join_agrees_with_nested_loop(
        triples in prop::collection::vec(arb_triple(), 0..30),
        p1 in arb_iri(),
        p2 in arb_iri(),
    ) {
        let store = QuadStore::new();
        for t in &triples {
            store.insert_triple(t);
        }
        let query = sparql::parse_query(
            &format!(
                "SELECT ?a ?b ?c WHERE {{ ?a <{}> ?b . ?b <{}> ?c . }}",
                p1.as_str(),
                p2.as_str()
            ),
            &PrefixMap::new(),
        ).unwrap();
        let sols = sparql::evaluate(&store, &query, &EvalOptions { default_graph_as_union: true });

        let mut expected = 0usize;
        let mut seen = std::collections::BTreeSet::new();
        for t1 in triples.iter().filter(|t| t.predicate == p1) {
            for t2 in triples.iter().filter(|t| t.predicate == p2) {
                if Term::from(t2.subject.clone()) == t1.object
                    && seen.insert((t1.subject.to_string(), t1.object.to_string(), t2.object.to_string()))
                {
                    expected += 1;
                }
            }
        }
        let mut actual = std::collections::BTreeSet::new();
        for b in &sols.bindings {
            actual.insert((
                b.get_by_name("a").unwrap().to_string(),
                b.get_by_name("b").unwrap().to_string(),
                b.get_by_name("c").unwrap().to_string(),
            ));
        }
        prop_assert_eq!(actual.len(), expected);
    }

    #[test]
    fn store_loaded_turtle_matches_source(triples in prop::collection::vec(arb_triple(), 0..30)) {
        let prefixes = PrefixMap::new();
        let doc = write_turtle(triples.iter(), &prefixes);
        let store = QuadStore::new();
        let g = GraphName::Named(Iri::new("http://t.example/g"));
        bdi::rdf::turtle::load_turtle(&store, &g, &doc).unwrap();
        let mut distinct: Vec<String> = triples.iter().map(|t| t.to_string()).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(store.graph_len(&g), distinct.len());
    }
}
