//! Property-based tests for the RDF quad store: every pattern-matching
//! shape must agree with a naive filter over the full quad set, and
//! insert/remove must round-trip.

use bdi::rdf::model::{GraphName, Iri, Literal, Quad, Subject, Term};
use bdi::rdf::store::{GraphPattern, QuadStore};
use proptest::prelude::*;

/// A small universe of terms so collisions (and thus interesting matches)
/// are frequent.
fn arb_iri() -> impl Strategy<Value = Iri> {
    (0u8..6).prop_map(|i| Iri::new(format!("http://p.example/t/{i}")))
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_iri().prop_map(Term::Iri),
        (0u8..4).prop_map(|i| Term::Literal(Literal::string(format!("lit{i}")))),
        (0i64..4).prop_map(|i| Term::Literal(Literal::integer(i))),
    ]
}

fn arb_graph() -> impl Strategy<Value = GraphName> {
    prop_oneof![
        Just(GraphName::Default),
        (0u8..3).prop_map(|i| GraphName::Named(Iri::new(format!("http://p.example/g/{i}")))),
    ]
}

fn arb_quad() -> impl Strategy<Value = Quad> {
    (arb_iri(), arb_iri(), arb_term(), arb_graph()).prop_map(|(s, p, o, g)| Quad {
        subject: Subject::Iri(s),
        predicate: p,
        object: o,
        graph: g,
    })
}

fn matches_pattern(
    q: &Quad,
    s: &Option<Term>,
    p: &Option<Iri>,
    o: &Option<Term>,
    g: &GraphPattern,
) -> bool {
    s.as_ref()
        .is_none_or(|t| *t == Term::from(q.subject.clone()))
        && p.as_ref().is_none_or(|iri| &q.predicate == iri)
        && o.as_ref().is_none_or(|t| &q.object == t)
        && match g {
            GraphPattern::Any => true,
            GraphPattern::Default => q.graph == GraphName::Default,
            GraphPattern::Named(iri) => q.graph == GraphName::Named(iri.clone()),
            GraphPattern::AnyNamed => matches!(q.graph, GraphName::Named(_)),
        }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn match_agrees_with_naive_filter(
        quads in prop::collection::vec(arb_quad(), 0..60),
        s in prop::option::of(arb_term()),
        p in prop::option::of(arb_iri()),
        o in prop::option::of(arb_term()),
        g_choice in 0u8..4,
        g_iri in 0u8..3,
    ) {
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());

        let g = match g_choice {
            0 => GraphPattern::Any,
            1 => GraphPattern::Default,
            2 => GraphPattern::Named(Iri::new(format!("http://p.example/g/{g_iri}"))),
            _ => GraphPattern::AnyNamed,
        };

        let mut expected: Vec<Quad> = quads
            .iter()
            .filter(|q| matches_pattern(q, &s, &p, &o, &g))
            .cloned()
            .collect();
        expected.sort();
        expected.dedup();

        let mut actual = store.match_quads(s.as_ref(), p.as_ref(), o.as_ref(), &g);
        actual.sort();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn len_equals_distinct_quads(quads in prop::collection::vec(arb_quad(), 0..60)) {
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());
        let mut distinct = quads.clone();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(store.len(), distinct.len());
    }

    #[test]
    fn insert_then_remove_restores_absence(quads in prop::collection::vec(arb_quad(), 1..30)) {
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());
        for q in &quads {
            store.remove(q);
        }
        prop_assert!(store.is_empty());
        // Indexes must be fully clean: nothing matches anything.
        prop_assert!(store.match_quads(None, None, None, &GraphPattern::Any).is_empty());
    }

    #[test]
    fn contains_agrees_with_membership(
        quads in prop::collection::vec(arb_quad(), 0..40),
        probe in arb_quad(),
    ) {
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());
        prop_assert_eq!(store.contains(&probe), quads.contains(&probe));
    }

    #[test]
    fn named_graphs_lists_exactly_nonempty_named_graphs(
        quads in prop::collection::vec(arb_quad(), 0..60),
    ) {
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());
        let mut expected: Vec<Iri> = quads
            .iter()
            .filter_map(|q| q.graph.as_iri().cloned())
            .collect();
        expected.sort();
        expected.dedup();
        let mut actual = store.named_graphs();
        actual.sort();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn clone_is_independent(quads in prop::collection::vec(arb_quad(), 0..30), extra in arb_quad()) {
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());
        let copy = store.clone();
        prop_assert_eq!(copy.len(), store.len());
        let was_present = store.contains(&extra);
        copy.insert(&extra);
        prop_assert_eq!(store.contains(&extra), was_present);
    }
}
