//! Differential property test for the SPARQL evaluator: the id-space
//! pipeline (`bdi::rdf::sparql::evaluate`) must return the same solution
//! *multiset* as a naive term-space reference implementation, over
//! randomized stores and randomized queries (patterns, `GRAPH` selectors,
//! `VALUES` tables, `FROM` clauses, both dataset modes).

use bdi::rdf::model::{GraphName, Iri, Literal, Quad, Subject, Term};
use bdi::rdf::sparql::{
    evaluate, EvalOptions, GraphSpec, QuadPattern, SelectQuery, TermOrVar, TriplePattern,
    ValuesClause, Variable,
};
use bdi::rdf::store::QuadStore;
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Generators: a small universe so joins and collisions are frequent.
// ---------------------------------------------------------------------------

fn arb_iri() -> impl Strategy<Value = Iri> {
    (0u8..6).prop_map(|i| Iri::new(format!("http://p.example/t/{i}")))
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_iri().prop_map(Term::Iri),
        (0u8..3).prop_map(|i| Term::Literal(Literal::string(format!("lit{i}")))),
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

/// Variables come from a pool of four names so patterns share them often.
fn arb_var() -> impl Strategy<Value = Variable> {
    (0u8..4).prop_map(|i| Variable::new(format!("v{i}")))
}

fn arb_term_or_var() -> impl Strategy<Value = TermOrVar> {
    prop_oneof![
        arb_term().prop_map(TermOrVar::Term),
        arb_var().prop_map(TermOrVar::Var),
    ]
}

fn arb_graph_spec() -> impl Strategy<Value = GraphSpec> {
    prop_oneof![
        Just(GraphSpec::Active),
        (0u8..3).prop_map(|i| GraphSpec::Named(Iri::new(format!("http://p.example/g/{i}")))),
        arb_var().prop_map(GraphSpec::Var),
    ]
}

fn arb_pattern() -> impl Strategy<Value = QuadPattern> {
    (
        arb_term_or_var(),
        arb_iri_or_var(),
        arb_term_or_var(),
        arb_graph_spec(),
    )
        .prop_map(|(s, p, o, g)| QuadPattern {
            pattern: TriplePattern {
                subject: s,
                predicate: p,
                object: o,
            },
            graph: g,
        })
}

/// Predicates are IRIs or variables (the parser never produces literal
/// predicates; variables may still bind to literals through other positions).
fn arb_iri_or_var() -> impl Strategy<Value = TermOrVar> {
    prop_oneof![
        arb_iri().prop_map(|i| TermOrVar::Term(Term::Iri(i))),
        arb_var().prop_map(TermOrVar::Var),
    ]
}

fn arb_values() -> impl Strategy<Value = Option<ValuesClause>> {
    prop_oneof![
        Just(None),
        (arb_var(), prop::collection::vec(arb_term(), 1..4)).prop_map(|(var, terms)| {
            Some(ValuesClause {
                vars: vec![var],
                rows: terms.into_iter().map(|t| vec![t]).collect(),
            })
        }),
    ]
}

fn arb_from() -> impl Strategy<Value = Option<Iri>> {
    prop_oneof![
        Just(None),
        (0u8..3).prop_map(|i| Some(Iri::new(format!("http://p.example/g/{i}")))),
    ]
}

fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (
        prop::collection::vec(arb_pattern(), 0..4),
        arb_values(),
        arb_from(),
    )
        .prop_map(|(patterns, values, from)| SelectQuery {
            select: Vec::new(), // SELECT *: every variable is checked
            from,
            values,
            patterns,
        })
}

// ---------------------------------------------------------------------------
// Reference implementation: term space, HashMap bindings, no id tricks.
// This mirrors the pre-id-space evaluator and serves as the executable
// specification of the fragment's semantics.
// ---------------------------------------------------------------------------

type RefBinding = HashMap<Variable, Term>;

fn ref_resolve(pos: &TermOrVar, b: &RefBinding) -> Option<Term> {
    match pos {
        TermOrVar::Term(t) => Some(t.clone()),
        TermOrVar::Var(v) => b.get(v).cloned(),
    }
}

fn ref_bind(b: &mut RefBinding, var: &Variable, term: Term) -> bool {
    match b.get(var) {
        Some(existing) => existing == &term,
        None => {
            b.insert(var.clone(), term);
            true
        }
    }
}

fn ref_evaluate(quads: &[Quad], query: &SelectQuery, options: &EvalOptions) -> Vec<RefBinding> {
    // A dataset is a set: a quad generated twice is stored once.
    let quads: std::collections::BTreeSet<&Quad> = quads.iter().collect();
    let mut solutions: Vec<RefBinding> = match &query.values {
        Some(values) => values
            .rows
            .iter()
            .map(|row| {
                values
                    .vars
                    .iter()
                    .cloned()
                    .zip(row.iter().cloned())
                    .collect()
            })
            .collect(),
        None => vec![RefBinding::new()],
    };

    // No join-order optimization: patterns run in syntactic order, which a
    // correct evaluator's output must be insensitive to.
    for qp in &query.patterns {
        let mut next = Vec::new();
        for binding in &solutions {
            let s = ref_resolve(&qp.pattern.subject, binding);
            let p = ref_resolve(&qp.pattern.predicate, binding);
            let o = ref_resolve(&qp.pattern.object, binding);
            for &quad in &quads {
                // Graph admission.
                let graph_ok = match &qp.graph {
                    GraphSpec::Active => match &query.from {
                        Some(iri) => quad.graph == GraphName::Named(iri.clone()),
                        None if options.default_graph_as_union => true,
                        None => quad.graph == GraphName::Default,
                    },
                    GraphSpec::Named(iri) => quad.graph == GraphName::Named(iri.clone()),
                    GraphSpec::Var(v) => match binding.get(v) {
                        Some(Term::Iri(iri)) => quad.graph == GraphName::Named(iri.clone()),
                        Some(_) => false,
                        None => matches!(quad.graph, GraphName::Named(_)),
                    },
                };
                if !graph_ok {
                    continue;
                }
                if s.as_ref()
                    .is_some_and(|t| *t != Term::from(quad.subject.clone()))
                {
                    continue;
                }
                if p.as_ref()
                    .is_some_and(|t| t.as_iri() != Some(&quad.predicate))
                {
                    continue;
                }
                if o.as_ref().is_some_and(|t| t != &quad.object) {
                    continue;
                }
                let mut b = binding.clone();
                let mut ok = true;
                if let TermOrVar::Var(v) = &qp.pattern.subject {
                    ok &= ref_bind(&mut b, v, quad.subject.clone().into());
                }
                if let TermOrVar::Var(v) = &qp.pattern.predicate {
                    ok &= ref_bind(&mut b, v, Term::Iri(quad.predicate.clone()));
                }
                if let TermOrVar::Var(v) = &qp.pattern.object {
                    ok &= ref_bind(&mut b, v, quad.object.clone());
                }
                if let GraphSpec::Var(v) = &qp.graph {
                    match &quad.graph {
                        GraphName::Named(iri) => {
                            ok &= ref_bind(&mut b, v, Term::Iri(iri.clone()));
                        }
                        GraphName::Default => ok = false,
                    }
                }
                if ok {
                    next.push(b);
                }
            }
        }
        solutions = next;
        if solutions.is_empty() {
            break;
        }
    }
    solutions
}

/// Canonical form of a solution multiset: each binding rendered as a sorted
/// `var=term` list, the whole multiset sorted.
fn canonicalize(
    bindings: impl IntoIterator<Item = Vec<(String, String)>>,
) -> Vec<Vec<(String, String)>> {
    let mut out: Vec<Vec<(String, String)>> = bindings
        .into_iter()
        .map(|mut b| {
            b.sort();
            b
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn id_space_evaluator_agrees_with_reference(
        quads in prop::collection::vec(arb_quad(), 0..40),
        query in arb_query(),
        union in any::<bool>(),
    ) {
        let options = EvalOptions { default_graph_as_union: union };
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());

        let actual = evaluate(&store, &query, &options);
        let expected = ref_evaluate(&quads, &query, &options);

        let actual = canonicalize(actual.bindings.iter().map(|b| {
            b.iter()
                .map(|(v, t)| (v.name().to_owned(), t.to_string()))
                .collect()
        }));
        let expected = canonicalize(expected.iter().map(|b| {
            b.iter()
                .map(|(v, t)| (v.name().to_owned(), t.to_string()))
                .collect()
        }));
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn id_space_evaluator_is_join_order_insensitive(
        quads in prop::collection::vec(arb_quad(), 0..40),
        query in arb_query(),
    ) {
        // Reversing the syntactic pattern order must not change the result
        // multiset (ordering is an internal optimization).
        let options = EvalOptions { default_graph_as_union: true };
        let store = QuadStore::new();
        store.extend(quads.iter().cloned());

        let mut reversed = query.clone();
        reversed.patterns.reverse();

        let a = evaluate(&store, &query, &options);
        let b = evaluate(&store, &reversed, &options);
        let canon = |sols: &bdi::rdf::sparql::Solutions| {
            canonicalize(sols.bindings.iter().map(|bind| {
                bind.iter()
                    .map(|(v, t)| (v.name().to_owned(), t.to_string()))
                    .collect()
            }))
        };
        prop_assert_eq!(canon(&a), canon(&b));
    }
}
