//! Benchmarks for the id-space query pipeline (PR 1 tentpole), with a
//! term-space reference implementation standing in for the pre-id-space
//! design so the speedup is measured in-tree:
//!
//! * **BGP matching** — a two-pattern SPARQL join over a 100k-quad store:
//!   id-space `evaluate` vs. a `match_quads`+`HashMap<Variable, Term>`
//!   reference evaluator (the seed's architecture).
//! * **Bulk load** — `QuadStore::extend` (one lock, sorted index build) vs.
//!   per-quad `insert` for the same 100k quads.
//!
//! Run with `cargo bench -p bdi_bench --bench eval`. Results are printed and
//! written to `BENCH_eval.json` at the workspace root so future PRs can
//! track the trajectory.

use bdi_bench::{measure, Measurement};
use bdi_rdf::model::{GraphName, Iri, Quad, Term};
use bdi_rdf::sparql::{self, EvalOptions, GraphSpec, SelectQuery, TermOrVar, Variable};
use bdi_rdf::store::{GraphPattern, QuadStore};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Workload: n subjects × 5 predicates over 4 named graphs (100k quads).
// ---------------------------------------------------------------------------

fn iri(i: usize, kind: &str) -> Iri {
    Iri::new(format!("http://bench.example/{kind}/{i}"))
}

fn make_quads(n: usize) -> Vec<Quad> {
    let graphs: Vec<GraphName> = (0..4).map(|g| GraphName::Named(iri(g, "g"))).collect();
    let mut quads = Vec::with_capacity(n * 5);
    for s in 0..n {
        for p in 0..5 {
            quads.push(Quad::new(
                iri(s, "s"),
                iri(p, "p"),
                iri((s * 7 + p) % n.max(1), "o"),
                graphs[s % graphs.len()].clone(),
            ));
        }
    }
    quads
}

// ---------------------------------------------------------------------------
// Term-space reference evaluator (the seed's architecture): match_quads per
// (pattern × binding), HashMap<Variable, Term> bindings, Term clones
// throughout.
// ---------------------------------------------------------------------------

fn reference_evaluate(
    store: &QuadStore,
    query: &SelectQuery,
    options: &EvalOptions,
) -> Vec<HashMap<Variable, Term>> {
    let mut solutions: Vec<HashMap<Variable, Term>> = vec![HashMap::new()];
    for qp in &query.patterns {
        let mut next = Vec::new();
        for binding in &solutions {
            let resolve = |pos: &TermOrVar| match pos {
                TermOrVar::Term(t) => Some(t.clone()),
                TermOrVar::Var(v) => binding.get(v).cloned(),
            };
            let s = resolve(&qp.pattern.subject);
            let p = resolve(&qp.pattern.predicate);
            let o = resolve(&qp.pattern.object);
            let p_iri = match &p {
                Some(Term::Iri(i)) => Some(i.clone()),
                Some(_) => continue,
                None => None,
            };
            let graph = match &qp.graph {
                GraphSpec::Active => match &query.from {
                    Some(g) => GraphPattern::Named(g.clone()),
                    None if options.default_graph_as_union => GraphPattern::Any,
                    None => GraphPattern::Default,
                },
                GraphSpec::Named(g) => GraphPattern::Named(g.clone()),
                GraphSpec::Var(_) => GraphPattern::AnyNamed,
            };
            for quad in store.match_quads(s.as_ref(), p_iri.as_ref(), o.as_ref(), &graph) {
                let mut b = binding.clone();
                let mut ok = true;
                let bind = |b: &mut HashMap<Variable, Term>, v: &Variable, t: Term| match b.get(v) {
                    Some(existing) => *existing == t,
                    None => {
                        b.insert(v.clone(), t);
                        true
                    }
                };
                if let TermOrVar::Var(v) = &qp.pattern.subject {
                    ok &= bind(&mut b, v, quad.subject.clone().into());
                }
                if let TermOrVar::Var(v) = &qp.pattern.predicate {
                    ok &= bind(&mut b, v, Term::Iri(quad.predicate.clone()));
                }
                if let TermOrVar::Var(v) = &qp.pattern.object {
                    ok &= bind(&mut b, v, quad.object.clone());
                }
                if ok {
                    next.push(b);
                }
            }
        }
        solutions = next;
    }
    solutions
}

fn main() {
    let mut records: Vec<Measurement> = Vec::new();
    // 20k subjects × 5 predicates = 100k quads (scaled down in fast mode).
    let n: usize = bdi_bench::scaled(20_000, 50);

    let quads = make_quads(n);
    let store = QuadStore::new();
    store.extend(quads.iter().cloned());
    assert_eq!(store.len(), n * 5);

    // ---- BGP matching: two-pattern join, predicate-bound scans.
    let mut prefixes = bdi_rdf::turtle::PrefixMap::new();
    prefixes.insert("b", "http://bench.example/");
    let query = sparql::parse_query(
        "SELECT ?s ?o WHERE { ?s b:p/2 ?o . ?s b:p/3 ?o2 . }",
        &prefixes,
    )
    .expect("static query parses");
    let union = EvalOptions {
        default_graph_as_union: true,
    };

    let expected = sparql::evaluate(&store, &query, &union).len();
    assert_eq!(reference_evaluate(&store, &query, &union).len(), expected);
    assert_eq!(sparql::evaluate_count(&store, &query, &union), expected);
    assert_eq!(expected, n);

    // BGP matching proper: the join runs in id space end to end;
    // `evaluate_count` never decodes, the reference must build its
    // term-space bindings to join at all (the seed's architecture).
    let id_ns = measure("bgp/two_pattern_join_100k/id_space", &mut records, || {
        sparql::evaluate_count(&store, &query, &union)
    });
    let term_ns = measure("bgp/two_pattern_join_100k/term_space", &mut records, || {
        reference_evaluate(&store, &query, &union).len()
    });
    let bgp_speedup = term_ns / id_ns;

    // The same join including materialization of the public term-space
    // `Solutions` view (what `system.answer` pays).
    measure(
        "bgp/two_pattern_join_100k/id_space_decoded",
        &mut records,
        || sparql::evaluate(&store, &query, &union).len(),
    );

    // ---- Single-pattern scan: decoded quads vs id-space count.
    let p2 = iri(2, "p");
    measure("scan/p_bound_100k/decoded", &mut records, || {
        store
            .match_quads(None, Some(&p2), None, &GraphPattern::Any)
            .len()
    });
    measure("scan/p_bound_100k/id_space", &mut records, || {
        let reader = store.reader();
        let p = reader.iri_id(&p2).expect("interned");
        reader.match_count(bdi_rdf::store::IdPattern {
            s: None,
            p: Some(p.raw()),
            o: None,
            g: bdi_rdf::store::IdGraph::Any,
        })
    });

    // ---- Bulk load: 100k quads, extend (bulk) vs per-quad insert.
    let bulk_ns = measure("load/extend_100k", &mut records, || {
        let s = QuadStore::new();
        s.extend(quads.iter().cloned());
        s.len()
    });
    let insert_ns = measure("load/insert_loop_100k", &mut records, || {
        let s = QuadStore::new();
        for q in &quads {
            s.insert(q);
        }
        s.len()
    });
    let load_speedup = insert_ns / bulk_ns;

    println!();
    println!("speedup: BGP matching (term-space / id-space) = {bgp_speedup:.2}x");
    println!("speedup: bulk load (insert-loop / extend)     = {load_speedup:.2}x");

    bdi_bench::write_results(
        "eval",
        "100k quads (20k subjects x 5 predicates, 4 named graphs)",
        &records,
        "speedups",
        &[("bgp_matching", bgp_speedup), ("bulk_load", load_speedup)],
    );
}
