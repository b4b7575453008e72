//! The cross-query plan cache: repeated analyst queries skip the
//! rewriting-to-plan pipeline (hits), `register_release` invalidates both
//! the cached plans and the persistent scan context, and answers are
//! identical cached or not — with and without `reuse_scans`.

use bdi::core::exec::{Engine, ExecOptions, FeatureFilter};
use bdi::core::system::VersionScope;
use bdi::relational::{Predicate, Value};
use bdi_bench::synthetic;

fn rows(n: usize, with_next: bool) -> Vec<Vec<Value>> {
    (0..n)
        .map(|r| {
            let mut row = vec![Value::Int(r as i64)];
            if with_next {
                row.push(Value::Int(r as i64));
            }
            row.push(Value::Float(r as f64 / 10.0));
            row
        })
        .collect()
}

fn system(concepts: usize, wrappers: usize) -> bdi::core::system::BdiSystem {
    synthetic::build_chain_system_with(concepts, wrappers, 0, |_, _, schema| {
        rows(50, schema.index_of("next_id").is_some())
    })
}

#[test]
fn repeated_queries_hit_the_plan_cache() {
    let system = system(2, 2);
    let options = ExecOptions::default();
    let first = system
        .answer_with(synthetic::chain_query(2), &VersionScope::All, &options)
        .unwrap();
    let stats = system.plan_cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, 1);

    let second = system
        .answer_with(synthetic::chain_query(2), &VersionScope::All, &options)
        .unwrap();
    let stats = system.plan_cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
    assert_eq!(first.relation, second.relation);
    assert_eq!(first.walk_exprs, second.walk_exprs);
    assert_eq!(first.rewriting.walks.len(), second.rewriting.walks.len());

    // A different scope, option set or query is a different entry.
    system
        .answer_with(synthetic::chain_query(2), &VersionScope::Latest, &options)
        .unwrap();
    system
        .answer_with(
            synthetic::chain_query(2),
            &VersionScope::All,
            &ExecOptions {
                pushdown: false,
                ..ExecOptions::default()
            },
        )
        .unwrap();
    system
        .answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
        .unwrap();
    assert_eq!(system.plan_cache_stats().entries, 4);

    // Opting out compiles fresh every time and caches nothing new.
    let opt_out = ExecOptions {
        cache_plans: false,
        ..ExecOptions::default()
    };
    let before = system.plan_cache_stats();
    let uncached = system
        .answer_with(synthetic::chain_query(2), &VersionScope::All, &opt_out)
        .unwrap();
    assert_eq!(uncached.relation, first.relation);
    let after = system.plan_cache_stats();
    assert_eq!(after.entries, before.entries);
    assert_eq!(after.misses, before.misses);
}

#[test]
fn register_release_invalidates_plans_and_scans() {
    // Start with one wrapper per concept; the cached plan must not survive
    // the arrival of a second wrapper (the rewriting itself changes).
    let data = |_: usize, _: usize, schema: &bdi::relational::Schema| {
        rows(20, schema.index_of("next_id").is_some())
    };
    let mut sys = synthetic::build_chain_system_with(1, 2, 0, data);
    let reuse = ExecOptions {
        reuse_scans: true,
        ..ExecOptions::default()
    };
    let before = sys
        .answer_with(synthetic::chain_query(1), &VersionScope::All, &reuse)
        .unwrap();
    assert_eq!(sys.plan_cache_stats().entries, 1);
    assert_eq!(before.rewriting.walks.len(), 2);

    // Registering a fresh release flushes everything…
    synthetic::register_extra_chain_wrapper(&mut sys, 1, 3, rows(20, false));
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.entries, 0);

    // …and the next answer sees the new wrapper's rows (a fresh context —
    // no stale interned scans) under a recompiled three-walk rewriting.
    let after = sys
        .answer_with(synthetic::chain_query(1), &VersionScope::All, &reuse)
        .unwrap();
    assert_eq!(after.rewriting.walks.len(), 3);
    assert!(after.relation.len() >= before.relation.len());
}

#[test]
fn wrapper_pushes_flush_plans_but_keep_the_scan_context() {
    let data = |_: usize, _: usize, schema: &bdi::relational::Schema| {
        rows(20, schema.index_of("next_id").is_some())
    };
    let mut sys = synthetic::build_chain_system_with(1, 1, 0, data);
    let wrapper = synthetic::register_extra_chain_wrapper_handle(&mut sys, 1, 2, rows(5, false));
    let options = ExecOptions::default(); // reuse_scans: true
    let before = sys
        .answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
        .unwrap();
    let baseline = sys.plan_cache_stats();
    assert_eq!(baseline.entries, 1);
    let scans_before = sys.context_stats().cached_scans;
    assert_eq!(scans_before, 2); // one interned scan per wrapper

    // A wrapper push moves the registry's stats epoch: cached plans were
    // priced against the old sketches, so the next answer must recompile…
    wrapper
        .push(vec![Value::Int(99), Value::Float(9.9)])
        .unwrap();
    let after = sys
        .answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
        .unwrap();
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.misses, baseline.misses + 1);
    assert_eq!(stats.hits, baseline.hits);
    assert_eq!(stats.entries, 1);
    assert_eq!(after.relation.len(), before.relation.len() + 1);

    // …but the persistent scan context survives (unlike ontology/release
    // invalidation, which replaces it): the untouched sibling's interned
    // scan is still resident, and the mutated wrapper's was brought up to
    // its bumped data_version by the one pushed row, replacing the entry
    // it superseded.
    let contexts = sys.context_stats();
    assert_eq!(contexts.cached_scans, scans_before);
    assert_eq!((contexts.resumed_scans, contexts.resumed_rows), (1, 1));
    assert_eq!(contexts.full_scans, 2);

    // Repeats without further mutation hit the recompiled plan again.
    sys.answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
        .unwrap();
    assert_eq!(sys.plan_cache_stats().hits, baseline.hits + 1);
}

#[test]
fn count_neutral_ontology_mutations_invalidate_the_cache() {
    use bdi::rdf::model::{GraphName, Iri, Quad};
    let sys = system(1, 1);
    let options = ExecOptions::default();
    sys.answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
        .unwrap();
    sys.answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
        .unwrap();
    assert_eq!(sys.plan_cache_stats().hits, 1);

    // Insert then remove a quad: the quad *count* ends where it started,
    // but the store's mutation stamp advanced — the cache must not serve
    // plans compiled against the pre-mutation ontology.
    let quad = Quad::new(
        Iri::new("http://example.org/mutation-probe"),
        Iri::new("http://example.org/p"),
        Iri::new("http://example.org/o"),
        GraphName::Default,
    );
    let len_before = sys.ontology().store().len();
    assert!(sys.ontology().store().insert(&quad));
    assert!(sys.ontology().store().remove(&quad));
    assert_eq!(sys.ontology().store().len(), len_before);

    let misses_before = sys.plan_cache_stats().misses;
    sys.answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
        .unwrap();
    assert_eq!(sys.plan_cache_stats().misses, misses_before + 1); // recompiled
}

#[test]
fn execution_only_options_share_one_cache_entry() {
    let sys = system(1, 2);
    for reuse_scans in [false, true, false] {
        let options = ExecOptions {
            reuse_scans,
            ..ExecOptions::default()
        };
        sys.answer_with(synthetic::chain_query(1), &VersionScope::All, &options)
            .unwrap();
    }
    // reuse_scans (and cache_plans) don't shape the plan: one entry, two hits.
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 2);
}

#[test]
fn cached_and_uncached_answers_agree_on_filtered_queries() {
    let sys = system(2, 2);
    let filters = vec![
        FeatureFilter::eq(synthetic::chain_id_feature(1), Value::Int(7)),
        FeatureFilter::new(
            synthetic::chain_data_feature(1),
            Predicate::between(0.0, 5.0),
        ),
    ];
    let eager = ExecOptions {
        engine: Engine::Eager,
        filters: filters.clone(),
        ..ExecOptions::default()
    };
    let reference = sys
        .answer_with(
            synthetic::chain_query_with_id(2),
            &VersionScope::All,
            &eager,
        )
        .unwrap();
    for reuse_scans in [false, true] {
        let options = ExecOptions {
            filters: filters.clone(),
            reuse_scans,
            ..ExecOptions::default()
        };
        // Twice: the second run executes the cached plan (and, with
        // reuse_scans, the cached interned scans).
        for _ in 0..2 {
            let answer = sys
                .answer_with(
                    synthetic::chain_query_with_id(2),
                    &VersionScope::All,
                    &options,
                )
                .unwrap();
            assert_eq!(answer.relation.rows(), reference.relation.rows());
        }
    }
    // Each reuse_scans value is its own cache entry; the second run of each
    // pair is a hit.
    assert!(sys.plan_cache_stats().hits >= 2);
}
