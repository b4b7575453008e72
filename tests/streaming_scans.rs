//! Streaming-scan era regression suite: wrapper-data mutations between
//! releases must be visible to the (now default-on) persistent scan
//! context, and a long-lived system's interned-value pool must stay
//! bounded under its watermark.

use bdi::core::exec::{Engine, ExecOptions};
use bdi::core::system::{AnswerRequest, BdiSystem};
use bdi::relational::Value;
use bdi_bench::synthetic;

fn rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|r| vec![Value::Int(r as i64), Value::Float(r as f64 / 10.0)])
        .collect()
}

/// A one-concept system whose single data-bearing wrapper we keep a
/// concrete handle to (the chain builder's own wrapper is registered
/// empty), so tests can mutate source data after registration.
fn system_with_handle(
    data: Vec<Vec<Value>>,
) -> (BdiSystem, std::sync::Arc<bdi::wrappers::TableWrapper>) {
    let mut system = synthetic::build_chain_system_with(1, 1, 0, usize::MAX, |_, _, _| Vec::new());
    let wrapper = synthetic::register_extra_chain_wrapper_handle(&mut system, 1, 2, data);
    (system, wrapper)
}

/// The PR 3 `reuse_scans` staleness bug, now fixed by per-wrapper data
/// versions: a `TableWrapper::push` between two queries of one system must
/// surface in the second answer even though the persistent context cached
/// the first query's interned scan. (On the pre-fix code this test fails:
/// the mutation is invisible to the validity stamp and the scan-cache key,
/// so the second answer silently repeats the first.)
#[test]
fn wrapper_push_between_queries_is_never_served_stale() {
    let (system, wrapper) = system_with_handle(rows(3));
    let options = ExecOptions {
        reuse_scans: true,
        ..ExecOptions::default()
    };
    let before = system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(before.relation.len(), 3);

    // New source data arrives *without* a release.
    wrapper
        .push(vec![Value::Int(77), Value::Float(7.7)])
        .unwrap();

    let after = system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(after.relation.len(), 4, "stale scan served after push");
    assert!(after
        .relation
        .rows()
        .iter()
        .any(|row| row == &vec![Value::Float(7.7)]));

    // The same holds on the eager engine (shared reference semantics) and
    // across further pushes.
    wrapper
        .push(vec![Value::Int(78), Value::Float(7.8)])
        .unwrap();
    for engine in [Engine::Streaming, Engine::Eager] {
        let answer = system
            .serve(
                AnswerRequest::omq(synthetic::chain_query(1)).options(ExecOptions {
                    engine,
                    ..options.clone()
                }),
            )
            .unwrap();
        assert_eq!(answer.relation.len(), 5, "engine {engine:?}");
    }
}

/// A wrapper-data mutation flushes the compiled plans (the stats epoch is
/// part of the validity stamp: cost-based join orders compile sketch
/// estimates into the plan shape, so stale-sketch plans must not be served)
/// — but between mutations, repeated queries still hit the cache.
#[test]
fn data_mutations_recompile_plans_against_fresh_sketches() {
    let (system, wrapper) = system_with_handle(rows(3));
    let options = ExecOptions::default();
    system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let baseline = system.plan_cache_stats();
    assert_eq!(baseline.hits, 1); // unmutated repeat hits the cache

    wrapper
        .push(vec![Value::Int(90), Value::Float(9.0)])
        .unwrap();
    let after = system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(after.relation.len(), 4); // fresh data…
    let stats = system.plan_cache_stats();
    assert_eq!(stats.misses, baseline.misses + 1); // …through a recompile
    assert_eq!(stats.hits, baseline.hits);
}

/// Sibling-wrapper isolation: a push into one wrapper must not flush the
/// other wrappers' cached scans — the persistent context survives data
/// mutations (per-scan data-version keys carry correctness), so only the
/// mutated wrapper re-scans.
#[test]
fn sibling_wrapper_scans_survive_a_push() {
    let (system, wrapper) = system_with_handle(rows(3));
    let options = ExecOptions::default();
    // The 1-concept system has two wrappers providing f1: the chain
    // builder's (empty) and the handle's. One query scans and caches both.
    let before = system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(before.relation.len(), 3);
    assert_eq!(system.context_stats().cached_scans, 2);

    wrapper
        .push(vec![Value::Int(77), Value::Float(7.7)])
        .unwrap();
    let after = system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(after.relation.len(), 4);
    // Only the pushed wrapper's entry moved — upgraded by the one pushed
    // row, the superseded version retired with it. The sibling's entry —
    // and the whole context — survived: a context retired wholesale would
    // have re-read both wrappers in full.
    let contexts = system.context_stats();
    assert_eq!(contexts.cached_scans, 2);
    assert_eq!((contexts.resumed_scans, contexts.resumed_rows), (1, 1));
    assert_eq!(contexts.full_scans, 2);
}

/// A one-concept system over a [`bdi::docstore::DocStore`]-backed
/// `JsonWrapper`, plus the OMQ projecting its data feature — shared by the
/// docstore staleness and pool-bound tests.
fn json_system() -> (BdiSystem, bdi::docstore::DocStore, bdi::core::omq::Omq) {
    use bdi::core::release::Release;
    use bdi::core::vocab as core_vocab;
    use bdi::docstore::{DocStore, Pipeline, Projection};
    use bdi::rdf::model::{Iri, Triple};
    use bdi::relational::Schema;
    use bdi::wrappers::JsonWrapper;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let ns = "http://example.org/stream/";
    let concept = Iri::new(format!("{ns}C"));
    let feature = Iri::new(format!("{ns}val"));
    let id_feature = Iri::new(format!("{ns}id"));

    let mut system = BdiSystem::new();
    {
        let ontology = system.ontology();
        ontology.add_concept(&concept);
        ontology.add_id_feature(&id_feature);
        ontology.attach_feature(&concept, &id_feature).unwrap();
        ontology.add_feature(&feature);
        ontology.attach_feature(&concept, &feature).unwrap();
    }

    let store = DocStore::new();
    store
        .insert_many(
            "c",
            vec![
                serde_json::json!({"id": 1, "val": 10}),
                serde_json::json!({"id": 2, "val": 20}),
            ],
        )
        .unwrap();
    let wrapper = Arc::new(
        JsonWrapper::new(
            "wj",
            "DJ",
            Schema::from_parts(&["id"], &["val"]).unwrap(),
            store.clone(),
            "c",
            Pipeline::new().project(vec![
                Projection::field("id", "id"),
                Projection::field("val", "val"),
            ]),
        )
        .unwrap(),
    );
    let has_feature = |f: &Iri| {
        Triple::new(
            concept.clone(),
            (*core_vocab::g::HAS_FEATURE).clone(),
            f.clone(),
        )
    };
    let lav = vec![has_feature(&id_feature), has_feature(&feature)];
    let mappings = BTreeMap::from([
        ("id".to_owned(), id_feature.clone()),
        ("val".to_owned(), feature.clone()),
    ]);
    system
        .register_release(Release::new(wrapper, lav, mappings))
        .unwrap();

    let omq = bdi::core::omq::Omq::new(vec![feature.clone()], vec![has_feature(&feature)]);
    (system, store, omq)
}

/// Document-store inserts behind a `JsonWrapper` carry the same guarantee:
/// the wrapper's `data_version` tracks the store, so default-option
/// (scan-reusing) queries see every insert.
#[test]
fn docstore_insert_between_queries_is_never_served_stale() {
    let (system, store, omq) = json_system();
    let options = ExecOptions::default(); // reuse_scans is the default now
    let before = system
        .serve(AnswerRequest::omq(omq.clone()).options(options.clone()))
        .unwrap();
    assert_eq!(before.relation.len(), 2);

    store
        .insert("c", serde_json::json!({"id": 3, "val": 30}))
        .unwrap();
    let after = system
        .serve(AnswerRequest::omq(omq).options(options.clone()))
        .unwrap();
    assert_eq!(after.relation.len(), 3, "stale scan served after insert");
}

/// The unbounded-`ValuePool` fix: the pool never forgets a value, so a
/// long-lived system whose data keeps the same size while its values churn
/// — here, a collection refilled with two fresh documents per query, which
/// no scan can resume across — still grows the shared pool without bound.
/// The watermark recycles the persistent context, keeping the pool and the
/// memory estimate bounded across 1k queries.
#[test]
fn capped_context_pool_stays_bounded_across_1k_queries() {
    /// Refills the collection with fresh values, answers the query and
    /// returns the post-query pool size.
    fn round(
        system: &BdiSystem,
        store: &bdi::docstore::DocStore,
        omq: &bdi::core::omq::Omq,
        r: usize,
    ) -> usize {
        store.clear("c");
        let doc = |id: usize| serde_json::json!({"id": id, "val": (id as f64 + 0.5)});
        store
            .insert_many("c", vec![doc(2 * r), doc(2 * r + 1)])
            .unwrap();
        let answer = system.serve(AnswerRequest::omq(omq.clone())).unwrap();
        assert_eq!(answer.relation.len(), 2);
        system.context_stats().pooled_values
    }

    let cap = 64usize;
    let (system, store, omq) = json_system();
    system.set_context_value_cap(cap);
    let mut peak_values = 0usize;
    let mut peak_bytes = 0usize;
    for r in 0..1000 {
        peak_values = peak_values.max(round(&system, &store, &omq, r));
        peak_bytes = peak_bytes.max(system.context_stats().approx_bytes);
    }
    // The pool may overshoot the watermark by one query's worth of interned
    // values (recycling happens after the query), never by the ~1000 an
    // uncapped run accumulates.
    let one_query_slack = 64;
    assert!(
        peak_values <= cap + one_query_slack,
        "pool grew unbounded: peak {peak_values} values (cap {cap})"
    );
    assert!(
        peak_bytes < 1 << 20,
        "estimate grew unbounded: {peak_bytes}"
    );

    // Control: with the watermark effectively off, the same workload grows
    // the pool past every bound above — the cap is what held it.
    let (uncapped, store, omq) = json_system();
    uncapped.set_context_value_cap(usize::MAX);
    let mut last = 0;
    for r in 0..1000 {
        last = round(&uncapped, &store, &omq, r);
    }
    assert!(
        last > cap + one_query_slack,
        "control failed to grow: {last}"
    );
}

/// Per-collection docstore versions: two `JsonWrapper`s over two
/// collections of ONE store. Inserting into one collection re-scans only
/// its own wrapper — the sibling's cached scan (and the whole persistent
/// context) survives.
#[test]
fn sibling_collection_scans_survive_inserts() {
    use bdi::core::release::Release;
    use bdi::core::vocab as core_vocab;
    use bdi::docstore::{DocStore, Pipeline, Projection};
    use bdi::rdf::model::{Iri, Triple};
    use bdi::relational::Schema;
    use bdi::wrappers::JsonWrapper;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let ns = "http://example.org/sibling/";
    let store = DocStore::new();
    store
        .insert_many("c1", vec![serde_json::json!({"id": 1, "val": 10})])
        .unwrap();
    store
        .insert_many("c2", vec![serde_json::json!({"id": 2, "val": 20})])
        .unwrap();

    let mut system = BdiSystem::new();
    let mut omqs = Vec::new();
    for (n, collection) in [(1usize, "c1"), (2, "c2")] {
        let concept = Iri::new(format!("{ns}C{n}"));
        let feature = Iri::new(format!("{ns}val{n}"));
        let id_feature = Iri::new(format!("{ns}id{n}"));
        {
            let ontology = system.ontology();
            ontology.add_concept(&concept);
            ontology.add_id_feature(&id_feature);
            ontology.attach_feature(&concept, &id_feature).unwrap();
            ontology.add_feature(&feature);
            ontology.attach_feature(&concept, &feature).unwrap();
        }
        let wrapper = Arc::new(
            JsonWrapper::new(
                format!("wj{n}"),
                format!("DJ{n}"),
                Schema::from_parts(&["id"], &["val"]).unwrap(),
                store.clone(),
                collection,
                Pipeline::new().project(vec![
                    Projection::field("id", "id"),
                    Projection::field("val", "val"),
                ]),
            )
            .unwrap(),
        );
        let has_feature = |f: &Iri| {
            Triple::new(
                concept.clone(),
                (*core_vocab::g::HAS_FEATURE).clone(),
                f.clone(),
            )
        };
        let lav = vec![has_feature(&id_feature), has_feature(&feature)];
        let mappings = BTreeMap::from([
            ("id".to_owned(), id_feature.clone()),
            ("val".to_owned(), feature.clone()),
        ]);
        system
            .register_release(Release::new(wrapper, lav, mappings))
            .unwrap();
        omqs.push(bdi::core::omq::Omq::new(
            vec![feature.clone()],
            vec![has_feature(&feature)],
        ));
    }

    let options = ExecOptions::default();
    let c1_before = system
        .serve(AnswerRequest::omq(omqs[0].clone()).options(options.clone()))
        .unwrap();
    let c2_before = system
        .serve(AnswerRequest::omq(omqs[1].clone()).options(options.clone()))
        .unwrap();
    assert_eq!(system.context_stats().cached_scans, 2);
    let pooled = system.context_stats().pooled_values;

    store
        .insert("c2", serde_json::json!({"id": 9, "val": 90}))
        .unwrap();

    // c1's wrapper keys its scans on c1's collection version, which did not
    // move: re-answering is a pure cache hit — same rows, no new scan
    // entry, nothing freshly interned. (On the store-wide counter this
    // insert flushed c1's scan too.)
    let c1_after = system
        .serve(AnswerRequest::omq(omqs[0].clone()).options(options.clone()))
        .unwrap();
    assert_eq!(c1_after.relation.rows(), c1_before.relation.rows());
    assert_eq!(
        system.context_stats().cached_scans,
        2,
        "sibling collection's cached scan was flushed"
    );
    assert_eq!(system.context_stats().pooled_values, pooled);

    // c2's wrapper sees a new collection version: it reads the inserted
    // document, surfaces it, and its older entry is replaced.
    let c2_after = system
        .serve(AnswerRequest::omq(omqs[1].clone()).options(options.clone()))
        .unwrap();
    assert_eq!(c2_after.relation.len(), c2_before.relation.len() + 1);
    let contexts = system.context_stats();
    assert_eq!(contexts.cached_scans, 2);
    assert_eq!((contexts.resumed_scans, contexts.resumed_rows), (1, 1));
}

/// The semi-join sideways pass on a 2-concept chain: the small first
/// wrapper is the build side, and its key set reduces the big second
/// wrapper's probe scan. A key-reduced probe scan is query-specific and
/// must never land in the persistent `reuse_scans` cache.
#[test]
fn semijoin_reduced_probe_scan_never_lands_in_the_reuse_cache() {
    let system = synthetic::build_chain_system_with(2, 1, 0, usize::MAX, |i, _, _| {
        if i == 1 {
            // 2 rows → 2 distinct join keys, well under the threshold.
            (0..2)
                .map(|r| {
                    vec![
                        Value::Int(r as i64),
                        Value::Int(r as i64),
                        Value::Float(r as f64),
                    ]
                })
                .collect()
        } else {
            (0..64)
                .map(|r| vec![Value::Int(r as i64), Value::Float(r as f64)])
                .collect()
        }
    });
    let reference = system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2)).options(ExecOptions {
                engine: Engine::Eager,
                ..ExecOptions::default()
            }),
        )
        .unwrap();
    assert_eq!(reference.relation.len(), 2);

    // Default options: the pass fires, the probe scan is issued reduced
    // and bypasses the cache — only the build side's scan is cached.
    let answer = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(ExecOptions::default()))
        .unwrap();
    assert_eq!(answer.relation.rows(), reference.relation.rows());
    assert_eq!(
        system.context_stats().cached_scans,
        1,
        "key-reduced probe scan polluted the persistent cache"
    );

    // With the pass disabled the probe scan runs unreduced and caches
    // normally (the build side's entry is reused).
    let off = system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2)).options(ExecOptions {
                semijoin_max_keys: 0,
                ..ExecOptions::default()
            }),
        )
        .unwrap();
    assert_eq!(off.relation.rows(), reference.relation.rows());
    assert_eq!(system.context_stats().cached_scans, 2);
}

// ---------------------------------------------------------------------------
// Fault tolerance: retrying remote wrappers, degrade policy, deadlines
// ---------------------------------------------------------------------------

mod fault_tolerance {
    use super::*;
    use bdi::core::exec::{SourceFailure, SourceFailurePolicy};
    use bdi::core::release::Release;
    use bdi::core::vocab as core_vocab;
    use bdi::rdf::model::{Iri, Triple};
    use bdi::relational::{Relation, Schema};
    use bdi::wrappers::wrapper::RowBatches;
    use bdi::wrappers::{
        FaultProfile, RemoteWrapper, RetryPolicy, SimulatedEndpoint, TableWrapper, Wrapper,
        WrapperError,
    };
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A retry policy quick enough for tests: 4 attempts, 1–2 ms backoff.
    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            attempt_timeout: Duration::from_secs(1),
        }
    }

    fn schema() -> Schema {
        Schema::from_parts(&["id"], &["val"]).unwrap()
    }

    fn relation_of(ids: std::ops::Range<i64>) -> Relation {
        Relation::new(
            schema(),
            ids.map(|i| vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
                .collect(),
        )
        .unwrap()
    }

    /// A one-concept system over the given wrappers (all providing the same
    /// `id`/`val` features, so each becomes its own walk) and the OMQ
    /// projecting both features.
    fn system_over(wrappers: Vec<Arc<dyn Wrapper>>) -> (BdiSystem, bdi::core::omq::Omq) {
        let ns = "http://example.org/fault/";
        let concept = Iri::new(format!("{ns}C"));
        let feature = Iri::new(format!("{ns}val"));
        let id_feature = Iri::new(format!("{ns}id"));
        let mut system = BdiSystem::new();
        {
            let ontology = system.ontology();
            ontology.add_concept(&concept);
            ontology.add_id_feature(&id_feature);
            ontology.attach_feature(&concept, &id_feature).unwrap();
            ontology.add_feature(&feature);
            ontology.attach_feature(&concept, &feature).unwrap();
        }
        let has_feature = |f: &Iri| {
            Triple::new(
                concept.clone(),
                (*core_vocab::g::HAS_FEATURE).clone(),
                f.clone(),
            )
        };
        let lav = vec![has_feature(&id_feature), has_feature(&feature)];
        let mappings = BTreeMap::from([
            ("id".to_owned(), id_feature.clone()),
            ("val".to_owned(), feature.clone()),
        ]);
        for wrapper in wrappers {
            system
                .register_release(Release::new(wrapper, lav.clone(), mappings.clone()))
                .unwrap();
        }
        let omq = bdi::core::omq::Omq::new(
            vec![id_feature.clone(), feature.clone()],
            vec![has_feature(&feature), has_feature(&id_feature)],
        );
        (system, omq)
    }

    /// A remote wrapper named `wr` over 12 rows served 4 per page (pages 0,
    /// 1, 2), failing per `profile`, plus a healthy table wrapper `wt`
    /// overlapping it on ids 8..16 — two walks, shared rows, so dedup and
    /// degrade interplay are both exercised.
    fn remote_plus_table(
        profile: FaultProfile,
        retry: RetryPolicy,
    ) -> (BdiSystem, bdi::core::omq::Omq) {
        let endpoint = Arc::new(SimulatedEndpoint::new(relation_of(0..12), 4, profile));
        let remote = Arc::new(RemoteWrapper::new("wr", "DR", endpoint, retry));
        let table = Arc::new(
            TableWrapper::new("wt", "DT", schema(), relation_of(8..16).into_rows()).unwrap(),
        );
        system_over(vec![remote, table])
    }

    /// The fault-free reference: what the eager §2.2 engine answers over
    /// the same data with no faults injected.
    fn eager_reference(omq: &bdi::core::omq::Omq, system: &BdiSystem) -> Relation {
        system
            .serve(AnswerRequest::omq(omq.clone()).options(ExecOptions {
                engine: Engine::Eager,
                ..ExecOptions::default()
            }))
            .unwrap()
            .relation
    }

    /// The satellite fault matrix: (error on page 0 / mid / last) ×
    /// (retries succeed / exhaust) × (`Fail` / `Degrade`). Whenever the
    /// query succeeds its rows must be identical to the fault-free eager
    /// engine's; an exhausted source aborts under `Fail` and degrades to
    /// exactly the surviving walk's rows (with an accurate report) under
    /// `Degrade`.
    #[test]
    fn fault_matrix_is_differential_against_the_eager_engine() {
        let (clean_system, omq) = remote_plus_table(FaultProfile::default(), fast_retry());
        let reference = eager_reference(&omq, &clean_system);
        assert_eq!(reference.len(), 16, "12 remote + 8 table − 4 shared");
        // What survives when the remote source is dropped: the table walk.
        let (table_only, _) = system_over(vec![Arc::new(
            TableWrapper::new("wt", "DT", schema(), relation_of(8..16).into_rows()).unwrap(),
        ) as Arc<dyn Wrapper>]);
        let surviving = eager_reference(&omq, &table_only).to_distinct();

        for fail_page in [0u64, 1, 2] {
            for (failures, succeeds) in [(2u64, true), (u64::MAX, false)] {
                for policy in [SourceFailurePolicy::Fail, SourceFailurePolicy::Degrade] {
                    let mut profile = FaultProfile::default();
                    profile.transient_failures.insert(fail_page, failures);
                    let (system, omq) = remote_plus_table(profile, fast_retry());
                    let result = system.serve(AnswerRequest::omq(omq).options(ExecOptions {
                        on_source_failure: policy,
                        ..ExecOptions::default()
                    }));
                    let label = format!(
                        "page {fail_page}, {} leading failures, {policy:?}",
                        if succeeds { "2" } else { "∞" }
                    );
                    if succeeds {
                        let answer = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert_eq!(
                            answer.relation.rows(),
                            reference.rows(),
                            "{label}: retried answer diverged from the eager engine"
                        );
                        assert!(answer.source_failures.is_empty(), "{label}");
                    } else if matches!(policy, SourceFailurePolicy::Fail) {
                        let err = result.expect_err(&label).to_string();
                        assert!(
                            err.contains("wrapper wr failed"),
                            "{label}: unexpected error {err}"
                        );
                    } else {
                        let answer = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert_eq!(
                            answer.relation.rows(),
                            surviving.rows(),
                            "{label}: partial answer is not exactly the surviving walk"
                        );
                        assert_eq!(
                            answer.source_failures,
                            vec![SourceFailure {
                                wrapper: "wr".to_owned(),
                                transient: true,
                                cause: answer.source_failures[0].cause.clone(),
                                walks_dropped: 1,
                            }],
                            "{label}"
                        );
                        assert!(
                            answer.source_failures[0]
                                .cause
                                .contains("retries exhausted"),
                            "{label}: cause {:?}",
                            answer.source_failures[0].cause
                        );
                    }
                }
            }
        }
    }

    /// Both engines name a source failure the same way: a permanently
    /// failing wrapper surfaces as the same classified
    /// `RelationError::SourceFailure` whether the eager reference resolved
    /// it or the streaming executor scanned it.
    #[test]
    fn both_engines_classify_a_permanent_source_failure_alike() {
        use bdi::core::exec::ExecError;
        use bdi::core::system::SystemError;
        use bdi::relational::{AlgebraError, PlanError, RelationError};

        let failure_under = |engine: Engine| {
            let profile = FaultProfile {
                hard_fail_after: Some(0),
                ..FaultProfile::default()
            };
            let endpoint = Arc::new(SimulatedEndpoint::new(relation_of(0..12), 4, profile));
            let (system, omq) =
                system_over(vec![
                    Arc::new(RemoteWrapper::new("wr", "DR", endpoint, fast_retry()))
                        as Arc<dyn Wrapper>,
                ]);
            let err = system
                .serve(AnswerRequest::omq(omq).options(ExecOptions {
                    engine,
                    ..ExecOptions::default()
                }))
                .expect_err("the source is gone");
            match err {
                SystemError::Exec(
                    ExecError::Relation(e)
                    | ExecError::Algebra(AlgebraError::Relation(e))
                    | ExecError::Plan(PlanError::Relation(e)),
                ) => e,
                other => panic!("{engine:?}: not a relation error: {other:?}"),
            }
        };
        let streamed = failure_under(Engine::Streaming);
        assert_eq!(failure_under(Engine::Eager), streamed);
        assert!(
            matches!(
                &streamed,
                RelationError::SourceFailure { source, transient: false, .. } if source == "wr"
            ),
            "{streamed:?}"
        );
    }

    /// A permanently failed source (gone after one page) under `Degrade`:
    /// the report is classified permanent, and the partial answer still
    /// contains every surviving row — including the rows the failed walk
    /// *also* produced before dying, which late claiming keeps available to
    /// the surviving walk.
    #[test]
    fn permanent_failure_degrades_with_an_accurate_report() {
        let profile = FaultProfile {
            hard_fail_after: Some(1),
            ..FaultProfile::default()
        };
        let (system, omq) = remote_plus_table(profile, fast_retry());
        let (table_only, _) = system_over(vec![Arc::new(
            TableWrapper::new("wt", "DT", schema(), relation_of(8..16).into_rows()).unwrap(),
        ) as Arc<dyn Wrapper>]);
        let surviving = eager_reference(&omq, &table_only).to_distinct();
        let answer = system
            .serve(AnswerRequest::omq(omq).options(ExecOptions {
                on_source_failure: SourceFailurePolicy::Degrade,
                ..ExecOptions::default()
            }))
            .unwrap();
        assert_eq!(answer.relation.rows(), surviving.rows());
        assert_eq!(answer.source_failures.len(), 1);
        let report = &answer.source_failures[0];
        assert_eq!(report.wrapper, "wr");
        assert!(!report.transient, "hard failure must classify permanent");
        assert_eq!(report.walks_dropped, 1);
    }

    /// A single-walk query degrading around its only source returns an
    /// empty — but honest — answer.
    #[test]
    fn single_walk_degrade_is_empty_with_a_report() {
        let profile = FaultProfile {
            hard_fail_after: Some(0),
            ..FaultProfile::default()
        };
        let endpoint = Arc::new(SimulatedEndpoint::new(relation_of(0..12), 4, profile));
        let (system, omq) =
            system_over(vec![
                Arc::new(RemoteWrapper::new("wr", "DR", endpoint, fast_retry()))
                    as Arc<dyn Wrapper>,
            ]);
        let answer = system
            .serve(AnswerRequest::omq(omq).options(ExecOptions {
                on_source_failure: SourceFailurePolicy::Degrade,
                ..ExecOptions::default()
            }))
            .unwrap();
        assert!(answer.relation.is_empty());
        assert_eq!(answer.source_failures.len(), 1);
        assert_eq!(answer.source_failures[0].wrapper, "wr");
        assert_eq!(answer.source_failures[0].walks_dropped, 1);
    }

    /// The per-query deadline on a slow-dripping source: pages keep
    /// arriving (50 ms each, ~1 s total), so only the deadline can stop the
    /// query — and it must, within 2× the deadline, with a deadline error
    /// rather than a hang.
    #[test]
    fn deadline_aborts_a_slow_source_within_twice_the_deadline() {
        let profile = FaultProfile {
            page_latency: Duration::from_millis(50),
            ..FaultProfile::default()
        };
        let endpoint = Arc::new(SimulatedEndpoint::new(relation_of(0..40), 2, profile));
        let (system, omq) =
            system_over(vec![
                Arc::new(RemoteWrapper::new("wr", "DR", endpoint, fast_retry()))
                    as Arc<dyn Wrapper>,
            ]);
        let deadline = Duration::from_millis(300);
        let started = Instant::now();
        let err = system
            .serve(AnswerRequest::omq(omq).options(ExecOptions {
                deadline: Some(deadline),
                ..ExecOptions::default()
            }))
            .expect_err("a 20-page, 50 ms/page scan cannot finish in 300 ms");
        let elapsed = started.elapsed();
        assert!(
            err.to_string().contains("deadline"),
            "unexpected error: {err}"
        );
        assert!(
            elapsed <= deadline * 2,
            "deadline overshoot: {elapsed:?} for a {deadline:?} deadline"
        );
    }

    /// A wrapper whose sketches take 50 ms to produce, once, when armed —
    /// planning consults them while compiling.
    struct SlowStatsOnce {
        inner: TableWrapper,
        armed: std::sync::atomic::AtomicBool,
    }

    impl Wrapper for SlowStatsOnce {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn source(&self) -> &str {
            self.inner.source()
        }

        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn scan(&self) -> Result<Relation, bdi::wrappers::WrapperError> {
            self.inner.scan()
        }

        fn column_stats(&self) -> Option<Arc<bdi::relational::TableStats>> {
            if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            self.inner.column_stats()
        }
    }

    /// The deadline is a budget for the request, armed when `serve` is
    /// entered: a compile that outlasts it fails the request — yet the plan
    /// it produced is cached, so the retry is a hit and fits the budget.
    #[test]
    fn deadline_is_armed_on_entry_and_spent_by_compilation() {
        let slow = Arc::new(SlowStatsOnce {
            inner: TableWrapper::new("ws", "DS", schema(), relation_of(0..2).into_rows()).unwrap(),
            armed: std::sync::atomic::AtomicBool::new(false),
        });
        let (system, omq) = system_over(vec![slow.clone() as Arc<dyn Wrapper>]);
        slow.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        let request = || AnswerRequest::omq(omq.clone()).deadline(Duration::from_millis(10));
        let err = system
            .serve(request())
            .expect_err("a 50 ms compile cannot fit a 10 ms budget");
        assert!(
            err.to_string().contains("deadline"),
            "unexpected error: {err}"
        );
        assert_eq!(system.plan_cache_stats().entries, 1);
        let answer = system.serve(request()).expect("a plan-cache hit fits");
        assert_eq!(answer.relation.len(), 2);
        assert_eq!(system.plan_cache_stats().hits, 1);
    }

    /// A *stalled* source (first page slower than the whole retry budget)
    /// surfaces as a transport-timeout error within the page budget — never
    /// a hang — even with a generous query deadline racing it.
    #[test]
    fn stalled_source_times_out_instead_of_hanging() {
        let profile = FaultProfile {
            page_latency: Duration::from_secs(30),
            ..FaultProfile::default()
        };
        let endpoint = Arc::new(SimulatedEndpoint::new(relation_of(0..12), 4, profile));
        let retry = RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            attempt_timeout: Duration::from_millis(100),
        };
        let budget = retry.page_budget();
        let (system, omq) =
            system_over(vec![
                Arc::new(RemoteWrapper::new("wr", "DR", endpoint, retry)) as Arc<dyn Wrapper>,
            ]);
        let started = Instant::now();
        let err = system
            .serve(AnswerRequest::omq(omq).options(ExecOptions {
                deadline: Some(Duration::from_secs(10)),
                ..ExecOptions::default()
            }))
            .expect_err("a 30 s/page endpoint cannot satisfy a 100 ms attempt budget");
        let elapsed = started.elapsed();
        assert!(
            err.to_string().contains("timed out"),
            "unexpected error: {err}"
        );
        assert!(
            elapsed <= budget * 2 + Duration::from_secs(1),
            "stall detection too slow: {elapsed:?} (budget {budget:?})"
        );
    }

    /// A table wrapper whose reads can be made to die after their first
    /// batch: only resumed ones (`fail_resumes`), or all of them
    /// (`fail_all`) — the mid-stream failure of [`Misbehaving`] below, on
    /// the append-aware path.
    struct FlakyResume {
        inner: TableWrapper,
        fail_resumes: std::sync::atomic::AtomicBool,
        fail_all: std::sync::atomic::AtomicBool,
    }

    impl Wrapper for FlakyResume {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn source(&self) -> &str {
            self.inner.source()
        }

        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn scan(&self) -> Result<Relation, bdi::wrappers::WrapperError> {
            self.inner.scan()
        }

        fn data_version(&self) -> u64 {
            self.inner.data_version()
        }

        fn scan_batches<'a>(
            &'a self,
            request: &bdi::relational::plan::ScanRequest,
            _batch_rows: usize,
        ) -> Result<(RowBatches<'a>, Option<bdi::relational::ScanMark>), WrapperError> {
            // One-row batches, so a failure after the first is mid-stream.
            let (batches, mark) = self.inner.scan_batches(request, 1)?;
            Ok((self.dying(batches, false), mark))
        }

        fn resume_batches<'a>(
            &'a self,
            request: &bdi::relational::plan::ScanRequest,
            _batch_rows: usize,
            mark: &bdi::relational::ScanMark,
        ) -> Result<Option<(RowBatches<'a>, bdi::relational::ScanMark)>, WrapperError> {
            let resumed = self.inner.resume_batches(request, 1, mark)?;
            Ok(resumed.map(|(batches, mark)| (self.dying(batches, true), mark)))
        }
    }

    impl FlakyResume {
        /// `batches`, cut off by a transient error after the first when
        /// this kind of read is set to die.
        fn dying<'a>(&self, batches: RowBatches<'a>, resumed: bool) -> RowBatches<'a> {
            use std::sync::atomic::Ordering;
            let dies = self.fail_all.load(Ordering::SeqCst)
                || (resumed && self.fail_resumes.load(Ordering::SeqCst));
            if !dies {
                return batches;
            }
            let gone = WrapperError::transient(self.name(), "connection reset");
            Box::new(batches.take(1).chain(std::iter::once(Err(gone))))
        }
    }

    /// A source failing part-way through a resumed read costs a full read,
    /// never an answer; and when the full read fails too, the query errors
    /// with the older version's entry still cached — the next query, source
    /// healed, resumes from it.
    #[test]
    fn a_failed_resume_keeps_the_predecessor_and_the_next_answer_correct() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let flaky = Arc::new(FlakyResume {
            inner: TableWrapper::new("wf", "DF", schema(), relation_of(0..6).into_rows()).unwrap(),
            fail_resumes: AtomicBool::new(false),
            fail_all: AtomicBool::new(false),
        });
        let (system, omq) = system_over(vec![flaky.clone() as Arc<dyn Wrapper>]);
        let options = ExecOptions::default();
        let push = |id: i64| {
            flaky
                .inner
                .push(vec![Value::Int(id), Value::Float(id as f64 / 2.0)])
                .unwrap()
        };
        let answer = || system.serve(AnswerRequest::omq(omq.clone()).options(options.clone()));
        assert_eq!(answer().unwrap().relation.len(), 6);
        let fills = |system: &BdiSystem| {
            let stats = system.context_stats();
            (stats.resumed_scans, stats.resumed_rows, stats.full_scans)
        };
        assert_eq!(fills(&system), (0, 0, 1));

        // Resumed reads die mid-stream: the fill falls back to a full read.
        push(6);
        push(7);
        flaky.fail_resumes.store(true, Ordering::SeqCst);
        let fallback = answer().unwrap();
        assert_eq!(
            fallback.relation.rows(),
            eager_reference(&omq, &system).rows()
        );
        assert_eq!(fills(&system), (0, 0, 2));

        // Every read dies: the query fails, and fails again…
        push(8);
        flaky.fail_all.store(true, Ordering::SeqCst);
        for _ in 0..2 {
            let err = answer().expect_err("the source is down").to_string();
            assert!(err.contains("connection reset"), "unexpected error: {err}");
        }
        assert_eq!(system.context_stats().cached_scans, 1);
        // …until the source heals: the entry cached three pushes ago is
        // upgraded by exactly the rows pushed since.
        flaky.fail_all.store(false, Ordering::SeqCst);
        flaky.fail_resumes.store(false, Ordering::SeqCst);
        push(9);
        let healed = answer().unwrap();
        assert_eq!(
            healed.relation.rows(),
            eager_reference(&omq, &system).rows()
        );
        assert_eq!(healed.relation.len(), 10);
        assert_eq!(fills(&system), (1, 2, 2));
        assert_eq!(system.context_stats().cached_scans, 1);
    }

    /// One writer and one reader on one system, for a second in all (three
    /// seeds): the writer appends a row with a value of its own to a table
    /// wrapper or a document to a collection, the reader re-asks the query
    /// on the pooled persistent context. Every answer holds at least the
    /// writes acknowledged before it was asked and at most those started
    /// before it came back; the last one equals a fresh context's and the
    /// eager engine's.
    #[test]
    fn reads_racing_appends_see_a_prefix_of_the_acknowledged_writes() {
        use bdi::docstore::{DocStore, Pipeline, Projection};
        use bdi::wrappers::JsonWrapper;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        const BASE: usize = 8;
        for seed in [1u64, 2, 3] {
            let table = Arc::new(
                TableWrapper::new("wt", "DT", schema(), relation_of(0..4).into_rows()).unwrap(),
            );
            let store = DocStore::new();
            store
                .insert_many(
                    "c",
                    (4..8).map(|i| serde_json::json!({"id": i, "val": (i as f64 / 2.0)})),
                )
                .unwrap();
            let json = Arc::new(
                JsonWrapper::new(
                    "wj",
                    "DJ",
                    schema(),
                    store.clone(),
                    "c",
                    Pipeline::new().project(vec![
                        Projection::field("id", "id"),
                        Projection::field("val", "val"),
                    ]),
                )
                .unwrap(),
            );
            let (system, omq) = system_over(vec![table.clone(), json]);
            let (started, acked) = (AtomicU64::new(0), AtomicU64::new(0));
            let stop = AtomicBool::new(false);
            let reads = std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut state = seed;
                    while !stop.load(Ordering::SeqCst) {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = started.fetch_add(1, Ordering::SeqCst);
                        // Ids past the base rows', values nobody else has.
                        let (id, val) = (100 + k as i64, 1000.25 + k as f64);
                        if (state >> 33) % 2 == 0 {
                            table.push(vec![Value::Int(id), Value::Float(val)]).unwrap();
                        } else {
                            store
                                .insert("c", serde_json::json!({"id": id, "val": val}))
                                .unwrap();
                        }
                        acked.fetch_add(1, Ordering::SeqCst);
                        // A few thousand writes a second: sources that grow
                        // while being read, not a bulk load.
                        std::thread::sleep(Duration::from_micros(50 + (state >> 40) % 200));
                    }
                });
                let begun = Instant::now();
                let mut reads = 0u64;
                while begun.elapsed() < Duration::from_millis(334) {
                    let low = acked.load(Ordering::SeqCst) as usize;
                    let answer = system
                        .serve(AnswerRequest::omq(omq.clone()).options(ExecOptions::default()))
                        .unwrap();
                    let high = started.load(Ordering::SeqCst) as usize;
                    let rows = answer.relation.len();
                    assert!(
                        (BASE + low..=BASE + high).contains(&rows),
                        "seed {seed}: {rows} rows, {low} writes acknowledged before, \
                         {high} started by the reply"
                    );
                    reads += 1;
                }
                stop.store(true, Ordering::SeqCst);
                reads
            });
            let writes = acked.load(Ordering::SeqCst) as usize;
            let last = system
                .serve(AnswerRequest::omq(omq.clone()).options(ExecOptions::default()))
                .unwrap();
            assert_eq!(last.relation.len(), BASE + writes, "seed {seed}");
            let fresh = system
                .serve(AnswerRequest::omq(omq.clone()).options(ExecOptions {
                    reuse_scans: false,
                    ..ExecOptions::default()
                }))
                .unwrap();
            assert_eq!(last.relation.rows(), fresh.relation.rows(), "seed {seed}");
            assert_eq!(
                last.relation.rows(),
                eager_reference(&omq, &system).rows(),
                "seed {seed}"
            );
            let stats = system.context_stats();
            assert!(
                reads > 2 && writes > 2 && stats.resumed_scans > 0,
                "seed {seed}: nothing raced ({reads} reads, {writes} writes, {stats:?})"
            );
            // Every appended row was read once, or once more by a full
            // re-read after a resume lost a race — never per query.
            assert!(stats.cached_scans <= 2, "seed {seed}: {stats:?}");
        }
    }

    /// The mid-stream arity satellite: a misbehaving wrapper whose batch
    /// stream yields a wrong-arity row *after* the first batch must surface
    /// the same `RelationError::Arity` the first-batch precheck produces —
    /// on every operator path, not a late panic or a garbled join.
    #[test]
    fn mid_stream_arity_violation_errors_like_the_precheck() {
        use bdi::relational::plan::ScanRequest;
        use bdi::relational::Tuple;

        struct Misbehaving {
            inner: TableWrapper,
        }

        impl Wrapper for Misbehaving {
            fn name(&self) -> &str {
                self.inner.name()
            }

            fn source(&self) -> &str {
                self.inner.source()
            }

            fn schema(&self) -> &Schema {
                self.inner.schema()
            }

            fn scan(&self) -> Result<Relation, WrapperError> {
                self.inner.scan()
            }

            /// A good first batch, then a wrong-arity row.
            fn scan_batches<'a>(
                &'a self,
                request: &ScanRequest,
                _batch_rows: usize,
            ) -> Result<(RowBatches<'a>, Option<bdi::relational::ScanMark>), WrapperError>
            {
                let (batches, mark) = self.inner.scan_batches(request, usize::MAX)?;
                let bad: Vec<Tuple> = vec![vec![Value::Int(99)]]; // arity 1, schema wants 2
                Ok((Box::new(batches.chain(std::iter::once(Ok(bad)))), mark))
            }
        }

        let (system, omq) = system_over(vec![Arc::new(Misbehaving {
            inner: TableWrapper::new("wb", "DB", schema(), relation_of(0..4).into_rows()).unwrap(),
        }) as Arc<dyn Wrapper>]);
        let err = system
            .serve(AnswerRequest::omq(omq).options(ExecOptions::default()))
            .expect_err("mid-stream arity violation must error")
            .to_string();
        assert!(
            err.contains("values but the schema has"),
            "expected the Arity error, got: {err}"
        );
    }

    /// Chaos smoke: under a high seeded random transient-fault rate (CI
    /// sweeps `BDI_FAULT_SEED` across several seeds), generous retries must
    /// make the streaming answer identical to the fault-free eager engine —
    /// faults perturb timing, never answers.
    #[test]
    fn chaos_random_faults_never_change_answers() {
        let (clean_system, omq) = remote_plus_table(FaultProfile::default(), fast_retry());
        let reference = eager_reference(&omq, &clean_system);
        let profile = FaultProfile {
            transient_error_rate: 0.4,
            seed: FaultProfile::env_seed(42),
            ..FaultProfile::default()
        };
        let retry = RetryPolicy {
            max_attempts: 30,
            initial_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            attempt_timeout: Duration::from_secs(5),
        };
        let (system, omq) = remote_plus_table(profile, retry);
        for _ in 0..3 {
            let answer = system
                .serve(AnswerRequest::omq(omq.clone()).options(ExecOptions::default()))
                .unwrap();
            assert_eq!(answer.relation.rows(), reference.rows());
            assert!(answer.source_failures.is_empty());
        }
        assert!(
            system.retry_stats().attempts >= system.retry_stats().pages,
            "retry stats must count every attempt"
        );
    }
}
