//! The cross-query plan cache: repeated analyst queries skip the
//! rewriting-to-plan pipeline (hits), `register_release` invalidates the
//! cached plans but keeps the persistent scan context, a data change
//! re-plans over the cached rewriting, a capability flip re-plans nothing,
//! and answers are identical cached or not — with and without
//! `reuse_scans`.

use bdi::core::exec::{Engine, ExecError, ExecOptions, SourceFailurePolicy};
use bdi::core::system::{AnswerRequest, SystemError, VersionScope};
use bdi::relational::{PlanError, Value};
use bdi_bench::synthetic;
use std::sync::Arc;
use std::time::Duration;

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
    synthetic::build_chain_system_with(concepts, wrappers, 0, usize::MAX, |_, _, schema| {
        rows(50, schema.index_of("next_id").is_some())
    })
}

#[test]
fn repeated_queries_hit_the_plan_cache() {
    let system = system(2, 2);
    let options = ExecOptions::default();
    let first = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(options.clone()))
        .unwrap();
    let stats = system.plan_cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, 1);

    let second = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(options.clone()))
        .unwrap();
    let stats = system.plan_cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
    assert_eq!(first.relation, second.relation);
    assert_eq!(first.walk_exprs, second.walk_exprs);
    assert_eq!(first.rewriting.walks.len(), second.rewriting.walks.len());

    // A different scope, option set or query is a different entry.
    system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2))
                .scope(VersionScope::Latest)
                .options(options.clone()),
        )
        .unwrap();
    system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2)).options(ExecOptions {
                cost_based_joins: false,
                ..ExecOptions::default()
            }),
        )
        .unwrap();
    system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(system.plan_cache_stats().entries, 4);

    // Opting out compiles fresh every time and caches nothing new.
    let opt_out = ExecOptions {
        cache_plans: false,
        ..ExecOptions::default()
    };
    let before = system.plan_cache_stats();
    let uncached = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(opt_out.clone()))
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
    let mut sys = synthetic::build_chain_system_with(1, 2, 0, usize::MAX, data);
    let reuse = ExecOptions {
        reuse_scans: true,
        ..ExecOptions::default()
    };
    let before = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(reuse.clone()))
        .unwrap();
    assert_eq!(sys.plan_cache_stats().entries, 1);
    assert_eq!(before.rewriting.walks.len(), 2);

    // Registering a fresh release flushes everything…
    synthetic::register_extra_chain_wrapper(&mut sys, 1, 3, rows(20, false));
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.entries, 0);

    // …and the next answer sees the new wrapper's rows under a recompiled
    // three-walk rewriting.
    let after = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(reuse.clone()))
        .unwrap();
    assert_eq!(after.rewriting.walks.len(), 3);
    assert!(after.relation.len() >= before.relation.len());
    assert!(!Arc::ptr_eq(&before.rewriting, &after.rewriting));
    assert_eq!(sys.plan_cache_stats().rewrite_hits, 0);
}

/// Algorithm 1 leaves every registered wrapper alone, and so does the
/// scan cache: after the §2.1 evolution only the new wrapper is read.
#[test]
fn a_release_scans_only_the_new_wrapper() {
    let mut system = bdi::core::supersede::build_running_example();
    let query = bdi::core::supersede::exemplary_query();
    system.serve(AnswerRequest::sparql(&query)).unwrap();
    let before = system.context_stats();

    bdi::core::supersede::evolve_with_w4(&mut system);
    let after = system.serve(AnswerRequest::sparql(&query)).unwrap();
    assert_eq!(after.rewriting.walks.len(), 2);
    let stats = system.context_stats();
    assert_eq!(stats.full_scans, before.full_scans + 1);
    assert_eq!(stats.cached_scans, before.cached_scans + 1);
}

#[test]
fn wrapper_pushes_flush_plans_but_keep_the_scan_context() {
    let data = |_: usize, _: usize, schema: &bdi::relational::Schema| {
        rows(20, schema.index_of("next_id").is_some())
    };
    let mut sys = synthetic::build_chain_system_with(1, 1, 0, usize::MAX, data);
    let wrapper = synthetic::register_extra_chain_wrapper_handle(&mut sys, 1, 2, rows(5, false));
    let options = ExecOptions::default(); // reuse_scans: true
    let before = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let baseline = sys.plan_cache_stats();
    assert_eq!(baseline.entries, 1);
    let scans_before = sys.context_stats().cached_scans;
    assert_eq!(scans_before, 2); // one interned scan per wrapper

    // A wrapper push moves the registry's stats epoch: cached plans were
    // priced against the old sketches, so the next answer must re-plan —
    // a miss, never a hit — over the rewriting the entry already holds.
    wrapper
        .push(vec![Value::Int(99), Value::Float(9.9)])
        .unwrap();
    let after = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.misses, baseline.misses + 1);
    assert_eq!(stats.rewrite_hits, baseline.rewrite_hits + 1);
    assert_eq!(stats.hits, baseline.hits);
    assert_eq!(stats.entries, 1);
    assert_eq!(after.relation.len(), before.relation.len() + 1);
    assert!(Arc::ptr_eq(&before.rewriting, &after.rewriting));

    // …but the persistent scan context survives: the untouched sibling's
    // interned scan is still resident, and the mutated wrapper's was
    // brought up to its bumped data_version by the one pushed row,
    // replacing the entry it superseded.
    let contexts = sys.context_stats();
    assert_eq!(contexts.cached_scans, scans_before);
    assert_eq!((contexts.resumed_scans, contexts.resumed_rows), (1, 1));
    assert_eq!(contexts.full_scans, 2);

    // Repeats without further mutation hit the re-planned entry, which
    // replaced the stale one.
    sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let repeat = sys.plan_cache_stats();
    assert_eq!(repeat.hits, baseline.hits + 1);
    assert_eq!(repeat.rewrite_hits, stats.rewrite_hits);
}

#[test]
fn count_neutral_ontology_mutations_invalidate_the_cache() {
    use bdi::rdf::model::{GraphName, Iri, Quad};
    let sys = system(1, 1);
    let options = ExecOptions::default();
    sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let before = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
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
    let after = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.misses, misses_before + 1); // recompiled…
    assert_eq!(stats.rewrite_hits, 0); // …from a fresh rewriting
    assert!(!Arc::ptr_eq(&before.rewriting, &after.rewriting));
}

/// The `POST /query` body for `omq`.
fn query_body(omq: &bdi::core::omq::Omq) -> Vec<u8> {
    let iri = |term: &bdi::rdf::model::Term| term.as_iri().unwrap().as_str().to_owned();
    let pi: Vec<&str> = omq.pi.iter().map(|f| f.as_str()).collect();
    let phi: Vec<Vec<String>> = omq
        .phi
        .iter()
        .map(|t| {
            let predicate = t.predicate.as_str().to_owned();
            vec![iri(&t.subject.clone().into()), predicate, iri(&t.object)]
        })
        .collect();
    serde_json::json!({"omq": {"pi": pi, "phi": phi}})
        .to_string()
        .into_bytes()
}

/// No compiled plan depends on what a wrapper claims: the semi-join pass
/// asks at run time. So when the probe wrapper of a semi-join-shaped query
/// stops claiming filters, the next request is a plan-cache hit with the
/// same answer bytes, and only the run-time reduction of its probe scan
/// stops.
#[test]
fn a_capability_flip_keeps_the_rewriting_and_moves_the_pushdown() {
    use bdi::relational::plan::{ColumnFilter, ScanMark, ScanRequest};
    use bdi::relational::{Relation, Schema};
    use bdi::wrappers::wrapper::RowBatches;
    use bdi::wrappers::{TableWrapper, Wrapper, WrapperError};
    use bdi_server::{ops, ServerConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Claims filters only while `claiming`; records how many filters the
    /// last scan request carried.
    struct Flipping {
        inner: TableWrapper,
        claiming: AtomicBool,
        pushed: AtomicUsize,
    }

    impl Wrapper for Flipping {
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

        fn scan_batches<'a>(
            &'a self,
            request: &ScanRequest,
            batch_rows: usize,
        ) -> Result<(RowBatches<'a>, Option<ScanMark>), WrapperError> {
            self.pushed.store(request.filters().len(), Ordering::SeqCst);
            self.inner.scan_batches(request, batch_rows)
        }

        fn claims_filter(&self, _filter: &ColumnFilter) -> bool {
            self.claiming.load(Ordering::SeqCst)
        }

        fn scan_hint(&self, request: &ScanRequest) -> Option<u64> {
            self.inner.scan_hint(request)
        }
    }

    // One walk: c_1's 2-row wrapper builds, and its 2 keys reduce the
    // 64-row probe scan of c_2's flipping wrapper.
    let mut sys = synthetic::build_chain_system_with(2, 1, 0, 1, |_, _, _| rows(2, true));
    let flipping = Arc::new(Flipping {
        inner: TableWrapper::new(
            "w_flip",
            "D_flip",
            Schema::from_parts(&["id2"], &["f2"]).unwrap(),
            rows(64, false),
        )
        .unwrap(),
        claiming: AtomicBool::new(true),
        pushed: AtomicUsize::new(usize::MAX),
    });
    synthetic::register_extra_chain_wrapper_of(&mut sys, 2, flipping.clone());
    let body = query_body(&synthetic::chain_query(2));
    let serve = || {
        let (status, answer) = ops::query(&sys, &ServerConfig::default(), &body);
        assert_eq!(status, 200, "{answer}");
        answer
    };

    // While the wrapper claims, every request reduces the probe scan.
    let first = serve();
    assert_eq!(flipping.pushed.load(Ordering::SeqCst), 1, "reduced");
    assert_eq!(serve(), first);
    assert_eq!(sys.planner_stats().semijoin_insets, 2);
    let cache = sys.plan_cache_stats();
    let planner = sys.planner_stats();
    assert_eq!((cache.misses, cache.hits), (1, 1));

    // It stops claiming: the cached plan still serves, and the probe scan
    // runs unreduced.
    flipping.claiming.store(false, Ordering::SeqCst);
    for _ in 0..2 {
        assert_eq!(serve(), first);
    }
    assert_eq!(flipping.pushed.load(Ordering::SeqCst), 0, "unreduced");
    let after = sys.plan_cache_stats();
    assert_eq!(
        (after.misses, after.hits, after.rewrite_hits),
        (cache.misses, cache.hits + 2, cache.rewrite_hits),
        "the flip re-planned"
    );
    let replanned = sys.planner_stats();
    assert_eq!(
        (replanned.cost_based_plans, replanned.syntactic_plans),
        (planner.cost_based_plans, planner.syntactic_plans)
    );
    assert_eq!(replanned.semijoin_insets, planner.semijoin_insets);
}

/// The key contract, field by field: a request differing from the default
/// only in a run-time field shares the default's cache entry; one differing
/// in a plan-shaping field gets its own. (`cache_plans` is the one field
/// left out: it decides whether the cache is consulted at all.)
#[test]
fn execution_only_options_share_one_cache_entry() {
    let sys = system(1, 2);
    let serve = |options: &ExecOptions| {
        sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
            .unwrap()
    };
    let base = ExecOptions::default;
    serve(&base());
    let stats = sys.plan_cache_stats();
    assert_eq!((stats.entries, stats.misses, stats.hits), (1, 1, 0));

    let run_time = [
        (
            "reuse_scans",
            ExecOptions {
                reuse_scans: false,
                ..base()
            },
        ),
        (
            "semijoin_max_keys",
            ExecOptions {
                semijoin_max_keys: 0,
                ..base()
            },
        ),
        (
            "deadline",
            ExecOptions {
                deadline: Some(Duration::from_secs(60)),
                ..base()
            },
        ),
        (
            "on_source_failure",
            ExecOptions {
                on_source_failure: SourceFailurePolicy::Degrade,
                ..base()
            },
        ),
        (
            "max_rows",
            ExecOptions {
                max_rows: Some(3),
                ..base()
            },
        ),
    ];
    for (hits, (field, options)) in run_time.iter().enumerate() {
        serve(options);
        let stats = sys.plan_cache_stats();
        assert_eq!(
            (stats.entries, stats.misses, stats.hits),
            (1, 1, hits as u64 + 1),
            "{field} must not split the entry"
        );
    }

    let shaping = [
        (
            "engine",
            ExecOptions {
                engine: Engine::Eager,
                ..base()
            },
        ),
        (
            "cost_based_joins",
            ExecOptions {
                cost_based_joins: false,
                ..base()
            },
        ),
    ];
    let hits = run_time.len() as u64;
    for (extra, (field, options)) in shaping.iter().enumerate() {
        serve(options);
        let stats = sys.plan_cache_stats();
        assert_eq!(
            (stats.entries, stats.misses, stats.hits),
            (extra + 2, extra as u64 + 2, hits),
            "{field} must get its own entry"
        );
    }
}

/// A cached plan holds no run-time value of the request that compiled it:
/// compiled under an already-expired deadline, or under a zero row limit,
/// it still answers a later default request in full.
#[test]
fn a_cached_plan_carries_no_run_time_values() {
    let request =
        |options: ExecOptions| AnswerRequest::omq(synthetic::chain_query(1)).options(options);

    let sys = system(1, 2);
    let err = sys
        .serve(request(ExecOptions {
            deadline: Some(Duration::from_nanos(1)),
            ..ExecOptions::default()
        }))
        .unwrap_err();
    assert_eq!(
        err,
        SystemError::Exec(ExecError::Plan(PlanError::DeadlineExceeded))
    );
    assert_eq!(sys.plan_cache_stats().entries, 1);
    let full = sys.serve(request(ExecOptions::default())).unwrap();
    assert_eq!(sys.plan_cache_stats().hits, 1);
    assert!(!full.truncated);
    assert_eq!(full.relation.len(), 50);

    let sys = system(1, 2);
    let cut = sys
        .serve(request(ExecOptions {
            max_rows: Some(0),
            ..ExecOptions::default()
        }))
        .unwrap();
    assert!(cut.truncated && cut.relation.is_empty());
    let full = sys.serve(request(ExecOptions::default())).unwrap();
    assert_eq!(sys.plan_cache_stats().hits, 1);
    assert!(!full.truncated);
    assert_eq!(full.relation.len(), 50);
}

/// Filtered by the semi-join: each walk's small c_1 build side reduces its
/// probe scan, so cached plans and cached scans meet reduced requests.
#[test]
fn cached_and_uncached_answers_agree_on_filtered_queries() {
    let sys = synthetic::build_chain_system_with(2, 2, 0, usize::MAX, |i, _, schema| {
        rows(
            if i == 1 { 4 } else { 50 },
            schema.index_of("next_id").is_some(),
        )
    });
    let query = || AnswerRequest::omq(synthetic::chain_query(2));
    let eager = ExecOptions {
        engine: Engine::Eager,
        ..ExecOptions::default()
    };
    let reference = sys.serve(query().options(eager)).unwrap();
    assert_eq!(reference.relation.len(), 4);
    for reuse_scans in [false, true] {
        let options = ExecOptions {
            reuse_scans,
            ..ExecOptions::default()
        };
        // Twice: the second run executes the cached plan (and, with
        // reuse_scans, the cached interned build-side scans).
        for _ in 0..2 {
            let answer = sys.serve(query().options(options.clone())).unwrap();
            assert_eq!(answer.relation.rows(), reference.relation.rows());
        }
    }
    // reuse_scans is run-time: one streaming entry, hit by three runs.
    assert_eq!(sys.plan_cache_stats().hits, 3);
    // The reuse_scans runs count their reductions: one per walk per run.
    assert_eq!(sys.planner_stats().semijoin_insets, 8);
}

/// The `i`-th of arbitrarily many distinct `(OMQ, scope)` cache keys over
/// [`system`]`(2, 2)` (every scope admits all four wrappers).
fn distinct_request(i: usize) -> AnswerRequest {
    AnswerRequest::omq(synthetic::chain_query(1 + i % 2))
        .scope(VersionScope::UpToRelease(3 + i / 2))
}

/// The cache holds as many plans as it says: 64 distinct keys all stay
/// resident, so a second pass over them hits every time.
#[test]
fn a_64_entry_cache_holds_64_plans() {
    let sys = system(2, 2);
    for i in 0..64 {
        sys.serve(distinct_request(i)).unwrap();
    }
    let first = sys.plan_cache_stats();
    assert_eq!((first.entries, first.misses, first.hits), (64, 64, 0));
    for i in 0..64 {
        sys.serve(distinct_request(i)).unwrap();
    }
    let second = sys.plan_cache_stats();
    assert_eq!((second.entries, second.misses, second.hits), (64, 64, 64));
}

/// Eviction is least-recently-*hit*, not oldest-inserted: a hit on the
/// oldest entry saves it, and the 65th key pushes out the next-oldest.
#[test]
fn the_65th_key_evicts_the_least_recently_hit_entry() {
    let sys = system(2, 2);
    for i in 0..64 {
        sys.serve(distinct_request(i)).unwrap();
    }
    sys.serve(distinct_request(0)).unwrap(); // hit: key 0 is now the newest
    sys.serve(distinct_request(64)).unwrap(); // evicts key 1
    let full = sys.plan_cache_stats();
    assert_eq!((full.entries, full.misses, full.hits), (64, 65, 1));

    sys.serve(distinct_request(0)).unwrap();
    assert_eq!(sys.plan_cache_stats().hits, 2, "key 0 survived");
    sys.serve(distinct_request(1)).unwrap();
    let after = sys.plan_cache_stats();
    assert_eq!((after.entries, after.misses, after.hits), (64, 66, 2));
}
