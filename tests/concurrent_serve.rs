//! Concurrency stress for the shared-read answer path: many threads
//! hammering [`BdiSystem::serve`] through one shared system must produce
//! exactly the rows serial execution produces, share compiled plans
//! (cache hits) and scans (one persistent context), and never poison or
//! panic a worker.

use bdi::core::exec::{ExecError, ExecOptions};
use bdi::core::system::{AnswerRequest, BdiSystem, SystemError, VersionScope};
use bdi::relational::{ColumnFilter, PlanError, Relation, ScanRequest, Schema, Value};
use bdi::wrappers::wrapper::RowBatches;
use bdi::wrappers::{TableWrapper, Wrapper, WrapperError};
use bdi_bench::synthetic;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
fn concurrent_serve_matches_serial_and_shares_plans() {
    let system = Arc::new(system(3, 2));
    // The workload: a mix of identical and distinct OMQs (different chain
    // lengths and scopes), each thread running every variant several times.
    let variants: Vec<AnswerRequest> = vec![
        AnswerRequest::omq(synthetic::chain_query(3)),
        AnswerRequest::omq(synthetic::chain_query(2)),
        AnswerRequest::omq(synthetic::chain_query(3)).scope(VersionScope::Latest),
        AnswerRequest::omq(synthetic::chain_query(1)).max_rows(10),
    ];
    // Serial reference, on a fresh identical system (its own plan cache).
    let reference: Vec<_> = {
        let serial = system.clone();
        variants
            .iter()
            .map(|request| serial.serve(request.clone()).expect("serial answers"))
            .collect()
    };

    const THREADS: usize = 8;
    const ROUNDS: usize = 5;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let system = system.clone();
            let variants = variants.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger which variant each thread starts with, so the
                    // same OMQ is hammered from many threads at once.
                    for v in 0..variants.len() {
                        let i = (t + round + v) % variants.len();
                        let answer = system
                            .serve(variants[i].clone())
                            .expect("concurrent serve answers");
                        // Return what we saw; the main thread compares.
                        assert!(!answer.relation.schema().is_empty());
                    }
                }
                // One final answer per variant for row comparison.
                variants
                    .iter()
                    .map(|request| system.serve(request.clone()).expect("final serve"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for worker in workers {
        let answers = worker.join().expect("no worker panicked");
        for (answer, expected) in answers.iter().zip(&reference) {
            assert_eq!(answer.relation.rows(), expected.relation.rows());
            assert_eq!(answer.truncated, expected.truncated);
        }
    }

    let stats = system.plan_cache_stats();
    assert!(
        stats.hits > 0,
        "concurrent callers should share compiled plans: {stats:?}"
    );
    // Every variant compiled at least once; nothing poisoned the stats
    // surfaces either.
    assert!(stats.misses >= variants.len() as u64);
    let _ = system.context_stats();
    let _ = system.planner_stats();
}

#[test]
fn concurrent_serve_under_row_limits_and_uncached_plans() {
    let system = Arc::new(system(2, 2));
    let full = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)))
        .expect("baseline");
    let total = full.relation.len();
    assert!(total > 1);

    const THREADS: usize = 6;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let system = system.clone();
            std::thread::spawn(move || {
                for limit in [1usize, total / 2 + 1, total + 7] {
                    let options = ExecOptions {
                        // Odd threads bypass the plan cache: uncached and
                        // cached compilation paths race side by side.
                        cache_plans: t % 2 == 0,
                        ..ExecOptions::default()
                    };
                    let answer = system
                        .serve(
                            AnswerRequest::omq(synthetic::chain_query(2))
                                .options(options)
                                .max_rows(limit),
                        )
                        .expect("limited serve");
                    assert_eq!(answer.relation.len(), total.min(limit));
                    assert_eq!(answer.truncated, limit < total);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("no worker panicked");
    }
}

#[test]
fn a_release_between_concurrent_batches_flushes_plans() {
    let mut sys = system(2, 2);
    let shared = |sys: &bdi::core::system::BdiSystem| {
        let stats_before = sys.plan_cache_stats();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    sys.serve(AnswerRequest::omq(synthetic::chain_query(2)))
                        .expect("answers");
                });
            }
        });
        sys.plan_cache_stats().misses - stats_before.misses
    };
    let first_misses = shared(&sys);
    assert!(first_misses >= 1);
    // A release between batches: plans flush, and the next batch
    // recompiles.
    synthetic::register_extra_chain_wrapper(&mut sys, 1, 3, rows(20, false));
    assert_eq!(sys.plan_cache_stats().entries, 0);
    let second_misses = shared(&sys);
    assert!(second_misses >= 1);
}

/// Readers over mixed cache keys while a writer appends to one wrapper, so
/// the stats epoch — the third member of the cache's validity stamp —
/// moves under them. The mutated wrapper sits in exactly one walk of every
/// variant, so each answer must equal the eager reference at *one* state
/// between the pushes acknowledged before the request and those started by
/// its end; the map never outgrows its cap and nothing poisons.
#[test]
fn readers_racing_a_stats_epoch_writer_answer_from_some_earlier_state() {
    use bdi::core::exec::Engine;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    const PUSHES: usize = 24;
    const READERS: usize = 8;
    let pushed = |k: usize| vec![Value::Int(100 + k as i64), Value::Float(1000.0 + k as f64)];
    let build = || {
        let mut sys = system(1, 3);
        let grown = synthetic::register_extra_chain_wrapper_handle(&mut sys, 1, 4, rows(5, false));
        (sys, grown)
    };
    let only = |names: &[&str]| {
        VersionScope::Only(
            names
                .iter()
                .map(|n| (*n).to_owned())
                .collect::<BTreeSet<_>>(),
        )
    };
    let variants: Vec<(VersionScope, ExecOptions)> = vec![
        (VersionScope::All, ExecOptions::default()),
        (VersionScope::Latest, ExecOptions::default()),
        (only(&["w_1_4"]), ExecOptions::default()),
        (only(&["w_1_2", "w_1_4"]), ExecOptions::default()),
        (
            VersionScope::All,
            ExecOptions {
                cost_based_joins: false,
                ..ExecOptions::default()
            },
        ),
        (VersionScope::UpToRelease(3), ExecOptions::default()),
    ];
    let request = |(scope, options): &(VersionScope, ExecOptions)| {
        AnswerRequest::omq(synthetic::chain_query(1))
            .scope(scope.clone())
            .options(options.clone())
    };

    // reference[k][v]: the eager answer to variant v after k pushes, from a
    // twin deployment driven serially.
    let reference: Vec<Vec<_>> = {
        let (twin, grown) = build();
        (0..=PUSHES)
            .map(|k| {
                if k > 0 {
                    grown.push(pushed(k - 1)).expect("twin push");
                }
                variants
                    .iter()
                    .map(|(scope, options)| {
                        let eager = ExecOptions {
                            engine: Engine::Eager,
                            cache_plans: false,
                            reuse_scans: false,
                            ..options.clone()
                        };
                        twin.serve(request(&(scope.clone(), eager)))
                            .expect("eager reference")
                            .relation
                    })
                    .collect()
            })
            .collect()
    };

    let (system, grown) = build();
    let (started, acked, reads) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for k in 0..PUSHES {
                // Each push waits for fresh reads since the last one, so
                // pushes land between (and under) requests, not before them.
                while reads.load(Ordering::SeqCst) < (k + 1) * READERS / 2 {
                    std::thread::yield_now();
                }
                started.store(k + 1, Ordering::SeqCst);
                grown.push(pushed(k)).expect("push");
                acked.store(k + 1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        });
        for t in 0..READERS {
            let (system, variants, reference) = (&system, &variants, &reference);
            let (started, acked, reads, done) = (&started, &acked, &reads, &done);
            scope.spawn(move || {
                let mut i = t;
                // Until the writer is through, then once more per variant
                // at the end state.
                let mut closing = 0;
                while closing < variants.len() {
                    if done.load(Ordering::SeqCst) {
                        closing += 1;
                    }
                    let v = i % variants.len();
                    i += 1;
                    let lo = acked.load(Ordering::SeqCst);
                    let answer = system.serve(request(&variants[v])).expect("racing serve");
                    let hi = started.load(Ordering::SeqCst);
                    reads.fetch_add(1, Ordering::SeqCst);
                    assert!(
                        (lo..=hi).any(|k| answer.relation.rows() == reference[k][v].rows()),
                        "variant {v}: {} rows match no state in {lo}..={hi}",
                        answer.relation.len()
                    );
                }
            });
        }
    });

    assert_eq!(acked.load(Ordering::SeqCst), PUSHES);
    let stats = system.plan_cache_stats();
    assert!(stats.entries <= 64 && stats.entries <= variants.len());
    assert!(stats.misses >= variants.len() as u64);
    let _ = system.context_stats();
    let _ = system.planner_stats();
}

/// A gate every scan of a [`Gated`] wrapper passes. It opens once `quorum`
/// scans have arrived, once `patience` has passed since a scan arrived, or
/// when the test opens it, and stays open.
struct Gate {
    state: Mutex<(usize, bool)>,
    opened: Condvar,
    quorum: usize,
    patience: Duration,
}

impl Gate {
    fn new(quorum: usize, patience: Duration) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new((0, false)),
            opened: Condvar::new(),
            quorum,
            patience,
        })
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        if state.0 >= self.quorum {
            state.1 = true;
        }
        let (mut state, _) = self
            .opened
            .wait_timeout_while(state, self.patience, |(_, open)| !*open)
            .unwrap();
        state.1 = true;
        self.opened.notify_all();
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.opened.notify_all();
    }

    fn arrived(&self) -> usize {
        self.state.lock().unwrap().0
    }
}

/// A table wrapper whose scans wait at a [`Gate`] first.
struct Gated {
    inner: TableWrapper,
    gate: Arc<Gate>,
}

impl Wrapper for Gated {
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
    ) -> Result<(RowBatches<'a>, Option<bdi::relational::ScanMark>), WrapperError> {
        self.gate.pass();
        self.inner.scan_batches(request, batch_rows)
    }
    fn data_version(&self) -> u64 {
        self.inner.data_version()
    }
    fn claims_filter(&self, filter: &ColumnFilter) -> bool {
        self.inner.claims_filter(filter)
    }
}

/// One concept served by `wrappers` gated table wrappers of 50 rows each:
/// `chain_query(1)` unions one single-scan walk per wrapper.
fn gated_system(wrappers: usize, gate: &Arc<Gate>) -> BdiSystem {
    let mut system = synthetic::build_chain_system_with(1, 0, 0, usize::MAX, |_, _, _| Vec::new());
    for j in 1..=wrappers {
        let schema = Schema::from_parts(&["id1".to_owned()], &["f1".to_owned()]).unwrap();
        let inner = TableWrapper::new(
            format!("w_1_{j}"),
            format!("D_1_{j}"),
            schema,
            rows(50, false),
        )
        .unwrap();
        let gated = Gated {
            inner,
            gate: gate.clone(),
        };
        synthetic::register_extra_chain_wrapper_of(&mut system, 1, Arc::new(gated));
    }
    system
}

/// Concurrent callers of one cold query share the system's context, so
/// each distinct scan is read from its wrapper once, however many callers
/// need it at the same time. The gate holds every scan until four have
/// arrived (or a while has passed), so callers that each read their own
/// copy would all be reading at once.
#[test]
fn concurrent_cold_queries_fill_each_scan_once() {
    const CALLERS: usize = 4;
    let gate = Gate::new(CALLERS, Duration::from_millis(300));
    let system = gated_system(2, &gate);
    let request = AnswerRequest::omq(synthetic::chain_query(1));
    let start = std::sync::Barrier::new(CALLERS);
    let answers: Vec<Relation> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    system.serve(request.clone()).expect("answers").relation
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for answer in &answers {
        assert_eq!(answer.rows(), answers[0].rows());
    }
    assert_eq!(answers[0].len(), 50);
    let stats = system.context_stats();
    assert_eq!((stats.full_scans, stats.cached_scans), (2, 2));
}

/// A query whose deadline expires during a fill another query waits on
/// fails alone: the waiter, which has no deadline, fills again and answers
/// in full.
#[test]
fn a_deadline_expiring_in_a_shared_fill_fails_only_its_own_query() {
    let gate = Gate::new(usize::MAX, Duration::from_secs(30));
    let system = gated_system(1, &gate);
    let request = AnswerRequest::omq(synthetic::chain_query(1));
    let budget = Duration::from_millis(100);
    std::thread::scope(|scope| {
        let armed = Instant::now();
        let hasty = scope.spawn(|| system.serve(request.clone().deadline(budget)));
        // The hasty query is filling the scan, held at the gate.
        while gate.arrived() == 0 {
            std::thread::yield_now();
        }
        let patient = scope.spawn(|| system.serve(request.clone()));
        // Open the gate only once the hasty query's deadline has passed, so
        // its fill fails on it.
        std::thread::sleep((budget + Duration::from_millis(100)).saturating_sub(armed.elapsed()));
        gate.open();
        assert!(matches!(
            hasty.join().unwrap(),
            Err(SystemError::Exec(ExecError::Plan(
                PlanError::DeadlineExceeded
            )))
        ));
        let answer = patient.join().unwrap().expect("no deadline, full answer");
        assert_eq!(answer.relation.len(), 50);
    });
}
