//! Concurrency stress for the shared-read answer path: many threads
//! hammering [`BdiSystem::serve`] through one shared system must produce
//! exactly the rows serial execution produces, share compiled plans
//! (cache hits), and never poison or panic a worker.

use bdi::core::exec::ExecOptions;
use bdi::core::system::{AnswerRequest, VersionScope};
use bdi::relational::Value;
use bdi_bench::synthetic;
use std::sync::Arc;

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
fn pool_retires_contexts_after_release_between_concurrent_batches() {
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
    // A release between batches: plans flush, pooled contexts retire, and
    // the next batch recompiles exactly once more.
    synthetic::register_extra_chain_wrapper(&mut sys, 1, 3, rows(20, false));
    assert_eq!(sys.plan_cache_stats().entries, 0);
    let second_misses = shared(&sys);
    assert!(second_misses >= 1);
}

/// Readers over mixed cache keys while a writer appends to one wrapper, so
/// the stats epoch — the fourth member of the cache's validity stamp —
/// moves under them. The mutated wrapper sits in exactly one walk of every
/// variant, so each answer must equal the eager reference at *one* state
/// between the pushes acknowledged before the request and those started by
/// its end; the map never outgrows its cap and nothing poisons.
#[test]
fn readers_racing_a_stats_epoch_writer_answer_from_some_earlier_state() {
    use bdi::core::exec::{Engine, FeatureFilter};
    use bdi::relational::Predicate;
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
        (
            VersionScope::UpToRelease(3),
            ExecOptions {
                filters: vec![FeatureFilter::new(
                    synthetic::chain_data_feature(1),
                    Predicate::between(2.0, 1010.0),
                )],
                ..ExecOptions::default()
            },
        ),
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
