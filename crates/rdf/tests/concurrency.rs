//! Concurrency tests for the quad store.
//!
//! The paper's MDM is a multi-user service: stewards register releases while
//! analysts query. The store is internally synchronized (one `RwLock` over
//! interner + indexes); these tests drive it from many threads and check
//! that no updates are lost and readers always observe consistent states.

use bdi_rdf::model::{GraphName, Iri, Quad, Term};
use bdi_rdf::store::{GraphPattern, QuadStore};
use std::sync::atomic::{AtomicBool, Ordering};

fn quad(writer: usize, i: usize) -> Quad {
    Quad::new(
        Iri::new(format!("http://c.example/s/{writer}/{i}")),
        Iri::new(format!("http://c.example/p/{}", i % 5)),
        Iri::new(format!("http://c.example/o/{}", i % 17)),
        GraphName::Named(Iri::new(format!("http://c.example/g/{writer}"))),
    )
}

#[test]
fn concurrent_writers_lose_nothing() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 500;
    let store = QuadStore::new();

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let store = &store;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    assert!(store.insert(&quad(writer, i)));
                }
            });
        }
    });

    assert_eq!(store.len(), WRITERS * PER_WRITER);
    for writer in 0..WRITERS {
        let g = GraphName::Named(Iri::new(format!("http://c.example/g/{writer}")));
        assert_eq!(store.graph_len(&g), PER_WRITER);
    }
}

#[test]
fn readers_see_consistent_snapshots_during_writes() {
    let store = QuadStore::new();
    // Pre-populate a stable region readers can assert on.
    for i in 0..200 {
        store.insert(&quad(99, i));
    }
    let stable_graph = GraphName::Named(Iri::new("http://c.example/g/99"));
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // One writer mutating a different graph.
        scope.spawn(|| {
            for i in 0..2_000 {
                store.insert(&quad(1, i));
            }
            done.store(true, Ordering::Release);
        });
        // Readers must always see the stable region intact and never a
        // torn state (graph_len is index-derived, so tearing would show).
        for _ in 0..4 {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    assert_eq!(store.graph_len(&stable_graph), 200);
                    let p = Iri::new("http://c.example/p/3");
                    let matches = store.match_quads(
                        None,
                        Some(&p),
                        None,
                        &GraphPattern::Named(Iri::new("http://c.example/g/99")),
                    );
                    assert_eq!(matches.len(), 40); // 200 / 5 predicates
                }
            });
        }
    });

    assert_eq!(store.len(), 2_200);
}

#[test]
fn concurrent_identical_inserts_are_idempotent() {
    // Many threads hammering the same quads: exactly one insert per quad
    // may report `true` overall... (the others must see it as duplicate) —
    // and the final count must be exact.
    const THREADS: usize = 8;
    const QUADS: usize = 100;
    let store = QuadStore::new();
    let fresh_counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut fresh = 0;
                    for i in 0..QUADS {
                        if store.insert(&quad(42, i)) {
                            fresh += 1;
                        }
                    }
                    fresh
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("joins"))
            .collect()
    });

    assert_eq!(store.len(), QUADS);
    assert_eq!(fresh_counts.iter().sum::<usize>(), QUADS);
}

#[test]
fn concurrent_removals_and_queries() {
    let store = QuadStore::new();
    for i in 0..1_000 {
        store.insert(&quad(7, i));
    }
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..500 {
                assert!(store.remove(&quad(7, i)));
            }
        });
        scope.spawn(|| {
            // Reads interleave with removals; every returned quad must be
            // structurally valid (decode panics would fail the test).
            for _ in 0..50 {
                let all = store.match_quads(None, None, None, &GraphPattern::Any);
                assert!(all.len() <= 1_000);
                for q in &all {
                    assert!(matches!(q.subject, bdi_rdf::Subject::Iri(_)));
                }
            }
        });
    });
    assert_eq!(store.len(), 500);
}

#[test]
fn term_lookup_is_stable_across_threads() {
    // The same term interned from different threads must behave identically
    // in matches.
    let store = QuadStore::new();
    let shared_object = Term::Iri(Iri::new("http://c.example/shared"));
    std::thread::scope(|scope| {
        for t in 0..6 {
            let store = &store;
            let shared = shared_object.clone();
            scope.spawn(move || {
                for i in 0..200 {
                    store.insert(&Quad::new(
                        Iri::new(format!("http://c.example/s/{t}/{i}")),
                        Iri::new("http://c.example/p/shared"),
                        shared.as_iri().expect("iri").clone(),
                        GraphName::Default,
                    ));
                }
            });
        }
    });
    let hits = store.match_quads(None, None, Some(&shared_object), &GraphPattern::Any);
    assert_eq!(hits.len(), 6 * 200);
}
