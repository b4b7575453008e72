//! Durable-tier benchmarks (PR 10): what the WAL + snapshot cycle costs.
//!
//! * **Cold-start recovery** — `BdiSystem::open` over a data directory
//!   holding 100k quads + 50k documents (scaled under fast mode), seeded
//!   two ways:
//!   - *replay-heavy*: the bulk load lives entirely in the WAL (only the
//!     tiny seed deployment was ever snapshotted), so recovery decodes and
//!     re-applies every batch;
//!   - *snapshot+replay*: a checkpoint after the load folds the WAL into
//!     the image, leaving a 1% tail of single-op records to replay.
//!
//!   The ratio is the case for checkpointing: how much boot time a
//!   `POST /checkpoint` before shutdown buys.
//! * **Checkpoint cost** — one `checkpoint()` call at the loaded size (the
//!   price paid to earn that boot speedup).
//! * **WAL write overhead** — single-op journaled writes through
//!   `BdiSystem::apply` (`Write::InsertQuad`, `Write::InsertDoc`: one
//!   append + fsync each) against the volatile stores' raw inserts, plus
//!   the batched `Write::ExtendQuads` that amortises the fsync over 1000
//!   quads.
//!
//! Run with `cargo bench -p bdi_bench --bench durability`. Results are
//! printed and written to `BENCH_durability.json` at the workspace root
//! unless `BDI_BENCH_FAST` is set (smoke timings are meaningless).

use bdi_bench::{measure, Measurement};
use bdi_core::durable::Write;
use bdi_core::supersede;
use bdi_core::system::BdiSystem;
use bdi_docstore::DocStore;
use bdi_rdf::model::{GraphName, Iri, Literal, Quad};
use bdi_rdf::store::QuadStore;
use serde_json::json;
use std::path::{Path, PathBuf};

/// Named graph the bulk quads land in (never the ontology's own graphs).
const GRAPH: &str = "http://example.org/bench/graph";
/// Collection the bulk documents land in.
const DOCS: &str = "bench/metrics";
/// Quads per `extend_quads` record during the bulk load: one fsync per
/// batch, and the unit the batched-write overhead is reported against.
const BATCH: usize = 1_000;

fn graph() -> GraphName {
    GraphName::Named(Iri::new(GRAPH))
}

fn quad(n: usize) -> Quad {
    Quad::new(
        Iri::new(format!("http://example.org/bench/s{n}")),
        Iri::new("http://example.org/bench/lagRatio"),
        Literal::integer(n as i64),
        graph(),
    )
}

fn doc(n: usize) -> serde_json::Value {
    json!({
        "monitorId": ((n % 64) as i64),
        "timestamp": (1_480_000_000_i64 + n as i64),
        "waitTime": ((n % 500) as i64),
        "watchTime": 10,
    })
}

/// A per-process scratch directory under the system temp dir.
fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bdi-bench-durability-{}-{tag}", std::process::id()))
}

/// Seeds `dir` with the running example plus `quads` + `docs` bulk rows.
/// With `tail = None` everything after the seed snapshot stays in the WAL;
/// with `tail = Some(t)` the load is checkpointed and `t` single-quad ops
/// are appended on top. Returns the loaded handle.
fn seed_dir(dir: &Path, quads: usize, docs: usize, tail: Option<usize>) -> BdiSystem {
    let _ = std::fs::remove_dir_all(dir);
    let durable =
        BdiSystem::create(dir, supersede::build_running_example()).expect("create bench data dir");
    let mut n = 0;
    while n < quads {
        let hi = (n + BATCH).min(quads);
        let batch: Vec<Quad> = (n..hi).map(quad).collect();
        durable
            .apply(Write::ExtendQuads(batch))
            .expect("bulk quad load");
        n = hi;
    }
    let mut n = 0;
    while n < docs {
        let hi = (n + BATCH).min(docs);
        let batch: Vec<serde_json::Value> = (n..hi).map(doc).collect();
        durable
            .apply(Write::InsertDocs(DOCS.into(), batch))
            .expect("bulk doc load");
        n = hi;
    }
    if let Some(tail) = tail {
        durable.checkpoint().expect("checkpoint after bulk load");
        for t in 0..tail {
            durable
                .apply(Write::InsertQuad(quad(quads + t)))
                .expect("tail op");
        }
    }
    durable
}

fn main() {
    let quads = bdi_bench::scaled(100_000, 1_000);
    let docs = bdi_bench::scaled(50_000, 1_000);
    let tail = bdi_bench::scaled(1_000, 100);
    let mut records: Vec<Measurement> = Vec::new();

    // ---- Cold-start recovery: replay-heavy vs snapshot + short tail.
    let replay_dir = tmp_dir("replay");
    let snap_dir = tmp_dir("snapshot");
    drop(seed_dir(&replay_dir, quads, docs, None));
    drop(seed_dir(&snap_dir, quads, docs, Some(tail)));

    let probe = BdiSystem::open(&replay_dir).expect("open replay-heavy dir");
    let replayed = probe.recovery().expect("journaled").replayed;
    drop(probe);
    let probe = BdiSystem::open(&snap_dir).expect("open snapshot dir");
    let snap_tail = probe.recovery().expect("journaled").replayed;
    assert!(
        probe.recovery().expect("journaled").snapshot_loaded,
        "checkpointed dir loads its image"
    );
    drop(probe);
    println!(
        "cold start: {quads} quads + {docs} docs; replay-heavy dir replays {replayed} \
         records, checkpointed dir replays {snap_tail}"
    );

    let replay_ns = measure(
        format!("cold_start/replay_heavy/{quads}q+{docs}d"),
        &mut records,
        || BdiSystem::open(&replay_dir).expect("recover from WAL"),
    );
    let snapshot_ns = measure(
        format!("cold_start/snapshot+{tail}_tail/{quads}q+{docs}d"),
        &mut records,
        || BdiSystem::open(&snap_dir).expect("recover from snapshot"),
    );
    let cold_start_speedup = replay_ns / snapshot_ns;

    // ---- Checkpoint cost at the loaded size (re-snapshots the same
    // state each iteration; the image is rewritten whole every time).
    let loaded = BdiSystem::open(&snap_dir).expect("open for checkpoint bench");
    let checkpoint_ns = measure(format!("checkpoint/{quads}q+{docs}d"), &mut records, || {
        loaded.checkpoint().expect("checkpoint loaded state")
    });
    drop(loaded);

    // ---- WAL write overhead: durable single ops (append + fsync each)
    // vs the volatile stores' raw inserts. Counters keep every written
    // quad/doc fresh so the store-side work matches the volatile baseline.
    let wal_dir = tmp_dir("writes");
    let durable = seed_dir(&wal_dir, 0, 0, None);
    let mut n = 0;
    let wal_quad_ns = measure("write/insert_quad/wal", &mut records, || {
        n += 1;
        durable
            .apply(Write::InsertQuad(quad(n)))
            .expect("durable quad write")
    });
    let mut n = 0;
    let wal_doc_ns = measure("write/insert_doc/wal", &mut records, || {
        n += 1;
        durable
            .apply(Write::InsertDoc(DOCS.into(), doc(n)))
            .expect("durable doc write")
    });
    let mut n = 0;
    let wal_batch_ns = measure(
        format!("write/extend_quads_{BATCH}/wal"),
        &mut records,
        || {
            let batch: Vec<Quad> = (n..n + BATCH).map(quad).collect();
            n += BATCH;
            durable
                .apply(Write::ExtendQuads(batch))
                .expect("durable batch write")
        },
    ) / BATCH as f64;
    drop(durable);

    let volatile_quads = QuadStore::new();
    let mut n = 0;
    let raw_quad_ns = measure("write/insert_quad/volatile", &mut records, || {
        n += 1;
        volatile_quads.insert(&quad(n))
    });
    let volatile_docs = DocStore::new();
    let mut n = 0;
    let raw_doc_ns = measure("write/insert_doc/volatile", &mut records, || {
        n += 1;
        volatile_docs
            .insert(DOCS, doc(n))
            .expect("volatile doc write")
    });

    let quad_overhead = wal_quad_ns / raw_quad_ns;
    let doc_overhead = wal_doc_ns / raw_doc_ns;
    let batch_overhead = wal_batch_ns / raw_quad_ns;
    println!("speedup: cold start (replay-heavy / snapshot+tail)   = {cold_start_speedup:.2}x");
    println!("overhead: insert_quad WAL+fsync (vs volatile)        = {quad_overhead:.2}x");
    println!("overhead: insert_doc WAL+fsync (vs volatile)         = {doc_overhead:.2}x");
    println!("overhead: extend_quads x{BATCH} per quad (vs volatile) = {batch_overhead:.2}x");

    for dir in [&replay_dir, &snap_dir, &wal_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    bdi_bench::write_results(
        "durability",
        "cold-start recovery + checkpoint at 100k quads / 50k docs, WAL write overhead vs volatile stores",
        &records,
        "ratios",
        &[
            ("cold_start_replay_over_snapshot", cold_start_speedup),
            ("checkpoint_ms", checkpoint_ns / 1e6),
            ("wal_quad_overhead", quad_overhead),
            ("wal_doc_overhead", doc_overhead),
            ("wal_batched_quad_overhead", batch_overhead),
        ],
    );
}
