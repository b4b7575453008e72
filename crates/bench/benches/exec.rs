//! Walk-execution micro-benchmarks (PR 2 tentpole): the streaming,
//! pushdown-aware plan engine vs. the eager §2.2 reference, measured
//! in-tree so the speedup is reproducible:
//!
//! * **Union workload** — one concept, `W ∈ {1, 4, 16}` disjoint wrappers of
//!   10k rows × 10 columns each (8 of them noise no query requests), i.e.
//!   `W` single-wrapper walks unioned. Engines: eager vs streaming (pushed
//!   projections, walks on `min(nproc, W)` threads).
//! * **Join workload** — two concepts × 4 wrappers × 10k rows → 16 two-way
//!   hash-join walks sharing scans and build sides through the execution
//!   context's caches.
//! * **Single-walk workload** — ONE walk joining 4 wrappers (the common
//!   analyst query): eager vs streaming, the walk's operator tree pulled
//!   on one thread through the batch-scan contract.
//! * **Semi-join workload** — a selective join (100-key build × 100k-row
//!   probe): semi-join sideways passing on vs off, i.e. whether the build
//!   keys reach the probe wrapper as an IN-set before its scan is issued.
//! * **Bloom semi-join workload** — the selective join at 50k build keys
//!   (over the IN-set budget): the pass degrading to a sideways bloom
//!   filter vs no pass at all (`semijoin_max_keys: 0`).
//! * **Cardinality-ordering workload** — a 3-join chain in the worst
//!   syntactic order (20k × 20k × 20k × 2 rows, the first join fanning
//!   out 8×): cost-based join ordering from the wrappers' sketches vs
//!   syntactic order, plus the same plan priced against sketches wrong by
//!   100× in both directions (estimates steer choice only, so
//!   misestimates must stay cheap — and rows never move).
//! * **Cursor workload** — a scan of a source 10× the context's value-cap
//!   watermark: cached (an uncapped context) vs cursor-only (a capped
//!   one), comparing both time and the batch-granular resident peak.
//! * **Paged-remote workload** — a hash join whose both sides are
//!   [`bdi_wrappers::RemoteWrapper`]s over 50 ms/page simulated endpoints,
//!   pulled on one thread (one scan's pages after the other's), and the
//!   retry overhead of the same join at a 10% injected transient-fault
//!   rate vs fault-free.
//! * **Append-requery workload** — the SUPERSEDE running example over two
//!   10k-document VoD collections: one document inserted into the v2
//!   collection, then the exemplary query, on a fresh context per query
//!   (every scan re-read in full) vs the pooled persistent context (the
//!   grown collection's cached scan upgraded by the one document).
//! * **Sketch-maintenance workload** — one insert, then the v2 wrapper's
//!   `column_stats`: a wrapper with no sketch history (a full aggregate)
//!   vs the long-lived wrapper folding in the one appended document.
//! * **Contended-callers workload** — 4 threads answering the same cached
//!   plan through `BdiSystem::serve` at once, vs the same calls each made
//!   under one global mutex held across the *whole* `serve` — what sharing
//!   the cache and pooling contexts buys over serializing callers, not a
//!   measurement of how the cache itself is locked.
//!
//! Run with `cargo bench -p bdi_bench --bench exec`. Results are printed and
//! written to `BENCH_exec.json` at the workspace root so future PRs can
//! track the trajectory.

use bdi_bench::synthetic;
use bdi_bench::{compile_and_execute, measure, Measurement};
use bdi_core::exec::{Engine, ExecOptions};
use bdi_core::system::{AnswerRequest, BdiSystem};
use bdi_relational::plan::{execute_plan, ExecPolicy};
use bdi_relational::{Attribute, ExecContext, PhysicalPlan, Relation, ScanRequest, Schema, Value};
use bdi_wrappers::{
    FaultProfile, RemoteWrapper, RetryPolicy, SimulatedEndpoint, TableWrapper, Wrapper,
    WrapperRegistry,
};
use serde_json::json;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// 10k rows per wrapper in a full run; a few hundred under fast mode.
fn rows() -> usize {
    bdi_bench::scaled(10_000, 50)
}
const NOISE: usize = 8;

/// A chain system of 10k-row wrappers with `NOISE` wide columns no query
/// requests (so projection pushdown has work to skip).
///
/// With `distinct: false` the metric column repeats within a bounded domain
/// (like the paper's monitoring ratios — 4096 distinct values), the
/// representative case. With `distinct: true` every one of the `W × 10k`
/// values is unique — the adversarial worst case for interning and dedup,
/// reported separately.
fn workload(concepts: usize, wrappers: usize, distinct: bool) -> BdiSystem {
    synthetic::build_chain_system_with(concepts, wrappers, NOISE, usize::MAX, |i, j, schema| {
        let last = schema.index_of("next_id").is_none();
        (0..rows())
            .map(|r| {
                let mut row = vec![Value::Int(r as i64)];
                if !last {
                    row.push(Value::Int(r as i64));
                }
                row.push(if distinct {
                    Value::Float((i * 100 + j) as f64 * rows() as f64 + r as f64)
                } else {
                    Value::Float((((i * 31 + j) * 7919 + r) % 4096) as f64 / 16.0)
                });
                row.extend((0..NOISE).map(|k| Value::Int((r * NOISE + k) as i64)));
                row
            })
            .collect()
    })
}

fn options(engine: Engine) -> ExecOptions {
    ExecOptions {
        engine,
        // Measure raw engine work, not cache hits: the plan cache gets its
        // own benchmark (benches/pushdown.rs), and scan reuse — the
        // production default — is exercised here only by the
        // BDI_BENCH_REUSE_SCANS=1 smoke run so timed iterations keep
        // re-scanning.
        cache_plans: false,
        reuse_scans: bdi_bench::reuse_scans_mode(),
        ..ExecOptions::default()
    }
}

fn answer_len(system: &BdiSystem, concepts: usize, opts: &ExecOptions) -> usize {
    system
        .serve(AnswerRequest::omq(synthetic::chain_query(concepts)).options(opts.clone()))
        .expect("benchmark query answers")
        .relation
        .len()
}

fn main() {
    let mut records: Vec<Measurement> = Vec::new();
    let eager = options(Engine::Eager);
    let stream_full = options(Engine::Streaming);

    // ---- Union workload: 1 concept × W wrappers × 10k rows.
    let mut speedup_16 = 0.0;
    for wrappers in [1usize, 4, 16] {
        let system = workload(1, wrappers, false);

        // Sanity: all engines agree before we time anything.
        let expected = answer_len(&system, 1, &eager);
        assert_eq!(answer_len(&system, 1, &stream_full), expected);

        let eager_ns = measure(
            format!("exec/union_w{wrappers}_10k/eager"),
            &mut records,
            || answer_len(&system, 1, &eager),
        );
        let full_ns = measure(
            format!("exec/union_w{wrappers}_10k/stream_pushdown_parallel"),
            &mut records,
            || answer_len(&system, 1, &stream_full),
        );
        if wrappers == 16 {
            speedup_16 = eager_ns / full_ns;
        }
    }

    // ---- Worst case: every value distinct (interning/dedup never share).
    let distinct_system = workload(1, 16, true);
    let expected = answer_len(&distinct_system, 1, &eager);
    assert_eq!(answer_len(&distinct_system, 1, &stream_full), expected);
    let distinct_eager_ns = measure(
        "exec/union_w16_10k_distinct/eager".to_owned(),
        &mut records,
        || answer_len(&distinct_system, 1, &eager),
    );
    let distinct_stream_ns = measure(
        "exec/union_w16_10k_distinct/stream_pushdown_parallel".to_owned(),
        &mut records,
        || answer_len(&distinct_system, 1, &stream_full),
    );
    let distinct_speedup = distinct_eager_ns / distinct_stream_ns;

    // ---- Join workload: 2 concepts × 4 wrappers × 10k rows → 16 join walks.
    let join_system = workload(2, 4, false);
    let expected = answer_len(&join_system, 2, &eager);
    assert_eq!(answer_len(&join_system, 2, &stream_full), expected);
    let join_eager_ns = measure("exec/join_c2_w4_10k/eager".to_owned(), &mut records, || {
        answer_len(&join_system, 2, &eager)
    });
    let join_stream_ns = measure(
        "exec/join_c2_w4_10k/stream_pushdown_parallel".to_owned(),
        &mut records,
        || answer_len(&join_system, 2, &stream_full),
    );
    let join_speedup = join_eager_ns / join_stream_ns;

    // ---- Single-walk workload: ONE walk joining 4 wrappers (1 per
    // concept) — the common analyst query. Its operator tree is pulled on
    // one thread, each scan issued when the join pipeline first pulls it.
    let single_walk_system = workload(4, 1, false);
    let expected = answer_len(&single_walk_system, 4, &eager);
    assert_eq!(answer_len(&single_walk_system, 4, &stream_full), expected);
    let single_walk_eager_ns = measure(
        "exec/single_walk_c4_10k/eager".to_owned(),
        &mut records,
        || answer_len(&single_walk_system, 4, &eager),
    );
    let single_walk_ns = measure(
        "exec/single_walk_c4_10k/stream".to_owned(),
        &mut records,
        || answer_len(&single_walk_system, 4, &stream_full),
    );
    let single_walk_speedup = single_walk_eager_ns / single_walk_ns;

    // ---- Semi-join workload: selective join — a 100-key build side whose
    // distinct keys reduce a 100k-row probe scan to the ~100 rows that
    // actually join. On vs off isolates sideways information passing; the
    // probe wrapper (TableWrapper) claims the IN-set and evaluates it
    // in-scan by binary search.
    let build_rows = bdi_bench::scaled(100, 10);
    let probe_rows = bdi_bench::scaled(100_000, 500);
    let stride = (probe_rows / build_rows).max(1);
    let semijoin_system = synthetic::build_chain_system_with(2, 1, 0, usize::MAX, |i, _, _| {
        if i == 1 {
            (0..build_rows)
                .map(|r| {
                    vec![
                        Value::Int(r as i64),
                        Value::Int((r * stride) as i64),
                        Value::Float(r as f64),
                    ]
                })
                .collect()
        } else {
            (0..probe_rows)
                .map(|r| vec![Value::Int(r as i64), Value::Float((r % 4096) as f64 / 16.0)])
                .collect()
        }
    });
    let semijoin_on = stream_full.clone();
    let semijoin_off = ExecOptions {
        semijoin_max_keys: 0,
        ..stream_full.clone()
    };
    let expected = answer_len(&semijoin_system, 2, &eager);
    assert_eq!(expected, build_rows); // each build key hits exactly one probe row
    assert_eq!(answer_len(&semijoin_system, 2, &semijoin_on), expected);
    assert_eq!(answer_len(&semijoin_system, 2, &semijoin_off), expected);
    let semijoin_off_ns = measure(
        "exec/semijoin_b100_p100k/off".to_owned(),
        &mut records,
        || answer_len(&semijoin_system, 2, &semijoin_off),
    );
    let semijoin_on_ns = measure(
        "exec/semijoin_b100_p100k/on".to_owned(),
        &mut records,
        || answer_len(&semijoin_system, 2, &semijoin_on),
    );
    let semijoin_speedup = semijoin_off_ns / semijoin_on_ns;

    // ---- Bloom semi-join workload: the same selective-join shape, but the
    // build side carries 50k distinct keys — far past the 16k IN-set budget.
    // The pass degrades to shipping a bloom filter sideways, so the
    // 500k-row probe still gets reduced at the source. Fast mode shrinks the data, so it
    // forces a tiny key budget to keep exercising the bloom branch.
    let bloom_build = bdi_bench::scaled(50_000, 500);
    let bloom_probe = bdi_bench::scaled(500_000, 500);
    let bloom_stride = (bloom_probe / bloom_build).max(1);
    let bloom_system = synthetic::build_chain_system_with(2, 1, 0, usize::MAX, |i, _, _| {
        if i == 1 {
            (0..bloom_build)
                .map(|r| {
                    vec![
                        Value::Int(r as i64),
                        Value::Int((r * bloom_stride) as i64),
                        Value::Float(r as f64),
                    ]
                })
                .collect()
        } else {
            (0..bloom_probe)
                .map(|r| vec![Value::Int(r as i64), Value::Float((r % 4096) as f64 / 16.0)])
                .collect()
        }
    });
    // Full runs keep the production 16k budget (50k keys blow it); the
    // shrunk fast workload forces a tiny budget so the bloom branch still
    // runs in bench-smoke.
    let bloom_budget = bdi_bench::scaled(bdi_relational::plan::DEFAULT_SEMIJOIN_MAX_KEYS, 2048);
    let bloom_on = ExecOptions {
        semijoin_max_keys: bloom_budget,
        ..stream_full.clone()
    };
    // No sideways pass at all: the probe ships every row.
    let bloom_off = ExecOptions {
        semijoin_max_keys: 0,
        ..stream_full.clone()
    };
    let expected = answer_len(&bloom_system, 2, &eager);
    assert_eq!(expected, bloom_build); // each build key hits exactly one probe row
    assert_eq!(answer_len(&bloom_system, 2, &bloom_on), expected);
    assert_eq!(answer_len(&bloom_system, 2, &bloom_off), expected);
    let bloom_off_ns = measure(
        "exec/bloom_semijoin_b50k_p500k/pass_disabled".to_owned(),
        &mut records,
        || answer_len(&bloom_system, 2, &bloom_off),
    );
    let bloom_on_ns = measure(
        "exec/bloom_semijoin_b50k_p500k/bloom".to_owned(),
        &mut records,
        || answer_len(&bloom_system, 2, &bloom_on),
    );
    let bloom_speedup = bloom_off_ns / bloom_on_ns;

    // ---- Cardinality-ordering workload: a 3-join chain written in the
    // WORST syntactic order. The first join's keys are 8x-duplicated on
    // both sides, so the syntactic plan's intermediates fan out to 8x the
    // inputs (160k rows) and drag through a second 20k-row join before the
    // 2-row tail concept kills almost everything. Cost-based ordering
    // seeds from the (c3, c4) pair the sketches price at 2 rows and keeps
    // every intermediate single-digit. Semi-joins are off so the
    // measurement isolates join order.
    let order_rows = bdi_bench::scaled(20_000, 100);
    let order_dup = 8;
    let order_keys = (order_rows / order_dup).max(1);
    let order_system = synthetic::build_chain_system_with(4, 1, 0, usize::MAX, |i, _, schema| {
        let last = schema.index_of("next_id").is_none();
        let rows = if i == 4 { 2 } else { order_rows };
        (0..rows)
            .map(|r| {
                // c1.next_id and c2.id2 share a duplicated key space; every
                // other column stays distinct.
                let dup_key = (r % order_keys) as i64;
                let mut row = vec![Value::Int(if i == 2 { dup_key } else { r as i64 })];
                if !last {
                    row.push(Value::Int(if i == 1 { dup_key } else { r as i64 }));
                }
                row.push(Value::Float(r as f64));
                row
            })
            .collect()
    });
    let order_answer = |cost_based: bool| {
        let opts = ExecOptions {
            semijoin_max_keys: 0,
            cost_based_joins: cost_based,
            ..stream_full.clone()
        };
        order_system
            .serve(AnswerRequest::omq(synthetic::chain_query(4)).options(opts.clone()))
            .expect("ordering query answers")
            .relation
            .len()
    };
    let expected = order_system
        .serve(AnswerRequest::omq(synthetic::chain_query(4)).options(eager.clone()))
        .expect("ordering query answers")
        .relation
        .len();
    // Keys {0, 1} survive the 2-row tail, each matching `order_dup` c1 rows.
    let survivors = (0..order_rows).filter(|r| r % order_keys <= 1).count();
    assert_eq!(expected, survivors);
    assert_eq!(survivors, 2 * order_dup);
    assert_eq!(order_answer(true), expected);
    assert_eq!(order_answer(false), expected);
    let order_syntactic_ns = measure(
        "exec/join_order_c4_worst/syntactic".to_owned(),
        &mut records,
        || order_answer(false),
    );
    let order_cost_ns = measure(
        "exec/join_order_c4_worst/cost_based".to_owned(),
        &mut records,
        || order_answer(true),
    );
    let order_speedup = order_syntactic_ns / order_cost_ns;

    // ---- Misestimation workload: the same worst-order chain planned
    // against sketches that are wrong by up to four orders of magnitude
    // relative (the big concepts inflated 100×, the small ones deflated
    // 100×). Estimates steer *choice only* — every candidate plan is
    // correct — so even adversarial misestimates must cost little next to
    // well-estimated planning (and nothing in rows).
    struct MisestimatedStats<'a>(&'a bdi_wrappers::WrapperRegistry);

    impl bdi_relational::PlanSource for MisestimatedStats<'_> {
        // The comparison must isolate the sketch distortion: scans and
        // resumes are the registry's own.
        fn scan_batches<'b>(
            &'b self,
            source: &str,
            request: &ScanRequest,
            batch_rows: usize,
        ) -> Result<
            (
                bdi_relational::BatchIter<'b>,
                Option<bdi_relational::ScanMark>,
            ),
            bdi_relational::RelationError,
        > {
            self.0.scan_batches(source, request, batch_rows)
        }

        fn resume_batches<'b>(
            &'b self,
            source: &str,
            request: &ScanRequest,
            batch_rows: usize,
            mark: &bdi_relational::ScanMark,
        ) -> Result<
            Option<(bdi_relational::BatchIter<'b>, bdi_relational::ScanMark)>,
            bdi_relational::RelationError,
        > {
            self.0.resume_batches(source, request, batch_rows, mark)
        }

        fn data_version(&self, name: &str) -> u64 {
            self.0.data_version(name)
        }

        fn claims(&self, source: &str, filter: &bdi_relational::plan::ColumnFilter) -> bool {
            bdi_relational::PlanSource::claims(self.0, source, filter)
        }

        fn scan_hint(&self, name: &str, request: &ScanRequest) -> Option<u64> {
            bdi_relational::PlanSource::scan_hint(self.0, name, request)
        }

        fn stats(&self, name: &str) -> Option<Arc<bdi_relational::TableStats>> {
            // w_1/w_2 (20k rows) inflate 100×; w_3/w_4 deflate 100×.
            let factor = if name.starts_with("w_1") || name.starts_with("w_2") {
                100.0
            } else {
                0.01
            };
            self.0.stats(name).map(|s| Arc::new(s.scaled(factor)))
        }
    }

    impl bdi_relational::SourceResolver for MisestimatedStats<'_> {
        fn resolve(&self, name: &str) -> Result<Relation, bdi_relational::RelationError> {
            bdi_relational::SourceResolver::resolve(self.0, name)
        }
    }

    let order_rewriting = order_system
        .rewrite(synthetic::chain_query(4))
        .expect("ordering query rewrites");
    let order_opts = ExecOptions {
        semijoin_max_keys: 0,
        ..stream_full.clone()
    };
    let misestimated = MisestimatedStats(order_system.registry());
    // Uncapped contexts: under a value cap the inflated sketches would
    // (correctly) push the big scans cursor-only, and the comparison would
    // stop being about join ordering alone.
    let ontology = order_system.ontology();
    let estimated_run = || {
        compile_and_execute(
            ontology,
            order_system.registry(),
            &order_rewriting,
            &order_opts,
        )
        .expect("well-estimated run answers")
        .relation
        .len()
    };
    let misestimated_run = || {
        compile_and_execute(ontology, &misestimated, &order_rewriting, &order_opts)
            .expect("misestimated run answers")
            .relation
            .len()
    };
    assert_eq!(estimated_run(), expected);
    assert_eq!(misestimated_run(), expected); // wrong sketches never change rows
    let estimated_ns = measure(
        "exec/join_order_c4_worst/stats_exact".to_owned(),
        &mut records,
        estimated_run,
    );
    let misestimated_ns = measure(
        "exec/join_order_c4_worst/stats_wrong_100x".to_owned(),
        &mut records,
        misestimated_run,
    );
    let misestimate_overhead = misestimated_ns / estimated_ns;

    // ---- Cursor workload: one scan of a source 10× the value-cap
    // watermark, cached vs cursor-only. Identical rows; the cursor run's
    // batch-granular resident peak must undercut the cached run's (whose
    // peak includes the full interned table).
    // Even the fast-mode source must span several interning batches, or the
    // cursor's single in-flight batch IS the whole table and the peaks tie.
    let cap = bdi_bench::scaled(50_000, 100);
    let source_rows = cap * 10;
    // Pin the interning batch size explicitly: eight in-flight batches
    // keep the cursor peak meaningful at every scale.
    let scan_batch = (source_rows / 8).max(1);
    let big_schema = Schema::from_parts(&["id"], &["x"]).unwrap();
    let mut registry = WrapperRegistry::new();
    registry.register(Arc::new(
        TableWrapper::new(
            "big",
            "DBIG",
            big_schema.clone(),
            (0..source_rows)
                .map(|r| {
                    vec![
                        Value::Int((r % cap) as i64),
                        Value::Int(((r * 7) % cap) as i64),
                    ]
                })
                .collect(),
        )
        .unwrap(),
    ));
    let big_plan = PhysicalPlan::scan("big", ScanRequest::full(&big_schema));
    // An uncapped context caches the scan; one capped at a tenth of the
    // source routes it cursor-only.
    let uncapped = || ExecContext::new().with_scan_batch_rows(scan_batch);
    let capped = || uncapped().with_value_cap(cap);
    let scan_big = |ctx: &ExecContext| {
        execute_plan(&big_plan, ctx, &registry, ExecPolicy::default()).expect("big scan answers")
    };
    let cached_ctx = uncapped();
    let cached_rows = scan_big(&cached_ctx);
    assert_eq!(cached_ctx.cached_scans(), 1);
    let cursor_ctx = capped();
    let cursor_rows = scan_big(&cursor_ctx);
    assert_eq!(cursor_ctx.cached_scans(), 0, "cached an over-cap source");
    assert_eq!(cursor_rows.rows(), cached_rows.rows());
    let (cached_peak, cursor_peak) = (cached_ctx.peak_bytes(), cursor_ctx.peak_bytes());
    assert!(
        cursor_peak < cached_peak,
        "cursor-only peak {cursor_peak} did not undercut the cached peak {cached_peak}"
    );
    let cursor_peak_ratio = cached_peak as f64 / cursor_peak as f64;
    let cursor_cached_ns = measure(
        "exec/cursor_scan_10x_cap/cached".to_owned(),
        &mut records,
        || scan_big(&uncapped()).len(),
    );
    let cursor_only_ns = measure(
        "exec/cursor_scan_10x_cap/cursor_only".to_owned(),
        &mut records,
        || scan_big(&capped()).len(),
    );

    // ---- Paged-remote workload: a hash join whose BOTH sides are remote
    // wrappers over 50 ms/page endpoints. Pulled on one thread, one
    // source's pages are fetched after the other's, so wall-clock is the
    // sum of both sources' page latency. The 10% variant re-runs the join
    // against endpoints injecting seeded transient faults, isolating what
    // the retry loop costs when it has work to do.
    let page_ms = if bdi_bench::fast_mode() { 2 } else { 50 };
    let remote_rows = bdi_bench::scaled(1024, 16);
    let remote_relation = |side: u64| {
        Relation::new(
            Schema::from_parts(&["id"], &["val"]).unwrap(),
            (0..remote_rows as i64)
                .map(|r| vec![Value::Int(r), Value::Float((side * 1000) as f64 + r as f64)])
                .collect(),
        )
        .unwrap()
    };
    let remote_registry = |fault_rate: f64| {
        let retry = RetryPolicy {
            max_attempts: 8,
            initial_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(4),
            attempt_timeout: std::time::Duration::from_secs(10),
        };
        let mut registry = WrapperRegistry::new();
        for (side, name) in [(0u64, "ra"), (1, "rb")] {
            let profile = FaultProfile {
                page_latency: std::time::Duration::from_millis(page_ms),
                transient_error_rate: fault_rate,
                seed: side + 1,
                ..FaultProfile::default()
            };
            // 256-row pages: 4 pages per side in a full run.
            let endpoint = Arc::new(SimulatedEndpoint::new(remote_relation(side), 256, profile));
            registry.register(Arc::new(RemoteWrapper::new(
                name,
                format!("D{}", name.to_uppercase()),
                endpoint,
                retry,
            )));
        }
        registry
    };
    let remote_plan = {
        let side_request = |prefix: &str| {
            ScanRequest::new(
                vec!["id".to_owned(), "val".to_owned()],
                Schema::new(vec![
                    Attribute::id(format!("{prefix}_id")),
                    Attribute::non_id(format!("{prefix}_val")),
                ])
                .unwrap(),
            )
            .unwrap()
        };
        PhysicalPlan::scan("ra", side_request("a"))
            .hash_join(PhysicalPlan::scan("rb", side_request("b")), "a_id", "b_id")
            .unwrap()
    };
    let remote_run = |registry: &WrapperRegistry| {
        execute_plan(
            &remote_plan,
            &ExecContext::new(),
            registry,
            ExecPolicy::default(),
        )
        .expect("remote join answers")
        .len()
    };
    let clean_registry = remote_registry(0.0);
    let faulty_registry = remote_registry(0.1);
    assert_eq!(remote_run(&clean_registry), remote_rows);
    assert_eq!(remote_run(&faulty_registry), remote_rows);
    let remote_pull_ns = measure(
        format!("exec/remote_join_{page_ms}ms_page/pull"),
        &mut records,
        || remote_run(&clean_registry),
    );
    let remote_fault_ns = measure(
        format!("exec/remote_join_{page_ms}ms_page/fault10"),
        &mut records,
        || remote_run(&faulty_registry),
    );
    let remote_retry_overhead = remote_fault_ns / remote_pull_ns;

    // ---- Append-requery workload: SUPERSEDE (§2.1) with 64 applications,
    // 10k VoD documents in each of D1's two versions, and a source that
    // keeps receiving records: every iteration inserts one v2 document and
    // re-asks the exemplary query over all versions. On a fresh context
    // each query re-reads both collections in full; the pooled persistent
    // context reads the one new document and appends it to the cached
    // scan. Plans are recompiled either way (`cache_plans` is off here, and
    // a write flushes them in production).
    let vod_docs = bdi_bench::scaled(10_000, 50);
    let apps = 64usize;
    let supersede_system = || {
        use bdi_core::supersede;
        use bdi_wrappers::supersede as data;
        let monitor = |i: usize| 100 + (i % apps) as i64;
        let store = bdi_docstore::DocStore::new();
        let batches: [(&str, Vec<serde_json::Value>); 4] = [
            (
                data::RELATION_COLLECTION,
                (0..apps)
                    .map(|a| json!({"appId": (a as i64), "monitor": (monitor(a)), "feedback": (1000 + a as i64)}))
                    .collect(),
            ),
            (
                data::FEEDBACK_COLLECTION,
                (0..apps)
                    .map(|a| json!({"feedbackGatheringId": (1000 + a as i64), "text": (format!("feedback {a}"))}))
                    .collect(),
            ),
            (
                data::VOD_COLLECTION,
                (0..vod_docs)
                    .map(|i| json!({"monitorId": (monitor(i)), "waitTime": (2 * ((i / apps) % 5) as i64 + 1), "watchTime": 16}))
                    .collect(),
            ),
            (
                data::VOD_V2_COLLECTION,
                (0..vod_docs)
                    .map(|i| json!({"monitorId": (monitor(i)), "bufferingRatio": (100.0 + (2 * ((i / apps) % 5) + 1) as f64 / 16.0)}))
                    .collect(),
            ),
        ];
        for (collection, docs) in batches {
            store
                .insert_many(collection, docs)
                .expect("generated documents are objects");
        }
        let mut system = BdiSystem::from_parts(supersede::build_ontology(), Default::default());
        for release in [
            supersede::release_w1(Arc::new(data::wrapper_w1(store.clone()))),
            supersede::release_w2(Arc::new(data::wrapper_w2(store.clone()))),
            supersede::release_w3(Arc::new(data::wrapper_w3(store.clone()))),
            supersede::release_w4(Arc::new(data::wrapper_w4(store.clone()))),
        ] {
            system.register_release(release).expect("running example");
        }
        (system, store)
    };
    // One new record with a ratio no other has: the answer gains a row.
    let mut appended = 0u64;
    let mut append_v2 = |store: &bdi_docstore::DocStore| {
        appended += 1;
        store
            .insert(
                bdi_wrappers::supersede::VOD_V2_COLLECTION,
                json!({"monitorId": (100 + (appended % apps as u64) as i64), "bufferingRatio": (1000.0 + appended as f64 / 128.0)}),
            )
            .expect("a document");
    };
    let exemplary_len = |system: &BdiSystem, opts: &ExecOptions| {
        system
            .serve(AnswerRequest::omq(bdi_core::supersede::exemplary_omq()).options(opts.clone()))
            .expect("exemplary query answers")
            .relation
            .len()
    };
    let fresh_ctx = ExecOptions {
        reuse_scans: false,
        ..stream_full.clone()
    };
    let persistent_ctx = ExecOptions {
        reuse_scans: true,
        ..stream_full.clone()
    };
    // Separate deployments, so neither variant's inserts grow the other's
    // collection.
    let (fresh_system, fresh_store) = supersede_system();
    let (persistent_system, persistent_store) = supersede_system();
    let base_rows = exemplary_len(&fresh_system, &eager);
    assert_eq!(
        exemplary_len(&persistent_system, &persistent_ctx),
        base_rows
    );
    append_v2(&fresh_store);
    append_v2(&persistent_store);
    assert_eq!(exemplary_len(&fresh_system, &fresh_ctx), base_rows + 1);
    assert_eq!(
        exemplary_len(&persistent_system, &persistent_ctx),
        base_rows + 1
    );
    let append_fresh_ns = measure(
        "exec/append_requery_json_10k/fresh_ctx".to_owned(),
        &mut records,
        || {
            append_v2(&fresh_store);
            exemplary_len(&fresh_system, &fresh_ctx)
        },
    );
    let append_persistent_ns = measure(
        "exec/append_requery_json_10k/persistent_ctx".to_owned(),
        &mut records,
        || {
            append_v2(&persistent_store);
            exemplary_len(&persistent_system, &persistent_ctx)
        },
    );
    let append_requery_speedup = append_fresh_ns / append_persistent_ns;
    let append_stats = persistent_system.context_stats();
    assert!(
        append_stats.resumed_scans > 0 && append_stats.full_scans <= 4,
        "the persistent context should resume, not re-read: {append_stats:?}"
    );
    assert_eq!(
        exemplary_len(&persistent_system, &persistent_ctx),
        exemplary_len(&persistent_system, &eager)
    );

    // ---- Sketch-maintenance workload: one insert, then the v2 wrapper's
    // sketches. A wrapper built for the occasion has no builder to resume
    // and aggregates the whole collection — what every version bump cost
    // before sketches were folded; the deployment's own wrapper observes
    // the one appended document.
    let (stats_system, stats_store) = supersede_system();
    let stats_wrapper = stats_system
        .registry()
        .get("w4")
        .expect("w4 is registered")
        .clone();
    let rebuilt_rows = |store: &bdi_docstore::DocStore| {
        bdi_wrappers::supersede::wrapper_w4(store.clone())
            .column_stats()
            .expect("no concurrent writer")
            .rows()
    };
    let folded_rows = || {
        stats_wrapper
            .column_stats()
            .expect("no concurrent writer")
            .rows()
    };
    assert_eq!(folded_rows(), rebuilt_rows(&stats_store));
    let stats_rebuild_ns = measure(
        "exec/json_stats_append_10k/rebuild".to_owned(),
        &mut records,
        || {
            append_v2(&stats_store);
            rebuilt_rows(&stats_store)
        },
    );
    let stats_fold_ns = measure(
        "exec/json_stats_append_10k/fold".to_owned(),
        &mut records,
        || {
            append_v2(&stats_store);
            folded_rows()
        },
    );
    let stats_fold_speedup = stats_rebuild_ns / stats_fold_ns;
    assert_eq!(folded_rows(), rebuilt_rows(&stats_store));

    // ---- Contended-callers workload: 4 threads answering the same cached
    // plan through `serve` at once. The shared plan cache (one lock, held
    // for the probe only) and the one shared context (single-flight scan
    // fills, no execution lock) let the callers execute in
    // parallel; the baseline holds one global mutex across each whole
    // `serve`, so callers run one at a time. On a single-CPU host both
    // shapes serialize anyway and the ratio records ~1x; nothing gates on
    // it.
    let contended_system = Arc::new(workload(1, 4, false));
    let contended_request = || AnswerRequest::omq(synthetic::chain_query(1));
    let expected = contended_system
        .serve(contended_request()) // also warms the plan cache
        .expect("contended workload answers")
        .relation
        .len();
    const CONTENDED_CALLERS: usize = 4;
    let global_lock = std::sync::Mutex::new(());
    let hammer = |serialize: Option<&std::sync::Mutex<()>>| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CONTENDED_CALLERS)
                .map(|_| {
                    let system = &contended_system;
                    scope.spawn(move || {
                        let _convoy = serialize.map(|m| m.lock().unwrap());
                        system
                            .serve(AnswerRequest::omq(synthetic::chain_query(1)))
                            .expect("contended call answers")
                            .relation
                            .len()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("contended caller panicked"))
                .sum::<usize>()
        })
    };
    assert_eq!(hammer(Some(&global_lock)), CONTENDED_CALLERS * expected);
    assert_eq!(hammer(None), CONTENDED_CALLERS * expected);
    let contended_serial_ns = measure(
        "exec/contended_serve_4x/whole_serve_mutex".to_owned(),
        &mut records,
        || hammer(Some(&global_lock)),
    );
    let contended_shared_ns = measure(
        "exec/contended_serve_4x/shared_cache".to_owned(),
        &mut records,
        || hammer(None),
    );
    let contended_speedup = contended_serial_ns / contended_shared_ns;
    assert!(
        contended_system.plan_cache_stats().hits > 0,
        "contended callers should serve from the plan cache"
    );

    println!();
    println!("speedup: union 16 wrappers (eager / streaming+pushdown+parallel) = {speedup_16:.2}x");
    println!(
        "speedup: union 16 wrappers, all-distinct worst case              = {distinct_speedup:.2}x"
    );
    println!(
        "speedup: join 2x4 wrappers (eager / streaming)                   = {join_speedup:.2}x"
    );
    println!(
        "speedup: single walk x 4 scans (eager / streaming)               = {single_walk_speedup:.2}x"
    );
    println!(
        "speedup: selective join 100x100k (semi-join off / on)            = {semijoin_speedup:.2}x"
    );
    println!(
        "speedup: bloom semi-join 50kx500k (no pass / bloom)              = {bloom_speedup:.2}x"
    );
    println!(
        "speedup: 3-join worst order (syntactic / cost-based)             = {order_speedup:.2}x"
    );
    println!(
        "overhead: cost-based planning at 100x-wrong sketches             = {misestimate_overhead:.2}x"
    );
    println!(
        "cursor-only scan 10x value cap: peak {cursor_peak} B vs cached {cached_peak} B ({cursor_peak_ratio:.2}x smaller), {:.2}x slower",
        cursor_only_ns / cursor_cached_ns
    );
    println!(
        "overhead: remote join at 10% transient faults (vs fault-free)    = {remote_retry_overhead:.2}x"
    );
    println!(
        "speedup: insert + exemplary query, 2x10k docs (fresh / persistent) = {append_requery_speedup:.2}x"
    );
    println!(
        "speedup: insert + column_stats, 10k docs (rebuild / fold)         = {stats_fold_speedup:.2}x"
    );
    println!(
        "speedup: 4 contended cached-plan callers (whole-serve mutex / shared cache) = {contended_speedup:.2}x"
    );

    bdi_bench::write_results(
        "exec",
        "walk execution: W wrappers x 10k rows x 10 cols (8 noise), 2-concept join",
        &records,
        "speedups",
        &[
            ("union_16_wrappers", speedup_16),
            ("union_16_wrappers_distinct_worst_case", distinct_speedup),
            ("join_2x4", join_speedup),
            ("single_walk", single_walk_speedup),
            ("semijoin_selective_join", semijoin_speedup),
            ("bloom_semijoin_50k_keys", bloom_speedup),
            ("join_order_cost_based", order_speedup),
            ("misestimate_overhead_100x", misestimate_overhead),
            ("cursor_scan_peak_bytes_ratio", cursor_peak_ratio),
            ("remote_retry_overhead_10pct", remote_retry_overhead),
            ("contended_serve_4x", contended_speedup),
            ("append_requery_json_10k", append_requery_speedup),
            ("json_stats_fold_append_10k", stats_fold_speedup),
        ],
    );
}
