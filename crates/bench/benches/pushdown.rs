//! Predicate-pushdown and plan-cache micro-benchmarks (PR 3 tentpole),
//! measured against the PR 2 baseline behaviours that are still executable
//! in-tree:
//!
//! * **Pushed range scan** — a selective range predicate (`lo ≤ f1 < hi`,
//!   ~1% of rows) over 4 disjoint wrappers × 10k rows × 10 columns:
//!   - *eager post-selection*: the only way PR 2 could evaluate a non-ID
//!     or non-equality predicate at all (σ on the answer);
//!   - *streaming, residual filter*: the source claims nothing, the
//!     mediator filters above the scan (the new worst-capability floor);
//!   - *streaming, pushed*: `TableWrapper` evaluates the predicate during
//!     its scan, so only matching rows are ever materialized or interned.
//! * **Pushed IN-set scan** — the same shape with a 3-member IN-set.
//! * **Cached plan vs recompile** — a rewriting-heavy query (3 concepts ×
//!   4 wrappers → 64 walks) over tiny data, answered through
//!   `BdiSystem::serve` with the cross-query plan cache off (PR 2
//!   behaviour: rewrite + compile every time) vs on (hit after the first
//!   query) vs on with `reuse_scans` (interned scans also carried over).
//!
//! Run with `cargo bench -p bdi_bench --bench pushdown`. Results are
//! printed and written to `BENCH_pushdown.json` at the workspace root
//! (skipped under `BDI_BENCH_FAST`, whose timings are smoke-test noise).

use bdi_bench::synthetic;
use bdi_bench::{compile_and_execute, measure, Measurement};
use bdi_core::exec::{Engine, ExecOptions, FeatureFilter};
use bdi_core::system::{AnswerRequest, BdiSystem};
use bdi_relational::plan::ColumnFilter;
use bdi_relational::{
    BatchIter, PlanSource, Predicate, Relation, RelationError, ScanMark, ScanRequest,
    SourceResolver, Value,
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

fn rows() -> usize {
    bdi_bench::scaled(10_000, 50)
}
const NOISE: usize = 8;

/// 1 concept × `wrappers` disjoint wrappers; `f1` cycles `r % 4096`
/// sixteenths — a deterministic ramp, so the benchmark predicates hit a
/// known ~1% slice at any `rows()` scale (fast mode included).
fn scan_workload(wrappers: usize) -> BdiSystem {
    synthetic::build_chain_system_with(1, wrappers, NOISE, usize::MAX, |_i, _j, _schema| {
        (0..rows())
            .map(|r| {
                let mut row = vec![Value::Int(r as i64)];
                row.push(Value::Float((r % 4096) as f64 / 16.0));
                row.extend((0..NOISE).map(|k| Value::Int((r * NOISE + k) as i64)));
                row
            })
            .collect()
    })
}

/// A plan source over the registry that claims no filters: every predicate
/// is evaluated by the mediator's residual `Filter` operator. This is the
/// worst-capability wrapper a deployment could contain — the floor the
/// pushed variant is measured against.
struct NoClaims<'a>(&'a bdi_wrappers::WrapperRegistry);

impl PlanSource for NoClaims<'_> {
    fn scan_batches<'a>(
        &'a self,
        name: &str,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(BatchIter<'a>, Option<ScanMark>), RelationError> {
        self.0.scan_batches(name, request, batch_rows)
    }

    fn resume_batches<'a>(
        &'a self,
        name: &str,
        request: &ScanRequest,
        batch_rows: usize,
        mark: &ScanMark,
    ) -> Result<Option<(BatchIter<'a>, ScanMark)>, RelationError> {
        self.0.resume_batches(name, request, batch_rows, mark)
    }

    fn claims(&self, _source: &str, _filter: &ColumnFilter) -> bool {
        false
    }
}

impl SourceResolver for NoClaims<'_> {
    fn resolve(&self, name: &str) -> Result<Relation, RelationError> {
        self.0.resolve(name)
    }
}

fn main() {
    let mut records: Vec<Measurement> = Vec::new();

    // ---- Pushed predicate scans: 4 wrappers × 10k rows, ~1% selectivity.
    let system = scan_workload(4);
    let rewriting = system
        .rewrite(synthetic::chain_query(1))
        .expect("benchmark query rewrites");
    let registry = system.registry();
    let no_claims = NoClaims(registry);
    let ontology = system.ontology();

    let mut scan_speedups = Vec::new();
    for (name, predicate) in [
        (
            "range",
            Predicate::range(
                Some(bdi_relational::Bound::inclusive(Value::Float(10.0))),
                Some(bdi_relational::Bound::exclusive(Value::Float(12.5))),
            ),
        ),
        (
            "in_set",
            Predicate::in_set([Value::Float(1.0), Value::Float(5.5), Value::Float(11.0625)]),
        ),
    ] {
        let filters = vec![FeatureFilter::new(
            synthetic::chain_data_feature(1),
            predicate,
        )];
        let eager = ExecOptions {
            engine: Engine::Eager,
            filters: filters.clone(),
            ..ExecOptions::default()
        };
        let streaming = ExecOptions {
            filters: filters.clone(),
            ..ExecOptions::default()
        };

        // Sanity: all three evaluation sites agree before timing.
        let expected = compile_and_execute(ontology, registry, &rewriting, &eager)
            .expect("benchmark query answers")
            .relation;
        assert!(!expected.is_empty());
        for source_rows in [
            compile_and_execute(ontology, registry, &rewriting, &streaming)
                .expect("benchmark query answers")
                .relation,
            compile_and_execute(ontology, &no_claims, &rewriting, &streaming)
                .expect("benchmark query answers")
                .relation,
        ] {
            assert_eq!(source_rows.rows(), expected.rows());
        }

        let eager_ns = measure(
            format!("pushdown/{name}_w4_10k/eager_postselect"),
            &mut records,
            || {
                compile_and_execute(ontology, registry, &rewriting, &eager)
                    .expect("benchmark query answers")
                    .relation
                    .len()
            },
        );
        let residual_ns = measure(
            format!("pushdown/{name}_w4_10k/stream_residual_filter"),
            &mut records,
            || {
                compile_and_execute(ontology, &no_claims, &rewriting, &streaming)
                    .expect("benchmark query answers")
                    .relation
                    .len()
            },
        );
        let pushed_ns = measure(
            format!("pushdown/{name}_w4_10k/stream_pushed_to_wrapper"),
            &mut records,
            || {
                compile_and_execute(ontology, registry, &rewriting, &streaming)
                    .expect("benchmark query answers")
                    .relation
                    .len()
            },
        );
        scan_speedups.push((name, eager_ns / pushed_ns, residual_ns / pushed_ns));
    }

    // ---- Cached plan vs recompile: rewriting-heavy, data-light.
    let cache_system = synthetic::build_chain_system(3, 4, 10); // 64 walks
    let query = || synthetic::chain_query(3);
    // reuse_scans defaults on in production; the timed variants pin it so
    // `cached_plans` measures plan reuse alone and `cached_plans_and_scans`
    // adds scan reuse on top. The smoke-only BDI_BENCH_REUSE_SCANS=1 run
    // flips the first two on to cover the default-on path.
    let uncached = ExecOptions {
        cache_plans: false,
        reuse_scans: bdi_bench::reuse_scans_mode(),
        ..ExecOptions::default()
    };
    let cached = ExecOptions {
        reuse_scans: bdi_bench::reuse_scans_mode(),
        ..ExecOptions::default()
    };
    let cached_reuse = ExecOptions {
        reuse_scans: true,
        ..ExecOptions::default()
    };
    let answer = |opts: &ExecOptions| {
        cache_system
            .serve(AnswerRequest::omq(query()).options(opts.clone()))
            .expect("benchmark query answers")
            .relation
            .len()
    };
    let expected = answer(&uncached);
    assert_eq!(answer(&cached), expected);
    assert_eq!(answer(&cached_reuse), expected);

    let uncached_ns = measure(
        "plan_cache/chain_c3_w4/recompile_every_query".to_owned(),
        &mut records,
        || answer(&uncached),
    );
    let cached_ns = measure(
        "plan_cache/chain_c3_w4/cached_plans".to_owned(),
        &mut records,
        || answer(&cached),
    );
    let reuse_ns = measure(
        "plan_cache/chain_c3_w4/cached_plans_and_scans".to_owned(),
        &mut records,
        || answer(&cached_reuse),
    );
    let stats = cache_system.plan_cache_stats();
    assert!(stats.hits > 0, "cache bench never hit the plan cache");
    let cache_speedup = uncached_ns / cached_ns;
    let reuse_speedup = uncached_ns / reuse_ns;

    println!();
    for (name, vs_eager, vs_residual) in &scan_speedups {
        println!(
            "speedup: pushed {name} scan (eager post-select / pushed)    = {vs_eager:.2}x (vs residual-only: {vs_residual:.2}x)"
        );
    }
    println!("speedup: plan cache (recompile / cached)                 = {cache_speedup:.2}x");
    println!("speedup: plan cache + scan reuse (recompile / reused)    = {reuse_speedup:.2}x");

    let (range_eager, range_residual) = (scan_speedups[0].1, scan_speedups[0].2);
    let (in_eager, in_residual) = (scan_speedups[1].1, scan_speedups[1].2);
    bdi_bench::write_results(
        "pushdown",
        "range/IN predicate scans: 4 wrappers x 10k rows x 10 cols (~1% selectivity); plan cache: chain c3 w4 (64 walks) x 10 rows",
        &records,
        "speedups",
        &[
            ("pushed_range_scan_vs_eager", range_eager),
            ("pushed_range_scan_vs_residual", range_residual),
            ("pushed_in_scan_vs_eager", in_eager),
            ("pushed_in_scan_vs_residual", in_residual),
            ("cached_plan_vs_recompile", cache_speedup),
            ("cached_plan_and_scans_vs_recompile", reuse_speedup),
        ],
    );
}
