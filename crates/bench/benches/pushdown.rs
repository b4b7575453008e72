//! Plan-cache micro-benchmarks (PR 3 tentpole), measured against the PR 2
//! baseline behaviour that is still executable in-tree:
//!
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
use bdi_bench::{measure, Measurement};
use bdi_core::exec::ExecOptions;
use bdi_core::system::AnswerRequest;

fn main() {
    let mut records: Vec<Measurement> = Vec::new();

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
    println!("speedup: plan cache (recompile / cached)                 = {cache_speedup:.2}x");
    println!("speedup: plan cache + scan reuse (recompile / reused)    = {reuse_speedup:.2}x");

    bdi_bench::write_results(
        "pushdown",
        "plan cache: chain c3 w4 (64 walks) x 10 rows",
        &records,
        "speedups",
        &[
            ("cached_plan_vs_recompile", cache_speedup),
            ("cached_plan_and_scans_vs_recompile", reuse_speedup),
        ],
    );
}
