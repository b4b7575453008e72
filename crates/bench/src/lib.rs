//! # bdi-bench — benchmark harness regenerating every table and figure
//!
//! Binaries (run with `cargo run --release -p bdi-bench --bin <name>`):
//!
//! | target        | regenerates |
//! |---------------|-------------|
//! | `tables1_2`   | Tables 1 & 2 (running-example correctness) |
//! | `table3_4_5`  | Tables 3–5 (change taxonomy handler split) |
//! | `table6`      | Table 6 (industrial applicability) |
//! | `figure8`     | Figure 8 (worst-case query answering time, `O(W^C)`) |
//! | `figure11`    | Figure 11 (Source-graph growth per Wordpress release) |
//!
//! Criterion benches: `rewriting`, `evolution`, `store`, `ablations`.

pub mod synthetic;

/// Whether `BDI_BENCH_FAST=1` (or any non-empty value other than `0`) is
/// set: the CI smoke mode. Benches shrink their workloads and measurement
/// windows so the whole suite *runs* end-to-end in seconds — catching
/// harness rot on every PR — and skip overwriting the recorded
/// `BENCH_*.json` results, which are only meaningful from full runs. The
/// vendored criterion stand-in honours the same variable for its timing
/// windows.
pub fn fast_mode() -> bool {
    std::env::var_os("BDI_BENCH_FAST").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Whether `BDI_BENCH_REUSE_SCANS=1` (or any non-empty value other than
/// `0`) is set: the bench-smoke variant that runs the execution workloads
/// with `ExecOptions::reuse_scans` on — the production default — so the
/// persistent-context path (data-version scan keys, pool watermark
/// recycling) is exercised by the perf-rot gate. Timed full runs leave it
/// off so per-query numbers measure raw engine work, not cache hits.
pub fn reuse_scans_mode() -> bool {
    std::env::var_os("BDI_BENCH_REUSE_SCANS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// `n` in a full run, `n / divisor` (at least 1) in fast mode — the one-line
/// workload scaler benches use for their setup sizes.
pub fn scaled(n: usize, divisor: usize) -> usize {
    if fast_mode() {
        (n / divisor).max(1)
    } else {
        n
    }
}

/// Compiles `rewriting` against `source` and executes it once on a fresh
/// (uncapped) context under `options` — no plan cache, no pooled scans.
/// For benches and differential tests that run a query against a source
/// other than a system's own registry, or must not touch its caches.
pub fn compile_and_execute<S>(
    ontology: &bdi_core::ontology::BdiOntology,
    source: &S,
    rewriting: &bdi_core::rewrite::Rewriting,
    options: &bdi_core::exec::ExecOptions,
) -> Result<bdi_core::exec::QueryAnswer, bdi_core::exec::ExecError>
where
    S: bdi_relational::SourceResolver + bdi_relational::PlanSource,
{
    use bdi_core::exec;
    let compiled = exec::compile_query(ontology, source, rewriting.clone(), options)?;
    exec::execute_compiled_with(ontology, source, &compiled, None, options.split().1)
}

/// One timed result from [`measure`].
pub struct Measurement {
    pub id: String,
    pub ns_per_iter: f64,
    pub iters: u64,
}

/// Times `routine` adaptively: warm up briefly, then run batches until
/// ~400 ms of measured time accumulates (milliseconds under
/// [`fast_mode`] — the CI smoke configuration). Prints the result, appends
/// it to `records`, and returns the mean ns/iter. Shared by the
/// custom-harness benches (`eval`, `exec`, `pushdown`).
pub fn measure<O>(
    id: impl Into<String>,
    records: &mut Vec<Measurement>,
    mut routine: impl FnMut() -> O,
) -> f64 {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    let id = id.into();
    let (warmup, target) = if fast_mode() {
        (Duration::from_millis(2), Duration::from_millis(10))
    } else {
        (Duration::from_millis(80), Duration::from_millis(400))
    };

    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < warmup {
        black_box(routine());
        warm_iters += 1;
    }
    let est_ns = (warm_start.elapsed().as_nanos() as u64 / warm_iters.max(1)).max(1);
    let batch = (target.as_nanos() as u64 / 10 / est_ns).clamp(1, 1 << 22);

    let mut elapsed = Duration::ZERO;
    let mut iters = 0u64;
    while elapsed < target {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        elapsed += t.elapsed();
        iters += batch;
    }
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("bench: {id:<48} {ns:>14.1} ns/iter  ({iters} iters)");
    records.push(Measurement {
        id,
        ns_per_iter: ns,
        iters,
    });
    ns
}
