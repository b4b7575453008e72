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
//! Benches (`cargo bench -p bdi_bench --bench <name>`): `eval`, `exec`,
//! `pushdown`, `durability` and `rewrite`. Each times its rows with
//! [`measure`] (or [`measure_with_setup`]) and records them, with their
//! spread, in `BENCH_<name>.json` through [`write_results`].

use std::hint::black_box;
use std::time::{Duration, Instant};

pub mod synthetic;

/// Whether `BDI_BENCH_FAST=1` (or any non-empty value other than `0`) is
/// set: the CI smoke mode. Benches shrink their workloads and measurement
/// windows so the whole suite *runs* end-to-end in seconds — catching
/// harness rot on every PR — and [`write_results`] leaves the recorded
/// `BENCH_*.json` files alone, since only full runs mean anything.
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
/// (uncapped) context under `options` — no plan cache, no reused scans.
/// For benches and differential tests that run a query against a source
/// other than a system's own registry, or must not touch its caches.
pub fn compile_and_execute<S>(
    ontology: &bdi_core::ontology::BdiOntology,
    source: &S,
    rewriting: &bdi_core::rewrite::Rewriting,
    options: &bdi_core::exec::ExecOptions,
) -> Result<bdi_core::Answer, bdi_core::exec::ExecError>
where
    S: bdi_relational::SourceResolver + bdi_relational::PlanSource,
{
    use bdi_core::exec;
    let compiled = exec::compile_query(ontology, source, rewriting.clone(), options)?;
    exec::execute_compiled_with(ontology, source, &compiled, None, options.split().1)
}

/// One timed row: the mean over all timed iterations, and the spread of
/// the per-batch ns/iter samples it was taken from.
pub struct Measurement {
    pub id: String,
    /// Mean ns/iter over every timed iteration.
    pub ns_per_iter: f64,
    pub iters: u64,
    pub min_ns: f64,
    pub median_ns: f64,
    /// Sample standard deviation of the per-batch ns/iter (0 for one batch).
    pub stddev_ns: f64,
    pub batches: u64,
}

impl Measurement {
    /// Summarises `samples` — per-batch ns/iter, each batch `batch_iters`
    /// iterations long.
    fn from_samples(id: String, batch_iters: u64, samples: &[f64]) -> Self {
        assert!(
            !samples.is_empty(),
            "a measurement needs at least one batch"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let stddev = if n > 1 {
            let ss: f64 = samples.iter().map(|s| (s - mean).powi(2)).sum();
            (ss / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Self {
            id,
            ns_per_iter: mean,
            iters: batch_iters * n as u64,
            min_ns: sorted[0],
            median_ns: median,
            stddev_ns: stddev,
            batches: n as u64,
        }
    }
}

/// Times `routine`: a short warm-up estimates its cost, then it runs in
/// equal batches of at least one iteration until ~400 ms of batches have
/// run *and* at least 10 batches were timed (10 ms and 3 batches under
/// [`fast_mode`] — the CI smoke configuration). Prints the row, appends it
/// to `records`, and returns the mean ns/iter.
pub fn measure<O>(
    id: impl Into<String>,
    records: &mut Vec<Measurement>,
    mut routine: impl FnMut() -> O,
) -> f64 {
    sample(id.into(), records, |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        t.elapsed()
    })
}

/// [`measure`] for a routine that consumes fresh state each iteration:
/// `setup` runs before every iteration, outside the clock. Batches are
/// sized by wall time, setup included, so an expensive setup cannot
/// stretch the run past its window by more than one batch.
pub fn measure_with_setup<S, O>(
    id: impl Into<String>,
    records: &mut Vec<Measurement>,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> O,
) -> f64 {
    sample(id.into(), records, |iters| {
        let mut timed = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            timed += t.elapsed();
        }
        timed
    })
}

/// The one sample loop: `run_batch(n)` runs `n` iterations and returns the
/// time they were on the clock.
fn sample(
    id: String,
    records: &mut Vec<Measurement>,
    mut run_batch: impl FnMut(u64) -> Duration,
) -> f64 {
    let (warmup, target, min_batches) = if fast_mode() {
        (Duration::from_millis(2), Duration::from_millis(10), 3)
    } else {
        (Duration::from_millis(80), Duration::from_millis(400), 10)
    };

    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_iters == 0 || warm_start.elapsed() < warmup {
        run_batch(1);
        warm_iters += 1;
    }
    let est_ns = (warm_start.elapsed().as_nanos() as u64 / warm_iters).max(1);
    let batch = (target.as_nanos() as u64 / min_batches / est_ns).clamp(1, 1 << 22);

    let mut samples = Vec::new();
    let start = Instant::now();
    while (samples.len() as u64) < min_batches || start.elapsed() < target {
        samples.push(run_batch(batch).as_nanos() as f64 / batch as f64);
    }
    let m = Measurement::from_samples(id, batch, &samples);
    println!(
        "bench: {:<48} {:>14.1} ns/iter  (median {:.1}, min {:.1}, sd {:.1}; {} batches x {batch})",
        m.id, m.ns_per_iter, m.median_ns, m.min_ns, m.stddev_ns, m.batches
    );
    let ns = m.ns_per_iter;
    records.push(m);
    ns
}

/// Writes `BENCH_<bench>.json` at the workspace root: the host's `nproc`,
/// the commit, every row in `records` with its spread, and `ratios` under
/// `section` (`"speedups"` or `"ratios"`). Fast-mode runs write nothing —
/// their timings are noise.
pub fn write_results(
    bench: &str,
    workload: &str,
    records: &[Measurement],
    section: &str,
    ratios: &[(&str, f64)],
) {
    let file = format!("BENCH_{bench}.json");
    if fast_mode() {
        println!("fast mode: skipping {file}");
        return;
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    // Thread-dependent rows (parallel walks, contended serve)
    // only compare between hosts of the same width.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let json = render_results(bench, nproc, &commit, workload, records, section, ratios);
    let path = format!("{root}/{file}");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The JSON body [`write_results`] writes, one row per line.
fn render_results(
    bench: &str,
    nproc: usize,
    commit: &str,
    workload: &str,
    records: &[Measurement],
    section: &str,
    ratios: &[(&str, f64)],
) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}, \"min_ns\": {:.1}, \"median_ns\": {:.1}, \"stddev_ns\": {:.1}, \"batches\": {}}}",
                r.id, r.ns_per_iter, r.iters, r.min_ns, r.median_ns, r.stddev_ns, r.batches
            )
        })
        .collect();
    let ratios: Vec<String> = ratios
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value:.2}"))
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"nproc\": {nproc},\n  \"commit\": \"{commit}\",\n  \"workload\": \"{workload}\",\n  \"results\": [\n{}\n  ],\n  \"{section}\": {{{}}}\n}}\n",
        rows.join(",\n"),
        ratios.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(samples: &[f64]) -> Measurement {
        Measurement::from_samples("row".to_owned(), 4, samples)
    }

    #[test]
    fn summary_of_an_odd_sample() {
        let m = summary(&[30.0, 10.0, 20.0, 60.0, 30.0]);
        assert_eq!(m.ns_per_iter, 30.0);
        assert_eq!(m.median_ns, 30.0);
        assert_eq!(m.min_ns, 10.0);
        // Squared deviations 0 + 400 + 100 + 900 + 0 over n − 1 = 4.
        assert_eq!(m.stddev_ns, 350f64.sqrt());
        assert_eq!((m.batches, m.iters), (5, 20));
    }

    #[test]
    fn summary_of_an_even_sample() {
        let m = summary(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!(m.ns_per_iter, 25.0);
        assert_eq!(m.median_ns, 25.0);
        assert_eq!(m.min_ns, 10.0);
        assert_eq!(m.stddev_ns, (500.0f64 / 3.0).sqrt());
        assert_eq!((m.batches, m.iters), (4, 16));
    }

    #[test]
    fn summary_of_one_sample() {
        let m = summary(&[7.5]);
        assert_eq!(
            (m.ns_per_iter, m.median_ns, m.min_ns, m.stddev_ns),
            (7.5, 7.5, 7.5, 0.0)
        );
        assert_eq!((m.batches, m.iters), (1, 4));
    }

    #[test]
    fn rendered_results_parse_and_keep_row_order() {
        let records = vec![
            summary(&[3.0, 1.0, 2.0]),
            Measurement::from_samples("b/first".to_owned(), 1, &[5.0]),
            Measurement::from_samples("a/second".to_owned(), 2, &[1.0, 3.0]),
        ];
        let json = render_results(
            "unit",
            2,
            "abc1234",
            "three rows",
            &records,
            "speedups",
            &[("zeta", 2.0), ("alpha", 0.5)],
        );
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(doc["bench"].as_str(), Some("unit"));
        assert_eq!(doc["nproc"].as_u64(), Some(2));
        assert_eq!(doc["commit"].as_str(), Some("abc1234"));
        assert_eq!(doc["workload"].as_str(), Some("three rows"));
        let rows = doc["results"].as_array().expect("results array");
        let ids: Vec<_> = rows.iter().map(|r| r["id"].as_str().unwrap()).collect();
        assert_eq!(ids, ["row", "b/first", "a/second"]);
        let last = &rows[2];
        assert_eq!(last["ns_per_iter"].as_f64(), Some(2.0));
        assert_eq!(last["iters"].as_u64(), Some(4));
        assert_eq!(last["min_ns"].as_f64(), Some(1.0));
        assert_eq!(last["median_ns"].as_f64(), Some(2.0));
        assert_eq!(last["stddev_ns"].as_f64(), Some(1.4));
        assert_eq!(last["batches"].as_u64(), Some(2));
        let ratios = doc["speedups"].as_object().expect("ratio section");
        assert_eq!(ratios.get("zeta").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(ratios.get("alpha").and_then(|v| v.as_f64()), Some(0.5));
        assert!(
            json.find("zeta") < json.find("alpha"),
            "ratios keep their order"
        );
    }
}
