//! Socket-to-socket serve benchmark for the BDI mediator. README.md has the
//! why of every workload and metric; BENCHMARK.json at the repository root
//! has the contract later changes are judged by.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--seed N] [--seconds S] [--quick] [--out FILE]    every workload, untraced then traced
//! benchmark --repeat N [--seed N] [--seconds S]                2N untraced suites in two sets, compared
//! benchmark --compare A.json B.json                            two --out files, compared
//! ```
//!
//! Every option is a flag; the benchmark reads no environment variable.

mod http;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Options, Report};
use serde_json::{json, Map, Value};
use stats::quartiles;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::{Spec, SPECS};

/// The contract file, looked for in the working directory (the repository
/// root): the bounds `--repeat` and `--compare` judge by.
const CONTRACT: &str = "BENCHMARK.json";

fn print_report(workload: &str, report: &Report) {
    for note in &report.notes {
        println!("{workload}: {note}");
    }
    for (metrics, remark) in [
        (&report.information, "  information only"),
        (&report.metrics, ""),
    ] {
        for m in metrics {
            println!(
                "{workload}: {:<36} {:>14.4} {:<6} ({} samples){remark}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let entry = |m: &run::Metric, with_samples: bool| {
        let samples = if with_samples {
            format!(", \"samples\": {}", m.samples)
        } else {
            String::new()
        };
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
            m.name, m.value, m.unit
        )
    };
    let join = |metrics: &[run::Metric], with_samples: bool| {
        metrics
            .iter()
            .map(|m| entry(m, with_samples))
            .collect::<Vec<_>>()
            .join(", ")
    };
    // For the suite's `--out`: everything measured, with sample counts.
    println!(
        "details {{\"metrics\": {{{}}}, \"information\": {{{}}}}}",
        join(&report.metrics, true),
        join(&report.information, true)
    );
    // The last line is the result the driver reads.
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        join(&report.metrics, false)
    );
}

/// One workload, in this process.
fn run_one(spec: &Spec, options: &Options, traced: bool) -> ExitCode {
    let report = if traced {
        trace::per_layer(spec, options)
    } else {
        run::end_to_end(spec, options)
    };
    match report {
        Ok(report) => {
            print_report(spec.name, &report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// One workload in a process of its own, so that peak RSS and allocator
/// state are that workload's alone. Returns the child's `details` line —
/// `{"metrics": {name: {value, unit, samples}}, "information": {…}}` — or
/// `None` when it failed.
fn run_child(spec: &Spec, options: &Options, traced: bool) -> Option<Value> {
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    let output = command.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return None;
    }
    let details = stdout.lines().rev().nth(1)?.strip_prefix("details ")?;
    serde_json::from_str(details).ok()
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        })
}

/// Every workload, untraced then traced; `--out` records the results with
/// what they were taken on.
fn run_suite(options: &Options, nproc: usize, out: Option<String>) -> ExitCode {
    let mut workloads = Map::new();
    let mut ok = true;
    for spec in &SPECS {
        let end_to_end = run_child(spec, options, false);
        let per_layer = run_child(spec, options, true);
        ok &= end_to_end.is_some() && per_layer.is_some();
        let of = |details: &Option<Value>, key: &str| {
            details.as_ref().map_or(Value::Null, |d| d[key].clone())
        };
        workloads.insert(
            spec.name.to_owned(),
            json!({
                "connection": (if spec.keep_alive { "keep-alive" } else { "per request" }),
                "end_to_end": (of(&end_to_end, "metrics")),
                "information": (of(&end_to_end, "information")),
                "per_layer": (of(&per_layer, "metrics")),
            }),
        );
    }
    let results = json!({
        "nproc": (nproc as i64),
        "callers": (options.callers as i64),
        "rustc": (tool_version("rustc", &["--version"])),
        "commit": (tool_version("git", &["rev-parse", "HEAD"])),
        "seed": (options.seed as i64),
        "window_seconds": (options.seconds),
        "quick": (options.quick),
        "workloads": (Value::Object(workloads)),
    });
    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&results).expect("results serialize");
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("results written to {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(better, bound)` of every end-to-end metric in the contract file.
fn contract_bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(CONTRACT)
        .map_err(|e| format!("{CONTRACT} (run from the repository root): {e}"))?;
    let contract: Value = serde_json::from_str(&text).map_err(|e| format!("{CONTRACT}: {e}"))?;
    let metrics = contract["end_to_end"]
        .as_array()
        .ok_or(format!("{CONTRACT}: no end_to_end list"))?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((
                m["name"].as_str()?.to_owned(),
                (m["better"].as_str()? == "higher", m["bound"].as_f64()?),
            ))
        })
        .collect())
}

/// By what share of `base` the value `other` is worse.
fn worse_by(base: f64, other: f64, higher_is_better: bool) -> f64 {
    let change = (other - base) / base.abs().max(f64::MIN_POSITIVE);
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// `--repeat N`: 2N untraced suites, alternately in the listed and in the
/// reverse workload order, each on a seed of its own. The even and the odd
/// suites make two sets of one commit's runs; where their medians differ
/// by more than a metric's bound the benchmark cannot resolve that bound,
/// and the exit code says so.
fn run_repeat(options: &Options, repeats: usize) -> ExitCode {
    let bounds = match contract_bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // (workload, metric) → the two sets' values.
    let mut values: BTreeMap<(String, String), [Vec<f64>; 2]> = BTreeMap::new();
    for suite in 0..2 * repeats {
        let set = suite % 2;
        let mut order: Vec<&Spec> = SPECS.iter().collect();
        if set == 1 {
            order.reverse();
        }
        let options = Options {
            seed: options.seed + suite as u64,
            ..*options
        };
        for spec in order {
            let details = run_child(spec, &options, false);
            let Some(metrics) = details.as_ref().and_then(|d| d["metrics"].as_object()) else {
                eprintln!("{}: run failed", spec.name);
                return ExitCode::FAILURE;
            };
            for (name, metric) in metrics.iter() {
                if let Some(value) = metric["value"].as_f64() {
                    values
                        .entry((spec.name.to_owned(), name.clone()))
                        .or_default()[set]
                        .push(value);
                }
            }
        }
    }

    println!(
        "\n{:<14} {:<18} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "A vs B", "spread", "bound"
    );
    let mut agree = true;
    for ((workload, metric), [a, b]) in values.iter_mut() {
        let Some(&(higher, bound)) = bounds.get(metric) else {
            continue;
        };
        let (qa, qb) = (quartiles(a), quartiles(b));
        let apart = worse_by(qa[1], qb[1], higher).abs();
        let mut pooled: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let [q1, q2, q3] = quartiles(&mut pooled);
        let spread = (q3 - q1) / q2;
        let verdict = if apart > bound {
            agree = false;
            "  SETS DISAGREE"
        } else if spread > bound {
            "  spread over bound"
        } else {
            ""
        };
        println!(
            "{workload:<14} {metric:<18} {:>12.4} {:>12.4} {:>8.1}% {:>8.1}% {:>6.0}%{verdict}",
            qa[1],
            qb[1],
            apart * 100.0,
            spread * 100.0,
            bound * 100.0
        );
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--compare A B`: B's end-to-end metrics against A's, by the contract's
/// bounds. Refuses results taken on different core counts or windows.
fn run_compare(a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b, bounds) = match (load(a_path), load(b_path), contract_bounds()) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (a, b, bounds) => {
            for e in [a.err(), b.err(), bounds.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::FAILURE;
        }
    };
    for key in ["nproc", "window_seconds"] {
        if a[key] != b[key] {
            eprintln!(
                "refusing to compare: {key} is {} in {a_path} and {} in {b_path}",
                a[key], b[key]
            );
            return ExitCode::FAILURE;
        }
    }
    let mut regressed = false;
    for spec in &SPECS {
        for (metric, &(higher, bound)) in &bounds {
            let of = |results: &Value| {
                results["workloads"][spec.name]["end_to_end"][metric.as_str()]["value"].as_f64()
            };
            let (Some(base), Some(other)) = (of(&a), of(&b)) else {
                println!("{:<14} {metric:<18} missing", spec.name);
                regressed = true;
                continue;
            };
            let worse = worse_by(base, other, higher);
            let verdict = if worse > bound { "  REGRESSION" } else { "" };
            regressed |= worse > bound;
            println!(
                "{:<14} {metric:<18} {base:>12.4} -> {other:>12.4}  worse by {:>6.1}% (bound {:.0}%){verdict}",
                spec.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
         [--quick] [--out FILE] [--repeat N] [--compare A.json B.json]\nworkloads: {}",
        SPECS.map(|s| s.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut traced = false;
    let mut out = None;
    let mut repeat = None;
    let mut compare = None;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut options = Options {
        seed: 1,
        seconds: 22.0,
        quick: false,
        // The callers share the machine with the server they call, and the
        // server runs each query's walks on up to `nproc` threads of its
        // own: with `nproc` callers there were twice as many runnable
        // threads as cores.
        callers: (nproc / 2).max(1),
    };
    let mut seconds_given = false;

    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        let mut operand = || {
            at += 1;
            args.get(at).cloned()
        };
        let parsed = match flag {
            "--quick" => {
                options.quick = true;
                Some(())
            }
            "--workload" => operand().map(|v| workload = Some(v)),
            "--out" => operand().map(|v| out = Some(v)),
            "--seed" => operand()
                .and_then(|v| v.parse().ok())
                .map(|v| options.seed = v),
            "--seconds" => operand()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| *s > 0.0 && s.is_finite())
                .map(|v| {
                    options.seconds = v;
                    seconds_given = true;
                }),
            "--trace" => operand()
                .filter(|v| v == "0" || v == "1")
                .map(|v| traced = v == "1"),
            "--repeat" => operand()
                .and_then(|v| v.parse().ok())
                .filter(|n: &usize| *n > 0)
                .map(|v| repeat = Some(v)),
            "--compare" => operand().zip(operand()).map(|pair| compare = Some(pair)),
            _ => None,
        };
        if parsed.is_none() {
            return usage(&format!("bad or incomplete option {flag}"));
        }
        at += 1;
    }
    if options.quick && !seconds_given {
        options.seconds = 2.0;
    }

    if let Some((a, b)) = compare {
        return run_compare(&a, &b);
    }
    if let Some(name) = workload {
        return match workloads::spec_named(&name) {
            Some(spec) => run_one(&spec, &options, traced),
            None => usage(&format!("no workload called {name}")),
        };
    }
    match repeat {
        Some(repeats) => run_repeat(&options, repeats),
        None => run_suite(&options, nproc, out),
    }
}
