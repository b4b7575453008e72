//! `serve` — the SUPERSEDE running example behind the HTTP front end.
//!
//! ```text
//! cargo run --bin serve                      # bind 127.0.0.1:7687, volatile
//! cargo run --bin serve -- 127.0.0.1:8080    # bind elsewhere
//! cargo run --bin serve -- --data-dir DIR    # durable: recover-or-seed DIR,
//!                                            # journal writes, POST /checkpoint
//! cargo run --bin serve -- --probe ADDR      # client mode: one query +
//!                                            # one /stats scrape; exits
//!                                            # non-zero on any non-2xx
//! cargo run --bin serve -- --checkpoint ADDR # client mode: POST /checkpoint
//! ```
//!
//! With `--data-dir`, the first boot seeds the directory with the running
//! example (initial snapshot image + empty WAL); every later boot recovers
//! whatever the directory holds — snapshot, WAL replay, torn-tail
//! amputation included. The probe mode is what the CI `serve-smoke` and
//! `crash-smoke` jobs drive a freshly (re)started server with.

use bdi::core::durable::DurableError;
use bdi::core::supersede;
use bdi::core::system::BdiSystem;
use bdi_server::http::client;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--probe") => match args.get(1) {
            Some(addr) => probe(addr),
            None => {
                eprintln!("usage: serve --probe ADDR");
                ExitCode::FAILURE
            }
        },
        Some("--checkpoint") => match args.get(1) {
            Some(addr) => checkpoint(addr),
            None => {
                eprintln!("usage: serve --checkpoint ADDR");
                ExitCode::FAILURE
            }
        },
        Some("--help" | "-h") => {
            println!("usage: serve [ADDR] [--data-dir DIR] | --probe ADDR | --checkpoint ADDR");
            ExitCode::SUCCESS
        }
        _ => {
            let mut addr = "127.0.0.1:7687".to_owned();
            let mut data_dir: Option<String> = None;
            let mut iter = args.iter();
            while let Some(arg) = iter.next() {
                if arg == "--data-dir" {
                    match iter.next() {
                        Some(dir) => data_dir = Some(dir.clone()),
                        None => {
                            eprintln!("serve: --data-dir needs a directory");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    addr = arg.clone();
                }
            }
            run_server(&addr, data_dir.as_deref())
        }
    }
}

fn run_server(addr: &str, data_dir: Option<&str>) -> ExitCode {
    let system = match data_dir {
        None => supersede::build_running_example(),
        Some(dir) => match open_or_seed(dir) {
            Ok(system) => system,
            Err(e) => {
                eprintln!("serve: cannot open data dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if let (Some(dir), Some(recovery)) = (data_dir, system.recovery()) {
        println!(
            "data dir {dir}: snapshot={} replayed={} torn_tail={:?}",
            recovery.snapshot_loaded, recovery.replayed, recovery.wal_truncated_at
        );
    }
    let handle = match bdi_server::start(Arc::new(system), addr) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("serving on http://{}", handle.addr());
    println!("  POST /query   GET /stats   POST /checkpoint");
    loop {
        std::thread::park();
    }
}

/// Recovers an initialised data directory, or seeds a fresh one with the
/// running example so the very first boot already answers Table 2.
fn open_or_seed(dir: &str) -> Result<BdiSystem, DurableError> {
    let dir_path = Path::new(dir);
    if dir_path.join(bdi::core::durable::SNAPSHOT_FILE).exists()
        || dir_path.join(bdi::core::durable::WAL_FILE).exists()
    {
        BdiSystem::open(dir)
    } else {
        BdiSystem::create(dir, supersede::build_running_example())
    }
}

fn probe(addr: &str) -> ExitCode {
    let query = serde_json::json!({"sparql": (supersede::exemplary_query())});
    let (status, body) = match client::post_query(addr, &query) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("probe: POST /query failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("POST /query → {status}: {body}");
    if !(200..300).contains(&status) {
        return ExitCode::FAILURE;
    }
    let (status, body) = match client::get_stats(addr) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("probe: GET /stats failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("GET /stats → {status}: {body}");
    if !(200..300).contains(&status) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn checkpoint(addr: &str) -> ExitCode {
    let (status, body) = match client::post_checkpoint(addr) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("checkpoint: POST /checkpoint failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("POST /checkpoint → {status}: {body}");
    if (200..300).contains(&status) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
