//! The routes that depend on a journal, over a real loopback server:
//! `POST /checkpoint` and the `durability` section of `GET /stats`, on a
//! journaled system and on a volatile one.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

use bdi_core::durable::Write;
use bdi_core::supersede;
use bdi_core::system::BdiSystem;
use bdi_server::http::client;
use serde_json::json;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bdi-durable-routes-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn doc(k: i64) -> Write {
    Write::InsertDoc("extra".into(), json!({ "k": k }))
}

#[test]
fn a_journaled_system_checkpoints_and_reports_durability() {
    let dir = tmp("journaled");
    let system = BdiSystem::create(&dir, supersede::build_running_example()).expect("create");
    let system = Arc::new(system);
    system.apply(doc(1)).expect("journaled write");
    let server = bdi_server::start(system.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr().to_string();

    let (status, stats) = client::get_stats(&addr).expect("stats");
    assert_eq!(status, 200);
    let durability = &stats["durability"];
    assert!(durability.is_object(), "no durability section: {stats}");
    assert_eq!(durability["records_appended"], json!(1), "{stats}");
    assert_eq!(durability["recovered_snapshot"], json!(false), "{stats}");
    assert_eq!(durability["recovered_replayed"], json!(0), "{stats}");

    let (status, reply) = client::post_checkpoint(&addr).expect("checkpoint");
    assert_eq!(status, 200, "body: {reply}");
    assert_eq!(reply["checkpointed_seq"], json!(1), "{reply}");

    // A write after the checkpoint is in the log only until shutdown
    // checkpoints it.
    system.apply(doc(2)).expect("journaled write");
    drop(server);
    drop(system);
    let reopened = BdiSystem::open(&dir).expect("reopen");
    let recovery = reopened.recovery().expect("journaled");
    assert!(recovery.snapshot_loaded);
    assert_eq!(recovery.replayed, 0);
    assert_eq!(reopened.store().count("extra"), 2);

    let server = bdi_server::start(Arc::new(reopened), "127.0.0.1:0").expect("bind loopback");
    let (_, stats) = client::get_stats(&server.addr().to_string()).expect("stats");
    assert_eq!(stats["durability"]["recovered_snapshot"], json!(true));
    assert_eq!(stats["durability"]["recovered_replayed"], json!(0));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_volatile_system_has_no_checkpoint_route_and_no_durability_section() {
    let system = Arc::new(supersede::build_running_example());
    let server = bdi_server::start(system, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr().to_string();

    let (status, reply) = client::post_checkpoint(&addr).expect("checkpoint");
    assert_eq!(status, 404, "body: {reply}");
    let (status, stats) = client::get_stats(&addr).expect("stats");
    assert_eq!(status, 200);
    assert!(stats.get("durability").is_none(), "{stats}");
}
