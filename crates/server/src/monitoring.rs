//! The monitoring op: `GET /stats` — every counter surface the system
//! exposes, one JSON document. What an ops dashboard (or the CI smoke job)
//! scrapes.

use crate::Backend;
use serde_json::json;

/// Renders the stats document.
pub(crate) fn stats(backend: &Backend) -> String {
    let system = backend.system();
    let plan_cache = system.plan_cache_stats();
    let contexts = system.context_stats();
    let planner = system.planner_stats();
    let retries = system.retry_stats();
    let durability = backend.durable().map(|durable| {
        let stats = durable.durability_stats();
        let recovery = durable.recovery();
        json!({
            "last_seq": (stats.last_seq),
            "records_appended": (stats.wal.records_appended),
            "bytes_appended": (stats.wal.bytes_appended),
            "fsyncs": (stats.wal.fsyncs),
            "checkpoints": (stats.checkpoints),
            "poisoned": (stats.poisoned),
            "recovered_snapshot": (recovery.snapshot_loaded),
            "recovered_replayed": (recovery.replayed),
        })
    });
    let mut doc = json!({
        "plan_cache": {
            "entries": (plan_cache.entries),
            "hits": (plan_cache.hits),
            "misses": (plan_cache.misses),
            "rewrite_hits": (plan_cache.rewrite_hits),
        },
        "contexts": {
            "pooled_values": (contexts.pooled_values),
            "approx_bytes": (contexts.approx_bytes),
            "cached_scans": (contexts.cached_scans),
            "peak_bytes": (contexts.peak_bytes),
            "peak_pooled_values": (contexts.peak_pooled_values),
            "resumed_scans": (contexts.resumed_scans),
            "resumed_rows": (contexts.resumed_rows),
            "full_scans": (contexts.full_scans),
        },
        "planner": {
            "cost_based_plans": (planner.cost_based_plans),
            "syntactic_plans": (planner.syntactic_plans),
            "semijoin_insets": (planner.semijoin_insets),
            "semijoin_blooms": (planner.semijoin_blooms),
        },
        "retries": {
            "attempts": (retries.attempts),
            "retries": (retries.retries),
            "pages": (retries.pages),
            "transient_errors": (retries.transient_errors),
            "permanent_failures": (retries.permanent_failures),
            "timeouts": (retries.timeouts),
        },
    });
    if let (Some(section), Some(obj)) = (durability, doc.as_object_mut()) {
        obj.insert("durability".to_owned(), section);
    }
    doc.to_string()
}
