use super::context::{adaptive_batch_rows, scan_uses_cache, ExecContext};
use super::operator::{semijoin_probe_plan, Operator, ScanFeeds};
use super::physical::PhysicalPlan;
use super::pool::Batch;
use super::request::{PlanSource, ScanRequest};
use super::{ExecPolicy, PlanError};
use crate::relation::{Relation, Tuple};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;

/// Pulls an operator tree to exhaustion, decoding each batch, and drops
/// it, with any prefetch feeds it still holds.
pub(super) fn drain(
    plan: &PhysicalPlan,
    mut op: Operator<'_>,
    ctx: &ExecContext,
) -> Result<Relation, PlanError> {
    let mut rows: Vec<Tuple> = Vec::new();
    while let Some(batch) = op.next_batch()? {
        rows.extend(ctx.decode_batch(&batch));
    }
    Ok(Relation::new(plan.schema().clone(), rows)?)
}

/// Collects the distinct scan leaves of a plan tree the prefetcher can
/// work ahead on — each tagged with whether the executor will materialize
/// it through the context cache (`true`: warm the shared cell) or pull it
/// cursor-only (`false`: feed it through a bounded queue). Probe scans
/// semi-join passing is about to reduce are skipped entirely (prefetching
/// those would issue the full unreduced scan the sideways pass exists to
/// avoid, *and* pollute the cache with it).
fn collect_prefetch_scans<'p>(
    plan: &'p PhysicalPlan,
    ctx: &ExecContext,
    source: &dyn PlanSource,
    policy: &ExecPolicy,
    out: &mut Vec<(&'p str, &'p ScanRequest, bool)>,
) {
    match plan {
        PhysicalPlan::Scan {
            source: name,
            request,
        } => {
            if !out
                .iter()
                .any(|(s, r, _)| *s == name.as_str() && *r == request)
            {
                let cached = scan_uses_cache(ctx, source, name, request);
                out.push((name, request, cached));
            }
        }
        PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => {
            collect_prefetch_scans(input, ctx, source, policy, out)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            let probe = semijoin_probe_plan(left, right, *left_key, *right_key, source, policy);
            for child in [&**left, &**right] {
                if probe.is_some_and(|p| std::ptr::eq(p, child)) {
                    // The probe chain holds exactly one scan (its injection
                    // site); the executor issues it reduced or
                    // cache-bypassed after the build completes.
                    continue;
                }
                collect_prefetch_scans(child, ctx, source, policy, out);
            }
        }
        PhysicalPlan::Union { inputs } => {
            for input in inputs {
                collect_prefetch_scans(input, ctx, source, policy, out);
            }
        }
    }
}

/// Batches a queued-scan producer may run ahead of its consumer: the
/// bounded queue is the backpressure that keeps one slow (or huge) source
/// from buffering unboundedly while siblings and the pipeline proceed.
pub(crate) const PREFETCH_QUEUE_BATCHES: usize = 4;

/// Threads one query execution may occupy — prefetch producers here, walk
/// executors in the layer above: the machine's parallelism, capped at 16.
pub fn worker_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs a plan to completion against a (possibly shared) context under a
/// runtime [`ExecPolicy`], decoding the result: [`drive_plan`] with the
/// full [`worker_budget`], consumed by the plain pull loop.
///
/// Union nodes deduplicate (set semantics) and emit rows in first-occurrence
/// order; every other operator preserves its input order. Callers wanting
/// the canonical sorted form apply [`Relation::distinct`] themselves.
pub fn execute_plan(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    source: &dyn PlanSource,
    policy: ExecPolicy,
) -> Result<Relation, PlanError> {
    drive_plan(plan, ctx, source, policy, worker_budget(), |op| {
        drain(plan, op, ctx)
    })
}

/// The one plan driver: builds the plan's [`Operator`] tree and hands it to
/// `consume`, which pulls it on the caller's thread. Where there is
/// something to work ahead on, scoped prefetch threads — at most
/// `max_workers` of them — run ahead of the pull:
///
/// * **Cache-destined** scan leaves are warmed concurrently by a worker
///   pool, so a plan over several sources overlaps their scans with each
///   other — and with the join pipeline, which starts pulling immediately
///   and blocks per scan only until *that* scan's shared cache cell is
///   filled.
/// * **Cursor-routed** scan leaves (scans kept out of the cache by the
///   context's value cap) each get a *dedicated* producer thread feeding
///   interned batches through a bounded queue of
///   `PREFETCH_QUEUE_BATCHES` batches. The feed belongs to this
///   execution's operator tree, whose scan leaf consumes it instead of
///   opening its own cursor; dropping the tree disconnects the producer.
///   Concurrent executions on one context never see each other's feeds.
///   Source latency (a remote
///   source's page fetches) overlaps with execution, while the bounded
///   queue exerts backpressure — a slow source can stall only its own
///   producer, never a sibling's, and never buffers more than the queue
///   holds. Producers beyond the worker budget are not spawned; the
///   overflow scans just run as plain cursors.
///
/// Probe scans the semi-join pass is about to reduce are deliberately not
/// prefetched on either path. Memory stays bounded: each in-flight
/// prefetch streams through [`PlanSource::scan_batches`] and holds at most
/// one value-space batch plus (for queued feeds) the bounded queue; what
/// accumulates is the interned (4-bytes-per-cell) form in the shared scan
/// cache, which the plan's operators would have materialized anyway.
/// A budget below two, and a plan with nothing to work ahead on (fewer
/// than two cold cache-destined scans and no cursor-routed one), skip the
/// threads entirely.
pub fn drive_plan<T>(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    source: &dyn PlanSource,
    policy: ExecPolicy,
    max_workers: usize,
    consume: impl for<'o> FnOnce(Operator<'o>) -> Result<T, PlanError>,
) -> Result<T, PlanError> {
    let mut scans = Vec::new();
    collect_prefetch_scans(plan, ctx, source, &policy, &mut scans);
    // Warm scans need no prefetch — on a persistent context a repeated
    // query would otherwise spawn threads just to find every cell filled.
    let cached: Vec<(&str, &ScanRequest)> = scans
        .iter()
        .filter(|(name, request, cached)| *cached && !ctx.scan_resolved(source, name, request))
        .map(|(name, request, _)| (*name, *request))
        .collect();
    let mut queued: Vec<(&str, &ScanRequest)> = scans
        .iter()
        .filter(|(_, _, cached)| !cached)
        .map(|(name, request, _)| (*name, *request))
        .collect();
    queued.truncate(max_workers);
    if max_workers < 2 || (cached.len() < 2 && queued.is_empty()) {
        return consume(Operator::new(plan, ctx, source, policy));
    }
    let warm_workers = if cached.len() >= 2 {
        cached.len().min(max_workers)
    } else {
        0
    };
    let next = AtomicU64::new(0);
    let cached = &cached;
    let next = &next;
    let deadline = policy.deadline;
    std::thread::scope(|s| {
        let mut feeds: ScanFeeds<'_> = Vec::with_capacity(queued.len());
        for &(name, request) in &queued {
            let (tx, rx): (SyncSender<Result<Batch, PlanError>>, _) =
                std::sync::mpsc::sync_channel(PREFETCH_QUEUE_BATCHES);
            feeds.push((name, request, rx));
            s.spawn(move || {
                let batch_rows = adaptive_batch_rows(ctx, source, name, request);
                let batches = match source.scan_batches(name, request, batch_rows) {
                    Ok((batches, _)) => batches,
                    Err(e) => {
                        let _ = tx.send(Err(e.into()));
                        return;
                    }
                };
                for message in ctx.interned(request, batches, deadline) {
                    // A failed send means the operator tree dropped the
                    // feed — stop fetching.
                    if tx.send(message).is_err() {
                        return;
                    }
                }
            });
        }
        for _ in 0..warm_workers {
            s.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some((name, request)) = cached.get(index) else {
                    break;
                };
                // Warm the shared cache cell; an error is re-surfaced
                // (deterministically, from the same cell) when the plan's
                // own scan operator pulls it.
                let _ = ctx.scan(source, name, request, deadline);
            });
        }
        // `consume` cannot return the tree (`T` outlives no `'o`), so the
        // tree is dropped before the scope joins and no producer stays
        // blocked on a full queue nobody reads.
        consume(Operator::with_feeds(plan, ctx, source, policy, feeds))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::plan::test_support::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn prefetched_execution_matches_plain_and_scans_once() {
        let scans = AtomicUsize::new(0);
        let counting = |name: &str, request: &ScanRequest| {
            scans.fetch_add(1, Ordering::SeqCst);
            source(name, request)
        };
        let plan = scan_all("w1", &w1())
            .hash_join(scan_all("w3", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        let reference = run(&plan, &source).unwrap();
        let ctx = ExecContext::new();
        let out = execute_with_workers(&plan, &ctx, &counting, ExecPolicy::default(), 8).unwrap();
        assert_eq!(out.rows(), reference.rows());
        // Prefetch threads and the pulling pipeline share the cache cells:
        // each distinct scan ran exactly once.
        assert_eq!(scans.load(Ordering::SeqCst), 2);
        // Errors surface through the shared cell, prefetched or not.
        let bad = scan_all("w1", &w1())
            .hash_join(scan_all("zz", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        assert!(
            execute_with_workers(&bad, &ExecContext::new(), &source, ExecPolicy::default(), 8)
                .is_err()
        );
    }

    /// Concurrent executions on one context each own their prefetch feeds:
    /// two runs of one over-cap (cursor-routed) scan, whose producers are
    /// held until both have opened the source, each get every row.
    #[test]
    fn concurrent_executions_over_one_cursor_routed_scan_get_every_row() {
        struct Rendezvous {
            inner: Hinted,
            opened: std::sync::Mutex<usize>,
            both: std::sync::Condvar,
        }

        impl PlanSource for Rendezvous {
            fn scan_batches<'a>(
                &'a self,
                name: &str,
                request: &ScanRequest,
                rows: usize,
            ) -> Scanned<'a> {
                let mut opened = self.opened.lock().unwrap();
                *opened += 1;
                self.both.notify_all();
                // Bounded, so a run that opens the source only once cannot
                // hang the test.
                let _ = self
                    .both
                    .wait_timeout_while(opened, std::time::Duration::from_secs(2), |n| *n < 2)
                    .unwrap();
                self.inner.scan_batches(name, request, rows)
            }

            fn scan_hint(&self, name: &str, request: &ScanRequest) -> Option<u64> {
                self.inner.scan_hint(name, request)
            }
        }

        let src = Rendezvous {
            inner: Hinted::new(true),
            opened: std::sync::Mutex::new(0),
            both: std::sync::Condvar::new(),
        };
        let plan = scan_all("big", &Hinted::relation("big"));
        let expected = run(&plan, &Hinted::new(true)).unwrap();
        let ctx = ExecContext::new().with_value_cap(1024);
        let outs: Vec<Relation> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        execute_with_workers(&plan, &ctx, &src, ExecPolicy::default(), 2).unwrap()
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        for out in &outs {
            assert_eq!(out.rows(), expected.rows());
        }
        assert_eq!(ctx.cached_scans(), 0);
        assert_eq!(src.inner.requests_for("big").len(), 2);
    }

    #[test]
    fn semijoin_survives_prefetched_execution() {
        // The prefetcher must not warm (and cache) the probe scan the
        // sideways pass is about to reduce: wbig is scanned exactly once,
        // already carrying the IN-set.
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let out =
            execute_with_workers(&w3_wbig_join(), &ctx, &src, ExecPolicy::default(), 8).unwrap();
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        let probe_requests = src.requests_for("wbig");
        assert_eq!(probe_requests.len(), 1);
        assert_eq!(probe_requests[0].filters().len(), 1);
        assert_eq!(ctx.cached_scans(), 1);
    }
}
