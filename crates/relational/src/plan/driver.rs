use super::context::ExecContext;
use super::operator::Operator;
use super::physical::PhysicalPlan;
use super::request::PlanSource;
use super::{ExecPolicy, PlanError};
use crate::relation::{Relation, Tuple};

/// Threads one query execution may occupy — its walk executors: the
/// machine's parallelism, capped at 16.
pub fn worker_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs a plan to completion against a (possibly shared) context under a
/// runtime [`ExecPolicy`], decoding the result: the plan's [`Operator`]
/// tree, pulled on the caller's thread. Every pull checks the policy's
/// deadline.
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
    let mut op = Operator::new(plan, ctx, source, policy);
    let mut rows: Vec<Tuple> = Vec::new();
    while let Some(batch) = op.next_batch()? {
        rows.extend(ctx.decode_batch(&batch));
    }
    Ok(Relation::new(plan.schema().clone(), rows)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::plan::test_support::*;
    use crate::plan::ScanRequest;
    use crate::relation::RelationError;
    use crate::value::Value;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn execute_plan_runs_each_distinct_scan_once() {
        let scans = AtomicUsize::new(0);
        let counting = |name: &str, request: &ScanRequest| {
            scans.fetch_add(1, Ordering::SeqCst);
            source(name, request)
        };
        let join = scan_all("w1", &w1())
            .hash_join(scan_all("w3", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        let reference = ops::join(&w1(), &w3(), "VoDmonitorId", "MonitorId").unwrap();
        let plan = PhysicalPlan::union(vec![join.clone(), join]).unwrap();
        let ctx = ExecContext::new();
        let out = execute_plan(&plan, &ctx, &counting, ExecPolicy::default()).unwrap();
        assert_eq!(out.rows(), reference.rows());
        // Both union branches pull through the shared cache cells: each
        // distinct scan ran exactly once.
        assert_eq!(scans.load(Ordering::SeqCst), 2);
        // Errors surface through the shared cell.
        let bad = scan_all("w1", &w1())
            .hash_join(scan_all("zz", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        assert!(execute_plan(&bad, &ExecContext::new(), &source, ExecPolicy::default()).is_err());
    }

    /// Concurrent executions on one context each open their own cursor:
    /// two runs of one over-cap (cursor-routed) scan, held until both have
    /// opened the source, each get every row.
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
                    .wait_timeout_while(opened, Duration::from_secs(2), |n| *n < 2)
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
                    s.spawn(|| execute_plan(&plan, &ctx, &src, ExecPolicy::default()).unwrap())
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
    fn execute_plan_scans_the_reduced_probe_once() {
        // wbig is scanned exactly once, already carrying the IN-set, and
        // the reduced scan stays out of the cache.
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let out = execute_plan(&w3_wbig_join(), &ctx, &src, ExecPolicy::default()).unwrap();
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        let probe_requests = src.requests_for("wbig");
        assert_eq!(probe_requests.len(), 1);
        assert_eq!(probe_requests[0].filters().len(), 1);
        assert_eq!(ctx.cached_scans(), 1);
    }

    /// A cursor-only scan over a source that takes ~20 ms per batch stops
    /// at the deadline: the pull checks it between source batches, so the
    /// overshoot is at most one batch fetch.
    #[test]
    fn a_slow_cursor_only_scan_stops_at_the_deadline() {
        const BATCHES: i64 = 100;
        struct Slow;

        impl PlanSource for Slow {
            fn scan_batches<'a>(
                &'a self,
                _name: &str,
                _request: &ScanRequest,
                _rows: usize,
            ) -> Scanned<'a> {
                let batches = (0..BATCHES).map(|i| {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok::<_, RelationError>(vec![vec![Value::Int(i)]])
                });
                Ok((Box::new(batches), None))
            }

            fn scan_hint(&self, _name: &str, _request: &ScanRequest) -> Option<u64> {
                Some(BATCHES as u64)
            }
        }

        let schema = crate::schema::Schema::from_parts::<&str>(&["id"], &[]).unwrap();
        let plan = PhysicalPlan::scan("slow", ScanRequest::full(&schema));
        // 100 hinted cells against a cap of 16: the scan runs cursor-only.
        let ctx = ExecContext::new().with_value_cap(16);
        let budget = Duration::from_millis(100);
        let started = Instant::now();
        let policy = ExecPolicy {
            deadline: Some(started + budget),
            ..ExecPolicy::default()
        };
        let out = execute_plan(&plan, &ctx, &Slow, policy);
        assert_eq!(out.unwrap_err(), PlanError::DeadlineExceeded);
        assert!(started.elapsed() < 2 * budget, "{:?}", started.elapsed());
        assert_eq!(ctx.cached_scans(), 0);
    }
}
