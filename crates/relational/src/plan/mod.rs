//! Physical plans and the streaming batch executor.
//!
//! The logical layer ([`crate::algebra::RelExpr`] evaluated through
//! [`crate::ops`]) stays the executable specification of §2.2: eager,
//! tuple-at-a-time, cloning every surviving row at every operator. This
//! module is the engine production queries actually run on:
//!
//! * a [`PhysicalPlan`] of **scan / project / filter / hash-join / union**
//!   nodes, with attribute renames fused into the scans' [`ScanRequest`]s so
//!   they cost nothing at run time;
//! * a `ValuePool` interning every scalar once, so operators move rows of
//!   `u32` ids instead of cloning [`Value`](crate::Value)s — interning respects `Value`
//!   equality (`Int(2)` and `Float(2.0)` share an id), which makes id
//!   comparison exactly value comparison for joins and dedup;
//! * pull-based [`Operator`]s yielding bounded [`Batch`]es of interned rows;
//! * an [`ExecContext`] that caches interned scans and hash-join build sides
//!   keyed by `(scan, key attribute)`, so plans sharing a wrapper — walks in
//!   one rewriting almost always do — pay for each scan and build once. The
//!   context is `Sync`; per-walk plans can execute on scoped threads against
//!   a shared context.
//!
//! ## The scan contract
//!
//! The executor reaches a source through one required method,
//! [`PlanSource::scan_batches`] — the rows a [`ScanRequest`] asks for, as a
//! stream of bounded value-space batches, plus a [`ScanMark`] when the
//! source can say how far it read — and one optional one,
//! [`PlanSource::resume_batches`], which reads on from a mark. The contract
//! (shape, order, pushdown, marks) is documented once, on the trait;
//! [`ScanRequest::apply`] is its reference semantics, what a source
//! without native pushdown does to its full relation.
//!
//! Sources advertise per-filter capability through [`PlanSource::claims`]:
//! plan compilers hand a source only the filters it claims, and evaluate
//! the *residue* — whatever was not claimed — in a mediator-side
//! [`PhysicalPlan::Filter`] above the scan, so answers are identical
//! whatever a source can natively honour.
//!
//! Whatever consumes a scan — the scan cache's fill or a cursor-only scan
//! — pulls it through one loop (`InternedBatches`): one source batch at a
//! time, the deadline checked and the rows interned before the next is
//! pulled, so no whole value-space relation ever materializes in the
//! mediator. [`PlanSource::data_version`] stamps each scan with the
//! source's data generation — the [`ExecContext`] scan cache keys on it, so
//! contexts reused across queries can never serve rows scanned before a
//! source mutation. Every plan is pulled on its caller's thread: a scan is
//! issued when the pipeline first pulls it, and the only parallelism is
//! the caller's (the walk pool of `bdi_core::exec`).
//!
//! ## Append-aware scans
//!
//! A cached scan is derived data; when its source grows it is maintained,
//! not rebuilt. On a scan-cache miss the [`ExecContext`] looks for the same
//! scan cached under an older data version, hands its mark to
//! [`PlanSource::resume_batches`] and appends the delta to that table, so a
//! read that follows an append costs O(records appended); a source that
//! declines is scanned in full. Table and mark are published together, and
//! an older version is retired only once its successor is complete; every
//! fill, resumed or full, also retires the versions it supersedes, so a
//! context holds one entry per scan however many versions went by.
//!
//! ## Runtime policy: semi-join sideways passing & cursor-only scans
//!
//! [`execute_plan`] and [`Operator::new`] take an [`ExecPolicy`] (separate
//! from the plan — the same compiled plan runs under any policy):
//!
//! * **Semi-join sideways information passing**
//!   ([`ExecPolicy::semijoin_max_keys`]): a hash join schedules its build
//!   side first — chosen by the sources' [`PlanSource::scan_hint`] row
//!   estimates, mirroring the eager smaller-side rule when hints are exact —
//!   and, when the build side's distinct key set is small enough, injects it
//!   as an IN-set [`ColumnFilter`] into the probe child's scan request
//!   *before* the probe scan is issued. Rows the join would discard are then
//!   never shipped out of the source at all. The IN-set is injected only
//!   when the source claims it ([`PlanSource::claims`]); otherwise the probe
//!   scan runs unreduced and the join's own hash probe is the residual
//!   semi-join, so answers are identical either way. A key-reduced probe
//!   scan is query-specific and always bypasses the scan cache — which is
//!   why the pass only fires when the key set promises a real reduction
//!   (`semijoin_pays`: keys against the probe key column's *distinct*
//!   count where the source publishes sketches, not against its rows), and
//!   never for a probe scan that is already cached, or one resume away
//!   from it. When the build side's key set exceeds `semijoin_max_keys`
//!   (up to [`BLOOM_SEMIJOIN_MAX_KEYS`]), the pass degrades to a **bloom
//!   semi-join**: a compact [`Predicate::Bloom`] membership filter built
//!   from the live build keys is injected instead of the IN-set. Its false
//!   positives only admit extra probe rows the join's hash probe then
//!   discards, so answers stay identical to the eager reference.
//!
//! **Cursor-only scans** are not a policy but a decision the executor takes
//! from what it can see (`scan_uses_cache`): a scan whose estimated
//! interned size exceeds the context's value-cap watermark
//! ([`ExecContext::with_value_cap`]) pulls interned batches straight
//! through instead of materializing the whole table in the [`ExecContext`]
//! cache — the mediator's resident footprint for such a scan is one batch,
//! making sources larger than RAM (even in id space) queryable. An uncapped
//! context, or a source that publishes no size hint, caches everything.
//!
//! ## Files
//!
//! * `request.rs` — what a scan asks for ([`ScanRequest`], [`Predicate`])
//!   and the source contract ([`PlanSource`], [`ScanMark`]);
//! * `physical.rs` — [`PhysicalPlan`] and its checked constructors;
//! * `pool.rs` — interning (`ValuePool`) and id-space rows ([`Batch`],
//!   [`RowSet`]);
//! * `context.rs` — [`ExecContext`]: the pool, the scan and build caches,
//!   and the per-scan decisions (cached or cursor-only, batch size);
//! * `operator.rs` — the pull operators ([`Operator`]) and the semi-join
//!   gate;
//! * `driver.rs` — [`execute_plan`], which pulls a plan's operator tree
//!   and decodes what it pulls, and the [`worker_budget`].

mod context;
mod driver;
mod operator;
mod physical;
mod pool;
mod request;

pub use context::{ContextCounters, ExecContext};
pub use driver::{execute_plan, worker_budget};
pub use operator::Operator;
pub use physical::PhysicalPlan;
pub use pool::{Batch, RowSet};
pub use request::{
    batches_from_relation, BatchIter, Bound, ColumnFilter, PlanSource, Predicate, ScanMark,
    ScanRequest,
};

use crate::relation::RelationError;
use std::time::Instant;

/// Upper bound on rows per [`Batch`] yielded by the streaming operators.
pub const BATCH_ROWS: usize = 1024;

/// Default [`ExecPolicy::semijoin_max_keys`]: IN-sets beyond this are more
/// expensive to evaluate source-side than the rows they would save.
pub const DEFAULT_SEMIJOIN_MAX_KEYS: usize = 16 * 1024;

/// Selectivity gate for the sideways pass ([`semijoin_pays`]): the
/// build-key set is injected only when it promises at least this reduction
/// factor over the probe scan. A non-selective join — every probe row
/// surviving — would pay the source-side membership probes *and* forfeit
/// probe-scan cache sharing across walks and queries, for zero rows saved.
const SEMIJOIN_SELECTIVITY: u64 = 4;

/// Upper bound on build-side distinct keys for the *bloom* degradation of
/// the sideways pass. A bloom filter over this many keys is ~1.25 MiB —
/// past that, shipping and probing the filter stops paying for itself.
pub const BLOOM_SEMIJOIN_MAX_KEYS: usize = 1 << 20;

/// Row-id cells a stats-gated cache admission may store per value-cap
/// unit. The stats path of `scan_uses_cache` bounds *pool* growth by
/// per-column distinct counts, but the cached [`Batch`] itself stores
/// post-filter rows × arity `u32` ids however few distinct values they
/// decode to — this factor caps that storage relative to the value cap,
/// weighting a 4-byte id cell against an interned [`Value`] plus its pool
/// overhead (conservatively this many id cells per value).
const SCAN_CACHE_ID_CELLS_PER_VALUE: u64 = 8;

/// Runtime execution policy, orthogonal to the compiled [`PhysicalPlan`]:
/// the same plan executes under any policy, and answers never depend on it
/// (pinned differentially against the eager engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecPolicy {
    /// Semi-join sideways passing: when a hash join's build side has at most
    /// this many distinct keys, they are injected as an IN-set filter into
    /// the probe child's scan request (when the source claims it). Past
    /// it (but within [`BLOOM_SEMIJOIN_MAX_KEYS`]) a [`Predicate::Bloom`]
    /// membership filter over the live build keys is injected instead;
    /// its false positives only admit extra probe rows that the join's own
    /// hash probe discards, so answers are unaffected either way. `0`
    /// disables the sideways pass entirely, including the bloom degradation
    /// and the hint-driven build scheduling that enables it.
    pub semijoin_max_keys: usize,
    /// Absolute wall-clock deadline for the execution. Checked at every
    /// batch boundary (operator pulls, scan-cache fills, cursor pulls), so
    /// a stalled or slow source surfaces [`PlanError::DeadlineExceeded`]
    /// instead of hanging the query. The worst-case overshoot is one source
    /// batch fetch — the executor never cancels a fetch already in flight.
    /// `None` (the default) never times out.
    pub deadline: Option<Instant>,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self {
            semijoin_max_keys: DEFAULT_SEMIJOIN_MAX_KEYS,
            deadline: None,
        }
    }
}

impl ExecPolicy {
    /// Whether this policy's deadline (if any) has already passed.
    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Errors raised while building or executing physical plans.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum PlanError {
    #[error(transparent)]
    Relation(#[from] RelationError),
    /// The execution ran past [`ExecPolicy::deadline`] and was aborted at
    /// the next batch boundary.
    #[error("query deadline exceeded")]
    DeadlineExceeded,
    #[error("projection index {index} out of range for schema {schema}")]
    ProjectionRange { index: usize, schema: String },
    #[error("union of zero plans")]
    EmptyUnion,
    #[error("union inputs have incompatible schemas: {left} vs {right}")]
    UnionShape { left: String, right: String },
}

#[cfg(test)]
mod test_support {
    use super::*;
    use crate::relation::{Relation, Tuple};
    use crate::schema::Schema;
    use crate::stats::TableStats;
    use crate::value::Value;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// [`execute_plan`] under the default policy, on a fresh context.
    pub(super) fn run(plan: &PhysicalPlan, source: &dyn PlanSource) -> Result<Relation, PlanError> {
        run_in(plan, &ExecContext::new(), source)
    }

    pub(super) fn run_in(
        plan: &PhysicalPlan,
        ctx: &ExecContext,
        source: &dyn PlanSource,
    ) -> Result<Relation, PlanError> {
        execute_plan(plan, ctx, source, ExecPolicy::default())
    }

    pub(super) fn w1() -> Relation {
        Relation::new(
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
            vec![
                vec![Value::Int(12), Value::Float(0.75)],
                vec![Value::Int(12), Value::Float(0.90)],
                vec![Value::Int(18), Value::Float(0.1)],
            ],
        )
        .unwrap()
    }

    pub(super) fn w3() -> Relation {
        Relation::new(
            Schema::from_parts::<&str>(&["TargetApp", "MonitorId", "FeedbackId"], &[]).unwrap(),
            vec![
                vec![Value::Int(1), Value::Int(12), Value::Int(77)],
                vec![Value::Int(2), Value::Int(18), Value::Int(45)],
            ],
        )
        .unwrap()
    }

    pub(super) fn source(name: &str, request: &ScanRequest) -> Result<Relation, RelationError> {
        match name {
            "w1" => request.apply(&w1()),
            "w3" => request.apply(&w3()),
            other => Err(RelationError::Source(format!("unknown source {other}"))),
        }
    }

    pub(super) type Scanned<'a> = Result<(BatchIter<'a>, Option<ScanMark>), RelationError>;

    /// What a source that answers a request whole returns from
    /// `scan_batches`: the relation re-chunked, unmarked.
    pub(super) fn whole(
        relation: Relation,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Scanned<'static> {
        Ok((batches_from_relation(relation, request, batch_rows)?, None))
    }

    pub(super) fn scan_all(name: &str, rel: &Relation) -> PhysicalPlan {
        PhysicalPlan::scan(name, ScanRequest::full(rel.schema()))
    }

    /// A source with exact row hints that records every scan request it
    /// receives — the instrument pinning the semi-join sideways pass.
    pub(super) struct Hinted {
        pub(super) requests: std::sync::Mutex<Vec<(String, ScanRequest)>>,
        claim_in_sets: bool,
    }

    impl Hinted {
        pub(super) fn new(claim_in_sets: bool) -> Self {
            Self {
                requests: std::sync::Mutex::new(Vec::new()),
                claim_in_sets,
            }
        }

        pub(super) fn requests_for(&self, name: &str) -> Vec<ScanRequest> {
            self.requests
                .lock()
                .unwrap()
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, r)| r.clone())
                .collect()
        }

        pub(super) fn relation(name: &str) -> Relation {
            match name {
                "w1" => w1(),
                "w3" => w3(),
                "wbig" => wbig(),
                // An empty source sharing w3's join column.
                "w_empty" => Relation::empty(w3().schema().clone()),
                // 5000 rows over a 16-value domain.
                "big" => Relation::new(
                    Schema::from_parts::<&str>(&["id"], &[]).unwrap(),
                    (0..5000).map(|i| vec![Value::Int(i % 16)]).collect(),
                )
                .unwrap(),
                other => panic!("unknown source {other}"),
            }
        }
    }

    impl PlanSource for Hinted {
        fn scan_batches<'a>(
            &'a self,
            name: &str,
            request: &ScanRequest,
            rows: usize,
        ) -> Scanned<'a> {
            self.requests
                .lock()
                .unwrap()
                .push((name.to_owned(), request.clone()));
            whole(request.apply(&Self::relation(name))?, request, rows)
        }

        fn scan_hint(&self, name: &str, _request: &ScanRequest) -> Option<u64> {
            Some(Self::relation(name).len() as u64)
        }

        fn claims(&self, _source: &str, filter: &ColumnFilter) -> bool {
            self.claim_in_sets || !matches!(filter.predicate, Predicate::In(_))
        }
    }

    pub(super) fn w1_w3_join() -> PhysicalPlan {
        scan_all("w1", &w1())
            .hash_join(scan_all("w3", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap()
    }

    /// A 12-row probe relation (`BigId` 10..=21) sharing w3's key domain —
    /// big enough that w3's two build keys pass the selectivity gate.
    pub(super) fn wbig() -> Relation {
        Relation::new(
            Schema::from_parts(&["BigId"], &["load"]).unwrap(),
            (0..12)
                .map(|r| vec![Value::Int(10 + r), Value::Float(r as f64 / 4.0)])
                .collect(),
        )
        .unwrap()
    }

    pub(super) fn w3_wbig_join() -> PhysicalPlan {
        scan_all("w3", &w3())
            .hash_join(scan_all("wbig", &wbig()), "MonitorId", "BigId")
            .unwrap()
    }

    // -- Append-aware scans -------------------------------------------------

    /// An append-only source `wgrow` (wbig's schema) that marks its scans
    /// and resumes from a mark, beside the static `w3`. Its data version
    /// and its hint are its row count; `clear` starts a new epoch.
    pub(super) struct Growing {
        pub(super) rows: std::sync::Mutex<Vec<Tuple>>,
        pub(super) epoch: AtomicU64,
        pub(super) full_reads: AtomicUsize,
        resumed_reads: AtomicUsize,
        /// While set, every read of `wgrow` fails after its first row.
        pub(super) failing: std::sync::atomic::AtomicBool,
        /// Publish sketches (the semi-join gate's input) or not.
        with_stats: bool,
        pub(super) requests: std::sync::Mutex<Vec<ScanRequest>>,
    }

    impl Growing {
        pub(super) fn new(rows: Vec<Tuple>, with_stats: bool) -> Self {
            Self {
                rows: std::sync::Mutex::new(rows),
                epoch: AtomicU64::new(0),
                full_reads: AtomicUsize::new(0),
                resumed_reads: AtomicUsize::new(0),
                failing: std::sync::atomic::AtomicBool::new(false),
                with_stats,
                requests: std::sync::Mutex::new(Vec::new()),
            }
        }

        pub(super) fn push(&self, id: i64, load: f64) {
            self.rows
                .lock()
                .unwrap()
                .push(vec![Value::Int(id), Value::Float(load)]);
        }

        pub(super) fn relation(&self, from: usize) -> Relation {
            let rows = self.rows.lock().unwrap()[from..].to_vec();
            Relation::new(wbig().schema().clone(), rows).unwrap()
        }
    }

    impl Growing {
        /// One read of `wgrow` from row `start`: the rows the request keeps
        /// and the mark covering every row present now.
        fn read<'a>(
            &'a self,
            request: &ScanRequest,
            batch_rows: usize,
            start: usize,
        ) -> Result<(BatchIter<'a>, ScanMark), RelationError> {
            self.requests.lock().unwrap().push(request.clone());
            let total = self.rows.lock().unwrap().len();
            let counter = if start > 0 {
                &self.resumed_reads
            } else {
                &self.full_reads
            };
            counter.fetch_add(1, Ordering::SeqCst);
            let relation = request.apply(&self.relation(start))?;
            let batches: BatchIter<'a> = if self.failing.load(Ordering::SeqCst) {
                let first: Vec<Tuple> = relation.into_rows().into_iter().take(1).collect();
                Box::new(
                    vec![
                        Ok(first),
                        Err(RelationError::Source("wgrow went away".into())),
                    ]
                    .into_iter(),
                )
            } else {
                batches_from_relation(relation, request, batch_rows)?
            };
            let mark = ScanMark::new(self.epoch.load(Ordering::SeqCst), total as u64);
            Ok((batches, mark))
        }
    }

    impl PlanSource for Growing {
        fn scan_batches<'a>(
            &'a self,
            name: &str,
            request: &ScanRequest,
            rows: usize,
        ) -> Scanned<'a> {
            match name {
                "wgrow" => {
                    let (batches, mark) = self.read(request, rows, 0)?;
                    Ok((batches, Some(mark)))
                }
                "w3" => whole(request.apply(&w3())?, request, rows),
                other => Err(RelationError::Source(format!("unknown source {other}"))),
            }
        }

        fn resume_batches<'a>(
            &'a self,
            name: &str,
            request: &ScanRequest,
            batch_rows: usize,
            mark: &ScanMark,
        ) -> Result<Option<(BatchIter<'a>, ScanMark)>, RelationError> {
            let total = self.rows.lock().unwrap().len() as u64;
            if name != "wgrow"
                || mark.epoch() != self.epoch.load(Ordering::SeqCst)
                || mark.consumed() > total
            {
                return Ok(None);
            }
            self.read(request, batch_rows, mark.consumed() as usize)
                .map(Some)
        }

        fn data_version(&self, name: &str) -> u64 {
            match name {
                "wgrow" => self.rows.lock().unwrap().len() as u64,
                _ => 0,
            }
        }

        fn scan_hint(&self, name: &str, _request: &ScanRequest) -> Option<u64> {
            Some(match name {
                "wgrow" => self.rows.lock().unwrap().len() as u64,
                _ => w3().len() as u64,
            })
        }

        fn stats(&self, name: &str) -> Option<Arc<TableStats>> {
            if !self.with_stats || name != "wgrow" {
                return None;
            }
            let mut builder = crate::stats::StatsBuilder::new(wbig().schema().names());
            for row in self.rows.lock().unwrap().iter() {
                builder.observe_row(row);
            }
            Some(Arc::new(builder.snapshot(self.data_version(name))))
        }
    }

    pub(super) fn wgrow_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|r| vec![Value::Int(10 + r % 12), Value::Float(r as f64 / 4.0)])
            .collect()
    }

    pub(super) fn w3_wgrow_join() -> PhysicalPlan {
        scan_all("w3", &w3())
            .hash_join(scan_all("wgrow", &wbig()), "MonitorId", "BigId")
            .unwrap()
    }
}
