use super::context::{scan_uses_cache, ExecContext, InternedBatches, JoinIndex, ScanKey};
use super::physical::PhysicalPlan;
use super::pool::{Batch, RowSet};
use super::request::{ColumnFilter, PlanSource, Predicate, ScanRequest};
use super::{ExecPolicy, PlanError, BATCH_ROWS, BLOOM_SEMIJOIN_MAX_KEYS, SEMIJOIN_SELECTIVITY};
use crate::stats::BloomFilter;
use std::sync::atomic::Ordering;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Whether injecting `keys` distinct build keys into the probe scan of
/// `probe_column` promises a [`SEMIJOIN_SELECTIVITY`]-fold reduction,
/// checked by `OpNode::init_join` with the build index's live key count.
///
/// A key set keeps about `keys / distinct(probe key column)` of the probe's
/// rows, so when the probe source publishes [`TableStats`] the keys are
/// compared with that column's distinct count (capped by the hinted rows, a
/// filtered probe holding fewer): 64 keys do not reduce a 10 000-row probe
/// whose key column holds those same 64 values, however many rows carry
/// them. Without stats the rows are all there is to compare with — exact
/// for a unique key column, optimistic otherwise.
fn semijoin_pays(
    source: &dyn PlanSource,
    keys: u64,
    probe_rows: u64,
    probe_source: &str,
    probe_column: &str,
) -> bool {
    let needed = keys.saturating_mul(SEMIJOIN_SELECTIVITY);
    // The rows bound the distinct count, so a key set that fails against
    // them fails either way — without a sketch lookup per join.
    needed <= probe_rows
        && source
            .stats(probe_source)
            .and_then(|stats| Some(stats.column(probe_column)?.distinct))
            .is_none_or(|distinct| needed <= distinct)
}

/// A pull-based streaming operator tree compiled from a [`PhysicalPlan`],
/// bound to the context and source it executes against (cursor-only scans
/// hold live source batch iterators, so the borrow lives in the operator).
/// Each [`Operator::next_batch`] call yields at most [`BATCH_ROWS`] rows.
pub struct Operator<'r> {
    ctx: &'r ExecContext,
    source: &'r dyn PlanSource,
    policy: ExecPolicy,
    node: OpNode<'r>,
}

/// A scan leaf's execution state.
struct ScanOp<'r> {
    source: String,
    request: ScanRequest,
    /// Set when the semi-join pass injected a build-key IN-set: the scan is
    /// query-specific and must bypass (not pollute) the shared scan cache.
    semijoin_reduced: bool,
    state: ScanState<'r>,
}

enum ScanState<'r> {
    /// Mode not yet decided — the first pull (or a sideways injection
    /// before it) settles cached vs cursor-only.
    Pending,
    /// Serving slices of the shared cached interned table.
    Cached { table: Arc<Batch>, cursor: usize },
    /// Cursor-only: interned batches pulled straight from the source, one
    /// at a time — nothing is cached, peak residency is one batch.
    Cursor { batches: InternedBatches<'r> },
}

enum OpNode<'r> {
    Scan(ScanOp<'r>),
    Project {
        input: Box<OpNode<'r>>,
        indices: Vec<usize>,
    },
    HashJoin {
        left: Box<OpNode<'r>>,
        right: Box<OpNode<'r>>,
        left_key: usize,
        right_key: usize,
        left_scan: Option<ScanKey>,
        right_scan: Option<ScanKey>,
        arity: usize,
        state: Option<JoinState>,
    },
    /// Executes [`PhysicalPlan::Union`]: only unit tests reach it today,
    /// and factorised rewriting builds its unions under joins on it.
    Union {
        inputs: Vec<OpNode<'r>>,
        current: usize,
        seen: RowSet,
        arity: usize,
    },
}

struct JoinState {
    build: Arc<Batch>,
    index: Arc<JoinIndex>,
    build_is_left: bool,
    probe_key: usize,
    feed: ProbeFeed,
}

/// Where a join's probe rows come from.
enum ProbeFeed {
    /// Legacy scheduling (no hints): the probe side was materialized to
    /// compare sizes, iterate it in place.
    Materialized { table: Arc<Batch>, cursor: usize },
    /// Hint-scheduled: probe batches are pulled through the child operator
    /// as the join emits — the probe side never materializes in the join.
    Streamed {
        pending: Option<(Batch, usize)>,
        done: bool,
    },
}

/// Emits the join rows for one probe row.
fn join_emit(
    out: &mut Batch,
    probe_row: &[u32],
    build: &Batch,
    index: &JoinIndex,
    build_is_left: bool,
    probe_key: usize,
    null_id: u32,
) {
    let key = probe_row[probe_key];
    if key == null_id {
        return; // null keys never join
    }
    if let Some(matches) = index.matches(key) {
        for &bi in matches {
            let build_row = build.row(bi as usize);
            let (l, r) = if build_is_left {
                (build_row, probe_row)
            } else {
                (probe_row, build_row)
            };
            out.push(l.iter().chain(r.iter()).copied());
        }
    }
}

impl<'r> Operator<'r> {
    /// Compiles a plan into its operator tree, bound to the context and
    /// source it will pull from under the given runtime policy.
    pub fn new(
        plan: &PhysicalPlan,
        ctx: &'r ExecContext,
        source: &'r dyn PlanSource,
        policy: ExecPolicy,
    ) -> Self {
        Self {
            ctx,
            source,
            policy,
            node: OpNode::compile(plan),
        }
    }

    /// Pulls the next batch, or `None` when exhausted. With an
    /// [`ExecPolicy::deadline`] set, an expired deadline surfaces as
    /// [`PlanError::DeadlineExceeded`] at the next pull.
    pub fn next_batch(&mut self) -> Result<Option<Batch>, PlanError> {
        if self.policy.deadline_passed() {
            return Err(PlanError::DeadlineExceeded);
        }
        self.node.next_batch(self.ctx, self.source, &self.policy)
    }
}

impl<'r> ScanOp<'r> {
    fn next_batch(
        &mut self,
        ctx: &'r ExecContext,
        source: &'r dyn PlanSource,
        policy: &ExecPolicy,
    ) -> Result<Option<Batch>, PlanError> {
        let ScanOp {
            source: name,
            request,
            semijoin_reduced,
            state,
        } = self;
        if matches!(state, ScanState::Pending) {
            *state = if !*semijoin_reduced && scan_uses_cache(ctx, source, name, request) {
                ScanState::Cached {
                    table: ctx.scan(source, name, request, policy.deadline)?.0,
                    cursor: 0,
                }
            } else {
                let (batches, _) = source.scan_batches(name, request, ctx.scan_batch_rows())?;
                ScanState::Cursor {
                    batches: ctx.interned(request, batches, policy.deadline),
                }
            };
        }
        match state {
            ScanState::Pending => unreachable!("scan state decided above"),
            ScanState::Cached { table, cursor } => {
                if *cursor >= table.len() {
                    return Ok(None);
                }
                let take = BATCH_ROWS.min(table.len() - *cursor);
                let out = table.slice(*cursor, take);
                *cursor += take;
                Ok(Some(out))
            }
            ScanState::Cursor { batches } => batches.next().transpose(),
        }
    }
}

impl<'r> OpNode<'r> {
    fn compile(plan: &PhysicalPlan) -> OpNode<'r> {
        match plan {
            PhysicalPlan::Scan { source, request } => OpNode::Scan(ScanOp {
                source: source.clone(),
                request: request.clone(),
                semijoin_reduced: false,
                state: ScanState::Pending,
            }),
            PhysicalPlan::Project { input, indices, .. } => OpNode::Project {
                input: Box::new(OpNode::compile(input)),
                indices: indices.clone(),
            },
            PhysicalPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                schema,
            } => OpNode::HashJoin {
                left_scan: left.scan_key(),
                right_scan: right.scan_key(),
                left: Box::new(OpNode::compile(left)),
                right: Box::new(OpNode::compile(right)),
                left_key: *left_key,
                right_key: *right_key,
                arity: schema.len(),
                state: None,
            },
            PhysicalPlan::Union { inputs } => OpNode::Union {
                arity: inputs[0].schema().len(),
                inputs: inputs.iter().map(OpNode::compile).collect(),
                current: 0,
                seen: RowSet::new(inputs[0].schema().len()),
            },
        }
    }

    fn arity(&self) -> usize {
        match self {
            OpNode::Scan(op) => op.request.output().len(),
            OpNode::Project { indices, .. } => indices.len(),
            OpNode::HashJoin { arity, .. } | OpNode::Union { arity, .. } => *arity,
        }
    }

    /// Estimated output rows of the subtree: defined for scan-leaf chains
    /// (Project over one Scan — which never grows the row count),
    /// `None` for joins and unions.
    fn size_hint(&self, source: &dyn PlanSource) -> Option<u64> {
        match self {
            OpNode::Scan(op) => source.scan_hint(&op.source, &op.request),
            OpNode::Project { input, .. } => input.size_hint(source),
            _ => None,
        }
    }

    /// Maps output column `index` down a Project chain to the
    /// scan leaf it originates from — the semi-join injection site.
    fn scan_site(&mut self, index: usize) -> Option<(usize, &mut ScanOp<'r>)> {
        match self {
            OpNode::Scan(op) => Some((index, op)),
            OpNode::Project { input, indices, .. } => {
                let mapped = *indices.get(index)?;
                input.scan_site(mapped)
            }
            _ => None,
        }
    }

    /// Drains the subtree into one table. Cached-mode scan leaves hand back
    /// the shared interned table without copying, together with the data
    /// version their cache entry was keyed under (`None` for interior nodes
    /// and cursor-only scans) — derived caches must be stamped with exactly
    /// that version, and never created without one.
    fn materialize(
        &mut self,
        ctx: &'r ExecContext,
        plan_source: &'r dyn PlanSource,
        policy: &ExecPolicy,
    ) -> Result<(Arc<Batch>, Option<u64>), PlanError> {
        if let OpNode::Scan(op) = self {
            if !op.semijoin_reduced && scan_uses_cache(ctx, plan_source, &op.source, &op.request) {
                let (batch, version) =
                    ctx.scan(plan_source, &op.source, &op.request, policy.deadline)?;
                return Ok((batch, Some(version)));
            }
        }
        let mut out = Batch::new(self.arity());
        while let Some(batch) = self.next_batch(ctx, plan_source, policy)? {
            out.append(&batch);
        }
        Ok((Arc::new(out), None))
    }

    /// First-pull scheduling of a hash join.
    ///
    /// With semi-join passing enabled and both children hinted, the build
    /// side (hinted-smaller; ties build left, like the eager rule on equal
    /// sizes) completes **before** the probe scan is requested, and its
    /// distinct key set — the build index's key set, free to derive — is
    /// injected into the probe scan as an IN-set when it is small enough
    /// and the source claims it. An unclaimed or over-threshold key set
    /// changes nothing: the join's own hash probe is the residual
    /// semi-join, so answers are identical wherever the filtering runs.
    ///
    /// Without hints (or with the pass disabled), both sides materialize
    /// and the build goes on the actual smaller side — the legacy schedule,
    /// byte-compatible with the eager `ops::join`.
    #[allow(clippy::too_many_arguments)]
    fn init_join(
        left: &mut OpNode<'r>,
        right: &mut OpNode<'r>,
        left_key: usize,
        right_key: usize,
        left_scan: &Option<ScanKey>,
        right_scan: &Option<ScanKey>,
        ctx: &'r ExecContext,
        source: &'r dyn PlanSource,
        policy: &ExecPolicy,
    ) -> Result<JoinState, PlanError> {
        let hints = (policy.semijoin_max_keys > 0)
            .then(|| left.size_hint(source).zip(right.size_hint(source)))
            .flatten();
        if let Some((left_hint, right_hint)) = hints {
            let build_is_left = left_hint <= right_hint;
            let (build_node, probe_node, build_key, probe_key, build_scan, probe_hint) =
                if build_is_left {
                    (left, right, left_key, right_key, left_scan, right_hint)
                } else {
                    (right, left, right_key, left_key, right_scan, left_hint)
                };
            let (build, build_version) = build_node.materialize(ctx, source, policy)?;
            let cache_key = build_scan.clone().zip(build_version).map(|(mut k, v)| {
                k.data_version = v;
                (k, build_key)
            });
            let index = ctx.build_index(cache_key, &build, build_key);
            // Inject only when the key set is selective enough to actually
            // shrink the probe ([`semijoin_pays`]): as an exact IN-set
            // while small enough to evaluate source-side, degrading to a
            // bloom membership filter over the same *live* build keys past
            // that threshold (up to [`BLOOM_SEMIJOIN_MAX_KEYS`]). The bloom's
            // false positives only admit extra probe rows this join's hash
            // probe then discards — never a wrong answer, and never
            // dependent on any statistics sketch.
            let distinct = index.distinct_keys();
            let wants_bloom = distinct > policy.semijoin_max_keys;
            let within_budget = !wants_bloom || distinct <= BLOOM_SEMIJOIN_MAX_KEYS;
            let site = within_budget
                .then(|| probe_node.scan_site(probe_key))
                .flatten()
                .and_then(|(column_index, scan)| {
                    let column = scan.request.columns().get(column_index)?.clone();
                    Some((column, scan))
                });
            if let Some((column, scan)) = site {
                // A warm cached unreduced scan (or one an O(appended)
                // resume away from warm) beats a reduced re-read of the
                // source: serve it and let the join's hash probe be the
                // semi-join (answer-identical, strictly cheaper).
                if matches!(scan.state, ScanState::Pending)
                    && semijoin_pays(source, distinct as u64, probe_hint, &scan.source, &column)
                    && !ctx.scan_resolved(source, &scan.source, &scan.request)
                {
                    let keys = ctx.decode_ids(index.keys());
                    let predicate = if wants_bloom {
                        Predicate::Bloom(BloomFilter::from_values(&keys))
                    } else {
                        Predicate::in_set(keys)
                    };
                    let filter = ColumnFilter::new(column, predicate);
                    if source.claims(&scan.source, &filter) {
                        scan.request.add_column_filter(filter);
                        scan.semijoin_reduced = true;
                        let counter = if wants_bloom {
                            &ctx.semijoin_blooms
                        } else {
                            &ctx.semijoin_insets
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(JoinState {
                build,
                index,
                build_is_left,
                probe_key,
                feed: ProbeFeed::Streamed {
                    pending: None,
                    done: false,
                },
            })
        } else {
            let (left_table, left_version) = left.materialize(ctx, source, policy)?;
            let (right_table, right_version) = right.materialize(ctx, source, policy)?;
            // Build on the smaller side — the same rule (and thus the same
            // output row order) as the eager `ops::join`.
            let build_is_left = left_table.len() <= right_table.len();
            let (build, probe, build_key, probe_key, build_scan, build_version) = if build_is_left {
                (
                    left_table,
                    right_table,
                    left_key,
                    right_key,
                    left_scan,
                    left_version,
                )
            } else {
                (
                    right_table,
                    left_table,
                    right_key,
                    left_key,
                    right_scan,
                    right_version,
                )
            };
            // Scan keys are compiled with a placeholder data version; stamp
            // the version the build side's scan was actually keyed under
            // (never a re-read one — a mutation landing between the scan
            // and this point would otherwise cache an old-batch index under
            // the new version).
            let cache_key = build_scan.clone().zip(build_version).map(|(mut k, v)| {
                k.data_version = v;
                (k, build_key)
            });
            let index = ctx.build_index(cache_key, &build, build_key);
            Ok(JoinState {
                build,
                index,
                build_is_left,
                probe_key,
                feed: ProbeFeed::Materialized {
                    table: probe,
                    cursor: 0,
                },
            })
        }
    }

    fn next_batch(
        &mut self,
        ctx: &'r ExecContext,
        plan_source: &'r dyn PlanSource,
        policy: &ExecPolicy,
    ) -> Result<Option<Batch>, PlanError> {
        match self {
            OpNode::Scan(op) => op.next_batch(ctx, plan_source, policy),
            OpNode::Project { input, indices } => {
                let Some(batch) = input.next_batch(ctx, plan_source, policy)? else {
                    return Ok(None);
                };
                let mut out = Batch::new(indices.len());
                // analyze: allow(deadline, per-row copy of one already-pulled batch — bounded by BATCH_ROWS)
                for row in batch.rows() {
                    out.push(indices.iter().map(|&i| row[i]));
                }
                Ok(Some(out))
            }
            OpNode::HashJoin {
                left,
                right,
                left_key,
                right_key,
                left_scan,
                right_scan,
                arity,
                state,
            } => {
                if state.is_none() {
                    *state = Some(Self::init_join(
                        left.as_mut(),
                        right.as_mut(),
                        *left_key,
                        *right_key,
                        left_scan,
                        right_scan,
                        ctx,
                        plan_source,
                        policy,
                    )?);
                }
                let JoinState {
                    build,
                    index,
                    build_is_left,
                    probe_key,
                    feed,
                } = state.as_mut().expect("join state just initialized");
                let mut out = Batch::new(*arity);
                match feed {
                    ProbeFeed::Materialized { table, cursor } => {
                        // analyze: allow(deadline, emits at most BATCH_ROWS rows per call from a materialized table)
                        while *cursor < table.len() && out.len() < BATCH_ROWS {
                            let probe_row = table.row(*cursor);
                            *cursor += 1;
                            join_emit(
                                &mut out,
                                probe_row,
                                build,
                                index,
                                *build_is_left,
                                *probe_key,
                                ctx.null_id(),
                            );
                        }
                    }
                    ProbeFeed::Streamed { pending, done } => loop {
                        // A probe side whose rows all miss the build index
                        // would otherwise stream batch after batch between
                        // leaf-level deadline checks.
                        if policy.deadline_passed() {
                            return Err(PlanError::DeadlineExceeded);
                        }
                        let exhausted = if let Some((batch, cursor)) = pending.as_mut() {
                            // analyze: allow(deadline, drains at most BATCH_ROWS rows of one pending batch)
                            while *cursor < batch.len() && out.len() < BATCH_ROWS {
                                let probe_row = batch.row(*cursor);
                                *cursor += 1;
                                join_emit(
                                    &mut out,
                                    probe_row,
                                    build,
                                    index,
                                    *build_is_left,
                                    *probe_key,
                                    ctx.null_id(),
                                );
                            }
                            *cursor >= batch.len()
                        } else {
                            false
                        };
                        if exhausted {
                            *pending = None;
                        }
                        if out.len() >= BATCH_ROWS || *done {
                            break;
                        }
                        let probe_node = if *build_is_left {
                            right.as_mut()
                        } else {
                            left.as_mut()
                        };
                        match probe_node.next_batch(ctx, plan_source, policy)? {
                            Some(batch) => *pending = Some((batch, 0)),
                            None => *done = true,
                        }
                    },
                }
                if out.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(out))
                }
            }
            OpNode::Union {
                inputs,
                current,
                seen,
                arity,
            } => loop {
                // A branch whose rows are all duplicates would otherwise
                // drain whole inputs between leaf-level deadline checks.
                if policy.deadline_passed() {
                    return Err(PlanError::DeadlineExceeded);
                }
                let Some(input) = inputs.get_mut(*current) else {
                    return Ok(None);
                };
                match input.next_batch(ctx, plan_source, policy)? {
                    None => *current += 1,
                    Some(batch) => {
                        let mut out = Batch::new(*arity);
                        // analyze: allow(deadline, per-row dedup of one batch — bounded by BATCH_ROWS)
                        for row in batch.rows() {
                            if seen.insert(row) {
                                out.push(row.iter().copied());
                            }
                        }
                        if !out.is_empty() {
                            return Ok(Some(out));
                        }
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::plan::execute_plan;
    use crate::plan::test_support::*;
    use crate::relation::{Relation, RelationError, Tuple};
    use crate::schema::Schema;
    use crate::value::Value;

    #[test]
    fn streamed_join_matches_eager_join_byte_for_byte() {
        let plan = scan_all("w1", &w1())
            .hash_join(scan_all("w3", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        let streamed = run(&plan, &source).unwrap();
        let eager = ops::join(&w1(), &w3(), "VoDmonitorId", "MonitorId").unwrap();
        assert_eq!(streamed, eager);
        assert_eq!(streamed.rows(), eager.rows()); // identical order too
    }

    #[test]
    fn join_build_side_follows_the_eager_size_rule() {
        // w3 (2 rows) < w1 (3 rows): eager builds on w3 when it is the left
        // operand; the plan executor must emit the same probe-major order.
        let plan = scan_all("w3", &w3())
            .hash_join(scan_all("w1", &w1()), "MonitorId", "VoDmonitorId")
            .unwrap();
        let streamed = run(&plan, &source).unwrap();
        let eager = ops::join(&w3(), &w1(), "MonitorId", "VoDmonitorId").unwrap();
        assert_eq!(streamed.rows(), eager.rows());
    }

    #[test]
    fn join_skips_null_keys() {
        let left = Relation::new(
            Schema::from_parts(&["id"], &["x"]).unwrap(),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(5), Value::Int(2)],
            ],
        )
        .unwrap();
        let right = Relation::new(
            Schema::from_parts::<&str>(&["rid"], &[]).unwrap(),
            vec![vec![Value::Null], vec![Value::Int(5)]],
        )
        .unwrap();
        let src = move |name: &str, request: &ScanRequest| match name {
            "l" => request.apply(&left),
            "r" => request.apply(&right),
            _ => Err(RelationError::Source("unknown".into())),
        };
        let plan = PhysicalPlan::scan(
            "l",
            ScanRequest::full(&Schema::from_parts(&["id"], &["x"]).unwrap()),
        )
        .hash_join(
            PhysicalPlan::scan(
                "r",
                ScanRequest::full(&Schema::from_parts::<&str>(&["rid"], &[]).unwrap()),
            ),
            "id",
            "rid",
        )
        .unwrap();
        let out = run(&plan, &src).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn union_dedups_in_first_occurrence_order() {
        let a = scan_all("w1", &w1());
        let plan = PhysicalPlan::union(vec![a.clone(), a]).unwrap();
        let out = run(&plan, &source).unwrap();
        assert_eq!(out.len(), 3); // both inputs identical → one copy each
        assert_eq!(out.rows()[0], w1().rows()[0]); // original order kept
    }

    #[test]
    fn batches_bound_row_counts() {
        // 3000 rows → 1024 + 1024 + 952.
        let schema = Schema::from_parts::<&str>(&["id"], &[]).unwrap();
        let big = Relation::new(
            schema.clone(),
            (0..3000).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let src = move |_: &str, request: &ScanRequest| request.apply(&big);
        let ctx = ExecContext::new();
        let plan = PhysicalPlan::scan("big", ScanRequest::full(&schema));
        let mut op = Operator::new(&plan, &ctx, &src, ExecPolicy::default());
        let mut sizes = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            sizes.push(batch.len());
        }
        assert_eq!(sizes, vec![1024, 1024, 952]);
    }

    #[test]
    fn semijoin_reduces_probe_scan_and_bypasses_cache() {
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let out = run_in(&w3_wbig_join(), &ctx, &src).unwrap();
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        assert_eq!(out.len(), 2);
        // w3 (2 rows) is the hinted-smaller build side; its two distinct
        // MonitorId keys were pushed into wbig's scan as a canonical IN-set.
        let probe_requests = src.requests_for("wbig");
        assert_eq!(probe_requests.len(), 1);
        assert_eq!(probe_requests[0].filters().len(), 1);
        let filter = &probe_requests[0].filters()[0];
        assert_eq!(filter.column, "BigId");
        assert_eq!(
            filter.predicate,
            Predicate::in_set([Value::Int(12), Value::Int(18)])
        );
        // The key-reduced probe scan is query-specific: only the build
        // side's scan landed in the shared cache.
        assert_eq!(ctx.cached_scans(), 1);
    }

    #[test]
    fn zero_max_keys_disables_the_sideways_pass() {
        // 0 disables the pass outright — including the bloom degradation:
        // the probe runs unreduced (and cache-normally).
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let policy = ExecPolicy {
            semijoin_max_keys: 0,
            ..ExecPolicy::default()
        };
        let out = execute_plan(&w3_wbig_join(), &ctx, &src, policy).unwrap();
        assert_eq!(out.rows(), eager.rows());
        assert!(src
            .requests_for("wbig")
            .iter()
            .all(|r| r.filters().is_empty()));
        assert_eq!(ctx.cached_scans(), 2);
        assert_eq!(ctx.counters().semijoin_blooms, 0);
    }

    #[test]
    fn semijoin_past_threshold_degrades_to_bloom() {
        // A nonzero threshold under the build's 2 distinct keys: the pass
        // degrades to a bloom membership filter over the live build keys
        // instead of standing down. The reduced probe scan is
        // query-specific (cache-bypassed) like an IN-set.
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let policy = ExecPolicy {
            semijoin_max_keys: 1,
            ..ExecPolicy::default()
        };
        let out = execute_plan(&w3_wbig_join(), &ctx, &src, policy).unwrap();
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        let probe_requests = src.requests_for("wbig");
        assert_eq!(probe_requests.len(), 1);
        assert_eq!(probe_requests[0].filters().len(), 1);
        let filter = &probe_requests[0].filters()[0];
        assert_eq!(filter.column, "BigId");
        match &filter.predicate {
            Predicate::Bloom(bloom) => {
                assert!(bloom.may_contain(&Value::Int(12)));
                assert!(bloom.may_contain(&Value::Int(18)));
            }
            other => panic!("expected bloom injection, got {other:?}"),
        }
        assert_eq!(ctx.cached_scans(), 1);
        assert_eq!(ctx.counters().semijoin_blooms, 1);
    }

    #[test]
    fn non_selective_joins_skip_the_sideways_pass() {
        // w1 (3 rows) probed by w3's 2 keys: 2 x SELECTIVITY > 3, so the
        // IN-set would not meaningfully shrink the probe — no injection,
        // and the probe scan stays shared/cacheable.
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let out = run_in(&w1_w3_join(), &ctx, &src).unwrap();
        let eager = ops::join(&w1(), &w3(), "VoDmonitorId", "MonitorId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        assert!(src
            .requests_for("w1")
            .iter()
            .all(|r| r.filters().is_empty()));
        assert_eq!(ctx.cached_scans(), 2);
    }

    #[test]
    fn unclaimed_in_set_falls_back_to_the_join_probe() {
        // The source declines IN-sets: the probe scan stays unreduced (and
        // cached), and the join's own hash probe is the residual semi-join.
        let src = Hinted::new(false);
        let ctx = ExecContext::new();
        let out = run_in(&w3_wbig_join(), &ctx, &src).unwrap();
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        assert!(src
            .requests_for("wbig")
            .iter()
            .all(|r| r.filters().is_empty()));
        assert_eq!(ctx.cached_scans(), 2);
    }

    #[test]
    fn empty_build_side_reduces_probe_to_nothing() {
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let plan = PhysicalPlan::scan("w_empty", ScanRequest::full(w3().schema()))
            .hash_join(scan_all("wbig", &wbig()), "MonitorId", "BigId")
            .unwrap();
        let out = run_in(&plan, &ctx, &src).unwrap();
        assert!(out.is_empty());
        // The injected IN-set is the canonical empty set — the probe source
        // ships no rows at all.
        let probe_requests = src.requests_for("wbig");
        assert_eq!(probe_requests.len(), 1);
        assert_eq!(
            probe_requests[0].filters()[0].predicate,
            Predicate::in_set([])
        );
    }

    #[test]
    fn warm_cached_probe_scan_beats_injection() {
        // A prior query already cached wbig's unreduced scan on this
        // context: injecting the IN-set would force a source re-read, so
        // the pass stands down and the join probes the warm table.
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        run_in(&scan_all("wbig", &wbig()), &ctx, &src).unwrap();
        assert_eq!(src.requests_for("wbig").len(), 1);
        let out = run_in(&w3_wbig_join(), &ctx, &src).unwrap();
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        // No second wbig read happened, filtered or otherwise.
        let probe_requests = src.requests_for("wbig");
        assert_eq!(probe_requests.len(), 1);
        assert!(probe_requests[0].filters().is_empty());
        assert_eq!(ctx.cached_scans(), 2);
    }

    /// The rule "a warm cached unreduced scan beats a reduced re-read"
    /// extends to a scan one resume away from warm: after an append the
    /// probe is upgraded through the cache, not re-read reduced.
    #[test]
    fn a_resumable_probe_scan_counts_as_warm() {
        let src = Growing::new(wgrow_rows(12), false);
        let ctx = ExecContext::new();
        run_in(&scan_all("wgrow", &wbig()), &ctx, &src).unwrap();
        src.push(12, 7.0);
        let out = run_in(&w3_wgrow_join(), &ctx, &src).unwrap();
        let eager = ops::join(&w3(), &src.relation(0), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        assert!(src
            .requests
            .lock()
            .unwrap()
            .iter()
            .all(|r| r.filters().is_empty()));
        assert_eq!(
            (ctx.counters().resumed_scans, ctx.counters().resumed_rows),
            (1, 1)
        );
        assert_eq!(ctx.counters().semijoin_insets, 0);
        // On a fresh context the same join does reduce its probe: 2 keys
        // against 13 rows, no sketches to say otherwise.
        let cold = ExecContext::new();
        run_in(&w3_wgrow_join(), &cold, &src).unwrap();
        assert_eq!(cold.counters().semijoin_insets, 1);
    }

    /// The gate compares build keys with the probe key column's distinct
    /// count when the probe publishes sketches: w3's 2 keys do not reduce
    /// a probe whose key column holds 3 values, whatever its row count, and
    /// do reduce one holding 12.
    #[test]
    fn semijoin_gate_counts_distinct_probe_keys_not_rows() {
        let few_keys: Vec<Tuple> = (0..60)
            .map(|r| vec![Value::Int(12 + 3 * (r % 3)), Value::Float(r as f64)])
            .collect();
        for (rows, with_stats, injects) in [
            (few_keys.clone(), true, false),
            (few_keys, false, true), // rows are all there is to go by
            (wgrow_rows(60), true, true),
        ] {
            let src = Growing::new(rows, with_stats);
            let ctx = ExecContext::new();
            let out = run_in(&w3_wgrow_join(), &ctx, &src).unwrap();
            let eager = ops::join(&w3(), &src.relation(0), "MonitorId", "BigId").unwrap();
            assert_eq!(out.rows(), eager.rows());
            assert_eq!(
                ctx.counters().semijoin_insets,
                u64::from(injects),
                "stats {with_stats}"
            );
            // An unreduced probe is cached for the next query; a reduced
            // one never is. Either way wgrow was read once.
            assert_eq!(ctx.cached_scans(), if injects { 1 } else { 2 });
            assert_eq!(src.full_reads.load(Ordering::SeqCst), 1);
        }
    }
}
