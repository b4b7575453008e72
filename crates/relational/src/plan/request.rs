use super::PlanError;
use crate::relation::{Relation, RelationError, Tuple};
use crate::schema::Schema;
use crate::stats::{BloomFilter, TableStats};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A per-column selection predicate a scan can push down: the semi-join
/// pass's form of a build side's key set.
///
/// Membership goes through [`Value`] equality: cross-type numerics
/// compare as numbers (`Int(2)` = `Float(2.0)`), `-0.0` = `0.0`, and NaN
/// is self-equal. An empty IN-set matches nothing. [`Predicate::matches`]
/// is the normative semantics every pushdown implementation must
/// reproduce.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `column ∈ set`. Kept sorted and deduplicated (see
    /// [`Predicate::in_set`]) so equal sets compare and hash equal.
    In(Vec<Value>),
    /// `column` *probably* in a key set: a one-sided [`BloomFilter`]
    /// membership test. Unlike an IN-set this predicate is
    /// intentionally approximate — `matches` admits every inserted key
    /// plus a tunable fraction of false positives — so it is only ever
    /// generated where over-admission is harmless: the semi-join sideways
    /// pass, whose downstream join discards the extras. A source that
    /// cannot evaluate it natively declines the claim, and the pass then
    /// does not inject it.
    Bloom(BloomFilter),
}

impl Predicate {
    /// Builds a canonical IN-set: sorted, deduplicated.
    pub fn in_set(values: impl IntoIterator<Item = Value>) -> Self {
        let mut values: Vec<Value> = values.into_iter().collect();
        values.sort();
        values.dedup();
        Predicate::In(values)
    }

    /// Whether a value satisfies the predicate — the reference semantics.
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            // Linear membership: IN-sets are small, and the variant is
            // public — a directly-built (unsorted) vec must match the same
            // rows as the canonical [`Predicate::in_set`] form.
            Predicate::In(vs) => vs.contains(value),
            Predicate::Bloom(filter) => filter.may_contain(value),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::In(vs) => {
                f.write_str("∈{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
            Predicate::Bloom(filter) => write!(f, "∈bloom({} keys)", filter.items()),
        }
    }
}

/// A selection pushed into a scan: `predicate(column)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnFilter {
    /// Source-local column name.
    pub column: String,
    /// The predicate rows must satisfy.
    pub predicate: Predicate,
}

impl ColumnFilter {
    pub fn new(column: impl Into<String>, predicate: Predicate) -> Self {
        Self {
            column: column.into(),
            predicate,
        }
    }
}

impl fmt::Display for ColumnFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ[{}{}]", self.column, self.predicate)
    }
}

/// What a [`PlanSource`] is asked to surface: a projection over its
/// source-local columns (already renamed to the mediator's output
/// attributes) and a conjunction of pushed-down per-column predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRequest {
    /// Source-local column names, in output order.
    pub(super) columns: Vec<String>,
    /// Output attributes, positionally aligned with `columns` — the fused
    /// rename.
    output: Schema,
    /// Pushed-down selections, all of which must hold (conjunction). Each
    /// is on a source-local column, which need not be in `columns`.
    pub(super) filters: Vec<ColumnFilter>,
}

impl ScanRequest {
    /// Builds a request; `columns` and `output` must have equal arity.
    pub fn new(columns: Vec<String>, output: Schema) -> Result<Self, PlanError> {
        if columns.len() != output.len() {
            return Err(PlanError::Relation(RelationError::Arity {
                expected: output.len(),
                found: columns.len(),
            }));
        }
        Ok(Self {
            columns,
            output,
            filters: Vec::new(),
        })
    }

    /// The identity request over a source schema: every column, unrenamed,
    /// unfiltered — what a pushdown-disabled plan asks for.
    pub fn full(schema: &Schema) -> Self {
        Self {
            columns: schema.names().into_iter().map(str::to_owned).collect(),
            output: schema.clone(),
            filters: Vec::new(),
        }
    }

    /// Appends a predicate conjunct on a source-local column.
    pub fn with_predicate(mut self, column: impl Into<String>, predicate: Predicate) -> Self {
        self.filters.push(ColumnFilter {
            column: column.into(),
            predicate,
        });
        self
    }

    /// Appends a filter conjunct in place — the runtime form semi-join
    /// sideways passing uses to inject build-key IN-sets into an
    /// already-compiled probe scan.
    pub(crate) fn add_column_filter(&mut self, filter: ColumnFilter) {
        self.filters.push(filter);
    }

    /// Source-local column names, in output order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The schema the scan must produce.
    pub fn output(&self) -> &Schema {
        &self.output
    }

    /// The pushed-down selection conjuncts (empty = unfiltered).
    pub fn filters(&self) -> &[ColumnFilter] {
        &self.filters
    }

    /// Reference semantics of a request: project / rename / filter an
    /// eagerly scanned relation. Sources without native pushdown call this
    /// on their full scan; the differential tests pin native
    /// implementations against it.
    pub fn apply(&self, input: &Relation) -> Result<Relation, RelationError> {
        let mut indices = Vec::with_capacity(self.columns.len());
        for column in &self.columns {
            indices.push(input.schema().require(column)?);
        }
        let mut filters = Vec::with_capacity(self.filters.len());
        for f in &self.filters {
            filters.push((input.schema().require(&f.column)?, &f.predicate));
        }
        let mut rows = Vec::new();
        for row in input.rows() {
            if !filters.iter().all(|(idx, p)| p.matches(&row[*idx])) {
                continue;
            }
            rows.push(indices.iter().map(|&i| row[i].clone()).collect());
        }
        Relation::new(self.output.clone(), rows)
    }
}

impl fmt::Display for ScanRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for filter in &self.filters {
            write!(f, "{filter} ")?;
        }
        f.write_str("[")?;
        for (i, (col, attr)) in self
            .columns
            .iter()
            .zip(self.output.attributes())
            .enumerate()
        {
            if i > 0 {
                f.write_str(", ")?;
            }
            if col == attr.name() {
                f.write_str(col)?;
            } else {
                write!(f, "{col}→{}", attr.name())?;
            }
        }
        f.write_str("]")
    }
}

/// A stream of value-space row batches produced by a [`PlanSource`] scan.
///
/// Each item is one batch of rows already projected, renamed and filtered
/// per the originating [`ScanRequest`] (so every row has the request's
/// output arity), in the source's stable scan order. Batches are bounded by
/// the `batch_rows` hint the consumer passed, so peak value-space memory is
/// one batch — never the whole relation.
pub type BatchIter<'a> = Box<dyn Iterator<Item = Result<Vec<Tuple>, RelationError>> + Send + 'a>;

/// The adapter from a materialized relation to the streaming contract, for
/// sources that can only answer a request whole: checks the relation has
/// the request's shape, then re-yields its rows in `batch_rows`-sized
/// chunks (without cloning). The closure [`PlanSource`] impl and the
/// default `Wrapper::scan_batches` of `bdi_wrappers` are built on it.
///
/// A mis-shaped relation is rejected even when *empty*: it is a source
/// misconfiguration, and must not be masked just because no row exists to
/// fail the consumer's per-row check.
pub fn batches_from_relation(
    relation: Relation,
    request: &ScanRequest,
    batch_rows: usize,
) -> Result<BatchIter<'static>, RelationError> {
    if relation.schema().len() != request.output().len() {
        return Err(RelationError::Arity {
            expected: request.output().len(),
            found: relation.schema().len(),
        });
    }
    let batch_rows = batch_rows.max(1);
    let mut rows = relation.into_rows().into_iter();
    Ok(Box::new(std::iter::from_fn(move || {
        let batch: Vec<Tuple> = rows.by_ref().take(batch_rows).collect();
        if batch.is_empty() {
            None
        } else {
            Some(Ok(batch))
        }
    })))
}

/// How far into its source a scan read: the source's *epoch* (a generation
/// within which the source only ever appends records) and the number of
/// source records the scan bounded itself to when it started. Handed back
/// with the batches of [`PlanSource::scan_batches`] and accepted by
/// [`PlanSource::resume_batches`] to read on from there.
///
/// The executor never interprets a mark — it stores it beside the cached
/// scan it describes and hands it back to the same source. `consumed`
/// counts *source* records (stored rows, documents), not rows the request's
/// filters let through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanMark {
    epoch: u64,
    consumed: u64,
}

impl ScanMark {
    /// A mark covering the first `consumed` records of the source's
    /// generation `epoch`.
    pub fn new(epoch: u64, consumed: u64) -> Self {
        Self { epoch, consumed }
    }

    /// The append-only generation of the source the mark was taken in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Source records covered, counted from the first.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

/// Resolves a source name and a pushed-down [`ScanRequest`] to its rows.
///
/// `Sync` is a supertrait so a shared [`ExecContext`](super::ExecContext) can fan walk plans out
/// across scoped threads.
pub trait PlanSource: Sync {
    /// Scans `source` — the one way rows enter the executor.
    ///
    /// **Rows.** Exactly the rows [`ScanRequest::apply`] would keep of the
    /// source's full relation, in the source's stable scan order: only the
    /// requested columns, each row of the request's output arity, and —
    /// when the request carries [`ColumnFilter`]s — only rows satisfying
    /// *every* filter's [`Predicate`]. They arrive as batches of at most
    /// `batch_rows` rows, so the consumer never holds the whole value-space
    /// relation; a source that can only answer whole goes through
    /// [`batches_from_relation`].
    ///
    /// **Mark.** `Some(mark)` when the source can say how much of itself
    /// the batches cover, fixed when the scan *starts* (records appended
    /// mid-scan are not covered, and a later
    /// [`PlanSource::resume_batches`] picks them up); `None` when it cannot
    /// — then every later read of the scan is a full one. A mark never
    /// changes an answer, only what the next read costs.
    fn scan_batches<'a>(
        &'a self,
        source: &str,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(BatchIter<'a>, Option<ScanMark>), RelationError>;

    /// Reads on from `mark`: exactly the rows a full
    /// [`PlanSource::scan_batches`] would yield now **minus** the rows the
    /// scan that returned `mark` yielded, in the same order — the rows of
    /// the records appended since — with the mark the delta extends the
    /// covered prefix to.
    ///
    /// `Ok(None)` *declines*: the source can no longer vouch for the marked
    /// prefix (records were removed), or the request is not decidable
    /// record by record. The caller then scans in full; declining never
    /// changes an answer, only what it costs. The default declines always,
    /// which is correct for any source.
    fn resume_batches<'a>(
        &'a self,
        _source: &str,
        _request: &ScanRequest,
        _batch_rows: usize,
        _mark: &ScanMark,
    ) -> Result<Option<(BatchIter<'a>, ScanMark)>, RelationError> {
        Ok(None)
    }

    /// Monotonic counter identifying the current *data* of `source`. A
    /// source whose data can change between scans bumps it on every
    /// mutation; the [`ExecContext`](super::ExecContext) folds it into its scan-cache key, so a
    /// persistent context never serves rows scanned before the mutation.
    /// The default (`0`, constant) declares the data immutable for the
    /// lifetime of the source registration — correct for snapshot-style
    /// sources, and the pre-existing contract for sources predating the
    /// counter.
    fn data_version(&self, _source: &str) -> u64 {
        0
    }

    /// Whether the source natively honours `filter` on scans of `source`.
    ///
    /// The semi-join pass asks this at run time, before it injects a
    /// build side's key set into a probe scan, and injects only what the
    /// source claims; otherwise the join's hash probe does the filtering,
    /// so answers never depend on what a source can or cannot evaluate.
    /// The default claims everything — the [`ScanRequest::apply`] fallback
    /// evaluates any predicate.
    fn claims(&self, _source: &str, _filter: &ColumnFilter) -> bool {
        true
    }

    /// A cheap estimate of how many rows a scan of `source` under `request`
    /// would yield, or `None` when the source cannot produce one. Used for
    /// execution-time *scheduling* only — choosing a hash join's build side
    /// before any scan is issued (semi-join sideways passing) and routing
    /// over-cap scans cursor-only — never for correctness.
    ///
    /// Contract: for an unfiltered request, return the exact row count or
    /// `None` (an exact hint is what keeps the hint-driven build-side
    /// choice identical to the eager smaller-side rule, and thus row order
    /// engine-independent). Requests carrying filters may be estimated by
    /// their unfiltered count — answers under pushed-down predicates follow
    /// the canonical sorted-order contract, so build-side flips are
    /// unobservable there. The default (`None`) opts the source out of
    /// hint-driven scheduling.
    fn scan_hint(&self, _source: &str, _request: &ScanRequest) -> Option<u64> {
        None
    }

    /// The source's current per-column statistics snapshot for `source`,
    /// or `None` when it does not maintain sketches. The snapshot's
    /// [`TableStats::data_version`] must match
    /// [`PlanSource::data_version`] at the time of the call, so the
    /// planner never prices a plan against sketches of rows that no
    /// longer exist.
    ///
    /// Statistics steer *plans only* — join order, build-side choice, scan
    /// batching, cache admission. No estimate decides row membership, so a
    /// wrong (even adversarially wrong) snapshot can slow a query but can
    /// never change its answer. The default (`None`) keeps third-party
    /// sources on today's heuristics.
    fn stats(&self, _source: &str) -> Option<Arc<TableStats>> {
        None
    }
}

/// Blanket impl so closures answering a request whole can act as plan
/// sources (tests, one-off adapters): unmarked, never resumable.
impl<F> PlanSource for F
where
    F: Fn(&str, &ScanRequest) -> Result<Relation, RelationError> + Sync,
{
    fn scan_batches<'a>(
        &'a self,
        source: &str,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(BatchIter<'a>, Option<ScanMark>), RelationError> {
        let batches = batches_from_relation(self(source, request)?, request, batch_rows)?;
        Ok((batches, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::test_support::*;
    use crate::plan::PhysicalPlan;
    use crate::schema::Attribute;

    #[test]
    fn scan_request_apply_projects_renames_filters() {
        let request = ScanRequest::new(
            vec!["lagRatio".into(), "VoDmonitorId".into()],
            Schema::new(vec![
                Attribute::non_id("D1/lagRatio"),
                Attribute::id("D1/VoDmonitorId"),
            ])
            .unwrap(),
        )
        .unwrap()
        .with_predicate("VoDmonitorId", Predicate::in_set([Value::Int(12)]));
        let out = request.apply(&w1()).unwrap();
        assert_eq!(out.schema().names(), vec!["D1/lagRatio", "D1/VoDmonitorId"]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, "D1/lagRatio"), Some(&Value::Float(0.75)));
    }

    #[test]
    fn predicate_matches_follow_value_equality() {
        // Empty IN-set matches nothing — not even null.
        let empty = Predicate::in_set([]);
        assert!(!empty.matches(&Value::Null));
        assert!(!empty.matches(&Value::Int(0)));
        // IN canonicalizes: order and duplicates don't matter.
        assert_eq!(
            Predicate::in_set([Value::Int(3), Value::Int(1), Value::Int(3)]),
            Predicate::in_set([Value::Int(1), Value::Int(3)])
        );
        // Cross-type numeric equality.
        assert!(Predicate::in_set([Value::Int(1), Value::Int(3)]).matches(&Value::Float(3.0)));
        // A directly-built (unsorted) In variant matches the same rows as
        // the canonical form — the variant is public, so `matches` must not
        // assume sortedness.
        assert!(Predicate::In(vec![Value::Int(3), Value::Int(1)]).matches(&Value::Int(3)));
        assert!(Predicate::In(vec![Value::Int(3), Value::Int(1)]).matches(&Value::Float(1.0)));
        // NaN is self-equal; -0.0 equals 0.0.
        assert!(Predicate::in_set([Value::Float(f64::NAN)]).matches(&Value::Float(f64::NAN)));
        assert!(Predicate::in_set([Value::Float(-0.0)]).matches(&Value::Int(0)));
    }

    #[test]
    fn scan_request_applies_conjunctions() {
        let request = ScanRequest::full(w1().schema())
            .with_predicate("VoDmonitorId", Predicate::in_set([Value::Int(12)]))
            .with_predicate("lagRatio", Predicate::in_set([Value::Float(0.75)]));
        let out = request.apply(&w1()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "lagRatio"), Some(&Value::Float(0.75)));
    }

    #[test]
    fn predicates_on_columns_dropped_by_projection_still_filter() {
        // The filter column (VoDmonitorId) is not among the requested
        // columns: it must still select rows, ride along internally, and
        // never appear in the output schema — in the reference, in a pushed
        // scan, and in an executed plan.
        let request = ScanRequest::new(
            vec!["lagRatio".into()],
            Schema::from_parts::<&str>(&[], &["lagRatio"]).unwrap(),
        )
        .unwrap()
        .with_predicate("VoDmonitorId", Predicate::in_set([Value::Int(12)]));
        let reference = request.apply(&w1()).unwrap();
        assert_eq!(reference.schema().names(), vec!["lagRatio"]);
        assert_eq!(reference.len(), 2); // both monitor-12 rows, not monitor-18
        let out = run(&PhysicalPlan::scan("w1", request), &source).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn batches_from_relation_chunks_in_order() {
        for batch_rows in [1usize, 3, 1 << 20] {
            let mut rows: Vec<Tuple> = Vec::new();
            let request = ScanRequest::full(w1().schema());
            for batch in batches_from_relation(w1(), &request, batch_rows).unwrap() {
                let batch = batch.unwrap();
                assert!(batch.len() <= batch_rows);
                assert!(!batch.is_empty());
                rows.extend(batch);
            }
            assert_eq!(rows, w1().rows());
        }
    }

    #[test]
    fn empty_misshapen_scan_still_errors() {
        // A source answering with an empty relation of the WRONG arity is a
        // misconfiguration, and must error even though no row exists to
        // fail the per-row check.
        let misshapen = |_: &str, _: &ScanRequest| {
            Relation::new(Schema::from_parts::<&str>(&[], &["only"]).unwrap(), vec![])
        };
        let plan = scan_all("w1", &w1()); // requests w1's 2-column shape
        let err = run(&plan, &misshapen);
        assert!(err.is_err(), "empty wrong-shape scan was silently accepted");
    }
}
