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
//! * a [`ValuePool`] interning every scalar once, so operators move rows of
//!   `u32` ids instead of cloning [`Value`]s — interning respects `Value`
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
//! Whatever consumes a scan — the scan cache's fill, a cursor-only scan, a
//! prefetch producer — pulls it through one loop (`InternedBatches`): one
//! source batch at a time, the deadline checked and the rows interned
//! before the next is pulled, so no whole value-space relation ever
//! materializes in the mediator. [`PlanSource::data_version`] stamps each
//! scan with the source's data generation — the [`ExecContext`] scan cache
//! keys on it, so contexts reused across queries can never serve rows
//! scanned before a source mutation. [`execute_plan`] issues a plan's scans
//! concurrently on scoped threads ahead of the pulling pipeline.
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

use crate::relation::{Relation, RelationError, Tuple};
use crate::schema::{Attribute, Schema};
use crate::stats::{BloomFilter, TableStats};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// FNV-1a. The executor hashes interned `u32` ids and small scalars by the
/// hundreds of thousands per query and never faces adversarial keys, so a
/// two-instruction multiplicative hash beats SipHash's DoS resistance.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    /// FNV's raw state has weak low-bit avalanche (integral-float bit
    /// patterns differ only in their high bits), and both the hash maps and
    /// the pool's shard selector key on low bits — finish with a
    /// murmur3-style mixer to spread the entropy.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FnvBuild = BuildHasherDefault<Fnv>;

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

/// Target interned payload per adaptively-sized scan batch, in bytes.
/// When a source publishes [`TableStats`] with row-width estimates, scans
/// size their batches as `target / row width` (clamped) instead of the
/// flat [`BATCH_ROWS`] — wide rows batch smaller (bounding resident
/// memory), narrow rows batch larger (fewer lock acquisitions per row).
const ADAPTIVE_BATCH_BYTES: u64 = 256 * 1024;

/// Clamp bounds for adaptively-sized scan batches, in rows.
const ADAPTIVE_BATCH_MIN_ROWS: usize = 256;
const ADAPTIVE_BATCH_MAX_ROWS: usize = 8 * 1024;

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
    /// batch boundary (operator pulls, scan-cache fills, cursor pulls) and
    /// while waiting on a queued prefetch feed, so a stalled or slow source
    /// surfaces [`PlanError::DeadlineExceeded`] instead of hanging the
    /// query. The worst-case overshoot is one source batch fetch — the
    /// executor never cancels a fetch already in flight. `None` (the
    /// default) never times out.
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

/// One endpoint of a [`Predicate::Range`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bound {
    pub value: Value,
    /// Whether the endpoint itself is admitted (`>=`/`<=` vs `>`/`<`).
    pub inclusive: bool,
}

impl Bound {
    pub fn inclusive(value: Value) -> Self {
        Self {
            value,
            inclusive: true,
        }
    }

    pub fn exclusive(value: Value) -> Self {
        Self {
            value,
            inclusive: false,
        }
    }
}

/// A per-column selection predicate a scan can push down.
///
/// All comparisons go through [`Value`]'s *total* order, so the semantics
/// are uniform across kinds: cross-type numerics compare as numbers
/// (`Int(2)` = `Float(2.0)`), `-0.0` = `0.0`, NaN is self-equal and sorts
/// greatest, and `Null < Bool < numerics < Str`. An empty IN-set matches
/// nothing. [`Predicate::matches`] is the normative semantics every
/// pushdown implementation must reproduce.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `column = value` (Value equality).
    Eq(Value),
    /// `column ∈ set`. Kept sorted and deduplicated (see
    /// [`Predicate::in_set`]) so equal sets compare and hash equal.
    In(Vec<Value>),
    /// `column` within an (optionally half-open) interval of the total
    /// order.
    Range {
        min: Option<Bound>,
        max: Option<Bound>,
    },
    /// `column` *probably* in a key set: a one-sided [`BloomFilter`]
    /// membership test. Unlike the other kinds this predicate is
    /// intentionally approximate — `matches` admits every inserted key
    /// plus a tunable fraction of false positives — so it is only ever
    /// generated where over-admission is harmless: the semi-join sideways
    /// pass, whose downstream join discards the extras. Sources that
    /// cannot evaluate it natively simply decline the claim and the
    /// mediator evaluates it as a residual filter.
    Bloom(BloomFilter),
}

impl Predicate {
    pub fn eq(value: impl Into<Value>) -> Self {
        Predicate::Eq(value.into())
    }

    /// Builds a canonical IN-set: sorted, deduplicated.
    pub fn in_set(values: impl IntoIterator<Item = Value>) -> Self {
        let mut values: Vec<Value> = values.into_iter().collect();
        values.sort();
        values.dedup();
        Predicate::In(values)
    }

    pub fn range(min: Option<Bound>, max: Option<Bound>) -> Self {
        Predicate::Range { min, max }
    }

    /// `column >= value`.
    pub fn at_least(value: impl Into<Value>) -> Self {
        Predicate::Range {
            min: Some(Bound::inclusive(value.into())),
            max: None,
        }
    }

    /// `column <= value`.
    pub fn at_most(value: impl Into<Value>) -> Self {
        Predicate::Range {
            min: None,
            max: Some(Bound::inclusive(value.into())),
        }
    }

    /// `low <= column <= high`.
    pub fn between(low: impl Into<Value>, high: impl Into<Value>) -> Self {
        Predicate::Range {
            min: Some(Bound::inclusive(low.into())),
            max: Some(Bound::inclusive(high.into())),
        }
    }

    /// Whether a value satisfies the predicate — the reference semantics.
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            Predicate::Eq(v) => value == v,
            // Linear membership: IN-sets are small, and the variant is
            // public — a directly-built (unsorted) vec must match the same
            // rows as the canonical [`Predicate::in_set`] form.
            Predicate::In(vs) => vs.contains(value),
            Predicate::Range { min, max } => {
                if let Some(b) = min {
                    match value.cmp(&b.value) {
                        std::cmp::Ordering::Less => return false,
                        std::cmp::Ordering::Equal if !b.inclusive => return false,
                        _ => {}
                    }
                }
                if let Some(b) = max {
                    match value.cmp(&b.value) {
                        std::cmp::Ordering::Greater => return false,
                        std::cmp::Ordering::Equal if !b.inclusive => return false,
                        _ => {}
                    }
                }
                true
            }
            Predicate::Bloom(filter) => filter.may_contain(value),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Eq(v) => write!(f, "={v}"),
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
            Predicate::Range { min, max } => {
                if let Some(b) = min {
                    write!(f, "{}{}", if b.inclusive { "≥" } else { ">" }, b.value)?;
                }
                if min.is_some() && max.is_some() {
                    f.write_str(" ")?;
                }
                if let Some(b) = max {
                    write!(f, "{}{}", if b.inclusive { "≤" } else { "<" }, b.value)?;
                }
                if min.is_none() && max.is_none() {
                    f.write_str("∈(-∞,∞)")?;
                }
                Ok(())
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
    columns: Vec<String>,
    /// Output attributes, positionally aligned with `columns` — the fused
    /// rename.
    output: Schema,
    /// Pushed-down selections, all of which must hold (conjunction). Each
    /// is on a source-local column, which need not be in `columns`.
    filters: Vec<ColumnFilter>,
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

    /// Appends an equality conjunct (sugar for
    /// [`ScanRequest::with_predicate`] with [`Predicate::Eq`]).
    pub fn with_filter(self, column: impl Into<String>, value: Value) -> Self {
        self.with_predicate(column, Predicate::Eq(value))
    }

    /// Appends a predicate conjunct on a source-local column.
    pub fn with_predicate(mut self, column: impl Into<String>, predicate: Predicate) -> Self {
        self.filters.push(ColumnFilter {
            column: column.into(),
            predicate,
        });
        self
    }

    /// Appends an already-built filter conjunct.
    pub fn with_column_filter(mut self, filter: ColumnFilter) -> Self {
        self.filters.push(filter);
        self
    }

    /// Appends a filter conjunct in place — the runtime form semi-join
    /// sideways passing uses to inject build-key IN-sets into an
    /// already-compiled probe scan.
    pub fn add_column_filter(&mut self, filter: ColumnFilter) {
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
/// `Sync` is a supertrait so a shared [`ExecContext`] can fan walk plans out
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
    /// mutation; the [`ExecContext`] folds it into its scan-cache key, so a
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
    /// Plan compilers put only *claimed* filters into [`ScanRequest`]s;
    /// unclaimed predicates stay in the mediator as a post-scan
    /// [`PhysicalPlan::Filter`] residue, so answers never depend on what a
    /// source can or cannot evaluate. The default claims everything — the
    /// [`ScanRequest::apply`] fallback evaluates any predicate.
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

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// A compiled physical query plan.
///
/// Built through the checked constructors ([`PhysicalPlan::scan`],
/// [`PhysicalPlan::project`], [`PhysicalPlan::hash_join`], …), which compute
/// and validate every node's output schema once, at compile time. The
/// physical layer is deliberately more permissive than the §2.2 logical
/// operators: Π̃/⋈̃ restrictions are enforced when walks are *built*, not
/// re-checked per batch here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// Pushdown-aware source scan; renames are fused into the request.
    Scan {
        source: String,
        request: ScanRequest,
    },
    /// Positional projection.
    Project {
        input: Box<PhysicalPlan>,
        indices: Vec<usize>,
        schema: Schema,
    },
    /// Residual selection: predicates a source did not claim, evaluated in
    /// the mediator over the input's columns (by position).
    Filter {
        input: Box<PhysicalPlan>,
        predicates: Vec<(usize, Predicate)>,
    },
    /// Equi-join; the executor builds a hash table over the smaller input
    /// (matching the eager [`crate::ops::join`] ordering contract) and
    /// streams the other side.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_key: usize,
        right_key: usize,
        schema: Schema,
    },
    /// Set union of schema-identical inputs; the executor deduplicates,
    /// emitting rows in first-occurrence order.
    Union { inputs: Vec<PhysicalPlan> },
}

impl PhysicalPlan {
    /// A scan leaf.
    pub fn scan(source: impl Into<String>, request: ScanRequest) -> Self {
        PhysicalPlan::Scan {
            source: source.into(),
            request,
        }
    }

    /// Projects `indices` of the input, labelling them with `schema`.
    pub fn project(self, indices: Vec<usize>, schema: Schema) -> Result<Self, PlanError> {
        if indices.len() != schema.len() {
            return Err(PlanError::Relation(RelationError::Arity {
                expected: schema.len(),
                found: indices.len(),
            }));
        }
        for &index in &indices {
            if index >= self.schema().len() {
                return Err(PlanError::ProjectionRange {
                    index,
                    schema: self.schema().to_string(),
                });
            }
        }
        Ok(PhysicalPlan::Project {
            input: Box::new(self),
            indices,
            schema,
        })
    }

    /// Filters by named-column predicates (conjunction), resolving the
    /// names against the input schema at build time.
    pub fn filter(self, predicates: Vec<(&str, Predicate)>) -> Result<Self, PlanError> {
        let mut resolved = Vec::with_capacity(predicates.len());
        for (column, predicate) in predicates {
            let index = self
                .schema()
                .require(column)
                .map_err(RelationError::Schema)?;
            resolved.push((index, predicate));
        }
        Ok(PhysicalPlan::Filter {
            input: Box::new(self),
            predicates: resolved,
        })
    }

    /// Projects columns by name, labelling them with `schema` (positional).
    pub fn project_columns(self, columns: &[&str], schema: Schema) -> Result<Self, PlanError> {
        let mut indices = Vec::with_capacity(columns.len());
        for column in columns {
            indices.push(
                self.schema()
                    .require(column)
                    .map_err(RelationError::Schema)?,
            );
        }
        self.project(indices, schema)
    }

    /// Equi-joins with `right` on `left_attr = right_attr`. The output
    /// schema is left's attributes followed by right's; name collisions are
    /// rejected (walk compilation source-prefixes every attribute, so they
    /// cannot occur there).
    pub fn hash_join(
        self,
        right: PhysicalPlan,
        left_attr: &str,
        right_attr: &str,
    ) -> Result<Self, PlanError> {
        let left_key = self
            .schema()
            .require(left_attr)
            .map_err(RelationError::Schema)?;
        let right_key = right
            .schema()
            .require(right_attr)
            .map_err(RelationError::Schema)?;
        let mut attrs: Vec<Attribute> = self.schema().attributes().to_vec();
        attrs.extend(right.schema().attributes().iter().cloned());
        let schema = Schema::new(attrs).map_err(RelationError::Schema)?;
        Ok(PhysicalPlan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_key,
            right_key,
            schema,
        })
    }

    /// Set union of schema-identical plans.
    pub fn union(inputs: Vec<PhysicalPlan>) -> Result<Self, PlanError> {
        let first = inputs.first().ok_or(PlanError::EmptyUnion)?;
        for input in &inputs[1..] {
            if !input.schema().same_shape(first.schema()) {
                return Err(PlanError::UnionShape {
                    left: first.schema().to_string(),
                    right: input.schema().to_string(),
                });
            }
        }
        Ok(PhysicalPlan::Union { inputs })
    }

    /// The node's output schema (computed at construction).
    pub fn schema(&self) -> &Schema {
        match self {
            PhysicalPlan::Scan { request, .. } => request.output(),
            PhysicalPlan::Project { schema, .. } | PhysicalPlan::HashJoin { schema, .. } => schema,
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Union { inputs } => inputs[0].schema(),
        }
    }

    /// The cache key of a scan leaf (`None` for interior nodes). The
    /// `data_version` is a placeholder — plans are compiled before any data
    /// is read — and is filled in from the live source at execution time.
    fn scan_key(&self) -> Option<ScanKey> {
        match self {
            PhysicalPlan::Scan { source, request } => Some(ScanKey {
                source: source.clone(),
                columns: request.columns.clone(),
                filters: request.filters.clone(),
                data_version: 0,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for PhysicalPlan {
    /// Renders the plan in a compact physical notation, e.g.
    /// `(scan w1 [monitorId→D1/VoDmonitorId] ⋈H[0=1] scan w3 [...])`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalPlan::Scan { source, request } => write!(f, "scan {source} {request}"),
            PhysicalPlan::Project {
                input,
                indices,
                schema,
            } => {
                write!(f, "Π{schema}#{indices:?}({input})")
            }
            PhysicalPlan::Filter { input, predicates } => {
                f.write_str("σ̂[")?;
                for (i, (index, predicate)) in predicates.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∧ ")?;
                    }
                    write!(f, "#{index}{predicate}")?;
                }
                write!(f, "]({input})")
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                ..
            } => write!(f, "({left} ⋈H[{left_key}={right_key}] {right})"),
            PhysicalPlan::Union { inputs } => {
                let rendered: Vec<String> = inputs.iter().map(|p| p.to_string()).collect();
                write!(f, "∪({})", rendered.join(", "))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Interning
// ---------------------------------------------------------------------------

const POOL_SHARD_BITS: u32 = 4;
const POOL_SHARDS: usize = 1 << POOL_SHARD_BITS;

/// Interns [`Value`]s to `u32` ids. Interning respects `Value` equality and
/// hashing (which are cross-type for numerics), so id equality is exactly
/// value equality — joins and dedup never touch the values themselves.
///
/// The pool is sharded by value hash (an id is `local_index << 4 | shard`):
/// interning takes `&self` and only locks one shard briefly, so parallel
/// walk executors intern concurrently instead of serializing on one mutex.
pub struct ValuePool {
    hasher: FnvBuild,
    shards: Vec<Mutex<PoolShard>>,
}

#[derive(Default)]
struct PoolShard {
    values: Vec<Value>,
    index: HashMap<Value, u32, FnvBuild>,
    /// Running string-heap estimate (counted twice: slab + index key), so
    /// [`ValuePool::approx_bytes`] — polled after every interned batch for
    /// the high-water mark — never walks the interned values.
    str_heap: usize,
}

impl Default for ValuePool {
    fn default() -> Self {
        Self {
            hasher: FnvBuild::default(),
            shards: (0..POOL_SHARDS)
                .map(|_| Mutex::new(PoolShard::default()))
                .collect(),
        }
    }
}

impl ValuePool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a value (one clone on first occurrence only).
    pub fn intern(&self, value: &Value) -> u32 {
        let shard_index = (self.hasher.hash_one(value) as usize) & (POOL_SHARDS - 1);
        let mut shard = self.shards[shard_index]
            .lock()
            .expect("value pool poisoned");
        if let Some(&local) = shard.index.get(value) {
            return (local << POOL_SHARD_BITS) | shard_index as u32;
        }
        let local = shard.values.len() as u32;
        // Ids pack as `local << 4 | shard`; overflowing the 28 local bits
        // would silently alias two distinct values — fail loudly instead.
        assert!(
            local < 1 << (32 - POOL_SHARD_BITS),
            "value pool shard overflow: more than 2^28 distinct values in one shard"
        );
        if let Value::Str(s) = value {
            // The stored clones allocate exactly `len` bytes each (clone
            // capacity is length, whatever the caller's buffer held).
            shard.str_heap += 2 * s.len();
        }
        shard.values.push(value.clone());
        shard.index.insert(value.clone(), local);
        (local << POOL_SHARD_BITS) | shard_index as u32
    }

    /// Decodes one id, locking only its shard. Prefer [`ValuePool::reader`]
    /// for bulk decoding.
    pub fn get(&self, id: u32) -> Value {
        let shard = (id as usize) & (POOL_SHARDS - 1);
        self.shards[shard]
            .lock()
            .expect("value pool poisoned")
            .values[(id >> POOL_SHARD_BITS) as usize]
            .clone()
    }

    /// A read handle decoding ids without re-locking per value. Shards are
    /// locked in index order (the only multi-shard acquisition, so lock
    /// ordering is consistent); drop the reader before interning again on
    /// the same thread.
    pub fn reader(&self) -> PoolReader<'_> {
        PoolReader {
            guards: self
                .shards
                .iter()
                .map(|s| s.lock().expect("value pool poisoned"))
                .collect(),
        }
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("value pool poisoned").values.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rough resident-size estimate in bytes: the interned values (counted
    /// twice — once in the slab, once as index keys), string heap storage,
    /// and index slots. An accounting aid for pool watermarks, not an exact
    /// allocator measurement. O(shards): the string heap is a running
    /// counter, so the batch-granular high-water mark can poll this without
    /// walking the pool.
    pub fn approx_bytes(&self) -> usize {
        let value_size = std::mem::size_of::<Value>();
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("value pool poisoned");
                shard.values.capacity() * value_size
                    + shard.index.capacity() * (value_size + std::mem::size_of::<u32>())
                    + shard.str_heap
            })
            .sum()
    }
}

/// A locked view of a [`ValuePool`] for bulk decoding.
pub struct PoolReader<'a> {
    guards: Vec<MutexGuard<'a, PoolShard>>,
}

impl PoolReader<'_> {
    /// The value behind an id.
    pub fn decode(&self, id: u32) -> &Value {
        let shard = (id as usize) & (POOL_SHARDS - 1);
        &self.guards[shard].values[(id >> POOL_SHARD_BITS) as usize]
    }
}

/// A block of rows in interned id space. `arity` may be zero, so the row
/// count is tracked explicitly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    arity: usize,
    len: usize,
    data: Vec<u32>,
}

impl Batch {
    /// An empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Appends one row; the iterator must yield exactly `arity` ids.
    pub fn push(&mut self, row: impl IntoIterator<Item = u32>) {
        let before = self.data.len();
        self.data.extend(row);
        debug_assert_eq!(self.data.len() - before, self.arity);
        self.len += 1;
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` as an id slice.
    pub fn row(&self, i: usize) -> &[u32] {
        debug_assert!(i < self.len);
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// All rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Appends every row of `other` (equal arity).
    pub fn append(&mut self, other: &Batch) {
        debug_assert_eq!(self.arity, other.arity);
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    /// A copy of rows `[start, start + len)`.
    fn slice(&self, start: usize, len: usize) -> Batch {
        Batch {
            arity: self.arity,
            len,
            data: self.data[start * self.arity..(start + len) * self.arity].to_vec(),
        }
    }

    /// Rough resident size of the id arena, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------------
// Execution context: shared pool + scan/build caches
// ---------------------------------------------------------------------------

/// Identity of a scan's *data* (output attribute labels excluded — two
/// requests differing only in labels read the same rows). The source's
/// [`PlanSource::data_version`] at scan time is part of the identity: a
/// mutation bumps it, so a persistent context never serves rows from
/// before the mutation — it upgrades the older version's entry by the
/// appended rows when the source can resume, re-scans otherwise, and
/// either way retires the older entry once the new one is filled.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScanKey {
    source: String,
    columns: Vec<String>,
    filters: Vec<ColumnFilter>,
    data_version: u64,
}

impl ScanKey {
    /// Whether this is the same scan as `newer`, keyed under an older data
    /// version.
    fn older_version_of(&self, newer: &ScanKey) -> bool {
        self.data_version < newer.data_version
            && self.source == newer.source
            && self.columns == newer.columns
            && self.filters == newer.filters
    }
}

/// A filled scan-cache entry. Table and mark are published together: the
/// mark (absent when the source declines to mark its scans) says how much
/// of the source the table covers, which is what a later data version's
/// fill resumes from.
#[derive(Debug, Clone)]
struct CachedScan {
    table: Arc<Batch>,
    mark: Option<ScanMark>,
}

type ScanCell = Arc<OnceLock<Result<CachedScan, PlanError>>>;

/// A scan-cache slot: the single-flight cell plus the bytes
/// `scan_cache_bytes` holds for it — `0` until the fill is published, so
/// removing a slot at any point unaccounts exactly what was accounted.
struct ScanSlot {
    cell: ScanCell,
    bytes: usize,
}

/// The table of a filled cell, moved out when this is the last handle to
/// it and copied while a concurrent query still reads it.
fn take_table(cell: ScanCell) -> Option<Batch> {
    let table = match Arc::try_unwrap(cell) {
        Ok(cell) => cell.into_inner()?.ok()?.table,
        Err(shared) => shared.get()?.as_ref().ok()?.table.clone(),
    };
    Some(Arc::try_unwrap(table).unwrap_or_else(|shared| (*shared).clone()))
}

/// A hash-join build side: interned key id → build-row indices, in row
/// order (so probe output preserves build insertion order, matching the
/// eager join).
#[derive(Debug, Default)]
pub struct JoinIndex {
    groups: HashMap<u32, Vec<u32>, FnvBuild>,
}

impl JoinIndex {
    fn matches(&self, key: u32) -> Option<&[u32]> {
        self.groups.get(&key).map(Vec::as_slice)
    }

    /// Number of distinct (non-null) build keys — what
    /// [`ExecPolicy::semijoin_max_keys`] gates on.
    fn distinct_keys(&self) -> usize {
        self.groups.len()
    }

    /// The distinct build-key ids, in arbitrary order.
    fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.groups.keys().copied()
    }

    /// Rough resident size in bytes (key slots plus row-index arenas).
    fn approx_bytes(&self) -> usize {
        let slot = std::mem::size_of::<(u32, Vec<u32>)>();
        self.groups.capacity() * slot
            + self
                .groups
                .values()
                .map(|v| v.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

/// Default bound on cached scan entries (and, independently, cached join
/// build sides) in an [`ExecContext`].
pub const DEFAULT_CACHE_ENTRIES: usize = 1024;

/// One [`ExecContext`]'s lifetime counters and high-water marks as plain
/// values ([`ExecContext::counters`]). An owner of many contexts folds them
/// with `+=`: the five counts add, the two peaks take the maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextCounters {
    /// Semi-join sideways passes shipped as exact IN-set filters (see
    /// [`ExecPolicy::semijoin_max_keys`]).
    pub semijoin_insets: u64,
    /// Semi-join sideways passes shipped as bloom filters.
    pub semijoin_blooms: u64,
    /// Scan-cache fills that resumed from an older data version's
    /// [`ScanMark`] instead of re-reading their source.
    pub resumed_scans: u64,
    /// Rows those resumed fills read (and appended to the cached tables).
    pub resumed_rows: u64,
    /// Scan-cache fills that read their source from the first record (no
    /// resumable predecessor, or the source declined).
    pub full_scans: u64,
    /// [`ExecContext::peak_bytes`].
    pub peak_bytes: usize,
    /// High-water mark of [`ExecContext::pooled_values`] (a pool never
    /// shrinks, so one context's peak is its current size).
    pub peak_pooled_values: usize,
}

impl std::ops::AddAssign for ContextCounters {
    fn add_assign(&mut self, other: Self) {
        self.semijoin_insets += other.semijoin_insets;
        self.semijoin_blooms += other.semijoin_blooms;
        self.resumed_scans += other.resumed_scans;
        self.resumed_rows += other.resumed_rows;
        self.full_scans += other.full_scans;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.peak_pooled_values = self.peak_pooled_values.max(other.peak_pooled_values);
    }
}

/// Shared state for executing plans: the value pool, the interned-scan
/// cache and the hash-join build cache. `Sync` — walk plans for one
/// rewriting run against a single shared context, possibly from scoped
/// threads.
///
/// The context does **not** hold the [`PlanSource`]; execution entry points
/// take both, so a context can outlive any single source borrow and serve
/// as a cross-query cache (the scans it holds are data snapshots — reuse
/// them only while the underlying sources are known unchanged, and drop the
/// context when they are not).
///
/// Both caches are bounded ([`ExecContext::with_capacity`]); when full, the
/// least-recently-touched entry is evicted (an approximate LRU: each access
/// stamps a monotonic tick, eviction removes the minimum).
///
/// Scans go through [`PlanSource::scan_batches`]: the context pulls one
/// value-space batch at a time ([`ExecContext::scan_batch_rows`] rows,
/// [`BATCH_ROWS`] by default) and interns it before pulling the next, so a
/// scan's full `Vec<Tuple>` relation never exists here — peak value-space
/// memory per scan is one batch. The cache stores only the interned result.
pub struct ExecContext {
    pool: ValuePool,
    null_id: u32,
    max_entries: usize,
    /// Rows per batch pulled from [`PlanSource::scan_batches`].
    scan_batch_rows: usize,
    /// Pool watermark: when [`ExecContext::pooled_values`] exceeds it, the
    /// context reports [`ExecContext::over_value_cap`] so a long-lived owner
    /// can retire it (the pool itself never shrinks in place — live
    /// executions hold interned ids).
    value_cap: Option<usize>,
    /// Batch-granular high-water mark of [`ExecContext::memory_estimate`]
    /// plus in-flight (not-yet-cached) interned batches — noted after every
    /// interned batch, so cursor-only streaming peaks register even though
    /// they never land in a cache.
    peak_bytes: AtomicUsize,
    /// Running byte totals of the two caches, maintained on insert/evict so
    /// [`ExecContext::memory_estimate`] — polled once per interned batch
    /// for the high-water mark — never walks the cache maps. Each scan slot
    /// remembers what it added ([`ScanSlot::bytes`]), so a cell evicted
    /// while its scan is still in flight adds nothing and subtracts nothing.
    scan_cache_bytes: AtomicUsize,
    build_cache_bytes: AtomicUsize,
    tick: AtomicU64,
    /// Lifetime counts of semi-join sideways passes this context executed,
    /// by kind (IN-set vs bloom) — observability for
    /// `BdiSystem::planner_stats`, never consulted by the executor.
    semijoin_insets: AtomicU64,
    semijoin_blooms: AtomicU64,
    /// Lifetime counts of scan-cache fills by how they read their source:
    /// resumed from an older version's mark (and the rows that appended),
    /// or from the first record. Observability only.
    resumed_scans: AtomicU64,
    resumed_rows: AtomicU64,
    full_scans: AtomicU64,
    scans: Mutex<HashMap<ScanKey, Stamped<ScanSlot>>>,
    builds: Mutex<BuildCache>,
    /// Bounded batch feeds registered by the prefetcher for cursor-routed
    /// scans (see [`execute_plan`]): the scan operator that
    /// owns the matching request takes its feed here instead of opening a
    /// second source cursor. Feeds are per-execution and always drained or
    /// dropped before the prefetch scope joins.
    queued: Mutex<HashMap<ScanKey, QueuedFeed>>,
}

/// The receiving end of a bounded queue of interned batches produced by a
/// dedicated prefetch thread for one cursor-routed scan.
type QueuedFeed = Receiver<Result<Batch, PlanError>>;

/// `(scan, key column)` → stamped shared build index.
type BuildCache = HashMap<(ScanKey, usize), Stamped<Arc<JoinIndex>>>;

/// A cache payload with its last-touched tick.
struct Stamped<T> {
    value: T,
    last_used: u64,
}

/// Evicts the least-recently-used entry when the map is at capacity and
/// `key` is not already present, handing the removed payload back so the
/// caller can unaccount its bytes.
fn evict_for<K: Eq + std::hash::Hash + Clone, T>(
    map: &mut HashMap<K, Stamped<T>>,
    key: &K,
    max_entries: usize,
) -> Option<T> {
    if map.len() < max_entries || map.contains_key(key) {
        return None;
    }
    let oldest = map
        .iter()
        .min_by_key(|(_, s)| s.last_used)
        .map(|(k, _)| k.clone())?;
    map.remove(&oldest).map(|stamped| stamped.value)
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecContext {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_ENTRIES)
    }

    /// A context whose scan cache and build cache each hold at most
    /// `max_entries` entries (minimum 1).
    pub fn with_capacity(max_entries: usize) -> Self {
        let pool = ValuePool::new();
        let null_id = pool.intern(&Value::Null);
        Self {
            pool,
            null_id,
            max_entries: max_entries.max(1),
            scan_batch_rows: BATCH_ROWS,
            value_cap: None,
            peak_bytes: AtomicUsize::new(0),
            scan_cache_bytes: AtomicUsize::new(0),
            build_cache_bytes: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            semijoin_insets: AtomicU64::new(0),
            semijoin_blooms: AtomicU64::new(0),
            resumed_scans: AtomicU64::new(0),
            resumed_rows: AtomicU64::new(0),
            full_scans: AtomicU64::new(0),
            scans: Mutex::new(HashMap::new()),
            builds: Mutex::new(HashMap::new()),
            queued: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the number of rows per batch pulled from
    /// [`PlanSource::scan_batches`] (minimum 1; default [`BATCH_ROWS`]).
    /// Exposed mainly so the differential tests can drive the batch path at
    /// adversarial sizes.
    pub fn with_scan_batch_rows(mut self, batch_rows: usize) -> Self {
        self.scan_batch_rows = batch_rows.max(1);
        self
    }

    /// Sets the pool watermark (see [`ExecContext::over_value_cap`]).
    pub fn with_value_cap(mut self, cap: usize) -> Self {
        self.value_cap = Some(cap);
        self
    }

    /// Rows per batch this context pulls from sources.
    pub fn scan_batch_rows(&self) -> usize {
        self.scan_batch_rows
    }

    /// The configured pool watermark, if any.
    pub fn value_cap(&self) -> Option<usize> {
        self.value_cap
    }

    /// This context's lifetime counters and high-water marks, read now.
    pub fn counters(&self) -> ContextCounters {
        ContextCounters {
            semijoin_insets: self.semijoin_insets.load(Ordering::Relaxed),
            semijoin_blooms: self.semijoin_blooms.load(Ordering::Relaxed),
            resumed_scans: self.resumed_scans.load(Ordering::Relaxed),
            resumed_rows: self.resumed_rows.load(Ordering::Relaxed),
            full_scans: self.full_scans.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes(),
            peak_pooled_values: self.pooled_values(),
        }
    }

    /// Whether the shared pool has grown past the configured watermark.
    /// Interned values can never be dropped in place (executions in flight
    /// hold their ids), so a long-lived owner reacts by *replacing* the
    /// context with a fresh one — in-flight queries keep the old context
    /// alive through their `Arc` until they finish.
    pub fn over_value_cap(&self) -> bool {
        self.value_cap.is_some_and(|cap| self.pool.len() > cap)
    }

    /// Number of distinct values interned so far.
    pub fn pooled_values(&self) -> usize {
        self.pool.len()
    }

    /// Rough resident-size estimate of the context in bytes: the value
    /// pool, the cached interned scans and the cached join build sides. An
    /// accounting aid for watermark policies, not an allocator measurement.
    /// O(pool shards): the cache halves are running counters maintained on
    /// insert/evict, so the per-batch high-water poll never walks a cache.
    pub fn memory_estimate(&self) -> usize {
        self.pool.approx_bytes()
            + self.scan_cache_bytes.load(Ordering::Relaxed)
            + self.build_cache_bytes.load(Ordering::Relaxed)
    }

    /// Batch-granular high-water mark of the context's resident estimate
    /// ([`ExecContext::memory_estimate`] plus any in-flight interned batch):
    /// noted after *every* interned batch, cached or cursor-only, so the
    /// watermark reflects streaming peaks — not just the cached residue a
    /// post-query [`ExecContext::memory_estimate`] would show.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
            .load(Ordering::Relaxed)
            .max(self.memory_estimate())
    }

    /// Folds the current resident estimate (plus `in_flight_bytes` of
    /// not-yet-cached batch data) into the high-water mark.
    fn note_high_water(&self, in_flight_bytes: usize) {
        let current = self.memory_estimate() + in_flight_bytes;
        self.peak_bytes.fetch_max(current, Ordering::Relaxed);
    }

    /// The id `Value::Null` interns to (join keys equal to it never match).
    pub fn null_id(&self) -> u32 {
        self.null_id
    }

    /// Number of cached scan entries (diagnostics / eviction tests).
    pub fn cached_scans(&self) -> usize {
        self.scans.lock().expect("scan cache poisoned").len()
    }

    /// Number of cached join build sides.
    #[cfg(test)]
    fn cached_builds(&self) -> usize {
        self.builds.lock().expect("build cache poisoned").len()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a prefetch feed for a cursor-routed scan. At most one feed
    /// per key; a duplicate registration is dropped (its producer exits on
    /// the first failed send).
    fn offer_queued_scan(&self, key: ScanKey, feed: QueuedFeed) {
        self.queued
            .lock()
            .expect("queued-scan registry poisoned")
            .entry(key)
            .or_insert(feed);
    }

    /// Claims the prefetch feed registered for a scan, if any. The feed
    /// leaves the registry so exactly one operator consumes it.
    fn take_queued_scan(&self, key: &ScanKey) -> Option<QueuedFeed> {
        self.queued
            .lock()
            .expect("queued-scan registry poisoned")
            .remove(key)
    }

    /// Drops any still-unclaimed feeds among `keys`, disconnecting their
    /// producers (which would otherwise block forever on a full queue).
    fn drop_queued_scans(&self, keys: &[ScanKey]) {
        let mut queued = self.queued.lock().expect("queued-scan registry poisoned");
        for key in keys {
            queued.remove(key);
        }
    }

    /// Interns one value-space scan batch, enforcing the scan-shape
    /// contract (every row must have the request's output arity). Called
    /// from [`InternedBatches`] alone, so no consumer of a scan can
    /// diverge from another on the per-row contract.
    fn intern_scan_rows(&self, arity: usize, rows: &[Tuple]) -> Result<Batch, PlanError> {
        let mut batch = Batch::new(arity);
        for row in rows {
            if row.len() != arity {
                // Same error [`batches_from_relation`]'s shape check
                // produces, so a source that turns misshapen *mid-stream*
                // (after a well-formed first batch) surfaces identically on
                // every operator path.
                return Err(PlanError::Relation(RelationError::Arity {
                    expected: arity,
                    found: row.len(),
                }));
            }
            batch.push(row.iter().map(|v| self.pool.intern(v)));
        }
        Ok(batch)
    }

    /// Interns an entire relation.
    #[cfg(test)]
    fn intern_relation(&self, relation: &Relation) -> Batch {
        let mut batch = Batch::new(relation.schema().len());
        for row in relation.rows() {
            batch.push(row.iter().map(|v| self.pool.intern(v)));
        }
        batch
    }

    /// Decodes a batch back to owned tuples under one pool read handle.
    pub fn decode_batch(&self, batch: &Batch) -> Vec<Tuple> {
        let reader = self.pool.reader();
        batch
            .rows()
            .map(|row| row.iter().map(|&id| reader.decode(id).clone()).collect())
            .collect()
    }

    /// Decodes arbitrary id rows back to owned tuples under one pool read
    /// handle.
    pub fn decode_rows<'b>(&self, rows: impl IntoIterator<Item = &'b [u32]>) -> Vec<Tuple> {
        let reader = self.pool.reader();
        rows.into_iter()
            .map(|row| row.iter().map(|&id| reader.decode(id).clone()).collect())
            .collect()
    }

    /// Decodes one id (locks a single pool shard briefly).
    pub fn decode_value(&self, id: u32) -> Value {
        self.pool.get(id)
    }

    /// Decodes a set of ids under one pool read handle (the semi-join pass
    /// decodes build-key sets through this).
    pub fn decode_ids(&self, ids: impl IntoIterator<Item = u32>) -> Vec<Value> {
        let reader = self.pool.reader();
        ids.into_iter()
            .map(|id| reader.decode(id).clone())
            .collect()
    }

    /// Interns one value.
    pub fn intern_value(&self, value: &Value) -> u32 {
        self.pool.intern(value)
    }

    /// The interned rows of a scan, computed once per distinct
    /// `(source, columns, filters, data version)` and shared by every plan
    /// run against the context — across queries, until the entry is evicted
    /// or the source's [`PlanSource::data_version`] moves on — together
    /// with the data version the result was keyed under. Consumers deriving
    /// further cached state from the batch (the hash-join build cache) must
    /// stamp it with *this* version, not a re-read one, or a mutation
    /// landing between the scan and the derivation would cache old-batch
    /// state under the new version.
    fn scan(
        &self,
        source: &dyn PlanSource,
        name: &str,
        request: &ScanRequest,
        deadline: Option<Instant>,
    ) -> Result<(Arc<Batch>, u64), PlanError> {
        let key = versioned_scan_key(source, name, request);
        let data_version = key.data_version;
        let cell = {
            let mut scans = self.scans.lock().expect("scan cache poisoned");
            if let Some(evicted) = evict_for(&mut scans, &key, self.max_entries) {
                self.scan_cache_bytes
                    .fetch_sub(evicted.bytes, Ordering::Relaxed);
            }
            let tick = self.tick.fetch_add(1, Ordering::Relaxed);
            let entry = scans.entry(key.clone()).or_insert_with(|| Stamped {
                value: ScanSlot {
                    cell: ScanCell::default(),
                    bytes: 0,
                },
                last_used: tick,
            });
            entry.last_used = tick;
            entry.value.cell.clone()
        };
        // Concurrent callers single-flight on the cell; only the one whose
        // closure ran publishes the fill.
        let mut filled_here = false;
        let result = cell
            .get_or_init(|| {
                filled_here = true;
                self.fill_scan(source, name, request, &key, deadline)
            })
            .clone();
        match &result {
            Ok(cached) if filled_here => {
                self.publish_scan(&key, &cell, cached.table.approx_bytes());
            }
            Ok(_) => {}
            Err(_) => {
                // Failures are never cached: a transient source error or an
                // expired per-query deadline must not poison the cell for
                // later queries, which should retry the scan from scratch.
                // Remove the entry only if it still holds this very cell —
                // a concurrent eviction/refill may have already replaced it.
                let mut scans = self.scans.lock().expect("scan cache poisoned");
                if scans
                    .get(&key)
                    .is_some_and(|stamped| Arc::ptr_eq(&stamped.value.cell, &cell))
                {
                    scans.remove(&key);
                }
            }
        }
        self.note_high_water(0);
        result.map(|cached| (cached.table, data_version))
    }

    /// Computes the cache entry for `key`: by upgrading an older version's
    /// entry with the rows its source appended since
    /// ([`ExecContext::resume_scan`]) when that is possible, by reading the
    /// source in full otherwise. The `scans` lock is never held across a
    /// source call.
    fn fill_scan(
        &self,
        source: &dyn PlanSource,
        name: &str,
        request: &ScanRequest,
        key: &ScanKey,
        deadline: Option<Instant>,
    ) -> Result<CachedScan, PlanError> {
        let batch_rows = adaptive_batch_rows(self, source, name, request);
        match self.resume_scan(source, name, request, batch_rows, key, deadline) {
            Ok(Some(upgraded)) => return Ok(upgraded),
            Err(PlanError::DeadlineExceeded) => return Err(PlanError::DeadlineExceeded),
            // Declined, or failed part-way: the predecessor is untouched
            // and the full read below reports whatever is really wrong.
            Ok(None) | Err(_) => {}
        }
        let (batches, mark) = source.scan_batches(name, request, batch_rows)?;
        let table = self.collect_scan(request, batches, deadline)?;
        self.full_scans.fetch_add(1, Ordering::Relaxed);
        Ok(CachedScan {
            table: Arc::new(table),
            mark,
        })
    }

    /// Asks the source to resume from the mark of this scan's newest filled
    /// older version and appends the delta to that version's table.
    /// `Ok(None)` when there is no such entry or the source declines. The
    /// predecessor leaves the cache only once the delta is complete, so a
    /// failure at any point before leaves it usable.
    fn resume_scan(
        &self,
        source: &dyn PlanSource,
        name: &str,
        request: &ScanRequest,
        batch_rows: usize,
        key: &ScanKey,
        deadline: Option<Instant>,
    ) -> Result<Option<CachedScan>, PlanError> {
        let predecessor = {
            let scans = self.scans.lock().expect("scan cache poisoned");
            resumable_predecessor(&scans, key)
                .map(|(old_key, slot, mark)| (old_key.clone(), slot.cell.clone(), mark))
        };
        let Some((old_key, old_cell, mark)) = predecessor else {
            return Ok(None);
        };
        let Some((batches, mark)) = source.resume_batches(name, request, batch_rows, &mark)? else {
            return Ok(None);
        };
        let delta = self.collect_scan(request, batches, deadline)?;
        let retired = self
            .scans
            .lock()
            .expect("scan cache poisoned")
            .remove(&old_key);
        if let Some(slot) = retired {
            self.scan_cache_bytes
                .fetch_sub(slot.value.bytes, Ordering::Relaxed);
        }
        self.drop_builds_of(std::slice::from_ref(&old_key));
        let Some(mut table) = take_table(old_cell) else {
            return Ok(None);
        };
        table.append(&delta);
        self.resumed_scans.fetch_add(1, Ordering::Relaxed);
        self.resumed_rows
            .fetch_add(delta.len() as u64, Ordering::Relaxed);
        Ok(Some(CachedScan {
            table: Arc::new(table),
            mark: Some(mark),
        }))
    }

    /// A source's batch stream, interned: what every consumer of a scan —
    /// the cache fill, a cursor-only scan, a prefetch producer — pulls.
    fn interned<'a>(
        &'a self,
        request: &ScanRequest,
        batches: BatchIter<'a>,
        deadline: Option<Instant>,
    ) -> InternedBatches<'a> {
        InternedBatches {
            ctx: self,
            batches,
            arity: request.output().len(),
            deadline,
            done: false,
        }
    }

    /// Drains a source's batch stream into one interned table — the full
    /// read of a cache fill, or the delta of a resumed one.
    fn collect_scan(
        &self,
        request: &ScanRequest,
        batches: BatchIter<'_>,
        deadline: Option<Instant>,
    ) -> Result<Batch, PlanError> {
        let mut table = Batch::new(request.output().len());
        for batch in self.interned(request, batches, deadline) {
            table.append(&batch?);
            // Note the growing (not-yet-cached) table batch by batch, so
            // peak accounting is streaming-accurate even for a scan that
            // errors before caching.
            self.note_high_water(table.approx_bytes());
        }
        Ok(table)
    }

    /// Accounts a completed fill and retires every older version of the
    /// same scan (with the build indexes derived from them) — they can
    /// never be asked for again, and would otherwise stay resident until
    /// the LRU cap. A slot evicted while it was being filled is left alone.
    fn publish_scan(&self, key: &ScanKey, cell: &ScanCell, bytes: usize) {
        let mut retired: Vec<ScanKey> = Vec::new();
        {
            let mut scans = self.scans.lock().expect("scan cache poisoned");
            match scans.get_mut(key) {
                Some(stamped) if Arc::ptr_eq(&stamped.value.cell, cell) => {
                    stamped.value.bytes = bytes;
                    self.scan_cache_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                _ => return,
            }
            scans.retain(|old, stamped| {
                let stale = old.older_version_of(key);
                if stale {
                    self.scan_cache_bytes
                        .fetch_sub(stamped.value.bytes, Ordering::Relaxed);
                    retired.push(old.clone());
                }
                !stale
            });
        }
        self.drop_builds_of(&retired);
    }

    /// Drops the cached build indexes keyed on retired scans.
    fn drop_builds_of(&self, retired: &[ScanKey]) {
        if retired.is_empty() {
            return;
        }
        let mut builds = self.builds.lock().expect("build cache poisoned");
        builds.retain(|(scan, _), stamped| {
            let stale = retired.contains(scan);
            if stale {
                self.build_cache_bytes
                    .fetch_sub(stamped.value.approx_bytes(), Ordering::Relaxed);
            }
            !stale
        });
    }

    /// Whether a scan is warm for the source's current data version: its
    /// cache cell is already filled, or an older version's is and carries a
    /// mark to resume from (an O(appended) upgrade). The prefetcher skips
    /// spawning threads for warm scans (a repeated query on a persistent
    /// context would otherwise pay thread spawns just to find every cell
    /// filled), and the semi-join pass prefers them to a reduced re-read.
    fn scan_resolved(&self, source: &dyn PlanSource, name: &str, request: &ScanRequest) -> bool {
        let key = versioned_scan_key(source, name, request);
        let scans = self.scans.lock().expect("scan cache poisoned");
        scans
            .get(&key)
            .is_some_and(|stamped| stamped.value.cell.get().is_some())
            || resumable_predecessor(&scans, &key).is_some()
    }

    /// A hash-join build index over `table[key]`, cached when the build side
    /// is a scan (`cache_key`), so walks joining the same wrapper on the
    /// same ID attribute build it once.
    fn build_index(
        &self,
        cache_key: Option<(ScanKey, usize)>,
        table: &Batch,
        key: usize,
    ) -> Arc<JoinIndex> {
        if let Some(k) = &cache_key {
            let mut builds = self.builds.lock().expect("build cache poisoned");
            if let Some(stamped) = builds.get_mut(k) {
                stamped.last_used = self.next_tick();
                return stamped.value.clone();
            }
        }
        let mut groups: HashMap<u32, Vec<u32>, FnvBuild> = HashMap::default();
        for (i, row) in table.rows().enumerate() {
            let key_id = row[key];
            if key_id == self.null_id {
                continue; // null keys never join
            }
            groups.entry(key_id).or_default().push(i as u32);
        }
        let index = Arc::new(JoinIndex { groups });
        if let Some(k) = cache_key {
            let mut builds = self.builds.lock().expect("build cache poisoned");
            if let Some(evicted) = evict_for(&mut builds, &k, self.max_entries) {
                self.build_cache_bytes
                    .fetch_sub(evicted.approx_bytes(), Ordering::Relaxed);
            }
            self.build_cache_bytes
                .fetch_add(index.approx_bytes(), Ordering::Relaxed);
            let replaced = builds.insert(
                k,
                Stamped {
                    value: index.clone(),
                    last_used: self.next_tick(),
                },
            );
            if let Some(previous) = replaced {
                // A racing builder of the same key got here first; keep the
                // byte counter matched to what the map actually holds.
                self.build_cache_bytes
                    .fetch_sub(previous.value.approx_bytes(), Ordering::Relaxed);
            }
        }
        index
    }
}

/// The one consumer loop between a source and the executor
/// ([`ExecContext::interned`]): pull a source batch, check the deadline,
/// intern the rows, note the high-water mark. The scan cache's fill appends
/// what it yields, a cursor-only scan hands it on, a prefetch producer
/// sends it. Batches a filter emptied are skipped; the first error (the
/// deadline's included) ends the stream.
struct InternedBatches<'a> {
    ctx: &'a ExecContext,
    batches: BatchIter<'a>,
    arity: usize,
    deadline: Option<Instant>,
    done: bool,
}

impl Iterator for InternedBatches<'_> {
    type Item = Result<Batch, PlanError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let Some(rows) = self.batches.next() else {
                break;
            };
            let interned = if self.deadline.is_some_and(|d| Instant::now() >= d) {
                Err(PlanError::DeadlineExceeded)
            } else {
                rows.map_err(PlanError::from)
                    .and_then(|rows| self.ctx.intern_scan_rows(self.arity, &rows))
            };
            match interned {
                Ok(batch) if batch.is_empty() => {}
                Ok(batch) => {
                    self.ctx.note_high_water(batch.approx_bytes());
                    return Some(Ok(batch));
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        self.done = true;
        None
    }
}

/// An arena-backed set of interned rows: unique rows live concatenated in
/// one `Vec<u32>`, membership goes through a row-hash index — no per-row
/// allocation, unlike a `HashSet<Box<[u32]>>`. Used by the streamed union's
/// dedup.
pub struct RowSet {
    arity: usize,
    len: usize,
    data: Vec<u32>,
    hasher: FnvBuild,
    /// Row hash → ordinal of the first row with that hash.
    index: HashMap<u64, u32, FnvBuild>,
    /// Rare same-hash-different-row entries, scanned linearly.
    overflow: Vec<(u64, u32)>,
}

impl RowSet {
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            data: Vec::new(),
            hasher: FnvBuild::default(),
            index: HashMap::default(),
            overflow: Vec::new(),
        }
    }

    fn row(&self, ordinal: usize) -> &[u32] {
        &self.data[ordinal * self.arity..(ordinal + 1) * self.arity]
    }

    fn push_row(&mut self, row: &[u32]) -> u32 {
        let ordinal = self.len as u32;
        self.data.extend_from_slice(row);
        self.len += 1;
        ordinal
    }

    /// Inserts a row; returns whether it was new.
    pub fn insert(&mut self, row: &[u32]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let hash = self.hasher.hash_one(row);
        match self.index.get(&hash) {
            None => {
                let ordinal = self.push_row(row);
                self.index.insert(hash, ordinal);
                true
            }
            Some(&ordinal) => {
                if self.row(ordinal as usize) == row {
                    return false;
                }
                if self
                    .overflow
                    .iter()
                    .any(|&(h, o)| h == hash && self.row(o as usize) == row)
                {
                    return false;
                }
                let ordinal = self.push_row(row);
                self.overflow.push((hash, ordinal));
                true
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The unique rows, in first-insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// The newest filled entry for an older data version of `key`'s scan that
/// carries a mark — what a fill of `key` can resume from.
fn resumable_predecessor<'m>(
    scans: &'m HashMap<ScanKey, Stamped<ScanSlot>>,
    key: &ScanKey,
) -> Option<(&'m ScanKey, &'m ScanSlot, ScanMark)> {
    scans
        .iter()
        .filter(|(old, _)| old.older_version_of(key))
        .filter_map(|(old, stamped)| match stamped.value.cell.get() {
            Some(Ok(CachedScan {
                mark: Some(mark), ..
            })) => Some((old, &stamped.value, *mark)),
            _ => None,
        })
        .max_by_key(|(old, ..)| old.data_version)
}

/// The cache/registry key of a scan against the source's *current* data
/// version — the single place the key is assembled, shared by the scan
/// cache, the warm check and the queued-feed registry.
fn versioned_scan_key(source: &dyn PlanSource, name: &str, request: &ScanRequest) -> ScanKey {
    ScanKey {
        source: name.to_owned(),
        columns: request.columns.clone(),
        filters: request.filters.clone(),
        data_version: source.data_version(name),
    }
}

/// Whether a scan materializes through the context cache. The prefetcher
/// and the scan operator must agree on this, so it is the single decision
/// point: a scan is cached unless its estimated interned size exceeds the
/// context's value-cap watermark — then it runs cursor-only rather than
/// blow the memory bound the cap promises. An uncapped context caches
/// everything, as does a source that publishes neither stats nor a hint.
///
/// The estimate prefers the source's [`PlanSource::stats`] snapshot when
/// one exists: the cached table's cell count is post-filter rows × arity,
/// but the *pool* growth a cache admission risks is bounded per column by
/// the column's distinct count — a million-row scan of a hundred-value
/// enum column interns a hundred values, not a million. The batch's own
/// row-id storage is still rows × arity, so the stats path also declines
/// when that exceeds [`SCAN_CACHE_ID_CELLS_PER_VALUE`] × cap. Without
/// stats the flat hinted-rows × arity gate is kept.
fn scan_uses_cache(
    ctx: &ExecContext,
    source: &dyn PlanSource,
    name: &str,
    request: &ScanRequest,
) -> bool {
    let Some(cap) = ctx.value_cap() else {
        return true;
    };
    if let Some(stats) = source.stats(name) {
        let rows = stats.estimate_rows(request.filters());
        // The cached batch stores rows × arity row-id cells no matter how
        // few distinct values back them — bound that storage too
        // ([`SCAN_CACHE_ID_CELLS_PER_VALUE`]), so a huge low-cardinality
        // scan cannot grow cache bytes unbounded under a tight value cap.
        let id_cells = rows.saturating_mul(request.output().len().max(1) as u64);
        if id_cells > (cap as u64).saturating_mul(SCAN_CACHE_ID_CELLS_PER_VALUE) {
            return false;
        }
        let cells: u64 = request
            .columns()
            .iter()
            .map(|column| {
                stats
                    .column(column)
                    .map(|c| c.distinct.min(rows))
                    .unwrap_or(rows)
            })
            .sum();
        return cells <= cap as u64;
    }
    match source.scan_hint(name, request) {
        Some(hint) => {
            let cells = hint.saturating_mul(request.output().len().max(1) as u64);
            cells <= cap as u64
        }
        None => true,
    }
}

/// Rows per batch for one scan: the context's configured batch size,
/// unless it is the untouched default *and* the source publishes
/// row-width statistics — then the batch is sized to roughly
/// [`ADAPTIVE_BATCH_BYTES`] of value payload (clamped), so wide rows
/// batch smaller and narrow rows batch larger. An explicit
/// [`ExecContext::with_scan_batch_rows`] override always wins.
fn adaptive_batch_rows(
    ctx: &ExecContext,
    source: &dyn PlanSource,
    name: &str,
    request: &ScanRequest,
) -> usize {
    let configured = ctx.scan_batch_rows();
    if configured != BATCH_ROWS {
        return configured;
    }
    match source.stats(name) {
        Some(stats) => {
            let width = stats.avg_row_bytes(request.columns());
            ((ADAPTIVE_BATCH_BYTES / width) as usize)
                .clamp(ADAPTIVE_BATCH_MIN_ROWS, ADAPTIVE_BATCH_MAX_ROWS)
        }
        None => configured,
    }
}

/// Estimated output rows of a plan subtree: defined for scan-leaf chains
/// (Project/Filter over one Scan — none of which grow the row
/// count), `None` for joins and unions.
fn plan_hint(plan: &PhysicalPlan, source: &dyn PlanSource) -> Option<u64> {
    match plan {
        PhysicalPlan::Scan {
            source: name,
            request,
        } => source.scan_hint(name, request),
        PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => {
            plan_hint(input, source)
        }
        _ => None,
    }
}

/// Whether [`plan_hint`] for this subtree may be a statistics *estimate*
/// that under-counts the scan's rows: the scan leaf carries claimed
/// filters and its source publishes sketches, so the hint routed through
/// [`PlanSource::stats`] selectivity estimation. An unfiltered hint is
/// exact (or `None`), and a filtered hint from a sketch-less source is
/// the unfiltered count — an upper bound; only the sketch estimate can
/// land *below* the live count.
fn plan_hint_is_estimate(plan: &PhysicalPlan, source: &dyn PlanSource) -> bool {
    match plan {
        PhysicalPlan::Scan {
            source: name,
            request,
        } => !request.filters().is_empty() && source.stats(name).is_some(),
        PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => {
            plan_hint_is_estimate(input, source)
        }
        _ => false,
    }
}

/// Maps output column `index` of a scan-leaf chain down to its scan:
/// `(source name, source-local column)` — the site a semi-join IN-set
/// would be injected at. `None` when the subtree is not such a chain.
fn plan_scan_site(plan: &PhysicalPlan, index: usize) -> Option<(&str, &str)> {
    match plan {
        PhysicalPlan::Scan {
            source: name,
            request,
        } => Some((name.as_str(), request.columns().get(index)?.as_str())),
        PhysicalPlan::Filter { input, .. } => plan_scan_site(input, index),
        PhysicalPlan::Project { input, indices, .. } => plan_scan_site(input, *indices.get(index)?),
        _ => None,
    }
}

/// Whether injecting `keys` distinct build keys into the probe scan of
/// `probe_column` promises a [`SEMIJOIN_SELECTIVITY`]-fold reduction — the
/// one gate behind both the executor's injection (`OpNode::init_join`, with
/// the build index's live key count) and the prefetcher's mirror
/// ([`semijoin_probe_plan`], with the build's row hint as its upper bound).
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

/// The probe-side subtree of a hash join that semi-join sideways passing
/// would reduce (both children hinted, probe key maps to a scan site).
/// Mirrored by the prefetcher so it never warms — and caches — a scan the
/// executor is about to issue reduced or cache-bypassed.
fn semijoin_probe_plan<'p>(
    left: &'p PhysicalPlan,
    right: &'p PhysicalPlan,
    left_key: usize,
    right_key: usize,
    source: &dyn PlanSource,
    policy: &ExecPolicy,
) -> Option<&'p PhysicalPlan> {
    if policy.semijoin_max_keys == 0 {
        return None;
    }
    let left_hint = plan_hint(left, source)?;
    let right_hint = plan_hint(right, source)?;
    let (build, probe, probe_key, build_hint, probe_hint) = if left_hint <= right_hint {
        (left, right, right_key, left_hint, right_hint)
    } else {
        (right, left, left_key, right_hint, left_hint)
    };
    let (scan_name, column) = plan_scan_site(probe, probe_key)?;
    // The operator's selectivity gate, approximated with the build *row*
    // hint (an upper bound on its distinct keys): the probe is only
    // skipped here when the operator will certainly reduce it. A
    // duplicate-heavy build may still reduce a probe the prefetcher
    // warmed — a wasted warm, never a wrong answer.
    if !semijoin_pays(source, build_hint, probe_hint, scan_name, column) {
        return None;
    }
    // Distinct build keys never exceed the build's *exact* row hint, so a
    // hint under the IN-set threshold makes an IN-set injection certain; a
    // hint between the IN-set and bloom thresholds makes *some* injection
    // (IN-set for a duplicate-heavy build, bloom otherwise) certain. Past
    // the bloom cap the probe runs unreduced and must keep its prefetch. A
    // source that declines the pass will also be scanned unreduced, so
    // probe the claim with the matching canonical filter. A
    // sketch-*estimated* build hint (see [`plan_hint_is_estimate`])
    // can land on either side of the IN-set threshold, so the executor may
    // pick either kind — require both canonical claims then. A
    // value-sensitive claimer may still diverge from the real injected set;
    // either way the cost is one wasted (or missed) warm, never a wrong
    // answer.
    let estimate = plan_hint_is_estimate(build, source);
    let in_set = ColumnFilter::new(column, Predicate::in_set([Value::Int(0)]));
    let bloom = ColumnFilter::new(column, Predicate::Bloom(BloomFilter::claims_probe()));
    if build_hint <= policy.semijoin_max_keys as u64 {
        if !source.claims(scan_name, &in_set) {
            return None;
        }
        if estimate && !source.claims(scan_name, &bloom) {
            return None;
        }
    } else if build_hint <= BLOOM_SEMIJOIN_MAX_KEYS as u64 {
        if !source.claims(scan_name, &bloom) {
            return None;
        }
        if estimate && !source.claims(scan_name, &in_set) {
            return None;
        }
    } else {
        return None;
    }
    Some(probe)
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
    /// Cursor-only through a prefetch feed: a dedicated producer thread
    /// pulls and interns source batches into a bounded queue
    /// ([`PREFETCH_QUEUE_BATCHES`]), overlapping source latency with the
    /// pipeline while backpressure keeps residency bounded.
    Queued { feed: QueuedFeed, done: bool },
}

enum OpNode<'r> {
    Scan(ScanOp<'r>),
    Project {
        input: Box<OpNode<'r>>,
        indices: Vec<usize>,
    },
    Filter {
        input: Box<OpNode<'r>>,
        predicates: Vec<(usize, Predicate)>,
        /// Id-space forms of `predicates`, interned lazily on first pull.
        compiled: Option<Vec<(usize, CompiledPredicate)>>,
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

/// A residual predicate lowered into interned-id space.
enum CompiledPredicate {
    /// Eq / IN: the interned ids of the predicate values — id equality *is*
    /// value equality, so membership is an integer compare.
    Ids(Vec<u32>),
    /// Range / bloom: evaluated on the decoded value, memoized per id (each
    /// distinct id is decoded and compared — or bloom-probed — at most once
    /// per operator).
    Range {
        predicate: Predicate,
        memo: HashMap<u32, bool, FnvBuild>,
    },
}

impl CompiledPredicate {
    fn compile(predicate: &Predicate, ctx: &ExecContext) -> Self {
        match predicate {
            Predicate::Eq(v) => CompiledPredicate::Ids(vec![ctx.intern_value(v)]),
            Predicate::In(vs) => {
                let mut ids: Vec<u32> = vs.iter().map(|v| ctx.intern_value(v)).collect();
                ids.sort_unstable();
                ids.dedup();
                CompiledPredicate::Ids(ids)
            }
            decoded @ (Predicate::Range { .. } | Predicate::Bloom(_)) => CompiledPredicate::Range {
                predicate: decoded.clone(),
                memo: HashMap::default(),
            },
        }
    }

    fn matches(&mut self, id: u32, ctx: &ExecContext) -> bool {
        match self {
            CompiledPredicate::Ids(ids) => ids.binary_search(&id).is_ok(),
            CompiledPredicate::Range { predicate, memo } => *memo
                .entry(id)
                .or_insert_with(|| predicate.matches(&ctx.decode_value(id))),
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
            } else if let Some(feed) = (!*semijoin_reduced)
                .then(|| ctx.take_queued_scan(&versioned_scan_key(source, name, request)))
                .flatten()
            {
                // The prefetcher registered a bounded feed for this scan —
                // consume it instead of opening a second source cursor. A
                // semi-join-reduced request never matches a registered key
                // (the injected IN-set changes the key), and is skipped
                // outright for clarity.
                ScanState::Queued { feed, done: false }
            } else {
                let batch_rows = adaptive_batch_rows(ctx, source, name, request);
                let (batches, _) = source.scan_batches(name, request, batch_rows)?;
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
            ScanState::Queued { feed, done } => {
                if *done {
                    return Ok(None);
                }
                // A sender dropping without an error message is the normal
                // end of stream; an expired deadline surfaces here rather
                // than blocking on a stalled producer.
                let message = match policy.deadline {
                    Some(d) => {
                        let wait = d.saturating_duration_since(Instant::now());
                        match feed.recv_timeout(wait) {
                            Ok(message) => Some(message),
                            Err(RecvTimeoutError::Timeout) => {
                                Some(Err(PlanError::DeadlineExceeded))
                            }
                            Err(RecvTimeoutError::Disconnected) => None,
                        }
                    }
                    None => feed.recv().ok(),
                };
                match message {
                    Some(Ok(batch)) => {
                        ctx.note_high_water(batch.approx_bytes());
                        Ok(Some(batch))
                    }
                    ended => {
                        *done = true;
                        ended.transpose()
                    }
                }
            }
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
            PhysicalPlan::Filter { input, predicates } => OpNode::Filter {
                input: Box::new(OpNode::compile(input)),
                predicates: predicates.clone(),
                compiled: None,
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
            OpNode::Filter { input, .. } => input.arity(),
            OpNode::HashJoin { arity, .. } | OpNode::Union { arity, .. } => *arity,
        }
    }

    /// Estimated output rows of the subtree (mirror of [`plan_hint`] over
    /// the compiled tree).
    fn size_hint(&self, source: &dyn PlanSource) -> Option<u64> {
        match self {
            OpNode::Scan(op) => source.scan_hint(&op.source, &op.request),
            OpNode::Project { input, .. } | OpNode::Filter { input, .. } => input.size_hint(source),
            _ => None,
        }
    }

    /// Maps output column `index` down a Project/Filter chain to the
    /// scan leaf it originates from — the semi-join injection site.
    fn scan_site(&mut self, index: usize) -> Option<(usize, &mut ScanOp<'r>)> {
        match self {
            OpNode::Scan(op) => Some((index, op)),
            OpNode::Filter { input, .. } => input.scan_site(index),
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
            OpNode::Filter {
                input,
                predicates,
                compiled,
            } => {
                let compiled = compiled.get_or_insert_with(|| {
                    predicates
                        .iter()
                        .map(|(index, p)| (*index, CompiledPredicate::compile(p, ctx)))
                        .collect()
                });
                loop {
                    // A predicate that rejects everything would otherwise
                    // spin through an entire cached table between leaf-level
                    // deadline checks.
                    if policy.deadline_passed() {
                        return Err(PlanError::DeadlineExceeded);
                    }
                    let Some(batch) = input.next_batch(ctx, plan_source, policy)? else {
                        return Ok(None);
                    };
                    let mut out = Batch::new(batch.arity());
                    // analyze: allow(deadline, per-row filter of one batch — bounded by BATCH_ROWS)
                    for row in batch.rows() {
                        if compiled
                            .iter_mut()
                            .all(|(index, p)| p.matches(row[*index], ctx))
                        {
                            out.push(row.iter().copied());
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
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

/// The plain pull loop: drains an [`Operator`] on the caller's thread,
/// decoding each batch.
fn pull_plan(
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
pub const PREFETCH_QUEUE_BATCHES: usize = 4;

/// Threads one query execution may occupy — prefetch producers here, walk
/// executors in the layer above: the machine's parallelism, capped at 16.
pub fn worker_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs a plan to completion against a (possibly shared) context under a
/// runtime [`ExecPolicy`], decoding the result — the one plan driver.
/// ([`Operator::new`] + [`Operator::next_batch`] is the pull API for
/// callers that consume interned batches themselves.)
///
/// Union nodes deduplicate (set semantics) and emit rows in first-occurrence
/// order; every other operator preserves its input order. Callers wanting
/// the canonical sorted form apply [`Relation::distinct`] themselves.
///
/// The pipeline pulls on the caller's thread; where there is something to
/// work ahead on, `crossbeam` scoped prefetch threads — at most
/// [`worker_budget`] of them — run ahead of it:
///
/// * **Cache-destined** scan leaves are warmed concurrently by a worker
///   pool, so a plan over several sources overlaps their scans with each
///   other — and with the join pipeline, which starts pulling immediately
///   and blocks per scan only until *that* scan's shared cache cell is
///   filled.
/// * **Cursor-routed** scan leaves (scans kept out of the cache by the
///   context's value cap) each get a *dedicated* producer thread feeding
///   interned batches through a bounded queue of
///   [`PREFETCH_QUEUE_BATCHES`] batches; the scan operator consumes the
///   queue instead of opening its own cursor. Source latency (a remote
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
/// A single-core host, and a plan with nothing to work ahead on (fewer
/// than two cold cache-destined scans and no cursor-routed one), skip the
/// threads entirely.
pub fn execute_plan(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    source: &dyn PlanSource,
    policy: ExecPolicy,
) -> Result<Relation, PlanError> {
    execute_plan_with_workers(plan, ctx, source, policy, worker_budget())
}

/// [`execute_plan`] with the prefetch-thread budget as an argument.
fn execute_plan_with_workers(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    source: &dyn PlanSource,
    policy: ExecPolicy,
    max_workers: usize,
) -> Result<Relation, PlanError> {
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
        return pull_plan(plan, ctx, source, policy);
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
    crossbeam::scope(|s| {
        let mut queued_keys = Vec::new();
        for (name, request) in &queued {
            let key = versioned_scan_key(source, name, request);
            let (tx, rx): (SyncSender<Result<Batch, PlanError>>, _) =
                std::sync::mpsc::sync_channel(PREFETCH_QUEUE_BATCHES);
            ctx.offer_queued_scan(key.clone(), rx);
            queued_keys.push(key);
            let (name, request) = (*name, *request);
            s.spawn(move |_| {
                let batch_rows = adaptive_batch_rows(ctx, source, name, request);
                let batches = match source.scan_batches(name, request, batch_rows) {
                    Ok((batches, _)) => batches,
                    Err(e) => {
                        let _ = tx.send(Err(e.into()));
                        return;
                    }
                };
                for message in ctx.interned(request, batches, deadline) {
                    // A failed send means the consumer (or the cleanup
                    // below) dropped the feed — stop fetching.
                    if tx.send(message).is_err() {
                        return;
                    }
                }
            });
        }
        for _ in 0..warm_workers {
            s.spawn(move |_| loop {
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
        let result = pull_plan(plan, ctx, source, policy);
        // Feeds nobody claimed (a probe scan reduced after registration, an
        // execution that errored before reaching its scan) would leave
        // their producers blocked on a full queue: drop them so the
        // senders disconnect before the scope joins.
        ctx.drop_queued_scans(&queued_keys);
        result
    })
    .expect("prefetch thread panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The plain pull loop under the default policy, on a fresh context.
    fn run(plan: &PhysicalPlan, source: &dyn PlanSource) -> Result<Relation, PlanError> {
        run_in(plan, &ExecContext::new(), source)
    }

    fn run_in(
        plan: &PhysicalPlan,
        ctx: &ExecContext,
        source: &dyn PlanSource,
    ) -> Result<Relation, PlanError> {
        pull_plan(plan, ctx, source, ExecPolicy::default())
    }

    fn w1() -> Relation {
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

    fn w3() -> Relation {
        Relation::new(
            Schema::from_parts::<&str>(&["TargetApp", "MonitorId", "FeedbackId"], &[]).unwrap(),
            vec![
                vec![Value::Int(1), Value::Int(12), Value::Int(77)],
                vec![Value::Int(2), Value::Int(18), Value::Int(45)],
            ],
        )
        .unwrap()
    }

    fn source(name: &str, request: &ScanRequest) -> Result<Relation, RelationError> {
        match name {
            "w1" => request.apply(&w1()),
            "w3" => request.apply(&w3()),
            other => Err(RelationError::Source(format!("unknown source {other}"))),
        }
    }

    type Scanned<'a> = Result<(BatchIter<'a>, Option<ScanMark>), RelationError>;

    /// What a source that answers a request whole returns from
    /// `scan_batches`: the relation re-chunked, unmarked.
    fn whole(relation: Relation, request: &ScanRequest, batch_rows: usize) -> Scanned<'static> {
        Ok((batches_from_relation(relation, request, batch_rows)?, None))
    }

    fn scan_all(name: &str, rel: &Relation) -> PhysicalPlan {
        PhysicalPlan::scan(name, ScanRequest::full(rel.schema()))
    }

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
        .with_filter("VoDmonitorId", Value::Int(12));
        let out = request.apply(&w1()).unwrap();
        assert_eq!(out.schema().names(), vec!["D1/lagRatio", "D1/VoDmonitorId"]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, "D1/lagRatio"), Some(&Value::Float(0.75)));
    }

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
    fn union_rejects_shape_mismatch_and_emptiness() {
        assert!(matches!(
            PhysicalPlan::union(vec![]),
            Err(PlanError::EmptyUnion)
        ));
        let err = PhysicalPlan::union(vec![scan_all("w1", &w1()), scan_all("w3", &w3())]);
        assert!(matches!(err, Err(PlanError::UnionShape { .. })));
    }

    #[test]
    fn scans_are_cached_per_request_across_plans() {
        let scans = AtomicUsize::new(0);
        let counting = |name: &str, request: &ScanRequest| {
            scans.fetch_add(1, Ordering::SeqCst);
            source(name, request)
        };
        let ctx = ExecContext::new();
        let plan = scan_all("w1", &w1());
        run_in(&plan, &ctx, &counting).unwrap();
        run_in(&plan, &ctx, &counting).unwrap();
        assert_eq!(scans.load(Ordering::SeqCst), 1);

        // A different request (a filter) is a different cache entry.
        let filtered = PhysicalPlan::scan(
            "w1",
            ScanRequest::full(w1().schema()).with_filter("VoDmonitorId", Value::Int(18)),
        );
        let out = run_in(&filtered, &ctx, &counting).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(scans.load(Ordering::SeqCst), 2);
    }

    /// A full fill is one source call: the scan hands back its own mark
    /// (or none), there is no "marked, else plain" second ask.
    #[test]
    fn a_full_fill_makes_one_source_call() {
        struct Counting(AtomicUsize);

        impl PlanSource for Counting {
            fn scan_batches<'a>(
                &'a self,
                name: &str,
                request: &ScanRequest,
                n: usize,
            ) -> Scanned<'a> {
                self.0.fetch_add(1, Ordering::SeqCst);
                source.scan_batches(name, request, n)
            }
        }

        let counting = Counting(AtomicUsize::new(0));
        let ctx = ExecContext::new();
        let scanned = run_in(&scan_all("w1", &w1()), &ctx, &counting).unwrap();
        assert_eq!(
            (scanned.len(), ctx.counters().full_scans, ctx.cached_scans()),
            (3, 1, 1)
        );
        assert_eq!(counting.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn interning_respects_cross_type_numeric_equality() {
        let ctx = ExecContext::new();
        let rel = Relation::new(
            Schema::from_parts::<&str>(&[], &["x"]).unwrap(),
            vec![vec![Value::Int(2)], vec![Value::Float(2.0)]],
        )
        .unwrap();
        let batch = ctx.intern_relation(&rel);
        assert_eq!(batch.row(0), batch.row(1));
    }

    #[test]
    fn project_by_indices_and_columns() {
        let plan = scan_all("w1", &w1())
            .project_columns(
                &["lagRatio"],
                Schema::from_parts::<&str>(&[], &["lagRatio"]).unwrap(),
            )
            .unwrap();
        let out = run(&plan, &source).unwrap();
        assert_eq!(out.schema().names(), vec!["lagRatio"]);
        assert_eq!(out.len(), 3);

        let err = scan_all("w1", &w1())
            .project(vec![7], Schema::from_parts::<&str>(&[], &["x"]).unwrap());
        assert!(matches!(err, Err(PlanError::ProjectionRange { .. })));
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
    fn predicate_matches_follow_the_total_order() {
        // Cross-type numeric equality.
        assert!(Predicate::eq(2).matches(&Value::Float(2.0)));
        // Empty IN-set matches nothing — not even null.
        let empty = Predicate::in_set([]);
        assert!(!empty.matches(&Value::Null));
        assert!(!empty.matches(&Value::Int(0)));
        // IN canonicalizes: order and duplicates don't matter.
        assert_eq!(
            Predicate::in_set([Value::Int(3), Value::Int(1), Value::Int(3)]),
            Predicate::in_set([Value::Int(1), Value::Int(3)])
        );
        assert!(Predicate::in_set([Value::Int(1), Value::Int(3)]).matches(&Value::Float(3.0)));
        // A directly-built (unsorted) In variant matches the same rows as
        // the canonical form — the variant is public, so `matches` must not
        // assume sortedness.
        assert!(Predicate::In(vec![Value::Int(3), Value::Int(1)]).matches(&Value::Int(3)));
        assert!(Predicate::In(vec![Value::Int(3), Value::Int(1)]).matches(&Value::Float(1.0)));
        // Ranges: inclusive/exclusive endpoints.
        let r = Predicate::range(
            Some(Bound::inclusive(Value::Int(1))),
            Some(Bound::exclusive(Value::Int(5))),
        );
        assert!(r.matches(&Value::Int(1)));
        assert!(r.matches(&Value::Float(4.999)));
        assert!(!r.matches(&Value::Int(5)));
        assert!(!r.matches(&Value::Int(0)));
        // Null sorts below numerics: excluded by any numeric lower bound.
        assert!(!r.matches(&Value::Null));
        // Strings sort above numerics: a min-only numeric range admits them
        // (total-order semantics — documented, and pinned differentially).
        assert!(Predicate::at_least(5).matches(&Value::Str("x".into())));
        // NaN is greatest and self-equal; -0.0 equals 0.0.
        assert!(Predicate::at_least(5).matches(&Value::Float(f64::NAN)));
        assert!(!Predicate::at_most(1e308).matches(&Value::Float(f64::NAN)));
        assert!(Predicate::between(f64::NAN, f64::NAN).matches(&Value::Float(f64::NAN)));
        assert!(Predicate::eq(Value::Float(-0.0)).matches(&Value::Int(0)));
        assert!(Predicate::between(Value::Float(-0.0), Value::Float(0.0)).matches(&Value::Int(0)));
    }

    #[test]
    fn scan_request_applies_conjunctions() {
        let request = ScanRequest::full(w1().schema())
            .with_predicate("VoDmonitorId", Predicate::at_least(12))
            .with_predicate("lagRatio", Predicate::between(0.5, 0.8));
        let out = request.apply(&w1()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "lagRatio"), Some(&Value::Float(0.75)));
    }

    #[test]
    fn residual_filter_operator_matches_reference_apply() {
        // The same predicates, once pushed into the scan request (claimed)
        // and once as a mediator-side Filter residue, agree byte-for-byte.
        let predicates = vec![
            ("VoDmonitorId", Predicate::in_set([Value::Int(12)])),
            ("lagRatio", Predicate::at_most(0.8)),
        ];
        let pushed = PhysicalPlan::scan(
            "w1",
            ScanRequest::full(w1().schema())
                .with_predicate("VoDmonitorId", predicates[0].1.clone())
                .with_predicate("lagRatio", predicates[1].1.clone()),
        );
        let residual = scan_all("w1", &w1()).filter(predicates).unwrap();
        let a = run(&pushed, &source).unwrap();
        let b = run(&residual, &source).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        // Unknown filter columns are rejected at build time.
        assert!(scan_all("w1", &w1())
            .filter(vec![("zz", Predicate::eq(1))])
            .is_err());
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
        .with_predicate("VoDmonitorId", Predicate::between(12, 17));
        let reference = request.apply(&w1()).unwrap();
        assert_eq!(reference.schema().names(), vec!["lagRatio"]);
        assert_eq!(reference.len(), 2); // both monitor-12 rows, not monitor-18
        let out = run(&PhysicalPlan::scan("w1", request), &source).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn scan_cache_evicts_least_recently_used() {
        let scans = AtomicUsize::new(0);
        let counting = |name: &str, request: &ScanRequest| {
            scans.fetch_add(1, Ordering::SeqCst);
            source(name, request)
        };
        let ctx = ExecContext::with_capacity(2);
        let w1_plan = scan_all("w1", &w1());
        let w3_plan = scan_all("w3", &w3());
        let filtered = PhysicalPlan::scan(
            "w1",
            ScanRequest::full(w1().schema()).with_filter("VoDmonitorId", Value::Int(18)),
        );
        run_in(&w1_plan, &ctx, &counting).unwrap(); // cache: w1
        run_in(&w3_plan, &ctx, &counting).unwrap(); // cache: w1, w3
        run_in(&w1_plan, &ctx, &counting).unwrap(); // touch w1
        assert_eq!(scans.load(Ordering::SeqCst), 2);
        assert_eq!(ctx.cached_scans(), 2);
        // Third distinct scan evicts the LRU entry (w3, not the re-touched w1).
        run_in(&filtered, &ctx, &counting).unwrap();
        assert_eq!(ctx.cached_scans(), 2);
        assert_eq!(scans.load(Ordering::SeqCst), 3);
        run_in(&w1_plan, &ctx, &counting).unwrap(); // still cached
        assert_eq!(scans.load(Ordering::SeqCst), 3);
        run_in(&w3_plan, &ctx, &counting).unwrap(); // was evicted → rescans
        assert_eq!(scans.load(Ordering::SeqCst), 4);
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
    fn adversarial_batch_sizes_change_nothing() {
        let plan = scan_all("w1", &w1())
            .hash_join(scan_all("w3", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        let reference = run(&plan, &source).unwrap();
        for batch_rows in [1usize, 3, 1 << 20] {
            let ctx = ExecContext::new().with_scan_batch_rows(batch_rows);
            assert_eq!(ctx.scan_batch_rows(), batch_rows);
            let out = run_in(&plan, &ctx, &source).unwrap();
            assert_eq!(out.rows(), reference.rows());
        }
    }

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
        let out =
            execute_plan_with_workers(&plan, &ctx, &counting, ExecPolicy::default(), 8).unwrap();
        assert_eq!(out.rows(), reference.rows());
        // Prefetch threads and the pulling pipeline share the cache cells:
        // each distinct scan ran exactly once.
        assert_eq!(scans.load(Ordering::SeqCst), 2);
        // Errors surface through the shared cell, prefetched or not.
        let bad = scan_all("w1", &w1())
            .hash_join(scan_all("zz", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        assert!(execute_plan_with_workers(
            &bad,
            &ExecContext::new(),
            &source,
            ExecPolicy::default(),
            8
        )
        .is_err());
    }

    /// A mutable source whose `data_version` moves with its rows — the
    /// contract that makes persistent contexts safe to reuse.
    struct Versioned {
        rows: std::sync::Mutex<Relation>,
        version: AtomicU64,
        scans: AtomicUsize,
    }

    impl PlanSource for Versioned {
        fn scan_batches<'a>(&'a self, _: &str, request: &ScanRequest, rows: usize) -> Scanned<'a> {
            self.scans.fetch_add(1, Ordering::SeqCst);
            whole(request.apply(&self.rows.lock().unwrap())?, request, rows)
        }

        fn data_version(&self, _: &str) -> u64 {
            self.version.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn scan_cache_keys_on_data_version() {
        let source = Versioned {
            rows: std::sync::Mutex::new(w1()),
            version: AtomicU64::new(0),
            scans: AtomicUsize::new(0),
        };
        let ctx = ExecContext::new();
        let plan = scan_all("w1", &w1());
        assert_eq!(run_in(&plan, &ctx, &source).unwrap().len(), 3);
        assert_eq!(run_in(&plan, &ctx, &source).unwrap().len(), 3);
        assert_eq!(source.scans.load(Ordering::SeqCst), 1); // cached

        // Mutate the data and bump the version: the same context must
        // re-scan instead of serving the stale snapshot.
        let mut bigger = w1();
        bigger
            .push(vec![Value::Int(99), Value::Float(0.5)])
            .unwrap();
        *source.rows.lock().unwrap() = bigger;
        source.version.fetch_add(1, Ordering::SeqCst);
        let fresh = run_in(&plan, &ctx, &source).unwrap();
        assert_eq!(fresh.len(), 4);
        assert_eq!(source.scans.load(Ordering::SeqCst), 2);
    }

    /// A source whose data version advances *between* a query's build-side
    /// scan and any later version read in that query (the adversarial
    /// interleaving a concurrent `push` produces under short lock holds —
    /// the scan reads rows+version before the push, anything after the
    /// push sees the bumped counter): the cached build index must be keyed
    /// by the version the scan was keyed under, never by a re-read of the
    /// live counter — or the next query at the new version would join
    /// through an index built over the old batch.
    #[test]
    fn build_cache_is_stamped_with_the_scanned_version() {
        let one_row = || {
            Relation::new(
                Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
                vec![vec![Value::Int(12), Value::Float(0.75)]],
            )
            .unwrap()
        };

        struct Racy {
            rows: std::sync::Mutex<Relation>,
            version: AtomicU64,
            reads: AtomicUsize,
        }

        impl PlanSource for Racy {
            fn scan_batches<'a>(
                &'a self,
                name: &str,
                request: &ScanRequest,
                rows: usize,
            ) -> Scanned<'a> {
                let relation = match name {
                    "wr" => request.apply(&self.rows.lock().unwrap()),
                    "w3" => request.apply(&w3()),
                    other => Err(RelationError::Source(format!("unknown source {other}"))),
                };
                whole(relation?, request, rows)
            }

            fn data_version(&self, name: &str) -> u64 {
                if name == "wr" {
                    // The concurrent push lands right after the first read
                    // (the scan's): the second read — whatever re-reads the
                    // counter later in the same query — already sees v1.
                    if self.reads.fetch_add(1, Ordering::SeqCst) == 1 {
                        self.version.fetch_add(1, Ordering::SeqCst);
                    }
                }
                self.version.load(Ordering::SeqCst)
            }
        }

        let source = Racy {
            rows: std::sync::Mutex::new(one_row()),
            version: AtomicU64::new(0),
            reads: AtomicUsize::new(0),
        };
        let ctx = ExecContext::new();
        // wr (1 row) is smaller than w3 (2 rows): wr is the build side, so
        // its cached JoinIndex is what the stamping protects.
        let plan = scan_all("wr", &one_row())
            .hash_join(scan_all("w3", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap();
        let first = run_in(&plan, &ctx, &source).unwrap();
        assert_eq!(first.len(), 1); // monitor 12 matches one w3 row

        // The push's rows become visible (its version bump was already
        // observed mid-query above): monitor 18 now also joins.
        let mut pushed = one_row();
        pushed
            .push(vec![Value::Int(18), Value::Float(0.4)])
            .unwrap();
        *source.rows.lock().unwrap() = pushed.clone();
        let second = run_in(&plan, &ctx, &source).unwrap();
        let eager = ops::join(&pushed, &w3(), "VoDmonitorId", "MonitorId").unwrap();
        assert_eq!(second.rows(), eager.rows(), "stale build index served");
        assert_eq!(second.len(), 2);
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

    #[test]
    fn value_cap_watermark_reports_overflow() {
        let ctx = ExecContext::new().with_value_cap(4);
        assert_eq!(ctx.value_cap(), Some(4));
        assert!(!ctx.over_value_cap());
        for i in 0..8 {
            ctx.intern_value(&Value::Int(i));
        }
        assert!(ctx.over_value_cap());
        assert!(ctx.pooled_values() >= 8);
        assert!(ctx.memory_estimate() > 0);
        // Uncapped contexts never report overflow.
        assert!(!ExecContext::new().over_value_cap());
    }

    /// A plan source that claims nothing — used to pin the full-residue path.
    struct NoClaims;

    impl PlanSource for NoClaims {
        fn scan_batches<'a>(
            &'a self,
            name: &str,
            request: &ScanRequest,
            rows: usize,
        ) -> Scanned<'a> {
            // A claims-nothing source must never be handed a filter.
            assert!(request.filters().is_empty());
            source.scan_batches(name, request, rows)
        }

        fn claims(&self, _source: &str, _filter: &ColumnFilter) -> bool {
            false
        }
    }

    #[test]
    fn claims_defaults_to_true_and_can_be_declined() {
        assert!(source.claims("w1", &ColumnFilter::new("x", Predicate::eq(1))));
        assert!(!NoClaims.claims("w1", &ColumnFilter::new("x", Predicate::eq(1))));
        // Residual filtering over an unclaimed source still selects.
        let plan = scan_all("w1", &w1())
            .filter(vec![("VoDmonitorId", Predicate::eq(12))])
            .unwrap();
        let out = run(&plan, &NoClaims).unwrap();
        assert_eq!(out.len(), 2);
    }

    /// A source with exact row hints that records every scan request it
    /// receives — the instrument pinning the semi-join sideways pass.
    struct Hinted {
        requests: std::sync::Mutex<Vec<(String, ScanRequest)>>,
        claim_in_sets: bool,
    }

    impl Hinted {
        fn new(claim_in_sets: bool) -> Self {
            Self {
                requests: std::sync::Mutex::new(Vec::new()),
                claim_in_sets,
            }
        }

        fn requests_for(&self, name: &str) -> Vec<ScanRequest> {
            self.requests
                .lock()
                .unwrap()
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, r)| r.clone())
                .collect()
        }

        fn relation(name: &str) -> Relation {
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

    fn w1_w3_join() -> PhysicalPlan {
        scan_all("w1", &w1())
            .hash_join(scan_all("w3", &w3()), "VoDmonitorId", "MonitorId")
            .unwrap()
    }

    /// A 12-row probe relation (`BigId` 10..=21) sharing w3's key domain —
    /// big enough that w3's two build keys pass the selectivity gate.
    fn wbig() -> Relation {
        Relation::new(
            Schema::from_parts(&["BigId"], &["load"]).unwrap(),
            (0..12)
                .map(|r| vec![Value::Int(10 + r), Value::Float(r as f64 / 4.0)])
                .collect(),
        )
        .unwrap()
    }

    fn w3_wbig_join() -> PhysicalPlan {
        scan_all("w3", &w3())
            .hash_join(scan_all("wbig", &wbig()), "MonitorId", "BigId")
            .unwrap()
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
        let out = pull_plan(&w3_wbig_join(), &ctx, &src, policy).unwrap();
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
        let out = pull_plan(&w3_wbig_join(), &ctx, &src, policy).unwrap();
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

    #[test]
    fn semijoin_survives_prefetched_execution() {
        // The prefetcher must not warm (and cache) the probe scan the
        // sideways pass is about to reduce: wbig is scanned exactly once,
        // already carrying the IN-set.
        let src = Hinted::new(true);
        let ctx = ExecContext::new();
        let out = execute_plan_with_workers(&w3_wbig_join(), &ctx, &src, ExecPolicy::default(), 8)
            .unwrap();
        let eager = ops::join(&w3(), &wbig(), "MonitorId", "BigId").unwrap();
        assert_eq!(out.rows(), eager.rows());
        let probe_requests = src.requests_for("wbig");
        assert_eq!(probe_requests.len(), 1);
        assert_eq!(probe_requests[0].filters().len(), 1);
        assert_eq!(ctx.cached_scans(), 1);
    }

    #[test]
    fn over_cap_scans_run_cursor_only_and_never_cache() {
        // Both hints exceed a value cap of 1, so both scans go cursor-only.
        let src = Hinted::new(true);
        let ctx = ExecContext::new().with_value_cap(1);
        let plan = w1_w3_join();
        let reference = run(&plan, &source).unwrap();
        let first = run_in(&plan, &ctx, &src).unwrap();
        assert_eq!(first.rows(), reference.rows());
        assert_eq!(ctx.cached_scans(), 0);
        assert_eq!(src.requests.lock().unwrap().len(), 2);
        // A second execution re-reads the sources — nothing was cached.
        let second = run_in(&plan, &ctx, &src).unwrap();
        assert_eq!(second.rows(), reference.rows());
        assert_eq!(src.requests.lock().unwrap().len(), 4);
        assert_eq!(ctx.cached_builds(), 0); // no version → no build caching
    }

    #[test]
    fn scan_caching_gates_on_value_cap_and_hint() {
        // w1's hint (3 rows) exceeds a cap of 2 → cursor-only.
        let src = Hinted::new(true);
        let capped = ExecContext::new().with_value_cap(2);
        let plan = scan_all("w1", &w1());
        let out = run_in(&plan, &capped, &src).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(capped.cached_scans(), 0);
        // An uncapped context caches as before.
        let uncapped = ExecContext::new();
        run_in(&plan, &uncapped, &src).unwrap();
        assert_eq!(uncapped.cached_scans(), 1);
        // A hintless source always caches, capped or not.
        let hintless = ExecContext::new().with_value_cap(2);
        run_in(&plan, &hintless, &source).unwrap();
        assert_eq!(hintless.cached_scans(), 1);
    }

    #[test]
    fn cursor_mode_peaks_below_cached_mode() {
        // A 5000-row scan over a 16-value domain: the cached interned table
        // dominates the resident estimate; cursor-only holds one batch.
        let src = Hinted::new(true);
        let plan = scan_all("big", &Hinted::relation("big"));

        let cached_ctx = ExecContext::new();
        let cached = run_in(&plan, &cached_ctx, &src).unwrap();
        assert_eq!(cached_ctx.cached_scans(), 1);
        let cursor_ctx = ExecContext::new().with_value_cap(1024);
        let streamed = run_in(&plan, &cursor_ctx, &src).unwrap();
        assert_eq!(cursor_ctx.cached_scans(), 0);
        assert_eq!(streamed.rows(), cached.rows());
        assert!(cursor_ctx.peak_bytes() > 0);
        assert!(
            cursor_ctx.peak_bytes() < cached_ctx.peak_bytes(),
            "cursor peak {} >= cached peak {}",
            cursor_ctx.peak_bytes(),
            cached_ctx.peak_bytes()
        );
    }

    // -- Append-aware scans -------------------------------------------------

    /// An append-only source `wgrow` (wbig's schema) that marks its scans
    /// and resumes from a mark, beside the static `w3`. Its data version
    /// and its hint are its row count; `clear` starts a new epoch.
    struct Growing {
        rows: std::sync::Mutex<Vec<Tuple>>,
        epoch: AtomicU64,
        full_reads: AtomicUsize,
        resumed_reads: AtomicUsize,
        /// While set, every read of `wgrow` fails after its first row.
        failing: std::sync::atomic::AtomicBool,
        /// Publish sketches (the semi-join gate's input) or not.
        with_stats: bool,
        requests: std::sync::Mutex<Vec<ScanRequest>>,
    }

    impl Growing {
        fn new(rows: Vec<Tuple>, with_stats: bool) -> Self {
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

        fn push(&self, id: i64, load: f64) {
            self.rows
                .lock()
                .unwrap()
                .push(vec![Value::Int(id), Value::Float(load)]);
        }

        fn relation(&self, from: usize) -> Relation {
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

    fn wgrow_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|r| vec![Value::Int(10 + r % 12), Value::Float(r as f64 / 4.0)])
            .collect()
    }

    fn w3_wgrow_join() -> PhysicalPlan {
        scan_all("w3", &w3())
            .hash_join(scan_all("wgrow", &wbig()), "MonitorId", "BigId")
            .unwrap()
    }

    /// The stale-version satellite and the tentpole's cache half in one: N
    /// appends + N queries on a persistent context read each appended row
    /// once, keep one entry per scan (and per build side), keep the byte
    /// estimate flat, and answer exactly like a fresh context every time.
    #[test]
    fn appends_upgrade_the_cached_scan_in_place() {
        // wgrow starts smaller than w3, so it is the join's build side and
        // its cached index is re-derived (and the stale one dropped) per
        // version; past two rows it becomes the probe.
        let src = Growing::new(wgrow_rows(1), false);
        let ctx = ExecContext::new();
        let policy = ExecPolicy {
            semijoin_max_keys: 0,
            ..ExecPolicy::default()
        };
        let plan = w3_wgrow_join();
        let scan_plan = scan_all("wgrow", &wbig());
        let mut bytes = Vec::new();
        for step in 0..40 {
            let persistent = pull_plan(&plan, &ctx, &src, policy).unwrap();
            let fresh = pull_plan(&plan, &ExecContext::new(), &src, policy).unwrap();
            assert_eq!(persistent.rows(), fresh.rows(), "step {step}");
            let scanned = pull_plan(&scan_plan, &ctx, &src, policy).unwrap();
            assert_eq!(scanned.rows(), src.relation(0).rows(), "step {step}");
            assert_eq!(ctx.cached_scans(), 2, "step {step}: w3 + one wgrow version");
            assert_eq!(ctx.cached_builds(), 1, "step {step}");
            bytes.push(ctx.memory_estimate());
            src.push(10 + step % 5, 100.0 + step as f64);
        }
        assert_eq!(ctx.counters().full_scans, 2); // w3 and wgrow, once each
        assert_eq!(
            (ctx.counters().resumed_scans, ctx.counters().resumed_rows),
            (39, 39)
        );
        // Flat: what 40 rows and their values take, not 40 tables' worth.
        let growth = bytes[39] - bytes[0];
        assert!(growth < 8 * 1024, "estimate grew by {growth} bytes");
        // A third of the estimate, at most, is the cached table's doubling
        // slack; the running counter matches what the map really holds.
        let fresh = ExecContext::new();
        pull_plan(&plan, &fresh, &src, policy).unwrap();
        assert!(ctx.memory_estimate() <= fresh.memory_estimate() + growth);
    }

    /// A source that no longer vouches for the marked prefix (new epoch)
    /// declines, and the fill reads in full; one that fails part-way
    /// through a resume leaves the predecessor where it was, so the next
    /// query resumes from it.
    #[test]
    fn declined_and_failed_resumes_leave_answers_and_predecessor_intact() {
        let src = Growing::new(wgrow_rows(6), false);
        let ctx = ExecContext::new();
        let plan = scan_all("wgrow", &wbig());
        assert_eq!(run_in(&plan, &ctx, &src).unwrap().len(), 6);

        // Clear + refill to a greater length: same positions, other rows.
        *src.rows.lock().unwrap() = wgrow_rows(9).split_off(2);
        src.epoch.fetch_add(1, Ordering::SeqCst);
        let refilled = run_in(&plan, &ctx, &src).unwrap();
        assert_eq!(refilled.rows(), src.relation(0).rows());
        assert_eq!(
            (ctx.counters().resumed_scans, ctx.counters().full_scans),
            (0, 2)
        );
        assert_eq!(ctx.cached_scans(), 1);

        // The source dies mid-read: the query fails, nothing is cached for
        // the new version, the old version's entry survives…
        src.push(30, 9.5);
        src.failing.store(true, Ordering::SeqCst);
        let err = run_in(&plan, &ctx, &src).unwrap_err();
        assert!(err.to_string().contains("wgrow went away"), "{err}");
        assert_eq!(ctx.cached_scans(), 1);
        // …and once the source is back, is what the next fill resumes from.
        src.failing.store(false, Ordering::SeqCst);
        src.push(31, 9.75);
        let healed = run_in(&plan, &ctx, &src).unwrap();
        assert_eq!(healed.rows(), src.relation(0).rows());
        assert_eq!(
            (ctx.counters().resumed_scans, ctx.counters().resumed_rows),
            (1, 2)
        );
        assert_eq!(ctx.counters().full_scans, 2);
        assert_eq!(ctx.cached_scans(), 1);
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
            let plan = w3_wgrow_join();
            for prefetch in [false, true] {
                let ctx = ExecContext::new();
                let out = if prefetch {
                    execute_plan_with_workers(&plan, &ctx, &src, ExecPolicy::default(), 4).unwrap()
                } else {
                    run_in(&plan, &ctx, &src).unwrap()
                };
                let eager = ops::join(&w3(), &src.relation(0), "MonitorId", "BigId").unwrap();
                assert_eq!(out.rows(), eager.rows());
                assert_eq!(
                    ctx.counters().semijoin_insets,
                    u64::from(injects),
                    "stats {with_stats}, prefetch {prefetch}"
                );
                // An unreduced probe is cached for the next query; a
                // reduced one never is. Either way wgrow was read once —
                // the prefetcher made the same call the operator did.
                assert_eq!(ctx.cached_scans(), if injects { 1 } else { 2 });
                assert_eq!(src.full_reads.swap(0, Ordering::SeqCst), 1);
            }
        }
    }
}
