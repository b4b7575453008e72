//! The wrapper abstraction.
//!
//! Following the mediator/wrapper architecture the paper adopts (§1, \[7\]),
//! a **wrapper** hides all source-side query complexity and exposes a flat
//! first-normal-form relation `w(a_ID, a_nID)`. Different wrappers over the
//! same data source represent different **schema versions** (§2); the
//! ontology layer never talks to a source directly.
//!
//! A wrapper kind implements [`Wrapper`]: `name`, `source`, `schema` and an
//! eager [`Wrapper::scan`] are all it must supply — the §2.2 reference
//! engine ([`SourceResolver`]) reads that relation whole. The streaming
//! executor reads through [`Wrapper::scan_batches`] (pushdown, batches, a
//! mark) and [`Wrapper::resume_batches`] (only what was appended since a
//! mark), whose defaults are built on `scan` and which a kind overrides to
//! do better; [`WrapperRegistry`] forwards both to the executor's
//! [`PlanSource`], where the scan contract is written down, and lowers a
//! wrapper's errors the same way for either engine.

use bdi_relational::plan::{
    batches_from_relation, BatchIter, ColumnFilter, PlanSource, Predicate, ScanMark, ScanRequest,
};
use bdi_relational::{
    BloomFilter, Relation, RelationError, Schema, SourceResolver, TableStats, Tuple, Value,
};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Whether a source failure is worth retrying.
///
/// The retry loop in a fault-tolerant wrapper (see `RemoteWrapper`) retries
/// only [`FailureKind::Transient`] failures; a [`FailureKind::Permanent`]
/// failure aborts immediately. The mediator's
/// degrade policy (`ExecOptions::on_source_failure`) receives the
/// classification through [`bdi_relational::RelationError::SourceFailure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Momentary: a timeout, a dropped connection, an overloaded endpoint.
    /// Retrying the same page may well succeed.
    Transient,
    /// Definitive: the source rejected the query or went away. Retrying
    /// cannot help.
    Permanent,
}

impl FailureKind {
    /// `true` for [`FailureKind::Transient`].
    pub(crate) fn is_transient(self) -> bool {
        matches!(self, FailureKind::Transient)
    }
}

/// Errors raised by wrapper execution.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum WrapperError {
    /// The wrapper's underlying source query failed. `kind` classifies the
    /// failure for retry/degrade decisions; the `Display` form is identical
    /// to the historical stringly variant this replaced.
    #[error("wrapper {source} failed to query its source: {cause}")]
    SourceQuery {
        /// The failing wrapper's name.
        source: String,
        /// Transient (retry may help) vs permanent (it cannot).
        kind: FailureKind,
        /// Human-readable failure cause.
        cause: String,
    },
    #[error(
        "wrapper {wrapper} produced a value of unsupported JSON shape for attribute {attribute}"
    )]
    UnsupportedShape { wrapper: String, attribute: String },
    #[error(transparent)]
    Relation(#[from] RelationError),
    #[error("unknown wrapper: {0}")]
    UnknownWrapper(String),
}

impl WrapperError {
    /// A transient [`WrapperError::SourceQuery`].
    pub fn transient(source: impl Into<String>, cause: impl Into<String>) -> Self {
        WrapperError::SourceQuery {
            source: source.into(),
            kind: FailureKind::Transient,
            cause: cause.into(),
        }
    }

    /// A permanent [`WrapperError::SourceQuery`].
    pub(crate) fn permanent(source: impl Into<String>, cause: impl Into<String>) -> Self {
        WrapperError::SourceQuery {
            source: source.into(),
            kind: FailureKind::Permanent,
            cause: cause.into(),
        }
    }
}

/// Counters over a fault-tolerant wrapper's retry loop, merged across
/// wrappers by [`WrapperRegistry::retry_stats`] and surfaced per system
/// through `BdiSystem::retry_stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetryStats {
    /// Page fetches attempted (including retries).
    pub attempts: u64,
    /// Attempts that were retries of a previously failed fetch.
    pub retries: u64,
    /// Pages fetched successfully.
    pub pages: u64,
    /// Transient failures observed (each may have triggered a retry).
    pub transient_errors: u64,
    /// Permanent failures observed (each aborted its scan).
    pub permanent_failures: u64,
    /// Attempts abandoned for exceeding the per-attempt timeout.
    pub timeouts: u64,
}

impl RetryStats {
    /// Adds another wrapper's counters into this one.
    pub(crate) fn merge(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.pages += other.pages;
        self.transient_errors += other.transient_errors;
        self.permanent_failures += other.permanent_failures;
        self.timeouts += other.timeouts;
    }
}

/// A stream of row batches from a wrapper's pushdown-aware scan — the
/// wrapper-level image of [`bdi_relational::plan::BatchIter`]. Every row
/// already has the originating request's output arity; batches respect the
/// consumer's `batch_rows` bound.
pub type RowBatches<'a> = Box<dyn Iterator<Item = Result<Vec<Tuple>, WrapperError>> + Send + 'a>;

/// A queryable view over one schema version of one data source.
pub trait Wrapper: Send + Sync {
    /// The wrapper's unique name (`w1`, `w4`, …).
    fn name(&self) -> &str;

    /// The data source this wrapper belongs to — the paper's `source(w)`.
    /// Walks never join two wrappers with the same source.
    fn source(&self) -> &str;

    /// The exposed relational schema, partitioned into ID / non-ID
    /// attributes. Attribute names are *local* (e.g. `VoDmonitorId`); the
    /// ontology layer prefixes them with the source when building `S` URIs.
    fn schema(&self) -> &Schema;

    /// Executes the wrapper's underlying query, producing the current rows.
    fn scan(&self) -> Result<Relation, WrapperError>;

    /// Pushdown-aware streaming scan: the rows of [`Wrapper::scan`] the
    /// request keeps — its columns only, renamed to its output attributes,
    /// filtered by every predicate it carries — in `scan`'s stable order,
    /// as batches of at most `batch_rows` rows, plus a [`ScanMark`] when
    /// the wrapper can say how much of its source they cover. This is the
    /// wrapper-level image of [`PlanSource::scan_batches`], which documents
    /// the contract; [`WrapperRegistry`] forwards one to the other.
    ///
    /// The default scans everything and applies the request in the
    /// mediator ([`ScanRequest::apply`], the reference semantics),
    /// unmarked: correct for any wrapper, at the cost of materializing the
    /// full relation per scan and of a full re-read after every append.
    /// Wrapper kinds that can do better override it: [`crate::TableWrapper`]
    /// clones only the projected cells of one batch at a time under short
    /// read-lock holds, [`crate::JsonWrapper`] narrows its aggregation
    /// pipeline and runs document chunks through a batch-aware cursor,
    /// [`crate::RemoteWrapper`] pages its endpoint from a producer thread.
    fn scan_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(RowBatches<'a>, Option<ScanMark>), WrapperError> {
        eager_batches(self, request, batch_rows)
    }

    /// Reads on from a mark [`Wrapper::scan_batches`] returned: only the
    /// rows of the source records appended since, in scan order, with the
    /// mark that now covers them; `Ok(None)` to decline, after which the
    /// caller scans in full ([`PlanSource::resume_batches`] has the
    /// contract).
    ///
    /// The default declines always (correct for any wrapper).
    /// [`crate::TableWrapper`] is append-only and never declines;
    /// [`crate::JsonWrapper`] resumes while its collection has only been
    /// appended to and its pipeline decides documents one by one;
    /// [`crate::RemoteWrapper`] pages a source it cannot vouch for and
    /// keeps the default.
    fn resume_batches<'a>(
        &'a self,
        _request: &ScanRequest,
        _batch_rows: usize,
        _mark: &ScanMark,
    ) -> Result<Option<(RowBatches<'a>, ScanMark)>, WrapperError> {
        Ok(None)
    }

    /// Monotonic counter over the wrapper's *source data*: bumped by every
    /// mutation visible to [`Wrapper::scan`] (row appends, document
    /// inserts). The mediator folds it into its scan-cache keys and the
    /// system's cache validity stamp, so persistent execution contexts
    /// (`reuse_scans`-style reuse) can never serve rows scanned before a
    /// mutation. The default (`0`, constant) declares the
    /// data immutable between releases — only correct for wrapper kinds
    /// whose data genuinely cannot change outside
    /// [`crate::spec::WrapperSpec`]-level re-registration.
    fn data_version(&self) -> u64 {
        0
    }

    /// Whether the wrapper natively honours `filter` inside
    /// [`Wrapper::scan_batches`]. Plan compilers push only claimed filters
    /// into the scan request; unclaimed predicates are re-applied in the
    /// mediator as a residual selection, so declining never changes
    /// answers — only where the work happens. The default claims
    /// everything, which is correct for any wrapper whose `scan_batches`
    /// falls back to [`ScanRequest::apply`].
    fn claims_filter(&self, _filter: &ColumnFilter) -> bool {
        true
    }

    /// A cheap estimate of how many rows [`Wrapper::scan_batches`] would
    /// yield, or `None` when the wrapper cannot produce one. The mediator
    /// uses it for execution-time scheduling only (hash-join build-side
    /// choice for semi-join sideways passing, cursor-only gating) — never
    /// for correctness. Return the exact count for unfiltered requests or
    /// `None` rather than guess; filtered requests may be estimated by
    /// their unfiltered count.
    fn scan_hint(&self, _request: &ScanRequest) -> Option<u64> {
        None
    }

    /// The wrapper's current per-column statistics snapshot, or `None`
    /// for wrapper kinds that do not maintain sketches (the default).
    ///
    /// The contract mirrors [`bdi_relational::plan::PlanSource::stats`]:
    /// the snapshot's [`TableStats::data_version`] must equal
    /// [`Wrapper::data_version`] at the time of the call — wrapper kinds
    /// maintain sketches under the same lock that admits writes (or
    /// rebuild lazily keyed by the version), so the planner can never
    /// price a plan against sketches of rows that no longer exist.
    /// Statistics steer plan choices only, never row membership, so a
    /// wrong snapshot degrades speed, not answers.
    fn column_stats(&self) -> Option<Arc<TableStats>> {
        None
    }

    /// A fingerprint of the wrapper's [`Wrapper::claims_filter`] answers:
    /// every schema column probed with one canonical predicate per
    /// [`Predicate`] kind (equality, IN-set, range) — see
    /// `probe_claims_fingerprint`. The system folds it into the
    /// plan-cache validity stamp, so a wrapper whose claim answers change
    /// at run time invalidates compiled plans — whose residual filter
    /// split was derived from the old answers. This default re-probes on
    /// every call (correct for any claims behaviour); the built-in wrapper
    /// kinds, whose claims depend only on their immutable schema and the
    /// predicate shape, override it with a value computed once at
    /// construction so the per-query validity stamp costs a load. Wrapper
    /// kinds whose claims depend on predicate *values* beyond the
    /// canonical probes should override this to reflect those dynamics.
    fn claims_fingerprint(&self) -> u64 {
        probe_claims_fingerprint(self.schema(), |filter| self.claims_filter(filter))
    }

    /// The wrapper's serializable definition, when it has one (used by
    /// deployment snapshots). Defaults to `Ok(None)` for wrapper kinds that
    /// cannot be persisted; an error means this wrapper's current data
    /// cannot be captured.
    fn to_spec(&self) -> Result<Option<crate::spec::WrapperSpec>, WrapperError> {
        Ok(None)
    }

    /// Retry-loop counters for wrapper kinds that talk to fallible sources
    /// (see [`crate::RemoteWrapper`]). `None` — the default — for wrapper
    /// kinds without a retry loop.
    fn retry_stats(&self) -> Option<RetryStats> {
        None
    }

    /// Downcast to [`crate::TableWrapper`], when that is what this is.
    /// The durability layer journals table-row pushes and restores
    /// data-version stamps, both of which are `TableWrapper`-specific
    /// operations it must reach through a registry of `dyn Wrapper`.
    /// `None` — the default — for every other wrapper kind.
    fn as_table(&self) -> Option<&crate::TableWrapper> {
        None
    }
}

/// What [`Wrapper::scan_batches`] defaults to, and what a wrapper kind
/// falls back to for a request it cannot push down: the full
/// [`Wrapper::scan`], the request applied in the mediator, re-chunked.
pub(crate) fn eager_batches<W: Wrapper + ?Sized>(
    wrapper: &W,
    request: &ScanRequest,
    batch_rows: usize,
) -> Result<(RowBatches<'static>, Option<ScanMark>), WrapperError> {
    let relation = request.apply(&wrapper.scan()?)?;
    let batches = batches_from_relation(relation, request, batch_rows)?;
    Ok((
        Box::new(batches.map(|r| r.map_err(WrapperError::from))),
        None,
    ))
}

/// The probe-hash behind [`Wrapper::claims_fingerprint`]: every schema
/// column × one canonical predicate per [`Predicate`] kind, hashed with the
/// claim answer. Exposed so wrapper kinds with static claims can compute it
/// once at construction instead of re-probing per query.
pub(crate) fn probe_claims_fingerprint(
    schema: &Schema,
    claims: impl Fn(&ColumnFilter) -> bool,
) -> u64 {
    let probes = [
        Predicate::eq(0),
        Predicate::in_set([Value::Int(0)]),
        Predicate::between(0, 1),
        Predicate::Bloom(BloomFilter::claims_probe()),
    ];
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for (column_index, column) in schema.names().iter().enumerate() {
        for (kind, predicate) in probes.iter().enumerate() {
            let claimed = claims(&ColumnFilter::new(*column, predicate.clone()));
            (column_index, kind, claimed).hash(&mut hasher);
        }
    }
    hasher.finish()
}

/// A shared, name-indexed set of wrappers. Implements
/// [`SourceResolver`] so rewritten walks evaluate directly against it.
#[derive(Default, Clone)]
pub struct WrapperRegistry {
    wrappers: BTreeMap<String, Arc<dyn Wrapper>>,
}

impl WrapperRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a wrapper under its own name. Re-registering a name
    /// replaces the previous wrapper (a new release supersedes).
    pub fn register(&mut self, wrapper: Arc<dyn Wrapper>) {
        self.wrappers.insert(wrapper.name().to_owned(), wrapper);
    }

    pub fn get(&self, name: &str) -> Option<&Arc<dyn Wrapper>> {
        self.wrappers.get(name)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.wrappers.contains_key(name)
    }

    pub fn len(&self) -> usize {
        self.wrappers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.wrappers.is_empty()
    }

    /// All wrappers, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Wrapper>> {
        self.wrappers.values()
    }

    /// Aggregated [`RetryStats`] across every registered wrapper that
    /// reports them (wrappers without a retry loop contribute nothing).
    pub fn retry_stats(&self) -> RetryStats {
        let mut total = RetryStats::default();
        for wrapper in self.wrappers.values() {
            if let Some(stats) = wrapper.retry_stats() {
                total.merge(&stats);
            }
        }
        total
    }

    /// Order-independent combination of every wrapper's name and
    /// [`Wrapper::claims_fingerprint`] — the registry-wide capability
    /// fingerprint the system folds into its plan-cache validity stamp.
    pub fn capabilities_fingerprint(&self) -> u64 {
        self.wrappers.values().fold(0u64, |acc, w| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            w.name().hash(&mut hasher);
            w.claims_fingerprint().hash(&mut hasher);
            acc.wrapping_add(hasher.finish())
        })
    }

    /// Order-independent combination of every wrapper's name and
    /// [`Wrapper::data_version`] — the registry-wide *statistics epoch*.
    /// Any data mutation in any wrapper changes it, and with it the
    /// system's plan-cache validity stamp: cost-based plans are priced
    /// against the wrappers' [`Wrapper::column_stats`] sketches, which are
    /// keyed by those same versions, so a sketch refresh must recompile
    /// the plans that consulted the stale sketch.
    pub fn stats_epoch(&self) -> u64 {
        self.wrappers.values().fold(0u64, |acc, w| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            w.name().hash(&mut hasher);
            w.data_version().hash(&mut hasher);
            acc.wrapping_add(hasher.finish())
        })
    }
}

impl std::fmt::Debug for WrapperRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WrapperRegistry")
            .field("wrappers", &self.wrappers.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Lowers a wrapper failure into the mediator's relational error space,
/// preserving structure where the mediator acts on it: a structured
/// relational error (e.g. an arity violation from a misbehaving stream)
/// passes through *unchanged*, so every operator path surfaces the same
/// [`RelationError::Arity`] the first-batch precheck produces; a
/// [`WrapperError::SourceQuery`] keeps its transient/permanent
/// classification in [`RelationError::SourceFailure`], so the degrade
/// policy can tell a retryable outage from a gone source. Every mapping
/// renders exactly the message the historical stringly form produced.
fn relation_error(name: &str, error: WrapperError) -> RelationError {
    match error {
        WrapperError::Relation(inner) => inner,
        WrapperError::SourceQuery {
            source,
            kind,
            cause,
        } => {
            let transient = kind.is_transient();
            let cause = WrapperError::SourceQuery {
                source,
                kind,
                cause,
            }
            .to_string();
            RelationError::SourceFailure {
                source: name.to_owned(),
                transient,
                cause,
            }
        }
        other => RelationError::Source(format!("wrapper {name} failed: {other}")),
    }
}

/// A wrapper's batch stream with its errors lowered into the mediator's
/// relational error space (see [`relation_error`]).
fn lower_batches<'a>(name: &str, batches: RowBatches<'a>) -> BatchIter<'a> {
    let name = name.to_owned();
    Box::new(batches.map(move |r| r.map_err(|e| relation_error(&name, e))))
}

impl WrapperRegistry {
    /// The wrapper a plan scan names, as the executor's error when absent.
    fn wrapper(&self, name: &str) -> Result<&Arc<dyn Wrapper>, RelationError> {
        self.wrappers
            .get(name)
            .ok_or_else(|| RelationError::Source(format!("unknown wrapper {name}")))
    }
}

/// The registry is the plan executor's pushdown-aware source catalog: each
/// [`bdi_relational::plan::PhysicalPlan`] scan resolves a wrapper by name
/// and hands it the requested projection/filter.
impl PlanSource for WrapperRegistry {
    /// The wrapper's own [`Wrapper::scan_batches`], its errors lowered.
    fn scan_batches<'a>(
        &'a self,
        name: &str,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(BatchIter<'a>, Option<ScanMark>), RelationError> {
        let (batches, mark) = self
            .wrapper(name)?
            .scan_batches(request, batch_rows)
            .map_err(|e| relation_error(name, e))?;
        Ok((lower_batches(name, batches), mark))
    }

    /// The wrapper's own [`Wrapper::resume_batches`], its errors lowered.
    fn resume_batches<'a>(
        &'a self,
        name: &str,
        request: &ScanRequest,
        batch_rows: usize,
        mark: &ScanMark,
    ) -> Result<Option<(BatchIter<'a>, ScanMark)>, RelationError> {
        let resumed = self
            .wrapper(name)?
            .resume_batches(request, batch_rows, mark)
            .map_err(|e| relation_error(name, e))?;
        Ok(resumed.map(|(batches, mark)| (lower_batches(name, batches), mark)))
    }

    /// The wrapper's own data-generation counter (unknown wrappers report a
    /// constant — the error surfaces at scan time either way).
    fn data_version(&self, name: &str) -> u64 {
        self.wrappers
            .get(name)
            .map(|w| w.data_version())
            .unwrap_or(0)
    }

    /// Delegates to the wrapper's own capability declaration. Unknown
    /// wrappers claim everything — the error surfaces at scan time either
    /// way.
    fn claims(&self, name: &str, filter: &ColumnFilter) -> bool {
        self.wrappers
            .get(name)
            .map(|w| w.claims_filter(filter))
            .unwrap_or(true)
    }

    /// The wrapper's own scan-size estimate (`None` for unknown wrappers —
    /// the error surfaces at scan time).
    ///
    /// Unfiltered requests keep the wrapper's raw answer — the
    /// exact-or-`None` contract that keeps hint-driven build-side choice
    /// identical to the eager smaller-side rule. Requests carrying claimed
    /// filters route through the wrapper's [`Wrapper::column_stats`]
    /// sketches when it maintains them, so build-side choice and the
    /// semi-join selectivity gate see the *post-filter* cardinality
    /// instead of the raw table size; wrappers without sketches keep the
    /// historical raw-count fallback.
    fn scan_hint(&self, name: &str, request: &ScanRequest) -> Option<u64> {
        let wrapper = self.wrappers.get(name)?;
        let raw = wrapper.scan_hint(request);
        if request.filters().is_empty() {
            return raw;
        }
        match wrapper.column_stats() {
            Some(stats) => Some(
                stats
                    .estimate_rows(request.filters())
                    .min(raw.unwrap_or(u64::MAX)),
            ),
            None => raw,
        }
    }

    /// The wrapper's own statistics snapshot (`None` for unknown wrappers
    /// or wrapper kinds without sketches).
    fn stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.wrappers.get(name)?.column_stats()
    }
}

/// The eager §2.2 reference reads whole relations, and names a missing or
/// failing wrapper exactly as the streaming path does.
impl SourceResolver for WrapperRegistry {
    fn resolve(&self, name: &str) -> Result<Relation, RelationError> {
        self.wrapper(name)?
            .scan()
            .map_err(|e| relation_error(name, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_wrapper::TableWrapper;
    use bdi_relational::Value;

    fn sample() -> Arc<dyn Wrapper> {
        Arc::new(
            TableWrapper::new(
                "w1",
                "D1",
                Schema::from_parts(&["id"], &["x"]).unwrap(),
                vec![vec![Value::Int(1), Value::Str("a".into())]],
            )
            .unwrap(),
        )
    }

    #[test]
    fn registry_registers_and_resolves() {
        let mut reg = WrapperRegistry::new();
        reg.register(sample());
        assert!(reg.contains("w1"));
        assert_eq!(reg.len(), 1);
        let rel = reg.resolve("w1").unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn unknown_wrapper_resolution_fails() {
        let reg = WrapperRegistry::new();
        assert!(reg.resolve("zz").is_err());
    }

    /// One wrapper kind under the scan contract.
    struct Case {
        label: &'static str,
        wrapper: Arc<dyn Wrapper>,
        /// A projecting, renaming, filtering request the kind pushes down.
        filtered: ScanRequest,
        /// Whether the kind's scans carry a mark at all.
        marks: bool,
        /// Appends one record to the source, for kinds whose marks resume.
        append: Option<Box<dyn Fn(i64)>>,
        /// Empties the source and refills it past its old length.
        clear: Option<Box<dyn Fn()>>,
    }

    fn drain(batches: RowBatches<'_>, batch_rows: usize, label: &str) -> Vec<Tuple> {
        let mut rows = Vec::new();
        for batch in batches {
            let batch = batch.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(!batch.is_empty() && batch.len() <= batch_rows, "{label}");
            rows.extend(batch);
        }
        rows
    }

    fn cases() -> Vec<Case> {
        use crate::json_wrapper::tests::{code2_wrapper, vod_store};
        use crate::remote::{FaultProfile, RemoteWrapper, RetryPolicy, SimulatedEndpoint};
        use crate::JsonWrapper;
        use bdi_docstore::{DocStore, Pipeline, Projection};
        use bdi_relational::{Attribute, Predicate};
        use serde_json::json;

        let table_row = |i: i64| vec![Value::Int(i % 4), Value::Float(i as f64), Value::Null];
        let table = Arc::new(
            TableWrapper::new(
                "wt",
                "D",
                Schema::from_parts(&["id"], &["x", "y"]).unwrap(),
                (0..10).map(table_row).collect(),
            )
            .unwrap(),
        );
        let pushed_to = table.clone();
        // The filter column rides along and is dropped from the output.
        let by_monitor = |column: &str| {
            let output = Schema::from_parts::<&str>(&[], &[&format!("D1/{column}")]).unwrap();
            ScanRequest::new(vec![column.into()], output)
                .unwrap()
                .with_filter("VoDmonitorId", Value::Int(12))
        };
        let store = vod_store();
        let (inserted_into, cleared) = (store.clone(), store.clone());
        let json_over = |store: DocStore, collection: &str, column: &str, pipeline: Pipeline| {
            let schema = Schema::from_parts::<&str>(&[], &[column]).unwrap();
            let pipeline = pipeline.project(vec![Projection::field(column, column)]);
            Arc::new(JsonWrapper::new("wj", "D1", schema, store, collection, pipeline).unwrap())
        };
        let dotted_store = DocStore::new();
        dotted_store
            .insert_many("c", vec![json!({"a": {"b": 1}}), json!({"a": {"b": 2}})])
            .unwrap();
        let dotted = json_over(dotted_store, "c", "a.b", Pipeline::new());
        let remote_rows = crate::remote::tests::sample_relation();
        let endpoint = SimulatedEndpoint::new(remote_rows, 3, FaultProfile::default());
        let remote = RemoteWrapper::new("wr", "D", Arc::new(endpoint), RetryPolicy::default());

        vec![
            Case {
                label: "table",
                wrapper: table,
                filtered: ScanRequest::new(
                    vec!["x".into(), "id".into()],
                    Schema::new(vec![Attribute::non_id("D/x"), Attribute::id("D/id")]).unwrap(),
                )
                .unwrap()
                .with_predicate("id", Predicate::between(1, 2))
                .with_predicate(
                    "x",
                    Predicate::in_set((0..20).map(|i| Value::Float(i as f64))),
                ),
                marks: true,
                append: Some(Box::new(move |i| pushed_to.push(table_row(i)).unwrap())),
                clear: None,
            },
            Case {
                label: "json",
                wrapper: Arc::new(code2_wrapper(store)),
                filtered: by_monitor("lagRatio"),
                marks: true,
                append: Some(Box::new(move |i| {
                    let monitor = 12 + 6 * (i % 2);
                    let doc = json!({"monitorId": monitor, "waitTime": i, "watchTime": 8});
                    inserted_into.insert("vod", doc).unwrap();
                    // A rejected insert moves the version, not the extent.
                    assert!(inserted_into.insert("vod", json!([1])).is_err());
                })),
                // Same positions, other documents — only the epoch can tell.
                clear: Some(Box::new(move || {
                    let image = cleared.dump();
                    cleared.clear("vod");
                    cleared.restore(image).unwrap();
                    let doc = json!({"monitorId": 7, "waitTime": 1, "watchTime": 2});
                    cleared.insert("vod", doc).unwrap();
                })),
            },
            Case {
                label: "json $limit",
                // Markable, never resumable: the budget spans documents.
                wrapper: json_over(vod_store(), "vod", "monitorId", Pipeline::new().limit(2)),
                filtered: ScanRequest::full(
                    &Schema::from_parts::<&str>(&[], &["monitorId"]).unwrap(),
                )
                .with_predicate("monitorId", Predicate::eq(12)),
                marks: true,
                append: None,
                clear: None,
            },
            Case {
                label: "json dotted",
                filtered: ScanRequest::full(dotted.schema())
                    .with_predicate("a.b", Predicate::eq(1)),
                wrapper: dotted,
                marks: false,
                append: None,
                clear: None,
            },
            Case {
                label: "remote",
                filtered: ScanRequest::full(remote.schema())
                    .with_predicate("id", Predicate::at_least(4)),
                wrapper: Arc::new(remote),
                marks: false,
                append: None,
                clear: None,
            },
        ]
    }

    /// The scan contract, kind by kind: `scan_batches` streams exactly
    /// `request.apply(scan())` at any batch size; `resume_batches` yields
    /// exactly what was appended since its mark, or declines.
    #[test]
    fn every_wrapper_kind_conforms_to_the_scan_contract() {
        for case in cases() {
            let (w, label) = (&case.wrapper, case.label);
            let full = ScanRequest::full(w.schema());
            let reference =
                |request: &ScanRequest| request.apply(&w.scan().unwrap()).unwrap().into_rows();
            for request in [&full, &case.filtered] {
                assert!(!reference(request).is_empty(), "{label}: vacuous request");
                for batch_rows in [1usize, 7, 1024] {
                    let (batches, mark) = w.scan_batches(request, batch_rows).unwrap();
                    assert_eq!(mark.is_some(), case.marks, "{label}");
                    let streamed = drain(batches, batch_rows, label);
                    assert_eq!(streamed, reference(request), "{label}");
                }
            }
            // Unknown columns fail, when the cursor is built or in its stream.
            let zz = Schema::from_parts::<&str>(&[], &["zz"]).unwrap();
            let failed = match w.scan_batches(&ScanRequest::full(&zz), 4) {
                Ok((mut batches, _)) => batches.any(|batch| batch.is_err()),
                Err(_) => true,
            };
            assert!(failed, "{label}: unknown column accepted");

            let Some(append) = &case.append else {
                // No mark to resume from, or one that never resumes.
                let mark = w.scan_batches(&full, 7).unwrap().1;
                let mark = mark.unwrap_or(ScanMark::new(0, 0));
                assert!(
                    w.resume_batches(&full, 7, &mark).unwrap().is_none(),
                    "{label}"
                );
                continue;
            };
            let mut next = 100;
            for request in [&full, &case.filtered] {
                let (batches, mark) = w.scan_batches(request, 7).unwrap();
                let mut seen = drain(batches, 7, label);
                let mut mark = mark.expect("checked above");
                for (k, batch_rows) in [(1usize, 1usize), (0, 7), (3, 1024)] {
                    (next..next + k as i64).for_each(append);
                    next += k as i64;
                    let (delta, resumed) = w
                        .resume_batches(request, batch_rows, &mark)
                        .unwrap()
                        .unwrap_or_else(|| panic!("{label}: declined after {k} appends"));
                    let delta = drain(delta, batch_rows, label);
                    if request.filters().is_empty() {
                        assert_eq!(delta.len(), k, "{label}");
                    }
                    // Earlier yield + delta = what a full scan yields now.
                    seen.extend(delta);
                    assert_eq!(seen, reference(request), "{label}: {k} appends");
                    assert_eq!(resumed == mark, k == 0, "{label}: marks count records");
                    mark = resumed;
                }
            }
            if let Some(clear) = &case.clear {
                let before = w.scan_batches(&full, 7).unwrap().1.expect("checked above");
                clear();
                assert!(
                    w.resume_batches(&full, 7, &before).unwrap().is_none(),
                    "{label}"
                );
                let (batches, after) = w.scan_batches(&full, 7).unwrap();
                assert_eq!(drain(batches, 7, label), reference(&full), "{label}");
                assert!(after.expect("markable").epoch() > before.epoch(), "{label}");
            }
        }
    }

    /// An empty scan of the wrong shape (a misconfiguration) errors through
    /// the default adapter and the registry, though no row exists to fail
    /// the consumer's per-row check.
    #[test]
    fn misshapen_empty_scan_errors_through_the_default_adapter() {
        struct Misshapen(Schema);

        impl Wrapper for Misshapen {
            fn name(&self) -> &str {
                "bad"
            }

            fn source(&self) -> &str {
                "D"
            }

            fn schema(&self) -> &Schema {
                &self.0
            }

            fn scan(&self) -> Result<Relation, WrapperError> {
                // Always one column, whatever the schema promises.
                let only = Schema::from_parts::<&str>(&[], &["only"]).unwrap();
                Ok(Relation::empty(only))
            }
        }

        let wrapper = Misshapen(Schema::from_parts(&["id"], &["x"]).unwrap());
        let request = ScanRequest::full(wrapper.schema()); // two columns
        assert!(wrapper.scan_batches(&request, 64).is_err());
        let mut reg = WrapperRegistry::new();
        reg.register(Arc::new(wrapper));
        assert!(PlanSource::scan_batches(&reg, "bad", &request, 64).is_err());
    }

    #[test]
    fn reregistering_replaces() {
        let mut reg = WrapperRegistry::new();
        reg.register(sample());
        reg.register(Arc::new(
            TableWrapper::new(
                "w1",
                "D1",
                Schema::from_parts(&["id"], &["y"]).unwrap(),
                vec![],
            )
            .unwrap(),
        ));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("w1").unwrap().schema().non_id_names(), vec!["y"]);
    }
}
