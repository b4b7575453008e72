use super::pool::{Batch, FnvBuild, ValuePool};
use super::request::{BatchIter, ColumnFilter, PlanSource, ScanMark, ScanRequest};
use super::{PlanError, BATCH_ROWS, SCAN_CACHE_ID_CELLS_PER_VALUE};
#[cfg(test)]
use crate::relation::Relation;
use crate::relation::{RelationError, Tuple};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

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
pub(super) struct ScanKey {
    pub(super) source: String,
    pub(super) columns: Vec<String>,
    pub(super) filters: Vec<ColumnFilter>,
    pub(super) data_version: u64,
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
pub(crate) struct JoinIndex {
    groups: HashMap<u32, Vec<u32>, FnvBuild>,
}

impl JoinIndex {
    pub(super) fn matches(&self, key: u32) -> Option<&[u32]> {
        self.groups.get(&key).map(Vec::as_slice)
    }

    /// Number of distinct (non-null) build keys — what
    /// [`ExecPolicy::semijoin_max_keys`] gates on.
    pub(super) fn distinct_keys(&self) -> usize {
        self.groups.len()
    }

    /// The distinct build-key ids, in arbitrary order.
    pub(super) fn keys(&self) -> impl Iterator<Item = u32> + '_ {
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
pub(crate) const DEFAULT_CACHE_ENTRIES: usize = 1024;

/// One [`ExecContext`]'s lifetime counters and high-water marks as plain
/// values ([`ExecContext::counters`]). An owner of many contexts folds them
/// with `+=`: the five counts add, the two peaks take the maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextCounters {
    /// Semi-join sideways passes shipped as exact IN-set filters (see
    /// [`ExecPolicy::semijoin_max_keys`](super::ExecPolicy::semijoin_max_keys)).
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
/// as a cross-query cache, concurrent queries included. Every cached scan is
/// keyed by its source name, columns, filters and the source's
/// [`PlanSource::data_version`] at scan time, so a context stays valid for
/// as long as a source name keeps denoting the same data at the same
/// version.
///
/// Both caches are bounded (`DEFAULT_CACHE_ENTRIES` each); when full, the
/// least-recently-touched entry is evicted (an approximate LRU: each access
/// stamps a monotonic tick, eviction removes the minimum).
///
/// Scans go through [`PlanSource::scan_batches`]: the context pulls one
/// value-space batch at a time ([`BATCH_ROWS`] rows unless
/// [`ExecContext::with_scan_batch_rows`] says otherwise) and interns it before pulling the next, so a
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
    pub(super) semijoin_insets: AtomicU64,
    pub(super) semijoin_blooms: AtomicU64,
    /// Lifetime counts of scan-cache fills by how they read their source:
    /// resumed from an older version's mark (and the rows that appended),
    /// or from the first record. Observability only.
    resumed_scans: AtomicU64,
    resumed_rows: AtomicU64,
    full_scans: AtomicU64,
    scans: Mutex<HashMap<ScanKey, Stamped<ScanSlot>>>,
    builds: Mutex<BuildCache>,
}

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
    pub(crate) fn with_capacity(max_entries: usize) -> Self {
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
    pub(crate) fn scan_batch_rows(&self) -> usize {
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
    pub(super) fn note_high_water(&self, in_flight_bytes: usize) {
        let current = self.memory_estimate() + in_flight_bytes;
        self.peak_bytes.fetch_max(current, Ordering::Relaxed);
    }

    /// The id `Value::Null` interns to (join keys equal to it never match).
    pub(crate) fn null_id(&self) -> u32 {
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
    pub(crate) fn decode_value(&self, id: u32) -> Value {
        self.pool.get(id)
    }

    /// Decodes a set of ids under one pool read handle (the semi-join pass
    /// decodes build-key sets through this).
    pub(crate) fn decode_ids(&self, ids: impl IntoIterator<Item = u32>) -> Vec<Value> {
        let reader = self.pool.reader();
        ids.into_iter()
            .map(|id| reader.decode(id).clone())
            .collect()
    }

    /// Interns one value.
    pub(crate) fn intern_value(&self, value: &Value) -> u32 {
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
    ///
    /// Concurrent callers single-flight on one fill. A source failure
    /// reaches every caller waiting on the fill; an expired deadline reaches
    /// only callers whose own deadline has passed — any other waiter fills
    /// again under its own.
    pub(super) fn scan(
        &self,
        source: &dyn PlanSource,
        name: &str,
        request: &ScanRequest,
        deadline: Option<Instant>,
    ) -> Result<(Arc<Batch>, u64), PlanError> {
        let key = versioned_scan_key(source, name, request);
        loop {
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
            // Only the caller whose closure ran publishes the fill.
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
                Err(e) => {
                    // Failures are never cached: a transient source error or
                    // an expired deadline must not poison the cell for later
                    // queries, which retry the scan from scratch. Remove the
                    // entry only if it still holds this very cell — a
                    // concurrent eviction/refill may have replaced it.
                    let mut scans = self.scans.lock().expect("scan cache poisoned");
                    if scans
                        .get(&key)
                        .is_some_and(|stamped| Arc::ptr_eq(&stamped.value.cell, &cell))
                    {
                        scans.remove(&key);
                    }
                    let foreign_expiry = !filled_here
                        && matches!(e, PlanError::DeadlineExceeded)
                        && deadline.is_none_or(|d| Instant::now() < d);
                    if foreign_expiry {
                        continue;
                    }
                }
            }
            self.note_high_water(0);
            return result.map(|cached| (cached.table, key.data_version));
        }
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
        let batch_rows = self.scan_batch_rows();
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
    /// the cache fill or a cursor-only scan — pulls.
    pub(super) fn interned<'a>(
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
    /// mark to resume from (an O(appended) upgrade). The semi-join pass
    /// prefers a warm scan to a reduced re-read.
    pub(super) fn scan_resolved(
        &self,
        source: &dyn PlanSource,
        name: &str,
        request: &ScanRequest,
    ) -> bool {
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
    pub(super) fn build_index(
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
/// what it yields and a cursor-only scan hands it on. Batches a filter
/// emptied are skipped; the first error (the deadline's included) ends the
/// stream.
pub(super) struct InternedBatches<'a> {
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

/// The cache key of a scan against the source's *current* data version —
/// the single place the key is assembled, shared by the scan cache and the
/// warm check.
fn versioned_scan_key(source: &dyn PlanSource, name: &str, request: &ScanRequest) -> ScanKey {
    ScanKey {
        source: name.to_owned(),
        columns: request.columns.clone(),
        filters: request.filters.clone(),
        data_version: source.data_version(name),
    }
}

/// Whether a scan materializes through the context cache, decided by the
/// scan operator alone: a scan is cached unless its estimated interned size
/// exceeds the context's value-cap watermark — then it runs cursor-only
/// rather than blow the memory bound the cap promises. An uncapped context
/// caches everything, as does a source that publishes neither stats nor a
/// hint.
///
/// The estimate prefers the source's [`PlanSource::stats`] snapshot when
/// one exists: the cached table's cell count is post-filter rows × arity,
/// but the *pool* growth a cache admission risks is bounded per column by
/// the column's distinct count — a million-row scan of a hundred-value
/// enum column interns a hundred values, not a million. The batch's own
/// row-id storage is still rows × arity, so the stats path also declines
/// when that exceeds [`SCAN_CACHE_ID_CELLS_PER_VALUE`] × cap. Without
/// stats the flat hinted-rows × arity gate is kept.
pub(super) fn scan_uses_cache(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::plan::test_support::*;
    use crate::plan::{execute_plan, ExecPolicy, PhysicalPlan};
    use crate::schema::Schema;

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

    /// Stale versions and resumed fills in one: N
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
            let persistent = execute_plan(&plan, &ctx, &src, policy).unwrap();
            let fresh = execute_plan(&plan, &ExecContext::new(), &src, policy).unwrap();
            assert_eq!(persistent.rows(), fresh.rows(), "step {step}");
            let scanned = execute_plan(&scan_plan, &ctx, &src, policy).unwrap();
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
        execute_plan(&plan, &fresh, &src, policy).unwrap();
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
}
