//! A wrapper over an in-memory relation — used for tests, synthetic
//! benchmarks (Figure 8's disjoint-wrapper generator) and sources that are
//! natively tabular.

use crate::wrapper::{RowBatches, Wrapper, WrapperError};
use bdi_relational::plan::{Predicate, ScanMark, ScanRequest};
use bdi_relational::{Relation, Schema, StatsBuilder, TableStats, Tuple, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Smallest IN-set the scan loop pre-sorts for binary-search membership:
/// below this, the linear `Predicate::matches` scan wins on constant cost.
const SORTED_IN_MIN: usize = 9;

/// A pushed-down predicate compiled for the scan's hot loop. Semi-join
/// sideways passing injects IN-sets of up to thousands of build keys;
/// evaluating those linearly per row would cost more than the shipped rows
/// saved, so large sets are sorted once and probed by binary search —
/// `Value`'s total order is consistent with its equality (cross-type
/// numerics compare `Equal`), so the membership answers are identical to
/// [`Predicate::matches`].
enum CompiledFilter {
    Pred(Predicate),
    SortedIn(Vec<Value>),
}

impl CompiledFilter {
    fn new(predicate: &Predicate) -> Self {
        match predicate {
            Predicate::In(values) if values.len() >= SORTED_IN_MIN => {
                let mut sorted = values.clone();
                sorted.sort();
                sorted.dedup();
                CompiledFilter::SortedIn(sorted)
            }
            other => CompiledFilter::Pred(other.clone()),
        }
    }

    fn matches(&self, value: &Value) -> bool {
        match self {
            CompiledFilter::Pred(predicate) => predicate.matches(value),
            CompiledFilter::SortedIn(values) => values.binary_search(value).is_ok(),
        }
    }
}

/// Write-time sketch state behind [`TableWrapper::column_stats`]: the
/// incremental builder plus a memoized snapshot keyed by the data version
/// it was taken under. Guarded by one mutex so a push's row append,
/// version bump and sketch update are atomic with respect to a snapshot
/// request — a published snapshot always describes exactly the rows of
/// its version.
struct StatsState {
    builder: StatsBuilder,
    cached: Option<(u64, Arc<TableStats>)>,
}

/// A static (but appendable) in-memory wrapper.
pub struct TableWrapper {
    name: String,
    source: String,
    schema: Schema,
    rows: RwLock<Vec<Tuple>>,
    /// Bumped by every [`TableWrapper::push`] — the wrapper's
    /// [`Wrapper::data_version`].
    version: AtomicU64,
    /// Capability fingerprint, computed once — this wrapper's claims
    /// depend only on its immutable schema. Read by nothing but
    /// [`Wrapper::claims_fingerprint`], and goes with it.
    claims_fp: u64,
    /// Per-column sketches, maintained incrementally at write time.
    stats: Mutex<StatsState>,
}

impl TableWrapper {
    /// Builds the wrapper, validating every row against the schema.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        schema: Schema,
        rows: Vec<Tuple>,
    ) -> Result<Self, WrapperError> {
        // Validate arity once up front.
        Relation::new(schema.clone(), rows.clone())?;
        let mut builder = StatsBuilder::new(schema.names());
        for row in &rows {
            builder.observe_row(row);
        }
        let mut wrapper = Self {
            name: name.into(),
            source: source.into(),
            schema,
            rows: RwLock::new(rows),
            version: AtomicU64::new(0),
            claims_fp: 0,
            stats: Mutex::new(StatsState {
                builder,
                cached: None,
            }),
        };
        wrapper.claims_fp = crate::wrapper::probe_claims_fingerprint(&wrapper.schema, |f| {
            Wrapper::claims_filter(&wrapper, f)
        });
        Ok(wrapper)
    }

    /// Appends a row (new source data arriving), bumps the data version
    /// and folds the row into the write-time sketches — all under the
    /// stats lock, so a concurrent [`Wrapper::column_stats`] can never
    /// observe a version whose sketches miss the row.
    pub fn push(&self, row: Tuple) -> Result<(), WrapperError> {
        self.check_arity(&row)?;
        let mut stats = self.stats.lock();
        stats.builder.observe_row(&row);
        stats.cached = None;
        self.rows.write().push(row);
        self.version.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Refuses a row whose arity is not the schema's.
    pub fn check_arity(&self, row: &[Value]) -> Result<(), WrapperError> {
        let (expected, found) = (self.schema.len(), row.len());
        match expected == found {
            true => Ok(()),
            false => Err(bdi_relational::RelationError::Arity { expected, found }.into()),
        }
    }

    /// Overwrites the data-version stamp — recovery only. Replayed pushes
    /// bump normally, so a recovered wrapper whose counter starts from the
    /// persisted value ends at exactly the pre-crash stamp; without this a
    /// rebooted wrapper restarts at 0 and a scan cached before the restart
    /// could validate against different post-restart rows.
    pub fn restore_data_version(&self, version: u64) {
        let mut stats = self.stats.lock();
        self.version.store(version, Ordering::Release);
        // Invalidate the memoized sketch snapshot: it is keyed by version,
        // and the restored value may collide with the stale key.
        stats.cached = None;
    }
}

impl TableWrapper {
    /// The one scan loop: rows `[start, total)` with the request's
    /// projection and filters applied, where `total` is the row count when
    /// the cursor is created — returned as the [`ScanMark`] a later cursor
    /// can start from. `start` is `0` for a full scan.
    fn cursor<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
        start: usize,
    ) -> Result<(RowBatches<'a>, ScanMark), WrapperError> {
        let mut indices = Vec::with_capacity(request.columns().len());
        for column in request.columns() {
            indices.push(
                self.schema
                    .require(column)
                    .map_err(bdi_relational::RelationError::Schema)?,
            );
        }
        let mut filters: Vec<(usize, CompiledFilter)> = Vec::with_capacity(request.filters().len());
        for f in request.filters() {
            filters.push((
                self.schema
                    .require(&f.column)
                    .map_err(bdi_relational::RelationError::Schema)?,
                CompiledFilter::new(&f.predicate),
            ));
        }
        let batch_rows = batch_rows.max(1);
        let total = self.rows.read().len();
        let mut cursor = start;
        let batches = std::iter::from_fn(move || {
            while cursor < total {
                let rows = self.rows.read();
                // `total` can only have grown (push appends); the prefix the
                // scan covers is immutable, so re-locking is consistent.
                // The min is shrink-defensive anyway — and if the vec ever
                // shrank below the cursor, end the scan rather than spin.
                let end = total.min(rows.len());
                if end <= cursor {
                    return None;
                }
                // Examine at most `batch_rows` rows under this hold.
                let window_end = end.min(cursor.saturating_add(batch_rows));
                let mut out: Vec<Tuple> = Vec::new();
                while cursor < window_end {
                    let row = &rows[cursor];
                    cursor += 1;
                    if filters.iter().all(|(idx, p)| p.matches(&row[*idx])) {
                        out.push(indices.iter().map(|&i| row[i].clone()).collect());
                    }
                }
                if !out.is_empty() {
                    return Some(Ok(out));
                }
                // Whole window filtered out: release the lock, keep going.
            }
            None
        });
        Ok((Box::new(batches), ScanMark::new(0, total as u64)))
    }
}

impl Wrapper for TableWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &str {
        &self.source
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn scan(&self) -> Result<Relation, WrapperError> {
        Ok(Relation::new(
            self.schema.clone(),
            self.rows.read().clone(),
        )?)
    }

    /// Native streaming pushdown: each pulled batch re-acquires the read
    /// lock, examines at most `batch_rows` rows under it — the bound is on
    /// rows *examined*, so even a predicate matching almost nothing never
    /// stretches one hold across the table — and clones only the projected
    /// cells of the survivors. Every predicate kind is evaluated in-scan
    /// ([`bdi_relational::Predicate::matches`]), so the wrapper claims all
    /// filters (the [`crate::Wrapper::claims_filter`] default). The lock
    /// is never held across batches, so appends interleave with long scans
    /// instead of blocking behind them. The scan covers the rows present
    /// when it started — what its mark says — and appends landing mid-scan
    /// surface on the next scan, which also carries a new
    /// [`Wrapper::data_version`].
    fn scan_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(RowBatches<'a>, Option<ScanMark>), WrapperError> {
        let (batches, mark) = self.cursor(request, batch_rows, 0)?;
        Ok((batches, Some(mark)))
    }

    /// The table only grows ([`TableWrapper::push`]), so every mark can be
    /// resumed from: this never declines.
    fn resume_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
        mark: &ScanMark,
    ) -> Result<Option<(RowBatches<'a>, ScanMark)>, WrapperError> {
        self.cursor(request, batch_rows, mark.consumed() as usize)
            .map(Some)
    }

    fn data_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Exact for unfiltered requests (the projection never changes the row
    /// count); an upper bound when the request carries filters.
    fn scan_hint(&self, _request: &ScanRequest) -> Option<u64> {
        Some(self.rows.read().len() as u64)
    }

    /// The write-time sketches, snapshotted lazily and memoized per data
    /// version. The snapshot is taken under the same lock
    /// [`TableWrapper::push`] updates the sketches under, so its version
    /// tag always describes exactly the rows visible at that version.
    fn column_stats(&self) -> Option<Arc<TableStats>> {
        let mut stats = self.stats.lock();
        let version = self.version.load(Ordering::Acquire);
        if let Some((cached_version, snapshot)) = &stats.cached {
            if *cached_version == version {
                return Some(Arc::clone(snapshot));
            }
        }
        let snapshot = Arc::new(stats.builder.snapshot(version));
        stats.cached = Some((version, Arc::clone(&snapshot)));
        Some(snapshot)
    }

    /// Construction-time probe hash (claims never change at run time).
    fn claims_fingerprint(&self) -> u64 {
        self.claims_fp
    }

    fn to_spec(&self) -> Result<Option<crate::spec::WrapperSpec>, WrapperError> {
        self.spec().map(Some)
    }

    fn as_table(&self) -> Option<&TableWrapper> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi_relational::Value;

    #[test]
    fn scan_returns_rows() {
        let w = TableWrapper::new(
            "w",
            "D",
            Schema::from_parts(&["id"], &["x"]).unwrap(),
            vec![vec![Value::Int(1), Value::Str("a".into())]],
        )
        .unwrap();
        assert_eq!(w.scan().unwrap().len(), 1);
        assert_eq!(w.name(), "w");
        assert_eq!(w.source(), "D");
    }

    #[test]
    fn construction_validates_arity() {
        let err = TableWrapper::new(
            "w",
            "D",
            Schema::from_parts(&["id"], &["x"]).unwrap(),
            vec![vec![Value::Int(1)]],
        );
        assert!(err.is_err());
    }

    #[test]
    fn push_appends_and_validates() {
        let w = TableWrapper::new(
            "w",
            "D",
            Schema::from_parts(&["id"], &["x"]).unwrap(),
            vec![],
        )
        .unwrap();
        w.push(vec![Value::Int(1), Value::Null]).unwrap();
        assert!(w.push(vec![Value::Int(1)]).is_err());
        assert_eq!(w.scan().unwrap().len(), 1);
    }

    #[test]
    fn push_bumps_data_version() {
        let w = TableWrapper::new(
            "w",
            "D",
            Schema::from_parts(&["id"], &["x"]).unwrap(),
            vec![],
        )
        .unwrap();
        assert_eq!(w.data_version(), 0);
        w.push(vec![Value::Int(1), Value::Null]).unwrap();
        w.push(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(w.data_version(), 2);
        // A rejected row mutates nothing and stamps nothing.
        assert!(w.push(vec![Value::Int(3)]).is_err());
        assert_eq!(w.data_version(), 2);
    }
}
