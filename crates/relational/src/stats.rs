//! Per-column statistics sketches for cost-based planning.
//!
//! Wrappers maintain these sketches incrementally at write time (one
//! [`StatsBuilder`] per table, observing every appended row) and publish
//! immutable [`TableStats`] snapshots keyed by the wrapper's
//! `data_version`, so a stale sketch is impossible by construction: a
//! snapshot taken under version *v* describes exactly the rows visible at
//! version *v*.
//!
//! The planner consumes the snapshots through
//! [`PlanSource::stats`](crate::plan::PlanSource::stats) in three places:
//!
//! * **selectivity estimation** — [`TableStats::estimate_rows`] turns a
//!   filtered scan's raw row count into a post-filter cardinality, which
//!   makes `scan_hint` predicate-aware and drives join ordering;
//! * **bloom semi-joins** — [`BloomFilter`] is the payload of
//!   [`Predicate::Bloom`], the compact
//!   membership filter shipped to a probe-side source when the build
//!   side's key set is too large for an `IN`-set;
//! * **adaptive scan modes** — `TableStats::avg_row_bytes` sizes scan
//!   batches by estimated row width instead of a flat row count.
//!
//! Estimates steer *plans only* — which side builds, which join runs
//! first, how scans batch. No estimate ever decides whether a row appears
//! in an answer, so adversarially wrong sketches can slow a query down
//! but can never corrupt it. The one sketch that does touch row flow, the
//! bloom filter inside a semi-join, is one-sided by construction: it is
//! built from the *live* build-side keys (never from a sketch) and false
//! positives only admit extra probe rows that the join discards.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use crate::plan::{Bound, ColumnFilter, Predicate};
use crate::value::Value;

/// Deterministic 64-bit hash of a [`Value`].
///
/// Uses the standard library's `DefaultHasher` (SipHash with fixed keys),
/// which is stable within a build, over the `Value` `Hash` impl — which
/// normalizes `-0.0`/`NaN` and hashes `Int` as its `f64` bits, so any two
/// `Eq`-equal values hash identically. That property is what makes a
/// bloom filter over value hashes free of false *negatives*.
fn value_hash(value: &Value) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Bits per expected key; with four probes this yields roughly a 1–2%
/// false-positive rate.
const BLOOM_BITS_PER_KEY: usize = 10;
/// Number of probe positions per key (Kirsch–Mitzenmacher double
/// hashing).
const BLOOM_PROBES: u32 = 4;
/// Smallest and largest allowed filter sizes, in bits (both powers of
/// two). The upper clamp bounds a filter at 2 MiB no matter how large the
/// build side is.
const BLOOM_MIN_BITS: usize = 64;
const BLOOM_MAX_BITS: usize = 1 << 24;

/// A compact, one-sided membership filter over [`Value`]s.
///
/// `may_contain` never returns `false` for an inserted value (no false
/// negatives); it may return `true` for a value that was never inserted
/// (false positives, tuned to ~1–2% at the default load). This is the
/// payload of [`Predicate::Bloom`]: a
/// semi-join ships one of these to the probe-side source when the build
/// side's distinct keys exceed `semijoin_max_keys`, and the join's own
/// equality check discards the false positives.
///
/// Hashing is deterministic within a build (fixed-key SipHash over the
/// `Eq`-consistent `Value` hash), and the derived `PartialEq`/`Hash` make
/// two filters over the same insertions compare equal — required because
/// predicates participate in scan-cache keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    items: u64,
}

impl BloomFilter {
    /// Creates an empty filter sized for `expected` keys (power-of-two
    /// bit count, clamped to `[64, 2^24]` bits).
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let bits = expected
            .max(1)
            .saturating_mul(BLOOM_BITS_PER_KEY)
            .next_power_of_two()
            .clamp(BLOOM_MIN_BITS, BLOOM_MAX_BITS);
        BloomFilter {
            bits: vec![0; bits / 64],
            mask: bits as u64 - 1,
            items: 0,
        }
    }

    /// Builds a filter over `values`, sized for their count.
    pub(crate) fn from_values(values: &[Value]) -> Self {
        let mut filter = Self::with_capacity(values.len());
        for value in values {
            filter.insert(value);
        }
        filter
    }

    /// The canonical probe filter used when fingerprinting a source's
    /// claim surface (see `probe_claims_fingerprint` in the wrappers
    /// crate): a fixed single-key filter, so the probe — and therefore
    /// the fingerprint — is deterministic.
    pub fn claims_probe() -> Self {
        Self::from_values(&[Value::Int(0)])
    }

    /// Inserts a value.
    pub(crate) fn insert(&mut self, value: &Value) {
        self.insert_hash(value_hash(value));
    }

    /// Inserts a pre-computed [`value_hash`] (used by [`DistinctSketch`]
    /// to snapshot its stored hashes without re-hashing values).
    fn insert_hash(&mut self, hash: u64) {
        for bit in self.probe_bits(hash) {
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.items += 1;
    }

    /// `false` means definitely absent; `true` means present or a false
    /// positive.
    pub(crate) fn may_contain(&self, value: &Value) -> bool {
        let hash = value_hash(value);
        self.probe_bits(hash)
            .into_iter()
            .all(|bit| self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Number of insertions (not distinct keys; duplicates count).
    pub(crate) fn items(&self) -> u64 {
        self.items
    }

    /// Kirsch–Mitzenmacher: two halves of one 64-bit hash generate all
    /// probe positions as `h1 + i·h2` (with `h2` forced odd so it cycles
    /// the power-of-two table).
    fn probe_bits(&self, hash: u64) -> [u64; BLOOM_PROBES as usize] {
        let h1 = hash;
        let h2 = hash.rotate_left(32) | 1;
        let mut bits = [0u64; BLOOM_PROBES as usize];
        for (i, bit) in bits.iter_mut().enumerate() {
            *bit = h1.wrapping_add(h2.wrapping_mul(i as u64)) & self.mask;
        }
        bits
    }
}

/// Row-hash budget below which a [`DistinctSketch`] stays exact. Past it
/// the sketch degrades to a fixed-size probabilistic counter and stops
/// offering a membership snapshot.
const SMALL_SET_CAP: usize = 1024;

/// HyperLogLog register count (and its bias constant for `m = 64`).
const HLL_REGISTERS: usize = 64;
const HLL_ALPHA: f64 = 0.709;

/// Distinct-count estimator with an exact small-set mode.
///
/// Up to `SMALL_SET_CAP` distinct values the sketch stores the exact
/// set of value hashes — the count is exact and [`DistinctSketch::bloom`]
/// can snapshot the set as a membership filter. Past the cap it degrades
/// to a 64-register HyperLogLog (a few percent relative error) and the
/// membership snapshot becomes unavailable. Either way the estimate only
/// steers plan choices, never row membership.
#[derive(Debug, Clone)]
pub(crate) struct DistinctSketch {
    /// Exact value hashes while small; `None` once degraded to HLL.
    small: Option<BTreeSet<u64>>,
    registers: [u8; HLL_REGISTERS],
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch {
            small: Some(BTreeSet::new()),
            registers: [0; HLL_REGISTERS],
        }
    }
}

impl DistinctSketch {
    /// Observes one value occurrence.
    pub(crate) fn observe(&mut self, value: &Value) {
        self.observe_hash(value_hash(value));
    }

    fn observe_hash(&mut self, hash: u64) {
        // HLL registers are maintained unconditionally so degrading is
        // just dropping the exact set — no replay needed.
        let register = (hash >> (64 - 6)) as usize;
        let rank = ((hash << 6) | 1).leading_zeros() as u8 + 1;
        if rank > self.registers[register] {
            self.registers[register] = rank;
        }
        if let Some(small) = &mut self.small {
            small.insert(hash);
            if small.len() > SMALL_SET_CAP {
                self.small = None;
            }
        }
    }

    /// Estimated number of distinct observed values (exact while in
    /// small-set mode).
    pub(crate) fn estimate(&self) -> u64 {
        if let Some(small) = &self.small {
            return small.len() as u64;
        }
        let m = HLL_REGISTERS as f64;
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = HLL_ALPHA * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        // Linear-counting correction for the small range.
        if raw <= 2.5 * m && zeros > 0 {
            (m * (m / zeros as f64).ln()).round() as u64
        } else {
            raw.round() as u64
        }
    }

    /// A membership filter over everything observed so far — available
    /// only while the sketch is still exact.
    pub(crate) fn bloom(&self) -> Option<BloomFilter> {
        let small = self.small.as_ref()?;
        let mut filter = BloomFilter::with_capacity(small.len());
        for &hash in small {
            filter.insert_hash(hash);
        }
        Some(filter)
    }
}

/// The neutral selectivity assumed for a predicate the sketches cannot
/// price (non-numeric range, unknown column).
const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// One column's sketch snapshot: distinct count, null count, value
/// bounds, average encoded width, and (for small domains) an exact
/// membership filter.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Estimated distinct non-null values (exact below the small-set
    /// cap).
    pub distinct: u64,
    /// Number of null cells observed.
    pub nulls: u64,
    /// Smallest non-null value, by the total `Value` order.
    pub min: Option<Value>,
    /// Largest non-null value, by the total `Value` order.
    pub max: Option<Value>,
    /// Exact membership filter over the column's values, available only
    /// while the domain stayed below the small-set cap.
    pub bloom: Option<BloomFilter>,
    /// Average encoded width of a cell, in bytes (used to size scan
    /// batches).
    pub avg_width: u64,
}

impl ColumnStats {
    /// Estimated fraction of the table's `rows` a predicate on this
    /// column retains, in `[0, 1]`.
    ///
    /// Equality and `IN` divide by the distinct count (pruning keys the
    /// membership filter rules out entirely), ranges intersect numeric
    /// bounds, and a shipped bloom filter retains roughly its key count
    /// over this column's domain. Anything unpriceable falls back to the
    /// neutral 1/3.
    pub fn selectivity(&self, predicate: &Predicate, _rows: u64) -> f64 {
        let distinct = self.distinct.max(1) as f64;
        match predicate {
            Predicate::Eq(value) => {
                if self.excludes(value) {
                    0.0
                } else {
                    1.0 / distinct
                }
            }
            Predicate::In(values) => {
                let surviving = values.iter().filter(|v| !self.excludes(v)).count() as f64;
                (surviving / distinct).min(1.0)
            }
            Predicate::Range { min, max } => self
                .range_fraction(min.as_ref(), max.as_ref())
                .unwrap_or(DEFAULT_SELECTIVITY),
            Predicate::Bloom(filter) => {
                // A semi-join filter retains about one build key's worth
                // of rows per distinct probe value, plus the filter's
                // false-positive floor.
                (filter.items() as f64 / distinct + 0.02).min(1.0)
            }
        }
        .clamp(0.0, 1.0)
    }

    /// `true` when the column's sketches *prove* the value cannot occur:
    /// the exact membership filter excludes it, or it falls outside the
    /// observed bounds.
    fn excludes(&self, value: &Value) -> bool {
        if let Some(bloom) = &self.bloom {
            if !bloom.may_contain(value) {
                return true;
            }
        }
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => value < min || value > max,
            _ => false,
        }
    }

    /// Overlap fraction of a numeric range predicate against the
    /// column's observed `[min, max]`; `None` when either side is
    /// non-numeric or unbounded in a way the sketch cannot price.
    fn range_fraction(&self, min: Option<&Bound>, max: Option<&Bound>) -> Option<f64> {
        let lo = numeric(self.min.as_ref()?)?;
        let hi = numeric(self.max.as_ref()?)?;
        let pred_lo = match min {
            Some(bound) => numeric(&bound.value)?,
            None => lo,
        };
        let pred_hi = match max {
            Some(bound) => numeric(&bound.value)?,
            None => hi,
        };
        if pred_hi < lo || pred_lo > hi {
            return Some(0.0);
        }
        let span = hi - lo;
        if span <= 0.0 {
            // Single-point column inside the range.
            return Some(1.0);
        }
        let overlap = pred_hi.min(hi) - pred_lo.max(lo);
        Some((overlap / span).clamp(0.0, 1.0))
    }
}

fn numeric(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// An immutable statistics snapshot of one wrapper table, keyed by the
/// `data_version` it was taken under.
///
/// Produced by [`StatsBuilder::snapshot`] at wrapper write time and
/// served to the planner through
/// [`PlanSource::stats`](crate::plan::PlanSource::stats). Because every
/// snapshot carries the version that produced it and wrappers rebuild on
/// version bumps, the planner can never see a sketch describing rows
/// that no longer exist.
#[derive(Debug, Clone)]
pub struct TableStats {
    rows: u64,
    data_version: u64,
    columns: Vec<(String, ColumnStats)>,
}

impl TableStats {
    /// Assembles a snapshot from per-column stats.
    pub(crate) fn new(rows: u64, data_version: u64, columns: Vec<(String, ColumnStats)>) -> Self {
        TableStats {
            rows,
            data_version,
            columns,
        }
    }

    /// Total rows in the table at snapshot time.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The wrapper `data_version` the snapshot was taken under.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Per-column stats, in schema order.
    pub fn columns(&self) -> &[(String, ColumnStats)] {
        &self.columns
    }

    /// Stats for one column by source-side name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns
            .iter()
            .find(|(column, _)| column == name)
            .map(|(_, stats)| stats)
    }

    /// Estimated row count after applying `filters`: the raw count times
    /// the product of per-filter selectivities (neutral 1/3 for columns
    /// the snapshot does not know).
    pub fn estimate_rows(&self, filters: &[ColumnFilter]) -> u64 {
        let mut estimate = self.rows as f64;
        for filter in filters {
            let selectivity = self
                .column(&filter.column)
                .map(|column| column.selectivity(&filter.predicate, self.rows))
                .unwrap_or(DEFAULT_SELECTIVITY);
            estimate *= selectivity;
        }
        estimate.round() as u64
    }

    /// Estimated encoded width of one row restricted to `columns`, in
    /// bytes (8 per unknown column). Never returns 0.
    pub(crate) fn avg_row_bytes(&self, columns: &[String]) -> u64 {
        columns
            .iter()
            .map(|name| self.column(name).map(|c| c.avg_width).unwrap_or(8))
            .sum::<u64>()
            .max(1)
    }

    /// A copy with row and distinct counts multiplied by `factor` —
    /// deliberately wrong stats for misestimation testing. Bounds and
    /// membership filters are dropped (a stale snapshot would not have
    /// them for new data either). Only estimates change; the wrapper's
    /// exact unfiltered `scan_hint` is never distorted, so row order and
    /// answers are unaffected.
    pub fn scaled(&self, factor: f64) -> TableStats {
        let scale = |count: u64| ((count as f64 * factor).round() as u64).max(1);
        TableStats {
            rows: scale(self.rows),
            data_version: self.data_version,
            columns: self
                .columns
                .iter()
                .map(|(name, stats)| {
                    (
                        name.clone(),
                        ColumnStats {
                            distinct: scale(stats.distinct),
                            nulls: stats.nulls,
                            min: None,
                            max: None,
                            bloom: None,
                            avg_width: stats.avg_width,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Incremental sketch accumulator a wrapper feeds at write time.
///
/// One builder lives behind the wrapper's write lock; every appended row
/// passes through [`StatsBuilder::observe_row`], and
/// [`StatsBuilder::snapshot`] freezes the current state into a
/// [`TableStats`] tagged with the wrapper's current `data_version`.
#[derive(Debug, Clone)]
pub struct StatsBuilder {
    rows: u64,
    columns: Vec<(String, ColumnBuilder)>,
}

#[derive(Debug, Clone, Default)]
struct ColumnBuilder {
    sketch: DistinctSketch,
    nulls: u64,
    min: Option<Value>,
    max: Option<Value>,
    width_sum: u64,
}

impl StatsBuilder {
    /// Creates a builder for the given source-side column names.
    pub fn new<I>(columns: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        StatsBuilder {
            rows: 0,
            columns: columns
                .into_iter()
                .map(|name| (name.into(), ColumnBuilder::default()))
                .collect(),
        }
    }

    /// Observes one row (cells in column order; extra cells are
    /// ignored).
    pub fn observe_row(&mut self, row: &[Value]) {
        self.rows += 1;
        for ((_, column), value) in self.columns.iter_mut().zip(row) {
            column.width_sum += value_width(value);
            if matches!(value, Value::Null) {
                column.nulls += 1;
                continue;
            }
            column.sketch.observe(value);
            if column.min.as_ref().is_none_or(|min| value < min) {
                column.min = Some(value.clone());
            }
            if column.max.as_ref().is_none_or(|max| value > max) {
                column.max = Some(value.clone());
            }
        }
    }

    /// Freezes the current state into an immutable snapshot tagged with
    /// `data_version`.
    pub fn snapshot(&self, data_version: u64) -> TableStats {
        let columns = self
            .columns
            .iter()
            .map(|(name, column)| {
                (
                    name.clone(),
                    ColumnStats {
                        distinct: column.sketch.estimate(),
                        nulls: column.nulls,
                        min: column.min.clone(),
                        max: column.max.clone(),
                        bloom: column.sketch.bloom(),
                        avg_width: column.width_sum / self.rows.max(1),
                    },
                )
            })
            .collect();
        TableStats::new(self.rows, data_version, columns)
    }
}

/// Approximate encoded width of one cell, in bytes.
fn value_width(value: &Value) -> u64 {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64 + 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Predicate;

    fn values(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let keys = values(0..5_000);
        let filter = BloomFilter::from_values(&keys);
        for key in &keys {
            assert!(filter.may_contain(key), "inserted key reported absent");
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_small() {
        let filter = BloomFilter::from_values(&values(0..10_000));
        let misses = (10_000..110_000)
            .filter(|&i| filter.may_contain(&Value::Int(i)))
            .count();
        // ~1-2% expected at 10 bits/key, 4 probes; allow generous slack.
        assert!(misses < 6_000, "false positive rate too high: {misses}");
    }

    #[test]
    fn bloom_treats_eq_equal_values_identically() {
        let filter = BloomFilter::from_values(&[Value::Int(3)]);
        // Int(3) and Float(3.0) are Eq-equal, so they must hash alike.
        assert!(filter.may_contain(&Value::Float(3.0)));
    }

    #[test]
    fn distinct_sketch_is_exact_while_small() {
        let mut sketch = DistinctSketch::default();
        for i in 0..500 {
            sketch.observe(&Value::Int(i % 100));
        }
        assert_eq!(sketch.estimate(), 100);
        let bloom = sketch.bloom().expect("small sketch offers a bloom");
        assert!(bloom.may_contain(&Value::Int(42)));
        assert!(!bloom.may_contain(&Value::Str("absent".into())));
    }

    #[test]
    fn distinct_sketch_degrades_within_tolerance() {
        let mut sketch = DistinctSketch::default();
        for i in 0..50_000 {
            sketch.observe(&Value::Int(i));
        }
        assert!(sketch.bloom().is_none(), "degraded sketch has no bloom");
        let estimate = sketch.estimate() as f64;
        let error = (estimate - 50_000.0).abs() / 50_000.0;
        assert!(error < 0.35, "HLL estimate off by {error:.2}: {estimate}");
    }

    fn snapshot(rows: i64) -> TableStats {
        let mut builder = StatsBuilder::new(["k", "v"]);
        for i in 0..rows {
            builder.observe_row(&[Value::Int(i % 100), Value::Int(i)]);
        }
        builder.snapshot(7)
    }

    #[test]
    fn estimate_rows_prices_equality_by_distinct_count() {
        let stats = snapshot(1_000);
        assert_eq!(stats.rows(), 1_000);
        assert_eq!(stats.data_version(), 7);
        let filter = ColumnFilter::new("k", Predicate::eq(5));
        assert_eq!(stats.estimate_rows(&[filter]), 10);
    }

    #[test]
    fn estimate_rows_proves_absent_keys_empty() {
        let stats = snapshot(1_000);
        let filter = ColumnFilter::new("k", Predicate::eq(5_000));
        assert_eq!(stats.estimate_rows(&[filter]), 0);
    }

    #[test]
    fn estimate_rows_prices_ranges_by_overlap() {
        let stats = snapshot(1_000);
        let filter = ColumnFilter::new("v", Predicate::between(0, 99));
        let estimate = stats.estimate_rows(&[filter]);
        assert!(
            (80..=120).contains(&estimate),
            "10% range estimated {estimate}"
        );
    }

    #[test]
    fn scaled_stats_distort_counts_only() {
        let stats = snapshot(1_000).scaled(0.01);
        assert_eq!(stats.rows(), 10);
        assert_eq!(stats.data_version(), 7);
        assert!(stats.column("k").unwrap().bloom.is_none());
    }
}
