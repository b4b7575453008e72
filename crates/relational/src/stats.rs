//! Per-column statistics sketches for cost-based planning.
//!
//! Wrappers maintain these sketches incrementally at write time (one
//! [`StatsBuilder`] per table, observing every appended row) and publish
//! immutable [`TableStats`] snapshots keyed by the wrapper's
//! `data_version`, so a stale sketch is impossible by construction: a
//! snapshot taken under version *v* describes exactly the rows visible at
//! version *v*.
//!
//! A snapshot holds a row count and, per column, a distinct count: all the
//! planner reads. It consumes the snapshots through
//! [`PlanSource::stats`](crate::plan::PlanSource::stats) in two places:
//!
//! * **cardinality estimation** — [`TableStats::estimate_rows`] turns a
//!   filtered scan's raw row count into a post-filter cardinality by
//!   per-column distinct counts, which makes `scan_hint` predicate-aware,
//!   drives join ordering and gates scan-cache admission;
//! * **semi-joins** — distinct counts gate the sideways pass, and
//!   [`BloomFilter`] is the payload of [`Predicate::Bloom`], the compact
//!   membership filter shipped to a probe-side source when the build
//!   side's key set is too large for an `IN`-set.
//!
//! Estimates steer *plans only* — which side builds, which join runs
//! first, which scans are cached. No estimate ever decides whether a row
//! appears in an answer, so adversarially wrong sketches can slow a query
//! down but can never corrupt it. The one sketch that does touch row flow,
//! the bloom filter inside a semi-join, is one-sided by construction: it
//! is built from the *live* build-side keys (never from a sketch) and
//! false positives only admit extra probe rows that the join discards.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use crate::plan::{ColumnFilter, Predicate};
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
        for bit in self.probe_bits(value_hash(value)) {
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
/// the sketch degrades to a fixed-size probabilistic counter.
const SMALL_SET_CAP: usize = 1024;

/// HyperLogLog register count (and its bias constant for `m = 64`).
const HLL_REGISTERS: usize = 64;
const HLL_ALPHA: f64 = 0.709;

/// Distinct-count estimator with an exact small-set mode.
///
/// Up to `SMALL_SET_CAP` distinct values the sketch stores the exact
/// set of value hashes, so the count is exact. Past the cap it degrades
/// to a 64-register HyperLogLog (about 13 % standard error). The exact
/// mode keeps small-domain plan gates exact: the HyperLogLog alone counts
/// 300 values as 242, which flips the semi-join gate's 4 × 64 test.
/// Either way the estimate only steers plan choices, never row membership.
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
}

/// The neutral selectivity assumed for a predicate the sketches cannot
/// price: every range, and any filter on an unknown column.
const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// One column's sketch snapshot: its distinct count.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Estimated distinct non-null values (exact below the small-set
    /// cap).
    pub distinct: u64,
}

impl ColumnStats {
    /// Estimated fraction of the table's rows a predicate on this column
    /// retains, in `[0, 1]`.
    ///
    /// Equality and `IN` divide by the distinct count, and a shipped bloom
    /// filter retains roughly its key count over this column's domain. A
    /// range gets the neutral 1/3.
    pub fn selectivity(&self, predicate: &Predicate) -> f64 {
        let distinct = self.distinct.max(1) as f64;
        match predicate {
            Predicate::Eq(_) => 1.0 / distinct,
            Predicate::In(values) => (values.len() as f64 / distinct).min(1.0),
            Predicate::Range { .. } => DEFAULT_SELECTIVITY,
            Predicate::Bloom(filter) => {
                // A semi-join filter retains about one build key's worth
                // of rows per distinct probe value, plus the filter's
                // false-positive floor.
                (filter.items() as f64 / distinct + 0.02).min(1.0)
            }
        }
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
                .map(|column| column.selectivity(&filter.predicate))
                .unwrap_or(DEFAULT_SELECTIVITY);
            estimate *= selectivity;
        }
        estimate.round() as u64
    }

    /// A copy with row and distinct counts multiplied by `factor` —
    /// deliberately wrong stats for misestimation testing. Only estimates
    /// change; the wrapper's
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
            if !matches!(value, Value::Null) {
                column.sketch.observe(value);
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
                    },
                )
            })
            .collect();
        TableStats::new(self.rows, data_version, columns)
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
    }

    #[test]
    fn distinct_sketch_degrades_within_tolerance() {
        let mut sketch = DistinctSketch::default();
        for i in 0..50_000 {
            sketch.observe(&Value::Int(i));
        }
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
    fn scaled_stats_distort_counts_only() {
        let stats = snapshot(1_000).scaled(0.01);
        assert_eq!(stats.rows(), 10);
        assert_eq!(stats.data_version(), 7);
    }
}
