//! Order statistics over latency samples, and the process's peak RSS.

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between closest
/// ranks; 0 for an empty slice. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = p * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method) —
/// the rule the stability criterion is stated in.
pub fn quartiles(samples: &mut [f64]) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n < 2 {
        let only = samples.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1, 2, 3].map(|k| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - j as f64;
        samples[j - 1] + (samples[j] - samples[j - 1]) * fraction
    })
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only randomness, so one `--seed` gives one
/// set of inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
