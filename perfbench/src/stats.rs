//! Order statistics for the benchmark's samples.

/// Linear-interpolated quantile of an ascending slice (the "type 7"
/// definition numpy and R use by default). `q` is in `0.0..=1.0`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Sub-buckets per power of two: relative resolution 1/128 (< 0.8 %).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 40;

/// A log-linear latency histogram in nanoseconds: 128 linear sub-buckets
/// per power of two, so a percentile is read to within 0.8 % of its value
/// without keeping one entry per query (a reader can answer tens of
/// millions of queries in one run). Quantiles interpolate linearly inside
/// the bucket by rank.
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist { buckets: vec![0; SUB * OCTAVES], count: 0, sum_ns: 0 }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() - SUB_BITS;
        let sub = (ns >> octave) as usize - SUB;
        ((octave as usize + 1) * SUB + sub).min(SUB * OCTAVES - 1)
    }

    /// Inclusive lower and exclusive upper bound of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, (i + 1) as f64);
        }
        let octave = (i / SUB - 1) as i32;
        let sub = (i % SUB + SUB) as f64;
        let width = 2f64.powi(octave);
        (sub * width, (sub + 1.0) * width)
    }

    /// Record one latency.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, hi) = Self::bounds(i);
                return lo + (hi - lo) * ((rank - seen as f64) / c as f64);
            }
            seen += c;
        }
        Self::bounds(self.buckets.len() - 1).1
    }

    /// Samples strictly above the `q`-quantile's rank — the guide's test
    /// for whether a percentile is supported (at least ten beyond it).
    pub fn beyond(&self, q: f64) -> u64 {
        self.count - (q * self.count as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn histogram_quantiles_are_within_resolution() {
        let mut h = LatencyHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.beyond(0.99), 1_000);
    }

    #[test]
    fn bucket_bounds_cover_their_values() {
        for ns in [0u64, 1, 127, 128, 129, 1_000, 65_535, 1 << 30, 123_456_789] {
            let (lo, hi) = LatencyHist::bounds(LatencyHist::index(ns));
            assert!(lo <= ns as f64 && (ns as f64) < hi, "{ns} not in [{lo}, {hi})");
        }
    }
}
