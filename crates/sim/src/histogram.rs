//! A streaming log-linear histogram for latency-style measurements.
//!
//! Values are bucketed HDR-histogram style: each power-of-two range is split
//! into [`SUB_BUCKETS`] linear sub-buckets, giving a bounded relative error
//! (< 1/SUB_BUCKETS) at any magnitude while using O(log(max) * SUB_BUCKETS)
//! memory regardless of sample count.

/// Linear sub-buckets per power-of-two range (relative error < 1/32).
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A streaming histogram over `u64` samples (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use hyperprov_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let median = h.quantile(0.5);
/// assert!((450..=550).contains(&median));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // floor(log2(value)), >= SUB_BITS
    let top = exp - SUB_BITS + 1;
    let sub = (value >> (top - 1)) as usize & (SUB_BUCKETS - 1);
    (top as usize) * SUB_BUCKETS + sub
}

/// Upper bound (inclusive representative) of a bucket, used for quantiles.
fn bucket_value(index: usize) -> u64 {
    let top = index / SUB_BUCKETS;
    let sub = index % SUB_BUCKETS;
    if top == 0 {
        sub as u64
    } else {
        ((SUB_BUCKETS + sub) as u64) << (top - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`), clamped to the observed
    /// min/max so small histograms report exact extremes.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Standard deviation estimated from bucket representatives.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let mut var = 0.0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                let d = bucket_value(idx) as f64 - mean;
                var += d * d * n as f64;
            }
        }
        (var / self.count as f64).sqrt()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// One-line summary suitable for reports: count, mean, p50/p95/p99, max.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_small_values_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for &v in &[100u64, 999, 4096, 123_456, 9_999_999, u64::MAX / 2] {
            let rep = bucket_value(bucket_index(v));
            let err = (v as f64 - rep as f64).abs() / v as f64;
            assert!(err < 1.0 / SUB_BUCKETS as f64 + 1e-12, "v={v} rep={rep}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn exact_stats_for_exact_samples() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 5);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn quantile_empty_and_single_sample_edges() {
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(1.0), 0);
        let mut h = Histogram::new();
        h.record(12_345);
        // A single sample is every quantile, including out-of-range q
        // (clamped into [0, 1]).
        for q in [-3.0, 0.0, 0.25, 0.5, 0.99, 1.0, 7.0] {
            assert_eq!(h.quantile(q), 12_345);
        }
    }

    #[test]
    fn quantile_bucket_boundary_behaviour() {
        // 995 and 1005 share one log-linear bucket (rep 992); the
        // representative is clamped to the observed min, so every
        // quantile of this two-sample histogram reads 995.
        let mut h = Histogram::new();
        h.record(995);
        h.record(1005);
        assert_eq!(bucket_index(995), bucket_index(1005));
        assert_eq!(h.quantile(0.0), 995);
        assert_eq!(h.quantile(0.5), 995);
        assert_eq!(h.quantile(1.0), 995);

        // Samples in distinct buckets: the quantile steps from the low
        // bucket to the high one as the rank crosses the boundary, with
        // bounded relative error on the high representative.
        let mut h2 = Histogram::new();
        h2.record(1_000);
        h2.record(100_000);
        assert_eq!(h2.quantile(0.5), 1_000);
        let hi = h2.quantile(0.51);
        assert!(hi <= 100_000);
        assert!((100_000 - hi) as f64 / 100_000.0 < 1.0 / SUB_BUCKETS as f64 + 1e-12);

        // Power-of-two boundary values are their own representatives.
        for v in [32u64, 64, 1 << 20] {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn quantiles_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            h.record(x % 100_000);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        let mut prev = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn stddev_zero_for_constant() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(500);
        }
        assert!(h.stddev() < 500.0 / SUB_BUCKETS as f64 + 1.0);
    }
}
