//! Latency statistics: online mean plus a log-scaled histogram for
//! percentiles.

use crate::kernel::Time;

/// Number of logarithmic buckets (covers 1 ns .. ~18 s with 64 buckets of
/// 4 sub-buckets each).
const BUCKETS: usize = 256;

/// Online latency accumulator.
#[derive(Clone, Debug)]
pub struct LatencyStats {
    count: u64,
    sum: u128,
    min: Time,
    max: Time,
    buckets: Vec<u64>,
}

impl Default for LatencyStats {
    fn default() -> LatencyStats {
        LatencyStats::new()
    }
}

fn bucket_of(v: Time) -> usize {
    // 4 sub-buckets per power of two.
    let v = v.max(1);
    let log2 = 63 - v.leading_zeros() as usize;
    let sub = ((v >> log2.saturating_sub(2)) & 0b11) as usize;
    (log2 * 4 + sub).min(BUCKETS - 1)
}

fn bucket_upper_bound(idx: usize) -> Time {
    let log2 = idx / 4;
    let sub = (idx % 4) as u64;
    if log2 >= 63 {
        return Time::MAX;
    }
    (1u64 << log2) + ((sub + 1) << log2.saturating_sub(2))
}

impl LatencyStats {
    /// Empty accumulator.
    pub fn new() -> LatencyStats {
        LatencyStats { count: 0, sum: 0, min: Time::MAX, max: 0, buckets: vec![0; BUCKETS] }
    }

    /// Record one sample.
    pub fn record(&mut self, v: Time) {
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean() / 1e6
    }

    /// Approximate percentile (`q` in 0..=100) in nanoseconds.
    pub fn percentile(&self, q: f64) -> Time {
        if self.count == 0 {
            return 0;
        }
        let target = ((q / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return bucket_upper_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Smallest sample.
    pub fn min(&self) -> Time {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> Time {
        self.max
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::MILLIS;

    use super::*;

    #[test]
    fn mean_and_extremes() {
        let mut s = LatencyStats::new();
        for v in [MILLIS, 2 * MILLIS, 3 * MILLIS] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean_ms() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), MILLIS);
        assert_eq!(s.max(), 3 * MILLIS);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut s = LatencyStats::new();
        for i in 1..=10_000u64 {
            s.record(i * 1000);
        }
        let p50 = s.percentile(50.0);
        let p95 = s.percentile(95.0);
        let p99 = s.percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= s.max());
        // Log-bucket resolution: within ~25% of the true value.
        let true_p50 = 5_000_000.0;
        assert!((p50 as f64 - true_p50).abs() / true_p50 < 0.3, "p50 {p50}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        let mut c = LatencyStats::new();
        for i in 1..100u64 {
            a.record(i * 500);
            c.record(i * 500);
        }
        for i in 1..50u64 {
            b.record(i * 7000);
            c.record(i * 7000);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert!((a.mean() - c.mean()).abs() < 1e-6);
        assert_eq!(a.percentile(99.0), c.percentile(99.0));
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.min(), 0);
    }
}
