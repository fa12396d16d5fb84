//! Exact order statistics.
//!
//! `spinnaker_sim::LatencyStats::percentile` answers with a log-bucket
//! upper bound (four sub-buckets per octave, steps of about 19 %), so a
//! 10 % latency change can vanish. The benchmark keeps every sample and
//! sorts.

/// Nearest-rank percentile (`q` in `0..=100`) of an ascending slice;
/// `0` when empty.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (the driver's
/// spread); `0.0` below two values or at a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_sees_a_shift_the_log_buckets_round_away() {
        // Two latency populations 10 % apart, both inside the bucket
        // [1_572_864, 1_835_008) ns, each with one slow outlier.
        let base: Vec<u64> = (0..1000u64).map(|i| 1_600_000 + i * 10).chain([5_000_000]).collect();
        let shifted: Vec<u64> = base.iter().map(|v| v + v / 10).collect();
        let (mut a, mut b) =
            (spinnaker_sim::LatencyStats::new(), spinnaker_sim::LatencyStats::new());
        base.iter().for_each(|&v| a.record(v));
        shifted.iter().for_each(|&v| b.record(v));
        assert_eq!(a.percentile(50.0), b.percentile(50.0), "bucketed p50 cannot tell them apart");

        let (mut sa, mut sb) = (base, shifted);
        sa.sort_unstable();
        sb.sort_unstable();
        let (pa, pb) = (percentile_sorted(&sa, 50.0), percentile_sorted(&sb, 50.0));
        let change = pb as f64 / pa as f64 - 1.0;
        assert!((change - 0.10).abs() < 0.001, "exact p50 moved by {change}");
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
    }
}
