//! Order statistics shared by every workload.

/// The percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The samples a reported tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile `op_tail_ms` reports in any workload: p90, the
/// highest the smallest per-run sample (one replay pass of 128 windows)
/// supports, so the metric is the same percentile wherever it is measured.
pub const OP_TAIL_CAP: f64 = 90.0;

/// Nearest-rank percentile of an ascending slice (`pct` in `(0, 100]`).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = rank(sorted.len(), pct);
    sorted[rank - 1]
}

/// The 1-based nearest rank of `pct` in a sample of `n`.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps decimal percentiles exact (99.9% of 10,000 is
    // rank 9,990, not 9,991 through rounding in the product).
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `pct` nearest-rank
/// percentile.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The tail rule: the highest percentile, no higher than `cap`, that has
/// at least [`TAIL_MIN_BEYOND`] samples beyond it in a sample of `n`, or
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .filter(|&pct| pct <= cap)
        .find(|&pct| n > 0 && samples_beyond(n, pct) >= TAIL_MIN_BEYOND)
}

/// The tail of `values` by [`tail_percentile`], falling back to the
/// maximum when the sample is too small for any percentile; returns the
/// value and the percentile used (`100.0` for the maximum).
pub fn tail(values: &[f64], cap: f64) -> (f64, f64) {
    let sorted = sorted(values);
    match tail_percentile(sorted.len(), cap) {
        Some(pct) => (percentile(&sorted, pct), pct),
        None => (*sorted.last().expect("tail of an empty sample"), 100.0),
    }
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "median of an empty sample");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; p99.9 has 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.9), Some(99.0));
        // 999 samples: p99 has 9 beyond, so the rule steps down to p90.
        assert_eq!(tail_percentile(999, 99.9), Some(90.0));
        // 10,000 samples admit p99.9 unless the cap forbids it.
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        // 128 windows: p90 leaves 12 beyond.
        assert_eq!(tail_percentile(128, 99.0), Some(90.0));
        // 20 samples: only the median qualifies; 5 samples: nothing does.
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(5, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        assert_eq!(tail(&[3.0, 1.0, 2.0], 99.0), (3.0, 100.0));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values, 99.0), (990.0, 99.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
