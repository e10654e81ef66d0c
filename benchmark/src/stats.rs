//! Order statistics for the benchmark's reports.
//!
//! Every sample is kept (the service's own `LatencyHistogram` buckets
//! to ~9 %, too coarse for a 15 % regression bound), so a percentile is
//! an actual observation, picked by nearest rank.

/// How many samples a reported percentile must leave beyond itself.
pub const SAMPLES_BEYOND: usize = 10;

/// Sort samples ascending (`total_cmp`: timings are never NaN, but the
/// order must still be total).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Zero-based nearest-rank index of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    let k = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    k.clamp(1, n) - 1
}

/// The `q`-quantile of ascending `sorted` by nearest rank; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// Whether `n` samples support reporting quantile `q`: at least
/// [`SAMPLES_BEYOND`] samples must lie strictly beyond its rank.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= SAMPLES_BEYOND
}

/// What is kept of one round's latency samples once the round ends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: u64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: Vec<f64>) -> Summary {
        let v = sorted(samples);
        Summary {
            n: v.len() as u64,
            p50: percentile(&v, 0.50),
            p90: percentile(&v, 0.90),
            p99: percentile(&v, 0.99),
            max: percentile(&v, 1.0),
        }
    }
}

/// Median of an unsorted slice; 0 when empty. An even count takes the
/// mean of the middle pair.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max − min) / median` of the per-round values of one metric — the
/// figure printed beside every end-to-end median. 0 for fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / m.abs()
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method) — the spread rule repeated runs are judged by. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let len = v.len();
    if len < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = i * (len + 1);
        let j = (m / 4).clamp(1, len - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range over the median: the run-to-run spread of one
/// metric across repeated runs. 0 for fewer than two values.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        let s = Summary::of(v.iter().rev().copied().collect());
        assert_eq!(
            (s.n, s.p50, s.p90, s.p99, s.max),
            (100, 50.0, 90.0, 99.0, 100.0)
        );
        assert_eq!(Summary::of(Vec::new()), Summary::default());
    }

    #[test]
    fn picker_honours_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten samples beyond it.
        assert!(supported(100, 0.9));
        assert!(!supported(99, 0.9));
        // p99 needs a thousand.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        // The median needs 20 (rank 10 of 20 leaves ten beyond).
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_spread(&[4.0]), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
