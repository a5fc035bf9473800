//! Order statistics the benchmark reports: medians, tails with a stated
//! sample count, and the rule that picks which tail is trustworthy.

/// Nearest-rank quantile of ascending `sorted` samples (`q` in 0..=1).
/// Returns NaN for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The percentiles a tail may be reported at, highest first.
const TAILS: [f64; 5] = [99.999, 99.99, 99.9, 99.0, 90.0];

/// The highest percentile in [`TAILS`] that leaves at least ten samples
/// beyond it out of `n`, or `None` when even p90 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (1 - p/100)·n ≥ 10, in integers to avoid rounding at the boundary:
    // n·(100_000 - p·1000) ≥ 10·100_000.
    TAILS.into_iter().find(|&p| (n as u128) * (100_000 - (p * 1000.0).round() as u128) >= 1_000_000)
}

/// A latency sample set reduced to what the benchmark prints.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    /// The percentile [`tail_percentile`] allows, and the value there.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(mut values: Vec<f64>) -> Summary {
        values.sort_by(f64::total_cmp);
        let tail = tail_percentile(values.len()).map(|p| (p, quantile(&values, p / 100.0)));
        Summary {
            n: values.len(),
            p50: quantile(&values, 0.5),
            p99: quantile(&values, 0.99),
            p999: quantile(&values, 0.999),
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
        // Every answer really has ten samples beyond it.
        for n in [100, 1_000, 10_000, 123_456] {
            let p = tail_percentile(n).unwrap();
            assert!((1.0 - p / 100.0) * n as f64 >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let s = Summary::of(v);
        assert_eq!((s.n, s.p50, s.p99), (100, 50.0, 99.0));
        assert_eq!(s.tail, Some((90.0, 90.0)));
    }
}
