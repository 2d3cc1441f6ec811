//! Order statistics for timing samples.

/// The percentile ladder a tail is picked from, highest last.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Samples of `n` that lie beyond the `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    (n as f64 * (1.0 - p / 100.0) + 1e-9).floor() as usize
}

/// The `p`-th percentile (0..=100) of ascending `sorted`, by linear
/// interpolation between closest ranks. `sorted` must be non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median, sample count and the supported tail of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// `(p, value)`: the highest ladder percentile with at least
    /// [`TAIL_SUPPORT`] samples beyond it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = LADDER
            .iter()
            .rev()
            .find(|&&p| beyond(n, p) >= TAIL_SUPPORT)
            .map(|&p| (p, percentile(&sorted, p)));
        Some(Summary { n, median: percentile(&sorted, 50.0), tail })
    }

    /// The value at the `p`-th percentile, if the sample supports it.
    pub fn supported(samples: &[f64], p: f64) -> Option<f64> {
        if beyond(samples.len(), p) >= TAIL_SUPPORT {
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            Some(percentile(&sorted, p))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_interpolation() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Under 20 samples even the median has fewer than 10 beyond it.
        assert_eq!(Summary::of(&xs(19)).unwrap().tail, None);
        assert_eq!(Summary::of(&xs(20)).unwrap().tail.unwrap().0, 50.0);
        assert_eq!(Summary::of(&xs(99)).unwrap().tail.unwrap().0, 50.0);
        assert_eq!(Summary::of(&xs(100)).unwrap().tail.unwrap().0, 90.0);
        assert_eq!(Summary::of(&xs(999)).unwrap().tail.unwrap().0, 90.0);
        assert_eq!(Summary::of(&xs(1000)).unwrap().tail.unwrap().0, 99.0);
        assert_eq!(Summary::of(&xs(10_000)).unwrap().tail.unwrap().0, 99.9);
        assert_eq!(Summary::of(&xs(100_000)).unwrap().tail.unwrap().0, 99.99);
        let s = Summary::of(&xs(1000)).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert!((s.tail.unwrap().1 - 990.01).abs() < 1e-9);
    }

    #[test]
    fn summary_ignores_input_order_and_rejects_empty() {
        assert_eq!(Summary::of(&[]), None);
        let a = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((a.n, a.median), (3, 2.0));
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(Summary::supported(&xs, 99.0).is_none());
        assert!(Summary::supported(&xs, 90.0).is_some());
    }
}
