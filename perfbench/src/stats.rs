//! Latency summaries under the benchmark's percentile rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether quantile `q` of `n` samples has at least [`MIN_BEYOND`] samples
/// beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Nearest-rank quantile `q` of ascending `sorted`, or `None` when the rule
/// forbids reporting it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    reportable(sorted.len(), q).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// The highest percentile of the ladder that `n` samples support.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| reportable(n, q))
}

/// An ascending copy of a set of samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` ascending.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self(values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Quantile `q` under the percentile rule.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        percentile(&self.0, q)
    }

    /// The median under the percentile rule.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The highest supported tail percentile and its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let q = tail_quantile(self.len())?;
        Some((q, self.quantile(q)?))
    }

    /// The tail value, or 0 when there are too few samples to report one.
    pub fn tail_or_zero(&self) -> f64 {
        self.tail().map_or(0.0, |(_, v)| v)
    }

    /// The median, or 0 when there are too few samples to report one.
    pub fn p50_or_zero(&self) -> f64 {
        self.p50().unwrap_or(0.0)
    }

    /// The arithmetic mean, or 0 for no samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(reportable(1000, 0.99));
        assert!(!reportable(999, 0.99));
        assert!(reportable(200, 0.95));
        assert!(!reportable(199, 0.95));
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn tail_picks_highest_supported_percentile() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn nearest_rank_values() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.p50(), Some(500.0));
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.tail(), Some((0.99, 990.0)));
        assert_eq!(Samples::new(vec![1.0; 5]).p50(), None);
        assert_eq!(Samples::new(vec![1.0; 5]).tail_or_zero(), 0.0);
    }
}
