//! Summaries of repeated measurements.

/// Median, extremes and sample count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median (mean of the two middle samples for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; panics on an empty slice (a harness bug).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Summary {
            median,
            min: s[0],
            max: s[n - 1],
            n,
        }
    }

    /// A single value reported as is.
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            min: v,
            max: v,
            n: 1,
        }
    }

    /// `(max − min) ÷ median`: the spread `compare` sets against a bound.
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// Percentiles the harness is willing to print, ascending, each with the
/// reciprocal of the share of samples beyond it (exact in integers, where
/// `n as f64 * (1.0 - 0.9)` is not).
const TAILS: [(f64, usize); 4] = [(0.90, 10), (0.95, 20), (0.99, 100), (0.999, 1000)];

/// The highest percentile with at least ten samples beyond it, or `None`
/// when even p90 has fewer (then only the median is reported).
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rfind(|(_, beyond)| n / beyond >= 10)
        .map(|&(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(Summary::single(7.0).rel_spread(), 0.0);
        assert_eq!(Summary::of(&[9.0, 10.0, 11.0]).rel_spread(), 0.2);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // Five or thirty samples support nothing above the median.
        assert_eq!(highest_percentile(5), None);
        assert_eq!(highest_percentile(30), None);
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(199), Some(0.90));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }
}
