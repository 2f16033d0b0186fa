//! Order statistics for the ledger: medians, quartiles, and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (the
/// "inclusive" method, matching Python's
/// `statistics.quantiles(..., method="inclusive")`). `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A timing summary: median, the quartiles around it, and how many
/// samples it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            median: median(samples),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
        }
    }

    /// Interquartile distance as a share of the median — the run's own
    /// spread, which `compare` holds a difference against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile
/// `p ∈ (0, 1)`.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // The epsilon keeps 200 × (1 − 0.95) = 9.999… from flooring to 9.
    (n as f64 * (1.0 - p) + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The highest of the usual reporting percentiles that `n` samples
/// support, or `None` below twenty samples (where even the median has
/// fewer than ten beyond it).
pub fn highest_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5].into_iter().find(|&p| percentile_supported(n, p))
}

/// Percentile `p` when the sample supports it, else the highest
/// percentile it does support (the median as a last resort).
pub fn percentile_or_highest(samples: &[f64], p: f64) -> f64 {
    let used = if percentile_supported(samples.len(), p) {
        p
    } else {
        highest_percentile(samples.len()).map_or(0.5, |h| h.min(p))
    };
    quantile(samples, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(s.spread(), 2.0 / 3.0);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p95 of 199 samples leaves 9 beyond; of 200, exactly 10.
        assert!(!percentile_supported(199, 0.95));
        assert!(percentile_supported(200, 0.95));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(1600), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn unsupported_percentile_falls_back_to_highest_supported() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples support p90 at most.
        assert_eq!(percentile_or_highest(&v, 0.95), quantile(&v, 0.9));
        let w: Vec<f64> = (0..400).map(f64::from).collect();
        assert_eq!(percentile_or_highest(&w, 0.95), quantile(&w, 0.95));
    }
}
