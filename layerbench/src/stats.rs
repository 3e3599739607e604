//! Order statistics over slice samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because the acceptance harness computes
//! run-to-run spread with exactly that function: the spread this
//! benchmark prints for itself is the spread it will be judged by.

/// Median, quartiles and extent of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method; a single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let idx = ((v.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    v[idx]
}

/// The sample a tenth of the way in from the best end: the 10th
/// percentile of a lower-is-better metric, the 90th of a higher-is-better
/// one (the best sample itself below ten samples).
pub fn fast_decile(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "fast decile of no samples");
    let v = sorted(values);
    let k = v.len() / 10;
    if higher_is_better {
        v[v.len() - 1 - k]
    } else {
        v[k]
    }
}

/// Full summary of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, _, q3) = quartiles(values);
    let v = sorted(values);
    Summary {
        n: v.len(),
        median: median(values),
        q1,
        q3,
        min: v[0],
        max: v[v.len() - 1],
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // Two points extrapolate: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
    }

    #[test]
    fn fast_decile_counts_in_from_the_best_end() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(fast_decile(&v, false), 4.0, "4th fastest of 30");
        assert_eq!(fast_decile(&v, true), 27.0, "4th highest of 30");
        assert_eq!(fast_decile(&[5.0, 3.0, 9.0], false), 3.0);
        assert_eq!(fast_decile(&[5.0, 3.0, 9.0], true), 9.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
