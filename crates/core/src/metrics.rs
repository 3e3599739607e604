//! Statistics used throughout the evaluation: Pearson correlation (Fig. 6)
//! and geometric-mean speedups (Fig. 4).

/// Pearson correlation coefficient between two equal-length samples.
///
/// Returns `None` if the samples are shorter than 2 or either has zero
/// variance (correlation undefined).
///
/// ```
/// use bt_core::metrics::pearson;
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Geometric mean of positive values; `None` on empty input or any
/// non-positive value.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let down: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((pearson(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_is_near_zero() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&xs, &ys).unwrap().abs() < 0.5);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None, "zero variance");
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
