//! Magnitude-based pruning to CSR — the stand-in for Condensa's structured
//! pruning (DESIGN.md substitution table).
//!
//! The paper prunes AlexNet's conv layers with Condensa and stores the
//! result in CSR. What the scheduler cares about is the artefact: CSR
//! weight tensors with a target density and realistic row-length skew.
//! Global magnitude pruning produces exactly that (rows corresponding to
//! low-energy filters end up much shorter than others).

use crate::sparse::CsrMatrix;

/// Prunes a dense row-major `[rows × cols]` matrix to approximately
/// `density` (fraction of weights kept, in `(0, 1]`) by keeping the
/// largest-magnitude entries, returning the CSR form.
///
/// # Panics
///
/// Panics if `density` is outside `(0, 1]` or the shape is inconsistent.
pub(crate) fn prune_to_csr(dense: &[f32], rows: usize, cols: usize, density: f64) -> CsrMatrix {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    assert_eq!(dense.len(), rows * cols, "dense shape mismatch");

    if density >= 1.0 {
        return CsrMatrix::from_dense(dense, rows, cols, 0.0);
    }

    // Global magnitude threshold at the (1 - density) quantile.
    let keep = ((dense.len() as f64 * density).round() as usize).max(1);
    let mut magnitudes: Vec<f32> = dense.iter().map(|v| v.abs()).collect();
    // Partial selection of the keep-th largest magnitude.
    let cut = magnitudes.len() - keep;
    magnitudes.select_nth_unstable_by(cut, |a, b| a.partial_cmp(b).expect("weights are finite"));
    let threshold = magnitudes[cut];

    // Keep entries strictly above OR equal to the threshold, breaking ties
    // by first-come until the budget is met (exact count matters for tests).
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    let mut budget = keep;
    row_ptr.push(0u32);
    for r in 0..rows {
        for c in 0..cols {
            let v = dense[r * cols + c];
            if budget > 0 && v.abs() >= threshold && v != 0.0 {
                col_idx.push(c as u32);
                values.push(v);
                budget -= 1;
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weights(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn hits_target_density() {
        let dense = random_weights(1, 64 * 27);
        let csr = prune_to_csr(&dense, 64, 27, 0.1);
        let got = csr.density();
        assert!((got - 0.1).abs() < 0.01, "density {got}");
    }

    #[test]
    fn keeps_the_largest_magnitudes() {
        let dense = vec![0.9, -0.8, 0.1, 0.05, 0.7, -0.02];
        let csr = prune_to_csr(&dense, 2, 3, 0.5);
        let kept = csr.to_dense();
        assert_eq!(kept, vec![0.9, -0.8, 0.0, 0.0, 0.7, 0.0]);
    }

    #[test]
    fn full_density_is_lossless() {
        let dense = random_weights(2, 50);
        let csr = prune_to_csr(&dense, 5, 10, 1.0);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn pruned_rows_have_skewed_lengths() {
        // Make half the rows low-energy; they should end up much sparser.
        let mut dense = random_weights(3, 40 * 40);
        for r in 20..40 {
            for c in 0..40 {
                dense[r * 40 + c] *= 0.05;
            }
        }
        let csr = prune_to_csr(&dense, 40, 40, 0.3);
        let strong: usize = (0..20).map(|r| csr.row(r).count()).sum();
        let weak: usize = (20..40).map(|r| csr.row(r).count()).sum();
        assert!(strong > 5 * weak.max(1), "strong {strong} weak {weak}");
    }

    #[test]
    #[should_panic(expected = "density")]
    fn zero_density_panics() {
        let _ = prune_to_csr(&[1.0], 1, 1, 0.0);
    }
}
