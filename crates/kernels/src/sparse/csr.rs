//! Compressed Sparse Row matrices.

use crate::ParCtx;

/// A CSR (Compressed Sparse Row) f32 matrix. At full density AlexNet-sparse
/// keeps every conv weight, so its CSR convolution reproduces the dense one:
///
/// ```
/// use bt_kernels::apps::{alexnet_dense_app, alexnet_sparse_app, AlexNetConfig};
/// let cfg = AlexNetConfig { seed: 3, batch: 1, density: 1.0 };
/// let ctx = bt_kernels::ParCtx::new(1);
/// let [d, s] = [alexnet_dense_app(cfg), alexnet_sparse_app(cfg)].map(|app| {
///     let mut task = app.new_payload();
///     app.load_input(&mut task, 0);
///     app.stages()[0].run(&mut task, &ctx);
///     task.act
/// });
/// assert_eq!(s.shape(), &[1, 64, 32, 32]);
/// let diff = d.as_slice().iter().zip(s.as_slice()).map(|(a, b)| (a - b).abs());
/// assert!(diff.fold(0.0, f32::max) < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a row-major dense matrix, keeping entries
    /// with `|v| > threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != rows * cols`.
    pub(crate) fn from_dense(dense: &[f32], rows: usize, cols: usize, threshold: f32) -> CsrMatrix {
        assert_eq!(dense.len(), rows * cols, "dense shape mismatch");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense[r * cols + c];
                if v.abs() > threshold {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds directly from CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are structurally inconsistent (wrong `row_ptr`
    /// length, non-monotonic `row_ptr`, column out of range, or length
    /// mismatch between `col_idx` and `values`).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> CsrMatrix {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col/val length");
        assert_eq!(*row_ptr.last().expect("non-empty") as usize, values.len());
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr monotonic"
        );
        assert!(col_idx.iter().all(|&c| (c as usize) < cols), "column range");
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored (`nnz / (rows × cols)`).
    #[cfg(test)]
    pub(crate) fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The `(col_idx, value)` pairs of row `r`.
    #[cfg(test)]
    pub(crate) fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.row_ptr[r] as usize;
        let end = self.row_ptr[r + 1] as usize;
        self.col_idx[start..end]
            .iter()
            .zip(&self.values[start..end])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Converts back to a row-major dense matrix.
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                dense[r * self.cols + c] = v;
            }
        }
        dense
    }

    /// Sparse matrix × dense matrix: `out[r][j] = Σ_c self[r][c] · rhs[c][j]`,
    /// where `rhs` is row-major `[cols × rhs_cols]` and `out` is row-major
    /// `[rows × rhs_cols]`. Parallelized over output rows.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub(crate) fn spmm(&self, ctx: &ParCtx, rhs: &[f32], rhs_cols: usize, out: &mut [f32]) {
        assert_eq!(rhs.len(), self.cols * rhs_cols, "rhs shape mismatch");
        assert_eq!(out.len(), self.rows * rhs_cols, "out shape mismatch");
        ctx.for_each_chunk(out, |offset, chunk| {
            // Worker splits may land mid-row; process the chunk as runs of
            // contiguous elements belonging to one output row each.
            let mut i = 0;
            while i < chunk.len() {
                let idx = offset + i;
                let r = idx / rhs_cols;
                let j0 = idx % rhs_cols;
                let j1 = rhs_cols.min(j0 + (chunk.len() - i));
                let width = j1 - j0;
                let row_out = &mut chunk[i..i + width];
                row_out.iter_mut().for_each(|x| *x = 0.0);
                let start = self.row_ptr[r] as usize;
                let end = self.row_ptr[r + 1] as usize;
                for k in start..end {
                    let c = self.col_idx[k] as usize;
                    let v = self.values[k];
                    let rhs_row = &rhs[c * rhs_cols + j0..c * rhs_cols + j1];
                    for (o, x) in row_out.iter_mut().zip(rhs_row) {
                        *o += v * x;
                    }
                }
                i += width;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dense(seed: u64, rows: usize, cols: usize, density: f64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(density) {
                    rng.gen_range(-1.0f32..1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn dense_round_trip() {
        let dense = random_dense(1, 13, 17, 0.3);
        let csr = CsrMatrix::from_dense(&dense, 13, 17, 0.0);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn threshold_drops_small_entries() {
        let dense = vec![0.05, -0.5, 0.2, 0.0];
        let csr = CsrMatrix::from_dense(&dense, 2, 2, 0.1);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.to_dense(), vec![0.0, -0.5, 0.2, 0.0]);
    }

    #[test]
    fn spmm_matches_dense_multiply() {
        let a = random_dense(2, 9, 11, 0.4);
        let b = random_dense(3, 11, 7, 1.0);
        let csr = CsrMatrix::from_dense(&a, 9, 11, 0.0);
        let mut got = vec![0.0; 9 * 7];
        csr.spmm(&ParCtx::new(4), &b, 7, &mut got);
        for r in 0..9 {
            for j in 0..7 {
                let expect: f32 = (0..11).map(|c| a[r * 11 + c] * b[c * 7 + j]).sum();
                assert!((got[r * 7 + j] - expect).abs() < 1e-4, "({r},{j})");
            }
        }
    }

    #[test]
    fn density_calculation() {
        let dense = vec![1.0, 0.0, 0.0, 0.0];
        let csr = CsrMatrix::from_dense(&dense, 2, 2, 0.0);
        assert!((csr.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row_ptr length")]
    fn from_parts_validates() {
        let _ = CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let dense = vec![0.0, 0.0, 1.0, 0.0];
        let csr = CsrMatrix::from_dense(&dense, 2, 2, 0.0);
        assert_eq!(csr.row(0).count(), 0);
        assert_eq!(csr.row(1).count(), 1);
    }
}
