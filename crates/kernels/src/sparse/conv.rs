//! Sparse convolution: CSR weights × im2col patches.

use crate::sparse::CsrMatrix;
use crate::{ParCtx, Tensor};

/// Lowers a `[C, H, W]` input into the im2col patch matrix for a `k × k`
/// same-padding convolution: row-major `[C·k·k, H·W]`, where entry
/// `(c·k·k + ky·k + kx, y·W + x)` is the input pixel under kernel tap
/// `(ky, kx)` at output `(y, x)` (zero outside the image).
pub(crate) fn im2col(input: &Tensor, k: usize, pad: usize) -> Vec<f32> {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let mut patches = vec![0.0f32; c * k * k * h * w];
    let data = input.as_slice();
    let cols = h * w;
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let out_row = &mut patches[row * cols..(row + 1) * cols];
                for y in 0..h {
                    let iy = y as i64 + ky as i64 - pad as i64;
                    if iy < 0 || iy >= h as i64 {
                        continue;
                    }
                    let in_base = (ci * h + iy as usize) * w;
                    for x in 0..w {
                        let ix = x as i64 + kx as i64 - pad as i64;
                        if ix >= 0 && ix < w as i64 {
                            out_row[y * w + x] = data[in_base + ix as usize];
                        }
                    }
                }
            }
        }
    }
    patches
}

/// Computes `out = relu(csr_weights × im2col(input) + bias)` — the sparse
/// counterpart of [`crate::dense::conv2d`] with CSR weights
/// `[C_out, C_in·k·k]`.
///
/// # Panics
///
/// Panics if shapes disagree.
pub(crate) fn sparse_conv2d(
    ctx: &ParCtx,
    weights: &CsrMatrix,
    bias: &[f32],
    input: &Tensor,
    k: usize,
    pad: usize,
    out: &mut Tensor,
) {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    assert_eq!(weights.cols(), c * k * k, "weight columns mismatch");
    assert_eq!(bias.len(), weights.rows(), "bias mismatch");
    assert_eq!(
        out.shape(),
        &[weights.rows(), h, w],
        "output shape mismatch"
    );

    let patches = im2col(input, k, pad);
    weights.spmm(ctx, &patches, h * w, out.as_mut_slice());
    let plane = h * w;
    let out_data = out.as_mut_slice();
    for (i, v) in out_data.iter_mut().enumerate() {
        *v = (*v + bias[i / plane]).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{conv2d_reference, Conv2dParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn im2col_identity_kernel() {
        // k=1, pad=0: patches are just the flattened input.
        let input = Tensor::from_vec(&[2, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let patches = im2col(&input, 1, 0);
        assert_eq!(patches, input.as_slice());
    }

    #[test]
    fn sparse_conv_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = Conv2dParams {
            in_channels: 3,
            out_channels: 5,
            kernel: 3,
            padding: 1,
        };
        let mut input = Tensor::zeros(&[3, 8, 8]);
        input
            .as_mut_slice()
            .iter_mut()
            .for_each(|x| *x = rng.gen_range(-1.0..1.0));
        // Sparse-ish weights with explicit zeros.
        let weights: Vec<f32> = (0..5 * 27)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    rng.gen_range(-0.5..0.5)
                } else {
                    0.0
                }
            })
            .collect();
        let bias: Vec<f32> = (0..5).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let expect = conv2d_reference(&params, &input, &weights, &bias);

        let csr = CsrMatrix::from_dense(&weights, 5, 27, 0.0);
        let mut got = Tensor::zeros(&[5, 8, 8]);
        sparse_conv2d(&ParCtx::new(3), &csr, &bias, &input, 3, 1, &mut got);
        assert!(got.max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn relu_applied() {
        let input = Tensor::from_vec(&[1, 1, 1], vec![1.0]);
        let csr = CsrMatrix::from_dense(&[-1.0], 1, 1, 0.0);
        let mut out = Tensor::zeros(&[1, 1, 1]);
        sparse_conv2d(&ParCtx::serial(), &csr, &[0.0], &input, 1, 0, &mut out);
        assert_eq!(out.as_slice(), &[0.0]);
    }
}
