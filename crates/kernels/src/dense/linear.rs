//! Fully-connected (dense matrix–vector) layer.

use crate::{ParCtx, Tensor};

/// Computes `out = W · flatten(input) + bias`, where `W` is row-major
/// `[out_features, in_features]`.
///
/// # Panics
///
/// Panics if `input.len() * out.len() != weights.len()` or bias length
/// mismatches.
pub(crate) fn linear(
    ctx: &ParCtx,
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out: &mut Tensor,
) {
    let in_features = input.len();
    let out_features = out.len();
    assert_eq!(
        weights.len(),
        in_features * out_features,
        "weight shape mismatch"
    );
    assert_eq!(bias.len(), out_features, "bias shape mismatch");

    let x = input.as_slice();
    let out_data = out.as_mut_slice();
    ctx.for_each_chunk(out_data, |offset, chunk| {
        for (rel, slot) in chunk.iter_mut().enumerate() {
            let row = offset + rel;
            let wrow = &weights[row * in_features..(row + 1) * in_features];
            let mut acc = bias[row];
            for (wi, xi) in wrow.iter().zip(x) {
                acc += wi * xi;
            }
            *slot = acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matvec() {
        let input = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let weights = vec![
            1.0, 0.0, 0.0, //
            0.0, 1.0, 1.0,
        ];
        let bias = vec![0.5, -1.0];
        let mut out = Tensor::zeros(&[2]);
        linear(&ParCtx::serial(), &input, &weights, &bias, &mut out);
        assert_eq!(out.as_slice(), &[1.5, 4.0]);
    }

    #[test]
    fn serial_parallel_agree() {
        let input = Tensor::from_vec(&[64], (0..64).map(|i| i as f32 * 0.1).collect());
        let weights: Vec<f32> = (0..64 * 10)
            .map(|i| ((i % 13) as f32 - 6.0) * 0.05)
            .collect();
        let bias = vec![0.1; 10];
        let mut a = Tensor::zeros(&[10]);
        let mut b = Tensor::zeros(&[10]);
        linear(&ParCtx::serial(), &input, &weights, &bias, &mut a);
        linear(&ParCtx::new(4), &input, &weights, &bias, &mut b);
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "weight shape")]
    fn shape_mismatch_panics() {
        let input = Tensor::zeros(&[3]);
        let mut out = Tensor::zeros(&[2]);
        linear(&ParCtx::serial(), &input, &[0.0; 5], &[0.0; 2], &mut out);
    }
}
