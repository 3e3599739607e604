//! Direct 2-D convolution (NCHW, f32).

use crate::{ParCtx, Tensor};

/// Shape parameters of a conv layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Symmetric zero padding.
    pub padding: usize,
}

impl Conv2dParams {
    /// FLOPs of one application to an `h × w` input (multiply + add per tap,
    /// plus the fused ReLU).
    pub(crate) fn flops(&self, h: usize, w: usize) -> f64 {
        let taps = self.in_channels * self.kernel * self.kernel;
        (self.out_channels * h * w) as f64 * (2.0 * taps as f64 + 1.0)
    }
}

/// Computes `out = relu(conv2d(input, weights) + bias)` with stride 1.
///
/// `input` is `[C_in, H, W]`, `weights` is `[C_out, C_in, K, K]`, `bias` is
/// `[C_out]`, and `out` must be `[C_out, H, W]` (same-size convolution:
/// `padding = K / 2`). Parallelized over output channels.
///
/// # Panics
///
/// Panics in debug builds if tensor shapes disagree with `params`.
pub(crate) fn conv2d(
    ctx: &ParCtx,
    params: &Conv2dParams,
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out: &mut Tensor,
) {
    let (h, w) = (input.shape()[1], input.shape()[2]);
    debug_assert_eq!(input.shape()[0], params.in_channels);
    debug_assert_eq!(out.shape(), &[params.out_channels, h, w]);
    debug_assert_eq!(
        weights.len(),
        params.out_channels * params.in_channels * params.kernel * params.kernel
    );
    debug_assert_eq!(bias.len(), params.out_channels);

    let k = params.kernel;
    let pad = params.padding as i64;
    let cin = params.in_channels;
    let input_data = input.as_slice();
    let plane = h * w;

    // Split the output tensor by channel; each worker owns whole channels.
    let out_data = out.as_mut_slice();
    ctx.for_each_chunk(out_data, |offset, chunk| {
        for (rel, slot) in chunk.iter_mut().enumerate() {
            let idx = offset + rel;
            let co = idx / plane;
            let y = (idx % plane) / w;
            let x = idx % w;
            let mut acc = bias[co];
            let wbase = co * cin * k * k;
            for ci in 0..cin {
                let ibase = ci * plane;
                let wcbase = wbase + ci * k * k;
                for ky in 0..k {
                    let iy = y as i64 + ky as i64 - pad;
                    if iy < 0 || iy >= h as i64 {
                        continue;
                    }
                    let irow = ibase + iy as usize * w;
                    let wrow = wcbase + ky * k;
                    for kx in 0..k {
                        let ix = x as i64 + kx as i64 - pad;
                        if ix < 0 || ix >= w as i64 {
                            continue;
                        }
                        acc += input_data[irow + ix as usize] * weights[wrow + kx];
                    }
                }
            }
            *slot = acc.max(0.0); // fused ReLU
        }
    });
}

/// Scalar reference convolution used to validate [`conv2d`]; identical
/// semantics, no parallelism, no clever indexing.
#[cfg(test)]
pub(crate) fn conv2d_reference(
    params: &Conv2dParams,
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
) -> Tensor {
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let mut out = Tensor::zeros(&[params.out_channels, h, w]);
    let k = params.kernel;
    let pad = params.padding as i64;
    for co in 0..params.out_channels {
        for y in 0..h {
            for x in 0..w {
                let mut acc = bias[co];
                for ci in 0..params.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = y as i64 + ky as i64 - pad;
                            let ix = x as i64 + kx as i64 - pad;
                            if iy >= 0 && iy < h as i64 && ix >= 0 && ix < w as i64 {
                                let wv =
                                    weights[((co * params.in_channels + ci) * k + ky) * k + kx];
                                acc += input[(ci, iy as usize, ix as usize)] * wv;
                            }
                        }
                    }
                }
                out[(co, y, x)] = acc.max(0.0);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_setup(
        seed: u64,
        params: &Conv2dParams,
        h: usize,
        w: usize,
    ) -> (Tensor, Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input = Tensor::zeros(&[params.in_channels, h, w]);
        input
            .as_mut_slice()
            .iter_mut()
            .for_each(|x| *x = rng.gen_range(-1.0..1.0));
        let weights: Vec<f32> =
            (0..params.out_channels * params.in_channels * params.kernel * params.kernel)
                .map(|_| rng.gen_range(-0.5..0.5))
                .collect();
        let bias: Vec<f32> = (0..params.out_channels)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        (input, weights, bias)
    }

    #[test]
    fn matches_reference() {
        let params = Conv2dParams {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            padding: 1,
        };
        let (input, weights, bias) = random_setup(1, &params, 16, 16);
        let expect = conv2d_reference(&params, &input, &weights, &bias);
        let mut got = Tensor::zeros(&[8, 16, 16]);
        conv2d(&ParCtx::new(4), &params, &input, &weights, &bias, &mut got);
        assert!(got.max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let params = Conv2dParams {
            in_channels: 4,
            out_channels: 6,
            kernel: 3,
            padding: 1,
        };
        let (input, weights, bias) = random_setup(2, &params, 12, 12);
        let mut serial = Tensor::zeros(&[6, 12, 12]);
        let mut parallel = Tensor::zeros(&[6, 12, 12]);
        conv2d(
            &ParCtx::serial(),
            &params,
            &input,
            &weights,
            &bias,
            &mut serial,
        );
        conv2d(
            &ParCtx::new(7),
            &params,
            &input,
            &weights,
            &bias,
            &mut parallel,
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn relu_clamps_negative() {
        let params = Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            padding: 0,
        };
        let input = Tensor::from_vec(&[1, 1, 2], vec![1.0, -1.0]);
        let mut out = Tensor::zeros(&[1, 1, 2]);
        conv2d(
            &ParCtx::serial(),
            &params,
            &input,
            &[-2.0],
            &[0.0],
            &mut out,
        );
        assert_eq!(out.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn flops_formula() {
        let p = Conv2dParams {
            in_channels: 2,
            out_channels: 4,
            kernel: 3,
            padding: 1,
        };
        // 4*8*8 outputs × (2 × 2·9 + 1)
        assert_eq!(p.flops(8, 8) as u64, (4 * 64) as u64 * 37);
    }
}
