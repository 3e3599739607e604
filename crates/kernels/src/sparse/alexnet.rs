//! AlexNet-sparse: the dense network with conv layers pruned to CSR,
//! processing a batch of images per task (§4.1 of the paper uses 128).

use crate::dense::{linear, maxpool2x2, AlexNetDense, AlexNetLayout};
use crate::sparse::{prune_to_csr, sparse_conv2d, CsrMatrix};
use crate::{ParCtx, Tensor};

/// The sparse AlexNet variant.
///
/// Keeps the dense network's layout, conv biases and classifier; conv
/// weights are magnitude-pruned to a target density and stored in CSR
/// (the dense conv weights are dropped), which is what turns the
/// workload's dense linear algebra into irregular sparse compute.
#[derive(Debug, Clone)]
pub(crate) struct AlexNetSparse {
    layout: AlexNetLayout,
    csr_weights: Vec<CsrMatrix>,
    conv_biases: Vec<Vec<f32>>,
    fc_weights: Vec<f32>,
    fc_bias: Vec<f32>,
    batch: usize,
}

impl AlexNetSparse {
    /// Prunes `dense` so each conv layer keeps `density` of its weights,
    /// and configures tasks of `batch` images.
    ///
    /// # Panics
    ///
    /// Panics if `density` is outside `(0, 1]` or `batch == 0`.
    pub(crate) fn prune(dense: AlexNetDense, density: f64, batch: usize) -> AlexNetSparse {
        assert!(batch > 0, "batch must be positive");
        let AlexNetDense {
            layout,
            conv_weights,
            conv_biases,
            fc_weights,
            fc_bias,
        } = dense;
        let csr_weights = layout
            .convs()
            .iter()
            .zip(&conv_weights)
            .map(|(spec, weights)| {
                let p = &spec.params;
                let cols = p.in_channels * p.kernel * p.kernel;
                prune_to_csr(weights, p.out_channels, cols, density)
            })
            .collect();
        AlexNetSparse {
            layout,
            csr_weights,
            conv_biases,
            fc_weights,
            fc_bias,
            batch,
        }
    }

    /// The shared network layout.
    pub(crate) fn layout(&self) -> &AlexNetLayout {
        &self.layout
    }

    /// Runs stage `stage` over a batched activation `[batch, …]`,
    /// parallelizing across images.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= 9` or the batch dimension mismatches.
    pub(crate) fn run_stage(&self, ctx: &ParCtx, stage: usize, input: &Tensor) -> Tensor {
        assert!(stage < AlexNetLayout::STAGES, "stage out of range");
        assert_eq!(input.shape()[0], self.batch, "batch mismatch");
        let per_in: Vec<usize> = input.shape()[1..].to_vec();
        let per_out = self.layout().output_shape(stage);
        let in_stride: usize = per_in.iter().product();
        let out_stride: usize = per_out.iter().product();

        let mut out_shape = vec![self.batch];
        out_shape.extend(per_out.iter().copied());
        let mut out = Tensor::zeros(&out_shape);

        let in_data = input.as_slice();
        let serial = ParCtx::serial();
        let run_image = |img: usize, out_chunk: &mut [f32]| {
            let img_in = Tensor::from_vec(
                &per_in,
                in_data[img * in_stride..(img + 1) * in_stride].to_vec(),
            );
            let mut img_out = Tensor::zeros(&per_out);
            match stage {
                0 | 2 | 4 | 6 => {
                    let li = stage / 2;
                    let p = &self.layout().convs()[li].params;
                    sparse_conv2d(
                        &serial,
                        &self.csr_weights[li],
                        &self.conv_biases[li],
                        &img_in,
                        p.kernel,
                        p.padding,
                        &mut img_out,
                    );
                }
                8 => linear(
                    &serial,
                    &img_in,
                    &self.fc_weights,
                    &self.fc_bias,
                    &mut img_out,
                ),
                _ => maxpool2x2(&serial, &img_in, &mut img_out),
            }
            out_chunk.copy_from_slice(img_out.as_slice());
        };
        ctx.for_each_block(out.as_mut_slice(), out_stride, run_image);
        out
    }

    /// Full batched forward pass; returns `[batch, 10]` logits.
    #[cfg(test)]
    pub(crate) fn forward(&self, ctx: &ParCtx, batch: &Tensor) -> Tensor {
        let mut act = batch.clone();
        for stage in 0..AlexNetLayout::STAGES {
            act = self.run_stage(ctx, stage, &act);
        }
        act
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cifar::CifarStream;

    fn small_sparse(batch: usize, density: f64) -> AlexNetSparse {
        let dense = AlexNetDense::random(AlexNetLayout::cifar(), 3);
        AlexNetSparse::prune(dense, density, batch)
    }

    #[test]
    fn full_density_matches_dense_network() {
        let dense = AlexNetDense::random(AlexNetLayout::cifar(), 5);
        let sparse = AlexNetSparse::prune(dense.clone(), 1.0, 2);
        let mut stream = CifarStream::new(2);
        let batch = stream.next_batch(2);
        let ctx = ParCtx::new(2);
        let sparse_logits = sparse.forward(&ctx, &batch);

        for img in 0..2 {
            let mut single = Tensor::zeros(&[3, 32, 32]);
            single
                .as_mut_slice()
                .copy_from_slice(&batch.as_slice()[img * 3072..(img + 1) * 3072]);
            let expect = dense.forward(&ctx, &single);
            let got = &sparse_logits.as_slice()[img * 10..(img + 1) * 10];
            for (g, e) in got.iter().zip(expect.as_slice()) {
                assert!((g - e).abs() < 1e-3, "img {img}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn pruning_reduces_nnz() {
        let sparse = small_sparse(1, 0.1);
        for li in 0..4 {
            let d = sparse.csr_weights[li].density();
            assert!((d - 0.1).abs() < 0.02, "layer {li} density {d}");
        }
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let sparse = small_sparse(3, 0.2);
        let batch = CifarStream::new(9).next_batch(3);
        let logits = sparse.forward(&ParCtx::new(4), &batch);
        assert_eq!(logits.shape(), &[3, 10]);
        assert!(logits.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let sparse = small_sparse(4, 0.3);
        let batch = CifarStream::new(1).next_batch(4);
        let a = sparse.forward(&ParCtx::serial(), &batch);
        let b = sparse.forward(&ParCtx::new(6), &batch);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }
}
