//! The 9-stage AlexNet-dense network for CIFAR-10 (§4.1 of the paper):
//! four convolution layers, each followed by 2×2 max-pooling, and a final
//! fully-connected classifier. Each layer is one pipeline stage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dense::{conv2d, linear, maxpool2x2, Conv2dParams};
use crate::{ParCtx, Tensor};

/// One conv layer plus the spatial size of its input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvLayerSpec {
    /// Convolution shape parameters.
    pub params: Conv2dParams,
    /// Square input spatial size (height = width).
    pub input_hw: usize,
}

/// Static layout of the CIFAR-10 AlexNet variant.
///
/// ```
/// let app = bt_kernels::apps::alexnet_dense_app(Default::default());
/// assert_eq!(app.stage_count(), 9); // one stage per layout stage
/// assert_eq!(app.stages()[8].name(), "fc");
/// ```
#[derive(Debug, Clone)]
pub(crate) struct AlexNetLayout {
    convs: [ConvLayerSpec; 4],
    fc_in: usize,
    fc_out: usize,
}

impl AlexNetLayout {
    /// Number of pipeline stages (conv+pool ×4, then fc).
    pub(crate) const STAGES: usize = 9;

    /// The standard CIFAR-10 configuration: 3→64→128→256→256 channels over
    /// 32→16→8→4→2 spatial sizes, then a 1024→10 classifier.
    pub(crate) fn cifar() -> AlexNetLayout {
        let conv = |cin, cout, hw| ConvLayerSpec {
            params: Conv2dParams {
                in_channels: cin,
                out_channels: cout,
                kernel: 3,
                padding: 1,
            },
            input_hw: hw,
        };
        AlexNetLayout {
            convs: [
                conv(3, 64, 32),
                conv(64, 128, 16),
                conv(128, 256, 8),
                conv(256, 256, 4),
            ],
            fc_in: 256 * 2 * 2,
            fc_out: 10,
        }
    }

    /// The conv layers in order.
    pub(crate) fn convs(&self) -> &[ConvLayerSpec; 4] {
        &self.convs
    }

    /// Name of stage `i` (`conv1`, `pool1`, …, `fc`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 9`.
    pub(crate) fn stage_name(&self, i: usize) -> &'static str {
        const NAMES: [&str; AlexNetLayout::STAGES] = [
            "conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "conv4", "pool4", "fc",
        ];
        NAMES[i]
    }

    fn shape_table(&self) -> Vec<Vec<usize>> {
        let mut shapes = Vec::with_capacity(Self::STAGES + 1);
        shapes.push(vec![3, 32, 32]);
        for layer in self.convs.iter() {
            let hw = layer.input_hw;
            shapes.push(vec![layer.params.out_channels, hw, hw]); // after conv
            shapes.push(vec![layer.params.out_channels, hw / 2, hw / 2]); // after pool
        }
        shapes.push(vec![self.fc_out]);
        shapes
    }

    /// Shape of the activation produced by stage `i`.
    pub(crate) fn output_shape(&self, i: usize) -> Vec<usize> {
        self.shape_table()[i + 1].clone()
    }

    /// FLOPs of stage `i` for one image.
    pub(crate) fn stage_flops(&self, i: usize) -> f64 {
        match i {
            0 | 2 | 4 | 6 => {
                let layer = &self.convs[i / 2];
                layer.params.flops(layer.input_hw, layer.input_hw)
            }
            8 => 2.0 * (self.fc_in * self.fc_out) as f64,
            // Pool: 3 compares per output element.
            _ => {
                let shape = self.output_shape(i);
                3.0 * shape.iter().product::<usize>() as f64
            }
        }
    }

    /// Bytes of DRAM traffic of stage `i` for one image (activations in +
    /// out + weights once).
    pub(crate) fn stage_bytes(&self, i: usize) -> f64 {
        let input: usize = self.shape_table()[i].iter().product();
        let output: usize = self.shape_table()[i + 1].iter().product();
        let weights = match i {
            0 | 2 | 4 | 6 => {
                let p = &self.convs[i / 2].params;
                p.out_channels * p.in_channels * p.kernel * p.kernel
            }
            8 => self.fc_in * self.fc_out,
            _ => 0,
        };
        4.0 * (input + output + weights) as f64
    }
}

/// AlexNet-dense with concrete weights; provides per-stage forward kernels.
#[derive(Debug, Clone)]
pub(crate) struct AlexNetDense {
    pub(crate) layout: AlexNetLayout,
    pub(crate) conv_weights: Vec<Vec<f32>>,
    pub(crate) conv_biases: Vec<Vec<f32>>,
    pub(crate) fc_weights: Vec<f32>,
    pub(crate) fc_bias: Vec<f32>,
}

impl AlexNetDense {
    /// A network with deterministic, He-scaled random weights.
    pub(crate) fn random(layout: AlexNetLayout, seed: u64) -> AlexNetDense {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv_weights = Vec::new();
        let mut conv_biases = Vec::new();
        for layer in layout.convs.iter() {
            let p = &layer.params;
            let fan_in = p.in_channels * p.kernel * p.kernel;
            let scale = (2.0 / fan_in as f32).sqrt();
            let n = p.out_channels * fan_in;
            conv_weights.push((0..n).map(|_| rng.gen_range(-scale..scale)).collect());
            conv_biases.push(vec![0.01; p.out_channels]);
        }
        let scale = (2.0 / layout.fc_in as f32).sqrt();
        let fc_weights = (0..layout.fc_in * layout.fc_out)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let fc_bias = vec![0.0; layout.fc_out];
        AlexNetDense {
            layout,
            conv_weights,
            conv_biases,
            fc_weights,
            fc_bias,
        }
    }

    /// Runs stage `stage` on `input`, returning the produced activation.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= 9` or `input` has the wrong shape for the stage.
    pub(crate) fn run_stage(&self, ctx: &ParCtx, stage: usize, input: &Tensor) -> Tensor {
        assert!(stage < AlexNetLayout::STAGES, "stage out of range");
        let out_shape = self.layout.output_shape(stage);
        let mut out = Tensor::zeros(&out_shape);
        match stage {
            0 | 2 | 4 | 6 => {
                let li = stage / 2;
                conv2d(
                    ctx,
                    &self.layout.convs[li].params,
                    input,
                    &self.conv_weights[li],
                    &self.conv_biases[li],
                    &mut out,
                );
            }
            8 => linear(ctx, input, &self.fc_weights, &self.fc_bias, &mut out),
            _ => maxpool2x2(ctx, input, &mut out),
        }
        out
    }

    /// Full forward pass; returns class logits.
    #[cfg(test)]
    pub(crate) fn forward(&self, ctx: &ParCtx, image: &Tensor) -> Tensor {
        let mut act = image.clone();
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

    #[test]
    fn shapes_chain_correctly() {
        let layout = AlexNetLayout::cifar();
        for i in 0..AlexNetLayout::STAGES - 1 {
            assert_eq!(
                layout.output_shape(i),
                layout.shape_table()[i + 1],
                "stage {i}"
            );
        }
        assert_eq!(layout.output_shape(8), vec![10]);
        assert_eq!(layout.fc_in, 1024);
        assert_eq!(AlexNetLayout::STAGES, 9);
        assert_eq!(layout.stage_name(8), "fc");
    }

    #[test]
    fn forward_produces_logits() {
        let net = AlexNetDense::random(AlexNetLayout::cifar(), 1);
        let img = CifarStream::new(0).next_image();
        let logits = net.forward(&ParCtx::new(4), &img);
        assert_eq!(logits.shape(), &[10]);
        assert!(logits.as_slice().iter().all(|x| x.is_finite()));
        // Non-degenerate: logits differ.
        let first = logits.as_slice()[0];
        assert!(logits.as_slice().iter().any(|&x| (x - first).abs() > 1e-6));
    }

    #[test]
    fn stagewise_equals_forward() {
        let net = AlexNetDense::random(AlexNetLayout::cifar(), 2);
        let img = CifarStream::new(1).next_image();
        let ctx = ParCtx::new(2);
        let full = net.forward(&ctx, &img);
        let mut act = img;
        for s in 0..9 {
            act = net.run_stage(&ctx, s, &act);
        }
        assert!(full.max_abs_diff(&act) < 1e-6);
    }

    #[test]
    fn conv_stages_dominate_flops() {
        let layout = AlexNetLayout::cifar();
        let conv_flops: f64 = [0, 2, 4, 6].iter().map(|&i| layout.stage_flops(i)).sum();
        let other: f64 = [1, 3, 5, 7, 8].iter().map(|&i| layout.stage_flops(i)).sum();
        assert!(conv_flops > 20.0 * other);
    }

    #[test]
    fn deterministic_weights() {
        let a = AlexNetDense::random(AlexNetLayout::cifar(), 7);
        let b = AlexNetDense::random(AlexNetLayout::cifar(), 7);
        assert_eq!(a.conv_weights[0], b.conv_weights[0]);
        assert_eq!(a.fc_weights.len(), 1024 * 10);
    }
}
