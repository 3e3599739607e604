//! 2×2 max-pooling with stride 2.

use crate::{ParCtx, Tensor};

/// Computes 2×2/stride-2 max-pooling of `input` (`[C, H, W]`, `H` and `W`
/// even) into `out` (`[C, H/2, W/2]`).
///
/// # Panics
///
/// Panics if `H` or `W` is odd, or if `out` has the wrong shape.
pub(crate) fn maxpool2x2(ctx: &ParCtx, input: &Tensor, out: &mut Tensor) {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    assert!(h % 2 == 0 && w % 2 == 0, "maxpool2x2 needs even dimensions");
    assert_eq!(out.shape(), &[c, h / 2, w / 2], "output shape mismatch");

    let (oh, ow) = (h / 2, w / 2);
    let in_data = input.as_slice();
    let out_data = out.as_mut_slice();
    ctx.for_each_chunk(out_data, |offset, chunk| {
        for (rel, slot) in chunk.iter_mut().enumerate() {
            let idx = offset + rel;
            let ch = idx / (oh * ow);
            let y = (idx % (oh * ow)) / ow;
            let x = idx % ow;
            let base = (ch * h + 2 * y) * w + 2 * x;
            let a = in_data[base];
            let b = in_data[base + 1];
            let c2 = in_data[base + w];
            let d = in_data[base + w + 1];
            *slot = a.max(b).max(c2).max(d);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_window_maximum() {
        let input = Tensor::from_vec(
            &[1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 1., 2., 3., //
                4., 5., 6., 7.,
            ],
        );
        let mut out = Tensor::zeros(&[1, 2, 2]);
        maxpool2x2(&ParCtx::serial(), &input, &mut out);
        assert_eq!(out.as_slice(), &[6., 8., 9., 7.]);
    }

    #[test]
    fn multi_channel() {
        let mut input = Tensor::zeros(&[2, 2, 2]);
        input[(0, 0, 0)] = 1.0;
        input[(1, 1, 1)] = 2.0;
        let mut out = Tensor::zeros(&[2, 1, 1]);
        maxpool2x2(&ParCtx::new(2), &input, &mut out);
        assert_eq!(out.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn serial_parallel_agree() {
        let data: Vec<f32> = (0..3 * 8 * 8).map(|i| ((i * 37) % 101) as f32).collect();
        let input = Tensor::from_vec(&[3, 8, 8], data);
        let mut a = Tensor::zeros(&[3, 4, 4]);
        let mut b = Tensor::zeros(&[3, 4, 4]);
        maxpool2x2(&ParCtx::serial(), &input, &mut a);
        maxpool2x2(&ParCtx::new(5), &input, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn odd_input_panics() {
        let input = Tensor::zeros(&[1, 3, 4]);
        let mut out = Tensor::zeros(&[1, 1, 2]);
        maxpool2x2(&ParCtx::serial(), &input, &mut out);
    }
}
