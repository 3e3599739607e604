//! Synthetic CIFAR-10-like input generator.
//!
//! The paper classifies CIFAR-10 images; only their *shape and statistics*
//! affect scheduling (stage cost is content-independent for dense layers and
//! nearly so for the sparse ones). We generate deterministic 3×32×32 f32
//! images with natural-image-like spatial correlation by low-pass filtering
//! seeded noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Tensor;

/// CIFAR image channels, height, and width.
pub(crate) const CIFAR_SHAPE: [usize; 3] = [3, 32, 32];

/// Deterministic generator of CIFAR-like images.
///
/// ```
/// let app = bt_kernels::apps::alexnet_dense_app(Default::default());
/// let mut task = app.new_payload();
/// app.load_input(&mut task, 7); // draws from a `CifarStream`
/// assert_eq!(task.act.shape(), &[3, 32, 32]);
/// ```
#[derive(Debug)]
pub(crate) struct CifarStream {
    rng: StdRng,
}

impl CifarStream {
    /// A stream seeded deterministically: the same seed yields the same
    /// image sequence.
    pub(crate) fn new(seed: u64) -> CifarStream {
        CifarStream {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the next 3×32×32 image, values roughly in `[-1, 1]` with
    /// smooth spatial structure.
    pub(crate) fn next_image(&mut self) -> Tensor {
        let [c, h, w] = CIFAR_SHAPE;
        let mut img = Tensor::zeros(&CIFAR_SHAPE);
        // Raw noise, then a 3x3 box blur for spatial correlation.
        let noise: Vec<f32> = (0..c * h * w)
            .map(|_| self.rng.gen_range(-1.0..1.0))
            .collect();
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = 0.0;
                    let mut cnt = 0.0;
                    for dy in -1i32..=1 {
                        for dx in -1i32..=1 {
                            let ny = y as i32 + dy;
                            let nx = x as i32 + dx;
                            if ny >= 0 && ny < h as i32 && nx >= 0 && nx < w as i32 {
                                acc += noise[(ch * h + ny as usize) * w + nx as usize];
                                cnt += 1.0;
                            }
                        }
                    }
                    img[(ch, y, x)] = acc / cnt;
                }
            }
        }
        img
    }

    /// Generates a batch of `n` images flattened into one `[n, 3, 32, 32]`
    /// tensor (the sparse AlexNet variant processes 128 images per task).
    pub(crate) fn next_batch(&mut self, n: usize) -> Tensor {
        let [c, h, w] = CIFAR_SHAPE;
        let mut batch = Tensor::zeros(&[n, c, h, w]);
        let stride = c * h * w;
        for i in 0..n {
            let img = self.next_image();
            batch.as_mut_slice()[i * stride..(i + 1) * stride].copy_from_slice(img.as_slice());
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = CifarStream::new(3).next_image();
        let b = CifarStream::new(3).next_image();
        assert_eq!(a, b);
        let c = CifarStream::new(4).next_image();
        assert_ne!(a, c);
    }

    #[test]
    fn values_bounded() {
        let img = CifarStream::new(1).next_image();
        assert_eq!(img.shape(), &[3, 32, 32]);
        assert!(img.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn images_are_spatially_smooth() {
        // Blurring must reduce adjacent-pixel jumps well below the raw
        // noise scale.
        let img = CifarStream::new(2).next_image();
        let mut total = 0.0;
        let mut n = 0;
        for y in 0..32 {
            for x in 0..31 {
                total += (img[(0, y, x + 1)] - img[(0, y, x)]).abs();
                n += 1;
            }
        }
        assert!(total / n as f32 <= 0.5, "mean jump {}", total / n as f32);
    }

    #[test]
    fn batch_shape() {
        let batch = CifarStream::new(5).next_batch(4);
        assert_eq!(batch.shape(), &[4, 3, 32, 32]);
    }

    #[test]
    fn stream_advances() {
        let mut s = CifarStream::new(9);
        let a = s.next_image();
        let b = s.next_image();
        assert_ne!(a, b);
    }
}
