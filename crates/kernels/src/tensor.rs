//! A minimal dense tensor used by the CNN kernels.
//!
//! BetterTogether's DNN workloads only need contiguous f32 storage with
//! CHW-style shape bookkeeping; this type is deliberately small rather than
//! a general ndarray.

use std::fmt;

/// A dense, row-major `f32` tensor with up to four dimensions.
///
/// ```
/// use bt_kernels::Tensor;
/// let mut t = Tensor::zeros(&[2, 3, 4]);
/// t[(1, 2, 3)] = 5.0;
/// assert_eq!(t[(1, 2, 3)], 5.0);
/// assert_eq!(t.len(), 24);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any dimension is zero.
    pub fn zeros(shape: &[usize]) -> Tensor {
        assert!(!shape.is_empty(), "tensor needs at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "dimensions must be non-zero");
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub(crate) fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        let expect: usize = shape.iter().product();
        assert_eq!(data.len(), expect, "data length must match shape");
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Maximum absolute difference against another tensor of equal shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[cfg(test)]
    pub(crate) fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shapes must match");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    fn offset3(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 3);
        let (h, w) = (self.shape[1], self.shape[2]);
        debug_assert!(c < self.shape[0] && y < h && x < w);
        (c * h + y) * w + x
    }
}

impl std::ops::Index<(usize, usize, usize)> for Tensor {
    type Output = f32;
    fn index(&self, (c, y, x): (usize, usize, usize)) -> &f32 {
        &self.data[self.offset3(c, y, x)]
    }
}

impl std::ops::IndexMut<(usize, usize, usize)> for Tensor {
    fn index_mut(&mut self, (c, y, x): (usize, usize, usize)) -> &mut f32 {
        let off = self.offset3(c, y, x);
        &mut self.data[off]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, len={})", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(&[3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert_eq!(t.shape(), &[3, 4, 5]);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t[(1, 0, 1)] = 3.5;
        assert_eq!(t[(1, 0, 1)], 3.5);
        assert_eq!(t.as_slice()[5], 3.5); // (1*2+0)*2+1
    }

    #[test]
    fn max_abs_diff() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![1.0, 2.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "match shape")]
    fn from_vec_checks_len() {
        let _ = Tensor::from_vec(&[2, 2], vec![0.0; 3]);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(&[1]);
        assert!(!format!("{t:?}").is_empty());
    }
}
