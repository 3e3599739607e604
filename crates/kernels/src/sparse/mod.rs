//! Sparse CNN kernels: CSR matrices, magnitude-based structured pruning,
//! sparse convolution via CSR × im2col, and the AlexNet-sparse variant
//! (batch of 128 images per task, §4.1 of the paper).

mod alexnet;
mod conv;
mod csr;
mod prune;

pub(crate) use alexnet::AlexNetSparse;
pub(crate) use conv::sparse_conv2d;
pub(crate) use csr::CsrMatrix;
pub(crate) use prune::prune_to_csr;
