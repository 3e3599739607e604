//! Dense CNN kernels: direct convolution, max-pooling, and fully-connected
//! layers, plus the AlexNet-dense network used by the paper's regular
//! workload.

mod alexnet;
mod conv;
mod linear;
mod pool;

pub(crate) use alexnet::{AlexNetDense, AlexNetLayout};
pub(crate) use conv::{conv2d, Conv2dParams};
pub(crate) use linear::linear;
pub(crate) use pool::maxpool2x2;

#[cfg(test)]
pub(crate) use conv::conv2d_reference;
