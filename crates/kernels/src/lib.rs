//! # bt-kernels — real compute kernels and applications
//!
//! The paper evaluates BetterTogether on three computer-vision edge
//! workloads (§4.1); this crate implements all of them for real, in Rust,
//! plus a fourth, genuinely branching workload:
//!
//! - AlexNet-dense for CIFAR-10: direct convolution, max-pooling, and a
//!   fully-connected classifier, 9 pipeline stages.
//! - AlexNet-sparse: the same network magnitude-pruned to CSR (the
//!   Condensa stand-in), processed in batches.
//! - The 7-stage Karras octree-construction pipeline over Morton-coded
//!   point clouds (radix sort, radix tree, edge counting, prefix sum,
//!   octree linking).
//! - A fork/join tracking pipeline: preprocessing forks
//!   into a detection branch (convolution + NMS) and an optical-flow
//!   branch (pyramid + solve) that join in a fusion/tracking tail — the
//!   workload exercising DAG-aware scheduling.
//!
//! Every stage is exposed both as an executable kernel (run by the host
//! pipeline runtime and by tests) and as a [`bt_soc::WorkProfile`] consumed
//! by the device simulator. The [`apps`] module packages the workloads as
//! ready-made [`Application`]s; the kernels themselves are private to this
//! crate.
//!
//! # Example
//!
//! ```
//! use bt_kernels::{apps, ParCtx};
//! use bt_kernels::pointcloud::CloudShape;
//!
//! let app = apps::octree_app(apps::OctreeConfig {
//!     points: 2000,
//!     shape: CloudShape::Uniform,
//!     max_depth: 6,
//!     seed: 7,
//! });
//! let mut task = app.new_payload();
//! app.run_sequential(&mut task, 0, &ParCtx::new(4));
//! assert!(task.octree.expect("octree built").cell_count() > 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod app;
pub mod apps;
mod cifar;
mod dense;
mod octree;
mod par;
mod perception;
pub mod pointcloud;
mod sensor;
mod sparse;
mod tensor;

pub use app::{
    AppModel, Application, CyclicGraphError, FactoryFn, KernelFn, SourceFn, Stage, StageModel,
    TaskGraph,
};
pub use par::ParCtx;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests;
