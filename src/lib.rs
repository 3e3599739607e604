//! # BetterTogether
//!
//! Facade crate re-exporting the full BetterTogether public API: an
//! interference-aware framework for fine-grained software pipelining on
//! heterogeneous SoCs (IISWC 2025), reproduced in Rust.
//!
//! - [`core`] — the end-to-end framework (profile → optimize → autotune).
//! - [`profiler`] — BT-Profiler: isolated and interference-heavy tables.
//! - [`solver`] — the constraint-solving substrate (CDCL tier search +
//!   enumerator).
//! - [`pipeline`] — BT-Implementer: dispatcher threads, SPSC queues,
//!   TaskObjects; host and simulated executors.
//! - [`kernels`] — the three evaluation workloads, implemented for real.
//! - [`soc`] — device models, cost/interference models, and the
//!   discrete-event simulator standing in for the paper's four devices.
//! - [`serve`] — scheduling-as-a-service: a content-addressed plan cache
//!   over the framework loop, with drift-triggered invalidation and
//!   batched cold solving across a device fleet.
//! - [`telemetry`] — per-dispatcher counters and execution spans shared by
//!   host and simulated runs, with Chrome trace / JSONL exporters.
//!
//! # Example
//!
//! ```
//! use bettertogether::core::BetterTogether;
//! use bettertogether::kernels::apps;
//! use bettertogether::soc::devices;
//!
//! let app = apps::octree_app(apps::OctreeConfig::default()).model();
//! let deployment = BetterTogether::new(devices::pixel_7a(), app).run()?;
//! println!(
//!     "{} → {} ({:.2}x vs best homogeneous baseline)",
//!     deployment.best_schedule().expect("autotuned"),
//!     deployment.best_latency().expect("measured"),
//!     deployment.speedup_over_best_baseline().expect("measured"),
//! );
//! # Ok::<(), bettertogether::core::BtError>(())
//! ```
//!
//! The deployment above was measured in the simulator; swap in
//! [`core::HostBackend`] via [`core::BetterTogether::with_backend`] to run
//! the identical loop against real kernels on this machine (see
//! `examples/quickstart.rs`).
#![warn(missing_docs)]

pub use bt_core as core;
pub use bt_kernels as kernels;
pub use bt_pipeline as pipeline;
pub use bt_profiler as profiler;
pub use bt_rt as rt;
pub use bt_serve as serve;
pub use bt_soc as soc;
pub use bt_solver as solver;
pub use bt_telemetry as telemetry;
