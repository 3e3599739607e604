//! # bt-core — the BetterTogether framework
//!
//! The end-to-end system of the paper (Fig. 2): given a device model and an
//! application expressed as a stage sequence, BetterTogether
//!
//! 1. profiles every stage on every PU under representative
//!    intra-application interference (BT-Profiler, `bt-profiler`),
//! 2. solves for candidate pipeline schedules that minimize latency while
//!    maintaining utilization (BT-Optimizer, three levels, backed by the
//!    `bt-solver` constraint engine),
//! 3. executes and autotunes the top candidates (BT-Implementer, via the
//!    `bt-pipeline` executors), and
//! 4. reports speedups over homogeneous CPU-only / GPU-only baselines.
//!
//! # Example
//!
//! ```
//! use bt_core::BetterTogether;
//! use bt_kernels::apps;
//! use bt_soc::devices;
//!
//! let app = apps::octree_app(apps::OctreeConfig::default()).model();
//! let deployment = BetterTogether::new(devices::pixel_7a(), app).run()?;
//! println!(
//!     "best schedule {} → {} ({}× vs best homogeneous baseline)",
//!     deployment.best_schedule().expect("autotuned"),
//!     deployment.best_latency().expect("measured"),
//!     deployment.speedup_over_best_baseline().expect("measured"),
//! );
//! # Ok::<(), bt_core::BtError>(())
//! ```
//!
//! The same loop runs on real silicon by swapping the backend: bind a
//! [`HostBackend`] (real kernels, wall-clock profiling, dispatcher-thread
//! execution) via [`BetterTogether::with_backend`] and call the identical
//! `run()`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod backend;
mod baseline;
pub mod energy;
mod error;
mod framework;
pub mod metrics;
mod optimizer;
pub mod predict;
mod resilience;

pub use backend::{CoTenant, ExecutionBackend, HostBackend, McuBackend, SimBackend};
pub use baseline::{measure_baselines, BaselineEntry, Baselines};
pub use error::BtError;
pub use framework::{BetterTogether, BtConfig, Deployment, Plan};
pub use optimizer::{
    autotune, build_dag_problem, build_problem, optimize, optimize_dag, optimize_replicated,
    optimize_with, AutotuneOutcome, Candidate, CandidateMeasurement, DagCandidate, Objective,
    OptimizerConfig, SolverEngine,
};
pub use resilience::{DriftConfig, RescheduleEvent, ResilientRun};
