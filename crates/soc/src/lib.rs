//! # bt-soc — heterogeneous SoC modeling substrate
//!
//! This crate is the hardware substrate of the BetterTogether reproduction.
//! The paper evaluates on four physical edge platforms (Google Pixel 7a,
//! OnePlus 11, NVIDIA Jetson Orin Nano in normal and low-power modes); this
//! crate replaces them with calibrated analytic device models plus a
//! discrete-event simulator, so every scheduling experiment in the paper can
//! run on a development machine.
//!
//! The crate provides:
//!
//! - [`PuClass`] / [`PuSpec`] — processing-unit taxonomy (big/medium/little
//!   CPU clusters and integrated GPUs) with architectural parameters.
//! - [`SocSpec`] and the [`devices`] module — complete models of the paper's
//!   four evaluation platforms (Table 2 of the paper).
//! - [`WorkProfile`] — a black-box description of one pipeline stage's
//!   resource demands (flops, DRAM traffic, parallel fraction, control-flow
//!   divergence, memory irregularity).
//! - [`cost`] — a roofline-style latency model mapping a `WorkProfile` onto a
//!   PU under a given concurrency context.
//! - [`InterferenceModel`] — per-device DVFS/firmware multipliers plus
//!   dynamic DRAM bandwidth contention, calibrated against Fig. 7 of the
//!   paper.
//! - [`des`] — the discrete-event simulator: one engine executes a forest
//!   of pipelined chunk DAGs in virtual time, re-sampling interference
//!   against the set of concurrently busy PUs. Its entries are views of
//!   it: [`simulate_dag`] runs one pipeline of any shape (a chain is
//!   [`DagPipelineSpec::chain`]; fork/join and replica groups are edges),
//!   [`simulate_multi`] co-runs tenants, and [`des_dynamic`] is the
//!   StarPU-style dynamic scheduler the paper compares against, placing
//!   each stage at dispatch.
//! - [`parallel::fan_out`] — the index-ordered scoped-thread map every
//!   layer above spreads independent evaluations with, once
//!   [`parallel::amortises_spawn`] says one of them is worth a thread.
//!
//! # Example
//!
//! ```
//! use bt_soc::{devices, PuClass, WorkProfile, cost::{self, LoadContext}};
//!
//! let soc = devices::pixel_7a();
//! let work = WorkProfile::new(1.0e6, 4.0e5).with_parallel_fraction(0.95);
//! let gpu = soc.pu(PuClass::Gpu).expect("pixel has a GPU");
//! let t = cost::latency(&work, gpu, &soc, &LoadContext::isolated());
//! assert!(t.as_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod affinity;
mod clock;
pub mod cost;
pub mod des;
mod device;
mod error;
mod fault;
pub mod gantt;
pub mod hash;
mod interference;
pub mod parallel;
pub mod power;
mod pu;
mod work;

pub use bt_rt::{AffinityMap, Micros};
pub use bt_rt::{DegradeReason, RunConfig, RunReport, RunStats, TimelineSpan};
pub use clock::{seed_from_labels, NoiseModel};
/// The dynamic scheduler's entry points, a lowering onto [`des`] that
/// lives at `des::dynamic`.
pub use des::dynamic as des_dynamic;
pub use des::{
    simulate_dag, simulate_multi, DagPipelineSpec, DesSeedSpec, MultiRunReport, TenantSpec,
};
pub use device::{devices, PerClass, SocBuilder, SocSpec};
pub use error::SocError;
pub use fault::{FaultSpec, PuLoss, SlowdownRamp, StageFault, StageFaultKind, Straggler};
pub use hash::{fnv1a64, json_hash};
pub use interference::{ActiveKernel, InterferenceModel};
pub use pu::{GpuBackend, PuClass, PuSpec};
pub use work::WorkProfile;
