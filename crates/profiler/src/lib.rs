//! # bt-profiler — the BT-Profiler (§3.2 of the paper)
//!
//! Black-box, per-(stage, PU) latency measurement producing the 2-D
//! [`ProfilingTable`] that drives schedule optimization, under two modes:
//!
//! - [`ProfileMode::Isolated`] — the prior-work methodology: each stage
//!   measured alone on its PU. Compositions of these numbers mispredict
//!   loaded-system behaviour on edge SoCs (§1, Fig. 5c).
//! - [`ProfileMode::InterferenceHeavy`] — BetterTogether's contribution:
//!   while a stage is measured on one PU, every other PU concurrently runs
//!   the same computation, emulating intra-application interference.
//!
//! [`profile`] runs the protocol against the simulated devices of
//! [`bt_soc`]; [`host::profile_host`] runs the *same protocol* against real
//! kernels on the development machine with wall-clock timers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod host;
mod profiler;
mod table;

pub use profiler::{profile, profiling_cost, ProfilerConfig};
pub use table::{ProfileMode, ProfilingTable};
