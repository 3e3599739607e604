//! # bt-pipeline — the BT-Implementer runtime (§3.4 of the paper)
//!
//! Executes pipeline schedules: long-lived dispatcher threads (one per
//! chunk) pass recycled [`TaskObject`]s through lock-free SPSC queues,
//! with best-effort thread pinning to the chunk's CPU cluster.
//!
//! Two executors share the [`Schedule`] abstraction, one [`RunConfig`],
//! and one [`RunReport`]:
//!
//! - [`run_host`] — real threads on the development machine, running the
//!   actual kernels from `bt-kernels` (demonstrates the runtime substrate
//!   end to end); [`run_host_dag`] is the same dispatchers under a
//!   fork/join [`DagSchedule`]. Pass `Some(&ResilienceConfig)` for
//!   fault-tolerant execution, `None` for fail-fast.
//! - [`simulate_schedule`] — the discrete-event simulator of `bt-soc`,
//!   producing the "measured on device" numbers of the paper's
//!   experiments. Pass `Some(&FaultSpec)` to inject faults.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod affinity;
mod executor;
mod measure;
mod multi;
mod sim;

pub use bt_rt::{DagSchedule, DagScheduleError, Schedule};
pub use executor::{run_host, run_host_dag, PipelineError, PuThreads, ResilienceConfig};
pub use measure::Measurement;
pub use multi::{run_multi_host, Tenant, TenantSet, WorkerBudget};
pub use sim::{
    simulate_baseline, simulate_dag_schedule, simulate_schedule, simulate_schedule_batch,
    to_chunk_specs,
};
// The shared run vocabulary, re-exported so runtime consumers need not
// depend on bt-soc directly.
pub use bt_rt::TaskObject;
pub use bt_soc::{DegradeReason, RunConfig, RunReport};
