//! # bt-serve — scheduling-as-a-service
//!
//! Productionizes the Fig. 2 loop into a long-lived serving layer
//! (ROADMAP item 2): a [`PlanService`] answers
//! `PlanRequest { device, app, input_scale, fault_history, objective }`
//! with a validated deployment plan at high rate, so the
//! millions-of-users case is mostly cache hits.
//!
//! The layers, bottom up:
//!
//! - **Content-addressed plan cache** ([`PlanCache`]): plans are keyed by
//!   *what was solved* — `(SocSpec hash, app signature, profiling-table
//!   signature, objective)` — so two requests share a cached plan exactly
//!   when a cold solve would have produced the same answer for both. A
//!   hit is one pass over held state: names resolve by binary search,
//!   the serving cell is read under the cell map's guard, and the cell's
//!   stored key (derived only when its table signature moves) probes
//!   the cache through a multiplicative hasher rather than SipHash. It
//!   performs zero heap allocations (pinned by the `#[global_allocator]`
//!   test `tests/hit_alloc.rs`; `layerbench`'s `serve.hit.allocs_per_req`
//!   row counts them on the `serve_mix` stream).
//! - **Drift-triggered invalidation**: a request's `fault_history`
//!   (observed per-class slowdown factors) is compared against the
//!   factors baked into the serving cell's table; past the drift
//!   threshold the cell rescales its profiling table (the PR 4
//!   `scaled_class` rescale loop as a cache-*invalidation* policy) and
//!   re-solves. Recovery to factor 1.0 restores the original table
//!   signature, so pre-fault plans come straight back from cache.
//! - **Batched cold-path solving** ([`PlanService::serve_batch`]):
//!   misses are grouped by serving cell; each group is solved once —
//!   one exact candidate enumeration and one batched-DES evaluation
//!   pass per candidate — and the solve populates *both* objectives'
//!   cache cells, so a burst of N similar requests costs one solve,
//!   not N.
//! - **Fleet registry** ([`registry`]): devices are data —
//!   `devices/registry.json` plus one `SocSpec` JSON per device, schema-
//!   validated in CI — and served plans are serializable
//!   [`PlanArtifact`]s for offline replay. Re-registering a device with
//!   a different spec drops its serving cells and their plans.
//!
//! ```
//! use bt_serve::{PlanObjective, PlanRequest, PlanService, ServeConfig};
//!
//! let service = PlanService::builtin(ServeConfig::default());
//! let request = PlanRequest {
//!     device: "pixel_7a",
//!     app: "alexnet-dense",
//!     input_scale: 1.0,
//!     fault_history: &[],
//!     objective: PlanObjective::MinLatency,
//! };
//! let cold = service.serve(&request)?;
//! let hit = service.serve(&request)?;
//! assert_eq!(cold.artifact.assignment, hit.artifact.assignment);
//! assert_eq!(service.stats().hits, 1);
//! # Ok::<(), bt_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod artifact;
mod cache;
mod counting;
mod error;
pub mod registry;
mod service;

pub use artifact::{PlanArtifact, PlanObjective};
pub use cache::{PlanCache, PlanKey};
pub use counting::CountingAlloc;
pub use error::ServeError;
pub use registry::{DeviceRegistry, RegistryReport};
pub use service::{PlanRequest, PlanResponse, PlanService, ServeConfig, ServeStats, ServedFrom};
