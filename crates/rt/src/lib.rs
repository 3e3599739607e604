//! # bt-rt — the runtime substrate, `no_std + alloc` clean
//!
//! The portable core of the BetterTogether runtime, carved out of
//! `bt-pipeline`/`bt-soc` so the same substrate that drives the host
//! executor can run on MCU-class targets (Tock-style static allocation,
//! interrupt-driven dispatch) without the Rust standard library:
//!
//! - [`spsc`] — the lock-free single-producer single-consumer ring the
//!   dispatcher threads communicate through: one protocol on one
//!   [`Producer`]/[`Consumer`] pair, over the heap-capacity
//!   [`spsc::channel`] or the const-generic, statically allocatable
//!   [`StaticRing`].
//! - [`UsmBuffer`] and [`TaskObject`] recycling: the fixed pool of task
//!   containers that circulates through pipeline chunks with zero
//!   steady-state allocation.
//! - The validated stage → PU-class mapping vocabulary ([`Schedule`],
//!   [`DagSchedule`], [`TaskGraph`]) shared by the optimizer, the
//!   simulators, and the executors, with the workspace's one stage-graph
//!   kernel: a graph holds at most [`MAX_STAGES`] (64) nodes, kept as
//!   per-node `u64` masks ([`GraphMasks`]) that answer the topological
//!   sort, the reachability [`Closure`] and the DES's routing.
//! - The shared run model ([`RunConfig`], [`RunReport`],
//!   [`TimelineSpan`]) every execution engine takes and returns, and the
//!   one finisher, [`finish_run`], every engine closes its run through.
//! - The [`Park`] trait that abstracts `std::thread` out of the
//!   substrate; [`Backoff`] and the blocking pop are generic over it, and
//!   under the `std` feature they park through `std::thread`, which
//!   preserves the host behavior exactly.
//!
//! # Features
//!
//! - `std` (default): serde impls for the schedule/run vocabulary,
//!   telemetry in [`RunConfig`]/[`RunReport`], and the host-scheduler
//!   conveniences [`Backoff::snooze`] and [`Consumer::pop_blocking`]. Every workspace crate consumes `bt-rt` through
//!   this gate, so the extraction is source- and wire-compatible.
//! - `alloc`: the floor the substrate stands on (`Vec`, `Box`, `Arc`).
//!   Building `--no-default-features --features alloc` is the CI-gated
//!   proof that no `std::thread`/`std::time` hides in the substrate: under
//!   `no_std` those paths do not resolve at all.

#![cfg_attr(not(feature = "std"), no_std)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

#[cfg(not(feature = "alloc"))]
compile_error!(
    "bt-rt requires the `alloc` feature: build with `--features alloc` \
     (or the default `std` feature, which implies it)"
);

extern crate alloc;

mod affinity;
mod dag;
mod graph;
mod micros;
mod pad;
mod perclass;
mod pu;
mod run;
mod schedule;
pub mod spsc;
mod time;
mod usm;

pub use affinity::AffinityMap;
pub use dag::{DagChunk, DagSchedule, DagScheduleError};
pub use graph::{bits, Closure, CyclicGraphError, GraphMasks, TaskGraph, MAX_STAGES};
pub use micros::Micros;
pub use perclass::PerClass;
pub use pu::PuClass;
pub use run::{
    finish_run, DegradeReason, FinishedRun, RunConfig, RunReport, RunStats, TimelineSpan,
};
pub use schedule::{ChunkAssignment, Schedule, ScheduleError};
pub use spsc::{Backoff, Consumer, Producer, StaticRing};
pub use time::{Park, SpinPark};
pub use usm::{TaskObject, UsmBuffer};
