//! # bt-solver — constraint-solving substrate
//!
//! The paper encodes schedule optimization as constraints (C1–C5, objective
//! O1) and solves them with z3's Python API. This crate replaces z3 with a
//! from-scratch, fully tested stack:
//!
//! - a complete CDCL SAT solver, private to the crate: two-watched-literal
//!   unit propagation, first-UIP clause learning, non-chronological
//!   backjumping, activity decisions and Luby restarts. Its tests check it
//!   against a truth table; the encoding's tests check it against the
//!   enumerator below. Neither oracle shares code with it.
//! - [`DagProblem`] — the BetterTogether encoding, the one problem type:
//!   a latency table over a [`StageDag`], a chain being
//!   [`DagProblem::chain`]. Per-stage exactly-one (C1), path-convexity
//!   (C2 — interval contiguity on a chain) with an acyclic chunk graph,
//!   per-chunk runtime windows (C3a/C3b), blocking clauses (C5), with
//!   latency minimized over achievable chunk sums — every window an
//!   assumption pair on one persistent session ([`LatencyEnumerator`]
//!   keeps one), its window clauses and chunk cap explained lazily — a
//!   chain's as intervals, any other DAG's over stage sets. The paper's
//!   gapness objective (O1) is not encoded; `bt-core`'s optimizer says
//!   why. A
//!   bottleneck stage may be replicated across an exclusive class pair at
//!   half per-replica load.
//! - [`enumerate`] — the exact enumerator of the schedule space, used both
//!   as BT-Optimizer's fast path (a top-K search bounded by the K-th best
//!   `T_max` and, on paths, the utilization filter,
//!   [`DagProblem::latency_top_k`]) and as the oracle the SAT path
//!   is property-tested against.
//!
//! The enumerator has a fast arm for DAGs that are a path in index order
//! and a general one; only the DAG's shape chooses, and [`enumerate`] says
//! why the fast arm is kept. On such a path the session's tiers are the
//! same prefix differences, so windows line up with predictions bit for
//! bit, and the session explains the chain's windows as intervals by the
//! same rule.
//!
//! # Example
//!
//! ```
//! use bt_solver::DagProblem;
//!
//! // 3 stages × 2 PU classes, profiled latencies in µs.
//! let p = DagProblem::chain(vec![
//!     vec![10.0, 100.0],
//!     vec![100.0, 10.0],
//!     vec![10.0, 100.0],
//! ])?;
//! let (t_max, schedule) = p.min_latency(&[]).expect("feasible");
//! assert!(t_max <= 120.0);
//! assert_eq!(schedule.len(), 3);
//! assert_eq!(p.min_latency_exact().map(|(t, _)| t), Some(t_max));
//! # Ok::<(), bt_solver::ProblemError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod conflict;
mod dag;
pub mod enumerate;
mod lit;
mod solver;
mod tiers;

pub use dag::{
    Assignment, DagChunk, DagProblem, Eval, ProblemError, ReplicatedPlan, StageDag, REPLICA,
};
pub use tiers::LatencyEnumerator;
