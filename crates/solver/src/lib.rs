//! # bt-solver — constraint-solving substrate
//!
//! The paper encodes schedule optimization as constraints (C1–C5, objective
//! O1) and solves them with z3's Python API. This crate replaces z3 with a
//! from-scratch, fully tested stack:
//!
//! - [`Solver`] — a complete SAT solver with two-watched-literal unit
//!   propagation, counter-propagated pseudo-boolean (≤) constraints, and a
//!   CDCL engine (first-UIP clause learning, non-chronological
//!   backjumping, activity decisions, Luby restarts) as the default; the
//!   original chronological DPLL engine remains available via
//!   [`Engine::Dpll`] as the oracle CDCL is property-tested against.
//! - [`ScheduleProblem`] — the BetterTogether encoding: per-stage
//!   exactly-one (C1), chunk contiguity (C2), per-chunk runtime windows
//!   (C3a/C3b), blocking clauses (C5), with gapness (O1) and latency
//!   minimized over achievable chunk sums — every window an assumption
//!   pair on one persistent session ([`LatencyEnumerator`] keeps one).
//! - [`enumerate`] — an exact enumerator of the contiguous-partition
//!   schedule space, used both as BT-Optimizer's fast path and as the
//!   oracle the SAT path is property-tested against.
//! - [`dag`] — the fork/join generalization: contiguity becomes
//!   path-convexity, chunk graphs must stay acyclic, windows arrive
//!   lazily as explanations of refuted models (CEGAR) on the same kind
//!   of session, and a bottleneck stage may be replicated across an
//!   exclusive class pair at half per-replica load.
//!
//! # Example
//!
//! ```
//! use bt_solver::ScheduleProblem;
//!
//! // 3 stages × 2 PU classes, profiled latencies in µs.
//! let p = ScheduleProblem::new(vec![
//!     vec![10.0, 100.0],
//!     vec![100.0, 10.0],
//!     vec![10.0, 100.0],
//! ])?;
//! let (t_max, schedule) = p.min_latency(&[]).expect("feasible");
//! assert!(t_max <= 120.0);
//! assert_eq!(schedule.len(), 3);
//! # Ok::<(), bt_solver::ProblemError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod conflict;
pub mod dag;
pub mod enumerate;
mod lit;
mod schedule;
mod solver;
mod tiers;

pub use dag::{DagChunk, DagError, DagEval, DagProblem, ReplicatedPlan, StageDag, REPLICA};
pub use lit::{Lit, Var};
pub use schedule::{Assignment, ProblemError, ScheduleProblem};
pub use solver::{Engine, Model, SolveResult, SolveStats, Solver};
pub use tiers::LatencyEnumerator;
