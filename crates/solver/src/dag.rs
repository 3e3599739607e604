//! The schedule-optimization problem (§3.3 of the paper) over a stage DAG.
//!
//! Decision variables `x[i][c]` assign stage `i` to PU class `c`, under:
//!
//! - **C1** — exactly one PU class per stage (a *replicated* stage instead
//!   gets an exclusive class pair, below).
//! - **C2 — path-convexity**: the stages of one class must not leave a
//!   "hole" on any dependency path. For every dependency-ordered pair
//!   `(u, v)` on class `c`, every stage `w` with `u ⇝ w ⇝ v` must also be
//!   on `c`. On a chain this is exactly the paper's interval contiguity; on
//!   a fork/join DAG it still allows one class to pack *incomparable*
//!   stages from sibling branches — the packing freedom linearization
//!   destroys.
//! - **Chunk-graph acyclicity**: one PU serves all stages of a class
//!   run-to-completion per task, so the quotient graph over class chunks
//!   must be acyclic for tokens to flow forward. (Convexity alone does not
//!   imply this, though this implies convexity; see `acyclic`.)
//! - **C3a/C3b** — every chunk's summed latency lies in a window
//!   `[T_min, T_max]`, and **C5ℓ** — blocking clauses exclude previously
//!   found schedules: the SAT queries of [`crate::tiers`].
//! - **Replication**: one bottleneck stage may be split across an
//!   exclusive pair of classes; each replica serves every other task, so
//!   its chunk sum is half the stage latency on its class. Downstream, a
//!   deterministic round-robin merge restores task order.
//!
//! A chain is [`StageDag::chain`]. A DAG that *is* a path in index order
//! has intervals for chunks and O(1) prefix differences for their sums;
//! [`crate::enumerate`] has a fast arm for that shape, and the SAT
//! session's tiers are those differences, both selected by the shape
//! alone.

use bt_rt::{Closure, TaskGraph, MAX_STAGES};

use crate::enumerate::generate;

/// A schedule: for each stage, the index of its assigned PU class.
pub type Assignment = Vec<usize>;

/// Sentinel class index marking the replicated stage inside a
/// [`ReplicatedPlan`] assignment.
pub const REPLICA: usize = usize::MAX;

/// Stage count up to which a fork/join DAG can be solved: its window
/// bounds range over per-class subset sums, 2ⁿ of them. (Paths range over
/// interval sums and are only bound by [`StageDag`]'s 64.)
const MAX_FORK_JOIN_STAGES: usize = 20;

/// Errors constructing a [`StageDag`] or [`DagProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProblemError {
    /// The latency table is empty or ragged, or a class mask has the
    /// wrong length.
    BadShape,
    /// A latency entry is non-positive or non-finite.
    BadLatency {
        /// Stage row.
        stage: usize,
        /// Class column.
        class: usize,
    },
    /// No PU class is allowed.
    NoAllowedClass,
    /// The chunk cap is zero: a schedule has at least one chunk.
    NoChunkAllowed,
    /// An edge references a stage index out of range.
    EdgeOutOfRange {
        /// The offending edge.
        edge: (usize, usize),
    },
    /// The dependency graph contains a cycle.
    Cyclic,
    /// More stages than the reachability bitmasks (64) or, on a DAG that
    /// is not a path, the subset-sum tiers (20) support.
    TooManyStages {
        /// The offending stage count.
        stages: usize,
        /// The most this shape supports.
        max: usize,
    },
    /// Latency table rows differ from the DAG's stage count.
    StageMismatch {
        /// Rows in the latency table.
        table: usize,
        /// Stages in the DAG.
        dag: usize,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::BadShape => {
                f.write_str("latency table must be non-empty and rectangular")
            }
            ProblemError::BadLatency { stage, class } => {
                write!(
                    f,
                    "latency for stage {stage} on class {class} must be positive and finite"
                )
            }
            ProblemError::NoAllowedClass => f.write_str("at least one PU class must be allowed"),
            ProblemError::NoChunkAllowed => f.write_str("the chunk cap must be at least one"),
            ProblemError::EdgeOutOfRange { edge } => {
                write!(
                    f,
                    "edge ({}, {}) references an unknown stage",
                    edge.0, edge.1
                )
            }
            ProblemError::Cyclic => f.write_str("stage dependency graph contains a cycle"),
            ProblemError::TooManyStages { stages, max } => {
                write!(f, "{stages} stages exceed the supported maximum of {max}")
            }
            ProblemError::StageMismatch { table, dag } => {
                write!(
                    f,
                    "latency table has {table} rows but the DAG has {dag} stages"
                )
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// A stage-dependency DAG with its reachability closure precomputed by
/// bt-rt's [`TaskGraph::closure`]: the workspace's one topological order,
/// so chunk `i` of an [`Eval`] is chunk `i` of the `bt_rt::DagSchedule`
/// built from the same assignment.
#[derive(Debug, Clone)]
pub struct StageDag {
    graph: TaskGraph,
    closure: Closure,
}

impl StageDag {
    /// Builds a DAG over `n` stages from dependency edges `(from, to)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] on out-of-range edges, cycles, or more
    /// than [`MAX_STAGES`] (64) stages.
    pub fn new(n: usize, deps: Vec<(usize, usize)>) -> Result<StageDag, ProblemError> {
        if n > MAX_STAGES {
            return Err(ProblemError::TooManyStages {
                stages: n,
                max: MAX_STAGES,
            });
        }
        let mut graph = TaskGraph::new(n);
        for edge in deps {
            if edge.0 >= n || edge.1 >= n {
                return Err(ProblemError::EdgeOutOfRange { edge });
            }
            graph.add_dep(edge.0, edge.1);
        }
        let closure = graph.closure().map_err(|_| ProblemError::Cyclic)?;
        Ok(StageDag { graph, closure })
    }

    /// The linear chain over `n` stages.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::TooManyStages`] past [`MAX_STAGES`] stages.
    pub fn chain(n: usize) -> Result<StageDag, ProblemError> {
        StageDag::new(n, (1..n).map(|i| (i - 1, i)).collect())
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the DAG has no stages.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The dependency edges.
    pub fn deps(&self) -> &[(usize, usize)] {
        self.graph.deps()
    }

    /// The deterministic topological order.
    pub fn topo_order(&self) -> &[usize] {
        &self.closure.order
    }

    /// Whether a path with at least one edge leads from `u` to `v`.
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        self.closure.below[u] >> v & 1 == 1
    }

    /// Whether the DAG is a chain *in index order*: stage `i` precedes
    /// stage `i + 1`, so a convex chunk is an index interval. (A chain
    /// under any other labelling is solved as the DAG it is.)
    pub(crate) fn is_path(&self) -> bool {
        (0..self.len().saturating_sub(1)).all(|i| self.reaches(i, i + 1))
    }
}

/// The stages one class holds, with everything below and above them: the
/// masks every C2 test in this crate is made of. A stage lies between two
/// members (`u ⇝ w ⇝ v`) exactly when it is below one and above another,
/// so a (partial) assignment is path-convex iff no placed stage sits in
/// another class's [`Hull::holes`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Hull {
    members: u64,
    below: u64,
    above: u64,
}

impl Hull {
    /// This class with stage `s` of `dag` added.
    pub(crate) fn with(self, dag: &StageDag, s: usize) -> Hull {
        Hull {
            members: self.members | 1 << s,
            below: self.below | dag.closure.below[s],
            above: self.above | dag.closure.above[s],
        }
    }

    /// The non-members between two members.
    pub(crate) fn holes(self) -> u64 {
        self.below & self.above & !self.members
    }

    pub(crate) fn is_empty(self) -> bool {
        self.members == 0
    }

    /// The class `assignment` gives the members of this non-empty hull.
    fn class_in(self, assignment: &[usize]) -> usize {
        assignment[self.members.trailing_zeros() as usize]
    }
}

/// Whether the quotient graph over the classes of a complete assignment
/// is acyclic — required for run-to-completion chunk service, and all of
/// structural validity: a hole `u ⇝ w ⇝ v` puts the classes of `u` and `w`
/// on a cycle, so an acyclic quotient is path-convex (C2). The converse
/// fails: with chunks A = {a1, a2}, B = {b1, b2} and edges a1→b1, b2→a2
/// (all four incomparable pairwise within their chunk), both chunks are
/// convex yet A→B→A cycles. Kahn over the classes, with an edge wherever
/// a member of one reaches a member of another: a dependency path through
/// third chunks is a walk in the quotient over [`StageDag::deps`], so the
/// two have the same cycles.
pub(crate) fn acyclic(hulls: &[Hull]) -> bool {
    let mut served = 0u64;
    loop {
        let mut waiting = hulls.iter().filter(|h| h.members & !served != 0);
        match waiting.find(|h| h.above & !(served | h.members) == 0) {
            Some(h) => served |= h.members,
            None => return hulls.iter().all(|h| h.members & !served == 0),
        }
    }
}

/// One chunk of a schedule: all stages one PU class hosts, served by a
/// single PU in topological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagChunk {
    /// Hosting class, or [`REPLICA`] for a replicated stage's chunks.
    pub class: usize,
    /// Member stages in topological order.
    pub stages: Vec<usize>,
}

/// A fully evaluated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Eval {
    /// Stage → class assignment.
    pub assignment: Assignment,
    /// Per-chunk latency sums, in chunk-id (first topological appearance)
    /// order — pipeline order on chains.
    pub chunk_sums: Vec<f64>,
    /// Bottleneck chunk sum (predicted steady-state time per task).
    pub t_max: f64,
    /// Smallest chunk sum.
    pub t_min: f64,
}

/// The largest and the smallest of `chunk_sums`.
pub(crate) fn extremes(chunk_sums: &[f64]) -> (f64, f64) {
    let t_max = chunk_sums.iter().copied().fold(f64::MIN, f64::max);
    let t_min = chunk_sums.iter().copied().fold(f64::MAX, f64::min);
    (t_max, t_min)
}

impl Eval {
    /// Prices an assignment whose chunk sums are known.
    pub fn new(assignment: Assignment, chunk_sums: Vec<f64>) -> Eval {
        let (t_max, t_min) = extremes(&chunk_sums);
        Eval {
            assignment,
            chunk_sums,
            t_max,
            t_min,
        }
    }

    /// Gapness (`T_max − T_min`), the paper's O1 objective.
    pub fn gapness(&self) -> f64 {
        self.t_max - self.t_min
    }

    /// The candidate order: predicted latency, ties broken by gapness,
    /// then lexicographically for determinism.
    pub fn by_latency(&self, other: &Eval) -> std::cmp::Ordering {
        (self.t_max.total_cmp(&other.t_max))
            .then_with(|| self.gapness().total_cmp(&other.gapness()))
            .then_with(|| self.assignment.cmp(&other.assignment))
    }
}

/// A replicated schedule: `stage` runs on *both* classes of the exclusive
/// pair, each replica serving alternate tasks; every other stage keeps a
/// single class and none may use the pair's classes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedPlan {
    /// The replicated stage.
    pub stage: usize,
    /// The exclusive class pair, ascending.
    pub classes: (usize, usize),
    /// Stage → class assignment with `assignment[stage] == REPLICA`.
    pub assignment: Assignment,
    /// Bottleneck chunk sum, replica chunks priced at half service.
    pub t_max: f64,
}

/// A schedule-optimization instance: the profiling table restricted to the
/// classes the device can schedule, over the stage DAG.
#[derive(Debug, Clone)]
pub struct DagProblem {
    /// `latency[i][c]`: profiled latency of stage `i` on class `c` (µs).
    latency: Vec<Vec<f64>>,
    /// `prefix[c][i]`: Σ `latency[0..i][c]` — on a path, every chunk sum
    /// `[i, j]` on class `c` is the O(1) difference
    /// `prefix[c][j+1] − prefix[c][i]`. All of a path's chunk-sum consumers
    /// (the enumerator, the session's tiers, assignment evaluation) read
    /// these same differences, so a chunk's value is bit-identical
    /// everywhere it appears.
    prefix: Vec<Vec<f64>>,
    allowed: Vec<bool>,
    /// Maximum number of chunks (dispatcher threads) a schedule may use;
    /// `None` means only the PU count limits it.
    max_chunks: Option<usize>,
    dag: StageDag,
}

impl DagProblem {
    /// Creates a problem from a `stages × classes` latency table and the
    /// stage DAG, with all classes allowed.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if the table does not match the DAG, is
    /// empty, ragged, or contains non-positive/non-finite entries, or if a
    /// DAG that is not a path has more than 20 stages.
    pub fn new(latency: Vec<Vec<f64>>, dag: StageDag) -> Result<DagProblem, ProblemError> {
        if latency.len() != dag.len() {
            return Err(ProblemError::StageMismatch {
                table: latency.len(),
                dag: dag.len(),
            });
        }
        if latency.is_empty() || latency[0].is_empty() {
            return Err(ProblemError::BadShape);
        }
        let classes = latency[0].len();
        for (i, row) in latency.iter().enumerate() {
            if row.len() != classes {
                return Err(ProblemError::BadShape);
            }
            for (c, &t) in row.iter().enumerate() {
                if !(t > 0.0 && t.is_finite()) {
                    return Err(ProblemError::BadLatency { stage: i, class: c });
                }
            }
        }
        if dag.len() > MAX_FORK_JOIN_STAGES && !dag.is_path() {
            return Err(ProblemError::TooManyStages {
                stages: dag.len(),
                max: MAX_FORK_JOIN_STAGES,
            });
        }
        let prefix: Vec<Vec<f64>> = (0..classes)
            .map(|c| {
                let mut acc = 0.0;
                let mut p = Vec::with_capacity(latency.len() + 1);
                p.push(0.0);
                for row in &latency {
                    acc += row[c];
                    p.push(acc);
                }
                p
            })
            .collect();
        Ok(DagProblem {
            latency,
            prefix,
            allowed: vec![true; classes],
            max_chunks: None,
            dag,
        })
    }

    /// The chain problem of the paper: [`DagProblem::new`] over
    /// [`StageDag::chain`], with the errors of both.
    pub fn chain(latency: Vec<Vec<f64>>) -> Result<DagProblem, ProblemError> {
        let dag = StageDag::chain(latency.len())?;
        DagProblem::new(latency, dag)
    }

    /// Restricts which classes may host chunks (e.g. unpinnable clusters).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::NoAllowedClass`] if everything is disallowed,
    /// or [`ProblemError::BadShape`] on length mismatch.
    pub fn with_allowed(mut self, allowed: Vec<bool>) -> Result<DagProblem, ProblemError> {
        if allowed.len() != self.classes() {
            return Err(ProblemError::BadShape);
        }
        if !allowed.iter().any(|&a| a) {
            return Err(ProblemError::NoAllowedClass);
        }
        self.allowed = allowed;
        Ok(self)
    }

    /// Caps the number of chunks (one dispatcher thread each, §3.4) a
    /// schedule may use — e.g. to bound thread count or keep clusters
    /// powered down.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::NoChunkAllowed`] if `k == 0`.
    pub fn with_max_chunks(mut self, k: usize) -> Result<DagProblem, ProblemError> {
        if k == 0 {
            return Err(ProblemError::NoChunkAllowed);
        }
        self.max_chunks = Some(k);
        Ok(self)
    }

    /// The configured chunk cap, if any.
    pub fn max_chunks(&self) -> Option<usize> {
        self.max_chunks
    }

    /// The stage DAG.
    pub fn dag(&self) -> &StageDag {
        &self.dag
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.latency.len()
    }

    /// Number of PU classes (columns).
    pub fn classes(&self) -> usize {
        self.latency[0].len()
    }

    /// Whether class `c` may host chunks.
    pub(crate) fn is_allowed(&self, c: usize) -> bool {
        self.allowed[c]
    }

    /// Profiled latency of stage `i` on class `c`.
    pub fn latency(&self, i: usize, c: usize) -> f64 {
        self.latency[i][c]
    }

    /// On a path: latency of the chunk `[i, j]` on class `c`, an O(1)
    /// prefix-sum difference.
    pub(crate) fn interval_sum(&self, i: usize, j: usize, c: usize) -> f64 {
        self.prefix[c][j + 1] - self.prefix[c][i]
    }

    /// What `stages` (in topological order) cost together on `class`.
    pub(crate) fn sum_on(&self, class: usize, stages: &[usize]) -> f64 {
        stages.iter().map(|&s| self.latency[s][class]).sum()
    }

    /// The hulls of `assignment`'s chunks, and how many there are. Chunk
    /// ids are assigned by first appearance in topological order (so
    /// chains get pipeline order); stages share a chunk iff they share a
    /// class, which makes the one `REPLICA` stage its own — an exclusive
    /// pseudo-class, so a replicated stage is a convexity barrier.
    fn hulls(&self, assignment: &[usize]) -> ([Hull; 64], usize) {
        let mut hulls = [Hull::default(); 64];
        let mut chunks = 0;
        for &s in self.dag.topo_order() {
            let id = (hulls[..chunks].iter())
                .position(|h| h.class_in(assignment) == assignment[s])
                .unwrap_or(chunks);
            chunks = chunks.max(id + 1);
            hulls[id] = hulls[id].with(&self.dag, s);
        }
        (hulls, chunks)
    }

    /// Core validity: C1 range/permissions, the chunk cap, and chunk-graph
    /// acyclicity (hence C2). `replica` marks the stage allowed to carry
    /// [`REPLICA`].
    fn validate(&self, assignment: &[usize], replica: Option<usize>) -> bool {
        if assignment.len() != self.stages() {
            return false;
        }
        for (s, &c) in assignment.iter().enumerate() {
            if c == REPLICA {
                if replica != Some(s) {
                    return false;
                }
            } else if c >= self.classes() || !self.allowed[c] {
                return false;
            }
        }
        if let Some(r) = replica {
            if assignment[r] != REPLICA {
                return false;
            }
        }
        let (hulls, chunks) = self.hulls(assignment);
        // A replicated stage occupies two PUs (two replica chunks).
        let weight = chunks + usize::from(replica.is_some());
        self.max_chunks.is_none_or(|k| weight <= k) && acyclic(&hulls[..chunks])
    }

    /// Whether `assignment` is a valid (unreplicated) schedule: C1
    /// (length/range), class permissions, C2, the chunk cap and an acyclic
    /// chunk graph.
    pub fn is_valid(&self, assignment: &[usize]) -> bool {
        self.validate(assignment, None)
    }

    /// The chunks of a valid assignment, in chunk-id (first topological
    /// appearance) order — pipeline order on chains.
    pub(crate) fn chunks_unchecked(&self, assignment: &[usize]) -> Vec<DagChunk> {
        let (hulls, chunks) = self.hulls(assignment);
        let members = |h: &Hull| {
            let held = |s: &usize| h.members >> s & 1 == 1;
            self.dag.topo_order().iter().copied().filter(held).collect()
        };
        (hulls[..chunks].iter())
            .map(|h| DagChunk {
                class: h.class_in(assignment),
                stages: members(h),
            })
            .collect()
    }

    /// Evaluates a valid assignment: per-chunk sums and the bottleneck. On
    /// a path the sums are the prefix differences the enumerator and the
    /// window clauses use.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is invalid.
    pub fn evaluate(&self, assignment: &[usize]) -> Eval {
        assert!(self.is_valid(assignment), "invalid assignment");
        let path = self.dag.is_path();
        let chunk_sums = (self.chunks_unchecked(assignment).iter())
            .map(|ch| match (path, ch.stages.first(), ch.stages.last()) {
                (true, Some(&first), Some(&last)) => self.interval_sum(first, last, ch.class),
                _ => self.sum_on(ch.class, &ch.stages),
            })
            .collect();
        Eval::new(assignment.to_vec(), chunk_sums)
    }

    /// Whether `plan`'s assignment (with its `REPLICA` marker) is a valid
    /// replicated schedule: the pair's classes are exclusive to the
    /// replicated stage, everything else is a valid DAG schedule with the
    /// replica as a convexity barrier.
    pub(crate) fn is_valid_replicated(&self, plan: &ReplicatedPlan) -> bool {
        let (c1, c2) = plan.classes;
        if c1 == c2
            || c1 >= self.classes()
            || c2 >= self.classes()
            || !self.allowed[c1]
            || !self.allowed[c2]
            || plan.stage >= self.stages()
        {
            return false;
        }
        if plan
            .assignment
            .iter()
            .enumerate()
            .any(|(s, &c)| s != plan.stage && (c == c1 || c == c2))
        {
            return false;
        }
        self.validate(&plan.assignment, Some(plan.stage))
    }

    /// Evaluates a valid replicated plan: real chunks at full service,
    /// each replica chunk at `latency(stage, class) / 2` (round-robin
    /// halves the per-replica arrival rate).
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid.
    pub fn evaluate_replicated(&self, plan: &ReplicatedPlan) -> Eval {
        assert!(self.is_valid_replicated(plan), "invalid replicated plan");
        let mut chunk_sums = Vec::new();
        for ch in self.chunks_unchecked(&plan.assignment) {
            if ch.class == REPLICA {
                chunk_sums.push(self.latency[plan.stage][plan.classes.0] / 2.0);
                chunk_sums.push(self.latency[plan.stage][plan.classes.1] / 2.0);
            } else {
                chunk_sums.push(self.sum_on(ch.class, &ch.stages));
            }
        }
        Eval::new(plan.assignment.clone(), chunk_sums)
    }

    /// Exhaustive search for the best replication of `stage`: every
    /// exclusive class pair × every valid assignment of the remaining
    /// stages to the remaining classes. Returns the first plan in
    /// `(T_max, gapness, assignment, classes)` order, or `None` if no
    /// configuration is feasible.
    pub fn best_replication(&self, stage: usize) -> Option<ReplicatedPlan> {
        if stage >= self.stages() {
            return None;
        }
        let allowed: Vec<usize> = (0..self.classes()).filter(|&c| self.allowed[c]).collect();
        let mut rest = Vec::with_capacity(allowed.len());
        // The incumbent with its gapness.
        let mut best: Option<(f64, ReplicatedPlan)> = None;
        // A plan's `t_max` is at least its largest generated sum: above
        // the incumbent's, it cannot win.
        let cutoff_of = |best: &Option<(f64, ReplicatedPlan)>| {
            best.as_ref().map_or(f64::INFINITY, |(_, plan)| plan.t_max)
        };
        for (i, &c1) in allowed.iter().enumerate() {
            for &c2 in &allowed[i + 1..] {
                rest.clear();
                rest.extend(allowed.iter().filter(|&&c| c != c1 && c != c2));
                // Round-robin halves each replica's arrival rate.
                let halves = [c1, c2].map(|c| self.latency[stage][c] / 2.0);
                let cutoff = cutoff_of(&best);
                generate(self, &rest, Some(stage), cutoff, &mut |assignment, sums| {
                    let (hi, lo) = extremes(sums);
                    let t_max = hi.max(halves[0]).max(halves[1]);
                    let gapness = t_max - lo.min(halves[0]).min(halves[1]);
                    let beaten = |(g, plan): &(f64, ReplicatedPlan)| {
                        (t_max.total_cmp(&plan.t_max))
                            .then_with(|| gapness.total_cmp(g))
                            .then_with(|| assignment.cmp(&plan.assignment))
                            .then_with(|| (c1, c2).cmp(&plan.classes))
                            .is_lt()
                    };
                    if best.as_ref().is_none_or(beaten) {
                        let (classes, assignment) = ((c1, c2), assignment.to_vec());
                        let plan = ReplicatedPlan {
                            stage,
                            classes,
                            assignment,
                            t_max,
                        };
                        best = Some((gapness, plan));
                    }
                    cutoff_of(&best)
                });
            }
        }
        best.map(|(_, plan)| plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The perception-style fork/join: 0 → {1 → 2, 3 → 4} → 5 → 6.
    fn fork_join_dag() -> StageDag {
        StageDag::new(
            7,
            vec![(0, 1), (0, 3), (1, 2), (3, 4), (2, 5), (4, 5), (5, 6)],
        )
        .unwrap()
    }

    /// 3 stages × 2 classes with obvious structure.
    fn small() -> DagProblem {
        DagProblem::chain(vec![
            vec![10.0, 100.0],
            vec![100.0, 10.0],
            vec![10.0, 100.0],
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_dags() {
        assert!(matches!(
            StageDag::new(2, vec![(0, 2)]),
            Err(ProblemError::EdgeOutOfRange { edge: (0, 2) })
        ));
        assert!(matches!(
            StageDag::new(2, vec![(0, 1), (1, 0)]),
            Err(ProblemError::Cyclic)
        ));
        assert!(matches!(
            StageDag::new(65, vec![]),
            Err(ProblemError::TooManyStages {
                stages: 65,
                max: 64
            })
        ));
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(matches!(
            DagProblem::chain(vec![]),
            Err(ProblemError::BadShape)
        ));
        assert!(matches!(
            DagProblem::chain(vec![vec![1.0], vec![1.0, 2.0]]),
            Err(ProblemError::BadShape)
        ));
        assert!(matches!(
            DagProblem::chain(vec![vec![1.0, -2.0]]),
            Err(ProblemError::BadLatency { stage: 0, class: 1 })
        ));
        assert!(matches!(
            DagProblem::new(vec![vec![1.0]; 3], StageDag::chain(2).unwrap()),
            Err(ProblemError::StageMismatch { table: 3, dag: 2 })
        ));
        assert!(matches!(
            DagProblem::chain(vec![vec![1.0]; 65]),
            Err(ProblemError::TooManyStages { stages: 65, .. })
        ));
    }

    /// Off a path the window bounds range over 2ⁿ subset sums: more than
    /// 20 stages are a typed error at construction, not a panic at the
    /// first SAT query. A path has no such limit.
    #[test]
    fn stage_limit_depends_on_shape() {
        let fork_join = |n: usize| {
            // 0 → {1, …, n−2} → n−1.
            let deps = (1..n - 1).flat_map(|s| [(0, s), (s, n - 1)]).collect();
            DagProblem::new(vec![vec![1.0, 2.0]; n], StageDag::new(n, deps).unwrap())
        };
        assert!(fork_join(20).is_ok());
        assert!(matches!(
            fork_join(21),
            Err(ProblemError::TooManyStages {
                stages: 21,
                max: 20
            })
        ));
        let lat: Vec<Vec<f64>> = (0..30)
            .map(|s| vec![1.0 + f64::from(s % 7), 9.0 - f64::from(s % 5)])
            .collect();
        let chain = DagProblem::chain(lat).unwrap();
        let (sat, a) = chain.min_latency(&[]).expect("feasible");
        assert!(chain.is_valid(&a));
        assert_eq!(chain.min_latency_exact().map(|(t, _)| t), Some(sat));
        assert_eq!(chain.latency_candidates(3).len(), 3);
    }

    #[test]
    fn validity_checks_contiguity() {
        let p = small();
        assert!(p.is_valid(&[0, 0, 0]));
        assert!(p.is_valid(&[0, 1, 1]));
        assert!(!p.is_valid(&[0, 1, 0]), "class 0 reappears");
        assert!(!p.is_valid(&[0, 1]), "wrong length");
        assert!(!p.is_valid(&[0, 2, 2]), "class out of range");
    }

    #[test]
    fn evaluate_computes_chunk_sums_and_extremes() {
        let p = small();
        assert_eq!(p.evaluate(&[0, 0, 0]).chunk_sums, vec![120.0]);
        assert_eq!(p.evaluate(&[0, 1, 1]).chunk_sums, vec![10.0, 110.0]);
        assert_eq!(p.evaluate(&[0, 0, 1]).chunk_sums, vec![110.0, 100.0]);
        let p = DagProblem::chain(vec![vec![5.0, 1.0]; 3]).unwrap();
        let e = p.evaluate(&[0, 1, 1]);
        assert_eq!(e.chunk_sums, vec![5.0, 2.0]);
        assert_eq!((e.t_max, e.t_min, e.gapness()), (5.0, 2.0, 3.0));
    }

    #[test]
    fn path_recognition() {
        assert!(StageDag::chain(5).unwrap().is_path() && StageDag::chain(1).unwrap().is_path());
        assert!(!fork_join_dag().is_path());
        // A relabelled chain is not a path in index order.
        assert!(!StageDag::new(3, vec![(2, 0), (0, 1)]).unwrap().is_path());
        // Octree-style total order: linear even with extra edges.
        let octree = StageDag::new(
            7,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (2, 6),
                (3, 6),
                (5, 6),
            ],
        )
        .unwrap();
        assert!(octree.is_path());
    }

    #[test]
    fn cross_branch_packing_is_valid_only_on_the_dag() {
        // Pack the two branch heads {1, 3} and the two branch tails
        // {2, 4} onto shared classes: under the chain order 0..=6 both
        // classes "reappear" and C2 rejects; the DAG knows sibling
        // branches are incomparable, so the packing is convex.
        let lat = vec![vec![1.0, 1.0, 1.0, 1.0]; 7];
        let dag = DagProblem::new(lat.clone(), fork_join_dag()).unwrap();
        let chain = DagProblem::chain(lat).unwrap();
        let packing = vec![0, 1, 2, 1, 2, 3, 3];
        assert!(!chain.is_valid(&packing), "chain C2 must reject");
        assert!(dag.is_valid(&packing), "DAG convexity must accept");
        // But a genuine path hole is still rejected: 0 and 2 on one class
        // with the between stage 1 elsewhere.
        assert!(!dag.is_valid(&[0, 1, 0, 1, 1, 1, 1]));
        // And a chunk spanning the fork/join must absorb *both* branches:
        // {0, 5} with any branch stage elsewhere is non-convex.
        assert!(!dag.is_valid(&[0, 1, 1, 2, 2, 0, 0]));
    }

    #[test]
    fn chunk_cycle_rejected() {
        // a1=0, b1=1, b2=2, a2=3; edges a1→b1, b2→a2 plus branch-internal
        // edges keep every same-chunk pair incomparable, yet chunks
        // A = {0, 3}, B = {1, 2} form a quotient cycle.
        let dag = StageDag::new(4, vec![(0, 1), (2, 3)]).unwrap();
        let p = DagProblem::new(vec![vec![1.0, 1.0]; 4], dag).unwrap();
        let a = vec![0, 1, 1, 0];
        // Convex (0 and 3 are incomparable, as are 1 and 2) …
        let (hulls, chunks) = p.hulls(&a);
        assert!(chunks == 2 && hulls[..chunks].iter().all(|h| h.holes() == 0));
        // … but the chunk graph cycles, so the schedule is invalid.
        assert!(!p.is_valid(&a));
    }

    #[test]
    fn chunks_of_chain_in_pipeline_order() {
        let p = DagProblem::chain(vec![vec![1.0, 2.0]; 4]).unwrap();
        let chunks = p.chunks_unchecked(&[0, 0, 1, 1]);
        assert_eq!(chunks.len(), 2);
        assert_eq!(
            chunks[0],
            DagChunk {
                class: 0,
                stages: vec![0, 1]
            }
        );
        assert_eq!(
            chunks[1],
            DagChunk {
                class: 1,
                stages: vec![2, 3]
            }
        );
    }

    #[test]
    fn dag_beats_best_chain_schedule_when_packing_matters() {
        // Branch stages 2 and 4 are cheap on class 2; the heavies want
        // dedicated PUs. The chain can't give {2, 4} a shared class
        // without also absorbing stage 3.
        let lat = vec![
            vec![4.0, 50.0, 50.0], // 0: cheap on 0
            vec![50.0, 5.0, 50.0], // 1: cheap on 1
            vec![50.0, 50.0, 3.0], // 2: cheap on 2
            vec![5.0, 50.0, 50.0], // 3: cheap on 0
            vec![50.0, 50.0, 3.0], // 4: cheap on 2
            vec![1.0, 1.0, 1.0],   // 5
            vec![1.0, 1.0, 1.0],   // 6
        ];
        let dag = DagProblem::new(lat.clone(), fork_join_dag()).unwrap();
        let chain = DagProblem::chain(lat).unwrap();
        let (dag_t, dag_a) = dag.min_latency_exact().expect("feasible");
        let (chain_t, _) = chain.min_latency(&[]).expect("feasible");
        assert!(
            dag_t < chain_t - 1e-9,
            "DAG {dag_t} should beat chain {chain_t}"
        );
        assert!(dag.is_valid(&dag_a));
    }

    #[test]
    fn sat_matches_exact_enumerator_on_fork_join() {
        let lat = vec![
            vec![4.0, 9.0, 7.0],
            vec![12.0, 3.0, 8.0],
            vec![6.0, 11.0, 2.0],
            vec![3.0, 7.0, 10.0],
            vec![9.0, 2.0, 5.0],
            vec![2.0, 4.0, 3.0],
            vec![5.0, 6.0, 1.0],
        ];
        let p = DagProblem::new(lat, fork_join_dag()).unwrap();
        let (t_sat, a_sat) = p.min_latency(&[]).expect("sat feasible");
        let (t_exact, _) = p.min_latency_exact().expect("exact feasible");
        assert!(
            (t_sat - t_exact).abs() < 1e-9,
            "sat {t_sat} vs exact {t_exact}"
        );
        assert!(p.is_valid(&a_sat));
    }

    #[test]
    fn candidates_distinct_valid_and_ordered() {
        let lat = vec![
            vec![3.0, 8.0],
            vec![7.0, 2.0],
            vec![4.0, 6.0],
            vec![5.0, 3.0],
        ];
        let dag = StageDag::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let p = DagProblem::new(lat, dag).unwrap();
        let cands = p.latency_candidates(8);
        assert!(cands.len() >= 4);
        for (i, (t, a)) in cands.iter().enumerate() {
            assert!(p.is_valid(a));
            assert!((p.evaluate(a).t_max - t).abs() < 1e-9);
            for (_, b) in &cands[i + 1..] {
                assert_ne!(a, b);
            }
        }
        for w in cands.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-9);
        }
    }

    #[test]
    fn max_chunks_cap_respected() {
        let lat = vec![
            vec![1.0, 10.0, 10.0],
            vec![10.0, 1.0, 10.0],
            vec![10.0, 10.0, 1.0],
        ];
        let p = DagProblem::chain(lat).unwrap().with_max_chunks(2).unwrap();
        assert!(matches!(
            p.clone().with_max_chunks(0),
            Err(ProblemError::NoChunkAllowed)
        ));
        crate::enumerate::for_each_schedule(&p, |a, sums| {
            let distinct: std::collections::BTreeSet<_> = a.iter().collect();
            assert!(distinct.len() <= 2 && sums.len() == distinct.len(), "{a:?}");
        });
        let (_, a) = p.min_latency(&[]).unwrap();
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() <= 2);
    }

    #[test]
    fn replication_halves_the_bottleneck() {
        // Stage 1 dominates everywhere; splitting it across any class pair
        // must beat every unreplicated schedule. Four classes, because the
        // replica is a convexity barrier: its chain neighbours need two
        // distinct classes on top of the exclusive pair.
        let lat = vec![
            vec![2.0, 20.0, 20.0, 20.0],
            vec![40.0, 40.0, 40.0, 40.0],
            vec![20.0, 20.0, 20.0, 2.0],
        ];
        let p = DagProblem::chain(lat).unwrap();
        let (t_plain, _) = p.min_latency_exact().expect("feasible");
        assert!((t_plain - 40.0).abs() < 1e-9, "stage 1 bottlenecks at 40");
        let plan = p.best_replication(1).expect("replication feasible");
        assert!(p.is_valid_replicated(&plan));
        let eval = p.evaluate_replicated(&plan);
        assert!((eval.t_max - plan.t_max).abs() < 1e-12);
        assert!(
            plan.t_max < t_plain - 1e-9,
            "replicated {} vs plain {t_plain}",
            plan.t_max
        );
        // Replica chunks priced at half service: 40 / 2 per replica.
        assert_eq!(plan.stage, 1);
        assert!((plan.t_max - 20.0).abs() < 1e-9);
        assert!(eval.chunk_sums.contains(&20.0));
    }

    /// Every plan here bottlenecks on the replica halves (20), so the
    /// gapness decides — and the best gapness has the lexicographically
    /// *larger* assignment, which a tie-break on `T_max` alone used to
    /// let the smaller one displace.
    #[test]
    fn replication_ranks_by_one_total_order() {
        let lat = vec![
            vec![2.0, 10.0, 5.0, 5.0],
            vec![40.0, 40.0, 40.0, 40.0],
            vec![10.0, 2.0, 5.0, 5.0],
        ];
        let p = DagProblem::chain(lat).unwrap();
        let plan = p.best_replication(1).expect("feasible");
        assert_eq!((plan.t_max, plan.classes), (20.0, (2, 3)));
        assert_eq!(plan.assignment, vec![1, REPLICA, 0]);
        assert_eq!(p.evaluate_replicated(&plan).gapness(), 10.0);
    }

    #[test]
    fn replication_respects_exclusivity() {
        let lat = vec![vec![5.0, 5.0]; 3];
        let p = DagProblem::chain(lat).unwrap();
        // Two classes, three stages: replicating the middle stage leaves
        // no class for its neighbours.
        assert!(p.best_replication(1).is_none());
        let bad = ReplicatedPlan {
            stage: 1,
            classes: (0, 1),
            assignment: vec![0, REPLICA, 1],
            t_max: 0.0,
        };
        assert!(
            !p.is_valid_replicated(&bad),
            "pair classes must be exclusive"
        );
    }

    #[test]
    fn single_stage_dag() {
        let p = DagProblem::chain(vec![vec![5.0, 3.0]]).unwrap();
        let (t, a) = p.min_latency(&[]).unwrap();
        assert_eq!(a, vec![1]);
        assert!((t - 3.0).abs() < 1e-9);
        let (g, _) = p.min_gapness().unwrap();
        assert_eq!(g, 0.0);
        // Both replicas run: the bottleneck is the slower half, 5 / 2.
        let plan = p.best_replication(0).expect("single stage replicates");
        assert!((plan.t_max - 2.5).abs() < 1e-9);
    }
}
