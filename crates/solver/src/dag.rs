//! DAG generalization of the schedule encoding (ROADMAP item 3).
//!
//! The chain encoding in [`crate::ScheduleProblem`] assumes stages form a
//! total order, which makes contiguity (C2) an interval condition. This
//! module lifts the model to fork/join DAGs:
//!
//! - **C1** is unchanged: exactly one PU class per stage (a *replicated*
//!   stage instead gets an exclusive class pair, below).
//! - **C2 → path-convexity**: the stages of one class must not leave a
//!   "hole" on any dependency path. For every dependency-ordered pair
//!   `(u, v)` on class `c`, every stage `w` with `u ⇝ w ⇝ v` must also be
//!   on `c`. On a chain this is exactly interval contiguity; on a DAG it
//!   still allows one class to pack *incomparable* stages from sibling
//!   branches — the packing freedom linearization destroys.
//! - **Chunk-graph acyclicity**: one PU serves all stages of a class
//!   run-to-completion per task, so the quotient graph over class chunks
//!   must be acyclic for tokens to flow forward. (Convexity alone does not
//!   imply this; see `chunk_graph_acyclic`.)
//! - **C3 windows and the chunk cap** are enforced lazily (CEGAR): the SAT
//!   core carries C1 + convexity + one-stage window prunes, and a decoded
//!   model outside the window is refuted by the clause that explains its
//!   over- or under-full chunk (a quotient cycle or cap overrun blocks
//!   that one model). The exact enumerator
//!   ([`DagProblem::latency_candidates_exact`]) is the oracle the SAT path
//!   is property-tested against, mirroring the chain setup.
//! - **Replication**: one bottleneck stage may be split across an
//!   exclusive pair of classes; each replica serves every other task, so
//!   its chunk sum is half the stage latency on its class. Downstream, a
//!   deterministic round-robin merge restores task order.
//!
//! Chain-shaped DAGs reduce bit-for-bit to the chain encoding: convexity
//! degenerates to interval contiguity and every chunk sum is the same
//! prefix-difference the chain problem computes.

use crate::tiers::{LatencyEnumerator, TierSearch, Tiered, EPS};
use crate::{Assignment, ProblemError, ScheduleProblem};

/// Sentinel class index marking the replicated stage inside a
/// [`ReplicatedPlan`] assignment.
pub const REPLICA: usize = usize::MAX;

/// Errors constructing a [`StageDag`] or [`DagProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// An edge references a stage index out of range.
    EdgeOutOfRange {
        /// The offending edge.
        edge: (usize, usize),
    },
    /// The dependency graph contains a cycle.
    Cyclic,
    /// More stages than the 64 the reachability bitmasks support.
    TooManyStages {
        /// The offending stage count.
        stages: usize,
    },
    /// The latency table does not match the DAG's stage count, or is
    /// otherwise malformed.
    Base(ProblemError),
    /// Latency table rows differ from the DAG's stage count.
    StageMismatch {
        /// Rows in the latency table.
        table: usize,
        /// Stages in the DAG.
        dag: usize,
    },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::EdgeOutOfRange { edge } => {
                write!(
                    f,
                    "edge ({}, {}) references an unknown stage",
                    edge.0, edge.1
                )
            }
            DagError::Cyclic => f.write_str("stage dependency graph contains a cycle"),
            DagError::TooManyStages { stages } => {
                write!(f, "{stages} stages exceed the supported maximum of 64")
            }
            DagError::Base(e) => write!(f, "{e}"),
            DagError::StageMismatch { table, dag } => {
                write!(
                    f,
                    "latency table has {table} rows but the DAG has {dag} stages"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}

impl From<ProblemError> for DagError {
    fn from(e: ProblemError) -> DagError {
        DagError::Base(e)
    }
}

/// A stage-dependency DAG with its reachability closure precomputed —
/// the solver-side mirror of `bt_kernels::TaskGraph` (kept dependency-free
/// on purpose: the solver only sees indices and latencies).
#[derive(Debug, Clone)]
pub struct StageDag {
    n: usize,
    deps: Vec<(usize, usize)>,
    /// Deterministic topological order (Kahn, lowest-index-first).
    topo: Vec<usize>,
    /// Bit `j` of `reach[i]`: a path with ≥ 1 edge leads from `i` to `j`.
    reach: Vec<u64>,
}

impl StageDag {
    /// Builds a DAG over `n` stages from dependency edges `(from, to)`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError`] on out-of-range edges, cycles, or `n > 64`.
    pub fn new(n: usize, deps: Vec<(usize, usize)>) -> Result<StageDag, DagError> {
        if n > 64 {
            return Err(DagError::TooManyStages { stages: n });
        }
        for &edge in &deps {
            if edge.0 >= n || edge.1 >= n {
                return Err(DagError::EdgeOutOfRange { edge });
            }
        }
        // Kahn's algorithm with lowest-index-first tie-breaking, matching
        // TaskGraph::linearize.
        let mut indegree = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in &deps {
            indegree[to] += 1;
            out[from].push(to);
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            topo.push(i);
            for &j in &out[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(std::cmp::Reverse(j));
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cyclic);
        }
        let mut reach = vec![0u64; n];
        for &i in topo.iter().rev() {
            let mut m = 0u64;
            for &j in &out[i] {
                m |= (1u64 << j) | reach[j];
            }
            reach[i] = m;
        }
        Ok(StageDag {
            n,
            deps,
            topo,
            reach,
        })
    }

    /// The linear chain over `n` stages.
    pub fn chain(n: usize) -> StageDag {
        StageDag::new(n, (1..n).map(|i| (i - 1, i)).collect()).expect("chains are acyclic")
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the DAG has no stages.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The dependency edges.
    pub fn deps(&self) -> &[(usize, usize)] {
        &self.deps
    }

    /// The deterministic topological order.
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// Whether a path with at least one edge leads from `u` to `v`.
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        self.reach[u] >> v & 1 == 1
    }

    /// Whether the DAG is a chain up to relabeling — every consecutive
    /// pair of the topological order is dependency-ordered, so the chain
    /// encoding loses nothing.
    pub fn is_chain(&self) -> bool {
        self.topo.windows(2).all(|w| self.reaches(w[0], w[1]))
    }
}

/// One chunk of a DAG schedule: all stages one PU class hosts, served by a
/// single PU in topological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagChunk {
    /// Hosting class, or [`REPLICA`] for a replicated stage's chunks.
    pub class: usize,
    /// Member stages in topological order.
    pub stages: Vec<usize>,
}

/// Evaluation of a valid DAG assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DagEval {
    /// Stage → class assignment.
    pub assignment: Assignment,
    /// Per-chunk latency sums, in chunk order ([`DagProblem::chunks_of`]).
    pub chunk_sums: Vec<f64>,
    /// Bottleneck chunk sum (predicted steady-state time per task).
    pub t_max: f64,
    /// Smallest chunk sum.
    pub t_min: f64,
}

impl DagEval {
    /// Gapness (`T_max − T_min`), the paper's O1 objective.
    pub fn gapness(&self) -> f64 {
        self.t_max - self.t_min
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

/// A schedule-optimization instance over a stage DAG: the chain problem's
/// latency table plus the dependency structure.
#[derive(Debug, Clone)]
pub struct DagProblem {
    base: ScheduleProblem,
    dag: StageDag,
}

impl DagProblem {
    /// Creates a DAG problem from a `stages × classes` latency table and
    /// the stage DAG.
    ///
    /// # Errors
    ///
    /// Returns [`DagError`] if the table is malformed or does not match
    /// the DAG.
    pub fn new(latency: Vec<Vec<f64>>, dag: StageDag) -> Result<DagProblem, DagError> {
        if latency.len() != dag.len() {
            return Err(DagError::StageMismatch {
                table: latency.len(),
                dag: dag.len(),
            });
        }
        let base = ScheduleProblem::new(latency)?;
        Ok(DagProblem { base, dag })
    }

    /// Restricts which classes may host chunks.
    ///
    /// # Errors
    ///
    /// Propagates [`ProblemError`] from the chain problem.
    pub fn with_allowed(mut self, allowed: Vec<bool>) -> Result<DagProblem, DagError> {
        self.base = self.base.with_allowed(allowed)?;
        Ok(self)
    }

    /// Caps the number of chunks (distinct classes used).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_max_chunks(mut self, k: usize) -> DagProblem {
        self.base = self.base.with_max_chunks(k);
        self
    }

    /// Selects the SAT engine CEGAR window probes run on (default
    /// [`crate::Engine::Cdcl`]).
    pub fn with_engine(mut self, engine: crate::Engine) -> DagProblem {
        self.base = self.base.with_engine(engine);
        self
    }

    /// The underlying chain problem (latency table + permissions).
    pub fn base(&self) -> &ScheduleProblem {
        &self.base
    }

    /// The stage DAG.
    pub fn dag(&self) -> &StageDag {
        &self.dag
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.base.stages()
    }

    /// Number of PU classes.
    pub fn classes(&self) -> usize {
        self.base.classes()
    }

    /// Whether every path-ordered same-class pair has all its between
    /// stages on that class (the generalized C2). `REPLICA` entries count
    /// as their own exclusive pseudo-class, so a replicated stage is a
    /// convexity barrier.
    fn convex(&self, assignment: &[usize]) -> bool {
        let n = self.stages();
        for u in 0..n {
            for v in 0..n {
                if assignment[u] != assignment[v] || !self.dag.reaches(u, v) {
                    continue;
                }
                for w in 0..n {
                    if self.dag.reaches(u, w)
                        && self.dag.reaches(w, v)
                        && assignment[w] != assignment[u]
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Whether the quotient graph over chunks is acyclic — required for
    /// run-to-completion chunk service. Convexity alone does not give
    /// this: with chunks A = {a1, a2}, B = {b1, b2} and edges a1→b1,
    /// b2→a2 (all four incomparable pairwise within their chunk), both
    /// chunks are convex yet A→B→A cycles.
    fn chunk_graph_acyclic(&self, chunk_of: &[usize], chunks: usize) -> bool {
        let mut edges: Vec<(usize, usize)> = self
            .dag
            .deps()
            .iter()
            .filter_map(|&(u, v)| {
                let (cu, cv) = (chunk_of[u], chunk_of[v]);
                (cu != cv).then_some((cu, cv))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut indegree = vec![0usize; chunks];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); chunks];
        for &(a, b) in &edges {
            indegree[b] += 1;
            out[a].push(b);
        }
        let mut ready: Vec<usize> = (0..chunks).filter(|&c| indegree[c] == 0).collect();
        let mut seen = 0;
        while let Some(c) = ready.pop() {
            seen += 1;
            for &d in &out[c] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    ready.push(d);
                }
            }
        }
        seen == chunks
    }

    /// Maps each stage to its chunk id; chunk ids are assigned by first
    /// appearance in topological order (so chains get pipeline order).
    /// Stages share a chunk iff they share a class; each `REPLICA` stage
    /// is its own chunk.
    fn chunk_ids(&self, assignment: &[usize]) -> (Vec<usize>, usize) {
        let n = self.stages();
        let mut chunk_of = vec![usize::MAX; n];
        let mut class_chunk = vec![usize::MAX; self.classes()];
        let mut next = 0usize;
        for &s in self.dag.topo_order() {
            let c = assignment[s];
            if c == REPLICA {
                chunk_of[s] = next;
                next += 1;
            } else if class_chunk[c] == usize::MAX {
                class_chunk[c] = next;
                chunk_of[s] = next;
                next += 1;
            } else {
                chunk_of[s] = class_chunk[c];
            }
        }
        (chunk_of, next)
    }

    /// Core validity: C1 range/permissions, convexity, chunk cap, and
    /// chunk-graph acyclicity. `replica` marks the stage allowed to carry
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
            } else if c >= self.classes() || !self.base.is_allowed(c) {
                return false;
            }
        }
        if let Some(r) = replica {
            if assignment[r] != REPLICA {
                return false;
            }
        }
        if !self.convex(assignment) {
            return false;
        }
        let (chunk_of, chunks) = self.chunk_ids(assignment);
        if let Some(k) = self.base.max_chunks() {
            // A replicated stage occupies two PUs (two replica chunks).
            let weight = chunks + usize::from(replica.is_some());
            if weight > k {
                return false;
            }
        }
        self.chunk_graph_acyclic(&chunk_of, chunks)
    }

    /// Whether `assignment` is a valid (unreplicated) DAG schedule.
    pub fn is_valid(&self, assignment: &[usize]) -> bool {
        self.validate(assignment, None)
    }

    /// The chunks of a valid assignment, in chunk-id (first topological
    /// appearance) order — pipeline order on chains.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is invalid.
    pub fn chunks_of(&self, assignment: &[usize]) -> Vec<DagChunk> {
        assert!(self.is_valid(assignment), "invalid DAG assignment");
        self.chunks_unchecked(assignment)
    }

    fn chunks_unchecked(&self, assignment: &[usize]) -> Vec<DagChunk> {
        let (chunk_of, chunks) = self.chunk_ids(assignment);
        let mut out = vec![
            DagChunk {
                class: usize::MAX,
                stages: Vec::new(),
            };
            chunks
        ];
        for &s in self.dag.topo_order() {
            let id = chunk_of[s];
            out[id].class = assignment[s];
            out[id].stages.push(s);
        }
        out
    }

    /// What `stages` (in topological order) cost together on `class`.
    fn sum_on(&self, class: usize, stages: &[usize]) -> f64 {
        stages.iter().map(|&s| self.base.latency(s, class)).sum()
    }

    /// Evaluates a valid assignment: per-chunk sums and the bottleneck.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is invalid.
    pub fn evaluate(&self, assignment: &[usize]) -> DagEval {
        assert!(self.is_valid(assignment), "invalid DAG assignment");
        let chunk_sums: Vec<f64> = self
            .chunks_unchecked(assignment)
            .iter()
            .map(|ch| self.sum_on(ch.class, &ch.stages))
            .collect();
        let t_max = chunk_sums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let t_min = chunk_sums.iter().copied().fold(f64::INFINITY, f64::min);
        DagEval {
            assignment: assignment.to_vec(),
            chunk_sums,
            t_max,
            t_min,
        }
    }

    /// Calls `f` for every valid assignment (odometer over allowed
    /// classes, validity-filtered) — the exact enumerator and the oracle
    /// for the SAT path. Exponential in stages; paper pipelines are ≤ 9.
    pub fn for_each_valid<F: FnMut(&[usize])>(&self, mut f: F) {
        let n = self.stages();
        let allowed: Vec<usize> = (0..self.classes())
            .filter(|&c| self.base.is_allowed(c))
            .collect();
        if allowed.is_empty() || n == 0 {
            return;
        }
        let mut idx = vec![0usize; n];
        let mut assignment: Vec<usize> = vec![allowed[0]; n];
        loop {
            if self.is_valid(&assignment) {
                f(&assignment);
            }
            // Odometer increment.
            let mut s = 0;
            loop {
                if s == n {
                    return;
                }
                idx[s] += 1;
                if idx[s] < allowed.len() {
                    assignment[s] = allowed[idx[s]];
                    break;
                }
                idx[s] = 0;
                assignment[s] = allowed[0];
                s += 1;
            }
        }
    }

    /// Exact minimum-bottleneck schedule by enumeration; ties broken by
    /// gapness then lexicographic assignment (deterministic).
    pub fn min_latency_exact(&self) -> Option<(f64, Assignment)> {
        let mut best: Option<DagEval> = None;
        self.for_each_valid(|a| {
            let eval = self.evaluate(a);
            let better = match &best {
                None => true,
                Some(b) => {
                    (eval.t_max, eval.gapness(), &eval.assignment)
                        < (b.t_max, b.gapness(), &b.assignment)
                }
            };
            if better {
                best = Some(eval);
            }
        });
        best.map(|e| (e.t_max, e.assignment))
    }

    /// Up to `k` distinct schedules in non-decreasing `(T_max, gapness,
    /// lex)` order — the exact counterpart of the chain enumerator's
    /// candidate list.
    pub fn latency_candidates_exact(&self, k: usize) -> Vec<DagEval> {
        let mut all: Vec<DagEval> = Vec::new();
        self.for_each_valid(|a| all.push(self.evaluate(a)));
        all.sort_by(|x, y| {
            x.t_max
                .total_cmp(&y.t_max)
                .then(x.gapness().total_cmp(&y.gapness()))
                .then(x.assignment.cmp(&y.assignment))
        });
        all.truncate(k);
        all
    }

    /// Solves the DAG window decision problem `D(lo, hi)` excluding
    /// `blocked` schedules: CEGAR over the SAT core, every decoded model
    /// that fails the window or full validation refuted by an explanation
    /// until a genuine solution (or UNSAT) is reached.
    pub fn solve_window(&self, lo: f64, hi: f64, blocked: &[Assignment]) -> Option<Assignment> {
        TierSearch::new(self, blocked).solve_window(self, lo, hi)
    }

    /// Minimizes the bottleneck chunk sum by binary search over the tiers
    /// of one session — the SAT-engine optimum the exact enumerator is
    /// cross-checked against.
    ///
    /// # Panics
    ///
    /// Panics if the problem has more than 20 stages.
    pub fn min_latency(&self, blocked: &[Assignment]) -> Option<(f64, Assignment)> {
        TierSearch::new(self, blocked).min_latency(self)
    }

    /// Up to `k` distinct schedules in non-decreasing predicted-latency
    /// order via blocking clauses on one session.
    pub fn latency_candidates(&self, k: usize) -> Vec<(f64, Assignment)> {
        self.latency_enumerator(0.0).take(k).collect()
    }

    /// An incremental enumerator over the schedules with
    /// `T_min ≥ fill · T_max`, in non-decreasing predicted-latency order.
    pub fn latency_enumerator(&self, fill: f64) -> LatencyEnumerator {
        LatencyEnumerator::new(Box::new(self.clone()), fill)
    }

    /// Whether `plan`'s assignment (with its `REPLICA` marker) is a valid
    /// replicated schedule: the pair's classes are exclusive to the
    /// replicated stage, everything else is a valid DAG schedule with the
    /// replica as a convexity barrier.
    pub fn is_valid_replicated(&self, plan: &ReplicatedPlan) -> bool {
        let (c1, c2) = plan.classes;
        if c1 == c2
            || c1 >= self.classes()
            || c2 >= self.classes()
            || !self.base.is_allowed(c1)
            || !self.base.is_allowed(c2)
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
    pub fn evaluate_replicated(&self, plan: &ReplicatedPlan) -> DagEval {
        assert!(self.is_valid_replicated(plan), "invalid replicated plan");
        let mut chunk_sums = Vec::new();
        for ch in self.chunks_unchecked(&plan.assignment) {
            if ch.class == REPLICA {
                chunk_sums.push(self.base.latency(plan.stage, plan.classes.0) / 2.0);
                chunk_sums.push(self.base.latency(plan.stage, plan.classes.1) / 2.0);
            } else {
                chunk_sums.push(self.sum_on(ch.class, &ch.stages));
            }
        }
        let t_max = chunk_sums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let t_min = chunk_sums.iter().copied().fold(f64::INFINITY, f64::min);
        DagEval {
            assignment: plan.assignment.clone(),
            chunk_sums,
            t_max,
            t_min,
        }
    }

    /// Exhaustive search for the best replication of `stage`: every
    /// exclusive class pair × every valid assignment of the remaining
    /// stages. Returns the plan minimizing the bottleneck (ties broken
    /// deterministically), or `None` if no configuration is feasible.
    pub fn best_replication(&self, stage: usize) -> Option<ReplicatedPlan> {
        if stage >= self.stages() {
            return None;
        }
        let allowed: Vec<usize> = (0..self.classes())
            .filter(|&c| self.base.is_allowed(c))
            .collect();
        let mut best: Option<(f64, ReplicatedPlan)> = None;
        for (i, &c1) in allowed.iter().enumerate() {
            for &c2 in &allowed[i + 1..] {
                let rest: Vec<usize> = allowed
                    .iter()
                    .copied()
                    .filter(|&c| c != c1 && c != c2)
                    .collect();
                if rest.is_empty() && self.stages() > 1 {
                    continue;
                }
                self.for_each_replicated(stage, &rest, |assignment| {
                    let plan = ReplicatedPlan {
                        stage,
                        classes: (c1, c2),
                        assignment: assignment.to_vec(),
                        t_max: 0.0,
                    };
                    if !self.is_valid_replicated(&plan) {
                        return;
                    }
                    let eval = self.evaluate_replicated(&plan);
                    let key = (eval.t_max, eval.gapness());
                    let better = match &best {
                        None => true,
                        Some((bt, bp)) => {
                            key < (*bt, {
                                let be = self.evaluate_replicated(bp);
                                be.gapness()
                            }) || (key.0 == *bt && plan.assignment < bp.assignment)
                        }
                    };
                    if better {
                        best = Some((
                            eval.t_max,
                            ReplicatedPlan {
                                t_max: eval.t_max,
                                ..plan
                            },
                        ));
                    }
                });
            }
        }
        best.map(|(_, p)| p)
    }

    /// Odometer over assignments where `stage` is pinned to `REPLICA` and
    /// every other stage ranges over `rest`.
    fn for_each_replicated<F: FnMut(&[usize])>(&self, stage: usize, rest: &[usize], mut f: F) {
        let n = self.stages();
        if rest.is_empty() {
            if n == 1 {
                f(&[REPLICA]);
            }
            return;
        }
        let free: Vec<usize> = (0..n).filter(|&s| s != stage).collect();
        let mut idx = vec![0usize; free.len()];
        let mut assignment = vec![rest[0]; n];
        assignment[stage] = REPLICA;
        loop {
            f(&assignment);
            let mut k = 0;
            loop {
                if k == free.len() {
                    return;
                }
                idx[k] += 1;
                if idx[k] < rest.len() {
                    assignment[free[k]] = rest[idx[k]];
                    break;
                }
                idx[k] = 0;
                assignment[free[k]] = rest[0];
                k += 1;
            }
        }
    }
}

impl Tiered for DagProblem {
    fn base(&self) -> &ScheduleProblem {
        &self.base
    }

    /// Per-class subset sums of allowed stages, accumulated in topological
    /// order like every chunk sum is — a superset of the achievable chunk
    /// sums. Exponential in stages — fine at pipeline scale, guarded at 20.
    fn tier_sums(&self) -> Vec<f64> {
        assert!(
            self.stages() <= 20,
            "SAT tier search supports up to 20 stages (paper pipelines are ≤ 9)"
        );
        let mut sums = Vec::new();
        for c in (0..self.classes()).filter(|&c| self.base.is_allowed(c)) {
            let mut acc = vec![0.0f64];
            for &s in self.dag.topo_order() {
                let with: Vec<f64> = acc.iter().map(|&a| a + self.base.latency(s, c)).collect();
                acc.extend(with);
            }
            sums.extend(acc.into_iter().filter(|&s| s > 0.0));
        }
        sums.sort_by(f64::total_cmp);
        sums.dedup_by(|a, b| (*a - *b).abs() < EPS);
        sums
    }

    /// Path-convexity, and the one-stage chunks as window prunes. Chunk
    /// windows proper, the chunk cap and chunk-graph acyclicity arrive
    /// through [`Tiered::refute`].
    fn state(&self, search: &mut TierSearch) {
        let n = self.stages();
        // Generalized C2: for each dependency-ordered pair (u, v) and each
        // stage w strictly between them on some path,
        // (x[u][c] ∧ x[v][c]) → x[w][c].
        for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (u, v))) {
            for w in (0..n).filter(|&w| self.dag.reaches(u, w) && self.dag.reaches(w, v)) {
                for c in 0..self.classes() {
                    let (xu, xv, xw) = (search.x[u][c], search.x[v][c], search.x[w][c]);
                    search.solver.add_clause(&[xu.neg(), xv.neg(), xw.pos()]);
                }
            }
        }
        for s in 0..n {
            for c in (0..self.classes()).filter(|&c| self.base.is_allowed(c)) {
                search.forbid_over(c, std::iter::once(s), self.base.latency(s, c));
            }
        }
    }

    fn refute(&self, search: &mut TierSearch, model: &[usize], lo: usize, hi: usize) -> bool {
        if !self.is_valid(model) {
            // A quotient cycle or the chunk cap: no window admits it.
            search.block(model);
            return true;
        }
        let (floor, ceiling) = (search.sums[lo] - EPS, search.sums[hi] + EPS);
        let mut refuted = false;
        for DagChunk { class, mut stages } in self.chunks_unchecked(model) {
            let sum = self.sum_on(class, &stages);
            if sum > ceiling {
                // Drop every stage the rest stays over-full without: a
                // minimal over-full subset, still in topological order.
                let mut i = 0;
                while i < stages.len() {
                    let dropped = stages.remove(i);
                    if self.sum_on(class, &stages) <= ceiling {
                        stages.insert(i, dropped);
                        i += 1;
                    }
                }
                let sum = self.sum_on(class, &stages);
                search.forbid_over(class, stages.into_iter(), sum);
                refuted = true;
            } else if sum < floor {
                search.forbid_exactly(class, |s| model[s] == class, sum);
                refuted = true;
            }
        }
        refuted
    }

    fn t_max(&self, _: f64, model: &[usize]) -> f64 {
        self.evaluate(model).t_max
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

    #[test]
    fn rejects_bad_dags() {
        assert!(matches!(
            StageDag::new(2, vec![(0, 2)]),
            Err(DagError::EdgeOutOfRange { edge: (0, 2) })
        ));
        assert!(matches!(
            StageDag::new(2, vec![(0, 1), (1, 0)]),
            Err(DagError::Cyclic)
        ));
        assert!(matches!(
            StageDag::new(65, vec![]),
            Err(DagError::TooManyStages { stages: 65 })
        ));
    }

    #[test]
    fn chain_recognition() {
        assert!(StageDag::chain(5).is_chain());
        assert!(!fork_join_dag().is_chain());
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
        assert!(octree.is_chain());
    }

    #[test]
    fn chain_dag_matches_chain_problem_validity() {
        let lat = vec![vec![10.0, 100.0], vec![100.0, 10.0], vec![10.0, 100.0]];
        let chain = ScheduleProblem::new(lat.clone()).unwrap();
        let dag = DagProblem::new(lat, StageDag::chain(3)).unwrap();
        for a in [
            vec![0, 0, 0],
            vec![0, 1, 1],
            vec![0, 1, 0],
            vec![1, 0, 0],
            vec![1, 1, 0],
        ] {
            assert_eq!(chain.is_valid(&a), dag.is_valid(&a), "{a:?}");
        }
    }

    #[test]
    fn cross_branch_packing_is_valid_only_on_the_dag() {
        // Pack the two branch heads {1, 3} and the two branch tails
        // {2, 4} onto shared classes: under the chain order 0..=6 both
        // classes "reappear" and C2 rejects; the DAG knows sibling
        // branches are incomparable, so the packing is convex.
        let lat = vec![vec![1.0, 1.0, 1.0, 1.0]; 7];
        let dag = DagProblem::new(lat.clone(), fork_join_dag()).unwrap();
        let chain = ScheduleProblem::new(lat).unwrap();
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
        assert!(p.convex(&a));
        // … but the chunk graph cycles, so the schedule is invalid.
        assert!(!p.is_valid(&a));
    }

    #[test]
    fn chunks_of_chain_in_pipeline_order() {
        let p = DagProblem::new(vec![vec![1.0, 2.0]; 4], StageDag::chain(4)).unwrap();
        let chunks = p.chunks_of(&[0, 0, 1, 1]);
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
        let chain = ScheduleProblem::new(lat).unwrap();
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
        let dag = StageDag::chain(3);
        let p = DagProblem::new(lat, dag).unwrap().with_max_chunks(2);
        p.for_each_valid(|a| {
            let distinct: std::collections::BTreeSet<_> = a.iter().collect();
            assert!(distinct.len() <= 2, "{a:?}");
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
        let p = DagProblem::new(lat, StageDag::chain(3)).unwrap();
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

    #[test]
    fn replication_respects_exclusivity() {
        let lat = vec![vec![5.0, 5.0]; 3];
        let p = DagProblem::new(lat, StageDag::chain(3)).unwrap();
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
        let p = DagProblem::new(vec![vec![5.0, 3.0]], StageDag::chain(1)).unwrap();
        let (t, a) = p.min_latency(&[]).unwrap();
        assert_eq!(a, vec![1]);
        assert!((t - 3.0).abs() < 1e-9);
        // Both replicas run: the bottleneck is the slower half, 5 / 2.
        let plan = p.best_replication(0).expect("single stage replicates");
        assert!((plan.t_max - 2.5).abs() < 1e-9);
    }
}
