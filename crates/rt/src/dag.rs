//! DAG schedules: the fork/join generalization of [`Schedule`].
//!
//! A [`DagSchedule`] maps every stage of a fork/join application onto a PU
//! class, generalizing the paper's contiguity constraint (C2) from "one
//! contiguous index range per class" to *path-convexity*: on every
//! dependency path, the stages mapped to one class must be consecutive.
//! All stages of one class still form a single chunk served by one PU;
//! stages on parallel branches may share a class (the chunk serializes
//! them) or map to different classes (the branches run concurrently and
//! price interference against each other).
//!
//! One *bottleneck* stage may additionally be declared **replicated**
//! across two classes: both PUs serve the full stage, round-robin over the
//! task sequence (`seq % 2`), and the downstream join restores order. The
//! two replica classes are exclusive to that stage.
//!
//! Construction validates the whole structure — path-convexity, chunk-
//! quotient acyclicity, unique entry/exit chunks, replica well-formedness
//! — so every `DagSchedule` held by an executor or predictor is executable
//! as-is.
//!
//! Chunks are numbered by first appearance in [`TaskGraph::closure`]'s
//! order, the one the optimizer's `StageDag` also takes, so chunk `i` here
//! is chunk `i` of the solver's evaluation of the same assignment.

use core::fmt;

use alloc::format;
use alloc::string::String;
#[cfg(feature = "std")]
use alloc::string::ToString;
#[cfg(feature = "std")]
use alloc::vec;
use alloc::vec::Vec;

use crate::graph::{bits, CyclicGraphError, GraphMasks, TaskGraph, MAX_STAGES};
use crate::pu::PuClass;
use crate::schedule::Schedule;

/// Error constructing a [`DagSchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagScheduleError {
    /// No stages.
    Empty,
    /// Assignment length disagrees with the task graph.
    LengthMismatch {
        /// Stages in the task graph.
        stages: usize,
        /// Entries in the assignment.
        assignment: usize,
    },
    /// The task graph is not acyclic.
    Cyclic(CyclicGraphError),
    /// A class's stages are not consecutive along some dependency path
    /// (the DAG generalization of C2).
    NotPathConvex {
        /// The violating class.
        class: PuClass,
        /// A stage of another class sitting on a path between two stages
        /// of `class`.
        via: usize,
    },
    /// The chunk quotient graph contains a cycle: two classes would each
    /// have to wait on the other within a single task.
    ChunkCycle,
    /// Token routing needs exactly one entry and one exit chunk.
    NotSinglePort {
        /// Number of chunks with no predecessors.
        sources: usize,
        /// Number of chunks with no successors.
        sinks: usize,
    },
    /// The replicated-stage declaration is malformed.
    BadReplica {
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for DagScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagScheduleError::Empty => f.write_str("a schedule needs at least one stage"),
            DagScheduleError::LengthMismatch { stages, assignment } => write!(
                f,
                "assignment has {assignment} entries but the task graph has {stages} stages"
            ),
            DagScheduleError::Cyclic(e) => write!(f, "{e}"),
            DagScheduleError::NotPathConvex { class, via } => write!(
                f,
                "stages on {class:?} must be consecutive along every dependency path \
                 (stage {via} interrupts one)"
            ),
            DagScheduleError::ChunkCycle => {
                f.write_str("chunk graph contains a cycle: classes wait on each other")
            }
            DagScheduleError::NotSinglePort { sources, sinks } => write!(
                f,
                "token routing needs exactly one entry and one exit chunk \
                 (found {sources} entries, {sinks} exits)"
            ),
            DagScheduleError::BadReplica { reason } => write!(f, "bad replica: {reason}"),
        }
    }
}

impl core::error::Error for DagScheduleError {
    fn source(&self) -> Option<&(dyn core::error::Error + 'static)> {
        match self {
            DagScheduleError::Cyclic(e) => Some(e),
            _ => None,
        }
    }
}

/// One chunk of a DAG schedule: a PU class and the stages it serves, in
/// topological order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DagChunk {
    /// The serving PU class.
    pub pu: PuClass,
    /// The stage indices this chunk executes, in dependency order.
    pub stages: Vec<usize>,
}

/// A validated fork/join schedule: for each stage of a task graph, the PU
/// class it runs on, with path-convexity (the DAG form of C2), chunk-graph
/// acyclicity, and single-entry/single-exit routing enforced at
/// construction. At most one stage may be replicated across two otherwise
/// unused classes.
///
/// ```
/// use bt_rt::{DagSchedule, TaskGraph};
/// use bt_rt::PuClass::*;
///
/// // Diamond: 0 forks to 1 and 2, which join at 3.
/// let mut g = TaskGraph::new(4);
/// g.add_dep(0, 1).add_dep(0, 2).add_dep(1, 3).add_dep(2, 3);
/// let s = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &g)?;
/// assert_eq!(s.chunks().len(), 4);
/// assert!(!s.is_chain());
/// # Ok::<(), bt_rt::DagScheduleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagSchedule {
    assignment: Vec<PuClass>,
    graph: TaskGraph,
    replicated: Option<(usize, (PuClass, PuClass))>,
    chunks: Vec<DagChunk>,
    /// The chunk quotient: token-flow edges between chunk indices.
    chunk_edges: Vec<(usize, usize)>,
    /// The quotient's lowest-index-first topological order.
    chunk_order: Vec<usize>,
    replica_chunks: Option<(usize, usize)>,
}

impl DagSchedule {
    /// Validates and wraps a stage → class assignment over `graph`.
    ///
    /// # Errors
    ///
    /// Returns a [`DagScheduleError`] describing the first violated
    /// structural constraint.
    pub fn new(
        assignment: Vec<PuClass>,
        graph: &TaskGraph,
    ) -> Result<DagSchedule, DagScheduleError> {
        DagSchedule::build(assignment, graph.clone(), None)
    }

    /// Like [`DagSchedule::new`], but stage `stage` is *replicated*: both
    /// classes in `classes` serve the full stage, alternating over the
    /// task sequence (`seq % 2`). The entry in `assignment[stage]` must
    /// name one of the two replica classes; both classes are exclusive to
    /// the replicated stage.
    ///
    /// # Errors
    ///
    /// Returns a [`DagScheduleError`] as [`DagSchedule::new`] does, plus
    /// [`DagScheduleError::BadReplica`] for malformed replication (a
    /// source/sink stage, duplicate classes, or a replica class reused by
    /// another stage).
    pub fn replicated(
        assignment: Vec<PuClass>,
        graph: &TaskGraph,
        stage: usize,
        classes: (PuClass, PuClass),
    ) -> Result<DagSchedule, DagScheduleError> {
        DagSchedule::build(assignment, graph.clone(), Some((stage, classes)))
    }

    /// Lifts a linear-chain [`Schedule`] into the DAG model (the
    /// degenerate case: the graph is the chain over its stages).
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_STAGES`] stages, as [`TaskGraph::chain`] does.
    pub fn from_schedule(schedule: &Schedule) -> DagSchedule {
        let graph = TaskGraph::chain(schedule.stage_count());
        DagSchedule::build(schedule.assignment().to_vec(), graph, None)
            .expect("a valid chain schedule is a valid DAG schedule")
    }

    fn build(
        assignment: Vec<PuClass>,
        graph: TaskGraph,
        replicated: Option<(usize, (PuClass, PuClass))>,
    ) -> Result<DagSchedule, DagScheduleError> {
        let n = graph.len();
        if n == 0 {
            return Err(DagScheduleError::Empty);
        }
        if assignment.len() != n {
            return Err(DagScheduleError::LengthMismatch {
                stages: n,
                assignment: assignment.len(),
            });
        }
        let stages = graph.masks();
        let closure = stages.closure().map_err(DagScheduleError::Cyclic)?;
        let order = &closure.order[..n];

        let bad = |reason: String| DagScheduleError::BadReplica { reason };
        if let Some((r, (c1, c2))) = replicated {
            if r >= n {
                return Err(bad(format!("replicated stage {r} is out of range")));
            }
            if c1 == c2 {
                return Err(bad(format!(
                    "replica classes must differ (both are {c1:?})"
                )));
            }
            if assignment[r] != c1 && assignment[r] != c2 {
                return Err(bad(format!(
                    "assignment[{r}] must name one of the replica classes"
                )));
            }
            if closure.above[r] == 0 || closure.below[r] == 0 {
                return Err(bad(format!(
                    "stage {r} is a graph source or sink and cannot be replicated"
                )));
            }
            for (s, &c) in assignment.iter().enumerate() {
                if s != r && (c == c1 || c == c2) {
                    return Err(bad(format!(
                        "replica class {c:?} is also assigned to stage {s}"
                    )));
                }
            }
        }
        let replica_stage = replicated.map(|(r, _)| r);

        // Path-convexity (the DAG generalization of C2): a stage lies on a
        // path between two stages of a class exactly when it is below one
        // and above another, so a class's holes are `below & above &
        // !members`, and none may exist. A replicated stage belongs to no
        // class and therefore acts as a barrier.
        let mut hulls = [[0u64; 3]; PuClass::COUNT];
        for s in (0..n).filter(|&s| replica_stage != Some(s)) {
            let [members, below, above] = &mut hulls[assignment[s].index()];
            *members |= 1 << s;
            *below |= closure.below[s];
            *above |= closure.above[s];
        }
        for (class, [members, below, above]) in PuClass::ALL.into_iter().zip(hulls) {
            let holes = below & above & !members;
            if holes != 0 {
                let via = holes.trailing_zeros() as usize;
                return Err(DagScheduleError::NotPathConvex { class, via });
            }
        }

        // Chunks, in first-topological-appearance order. All stages of a
        // class form one chunk; a replicated stage forms two adjacent
        // single-stage chunks, one per replica class. Replica classes are
        // exclusive to the replicated stage (validated above), so matching
        // by class alone never puts another stage in a replica chunk, and
        // there are at most as many chunks as classes. Bit `i` of
        // `chunks_of[s]` marks stage `s` as served by chunk `i`.
        let mut pus = [PuClass::BigCpu; PuClass::COUNT];
        let mut members = [0u64; PuClass::COUNT];
        let mut chunks_of = [0u64; MAX_STAGES];
        let mut k = 0;
        for &s in order {
            let s = usize::from(s);
            let replica = replicated.filter(|&(r, _)| r == s).map(|(_, pair)| pair);
            let (first, second) = replica.map_or((assignment[s], None), |(c1, c2)| (c1, Some(c2)));
            for pu in core::iter::once(first).chain(second) {
                let i = pus[..k].iter().position(|&p| p == pu).unwrap_or_else(|| {
                    pus[k] = pu;
                    k += 1;
                    k - 1
                });
                members[i] |= 1 << s;
                chunks_of[s] |= 1 << i;
            }
        }
        let chunk = |pu: PuClass| {
            (pus[..k].iter().position(|&p| p == pu)).expect("a replica class serves its stage")
        };
        let replica_chunks = replicated.map(|(_, (c1, c2))| (chunk(c1), chunk(c2)));

        // The quotient's token-flow edges: chunk `c` feeds every other
        // chunk serving a successor of one of its stages. It must itself be
        // a single-entry/single-exit DAG for token routing to be
        // well-defined. A cycle is named as such, not by the missing entry
        // or exit it may leave.
        let mut feeds = [0u64; PuClass::COUNT];
        for u in 0..n {
            let downstream = bits(stages.succ[u]).fold(0, |m, v| m | chunks_of[v]);
            for c in bits(chunks_of[u]) {
                feeds[c] |= downstream & !(1 << c);
            }
        }
        let edges = || (0..k).flat_map(|c| bits(feeds[c]).map(move |d| (c, d)));
        let quotient = GraphMasks::index(k, edges());
        let quotient_order = quotient.kahn().map_err(|_| DagScheduleError::ChunkCycle)?;
        let sources = (0..k).filter(|&c| quotient.pred[c] == 0).count();
        let sinks = (0..k).filter(|&c| quotient.succ[c] == 0).count();
        if sources != 1 || sinks != 1 {
            return Err(DagScheduleError::NotSinglePort { sources, sinks });
        }

        let chunks = (0..k)
            .map(|i| {
                let mut stages = Vec::with_capacity(members[i].count_ones() as usize);
                let served = order.iter().map(|&s| usize::from(s));
                stages.extend(served.filter(|&s| members[i] >> s & 1 == 1));
                DagChunk { pu: pus[i], stages }
            })
            .collect();
        let mut chunk_edges =
            Vec::with_capacity(feeds.iter().map(|f| f.count_ones() as usize).sum());
        chunk_edges.extend(edges());
        Ok(DagSchedule {
            assignment,
            graph,
            replicated,
            chunks,
            chunk_edges,
            chunk_order: quotient_order[..k].iter().map(|&c| c.into()).collect(),
            replica_chunks,
        })
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.assignment.len()
    }

    /// The stage-dependency graph this schedule was validated against.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The full stage → class assignment. For a replicated stage the entry
    /// names one of its two replica classes; see
    /// [`DagSchedule::replicated_stage`].
    pub fn assignment(&self) -> &[PuClass] {
        &self.assignment
    }

    /// The replicated stage and its class pair, if any.
    pub fn replicated_stage(&self) -> Option<(usize, (PuClass, PuClass))> {
        self.replicated
    }

    /// The chunks, in first-topological-appearance order. A replicated
    /// stage appears as two adjacent single-stage chunks.
    pub fn chunks(&self) -> &[DagChunk] {
        &self.chunks
    }

    /// Token-flow edges between chunk indices (sorted, deduplicated).
    pub fn chunk_edges(&self) -> &[(usize, usize)] {
        &self.chunk_edges
    }

    /// Chunk indices in the quotient's lowest-index-first topological
    /// order: the order a task visits the chunks in. The replica pair is
    /// adjacent in it.
    pub fn chunk_order(&self) -> &[usize] {
        &self.chunk_order
    }

    /// The chunk-index pair serving the replicated stage, if any.
    pub fn replica_pair(&self) -> Option<(usize, usize)> {
        self.replica_chunks
    }

    /// Whether this schedule is expressible in the linear-chain model:
    /// no replication and a chain-shaped graph.
    pub fn is_chain(&self) -> bool {
        self.replicated.is_none() && self.graph.is_chain()
    }

    /// The distinct PU classes used, in chunk order (replica classes
    /// included).
    pub fn classes_used(&self) -> Vec<PuClass> {
        self.chunks.iter().map(|c| c.pu).collect()
    }
}

// Hand-written serde mirrors [`Schedule`]'s: only the declarative fields
// travel (assignment, graph, replication), and deserialization re-runs the
// full validation, re-deriving chunks and routing.
#[cfg(feature = "std")]
impl serde::Serialize for DagSchedule {
    fn to_value(&self) -> serde::Value {
        let replicated = match self.replicated {
            Some((stage, (c1, c2))) => serde::Value::Array(vec![
                serde::Value::U64(stage as u64),
                c1.to_value(),
                c2.to_value(),
            ]),
            None => serde::Value::Null,
        };
        serde::Value::Object(vec![
            ("assignment".to_string(), self.assignment.to_value()),
            ("graph".to_string(), self.graph.to_value()),
            ("replicated".to_string(), replicated),
        ])
    }
}

#[cfg(feature = "std")]
impl serde::Deserialize for DagSchedule {
    fn from_value(v: &serde::Value) -> Result<DagSchedule, serde::Error> {
        use serde::Deserialize;
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::new(format!("DagSchedule: missing field `{name}`")))
        };
        let assignment: Vec<PuClass> = Deserialize::from_value(field("assignment")?)?;
        let graph: TaskGraph = Deserialize::from_value(field("graph")?)?;
        let replicated = match field("replicated")? {
            serde::Value::Null => None,
            serde::Value::Array(parts) if parts.len() == 3 => {
                let stage: u64 = Deserialize::from_value(&parts[0])?;
                let c1: PuClass = Deserialize::from_value(&parts[1])?;
                let c2: PuClass = Deserialize::from_value(&parts[2])?;
                Some((stage as usize, (c1, c2)))
            }
            _ => {
                return Err(serde::Error::new(
                    "DagSchedule: `replicated` must be null or [stage, class, class]",
                ))
            }
        };
        DagSchedule::build(assignment, graph, replicated)
            .map_err(|e| serde::Error::new(e.to_string()))
    }
}

impl fmt::Display for DagSchedule {
    /// Compact form: one letter per stage (B/M/L/G), a replicated stage as
    /// its bracketed class pair, e.g. `L[BG]M`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let letter = |c: PuClass| match c {
            PuClass::BigCpu => 'B',
            PuClass::MediumCpu => 'M',
            PuClass::LittleCpu => 'L',
            PuClass::Gpu => 'G',
        };
        for (s, &c) in self.assignment.iter().enumerate() {
            match self.replicated {
                Some((r, (c1, c2))) if r == s => {
                    write!(f, "[{}{}]", letter(c1), letter(c2))?;
                }
                _ => write!(f, "{}", letter(c))?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::string::ToString;
    use alloc::vec;
    use PuClass::*;

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1).add_dep(0, 2).add_dep(1, 3).add_dep(2, 3);
        g
    }

    #[test]
    fn diamond_chunks_and_edges() {
        let s = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &diamond()).unwrap();
        assert_eq!(s.chunks().len(), 4);
        assert_eq!(s.chunks()[0].stages, vec![0]);
        // Fork: chunk 0 feeds both branches; both feed the join.
        let edges = s.chunk_edges();
        assert_eq!(edges.len(), 4);
        assert!(!s.is_chain());
        assert_eq!(s.to_string(), "LGBM");
    }

    #[test]
    fn parallel_branches_may_share_a_class() {
        // Stages 1 and 2 are incomparable, so one BigCpu chunk may serve
        // both (serializing the branches on one PU).
        let s = DagSchedule::new(vec![LittleCpu, BigCpu, BigCpu, MediumCpu], &diamond()).unwrap();
        assert_eq!(s.chunks().len(), 3);
        let big = &s.chunks()[1];
        assert_eq!(big.pu, BigCpu);
        assert_eq!(big.stages, vec![1, 2]);
    }

    #[test]
    fn path_convexity_enforced() {
        // 0 and 3 share a class with 1 (another class) on the 0 → 1 → 3 path.
        let r = DagSchedule::new(vec![BigCpu, Gpu, LittleCpu, BigCpu], &diamond());
        assert!(matches!(
            r,
            Err(DagScheduleError::NotPathConvex { class: BigCpu, .. })
        ));
    }

    #[test]
    fn convex_classes_can_still_wait_on_each_other() {
        // 0 → 1 and 2 → 3 with {0, 3} on BigCpu and {1, 2} on Gpu: each
        // class is path-convex, yet each chunk feeds the other.
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1).add_dep(2, 3);
        let r = DagSchedule::new(vec![BigCpu, Gpu, Gpu, BigCpu], &g);
        assert_eq!(r, Err(DagScheduleError::ChunkCycle));
    }

    #[test]
    fn cyclic_graph_reports_cycle() {
        let mut g = TaskGraph::new(3);
        g.add_dep(0, 1).add_dep(1, 2).add_dep(2, 0);
        let r = DagSchedule::new(vec![BigCpu, Gpu, LittleCpu], &g);
        assert!(matches!(r, Err(DagScheduleError::Cyclic(_))));
    }

    #[test]
    fn length_mismatch_and_empty_rejected() {
        assert_eq!(
            DagSchedule::new(vec![BigCpu], &diamond()),
            Err(DagScheduleError::LengthMismatch {
                stages: 4,
                assignment: 1
            })
        );
        assert_eq!(
            DagSchedule::new(vec![], &TaskGraph::new(0)),
            Err(DagScheduleError::Empty)
        );
    }

    #[test]
    fn chain_schedules_lift_from_linear() {
        let s = DagSchedule::new(vec![BigCpu, BigCpu, Gpu], &TaskGraph::chain(3)).unwrap();
        assert!(s.is_chain());
        let linear = Schedule::new(s.assignment().to_vec()).unwrap();
        assert_eq!(linear.to_string(), "BBG");
        let lifted = DagSchedule::from_schedule(&linear);
        assert_eq!(lifted.chunks().len(), 2);
        assert_eq!(lifted, s);
    }

    #[test]
    fn replication_builds_adjacent_chunk_pair() {
        // Chain 0 → 1 → 2 with the middle stage split across Big + Gpu.
        let g = TaskGraph::chain(3);
        let s = DagSchedule::replicated(vec![LittleCpu, BigCpu, MediumCpu], &g, 1, (BigCpu, Gpu))
            .unwrap();
        assert_eq!(s.chunks().len(), 4);
        let (a, b) = s.replica_pair().unwrap();
        assert_eq!(s.chunks()[a].pu, BigCpu);
        assert_eq!(s.chunks()[b].pu, Gpu);
        assert_eq!(s.chunks()[a].stages, vec![1]);
        assert_eq!(s.chunks()[b].stages, vec![1]);
        assert!(!s.is_chain());
        assert_eq!(s.to_string(), "L[BG]M");
        // The pair diverges from the source and re-merges at the sink.
        assert_eq!(s.chunk_edges(), &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn bad_replicas_rejected() {
        let g = TaskGraph::chain(3);
        let dup = DagSchedule::replicated(vec![LittleCpu, BigCpu, MediumCpu], &g, 1, (Gpu, Gpu));
        assert!(matches!(dup, Err(DagScheduleError::BadReplica { .. })));
        let source =
            DagSchedule::replicated(vec![BigCpu, LittleCpu, MediumCpu], &g, 0, (BigCpu, Gpu));
        assert!(matches!(source, Err(DagScheduleError::BadReplica { .. })));
        let reused = DagSchedule::replicated(vec![LittleCpu, BigCpu, Gpu], &g, 1, (BigCpu, Gpu));
        assert!(matches!(reused, Err(DagScheduleError::BadReplica { .. })));
        let unnamed =
            DagSchedule::replicated(vec![LittleCpu, MediumCpu, MediumCpu], &g, 1, (BigCpu, Gpu));
        assert!(matches!(unnamed, Err(DagScheduleError::BadReplica { .. })));
    }

    #[cfg(feature = "std")]
    #[test]
    fn serde_round_trips_and_revalidates() {
        let g = TaskGraph::chain(3);
        let s = DagSchedule::replicated(vec![LittleCpu, BigCpu, MediumCpu], &g, 1, (BigCpu, Gpu))
            .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            !json.contains("chunk"),
            "derived state must not leak: {json}"
        );
        let back: DagSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.replica_pair(), s.replica_pair());

        let plain = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &diamond()).unwrap();
        let back: DagSchedule =
            serde_json::from_str(&serde_json::to_string(&plain).unwrap()).unwrap();
        assert_eq!(back, plain);
    }

    #[cfg(feature = "std")]
    #[test]
    fn deserializing_an_out_of_range_dependency_is_an_error() {
        let json = r#"{"assignment":["BigCpu","Gpu","LittleCpu"],"graph":{"n":3,"deps":[[0,7]]},"replicated":null}"#;
        let err = serde_json::from_str::<DagSchedule>(json).unwrap_err();
        assert!(err.to_string().contains("(0, 7)"), "{err}");
    }

    #[cfg(feature = "std")]
    #[test]
    fn deserializing_more_than_64_stages_is_an_error() {
        let assignment = serde_json::to_string(&vec![BigCpu; 65]).unwrap();
        let json = format!(
            r#"{{"assignment":{assignment},"graph":{{"n":65,"deps":[]}},"replicated":null}}"#
        );
        let err = serde_json::from_str::<DagSchedule>(&json).unwrap_err();
        assert!(err.to_string().contains("65 stages"), "{err}");
    }

    /// 0 → every one of 1..=62 → 63: the 64-stage fork/join.
    fn fork_join_64() -> TaskGraph {
        let mut g = TaskGraph::new(64);
        for s in 1..63 {
            g.add_dep(0, s).add_dep(s, 63);
        }
        g
    }

    #[test]
    fn sixty_four_stages_use_every_mask_bit() {
        let chain = TaskGraph::chain(64);
        let closure = chain.closure().unwrap();
        assert_eq!((closure.below[0], closure.above[63]), (!1, !(1 << 63)));
        let quarters: Vec<PuClass> = (0..64).map(|s| PuClass::ALL[s / 16]).collect();
        let s = DagSchedule::new(quarters, &chain).unwrap();
        assert_eq!(s.chunks()[3].stages, (48..64).collect::<Vec<_>>());
        assert_eq!(s.chunk_edges(), &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(s.chunk_order(), &[0, 1, 2, 3]);

        let mut a = vec![LittleCpu; 64];
        a[62] = Gpu;
        a[63] = MediumCpu;
        let s = DagSchedule::replicated(a, &chain, 62, (BigCpu, Gpu)).unwrap();
        assert_eq!(s.replica_pair(), Some((1, 2)));
        assert_eq!(s.chunks()[3].stages, vec![63]);

        let fork_join = fork_join_64();
        let mut a: Vec<PuClass> = (0..64).map(|s| [BigCpu, Gpu][s / 32]).collect();
        (a[0], a[63]) = (LittleCpu, MediumCpu);
        let s = DagSchedule::new(a.clone(), &fork_join).unwrap();
        assert_eq!(s.chunks()[1].stages, (1..32).collect::<Vec<_>>());
        assert_eq!(s.chunks()[2].stages, (32..63).collect::<Vec<_>>());
        assert_eq!(s.chunk_edges(), &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        // The fork and the join on Gpu enclose the Big branch.
        (a[0], a[63]) = (Gpu, Gpu);
        assert_eq!(
            DagSchedule::new(a, &fork_join),
            Err(DagScheduleError::NotPathConvex { class: Gpu, via: 1 })
        );
    }

    #[test]
    fn self_loops_and_repeated_dependencies() {
        let mut looped = diamond();
        looped.add_dep(2, 2);
        assert_eq!(
            DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &looped),
            Err(DagScheduleError::Cyclic(CyclicGraphError {
                cycle: vec![2]
            }))
        );
        // Every dependency twice, in another order: the same schedule.
        let mut doubled = TaskGraph::new(4);
        for &(u, v) in diamond().deps().iter().rev().chain(diamond().deps()) {
            doubled.add_dep(u, v);
        }
        let a = vec![LittleCpu, Gpu, BigCpu, MediumCpu];
        let s = DagSchedule::new(a.clone(), &doubled).unwrap();
        assert_eq!(s, DagSchedule::new(a, &diamond()).unwrap());
        assert_eq!(s.chunk_edges(), &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(
            s.graph().deps().len(),
            8,
            "the graph keeps what was declared"
        );
    }

    #[cfg(feature = "std")]
    #[test]
    fn hostile_graphs_deserialize_to_typed_errors() {
        let json = |a: &[PuClass], g: &str| {
            let a = serde_json::to_string(a).unwrap();
            format!(r#"{{"assignment":{a},"graph":{g},"replicated":null}}"#)
        };
        let graph = |g: &TaskGraph| serde_json::to_string(g).unwrap();
        let mut looped = diamond();
        looped.add_dep(3, 3);
        let mut quotient_cycle = TaskGraph::new(4);
        quotient_cycle.add_dep(0, 1).add_dep(2, 3);
        // A graph past the cap cannot be built, only written.
        let chain_65: Vec<(usize, usize)> = (1..65).map(|s| (s - 1, s)).collect();
        let chain_65 = format!(
            r#"{{"n":65,"deps":{}}}"#,
            serde_json::to_string(&chain_65).unwrap()
        );
        let cases: [(Vec<PuClass>, String, Option<&str>); 6] = [
            (vec![BigCpu; 64], graph(&TaskGraph::chain(64)), None),
            (vec![BigCpu; 64], graph(&fork_join_64()), None),
            (vec![BigCpu; 4], graph(&looped), Some("cycle: 3 -> 3")),
            (
                vec![BigCpu, Gpu, Gpu, BigCpu],
                graph(&quotient_cycle),
                Some("chunk graph contains a cycle"),
            ),
            (vec![BigCpu; 65], chain_65, Some("65 stages exceed the 64")),
            (
                vec![],
                r#"{"n":1000000,"deps":[]}"#.to_string(),
                Some("1000000 stages exceed the 64"),
            ),
        ];
        for (a, g, error) in cases {
            match serde_json::from_str::<TaskGraph>(&g) {
                Ok(back) => {
                    assert_eq!(graph(&back), g);
                    assert_eq!(back.linearize().is_err(), error == Some("cycle: 3 -> 3"));
                }
                Err(e) => assert!(error.is_some_and(|why| e.to_string().contains(why)), "{e}"),
            }
            match (serde_json::from_str::<DagSchedule>(&json(&a, &g)), error) {
                (Ok(s), None) => {
                    let g: TaskGraph = serde_json::from_str(&g).unwrap();
                    assert_eq!(s, DagSchedule::new(a, &g).unwrap());
                }
                (Err(e), Some(why)) => assert!(e.to_string().contains(why), "{e}"),
                (got, want) => panic!("{got:?} where {want:?} was due"),
            }
        }
    }
}
