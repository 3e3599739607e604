//! The acyclic stage-dependency graph — the canonical shape of an
//! application — with the workspace's one topological sort
//! ([`TaskGraph::linearize`], lowest index first) and reachability closure
//! ([`TaskGraph::closure`]). The schedule validator, the optimizer's
//! `StageDag`, the DES engine and the host relay all sort through these,
//! so a chunk's index is the same wherever the workspace names it.

use core::fmt;

use alloc::collections::BinaryHeap;
#[cfg(feature = "std")]
use alloc::format;
use alloc::vec;
use alloc::vec::Vec;
use core::cmp::Reverse;

/// Error returned when a task graph cannot be linearized: reports one
/// offending dependency cycle so DAG-authoring mistakes are debuggable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclicGraphError {
    /// Stage indices forming a cycle, in forward-edge order starting at
    /// the smallest member: `cycle[i] -> cycle[i + 1]` and
    /// `cycle.last() -> cycle[0]` are all declared dependencies.
    pub cycle: Vec<usize>,
}

impl fmt::Display for CyclicGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task graph contains a cycle: ")?;
        for s in &self.cycle {
            write!(f, "{s} -> ")?;
        }
        match self.cycle.first() {
            Some(first) => write!(f, "{first}"),
            None => write!(f, "?"),
        }
    }
}

impl core::error::Error for CyclicGraphError {}

/// A graph's topological order with its reachability closure, from one
/// pass of [`TaskGraph::closure`].
#[derive(Debug, Clone)]
pub struct Closure {
    /// Kahn's order with lowest-index-first tie-breaking, exactly
    /// [`TaskGraph::linearize`]'s.
    pub order: Vec<usize>,
    /// Bit `j` of `below[i]`: a path with at least one edge leads from
    /// `i` to `j`.
    pub below: Vec<u64>,
    /// Bit `j` of `above[i]`: such a path leads from `j` to `i`.
    pub above: Vec<u64>,
}

/// An acyclic stage-dependency graph — the canonical shape of an
/// application. Chain-shaped graphs take the linearized fast path
/// everywhere; genuine fork/join graphs are scheduled, simulated, and
/// executed as DAGs. Every dependency names stages in range: [`add_dep`]
/// asserts it and deserialization rejects a graph that breaks it.
///
/// [`add_dep`]: TaskGraph::add_dep
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "std", derive(serde::Serialize))]
pub struct TaskGraph {
    n: usize,
    deps: Vec<(usize, usize)>,
}

impl TaskGraph {
    /// A graph over `n` stages with no dependencies yet.
    pub fn new(n: usize) -> TaskGraph {
        TaskGraph {
            n,
            deps: Vec::new(),
        }
    }

    /// The linear chain over `n` stages: `0 -> 1 -> … -> n - 1`.
    pub fn chain(n: usize) -> TaskGraph {
        TaskGraph {
            n,
            deps: (1..n).map(|i| (i - 1, i)).collect(),
        }
    }

    /// Declares that `to` consumes an output of `from` (so `from` must run
    /// earlier).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_dep(&mut self, from: usize, to: usize) -> &mut TaskGraph {
        assert!(from < self.n && to < self.n, "stage index out of range");
        self.deps.push((from, to));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no stages.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The declared dependency edges, in insertion order.
    pub fn deps(&self) -> &[(usize, usize)] {
        &self.deps
    }

    /// Per-stage predecessor sets (sorted, deduplicated).
    pub fn pred_sets(&self) -> Vec<Vec<usize>> {
        self.adjacency(|(from, to)| (to, from))
    }

    /// Per-stage successor sets (sorted, deduplicated).
    pub(crate) fn succ_sets(&self) -> Vec<Vec<usize>> {
        self.adjacency(|edge| edge)
    }

    /// For each stage `at`, the sorted, deduplicated `other`s of the edges
    /// `orient` maps to `(at, other)`.
    fn adjacency(&self, orient: impl Fn((usize, usize)) -> (usize, usize)) -> Vec<Vec<usize>> {
        let mut sets: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &edge in &self.deps {
            let (at, other) = orient(edge);
            sets[at].push(other);
        }
        for set in &mut sets {
            set.sort_unstable();
            set.dedup();
        }
        sets
    }

    /// Stages with no predecessors, ascending.
    pub fn sources(&self) -> Vec<usize> {
        let preds = self.pred_sets();
        (0..self.n).filter(|&i| preds[i].is_empty()).collect()
    }

    /// Stages with no successors, ascending.
    pub fn sinks(&self) -> Vec<usize> {
        let succs = self.succ_sets();
        (0..self.n).filter(|&i| succs[i].is_empty()).collect()
    }

    /// Produces a deterministic topological order (Kahn's algorithm,
    /// lowest-index-first tie-breaking: the lexicographically least
    /// topological order).
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] reporting one offending cycle if the
    /// dependencies are not acyclic.
    pub fn linearize(&self) -> Result<Vec<usize>, CyclicGraphError> {
        self.kahn(&self.succ_sets())
    }

    /// [`TaskGraph::linearize`]'s order together with the reachability
    /// closure as bitmasks, from one run of Kahn's algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] if the graph is cyclic.
    ///
    /// # Panics
    ///
    /// Panics past 64 stages; callers that take outside input check first.
    pub fn closure(&self) -> Result<Closure, CyclicGraphError> {
        assert!(self.n <= 64, "the closure supports up to 64 stages");
        let succs = self.succ_sets();
        let order = self.kahn(&succs)?;
        let mut below = vec![0u64; self.n];
        for &i in order.iter().rev() {
            below[i] = succs[i].iter().fold(0, |m, &j| m | 1 << j | below[j]);
        }
        let mut above = vec![0u64; self.n];
        for &i in &order {
            for &j in &succs[i] {
                above[j] |= above[i] | 1 << i;
            }
        }
        Ok(Closure {
            order,
            below,
            above,
        })
    }

    /// Kahn's algorithm over `succs` with lowest-index-first tie-breaking.
    fn kahn(&self, succs: &[Vec<usize>]) -> Result<Vec<usize>, CyclicGraphError> {
        let mut indegree = vec![0usize; self.n];
        for &j in succs.iter().flatten() {
            indegree[j] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.n)
            .filter(|&i| indegree[i] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for &j in &succs[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(Reverse(j));
                }
            }
        }
        if order.len() < self.n {
            return Err(CyclicGraphError {
                cycle: self.extract_cycle(&indegree),
            });
        }
        Ok(order)
    }

    /// Finds one cycle among the stages Kahn's algorithm could not place
    /// (those left with a positive `indegree`). Every unplaced stage has an
    /// unplaced predecessor, so walking smallest-predecessor-first
    /// backwards must revisit a stage; the revisited suffix is a cycle,
    /// reported in forward-edge order rotated to start at its smallest
    /// member.
    fn extract_cycle(&self, indegree: &[usize]) -> Vec<usize> {
        let unplaced = |i: usize| indegree[i] > 0;
        let preds = self.pred_sets();
        let mut cur = (0..self.n)
            .find(|&i| unplaced(i))
            .expect("linearize failed, so an unplaced stage exists");
        let mut visited_at = vec![usize::MAX; self.n];
        let mut path = Vec::new();
        while visited_at[cur] == usize::MAX {
            visited_at[cur] = path.len();
            path.push(cur);
            cur = preds[cur]
                .iter()
                .copied()
                .find(|&p| unplaced(p))
                .expect("an unplaced stage has an unplaced predecessor");
        }
        // path[k + 1] is a predecessor of path[k], and `cur` (already at
        // position p) is a predecessor of the last element: forward order
        // is cur, then the suffix reversed.
        let mut cycle = vec![cur];
        cycle.extend(path[visited_at[cur] + 1..].iter().rev());
        let min_pos = (0..cycle.len()).min_by_key(|&k| cycle[k]).unwrap_or(0);
        cycle.rotate_left(min_pos);
        cycle
    }

    /// Re-indexes the graph so original stage `order[k]` becomes stage `k`
    /// (used when stages are re-sorted into topological order).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..len()`.
    pub fn relabeled(&self, order: &[usize]) -> TaskGraph {
        assert_eq!(order.len(), self.n, "order/stage count mismatch");
        let mut position = vec![usize::MAX; self.n];
        for (k, &orig) in order.iter().enumerate() {
            assert!(
                orig < self.n && position[orig] == usize::MAX,
                "order must be a permutation of stage indices"
            );
            position[orig] = k;
        }
        TaskGraph {
            n: self.n,
            deps: self
                .deps
                .iter()
                .map(|&(from, to)| (position[from], position[to]))
                .collect(),
        }
    }

    /// Whether the graph is a chain up to relabeling: acyclic and every
    /// consecutive pair of its deterministic topological order is
    /// dependency-ordered (so the linearization loses nothing). Nothing
    /// lies between two neighbours of a topological order, so only a
    /// direct edge can order them.
    pub fn is_chain(&self) -> bool {
        let succs = self.succ_sets();
        self.kahn(&succs)
            .is_ok_and(|order| order.windows(2).all(|w| succs[w[0]].contains(&w[1])))
    }
}

// Hand-written so a dependency naming a stage out of range is an error,
// as it is a panic in `add_dep`, rather than an index fault later.
#[cfg(feature = "std")]
impl serde::Deserialize for TaskGraph {
    fn from_value(v: &serde::Value) -> Result<TaskGraph, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::new(format!("TaskGraph: missing field `{name}`")))
        };
        let n: usize = serde::Deserialize::from_value(field("n")?)?;
        let deps: Vec<(usize, usize)> = serde::Deserialize::from_value(field("deps")?)?;
        match deps.iter().find(|&&(from, to)| from >= n || to >= n) {
            Some((from, to)) => Err(serde::Error::new(format!(
                "TaskGraph: dependency ({from}, {to}) names a stage outside 0..{n}"
            ))),
            None => Ok(TaskGraph { n, deps }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::string::ToString;

    #[test]
    fn linear_graph_keeps_order() {
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1).add_dep(1, 2).add_dep(2, 3);
        assert_eq!(g.linearize().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn octree_style_dag_linearizes() {
        // 7 stages; stage 6 (build octree) depends on 2 (dedup), 3 (radix
        // tree), and 5 (prefix sum), like the paper's example.
        let mut g = TaskGraph::new(7);
        g.add_dep(0, 1)
            .add_dep(1, 2)
            .add_dep(2, 3)
            .add_dep(3, 4)
            .add_dep(4, 5)
            .add_dep(2, 6)
            .add_dep(3, 6)
            .add_dep(5, 6);
        let order = g.linearize().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn independent_stages_sorted_by_index() {
        let g = TaskGraph::new(3);
        assert_eq!(g.linearize().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn cycle_detected_and_reported() {
        let mut g = TaskGraph::new(2);
        g.add_dep(0, 1).add_dep(1, 0);
        let err = g.linearize().unwrap_err();
        assert_eq!(err.cycle, vec![0, 1]);
        assert_eq!(err.to_string(), "task graph contains a cycle: 0 -> 1 -> 0");
    }

    #[test]
    fn cycle_reported_behind_acyclic_prefix() {
        // 0 -> 1 feeds a 3-cycle 2 -> 3 -> 4 -> 2; the cycle must name
        // only the cyclic stages, rotated to start at the smallest.
        let mut g = TaskGraph::new(5);
        g.add_dep(0, 1)
            .add_dep(1, 2)
            .add_dep(2, 3)
            .add_dep(3, 4)
            .add_dep(4, 2);
        let err = g.linearize().unwrap_err();
        assert_eq!(err.cycle, vec![2, 3, 4]);
        for w in err.cycle.windows(2) {
            assert!(g.deps().contains(&(w[0], w[1])));
        }
        assert!(g.deps().contains(&(4, 2)));
    }

    #[test]
    fn chain_and_shape_queries() {
        let chain = TaskGraph::chain(4);
        assert!(chain.is_chain());
        assert_eq!(chain.sources(), vec![0]);
        assert_eq!(chain.sinks(), vec![3]);
        assert_eq!(chain.pred_sets()[2], vec![1]);
        assert_eq!(chain.succ_sets()[0], vec![1]);

        // Diamond fork/join: not a chain.
        let mut diamond = TaskGraph::new(4);
        diamond
            .add_dep(0, 1)
            .add_dep(0, 2)
            .add_dep(1, 3)
            .add_dep(2, 3);
        assert!(!diamond.is_chain());
        assert_eq!(diamond.sources(), vec![0]);
        assert_eq!(diamond.sinks(), vec![3]);
        let closure = diamond.closure().unwrap();
        assert_eq!(closure.order, diamond.linearize().unwrap());
        let masks = closure.below;
        assert_eq!(masks[0], 0b1110);
        assert_eq!(masks[1], 0b1000);
        assert_eq!(masks[1] >> 2 & 1, 0, "siblings are not reachable");
        assert_eq!(closure.above, vec![0, 0b0001, 0b0001, 0b0111]);

        // A chain up to relabeling is still recognized as a chain.
        let mut shuffled = TaskGraph::new(3);
        shuffled.add_dep(2, 0).add_dep(0, 1);
        assert!(shuffled.is_chain());
    }

    #[test]
    fn relabeled_maps_edges_through_topo_order() {
        let mut g = TaskGraph::new(3);
        g.add_dep(2, 0).add_dep(0, 1);
        let order = g.linearize().unwrap();
        assert_eq!(order, vec![2, 0, 1]);
        let r = g.relabeled(&order);
        assert_eq!(r.deps(), &[(0, 1), (1, 2)]);
        assert!(r.is_chain());
    }

    #[test]
    fn chain_test_has_no_stage_cap() {
        assert!(TaskGraph::chain(100).is_chain());
        let mut forked = TaskGraph::chain(100);
        forked.add_dep(0, 2);
        assert!(forked.is_chain(), "a shortcut edge keeps the chain");
        let mut g = TaskGraph::new(100);
        g.add_dep(0, 1);
        assert!(!g.is_chain());
    }

    #[cfg(feature = "std")]
    #[test]
    fn deserialization_rejects_out_of_range_deps() {
        let ok: TaskGraph = serde_json::from_str(r#"{"n":2,"deps":[[0,1]]}"#).unwrap();
        assert_eq!(ok, TaskGraph::chain(2));
        let err = serde_json::from_str::<TaskGraph>(r#"{"n":3,"deps":[[0,7]]}"#).unwrap_err();
        assert!(err.to_string().contains("(0, 7)"), "{err}");
    }
}
