//! The acyclic stage-dependency graph — the canonical shape of an
//! application — and the workspace's one stage-graph kernel. A stage
//! graph holds at most [`MAX_STAGES`] (64) nodes, so each node's
//! successors and predecessors are `u64` masks on the stack
//! ([`GraphMasks`]), and every adjacency question is answered from them
//! without a per-node allocation: the topological order
//! ([`TaskGraph::linearize`]), [`TaskGraph::is_chain`], equality, the
//! reachability closure ([`TaskGraph::closure`]), `DagSchedule`'s
//! validation and the DES's routing.
//!
//! The cap holds wherever a graph is made. [`TaskGraph::new`] and
//! [`TaskGraph::chain`] assert it (they take no outside input),
//! deserializing a [`TaskGraph`] past it is an error, and
//! [`GraphMasks::new`] asserts it for callers, such as the DES, that check
//! their input first.
//!
//! One Kahn's algorithm sorts, taking the lowest ready node of a `u64`
//! ready set first, so it yields the one topological order (the
//! lexicographically least). The schedule validator, the optimizer's
//! `StageDag`, the DES engine and the host relay all sort through it, so a
//! chunk's index is the same wherever the workspace names it.

use core::fmt;

#[cfg(feature = "std")]
use alloc::format;
use alloc::vec;
use alloc::vec::Vec;

/// The most nodes a stage graph holds: one bit per node in a `u64` mask.
pub const MAX_STAGES: usize = 64;

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

/// The set bits of `mask`, ascending: the nodes a [`GraphMasks`] entry
/// names, in index order.
pub fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    core::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// Asserts that `n` nodes fit in one mask.
fn assert_cap(n: usize) {
    assert!(
        n <= MAX_STAGES,
        "{n} stages exceed the {MAX_STAGES} a stage graph holds"
    );
}

/// An acyclic graph of at most [`MAX_STAGES`] nodes as per-node masks on
/// the stack: bit `j` of `succ[i]` (and bit `i` of `pred[j]`) is an edge
/// `i → j`, however often and in whatever order it was declared. Entries
/// from the node count on are zero.
///
/// ```
/// use bt_rt::GraphMasks;
///
/// let diamond = GraphMasks::new(4, [(2, 3), (0, 2), (0, 1), (1, 3), (0, 1)])?;
/// assert_eq!(diamond.succ[0], 0b0110);
/// assert_eq!(diamond.pred[3], 0b0110);
/// assert!(GraphMasks::new(2, [(0, 1), (1, 0)]).is_err());
/// # Ok::<(), bt_rt::CyclicGraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphMasks {
    n: usize,
    /// Bit `j` of `succ[i]`: an edge `i → j`.
    pub succ: [u64; MAX_STAGES],
    /// Bit `i` of `pred[j]`: an edge `i → j`.
    pub pred: [u64; MAX_STAGES],
}

/// [`GraphMasks::closure`]'s result. The first `n` entries of `order` are
/// the topological order; `below[i]` and `above[i]` are [`Closure`]'s
/// masks.
pub(crate) struct StackClosure {
    pub(crate) order: [u8; MAX_STAGES],
    pub(crate) below: [u64; MAX_STAGES],
    pub(crate) above: [u64; MAX_STAGES],
}

impl GraphMasks {
    /// Indexes `edges` over `n` nodes and checks that they are acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] naming one cycle (a self-loop is a
    /// cycle of one node).
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_STAGES`] nodes or if an endpoint is not below
    /// `n`; callers that take outside input check both first.
    pub fn new(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<GraphMasks, CyclicGraphError> {
        let masks = GraphMasks::index(n, edges);
        masks.kahn().map(|_| masks)
    }

    /// The masks of `edges` over `n` nodes, cyclic or not.
    pub(crate) fn index(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> GraphMasks {
        assert_cap(n);
        let mut masks = GraphMasks {
            n,
            succ: [0; MAX_STAGES],
            pred: [0; MAX_STAGES],
        };
        for (u, v) in edges {
            assert!(
                u < n && v < n,
                "edge ({u}, {v}) names a node outside 0..{n}"
            );
            masks.succ[u] |= 1 << v;
            masks.pred[v] |= 1 << u;
        }
        masks
    }

    /// Kahn's algorithm taking the lowest ready node first, which yields
    /// the lexicographically least topological order: the first `n`
    /// entries of the result.
    pub(crate) fn kahn(&self) -> Result<[u8; MAX_STAGES], CyclicGraphError> {
        let mut missing = [0u32; MAX_STAGES];
        let mut ready = 0u64;
        for (v, m) in missing[..self.n].iter_mut().enumerate() {
            *m = self.pred[v].count_ones();
            ready |= u64::from(*m == 0) << v;
        }
        let (mut order, mut len, mut placed) = ([0u8; MAX_STAGES], 0, 0u64);
        while ready != 0 {
            let v = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            placed |= 1 << v;
            order[len] = v as u8;
            len += 1;
            for s in bits(self.succ[v]) {
                missing[s] -= 1;
                ready |= u64::from(missing[s] == 0) << s;
            }
        }
        if len < self.n {
            // Predecessor masks name only real nodes, so the bits of
            // `!placed` from `n` on are never walked.
            return Err(self.cycle_among(!placed));
        }
        Ok(order)
    }

    /// One cycle among the `unplaced` nodes [`GraphMasks::kahn`] stopped
    /// short of. Every unplaced node has an unplaced predecessor, so
    /// walking smallest-predecessor-first backwards from the smallest
    /// unplaced node must revisit one; the revisited suffix is a cycle,
    /// reported in forward-edge order rotated to start at its smallest
    /// member.
    fn cycle_among(&self, unplaced: u64) -> CyclicGraphError {
        let (mut visited_at, mut path, mut len) = ([usize::MAX; MAX_STAGES], [0; MAX_STAGES], 0);
        let mut cur = unplaced.trailing_zeros() as usize;
        while visited_at[cur] == usize::MAX {
            visited_at[cur] = len;
            path[len] = cur;
            len += 1;
            cur = (self.pred[cur] & unplaced).trailing_zeros() as usize;
        }
        // path[k + 1] is a predecessor of path[k], and `cur` (already at
        // position p) is a predecessor of the last element: forward order
        // is cur, then the suffix reversed.
        let mut cycle = vec![cur];
        cycle.extend(path[visited_at[cur] + 1..len].iter().rev());
        let min_pos = (0..cycle.len()).min_by_key(|&k| cycle[k]).unwrap_or(0);
        cycle.rotate_left(min_pos);
        CyclicGraphError { cycle }
    }

    /// [`GraphMasks::kahn`]'s order with every node's descendant and
    /// ancestor masks.
    pub(crate) fn closure(&self) -> Result<StackClosure, CyclicGraphError> {
        let order = self.kahn()?;
        let (mut below, mut above) = ([0u64; MAX_STAGES], [0u64; MAX_STAGES]);
        for &i in order[..self.n].iter().rev() {
            let i = usize::from(i);
            below[i] = bits(self.succ[i]).fold(self.succ[i], |m, j| m | below[j]);
        }
        for &i in &order[..self.n] {
            let i = usize::from(i);
            above[i] = bits(self.pred[i]).fold(self.pred[i], |m, j| m | above[j]);
        }
        Ok(StackClosure {
            order,
            below,
            above,
        })
    }
}

/// An acyclic stage-dependency graph — the canonical shape of an
/// application. Chain-shaped graphs take the linearized fast path
/// everywhere; genuine fork/join graphs are scheduled, simulated, and
/// executed as DAGs. A graph has at most [`MAX_STAGES`] stages and every
/// dependency names stages in range: [`new`], [`chain`] and [`add_dep`]
/// assert it and deserialization rejects a graph that breaks it. Two
/// graphs are equal when they have as many stages and the same set of
/// dependencies, whatever their order or repetition.
///
/// [`new`]: TaskGraph::new
/// [`chain`]: TaskGraph::chain
/// [`add_dep`]: TaskGraph::add_dep
#[derive(Debug, Clone)]
#[cfg_attr(feature = "std", derive(serde::Serialize))]
pub struct TaskGraph {
    n: usize,
    deps: Vec<(usize, usize)>,
}

impl TaskGraph {
    /// A graph over `n` stages with no dependencies yet.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_STAGES`] stages.
    pub fn new(n: usize) -> TaskGraph {
        assert_cap(n);
        TaskGraph {
            n,
            deps: Vec::new(),
        }
    }

    /// The linear chain over `n` stages: `0 -> 1 -> … -> n - 1`.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_STAGES`] stages.
    pub fn chain(n: usize) -> TaskGraph {
        assert_cap(n);
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

    /// The stage masks, cyclic or not.
    pub(crate) fn masks(&self) -> GraphMasks {
        GraphMasks::index(self.n, self.deps.iter().copied())
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
        let order = self.masks().kahn()?;
        Ok(order[..self.n].iter().map(|&i| i.into()).collect())
    }

    /// [`TaskGraph::linearize`]'s order together with the reachability
    /// closure as bitmasks, from one run of Kahn's algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] if the graph is cyclic.
    pub fn closure(&self) -> Result<Closure, CyclicGraphError> {
        let closure = self.masks().closure()?;
        Ok(Closure {
            order: closure.order[..self.n].iter().map(|&i| i.into()).collect(),
            below: closure.below[..self.n].to_vec(),
            above: closure.above[..self.n].to_vec(),
        })
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
        let masks = self.masks();
        masks.kahn().is_ok_and(|order| {
            let order = &order[..self.n];
            (order.windows(2)).all(|w| masks.succ[usize::from(w[0])] >> w[1] & 1 == 1)
        })
    }
}

impl PartialEq for TaskGraph {
    fn eq(&self, other: &TaskGraph) -> bool {
        self.n == other.n && (self.deps == other.deps || self.masks().succ == other.masks().succ)
    }
}

impl Eq for TaskGraph {}

// Hand-written so a graph past the cap or a dependency naming a stage out
// of range is an error, as each is a panic in `new` and `add_dep`, rather
// than a fault later. The cap is checked before anything is sized by `n`.
#[cfg(feature = "std")]
impl serde::Deserialize for TaskGraph {
    fn from_value(v: &serde::Value) -> Result<TaskGraph, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::new(format!("TaskGraph: missing field `{name}`")))
        };
        let n: usize = serde::Deserialize::from_value(field("n")?)?;
        if n > MAX_STAGES {
            return Err(serde::Error::new(format!(
                "TaskGraph: {n} stages exceed the {MAX_STAGES} a stage graph holds"
            )));
        }
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

    fn masks(g: &TaskGraph) -> GraphMasks {
        GraphMasks::new(g.len(), g.deps().iter().copied()).unwrap()
    }

    /// Stages with no predecessors, ascending.
    fn sources(g: &TaskGraph) -> Vec<usize> {
        let masks = masks(g);
        (0..g.len()).filter(|&v| masks.pred[v] == 0).collect()
    }

    /// Stages with no successors, ascending.
    fn sinks(g: &TaskGraph) -> Vec<usize> {
        let masks = masks(g);
        (0..g.len()).filter(|&v| masks.succ[v] == 0).collect()
    }

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
        let masks = masks(&chain);
        assert_eq!((sources(&chain), sinks(&chain)), (vec![0], vec![3]));
        assert_eq!((masks.pred[2], masks.succ[0]), (0b10, 0b10));

        // Diamond fork/join: not a chain.
        let mut diamond = TaskGraph::new(4);
        diamond
            .add_dep(0, 1)
            .add_dep(0, 2)
            .add_dep(1, 3)
            .add_dep(2, 3);
        assert!(!diamond.is_chain());
        assert_eq!((sources(&diamond), sinks(&diamond)), (vec![0], vec![3]));
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
    fn chain_test_runs_to_the_cap() {
        assert!(TaskGraph::chain(MAX_STAGES).is_chain());
        let mut forked = TaskGraph::chain(MAX_STAGES);
        forked.add_dep(0, 2);
        assert!(forked.is_chain(), "a shortcut edge keeps the chain");
        forked.add_dep(MAX_STAGES - 1, 0);
        assert!(!forked.is_chain(), "a cyclic graph is no chain");
        let mut g = TaskGraph::new(MAX_STAGES);
        g.add_dep(0, 1);
        assert!(!g.is_chain());
        // Labelled back to front, the chain's order starts at the top bit.
        let mut reversed = TaskGraph::new(MAX_STAGES);
        for s in 1..MAX_STAGES {
            reversed.add_dep(s, s - 1);
        }
        assert!(reversed.is_chain());
        assert_eq!(reversed.linearize().unwrap()[0], MAX_STAGES - 1);
    }

    #[cfg(feature = "std")]
    #[test]
    fn deserialization_rejects_out_of_range_deps() {
        let ok: TaskGraph = serde_json::from_str(r#"{"n":2,"deps":[[0,1]]}"#).unwrap();
        assert_eq!(ok, TaskGraph::chain(2));
        let err = serde_json::from_str::<TaskGraph>(r#"{"n":3,"deps":[[0,7]]}"#).unwrap_err();
        assert!(err.to_string().contains("(0, 7)"), "{err}");
        // Past the cap, before the dependencies are read: neither the
        // edge out of range nor a million stages is reached.
        for (json, n) in [
            (r#"{"n":65,"deps":[[0,70]]}"#, 65),
            (r#"{"n":1000000,"deps":[]}"#, 1_000_000),
        ] {
            let err = serde_json::from_str::<TaskGraph>(json).unwrap_err();
            let want = format!("{n} stages exceed the {MAX_STAGES} a stage graph holds");
            assert!(err.to_string().contains(&want), "{err}");
        }
        let top: TaskGraph = serde_json::from_str(r#"{"n":64,"deps":[[62,63]]}"#).unwrap();
        assert_eq!(top.len(), MAX_STAGES);
    }

    #[test]
    fn equal_graphs_declare_the_same_dependency_set() {
        for n in [4, MAX_STAGES] {
            let chain = TaskGraph::chain(n);
            let mut shuffled = TaskGraph::new(n);
            for &(u, v) in chain.deps().iter().rev().chain(&chain.deps()[..2]) {
                shuffled.add_dep(u, v);
            }
            assert_eq!(shuffled, chain, "{n} stages");
            shuffled.add_dep(0, 2);
            assert_ne!(shuffled, chain, "{n} stages");
            assert_ne!(TaskGraph::chain(n - 1), chain);
        }
        assert_eq!(TaskGraph::new(0), TaskGraph::chain(0));
    }

    #[test]
    #[should_panic(expected = "65 stages exceed the 64 a stage graph holds")]
    fn a_graph_past_the_cap_panics() {
        let _ = TaskGraph::chain(MAX_STAGES + 1);
    }
}
