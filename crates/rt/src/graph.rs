//! The acyclic stage-dependency graph — the canonical shape of an
//! application — and the workspace's one stage-graph kernel. Two flat
//! shapes answer every adjacency question, and neither allocates per
//! stage:
//! - up to 64 stages, each stage's successors and predecessors are `u64`
//!   masks on the stack (the crate-private `Masks`). The reachability
//!   closure ([`TaskGraph::closure`]) and `DagSchedule`'s validation run
//!   on them;
//! - at any size, [`Adjacency`] keeps them as flat, sorted, deduplicated
//!   arrays. [`TaskGraph::linearize`], [`TaskGraph::is_chain`] and the
//!   DES's routing read it.
//!
//! Both sort through one Kahn's algorithm, lowest ready index first, so
//! they yield the one topological order (the lexicographically least).
//! The schedule validator, the optimizer's `StageDag`, the DES engine and
//! the host relay all sort through them, so a chunk's index is the same
//! wherever the workspace names it.

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

/// The set bits of `mask`, ascending.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    core::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// A graph of at most 64 nodes as per-node masks on the stack: bit `j` of
/// `succ[i]` (and bit `i` of `pred[j]`) is an edge `i → j`. Repeated edges
/// collapse; a self-loop sets a node's own bit, which keeps it unplaced.
pub(crate) struct Masks {
    n: usize,
    pub(crate) succ: [u64; 64],
    pub(crate) pred: [u64; 64],
}

/// [`Masks::closure`]'s result. The first `n` entries of `order` are the
/// topological order; `below[i]` and `above[i]` are [`Closure`]'s masks.
pub(crate) struct StackClosure {
    pub(crate) order: [u8; 64],
    pub(crate) below: [u64; 64],
    pub(crate) above: [u64; 64],
}

impl Masks {
    /// The masks of `edges` over `n ≤ 64` nodes, every endpoint below `n`.
    pub(crate) fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Masks {
        let mut masks = Masks {
            n,
            succ: [0; 64],
            pred: [0; 64],
        };
        for (u, v) in edges {
            masks.succ[u] |= 1 << v;
            masks.pred[v] |= 1 << u;
        }
        masks
    }

    /// [`kahn`] on the masks: the first `n` entries of the result are the
    /// lexicographically least topological order.
    pub(crate) fn kahn(&self) -> Result<[u8; 64], CyclicGraphError> {
        let mut missing = [0u32; 64];
        for (m, p) in missing.iter_mut().zip(&self.pred[..self.n]) {
            *m = p.count_ones();
        }
        let (mut order, mut len) = ([0u8; 64], 0);
        kahn(
            &mut missing[..self.n],
            &mut 0u64,
            |i| bits(self.succ[i]),
            |i| {
                order[len] = i as u8;
                len += 1;
            },
        );
        if len < self.n {
            return Err(cycle_among(&missing[..self.n], |i| bits(self.pred[i])));
        }
        Ok(order)
    }

    /// [`Masks::kahn`]'s order with every node's descendant and ancestor
    /// masks.
    pub(crate) fn closure(&self) -> Result<StackClosure, CyclicGraphError> {
        let order = self.kahn()?;
        let (mut below, mut above) = ([0u64; 64], [0u64; 64]);
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

/// The ready nodes of Kahn's algorithm, lowest first: a `u64` up to 64
/// nodes, a min-heap at any size.
trait Ready {
    fn push(&mut self, v: usize);
    fn pop(&mut self) -> Option<usize>;
}

impl Ready for u64 {
    fn push(&mut self, v: usize) {
        *self |= 1 << v;
    }

    fn pop(&mut self) -> Option<usize> {
        let v = bits(*self).next()?;
        *self &= *self - 1;
        Some(v)
    }
}

impl Ready for BinaryHeap<Reverse<usize>> {
    fn push(&mut self, v: usize) {
        BinaryHeap::push(self, Reverse(v));
    }

    fn pop(&mut self) -> Option<usize> {
        BinaryHeap::pop(self).map(|Reverse(v)| v)
    }
}

/// Kahn's algorithm taking the lowest ready node first, which yields the
/// lexicographically least topological order. `missing[v]` holds `v`'s
/// number of distinct predecessors, `ready` starts empty and `succs(v)`
/// lists `v`'s distinct successors. Calls `place` with each node in
/// order; a node left with a positive `missing` lies on or behind a
/// cycle.
fn kahn<S: Iterator<Item = usize>>(
    missing: &mut [u32],
    ready: &mut impl Ready,
    succs: impl Fn(usize) -> S,
    mut place: impl FnMut(usize),
) {
    for v in (0..missing.len()).filter(|&v| missing[v] == 0) {
        ready.push(v);
    }
    while let Some(v) = ready.pop() {
        place(v);
        for s in succs(v) {
            missing[s] -= 1;
            if missing[s] == 0 {
                ready.push(s);
            }
        }
    }
}

/// One cycle among the nodes [`kahn`] could not place, those left with a
/// positive `missing`. Every unplaced node has an unplaced predecessor, so
/// walking smallest-predecessor-first backwards from the smallest
/// unplaced node must revisit one; the revisited suffix is a cycle,
/// reported in forward-edge order rotated to start at its smallest
/// member. `preds(v)` lists `v`'s predecessors ascending.
fn cycle_among<P: Iterator<Item = usize>>(
    missing: &[u32],
    preds: impl Fn(usize) -> P,
) -> CyclicGraphError {
    let unplaced = |v: usize| missing[v] > 0;
    let mut cur = (0..missing.len())
        .find(|&v| unplaced(v))
        .expect("Kahn's algorithm stopped short, so an unplaced node exists");
    let mut visited_at = vec![usize::MAX; missing.len()];
    let mut path = Vec::new();
    while visited_at[cur] == usize::MAX {
        visited_at[cur] = path.len();
        path.push(cur);
        cur = preds(cur)
            .find(|&p| unplaced(p))
            .expect("an unplaced node has an unplaced predecessor");
    }
    // path[k + 1] is a predecessor of path[k], and `cur` (already at
    // position p) is a predecessor of the last element: forward order is
    // cur, then the suffix reversed.
    let mut cycle = vec![cur];
    cycle.extend(path[visited_at[cur] + 1..].iter().rev());
    let min_pos = (0..cycle.len()).min_by_key(|&k| cycle[k]).unwrap_or(0);
    cycle.rotate_left(min_pos);
    CyclicGraphError { cycle }
}

/// An acyclic graph's edges as flat arrays: node `v`'s successors are
/// [`succs(v)`](Adjacency::succs) and its predecessors
/// [`preds(v)`](Adjacency::preds), each ascending and without repeats,
/// whatever order and repetition the edges came in. It has no size cap.
///
/// ```
/// use bt_rt::Adjacency;
///
/// let diamond = Adjacency::new(4, &[(2, 3), (0, 2), (0, 1), (1, 3), (0, 1)])?;
/// assert_eq!(diamond.succs(0), &[1, 2]);
/// assert_eq!(diamond.preds(3), &[1, 2]);
/// assert!(Adjacency::new(2, &[(0, 1), (1, 0)]).is_err());
/// # Ok::<(), bt_rt::CyclicGraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    /// `adj[off[v]..off[v + 1]]` are `v`'s successors and, over `n` nodes,
    /// `adj[off[n + v]..off[n + v + 1]]` its predecessors.
    off: Vec<usize>,
    adj: Vec<usize>,
}

impl Adjacency {
    /// Indexes `edges` over `n` nodes and checks that they are acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] naming one cycle (a self-loop is a
    /// cycle of one node).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `n`.
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Result<Adjacency, CyclicGraphError> {
        let adjacency = Adjacency::index(n, edges);
        adjacency.kahn().map(|_| adjacency)
    }

    /// The flat arrays of `edges` over `n` nodes, cyclic or not.
    fn index(n: usize, edges: &[(usize, usize)]) -> Adjacency {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let m = sorted.len();
        let mut off = vec![0; 2 * n + 1];
        for &(u, v) in &sorted {
            assert!(
                u < n && v < n,
                "edge ({u}, {v}) names a node outside 0..{n}"
            );
            off[u + 1] += 1;
            off[n + v + 1] += 1;
        }
        for i in 0..2 * n {
            off[i + 1] += off[i];
        }
        // Sorted by (from, to), so successors fill in place and each
        // predecessor list fills ascending, `off[n + v]` serving as `v`'s
        // cursor and then shifted back to the list's start.
        let mut adj = vec![0; 2 * m];
        for (k, &(u, v)) in sorted.iter().enumerate() {
            adj[k] = v;
            adj[off[n + v]] = u;
            off[n + v] += 1;
        }
        off.copy_within(n..2 * n, n + 1);
        off[n] = m;
        Adjacency { off, adj }
    }

    /// Number of nodes.
    fn len(&self) -> usize {
        self.off.len() / 2
    }

    /// `v`'s successors, ascending.
    pub fn succs(&self, v: usize) -> &[usize] {
        &self.adj[self.off[v]..self.off[v + 1]]
    }

    /// `v`'s predecessors, ascending.
    pub fn preds(&self, v: usize) -> &[usize] {
        let n = self.len();
        &self.adj[self.off[n + v]..self.off[n + v + 1]]
    }

    /// [`kahn`] on the flat arrays, at any size.
    fn kahn(&self) -> Result<Vec<usize>, CyclicGraphError> {
        let n = self.len();
        let mut missing: Vec<u32> = (0..n).map(|v| self.preds(v).len() as u32).collect();
        let mut order = Vec::with_capacity(n);
        let succs = |v: usize| self.succs(v).iter().copied();
        kahn(&mut missing, &mut BinaryHeap::new(), succs, |v| {
            order.push(v)
        });
        if order.len() < n {
            return Err(cycle_among(&missing, |v| self.preds(v).iter().copied()));
        }
        Ok(order)
    }
}

/// An acyclic stage-dependency graph — the canonical shape of an
/// application. Chain-shaped graphs take the linearized fast path
/// everywhere; genuine fork/join graphs are scheduled, simulated, and
/// executed as DAGs. Every dependency names stages in range: [`add_dep`]
/// asserts it and deserialization rejects a graph that breaks it. Two
/// graphs are equal when they have as many stages and the same set of
/// dependencies, whatever their order or repetition.
///
/// [`add_dep`]: TaskGraph::add_dep
#[derive(Debug, Clone)]
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

    /// The stage masks, for a graph of at most 64 stages.
    pub(crate) fn masks(&self) -> Masks {
        Masks::new(self.n, self.deps.iter().copied())
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
        Adjacency::index(self.n, &self.deps).kahn()
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
        let adjacency = Adjacency::index(self.n, &self.deps);
        adjacency.kahn().is_ok_and(|order| {
            (order.windows(2)).all(|w| adjacency.succs(w[0]).binary_search(&w[1]).is_ok())
        })
    }
}

impl PartialEq for TaskGraph {
    fn eq(&self, other: &TaskGraph) -> bool {
        self.n == other.n
            && (self.deps == other.deps
                || match self.n {
                    0..=64 => self.masks().succ == other.masks().succ,
                    _ => {
                        Adjacency::index(self.n, &self.deps)
                            == Adjacency::index(other.n, &other.deps)
                    }
                })
    }
}

impl Eq for TaskGraph {}

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

    fn adjacency(g: &TaskGraph) -> Adjacency {
        Adjacency::new(g.len(), g.deps()).unwrap()
    }

    /// Stages with no predecessors, ascending.
    fn sources(g: &TaskGraph) -> Vec<usize> {
        let flat = adjacency(g);
        (0..g.len()).filter(|&v| flat.preds(v).is_empty()).collect()
    }

    /// Stages with no successors, ascending.
    fn sinks(g: &TaskGraph) -> Vec<usize> {
        let flat = adjacency(g);
        (0..g.len()).filter(|&v| flat.succs(v).is_empty()).collect()
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
        let flat = adjacency(&chain);
        assert_eq!((sources(&chain), sinks(&chain)), (vec![0], vec![3]));
        assert_eq!(flat.preds(2), &[1]);
        assert_eq!(flat.succs(0), &[1]);

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

    #[test]
    fn equal_graphs_declare_the_same_dependency_set() {
        for n in [4, 100] {
            let chain = TaskGraph::chain(n);
            let mut shuffled = TaskGraph::new(n);
            for &(u, v) in chain.deps().iter().rev().chain(&chain.deps()[..2]) {
                shuffled.add_dep(u, v);
            }
            assert_eq!(shuffled, chain, "{n} stages");
            shuffled.add_dep(0, 2);
            assert_ne!(shuffled, chain, "{n} stages");
            assert_ne!(TaskGraph::chain(n + 1), chain);
        }
        assert_eq!(TaskGraph::new(0), TaskGraph::chain(0));
    }

    #[test]
    #[should_panic(expected = "edge (0, 3) names a node outside 0..3")]
    fn adjacency_rejects_an_edge_out_of_range() {
        let _ = Adjacency::new(3, &[(0, 1), (0, 3)]);
    }
}
