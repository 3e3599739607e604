//! The acyclic stage-dependency graph — the canonical shape of an
//! application, shared by the scheduler vocabulary ([`crate::dag`]) and
//! every consumer that reasons about stage ordering.

use core::fmt;

use alloc::collections::BinaryHeap;
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

/// An acyclic stage-dependency graph — the canonical shape of an
/// application. Chain-shaped graphs take the linearized fast path
/// everywhere; genuine fork/join graphs are scheduled, simulated, and
/// executed as DAGs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "std", derive(serde::Serialize, serde::Deserialize))]
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
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &(from, to) in &self.deps {
            preds[to].push(from);
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        preds
    }

    /// Per-stage successor sets (sorted, deduplicated).
    pub(crate) fn succ_sets(&self) -> Vec<Vec<usize>> {
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &(from, to) in &self.deps {
            succs[from].push(to);
        }
        for s in &mut succs {
            s.sort_unstable();
            s.dedup();
        }
        succs
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
    /// lowest-index-first tie-breaking).
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] reporting one offending cycle if the
    /// dependencies are not acyclic.
    pub fn linearize(&self) -> Result<Vec<usize>, CyclicGraphError> {
        let mut indegree = vec![0usize; self.n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &(from, to) in &self.deps {
            indegree[to] += 1;
            out_edges[from].push(to);
        }
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.n)
            .filter(|&i| indegree[i] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        let mut placed = vec![false; self.n];
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            placed[i] = true;
            for &j in &out_edges[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(Reverse(j));
                }
            }
        }
        if order.len() == self.n {
            Ok(order)
        } else {
            Err(CyclicGraphError {
                cycle: self.extract_cycle(&placed),
            })
        }
    }

    /// Finds one cycle among the stages Kahn's algorithm could not place.
    /// Every unplaced stage has an unplaced predecessor, so walking
    /// smallest-predecessor-first backwards must revisit a stage; the
    /// revisited suffix is a cycle, reported in forward-edge order rotated
    /// to start at its smallest member.
    fn extract_cycle(&self, placed: &[bool]) -> Vec<usize> {
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &(from, to) in &self.deps {
            if !placed[from] && !placed[to] {
                preds[to].push(from);
            }
        }
        for p in &mut preds {
            p.sort_unstable();
        }
        let start = (0..self.n)
            .find(|&i| !placed[i])
            .expect("linearize failed, so an unplaced stage exists");
        let mut visited_at = vec![usize::MAX; self.n];
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if visited_at[cur] != usize::MAX {
                // path[k + 1] is a predecessor of path[k], and `cur`
                // (already at position p) is a predecessor of the last
                // element: forward order is cur, then the suffix reversed.
                let p = visited_at[cur];
                let mut cycle = vec![cur];
                cycle.extend(path[p + 1..].iter().rev().copied());
                let min_pos = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &s)| s)
                    .map(|(k, _)| k)
                    .unwrap_or(0);
                cycle.rotate_left(min_pos);
                return cycle;
            }
            visited_at[cur] = path.len();
            path.push(cur);
            cur = preds[cur][0];
        }
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

    /// Reachability closure as bitmasks: bit `j` of `masks[i]` is set iff
    /// a directed path with at least one edge leads from `i` to `j`.
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] if the graph is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 64 stages (far above any
    /// pipeline this framework schedules).
    pub fn reachability(&self) -> Result<Vec<u64>, CyclicGraphError> {
        assert!(self.n <= 64, "reachability supports up to 64 stages");
        let order = self.linearize()?;
        let succs = self.succ_sets();
        let mut masks = vec![0u64; self.n];
        for &i in order.iter().rev() {
            let mut m = 0u64;
            for &j in &succs[i] {
                m |= (1u64 << j) | masks[j];
            }
            masks[i] = m;
        }
        Ok(masks)
    }

    /// Whether the graph is a chain up to relabeling: acyclic and every
    /// consecutive pair of its deterministic topological order is
    /// dependency-ordered (so the linearization loses nothing).
    pub fn is_chain(&self) -> bool {
        if self.n <= 1 {
            return self.linearize().is_ok();
        }
        let order = match self.linearize() {
            Ok(order) => order,
            Err(_) => return false,
        };
        let masks = match self.reachability() {
            Ok(masks) => masks,
            Err(_) => return false,
        };
        order.windows(2).all(|w| masks[w[0]] >> w[1] & 1 == 1)
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
        let masks = diamond.reachability().unwrap();
        assert_eq!(masks[0], 0b1110);
        assert_eq!(masks[1], 0b1000);
        assert_eq!(masks[1] >> 2 & 1, 0, "siblings are not reachable");

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
}
