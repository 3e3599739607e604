//! Property-based tests of task-graph linearization over randomized
//! acyclic graphs. The kernel properties are unit tests
//! (`src/proptests.rs`): the kernel modules are private.

use bt_kernels::TaskGraph;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random acyclic graphs (edges only go forward) always linearize, the
    /// order is a valid topological order, and it is deterministic.
    #[test]
    fn random_acyclic_graphs_linearize_topologically(
        n in 1usize..10,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = TaskGraph::new(n);
        let mut deps = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_bool(0.35) {
                    graph.add_dep(i, j);
                    deps.push((i, j));
                }
            }
        }
        let order = graph.linearize().expect("forward edges cannot cycle");
        prop_assert_eq!(order.len(), n);
        let mut position = vec![0usize; n];
        let mut seen = vec![false; n];
        for (pos, &s) in order.iter().enumerate() {
            prop_assert!(s < n && !seen[s], "order must be a permutation");
            seen[s] = true;
            position[s] = pos;
        }
        for &(from, to) in &deps {
            prop_assert!(position[from] < position[to], "dep ({from}, {to}) violated");
        }
        // Deterministic: a second linearization of an identical graph
        // produces the identical order.
        let mut again = TaskGraph::new(n);
        for &(from, to) in &deps {
            again.add_dep(from, to);
        }
        prop_assert_eq!(again.linearize().unwrap(), order);
    }

    /// Shuffled relabelings of an acyclic graph still linearize, and the
    /// relabeled graph's edges map through the order consistently.
    #[test]
    fn relabeled_graphs_stay_consistent(n in 2usize..9, seed in any::<u64>()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // Random permutation of a chain plus extra forward edges, then
        // relabel by the linearization: the result must be chain-shaped
        // in the new labels (every edge strictly forward).
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut graph = TaskGraph::new(n);
        for w in perm.windows(2) {
            graph.add_dep(w[0], w[1]);
        }
        let order = graph.linearize().expect("permuted chain is acyclic");
        prop_assert_eq!(&order, &perm);
        let relabeled = graph.relabeled(&order);
        for &(from, to) in relabeled.deps() {
            prop_assert!(from < to, "relabeled edge ({from}, {to}) must go forward");
        }
        prop_assert!(relabeled.is_chain());
    }
}
