//! Stage 4: binary radix tree over sorted unique Morton codes
//! (Karras, "Maximizing Parallelism in the Construction of BVHs, Octrees,
//! and k-d Trees", HPG 2012).
//!
//! For `n` unique keys the tree has `n − 1` internal nodes, one per
//! adjacent key pair: the pair where the node's key range splits. The tree
//! and its numbering are Karras's (node `i` has key `i` at one end of its
//! range; node 0 is the root), but one O(n) pass builds it instead of a
//! binary search per node. With `d[g] = δ(g, g + 1)`, the common-prefix
//! length of adjacent keys, split `g`'s range runs from the key after the
//! previous pair with a smaller `d` to the key of the next such pair, and
//! a monotonic stack finds both. The stack pass is serial: each pop depends
//! on the stack every earlier pair left.

use crate::octree::MORTON_BITS;
use crate::ParCtx;

/// Flag bit marking a child index as a leaf (an index into the key array)
/// rather than an internal node.
pub(crate) const LEAF_FLAG: u32 = 1 << 31;

/// A binary radix tree over sorted unique 30-bit keys.
#[derive(Debug, Clone)]
pub(crate) struct RadixTree {
    keys: Vec<u32>,
    left: Vec<u32>,
    parent: Vec<u32>,
    leaf_parent: Vec<u32>,
    first: Vec<u32>,
    last: Vec<u32>,
    prefix_len: Vec<u8>,
}

impl RadixTree {
    /// Builds the radix tree over `keys` (sorted, unique, each < 2^30).
    /// One key gives a tree with no internal nodes. The prefix lengths are
    /// computed in parallel on `ctx`; the stack pass that turns them into
    /// nodes, and the parent links, are serial.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty, or in debug builds if keys are not
    /// sorted/unique/in-range.
    pub(crate) fn build(ctx: &ParCtx, keys: &[u32]) -> RadixTree {
        assert!(!keys.is_empty(), "radix tree needs at least one key");
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be sorted unique"
        );
        debug_assert!(
            keys.iter().all(|&k| k < (1 << MORTON_BITS)),
            "keys must be 30-bit"
        );

        let n = keys.len();
        let internal = n - 1;

        // d[g + 1] = δ(g, g + 1) for the pairs g in 0..n−1, and −1 at both
        // ends: the key range's outer edges bound the root like any split.
        let mut d = vec![-1i8; n + 1];
        ctx.for_each_chunk(&mut d[1..n], |offset, chunk| {
            for (rel, slot) in chunk.iter_mut().enumerate() {
                let g = offset + rel;
                let x = keys[g] ^ keys[g + 1];
                *slot = (x.leading_zeros() - (32 - MORTON_BITS)) as i8;
            }
        });

        // Stack pass: positions of d with strictly increasing values over
        // the left sentinel. Popping position t (split g = t − 1) at
        // position k closes g's key range lo..=hi: lo follows the previous
        // smaller d, which is now on top, and hi is the key of pair k − 1.
        // The node is numbered by the range end facing its parent split,
        // the neighbour with the larger d: a left child by its last key, a
        // right child by its first. Only the root ties (−1 on both sides),
        // and it is node 0.
        let mut left = vec![0u32; internal];
        let mut right = vec![0u32; internal];
        let mut first = vec![0u32; internal];
        let mut last = vec![0u32; internal];
        let mut prefix_len = vec![0u8; internal];
        let mut stack: Vec<usize> = Vec::with_capacity(MORTON_BITS as usize + 2);
        stack.push(0);
        for (k, &dk) in d.iter().enumerate().skip(1) {
            while let Some(&t) = stack.last().filter(|&&t| d[t] > dk) {
                stack.pop();
                let (g, lo, hi) = (t - 1, stack[stack.len() - 1], k - 1);
                let node = if d[lo] >= dk { lo } else { hi };
                left[node] = g as u32 | if lo == g { LEAF_FLAG } else { 0 };
                right[node] = (g + 1) as u32 | if hi == g + 1 { LEAF_FLAG } else { 0 };
                first[node] = lo as u32;
                last[node] = hi as u32;
                prefix_len[node] = d[t] as u8;
            }
            stack.push(k);
        }

        // Parent links through one array, internal nodes then leaves, so
        // a child's slot needs no branch on its leaf bit. Only the root
        // (and the lone leaf of a one-key tree) keeps u32::MAX.
        let mut parent = vec![u32::MAX; internal + n];
        for i in 0..internal {
            for child in [left[i], right[i]] {
                let leaf = usize::from(child & LEAF_FLAG != 0);
                let slot = (child & !LEAF_FLAG) as usize + internal * leaf;
                parent[slot] = i as u32;
            }
        }
        let leaf_parent = parent.split_off(internal);

        RadixTree {
            keys: keys.to_vec(),
            left,
            parent,
            leaf_parent,
            first,
            last,
            prefix_len,
        }
    }

    /// The sorted unique keys the tree is built over.
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Number of internal nodes (`keys.len() − 1`).
    pub(crate) fn internal_count(&self) -> usize {
        self.left.len()
    }

    /// Left child of internal node `i` ([`LEAF_FLAG`] marks leaves).
    #[cfg(test)]
    pub(crate) fn left(&self, i: usize) -> u32 {
        self.left[i]
    }

    /// Right child of internal node `i`: the key after the left child's
    /// split, a leaf when it ends the node's range.
    #[cfg(test)]
    pub(crate) fn right(&self, i: usize) -> u32 {
        let g = (self.left[i] & !LEAF_FLAG) as usize + 1;
        g as u32 | if self.last(i) == g { LEAF_FLAG } else { 0 }
    }

    /// Parent of internal node `i` (`u32::MAX` for the root).
    pub(crate) fn parent(&self, i: usize) -> u32 {
        self.parent[i]
    }

    /// Internal parent of leaf `q` (every leaf has one for `n ≥ 2`;
    /// `u32::MAX` for the lone leaf of a one-key tree).
    pub(crate) fn leaf_parent(&self, q: usize) -> u32 {
        self.leaf_parent[q]
    }

    /// First key index covered by internal node `i`.
    pub(crate) fn first(&self, i: usize) -> usize {
        self.first[i] as usize
    }

    /// Last key index covered by internal node `i` (inclusive).
    pub(crate) fn last(&self, i: usize) -> usize {
        self.last[i] as usize
    }

    /// Common-prefix length (0–30) of internal node `i`'s key range.
    pub(crate) fn prefix_len(&self, i: usize) -> u32 {
        self.prefix_len[i] as u32
    }

    /// The Morton prefix of node `i` as a value: the shared high
    /// `prefix_len` bits of its keys, right-aligned.
    #[cfg(test)]
    pub(crate) fn prefix_code(&self, i: usize) -> u32 {
        let len = self.prefix_len(i);
        if len == 0 {
            0
        } else {
            self.keys[self.first(i)] >> (MORTON_BITS - len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::morton_encode_cloud;
    use crate::pointcloud::{CloudShape, PointCloudStream};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unique_keys(seed: u64, n: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..(1u32 << MORTON_BITS)));
        }
        set.into_iter().collect()
    }

    fn build(seed: u64, n: usize) -> RadixTree {
        RadixTree::build(&ParCtx::new(4), &unique_keys(seed, n))
    }

    /// Sorted unique Morton codes of a `points`-point cloud.
    fn cloud_keys(shape: CloudShape, seed: u64, points: usize) -> Vec<u32> {
        let cloud = PointCloudStream::new(shape, seed).next_cloud(points);
        let mut keys = Vec::new();
        morton_encode_cloud(&ParCtx::serial(), &cloud, &mut keys);
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Karras's construction, the oracle: every internal node `i` on its
    /// own, by the direction of its range, an exponential and a binary
    /// search for the range's other end, and a binary search over δ for
    /// its split.
    fn karras_reference(keys: &[u32]) -> RadixTree {
        // δ(i, j): longest common prefix of keys i and j; −1 when j is
        // out of range.
        let delta = |i: usize, j: i64| -> i32 {
            if j < 0 || j >= keys.len() as i64 {
                return -1;
            }
            (keys[i] ^ keys[j as usize]).leading_zeros() as i32 - (32 - MORTON_BITS as i32)
        };
        let n = keys.len();
        let internal = n - 1;
        let mut right = Vec::with_capacity(internal);
        let mut tree = RadixTree {
            keys: keys.to_vec(),
            left: vec![0; internal],
            parent: vec![u32::MAX; internal],
            leaf_parent: vec![u32::MAX; n],
            first: vec![0; internal],
            last: vec![0; internal],
            prefix_len: vec![0; internal],
        };
        for i in 0..internal {
            let ii = i as i64;
            let d: i64 = if delta(i, ii + 1) > delta(i, ii - 1) {
                1
            } else {
                -1
            };
            let delta_min = delta(i, ii - d);
            let mut l_max: i64 = 2;
            while delta(i, ii + l_max * d) > delta_min {
                l_max *= 2;
            }
            let mut l: i64 = 0;
            let mut t = l_max / 2;
            while t >= 1 {
                if delta(i, ii + (l + t) * d) > delta_min {
                    l += t;
                }
                t /= 2;
            }
            let j = ii + l * d;
            let delta_node = delta(i, j);
            let mut s: i64 = 0;
            let mut t = (l + 1) / 2;
            loop {
                if delta(i, ii + (s + t) * d) > delta_node {
                    s += t;
                }
                if t == 1 {
                    break;
                }
                t = (t + 1) / 2;
            }
            let gamma = ii + s * d + d.min(0);
            let (lo, hi) = (ii.min(j), ii.max(j));
            tree.left[i] = gamma as u32 | if lo == gamma { LEAF_FLAG } else { 0 };
            right.push((gamma + 1) as u32 | if hi == gamma + 1 { LEAF_FLAG } else { 0 });
            tree.first[i] = lo as u32;
            tree.last[i] = hi as u32;
            tree.prefix_len[i] = delta_node as u8;
        }
        for (i, &r) in right.iter().enumerate() {
            assert_eq!(tree.right(i), r, "derived right child of {i}");
            for child in [tree.left[i], r] {
                if child & LEAF_FLAG == 0 {
                    tree.parent[child as usize] = i as u32;
                } else {
                    tree.leaf_parent[(child & !LEAF_FLAG) as usize] = i as u32;
                }
            }
        }
        tree
    }

    /// `build`, serial and on 3 workers, equals the oracle field for field.
    fn assert_matches_karras(keys: &[u32]) {
        let want = karras_reference(keys);
        for ctx in [ParCtx::serial(), ParCtx::new(3)] {
            let got = RadixTree::build(&ctx, keys);
            let n = keys.len();
            assert_eq!(got.keys, want.keys, "keys, n = {n}");
            assert_eq!(got.left, want.left, "left, n = {n}");
            assert_eq!(got.first, want.first, "first, n = {n}");
            assert_eq!(got.last, want.last, "last, n = {n}");
            assert_eq!(got.prefix_len, want.prefix_len, "prefix_len, n = {n}");
            assert_eq!(got.parent, want.parent, "parent, n = {n}");
            assert_eq!(got.leaf_parent, want.leaf_parent, "leaf_parent, n = {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The inputs of the `radix_tree_structure` property test.
        #[test]
        fn build_matches_karras_on_random_keys(
            keys in proptest::collection::btree_set(0u32..(1 << MORTON_BITS), 1..400),
        ) {
            assert_matches_karras(&keys.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn build_matches_karras_on_60k_point_clouds() {
        for (shape, seed) in [
            (CloudShape::Clustered, 0),
            (CloudShape::Clustered, 1),
            (CloudShape::Surface, 2),
        ] {
            let keys = cloud_keys(shape, seed, 60_000);
            assert!(
                keys.len() > 50_000,
                "{shape:?}: {} unique codes",
                keys.len()
            );
            assert_matches_karras(&keys);
        }
    }

    #[test]
    fn build_matches_karras_on_adversarial_keys() {
        let top = (1u32 << MORTON_BITS) - 1;
        let sets: [Vec<u32>; 6] = [
            (0..70).collect(),
            std::iter::once(0)
                .chain((0..MORTON_BITS).map(|b| 1 << b))
                .collect(),
            (0..40u32).flat_map(|i| [i << 7, i << 7 | 1]).collect(),
            (0..40u32).map(|i| top - 39 + i).collect(),
            vec![0, 1 << 29, top - 1, top],
            vec![7, 8, top],
        ];
        // Every prefix: n = 1, 2 and 3, and each set's growing shapes.
        for keys in &sets {
            for n in 1..=keys.len() {
                assert_matches_karras(&keys[..n]);
            }
        }
    }

    #[test]
    fn one_key_has_no_internal_nodes() {
        let tree = RadixTree::build(&ParCtx::new(2), &[42]);
        assert_eq!(tree.internal_count(), 0);
        assert_eq!(tree.keys(), &[42]);
        assert_eq!(tree.leaf_parent(0), u32::MAX);
    }

    /// Recursively collect the leaf range reachable from internal node `i`.
    fn reachable_leaves(tree: &RadixTree, node: u32, out: &mut Vec<usize>) {
        if node & LEAF_FLAG != 0 {
            out.push((node & !LEAF_FLAG) as usize);
        } else {
            reachable_leaves(tree, tree.left(node as usize), out);
            reachable_leaves(tree, tree.right(node as usize), out);
        }
    }

    #[test]
    fn every_leaf_reachable_exactly_once() {
        let tree = build(1, 300);
        let mut leaves = Vec::new();
        reachable_leaves(&tree, 0, &mut leaves);
        leaves.sort_unstable();
        assert_eq!(leaves, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn node_ranges_match_reachable_leaves() {
        let tree = build(2, 128);
        for i in 0..tree.internal_count() {
            let mut leaves = Vec::new();
            reachable_leaves(&tree, i as u32, &mut leaves);
            let lo = *leaves.iter().min().expect("non-empty");
            let hi = *leaves.iter().max().expect("non-empty");
            assert_eq!(lo, tree.first(i), "node {i}");
            assert_eq!(hi, tree.last(i), "node {i}");
            assert_eq!(
                leaves.len(),
                hi - lo + 1,
                "node {i} covers a contiguous range"
            );
        }
    }

    #[test]
    fn prefix_is_common_to_all_covered_keys() {
        let tree = build(3, 200);
        for i in 0..tree.internal_count() {
            let len = tree.prefix_len(i);
            if len == 0 {
                continue;
            }
            let shift = MORTON_BITS - len;
            let prefix = tree.prefix_code(i);
            for k in tree.first(i)..=tree.last(i) {
                assert_eq!(tree.keys()[k] >> shift, prefix, "node {i}, key {k}");
            }
        }
    }

    #[test]
    fn children_have_strictly_longer_prefixes() {
        let tree = build(4, 150);
        for i in 0..tree.internal_count() {
            for child in [tree.left(i), tree.right(i)] {
                if child & LEAF_FLAG == 0 {
                    assert!(
                        tree.prefix_len(child as usize) > tree.prefix_len(i),
                        "child {child} of node {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn parents_are_consistent_with_children() {
        let tree = build(5, 100);
        assert_eq!(tree.parent(0), u32::MAX);
        for i in 0..tree.internal_count() {
            for child in [tree.left(i), tree.right(i)] {
                if child & LEAF_FLAG == 0 {
                    assert_eq!(tree.parent(child as usize), i as u32);
                }
            }
        }
        // Every non-root node has a parent.
        for i in 1..tree.internal_count() {
            assert_ne!(tree.parent(i), u32::MAX, "node {i} orphaned");
        }
    }

    #[test]
    fn two_keys() {
        let tree = RadixTree::build(&ParCtx::serial(), &[1, 2]);
        assert_eq!(tree.internal_count(), 1);
        assert_eq!(tree.left(0), LEAF_FLAG);
        assert_eq!(tree.right(0), 1 | LEAF_FLAG);
    }

    #[test]
    fn serial_parallel_agree() {
        let keys = unique_keys(6, 500);
        let a = RadixTree::build(&ParCtx::serial(), &keys);
        let b = RadixTree::build(&ParCtx::new(8), &keys);
        for i in 0..a.internal_count() {
            assert_eq!(a.left(i), b.left(i));
            assert_eq!(a.right(i), b.right(i));
            assert_eq!(a.prefix_len(i), b.prefix_len(i));
        }
    }

    #[test]
    fn adjacent_keys_with_deep_shared_prefix() {
        // Keys differing only in the lowest bit exercise the deepest split.
        let keys = vec![0b0, 0b1, 1 << 29, (1 << 29) | 0b1];
        let tree = RadixTree::build(&ParCtx::serial(), &keys);
        assert_eq!(tree.internal_count(), 3);
        let mut leaves = Vec::new();
        reachable_leaves(&tree, 0, &mut leaves);
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1, 2, 3]);
    }
}
