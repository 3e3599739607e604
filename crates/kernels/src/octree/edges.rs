//! Stage 5: edge counting — how many octree levels each radix-tree node
//! (internal *and* leaf) spans.
//!
//! Following Karras 2012 §4, a node whose prefix length crosses one or more
//! 3-bit boundaries relative to its parent introduces that many octree
//! cells. Leaves are full-resolution voxels (prefix length 30 → level 10);
//! `max_depth` truncates the octree at a coarser voxel resolution, the
//! OctoMap-style configuration.

use crate::octree::{RadixTree, MORTON_BITS};
use crate::ParCtx;

/// Octree level of a node with common-prefix length `prefix_len`, clamped
/// to `max_depth`.
#[inline]
fn level(prefix_len: u32, max_depth: u32) -> u32 {
    (prefix_len / 3).min(max_depth)
}

/// Computes the per-node octree edge counts into `out`, which gets length
/// `2n − 1` for `n` keys: entries `0..n-1` are the internal nodes, entries
/// `n-1..2n-1` the leaves. Entry `x` is the number of octree cells node `x`
/// introduces: its own (clamped) octree level minus its parent's.
///
/// # Panics
///
/// Panics if `max_depth` is 0 or exceeds `MORTON_BITS / 3`.
pub(crate) fn count_edges(ctx: &ParCtx, tree: &RadixTree, max_depth: u32, out: &mut Vec<u32>) {
    assert!(
        (1..=MORTON_BITS / 3).contains(&max_depth),
        "max_depth must be in 1..=10"
    );
    let internal = tree.internal_count();
    let leaves = tree.keys().len();
    out.clear();
    out.resize(internal + leaves, 0);
    ctx.for_each_chunk(out, |offset, chunk| {
        for (rel, slot) in chunk.iter_mut().enumerate() {
            let x = offset + rel;
            let (own_level, parent) = if x < internal {
                (level(tree.prefix_len(x), max_depth), tree.parent(x))
            } else {
                (max_depth, tree.leaf_parent(x - internal))
            };
            let parent_level = if parent == u32::MAX {
                0
            } else {
                level(tree.prefix_len(parent as usize), max_depth)
            };
            debug_assert!(own_level >= parent_level, "child prefixes extend parents'");
            *slot = own_level - parent_level;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree(seed: u64, n: usize) -> RadixTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..(1u32 << MORTON_BITS)));
        }
        let keys: Vec<u32> = set.into_iter().collect();
        RadixTree::build(&ParCtx::new(4), &keys)
    }

    #[test]
    fn output_length_is_2n_minus_1() {
        let t = tree(1, 300);
        let mut edges = Vec::new();
        count_edges(&ParCtx::new(4), &t, 10, &mut edges);
        assert_eq!(edges.len(), 2 * 300 - 1);
    }

    #[test]
    fn edges_are_bounded_by_depth() {
        let t = tree(1, 300);
        for depth in [1, 4, 10] {
            let mut edges = Vec::new();
            count_edges(&ParCtx::new(4), &t, depth, &mut edges);
            assert!(edges.iter().all(|&e| e <= depth));
        }
    }

    #[test]
    fn leaf_levels_telescope_to_max_depth() {
        // Along any root-to-leaf path, edges sum to the leaf's clamped
        // level, i.e. exactly max_depth (leaves are full-resolution).
        let t = tree(2, 200);
        let depth = 6;
        let mut edges = Vec::new();
        count_edges(&ParCtx::serial(), &t, depth, &mut edges);
        let internal = t.internal_count();
        for q in 0..t.keys().len() {
            let mut acc = edges[internal + q];
            let mut cur = t.leaf_parent(q);
            loop {
                acc += edges[cur as usize];
                let p = t.parent(cur as usize);
                if p == u32::MAX {
                    break;
                }
                cur = p;
            }
            assert_eq!(acc, depth, "leaf {q}");
        }
    }

    #[test]
    fn internal_levels_telescope() {
        let t = tree(3, 200);
        let mut edges = Vec::new();
        count_edges(&ParCtx::serial(), &t, 10, &mut edges);
        for i in 0..t.internal_count() {
            let mut acc = 0u32;
            let mut cur = i as u32;
            loop {
                acc += edges[cur as usize];
                let p = t.parent(cur as usize);
                if p == u32::MAX {
                    break;
                }
                cur = p;
            }
            assert_eq!(acc, t.prefix_len(i) / 3, "node {i}");
        }
    }

    #[test]
    fn octant_keys_give_root_children() {
        // 8 keys in distinct octants, depth 1: each leaf spans exactly one
        // level; internal nodes (prefix < 3 bits) span none.
        let keys: Vec<u32> = (0..8u32).map(|d| d << (MORTON_BITS - 3)).collect();
        let t = RadixTree::build(&ParCtx::serial(), &keys);
        let mut edges = Vec::new();
        count_edges(&ParCtx::serial(), &t, 1, &mut edges);
        let internal = t.internal_count();
        assert!(edges[..internal].iter().all(|&e| e == 0));
        assert!(edges[internal..].iter().all(|&e| e == 1));
    }

    #[test]
    fn serial_parallel_agree() {
        let t = tree(3, 400);
        let mut a = Vec::new();
        let mut b = Vec::new();
        count_edges(&ParCtx::serial(), &t, 7, &mut a);
        count_edges(&ParCtx::new(8), &t, 7, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "max_depth")]
    fn zero_depth_panics() {
        let t = tree(4, 10);
        let mut edges = Vec::new();
        count_edges(&ParCtx::serial(), &t, 0, &mut edges);
    }
}
