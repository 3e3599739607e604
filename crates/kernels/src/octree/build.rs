//! Stage 7: octree construction from the radix tree, edge counts, and their
//! prefix sum (Karras 2012, §4).
//!
//! Every radix-tree node (internal or leaf) whose prefix crosses `edges[x]`
//! 3-bit boundaries contributes a chain of `edges[x]` octree cells; cell 0
//! is the explicit root. Parents within a chain are the chain predecessor;
//! a chain's top cell attaches to the deepest cell of the nearest radix
//! ancestor that produced cells (pointer chasing — the irregular part the
//! paper highlights as GPU-hostile).

use std::ops::Range;

use crate::octree::{RadixTree, MORTON_BITS};
use crate::ParCtx;

/// Marker for an absent child slot.
const NO_CHILD: u32 = u32::MAX;

/// A linked octree over Morton-coded points.
#[derive(Debug, Clone)]
pub struct Octree {
    children: Vec<[u32; 8]>,
    level: Vec<u8>,
    code: Vec<u32>,
    first_key: Vec<u32>,
    last_key: Vec<u32>,
    max_depth: u32,
}

impl Octree {
    /// Number of cells, including the root.
    pub fn cell_count(&self) -> usize {
        self.level.len()
    }

    /// Children of `cell` (`u32::MAX` marks empty slots).
    #[cfg(test)]
    pub(crate) fn children(&self, cell: usize) -> &[u32; 8] {
        &self.children[cell]
    }

    /// Depth of `cell` (root = 0).
    pub(crate) fn level(&self, cell: usize) -> u32 {
        self.level[cell] as u32
    }

    /// Morton prefix of `cell`: the high `3·level` bits of every key it
    /// covers, right-aligned.
    pub(crate) fn code(&self, cell: usize) -> u32 {
        self.code[cell]
    }

    /// Range of key indices covered by `cell` (inclusive).
    pub fn key_range(&self, cell: usize) -> (usize, usize) {
        (self.first_key[cell] as usize, self.last_key[cell] as usize)
    }

    /// Iterates over the cells at exactly `depth` — the occupancy voxels
    /// OctoMap-style consumers query at their mapping resolution.
    #[cfg(test)]
    pub(crate) fn cells_at_depth(&self, depth: u32) -> impl Iterator<Item = usize> + '_ {
        (0..self.cell_count()).filter(move |&c| self.level(c) == depth)
    }

    /// Number of children of `cell`.
    #[cfg(test)]
    pub(crate) fn child_count(&self, cell: usize) -> usize {
        self.children[cell]
            .iter()
            .filter(|&&c| c != NO_CHILD)
            .count()
    }

    /// Whether `cell` has no children (a leaf of the truncated octree).
    #[cfg(test)]
    pub(crate) fn is_leaf(&self, cell: usize) -> bool {
        self.child_count(cell) == 0
    }

    /// The axis-aligned voxel of `cell` in the unit cube:
    /// `(min corner, side length)`.
    #[cfg(test)]
    pub(crate) fn cell_bounds(&self, cell: usize) -> ([f32; 3], f32) {
        let level = self.level(cell);
        let side = 1.0 / (1u32 << level) as f32;
        // De-interleave the cell's Morton prefix back into grid coords.
        let code = self.code(cell);
        let mut coords = [0u32; 3];
        for bit in 0..level {
            for (axis, coord) in coords.iter_mut().enumerate() {
                let b = (code >> (3 * (level - 1 - bit) + axis as u32)) & 1;
                *coord = (*coord << 1) | b;
            }
        }
        (
            [
                coords[0] as f32 * side,
                coords[1] as f32 * side,
                coords[2] as f32 * side,
            ],
            side,
        )
    }

    /// Walks from the root towards `key`, returning the deepest existing
    /// cell whose prefix contains it.
    pub fn locate(&self, key: u32) -> usize {
        let mut cell = 0usize;
        loop {
            let next_level = self.level(cell) + 1;
            if next_level > self.max_depth {
                return cell;
            }
            let digit = (key >> (MORTON_BITS - 3 * next_level)) & 7;
            let child = self.children[cell][digit as usize];
            if child == NO_CHILD {
                return cell;
            }
            let child = child as usize;
            debug_assert_eq!(
                self.code(child),
                key >> (MORTON_BITS - 3 * self.level(child))
            );
            cell = child;
        }
    }
}

/// Builds the octree. `edges` and `offsets` must come from
/// [`crate::octree::count_edges`] (with the same `max_depth`) and
/// [`crate::octree::exclusive_scan`] over the same `tree`; `total` is the
/// scan's grand total.
///
/// # Panics
///
/// Panics if array lengths are inconsistent with `tree`.
pub(crate) fn build_octree(
    ctx: &ParCtx,
    tree: &RadixTree,
    edges: &[u32],
    offsets: &[u32],
    total: u32,
    max_depth: u32,
) -> Octree {
    let internal = tree.internal_count();
    let n_keys = tree.keys().len();
    let n_nodes = internal + n_keys;
    assert_eq!(edges.len(), n_nodes, "edges length mismatch");
    assert_eq!(offsets.len(), n_nodes, "offsets length mismatch");

    let cells = total as usize + 1;
    let mut level = vec![0u8; cells];
    let mut code = vec![0u32; cells];
    let mut first_key = vec![0u32; cells];
    let mut last_key = vec![0u32; cells];
    // Parent of each non-root cell, written with the cell's chain; child
    // pointers are linked serially afterwards to avoid write races.
    let mut parent_of = vec![NO_CHILD; cells];

    // Root covers everything.
    last_key[0] = (n_keys - 1) as u32;

    let clamped_level = |i: usize| (tree.prefix_len(i) / 3).min(max_depth);

    // anchor(j): deepest cell at or above *internal* radix node j.
    let anchor = |j: u32| -> u32 {
        let mut cur = j;
        loop {
            if edges[cur as usize] > 0 {
                return offsets[cur as usize] + edges[cur as usize]; // 1-based cell idx
            }
            let p = tree.parent(cur as usize);
            if p == u32::MAX {
                return 0; // root cell
            }
            cur = p;
        }
    };

    // One chain of cells per radix node (internal or leaf) with edges > 0,
    // written straight to its cells.
    let fill = |nodes: Range<usize>, cells: &mut Cells| {
        for x in nodes {
            let e = edges[x];
            if e == 0 {
                continue;
            }
            let (parent_node, key, first, last) = if x < internal {
                (
                    tree.parent(x),
                    tree.keys()[tree.first(x)],
                    tree.first(x) as u32,
                    tree.last(x) as u32,
                )
            } else {
                let q = x - internal;
                (tree.leaf_parent(q), tree.keys()[q], q as u32, q as u32)
            };
            let (parent_level, above) = if parent_node == u32::MAX {
                (0, 0)
            } else {
                (clamped_level(parent_node as usize), anchor(parent_node))
            };
            let top = offsets[x] + 1; // cell index of the chain top
            for (k, c) in (0..e).zip(top as usize - cells.base..) {
                let lvl = parent_level + 1 + k;
                cells.level[c] = lvl as u8;
                cells.code[c] = key >> (MORTON_BITS - 3 * lvl);
                cells.first[c] = first;
                cells.last[c] = last;
                cells.parent[c] = if k == 0 { above } else { top + k - 1 };
            }
        }
    };

    // Node x's chain is cells offsets[x]+1 ..= offsets[x]+edges[x], which
    // is monotone in x: a contiguous range of nodes owns a contiguous range
    // of cells, so each worker fills its own slice of every column.
    let per_worker = n_nodes.div_ceil(ctx.threads());
    let mut rest = Cells {
        base: 1,
        level: &mut level[1..],
        code: &mut code[1..],
        first: &mut first_key[1..],
        last: &mut last_key[1..],
        parent: &mut parent_of[1..],
    };
    let mut jobs: Vec<_> = (0..n_nodes)
        .step_by(per_worker)
        .map(|start| {
            let end = (start + per_worker).min(n_nodes);
            let cut = offsets.get(end).map_or(cells, |&o| o as usize + 1);
            (start..end, rest.take_front(cut))
        })
        .collect();
    ctx.for_each_chunk(&mut jobs, |_, jobs| {
        for (nodes, cells) in jobs {
            fill(nodes.clone(), cells);
        }
    });

    // Serial child linking.
    let mut children = vec![[NO_CHILD; 8]; cells];
    for c in 1..cells {
        let p = parent_of[c] as usize;
        debug_assert_eq!(
            level[c] as usize,
            level[p] as usize + 1,
            "levels must chain"
        );
        let digit = (code[c] & 7) as usize;
        debug_assert_eq!(
            children[p][digit], NO_CHILD,
            "cell slot claimed twice (p={p}, digit={digit})"
        );
        children[p][digit] = c as u32;
    }

    Octree {
        children,
        level,
        code,
        first_key,
        last_key,
        max_depth,
    }
}

/// The columns `build_octree` fills, for the cells from index `base` on.
struct Cells<'a> {
    base: usize,
    level: &'a mut [u8],
    code: &'a mut [u32],
    first: &'a mut [u32],
    last: &'a mut [u32],
    parent: &'a mut [u32],
}

impl<'a> Cells<'a> {
    /// Detaches the cells before index `cut`.
    fn take_front(&mut self, cut: usize) -> Cells<'a> {
        fn take<'a, T>(column: &mut &'a mut [T], mid: usize) -> &'a mut [T] {
            let (front, back) = std::mem::take(column).split_at_mut(mid);
            *column = back;
            front
        }
        let mid = cut - self.base;
        let front = Cells {
            base: self.base,
            level: take(&mut self.level, mid),
            code: take(&mut self.code, mid),
            first: take(&mut self.first, mid),
            last: take(&mut self.last, mid),
            parent: take(&mut self.parent, mid),
        };
        self.base = cut;
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::{count_edges, exclusive_scan, morton_encode_cloud};
    use crate::pointcloud::{CloudShape, PointCloudStream};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pipeline(keys: &[u32], depth: u32, ctx: &ParCtx) -> Octree {
        let tree = RadixTree::build(ctx, keys);
        let mut edges = Vec::new();
        count_edges(ctx, &tree, depth, &mut edges);
        let mut offsets = Vec::new();
        let total = exclusive_scan(ctx, &edges, &mut offsets);
        build_octree(ctx, &tree, &edges, &offsets, total, depth)
    }

    fn unique_keys(seed: u64, n: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..(1u32 << MORTON_BITS)));
        }
        set.into_iter().collect()
    }

    /// The octree as it was first built, the oracle for the in-place fill:
    /// every radix node pushes its chain into a `Vec` of its own, the
    /// `Vec`s are flattened, and the cells are scattered into the columns.
    fn old_fill_reference(
        tree: &RadixTree,
        edges: &[u32],
        offsets: &[u32],
        total: u32,
        max_depth: u32,
    ) -> Octree {
        struct CellInit {
            idx: u32,
            level: u8,
            code: u32,
            first: u32,
            last: u32,
            parent: u32,
        }
        let internal = tree.internal_count();
        let n_keys = tree.keys().len();
        let cells = total as usize + 1;
        let clamped_level = |i: usize| (tree.prefix_len(i) / 3).min(max_depth);
        let anchor = |j: u32| -> u32 {
            let mut cur = j;
            loop {
                if edges[cur as usize] > 0 {
                    return offsets[cur as usize] + edges[cur as usize];
                }
                let p = tree.parent(cur as usize);
                if p == u32::MAX {
                    return 0;
                }
                cur = p;
            }
        };
        let mut slots: Vec<Vec<CellInit>> = Vec::with_capacity(internal + n_keys);
        slots.resize_with(internal + n_keys, Vec::new);
        for (x, slot) in slots.iter_mut().enumerate() {
            let e = edges[x];
            if e == 0 {
                continue;
            }
            let (parent_node, key, first, last) = if x < internal {
                (
                    tree.parent(x),
                    tree.keys()[tree.first(x)],
                    tree.first(x) as u32,
                    tree.last(x) as u32,
                )
            } else {
                let q = x - internal;
                (tree.leaf_parent(q), tree.keys()[q], q as u32, q as u32)
            };
            let (parent_level, above) = if parent_node == u32::MAX {
                (0, 0)
            } else {
                (clamped_level(parent_node as usize), anchor(parent_node))
            };
            let base = offsets[x] + 1;
            for k in 0..e {
                let lvl = parent_level + 1 + k;
                slot.push(CellInit {
                    idx: base + k,
                    level: lvl as u8,
                    code: key >> (MORTON_BITS - 3 * lvl),
                    first,
                    last,
                    parent: if k == 0 { above } else { base + k - 1 },
                });
            }
        }
        let mut octree = Octree {
            children: vec![[NO_CHILD; 8]; cells],
            level: vec![0; cells],
            code: vec![0; cells],
            first_key: vec![0; cells],
            last_key: vec![0; cells],
            max_depth,
        };
        octree.last_key[0] = (n_keys - 1) as u32;
        let mut parent_of = vec![NO_CHILD; cells];
        for init in slots.into_iter().flatten() {
            let c = init.idx as usize;
            octree.level[c] = init.level;
            octree.code[c] = init.code;
            octree.first_key[c] = init.first;
            octree.last_key[c] = init.last;
            parent_of[c] = init.parent;
        }
        for (c, &p) in parent_of.iter().enumerate().skip(1) {
            octree.children[p as usize][(octree.code[c] & 7) as usize] = c as u32;
        }
        octree
    }

    /// `build_octree`, serial and on 3 workers, equals the old fill.
    fn assert_matches_old_fill(keys: &[u32]) {
        let tree = RadixTree::build(&ParCtx::serial(), keys);
        for depth in [1, 6, 10] {
            let mut edges = Vec::new();
            count_edges(&ParCtx::serial(), &tree, depth, &mut edges);
            let mut offsets = Vec::new();
            let total = exclusive_scan(&ParCtx::serial(), &edges, &mut offsets);
            let want = old_fill_reference(&tree, &edges, &offsets, total, depth);
            for ctx in [ParCtx::serial(), ParCtx::new(3)] {
                let got = build_octree(&ctx, &tree, &edges, &offsets, total, depth);
                assert_eq!(got.cell_count(), want.cell_count(), "depth {depth}");
                for c in 0..got.cell_count() {
                    assert_eq!(got.children(c), want.children(c), "children of {c}");
                    assert_eq!(got.level(c), want.level(c), "level of {c}");
                    assert_eq!(got.code(c), want.code(c), "code of {c}");
                    assert_eq!(got.key_range(c), want.key_range(c), "keys of {c}");
                }
            }
        }
    }

    #[test]
    fn in_place_fill_matches_old_fill() {
        for (seed, n) in [(12, 1), (13, 2), (14, 9), (15, 700)] {
            assert_matches_old_fill(&unique_keys(seed, n));
        }
        let cloud = PointCloudStream::new(CloudShape::Clustered, 3).next_cloud(20_000);
        let mut keys = Vec::new();
        morton_encode_cloud(&ParCtx::serial(), &cloud, &mut keys);
        keys.sort_unstable();
        keys.dedup();
        assert_matches_old_fill(&keys);
    }

    #[test]
    fn one_key_gives_a_root_and_a_full_depth_chain() {
        for depth in [1, 6, 10] {
            let octree = pipeline(&[0o1234567], depth, &ParCtx::new(2));
            assert_eq!(octree.cell_count(), depth as usize + 1);
            let leaf = octree.locate(0o1234567);
            assert_eq!(octree.level(leaf), depth);
            assert_eq!(octree.key_range(leaf), (0, 0));
        }
    }

    #[test]
    fn cell_count_is_one_plus_edge_total() {
        let keys = unique_keys(1, 500);
        let ctx = ParCtx::new(4);
        let tree = RadixTree::build(&ctx, &keys);
        let mut edges = Vec::new();
        count_edges(&ctx, &tree, 6, &mut edges);
        let mut offsets = Vec::new();
        let total = exclusive_scan(&ctx, &edges, &mut offsets);
        let octree = build_octree(&ctx, &tree, &edges, &offsets, total, 6);
        assert_eq!(octree.cell_count(), total as usize + 1);
    }

    #[test]
    fn child_levels_increase_by_one() {
        let keys = unique_keys(2, 300);
        let octree = pipeline(&keys, 8, &ParCtx::new(4));
        for c in 0..octree.cell_count() {
            for &child in octree.children(c) {
                if child != NO_CHILD {
                    assert_eq!(octree.level(child as usize), octree.level(c) + 1);
                }
            }
        }
    }

    #[test]
    fn child_codes_extend_parent_codes() {
        let keys = unique_keys(3, 300);
        let octree = pipeline(&keys, 10, &ParCtx::new(4));
        for c in 0..octree.cell_count() {
            for (digit, &child) in octree.children(c).iter().enumerate() {
                if child != NO_CHILD {
                    let child = child as usize;
                    assert_eq!(octree.code(child) >> 3, octree.code(c), "prefix extends");
                    assert_eq!((octree.code(child) & 7) as usize, digit, "digit slot");
                }
            }
        }
    }

    #[test]
    fn cell_codes_are_unique_per_level() {
        let keys = unique_keys(4, 400);
        let octree = pipeline(&keys, 7, &ParCtx::new(4));
        let mut seen = std::collections::HashSet::new();
        for c in 0..octree.cell_count() {
            assert!(
                seen.insert((octree.level(c), octree.code(c))),
                "duplicate cell (level {}, code {:#x})",
                octree.level(c),
                octree.code(c)
            );
        }
    }

    #[test]
    fn every_key_locates_to_its_full_depth_voxel() {
        let keys = unique_keys(5, 250);
        let depth = 10;
        let octree = pipeline(&keys, depth, &ParCtx::new(4));
        for (idx, &key) in keys.iter().enumerate() {
            let cell = octree.locate(key);
            // At full depth every key gets its own leaf voxel.
            assert_eq!(octree.level(cell), depth, "key {idx}");
            assert_eq!(octree.key_range(cell), (idx, idx));
            assert_eq!(octree.code(cell), key);
        }
    }

    #[test]
    fn truncated_depth_still_covers_every_key() {
        let keys = unique_keys(6, 300);
        let depth = 3;
        let octree = pipeline(&keys, depth, &ParCtx::new(4));
        for (idx, &key) in keys.iter().enumerate() {
            let cell = octree.locate(key);
            let (lo, hi) = octree.key_range(cell);
            assert!((lo..=hi).contains(&idx), "key {idx} in [{lo},{hi}]");
            assert!(octree.level(cell) <= depth);
            let lvl = octree.level(cell);
            if lvl > 0 {
                assert_eq!(octree.code(cell), key >> (MORTON_BITS - 3 * lvl));
            }
        }
    }

    #[test]
    fn key_ranges_nest() {
        let keys = unique_keys(7, 200);
        let octree = pipeline(&keys, 9, &ParCtx::new(4));
        for c in 0..octree.cell_count() {
            let (plo, phi) = octree.key_range(c);
            for &child in octree.children(c) {
                if child != NO_CHILD {
                    let (clo, chi) = octree.key_range(child as usize);
                    assert!(plo <= clo && chi <= phi, "child range escapes parent");
                }
            }
        }
    }

    #[test]
    fn octant_keys_fill_root_children() {
        let keys: Vec<u32> = (0..8u32).map(|d| d << (MORTON_BITS - 3)).collect();
        let octree = pipeline(&keys, 1, &ParCtx::serial());
        assert_eq!(octree.cell_count(), 9);
        for digit in 0..8 {
            let child = octree.children(0)[digit];
            assert_ne!(child, NO_CHILD, "octant {digit} missing");
            assert_eq!(octree.code(child as usize) as usize, digit);
        }
    }

    #[test]
    fn occupancy_queries_and_leaves() {
        let keys = unique_keys(10, 200);
        let depth = 4;
        let octree = pipeline(&keys, depth, &ParCtx::new(2));
        // Every depth-`depth` cell is a leaf of the truncated tree, and the
        // deepest-level cells partition the key set.
        let mut covered = 0usize;
        for c in octree.cells_at_depth(depth) {
            assert!(octree.is_leaf(c), "cell {c} at max depth must be a leaf");
            let (lo, hi) = octree.key_range(c);
            covered += hi - lo + 1;
        }
        assert_eq!(covered, keys.len(), "depth-level cells cover every key");
        // Non-leaves have 1..=8 children.
        for c in 0..octree.cell_count() {
            assert!(octree.child_count(c) <= 8);
        }
    }

    #[test]
    fn cell_bounds_contain_their_points() {
        use crate::octree::morton_decode;
        let keys = unique_keys(11, 150);
        let depth = 5;
        let octree = pipeline(&keys, depth, &ParCtx::new(2));
        for &key in keys.iter().step_by(7) {
            let cell = octree.locate(key);
            let ([x0, y0, z0], side) = octree.cell_bounds(cell);
            let p = morton_decode(key);
            let eps = 1e-5;
            assert!(
                p[0] >= x0 - eps && p[0] < x0 + side + eps,
                "x {p:?} in [{x0}, {})",
                x0 + side
            );
            assert!(p[1] >= y0 - eps && p[1] < y0 + side + eps);
            assert!(p[2] >= z0 - eps && p[2] < z0 + side + eps);
        }
        // The root voxel is the whole unit cube.
        assert_eq!(octree.cell_bounds(0), ([0.0, 0.0, 0.0], 1.0));
    }

    #[test]
    fn serial_parallel_build_identical() {
        let keys = unique_keys(8, 350);
        let a = pipeline(&keys, 6, &ParCtx::serial());
        let b = pipeline(&keys, 6, &ParCtx::new(8));
        assert_eq!(a.cell_count(), b.cell_count());
        for c in 0..a.cell_count() {
            assert_eq!(a.children(c), b.children(c));
            assert_eq!(a.code(c), b.code(c));
        }
    }

    #[test]
    fn matches_pointer_based_reference_octree() {
        // Independent reference: insert every key into a pointer-based
        // octree; compare the (level, code) cell sets.
        let keys = unique_keys(9, 150);
        let depth = 5;
        let octree = pipeline(&keys, depth, &ParCtx::new(4));

        let mut reference = std::collections::HashSet::new();
        reference.insert((0u32, 0u32)); // root
        for &key in &keys {
            for lvl in 1..=depth {
                reference.insert((lvl, key >> (MORTON_BITS - 3 * lvl)));
            }
        }
        let mut got = std::collections::HashSet::new();
        for c in 0..octree.cell_count() {
            got.insert((octree.level(c), octree.code(c)));
        }
        assert_eq!(got, reference);
    }
}
