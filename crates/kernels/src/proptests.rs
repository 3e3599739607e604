//! Property-based tests of the compute kernels: the octree stages against
//! standard-library oracles and structural invariants, and CSR round trips
//! and pruning, over randomized inputs.

use proptest::prelude::*;

use crate::octree::{
    build_octree, count_edges, dedup_sorted, exclusive_scan, morton_decode, morton_encode,
    radix_sort_u32, RadixTree, MORTON_BITS,
};
use crate::pointcloud::Point3;
use crate::sparse::{prune_to_csr, CsrMatrix};
use crate::ParCtx;

fn unit_point() -> impl Strategy<Value = Point3> {
    [0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn radix_sort_matches_std(mut data in proptest::collection::vec(any::<u32>(), 0..3000)) {
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scratch = Vec::new();
        radix_sort_u32(&ParCtx::new(3), &mut data, &mut scratch);
        prop_assert_eq!(data, expect);
    }

    /// Inputs whose high digits are all equal: every value shares its top
    /// `32 - 8·low_digits` bits, so the upper passes see one bucket.
    #[test]
    fn radix_sort_matches_std_with_equal_high_digits(
        low in proptest::collection::vec(any::<u32>(), 0..3000),
        high in any::<u32>(),
        low_digits in 0u32..4,
        threads in 1usize..5,
    ) {
        let mask = (1u32 << (8 * low_digits)) - 1;
        let mut data: Vec<u32> = low.iter().map(|&v| (high & !mask) | (v & mask)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scratch = Vec::new();
        radix_sort_u32(&ParCtx::new(threads), &mut data, &mut scratch);
        prop_assert_eq!(data, expect);
    }

    #[test]
    fn dedup_matches_std(mut data in proptest::collection::vec(0u32..500, 0..2000)) {
        data.sort_unstable();
        let mut expect = data.clone();
        expect.dedup();
        let mut got = Vec::new();
        dedup_sorted(&ParCtx::new(4), &data, &mut got);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn exclusive_scan_matches_fold(data in proptest::collection::vec(0u32..1000, 0..2000)) {
        let mut expect = Vec::with_capacity(data.len());
        let mut acc = 0u32;
        for &x in &data {
            expect.push(acc);
            acc += x;
        }
        let mut got = Vec::new();
        let total = exclusive_scan(&ParCtx::new(5), &data, &mut got);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn morton_round_trip(p in unit_point()) {
        let code = morton_encode(p);
        prop_assert!(code < (1 << MORTON_BITS));
        let q = morton_decode(code);
        for axis in 0..3 {
            prop_assert!((p[axis] - q[axis]).abs() < 1.0 / 1024.0 + 1e-6);
        }
        // Re-encoding the decoded corner must be exact (idempotence).
        prop_assert_eq!(morton_encode(q), code);
    }

    #[test]
    fn morton_preserves_cell_ordering(a in unit_point(), b in unit_point()) {
        // Points in the same 1/1024 cell get the same code.
        let quant = |p: Point3| {
            [
                (p[0] * 1024.0) as u32,
                (p[1] * 1024.0) as u32,
                (p[2] * 1024.0) as u32,
            ]
        };
        if quant(a) == quant(b) {
            prop_assert_eq!(morton_encode(a), morton_encode(b));
        }
    }

    #[test]
    fn radix_tree_structure(keys in proptest::collection::btree_set(0u32..(1 << MORTON_BITS), 1..400)) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let ctx = ParCtx::new(3);
        let tree = RadixTree::build(&ctx, &keys);
        prop_assert_eq!(tree.internal_count(), keys.len() - 1);
        for i in 0..tree.internal_count() {
            // Ranges are proper and the prefix really is common.
            prop_assert!(tree.first(i) <= tree.last(i));
            let len = tree.prefix_len(i);
            if len > 0 {
                let shift = MORTON_BITS - len;
                let prefix = keys[tree.first(i)] >> shift;
                for key in &keys[tree.first(i)..=tree.last(i)] {
                    prop_assert_eq!(key >> shift, prefix);
                }
            }
        }
        // Every leaf has an internal parent whose range covers it, but
        // the lone leaf of a one-key tree, which has none.
        for q in 0..keys.len() {
            let p = tree.leaf_parent(q);
            if keys.len() == 1 {
                prop_assert_eq!(p, u32::MAX);
            } else {
                let p = p as usize;
                prop_assert!(tree.first(p) <= q && q <= tree.last(p));
            }
        }
    }

    #[test]
    fn octree_equals_pointer_reference(
        keys in proptest::collection::btree_set(0u32..(1 << MORTON_BITS), 1..300),
        depth in 1u32..=10,
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let ctx = ParCtx::new(2);
        let tree = RadixTree::build(&ctx, &keys);
        let mut edges = Vec::new();
        count_edges(&ctx, &tree, depth, &mut edges);
        let mut offsets = Vec::new();
        let total = exclusive_scan(&ctx, &edges, &mut offsets);
        let octree = build_octree(&ctx, &tree, &edges, &offsets, total, depth);

        // Reference: the set of all distinct key prefixes at levels 0..=depth.
        let mut reference = std::collections::HashSet::new();
        reference.insert((0u32, 0u32));
        for &key in &keys {
            for lvl in 1..=depth {
                reference.insert((lvl, key >> (MORTON_BITS - 3 * lvl)));
            }
        }
        let mut got = std::collections::HashSet::new();
        for c in 0..octree.cell_count() {
            prop_assert!(got.insert((octree.level(c), octree.code(c))), "duplicate cell");
        }
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn csr_round_trip(
        rows in 1usize..20,
        cols in 1usize..20,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dense: Vec<f32> = (0..rows * cols)
            .map(|_| if rng.gen_bool(0.4) { rng.gen_range(-1.0..1.0f32) } else { 0.0 })
            .collect();
        let csr = CsrMatrix::from_dense(&dense, rows, cols, 0.0);
        prop_assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn pruning_density_is_monotone(seed in any::<u64>()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dense: Vec<f32> = (0..40 * 40).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sparse = prune_to_csr(&dense, 40, 40, 0.1);
        let mid = prune_to_csr(&dense, 40, 40, 0.4);
        let full = prune_to_csr(&dense, 40, 40, 1.0);
        prop_assert!(sparse.nnz() <= mid.nnz());
        prop_assert!(mid.nnz() <= full.nnz());
        // Kept entries are a subset relation on magnitude: the smallest kept
        // at 10% must be ≥ the largest dropped at 10%.
        let kept_min = (0..40)
            .flat_map(|r| sparse.row(r))
            .map(|(_, v)| v.abs())
            .fold(f32::MAX, f32::min);
        let dropped_max = {
            let kept: std::collections::HashSet<(usize, usize)> = (0..40)
                .flat_map(|r| sparse.row(r).map(move |(c, _)| (r, c)))
                .collect();
            dense
                .iter()
                .enumerate()
                .filter(|(i, _)| !kept.contains(&(i / 40, i % 40)))
                .map(|(_, v)| v.abs())
                .fold(0.0f32, f32::max)
        };
        prop_assert!(kept_min >= dropped_max - 1e-6);
    }
}
