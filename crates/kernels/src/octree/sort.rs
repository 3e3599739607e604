//! Stage 2: LSD radix sort of Morton codes (8-bit digits, 4 passes).

use crate::ParCtx;

const RADIX: usize = 256;
const PASSES: usize = 4;

/// Sorts `data` in place (via `scratch`) with a stable LSD radix sort.
/// The four digit histograms are computed in parallel in one read of the
/// input (a pass permutes the values but not their digit counts); the
/// scatter of each pass is serial to preserve stability — mirroring the
/// structure (and the serial bottleneck) of the paper's CPU radix sort
/// stage.
///
/// `scratch` is resized as needed.
pub(crate) fn radix_sort_u32(ctx: &ParCtx, data: &mut [u32], scratch: &mut Vec<u32>) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    scratch.clear();
    scratch.resize(n, 0);

    // Parallel histograms, one per pass.
    let src: &[u32] = data;
    let hists = ctx.reduce(
        n,
        [[0u32; RADIX]; PASSES],
        |range| {
            let mut h = [[0u32; RADIX]; PASSES];
            for &v in &src[range] {
                for (pass, hist) in h.iter_mut().enumerate() {
                    hist[((v >> (pass * 8)) & 0xff) as usize] += 1;
                }
            }
            h
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().flatten().zip(b.iter().flatten()) {
                *x += y;
            }
            a
        },
    );

    for (pass, hist) in hists.iter().enumerate() {
        let shift = (pass * 8) as u32;

        // Exclusive scan of the histogram.
        let mut offsets = [0u32; RADIX];
        let mut acc = 0u32;
        for (offset, &count) in offsets.iter_mut().zip(hist) {
            *offset = acc;
            acc += count;
        }

        // Stable serial scatter.
        // SAFETY-free split: we need one of data/scratch immutably and the
        // other mutably; alternate per pass.
        if pass % 2 == 0 {
            for &v in data.iter() {
                let d = ((v >> shift) & 0xff) as usize;
                scratch[offsets[d] as usize] = v;
                offsets[d] += 1;
            }
        } else {
            for &v in scratch.iter() {
                let d = ((v >> shift) & 0xff) as usize;
                data[offsets[d] as usize] = v;
                offsets[d] += 1;
            }
        }
    }
    // PASSES is even, so the result ends back in `data`.
    const _: () = assert!(PASSES.is_multiple_of(2));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_sorts(mut input: Vec<u32>) {
        let mut expect = input.clone();
        expect.sort_unstable();
        let mut scratch = Vec::new();
        radix_sort_u32(&ParCtx::new(4), &mut input, &mut scratch);
        assert_eq!(input, expect);
    }

    #[test]
    fn sorts_random_data() {
        let mut rng = StdRng::seed_from_u64(1);
        check_sorts(
            (0..10_000)
                .map(|_| rng.gen::<u32>() & 0x3fff_ffff)
                .collect(),
        );
    }

    #[test]
    fn sorts_full_range_values() {
        let mut rng = StdRng::seed_from_u64(2);
        check_sorts((0..5000).map(|_| rng.gen()).collect());
    }

    #[test]
    fn handles_duplicates() {
        let mut rng = StdRng::seed_from_u64(3);
        check_sorts((0..5000).map(|_| rng.gen_range(0..16u32)).collect());
    }

    #[test]
    fn edge_cases() {
        check_sorts(vec![]);
        check_sorts(vec![42]);
        check_sorts(vec![2, 1]);
        check_sorts(vec![7; 100]);
    }

    #[test]
    fn already_sorted_and_reversed() {
        check_sorts((0..1000).collect());
        check_sorts((0..1000).rev().collect());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let input: Vec<u32> = (0..3000).map(|_| rng.gen()).collect();
        let mut a = input.clone();
        let mut b = input;
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        radix_sort_u32(&ParCtx::serial(), &mut a, &mut s1);
        radix_sort_u32(&ParCtx::new(8), &mut b, &mut s2);
        assert_eq!(a, b);
    }
}
