//! Stage 3: duplicate removal over sorted codes.

use crate::ParCtx;

/// Compacts a sorted slice into `out`, keeping one copy of each value.
/// A parallel mark phase flags run heads; compaction is a serial sweep
/// (exactly the structure of the paper's GPU dedup: mark → scan → scatter).
///
/// # Panics
///
/// Panics in debug builds if `sorted` is not sorted.
pub(crate) fn dedup_sorted(ctx: &ParCtx, sorted: &[u32], out: &mut Vec<u32>) {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    out.clear();
    if sorted.is_empty() {
        return;
    }
    // Parallel mark: head[i] = 1 iff sorted[i] starts a new run.
    let mut heads = vec![0u8; sorted.len()];
    ctx.for_each_chunk(&mut heads, |offset, chunk| {
        for (i, h) in chunk.iter_mut().enumerate() {
            let idx = offset + i;
            *h = u8::from(idx == 0 || sorted[idx] != sorted[idx - 1]);
        }
    });
    out.reserve(sorted.len());
    for (i, &h) in heads.iter().enumerate() {
        if h == 1 {
            out.push(sorted[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(input: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        dedup_sorted(&ParCtx::new(4), input, &mut out);
        out
    }

    #[test]
    fn removes_duplicates() {
        assert_eq!(run(&[1, 1, 2, 3, 3, 3, 4]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(run(&[]), Vec::<u32>::new());
        assert_eq!(run(&[5]), vec![5]);
    }

    #[test]
    fn all_same() {
        assert_eq!(run(&[9; 1000]), vec![9]);
    }

    #[test]
    fn all_unique_is_identity() {
        let input: Vec<u32> = (0..500).collect();
        assert_eq!(run(&input), input);
    }

    #[test]
    fn matches_std_dedup_on_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut data: Vec<u32> = (0..5000).map(|_| rng.gen_range(0..800)).collect();
        data.sort_unstable();
        let mut expect = data.clone();
        expect.dedup();
        assert_eq!(run(&data), expect);
    }
}
