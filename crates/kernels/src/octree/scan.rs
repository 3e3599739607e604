//! Stage 6: exclusive prefix sum.

use crate::ParCtx;

/// Writes the exclusive prefix sum of `input` into `out` and returns the
/// total. Two-pass parallel scan: per-chunk partial sums, a serial scan of
/// the partials, then a parallel add-offsets pass — the classic
/// work-efficient structure (two kernel launches on a GPU).
pub(crate) fn exclusive_scan(ctx: &ParCtx, input: &[u32], out: &mut Vec<u32>) -> u32 {
    out.clear();
    out.resize(input.len(), 0);
    let n = input.len();
    if n == 0 {
        return 0;
    }
    let workers = ctx.threads().min(n);
    let chunk = n.div_ceil(workers);

    // Pass 1: local exclusive scans.
    ctx.for_each_chunk(out, |offset, slots| {
        let mut acc = 0u32;
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = acc;
            acc += input[offset + i];
        }
    });

    // Serial scan of per-chunk totals.
    let mut totals = Vec::with_capacity(workers);
    let mut acc = 0u32;
    let mut starts = Vec::with_capacity(workers);
    let mut offset = 0;
    while offset < n {
        let end = (offset + chunk).min(n);
        starts.push((offset, acc));
        let chunk_total: u32 = input[offset..end].iter().sum();
        acc += chunk_total;
        totals.push(chunk_total);
        offset = end;
    }
    let grand_total = acc;

    // Pass 2: add chunk offsets.
    ctx.for_each_chunk(out, |offset, slots| {
        // Find this chunk's base offset; chunk boundaries are identical to
        // pass 1 because for_each_chunk uses deterministic static chunking.
        let base = starts
            .iter()
            .rev()
            .find(|(s, _)| *s <= offset)
            .map(|(_, acc)| *acc)
            .unwrap_or(0);
        // Offsets within a chunk already include the local scan; only add
        // the base when the chunk start matches exactly.
        debug_assert!(starts.iter().any(|(s, _)| *s == offset));
        for slot in slots.iter_mut() {
            *slot += base;
        }
    });
    grand_total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(input: &[u32]) -> (Vec<u32>, u32) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &x in input {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn matches_reference() {
        let input: Vec<u32> = (0..1000).map(|i| (i * 7 % 13) as u32).collect();
        let (expect, total) = reference(&input);
        let mut out = Vec::new();
        let got_total = exclusive_scan(&ParCtx::new(4), &input, &mut out);
        assert_eq!(out, expect);
        assert_eq!(got_total, total);
    }

    #[test]
    fn empty_input() {
        let mut out = vec![1, 2, 3];
        assert_eq!(exclusive_scan(&ParCtx::new(2), &[], &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn single_element() {
        let mut out = Vec::new();
        assert_eq!(exclusive_scan(&ParCtx::new(2), &[5], &mut out), 5);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn all_zeros() {
        let mut out = Vec::new();
        assert_eq!(exclusive_scan(&ParCtx::new(3), &[0; 100], &mut out), 0);
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn worker_counts_agree() {
        let input: Vec<u32> = (0..777).map(|i| (i % 5) as u32).collect();
        let (expect, _) = reference(&input);
        for workers in [1, 2, 3, 8, 16] {
            let mut out = Vec::new();
            exclusive_scan(&ParCtx::new(workers), &input, &mut out);
            assert_eq!(out, expect, "workers = {workers}");
        }
    }
}
