//! The one scoped-thread fan-out for independent evaluations.
//!
//! Everything the stack prices many times over — the lanes of
//! [`simulate_batch`](crate::simulate_batch), the rows of a profiling
//! table, the 𝒦 autotuning candidates and homogeneous baselines of the
//! Fig. 2 loop, the group-leader cold solves of a served burst — is a map
//! of a pure function over `0..n`, so all of them share this function and
//! its policy: `min(cores, n)` scoped workers pulling indices from one
//! counter, serial when that is ≤ 1 or the caller's `parallel` flag is off
//! (wall-clock backends keep it off so measurements cannot perturb each
//! other). Results are merged **in index order**, so the output is
//! byte-identical to the serial map.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates `f(0..n)` and collects the results in index order.
///
/// Callers with a fallible `f` collect the returned `Vec<Result<_, E>>`
/// themselves and thereby surface the error of the *smallest* failing
/// index — the one a serial loop would hit first.
///
/// # Panics
///
/// Propagates a panic of `f` once every worker has been joined.
pub fn fan_out<T: Send>(n: usize, parallel: bool, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(n);
    if !parallel || workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indices and
                        // publishes nothing; results travel through join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in per_worker.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|v| v.expect("work counter covers every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole contract in one place (it replaces the tests of the four
    /// hand-copied loops this function folded together).
    #[test]
    fn serial_and_parallel_agree_in_index_order() {
        assert_eq!(
            fan_out(100, false, |i| i * 3),
            fan_out(100, true, |i| i * 3)
        );
        assert_eq!(fan_out(100, true, |i| i * 3)[7], 21);

        // n = 0 and n = 1 never leave the calling thread.
        let caller = std::thread::current().id();
        assert!(fan_out(0, true, |_| -> u8 { unreachable!() }).is_empty());
        assert_eq!(fan_out(1, true, |_| std::thread::current().id()), [caller]);

        // A fallible map surfaces the smallest failing index, not the
        // first worker to fail.
        for parallel in [false, true] {
            let r: Result<Vec<usize>, usize> =
                fan_out(50, parallel, |i| if i % 17 == 13 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect();
            assert_eq!(r, Err(13), "parallel={parallel}");
        }
    }
}
