//! The one scoped-thread fan-out for independent evaluations, and the
//! work-size gate in front of it.
//!
//! Everything the stack prices many times over — the seed lanes of one
//! simulated schedule, the rows of a profiling table, the 𝒦 autotuning
//! candidates and homogeneous baselines of the Fig. 2 loop, the
//! group-leader cold solves of a served burst — is a map of a pure
//! function over `0..n`, so all of them share [`fan_out`] and its policy:
//! `min(cores, n)` scoped workers pulling indices from one counter,
//! results merged **in index order**, so the output is byte-identical to
//! the serial map.
//!
//! A caller's `parallel` flag is *permission*, not a decision (wall-clock
//! backends withhold it so measurements cannot perturb each other). The
//! decision is [`amortises_spawn`]: scheduling overhead is a per-item
//! constant (Corbera et al., PAPERS.md), so a caller passes `true` only
//! when **one item costs at least one spawn + join**. Traffic is bimodal
//! — a 35-task DES run is ≈ 12 µs, a profiling row ≈ 2.5 µs, a
//! 3 000-task lane ≈ 670 µs, a cold solve ≈ 115 µs, and nothing sits
//! between 40 and 3 000 DES tasks — so any threshold in 30–300 µs decides
//! identically and the constants below are `const`s, not options.
//!
//! Provenance (the `layerbench` ledger, 2-core reference box):
//! `SPAWN_JOIN_US` is the spawn + join of one scoped worker measured in
//! place (≈ 14 µs back to back in a tight loop, 45–50 µs where it is
//! used: `core.baselines_us` fell 122 → 20 µs when two ≈ 9 µs runs
//! stopped paying for two workers and a 12 µs core-count query);
//! `DES_EVENT_US` is `1 / soc.des.events_per_s` (25–28 M/s);
//! `DES_SETUP_US` is what `soc.des.short_run_us` (≈ 12 µs for 35 tasks ×
//! 3 chunks on a warm noise lane, ≈ 14 µs drawing its noise live) leaves
//! after its 210 events.
//!
//! A pool does not remove that cost here. A persistent parked helper for
//! `fan_out`, sized on the same 2-vCPU box, took 248 µs for 12 items of
//! 20 µs against 240 µs serial, and 147 µs for 12 items of 10 µs against
//! 120 µs serial, while two threads kept busy do scale (68 ms against
//! 104 ms serial). The cost is waking an idle vCPU, not the spawn, so
//! the per-item gate stays.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::RunConfig;

/// Spawn + join of one scoped worker, in host microseconds.
const SPAWN_JOIN_US: f64 = 50.0;
/// Fixed set-up of one DES run (engine state, pools, report assembly).
const DES_SETUP_US: f64 = 4.0;
/// Host time per simulated event.
const DES_EVENT_US: f64 = 0.04;

/// Whether one item of `item_us` estimated host microseconds amortises
/// the spawn + join of the worker that would run it — the only condition
/// under which a caller may pass `parallel = true` to [`fan_out`].
pub fn amortises_spawn(item_us: f64) -> bool {
    item_us >= SPAWN_JOIN_US
}

/// Estimated host microseconds of one DES run of `cfg` over `chunks`
/// chunks: fixed set-up plus `2 × total_tasks × chunks` events (one
/// dispatch and one completion per task per chunk).
pub fn des_run_us(cfg: &RunConfig, chunks: usize) -> f64 {
    DES_SETUP_US + DES_EVENT_US * 2.0 * cfg.total_tasks() as f64 * chunks as f64
}

/// Cores available to this process, asked once: the query re-reads the
/// cgroup files on every call (≈ 12 µs here), as much as the short runs
/// it used to precede.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Evaluates `f(0..n)` and collects the results in index order: on the
/// calling thread when `parallel` is off, `n ≤ 1` or the process has one
/// core, otherwise on `min(cores, n)` scoped workers.
///
/// Callers with a fallible `f` collect the returned `Vec<Result<_, E>>`
/// themselves and thereby surface the error of the *smallest* failing
/// index — the one a serial loop would hit first.
///
/// # Panics
///
/// Propagates the panic of the smallest panicking index, payload intact,
/// once every worker has been joined — what the serial map would raise.
pub fn fan_out<T: Send>(n: usize, parallel: bool, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if !parallel || n <= 1 || cores() <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, std::thread::Result<T>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores().min(n))
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
                        let r = catch_unwind(AssertUnwindSafe(|| f(i)));
                        if r.is_err() {
                            // Hand out nothing further. Every smaller
                            // index is already claimed and will finish.
                            next.store(n, Ordering::Relaxed);
                        }
                        out.push((i, r));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workers catch the panics of f"))
            .collect()
    });
    let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    // Claimed indices form a prefix, so a panic (if any) is met before
    // the first unclaimed slot.
    slots
        .into_iter()
        .map(|r| match r.expect("work counter covers every index") {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::ChunkSpec;
    use crate::{devices, simulate_dag, DagPipelineSpec, PuClass, WorkProfile};

    /// The whole contract in one place (it replaces the tests of the four
    /// hand-copied loops this function folded together).
    #[test]
    fn serial_and_parallel_agree_in_index_order() {
        assert_eq!(
            fan_out(100, false, |i| i * 3),
            fan_out(100, true, |i| i * 3)
        );
        assert_eq!(fan_out(100, true, |i| i * 3)[7], 21);

        // `parallel = false` and n ≤ 1 never leave the calling thread.
        let caller = std::thread::current().id();
        let here = |_| std::thread::current().id();
        assert!(fan_out(0, true, |_| -> u8 { unreachable!() }).is_empty());
        assert_eq!(fan_out(1, true, here), [caller]);
        assert_eq!(fan_out(8, false, here), [caller; 8]);
        if cores() > 1 {
            assert!(fan_out(8, true, here).iter().all(|&id| id != caller));
        }

        // A fallible map surfaces the smallest failing index, not the
        // first worker to fail — and so does a panicking one, with the
        // payload the serial map would have raised.
        for parallel in [false, true] {
            let r: Result<Vec<usize>, usize> =
                fan_out(50, parallel, |i| if i % 17 == 13 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect();
            assert_eq!(r, Err(13), "parallel={parallel}");

            let payload = catch_unwind(|| {
                fan_out(50, parallel, |i| assert!(i % 17 != 13, "item {i} failed"))
            })
            .expect_err("item 13 panics");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 13 failed"),
                "parallel={parallel}"
            );
        }

        // Both sides of the gate on DES lanes: short lanes stay on the
        // calling thread, long lanes do not, and the reports do not depend
        // on which side ran them.
        let soc = devices::pixel_7a();
        let stage = |flops: f64| WorkProfile::new(flops, flops / 4.0);
        let spec = DagPipelineSpec::chain(vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ]);
        for (tasks, spreads) in [(30, false), (3000, true)] {
            let cfg = RunConfig {
                tasks,
                ..RunConfig::default()
            };
            let parallel = amortises_spawn(des_run_us(&cfg, spec.chunks.len()));
            assert_eq!(parallel, spreads);
            let lane = |i: usize| {
                let cfg = RunConfig {
                    seed: i as u64,
                    ..cfg.clone()
                };
                let report = simulate_dag(&soc, &spec, &cfg, None).unwrap();
                (std::thread::current().id(), report)
            };
            let (ids, batch): (Vec<_>, Vec<_>) = fan_out(4, parallel, lane).into_iter().unzip();
            let stayed = ids.iter().all(|&id| id == caller);
            assert_eq!(stayed, !(spreads && cores() > 1), "tasks={tasks}");
            let serial: Vec<_> = fan_out(4, false, lane).into_iter().map(|r| r.1).collect();
            assert_eq!(format!("{batch:?}"), format!("{serial:?}"), "tasks={tasks}");
        }
    }
}
