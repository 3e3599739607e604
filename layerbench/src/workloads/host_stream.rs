//! `host_stream` — real kernels through the real runtime, the
//! real-execution leg of the ledger. **Coarse** = the octree pipeline at
//! 60 000 points (≈ 7 ms/task: `bt-kernels` dominates), **fine** = the
//! sensor pipeline (≈ 90 µs/task: `bt-rt` + `bt-pipeline` machinery is
//! visible). No simulator, solver or serve code runs.
//!
//! The timed slices use exactly two dispatcher threads (a 2-chunk
//! `run_host`, one worker per chunk). The 1-chunk, pool, fork/join, no-op
//! and raw-ring variants are per-layer probes of the traced run.

use std::sync::Arc;

use crate::gen::Fnv;
use crate::harness::{sample_us, Measured, Row, Scale, SliceOut, Workload, THROUGHPUT_BOUND};
use crate::layers::{self, CoarseStream, FineStream, HostRun};
use crate::stats;
use crate::trace::{Breakdown, Tracer};

/// Stages in the first chunk of the 2-chunk splits: the most balanced cut
/// measured on the reference box (morton, sort, dedup | rest — 1.4× the
/// 1-chunk rate; sample, filter | features, classify — 1.1×).
const COARSE_SPLIT: usize = 3;
const FINE_SPLIT: usize = 2;
const WARMUP: u32 = 5;

pub struct HostStreams {
    coarse: CoarseStream,
    fine: FineStream,
    coarse_tasks: u32,
    fine_tasks: u32,
    /// Sequential-run checksums over the same inputs.
    coarse_ref: u64,
    fine_ref: u64,
    seed: u64,
    /// The streams with span-reporting kernels, built on the first traced
    /// slice.
    traced: Option<(CoarseStream, FineStream)>,
}

fn check(out: &mut SliceOut, what: &str, run: &Result<HostRun, String>, total: u64, want: u64) {
    match run {
        Ok(r) => {
            out.require(
                r.completed + r.dropped == r.submitted && r.completed == total,
                || format!("{what}: conservation broken ({r:?}, expected {total})"),
            );
            out.require(r.checksum == want, || {
                format!("{what}: checksum {} != sequential {want}", r.checksum)
            });
        }
        Err(e) => out.fail(|| format!("{what}: {e}")),
    }
}

impl HostStreams {
    /// Runs one stream through a 2-chunk `run_host` and books it.
    fn stream(&self, coarse: bool, tracer: Option<&Arc<Tracer>>, out: &mut SliceOut) {
        let (class, tasks, want) = if coarse {
            ("coarse", self.coarse_tasks, self.coarse_ref)
        } else {
            ("fine", self.fine_tasks, self.fine_ref)
        };
        let total = u64::from(tasks + WARMUP);
        out.attempt(total);
        let t = tracer.map(|t| &**t);
        let (c, f) = match (&self.traced, t) {
            (Some((c, f)), Some(_)) => (c, f),
            _ => (&self.coarse, &self.fine),
        };
        let go = |t: Option<&Tracer>| {
            if coarse {
                c.run(COARSE_SPLIT, tasks, WARMUP, false, t)
            } else {
                f.run(FINE_SPLIT, tasks, WARMUP, false, t)
            }
        };
        let run = out.time(class, total, || match t {
            Some(t) => t.op(class, || go(Some(t))),
            None => go(None),
        });
        check(out, class, &run, total, want);
    }
}

impl Workload for HostStreams {
    const NAME: &'static str = "host_stream";
    const HEAVY: &'static str = "coarse";
    const LIGHT: &'static str = "fine";

    fn setup(seed: u64, scale: &Scale) -> Result<HostStreams, String> {
        let coarse = layers::octree_stream(seed, if scale.smoke { 1_000 } else { 60_000 });
        let fine = layers::sensor_stream(seed);
        let coarse_ref = coarse.sequential(u64::from(scale.coarse_tasks + WARMUP));
        let fine_ref = fine.sequential(u64::from(scale.fine_tasks + WARMUP));
        let mut w = HostStreams {
            coarse,
            fine,
            coarse_tasks: scale.coarse_tasks,
            fine_tasks: scale.fine_tasks,
            coarse_ref,
            fine_ref,
            seed,
            traced: None,
        };
        let mut warm = SliceOut::default();
        w.slice(None, &mut warm);
        match warm.failures.first() {
            Some(e) => Err(format!("warm-up: {e}")),
            None => Ok(w),
        }
    }

    fn op_stream_digest(seed: u64, scale: &Scale) -> u64 {
        let mut f = Fnv::default();
        f.u64(seed)
            .u64(u64::from(scale.coarse_tasks))
            .u64(u64::from(scale.fine_tasks))
            .u64(COARSE_SPLIT as u64)
            .u64(FINE_SPLIT as u64);
        f.finish()
    }

    fn slice(&mut self, tracer: Option<&Arc<Tracer>>, out: &mut SliceOut) {
        if let (Some(t), None) = (tracer, &self.traced) {
            self.traced = Some((self.coarse.traced(t), self.fine.traced(t)));
        }
        self.stream(true, tracer, out);
        self.stream(false, tracer, out);
    }

    fn verify(&mut self, _out: &mut SliceOut) {}

    fn digests(&self) -> Vec<(String, String)> {
        vec![
            ("checksum/coarse".into(), self.coarse_ref.to_string()),
            ("checksum/fine".into(), self.fine_ref.to_string()),
        ]
    }

    fn ledger(&self, run: &Measured, rows: &mut Vec<Row>) {
        rows.push(
            Row::fast_decile(
                "host_coarse_tasks_per_s",
                "1/s",
                "higher",
                &run.class_per_s("coarse"),
            )
            .bounded(THROUGHPUT_BOUND),
        );
        rows.push(
            Row::fast_decile(
                "host_fine_tasks_per_s",
                "1/s",
                "higher",
                &run.class_per_s("fine"),
            )
            .bounded(THROUGHPUT_BOUND),
        );
    }

    fn probes(
        &mut self,
        scale: &Scale,
        run: &Measured,
        _b: &mut Breakdown,
        rows: &mut Vec<Row>,
        fails: &mut SliceOut,
    ) {
        let per_task = |us: Vec<f64>, tasks: f64| us.iter().map(|u| u / tasks).collect::<Vec<_>>();
        let rate = |us: &[f64], tasks: f64| us.iter().map(|u| tasks * 1e6 / u).collect::<Vec<_>>();

        // bt-kernels: pure kernel time, sequential.
        let (cn, fnn) = (scale.reps(10) as u64, scale.reps(1000) as u64);
        let coarse_seq = per_task(
            sample_us(scale.reps(5), || self.coarse.sequential(cn)),
            cn as f64,
        );
        let fine_seq = per_task(
            sample_us(scale.reps(7), || self.fine.sequential(fnn)),
            fnn as f64,
        );
        rows.push(Row::samples(
            "kernels.octree.us_per_task",
            "us",
            "lower",
            &coarse_seq,
        ));
        rows.push(Row::samples(
            "kernels.sensor.us_per_task",
            "us",
            "lower",
            &fine_seq,
        ));

        // bt-rt: raw ring hops.
        let hops = scale.reps(2_000_000) as u64;
        let ns = |us: Vec<f64>, n: u64| us.iter().map(|u| u * 1e3 / n as f64).collect::<Vec<_>>();
        rows.push(Row::samples(
            "rt.spsc.ns_per_hop",
            "ns",
            "lower",
            &ns(
                sample_us(scale.reps(5), || layers::spsc_cross_thread(hops)),
                hops,
            ),
        ));
        rows.push(Row::samples(
            "rt.static_ring.ns_per_hop",
            "ns",
            "lower",
            &ns(
                sample_us(scale.reps(5), || layers::static_ring_cross_thread(hops)),
                hops,
            ),
        ));
        rows.push(Row::samples(
            "rt.spsc.same_thread_ns_per_op",
            "ns",
            "lower",
            &ns(
                sample_us(scale.reps(5), || layers::spsc_same_thread(hops * 4)),
                hops * 4,
            ),
        ));

        // bt-pipeline: the executors.
        rows.push(Row::fast_decile(
            "pipeline.run_host.coarse_tasks_per_s",
            "1/s",
            "higher",
            &run.class_per_s("coarse"),
        ));
        rows.push(Row::fast_decile(
            "pipeline.run_host.fine_tasks_per_s",
            "1/s",
            "higher",
            &run.class_per_s("fine"),
        ));
        let ft = self.fine_tasks;
        let total = f64::from(ft + WARMUP);
        let stages = self.fine.stages();
        let seq_fine = sample_us(scale.reps(7), || {
            let r = self.fine.run(stages, ft, WARMUP, false, None);
            check(fails, "fine 1-chunk", &r, total as u64, self.fine_ref);
        });
        rows.push(Row::samples(
            "pipeline.run_host.seq_fine_tasks_per_s",
            "1/s",
            "higher",
            &rate(&seq_fine, total),
        ));
        let one_chunk_us = stats::median(&seq_fine) / total;
        rows.push(Row::point(
            "pipeline.run_host.fine_overhead_pct",
            "%",
            "lower",
            100.0 * (one_chunk_us - stats::median(&fine_seq)) / one_chunk_us,
        ));
        let multi = sample_us(scale.reps(7), || {
            let r = self.fine.run_multi(FINE_SPLIT, ft, WARMUP, 2);
            check(fails, "fine pool", &r, total as u64, self.fine_ref);
        });
        rows.push(Row::samples(
            "pipeline.multi.fine_tasks_per_s",
            "1/s",
            "higher",
            &rate(&multi, total),
        ));
        let percep = layers::perception_stream(self.seed);
        let pt = scale.reps(200) as u32;
        let ptotal = u64::from(pt + WARMUP);
        let percep_ref = percep.sequential(ptotal);
        // preprocess | detect → nms | pyramid → flow | fuse → track: the
        // smallest assignment that keeps the fork and the join.
        let dag = sample_us(scale.reps(5), || {
            let r = percep.run_dag(&[0, 1, 1, 2, 2, 3, 3], pt, WARMUP);
            check(fails, "perception dag", &r, ptotal, percep_ref);
        });
        rows.push(Row::samples(
            "pipeline.run_host_dag.tasks_per_s",
            "1/s",
            "higher",
            &rate(&dag, ptotal as f64),
        ));
        let noop = layers::noop_stream();
        let nt = scale.reps(20_000) as u32;
        let ntotal = u64::from(nt + WARMUP);
        let noop_ref = noop.sequential(ntotal);
        let noop_host = sample_us(scale.reps(7), || {
            let r = noop.run(1, nt, WARMUP, false, None);
            check(fails, "noop run_host", &r, ntotal, noop_ref);
        });
        rows.push(Row::samples(
            "pipeline.run_host.noop_us_per_task",
            "us",
            "lower",
            &per_task(noop_host, ntotal as f64),
        ));
        let noop_multi = sample_us(scale.reps(7), || {
            let r = noop.run_multi(1, nt, WARMUP, 2);
            check(fails, "noop pool", &r, ntotal, noop_ref);
        });
        rows.push(Row::samples(
            "pipeline.multi.noop_us_per_task",
            "us",
            "lower",
            &per_task(noop_multi, ntotal as f64),
        ));

        // bt-telemetry: full vs OFF on the fine stream, interleaved.
        let (mut off, mut full) = (Vec::new(), Vec::new());
        for _ in 0..scale.reps(5) {
            off.extend(sample_us(1, || {
                self.fine.run(FINE_SPLIT, ft, WARMUP, false, None)
            }));
            full.extend(sample_us(1, || {
                self.fine.run(FINE_SPLIT, ft, WARMUP, true, None)
            }));
        }
        rows.push(Row::point(
            "telemetry.host_full_overhead_pct",
            "%",
            "lower",
            100.0 * (stats::median(&full) / stats::median(&off) - 1.0),
        ));

        // bt-profiler / bt-core on the host (informational).
        rows.push(Row::samples(
            "profiler.host_table_ms",
            "ms",
            "lower",
            &per_task(
                sample_us(scale.reps(2), || self.coarse.profile_host_table()),
                1e3,
            ),
        ));
        match self.coarse.host_fig2_pred_err_pct(scale.reps(10) as u32) {
            Ok(err) => rows.push(Row::point("core.host.pred_err_pct", "%", "lower", err)),
            Err(e) => fails.fail(|| e),
        }
    }
}
