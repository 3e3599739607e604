//! `serve_mix` — one warmed `PlanService`, then a seeded Zipf(1.0) stream of
//! `serve()` calls in which a fixed small fraction carries a ~3× BigCpu
//! fault history and the next request to that cell carries none:
//! drift-invalidate → cold solve → recover. Reads (allocation-free hits)
//! beside writes (invalidation + solve + insert) on the same cache; the only
//! workload where `bt-serve` code is on the path.

use std::sync::Arc;
use std::time::Instant;

use crate::gen::{Fnv, SplitMix, Zipf};
use crate::harness::{sample_us, Measured, Row, Scale, SliceOut, Workload, THROUGHPUT_BOUND};
use crate::layers::{self, ServeBench};
use crate::stats;
use crate::trace::{self, Breakdown, Layer, Tracer};

/// Contents a full-scale service holds (8 devices × 4 apps × 2 scales × 2
/// objectives); the op stream is generated against this count and checked
/// against the service in set-up.
const CONTENTS: usize = 128;
const SMOKE_CONTENTS: usize = 32;

/// The request stream of one slice: Zipf-ranked hits in all-hit blocks,
/// fault → recover pairs spread evenly between the blocks.
struct Stream {
    /// Content index of every hit, `blocks × block_len` long.
    hits: Vec<u16>,
    /// Fault targets cycle through this permutation of all contents, so the
    /// mix of re-solved cells — whose solve costs differ by device and app —
    /// is the same under every seed.
    fault_order: Vec<usize>,
}

fn stream(seed: u64, scale: &Scale) -> Stream {
    let n = if scale.smoke {
        SMOKE_CONTENTS
    } else {
        CONTENTS
    };
    let mut rng = SplitMix::new(seed);
    // Which content holds which popularity rank depends on the seed.
    let by_rank = rng.permutation(n);
    let zipf = Zipf::new(n, 1.0);
    let hits = (0..scale.serve_blocks * scale.serve_block_len)
        .map(|_| by_rank[zipf.sample(&mut rng)] as u16)
        .collect();
    Stream {
        hits,
        fault_order: rng.permutation(n),
    }
}

pub struct ServeMix {
    bench: ServeBench,
    stream: Stream,
    blocks: usize,
    block_len: usize,
    faults: usize,
    /// Position in `fault_order`, and the count of fault events so far
    /// (each event carries a distinct factor, hence a distinct table
    /// content: the cache can never answer it).
    fault_cursor: usize,
    fault_events: u64,
    hit_allocs: u64,
    hit_requests: u64,
    recover_us: Vec<f64>,
    /// Share of requests that carry a fault history, for the report.
    fault_fraction: f64,
}

impl ServeMix {
    fn next_fault(&mut self) -> (usize, f64) {
        let i = self.stream.fault_order[self.fault_cursor % self.stream.fault_order.len()];
        self.fault_cursor += 1;
        self.fault_events += 1;
        (i, 3.0 + self.fault_events as f64 / f64::from(1u32 << 20))
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const HEAVY: &'static str = "cold";
    const LIGHT: &'static str = "hit";

    fn setup(seed: u64, scale: &Scale) -> Result<ServeMix, String> {
        let bench = ServeBench::new(scale.smoke)?;
        let stream = stream(seed, scale);
        if bench.len() != stream.fault_order.len() {
            return Err(format!(
                "service holds {} contents ({}), op stream expects {}",
                bench.len(),
                bench.shape(),
                stream.fault_order.len()
            ));
        }
        let requests = scale.serve_blocks * scale.serve_block_len + 2 * scale.serve_faults;
        let mut w = ServeMix {
            bench,
            stream,
            blocks: scale.serve_blocks,
            block_len: scale.serve_block_len,
            faults: scale.serve_faults,
            fault_cursor: 0,
            fault_events: 0,
            hit_allocs: 0,
            hit_requests: 0,
            recover_us: Vec::new(),
            fault_fraction: scale.serve_faults as f64 / requests as f64,
        };
        let mut warm = SliceOut::default();
        w.slice(None, &mut warm);
        w.recover_us.clear();
        (w.hit_allocs, w.hit_requests) = (0, 0);
        match warm.failures.first() {
            Some(e) => Err(format!("warm-up: {e}")),
            None => Ok(w),
        }
    }

    fn op_stream_digest(seed: u64, scale: &Scale) -> u64 {
        let s = stream(seed, scale);
        let mut f = Fnv::default();
        for &h in &s.hits {
            f.u64(u64::from(h));
        }
        for &i in &s.fault_order {
            f.u64(i as u64);
        }
        f.finish()
    }

    fn slice(&mut self, tracer: Option<&Arc<Tracer>>, out: &mut SliceOut) {
        let t = tracer.map(|t| &**t);
        let mut block_us = Vec::with_capacity(self.blocks);
        let mut cold_us = Vec::with_capacity(self.faults);
        let mut faults_done = 0;
        for b in 0..self.blocks {
            // --- one all-hit block, timed as a block -------------------
            let ids = &self.stream.hits[b * self.block_len..(b + 1) * self.block_len];
            let bench = &self.bench;
            let run_block = || {
                let mut ok = 0usize;
                for &i in ids {
                    ok += usize::from(bench.hit(usize::from(i)));
                }
                ok
            };
            let a0 = layers::allocations();
            let t0 = Instant::now();
            let ok = match t {
                Some(t) => t.op("hit_block", || {
                    t.span("serve.serve[hits]", Layer::Serve, run_block)
                }),
                None => run_block(),
            };
            let secs = t0.elapsed().as_secs_f64();
            if t.is_none() {
                self.hit_allocs += layers::allocations() - a0;
                self.hit_requests += ids.len() as u64;
            }
            out.add("hit", ids.len() as u64, secs);
            block_us.push(secs * 1e6 / ids.len() as f64);
            out.attempt(ids.len() as u64);
            if ok != ids.len() {
                let missed = (ids.len() - ok) as u64;
                out.fail(|| format!("block {b}: {missed} requests missed the cache"));
                out.failed += missed - 1;
            }

            // --- fault → recover pairs due after this block ------------
            let due = (b + 1) * self.faults / self.blocks;
            while faults_done < due {
                faults_done += 1;
                let (i, factor) = self.next_fault();
                let bench = &self.bench;
                out.attempt(2);
                let t0 = Instant::now();
                let fault = match t {
                    Some(t) => t.op("fault", || {
                        t.span("serve.serve[fault]", Layer::Serve, || {
                            bench.fault(i, factor)
                        })
                    }),
                    None => bench.fault(i, factor),
                };
                let secs = t0.elapsed().as_secs_f64();
                out.add("cold", 1, secs);
                cold_us.push(secs * 1e6);
                match fault {
                    Ok(o) => out.require(o.cold && o.resigned, || {
                        format!("fault on content {i} did not invalidate ({o:?})")
                    }),
                    Err(e) => out.fail(|| e),
                }
                let t0 = Instant::now();
                let recover = match t {
                    Some(t) => t.op("recover", || {
                        t.span("serve.serve[recover]", Layer::Serve, || bench.recover(i))
                    }),
                    None => bench.recover(i),
                };
                let secs = t0.elapsed().as_secs_f64();
                out.add("recover", 1, secs);
                if t.is_none() {
                    self.recover_us.push(secs * 1e6);
                }
                match recover {
                    Ok(o) => out.require(o.cold && !o.resigned, || {
                        format!("content {i} did not recover its pristine plan ({o:?})")
                    }),
                    Err(e) => out.fail(|| e),
                }
            }
        }
        out.unit_from_samples("hit", &block_us);
        out.unit_from_samples("cold", &cold_us);
    }

    fn verify(&mut self, out: &mut SliceOut) {
        // A cache-served artifact is byte-equal to the cold one it came from.
        for i in 0..self.bench.len() {
            out.attempt(1);
            out.require(self.bench.json_matches(i), || {
                format!("content {i}: cached to_json() differs from the cold artifact")
            });
        }
        out.attempt(1);
        out.require(self.hit_allocs == 0, || {
            format!("hit path allocated {} times", self.hit_allocs)
        });
    }

    fn digests(&self) -> Vec<(String, String)> {
        vec![
            ("contents".into(), self.bench.shape()),
            (
                "fault_fraction".into(),
                format!("{:?}", self.fault_fraction),
            ),
        ]
    }

    fn ledger(&self, run: &Measured, rows: &mut Vec<Row>) {
        let ns: Vec<f64> = run.unit_us("hit").iter().map(|u| u * 1e3).collect();
        rows.push(
            Row::fast_decile("serve_hit_ns_p50", "ns", "lower", &ns).bounded(THROUGHPUT_BOUND),
        );
        rows.push(
            Row::fast_decile("serve_cold_us_p50", "us", "lower", &run.unit_us("cold"))
                .bounded(THROUGHPUT_BOUND),
        );
        rows.push(
            Row::fast_decile("serve_req_per_s", "1/s", "higher", &run.pooled_per_s())
                .bounded(THROUGHPUT_BOUND),
        );
        rows.push(Row::point(
            "serve_fault_fraction",
            "1",
            "lower",
            self.fault_fraction,
        ));
    }

    fn probes(
        &mut self,
        scale: &Scale,
        run: &Measured,
        b: &mut Breakdown,
        rows: &mut Vec<Row>,
        checks: &mut SliceOut,
    ) {
        rows.push(Row::point(
            "serve.hit.allocs_per_req",
            "count",
            "lower",
            self.hit_allocs as f64 / self.hit_requests.max(1) as f64,
        ));
        rows.push(Row::point(
            "serve.hit_ratio",
            "1",
            "higher",
            self.bench.hit_ratio(),
        ));
        let cold = run.unit_us("cold");
        rows.push(Row::fast_decile(
            "serve.invalidate_cold_us",
            "us",
            "lower",
            &cold,
        ));
        if !self.recover_us.is_empty() {
            rows.push(Row::samples(
                "serve.recover_us",
                "us",
                "lower",
                &self.recover_us,
            ));
        }
        rows.push(Row::point(
            "serve.registry_load_ms",
            "ms",
            "lower",
            self.bench.registry_load_ms,
        ));
        rows.push(Row::point(
            "serve.warm_cells_ms",
            "ms",
            "lower",
            self.bench.warm_cells_ms,
        ));

        let n = scale.reps(1000) as u64;
        let derive: Vec<f64> = sample_us(scale.reps(200), || self.bench.key_derive(n))
            .iter()
            .map(|u| u * 1e3 / n as f64)
            .collect();
        rows.push(Row::samples("serve.key_derive_ns", "ns", "lower", &derive));
        let mut round_trips = true;
        let json = sample_us(scale.reps(20_000), || {
            round_trips &= self.bench.artifact_json(3 % self.bench.len());
        });
        checks.attempt(1);
        checks.require(round_trips, || "artifact JSON did not round-trip".into());
        rows.push(Row::samples("serve.artifact_json_us", "us", "lower", &json));

        // Per-request hit latency (each sample pays two clock reads, which
        // is why the end-to-end p50 times blocks instead).
        let per_req: Vec<f64> = (0..scale.reps(200_000))
            .map(|k| {
                let i = usize::from(self.stream.hits[k % self.stream.hits.len()]);
                let t0 = Instant::now();
                std::hint::black_box(self.bench.hit(i));
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        rows.push(Row::point(
            "serve.hit_ns_p999",
            "ns",
            "lower",
            stats::percentile(&per_req, 0.999),
        ));

        let mut burst = Vec::new();
        for _ in 0..scale.reps(5) {
            match self.bench.batch_burst(32) {
                Ok((requests, secs)) => burst.push(requests as f64 / secs),
                Err(e) => checks.fail(|| format!("serve_batch burst: {e}")),
            }
        }
        if !burst.is_empty() {
            rows.push(Row::samples(
                "serve.batch_plans_per_s",
                "1/s",
                "higher",
                &burst,
            ));
        }

        // Re-price the cold solve from public primitives and re-book the
        // opaque `serve()` time of the traced fault requests accordingly.
        let probe = Tracer::new();
        let models = layers::build_models();
        for k in 0..scale.reps(200) {
            let i = self.stream.fault_order[k % self.stream.fault_order.len()];
            if let Err(e) = self.bench.repriced_cold(&models, i, 3.0, &probe) {
                checks.fail(|| format!("re-priced cold solve: {e}"));
            }
        }
        let spans = probe.spans();
        let priced = trace::analyze(&spans);
        if priced.roots == 0 || cold.is_empty() {
            return;
        }
        // Like with like: the fast decile of the real fault requests
        // against the fast decile of the re-priced ops.
        let actual_ns = stats::fast_decile(&cold, false) * 1e3;
        let roots: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64)
            .collect();
        let repriced_ns = stats::fast_decile(&roots, false);
        rows.push(Row::point(
            "serve.cold.repriced_us",
            "us",
            "lower",
            repriced_ns / 1e3,
        ));
        rows.push(Row::point(
            "serve.cold.unexplained_pct",
            "%",
            "lower",
            100.0 * (actual_ns - repriced_ns) / actual_ns,
        ));
        let cold_total = b
            .by_name
            .get("serve.serve[fault]")
            .map_or(0.0, |t| t.self_ns);
        // Shares of the actual cold request: a layer's share of the
        // re-priced op, scaled down when the re-priced op is the cheaper
        // of the two; what that leaves uncovered stays with bt-serve.
        let covered = (repriced_ns / actual_ns).min(1.0);
        for layer in [Layer::Soc, Layer::Solver, Layer::Profiler] {
            let share = covered * priced.layer_ns(layer) / priced.total_ns;
            rows.push(Row::point(
                format!("serve.cold.{}_share_pct", layer.key()),
                "%",
                "lower",
                100.0 * share,
            ));
            *b.by_layer.entry(layer).or_default() += cold_total * share;
            *b.by_layer.entry(Layer::Serve).or_default() -= cold_total * share;
        }
    }
}
