//! `sim_stream` — long streams (3 000 tasks, 20 seeds: the paper's
//! 10 s-per-candidate autotune protocol) through every discrete-event entry
//! point. `bt-soc` does all of the work; per-engine classes expose a gain in
//! one engine that costs another.

use std::sync::Arc;

use crate::gen::{Fnv, SplitMix};
use crate::harness::{sample_us, Measured, Row, Scale, SliceOut, Workload, THROUGHPUT_BOUND};
use crate::layers::{self, SimBench, SimSummary};
use crate::stats;
use crate::trace::{Breakdown, Tracer};

/// Events of one simulated stream: every task is dispatched to and
/// completes on every unit (chunk; for the dynamic engine, stage) once.
/// Computed from the inputs, never read back from the simulator.
pub fn des_events(tasks: u32, warmup: u32, units: usize) -> u64 {
    2 * u64::from(tasks + warmup) * units as u64
}

/// The engines, in the order a slice visits them.
const ENGINES: [&str; 7] = [
    "scalar", "nocache", "faulted", "batch", "dynamic", "dag", "multi",
];

fn lane_seeds(seed: u64, scale: &Scale) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    (0..scale.sim_seeds).map(|_| rng.next_u64() >> 16).collect()
}

pub struct SimStream {
    bench: SimBench,
    seeds: Vec<u64>,
    /// Makespans of the last untraced slice, per engine, for the digest.
    makespans: Vec<(&'static str, Vec<u64>)>,
}

impl SimStream {
    fn events(&self, engine: &str) -> u64 {
        let b = &self.bench;
        let units = match engine {
            "dynamic" => b.stages(),
            "dag" => b.dag_chunks(),
            "multi" => b.multi_chunks(),
            _ => b.chunks(),
        };
        des_events(b.tasks, b.warmup(), units)
    }

    fn check(out: &mut SliceOut, engine: &str, seed: u64, s: &SimSummary, clean: bool) {
        out.require(s.conserved(), || {
            format!("{engine} seed {seed}: completed + dropped != submitted ({s:?})")
        });
        if clean {
            out.require(s.dropped == 0 && s.makespan_bits != 0, || {
                format!("{engine} seed {seed}: clean run dropped tasks ({s:?})")
            });
        }
    }
}

impl Workload for SimStream {
    const NAME: &'static str = "sim_stream";
    const HEAVY: &'static str = "multi";
    const LIGHT: &'static str = "scalar";

    fn setup(seed: u64, scale: &Scale) -> Result<SimStream, String> {
        let models = layers::build_models();
        let mut w = SimStream {
            bench: SimBench::new(&models, scale.sim_tasks)?,
            seeds: lane_seeds(seed, scale),
            makespans: Vec::new(),
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
        f.u64(u64::from(scale.sim_tasks));
        for s in lane_seeds(seed, scale) {
            f.u64(s);
        }
        f.finish()
    }

    fn slice(&mut self, tracer: Option<&Arc<Tracer>>, out: &mut SliceOut) {
        let t = tracer.map(|t| &**t);
        let b = &self.bench;
        let mut makespans: Vec<(&'static str, Vec<u64>)> = Vec::new();
        // Each engine call is one op; its class is booked in events.
        let mut each = |engine: &'static str,
                        out: &mut SliceOut,
                        clean: bool,
                        f: &dyn Fn(u64) -> Result<Vec<SimSummary>, String>| {
            let events = self.events(engine);
            let mut bits = Vec::new();
            for &seed in &self.seeds {
                out.attempt(1);
                let got = out.time(engine, events, || match t {
                    Some(t) => t.op(engine, || f(seed)),
                    None => f(seed),
                });
                match got {
                    Ok(runs) => {
                        for s in &runs {
                            Self::check(out, engine, seed, s, clean);
                            bits.push(s.makespan_bits);
                        }
                    }
                    Err(e) => out.fail(|| format!("{engine} seed {seed}: {e}")),
                }
            }
            makespans.push((engine, bits));
        };
        each("scalar", out, true, &|s| b.scalar(s, t).map(|r| vec![r]));
        each("nocache", out, true, &|s| b.nocache(s, t).map(|r| vec![r]));
        each("faulted", out, false, &|s| b.faulted(s, t).map(|r| vec![r]));
        each("dynamic", out, true, &|s| b.dynamic(s, t).map(|r| vec![r]));
        each("dag", out, true, &|s| b.dag(s, t).map(|r| vec![r]));
        each("multi", out, true, &|s| b.multi(s, t));

        // One batched pass, a lane per seed; every lane must be bit-equal
        // to the scalar run of the same seed.
        out.attempt(1);
        let events = self.events("batch") * self.seeds.len() as u64;
        let lanes = out.time("batch", events, || match t {
            Some(t) => t.op("batch", || b.batch(&self.seeds, Some(t))),
            None => b.batch(&self.seeds, None),
        });
        match lanes {
            Ok(lanes) => {
                let scalar = &makespans[0].1;
                let same = lanes.len() == scalar.len()
                    && lanes.iter().zip(scalar).all(|(l, &s)| l.makespan_bits == s);
                out.require(same, || "batch lanes differ from scalar runs".into());
                for (l, &seed) in lanes.iter().zip(&self.seeds) {
                    Self::check(out, "batch", seed, l, true);
                }
                makespans.push(("batch", lanes.iter().map(|l| l.makespan_bits).collect()));
            }
            Err(e) => out.fail(|| format!("batch: {e}")),
        }

        // Cache on/off must not change a single bit of virtual time.
        let nocache_equal = makespans[0].1 == makespans[1].1;
        out.require(nocache_equal, || "service cache changed a makespan".into());
        if tracer.is_none() {
            self.makespans = makespans;
        }
    }

    fn verify(&mut self, out: &mut SliceOut) {
        out.attempt(1);
        out.require(self.makespans.len() == ENGINES.len(), || {
            format!(
                "only {} of {} engines ran",
                self.makespans.len(),
                ENGINES.len()
            )
        });
    }

    fn digests(&self) -> Vec<(String, String)> {
        self.makespans
            .iter()
            .map(|(engine, bits)| {
                let mut f = Fnv::default();
                for &b in bits {
                    f.u64(b);
                }
                (
                    format!("makespans/{engine}"),
                    format!("{:016x}", f.finish()),
                )
            })
            .collect()
    }

    fn ledger(&self, run: &Measured, rows: &mut Vec<Row>) {
        rows.push(
            Row::fast_decile("sim_events_per_s", "1/s", "higher", &run.pooled_per_s())
                .bounded(THROUGHPUT_BOUND),
        );
    }

    fn probes(
        &mut self,
        scale: &Scale,
        run: &Measured,
        _b: &mut Breakdown,
        rows: &mut Vec<Row>,
        _checks: &mut SliceOut,
    ) {
        for (row, class) in [
            ("soc.des.events_per_s", "scalar"),
            ("soc.des.nocache_events_per_s", "nocache"),
            ("soc.des.faulted_events_per_s", "faulted"),
            ("soc.des_batch.events_per_s", "batch"),
            ("soc.des_dynamic.events_per_s", "dynamic"),
            ("soc.des_dag.events_per_s", "dag"),
            ("soc.des_multi.events_per_s", "multi"),
        ] {
            rows.push(Row::fast_decile(
                row,
                "1/s",
                "higher",
                &run.class_per_s(class),
            ));
        }
        // Telemetry full vs OFF on the scalar engine, interleaved.
        let reps = scale.reps(200);
        let seed = self.seeds[0];
        let off = sample_us(reps, || self.bench.scalar(seed, None));
        let full = sample_us(reps, || self.bench.scalar_telemetry(seed));
        rows.push(Row::point(
            "telemetry.des_full_overhead_pct",
            "%",
            "lower",
            100.0 * (stats::median(&full) / stats::median(&off) - 1.0),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::des_events;

    #[test]
    fn event_count_formula() {
        // One dispatch and one completion per task per unit, warm-up
        // tasks included.
        assert_eq!(des_events(3000, 5, 4), 24_040);
        assert_eq!(des_events(30, 5, 1), 70);
        assert_eq!(des_events(3000, 5, 9), 54_090, "dynamic engine: stages");
        assert_eq!(des_events(0, 0, 7), 0);
    }
}
