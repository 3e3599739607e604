//! `plan_fleet` — the paper's own use case: the full Fig. 2 loop
//! (`BetterTogether::run()`, default configuration, exact engine) round-robin
//! over the 12 paper cells plus the MCU sensor cell. Short DES runs and the
//! profiler dominate; the solver is a few percent.

use std::sync::Arc;

use crate::gen::{Fnv, SplitMix};
use crate::harness::{
    allocs_of, sample_us, Measured, Row, Scale, SliceOut, Workload, THROUGHPUT_BOUND,
};
use crate::layers::{self, FleetCell, Models, PlanProbe, Planned};
use crate::stats;
use crate::trace::{Breakdown, Tracer};

pub struct PlanFleet {
    models: Models,
    cells: Vec<FleetCell>,
    /// Seeded visiting order of the cells within a round.
    order: Vec<usize>,
    rounds: usize,
    /// The last `Deployment` each cell produced, from `run()` and from the
    /// traced staged re-expression.
    last_plain: Vec<Option<Planned>>,
    last_staged: Vec<Option<Planned>>,
}

const CELLS: usize = 13;

impl PlanFleet {
    fn speedup_geomean(&self) -> Option<f64> {
        let speedups: Option<Vec<f64>> = self
            .cells
            .iter()
            .zip(&self.last_plain)
            .filter(|(c, _)| c.paper)
            .map(|(_, p)| p.as_ref()?.speedup())
            .collect();
        speedups.map(|s| stats::geomean(&s))
    }
}

impl Workload for PlanFleet {
    const NAME: &'static str = "plan_fleet";
    const HEAVY: &'static str = "sparse";
    const LIGHT: &'static str = "sensor";

    fn setup(seed: u64, scale: &Scale) -> Result<PlanFleet, String> {
        let models = layers::build_models();
        let cells = layers::fleet_cells(&models);
        assert_eq!(cells.len(), CELLS);
        let mut w = PlanFleet {
            models,
            order: SplitMix::new(seed).permutation(cells.len()),
            last_plain: cells.iter().map(|_| None).collect(),
            last_staged: cells.iter().map(|_| None).collect(),
            cells,
            rounds: scale.fleet_rounds,
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
        f.u64(scale.fleet_rounds as u64);
        for i in SplitMix::new(seed).permutation(CELLS) {
            f.u64(i as u64);
        }
        f.finish()
    }

    fn slice(&mut self, tracer: Option<&Arc<Tracer>>, out: &mut SliceOut) {
        for _ in 0..self.rounds {
            for &i in &self.order {
                let cell = &self.cells[i];
                out.attempt(1);
                let planned = out.time(cell.app, 1, || match tracer {
                    Some(t) => t.op("plan_loop", || cell.plan(Some(t))),
                    None => cell.plan(None),
                });
                match planned {
                    Ok(p) => {
                        if let Err(e) = p.check() {
                            out.fail(|| format!("{}: {e}", cell.label));
                        }
                        let slot = if tracer.is_some() {
                            &mut self.last_staged
                        } else {
                            &mut self.last_plain
                        };
                        slot[i] = Some(p);
                    }
                    Err(e) => out.fail(|| e),
                }
            }
        }
    }

    fn verify(&mut self, out: &mut SliceOut) {
        // The staged re-expression must be debug-equal to `run()`.
        for (i, cell) in self.cells.iter().enumerate() {
            if let (Some(a), Some(b)) = (&self.last_plain[i], &self.last_staged[i]) {
                out.attempt(1);
                out.require(a.digest() == b.digest(), || {
                    format!("{}: staged run differs from run()", cell.label)
                });
            }
        }
        out.attempt(1);
        out.require(self.speedup_geomean().is_some_and(|s| s > 1.0), || {
            "speedup geomean over the paper cells is not above 1".into()
        });
    }

    fn digests(&self) -> Vec<(String, String)> {
        let mut d: Vec<(String, String)> = self
            .cells
            .iter()
            .zip(&self.last_plain)
            .filter_map(|(c, p)| Some((c.label.clone(), format!("{:016x}", p.as_ref()?.digest()))))
            .collect();
        if let Some(s) = self.speedup_geomean() {
            d.push(("speedup_geomean".into(), format!("{s:?}")));
        }
        d
    }

    fn ledger(&self, run: &Measured, rows: &mut Vec<Row>) {
        rows.push(
            Row::fast_decile("plans_per_s", "1/s", "higher", &run.pooled_per_s())
                .bounded(THROUGHPUT_BOUND),
        );
        if let Some(s) = self.speedup_geomean() {
            rows.push(Row::point("speedup_geomean", "x", "higher", s).bounded(0.0));
        }
    }

    fn probes(
        &mut self,
        scale: &Scale,
        run: &Measured,
        b: &mut Breakdown,
        rows: &mut Vec<Row>,
        _checks: &mut SliceOut,
    ) {
        let us = |name: &str| b.mean_dur_ns(name).map(|ns| ns / 1e3);
        for (row, span) in [
            ("core.optimize_us", "core.optimize_with"),
            ("core.autotune_us", "core.autotune"),
            ("core.baselines_us", "core.measure_baselines"),
        ] {
            if let Some(v) = us(span) {
                rows.push(Row::point(row, "us", "lower", v));
            }
        }
        rows.push(Row::point(
            "core.plan_residual_pct",
            "%",
            "lower",
            b.share_pct(crate::trace::Layer::Harness),
        ));
        rows.push(Row::fast_decile(
            "core.mcu_loop_us",
            "us",
            "lower",
            &run.unit_us("sensor"),
        ));

        rows.push(Row::samples(
            "kernels.build_ms",
            "ms",
            "lower",
            &sample_us(scale.reps(5), layers::build_models)
                .iter()
                .map(|u| u / 1e3)
                .collect::<Vec<_>>(),
        ));
        let probe = PlanProbe::new(&self.models);
        rows.push(Row::samples(
            "profiler.table_us",
            "us",
            "lower",
            &sample_us(scale.reps(2000), || probe.profile()),
        ));
        rows.push(Row::samples(
            "solver.exact.topk_us",
            "us",
            "lower",
            &sample_us(scale.reps(5000), || probe.exact_topk()),
        ));
        let fig2: Vec<f64> = sample_us(scale.reps(1500), || probe.fig2())
            .iter()
            .map(|u| u / 1e3)
            .collect();
        rows.push(Row::samples(
            "core.fig2.pixel_sparse_ms",
            "ms",
            "lower",
            &fig2,
        ));
        rows.push(Row::point(
            "core.plan.allocs_per_loop",
            "count",
            "lower",
            allocs_of(|| probe.fig2_serial()),
        ));
        if let Ok(schedule) = probe.best_schedule() {
            rows.push(Row::samples(
                "soc.des.short_run_us",
                "us",
                "lower",
                &sample_us(scale.reps(20_000), || probe.short_run(&schedule)),
            ));
            rows.push(Row::point(
                "soc.des.allocs_per_run",
                "count",
                "lower",
                allocs_of(|| probe.short_run(&schedule)),
            ));
        }
        rows.push(Row::samples(
            "soc.baseline.short_run_us",
            "us",
            "lower",
            &sample_us(scale.reps(20_000), || probe.baseline_short_run()),
        ));
    }
}
