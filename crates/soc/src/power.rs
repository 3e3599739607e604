//! Per-PU power modeling and pipeline energy accounting.
//!
//! The paper motivates edge processing with *reduced energy consumption*
//! (§1) and characterizes the Jetson's 25 W / 7 W power modes (§4.2); this
//! module makes those figures first-class so schedules can be compared on
//! energy and energy-delay product, not just latency. The model is the
//! standard two-state abstraction: each PU draws `idle_watts` when
//! powered but unoccupied and `busy_watts` while executing a kernel.

use serde::{Deserialize, Serialize};

use crate::{Micros, PerClass, PuClass, SocSpec};

/// Two-state power draw of one PU cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PowerSpec {
    /// Watts drawn while executing.
    pub busy_watts: f64,
    /// Watts drawn while idle but powered.
    pub idle_watts: f64,
}

impl PowerSpec {
    /// Creates a power spec.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or `idle > busy`.
    pub(crate) fn new(busy_watts: f64, idle_watts: f64) -> PowerSpec {
        assert!(idle_watts >= 0.0 && busy_watts >= idle_watts);
        PowerSpec {
            busy_watts,
            idle_watts,
        }
    }

    /// Class-typical defaults for edge SoCs (order-of-magnitude figures
    /// consistent with the Jetson's published 7–25 W module budgets).
    pub(crate) fn default_for(class: PuClass) -> PowerSpec {
        match class {
            PuClass::BigCpu => PowerSpec::new(3.5, 0.25),
            PuClass::MediumCpu => PowerSpec::new(2.0, 0.18),
            PuClass::LittleCpu => PowerSpec::new(0.8, 0.08),
            PuClass::Gpu => PowerSpec::new(6.0, 0.5),
        }
    }
}

/// Device-level power model: one busy/idle wattage pair per PU class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    specs: PerClass<PowerSpec>,
}

impl PowerModel {
    /// A model with class-typical defaults for every cluster of `soc`.
    pub fn default_for(soc: &SocSpec) -> PowerModel {
        PowerModel {
            specs: soc
                .classes()
                .into_iter()
                .map(|c| (c, PowerSpec::default_for(c)))
                .collect(),
        }
    }

    /// The spec for `class` (class-typical default if absent).
    pub(crate) fn spec(&self, class: PuClass) -> PowerSpec {
        self.specs
            .get(class)
            .copied()
            .unwrap_or_else(|| PowerSpec::default_for(class))
    }
}

/// Energy accounting for one simulated pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Total energy over the measured window, in joules.
    pub total_j: f64,
    /// Energy per task, in millijoules.
    pub per_task_mj: f64,
    /// Energy-delay product per task, in millijoule-milliseconds.
    pub edp_mj_ms: f64,
    /// Average device power over the window, in watts.
    pub avg_watts: f64,
}

/// Prices a measured window: each chunk's PU is busy for its utilization
/// share of the makespan, and every other powered cluster idles at its
/// idle power (they stay powered on a UMA SoC). It needs only the window's
/// makespan, per-chunk utilization and task count, so simulated and
/// wall-clock host runs are priced by the same model.
///
/// `powered_classes` lists every cluster drawing idle power for the whole
/// window (on a UMA SoC, all of them), whether or not it hosts a chunk.
///
/// # Panics
///
/// Panics if `chunk_classes.len()` disagrees with `chunk_utilization`.
pub fn energy_of_window(
    model: &PowerModel,
    makespan: Micros,
    chunk_utilization: &[f64],
    tasks: u32,
    chunk_classes: &[PuClass],
    powered_classes: &[PuClass],
) -> EnergyReport {
    assert_eq!(
        chunk_classes.len(),
        chunk_utilization.len(),
        "one class per chunk"
    );
    let span_s = makespan.as_secs();
    let mut energy = 0.0;
    // Busy + idle split for clusters hosting chunks.
    let mut hosted: Vec<PuClass> = Vec::new();
    for (&class, &util) in chunk_classes.iter().zip(chunk_utilization) {
        let spec = model.spec(class);
        let busy_s = span_s * util.clamp(0.0, 1.0);
        energy += busy_s * spec.busy_watts + (span_s - busy_s) * spec.idle_watts;
        hosted.push(class);
    }
    // Clusters with no chunk idle for the whole window.
    for &class in powered_classes {
        if !hosted.contains(&class) {
            energy += span_s * model.spec(class).idle_watts;
        }
    }
    let per_task_j = energy / tasks.max(1) as f64;
    let per_task_ms = Micros::new(makespan.as_f64() / tasks.max(1) as f64);
    EnergyReport {
        total_j: energy,
        per_task_mj: per_task_j * 1e3,
        edp_mj_ms: per_task_j * 1e3 * per_task_ms.as_millis(),
        avg_watts: if span_s > 0.0 { energy / span_s } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::ChunkSpec;
    use crate::{devices, simulate_dag, DagPipelineSpec, RunConfig, RunStats, WorkProfile};

    /// [`energy_of_window`] over a simulated run, every cluster powered.
    fn energy_of_run(
        soc: &SocSpec,
        model: &PowerModel,
        report: &RunStats,
        chunk_classes: &[PuClass],
    ) -> EnergyReport {
        energy_of_window(
            model,
            report.makespan,
            &report.chunk_utilization,
            report.tasks,
            chunk_classes,
            &soc.classes(),
        )
    }

    fn run(chunks: &[ChunkSpec]) -> (SocSpec, RunStats) {
        let soc = devices::pixel_7a();
        let cfg = RunConfig {
            noise_sigma: 0.0,
            ..RunConfig::default()
        };
        let chain = DagPipelineSpec::chain(chunks.to_vec());
        let report = simulate_dag(&soc, &chain, &cfg, None).expect("simulates");
        let stats = report.expect_stats().clone();
        (soc, stats)
    }

    #[test]
    fn busy_pu_costs_more_than_idle() {
        let chunks = [ChunkSpec::new(
            PuClass::BigCpu,
            vec![WorkProfile::new(1e7, 1e6)],
        )];
        let (soc, report) = run(&chunks);
        let model = PowerModel::default_for(&soc);
        let e = energy_of_run(&soc, &model, &report, &[PuClass::BigCpu]);
        // Average power must exceed the all-idle floor and stay below the
        // all-busy ceiling.
        let idle_floor: f64 = soc
            .classes()
            .iter()
            .map(|&c| model.spec(c).idle_watts)
            .sum();
        let busy_ceiling: f64 = soc
            .classes()
            .iter()
            .map(|&c| model.spec(c).busy_watts)
            .sum();
        assert!(e.avg_watts > idle_floor, "{} <= {idle_floor}", e.avg_watts);
        assert!(e.avg_watts < busy_ceiling);
        assert!(e.per_task_mj > 0.0 && e.edp_mj_ms > 0.0);
    }

    #[test]
    fn gpu_heavy_run_draws_more_power_than_little_run() {
        let work = WorkProfile::new(5e7, 5e6);
        let (soc, gpu_report) = run(&[ChunkSpec::new(PuClass::Gpu, vec![work.clone()])]);
        let (_, little_report) = run(&[ChunkSpec::new(PuClass::LittleCpu, vec![work])]);
        let model = PowerModel::default_for(&soc);
        let gpu = energy_of_run(&soc, &model, &gpu_report, &[PuClass::Gpu]);
        let little = energy_of_run(&soc, &model, &little_report, &[PuClass::LittleCpu]);
        assert!(gpu.avg_watts > little.avg_watts);
    }

    #[test]
    fn overrides_take_effect() {
        let soc = devices::jetson_orin_nano();
        let mut model = PowerModel::default_for(&soc);
        model.specs.set(PuClass::Gpu, PowerSpec::new(15.0, 2.0));
        assert_eq!(model.spec(PuClass::Gpu).busy_watts, 15.0);
        assert_eq!(
            model.spec(PuClass::BigCpu),
            PowerSpec::default_for(PuClass::BigCpu)
        );
    }

    #[test]
    #[should_panic(expected = "one class per chunk")]
    fn chunk_class_mismatch_panics() {
        let chunks = [ChunkSpec::new(
            PuClass::BigCpu,
            vec![WorkProfile::new(1e6, 1e5)],
        )];
        let (soc, report) = run(&chunks);
        let model = PowerModel::default_for(&soc);
        let _ = energy_of_run(&soc, &model, &report, &[]);
    }

    #[test]
    #[should_panic]
    fn idle_above_busy_rejected() {
        let _ = PowerSpec::new(1.0, 2.0);
    }
}
