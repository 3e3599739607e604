//! Energy evaluation of schedules — the edge-computing motivation of §1
//! quantified: compare a BetterTogether pipeline against the homogeneous
//! baselines on energy per task and energy-delay product. Generic over the
//! execution backend: simulated windows and wall-clock host windows are
//! priced by the same two-state power model.

use bt_pipeline::Schedule;
use bt_soc::parallel::fan_out;
use bt_soc::power::{energy_of_window, EnergyReport, PowerModel};
use bt_soc::PuClass;

use crate::backend::ExecutionBackend;
use crate::BtError;

/// Measures `schedule` on the backend and returns its energy accounting
/// under `model`. Every class the backend reports powered draws at least
/// idle power for the whole window.
///
/// # Errors
///
/// Propagates backend measurement errors.
pub fn measure_energy<B: ExecutionBackend>(
    backend: &B,
    schedule: &Schedule,
    model: &PowerModel,
) -> Result<EnergyReport, BtError> {
    let m = backend.measure(schedule, 0)?;
    let classes: Vec<PuClass> = schedule.chunks().iter().map(|c| c.pu).collect();
    Ok(energy_of_window(
        model,
        m.makespan,
        &m.chunk_utilization,
        m.tasks,
        &classes,
        &backend.classes(),
    ))
}

/// Measures the homogeneous baseline on `class` and returns its energy.
///
/// # Errors
///
/// Propagates backend measurement errors.
pub fn measure_baseline_energy<B: ExecutionBackend>(
    backend: &B,
    class: PuClass,
    model: &PowerModel,
) -> Result<EnergyReport, BtError> {
    let m = backend.measure_baseline(class)?;
    Ok(energy_of_window(
        model,
        m.makespan,
        &m.chunk_utilization,
        m.tasks,
        &[class],
        &backend.classes(),
    ))
}

/// A pipeline schedule's energy accounting next to every baseline class
/// the backend declares, from one evaluation sweep.
#[derive(Debug, Clone)]
pub struct EnergyComparison {
    /// The pipeline schedule's energy.
    pub schedule: EnergyReport,
    /// Each baseline class with its energy, in the backend's
    /// baseline-class order.
    pub baselines: Vec<(PuClass, EnergyReport)>,
}

impl EnergyComparison {
    /// The lowest baseline energy-per-task, for speedup-style ratios.
    pub fn best_baseline_per_task_mj(&self) -> Option<f64> {
        self.baselines
            .iter()
            .map(|(_, e)| e.per_task_mj)
            .min_by(|a, b| a.partial_cmp(b).expect("finite energy"))
    }
}

/// Prices `schedule` against every baseline class in one sweep. When the
/// backend's
/// [`parallel_measure_hint`](ExecutionBackend::parallel_measure_hint) is
/// set, the schedule run and all baseline runs execute concurrently;
/// results merge in declaration order (schedule first, then
/// [`baseline_classes`](ExecutionBackend::baseline_classes)), so reports
/// are byte-identical to calling [`measure_energy`] and
/// [`measure_baseline_energy`] serially.
///
/// # Errors
///
/// Propagates backend measurement errors.
pub fn energy_comparison<B: ExecutionBackend>(
    backend: &B,
    schedule: &Schedule,
    model: &PowerModel,
) -> Result<EnergyComparison, BtError> {
    let classes = backend.baseline_classes();
    let mut runs = fan_out(classes.len() + 1, backend.parallel_measure_hint(), |i| {
        if i == 0 {
            backend.measure(schedule, 0)
        } else {
            backend.measure_baseline(classes[i - 1])
        }
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?
    .into_iter();
    let powered = backend.classes();
    let m = runs.next().expect("schedule run present");
    let schedule_classes: Vec<PuClass> = schedule.chunks().iter().map(|c| c.pu).collect();
    let schedule_energy = energy_of_window(
        model,
        m.makespan,
        &m.chunk_utilization,
        m.tasks,
        &schedule_classes,
        &powered,
    );
    let baselines = classes
        .into_iter()
        .zip(runs)
        .map(|(class, m)| {
            let e = energy_of_window(
                model,
                m.makespan,
                &m.chunk_utilization,
                m.tasks,
                &[class],
                &powered,
            );
            (class, e)
        })
        .collect();
    Ok(EnergyComparison {
        schedule: schedule_energy,
        baselines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::BetterTogether;
    use bt_kernels::apps;
    use bt_soc::devices;

    #[test]
    fn pipeline_beats_cpu_baseline_on_edp() {
        // Pipelining keeps more silicon busy (higher power) but finishes
        // tasks much faster; on energy-delay product it must win against
        // the CPU baseline for the octree workload on the Pixel.
        let soc = devices::pixel_7a();
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let d = BetterTogether::new(soc.clone(), app.clone())
            .run()
            .expect("runs");
        let model = PowerModel::default_for(&soc);
        let backend = SimBackend::new(soc, app);
        let best = d.best_schedule().expect("autotuned");
        let bt = measure_energy(&backend, best, &model).expect("energy");
        let cpu = measure_baseline_energy(&backend, PuClass::BigCpu, &model).expect("energy");
        assert!(
            bt.edp_mj_ms < cpu.edp_mj_ms,
            "pipeline EDP {:.2} should beat CPU baseline {:.2}",
            bt.edp_mj_ms,
            cpu.edp_mj_ms
        );
    }

    #[test]
    fn comparison_sweep_matches_individual_measurements() {
        let soc = devices::pixel_7a();
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let model = PowerModel::default_for(&soc);
        let backend = SimBackend::new(soc, app);
        let d = BetterTogether::with_backend(backend.clone())
            .run()
            .expect("runs");
        let best = d.best_schedule().expect("autotuned");
        let cmp = energy_comparison(&backend, best, &model).expect("sweep");
        let solo = measure_energy(&backend, best, &model).expect("energy");
        assert_eq!(cmp.schedule.per_task_mj, solo.per_task_mj);
        assert_eq!(cmp.baselines.len(), backend.baseline_classes().len());
        for (class, e) in &cmp.baselines {
            let solo = measure_baseline_energy(&backend, *class, &model).expect("energy");
            assert_eq!(e.per_task_mj, solo.per_task_mj, "baseline {class}");
            assert_eq!(e.edp_mj_ms, solo.edp_mj_ms, "baseline {class}");
        }
        assert!(cmp.best_baseline_per_task_mj().is_some());
    }

    #[test]
    fn gpu_baseline_energy_reflects_runtime() {
        // On the Pixel the GPU octree baseline runs ~4x longer than the
        // CPU baseline, so its energy per task must be higher even though
        // the busy cluster differs.
        let soc = devices::pixel_7a();
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let model = PowerModel::default_for(&soc);
        let backend = SimBackend::new(soc, app);
        let gpu = measure_baseline_energy(&backend, PuClass::Gpu, &model).expect("energy");
        let cpu = measure_baseline_energy(&backend, PuClass::BigCpu, &model).expect("energy");
        assert!(gpu.per_task_mj > cpu.per_task_mj);
    }
}
