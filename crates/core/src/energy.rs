//! Energy evaluation of schedules — the edge-computing motivation of §1
//! quantified: compare a BetterTogether pipeline against the homogeneous
//! baselines on energy per task and energy-delay product. Generic over the
//! execution backend: simulated windows and wall-clock host windows are
//! priced by the same two-state power model.

use bt_pipeline::Schedule;
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
