//! Bridge from pipeline schedules to the discrete-event simulator: the
//! virtual-device counterpart of [`crate::run_host`]. Every schedule shape
//! lowers to one [`simulate_dag`] call; a chain is [`DagPipelineSpec::chain`].

use bt_kernels::{AppModel, TaskGraph};
use bt_soc::des::ChunkSpec;
use bt_soc::parallel::{amortises_spawn, des_run_us, fan_out};
use bt_soc::{
    simulate_dag, DagPipelineSpec, DesSeedSpec, FaultSpec, PuClass, RunConfig, RunReport, SocError,
    SocSpec,
};

use crate::{DagSchedule, PipelineError, Schedule};

/// [`PipelineError::StageMismatch`] unless a schedule of `stages` stages
/// fits `app` — e.g. a cached plan deserialized against a
/// differently-configured app.
fn check_stages(app: &AppModel, stages: usize) -> Result<(), PipelineError> {
    if stages == app.stage_count() {
        Ok(())
    } else {
        Err(PipelineError::StageMismatch {
            app: app.stage_count(),
            schedule: stages,
        })
    }
}

/// One schedule chunk as the simulator sees it: `stages` of `app`, in
/// order, on `pu`.
fn chunk_spec(app: &AppModel, pu: PuClass, stages: impl IntoIterator<Item = usize>) -> ChunkSpec {
    let works = stages.into_iter().map(|s| app.stages[s].work.clone());
    ChunkSpec::new(pu, works.collect())
}

/// Converts a schedule over `app` into the simulator's chunk list.
///
/// # Errors
///
/// Returns [`PipelineError::StageMismatch`] if the schedule length
/// mismatches the application.
pub fn to_chunk_specs(
    app: &AppModel,
    schedule: &Schedule,
) -> Result<Vec<ChunkSpec>, PipelineError> {
    check_stages(app, schedule.stage_count())?;
    Ok(schedule
        .chunks()
        .iter()
        .map(|c| chunk_spec(app, c.pu, c.first_stage..=c.last_stage))
        .collect())
}

/// Converts a DAG schedule over `app` into the simulator's chunk-DAG
/// spec: one [`ChunkSpec`] per schedule chunk (stage works in dependency
/// order), the schedule's quotient edges, and — when a stage is
/// replicated — a two-member replica group whose chunks each carry the
/// full stage work (the engine serves alternating tasks per member, so
/// per-replica throughput halves without halving per-task service).
///
/// # Errors
///
/// Returns [`PipelineError::StageMismatch`] on a stage-count disagreement
/// and [`PipelineError::GraphMismatch`] when the schedule was validated
/// against a different dependency graph than the application declares.
fn to_dag_spec(app: &AppModel, schedule: &DagSchedule) -> Result<DagPipelineSpec, PipelineError> {
    check_stages(app, schedule.stage_count())?;
    let same_graph = match &app.graph {
        Some(graph) => schedule.graph() == graph,
        None => *schedule.graph() == TaskGraph::chain(app.stage_count()),
    };
    if !same_graph {
        return Err(PipelineError::GraphMismatch);
    }
    let chunks = schedule
        .chunks()
        .iter()
        .map(|c| chunk_spec(app, c.pu, c.stages.iter().copied()))
        .collect();
    let mut spec = DagPipelineSpec::new(chunks, schedule.chunk_edges().to_vec());
    if let Some((a, b)) = schedule.replica_pair() {
        spec = spec.with_replica_group(vec![a, b]);
    }
    Ok(spec)
}

/// Simulates pipelined execution of `schedule` over `app` on `soc` — the
/// "measured" latency of the reproduction's experiments. Pass
/// `Some(faults)` to inject runtime faults (the virtual-device counterpart
/// of resilient host execution); the returned [`RunReport`] carries the
/// completed/dropped accounting alongside the steady-state measurement
/// over surviving tasks.
///
/// # Errors
///
/// Returns [`PipelineError::StageMismatch`] on a schedule/application stage
/// disagreement, or [`PipelineError::Soc`] from the simulator (missing PU,
/// empty inputs).
pub fn simulate_schedule(
    soc: &SocSpec,
    app: &AppModel,
    schedule: &Schedule,
    cfg: &RunConfig,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, PipelineError> {
    let spec = DagPipelineSpec::chain(to_chunk_specs(app, schedule)?);
    Ok(simulate_dag(soc, &spec, cfg, faults)?)
}

/// [`simulate_schedule`] mapped over `lanes` (a seed plus optional fault
/// plan each): the schedule is converted once, and report `i` is the
/// [`simulate_schedule`] run with lane `i`'s seed and faults, in lane
/// order. The lanes are spread over cores by [`fan_out`] only when one
/// lane [amortises a spawn](amortises_spawn): 3 000-task lanes do, the
/// 35-task lanes of autotuning and cold solves do not.
///
/// # Errors
///
/// Returns [`PipelineError::StageMismatch`] on a schedule/application
/// stage disagreement, [`SocError::EmptySimulation`] (as
/// [`PipelineError::Soc`]) when `lanes` is empty, and otherwise the error
/// of the lowest-numbered failing lane.
pub fn simulate_schedule_batch(
    soc: &SocSpec,
    app: &AppModel,
    schedule: &Schedule,
    cfg: &RunConfig,
    lanes: &[DesSeedSpec],
) -> Result<Vec<RunReport>, PipelineError> {
    let spec = DagPipelineSpec::chain(to_chunk_specs(app, schedule)?);
    if lanes.is_empty() {
        return Err(SocError::EmptySimulation.into());
    }
    let parallel = amortises_spawn(des_run_us(cfg, spec.chunks.len()));
    let reports = fan_out(lanes.len(), parallel, |i| {
        let cfg = RunConfig {
            seed: lanes[i].seed,
            ..cfg.clone()
        };
        simulate_dag(soc, &spec, &cfg, lanes[i].faults.as_ref())
    });
    Ok(reports.into_iter().collect::<Result<_, _>>()?)
}

/// Simulates pipelined execution of a fork/join `schedule` over `app` —
/// the DAG counterpart of [`simulate_schedule`]. Chain-shaped schedules
/// are priced bit-identically to [`simulate_schedule`] (one engine, the
/// same routing); genuine DAGs get real branch concurrency, with sibling
/// branches charging each other interference.
///
/// # Errors
///
/// Returns [`PipelineError::StageMismatch`] /
/// [`PipelineError::GraphMismatch`] on schedule/application disagreement,
/// or [`PipelineError::Soc`] from the simulator.
pub fn simulate_dag_schedule(
    soc: &SocSpec,
    app: &AppModel,
    schedule: &DagSchedule,
    cfg: &RunConfig,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, PipelineError> {
    let spec = to_dag_spec(app, schedule)?;
    Ok(simulate_dag(soc, &spec, cfg, faults)?)
}

/// Simulates the paper's homogeneous baseline: every stage offloaded to a
/// single PU class, synchronizing after each stage (the accelerator-
/// oriented dispatch pattern, in contrast to BT-Implementer's
/// once-per-chunk synchronization).
///
/// # Errors
///
/// Propagates [`SocError`] from the simulator.
pub fn simulate_baseline(
    soc: &SocSpec,
    app: &AppModel,
    class: PuClass,
    cfg: &RunConfig,
) -> Result<RunReport, SocError> {
    let chunk = ChunkSpec::new(class, app.works()).with_per_stage_sync();
    simulate_dag(soc, &DagPipelineSpec::chain(vec![chunk]), cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_kernels::apps;
    use bt_soc::{devices, PuClass};

    fn octree_model() -> AppModel {
        apps::octree_app(apps::OctreeConfig::default()).model()
    }

    fn noiseless() -> RunConfig {
        RunConfig {
            noise_sigma: 0.0,
            ..RunConfig::default()
        }
    }

    fn tpt(soc: &SocSpec, app: &AppModel, schedule: &Schedule) -> f64 {
        simulate_schedule(soc, app, schedule, &noiseless(), None)
            .unwrap()
            .expect_stats()
            .time_per_task
            .as_f64()
    }

    #[test]
    fn chunk_specs_cover_all_stages() {
        let app = octree_model();
        let schedule = Schedule::new(vec![
            PuClass::BigCpu,
            PuClass::BigCpu,
            PuClass::MediumCpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::LittleCpu,
        ])
        .unwrap();
        let chunks = to_chunk_specs(&app, &schedule).unwrap();
        assert_eq!(chunks.len(), 4);
        let total: usize = chunks.iter().map(|c| c.stages.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn stage_mismatch_is_typed_error() {
        let app = octree_model();
        let schedule = Schedule::homogeneous(3, PuClass::BigCpu);
        assert_eq!(
            to_chunk_specs(&app, &schedule).unwrap_err(),
            crate::PipelineError::StageMismatch {
                app: app.stage_count(),
                schedule: 3
            }
        );
        let soc = devices::pixel_7a();
        assert!(matches!(
            simulate_schedule(&soc, &app, &schedule, &noiseless(), None).unwrap_err(),
            crate::PipelineError::StageMismatch { .. }
        ));
    }

    #[test]
    fn some_pipeline_beats_homogeneous_on_pixel_octree() {
        use PuClass::*;
        let app = octree_model();
        let soc = devices::pixel_7a();
        let homog = Schedule::homogeneous(7, BigCpu);
        let base = tpt(&soc, &app, &homog);

        let candidates = [
            vec![BigCpu, BigCpu, MediumCpu, Gpu, Gpu, LittleCpu, LittleCpu],
            vec![Gpu, Gpu, MediumCpu, BigCpu, BigCpu, LittleCpu, BigCpu],
            vec![MediumCpu, BigCpu, BigCpu, Gpu, Gpu, LittleCpu, BigCpu],
            vec![LittleCpu, BigCpu, MediumCpu, Gpu, Gpu, Gpu, BigCpu],
            vec![MediumCpu, BigCpu, LittleCpu, Gpu, Gpu, Gpu, BigCpu],
        ];
        let best = candidates
            .iter()
            .filter_map(|a| Schedule::new(a.clone()).ok())
            .map(|s| tpt(&soc, &app, &s))
            .fold(f64::MAX, f64::min);
        assert!(
            best < base,
            "some pipeline should beat homogeneous: best {best} vs base {base}"
        );
    }

    fn perception_model() -> AppModel {
        apps::perception_app(apps::PerceptionConfig::default()).model()
    }

    fn perception_dag_schedule(app: &AppModel) -> crate::DagSchedule {
        use PuClass::*;
        crate::DagSchedule::new(
            vec![LittleCpu, Gpu, Gpu, BigCpu, BigCpu, MediumCpu, MediumCpu],
            &app.task_graph(),
        )
        .unwrap()
    }

    #[test]
    fn dag_spec_mirrors_schedule_structure() {
        let app = perception_model();
        let s = perception_dag_schedule(&app);
        let spec = to_dag_spec(&app, &s).unwrap();
        assert_eq!(spec.chunks.len(), 4);
        assert!(spec.replica_groups.is_empty());
        let total: usize = spec.chunks.iter().map(|c| c.stages.len()).sum();
        assert_eq!(total, 7);
        // The quotient of the perception graph under this assignment is a
        // diamond: preprocess forks to the two branch chunks, which join.
        assert_eq!(spec.edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn replicated_schedule_maps_to_replica_group() {
        use PuClass::*;
        let app = octree_model();
        let g = app.task_graph();
        let s = crate::DagSchedule::replicated(
            vec![
                MediumCpu, MediumCpu, MediumCpu, Gpu, LittleCpu, LittleCpu, LittleCpu,
            ],
            &g,
            3,
            (Gpu, BigCpu),
        )
        .unwrap();
        let spec = to_dag_spec(&app, &s).unwrap();
        assert_eq!(spec.chunks.len(), 4);
        assert_eq!(spec.replica_groups, vec![vec![1, 2]]);
        // Both replica chunks carry the full bottleneck-stage work.
        assert_eq!(spec.chunks[1].stages, spec.chunks[2].stages);
        let soc = devices::pixel_7a();
        let report = simulate_dag_schedule(&soc, &app, &s, &noiseless(), None).unwrap();
        assert!(report.expect_stats().time_per_task.as_f64() > 0.0);
    }

    #[test]
    fn chain_dag_schedule_prices_bit_identically() {
        use PuClass::*;
        let app = octree_model();
        let soc = devices::pixel_7a();
        let linear =
            Schedule::new(vec![BigCpu, BigCpu, MediumCpu, Gpu, Gpu, Gpu, LittleCpu]).unwrap();
        let dag = crate::DagSchedule::from_schedule(&linear);
        let cfg = RunConfig::default();
        let a = simulate_schedule(&soc, &app, &linear, &cfg, None).unwrap();
        let b = simulate_dag_schedule(&soc, &app, &dag, &cfg, None).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn batched_schedule_rejects_stage_mismatch() {
        let app = octree_model();
        let soc = devices::pixel_7a();
        let schedule = Schedule::homogeneous(3, PuClass::BigCpu);
        assert!(matches!(
            simulate_schedule_batch(
                &soc,
                &app,
                &schedule,
                &RunConfig::default(),
                &[DesSeedSpec::new(1)]
            )
            .unwrap_err(),
            crate::PipelineError::StageMismatch { .. }
        ));
        // A batch of no lanes is the simulator's empty run.
        let octree = Schedule::homogeneous(7, PuClass::BigCpu);
        assert!(matches!(
            simulate_schedule_batch(&soc, &app, &octree, &RunConfig::default(), &[]).unwrap_err(),
            crate::PipelineError::Soc(SocError::EmptySimulation)
        ));
    }

    #[test]
    fn dag_graph_mismatch_is_typed_error() {
        let perception = perception_model();
        let s = perception_dag_schedule(&perception);
        // Same stage count, chain-shaped dependency structure.
        let octree = octree_model();
        assert_eq!(octree.stage_count(), 7);
        assert!(matches!(
            to_dag_spec(&octree, &s).unwrap_err(),
            crate::PipelineError::GraphMismatch
        ));
    }

    #[test]
    fn missing_pu_propagates() {
        let app = octree_model();
        let soc = devices::jetson_orin_nano();
        let schedule = Schedule::new(vec![PuClass::LittleCpu; 7]).unwrap();
        assert!(simulate_schedule(&soc, &app, &schedule, &noiseless(), None).is_err());
    }
}
