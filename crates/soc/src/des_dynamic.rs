//! Dynamic (StarPU-style) scheduling in the simulator — the comparison
//! point of the paper's Related Work (§6): a greedy runtime that assigns
//! each ready (task, stage) to an idle PU at dispatch time instead of
//! fixing a static stage → PU map.
//!
//! Two honest costs distinguish it from BT-Implementer's static chunks:
//! every stage pays the PU's completion-synchronization cost, and
//! placement uses at best *isolated* latency estimates — it cannot
//! anticipate the interference its own concurrent placements create.
//!
//! Both entry points lower onto the forest engine of [`crate::des`]: one
//! tree with a station per schedulable PU, each holding every stage with
//! per-stage sync, placed at dispatch. Pricing, faults, timelines and
//! telemetry are the static engine's; faults match `(task, stage)` on any
//! chunk, and lost PUs are routed around.

use super::{dag, run_tree, ChunkSpec, TreeView};
use crate::fault::FaultSpec;
use crate::{RunConfig, RunReport, SocError, SocSpec, WorkProfile};

/// Placement policy of the dynamic scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicPolicy {
    /// Oldest ready stage goes to the first idle PU (work-conserving FIFO).
    Fifo,
    /// Oldest ready stage goes to the idle PU with the lowest *isolated*
    /// latency estimate for that stage — a HEFT-flavoured greedy heuristic.
    BestFit,
}

/// Simulates dynamic scheduling of `stages` (per-task, in order) over all
/// schedulable PUs of `soc`, optionally under the perturbations in
/// `faults` (`None` skips every fault lookup and is bit-identical to an
/// empty spec). The stages form the chain `0 → 1 → …`; see
/// [`simulate_dynamic_dag`] for the scheduler itself.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] for empty inputs,
/// [`SocError::EmptyDevice`] when the device has no schedulable PU, and
/// [`SocError::BadDag`] past [`bt_rt::MAX_STAGES`] stages.
pub fn simulate_dynamic(
    soc: &SocSpec,
    stages: &[WorkProfile],
    cfg: &RunConfig,
    policy: DynamicPolicy,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, SocError> {
    let chain: Vec<(usize, usize)> = (1..stages.len()).map(|i| (i - 1, i)).collect();
    simulate_dynamic_dag(soc, stages, &chain, cfg, policy, faults)
}

/// Simulates dynamic scheduling where each task's stages form a DAG given
/// by `deps` (edges `(from, to)` over stage indices): a stage becomes ready
/// once every predecessor stage of the *same task* has completed, so
/// sibling branches of one task can occupy distinct PUs concurrently. A
/// task completes when all of its stages have; a kernel error or PU death
/// on any stage kills the whole task (its other in-flight stages finish
/// but their results are discarded). At most `cfg.buffers` tasks (default:
/// one more than the PU count) are in flight; a timeline span's `chunk` is
/// the PU slot.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] for empty inputs,
/// [`SocError::BadDag`] for out-of-range or self-loop edges, for cyclic
/// dependencies and for more than [`bt_rt::MAX_STAGES`] stages (the
/// dispatcher reads the stage graph as masks, a chain's too), and
/// [`SocError::EmptyDevice`] when the device has no schedulable PU.
pub fn simulate_dynamic_dag(
    soc: &SocSpec,
    stages: &[WorkProfile],
    deps: &[(usize, usize)],
    cfg: &RunConfig,
    policy: DynamicPolicy,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, SocError> {
    if stages.is_empty() || cfg.tasks == 0 {
        return Err(SocError::EmptySimulation);
    }
    let dag = dag(stages.len(), deps, "stage")?;
    let stations: Vec<ChunkSpec> = soc
        .schedulable_classes()
        .into_iter()
        .map(|pu| ChunkSpec::new(pu, stages.to_vec()).with_per_stage_sync())
        .collect();
    if stations.is_empty() {
        return Err(SocError::EmptyDevice);
    }
    let view = TreeView {
        chunks: &stations,
        cfg,
        edges: None,
        replica_groups: &[],
        dispatch: Some((policy, &dag)),
    };
    run_tree(soc, view, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StageFaultKind;
    use crate::{devices, PuClass, RunStats};

    fn stages() -> Vec<WorkProfile> {
        vec![
            WorkProfile::new(1e7, 2e6),
            WorkProfile::new(2e7, 4e6),
            WorkProfile::new(5e6, 1e6),
        ]
    }

    fn cfg() -> RunConfig {
        RunConfig {
            noise_sigma: 0.0,
            ..RunConfig::default()
        }
    }

    fn stats(
        soc: &SocSpec,
        work: &[WorkProfile],
        cfg: &RunConfig,
        policy: DynamicPolicy,
    ) -> RunStats {
        simulate_dynamic(soc, work, cfg, policy, None)
            .expect("simulates")
            .expect_stats()
            .clone()
    }

    #[test]
    fn both_policies_complete_all_tasks() {
        let soc = devices::pixel_7a();
        for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
            let r = stats(&soc, &stages(), &cfg(), policy);
            assert_eq!(r.tasks, 30);
            assert!(r.time_per_task.as_f64() > 0.0);
            assert_eq!(r.chunk_utilization.len(), 4, "one entry per schedulable PU");
        }
    }

    #[test]
    fn best_fit_beats_fifo_on_heterogeneous_work() {
        // A stage mix with a strongly GPU-hostile stage: FIFO will sometimes
        // place it on the GPU, BestFit won't.
        let soc = devices::pixel_7a();
        let mixed = vec![
            WorkProfile::new(3e7, 5e6), // regular
            WorkProfile::new(1e7, 8e6)
                .with_divergence(0.9)
                .with_irregularity(0.8), // GPU-hostile
        ];
        let fifo = stats(&soc, &mixed, &cfg(), DynamicPolicy::Fifo);
        let fit = stats(&soc, &mixed, &cfg(), DynamicPolicy::BestFit);
        assert!(
            fit.time_per_task.as_f64() <= fifo.time_per_task.as_f64() * 1.05,
            "best-fit {} should not lose to fifo {}",
            fit.time_per_task,
            fifo.time_per_task
        );
    }

    #[test]
    fn timeline_and_telemetry_cover_every_placed_stage() {
        let soc = devices::pixel_7a();
        let cfg = RunConfig {
            record_timeline: true,
            telemetry: bt_telemetry::TelemetryConfig::full(),
            ..cfg()
        };
        let pus = soc.schedulable_classes().len();
        for (work, deps) in [
            (stages(), vec![(0, 1), (1, 2)]),
            (diamond_stages(), diamond_deps()),
        ] {
            for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
                let r = simulate_dynamic_dag(&soc, &work, &deps, &cfg, policy, None).unwrap();
                let visits = r.submitted as usize * work.len();
                // One span per executed stage, each on a PU slot.
                assert_eq!(r.timeline.len(), visits);
                let mut seen: Vec<(u64, usize)> = r
                    .timeline
                    .iter()
                    .map(|s| (s.task, s.stage.expect("per-stage spans")))
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), visits, "every (task, stage) runs once");
                for slot in 0..pus {
                    let mut spans: Vec<_> = r.timeline.iter().filter(|s| s.chunk == slot).collect();
                    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
                    assert!(
                        spans.windows(2).all(|w| w[0].end_us <= w[1].start_us),
                        "slot {slot} serves one stage at a time"
                    );
                }
                assert!(r.timeline.iter().all(|s| s.chunk < pus));
                let tele = r.telemetry.as_ref().expect("telemetry requested");
                assert_eq!(tele.dispatchers.len(), pus, "one dispatcher per PU");
                let served: u64 = tele.dispatchers.iter().map(|d| d.tasks).sum();
                assert_eq!(served as usize, visits);
                assert_eq!(tele.spans.len(), visits);
            }
        }
    }

    #[test]
    fn oneplus_excludes_unpinnable_littles() {
        let soc = devices::oneplus_11();
        let r = stats(&soc, &stages(), &cfg(), DynamicPolicy::BestFit);
        assert_eq!(r.chunk_utilization.len(), 3, "little cluster is unpinnable");
    }

    #[test]
    fn empty_inputs_rejected() {
        let soc = devices::pixel_7a();
        assert!(simulate_dynamic(&soc, &[], &cfg(), DynamicPolicy::Fifo, None).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let soc = devices::jetson_orin_nano();
        let a = stats(&soc, &stages(), &cfg(), DynamicPolicy::BestFit);
        let b = stats(&soc, &stages(), &cfg(), DynamicPolicy::BestFit);
        assert_eq!(a.makespan.as_f64(), b.makespan.as_f64());
    }

    // ------------------------- faulted mode -------------------------

    use crate::fault::{PuLoss, StageFault};

    #[test]
    fn none_faults_matches_empty_spec() {
        let soc = devices::pixel_7a();
        let cfg = RunConfig {
            noise_sigma: 0.03,
            seed: 5,
            ..cfg()
        };
        for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
            let plain = simulate_dynamic(&soc, &stages(), &cfg, policy, None).unwrap();
            let empty = FaultSpec::none();
            let faulted = simulate_dynamic(&soc, &stages(), &cfg, policy, Some(&empty)).unwrap();
            assert_eq!(faulted.dropped, 0);
            assert_eq!(faulted.completed, faulted.submitted);
            assert_eq!(faulted.faults_fired, 0);
            let (r, p) = (faulted.expect_stats(), plain.expect_stats());
            assert_eq!(r.makespan.as_f64(), p.makespan.as_f64());
            assert_eq!(r.time_per_task.as_f64(), p.time_per_task.as_f64());
            assert_eq!(r.chunk_utilization, p.chunk_utilization);
        }
    }

    #[test]
    fn dynamic_scheduler_routes_around_pu_loss() {
        let soc = devices::pixel_7a();
        let base = stats(&soc, &stages(), &cfg(), DynamicPolicy::BestFit);
        // Lose the GPU halfway through the run: at most the in-flight
        // stage dies; everything else lands on surviving PUs.
        let spec = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::Gpu,
                at_us: base.makespan.as_f64() / 2.0,
            }],
            ..FaultSpec::default()
        };
        let r =
            simulate_dynamic(&soc, &stages(), &cfg(), DynamicPolicy::BestFit, Some(&spec)).unwrap();
        assert_eq!(r.completed + r.dropped, r.submitted);
        assert!(r.dropped <= 1, "only in-flight work may die: {}", r.dropped);
        assert!(r.stats.is_some());
    }

    #[test]
    fn losing_every_pu_strands_all_work() {
        let soc = devices::pixel_7a();
        let losses = soc
            .schedulable_classes()
            .into_iter()
            .map(|class| PuLoss { class, at_us: 0.0 })
            .collect();
        let spec = FaultSpec {
            losses,
            ..FaultSpec::default()
        };
        // A chain (one ready stage per task) and a fork (two).
        for (work, deps) in [
            (stages(), vec![(0, 1), (1, 2)]),
            (diamond_stages(), diamond_deps()),
        ] {
            let r =
                simulate_dynamic_dag(&soc, &work, &deps, &cfg(), DynamicPolicy::Fifo, Some(&spec))
                    .unwrap();
            assert_eq!(r.completed, 0);
            assert_eq!(r.dropped, r.submitted);
            assert!(r.stats.is_none());
            assert!(r.is_degraded());
        }
    }

    #[test]
    fn faulted_dynamic_runs_are_deterministic() {
        let soc = devices::jetson_orin_nano();
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 11,
            ..cfg()
        };
        let spec = FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 0,
                task: 4,
                stage: 1,
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        };
        let a =
            simulate_dynamic(&soc, &stages(), &cfg, DynamicPolicy::BestFit, Some(&spec)).unwrap();
        let b =
            simulate_dynamic(&soc, &stages(), &cfg, DynamicPolicy::BestFit, Some(&spec)).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.dropped, 1);
    }

    // ------------------------- DAG-shaped stages -------------------------

    /// Diamond: 0 forks into {1, 2}, which join at 3.
    fn diamond_deps() -> Vec<(usize, usize)> {
        vec![(0, 1), (0, 2), (1, 3), (2, 3)]
    }

    /// Branch 1 is GPU-friendly, branch 2 GPU-hostile: on a pixel 7a their
    /// best-PU latencies are nearly equal (~240 us on Gpu vs BigCpu), so a
    /// fork genuinely overlaps them on different silicon.
    fn diamond_stages() -> Vec<WorkProfile> {
        vec![
            WorkProfile::new(1e6, 5e5),
            WorkProfile::new(2e7, 4e6),
            WorkProfile::new(3e6, 2e6)
                .with_divergence(0.9)
                .with_irregularity(0.8),
            WorkProfile::new(1e6, 5e5),
        ]
    }

    #[test]
    fn chain_deps_delegate_bit_identically() {
        let soc = devices::pixel_7a();
        let cfg = RunConfig {
            noise_sigma: 0.04,
            seed: 9,
            ..cfg()
        };
        let chain: Vec<(usize, usize)> = vec![(0, 1), (1, 2)];
        for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
            let direct = simulate_dynamic(&soc, &stages(), &cfg, policy, None).unwrap();
            let via_dag =
                simulate_dynamic_dag(&soc, &stages(), &chain, &cfg, policy, None).unwrap();
            assert_eq!(format!("{direct:?}"), format!("{via_dag:?}"));
        }
    }

    #[test]
    fn malformed_deps_rejected() {
        let soc = devices::pixel_7a();
        let work = diamond_stages();
        for bad in [
            vec![(0usize, 9usize)],       // out of range
            vec![(1, 1)],                 // self-loop
            vec![(0, 1), (1, 2), (2, 1)], // cycle
        ] {
            let err = simulate_dynamic_dag(&soc, &work, &bad, &cfg(), DynamicPolicy::Fifo, None)
                .unwrap_err();
            assert!(matches!(err, SocError::BadDag { .. }), "got {err:?}");
        }
        // A fork over 65 stages: 0 feeds every other one.
        let fork: Vec<(usize, usize)> = (1..65).map(|s| (0, s)).collect();
        let wide = vec![work[0].clone(); 65];
        let err = simulate_dynamic_dag(&soc, &wide, &fork, &cfg(), DynamicPolicy::Fifo, None)
            .unwrap_err();
        assert!(err.to_string().contains("65 stages exceed the 64"), "{err}");
    }

    #[test]
    fn diamond_completes_and_is_deterministic() {
        let soc = devices::pixel_7a();
        let run = |_: ()| {
            simulate_dynamic_dag(
                &soc,
                &diamond_stages(),
                &diamond_deps(),
                &cfg(),
                DynamicPolicy::BestFit,
                None,
            )
            .unwrap()
        };
        let a = run(());
        let b = run(());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.dropped, 0);
        assert_eq!(a.completed, a.submitted);
        assert_eq!(a.expect_stats().tasks, 30);
    }

    #[test]
    fn fork_shortens_a_single_task_versus_its_linearization() {
        // With one task in the system the chain must serialize all four
        // stages, while the diamond runs its two branches concurrently —
        // interference makes each branch slower than isolated, but far
        // less than 2x, so the critical path (and thus the makespan)
        // strictly shrinks.
        let soc = devices::pixel_7a();
        let cfg = RunConfig {
            tasks: 1,
            warmup: 0,
            noise_sigma: 0.0,
            ..RunConfig::default()
        };
        let chain: Vec<(usize, usize)> = vec![(0, 1), (1, 2), (2, 3)];
        let lin = simulate_dynamic_dag(
            &soc,
            &diamond_stages(),
            &chain,
            &cfg,
            DynamicPolicy::BestFit,
            None,
        )
        .unwrap();
        let dag = simulate_dynamic_dag(
            &soc,
            &diamond_stages(),
            &diamond_deps(),
            &cfg,
            DynamicPolicy::BestFit,
            None,
        )
        .unwrap();
        let (lin_mk, dag_mk) = (
            lin.expect_stats().makespan.as_f64(),
            dag.expect_stats().makespan.as_f64(),
        );
        assert!(
            dag_mk < lin_mk,
            "diamond {dag_mk} must beat its linearization {lin_mk}"
        );
    }

    #[test]
    fn stage_error_kills_the_whole_task_with_conservation() {
        let soc = devices::pixel_7a();
        let spec = FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 0,
                task: 6,
                stage: 2, // one branch of the fork
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_dynamic_dag(
            &soc,
            &diamond_stages(),
            &diamond_deps(),
            &cfg(),
            DynamicPolicy::Fifo,
            Some(&spec),
        )
        .unwrap();
        assert_eq!(r.dropped, 1, "exactly the faulted task dies");
        assert_eq!(r.completed + r.dropped, r.submitted);
        assert!(r.faults_fired >= 1);
    }
}
