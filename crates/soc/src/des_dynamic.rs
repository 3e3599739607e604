//! Dynamic (StarPU-style) scheduling in the simulator — the comparison
//! point of the paper's Related Work (§6): a greedy runtime that assigns
//! each ready (task, stage) to an idle PU at dispatch time instead of
//! fixing a static stage → PU map.
//!
//! Two honest costs distinguish it from BT-Implementer's static chunks:
//! every stage pays the PU's completion-synchronization cost (the runtime
//! must observe completion before making the next decision), and placement
//! uses at best *isolated* latency estimates — it cannot anticipate the
//! interference its own concurrent placements create.
//!
//! Like [`crate::des::simulate`], one engine serves both fault-free and
//! faulted runs via an `Option<&FaultSpec>` mode parameter. The dynamic
//! runtime has no chunk identity, so stragglers match on `task` alone and
//! stage faults on `(task, stage)` (the `*_any_chunk` lookups of
//! [`FaultSpec`]). Where the static pipeline drains and degrades on PU
//! loss, the dynamic scheduler *routes around* it: lost PUs leave the idle
//! set, in-flight work on them dies at the loss instant, and only work
//! that no surviving PU can serve is dropped.

use std::collections::VecDeque;

use crate::cost;
use crate::des::{finish_run, pool_size, total_tasks, Dag, EventSlots, InFlight};
use crate::fault::{FaultSpec, StageFaultKind};
use crate::run::{RunConfig, RunReport};
use crate::{ActiveKernel, NoiseModel, PuClass, PuSpec, SocError, SocSpec, WorkProfile};

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
/// Returns [`SocError::EmptySimulation`] for empty inputs and
/// [`SocError::EmptyDevice`] when the device has no schedulable PU.
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
/// but their results are discarded).
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] for empty inputs,
/// [`SocError::BadDag`] for out-of-range or self-loop edges and for cyclic
/// dependencies, and [`SocError::EmptyDevice`] when the device has no
/// schedulable PU.
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
    let n = stages.len();
    let dag = Dag::build(n, deps, "stage")?;
    let pus: Vec<PuClass> = soc.schedulable_classes();
    if pus.is_empty() {
        return Err(SocError::EmptyDevice);
    }
    let total = total_tasks(cfg);
    let in_flight_cap = pool_size(cfg, pus.len());
    let mut noise = NoiseModel::new(cfg.noise_sigma, cfg.seed);

    let sources: Vec<usize> = (0..n).filter(|&s| dag.preds(s).is_empty()).collect();
    // Stragglers are a per-task phenomenon; charge the factor on every
    // stage but count the fault once, at the task's first source stage.
    let straggle_stage = sources[0];

    // (task, stage) entries ready to dispatch, kept sorted: admissions
    // append increasing task numbers and unblocked stages insert at their
    // lexicographic slot, so FIFO dispatch stays deterministic.
    let mut ready: VecDeque<(usize, usize)> = VecDeque::new();
    let mut running: Vec<Option<InFlight>> = vec![None; pus.len()];
    // The PU's in-flight stage dies at its (loss-clamped) completion.
    let mut doomed = vec![false; pus.len()];
    let mut busy_since = vec![0.0f64; pus.len()];
    // (start, end) busy intervals per PU, clipped to the measurement
    // window once it is known.
    let mut busy_spans: Vec<Vec<(f64, f64)>> = vec![Vec::new(); pus.len()];
    let mut entry_time = vec![0.0f64; total];
    // `(task, entry, exit)`; sorted by task before windowing, because the
    // dynamic runtime can complete tasks out of sequence order while the
    // steady-state convention (shared with `des::simulate`) anchors on
    // task-order departures.
    let mut completions: Vec<(usize, f64, f64)> = Vec::with_capacity(total);
    // Per-task bookkeeping: outstanding predecessors per stage (row
    // `task * n`), stages left until the task is done, and a tombstone
    // for killed tasks.
    let pred_count: Vec<usize> = (0..n).map(|s| dag.preds(s).len()).collect();
    let mut waiting = pred_count.repeat(total);
    let mut remaining = vec![n; total];
    let mut dead = vec![false; total];
    let mut admitted = 0usize;
    let mut completed = 0usize;
    let mut dropped = 0usize;
    let mut faults_fired = 0u32;
    let mut in_flight = 0usize;
    let mut events = EventSlots::new(pus.len());
    let mut now = 0.0f64;

    // Hoisted per-dispatch state: PU specs resolved once, the placement
    // heuristic's isolated estimates and the advertised bandwidth demands
    // precomputed as (stage × PU) tables (both are busy-set independent),
    // and one reusable co-runner scratch buffer.
    let pu_specs: Vec<&PuSpec> = pus
        .iter()
        .map(|&c| soc.pu(c).expect("schedulable class present"))
        .collect();
    // Loss instant per PU; `INFINITY` when it is never lost.
    let loss: Vec<f64> = pus
        .iter()
        .map(|&c| faults.and_then(|f| f.loss_at(c)).unwrap_or(f64::INFINITY))
        .collect();
    let isolated: Vec<Vec<f64>> = stages
        .iter()
        .map(|w| {
            pu_specs
                .iter()
                .map(|pu| cost::latency_under(w, pu, soc, &[]).as_f64())
                .collect()
        })
        .collect();
    let demands: Vec<Vec<f64>> = stages
        .iter()
        .map(|w| pu_specs.iter().map(|pu| cost::bw_demand(w, pu)).collect())
        .collect();
    let mut co: Vec<ActiveKernel> = Vec::with_capacity(pus.len());

    loop {
        // Admit new tasks while the window allows.
        while admitted < total && in_flight < in_flight_cap {
            entry_time[admitted] = now;
            ready.extend(sources.iter().map(|&s| (admitted, s)));
            admitted += 1;
            in_flight += 1;
        }

        // Dispatch ready stages onto idle PUs.
        while let Some(&(task, stage)) = ready.front() {
            if dead[task] {
                // A sibling stage already killed this task.
                ready.pop_front();
                continue;
            }
            // Kernel errors kill the stage before it runs anywhere.
            if faults.is_some_and(|f| {
                matches!(
                    f.stage_fault_any_chunk(task, stage),
                    Some(StageFaultKind::Error)
                )
            }) {
                ready.pop_front();
                faults_fired += 1;
                dropped += 1;
                in_flight -= 1;
                dead[task] = true;
                continue;
            }
            // Lost PUs leave the idle set: the scheduler routes around them.
            let mut idle = (0..pus.len()).filter(|&i| running[i].is_none() && now < loss[i]);
            let pu_idx = match policy {
                DynamicPolicy::Fifo => idle.next(),
                DynamicPolicy::BestFit => {
                    idle.min_by(|&a, &b| isolated[stage][a].total_cmp(&isolated[stage][b]))
                }
            };
            let Some(pu_idx) = pu_idx else {
                break;
            };
            ready.pop_front();
            let pu = pu_specs[pu_idx];
            co.clear();
            co.extend(
                running
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.map(|r| ActiveKernel::new(pus[i], r.demand))),
            );
            // Dynamic runtimes synchronize after every stage.
            let base = cost::latency_under(&stages[stage], pu, soc, &co).as_f64() * noise.factor()
                + pu.sync_overhead_us();
            let mut dt = base;
            if let Some(spec) = faults {
                let straggle = spec.straggler_factor_any_chunk(task);
                if stage == straggle_stage && straggle != 1.0 {
                    faults_fired += 1;
                }
                dt = base * spec.slowdown_factor(pus[pu_idx], now) * straggle;
                if let Some(StageFaultKind::Timeout { extra_us }) =
                    spec.stage_fault_any_chunk(task, stage)
                {
                    dt += extra_us;
                    faults_fired += 1;
                }
            }
            let mut end = now + dt;
            if end > loss[pu_idx] {
                // The PU dies mid-service; the stage ends there, doomed.
                end = loss[pu_idx];
                doomed[pu_idx] = true;
            }
            running[pu_idx] = Some(InFlight {
                task,
                stage,
                demand: demands[stage][pu_idx],
            });
            busy_since[pu_idx] = now;
            events.push(pu_idx, end);
        }

        if completed + dropped >= total {
            break;
        }
        let Some((time, pu_idx)) = events.pop() else {
            // Nothing is running and nothing could be placed: every
            // surviving placement target is gone (unreachable without
            // faults). Every admitted task that is neither finished nor
            // already tombstoned strands, along with everything not yet
            // admitted.
            let stranded = (0..admitted)
                .filter(|&t| !dead[t] && remaining[t] > 0)
                .count()
                + (total - admitted);
            debug_assert!(faults.is_some() || stranded == 0, "clean run stranded work");
            dropped += stranded;
            faults_fired += stranded as u32;
            break;
        };
        now = time;
        let fin = running[pu_idx].take().expect("completion implies running");
        busy_spans[pu_idx].push((busy_since[pu_idx], now));
        if std::mem::take(&mut doomed[pu_idx]) {
            // Died with the PU at its loss instant.
            faults_fired += 1;
            if !std::mem::replace(&mut dead[fin.task], true) {
                dropped += 1;
                in_flight -= 1;
            }
        } else if !dead[fin.task] {
            remaining[fin.task] -= 1;
            for &succ in dag.succs(fin.stage) {
                let left = &mut waiting[fin.task * n + succ];
                *left -= 1;
                if *left == 0 {
                    let pos = ready
                        .iter()
                        .position(|&e| e > (fin.task, succ))
                        .unwrap_or(ready.len());
                    ready.insert(pos, (fin.task, succ));
                }
            }
            if remaining[fin.task] == 0 {
                completions.push((fin.task, entry_time[fin.task], now));
                completed += 1;
                in_flight -= 1;
            }
        }
        // Completions of stages belonging to a tombstoned task are
        // discarded: the busy span is real, the result is not.
    }

    debug_assert_eq!(completed + dropped, total);
    completions.sort_unstable_by_key(|&(task, _, _)| task);
    let ordered: Vec<(f64, f64)> = completions.iter().map(|&(_, e, x)| (e, x)).collect();
    let spans: Vec<&[(f64, f64)]> = busy_spans.iter().map(|s| s.as_slice()).collect();
    // Same departure-to-departure steady-state convention as the static
    // simulator and the host executor; the dynamic scheduler collects no
    // timeline or telemetry.
    Ok(finish_run(
        cfg,
        [total, completed, dropped],
        faults_fired,
        &ordered,
        &spans,
        Vec::new(),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use crate::run::RunStats;

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
