//! Property tests of the discrete-event pipeline simulator: conservation,
//! determinism, and queueing-theoretic bounds over randomized schedules.

use bt_soc::des::ChunkSpec;
use bt_soc::{
    cost, devices, simulate_dag, simulate_multi, DagPipelineSpec, FaultSpec, InterferenceModel,
    PuClass, PuLoss, PuSpec, RunConfig, RunStats, SlowdownRamp, SocBuilder, SocSpec, StageFault,
    StageFaultKind, Straggler, TenantSpec, WorkProfile,
};
use proptest::prelude::*;

/// A device with no interference at all, so queueing bounds are exact.
fn clean_soc() -> bt_soc::SocSpec {
    SocBuilder::new("clean")
        .pu(PuSpec::new(PuClass::BigCpu, "big", 4, 2.0))
        .pu(PuSpec::new(PuClass::MediumCpu, "med", 4, 1.5))
        .pu(PuSpec::new(PuClass::Gpu, "gpu", 8, 1.0))
        .dram_bw_gbs(1e9) // effectively unlimited
        .interference(InterferenceModel::none())
        .build()
        .expect("valid device")
}

fn chunk_strategy() -> impl Strategy<Value = Vec<ChunkSpec>> {
    let classes = [PuClass::BigCpu, PuClass::MediumCpu, PuClass::Gpu];
    proptest::collection::vec(
        (0usize..3, proptest::collection::vec(1.0e5f64..5.0e7, 1..4)),
        1..=3,
    )
    .prop_map(move |raw| {
        // Distinct classes per chunk (use index order).
        raw.into_iter()
            .enumerate()
            .map(|(i, (_, flops))| {
                ChunkSpec::new(
                    classes[i],
                    flops
                        .into_iter()
                        .map(|f| WorkProfile::new(f, f / 4.0))
                        .collect(),
                )
            })
            .collect()
    })
}

fn noiseless(tasks: u32) -> RunConfig {
    RunConfig {
        tasks,
        warmup: 3,
        noise_sigma: 0.0,
        ..RunConfig::default()
    }
}

/// Clean-run stats; fault-free runs always complete everything.
fn stats(soc: &SocSpec, chunks: &[ChunkSpec], cfg: &RunConfig) -> RunStats {
    let chain = DagPipelineSpec::chain(chunks.to_vec());
    let report = simulate_dag(soc, &chain, cfg, None).expect("simulates");
    assert_eq!(report.completed, report.submitted, "clean run conserves");
    report.expect_stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn deterministic_and_positive(chunks in chunk_strategy()) {
        let soc = clean_soc();
        let a = stats(&soc, &chunks, &noiseless(20));
        let b = stats(&soc, &chunks, &noiseless(20));
        prop_assert_eq!(a.makespan.as_f64(), b.makespan.as_f64());
        prop_assert!(a.time_per_task.as_f64() > 0.0);
        prop_assert!(a.mean_task_latency.as_f64() > 0.0);
        prop_assert_eq!(a.chunk_utilization.len(), chunks.len());
    }

    #[test]
    fn bottleneck_lower_bound_holds(chunks in chunk_strategy()) {
        // Without interference, steady-state time-per-task can't beat the
        // slowest chunk's isolated service time.
        let soc = clean_soc();
        let report = stats(&soc, &chunks, &noiseless(40));
        let bottleneck: f64 = chunks
            .iter()
            .map(|c| {
                let pu = soc.pu(c.pu).expect("present");
                c.stages
                    .iter()
                    .map(|w| cost::latency(w, pu, &soc, &cost::LoadContext::isolated()).as_f64())
                    .sum::<f64>()
                    + pu.sync_overhead_us()
            })
            .fold(0.0, f64::max);
        prop_assert!(
            report.time_per_task.as_f64() >= bottleneck * 0.99,
            "{} < bottleneck {}",
            report.time_per_task.as_f64(),
            bottleneck
        );
        // And with ample buffering it approaches it (within 30%).
        prop_assert!(
            report.time_per_task.as_f64() <= bottleneck * 1.3 + 1.0,
            "{} >> bottleneck {}",
            report.time_per_task.as_f64(),
            bottleneck
        );
    }

    #[test]
    fn residence_time_at_least_service_sum(chunks in chunk_strategy()) {
        // A task's mean residence time is at least the sum of all its
        // isolated service times (queueing only adds).
        let soc = clean_soc();
        let report = stats(&soc, &chunks, &noiseless(20));
        let service_sum: f64 = chunks
            .iter()
            .map(|c| {
                let pu = soc.pu(c.pu).expect("present");
                c.stages
                    .iter()
                    .map(|w| cost::latency(w, pu, &soc, &cost::LoadContext::isolated()).as_f64())
                    .sum::<f64>()
            })
            .sum();
        prop_assert!(report.mean_task_latency.as_f64() >= service_sum * 0.99);
    }

    #[test]
    fn more_buffers_never_hurt_much(chunks in chunk_strategy()) {
        let soc = clean_soc();
        let shallow = stats(
            &soc,
            &chunks,
            &RunConfig { buffers: 1, ..noiseless(30) },
        );
        let deep = stats(
            &soc,
            &chunks,
            &RunConfig { buffers: 8, ..noiseless(30) },
        );
        prop_assert!(
            deep.time_per_task.as_f64() <= shallow.time_per_task.as_f64() * 1.01,
            "deep {} vs shallow {}",
            deep.time_per_task.as_f64(),
            shallow.time_per_task.as_f64()
        );
    }

    #[test]
    fn utilization_bounded_and_bottleneck_is_argmax(chunks in chunk_strategy()) {
        let soc = clean_soc();
        let report = stats(&soc, &chunks, &noiseless(30));
        for &u in &report.chunk_utilization {
            prop_assert!((0.0..=1.02).contains(&u), "utilization {u}");
        }
        let max = report
            .chunk_utilization
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        prop_assert!(
            (report.chunk_utilization[report.bottleneck_chunk] - max).abs() < 1e-9
        );
    }
}

#[test]
fn real_devices_simulate_every_class_combination() {
    // Smoke over every device: a two-chunk schedule on each pair of
    // present classes.
    let work = WorkProfile::new(1e7, 2e6);
    for soc in devices::all() {
        let classes = soc.classes();
        for &a in &classes {
            for &b in &classes {
                if a == b {
                    continue;
                }
                let chunks = [
                    ChunkSpec::new(a, vec![work.clone()]),
                    ChunkSpec::new(b, vec![work.clone()]),
                ];
                let r = stats(&soc, &chunks, &noiseless(10));
                assert!(r.time_per_task.as_f64() > 0.0, "{} {a}/{b}", soc.name());
            }
        }
    }
}

/// A fork/join pipeline prices the same whether it enters as a
/// [`DagPipelineSpec`] or as the only tenant of a co-run: same stats to
/// the bit, same counters, same timeline — clean and under every fault
/// family (the branch error and the branch-class loss both tombstone
/// through the join).
#[test]
fn single_dag_tenant_is_bit_identical_to_simulate_dag() {
    let soc = devices::pixel_7a();
    let stage = |flops: f64| WorkProfile::new(flops, flops / 4.0);
    // Diamond: 0 → {1, 2} → 3, two stages on the first branch.
    let chunks = vec![
        ChunkSpec::new(PuClass::BigCpu, vec![stage(5e6)]),
        ChunkSpec::new(PuClass::MediumCpu, vec![stage(6e6), stage(3e6)]),
        ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ChunkSpec::new(PuClass::LittleCpu, vec![stage(4e6)]),
    ];
    let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
    let spec = DagPipelineSpec::new(chunks.clone(), edges.clone());
    let straggle_and_stall = FaultSpec {
        stragglers: vec![Straggler {
            chunk: 2,
            task: 7,
            factor: 6.0,
        }],
        stage_faults: vec![StageFault {
            chunk: 3,
            task: 15,
            stage: 0,
            kind: StageFaultKind::Timeout { extra_us: 400.0 },
        }],
        ..FaultSpec::default()
    };
    let error = |chunk: usize, task: usize, stage: usize| StageFault {
        chunk,
        task,
        stage,
        kind: StageFaultKind::Error,
    };
    // Errors on both branches, one of them mid-chunk.
    let mut light = straggle_and_stall.clone();
    light
        .stage_faults
        .extend([error(1, 12, 1), error(2, 20, 0)]);
    // A throttled source plus the loss of a branch class; each task dies
    // at most once (an early branch error, then everything at the lost
    // branch).
    let heavy = |loss_at_us: f64| {
        let mut spec = straggle_and_stall.clone();
        spec.stage_faults.push(error(2, 3, 0));
        spec.slowdowns.push(SlowdownRamp {
            class: PuClass::BigCpu,
            start_us: 300.0,
            ramp_us: 900.0,
            factor: 2.0,
        });
        spec.losses.push(PuLoss {
            class: PuClass::Gpu,
            at_us: loss_at_us,
        });
        spec
    };
    for seed in [1, 42, 77] {
        let cfg = RunConfig {
            tasks: 30,
            warmup: 5,
            seed,
            noise_sigma: 0.04,
            record_timeline: true,
            ..RunConfig::default()
        };
        let clean = simulate_dag(&soc, &spec, &cfg, None).expect("clean dag");
        let mid = 0.5 * clean.expect_stats().makespan.as_f64();
        for faults in [
            None,
            Some(light.clone()),
            Some(heavy(mid)),
            Some(heavy(0.0)),
        ] {
            let dag = simulate_dag(&soc, &spec, &cfg, faults.as_ref()).expect("dag run");
            let tenant =
                TenantSpec::new("solo", chunks.clone(), cfg.clone()).with_edges(edges.clone());
            let multi = simulate_multi(&soc, &[tenant], faults.as_ref()).expect("multi run");
            let m = &multi.tenants[0];
            assert_eq!(
                (m.submitted, m.completed, m.dropped, m.faults_fired),
                (dag.submitted, dag.completed, dag.dropped, dag.faults_fired),
                "seed {seed}, faults {faults:?}"
            );
            assert_eq!(format!("{:?}", m.stats), format!("{:?}", dag.stats));
            assert_eq!(m.timeline, dag.timeline);
        }
    }
}
