//! Cross-crate consistency between the performance model's layers: the
//! profiler's tables, the optimizer's predictions, and the discrete-event
//! simulator's measurements must fit together the way the paper's results
//! depend on.

use bettertogether::core::metrics::pearson;
use bettertogether::core::{optimize, predict, OptimizerConfig};
use bettertogether::kernels::apps;
use bettertogether::pipeline::{simulate_baseline, simulate_schedule, DagSchedule, Schedule};
use bettertogether::profiler::{profile, ProfileMode, ProfilerConfig};
use bettertogether::soc::{devices, PuClass, RunConfig};

fn noiseless_profiler() -> ProfilerConfig {
    ProfilerConfig {
        noise_sigma: 0.0,
        ..ProfilerConfig::default()
    }
}

fn noiseless_des() -> RunConfig {
    RunConfig {
        noise_sigma: 0.0,
        ..RunConfig::default()
    }
}

#[test]
fn homogeneous_prediction_matches_isolated_baseline_modulo_sync() {
    // For a single-chunk schedule the DES reduces to the serial sum of
    // isolated stage latencies plus one sync; the prediction from the
    // isolated table is exactly that sum (tables exclude sync).
    let soc = devices::jetson_orin_nano();
    let app = apps::octree_app(apps::OctreeConfig::default()).model();
    let table = profile(&soc, &app, ProfileMode::Isolated, &noiseless_profiler());
    let schedule = Schedule::homogeneous(7, PuClass::BigCpu);
    let predicted =
        predict::predict_latency(&table, &DagSchedule::from_schedule(&schedule)).expect("covered");
    let measured = simulate_schedule(&soc, &app, &schedule, &noiseless_des(), None)
        .expect("simulates")
        .expect_stats()
        .time_per_task;
    let sync = soc.pu(PuClass::BigCpu).unwrap().sync_overhead_us();
    let diff = (measured.as_f64() - predicted.as_f64() - sync).abs();
    assert!(
        diff / predicted.as_f64() < 0.02,
        "predicted {predicted}, measured {measured}, sync {sync}"
    );
}

#[test]
fn interference_aware_predictions_correlate_on_every_pair() {
    // Fig. 6a's property, asserted as a floor: r ≥ 0.6 everywhere for the
    // BT approach (the paper's minimum is 0.83).
    let workloads = [
        apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
        apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
        apps::octree_app(apps::OctreeConfig::default()).model(),
    ];
    for soc in devices::all() {
        for app in &workloads {
            let table = profile(
                &soc,
                app,
                ProfileMode::InterferenceHeavy,
                &ProfilerConfig::default(),
            );
            let cands = optimize(&soc, &table, &OptimizerConfig::default()).expect("candidates");
            if cands.len() < 3 {
                continue;
            }
            let predicted: Vec<f64> = cands.iter().map(|c| c.predicted.as_f64()).collect();
            let measured: Vec<f64> = cands
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    simulate_schedule(
                        &soc,
                        app,
                        &c.schedule,
                        &RunConfig {
                            seed: i as u64,
                            ..RunConfig::default()
                        },
                        None,
                    )
                    .expect("simulates")
                    .expect_stats()
                    .time_per_task
                    .as_f64()
                })
                .collect();
            if let Some(r) = pearson(&predicted, &measured) {
                assert!(
                    r > 0.6,
                    "{}/{}: correlation only {r:.3}",
                    soc.name(),
                    app.name
                );
            }
        }
    }
}

#[test]
fn baselines_pay_per_stage_sync() {
    // The baseline dispatch pattern must cost more than a single pipelined
    // chunk of the same stages, by roughly (stages − 1) sync overheads.
    let soc = devices::pixel_7a();
    let app = apps::alexnet_dense_app(apps::AlexNetConfig::default()).model();
    let des = noiseless_des();
    let baseline = simulate_baseline(&soc, &app, PuClass::Gpu, &des)
        .expect("simulates")
        .expect_stats()
        .time_per_task;
    let chunked = simulate_schedule(
        &soc,
        &app,
        &Schedule::homogeneous(9, PuClass::Gpu),
        &des,
        None,
    )
    .expect("simulates")
    .expect_stats()
    .time_per_task;
    let sync = soc.pu(PuClass::Gpu).unwrap().sync_overhead_us();
    let expect_gap = 8.0 * sync;
    let gap = baseline.as_f64() - chunked.as_f64();
    assert!(
        (gap - expect_gap).abs() / expect_gap < 0.1,
        "gap {gap} vs expected {expect_gap}"
    );
}

#[test]
fn balanced_schedules_predict_better_than_unbalanced() {
    // The rationale for the utilization filter (§3.3): schedules whose
    // chunks are balanced run under conditions matching interference-heavy
    // profiling, so their predictions are tighter.
    let soc = devices::pixel_7a();
    let app = apps::octree_app(apps::OctreeConfig::default()).model();
    let table = profile(
        &soc,
        &app,
        ProfileMode::InterferenceHeavy,
        &noiseless_profiler(),
    );
    let err = |schedule: &Schedule| -> f64 {
        let p = predict::predict_latency(&table, &DagSchedule::from_schedule(schedule))
            .expect("covered")
            .as_f64();
        let m = simulate_schedule(&soc, &app, schedule, &noiseless_des(), None)
            .expect("simulates")
            .expect_stats()
            .time_per_task
            .as_f64();
        ((p - m) / m).abs()
    };
    // Balanced: the framework's own top candidate.
    let cands = optimize(&soc, &table, &OptimizerConfig::default()).expect("candidates");
    let balanced_err = err(&cands[0].schedule);
    // Unbalanced: one heavy big-CPU chunk with a trivial GPU tail.
    let unbalanced = Schedule::new(vec![
        PuClass::BigCpu,
        PuClass::BigCpu,
        PuClass::BigCpu,
        PuClass::BigCpu,
        PuClass::BigCpu,
        PuClass::BigCpu,
        PuClass::Gpu,
    ])
    .unwrap();
    let unbalanced_err = err(&unbalanced);
    assert!(
        balanced_err < unbalanced_err,
        "balanced err {balanced_err:.3} should beat unbalanced {unbalanced_err:.3}"
    );
}

#[test]
fn profiling_cost_is_minutes_scale() {
    // §3.2: collecting one table takes ≈6 minutes per device per app at 30
    // reps. Our simulated accounting should land within an order of
    // magnitude for the heaviest workload.
    let soc = devices::pixel_7a();
    let app = apps::alexnet_dense_app(apps::AlexNetConfig::default()).model();
    let cost = bettertogether::profiler::profiling_cost(
        &soc,
        &app,
        ProfileMode::InterferenceHeavy,
        &ProfilerConfig::default(),
    );
    let minutes = cost.as_secs() / 60.0;
    assert!(
        (0.1..60.0).contains(&minutes),
        "profiling cost {minutes:.2} min out of plausible range"
    );
}
