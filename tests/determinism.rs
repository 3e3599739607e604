//! Determinism guarantees of the parallel evaluation engine.
//!
//! Two invariants gate every performance shortcut this engine takes:
//!
//! 1. **Parallel ≡ serial.** When the simulator backend fans autotuning,
//!    baseline, and profiling measurements out over worker threads, the
//!    resulting `Deployment` must be *bit-for-bit* identical to the one the
//!    forced-serial path produces — same per-run seeds (decorrelated by
//!    run index, not by thread), results merged in input order.
//! 2. **Cached ≡ uncached.** The DES service-time memo stores the
//!    *noiseless* base latency per (chunk, stage, busy-set) key and applies
//!    per-event noise after lookup, so enabling it must not change a single
//!    bit of any report, across every device model and application, in
//!    the static and the dynamic scheduler.
//!
//! Both are checked through `Debug` formatting, which covers every field
//! (including telemetry and utilization vectors) and exposes the full f64
//! bit pattern up to the shortest round-trippable decimal.

use bettertogether::core::{BetterTogether, SimBackend};
use bettertogether::kernels::apps;
use bettertogether::kernels::AppModel;
use bettertogether::pipeline::simulate_schedule;
use bettertogether::soc::des_dynamic::{simulate_dynamic, DynamicPolicy};
use bettertogether::soc::{devices, RunConfig, SocSpec};

fn three_apps() -> Vec<(&'static str, AppModel)> {
    vec![
        (
            "octree",
            apps::octree_app(apps::OctreeConfig::default()).model(),
        ),
        (
            "alexnet_sparse",
            apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
        ),
        (
            "alexnet_dense",
            apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
        ),
    ]
}

fn four_devices() -> Vec<(&'static str, SocSpec)> {
    vec![
        ("pixel_7a", devices::pixel_7a()),
        ("oneplus_11", devices::oneplus_11()),
        ("jetson_orin_nano", devices::jetson_orin_nano()),
        ("jetson_orin_nano_lp", devices::jetson_orin_nano_lp()),
    ]
}

#[test]
fn parallel_deployment_is_bit_identical_to_serial() {
    // Permission alone does not fan out: the default 35-task runs stay on
    // the calling thread, 3 000-task runs spread. Check both sides.
    let long = RunConfig {
        tasks: 3000,
        ..RunConfig::default()
    };
    for run in [RunConfig::default(), long] {
        for (dev_name, soc) in four_devices() {
            for (app_name, app) in three_apps() {
                let deploy = |parallel: bool| {
                    let backend = SimBackend::new(soc.clone(), app.clone())
                        .with_run(run.clone())
                        .with_parallel(parallel);
                    BetterTogether::with_backend(backend).run().expect("runs")
                };
                assert_eq!(
                    format!("{:?}", deploy(true)),
                    format!("{:?}", deploy(false)),
                    "{dev_name} × {app_name} × {} tasks: parallel deployment diverged from serial",
                    run.tasks
                );
            }
        }
    }
}

#[test]
fn service_cache_is_bit_identical_to_uncached_everywhere() {
    for (dev_name, soc) in four_devices() {
        for (app_name, app) in three_apps() {
            // Take the framework's own top candidate so the schedule
            // exercises real multi-chunk interference on this device.
            let plan = BetterTogether::with_backend(SimBackend::new(soc.clone(), app.clone()))
                .plan()
                .expect("plan");
            let schedule = &plan.candidates[0].schedule;
            for seed in [0u64, 7, 23] {
                let cached = RunConfig {
                    seed,
                    service_cache: true,
                    ..RunConfig::default()
                };
                let uncached = RunConfig {
                    service_cache: false,
                    ..cached.clone()
                };
                let with_cache =
                    simulate_schedule(&soc, &app, schedule, &cached, None).expect("cached run");
                let without_cache =
                    simulate_schedule(&soc, &app, schedule, &uncached, None).expect("uncached run");
                assert_eq!(
                    format!("{with_cache:?}"),
                    format!("{without_cache:?}"),
                    "{dev_name} × {app_name} (seed {seed}): cache changed the simulation"
                );
                // The dynamic scheduler prices through the same memo.
                for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
                    let run = |cfg: &RunConfig| {
                        simulate_dynamic(&soc, &app.works(), cfg, policy, None).expect("dynamic")
                    };
                    assert_eq!(
                        format!("{:?}", run(&cached)),
                        format!("{:?}", run(&uncached)),
                        "{dev_name} × {app_name} (seed {seed}, {policy:?}): cache changed \
                         the dynamic simulation"
                    );
                }
            }
        }
    }
}
