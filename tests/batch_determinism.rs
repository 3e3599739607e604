//! Lane derivation: report `i` of a `simulate_schedule_batch` call must be
//! bit-identical to `simulate_schedule` run with lane `i`'s seed and fault
//! plan — across the full paper device × app grid, clean and faulted lanes
//! mixed, service cache on and off.
//!
//! "Bit-identical" is checked through `Debug`-representation equality of
//! the whole [`bt_soc::RunReport`], the same yardstick the golden-replay
//! suite and the engine-unification tests use: one ULP of drift anywhere
//! (event ordering, summation order, noise stream position) fails.

use bt_kernels::{apps, AppModel};
use bt_pipeline::{simulate_schedule, simulate_schedule_batch, Schedule};
use bt_soc::{
    devices, DesSeedSpec, FaultSpec, RunConfig, SlowdownRamp, SocSpec, StageFault, StageFaultKind,
    Straggler,
};

/// All four paper apps (the golden suite pins three; this grid also
/// covers perception, whose stages chain-chunk like any other app's).
fn paper_apps() -> Vec<(String, AppModel)> {
    vec![
        (
            "alexnet_dense".into(),
            apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
        ),
        (
            "alexnet_sparse".into(),
            apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
        ),
        (
            "octree".into(),
            apps::octree_app(apps::OctreeConfig::default()).model(),
        ),
        (
            "perception".into(),
            apps::perception_app(apps::PerceptionConfig::default()).model(),
        ),
    ]
}

/// Deterministic contiguous schedule over the device's schedulable
/// classes — the golden suite's stable shape, restated here.
fn grid_schedule(soc: &SocSpec, stages: usize) -> Schedule {
    let classes = soc.schedulable_classes();
    let k = classes.len().min(stages);
    let (base, extra) = (stages / k, stages % k);
    let assignment = classes
        .into_iter()
        .take(k)
        .enumerate()
        .flat_map(|(i, class)| std::iter::repeat_n(class, base + usize::from(i < extra)))
        .collect();
    Schedule::new(assignment).expect("contiguous grid schedule")
}

/// A fault cocktail touching every family except PU loss, targeting the
/// device's first schedulable class.
fn grid_faults(soc: &SocSpec) -> FaultSpec {
    let class = soc.schedulable_classes()[0];
    FaultSpec {
        slowdowns: vec![SlowdownRamp {
            class,
            start_us: 150.0,
            ramp_us: 300.0,
            factor: 1.4,
        }],
        stragglers: vec![Straggler {
            chunk: 0,
            task: 5,
            factor: 2.5,
        }],
        stage_faults: vec![
            StageFault {
                chunk: 0,
                task: 9,
                stage: 0,
                kind: StageFaultKind::Timeout { extra_us: 40.0 },
            },
            StageFault {
                chunk: 0,
                task: 13,
                stage: 0,
                kind: StageFaultKind::Error,
            },
        ],
        losses: vec![],
    }
}

fn grid_config() -> RunConfig {
    RunConfig {
        tasks: 20,
        warmup: 4,
        seed: 7,
        ..RunConfig::default()
    }
}

/// Reference for one lane: the `simulate_schedule_batch` contract says
/// this is exactly what the lane must reproduce.
fn scalar_lane(
    soc: &SocSpec,
    app: &AppModel,
    schedule: &Schedule,
    cfg: &RunConfig,
    lane: &DesSeedSpec,
) -> bt_soc::RunReport {
    let cfg = RunConfig {
        seed: lane.seed,
        ..cfg.clone()
    };
    simulate_schedule(soc, app, schedule, &cfg, lane.faults.as_ref()).expect("scalar reference run")
}

#[test]
fn batch_lanes_match_scalar_across_device_app_grid() {
    for service_cache in [true, false] {
        let cfg = RunConfig {
            service_cache,
            ..grid_config()
        };
        for soc in devices::all() {
            for (name, app) in paper_apps() {
                let schedule = grid_schedule(&soc, app.stage_count());
                let lanes = vec![
                    DesSeedSpec::new(1),
                    DesSeedSpec::with_faults(2, grid_faults(&soc)),
                    DesSeedSpec::new(1), // duplicate of lane 0: must repeat it
                    DesSeedSpec::with_faults(1, grid_faults(&soc)),
                ];
                let batch = simulate_schedule_batch(&soc, &app, &schedule, &cfg, &lanes)
                    .expect("batch run");
                assert_eq!(batch.len(), lanes.len());
                for (i, (lane, got)) in lanes.iter().zip(&batch).enumerate() {
                    let want = scalar_lane(&soc, &app, &schedule, &cfg, lane);
                    assert_eq!(
                        format!("{want:?}"),
                        format!("{got:?}"),
                        "{}/{name} lane {i} diverged from the scalar run",
                        soc.name()
                    );
                }
                assert_eq!(
                    format!("{:?}", batch[0]),
                    format!("{:?}", batch[2]),
                    "{}/{name}: identical lanes must be bit-identical",
                    soc.name()
                );
            }
        }
    }
}
