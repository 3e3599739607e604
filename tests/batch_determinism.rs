//! Lane derivation: report `i` of a `simulate_batch` call must be
//! bit-identical to `simulate` run with lane `i`'s seed and fault plan —
//! across the full paper device × app grid, clean and faulted lanes mixed,
//! service cache on and off.
//!
//! "Bit-identical" is checked through `Debug`-representation equality of
//! the whole [`bt_soc::RunReport`], the same yardstick the golden-replay
//! suite and the engine-unification tests use: one ULP of drift anywhere
//! (event ordering, summation order, noise stream position) fails.

use bt_kernels::apps;
use bt_soc::des::{simulate, ChunkSpec};
use bt_soc::{
    devices, simulate_batch, DesSeedSpec, FaultSpec, RunConfig, SlowdownRamp, SocSpec, StageFault,
    StageFaultKind, Straggler, WorkProfile,
};

/// All four paper apps (the golden suite pins three; this grid also
/// covers perception, whose stage works chain-chunk like any other app).
fn paper_apps() -> Vec<(String, Vec<WorkProfile>)> {
    vec![
        (
            "alexnet_dense".into(),
            apps::alexnet_dense_app(apps::AlexNetConfig::default())
                .model()
                .works(),
        ),
        (
            "alexnet_sparse".into(),
            apps::alexnet_sparse_app(apps::AlexNetConfig::default())
                .model()
                .works(),
        ),
        (
            "octree".into(),
            apps::octree_app(apps::OctreeConfig::default())
                .model()
                .works(),
        ),
        (
            "perception".into(),
            apps::perception_app(apps::PerceptionConfig::default())
                .model()
                .works(),
        ),
    ]
}

/// Deterministic contiguous chunking over the device's schedulable
/// classes — the golden suite's stable shape, restated here.
fn grid_chunks(soc: &SocSpec, works: &[WorkProfile]) -> Vec<ChunkSpec> {
    let classes = soc.schedulable_classes();
    let k = classes.len().min(works.len());
    let base = works.len() / k;
    let extra = works.len() % k;
    let mut chunks = Vec::with_capacity(k);
    let mut next = 0usize;
    for (i, class) in classes.into_iter().take(k).enumerate() {
        let len = base + usize::from(i < extra);
        chunks.push(ChunkSpec::new(class, works[next..next + len].to_vec()));
        next += len;
    }
    chunks
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

/// Reference for one lane: the `simulate_batch` contract says this is
/// exactly what the lane must reproduce.
fn scalar_lane(
    soc: &SocSpec,
    chunks: &[ChunkSpec],
    cfg: &RunConfig,
    lane: &DesSeedSpec,
) -> bt_soc::RunReport {
    let cfg = RunConfig {
        seed: lane.seed,
        ..cfg.clone()
    };
    simulate(soc, chunks, &cfg, lane.faults.as_ref()).expect("scalar reference run")
}

#[test]
fn batch_lanes_match_scalar_across_device_app_grid() {
    for service_cache in [true, false] {
        let cfg = RunConfig {
            service_cache,
            ..grid_config()
        };
        for soc in devices::all() {
            for (app, works) in paper_apps() {
                let chunks = grid_chunks(&soc, &works);
                let lanes = vec![
                    DesSeedSpec::new(1),
                    DesSeedSpec::with_faults(2, grid_faults(&soc)),
                    DesSeedSpec::new(1), // duplicate of lane 0: must repeat it
                    DesSeedSpec::with_faults(1, grid_faults(&soc)),
                ];
                let batch = simulate_batch(&soc, &chunks, &cfg, &lanes).expect("batch run");
                assert_eq!(batch.len(), lanes.len());
                for (i, (lane, got)) in lanes.iter().zip(&batch).enumerate() {
                    let want = scalar_lane(&soc, &chunks, &cfg, lane);
                    assert_eq!(
                        format!("{want:?}"),
                        format!("{got:?}"),
                        "{}/{app} lane {i} diverged from scalar engine",
                        soc.name()
                    );
                }
                assert_eq!(
                    format!("{:?}", batch[0]),
                    format!("{:?}", batch[2]),
                    "{}/{app}: identical lanes must be bit-identical",
                    soc.name()
                );
            }
        }
    }
}
