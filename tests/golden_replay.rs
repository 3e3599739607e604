//! Golden-fixture replay for the simulation engines.
//!
//! Pins the exact numeric output of the DES across all 4 paper devices ×
//! 3 paper apps in clean, faulted, dynamic, and dynamic-faulted modes.
//! The fixtures were captured from the pre-unification engines
//! (`simulate`/`simulate_faulted`/`simulate_dynamic`/`simulate_dynamic_faulted`)
//! and the unified mode-parameterized engines must reproduce them
//! bit-identically: every float is compared via its shortest-roundtrip JSON
//! encoding, so a single ULP of drift in event ordering or summation order
//! fails the suite.
//!
//! The entries after those 48 were captured from the separate fork/join
//! (`simulate_dag`), multi-tenant (`simulate_multi`) and dynamic-DAG
//! (`simulate_dynamic_dag`) engines before they were folded into the one
//! forest engine: every shape the single engine serves replays the engine
//! it replaced.
//!
//! The last 8 entries pin the dynamic scheduler routing around a lost PU
//! (the cocktails above exclude losses on dynamic runs). They were captured
//! from the separate dynamic event loop before dynamic placement became a
//! policy of the forest engine.
//!
//! Regenerate (only when an *intentional* model change lands) with:
//!
//! ```text
//! BT_GOLDEN_REGEN=1 cargo test --test golden_replay
//! ```

use bt_kernels::{apps, AppModel};
use bt_pipeline::{
    simulate_dag_schedule, simulate_schedule, simulate_schedule_batch, to_chunk_specs, DagSchedule,
    Schedule,
};
use bt_soc::des::ChunkSpec;
use bt_soc::des_dynamic::{simulate_dynamic, simulate_dynamic_dag, DynamicPolicy};
use bt_soc::{
    devices, simulate_multi, DesSeedSpec, FaultSpec, MultiRunReport, PuClass, PuLoss, RunConfig,
    RunReport, SlowdownRamp, SocSpec, StageFault, StageFaultKind, Straggler, TenantSpec,
};
use serde::{Deserialize, Serialize};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_des.json"
);

/// One pinned engine result. Every numeric field is serialized with
/// shortest-roundtrip f64 formatting, so string equality of the JSON
/// encoding is bit equality of the floats.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct GoldenCase {
    device: String,
    app: String,
    mode: String,
    submitted: u32,
    completed: u32,
    dropped: u32,
    faults_fired: u32,
    makespan_us: Option<f64>,
    mean_task_latency_us: Option<f64>,
    time_per_task_us: Option<f64>,
    throughput_hz: Option<f64>,
    chunk_utilization: Option<Vec<f64>>,
    bottleneck_chunk: Option<usize>,
    tasks: Option<u32>,
}

/// The paper's three workloads, matching `bt_bench::paper_apps()` (the root
/// crate does not depend on bt-bench, so the list is restated here).
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
    ]
}

/// Deterministic contiguous schedule: stages split as evenly as possible
/// across the device's schedulable classes, in class order. Not an optimized
/// schedule — just a stable shape that exercises every PU class.
fn golden_schedule(soc: &SocSpec, stages: usize) -> Schedule {
    let classes = soc.schedulable_classes();
    let k = classes.len().min(stages);
    let (base, extra) = (stages / k, stages % k);
    let assignment = classes
        .into_iter()
        .take(k)
        .enumerate()
        .flat_map(|(i, class)| std::iter::repeat_n(class, base + usize::from(i < extra)))
        .collect();
    Schedule::new(assignment).expect("contiguous golden schedule")
}

/// [`golden_schedule`]'s chunks, for the co-run tenants.
fn golden_chunks(soc: &SocSpec, app: &AppModel) -> Vec<ChunkSpec> {
    to_chunk_specs(app, &golden_schedule(soc, app.stage_count())).expect("golden schedule fits")
}

/// A deterministic fault cocktail exercising every fault family except PU
/// loss (loss drains the pipeline, which would leave most stats `None` and
/// pin nothing).
fn golden_faults(soc: &SocSpec) -> FaultSpec {
    let class = soc.schedulable_classes()[0];
    FaultSpec {
        slowdowns: vec![SlowdownRamp {
            class,
            start_us: 200.0,
            ramp_us: 400.0,
            factor: 1.5,
        }],
        stragglers: vec![Straggler {
            chunk: 0,
            task: 7,
            factor: 3.0,
        }],
        stage_faults: vec![
            StageFault {
                chunk: 0,
                task: 11,
                stage: 0,
                kind: StageFaultKind::Timeout { extra_us: 50.0 },
            },
            StageFault {
                chunk: 0,
                task: 17,
                stage: 0,
                kind: StageFaultKind::Error,
            },
        ],
        losses: vec![],
    }
}

fn golden_config() -> RunConfig {
    RunConfig {
        tasks: 20,
        warmup: 4,
        seed: 42,
        ..RunConfig::default()
    }
}

/// Projects a unified [`RunReport`] onto the pinned fixture shape.
fn fill(case: &mut GoldenCase, r: &RunReport) {
    case.submitted = u32::try_from(r.submitted).expect("golden runs are small");
    case.completed = u32::try_from(r.completed).expect("golden runs are small");
    case.dropped = u32::try_from(r.dropped).expect("golden runs are small");
    case.faults_fired = r.faults_fired;
    if let Some(s) = &r.stats {
        case.makespan_us = Some(s.makespan.as_f64());
        case.mean_task_latency_us = Some(s.mean_task_latency.as_f64());
        case.time_per_task_us = Some(s.time_per_task.as_f64());
        case.throughput_hz = Some(s.throughput_hz);
        case.chunk_utilization = Some(s.chunk_utilization.clone());
        case.bottleneck_chunk = Some(s.bottleneck_chunk);
        case.tasks = Some(s.tasks);
    }
}

fn blank_case(device: &str, app: &str, mode: &str) -> GoldenCase {
    GoldenCase {
        device: device.into(),
        app: app.into(),
        mode: mode.into(),
        submitted: 0,
        completed: 0,
        dropped: 0,
        faults_fired: 0,
        makespan_us: None,
        mean_task_latency_us: None,
        time_per_task_us: None,
        throughput_hz: None,
        chunk_utilization: None,
        bottleneck_chunk: None,
        tasks: None,
    }
}

/// Runs all four engine modes for every device × app and returns the cases
/// in a stable order.
fn compute_cases() -> Vec<GoldenCase> {
    let cfg = golden_config();
    let mut cases = Vec::new();
    for soc in devices::all() {
        for (app_name, app) in paper_apps() {
            let schedule = golden_schedule(&soc, app.stage_count());
            let works = app.works();
            let faults = golden_faults(&soc);

            let mut clean = blank_case(soc.name(), &app_name, "clean");
            let r = simulate_schedule(&soc, &app, &schedule, &cfg, None).expect("clean static run");
            fill(&mut clean, &r);
            cases.push(clean);

            let mut faulted = blank_case(soc.name(), &app_name, "faulted");
            let r = simulate_schedule(&soc, &app, &schedule, &cfg, Some(&faults))
                .expect("faulted static run");
            fill(&mut faulted, &r);
            cases.push(faulted);

            let mut dynamic = blank_case(soc.name(), &app_name, "dynamic");
            let r = simulate_dynamic(&soc, &works, &cfg, DynamicPolicy::Fifo, None)
                .expect("clean dynamic run");
            fill(&mut dynamic, &r);
            cases.push(dynamic);

            let mut dyn_faulted = blank_case(soc.name(), &app_name, "dynamic_faulted");
            let r = simulate_dynamic(&soc, &works, &cfg, DynamicPolicy::BestFit, Some(&faults))
                .expect("faulted dynamic run");
            fill(&mut dyn_faulted, &r);
            cases.push(dyn_faulted);
        }
    }
    cases
}

fn perception() -> AppModel {
    apps::perception_app(apps::PerceptionConfig::default()).model()
}

/// The perception fork/join app (preprocess → {detect ×2 | flow ×2} →
/// fuse → track) on as many of the device's schedulable classes as it
/// has: a diamond on four, a triangle (fork whose second branch runs into
/// the join chunk) on three, a two-chunk chain on two.
fn golden_dag_schedule(soc: &SocSpec, app: &AppModel) -> DagSchedule {
    let classes = soc.schedulable_classes();
    let class_of_group = |g: usize| classes[g.min(classes.len() - 1)];
    let assignment = [0, 1, 1, 2, 2, 3, 3].map(class_of_group).to_vec();
    DagSchedule::new(assignment, &app.task_graph()).expect("valid perception schedule")
}

/// A fault cocktail for fork/join shapes: a throttled class, a straggler
/// and a kernel error on the first branch chunk (the error tombstones
/// through the join), a timeout on the last chunk, and the last chunk's
/// class lost at `loss_at_us`.
fn golden_dag_faults(soc: &SocSpec, chunk_pus: &[PuClass], loss_at_us: f64) -> FaultSpec {
    let last = chunk_pus.len() - 1;
    FaultSpec {
        slowdowns: vec![SlowdownRamp {
            class: soc.schedulable_classes()[0],
            start_us: 200.0,
            ramp_us: 400.0,
            factor: 1.5,
        }],
        stragglers: vec![Straggler {
            chunk: 1.min(last),
            task: 7,
            factor: 3.0,
        }],
        stage_faults: vec![
            StageFault {
                chunk: last,
                task: 11,
                stage: 0,
                kind: StageFaultKind::Timeout { extra_us: 50.0 },
            },
            StageFault {
                chunk: 1.min(last),
                task: 13,
                stage: 0,
                kind: StageFaultKind::Error,
            },
        ],
        losses: vec![PuLoss {
            class: chunk_pus[last],
            at_us: loss_at_us,
        }],
    }
}

/// Three quarters of the way through the clean run's measured window:
/// late enough that the faulted run still reports stats, early enough
/// that the loss drops work.
fn late_in(clean: &RunReport) -> f64 {
    0.75 * clean.expect_stats().makespan.as_f64()
}

/// One case per tenant plus one for the co-run aggregate (app `"*"`,
/// carrying only `makespan_us` and `throughput_hz`).
fn push_multi(
    cases: &mut Vec<GoldenCase>,
    soc: &SocSpec,
    mode: &str,
    tenants: &[TenantSpec],
    multi: &MultiRunReport,
) {
    for (t, r) in tenants.iter().zip(&multi.tenants) {
        let mut case = blank_case(soc.name(), &t.name, mode);
        fill(&mut case, r);
        cases.push(case);
    }
    let mut total = blank_case(soc.name(), "*", mode);
    total.makespan_us = Some(multi.makespan_us);
    total.throughput_hz = Some(multi.throughput_hz);
    cases.push(total);
}

/// The shapes beyond the plain chain: fork/join schedules, a replica
/// group, co-running tenants (chain-only and chain + fork/join), and the
/// dynamic scheduler over a fork/join stage graph.
fn compute_shape_cases() -> Vec<GoldenCase> {
    let cfg = golden_config();
    let mut cases = Vec::new();
    let mut push = |device: &str, app: &str, mode: &str, r: &RunReport| {
        let mut case = blank_case(device, app, mode);
        fill(&mut case, r);
        cases.push(case);
    };
    let app = perception();
    let deps = app.task_graph().deps().to_vec();

    for soc in devices::all() {
        let schedule = golden_dag_schedule(&soc, &app);
        let pus: Vec<PuClass> = schedule.chunks().iter().map(|c| c.pu).collect();
        let clean = simulate_dag_schedule(&soc, &app, &schedule, &cfg, None).expect("clean dag");
        push(soc.name(), "perception", "dag_clean", &clean);
        let faults = golden_dag_faults(&soc, &pus, late_in(&clean));
        let r =
            simulate_dag_schedule(&soc, &app, &schedule, &cfg, Some(&faults)).expect("faulted dag");
        push(soc.name(), "perception", "dag_faulted", &r);

        let r = simulate_dynamic_dag(&soc, &app.works(), &deps, &cfg, DynamicPolicy::Fifo, None)
            .expect("clean dynamic dag");
        push(soc.name(), "perception", "dynamic_dag", &r);
        let r = simulate_dynamic_dag(
            &soc,
            &app.works(),
            &deps,
            &cfg,
            DynamicPolicy::BestFit,
            Some(&golden_faults(&soc)),
        )
        .expect("faulted dynamic dag");
        push(soc.name(), "perception", "dynamic_dag_faulted", &r);
    }

    // The octree's heaviest stage replicated across (Gpu, BigCpu): the
    // replicas serve alternate tasks and the downstream chunk merges them
    // back into sequence order.
    let soc = devices::pixel_7a();
    {
        use PuClass::*;
        let octree = apps::octree_app(apps::OctreeConfig::default()).model();
        let schedule = DagSchedule::replicated(
            vec![
                MediumCpu, MediumCpu, MediumCpu, Gpu, LittleCpu, LittleCpu, LittleCpu,
            ],
            &octree.task_graph(),
            3,
            (Gpu, BigCpu),
        )
        .expect("valid replicated schedule");
        let pus: Vec<PuClass> = schedule.chunks().iter().map(|c| c.pu).collect();
        let clean = simulate_dag_schedule(&soc, &octree, &schedule, &cfg, None).expect("replica");
        push(soc.name(), "octree_replicated", "dag_clean", &clean);
        let faults = golden_dag_faults(&soc, &pus, late_in(&clean));
        let r = simulate_dag_schedule(&soc, &octree, &schedule, &cfg, Some(&faults))
            .expect("faulted replica");
        push(soc.name(), "octree_replicated", "dag_faulted", &r);
    }

    // The three paper apps co-running, each on its own seed; the faulted
    // run addresses chunks of the second and third tenant by their index
    // in the flattened forest.
    let tenants: Vec<TenantSpec> = paper_apps()
        .into_iter()
        .enumerate()
        .map(|(i, (name, app))| {
            let cfg = RunConfig {
                seed: cfg.seed + i as u64,
                ..cfg.clone()
            };
            TenantSpec::new(name, golden_chunks(&soc, &app), cfg)
        })
        .collect();
    let clean = simulate_multi(&soc, &tenants, None).expect("clean co-run");
    push_multi(&mut cases, &soc, "multi_clean", &tenants, &clean);
    let second = tenants[0].chunks.len();
    let third = second + tenants[1].chunks.len();
    let faults = FaultSpec {
        slowdowns: golden_faults(&soc).slowdowns,
        stragglers: vec![Straggler {
            chunk: second,
            task: 7,
            factor: 3.0,
        }],
        stage_faults: vec![
            StageFault {
                chunk: third + 1,
                task: 11,
                stage: 0,
                kind: StageFaultKind::Timeout { extra_us: 50.0 },
            },
            StageFault {
                chunk: second + 1,
                task: 17,
                stage: 0,
                kind: StageFaultKind::Error,
            },
            StageFault {
                chunk: 0,
                task: 9,
                stage: 1,
                kind: StageFaultKind::Error,
            },
        ],
        losses: vec![PuLoss {
            class: tenants[2].chunks[tenants[2].chunks.len() - 1].pu,
            at_us: 0.75 * clean.makespan_us,
        }],
    };
    let r = simulate_multi(&soc, &tenants, Some(&faults)).expect("faulted co-run");
    push_multi(&mut cases, &soc, "multi_faulted", &tenants, &r);

    // A chain tenant beside a fork/join tenant (the perception diamond,
    // global chunks 4..8).
    let dag = golden_dag_schedule(&soc, &app);
    let works = app.works();
    let dag_chunks: Vec<ChunkSpec> = dag
        .chunks()
        .iter()
        .map(|c| ChunkSpec::new(c.pu, c.stages.iter().map(|&s| works[s].clone()).collect()))
        .collect();
    let octree = &paper_apps()[2].1;
    let mixed = vec![
        TenantSpec::new("octree", golden_chunks(&soc, octree), cfg.clone()),
        TenantSpec::new(
            "perception",
            dag_chunks,
            RunConfig {
                seed: cfg.seed + 1,
                ..cfg.clone()
            },
        )
        .with_edges(dag.chunk_edges().to_vec()),
    ];
    let clean = simulate_multi(&soc, &mixed, None).expect("clean mixed co-run");
    push_multi(&mut cases, &soc, "mixed_clean", &mixed, &clean);
    let first_dag = mixed[0].chunks.len();
    let faults = FaultSpec {
        slowdowns: golden_faults(&soc).slowdowns,
        stragglers: vec![Straggler {
            chunk: first_dag + 2,
            task: 7,
            factor: 3.0,
        }],
        stage_faults: vec![
            StageFault {
                chunk: first_dag + 1,
                task: 13,
                stage: 0,
                kind: StageFaultKind::Error,
            },
            StageFault {
                chunk: 1,
                task: 17,
                stage: 0,
                kind: StageFaultKind::Error,
            },
        ],
        losses: vec![PuLoss {
            class: dag.chunks()[2].pu,
            at_us: late_in(&clean.tenants[1]),
        }],
    };
    let r = simulate_multi(&soc, &mixed, Some(&faults)).expect("faulted mixed co-run");
    push_multi(&mut cases, &soc, "mixed_faulted", &mixed, &r);

    cases
}

/// The dynamic scheduler routing around a lost PU, per device: the octree
/// chain under `BestFit` losing the first schedulable class, and the
/// perception DAG under `Fifo` losing the last, each at `late_in` its own
/// clean run.
fn compute_loss_cases() -> Vec<GoldenCase> {
    let cfg = golden_config();
    let octree = paper_apps()[2].1.works();
    let perception = perception();
    let deps = perception.task_graph().deps().to_vec();
    let mut cases = Vec::new();
    for soc in devices::all() {
        let classes = soc.schedulable_classes();
        let lose = |class: PuClass, clean: &RunReport| FaultSpec {
            losses: vec![PuLoss {
                class,
                at_us: late_in(clean),
            }],
            ..FaultSpec::default()
        };

        let run = |faults: Option<&FaultSpec>| {
            simulate_dynamic(&soc, &octree, &cfg, DynamicPolicy::BestFit, faults)
                .expect("dynamic octree")
        };
        let faults = lose(classes[0], &run(None));
        let mut case = blank_case(soc.name(), "octree", "dynamic_loss");
        fill(&mut case, &run(Some(&faults)));
        cases.push(case);

        let run = |faults: Option<&FaultSpec>| {
            let works = perception.works();
            simulate_dynamic_dag(&soc, &works, &deps, &cfg, DynamicPolicy::Fifo, faults)
                .expect("dynamic perception")
        };
        let faults = lose(classes[classes.len() - 1], &run(None));
        let mut case = blank_case(soc.name(), "perception", "dynamic_dag_loss");
        fill(&mut case, &run(Some(&faults)));
        cases.push(case);
    }
    cases
}

#[test]
fn golden_fixtures_replay_bit_identically() {
    let mut cases = compute_cases();
    assert_eq!(cases.len(), 4 * 3 * 4, "4 devices x 3 apps x 4 modes");
    cases.extend(compute_shape_cases());
    cases.extend(compute_loss_cases());
    assert_eq!(
        cases.len(),
        48 + 4 * 4 + 2 + 2 * 4 + 2 * 3 + 2 * 4,
        "+ (dag, dynamic-dag) x 4 devices, replica group, 3-tenant and mixed co-runs, \
         dynamic PU loss (chain, dag) x 4 devices"
    );

    if std::env::var("BT_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&cases).expect("serialize fixtures");
        std::fs::write(FIXTURE, json).expect("write fixture file");
        eprintln!("regenerated {FIXTURE} with {} cases", cases.len());
        return;
    }

    let raw = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with BT_GOLDEN_REGEN=1 to capture");
    let golden: Vec<GoldenCase> = serde_json::from_str(&raw).expect("parse fixture");
    assert_eq!(golden.len(), cases.len(), "fixture case count");

    let mut mismatches = Vec::new();
    for (got, want) in cases.iter().zip(&golden) {
        // Compare through the JSON encoding: shortest-roundtrip f64
        // formatting makes string equality equivalent to bit equality.
        let got_s = serde_json::to_string(got).unwrap();
        let want_s = serde_json::to_string(want).unwrap();
        if got_s != want_s {
            mismatches.push(format!(
                "{}/{}/{}:\n  got  {got_s}\n  want {want_s}",
                got.device, got.app, got.mode
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden case(s) drifted:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The batch entry must reproduce every *static* golden fixture
/// bit-for-bit: per (device, app), the clean and faulted cases are
/// replayed as two lanes of one `simulate_schedule_batch` call and
/// compared against the pinned JSON through the same shortest-roundtrip
/// encoding. (Dynamic-mode fixtures have no batched counterpart — a batch
/// maps one static schedule over seed lanes.)
#[test]
fn golden_static_fixtures_replay_through_batch_engine() {
    if std::env::var("BT_GOLDEN_REGEN").is_ok() {
        return; // the scalar test regenerates; nothing to compare yet
    }
    let raw = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with BT_GOLDEN_REGEN=1 to capture");
    let golden: Vec<GoldenCase> = serde_json::from_str(&raw).expect("parse fixture");
    let pinned = |device: &str, app: &str, mode: &str| {
        golden
            .iter()
            .find(|c| c.device == device && c.app == app && c.mode == mode)
            .unwrap_or_else(|| panic!("no pinned case {device}/{app}/{mode}"))
    };

    let cfg = golden_config();
    let mut mismatches = Vec::new();
    let mut replayed = 0usize;
    for soc in devices::all() {
        for (app_name, app) in paper_apps() {
            let schedule = golden_schedule(&soc, app.stage_count());
            let lanes = vec![
                DesSeedSpec::new(cfg.seed),
                DesSeedSpec::with_faults(cfg.seed, golden_faults(&soc)),
            ];
            let reports = simulate_schedule_batch(&soc, &app, &schedule, &cfg, &lanes)
                .expect("batched replay");
            for (mode, report) in [("clean", &reports[0]), ("faulted", &reports[1])] {
                let mut case = blank_case(soc.name(), &app_name, mode);
                fill(&mut case, report);
                let want = pinned(soc.name(), &app_name, mode);
                let got_s = serde_json::to_string(&case).unwrap();
                let want_s = serde_json::to_string(want).unwrap();
                if got_s != want_s {
                    mismatches.push(format!(
                        "{}/{}/{} (batched):\n  got  {got_s}\n  want {want_s}",
                        soc.name(),
                        app_name,
                        mode
                    ));
                }
                replayed += 1;
            }
        }
    }
    assert_eq!(replayed, 4 * 3 * 2, "all static fixtures replayed batched");
    assert!(
        mismatches.is_empty(),
        "{} batched golden case(s) drifted:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Faulted fixtures must themselves conserve tasks — guards against
/// capturing a broken baseline.
#[test]
fn golden_fixtures_conserve_tasks() {
    for case in compute_cases()
        .into_iter()
        .chain(compute_shape_cases())
        .chain(compute_loss_cases())
    {
        assert_eq!(
            case.completed + case.dropped,
            case.submitted,
            "{}/{}/{} leaks tasks",
            case.device,
            case.app,
            case.mode
        );
    }
}
