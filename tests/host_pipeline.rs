//! Integration tests for the real host runtime: correctness of the
//! dispatcher/queue/TaskObject machinery under actual threads, with both a
//! synthetic checked application and the real octree kernels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bettertogether::kernels::{apps, Application, KernelFn, ParCtx, Stage, TaskGraph};
use bettertogether::pipeline::{
    run_host, run_host_dag, DagSchedule, DegradeReason, PipelineError, PuThreads, ResilienceConfig,
    RunConfig, Schedule,
};
use bettertogether::soc::{PuClass, WorkProfile};
use bettertogether::telemetry::TelemetryConfig;

/// Payload that hashes its sequence number through each stage; the last
/// stage verifies the accumulated value, catching lost/duplicated/
/// misordered work or recycling bugs.
#[derive(Debug, Default)]
struct Checked {
    seq: u64,
    acc: u64,
}

fn mix(x: u64, stage: u64) -> u64 {
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(17)
        .wrapping_add(stage)
}

fn checked_app(
    stages: usize,
    errors: Arc<AtomicU64>,
    done: Arc<AtomicU64>,
) -> Application<Checked> {
    let mut list = Vec::new();
    for i in 0..stages {
        let is_last = i == stages - 1;
        let errors = Arc::clone(&errors);
        let done = Arc::clone(&done);
        let kernel: KernelFn<Checked> = Arc::new(move |t: &mut Checked, ctx: &ParCtx| {
            // Exercise the worker pool too.
            let partial = ctx.reduce(64, 0u64, |r| r.map(|x| x as u64).sum(), |a, b| a + b);
            assert_eq!(partial, 63 * 64 / 2);
            t.acc = mix(t.acc, i as u64);
            if is_last {
                let mut expect = t.seq;
                for s in 0..stages as u64 {
                    expect = mix(expect, s);
                }
                if expect != t.acc {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
        list.push(Stage::new(
            format!("s{i}"),
            WorkProfile::new(10.0, 10.0),
            kernel,
        ));
    }
    Application::new(
        "checked",
        list,
        Arc::new(Checked::default),
        Arc::new(|t: &mut Checked, seq| {
            t.seq = seq;
            t.acc = seq;
        }),
    )
}

#[test]
fn every_task_processed_exactly_once_in_order() {
    use PuClass::*;
    let errors = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let app = checked_app(6, Arc::clone(&errors), Arc::clone(&done));
    let schedule =
        Schedule::new(vec![BigCpu, BigCpu, MediumCpu, MediumCpu, Gpu, LittleCpu]).unwrap();
    let cfg = RunConfig {
        tasks: 200,
        warmup: 5,
        ..RunConfig::default()
    };
    let report = run_host(&app, &schedule, &PuThreads::uniform(2), &cfg, None).unwrap();
    assert_eq!(errors.load(Ordering::Relaxed), 0, "payload corruption");
    assert_eq!(done.load(Ordering::Relaxed), 205, "every task completes");
    assert!(report.expect_stats().throughput_hz > 0.0);
}

#[test]
fn deep_pipelines_and_tiny_buffers() {
    let errors = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let app = checked_app(4, Arc::clone(&errors), Arc::clone(&done));
    let schedule = Schedule::new(vec![
        PuClass::BigCpu,
        PuClass::MediumCpu,
        PuClass::LittleCpu,
        PuClass::Gpu,
    ])
    .unwrap();
    // Buffer pool of exactly 1 forces full serialization through the
    // queues; correctness must be unaffected.
    let cfg = RunConfig {
        tasks: 50,
        warmup: 0,
        buffers: 1,
        ..RunConfig::default()
    };
    run_host(&app, &schedule, &PuThreads::uniform(1), &cfg, None).unwrap();
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    assert_eq!(done.load(Ordering::Relaxed), 50);
}

#[test]
fn real_octree_pipeline_produces_correct_structures() {
    // Compare the recycled-pipeline execution against fresh sequential
    // runs: the final stage validates its own octree in-line.
    let validated = Arc::new(AtomicU64::new(0));
    let base = apps::octree_app(apps::OctreeConfig {
        points: 3_000,
        shape: bettertogether::kernels::pointcloud::CloudShape::Clustered,
        max_depth: 5,
        seed: 7,
    });

    // Wrap the app with a validation stage appended.
    let mut stages: Vec<Stage<apps::OctreeTask>> = base.stages().to_vec();
    {
        let validated = Arc::clone(&validated);
        stages.push(Stage::new(
            "validate",
            WorkProfile::new(1.0, 1.0),
            Arc::new(move |t: &mut apps::OctreeTask, _ctx: &ParCtx| {
                let octree = t.octree.as_ref().expect("built by prior stage");
                assert_eq!(octree.cell_count() as u32, t.edge_total + 1);
                // Every unique key must locate inside the octree with a
                // covering range.
                for (idx, &key) in t.unique.iter().enumerate().step_by(97) {
                    let cell = octree.locate(key);
                    let (lo, hi) = octree.key_range(cell);
                    assert!((lo..=hi).contains(&idx), "key {idx} outside [{lo},{hi}]");
                }
                validated.fetch_add(1, Ordering::Relaxed);
            }) as KernelFn<apps::OctreeTask>,
        ));
    }
    let app = Application::new("octree+validate", stages, base.factory(), base.source());

    let schedule = Schedule::new(vec![
        PuClass::BigCpu,
        PuClass::BigCpu,
        PuClass::BigCpu,
        PuClass::MediumCpu,
        PuClass::MediumCpu,
        PuClass::Gpu,
        PuClass::Gpu,
        PuClass::Gpu,
    ])
    .unwrap();
    let cfg = RunConfig {
        tasks: 12,
        warmup: 2,
        ..RunConfig::default()
    };
    run_host(&app, &schedule, &PuThreads::uniform(2), &cfg, None).unwrap();
    assert_eq!(validated.load(Ordering::Relaxed), 14);
}

#[test]
fn panicking_stage_fails_cleanly_without_deadlock() {
    // Stage 2 panics on the 7th task; the pipeline must shut down and
    // report the failing chunk instead of deadlocking or corrupting state.
    let stage = |i: usize| -> Stage<u64> {
        Stage::new(
            format!("s{i}"),
            WorkProfile::new(1.0, 1.0),
            Arc::new(move |t: &mut u64, _ctx: &ParCtx| {
                if i == 2 && *t == 7 {
                    panic!("injected failure");
                }
            }) as KernelFn<u64>,
        )
    };
    let app = Application::new(
        "faulty",
        (0..4).map(stage).collect(),
        Arc::new(|| 0u64),
        Arc::new(|t: &mut u64, seq| *t = seq),
    );
    let schedule = Schedule::new(vec![
        PuClass::BigCpu,
        PuClass::MediumCpu,
        PuClass::Gpu,
        PuClass::LittleCpu,
    ])
    .unwrap();
    let cfg = RunConfig {
        tasks: 50,
        warmup: 0,
        ..RunConfig::default()
    };
    let err = run_host(&app, &schedule, &PuThreads::uniform(1), &cfg, None).unwrap_err();
    assert_eq!(err, PipelineError::StagePanicked { chunk: 2 });
}

#[test]
fn panicking_head_stage_fails_cleanly() {
    let stage = |i: usize| -> Stage<u64> {
        Stage::new(
            format!("s{i}"),
            WorkProfile::new(1.0, 1.0),
            Arc::new(move |t: &mut u64, _ctx: &ParCtx| {
                if i == 0 && *t == 3 {
                    panic!("injected head failure");
                }
            }) as KernelFn<u64>,
        )
    };
    let app = Application::new(
        "faulty-head",
        (0..3).map(stage).collect(),
        Arc::new(|| 0u64),
        Arc::new(|t: &mut u64, seq| *t = seq),
    );
    let schedule = Schedule::new(vec![PuClass::BigCpu, PuClass::Gpu, PuClass::Gpu]).unwrap();
    let err = run_host(
        &app,
        &schedule,
        &PuThreads::uniform(1),
        &RunConfig {
            tasks: 20,
            warmup: 0,
            ..RunConfig::default()
        },
        None,
    )
    .unwrap_err();
    assert_eq!(err, PipelineError::StagePanicked { chunk: 0 });
}

#[test]
fn duration_mode_runs_until_deadline() {
    let errors = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let app = checked_app(3, Arc::clone(&errors), Arc::clone(&done));
    let schedule = Schedule::new(vec![PuClass::BigCpu, PuClass::Gpu, PuClass::Gpu]).unwrap();
    let cfg = RunConfig {
        tasks: 1, // only sizes warmup accounting in duration mode
        warmup: 2,
        duration: Some(Duration::from_millis(120)),
        ..RunConfig::default()
    };
    let report = run_host(&app, &schedule, &PuThreads::uniform(1), &cfg, None).unwrap();
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    let stats = report.expect_stats();
    // The trivial kernels complete far more than the warmup within 120 ms.
    assert!(stats.tasks > 10, "only {} tasks in the window", stats.tasks);
    assert_eq!(done.load(Ordering::Relaxed), u64::from(stats.tasks) + 2);
    assert!(stats.throughput_hz > 0.0);
}

#[test]
fn timeline_recording_captures_all_tasks() {
    let errors = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let app = checked_app(3, Arc::clone(&errors), Arc::clone(&done));
    let schedule = Schedule::new(vec![PuClass::BigCpu, PuClass::Gpu, PuClass::Gpu]).unwrap();
    let cfg = RunConfig {
        tasks: 10,
        warmup: 0,
        record_timeline: true,
        ..RunConfig::default()
    };
    let report = run_host(&app, &schedule, &PuThreads::uniform(1), &cfg, None).unwrap();
    // Two chunks × 10 tasks = 20 spans, all well-formed.
    assert_eq!(report.timeline.len(), 20);
    for span in &report.timeline {
        assert!(span.end_us >= span.start_us);
        assert!(span.chunk < 2);
        assert!(span.task < 10);
    }
}

#[test]
fn single_chunk_host_run_matches_multi_chunk_results() {
    let e1 = Arc::new(AtomicU64::new(0));
    let d1 = Arc::new(AtomicU64::new(0));
    let app = checked_app(3, Arc::clone(&e1), Arc::clone(&d1));
    let single = Schedule::homogeneous(3, PuClass::BigCpu);
    let cfg = RunConfig {
        tasks: 30,
        warmup: 0,
        buffers: 2,
        ..RunConfig::default()
    };
    run_host(&app, &single, &PuThreads::uniform(2), &cfg, None).unwrap();
    assert_eq!(e1.load(Ordering::Relaxed), 0);
    assert_eq!(d1.load(Ordering::Relaxed), 30);
}

// ---- fork/join schedules through `run_host_dag` -------------------------

/// Payload of [`trace_app`]: the stages that ran on this task so far.
#[derive(Debug, Default)]
struct Trace {
    seq: u64,
    visits: Vec<usize>,
}

/// `(seq, stage visits)` of every task that reached the exit stage.
type Served = Arc<Mutex<Vec<(u64, Vec<usize>)>>>;

/// An application over `graph` whose every stage asserts that its
/// dependencies already ran on the task (a relay-ordering bug panics the
/// pipeline), calls `quirk(stage, seq)` — which may sleep or panic — and
/// records the visit; the exit stage logs the finished task.
fn trace_app(graph: &TaskGraph, quirk: fn(usize, u64)) -> (Application<Trace>, Served) {
    let served = Served::default();
    let exit = graph.len() - 1;
    let stages = (0..graph.len())
        .map(|i| {
            let my_preds: Vec<usize> = (graph.deps().iter())
                .filter_map(|&(from, to)| (to == i).then_some(from))
                .collect();
            let served = Arc::clone(&served);
            let kernel: KernelFn<Trace> = Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                for &p in &my_preds {
                    assert!(t.visits.contains(&p), "stage {i} ran before {p}");
                }
                quirk(i, t.seq);
                t.visits.push(i);
                if i == exit {
                    served.lock().unwrap().push((t.seq, t.visits.clone()));
                }
            });
            Stage::new(format!("s{i}"), WorkProfile::new(1.0, 1.0), kernel)
        })
        .collect();
    let app = Application::from_task_graph(
        "trace",
        stages,
        graph,
        Arc::new(Trace::default),
        Arc::new(|t: &mut Trace, seq| {
            t.seq = seq;
            t.visits.clear();
        }),
    )
    .unwrap();
    (app, served)
}

/// The served log, in sequence order.
fn sorted(served: &Served) -> Vec<(u64, Vec<usize>)> {
    let mut log = served.lock().unwrap().clone();
    log.sort();
    log
}

fn diamond() -> TaskGraph {
    let mut g = TaskGraph::new(4);
    g.add_dep(0, 1).add_dep(0, 2).add_dep(1, 3).add_dep(2, 3);
    g
}

fn run_cfg(tasks: u32) -> RunConfig {
    RunConfig {
        tasks,
        warmup: 0,
        ..RunConfig::default()
    }
}

#[test]
fn diamond_visits_every_stage_once_in_dependency_order() {
    use PuClass::*;
    let g = diamond();
    let (app, served) = trace_app(&g, |_, _| {});
    let schedule = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &g).unwrap();
    let report = run_host_dag(&app, &schedule, &PuThreads::uniform(1), &run_cfg(40), None).unwrap();
    assert_eq!(
        (report.submitted, report.completed, report.dropped),
        (40, 40, 0)
    );
    let log = sorted(&served);
    assert_eq!(log.len(), 40);
    for (seq, (got, mut visits)) in log.into_iter().enumerate() {
        assert_eq!(got, seq as u64, "each task exits exactly once");
        // Dependency order was asserted inside every kernel.
        visits.sort_unstable();
        assert_eq!(visits, [0, 1, 2, 3], "each stage runs exactly once");
    }
}

#[test]
fn replicated_stage_serves_each_seq_exactly_once_across_both_replicas() {
    use PuClass::*;
    let g = TaskGraph::chain(3);
    let (app, served) = trace_app(&g, |_, _| {});
    let schedule =
        DagSchedule::replicated(vec![LittleCpu, BigCpu, MediumCpu], &g, 1, (BigCpu, Gpu)).unwrap();
    let cfg = RunConfig {
        record_timeline: true,
        ..run_cfg(40)
    };
    let report = run_host_dag(&app, &schedule, &PuThreads::uniform(1), &cfg, None).unwrap();
    assert_eq!(report.completed, 40);
    let expected: Vec<(u64, Vec<usize>)> = (0..40).map(|s| (s, vec![0, 1, 2])).collect();
    assert_eq!(sorted(&served), expected);
    // The replicas are schedule chunks 1 and 2: even seqs on one, odd on
    // the other, every seq on exactly one of them.
    let (a, b) = schedule.replica_pair().unwrap();
    let mut by_replica = [Vec::new(), Vec::new()];
    for span in &report.timeline {
        if span.chunk == a || span.chunk == b {
            by_replica[span.chunk - a].push(span.task);
        }
    }
    assert_eq!(by_replica[0], (0..40).step_by(2).collect::<Vec<u64>>());
    assert_eq!(by_replica[1], (1..40).step_by(2).collect::<Vec<u64>>());
}

/// A chain is the relay on a path: the linear schedule through `run_host`
/// and its DAG lift through `run_host_dag` are the same run.
#[test]
fn chain_schedule_and_its_dag_lift_run_identically() {
    use PuClass::*;
    let g = TaskGraph::chain(4);
    let linear = Schedule::new(vec![BigCpu, BigCpu, Gpu, LittleCpu]).unwrap();
    let lifted = DagSchedule::from_schedule(&linear);
    let res = ResilienceConfig {
        retries: 1,
        retry_backoff: Duration::from_micros(100),
        ..ResilienceConfig::default()
    };
    // Fail-fast on a clean app; resilient on one whose stage 2 (chunk 1)
    // always panics on seqs 5 and 6.
    let clean: fn(usize, u64) = |_, _| {};
    let faulty: fn(usize, u64) = |stage, seq| {
        if stage == 2 && (seq == 5 || seq == 6) {
            panic!("injected kernel fault");
        }
    };
    for (quirk, res, dropped) in [(clean, None, 0), (faulty, Some(&res), 2)] {
        let (app, served) = trace_app(&g, quirk);
        let threads = PuThreads::uniform(1);
        let a = run_host(&app, &linear, &threads, &run_cfg(30), res).unwrap();
        let trace_a = std::mem::take(&mut *served.lock().unwrap());
        let b = run_host_dag(&app, &lifted, &threads, &run_cfg(30), res).unwrap();
        let trace_b = std::mem::take(&mut *served.lock().unwrap());
        assert_eq!(trace_a, trace_b, "per-task visit traces, in exit order");
        assert_eq!(trace_a.len() as u64, 30 - dropped);
        for r in [&a, &b] {
            assert_eq!(
                (r.submitted, r.completed, r.dropped),
                (30, 30 - dropped, dropped)
            );
            assert_eq!(u64::from(r.faults_fired), dropped);
        }
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(
            a.degraded,
            (dropped > 0).then_some(DegradeReason::KernelFailures { chunk: 1 })
        );
    }
}

/// Regression: `run_host_dag` used to report per-chunk fields in relay
/// order. With both ends of one diamond branch on BigCpu the chunks are
/// `[{0}, {1, 3}, {2}]` but the relay visits them as 0, 2, 1, so the slow
/// stage-2 chunk showed up as `bottleneck_chunk == 1`.
#[test]
fn host_dag_report_is_indexed_by_schedule_chunk() {
    use PuClass::*;
    let g = diamond();
    let schedule = DagSchedule::new(vec![LittleCpu, BigCpu, Gpu, BigCpu], &g).unwrap();
    assert_eq!(schedule.chunks()[1].stages, [1, 3]);
    assert_eq!(schedule.chunks()[2].stages, [2]);
    let (app, _) = trace_app(&g, |stage, _| {
        if stage == 2 {
            std::thread::sleep(Duration::from_micros(800));
        }
    });
    let cfg = RunConfig {
        tasks: 40,
        warmup: 2,
        record_timeline: true,
        telemetry: TelemetryConfig::full(),
        ..RunConfig::default()
    };
    let report = run_host_dag(&app, &schedule, &PuThreads::uniform(1), &cfg, None).unwrap();
    let stats = report.expect_stats();
    assert_eq!(stats.chunk_utilization.len(), 3);
    assert_eq!(stats.bottleneck_chunk, 2, "{:?}", stats.chunk_utilization);

    // The timeline, the telemetry spans and the dispatcher counters all
    // name the sleeping chunk 2 as well.
    fn busiest(spans: impl Iterator<Item = (usize, f64)>) -> usize {
        let mut busy = [0.0f64; 3];
        for (chunk, us) in spans {
            busy[chunk] += us;
        }
        (0..3).max_by(|&a, &b| busy[a].total_cmp(&busy[b])).unwrap()
    }
    let timeline = &report.timeline;
    assert_eq!(timeline.len(), 3 * 42);
    let by_chunk = timeline.iter().map(|s| (s.chunk, s.end_us - s.start_us));
    assert_eq!(busiest(by_chunk), 2);
    let telemetry = report.telemetry.as_ref().expect("telemetry requested");
    let by_track = telemetry
        .spans
        .iter()
        .map(|s| (s.track as usize, s.duration_us()));
    assert_eq!(busiest(by_track), 2);
    let labels: Vec<&str> = telemetry
        .dispatchers
        .iter()
        .map(|d| d.label.as_str())
        .collect();
    assert_eq!(labels, ["chunk0", "chunk1", "chunk2"]);
    let by_dispatcher = telemetry.dispatchers.iter().map(|d| d.busy_us).enumerate();
    assert_eq!(busiest(by_dispatcher), 2);

    // ... and a panic in stage 2 names the same chunk.
    let (app, _) = trace_app(&g, |stage, seq| {
        if stage == 2 && seq == 3 {
            panic!("injected kernel fault");
        }
    });
    let err =
        run_host_dag(&app, &schedule, &PuThreads::uniform(1), &run_cfg(20), None).unwrap_err();
    assert_eq!(err, PipelineError::StagePanicked { chunk: 2 });
}
