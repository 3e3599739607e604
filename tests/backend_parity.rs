//! Backend parity: the *same* generic driver runs the full Fig. 2 loop
//! over both [`ExecutionBackend`] implementations — the discrete-event
//! simulator and the real host dispatcher runtime — and the structural
//! invariants of the result hold identically on both:
//!
//! - every candidate schedule satisfies C1 (each stage on exactly one PU)
//!   and C2 (each class forms one contiguous chunk), and only uses classes
//!   the backend can schedule;
//! - `best_index` points at the measured minimum of the autotuning sweep;
//! - every baseline class the backend declared was actually measured;
//! - telemetry rides along on each candidate measurement when enabled.

use std::collections::HashSet;

use bettertogether::core::{
    BetterTogether, BtConfig, Deployment, ExecutionBackend, HostBackend, OptimizerConfig,
    SimBackend,
};
use bettertogether::kernels::apps;
use bettertogether::pipeline::RunConfig;
use bettertogether::profiler::host::{HostClasses, HostProfilerConfig};
use bettertogether::soc::{devices, PuClass};
use bettertogether::telemetry::TelemetryConfig;

/// The one driver both backends share: plan, deploy, check invariants.
fn drive_and_check<B: ExecutionBackend>(bt: &BetterTogether<B>) -> Deployment {
    let backend = bt.backend();
    let plan = bt.plan().expect("plan");
    assert!(
        !plan.candidates.is_empty(),
        "{}: no candidates",
        backend.name()
    );

    for (i, c) in plan.candidates.iter().enumerate() {
        let label = format!("{} candidate {i} ({})", backend.name(), c.schedule);
        // C1: one PU per stage — the assignment covers every stage once.
        assert_eq!(
            c.schedule.stage_count(),
            backend.stage_count(),
            "{label}: C1 violated"
        );
        // C2: contiguity — a class never owns two separate chunks.
        let classes = c.schedule.classes_used();
        let distinct: HashSet<_> = classes.iter().copied().collect();
        assert_eq!(classes.len(), distinct.len(), "{label}: C2 violated");
        // The optimizer only places chunks where the backend allows them.
        for class in distinct {
            assert!(backend.schedulable(class), "{label}: {class} unschedulable");
        }
    }

    let d = bt.deploy(plan).expect("deploy");

    // best_index is the argmin of the measured sweep.
    let best = d
        .outcome
        .measured_latency(d.outcome.best_index)
        .expect("best candidate measured");
    for m in &d.outcome.measured {
        assert!(
            best <= m.latency,
            "{}: best_index {} ({best}) beaten by candidate {} ({})",
            backend.name(),
            d.outcome.best_index,
            m.candidate_index,
            m.latency
        );
        assert!(
            m.telemetry.is_some(),
            "{}: candidate {} measured without telemetry",
            backend.name(),
            m.candidate_index
        );
    }

    // Every declared baseline class was measured.
    for class in backend.baseline_classes() {
        assert!(
            d.baselines.latency_of(class).is_some(),
            "{}: baseline {class} missing",
            backend.name()
        );
    }
    assert!(d.best_latency().is_some());
    assert!(d.speedup_over_best_baseline().is_some());
    d
}

fn small_config() -> BtConfig {
    BtConfig {
        optimizer: OptimizerConfig {
            candidates: 4,
            ..OptimizerConfig::default()
        },
        ..BtConfig::default()
    }
}

#[test]
fn sim_backend_satisfies_structural_invariants() {
    let app = apps::octree_app(apps::OctreeConfig::default()).model();
    let backend = SimBackend::new(devices::pixel_7a(), app).with_run(RunConfig {
        telemetry: TelemetryConfig::full(),
        ..RunConfig::default()
    });
    let d = drive_and_check(&BetterTogether::with_backend(backend).with_config(small_config()));
    // The simulated Pixel beats its own homogeneous baselines.
    assert!(d.speedup_over_best_baseline().expect("measured") > 1.0);
}

#[test]
fn parallel_hint_follows_run_length_on_sim_and_is_off_for_host() {
    // The simulator may fan measurements out — runs are pure functions of
    // (config, run-index seed), so concurrency cannot perturb them — but
    // says so only when one run is long enough to pay for a worker thread:
    // the default 35-task run is not, a 3 000-task run is.
    let app = apps::octree_app(apps::OctreeConfig::default()).model();
    let sim = SimBackend::new(devices::pixel_7a(), app);
    let long = RunConfig {
        tasks: 3000,
        ..RunConfig::default()
    };
    assert!(!sim.parallel_measure_hint());
    assert!(sim.clone().with_run(long.clone()).parallel_measure_hint());
    // Permission withheld: serial at any size.
    assert!(!sim.clone().with_parallel(false).parallel_measure_hint());
    assert!(!sim
        .with_run(long)
        .with_parallel(false)
        .parallel_measure_hint());

    // The host backend must stay strictly serial: wall-clock candidate
    // runs own the machine's cores, and concurrent runs would contend for
    // CPU and memory bandwidth — corrupting the latencies being ranked.
    let host = HostBackend::with_classes(
        apps::octree_app(apps::OctreeConfig {
            points: 100,
            shape: bettertogether::kernels::pointcloud::CloudShape::Uniform,
            max_depth: 3,
            seed: 1,
        }),
        HostClasses::new(vec![(PuClass::BigCpu, 2), (PuClass::LittleCpu, 1)]),
    );
    assert!(!host.parallel_measure_hint());
}

#[test]
fn host_backend_satisfies_structural_invariants() {
    // Small real octree so the wall-clock profiling + autotuning sweep
    // stays test-sized (a few hundred kernel executions).
    let app = apps::octree_app(apps::OctreeConfig {
        points: 1_000,
        shape: bettertogether::kernels::pointcloud::CloudShape::Uniform,
        max_depth: 4,
        seed: 11,
    });
    let backend = HostBackend::with_classes(
        app,
        HostClasses::new(vec![(PuClass::BigCpu, 2), (PuClass::LittleCpu, 1)]),
    )
    .with_profiler(HostProfilerConfig { reps: 1, warmup: 0 })
    .with_run(RunConfig {
        tasks: 4,
        warmup: 1,
        telemetry: TelemetryConfig::full(),
        ..RunConfig::default()
    });
    let d = drive_and_check(&BetterTogether::with_backend(backend).with_config(small_config()));
    // Host tiers both appear in the baseline table.
    assert!(d.baselines.latency_of(PuClass::BigCpu).is_some());
    assert!(d.baselines.latency_of(PuClass::LittleCpu).is_some());
}
