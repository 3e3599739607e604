//! **Perf-trajectory harness for the evaluation engine**: times the three
//! hot paths this repo's autotuning loop lives in — the end-to-end Fig. 2
//! loop (profile → optimize → autotune → baselines), the discrete-event
//! simulator, and the SAT candidate enumerator — each in a "before"
//! configuration (serial measurement, no DES service cache, per-round
//! solver re-encoding) and in the current default configuration.
//!
//! Writes `BENCH_eval.json` at the **repository root** so CI can upload it
//! and reviewers can diff the trajectory across commits. Also checks that
//! the parallel evaluation path produces a `Deployment` byte-identical to
//! the serial one (same seeds, index-ordered merge).
//!
//! `--smoke` shrinks iteration counts for CI; the JSON shape is unchanged.
//!
//! `--gate` turns the run into a regression gate: after measuring, the
//! fresh Fig. 2 loop speedup is compared against the committed
//! `BENCH_eval.json` baseline (informational) and the process exits
//! non-zero if the fresh speedup falls below 1.8× — the CI floor under
//! the 2× local acceptance bar, leaving headroom for noisy shared
//! runners.

use std::time::Instant;

use bt_core::{
    build_problem, optimize, optimize_dag, optimize_replicated, BetterTogether, McuBackend,
    OptimizerConfig, SimBackend,
};
use bt_kernels::{apps, AppModel};
use bt_pipeline::{simulate_baseline, simulate_dag_schedule, simulate_schedule, Schedule};
use bt_profiler::{profile, ProfileMode, ProfilerConfig};
use bt_soc::{devices, PuClass, RunConfig, SocSpec};
use bt_solver::{Assignment, DagProblem, Engine};
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Loop {
    /// Serial measurement, DES cache off — the pre-optimization path.
    pre_pr_ms: f64,
    /// Current defaults (parallel hint honoured, DES cache on).
    current_ms: f64,
    speedup: f64,
    /// Parallel and serial runs produced identical `Deployment`s.
    deployment_byte_identical: bool,
}

#[derive(Serialize)]
struct DesThroughput {
    tasks_per_run: u32,
    runs: u32,
    /// Task-stage service events per wall-clock second, cache off/on.
    events_per_sec_cache_off: f64,
    events_per_sec_cache_on: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SolverEngines {
    /// Stages of the random fork/join instances (classes fixed at 3).
    stages: usize,
    /// Instances solved per arm.
    instances: u32,
    /// Total wall-clock of `min_latency` across instances, CDCL engine.
    cdcl_ms: f64,
    /// Same instances, chronological DPLL engine.
    dpll_ms: f64,
    /// DPLL / CDCL (>= 1 gated: clause learning must never lose).
    speedup: f64,
    /// Slowest single CDCL solve (gated < 50 ms in the full run).
    max_cdcl_solve_ms: f64,
}

#[derive(Serialize)]
struct SolverCandidates {
    candidates: usize,
    /// Old algorithm: fresh CNF encoding per blocking-clause round.
    reencode_ms: f64,
    /// Current algorithm: persistent incremental solver across rounds.
    incremental_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct DagBranching {
    /// Best DAG-aware schedule of the branching perception app, measured
    /// per-task critical-path latency (µs, one task in flight).
    dag_aware_us: f64,
    /// Best schedule of the same stages forced into their linearized
    /// chain order, same metric.
    best_linearized_us: f64,
    /// Linearized / DAG-aware (> 1 gated: branch overlap must pay).
    speedup: f64,
    /// Steady-state µs/task with the measured bottleneck stage replicated
    /// across two exclusive classes.
    replicated_us: f64,
    /// Steady-state µs/task of the best non-replicated DAG schedule.
    best_nonreplicated_us: f64,
    /// Non-replicated / replicated (> 1 gated).
    replication_speedup: f64,
}

#[derive(Serialize)]
struct McuEdge {
    device: &'static str,
    app: &'static str,
    /// Winning schedule's class letters (e.g. "GBLL": DMA drains the ADC,
    /// the M7 runs the FIR, the M4 takes features + classification).
    best_schedule: String,
    /// Measured time/task of the winning schedule (virtual µs).
    best_us: f64,
    /// The naive firmware baseline: every stage on the Cortex-M7.
    m7_baseline_us: f64,
    /// Baseline / best (> 1 gated: pipelining across the MCU's PUs must
    /// beat the single-core loop). Deterministic — virtual time.
    speedup_over_m7: f64,
    /// Distinct PU classes the winning schedule spans.
    classes_used: usize,
}

#[derive(Serialize)]
struct BenchEval {
    device: &'static str,
    app: &'static str,
    smoke: bool,
    fig2_loop: Fig2Loop,
    des: DesThroughput,
    solver: SolverCandidates,
    /// CDCL vs the chronological DPLL oracle on large DAG encodings.
    solver_engines: SolverEngines,
    /// Multi-tenant rows: co-run vs time-slicing (deterministic, gated)
    /// and steal-path overhead (wall-clock, informational).
    mt: bt_bench::mt::MtBench,
    /// Fork/join rows on the branching perception app: DAG-aware vs
    /// linearized, and bottleneck replication (deterministic, gated).
    dag: DagBranching,
    /// MCU-class edge row: the Fig. 2 loop on the `mcu_m7` device and the
    /// sensor app, via the CPU-only-baseline [`McuBackend`]
    /// (deterministic, gated).
    mcu: McuEdge,
    /// The acceptance bar: current Fig. 2 loop ≥ 2× the pre-PR path.
    meets_2x_fig2: bool,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The seed's Fig. 2 loop, reconstructed from public primitives: serial
/// profiling; exact optimization that materializes the whole schedule
/// space, re-validates every leaf through [`DagProblem::evaluate`], and
/// full-sorts it before truncating to 𝒦; serial autotuning and baselines on the
/// uncached DES path. This is the "before" arm of the trajectory — the
/// framework's own entry points have since moved to streaming top-𝒦
/// selection, memoized service times, and hint-gated parallel fan-out.
fn pre_pr_fig2_loop(soc: &SocSpec, app: &AppModel) -> usize {
    let table = profile(
        soc,
        app,
        ProfileMode::InterferenceHeavy,
        &ProfilerConfig {
            parallel: false,
            ..ProfilerConfig::default()
        },
    );
    let problem = build_problem(soc, &table).expect("valid problem");
    let mut all: Vec<_> = (problem.latency_candidates_exact(usize::MAX).iter())
        .map(|e| problem.evaluate(&e.assignment))
        .collect();
    all.retain(|e| e.t_min >= 0.45 * e.t_max);
    all.sort_by(|a, b| {
        a.t_max
            .partial_cmp(&b.t_max)
            .expect("finite")
            .then_with(|| a.gapness().partial_cmp(&b.gapness()).expect("finite"))
            .then_with(|| a.assignment.cmp(&b.assignment))
    });
    all.truncate(20);
    let des = RunConfig {
        service_cache: false,
        ..RunConfig::default()
    };
    let mut best = (f64::INFINITY, 0usize);
    for (i, e) in all.iter().enumerate() {
        let schedule =
            Schedule::from_class_indices(&e.assignment, table.classes()).expect("contiguous");
        let cfg = RunConfig {
            seed: des.seed.wrapping_add(i as u64),
            ..des.clone()
        };
        let tpt = simulate_schedule(soc, app, &schedule, &cfg, None)
            .expect("simulates")
            .expect_stats()
            .time_per_task;
        if tpt.as_f64() < best.0 {
            best = (tpt.as_f64(), i);
        }
    }
    for class in [PuClass::BigCpu, PuClass::Gpu] {
        simulate_baseline(soc, app, class, &des).expect("baseline");
    }
    best.1
}

/// The pre-PR candidate loop: binary-search the smallest feasible latency
/// tier with a fresh solver encoding per `solve_window` probe, blocking
/// found assignments between rounds. Kept here (not in bt-solver) purely
/// as the baseline arm of the trajectory.
fn reencode_candidates(problem: &DagProblem, k: usize) -> Vec<(f64, Assignment)> {
    let sums = problem.chunk_sums();
    let mut blocked: Vec<Assignment> = Vec::new();
    let mut found = Vec::with_capacity(k);
    while found.len() < k {
        let (mut lo, mut hi, mut best) = (0usize, sums.len(), None);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match problem.solve_window(0.0, sums[mid], &blocked) {
                Some(a) => {
                    best = Some((sums[mid], a));
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        match best {
            Some((t, a)) => {
                blocked.push(a.clone());
                found.push((t, a));
            }
            None => break,
        }
    }
    found
}

/// The fork/join rows: on the branching perception workload, measure the
/// DAG-aware optimum against the best linearized schedule (per-task
/// critical-path latency, one task in flight) and bottleneck replication
/// against the best non-replicated schedule (steady-state rate). All
/// virtual-time, hence deterministic — both speedups are gated.
fn dag_branching_rows(k: usize) -> DagBranching {
    let soc = devices::pixel_7a();
    let app = bt_bench::branching_app();
    let graph = app.task_graph();
    let table = profile(
        &soc,
        &app,
        ProfileMode::InterferenceHeavy,
        &ProfilerConfig::default(),
    );
    let cfg = OptimizerConfig {
        candidates: k,
        ..OptimizerConfig::with_threshold(0.0)
    };
    let noiseless = RunConfig {
        noise_sigma: 0.0,
        ..RunConfig::default()
    };
    // One task in flight: latency is the critical path, which is what
    // branch overlap shortens.
    let single = RunConfig {
        buffers: 1,
        ..noiseless.clone()
    };
    let dag_cands = optimize_dag(&soc, &table, &graph, &cfg).expect("dag candidates");
    // (critical-path latency, steady-state rate) of one DAG schedule.
    let measure = |s: &bt_pipeline::DagSchedule, cfg: &RunConfig| {
        let report = simulate_dag_schedule(&soc, &app, s, cfg, None).expect("simulates");
        let stats = report.expect_stats();
        (
            stats.mean_task_latency.as_f64(),
            stats.time_per_task.as_f64(),
        )
    };
    let dag_aware_us = dag_cands
        .iter()
        .map(|c| measure(&c.schedule, &single).0)
        .fold(f64::INFINITY, f64::min);
    let best_linearized_us = optimize(&soc, &table, &cfg)
        .expect("linearized candidates")
        .iter()
        .map(|c| {
            simulate_schedule(&soc, &app, &c.schedule, &single, None)
                .expect("simulates")
                .expect_stats()
                .mean_task_latency
                .as_f64()
        })
        .fold(f64::INFINITY, f64::min);

    // Replication arm: steady-state rate of the measured-best plain
    // schedule vs its bottleneck stage replicated.
    let (best_plain, best_nonreplicated_us) = dag_cands
        .iter()
        .map(|c| (c, measure(&c.schedule, &noiseless).1))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("candidates");
    let bottleneck_chunk = best_plain
        .chunk_sums
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("chunks")
        .0;
    let chunk = &best_plain.schedule.chunks()[bottleneck_chunk];
    let bottleneck_stage = chunk
        .stages
        .iter()
        .copied()
        .max_by(|&a, &b| {
            let lat = |s: usize| table.latency(s, chunk.pu).expect("profiled").as_f64();
            lat(a).partial_cmp(&lat(b)).expect("finite")
        })
        .expect("non-empty chunk");
    let replicated =
        optimize_replicated(&soc, &table, &graph, bottleneck_stage).expect("replication plan");
    let replicated_us = measure(&replicated.schedule, &noiseless).1;
    DagBranching {
        dag_aware_us,
        best_linearized_us,
        speedup: best_linearized_us / dag_aware_us,
        replicated_us,
        best_nonreplicated_us,
        replication_speedup: best_nonreplicated_us / replicated_us,
    }
}

/// The MCU edge row: the same Fig. 2 loop, retargeted at the STM32H745-
/// class device through [`McuBackend`] — whose only baseline is the
/// all-on-the-M7 firmware loop, since the MDMA engine moves bytes but
/// cannot host whole applications. Entirely virtual-time, hence
/// deterministic and hard-gated.
fn mcu_edge_row() -> McuEdge {
    let app = apps::sensor_app(apps::SensorConfig::default()).model();
    let d = BetterTogether::with_backend(McuBackend::new(devices::mcu_m7(), app))
        .run()
        .expect("Fig. 2 loop on the MCU backend");
    let best = d.best_schedule().expect("autotuned").clone();
    let best_us = d.best_latency().expect("measured").as_f64();
    let m7_baseline_us = d
        .baselines
        .latency_of(PuClass::BigCpu)
        .expect("M7 baseline measured")
        .as_f64();
    McuEdge {
        device: "mcu_m7",
        app: "sensor",
        best_schedule: best.to_string(),
        best_us,
        m7_baseline_us,
        speedup_over_m7: d.speedup_over_cpu().expect("both latencies measured"),
        classes_used: best.classes_used().len(),
    }
}

/// Fig. 2 loop speedup recorded in the committed `BENCH_eval.json`, if the
/// file exists and parses. Must run before this run overwrites it.
fn committed_baseline_speedup() -> Option<f64> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_eval.json");
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    v.get("fig2_loop")?.get("speedup")?.as_f64()
}

/// Deterministic random fork/join instances for the engine-vs-engine row:
/// same generator for both arms, no external RNG dependency.
fn engine_instances(stages: usize, count: u32) -> Vec<(Vec<Vec<f64>>, bt_solver::StageDag)> {
    let splitmix = |state: &mut u64| {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..u64::from(count))
        .map(|seed| {
            let mut st = seed.wrapping_mul(0xdead_beef).wrapping_add(17);
            let mut deps = Vec::new();
            for i in 0..stages {
                for j in i + 1..stages {
                    if splitmix(&mut st) % 2 == 0 {
                        deps.push((i, j));
                    }
                }
            }
            let lat: Vec<Vec<f64>> = (0..stages)
                .map(|_| {
                    (0..3)
                        .map(|_| 1.0 + (splitmix(&mut st) % 490) as f64 / 10.0)
                        .collect()
                })
                .collect();
            let dag = bt_solver::StageDag::new(stages, deps).expect("forward edges are acyclic");
            (lat, dag)
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate = std::env::args().any(|a| a == "--gate");
    let baseline_speedup = gate.then(committed_baseline_speedup).flatten();
    let soc = devices::pixel_7a();
    let app = apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model();
    println!(
        "evaluation-engine trajectory — Pixel 7a × sparse AlexNet{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    // --- Fig. 2 loop: reconstructed pre-PR path vs current defaults. ----
    // Both arms run in ~1 ms, so a single averaged pass is at the mercy of
    // scheduler contention on small CI boxes. Contention is one-sided (it
    // only ever slows an arm down), so interleave short batches of the two
    // arms and keep the *minimum* batch mean per arm — the cleanest
    // observation each arm managed under identical machine conditions.
    let fig2_batches: u32 = if smoke { 2 } else { 6 };
    let fig2_reps: u32 = if smoke { 3 } else { 5 };
    let cur_backend = SimBackend::new(soc.clone(), app.clone());

    // Warm both arms once (page/allocator effects), then time.
    let bt = BetterTogether::with_backend(cur_backend.clone());
    pre_pr_fig2_loop(&soc, &app);
    bt.run().expect("warms");

    let mut pre_pr_ms = f64::INFINITY;
    let mut current_ms = f64::INFINITY;
    let mut current = None;
    for _ in 0..fig2_batches {
        let t0 = Instant::now();
        for _ in 0..fig2_reps {
            std::hint::black_box(pre_pr_fig2_loop(&soc, &app));
        }
        pre_pr_ms = pre_pr_ms.min(ms(t0) / f64::from(fig2_reps));

        let t0 = Instant::now();
        for _ in 0..fig2_reps {
            current = Some(bt.run().expect("current loop runs"));
        }
        current_ms = current_ms.min(ms(t0) / f64::from(fig2_reps));
    }

    // Byte-identical check: same defaults, parallel hint on vs forced
    // serial. Debug formatting covers every field of the Deployment.
    let serial = BetterTogether::with_backend(cur_backend.clone().with_parallel(false))
        .run()
        .expect("serial loop runs");
    let identical = format!("{:?}", current.expect("ran")) == format!("{serial:?}");
    let fig2 = Fig2Loop {
        pre_pr_ms,
        current_ms,
        speedup: pre_pr_ms / current_ms,
        deployment_byte_identical: identical,
    };
    println!(
        "Fig. 2 loop:  pre-PR {pre_pr_ms:9.2} ms   current {current_ms:9.2} ms   \
         speedup {:.2}x   byte-identical: {identical}",
        fig2.speedup
    );

    // --- DES throughput: service cache off vs on. -----------------------
    let plan = BetterTogether::with_backend(cur_backend.clone())
        .plan()
        .expect("plan");
    let schedule = &plan.candidates[0].schedule;
    let tasks: u32 = if smoke { 300 } else { 3000 };
    let runs: u32 = if smoke { 3 } else { 20 };
    let des_arm = |cache: bool| {
        let cfg = RunConfig {
            tasks,
            service_cache: cache,
            ..RunConfig::default()
        };
        let t0 = Instant::now();
        for seed in 0..u64::from(runs) {
            simulate_schedule(
                &soc,
                &app,
                schedule,
                &RunConfig {
                    seed,
                    ..cfg.clone()
                },
                None,
            )
            .expect("simulates");
        }
        let secs = t0.elapsed().as_secs_f64();
        // Each task crosses each chunk once: one dispatch + one completion.
        let events = f64::from(runs)
            * f64::from(tasks + RunConfig::default().warmup)
            * schedule.chunks().len() as f64
            * 2.0;
        events / secs
    };
    let off = des_arm(false);
    let on = des_arm(true);
    let des = DesThroughput {
        tasks_per_run: tasks,
        runs,
        events_per_sec_cache_off: off,
        events_per_sec_cache_on: on,
        speedup: on / off,
    };
    println!(
        "DES:          cache off {off:10.0} ev/s   cache on {on:10.0} ev/s   speedup {:.2}x",
        des.speedup
    );

    // --- Solver: 20 candidates, re-encode vs incremental. ---------------
    let k = if smoke { 8 } else { 20 };
    let table = BetterTogether::with_backend(cur_backend).profile();
    let problem = build_problem(&soc, &table).expect("valid problem");
    let t0 = Instant::now();
    let old = reencode_candidates(&problem, k);
    let reencode_ms = ms(t0);
    let t0 = Instant::now();
    let new = problem.latency_candidates(k);
    let incremental_ms = ms(t0);
    assert_eq!(old.len(), new.len(), "both arms enumerate the same count");
    let solver = SolverCandidates {
        candidates: k,
        reencode_ms,
        incremental_ms,
        speedup: reencode_ms / incremental_ms,
    };
    println!(
        "Solver ({k}):  re-encode {reencode_ms:8.2} ms   incremental {incremental_ms:8.2} ms   \
         speedup {:.2}x",
        solver.speedup
    );

    // --- Engines: CDCL vs chronological DPLL on large DAG encodings. ----
    // N = 9 stages is where the CEGAR loop's lazily-added constraints make
    // the chronological engine labor; clause learning must never lose and
    // must keep every solve interactive.
    let engine_stages = 9usize;
    let engine_count: u32 = if smoke { 2 } else { 6 };
    let instances = engine_instances(engine_stages, engine_count);
    let mut cdcl_ms = 0.0f64;
    let mut dpll_ms = 0.0f64;
    let mut max_cdcl_solve_ms = 0.0f64;
    for (lat, dag) in &instances {
        let cdcl = DagProblem::new(lat.clone(), dag.clone()).expect("valid instance");
        let dpll = DagProblem::new(lat.clone(), dag.clone())
            .expect("valid instance")
            .with_engine(Engine::Dpll);
        let t0 = Instant::now();
        let rc = cdcl.min_latency(&[]).map(|(t, _)| t);
        let solve = ms(t0);
        cdcl_ms += solve;
        max_cdcl_solve_ms = max_cdcl_solve_ms.max(solve);
        let t1 = Instant::now();
        let rd = dpll.min_latency(&[]).map(|(t, _)| t);
        dpll_ms += ms(t1);
        match (rc, rd) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "optima differ: {a} vs {b}"),
            (None, None) => {}
            (a, b) => panic!("engine verdicts differ: cdcl {a:?} vs dpll {b:?}"),
        }
    }
    let solver_engines = SolverEngines {
        stages: engine_stages,
        instances: engine_count,
        cdcl_ms,
        dpll_ms,
        speedup: dpll_ms / cdcl_ms,
        max_cdcl_solve_ms,
    };
    println!(
        "Engines:      CDCL {cdcl_ms:8.2} ms   DPLL {dpll_ms:8.2} ms   speedup {:.2}x   \
         worst CDCL solve {max_cdcl_solve_ms:.2} ms",
        solver_engines.speedup
    );

    // --- Multi-tenant co-run rows. --------------------------------------
    let (mt_tasks, steal_tasks) = if smoke { (50, 500) } else { (200, 5000) };
    let mt = bt_bench::mt::run_mt_bench(mt_tasks, steal_tasks);
    println!(
        "Multi-tenant: co-run {:9.0} µs   sliced {:9.0} µs   speedup {:.2}x   \
         steal path {:.2} µs/task",
        mt.co_run_makespan_us,
        mt.time_sliced_makespan_us,
        mt.co_run_speedup,
        mt.steal_overhead_us_per_task
    );

    // --- Fork/join rows on the branching perception app. ----------------
    let dag = dag_branching_rows(if smoke { 5 } else { 10 });
    println!(
        "DAG:          dag-aware {:9.0} µs   linearized {:9.0} µs   speedup {:.2}x   \
         replication {:.2}x",
        dag.dag_aware_us, dag.best_linearized_us, dag.speedup, dag.replication_speedup
    );

    // --- MCU edge row: sensor app on the mcu_m7 device. -----------------
    let mcu = mcu_edge_row();
    println!(
        "MCU edge:     best {} {:9.0} µs   all-on-M7 {:9.0} µs   speedup {:.2}x   \
         ({} classes)",
        mcu.best_schedule, mcu.best_us, mcu.m7_baseline_us, mcu.speedup_over_m7, mcu.classes_used
    );

    let meets = fig2.speedup >= 2.0;
    println!(
        "\nFig. 2 loop >= 2x over pre-PR path: {}",
        if meets { "met" } else { "NOT met" }
    );

    let fig2_speedup = fig2.speedup;
    let mt_speedup = mt.co_run_speedup;
    let dag_speedup = dag.speedup;
    let replication_speedup = dag.replication_speedup;
    let engines_speedup = solver_engines.speedup;
    let engines_worst_ms = solver_engines.max_cdcl_solve_ms;
    let mcu_speedup = mcu.speedup_over_m7;
    let mcu_classes = mcu.classes_used;
    bt_bench::write_root_result(
        "BENCH_eval",
        &BenchEval {
            device: "pixel_7a",
            app: "alexnet_sparse",
            smoke,
            fig2_loop: fig2,
            des,
            solver,
            solver_engines,
            mt,
            dag,
            mcu,
            meets_2x_fig2: meets,
        },
    );

    if gate {
        const GATE_FLOOR: f64 = 1.8;
        match baseline_speedup {
            Some(b) => println!(
                "gate: Fig. 2 loop speedup {fig2_speedup:.2}x vs committed baseline {b:.2}x \
                 ({:+.1}%)",
                (fig2_speedup / b - 1.0) * 100.0
            ),
            None => println!("gate: no committed baseline found (first run?)"),
        }
        if fig2_speedup < GATE_FLOOR {
            eprintln!(
                "gate: FAIL — Fig. 2 loop speedup {fig2_speedup:.2}x is below the \
                 {GATE_FLOOR}x regression floor"
            );
            std::process::exit(1);
        }
        // The multi-tenant arm is virtual-time, hence deterministic: a
        // co-run that stops beating time-slicing is a real regression in
        // the co-scheduling model, not runner noise.
        if mt_speedup <= 1.0 {
            eprintln!(
                "gate: FAIL — multi-tenant co-run speedup {mt_speedup:.2}x does not beat \
                 time-slicing"
            );
            std::process::exit(1);
        }
        // Likewise deterministic: the DAG-aware schedule must beat the
        // best linearized one, and replicating the measured bottleneck
        // must beat the best non-replicated schedule.
        if dag_speedup <= 1.0 {
            eprintln!(
                "gate: FAIL — DAG-aware schedule speedup {dag_speedup:.2}x does not beat \
                 the best linearized schedule"
            );
            std::process::exit(1);
        }
        if replication_speedup <= 1.0 {
            eprintln!(
                "gate: FAIL — bottleneck replication speedup {replication_speedup:.2}x does \
                 not beat the best non-replicated schedule"
            );
            std::process::exit(1);
        }
        // Solver-engine row: the clause-learning engine must never lose to
        // the chronological DPLL it replaced, and on the full (non-smoke)
        // instance set every N=9 solve must land under the 50 ms budget.
        if engines_speedup < 1.0 {
            eprintln!("gate: FAIL — CDCL is slower than DPLL ({engines_speedup:.2}x aggregate)");
            std::process::exit(1);
        }
        // MCU edge row, also virtual-time: on the mcu_m7 device the
        // interference-aware pipeline must beat the naive all-on-M7
        // firmware loop, and the winning schedule must actually be
        // heterogeneous (otherwise the backend degenerated to the
        // baseline it claims to beat).
        if mcu_speedup <= 1.0 {
            eprintln!(
                "gate: FAIL — MCU edge speedup {mcu_speedup:.2}x does not beat the \
                 all-on-M7 firmware baseline"
            );
            std::process::exit(1);
        }
        if mcu_classes < 2 {
            eprintln!(
                "gate: FAIL — MCU edge schedule uses {mcu_classes} PU class(es); the \
                 winning schedule must span more than one"
            );
            std::process::exit(1);
        }
        const CDCL_BUDGET_MS: f64 = 50.0;
        if !smoke && engines_worst_ms >= CDCL_BUDGET_MS {
            eprintln!(
                "gate: FAIL — worst CDCL solve {engines_worst_ms:.1} ms exceeds the \
                 {CDCL_BUDGET_MS} ms budget"
            );
            std::process::exit(1);
        }
        println!(
            "gate: pass (fig2 {fig2_speedup:.2}x >= {GATE_FLOOR}x, co-run {mt_speedup:.2}x > 1x, \
             dag {dag_speedup:.2}x > 1x, replication {replication_speedup:.2}x > 1x, \
             cdcl {engines_speedup:.2}x dpll / \
             worst {engines_worst_ms:.1} ms, mcu {mcu_speedup:.2}x > 1x)"
        );
    }
}
