//! Nightly fault-matrix harness: random fault plans against one
//! (device, app) cell, checking the simulator's resilience invariants.
//!
//! For every seed the harness generates a [`FaultPlan`], runs both the
//! static pipeline simulator and the dynamic scheduler under it, and
//! checks:
//!
//! 1. **Termination** — the run returns instead of deadlocking (enforced
//!    by reaching the assertions at all).
//! 2. **Conservation** — `completed + dropped == submitted`.
//! 3. **Determinism** — replaying the same plan yields a bit-identical
//!    outcome (`Debug`-representation equality).
//!
//! Chain-shaped cells price the static runs of every seed in one
//! `simulate_schedule_batch` call (one lane per fault plan) plus a second
//! call for the replay, instead of two calls per seed.
//!
//! A violated invariant writes the failing plan to `--out` as JSON (the
//! CI workflow uploads these as artifacts for local replay) and flips the
//! exit code to 1 after the sweep completes.
//!
//! ```text
//! fault_matrix --device pixel_7a --app octree --seeds 10 --out target/fault-matrix
//! ```

use std::path::PathBuf;

use bt_core::{optimize_dag, BetterTogether, OptimizerConfig};
use bt_faults::{FaultDomain, FaultPlan};
use bt_kernels::{apps, AppModel};
use bt_pipeline::{
    simulate_dag_schedule, simulate_schedule, simulate_schedule_batch, DagSchedule, Schedule,
};
use bt_soc::des_dynamic::{simulate_dynamic_dag, DynamicPolicy};
use bt_soc::{devices, DesSeedSpec, RunConfig, RunReport, SocError, SocSpec};

#[derive(serde::Serialize)]
struct Failure {
    device: String,
    app: String,
    seed: u64,
    invariant: String,
    detail: String,
    plan: FaultPlan,
}

fn device_by_name(name: &str) -> Option<SocSpec> {
    match name {
        "pixel_7a" => Some(devices::pixel_7a()),
        "oneplus_11" => Some(devices::oneplus_11()),
        "jetson_orin_nano" => Some(devices::jetson_orin_nano()),
        "jetson_orin_nano_lp" => Some(devices::jetson_orin_nano_lp()),
        _ => None,
    }
}

fn app_by_name(name: &str) -> Option<AppModel> {
    match name {
        "octree" => Some(apps::octree_app(apps::OctreeConfig::default()).model()),
        "alexnet_dense" => Some(apps::alexnet_dense_app(apps::AlexNetConfig::default()).model()),
        "alexnet_sparse" => Some(apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model()),
        "perception" => Some(apps::perception_app(apps::PerceptionConfig::default()).model()),
        _ => None,
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The static pipeline under test: a chain schedule through the chain
/// engine, or — for branching apps — a fork/join schedule through the DAG
/// engine.
enum StaticPipeline {
    Chain(Schedule),
    Dag(DagSchedule),
}

impl StaticPipeline {
    fn chunk_count(&self) -> usize {
        match self {
            StaticPipeline::Chain(s) => s.chunks().len(),
            StaticPipeline::Dag(s) => s.chunks().len(),
        }
    }
}

struct Cell {
    soc: SocSpec,
    app: AppModel,
    pipeline: StaticPipeline,
    cfg: RunConfig,
    domain: FaultDomain,
}

impl Cell {
    fn run_static(
        &self,
        faults: Option<&bt_soc::FaultSpec>,
    ) -> Result<RunReport, bt_pipeline::PipelineError> {
        match &self.pipeline {
            StaticPipeline::Chain(s) => {
                simulate_schedule(&self.soc, &self.app, s, &self.cfg, faults)
            }
            StaticPipeline::Dag(s) => {
                simulate_dag_schedule(&self.soc, &self.app, s, &self.cfg, faults)
            }
        }
    }

    fn run_dynamic(
        &self,
        policy: DynamicPolicy,
        faults: Option<&bt_soc::FaultSpec>,
    ) -> Result<RunReport, SocError> {
        let works = self.app.works();
        let graph = self.app.task_graph();
        simulate_dynamic_dag(&self.soc, &works, graph.deps(), &self.cfg, policy, faults)
    }
}

fn build_cell(device: &str, app_name: &str) -> Result<Cell, String> {
    let soc = device_by_name(device).ok_or_else(|| format!("unknown device '{device}'"))?;
    let app = app_by_name(app_name).ok_or_else(|| format!("unknown app '{app_name}'"))?;
    // Chain apps go through the proven chain planner; branching apps take
    // the DAG optimizer's predicted best so the sweep exercises the
    // fork/join engine.
    let pipeline = if app.task_graph().is_chain() {
        let plan = BetterTogether::new(soc.clone(), app.clone())
            .plan()
            .map_err(|e| format!("planning failed: {e}"))?;
        StaticPipeline::Chain(
            plan.predicted_best()
                .ok_or("empty candidate list")?
                .schedule
                .clone(),
        )
    } else {
        let table = BetterTogether::new(soc.clone(), app.clone()).profile();
        let cands = optimize_dag(
            &soc,
            &table,
            &app.task_graph(),
            &OptimizerConfig::with_threshold(0.0),
        )
        .map_err(|e| format!("DAG planning failed: {e}"))?;
        StaticPipeline::Dag(cands[0].schedule.clone())
    };
    let cfg = RunConfig::default();
    // Size the fault domain from an unfaulted reference run so onsets land
    // inside (and shortly after) the real execution window.
    let cell = Cell {
        soc,
        app,
        pipeline,
        cfg,
        domain: FaultDomain::default(),
    };
    let reference = cell
        .run_static(None)
        .map_err(|e| format!("reference run failed: {e}"))?;
    let domain = FaultDomain {
        classes: cell.soc.schedulable_classes(),
        chunks: cell.pipeline.chunk_count(),
        stages: cell.app.stage_count(),
        tasks: cell.cfg.tasks + cell.cfg.warmup,
        horizon_us: reference.expect_stats().makespan.as_f64() * 1.5,
        ..FaultDomain::default()
    };
    Ok(Cell { domain, ..cell })
}

/// The static runs of every seed, one lane each: the first pass and a
/// bit-identical replay pass.
struct StaticBatch {
    first: Vec<RunReport>,
    replay: Vec<RunReport>,
}

/// Prices the static arm of all `seeds` as lanes of one call (chain cells
/// only — lanes are runs of a chain schedule).
fn run_static_batch(cell: &Cell, seeds: u64) -> Option<Result<StaticBatch, String>> {
    let StaticPipeline::Chain(schedule) = &cell.pipeline else {
        return None;
    };
    let lanes: Vec<DesSeedSpec> = (0..seeds)
        .map(|seed| DesSeedSpec {
            seed: cell.cfg.seed,
            faults: Some(FaultPlan::random(seed, &cell.domain).to_spec()),
        })
        .collect();
    let batch = || {
        simulate_schedule_batch(&cell.soc, &cell.app, schedule, &cell.cfg, &lanes)
            .map_err(|e| format!("batched static pass failed: {e}"))
    };
    Some(batch().and_then(|first| {
        let replay = batch()?;
        Ok(StaticBatch { first, replay })
    }))
}

fn check_static(a: &RunReport, replay: &RunReport) -> Result<(), (String, String)> {
    if a.completed + a.dropped != a.submitted {
        return Err((
            "static-conservation".into(),
            format!(
                "completed {} + dropped {} != submitted {}",
                a.completed, a.dropped, a.submitted
            ),
        ));
    }
    if format!("{a:?}") != format!("{replay:?}") {
        return Err(("static-determinism".into(), "replay diverged".into()));
    }
    Ok(())
}

fn check_seed(cell: &Cell, seed: u64, batch: Option<&StaticBatch>) -> Result<(), (String, String)> {
    let plan = FaultPlan::random(seed, &cell.domain);
    let spec = plan.to_spec();

    match batch {
        Some(b) => {
            let i = seed as usize;
            check_static(&b.first[i], &b.replay[i])?;
        }
        None => {
            let a = cell
                .run_static(Some(&spec))
                .map_err(|e| ("static-run".into(), e.to_string()))?;
            let b = cell
                .run_static(Some(&spec))
                .map_err(|e| ("static-run".into(), e.to_string()))?;
            check_static(&a, &b)?;
        }
    }

    for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
        let run_dyn = || cell.run_dynamic(policy, Some(&spec));
        let a = run_dyn().map_err(|e| ("dynamic-run".into(), e.to_string()))?;
        let b = run_dyn().map_err(|e| ("dynamic-run".into(), e.to_string()))?;
        if a.completed + a.dropped != a.submitted {
            return Err((
                format!("dynamic-conservation-{policy:?}"),
                format!(
                    "completed {} + dropped {} != submitted {}",
                    a.completed, a.dropped, a.submitted
                ),
            ));
        }
        if format!("{a:?}") != format!("{b:?}") {
            return Err((
                format!("dynamic-determinism-{policy:?}"),
                "replay diverged".into(),
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let device = arg_value(&args, "--device").unwrap_or_else(|| "pixel_7a".into());
    let app_name = arg_value(&args, "--app").unwrap_or_else(|| "octree".into());
    let seeds: u64 = arg_value(&args, "--seeds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let out: PathBuf = arg_value(&args, "--out")
        .unwrap_or_else(|| "target/fault-matrix".into())
        .into();

    let cell = match build_cell(&device, &app_name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fault_matrix: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&out).expect("create output directory");

    let static_batch = run_static_batch(&cell, seeds).map(|batch| {
        batch.unwrap_or_else(|e| {
            eprintln!("fault_matrix: {e}");
            std::process::exit(2);
        })
    });

    let mut failures = 0u32;
    for seed in 0..seeds {
        match check_seed(&cell, seed, static_batch.as_ref()) {
            Ok(()) => println!("ok   {device}/{app_name} seed {seed}"),
            Err((invariant, detail)) => {
                failures += 1;
                println!("FAIL {device}/{app_name} seed {seed}: {invariant}: {detail}");
                let failure = Failure {
                    device: device.clone(),
                    app: app_name.clone(),
                    seed,
                    invariant,
                    detail,
                    plan: FaultPlan::random(seed, &cell.domain),
                };
                let path = out.join(format!("fault-{device}-{app_name}-seed{seed}.json"));
                let json = serde_json::to_string_pretty(&failure).expect("serializable failure");
                std::fs::write(&path, json).expect("write failing plan");
                eprintln!("     failing plan written to {}", path.display());
            }
        }
    }
    println!(
        "fault_matrix: {device}/{app_name}: {}/{seeds} seeds passed",
        seeds - u64::from(failures)
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
