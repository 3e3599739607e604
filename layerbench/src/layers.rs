//! Every call the benchmark makes into a `bt-*` crate lives in this file.
//!
//! The adapters here are thin and untimed by themselves: they turn plain
//! harness data (seeds, counts, indices) into one public call of a layer,
//! optionally wrapped in a harness-side span, and hand back plain data
//! (counts, bit-exact floats, digests). The workloads, the probes and the
//! reports never name a `bt-*` item, so when an entry point is renamed or
//! two engines are merged, this is the one file a follow-up edits.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bt_core::{
    autotune, measure_baselines, optimize_dag, optimize_replicated, optimize_with, BetterTogether,
    BtError, CoTenant, Deployment, ExecutionBackend, HostBackend, McuBackend, OptimizerConfig,
    Plan, SimBackend, SolverEngine,
};
use bt_kernels::{apps, AppModel, Application, KernelFn, ParCtx, Stage, TaskGraph};
use bt_pipeline::{
    run_host, run_host_dag, run_multi_host, simulate_baseline, simulate_dag_schedule,
    simulate_schedule, simulate_schedule_batch, to_chunk_specs, DagSchedule, Measurement,
    PuThreads, Schedule, Tenant, TenantSet, WorkerBudget,
};
use bt_profiler::host::{profile_host, HostClasses, HostProfilerConfig};
use bt_profiler::{ProfileMode, ProfilingTable};
use bt_rt::spsc::{self, StaticRing};
use bt_serve::{
    CountingAlloc, PlanArtifact, PlanCache, PlanKey, PlanObjective, PlanRequest, PlanService,
    ServeConfig, ServedFrom,
};
use bt_soc::des_dynamic::{simulate_dynamic, DynamicPolicy};
use bt_soc::power::{energy_of_window, PowerModel};
use bt_soc::{
    devices, json_hash, simulate_multi, DesSeedSpec, FaultSpec, PuClass, PuLoss, RunConfig,
    RunReport, SocSpec, Straggler, TenantSpec, WorkProfile,
};
use bt_solver::enumerate::for_each_schedule;
use bt_solver::{DagProblem, StageDag};
use bt_telemetry::TelemetryConfig;

use crate::gen::{digest_str, Fnv};
use crate::trace::{span, Layer, Tracer};

/// The allocator type `main.rs` installs as `#[global_allocator]`.
pub type Alloc = CountingAlloc;

/// The global allocator instance.
pub const fn alloc() -> Alloc {
    CountingAlloc::new()
}

/// Heap allocations (and reallocations) since process start, all threads.
pub fn allocations() -> u64 {
    CountingAlloc::allocations()
}

/// Worker threads the fan-out paths of the layers will use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ---------------------------------------------------------------------
// bt-kernels: applications and their models
// ---------------------------------------------------------------------

/// The five application models every planning and simulation op draws on.
#[derive(Debug, Clone)]
pub struct Models {
    dense: AppModel,
    sparse: AppModel,
    octree: AppModel,
    perception: AppModel,
    sensor: AppModel,
}

/// Builds the five apps and extracts their models (`kernels.build_ms`).
/// Construction costs several Fig. 2 loops, so it belongs to set-up and
/// never to a timed loop.
pub fn build_models() -> Models {
    Models {
        dense: apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
        sparse: apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
        octree: apps::octree_app(apps::OctreeConfig::default()).model(),
        perception: apps::perception_app(apps::PerceptionConfig::default()).model(),
        sensor: apps::sensor_app(apps::SensorConfig::default()).model(),
    }
}

fn paper_apps(m: &Models) -> [(&'static str, &AppModel); 3] {
    [
        ("dense", &m.dense),
        ("sparse", &m.sparse),
        ("octree", &m.octree),
    ]
}

fn paper_devices() -> Vec<(&'static str, SocSpec)> {
    vec![
        ("pixel_7a", devices::pixel_7a()),
        ("oneplus_11", devices::oneplus_11()),
        ("jetson_orin_nano", devices::jetson_orin_nano()),
        ("jetson_orin_nano_lp", devices::jetson_orin_nano_lp()),
    ]
}

// ---------------------------------------------------------------------
// bt-core: the Fig. 2 planning loop
// ---------------------------------------------------------------------

/// Delegating backend that reports every measurement the optimizer asks
/// for as a span — how the harness sees inside `autotune` and
/// `measure_baselines` without touching them.
struct Traced<'a, B> {
    inner: &'a B,
    tracer: &'a Tracer,
}

impl<B: ExecutionBackend> ExecutionBackend for Traced<'_, B> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn parallel_measure_hint(&self) -> bool {
        self.inner.parallel_measure_hint()
    }
    fn stage_count(&self) -> usize {
        self.inner.stage_count()
    }
    fn classes(&self) -> Vec<PuClass> {
        self.inner.classes()
    }
    fn schedulable(&self, class: PuClass) -> bool {
        self.inner.schedulable(class)
    }
    fn baseline_classes(&self) -> Vec<PuClass> {
        self.inner.baseline_classes()
    }
    fn profile(&self, mode: ProfileMode) -> ProfilingTable {
        self.tracer.span("backend.profile", Layer::Profiler, || {
            self.inner.profile(mode)
        })
    }
    fn measure(&self, schedule: &Schedule, run_index: u64) -> Result<Measurement, BtError> {
        self.tracer.span("backend.measure", Layer::Soc, || {
            self.inner.measure(schedule, run_index)
        })
    }
    fn measure_batch(
        &self,
        schedule: &Schedule,
        run_indices: &[u64],
    ) -> Result<Vec<Measurement>, BtError> {
        self.tracer.span("backend.measure_batch", Layer::Soc, || {
            self.inner.measure_batch(schedule, run_indices)
        })
    }
    fn measure_dag(&self, schedule: &DagSchedule, run_index: u64) -> Result<Measurement, BtError> {
        self.tracer.span("backend.measure_dag", Layer::Soc, || {
            self.inner.measure_dag(schedule, run_index)
        })
    }
    fn measure_baseline(&self, class: PuClass) -> Result<Measurement, BtError> {
        self.tracer
            .span("backend.measure_baseline", Layer::Soc, || {
                self.inner.measure_baseline(class)
            })
    }
    fn measure_multi(&self, tenants: &[CoTenant]) -> Result<Vec<Measurement>, BtError> {
        self.inner.measure_multi(tenants)
    }
}

/// `BetterTogether::run()` re-expressed from its public steps, each under
/// a span: `backend.profile` → `optimize_with` → `autotune` →
/// `measure_baselines`. Must produce a `Deployment` debug-equal to
/// `run()`'s — the traced `plan_fleet` run checks that on every op.
///
/// `optimize_with` is booked to the solver: it is a thin bt-core driver
/// over bt-solver's enumerators, which do all of its work.
fn staged_run<B: ExecutionBackend>(
    bt: &BetterTogether<B>,
    tracer: &Tracer,
) -> Result<Deployment, BtError> {
    let backend = Traced {
        inner: bt.backend(),
        tracer,
    };
    let table = backend.profile(bt.config().profile_mode);
    let candidates = tracer.span("core.optimize_with", Layer::Solver, || {
        optimize_with(&table, &bt.config().optimizer, |c| backend.schedulable(c))
    })?;
    let plan = Plan { table, candidates };
    plan.validate(&backend)?;
    let outcome = tracer.span("core.autotune", Layer::Core, || {
        autotune(&backend, &plan.candidates)
    })?;
    let baselines = tracer.span("core.measure_baselines", Layer::Core, || {
        measure_baselines(&backend)
    })?;
    Ok(Deployment {
        plan,
        outcome,
        baselines,
    })
}

enum FleetKind {
    Sim(BetterTogether<SimBackend>),
    Mcu(BetterTogether<McuBackend>),
}

/// One (device, app) cell of the planning fleet.
pub struct FleetCell {
    pub label: String,
    /// `dense`, `sparse`, `octree` or `sensor`.
    pub app: &'static str,
    /// One of the 12 paper cells (the MCU cell is not).
    pub paper: bool,
    kind: FleetKind,
}

/// The 12 paper cells (4 devices × dense/sparse/octree, `SimBackend`) plus
/// `McuBackend` × sensor, every one with the default configuration.
pub fn fleet_cells(m: &Models) -> Vec<FleetCell> {
    let mut cells = Vec::new();
    for (dev, soc) in paper_devices() {
        for (app, model) in paper_apps(m) {
            cells.push(FleetCell {
                label: format!("{dev}/{app}"),
                app,
                paper: true,
                kind: FleetKind::Sim(BetterTogether::new(soc.clone(), model.clone())),
            });
        }
    }
    cells.push(FleetCell {
        label: "mcu_m7/sensor".into(),
        app: "sensor",
        paper: false,
        kind: FleetKind::Mcu(BetterTogether::with_backend(McuBackend::new(
            devices::mcu_m7(),
            m.sensor.clone(),
        ))),
    });
    cells
}

/// The result of one planning loop, opaque to the harness.
pub struct Planned(Deployment);

impl FleetCell {
    /// One Fig. 2 loop: `run()` untraced, its staged re-expression traced.
    pub fn plan(&self, tracer: Option<&Tracer>) -> Result<Planned, String> {
        let out = match (&self.kind, tracer) {
            (FleetKind::Sim(bt), None) => bt.run(),
            (FleetKind::Mcu(bt), None) => bt.run(),
            (FleetKind::Sim(bt), Some(t)) => staged_run(bt, t),
            (FleetKind::Mcu(bt), Some(t)) => staged_run(bt, t),
        };
        out.map(Planned).map_err(|e| format!("{}: {e}", self.label))
    }
}

impl Planned {
    /// Digest of the `Deployment`'s debug rendering, which covers every
    /// field. Costs a sizeable fraction of a planning loop: never call it
    /// inside a timed region.
    pub fn digest(&self) -> u64 {
        digest_str(&format!("{:?}", self.0))
    }

    /// Virtual-time speedup of the measured-best schedule over the best
    /// homogeneous baseline (Fig. 4's metric).
    pub fn speedup(&self) -> Option<f64> {
        self.0.speedup_over_best_baseline()
    }

    /// Cheap structural invariants, safe inside a timed loop.
    pub fn check(&self) -> Result<(), String> {
        let d = &self.0;
        let n = d.plan.candidates.len();
        if n == 0 || d.outcome.measured.len() != n || d.outcome.best_index >= n {
            return Err(format!(
                "inconsistent deployment: {n} candidates, {} measured, best {}",
                d.outcome.measured.len(),
                d.outcome.best_index
            ));
        }
        match (d.best_latency(), d.speedup_over_best_baseline()) {
            (Some(l), Some(s)) if l.as_f64() > 0.0 && s.is_finite() && s > 0.0 => Ok(()),
            other => Err(format!("unmeasured deployment: {other:?}")),
        }
    }
}

/// Probes of the planning loop's parts on one cell (Pixel 7a × sparse
/// AlexNet, the cell `BENCH_eval.json` tracked).
pub struct PlanProbe {
    bt: BetterTogether<SimBackend>,
    /// The same cell with the fan-outs forced serial (same `Deployment`,
    /// byte for byte), for counts that must repeat exactly.
    serial: BetterTogether<SimBackend>,
    table: ProfilingTable,
}

impl PlanProbe {
    pub fn new(m: &Models) -> PlanProbe {
        let bt = BetterTogether::new(devices::pixel_7a(), m.sparse.clone());
        let serial = BetterTogether::with_backend(
            SimBackend::new(devices::pixel_7a(), m.sparse.clone()).with_parallel(false),
        );
        let table = bt.profile();
        PlanProbe { bt, serial, table }
    }

    /// `SimBackend::profile`, interference-heavy (`profiler.table_us`).
    pub fn profile(&self) -> usize {
        self.bt.profile().stages().len()
    }

    /// The whole loop (`core.fig2.pixel_sparse_ms`).
    pub fn fig2(&self) -> Result<(), String> {
        self.bt.run().map(drop).map_err(|e| e.to_string())
    }

    /// The whole loop on the serial path: thread spawns allocate a
    /// timing-dependent handful, the loop itself does not
    /// (`core.plan.allocs_per_loop`).
    pub fn fig2_serial(&self) -> Result<(), String> {
        self.serial.run().map(drop).map_err(|e| e.to_string())
    }

    /// The raw enumerator pass behind the exact engine: stream the space
    /// once keeping the best 20 latencies (`solver.exact.topk_us`).
    pub fn exact_topk(&self) -> Result<f64, String> {
        let soc = self.bt.soc();
        let problem =
            bt_core::build_problem(soc, &self.table).map_err(|e| format!("build_problem: {e}"))?;
        let mut top: Vec<f64> = Vec::with_capacity(21);
        for_each_schedule(&problem, |_, sums| {
            let t_max = sums.iter().cloned().fold(f64::MIN, f64::max);
            if top.len() < 20 || t_max < top[top.len() - 1] {
                let at = top.partition_point(|&t| t <= t_max);
                top.insert(at, t_max);
                top.truncate(20);
            }
        });
        top.first()
            .copied()
            .ok_or_else(|| "empty space".to_string())
    }

    /// One 30-task DES run of the predicted-best schedule
    /// (`soc.des.short_run_us`); returns its makespan bits.
    pub fn short_run(&self, schedule: &SimSchedule) -> Result<u64, String> {
        let r = simulate_schedule(
            self.bt.soc(),
            self.bt.app(),
            &schedule.0,
            &RunConfig::default(),
            None,
        )
        .map_err(|e| e.to_string())?;
        Ok(r.expect_stats().makespan.as_f64().to_bits())
    }

    /// One 30-task homogeneous-baseline run (`soc.baseline.short_run_us`).
    pub fn baseline_short_run(&self) -> Result<u64, String> {
        let r = simulate_baseline(
            self.bt.soc(),
            self.bt.app(),
            PuClass::BigCpu,
            &RunConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        Ok(r.expect_stats().makespan.as_f64().to_bits())
    }

    /// The predicted-best schedule of the cell.
    pub fn best_schedule(&self) -> Result<SimSchedule, String> {
        let plan = self.bt.plan().map_err(|e| e.to_string())?;
        Ok(SimSchedule(plan.candidates[0].schedule.clone()))
    }
}

/// A chain schedule, opaque to the harness.
#[derive(Clone)]
pub struct SimSchedule(Schedule);

// ---------------------------------------------------------------------
// bt-core + bt-solver: planning where constraint solving dominates
// ---------------------------------------------------------------------

fn sat_config() -> OptimizerConfig {
    OptimizerConfig {
        engine: SolverEngine::Sat,
        ..OptimizerConfig::default()
    }
}

fn schedulable_on(soc: &SocSpec) -> impl Fn(PuClass) -> bool + '_ {
    |c| soc.pu(c).map(|p| p.schedulable()).unwrap_or(false)
}

/// One chain cell prepared for the SAT engine: its profiled table and the
/// exact enumerator's optimum as the oracle.
pub struct ChainCell {
    pub label: String,
    soc: SocSpec,
    table: ProfilingTable,
    /// Predicted latency of the exact engine's best candidate.
    pub oracle_us: f64,
}

/// The paper cells of the last `devices` paper devices (all 4 → the 12
/// cells; fewer keeps the cheap two-class Jetsons for smoke runs),
/// profiled, with exact-engine oracles.
pub fn chain_cells(m: &Models, devices: usize) -> Result<Vec<ChainCell>, String> {
    let mut cells = Vec::new();
    let all = paper_devices();
    let skip = all.len().saturating_sub(devices);
    for (dev, soc) in all.into_iter().skip(skip) {
        for (app, model) in paper_apps(m) {
            let table =
                SimBackend::new(soc.clone(), model.clone()).profile(ProfileMode::InterferenceHeavy);
            let exact = optimize_with(&table, &OptimizerConfig::default(), schedulable_on(&soc))
                .map_err(|e| format!("{dev}/{app} exact: {e}"))?;
            cells.push(ChainCell {
                label: format!("{dev}/{app}"),
                oracle_us: exact[0].predicted.as_f64(),
                soc: soc.clone(),
                table,
            });
        }
    }
    Ok(cells)
}

impl ChainCell {
    /// `optimize_with` on the SAT engine, K = 20 blocking-clause rounds;
    /// returns the best candidate's predicted latency.
    pub fn sat_topk(&self, tracer: Option<&Tracer>) -> Result<f64, String> {
        let cands = span(tracer, "core.optimize_with[sat]", Layer::Solver, || {
            optimize_with(&self.table, &sat_config(), schedulable_on(&self.soc))
        })
        .map_err(|e| format!("{} sat: {e}", self.label))?;
        Ok(cands[0].predicted.as_f64())
    }

    /// The bare incremental enumerator, 20 candidates, no filter
    /// (`solver.sat.candidates_ms`).
    pub fn sat_candidates(&self) -> Result<usize, String> {
        let problem = bt_core::build_problem(&self.soc, &self.table).map_err(|e| e.to_string())?;
        Ok(problem.latency_candidates(20).len())
    }
}

/// The perception app on one device, prepared for the DAG optimizer.
pub struct DagCell {
    pub label: String,
    soc: SocSpec,
    app: AppModel,
    graph: TaskGraph,
    table: ProfilingTable,
    /// The CDCL engine's minimum latency over the same DAG problem.
    pub oracle_us: f64,
}

fn dag_config() -> OptimizerConfig {
    OptimizerConfig {
        candidates: 10,
        ..OptimizerConfig::with_threshold(0.0)
    }
}

/// Perception × the 4 paper devices.
pub fn dag_cells(m: &Models) -> Result<Vec<DagCell>, String> {
    let graph = m.perception.task_graph();
    paper_devices()
        .into_iter()
        .map(|(dev, soc)| {
            let table = SimBackend::new(soc.clone(), m.perception.clone())
                .profile(ProfileMode::InterferenceHeavy);
            let (oracle_us, _) = bt_core::build_dag_problem(&soc, &table, &graph)
                .map_err(|e| format!("{dev}/perception problem: {e}"))?
                .min_latency(&[])
                .ok_or_else(|| format!("{dev}/perception: CDCL found no schedule"))?;
            Ok(DagCell {
                label: format!("{dev}/perception"),
                oracle_us,
                soc,
                app: m.perception.clone(),
                graph: graph.clone(),
                table,
            })
        })
        .collect()
}

/// What one DAG planning op produced.
pub struct DagOutcome {
    /// Predicted latency of the exact engine's best DAG candidate.
    pub optimum_us: f64,
    /// Simulated run of that candidate.
    pub sim: SimSummary,
    /// Simulated run of the bottleneck-replicated plan; `None` on devices
    /// with too few exclusive classes to host a replica pair.
    pub replicated: Option<SimSummary>,
}

impl DagCell {
    /// `optimize_dag` (exact engine, K = 10, no utilization filter) →
    /// `optimize_replicated` on the best candidate's bottleneck stage →
    /// `simulate_dag_schedule` of both.
    pub fn plan(&self, tracer: Option<&Tracer>) -> Result<DagOutcome, String> {
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{} {what}: {e}", self.label);
        let cands = span(tracer, "core.optimize_dag", Layer::Solver, || {
            optimize_dag(&self.soc, &self.table, &self.graph, &dag_config())
        })
        .map_err(|e| err("optimize_dag", &e))?;
        let best = &cands[0];
        let (bottleneck, _) = best
            .chunk_sums
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite sums"))
            .expect("a candidate has chunks");
        let chunk = &best.schedule.chunks()[bottleneck];
        let stage = chunk
            .stages
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let lat = |s: usize| self.table.latency(s, chunk.pu).map(|m| m.as_f64());
                lat(a).partial_cmp(&lat(b)).expect("finite latencies")
            })
            .expect("a chunk has stages");
        let replicated = match span(tracer, "core.optimize_replicated", Layer::Solver, || {
            optimize_replicated(&self.soc, &self.table, &self.graph, stage)
        }) {
            Ok(plan) => Some(plan),
            Err(BtError::NoCandidates) => None,
            Err(e) => return Err(err("optimize_replicated", &e)),
        };
        let cfg = RunConfig::default();
        let sim = span(tracer, "pipeline.simulate_dag_schedule", Layer::Soc, || {
            simulate_dag_schedule(&self.soc, &self.app, &best.schedule, &cfg, None)
        })
        .map_err(|e| err("simulate", &e))?;
        let replicated = replicated
            .map(|plan| {
                span(tracer, "pipeline.simulate_dag_schedule", Layer::Soc, || {
                    simulate_dag_schedule(&self.soc, &self.app, &plan.schedule, &cfg, None)
                })
                .map(|r| SimSummary::of(&r))
                .map_err(|e| err("simulate replicated", &e))
            })
            .transpose()?;
        Ok(DagOutcome {
            optimum_us: best.predicted.as_f64(),
            sim: SimSummary::of(&sim),
            replicated,
        })
    }
}

/// One random fork/join instance for the CDCL engine, with the
/// exhaustive enumerator's optimum as the oracle.
pub struct CdclInstance {
    problem: DagProblem,
    pub oracle_us: Option<f64>,
}

impl CdclInstance {
    /// Builds the problem from a generated latency matrix (stage × class)
    /// and forward edge list, and solves it exhaustively for the oracle.
    pub fn new(lat: Vec<Vec<f64>>, deps: Vec<(usize, usize)>) -> Result<CdclInstance, String> {
        let dag = StageDag::new(lat.len(), deps).map_err(|e| format!("instance dag: {e:?}"))?;
        let problem = DagProblem::new(lat, dag).map_err(|e| format!("instance: {e:?}"))?;
        let oracle_us = problem.min_latency_exact().map(|(t, _)| t);
        Ok(CdclInstance { problem, oracle_us })
    }

    /// `DagProblem::min_latency` on the default (CDCL) engine.
    pub fn solve(&self, tracer: Option<&Tracer>) -> Option<f64> {
        span(tracer, "solver.dag.min_latency", Layer::Solver, || {
            self.problem.min_latency(&[]).map(|(t, _)| t)
        })
    }
}

// ---------------------------------------------------------------------
// bt-soc (through bt-pipeline's bridges): the discrete-event engines
// ---------------------------------------------------------------------

/// What the harness keeps of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    pub submitted: u64,
    pub completed: u64,
    pub dropped: u64,
    /// Bit pattern of the makespan in µs (0 when nothing completed).
    pub makespan_bits: u64,
}

impl SimSummary {
    fn of(r: &RunReport) -> SimSummary {
        SimSummary {
            submitted: r.submitted,
            completed: r.completed,
            dropped: r.dropped,
            makespan_bits: r
                .stats
                .as_ref()
                .map_or(0, |s| s.makespan.as_f64().to_bits()),
        }
    }

    /// The engine invariant every run must uphold.
    pub fn conserved(&self) -> bool {
        self.completed + self.dropped == self.submitted
    }
}

/// Long-stream inputs for every DES entry point: Pixel 7a throughout, the
/// sparse-AlexNet predicted-best chain schedule, a fork/join perception
/// schedule, and the three paper apps co-placed as tenants.
pub struct SimBench {
    soc: SocSpec,
    app: AppModel,
    schedule: Schedule,
    dag_app: AppModel,
    dag_schedule: DagSchedule,
    tenants: Vec<(AppModel, Schedule)>,
    faults: FaultSpec,
    pub tasks: u32,
}

impl SimBench {
    pub fn new(m: &Models, tasks: u32) -> Result<SimBench, String> {
        use PuClass::{BigCpu, Gpu, LittleCpu, MediumCpu};
        let soc = devices::pixel_7a();
        let schedule = BetterTogether::new(soc.clone(), m.sparse.clone())
            .plan()
            .map_err(|e| format!("sim_stream plan: {e}"))?
            .candidates[0]
            .schedule
            .clone();
        let dag_schedule = DagSchedule::new(
            vec![LittleCpu, Gpu, Gpu, BigCpu, BigCpu, MediumCpu, MediumCpu],
            &m.perception.task_graph(),
        )
        .map_err(|e| format!("perception schedule: {e:?}"))?;
        // Interference-aware co-placement: each tenant leans on a
        // different cluster mix (GPU trunk / big+medium split / mixed).
        let half = m.sparse.stage_count() / 2;
        let sparse_split: Vec<PuClass> = (0..m.sparse.stage_count())
            .map(|i| if i < half { BigCpu } else { MediumCpu })
            .collect();
        let tenants = vec![
            (
                m.dense.clone(),
                Schedule::homogeneous(m.dense.stage_count(), Gpu),
            ),
            (
                m.sparse.clone(),
                Schedule::new(sparse_split).map_err(|e| format!("{e:?}"))?,
            ),
            (
                m.octree.clone(),
                Schedule::new(vec![
                    BigCpu, BigCpu, MediumCpu, Gpu, Gpu, LittleCpu, LittleCpu,
                ])
                .map_err(|e| format!("{e:?}"))?,
            ),
        ];
        // A straggler early in the stream, and the class hosting the last
        // chunk lost two thirds of the way through the clean makespan, so
        // the faulted run prices both mechanisms and ends in drops.
        let clean = simulate_schedule(&soc, &m.sparse, &schedule, &Self::cfg(tasks, 0, true), None)
            .map_err(|e| e.to_string())?;
        let last = schedule.chunks()[schedule.chunks().len() - 1].pu;
        let faults = FaultSpec {
            stragglers: vec![Straggler {
                chunk: 0,
                task: (tasks / 10) as usize,
                factor: 8.0,
            }],
            losses: vec![PuLoss {
                class: last,
                at_us: clean.expect_stats().makespan.as_f64() * 2.0 / 3.0,
            }],
            ..FaultSpec::none()
        };
        Ok(SimBench {
            soc,
            app: m.sparse.clone(),
            schedule,
            dag_app: m.perception.clone(),
            dag_schedule,
            tenants,
            faults,
            tasks,
        })
    }

    fn cfg(tasks: u32, seed: u64, cache: bool) -> RunConfig {
        RunConfig {
            tasks,
            seed,
            service_cache: cache,
            ..RunConfig::default()
        }
    }

    /// Warm-up tasks every run adds to `tasks`.
    pub fn warmup(&self) -> u32 {
        RunConfig::default().warmup
    }

    /// Chunks of the chain schedule.
    pub fn chunks(&self) -> usize {
        self.schedule.chunks().len()
    }

    /// Stages of the chain app (the dynamic engine dispatches stages).
    pub fn stages(&self) -> usize {
        self.app.stage_count()
    }

    /// Chunks of the fork/join schedule.
    pub fn dag_chunks(&self) -> usize {
        self.dag_schedule.chunks().len()
    }

    /// Chunks across all co-run tenants.
    pub fn multi_chunks(&self) -> usize {
        self.tenants.iter().map(|(_, s)| s.chunks().len()).sum()
    }

    fn run(&self, cfg: &RunConfig, faults: Option<&FaultSpec>) -> Result<SimSummary, String> {
        simulate_schedule(&self.soc, &self.app, &self.schedule, cfg, faults)
            .map(|r| SimSummary::of(&r))
            .map_err(|e| e.to_string())
    }

    /// `simulate_schedule`, service cache on.
    pub fn scalar(&self, seed: u64, tracer: Option<&Tracer>) -> Result<SimSummary, String> {
        span(tracer, "pipeline.simulate_schedule", Layer::Soc, || {
            self.run(&Self::cfg(self.tasks, seed, true), None)
        })
    }

    /// `simulate_schedule`, service cache off.
    pub fn nocache(&self, seed: u64, tracer: Option<&Tracer>) -> Result<SimSummary, String> {
        span(
            tracer,
            "pipeline.simulate_schedule[nocache]",
            Layer::Soc,
            || self.run(&Self::cfg(self.tasks, seed, false), None),
        )
    }

    /// `simulate_schedule` under the straggler + PU-loss fault spec.
    pub fn faulted(&self, seed: u64, tracer: Option<&Tracer>) -> Result<SimSummary, String> {
        span(
            tracer,
            "pipeline.simulate_schedule[faulted]",
            Layer::Soc,
            || self.run(&Self::cfg(self.tasks, seed, true), Some(&self.faults)),
        )
    }

    /// `simulate_schedule` with full telemetry (for the overhead row).
    pub fn scalar_telemetry(&self, seed: u64) -> Result<SimSummary, String> {
        let cfg = RunConfig {
            telemetry: TelemetryConfig::full(),
            ..Self::cfg(self.tasks, seed, true)
        };
        self.run(&cfg, None)
    }

    /// `simulate_schedule_batch`: one lane per seed.
    pub fn batch(&self, seeds: &[u64], tracer: Option<&Tracer>) -> Result<Vec<SimSummary>, String> {
        let lanes: Vec<DesSeedSpec> = seeds.iter().map(|&s| DesSeedSpec::new(s)).collect();
        span(
            tracer,
            "pipeline.simulate_schedule_batch",
            Layer::Soc,
            || {
                simulate_schedule_batch(
                    &self.soc,
                    &self.app,
                    &self.schedule,
                    &Self::cfg(self.tasks, 0, true),
                    &lanes,
                )
            },
        )
        .map(|rs| rs.iter().map(SimSummary::of).collect())
        .map_err(|e| e.to_string())
    }

    /// `simulate_dynamic`, BestFit policy.
    pub fn dynamic(&self, seed: u64, tracer: Option<&Tracer>) -> Result<SimSummary, String> {
        let works: Vec<WorkProfile> = self.app.works();
        span(tracer, "soc.simulate_dynamic", Layer::Soc, || {
            simulate_dynamic(
                &self.soc,
                &works,
                &Self::cfg(self.tasks, seed, true),
                DynamicPolicy::BestFit,
                None,
            )
        })
        .map(|r| SimSummary::of(&r))
        .map_err(|e| e.to_string())
    }

    /// `simulate_dag_schedule` on the fork/join perception schedule.
    pub fn dag(&self, seed: u64, tracer: Option<&Tracer>) -> Result<SimSummary, String> {
        span(tracer, "pipeline.simulate_dag_schedule", Layer::Soc, || {
            simulate_dag_schedule(
                &self.soc,
                &self.dag_app,
                &self.dag_schedule,
                &Self::cfg(self.tasks, seed, true),
                None,
            )
        })
        .map(|r| SimSummary::of(&r))
        .map_err(|e| e.to_string())
    }

    /// `simulate_multi`: the three paper apps co-run; one summary per
    /// tenant.
    pub fn multi(&self, seed: u64, tracer: Option<&Tracer>) -> Result<Vec<SimSummary>, String> {
        let specs: Vec<TenantSpec> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, (app, schedule))| {
                Ok(TenantSpec::new(
                    app.name.clone(),
                    to_chunk_specs(app, schedule).map_err(|e| e.to_string())?,
                    Self::cfg(self.tasks, seed.wrapping_add(i as u64), true),
                ))
            })
            .collect::<Result<_, String>>()?;
        span(tracer, "soc.simulate_multi", Layer::Soc, || {
            simulate_multi(&self.soc, &specs, None)
        })
        .map(|r| r.tenants.iter().map(SimSummary::of).collect())
        .map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// bt-kernels + bt-pipeline + bt-rt: real kernels on the real runtime
// ---------------------------------------------------------------------

/// What the harness keeps of one host stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostRun {
    pub submitted: u64,
    pub completed: u64,
    pub dropped: u64,
    /// Sum over tasks of the output checksum the sink stage reported.
    pub checksum: u64,
}

/// A real application with a checksum tap on its sink stage, so the
/// harness can compare a pipelined run's outputs with the sequential run
/// of the same inputs without the executor handing payloads back.
pub struct HostStream<P> {
    app: Application<P>,
    sum: Arc<AtomicU64>,
}

fn rewrap<P: Send + 'static>(
    app: &Application<P>,
    wrap: impl Fn(usize, KernelFn<P>) -> KernelFn<P>,
) -> Application<P> {
    let stages = app
        .stages()
        .iter()
        .enumerate()
        .map(|(i, s)| Stage::new(s.name(), s.work().clone(), wrap(i, s.kernel())))
        .collect();
    Application::from_task_graph(app.name(), stages, app.graph(), app.factory(), app.source())
        .expect("an application's own graph is acyclic")
}

impl<P: Send + 'static> HostStream<P> {
    fn tapped(app: Application<P>, checksum: fn(&P) -> u64) -> HostStream<P> {
        let sum = Arc::new(AtomicU64::new(0));
        let sink = app.stage_count() - 1;
        let tap = Arc::clone(&sum);
        let app = rewrap(&app, |i, k| {
            if i != sink {
                return k;
            }
            let tap = Arc::clone(&tap);
            Arc::new(move |p: &mut P, ctx: &ParCtx| {
                k(p, ctx);
                tap.fetch_add(checksum(p), Ordering::Relaxed);
            })
        });
        HostStream { app, sum }
    }

    /// The same stream with every stage kernel reporting a span.
    pub fn traced(&self, tracer: &Arc<Tracer>) -> HostStream<P> {
        let app = rewrap(&self.app, |_, k| {
            let tracer = Arc::clone(tracer);
            Arc::new(move |p: &mut P, ctx: &ParCtx| {
                tracer.span("kernels.stage", Layer::Kernels, || k(p, ctx))
            })
        });
        HostStream {
            app,
            sum: Arc::clone(&self.sum),
        }
    }

    pub fn stages(&self) -> usize {
        self.app.stage_count()
    }

    /// `run_sequential` over inputs `0..n` on one payload: the reference
    /// checksum and the pure kernel time.
    pub fn sequential(&self, n: u64) -> u64 {
        self.sum.store(0, Ordering::Relaxed);
        let mut payload = self.app.new_payload();
        let ctx = ParCtx::serial();
        for seq in 0..n {
            self.app.run_sequential(&mut payload, seq, &ctx);
        }
        self.sum.load(Ordering::Relaxed)
    }

    fn split(&self, first_chunk_stages: usize) -> Result<Schedule, String> {
        let n = self.app.stage_count();
        let classes = (0..n)
            .map(|i| {
                if i < first_chunk_stages {
                    PuClass::BigCpu
                } else {
                    PuClass::MediumCpu
                }
            })
            .collect();
        Schedule::new(classes).map_err(|e| format!("{e:?}"))
    }

    fn host_cfg(tasks: u32, warmup: u32, telemetry: bool) -> RunConfig {
        RunConfig {
            tasks,
            warmup,
            telemetry: if telemetry {
                TelemetryConfig::full()
            } else {
                TelemetryConfig::OFF
            },
            ..RunConfig::default()
        }
    }

    fn summarize(&self, r: &RunReport) -> HostRun {
        HostRun {
            submitted: r.submitted,
            completed: r.completed,
            dropped: r.dropped,
            checksum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// `run_host`, fail-fast, one worker per chunk: the first
    /// `first_chunk_stages` stages form chunk 0 and the rest chunk 1
    /// (`first_chunk_stages == stages()` gives the 1-chunk run).
    pub fn run(
        &self,
        first_chunk_stages: usize,
        tasks: u32,
        warmup: u32,
        telemetry: bool,
        tracer: Option<&Tracer>,
    ) -> Result<HostRun, String> {
        let schedule = self.split(first_chunk_stages)?;
        self.sum.store(0, Ordering::Relaxed);
        let r = span(tracer, "pipeline.run_host", Layer::Pipeline, || {
            run_host(
                &self.app,
                &schedule,
                &PuThreads::uniform(1),
                &Self::host_cfg(tasks, warmup, telemetry),
                None,
            )
        })
        .map_err(|e| format!("run_host: {e:?}"))?;
        Ok(self.summarize(&r))
    }

    /// `run_multi_host`: this stream as the only tenant of a two-worker
    /// pool, two chunks.
    pub fn run_multi(
        &self,
        first_chunk_stages: usize,
        tasks: u32,
        warmup: u32,
        workers: usize,
    ) -> Result<HostRun, String> {
        let schedule = self.split(first_chunk_stages)?;
        let tenant = Tenant::new(
            "layerbench",
            &self.app,
            &schedule,
            Self::host_cfg(tasks, warmup, false),
        )
        .map_err(|e| format!("tenant: {e:?}"))?;
        let set = TenantSet::new().with(tenant);
        self.sum.store(0, Ordering::Relaxed);
        let reports = run_multi_host(&set, &WorkerBudget::new(workers))
            .map_err(|e| format!("run_multi_host: {e:?}"))?;
        Ok(self.summarize(&reports[0]))
    }

    /// `run_host_dag` with an explicit per-stage class assignment.
    pub fn run_dag(&self, classes: &[usize], tasks: u32, warmup: u32) -> Result<HostRun, String> {
        const PALETTE: [PuClass; 4] = [
            PuClass::BigCpu,
            PuClass::MediumCpu,
            PuClass::LittleCpu,
            PuClass::Gpu,
        ];
        let assignment = classes.iter().map(|&c| PALETTE[c]).collect();
        let schedule =
            DagSchedule::new(assignment, self.app.graph()).map_err(|e| format!("{e:?}"))?;
        self.sum.store(0, Ordering::Relaxed);
        let r = run_host_dag(
            &self.app,
            &schedule,
            &PuThreads::uniform(1),
            &Self::host_cfg(tasks, warmup, false),
            None,
        )
        .map_err(|e| format!("run_host_dag: {e:?}"))?;
        Ok(self.summarize(&r))
    }

    /// `profile_host`, isolated mode, two one-thread tiers; returns the
    /// number of table cells (`profiler.host_table_ms`).
    pub fn profile_host_table(&self) -> usize {
        let table = profile_host(
            &self.app,
            &Self::two_tiers(),
            ProfileMode::Isolated,
            &HostProfilerConfig { reps: 3, warmup: 1 },
        );
        table.stages().len() * table.classes().len()
    }

    fn two_tiers() -> HostClasses {
        HostClasses::new(vec![(PuClass::BigCpu, 1), (PuClass::MediumCpu, 1)])
    }
}

impl HostStream<apps::OctreeTask> {
    /// Predicted-vs-measured error of a `HostBackend` Fig. 2 loop on this
    /// stream, in percent (`core.host.pred_err_pct`): the paper's Fig. 5
    /// claim, on real execution. Consumes a fresh copy of the app.
    pub fn host_fig2_pred_err_pct(&self, tasks: u32) -> Result<f64, String> {
        let app = rewrap(&self.app, |_, k| k);
        let backend = HostBackend::with_classes(app, Self::two_tiers())
            .with_profiler(HostProfilerConfig { reps: 3, warmup: 1 })
            .with_run(Self::host_cfg(tasks, 2, false));
        let bt = BetterTogether::with_backend(backend).with_config(bt_core::BtConfig {
            profile_mode: ProfileMode::Isolated,
            optimizer: OptimizerConfig {
                candidates: 3,
                ..OptimizerConfig::with_threshold(0.0)
            },
        });
        let d = bt.run().map_err(|e| format!("host fig2: {e}"))?;
        let best = d.outcome.best_index;
        let predicted = d.plan.candidates[best].predicted.as_f64();
        let measured = d
            .best_latency()
            .ok_or_else(|| "host fig2 unmeasured".to_string())?
            .as_f64();
        Ok(100.0 * (predicted - measured).abs() / measured)
    }
}

/// The payload-typed streams of the `host_stream` workload.
pub type CoarseStream = HostStream<apps::OctreeTask>;
pub type FineStream = HostStream<apps::SensorTask>;

/// **Coarse** stream: the octree pipeline at `points` points (60 000 in
/// full runs), depth 6 — milliseconds per task: kernels dominate, the
/// runtime is noise.
pub fn octree_stream(seed: u64, points: usize) -> CoarseStream {
    let app = apps::octree_app(apps::OctreeConfig {
        points,
        max_depth: 6,
        seed,
        ..apps::OctreeConfig::default()
    });
    HostStream::tapped(app, |t| {
        t.octree.as_ref().map_or(0, |o| o.cell_count() as u64)
    })
}

/// **Fine** stream: the sensor pipeline at its default 4096-sample block
/// (≈ 80 µs/task: queue hops and dispatch are visible).
pub fn sensor_stream(seed: u64) -> FineStream {
    let app = apps::sensor_app(apps::SensorConfig {
        seed,
        ..apps::SensorConfig::default()
    });
    HostStream::tapped(app, |t| t.class as u64 + 1)
}

/// The fork/join perception pipeline (for `run_host_dag`).
pub fn perception_stream(seed: u64) -> HostStream<apps::PerceptionTask> {
    let app = apps::perception_app(apps::PerceptionConfig {
        seed,
        ..apps::PerceptionConfig::default()
    });
    HostStream::tapped(app, |t| {
        t.track
            .iter()
            .fold(Fnv::default(), |mut f, v| {
                f.u64(u64::from(v.to_bits()));
                f
            })
            .finish()
            >> 32
    })
}

/// Two no-op stages: every measured microsecond is runtime machinery.
pub fn noop_stream() -> HostStream<u64> {
    let noop: KernelFn<u64> = Arc::new(|_: &mut u64, _: &ParCtx| {});
    let stages = (0..2)
        .map(|i| {
            Stage::new(
                format!("s{i}"),
                WorkProfile::new(1.0, 1.0),
                Arc::clone(&noop),
            )
        })
        .collect();
    let app = Application::new(
        "noop",
        stages,
        Arc::new(|| 0u64),
        Arc::new(|t: &mut u64, seq| *t = seq),
    );
    HostStream::tapped(app, |&t| t + 1)
}

/// Pushes `n` values through a heap `spsc` ring between two threads;
/// returns the consumer's sum (must be `n(n-1)/2`).
pub fn spsc_cross_thread(n: u64) -> u64 {
    let (mut tx, mut rx) = spsc::channel::<u64>(64).expect("capacity is positive");
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in 0..n {
                let mut item = v;
                while let Err(back) = tx.push(item) {
                    item = back;
                    std::hint::spin_loop();
                }
            }
        });
        let mut sum = 0u64;
        for _ in 0..n {
            sum += rx.pop_blocking().expect("producer sends n items");
        }
        sum
    })
}

/// The same hop through a `StaticRing` (no heap, no `Arc`).
pub fn static_ring_cross_thread(n: u64) -> u64 {
    let ring: StaticRing<u64, 64> = StaticRing::new();
    let (mut tx, mut rx) = ring.split().expect("first split of a fresh ring");
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in 0..n {
                let mut item = v;
                while let Err(back) = tx.push(item) {
                    item = back;
                    std::hint::spin_loop();
                }
            }
        });
        let mut sum = 0u64;
        let mut got = 0;
        while got < n {
            match rx.pop() {
                Some(v) => {
                    sum += v;
                    got += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        sum
    })
}

/// `n` push+pop pairs on one thread: the uncontended cost of the ring.
pub fn spsc_same_thread(n: u64) -> u64 {
    let (mut tx, mut rx) = spsc::channel::<u64>(64).expect("capacity is positive");
    let mut sum = 0u64;
    for v in 0..n {
        tx.push(v).expect("ring never fills: one in flight");
        sum += rx.pop().expect("just pushed");
    }
    sum
}

// ---------------------------------------------------------------------
// bt-serve: the plan service
// ---------------------------------------------------------------------

/// One servable content: (device, app, scale, objective).
#[derive(Debug, Clone)]
struct Content {
    device: String,
    app: String,
    scale: f64,
    objective: PlanObjective,
}

/// A warmed `PlanService` over the builtin devices plus the `devices/`
/// registry, with every content's cold artifact kept for comparison.
pub struct ServeBench {
    service: PlanService,
    contents: Vec<Content>,
    warm: Vec<Arc<PlanArtifact>>,
    warm_json: Vec<String>,
    /// Time spent loading `devices/` (`serve.registry_load_ms`).
    pub registry_load_ms: f64,
    /// Time spent on the first solve of every content
    /// (`serve.warm_cells_ms`).
    pub warm_cells_ms: f64,
}

fn devices_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../devices")
}

/// What one fault-carrying or recovering request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdOutcome {
    /// The service reported `ServedFrom::ColdSolve`.
    pub cold: bool,
    /// The artifact's table signature differs from the warm one.
    pub resigned: bool,
}

impl ServeBench {
    /// Builds and warms the service. `small` shrinks the fleet to the
    /// builtin devices at one scale (for smoke runs).
    pub fn new(small: bool) -> Result<ServeBench, String> {
        let mut service = PlanService::builtin(ServeConfig::default());
        let t0 = Instant::now();
        if !small {
            service
                .load_devices(&devices_dir())
                .map_err(|e| format!("devices/: {e}"))?;
        }
        let registry_load_ms = t0.elapsed().as_secs_f64() * 1e3;
        let scales: &[f64] = if small { &[1.0] } else { &[1.0, 2.0] };
        let mut contents = Vec::new();
        for d in service.registry().entries() {
            for a in service.app_names() {
                for &scale in scales {
                    for objective in [PlanObjective::MinLatency, PlanObjective::MinEnergy] {
                        contents.push(Content {
                            device: d.name.clone(),
                            app: a.to_string(),
                            scale,
                            objective,
                        });
                    }
                }
            }
        }
        let mut bench = ServeBench {
            service,
            contents,
            warm: Vec::new(),
            warm_json: Vec::new(),
            registry_load_ms,
            warm_cells_ms: 0.0,
        };
        let t0 = Instant::now();
        for i in 0..bench.contents.len() {
            let resp = bench
                .service
                .serve(&bench.request(i, &[]))
                .map_err(|e| format!("warm {i}: {e}"))?;
            bench.warm.push(resp.artifact);
        }
        bench.warm_cells_ms = t0.elapsed().as_secs_f64() * 1e3;
        bench.warm_json = bench.warm.iter().map(|a| a.to_json()).collect();
        Ok(bench)
    }

    fn request<'a>(&'a self, i: usize, faults: &'a [(PuClass, f64)]) -> PlanRequest<'a> {
        let c = &self.contents[i];
        PlanRequest {
            device: &c.device,
            app: &c.app,
            input_scale: c.scale,
            fault_history: faults,
            objective: c.objective,
        }
    }

    /// Number of contents (requests index into `0..len()`).
    pub fn len(&self) -> usize {
        self.contents.len()
    }

    /// Devices × apps × scales × objectives, for the report.
    pub fn shape(&self) -> String {
        let devices = self.service.registry().entries().len();
        let apps = self.service.app_names().len();
        format!(
            "{devices} devices x {apps} apps x {} scales x 2 objectives",
            self.contents.len() / (devices * apps * 2)
        )
    }

    /// One fault-free request; `true` iff it was served from the cache
    /// with the very artifact the warm pass produced.
    #[inline]
    pub fn hit(&self, i: usize) -> bool {
        match self.service.serve(&self.request(i, &[])) {
            Ok(r) => r.from == ServedFrom::Cache && Arc::ptr_eq(&r.artifact, &self.warm[i]),
            Err(_) => false,
        }
    }

    /// A request carrying a `factor`× BigCpu slowdown history: the drift
    /// check invalidates the cell and the service re-solves.
    pub fn fault(&self, i: usize, factor: f64) -> Result<ColdOutcome, String> {
        self.off_cache(i, &[(PuClass::BigCpu, factor)])
    }

    /// The next request to that cell, carrying no history: the cell
    /// rescales back and the pristine plan is served again.
    pub fn recover(&self, i: usize) -> Result<ColdOutcome, String> {
        self.off_cache(i, &[])
    }

    fn off_cache(&self, i: usize, history: &[(PuClass, f64)]) -> Result<ColdOutcome, String> {
        let r = self
            .service
            .serve(&self.request(i, history))
            .map_err(|e| format!("request {i} with history {history:?}: {e}"))?;
        Ok(ColdOutcome {
            cold: r.from == ServedFrom::ColdSolve,
            resigned: r.artifact.table_sig != self.warm[i].table_sig,
        })
    }

    /// Cache-served `to_json()` byte-equal to the cold artifact's.
    pub fn json_matches(&self, i: usize) -> bool {
        match self.service.serve(&self.request(i, &[])) {
            Ok(r) => r.from == ServedFrom::Cache && r.artifact.to_json() == self.warm_json[i],
            Err(_) => false,
        }
    }

    /// Cache hits ÷ (hits + misses) since the service was built.
    pub fn hit_ratio(&self) -> f64 {
        let s = self.service.stats();
        s.hits as f64 / (s.hits + s.misses).max(1) as f64
    }

    /// `PlanKey::derive` ×`n` (`serve.key_derive_ns`); returns a fold of
    /// the keys so the loop cannot be elided.
    pub fn key_derive(&self, n: u64) -> u64 {
        let a = &self.warm[0];
        let mut acc = 0u64;
        for i in 0..n {
            let k = PlanKey::derive(
                std::hint::black_box(a.key_hi ^ i),
                a.key_lo,
                a.table_sig,
                a.objective.tag(),
            );
            acc ^= k.hi() ^ k.lo();
        }
        acc
    }

    /// `to_json` + `from_json` round trip of one artifact
    /// (`serve.artifact_json_us`); `true` iff it round-trips equal.
    pub fn artifact_json(&self, i: usize) -> bool {
        let json = self.warm[i].to_json();
        PlanArtifact::from_json(&json).is_ok_and(|b| b == *self.warm[i])
    }

    /// A fresh service answering a `dup`× duplicated burst of every
    /// content through `serve_batch` after its cells are profiled and its
    /// plans cleared — the `BENCH_serve.json` cold-burst protocol
    /// (`serve.batch_plans_per_s`). Returns (requests, seconds).
    pub fn batch_burst(&self, dup: usize) -> Result<(usize, f64), String> {
        let mut service = PlanService::builtin(ServeConfig::default());
        if self.contents.len() > 64 {
            service
                .load_devices(&devices_dir())
                .map_err(|e| format!("devices/: {e}"))?;
        }
        let burst: Vec<PlanRequest<'_>> = (0..self.contents.len())
            .flat_map(|i| std::iter::repeat_n(self.request(i, &[]), dup))
            .collect();
        service.serve_batch(&burst).map_err(|e| e.to_string())?;
        service.clear_plans();
        let t0 = Instant::now();
        let responses = service.serve_batch(&burst).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        if responses.len() != burst.len() {
            return Err("serve_batch dropped requests".into());
        }
        Ok((burst.len(), secs))
    }

    /// A cold solve re-priced from public primitives, each under a span:
    /// table rescale + signature, `PlanKey::derive`, `optimize_with`,
    /// batched DES evaluation of the top candidates, energy pricing,
    /// artifact build + `to_json` + cache insert. What a real cold
    /// `serve()` costs beyond the sum of these is bt-serve's own residual.
    pub fn repriced_cold(
        &self,
        m: &Models,
        i: usize,
        factor: f64,
        tracer: &Tracer,
    ) -> Result<(), String> {
        let cfg = ServeConfig::default();
        let c = &self.contents[i];
        let (_, entry) = self
            .service
            .registry()
            .get(&c.device)
            .ok_or_else(|| format!("unknown device {}", c.device))?;
        let soc = entry.spec.clone();
        let app = scaled_model(m, &c.app, c.scale)?;
        let backend = SimBackend::new(soc.clone(), app)
            .with_profiler(cfg.profiler.clone())
            .with_run(cfg.run.clone());
        // Profiling is cell set-up, not part of a drift-triggered solve.
        let base = backend.profile(ProfileMode::InterferenceHeavy);
        tracer.op("serve.cold[repriced]", || {
            let (table, sig) =
                tracer.span("profiler.scaled_class+json_hash", Layer::Profiler, || {
                    let t = base
                        .scaled_class(PuClass::BigCpu, factor)
                        .unwrap_or_else(|| base.clone());
                    let sig = json_hash(&t);
                    (t, sig)
                });
            let key = tracer.span("serve.PlanKey::derive", Layer::Serve, || {
                PlanKey::derive(entry.hash, 0, sig, c.objective.tag())
            });
            let cands = tracer
                .span("core.optimize_with", Layer::Solver, || {
                    optimize_with(
                        &table,
                        &OptimizerConfig {
                            candidates: cfg.candidates,
                            ..OptimizerConfig::default()
                        },
                        schedulable_on(&soc),
                    )
                })
                .map_err(|e| e.to_string())?;
            let lanes: Vec<u64> = (0..cfg.eval_lanes as u64).collect();
            let power = PowerModel::default_for(&soc);
            let powered = backend.classes();
            let mut best: Option<(usize, f64, f64)> = None;
            for (ci, cand) in cands.iter().take(cfg.eval_candidates).enumerate() {
                let runs = tracer
                    .span("backend.measure_batch", Layer::Soc, || {
                        backend.measure_batch(&cand.schedule, &lanes)
                    })
                    .map_err(|e| e.to_string())?;
                let mean = runs.iter().map(|m| m.latency.as_f64()).sum::<f64>() / runs.len() as f64;
                let energy = tracer.span("soc.energy_of_window", Layer::Soc, || {
                    let classes: Vec<PuClass> =
                        cand.schedule.chunks().iter().map(|c| c.pu).collect();
                    let m = &runs[0];
                    energy_of_window(
                        &power,
                        m.makespan,
                        &m.chunk_utilization,
                        m.tasks,
                        &classes,
                        &powered,
                    )
                    .per_task_mj
                });
                if best.is_none_or(|b| mean < b.1) {
                    best = Some((ci, mean, energy));
                }
            }
            let (ci, mean, energy) = best.ok_or_else(|| "no candidates".to_string())?;
            tracer.span("serve.artifact+insert", Layer::Serve, || {
                let cache = PlanCache::new();
                for objective in [PlanObjective::MinLatency, PlanObjective::MinEnergy] {
                    let artifact = Arc::new(PlanArtifact {
                        device: c.device.clone(),
                        app: c.app.clone(),
                        scale_bucket: 0,
                        objective,
                        key_hi: key.hi(),
                        key_lo: key.lo(),
                        table_sig: sig,
                        assignment: cands[ci].schedule.assignment().to_vec(),
                        predicted_us: cands[ci].predicted.as_f64(),
                        measured_us: mean,
                        energy_per_task_mj: energy,
                        candidates_considered: cands.len(),
                        solve_index: 0,
                    });
                    cache.insert(key, artifact);
                }
            });
            Ok(())
        })
    }
}

/// The registered app called `app`, its work scaled as the service scales
/// it for an input scale.
fn scaled_model(m: &Models, app: &str, scale: f64) -> Result<AppModel, String> {
    let mut model = [&m.octree, &m.dense, &m.sparse, &m.perception]
        .into_iter()
        .find(|x| x.name == app)
        .ok_or_else(|| format!("unknown app {app}"))?
        .clone();
    if (scale - 1.0).abs() > f64::EPSILON {
        for stage in &mut model.stages {
            stage.work = stage.work.scaled(scale);
        }
    }
    Ok(model)
}
