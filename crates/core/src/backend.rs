//! The execution-backend seam of the framework: one trait abstracting
//! *where* schedules run, so the Fig. 2 loop (profile → three-level
//! optimize → autotune → baseline comparison) exists exactly once and is
//! generic over the measurement substrate.
//!
//! Three implementations ship:
//!
//! - [`SimBackend`] — the discrete-event simulator of `bt-soc`, modeling
//!   the paper's four devices (the default; fast and deterministic).
//! - [`HostBackend`] — the real dispatcher-thread runtime of
//!   `bt-pipeline` plus wall-clock profiling from `bt-profiler`, running
//!   actual kernels on the development machine.
//! - [`McuBackend`] — the simulator bound to a microcontroller-class
//!   device, with the edge substrate's own name and baselines.
//!
//! Any future substrate (remote device, process-isolated runner, batched
//! measurement service) is another `impl`, not another copy of the loop.

use bt_kernels::{AppModel, Application};
use bt_pipeline::{
    run_host, run_host_dag, simulate_baseline, simulate_dag_schedule, simulate_schedule,
    to_chunk_specs, DagSchedule, Measurement, PuThreads, Schedule,
};
use bt_profiler::host::{profile_host, HostClasses, HostProfilerConfig};
use bt_profiler::{profile, ProfileMode, ProfilerConfig, ProfilingTable};
use bt_soc::parallel::{amortises_spawn, des_run_us, fan_out};
use bt_soc::{simulate_multi, FaultSpec, PuClass, RunConfig, RunReport, SocSpec, TenantSpec};

use crate::BtError;

/// One tenant of a multi-tenant measurement: an application model under
/// a schedule, with its own run configuration. The co-run vocabulary of
/// [`ExecutionBackend::measure_multi`] and of the admission policies in
/// `bt-faults`.
#[derive(Debug, Clone)]
pub struct CoTenant {
    /// The tenant's application model.
    pub app: AppModel,
    /// Placement of the tenant's stages on the device.
    pub schedule: Schedule,
    /// The tenant's own run configuration (tasks, warmup, seed, …).
    pub run: RunConfig,
}

impl CoTenant {
    /// Convenience constructor.
    pub fn new(app: AppModel, schedule: Schedule, run: RunConfig) -> CoTenant {
        CoTenant { app, schedule, run }
    }
}

/// A substrate that can profile an application and measure schedules on
/// it — everything the BetterTogether loop needs from the outside world.
///
/// The framework calls [`profile`](ExecutionBackend::profile) once, feeds
/// the table through the optimizer (using
/// [`schedulable`](ExecutionBackend::schedulable) as the class mask), then
/// [`measure`](ExecutionBackend::measure)s each candidate during
/// autotuning and each class in
/// [`baseline_classes`](ExecutionBackend::baseline_classes) via
/// [`measure_baseline`](ExecutionBackend::measure_baseline).
///
/// Backends are `Sync` so the framework can fan independent measurements
/// out over scoped worker threads when
/// [`parallel_measure_hint`](ExecutionBackend::parallel_measure_hint)
/// allows it.
pub trait ExecutionBackend: Sync {
    /// Short identifier for reports ("sim", "host", …).
    fn name(&self) -> &str;

    /// Whether independent measurements should run concurrently.
    ///
    /// `true` means [`measure`](ExecutionBackend::measure) and
    /// [`measure_baseline`](ExecutionBackend::measure_baseline) calls are
    /// pure functions of their arguments (virtual-time backends) *and* one
    /// of them is long enough to pay for the worker thread that would run
    /// it: the framework then spreads autotuning candidates, baselines,
    /// and energy measurements over scoped threads, merging results in
    /// input order so the outcome is byte-identical to a serial sweep. The
    /// default is `false` — correct for any wall-clock backend, where
    /// concurrent runs would contend for the machine and corrupt the very
    /// latencies being ranked.
    fn parallel_measure_hint(&self) -> bool {
        false
    }

    /// Stage count of the bound application — the validation reference
    /// for schedules and cached [`crate::Plan`]s.
    fn stage_count(&self) -> usize;

    /// Every PU class powered on this substrate (idle clusters still draw
    /// power in the energy model).
    fn classes(&self) -> Vec<PuClass>;

    /// Whether chunks may be placed on `class` — the optimizer's allowed
    /// mask (e.g. unpinnable clusters are present but unschedulable).
    fn schedulable(&self, class: PuClass) -> bool;

    /// The homogeneous baselines meaningful on this substrate.
    fn baseline_classes(&self) -> Vec<PuClass>;

    /// Runs BT-Profiler: per-(stage, class) latencies under `mode`.
    fn profile(&self, mode: ProfileMode) -> ProfilingTable;

    /// Executes `schedule` and reports its steady-state measurement.
    ///
    /// `run_index` distinguishes repeated measurements in one autotuning
    /// sweep; deterministic backends decorrelate their noise with it,
    /// wall-clock backends may ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`BtError`] when the substrate rejects the schedule
    /// (stage mismatch, missing PU, failed run).
    fn measure(&self, schedule: &Schedule, run_index: u64) -> Result<Measurement, BtError>;

    /// Executes `schedule` once per entry of `run_indices` and reports the
    /// measurements in input order — the sweep-scale counterpart of
    /// [`measure`](ExecutionBackend::measure). Each element must equal
    /// what `measure(schedule, run_indices[i])` would return.
    ///
    /// The default implementation is that serial loop. Backends whose
    /// runs cannot perturb each other (the simulator) override it to
    /// spread the runs over cores.
    ///
    /// # Errors
    ///
    /// Returns [`BtError`] when the substrate rejects the schedule or any
    /// run degrades; the whole batch fails as a unit.
    fn measure_batch(
        &self,
        schedule: &Schedule,
        run_indices: &[u64],
    ) -> Result<Vec<Measurement>, BtError> {
        run_indices
            .iter()
            .map(|&i| self.measure(schedule, i))
            .collect()
    }

    /// Executes a fork/join `schedule` and reports its steady-state
    /// measurement — the DAG counterpart of
    /// [`measure`](ExecutionBackend::measure). Chain-shaped DAG schedules
    /// must price identically to their linear form.
    ///
    /// # Errors
    ///
    /// The default implementation returns [`BtError::DagUnsupported`];
    /// substrates with a fork/join engine override it and return the
    /// usual configuration errors (stage/graph mismatch, missing PU,
    /// failed run).
    fn measure_dag(&self, schedule: &DagSchedule, run_index: u64) -> Result<Measurement, BtError> {
        let _ = (schedule, run_index);
        Err(BtError::DagUnsupported {
            backend: self.name().to_string(),
        })
    }

    /// Measures the homogeneous baseline on `class`.
    ///
    /// # Errors
    ///
    /// Returns [`BtError`] when the class cannot host the whole
    /// application on this substrate.
    fn measure_baseline(&self, class: PuClass) -> Result<Measurement, BtError>;

    /// Co-runs `tenants` on this substrate's shared device, returning one
    /// steady-state measurement per tenant in input order.
    ///
    /// Unlike [`measure`](ExecutionBackend::measure), this ignores the
    /// backend's bound application: each [`CoTenant`] carries its own
    /// model, schedule, and run configuration, and the substrate prices
    /// cross-tenant interference between them.
    ///
    /// # Errors
    ///
    /// The default implementation returns
    /// [`BtError::MultiTenantUnsupported`] — only virtual-time backends
    /// can co-schedule tenant timelines. Supporting backends return the
    /// usual configuration errors (stage mismatch, missing PU) or
    /// [`BtError::RunDegraded`] when a tenant completes no tasks.
    fn measure_multi(&self, tenants: &[CoTenant]) -> Result<Vec<Measurement>, BtError> {
        let _ = tenants;
        Err(BtError::MultiTenantUnsupported {
            backend: self.name().to_string(),
        })
    }
}

/// The simulated backend: profiles and executes against the
/// discrete-event model of one of the paper's devices.
#[derive(Debug, Clone)]
pub struct SimBackend {
    soc: SocSpec,
    app: AppModel,
    profiler: ProfilerConfig,
    run: RunConfig,
    parallel: bool,
    faults: Option<FaultSpec>,
}

impl SimBackend {
    /// Binds the simulator to a device model and an application model.
    pub fn new(soc: SocSpec, app: AppModel) -> SimBackend {
        SimBackend {
            soc,
            app,
            profiler: ProfilerConfig::default(),
            run: RunConfig::default(),
            parallel: true,
            faults: None,
        }
    }

    /// Injects a fault specification into every subsequent schedule
    /// measurement (chain, batch, DAG and co-run): schedules run under the
    /// perturbed simulator instead of the clean one. Profiling and
    /// baselines stay unfaulted — the fault model perturbs *execution*,
    /// not the knowledge the optimizer starts from.
    pub fn with_faults(mut self, faults: FaultSpec) -> SimBackend {
        self.faults = (!faults.is_empty()).then_some(faults);
        self
    }

    /// Overrides the profiler configuration.
    pub fn with_profiler(mut self, profiler: ProfilerConfig) -> SimBackend {
        self.profiler = profiler;
        self
    }

    /// Permits or forbids concurrent measurement/profiling (permitted by
    /// default). Simulated runs are pure functions of `(config, seed)`, so
    /// parallel sweeps return byte-identical results; whether a permitted
    /// sweep actually spreads is decided per call site by work size
    /// ([`bt_soc::parallel::amortises_spawn`]). Forbidding forces the
    /// reference serial path at any size (used by the determinism tests
    /// and the perf-trajectory bench).
    pub fn with_parallel(mut self, parallel: bool) -> SimBackend {
        self.parallel = parallel;
        self.profiler.parallel = parallel;
        self
    }

    /// Overrides the run configuration used for measurements.
    pub fn with_run(mut self, run: RunConfig) -> SimBackend {
        self.run = run;
        self
    }

    /// The bound device model.
    pub fn soc(&self) -> &SocSpec {
        &self.soc
    }

    /// The bound application model.
    pub fn app(&self) -> &AppModel {
        &self.app
    }

    /// The run configuration of lane `run_index`: noise seeded
    /// `run.seed + run_index`.
    fn lane(&self, run_index: u64) -> RunConfig {
        RunConfig {
            seed: self.run.seed.wrapping_add(run_index),
            ..self.run.clone()
        }
    }
}

/// The steady-state measurement of a run, or [`BtError::RunDegraded`]
/// when it completed too few tasks to have one.
fn measured(report: RunReport) -> Result<Measurement, BtError> {
    let (submitted, completed, dropped) = (report.submitted, report.completed, report.dropped);
    Measurement::from_run(report).ok_or(BtError::RunDegraded {
        submitted,
        completed,
        dropped,
    })
}

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn parallel_measure_hint(&self) -> bool {
        // DES runs are independent and seed-decorrelated by run index, so
        // concurrent evaluation cannot perturb them; it pays only when the
        // cheapest run this configuration produces (one chunk) amortises
        // a worker spawn.
        self.parallel && amortises_spawn(des_run_us(&self.run, 1))
    }

    fn stage_count(&self) -> usize {
        self.app.stage_count()
    }

    fn classes(&self) -> Vec<PuClass> {
        self.soc.classes()
    }

    fn schedulable(&self, class: PuClass) -> bool {
        self.soc.pu(class).map(|p| p.schedulable()).unwrap_or(false)
    }

    fn baseline_classes(&self) -> Vec<PuClass> {
        // The paper's Table 3 pair: CPU-only on the big cores, GPU-only.
        vec![PuClass::BigCpu, PuClass::Gpu]
    }

    fn profile(&self, mode: ProfileMode) -> ProfilingTable {
        profile(&self.soc, &self.app, mode, &self.profiler)
    }

    fn measure(&self, schedule: &Schedule, run_index: u64) -> Result<Measurement, BtError> {
        let (cfg, faults) = (self.lane(run_index), self.faults.as_ref());
        let report = simulate_schedule(&self.soc, &self.app, schedule, &cfg, faults)?;
        measured(report)
    }

    fn measure_batch(
        &self,
        schedule: &Schedule,
        run_indices: &[u64],
    ) -> Result<Vec<Measurement>, BtError> {
        let chunks = schedule.chunks().len();
        let parallel = self.parallel && amortises_spawn(des_run_us(&self.run, chunks));
        fan_out(run_indices.len(), parallel, |i| {
            self.measure(schedule, run_indices[i])
        })
        .into_iter()
        .collect()
    }

    fn measure_dag(&self, schedule: &DagSchedule, run_index: u64) -> Result<Measurement, BtError> {
        let (cfg, faults) = (self.lane(run_index), self.faults.as_ref());
        let report = simulate_dag_schedule(&self.soc, &self.app, schedule, &cfg, faults)?;
        measured(report)
    }

    fn measure_baseline(&self, class: PuClass) -> Result<Measurement, BtError> {
        // The paper's offload pattern (a sync after every stage), clean.
        measured(simulate_baseline(&self.soc, &self.app, class, &self.run)?)
    }

    fn measure_multi(&self, tenants: &[CoTenant]) -> Result<Vec<Measurement>, BtError> {
        let specs = tenants
            .iter()
            .map(|t| {
                let chunks = to_chunk_specs(&t.app, &t.schedule)?;
                Ok(TenantSpec::new(t.app.name.clone(), chunks, t.run.clone()))
            })
            .collect::<Result<Vec<_>, BtError>>()?;
        let multi = simulate_multi(&self.soc, &specs, self.faults.as_ref())?;
        multi.tenants.into_iter().map(measured).collect()
    }
}

/// The host backend: profiles real kernels with wall-clock timing and
/// executes schedules through the real dispatcher-thread runtime. Host
/// "PU classes" are thread-count tiers standing in for big/little
/// clusters.
///
/// With the framework's default
/// [`ProfileMode::InterferenceHeavy`](bt_profiler::ProfileMode), profiling
/// runs real background co-runners on every other tier while each cell is
/// measured — genuinely contended execution, so expect host profiling to
/// take tiers × stages × reps kernel executions *plus* the co-runner load,
/// and prefer small `reps` on a shared machine.
pub struct HostBackend<P: Send + 'static> {
    app: Application<P>,
    classes: HostClasses,
    threads: PuThreads,
    profiler: HostProfilerConfig,
    run: RunConfig,
}

impl<P: Send + 'static> std::fmt::Debug for HostBackend<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostBackend")
            .field("app", &self.app.name())
            .field("classes", &self.classes)
            .field("threads", &self.threads)
            .field("profiler", &self.profiler)
            .field("run", &self.run)
            .finish()
    }
}

impl<P: Send + 'static> HostBackend<P> {
    /// Binds the host runtime to a real application, with the default
    /// two-tier class layout for this machine.
    pub fn new(app: Application<P>) -> HostBackend<P> {
        HostBackend::with_classes(app, HostClasses::default_for_host())
    }

    /// Binds with an explicit tier layout; dispatcher worker counts are
    /// derived from the tiers.
    pub fn with_classes(app: Application<P>, classes: HostClasses) -> HostBackend<P> {
        let mut threads = PuThreads::uniform(1);
        for &(class, n) in classes.tiers() {
            threads = threads.with_class(class, n);
        }
        HostBackend {
            app,
            classes,
            threads,
            profiler: HostProfilerConfig::default(),
            run: RunConfig::default(),
        }
    }

    /// Overrides the profiler configuration.
    pub fn with_profiler(mut self, profiler: HostProfilerConfig) -> HostBackend<P> {
        self.profiler = profiler;
        self
    }

    /// Overrides the per-measurement pipeline run configuration.
    pub fn with_run(mut self, run: RunConfig) -> HostBackend<P> {
        self.run = run;
        self
    }
}

impl<P: Send + 'static> ExecutionBackend for HostBackend<P> {
    fn name(&self) -> &str {
        "host"
    }

    // `parallel_measure_hint` stays at the default `false`: host
    // measurements are wall-clock pipeline runs that own the machine's
    // cores. Running two candidates concurrently would make them contend
    // for CPUs and memory bandwidth, corrupting exactly the latencies
    // autotuning is trying to rank — the host sweep must stay serial.

    fn stage_count(&self) -> usize {
        self.app.stage_count()
    }

    fn classes(&self) -> Vec<PuClass> {
        self.classes.tiers().iter().map(|&(c, _)| c).collect()
    }

    fn schedulable(&self, class: PuClass) -> bool {
        self.classes.threads(class).is_some()
    }

    fn baseline_classes(&self) -> Vec<PuClass> {
        // Every tier is a meaningful homogeneous deployment on the host.
        self.classes()
    }

    fn profile(&self, mode: ProfileMode) -> ProfilingTable {
        profile_host(&self.app, &self.classes, mode, &self.profiler)
    }

    fn measure(&self, schedule: &Schedule, _run_index: u64) -> Result<Measurement, BtError> {
        // Wall-clock runs are naturally decorrelated; run_index is unused.
        let report = run_host(&self.app, schedule, &self.threads, &self.run, None)?;
        measured(report)
    }

    fn measure_dag(&self, schedule: &DagSchedule, _run_index: u64) -> Result<Measurement, BtError> {
        let report = run_host_dag(&self.app, schedule, &self.threads, &self.run, None)?;
        measured(report)
    }

    fn measure_baseline(&self, class: PuClass) -> Result<Measurement, BtError> {
        // The host baseline is the whole application as one chunk on the
        // tier (the real runtime has no per-stage-sync dispatch mode; a
        // single dispatcher already serializes stages per task).
        self.measure(&Schedule::homogeneous(self.app.stage_count(), class), 0)
    }
}

/// The MCU-class edge backend: the simulator bound to a
/// microcontroller-shaped device model
/// ([`devices::mcu_m7`](bt_soc::devices::mcu_m7)) —
/// single-issue in-order cores, kilobytes of SRAM against slow flash/SDRAM
/// standing in for the DRAM-contention analogue, and a DMA engine as the
/// async accelerator class.
///
/// Semantically this is [`SimBackend`] with two MCU-specific policies:
///
/// - its report name is `"mcu"`, so deployments and bench rows are
///   attributable to the edge substrate; and
/// - [`baseline_classes`](ExecutionBackend::baseline_classes) is only
///   `BigCpu` (the M7): a DMA engine cannot host whole applications, so
///   the paper's GPU-only baseline is meaningless here and the speedup
///   denominator is the realistic "everything on the big core" firmware.
///
/// It always runs the default configuration, too short to pay for a worker
/// thread, so the trait's serial `measure_batch` and `false` hint match it.
#[derive(Debug, Clone)]
pub struct McuBackend {
    inner: SimBackend,
}

impl McuBackend {
    /// Binds the MCU simulator to a device model and an application model.
    pub fn new(soc: SocSpec, app: AppModel) -> McuBackend {
        McuBackend {
            inner: SimBackend::new(soc, app),
        }
    }
}

impl ExecutionBackend for McuBackend {
    fn name(&self) -> &str {
        "mcu"
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
        // No GPU-only row: the DMA engine moves bytes, it cannot host
        // whole applications the way a mobile GPU can.
        vec![PuClass::BigCpu]
    }

    fn profile(&self, mode: ProfileMode) -> ProfilingTable {
        self.inner.profile(mode)
    }

    fn measure(&self, schedule: &Schedule, run_index: u64) -> Result<Measurement, BtError> {
        self.inner.measure(schedule, run_index)
    }

    fn measure_dag(&self, schedule: &DagSchedule, run_index: u64) -> Result<Measurement, BtError> {
        self.inner.measure_dag(schedule, run_index)
    }

    fn measure_baseline(&self, class: PuClass) -> Result<Measurement, BtError> {
        self.inner.measure_baseline(class)
    }

    fn measure_multi(&self, tenants: &[CoTenant]) -> Result<Vec<Measurement>, BtError> {
        self.inner.measure_multi(tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_kernels::apps;
    use bt_soc::devices;

    fn sim() -> SimBackend {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        SimBackend::new(devices::pixel_7a(), app)
    }

    #[test]
    fn sim_backend_reports_device_shape() {
        let b = sim();
        assert_eq!(b.name(), "sim");
        assert_eq!(b.stage_count(), 7);
        assert!(b.classes().contains(&PuClass::Gpu));
        assert!(b.schedulable(PuClass::BigCpu));
        assert_eq!(b.baseline_classes(), vec![PuClass::BigCpu, PuClass::Gpu]);
    }

    #[test]
    fn sim_measure_decorrelates_by_run_index_but_is_deterministic() {
        let b = sim();
        let s = Schedule::homogeneous(7, PuClass::BigCpu);
        let a0 = b.measure(&s, 0).unwrap();
        let a0_again = b.measure(&s, 0).unwrap();
        let a1 = b.measure(&s, 1).unwrap();
        assert_eq!(a0.latency.as_f64(), a0_again.latency.as_f64());
        assert_ne!(a0.latency.as_f64(), a1.latency.as_f64());
    }

    #[test]
    fn sim_measure_batch_matches_scalar_measures() {
        let b = sim();
        let s = Schedule::homogeneous(7, PuClass::BigCpu);
        let indices = [0u64, 3, 7, 3];
        let batch = b.measure_batch(&s, &indices).unwrap();
        assert_eq!(batch.len(), indices.len());
        for (&i, got) in indices.iter().zip(&batch) {
            let want = b.measure(&s, i).unwrap();
            assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }
    }

    #[test]
    fn sim_measure_batch_carries_backend_faults() {
        let faults = bt_soc::FaultSpec {
            stragglers: vec![bt_soc::Straggler {
                chunk: 0,
                task: 2,
                factor: 3.0,
            }],
            ..bt_soc::FaultSpec::default()
        };
        let b = sim().with_faults(faults);
        let s = Schedule::homogeneous(7, PuClass::BigCpu);
        let batch = b.measure_batch(&s, &[0, 5]).unwrap();
        for (i, got) in [0u64, 5].into_iter().zip(&batch) {
            let want = b.measure(&s, i).unwrap();
            assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }
    }

    #[test]
    fn sim_measure_batch_empty_is_empty() {
        let b = sim();
        let s = Schedule::homogeneous(7, PuClass::BigCpu);
        assert!(b.measure_batch(&s, &[]).unwrap().is_empty());
    }

    #[test]
    fn sim_measure_rejects_stage_mismatch() {
        let b = sim();
        let s = Schedule::homogeneous(3, PuClass::BigCpu);
        assert!(matches!(
            b.measure(&s, 0),
            Err(BtError::Pipeline(
                bt_pipeline::PipelineError::StageMismatch {
                    app: 7,
                    schedule: 3
                }
            ))
        ));
    }

    #[test]
    fn sim_measure_reports_simulator_rejections_as_soc_errors() {
        fn missing<T>(r: Result<T, BtError>) -> bool {
            use bt_soc::SocError::MissingPu;
            matches!(r, Err(BtError::Soc(MissingPu(PuClass::LittleCpu))))
        }
        // The Orin Nano has no little cluster: every measurement shape
        // surfaces the simulator's rejection as `BtError::Soc`.
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let b = SimBackend::new(devices::jetson_orin_nano(), app);
        let little = Schedule::homogeneous(7, PuClass::LittleCpu);
        assert!(missing(b.measure(&little, 0)));
        assert!(missing(b.measure_batch(&little, &[0, 1])));
        assert!(missing(
            b.measure_dag(&DagSchedule::from_schedule(&little), 0)
        ));
        assert!(missing(b.measure_baseline(PuClass::LittleCpu)));
    }

    #[test]
    fn unpinnable_class_is_unschedulable_on_sim() {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let b = SimBackend::new(devices::oneplus_11(), app);
        assert!(!b.schedulable(PuClass::LittleCpu), "OnePlus little cores");
        assert!(b.schedulable(PuClass::BigCpu));
    }

    #[test]
    fn sim_parallel_hint_follows_run_length_and_permission() {
        let long = RunConfig {
            tasks: 3000,
            ..RunConfig::default()
        };
        // 35-task runs cannot pay for a worker thread; 3 000-task runs can.
        assert!(!sim().parallel_measure_hint());
        assert!(sim().with_run(long.clone()).parallel_measure_hint());
        // Permission withheld: serial at any size.
        assert!(!sim().with_parallel(false).parallel_measure_hint());
        assert!(!sim()
            .with_run(long)
            .with_parallel(false)
            .parallel_measure_hint());
    }

    #[test]
    fn sim_measure_dag_matches_linear_on_chain_schedules() {
        let b = sim();
        let s = Schedule::new(vec![
            PuClass::BigCpu,
            PuClass::BigCpu,
            PuClass::MediumCpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::LittleCpu,
        ])
        .unwrap();
        let dag = DagSchedule::from_schedule(&s);
        let linear = b.measure(&s, 3).unwrap();
        let via_dag = b.measure_dag(&dag, 3).unwrap();
        assert_eq!(linear.latency.as_f64(), via_dag.latency.as_f64());
        assert_eq!(linear.throughput_hz, via_dag.throughput_hz);
    }

    #[test]
    fn sim_measure_dag_prices_branching_schedules() {
        let app = apps::perception_app(apps::PerceptionConfig::default()).model();
        let b = SimBackend::new(devices::pixel_7a(), app.clone());
        let s = DagSchedule::new(
            vec![
                PuClass::LittleCpu,
                PuClass::Gpu,
                PuClass::Gpu,
                PuClass::BigCpu,
                PuClass::BigCpu,
                PuClass::MediumCpu,
                PuClass::MediumCpu,
            ],
            &app.task_graph(),
        )
        .unwrap();
        let m0 = b.measure_dag(&s, 0).unwrap();
        let m0_again = b.measure_dag(&s, 0).unwrap();
        let m1 = b.measure_dag(&s, 1).unwrap();
        assert_eq!(m0.latency.as_f64(), m0_again.latency.as_f64());
        assert_ne!(m0.latency.as_f64(), m1.latency.as_f64());
    }

    #[test]
    fn sim_measure_dag_rejects_wrong_graph() {
        // Octree-bound backend, perception-graph schedule: typed error.
        let b = sim();
        let perception = apps::perception_app(apps::PerceptionConfig::default()).model();
        let s = DagSchedule::new(vec![PuClass::BigCpu; 7], &perception.task_graph()).unwrap();
        assert!(matches!(
            b.measure_dag(&s, 0),
            Err(BtError::Pipeline(bt_pipeline::PipelineError::GraphMismatch))
        ));
    }

    #[test]
    fn mcu_backend_shape_and_baselines() {
        let app = apps::sensor_app(apps::SensorConfig::default()).model();
        let b = McuBackend::new(devices::mcu_m7(), app);
        assert_eq!(b.name(), "mcu");
        assert_eq!(b.stage_count(), 4);
        assert!(b.schedulable(PuClass::BigCpu), "M7");
        assert!(b.schedulable(PuClass::LittleCpu), "M4");
        assert!(b.schedulable(PuClass::Gpu), "DMA engine");
        assert_eq!(
            b.baseline_classes(),
            vec![PuClass::BigCpu],
            "no GPU-only baseline: the DMA engine cannot host whole apps"
        );
    }

    #[test]
    fn mcu_measure_delegates_to_simulator_and_is_deterministic() {
        let app = apps::sensor_app(apps::SensorConfig::default()).model();
        let b = McuBackend::new(devices::mcu_m7(), app.clone());
        let sim = SimBackend::new(devices::mcu_m7(), app);
        let s = Schedule::homogeneous(4, PuClass::BigCpu);
        let mcu0 = b.measure(&s, 0).unwrap();
        let sim0 = sim.measure(&s, 0).unwrap();
        assert_eq!(mcu0.latency.as_f64(), sim0.latency.as_f64());
        let batch = b.measure_batch(&s, &[0, 1]).unwrap();
        assert_eq!(batch[0].latency.as_f64(), mcu0.latency.as_f64());
        assert_ne!(batch[1].latency.as_f64(), mcu0.latency.as_f64());
        let baseline = b.measure_baseline(PuClass::BigCpu).unwrap();
        assert!(baseline.latency.as_f64() > 0.0);
    }

    #[test]
    fn measure_multi_prices_co_runs_per_tenant_in_input_order() {
        let cfg = RunConfig {
            tasks: 24,
            ..RunConfig::default()
        };
        let octree = apps::octree_app(apps::OctreeConfig::default()).model();
        let b = SimBackend::new(devices::pixel_7a(), octree.clone()).with_run(cfg.clone());
        let s = Schedule::new(vec![
            PuClass::BigCpu,
            PuClass::BigCpu,
            PuClass::MediumCpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::LittleCpu,
        ])
        .unwrap();
        // One tenant under the backend's own run configuration is `measure`.
        let solo = b
            .measure_multi(&[CoTenant::new(octree.clone(), s.clone(), cfg.clone())])
            .unwrap();
        assert_eq!(solo.len(), 1);
        assert_eq!(
            format!("{:?}", solo[0]),
            format!("{:?}", b.measure(&s, 0).unwrap())
        );

        // Two tenants: one measurement each, in input order.
        let sensor = apps::sensor_app(apps::SensorConfig::default()).model();
        let pair = [
            CoTenant::new(octree, s, cfg.clone()),
            CoTenant::new(sensor, Schedule::homogeneous(4, PuClass::LittleCpu), cfg),
        ];
        let co = b.measure_multi(&pair).unwrap();
        assert_eq!(co.len(), 2);
        assert_eq!(co[0].chunk_utilization.len(), 4, "octree tenant first");
        assert_eq!(co[1].chunk_utilization.len(), 1, "sensor tenant second");

        // The MCU backend co-runs through its simulator; the host cannot.
        let m7 = SimBackend::new(devices::mcu_m7(), pair[1].app.clone());
        let mcu = McuBackend::new(devices::mcu_m7(), pair[1].app.clone());
        let sensor_only = &pair[1..];
        assert_eq!(
            format!("{:?}", mcu.measure_multi(sensor_only).unwrap()),
            format!("{:?}", m7.measure_multi(sensor_only).unwrap())
        );
        let host = HostBackend::new(apps::sensor_app(apps::SensorConfig::default()));
        assert!(matches!(
            host.measure_multi(sensor_only),
            Err(BtError::MultiTenantUnsupported { .. })
        ));
    }

    #[test]
    fn host_backend_shape_matches_tiers() {
        let app = apps::octree_app(apps::OctreeConfig {
            points: 500,
            shape: bt_kernels::pointcloud::CloudShape::Uniform,
            max_depth: 4,
            seed: 1,
        });
        let b = HostBackend::with_classes(
            app,
            HostClasses::new(vec![(PuClass::BigCpu, 2), (PuClass::LittleCpu, 1)]),
        );
        assert_eq!(b.name(), "host");
        assert_eq!(b.stage_count(), 7);
        assert_eq!(b.classes(), vec![PuClass::BigCpu, PuClass::LittleCpu]);
        assert!(b.schedulable(PuClass::LittleCpu));
        assert!(!b.schedulable(PuClass::Gpu), "no GPU tier on the host");
        assert_eq!(b.baseline_classes(), b.classes());
        assert!(format!("{b:?}").contains("HostBackend"));
    }
}
