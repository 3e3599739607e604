//! The end-to-end BetterTogether framework (Fig. 2 of the paper): inputs →
//! interference-aware profiling → three-level optimization → deployment —
//! generic over the [`ExecutionBackend`] so the identical loop drives the
//! discrete-event simulator and the real host runtime.

use bt_pipeline::Schedule;
use bt_profiler::{ProfileMode, ProfilingTable};
use bt_soc::{Micros, PuClass, SocSpec};

use bt_kernels::AppModel;

use crate::backend::{ExecutionBackend, SimBackend};
use crate::baseline::{measure_baselines, Baselines};
use crate::optimizer::{autotune, optimize_with, AutotuneOutcome, Candidate, OptimizerConfig};
use crate::BtError;

/// Framework configuration: the backend-independent knobs of Fig. 2.
/// Substrate-specific knobs (simulator noise/seed, host thread tiers,
/// repetitions) live on the backend itself.
#[derive(Debug, Clone)]
pub struct BtConfig {
    /// Profiling mode (the contribution is
    /// [`ProfileMode::InterferenceHeavy`]; `Isolated` reproduces the
    /// prior-work comparison models). Interference-heavy is the default on
    /// *every* backend — on the host this runs real background co-runners
    /// during profiling, which costs genuine contended wall-clock time on
    /// a shared machine.
    pub profile_mode: ProfileMode,
    /// Optimizer levels 1–2.
    pub optimizer: OptimizerConfig,
}

impl Default for BtConfig {
    fn default() -> BtConfig {
        BtConfig {
            profile_mode: ProfileMode::InterferenceHeavy,
            optimizer: OptimizerConfig::default(),
        }
    }
}

/// The BetterTogether framework bound to one execution backend.
///
/// The default backend is the simulator; [`BetterTogether::new`] keeps the
/// device-model entry point. Any other [`ExecutionBackend`] — notably
/// [`crate::HostBackend`] for real kernels on the development machine —
/// plugs in through [`BetterTogether::with_backend`] and drives the exact
/// same loop: gapness pass, 𝒦 blocking-clause candidates, utilization
/// filter, autotuning, and homogeneous-baseline comparison.
///
/// ```
/// use bt_core::BetterTogether;
/// use bt_kernels::apps;
/// use bt_soc::devices;
///
/// let app = apps::octree_app(apps::OctreeConfig::default()).model();
/// let bt = BetterTogether::new(devices::pixel_7a(), app);
/// let deployment = bt.run()?;
/// assert!(deployment.speedup_over_best_baseline().expect("measured") > 1.0);
/// # Ok::<(), bt_core::BtError>(())
/// ```
#[derive(Debug)]
pub struct BetterTogether<B: ExecutionBackend = SimBackend> {
    backend: B,
    cfg: BtConfig,
}

/// Output of levels 1–2: the profiling table plus ranked candidates.
/// Serializable, so plans can be cached on disk and re-deployed without
/// re-profiling — but validate a deserialized plan against the live
/// backend with [`Plan::validate`] before executing it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Plan {
    /// The profiling table optimization ran against.
    pub table: ProfilingTable,
    /// Candidates sorted by predicted latency.
    pub candidates: Vec<Candidate<Schedule>>,
}

impl Plan {
    /// The schedule the model predicts to be fastest (index 1 of the
    /// paper's Table 4), or `None` for an empty plan. [`optimize_with`]
    /// never returns an empty candidate set, but a `Plan` deserialized
    /// from disk can carry one, so this cannot be a plain index.
    pub fn predicted_best(&self) -> Option<&Candidate<Schedule>> {
        self.candidates.first()
    }

    /// Checks that this plan can execute on `backend`: every candidate
    /// (and the table itself) agrees with the backend's stage count, and
    /// every scheduled PU class is one the backend can host. A stale
    /// cached plan — re-configured app, different device — fails here
    /// instead of panicking mid-execution.
    ///
    /// # Errors
    ///
    /// Returns [`BtError::PlanStageMismatch`] or
    /// [`BtError::PlanClassUnavailable`].
    pub fn validate<B: ExecutionBackend>(&self, backend: &B) -> Result<(), BtError> {
        let stages = backend.stage_count();
        if self.table.stages().len() != stages {
            return Err(BtError::PlanStageMismatch {
                plan: self.table.stages().len(),
                backend: stages,
            });
        }
        for cand in &self.candidates {
            if cand.schedule.stage_count() != stages {
                return Err(BtError::PlanStageMismatch {
                    plan: cand.schedule.stage_count(),
                    backend: stages,
                });
            }
            for class in cand.schedule.classes_used() {
                if !backend.schedulable(class) {
                    return Err(BtError::PlanClassUnavailable(class));
                }
            }
        }
        Ok(())
    }
}

/// Output of the full framework run: plan, autotuning measurements, and
/// baselines — the same shape whether measured in the simulator or on the
/// host.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The plan that was autotuned.
    pub plan: Plan,
    /// Per-candidate measurements and the measured-best index.
    pub outcome: AutotuneOutcome,
    /// Homogeneous baselines for the same backend/app.
    pub baselines: Baselines,
}

impl Deployment {
    /// The measured-best schedule — BetterTogether's final output. `None`
    /// only if the deployment was assembled from inconsistent parts (e.g.
    /// a deserialized outcome pointing outside the candidate list).
    pub fn best_schedule(&self) -> Option<&Schedule> {
        self.plan
            .candidates
            .get(self.outcome.best_index)
            .map(|c| &c.schedule)
    }

    /// Measured per-task latency of the best schedule, if it was measured.
    pub fn best_latency(&self) -> Option<Micros> {
        self.outcome.measured_latency(self.outcome.best_index)
    }

    /// Measured latency of the *predicted*-best schedule (what a user gets
    /// without level-3 autotuning), if it was measured. Resolved by
    /// candidate index, not by position in the measurement vector.
    pub(crate) fn predicted_best_latency(&self) -> Option<Micros> {
        self.outcome.measured_latency(0)
    }

    /// Speedup over the faster homogeneous baseline (Fig. 4's metric).
    pub fn speedup_over_best_baseline(&self) -> Option<f64> {
        Some(self.baselines.best()? / self.best_latency()?)
    }

    /// Speedup over the baseline on `class`, if both were measured.
    pub fn speedup_over(&self, class: PuClass) -> Option<f64> {
        Some(self.baselines.latency_of(class)? / self.best_latency()?)
    }

    /// Speedup over the CPU-only baseline.
    pub fn speedup_over_cpu(&self) -> Option<f64> {
        self.speedup_over(PuClass::BigCpu)
    }

    /// Speedup over the GPU-only baseline.
    pub fn speedup_over_gpu(&self) -> Option<f64> {
        self.speedup_over(PuClass::Gpu)
    }

    /// The extra speedup autotuning contributed beyond the predicted-best
    /// schedule (the paper measures 1.35× on sparse AlexNet / Pixel).
    pub fn autotuning_gain(&self) -> Option<f64> {
        Some(self.predicted_best_latency()? / self.best_latency()?)
    }
}

impl BetterTogether<SimBackend> {
    /// Binds the framework to a device model and an application model,
    /// measuring through the discrete-event simulator.
    pub fn new(soc: SocSpec, app: AppModel) -> BetterTogether<SimBackend> {
        BetterTogether::with_backend(SimBackend::new(soc, app))
    }

    /// The bound device.
    pub fn soc(&self) -> &SocSpec {
        self.backend.soc()
    }

    /// The bound application model.
    pub fn app(&self) -> &AppModel {
        self.backend.app()
    }
}

impl<B: ExecutionBackend> BetterTogether<B> {
    /// Binds the framework to an arbitrary execution backend.
    pub fn with_backend(backend: B) -> BetterTogether<B> {
        BetterTogether {
            backend,
            cfg: BtConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, cfg: BtConfig) -> BetterTogether<B> {
        self.cfg = cfg;
        self
    }

    /// The execution backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The active configuration.
    pub fn config(&self) -> &BtConfig {
        &self.cfg
    }

    /// Runs BT-Profiler (Fig. 2, step 3).
    pub fn profile(&self) -> ProfilingTable {
        self.backend.profile(self.cfg.profile_mode)
    }

    /// Runs levels 1–2 of BT-Optimizer (Fig. 2, step 4).
    ///
    /// # Errors
    ///
    /// Returns [`BtError`] when no candidate satisfies the constraints.
    pub fn plan(&self) -> Result<Plan, BtError> {
        let table = self.profile();
        let candidates =
            optimize_with(&table, &self.cfg.optimizer, |c| self.backend.schedulable(c))?;
        Ok(Plan { table, candidates })
    }

    /// Autotunes an existing plan (e.g. one deserialized from disk) and
    /// measures baselines, after validating the plan against the backend.
    ///
    /// Backends whose
    /// [`parallel_measure_hint`](ExecutionBackend::parallel_measure_hint)
    /// is set (the simulator, once its runs are long enough to pay for a
    /// worker thread) evaluate the candidate sweep and the baselines on
    /// concurrent worker threads; the deployment is byte-identical to a
    /// serial evaluation either way.
    ///
    /// # Errors
    ///
    /// Returns [`BtError`] if the plan fails validation or a measurement
    /// fails.
    pub fn deploy(&self, plan: Plan) -> Result<Deployment, BtError> {
        plan.validate(&self.backend)?;
        let outcome = autotune(&self.backend, &plan.candidates)?;
        let baselines = measure_baselines(&self.backend)?;
        Ok(Deployment {
            plan,
            outcome,
            baselines,
        })
    }

    /// Runs the full framework: profile → optimize → autotune → compare
    /// against the homogeneous baselines (Fig. 2, steps 3–5).
    ///
    /// # Errors
    ///
    /// Returns [`BtError`] on infeasible constraints or measurement
    /// errors.
    pub fn run(&self) -> Result<Deployment, BtError> {
        self.deploy(self.plan()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_kernels::apps;
    use bt_soc::devices;

    #[test]
    fn end_to_end_octree_on_pixel_beats_baselines() {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let bt = BetterTogether::new(devices::pixel_7a(), app);
        let d = bt.run().unwrap();
        let speedup = d.speedup_over_best_baseline().expect("measured");
        assert!(
            speedup > 1.5,
            "octree on Pixel should speed up well, got {speedup:.2}"
        );
        assert!(d.speedup_over_cpu().expect("cpu baseline") >= speedup);
        assert!(!d.best_schedule().expect("autotuned").is_homogeneous());
        assert!(d.autotuning_gain().expect("measured") >= 1.0 - 1e-9);
    }

    #[test]
    fn end_to_end_works_on_two_class_jetson() {
        let app = apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model();
        let bt = BetterTogether::new(devices::jetson_orin_nano(), app);
        let d = bt.run().unwrap();
        // Modest gains expected on the homogeneous-CPU Jetson (paper §5.1).
        assert!(d.speedup_over_best_baseline().expect("measured") > 0.8);
        assert!(d.plan.candidates.len() <= 20);
    }

    #[test]
    fn plan_orders_candidates_by_prediction() {
        let app = apps::alexnet_dense_app(apps::AlexNetConfig::default()).model();
        let bt = BetterTogether::new(devices::oneplus_11(), app);
        let plan = bt.plan().unwrap();
        assert_eq!(
            plan.predicted_best().expect("non-empty plan").predicted,
            plan.candidates[0].predicted
        );
        for w in plan.candidates.windows(2) {
            assert!(w[0].predicted <= w[1].predicted);
        }
    }

    #[test]
    fn isolated_mode_produces_different_tables() {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let soc = devices::pixel_7a();
        let heavy = BetterTogether::new(soc.clone(), app.clone());
        let iso = BetterTogether::new(soc, app).with_config(BtConfig {
            profile_mode: ProfileMode::Isolated,
            ..BtConfig::default()
        });
        assert_ne!(heavy.profile(), iso.profile());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let plan = BetterTogether::new(devices::jetson_orin_nano(), app)
            .plan()
            .expect("plans");
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: Plan = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.candidates.len(), plan.candidates.len());
        assert_eq!(
            back.predicted_best().expect("non-empty plan").schedule,
            plan.predicted_best().expect("non-empty plan").schedule
        );
        // Floats survive JSON within a ULP; compare cell-wise.
        for s in 0..plan.table.stages().len() {
            for (&a, &b) in back.table.row(s).iter().zip(plan.table.row(s)) {
                assert!((a.as_f64() - b.as_f64()).abs() <= 1e-9 * b.as_f64().abs());
            }
        }
    }

    #[test]
    fn empty_deserialized_plan_has_no_predicted_best() {
        // A plan loaded from disk can have an empty candidate list; it
        // must degrade to `None`, not panic.
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let mut plan = BetterTogether::new(devices::jetson_orin_nano(), app)
            .plan()
            .expect("plans");
        plan.candidates.clear();
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: Plan = serde_json::from_str(&json).expect("deserializes");
        assert!(back.predicted_best().is_none());
    }

    #[test]
    fn stale_plan_is_rejected_before_execution() {
        // A plan cached for one app must not execute against a backend
        // whose app has a different stage count...
        let octree = apps::octree_app(apps::OctreeConfig::default()).model();
        let dense = apps::alexnet_dense_app(apps::AlexNetConfig::default()).model();
        let soc = devices::pixel_7a();
        let plan = BetterTogether::new(soc.clone(), octree)
            .plan()
            .expect("plans");
        let other = BetterTogether::new(soc, dense);
        assert!(matches!(
            other.deploy(plan.clone()),
            Err(BtError::PlanStageMismatch { .. })
        ));
        // ...nor against a device that cannot host a scheduled class.
        let uses_little = plan.candidates.iter().any(|c| {
            c.schedule
                .classes_used()
                .contains(&bt_soc::PuClass::LittleCpu)
        });
        if uses_little {
            let octree = apps::octree_app(apps::OctreeConfig::default()).model();
            let oneplus = BetterTogether::new(devices::oneplus_11(), octree);
            assert!(matches!(
                oneplus.deploy(plan),
                Err(BtError::PlanClassUnavailable(_))
            ));
        }
    }

    #[test]
    fn deterministic_given_config() {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let bt = BetterTogether::new(devices::jetson_orin_nano(), app);
        let a = bt.run().unwrap();
        let b = bt.run().unwrap();
        assert_eq!(a.best_schedule(), b.best_schedule());
        assert_eq!(
            a.best_latency().expect("measured").as_f64(),
            b.best_latency().expect("measured").as_f64()
        );
    }

    #[test]
    fn inconsistent_deployment_degrades_to_none() {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let bt = BetterTogether::new(devices::jetson_orin_nano(), app);
        let mut d = bt.run().unwrap();
        d.outcome.best_index = d.plan.candidates.len() + 5;
        assert!(d.best_schedule().is_none());
        assert!(d.best_latency().is_none());
        assert!(d.speedup_over_best_baseline().is_none());
        assert!(d.autotuning_gain().is_none());
    }
}
