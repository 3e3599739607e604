//! # bt-faults — fault injection and runtime resilience
//!
//! The perturbation layer of the reproduction: deterministic, seedable
//! fault plans ([`FaultPlan`]) that compile down to the simulator's
//! [`FaultSpec`] vocabulary, plus a wrapping execution backend
//! ([`FaultyBackend`]) that fails chosen `measure` calls on any
//! substrate — the knobs the nightly fault matrix and the resilience
//! end-to-end tests turn.
//!
//! Everything here is a pure function of `(plan, seed)`: the same plan
//! replayed against the same simulator configuration produces bit-identical
//! outcomes, which is what lets CI upload a failing plan as an artifact and
//! a developer replay it locally.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod admission;

pub use admission::{admit_greedy, AdmissionConfig, AdmissionDecision, AdmissionPolicy, Rejection};

use bt_core::{BtError, CoTenant, ExecutionBackend};
use bt_pipeline::{DagSchedule, Measurement, Schedule};
use bt_profiler::{ProfileMode, ProfilingTable};
use bt_soc::{FaultSpec, PuClass, PuLoss, SlowdownRamp, StageFault, StageFaultKind, Straggler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sampling domain of [`FaultPlan::random`]: what a generated plan is
/// allowed to perturb, expressed in the target workload's terms.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FaultDomain {
    /// PU classes faults may target (slowdowns and losses).
    pub classes: Vec<PuClass>,
    /// Pipeline chunk count (stragglers and stage faults address chunks).
    pub chunks: usize,
    /// Stages per chunk upper bound (stage faults address a stage index).
    pub stages: usize,
    /// Task count of a run (stragglers and stage faults address a task).
    pub tasks: u32,
    /// Virtual-time horizon of a run, µs (onsets are drawn within it).
    pub horizon_us: f64,
    /// Upper bound on slowdown/straggler factors.
    pub max_factor: f64,
    /// Probability that a generated plan includes a PU loss.
    pub loss_probability: f64,
}

impl Default for FaultDomain {
    fn default() -> FaultDomain {
        FaultDomain {
            classes: vec![PuClass::BigCpu, PuClass::MediumCpu, PuClass::Gpu],
            chunks: 4,
            stages: 4,
            tasks: 33,
            horizon_us: 5.0e5,
            max_factor: 4.0,
            loss_probability: 0.15,
        }
    }
}

/// A deterministic, seedable fault scenario: the policy layer over the
/// simulator's mechanism-level [`FaultSpec`]. Serializable so failing
/// scenarios can be uploaded as CI artifacts and replayed verbatim.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// The seed this plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The perturbations, in the simulator's vocabulary.
    pub spec: FaultSpec,
}

impl FaultPlan {
    /// The empty plan: injecting it leaves every run bit-identical to an
    /// unfaulted one.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            spec: FaultSpec::none(),
        }
    }

    /// Generates a random plan from `seed`, sampling within `domain`.
    /// Pure: the same `(seed, domain)` always yields the same plan.
    pub fn random(seed: u64, domain: &FaultDomain) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6661_756c_7473_2121);
        let mut spec = FaultSpec::none();
        let classes = &domain.classes;
        if classes.is_empty() || domain.chunks == 0 || domain.tasks == 0 {
            return FaultPlan { seed, spec };
        }

        for _ in 0..rng.gen_range(0usize..=2) {
            let start_us = rng.gen_range(0.0..domain.horizon_us);
            spec.slowdowns.push(SlowdownRamp {
                class: classes[rng.gen_range(0..classes.len())],
                start_us,
                ramp_us: rng.gen_range(0.0..domain.horizon_us / 4.0),
                factor: rng.gen_range(1.1..domain.max_factor.max(1.2)),
            });
        }
        for _ in 0..rng.gen_range(0usize..=2) {
            spec.stragglers.push(Straggler {
                chunk: rng.gen_range(0..domain.chunks),
                task: rng.gen_range(0..domain.tasks as usize),
                factor: rng.gen_range(1.5..2.0 * domain.max_factor.max(1.0)),
            });
        }
        for _ in 0..rng.gen_range(0usize..=2) {
            let kind = if rng.gen_bool(0.5) {
                StageFaultKind::Error
            } else {
                StageFaultKind::Timeout {
                    extra_us: rng.gen_range(domain.horizon_us / 100.0..domain.horizon_us / 10.0),
                }
            };
            spec.stage_faults.push(StageFault {
                chunk: rng.gen_range(0..domain.chunks),
                task: rng.gen_range(0..domain.tasks as usize),
                stage: rng.gen_range(0..domain.stages.max(1)),
                kind,
            });
        }
        if rng.gen_bool(domain.loss_probability.clamp(0.0, 1.0)) {
            // Losses start no earlier than a quarter of the horizon so a
            // random plan usually leaves a measurable prefix.
            spec.losses.push(PuLoss {
                class: classes[rng.gen_range(0..classes.len())],
                at_us: rng.gen_range(domain.horizon_us / 4.0..domain.horizon_us),
            });
        }
        FaultPlan { seed, spec }
    }

    /// The mechanism-level spec to hand to the simulator or a backend.
    pub fn to_spec(&self) -> FaultSpec {
        self.spec.clone()
    }

    /// Whether the plan perturbs anything at all.
    pub fn is_empty(&self) -> bool {
        self.spec.is_empty()
    }
}

/// An [`ExecutionBackend`] decorator that fails measurements on chosen
/// run indices of `measure`, `measure_batch` and `measure_dag`
/// ([`BtError::InjectedFault`]). Profiling, baselines and co-runs pass
/// through untouched.
///
/// Works over any inner backend — the host runtime included — which is
/// what makes the resilience tests substrate-agnostic.
#[derive(Debug, Clone)]
pub struct FaultyBackend<B> {
    inner: B,
    fail_runs: Vec<u64>,
}

impl<B: ExecutionBackend> FaultyBackend<B> {
    /// Wraps `inner` with no perturbations armed.
    pub fn new(inner: B) -> FaultyBackend<B> {
        FaultyBackend {
            inner,
            fail_runs: Vec::new(),
        }
    }

    /// Arms deliberate measurement failures on the given run indices.
    pub fn fail_on_runs(mut self, runs: Vec<u64>) -> FaultyBackend<B> {
        self.fail_runs = runs;
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The perturbation of one measurement over `run_indices`: the first
    /// armed index fails it.
    fn perturb(&self, run_indices: &[u64]) -> Result<(), BtError> {
        match run_indices.iter().find(|i| self.fail_runs.contains(i)) {
            Some(&run_index) => Err(BtError::InjectedFault { run_index }),
            None => Ok(()),
        }
    }
}

impl<B: ExecutionBackend> ExecutionBackend for FaultyBackend<B> {
    fn name(&self) -> &str {
        "faulty"
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
        self.inner.profile(mode)
    }

    fn measure(&self, schedule: &Schedule, run_index: u64) -> Result<Measurement, BtError> {
        self.perturb(&[run_index])?;
        self.inner.measure(schedule, run_index)
    }

    fn measure_batch(
        &self,
        schedule: &Schedule,
        run_indices: &[u64],
    ) -> Result<Vec<Measurement>, BtError> {
        // An armed failure anywhere in the batch fails the whole batch —
        // the batched contract ("all measurements or a typed error").
        self.perturb(run_indices)?;
        self.inner.measure_batch(schedule, run_indices)
    }

    fn measure_dag(&self, schedule: &DagSchedule, run_index: u64) -> Result<Measurement, BtError> {
        self.perturb(&[run_index])?;
        self.inner.measure_dag(schedule, run_index)
    }

    fn measure_baseline(&self, class: PuClass) -> Result<Measurement, BtError> {
        self.inner.measure_baseline(class)
    }

    fn measure_multi(&self, tenants: &[CoTenant]) -> Result<Vec<Measurement>, BtError> {
        // A co-run has no run index to arm a failure against.
        self.inner.measure_multi(tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_core::SimBackend;
    use bt_kernels::apps;
    use bt_soc::devices;

    fn sim() -> SimBackend {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        SimBackend::new(devices::pixel_7a(), app)
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let d = FaultDomain::default();
        let a = FaultPlan::random(17, &d);
        let b = FaultPlan::random(17, &d);
        assert_eq!(a, b);
        let c = FaultPlan::random(18, &d);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::random(42, &FaultDomain::default());
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(plan, back);
    }

    #[test]
    fn degenerate_domain_yields_empty_plan() {
        let d = FaultDomain {
            classes: Vec::new(),
            ..FaultDomain::default()
        };
        assert!(FaultPlan::random(7, &d).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn faulty_backend_fails_armed_runs_only() {
        let b = FaultyBackend::new(sim()).fail_on_runs(vec![1]);
        let s = Schedule::homogeneous(7, PuClass::BigCpu);
        assert!(b.measure(&s, 0).is_ok());
        assert!(matches!(
            b.measure(&s, 1),
            Err(BtError::InjectedFault { run_index: 1 })
        ));
        assert!(b.measure(&s, 2).is_ok());
    }

    #[test]
    fn faulty_backend_batch_fails_as_a_unit() {
        let b = FaultyBackend::new(sim()).fail_on_runs(vec![2]);
        let s = Schedule::homogeneous(7, PuClass::BigCpu);
        assert_eq!(b.measure_batch(&s, &[0, 1]).unwrap().len(), 2);
        assert!(matches!(
            b.measure_batch(&s, &[0, 2, 3]),
            Err(BtError::InjectedFault { run_index: 2 })
        ));
    }

    #[test]
    fn faulty_backend_forwards_dag_measurements_under_the_armed_rule() {
        use PuClass::*;
        let app = apps::perception_app(apps::PerceptionConfig::default()).model();
        let inner = SimBackend::new(devices::pixel_7a(), app.clone());
        let s = DagSchedule::new(
            vec![LittleCpu, Gpu, Gpu, BigCpu, BigCpu, MediumCpu, MediumCpu],
            &app.task_graph(),
        )
        .unwrap();
        let b = FaultyBackend::new(inner.clone()).fail_on_runs(vec![1]);
        assert_eq!(
            format!("{:?}", b.measure_dag(&s, 0).unwrap()),
            format!("{:?}", inner.measure_dag(&s, 0).unwrap())
        );
        assert!(matches!(
            b.measure_dag(&s, 1),
            Err(BtError::InjectedFault { run_index: 1 })
        ));
    }

    #[test]
    fn faulty_backend_delegates_shape() {
        let inner = sim();
        let stages = inner.stage_count();
        let b = FaultyBackend::new(inner);
        assert_eq!(b.name(), "faulty");
        assert_eq!(b.stage_count(), stages);
        assert!(b.schedulable(PuClass::BigCpu));
        let s = Schedule::homogeneous(7, PuClass::BigCpu);
        assert!(b.measure(&s, 0).is_ok());
        assert!(b.measure_baseline(PuClass::Gpu).is_ok());
    }
}
