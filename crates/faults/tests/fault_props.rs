//! Property tests of the fault-injection layer: random fault plans must
//! never deadlock the simulators, must conserve tasks
//! (`completed + dropped == submitted`), and must replay bit-identically.

use bt_faults::{FaultDomain, FaultPlan};
use bt_soc::des::ChunkSpec;
use bt_soc::des_dynamic::{simulate_dynamic, simulate_dynamic_dag, DynamicPolicy};
use bt_soc::{
    devices, fnv1a64, simulate_dag, DagPipelineSpec, FaultSpec, PuClass, RunConfig, RunReport,
    SocSpec, WorkProfile,
};
use proptest::prelude::*;

/// The three-chunk chain every static property runs.
fn pipeline(soc: &SocSpec, faults: Option<&FaultSpec>) -> RunReport {
    let chain = DagPipelineSpec::chain(pipeline_chunks());
    simulate_dag(soc, &chain, &cfg(), faults).expect("valid configuration")
}

fn pipeline_chunks() -> Vec<ChunkSpec> {
    vec![
        ChunkSpec::new(
            PuClass::BigCpu,
            vec![
                WorkProfile::new(4.0e6, 1.0e6),
                WorkProfile::new(2.0e6, 5.0e5),
            ],
        ),
        ChunkSpec::new(PuClass::MediumCpu, vec![WorkProfile::new(3.0e6, 8.0e5)]),
        ChunkSpec::new(PuClass::Gpu, vec![WorkProfile::new(8.0e6, 2.0e6)]),
    ]
}

fn cfg() -> RunConfig {
    RunConfig {
        tasks: 25,
        warmup: 3,
        noise_sigma: 0.02,
        seed: 11,
        ..RunConfig::default()
    }
}

fn domain() -> FaultDomain {
    let soc = devices::pixel_7a();
    let reference = pipeline(&soc, None);
    FaultDomain {
        classes: soc.schedulable_classes(),
        chunks: 3,
        stages: 2,
        tasks: 28,
        horizon_us: reference.expect_stats().makespan.as_f64() * 1.5,
        ..FaultDomain::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The static engine under arbitrary plans terminates (reaching the
    /// assertions proves no deadlock) and conserves tasks.
    #[test]
    fn static_engine_conserves_tasks(seed in any::<u64>()) {
        let plan = FaultPlan::random(seed, &domain());
        let soc = devices::pixel_7a();
        let r = pipeline(&soc, Some(&plan.to_spec()));
        prop_assert_eq!(r.completed + r.dropped, r.submitted);
        if let Some(report) = &r.stats {
            prop_assert!(report.makespan.as_f64() > 0.0);
            prop_assert!(report.tasks > 0);
        } else {
            prop_assert_eq!(r.completed, 0, "no report only when nothing completed");
        }
    }

    /// Same plan, same seed ⇒ bit-identical outcome (the artifact-replay
    /// guarantee of the nightly fault matrix).
    #[test]
    fn static_engine_replays_bit_identically(seed in any::<u64>()) {
        let plan = FaultPlan::random(seed, &domain());
        let soc = devices::pixel_7a();
        let a = pipeline(&soc, Some(&plan.to_spec()));
        let b = pipeline(&soc, Some(&plan.to_spec()));
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The dynamic scheduler under arbitrary plans terminates, conserves
    /// tasks, and replays bit-identically under both placement policies.
    #[test]
    fn dynamic_engine_conserves_and_replays(seed in any::<u64>()) {
        let plan = FaultPlan::random(seed, &domain());
        let soc = devices::pixel_7a();
        let stages = [
            WorkProfile::new(4.0e6, 1.0e6),
            WorkProfile::new(3.0e6, 8.0e5),
            WorkProfile::new(8.0e6, 2.0e6),
        ];
        for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
            let a = simulate_dynamic(&soc, &stages, &cfg(), policy, Some(&plan.to_spec()))
                .expect("valid configuration");
            prop_assert_eq!(a.completed + a.dropped, a.submitted);
            let b = simulate_dynamic(&soc, &stages, &cfg(), policy, Some(&plan.to_spec()))
                .expect("valid configuration");
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    /// Plans survive a JSON round trip unchanged — what makes a CI
    /// artifact replayable.
    #[test]
    fn plans_round_trip_through_json(seed in any::<u64>()) {
        let plan = FaultPlan::random(seed, &domain());
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(plan, back);
    }
}

/// Every dynamic-scheduler report over 64 loss-heavy random plans — a
/// chain and a diamond, both placement policies — folded into one FNV
/// digest of their `Debug` output. The golden fixtures pin one plan per
/// shape; this pins the routing around a lost PU and the chunk-less
/// stage-fault and straggler lookups over many.
#[test]
fn dynamic_reports_under_random_loss_plans_are_pinned() {
    let soc = devices::pixel_7a();
    let domain = FaultDomain {
        stages: 4,
        loss_probability: 0.75,
        ..domain()
    };
    let chain = [
        WorkProfile::new(4.0e6, 1.0e6),
        WorkProfile::new(3.0e6, 8.0e5),
        WorkProfile::new(8.0e6, 2.0e6),
    ];
    let diamond = [
        WorkProfile::new(1.0e6, 5.0e5),
        WorkProfile::new(2.0e7, 4.0e6),
        WorkProfile::new(3.0e6, 2.0e6)
            .with_divergence(0.9)
            .with_irregularity(0.8),
        WorkProfile::new(1.0e6, 5.0e5),
    ];
    let diamond_deps = [(0, 1), (0, 2), (1, 3), (2, 3)];
    let mut reports = String::new();
    let mut losses = 0;
    for seed in 0..64 {
        let spec = FaultPlan::random(seed, &domain).to_spec();
        losses += usize::from(!spec.losses.is_empty());
        for policy in [DynamicPolicy::Fifo, DynamicPolicy::BestFit] {
            let r = simulate_dynamic(&soc, &chain, &cfg(), policy, Some(&spec)).expect("chain");
            reports += &format!("{r:?}\n");
            let r =
                simulate_dynamic_dag(&soc, &diamond, &diamond_deps, &cfg(), policy, Some(&spec))
                    .expect("diamond");
            reports += &format!("{r:?}\n");
        }
    }
    assert!(losses >= 32, "only {losses} of 64 plans lose a PU");
    assert_eq!(
        fnv1a64(reports.as_bytes()),
        0x11b2_2092_f095_8bc8,
        "dynamic reports drifted"
    );
}
