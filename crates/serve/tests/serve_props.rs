//! Property tests for the serving layer:
//!
//! 1. **Hit/cold byte-identity** — for random (device, app, objective,
//!    scale) triples, a warm service's concurrent cache hits serialize
//!    byte-identically to a cold solve of the same request on a fresh
//!    service. The cache can change *when* work happens, never *what* is
//!    answered.
//! 2. **Drift re-solves** — a drift-triggered invalidation must re-solve
//!    against the rescaled table rather than serve the stale plan, and
//!    the stale artifact must be content-unreachable under the new
//!    signature.
//! 3. **Bounded cache** — however a cell drifts, it owns at most its
//!    base and current signatures' plans, and every plan ever inserted
//!    is either cached or counted as evicted.

use std::sync::Arc;

use bt_serve::{PlanObjective, PlanRequest, PlanService, ServeConfig};
use bt_soc::PuClass;
use proptest::prelude::*;

const DEVICES: [&str; 4] = [
    "pixel_7a",
    "oneplus_11",
    "jetson_orin_nano",
    "jetson_orin_nano_lp",
];
const APPS: [&str; 3] = ["octree", "alexnet-dense", "alexnet-sparse"];
const SCALES: [f64; 3] = [0.5, 1.0, 2.0];

/// Cheap-but-real service config (small profiling reps, short DES runs)
/// so each proptest case stays in the low milliseconds.
fn quick_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.profiler.reps = 3;
    cfg.run.tasks = 10;
    cfg.run.warmup = 2;
    cfg.eval_lanes = 2;
    cfg
}

fn spec_for(name: &str) -> bt_soc::SocSpec {
    match name {
        "pixel_7a" => bt_soc::devices::pixel_7a(),
        "oneplus_11" => bt_soc::devices::oneplus_11(),
        "jetson_orin_nano" => bt_soc::devices::jetson_orin_nano(),
        "jetson_orin_nano_lp" => bt_soc::devices::jetson_orin_nano_lp(),
        other => panic!("unknown test device {other}"),
    }
}

fn objective(bit: bool) -> PlanObjective {
    if bit {
        PlanObjective::MinLatency
    } else {
        PlanObjective::MinEnergy
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn concurrent_hits_are_byte_identical_to_a_cold_solve(
        device_idx in 0..DEVICES.len(),
        app_idx in 0..APPS.len(),
        scale_idx in 0..SCALES.len(),
        objective_bit in any::<bool>(),
    ) {
        let request = PlanRequest {
            device: DEVICES[device_idx],
            app: APPS[app_idx],
            input_scale: SCALES[scale_idx],
            fault_history: &[],
            objective: objective(objective_bit),
        };

        // Fresh service, one cold solve: the reference bytes.
        let reference = PlanService::builtin(quick_cfg())
            .serve(&request).unwrap()
            .artifact
            .to_json();

        // Warm service: solve once, then hammer it from several threads.
        let warm = PlanService::builtin(quick_cfg());
        warm.serve(&request).unwrap();
        let served: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let warm = &warm;
                    let request = &request;
                    scope.spawn(move || {
                        (0..8)
                            .map(|_| warm.serve(request).unwrap().artifact.to_json())
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        prop_assert_eq!(warm.stats().solves, 1, "hits must never re-solve");
        for bytes in served {
            prop_assert_eq!(&bytes, &reference);
        }
    }

    #[test]
    fn drift_resolves_rather_than_serving_stale(
        device_idx in 0..DEVICES.len(),
        app_idx in 0..APPS.len(),
        factor in 2.0f64..8.0,
        class_idx in 0..PuClass::COUNT,
    ) {
        // Drift on a class the device cannot schedule is (by design) a
        // no-op, so pick from the classes this device actually prices.
        let schedulable = spec_for(DEVICES[device_idx]).schedulable_classes();
        let class = schedulable[class_idx % schedulable.len()];
        let base = PlanRequest {
            device: DEVICES[device_idx],
            app: APPS[app_idx],
            input_scale: 1.0,
            fault_history: &[],
            objective: PlanObjective::MinLatency,
        };
        let service = PlanService::builtin(quick_cfg());
        let pristine = service.serve(&base).unwrap();

        let history = [(class, factor)];
        let drifted = service.serve(&PlanRequest { fault_history: &history, ..base }).unwrap();

        // The invalidation re-solved against a rescaled table: new
        // signature, new cache key, one more solve, one recorded
        // invalidation — never the stale artifact verbatim.
        let stats = service.stats();
        prop_assert_eq!(stats.solves, 2);
        prop_assert_eq!(stats.invalidations, 1);
        prop_assert_ne!(drifted.artifact.table_sig, pristine.artifact.table_sig);
        prop_assert_ne!(
            (drifted.artifact.key_hi, drifted.artifact.key_lo),
            (pristine.artifact.key_hi, pristine.artifact.key_lo)
        );
        prop_assert!(!Arc::ptr_eq(&drifted.artifact, &pristine.artifact));

        // Serving the drifted history again is a cache hit on the new
        // cell — the re-solve is remembered, not repeated.
        let again = service.serve(&PlanRequest { fault_history: &history, ..base }).unwrap();
        prop_assert_eq!(service.stats().solves, 2);
        prop_assert!(Arc::ptr_eq(&again.artifact, &drifted.artifact));
    }

    #[test]
    fn a_cell_never_owns_more_than_base_and_current_plans(
        factors in proptest::collection::vec(0.5f64..20.0, 1..12),
        objective_bits in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let service = PlanService::builtin(quick_cfg());
        for (factor, bit) in factors.iter().zip(objective_bits) {
            let history = [(PuClass::BigCpu, *factor)];
            service.serve(&PlanRequest {
                device: "pixel_7a",
                app: "octree",
                input_scale: 1.0,
                fault_history: &history,
                objective: objective(bit),
            }).unwrap();
            let stats = service.stats();
            // Two objectives per signature, two signatures per cell.
            prop_assert!(stats.plans <= 4, "{stats:?}");
            // Every solve inserts one plan per objective.
            prop_assert_eq!(stats.plans as u64, 2 * stats.solves - stats.evictions);
        }
    }
}
