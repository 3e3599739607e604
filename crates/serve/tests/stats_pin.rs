//! Pins the observable behaviour of the cache-hit path: one scripted
//! request sequence through every transition a serving cell makes, with
//! the exact [`ServeStats`] after each step and the artifact identities
//! the cache promises.
//!
//! The sequence: a warm solve, hits on both objectives, a small-drift
//! hit, a drift cold solve and a hit under that drift, a second drift
//! that evicts the first, a recovery that serves the pristine plan with
//! no solve, a re-fault of the evicted factor, and a request for an
//! input-scale bucket the service has never seen.

use std::sync::Arc;

use bt_serve::{PlanObjective, PlanRequest, PlanService, ServeConfig, ServeStats, ServedFrom};
use bt_soc::PuClass;

fn quick_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.profiler.reps = 3;
    cfg.run.tasks = 10;
    cfg.run.warmup = 2;
    cfg.eval_lanes = 2;
    cfg
}

fn request<'a>(history: &'a [(PuClass, f64)], objective: PlanObjective) -> PlanRequest<'a> {
    PlanRequest {
        device: "pixel_7a",
        app: "octree",
        input_scale: 1.0,
        fault_history: history,
        objective,
    }
}

fn stats(
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
    solves: u64,
    cells: usize,
    plans: usize,
) -> ServeStats {
    ServeStats {
        hits,
        misses,
        invalidations,
        evictions,
        solves,
        cells,
        plans,
    }
}

#[test]
fn a_scripted_request_sequence_moves_the_counters_exactly() {
    use PlanObjective::{MinEnergy, MinLatency};
    let service = PlanService::builtin(quick_cfg());
    let serve = |history: &[(PuClass, f64)], objective| {
        service
            .serve(&request(history, objective))
            .expect("request serves")
    };

    // Warm: one cold solve fills both objectives of the new cell.
    let pristine = serve(&[], MinLatency);
    assert_eq!(pristine.from, ServedFrom::ColdSolve);
    assert_eq!(service.stats(), stats(0, 1, 0, 0, 1, 1, 2));

    // Hits on both objectives; the latency hit is the warm artifact.
    let hit = serve(&[], MinLatency);
    assert_eq!(hit.from, ServedFrom::Cache);
    assert!(Arc::ptr_eq(&hit.artifact, &pristine.artifact));
    let pristine_energy = serve(&[], MinEnergy);
    assert_eq!(pristine_energy.from, ServedFrom::Cache);
    assert_eq!(
        pristine_energy.artifact.table_sig,
        pristine.artifact.table_sig
    );
    assert_eq!(service.stats(), stats(2, 1, 0, 0, 1, 1, 2));

    // A 10 % slowdown sits inside the drift threshold: still a hit.
    let small = serve(&[(PuClass::BigCpu, 1.1)], MinLatency);
    assert_eq!(small.from, ServedFrom::Cache);
    assert!(Arc::ptr_eq(&small.artifact, &pristine.artifact));
    assert_eq!(service.stats(), stats(3, 1, 0, 0, 1, 1, 2));

    // A 4× slowdown invalidates the cell and re-solves; the base plans
    // stay, so the cell now owns four.
    let slow4 = [(PuClass::BigCpu, 4.0)];
    let drift4 = serve(&slow4, MinLatency);
    assert_eq!(drift4.from, ServedFrom::ColdSolve);
    assert_ne!(drift4.artifact.table_sig, pristine.artifact.table_sig);
    assert_eq!(service.stats(), stats(3, 2, 1, 0, 2, 1, 4));

    // The same drift on the other objective is a hit on the new plans.
    let drift4_energy = serve(&slow4, MinEnergy);
    assert_eq!(drift4_energy.from, ServedFrom::Cache);
    assert_eq!(drift4_energy.artifact.table_sig, drift4.artifact.table_sig);
    assert_eq!(service.stats(), stats(4, 2, 1, 0, 2, 1, 4));

    // A 2× slowdown moves the cell again and evicts the 4× plans.
    let drift2 = serve(&[(PuClass::BigCpu, 2.0)], MinLatency);
    assert_eq!(drift2.from, ServedFrom::ColdSolve);
    assert_eq!(service.stats(), stats(4, 3, 2, 2, 3, 1, 4));

    // Recovery: the cell returns to its base signature, whose plans were
    // never evicted, so the pristine artifact comes back with no solve.
    // The 2× plans go.
    let recovered = serve(&[], MinLatency);
    assert_eq!(recovered.from, ServedFrom::ColdSolve);
    assert!(Arc::ptr_eq(&recovered.artifact, &pristine.artifact));
    assert_eq!(service.stats(), stats(4, 4, 3, 4, 3, 1, 2));
    let recovered_energy = serve(&[], MinEnergy);
    assert_eq!(recovered_energy.from, ServedFrom::Cache);
    assert!(Arc::ptr_eq(
        &recovered_energy.artifact,
        &pristine_energy.artifact
    ));
    assert_eq!(service.stats(), stats(5, 4, 3, 4, 3, 1, 2));

    // Re-faulting the evicted 4× factor re-solves to the same content
    // under a later solve index.
    let again4 = serve(&slow4, MinLatency);
    assert_eq!(again4.from, ServedFrom::ColdSolve);
    assert!(!Arc::ptr_eq(&again4.artifact, &drift4.artifact));
    assert_eq!(again4.artifact.assignment, drift4.artifact.assignment);
    assert_eq!(again4.artifact.table_sig, drift4.artifact.table_sig);
    assert_eq!(
        (again4.artifact.key_hi, again4.artifact.key_lo),
        (drift4.artifact.key_hi, drift4.artifact.key_lo)
    );
    assert!(again4.artifact.solve_index > drift4.artifact.solve_index);
    assert_eq!(service.stats(), stats(5, 5, 4, 4, 4, 1, 4));

    // A bucket with no cell yet: a miss that profiles a second cell.
    let scaled = PlanRequest {
        input_scale: 2.0,
        ..request(&[], MinLatency)
    };
    let cold_bucket = service.serve(&scaled).expect("new bucket serves");
    assert_eq!(cold_bucket.from, ServedFrom::ColdSolve);
    assert_eq!(service.stats(), stats(5, 6, 4, 4, 5, 2, 6));
    let bucket_hit = service.serve(&scaled).expect("bucket hit");
    assert_eq!(bucket_hit.from, ServedFrom::Cache);
    assert!(Arc::ptr_eq(&bucket_hit.artifact, &cold_bucket.artifact));
    assert_eq!(service.stats(), stats(6, 6, 4, 4, 5, 2, 6));
}
