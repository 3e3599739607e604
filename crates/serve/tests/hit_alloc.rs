//! Pins the allocation-free cache-hit guarantee with an instrumented
//! global allocator: once a plan is cached, serving it again performs
//! **zero** heap allocations — the lookup is binary searches over the
//! sorted name tables, a read of the serving cell's stored plan key, one
//! cache probe, and an `Arc` refcount bump.
//!
//! This file deliberately holds a single test: the allocation counter is
//! process-global, so a concurrently running allocating test would alias
//! into the bracketed section.

use bt_serve::{CountingAlloc, PlanObjective, PlanRequest, PlanService, ServeConfig};
use bt_soc::PuClass;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn cache_hits_do_not_allocate() {
    let mut cfg = ServeConfig::default();
    cfg.profiler.reps = 3;
    cfg.run.tasks = 10;
    cfg.run.warmup = 2;
    cfg.eval_lanes = 2;
    let service = PlanService::builtin(cfg);

    // Warm: one solve populates both objectives; a benign 10%-drift
    // history exercises the drift comparison on the hit path too.
    let history = [(PuClass::BigCpu, 1.05)];
    let requests = [
        PlanRequest {
            device: "pixel_7a",
            app: "octree",
            input_scale: 1.0,
            fault_history: &[],
            objective: PlanObjective::MinLatency,
        },
        PlanRequest {
            device: "pixel_7a",
            app: "octree",
            input_scale: 1.0,
            fault_history: &history,
            objective: PlanObjective::MinEnergy,
        },
    ];
    for r in &requests {
        service.serve(r).expect("warm solve");
        // Touch the hit path once before measuring so any lazy one-time
        // initialization (lock poisoning flags, TLS) has happened.
        service.serve(r).expect("warm hit");
    }

    let before = CountingAlloc::allocations();
    for _ in 0..1000 {
        for r in &requests {
            let resp = service.serve(r).expect("hit");
            assert_eq!(resp.from, bt_serve::ServedFrom::Cache);
        }
    }
    let allocated = CountingAlloc::allocations() - before;
    assert_eq!(
        allocated, 0,
        "cache-hit path allocated {allocated} times over 2000 hits"
    );
}
