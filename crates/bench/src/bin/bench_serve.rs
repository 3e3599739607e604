//! **Serving-layer benchmark**: measures `bt-serve` the way a fleet would
//! load it — a burst of cold plan requests across every registered device
//! and app (batched, so identical content is solved once), then a
//! steady-state cache-hit loop with per-request latency percentiles and an
//! instrumented global allocator proving the hit path never allocates.
//!
//! Writes `BENCH_serve.json` at the repository root so CI can upload it
//! and diff the serving trajectory across commits.
//!
//! `--smoke` shrinks the fleet and iteration counts for CI; the JSON shape
//! is unchanged. `--gate` exits non-zero if cold throughput falls below
//! the machine-aware floor (10k plans/s at ≥ 4 threads, scaled down
//! pro-rata on smaller runners) or if the hit loop allocated at all.

use std::time::Instant;

use bt_serve::{CountingAlloc, PlanObjective, PlanRequest, PlanService, ServeConfig, ServedFrom};
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[derive(Serialize)]
struct Fleet {
    devices: usize,
    apps: usize,
    scales: usize,
    objectives: usize,
    /// Clients per unique (device, app, scale, objective) content — the
    /// fleet-duplication factor of the cold burst.
    replication: usize,
}

#[derive(Serialize)]
struct ColdBurst {
    requests: usize,
    /// Unique solves the batched burst collapsed those requests into.
    solves: u64,
    elapsed_ms: f64,
    plans_per_sec: f64,
    solves_per_sec: f64,
}

#[derive(Serialize)]
struct HitLoop {
    iterations: usize,
    p50_ns: f64,
    p99_ns: f64,
    /// Heap allocations across the whole loop (gated == 0).
    allocations: u64,
}

#[derive(Serialize)]
struct BenchServe {
    smoke: bool,
    threads: usize,
    /// The machine-aware cold-throughput floor this run is held to.
    floor_plans_per_sec: f64,
    fleet: Fleet,
    cold: ColdBurst,
    hit: HitLoop,
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate = std::env::args().any(|a| a == "--gate");
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut cfg = ServeConfig::default();
    if smoke {
        cfg.profiler.reps = 3;
        cfg.run.tasks = 10;
        cfg.run.warmup = 2;
        cfg.eval_lanes = 2;
    }
    let mut service = PlanService::builtin(cfg);
    let devices_dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("devices");
    service
        .load_devices(&devices_dir)
        .expect("device fleet loads");
    let service = service;

    let device_names: Vec<String> = service
        .registry()
        .entries()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    let app_names: Vec<String> = service.app_names().into_iter().map(str::to_owned).collect();
    let scales: &[f64] = if smoke { &[1.0] } else { &[1.0, 2.0] };
    let objectives = [PlanObjective::MinLatency, PlanObjective::MinEnergy];
    let replication: usize = if smoke { 8 } else { 32 };

    let mut burst: Vec<PlanRequest<'_>> = Vec::new();
    for d in &device_names {
        for a in &app_names {
            for &s in scales {
                for &o in &objectives {
                    for _ in 0..replication {
                        burst.push(PlanRequest {
                            device: d,
                            app: a,
                            input_scale: s,
                            fault_history: &[],
                            objective: o,
                        });
                    }
                }
            }
        }
    }
    println!(
        "bt-serve fleet burst — {} devices x {} apps x {} scales x {} objectives x {} clients \
         = {} requests{}",
        device_names.len(),
        app_names.len(),
        scales.len(),
        objectives.len(),
        replication,
        burst.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // --- Warm pass (untimed): profile every serving cell. ---------------
    // Profiling cost is a property of the simulator, not of the serving
    // layer; the cold metric prices solve + batched DES evaluation.
    service.serve_batch(&burst).expect("warm pass");
    service.clear_plans();

    // --- Cold burst: every plan content must be re-solved. --------------
    let solves_before = service.stats().solves;
    let t0 = Instant::now();
    let responses = service.serve_batch(&burst).expect("cold burst");
    let elapsed = t0.elapsed().as_secs_f64();
    let solves = service.stats().solves - solves_before;
    assert!(
        responses.len() == burst.len(),
        "every request must be answered"
    );
    let cold = ColdBurst {
        requests: burst.len(),
        solves,
        elapsed_ms: elapsed * 1e3,
        plans_per_sec: burst.len() as f64 / elapsed,
        solves_per_sec: solves as f64 / elapsed,
    };
    println!(
        "cold burst:   {} requests in {:8.2} ms   {:10.0} plans/s   \
         ({} unique solves, {:.0} solves/s)",
        cold.requests, cold.elapsed_ms, cold.plans_per_sec, cold.solves, cold.solves_per_sec
    );

    // --- Steady-state hits: per-request latency + allocation count. -----
    let hit_iters: usize = if smoke { 2_000 } else { 20_000 };
    let probes: Vec<&PlanRequest<'_>> = burst
        .iter()
        .step_by(replication)
        .take(if smoke { 4 } else { 16 })
        .collect();
    // Touch every probe once so lazy one-time initialization (TLS, lock
    // flags) happens outside the measured bracket.
    for p in &probes {
        assert!(service.serve(p).expect("probe hit").from == ServedFrom::Cache);
    }
    let mut samples_ns: Vec<u64> = Vec::with_capacity(hit_iters);
    let allocs_before = CountingAlloc::allocations();
    for i in 0..hit_iters {
        let p = probes[i % probes.len()];
        let t = Instant::now();
        let resp = service.serve(p).expect("hit");
        let ns = t.elapsed().as_nanos() as u64;
        assert!(resp.from == ServedFrom::Cache, "hit loop must not re-solve");
        samples_ns.push(ns);
    }
    let allocations = CountingAlloc::allocations() - allocs_before;
    samples_ns.sort_unstable();
    let hit = HitLoop {
        iterations: hit_iters,
        p50_ns: percentile(&samples_ns, 0.50),
        p99_ns: percentile(&samples_ns, 0.99),
        allocations,
    };
    println!(
        "cache hits:   {} iterations   p50 {:7.0} ns   p99 {:7.0} ns   {} allocation(s)",
        hit.iterations, hit.p50_ns, hit.p99_ns, hit.allocations
    );

    // Machine-aware floor: the 10k figure assumes ≥ 4 worker threads;
    // smaller runners are held to a pro-rata share so the gate still
    // means something there.
    let floor = if threads >= 4 {
        10_000.0
    } else {
        10_000.0 * threads as f64 / 4.0
    };

    let plans_per_sec = cold.plans_per_sec;
    bt_bench::write_root_result(
        "BENCH_serve",
        &BenchServe {
            smoke,
            threads,
            floor_plans_per_sec: floor,
            fleet: Fleet {
                devices: device_names.len(),
                apps: app_names.len(),
                scales: scales.len(),
                objectives: objectives.len(),
                replication,
            },
            cold,
            hit,
        },
    );

    if gate {
        if plans_per_sec < floor {
            eprintln!(
                "gate: FAIL — cold throughput {plans_per_sec:.0} plans/s is below the \
                 machine-aware floor {floor:.0} plans/s ({threads} thread(s))"
            );
            std::process::exit(1);
        }
        if allocations != 0 {
            eprintln!(
                "gate: FAIL — cache-hit loop performed {allocations} heap allocation(s); \
                 the hit path must be allocation-free"
            );
            std::process::exit(1);
        }
        println!(
            "gate: pass (cold {plans_per_sec:.0} plans/s >= {floor:.0} floor on {threads} \
             thread(s), hit path allocation-free)"
        );
    }
}
