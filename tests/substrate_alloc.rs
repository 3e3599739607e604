//! Pins the runtime substrate's zero-steady-state-allocation guarantee:
//! once a pipeline's rings and TaskObject pool exist, pushing, popping,
//! and recycling allocate nothing — the property that makes `bt-rt`
//! honest as an MCU-class (`no_std + alloc`) substrate, where a hidden
//! per-task allocation would fragment a tiny heap.
//!
//! The same counter pins the exact DAG enumerator: it generates the valid
//! schedules into reused buffers, so one call allocates a constant number
//! of times however many schedules it emits. It bounds the exact DAG
//! top-K, which lowers only its final K schedules, the lowering itself
//! (`DagSchedule::new`) and the optimizer's `StageDag::new`, both on the
//! stage-graph kernel's stack masks, and the SAT top-K
//! (𝒦 = 20 blocking-clause rounds): the CDCL engine keeps its clauses in
//! one arena and reuses its propagation and conflict-analysis buffers, and
//! the exact chain top-K with the utilization filter inside its search. It
//! bounds the DES's DAG routing too: the gate and the dynamic dispatcher
//! read the stage-graph kernel's masks and allocate nothing for the graph,
//! and a noise lane's first run adds only its prefix in the lane table.
//!
//! Uses the same process-global [`CountingAlloc`] as the serve crate's
//! cache-hit guarantee. Counting is global and monotonic, so everything
//! is bracketed inside ONE test function — adding more `#[test]`s to
//! this file would race the counter under the parallel test harness.

use bettertogether::core::{
    build_dag_problem, optimize_dag, optimize_with, ExecutionBackend, OptimizerConfig, SimBackend,
    SolverEngine,
};
use bettertogether::kernels::apps;
use bettertogether::profiler::ProfileMode;
use bettertogether::rt::spsc;
use bettertogether::rt::{DagSchedule, StaticRing, TaskObject, UsmBuffer};
use bettertogether::serve::CountingAlloc;
use bettertogether::soc::des::ChunkSpec;
use bettertogether::soc::des_dynamic::{simulate_dynamic_dag, DynamicPolicy};
use bettertogether::soc::{
    devices, simulate_dag, DagPipelineSpec, PuClass, RunConfig, WorkProfile,
};
use bettertogether::solver::enumerate::for_each_schedule;
use bettertogether::solver::StageDag;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

static RING: StaticRing<u64, 8> = StaticRing::new();

#[test]
fn steady_state_push_pop_recycle_never_allocates() {
    // --- Setup (allocates freely): heap ring + TaskObject pool. ---
    let (mut tx, mut rx) =
        spsc::channel::<Box<TaskObject<UsmBuffer<f32>>>>(4).expect("positive capacity");
    let mut pool: Vec<Box<TaskObject<UsmBuffer<f32>>>> = (0..4)
        .map(|_| {
            let mut usm = UsmBuffer::with_capacity(256);
            usm.resize(256);
            Box::new(TaskObject::new(usm))
        })
        .collect();
    let (mut stx, mut srx) = RING.split().expect("first split");
    // The harness's main thread allocates as it starts waiting for this
    // test's thread; let it get there before counting.
    std::thread::sleep(std::time::Duration::from_millis(50));

    // --- Steady state: circulate the pool through the heap ring. ---
    let before = CountingAlloc::allocations();
    for seq in 0..10_000u64 {
        let mut task = pool.pop().expect("pool refilled every iteration");
        task.recycle(seq);
        // Vary the working length within capacity, as recycled USM
        // buffers do across tasks of different sizes.
        task.payload.resize(64 + (seq as usize % 192));
        task.payload.as_mut_slice()[0] = seq as f32;
        assert!(tx.push(task).is_ok(), "ring has room");
        pool.push(rx.pop().expect("just pushed"));
    }
    // --- Steady state: the const-generic static ring. ---
    for i in 0..10_000u64 {
        stx.push(i).expect("room");
        assert_eq!(srx.pop(), Some(i));
    }
    let after = CountingAlloc::allocations();

    assert_eq!(
        after - before,
        0,
        "push/pop/recycle must not allocate in steady state"
    );
    assert_eq!(pool.len(), 4, "every TaskObject returned to the pool");
    assert_eq!(
        pool.iter().map(|t| t.payload.reallocations()).max(),
        Some(0),
        "within-capacity USM resizes never reallocate"
    );

    // --- The general arm of the exact enumerator: per call, not per
    // schedule (2 308 valid of 4⁷ on the Pixel, 279 of 3⁷ on the OnePlus).
    let app = apps::perception_app(apps::PerceptionConfig::default()).model();
    let graph = app.task_graph();
    let [pixel, oneplus] = [devices::pixel_7a(), devices::oneplus_11()].map(|soc| {
        let table =
            SimBackend::new(soc.clone(), app.clone()).profile(ProfileMode::InterferenceHeavy);
        let problem = build_dag_problem(&soc, &table, &graph).expect("perception problem");
        let (before, mut schedules) = (CountingAlloc::allocations(), 0);
        for_each_schedule(&problem, |_, _| schedules += 1);
        (schedules, CountingAlloc::allocations() - before)
    });
    assert_eq!((pixel.0, oneplus.0), (2308, 279));
    assert_eq!(
        pixel.1, oneplus.1,
        "allocations must not grow with schedules"
    );
    assert!(pixel.1 <= 8, "{} allocations in one enumeration", pixel.1);

    // --- The exact top-K on pixel_7a × perception (K = 10, no filter):
    // 3 664 allocations when every schedule entering the running top-K
    // was lowered to a `DagSchedule`, 762 when the search is bounded by
    // the K-th best T_max and only the final K are lowered, 724 with a
    // sorted `Vec` per stage in every lowering, and 149 once lowering
    // runs on stack masks and the top-K prices each newcomer into the
    // buffers of the schedule it evicts.
    let soc = devices::pixel_7a();
    let table = SimBackend::new(soc.clone(), app).profile(ProfileMode::InterferenceHeavy);
    let cfg = OptimizerConfig {
        candidates: 10,
        ..OptimizerConfig::with_threshold(0.0)
    };
    let before = CountingAlloc::allocations();
    let cands = optimize_dag(&soc, &table, &graph, &cfg).expect("perception plans on the Pixel");
    let dag_allocs = CountingAlloc::allocations() - before;
    assert_eq!(cands.len(), 10);
    assert!(
        dag_allocs <= 160,
        "{dag_allocs} allocations in one exact DAG top-K"
    );

    // --- Lowering one candidate: `DagSchedule::new` on perception, the
    // caller's copy of the assignment included. 49 allocations for this
    // 3-chunk schedule with a `Vec` per stage and a `TaskGraph` of chunks;
    // on stack masks only what the schedule keeps: the assignment, the
    // graph, the chunk list and each chunk's stages, the chunk edges and
    // the chunk order (5 + chunks).
    let best = &cands[0].schedule;
    let before = CountingAlloc::allocations();
    let lowered = DagSchedule::new(best.assignment().to_vec(), &graph);
    let lower_allocs = CountingAlloc::allocations() - before;
    assert_eq!(lowered.as_ref(), Ok(best));
    assert!(
        lower_allocs <= 5 + best.chunks().len() as u64,
        "{lower_allocs} allocations lowering a {}-chunk schedule",
        best.chunks().len()
    );

    // --- `StageDag::new` on perception, the caller's copy of the edges
    // included: 15 allocations with a `Vec` per stage, 6 on stack masks
    // (the copy, two for the graph's edge list as it grows, and the
    // closure's order, descendant and ancestor vectors).
    let before = CountingAlloc::allocations();
    let stage_dag = StageDag::new(graph.len(), graph.deps().to_vec());
    let stage_dag_allocs = CountingAlloc::allocations() - before;
    assert!(stage_dag.is_ok());
    assert!(
        stage_dag_allocs <= 6,
        "{stage_dag_allocs} allocations building the optimizer's DAG"
    );

    // --- The SAT top-K on pixel_7a × sparse AlexNet: 2 670 allocations
    // with a heap vector per clause and per analysed conflict, 1 530 on
    // the arena, 1 521 with C2 as triples and the enumerator owning a
    // copy of its problem; 1 146 once a chain is stated as intervals
    // (pairwise contiguity, fixed-size under-full clauses, fewer refuted
    // models) and the enumerator borrows its problem.
    let soc = devices::pixel_7a();
    let app = apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model();
    let table = SimBackend::new(soc.clone(), app).profile(ProfileMode::InterferenceHeavy);
    let cfg = OptimizerConfig {
        engine: SolverEngine::Sat,
        ..OptimizerConfig::default()
    };
    let before = CountingAlloc::allocations();
    optimize_with(&table, &cfg, |c| soc.pu(c).is_some_and(|p| p.schedulable()))
        .expect("sparse AlexNet plans on the Pixel");
    let sat_allocs = CountingAlloc::allocations() - before;
    assert!(
        sat_allocs <= 1146,
        "{sat_allocs} allocations in one SAT top-K"
    );

    // --- The exact chain top-K on the same table with the utilization
    // filter inside the search (θ = 0.45, K = 20): pruning visits fewer
    // schedules into the same reused buffers, so it allocates no more
    // than the search that filtered only finished schedules (136).
    let cfg = OptimizerConfig {
        candidates: 20,
        ..OptimizerConfig::with_threshold(0.45)
    };
    let before = CountingAlloc::allocations();
    optimize_with(&table, &cfg, |c| soc.pu(c).is_some_and(|p| p.schedulable()))
        .expect("sparse AlexNet plans on the Pixel");
    let chain_allocs = CountingAlloc::allocations() - before;
    assert!(
        chain_allocs <= 136,
        "{chain_allocs} allocations in one filtered exact chain top-K"
    );

    // --- The DES's DAG routing: one `simulate_dag` run on a 4-chunk
    // fork/join spec and one `simulate_dynamic_dag` run on a diamond of
    // stages, each spec built before counting. With the graph indexed as
    // flat arrays and sorted on a heap, the gated run made 29 allocations
    // and the dynamic one 43; on bt-rt's stack masks they make 21 and 37.
    // What is left is the run's own state: rings, spans, per-task times,
    // the report. Each spec runs once before it is counted: a lane's
    // first run in the process draws the lane's noise prefix into the
    // process-wide table, which is not the run's own state.
    let soc = devices::pixel_7a();
    let work = |flops: f64| WorkProfile::new(flops, flops / 4.0);
    let diamond = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
    let fork_join = DagPipelineSpec::new(
        [
            PuClass::BigCpu,
            PuClass::MediumCpu,
            PuClass::Gpu,
            PuClass::LittleCpu,
        ]
        .map(|pu| ChunkSpec::new(pu, vec![work(4e6)]))
        .to_vec(),
        diamond.clone(),
    );
    let stages = vec![work(2e6), work(6e6), work(3e6), work(1e6)];
    let cfg = RunConfig::default();
    let gate = |cfg: &RunConfig| {
        let before = CountingAlloc::allocations();
        simulate_dag(&soc, &fork_join, cfg, None).expect("the fork/join simulates");
        CountingAlloc::allocations() - before
    };
    let dynamic = || {
        let before = CountingAlloc::allocations();
        simulate_dynamic_dag(&soc, &stages, &diamond, &cfg, DynamicPolicy::Fifo, None)
            .expect("the diamond simulates");
        CountingAlloc::allocations() - before
    };
    gate(&cfg);
    dynamic();
    let (gate_allocs, dynamic_allocs) = (gate(&cfg), dynamic());
    // A fresh seed's first touch: the warm run plus the lane's prefix,
    // one allocation (22 against 21; the process's first lane also sizes
    // the table once, 23).
    let fresh = RunConfig {
        seed: 0x5eed_0000_0054,
        ..cfg.clone()
    };
    let fresh_allocs = gate(&fresh);
    assert!(
        gate_allocs <= 21,
        "{gate_allocs} allocations in one gated DES run"
    );
    assert!(
        dynamic_allocs <= 37,
        "{dynamic_allocs} allocations in one dynamic DES run"
    );
    assert!(
        fresh_allocs <= gate_allocs + 1,
        "{fresh_allocs} allocations in a fresh lane's first gated run"
    );
}
