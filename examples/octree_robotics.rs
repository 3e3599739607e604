//! Streaming point-cloud mapping on the *host* backend: the real kernels,
//! real dispatcher threads, real lock-free queues — the BT-Implementer
//! runtime executing an actual octree pipeline end to end.
//!
//! ```sh
//! cargo run --release --example octree_robotics
//! ```
//!
//! A robotics-style scenario: clustered LiDAR-like clouds stream in, each
//! task builds a truncated octree (OctoMap-style occupancy structure). We
//! profile the stages on the host with wall-clock timers, pick a pipeline
//! schedule, and compare the pipelined runtime against sequential
//! processing.

use std::time::Instant;

use bettertogether::kernels::apps::{self, OctreeConfig};
use bettertogether::kernels::pointcloud::CloudShape;
use bettertogether::kernels::ParCtx;
use bettertogether::pipeline::{run_host, PuThreads, RunConfig, Schedule};
use bettertogether::profiler::host::{profile_host, HostClasses, HostProfilerConfig};
use bettertogether::profiler::ProfileMode;
use bettertogether::soc::PuClass;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let per_tier = (cores / 2).max(1);
    println!("host parallelism: {cores} core(s) → {per_tier} worker(s) per tier");
    let app = apps::octree_app(OctreeConfig {
        points: 60_000,
        shape: CloudShape::Clustered,
        max_depth: 6,
        seed: 42,
    });
    println!("streaming octree construction: {} points/task\n", 60_000);

    // Host profiling with the same protocol as the device profiler.
    let classes = HostClasses::new(vec![(PuClass::BigCpu, per_tier), (PuClass::LittleCpu, 1)]);
    let cfg = HostProfilerConfig { reps: 3, warmup: 1 };
    let table = profile_host(&app, &classes, ProfileMode::Isolated, &cfg);
    println!("{}", table.render());

    // Sequential reference: one task at a time, all stages on the big tier.
    let tasks = 20u32;
    let ctx = ParCtx::new(per_tier);
    let mut payload = app.new_payload();
    let t0 = Instant::now();
    for seq in 0..tasks as u64 {
        app.run_sequential(&mut payload, seq, &ctx);
    }
    let sequential = t0.elapsed() / tasks;
    let cells = payload.octree.as_ref().expect("octree built").cell_count();
    println!(
        "sequential: {:.2} ms/task ({cells} octree cells/task)",
        sequential.as_secs_f64() * 1e3
    );

    // Pipelined: let the solver pick the split from the measured host
    // table — exactly the BT-Optimizer flow, driven by real wall-clock
    // profiles. Both host tiers get equal worker pools, so any win comes
    // from overlapping tasks across dispatchers.
    let equal_tiers = HostClasses::new(vec![
        (PuClass::BigCpu, per_tier),
        (PuClass::LittleCpu, per_tier),
    ]);
    let table = profile_host(&app, &equal_tiers, ProfileMode::Isolated, &cfg);
    let problem = bettertogether::solver::DagProblem::chain(table.to_matrix())?;
    let candidates = problem.latency_candidates_exact(5);
    let best = &candidates[0];
    let schedule = Schedule::from_class_indices(&best.assignment, table.classes())?;
    println!(
        "solver-chosen split: {} (predicted bottleneck {:.2} ms)",
        schedule,
        best.t_max / 1e3
    );

    let threads = PuThreads::uniform(per_tier);
    let report = run_host(
        &app,
        &schedule,
        &threads,
        &RunConfig {
            tasks,
            warmup: 3,
            record_timeline: true,
            ..RunConfig::default()
        },
        None,
    )?;
    let stats = report.expect_stats();
    println!(
        "pipelined ({}): {:.2} ms/task, {:.1} tasks/s, residence {:.2} ms",
        schedule,
        stats.time_per_task.as_f64() / 1e3,
        stats.throughput_hz,
        stats.mean_task_latency.as_f64() / 1e3
    );
    // Real-execution Gantt: every row is a dispatcher thread.
    let labels: Vec<String> = schedule
        .chunks()
        .iter()
        .map(|c| format!("{} [{}..={}]", c.pu, c.first_stage, c.last_stage))
        .collect();
    println!("\nreal execution timeline (tasks drawn by digit):");
    println!(
        "{}",
        bettertogether::soc::gantt::render_gantt(&report.timeline, &labels, 100)
    );

    let speedup = sequential.as_secs_f64() * 1e6 / stats.time_per_task.as_f64();
    println!("overlap speedup: {speedup:.2}x");
    if cores < 4 {
        println!(
            "(this host exposes only {cores} core(s); pipeline overlap needs several — \
             on a multicore machine the two dispatcher chunks run concurrently)"
        );
    }
    Ok(())
}
