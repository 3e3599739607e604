//! Calibration dump: per-stage × per-PU latencies for every app on every
//! device, in isolated and interference-heavy modes, plus homogeneous
//! baselines and the best exhaustive pipeline.

use bt_kernels::apps;
use bt_pipeline::{simulate_baseline, simulate_schedule, Schedule};
use bt_profiler::{profile, ProfileMode, ProfilerConfig};
use bt_soc::{devices, RunConfig};
use bt_solver::enumerate::for_each_schedule;
use bt_solver::DagProblem;

fn main() {
    let apps: Vec<(&str, bt_kernels::AppModel)> = vec![
        (
            "dense",
            apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
        ),
        (
            "sparse",
            apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
        ),
        (
            "octree",
            apps::octree_app(apps::OctreeConfig::default()).model(),
        ),
    ];
    let cfg = ProfilerConfig {
        reps: 1,
        noise_sigma: 0.0,
        seed: 0,
        ..ProfilerConfig::default()
    };
    for soc in devices::all() {
        for (label, app) in &apps {
            let iso = profile(&soc, app, ProfileMode::Isolated, &cfg);
            let heavy = profile(&soc, app, ProfileMode::InterferenceHeavy, &cfg);
            println!("=== {} / {label} ===", soc.name());
            println!("{}", iso.render());
            println!("{}", heavy.render());

            // Homogeneous baselines (isolated single-chunk DES).
            let n = app.stage_count();
            let des = RunConfig {
                noise_sigma: 0.0,
                ..RunConfig::default()
            };
            let _ = n;
            for class in soc.classes() {
                let r = simulate_baseline(&soc, app, class, &des).unwrap();
                let tpt = r.expect_stats().time_per_task;
                println!("baseline {class}: {:.2} ms", tpt.as_millis());
            }

            // Best pipeline by exhaustive search over the heavy table.
            let classes: Vec<_> = soc.classes();
            let matrix = heavy.to_matrix();
            let allowed: Vec<bool> = classes
                .iter()
                .map(|&c| soc.pu(c).map(|p| p.schedulable()).unwrap_or(false))
                .collect();
            let problem = DagProblem::chain(matrix)
                .unwrap()
                .with_allowed(allowed)
                .unwrap();
            // (T_max, assignment), in enumeration order among equals.
            let mut evals: Vec<(f64, Vec<usize>)> = Vec::new();
            for_each_schedule(&problem, |assignment, sums| {
                let t_max = sums.iter().copied().fold(f64::MIN, f64::max);
                evals.push((t_max, assignment.to_vec()));
            });
            evals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut best_measured = f64::MAX;
            let mut best_sched = String::new();
            for (_, assignment) in evals.iter().take(20) {
                let s = Schedule::from_class_indices(assignment, &classes).unwrap();
                let r = simulate_schedule(&soc, app, &s, &des, None).unwrap();
                let tpt = r.expect_stats().time_per_task;
                if tpt.as_f64() < best_measured {
                    best_measured = tpt.as_f64();
                    best_sched = s.to_string();
                }
            }
            println!(
                "best-of-20 pipeline: {best_sched} = {:.2} ms (predicted best {:.2} ms)",
                best_measured / 1e3,
                evals[0].0 / 1e3
            );
            println!();
        }
    }
}
