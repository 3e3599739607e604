//! `layerbench` — the repo's benchmark: five seeded, self-checking
//! workloads, every layer timed from outside. See `benchmark/README.md`.
//!
//! ```text
//! layerbench run <workload> [--seed N] [--seconds S] [--trace] [--smoke]
//! layerbench all [--seed N] [--seconds S] [--smoke]
//! layerbench bless
//! layerbench compare A.json B.json
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod gen;
mod harness;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::{Outcome, Scale};
use workloads::{
    host_stream::HostStreams, plan_fleet::PlanFleet, plan_solver::PlanSolver, serve_mix::ServeMix,
    sim_stream::SimStream,
};

/// Counts every allocation of every thread; `serve.hit.allocs_per_req`
/// and the `allocs_per_*` rows read it.
#[global_allocator]
static ALLOC: layers::Alloc = layers::alloc();

/// Workloads with the one-line reason each exists (also in
/// `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 5] = [
    ("plan_fleet", "the paper's Fig. 2 loop over 13 device x app cells: short DES runs and the profiler dominate, the solver is ~6 %"),
    ("plan_solver", "the same planning step where constraint solving dominates (SAT top-K, DAG optimizer, CDCL): bt-solver does >90 % of the work"),
    ("sim_stream", "3000-task streams through all seven DES entry points: bt-soc does all the work, per-engine classes expose trade-offs"),
    ("host_stream", "real kernels on the real runtime, coarse (7 ms/task) and fine (90 us/task): no simulator, solver or serve code runs"),
    ("serve_mix", "Zipf cache hits beside drift-invalidated cold solves on one PlanService: the only workload with bt-serve on the path"),
];

/// What the acceptance harness reads from the last stdout line: the
/// end-to-end metrics every workload reports (`--trace 0`) and the
/// per-layer ones (`--trace 1`). `BENCHMARK.json` lists the same names.
const DRIVER_END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "ops_per_s",
    "heavy_op_us",
    "light_op_us",
];
const DRIVER_PER_LAYER: [&str; 11] = [
    "kernels.share_pct",
    "pipeline.share_pct",
    "soc.share_pct",
    "profiler.share_pct",
    "solver.share_pct",
    "core.share_pct",
    "serve.share_pct",
    "harness.residual_pct",
    "trace_overhead_pct",
    "traced_ops_per_s",
    "allocs_per_op",
];

struct Args {
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    positional: Vec<String>,
    workload: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: report::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        smoke: false,
        positional: Vec::new(),
        workload: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds <= 3600.0) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--workload" => out.workload = Some(value("--workload")?),
            "--trace" => {
                // `--trace` alone, or `--trace 0|1` as the harness passes it.
                out.traced = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => out.positional.push(a.clone()),
        }
    }
    Ok(out)
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    check_reference: bool,
    start: Instant,
) -> Result<Outcome, String> {
    let reference = (check_reference && seed == report::DEFAULT_SEED && !scale.smoke)
        .then(|| report::load_reference(name))
        .flatten();
    let r = reference.as_deref();
    match name {
        "plan_fleet" => harness::run::<PlanFleet>(seed, seconds, traced, scale, r, start),
        "plan_solver" => harness::run::<PlanSolver>(seed, seconds, traced, scale, r, start),
        "sim_stream" => harness::run::<SimStream>(seed, seconds, traced, scale, r, start),
        "host_stream" => harness::run::<HostStreams>(seed, seconds, traced, scale, r, start),
        "serve_mix" => harness::run::<ServeMix>(seed, seconds, traced, scale, r, start),
        other => Err(format!(
            "unknown workload {other}; one of {}",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

fn scale_of(args: &Args) -> Scale {
    if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    }
}

fn suffix(traced: bool) -> &'static str {
    if traced {
        "_traced"
    } else {
        ""
    }
}

/// `run` and the harness form: one workload, one process.
fn cmd_run(name: &str, args: &Args, start: Instant) -> ExitCode {
    let scale = scale_of(args);
    let outcome = match run_workload(
        name,
        args.seed,
        args.seconds,
        args.traced,
        &scale,
        true,
        start,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{name}  seed {}  {} slices  {} cores  ops {} attempted / {} failed{}",
        outcome.seed,
        outcome.slices,
        layers::cores(),
        outcome.attempted,
        outcome.failed,
        if outcome.traced { "  (traced)" } else { "" }
    );
    report::print_rows("end to end", &outcome.end_to_end);
    report::print_rows("per layer", &outcome.per_layer);
    for f in &outcome.failures {
        eprintln!("layerbench: {name}: FAILED: {f}");
    }
    let file = report::result_file(vec![report::outcome_json(&outcome, &scale, args.seconds)]);
    report::write_result(
        &format!("{name}{}.json", suffix(outcome.traced)),
        &(report::pretty(&file) + "\n"),
    );
    if let Some(trace) = &outcome.trace_json {
        report::write_result(&format!("trace_{name}.json"), trace);
    }
    let names: &[&str] = if outcome.traced {
        &DRIVER_PER_LAYER
    } else {
        &DRIVER_END_TO_END
    };
    match report::driver_line(&outcome, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layerbench: {name}: {e}");
            ExitCode::from(1)
        }
    }
}

/// `all`: the five workloads untraced, then the five traced — each in its
/// own process, so `setup_s` and `peak_rss_mb` are per workload.
fn cmd_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("layerbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut runs = Vec::new();
    let mut failed = false;
    for traced in [false, true] {
        for (name, why) in WORKLOADS {
            println!(
                "\n=== {name}{} — {why}",
                if traced { " (traced)" } else { "" }
            );
            let mut cmd = Command::new(&exe);
            cmd.args(["run", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if traced {
                cmd.arg("--trace");
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("layerbench: {name} exited with {s}");
                    failed = true;
                    continue;
                }
                Err(e) => {
                    eprintln!("layerbench: cannot start {name}: {e}");
                    failed = true;
                    continue;
                }
            }
            let path = report::results_dir().join(format!("{name}{}.json", suffix(traced)));
            let run = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| serde_json::parse_value(&t).ok())
                .and_then(|v| v.get("runs")?.as_array()?.first().cloned());
            match run {
                Some(run) => {
                    if run.get("ops_failed").and_then(|f| f.as_u64()) != Some(0) {
                        failed = true;
                    }
                    runs.push(run);
                }
                None => {
                    eprintln!("layerbench: no result at {}", path.display());
                    failed = true;
                }
            }
        }
    }
    let n = runs.len();
    report::write_result(
        "all.json",
        &(report::pretty(&report::result_file(runs)) + "\n"),
    );
    println!(
        "\n{n} of {} runs recorded in {}",
        2 * WORKLOADS.len(),
        report::results_dir().join("all.json").display()
    );
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `bless`: pin the default seed's digests into `benchmark/reference.json`.
fn cmd_bless(start: Instant) -> ExitCode {
    let scale = Scale::full();
    let mut sections = Vec::new();
    for (name, _) in WORKLOADS {
        // The stale pins are what is being replaced: do not check them.
        let outcome = run_workload(name, report::DEFAULT_SEED, 0.0, false, &scale, false, start);
        match outcome {
            Ok(o) if o.correct() => {
                println!("{name}: {} values pinned", o.digests.len());
                sections.push((name, o.digests));
            }
            Ok(o) => {
                eprintln!(
                    "layerbench bless: {name} failed its own checks: {:?}",
                    o.failures
                );
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("layerbench bless: {name}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    match report::write_reference(sections) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("layerbench bless: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  layerbench run <workload> [--seed N] [--seconds S] [--trace] [--smoke]\n  \
         layerbench all [--seed N] [--seconds S] [--smoke]\n  layerbench bless\n  \
         layerbench compare A.json B.json\n  \
         layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:"
    );
    for (name, why) in WORKLOADS {
        eprintln!("  {name:<12} {why}");
    }
    ExitCode::from(2)
}

/// Pins glibc malloc's two *adaptive* thresholds, so that freed memory is
/// reused from the heap instead of being returned to the kernel and
/// faulted back in at moments that depend on thread timing.
///
/// With the defaults, `host_stream` — which spawns two dispatcher threads
/// per stream — saw its peak RSS land anywhere in 28–37 MiB under one seed
/// and binary (17 % quartile spread between runs) and its throughput
/// wander with it; pinned, RSS holds within ±3 % and throughput is the
/// defaults' best case. It is an environment control like a fixed CPU
/// governor: the same on both sides of any comparison.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_allocator() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning entry point; it is
    // called once, first thing in `main`, before any other thread exists,
    // with values inside the documented ranges (the mmap threshold's
    // maximum is 32 MiB), and only stores two integers in the allocator.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 256 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_allocator() {}

fn main() -> ExitCode {
    let start = Instant::now();
    steady_allocator();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return usage();
        }
    };
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (positional.as_slice(), &args.workload) {
        ([], Some(name)) | (["run"], Some(name)) => cmd_run(name, &args, start),
        (["run", name], None) => cmd_run(name, &args, start),
        (["all"], None) => cmd_all(&args),
        (["bless"], None) => cmd_bless(start),
        (["compare", a, b], None) => ExitCode::from(report::compare(a, b) as u8),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name the acceptance harness and the README promise is
    /// emitted, by every workload, on a tiny end-to-end pass.
    #[test]
    fn smoke_pass_emits_every_normative_metric() {
        let scale = Scale::smoke();
        let start = Instant::now();
        let specific: [(&str, &[&str], &[&str]); 5] = [
            (
                "plan_fleet",
                &["plans_per_s", "speedup_geomean"],
                &[
                    "kernels.build_ms",
                    "profiler.table_us",
                    "solver.exact.topk_us",
                    "core.optimize_us",
                    "core.autotune_us",
                    "core.baselines_us",
                    "core.plan_residual_pct",
                    "core.mcu_loop_us",
                    "core.fig2.pixel_sparse_ms",
                    "core.plan.allocs_per_loop",
                    "soc.des.short_run_us",
                    "soc.baseline.short_run_us",
                    "soc.des.allocs_per_run",
                ],
            ),
            (
                "plan_solver",
                &["plans_per_s"],
                &[
                    "solver.sat.candidates_ms",
                    "solver.cdcl.dag_n9_ms_p50",
                    "solver.cdcl.dag_n9_ms_max",
                    "solver.oracle_mismatches",
                    "core.optimize_sat_ms",
                    "core.optimize_dag_ms",
                ],
            ),
            (
                "sim_stream",
                &["sim_events_per_s"],
                &[
                    "soc.des.events_per_s",
                    "soc.des.nocache_events_per_s",
                    "soc.des.faulted_events_per_s",
                    "soc.des_batch.events_per_s",
                    "soc.des_dynamic.events_per_s",
                    "soc.des_dag.events_per_s",
                    "soc.des_multi.events_per_s",
                    "telemetry.des_full_overhead_pct",
                ],
            ),
            (
                "host_stream",
                &["host_coarse_tasks_per_s", "host_fine_tasks_per_s"],
                &[
                    "kernels.octree.us_per_task",
                    "kernels.sensor.us_per_task",
                    "rt.spsc.ns_per_hop",
                    "rt.static_ring.ns_per_hop",
                    "rt.spsc.same_thread_ns_per_op",
                    "pipeline.run_host.coarse_tasks_per_s",
                    "pipeline.run_host.fine_tasks_per_s",
                    "pipeline.run_host.seq_fine_tasks_per_s",
                    "pipeline.multi.fine_tasks_per_s",
                    "pipeline.run_host_dag.tasks_per_s",
                    "pipeline.run_host.noop_us_per_task",
                    "pipeline.multi.noop_us_per_task",
                    "pipeline.run_host.fine_overhead_pct",
                    "profiler.host_table_ms",
                    "core.host.pred_err_pct",
                    "telemetry.host_full_overhead_pct",
                ],
            ),
            (
                "serve_mix",
                &["serve_hit_ns_p50", "serve_cold_us_p50", "serve_req_per_s"],
                &[
                    "serve.hit.allocs_per_req",
                    "serve.hit_ratio",
                    "serve.invalidate_cold_us",
                    "serve.recover_us",
                    "serve.key_derive_ns",
                    "serve.artifact_json_us",
                    "serve.batch_plans_per_s",
                    "serve.hit_ns_p999",
                    "serve.registry_load_ms",
                    "serve.warm_cells_ms",
                ],
            ),
        ];
        for (name, end_to_end, per_layer) in specific {
            let plain = run_workload(name, 7, 0.0, false, &scale, true, start).expect(name);
            assert!(plain.correct(), "{name}: {:?}", plain.failures);
            for want in DRIVER_END_TO_END.iter().chain(end_to_end) {
                let row = plain.end_to_end.iter().find(|r| r.name == *want);
                let row = row.unwrap_or_else(|| panic!("{name}: {want} missing"));
                assert!(row.summary.median > 0.0, "{name}: {want} is not positive");
            }
            assert!(report::driver_line(&plain, &DRIVER_END_TO_END).is_ok());

            let traced = run_workload(name, 7, 0.0, true, &scale, true, start).expect(name);
            assert!(traced.correct(), "{name} traced: {:?}", traced.failures);
            for want in DRIVER_PER_LAYER.iter().chain(per_layer) {
                assert!(
                    traced.per_layer.iter().any(|r| r.name == *want),
                    "{name}: {want} missing"
                );
            }
            assert!(report::driver_line(&traced, &DRIVER_PER_LAYER).is_ok());
            assert!(traced.trace_json.is_some());
            // Same seed, same op stream.
            assert_eq!(plain.op_stream_digest, traced.op_stream_digest);
        }
    }

    #[test]
    fn harness_arguments_parse() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse(&v("--workload sim_stream --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("sim_stream"), 9, 3.0, true)
        );
        let a = parse(&v("--workload sim_stream --seed 9 --seconds 3 --trace 0")).unwrap();
        assert!(!a.traced);
        let a = parse(&v("run host_stream --trace --smoke")).unwrap();
        assert!(a.traced && a.smoke && a.positional == ["run", "host_stream"]);
        assert_eq!(a.seed, report::DEFAULT_SEED);
        assert!(parse(&v("run x --bogus")).is_err());
        assert!(parse(&v("run x --seed")).is_err());
    }
}
