//! The paper's evaluation, one function per table, figure or extension
//! experiment, each returning a [`Report`]; [`EXPERIMENTS`] is the one
//! index of them. All run on the deterministic simulator with the default
//! seeds, so a report's bytes repeat exactly, in debug and release.
//!
//! Claim bands are written with room for the drift a refactor of the
//! layers below is allowed; none is tightened to today's value.

use std::collections::BTreeSet;

use crate::report::{cell, row, splice};
use crate::{paper, paper_app_labels, paper_apps, paper_devices, Claim, Expect, Report, Table};
use bt_core::energy::{measure_baseline_energy, measure_energy};
use bt_core::metrics::{geomean, pearson};
use bt_core::{autotune, optimize, BetterTogether, Deployment, OptimizerConfig, SimBackend};
use bt_kernels::{apps, AppModel};
use bt_pipeline::{simulate_schedule, Schedule};
use bt_profiler::{profile, ProfileMode, ProfilerConfig};
use bt_soc::des_dynamic::{simulate_dynamic, DynamicPolicy};
use bt_soc::gantt::render_gantt;
use bt_soc::power::PowerModel;
use bt_soc::{devices, InterferenceModel, PuClass, RunConfig, SocSpec};
use bt_telemetry::TelemetryConfig;

/// One registered experiment; `name` is its `repro` subcommand and the
/// stem of its `results/` file.
pub struct Experiment {
    /// Subcommand and artefact name.
    pub name: &'static str,
    /// Heading printed above its output.
    pub title: &'static str,
    /// What of the paper it reproduces (or "extension").
    pub reproduces: &'static str,
    /// Runs it at full size.
    pub run: fn() -> Report,
}

/// Every experiment, in the paper's order, extensions last.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1_stage_heterogeneity",
        title: "Fig. 1 — stage heterogeneity on the Pixel 7a",
        reproduces: "Fig. 1: three octree stages × four PU classes",
        run: fig1_stage_heterogeneity,
    },
    Experiment {
        name: "motivation_isolated_error",
        title: "§1 motivation — isolated-model misprediction",
        reproduces: "§1: isolated composition underpredicts sparse AlexNet on the Pixel",
        run: motivation_isolated_error,
    },
    Experiment {
        name: "table3_baselines",
        title: "Table 3 — homogeneous baselines",
        reproduces: "Table 3: CPU and GPU latency per device × app, and who wins",
        run: table3_baselines,
    },
    Experiment {
        name: "fig4_speedups",
        title: "Fig. 4 — speedups over the best homogeneous baseline",
        reproduces: "Fig. 4: BetterTogether speedup per device × app, geomeans, maximum",
        run: fig4_speedups,
    },
    Experiment {
        name: "fig5_pred_vs_measured",
        title: "Fig. 5 — predicted vs measured, sparse AlexNet on the Pixel",
        reproduces: "Fig. 5a–c: top-20 scatter under three performance models",
        run: fig5_pred_vs_measured,
    },
    Experiment {
        name: "fig6_correlation",
        title: "Fig. 6 — prediction/measurement correlation heatmaps",
        reproduces: "Fig. 6a/b: Pearson r per device × app, interference-aware vs isolated",
        run: fig6_correlation,
    },
    Experiment {
        name: "table4_autotune",
        title: "Table 4 — autotuning, sparse AlexNet on the Pixel",
        reproduces:
            "Table 4, §3.3, §5.2: top-10 measured/predicted, tiers, autotuning gain and cost",
        run: table4_autotune,
    },
    Experiment {
        name: "fig7_interference",
        title: "Fig. 7 — interference-heavy / isolated latency ratios",
        reproduces: "Fig. 7: per-PU interference ratio on every device",
        run: fig7_interference,
    },
    Experiment {
        name: "energy_efficiency",
        title: "Extension — energy per task and energy-delay product",
        reproduces: "extension: §1's energy motivation, pipeline vs baselines",
        run: energy_efficiency,
    },
    Experiment {
        name: "ablation_sweeps",
        title: "Extension — design-choice ablations, sparse AlexNet on the Pixel",
        reproduces: "extension: θ, 𝒦, interference-model components, multi-buffering depth",
        run: ablation_sweeps,
    },
    Experiment {
        name: "dynamic_vs_static",
        title: "Extension — static pipelines vs a dynamic greedy runtime",
        reproduces: "extension: §6's StarPU-style contrast (FIFO / best-fit)",
        run: dynamic_vs_static,
    },
    Experiment {
        name: "input_scaling",
        title: "Extension — schedule sensitivity to input scale on the Pixel",
        reproduces: "extension: octree point count and sparse batch sweeps",
        run: input_scaling,
    },
    Experiment {
        name: "timeline",
        title: "Extension — pipelined execution made visible",
        reproduces: "extension: §3.4's overlap as a Gantt chart; the artefact is a Chrome trace",
        run: timeline,
    },
];

/// The experiment index `repro list` prints.
pub fn index() -> Table {
    let rows = EXPERIMENTS
        .iter()
        .map(|e| row![format!("`{}`", e.name), e.reproduces]);
    let title = "`cargo run --release -p bt-bench --bin repro -- <experiment>` (or `all`, \
                 `list`, `doc`, `check`); each writes `results/<experiment>.json`";
    Table::new(title, "experiment | reproduces", rows.collect())
}

/// `experiments_md` with every `<!-- repro:… -->` block — the index, one
/// per experiment, and the known-deviation summary — regenerated from
/// `reports` (one per [`EXPERIMENTS`] entry, in order).
///
/// # Errors
///
/// Names the first marker `experiments_md` lacks.
pub fn document(experiments_md: &str, reports: &[Report]) -> Result<String, String> {
    assert_eq!(
        reports.len(),
        EXPERIMENTS.len(),
        "one report per experiment"
    );
    let mut md = splice(experiments_md, "index", &index().render())?;
    for (e, r) in EXPERIMENTS.iter().zip(reports) {
        md = splice(&md, e.name, &r.render())?;
    }
    let deviations: String = reports
        .iter()
        .flat_map(|r| &r.claims)
        .filter(|c| c.expect == Expect::KnownDeviation)
        .map(Claim::render)
        .collect();
    splice(&md, "deviations", &deviations)
}

fn times(x: f64) -> String {
    format!("{x:.2}×")
}

fn pixel_sparse() -> (SocSpec, AppModel) {
    let app = apps::alexnet_sparse_app(apps::AlexNetConfig::default());
    (devices::pixel_7a(), app.model())
}

fn pixel_octree() -> (SocSpec, AppModel) {
    let app = apps::octree_app(apps::OctreeConfig::default());
    (devices::pixel_7a(), app.model())
}

fn is_phone(device: &str) -> bool {
    [paper::PIXEL, paper::ONEPLUS].contains(&device)
}

/// One device × app cell of the evaluation with the Fig. 2 loop run on it:
/// the autotuned schedule and ms per task for it and both baselines.
struct Cell {
    soc: SocSpec,
    app: AppModel,
    label: &'static str,
    best: Schedule,
    bt_ms: f64,
    cpu_ms: f64,
    gpu_ms: f64,
}

impl Cell {
    fn at(&self) -> String {
        format!("{}/{}", self.soc.name(), self.label)
    }
    fn speedup(&self) -> f64 {
        self.cpu_ms.min(self.gpu_ms) / self.bt_ms
    }
}

/// The Fig. 2 loop: profile → optimize → autotune, plus both homogeneous
/// baselines.
fn deploy(soc: &SocSpec, app: &AppModel) -> Deployment {
    let framework = BetterTogether::new(soc.clone(), app.clone());
    framework.run().expect("framework runs")
}

/// A noise-free DES run configuration.
fn quiet() -> RunConfig {
    RunConfig {
        noise_sigma: 0.0,
        ..RunConfig::default()
    }
}

/// [`deploy`] on every device × app, devices outermost.
fn sweep() -> Vec<Cell> {
    let mut cells = Vec::new();
    for soc in paper_devices() {
        for (app, label) in paper_apps().into_iter().zip(paper_app_labels()) {
            let d = deploy(&soc, &app);
            cells.push(Cell {
                soc: soc.clone(),
                app,
                label,
                best: d.best_schedule().expect("autotuned").clone(),
                bt_ms: d.best_latency().expect("measured").as_millis(),
                cpu_ms: d.baselines.cpu().expect("cpu baseline").as_millis(),
                gpu_ms: d.baselines.gpu().expect("gpu baseline").as_millis(),
            });
        }
    }
    cells
}

/// One candidate schedule: what the model predicted and what the
/// pipeline measured, ms per task.
struct Pair {
    schedule: String,
    predicted: f64,
    measured: f64,
}

impl Pair {
    /// Signed error of the prediction against the measurement, in percent.
    fn error_pct(&self) -> f64 {
        100.0 * (self.predicted - self.measured) / self.measured
    }
}

/// The top-20 candidates of one performance-modeling approach — profiled
/// and optimized on the `believed` device in `mode`, filtered at
/// utilization threshold `theta` (0 = latency only) — each measured on the
/// `real` device with the seed autotuning would give it.
fn predicted_vs_measured(
    believed: &SocSpec,
    real: &SocSpec,
    app: &AppModel,
    mode: ProfileMode,
    theta: f64,
) -> Vec<Pair> {
    let table = profile(believed, app, mode, &ProfilerConfig::default());
    let cfg = OptimizerConfig::with_threshold(theta);
    let candidates = optimize(believed, &table, &cfg).expect("candidates exist");
    let measure = |(i, c): (usize, &bt_core::Candidate<Schedule>)| {
        let run = RunConfig {
            seed: i as u64,
            ..RunConfig::default()
        };
        let report = simulate_schedule(real, app, &c.schedule, &run, None).expect("simulates");
        Pair {
            schedule: c.schedule.to_string(),
            predicted: c.predicted.as_millis(),
            measured: report.expect_stats().time_per_task.as_millis(),
        }
    };
    candidates.iter().enumerate().map(measure).collect()
}

fn correlation(pairs: &[Pair]) -> f64 {
    let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.iter().map(|p| (p.predicted, p.measured)).unzip();
    pearson(&xs, &ys).unwrap_or(0.0)
}

fn best_ms(pairs: &[Pair]) -> f64 {
    pairs.iter().map(|p| p.measured).fold(f64::MAX, f64::min)
}

fn fig1_stage_heterogeneity() -> Report {
    let (soc, app) = pixel_octree();
    let cfg = ProfilerConfig::default();
    let table = profile(&soc, &app, ProfileMode::Isolated, &cfg);
    // [big, med, little, gpu] µs of one stage.
    let us = |stage: &str| {
        let i = table.stages().iter().position(|s| s == stage);
        let i = i.expect("an octree stage");
        PuClass::ALL.map(|c| {
            table
                .latency(i, c)
                .expect("the Pixel has every class")
                .as_f64()
        })
    };
    let stages = ["sort", "radix-tree", "build-octree"];
    let [sort, rtree, build] = stages.map(us);
    let rows = stages
        .iter()
        .zip([sort, rtree, build])
        .map(|(stage, [big, med, little, gpu])| row![stage, big, med, little, gpu])
        .collect();
    let t = Table::new(
        format!("isolated stage latency on {}, µs", soc.name()),
        "stage | big | med | little | gpu",
        rows,
    );
    let gpu_over_big = |us: [f64; 4]| us[3] / us[0];
    let claims = vec![
        Claim::new(
            "fig1.sort",
            "the GPU is slower than the big and medium cores at sorting",
            format!("gpu/big = {:.1}", gpu_over_big(sort)),
            "GPU performs poorly",
            sort[3] > sort[0].max(sort[1]),
        ),
        Claim::new(
            "fig1.radix_tree",
            "the GPU is the fastest PU at building the radix tree",
            format!("gpu/big = {:.2}", gpu_over_big(rtree)),
            "GPU is fastest",
            rtree[3] < rtree[0].min(rtree[1]).min(rtree[2]),
        ),
        Claim::new(
            "fig1.build_octree",
            "octree construction on the GPU is within 3× of the big cores either way",
            format!("gpu/big = {:.2}", gpu_over_big(build)),
            "big/med ≈ GPU",
            (0.33..=3.0).contains(&gpu_over_big(build)),
        ),
    ];
    Report::new(vec![t], claims)
}

fn motivation_isolated_error() -> Report {
    // Each model's own optimal schedule: predicted by it, measured in the
    // pipeline. Prior work = isolated table, latency-only optimization.
    let (soc, app) = pixel_sparse();
    let top = |mode, theta| predicted_vs_measured(&soc, &soc, &app, mode, theta).swap_remove(0);
    let iso = top(ProfileMode::Isolated, 0.0);
    let bt = top(ProfileMode::InterferenceHeavy, 0.45);
    // How far the measurement lands above the prediction, in percent.
    let under = |p: &Pair| 100.0 * (p.measured - p.predicted) / p.predicted;
    let t = Table::new(
        format!("each model's optimal schedule on {}, ms", soc.name()),
        "model | schedule | predicted | measured | error (%)",
        vec![
            row![
                "isolated composition",
                iso.schedule,
                iso.predicted,
                iso.measured,
                under(&iso)
            ],
            row![
                "BetterTogether",
                bt.schedule,
                bt.predicted,
                bt.measured,
                under(&bt)
            ],
        ],
    );
    let (p_pred, p_meas, p_err) = paper::MOTIVATION;
    let claims = vec![
        Claim::new(
            "motivation.underpredicts",
            "the isolated composition underpredicts its own optimal schedule",
            format!("{:+.0} %", under(&iso)),
            &format!("{p_pred} → {p_meas} ms, +{p_err:.0} %"),
            under(&iso) > 0.0,
        ),
        Claim::new(
            "motivation.ratio",
            "the isolated model's error is ≥ 3× the interference-aware model's",
            format!("{:.1}×", under(&iso).abs() / under(&bt).abs()),
            "—",
            under(&iso).abs() >= 3.0 * under(&bt).abs(),
        ),
    ];
    Report::new(vec![t], claims)
}

fn table3_baselines() -> Report {
    let winner = |(cpu, gpu): (f64, f64)| if cpu <= gpu { "cpu" } else { "gpu" };
    // How many times off, either way.
    let off = |ours: f64, paper: f64| (ours / paper).max(paper / ours);
    let cells = sweep();
    let mut rows = Vec::new();
    let (mut mismatches, mut jetson_dense) = (Vec::new(), Vec::new());
    for c in &cells {
        let ours = (c.cpu_ms, c.gpu_ms);
        let paper = paper::table3(c.soc.name(), c.label);
        let agrees = winner(ours) == winner(paper);
        let device = c.soc.name();
        rows.push(row![
            device,
            c.label,
            ours.0,
            ours.1,
            winner(ours),
            paper.0,
            paper.1,
            agrees
        ]);
        if !agrees {
            mismatches.push(c.at());
        }
        if !is_phone(c.soc.name()) && c.label == "CIFAR-D" {
            jetson_dense.push((ours.0, paper.0, off(ours.0, paper.0)));
        }
    }
    let t = Table::new(
        "homogeneous baselines, ms per task",
        "device | app | cpu | gpu | winner | paper cpu | paper gpu | same winner",
        rows,
    );
    let listed = |f: fn(&(f64, f64, f64)) -> String| {
        jetson_dense.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    let claims = vec![
        Claim::new(
            "table3.winners",
            "the faster of CPU and GPU is the paper's in every cell but sparse on the Pixel, \
             the paper's own 2 % near-tie",
            format!("all but {}", mismatches.join(", ")),
            "its own winners",
            mismatches
                .iter()
                .all(|m| *m == format!("{}/CIFAR-S", paper::PIXEL)),
        ),
        Claim::new(
            "table3.jetson_dense_cpu",
            "absolute AlexNet-dense CPU times on both Jetson configurations are within 2× of \
             the paper's (whose LP column is faster than its full-power one)",
            listed(|(ours, _, off)| format!("{ours:.1} ms ({off:.1}× off)")),
            &listed(|(_, paper, _)| format!("{paper} ms")),
            jetson_dense.iter().all(|d| d.2 <= 2.0),
        )
        .known_deviation(),
    ];
    Report::new(vec![t], claims)
}

fn fig4_speedups() -> Report {
    let cells = sweep();
    let rows = cells.iter().map(|c| {
        let (vs_cpu, vs_gpu) = (c.cpu_ms / c.bt_ms, c.gpu_ms / c.bt_ms);
        let schedule = c.best.to_string();
        row![
            c.soc.name(),
            c.label,
            c.cpu_ms,
            c.gpu_ms,
            c.bt_ms,
            c.speedup(),
            vs_cpu,
            vs_gpu,
            schedule
        ]
    });
    let t = Table::new(
        "BetterTogether vs the homogeneous baselines, ms per task; speedup is over the faster one",
        "device | app | cpu | gpu | BT | speedup | vs cpu | vs gpu | schedule",
        rows.collect(),
    );

    let geo = |xs: Vec<f64>| geomean(&xs).expect("positive speedups");
    let of_device = |d: &str| {
        let own = cells.iter().filter(|c| c.soc.name() == d);
        geo(own.map(Cell::speedup).collect())
    };
    // Pixel, OnePlus, Jetson, Jetson (LP): ours beside the paper's.
    let paper_geomeans = paper::FIG4_DEVICE_GEOMEAN;
    let ours = paper_geomeans.map(|(d, _)| of_device(d));
    let overall = geo(cells.iter().map(Cell::speedup).collect());
    let overall_cpu = geo(cells.iter().map(|c| c.cpu_ms / c.bt_ms).collect());
    let (lo, hi) = paper::FIG4_GEOMEAN;
    let overall_paper = format!("{lo}–{hi}");
    let per_device = paper_geomeans.iter().zip(ours);
    let mut rows: Vec<_> = per_device
        .map(|((d, paper), ours)| row![d, ours, paper])
        .collect();
    rows.push(row!["overall", overall, overall_paper]);
    let vs_cpu_paper = paper::FIG4_GEOMEAN_VS_CPU;
    rows.push(row!["overall vs CPU-only", overall_cpu, vs_cpu_paper]);
    let g = Table::new("geomean speedup, ×", "device | ours | paper", rows);

    let by_speedup = |a: &&Cell, b: &&Cell| a.speedup().total_cmp(&b.speedup());
    let max = cells.iter().max_by(by_speedup).expect("non-empty");
    let min = cells.iter().min_by(by_speedup).expect("non-empty");
    let (p_max, p_device, p_app) = paper::FIG4_MAX;
    let jetson_vs_phones = |[pixel, oneplus, jetson, lp]: [f64; 4]| {
        let shown = [jetson, lp, pixel, oneplus].map(times);
        let holds = jetson.max(lp) < pixel.min(oneplus);
        (
            format!("{} / {} vs {} / {}", shown[0], shown[1], shown[2], shown[3]),
            holds,
        )
    };
    let (ours_shown, jetson_smallest) = jetson_vs_phones(ours);
    let (paper_shown, _) = jetson_vs_phones(paper_geomeans.map(|(_, g)| g));
    let claims = vec![
        Claim::new(
            "fig4.max_cell",
            "the largest speedup is in the paper's cell",
            format!("{} at {}", times(max.speedup()), max.at()),
            &format!("{p_device}/{p_app}"),
            (max.soc.name(), max.label) == (p_device, p_app),
        ),
        Claim::new(
            "fig4.max_magnitude",
            "the largest speedup is within 25 % of the paper's",
            times(max.speedup()),
            &times(p_max),
            max.speedup() >= 0.75 * p_max,
        )
        .known_deviation(),
        Claim::new(
            "fig4.geomean",
            "the overall geomean speedup is in 1.7–2.3×",
            times(overall),
            &format!("{overall_paper}×"),
            (1.7..=2.3).contains(&overall),
        ),
        Claim::new(
            "fig4.jetson_smallest",
            "both Jetson geomeans are below both phone geomeans",
            ours_shown,
            &paper_shown,
            jetson_smallest,
        ),
        Claim::new(
            "fig4.no_slowdown",
            "no cell is slower than its best homogeneous baseline",
            format!("min {} at {}", times(min.speedup()), min.at()),
            "one slowdown, on Jetson (LP)",
            min.speedup() >= 1.0,
        ),
    ];
    Report::new(vec![t, g], claims)
}

fn fig5_pred_vs_measured() -> Report {
    let (soc, app) = pixel_sparse();
    let heavy = ProfileMode::InterferenceHeavy;
    // (panel, correlation, mean |rel error| in %, its top-20 table)
    let panels = [
        (
            "(a) BetterTogether: interference table + utilization filter",
            heavy,
            0.45,
        ),
        (
            "(b) latency-only: interference table, no filter",
            heavy,
            0.0,
        ),
        (
            "(c) prior work: isolated table, latency-only",
            ProfileMode::Isolated,
            0.0,
        ),
    ]
    .map(|(label, mode, theta)| {
        let pairs = predicted_vs_measured(&soc, &soc, &app, mode, theta);
        let error = pairs.iter().map(|p| p.error_pct().abs()).sum::<f64>() / pairs.len() as f64;
        let rows = pairs
            .iter()
            .map(|p| row![p.schedule, p.predicted, p.measured, p.error_pct()]);
        let header = "schedule | predicted | measured | error (%)";
        let t = Table::new(format!("{label} — top 20, ms"), header, rows.collect());
        (label, correlation(&pairs), error, t)
    });
    let summary = Table::new(
        format!("prediction quality on {}", soc.name()),
        "model | Pearson r | mean abs rel error (%)",
        panels
            .iter()
            .map(|(label, r, err, _)| row![label, r, err])
            .collect(),
    );
    let [a, b, c] = &panels;
    let claims = vec![
        Claim::new(
            "fig5.ordering",
            "Pearson r orders (a) > (b) > (c)",
            format!("{:.3} > {:.3} > {:.3}", a.1, b.1, c.1),
            "(a) closest, then (b), then (c)",
            a.1 > b.1 && b.1 > c.1,
        ),
        Claim::new(
            "fig5.isolated_error",
            "the isolated model's mean |rel error| is ≥ 5× BetterTogether's",
            format!("{:.1}×", c.2 / a.2),
            "—",
            c.2 >= 5.0 * a.2,
        ),
    ];
    let tables = std::iter::once(summary).chain(panels.iter().map(|p| p.3.clone()));
    Report::new(tables.collect(), claims)
}

fn fig6_correlation() -> Report {
    let (devices, apps) = (paper_devices(), paper_apps());
    // Pearson r of the top-20 per (device, app, r) cell, apps outermost.
    let heatmap = |mode, theta| {
        let mut cells = Vec::new();
        for (app, label) in apps.iter().zip(paper_app_labels()) {
            for soc in &devices {
                let pairs = predicted_vs_measured(soc, soc, app, mode, theta);
                cells.push((soc.name(), label, correlation(&pairs)));
            }
        }
        cells
    };
    let a = heatmap(ProfileMode::InterferenceHeavy, 0.45);
    let mut b = heatmap(ProfileMode::Isolated, 0.0);
    let mean = |m: &[(&str, &str, f64)]| m.iter().map(|c| c.2).sum::<f64>() / m.len() as f64;
    let max = |m: &[(&str, &str, f64)]| m.iter().map(|c| c.2).fold(f64::MIN, f64::max);
    let names: Vec<&str> = devices.iter().map(|d| d.name()).collect();
    let header = format!("app | {}", names.join(" | "));
    let table = |what: &str, m: &[(&str, &str, f64)]| {
        let rows = m.chunks(devices.len()).map(|row| {
            let cells = row.iter().map(|c| cell(c.2));
            std::iter::once(cell(row[0].1)).chain(cells).collect()
        });
        let title = format!("{what}: mean {:.4}, max {:.4}", mean(m), max(m));
        Table::new(title, &header, rows.collect())
    };
    let tables = vec![
        table(
            "(a) BetterTogether (interference-aware + utilization filter)",
            &a,
        ),
        table("(b) isolated profiles + latency-only (prior work)", &b),
    ];

    let worst_gap = a
        .iter()
        .zip(&b)
        .map(|(a, b)| b.2 - a.2)
        .fold(f64::MIN, f64::max);
    let (a_mean, b_mean) = (mean(&a), mean(&b));
    b.sort_by(|x, y| x.2.total_cmp(&y.2));
    let irregular = |c: &&(&str, &str, f64)| c.1 != "CIFAR-D";
    let at = |c: &(&str, &str, f64)| format!("{}/{} {:.2}", c.0, c.1, c.2);
    let jetson_worst = b.iter().filter(irregular).find(|c| !is_phone(c.0));
    let jetson_worst = jetson_worst.expect("Jetson cells").2;
    let (p_mean, p_max) = paper::FIG6_A;
    let (p_lo, p_hi) = paper::FIG6_B_JETSON_IRREGULAR;
    let claims = vec![
        Claim::new(
            "fig6.a_mean",
            "(a)'s mean correlation is ≥ 0.9",
            format!("mean {a_mean:.3}, max {:.3}", max(&a)),
            &format!("mean {p_mean}, max {p_max}"),
            a_mean >= 0.9,
        ),
        Claim::new(
            "fig6.a_beats_b",
            "(a)'s mean exceeds (b)'s by ≥ 0.1",
            format!("{:+.3}", a_mean - b_mean),
            &format!("{:+.2}", p_mean - paper::FIG6_B_MEAN),
            a_mean >= b_mean + 0.1,
        ),
        Claim::new(
            "fig6.per_cell",
            "(a) ≥ (b) − 0.01 in every cell",
            format!("largest (b) − (a) = {worst_gap:+.4}"),
            "(a) dominates",
            worst_gap <= 0.01,
        ),
        Claim::new(
            "fig6.b_lowest_cells",
            "(b)'s two lowest cells are irregular workloads (sparse/octree) on the phones",
            b[..2].iter().map(at).collect::<Vec<_>>().join(", "),
            "irregular workloads degrade most",
            b[..2].iter().all(|c| irregular(&c) && is_phone(c.0)),
        ),
        Claim::new(
            "fig6.b_degrades_on_jetson",
            "(b) degrades hardest on the Jetson's sparse/octree cells, down to the paper's range",
            format!("lowest Jetson sparse/octree cell {jetson_worst:.2}"),
            &format!("{p_lo}–{p_hi}"),
            jetson_worst <= p_hi,
        )
        .known_deviation(),
    ];
    Report::new(tables, claims)
}

fn table4_autotune() -> Report {
    let (soc, app) = pixel_sparse();
    let d = deploy(&soc, &app);
    let top = &d.plan.candidates[..d.plan.candidates.len().min(10)];
    let measured = |i| {
        d.outcome
            .measured_latency(i)
            .expect("candidate measured")
            .as_millis()
    };
    let rows = top.iter().enumerate().map(|(i, c)| {
        let (schedule, predicted) = (c.schedule.to_string(), c.predicted.as_millis());
        row![
            i + 1,
            schedule,
            predicted,
            measured(i),
            measured(0) / measured(i)
        ]
    });
    let (n, k, cost_s) = (
        top.len(),
        d.plan.candidates.len(),
        d.outcome.evaluation_cost.as_secs(),
    );
    let title = format!(
        "top {n} of {k} candidates on {}, ms; index 1 is the predicted best; autotuning all {k} \
         costs {cost_s:.1} s of virtual device time (paper: ≈{} s)",
        soc.name(),
        paper::AUTOTUNE_COST_S
    );
    let header = "index | schedule | predicted | measured | speedup vs index 1";
    let t = Table::new(title, header, rows.collect());
    // Performance tiers (§3.3): consecutive predictions within ±6 %.
    let mut tiers: Vec<(f64, usize)> = Vec::new();
    for p in top.iter().map(|c| c.predicted.as_millis()) {
        match tiers.last_mut() {
            Some((anchor, count)) if (p - *anchor).abs() / *anchor <= 0.06 => *count += 1,
            _ => tiers.push((p, 1)),
        }
    }
    let tiers_shown: Vec<String> = tiers
        .iter()
        .map(|(ms, n)| format!("{n} × ≈{ms:.2} ms"))
        .collect();
    let gain = d.autotuning_gain().expect("measured");
    let (p_gain, p_index) = paper::TABLE4_GAIN;
    let (p_first, p_best) = paper::TABLE4_MS;
    let claims = vec![
        Claim::new(
            "table4.best_not_predicted",
            "the measured-best schedule is not the predicted-best one",
            format!("index {}", d.outcome.best_index + 1),
            &format!("index {p_index} ({p_best} ms vs index 1's {p_first} ms)"),
            d.outcome.best_index != 0,
        ),
        Claim::new(
            "table4.tiers",
            "the top-10 predictions fall into ≥ 2 tiers (±6 %)",
            tiers_shown.join(", "),
            "§3.3: schedules cluster into tiers",
            tiers.len() >= 2,
        ),
        Claim::new(
            "table4.gain",
            "level-3 autotuning gains within 10 % of the paper's factor over the predicted best",
            times(gain),
            &times(p_gain),
            gain >= 0.9 * p_gain,
        )
        .known_deviation(),
    ];
    Report::new(vec![t], claims)
}

/// Fig. 7's neutral band: a ratio within ±0.08 of 1 is "no change". Wide
/// enough that OnePlus/med (ours ≈ 1.05, paper 1.00) is well inside, narrow
/// enough that the mildest real effects (≈ 0.88 and ≈ 1.13) are outside.
const NEUTRAL: f64 = 0.08;

fn fig7_interference() -> Report {
    let cfg = ProfilerConfig {
        noise_sigma: 0.0,
        ..ProfilerConfig::default()
    };
    let direction = |r: f64| match r - 1.0 {
        d if d > NEUTRAL => "slowdown",
        d if d < -NEUTRAL => "speedup",
        _ => "neutral",
    };
    let mut rows = Vec::new();
    let (mut agree, mut close, mut worst) = (0, 0, (0.0, String::new()));
    for soc in paper_devices() {
        // stage × class ratios of every app, stacked.
        let stacked = paper_apps().into_iter().flat_map(|app| {
            let iso = profile(&soc, &app, ProfileMode::Isolated, &cfg);
            let heavy = profile(&soc, &app, ProfileMode::InterferenceHeavy, &cfg);
            heavy.ratio_over(&iso).expect("same table shape")
        });
        let ratios: Vec<Vec<f64>> = stacked.collect();
        for (ci, class) in soc.classes().into_iter().enumerate() {
            let ours = ratios.iter().map(|row| row[ci]).sum::<f64>() / ratios.len() as f64;
            let paper = paper::fig7(soc.name(), class);
            let off = 100.0 * (ours - paper).abs() / paper;
            let same = direction(ours) == direction(paper);
            rows.push(row![
                soc.name(),
                class.label(),
                ours,
                paper,
                off,
                direction(ours),
                same
            ]);
            agree += usize::from(same);
            close += usize::from(off <= 15.0);
            if off > worst.0 {
                worst = (off, format!("{}/{}", soc.name(), class.label()));
            }
        }
    }
    let n = rows.len();
    let t = Table::new(
        "interference-heavy / isolated latency, mean over the three apps' stages",
        "device | PU | ours | paper | off by (%) | direction | as paper",
        rows,
    );
    let claims = vec![
        Claim::new(
            "fig7.direction",
            "every PU moves the way the paper's does (slowdown / speedup / within ±0.08 of 1)",
            format!("{agree}/{n}"),
            "calibration target",
            agree == n,
        ),
        Claim::new(
            "fig7.magnitude",
            "≥ 10 of 12 ratios are within 15 % of the paper's and all are within 25 %",
            format!(
                "{close}/{n} within 15 %; worst {} at {:.0} %",
                worst.1, worst.0
            ),
            "calibration target",
            close >= 10 && worst.0 <= 25.0,
        ),
    ];
    Report::new(vec![t], claims)
}

fn energy_efficiency() -> Report {
    let mut gains = Vec::new();
    let rows = sweep().into_iter().map(|c| {
        let model = PowerModel::default_for(&c.soc);
        let backend = SimBackend::new(c.soc.clone(), c.app.clone());
        let bt = measure_energy(&backend, &c.best, &model).expect("energy");
        let base = |class| measure_baseline_energy(&backend, class, &model).expect("energy");
        let (cpu, gpu) = (base(PuClass::BigCpu), base(PuClass::Gpu));
        let gain = cpu.edp_mj_ms.min(gpu.edp_mj_ms) / bt.edp_mj_ms;
        gains.push(gain);
        let (device, schedule) = (c.soc.name(), c.best.to_string());
        row![
            device,
            c.label,
            schedule,
            bt.per_task_mj,
            cpu.per_task_mj,
            gpu.per_task_mj,
            bt.edp_mj_ms,
            gain
        ]
    });
    let rows: Vec<_> = rows.collect();
    let wins = gains.iter().filter(|g| **g > 1.0).count();
    let claims = vec![Claim::new(
        "energy.edp_wins",
        "pipelines beat both baselines on energy-delay product in ≥ 10 of 12 cells",
        format!("{wins}/{}", gains.len()),
        "—",
        wins >= 10,
    )];
    let t = Table::new(
        "energy per task (mJ), energy-delay product (mJ·ms) and EDP gain over the better baseline (×)",
        "device | app | schedule | BT mJ | CPU mJ | GPU mJ | BT EDP | EDP gain",
        rows,
    );
    Report::new(vec![t], claims)
}

fn ablation_sweeps() -> Report {
    let (soc, app) = pixel_sparse();
    let heavy = ProfileMode::InterferenceHeavy;
    let table = profile(&soc, &app, heavy, &ProfilerConfig::default());

    // 1. Utilization threshold θ of the level-1 filter: (θ, r, best ms).
    let theta = [0.0, 0.2, 0.35, 0.5, 0.65].map(|theta| {
        let pairs = predicted_vs_measured(&soc, &soc, &app, heavy, theta);
        (theta, correlation(&pairs), best_ms(&pairs))
    });

    // 2. Candidate count 𝒦: how many schedules autotuning must execute
    //    before the measured best stops improving: (𝒦, best ms, cost ms).
    let backend = SimBackend::new(soc.clone(), app.clone());
    let k = [1usize, 3, 5, 10, 20, 40].map(|candidates| {
        let cfg = OptimizerConfig {
            candidates,
            ..OptimizerConfig::default()
        };
        let cands = optimize(&soc, &table, &cfg).expect("candidates");
        let outcome = autotune(&backend, &cands).expect("autotunes");
        let best = outcome.best().expect("best measured").latency.as_millis();
        (candidates, best, outcome.evaluation_cost.as_millis())
    });

    // 3. Interference-model components: the profiler believes a simplified
    //    device while measurements run on the real one: (model, r, best ms).
    let full = soc.interference().clone();
    let dvfs = PuClass::ALL.map(|c| (c, full.dvfs_multiplier(c)));
    let contention = InterferenceModel::calibrated::<0>([], full.contention_strength());
    let parts = [
        ("full (dvfs + contention)", full.clone()),
        ("dvfs only", InterferenceModel::calibrated(dvfs, 0.0)),
        ("contention only", contention),
        ("none (isolated physics)", InterferenceModel::none()),
    ]
    .map(|(label, model)| {
        let believed = soc.clone().with_interference(model);
        let pairs = predicted_vs_measured(&believed, &soc, &app, heavy, 0.45);
        (label, correlation(&pairs), best_ms(&pairs))
    });

    // 4. Multi-buffering depth (§3.4) under the predicted-best schedule:
    //    (buffers, ms per task).
    let cands = optimize(&soc, &table, &OptimizerConfig::default()).expect("candidates");
    let predicted = &cands[0].schedule;
    let buffers = [1u32, 2, 3, 4, 6, 8].map(|buffers| {
        let cfg = RunConfig { buffers, ..quiet() };
        let report = simulate_schedule(&soc, &app, predicted, &cfg, None).expect("simulates");
        (buffers, report.expect_stats().time_per_task.as_millis())
    });

    let tables = vec![
        Table::new(
            "1. utilization threshold θ (20 candidates each)",
            "θ | correlation | best (ms)",
            theta.iter().map(|(t, r, best)| row![t, r, best]).collect(),
        ),
        Table::new(
            "2. candidate count 𝒦",
            "𝒦 | best (ms) | evaluation cost (ms)",
            k.iter()
                .map(|(k, best, cost)| row![k, best, cost])
                .collect(),
        ),
        Table::new(
            "3. what the profiler's device model includes (measured on the full model)",
            "profiler's model | correlation | best (ms)",
            parts
                .iter()
                .map(|(label, r, best)| row![label, r, best])
                .collect(),
        ),
        Table::new(
            "4. circulating TaskObjects under the predicted-best schedule",
            "buffers | ms per task",
            buffers.iter().map(|(b, ms)| row![b, ms]).collect(),
        ),
    ];

    // Relative spread of a set of latencies: max / min − 1.
    let spread = |xs: Vec<f64>| {
        let (lo, hi) = (
            xs.iter().copied().fold(f64::MAX, f64::min),
            xs.iter().copied().fold(f64::MIN, f64::max),
        );
        hi / lo - 1.0
    };
    let upto_half: Vec<f64> = theta.iter().filter(|s| s.0 <= 0.5).map(|s| s.1).collect();
    let (r_at_0, r_at_half) = (upto_half[0], upto_half[upto_half.len() - 1]);
    let theta_spread = spread(theta.iter().map(|s| s.2).collect());
    let k_spread = spread(k.iter().filter(|s| s.0 >= 3).map(|s| s.1).collect());
    let [full_r, dvfs_r, contention_r, none_r] = parts.map(|p| p.1);
    let serial = buffers[0].1 / buffers[2].1;
    let claims = vec![
        Claim::new(
            "ablation.theta_correlation",
            "prediction correlation never falls as θ goes 0 → 0.5 and ends ≥ 0.2 higher",
            format!("{r_at_0:.3} → {r_at_half:.3}"),
            "—",
            upto_half.windows(2).all(|w| w[1] >= w[0]) && r_at_half - r_at_0 >= 0.2,
        ),
        Claim::new(
            "ablation.theta_free",
            "the measured-best latency is flat (within 2 %) across θ: the filter is free accuracy",
            format!("spread {:.1} %", 100.0 * theta_spread),
            "—",
            theta_spread <= 0.02,
        ),
        Claim::new(
            "ablation.k_converged",
            "the measured best has converged (within 1 %) by 𝒦 = 3",
            format!("spread {:.1} % over 𝒦 ≥ 3", 100.0 * k_spread),
            "the paper's 𝒦 (our default) is a safety margin",
            k_spread <= 0.01,
        ),
        Claim::new(
            "ablation.full_model_best",
            "the full interference model predicts at least as well as every ablated one",
            format!("{full_r:.3} vs {dvfs_r:.3} / {contention_r:.3} / {none_r:.3}"),
            "—",
            full_r >= dvfs_r.max(contention_r).max(none_r),
        ),
        Claim::new(
            "ablation.dvfs_over_contention",
            "a DVFS-only profiler model predicts better than a contention-only one",
            format!("{dvfs_r:.3} vs {contention_r:.3}"),
            "—",
            dvfs_r > contention_r,
        ),
        Claim::new(
            "ablation.buffers",
            "one circulating TaskObject is ≥ 2× slower than three",
            times(serial),
            "§3.4: multi-buffering creates the overlap",
            serial >= 2.0,
        ),
    ];
    Report::new(tables, claims)
}

fn dynamic_vs_static() -> Report {
    let des = quiet();
    let mut gains = Vec::new();
    let rows = sweep().into_iter().map(|c| {
        let dynamic = |policy| {
            let report = simulate_dynamic(&c.soc, &c.app.works(), &des, policy, None);
            let report = report.expect("simulates");
            report.expect_stats().time_per_task.as_millis()
        };
        let (fifo, fit) = (
            dynamic(DynamicPolicy::Fifo),
            dynamic(DynamicPolicy::BestFit),
        );
        gains.push(fit / c.bt_ms);
        row![c.soc.name(), c.label, c.bt_ms, fifo, fit, fit / c.bt_ms]
    });
    let t = Table::new(
        "static BetterTogether pipeline vs dynamic greedy dispatch, ms per task; gain is over best-fit (×)",
        "device | app | BT static | dyn FIFO | dyn best-fit | BT gain",
        rows.collect(),
    );
    let wins = gains.iter().filter(|g| **g > 1.0).count();
    let overall = times(geomean(&gains).expect("positive"));
    let claims = vec![Claim::new(
        "dynamic.static_wins",
        "the static interference-profiled pipeline beats dynamic best-fit in ≥ 9 of 12 cells",
        format!("{wins}/{}, geomean {overall}", gains.len()),
        "§6: static schedules win on edge SoCs",
        wins >= 9,
    )];
    Report::new(vec![t], claims)
}

fn input_scaling() -> Report {
    let soc = devices::pixel_7a();
    let octrees = [1usize << 15, 1 << 17, 1 << 18, 1 << 19, 1 << 20].map(|points| {
        let cfg = apps::OctreeConfig {
            points,
            ..apps::OctreeConfig::default()
        };
        (
            "octree",
            format!("{}Ki pts", points >> 10),
            apps::octree_app(cfg).model(),
        )
    });
    let sparses = [32usize, 64, 128, 256].map(|batch| {
        let cfg = apps::AlexNetConfig {
            batch,
            ..apps::AlexNetConfig::default()
        };
        (
            "sparse",
            format!("batch {batch}"),
            apps::alexnet_sparse_app(cfg).model(),
        )
    });
    let mut distinct = BTreeSet::new();
    let rows = octrees
        .into_iter()
        .chain(sparses)
        .map(|(workload, scale, app)| {
            let d = deploy(&soc, &app);
            let schedule = d.best_schedule().expect("autotuned").to_string();
            distinct.insert(schedule.clone());
            let bt_ms = d.best_latency().expect("measured").as_millis();
            row![
                workload,
                scale,
                schedule,
                bt_ms,
                d.speedup_over_best_baseline().expect("measured")
            ]
        });
    let t = Table::new(
        format!("best schedule per input scale on {}", soc.name()),
        "workload | scale | schedule | BT (ms) | speedup (×)",
        rows.collect(),
    );
    let claims = vec![Claim::new(
        "scaling.distinct_schedules",
        "schedules specialize to input scale: ≥ 3 distinct optima over the 9 scale points",
        format!("{} distinct", distinct.len()),
        "—",
        distinct.len() >= 3,
    )];
    Report::new(vec![t], claims)
}

/// Six tasks through `schedule` as a Gantt chart, one row per chunk, and
/// the steady-state ms per task of that run.
fn gantt(soc: &SocSpec, app: &AppModel, schedule: &Schedule, what: &str) -> (Table, f64) {
    let cfg = RunConfig {
        tasks: 6,
        warmup: 0,
        record_timeline: true,
        ..quiet()
    };
    let report = simulate_schedule(soc, app, schedule, &cfg, None).expect("simulates");
    let ms = report.expect_stats().time_per_task.as_millis();
    let labels: Vec<String> = schedule
        .chunks()
        .iter()
        .map(|c| format!("{} ({} stages)", c.pu, c.stage_count()))
        .collect();
    let chart = render_gantt(&report.timeline, &labels, 100);
    // `│` for the chart's `|`, which would end a Markdown table cell.
    let rows = chart
        .lines()
        .map(|line| row![format!("`{}`", line.replace('|', "│"))]);
    let title = format!("{what}: {ms:.2} ms/task steady-state");
    let header = "one row per chunk, then the time axis; digits are task ids, · is idle";
    (Table::new(title, header, rows.collect()), ms)
}

fn timeline() -> Report {
    let (soc, app) = pixel_octree();
    let d = deploy(&soc, &app);
    let best = d.best_schedule().expect("autotuned");
    let cpu_only = Schedule::homogeneous(app.stage_count(), PuClass::BigCpu);
    let (pipelined, bt_ms) = gantt(&soc, &app, best, &format!("BetterTogether {best}"));
    let (serialized, cpu_ms) = gantt(&soc, &app, &cpu_only, "CPU-only baseline");
    let claims = vec![Claim::new(
        "timeline.overlap",
        "with six tasks in flight the pipelined chunks overlap: ms/task is below the \
         serialized big-CPU baseline's",
        format!("{bt_ms:.2} vs {cpu_ms:.2} ms/task"),
        "§3.4",
        bt_ms < cpu_ms,
    )];
    // The artefact is a Chrome trace of the winning schedule from the
    // telemetry layer (load in chrome://tracing or ui.perfetto.dev).
    let cfg = RunConfig {
        tasks: 30,
        telemetry: TelemetryConfig::full(),
        ..quiet()
    };
    let report = simulate_schedule(&soc, &app, best, &cfg, None).expect("simulates");
    let trace = report.telemetry.expect("telemetry requested");
    Report {
        json: trace.chrome_trace_json(),
        ..Report::new(vec![pipelined, serialized], claims)
    }
}
