//! # bt-bench — the experiment harness
//!
//! The paper's evaluation (§5) is code: every table, figure and extension
//! experiment is one function in [`experiments`], registered in
//! [`experiments::EXPERIMENTS`] and driven by the one `repro` binary
//! (`repro <name> | all | list | doc | check`). `repro list` prints the
//! experiment index — the same one EXPERIMENTS.md carries, generated. An
//! experiment returns a [`Report`]: the bytes of its `results/<name>.json`,
//! its [`Table`]s, and the [`Claim`]s it makes about them; the root test
//! `tests/paper_shape.rs` replays the registry and checks all three.
//!
//! The wall-clock instruments (`bench_eval`, `bench_serve`, `bench_mt`,
//! `calibrate` and the criterion benches under `benches/`) are separate
//! binaries and are not replayed.

pub mod experiments;
pub mod mt;
mod paper;
mod report;

pub use report::{first_diff, Claim, Expect, Report, Table};

use std::fs;
use std::path::PathBuf;

use bt_kernels::{apps, AppModel};
use bt_soc::{devices, SocSpec};
use serde::Serialize;

/// The paper's three workloads at paper-scale configuration, in evaluation
/// order: AlexNet-dense, AlexNet-sparse, Octree.
pub(crate) fn paper_apps() -> Vec<AppModel> {
    vec![
        apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
        apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
        apps::octree_app(apps::OctreeConfig::default()).model(),
    ]
}

/// Short labels matching the paper's figure axes (CIFAR-D, CIFAR-S, Tree).
pub(crate) fn paper_app_labels() -> [&'static str; 3] {
    ["CIFAR-D", "CIFAR-S", "Tree"]
}

/// The fork/join perception workload — the fourth app, kept out of
/// `paper_apps` so the paper's chain-only figures keep their three-app
/// shape. Benchmarks exercising the DAG engine pull it from here.
pub fn branching_app() -> AppModel {
    apps::perception_app(apps::PerceptionConfig::default()).model()
}

/// Short label for [`branching_app`], matching the paper-label style.
pub fn branching_app_label() -> &'static str {
    "Percep"
}

/// The paper's four evaluation platforms, in Table 2 order.
pub(crate) fn paper_devices() -> Vec<SocSpec> {
    devices::all()
}

/// Writes a wall-clock instrument's record as pretty JSON to
/// `results/<name>.json`.
///
/// # Panics
///
/// Panics if the record cannot be serialized or written (the binaries
/// treat that as fatal).
pub fn write_result<T: Serialize>(name: &str, value: &T) {
    write_json(&format!("results/{name}.json"), value);
}

/// Writes a performance-trajectory record (e.g. `BENCH_eval.json`) at the
/// **repository root**: CI uploads these and reviewers diff them across
/// PRs, while `results/` holds regenerable artefacts.
///
/// # Panics
///
/// Panics if the record cannot be serialized or written.
pub fn write_root_result<T: Serialize>(name: &str, value: &T) {
    write_json(&format!("{name}.json"), value);
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let json = serde_json::to_string_pretty(value).expect("serialize artefact");
    fs::write(root.join(path), json).expect("write artefact");
    println!("\n[artefact written to {path}]");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sets_have_expected_sizes() {
        assert_eq!(paper_apps().len(), 3);
        assert_eq!(paper_devices().len(), 4);
        assert_eq!(paper_apps()[0].stage_count(), 9);
        assert_eq!(paper_apps()[2].stage_count(), 7);
    }

    #[test]
    fn branching_app_really_branches() {
        let app = branching_app();
        assert!(!app.task_graph().is_chain());
        assert_eq!(branching_app_label(), "Percep");
    }

    #[test]
    fn gantt_renders_rows_and_scale() {
        use bt_soc::gantt::render_gantt;
        use bt_soc::TimelineSpan;
        let events = vec![
            TimelineSpan {
                chunk: 0,
                stage: Some(0),
                task: 0,
                start_us: 0.0,
                end_us: 500.0,
            },
            TimelineSpan {
                chunk: 1,
                stage: Some(0),
                task: 0,
                start_us: 500.0,
                end_us: 1000.0,
            },
            TimelineSpan {
                chunk: 0,
                stage: Some(0),
                task: 1,
                start_us: 500.0,
                end_us: 1000.0,
            },
        ];
        let labels = vec!["cpu".to_string(), "gpu".to_string()];
        let chart = render_gantt(&events, &labels, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3, "two rows + axis");
        assert!(lines[0].contains('0') && lines[0].contains('1'));
        assert!(lines[1].starts_with("gpu |"));
        assert!(lines[1].contains('·'), "gpu row has idle time");
        assert!(lines[2].contains("1.0 ms"));
    }

    #[test]
    fn gantt_empty_timeline() {
        use bt_soc::gantt::{render_gantt, GanttSpan};
        let spans: [GanttSpan; 0] = [];
        assert_eq!(
            render_gantt(&spans, &["x".into()], 20),
            "(empty timeline)\n"
        );
    }
}
