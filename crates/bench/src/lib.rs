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
//! Nothing here reads a clock; the other binary, `calibrate`, dumps the
//! simulator's virtual-time calibration. Every wall-clock number the repo
//! tracks is a `layerbench` row (`layerbench run <workload>`), judged per
//! change against the parent commit on the same machine.

#![warn(unreachable_pub)]
pub mod experiments;
mod paper;
mod report;

pub use report::{first_diff, Claim, Expect, Report, Table};

use bt_kernels::{apps, AppModel};
use bt_soc::{devices, SocSpec};

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

/// The paper's four evaluation platforms, in Table 2 order.
pub(crate) fn paper_devices() -> Vec<SocSpec> {
    devices::all()
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
