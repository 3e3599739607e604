//! The paper's evaluation as a tier-1 test: every registered experiment
//! runs once at full size, and what it produces must be (i) the shape the
//! paper asserts — every claim as expected, where a known deviation that
//! *disappears* fails like a shape claim that breaks — and (ii) byte for
//! byte what `results/` and EXPERIMENTS.md carry. Byte-identity says
//! "nothing moved"; the banded claims say "what the paper asserts still
//! holds after an intended move" (then `repro all` rewrites the files).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use bt_bench::experiments::{document, EXPERIMENTS};
use bt_bench::{first_diff, Expect, Report};

fn committed(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Claims that must exist for the shape test to mean anything; the list
/// is the floor, the registry may hold more.
const REQUIRED: [&str; 34] = [
    "fig1.sort",
    "fig1.radix_tree",
    "fig1.build_octree",
    "motivation.underpredicts",
    "motivation.ratio",
    "table3.winners",
    "table3.jetson_dense_cpu",
    "fig4.max_cell",
    "fig4.max_magnitude",
    "fig4.geomean",
    "fig4.jetson_smallest",
    "fig4.no_slowdown",
    "fig5.ordering",
    "fig5.isolated_error",
    "fig6.a_mean",
    "fig6.a_beats_b",
    "fig6.per_cell",
    "fig6.b_lowest_cells",
    "fig6.b_degrades_on_jetson",
    "table4.best_not_predicted",
    "table4.tiers",
    "table4.gain",
    "fig7.direction",
    "fig7.magnitude",
    "energy.edp_wins",
    "ablation.theta_correlation",
    "ablation.theta_free",
    "ablation.k_converged",
    "ablation.full_model_best",
    "ablation.dvfs_over_contention",
    "ablation.buffers",
    "dynamic.static_wins",
    "scaling.distinct_schedules",
    "timeline.overlap",
];

/// EXPERIMENTS.md's four documented gaps to the paper.
const KNOWN_DEVIATIONS: [&str; 4] = [
    "table3.jetson_dense_cpu",
    "fig4.max_magnitude",
    "fig6.b_degrades_on_jetson",
    "table4.gain",
];

#[test]
fn the_evaluation_keeps_its_shape_and_its_bytes() {
    let reports: Vec<Report> = EXPERIMENTS.iter().map(|e| (e.run)()).collect();
    let mut problems = Vec::new();

    // (i) Shape: every claim is what its `expect` says.
    let claims: Vec<_> = reports.iter().flat_map(|r| &r.claims).collect();
    problems.extend(
        claims
            .iter()
            .filter(|c| !c.as_expected())
            .map(|c| c.render()),
    );
    let ids: BTreeSet<&str> = claims.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), claims.len(), "claim ids are unique");
    for id in REQUIRED {
        assert!(ids.contains(id), "claim `{id}` is gone from the registry");
    }
    let deviations = claims.iter().filter(|c| c.expect == Expect::KnownDeviation);
    let deviations: BTreeSet<&str> = deviations.map(|c| c.id).collect();
    assert_eq!(deviations, BTreeSet::from(KNOWN_DEVIATIONS));

    // (ii) Bytes: results/ and the generated blocks of EXPERIMENTS.md.
    for (e, r) in EXPERIMENTS.iter().zip(&reports) {
        assert!(
            !r.tables.is_empty() && !r.claims.is_empty(),
            "{} is vacuous",
            e.name
        );
        let path = format!("results/{}.json", e.name);
        problems.extend(first_diff(&path, &committed(&path), &r.json));
    }
    let md = committed("EXPERIMENTS.md");
    let generated = document(&md, &reports).expect("EXPERIMENTS.md has every marker");
    problems.extend(first_diff("EXPERIMENTS.md", &md, &generated));

    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

#[test]
fn the_registry_is_the_index_of_results() {
    let replayed: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let names: BTreeSet<&str> = replayed.iter().copied().collect();
    assert_eq!(names.len(), replayed.len(), "experiment names are unique");

    // results/ holds exactly the replayed artefacts.
    let listed: BTreeSet<String> = names.iter().map(|n| format!("{n}.json")).collect();
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let on_disk = fs::read_dir(results).expect("results/ exists");
    let on_disk: BTreeSet<String> = on_disk
        .map(|f| {
            f.expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect();
    assert_eq!(on_disk, listed);
}
