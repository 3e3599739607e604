//! The paper's evaluation as one command over `bt_bench::EXPERIMENTS`:
//!
//! - `repro <experiment>` — run it, print its tables and claims, write
//!   `results/<experiment>.json`;
//! - `repro all` — the above for every experiment, then `doc`;
//! - `repro list` — the experiment index;
//! - `repro doc` — regenerate the `<!-- repro:… -->` blocks of
//!   EXPERIMENTS.md;
//! - `repro check` — write nothing; exit 1 naming the first differing line
//!   of every `results/` file or EXPERIMENTS.md block that is not what the
//!   code produces.
//!
//! Everything runs on the deterministic simulator in well under a second,
//! so `doc` and `check` simply re-run the registry.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bt_bench::experiments::{document, index, Experiment, EXPERIMENTS};
use bt_bench::{first_diff, Report};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A committed file's text; a missing file reads as empty, which `check`
/// then reports like any other difference.
fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_default()
}

fn write(path: &str, contents: &str) {
    fs::write(root().join(path), contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("[written: {path}]");
}

fn artefact(e: &Experiment) -> String {
    format!("results/{}.json", e.name)
}

fn run(e: &Experiment) -> Report {
    let report = (e.run)();
    println!("== {} (`{}`) ==\n\n{}", e.title, e.name, report.render());
    report
}

/// EXPERIMENTS.md as the code would have it.
fn documented(reports: &[Report]) -> Result<String, String> {
    document(&read("EXPERIMENTS.md"), reports)
}

fn repro(command: &str) -> Result<(), String> {
    let quietly = || {
        EXPERIMENTS
            .iter()
            .map(|e| (e.run)())
            .collect::<Vec<Report>>()
    };
    match command {
        "list" => print!("{}", index().render()),
        "doc" => write("EXPERIMENTS.md", &documented(&quietly())?),
        "all" => {
            let reports: Vec<Report> = EXPERIMENTS.iter().map(run).collect();
            for (e, r) in EXPERIMENTS.iter().zip(&reports) {
                write(&artefact(e), &r.json);
            }
            write("EXPERIMENTS.md", &documented(&reports)?);
        }
        "check" => {
            let reports = quietly();
            let files = EXPERIMENTS.iter().zip(&reports);
            let mut stale: Vec<String> = files
                .filter_map(|(e, r)| first_diff(&artefact(e), &read(&artefact(e)), &r.json))
                .collect();
            let md = read("EXPERIMENTS.md");
            stale.extend(first_diff("EXPERIMENTS.md", &md, &document(&md, &reports)?));
            if !stale.is_empty() {
                return Err(stale.join("\n"));
            }
            println!("results/ and EXPERIMENTS.md are what the code produces");
        }
        name => {
            let known = EXPERIMENTS.iter().find(|e| e.name == name);
            let e = known.ok_or(format!("unknown experiment `{name}`; try `repro list`"))?;
            write(&artefact(e), &run(e).json);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [command] => repro(command),
        _ => Err("usage: repro <experiment> | all | list | doc | check".into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
