//! Result files, the machine fingerprint, pinned reference digests, and
//! `layerbench compare`.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

use crate::harness::{Outcome, Row, Scale};
use crate::layers;
use crate::stats::Summary;

/// `benchmark/` next to this package (docs, reference digests, results).
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../benchmark")
}

pub fn results_dir() -> PathBuf {
    benchmark_dir().join("results")
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Cores, CPU model and kernel: results from different fingerprints are
/// not comparable and `compare` refuses them.
pub fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    obj(vec![
        ("cores", Value::U64(layers::cores() as u64)),
        ("cpu_model", s(cpu)),
        ("kernel", s(kernel)),
    ])
}

/// Commit, toolchain and machine of this run.
pub fn provenance() -> Vec<(&'static str, Value)> {
    let repo = benchmark_dir().join("..");
    let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    vec![
        ("schema", Value::U64(1)),
        ("commit", s(commit)),
        ("rustc", s(rustc)),
        ("machine", machine()),
    ]
}

fn summary_json(row: &Row) -> Value {
    let Summary {
        n,
        median,
        q1,
        q3,
        min,
        max,
    } = row.summary;
    let mut fields = vec![
        ("unit", s(row.unit)),
        ("better", s(row.better)),
        ("value", Value::F64(row.value)),
        ("median", Value::F64(median)),
        ("q1", Value::F64(q1)),
        ("q3", Value::F64(q3)),
        ("min", Value::F64(min)),
        ("max", Value::F64(max)),
        ("n", Value::U64(n as u64)),
    ];
    if let Some(b) = row.bound {
        fields.insert(2, ("bound", Value::F64(b)));
    }
    if row.samples.len() > 1 {
        let samples = row.samples.iter().map(|&v| Value::F64(v)).collect();
        fields.push(("samples", Value::Array(samples)));
    }
    obj(fields)
}

fn rows_json(rows: &[Row]) -> Value {
    Value::Object(
        rows.iter()
            .map(|r| (r.name.clone(), summary_json(r)))
            .collect(),
    )
}

fn scale_json(scale: &Scale) -> Value {
    obj(vec![
        ("smoke", Value::Bool(scale.smoke)),
        ("setup_repeats", Value::U64(scale.setup_repeats as u64)),
        ("fleet_rounds", Value::U64(scale.fleet_rounds as u64)),
        ("chain_devices", Value::U64(scale.chain_devices as u64)),
        ("dag_passes", Value::U64(scale.dag_passes as u64)),
        ("cdcl_instances", Value::U64(scale.cdcl_instances as u64)),
        ("cdcl_stages", Value::U64(scale.cdcl_stages as u64)),
        ("sim_tasks", Value::U64(u64::from(scale.sim_tasks))),
        ("sim_seeds", Value::U64(scale.sim_seeds as u64)),
        ("coarse_tasks", Value::U64(u64::from(scale.coarse_tasks))),
        ("fine_tasks", Value::U64(u64::from(scale.fine_tasks))),
        ("serve_blocks", Value::U64(scale.serve_blocks as u64)),
        ("serve_block_len", Value::U64(scale.serve_block_len as u64)),
        ("serve_faults", Value::U64(scale.serve_faults as u64)),
    ])
}

/// One run as a result-file entry.
pub fn outcome_json(o: &Outcome, scale: &Scale, seconds: f64) -> Value {
    obj(vec![
        ("workload", s(o.workload)),
        ("traced", Value::Bool(o.traced)),
        ("seed", Value::U64(o.seed)),
        ("seconds", Value::F64(seconds)),
        ("slices", Value::U64(o.slices as u64)),
        ("op_counts", scale_json(scale)),
        (
            "op_stream_digest",
            s(format!("{:016x}", o.op_stream_digest)),
        ),
        ("ops_attempted", Value::U64(o.attempted)),
        ("ops_failed", Value::U64(o.failed)),
        (
            "failures",
            Value::Array(o.failures.iter().map(|f| s(f.clone())).collect()),
        ),
        ("end_to_end", rows_json(&o.end_to_end)),
        ("per_layer", rows_json(&o.per_layer)),
    ])
}

/// A result file: provenance plus one or more runs.
pub fn result_file(runs: Vec<Value>) -> Value {
    let mut fields = provenance();
    fields.push(("runs", Value::Array(runs)));
    obj(fields)
}

/// Writes `value` under `benchmark/results/`; a failure to write is
/// reported, not fatal (the numbers were already printed).
pub fn write_result(name: &str, contents: &str) {
    let dir = results_dir();
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("layerbench: cannot write {}: {e}", path.display());
    }
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a value tree serializes")
}

/// The last stdout line the acceptance harness reads: exactly `names`,
/// each with its median and unit.
pub fn driver_line(o: &Outcome, names: &[&str]) -> Result<String, String> {
    let rows = if o.traced {
        &o.per_layer
    } else {
        &o.end_to_end
    };
    let metrics = names
        .iter()
        .map(|&n| {
            let row = rows
                .iter()
                .find(|r| r.name == n)
                .ok_or_else(|| format!("metric {n} was not measured"))?;
            Ok((
                n.to_string(),
                obj(vec![
                    ("value", Value::F64(row.value)),
                    ("unit", s(row.unit)),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let line = obj(vec![
        ("correct", Value::Bool(o.correct())),
        ("attempted", Value::U64(o.attempted.max(1))),
        ("failed", Value::U64(o.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    Ok(serde_json::to_string(&line).expect("a value tree serializes"))
}

/// Human-readable table of `rows`.
pub fn print_rows(title: &str, rows: &[Row]) {
    if rows.is_empty() {
        return;
    }
    println!("  {title}");
    for r in rows {
        let bound = match r.bound {
            Some(0.0) => "exact".to_string(),
            Some(b) => format!("{:.0} %", b * 100.0),
            None => "-".to_string(),
        };
        let arrow = if r.better == "higher" { "↑" } else { "↓" };
        println!(
            "    {:<42} {:>16.6} {:<6} {arrow} bound {:<6} median {:<14.6} q1 {:<14.6} q3 {:<14.6} n {}",
            r.name,
            r.value,
            r.unit,
            bound,
            r.summary.median,
            r.summary.q1,
            r.summary.q3,
            r.summary.n
        );
    }
}

// ---------------------------------------------------------------------
// Reference digests
// ---------------------------------------------------------------------

pub const DEFAULT_SEED: u64 = 1;

fn reference_path() -> PathBuf {
    benchmark_dir().join("reference.json")
}

/// Pinned digests of `workload` for the default seed, if the file holds
/// them.
pub fn load_reference(workload: &str) -> Option<Vec<(String, String)>> {
    let text = std::fs::read_to_string(reference_path()).ok()?;
    let v = serde_json::parse_value(&text).ok()?;
    if v.get("seed")?.as_u64()? != DEFAULT_SEED {
        return None;
    }
    Some(
        v.get(workload)?
            .as_object()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
    )
}

/// Writes `benchmark/reference.json` from freshly produced digests.
pub fn write_reference(
    sections: Vec<(&'static str, Vec<(String, String)>)>,
) -> std::io::Result<()> {
    let mut fields = vec![
        ("seed".to_string(), Value::U64(DEFAULT_SEED)),
        (
            "note".to_string(),
            s("pinned by `layerbench bless`; compared on the default seed at full scale"),
        ),
    ];
    for (workload, digests) in sections {
        fields.push((
            workload.to_string(),
            Value::Object(digests.into_iter().map(|(k, v)| (k, s(v))).collect()),
        ));
    }
    std::fs::write(reference_path(), pretty(&Value::Object(fields)) + "\n")
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Worse by more than the bound, but the spread exceeds the bound and
    /// the two runs' quartile ranges interleave: not resolved either way.
    Unresolved,
}

/// A metric as read back from a result file: its reported value and the
/// summary of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub summary: Summary,
}

/// `a` is the base, `b` the candidate.
pub fn judge(a: &Reading, b: &Reading, better: &str, bound: f64) -> Verdict {
    if bound == 0.0 {
        let same = (a.value - b.value).abs() <= 1e-9 * a.value.abs();
        return if same { Verdict::Ok } else { Verdict::Worse };
    }
    let worse_by = if better == "higher" {
        (a.value - b.value) / a.value.abs()
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let (a, b) = (&a.summary, &b.summary);
    if worse_by <= bound {
        return Verdict::Ok;
    }
    let interleave = if better == "higher" {
        b.q3 >= a.q1
    } else {
        b.q1 <= a.q3
    };
    if a.spread().max(b.spread()) > bound && interleave {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn reading_of(v: &Value) -> Option<Reading> {
    Some(Reading {
        value: v.get("value")?.as_f64()?,
        summary: Summary {
            n: v.get("n")?.as_u64()? as usize,
            median: v.get("median")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
        },
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

fn untraced_runs(file: &Value) -> Vec<&Value> {
    file.get("runs")
        .and_then(Value::as_array)
        .map(|runs| {
            runs.iter()
                .filter(|r| matches!(r.get("traced"), Some(Value::Bool(false))))
                .collect()
        })
        .unwrap_or_default()
}

/// `layerbench compare A.json B.json`. Returns the process exit code:
/// 0 all `ok`/`unresolved`, 1 something `worse` or a higher failed share,
/// 2 the files cannot be compared.
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("layerbench compare: {e}");
            return 2;
        }
    };
    let fingerprint = |v: &Value| {
        v.get("machine")
            .map(|m| serde_json::to_string(m).unwrap_or_default())
    };
    if fingerprint(&a) != fingerprint(&b) {
        eprintln!(
            "layerbench compare: different machine fingerprints\n  {path_a}: {:?}\n  {path_b}: {:?}",
            fingerprint(&a),
            fingerprint(&b)
        );
        return 2;
    }
    let mut worst = 0;
    let mut compared = 0;
    println!("base A = {path_a}\ncand B = {path_b}\n");
    for ra in untraced_runs(&a) {
        let name = ra.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(rb) = untraced_runs(&b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        println!("{name}");
        let share = |r: &Value| {
            let failed = r.get("ops_failed").and_then(Value::as_f64).unwrap_or(0.0);
            let attempted = r
                .get("ops_attempted")
                .and_then(Value::as_f64)
                .unwrap_or(1.0);
            failed / attempted.max(1.0)
        };
        if share(rb) > share(ra) {
            println!(
                "  ops_failed share rose: {:.6} -> {:.6}   worse",
                share(ra),
                share(rb)
            );
            worst = 1;
        }
        let metrics = ra
            .get("end_to_end")
            .and_then(Value::as_object)
            .unwrap_or(&[]);
        for (metric, va) in metrics {
            let Some(vb) = rb.get("end_to_end").and_then(|m| m.get(metric)) else {
                continue;
            };
            let (Some(ra), Some(rb)) = (reading_of(va), reading_of(vb)) else {
                continue;
            };
            let Some(bound) = va.get("bound").and_then(Value::as_f64) else {
                continue;
            };
            let better = va.get("better").and_then(Value::as_str).unwrap_or("lower");
            let verdict = judge(&ra, &rb, better, bound);
            let (sa, sb) = (ra.summary, rb.summary);
            compared += 1;
            if verdict == Verdict::Worse {
                worst = 1;
            }
            println!(
                "  {metric:<26} A {:>14.6} (median {:.6}, q1 {:.6}, q3 {:.6})  \
                 B {:>14.6} (median {:.6}, q1 {:.6}, q3 {:.6})  \
                 B/A {:.4} (base A = {:.6})  bound {}  {}",
                ra.value,
                sa.median,
                sa.q1,
                sa.q3,
                rb.value,
                sb.median,
                sb.q1,
                sb.q3,
                rb.value / ra.value,
                ra.value,
                if bound == 0.0 {
                    "exact".to_string()
                } else {
                    format!("{:.0} %", bound * 100.0)
                },
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if compared == 0 {
        eprintln!("layerbench compare: the files share no workload × metric");
        return 2;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn judge_ok_worse_unresolved_and_exact() {
        let read = |v: &[f64]| {
            let summary = summarize(v);
            Reading {
                value: summary.median,
                summary,
            }
        };
        let base = read(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = read(&[98.0, 99.0, 97.5, 98.5, 99.5]);
        assert_eq!(judge(&base, &same, "higher", 0.10), Verdict::Ok);
        let slow = read(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        assert_eq!(judge(&base, &slow, "higher", 0.10), Verdict::Worse);
        assert_eq!(
            judge(&base, &slow, "lower", 0.10),
            Verdict::Ok,
            "lower is better"
        );
        // Noisy candidate whose quartile range reaches into the base's.
        let noisy = read(&[60.0, 85.0, 100.0, 70.0, 101.0]);
        assert_eq!(judge(&base, &noisy, "higher", 0.10), Verdict::Unresolved);
        let exact = read(&[1.952]);
        assert_eq!(judge(&exact, &exact, "higher", 0.0), Verdict::Ok);
        let off = read(&[1.9520001]);
        assert_eq!(judge(&exact, &off, "higher", 0.0), Verdict::Worse);
    }
}
