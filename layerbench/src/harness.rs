//! The measurement loop every workload shares: repeated set-up, equal-work
//! slices until the time budget is spent, per-class timing, failure
//! accounting, and — in a traced run — alternating untraced and traced
//! slices so tracing overhead is measured inside one process.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::layers;
use crate::stats::{self, Summary};
use crate::trace::{self, Breakdown, Layer, Tracer};

/// Op counts of one slice of every workload. A slice does the same work
/// under every seed — the seed picks inputs and order, never amounts —
/// because the acceptance harness measures spread *across* seeds.
#[derive(Debug, Clone)]
pub struct Scale {
    pub smoke: bool,
    /// Times the whole set-up is repeated; `setup_s` is their median.
    pub setup_repeats: usize,
    pub min_slices: usize,
    /// `plan_fleet`: rounds over the 13 cells per slice.
    pub fleet_rounds: usize,
    /// `plan_solver`: paper devices whose 3 chain cells each get a SAT op,
    /// CDCL instances in the pool, and their stage count.
    pub chain_devices: usize,
    /// Passes over the 4 DAG cells per slice: they are 50–100× cheaper
    /// than the solver ops, so one pass alone would be four samples.
    pub dag_passes: usize,
    pub cdcl_instances: usize,
    pub cdcl_stages: usize,
    /// `sim_stream`: tasks per simulated stream, seeds per engine.
    pub sim_tasks: u32,
    pub sim_seeds: usize,
    /// `host_stream`: tasks per coarse / fine stream.
    pub coarse_tasks: u32,
    pub fine_tasks: u32,
    /// `serve_mix`: all-hit blocks per slice, requests per block, and
    /// fault → recover pairs per slice.
    pub serve_blocks: usize,
    pub serve_block_len: usize,
    pub serve_faults: usize,
    /// Multiplier on every probe's iteration count.
    pub probe: f64,
}

impl Scale {
    /// Sized so that a slice takes 40–80 ms on the 2-core reference box
    /// (`plan_solver`, whose single pass cannot be cut, ~0.35 s): short
    /// enough that a 10 s run holds well over a hundred slices and the
    /// bursts of interference a shared VM suffers miss some of them.
    pub fn full() -> Scale {
        Scale {
            smoke: false,
            setup_repeats: 5,
            min_slices: 3,
            fleet_rounds: 12,
            chain_devices: 4,
            dag_passes: 5,
            cdcl_instances: 4,
            cdcl_stages: 9,
            sim_tasks: 3000,
            sim_seeds: 4,
            coarse_tasks: 6,
            fine_tasks: 400,
            serve_blocks: 120,
            serve_block_len: 1000,
            serve_faults: 50,
            probe: 1.0,
        }
    }

    /// Tiny counts: exercises every code path in a debug build in seconds.
    pub fn smoke() -> Scale {
        Scale {
            smoke: true,
            setup_repeats: 1,
            min_slices: 2,
            fleet_rounds: 1,
            chain_devices: 1,
            dag_passes: 1,
            cdcl_instances: 1,
            cdcl_stages: 4,
            sim_tasks: 60,
            sim_seeds: 2,
            coarse_tasks: 2,
            fine_tasks: 20,
            serve_blocks: 3,
            serve_block_len: 50,
            serve_faults: 2,
            probe: 0.0,
        }
    }

    /// Iterations of a probe nominally run `n` times (at least one).
    pub fn reps(&self, n: usize) -> usize {
        ((n as f64 * self.probe).round() as usize).max(1)
    }
}

/// One class's share of a slice.
#[derive(Debug, Clone, Copy, Default)]
struct ClassAcc {
    ops: u64,
    secs: f64,
}

/// What one slice did: per-class work and time, attempted and failed ops.
#[derive(Debug, Default)]
pub struct SliceOut {
    classes: BTreeMap<&'static str, ClassAcc>,
    /// Unit cost (µs/op) overriding `secs / ops` for classes that report a
    /// median of their own samples.
    unit_override: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl SliceOut {
    /// Times `f` and books it as `ops` operations of `class`.
    #[inline]
    pub fn time<R>(&mut self, class: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(class, ops, t0.elapsed().as_secs_f64());
        out
    }

    /// Books `ops` operations that took `secs` to `class`.
    pub fn add(&mut self, class: &'static str, ops: u64, secs: f64) {
        let c = self.classes.entry(class).or_default();
        c.ops += ops;
        c.secs += secs;
    }

    /// Sets `class`'s unit cost for this slice to the median of `samples`
    /// (µs per op) instead of the slice mean.
    pub fn unit_from_samples(&mut self, class: &'static str, samples_us: &[f64]) {
        if !samples_us.is_empty() {
            self.unit_override.insert(class, stats::median(samples_us));
        }
    }

    /// Counts `n` attempted ops.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed op, keeping the first few messages.
    pub fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg());
        }
    }

    /// Fails the op unless `ok`.
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg);
        }
    }

    fn ops(&self) -> u64 {
        self.classes.values().map(|c| c.ops).sum()
    }

    fn secs(&self) -> f64 {
        self.classes.values().map(|c| c.secs).sum()
    }

    fn unit_us(&self, class: &str) -> Option<f64> {
        if let Some(&u) = self.unit_override.get(class) {
            return Some(u);
        }
        let c = self.classes.get(class)?;
        (c.ops > 0).then(|| c.secs * 1e6 / c.ops as f64)
    }
}

/// A workload: seeded set-up, equal-work slices, final checks, and the
/// per-layer probes a traced run adds.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The op class `heavy_op_us` tracks, and the one `light_op_us` tracks.
    const HEAVY: &'static str;
    const LIGHT: &'static str;

    /// Everything from inputs to a warmed-up program, including one
    /// untimed warm-up pass of a slice's work.
    fn setup(seed: u64, scale: &Scale) -> Result<Self, String>;

    /// Digest of the generated op stream (inputs and order) for `seed`,
    /// without executing it.
    fn op_stream_digest(seed: u64, scale: &Scale) -> u64;

    /// One slice. With a tracer, every call into a layer is recorded.
    fn slice(&mut self, tracer: Option<&Arc<Tracer>>, out: &mut SliceOut);

    /// End-of-run checks that are too slow for the timed loop.
    fn verify(&mut self, out: &mut SliceOut);

    /// Pinned values (`benchmark/reference.json`) for the default seed.
    fn digests(&self) -> Vec<(String, String)>;

    /// Workload-specific end-to-end rows beyond the generic ones.
    fn ledger(&self, run: &Measured, rows: &mut Vec<Row>);

    /// Per-layer probes and rows, run once at the end of a traced run.
    /// `breakdown` is the span attribution of the traced slices; a workload
    /// that can see part of its op only as one opaque call (the cold
    /// `serve()`) re-books that time from what its probes re-price.
    fn probes(
        &mut self,
        scale: &Scale,
        run: &Measured,
        breakdown: &mut Breakdown,
        rows: &mut Vec<Row>,
        checks: &mut SliceOut,
    );
}

/// Share by which a wall-clock end-to-end metric may worsen (also in
/// `BENCHMARK.json`): three times the worst run-to-run spread measured on
/// the reference box, see `benchmark/README.md`.
pub const THROUGHPUT_BOUND: f64 = 0.20;

/// Age the process must reach, running untimed slices after set-up,
/// before measurement starts.
const SETTLE_SECS: f64 = 3.0;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// (`Some(0.0)` = must repeat exactly, `None` = per-layer, unbounded).
    pub bound: Option<f64>,
    /// The reported value: the median of the samples, or their fast decile
    /// (see [`Row::fast_decile`]).
    pub value: f64,
    pub summary: Summary,
    /// The samples behind the summary (per slice, per repetition).
    pub samples: Vec<f64>,
}

impl Row {
    pub fn point(
        name: impl Into<String>,
        unit: &'static str,
        better: &'static str,
        value: f64,
    ) -> Row {
        Row::samples(name, unit, better, &[value])
    }

    pub fn samples(
        name: impl Into<String>,
        unit: &'static str,
        better: &'static str,
        values: &[f64],
    ) -> Row {
        let summary = stats::summarize(values);
        Row {
            name: name.into(),
            unit,
            better,
            bound: None,
            value: summary.median,
            summary,
            samples: values.to_vec(),
        }
    }

    /// A row over per-slice samples whose reported value is the fast
    /// decile — the slice a tenth of the way in from the best end — while
    /// the summary still carries median and quartiles.
    ///
    /// On a shared VM interference is one-sided (it only ever slows a
    /// slice) and bursty: measured here, the median over slices moved
    /// 6–10 % between back-to-back runs of one binary while the fast decile
    /// moved 1–4 %. The fast decile is the closest a run gets to the
    /// undisturbed machine without trusting a single best slice.
    pub fn fast_decile(
        name: impl Into<String>,
        unit: &'static str,
        better: &'static str,
        values: &[f64],
    ) -> Row {
        let mut row = Row::samples(name, unit, better, values);
        row.value = stats::fast_decile(values, better == "higher");
        row
    }

    pub fn bounded(mut self, bound: f64) -> Row {
        self.bound = Some(bound);
        self
    }
}

/// The measured part of a run, as the workloads' ledger functions see it.
#[derive(Debug, Default)]
pub struct Measured {
    slices: Vec<SliceOut>,
    /// Traced slices (traced runs only), interleaved with `slices`.
    traced: Vec<SliceOut>,
    pub setup_secs: Vec<f64>,
    pub first_setup_s: f64,
    /// Allocations per op over the untraced slices.
    pub allocs_per_op: f64,
}

impl Measured {
    /// Per-slice pooled throughput, ops per second of timed work.
    pub fn pooled_per_s(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.ops() as f64 / s.secs())
            .collect()
    }

    /// Per-slice unit cost of `class`, µs per op.
    pub fn unit_us(&self, class: &str) -> Vec<f64> {
        self.slices
            .iter()
            .filter_map(|s| s.unit_us(class))
            .collect()
    }

    /// Per-slice throughput of `class`, ops per second.
    pub fn class_per_s(&self, class: &str) -> Vec<f64> {
        self.unit_us(class).iter().map(|u| 1e6 / u).collect()
    }

    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    pub fn attempted(&self) -> u64 {
        self.slices
            .iter()
            .chain(&self.traced)
            .map(|s| s.attempted)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.slices
            .iter()
            .chain(&self.traced)
            .map(|s| s.failed)
            .sum()
    }

    pub fn failures(&self) -> Vec<&String> {
        self.slices
            .iter()
            .chain(&self.traced)
            .flat_map(|s| &s.failures)
            .take(8)
            .collect()
    }
}

/// A finished run: rows to report plus the bookkeeping around them.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub end_to_end: Vec<Row>,
    pub per_layer: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub slices: usize,
    pub op_stream_digest: u64,
    pub digests: Vec<(String, String)>,
    /// Chrome trace of the traced slices (traced runs only).
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `W` for about `seconds` of measurement. `reference` holds pinned
/// digests to compare against (the default seed at full scale only).
pub fn run<W: Workload>(
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    reference: Option<&[(String, String)]>,
    process_start: Instant,
) -> Result<Outcome, String> {
    // The op stream must be a pure function of the seed.
    let op_stream_digest = W::op_stream_digest(seed, scale);
    if op_stream_digest != W::op_stream_digest(seed, scale) {
        return Err(format!(
            "{}: op stream differs between two generations",
            W::NAME
        ));
    }

    let mut measured = Measured::default();
    let mut workload = None;
    for rep in 0..scale.setup_repeats.max(1) {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(W::setup(seed, scale)?);
        measured.setup_secs.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            measured.first_setup_s = process_start.elapsed().as_secs_f64();
        }
    }
    let mut w = workload.expect("at least one set-up ran");

    // Settle: after an idle spell the VM runs ~20 % faster for about two
    // seconds (measured: the first 32 of 176 `plan_fleet` slices), which
    // the fast decile would otherwise report as the machine's speed.
    // Untimed slices fill the time until the process is `SETTLE_SECS` old.
    while !scale.smoke && process_start.elapsed().as_secs_f64() < SETTLE_SECS {
        w.slice(None, &mut SliceOut::default());
    }

    let tracer = traced.then(|| Arc::new(Tracer::new()));
    // A traced run spends half its budget on slices and leaves the rest
    // to the probes.
    let budget = if traced { seconds * 0.5 } else { seconds };
    let t_measure = Instant::now();
    let mut untraced_allocs = 0u64;
    loop {
        let a0 = layers::allocations();
        let mut out = SliceOut::default();
        w.slice(None, &mut out);
        untraced_allocs += layers::allocations() - a0;
        measured.slices.push(out);
        if let Some(t) = &tracer {
            let mut out = SliceOut::default();
            w.slice(Some(t), &mut out);
            measured.traced.push(out);
        }
        if measured.slices.len() >= scale.min_slices && t_measure.elapsed().as_secs_f64() >= budget
        {
            break;
        }
    }
    let ops: u64 = measured.slices.iter().map(SliceOut::ops).sum();
    measured.allocs_per_op = untraced_allocs as f64 / ops.max(1) as f64;

    let mut checks = SliceOut::default();
    w.verify(&mut checks);
    let digests = w.digests();
    if let Some(pinned) = reference {
        checks.attempt(1);
        for (key, want) in pinned {
            match digests.iter().find(|(k, _)| k == key) {
                Some((_, got)) if got == want => {}
                Some((_, got)) => {
                    checks.fail(|| format!("reference {key}: pinned {want}, got {got}"))
                }
                None => checks.fail(|| format!("reference {key}: not produced")),
            }
        }
    }

    let spans = tracer.as_ref().map(|t| t.spans());

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    if let Some(spans) = &spans {
        let breakdown = trace::analyze(spans);
        traced_rows(
            &mut w,
            scale,
            &measured,
            breakdown,
            &mut per_layer,
            &mut checks,
        );
    } else {
        end_to_end.push(Row::samples("setup_s", "s", "lower", &measured.setup_secs).bounded(0.25));
        end_to_end.push(Row::point("peak_rss_mb", "MiB", "lower", peak_rss_mb()).bounded(0.25));
        end_to_end.push(
            Row::fast_decile("ops_per_s", "1/s", "higher", &measured.pooled_per_s())
                .bounded(THROUGHPUT_BOUND),
        );
        end_to_end.push(
            Row::fast_decile("heavy_op_us", "us", "lower", &measured.unit_us(W::HEAVY))
                .bounded(THROUGHPUT_BOUND),
        );
        end_to_end.push(
            Row::fast_decile("light_op_us", "us", "lower", &measured.unit_us(W::LIGHT))
                .bounded(THROUGHPUT_BOUND),
        );
        end_to_end.push(Row::point(
            "first_setup_s",
            "s",
            "lower",
            measured.first_setup_s,
        ));
        w.ledger(&measured, &mut end_to_end);
    }

    let attempted = measured.attempted() + checks.attempted;
    let failed = measured.failed() + checks.failed;
    let mut failures: Vec<String> = measured.failures().into_iter().cloned().collect();
    failures.extend(checks.failures.iter().cloned());
    Ok(Outcome {
        workload: W::NAME,
        seed,
        traced,
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        slices: measured.slice_count(),
        op_stream_digest,
        digests,
        trace_json: spans.map(|s| trace::chrome_trace_json(&s, W::NAME)),
    })
}

/// The generic per-layer rows of a traced run, then the workload's probes.
fn traced_rows<W: Workload>(
    w: &mut W,
    scale: &Scale,
    measured: &Measured,
    mut breakdown: Breakdown,
    rows: &mut Vec<Row>,
    checks: &mut SliceOut,
) {
    let mut probe_rows = Vec::new();
    w.probes(scale, measured, &mut breakdown, &mut probe_rows, checks);
    for layer in Layer::ALL {
        if layer != Layer::Harness {
            rows.push(Row::point(
                format!("{}.share_pct", layer.key()),
                "%",
                "lower",
                breakdown.share_pct(layer),
            ));
        }
    }
    rows.push(Row::point(
        "harness.residual_pct",
        "%",
        "lower",
        breakdown.share_pct(Layer::Harness),
    ));
    let untraced = stats::fast_decile(&measured.pooled_per_s(), true);
    let traced: Vec<f64> = measured
        .traced
        .iter()
        .map(|s| s.ops() as f64 / s.secs())
        .collect();
    rows.push(Row::point(
        "trace_overhead_pct",
        "%",
        "lower",
        100.0 * (1.0 - stats::fast_decile(&traced, true) / untraced),
    ));
    rows.push(Row::fast_decile(
        "traced_ops_per_s",
        "1/s",
        "higher",
        &traced,
    ));
    rows.push(Row::point(
        "allocs_per_op",
        "count",
        "lower",
        measured.allocs_per_op,
    ));
    rows.append(&mut probe_rows);
}

/// Times `reps` calls of `f` one by one; per-call durations in µs.
pub fn sample_us<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Allocations `f` performs (every thread counts: run nothing else).
pub fn allocs_of<R>(f: impl FnOnce() -> R) -> f64 {
    let a0 = layers::allocations();
    std::hint::black_box(f());
    (layers::allocations() - a0) as f64
}
