//! Harness-side tracing: the benchmark — not the program — records a span
//! around each call it makes into a layer, keeps the spans in memory, and
//! writes them out as Chrome `trace_event` JSON when the run ends.
//!
//! Spans opened on the harness thread nest (each new span's parent is the
//! one currently open). Spans recorded from other threads — a backend's
//! `measure` called from the optimizer's fan-out workers, a stage kernel
//! called from a dispatcher — are leaves under whatever harness span is
//! open at that moment, so parallel children share one parent.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer (crate) a span's time is booked to. `bt-rt` has no entry: its
/// rings run inside the executors' calls, invisible from outside, and are
/// priced by probes instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own loop: op roots and anything no span covers.
    Harness,
    Kernels,
    Pipeline,
    Soc,
    Profiler,
    Solver,
    Core,
    Serve,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Harness,
        Layer::Kernels,
        Layer::Pipeline,
        Layer::Soc,
        Layer::Profiler,
        Layer::Solver,
        Layer::Core,
        Layer::Serve,
    ];

    /// The metric-name prefix of the layer (`soc` for `bt-soc`, …).
    pub fn key(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Kernels => "kernels",
            Layer::Pipeline => "pipeline",
            Layer::Soc => "soc",
            Layer::Profiler => "profiler",
            Layer::Solver => "solver",
            Layer::Core => "core",
            Layer::Serve => "serve",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to: spans of one op share the identifier.
    pub op: u32,
    /// 0 for the harness thread, a small distinct number per other thread.
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn worker_tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// In-memory span recorder; `Sync`, so traced backends and kernels can
/// report from worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// The harness span currently open (`NO_PARENT` outside any).
    current: AtomicU32,
    op: AtomicU32,
    harness: std::thread::ThreadId,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer owned by the calling thread, which becomes the harness
    /// thread for nesting purposes.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicU32::new(NO_PARENT),
            op: AtomicU32::new(0),
            harness: std::thread::current().id(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("no span recorder panics");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Records `f` as one op: a root span that starts a new op identifier.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.op.fetch_add(1, Ordering::Relaxed);
        self.span(name, Layer::Harness, f)
    }

    /// Records `f` as a span booked to `layer`.
    pub fn span<R>(&self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let on_harness = std::thread::current().id() == self.harness;
        let parent = self.current.load(Ordering::Acquire);
        let op = self.op.load(Ordering::Relaxed);
        let parent_opt = (parent != NO_PARENT).then_some(parent);
        if !on_harness {
            let start_ns = self.now_ns();
            let out = f();
            let end_ns = self.now_ns();
            self.push(Span {
                name,
                layer,
                start_ns,
                end_ns,
                parent: parent_opt,
                op,
                tid: worker_tid(),
            });
            return out;
        }
        let start_ns = self.now_ns();
        let idx = self.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: parent_opt,
            op,
            tid: 0,
        });
        self.current.store(idx, Ordering::Release);
        let out = f();
        let end_ns = self.now_ns();
        self.spans.lock().expect("no span recorder panics")[idx as usize].end_ns = end_ns;
        self.current.store(parent, Ordering::Release);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span recorder panics").clone()
    }
}

/// Records `f` under `tracer` when tracing is on, else just runs it — the
/// form every adapter in `layers.rs` uses, so the untraced path pays one
/// branch.
#[inline]
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    layer: Layer,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, layer, f),
        None => f(),
    }
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of raw durations.
    pub dur_ns: f64,
    /// Sum of self times (duration minus the part children cover).
    pub self_ns: f64,
}

/// Where the wall-clock time of the traced ops went.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Sum of root-span durations: the op time being explained.
    pub total_ns: f64,
    /// Wall-clock time attributed to each layer; sums to `total_ns`.
    pub by_layer: BTreeMap<Layer, f64>,
    pub by_name: BTreeMap<&'static str, NameTotals>,
    pub roots: u64,
}

impl Breakdown {
    pub fn layer_ns(&self, layer: Layer) -> f64 {
        self.by_layer.get(&layer).copied().unwrap_or(0.0)
    }

    /// A layer's share of the op time, in percent.
    pub fn share_pct(&self, layer: Layer) -> f64 {
        if self.total_ns > 0.0 {
            100.0 * self.layer_ns(layer) / self.total_ns
        } else {
            0.0
        }
    }

    /// Mean raw duration of spans called `name`, in nanoseconds.
    pub fn mean_dur_ns(&self, name: &str) -> Option<f64> {
        let t = self.by_name.get(name)?;
        (t.count > 0).then(|| t.dur_ns / t.count as f64)
    }
}

/// Length of the union of `intervals` (each clipped by the caller).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut edge = 0;
    for &(s, e) in intervals.iter() {
        let s = s.max(edge);
        if e > s {
            covered += e - s;
            edge = e;
        }
    }
    covered
}

/// Attributes every root span's wall-clock duration to layers.
///
/// A span keeps its self time — its duration minus the part of that
/// interval its child spans cover, overlapping children (parallel workers)
/// counting once; the part its children cover is split among
/// them in proportion to their durations, recursively. With sequential
/// children this is plain self-time accounting; with parallel children
/// (which together run longer than the wall-clock interval they cover) it
/// scales them down so the layers still sum to the op time — the steps
/// that block the result, not CPU-seconds.
pub fn analyze(spans: &[Span]) -> Breakdown {
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p as usize].push(i);
        }
    }
    let mut out = Breakdown::default();
    for s in spans {
        let t = out.by_name.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns() as f64;
    }
    // Explicit stack of (span, wall-clock budget attributed to it).
    let mut stack: Vec<(usize, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            out.total_ns += s.dur_ns() as f64;
            out.roots += 1;
            stack.push((i, s.dur_ns() as f64));
        }
    }
    while let Some((i, budget)) = stack.pop() {
        let s = &spans[i];
        let dur = s.dur_ns() as f64;
        // Child intervals clipped to this span, and their lengths.
        let clipped: Vec<(u64, u64)> = kids[i]
            .iter()
            .map(|&c| {
                let (a, b) = (spans[c].start_ns, spans[c].end_ns);
                (a.max(s.start_ns), b.min(s.end_ns).max(a.max(s.start_ns)))
            })
            .collect();
        let kid_durs: Vec<f64> = clipped.iter().map(|&(a, b)| (b - a) as f64).collect();
        let kid_sum: f64 = kid_durs.iter().sum();
        if dur <= 0.0 || kid_sum <= 0.0 {
            *out.by_layer.entry(s.layer).or_default() += budget;
            out.by_name.entry(s.name).or_default().self_ns += budget;
            continue;
        }
        let covered = union_len(&mut clipped.clone()).min(s.dur_ns()) as f64;
        let own = budget * (dur - covered) / dur;
        *out.by_layer.entry(s.layer).or_default() += own;
        out.by_name.entry(s.name).or_default().self_ns += own;
        for (&c, cdur) in kids[i].iter().zip(kid_durs) {
            stack.push((c, (budget - own) * cdur / kid_sum));
        }
    }
    out
}

/// Upper bound on events written to one trace file; a full traced run
/// records far more spans than a viewer needs, and every span still counts
/// towards the breakdown.
pub const MAX_TRACE_EVENTS: usize = 40_000;

/// Renders `spans` as Chrome `trace_event` JSON (complete `X` events,
/// microsecond timestamps), truncated to [`MAX_TRACE_EVENTS`].
pub fn chrome_trace_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len().min(MAX_TRACE_EVENTS) * 160 + 256);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().take(MAX_TRACE_EVENTS).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.layer.key(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            i,
            parent,
            s.op
        ));
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ns\",\"metadata\":{{\"workload\":\"{workload}\",\
         \"spans_recorded\":{},\"spans_written\":{}}}}}\n",
        spans.len(),
        spans.len().min(MAX_TRACE_EVENTS)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, layer: Layer, a: u64, b: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            layer,
            start_ns: a,
            end_ns: b,
            parent,
            op: 1,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            sp("op", Layer::Harness, 0, 100, None),
            sp("a", Layer::Core, 10, 40, Some(0)),
            sp("a.inner", Layer::Soc, 15, 35, Some(1)),
            sp("b", Layer::Solver, 50, 90, Some(0)),
        ];
        let b = analyze(&spans);
        let own = |n: &str| b.by_name[n].self_ns;
        assert_eq!(own("op"), 30.0, "100 - (30 + 40)");
        assert_eq!(own("a"), 10.0, "30 - 20");
        assert_eq!(own("a.inner"), 20.0);
        assert_eq!(own("b"), 40.0);
        assert_eq!(b.total_ns, 100.0);
        assert_eq!(b.layer_ns(Layer::Harness), 30.0);
        assert_eq!(b.layer_ns(Layer::Core), 10.0);
        assert_eq!(b.layer_ns(Layer::Soc), 20.0);
        assert_eq!(b.layer_ns(Layer::Solver), 40.0);
        assert_eq!(b.mean_dur_ns("b"), Some(40.0));
        let sum: f64 = b.by_layer.values().sum();
        assert!((sum - b.total_ns).abs() < 1e-9);
    }

    #[test]
    fn parallel_children_count_once_and_layers_still_sum_to_wall_time() {
        // Two workers overlap inside a fan-out: union 10..70 = 60 of the
        // parent's 80; raw child durations sum to 100.
        let spans = vec![
            sp("op", Layer::Harness, 0, 80, None),
            sp("w1", Layer::Soc, 10, 60, Some(0)),
            sp("w2", Layer::Profiler, 20, 70, Some(0)),
        ];
        let b = analyze(&spans);
        assert_eq!(b.by_name["op"].self_ns, 20.0);
        assert_eq!(b.layer_ns(Layer::Harness), 20.0);
        assert_eq!(b.layer_ns(Layer::Soc), 30.0, "half of the covered 60");
        assert_eq!(b.layer_ns(Layer::Profiler), 30.0);
        assert!((b.share_pct(Layer::Soc) - 37.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_harness_spans_and_parents_worker_leaves() {
        let t = Tracer::new();
        t.op("op", || {
            t.span("outer", Layer::Core, || {
                std::thread::scope(|s| {
                    s.spawn(|| t.span("leaf", Layer::Soc, || ()));
                });
                t.span("inner", Layer::Solver, || ());
            });
        });
        let spans = t.spans();
        let find = |n: &str| spans.iter().position(|s| s.name == n).expect("recorded");
        let (op, outer, leaf, inner) = (find("op"), find("outer"), find("leaf"), find("inner"));
        assert_eq!(spans[op].parent, None);
        assert_eq!(spans[outer].parent, Some(op as u32));
        assert_eq!(spans[leaf].parent, Some(outer as u32));
        assert_eq!(spans[inner].parent, Some(outer as u32));
        assert_ne!(spans[leaf].tid, 0);
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        // Untraced passthrough returns the closure's value untouched.
        assert_eq!(span(None, "x", Layer::Soc, || 7), 7);
    }

    #[test]
    fn chrome_trace_is_parseable_and_complete_events_only() {
        let spans = vec![
            sp("op", Layer::Harness, 0, 2_000, None),
            sp("a", Layer::Soc, 500, 1_500, Some(0)),
        ];
        let json = chrome_trace_json(&spans, "unit");
        let v = serde_json::parse_value(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
    }
}
