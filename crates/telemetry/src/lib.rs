//! bt-telemetry: pipeline instrumentation shared by the host executor and
//! the discrete-event simulator.
//!
//! The paper's measurement methodology (§5) needs more than end-to-end
//! latency: diagnosing *why* a schedule underperforms requires knowing, per
//! dispatcher, how long it computed, how long it starved on its input queue,
//! how long it was back-pressured by its output queue, and how full the
//! queues ran. This crate provides that layer:
//!
//! * [`DispatcherCounters`] — plain per-thread counters. Each dispatcher
//!   owns its instance exclusively (no atomics, no sharing — ownership *is*
//!   the lock-freedom) and the executor collects them at join time.
//! * [`Span`] — one span model for both execution domains, in µs since
//!   the run's epoch (virtual time in the simulator, wall-clock time on the
//!   host).
//! * [`RunTelemetry`] — the merged result, exportable as Chrome
//!   `trace_event` JSON ([`RunTelemetry::chrome_trace_json`], loadable in
//!   `chrome://tracing` or Perfetto) or compact JSONL
//!   ([`RunTelemetry::metrics_jsonl`]).
//! * [`TelemetryConfig`] — the switch carried by the executor and simulator
//!   configs. Everything is off by default; the disabled path costs one
//!   branch per instrumentation point (measured by `layerbench`'s
//!   `telemetry.*_overhead_pct` rows).

#![warn(unreachable_pub)]

use std::time::Duration;

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// What a run should collect. Default: nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Collect per-dispatcher counters (tasks, busy/blocked time, queue
    /// occupancy samples).
    #[serde(default)]
    pub counters: bool,
    /// Record per-task execution spans for trace export.
    #[serde(default)]
    pub spans: bool,
}

impl TelemetryConfig {
    /// Everything off — the zero-overhead default.
    pub const OFF: TelemetryConfig = TelemetryConfig {
        counters: false,
        spans: false,
    };

    /// Everything on.
    pub fn full() -> TelemetryConfig {
        TelemetryConfig {
            counters: true,
            spans: true,
        }
    }

    /// Counters without span recording (constant memory per run).
    pub fn counters_only() -> TelemetryConfig {
        TelemetryConfig {
            counters: true,
            spans: false,
        }
    }

    /// Whether any collection is requested.
    pub fn any(&self) -> bool {
        self.counters || self.spans
    }
}

/// Per-dispatcher activity counters.
///
/// One instance per dispatcher thread, owned exclusively by that thread
/// while the pipeline runs; the executor moves them out at join and folds
/// them into [`RunTelemetry`]. All fields accumulate monotonically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatcherCounters {
    /// Tasks whose chunk this dispatcher executed.
    pub tasks: u64,
    /// Time spent inside kernel execution.
    pub busy: Duration,
    /// Time blocked popping an empty input queue (starvation).
    pub blocked_pop: Duration,
    /// Time blocked pushing a full output queue (back-pressure).
    pub blocked_push: Duration,
    /// Number of queue-occupancy samples taken.
    pub queue_samples: u64,
    /// Sum of sampled queue depths (mean = sum / samples).
    pub queue_depth_sum: u64,
}

impl DispatcherCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> DispatcherCounters {
        DispatcherCounters::default()
    }

    /// Records one executed task and its kernel time.
    pub fn record_task(&mut self, busy: Duration) {
        self.tasks += 1;
        self.busy += busy;
    }

    /// Records time spent starved on an input queue.
    pub fn record_blocked_pop(&mut self, d: Duration) {
        self.blocked_pop += d;
    }

    /// Records time spent back-pressured on an output queue.
    pub fn record_blocked_push(&mut self, d: Duration) {
        self.blocked_push += d;
    }

    /// Records one queue-occupancy observation.
    pub fn sample_queue_depth(&mut self, depth: usize) {
        self.queue_samples += 1;
        self.queue_depth_sum += depth as u64;
    }

    /// Mean sampled queue depth (0 when nothing was sampled).
    pub(crate) fn mean_queue_depth(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_samples as f64
        }
    }

    /// Serializable snapshot labelled with the dispatcher's name.
    pub fn stats(&self, label: impl Into<String>) -> DispatcherStats {
        DispatcherStats {
            label: label.into(),
            tasks: self.tasks,
            busy_us: self.busy.as_secs_f64() * 1e6,
            blocked_pop_us: self.blocked_pop.as_secs_f64() * 1e6,
            blocked_push_us: self.blocked_push.as_secs_f64() * 1e6,
            queue_samples: self.queue_samples,
            mean_queue_depth: self.mean_queue_depth(),
        }
    }
}

/// Serializable per-dispatcher summary (all times in µs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatcherStats {
    /// Dispatcher name (e.g. `"chunk0"`).
    pub label: String,
    /// Tasks executed.
    pub tasks: u64,
    /// Kernel-execution time.
    pub busy_us: f64,
    /// Input-starvation time.
    pub blocked_pop_us: f64,
    /// Output back-pressure time.
    pub blocked_push_us: f64,
    /// Queue-occupancy samples taken.
    pub queue_samples: u64,
    /// Mean sampled queue depth.
    pub mean_queue_depth: f64,
}

/// One completed execution span on a track (a chunk/dispatcher).
///
/// The unified timeline unit: host dispatchers record one span per
/// (chunk, task); the simulator additionally tags the stage index within
/// the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Track index (the schedule chunk / dispatcher that ran the span).
    pub track: u32,
    /// Task sequence number.
    pub task: u64,
    /// Stage index within the chunk, when per-stage resolution is
    /// available (the simulator); `None` for whole-chunk host spans.
    #[serde(default)]
    pub stage: Option<u32>,
    /// Start offset in µs from the run epoch.
    pub start_us: f64,
    /// End offset in µs from the run epoch.
    pub end_us: f64,
}

impl Span {
    /// Span length in µs.
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Complete telemetry of one pipeline run (host or simulated).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Which executor produced this (`"host"` or `"des"`).
    pub source: String,
    /// Per-dispatcher counter summaries, pipeline order.
    pub dispatchers: Vec<DispatcherStats>,
    /// Recorded execution spans (empty unless span recording was on).
    pub spans: Vec<Span>,
}

impl RunTelemetry {
    /// Serializes to the Chrome `trace_event` JSON object format
    /// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
    /// Perfetto. Each span becomes a complete (`"ph": "X"`) event on the
    /// thread of its track; dispatchers get `thread_name` metadata.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        for (i, d) in self.dispatchers.iter().enumerate() {
            events.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(i as u64)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(d.label.clone()))]),
                ),
            ]));
        }
        for s in &self.spans {
            let name = match s.stage {
                Some(stage) => format!("task {} / stage {}", s.task, stage),
                None => format!("task {}", s.task),
            };
            let mut args = vec![("task".into(), Value::U64(s.task))];
            if let Some(stage) = s.stage {
                args.push(("stage".into(), Value::U64(u64::from(stage))));
            }
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(name)),
                ("cat".into(), Value::Str(self.source.clone())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(s.start_us)),
                ("dur".into(), Value::F64(s.duration_us())),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(u64::from(s.track))),
                ("args".into(), Value::Object(args)),
            ]));
        }
        let root = Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]);
        serde_json::to_string(&root).expect("trace values serialize")
    }

    /// Serializes to compact JSONL: one `{"type": ...}`-tagged object per
    /// line — a `run` header, one `dispatcher` line per dispatcher, one
    /// `span` line per span.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::Object(vec![
            ("type".into(), Value::Str("run".into())),
            ("source".into(), Value::Str(self.source.clone())),
            (
                "dispatchers".into(),
                Value::U64(self.dispatchers.len() as u64),
            ),
            ("spans".into(), Value::U64(self.spans.len() as u64)),
        ]);
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for d in &self.dispatchers {
            push_tagged_line(&mut out, "dispatcher", d);
        }
        for s in &self.spans {
            push_tagged_line(&mut out, "span", s);
        }
        out
    }
}

fn push_tagged_line<T: Serialize>(out: &mut String, tag: &str, value: &T) {
    let mut line = serde_json::to_value(value).expect("telemetry values serialize");
    if let Value::Object(fields) = &mut line {
        fields.insert(0, ("type".into(), Value::Str(tag.into())));
    }
    out.push_str(&serde_json::to_string(&line).expect("telemetry values serialize"));
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_off() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg, TelemetryConfig::OFF);
        assert!(!cfg.any());
        assert!(TelemetryConfig::full().any());
        assert!(TelemetryConfig::counters_only().counters);
        assert!(!TelemetryConfig::counters_only().spans);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = DispatcherCounters::new();
        a.record_task(Duration::from_micros(100));
        a.record_task(Duration::from_micros(50));
        a.record_blocked_pop(Duration::from_micros(10));
        a.sample_queue_depth(3);
        a.sample_queue_depth(1);
        a.record_task(Duration::from_micros(25));
        a.record_blocked_push(Duration::from_micros(5));
        a.sample_queue_depth(2);
        assert_eq!(a.tasks, 3);
        assert_eq!(a.busy, Duration::from_micros(175));
        assert_eq!(a.blocked_pop, Duration::from_micros(10));
        assert_eq!(a.blocked_push, Duration::from_micros(5));
        assert_eq!(a.queue_samples, 3);
        assert!((a.mean_queue_depth() - 2.0).abs() < 1e-12);
    }

    fn sample_telemetry() -> RunTelemetry {
        let mut counters = DispatcherCounters::new();
        counters.record_task(Duration::from_micros(42));
        counters.sample_queue_depth(1);
        let span = |track, stage, start_us, end_us| Span {
            track,
            task: 0,
            stage,
            start_us,
            end_us,
        };
        RunTelemetry {
            source: "des".into(),
            dispatchers: vec![counters.stats("chunk0")],
            spans: vec![span(0, Some(1), 0.0, 42.0), span(1, None, 42.0, 50.0)],
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let trace = sample_telemetry().chrome_trace_json();
        let v: Value = serde_json::from_str(&trace).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 1 thread_name metadata + 2 spans.
        assert_eq!(events.len(), 3);
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for e in complete {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("tid").is_some());
        }
    }

    #[test]
    fn jsonl_lines_each_parse_and_are_tagged() {
        let jsonl = sample_telemetry().metrics_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4, "run + 1 dispatcher + 2 spans");
        let tags: Vec<String> = lines
            .iter()
            .map(|l| {
                let v: Value = serde_json::from_str(l).expect("each line is JSON");
                v.get("type")
                    .and_then(Value::as_str)
                    .expect("tagged")
                    .to_string()
            })
            .collect();
        assert_eq!(tags, ["run", "dispatcher", "span", "span"]);
    }

    #[test]
    fn telemetry_round_trips_through_serde() {
        let t = sample_telemetry();
        let json = serde_json::to_string(&t).expect("serializes");
        let back: RunTelemetry = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, t);
    }
}
