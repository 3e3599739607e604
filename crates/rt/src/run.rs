//! The shared run model: one configuration, one report, and one timeline
//! type for every execution engine in the workspace.
//!
//! Before this module existed the runtime had three parallel type families
//! that had already drifted (`DesConfig` vs `HostRunConfig`,
//! `TimelineEvent` vs `HostTimelineEvent`, `DesReport` vs
//! `FaultedDesReport` vs `HostReport`). Every engine — the static DES
//! (`bt_soc::simulate_dag`), the dynamic-scheduling DES
//! (`bt_soc::des_dynamic::simulate_dynamic`), and the host executor
//! (`bt_pipeline::run_host`) — now takes a [`RunConfig`] and returns a
//! [`RunReport`]. Fault injection and resilience ride alongside as explicit
//! mode parameters (`Option<&FaultSpec>`, an optional host
//! `ResilienceConfig`), so the fault-free hot path pays a single branch.
//!
//! Every engine closes its run through one finisher, [`finish_run`]: it
//! hands over its completions and busy spans in µs since the run's epoch
//! and gets back the steady-state [`RunStats`], the timeline and the
//! telemetry, so the simulator and the host measure with one window.
//!
//! Telemetry collection is host-tooling (`bt-telemetry` wraps files and
//! JSON), so the telemetry knob and payload only exist under the `std`
//! feature; the `no_std` substrate carries the rest of the model
//! unchanged.
//!
//! Accounting invariant shared by every engine:
//! `completed + dropped == submitted`.

use core::time::Duration;

use alloc::vec::Vec;

#[cfg(feature = "std")]
use alloc::{format, string::ToString};
#[cfg(feature = "std")]
use bt_telemetry::{DispatcherCounters, RunTelemetry, Span, TelemetryConfig};

use crate::affinity::AffinityMap;
use crate::micros::Micros;

/// Configuration of one pipeline run, simulated or on the host.
///
/// Substrate-specific knobs are documented as such and ignored by engines
/// they do not apply to: `noise_sigma`/`service_cache` drive the simulator
/// only, `affinity`/`duration` the host executor only.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Measured tasks (the paper uses 30 per run).
    pub tasks: u32,
    /// Warmup tasks excluded from measurement.
    ///
    /// One default for every engine: 5. (Historically the simulator
    /// defaulted to 5 and the host executor to 3 — see DESIGN.md § The run
    /// model for why they disagreed and why 5 won.)
    pub warmup: u32,
    /// Circulating task objects (multi-buffering depth). `0` means the
    /// engine default: `chunks + 1` for pipelined engines, `PUs + 1` for
    /// the dynamic scheduler.
    pub buffers: u32,
    /// Seed for the simulator's measurement-noise stream.
    pub seed: u64,
    /// Log-scale sigma of multiplicative measurement noise (simulator
    /// only; the host measures real wall-clock noise).
    pub noise_sigma: f64,
    /// Record a per-(chunk, task) execution timeline
    /// ([`RunReport::timeline`]) for Gantt-style inspection.
    pub record_timeline: bool,
    /// What telemetry to collect (off by default; the disabled path costs
    /// one branch per instrumentation point). Host tooling only, hence
    /// `std`-gated.
    #[cfg(feature = "std")]
    pub telemetry: TelemetryConfig,
    /// Memoize noiseless base service times per (chunk, stage, busy-set)
    /// key (simulator only; bit-identical on or off).
    pub service_cache: bool,
    /// Optional device affinity map (host only): dispatchers pin
    /// themselves to their chunk's pinnable cores, best-effort.
    pub affinity: Option<AffinityMap>,
    /// When set (host only), the head keeps admitting tasks until this
    /// wall-clock duration elapses (the paper's autotuning protocol runs
    /// each candidate "for a fixed interval of 10 seconds to measure its
    /// throughput", §3.3); `tasks` then only sizes the warmup accounting
    /// and the reported count comes from how many tasks actually finished.
    pub duration: Option<Duration>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            tasks: 30,
            warmup: 5,
            buffers: 0,
            seed: 0,
            noise_sigma: 0.02,
            record_timeline: false,
            #[cfg(feature = "std")]
            telemetry: TelemetryConfig::OFF,
            service_cache: true,
            affinity: None,
            duration: None,
        }
    }
}

impl RunConfig {
    /// Tasks one run submits: measured plus warmup, widened before adding
    /// so a `u32`-sized `tasks` cannot wrap (and to `u64` rather than
    /// `usize`, which is 32 bits on the MCU targets).
    pub fn total_tasks(&self) -> u64 {
        u64::from(self.tasks) + u64::from(self.warmup)
    }
}

/// One recorded execution span, shared by every engine's timeline, mapped
/// to `bt-telemetry` spans by [`finish_run`] and rendered by
/// `bt_soc::gantt`.
///
/// The simulator records one span per *stage* execution (`stage` is
/// `Some`); the host executor records one span per *chunk* execution
/// (`stage` is `None` — kernels inside a chunk are dispatched back to back
/// and only the chunk boundary is observable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSpan {
    /// Which chunk (or PU slot, for the dynamic scheduler) executed.
    pub chunk: usize,
    /// Stage index within the chunk, when per-stage resolution exists.
    pub stage: Option<usize>,
    /// Task sequence number.
    pub task: u64,
    /// Start offset in µs (virtual time, or wall-clock relative to the
    /// run's epoch).
    pub start_us: f64,
    /// End offset in µs.
    pub end_us: f64,
}

/// Steady-state measurement of the tasks that completed, built only by
/// [`finish_run`].
///
/// All engines share its departure-to-departure window: with warmup the
/// window opens at the last warmup departure and covers `tasks`
/// inter-departure intervals; without warmup (or when no more than
/// `warmup` tasks completed) it opens at the first departure (one fewer
/// interval); a single completed task degenerates to its own entry→exit
/// latency, whatever was admitted or dropped before it.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Time between the window anchor and the last task's departure
    /// (steady-state window, excluding pipeline fill).
    pub makespan: Micros,
    /// Mean per-task residence time (entry into the pipeline → exit from
    /// the last chunk) over measured tasks.
    pub mean_task_latency: Micros,
    /// Steady-state inverse throughput (mean inter-departure time over the
    /// measured window). This is the quantity the paper reports as
    /// pipeline latency and compares against the predicted bottleneck
    /// `T_max`.
    pub time_per_task: Micros,
    /// Tasks completed per second.
    pub throughput_hz: f64,
    /// Fraction of the measured window each chunk spent busy (busy time
    /// clipped to the window, so warmup and fill work cannot inflate it).
    pub chunk_utilization: Vec<f64>,
    /// Index of the chunk with the highest utilization.
    pub bottleneck_chunk: usize,
    /// Number of measured tasks.
    pub tasks: u32,
}

/// The measured part of a [`RunReport`], as [`finish_run`] returns it; the
/// accounting fields stay with each engine.
#[derive(Debug)]
pub struct FinishedRun {
    /// Steady-state stats, `None` when nothing completed.
    pub stats: Option<RunStats>,
    /// The timeline, empty unless [`RunConfig::record_timeline`] was set.
    pub timeline: Vec<TimelineSpan>,
    /// Telemetry, `None` unless [`RunConfig::telemetry`] enables something.
    #[cfg(feature = "std")]
    pub telemetry: Option<RunTelemetry>,
}

/// Closes a run: the one place every engine's [`RunStats`], timeline and
/// telemetry come from. All times are µs since the run's epoch.
///
/// - `completions`: `(entry, exit)` of every completed task, in task
///   sequence order (a FIFO pipeline's departure order). The first
///   `cfg.warmup` completions, whatever their sequence numbers, are the
///   fill transient; dropped tasks contribute nothing.
/// - `busy`: per chunk, its `(start, end)` busy intervals, clipped to the
///   window for utilization.
/// - `timeline`: the run's spans when `cfg` asks for a timeline or span
///   telemetry, else empty.
/// - `source` and `counters` (std only): the telemetry's source label,
///   and the per-chunk counters when they were collected.
///
/// A zero-length window is clamped to 1e-9 µs.
pub fn finish_run(
    cfg: &RunConfig,
    completions: &[(f64, f64)],
    busy: &[Vec<(f64, f64)>],
    timeline: Vec<TimelineSpan>,
    #[cfg(feature = "std")] source: &str,
    #[cfg(feature = "std")] counters: Option<&[DispatcherCounters]>,
) -> FinishedRun {
    #[cfg(feature = "std")]
    let telemetry = cfg.telemetry.any().then(|| RunTelemetry {
        source: source.to_string(),
        dispatchers: counters.map_or_else(Vec::new, |cs| {
            let chunks = cs.iter().enumerate();
            chunks.map(|(i, c)| c.stats(format!("chunk{i}"))).collect()
        }),
        spans: if cfg.telemetry.spans {
            timeline
                .iter()
                .map(|ev| Span {
                    track: ev.chunk as u32,
                    task: ev.task,
                    stage: ev.stage.map(|s| s as u32),
                    start_us: ev.start_us,
                    end_us: ev.end_us,
                })
                .collect()
        } else {
            Vec::new()
        },
    });
    FinishedRun {
        stats: steady_stats(completions, cfg.warmup as usize, busy),
        timeline: if cfg.record_timeline {
            timeline
        } else {
            Vec::new()
        },
        #[cfg(feature = "std")]
        telemetry,
    }
}

/// The steady-state window of [`RunStats`] over `completions`, `None` when
/// nothing completed.
fn steady_stats(
    completions: &[(f64, f64)],
    warmup: usize,
    busy: &[Vec<(f64, f64)>],
) -> Option<RunStats> {
    let n = completions.len();
    if n == 0 {
        return None;
    }
    let (w_start, skip, intervals) = if warmup > 0 && n > warmup {
        (completions[warmup - 1].1, warmup, (n - warmup) as f64)
    } else if n > 1 {
        (completions[0].1, 0, (n - 1) as f64)
    } else {
        (completions[0].0, 0, 1.0)
    };
    let w_end = completions[n - 1].1;
    let makespan = (w_end - w_start).max(1e-9);
    let measured = &completions[skip..];
    let mean_latency = measured.iter().map(|(e, x)| x - e).sum::<f64>() / measured.len() as f64;
    let chunk_utilization: Vec<f64> = busy
        .iter()
        .map(|spans| {
            let in_window: f64 = spans
                .iter()
                .map(|&(t0, t1)| (t1.min(w_end) - t0.max(w_start)).max(0.0))
                .sum();
            in_window / makespan
        })
        .collect();
    let bottleneck_chunk = chunk_utilization
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("utilization is never NaN"))
        .map_or(0, |(i, _)| i);
    Some(RunStats {
        makespan: Micros::new(makespan),
        mean_task_latency: Micros::new(mean_latency),
        time_per_task: Micros::new(makespan / intervals),
        throughput_hz: intervals / (makespan / 1e6),
        chunk_utilization,
        bottleneck_chunk,
        tasks: (n - skip) as u32,
    })
}

/// Why a host run degraded instead of completing cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeReason {
    /// `chunk` exhausted its per-chunk failure budget
    /// (`ResilienceConfig::max_task_failures`); the head stopped admitting
    /// and the pipeline drained its in-flight tasks.
    KernelFailures {
        /// The chunk whose kernels kept failing.
        chunk: usize,
    },
    /// `chunk`'s dispatcher starved past the watchdog deadline with its
    /// producer still alive — an upstream kernel is presumed hung, so the
    /// pipeline unwound without a full drain.
    WatchdogTimeout {
        /// The dispatcher that starved (not necessarily the hung one).
        chunk: usize,
    },
}

/// Result of one pipeline run — simulated or host, fault-free or not.
///
/// The accounting triple (`submitted`, `completed`, `dropped`) always
/// conserves tasks; `stats` is `None` only when *nothing* completed.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Tasks admitted at the pipeline head.
    pub submitted: u64,
    /// Tasks that exited the pipeline tail.
    pub completed: u64,
    /// `submitted - completed`: dropped by fault injection, tombstoned by
    /// retries-exhausted kernels, or discarded by a watchdog unwind.
    pub dropped: u64,
    /// Fault activations observed (injected-fault firings in the
    /// simulator; tombstoned tasks on the host).
    pub faults_fired: u32,
    /// Steady-state measurement over the tasks that completed, if any.
    pub stats: Option<RunStats>,
    /// Recorded execution spans (empty unless
    /// [`RunConfig::record_timeline`] was set).
    pub timeline: Vec<TimelineSpan>,
    /// Collected telemetry (`None` unless [`RunConfig::telemetry`] enables
    /// something).
    #[cfg(feature = "std")]
    pub telemetry: Option<RunTelemetry>,
    /// Host-executor degradation verdict (`None` for clean runs and for
    /// the simulator, whose degradations are visible as `dropped > 0`).
    pub degraded: Option<DegradeReason>,
}

impl RunReport {
    /// Whether the run lost tasks or degraded.
    pub fn is_degraded(&self) -> bool {
        self.dropped > 0 || self.stats.is_none() || self.degraded.is_some()
    }

    /// The steady-state stats of a run expected to be clean.
    ///
    /// # Panics
    ///
    /// Panics if nothing completed (`stats` is `None`).
    pub fn expect_stats(&self) -> &RunStats {
        self.stats
            .as_ref()
            .expect("run completed no tasks; check is_degraded() first")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;

    fn clean_report() -> RunReport {
        RunReport {
            submitted: 35,
            completed: 35,
            dropped: 0,
            faults_fired: 0,
            stats: Some(RunStats {
                makespan: Micros::new(3_000.0),
                mean_task_latency: Micros::new(250.0),
                time_per_task: Micros::new(100.0),
                throughput_hz: 10_000.0,
                chunk_utilization: vec![0.9, 0.4],
                bottleneck_chunk: 0,
                tasks: 30,
            }),
            timeline: Vec::new(),
            #[cfg(feature = "std")]
            telemetry: None,
            degraded: None,
        }
    }

    #[test]
    fn clean_run_is_not_degraded() {
        let r = clean_report();
        assert!(!r.is_degraded());
        assert_eq!(r.expect_stats().tasks, 30);
    }

    #[test]
    fn dropped_tasks_mark_degradation() {
        let mut r = clean_report();
        r.completed = 33;
        r.dropped = 2;
        assert!(r.is_degraded());
    }

    /// `finish_run` with no timeline and no counters.
    fn finish(warmup: u32, completions: &[(f64, f64)], busy: &[Vec<(f64, f64)>]) -> RunStats {
        let cfg = RunConfig {
            warmup,
            ..RunConfig::default()
        };
        #[cfg(feature = "std")]
        let run = finish_run(&cfg, completions, busy, Vec::new(), "test", None);
        #[cfg(not(feature = "std"))]
        let run = finish_run(&cfg, completions, busy, Vec::new());
        run.stats.expect("something completed")
    }

    /// Four tasks entering every 5 µs and leaving every 10 µs.
    const FOUR: [(f64, f64); 4] = [(0.0, 10.0), (5.0, 20.0), (10.0, 30.0), (15.0, 40.0)];

    #[test]
    fn warmup_window_opens_at_the_last_warmup_departure() {
        let s = finish(1, &FOUR, &[]);
        assert_eq!(s.makespan.as_f64(), 30.0);
        assert_eq!(s.time_per_task.as_f64(), 10.0);
        assert_eq!(s.mean_task_latency.as_f64(), 20.0);
        assert_eq!(s.throughput_hz, 1e5);
        assert_eq!(s.tasks, 3);
    }

    #[test]
    fn window_without_warmup_opens_at_the_first_departure() {
        // Also what a run with no more completions than warmup measures.
        for warmup in [0, 4, 9] {
            let s = finish(warmup, &FOUR, &[]);
            assert_eq!(s.makespan.as_f64(), 30.0);
            assert_eq!(s.time_per_task.as_f64(), 10.0);
            assert_eq!(s.mean_task_latency.as_f64(), 17.5);
            assert_eq!(s.tasks, 4);
        }
        assert!(steady_stats(&[], 0, &[]).is_none());
    }

    #[test]
    fn a_single_completion_is_anchored_on_its_own_entry() {
        // Task 0 entered at 0 µs and was dropped; only task 1 completed.
        // The window is task 1's own residence, not one from task 0's entry.
        let s = finish(0, &[(7.0, 19.0)], &[]);
        assert_eq!(s.makespan.as_f64(), 12.0);
        assert_eq!(s.mean_task_latency, s.makespan);
        assert_eq!(s.time_per_task, s.makespan);
        assert_eq!(s.tasks, 1);
    }

    #[test]
    fn a_zero_length_window_is_clamped_to_1e_9_us() {
        let s = finish(0, &[(3.0, 3.0)], &[vec![(3.0, 3.0)]]);
        assert_eq!(s.makespan.as_f64(), 1e-9);
        assert_eq!(s.time_per_task.as_f64(), 1e-9);
        assert_eq!(s.chunk_utilization, [0.0]);
    }

    #[test]
    fn utilization_counts_only_busy_time_inside_the_window() {
        // Window [10, 40] (warmup 1). Chunk 0 is busy throughout, fill
        // included; chunk 1 for 5 µs before and 5 µs inside the window.
        let busy = [
            vec![(0.0, 12.0), (12.0, 22.0), (22.0, 32.0), (32.0, 42.0)],
            vec![(0.0, 5.0), (35.0, 45.0)],
        ];
        let s = finish(1, &FOUR, &busy);
        assert_eq!(s.chunk_utilization, [1.0, 5.0 / 30.0]);
        assert_eq!(s.bottleneck_chunk, 0);
    }

    #[cfg(feature = "std")]
    #[test]
    fn telemetry_spans_are_the_timeline_and_counters_are_labelled_by_chunk() {
        let span = |chunk, task| TimelineSpan {
            chunk,
            stage: Some(1),
            task,
            start_us: task as f64,
            end_us: task as f64 + 0.5,
        };
        let timeline = vec![span(0, 0), span(1, 0), span(0, 1)];
        let counters = [DispatcherCounters::new(); 2];
        let mut cfg = RunConfig {
            telemetry: TelemetryConfig::full(),
            ..RunConfig::default()
        };
        for record_timeline in [false, true] {
            cfg.record_timeline = record_timeline;
            let run = finish_run(&cfg, &FOUR, &[], timeline.clone(), "des", Some(&counters));
            let t = run.telemetry.expect("telemetry requested");
            assert_eq!(t.source, "des");
            let labels: Vec<&str> = t.dispatchers.iter().map(|d| d.label.as_str()).collect();
            assert_eq!(labels, ["chunk0", "chunk1"]);
            let as_timeline: Vec<TimelineSpan> = t
                .spans
                .iter()
                .map(|s| TimelineSpan {
                    chunk: s.track as usize,
                    stage: s.stage.map(|s| s as usize),
                    task: s.task,
                    start_us: s.start_us,
                    end_us: s.end_us,
                })
                .collect();
            assert_eq!(as_timeline, timeline);
            assert_eq!(run.timeline.len(), if record_timeline { 3 } else { 0 });
        }
        let off = finish_run(&RunConfig::default(), &FOUR, &[], Vec::new(), "des", None);
        assert!(off.telemetry.is_none() && off.timeline.is_empty());
    }

    #[test]
    fn default_config_matches_paper_protocol() {
        let c = RunConfig::default();
        assert_eq!((c.tasks, c.warmup, c.buffers), (30, 5, 0));
        assert!(c.service_cache);
        assert!(c.affinity.is_none());
        assert!(c.duration.is_none());
    }

    #[test]
    fn total_tasks_widens_before_adding() {
        // `(tasks + warmup) as u64` panicked in debug builds and wrapped
        // to 0 in release ones, so the host executor admitted nothing.
        let cfg = RunConfig {
            tasks: u32::MAX,
            warmup: 1,
            ..RunConfig::default()
        };
        assert_eq!(cfg.total_tasks(), 1 << 32);
        assert_eq!(RunConfig::default().total_tasks(), 35);
    }
}
