//! The host pipeline executor: real dispatcher threads, one per chunk,
//! passing recycled TaskObjects through lock-free SPSC queues (§3.4 of the
//! paper).
//!
//! Each dispatcher repeatedly: pops a TaskObject pointer from its input
//! queue, dispatches its chunk's compute kernels in sequence (via the
//! OpenMP-stand-in [`ParCtx`] worker pool), and pushes the pointer to the
//! next queue. The head dispatcher doubles as the streaming source,
//! recycling returned objects for new inputs; the tail records completion
//! timestamps.
//!
//! There is **one** executor, [`run_host`], parameterized by an optional
//! [`ResilienceConfig`]:
//!
//! - `res == None` — *fail-fast*: a panicking stage kernel aborts the run
//!   with [`PipelineError::StagePanicked`] after a clean shutdown of every
//!   dispatcher.
//! - `res == Some(_)` — *resilient*: panics are retried with backoff,
//!   retries-exhausted tasks are tombstoned and counted as dropped, a
//!   failure-budget overrun drains the pipeline gracefully, and a watchdog
//!   unwinds a wedged pipeline. The run then *degrades* (see
//!   [`RunReport::degraded`]) instead of erroring.
//!
//! Both modes share one dispatcher loop, one accounting path, and one
//! report type — the unified [`RunReport`] also produced by the simulator.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bt_kernels::{Application, ParCtx};
use bt_soc::{
    DegradeReason, Micros, PerClass, PuClass, RunConfig, RunReport, RunStats, TimelineSpan,
};
use bt_telemetry::{DispatcherCounters, RunTelemetry, SpanRecorder};

use crate::spsc;
use crate::{DagSchedule, Schedule, TaskObject};

/// Worker-thread budget per PU class for host execution.
///
/// The host has no big.LITTLE clusters, so classes map to thread counts —
/// enough to exercise the real runtime (queues, dispatchers, recycling,
/// pinning) with genuine parallelism.
#[derive(Debug, Clone)]
pub struct PuThreads {
    map: PerClass<usize>,
    default: usize,
}

impl PuThreads {
    /// Every class gets `n` workers.
    pub fn uniform(n: usize) -> PuThreads {
        PuThreads {
            map: PerClass::empty(),
            default: n.max(1),
        }
    }

    /// Overrides one class's worker count.
    pub fn with_class(mut self, class: PuClass, n: usize) -> PuThreads {
        self.map.set(class, n.max(1));
        self
    }

    /// Workers for `class`.
    pub fn threads(&self, class: PuClass) -> usize {
        self.map.get(class).copied().unwrap_or(self.default)
    }
}

impl Default for PuThreads {
    fn default() -> PuThreads {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        PuThreads::uniform((cores / 2).max(1))
            .with_class(PuClass::LittleCpu, 1)
            .with_class(PuClass::MediumCpu, 2)
    }
}

/// Errors from the pipeline executors (host threads or simulator bridge).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// Schedule and application disagree on stage count.
    StageMismatch {
        /// Stages in the application.
        app: usize,
        /// Stages in the schedule.
        schedule: usize,
    },
    /// Schedule and application disagree on the stage-dependency graph —
    /// e.g. a cached DAG plan deserialized against a reshaped app.
    GraphMismatch,
    /// Resilient execution was requested for a genuinely fork/join
    /// schedule; the host executor's retry/tombstone machinery currently
    /// covers chain-shaped schedules only (the simulator prices DAG
    /// faults; see `simulate_dag_schedule`).
    ResilienceUnsupported,
    /// `tasks` was zero, or a run measured nothing.
    NoTasks,
    /// A stage kernel panicked in fail-fast mode; the pipeline was shut
    /// down cleanly. Resilient runs degrade instead of returning this.
    StagePanicked {
        /// Index of the chunk whose kernel panicked.
        chunk: usize,
    },
    /// The simulated device rejected the run (missing PU, empty inputs).
    Soc(bt_soc::SocError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::StageMismatch { app, schedule } => write!(
                f,
                "schedule has {schedule} stages but the application has {app}"
            ),
            PipelineError::GraphMismatch => {
                f.write_str("schedule and application disagree on the stage-dependency graph")
            }
            PipelineError::ResilienceUnsupported => f.write_str(
                "resilient host execution supports chain-shaped schedules only \
                 (use fail-fast, or the DAG simulator for fault studies)",
            ),
            PipelineError::NoTasks => f.write_str("at least one task is required"),
            PipelineError::StagePanicked { chunk } => {
                write!(f, "a stage kernel panicked in chunk {chunk}")
            }
            PipelineError::Soc(e) => write!(f, "simulated device error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Soc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bt_soc::SocError> for PipelineError {
    fn from(e: bt_soc::SocError) -> PipelineError {
        PipelineError::Soc(e)
    }
}

/// Resilience policy of [`run_host`]; `None` means fail-fast.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Per-dispatcher watchdog on blocking input pops. When a dispatcher
    /// starves this long while its producer is still alive, the run is
    /// declared wedged (an upstream kernel is presumed hung), every
    /// dispatcher unwinds, and the run degrades with
    /// [`DegradeReason::WatchdogTimeout`]. `None` disables the watchdog
    /// (pops still detect dead producers via the SPSC disconnect signal).
    pub watchdog: Option<Duration>,
    /// Retries per failed stage execution, beyond the first attempt.
    pub retries: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub retry_backoff: Duration,
    /// Tombstoned (retries-exhausted) tasks one chunk tolerates before the
    /// head stops admitting and the pipeline drains into
    /// [`DegradeReason::KernelFailures`].
    pub max_task_failures: u32,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            watchdog: Some(Duration::from_secs(2)),
            retries: 2,
            retry_backoff: Duration::from_millis(1),
            max_task_failures: 3,
        }
    }
}

enum Msg<P> {
    Task(Box<TaskObject<P>>),
    Stop,
}

/// Per-dispatcher results collected at join time.
#[derive(Default)]
struct ChunkOutput {
    /// Entry instants per seq (head dispatcher only).
    entries: Vec<Instant>,
    /// `(seq, residence, finished_at)` per task (tail dispatcher only).
    completions: Vec<(u64, Duration, Instant)>,
    /// `(task, start, end)` of every chunk execution. Always recorded: the
    /// measurement window is only known after the run, so computing
    /// in-window busy time (utilization) requires the raw spans.
    spans: Vec<(u64, Instant, Instant)>,
    /// Telemetry counters (zeroed unless counter collection is on).
    counters: DispatcherCounters,
}

fn w_fallback(entries: &[Instant]) -> Instant {
    entries.first().copied().unwrap_or_else(Instant::now)
}

/// Blocking push that aborts (returning `false`) once the halt flag is
/// raised, so no dispatcher deadlocks on a dead neighbour's full queue.
fn push_until<T>(tx: &mut spsc::Producer<T>, mut value: T, halt: &AtomicBool) -> bool {
    let mut backoff = spsc::Backoff::new();
    loop {
        match tx.push(value) {
            Ok(()) => return true,
            Err(back) => {
                if halt.load(Ordering::Relaxed) {
                    return false;
                }
                value = back;
                backoff.snooze();
            }
        }
    }
}

/// [`push_until`] plus back-pressure accounting and a post-push occupancy
/// sample of the output queue when counters are enabled.
fn push_timed<T>(
    tx: &mut spsc::Producer<T>,
    value: T,
    halt: &AtomicBool,
    count: bool,
    counters: &mut DispatcherCounters,
) -> bool {
    if !count {
        return push_until(tx, value, halt);
    }
    let t0 = Instant::now();
    let ok = push_until(tx, value, halt);
    counters.record_blocked_push(t0.elapsed());
    if ok {
        counters.sample_queue_depth(tx.len());
    }
    ok
}

/// Degradation signals shared by the dispatchers.
///
/// Fail-fast mode uses only `halt` (raised on the first kernel panic);
/// resilient mode additionally reports typed degradation reasons.
struct DegradeSignals {
    /// Graceful: the head stops admitting; in-flight tasks drain normally.
    degrade: AtomicBool,
    /// Hard: every blocking loop aborts promptly (wedged or failed
    /// pipeline).
    halt: AtomicBool,
    /// Encoded first-reported reason: 0 none, 1 kernel failures, 2
    /// watchdog; `reason_chunk` is only meaningful once `reason_kind != 0`.
    reason_kind: AtomicUsize,
    reason_chunk: AtomicUsize,
}

impl DegradeSignals {
    fn new() -> DegradeSignals {
        DegradeSignals {
            degrade: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            reason_kind: AtomicUsize::new(0),
            reason_chunk: AtomicUsize::new(0),
        }
    }

    /// Records the first degradation reason; later reports are ignored.
    fn report(&self, kind: usize, chunk: usize) {
        if self
            .reason_kind
            .compare_exchange(0, kind, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.reason_chunk.store(chunk, Ordering::SeqCst);
        }
    }

    fn kernel_failures(&self, chunk: usize) {
        self.report(1, chunk);
        self.degrade.store(true, Ordering::SeqCst);
    }

    fn watchdog(&self, chunk: usize) {
        self.report(2, chunk);
        self.degrade.store(true, Ordering::SeqCst);
        self.halt.store(true, Ordering::SeqCst);
    }

    fn reason(&self) -> Option<DegradeReason> {
        let chunk = self.reason_chunk.load(Ordering::SeqCst);
        match self.reason_kind.load(Ordering::SeqCst) {
            1 => Some(DegradeReason::KernelFailures { chunk }),
            2 => Some(DegradeReason::WatchdogTimeout { chunk }),
            _ => None,
        }
    }
}

enum ResilientPop<T> {
    Got(T),
    /// Producer gone or halt raised: stop consuming.
    Stopped,
    /// Watchdog deadline elapsed with a live producer.
    Starved,
}

/// Watchdog-aware blocking pop: waits for an item, a dead producer, the
/// halt flag, or the watchdog deadline — whichever comes first. With no
/// watchdog it is still halt-aware and disconnect-aware, which is the
/// fail-fast pop as well.
fn pop_watchdog<T>(
    rx: &mut spsc::Consumer<T>,
    halt: &AtomicBool,
    watchdog: Option<Duration>,
) -> ResilientPop<T> {
    let Some(watchdog) = watchdog else {
        let mut backoff = spsc::Backoff::new();
        loop {
            if let Some(v) = rx.pop() {
                return ResilientPop::Got(v);
            }
            if halt.load(Ordering::Relaxed) || rx.is_disconnected() {
                return match rx.pop() {
                    Some(v) => ResilientPop::Got(v),
                    None => ResilientPop::Stopped,
                };
            }
            backoff.snooze();
        }
    };
    // Wait in short slices so a halt raised elsewhere is noticed well
    // before a long watchdog deadline expires.
    let deadline = Instant::now() + watchdog;
    loop {
        let slice = Duration::from_millis(5).min(watchdog);
        match rx.pop_deadline(slice) {
            Ok(v) => return ResilientPop::Got(v),
            Err(spsc::PopError::Disconnected) => return ResilientPop::Stopped,
            Err(spsc::PopError::TimedOut) => {
                if halt.load(Ordering::Relaxed) {
                    return match rx.pop() {
                        Some(v) => ResilientPop::Got(v),
                        None => ResilientPop::Stopped,
                    };
                }
                if Instant::now() >= deadline {
                    return ResilientPop::Starved;
                }
            }
        }
    }
}

/// Executes `schedule` over `app` on the host with real threads, streaming
/// `cfg.tasks + cfg.warmup` inputs through the pipeline (or admitting until
/// [`RunConfig::duration`] elapses).
///
/// `res` selects the failure policy:
///
/// - `None` — **fail-fast**: a panicking stage kernel shuts every
///   dispatcher down and the run errors with
///   [`PipelineError::StagePanicked`].
/// - `Some(res)` — **resilient**: never a hang, never a panic escaping the
///   executor. A panicking kernel is retried up to
///   [`ResilienceConfig::retries`] times (backoff doubling from
///   [`ResilienceConfig::retry_backoff`]); a task whose retries are
///   exhausted is tombstoned ([`TaskObject::dropped`]) and keeps flowing so
///   the object pool never shrinks; a chunk exceeding
///   [`ResilienceConfig::max_task_failures`] stops the head and the
///   pipeline drains; a dispatcher starving past
///   [`ResilienceConfig::watchdog`] on a live producer declares the
///   pipeline wedged and unwinds every thread promptly. The run then
///   reports a [`DegradeReason`] in [`RunReport::degraded`] and dropped
///   tasks in [`RunReport::dropped`].
///
/// The report upholds `completed + dropped == submitted`; tasks in flight
/// during a watchdog unwind count as dropped. [`RunReport::faults_fired`]
/// counts tombstoned tasks observed at the tail.
///
/// Simulator-only fields of [`RunConfig`] (`seed`, `noise_sigma`,
/// `service_cache`) are ignored: the host measures wall-clock reality.
///
/// # Errors
///
/// Returns [`PipelineError`] for configuration errors (stage mismatch,
/// zero tasks), a fail-fast kernel panic, or a run that measured nothing.
pub fn run_host<P: Send + 'static>(
    app: &Application<P>,
    schedule: &Schedule,
    threads: &PuThreads,
    cfg: &RunConfig,
    res: Option<&ResilienceConfig>,
) -> Result<RunReport, PipelineError> {
    if schedule.stage_count() != app.stage_count() {
        return Err(PipelineError::StageMismatch {
            app: app.stage_count(),
            schedule: schedule.stage_count(),
        });
    }
    if cfg.tasks == 0 {
        return Err(PipelineError::NoTasks);
    }

    let chunks = schedule.chunks();
    let k = chunks.len();
    // In duration mode the head admits tasks until the deadline.
    let duration_mode = cfg.duration.is_some();
    let total = if duration_mode {
        u64::MAX
    } else {
        cfg.total_tasks()
    };
    let deadline = cfg.duration.map(|d| Instant::now() + d);
    let buffers = if cfg.buffers == 0 {
        k + 1
    } else {
        cfg.buffers as usize
    };

    // Queues: inter-chunk channels 0..k-1 carry Msg; the recycle channel
    // carries bare boxes back to the head.
    let mut producers: Vec<Option<spsc::Producer<Msg<P>>>> = Vec::new();
    let mut consumers: Vec<Option<spsc::Consumer<Msg<P>>>> = Vec::new();
    for _ in 1..k {
        let (tx, rx) = spsc::channel(buffers.max(1)).expect("capacity is at least 1");
        producers.push(Some(tx));
        consumers.push(Some(rx));
    }
    let (mut recycle_tx, recycle_rx) =
        spsc::channel::<Box<TaskObject<P>>>(buffers.max(1)).expect("capacity is at least 1");
    for _ in 0..buffers {
        let obj = Box::new(TaskObject::new(app.new_payload()));
        recycle_tx
            .push(obj)
            .unwrap_or_else(|_| unreachable!("capacity equals the pool size"));
    }

    let signals = DegradeSignals::new();
    let failed_chunk = AtomicUsize::new(usize::MAX);
    let submitted = AtomicUsize::new(0);
    let tail_dropped = AtomicUsize::new(0);
    let outputs: Vec<ChunkOutput> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        let mut recycle_rx = Some(recycle_rx);
        let mut recycle_tx = Some(recycle_tx);

        for (ci, chunk) in chunks.iter().copied().enumerate() {
            let is_head = ci == 0;
            let is_tail = ci == k - 1;
            let input = if is_head {
                None
            } else {
                Some(consumers[ci - 1].take().expect("each consumer moved once"))
            };
            let output = if is_tail {
                None
            } else {
                Some(producers[ci].take().expect("each producer moved once"))
            };
            let head_rx = if is_head { recycle_rx.take() } else { None };
            let tail_tx = if is_tail { recycle_tx.take() } else { None };
            let ctx = ParCtx::new(threads.threads(chunk.pu));
            let pin_cores: Vec<usize> = cfg
                .affinity
                .as_ref()
                .map(|m| m.pinnable(chunk.pu).to_vec())
                .unwrap_or_default();

            let signals = &signals;
            let failed_chunk = &failed_chunk;
            let submitted = &submitted;
            let tail_dropped = &tail_dropped;
            handles.push(scope.spawn(move || {
                // Best-effort pinning; worker threads inherit the mask.
                crate::affinity::pin_current_thread(&pin_cores);

                let mut out = ChunkOutput::default();
                let mut input = input;
                let mut output = output;
                let mut head_rx = head_rx;
                let mut tail_tx = tail_tx;
                let halt = &signals.halt;
                let watchdog = res.and_then(|r| r.watchdog);

                let count = cfg.telemetry.counters;
                let mut counters = DispatcherCounters::new();
                let mut busy = Duration::ZERO;
                let mut spans: Vec<(u64, Instant, Instant)> = Vec::new();
                let mut failures = 0u32;

                // One task's chunk execution. Returns whether the object
                // should keep flowing downstream.
                //
                // Fail-fast (`res == None`): a single attempt; a panic
                // records the chunk, halts the pipeline, and returns
                // `false`. Resilient: retried with doubling backoff; a
                // task whose attempts are all spent is tombstoned rather
                // than aborting the pipeline (so it always returns
                // `true`), and a chunk burning through its failure budget
                // degrades the run gracefully (the head stops admitting).
                let mut run_chunk = |obj: &mut TaskObject<P>, ctx: &ParCtx| -> bool {
                    let retries = res.map_or(0, |r| r.retries);
                    let mut wait = res.map_or(Duration::ZERO, |r| r.retry_backoff);
                    for attempt in 0..=retries {
                        if attempt > 0 {
                            std::thread::sleep(wait);
                            wait *= 2;
                        }
                        let t0 = Instant::now();
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            for s in chunk.first_stage..=chunk.last_stage {
                                app.stages()[s].run(&mut obj.payload, ctx);
                            }
                        }));
                        let t1 = Instant::now();
                        busy += t1 - t0;
                        spans.push((obj.seq, t0, t1));
                        if result.is_ok() {
                            return true;
                        }
                    }
                    let Some(res) = res else {
                        // Fail-fast: first panic ends the run.
                        failed_chunk
                            .compare_exchange(usize::MAX, ci, Ordering::SeqCst, Ordering::SeqCst)
                            .ok();
                        halt.store(true, Ordering::SeqCst);
                        return false;
                    };
                    obj.dropped = true;
                    failures += 1;
                    // Any tombstone makes the run degraded; only a budget
                    // overrun additionally stops the head from admitting.
                    signals.report(1, ci);
                    if failures > res.max_task_failures {
                        signals.kernel_failures(ci);
                    }
                    true
                };

                let pop_in = |rx: &mut spsc::Consumer<Msg<P>>,
                              counters: &mut DispatcherCounters|
                 -> ResilientPop<Msg<P>> {
                    let t0 = count.then(Instant::now);
                    let r = pop_watchdog(rx, halt, watchdog);
                    if let Some(t0) = t0 {
                        counters.record_blocked_pop(t0.elapsed());
                    }
                    r
                };

                if is_head {
                    let rx = head_rx.as_mut().expect("head owns the recycle consumer");
                    for seq in 0..total {
                        if signals.degrade.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                break;
                            }
                        }
                        let t0 = count.then(Instant::now);
                        let popped = pop_watchdog(rx, halt, watchdog);
                        if let Some(t0) = t0 {
                            counters.record_blocked_pop(t0.elapsed());
                        }
                        let mut obj = match popped {
                            ResilientPop::Got(o) => o,
                            ResilientPop::Stopped => break,
                            ResilientPop::Starved => {
                                signals.watchdog(ci);
                                break;
                            }
                        };
                        obj.recycle(seq);
                        app.load_input(&mut obj.payload, seq);
                        out.entries.push(obj.entered.expect("stamped by recycle"));
                        submitted.fetch_add(1, Ordering::Relaxed);
                        if !run_chunk(&mut obj, &ctx) {
                            break;
                        }
                        if is_tail {
                            if obj.dropped {
                                tail_dropped.fetch_add(1, Ordering::Relaxed);
                            } else {
                                let entered = obj.entered.expect("stamped");
                                let now = Instant::now();
                                out.completions.push((seq, now - entered, now));
                            }
                            if !push_timed(
                                tail_tx.as_mut().expect("tail owns the recycle producer"),
                                obj,
                                halt,
                                count,
                                &mut counters,
                            ) {
                                break;
                            }
                        } else if !push_timed(
                            output.as_mut().expect("non-tail has an output queue"),
                            Msg::Task(obj),
                            halt,
                            count,
                            &mut counters,
                        ) {
                            break;
                        }
                    }
                    if !is_tail {
                        let _ = push_until(output.as_mut().expect("non-tail"), Msg::Stop, halt);
                    }
                } else {
                    let rx = input.as_mut().expect("non-head has an input queue");
                    loop {
                        match pop_in(rx, &mut counters) {
                            ResilientPop::Stopped => break,
                            ResilientPop::Starved => {
                                signals.watchdog(ci);
                                break;
                            }
                            ResilientPop::Got(Msg::Stop) => {
                                if let Some(tx) = output.as_mut() {
                                    let _ = push_until(tx, Msg::Stop, halt);
                                }
                                break;
                            }
                            ResilientPop::Got(Msg::Task(mut obj)) => {
                                if halt.load(Ordering::Relaxed) {
                                    continue; // drain to unblock upstream
                                }
                                if !obj.dropped && !run_chunk(&mut obj, &ctx) {
                                    // Fail-fast panic: tell downstream,
                                    // keep draining to unblock upstream.
                                    if let Some(tx) = output.as_mut() {
                                        let _ = push_until(tx, Msg::Stop, halt);
                                    }
                                    continue;
                                }
                                if is_tail {
                                    if obj.dropped {
                                        tail_dropped.fetch_add(1, Ordering::Relaxed);
                                    } else {
                                        let entered = obj.entered.expect("stamped by head");
                                        let now = Instant::now();
                                        out.completions.push((obj.seq, now - entered, now));
                                    }
                                    if !push_timed(
                                        tail_tx.as_mut().expect("tail recycles"),
                                        obj,
                                        halt,
                                        count,
                                        &mut counters,
                                    ) {
                                        break;
                                    }
                                } else if !push_timed(
                                    output.as_mut().expect("middle chunk"),
                                    Msg::Task(obj),
                                    halt,
                                    count,
                                    &mut counters,
                                ) {
                                    break;
                                }
                            }
                        }
                    }
                }
                if count {
                    counters.tasks = spans.len() as u64;
                    counters.busy = busy;
                }
                out.counters = counters;
                out.spans = spans;
                out
            }));
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("dispatcher threads do not panic"))
            .collect()
    });

    let panicked = failed_chunk.load(Ordering::SeqCst);
    if panicked != usize::MAX {
        return Err(PipelineError::StagePanicked { chunk: panicked });
    }

    let submitted = submitted.load(Ordering::SeqCst) as u64;
    let completed = outputs[k - 1].completions.len() as u64;
    let dropped = submitted - completed;
    debug_assert!(
        res.is_some() || dropped == 0,
        "fail-fast run lost tasks without erroring"
    );
    if !duration_mode && res.is_none() {
        debug_assert_eq!(completed, total);
    }

    // A fail-fast run that measured nothing (duration shorter than the
    // warmup) is an error, like the zero-task configuration; a clean
    // resilient run likewise has nothing to report without measurements.
    let finished = outputs[k - 1].completions.len();
    if res.is_none() && finished.saturating_sub(cfg.warmup as usize) == 0 {
        return Err(PipelineError::NoTasks);
    }
    let degraded = signals.reason();
    let (stats, timeline, telemetry) = assemble(&outputs, cfg, k);
    if res.is_some() && degraded.is_none() && dropped == 0 && stats.is_none() {
        return Err(PipelineError::NoTasks);
    }

    Ok(RunReport {
        submitted,
        completed,
        dropped,
        faults_fired: tail_dropped.load(Ordering::SeqCst) as u32,
        stats,
        timeline,
        telemetry,
        degraded,
    })
}

/// Executes a fork/join `schedule` over `app` on the host with real
/// threads — the DAG generalization of [`run_host`].
///
/// Chain-shaped schedules (no replication, canonical chain graph) delegate
/// to [`run_host`] outright, so everything expressible in the linear model
/// behaves bit-identically, resilience included. Genuine DAGs run as a
/// *relay*: the chunks are arranged in a topological order of the
/// schedule's chunk quotient graph and each task object visits them in
/// that order over the existing SPSC rings, so every stage runs exactly
/// once per task in dependency order while different chunks pipeline
/// different tasks concurrently. A replicated stage occupies one relay
/// slot with two dispatcher threads: the upstream chunk splits the task
/// stream round-robin (`seq % 2`, one ring per replica) and the
/// downstream chunk merges by popping the rings in alternation, restoring
/// sequence order deterministically.
///
/// [`RunStats::chunk_utilization`] and the timeline follow the relay
/// (topological) chunk order, with the replica pair adjacent.
///
/// # Errors
///
/// Returns [`PipelineError::StageMismatch`] / [`PipelineError::GraphMismatch`]
/// on schedule/application disagreement, [`PipelineError::ResilienceUnsupported`]
/// when `res` is `Some` for a genuinely fork/join schedule (the
/// retry/tombstone machinery covers chains only; DAG fault studies run in
/// the simulator), and otherwise errors as [`run_host`] does.
pub fn run_host_dag<P: Send + 'static>(
    app: &Application<P>,
    schedule: &DagSchedule,
    threads: &PuThreads,
    cfg: &RunConfig,
    res: Option<&ResilienceConfig>,
) -> Result<RunReport, PipelineError> {
    if schedule.stage_count() != app.stage_count() {
        return Err(PipelineError::StageMismatch {
            app: app.stage_count(),
            schedule: schedule.stage_count(),
        });
    }
    if !crate::sim::same_graph(schedule.graph(), app.graph()) {
        return Err(PipelineError::GraphMismatch);
    }
    if let Some(linear) = schedule.as_linear() {
        return run_host(app, &linear, threads, cfg, res);
    }
    if res.is_some() {
        return Err(PipelineError::ResilienceUnsupported);
    }
    if cfg.tasks == 0 {
        return Err(PipelineError::NoTasks);
    }

    let chunks = schedule.chunks();
    let k = chunks.len();

    // Relay slots: each chunk is its own slot except the replica pair,
    // which shares one. Slots are ordered topologically over the chunk
    // quotient graph (smallest-index-first for determinism), so the relay
    // respects every stage dependency.
    let (rep_a, rep_b) = schedule
        .replica_pair()
        .map_or((usize::MAX, usize::MAX), |(a, b)| (a, b));
    let mut slot_of = vec![0usize; k];
    let mut slots: Vec<Vec<usize>> = Vec::new();
    for c in 0..k {
        if c == rep_b {
            slot_of[c] = slot_of[rep_a];
            slots[slot_of[rep_a]].push(c);
        } else {
            slot_of[c] = slots.len();
            slots.push(vec![c]);
        }
    }
    let m = slots.len();
    let mut sedges: Vec<(usize, usize)> = schedule
        .chunk_edges()
        .iter()
        .map(|&(u, v)| (slot_of[u], slot_of[v]))
        .filter(|&(u, v)| u != v)
        .collect();
    sedges.sort_unstable();
    sedges.dedup();
    let mut indeg = vec![0usize; m];
    let mut slot_succs: Vec<Vec<usize>> = vec![Vec::new(); m];
    for &(u, v) in &sedges {
        indeg[v] += 1;
        slot_succs[u].push(v);
    }
    let mut ready: Vec<usize> = (0..m).filter(|&s| indeg[s] == 0).collect();
    let mut relay: Vec<Vec<usize>> = Vec::with_capacity(m);
    while !ready.is_empty() {
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let s = ready.pop().expect("non-empty");
        relay.push(slots[s].clone());
        for &t in &slot_succs[s] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    debug_assert_eq!(relay.len(), m, "schedule validation guarantees acyclicity");
    let chunk_order: Vec<usize> = relay.iter().flatten().copied().collect();

    let duration_mode = cfg.duration.is_some();
    let total = if duration_mode {
        u64::MAX
    } else {
        cfg.total_tasks()
    };
    let deadline = cfg.duration.map(|d| Instant::now() + d);
    let buffers = if cfg.buffers == 0 {
        k + 1
    } else {
        cfg.buffers as usize
    };

    // One ring per relay edge lane: consecutive slots are connected by one
    // ring, or by two when either side is the replica pair (lane `l`
    // carries the tasks with `seq % 2 == l`).
    let mut in_rx: Vec<Vec<spsc::Consumer<Msg<P>>>> = (0..k).map(|_| Vec::new()).collect();
    let mut out_tx: Vec<Vec<spsc::Producer<Msg<P>>>> = (0..k).map(|_| Vec::new()).collect();
    for w in relay.windows(2) {
        let (up, down) = (&w[0], &w[1]);
        if up.len() == 1 && down.len() == 2 {
            for &d in down {
                let (tx, rx) = spsc::channel(buffers.max(1)).expect("capacity is at least 1");
                out_tx[up[0]].push(tx);
                in_rx[d].push(rx);
            }
        } else if up.len() == 2 {
            for &u in up {
                let (tx, rx) = spsc::channel(buffers.max(1)).expect("capacity is at least 1");
                out_tx[u].push(tx);
                in_rx[down[0]].push(rx);
            }
        } else {
            let (tx, rx) = spsc::channel(buffers.max(1)).expect("capacity is at least 1");
            out_tx[up[0]].push(tx);
            in_rx[down[0]].push(rx);
        }
    }
    let (mut recycle_tx, recycle_rx) =
        spsc::channel::<Box<TaskObject<P>>>(buffers.max(1)).expect("capacity is at least 1");
    for _ in 0..buffers {
        let obj = Box::new(TaskObject::new(app.new_payload()));
        recycle_tx
            .push(obj)
            .unwrap_or_else(|_| unreachable!("capacity equals the pool size"));
    }

    let signals = DegradeSignals::new();
    let failed_chunk = AtomicUsize::new(usize::MAX);
    let submitted = AtomicUsize::new(0);
    let outputs: Vec<ChunkOutput> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        let mut recycle_rx = Some(recycle_rx);
        let mut recycle_tx = Some(recycle_tx);
        let mut in_rx = in_rx;
        let mut out_tx = out_tx;

        for (pos, &ci) in chunk_order.iter().enumerate() {
            let is_head = pos == 0;
            let is_tail = pos == k - 1;
            let mut inputs = std::mem::take(&mut in_rx[ci]);
            let mut output = std::mem::take(&mut out_tx[ci]);
            let mut head_rx = if is_head { recycle_rx.take() } else { None };
            let mut tail_tx = if is_tail { recycle_tx.take() } else { None };
            let stage_list = chunks[ci].stages.clone();
            let ctx = ParCtx::new(threads.threads(chunks[ci].pu));
            let pin_cores: Vec<usize> = cfg
                .affinity
                .as_ref()
                .map(|m| m.pinnable(chunks[ci].pu).to_vec())
                .unwrap_or_default();

            let signals = &signals;
            let failed_chunk = &failed_chunk;
            let submitted = &submitted;
            handles.push(scope.spawn(move || {
                crate::affinity::pin_current_thread(&pin_cores);

                let mut out = ChunkOutput::default();
                let halt = &signals.halt;
                let count = cfg.telemetry.counters;
                let mut counters = DispatcherCounters::new();
                let mut busy = Duration::ZERO;
                let mut spans: Vec<(u64, Instant, Instant)> = Vec::new();

                // Fail-fast single attempt (resilient DAG execution is
                // rejected up front): a panic records the chunk, halts the
                // pipeline, and returns `false`.
                let mut run_chunk = |obj: &mut TaskObject<P>, ctx: &ParCtx| -> bool {
                    let t0 = Instant::now();
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        for &s in &stage_list {
                            app.stages()[s].run(&mut obj.payload, ctx);
                        }
                    }));
                    let t1 = Instant::now();
                    busy += t1 - t0;
                    spans.push((obj.seq, t0, t1));
                    if result.is_err() {
                        failed_chunk
                            .compare_exchange(usize::MAX, ci, Ordering::SeqCst, Ordering::SeqCst)
                            .ok();
                        halt.store(true, Ordering::SeqCst);
                        return false;
                    }
                    true
                };
                let stop_all = |output: &mut Vec<spsc::Producer<Msg<P>>>| {
                    for tx in output.iter_mut() {
                        let _ = push_until(tx, Msg::Stop, halt);
                    }
                };

                if is_head {
                    let rx = head_rx.as_mut().expect("head owns the recycle consumer");
                    for seq in 0..total {
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                break;
                            }
                        }
                        let t0 = count.then(Instant::now);
                        let popped = pop_watchdog(rx, halt, None);
                        if let Some(t0) = t0 {
                            counters.record_blocked_pop(t0.elapsed());
                        }
                        let mut obj = match popped {
                            ResilientPop::Got(o) => o,
                            _ => break,
                        };
                        obj.recycle(seq);
                        app.load_input(&mut obj.payload, seq);
                        out.entries.push(obj.entered.expect("stamped by recycle"));
                        submitted.fetch_add(1, Ordering::Relaxed);
                        if !run_chunk(&mut obj, &ctx) {
                            break;
                        }
                        if is_tail {
                            let entered = obj.entered.expect("stamped");
                            let now = Instant::now();
                            out.completions.push((seq, now - entered, now));
                            if !push_timed(
                                tail_tx.as_mut().expect("tail owns the recycle producer"),
                                obj,
                                halt,
                                count,
                                &mut counters,
                            ) {
                                break;
                            }
                        } else {
                            let lane = if output.len() == 2 {
                                (seq & 1) as usize
                            } else {
                                0
                            };
                            if !push_timed(
                                &mut output[lane],
                                Msg::Task(obj),
                                halt,
                                count,
                                &mut counters,
                            ) {
                                break;
                            }
                        }
                    }
                    stop_all(&mut output);
                } else {
                    let lanes = inputs.len();
                    let mut lane = 0usize;
                    let mut stopped = vec![false; lanes];
                    loop {
                        if stopped[lane] {
                            lane = (lane + 1) % lanes;
                            if stopped[lane] {
                                stop_all(&mut output);
                                break;
                            }
                        }
                        let t0 = count.then(Instant::now);
                        let popped = pop_watchdog(&mut inputs[lane], halt, None);
                        if let Some(t0) = t0 {
                            counters.record_blocked_pop(t0.elapsed());
                        }
                        match popped {
                            ResilientPop::Got(Msg::Stop) => {
                                stopped[lane] = true;
                                lane = (lane + 1) % lanes;
                            }
                            ResilientPop::Got(Msg::Task(mut obj)) => {
                                let seq = obj.seq;
                                lane = (lane + 1) % lanes;
                                if halt.load(Ordering::Relaxed) {
                                    continue; // drain to unblock upstream
                                }
                                if !run_chunk(&mut obj, &ctx) {
                                    stop_all(&mut output);
                                    continue; // keep draining
                                }
                                if is_tail {
                                    let entered = obj.entered.expect("stamped by head");
                                    let now = Instant::now();
                                    out.completions.push((seq, now - entered, now));
                                    if !push_timed(
                                        tail_tx.as_mut().expect("tail recycles"),
                                        obj,
                                        halt,
                                        count,
                                        &mut counters,
                                    ) {
                                        break;
                                    }
                                } else {
                                    let l = if output.len() == 2 {
                                        (seq & 1) as usize
                                    } else {
                                        0
                                    };
                                    if !push_timed(
                                        &mut output[l],
                                        Msg::Task(obj),
                                        halt,
                                        count,
                                        &mut counters,
                                    ) {
                                        break;
                                    }
                                }
                            }
                            _ => break,
                        }
                    }
                }
                if count {
                    counters.tasks = spans.len() as u64;
                    counters.busy = busy;
                }
                out.counters = counters;
                out.spans = spans;
                out
            }));
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("dispatcher threads do not panic"))
            .collect()
    });

    let panicked = failed_chunk.load(Ordering::SeqCst);
    if panicked != usize::MAX {
        return Err(PipelineError::StagePanicked { chunk: panicked });
    }

    let submitted = submitted.load(Ordering::SeqCst) as u64;
    let completed = outputs[k - 1].completions.len() as u64;
    let dropped = submitted - completed;
    debug_assert_eq!(dropped, 0, "fail-fast run lost tasks without erroring");

    let finished = outputs[k - 1].completions.len();
    if finished.saturating_sub(cfg.warmup as usize) == 0 {
        return Err(PipelineError::NoTasks);
    }
    let (stats, timeline, telemetry) = assemble(&outputs, cfg, k);
    Ok(RunReport {
        submitted,
        completed,
        dropped,
        faults_fired: 0,
        stats,
        timeline,
        telemetry,
        degraded: signals.reason(),
    })
}

/// Builds the steady-state measurement of a (possibly degraded) run.
///
/// Task sequence numbers can be sparse — dropped tasks leave gaps — so the
/// window is anchored positionally: the first `warmup` *completions* are
/// excluded as the fill transient, and the window runs departure-to-
/// departure over the rest. With nothing dropped (every clean run) tail
/// completions arrive in sequence order, so this coincides with the
/// sequence-indexed convention of the simulator.
fn assemble(
    outputs: &[ChunkOutput],
    cfg: &RunConfig,
    k: usize,
) -> (Option<RunStats>, Vec<TimelineSpan>, Option<RunTelemetry>) {
    let entries = &outputs[0].entries;
    let completions = &outputs[k - 1].completions;
    let n = completions.len();
    if n == 0 {
        return (None, Vec::new(), None);
    }
    let warmup = cfg.warmup as usize;
    let (w_start, skip, intervals) = if warmup > 0 && n > warmup {
        (completions[warmup - 1].2, warmup, (n - warmup) as u32)
    } else if n > 1 {
        (completions[0].2, 0, (n - 1) as u32)
    } else {
        (w_fallback(entries), 0, 1)
    };
    let w_end = completions[n - 1].2;
    let makespan = w_end.saturating_duration_since(w_start);
    let measured = &completions[skip..];
    let mean_latency =
        measured.iter().map(|&(_, lat, _)| lat).sum::<Duration>() / measured.len().max(1) as u32;
    let span = makespan.as_secs_f64().max(1e-12);
    // Busy time clipped to [w_start, w_end]: warmup and fill work outside
    // the window cannot inflate utilization, which is ≤ 1 by construction
    // (a dispatcher's spans never overlap each other).
    let chunk_utilization: Vec<f64> = outputs
        .iter()
        .map(|o| {
            let in_window: Duration = o
                .spans
                .iter()
                .map(|&(_, t0, t1)| t1.min(w_end).saturating_duration_since(t0.max(w_start)))
                .sum();
            in_window.as_secs_f64() / span
        })
        .collect();
    let bottleneck_chunk = chunk_utilization
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    // Timeline and telemetry spans share one epoch: the earliest recorded
    // instant across all dispatchers.
    let epoch = outputs
        .iter()
        .flat_map(|o| o.spans.iter().map(|&(_, s, _)| s))
        .min()
        .unwrap_or(w_start);
    let us = |at: Instant| at.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let timeline = if cfg.record_timeline {
        outputs
            .iter()
            .enumerate()
            .flat_map(|(ci, o)| {
                o.spans.iter().map(move |&(task, s, e)| TimelineSpan {
                    chunk: ci,
                    stage: None,
                    task,
                    start_us: us(s),
                    end_us: us(e),
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let telemetry = if cfg.telemetry.any() {
        let mut t = RunTelemetry::new("host");
        if cfg.telemetry.counters {
            t.dispatchers = outputs
                .iter()
                .enumerate()
                .map(|(ci, o)| o.counters.stats(format!("chunk{ci}")))
                .collect();
        }
        if cfg.telemetry.spans {
            let mut rec = SpanRecorder::new(true, epoch);
            for (ci, o) in outputs.iter().enumerate() {
                for &(task, s, e) in &o.spans {
                    rec.record(ci as u32, task, None, s, e);
                }
            }
            t.spans = rec.into_spans();
        }
        Some(t)
    } else {
        None
    };

    let to_us = |d: Duration| Micros::new(d.as_secs_f64() * 1e6);
    let stats = RunStats {
        makespan: to_us(makespan),
        mean_task_latency: to_us(mean_latency),
        time_per_task: to_us(makespan / intervals.max(1)),
        throughput_hz: f64::from(intervals.max(1)) / span,
        chunk_utilization,
        bottleneck_chunk,
        tasks: (n - skip) as u32,
    };
    (Some(stats), timeline, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use bt_kernels::Stage;

    // Helper application: payload is (seq, trace of stage visits).
    #[derive(Debug, Default)]
    struct Trace {
        seq: u64,
        visits: Vec<usize>,
    }

    fn trace_app(stages: usize, counter: Arc<AtomicU64>) -> Application<Trace> {
        let stage_list = (0..stages)
            .map(|i| {
                let counter = Arc::clone(&counter);
                Stage::new(
                    format!("s{i}"),
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                        t.visits.push(i);
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        Application::new(
            "trace",
            stage_list,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| {
                t.seq = seq;
                t.visits.clear();
            }),
        )
    }

    fn cfg(tasks: u32, warmup: u32) -> RunConfig {
        RunConfig {
            tasks,
            warmup,
            ..RunConfig::default()
        }
    }

    #[test]
    fn every_task_visits_every_stage_once() {
        use bt_soc::PuClass::*;
        let counter = Arc::new(AtomicU64::new(0));
        let app = trace_app(5, Arc::clone(&counter));
        let schedule = Schedule::new(vec![BigCpu, BigCpu, MediumCpu, Gpu, Gpu]).unwrap();
        let report = run_host(&app, &schedule, &PuThreads::uniform(2), &cfg(20, 2), None).unwrap();
        assert_eq!(report.expect_stats().tasks, 20);
        assert_eq!(report.completed, report.submitted);
        assert!(!report.is_degraded());
        // 22 tasks × 5 stages.
        assert_eq!(counter.load(Ordering::Relaxed), 22 * 5);
    }

    #[test]
    fn single_chunk_schedule_works() {
        let counter = Arc::new(AtomicU64::new(0));
        let app = trace_app(3, Arc::clone(&counter));
        let schedule = Schedule::homogeneous(3, bt_soc::PuClass::Gpu);
        let report = run_host(&app, &schedule, &PuThreads::uniform(1), &cfg(10, 0), None).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 30);
        let stats = report.expect_stats();
        assert!(stats.makespan.as_f64() > 0.0);
        assert!(stats.throughput_hz > 0.0);
    }

    #[test]
    fn stage_mismatch_rejected() {
        let app = trace_app(3, Arc::new(AtomicU64::new(0)));
        let schedule = Schedule::homogeneous(4, bt_soc::PuClass::BigCpu);
        assert_eq!(
            run_host(&app, &schedule, &PuThreads::uniform(1), &cfg(1, 0), None).unwrap_err(),
            PipelineError::StageMismatch {
                app: 3,
                schedule: 4
            }
        );
    }

    #[test]
    fn zero_tasks_rejected() {
        let app = trace_app(2, Arc::new(AtomicU64::new(0)));
        let schedule = Schedule::homogeneous(2, bt_soc::PuClass::BigCpu);
        assert_eq!(
            run_host(&app, &schedule, &PuThreads::uniform(1), &cfg(0, 1), None).unwrap_err(),
            PipelineError::NoTasks
        );
    }

    #[test]
    fn pu_threads_lookup() {
        let t = PuThreads::uniform(4).with_class(bt_soc::PuClass::LittleCpu, 1);
        assert_eq!(t.threads(bt_soc::PuClass::BigCpu), 4);
        assert_eq!(t.threads(bt_soc::PuClass::LittleCpu), 1);
    }

    /// Application whose stage kernels sleep for per-(stage, seq) durations
    /// chosen by `plan(stage, seq) -> millis`.
    fn sleep_app(stages: usize, plan: fn(usize, u64) -> u64) -> Application<Trace> {
        let stage_list = (0..stages)
            .map(|i| {
                Stage::new(
                    format!("s{i}"),
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                        std::thread::sleep(Duration::from_millis(plan(i, t.seq)));
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        Application::new(
            "sleep",
            stage_list,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| t.seq = seq),
        )
    }

    /// Regression: warmup kernel time used to be counted in `busy` but
    /// divided by the steady-state window, pushing utilization past 1.0 and
    /// getting silently clamped. With a deliberately slow warmup stage the
    /// non-bottleneck chunk must now report its true (low) steady-state
    /// utilization instead of a saturated 1.0.
    #[test]
    fn slow_warmup_does_not_inflate_utilization() {
        use bt_soc::PuClass::*;
        // Stage 0: 20 ms during warmup (seq < 3), 1 ms after.
        // Stage 1: 5 ms always — the steady-state bottleneck.
        let app = sleep_app(2, |stage, seq| match (stage, seq) {
            (0, s) if s < 3 => 20,
            (0, _) => 1,
            _ => 5,
        });
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        let report = run_host(&app, &schedule, &PuThreads::uniform(1), &cfg(10, 3), None).unwrap();
        let stats = report.expect_stats();
        // Chunk 0 works ~1 ms per ~5 ms steady interval. Its total busy
        // time (3×20 ms warmup + 10×1 ms) exceeds the ~45 ms window, so the
        // pre-fix computation reported a clamped 1.0 here.
        assert!(
            stats.chunk_utilization[0] < 0.6,
            "warmup work leaked into steady-state utilization: {:?}",
            stats.chunk_utilization
        );
        // The bottleneck chunk runs nearly the whole window.
        assert!(
            stats.chunk_utilization[1] > 0.6,
            "bottleneck should dominate the window: {:?}",
            stats.chunk_utilization
        );
        assert_eq!(stats.bottleneck_chunk, 1);
        for &u in &stats.chunk_utilization {
            assert!((0.0..=1.0).contains(&u), "clipping bounds utilization");
        }
    }

    /// Regression: with `warmup == 0` the window used to start at the first
    /// task's *arrival* but end at a *departure*, charging the pipeline-fill
    /// transient to steady-state throughput. An expensive first task must
    /// not inflate `time_per_task` anymore.
    #[test]
    fn zero_warmup_window_excludes_fill_transient() {
        use bt_soc::PuClass::*;
        // Task 0 is 30× slower than steady state in stage 0.
        let app = sleep_app(2, |stage, seq| match (stage, seq) {
            (0, 0) => 60,
            (0, _) => 2,
            _ => 5,
        });
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        let report = run_host(&app, &schedule, &PuThreads::uniform(1), &cfg(10, 0), None).unwrap();
        // Steady-state inter-departure time is ~5 ms (the bottleneck). The
        // pre-fix window averaged the 60 ms fill in, reporting ~11 ms.
        let tpt = report.expect_stats().time_per_task;
        assert!(
            tpt.as_millis() < 9.0,
            "fill transient leaked into time_per_task: {tpt:?}"
        );
        assert!(tpt.as_millis() > 3.0);
    }

    #[test]
    fn telemetry_disabled_reports_none() {
        let app = trace_app(3, Arc::new(AtomicU64::new(0)));
        let schedule = Schedule::homogeneous(3, bt_soc::PuClass::Gpu);
        let report = run_host(&app, &schedule, &PuThreads::uniform(1), &cfg(5, 1), None).unwrap();
        assert!(report.telemetry.is_none());
        assert!(report.timeline.is_empty());
    }

    #[test]
    fn telemetry_counters_and_spans_cover_every_task() {
        use bt_soc::PuClass::*;
        let app = trace_app(4, Arc::new(AtomicU64::new(0)));
        let schedule = Schedule::new(vec![BigCpu, BigCpu, Gpu, Gpu]).unwrap();
        let run = RunConfig {
            tasks: 12,
            warmup: 2,
            record_timeline: true,
            telemetry: bt_telemetry::TelemetryConfig::full(),
            ..RunConfig::default()
        };
        let report = run_host(&app, &schedule, &PuThreads::uniform(1), &run, None).unwrap();
        let telemetry = report.telemetry.expect("telemetry requested");
        assert_eq!(telemetry.source, "host");
        assert_eq!(telemetry.dispatchers.len(), 2, "one per chunk");
        for d in &telemetry.dispatchers {
            assert_eq!(d.tasks, 14, "every dispatcher executes all tasks");
            assert!(d.busy_us > 0.0);
            assert!(d.queue_samples > 0, "every push samples occupancy");
        }
        // Telemetry spans are the record_timeline events, unified: same
        // count, same offsets, same (track, task) identity.
        assert_eq!(telemetry.spans.len(), report.timeline.len());
        assert_eq!(telemetry.spans.len(), 2 * 14);
        for (s, e) in telemetry.spans.iter().zip(&report.timeline) {
            assert_eq!(s.track as usize, e.chunk);
            assert_eq!(s.task, e.task);
            assert_eq!(e.stage, None, "host spans cover whole chunks");
            assert!((s.start_us - e.start_us).abs() < 1e-6);
            assert!((s.end_us - e.end_us).abs() < 1e-6);
        }
        // And the Chrome export of a host run is valid trace JSON.
        let trace = telemetry.chrome_trace_json();
        let v: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .expect("traceEvents");
        assert_eq!(events.len(), 2 + 2 * 14, "metadata + spans");
    }

    /// Application whose stage-0 kernel panics when `decide(seq, attempt)`
    /// says so; `attempt` counts calls for that seq (retries increment it).
    fn faulty_app(
        stages: usize,
        decide: fn(u64, u64) -> bool,
        attempts: Arc<AtomicU64>,
    ) -> Application<Trace> {
        let stage_list = (0..stages)
            .map(|i| {
                let attempts = Arc::clone(&attempts);
                Stage::new(
                    format!("s{i}"),
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                        if i == 0 {
                            let n = attempts.fetch_add(1, Ordering::Relaxed);
                            // attempt index is per-run order; decide gets
                            // (seq, global attempt counter) — enough for
                            // "fail first time" and "always fail" plans.
                            if decide(t.seq, n) {
                                panic!("injected kernel fault");
                            }
                        }
                        t.visits.push(i);
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        Application::new(
            "faulty",
            stage_list,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| {
                t.seq = seq;
                t.visits.clear();
            }),
        )
    }

    fn quick_res() -> ResilienceConfig {
        ResilienceConfig {
            watchdog: Some(Duration::from_secs(5)),
            retries: 2,
            retry_backoff: Duration::from_micros(100),
            max_task_failures: 3,
        }
    }

    #[test]
    fn fail_fast_mode_surfaces_kernel_panic() {
        use bt_soc::PuClass::*;
        let attempts = Arc::new(AtomicU64::new(0));
        let app = faulty_app(2, |seq, _n| seq == 3, Arc::clone(&attempts));
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        assert_eq!(
            run_host(&app, &schedule, &PuThreads::uniform(1), &cfg(10, 0), None).unwrap_err(),
            PipelineError::StagePanicked { chunk: 0 }
        );
        // No retries in fail-fast mode: seq 3 was attempted exactly once.
        assert_eq!(attempts.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn resilient_clean_run_completes_like_fail_fast() {
        use bt_soc::PuClass::*;
        let counter = Arc::new(AtomicU64::new(0));
        let app = trace_app(4, Arc::clone(&counter));
        let schedule = Schedule::new(vec![BigCpu, BigCpu, Gpu, Gpu]).unwrap();
        let report = run_host(
            &app,
            &schedule,
            &PuThreads::uniform(1),
            &cfg(15, 2),
            Some(&quick_res()),
        )
        .unwrap();
        assert!(!report.is_degraded());
        assert_eq!(report.completed, report.submitted);
        assert_eq!(report.expect_stats().tasks, 15);
        assert!(report.expect_stats().makespan.as_f64() > 0.0);
        assert_eq!(counter.load(Ordering::Relaxed), 17 * 4);
    }

    #[test]
    fn flaky_kernel_is_retried_to_completion() {
        use bt_soc::PuClass::*;
        // Seq 4 panics on its first attempt only (the retry, a later
        // global attempt for the same seq, succeeds).
        static FAILED_ONCE: AtomicU64 = AtomicU64::new(0);
        FAILED_ONCE.store(0, Ordering::SeqCst);
        let attempts = Arc::new(AtomicU64::new(0));
        let app = faulty_app(
            2,
            |seq, _n| seq == 4 && FAILED_ONCE.swap(1, Ordering::SeqCst) == 0,
            Arc::clone(&attempts),
        );
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        let report = run_host(
            &app,
            &schedule,
            &PuThreads::uniform(1),
            &cfg(10, 0),
            Some(&quick_res()),
        )
        .unwrap();
        assert!(
            !report.is_degraded(),
            "retry should absorb a one-shot fault"
        );
        assert_eq!(report.expect_stats().tasks, 10);
        // 10 tasks + 1 retried attempt.
        assert_eq!(attempts.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn deterministic_failure_tombstones_and_degrades() {
        use bt_soc::PuClass::*;
        let attempts = Arc::new(AtomicU64::new(0));
        // Seq 5 fails every attempt: retries exhaust, the task tombstones.
        let app = faulty_app(2, |seq, _n| seq == 5, Arc::clone(&attempts));
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        let res = ResilienceConfig {
            retries: 1,
            ..quick_res()
        };
        let report = run_host(
            &app,
            &schedule,
            &PuThreads::uniform(1),
            &cfg(12, 0),
            Some(&res),
        )
        .unwrap();
        assert!(report.is_degraded(), "a tombstoned task must degrade");
        assert_eq!(report.dropped, 1);
        assert_eq!(report.completed + report.dropped, report.submitted);
        assert_eq!(report.faults_fired, 1, "one tombstone observed at tail");
        assert_eq!(
            report.degraded,
            Some(DegradeReason::KernelFailures { chunk: 0 })
        );
        let stats = report.stats.as_ref().expect("surviving tasks measured");
        assert_eq!(u64::from(stats.tasks), report.completed);
    }

    #[test]
    fn failure_budget_overrun_stops_admission() {
        use bt_soc::PuClass::*;
        let attempts = Arc::new(AtomicU64::new(0));
        // Every seq >= 3 fails all attempts.
        let app = faulty_app(2, |seq, _n| seq >= 3, Arc::clone(&attempts));
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        let res = ResilienceConfig {
            retries: 0,
            max_task_failures: 2,
            ..quick_res()
        };
        let report = run_host(
            &app,
            &schedule,
            &PuThreads::uniform(1),
            &cfg(1000, 0),
            Some(&res),
        )
        .unwrap();
        assert_eq!(
            report.degraded,
            Some(DegradeReason::KernelFailures { chunk: 0 })
        );
        // The head stopped admitting shortly after the third failure
        // instead of burning through all 1000 tasks.
        assert!(
            report.submitted < 1000,
            "head kept admitting: {}",
            report.submitted
        );
        assert_eq!(report.completed, 3, "seqs 0..3 complete");
        assert_eq!(report.completed + report.dropped, report.submitted);
    }

    #[test]
    fn hung_kernel_trips_watchdog_instead_of_hanging() {
        use bt_soc::PuClass::*;
        // Seq 2's stage-0 kernel "hangs" (sleeps far past the watchdog).
        let app = sleep_app(2, |stage, seq| match (stage, seq) {
            (0, 2) => 400,
            _ => 1,
        });
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        let res = ResilienceConfig {
            watchdog: Some(Duration::from_millis(50)),
            retries: 0,
            ..quick_res()
        };
        let t0 = Instant::now();
        let report = run_host(
            &app,
            &schedule,
            &PuThreads::uniform(1),
            &cfg(50, 0),
            Some(&res),
        )
        .unwrap();
        let elapsed = t0.elapsed();
        assert!(report.is_degraded(), "a wedged pipeline must degrade");
        assert_eq!(
            report.degraded,
            Some(DegradeReason::WatchdogTimeout { chunk: 1 })
        );
        assert_eq!(report.completed + report.dropped, report.submitted);
        assert!(
            elapsed < Duration::from_secs(5),
            "watchdog unwind took {elapsed:?}"
        );
    }

    /// DAG trace app: every stage kernel asserts its dependencies already
    /// ran on this task, so any relay-ordering bug panics the pipeline
    /// (and surfaces as `StagePanicked`).
    fn dag_trace_app(graph: &bt_kernels::TaskGraph, counter: Arc<AtomicU64>) -> Application<Trace> {
        let preds = graph.pred_sets();
        let stage_list = (0..graph.len())
            .map(|i| {
                let counter = Arc::clone(&counter);
                let my_preds = preds[i].clone();
                Stage::new(
                    format!("s{i}"),
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                        for &p in &my_preds {
                            assert!(
                                t.visits.contains(&p),
                                "stage {i} ran before its dependency {p}"
                            );
                        }
                        t.visits.push(i);
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        Application::from_task_graph(
            "dag-trace",
            stage_list,
            graph,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| {
                t.seq = seq;
                t.visits.clear();
            }),
        )
        .unwrap()
    }

    fn diamond_graph() -> bt_kernels::TaskGraph {
        let mut g = bt_kernels::TaskGraph::new(4);
        g.add_dep(0, 1).add_dep(0, 2).add_dep(1, 3).add_dep(2, 3);
        g
    }

    #[test]
    fn dag_relay_runs_every_stage_once_in_dependency_order() {
        use bt_soc::PuClass::*;
        let counter = Arc::new(AtomicU64::new(0));
        let g = diamond_graph();
        let app = dag_trace_app(&g, Arc::clone(&counter));
        let schedule = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &g).unwrap();
        let report =
            run_host_dag(&app, &schedule, &PuThreads::uniform(1), &cfg(20, 2), None).unwrap();
        assert_eq!(report.completed, report.submitted);
        assert_eq!(report.expect_stats().tasks, 20);
        // 22 tasks × 4 stages, each stage exactly once per task.
        assert_eq!(counter.load(Ordering::Relaxed), 22 * 4);
    }

    #[test]
    fn replicated_stage_serves_each_task_exactly_once() {
        use bt_soc::PuClass::*;
        let g = bt_kernels::TaskGraph::chain(3);
        let preds = g.pred_sets();
        let served: Arc<std::sync::Mutex<Vec<u64>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
        let stage_list = (0..3)
            .map(|i| {
                let my_preds = preds[i].clone();
                let served = Arc::clone(&served);
                Stage::new(
                    format!("s{i}"),
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                        for &p in &my_preds {
                            assert!(t.visits.contains(&p));
                        }
                        t.visits.push(i);
                        if i == 1 {
                            served.lock().unwrap().push(t.seq);
                        }
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        let app = Application::from_task_graph(
            "replica-trace",
            stage_list,
            &g,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| {
                t.seq = seq;
                t.visits.clear();
            }),
        )
        .unwrap();
        let schedule =
            DagSchedule::replicated(vec![LittleCpu, BigCpu, MediumCpu], &g, 1, (BigCpu, Gpu))
                .unwrap();
        let report =
            run_host_dag(&app, &schedule, &PuThreads::uniform(1), &cfg(30, 0), None).unwrap();
        assert_eq!(report.completed, 30);
        let mut seqs = served.lock().unwrap().clone();
        seqs.sort_unstable();
        // The replicated stage ran exactly once per task across both PUs.
        assert_eq!(seqs, (0..30u64).collect::<Vec<_>>());
    }

    #[test]
    fn chain_dag_schedules_delegate_with_resilience() {
        use bt_soc::PuClass::*;
        let counter = Arc::new(AtomicU64::new(0));
        let app = trace_app(3, Arc::clone(&counter));
        let linear = Schedule::new(vec![BigCpu, BigCpu, Gpu]).unwrap();
        let schedule = DagSchedule::from_schedule(&linear);
        let report = run_host_dag(
            &app,
            &schedule,
            &PuThreads::uniform(1),
            &cfg(10, 0),
            Some(&ResilienceConfig::default()),
        )
        .unwrap();
        assert_eq!(report.completed, 10);
        assert!(!report.is_degraded());
    }

    #[test]
    fn dag_resilience_and_graph_mismatch_are_typed_errors() {
        use bt_soc::PuClass::*;
        let g = diamond_graph();
        let app = dag_trace_app(&g, Arc::new(AtomicU64::new(0)));
        let schedule = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &g).unwrap();
        assert_eq!(
            run_host_dag(
                &app,
                &schedule,
                &PuThreads::uniform(1),
                &cfg(5, 0),
                Some(&ResilienceConfig::default()),
            )
            .unwrap_err(),
            PipelineError::ResilienceUnsupported
        );
        // Same stage count, different dependency structure.
        let chain_app = trace_app(4, Arc::new(AtomicU64::new(0)));
        assert_eq!(
            run_host_dag(
                &chain_app,
                &schedule,
                &PuThreads::uniform(1),
                &cfg(5, 0),
                None
            )
            .unwrap_err(),
            PipelineError::GraphMismatch
        );
    }

    #[test]
    fn dag_panic_fails_fast_without_hanging() {
        use bt_soc::PuClass::*;
        let g = diamond_graph();
        let preds = g.pred_sets();
        let stage_list = (0..4)
            .map(|i| {
                let my_preds = preds[i].clone();
                Stage::new(
                    format!("s{i}"),
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                        let _ = &my_preds;
                        if i == 2 && t.seq == 3 {
                            panic!("injected");
                        }
                        t.visits.push(i);
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        let app = Application::from_task_graph(
            "panicky",
            stage_list,
            &g,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| {
                t.seq = seq;
                t.visits.clear();
            }),
        )
        .unwrap();
        let schedule = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &g).unwrap();
        let t0 = Instant::now();
        let err =
            run_host_dag(&app, &schedule, &PuThreads::uniform(1), &cfg(50, 0), None).unwrap_err();
        assert!(matches!(err, PipelineError::StagePanicked { .. }));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
