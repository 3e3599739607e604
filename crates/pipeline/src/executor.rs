//! The host pipeline executor: real dispatcher threads, one per chunk,
//! passing recycled TaskObjects through lock-free SPSC queues (§3.4 of the
//! paper).
//!
//! There is **one** thread-per-chunk executor, the *relay*: the schedule's
//! chunks are arranged in a topological order of the chunk graph and every
//! task object visits them in that order. Each dispatcher repeatedly pops
//! a TaskObject pointer from its input ring, runs its chunk's compute
//! kernels in sequence (via the OpenMP-stand-in [`ParCtx`] worker pool),
//! and pushes the pointer to the next ring. The head dispatcher doubles as
//! the streaming source, recycling returned objects for new inputs; the
//! tail records completion timestamps. A replicated stage occupies one
//! relay slot with two dispatchers, and its neighbours split and merge the
//! stream over two rings by `seq % 2`; everywhere else a dispatcher has
//! one ring per side.
//!
//! [`run_host`] and [`run_host_dag`] only build the relay — a linear
//! [`Schedule`] is the relay on a path (its chunks in index order), a
//! [`DagSchedule`] the relay over its chunk quotient graph — and both take
//! an optional [`ResilienceConfig`]:
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
//! Every per-chunk field of the [`RunReport`] — utilization, bottleneck,
//! timeline and telemetry chunk ids, degrade and panic reasons — is indexed
//! by *schedule* chunk (`schedule.chunks()[i]`), as in the simulator,
//! whatever order the relay visits the chunks in.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

use bt_kernels::{Application, ParCtx};
use bt_rt::{finish_run, spsc, FinishedRun};
use bt_soc::{DegradeReason, PerClass, PuClass, RunConfig, RunReport, TimelineSpan};
use bt_telemetry::DispatcherCounters;

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
    /// `tasks` was zero, or a run measured nothing.
    NoTasks,
    /// A stage kernel panicked in fail-fast mode; the pipeline was shut
    /// down cleanly. Resilient runs degrade instead of returning this.
    StagePanicked {
        /// Index, in the schedule's `chunks()`, of the chunk whose kernel
        /// panicked.
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

/// Resilience policy of [`run_host`] and [`run_host_dag`]; `None` means
/// fail-fast.
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

/// Where a dispatcher waiting on an empty ring sleeps, and how its
/// producers wake it.
///
/// The waiter spins and yields through [`spsc::Backoff`]'s first stages,
/// then sets `parked`, issues a `SeqCst` fence, re-checks its ring and
/// parks; every push into one of its rings issues a `SeqCst` fence, reads
/// `parked`, and unparks the waiter if it is set. The fences make a Dekker
/// pair: with only the ring's release/acquire order, either side's store
/// may be ordered after its load (x86 does so through its store buffer),
/// and a push landing just as the waiter parks would wake nobody. The
/// park's timeout is only the fallback that notices `halt` and a dead
/// producer.
#[derive(Default)]
struct Parker {
    parked: AtomicBool,
    /// The waiting dispatcher, registered by itself before it first waits.
    thread: OnceLock<Thread>,
}

impl Parker {
    /// Registers the calling thread as this parker's waiter.
    fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Parks the waiter for at most `timeout` unless `ready` already holds
    /// once `parked` is visible to producers.
    fn park(&self, ready: impl FnOnce() -> bool, timeout: Duration) {
        self.parked.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        if !ready() {
            std::thread::park_timeout(timeout);
        }
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Wakes the waiter if it parked; call after every successful push.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Acquire) {
            if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }
}

/// A ring's sending end and the parker of the dispatcher that drains it.
struct Outlet<'a, T> {
    tx: spsc::Producer<T>,
    consumer: &'a Parker,
}

/// Blocking push that aborts (returning `false`) once the halt flag is
/// raised, so no dispatcher deadlocks on a dead neighbour's full queue.
/// A successful push wakes the consumer if it parked.
fn push_until<T>(out: &mut Outlet<'_, T>, mut value: T, halt: &AtomicBool) -> bool {
    let mut backoff = spsc::Backoff::new();
    loop {
        match out.tx.push(value) {
            Ok(()) => {
                out.consumer.wake();
                return true;
            }
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
    out: &mut Outlet<'_, T>,
    value: T,
    halt: &AtomicBool,
    count: bool,
    counters: &mut DispatcherCounters,
) -> bool {
    if !count {
        return push_until(out, value, halt);
    }
    let t0 = Instant::now();
    let ok = push_until(out, value, halt);
    counters.record_blocked_push(t0.elapsed());
    if ok {
        counters.sample_queue_depth(out.tx.len());
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

/// How a dispatcher waits on its input: its own parker, the halt flag, the
/// watchdog and the park fallback.
struct Wait<'a> {
    me: &'a Parker,
    halt: &'a AtomicBool,
    watchdog: Option<Duration>,
    fallback: Duration,
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
///
/// The wait spins and yields through [`spsc::Backoff`]'s first stages, then
/// parks on its [`Parker`] until a push wakes it, for at most the fallback
/// (and never past the watchdog deadline) per round.
fn pop_watchdog<T>(rx: &mut spsc::Consumer<T>, wait: &Wait<'_>) -> ResilientPop<T> {
    let deadline = wait.watchdog.map(|w| Instant::now() + w);
    let mut backoff = spsc::Backoff::new();
    let mut rounds = 0;
    loop {
        if let Some(v) = rx.pop() {
            return ResilientPop::Got(v);
        }
        if wait.halt.load(Ordering::Relaxed) || rx.is_disconnected() {
            return rx.pop().map_or(ResilientPop::Stopped, ResilientPop::Got);
        }
        let mut timeout = wait.fallback;
        if let Some(deadline) = deadline {
            let now = Instant::now();
            if now >= deadline {
                return rx.pop().map_or(ResilientPop::Starved, ResilientPop::Got);
            }
            timeout = timeout.min(deadline - now);
        }
        if rounds <= spsc::Backoff::YIELD_LIMIT {
            backoff.snooze();
            rounds += 1;
        } else {
            wait.me.park(|| !rx.is_empty(), timeout);
        }
    }
}

/// `(task, start, end)` of one chunk execution.
pub(crate) type Span = (u64, Instant, Instant);

/// Per-dispatcher results collected at join time.
#[derive(Default)]
struct ChunkOutput {
    /// Tasks admitted (head dispatcher only).
    admitted: u64,
    /// `(entry, exit)` per completed task, in departure order (tail
    /// dispatcher only).
    completions: Vec<(Instant, Instant)>,
    /// Tombstoned tasks seen leaving the pipeline (tail dispatcher only).
    tombstones: u32,
    /// Every chunk execution. Always recorded: the measurement window is
    /// only known after the run, so computing in-window busy time
    /// (utilization) requires the raw spans.
    spans: Vec<Span>,
    /// Telemetry counters: blocked time and queue depth (zeroed unless
    /// counter collection is on); `tasks` and `busy` come from `spans`
    /// when the run closes.
    counters: DispatcherCounters,
}

/// [`pop_watchdog`] plus starvation accounting when counters are enabled.
fn pop_timed<T>(
    rx: &mut spsc::Consumer<T>,
    wait: &Wait<'_>,
    count: bool,
    counters: &mut DispatcherCounters,
) -> ResilientPop<T> {
    if !count {
        return pop_watchdog(rx, wait);
    }
    let t0 = Instant::now();
    let popped = pop_watchdog(rx, wait);
    counters.record_blocked_pop(t0.elapsed());
    popped
}

/// What the dispatchers execute: the schedule's chunks and the order a
/// task object is relayed through them.
struct Relay {
    /// Per schedule chunk: the serving class and the stages it runs, in
    /// dependency order.
    chunks: Vec<(PuClass, Vec<usize>)>,
    /// Schedule-chunk indices in relay (topological) order. A slot is one
    /// chunk, or the replica pair: two dispatchers that each serve every
    /// other task. Schedule validation keeps the pair off both ends.
    slots: Vec<Vec<usize>>,
}

impl Relay {
    /// A linear schedule is the relay on a path: its chunks, in order.
    fn path(schedule: &Schedule) -> Relay {
        let chunks = schedule.chunks();
        Relay {
            chunks: chunks
                .iter()
                .map(|c| (c.pu, (c.first_stage..=c.last_stage).collect()))
                .collect(),
            slots: (0..chunks.len()).map(|c| vec![c]).collect(),
        }
    }

    /// A fork/join schedule relays through its chunk quotient graph in
    /// bt-rt's lowest-index-first topological order, so every stage
    /// dependency is respected and the order is deterministic. The replica
    /// chunks have identical neighbours and adjacent indices, so they come
    /// out adjacent and share a slot.
    fn topological(schedule: &DagSchedule) -> Relay {
        let order = schedule.chunk_order();
        let second_replica = schedule.replica_pair().map(|(_, b)| b);
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(order.len());
        for &c in order {
            if second_replica == Some(c) {
                slots.last_mut().expect("replicas are adjacent").push(c);
            } else {
                slots.push(vec![c]);
            }
        }
        Relay {
            chunks: schedule
                .chunks()
                .iter()
                .map(|c| (c.pu, c.stages.clone()))
                .collect(),
            slots,
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
    run_relay(
        app,
        &Relay::path(schedule),
        threads,
        cfg,
        res,
        spsc::Backoff::SLEEP,
    )
}

/// Executes a fork/join `schedule` over `app` on the host with real
/// threads — [`run_host`] for DAG schedules, through the same dispatchers
/// and with the same failure policies.
///
/// The chunks are arranged in a topological order of the schedule's chunk
/// quotient graph and each task object visits them in that order over the
/// SPSC rings, so every stage runs exactly once per task in dependency
/// order while different chunks pipeline different tasks concurrently. A
/// replicated stage occupies one relay slot with two dispatcher threads:
/// the upstream chunk splits the task stream round-robin (`seq % 2`, one
/// ring per replica) and the downstream chunk merges by popping the rings
/// in alternation, restoring sequence order deterministically. Tombstoned
/// tasks of a resilient run keep flowing through their ring, so the
/// alternation is never disturbed.
///
/// Per-chunk report fields are indexed by `schedule.chunks()`, not by
/// relay position.
///
/// # Errors
///
/// Returns [`PipelineError::StageMismatch`] / [`PipelineError::GraphMismatch`]
/// on schedule/application disagreement, and otherwise errors as
/// [`run_host`] does.
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
    if schedule.graph() != app.graph() {
        return Err(PipelineError::GraphMismatch);
    }
    run_relay(
        app,
        &Relay::topological(schedule),
        threads,
        cfg,
        res,
        spsc::Backoff::SLEEP,
    )
}

/// The thread-per-chunk executor behind [`run_host`] and [`run_host_dag`].
/// A dispatcher parked on an empty ring is woken by its producer's push;
/// it re-checks its ring (and `halt`, and a dead producer) after at most
/// `fallback` on its own.
fn run_relay<P: Send + 'static>(
    app: &Application<P>,
    relay: &Relay,
    threads: &PuThreads,
    cfg: &RunConfig,
    res: Option<&ResilienceConfig>,
    fallback: Duration,
) -> Result<RunReport, PipelineError> {
    if cfg.tasks == 0 {
        return Err(PipelineError::NoTasks);
    }

    let k = relay.chunks.len();
    let head = relay.slots[0][0];
    let tail = relay.slots[relay.slots.len() - 1][0];
    // In duration mode the head admits tasks until the deadline.
    let duration_mode = cfg.duration.is_some();
    let total = if duration_mode {
        u64::MAX
    } else {
        cfg.total_tasks()
    };
    let epoch = Instant::now();
    let deadline = cfg.duration.map(|d| epoch + d);
    let buffers = if cfg.buffers == 0 {
        k + 1
    } else {
        cfg.buffers as usize
    };

    // Consecutive slots are connected by one ring, or by two when either
    // side is the replica pair (lane `l` carries the tasks with
    // `seq % 2 == l`); the recycle ring carries bare boxes from the tail
    // back to the head. Each sending end carries the parker of the
    // dispatcher that drains it.
    let parkers: Vec<Parker> = (0..k).map(|_| Parker::default()).collect();
    let mut in_rx: Vec<Vec<spsc::Consumer<Msg<P>>>> = (0..k).map(|_| Vec::new()).collect();
    let mut out_tx: Vec<Vec<Outlet<'_, Msg<P>>>> = (0..k).map(|_| Vec::new()).collect();
    for pair in relay.slots.windows(2) {
        let (up, down) = (&pair[0], &pair[1]);
        for lane in 0..up.len().max(down.len()) {
            let (tx, rx) = spsc::channel(buffers).expect("capacity is at least 1");
            let consumer = down[lane % down.len()];
            out_tx[up[lane % up.len()]].push(Outlet {
                tx,
                consumer: &parkers[consumer],
            });
            in_rx[consumer].push(rx);
        }
    }
    let (mut recycle_tx, recycle_rx) =
        spsc::channel::<Box<TaskObject<P>>>(buffers).expect("capacity is at least 1");
    for _ in 0..buffers {
        let obj = Box::new(TaskObject::new(app.new_payload()));
        recycle_tx
            .push(obj)
            .unwrap_or_else(|_| unreachable!("capacity equals the pool size"));
    }

    let signals = DegradeSignals::new();
    let failed_chunk = AtomicUsize::new(usize::MAX);
    // Dispatcher outputs, by schedule chunk index.
    let outputs: Vec<ChunkOutput> = std::thread::scope(|scope| {
        let mut recycle_rx = Some(recycle_rx);
        let mut recycle_tx = Some(Outlet {
            tx: recycle_tx,
            consumer: &parkers[head],
        });
        let mut handles = Vec::with_capacity(k);

        for &ci in relay.slots.iter().flatten() {
            let (pu, stages) = &relay.chunks[ci];
            let mut inputs = std::mem::take(&mut in_rx[ci]);
            let mut lanes_out = std::mem::take(&mut out_tx[ci]);
            let mut head_rx = if ci == head { recycle_rx.take() } else { None };
            let mut tail_tx = if ci == tail { recycle_tx.take() } else { None };
            let ctx = ParCtx::new(threads.threads(*pu));
            let pin_cores: Vec<usize> = cfg
                .affinity
                .as_ref()
                .map(|m| m.pinnable(*pu).to_vec())
                .unwrap_or_default();

            let signals = &signals;
            let failed_chunk = &failed_chunk;
            let me = &parkers[ci];
            let handle = scope.spawn(move || {
                // Best-effort pinning; worker threads inherit the mask.
                crate::affinity::pin_current_thread(&pin_cores);
                me.register();

                let mut out = ChunkOutput::default();
                let halt = &signals.halt;
                let wait = Wait {
                    me,
                    halt,
                    watchdog: res.and_then(|r| r.watchdog),
                    fallback,
                };
                let count = cfg.telemetry.counters;
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
                let mut run_chunk = |obj: &mut TaskObject<P>| -> bool {
                    let retries = res.map_or(0, |r| r.retries);
                    let mut wait = res.map_or(Duration::ZERO, |r| r.retry_backoff);
                    for attempt in 0..=retries {
                        if attempt > 0 {
                            std::thread::sleep(wait);
                            wait *= 2;
                        }
                        let t0 = Instant::now();
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            for &s in stages {
                                app.stages()[s].run(&mut obj.payload, &ctx);
                            }
                        }));
                        out.spans.push((obj.seq, t0, Instant::now()));
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

                let mut next_seq = 0u64; // head: the next task to admit
                let mut lane = 0usize; // elsewhere: the input ring to pop next
                let mut stopped = vec![false; inputs.len()];
                loop {
                    // Take the next task: a recycled object turned into a
                    // fresh input at the head, the next in sequence order
                    // from the input rings elsewhere.
                    let mut obj = if let Some(rx) = head_rx.as_mut() {
                        if next_seq == total
                            || signals.degrade.load(Ordering::Relaxed)
                            || deadline.is_some_and(|d| Instant::now() >= d)
                        {
                            break;
                        }
                        match pop_timed(rx, &wait, count, &mut out.counters) {
                            ResilientPop::Got(mut obj) => {
                                obj.recycle(next_seq);
                                app.load_input(&mut obj.payload, next_seq);
                                next_seq += 1;
                                obj
                            }
                            ResilientPop::Stopped => break,
                            ResilientPop::Starved => {
                                signals.watchdog(ci);
                                break;
                            }
                        }
                    } else {
                        while stopped[lane] {
                            lane = (lane + 1) % inputs.len();
                        }
                        match pop_timed(&mut inputs[lane], &wait, count, &mut out.counters) {
                            ResilientPop::Got(Msg::Task(obj)) => {
                                if halt.load(Ordering::Relaxed) {
                                    break;
                                }
                                lane = (lane + 1) % inputs.len();
                                obj
                            }
                            ResilientPop::Got(Msg::Stop) => {
                                // The stream ends once every lane has
                                // delivered its Stop.
                                stopped[lane] = true;
                                if stopped.iter().all(|&s| s) {
                                    break;
                                }
                                continue;
                            }
                            ResilientPop::Stopped => break,
                            ResilientPop::Starved => {
                                signals.watchdog(ci);
                                break;
                            }
                        }
                    };
                    // Tombstones flow through unexecuted; a fail-fast
                    // panic (halt is up) ends this dispatcher.
                    if !obj.dropped && !run_chunk(&mut obj) {
                        break;
                    }
                    let sent = if let Some(tx) = tail_tx.as_mut() {
                        if obj.dropped {
                            out.tombstones += 1;
                        } else {
                            let entered = obj.entered.expect("stamped by the head");
                            out.completions.push((entered, Instant::now()));
                        }
                        push_timed(tx, obj, halt, count, &mut out.counters)
                    } else {
                        let l = obj.seq as usize % lanes_out.len();
                        push_timed(
                            &mut lanes_out[l],
                            Msg::Task(obj),
                            halt,
                            count,
                            &mut out.counters,
                        )
                    };
                    if !sent {
                        break;
                    }
                }
                // However the loop ended, tell downstream; once halt is up
                // this is a single attempt per ring.
                for tx in &mut lanes_out {
                    let _ = push_until(tx, Msg::Stop, halt);
                }
                out.admitted = next_seq;
                out
            });
            handles.push((ci, handle));
        }

        let mut outputs: Vec<ChunkOutput> = (0..k).map(|_| ChunkOutput::default()).collect();
        for (ci, handle) in handles {
            outputs[ci] = handle.join().expect("dispatcher threads do not panic");
        }
        outputs
    });

    let panicked = failed_chunk.load(Ordering::SeqCst);
    if panicked != usize::MAX {
        return Err(PipelineError::StagePanicked { chunk: panicked });
    }

    let completions = &outputs[tail].completions;
    let submitted = outputs[head].admitted;
    let completed = completions.len() as u64;
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
    if res.is_none() && completions.len() <= cfg.warmup as usize {
        return Err(PipelineError::NoTasks);
    }
    let degraded = signals.reason();
    let run = finish_host_run(
        cfg,
        epoch,
        completions,
        outputs.iter().map(|o| (&o.spans[..], o.counters)),
    );
    if res.is_some() && degraded.is_none() && dropped == 0 && run.stats.is_none() {
        return Err(PipelineError::NoTasks);
    }

    Ok(RunReport {
        submitted,
        completed,
        dropped,
        faults_fired: outputs[tail].tombstones,
        stats: run.stats,
        timeline: run.timeline,
        telemetry: run.telemetry,
        degraded,
    })
}

/// Closes a host run, relay or pool: converts what it recorded to µs since
/// `epoch`, once, and hands it to bt-rt's finisher. `completions` are
/// `(entry, exit)` in departure order, which a FIFO pipeline keeps in
/// sequence order; `chunks` yields each chunk's executions and counters,
/// whose `tasks` and `busy` are taken from those executions.
pub(crate) fn finish_host_run<'a>(
    cfg: &RunConfig,
    epoch: Instant,
    completions: &[(Instant, Instant)],
    chunks: impl Iterator<Item = (&'a [Span], DispatcherCounters)>,
) -> FinishedRun {
    let us = |at: Instant| at.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let completions: Vec<(f64, f64)> = completions.iter().map(|&(e, x)| (us(e), us(x))).collect();
    let keep_spans = cfg.record_timeline || cfg.telemetry.spans;
    let (mut busy, mut timeline, mut counters) = (Vec::new(), Vec::new(), Vec::new());
    for (chunk, (spans, mut c)) in chunks.enumerate() {
        busy.push(spans.iter().map(|&(_, t0, t1)| (us(t0), us(t1))).collect());
        if keep_spans {
            timeline.extend(spans.iter().map(|&(task, t0, t1)| TimelineSpan {
                chunk,
                stage: None,
                task,
                start_us: us(t0),
                end_us: us(t1),
            }));
        }
        c.tasks = spans.len() as u64;
        c.busy = spans.iter().map(|&(_, t0, t1)| t1 - t0).sum();
        counters.push(c);
    }
    let counters = cfg.telemetry.counters.then_some(&counters[..]);
    finish_run(cfg, &completions, &busy, timeline, "host", counters)
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

    /// `(seq, stage visits)` of every task that reached the exit stage.
    type Served = Arc<std::sync::Mutex<Vec<(u64, Vec<usize>)>>>;

    /// A stage and the seqs on which its kernel panics, at every attempt.
    type Fault = (usize, fn(u64) -> bool);

    /// DAG trace app: every stage kernel asserts its dependencies already
    /// ran on this task, so any relay-ordering bug panics the pipeline
    /// (and surfaces as `StagePanicked`); `fault` is injected; the exit
    /// stage logs the task.
    fn dag_trace_app(
        graph: &bt_kernels::TaskGraph,
        fault: Option<Fault>,
    ) -> (Application<Trace>, Served) {
        let served = Served::default();
        let exit = graph.len() - 1;
        let stage_list = (0..graph.len())
            .map(|i| {
                let my_preds: Vec<usize> = (graph.deps().iter())
                    .filter_map(|&(from, to)| (to == i).then_some(from))
                    .collect();
                let served = Arc::clone(&served);
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
                        if fault.is_some_and(|(stage, hits)| stage == i && hits(t.seq)) {
                            panic!("injected kernel fault");
                        }
                        t.visits.push(i);
                        if i == exit {
                            served.lock().unwrap().push((t.seq, t.visits.clone()));
                        }
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        let app = Application::from_task_graph(
            "dag-trace",
            stage_list,
            graph,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| {
                t.seq = seq;
                t.visits.clear();
            }),
        )
        .unwrap();
        (app, served)
    }

    /// Asserts that exactly the tasks in `seqs` reached the exit stage,
    /// each once and having visited each of the `stages` stages once.
    fn assert_served_once(served: &Served, seqs: impl Iterator<Item = u64>, stages: usize) {
        let mut log = served.lock().unwrap().clone();
        log.sort();
        let (got, visits): (Vec<u64>, Vec<Vec<usize>>) = log.into_iter().unzip();
        assert_eq!(got, seqs.collect::<Vec<_>>());
        for mut v in visits {
            v.sort_unstable();
            assert_eq!(v, (0..stages).collect::<Vec<_>>());
        }
    }

    fn diamond_graph() -> bt_kernels::TaskGraph {
        let mut g = bt_kernels::TaskGraph::new(4);
        g.add_dep(0, 1).add_dep(0, 2).add_dep(1, 3).add_dep(2, 3);
        g
    }

    /// The diamond with both ends of one branch on BigCpu: chunks
    /// `[{0}, {1, 3}, {2}]`, relayed in the order 0, 2, 1.
    fn reordered_diamond(g: &bt_kernels::TaskGraph) -> DagSchedule {
        use bt_soc::PuClass::*;
        let schedule = DagSchedule::new(vec![LittleCpu, BigCpu, Gpu, BigCpu], g).unwrap();
        assert_eq!(schedule.chunks()[2].stages, vec![2]);
        assert_eq!(Relay::topological(&schedule).slots, [[0], [2], [1]]);
        schedule
    }

    /// The 3-chain with its middle stage replicated: chunks
    /// `[{0}, {1}, {1}, {2}]`, the pair sharing relay slot 1.
    fn replicated_chain(g: &bt_kernels::TaskGraph) -> DagSchedule {
        use bt_soc::PuClass::*;
        let schedule =
            DagSchedule::replicated(vec![LittleCpu, BigCpu, MediumCpu], g, 1, (BigCpu, Gpu))
                .unwrap();
        assert_eq!(
            Relay::topological(&schedule).slots,
            [vec![0], vec![1, 2], vec![3]]
        );
        schedule
    }

    #[test]
    fn dag_relay_runs_every_stage_once_in_dependency_order() {
        use bt_soc::PuClass::*;
        let g = diamond_graph();
        let (app, served) = dag_trace_app(&g, None);
        let schedule = DagSchedule::new(vec![LittleCpu, Gpu, BigCpu, MediumCpu], &g).unwrap();
        let report =
            run_host_dag(&app, &schedule, &PuThreads::uniform(1), &cfg(20, 2), None).unwrap();
        assert_eq!(report.completed, report.submitted);
        assert_eq!(report.expect_stats().tasks, 20);
        assert_served_once(&served, 0..22, 4);
    }

    #[test]
    fn replicated_stage_serves_each_task_exactly_once() {
        let g = bt_kernels::TaskGraph::chain(3);
        let (app, served) = dag_trace_app(&g, None);
        let report = run_host_dag(
            &app,
            &replicated_chain(&g),
            &PuThreads::uniform(1),
            &cfg(30, 0),
            None,
        )
        .unwrap();
        assert_eq!(report.completed, 30);
        assert_eq!(report.expect_stats().chunk_utilization.len(), 4);
        // The replicated stage ran exactly once per task across both PUs.
        assert_served_once(&served, 0..30, 3);
    }

    #[test]
    fn chain_dag_schedules_run_resilient() {
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

    /// Resilient fork/join runs degrade like chains do — tombstones keep
    /// flowing, so neither the reordered relay nor the replica merge wedges
    /// — and name the failing chunk by schedule index.
    #[test]
    fn resilient_dag_runs_tombstone_and_degrade_by_schedule_chunk() {
        let res = ResilienceConfig {
            retries: 1,
            ..quick_res()
        };
        let diamond = diamond_graph();
        let chain = bt_kernels::TaskGraph::chain(3);
        // (graph, schedule, fault, failing chunk): stage 2 is chunk 2 of
        // the diamond but second in its relay; odd seqs of the replicated
        // stage all land on the second replica.
        let cases: [(_, _, Fault, usize); 2] = [
            (
                &diamond,
                reordered_diamond(&diamond),
                (2, |s| s == 3 || s == 7),
                2,
            ),
            (
                &chain,
                replicated_chain(&chain),
                (1, |s| s == 5 || s == 9 || s == 13),
                2,
            ),
        ];
        for (g, schedule, (stage, hits), chunk) in cases {
            let (app, served) = dag_trace_app(g, Some((stage, hits)));
            let t0 = Instant::now();
            let report = run_host_dag(
                &app,
                &schedule,
                &PuThreads::uniform(1),
                &cfg(20, 0),
                Some(&res),
            )
            .unwrap();
            assert!(t0.elapsed() < Duration::from_secs(5), "{schedule}: wedged");
            assert_eq!(report.submitted, 20);
            assert_eq!(report.completed + report.dropped, report.submitted);
            assert_eq!(report.dropped, (0..20).filter(|&s| hits(s)).count() as u64);
            assert_eq!(u64::from(report.faults_fired), report.dropped);
            assert_eq!(
                report.degraded,
                Some(DegradeReason::KernelFailures { chunk }),
                "{schedule}"
            );
            assert_served_once(&served, (0..20).filter(|&s| !hits(s)), g.len());
        }
    }

    /// A failure-budget overrun on one replica stops the head; both rings
    /// around the pair still deliver their Stop and the run drains.
    #[test]
    fn replica_budget_overrun_drains_without_wedging() {
        let g = bt_kernels::TaskGraph::chain(3);
        let (app, served) = dag_trace_app(&g, Some((1, |s| s >= 4 && s % 2 == 1)));
        let res = ResilienceConfig {
            retries: 0,
            max_task_failures: 1,
            ..quick_res()
        };
        let t0 = Instant::now();
        let report = run_host_dag(
            &app,
            &replicated_chain(&g),
            &PuThreads::uniform(1),
            &cfg(1000, 0),
            Some(&res),
        )
        .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(
            report.degraded,
            Some(DegradeReason::KernelFailures { chunk: 2 })
        );
        assert!(report.submitted < 1000, "head kept admitting");
        assert_eq!(report.completed + report.dropped, report.submitted);
        assert_eq!(report.completed as usize, served.lock().unwrap().len());
    }

    #[test]
    fn graph_mismatch_is_a_typed_error() {
        let g = diamond_graph();
        // Same stage count, different dependency structure.
        let chain_app = trace_app(4, Arc::new(AtomicU64::new(0)));
        assert_eq!(
            run_host_dag(
                &chain_app,
                &reordered_diamond(&g),
                &PuThreads::uniform(1),
                &cfg(5, 0),
                None
            )
            .unwrap_err(),
            PipelineError::GraphMismatch
        );
    }

    #[test]
    fn dag_panic_fails_fast_naming_the_schedule_chunk() {
        let g = diamond_graph();
        let (app, _) = dag_trace_app(&g, Some((2, |s| s == 3)));
        let t0 = Instant::now();
        let err = run_host_dag(
            &app,
            &reordered_diamond(&g),
            &PuThreads::uniform(1),
            &cfg(50, 0),
            None,
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::StagePanicked { chunk: 2 });
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// A park fallback far longer than any of these runs: a dispatcher that
    /// parks and is never woken stalls its run by a full second.
    const SLOW_FALLBACK: Duration = Duration::from_secs(1);

    /// A 2-stage app for the relay wake tests. Stage 0 sleeps 200 µs on
    /// every 5th task, so stage 1 runs dry and parks, and panics on
    /// `panic_at`; stage 1 records the order it sees tasks in.
    fn wake_app(
        panic_at: Option<u64>,
        order: Arc<std::sync::Mutex<Vec<u64>>>,
    ) -> Application<Trace> {
        let s0 = Stage::new(
            "s0",
            bt_soc::WorkProfile::new(1.0, 1.0),
            Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                if t.seq.is_multiple_of(5) {
                    std::thread::sleep(Duration::from_micros(200));
                }
                assert!(panic_at != Some(t.seq), "injected kernel fault");
                t.visits.push(0);
            }) as bt_kernels::KernelFn<Trace>,
        );
        let s1 = Stage::new(
            "s1",
            bt_soc::WorkProfile::new(1.0, 1.0),
            Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                t.visits.push(1);
                assert_eq!(t.visits, [0, 1], "each stage runs once, in order");
                order.lock().unwrap().push(t.seq);
            }) as bt_kernels::KernelFn<Trace>,
        );
        Application::new(
            "wake",
            vec![s0, s1],
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| {
                t.seq = seq;
                t.visits.clear();
            }),
        )
    }

    #[test]
    fn relay_wake_is_never_lost_by_a_parking_dispatcher() {
        use bt_soc::PuClass::*;
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        let relay = Relay::path(&schedule);
        for run in 0..20 {
            let order = Arc::new(std::sync::Mutex::new(Vec::new()));
            let app = wake_app(None, Arc::clone(&order));
            let t0 = Instant::now();
            let report = run_relay(
                &app,
                &relay,
                &PuThreads::uniform(1),
                &cfg(200, 0),
                None,
                SLOW_FALLBACK,
            )
            .unwrap();
            let took = t0.elapsed();
            assert_eq!(
                (report.submitted, report.completed, report.dropped),
                (200, 200, 0)
            );
            assert!(
                order.lock().unwrap().iter().copied().eq(0..200),
                "run {run}: tasks left the tail out of sequence order"
            );
            // 40 sleeps of 200 µs take ≈ 10 ms; a lost wake waits out the
            // fallback.
            assert!(
                took < SLOW_FALLBACK / 2,
                "run {run} took {took:?}: a push did not wake a parked dispatcher"
            );
        }
    }

    #[test]
    fn relay_wake_carries_a_fail_fast_panic_to_a_parked_consumer() {
        use bt_soc::PuClass::*;
        let schedule = Schedule::new(vec![BigCpu, Gpu]).unwrap();
        // Seq 50 sleeps 200 µs first, so chunk 1 has parked when chunk 0
        // panics; only the Stop push can wake it before the fallback.
        let app = wake_app(Some(50), Arc::new(std::sync::Mutex::new(Vec::new())));
        let t0 = Instant::now();
        let err = run_relay(
            &app,
            &Relay::path(&schedule),
            &PuThreads::uniform(1),
            &cfg(200, 0),
            None,
            SLOW_FALLBACK,
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::StagePanicked { chunk: 0 });
        assert!(
            t0.elapsed() < SLOW_FALLBACK / 2,
            "the panic took {:?} to surface",
            t0.elapsed()
        );
    }

    /// The Dekker pair itself: one ring, the relay's own pop and push, and
    /// 20 000 pushes timed across the waiter's spin → yield → park descent
    /// (from half to one and a half times its measured length), where a
    /// push and the waiter's flag race. Without either fence some of them
    /// are lost on x86; the first one that stalls for the fallback ends the
    /// test.
    #[test]
    fn relay_wake_survives_pushes_timed_across_the_park() {
        const CALIBRATE: u64 = 200;
        const PUSHES: u64 = 20_000;
        let parker = Parker::default();
        // Raised by the waiter to stop the producer at the first failure.
        let halt = AtomicBool::new(false);
        let taken = AtomicU64::new(0);
        let mut failed = None;
        let (tx, mut rx) = spsc::channel::<u64>(1).unwrap();
        std::thread::scope(|s| {
            let (parker, halt, taken) = (&parker, &halt, &taken);
            let spin_until = move |done: &dyn Fn() -> bool| {
                while !done() {
                    if halt.load(Ordering::Relaxed) {
                        return false;
                    }
                    std::hint::spin_loop();
                }
                true
            };
            s.spawn(move || {
                let mut out = Outlet {
                    tx,
                    consumer: parker,
                };
                let mut descents = Vec::new();
                for i in 0..CALIBRATE + PUSHES {
                    // The waiter starts waiting for item `i` once it has
                    // taken `i - 1`.
                    if !spin_until(&|| taken.load(Ordering::Acquire) >= i) {
                        return;
                    }
                    let waiting = Instant::now();
                    let timed = if i < CALIBRATE {
                        let parked = spin_until(&|| parker.parked.load(Ordering::Acquire));
                        descents.push(waiting.elapsed());
                        parked
                    } else {
                        if i == CALIBRATE {
                            descents.sort();
                        }
                        let d = descents[descents.len() / 2];
                        let until = waiting + d / 2 + d * (i * 37 % 1000) as u32 / 1000;
                        spin_until(&|| Instant::now() >= until)
                    };
                    if !timed || !push_until(&mut out, i, halt) {
                        return;
                    }
                }
            });
            parker.register();
            let wait = Wait {
                me: parker,
                halt,
                watchdog: None,
                fallback: SLOW_FALLBACK,
            };
            for i in 0..CALIBRATE + PUSHES {
                let t0 = Instant::now();
                let got = matches!(pop_watchdog(&mut rx, &wait), ResilientPop::Got(v) if v == i);
                if !got || t0.elapsed() > SLOW_FALLBACK / 2 {
                    failed = Some(i);
                    halt.store(true, Ordering::Relaxed);
                    break;
                }
                taken.store(i + 1, Ordering::Release);
            }
        });
        assert_eq!(failed, None, "a push was lost or woke nobody");
    }
}
