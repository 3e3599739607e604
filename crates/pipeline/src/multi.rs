//! Multi-tenant work-stealing host executor.
//!
//! [`crate::run_host`] dedicates one thread per chunk — the right shape
//! for a single pipeline pinned to its clusters, but co-running N
//! applications that way oversubscribes the host with N × chunks threads
//! that mostly block on their neighbours. [`run_multi_host`] replaces the
//! thread-per-chunk model with a **fixed worker pool** sized by
//! [`WorkerBudget`]: every (tenant, chunk) pair becomes a schedulable
//! station, runnable work circulates as tokens through a global injector
//! queue plus per-worker deques, and idle workers *steal* from busy ones.
//!
//! The worker loop follows the classic executor shape: claim a station,
//! serve one task, keep the downstream station in context (so a task's
//! next hop runs hot, without a queue round-trip), and push any remaining
//! runnable stations for other workers to steal. A per-chunk claim flag
//! preserves the pipeline discipline that one chunk serves one task at a
//! time, so per-tenant FIFO order — and the `completed + dropped ==
//! submitted` accounting of the unified run model — is maintained exactly
//! as in the dedicated executor.
//!
//! Failure policy: a panicking stage kernel is caught, the task is
//! tombstoned (counted as dropped and as a fired fault) and its payload
//! rebuilt from the tenant's factory, and the object keeps flowing so the
//! pool never shrinks. The tenant's report names the first chunk that
//! tombstoned a task ([`DegradeReason::KernelFailures`]), as the relay
//! does. Hung kernels are out of scope here — the watchdog
//! machinery lives in [`crate::run_host`]'s resilient mode.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use bt_kernels::{Application, ParCtx};
use bt_soc::{DegradeReason, RunConfig, RunReport};
use bt_telemetry::DispatcherCounters;

use crate::executor::{finish_host_run, Span};
use crate::{PipelineError, Schedule, TaskObject};

/// Type-erased task payload: tenants of different payload types co-run in
/// one pool, so the runtime sees only `dyn Any`.
type ErasedPayload = Box<dyn Any + Send>;
type ErasedKernel = Arc<dyn Fn(&mut ErasedPayload, &ParCtx) + Send + Sync>;
type ErasedFactory = Arc<dyn Fn() -> ErasedPayload + Send + Sync>;
type ErasedSource = Arc<dyn Fn(&mut ErasedPayload, u64) + Send + Sync>;

/// Size of the shared worker pool serving every tenant.
///
/// This is the executor's whole resource model: the pool is fixed at
/// construction and shared by all tenants, so admission policies can
/// reason about co-run capacity in one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerBudget {
    workers: usize,
}

impl WorkerBudget {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerBudget {
        WorkerBudget {
            workers: workers.max(1),
        }
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Default for WorkerBudget {
    /// One worker per available core, capped at 8.
    fn default() -> WorkerBudget {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        WorkerBudget::new(cores.min(8))
    }
}

/// One chunk of a tenant's schedule, erased to runnable form.
struct TenantChunk {
    kernels: Vec<ErasedKernel>,
}

/// One co-running application: a type-erased (app, schedule) pair plus its
/// own [`RunConfig`]. Built once via [`Tenant::new`], then submitted as
/// part of a [`TenantSet`].
pub struct Tenant {
    name: String,
    chunks: Vec<TenantChunk>,
    factory: ErasedFactory,
    source: ErasedSource,
    cfg: RunConfig,
}

impl Tenant {
    /// Wraps `app` under `schedule` with run configuration `cfg`,
    /// type-erasing the payload so tenants of different applications can
    /// share one executor.
    ///
    /// The executor honours `tasks`, `warmup`, `buffers`,
    /// `record_timeline` and `telemetry` from `cfg`; simulator-only fields
    /// are ignored, as are `affinity`/`duration` (the pool is not pinned
    /// per chunk).
    ///
    /// # Errors
    ///
    /// [`PipelineError::StageMismatch`] when schedule and application
    /// disagree on stage count; [`PipelineError::NoTasks`] when
    /// `cfg.tasks == 0`.
    pub fn new<P: Send + 'static>(
        name: impl Into<String>,
        app: &Application<P>,
        schedule: &Schedule,
        cfg: RunConfig,
    ) -> Result<Tenant, PipelineError> {
        if schedule.stage_count() != app.stage_count() {
            return Err(PipelineError::StageMismatch {
                app: app.stage_count(),
                schedule: schedule.stage_count(),
            });
        }
        if cfg.tasks == 0 {
            return Err(PipelineError::NoTasks);
        }
        let chunks = schedule
            .chunks()
            .iter()
            .map(|chunk| TenantChunk {
                kernels: (chunk.first_stage..=chunk.last_stage)
                    .map(|s| {
                        let k = app.stages()[s].kernel();
                        let erased: ErasedKernel = Arc::new(move |p: &mut ErasedPayload, ctx| {
                            let p = p
                                .downcast_mut::<P>()
                                .expect("payload type is fixed per tenant");
                            k(p, ctx)
                        });
                        erased
                    })
                    .collect(),
            })
            .collect();
        let factory = {
            let f = app.factory();
            let erased: ErasedFactory = Arc::new(move || Box::new(f()) as ErasedPayload);
            erased
        };
        let source = {
            let s = app.source();
            let erased: ErasedSource = Arc::new(move |p: &mut ErasedPayload, seq| {
                let p = p
                    .downcast_mut::<P>()
                    .expect("payload type is fixed per tenant");
                s(p, seq)
            });
            erased
        };
        Ok(Tenant {
            name: name.into(),
            chunks,
            factory,
            source,
            cfg,
        })
    }

    /// The tenant's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Number of chunks in the tenant's schedule.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl fmt::Debug for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("chunks", &self.chunks.len())
            .field("tasks", &self.cfg.tasks)
            .finish()
    }
}

/// An ordered collection of tenants submitted to [`run_multi_host`]
/// together; reports come back in the same order.
#[derive(Debug, Default)]
pub struct TenantSet {
    tenants: Vec<Tenant>,
}

impl TenantSet {
    /// An empty set.
    pub fn new() -> TenantSet {
        TenantSet::default()
    }

    /// Adds a tenant.
    pub fn push(&mut self, tenant: Tenant) {
        self.tenants.push(tenant);
    }

    /// Builder-style [`push`](TenantSet::push).
    pub fn with(mut self, tenant: Tenant) -> TenantSet {
        self.push(tenant);
        self
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenants, in submission order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }
}

/// A station: one (tenant, chunk) pair flattened into the global list.
struct Station {
    tenant: usize,
    /// Global index of the downstream station (`None` at the tail).
    next: Option<usize>,
    /// Global index of the owning tenant's head station.
    head: usize,
    kernels: *const [ErasedKernel],
    claim: AtomicBool,
    input: Mutex<VecDeque<Box<TaskObject<ErasedPayload>>>>,
    /// `(task, start, end)` of every serve on this station; utilization
    /// needs the raw spans because the window is only known post-run.
    spans: Mutex<Vec<Span>>,
}

// The raw kernel-slice pointer borrows from the TenantSet, which outlives
// the scoped worker threads; Station is only shared within that scope.
unsafe impl Send for Station {}
unsafe impl Sync for Station {}

/// Per-tenant accounting shared by the pool.
struct TenantRt {
    total: u64,
    /// Tasks admitted at the head (mutated only under the head station's
    /// claim; atomic for cross-worker visibility).
    started: AtomicU64,
    dropped: AtomicU64,
    faults: AtomicU32,
    /// The tenant-local chunk that tombstoned a task first (`usize::MAX`
    /// while none has).
    failed_chunk: AtomicUsize,
    /// `(entry, exit)` in completion order (the tail station is
    /// claim-serialized).
    completions: Mutex<Vec<(Instant, Instant)>>,
}

/// The work-stealing queue fabric: a global injector plus one deque per
/// worker, under one lock (the workspace has no lock-free deque;
/// contention here is a handful of token moves per task, far off the
/// kernel-execution critical path).
struct Queues {
    state: Mutex<QueueState>,
    condvar: Condvar,
}

struct QueueState {
    global: VecDeque<usize>,
    workers: Vec<VecDeque<usize>>,
    finished: bool,
}

struct Pool<'a> {
    stations: Vec<Station>,
    tenants: Vec<TenantRt>,
    factories: &'a [ErasedFactory],
    sources: &'a [ErasedSource],
    queues: Queues,
    /// Tasks not yet accounted at a tail, across all tenants; reaching
    /// zero finishes the run.
    remaining: AtomicU64,
}

impl Pool<'_> {
    /// Enqueues a runnable-station token on `wid`'s deque (or the global
    /// injector when no worker is preferred) and wakes one sleeper.
    fn push_token(&self, wid: Option<usize>, station: usize) {
        let mut q = self.queues.state.lock().expect("queue lock");
        match wid {
            Some(w) => q.workers[w].push_back(station),
            None => q.global.push_back(station),
        }
        drop(q);
        self.queues.condvar.notify_one();
    }

    /// Blocks until a token is available or the run finishes: own deque
    /// first (newest first — the station just pushed is the hottest),
    /// then the global injector, then stealing from the *front* of other
    /// workers' deques (oldest first, the classic steal end).
    fn steal_task_to_context(&self, wid: usize) -> Option<usize> {
        let mut q = self.queues.state.lock().expect("queue lock");
        loop {
            if q.finished {
                return None;
            }
            if let Some(s) = q.workers[wid].pop_back() {
                return Some(s);
            }
            if let Some(s) = q.global.pop_front() {
                return Some(s);
            }
            let n = q.workers.len();
            for off in 1..n {
                let victim = (wid + off) % n;
                if let Some(s) = q.workers[victim].pop_front() {
                    return Some(s);
                }
            }
            q = self
                .queues
                .condvar
                .wait(q)
                .expect("queue lock poisoned while waiting");
        }
    }

    /// Declares the run complete and wakes every sleeping worker.
    fn finish(&self) {
        let mut q = self.queues.state.lock().expect("queue lock");
        q.finished = true;
        drop(q);
        self.queues.condvar.notify_all();
    }

    /// Whether `station` has runnable work right now (non-head: queued
    /// objects; head: recycled objects *and* admissions left).
    fn has_work(&self, station: usize) -> bool {
        let st = &self.stations[station];
        let queued = !st.input.lock().expect("input lock").is_empty();
        if !queued {
            return false;
        }
        if st.head == station {
            let t = &self.tenants[st.tenant];
            t.started.load(Ordering::Acquire) < t.total
        } else {
            true
        }
    }

    /// Claims `station` and serves at most one task. Returns the station
    /// to keep in this worker's context (the downstream hop of the served
    /// task), pushing any still-runnable current station for others to
    /// steal.
    fn execute(&self, wid: usize, station: usize, ctx: &ParCtx) -> Option<usize> {
        let st = &self.stations[station];
        if st
            .claim
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Another worker is serving this station; it re-checks the
            // queue before releasing the claim, so this token can drop.
            return None;
        }
        let next = self.serve_one(station, ctx);
        st.claim.store(false, Ordering::Release);
        // Items enqueued while we held the claim may have had their
        // tokens dropped by failed claims above — re-arm the station.
        if self.has_work(station) {
            self.push_token(Some(wid), station);
        }
        next
    }

    /// Serves one task at `station` (claim held by the caller): admits at
    /// the head, runs the chunk's kernels with panic tombstoning, records
    /// completion and recycles at the tail. Returns the downstream
    /// station to run next, if the served task moved to one.
    fn serve_one(&self, station: usize, ctx: &ParCtx) -> Option<usize> {
        let st = &self.stations[station];
        let tenant = &self.tenants[st.tenant];
        let is_head = st.head == station;

        let mut obj = {
            let mut input = st.input.lock().expect("input lock");
            if is_head && tenant.started.load(Ordering::Acquire) >= tenant.total {
                return None; // admissions exhausted; objects rest here
            }
            input.pop_front()?
        };

        if is_head {
            let seq = tenant.started.load(Ordering::Acquire);
            tenant.started.store(seq + 1, Ordering::Release);
            obj.recycle(seq);
            (self.sources[st.tenant])(&mut obj.payload, seq);
        }

        // Tombstoned tasks flow through without executing (the pool must
        // not shrink); everything else runs the chunk's kernel sequence.
        if !obj.dropped {
            let kernels: &[ErasedKernel] = unsafe { &*st.kernels };
            let t0 = Instant::now();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                for k in kernels {
                    k(&mut obj.payload, ctx);
                }
            }));
            let span = (obj.seq, t0, Instant::now());
            st.spans.lock().expect("spans lock").push(span);
            if result.is_err() {
                obj.dropped = true;
                tenant.faults.fetch_add(1, Ordering::Relaxed);
                // Read after the workers join, so Relaxed suffices.
                let _ = tenant.failed_chunk.compare_exchange(
                    usize::MAX,
                    station - st.head,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // The panic may have left the payload torn; rebuild it.
                obj.payload = (self.factories[st.tenant])();
            }
        }

        match st.next {
            Some(next) => {
                self.stations[next]
                    .input
                    .lock()
                    .expect("input lock")
                    .push_back(obj);
                Some(next)
            }
            None => {
                if obj.dropped {
                    tenant.dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    let done = (obj.entered.expect("stamped at head"), Instant::now());
                    let mut completions = tenant.completions.lock().expect("completions lock");
                    completions.push(done);
                }
                self.stations[st.head]
                    .input
                    .lock()
                    .expect("input lock")
                    .push_back(obj);
                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.finish();
                }
                Some(st.head)
            }
        }
    }

    fn worker_loop(&self, wid: usize) {
        let ctx = ParCtx::serial();
        let mut in_context: Option<usize> = None;
        loop {
            let station = match in_context.take() {
                Some(s) => s,
                None => match self.steal_task_to_context(wid) {
                    Some(s) => s,
                    None => return,
                },
            };
            in_context = self.execute(wid, station, &ctx);
        }
    }
}

/// Co-runs every tenant in `set` on one fixed work-stealing worker pool,
/// returning one unified [`RunReport`] per tenant in submission order.
///
/// Each tenant streams `tasks + warmup` inputs through its own pipeline
/// (own buffer pool, FIFO order, warmup window) while all tenants' chunks
/// compete for the same `budget.workers()` threads — the host-side
/// counterpart of [`bt_soc::simulate_multi`]'s shared-device co-location.
/// Every report upholds `completed + dropped == submitted`; kernel panics
/// tombstone the task (dropped, `faults_fired`, and `degraded` naming the
/// first failing chunk) instead of aborting the co-run.
///
/// When a tenant's `cfg` asks for them, its report carries a timeline and
/// telemetry, on one epoch shared by every tenant of the call. A station's
/// counters hold only `tasks` and `busy`; the other fields stay zero,
/// because the pool has no rings to starve on, block on or sample.
///
/// # Errors
///
/// [`PipelineError::NoTasks`] when `set` is empty. (Per-tenant
/// configuration errors surface earlier, from [`Tenant::new`].)
pub fn run_multi_host(
    set: &TenantSet,
    budget: &WorkerBudget,
) -> Result<Vec<RunReport>, PipelineError> {
    if set.is_empty() {
        return Err(PipelineError::NoTasks);
    }

    // Flatten (tenant, chunk) pairs into global stations.
    let mut stations: Vec<Station> = Vec::new();
    let mut tenants_rt: Vec<TenantRt> = Vec::new();
    let mut factories: Vec<ErasedFactory> = Vec::new();
    let mut sources: Vec<ErasedSource> = Vec::new();
    for tenant in set.tenants() {
        let head = stations.len();
        let k = tenant.chunks.len();
        let total = tenant.cfg.total_tasks();
        let buffers = if tenant.cfg.buffers == 0 {
            k + 1
        } else {
            tenant.cfg.buffers as usize
        };
        for (li, chunk) in tenant.chunks.iter().enumerate() {
            let g = stations.len();
            let mut input = VecDeque::with_capacity(buffers);
            if li == 0 {
                for _ in 0..buffers {
                    input.push_back(Box::new(TaskObject::new((tenant.factory)())));
                }
            }
            stations.push(Station {
                tenant: tenants_rt.len(),
                next: (li + 1 < k).then_some(g + 1),
                head,
                kernels: chunk.kernels.as_slice() as *const _,
                claim: AtomicBool::new(false),
                input: Mutex::new(input),
                spans: Mutex::new(Vec::with_capacity(total as usize)),
            });
        }
        tenants_rt.push(TenantRt {
            total,
            started: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            faults: AtomicU32::new(0),
            failed_chunk: AtomicUsize::new(usize::MAX),
            completions: Mutex::new(Vec::with_capacity(total as usize)),
        });
        factories.push(Arc::clone(&tenant.factory));
        sources.push(Arc::clone(&tenant.source));
    }

    let remaining: u64 = tenants_rt.iter().map(|t| t.total).sum();
    let heads: Vec<usize> = stations
        .iter()
        .enumerate()
        .filter(|(g, s)| s.head == *g)
        .map(|(g, _)| g)
        .collect();
    let pool = Pool {
        stations,
        tenants: tenants_rt,
        factories: &factories,
        sources: &sources,
        queues: Queues {
            state: Mutex::new(QueueState {
                global: heads.into(),
                workers: vec![VecDeque::new(); budget.workers()],
                finished: false,
            }),
            condvar: Condvar::new(),
        },
        remaining: AtomicU64::new(remaining),
    };

    // One epoch for every tenant, so their timelines share one clock.
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        for wid in 0..budget.workers() {
            let pool = &pool;
            scope.spawn(move || pool.worker_loop(wid));
        }
    });

    // Close one run per tenant; a station's counters start at zero and
    // take `tasks` and `busy` from its spans.
    let reports = pool
        .tenants
        .iter()
        .zip(set.tenants())
        .enumerate()
        .map(|(ti, (rt, tenant))| {
            let completions = rt.completions.lock().expect("completions lock");
            let spans: Vec<_> = pool
                .stations
                .iter()
                .filter(|s| s.tenant == ti)
                .map(|s| s.spans.lock().expect("spans lock"))
                .collect();
            let chunks = spans.iter().map(|s| (&s[..], DispatcherCounters::new()));
            let run = finish_host_run(&tenant.cfg, epoch, &completions, chunks);
            let submitted = rt.started.load(Ordering::Acquire);
            let completed = completions.len() as u64;
            let dropped = rt.dropped.load(Ordering::Relaxed);
            debug_assert_eq!(completed + dropped, submitted);
            RunReport {
                submitted,
                completed,
                dropped,
                faults_fired: rt.faults.load(Ordering::Relaxed),
                stats: run.stats,
                timeline: run.timeline,
                telemetry: run.telemetry,
                degraded: match rt.failed_chunk.load(Ordering::Relaxed) {
                    usize::MAX => None,
                    chunk => Some(DegradeReason::KernelFailures { chunk }),
                },
            }
        })
        .collect();
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    use bt_kernels::Stage;
    use bt_soc::PuClass::*;

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

    /// A second payload type, to prove erasure lets unlike tenants co-run.
    fn string_app(counter: Arc<AtomicU64>) -> Application<String> {
        let c2 = Arc::clone(&counter);
        Application::new(
            "strings",
            vec![
                Stage::new(
                    "upper",
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |s: &mut String, _ctx: &ParCtx| {
                        *s = s.to_uppercase();
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as bt_kernels::KernelFn<String>,
                ),
                Stage::new(
                    "exclaim",
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |s: &mut String, _ctx: &ParCtx| {
                        s.push('!');
                        c2.fetch_add(1, Ordering::Relaxed);
                    }) as bt_kernels::KernelFn<String>,
                ),
            ],
            Arc::new(String::new),
            Arc::new(|s: &mut String, seq| *s = format!("task{seq}")),
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
    fn worker_budget_clamps_and_defaults() {
        assert_eq!(WorkerBudget::new(0).workers(), 1);
        assert_eq!(WorkerBudget::new(6).workers(), 6);
        assert!(WorkerBudget::default().workers() >= 1);
    }

    #[test]
    fn empty_set_rejected() {
        assert_eq!(
            run_multi_host(&TenantSet::new(), &WorkerBudget::new(2)).unwrap_err(),
            PipelineError::NoTasks
        );
    }

    #[test]
    fn tenant_validation_mirrors_run_host() {
        let app = trace_app(3, Arc::new(AtomicU64::new(0)));
        let bad = Schedule::homogeneous(4, BigCpu);
        assert_eq!(
            Tenant::new("t", &app, &bad, cfg(5, 0)).unwrap_err(),
            PipelineError::StageMismatch {
                app: 3,
                schedule: 4
            }
        );
        let ok = Schedule::homogeneous(3, BigCpu);
        assert_eq!(
            Tenant::new("t", &app, &ok, cfg(0, 2)).unwrap_err(),
            PipelineError::NoTasks
        );
    }

    #[test]
    fn single_tenant_completes_every_task() {
        let counter = Arc::new(AtomicU64::new(0));
        let app = trace_app(4, Arc::clone(&counter));
        let schedule = Schedule::new(vec![BigCpu, BigCpu, Gpu, Gpu]).unwrap();
        let set = TenantSet::new().with(Tenant::new("solo", &app, &schedule, cfg(20, 3)).unwrap());
        let reports = run_multi_host(&set, &WorkerBudget::new(3)).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.submitted, 23);
        assert_eq!(r.completed, 23);
        assert_eq!(r.dropped, 0);
        assert!(!r.is_degraded());
        let stats = r.expect_stats();
        assert_eq!(stats.tasks, 20);
        assert_eq!(stats.chunk_utilization.len(), 2);
        assert_eq!(counter.load(Ordering::Relaxed), 23 * 4);
    }

    #[test]
    fn unlike_payload_tenants_co_run_with_conservation() {
        let c1 = Arc::new(AtomicU64::new(0));
        let c2 = Arc::new(AtomicU64::new(0));
        let traces = trace_app(3, Arc::clone(&c1));
        let strings = string_app(Arc::clone(&c2));
        let set = TenantSet::new()
            .with(
                Tenant::new(
                    "traces",
                    &traces,
                    &Schedule::new(vec![BigCpu, Gpu, Gpu]).unwrap(),
                    cfg(15, 2),
                )
                .unwrap(),
            )
            .with(
                Tenant::new(
                    "strings",
                    &strings,
                    &Schedule::new(vec![MediumCpu, LittleCpu]).unwrap(),
                    cfg(10, 1),
                )
                .unwrap(),
            );
        let reports = run_multi_host(&set, &WorkerBudget::new(4)).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].submitted, 17);
        assert_eq!(reports[1].submitted, 11);
        for r in &reports {
            assert_eq!(r.completed + r.dropped, r.submitted);
            assert_eq!(r.dropped, 0);
            assert!(r.stats.is_some());
        }
        assert_eq!(c1.load(Ordering::Relaxed), 17 * 3);
        assert_eq!(c2.load(Ordering::Relaxed), 11 * 2);
    }

    #[test]
    fn panicking_kernel_tombstones_without_sinking_the_co_run() {
        let counter = Arc::new(AtomicU64::new(0));
        let healthy = trace_app(2, Arc::clone(&counter));
        let faulty = panicking_app(4);
        let set = TenantSet::new()
            .with(
                Tenant::new(
                    "healthy",
                    &healthy,
                    &Schedule::new(vec![BigCpu, Gpu]).unwrap(),
                    cfg(12, 0),
                )
                .unwrap(),
            )
            .with(
                Tenant::new(
                    "faulty",
                    &faulty,
                    &Schedule::homogeneous(1, MediumCpu),
                    cfg(10, 0),
                )
                .unwrap(),
            );
        let reports = run_multi_host(&set, &WorkerBudget::new(2)).unwrap();
        let healthy_r = &reports[0];
        assert_eq!(healthy_r.dropped, 0);
        assert_eq!(healthy_r.completed, 12);
        assert_eq!(healthy_r.degraded, None);
        let faulty_r = &reports[1];
        assert_eq!(faulty_r.dropped, 1);
        assert_eq!(faulty_r.completed, 9);
        assert_eq!(faulty_r.faults_fired, 1);
        assert_eq!(faulty_r.completed + faulty_r.dropped, faulty_r.submitted);
        assert!(faulty_r.is_degraded());
        assert_eq!(
            faulty_r.degraded,
            Some(DegradeReason::KernelFailures { chunk: 0 })
        );
    }

    /// A one-stage app whose kernel panics on task `at`.
    fn panicking_app(at: u64) -> Application<Trace> {
        Application::new(
            "faulty",
            vec![Stage::new(
                "boom",
                bt_soc::WorkProfile::new(1.0, 1.0),
                Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                    if t.seq == at {
                        panic!("injected kernel fault");
                    }
                }) as bt_kernels::KernelFn<Trace>,
            )],
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| t.seq = seq),
        )
    }

    /// A `stages`-stage app whose tail stage logs each task's `seq`.
    fn seq_logging_app(stages: usize, log: Arc<Mutex<Vec<u64>>>) -> Application<Trace> {
        let stage_list = (0..stages)
            .map(|i| {
                let log = Arc::clone(&log);
                Stage::new(
                    format!("s{i}"),
                    bt_soc::WorkProfile::new(1.0, 1.0),
                    Arc::new(move |t: &mut Trace, _ctx: &ParCtx| {
                        if i + 1 == stages {
                            log.lock().unwrap().push(t.seq);
                        }
                    }) as bt_kernels::KernelFn<Trace>,
                )
            })
            .collect();
        Application::new(
            "seq-log",
            stage_list,
            Arc::new(Trace::default),
            Arc::new(|t: &mut Trace, seq| t.seq = seq),
        )
    }

    #[test]
    fn fifo_order_is_preserved_per_tenant() {
        // Each tenant's tail must see its tasks in exactly admission
        // order: the claim flag serializes each station and the station
        // queues are FIFO, whatever the worker count.
        for workers in 1..=4 {
            let logs: Vec<Arc<Mutex<Vec<u64>>>> = (0..2).map(|_| Arc::default()).collect();
            let a = seq_logging_app(3, Arc::clone(&logs[0]));
            let b = seq_logging_app(2, Arc::clone(&logs[1]));
            let set = TenantSet::new()
                .with(
                    Tenant::new(
                        "a",
                        &a,
                        &Schedule::new(vec![BigCpu, MediumCpu, Gpu]).unwrap(),
                        cfg(30, 2),
                    )
                    .unwrap(),
                )
                .with(
                    Tenant::new(
                        "b",
                        &b,
                        &Schedule::new(vec![Gpu, BigCpu]).unwrap(),
                        cfg(25, 0),
                    )
                    .unwrap(),
                );
            let reports = run_multi_host(&set, &WorkerBudget::new(workers)).unwrap();
            for (log, r) in logs.iter().zip(&reports) {
                assert_eq!(r.completed, r.submitted);
                let want: Vec<u64> = (0..r.submitted).collect();
                assert_eq!(*log.lock().unwrap(), want, "{workers} workers");
            }
        }
    }

    #[test]
    fn co_run_reports_carry_timelines_and_telemetry_on_one_epoch() {
        let traced = RunConfig {
            record_timeline: true,
            telemetry: bt_telemetry::TelemetryConfig::full(),
            ..cfg(12, 2)
        };
        let counter = Arc::new(AtomicU64::new(0));
        let (a, b) = (trace_app(3, Arc::clone(&counter)), string_app(counter));
        for workers in [1, 3] {
            let set = TenantSet::new()
                .with(
                    Tenant::new(
                        "a",
                        &a,
                        &Schedule::new(vec![BigCpu, Gpu, Gpu]).unwrap(),
                        traced.clone(),
                    )
                    .unwrap(),
                )
                .with(
                    Tenant::new(
                        "b",
                        &b,
                        &Schedule::new(vec![MediumCpu, LittleCpu]).unwrap(),
                        RunConfig {
                            tasks: 9,
                            ..traced.clone()
                        },
                    )
                    .unwrap(),
                );
            let reports = run_multi_host(&set, &WorkerBudget::new(workers)).unwrap();
            let mut everything = Vec::new();
            for r in &reports {
                // One span per (chunk, task), each station's in task order
                // and never overlapping.
                let served: Vec<(usize, u64)> =
                    r.timeline.iter().map(|s| (s.chunk, s.task)).collect();
                let want: Vec<(usize, u64)> = (0..2)
                    .flat_map(|c| (0..r.submitted).map(move |t| (c, t)))
                    .collect();
                assert_eq!(served, want);
                for pair in r.timeline.windows(2).filter(|p| p[0].chunk == p[1].chunk) {
                    assert!(pair[0].start_us <= pair[0].end_us);
                    assert!(pair[0].end_us <= pair[1].start_us, "{pair:?}");
                }
                let t = r.telemetry.as_ref().expect("telemetry requested");
                assert_eq!(t.source, "host");
                let same = t.spans.iter().zip(&r.timeline).all(|(s, e)| {
                    (s.track as usize, s.task, s.stage, s.start_us, s.end_us)
                        == (e.chunk, e.task, None, e.start_us, e.end_us)
                });
                assert!(same && t.spans.len() == r.timeline.len());
                for d in &t.dispatchers {
                    assert_eq!(d.tasks, r.submitted);
                    assert_eq!((d.blocked_pop_us, d.queue_samples), (0.0, 0), "no rings");
                }
                everything.extend(r.timeline.iter().map(|s| (s.start_us, s.end_us)));
            }
            // On one worker nothing overlaps, across tenants too, only
            // because both tenants' offsets count from one epoch.
            if workers == 1 {
                everything.sort_by(|x, y| x.0.total_cmp(&y.0));
                assert!(everything.windows(2).all(|p| p[0].1 <= p[1].0));
            }
        }
        let set = TenantSet::new()
            .with(Tenant::new("off", &a, &Schedule::homogeneous(3, Gpu), cfg(4, 1)).unwrap());
        let off = &run_multi_host(&set, &WorkerBudget::new(2)).unwrap()[0];
        assert!(off.telemetry.is_none() && off.timeline.is_empty());
    }

    #[test]
    fn a_single_completion_is_measured_from_its_own_entry() {
        // Clean, and with the admitted task 0 dropped before task 1: the
        // window is the completed task's own residence either way.
        for (warmup, dropped) in [(0, 0), (1, 1)] {
            let app = panicking_app(if dropped == 1 { 0 } else { u64::MAX });
            let set = TenantSet::new().with(
                Tenant::new("one", &app, &Schedule::homogeneous(1, Gpu), cfg(1, warmup)).unwrap(),
            );
            let r = &run_multi_host(&set, &WorkerBudget::new(2)).unwrap()[0];
            assert_eq!((r.completed, r.dropped), (1, dropped));
            let stats = r.expect_stats();
            assert_eq!(stats.makespan, stats.mean_task_latency);
        }
    }

    #[test]
    fn many_tenants_on_one_worker_still_terminate() {
        // Degenerate pool: a single worker serves 3 tenants; progress
        // relies on token re-arming, not on parallelism.
        let counter = Arc::new(AtomicU64::new(0));
        let mut set = TenantSet::new();
        for i in 0..3 {
            let app = trace_app(2, Arc::clone(&counter));
            set.push(
                Tenant::new(
                    format!("t{i}"),
                    &app,
                    &Schedule::new(vec![BigCpu, Gpu]).unwrap(),
                    cfg(8, 1),
                )
                .unwrap(),
            );
        }
        let reports = run_multi_host(&set, &WorkerBudget::new(1)).unwrap();
        for r in &reports {
            assert_eq!(r.completed, 9);
            assert_eq!(r.dropped, 0);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 3 * 9 * 2);
    }
}
