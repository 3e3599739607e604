//! Discrete-event simulation of pipelined chunk schedules: one engine for
//! every shape, static or dynamic.
//!
//! This is the virtual-time counterpart of the BT-Implementer runtime: the
//! same chunk/queue/recycled-TaskObject structure (§3.4 of the paper), but
//! executed against the analytic cost model instead of real silicon. Each
//! chunk is a station served by its PU; a fixed pool of task objects
//! circulates from the source chunk through the pipeline and back
//! (multi-buffering with recycling).
//!
//! The engine runs a *forest*: a flattened list of chunk DAGs ("trees").
//! Every tree keeps its own task stream, object pool, warmup window and
//! noise stream; all chunks share one event clock and one interference
//! busy set. The entry points only differ in the view they build:
//!
//! - [`simulate_dag`] — one tree with explicit edges and optional replica
//!   groups ([`DagPipelineSpec`]); a chain is [`DagPipelineSpec::chain`];
//! - [`simulate_multi`] — one tree per co-running tenant ([`TenantSpec`]);
//! - [`dynamic::simulate_dynamic_dag`] — one tree with a station per
//!   schedulable PU, each able to run every stage, whose placement is
//!   decided at dispatch ([`dynamic::DynamicPolicy`]).
//!
//! A *lane* is a whole run, not a dimension of the engine: callers map
//! runs over per-lane seeds and fault plans ([`DesSeedSpec`]) with
//! [`crate::parallel::fan_out`], in lane order.
//!
//! Routing is the only thing the shape decides. A static tree fixes its
//! stage → PU map at lowering and derives routing from its edge set; a
//! dynamic tree places each stage at dispatch:
//!
//! | tree | queues | a dropped task |
//! |---|---|---|
//! | path (`i → i+1`, no replicas) | FIFO per chunk | recycles its object to the source at once |
//! | any other static shape | in-order sequence gate per chunk | flows on as a zero-cost *tombstone* and recycles at the sink |
//! | dynamic | one ready list of (task, stage), placed on idle surviving stations | frees its admission slot at once; its running stages finish unused |
//!
//! Under the gate a chunk serves strictly in task-sequence order and only
//! once every predecessor has delivered the task, so joins are
//! deterministic and never starve on a dead sibling branch. Member `i` of
//! an `L`-member replica group serves the tasks with `seq % L == i`; the
//! downstream chunk (which has all members as predecessors) restores
//! sequence order. A dynamic tree admits while fewer than its pool size
//! are in flight, then places ready stages in (task, stage) order, one per
//! station visit.
//!
//! Fidelity detail that matters for the paper's results: when a chunk starts
//! a *stage*, its service time is computed against the set of PUs busy **at
//! that instant** (their current stage's class and bandwidth demand) — in
//! its own tree *or any other*; sibling branches, replicas and co-tenants
//! all charge each other interference. Co-runners of another tree have
//! their advertised bandwidth demand scaled by
//! the device's cross-tenant penalty (1.0 by default).
//! Real pipelines therefore experience time-varying interference that no
//! static profiling table captures exactly — which is why the paper needs
//! interference-aware profiling to get *close* (Fig. 6) and autotuning to
//! close the residual gap (Table 4).
//!
//! Fault semantics — every activation is a pure function of
//! `(chunk, task, stage, class, virtual time)`, so faulted runs are exactly
//! as seed-deterministic as fault-free ones. Chunk indices address the
//! flattened forest (tree 0's chunks first, then tree 1's, …); task indices
//! are tree-local sequence numbers. A dynamic tree's stations have no chunk
//! address: its faults match `(task, stage)` on any chunk.
//!
//! - **Slowdown ramps** multiply a stage's sampled service time by the
//!   class factor in effect at dispatch time.
//! - **Stragglers** multiply every stage of one `(chunk, task)` pair.
//! - **Stage `Timeout` faults** add `extra_us` to that one iteration.
//! - **Stage `Error` faults** drop the task and the chunk moves on.
//! - **PU loss** kills the class at `at_us`: in-flight work on it dies at
//!   the loss instant, queued and future arrivals at its chunks drop, and
//!   the rest of the pipeline drains. A lost *source* consumes the
//!   remaining task stream as immediate drops. A dynamic tree routes
//!   around the loss instead.
//!
//! A task drops at most once however many faults hit it, every tree
//! maintains `completed + dropped == submitted`, and the engine never
//! deadlocks. `faults == None` skips every fault lookup behind one
//! predictable branch and is bit-identical to an empty spec.
//!
//! Determinism: the event loop is a pure argmin over per-chunk completion
//! times with a (time, lowest chunk index) tie-break, and every noise draw
//! belongs to exactly one tree's stream, so a forest replays bit-identically
//! per seed vector, and a one-tree forest prices exactly what that tree
//! would cost alone.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use bt_rt::{bits, finish_run, GraphMasks, MAX_STAGES};
use bt_telemetry::DispatcherCounters;

#[path = "des_dynamic.rs"]
pub mod dynamic;

use self::dynamic::DynamicPolicy;
use crate::clock::LaneNoise;
use crate::cost;
use crate::fault::{FaultSpec, StageFaultKind};
use crate::hash::KeyHasher;
use crate::{
    ActiveKernel, PuClass, PuSpec, RunConfig, RunReport, SocError, SocSpec, TimelineSpan,
    WorkProfile,
};

/// One pipeline chunk: a PU class plus the stages it executes in order.
#[derive(Debug, Clone)]
pub struct ChunkSpec {
    /// The PU class serving this chunk.
    pub pu: PuClass,
    /// Work profiles of the chunk's stages, in pipeline order.
    pub stages: Vec<WorkProfile>,
    /// Whether every stage pays the PU's completion-synchronization cost.
    ///
    /// BT-Implementer chunks submit kernels asynchronously and synchronize
    /// once per chunk per task (`false`, the default); accelerator-oriented
    /// baselines synchronize after every stage (`true`). On mobile Vulkan
    /// stacks this difference is a large part of the pipeline speedup.
    pub sync_per_stage: bool,
}

impl ChunkSpec {
    /// Creates a chunk of `stages` on `pu` with once-per-chunk
    /// synchronization (the BT-Implementer dispatch pattern).
    pub fn new(pu: PuClass, stages: Vec<WorkProfile>) -> ChunkSpec {
        ChunkSpec {
            pu,
            stages,
            sync_per_stage: false,
        }
    }

    /// Switches to per-stage synchronization (the baseline offload
    /// pattern).
    pub fn with_per_stage_sync(mut self) -> ChunkSpec {
        self.sync_per_stage = true;
        self
    }
}

/// A chunk-level DAG pipeline: the chunks, the token-flow edges between
/// them, and any replica groups.
#[derive(Debug, Clone)]
pub struct DagPipelineSpec {
    /// The chunks; indices name them in `edges` and `replica_groups`.
    pub chunks: Vec<ChunkSpec>,
    /// Directed token-flow edges `(from, to)` between chunk indices.
    pub edges: Vec<(usize, usize)>,
    /// Replica groups: each is ≥ 2 chunk indices serving one logical
    /// chunk round-robin (member `i` of an `L`-group serves
    /// `seq % L == i`). Members must share identical predecessor and
    /// successor sets and may not be the source or the sink.
    pub replica_groups: Vec<Vec<usize>>,
}

impl DagPipelineSpec {
    /// A DAG pipeline with no replica groups.
    pub fn new(chunks: Vec<ChunkSpec>, edges: Vec<(usize, usize)>) -> DagPipelineSpec {
        DagPipelineSpec {
            chunks,
            edges,
            replica_groups: Vec::new(),
        }
    }

    /// A chain over `chunks`, the degenerate DAG.
    pub fn chain(chunks: Vec<ChunkSpec>) -> DagPipelineSpec {
        let edges = (1..chunks.len()).map(|i| (i - 1, i)).collect();
        DagPipelineSpec::new(chunks, edges)
    }

    /// Adds a replica group.
    pub fn with_replica_group(mut self, members: Vec<usize>) -> DagPipelineSpec {
        self.replica_groups.push(members);
        self
    }
}

/// One co-running application: a name, its chunk schedule, and its own
/// run configuration.
///
/// The simulator honours `tasks`, `warmup`, `buffers`, `seed`,
/// `noise_sigma`, `record_timeline` and `telemetry` per tenant (timeline
/// and telemetry chunk indices are tenant-local).
///
/// By default the chunks form a linear pipeline in vector order. A
/// tenant whose chunks form a fork/join DAG instead declares its edges
/// with [`TenantSpec::with_edges`]; sibling branches then genuinely
/// overlap in time (and in every co-runner's interference busy-set).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name of the tenant (application identifier).
    pub name: String,
    /// The tenant's pipeline: chunks in pipeline order.
    pub chunks: Vec<ChunkSpec>,
    /// The tenant's run configuration.
    pub cfg: RunConfig,
    /// Dataflow edges `(from, to)` over local chunk indices. `None` (the
    /// default) means the linear chain `0 → 1 → … → n-1`. When set, the
    /// edges must form an acyclic graph with a unique source and a unique
    /// sink; chain-shaped edge sets behave identically to `None`.
    pub edges: Option<Vec<(usize, usize)>>,
}

impl TenantSpec {
    /// Convenience constructor for a linear-chain tenant.
    pub fn new(name: impl Into<String>, chunks: Vec<ChunkSpec>, cfg: RunConfig) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            chunks,
            cfg,
            edges: None,
        }
    }

    /// Declares explicit dataflow edges over this tenant's chunks,
    /// turning it into a fork/join DAG pipeline.
    #[must_use]
    pub fn with_edges(mut self, edges: Vec<(usize, usize)>) -> TenantSpec {
        self.edges = Some(edges);
        self
    }
}

/// Result of one multi-tenant co-run.
#[derive(Debug, Clone)]
pub struct MultiRunReport {
    /// One unified report per tenant, in input order. Each upholds the
    /// engine invariant `completed + dropped == submitted` and windows its
    /// stats with its own warmup (timeline chunk indices are
    /// tenant-local).
    pub tenants: Vec<RunReport>,
    /// Virtual time of the last task completion across all tenants, µs
    /// from the co-run start (0 when nothing completed).
    pub makespan_us: f64,
    /// Aggregate completed tasks per second over the co-run makespan
    /// (0 when nothing completed).
    pub throughput_hz: f64,
}

/// [`RunConfig::total_tasks`] as an index bound. A run that large could
/// not hold its completion records on a narrower `usize` anyway.
fn total_tasks(cfg: &RunConfig) -> usize {
    usize::try_from(cfg.total_tasks()).expect("task count exceeds the address space")
}

/// Circulating task objects: `cfg.buffers`, or one more than the engine's
/// `units` (chunks; PUs for the dynamic scheduler) when left at 0.
fn pool_size(cfg: &RunConfig, units: usize) -> usize {
    if cfg.buffers == 0 {
        units + 1
    } else {
        cfg.buffers as usize
    }
}

/// The pending completion events, one slot per unit (chunk, or PU for the
/// dynamic scheduler).
///
/// A unit serves at most one in-flight (task, stage) at a time, so the
/// event set never exceeds the unit count and a fixed array of next
/// completion times replaces a binary heap: push is a store, pop is an
/// argmin scan over a handful of `f64`s. The ascending scan with a strict
/// `<` keeps the heap's exact (time, lowest index) tie-break, so traces
/// are bit-identical to the heap-based engines it replaced.
#[derive(Debug)]
struct EventSlots {
    /// Completion time per unit; `INFINITY` marks an idle unit.
    next_done: Vec<f64>,
}

impl EventSlots {
    fn new(units: usize) -> EventSlots {
        EventSlots {
            next_done: vec![f64::INFINITY; units],
        }
    }

    /// Schedules `unit` to complete its in-flight stage at `time`.
    fn push(&mut self, unit: usize, time: f64) {
        debug_assert!(self.next_done[unit].is_infinite(), "one event per unit");
        self.next_done[unit] = time;
    }

    /// Removes and returns the earliest `(time, unit)` event, `None` when
    /// nothing is in flight.
    fn pop(&mut self) -> Option<(f64, usize)> {
        let mut best = (f64::INFINITY, usize::MAX);
        for (unit, &t) in self.next_done.iter().enumerate() {
            if t < best.0 {
                best = (t, unit);
            }
        }
        if best.1 == usize::MAX {
            return None;
        }
        self.next_done[best.1] = f64::INFINITY;
        Some(best)
    }
}

/// The (task, stage) a unit is serving right now.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    task: usize,
    stage: usize,
    /// Bandwidth demand advertised to co-runners while this stage runs.
    demand: f64,
}

/// Validates `edges` (any order, repeats allowed) over `n` nodes of kind
/// `what` and indexes them as bt-rt's stack masks.
///
/// # Errors
///
/// [`SocError::BadDag`] past [`MAX_STAGES`] nodes, for an out-of-range
/// endpoint or a self-loop (the least such edge is named), or a cycle.
fn dag(n: usize, edges: &[(usize, usize)], what: &str) -> Result<GraphMasks, SocError> {
    let bad = |reason: String| SocError::BadDag { reason };
    if n > MAX_STAGES {
        return Err(bad(format!(
            "{n} {what}s exceed the {MAX_STAGES} a graph holds"
        )));
    }
    let broken = edges.iter().filter(|&&(u, v)| u >= n || v >= n || u == v);
    match broken.min() {
        Some(&(u, v)) if u >= n || v >= n => {
            Err(bad(format!("edge ({u}, {v}) references an unknown {what}")))
        }
        Some(&(u, _)) => Err(bad(format!("{what} {u} feeds itself"))),
        None => GraphMasks::new(n, edges.iter().copied())
            .map_err(|_| bad(format!("{what} graph contains a cycle"))),
    }
}

/// Whether `edges`, in order, are exactly the path `0 → 1 → … → n-1`.
fn is_path(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> bool {
    let mut k = 0;
    edges.into_iter().all(|e| {
        k += 1;
        e == (k - 1, k)
    }) && k + 1 == n.max(1)
}

/// The noiseless base-latency memo keyed on (chunk, stage, busy set).
/// The packed key's fields occupy disjoint bit ranges, so one multiply
/// ([`KeyHasher`]) spreads them; SipHash would cost a significant
/// fraction of the roofline evaluation the memo exists to avoid.
type ServiceCache = HashMap<u64, f64, std::hash::BuildHasherDefault<KeyHasher>>;

/// Allocation-lean service-time computation for the event loop.
///
/// It keeps one reusable co-runner scratch buffer, precomputes the
/// per-(chunk, stage) bandwidth demand and synchronization cost (both
/// independent of the busy set), and memoizes the noiseless base latency
/// per (chunk, stage, busy-set) key.
///
/// Cache keying: each chunk's contribution to the busy set is `0` when idle
/// or `stage + 1` when busy, packed in [`ServiceModel::STAGE_BITS`] bits per
/// chunk; the dispatching chunk's own slot is forced to `0` (a chunk is
/// never its own co-runner) and its (chunk, stage) coordinates occupy the
/// high bits. That key determines the co-runner multiset exactly: a
/// co-runner's advertised bandwidth demand is a pure function of its
/// (chunk, stage), and chunk indices fix which tree each side belongs to,
/// hence whether the cross-tenant penalty applies. Forests too wide or too
/// deep for the packing (> [`ServiceModel::MAX_CACHED_CHUNKS`] chunks in
/// total, or ≥ 63 stages in one chunk) fall back to the uncached path.
struct ServiceModel<'a> {
    soc: &'a SocSpec,
    chunks: Vec<&'a ChunkSpec>,
    pus: Vec<&'a PuSpec>,
    /// Row of each chunk's stage 0 in `demand` / `sync`.
    first_row: Vec<usize>,
    /// Per (chunk, stage) row: DRAM bandwidth advertised while that stage
    /// runs (busy-set independent).
    demand: Vec<f64>,
    /// Per (chunk, stage) row: completion-synchronization cost added to
    /// the sampled service time.
    sync: Vec<f64>,
    /// Reused co-runner buffer (cleared per dispatch, never reallocated
    /// once it reaches `chunks - 1` capacity).
    scratch: Vec<ActiveKernel>,
    /// Noiseless base-latency memo, `None` when disabled or unkeyable.
    cache: Option<ServiceCache>,
}

impl<'a> ServiceModel<'a> {
    /// Bits per chunk in the busy-set key: stage index + 1, or 0 for idle.
    const STAGE_BITS: u32 = 6;
    /// Chunk-count limit for the packed key (6 bits × 8 chunks = 48 bits of
    /// busy set, leaving room for the dispatcher coordinates).
    const MAX_CACHED_CHUNKS: usize = 8;

    /// # Panics
    ///
    /// Panics if a chunk names a PU class `soc` lacks; entry points
    /// validate that first.
    fn new(soc: &'a SocSpec, chunks: Vec<&'a ChunkSpec>, use_cache: bool) -> ServiceModel<'a> {
        let pus: Vec<&PuSpec> = chunks
            .iter()
            .map(|c| {
                soc.pu(c.pu)
                    .expect("chunk PUs validated by the entry point")
            })
            .collect();
        let rows = chunks.iter().map(|c| c.stages.len()).sum();
        let mut first_row = Vec::with_capacity(chunks.len());
        let mut demand = Vec::with_capacity(rows);
        let mut sync = Vec::with_capacity(rows);
        for (c, pu) in chunks.iter().zip(&pus) {
            first_row.push(demand.len());
            for (s, w) in c.stages.iter().enumerate() {
                demand.push(cost::bw_demand(w, pu));
                let syncs = c.sync_per_stage || s + 1 == c.stages.len();
                sync.push(if syncs { pu.sync_overhead_us() } else { 0.0 });
            }
        }
        let keyable = chunks.len() <= Self::MAX_CACHED_CHUNKS
            && chunks
                .iter()
                .all(|c| c.stages.len() < (1 << Self::STAGE_BITS) - 1);
        ServiceModel {
            soc,
            scratch: Vec::with_capacity(chunks.len().saturating_sub(1)),
            chunks,
            pus,
            first_row,
            demand,
            sync,
            // Pre-sized past the busy-set combinations short pipelines
            // reach, so steady-state runs never pay a rehash-and-grow.
            cache: (use_cache && keyable).then(|| {
                ServiceCache::with_capacity_and_hasher(
                    256,
                    std::hash::BuildHasherDefault::default(),
                )
            }),
        }
    }

    /// Index of `(chunk, stage)` in `demand` / `sync`.
    fn row(&self, chunk: usize, stage: usize) -> usize {
        self.first_row[chunk] + stage
    }

    /// Whether base latencies are memoized, i.e. whether callers need to
    /// maintain the packed busy key at all.
    fn is_keyed(&self) -> bool {
        self.cache.is_some()
    }

    /// The *noiseless* base latency of `chunk_idx` starting `stage_idx`
    /// (callers apply their own noise and sync). The busy set arrives as
    /// an incrementally maintained packed key (`STAGE_BITS`-wide
    /// `stage + 1` fields in chunk order; the dispatcher's own field is
    /// masked out here, so callers need not clear it) plus an on-miss
    /// co-runner enumerator — a cache hit skips the co-runner build and
    /// the roofline walk entirely, and the steady state of a converged
    /// pipeline cycles through a handful of busy sets, so hits dominate.
    fn base_keyed(
        &mut self,
        chunk_idx: usize,
        stage_idx: usize,
        busy_fields: u64,
        co_runners: impl FnOnce(&mut Vec<ActiveKernel>),
    ) -> f64 {
        let key = self.cache.as_ref().map(|_| {
            let own = ((1u64 << Self::STAGE_BITS) - 1) << (chunk_idx as u32 * Self::STAGE_BITS);
            (busy_fields & !own)
                | (chunk_idx as u64) << 48
                | (stage_idx as u64) << (48 + Self::STAGE_BITS)
        });
        let cached = key.and_then(|k| self.cache.as_ref().and_then(|c| c.get(&k).copied()));
        match cached {
            Some(v) => v,
            None => {
                self.scratch.clear();
                co_runners(&mut self.scratch);
                let work = &self.chunks[chunk_idx].stages[stage_idx];
                let v = cost::latency_under(work, self.pus[chunk_idx], self.soc, &self.scratch)
                    .as_f64();
                if let (Some(cache), Some(k)) = (self.cache.as_mut(), key) {
                    cache.insert(k, v);
                }
                v
            }
        }
    }
}

/// A borrowed description of one tree of the forest: what the three entry
/// points reduce their arguments to.
struct TreeView<'a> {
    chunks: &'a [ChunkSpec],
    cfg: &'a RunConfig,
    /// Token-flow edges over local chunk indices; `None` is the path in
    /// slice order.
    edges: Option<&'a [(usize, usize)]>,
    replica_groups: &'a [Vec<usize>],
    /// A dynamic tree: the placement policy and the per-task stage DAG
    /// every station can serve (`edges` is then unused).
    dispatch: Option<(DynamicPolicy, &'a GraphMasks)>,
}

/// One chunk of the flattened forest: a station served by its PU.
#[derive(Debug)]
struct Station {
    tree: usize,
    pu: PuClass,
    /// Stages one visit runs back to back: the chunk's stage count, or 1
    /// on a dynamic tree, where every visit is one placed stage.
    visit_stages: usize,
    /// The chunk address fault lookups use; `None` on a dynamic tree.
    fault_chunk: Option<usize>,
    busy: Option<InFlight>,
    busy_since: f64,
    /// The in-flight stage dies at its (loss-clamped) completion.
    doomed: bool,
    /// Loss instant of the PU class; `INFINITY` when it is never lost.
    loss: f64,
    /// Where this chunk's successors (global indices) sit in
    /// `Forest::succ`; only the sink has none.
    succ: std::ops::Range<usize>,
    /// Deliveries a task needs before this chunk may serve it: one per
    /// predecessor, a whole replica group counting once (exactly one
    /// member serves any given task).
    required: usize,
    /// Behind the gate a chunk serves sequences `next_seq`,
    /// `next_seq + stride`, …: every one (stride 1), or for member `i` of
    /// an `L`-member replica group those with `seq % L == i`.
    stride: usize,
    next_seq: usize,
    /// This chunk's `mask + 1` slots of `Forest::rings`. On a path they
    /// hold a FIFO of arrived tasks; under the gate, slot `seq & mask`
    /// counts task `seq`'s deliveries so far — at most a pool's worth of
    /// consecutive tasks is in flight, so live slots never collide.
    ring: usize,
    mask: usize,
    fifo_head: usize,
    /// Tasks ready to be served once the chunk is free.
    queued: usize,
}

/// Per-tree run state: its own task stream, object pool, noise stream and
/// accounting.
#[derive(Debug)]
struct Tree<'a> {
    cfg: &'a RunConfig,
    /// Global index of the tree's local chunk 0.
    base: usize,
    chunks: usize,
    source: usize,
    routing: Routing<'a>,
    /// The stage a straggler counts as fired at: 0 (each chunk's first),
    /// or a dynamic tree's first source stage.
    straggle_stage: usize,
    /// Free task objects waiting at the source; on a dynamic tree, free
    /// admission slots.
    pool: usize,
    total: usize,
    started: usize,
    completed: usize,
    dropped: usize,
    faults_fired: u32,
    /// `(entry, exit)` per admitted task (admission is in task order); the
    /// exit stays NaN unless the task completes.
    times: Vec<(f64, f64)>,
    /// Gated and dynamic trees: tasks killed (and counted dropped) at
    /// their death site; under the gate they flow onward as zero-cost
    /// tombstones.
    dead: Vec<bool>,
    noise: LaneNoise,
    /// The factor the next dispatch will use, drawn one dispatch ahead so
    /// the sampler (a normal draw and an `exp`) runs beside the event loop
    /// instead of between a dispatch and the completion time it produces.
    /// The stream is consumed in the same order either way.
    next_factor: f64,
    timeline: Vec<TimelineSpan>,
    collect_timeline: bool,
    tele_counters: bool,
}

/// How a tree routes its tasks (the module docs' table).
#[derive(Debug)]
enum Routing<'a> {
    Path,
    Gate,
    Dispatch(Dispatch<'a>),
}

/// A dynamic tree's scheduler state.
#[derive(Debug)]
struct Dispatch<'a> {
    policy: DynamicPolicy,
    /// The per-task DAG over `stages` stages.
    dag: &'a GraphMasks,
    stages: usize,
    /// Ready (task, stage) visits, kept in lexicographic order.
    ready: VecDeque<(usize, usize)>,
    /// Per (task, stage), row `task * stages`: predecessors not finished.
    waiting: Vec<usize>,
    /// Per task: stages not finished.
    left: Vec<usize>,
    /// `BestFit`'s isolated latency per (stage, station), row-major.
    isolated: Vec<f64>,
}

impl Tree<'_> {
    /// Marks `task` dead; true the first time, when it counts as dropped.
    fn kill(&mut self, task: usize) -> bool {
        let first = !std::mem::replace(&mut self.dead[task], true);
        self.dropped += usize::from(first);
        first
    }

    /// The finished tree's report, closed by bt-rt's finisher over its
    /// completions (in task order) and its chunks' `busy` spans.
    fn report(
        self,
        busy: &[Vec<(f64, f64)>],
        counters: Option<&[DispatcherCounters]>,
    ) -> RunReport {
        debug_assert_eq!(self.completed + self.dropped, self.started);
        let mut completions = self.times;
        completions.retain(|t| !t.1.is_nan());
        let run = finish_run(self.cfg, &completions, busy, self.timeline, "des", counters);
        RunReport {
            submitted: self.started as u64,
            completed: self.completed as u64,
            dropped: self.dropped as u64,
            faults_fired: self.faults_fired,
            stats: run.stats,
            timeline: run.timeline,
            telemetry: run.telemetry,
            degraded: None,
        }
    }
}

/// The forest engine behind every entry point.
struct Forest<'a> {
    faults: Option<&'a FaultSpec>,
    model: ServiceModel<'a>,
    xt_penalty: f64,
    stations: Vec<Station>,
    succ: Vec<usize>,
    rings: Vec<usize>,
    /// The packed busy set `ServiceModel::base_keyed` reads (left at 0
    /// when the model is not keyed).
    busy_key: u64,
    events: EventSlots,
    /// Contiguous (start, end) busy intervals per chunk, one per served
    /// task. Always collected: the measurement window is only known at
    /// the end, so in-window utilization needs the raw intervals.
    busy_spans: Vec<Vec<(f64, f64)>>,
    /// Per chunk when any tree collects counters, else empty.
    counters: Vec<DispatcherCounters>,
    trees: Vec<Tree<'a>>,
    /// Tasks not yet completed or dropped, over all trees.
    remaining: usize,
    last_completion: f64,
    /// While handling the current event, a path's drop recycled an object
    /// to its source outside the normal completion flow.
    recycled: bool,
}

impl<'a> Forest<'a> {
    /// Validates `views` and lays the forest out flat.
    fn plan(
        soc: &'a SocSpec,
        views: &[TreeView<'a>],
        faults: Option<&'a FaultSpec>,
    ) -> Result<Forest<'a>, SocError> {
        if views.is_empty() {
            return Err(SocError::EmptySimulation);
        }
        for v in views {
            if v.chunks.is_empty()
                || v.cfg.tasks == 0
                || v.chunks.iter().any(|c| c.stages.is_empty())
            {
                return Err(SocError::EmptySimulation);
            }
            for chunk in v.chunks {
                soc.try_pu(chunk.pu)?;
            }
        }
        let n_chunks = views.iter().map(|v| v.chunks.len()).sum();
        let mut stations: Vec<Station> = Vec::with_capacity(n_chunks);
        let mut busy_spans = Vec::with_capacity(n_chunks);
        let mut trees = Vec::with_capacity(views.len());
        let mut succ = Vec::new();
        let mut ring = 0;
        for (ti, v) in views.iter().enumerate() {
            let base = stations.len();
            let n = v.chunks.len();
            let total = total_tasks(v.cfg);
            let pool = pool_size(v.cfg, n);
            let mask = pool.next_power_of_two() - 1;
            let dynamic = v.dispatch.is_some();
            // A chain spec lists its path in order, so only other edge
            // lists are indexed (and then read in sorted order): a path of
            // any length routes without a graph.
            let plain = v.replica_groups.is_empty();
            let gated = match v.edges {
                None => None,
                Some(raw) if plain && is_path(n, raw.iter().copied()) => None,
                Some(raw) => {
                    let dag = dag(n, raw, "chunk")?;
                    let sorted = (0..n).flat_map(|u| bits(dag.succ[u]).map(move |v| (u, v)));
                    (!(plain && is_path(n, sorted))).then_some(dag)
                }
            };
            for c in v.chunks {
                stations.push(Station {
                    tree: ti,
                    pu: c.pu,
                    visit_stages: if dynamic { 1 } else { c.stages.len() },
                    fault_chunk: (!dynamic).then_some(stations.len()),
                    busy: None,
                    busy_since: 0.0,
                    doomed: false,
                    loss: faults
                        .and_then(|f| f.loss_at(c.pu))
                        .unwrap_or(f64::INFINITY),
                    succ: 0..0,
                    required: 1,
                    stride: 1,
                    next_seq: 0,
                    ring,
                    mask,
                    fifo_head: 0,
                    queued: 0,
                });
                ring += mask + 1;
                // One span per task served; sized up front so the event
                // loop never reallocates it.
                busy_spans.push(Vec::with_capacity(total));
            }
            let (routing, source) = match (v.dispatch, &gated) {
                (Some((policy, dag)), _) => {
                    let stages = v.chunks[0].stages.len();
                    let preds: Vec<usize> = (0..stages)
                        .map(|s| dag.pred[s].count_ones() as usize)
                        .collect();
                    let isolated = (0..stages)
                        .flat_map(|s| v.chunks.iter().map(move |c| (c.pu, &c.stages[s])))
                        .map(|(pu, work)| {
                            let pu = soc.pu(pu).expect("PUs validated above");
                            cost::latency_under(work, pu, soc, &[]).as_f64()
                        })
                        .collect();
                    let dispatch = Dispatch {
                        policy,
                        dag,
                        stages,
                        ready: VecDeque::new(),
                        waiting: preds.repeat(total),
                        left: vec![stages; total],
                        isolated,
                    };
                    (Routing::Dispatch(dispatch), base)
                }
                (None, None) => {
                    for (c, st) in stations.iter_mut().enumerate().skip(base).take(n - 1) {
                        st.succ = succ.len()..succ.len() + 1;
                        succ.push(c + 1);
                    }
                    (Routing::Path, base)
                }
                (None, Some(dag)) => {
                    let source = Self::gate(v, dag, &mut stations[base..], &mut succ, base)?;
                    (Routing::Gate, base + source)
                }
            };
            let collect_timeline = v.cfg.record_timeline || v.cfg.telemetry.spans;
            let mut noise = LaneNoise::new(v.cfg.noise_sigma, v.cfg.seed);
            // Stages one task runs: a dynamic tree's stations each hold all.
            let per_task = v.chunks.iter().take(if dynamic { 1 } else { n });
            let task_stages: usize = per_task.map(|c| c.stages.len()).sum();
            trees.push(Tree {
                cfg: v.cfg,
                base,
                chunks: n,
                source,
                straggle_stage: match &routing {
                    Routing::Dispatch(d) => (0..d.stages)
                        .find(|&s| d.dag.pred[s] == 0)
                        .expect("an acyclic stage graph has a source"),
                    _ => 0,
                },
                dead: if matches!(routing, Routing::Path) {
                    Vec::new()
                } else {
                    vec![false; total]
                },
                routing,
                pool,
                total,
                started: 0,
                completed: 0,
                dropped: 0,
                faults_fired: 0,
                times: Vec::with_capacity(total),
                next_factor: noise.factor(),
                noise,
                timeline: if collect_timeline {
                    Vec::with_capacity(total * task_stages)
                } else {
                    Vec::new()
                },
                collect_timeline,
                tele_counters: v.cfg.telemetry.counters,
            });
        }
        let chunks = views.iter().flat_map(|v| v.chunks).collect();
        // The memo is value-neutral, so one tree opting out just turns it
        // off for the forest.
        let use_cache = views.iter().all(|v| v.cfg.service_cache);
        Ok(Forest {
            faults,
            model: ServiceModel::new(soc, chunks, use_cache),
            xt_penalty: soc.interference().cross_tenant_penalty(),
            stations,
            succ,
            rings: vec![0; ring],
            busy_key: 0,
            events: EventSlots::new(n_chunks),
            busy_spans,
            counters: if trees.iter().any(|t| t.tele_counters) {
                vec![DispatcherCounters::new(); n_chunks]
            } else {
                Vec::new()
            },
            remaining: trees.iter().map(|t| t.total).sum(),
            trees,
            last_completion: 0.0,
            recycled: false,
        })
    }

    /// Checks one non-path tree's shape (one source, one sink, well-formed
    /// replica groups) over its validated `dag` and fills in its stations'
    /// routing: successor lists (global indices, appended to `succ`),
    /// delivery counts, and the replica members' sequence strides. Returns
    /// the local index of the source.
    fn gate(
        v: &TreeView<'_>,
        dag: &GraphMasks,
        stations: &mut [Station],
        succ: &mut Vec<usize>,
        base: usize,
    ) -> Result<usize, SocError> {
        let bad = |reason: String| SocError::BadDag { reason };
        let n = v.chunks.len();
        let ends = |of: &[u64]| (0..n).filter(|&c| of[c] == 0).fold(0u64, |m, c| m | 1 << c);
        let (sources, sinks) = (ends(&dag.pred), ends(&dag.succ));
        if sources.count_ones() != 1 || sinks.count_ones() != 1 {
            return Err(bad(format!(
                "pipeline needs exactly one source and one sink chunk \
                 (found {} sources, {} sinks)",
                sources.count_ones(),
                sinks.count_ones()
            )));
        }
        let (source, sink) = (
            sources.trailing_zeros() as usize,
            sinks.trailing_zeros() as usize,
        );
        let replicated = |c: usize| v.replica_groups.iter().any(|g| g.contains(&c));
        for group in v.replica_groups {
            if group.len() < 2 {
                return Err(bad("replica group needs at least 2 members".to_string()));
            }
            for (i, &m) in group.iter().enumerate() {
                if m >= n {
                    return Err(bad(format!("replica member {m} is not a chunk")));
                }
                if m == source || m == sink {
                    return Err(bad(format!(
                        "chunk {m} is the pipeline source or sink and cannot be replicated"
                    )));
                }
                if stations[m].stride != 1 {
                    return Err(bad(format!("chunk {m} appears in two replica groups")));
                }
                stations[m].stride = group.len();
                stations[m].next_seq = i;
            }
            // Round-robin split/merge is only well-defined when every
            // member sits between the same upstream and downstream chunks.
            let lead = group[0];
            for &m in &group[1..] {
                if dag.pred[m] != dag.pred[lead] || dag.succ[m] != dag.succ[lead] {
                    return Err(bad(format!(
                        "replica group members {lead} and {m} have different neighbours"
                    )));
                }
            }
            let mut neighbours = bits(dag.pred[lead]).chain(bits(dag.succ[lead]));
            if let Some(c) = neighbours.find(|&c| replicated(c)) {
                return Err(bad(format!(
                    "chunk {c} is both a replica and a replica-group neighbour"
                )));
            }
        }
        for (c, st) in stations.iter_mut().enumerate() {
            st.succ = succ.len()..succ.len() + dag.succ[c].count_ones() as usize;
            succ.extend(bits(dag.succ[c]).map(|s| base + s));
        }
        for c in 0..n {
            // A group's members all feed the same chunks; count it at its
            // lead (the member that serves task 0).
            stations[c].required = bits(dag.pred[c])
                .filter(|&p| stations[p].stride == 1 || stations[p].next_seq == 0)
                .count();
        }
        Ok(source)
    }

    /// The stage fault at station `c`'s fault address.
    fn stage_fault(&self, c: usize, task: usize, stage: usize) -> Option<StageFaultKind> {
        let faults = self.faults?;
        faults.stage_fault(self.stations[c].fault_chunk, task, stage)
    }

    /// Records chunk `c` as running `field - 1` (0: idle) in the busy key.
    fn key_busy(&mut self, c: usize, field: u64) {
        if self.model.is_keyed() {
            let shift = c as u32 * ServiceModel::STAGE_BITS;
            let mask = (1u64 << ServiceModel::STAGE_BITS) - 1;
            self.busy_key = (self.busy_key & !(mask << shift)) | (field << shift);
        }
    }

    /// Closes the chunk's busy interval at `now` and frees it.
    fn finish_span(&mut self, c: usize, now: f64) {
        let since = self.stations[c].busy_since;
        self.busy_spans[c].push((since, now));
        self.stations[c].busy = None;
        self.key_busy(c, 0);
        if self.trees[self.stations[c].tree].tele_counters {
            self.counters[c].record_task(Duration::from_secs_f64((now - since) * 1e-6));
        }
    }

    /// Samples the (possibly perturbed) service time of `(c, stage, task)`
    /// against the instantaneous busy set of the whole forest and
    /// schedules its completion, clamped to the chunk's loss instant.
    fn start_stage(&mut self, c: usize, task: usize, stage: usize, now: f64) {
        let ti = self.stations[c].tree;
        let (stations, xt_penalty) = (&self.stations, self.xt_penalty);
        let base = self.model.base_keyed(c, stage, self.busy_key, |co| {
            for (i, s) in stations.iter().enumerate() {
                if i == c {
                    continue;
                }
                if let Some(inflight) = s.busy {
                    let mut demand = inflight.demand;
                    if s.tree != ti {
                        demand *= xt_penalty;
                    }
                    co.push(ActiveKernel::new(s.pu, demand));
                }
            }
        });
        let row = self.model.row(c, stage);
        let tree = &mut self.trees[ti];
        let factor = std::mem::replace(&mut tree.next_factor, tree.noise.factor());
        let sampled = base * factor + self.model.sync[row];
        let mut dt = sampled;
        if let Some(spec) = self.faults {
            // Straggler multiplier, counted as one fault activation at the
            // tree's straggle stage.
            let chunk = self.stations[c].fault_chunk;
            let straggle = spec.straggler_factor(chunk, task);
            if stage == tree.straggle_stage && straggle != 1.0 {
                tree.faults_fired += 1;
            }
            dt = sampled * spec.slowdown_factor(self.stations[c].pu, now) * straggle;
            if let Some(StageFaultKind::Timeout { extra_us }) = spec.stage_fault(chunk, task, stage)
            {
                dt += extra_us;
                tree.faults_fired += 1;
            }
        }
        let st = &mut self.stations[c];
        let mut end = now + dt;
        if end > st.loss {
            // The PU dies mid-service; the stage "completes" at the loss
            // instant as a doomed event and the task drops there.
            end = st.loss;
            st.doomed = true;
        }
        if st.busy.is_none() {
            st.busy_since = now;
        }
        st.busy = Some(InFlight {
            task,
            stage,
            demand: self.model.demand[row],
        });
        if tree.collect_timeline {
            tree.timeline.push(TimelineSpan {
                chunk: c - tree.base,
                stage: Some(stage),
                task: task as u64,
                start_us: now,
                end_us: end,
            });
        }
        self.key_busy(c, stage as u64 + 1);
        self.events.push(c, end);
    }

    /// The next task chunk `c` may serve, if one is ready: the source
    /// admits from the object pool, a path chunk pops its FIFO, a gated
    /// chunk takes its next sequence number once every required
    /// predecessor has delivered it.
    fn next_task(&mut self, c: usize, now: f64) -> Option<usize> {
        let st = &mut self.stations[c];
        let tree = &mut self.trees[st.tree];
        if c == tree.source {
            while tree.started < tree.total && tree.pool > 0 {
                let seq = tree.started;
                tree.started += 1;
                tree.times.push((now, f64::NAN));
                if now < st.loss {
                    tree.pool -= 1;
                    return Some(seq);
                }
                // A lost source consumes the task stream but keeps its
                // objects: every remaining admission drops immediately.
                tree.dropped += 1;
                tree.faults_fired += 1;
                self.remaining -= 1;
            }
            return None;
        }
        let seq = if let Routing::Path = tree.routing {
            if st.queued == 0 {
                return None;
            }
            let seq = self.rings[st.ring + st.fifo_head];
            st.fifo_head = (st.fifo_head + 1) & st.mask;
            seq
        } else {
            let slot = st.ring + (st.next_seq & st.mask);
            if self.rings[slot] != st.required {
                return None;
            }
            self.rings[slot] = 0;
            st.next_seq += st.stride;
            st.next_seq - st.stride
        };
        st.queued -= 1;
        Some(seq)
    }

    /// Starts work on idle chunk `c`: takes ready tasks until one actually
    /// occupies the PU. Tombstones and fault-induced drops (lost PU,
    /// stage-0 `Error`) are dealt with on the way without advancing
    /// virtual time.
    fn pump(&mut self, c: usize, now: f64) {
        let ti = self.stations[c].tree;
        while self.stations[c].busy.is_none() {
            let Some(task) = self.next_task(c, now) else {
                return;
            };
            let path = matches!(self.trees[ti].routing, Routing::Path);
            if !path && self.trees[ti].dead[task] {
                self.forward(c, task, now);
            } else if now >= self.stations[c].loss
                || matches!(self.stage_fault(c, task, 0), Some(StageFaultKind::Error))
            {
                self.trees[ti].faults_fired += 1;
                self.drop_task(c, task, now);
            } else {
                self.start_stage(c, task, 0, now);
            }
        }
    }

    /// Task `task` dies at chunk `c`. On a path its object returns to the
    /// source pool immediately. Elsewhere it is counted once, however many
    /// faults hit it: under the gate its tombstone keeps flowing so
    /// downstream joins keep draining, and a dynamic tree frees its
    /// admission slot.
    fn drop_task(&mut self, c: usize, task: usize, now: f64) {
        let tree = &mut self.trees[self.stations[c].tree];
        match tree.routing {
            Routing::Path => {
                tree.dropped += 1;
                self.remaining -= 1;
                tree.pool += 1;
                // A drop at the source is already inside the source's pump.
                self.recycled |= c != tree.source;
            }
            Routing::Gate => {
                self.remaining -= usize::from(tree.kill(task));
                self.forward(c, task, now);
            }
            Routing::Dispatch(_) => {
                if tree.kill(task) {
                    self.remaining -= 1;
                    tree.pool += 1;
                }
            }
        }
    }

    /// Hands `task`, finished (or tombstoned) at chunk `c`, downstream; at
    /// the sink, retires it and re-arms the source with its object.
    fn forward(&mut self, c: usize, task: usize, now: f64) {
        let succ = self.stations[c].succ.clone();
        let tree = &mut self.trees[self.stations[c].tree];
        let (path, tele) = (matches!(tree.routing, Routing::Path), tree.tele_counters);
        if succ.is_empty() {
            tree.pool += 1;
            if tele {
                self.counters[c].sample_queue_depth(tree.pool);
            }
            let (ti, source) = (self.stations[c].tree, tree.source);
            if path || !tree.dead[task] {
                self.complete(ti, task, now);
            }
            self.pump(source, now);
            return;
        }
        for i in succ {
            let s = self.succ[i];
            let st = &mut self.stations[s];
            if path {
                self.rings[st.ring + ((st.fifo_head + st.queued) & st.mask)] = task;
            } else {
                if st.stride != 1 && task % st.stride != st.next_seq % st.stride {
                    continue; // another replica's task
                }
                let slot = st.ring + (task & st.mask);
                self.rings[slot] += 1;
                if self.rings[slot] != st.required {
                    continue; // a join still waiting on a sibling
                }
            }
            st.queued += 1;
            if tele {
                self.counters[c].sample_queue_depth(st.queued);
            }
            self.pump(s, now);
        }
    }

    /// Retires `task` of tree `ti` as completed at `now`.
    fn complete(&mut self, ti: usize, task: usize, now: f64) {
        let tree = &mut self.trees[ti];
        tree.times[task].1 = now;
        tree.completed += 1;
        self.remaining -= 1;
        self.last_completion = self.last_completion.max(now);
    }

    /// Admits tasks into dynamic tree `ti`'s free slots, then places its
    /// ready list in order onto idle, surviving stations until the head
    /// finds none. A stage whose kernel errors drops its task before
    /// placement; the slot it frees admits at the next event.
    // Out of line, like `release`, so the static event loop that inlines
    // its callers stays small.
    #[inline(never)]
    fn dispatch(&mut self, ti: usize, now: f64) {
        let tree = &mut self.trees[ti];
        let Routing::Dispatch(d) = &mut tree.routing else {
            unreachable!("only dynamic trees dispatch");
        };
        while tree.started < tree.total && tree.pool > 0 {
            tree.times.push((now, f64::NAN));
            let sources = (0..d.stages).filter(|&s| d.dag.pred[s] == 0);
            d.ready.extend(sources.map(|s| (tree.started, s)));
            tree.started += 1;
            tree.pool -= 1;
        }
        loop {
            let tree = &mut self.trees[ti];
            let Routing::Dispatch(d) = &mut tree.routing else {
                unreachable!("only dynamic trees dispatch");
            };
            let Some(&(task, stage)) = d.ready.front() else {
                return;
            };
            if tree.dead[task] {
                // A sibling stage already killed this task.
                d.ready.pop_front();
                continue;
            }
            let (base, n) = (tree.base, tree.chunks);
            let error = self.faults.and_then(|f| f.stage_fault(None, task, stage));
            if matches!(error, Some(StageFaultKind::Error)) {
                d.ready.pop_front();
                tree.faults_fired += 1;
                // A dynamic drop has no site; any station names the tree.
                self.drop_task(base, task, now);
                continue;
            }
            // Lost stations leave the idle set: placement routes around them.
            let stations = &self.stations;
            let mut idle =
                (base..base + n).filter(|&c| stations[c].busy.is_none() && now < stations[c].loss);
            let pick = match d.policy {
                DynamicPolicy::Fifo => idle.next(),
                DynamicPolicy::BestFit => {
                    let isolated = &d.isolated[stage * n..];
                    idle.min_by(|&a, &b| isolated[a - base].total_cmp(&isolated[b - base]))
                }
            };
            let Some(c) = pick else {
                return;
            };
            d.ready.pop_front();
            self.start_stage(c, task, stage, now);
        }
    }

    /// What a finished visit does on a dynamic tree: release the task's
    /// successor stages, and complete it after its last (a dead task's
    /// results are discarded).
    #[inline(never)]
    fn release(&mut self, ti: usize, fin: InFlight, now: f64) {
        let tree = &mut self.trees[ti];
        let Routing::Dispatch(d) = &mut tree.routing else {
            unreachable!("only dynamic trees release stages");
        };
        if tree.dead[fin.task] {
            return;
        }
        d.left[fin.task] -= 1;
        for succ in bits(d.dag.succ[fin.stage]) {
            let waiting = &mut d.waiting[fin.task * d.stages + succ];
            *waiting -= 1;
            if *waiting == 0 {
                let ready = (fin.task, succ);
                let at = d.ready.iter().position(|&e| e > ready);
                d.ready.insert(at.unwrap_or(d.ready.len()), ready);
            }
        }
        if d.left[fin.task] == 0 {
            tree.pool += 1;
            self.complete(ti, fin.task, now);
        }
    }

    /// Where tree `ti`'s next work comes from after an event at station
    /// `c`: a dynamic tree admits and places; a static chunk pumps its own
    /// queue (a lost one drains it as drops), and objects a path's drops
    /// recycled re-arm its source.
    fn serve(&mut self, ti: usize, c: usize, now: f64, dynamic: bool) {
        if dynamic {
            return self.dispatch(ti, now);
        }
        self.pump(c, now);
        while self.recycled {
            self.recycled = false;
            self.pump(self.trees[ti].source, now);
        }
    }

    /// The event set ran dry with work left, which only a dynamic tree
    /// that lost every station can reach: each task neither finished nor
    /// dropped strands, admitted or not.
    fn strand(&mut self) {
        for tree in &mut self.trees {
            let stranded = tree.total - tree.completed - tree.dropped;
            let dynamic = matches!(tree.routing, Routing::Dispatch(_));
            assert!(stranded == 0 || dynamic, "static pipelines cannot deadlock");
            debug_assert!(self.faults.is_some() || stranded == 0, "clean run stranded");
            (tree.started, tree.dropped) = (tree.total, tree.total - tree.completed);
            tree.faults_fired += stranded as u32;
        }
        self.remaining = 0;
    }

    fn run(&mut self) {
        for ti in 0..self.trees.len() {
            let dynamic = matches!(self.trees[ti].routing, Routing::Dispatch(_));
            self.serve(ti, self.trees[ti].source, 0.0, dynamic);
        }
        while self.remaining > 0 {
            let Some((now, c)) = self.events.pop() else {
                return self.strand();
            };
            let inflight = self.stations[c].busy.expect("event implies busy chunk");
            let ti = self.stations[c].tree;
            let visit_stages = self.stations[c].visit_stages;
            // The PU died mid-service at `now` (its loss instant), or the
            // visit's next stage errors out.
            let dies = std::mem::take(&mut self.stations[c].doomed)
                || (inflight.stage + 1 < visit_stages
                    && matches!(
                        self.stage_fault(c, inflight.task, inflight.stage + 1),
                        Some(StageFaultKind::Error)
                    ));
            if !dies && inflight.stage + 1 < visit_stages {
                // Next stage of the same visit; re-sample interference.
                self.start_stage(c, inflight.task, inflight.stage + 1, now);
                continue;
            }
            self.finish_span(c, now);
            // The routing decides what a finished visit does and where the
            // tree's next work comes from.
            let dynamic = matches!(self.trees[ti].routing, Routing::Dispatch(_));
            if dies {
                self.trees[ti].faults_fired += 1;
                self.drop_task(c, inflight.task, now);
            } else if dynamic {
                self.release(ti, inflight, now);
            } else {
                self.forward(c, inflight.task, now);
            }
            self.serve(ti, c, now, dynamic);
        }
    }

    /// One report per tree, in input order.
    fn reports(self) -> Vec<RunReport> {
        let Forest {
            trees,
            busy_spans,
            counters,
            ..
        } = self;
        trees
            .into_iter()
            .map(|t| {
                let chunks = t.base..t.base + t.chunks;
                let counters = t.tele_counters.then(|| &counters[chunks.clone()]);
                t.report(&busy_spans[chunks], counters)
            })
            .collect()
    }
}

/// Runs `views` as one forest and returns its per-tree reports plus the
/// instant of the last completion.
fn run_forest<'a>(
    soc: &'a SocSpec,
    views: &[TreeView<'a>],
    faults: Option<&'a FaultSpec>,
) -> Result<(Vec<RunReport>, f64), SocError> {
    let mut forest = Forest::plan(soc, views, faults)?;
    forest.run();
    let last_completion = forest.last_completion;
    Ok((forest.reports(), last_completion))
}

/// Runs a one-tree forest.
fn run_tree(
    soc: &SocSpec,
    view: TreeView<'_>,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, SocError> {
    let (mut reports, _) = run_forest(soc, &[view], faults)?;
    Ok(reports.pop().expect("one tree, one report"))
}

/// One lane of a batch of runs: the seed of its noise stream plus an
/// optional fault plan.
#[derive(Debug, Clone, Default)]
pub struct DesSeedSpec {
    /// Seed for this lane's measurement-noise stream (overrides
    /// [`RunConfig::seed`]).
    pub seed: u64,
    /// Fault plan injected into this lane, if any.
    pub faults: Option<FaultSpec>,
}

impl DesSeedSpec {
    /// A clean (fault-free) lane with the given seed.
    pub fn new(seed: u64) -> DesSeedSpec {
        DesSeedSpec { seed, faults: None }
    }

    /// A faulted lane: `seed` for noise, `faults` injected.
    pub fn with_faults(seed: u64, faults: FaultSpec) -> DesSeedSpec {
        DesSeedSpec {
            seed,
            faults: Some(faults),
        }
    }
}

/// Simulates pipelined execution of one chunk DAG on `soc`, optionally
/// under the perturbations in `faults` (see the module docs for their
/// semantics). This is the single-pipeline entry for every shape.
///
/// A spec whose edges are exactly `i → i+1` with no replica groups
/// ([`DagPipelineSpec::chain`]) runs as a path: FIFO queues, and a
/// dropped task recycles at once. Any other shape runs under the in-order
/// gate: sibling branches and replica chunks execute concurrently and
/// charge each other interference through the shared busy set, while
/// joins and replica merges serve strictly in task order.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] for empty chunks/stages/tasks,
/// [`SocError::MissingPu`] for unknown PU classes, and
/// [`SocError::BadDag`] for structurally invalid graphs (cycles, multiple
/// sources or sinks, malformed replica groups) and for a graph of more than
/// [`MAX_STAGES`] chunks that is not the path `0 → 1 → …` in edge order.
pub fn simulate_dag(
    soc: &SocSpec,
    spec: &DagPipelineSpec,
    cfg: &RunConfig,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, SocError> {
    let view = TreeView {
        chunks: &spec.chunks,
        cfg,
        edges: Some(&spec.edges),
        replica_groups: &spec.replica_groups,
        dispatch: None,
    };
    run_tree(soc, view, faults)
}

/// Simulates `tenants` co-running on `soc` in one shared virtual
/// timeline, optionally under the perturbations in `faults`.
///
/// Every tenant runs its own pipeline (own task stream, buffers, warmup
/// window, and noise stream seeded from its `cfg.seed`), while service
/// times are priced against the union busy-set of *all* tenants' chunks —
/// this is the co-location interference the admission policies in
/// `bt-faults` reason about. Fault specs address chunks by their index in
/// the flattened global chunk list (tenant 0's chunks first, then tenant
/// 1's, …); task indices are tenant-local.
///
/// Determinism: bit-replayable per (tenant set, seed vector) — two calls
/// with identical inputs produce identical reports, and a single-tenant
/// call is bit-identical to [`simulate_dag`] over the same chunks and
/// edges.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] if `tenants` is empty or any
/// tenant has no chunks, a stageless chunk, or `cfg.tasks == 0`;
/// [`SocError::MissingPu`] if any chunk names a PU class the device
/// lacks; [`SocError::BadDag`] if a tenant's explicit edge set is
/// malformed (out of range, cyclic, or without a unique source/sink) or,
/// when it is not the path in edge order, spans more than [`MAX_STAGES`]
/// chunks.
pub fn simulate_multi(
    soc: &SocSpec,
    tenants: &[TenantSpec],
    faults: Option<&FaultSpec>,
) -> Result<MultiRunReport, SocError> {
    let views: Vec<TreeView> = tenants
        .iter()
        .map(|t| TreeView {
            chunks: &t.chunks,
            cfg: &t.cfg,
            edges: t.edges.as_deref(),
            replica_groups: &[],
            dispatch: None,
        })
        .collect();
    let (reports, last_completion) = run_forest(soc, &views, faults)?;
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let makespan_us = if completed > 0 { last_completion } else { 0.0 };
    let throughput_hz = if makespan_us > 0.0 {
        completed as f64 / (makespan_us / 1e6)
    } else {
        0.0
    };
    Ok(MultiRunReport {
        tenants: reports,
        makespan_us,
        throughput_hz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LoadContext;
    use crate::fault::{PuLoss, SlowdownRamp, StageFault, Straggler};
    use crate::{devices, InterferenceModel, RunStats, SocBuilder};
    use bt_telemetry::TelemetryConfig;

    fn noiseless() -> RunConfig {
        RunConfig {
            tasks: 30,
            warmup: 5,
            seed: 1,
            noise_sigma: 0.0,
            ..RunConfig::default()
        }
    }

    /// A short noisy run on its own seed (the co-run tests' default).
    fn seeded(seed: u64) -> RunConfig {
        RunConfig {
            tasks: 20,
            warmup: 4,
            seed,
            ..RunConfig::default()
        }
    }

    fn stage(flops: f64) -> WorkProfile {
        WorkProfile::new(flops, flops / 4.0)
    }

    /// `chunks` as a chain: a path in slice order.
    fn run_chain(
        soc: &SocSpec,
        chunks: &[ChunkSpec],
        cfg: &RunConfig,
        faults: Option<&FaultSpec>,
    ) -> Result<RunReport, SocError> {
        simulate_dag(soc, &DagPipelineSpec::chain(chunks.to_vec()), cfg, faults)
    }

    /// Clean-run stats, panicking if the run degraded.
    fn stats(soc: &SocSpec, chunks: &[ChunkSpec], cfg: &RunConfig) -> RunStats {
        run_chain(soc, chunks, cfg, None)
            .expect("simulates")
            .expect_stats()
            .clone()
    }

    /// A three-chunk path with a two-stage head.
    fn fault_chunks() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ]
    }

    fn chain_a() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ]
    }

    fn chain_b() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::LittleCpu, vec![stage(2e6)]),
        ]
    }

    fn diamond_edges() -> Vec<(usize, usize)> {
        vec![(0, 1), (0, 2), (1, 3), (2, 3)]
    }

    /// Diamond: 0 → {1, 2} → 3.
    fn diamond(mid: f64) -> DagPipelineSpec {
        DagPipelineSpec::new(
            vec![
                ChunkSpec::new(PuClass::BigCpu, vec![stage(5e6)]),
                ChunkSpec::new(PuClass::MediumCpu, vec![stage(mid)]),
                ChunkSpec::new(PuClass::Gpu, vec![stage(mid)]),
                ChunkSpec::new(PuClass::LittleCpu, vec![stage(4e6)]),
            ],
            diamond_edges(),
        )
    }

    fn error_at(chunk: usize, task: usize, stage: usize) -> StageFault {
        StageFault {
            chunk,
            task,
            stage,
            kind: StageFaultKind::Error,
        }
    }

    /// The end of the last recorded span of a clean timeline run.
    fn clean_end(soc: &SocSpec, spec: &DagPipelineSpec) -> f64 {
        let cfg = RunConfig {
            record_timeline: true,
            ..noiseless()
        };
        let base = simulate_dag(soc, spec, &cfg, None).unwrap();
        base.timeline.iter().map(|e| e.end_us).fold(0.0, f64::max)
    }

    // ------------------------- validation --------------------------

    /// Every malformed input against every entry point that can express
    /// it: a chain or DAG spec with and without replica groups
    /// (`simulate_dag`), and a tenant forest (`simulate_multi`, the
    /// malformed tree placed second).
    #[test]
    fn malformed_inputs_are_rejected_by_every_entry_point() {
        let verdict = |r: Result<(), SocError>| match r {
            Err(SocError::EmptySimulation) => "empty",
            Err(SocError::MissingPu(PuClass::LittleCpu)) => "missing little",
            Err(SocError::BadDag { .. }) => "bad dag",
            other => panic!("unexpected {other:?}"),
        };
        let check = |what: &str,
                     soc: &SocSpec,
                     chunks: Vec<ChunkSpec>,
                     cfg: RunConfig,
                     edges: Option<Vec<(usize, usize)>>,
                     groups: Vec<Vec<usize>>,
                     want: &str| {
            let mut spec = match &edges {
                Some(e) => DagPipelineSpec::new(chunks.clone(), e.clone()),
                None => DagPipelineSpec::chain(chunks.clone()),
            };
            spec.replica_groups = groups.clone();
            let got = simulate_dag(soc, &spec, &cfg, None).map(drop);
            assert_eq!(verdict(got), want, "simulate_dag: {what}");
            if groups.is_empty() {
                let mut bad = TenantSpec::new("bad", chunks, cfg);
                bad.edges = edges;
                let good = TenantSpec::new("good", chain_a(), noiseless());
                let got = simulate_multi(soc, &[good, bad], None).map(drop);
                assert_eq!(verdict(got), want, "simulate_multi: {what}");
            }
        };
        let pixel = devices::pixel_7a();
        let jetson = devices::jetson_orin_nano(); // no little cluster
        let four = |pu: PuClass| -> Vec<ChunkSpec> {
            (0..4)
                .map(|_| ChunkSpec::new(pu, vec![stage(1e6)]))
                .collect()
        };
        let big = PuClass::BigCpu;
        let zero_tasks = RunConfig {
            tasks: 0,
            ..noiseless()
        };
        let (ok, none) = (noiseless, Vec::new);
        check("no chunks", &pixel, vec![], ok(), None, none(), "empty");
        let stageless = vec![ChunkSpec::new(big, vec![])];
        check("no stages", &pixel, stageless, ok(), None, none(), "empty");
        check(
            "no tasks",
            &pixel,
            four(big),
            zero_tasks,
            None,
            none(),
            "empty",
        );
        let little = four(PuClass::LittleCpu);
        check("PU", &jetson, little, ok(), None, none(), "missing little");
        // Malformed graphs over four chunks: (what, edges, replica groups).
        let chain = vec![(0, 1), (1, 2), (2, 3)];
        type Edges = Vec<(usize, usize)>;
        let graphs: [(&str, Edges, Vec<Vec<usize>>); 10] = [
            ("edge out of range", vec![(0, 9)], vec![]),
            ("self-loop", vec![(0, 1), (1, 1), (1, 2), (2, 3)], vec![]),
            ("cycle", vec![(0, 1), (1, 2), (2, 1), (2, 3)], vec![]),
            ("two sources", vec![(0, 2), (1, 2), (2, 3)], vec![]),
            ("two sinks", vec![(0, 1), (1, 2), (1, 3)], vec![]),
            ("replica group of one", diamond_edges(), vec![vec![1]]),
            ("replica is not a chunk", diamond_edges(), vec![vec![1, 7]]),
            ("replicated sink", diamond_edges(), vec![vec![2, 3]]),
            (
                "two groups share a chunk",
                diamond_edges(),
                vec![vec![1, 2], vec![2, 1]],
            ),
            (
                "replicas with different neighbours",
                chain,
                vec![vec![1, 2]],
            ),
        ];
        for (what, edges, groups) in graphs {
            check(
                what,
                &pixel,
                four(big),
                ok(),
                Some(edges),
                groups,
                "bad dag",
            );
        }
        // Past the cap a graph that is not the path in edge order is
        // refused, while a chain spec of any length routes as a path.
        let wide: Vec<ChunkSpec> = (0..65)
            .map(|_| ChunkSpec::new(big, vec![stage(1e6)]))
            .collect();
        let fork_join = (1..64).flat_map(|c| [(0, c), (c, 64)]).collect();
        check(
            "65 chunks",
            &pixel,
            wide,
            ok(),
            Some(fork_join),
            none(),
            "bad dag",
        );
        let long: Vec<ChunkSpec> = (0..100)
            .map(|_| ChunkSpec::new(big, vec![stage(1e6)]))
            .collect();
        let r = simulate_dag(&pixel, &DagPipelineSpec::chain(long), &noiseless(), None).unwrap();
        assert_eq!(r.completed, noiseless().total_tasks());
        assert!(matches!(
            simulate_multi(&pixel, &[], None),
            Err(SocError::EmptySimulation)
        ));
    }

    // -------------------- entry points build the right view --------------------

    #[test]
    fn single_tenant_is_bit_identical_to_simulate() {
        let soc = devices::pixel_7a();
        let run = RunConfig {
            record_timeline: true,
            telemetry: TelemetryConfig::full(),
            ..seeded(42)
        };
        let solo = run_chain(&soc, &chain_a(), &run, None).unwrap();
        let tenant = TenantSpec::new("solo", chain_a(), run.clone());
        let multi = simulate_multi(&soc, &[tenant], None).unwrap();
        assert_eq!(multi.tenants.len(), 1);
        // Float bit-identity via exact debug formatting of both reports.
        assert_eq!(format!("{:?}", multi.tenants[0]), format!("{solo:?}"));
    }

    #[test]
    fn chain_edges_behave_like_no_edges() {
        let soc = devices::pixel_7a();
        let run = RunConfig {
            noise_sigma: 0.02,
            record_timeline: true,
            ..seeded(17)
        };
        let implicit = TenantSpec::new("t", chain_a(), run.clone());
        let explicit = implicit.clone().with_edges(vec![(0, 1)]);
        let implicit = simulate_multi(&soc, &[implicit], None).unwrap();
        let explicit = simulate_multi(&soc, &[explicit], None).unwrap();
        assert_eq!(format!("{implicit:?}"), format!("{explicit:?}"));
    }

    // ------------------------- steady-state behaviour --------------------------

    #[test]
    fn single_chunk_matches_serial_sum() {
        let soc = devices::jetson_orin_nano();
        let stages = vec![stage(1e7), stage(2e7), stage(5e6)];
        let chunks = [ChunkSpec::new(PuClass::BigCpu, stages.clone())];
        let report = stats(&soc, &chunks, &noiseless());
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let serial: f64 = stages
            .iter()
            .map(|w| cost::latency(w, pu, &soc, &LoadContext::isolated()).as_f64())
            .sum();
        let per_task = report.time_per_task.as_f64();
        assert!(
            (per_task - serial).abs() / serial < 0.02,
            "per-task {per_task} vs serial {serial}"
        );
    }

    #[test]
    fn two_balanced_chunks_double_throughput() {
        let soc = devices::jetson_orin_nano();
        // Two equal compute-bound stages; no interference model coupling
        // beyond DVFS, which for Jetson slows CPUs ~1.33x under load.
        let one = [ChunkSpec::new(
            PuClass::BigCpu,
            vec![stage(2e7), stage(2e7)],
        )];
        let two = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(2e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(2e7)]),
        ];
        let serial = stats(&soc, &one, &noiseless());
        let piped = stats(&soc, &two, &noiseless());
        assert!(
            piped.time_per_task < serial.time_per_task,
            "pipelining should raise throughput: {} vs {}",
            piped.time_per_task,
            serial.time_per_task
        );
    }

    #[test]
    fn bottleneck_chunk_has_highest_utilization() {
        let soc = devices::jetson_orin_nano();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(5e7)]), // heavy
            ChunkSpec::new(PuClass::Gpu, vec![stage(1e6)]),    // light
        ];
        let report = stats(&soc, &chunks, &noiseless());
        assert_eq!(report.bottleneck_chunk, 0);
        assert!(report.chunk_utilization[0] > report.chunk_utilization[1]);
    }

    #[test]
    fn throughput_consistent_with_time_per_task() {
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(1e7)]),
        ];
        let r = stats(&soc, &chunks, &noiseless());
        let expect = 1e6 / r.time_per_task.as_f64();
        assert!((r.throughput_hz - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        // A path and a fork/join with a replica group.
        let soc = devices::pixel_7a();
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 42,
            record_timeline: true,
            ..noiseless()
        };
        for spec in [
            DagPipelineSpec::chain(chain_a()),
            diamond(8e6).with_replica_group(vec![1, 2]),
        ] {
            let a = simulate_dag(&soc, &spec, &cfg, None).unwrap();
            let b = simulate_dag(&soc, &spec, &cfg, None).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let reseeded = RunConfig {
                seed: 43,
                ..cfg.clone()
            };
            let c = simulate_dag(&soc, &spec, &reseeded, None).unwrap();
            assert_ne!(
                a.expect_stats().makespan.as_f64(),
                c.expect_stats().makespan.as_f64()
            );
        }
    }

    #[test]
    fn mean_task_latency_at_least_time_per_task() {
        // Residence time includes queueing, so it can't be below the
        // steady-state inter-departure time in a balanced pipeline.
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(9e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(1.1e7)]),
        ];
        let r = stats(&soc, &chunks, &noiseless());
        assert!(r.mean_task_latency.as_f64() >= 0.9 * r.time_per_task.as_f64());
    }

    #[test]
    fn zero_warmup_agrees_with_warmed_measurement() {
        // Departure-to-departure windows make the steady-state estimate
        // independent of warmup in a noiseless simulation. Before the
        // window fix, warmup == 0 anchored at the first *entry* and
        // divided by `tasks`, charging the pipeline-fill transient to
        // every task.
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(9e6)]),
        ];
        let warm = stats(&soc, &chunks, &noiseless());
        let cold_cfg = RunConfig {
            warmup: 0,
            ..noiseless()
        };
        let cold = stats(&soc, &chunks, &cold_cfg);
        let (a, b) = (warm.time_per_task.as_f64(), cold.time_per_task.as_f64());
        assert!(
            (a - b).abs() / a < 1e-6,
            "warmup=5 gives {a} µs/task but warmup=0 gives {b}"
        );
    }

    #[test]
    fn a_single_task_run_measures_its_own_residence() {
        // One completion: the window is that task's entry → exit, as on
        // the host, so the makespan is its latency exactly.
        let cfg = RunConfig {
            tasks: 1,
            warmup: 0,
            ..seeded(3)
        };
        let r = stats(&devices::pixel_7a(), &chain_a(), &cfg);
        assert_eq!(r.tasks, 1);
        assert_eq!(r.makespan, r.mean_task_latency);
        assert_eq!(r.time_per_task, r.makespan);
    }

    #[test]
    fn utilization_clipped_to_window_stays_bounded() {
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(3e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(1e6)]),
        ];
        for warmup in [0, 1, 5] {
            let cfg = RunConfig {
                warmup,
                ..noiseless()
            };
            let r = stats(&soc, &chunks, &cfg);
            for (i, u) in r.chunk_utilization.iter().enumerate() {
                assert!(
                    (0.0..=1.0).contains(u),
                    "warmup={warmup} chunk{i} utilization {u} out of bounds"
                );
            }
            // The heavy chunk saturates its window.
            assert!(r.chunk_utilization[0] > 0.9);
        }
    }

    #[test]
    fn interference_raises_pipeline_cost_vs_isolated_sum() {
        // On the Pixel, two concurrently busy CPU chunks slow each other
        // down (DVFS 1.3x), so the pipeline's bottleneck exceeds the
        // isolated latency of the heavier chunk.
        let soc = devices::pixel_7a();
        let heavy = stage(2e7);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let iso = cost::latency(&heavy, pu, &soc, &LoadContext::isolated()).as_f64();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![heavy.clone()]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(1.9e7)]),
        ];
        let r = stats(&soc, &chunks, &noiseless());
        assert!(
            r.time_per_task.as_f64() > iso * 1.1,
            "contended bottleneck {} should exceed isolated {}",
            r.time_per_task.as_f64(),
            iso
        );
    }

    // ------------------------- telemetry and the memo --------------------------

    #[test]
    fn telemetry_mirrors_run_structure() {
        let soc = devices::pixel_7a();
        let cfg = RunConfig {
            telemetry: TelemetryConfig::full(),
            ..noiseless()
        };
        let total = (cfg.tasks + cfg.warmup) as u64;
        // A path (2 + 1 stages) and a diamond (4 single-stage chunks).
        for (spec, chunks, stages, path) in [
            (DagPipelineSpec::chain(chain_a()), 2, 3, true),
            (diamond(6e6), 4, 4, false),
        ] {
            let r = simulate_dag(&soc, &spec, &cfg, None).unwrap();
            let tele = r.telemetry.expect("telemetry enabled");
            assert_eq!(tele.source, "des");
            assert_eq!(tele.dispatchers.len(), chunks);
            for d in &tele.dispatchers {
                assert_eq!(d.tasks, total);
                // Queue depth is sampled by whichever chunk makes a task
                // ready downstream: every path chunk, but at a join only
                // the branch that delivers last.
                assert!(d.queue_samples == total || !path);
            }
            assert_eq!(tele.dispatchers[chunks - 1].queue_samples, total);
            // One span per (chunk, stage, task).
            assert_eq!(tele.spans.len(), stages * total as usize);
            // Timeline stays empty unless record_timeline was requested.
            assert!(r.timeline.is_empty());

            let off = simulate_dag(&soc, &spec, &noiseless(), None).unwrap();
            assert!(off.telemetry.is_none());
        }
    }

    #[test]
    fn every_tenant_reports_its_own_telemetry() {
        let soc = devices::pixel_7a();
        let counted = RunConfig {
            telemetry: TelemetryConfig::full(),
            ..seeded(3)
        };
        let tenants = [
            TenantSpec::new("a", chain_a(), counted.clone()),
            TenantSpec::new("off", chain_b(), seeded(4)),
            TenantSpec::new(
                "b",
                chain_b(),
                RunConfig {
                    tasks: 9,
                    ..counted
                },
            ),
        ];
        // Tenant a's tail chunk (global 1) errors once.
        let faults = FaultSpec {
            stage_faults: vec![error_at(1, 6, 0)],
            ..FaultSpec::default()
        };
        let run = simulate_multi(&soc, &tenants, Some(&faults)).unwrap();
        assert!(run.tenants[1].telemetry.is_none(), "OFF stays off");
        for (i, served_by_head) in [(0, 24), (2, 13)] {
            let r = &run.tenants[i];
            let tele = r.telemetry.as_ref().expect("telemetry enabled");
            assert_eq!(tele.source, "des");
            // Labels and span tracks are tenant-local.
            let labels: Vec<&str> = tele.dispatchers.iter().map(|d| d.label.as_str()).collect();
            assert_eq!(labels, ["chunk0", "chunk1"]);
            assert!(tele.spans.iter().all(|s| s.track < 2));
            // The head serves every submitted task, the tail every
            // completed one (the errored task never occupies it).
            assert_eq!(tele.dispatchers[0].tasks, served_by_head);
            assert_eq!(r.submitted, served_by_head);
            assert_eq!(tele.dispatchers[1].tasks, r.completed);
        }
        assert_eq!(run.tenants[0].dropped, 1);
        assert_eq!(run.tenants[2].dropped, 0);
    }

    #[test]
    fn service_cache_is_bit_identical_to_uncached() {
        // One path, and a forest (path + fork/join, 6 chunks) on a device
        // whose cross-tenant penalty makes foreign co-runners cost more
        // than the tree's own: the key must still determine the priced
        // co-runner set.
        let soc = devices::pixel_7a();
        let hostile = SocBuilder::new("xt-cache")
            .pu(crate::PuSpec::new(PuClass::BigCpu, "big", 4, 2.0).with_mem_bw_gbs(8.0))
            .pu(crate::PuSpec::new(PuClass::MediumCpu, "med", 4, 1.5).with_mem_bw_gbs(8.0))
            .pu(crate::PuSpec::new(PuClass::LittleCpu, "little", 4, 1.0).with_mem_bw_gbs(8.0))
            .pu(crate::PuSpec::new(PuClass::Gpu, "gpu", 8, 1.0).with_mem_bw_gbs(8.0))
            .dram_bw_gbs(10.0)
            .interference(InterferenceModel::calibrated([], 1.0).with_cross_tenant_penalty(2.0))
            .build()
            .unwrap();
        let cached = RunConfig {
            noise_sigma: 0.05,
            seed: 9,
            record_timeline: true,
            ..noiseless()
        };
        let uncached = RunConfig {
            service_cache: false,
            ..cached.clone()
        };
        let a = run_chain(&soc, &fault_chunks(), &cached, None).unwrap();
        let b = run_chain(&soc, &fault_chunks(), &uncached, None).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));

        let mem_heavy = |c: &ChunkSpec| ChunkSpec::new(c.pu, vec![WorkProfile::new(1e6, 4e6)]);
        let forest = |cfg: &RunConfig| {
            let d = diamond(1e6);
            [
                TenantSpec::new(
                    "path",
                    chain_a().iter().map(mem_heavy).collect(),
                    cfg.clone(),
                ),
                TenantSpec::new(
                    "fork",
                    d.chunks.iter().map(mem_heavy).collect(),
                    cfg.clone(),
                )
                .with_edges(d.edges),
            ]
        };
        let a = simulate_multi(&hostile, &forest(&cached), None).unwrap();
        let b = simulate_multi(&hostile, &forest(&uncached), None).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    // ------------------------- fault injection --------------------------

    #[test]
    fn none_faults_is_bit_identical_to_empty_spec() {
        // The `None` fast path skips every fault lookup; the empty-spec
        // path walks them and multiplies by 1.0. Both must consume the
        // noise stream identically and report identical numbers.
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 9,
            record_timeline: true,
            telemetry: TelemetryConfig::full(),
            ..noiseless()
        };
        let plain = run_chain(&soc, &chunks, &cfg, None).unwrap();
        let empty = FaultSpec::none();
        let faulted = run_chain(&soc, &chunks, &cfg, Some(&empty)).unwrap();
        assert_eq!(faulted.submitted, u64::from(cfg.tasks + cfg.warmup));
        assert_eq!(faulted.completed, faulted.submitted);
        assert_eq!(faulted.faults_fired, 0);
        assert!(!faulted.is_degraded());
        assert_eq!(format!("{faulted:?}"), format!("{plain:?}"));
    }

    /// Two workers simulating one fresh noise lane race to build its
    /// table entry; both runs, and a third on the warm lane, report the
    /// same to the bit. 200 tasks over 4 stages draw past the shared
    /// prefix into each tree's live stream.
    #[test]
    fn racing_first_touches_of_a_lane_report_identically() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let cfg = RunConfig {
            tasks: 200,
            noise_sigma: 0.05,
            seed: 0x5eed_0000_0054,
            ..noiseless()
        };
        let run = || format!("{:?}", run_chain(&soc, &chunks, &cfg, None).unwrap());
        let raced = crate::parallel::fan_out(2, true, |_| run());
        assert_eq!(raced[0], raced[1]);
        assert_eq!(run(), raced[0]);
    }

    #[test]
    fn slowdown_ramp_inflates_time_per_task() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let base = stats(&soc, &chunks, &noiseless());
        let spec = FaultSpec {
            slowdowns: vec![SlowdownRamp {
                class: PuClass::BigCpu,
                start_us: 0.0,
                ramp_us: 0.0,
                factor: 3.0,
            }],
            ..FaultSpec::default()
        };
        let r = run_chain(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        let r = r.expect_stats();
        assert!(
            r.time_per_task.as_f64() > base.time_per_task.as_f64() * 1.5,
            "throttled {} vs base {}",
            r.time_per_task,
            base.time_per_task
        );
    }

    #[test]
    fn straggler_fires_once_and_completes_everything() {
        // On a path chunk and on a fork/join branch (where the stalled
        // branch stalls the join).
        let soc = devices::pixel_7a();
        for (spec, chunk) in [
            (DagPipelineSpec::chain(fault_chunks()), 1),
            (diamond(8e6), 2),
        ] {
            let fault = FaultSpec {
                stragglers: vec![Straggler {
                    chunk,
                    task: 7,
                    factor: 20.0,
                }],
                ..FaultSpec::default()
            };
            let base = simulate_dag(&soc, &spec, &noiseless(), None).unwrap();
            let r = simulate_dag(&soc, &spec, &noiseless(), Some(&fault)).unwrap();
            assert_eq!(r.faults_fired, 1);
            assert_eq!(r.dropped, 0);
            assert_eq!(r.completed, r.submitted);
            assert!(r.expect_stats().makespan.as_f64() > base.expect_stats().makespan.as_f64());
        }
    }

    #[test]
    fn stage_error_drops_exactly_that_task() {
        // Mid-chunk on a path (the object recycles at once), and inside a
        // fork/join branch (the tombstone must cross the join: no
        // deadlock, conservation holds).
        let soc = devices::pixel_7a();
        for (spec, fault) in [
            (DagPipelineSpec::chain(fault_chunks()), error_at(0, 12, 1)),
            (diamond(8e6), error_at(1, 12, 0)),
        ] {
            let fault = FaultSpec {
                stage_faults: vec![fault],
                ..FaultSpec::default()
            };
            let r = simulate_dag(&soc, &spec, &noiseless(), Some(&fault)).unwrap();
            assert_eq!(r.dropped, 1);
            assert_eq!(r.completed, r.submitted - 1);
            assert!(r.is_degraded());
            assert!(r.stats.is_some());
        }
    }

    #[test]
    fn a_task_hit_by_two_faults_drops_once() {
        // Task 12 is in service on both branches of the diamond when the
        // GPU branch dies under it; the other branch then errors on the
        // same task. It was counted twice by the fork/join engine this
        // one replaced.
        let soc = devices::pixel_7a();
        let spec = DagPipelineSpec::new(
            vec![
                ChunkSpec::new(PuClass::BigCpu, vec![stage(5e6)]),
                ChunkSpec::new(PuClass::MediumCpu, vec![stage(6e6), stage(3e6)]),
                ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
                ChunkSpec::new(PuClass::LittleCpu, vec![stage(4e6)]),
            ],
            diamond_edges(),
        );
        let fault = FaultSpec {
            stage_faults: (0..35).map(|t| error_at(1, t, 1)).collect(),
            losses: vec![PuLoss {
                class: PuClass::Gpu,
                at_us: 0.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_dag(&soc, &spec, &noiseless(), Some(&fault)).unwrap();
        assert_eq!(r.submitted, 35);
        assert_eq!(r.completed, 0);
        assert_eq!(r.dropped, 35, "every task dies exactly once");
        assert!(r.faults_fired > 35, "both faults still fire");
    }

    #[test]
    fn stage_timeout_adds_its_delay() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let base = stats(&soc, &chunks, &noiseless());
        let extra = 5e4;
        let spec = FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 2,
                task: 15,
                stage: 0,
                kind: StageFaultKind::Timeout { extra_us: extra },
            }],
            ..FaultSpec::default()
        };
        let r = run_chain(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        assert_eq!(r.dropped, 0);
        assert_eq!(r.faults_fired, 1);
        let faulted = r.expect_stats();
        // The stall lands inside the measured window of the tail chunk, so
        // the makespan grows by at least most of the injected delay.
        assert!(
            faulted.makespan.as_f64() > base.makespan.as_f64() + 0.5 * extra,
            "timeout did not stretch the window: {} vs {}",
            faulted.makespan,
            base.makespan
        );
    }

    #[test]
    fn head_loss_at_time_zero_drops_everything() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let spec = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::BigCpu,
                at_us: 0.0,
            }],
            ..FaultSpec::default()
        };
        let r = run_chain(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.dropped, r.submitted);
        assert!(r.stats.is_none());
        assert!(r.is_degraded());
    }

    #[test]
    fn midrun_pu_loss_drains_and_degrades() {
        // The tail of a path, and one branch of a fork/join.
        let soc = devices::pixel_7a();
        for spec in [DagPipelineSpec::chain(fault_chunks()), diamond(8e6)] {
            let fault = FaultSpec {
                losses: vec![PuLoss {
                    class: PuClass::Gpu,
                    at_us: clean_end(&soc, &spec) / 2.0,
                }],
                ..FaultSpec::default()
            };
            let r = simulate_dag(&soc, &spec, &noiseless(), Some(&fault)).unwrap();
            assert!(r.completed > 0, "tasks before the loss should complete");
            assert!(r.dropped > 0, "tasks after the loss should drop");
            assert_eq!(r.completed + r.dropped, r.submitted);
            assert!(r.stats.is_some());
        }
    }

    #[test]
    fn faulted_runs_are_seed_deterministic() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 77,
            ..noiseless()
        };
        let spec = FaultSpec {
            slowdowns: vec![SlowdownRamp {
                class: PuClass::MediumCpu,
                start_us: 500.0,
                ramp_us: 1000.0,
                factor: 2.0,
            }],
            stage_faults: vec![error_at(0, 9, 0)],
            ..FaultSpec::default()
        };
        let a = run_chain(&soc, &chunks, &cfg, Some(&spec)).unwrap();
        let b = run_chain(&soc, &chunks, &cfg, Some(&spec)).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let other = run_chain(&soc, &chunks, &RunConfig { seed: 78, ..cfg }, Some(&spec)).unwrap();
        assert_ne!(
            a.expect_stats().makespan.as_f64(),
            other.expect_stats().makespan.as_f64()
        );
    }

    // ------------------------- forks, joins, replicas --------------------------

    #[test]
    fn parallel_branches_cut_task_latency() {
        // The same four chunks, forked vs linearized. With a deep object
        // pool both are backpressure-bound (Little's law pins residence
        // time to pool / throughput), so run one task at a time: the
        // latency then *is* the critical path, which the fork shortens by
        // overlapping the branches.
        let soc = devices::pixel_7a();
        let fork = diamond(8e6);
        let line = DagPipelineSpec::chain(fork.chunks.clone());
        let cfg = RunConfig {
            buffers: 1,
            ..noiseless()
        };
        let f = simulate_dag(&soc, &fork, &cfg, None).unwrap();
        let l = simulate_dag(&soc, &line, &cfg, None).unwrap();
        let (fs, ls) = (f.expect_stats(), l.expect_stats());
        assert!(
            fs.mean_task_latency.as_f64() < ls.mean_task_latency.as_f64(),
            "forked latency {} should beat linearized {}",
            fs.mean_task_latency,
            ls.mean_task_latency
        );
    }

    #[test]
    fn branch_overlap_is_priced_as_interference() {
        // Run the diamond with a heavy CPU branch pair: the busy set at
        // dispatch contains the sibling, so per-stage service exceeds the
        // isolated latency. Detect it via the timeline: sibling spans
        // overlap in virtual time.
        let soc = devices::pixel_7a();
        let spec = diamond(2e7);
        let cfg = RunConfig {
            record_timeline: true,
            ..noiseless()
        };
        let r = simulate_dag(&soc, &spec, &cfg, None).unwrap();
        let spans = |c: usize| -> Vec<(f64, f64)> {
            r.timeline
                .iter()
                .filter(|e| e.chunk == c)
                .map(|e| (e.start_us, e.end_us))
                .collect()
        };
        let (b1, b2) = (spans(1), spans(2));
        let overlap = b1
            .iter()
            .any(|&(s1, e1)| b2.iter().any(|&(s2, e2)| s1.max(s2) < e1.min(e2) - 1e-9));
        assert!(overlap, "sibling branches must actually run concurrently");
    }

    #[test]
    fn replica_group_scales_the_bottleneck() {
        let soc = devices::pixel_7a();
        let heavy = 3e7;
        // 0 → 1 → 2 with a dominant middle chunk…
        let plain = DagPipelineSpec::chain(vec![
            ChunkSpec::new(PuClass::LittleCpu, vec![stage(1e6)]),
            ChunkSpec::new(PuClass::BigCpu, vec![stage(heavy)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(2e6)]),
        ]);
        // …vs the same pipeline with the middle chunk replicated on
        // (BigCpu, Gpu), each replica serving alternate tasks.
        let replicated = DagPipelineSpec::new(
            vec![
                ChunkSpec::new(PuClass::LittleCpu, vec![stage(1e6)]),
                ChunkSpec::new(PuClass::BigCpu, vec![stage(heavy)]),
                ChunkSpec::new(PuClass::Gpu, vec![stage(heavy)]),
                ChunkSpec::new(PuClass::MediumCpu, vec![stage(2e6)]),
            ],
            diamond_edges(),
        )
        .with_replica_group(vec![1, 2]);
        let cfg = RunConfig {
            record_timeline: true,
            ..noiseless()
        };
        let p = simulate_dag(&soc, &plain, &cfg, None).unwrap();
        let r = simulate_dag(&soc, &replicated, &cfg, None).unwrap();
        assert_eq!(r.completed, r.submitted);
        // Member i serves exactly the tasks with seq % 2 == i.
        for e in r.timeline.iter().filter(|e| e.chunk == 1 || e.chunk == 2) {
            assert_eq!(e.task as usize % 2, e.chunk - 1, "{e:?}");
        }
        let (ps, rs) = (p.expect_stats(), r.expect_stats());
        assert!(
            rs.time_per_task.as_f64() < 0.75 * ps.time_per_task.as_f64(),
            "replication should scale the bottleneck: {} vs {}",
            rs.time_per_task,
            ps.time_per_task
        );
    }

    // ------------------------- co-running tenants --------------------------

    #[test]
    fn conservation_holds_per_tenant() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new("a", chain_a(), seeded(7)),
            TenantSpec::new(
                "b",
                chain_b(),
                RunConfig {
                    tasks: 13,
                    warmup: 2,
                    ..seeded(8)
                },
            ),
        ];
        let r = simulate_multi(&soc, &tenants, None).unwrap();
        for (t, spec) in r.tenants.iter().zip(&tenants) {
            assert_eq!(t.completed + t.dropped, t.submitted);
            assert_eq!(t.submitted, u64::from(spec.cfg.tasks + spec.cfg.warmup));
            assert_eq!(t.dropped, 0);
            assert!(t.stats.is_some());
        }
        assert!(r.makespan_us > 0.0);
        assert!(r.throughput_hz > 0.0);
    }

    #[test]
    fn co_runs_replay_bit_identically_per_seed() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new("a", chain_a(), seeded(11)),
            TenantSpec::new("b", chain_b(), seeded(12)),
        ];
        let x = simulate_multi(&soc, &tenants, None).unwrap();
        let y = simulate_multi(&soc, &tenants, None).unwrap();
        assert_eq!(format!("{x:?}"), format!("{y:?}"));

        let mut reseeded = tenants.clone();
        reseeded[1].cfg.seed = 99;
        let z = simulate_multi(&soc, &reseeded, None).unwrap();
        assert_ne!(
            x.tenants[1].expect_stats().makespan.as_f64(),
            z.tenants[1].expect_stats().makespan.as_f64()
        );
    }

    #[test]
    fn co_running_tenant_slows_the_other_down() {
        let soc = devices::pixel_7a();
        let run = RunConfig {
            noise_sigma: 0.0,
            ..seeded(1)
        };
        let solo = run_chain(&soc, &chain_a(), &run, None).unwrap();
        let co = simulate_multi(
            &soc,
            &[
                TenantSpec::new("a", chain_a(), run.clone()),
                TenantSpec::new("b", chain_b(), run.clone()),
            ],
            None,
        )
        .unwrap();
        let solo_tpt = solo.expect_stats().time_per_task.as_f64();
        let co_tpt = co.tenants[0].expect_stats().time_per_task.as_f64();
        assert!(
            co_tpt > solo_tpt,
            "co-location must cost throughput: {co_tpt} vs solo {solo_tpt}"
        );
    }

    #[test]
    fn fork_join_tenant_does_not_speed_up_its_neighbour() {
        // The forked tenant's sibling branches occupy two PUs at once, so
        // a co-runner sees at least the interference it sees next to the
        // chain version of the same tenant.
        let soc = devices::pixel_7a();
        let run = RunConfig {
            noise_sigma: 0.0,
            ..seeded(2)
        };
        let d = diamond(8e6);
        let victim_tpt = |neighbour: TenantSpec| {
            let victim = TenantSpec::new("victim", chain_b(), run.clone());
            let r = simulate_multi(&soc, &[neighbour, victim], None).unwrap();
            r.tenants[1].expect_stats().time_per_task.as_f64()
        };
        let chain = TenantSpec::new("t", d.chunks.clone(), run.clone());
        let fork = chain.clone().with_edges(d.edges.clone());
        let (chain_tpt, dag_tpt) = (victim_tpt(chain), victim_tpt(fork));
        assert!(
            dag_tpt > chain_tpt * 0.99,
            "branch concurrency should not make the co-runner faster: {dag_tpt} vs {chain_tpt}"
        );
    }

    #[test]
    fn cross_tenant_penalty_amplifies_co_run_cost() {
        // Memory-heavy stages on a low-bandwidth device so DRAM contention
        // dominates; the penalty scales only the cross-tenant demand.
        let model = InterferenceModel::calibrated([], 1.0);
        let build = |m: InterferenceModel| {
            SocBuilder::new("xt-test")
                .pu(crate::PuSpec::new(PuClass::BigCpu, "big", 4, 2.0).with_mem_bw_gbs(8.0))
                .pu(crate::PuSpec::new(PuClass::Gpu, "gpu", 8, 1.0).with_mem_bw_gbs(8.0))
                .dram_bw_gbs(10.0)
                .interference(m)
                .build()
                .unwrap()
        };
        let parity = build(model.clone());
        let hostile = build(model.with_cross_tenant_penalty(2.0));
        let tenant = |name: &str, pu: PuClass, seed: u64| {
            TenantSpec::new(
                name,
                vec![ChunkSpec::new(pu, vec![WorkProfile::new(1e6, 4e6)])],
                RunConfig {
                    noise_sigma: 0.0,
                    ..seeded(seed)
                },
            )
        };
        let tenants = [
            tenant("a", PuClass::BigCpu, 1),
            tenant("b", PuClass::Gpu, 2),
        ];
        let base = simulate_multi(&parity, &tenants, None).unwrap();
        let worse = simulate_multi(&hostile, &tenants, None).unwrap();
        assert!(
            worse.makespan_us > base.makespan_us,
            "penalty 2.0 must stretch the co-run: {} vs {}",
            worse.makespan_us,
            base.makespan_us
        );
    }

    #[test]
    fn faults_use_global_chunk_indices() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new("a", chain_a(), seeded(3)), // global chunks 0, 1
            TenantSpec::new("b", chain_b(), seeded(4)), // global chunks 2, 3
        ];
        // Straggle tenant b's first chunk (global index 2) and error one
        // task on tenant a's second chunk (global index 1).
        let spec = FaultSpec {
            stragglers: vec![Straggler {
                chunk: 2,
                task: 5,
                factor: 10.0,
            }],
            stage_faults: vec![error_at(1, 8, 0)],
            ..FaultSpec::default()
        };
        let r = simulate_multi(&soc, &tenants, Some(&spec)).unwrap();
        assert_eq!(r.tenants[0].dropped, 1);
        assert_eq!(r.tenants[0].faults_fired, 1);
        assert_eq!(r.tenants[1].dropped, 0);
        assert_eq!(r.tenants[1].faults_fired, 1);
        for t in &r.tenants {
            assert_eq!(t.completed + t.dropped, t.submitted);
        }
    }

    #[test]
    fn pu_loss_hits_every_tenant_on_that_class() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new(
                "a",
                vec![ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)])],
                seeded(5),
            ),
            TenantSpec::new(
                "b",
                vec![ChunkSpec::new(PuClass::BigCpu, vec![stage(9e6)])],
                seeded(6),
            ),
        ];
        let spec = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::BigCpu,
                at_us: 0.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_multi(&soc, &tenants, Some(&spec)).unwrap();
        for t in &r.tenants {
            assert_eq!(t.completed, 0);
            assert_eq!(t.dropped, t.submitted);
            assert!(t.stats.is_none());
        }
        assert_eq!(r.makespan_us, 0.0);
        assert_eq!(r.throughput_hz, 0.0);
    }
}
