//! Batched structure-of-arrays execution of the chain DES.
//!
//! Every sweep the framework runs — fault matrices, seed sweeps,
//! autotuning fan-out — simulates the *same* schedule many times with only
//! the seed (and possibly the fault plan) varying. [`simulate_batch`] runs
//! B such lanes in one pass over structure-of-arrays state: per-chunk
//! next-completion times become B-wide columns, the per-chunk busy records
//! become flat `[chunk][lane]` arrays, the RNG state is one array of B
//! per-lane noise streams (block-prefilled so sampling stays in a tight
//! loop), and the noiseless service memo is shared across the whole batch
//! (one lane's miss prices every lane's hit; per-lane noise is applied
//! after the lookup).
//!
//! Lanes are completely independent — no state is shared except the memo,
//! whose entries are a pure function of (chunk, stage, busy set) — so each
//! lane replays the scalar engine's event sequence exactly and the report
//! for lane *i* is **bit-identical** to `simulate` with that lane's seed
//! and fault spec. `tests/batch_determinism.rs` and the golden-replay suite
//! pin this oracle.
//!
//! Beyond sharing the memo, the batch engine removes per-event costs the
//! scalar engine pays:
//!
//! - the busy-set memo is a direct-mapped dense table indexed by an
//!   incrementally maintained mixed-radix busy index (no hashing, no key
//!   rebuild from the busy set) whenever the schedule's
//!   `Π (stages_i + 1)` radix product fits;
//! - noise factors are prefilled per lane in blocks, so the lognormal
//!   sampler runs in a tight loop instead of being interleaved with event
//!   bookkeeping;
//! - the next-event argmin is computed for *all* lanes in one chunk-major
//!   vectorizable pass per wavefront sweep;
//! - input queues are flat power-of-two rings (mask, not modulo).
//!
//! The event loop advances lanes in a round-robin wavefront: one event per
//! active lane per sweep, so per-event work touches contiguous lanes of
//! each column instead of re-entering the scalar engine B times.

use std::time::Duration;

use bt_telemetry::DispatcherCounters;

use crate::cost;
use crate::des::{finish_run, pool_size, total_tasks, ChunkSpec, ServiceModel};
use crate::fault::{FaultSpec, StageFaultKind};
use crate::run::{RunConfig, RunReport, TimelineSpan};
use crate::{ActiveKernel, NoiseModel, SocError, SocSpec};

/// One lane of a batched run: the seed of its noise stream plus an
/// optional fault plan. `None` faults is bit-identical to an empty spec
/// (the scalar engine's contract, inherited here).
#[derive(Debug, Clone, Default)]
pub struct DesSeedSpec {
    /// Seed for this lane's measurement-noise stream (overrides
    /// [`RunConfig::seed`], which batched runs ignore).
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

/// `busy_stage` sentinel for an idle (chunk, lane) slot.
const IDLE: u32 = u32::MAX;
/// Queue token for a recycled task object waiting at the head.
const PLACEHOLDER: u32 = u32::MAX;
/// Per-lane noise prefill block (doubles per refill up to this cap; the
/// whole batch's buffers stay a few tens of KB).
const NOISE_BLK: usize = 256;

/// Direct-mapped dense replacement for the scalar engine's hashed service
/// memo: one `f64` row of `radix_product` entries per (chunk, stage),
/// indexed by the mixed-radix encoding of the co-runner busy set
/// (`Σ field_i · weight_i` over chunks `i ≠ dispatcher`, where a field is
/// `stage + 1` or 0 when idle). `INFINITY` marks an unpriced entry; the
/// stored value is the same noiseless base latency the scalar memo holds,
/// so the table is value-neutral.
struct DenseMemo {
    table: Vec<f64>,
    /// Entries per (chunk, stage) row.
    p: usize,
}

impl DenseMemo {
    /// Entry cap: the radix product of realistic schedules is tiny (tens);
    /// anything past this falls back to the hashed memo.
    const MAX_ENTRIES: usize = 1 << 18;

    /// Mixed-radix weights (`Π_{j<i} (stages_j + 1)`), or `None` when the
    /// key space is too large to tabulate densely.
    fn weights(chunks: &[ChunkSpec], max_stages: usize) -> Option<(Vec<u64>, usize)> {
        let mut w = Vec::with_capacity(chunks.len());
        let mut p = 1usize;
        for c in chunks {
            w.push(p as u64);
            p = p.checked_mul(c.stages.len() + 1)?;
            if p > (1 << 16) {
                return None;
            }
        }
        (chunks.len() * max_stages * p <= Self::MAX_ENTRIES).then_some((w, p))
    }
}

/// The structure-of-arrays batch engine. All per-(chunk, lane) state lives
/// in flat arrays indexed `chunk * lanes + lane`, so a column (one chunk
/// across the batch) is contiguous.
struct BatchEngine<'a> {
    chunks: &'a [ChunkSpec],
    specs: &'a [DesSeedSpec],
    n_chunks: usize,
    lanes: usize,
    total_tasks: usize,
    /// Ring capacity per (chunk, lane): buffers rounded up to a power of
    /// two so wraparound is a mask.
    cap: usize,
    model: ServiceModel<'a>,
    dense: Option<DenseMemo>,
    /// Mixed-radix busy-field weights (all-zero when `dense` is `None`,
    /// making the accumulator updates no-ops).
    weights: Vec<u64>,
    /// Co-runner scratch for dense-memo misses.
    scratch: Vec<ActiveKernel>,

    // ---- [chunk][lane] columns ----
    /// Next completion time; `INFINITY` marks an idle slot. This is the
    /// scalar engine's `EventSlots` widened to B lanes per chunk.
    next_done: Vec<f64>,
    /// In-flight stage index, or [`IDLE`].
    busy_stage: Vec<u32>,
    /// In-flight task sequence number (valid while busy).
    busy_task: Vec<u32>,
    /// Bandwidth demand advertised while the in-flight stage runs.
    busy_demand: Vec<f64>,
    busy_since: Vec<f64>,
    doomed: Vec<bool>,
    /// Loss instant of the chunk's PU class in that lane's fault plan.
    loss: Vec<Option<f64>>,
    busy_spans: Vec<Vec<(f64, f64)>>,
    /// Flat ring buffers, `cap` slots per (chunk, lane).
    q: Vec<u32>,
    q_head: Vec<u32>,
    q_len: Vec<u32>,
    counters: Vec<DispatcherCounters>,

    // ---- per-lane arrays ----
    /// Incrementally maintained mixed-radix busy index (dense memo).
    acc: Vec<u64>,
    /// Incrementally maintained packed busy key (hashed-memo fallback).
    busy_key: Vec<u64>,
    noise: Vec<NoiseModel>,
    noise_buf: Vec<f64>,
    noise_pos: Vec<u32>,
    started: Vec<u32>,
    completed: Vec<u32>,
    dropped: Vec<u32>,
    faults_fired: Vec<u32>,
    recycled: Vec<bool>,
    /// `entry_time[lane * total_tasks + task]`.
    entry_time: Vec<f64>,
    completions: Vec<Vec<(f64, f64)>>,
    timeline: Vec<Vec<TimelineSpan>>,

    collect_timeline: bool,
    tele_counters: bool,
}

impl BatchEngine<'_> {
    #[inline]
    fn slot(&self, c: usize, l: usize) -> usize {
        c * self.lanes + l
    }

    #[inline]
    fn q_pop(&mut self, c: usize, l: usize) -> Option<u32> {
        let s = self.slot(c, l);
        if self.q_len[s] == 0 {
            return None;
        }
        let base = s * self.cap;
        let v = self.q[base + self.q_head[s] as usize];
        self.q_head[s] = (self.q_head[s] + 1) & (self.cap as u32 - 1);
        self.q_len[s] -= 1;
        Some(v)
    }

    #[inline]
    fn q_push(&mut self, c: usize, l: usize, v: u32) {
        let s = self.slot(c, l);
        debug_assert!(
            (self.q_len[s] as usize) < self.cap,
            "object pool bounds every queue"
        );
        let idx = (self.q_head[s] + self.q_len[s]) & (self.cap as u32 - 1);
        self.q[s * self.cap + idx as usize] = v;
        self.q_len[s] += 1;
    }

    /// Next factor of lane `l`'s noise stream, from the prefill buffer —
    /// value-identical to calling [`NoiseModel::factor`] directly.
    #[inline]
    fn noise_next(&mut self, l: usize) -> f64 {
        let pos = self.noise_pos[l] as usize;
        if pos == NOISE_BLK {
            let start = l * NOISE_BLK;
            self.noise[l].fill_factors(&mut self.noise_buf[start..start + NOISE_BLK]);
            self.noise_pos[l] = 1;
            return self.noise_buf[start];
        }
        self.noise_pos[l] = pos as u32 + 1;
        self.noise_buf[l * NOISE_BLK + pos]
    }

    fn lost(&self, c: usize, l: usize, now: f64) -> bool {
        self.loss[self.slot(c, l)].is_some_and(|t| now >= t)
    }

    /// Drops the task just popped from a non-head chunk: its object
    /// recycles to the head pool.
    fn drop_and_recycle(&mut self, l: usize) {
        self.dropped[l] += 1;
        self.q_push(0, l, PLACEHOLDER);
        self.recycled[l] = true;
    }

    /// Closes the slot's busy interval at `now` and frees it.
    fn finish_span(&mut self, c: usize, l: usize, now: f64) {
        let s = self.slot(c, l);
        let since = self.busy_since[s];
        self.busy_spans[s].push((since, now));
        let field = u64::from(self.busy_stage[s]) + 1;
        self.busy_stage[s] = IDLE;
        self.acc[l] -= field * self.weights[c];
        let mask = (1u64 << ServiceModel::STAGE_BITS) - 1;
        self.busy_key[l] &= !(mask << (c as u32 * ServiceModel::STAGE_BITS));
        if self.tele_counters {
            self.counters[s].record_task(Duration::from_secs_f64((now - since) * 1e-6));
        }
    }

    /// Samples the (possibly perturbed) service time of `(c, stage, task)`
    /// at `now` in lane `l` and schedules its completion, clamped to the
    /// chunk's loss instant — the lane-indexed mirror of the scalar
    /// engine's `start_stage`.
    fn start_stage(&mut self, l: usize, c: usize, task: usize, stage: usize, now: f64) {
        let lanes = self.lanes;
        let s = c * lanes + l;
        let old = self.busy_stage[s];
        let old_field = if old == IDLE { 0 } else { u64::from(old) + 1 };
        let nf = self.noise_next(l);
        let row = self.model.row(c, stage);
        let base = if let Some(dm) = &mut self.dense {
            let idx = (self.acc[l] - old_field * self.weights[c]) as usize;
            let fi = row * dm.p + idx;
            let v = dm.table[fi];
            if v < f64::INFINITY {
                v
            } else {
                // Cold miss: enumerate this lane's co-runners from the
                // columns and walk the roofline model once for the whole
                // batch.
                self.scratch.clear();
                for i in 0..self.n_chunks {
                    if i == c {
                        continue;
                    }
                    let si = i * lanes + l;
                    if self.busy_stage[si] != IDLE {
                        self.scratch
                            .push(ActiveKernel::new(self.chunks[i].pu, self.busy_demand[si]));
                    }
                }
                let v = cost::latency_under(
                    &self.chunks[c].stages[stage],
                    self.model.pus[c],
                    self.model.soc,
                    &self.scratch,
                )
                .as_f64();
                dm.table[fi] = v;
                v
            }
        } else {
            let key = self.busy_key[l];
            let model = &mut self.model;
            let busy_stage = &self.busy_stage;
            let busy_demand = &self.busy_demand;
            let chunks = self.chunks;
            let n = self.n_chunks;
            model.base_keyed(c, stage, key, |scratch| {
                for (i, chunk) in chunks.iter().enumerate().take(n) {
                    if i == c {
                        continue;
                    }
                    let si = i * lanes + l;
                    if busy_stage[si] != IDLE {
                        scratch.push(ActiveKernel::new(chunk.pu, busy_demand[si]));
                    }
                }
            })
        };
        // The scalar engine samples `base * noise + sync`; fault
        // multipliers apply to that whole quantity.
        let t = base * nf + self.model.sync[row];
        let mut dt = t;
        if let Some(spec) = self.specs[l].faults.as_ref() {
            // Straggler multiplier, counted as one fault activation at the
            // task's first stage on that chunk.
            let straggle = spec.straggler_factor(c, task);
            if stage == 0 && straggle != 1.0 {
                self.faults_fired[l] += 1;
            }
            dt = t * spec.slowdown_factor(self.chunks[c].pu, now) * straggle;
            if let Some(StageFaultKind::Timeout { extra_us }) = spec.stage_fault(c, task, stage) {
                dt += extra_us;
                self.faults_fired[l] += 1;
            }
        }
        let mut end = now + dt;
        if let Some(t_loss) = self.loss[s] {
            if end > t_loss {
                // The PU dies mid-service; the stage "completes" at the
                // loss instant as a doomed event and the task drops there.
                end = t_loss;
                self.doomed[s] = true;
            }
        }
        self.busy_stage[s] = stage as u32;
        self.busy_task[s] = task as u32;
        self.busy_demand[s] = self.model.demand[row];
        if stage == 0 {
            self.busy_since[s] = now;
        }
        self.acc[l] += (stage as u64 + 1 - old_field) * self.weights[c];
        let shift = c as u32 * ServiceModel::STAGE_BITS;
        let mask = (1u64 << ServiceModel::STAGE_BITS) - 1;
        self.busy_key[l] = (self.busy_key[l] & !(mask << shift)) | ((stage as u64 + 1) << shift);
        debug_assert!(self.next_done[s].is_infinite(), "one event per slot");
        self.next_done[s] = end;
        if self.collect_timeline {
            self.timeline[l].push(TimelineSpan {
                chunk: c,
                stage: Some(stage),
                task: task as u64,
                start_us: now,
                end_us: end,
            });
        }
    }

    /// Starts work on idle chunk `c` of lane `l`: admits new tasks at the
    /// head, drains fault-induced drops without advancing virtual time,
    /// and dispatches the first unfaulted arrival.
    fn pump(&mut self, l: usize, c: usize, now: f64) {
        loop {
            if self.busy_stage[self.slot(c, l)] != IDLE {
                return;
            }
            let task = if c == 0 {
                if self.started[l] as usize >= self.total_tasks || self.q_len[self.slot(0, l)] == 0
                {
                    return;
                }
                // A lost head consumes the task stream but keeps its
                // objects: every remaining admission drops immediately.
                if self.lost(0, l, now) {
                    self.entry_time[l * self.total_tasks + self.started[l] as usize] = now;
                    self.started[l] += 1;
                    self.dropped[l] += 1;
                    self.faults_fired[l] += 1;
                    continue;
                }
                self.q_pop(0, l);
                let t = self.started[l] as usize;
                self.started[l] += 1;
                self.entry_time[l * self.total_tasks + t] = now;
                t
            } else {
                match self.q_pop(c, l) {
                    Some(t) => t as usize,
                    None => return,
                }
            };
            if c != 0 && self.lost(c, l, now) {
                self.faults_fired[l] += 1;
                self.drop_and_recycle(l);
                continue;
            }
            let fault = self.specs[l]
                .faults
                .as_ref()
                .and_then(|f| f.stage_fault(c, task, 0));
            if matches!(fault, Some(StageFaultKind::Error)) {
                self.faults_fired[l] += 1;
                self.dropped[l] += 1;
                self.q_push(0, l, PLACEHOLDER);
                if c != 0 {
                    self.recycled[l] = true;
                }
                continue;
            }
            self.start_stage(l, c, task, 0, now);
            return;
        }
    }

    /// Objects recycled by drops re-arm the head outside the normal
    /// completion flow; give it a chance to admit with them.
    fn flush_recycled(&mut self, l: usize, now: f64) {
        while self.recycled[l] {
            self.recycled[l] = false;
            self.pump(l, 0, now);
        }
    }

    /// Processes lane `l`'s next event, popped by the sweep's argmin pass —
    /// one iteration of the scalar engine's event loop, so per-lane event
    /// order (and therefore every per-lane float) is identical to
    /// `simulate`.
    fn step(&mut self, l: usize, now: f64, c: usize) {
        assert!(
            now.is_finite(),
            "pipeline cannot deadlock with buffered queues"
        );
        let s = self.slot(c, l);
        self.next_done[s] = f64::INFINITY;
        debug_assert!(self.busy_stage[s] != IDLE, "event implies busy slot");
        let in_task = self.busy_task[s] as usize;
        let in_stage = self.busy_stage[s] as usize;

        if self.doomed[s] {
            // The PU died mid-service at `now` (its loss instant).
            self.doomed[s] = false;
            self.finish_span(c, l, now);
            self.faults_fired[l] += 1;
            self.drop_and_recycle(l);
            self.pump(l, c, now); // drains the queued input as drops
            self.flush_recycled(l, now);
            return;
        }

        if in_stage + 1 < self.chunks[c].stages.len() {
            let fault = self.specs[l]
                .faults
                .as_ref()
                .and_then(|f| f.stage_fault(c, in_task, in_stage + 1));
            if matches!(fault, Some(StageFaultKind::Error)) {
                self.faults_fired[l] += 1;
                self.finish_span(c, l, now);
                self.drop_and_recycle(l);
                self.pump(l, c, now);
                self.flush_recycled(l, now);
            } else {
                // Next stage of the same chunk; re-sample interference.
                self.start_stage(l, c, in_task, in_stage + 1, now);
            }
            return;
        }

        // Chunk finished its last stage for this task.
        self.finish_span(c, l, now);
        if c + 1 == self.n_chunks {
            self.completions[l].push((self.entry_time[l * self.total_tasks + in_task], now));
            self.completed[l] += 1;
            self.q_push(0, l, PLACEHOLDER);
            if self.tele_counters {
                let depth = self.q_len[self.slot(0, l)] as usize;
                self.counters[s].sample_queue_depth(depth);
            }
            self.pump(l, 0, now);
        } else {
            self.q_push(c + 1, l, in_task as u32);
            if self.tele_counters {
                let depth = self.q_len[self.slot(c + 1, l)] as usize;
                self.counters[s].sample_queue_depth(depth);
            }
            self.pump(l, c + 1, now);
        }
        self.pump(l, c, now);
        self.flush_recycled(l, now);
    }

    /// The round-robin wavefront: each sweep computes every lane's next
    /// event in one chunk-major vectorizable argmin pass over the
    /// `next_done` columns (stepping lane `l` only mutates lane `l`'s
    /// entries, so the precomputed minima of the other lanes stay valid),
    /// then processes one event per unfinished lane.
    fn run(&mut self) {
        let lanes = self.lanes;
        for l in 0..lanes {
            self.pump(l, 0, 0.0);
        }
        let mut finished = vec![false; lanes];
        let mut remaining = lanes;
        let mut best_t = vec![f64::INFINITY; lanes];
        let mut best_c = vec![0u32; lanes];
        while remaining > 0 {
            best_t.copy_from_slice(&self.next_done[..lanes]);
            best_c.fill(0);
            for c in 1..self.n_chunks {
                let row = &self.next_done[c * lanes..(c + 1) * lanes];
                for l in 0..lanes {
                    // Strict `<`: the scalar engine's (time, lowest chunk
                    // index) tie-break.
                    if row[l] < best_t[l] {
                        best_t[l] = row[l];
                        best_c[l] = c as u32;
                    }
                }
            }
            for l in 0..lanes {
                if finished[l] {
                    continue;
                }
                if (self.completed[l] + self.dropped[l]) as usize >= self.total_tasks {
                    finished[l] = true;
                    remaining -= 1;
                    continue;
                }
                self.step(l, best_t[l], best_c[l] as usize);
            }
        }
    }
}

/// Simulates `lanes.len()` runs of `chunks` on `soc` in one
/// structure-of-arrays pass — one lane per [`DesSeedSpec`], each
/// bit-identical to the scalar [`crate::des::simulate`] with that lane's
/// seed and fault spec.
///
/// `cfg` supplies everything except the seed (tasks, warmup, buffers,
/// noise sigma, service cache, timeline/telemetry collection);
/// [`RunConfig::seed`] is ignored in favor of each lane's own. The
/// noiseless service memo is shared across the batch — one lane's cache
/// miss prices every lane's subsequent hit — and the batched layout
/// amortizes the per-run setup and event-loop bookkeeping the scalar
/// engine repays B times, which is where the aggregate speedup comes
/// from.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] if `chunks` or `lanes` is empty,
/// any chunk has no stages, or `cfg.tasks == 0`; [`SocError::MissingPu`]
/// if a chunk names a PU class the device lacks.
pub fn simulate_batch(
    soc: &SocSpec,
    chunks: &[ChunkSpec],
    cfg: &RunConfig,
    lanes: &[DesSeedSpec],
) -> Result<Vec<RunReport>, SocError> {
    if chunks.is_empty()
        || lanes.is_empty()
        || cfg.tasks == 0
        || chunks.iter().any(|c| c.stages.is_empty())
    {
        return Err(SocError::EmptySimulation);
    }
    for chunk in chunks {
        soc.try_pu(chunk.pu)?;
    }

    let n_chunks = chunks.len();
    let n_lanes = lanes.len();
    let slots = n_chunks * n_lanes;
    let total_tasks = total_tasks(cfg);
    let buffers = pool_size(cfg, n_chunks);
    let cap = buffers.next_power_of_two();
    let collect_timeline = cfg.record_timeline || cfg.telemetry.spans;
    let tele_counters = cfg.telemetry.counters;
    let max_stages = chunks.iter().map(|c| c.stages.len()).max().unwrap_or(0);
    let total_stages: usize = chunks.iter().map(|c| c.stages.len()).sum();

    // The dense direct-mapped memo replaces the hashed one whenever the
    // schedule's busy-set radix product fits; otherwise the ServiceModel
    // fallback keeps the scalar engine's exact caching behavior. Both are
    // value-neutral, so the choice cannot change any lane's bits.
    let dense_cfg = if cfg.service_cache {
        DenseMemo::weights(chunks, max_stages)
    } else {
        None
    };
    let (weights, dense) = match dense_cfg {
        Some((w, p)) => (
            w,
            Some(DenseMemo {
                table: vec![f64::INFINITY; total_stages * p],
                p,
            }),
        ),
        None => (vec![0; n_chunks], None),
    };
    let model = ServiceModel::new(
        soc,
        chunks.iter().collect(),
        cfg.service_cache && dense.is_none(),
    );

    let mut eng = BatchEngine {
        chunks,
        specs: lanes,
        n_chunks,
        lanes: n_lanes,
        total_tasks,
        cap,
        model,
        dense,
        weights,
        scratch: Vec::with_capacity(n_chunks.saturating_sub(1)),
        next_done: vec![f64::INFINITY; slots],
        busy_stage: vec![IDLE; slots],
        busy_task: vec![0; slots],
        busy_demand: vec![0.0; slots],
        busy_since: vec![0.0; slots],
        doomed: vec![false; slots],
        loss: {
            let mut v = Vec::with_capacity(slots);
            for chunk in chunks.iter().take(n_chunks) {
                for spec in lanes {
                    v.push(spec.faults.as_ref().and_then(|f| f.loss_at(chunk.pu)));
                }
            }
            v
        },
        busy_spans: (0..slots)
            .map(|_| Vec::with_capacity(total_tasks))
            .collect(),
        q: vec![PLACEHOLDER; slots * cap],
        q_head: vec![0; slots],
        q_len: vec![0; slots],
        counters: if tele_counters {
            vec![DispatcherCounters::new(); slots]
        } else {
            Vec::new()
        },
        acc: vec![0; n_lanes],
        busy_key: vec![0; n_lanes],
        noise: lanes
            .iter()
            .map(|spec| NoiseModel::new(cfg.noise_sigma, spec.seed))
            .collect(),
        noise_buf: vec![0.0; n_lanes * NOISE_BLK],
        // Start exhausted so the first draw triggers a refill.
        noise_pos: vec![NOISE_BLK as u32; n_lanes],
        started: vec![0; n_lanes],
        completed: vec![0; n_lanes],
        dropped: vec![0; n_lanes],
        faults_fired: vec![0; n_lanes],
        recycled: vec![false; n_lanes],
        entry_time: vec![0.0; n_lanes * total_tasks],
        completions: (0..n_lanes)
            .map(|_| Vec::with_capacity(total_tasks))
            .collect(),
        timeline: if collect_timeline {
            (0..n_lanes)
                .map(|_| Vec::with_capacity(total_tasks * total_stages))
                .collect()
        } else {
            (0..n_lanes).map(|_| Vec::new()).collect()
        },
        collect_timeline,
        tele_counters,
    };
    // All task objects begin recycled at the head of every lane.
    for l in 0..n_lanes {
        eng.q_len[l] = buffers as u32;
    }
    eng.run();

    let reports = (0..n_lanes)
        .map(|l| {
            debug_assert_eq!(eng.completed[l] + eng.dropped[l], eng.started[l]);
            let lane = |c: usize| c * n_lanes + l;
            let spans: Vec<&[(f64, f64)]> = (0..n_chunks)
                .map(|c| eng.busy_spans[lane(c)].as_slice())
                .collect();
            let counters: Vec<DispatcherCounters> = if tele_counters {
                (0..n_chunks).map(|c| eng.counters[lane(c)]).collect()
            } else {
                Vec::new()
            };
            finish_run(
                cfg,
                [eng.started[l], eng.completed[l], eng.dropped[l]].map(|n| n as usize),
                eng.faults_fired[l],
                &eng.completions[l],
                &spans,
                std::mem::take(&mut eng.timeline[l]),
                Some(&counters),
            )
        })
        .collect();
    Ok(reports)
}

/// [`simulate_batch`] sharded over up to `max_threads` scoped threads:
/// lanes split into contiguous shards, each shard a full SoA pass, results
/// concatenated in lane order. Lanes are independent, so sharding cannot
/// change any lane's bits — only which lanes share a memo instance, which
/// is value-neutral.
///
/// # Errors
///
/// Same contract as [`simulate_batch`].
pub fn simulate_batch_parallel(
    soc: &SocSpec,
    chunks: &[ChunkSpec],
    cfg: &RunConfig,
    lanes: &[DesSeedSpec],
    max_threads: usize,
) -> Result<Vec<RunReport>, SocError> {
    let workers = max_threads.max(1).min(lanes.len());
    if workers <= 1 {
        return simulate_batch(soc, chunks, cfg, lanes);
    }
    // Contiguous shard bounds, remainder spread over the leading shards.
    let per = lanes.len() / workers;
    let extra = lanes.len() % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = per + usize::from(w < extra);
        bounds.push((start, start + len));
        start += len;
    }
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| scope.spawn(move || simulate_batch(soc, chunks, cfg, &lanes[lo..hi])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch shard panicked"))
            .collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(lanes.len());
    for shard in results {
        out.extend(shard?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::simulate;
    use crate::devices;
    use crate::fault::{PuLoss, StageFault, Straggler};
    use crate::{PuClass, WorkProfile};
    use bt_telemetry::TelemetryConfig;

    fn stage(flops: f64) -> WorkProfile {
        WorkProfile::new(flops, flops / 4.0)
    }

    fn chunks() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ]
    }

    fn cfg() -> RunConfig {
        RunConfig {
            tasks: 30,
            warmup: 5,
            noise_sigma: 0.05,
            record_timeline: true,
            telemetry: TelemetryConfig::full(),
            ..RunConfig::default()
        }
    }

    fn faulty_spec(seed: u64) -> FaultSpec {
        FaultSpec {
            stragglers: vec![Straggler {
                chunk: 1,
                task: 7,
                factor: 4.0,
            }],
            stage_faults: vec![StageFault {
                chunk: 0,
                task: 9 + (seed % 3) as usize,
                stage: 1,
                kind: StageFaultKind::Error,
            }],
            losses: if seed.is_multiple_of(2) {
                vec![PuLoss {
                    class: PuClass::Gpu,
                    at_us: 4000.0,
                }]
            } else {
                Vec::new()
            },
            ..FaultSpec::default()
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_scalar_runs() {
        let soc = devices::pixel_7a();
        let chunks = chunks();
        let cfg = cfg();
        let lanes: Vec<DesSeedSpec> = (0..7)
            .map(|i| {
                if i % 2 == 0 {
                    DesSeedSpec::new(40 + i)
                } else {
                    DesSeedSpec::with_faults(40 + i, faulty_spec(i))
                }
            })
            .collect();
        let batched = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        for (lane, report) in lanes.iter().zip(&batched) {
            let scalar_cfg = RunConfig {
                seed: lane.seed,
                ..cfg.clone()
            };
            let scalar = simulate(&soc, &chunks, &scalar_cfg, lane.faults.as_ref()).unwrap();
            assert_eq!(format!("{report:?}"), format!("{scalar:?}"));
        }
    }

    #[test]
    fn sharded_batch_matches_single_pass() {
        let soc = devices::pixel_7a();
        let chunks = chunks();
        let cfg = cfg();
        let lanes: Vec<DesSeedSpec> = (0..9).map(DesSeedSpec::new).collect();
        let one = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        let sharded = simulate_batch_parallel(&soc, &chunks, &cfg, &lanes, 4).unwrap();
        assert_eq!(one.len(), sharded.len());
        for (a, b) in one.iter().zip(&sharded) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let soc = devices::pixel_7a();
        assert!(matches!(
            simulate_batch(&soc, &chunks(), &cfg(), &[]),
            Err(SocError::EmptySimulation)
        ));
    }

    #[test]
    fn cache_off_batch_still_matches_scalar() {
        let soc = devices::pixel_7a();
        let chunks = chunks();
        let cfg = RunConfig {
            service_cache: false,
            ..cfg()
        };
        let lanes = [
            DesSeedSpec::new(3),
            DesSeedSpec::with_faults(4, faulty_spec(4)),
        ];
        let batched = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        for (lane, report) in lanes.iter().zip(&batched) {
            let scalar_cfg = RunConfig {
                seed: lane.seed,
                ..cfg.clone()
            };
            let scalar = simulate(&soc, &chunks, &scalar_cfg, lane.faults.as_ref()).unwrap();
            assert_eq!(format!("{report:?}"), format!("{scalar:?}"));
        }
    }

    #[test]
    fn wide_pipeline_falls_back_to_hashed_memo() {
        // 9 chunks exceed the packed-key limit; the batch engine must stay
        // bit-identical through the uncached fallback.
        let soc = devices::pixel_7a();
        let chunks: Vec<ChunkSpec> = (0..9)
            .map(|i| {
                ChunkSpec::new(
                    match i % 3 {
                        0 => PuClass::BigCpu,
                        1 => PuClass::MediumCpu,
                        _ => PuClass::Gpu,
                    },
                    vec![stage(1e6 + 1e5 * i as f64)],
                )
            })
            .collect();
        let cfg = RunConfig {
            tasks: 10,
            warmup: 2,
            noise_sigma: 0.05,
            ..RunConfig::default()
        };
        let lanes = [DesSeedSpec::new(1), DesSeedSpec::new(2)];
        let batched = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        for (lane, report) in lanes.iter().zip(&batched) {
            let scalar_cfg = RunConfig {
                seed: lane.seed,
                ..cfg.clone()
            };
            let scalar = simulate(&soc, &chunks, &scalar_cfg, None).unwrap();
            assert_eq!(format!("{report:?}"), format!("{scalar:?}"));
        }
    }
}
