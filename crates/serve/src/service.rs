//! The plan-serving request loop.
//!
//! A [`PlanService`] owns a device fleet, a set of registered apps, and a
//! population of *serving cells* — one per `(device, app, input-scale
//! bucket)` — each holding a warm profiling table and the content-addressed
//! [`crate::PlanKey`]s of its current signature. Requests resolve to a
//! cell by binary search over the name tables, read its stored key, and
//! either hit the plan cache (allocation-free) or fall through to a
//! batched cold solve.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bt_core::{
    optimize_with, Candidate, DriftConfig, ExecutionBackend, Objective, OptimizerConfig,
    SimBackend, SolverEngine,
};
use bt_kernels::AppModel;
use bt_pipeline::Schedule;
use bt_profiler::{ProfileMode, ProfilerConfig, ProfilingTable};
use bt_soc::parallel::{amortises_spawn, des_run_us, fan_out};
use bt_soc::power::{energy_of_window, PowerModel};
use bt_soc::{fnv1a64, json_hash, PuClass, RunConfig, SocSpec};

use crate::artifact::{PlanArtifact, PlanObjective};
use crate::cache::{KeyMap, PlanCache, PlanKey};
use crate::registry::{DeviceRegistry, NameTable};
use crate::ServeError;

/// One plan request. Borrowed fields keep the hit path allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest<'a> {
    /// Registered device name.
    pub device: &'a str,
    /// Registered app name.
    pub app: &'a str,
    /// Input-size multiplier relative to the registered app (quantized to
    /// half-octave buckets; 1.0 is the app as registered).
    pub input_scale: f64,
    /// Observed per-class slowdown factors from the client's recent runs
    /// (the drift signal of the PR 4 resilience loop). Empty means "no
    /// drift observed"; factors ≤ 1 mean "recovered".
    pub fault_history: &'a [(PuClass, f64)],
    /// What the plan should optimize.
    pub objective: PlanObjective,
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Straight from the content-addressed cache (allocation-free path).
    Cache,
    /// A cold solve ran — possibly one shared, batched solve covering
    /// several requests of a [`PlanService::serve_batch`] burst.
    ColdSolve,
}

/// A served plan.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// The (shared) plan artifact.
    pub artifact: Arc<PlanArtifact>,
    /// Hit or cold.
    pub from: ServedFrom,
}

/// Service configuration. Every cold solve enumerates its candidates with
/// the exact optimizer ([`optimize_with`] on [`SolverEngine::Exact`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Candidate schedules per cold solve (the serving analogue of the
    /// paper's 𝒦; smaller than the offline default because serving ranks
    /// by throughput).
    pub candidates: usize,
    /// How many top candidates get DES-evaluated per solve.
    pub eval_candidates: usize,
    /// Evaluation lanes (distinct seeds) per candidate, priced in one
    /// `measure_batch` call.
    pub eval_lanes: usize,
    /// Drift policy — the PR 4 rescale loop reused as the cache
    /// invalidation policy: `threshold` is how far a request's observed
    /// factors may sit from the cell's applied factors before the cell
    /// rescales, `max_factor` clamps the applied slowdown.
    pub drift: DriftConfig,
    /// Profiling configuration for warming a cell's table.
    pub profiler: ProfilerConfig,
    /// DES configuration for candidate evaluation.
    pub run: RunConfig,
    /// Permit fanning profiling, evaluation lanes and batched group
    /// solves across threads (deterministic either way). Permission only:
    /// each site spreads when one of its items
    /// [amortises a spawn](bt_soc::parallel::amortises_spawn) — a group's
    /// cold solve does, its 35-task evaluation lanes do not.
    pub parallel: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            candidates: 8,
            eval_candidates: 4,
            eval_lanes: 3,
            drift: DriftConfig::default(),
            profiler: ProfilerConfig::default(),
            run: RunConfig::default(),
            parallel: true,
        }
    }
}

/// Service counters, sampled with [`PlanService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered from cache.
    pub hits: u64,
    /// Requests that took the cold path.
    pub misses: u64,
    /// Drift-triggered cell invalidations.
    pub invalidations: u64,
    /// Plans evicted because their cell drifted off their signature.
    pub evictions: u64,
    /// Cold solves performed (each populates every objective's cell).
    pub solves: u64,
    /// Live serving cells (warm tables).
    pub cells: usize,
    /// Plans currently cached.
    pub plans: usize,
}

/// A registered application.
#[derive(Debug)]
struct AppEntry {
    model: AppModel,
}

/// The utilization bound `T_min ≥ FILL · T_max` every served candidate
/// meets.
const FILL: f64 = 0.45;

/// Every objective a cold solve populates (and an eviction removes), in
/// the order of a cell's `keys`: `objective as usize` is its slot.
const OBJECTIVES: [PlanObjective; 2] = [PlanObjective::MinLatency, PlanObjective::MinEnergy];

/// Cell index: (device, app, scale bucket).
type CellKey = (u32, u32, i32);

/// A scaled app model and its content signature, shared across cells.
type ScaledApp = Arc<(AppModel, u64)>;

/// One serving cell: warm profiling state for a (device, app, bucket).
#[derive(Debug)]
struct TableCell {
    device_hash: u64,
    app_sig: u64,
    /// The factor-free profiled table for this cell.
    base_table: ProfilingTable,
    /// Content signature of `base_table`: plans under it are never
    /// evicted, so recovery serves the pristine artifact without a solve.
    base_sig: u64,
    /// Which classes the table prices — drift on a class the device
    /// cannot schedule is irrelevant to the plan and ignored.
    class_mask: [bool; PuClass::COUNT],
    /// Per-class slowdown factors currently applied (1.0 = pristine).
    factors: [f64; PuClass::COUNT],
    /// `base_table` with `factors` applied — what cold solves run on.
    table: ProfilingTable,
    /// Content signature of `table` (the cache-key component).
    sig: u64,
    /// `sig`'s plan key per objective, re-derived only when `sig` moves,
    /// so a hit reads its key instead of mixing one.
    keys: [PlanKey; OBJECTIVES.len()],
    backend: SimBackend,
    power: PowerModel,
    /// Cold solves performed in this cell (artifact provenance; per-cell
    /// so identical content yields identical artifacts regardless of
    /// fleet-wide request interleaving).
    solve_count: u64,
}

impl TableCell {
    /// The stored key of `objective` under the current signature.
    fn key(&self, objective: PlanObjective) -> PlanKey {
        self.keys[objective as usize]
    }
}

/// The plan key of every objective for one (device, app, table) content.
fn plan_keys(device_hash: u64, app_sig: u64, sig: u64) -> [PlanKey; OBJECTIVES.len()] {
    OBJECTIVES.map(|o| PlanKey::derive(device_hash, app_sig, sig, o.tag()))
}

/// A resolved request: indices and stack-only derived state.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    device: u32,
    app: u32,
    bucket: i32,
    factors: [f64; PuClass::COUNT],
    objective: PlanObjective,
}

/// The scheduling-as-a-service entry point. `&self` methods are safe to
/// share across threads.
#[derive(Debug)]
pub struct PlanService {
    cfg: ServeConfig,
    registry: DeviceRegistry,
    apps: Vec<AppEntry>,
    app_by_name: NameTable,
    /// Scaled app models + signatures per (app, bucket), built on demand.
    scaled: RwLock<KeyMap<(u32, i32), ScaledApp>>,
    /// Lock order: this map, then a cell. No path takes this lock while
    /// it holds a cell lock — `cell_for` releases it before the caller
    /// locks the cell, `solve_cell` never touches it, and `forget_cells`
    /// owns the service — so a hit may read its cell under the map guard.
    cells: RwLock<KeyMap<CellKey, Arc<RwLock<TableCell>>>>,
    cache: PlanCache,
    solves: AtomicU64,
}

impl PlanService {
    /// A service over an explicit device fleet with no apps registered.
    pub(crate) fn new(registry: DeviceRegistry, cfg: ServeConfig) -> PlanService {
        PlanService {
            cfg,
            registry,
            apps: Vec::new(),
            app_by_name: NameTable::default(),
            scaled: RwLock::default(),
            cells: RwLock::default(),
            cache: PlanCache::new(),
            solves: AtomicU64::new(0),
        }
    }

    /// The paper fleet (four builtin devices) with the four workloads
    /// (`octree`, `alexnet-dense`, `alexnet-sparse`, `perception`)
    /// registered.
    pub fn builtin(cfg: ServeConfig) -> PlanService {
        use bt_kernels::apps;
        let mut s = PlanService::new(DeviceRegistry::builtin(), cfg);
        s.register_app(apps::octree_app(apps::OctreeConfig::default()).model());
        s.register_app(apps::alexnet_dense_app(apps::AlexNetConfig::default()).model());
        s.register_app(apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model());
        s.register_app(apps::perception_app(apps::PerceptionConfig::default()).model());
        s
    }

    /// Loads a `devices/` registry directory into the fleet. A record
    /// that re-registers a device name with a different spec drops that
    /// device's serving cells and their plans, so its next request is
    /// solved against the new spec.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`] on read/parse failures; the fleet
    /// is then unchanged.
    pub fn load_devices(&mut self, dir: &std::path::Path) -> Result<(), ServeError> {
        let changed = self.registry.load_dir(dir)?;
        self.forget_cells(|&(device, _, _)| changed.binary_search(&device).is_ok());
        Ok(())
    }

    /// Registers an app under its model name. Re-registering a name
    /// replaces the app in place, keeps its index, and drops its scaled
    /// models, serving cells and their plans.
    pub(crate) fn register_app(&mut self, model: AppModel) -> u32 {
        let next = u32::try_from(self.apps.len()).expect("app set fits in u32");
        let idx = self.app_by_name.intern([model.name.as_str()], next)[0];
        match self.apps.get_mut(idx as usize) {
            Some(slot) => {
                *slot = AppEntry { model };
                self.scaled
                    .get_mut()
                    .expect("scaled lock")
                    .retain(|&(app, _), _| app != idx);
                self.forget_cells(|&(_, app, _)| app == idx);
            }
            None => self.apps.push(AppEntry { model }),
        }
        idx
    }

    /// Drops every serving cell whose key matches `stale` and evicts the
    /// plans under its base and current signatures. `&mut self`: no
    /// request holds a cell meanwhile.
    fn forget_cells(&mut self, stale: impl Fn(&CellKey) -> bool) {
        let cache = &self.cache;
        self.cells
            .get_mut()
            .expect("cells lock")
            .retain(|key, cell| {
                if !stale(key) {
                    return true;
                }
                let cell = cell.read().expect("cell lock");
                cache.evict(&plan_keys(cell.device_hash, cell.app_sig, cell.base_sig));
                cache.evict(&cell.keys);
                false
            });
    }

    /// The fleet registry.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// Registered app names, in registration order.
    pub fn app_names(&self) -> Vec<&str> {
        self.apps.iter().map(|a| a.model.name.as_str()).collect()
    }

    /// Samples every counter.
    pub fn stats(&self) -> ServeStats {
        let c = self.cache.stats();
        ServeStats {
            hits: c.hits,
            misses: c.misses,
            invalidations: c.invalidations,
            evictions: c.evictions,
            solves: self.solves.load(Ordering::Relaxed),
            cells: self.cells.read().expect("cells lock").len(),
            plans: c.plans,
        }
    }

    /// Drops cached plans while keeping warm tables — benchmark support
    /// for re-measuring the cold path.
    pub fn clear_plans(&self) {
        self.cache.clear();
    }

    /// Answers one request: allocation-free cache hit, or a cold solve
    /// that populates every objective's cell for this content.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for unknown names, invalid scales/factors,
    /// or a failed cold solve.
    pub fn serve(&self, req: &PlanRequest<'_>) -> Result<PlanResponse, ServeError> {
        let r = self.resolve(req)?;
        if let Some(artifact) = self.try_hit(&r, true) {
            return Ok(PlanResponse {
                artifact,
                from: ServedFrom::Cache,
            });
        }
        self.cold_serve(&r)
    }

    /// Answers a burst. Hits are served first; misses are grouped by
    /// (cell, factors) and each group is solved **once** — the batched
    /// cold path — then every member is answered from the fresh cells.
    /// Groups fan out across threads when permitted and worth a spawn.
    ///
    /// # Errors
    ///
    /// Returns the first [`ServeError`] encountered; the batch fails as a
    /// unit (no partial answers).
    pub fn serve_batch(&self, reqs: &[PlanRequest<'_>]) -> Result<Vec<PlanResponse>, ServeError> {
        let resolved: Vec<Resolved> = reqs
            .iter()
            .map(|r| self.resolve(r))
            .collect::<Result<_, _>>()?;

        let mut out: Vec<Option<PlanResponse>> = vec![None; reqs.len()];
        // Group misses by (cell, applied factors): members are satisfied
        // by the identical solve.
        type GroupId = (CellKey, [u64; PuClass::COUNT]);
        let mut groups: HashMap<GroupId, Vec<usize>> = HashMap::new();
        let mut group_order: Vec<GroupId> = Vec::new();
        for (i, r) in resolved.iter().enumerate() {
            if let Some(artifact) = self.try_hit(r, true) {
                out[i] = Some(PlanResponse {
                    artifact,
                    from: ServedFrom::Cache,
                });
                continue;
            }
            let id: GroupId = ((r.device, r.app, r.bucket), r.factors.map(f64::to_bits));
            let members = groups.entry(id).or_default();
            if members.is_empty() {
                group_order.push(id);
            }
            members.push(i);
        }

        // One representative request per group runs the cold solve; the
        // solve populates the cell for *both* objectives, so the other
        // members resolve from cache below.
        let leaders: Vec<Resolved> = group_order
            .iter()
            .map(|id| resolved[groups[id][0]])
            .collect();
        // A cold solve is at least its evaluation runs, each at least a
        // one-chunk DES run.
        let solve_us = (self.cfg.eval_candidates * self.cfg.eval_lanes.max(1)) as f64
            * des_run_us(&self.cfg.run, 1);
        let parallel = self.cfg.parallel && amortises_spawn(solve_us);
        let solved = fan_out(leaders.len(), parallel, |i| self.cold_serve(&leaders[i]))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        for (gi, id) in group_order.iter().enumerate() {
            let members = &groups[id];
            for (mi, &req_idx) in members.iter().enumerate() {
                let r = &resolved[req_idx];
                let artifact = if mi == 0 && r.objective == leaders[gi].objective {
                    solved[gi].artifact.clone()
                } else {
                    // Same cell, possibly the other objective: the solve
                    // above cached it. `try_hit` without counters — these
                    // requests were already counted as misses.
                    self.try_hit(r, false)
                        .ok_or(ServeError::Core(bt_core::BtError::NoCandidates))?
                };
                out[req_idx] = Some(PlanResponse {
                    artifact,
                    from: ServedFrom::ColdSolve,
                });
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect())
    }

    /// Validates and indexes a request. Stack-only on success.
    fn resolve(&self, req: &PlanRequest<'_>) -> Result<Resolved, ServeError> {
        let (device, _) = self
            .registry
            .get(req.device)
            .ok_or_else(|| ServeError::UnknownDevice(req.device.to_string()))?;
        let app = self
            .app_by_name
            .get(req.app)
            .ok_or_else(|| ServeError::UnknownApp(req.app.to_string()))?;
        if !(req.input_scale > 0.0 && req.input_scale.is_finite()) {
            return Err(ServeError::BadScale(req.input_scale));
        }
        let mut factors = [1.0f64; PuClass::COUNT];
        for &(class, f) in req.fault_history {
            if !(f > 0.0 && f.is_finite()) {
                return Err(ServeError::BadFaultFactor { factor: f });
            }
            // Only slowdowns reschedule; recovery (≤ 1) restores pristine.
            let clamped = f.clamp(1.0, self.cfg.drift.max_factor);
            factors[class.index()] = factors[class.index()].max(clamped);
        }
        Ok(Resolved {
            device,
            app,
            bucket: scale_bucket(req.input_scale),
            factors,
            objective: req.objective,
        })
    }

    /// The allocation-free fast path: cell lookup, drift check, stored
    /// key, cache probe. `count` selects whether the probe moves the
    /// hit/miss counters.
    fn try_hit(&self, r: &Resolved, count: bool) -> Option<Arc<PlanArtifact>> {
        match self.stored_key(r) {
            Some(key) if count => self.cache.get(key),
            Some(key) => self.cache.peek(key),
            None => {
                if count {
                    self.cache.note_miss();
                }
                None
            }
        }
    }

    /// The stored key of `r`'s cell, or `None` when the cell does not
    /// exist yet or `r`'s factors drifted from the cell's.
    fn stored_key(&self, r: &Resolved) -> Option<PlanKey> {
        let cells = self.cells.read().expect("cells lock");
        let cell = cells.get(&(r.device, r.app, r.bucket))?;
        // Read the cell under the map guard (the lock order is map →
        // cell), with no `Arc` clone. A cell that a cold solve holds is
        // waited on outside the guard, so a waiting hit never stalls
        // `cell_for`'s insert of another cell.
        let hit_key = |cell: &TableCell| (!self.drifts(cell, r)).then(|| cell.key(r.objective));
        if let Some(key) = cell.try_read().ok().map(|cell| hit_key(&cell)) {
            return key;
        }
        let cell = Arc::clone(cell);
        drop(cells);
        let key = hit_key(&cell.read().expect("cell lock"));
        key
    }

    /// Whether `r`'s factors drifted from those `cell` applies, on a
    /// class the cell prices.
    fn drifts(&self, cell: &TableCell, r: &Resolved) -> bool {
        (0..PuClass::COUNT).any(|c| {
            cell.class_mask[c] && drifted(cell.factors[c], r.factors[c], self.cfg.drift.threshold)
        })
    }

    /// The cold path: get-or-create the cell, apply drift, solve once for
    /// every objective, answer the requested one.
    fn cold_serve(&self, r: &Resolved) -> Result<PlanResponse, ServeError> {
        let cell = self.cell_for(r)?;
        let mut cell = cell.write().expect("cell lock");
        // Apply drift (the PR 4 rescale loop as invalidation policy).
        if self.drifts(&cell, r) {
            let (old_sig, old_keys) = (cell.sig, cell.keys);
            rescale_cell(&mut cell, r.factors);
            if cell.sig != old_sig {
                self.cache.note_invalidation();
                // Keep base and current: the signature just left is
                // unreachable from this cell until the same factors
                // return, so its plans go (still under the cell lock).
                if old_sig != cell.base_sig {
                    self.cache.evict(&old_keys);
                }
            }
        }
        let key = cell.key(r.objective);
        // Another thread (or an earlier group of this batch) may have
        // solved this content while we waited on the lock.
        if let Some(artifact) = self.cache.peek(key) {
            return Ok(PlanResponse {
                artifact,
                from: ServedFrom::ColdSolve,
            });
        }
        let entry = self.registry.entry(r.device);
        let artifact = self.solve_cell(&mut cell, &entry.name, r)?;
        Ok(PlanResponse {
            artifact,
            from: ServedFrom::ColdSolve,
        })
    }

    /// Gets or creates the serving cell for `r`, profiling its table on
    /// first touch.
    fn cell_for(&self, r: &Resolved) -> Result<Arc<RwLock<TableCell>>, ServeError> {
        let key: CellKey = (r.device, r.app, r.bucket);
        if let Some(cell) = self.cells.read().expect("cells lock").get(&key) {
            return Ok(Arc::clone(cell));
        }
        // Build outside the map lock: profiling is the expensive part.
        let scaled = self.scaled_app(r.app, r.bucket);
        let entry = self.registry.entry(r.device);
        let backend = SimBackend::new(entry.spec.clone(), scaled.0.clone())
            .with_profiler(self.cfg.profiler.clone())
            .with_run(self.cfg.run.clone())
            .with_parallel(self.cfg.parallel);
        let base_table = backend.profile(ProfileMode::InterferenceHeavy);
        let sig = json_hash(&base_table);
        let power = PowerModel::default_for(&entry.spec);
        let mut class_mask = [false; PuClass::COUNT];
        for &class in base_table.classes() {
            class_mask[class.index()] = true;
        }
        let cell = TableCell {
            device_hash: entry.hash,
            app_sig: scaled.1,
            table: base_table.clone(),
            base_table,
            base_sig: sig,
            class_mask,
            factors: [1.0; PuClass::COUNT],
            sig,
            keys: plan_keys(entry.hash, scaled.1, sig),
            backend,
            power,
            solve_count: 0,
        };
        let mut cells = self.cells.write().expect("cells lock");
        // A racing thread may have built the cell meanwhile; keep the
        // first (tables are deterministic, so either is correct).
        Ok(Arc::clone(
            cells
                .entry(key)
                .or_insert_with(|| Arc::new(RwLock::new(cell))),
        ))
    }

    /// The scaled app model + signature for (app, half-octave bucket).
    fn scaled_app(&self, app: u32, bucket: i32) -> ScaledApp {
        if let Some(hit) = self.scaled.read().expect("scaled lock").get(&(app, bucket)) {
            return Arc::clone(hit);
        }
        let base = &self.apps[app as usize].model;
        let factor = bucket_factor(bucket);
        let mut model = base.clone();
        if (factor - 1.0).abs() > f64::EPSILON {
            for stage in &mut model.stages {
                stage.work = stage.work.scaled(factor);
            }
        }
        let sig = json_hash(&model);
        let built = Arc::new((model, sig));
        let mut map = self.scaled.write().expect("scaled lock");
        Arc::clone(map.entry((app, bucket)).or_insert(built))
    }

    /// One cold solve for a cell: enumerate candidates, evaluate the top
    /// few over batched DES lanes, rank under **every** objective, cache
    /// each ranking's winner, and return the requested one.
    fn solve_cell(
        &self,
        cell: &mut TableCell,
        device_name: &str,
        r: &Resolved,
    ) -> Result<Arc<PlanArtifact>, ServeError> {
        let candidates = self.candidates(cell, &self.registry.entry(r.device).spec)?;
        let considered = candidates.len();
        let top = &candidates[..considered.min(self.cfg.eval_candidates)];
        let lanes: Vec<u64> = (0..self.cfg.eval_lanes.max(1) as u64).collect();
        let powered = cell.backend.classes();
        let mut ranked: Vec<(usize, f64, f64)> = Vec::with_capacity(top.len());
        for (i, cand) in top.iter().enumerate() {
            let runs = cell.backend.measure_batch(&cand.schedule, &lanes)?;
            let mean_us = runs.iter().map(|m| m.latency.as_f64()).sum::<f64>() / runs.len() as f64;
            let m = &runs[0];
            let classes: Vec<PuClass> = cand.schedule.chunks().iter().map(|c| c.pu).collect();
            let energy = energy_of_window(
                &cell.power,
                m.makespan,
                &m.chunk_utilization,
                m.tasks,
                &classes,
                &powered,
            );
            ranked.push((i, mean_us, energy.per_task_mj));
        }
        let solve_index = cell.solve_count;
        cell.solve_count += 1;
        self.solves.fetch_add(1, Ordering::Relaxed);

        let mut requested: Option<Arc<PlanArtifact>> = None;
        for objective in OBJECTIVES {
            let best = ranked
                .iter()
                .min_by(|a, b| match objective {
                    PlanObjective::MinLatency => a.1.total_cmp(&b.1),
                    PlanObjective::MinEnergy => a.2.total_cmp(&b.2),
                })
                .ok_or(ServeError::Core(bt_core::BtError::NoCandidates))?;
            let cand = &top[best.0];
            let key = cell.key(objective);
            let artifact = Arc::new(PlanArtifact {
                device: device_name.to_string(),
                app: self.apps[r.app as usize].model.name.clone(),
                scale_bucket: r.bucket,
                objective,
                key_hi: key.hi(),
                key_lo: key.lo(),
                table_sig: cell.sig,
                assignment: cand.schedule.assignment().to_vec(),
                predicted_us: cand.predicted.as_f64(),
                measured_us: best.1,
                energy_per_task_mj: best.2,
                candidates_considered: considered,
                solve_index,
            });
            self.cache.insert(key, Arc::clone(&artifact));
            if objective == r.objective {
                requested = Some(artifact);
            }
        }
        requested.ok_or(ServeError::Core(bt_core::BtError::NoCandidates))
    }

    /// The cell's candidates: the exact optimizer's best
    /// [`ServeConfig::candidates`] schedules whose every chunk fills at
    /// least `FILL` of the bottleneck.
    fn candidates(
        &self,
        cell: &TableCell,
        spec: &SocSpec,
    ) -> Result<Vec<Candidate<Schedule>>, ServeError> {
        let cfg = OptimizerConfig {
            candidates: self.cfg.candidates,
            objective: Objective::UtilizationFilter { threshold: FILL },
            engine: SolverEngine::Exact,
            max_chunks: None,
        };
        let schedulable = |c: PuClass| spec.pu(c).map(|p| p.schedulable()).unwrap_or(false);
        Ok(optimize_with(&cell.table, &cfg, schedulable)?)
    }
}

/// Whether an observed factor drifted past `threshold` relative to the
/// applied factor (the PR 4 drift predicate, ratio-formed).
fn drifted(applied: f64, observed: f64, threshold: f64) -> bool {
    (observed / applied - 1.0).abs() > threshold
}

/// Applies new per-class factors to a cell: rescale the base table
/// (`scaled_class`, clamped upstream), re-sign it and re-derive its plan
/// keys.
/// Factors on classes outside the cell's mask, and factors within
/// `EPSILON` of 1, are stored as 1.0 — they cannot influence the plan, so
/// recording them would make the drift check fire without ever changing
/// the table signature. When no class scales (a recovery), the cell
/// returns to the base table and its known signature.
fn rescale_cell(cell: &mut TableCell, mut factors: [f64; PuClass::COUNT]) {
    let mut scaled: Option<ProfilingTable> = None;
    for class in PuClass::ALL {
        let f = &mut factors[class.index()];
        let applies = cell.class_mask[class.index()] && (*f - 1.0).abs() > f64::EPSILON;
        let table = scaled.as_ref().unwrap_or(&cell.base_table);
        match applies.then(|| table.scaled_class(class, *f)).flatten() {
            Some(next) => scaled = Some(next),
            None => *f = 1.0,
        }
    }
    match scaled {
        Some(table) => {
            cell.sig = drifted_sig(cell.base_sig, &factors);
            cell.table = table;
        }
        None => {
            cell.sig = cell.base_sig;
            cell.table = cell.base_table.clone();
        }
    }
    cell.keys = plan_keys(cell.device_hash, cell.app_sig, cell.sig);
    cell.factors = factors;
}

/// The signature of the table signed `base_sig` with `factors` applied:
/// FNV-1a over `base_sig` and the factors' bits in `PuClass` order. A
/// drifted table is a pure function of the two, so it is signed without
/// rendering it.
fn drifted_sig(base_sig: u64, factors: &[f64; PuClass::COUNT]) -> u64 {
    let words = std::iter::once(base_sig).chain(factors.iter().map(|f| f.to_bits()));
    let mut bytes = [0u8; 8 * (1 + PuClass::COUNT)];
    for (at, word) in bytes.chunks_exact_mut(8).zip(words) {
        at.copy_from_slice(&word.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Quantizes an input scale to a half-octave bucket: `2^(bucket/2)`.
fn scale_bucket(scale: f64) -> i32 {
    (scale.log2() * 2.0).round() as i32
}

/// The representative scale factor of a bucket.
fn bucket_factor(bucket: i32) -> f64 {
    2f64.powf(f64::from(bucket) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            profiler: ProfilerConfig {
                reps: 3,
                ..ProfilerConfig::default()
            },
            run: RunConfig {
                tasks: 10,
                warmup: 2,
                ..RunConfig::default()
            },
            eval_lanes: 2,
            ..ServeConfig::default()
        }
    }

    fn request<'a>(objective: PlanObjective) -> PlanRequest<'a> {
        PlanRequest {
            device: "pixel_7a",
            app: "octree",
            input_scale: 1.0,
            fault_history: &[],
            objective,
        }
    }

    #[test]
    fn scale_buckets_quantize_half_octaves() {
        assert_eq!(scale_bucket(1.0), 0);
        assert_eq!(scale_bucket(2.0), 2);
        assert_eq!(scale_bucket(0.5), -2);
        assert_eq!(scale_bucket(1.41), 1);
        // Bucket representative factors invert the quantization.
        assert!((bucket_factor(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn second_request_hits_cache() {
        let service = PlanService::builtin(quick_cfg());
        let req = request(PlanObjective::MinLatency);
        let cold = service.serve(&req).unwrap();
        assert_eq!(cold.from, ServedFrom::ColdSolve);
        let hit = service.serve(&req).unwrap();
        assert_eq!(hit.from, ServedFrom::Cache);
        assert!(Arc::ptr_eq(&cold.artifact, &hit.artifact));
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses, stats.solves), (1, 1, 1));
        assert_eq!(stats.plans, 2, "one solve populates both objectives");
    }

    #[test]
    fn objectives_share_one_solve() {
        let service = PlanService::builtin(quick_cfg());
        let a = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let b = service.serve(&request(PlanObjective::MinEnergy)).unwrap();
        assert_eq!(service.stats().solves, 1);
        assert_eq!(b.from, ServedFrom::Cache);
        assert_eq!(a.artifact.table_sig, b.artifact.table_sig);
    }

    #[test]
    fn energy_plan_never_costs_more_energy() {
        let service = PlanService::builtin(quick_cfg());
        let lat = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let en = service.serve(&request(PlanObjective::MinEnergy)).unwrap();
        assert!(en.artifact.energy_per_task_mj <= lat.artifact.energy_per_task_mj + 1e-12);
        assert!(lat.artifact.measured_us <= en.artifact.measured_us + 1e-12);
    }

    #[test]
    fn drift_invalidates_then_recovery_restores() {
        let service = PlanService::builtin(quick_cfg());
        let pristine = service.serve(&request(PlanObjective::MinLatency)).unwrap();

        // A big observed slowdown on the big cluster → re-solve.
        let history = [(PuClass::BigCpu, 4.0)];
        let faulted = service
            .serve(&PlanRequest {
                fault_history: &history,
                ..request(PlanObjective::MinLatency)
            })
            .unwrap();
        assert_eq!(faulted.from, ServedFrom::ColdSolve);
        assert_ne!(faulted.artifact.table_sig, pristine.artifact.table_sig);
        let stats = service.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.solves, 2);

        // Recovery: factors return to 1.0 → the cell rescales back to
        // the original table signature, under which the pre-fault plan
        // is still cached — so no third solve runs and the exact
        // pre-fault artifact is served again.
        let recovered = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        assert!(Arc::ptr_eq(&recovered.artifact, &pristine.artifact));
        assert_eq!(service.stats().solves, 2);
        assert_eq!(service.stats().invalidations, 2);
        {
            let cells = service.cells.read().expect("cells lock");
            assert_eq!(cells.len(), 1);
            let cell = cells.values().next().expect("one cell");
            let cell = cell.read().expect("cell lock");
            assert_eq!(cell.sig, cell.base_sig, "recovery takes the base signature");
            assert_eq!(cell.sig, json_hash(&cell.table));
        }

        // And with the cell settled back at 1.0, the next request is a
        // pure allocation-free hit.
        let settled = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        assert_eq!(settled.from, ServedFrom::Cache);
    }

    /// The table signature a fresh service serves under one BigCpu
    /// slowdown `factor`.
    fn drifted_table_sig(factor: f64) -> u64 {
        let history = [(PuClass::BigCpu, factor)];
        let service = PlanService::builtin(quick_cfg());
        (service.serve(&PlanRequest {
            fault_history: &history,
            ..request(PlanObjective::MinLatency)
        }))
        .unwrap()
        .artifact
        .table_sig
    }

    #[test]
    fn a_drifted_signature_is_the_base_signature_and_the_applied_factors() {
        let service = PlanService::builtin(quick_cfg());
        let base = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let mut applied = [1.0; PuClass::COUNT];
        applied[PuClass::BigCpu.index()] = 4.0;
        let want = drifted_sig(base.artifact.table_sig, &applied);
        // Two services agree, and agree with the definition.
        assert_eq!(drifted_table_sig(4.0), want);
        assert_eq!(drifted_table_sig(4.0), want);
        assert_ne!(want, base.artifact.table_sig);
        // Another factor on the one class is another table.
        assert_ne!(drifted_table_sig(3.0), want);
    }

    #[test]
    fn unapplied_factors_keep_the_base_signature() {
        let service = PlanService::builtin(quick_cfg());
        service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let cells = service.cells.read().expect("cells lock");
        let mut cell = (cells.values().next().expect("one cell").write()).expect("cell lock");
        // A class the table does not price, and one within EPSILON of 1.
        let (masked, priced) = (PuClass::LittleCpu.index(), PuClass::BigCpu.index());
        cell.class_mask[masked] = false;
        let mut factors = [1.0; PuClass::COUNT];
        factors[masked] = 3.0;
        factors[priced] = 1.0 + f64::EPSILON;
        rescale_cell(&mut cell, factors);
        assert_eq!(cell.sig, cell.base_sig);
        assert_eq!(cell.factors, [1.0; PuClass::COUNT], "stored normalized");
        // Applied beside them, a factor signs as if they were 1.
        factors[priced] = 2.0;
        rescale_cell(&mut cell, factors);
        let mut applied = [1.0; PuClass::COUNT];
        applied[priced] = 2.0;
        assert_eq!(cell.factors, applied);
        assert_eq!(cell.sig, drifted_sig(cell.base_sig, &applied));
    }

    #[test]
    fn a_drifting_cell_keeps_only_base_and_current_plans() {
        let service = PlanService::builtin(quick_cfg());
        let pristine = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let drifted = |factor: f64| {
            let history = [(PuClass::BigCpu, factor)];
            service
                .serve(&PlanRequest {
                    fault_history: &history,
                    ..request(PlanObjective::MinLatency)
                })
                .unwrap()
        };

        // Eight distinct slowdowns, each past the drift threshold of the
        // one before: every step re-solves and evicts its predecessor.
        let first = drifted(1.4);
        for k in 2..=8 {
            assert_eq!(drifted(1.4f64.powi(k)).from, ServedFrom::ColdSolve);
            assert_eq!(service.stats().plans, 4, "base + current, two objectives");
        }
        let stats = service.stats();
        assert_eq!((stats.solves, stats.evictions), (9, 14));

        // Recovery serves the pristine artifact itself, with no solve,
        // and drops the last drifted signature.
        let recovered = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        assert!(Arc::ptr_eq(&recovered.artifact, &pristine.artifact));
        let stats = service.stats();
        assert_eq!((stats.solves, stats.evictions, stats.plans), (9, 16, 2));

        // An evicted factor re-solves to the same content; only the
        // provenance index moves.
        let again = drifted(1.4);
        assert_eq!(again.from, ServedFrom::ColdSolve);
        assert_eq!(service.stats().solves, 10);
        let (a, b) = (&first.artifact, &again.artifact);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.measured_us, b.measured_us);
        assert_eq!(a.energy_per_task_mj, b.energy_per_task_mj);
        assert_eq!(a.table_sig, b.table_sig);
        assert!(b.solve_index > a.solve_index);
    }

    #[test]
    fn small_drift_stays_on_the_hit_path() {
        let service = PlanService::builtin(quick_cfg());
        service.serve(&request(PlanObjective::MinLatency)).unwrap();
        // 10% observed slowdown < 30% threshold: same cell, same plan.
        let history = [(PuClass::BigCpu, 1.1)];
        let resp = service
            .serve(&PlanRequest {
                fault_history: &history,
                ..request(PlanObjective::MinLatency)
            })
            .unwrap();
        assert_eq!(resp.from, ServedFrom::Cache);
        assert_eq!(service.stats().solves, 1);
    }

    #[test]
    fn batch_groups_misses_onto_one_solve() {
        let service = PlanService::builtin(quick_cfg());
        let reqs: Vec<PlanRequest<'_>> = (0..24)
            .map(|i| {
                request(if i % 2 == 0 {
                    PlanObjective::MinLatency
                } else {
                    PlanObjective::MinEnergy
                })
            })
            .collect();
        let responses = service.serve_batch(&reqs).unwrap();
        assert_eq!(responses.len(), 24);
        assert!(responses.iter().all(|r| r.from == ServedFrom::ColdSolve));
        let stats = service.stats();
        assert_eq!(stats.solves, 1, "24 cold requests, one batched solve");
        assert_eq!(stats.misses, 24);
        // Identical follow-up burst is all hits.
        let again = service.serve_batch(&reqs).unwrap();
        assert!(again.iter().all(|r| r.from == ServedFrom::Cache));
        assert_eq!(service.stats().solves, 1);
    }

    #[test]
    fn input_scale_changes_the_plan_cell() {
        let service = PlanService::builtin(quick_cfg());
        let base = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let scaled = service
            .serve(&PlanRequest {
                input_scale: 4.0,
                ..request(PlanObjective::MinLatency)
            })
            .unwrap();
        assert_eq!(scaled.from, ServedFrom::ColdSolve);
        assert_ne!(
            (base.artifact.key_hi, base.artifact.key_lo),
            (scaled.artifact.key_hi, scaled.artifact.key_lo)
        );
        assert!(
            scaled.artifact.measured_us > base.artifact.measured_us,
            "4× the work should measure slower"
        );
        assert_eq!(service.stats().cells, 2);
    }

    #[test]
    fn unknown_names_and_bad_scales_error() {
        let service = PlanService::builtin(quick_cfg());
        let bad_device = PlanRequest {
            device: "vax_11",
            ..request(PlanObjective::MinLatency)
        };
        assert!(matches!(
            service.serve(&bad_device),
            Err(ServeError::UnknownDevice(_))
        ));
        let bad_scale = PlanRequest {
            input_scale: -1.0,
            ..request(PlanObjective::MinLatency)
        };
        assert!(matches!(
            service.serve(&bad_scale),
            Err(ServeError::BadScale(_))
        ));
        let history = [(PuClass::Gpu, f64::NAN)];
        let bad_factor = PlanRequest {
            fault_history: &history,
            ..request(PlanObjective::MinLatency)
        };
        assert!(matches!(
            service.serve(&bad_factor),
            Err(ServeError::BadFaultFactor { .. })
        ));
    }

    /// Asserts every cell's stored keys are those of its signature.
    fn assert_keys_current(service: &PlanService) {
        for cell in service.cells.read().expect("cells lock").values() {
            let cell = cell.read().expect("cell lock");
            for o in OBJECTIVES {
                let derived = PlanKey::derive(cell.device_hash, cell.app_sig, cell.sig, o.tag());
                assert_eq!(cell.key(o), derived, "{o:?}");
            }
        }
    }

    #[test]
    fn stored_keys_follow_every_signature_change() {
        for (slot, o) in OBJECTIVES.iter().enumerate() {
            assert_eq!(*o as usize, slot);
        }
        let service = PlanService::builtin(quick_cfg());
        let serve = |history: &[(PuClass, f64)], objective, input_scale| {
            let resp = service
                .serve(&PlanRequest {
                    fault_history: history,
                    input_scale,
                    ..request(objective)
                })
                .unwrap();
            assert_keys_current(&service);
            resp
        };
        use PlanObjective::{MinEnergy, MinLatency};
        let warm = serve(&[], MinLatency, 1.0);
        let key = |a: &PlanArtifact| (a.key_hi, a.key_lo);
        assert_eq!(serve(&[], MinEnergy, 1.0).from, ServedFrom::Cache);
        serve(&[(PuClass::BigCpu, 1.1)], MinLatency, 1.0);
        let slow4 = [(PuClass::BigCpu, 4.0)];
        let drift4 = serve(&slow4, MinLatency, 1.0);
        serve(&slow4, MinEnergy, 1.0);
        serve(&[(PuClass::BigCpu, 2.0)], MinLatency, 1.0);
        let recovered = serve(&[], MinLatency, 1.0);
        assert_eq!(key(&recovered.artifact), key(&warm.artifact));
        let again4 = serve(&slow4, MinLatency, 1.0);
        assert_eq!(key(&again4.artifact), key(&drift4.artifact));
        serve(&[], MinLatency, 2.0);
        assert_eq!(service.stats().cells, 2);
    }

    /// A registry directory that registers `name` with `spec_file`, a
    /// copy of the committed `devices/` file of that name.
    fn registry_dir(tag: &str, name: &str, spec_file: &str) -> std::path::PathBuf {
        let devices = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../devices");
        let dir = std::env::temp_dir().join(format!("bt-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(devices.join(spec_file), dir.join(spec_file)).unwrap();
        std::fs::write(
            dir.join("registry.json"),
            format!(
                r#"{{"devices":[{{"name":"{name}","file":"{spec_file}","description":"test"}}]}}"#
            ),
        )
        .unwrap();
        dir
    }

    #[test]
    fn a_re_registered_device_serves_its_new_spec() {
        let mut service = PlanService::builtin(quick_cfg());
        let req = request(PlanObjective::MinLatency);
        let old = service.serve(&req).unwrap();
        service
            .serve(&PlanRequest {
                input_scale: 2.0,
                ..req
            })
            .unwrap();
        let oneplus = PlanRequest {
            device: "oneplus_11",
            ..req
        };
        let kept = service.serve(&oneplus).unwrap();
        assert_eq!(service.stats().cells, 3);

        // Point pixel_7a at the rk3588 spec.
        let dir = registry_dir("reregister", "pixel_7a", "rk3588.json");
        let (idx, _) = service.registry().get("pixel_7a").unwrap();
        service.load_devices(&dir).unwrap();
        assert_eq!(service.registry().get("pixel_7a").unwrap().0, idx);
        // Both pixel_7a cells and their four plans are gone; the other
        // device's cell and plans stay.
        let stats = service.stats();
        assert_eq!((stats.cells, stats.plans, stats.evictions), (1, 2, 4));
        let still = service.serve(&oneplus).unwrap();
        assert_eq!(still.from, ServedFrom::Cache);
        assert!(Arc::ptr_eq(&still.artifact, &kept.artifact));

        let new = service.serve(&req).unwrap();
        assert_eq!(new.from, ServedFrom::ColdSolve);
        assert_ne!(new.artifact.key_hi, old.artifact.key_hi);
        // The same answer a service that never saw the old spec gives.
        let mut fresh = PlanService::builtin(quick_cfg());
        fresh.load_devices(&dir).unwrap();
        let reference = fresh.serve(&req).unwrap();
        assert_eq!(new.artifact.to_json(), reference.artifact.to_json());

        // Loading the same registry again changes no hash: nothing drops.
        service.load_devices(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let hit = service.serve(&req).unwrap();
        assert_eq!(hit.from, ServedFrom::Cache);
        assert!(Arc::ptr_eq(&hit.artifact, &new.artifact));
    }

    #[test]
    fn a_re_registered_app_keeps_its_index_and_drops_its_cells() {
        let mut service = PlanService::builtin(quick_cfg());
        let names: Vec<String> = service.app_names().iter().map(|s| s.to_string()).collect();
        service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let dense = PlanRequest {
            app: "alexnet-dense",
            ..request(PlanObjective::MinLatency)
        };
        service.serve(&dense).unwrap();
        let octree = service.app_by_name.get("octree").unwrap();

        let mut model =
            bt_kernels::apps::octree_app(bt_kernels::apps::OctreeConfig::default()).model();
        for stage in &mut model.stages {
            stage.work = stage.work.scaled(3.0);
        }
        assert_eq!(service.register_app(model), octree);
        assert_eq!(service.app_names(), names);
        let stats = service.stats();
        assert_eq!((stats.cells, stats.plans), (1, 2));
        assert_eq!(service.serve(&dense).unwrap().from, ServedFrom::Cache);
        let heavier = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        assert_eq!(heavier.from, ServedFrom::ColdSolve);
    }

    #[test]
    fn near_miss_names_are_unknown() {
        let service = PlanService::builtin(quick_cfg());
        for device in ["", "pixel_7", "pixel_7a ", "Pixel_7a", "pixel_7a\0"] {
            let req = PlanRequest {
                device,
                ..request(PlanObjective::MinLatency)
            };
            assert!(
                matches!(service.serve(&req), Err(ServeError::UnknownDevice(ref n)) if n == device),
                "{device:?}"
            );
        }
        for app in ["", "octre", "octree ", "Octree", "alexnet"] {
            let req = PlanRequest {
                app,
                ..request(PlanObjective::MinLatency)
            };
            assert!(
                matches!(service.serve(&req), Err(ServeError::UnknownApp(ref n)) if n == app),
                "{app:?}"
            );
        }
        assert_eq!(service.stats().misses, 0, "an unknown name is no request");
    }

    #[test]
    fn artifacts_validate_against_their_backend() {
        let service = PlanService::builtin(quick_cfg());
        let resp = service.serve(&request(PlanObjective::MinLatency)).unwrap();
        let backend = SimBackend::new(
            bt_soc::devices::pixel_7a(),
            bt_kernels::apps::octree_app(bt_kernels::apps::OctreeConfig::default()).model(),
        );
        resp.artifact.validate(&backend).unwrap();
        // And round-trips for replay.
        let json = resp.artifact.to_json();
        let back = PlanArtifact::from_json(&json).unwrap();
        assert_eq!(*resp.artifact, back);
    }
}
