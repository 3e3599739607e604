//! BT-Optimizer (§3.3 of the paper): the three-level schedule optimizer.
//!
//! 1. **Utilization** — the filter C3a, `T_min ≥ θ·T_max`
//!    ([`OptimizerConfig::threshold`]), keeps only schedules whose every
//!    chunk is busy for at least θ of the bottleneck, matching the
//!    conditions the interference-aware profiles were collected under;
//!    θ = 0 is the latency-only ranking of Fig. 5b. The paper's gapness
//!    minimisation O1 is not implemented: any one-chunk schedule has
//!    gapness 0, so O1 picks only homogeneous schedules (0–414 % regret
//!    against the simulator's best on the 12 builtin device × {octree,
//!    dense, sparse} cells), and restricted to ≥ 2 chunks it beats θ = 0
//!    on none of them, where θ = 0 is within 0.16 %.
//! 2. **Latency** — generate a set of 𝒦 diverse candidates (blocking
//!    previously found solutions, constraint C5) among those the filter
//!    admits, and sort by predicted latency `T_max`.
//! 3. **Autotuning** — execute the top candidates for real (here: in the
//!    discrete-event simulator) and pick the measured best.
//!
//! Two interchangeable engines implement levels 1–2, each with the filter
//! inside its search: the exact enumerator (fast path — the schedule
//! space is small) and the SAT encoding (the z3-faithful path, the
//! utilization bound inside its windows); they return the same admitted
//! set, tested on every paper cell.
//!
//! Levels 1–2 are one private ranking over one [`DagProblem`]. [`optimize`],
//! [`optimize_with`] and [`optimize_dag`] differ in where the class mask
//! and the stage DAG come from and in the executable form an assignment is
//! lowered to ([`Schedule`] or [`DagSchedule`]); a chain-shaped graph gets
//! the same numbers through any of them.

use bt_kernels::TaskGraph;
use bt_pipeline::{DagSchedule, Schedule};
use bt_profiler::ProfilingTable;
use bt_soc::parallel::fan_out;
use bt_soc::{Micros, PuClass, SocSpec};
use bt_solver::{DagProblem, Eval, StageDag};

use serde::{Deserialize, Serialize};

use crate::backend::ExecutionBackend;
use crate::BtError;

/// Which optimization engine produces the candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverEngine {
    /// Exact enumeration of the contiguous-partition space (fast path).
    Exact,
    /// The CDCL/SAT encoding with blocking clauses (z3-faithful path).
    Sat,
}

/// Configuration of levels 1–2.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Number of diverse candidates to produce (the paper uses 𝒦 = 20).
    pub candidates: usize,
    /// The θ of the utilization filter `T_min ≥ θ·T_max` (C3a); 0
    /// disables it (the "latency-only" comparison model of Fig. 5b).
    pub threshold: f64,
    /// Candidate-generation engine.
    pub engine: SolverEngine,
    /// Optional cap on chunks (dispatcher threads) per schedule; a cap of
    /// zero is a [`BtError::Problem`].
    pub max_chunks: Option<usize>,
}

impl OptimizerConfig {
    /// The default configuration under utilization threshold θ.
    pub fn with_threshold(threshold: f64) -> OptimizerConfig {
        OptimizerConfig {
            threshold,
            ..OptimizerConfig::default()
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            candidates: 20,
            threshold: 0.45,
            engine: SolverEngine::Exact,
            max_chunks: None,
        }
    }
}

/// One candidate schedule with its model predictions: a [`Schedule`] for
/// a chain, a [`DagSchedule`] ([`DagCandidate`]) for a fork/join
/// application — that one records whether a stage is replicated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Candidate<S> {
    /// The validated stage → PU mapping.
    pub schedule: S,
    /// Predicted pipeline latency (`T_max`, the bottleneck chunk; replica
    /// chunks priced at half service).
    pub predicted: Micros,
    /// Predicted gapness (`T_max − T_min`).
    pub gapness: Micros,
    /// Predicted per-chunk runtimes, in the schedule's chunk order.
    pub chunk_sums: Vec<Micros>,
}

/// A fork/join candidate.
pub type DagCandidate = Candidate<DagSchedule>;

impl<S> Candidate<S> {
    /// `schedule` at the solver's prices for it.
    fn priced(schedule: S, eval: &Eval) -> Candidate<S> {
        Candidate {
            schedule,
            predicted: Micros::new(eval.t_max),
            gapness: Micros::new(eval.gapness()),
            chunk_sums: eval.chunk_sums.iter().map(|&s| Micros::new(s)).collect(),
        }
    }
}

/// The classes of `table` that `soc` can pin work to.
fn schedulable_on(soc: &SocSpec) -> impl Fn(PuClass) -> bool + '_ {
    |c| soc.pu(c).map(|p| p.schedulable()).unwrap_or(false)
}

/// The solver instance every builder and every optimizer entry makes: the
/// table's latency matrix over `graph`'s dependency structure (the chain
/// of the table's stages without one), classes outside `schedulable`
/// disallowed, at most `max_chunks` chunks.
fn problem_over(
    table: &ProfilingTable,
    schedulable: impl Fn(PuClass) -> bool,
    max_chunks: Option<usize>,
    graph: Option<&TaskGraph>,
) -> Result<DagProblem, BtError> {
    let problem = match graph {
        Some(graph) => {
            let dag = StageDag::new(graph.len(), graph.deps().to_vec())?;
            DagProblem::new(table.to_matrix(), dag)?
        }
        None => DagProblem::chain(table.to_matrix())?,
    };
    let allowed: Vec<bool> = table.classes().iter().map(|&c| schedulable(c)).collect();
    let problem = problem.with_allowed(allowed)?;
    Ok(match max_chunks {
        Some(k) => problem.with_max_chunks(k)?,
        None => problem,
    })
}

/// Builds the solver instance for a device/table pair: the latency matrix
/// restricted to classes present in the table, with unschedulable classes
/// (e.g. unpinnable clusters) disallowed, over the chain of its stages.
pub fn build_problem(soc: &SocSpec, table: &ProfilingTable) -> Result<DagProblem, BtError> {
    problem_over(table, schedulable_on(soc), None, None)
}

/// Builds the solver instance for a device/table/graph triple:
/// [`build_problem`] over the graph's dependency structure.
///
/// # Errors
///
/// Returns [`BtError`] if the table or graph cannot form a valid problem.
pub fn build_dag_problem(
    soc: &SocSpec,
    table: &ProfilingTable,
    graph: &TaskGraph,
) -> Result<DagProblem, BtError> {
    problem_over(table, schedulable_on(soc), None, Some(graph))
}

/// The utilization filter C3a, `T_min ≥ θ·T_max`; θ ≤ 0 admits all.
fn admits(threshold: f64, t_max: f64, t_min: f64) -> bool {
    threshold <= 0.0 || t_min >= threshold * t_max
}

/// Levels 1–2 over one problem: up to `cfg.candidates` of its schedules
/// that the utilization filter admits and `lower` can put in executable
/// form, sorted by `(T_max, gapness, assignment)`.
///
/// Solver validity is necessary for an executable schedule, not sufficient
/// (a [`DagSchedule`] also requires single-entry/exit token routing): an
/// assignment `lower` refuses is skipped, never counted among the 𝒦.
fn rank<S>(
    problem: &DagProblem,
    cfg: &OptimizerConfig,
    lower: impl Fn(&[usize]) -> Option<S>,
) -> Result<Vec<Candidate<S>>, BtError> {
    let candidates: Vec<Candidate<S>> = match cfg.engine {
        SolverEngine::Exact => {
            // The Fig. 2 loop re-enters this path on every run, so the
            // space is searched bounded by the K-th best T_max and the
            // filter, and only the final K are lowered. A refused
            // assignment is excluded and the search rerun, which leaves
            // the K best lowerable.
            let mut refused: Vec<Vec<usize>> = Vec::new();
            loop {
                let top =
                    problem.latency_top_k(cfg.candidates, cfg.threshold, |assignment, _, _| {
                        !refused.iter().any(|r| r == assignment)
                    });
                let known = refused.len();
                let lowered: Vec<Candidate<S>> = (top.iter())
                    .filter_map(|eval| match lower(&eval.assignment) {
                        Some(schedule) => Some(Candidate::priced(schedule, eval)),
                        None => {
                            refused.push(eval.assignment.clone());
                            None
                        }
                    })
                    .collect();
                if refused.len() == known {
                    break lowered;
                }
            }
        }
        SolverEngine::Sat => {
            // Generate by ascending T_max on one solver session, the
            // utilization bound inside its windows; `admits` stays as the
            // exact post-check of the window's 1e-9 slack.
            (problem.latency_enumerator(cfg.threshold))
                .map(|(_, assignment)| problem.evaluate(&assignment))
                .filter(|e| admits(cfg.threshold, e.t_max, e.t_min))
                .filter_map(|e| Some(Candidate::priced(lower(&e.assignment)?, &e)))
                .take(cfg.candidates)
                .collect()
        }
    };
    if candidates.is_empty() {
        return Err(BtError::NoCandidates);
    }
    Ok(candidates)
}

/// Levels 1–2: produce up to `cfg.candidates` schedules, utilization-
/// filtered and sorted by predicted latency.
///
/// # Errors
///
/// Returns [`BtError`] if the table cannot form a valid problem or no
/// schedule survives the filter.
pub fn optimize(
    soc: &SocSpec,
    table: &ProfilingTable,
    cfg: &OptimizerConfig,
) -> Result<Vec<Candidate<Schedule>>, BtError> {
    optimize_with(table, cfg, schedulable_on(soc))
}

/// [`optimize`] against an arbitrary class-admission predicate instead of
/// a device model — the form the generic framework drives, letting any
/// [`ExecutionBackend`] supply its own schedulability mask.
///
/// # Errors
///
/// Returns [`BtError`] if the table cannot form a valid problem or no
/// schedule survives the filter.
pub fn optimize_with(
    table: &ProfilingTable,
    cfg: &OptimizerConfig,
    schedulable: impl Fn(PuClass) -> bool,
) -> Result<Vec<Candidate<Schedule>>, BtError> {
    let problem = problem_over(table, schedulable, cfg.max_chunks, None)?;
    rank(&problem, cfg, |assignment| {
        Schedule::from_class_indices(assignment, table.classes()).ok()
    })
}

/// Levels 1–2 over a fork/join application: produce up to
/// `cfg.candidates` DAG schedules, utilization-filtered and sorted by
/// predicted latency — [`optimize`] with contiguity (C2) read as per-path
/// convexity, so parallel branches are free to occupy disjoint PUs. A
/// chain-shaped graph gets [`optimize`]'s candidates, bit for bit.
///
/// # Errors
///
/// Returns [`BtError`] if the problem cannot be built or no schedule
/// survives the filter.
pub fn optimize_dag(
    soc: &SocSpec,
    table: &ProfilingTable,
    graph: &TaskGraph,
    cfg: &OptimizerConfig,
) -> Result<Vec<DagCandidate>, BtError> {
    let problem = problem_over(table, schedulable_on(soc), cfg.max_chunks, Some(graph))?;
    rank(&problem, cfg, |assignment| {
        let classes = assignment.iter().map(|&i| table.classes()[i]).collect();
        DagSchedule::new(classes, graph).ok()
    })
}

/// One candidate's level-3 measurement, tagged with the index of the
/// candidate it belongs to so the pairing survives reordering and
/// serialization round-trips (nothing downstream has to assume the
/// measurement vector is parallel to the candidate vector).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateMeasurement {
    /// Index into the candidate slice passed to [`autotune`].
    pub candidate_index: usize,
    /// Measured per-task latency of that candidate.
    pub latency: Micros,
    /// Telemetry from the measurement run (`None` unless the backend's
    /// [`bt_soc::RunConfig::telemetry`] enabled collection — the same
    /// field on both the simulator and the host).
    #[serde(default)]
    pub telemetry: Option<bt_telemetry::RunTelemetry>,
}

/// Level 3 result: measured latencies for every candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotuneOutcome {
    /// Per-candidate measurements, each tagged with its candidate index.
    pub measured: Vec<CandidateMeasurement>,
    /// Candidate index of the measured-best candidate.
    pub best_index: usize,
    /// Total virtual time spent evaluating candidates (the paper reports
    /// ≈200 s per device/application for 𝒦 = 20 at 10 s each).
    pub evaluation_cost: Micros,
}

impl AutotuneOutcome {
    /// Resolves a candidate index to its measurement. [`autotune`] pushes
    /// measurements in candidate order, so position `i` normally carries
    /// tag `i` and the lookup is a direct index; the tagged-index contract
    /// still governs — a reordered or partially persisted vector falls
    /// back to a scan of the tags.
    fn lookup(&self, candidate_index: usize) -> Option<&CandidateMeasurement> {
        match self.measured.get(candidate_index) {
            Some(m) if m.candidate_index == candidate_index => Some(m),
            _ => self
                .measured
                .iter()
                .find(|m| m.candidate_index == candidate_index),
        }
    }

    /// The measured latency of candidate `candidate_index`, if it was
    /// evaluated.
    pub fn measured_latency(&self, candidate_index: usize) -> Option<Micros> {
        self.lookup(candidate_index).map(|m| m.latency)
    }

    /// The measurement of the measured-best candidate.
    pub fn best(&self) -> Option<&CandidateMeasurement> {
        self.lookup(self.best_index)
    }
}

/// Level 3: execute every candidate on the backend and pick the measured
/// best (the paper runs each for a fixed interval on the device).
///
/// Telemetry enabled in the backend's run configuration is collected
/// independently for every candidate run and attached to its
/// [`CandidateMeasurement`].
///
/// When the backend's
/// [`parallel_measure_hint`](ExecutionBackend::parallel_measure_hint) is
/// set, candidate runs fan out over scoped worker threads; each run keeps
/// its serial `run_index` (so simulator seeds are unchanged) and results
/// merge in candidate order, making the outcome byte-identical to the
/// serial sweep.
///
/// # Errors
///
/// Propagates backend measurement errors.
pub fn autotune<B: ExecutionBackend>(
    backend: &B,
    candidates: &[Candidate<Schedule>],
) -> Result<AutotuneOutcome, BtError> {
    if candidates.is_empty() {
        return Err(BtError::NoCandidates);
    }
    let runs = fan_out(candidates.len(), backend.parallel_measure_hint(), |i| {
        backend.measure(&candidates[i].schedule, i as u64)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut measured = Vec::with_capacity(candidates.len());
    let mut cost = Micros::ZERO;
    for (i, m) in runs.into_iter().enumerate() {
        cost += m.makespan;
        measured.push(CandidateMeasurement {
            candidate_index: i,
            latency: m.latency,
            telemetry: m.telemetry,
        });
    }
    debug_assert!(
        measured
            .iter()
            .enumerate()
            .all(|(i, m)| m.candidate_index == i),
        "autotune emits measurements in candidate order"
    );
    let best_index = measured
        .iter()
        .min_by(|a, b| {
            a.latency
                .partial_cmp(&b.latency)
                .expect("latencies are finite")
        })
        .map(|m| m.candidate_index)
        .expect("non-empty");
    Ok(AutotuneOutcome {
        measured,
        best_index,
        evaluation_cost: cost,
    })
}

/// Searches for the best *replication* of `stage`: the stage runs on both
/// classes of an exclusive pair (each replica serving alternate tasks at
/// half steady-state demand) while the remaining stages are assigned
/// optimally around it. Returns the bottleneck-minimizing plan as an
/// executable [`DagCandidate`].
///
/// # Errors
///
/// Returns [`BtError::NoCandidates`] when no exclusive pair leaves enough
/// classes for the remaining stages, or the best solver plan cannot be
/// realized as an executable schedule.
pub fn optimize_replicated(
    soc: &SocSpec,
    table: &ProfilingTable,
    graph: &TaskGraph,
    stage: usize,
) -> Result<DagCandidate, BtError> {
    let problem = build_dag_problem(soc, table, graph)?;
    let plan = problem
        .best_replication(stage)
        .ok_or(BtError::NoCandidates)?;
    let eval = problem.evaluate_replicated(&plan);
    let palette = table.classes();
    let (c1, c2) = plan.classes;
    let classes: Vec<PuClass> = plan
        .assignment
        .iter()
        .enumerate()
        .map(|(s, &i)| if s == stage { palette[c1] } else { palette[i] })
        .collect();
    let schedule = DagSchedule::replicated(classes, graph, stage, (palette[c1], palette[c2]))?;
    Ok(Candidate::priced(schedule, &eval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use bt_kernels::{apps, AppModel};
    use bt_profiler::{profile, ProfileMode, ProfilerConfig};
    use bt_soc::devices;
    use bt_soc::RunConfig;
    use bt_solver::enumerate::for_each_schedule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (SocSpec, AppModel, ProfilingTable) {
        let soc = devices::pixel_7a();
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let table = profile(
            &soc,
            &app,
            ProfileMode::InterferenceHeavy,
            &ProfilerConfig::default(),
        );
        (soc, app, table)
    }

    #[test]
    fn candidates_are_sorted_distinct_and_valid() {
        let (soc, _, table) = setup();
        let cands = optimize(&soc, &table, &OptimizerConfig::default()).unwrap();
        assert!(!cands.is_empty() && cands.len() <= 20);
        for w in cands.windows(2) {
            assert!(w[0].predicted <= w[1].predicted, "sorted by T_max");
            assert_ne!(w[0].schedule, w[1].schedule, "distinct");
        }
        for c in &cands {
            let max = c.chunk_sums.iter().copied().reduce(Micros::max).unwrap();
            assert_eq!(max.as_f64(), c.predicted.as_f64());
        }
    }

    #[test]
    fn exact_and_sat_engines_agree_on_optimum() {
        let (soc, _, table) = setup();
        let exact = optimize(
            &soc,
            &table,
            &OptimizerConfig {
                engine: SolverEngine::Exact,
                candidates: 5,
                ..OptimizerConfig::with_threshold(0.0)
            },
        )
        .unwrap();
        let sat = optimize(
            &soc,
            &table,
            &OptimizerConfig {
                engine: SolverEngine::Sat,
                candidates: 5,
                ..OptimizerConfig::with_threshold(0.0)
            },
        )
        .unwrap();
        assert!(
            (exact[0].predicted.as_f64() - sat[0].predicted.as_f64()).abs() < 1e-6,
            "optimal T_max must agree: {} vs {}",
            exact[0].predicted,
            sat[0].predicted
        );
    }

    /// The SAT arm returns the admitted set, not a budgeted prefix: on
    /// every paper cell it finds as many candidates as the exact arm, at
    /// the same predicted latencies, and below the tier 𝒦 cuts through
    /// the same schedules (inside that tier the engines may pick
    /// different members). Before the θ-window, pixel_7a × dense came back
    /// with 1 candidate against 12.
    #[test]
    fn sat_arm_returns_the_exact_arms_admitted_set_on_every_paper_cell() {
        let socs = [
            devices::pixel_7a(),
            devices::oneplus_11(),
            devices::jetson_orin_nano(),
            devices::jetson_orin_nano_lp(),
        ];
        let models = [
            apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
            apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
            apps::octree_app(apps::OctreeConfig::default()).model(),
        ];
        for (soc, app) in socs.iter().flat_map(|s| models.iter().map(move |a| (s, a))) {
            let cell = format!("{} x {}", soc.name(), app.name);
            let mode = ProfileMode::InterferenceHeavy;
            let table = profile(soc, app, mode, &ProfilerConfig::default());
            let run = |engine| {
                let cfg = OptimizerConfig {
                    engine,
                    ..OptimizerConfig::default()
                };
                optimize(soc, &table, &cfg).unwrap()
            };
            let (exact, sat) = (run(SolverEngine::Exact), run(SolverEngine::Sat));
            let predicted =
                |cs: &[Candidate<Schedule>]| cs.iter().map(|c| c.predicted).collect::<Vec<_>>();
            assert_eq!(predicted(&sat), predicted(&exact), "{cell}");
            let cut = exact.last().unwrap().predicted;
            let below = |cs: &[Candidate<Schedule>]| {
                let mut set: Vec<Vec<PuClass>> = (cs.iter())
                    .filter(|c| c.predicted < cut)
                    .map(|c| c.schedule.assignment().to_vec())
                    .collect();
                set.sort();
                set
            };
            assert_eq!(below(&sat), below(&exact), "{cell}");
        }
    }

    #[test]
    fn utilization_filter_prunes_unbalanced_schedules() {
        let (soc, _, table) = setup();
        let filtered = optimize(&soc, &table, &OptimizerConfig::with_threshold(0.5)).unwrap();
        for c in &filtered {
            let min = c.chunk_sums.iter().copied().reduce(Micros::min).unwrap();
            assert!(
                min.as_f64() >= 0.5 * c.predicted.as_f64() - 1e-9,
                "schedule {} violates the filter",
                c.schedule
            );
        }
    }

    #[test]
    fn unschedulable_classes_excluded() {
        let soc = devices::oneplus_11();
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let table = profile(
            &soc,
            &app,
            ProfileMode::InterferenceHeavy,
            &ProfilerConfig::default(),
        );
        let cands = optimize(&soc, &table, &OptimizerConfig::default()).unwrap();
        for c in &cands {
            assert!(
                !c.schedule
                    .classes_used()
                    .contains(&bt_soc::PuClass::LittleCpu),
                "OnePlus little cores are unpinnable"
            );
        }
    }

    #[test]
    fn autotune_finds_measured_best() {
        let (soc, app, table) = setup();
        let cands = optimize(&soc, &table, &OptimizerConfig::default()).unwrap();
        let backend = SimBackend::new(soc, app);
        let outcome = autotune(&backend, &cands).unwrap();
        assert_eq!(outcome.measured.len(), cands.len());
        for (i, m) in outcome.measured.iter().enumerate() {
            assert_eq!(m.candidate_index, i, "autotune preserves input order");
        }
        let best = outcome.best().expect("best candidate was measured").latency;
        assert!(outcome.measured.iter().all(|m| best <= m.latency));
        assert!(outcome.evaluation_cost.as_f64() > 0.0);
    }

    #[test]
    fn outcome_lookup_is_index_based_not_positional() {
        // A reordered (e.g. re-sorted or partially persisted) measurement
        // vector must still resolve candidates correctly.
        let outcome = AutotuneOutcome {
            measured: vec![
                CandidateMeasurement {
                    candidate_index: 2,
                    latency: Micros::new(30.0),
                    telemetry: None,
                },
                CandidateMeasurement {
                    candidate_index: 0,
                    latency: Micros::new(50.0),
                    telemetry: None,
                },
                CandidateMeasurement {
                    candidate_index: 1,
                    latency: Micros::new(40.0),
                    telemetry: None,
                },
            ],
            best_index: 2,
            evaluation_cost: Micros::new(120.0),
        };
        assert_eq!(outcome.measured_latency(0), Some(Micros::new(50.0)));
        assert_eq!(outcome.measured_latency(2), Some(Micros::new(30.0)));
        assert_eq!(outcome.measured_latency(9), None);
        assert_eq!(outcome.best().expect("present").latency, Micros::new(30.0));
    }

    #[test]
    fn autotune_threads_telemetry_through_candidates() {
        let (soc, app, table) = setup();
        let cands = optimize(&soc, &table, &OptimizerConfig::default()).unwrap();
        let backend = SimBackend::new(soc, app).with_run(RunConfig {
            telemetry: bt_telemetry::TelemetryConfig::counters_only(),
            ..RunConfig::default()
        });
        let outcome = autotune(&backend, &cands).unwrap();
        for m in &outcome.measured {
            let tele = m.telemetry.as_ref().expect("telemetry requested");
            assert_eq!(tele.source, "des");
            assert!(!tele.dispatchers.is_empty());
        }
    }

    #[test]
    fn max_chunks_cap_limits_dispatcher_count() {
        let (soc, _, table) = setup();
        let capped = optimize(
            &soc,
            &table,
            &OptimizerConfig {
                max_chunks: Some(2),
                ..OptimizerConfig::with_threshold(0.0)
            },
        )
        .unwrap();
        for c in &capped {
            assert!(c.schedule.chunks().len() <= 2, "schedule {}", c.schedule);
        }
    }

    /// A zero cap is a typed error at every door that takes one, not the
    /// solver's panic.
    #[test]
    fn zero_chunk_cap_is_a_typed_error() {
        let refused = |r: Result<(), BtError>| {
            matches!(
                r,
                Err(BtError::Problem(bt_solver::ProblemError::NoChunkAllowed))
            )
        };
        let cfg = OptimizerConfig {
            max_chunks: Some(0),
            ..OptimizerConfig::default()
        };
        let (soc, _, table) = setup();
        assert!(refused(optimize(&soc, &table, &cfg).map(drop)));
        assert!(refused(optimize_with(&table, &cfg, |_| true).map(drop)));
        let (soc, app, table) = dag_setup();
        assert!(refused(
            optimize_dag(&soc, &table, &app.task_graph(), &cfg).map(drop)
        ));
    }

    fn dag_setup() -> (SocSpec, AppModel, ProfilingTable) {
        let soc = devices::pixel_7a();
        let app = apps::perception_app(apps::PerceptionConfig::default()).model();
        let table = profile(
            &soc,
            &app,
            ProfileMode::InterferenceHeavy,
            &ProfilerConfig::default(),
        );
        (soc, app, table)
    }

    #[test]
    fn dag_candidates_are_sorted_valid_and_graph_bound() {
        let (soc, app, table) = dag_setup();
        let graph = app.task_graph();
        let cfg = OptimizerConfig {
            candidates: 10,
            ..OptimizerConfig::with_threshold(0.0)
        };
        let cands = optimize_dag(&soc, &table, &graph, &cfg).unwrap();
        assert!(!cands.is_empty() && cands.len() <= 10);
        for w in cands.windows(2) {
            assert!(w[0].predicted <= w[1].predicted, "sorted by T_max");
            assert_ne!(w[0].schedule, w[1].schedule, "distinct");
        }
        for c in &cands {
            // Every candidate validates against the application's graph.
            assert_eq!(c.schedule.stage_count(), app.stage_count());
            assert!(c.schedule.replicated_stage().is_none());
            let max = c.chunk_sums.iter().copied().reduce(Micros::max).unwrap();
            assert_eq!(max.as_f64(), c.predicted.as_f64());
        }
    }

    #[test]
    fn dag_exact_and_sat_engines_agree_on_optimum() {
        let (soc, app, table) = dag_setup();
        let graph = app.task_graph();
        let mk = |engine| OptimizerConfig {
            engine,
            candidates: 5,
            ..OptimizerConfig::with_threshold(0.0)
        };
        let exact = optimize_dag(&soc, &table, &graph, &mk(SolverEngine::Exact)).unwrap();
        let sat = optimize_dag(&soc, &table, &graph, &mk(SolverEngine::Sat)).unwrap();
        assert!(
            (exact[0].predicted.as_f64() - sat[0].predicted.as_f64()).abs() < 1e-6,
            "optimal T_max must agree: {} vs {}",
            exact[0].predicted,
            sat[0].predicted
        );
        // Under the default θ both arms admit the same schedules, so they
        // agree on the whole predicted sequence, not just its head.
        let mk = |engine| OptimizerConfig {
            engine,
            ..OptimizerConfig::default()
        };
        let exact = optimize_dag(&soc, &table, &graph, &mk(SolverEngine::Exact)).unwrap();
        let sat = optimize_dag(&soc, &table, &graph, &mk(SolverEngine::Sat)).unwrap();
        let predicted = |cs: &[DagCandidate]| cs.iter().map(|c| c.predicted).collect::<Vec<_>>();
        assert_eq!(predicted(&sat), predicted(&exact));
    }

    #[test]
    fn dag_chain_graph_matches_linear_optimizer() {
        // One door, one price: a chain-shaped graph takes the same solver
        // arm through `optimize_dag` as the app does through `optimize`,
        // so the two agree to the last bit on either engine.
        let (soc, app, table) = setup();
        let graph = app.task_graph();
        for engine in [SolverEngine::Exact, SolverEngine::Sat] {
            let cfg = OptimizerConfig {
                engine,
                ..OptimizerConfig::with_threshold(0.0)
            };
            let linear = optimize(&soc, &table, &cfg).unwrap();
            let dag = optimize_dag(&soc, &table, &graph, &cfg).unwrap();
            assert_eq!(linear.len(), dag.len(), "{engine:?}");
            let bits = |sums: &[Micros]| -> Vec<u64> {
                sums.iter().map(|s| s.as_f64().to_bits()).collect()
            };
            for (l, d) in linear.iter().zip(&dag) {
                assert!(d.schedule.is_chain());
                assert_eq!(d.schedule.assignment(), l.schedule.assignment());
                assert_eq!(
                    bits(&[l.predicted, l.gapness]),
                    bits(&[d.predicted, d.gapness])
                );
                assert_eq!(bits(&l.chunk_sums), bits(&d.chunk_sums), "{engine:?}");
            }
        }
    }

    #[test]
    fn dag_beats_linearized_on_branching_app() {
        // The point of the generalization: on the fork/join perception
        // app, freeing parallel branches from a forced linear order must
        // not lose to the best linearization — and strictly beats it in
        // the predicted model here.
        let (soc, app, table) = dag_setup();
        let graph = app.task_graph();
        let cfg = OptimizerConfig::with_threshold(0.0);
        let dag = optimize_dag(&soc, &table, &graph, &cfg).unwrap();
        // Best schedule over a *linearization*: same stages treated as a
        // chain in the linearized stage order.
        let linear = optimize(&soc, &table, &cfg).unwrap();
        assert!(
            dag[0].predicted.as_f64() <= linear[0].predicted.as_f64() + 1e-9,
            "DAG optimum {} must not lose to linearized optimum {}",
            dag[0].predicted,
            linear[0].predicted
        );
    }

    #[test]
    fn replication_halves_a_dominant_bottleneck() {
        let (soc, app, table) = dag_setup();
        let graph = app.task_graph();
        let cfg = OptimizerConfig::with_threshold(0.0);
        let best = optimize_dag(&soc, &table, &graph, &cfg).unwrap();
        // Find the measured bottleneck stage of the best plain schedule:
        // the single stage whose chunk dominates T_max.
        let bottleneck = {
            let s = &best[0].schedule;
            let idx = best[0]
                .chunk_sums
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            s.chunks()[idx].stages[0]
        };
        if let Ok(rep) = optimize_replicated(&soc, &table, &graph, bottleneck) {
            assert_eq!(
                rep.schedule.replicated_stage().map(|(s, _)| s),
                Some(bottleneck)
            );
            // The replicated plan prices its replica chunks at half rate;
            // its T_max must be internally consistent.
            let max = rep.chunk_sums.iter().copied().reduce(Micros::max).unwrap();
            assert_eq!(max.as_f64(), rep.predicted.as_f64());
        }
    }

    #[test]
    fn replicated_candidate_names_both_classes() {
        // A 3-stage chain with a fat middle stage: replication must place
        // the middle stage on an exclusive class pair.
        let table = ProfilingTable::new(
            "app",
            "dev",
            ProfileMode::InterferenceHeavy,
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                PuClass::BigCpu,
                PuClass::Gpu,
                PuClass::LittleCpu,
                PuClass::MediumCpu,
            ],
            vec![
                vec![
                    Micros::new(10.0),
                    Micros::new(5.0),
                    Micros::new(4.0),
                    Micros::new(6.0),
                ],
                vec![
                    Micros::new(40.0),
                    Micros::new(24.0),
                    Micros::new(80.0),
                    Micros::new(60.0),
                ],
                vec![
                    Micros::new(10.0),
                    Micros::new(5.0),
                    Micros::new(4.0),
                    Micros::new(7.0),
                ],
            ],
        );
        let soc = devices::pixel_7a();
        let graph = TaskGraph::chain(3);
        let rep = optimize_replicated(&soc, &table, &graph, 1).unwrap();
        let (stage, (c1, c2)) = rep.schedule.replicated_stage().unwrap();
        assert_ne!(c1, c2);
        assert_eq!(stage, 1);
        // Replicating the dominant middle stage must beat every
        // non-replicated schedule of the same problem.
        let plain =
            optimize_dag(&soc, &table, &graph, &OptimizerConfig::with_threshold(0.0)).unwrap();
        assert!(
            rep.predicted.as_f64() < plain[0].predicted.as_f64(),
            "replicated {} vs best plain {}",
            rep.predicted,
            plain[0].predicted
        );
    }

    /// The Exact arm before the bounded search, kept as the reference:
    /// the whole space streamed, every schedule that enters the running
    /// top-K lowered as it enters.
    fn rank_eager<S>(
        problem: &DagProblem,
        cfg: &OptimizerConfig,
        lower: impl Fn(&[usize]) -> Option<S>,
    ) -> Result<Vec<Candidate<S>>, BtError> {
        let extremes = |sums: &[f64]| {
            let t_max = sums.iter().cloned().fold(f64::MIN, f64::max);
            let t_min = sums.iter().cloned().fold(f64::MAX, f64::min);
            (t_max, t_min)
        };
        let mut top: Vec<(Eval, S)> = Vec::with_capacity(cfg.candidates + 1);
        for_each_schedule(problem, |assignment, sums| {
            let (t_max, t_min) = extremes(sums);
            if !admits(cfg.threshold, t_max, t_min) {
                return;
            }
            let beaten = |(worst, _): &(Eval, S)| t_max > worst.t_max;
            if top.len() == cfg.candidates && top.last().is_none_or(beaten) {
                return;
            }
            let eval = Eval::new(assignment.to_vec(), sums.to_vec());
            let at = top.partition_point(|(e, _)| e.by_latency(&eval).is_lt());
            if at == cfg.candidates {
                return;
            }
            let Some(schedule) = lower(assignment) else {
                return;
            };
            top.insert(at, (eval, schedule));
            top.truncate(cfg.candidates);
        });
        if top.is_empty() {
            return Err(BtError::NoCandidates);
        }
        Ok((top.into_iter())
            .map(|(eval, schedule)| Candidate::priced(schedule, &eval))
            .collect())
    }

    /// A ranking with every float as its bit pattern; `None` for
    /// [`BtError::NoCandidates`].
    type Bits = Option<Vec<(Vec<usize>, u64, u64, Vec<u64>)>>;

    fn bits(ranked: Result<Vec<Candidate<Vec<usize>>>, BtError>) -> Bits {
        let ranked = match ranked {
            Ok(ranked) => ranked,
            Err(BtError::NoCandidates) => return None,
            Err(e) => panic!("unexpected error {e:?}"),
        };
        let bits = |m: Micros| m.as_f64().to_bits();
        let ranked = ranked.into_iter().map(|c| {
            let sums = c.chunk_sums.iter().map(|&s| bits(s)).collect();
            (c.schedule, bits(c.predicted), bits(c.gapness), sums)
        });
        Some(ranked.collect())
    }

    /// A lowering that refuses the assignments whose FNV hash, salted
    /// with `seed`, is 0 mod 4 (none when `seed` is `None`).
    fn refusing(seed: Option<u64>) -> impl Fn(&[usize]) -> Option<Vec<usize>> {
        move |a| {
            let refused = seed.is_some_and(|seed| {
                let hash = (a.iter()).fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, &c| {
                    (h ^ c as u64).wrapping_mul(0x0100_0000_01b3)
                });
                hash % 4 == 0
            });
            (!refused).then(|| a.to_vec())
        }
    }

    /// A random chain or fork/join problem, N ≤ 7 and M ≤ 4, with or
    /// without a chunk cap and a masked class; half the time on small
    /// integer latencies, so that `T_max` ties are common.
    fn random_problem(rng: &mut StdRng) -> DagProblem {
        let m = rng.gen_range(2..=4usize);
        let n = rng.gen_range(1..=if m == 4 { 6 } else { 7 });
        let integral = rng.gen_bool(0.5);
        let mut latency = || match integral {
            true => f64::from(rng.gen_range(1..=6u8)),
            false => rng.gen_range(0.5..50.0),
        };
        let lat: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| latency()).collect())
            .collect();
        let mut p = if rng.gen_bool(0.4) {
            DagProblem::chain(lat).unwrap()
        } else {
            let density = rng.gen_range(0.2..0.8);
            let deps = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(density))
                .collect();
            DagProblem::new(lat, StageDag::new(n, deps).unwrap()).unwrap()
        };
        if rng.gen_bool(0.5) {
            p = p.with_max_chunks(rng.gen_range(1..=m)).unwrap();
        }
        if rng.gen_bool(0.3) {
            let masked = rng.gen_range(0..m);
            p = p
                .with_allowed((0..m).map(|c| c != masked).collect())
                .unwrap();
        }
        p
    }

    /// The bounded Exact arm against the eager reference: the same
    /// candidates, floats compared by `to_bits()`, on random chain and
    /// fork/join problems under six thresholds, K ∈ {1, 3, 10, 20}, with
    /// and without a lowering that refuses a seeded subset. The fill
    /// thresholds prune the path arm's search; on the integral latencies
    /// θ = 0.5 and 1.0 meet exact `T_min = θ · T_max` ties, which the
    /// filter admits.
    #[test]
    fn bounded_exact_arm_is_the_eager_top_k() {
        let mut rng = StdRng::seed_from_u64(38);
        let thresholds = [0.0, 0.3, 0.45, 0.5, 0.7, 1.0];
        for case in 0..300 {
            let p = random_problem(&mut rng);
            let seed = rng.gen::<u64>();
            for threshold in thresholds {
                for candidates in [1, 3, 10, 20] {
                    let cfg = OptimizerConfig {
                        candidates,
                        threshold,
                        ..OptimizerConfig::default()
                    };
                    for lower in [refusing(None), refusing(Some(seed))] {
                        let want = bits(rank_eager(&p, &cfg, &lower));
                        let got = bits(rank(&p, &cfg, &lower));
                        assert_eq!(
                            got, want,
                            "case {case}, θ = {threshold}, K = {candidates}: {p:?}"
                        );
                    }
                }
            }
        }
    }

    /// When the best schedule cannot be lowered, the bounded arm reruns
    /// its search without it and still returns the eager reference's K.
    #[test]
    fn refusing_the_best_schedule_reruns_the_search() {
        let p = DagProblem::new(
            vec![
                vec![4.0, 9.0, 6.0],
                vec![7.0, 3.0, 5.0],
                vec![2.0, 8.0, 4.0],
                vec![6.0, 5.0, 3.0],
            ],
            StageDag::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap(),
        )
        .unwrap();
        let cfg = OptimizerConfig {
            candidates: 3,
            ..OptimizerConfig::with_threshold(0.0)
        };
        let best = rank(&p, &cfg, |a| Some(a.to_vec())).unwrap()[0]
            .schedule
            .clone();
        let calls = std::cell::Cell::new(0);
        let lower = |a: &[usize]| {
            calls.set(calls.get() + 1);
            (a != best).then(|| a.to_vec())
        };
        let got = bits(rank(&p, &cfg, lower));
        assert!(
            calls.get() > cfg.candidates,
            "{} lowerings: no rerun",
            calls.get()
        );
        let want = bits(rank_eager(&p, &cfg, |a| (a != best).then(|| a.to_vec())));
        assert_eq!(got, want);
        let got = got.expect("candidates");
        assert_eq!(got.len(), cfg.candidates);
        assert!(got.iter().all(|(a, ..)| *a != best));
    }
}
