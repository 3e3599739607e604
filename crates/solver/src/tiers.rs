//! The tier-search session every window query of both problem types runs
//! on.
//!
//! A chunk sum can only take one of a problem's *tier* values, so a
//! runtime window `[T_min, T_max]` (C3a/C3b) is a pair of tier indices. A
//! session states the structure once — C1, permissions, contiguity or
//! path-convexity, the chunk cap — and keeps two ordered selector
//! families over it: `upper[t]`, "every chunk sum ≤ `sums[t]`", and
//! `lower[t]`, "every chunk sum ≥ `sums[t]`", each tighter selector
//! implying every looser one. A window clause carries the negated
//! selector of the loosest window it is valid for, and a window is solved
//! by *assuming* its two selectors ([`Solver::solve_assuming`]), so the
//! clause database, everything the engine learns and every blocking
//! clause (C5) serve all later windows of the session.
//!
//! Chains state their window clauses eagerly. DAG problems state them
//! lazily, as explanations of a refuted model: an over-full chunk forbids
//! a minimal over-full subset of its stages from sharing the class, an
//! under-full one forbids the class from holding exactly that stage set —
//! both guarded, so neither removes a solution of any other window.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::{Assignment, Lit, ScheduleProblem, SolveResult, SolveStats, Solver, Var};

/// Slack on every window comparison (latencies are microseconds).
pub(crate) const EPS: f64 = 1e-9;

const UPPER: usize = 0;
const LOWER: usize = 1;

/// What a problem type tells the session: its tiers, its structure, and
/// why a model of that structure is not a solution.
pub(crate) trait Tiered: std::fmt::Debug + Send + Sync {
    /// The latency table, permissions, engine and chunk cap.
    fn base(&self) -> &ScheduleProblem;
    /// Sorted distinct values a chunk sum can take.
    fn tier_sums(&self) -> Vec<f64>;
    /// States everything that holds in every window, once.
    fn state(&self, search: &mut TierSearch);
    /// Adds the clauses that explain why `model` is no solution of the
    /// window `[lo, hi]` (tier indices); `false` if it is one — as every
    /// model is when `state` already said everything.
    fn refute(&self, _: &mut TierSearch, _model: &[usize], _lo: usize, _hi: usize) -> bool {
        false
    }
    /// The bottleneck of `model`, found at tier value `tier`.
    fn t_max(&self, tier: f64, _model: &[usize]) -> f64 {
        tier
    }
}

/// One tier search: the persistent clause database (assignment
/// variables, structure, selector families) of one problem. Every query
/// takes that same problem again, to refute models with.
#[derive(Debug)]
pub(crate) struct TierSearch {
    pub(crate) solver: Solver,
    /// `x[s][c]`: stage `s` runs on class `c`.
    pub(crate) x: Vec<Vec<Var>>,
    pub(crate) sums: Vec<f64>,
    /// `[upper, lower]` selectors, created on first use and keyed so that
    /// a smaller key is a tighter bound: `upper[t]` by `t`, `lower[t]` by
    /// `sums.len() − t`.
    selectors: [BTreeMap<usize, Var>; 2],
}

impl TierSearch {
    /// Variables, permissions, C1, the problem's own structure and the
    /// `blocked` schedules.
    pub(crate) fn new(problem: &dyn Tiered, blocked: &[Assignment]) -> TierSearch {
        let base = problem.base();
        let mut solver = Solver::with_engine(base.engine());
        let x: Vec<Vec<Var>> = (0..base.stages())
            .map(|_| (0..base.classes()).map(|_| solver.new_var()).collect())
            .collect();
        for row in &x {
            let lits: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            solver.add_exactly_one(&lits);
            for (c, v) in row.iter().enumerate() {
                if !base.is_allowed(c) {
                    solver.add_clause(&[v.neg()]);
                }
            }
        }
        let mut search = TierSearch {
            solver,
            x,
            sums: problem.tier_sums(),
            selectors: Default::default(),
        };
        problem.state(&mut search);
        for assignment in blocked {
            search.block(assignment);
        }
        search
    }

    /// The selector of `family` under `key`, linked into the family's
    /// implication chain between its nearest existing neighbours.
    fn selector(&mut self, family: usize, key: usize) -> Var {
        if let Some(&v) = self.selectors[family].get(&key) {
            return v;
        }
        let v = self.solver.new_var();
        if let Some((_, tighter)) = self.selectors[family].range(..key).next_back() {
            self.solver.add_clause(&[tighter.neg(), v.pos()]);
        }
        if let Some((_, looser)) = self.selectors[family].range(key..).next() {
            self.solver.add_clause(&[v.neg(), looser.pos()]);
        }
        self.selectors[family].insert(key, v);
        v
    }

    /// No chunk on `class` may contain all of `stages`: together they sum
    /// to `sum`, and any superset sums at least as high (floating-point
    /// addition is monotone). Guarded by the loosest upper selector that
    /// excludes `sum`.
    pub(crate) fn forbid_over(
        &mut self,
        class: usize,
        stages: impl Iterator<Item = usize>,
        sum: f64,
    ) {
        let fitting_from = self.sums.partition_point(|&s| s + EPS < sum);
        if fitting_from > 0 {
            let mut clause = vec![self.selector(UPPER, fitting_from - 1).neg()];
            clause.extend(stages.map(|s| self.x[s][class].neg()));
            self.solver.add_clause(&clause);
        }
    }

    /// `class` may not hold exactly the stages `member` selects, which
    /// sum to `sum`. Guarded by the loosest lower selector that excludes
    /// `sum`.
    pub(crate) fn forbid_exactly(
        &mut self,
        class: usize,
        member: impl Fn(usize) -> bool,
        sum: f64,
    ) {
        let excluded_from = self.sums.partition_point(|&s| s - EPS <= sum);
        if excluded_from < self.sums.len() {
            let mut clause = vec![self.selector(LOWER, self.sums.len() - excluded_from).neg()];
            clause.extend(self.x.iter().enumerate().map(|(s, row)| {
                if member(s) {
                    row[class].neg()
                } else {
                    row[class].pos()
                }
            }));
            self.solver.add_clause(&clause);
        }
    }

    /// C5: excludes one assignment from every window.
    pub(crate) fn block(&mut self, assignment: &[usize]) {
        let clause: Vec<Lit> = assignment
            .iter()
            .zip(&self.x)
            .map(|(&c, row)| row[c].neg())
            .collect();
        self.solver.add_clause(&clause);
    }

    /// A solution whose every chunk sum lies in `[sums[lo], sums[hi]]`.
    pub(crate) fn solve(&mut self, p: &dyn Tiered, lo: usize, hi: usize) -> Option<Assignment> {
        // Beside the window's two selectors, the next-tighter one of each
        // family is pinned false; the chains then fix every selector and
        // none is left to a decision. (Explanations only ever add looser
        // ones, so this stays valid while models are refuted.)
        let mut assume = Vec::with_capacity(4);
        for (family, key) in [hi, self.sums.len() - lo].into_iter().enumerate() {
            assume.push(self.selector(family, key).pos());
            assume.extend(
                self.selectors[family]
                    .range(..key)
                    .next_back()
                    .map(|(_, v)| v.neg()),
            );
        }
        loop {
            let SolveResult::Sat(model) = self.solver.solve_assuming(&assume) else {
                return None;
            };
            let assignment: Assignment = (self.x.iter())
                .map(|row| row.iter().position(|v| model.value(*v)))
                .collect::<Option<_>>()
                .expect("C1 gives every stage a class");
            if !p.refute(self, &assignment, lo, hi) {
                return Some(assignment);
            }
            self.solver.stats.cegar_rounds += 1;
        }
    }

    /// [`TierSearch::solve`] for a window given in microseconds.
    pub(crate) fn solve_window(&mut self, p: &dyn Tiered, lo: f64, hi: f64) -> Option<Assignment> {
        let lo = self.sums.partition_point(|&s| s < lo - EPS);
        let below_hi = self.sums.partition_point(|&s| s <= hi + EPS);
        (lo < below_hi).then(|| self.solve(p, lo, below_hi - 1))?
    }

    /// The smallest upper tier in `range` feasible over lower tier `lo`
    /// (feasibility is monotone in the upper tier), with a witness. Probes
    /// gallop up from the low end — an enumerator's next tier is usually
    /// near — then bisect what they bracket.
    pub(crate) fn min_tier(
        &mut self,
        p: &dyn Tiered,
        lo: usize,
        range: Range<usize>,
    ) -> Option<(usize, Assignment)> {
        let (mut from, mut to) = (range.start, range.end);
        let (mut best, mut step) = (None, 1);
        while from < to {
            let mid = (from + step - 1).min((from + to) / 2);
            match self.solve(p, lo, mid) {
                Some(a) => {
                    (best, to, step) = (Some((mid, a)), mid, mid);
                }
                None => (from, step) = (mid + 1, step * 2),
            }
        }
        best
    }

    /// The minimum bottleneck over the unblocked schedules.
    pub(crate) fn min_latency(&mut self, p: &dyn Tiered) -> Option<(f64, Assignment)> {
        let (t, a) = self.min_tier(p, 0, 0..self.sums.len())?;
        Some((p.t_max(self.sums[t], &a), a))
    }
}

/// Incremental enumeration of distinct schedules in non-decreasing
/// predicted-latency (`T_max`) order on one session, each emitted schedule
/// blocked (C5) as it leaves; self-contained, so it can live in a cache
/// cell and be resumed across requests.
///
/// With fill factor θ, tier `t` is searched under the window
/// `[θ·sums[t], sums[t]]` — the paper's lower chunk bound C3a inside the
/// solver — so the enumeration is exactly the schedules with
/// `T_min ≥ θ·T_max` (to the window's 1e-9 slack); θ = 0 enumerates
/// everything. Every schedule found at tier `t` has bottleneck `sums[t]`:
/// a smaller one would have sat in a lower tier's looser window, which was
/// drained or proven empty before `t` was entered.
#[derive(Debug)]
pub struct LatencyEnumerator {
    problem: Box<dyn Tiered>,
    search: TierSearch,
    fill: f64,
    /// The tier being drained.
    tier: Option<usize>,
    /// Every tier below this one is drained.
    next: usize,
}

impl LatencyEnumerator {
    pub(crate) fn new(problem: Box<dyn Tiered>, fill: f64) -> LatencyEnumerator {
        LatencyEnumerator {
            search: TierSearch::new(&*problem, &[]),
            problem,
            fill: fill.clamp(0.0, 1.0),
            tier: None,
            next: 0,
        }
    }

    /// The lowest tier a chunk may sit in when the bottleneck sits in `t`.
    fn floor(&self, t: usize) -> usize {
        let sums = &self.search.sums;
        sums.partition_point(|&s| s < self.fill * sums[t] - EPS)
    }

    /// The latency table, permissions and chunk cap being enumerated.
    pub fn problem(&self) -> &ScheduleProblem {
        self.problem.base()
    }

    /// Search statistics of the session so far.
    pub fn stats(&self) -> SolveStats {
        self.search.solver.stats
    }
}

impl Iterator for LatencyEnumerator {
    type Item = (f64, Assignment);

    /// The next-cheapest unseen schedule as `(T_max, assignment)`, or
    /// `None` once the (admitted) schedule space is exhausted.
    fn next(&mut self) -> Option<(f64, Assignment)> {
        let tiers = self.search.sums.len();
        while self.next < tiers {
            // Drain the current tier; or search on from `next`: whatever
            // tier holds the next schedule, its chunks clear the floor of
            // `next`, and under that one floor feasibility is monotone, so
            // every tier the search skips is empty.
            let (lo, range) = match self.tier {
                Some(t) => (self.floor(t), t..t + 1),
                None => (self.floor(self.next), self.next..tiers),
            };
            match self.search.min_tier(&*self.problem, lo, range) {
                Some((t, a)) if self.floor(t) == lo => {
                    self.tier = Some(t);
                    self.search.block(&a);
                    return Some((self.problem.t_max(self.search.sums[t], &a), a));
                }
                Some((t, _)) => self.tier = Some(t),
                None => self.next = self.tier.take().map_or(tiers, |t| t + 1),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagProblem, StageDag};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random instance: each forward edge with probability ½, three
    /// classes, latencies drawn from `alphabet`.
    fn instance(rng: &mut StdRng, n: usize, alphabet: &[f64]) -> DagProblem {
        let deps = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let lat = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            })
            .collect();
        DagProblem::new(lat, StageDag::new(n, deps).unwrap()).unwrap()
    }

    /// The enumerator's solutions of the window `[sums[lo], sums[hi]]`.
    fn in_window(p: &DagProblem, sums: &[f64], lo: usize, hi: usize) -> Vec<Assignment> {
        let mut set = Vec::new();
        p.for_each_valid(|a| {
            let e = p.evaluate(a);
            if e.t_min >= sums[lo] - EPS && e.t_max <= sums[hi] + EPS {
                set.push(a.to_vec());
            }
        });
        set.sort();
        set
    }

    /// Solve, block, repeat: everything the session finds in one window.
    fn drain(search: &mut TierSearch, p: &DagProblem, lo: usize, hi: usize) -> Vec<Assignment> {
        let mut set = Vec::new();
        while let Some(a) = search.solve(p, lo, hi) {
            search.block(&a);
            set.push(a);
        }
        set.sort();
        set
    }

    /// Draining a spread of windows (`lo > 0` included), each on a fresh
    /// session, yields exactly the enumerator's in-window sets.
    fn explanations_keep_every_solution(p: &DagProblem) {
        let sums = p.tier_sums();
        let last = sums.len() - 1;
        for (lo, hi) in [
            (0, last),
            (0, last / 2),
            (last / 4, last / 2),
            (last / 3, last),
        ] {
            let mut search = TierSearch::new(p, &[]);
            assert_eq!(drain(&mut search, p, lo, hi), in_window(p, &sums, lo, hi));
        }
    }

    #[test]
    fn explanations_never_remove_a_solution_on_any_small_dag() {
        // Every DAG shape on ≤ 5 nodes, latencies from a quantised
        // alphabet so chunk sums tie and tiers are shared across classes.
        let mut rng = StdRng::seed_from_u64(5);
        for n in 1..=5usize {
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            for shape in 0u32..1 << pairs.len() {
                let deps = (pairs.iter().enumerate())
                    .filter_map(|(b, &e)| (shape >> b & 1 == 1).then_some(e))
                    .collect();
                let lat = (0..n)
                    .map(|_| {
                        (0..3)
                            .map(|_| [2.0, 3.0, 5.0][rng.gen_range(0..3)])
                            .collect()
                    })
                    .collect();
                let p = DagProblem::new(lat, StageDag::new(n, deps).unwrap()).unwrap();
                explanations_keep_every_solution(&p);
            }
        }
    }

    #[test]
    fn explanations_never_remove_a_solution_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(7);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        for _ in 0..24 {
            let n = rng.gen_range(1..=7);
            explanations_keep_every_solution(&instance(&mut rng, n, &alphabet));
        }
    }

    /// Probing tiers up, down and up again on one session gives the
    /// enumerator's verdict on every window — what the selector guards
    /// buy: an explanation added unguarded would wrongly refute a looser
    /// window probed after a tighter one.
    #[test]
    fn a_session_is_order_independent() {
        let mut rng = StdRng::seed_from_u64(11);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        for _ in 0..16 {
            let p = instance(&mut rng, 7, &alphabet);
            let mut evals = Vec::new();
            p.for_each_valid(|a| evals.push(p.evaluate(a)));
            let mut search = TierSearch::new(&p, &[]);
            let sums = search.sums.clone();
            let up = (0..=8).map(|k| k * (sums.len() - 1) / 8);
            for hi in up.clone().chain(up.clone().rev()).chain(up) {
                for lo in [0, hi / 2] {
                    let feasible = (evals.iter())
                        .any(|e| e.t_min >= sums[lo] - EPS && e.t_max <= sums[hi] + EPS);
                    assert_eq!(search.solve(&p, lo, hi).is_some(), feasible, "[{lo}, {hi}]");
                }
            }
        }
    }

    /// With a fill factor the enumerator emits exactly the schedules with
    /// `T_min ≥ θ·T_max`, bottleneck non-decreasing — chains (eager
    /// windows) and DAGs (explained ones) alike.
    #[test]
    fn fill_factor_enumerates_the_admitted_set_in_order() {
        let mut rng = StdRng::seed_from_u64(13);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        for round in 0..24 {
            let n = rng.gen_range(2..=6);
            let mut p = instance(&mut rng, n, &alphabet);
            if round % 2 == 0 {
                let lat = (0..p.stages())
                    .map(|s| (0..3).map(|c| p.base().latency(s, c)).collect())
                    .collect();
                p = DagProblem::new(lat, StageDag::chain(p.stages())).unwrap();
            }
            for fill in [0.0, 0.3, 0.45, 0.8] {
                let mut want = Vec::new();
                p.for_each_valid(|a| {
                    let e = p.evaluate(a);
                    if e.t_min >= fill * e.t_max {
                        want.push((e.t_max, a.to_vec()));
                    }
                });
                want.sort_by(|a, b| a.1.cmp(&b.1));
                // On a chain, the chain problem's own (eager) session.
                let mut got: Vec<(f64, Assignment)> = match round % 2 {
                    0 => p.base().latency_enumerator(fill).collect(),
                    _ => p.latency_enumerator(fill).collect(),
                };
                assert!(got.windows(2).all(|w| w[0].0 <= w[1].0 + EPS), "order");
                got.sort_by(|a, b| a.1.cmp(&b.1));
                assert_eq!(got.len(), want.len(), "fill {fill}");
                for ((tg, ag), (tw, aw)) in got.iter().zip(&want) {
                    assert!((tg - tw).abs() < EPS && ag == aw, "fill {fill}");
                }
            }
        }
    }

    /// A count, not a time, pins the gain: these four instances take 30,
    /// 53, 20 and 28 CEGAR rounds; blocking one assignment per round took
    /// 2 107, 7 506, 2 150 and 1 684.
    #[test]
    fn n9_min_latency_needs_few_cegar_rounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        for _ in 0..4 {
            let p = instance(&mut rng, 9, &alphabet);
            let mut search = TierSearch::new(&p, &[]);
            let (t, _) = search.min_latency(&p).expect("feasible");
            assert_eq!(Some(t), p.min_latency_exact().map(|(t, _)| t));
            let stats = search.solver.stats;
            assert!(stats.cegar_rounds <= 100, "{stats:?}");
            assert!(stats.decisions > 0 && stats.propagations > stats.decisions);
        }
    }
}
