//! The tier-search session every SAT window query runs on, and the
//! queries themselves.
//!
//! A chunk sum can only take one of a problem's *tier* values, so a
//! runtime window `[T_min, T_max]` (C3a/C3b) is a pair of tier indices. A
//! session states the structure once — C1, permissions, path-convexity —
//! and keeps two ordered selector families over it:
//! `upper[t]`, "every chunk sum ≤ `sums[t]`", and `lower[t]`, "every chunk
//! sum ≥ `sums[t]`", each tighter selector implying every looser one. A
//! window clause carries the negated selector of the loosest window it is
//! valid for, and a window is solved by *assuming* its two selectors
//! ([`Solver::solve_assuming`]), so the clause database, everything the
//! engine learns and every blocking clause (C5) serve all later windows of
//! the session.
//!
//! The window clauses arrive lazily as explanations of a refuted model
//! (CEGAR), each guarded, so none removes a solution of any other window.
//! The DAG's shape alone picks the statement. On a path in index order a
//! chunk is an interval: C2 is pairwise (`x[u] ∧ x[v] → x[v−1]`), an
//! over-full chunk forbids the two ends of its shortest over-full
//! sub-interval from sharing the class, and an under-full chunk `[i..j]`
//! forbids each of its stages the class unless `i − 1` or `j + 1` has it
//! too. On any other DAG C2 is the triples `x[u] ∧ x[v] → x[w]` for
//! `u ⇝ w ⇝ v`, an over-full chunk forbids a minimal over-full subset of
//! its stages from sharing the class, and an under-full one forbids the
//! class from holding exactly that stage set.
//! The chunk cap arrives the same way, unguarded: a chunk is one class's
//! stages, so a model using k + 1 classes under a cap of k is explained by
//! one clause over their in-use literals.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::dag::DagChunk;
use crate::lit::{Lit, Var};
use crate::solver::{SolveResult, Solver};
use crate::{Assignment, DagProblem};

/// Slack on every window comparison (latencies are microseconds).
pub(crate) const EPS: f64 = 1e-9;

const UPPER: usize = 0;
const LOWER: usize = 1;

impl DagProblem {
    /// The tiers: every value a chunk sum can take over the allowed
    /// classes, sorted and deduplicated — the discrete search space for
    /// window bounds. On a path these are the interval sums, as the prefix
    /// differences [`DagProblem::evaluate`] reads; otherwise the per-class
    /// subset sums, accumulated in topological order like every chunk sum
    /// is — a superset, exponential in stages, which is why
    /// [`DagProblem::new`] admits at most 20 stages off a path.
    pub fn chunk_sums(&self) -> Vec<f64> {
        let (n, path) = (self.stages(), self.dag().is_path());
        let mut sums = Vec::new();
        for c in (0..self.classes()).filter(|&c| self.is_allowed(c)) {
            if path {
                sums.extend((0..n).flat_map(|i| (i..n).map(move |j| self.interval_sum(i, j, c))));
            } else {
                let mut acc = vec![0.0f64];
                for &s in self.dag().topo_order() {
                    let with: Vec<f64> = acc.iter().map(|&a| a + self.latency(s, c)).collect();
                    acc.extend(with);
                }
                sums.extend(acc.into_iter().filter(|&s| s > 0.0));
            }
        }
        sums.sort_by(f64::total_cmp);
        sums.dedup_by(|a, b| (*a - *b).abs() < EPS);
        sums
    }

    /// Solves the window decision problem `D(lo, hi)` — does a schedule
    /// exist whose every chunk sum lies in `[lo, hi]` — excluding
    /// `blocked` schedules. Returns a satisfying assignment if one exists.
    pub fn solve_window(&self, lo: f64, hi: f64, blocked: &[Assignment]) -> Option<Assignment> {
        TierSearch::new(self, blocked).solve_window(self, lo, hi)
    }

    /// Minimizes predicted pipeline latency (the bottleneck `T_max`) by
    /// binary search over the tiers of one session, excluding `blocked`
    /// schedules. Returns `(T_max, schedule)`, `T_max` as
    /// [`DagProblem::evaluate`] prices the schedule.
    pub fn min_latency(&self, blocked: &[Assignment]) -> Option<(f64, Assignment)> {
        TierSearch::new(self, blocked).min_latency(self)
    }

    /// Minimizes gapness (`T_max − T_min`, objective O1): for every lower
    /// tier, the smallest feasible upper tier over it bounds the gapness
    /// of every schedule whose shortest chunk sits there, so the least
    /// such difference is the optimum. Returns `(gapness, schedule)`.
    ///
    /// This is the paper-faithful counterpart of z3's `minimize`;
    /// [`DagProblem::min_gapness_exact`] is cross-checked against it.
    pub fn min_gapness(&self) -> Option<(f64, Assignment)> {
        let mut search = TierSearch::new(self, &[]);
        let sums = search.sums.clone();
        let mut best: Option<(f64, Assignment)> = None;
        for (lo, &floor) in sums.iter().enumerate() {
            // Only upper tiers that would improve on `best` are probed.
            let to = match &best {
                Some((g, _)) => sums.partition_point(|&s| s - floor < *g - EPS),
                None => sums.len(),
            };
            if let Some((hi, a)) = search.min_tier(self, lo, lo..to.max(lo)) {
                best = Some((sums[hi] - floor, a));
            }
        }
        best
    }

    /// Enumerates up to `k` distinct schedules in non-decreasing predicted
    /// latency order via blocking clauses (the paper's candidate set, 𝒦=20).
    pub fn latency_candidates(&self, k: usize) -> Vec<(f64, Assignment)> {
        self.latency_enumerator(0.0).take(k).collect()
    }

    /// An incremental enumerator over the schedules with
    /// `T_min ≥ fill · T_max`, in non-decreasing predicted-latency order
    /// (`fill = 0` is what [`DagProblem::latency_candidates`] drives).
    pub fn latency_enumerator(&self, fill: f64) -> LatencyEnumerator<'_> {
        LatencyEnumerator {
            search: TierSearch::new(self, &[]),
            problem: self,
            fill: fill.clamp(0.0, 1.0),
            tier: None,
            next: 0,
        }
    }
}

/// One tier search: the persistent clause database (assignment
/// variables, structure, selector families) of one problem. Every query
/// takes that same problem again, to refute models with.
#[derive(Debug)]
pub(crate) struct TierSearch {
    pub(crate) solver: Solver,
    /// `x[s][c]`: stage `s` runs on class `c`.
    x: Vec<Vec<Var>>,
    /// `used[c]`: class `c` holds a chunk, implied by every `x[s][c]` —
    /// one per class under a chunk cap, none without.
    used: Vec<Var>,
    pub(crate) sums: Vec<f64>,
    /// `[upper, lower]` selectors, created on first use and keyed so that
    /// a smaller key is a tighter bound: `upper[t]` by `t`, `lower[t]` by
    /// `sums.len() − t`.
    selectors: [BTreeMap<usize, Var>; 2],
}

impl TierSearch {
    /// The session of `problem` with the `blocked` schedules excluded:
    /// variables, permissions, C1, path-convexity, the cap's in-use
    /// literals, and the one-stage chunks as window prunes. Chunk windows
    /// proper, the chunk cap and chunk-graph acyclicity arrive through
    /// [`TierSearch::refute`].
    pub(crate) fn new(problem: &DagProblem, blocked: &[Assignment]) -> TierSearch {
        let mut solver = Solver::new();
        let x: Vec<Vec<Var>> = (0..problem.stages())
            .map(|_| (0..problem.classes()).map(|_| solver.new_var()).collect())
            .collect();
        for row in &x {
            let lits: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            solver.add_exactly_one(&lits);
            for (c, v) in row.iter().enumerate() {
                if !problem.is_allowed(c) {
                    solver.add_clause(&[v.neg()]);
                }
            }
        }
        let used = match problem.max_chunks() {
            Some(_) => (0..problem.classes())
                .map(|c| {
                    let in_use = solver.new_var();
                    for row in &x {
                        solver.add_clause(&[row[c].neg(), in_use.pos()]);
                    }
                    in_use
                })
                .collect(),
            None => Vec::new(),
        };
        let mut search = TierSearch {
            solver,
            x,
            used,
            sums: problem.chunk_sums(),
            selectors: Default::default(),
        };
        search.state_convexity(problem);
        for assignment in blocked {
            search.block(assignment);
        }
        search
    }

    /// Path-convexity, and the one-stage chunks as window prunes.
    fn state_convexity(&mut self, p: &DagProblem) {
        let n = p.stages();
        if p.dag().is_path() {
            // C2 on a path, pairwise: (x[u][c] ∧ x[v][c]) → x[v−1][c] for
            // u < v − 1. Propagation chains it to the triples below: x[u]
            // and x[v] give x[v−1], then x[v−2], … down to x[u+1]; x[u]
            // and ¬x[w] give ¬x[w+1], … up to the end of the chain.
            for (u, v) in (0..n).flat_map(|u| (u + 2..n).map(move |v| (u, v))) {
                for c in 0..p.classes() {
                    let (xu, xv, xw) = (self.x[u][c], self.x[v][c], self.x[v - 1][c]);
                    self.solver.add_clause(&[xu.neg(), xv.neg(), xw.pos()]);
                }
            }
        } else {
            // C2: for each dependency-ordered pair (u, v) and each stage w
            // strictly between them on some path, (x[u][c] ∧ x[v][c]) → x[w][c].
            for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (u, v))) {
                for w in (0..n).filter(|&w| p.dag().reaches(u, w) && p.dag().reaches(w, v)) {
                    for c in 0..p.classes() {
                        let (xu, xv, xw) = (self.x[u][c], self.x[v][c], self.x[w][c]);
                        self.solver.add_clause(&[xu.neg(), xv.neg(), xw.pos()]);
                    }
                }
            }
        }
        for s in 0..n {
            for c in (0..p.classes()).filter(|&c| p.is_allowed(c)) {
                self.forbid_over(c, std::iter::once(s), p.latency(s, c));
            }
        }
    }

    /// Adds the clauses that explain why `model` is no solution of the
    /// window `[lo, hi]` (tier indices); `false` if it is one.
    fn refute(&mut self, p: &DagProblem, model: &[usize], lo: usize, hi: usize) -> bool {
        if let Some(k) = p.max_chunks() {
            // No window admits k + 1 classes in use.
            let over: Vec<Lit> = (self.used.iter().enumerate())
                .filter(|&(c, _)| model.contains(&c))
                .map(|(_, used)| used.neg())
                .take(k + 1)
                .collect();
            if over.len() > k {
                self.solver.add_clause(&over);
                return true;
            }
        }
        let (floor, ceiling) = (self.sums[lo] - EPS, self.sums[hi] + EPS);
        let mut refuted = false;
        if p.dag().is_path() {
            // C2 makes every model on a path convex, its quotient a chain:
            // the chunks are the runs of equal class.
            debug_assert!(p.is_valid(model), "{model:?}");
            let mut i = 0;
            while i < model.len() {
                let class = model[i];
                let j = i + model[i..].iter().take_while(|&&c| c == class).count() - 1;
                let sum = p.interval_sum(i, j, class);
                if sum > ceiling {
                    self.forbid_over_interval(p, class, i, j, ceiling);
                    refuted = true;
                } else if sum < floor {
                    self.forbid_under_interval(class, i, j, sum);
                    refuted = true;
                }
                i = j + 1;
            }
            return refuted;
        }
        if !p.is_valid(model) {
            // A quotient cycle: no window admits it.
            self.block(model);
            return true;
        }
        for DagChunk { class, mut stages } in p.chunks_unchecked(model) {
            let sum = p.sum_on(class, &stages);
            if sum > ceiling {
                // Drop every stage the rest stays over-full without: a
                // minimal over-full subset, still in topological order.
                let mut i = 0;
                while i < stages.len() {
                    let dropped = stages.remove(i);
                    if p.sum_on(class, &stages) <= ceiling {
                        stages.insert(i, dropped);
                        i += 1;
                    }
                }
                let sum = p.sum_on(class, &stages);
                self.forbid_over(class, stages.into_iter(), sum);
                refuted = true;
            } else if sum < floor {
                self.forbid_exactly(class, |s| model[s] == class, sum);
                refuted = true;
            }
        }
        refuted
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
    fn forbid_over(&mut self, class: usize, stages: impl Iterator<Item = usize>, sum: f64) {
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
    fn forbid_exactly(&mut self, class: usize, member: impl Fn(usize) -> bool, sum: f64) {
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

    /// On a path, the over-full chunk `[i..j]` on `class`: the shortest
    /// sub-interval `[a..b]` still over `ceiling` (two pointers, the
    /// leftmost among equals) may not share `class` at its two ends. A
    /// chunk holding `a` and `b` holds all of `[a..b]` (C2), and prefix
    /// differences are monotone, so it sums at least that interval's sum.
    fn forbid_over_interval(
        &mut self,
        p: &DagProblem,
        class: usize,
        i: usize,
        j: usize,
        ceiling: f64,
    ) {
        let (mut best, mut a) = ((i, j), i);
        for b in i..=j {
            if p.interval_sum(a, b, class) <= ceiling {
                continue;
            }
            while a < b && p.interval_sum(a + 1, b, class) > ceiling {
                a += 1;
            }
            if b - a < best.1 - best.0 {
                best = (a, b);
            }
        }
        // `add_clause` merges the two ends when a = b: a binary clause.
        let (a, b) = best;
        self.forbid_over(class, [a, b].into_iter(), p.interval_sum(a, b, class));
    }

    /// On a path, the under-full chunk `[i..j]` on `class`, which sums to
    /// `sum`: no stage of it may sit on `class` without a neighbour of the
    /// interval there too (a neighbour past either end of the chain is
    /// dropped). Such a chunk lies inside `[i..j]`, so it sums no more.
    /// Guarded by the loosest lower selector that excludes `sum`.
    fn forbid_under_interval(&mut self, class: usize, i: usize, j: usize, sum: f64) {
        let excluded_from = self.sums.partition_point(|&s| s - EPS <= sum);
        if excluded_from == self.sums.len() {
            return;
        }
        let guard = self.selector(LOWER, self.sums.len() - excluded_from).neg();
        let mut clause = [guard; 4];
        let mut len = 2;
        let neighbours = [i.checked_sub(1), Some(j + 1).filter(|&s| s < self.x.len())];
        for s in neighbours.into_iter().flatten() {
            clause[len] = self.x[s][class].pos();
            len += 1;
        }
        for k in i..=j {
            clause[1] = self.x[k][class].neg();
            self.solver.add_clause(&clause[..len]);
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
    pub(crate) fn solve(&mut self, p: &DagProblem, lo: usize, hi: usize) -> Option<Assignment> {
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
            if !self.refute(p, &assignment, lo, hi) {
                return Some(assignment);
            }
            self.solver.stats.cegar_rounds += 1;
        }
    }

    /// [`TierSearch::solve`] for a window given in microseconds.
    pub(crate) fn solve_window(&mut self, p: &DagProblem, lo: f64, hi: f64) -> Option<Assignment> {
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
        p: &DagProblem,
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
    pub(crate) fn min_latency(&mut self, p: &DagProblem) -> Option<(f64, Assignment)> {
        let (_, a) = self.min_tier(p, 0, 0..self.sums.len())?;
        Some((p.evaluate(&a).t_max, a))
    }
}

/// Incremental enumeration of distinct schedules in non-decreasing
/// predicted-latency (`T_max`) order on one session over a borrowed
/// problem, each emitted schedule blocked (C5) as it leaves.
///
/// With fill factor θ, tier `t` is searched under the window
/// `[θ·sums[t], sums[t]]` — the paper's lower chunk bound C3a inside the
/// solver — so the enumeration is exactly the schedules with
/// `T_min ≥ θ·T_max` (to the window's 1e-9 slack); θ = 0 enumerates
/// everything. Every schedule found at tier `t` has its bottleneck at
/// `sums[t]`: a smaller one would have sat in a lower tier's looser window,
/// which was drained or proven empty before `t` was entered. What is
/// reported is that bottleneck as [`DagProblem::evaluate`] prices it.
#[derive(Debug)]
pub struct LatencyEnumerator<'a> {
    problem: &'a DagProblem,
    search: TierSearch,
    fill: f64,
    /// The tier being drained.
    tier: Option<usize>,
    /// Every tier below this one is drained.
    next: usize,
}

impl LatencyEnumerator<'_> {
    /// The lowest tier a chunk may sit in when the bottleneck sits in `t`.
    fn floor(&self, t: usize) -> usize {
        let sums = &self.search.sums;
        sums.partition_point(|&s| s < self.fill * sums[t] - EPS)
    }
}

impl Iterator for LatencyEnumerator<'_> {
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
            match self.search.min_tier(self.problem, lo, range) {
                Some((t, a)) if self.floor(t) == lo => {
                    self.tier = Some(t);
                    self.search.block(&a);
                    return Some((self.problem.evaluate(&a).t_max, a));
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
    use crate::enumerate::for_each_schedule;
    use crate::solver::SolveStats;
    use crate::StageDag;
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

    /// A random chain of `n` stages on `m` classes, latencies drawn from
    /// `alphabet`.
    fn chain(rng: &mut StdRng, n: usize, m: usize, alphabet: &[f64]) -> DagProblem {
        let lat = (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            })
            .collect();
        DagProblem::chain(lat).unwrap()
    }

    /// The enumerator's solutions of the window `[sums[lo], sums[hi]]`.
    fn in_window(p: &DagProblem, sums: &[f64], lo: usize, hi: usize) -> Vec<Assignment> {
        let mut set = Vec::new();
        for_each_schedule(p, |a, chunks| {
            if chunks
                .iter()
                .all(|&s| s >= sums[lo] - EPS && s <= sums[hi] + EPS)
            {
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
    /// session, yields exactly the enumerator's in-window sets, the window
    /// bounds read from the session's own tiers.
    fn explanations_keep_every_solution(p: &DagProblem) {
        let last = p.chunk_sums().len() - 1;
        for (lo, hi) in [
            (0, last),
            (0, last / 2),
            (last / 4, last / 2),
            (last / 3, last),
        ] {
            let mut search = TierSearch::new(p, &[]);
            let want = in_window(p, &search.sums, lo, hi);
            assert_eq!(drain(&mut search, p, lo, hi), want);
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
    /// window probed after a tighter one. Random DAGs and chains take
    /// turns, so both statements are probed.
    #[test]
    fn a_session_is_order_independent() {
        let mut rng = StdRng::seed_from_u64(11);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        for round in 0..32 {
            let p = match round % 2 {
                0 => instance(&mut rng, 7, &alphabet),
                _ => chain(&mut rng, 7, 3, &alphabet),
            };
            let evals = p.latency_candidates_exact(usize::MAX);
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
    /// `T_min ≥ θ·T_max`, bottleneck non-decreasing — chains and DAGs
    /// alike.
    #[test]
    fn fill_factor_enumerates_the_admitted_set_in_order() {
        let mut rng = StdRng::seed_from_u64(13);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        for round in 0..24 {
            let n = rng.gen_range(2..=6);
            let mut p = instance(&mut rng, n, &alphabet);
            if round % 2 == 0 {
                let lat = (0..p.stages())
                    .map(|s| (0..3).map(|c| p.latency(s, c)).collect())
                    .collect();
                p = DagProblem::chain(lat).unwrap();
            }
            for fill in [0.0, 0.3, 0.45, 0.8] {
                let mut want: Vec<(f64, Assignment)> = (p.latency_candidates_exact(usize::MAX))
                    .into_iter()
                    .filter(|e| e.t_min >= fill * e.t_max)
                    .map(|e| (e.t_max, e.assignment))
                    .collect();
                want.sort_by(|a, b| a.1.cmp(&b.1));
                let mut got: Vec<(f64, Assignment)> = p.latency_enumerator(fill).collect();
                assert!(got.windows(2).all(|w| w[0].0 <= w[1].0 + EPS), "order");
                got.sort_by(|a, b| a.1.cmp(&b.1));
                assert_eq!(got.len(), want.len(), "fill {fill}");
                for ((tg, ag), (tw, aw)) in got.iter().zip(&want) {
                    assert!((tg - tw).abs() < EPS && ag == aw, "fill {fill}");
                }
            }
        }
    }

    /// Four N = 9 fork/join instances, each uncapped and capped at 2, and
    /// eight capped chains of 9–16 stages.
    fn n9_problems() -> Vec<DagProblem> {
        let mut rng = StdRng::seed_from_u64(9);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        let mut problems = Vec::new();
        for _ in 0..4 {
            let p = instance(&mut rng, 9, &alphabet);
            problems.push(p.clone().with_max_chunks(2).unwrap());
            problems.push(p);
        }
        for cap in [2, 3] {
            for _ in 0..4 {
                let n = rng.gen_range(9..=16);
                let p = chain(&mut rng, n, 3, &alphabet);
                problems.push(p.with_max_chunks(cap).unwrap());
            }
        }
        problems
    }

    /// A count, not a time, pins the gain: these four instances take 27,
    /// 72, 19 and 23 CEGAR rounds; blocking one assignment per round took
    /// 2 107, 7 506, 2 150 and 1 684. Capped at 2 they take 30, 73, 42 and
    /// 32; blocking each cap overrun took 252, 987, 534 and 300. The
    /// capped chains take 18–37.
    #[test]
    fn n9_min_latency_needs_few_cegar_rounds() {
        for p in &n9_problems() {
            let mut search = TierSearch::new(p, &[]);
            let (t, _) = search.min_latency(p).expect("feasible");
            assert_eq!(Some(t), p.min_latency_exact().map(|(t, _)| t), "{p:?}");
            let stats = search.solver.stats;
            assert!(stats.cegar_rounds <= 100, "{stats:?} on {p:?}");
            assert!(stats.decisions > 0 && stats.propagations > stats.decisions);
        }
    }

    /// The search itself is pinned, not just its answers: on every
    /// `n9_problems` instance, the exact counters of a minimum-latency
    /// query and of two 20-schedule enumerations (fill 0 and 0.45), and an
    /// FNV-1a digest of every schedule they emit with its bottleneck bits.
    /// A change to propagation order, watch handling, conflict analysis or
    /// decisions moves these numbers even when every answer stays right.
    /// The first 8 rows (fork/join DAGs) pin the SAT core under the general
    /// statement; the last 8 (capped chains) pin the interval statement —
    /// pairwise contiguity and interval explanations — on the same core.
    #[test]
    fn n9_search_counts_and_schedules_are_pinned() {
        fn tuple(s: SolveStats) -> [u64; 5] {
            [
                s.decisions,
                s.propagations,
                s.conflicts,
                s.learned,
                s.cegar_rounds,
            ]
        }
        // (decisions, propagations, conflicts, learned, cegar_rounds) of
        // min_latency, then the fill-0 and fill-0.45 enumerations.
        #[rustfmt::skip]
        const PINNED: [[[u64; 5]; 3]; 16] = [
            [[305, 4252, 58, 58, 30], [958, 25189, 224, 224, 59], [1109, 31225, 228, 228, 66]],
            [[303, 3414, 48, 48, 27], [945, 17198, 212, 212, 53], [1090, 21215, 255, 255, 56]],
            [[746, 9940, 112, 112, 73], [1743, 40080, 408, 408, 115], [1806, 44079, 408, 408, 115]],
            [[773, 9088, 93, 93, 72], [1745, 34995, 375, 375, 127], [1808, 39742, 361, 361, 129]],
            [[420, 5629, 66, 66, 42], [1231, 28977, 297, 297, 83], [1474, 43250, 344, 344, 99]],
            [[242, 2112, 29, 29, 19], [777, 14925, 138, 138, 47], [864, 18039, 148, 148, 52]],
            [[399, 4759, 64, 64, 32], [1054, 25332, 221, 221, 67], [1156, 30730, 224, 224, 70]],
            [[287, 3099, 41, 41, 23], [1028, 24848, 233, 233, 67], [1126, 28897, 237, 237, 67]],
            [[251, 3286, 44, 44, 22], [776, 14397, 195, 195, 45], [785, 16837, 167, 167, 48]],
            [[133, 1359, 24, 24, 8], [681, 10164, 158, 158, 36], [772, 13764, 169, 169, 44]],
            [[304, 4377, 55, 55, 23], [839, 17458, 187, 187, 46], [857, 19802, 192, 192, 45]],
            [[237, 2897, 43, 43, 18], [881, 16048, 235, 235, 46], [797, 17067, 200, 200, 44]],
            [[260, 3045, 55, 55, 17], [706, 11943, 182, 182, 36], [726, 13462, 175, 175, 37]],
            [[301, 3612, 63, 63, 20], [720, 12348, 170, 170, 38], [715, 13330, 180, 180, 36]],
            [[466, 6028, 101, 101, 29], [963, 16652, 267, 267, 45], [1019, 18336, 271, 271, 46]],
            [[306, 3987, 62, 62, 24], [762, 14644, 174, 174, 46], [773, 16990, 161, 161, 51]],
        ];
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut got = Vec::new();
        for p in &n9_problems() {
            let mut search = TierSearch::new(p, &[]);
            let mut emitted = vec![search.min_latency(p).expect("feasible")];
            let mut row = vec![tuple(search.solver.stats)];
            for fill in [0.0, 0.45] {
                let mut e = p.latency_enumerator(fill);
                emitted.extend(e.by_ref().take(20));
                row.push(tuple(e.search.solver.stats));
            }
            for (t, a) in emitted {
                mix(t.to_bits());
                a.iter().for_each(|&c| mix(c as u64));
            }
            got.push(row);
        }
        assert_eq!(got, PINNED);
        assert_eq!(digest, 0x5ba5_c322_435c_13f0);
    }

    /// A reported bottleneck is the emitted schedule's own, bit for bit,
    /// not the tier it was found at: on a path, tiers are deduplicated to
    /// 1e-9, and two intervals with the same decimal sum differ in the
    /// last ulp of their prefix differences.
    #[test]
    fn reported_bottlenecks_are_the_schedules_own() {
        let mut rng = StdRng::seed_from_u64(26);
        let alphabet: Vec<f64> = (10..500).map(|v| f64::from(v) / 10.0).collect();
        for _ in 0..100 {
            let n = rng.gen_range(2..=16);
            let p = chain(&mut rng, n, 4, &alphabet);
            let (t, a) = p.min_latency(&[]).expect("feasible");
            assert_eq!(t.to_bits(), p.evaluate(&a).t_max.to_bits(), "{a:?}");
            for (t, a) in p.latency_candidates(20) {
                assert_eq!(t.to_bits(), p.evaluate(&a).t_max.to_bits(), "{a:?}");
            }
        }
    }

    /// 3 stages × 2 classes with obvious structure.
    fn small() -> DagProblem {
        DagProblem::chain(vec![
            vec![10.0, 100.0],
            vec![100.0, 10.0],
            vec![10.0, 100.0],
        ])
        .unwrap()
    }

    #[test]
    fn solve_window_respects_bounds() {
        let p = small();
        // Only the all-on-one-class schedules have a single chunk ≥ 120.
        let a = p.solve_window(115.0, 125.0, &[]).expect("feasible");
        assert_eq!(p.evaluate(&a).chunk_sums, vec![120.0]);
        // Nothing has every chunk in [1, 5].
        assert!(p.solve_window(1.0, 5.0, &[]).is_none());
    }

    #[test]
    fn min_latency_finds_bottleneck_optimum() {
        let p = small();
        // Best split: [0] on 0 (10), [1,2] on 1 (110) → 110; or
        // [0,1] on 0 (110), [2] on 1 (100) → 110. Optimum T_max = 110.
        let (t, a) = p.min_latency(&[]).expect("feasible");
        assert!((t - 110.0).abs() < 1e-6, "got {t}");
        assert!(p.evaluate(&a).t_max <= 110.0 + 1e-6);
    }

    #[test]
    fn min_gapness_prefers_balanced_splits() {
        let lat = vec![vec![50.0, 500.0], vec![50.0, 500.0], vec![500.0, 100.0]];
        // [0,1] on class 0 = 100, [2] on class 1 = 100 → gapness 0 — as a
        // chain, and as a fork (0 → {1, 2}) through the lazy statement.
        let fork = StageDag::new(3, vec![(0, 1), (0, 2)]).unwrap();
        for p in [
            DagProblem::chain(lat.clone()).unwrap(),
            DagProblem::new(lat, fork).unwrap(),
        ] {
            let (g, a) = p.min_gapness().expect("feasible");
            assert!(g.abs() < 1e-6, "gapness {g}");
            assert_eq!(a, vec![0, 0, 1]);
            assert_eq!(p.min_gapness_exact().map(|e| e.gapness()), Some(0.0));
        }
    }

    #[test]
    fn blocking_yields_distinct_candidates() {
        let p = small();
        let cands = p.latency_candidates(10);
        assert!(cands.len() >= 4);
        for (i, (_, a)) in cands.iter().enumerate() {
            for (_, b) in &cands[i + 1..] {
                assert_ne!(a, b, "duplicate candidate");
            }
            assert!(p.is_valid(a));
        }
        // Non-decreasing latency.
        for w in cands.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-9);
        }
    }

    #[test]
    fn disallowed_class_never_used() {
        let p = DagProblem::chain(vec![vec![10.0, 1.0, 20.0], vec![10.0, 1.0, 20.0]])
            .unwrap()
            .with_allowed(vec![true, false, true])
            .unwrap();
        for (_, a) in p.latency_candidates(20) {
            assert!(a.iter().all(|&c| c != 1), "used disallowed class: {a:?}");
        }
    }

    #[test]
    fn candidate_count_bounded_by_schedule_space() {
        // 2 stages × 2 classes: schedules = {00, 01, 10, 11} minus
        // non-contiguous (none for n=2) = 4.
        let p = DagProblem::chain(vec![vec![1.0, 2.0], vec![1.0, 2.0]]).unwrap();
        let cands = p.latency_candidates(100);
        assert_eq!(cands.len(), 4);
    }

    #[test]
    fn enumerator_session_matches_latency_candidates() {
        let p = small();
        let borrowed = p.latency_candidates(20);
        let mut session = p.latency_enumerator(0.0);
        let mut owned = Vec::new();
        for ta in session.by_ref() {
            owned.push(ta);
        }
        assert_eq!(owned, borrowed);
        // A drained session stays drained.
        assert!(session.next().is_none());
    }
}
