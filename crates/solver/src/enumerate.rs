//! Exact enumeration of the schedule space — BT-Optimizer's fast path and
//! the oracle the SAT encoding is property-tested against.
//!
//! [`for_each_schedule`] is the one enumerator, and both of its arms
//! *generate* the valid schedules rather than filter the `Mᴺ` assignments.
//! Which arm runs depends on the problem's DAG and on nothing else:
//!
//! - **a path in index order** (every chain): a schedule is an ordered
//!   partition of the stage sequence into at most `M` intervals, each on a
//!   *distinct* allowed class, so the space (≈2 000 schedules at the
//!   paper's N ≤ 9, M ≤ 4) is enumerated by its boundaries, every chunk
//!   sum one O(1) prefix difference;
//! - **anything else**: `generate`, a depth-first search that gives
//!   stage `n − 1` its class first and stage 0 last, classes ascending. A
//!   stage `s` may join class `c` iff, on the `Hull` masks of the stages
//!   already placed, (i) `s` sits in no *other* class's hole, (ii) no
//!   placed stage sits in a hole of `c` with `s` added, and (iii) `c` is
//!   in use or the chunk cap has room. Each test is monotone — a refused
//!   placement has no valid completion — so the search visits only
//!   prefixes of path-convex assignments. What decides is the leaf's
//!   quotient-graph test (`acyclic`, which implies C2); (i) and (ii)
//!   keep the search away from the other `Mᴺ` − valid leaves. The leaf
//!   also accumulates the chunk sums, in topological order.
//!
//! The placement order is that of an odometer over all `Mᴺ` assignments
//! with stage 0 fastest, which is what this arm was while it filtered.
//! (The odometer survives in this module's tests, as the reference.) No
//! ranking reads the order: [`DagProblem::min_latency_exact`] and the
//! optimizer's top-K ([`DagProblem::latency_top_k`]) sort by `(T_max,
//! gapness, assignment)`, a total order on distinct schedules, so each
//! returns the same schedules, bit for bit, in any order the arm visits
//! them; what the reference digests pin is the chunk sums, accumulated in
//! topological order.
//!
//! The general arm enumerates paths correctly too (the unit tests pit the
//! two against each other), but not *identically*: a prefix difference
//! and a topological accumulation of the same chunk differ in the last
//! ulp, and the committed predictions (`results/*.json`, the benchmark's
//! reference digests) were produced by prefix differences. The path arm
//! is also the cheaper per schedule — 22 ns against ≈ 115 ns on a 9 × 4
//! chain — and the Fig. 2 loop enumerates only chains.
//!
//! # The bounded form
//!
//! [`for_each_schedule`] is the unbounded face of `for_each_below`, whose
//! callback returns a *cutoff*. No schedule with a chunk summing strictly
//! above the latest cutoff is visited after it; a schedule at the cutoff
//! is, since a tie can still rank earlier by gapness or assignment.
//! [`DagProblem::latency_top_k`] returns the `k`-th best admitted
//! `T_max` (∞ until `k` are kept), and [`DagProblem::best_replication`]
//! its incumbent's: a plan's `T_max` is at least its largest generated
//! sum, and its comparison stays strict.
//!
//! - On the path arm the cut is exact. Latencies are positive and rounding
//!   is monotone, so `interval_sum(start, end, c)` never falls as `end`
//!   moves right, and the first end above the cutoff ends the class's
//!   loop.
//! - The path arm also takes a *fill* bound, the utilization filter C3a:
//!   no schedule with `T_min < fill · T_max` is visited. A placed chunk's
//!   sum is final there, so an end with `fill · sum` above the least
//!   placed sum ends the class's loop, and an end whose sum lies under
//!   `fill` times the greatest is skipped. The general arm ignores `fill`
//!   (a class's sum is not final until its last stage is placed), and
//!   [`DagProblem::latency_top_k`] applies it to the leaves.
//! - The general arm keeps each class's partial sum in placement order and
//!   prunes a placement once it exceeds `cutoff · (1 + SLACK)`, `SLACK` =
//!   10⁻⁹. A prefix of non-negative terms sums no higher than the whole,
//!   and two orders of summing `N` terms agree within a factor
//!   `(1 + γ)/(1 − γ)`, `γ = (N − 1)·u/(1 − (N − 1)·u)`, u = 2⁻⁵³ —
//!   ≈ 1 + 1.4·10⁻¹⁴ at `N` = 64. So the chunk of a pruned placement
//!   sums strictly above the cutoff in topological order too.
//!
//! BT-Optimizer's exact engine ranks plain [`Eval`]s on this search and
//! lowers only the final `k` to an executable schedule, in order. An
//! assignment the lowering refuses is excluded, and the bounded search
//! reruns; the `k` it ends with are the `k` best admitted schedules that
//! lower, as when every schedule entering the running top-`k` was lowered.

use crate::dag::{acyclic, extremes, Hull};
use crate::{Assignment, DagProblem, Eval, REPLICA};

/// Streams every valid schedule of `problem` through `f` without
/// materializing the space, in a deterministic order.
///
/// `f` receives the stage → class assignment and the chunk sums in chunk
/// order (pipeline order on chains); both slices are reused between calls,
/// so the callback must copy whatever it keeps.
pub fn for_each_schedule<F: FnMut(&[usize], &[f64])>(problem: &DagProblem, mut f: F) {
    for_each_below(problem, 0.0, |assignment, sums| {
        f(assignment, sums);
        f64::INFINITY
    });
}

/// [`for_each_schedule`], bounded: `f` returns a cutoff, and no schedule
/// with a chunk summing strictly above the latest cutoff is visited after
/// it. Schedules at the cutoff are. On a path, no schedule with
/// `T_min < fill · T_max` is visited either (`fill` = 0 bounds nothing);
/// the general arm ignores `fill`. The order is [`for_each_schedule`]'s
/// with the pruned schedules left out.
pub(crate) fn for_each_below<F: FnMut(&[usize], &[f64]) -> f64>(
    problem: &DagProblem,
    fill: f64,
    mut f: F,
) {
    if problem.dag().is_path() {
        Intervals {
            problem,
            assignment: vec![0; problem.stages()],
            used: vec![false; problem.classes()],
            sums: Vec::with_capacity(problem.classes()),
            cutoff: f64::INFINITY,
            fill,
            f: &mut f,
        }
        .place(0, f64::INFINITY, 0.0);
    } else {
        let allowed: Vec<usize> = (0..problem.classes())
            .filter(|&c| problem.is_allowed(c))
            .collect();
        generate(problem, &allowed, None, f64::INFINITY, &mut f);
    }
}

/// The path arm's search state. `sums` carries the sums of the chunks
/// already placed — one [`DagProblem::interval_sum`] lookup per chunk
/// placed, no per-leaf validation, rescan, or allocation.
struct Intervals<'a, F> {
    problem: &'a DagProblem,
    assignment: Vec<usize>,
    used: Vec<bool>,
    sums: Vec<f64>,
    /// The cutoff `f` last returned.
    cutoff: f64,
    /// The fill bound: a schedule needs `T_min ≥ fill · T_max`.
    fill: f64,
    f: &'a mut F,
}

impl<F: FnMut(&[usize], &[f64]) -> f64> Intervals<'_, F> {
    /// Places the chunk starting at `start` on every unused class and
    /// recurses behind each of its possible ends, classes ascending; `lo`
    /// and `hi` are the least and greatest placed sum (∞ and 0 before the
    /// first chunk). On a path a placed sum is final, and a chunk's sum
    /// never falls as its end moves right. So the first end above the
    /// cutoff, or with `fill · sum > lo` (a placed chunk would fall under
    /// the fill of this one), ends the class's loop, and an end with
    /// `sum < fill · hi` (this chunk falls under the fill of a placed
    /// one) is skipped. Both tests are strict, so ties stay admitted.
    fn place(&mut self, start: usize, lo: f64, hi: f64) {
        let (problem, n) = (self.problem, self.problem.stages());
        if start == n {
            self.cutoff = (self.f)(&self.assignment, &self.sums);
            return;
        }
        if problem.max_chunks().is_some_and(|k| self.sums.len() >= k) {
            return; // cap reached with stages remaining
        }
        for c in 0..problem.classes() {
            if self.used[c] || !problem.is_allowed(c) {
                continue;
            }
            self.used[c] = true;
            for end in start..n {
                let sum = problem.interval_sum(start, end, c);
                if sum > self.cutoff || self.fill * sum > lo {
                    break;
                }
                // Before any skip: the next end's chunk covers this slot.
                self.assignment[end] = c;
                if sum < self.fill * hi {
                    continue;
                }
                self.sums.push(sum);
                self.place(end + 1, lo.min(sum), hi.max(sum));
                self.sums.pop();
            }
            self.used[c] = false;
        }
    }
}

/// The relative margin by which a class's partial sum in placement order
/// must exceed the cutoff before [`generate`] prunes: far above the
/// ≈ 1.4·10⁻¹⁴ by which it can exceed, relatively, the chunk's sum in
/// topological order (N ≤ 64).
const SLACK: f64 = 1e-9;

/// The general arm, and [`DagProblem::best_replication`]'s: every valid
/// schedule whose stages take their classes from `palette` (ascending),
/// except that stage `replica` is pinned to [`REPLICA`] — a singleton
/// pseudo-class, hence a convexity barrier, that occupies two PUs and
/// whose two chunk sums the caller prices (`f` gets the others'). `f`
/// returns the cutoff, `cutoff` being the one before the first schedule;
/// a placement whose class's partial sum exceeds it by [`SLACK`] is
/// pruned.
pub(crate) fn generate<F: FnMut(&[usize], &[f64]) -> f64>(
    problem: &DagProblem,
    palette: &[usize],
    replica: Option<usize>,
    cutoff: f64,
    f: &mut F,
) {
    let (n, m) = (problem.stages(), problem.classes());
    let cap = problem.max_chunks().unwrap_or(usize::MAX);
    Generator {
        problem,
        palette,
        replica,
        room: cap - usize::from(replica.is_some()),
        hulls: vec![Hull::default(); m + 1],
        partial: vec![0.0; m + 1],
        bound: cutoff * (1.0 + SLACK),
        assignment: vec![0; n],
        slot: vec![0; m],
        sums: Vec::with_capacity(m),
        f,
    }
    .place(n, 0);
}

struct Generator<'a, F> {
    problem: &'a DagProblem,
    palette: &'a [usize],
    replica: Option<usize>,
    /// How many more classes may come into use (iii).
    room: usize,
    /// By class; the replica's pseudo-class last.
    hulls: Vec<Hull>,
    /// By class, as `hulls`: the sum of the stages placed, in placement
    /// order (the replica's stays 0).
    partial: Vec<f64>,
    /// The cutoff `f` last returned, times `1 + SLACK`.
    bound: f64,
    assignment: Vec<usize>,
    /// Leaf buffers: where each class's chunk sum sits in `sums`.
    slot: Vec<usize>,
    sums: Vec<f64>,
    f: &'a mut F,
}

impl<F: FnMut(&[usize], &[f64]) -> f64> Generator<'_, F> {
    /// Gives stage `left − 1` each class it may join, the stages in
    /// `placed` having theirs, and recurses below it.
    fn place(&mut self, left: usize, placed: u64) {
        let Some(s) = left.checked_sub(1) else {
            return self.leaf();
        };
        // (i): in one class's hole `s` can only join that class; in two, none.
        let mut holed = (0..self.hulls.len()).filter(|&k| self.hulls[k].holes() >> s & 1 == 1);
        let (owner, second) = (holed.next(), holed.next());
        if second.is_some() {
            return;
        }
        let palette = if self.replica == Some(s) {
            &[REPLICA][..]
        } else {
            self.palette
        };
        for &c in palette {
            let k = c.min(self.hulls.len() - 1);
            let (before, held) = (self.hulls[k], self.partial[k]);
            let sum = if c == REPLICA {
                held
            } else {
                held + self.problem.latency(s, c)
            };
            if sum > self.bound || owner.is_some_and(|o| o != k) {
                continue;
            }
            let joined = before.with(self.problem.dag(), s);
            let opens = usize::from(before.is_empty());
            if opens > self.room || joined.holes() & placed != 0 {
                continue;
            }
            self.hulls[k] = joined;
            self.partial[k] = sum;
            self.room -= opens;
            self.assignment[s] = c;
            self.place(s, placed | 1 << s);
            self.room += opens;
            self.partial[k] = held;
            self.hulls[k] = before;
        }
    }

    /// A path-convex assignment within the cap: a schedule iff its
    /// quotient graph is acyclic. Sums accumulate in topological order,
    /// chunk ids by first appearance in it, as [`DagProblem::evaluate`]'s.
    fn leaf(&mut self) {
        if !acyclic(&self.hulls) {
            return;
        }
        self.sums.clear();
        self.slot.fill(usize::MAX);
        for &s in self.problem.dag().topo_order() {
            let c = self.assignment[s];
            if c == REPLICA {
                continue;
            }
            if self.slot[c] == usize::MAX {
                self.slot[c] = self.sums.len();
                self.sums.push(0.0);
            }
            self.sums[self.slot[c]] += self.problem.latency(s, c);
        }
        self.bound = (self.f)(&self.assignment, &self.sums) * (1.0 + SLACK);
    }
}

impl DagProblem {
    /// The minimum-bottleneck schedule as `(T_max, schedule)`, by exact
    /// enumeration — the first of [`DagProblem::latency_candidates_exact`].
    pub fn min_latency_exact(&self) -> Option<(f64, Assignment)> {
        let best = self.latency_candidates_exact(1).pop()?;
        Some((best.t_max, best.assignment))
    }

    /// The `k` lowest-latency schedules in `(T_max, gapness, assignment)`
    /// order, by exact enumeration; `usize::MAX` lists the whole space.
    pub fn latency_candidates_exact(&self, k: usize) -> Vec<Eval> {
        self.latency_top_k(k, 0.0, |_, _, _| true)
    }

    /// The first `k` schedules in `(T_max, gapness, assignment)` order
    /// among those with `T_min ≥ fill · T_max` (the paper's utilization
    /// filter, C3a; `fill` = 0 admits all) that `admit` accepts, given the
    /// assignment, `T_max` and `T_min`. Once `k` are kept, the search is
    /// bounded by the `k`-th best `T_max`, so only a schedule that can
    /// still rank is priced; on a path, the fill bound prunes the search
    /// too, so `admit` sees only schedules that meet it.
    pub fn latency_top_k(
        &self,
        k: usize,
        fill: f64,
        mut admit: impl FnMut(&[usize], f64, f64) -> bool,
    ) -> Vec<Eval> {
        let mut top: Vec<Eval> = Vec::new();
        if k == 0 {
            return top;
        }
        let mut cutoff = f64::INFINITY;
        // The schedule being ranked. Once `k` are kept, it is priced into
        // the buffers of the `Eval` it last evicted.
        let mut next = Eval::new(Vec::new(), Vec::new());
        for_each_below(self, fill, |assignment, sums| {
            let (t_max, t_min) = extremes(sums);
            if t_max > cutoff || t_min < fill * t_max || !admit(assignment, t_max, t_min) {
                return cutoff;
            }
            next.assignment.clear();
            next.assignment.extend_from_slice(assignment);
            next.chunk_sums.clear();
            next.chunk_sums.extend_from_slice(sums);
            (next.t_max, next.t_min) = (t_max, t_min);
            if top.len() < k {
                top.push(std::mem::replace(
                    &mut next,
                    Eval::new(Vec::new(), Vec::new()),
                ));
                if top.len() < k {
                    return cutoff;
                }
                top.sort_by(Eval::by_latency);
            } else {
                let at = top.partition_point(|e| e.by_latency(&next).is_lt());
                if at == k {
                    return cutoff;
                }
                let evicted = top.pop().expect("the top-K is full");
                top.insert(at, std::mem::replace(&mut next, evicted));
            }
            cutoff = top[k - 1].t_max;
            cutoff
        });
        top.sort_by(Eval::by_latency);
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiers::{TierSearch, EPS};
    use crate::{ReplicatedPlan, StageDag};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn problem(rows: Vec<Vec<f64>>) -> DagProblem {
        DagProblem::chain(rows).unwrap()
    }

    /// The whole space, in candidate order.
    fn enumerate_schedules(p: &DagProblem) -> Vec<Eval> {
        p.latency_candidates_exact(usize::MAX)
    }

    /// Closed form: number of schedules = Σ_k C(n−1, k−1) · P(m, k).
    fn expected_count(n: usize, m: usize) -> usize {
        fn choose(n: usize, k: usize) -> usize {
            if k > n {
                return 0;
            }
            (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
        }
        fn perm(m: usize, k: usize) -> usize {
            (0..k).fold(1, |acc, i| acc * (m - i))
        }
        (1..=m.min(n))
            .map(|k| choose(n - 1, k - 1) * perm(m, k))
            .sum()
    }

    #[test]
    fn enumeration_count_matches_closed_form() {
        for (n, m) in [(2, 2), (3, 2), (4, 3), (5, 4), (9, 4)] {
            let rows = vec![vec![1.0; m]; n];
            let p = problem(rows);
            let got = enumerate_schedules(&p).len();
            assert_eq!(got, expected_count(n, m), "n={n}, m={m}");
        }
    }

    #[test]
    fn paper_size_space_is_262k_naive_but_2k_contiguous() {
        // The paper counts 4^9 ≈ 262K naive assignments; contiguity cuts
        // this to about 2 000 actual schedules.
        let p = problem(vec![vec![1.0; 4]; 9]);
        let n = enumerate_schedules(&p).len();
        assert_eq!(n, expected_count(9, 4));
        assert!(n < 3000);
    }

    #[test]
    fn all_enumerated_schedules_are_valid_and_distinct() {
        let p = problem(vec![vec![1.0, 2.0, 3.0]; 5]);
        let all = enumerate_schedules(&p);
        let mut seen = std::collections::HashSet::new();
        for s in &all {
            assert!(p.is_valid(&s.assignment));
            assert!(
                seen.insert(s.assignment.clone()),
                "duplicate {:?}",
                s.assignment
            );
        }
    }

    #[test]
    fn latency_candidates_exact_matches_sat_optimum() {
        let p = problem(vec![
            vec![10.0, 100.0],
            vec![100.0, 10.0],
            vec![10.0, 100.0],
            vec![50.0, 60.0],
        ]);
        let exact = p.latency_candidates_exact(1)[0].t_max;
        let (sat, _) = p.min_latency(&[]).expect("feasible");
        assert!((exact - sat).abs() < 1e-6, "exact {exact} vs sat {sat}");
    }

    #[test]
    fn max_chunks_cap_respected_by_both_engines() {
        let p = problem(vec![
            vec![10.0, 30.0, 20.0],
            vec![20.0, 10.0, 30.0],
            vec![30.0, 20.0, 10.0],
            vec![15.0, 25.0, 35.0],
        ])
        .with_max_chunks(2)
        .unwrap();
        let all = enumerate_schedules(&p);
        assert!(!all.is_empty());
        for e in &all {
            assert!(
                e.chunk_sums.len() <= 2,
                "schedule {:?} uses {} chunks",
                e.assignment,
                e.chunk_sums.len()
            );
        }
        // SAT engine agrees on the optimum under the cap.
        let exact = p.latency_candidates_exact(1)[0].t_max;
        let (sat, sched) = p.min_latency(&[]).expect("feasible");
        assert!((exact - sat).abs() < 1e-6, "exact {exact} vs sat {sat}");
        assert!(p.is_valid(&sched));
        // The cap binds: without it the optimum is strictly better.
        let free = problem(vec![
            vec![10.0, 30.0, 20.0],
            vec![20.0, 10.0, 30.0],
            vec![30.0, 20.0, 10.0],
            vec![15.0, 25.0, 35.0],
        ]);
        let unconstrained = free.latency_candidates_exact(1)[0].t_max;
        assert!(unconstrained <= exact);
    }

    #[test]
    fn disallowed_classes_excluded_from_enumeration() {
        let p = problem(vec![vec![1.0, 2.0]; 3])
            .with_allowed(vec![true, false])
            .unwrap();
        let all = enumerate_schedules(&p);
        assert_eq!(all.len(), 1, "only the all-class-0 schedule remains");
        assert_eq!(all[0].assignment, vec![0, 0, 0]);
    }

    /// §3.3 as written, sharing nothing with the hull masks: the triple
    /// loop over `reaches`, chunks by first topological appearance, the
    /// cap, Kahn over the `deps()` quotient. The chunks of a valid
    /// assignment (over allowed classes, `REPLICA` on `replica` alone).
    fn chunks_by_definition(
        p: &DagProblem,
        a: &[usize],
        replica: Option<usize>,
    ) -> Option<Vec<Vec<usize>>> {
        let (n, dag) = (p.stages(), p.dag());
        for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (u, v))) {
            let between = |w: usize| dag.reaches(u, w) && dag.reaches(w, v);
            if a[u] == a[v] && dag.reaches(u, v) && (0..n).any(|w| between(w) && a[w] != a[u]) {
                return None;
            }
        }
        let mut chunks: Vec<Vec<usize>> = Vec::new();
        for &s in dag.topo_order() {
            match chunks.iter_mut().find(|ch| a[ch[0]] == a[s]) {
                Some(ch) => ch.push(s),
                None => chunks.push(vec![s]),
            }
        }
        let weight = chunks.len() + usize::from(replica.is_some());
        if p.max_chunks().is_some_and(|k| weight > k) {
            return None;
        }
        let chunk_of = |s: usize| chunks.iter().position(|ch| ch.contains(&s)).unwrap();
        let mut edges: BTreeSet<(usize, usize)> = (dag.deps().iter())
            .map(|&(u, v)| (chunk_of(u), chunk_of(v)))
            .filter(|(from, to)| from != to)
            .collect();
        let mut left: BTreeSet<usize> = (0..chunks.len()).collect();
        while let Some(&c) = (left.iter()).find(|&&c| edges.iter().all(|&(_, to)| to != c)) {
            left.remove(&c);
            edges.retain(|&(from, _)| from != c);
        }
        left.is_empty().then_some(chunks)
    }

    /// Every assignment of `n` stages over `palette`, the first free stage
    /// fastest; `replica` carries `REPLICA`.
    fn odometer(n: usize, palette: &[usize], replica: Option<usize>, f: &mut dyn FnMut(&[usize])) {
        let free: Vec<usize> = (0..n).filter(|&s| Some(s) != replica).collect();
        if palette.is_empty() && !free.is_empty() {
            return;
        }
        let mut idx = vec![0; free.len()];
        loop {
            let mut a = vec![REPLICA; n];
            free.iter().zip(&idx).for_each(|(&s, &i)| a[s] = palette[i]);
            f(&a);
            let Some(k) = idx.iter().position(|&i| i + 1 < palette.len()) else {
                return;
            };
            idx[k] += 1;
            idx[..k].fill(0);
        }
    }

    /// What the general arm was: the odometer filtered by the definition,
    /// each chunk summed over its members in topological order.
    fn filtered(
        p: &DagProblem,
        palette: &[usize],
        replica: Option<usize>,
        f: &mut dyn FnMut(&[usize], &[f64]),
    ) {
        odometer(p.stages(), palette, replica, &mut |a| {
            if let Some(chunks) = chunks_by_definition(p, a, replica) {
                let sums: Vec<f64> = (chunks.iter())
                    .filter(|ch| a[ch[0]] != REPLICA)
                    .map(|ch| p.sum_on(a[ch[0]], ch))
                    .collect();
                f(a, &sums);
            }
        });
    }

    /// `f` as a bounded callback that never cuts.
    fn unbounded<'a>(
        f: &'a mut dyn FnMut(&[usize], &[f64]),
    ) -> impl FnMut(&[usize], &[f64]) -> f64 + 'a {
        |a, sums| {
            f(a, sums);
            f64::INFINITY
        }
    }

    /// What an enumeration emits, in its order, sums as bit patterns.
    fn emitted(run: impl FnOnce(&mut dyn FnMut(&[usize], &[f64]))) -> Vec<(Assignment, Vec<u64>)> {
        let mut all = Vec::new();
        run(&mut |a, sums| all.push((a.to_vec(), sums.iter().map(|x| x.to_bits()).collect())));
        all
    }

    /// A random problem on `n` stages and `m` classes under a random
    /// labelling (so the placement order `n − 1 … 0` is no topological
    /// order), with or without a cap and a masked class.
    fn random_problem(rng: &mut StdRng, n: usize, m: usize) -> DagProblem {
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let density = rng.gen_range(0.1..0.9);
        let deps = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(density))
            .map(|(i, j)| (label[i], label[j]))
            .collect();
        let lat = (0..n)
            .map(|_| (0..m).map(|_| rng.gen_range(0.1..50.0)).collect())
            .collect();
        let mut p = DagProblem::new(lat, StageDag::new(n, deps).unwrap()).unwrap();
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

    /// The unique minimum of `best_replication`'s order over the filtered
    /// odometer, pairs and palette taken back to front.
    fn best_replication_by_definition(p: &DagProblem, stage: usize) -> Option<ReplicatedPlan> {
        let mut allowed: Vec<usize> = (0..p.classes()).filter(|&c| p.is_allowed(c)).collect();
        allowed.reverse();
        let mut plans: Vec<(f64, ReplicatedPlan)> = Vec::new();
        for (i, &c2) in allowed.iter().enumerate() {
            for &c1 in &allowed[i + 1..] {
                let rest: Vec<usize> = (allowed.iter().copied())
                    .filter(|&c| c != c1 && c != c2)
                    .collect();
                filtered(p, &rest, Some(stage), &mut |a, _| {
                    let plan = ReplicatedPlan {
                        stage,
                        classes: (c1, c2),
                        assignment: a.to_vec(),
                        t_max: 0.0,
                    };
                    let eval = p.evaluate_replicated(&plan);
                    let t_max = eval.t_max;
                    plans.push((eval.gapness(), ReplicatedPlan { t_max, ..plan }));
                });
            }
        }
        let order = |(g, x): &(f64, ReplicatedPlan), (h, y): &(f64, ReplicatedPlan)| {
            (x.t_max.total_cmp(&y.t_max))
                .then_with(|| g.total_cmp(h))
                .then_with(|| x.assignment.cmp(&y.assignment))
                .then_with(|| x.classes.cmp(&y.classes))
        };
        plans.into_iter().min_by(order).map(|(_, plan)| plan)
    }

    /// The generator against what it replaced, N ≤ 8 and M ≤ 4: the same
    /// assignments in the same order with `to_bits()`-equal sums, with
    /// and without a replicated stage; every schedule passes `is_valid`
    /// (the hull code on a whole assignment) and nothing else does; and
    /// `best_replication` is the minimum of its order.
    #[test]
    fn generator_is_the_filtered_odometer() {
        let mut rng = StdRng::seed_from_u64(24);
        for case in 0..400 {
            let (n, m) = (rng.gen_range(1..=8usize), rng.gen_range(2..=4usize));
            // Keep the reference's Mᴺ affordable in a debug build.
            let n = if m == 4 { n.min(7) } else { n };
            let p = random_problem(&mut rng, n, m);
            let allowed: Vec<usize> = (0..m).filter(|&c| p.is_allowed(c)).collect();
            let was = emitted(|f| filtered(&p, &allowed, None, f));
            let is = emitted(|f| generate(&p, &allowed, None, f64::INFINITY, &mut unbounded(f)));
            assert_eq!(is, was, "case {case}: {p:?}");
            if !p.dag().is_path() {
                assert_eq!(is, emitted(|f| for_each_schedule(&p, f)));
            }
            let mut valid = 0;
            odometer(n, &allowed, None, &mut |a| {
                valid += usize::from(p.is_valid(a))
            });
            assert_eq!(valid, is.len(), "case {case}: is_valid admits another set");
            assert!(is.iter().all(|(a, _)| p.is_valid(a)));

            let stage = rng.gen_range(0..n);
            let rest = &allowed[..allowed.len().saturating_sub(2)];
            let was = emitted(|f| filtered(&p, rest, Some(stage), f));
            let is = emitted(|f| generate(&p, rest, Some(stage), f64::INFINITY, &mut unbounded(f)));
            assert_eq!(is, was, "case {case}, replicating {stage}: {p:?}");
            let best = p.best_replication(stage);
            assert_eq!(
                best,
                best_replication_by_definition(&p, stage),
                "case {case}"
            );
            assert!(best.is_none_or(|plan| p.is_valid_replicated(&plan)));
        }
    }

    /// What an arm enumerates, sorted by assignment.
    fn space(arm: impl FnOnce(&mut dyn FnMut(&[usize], &[f64]))) -> Vec<(Assignment, Vec<f64>)> {
        let mut all = Vec::new();
        arm(&mut |a, sums| all.push((a.to_vec(), sums.to_vec())));
        all.sort_by(|x, y| x.0.cmp(&y.0));
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The shape test only ever sends a path down the fast exact arm
        /// and the interval tiers, so nothing else compares them with the
        /// general ones: here a chain (the `solver_oracle` tables) goes
        /// through both exact arms directly and through the SAT session,
        /// and once more relabelled back to front — a path whose
        /// topological order is not `0..n`, which the shape test sends
        /// down the general arm and the subset-sum tiers. Same admitted
        /// set, same sums, optima and candidates to 1e-9, same verdict on
        /// a window from each of them and from the enumerated space.
        #[test]
        fn both_arms_agree_on_paths(
            rows in (2usize..=9, 2usize..=4).prop_flat_map(|(n, m)| {
                proptest::collection::vec(proptest::collection::vec(1.0f64..1000.0, m..=m), n..=n)
            }),
            cap in 0usize..=3,
            lo_frac in 0.0f64..0.5,
            hi_frac in 0.5f64..1.0,
        ) {
            let capped = |p: DagProblem| if cap > 0 { p.with_max_chunks(cap).unwrap() } else { p };
            let n = rows.len();
            let p = capped(DagProblem::chain(rows.clone()).unwrap());
            let back_to_front = StageDag::new(n, (1..n).map(|i| (i, i - 1)).collect()).unwrap();
            let q = DagProblem::new(rows.iter().rev().cloned().collect(), back_to_front);
            let q = capped(q.unwrap());
            prop_assert!(p.dag().is_path() && !q.dag().is_path());

            let fast = space(|f| for_each_below(&p, 0.0, unbounded(f)));
            let every: Vec<usize> = (0..p.classes()).collect();
            let general = space(|f| generate(&p, &every, None, f64::INFINITY, &mut unbounded(f)));
            let mut relabelled = space(|f| generate(&q, &every, None, f64::INFINITY, &mut unbounded(f)));
            relabelled.iter_mut().for_each(|(a, _)| a.reverse());
            relabelled.sort_by(|x, y| x.0.cmp(&y.0));
            for other in [&general, &relabelled] {
                prop_assert_eq!(fast.len(), other.len());
                for ((a, s), (b, t)) in fast.iter().zip(other) {
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(s.len(), t.len());
                    prop_assert!(s.iter().zip(t).all(|(x, y)| (x - y).abs() < EPS), "{s:?} {t:?}");
                }
            }

            let tiers = p.chunk_sums();
            let lo = tiers[((tiers.len() - 1) as f64 * lo_frac) as usize];
            let hi = tiers[((tiers.len() - 1) as f64 * hi_frac) as usize];
            let in_window = (fast.iter())
                .any(|(_, s)| s.iter().all(|&x| x >= lo - EPS && x <= hi + EPS));
            let optimum = (fast.iter())
                .map(|(_, s)| s.iter().copied().fold(f64::MIN, f64::max))
                .fold(f64::MAX, f64::min);
            for problem in [&p, &q] {
                let mut search = TierSearch::new(problem, &[]);
                prop_assert_eq!(search.solve_window(problem, lo, hi).is_some(), in_window);
                let (t, _) = search.min_latency(problem).expect("feasible");
                prop_assert!((t - optimum).abs() < EPS, "{t} vs {optimum}");
            }
            let (path, relabelled) = (p.latency_candidates(30), q.latency_candidates(30));
            prop_assert_eq!(path.len(), relabelled.len());
            for ((t, _), (u, _)) in path.iter().zip(&relabelled) {
                prop_assert!((t - u).abs() < EPS, "{t} vs {u}");
            }
        }
    }
}
