//! Exact enumeration of the schedule space — BT-Optimizer's fast path and
//! the oracle the SAT encoding is property-tested against.
//!
//! [`for_each_schedule`] is the one enumerator. What it does depends on the
//! problem's DAG and on nothing else:
//!
//! - **a path in index order** (every chain): a schedule is an ordered
//!   partition of the stage sequence into at most `M` intervals, each on a
//!   *distinct* allowed class, so the space (≈2 000 schedules at the
//!   paper's N ≤ 9, M ≤ 4) is generated directly, every leaf valid by
//!   construction and every chunk sum one O(1) prefix difference;
//! - **anything else**: an odometer over all `Mᴺ` assignments, filtered by
//!   [`DagProblem::is_valid`], chunk sums accumulated in topological order.
//!
//! The second arm enumerates paths correctly too (the unit test below pits
//! the two against each other), but not *identically*: a prefix difference
//! and a topological accumulation of the same chunk differ in the last
//! ulp, and the committed predictions (`results/*.json`, the benchmark's
//! reference digests) were produced by prefix differences. It is also
//! what keeps the Fig. 2 loop's enumeration at tens of microseconds, where
//! filtering 4⁹ assignments costs milliseconds.

use std::cmp::Ordering;

use crate::{Assignment, DagProblem, Eval};

/// Streams every valid schedule of `problem` through `f` without
/// materializing the space, in a deterministic order.
///
/// `f` receives the stage → class assignment and the chunk sums in chunk
/// order (pipeline order on chains); both slices are reused between calls,
/// so the callback must copy whatever it keeps.
pub fn for_each_schedule<F: FnMut(&[usize], &[f64])>(problem: &DagProblem, mut f: F) {
    if problem.dag().is_path() {
        let mut assignment = vec![0; problem.stages()];
        let mut used = vec![false; problem.classes()];
        let mut sums = Vec::with_capacity(problem.classes());
        intervals(problem, 0, &mut assignment, &mut used, &mut sums, &mut f);
    } else {
        filtered(problem, &mut f);
    }
}

/// The path arm: places the chunk starting at `start` on every unused
/// class and recurses behind each of its possible ends, classes ascending.
/// `sums` carries the sums of the chunks already placed — one
/// [`DagProblem::interval_sum`] lookup per chunk placed, no per-leaf
/// validation, rescan, or allocation.
fn intervals<F: FnMut(&[usize], &[f64])>(
    problem: &DagProblem,
    start: usize,
    assignment: &mut [usize],
    used: &mut [bool],
    sums: &mut Vec<f64>,
    f: &mut F,
) {
    let n = problem.stages();
    if start == n {
        f(assignment, sums);
        return;
    }
    if problem.max_chunks().is_some_and(|k| sums.len() >= k) {
        return; // cap reached with stages remaining
    }
    for c in 0..problem.classes() {
        if used[c] || !problem.is_allowed(c) {
            continue;
        }
        used[c] = true;
        for end in start..n {
            assignment[end] = c;
            sums.push(problem.interval_sum(start, end, c));
            intervals(problem, end + 1, assignment, used, sums, f);
            sums.pop();
        }
        used[c] = false;
    }
}

/// The general arm: an odometer over the allowed classes (stage 0 fastest),
/// validity-filtered. Exponential in stages; paper pipelines are ≤ 9.
fn filtered<F: FnMut(&[usize], &[f64])>(problem: &DagProblem, f: &mut F) {
    let n = problem.stages();
    let allowed: Vec<usize> = (0..problem.classes())
        .filter(|&c| problem.is_allowed(c))
        .collect();
    let mut idx = vec![0usize; n];
    let mut assignment: Vec<usize> = vec![allowed[0]; n];
    let mut sums = Vec::new();
    loop {
        if problem.is_valid(&assignment) {
            sums.clear();
            sums.extend(
                (problem.chunks_unchecked(&assignment).iter())
                    .map(|ch| problem.sum_on(ch.class, &ch.stages)),
            );
            f(&assignment, &sums);
        }
        // Odometer increment.
        let mut s = 0;
        loop {
            if s == n {
                return;
            }
            idx[s] += 1;
            if idx[s] < allowed.len() {
                assignment[s] = allowed[idx[s]];
                break;
            }
            idx[s] = 0;
            assignment[s] = allowed[0];
            s += 1;
        }
    }
}

impl DagProblem {
    /// The first schedule under `order` (the earliest enumerated among
    /// equals), by exact enumeration.
    fn first_by(&self, order: impl Fn(&Eval, &Eval) -> Ordering) -> Option<Eval> {
        let mut best: Option<Eval> = None;
        for_each_schedule(self, |assignment, sums| {
            let eval = Eval::new(assignment.to_vec(), sums.to_vec());
            if best.as_ref().is_none_or(|b| order(&eval, b).is_lt()) {
                best = Some(eval);
            }
        });
        best
    }

    /// The minimum-bottleneck schedule as `(T_max, schedule)`, by exact
    /// enumeration — the first of [`DagProblem::latency_candidates_exact`].
    pub fn min_latency_exact(&self) -> Option<(f64, Assignment)> {
        self.first_by(Eval::by_latency)
            .map(|e| (e.t_max, e.assignment))
    }

    /// The gapness-optimal schedule (objective O1), by exact enumeration.
    pub fn min_gapness_exact(&self) -> Option<Eval> {
        self.first_by(|a, b| {
            (a.gapness().total_cmp(&b.gapness())).then_with(|| a.t_max.total_cmp(&b.t_max))
        })
    }

    /// The `k` lowest-latency schedules in `(T_max, gapness, assignment)`
    /// order, by exact enumeration; `usize::MAX` lists the whole space.
    pub fn latency_candidates_exact(&self, k: usize) -> Vec<Eval> {
        let mut all = Vec::new();
        for_each_schedule(self, |assignment, sums| {
            all.push(Eval::new(assignment.to_vec(), sums.to_vec()));
        });
        all.sort_by(Eval::by_latency);
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiers::{TierSearch, EPS};
    use crate::StageDag;
    use proptest::prelude::*;

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
    fn min_gapness_exact_matches_sat() {
        let tables = [
            vec![vec![10.0, 30.0], vec![20.0, 10.0], vec![30.0, 20.0]],
            vec![
                vec![5.0, 50.0, 20.0],
                vec![25.0, 10.0, 15.0],
                vec![40.0, 30.0, 5.0],
                vec![10.0, 20.0, 30.0],
            ],
        ];
        for rows in tables {
            let p = problem(rows);
            let exact = p.min_gapness_exact().expect("non-empty");
            let (sat_gap, sat_sched) = p.min_gapness().expect("feasible");
            assert!(
                (exact.gapness() - sat_gap).abs() < 1e-6,
                "exact {} vs sat {}",
                exact.gapness(),
                sat_gap
            );
            assert!(p.is_valid(&sat_sched));
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
        .with_max_chunks(2);
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

    /// What an arm enumerates, sorted by assignment.
    fn space(arm: impl FnOnce(&mut dyn FnMut(&[usize], &[f64]))) -> Vec<(Assignment, Vec<f64>)> {
        let mut all = Vec::new();
        arm(&mut |a, sums| all.push((a.to_vec(), sums.to_vec())));
        all.sort_by(|x, y| x.0.cmp(&y.0));
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The shape test only ever sends a path down the fast arms, so
        /// nothing else compares them with the general ones: here a chain
        /// (the `solver_oracle` tables) goes through both exact arms and
        /// both SAT statements directly, and once more relabelled back to
        /// front — a path whose topological order is not `0..n`, which the
        /// shape test sends down the general arms. Same admitted set, same
        /// sums, optima and candidate tiers to 1e-9, same verdict on a
        /// window from each of them and from the enumerated space.
        #[test]
        fn both_arms_agree_on_paths(
            rows in (2usize..=6, 2usize..=4).prop_flat_map(|(n, m)| {
                proptest::collection::vec(proptest::collection::vec(1.0f64..1000.0, m..=m), n..=n)
            }),
            cap in 0usize..=3,
            lo_frac in 0.0f64..0.5,
            hi_frac in 0.5f64..1.0,
        ) {
            let capped = |p: DagProblem| if cap > 0 { p.with_max_chunks(cap) } else { p };
            let n = rows.len();
            let p = capped(DagProblem::chain(rows.clone()).unwrap());
            let back_to_front = StageDag::new(n, (1..n).map(|i| (i, i - 1)).collect()).unwrap();
            let q = DagProblem::new(rows.iter().rev().cloned().collect(), back_to_front);
            let q = capped(q.unwrap());
            prop_assert!(p.dag().is_path() && !q.dag().is_path());

            let fast = space(|mut f| {
                let (mut a, mut used) = (vec![0; n], vec![false; p.classes()]);
                intervals(&p, 0, &mut a, &mut used, &mut Vec::new(), &mut f)
            });
            let slow = space(|mut f| filtered(&p, &mut f));
            let mut relabelled = space(|mut f| filtered(&q, &mut f));
            relabelled.iter_mut().for_each(|(a, _)| a.reverse());
            relabelled.sort_by(|x, y| x.0.cmp(&y.0));
            for other in [&slow, &relabelled] {
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
            for (problem, eager) in [(&p, true), (&p, false), (&q, false)] {
                let mut search = TierSearch::stated(problem, &[], eager);
                prop_assert_eq!(search.solve_window(problem, lo, hi).is_some(), in_window);
                let (t, _) = search.min_latency(problem).expect("feasible");
                prop_assert!((t - optimum).abs() < EPS, "eager {eager}: {t} vs {optimum}");
            }
            let (eagerly, lazily) = (p.latency_candidates(30), q.latency_candidates(30));
            prop_assert_eq!(eagerly.len(), lazily.len());
            for ((t, _), (u, _)) in eagerly.iter().zip(&lazily) {
                prop_assert!((t - u).abs() < EPS, "{t} vs {u}");
            }
        }
    }
}
