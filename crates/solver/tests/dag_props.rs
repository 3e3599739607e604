//! Property tests for the schedule encoding over random DAGs (paths
//! among them): the SAT path against the exact enumerator (the oracle),
//! and validity against an independent reference implementation of
//! path-convexity + chunk-graph acyclicity.

use bt_solver::enumerate::for_each_schedule;
use bt_solver::{Assignment, DagProblem, ReplicatedPlan, StageDag, REPLICA};
use proptest::prelude::*;

/// A random DAG over `n` topologically-indexed stages: every forward pair
/// `(i, j)` is an edge with the given density, plus a spine edge from each
/// non-source to keep most graphs connected-ish (not required, just more
/// interesting).
fn random_dag(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        let len = pairs.len();
        proptest::collection::vec(any::<bool>(), len).prop_map(move |keep| {
            let deps: Vec<(usize, usize)> = pairs
                .iter()
                .zip(&keep)
                .filter_map(|(&e, &k)| k.then_some(e))
                .collect();
            (n, deps)
        })
    })
}

fn latency_table(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(1.0f64..50.0, m), n)
}

/// Reference validity check, written independently of `DagProblem`:
/// per-class path-convexity over a freshly computed reachability relation
/// plus Kahn acyclicity of the class-quotient graph.
fn reference_valid(n: usize, deps: &[(usize, usize)], a: &[usize], m: usize) -> bool {
    a.len() == n && a.iter().all(|&c| c < m) && reference_structure(&closure(n, deps), deps, a)
}

/// Floyd–Warshall-style reachability (small n).
fn closure(n: usize, deps: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut reach = vec![vec![false; n]; n];
    for &(u, v) in deps {
        reach[u][v] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    reach
}

/// The structural half of the reference, over any class labels (a
/// `REPLICA` marker is one more label).
fn reference_structure(reach: &[Vec<bool>], deps: &[(usize, usize)], a: &[usize]) -> bool {
    let n = a.len();
    for u in 0..n {
        for v in 0..n {
            if a[u] == a[v] && reach[u][v] {
                for w in 0..n {
                    if reach[u][w] && reach[w][v] && a[w] != a[u] {
                        return false;
                    }
                }
            }
        }
    }
    // Quotient graph over classes actually used.
    let mut qedges: Vec<(usize, usize)> = deps
        .iter()
        .filter(|&&(u, v)| a[u] != a[v])
        .map(|&(u, v)| (a[u], a[v]))
        .collect();
    qedges.sort_unstable();
    qedges.dedup();
    let classes: Vec<usize> = {
        let mut cs: Vec<usize> = a.to_vec();
        cs.sort_unstable();
        cs.dedup();
        cs
    };
    let mut indeg: std::collections::BTreeMap<usize, usize> =
        classes.iter().map(|&c| (c, 0)).collect();
    for &(_, b) in &qedges {
        *indeg.get_mut(&b).unwrap() += 1;
    }
    let mut ready: Vec<usize> = indeg
        .iter()
        .filter_map(|(&c, &d)| (d == 0).then_some(c))
        .collect();
    let mut seen = 0;
    while let Some(c) = ready.pop() {
        seen += 1;
        for &(x, y) in &qedges {
            if x == c {
                let d = indeg.get_mut(&y).unwrap();
                *d -= 1;
                if *d == 0 {
                    ready.push(y);
                }
            }
        }
    }
    seen == classes.len()
}

/// Every assignment of `free` stages over `palette`, an odometer with the
/// first free stage fastest; every other stage carries `REPLICA`.
fn odometer(n: usize, free: &[usize], palette: &[usize]) -> Vec<Assignment> {
    let mut all = Vec::new();
    if palette.is_empty() && !free.is_empty() {
        return all;
    }
    let mut idx = vec![0; free.len()];
    loop {
        let mut a = vec![REPLICA; n];
        free.iter().zip(&idx).for_each(|(&s, &i)| a[s] = palette[i]);
        all.push(a);
        let Some(k) = idx.iter().position(|&i| i + 1 < palette.len()) else {
            return all;
        };
        idx[k] += 1;
        idx[..k].fill(0);
    }
}

/// The chunk sums of `a`, chunk ids by first appearance in topological
/// order, each accumulated in that order; a `REPLICA` chunk is two, at
/// half service on each class of `pair`.
fn reference_sums(p: &DagProblem, a: &[usize], pair: (usize, usize)) -> Vec<f64> {
    let mut order: Vec<usize> = Vec::new();
    let mut sums: Vec<f64> = Vec::new();
    for &s in p.dag().topo_order() {
        if a[s] == REPLICA {
            sums.extend([p.latency(s, pair.0) / 2.0, p.latency(s, pair.1) / 2.0]);
            order.extend([REPLICA; 2]);
        } else if let Some(id) = order.iter().position(|&c| c == a[s]) {
            sums[id] += p.latency(s, a[s]);
        } else {
            order.push(a[s]);
            sums.push(p.latency(s, a[s]));
        }
    }
    sums
}

fn chunks_used(a: &[usize]) -> usize {
    let labels: std::collections::BTreeSet<usize> = a.iter().copied().collect();
    // A replicated stage occupies two PUs.
    labels.len() + usize::from(labels.contains(&REPLICA))
}

/// The minimum of `(T_max, gapness, assignment, classes)` over every
/// replicated plan the reference admits.
fn reference_replication(
    p: &DagProblem,
    reach: &[Vec<bool>],
    stage: usize,
    palette: &[usize],
    cap: Option<usize>,
) -> Option<ReplicatedPlan> {
    let free: Vec<usize> = (0..p.stages()).filter(|&s| s != stage).collect();
    let mut plans: Vec<(f64, ReplicatedPlan)> = Vec::new();
    for (i, &c1) in palette.iter().enumerate() {
        for &c2 in &palette[i + 1..] {
            let rest: Vec<usize> = (palette.iter().copied())
                .filter(|&c| c != c1 && c != c2)
                .collect();
            for assignment in odometer(p.stages(), &free, &rest) {
                if !reference_structure(reach, p.dag().deps(), &assignment)
                    || cap.is_some_and(|k| chunks_used(&assignment) > k)
                {
                    continue;
                }
                let sums = reference_sums(p, &assignment, (c1, c2));
                let t_max = sums.iter().copied().fold(f64::MIN, f64::max);
                let gapness = t_max - sums.iter().copied().fold(f64::MAX, f64::min);
                let classes = (c1, c2);
                let plan = ReplicatedPlan {
                    stage,
                    classes,
                    assignment,
                    t_max,
                };
                plans.push((gapness, plan));
            }
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

/// ROADMAP 5(d), the DAG half — exhaustive, not sampled: every DAG on
/// ≤ 5 stages (every forward edge set, and each again labelled back to
/// front, where the generator's placement order `n − 1 … 0` runs *with*
/// the dependencies) × 2 and 3 classes × cap ∈ {none, 1, 2} × {all
/// allowed, one class masked}. The exact enumerator emits the odometer
/// filtered by the reference — same assignments, same order,
/// `to_bits()`-equal sums — and `best_replication` is the reference's
/// minimum for every stage. (A DAG that is a path in index order takes
/// the enumerator's other arm: same set, sums to 1e-9.)
#[test]
fn enumerator_and_replication_match_reference_on_every_small_dag() {
    let mut problems = 0;
    for n in 1..=5usize {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        let stages: Vec<usize> = (0..n).collect();
        for (shape, reversed) in (0u32..1 << pairs.len()).flat_map(|s| [(s, false), (s, true)]) {
            let label = |i: usize| if reversed { n - 1 - i } else { i };
            let deps: Vec<(usize, usize)> = (pairs.iter().enumerate())
                .filter(|(b, _)| shape >> b & 1 == 1)
                .map(|(_, &(i, j))| (label(i), label(j)))
                .collect();
            let reach = closure(n, &deps);
            let dag = StageDag::new(n, deps.clone()).unwrap();
            let path = (1..n).all(|i| dag.reaches(i - 1, i));
            for (m, masked) in [(2, None), (2, Some(0)), (3, None), (3, Some(1))] {
                let lat: Vec<Vec<f64>> = (0..n)
                    .map(|s| {
                        (0..m)
                            .map(|c| 0.1 + ((s * 7 + c * 13) % 11) as f64 * 0.37)
                            .collect()
                    })
                    .collect();
                let palette: Vec<usize> = (0..m).filter(|&c| Some(c) != masked).collect();
                let structural: Vec<Assignment> = (odometer(n, &stages, &palette).into_iter())
                    .filter(|a| reference_structure(&reach, &deps, a))
                    .collect();
                for cap in [None, Some(1), Some(2)] {
                    let p = DagProblem::new(lat.clone(), dag.clone())
                        .and_then(|p| p.with_allowed((0..m).map(|c| Some(c) != masked).collect()))
                        .and_then(|p| match cap {
                            Some(k) => p.with_max_chunks(k),
                            None => Ok(p),
                        })
                        .unwrap();
                    problems += 1;
                    let mut want: Vec<(Assignment, Vec<f64>)> = (structural.iter())
                        .filter(|a| cap.is_none_or(|k| chunks_used(a) <= k))
                        .map(|a| (a.clone(), reference_sums(&p, a, (0, 0))))
                        .collect();
                    let mut got: Vec<(Assignment, Vec<f64>)> = Vec::new();
                    for_each_schedule(&p, |a, sums| got.push((a.to_vec(), sums.to_vec())));
                    if path {
                        want.sort_by(|x, y| x.0.cmp(&y.0));
                        got.sort_by(|x, y| x.0.cmp(&y.0));
                    }
                    assert_eq!(got.len(), want.len(), "{deps:?} m={m} cap={cap:?}");
                    for ((a, s), (b, t)) in got.iter().zip(&want) {
                        assert_eq!(a, b, "{deps:?} m={m} cap={cap:?} mask={masked:?}");
                        assert_eq!(s.len(), t.len(), "{deps:?} {a:?}");
                        let same = |(x, y): (&f64, &f64)| match path {
                            true => (x - y).abs() < 1e-9,
                            false => x.to_bits() == y.to_bits(),
                        };
                        assert!(s.iter().zip(t).all(same), "{deps:?} {a:?}: {s:?} vs {t:?}");
                    }
                    for stage in 0..n {
                        assert_eq!(
                            p.best_replication(stage),
                            reference_replication(&p, &reach, stage, &palette, cap),
                            "{deps:?} m={m} cap={cap:?} mask={masked:?} stage={stage}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(problems, 2 * (1 + 2 + 8 + 64 + 1024) * 4 * 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CEGAR SAT optimum equals the exhaustive-enumeration optimum on
    /// random fork/join DAGs — the extended-encoding analogue of the
    /// chain `min_latency` oracle test.
    #[test]
    fn sat_min_latency_matches_exact(
        (n, deps) in random_dag(5),
        seed_lat in latency_table(5, 3),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let dag = StageDag::new(n, deps).unwrap();
        let p = DagProblem::new(lat, dag).unwrap();
        let exact = p.min_latency_exact();
        let sat = p.min_latency(&[]);
        match (exact, sat) {
            (Some((te, _)), Some((ts, a))) => {
                prop_assert!((te - ts).abs() < 1e-9, "exact {te} vs sat {ts}");
                prop_assert!(p.is_valid(&a));
            }
            (None, None) => {}
            (e, s) => prop_assert!(false, "feasibility disagreement: exact {e:?} vs sat {s:?}"),
        }
    }

    /// `DagProblem::is_valid` agrees with an independently written
    /// reference check on arbitrary (mostly invalid) assignments — in
    /// particular it rejects every extended-C2 (path-convexity) violation
    /// the reference rejects.
    #[test]
    fn validity_matches_reference(
        (n, deps) in random_dag(6),
        seed_a in proptest::collection::vec(0usize..3, 6),
        seed_lat in latency_table(6, 3),
    ) {
        let a: Vec<usize> = seed_a.into_iter().take(n).collect();
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let dag = StageDag::new(n, deps.clone()).unwrap();
        let p = DagProblem::new(lat, dag).unwrap();
        prop_assert_eq!(p.is_valid(&a), reference_valid(n, &deps, &a, 3), "{:?} {:?}", deps, a);
    }

    /// Every candidate the SAT path returns is valid, correctly priced,
    /// distinct, and in non-decreasing latency order, tier for tier the
    /// exact enumerator's — on the random table and again with every
    /// latency folded onto {1, 2, 3}, where most tiers hold several
    /// schedules.
    #[test]
    fn sat_candidates_well_formed(
        (n, deps) in random_dag(5),
        seed_lat in latency_table(5, 3),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let tied: Vec<Vec<f64>> = (lat.iter())
            .map(|row| row.iter().map(|&t| f64::from(t as u32 % 3 + 1)).collect())
            .collect();
        let dag = StageDag::new(n, deps).unwrap();
        for lat in [lat, tied] {
            let p = DagProblem::new(lat, dag.clone()).unwrap();
            let cands = p.latency_candidates(6);
            let exact = p.latency_candidates_exact(6);
            prop_assert_eq!(cands.len(), exact.len());
            for (i, (t, a)) in cands.iter().enumerate() {
                prop_assert!(p.is_valid(a));
                prop_assert!((p.evaluate(a).t_max - t).abs() < 1e-9);
                // Same latency tier as the exact enumerator's i-th candidate.
                prop_assert!((exact[i].t_max - t).abs() < 1e-9);
                for (_, b) in &cands[i + 1..] {
                    prop_assert_ne!(a, b);
                }
            }
            for w in cands.windows(2) {
                prop_assert!(w[0].0 <= w[1].0 + 1e-9);
            }
        }
    }
}

/// `p.min_latency` against the exhaustive enumerator: same optimum, a
/// valid witness, one feasibility verdict.
fn assert_cdcl_matches_exact(p: &DagProblem) {
    match (p.min_latency_exact(), p.min_latency(&[])) {
        (Some((te, _)), Some((ts, a))) => {
            assert!((te - ts).abs() < 1e-9, "exact {te} vs cdcl {ts}");
            assert!(p.is_valid(&a), "CDCL witness invalid");
        }
        (None, None) => {}
        (e, s) => panic!("feasibility disagreement: exact {e:?} vs cdcl {s:?}"),
    }
}

proptest! {
    // The exact side generates its few thousand schedules in well under a
    // millisecond, so N = 9 affords as many cases as the cheap properties.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Genuinely large instances (N = 9): the tier search must still match
    /// the exhaustive enumerator exactly.
    #[test]
    fn cdcl_matches_exact_on_large_dags(
        (n, deps) in random_dag(9),
        seed_lat in latency_table(9, 3),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let p = DagProblem::new(lat, StageDag::new(n, deps).unwrap()).unwrap();
        assert_cdcl_matches_exact(&p);
    }

    /// The same with four classes (the Pixel's count): 4⁹ assignments
    /// behind the oracle, 2⁹ subset sums per class behind the tiers.
    #[test]
    fn cdcl_matches_exact_on_large_dags_with_four_classes(
        (n, deps) in random_dag(9),
        seed_lat in latency_table(9, 4),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let p = DagProblem::new(lat, StageDag::new(n, deps).unwrap()).unwrap();
        assert_cdcl_matches_exact(&p);
    }
}

/// Every latency table over the alphabet {1, 2, 3} for chains of `n`
/// stages on 2 classes, 3^(2n) tables: the tier search's `min_latency`,
/// its fill enumerator at θ ∈ {0.5, 1.0} (windows with a lower bound,
/// met by exact `T_min = θ · T_max` ties) and its first five
/// `latency_candidates` tiers against the enumerator, every witness valid
/// and priced at what it was returned with. Integer sums are exact, so
/// ties compare with `==`.
fn check_every_tied_chain(n: usize) {
    for code in 0..3usize.pow(2 * n as u32) {
        let lat: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..2)
                    .map(|c| (code / 3usize.pow((2 * i + c) as u32) % 3 + 1) as f64)
                    .collect()
            })
            .collect();
        let p = DagProblem::chain(lat.clone()).unwrap();

        let (exact, _) = p.min_latency_exact().unwrap();
        let (t, a) = p.min_latency(&[]).unwrap();
        assert!(
            t == exact && p.is_valid(&a) && p.evaluate(&a).t_max == t,
            "{lat:?}: {t} vs {exact}"
        );

        let all = p.latency_candidates_exact(usize::MAX);
        for fill in [0.5, 1.0] {
            let mut want: Vec<(Assignment, f64)> = (all.iter())
                .filter(|e| e.t_min >= fill * e.t_max)
                .map(|e| (e.assignment.clone(), e.t_max))
                .collect();
            let mut got: Vec<(Assignment, f64)> = (p.latency_enumerator(fill))
                .inspect(|(t, a)| {
                    assert!(
                        p.is_valid(a) && p.evaluate(a).t_max == *t,
                        "{lat:?}, θ = {fill}: {a:?} at {t}"
                    );
                })
                .map(|(t, a)| (a, t))
                .collect();
            want.sort_by(|x, y| x.0.cmp(&y.0));
            got.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(got, want, "{lat:?}, θ = {fill}");
        }

        let found = p.latency_candidates(5);
        let exact = &all[..all.len().min(5)];
        assert_eq!(found.len(), exact.len(), "{lat:?}");
        for (i, ((t, a), e)) in found.iter().zip(exact).enumerate() {
            assert!(
                *t == e.t_max && p.is_valid(a) && p.evaluate(a).t_max == *t,
                "{lat:?}: tier {i}"
            );
            assert!(
                found[..i].iter().all(|(_, b)| b != a),
                "{lat:?}: candidate {i} repeats"
            );
        }
    }
}

#[test]
fn every_tied_chain_of_up_to_three_stages_matches_exact() {
    (1..=3).for_each(check_every_tied_chain);
}

#[test]
fn every_tied_chain_of_four_stages_matches_exact() {
    check_every_tied_chain(4);
}

/// The fill thresholds the pruned exact search is pitted at. On integer
/// latencies θ = 0.5 and 1.0 meet `T_min = θ · T_max` exactly, and the
/// filter admits those ties.
const FILLS: [f64; 4] = [0.3, 0.5, 0.7, 1.0];

/// A ranking with every float as its bit pattern.
fn ranked_bits(evals: &[bt_solver::Eval]) -> Vec<(Assignment, Vec<u64>, Vec<u64>)> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (evals.iter())
        .map(|e| {
            (
                e.assignment.clone(),
                bits(&[e.t_max, e.t_min]),
                bits(&e.chunk_sums),
            )
        })
        .collect()
}

/// Every latency table over {1, 2, 3} for chains of `n` stages on `m`
/// classes (`codes` indexes them, 3^(n·m) in all): `latency_top_k` with
/// the fill bound inside the search against the unpruned search filtered
/// by `T_min ≥ θ · T_max`, for every θ of [`FILLS`] and K ∈ {1, 5, all},
/// floats by `to_bits()`. The pruned search also hands `admit` no more
/// leaves.
fn check_every_filled_chain(n: usize, m: usize, codes: impl Iterator<Item = usize>) {
    for code in codes {
        let lat: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..m)
                    .map(|c| (code / 3usize.pow((m * i + c) as u32) % 3 + 1) as f64)
                    .collect()
            })
            .collect();
        let p = DagProblem::chain(lat.clone()).unwrap();
        for fill in FILLS {
            for k in [1, 5, usize::MAX] {
                let (mut pruned_leaves, mut leaves) = (0, 0);
                let pruned = p.latency_top_k(k, fill, |_, _, _| {
                    pruned_leaves += 1;
                    true
                });
                let want = p.latency_top_k(k, 0.0, |_, t_max, t_min| {
                    leaves += 1;
                    t_min >= fill * t_max
                });
                assert_eq!(
                    ranked_bits(&pruned),
                    ranked_bits(&want),
                    "{lat:?}, θ = {fill}, K = {k}"
                );
                assert!(
                    pruned_leaves <= leaves,
                    "{lat:?}, θ = {fill}, K = {k}: {pruned_leaves} leaves against {leaves}"
                );
            }
        }
    }
}

/// Every table of at most 9 cells (3^9 = 19 683 on 3 × 3): chains of
/// up to 5 stages on 1 class, 4 on 2 classes and 3 on 3 classes.
#[test]
fn fill_bound_prunes_exactly_on_every_small_tied_chain() {
    for m in 1..=3 {
        for n in (1..=5).filter(|n| n * m <= 9) {
            check_every_filled_chain(n, m, 0..3usize.pow((n * m) as u32));
        }
    }
}

/// The larger shapes up to 5 stages on 3 classes, where the whole space
/// (3^15 = 14.3 M tables on 5 × 3) is past a test's budget: 1 000 seeded
/// tables each.
#[test]
fn fill_bound_prunes_exactly_on_sampled_tied_chains() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(54);
    for (n, m) in [(5, 2), (4, 3), (5, 3)] {
        let space = 3usize.pow((n * m) as u32);
        let codes: Vec<usize> = (0..1000).map(|_| rng.gen_range(0..space)).collect();
        check_every_filled_chain(n, m, codes.into_iter());
    }
}
