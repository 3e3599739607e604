//! Property tests for the schedule encoding over random DAGs (paths
//! among them): the SAT path against the exact enumerator (the oracle),
//! and validity against an independent reference implementation of
//! path-convexity + chunk-graph acyclicity.

use bt_solver::{DagProblem, Engine, StageDag};
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
    if a.len() != n || a.iter().any(|&c| c >= m) {
        return false;
    }
    // Floyd–Warshall-style reachability (small n).
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
    /// distinct, and in non-decreasing latency order.
    #[test]
    fn sat_candidates_well_formed(
        (n, deps) in random_dag(4),
        seed_lat in latency_table(4, 3),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let dag = StageDag::new(n, deps).unwrap();
        let p = DagProblem::new(lat, dag).unwrap();
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

proptest! {
    // Fewer cases here: the chronological DPLL oracle genuinely labors on
    // the large instances (that gap is what the CDCL upgrade is for), so
    // this block budgets its CI time separately from the cheap properties.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The clause-learning CDCL engine (the default) and the chronological
    /// DPLL oracle agree on mid-size random DAGs — same optimum, both
    /// witnesses valid, feasibility verdicts identical. (N is capped at 7
    /// here only because the *DPLL* side labors beyond that — the very gap
    /// the CDCL upgrade closes; `cdcl_matches_exact_on_large_dags` pushes
    /// CDCL itself to N = 9 against the enumerator.)
    #[test]
    fn cdcl_and_dpll_agree_on_large_dags(
        (n, deps) in random_dag(7),
        seed_lat in latency_table(7, 3),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let dag = StageDag::new(n, deps).unwrap();
        let cdcl = DagProblem::new(lat.clone(), dag.clone()).unwrap();
        let dpll = DagProblem::new(lat, dag).unwrap().with_engine(Engine::Dpll);
        match (cdcl.min_latency(&[]), dpll.min_latency(&[])) {
            (Some((tc, ac)), Some((td, ad))) => {
                prop_assert!((tc - td).abs() < 1e-9, "cdcl {tc} vs dpll {td}");
                prop_assert!(cdcl.is_valid(&ac), "CDCL witness invalid");
                prop_assert!(dpll.is_valid(&ad), "DPLL witness invalid");
            }
            (None, None) => {}
            (c, d) => prop_assert!(false, "feasibility disagreement: cdcl {c:?} vs dpll {d:?}"),
        }
    }

    /// CDCL alone on genuinely large instances (N = 9, where the
    /// chronological DPLL takes seconds per solve): the learned-clause
    /// engine must still match the exhaustive enumerator exactly.
    #[test]
    fn cdcl_matches_exact_on_large_dags(
        (n, deps) in random_dag(9),
        seed_lat in latency_table(9, 3),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let dag = StageDag::new(n, deps).unwrap();
        let p = DagProblem::new(lat, dag).unwrap();
        let exact = p.min_latency_exact();
        match (exact, p.min_latency(&[])) {
            (Some((te, _)), Some((ts, a))) => {
                prop_assert!((te - ts).abs() < 1e-9, "exact {te} vs cdcl {ts}");
                prop_assert!(p.is_valid(&a), "CDCL witness invalid");
            }
            (None, None) => {}
            (e, s) => prop_assert!(false, "feasibility disagreement: exact {e:?} vs cdcl {s:?}"),
        }
    }

    /// Both engines stream the same latency tiers through the blocking-
    /// clause candidate loop, and every model either emits verifies.
    #[test]
    fn cdcl_and_dpll_candidate_tiers_agree(
        (n, deps) in random_dag(5),
        seed_lat in latency_table(5, 3),
    ) {
        let lat: Vec<Vec<f64>> = seed_lat.into_iter().take(n).collect();
        let dag = StageDag::new(n, deps).unwrap();
        let cdcl = DagProblem::new(lat.clone(), dag.clone()).unwrap();
        let dpll = DagProblem::new(lat, dag).unwrap().with_engine(Engine::Dpll);
        let cc = cdcl.latency_candidates(5);
        let dc = dpll.latency_candidates(5);
        prop_assert_eq!(cc.len(), dc.len(), "candidate counts differ");
        for ((tc, ac), (td, ad)) in cc.iter().zip(&dc) {
            prop_assert!((tc - td).abs() < 1e-9, "tier cdcl {} vs dpll {}", tc, td);
            prop_assert!(cdcl.is_valid(ac) && dpll.is_valid(ad));
        }
    }
}
