//! Property tests pitting the SAT encoding against the exact enumerator —
//! the oracle check promised in DESIGN.md: for any profiling table, both
//! engines must agree on optima, and everything either emits must satisfy
//! the paper's constraints C1/C2.

use bettertogether::solver::{DagProblem, Engine, Eval};
use proptest::prelude::*;

fn table_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // 2..=6 stages × 2..=4 classes, latencies in [1, 1000].
    (2usize..=6, 2usize..=4).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(1.0f64..1000.0, m..=m), n..=n)
    })
}

/// The whole space, in candidate order.
fn enumerate_schedules(p: &DagProblem) -> Vec<Eval> {
    p.latency_candidates_exact(usize::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sat_min_latency_matches_enumerator(rows in table_strategy()) {
        let p = DagProblem::chain(rows).expect("valid table");
        let exact = p.latency_candidates_exact(1)[0].t_max;
        let (sat, schedule) = p.min_latency(&[]).expect("feasible");
        prop_assert!((exact - sat).abs() < 1e-6, "exact {exact} vs sat {sat}");
        prop_assert!(p.is_valid(&schedule));
        // The witness really achieves the claimed bound.
        let sums = p.evaluate(&schedule).chunk_sums;
        prop_assert!(sums.iter().all(|&s| s <= sat + 1e-6));
    }

    #[test]
    fn sat_min_gapness_matches_enumerator(rows in table_strategy()) {
        let p = DagProblem::chain(rows).expect("valid table");
        let exact = p.min_gapness_exact().expect("non-empty").gapness();
        let (sat, schedule) = p.min_gapness().expect("feasible");
        prop_assert!((exact - sat).abs() < 1e-6, "exact {exact} vs sat {sat}");
        let sums = p.evaluate(&schedule).chunk_sums;
        let max = sums.iter().cloned().fold(f64::MIN, f64::max);
        let min = sums.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!((max - min) <= sat + 1e-6);
    }

    #[test]
    fn every_enumerated_schedule_is_valid_and_unique(rows in table_strategy()) {
        let p = DagProblem::chain(rows).expect("valid table");
        let all = enumerate_schedules(&p);
        let mut seen = std::collections::HashSet::new();
        for e in &all {
            prop_assert!(p.is_valid(&e.assignment));
            prop_assert!(seen.insert(e.assignment.clone()), "duplicate");
            // t_max/t_min consistent with chunk sums.
            let max = e.chunk_sums.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!((max - e.t_max).abs() < 1e-9);
        }
    }

    #[test]
    fn window_solutions_respect_bounds(rows in table_strategy(), lo_frac in 0.0f64..0.5, hi_frac in 0.5f64..1.0) {
        let p = DagProblem::chain(rows).expect("valid table");
        let sums = p.chunk_sums();
        let lo = sums[((sums.len() - 1) as f64 * lo_frac) as usize];
        let hi = sums[((sums.len() - 1) as f64 * hi_frac) as usize];
        if let Some(schedule) = p.solve_window(lo, hi, &[]) {
            prop_assert!(p.is_valid(&schedule));
            for s in p.evaluate(&schedule).chunk_sums {
                prop_assert!(s >= lo - 1e-6 && s <= hi + 1e-6, "chunk {s} outside [{lo}, {hi}]");
            }
        }
        // The enumerator agrees on feasibility.
        let any_exact = enumerate_schedules(&p).into_iter().any(|e| {
            e.chunk_sums.iter().all(|&s| s >= lo - 1e-9 && s <= hi + 1e-9)
        });
        prop_assert_eq!(p.solve_window(lo, hi, &[]).is_some(), any_exact);
    }

    #[test]
    fn blocking_enumeration_is_exhaustive_and_distinct(rows in table_strategy()) {
        let p = DagProblem::chain(rows).expect("valid table");
        let space = enumerate_schedules(&p).len();
        let found = p.latency_candidates(space + 5);
        prop_assert_eq!(found.len(), space, "blocking must enumerate the whole space");
        let mut seen = std::collections::HashSet::new();
        for (_, a) in &found {
            prop_assert!(seen.insert(a.clone()));
        }
        // Non-decreasing latency order.
        for w in found.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 + 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cross-engine oracle: the clause-learning CDCL engine (the default)
    /// and the chronological DPLL engine it replaced must return the same
    /// optima — which must also equal the exact enumerator's — and every
    /// witness either engine emits must verify against the constraints.
    #[test]
    fn cdcl_and_dpll_agree_with_exact_enumerator(rows in table_strategy()) {
        let cdcl = DagProblem::chain(rows.clone()).expect("valid table");
        prop_assert_eq!(cdcl.engine(), Engine::Cdcl, "CDCL is the default engine");
        let dpll = DagProblem::chain(rows)
            .expect("valid table")
            .with_engine(Engine::Dpll);

        let exact = cdcl.latency_candidates_exact(1)[0].t_max;
        let (tc, sc) = cdcl.min_latency(&[]).expect("feasible");
        let (td, sd) = dpll.min_latency(&[]).expect("feasible");
        prop_assert!((tc - td).abs() < 1e-9, "cdcl {tc} vs dpll {td}");
        prop_assert!((tc - exact).abs() < 1e-6, "sat {tc} vs exact {exact}");
        prop_assert!(cdcl.is_valid(&sc), "CDCL witness violates C1/C2");
        prop_assert!(dpll.is_valid(&sd), "DPLL witness violates C1/C2");

        let (gc, _) = cdcl.min_gapness().expect("feasible");
        let (gd, _) = dpll.min_gapness().expect("feasible");
        prop_assert!((gc - gd).abs() < 1e-9, "gapness cdcl {gc} vs dpll {gd}");
    }

    /// Both engines return the same feasibility verdict on arbitrary
    /// runtime windows, and any model found verifies.
    #[test]
    fn cdcl_and_dpll_window_verdicts_agree(
        rows in table_strategy(),
        lo_frac in 0.0f64..0.5,
        hi_frac in 0.5f64..1.0,
    ) {
        let cdcl = DagProblem::chain(rows.clone()).expect("valid table");
        let dpll = DagProblem::chain(rows)
            .expect("valid table")
            .with_engine(Engine::Dpll);
        let sums = cdcl.chunk_sums();
        let lo = sums[((sums.len() - 1) as f64 * lo_frac) as usize];
        let hi = sums[((sums.len() - 1) as f64 * hi_frac) as usize];
        let c = cdcl.solve_window(lo, hi, &[]);
        let d = dpll.solve_window(lo, hi, &[]);
        prop_assert_eq!(c.is_some(), d.is_some(), "window [{}, {}] verdicts differ", lo, hi);
        for s in c.iter().chain(d.iter()) {
            prop_assert!(cdcl.is_valid(s));
            for sum in cdcl.evaluate(s).chunk_sums {
                prop_assert!(sum >= lo - 1e-6 && sum <= hi + 1e-6);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn max_chunks_cap_agreement(rows in table_strategy(), k in 1usize..=3) {
        let p = DagProblem::chain(rows).expect("valid table");
        let p = p.with_max_chunks(k).expect("k >= 1");
        let all = enumerate_schedules(&p);
        prop_assert!(!all.is_empty(), "single-chunk schedules always exist");
        for e in &all {
            prop_assert!(e.chunk_sums.len() <= k);
        }
        let exact = p.latency_candidates_exact(1)[0].t_max;
        let (sat, sched) = p.min_latency(&[]).expect("feasible under cap");
        prop_assert!((exact - sat).abs() < 1e-6, "exact {exact} vs sat {sat}");
        prop_assert!(p.is_valid(&sched));
    }
}

#[test]
fn disallowed_classes_respected_by_both_engines() {
    let rows = vec![vec![10.0, 1.0, 5.0]; 4];
    let p = DagProblem::chain(rows)
        .unwrap()
        .with_allowed(vec![true, false, true])
        .unwrap();
    for e in enumerate_schedules(&p) {
        assert!(e.assignment.iter().all(|&c| c != 1));
    }
    let (_, sched) = p.min_latency(&[]).unwrap();
    assert!(sched.iter().all(|&c| c != 1));
}
