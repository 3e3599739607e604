//! Property tests pitting the SAT encoding against the exact enumerator —
//! the oracle check promised in DESIGN.md: for any profiling table, the
//! CDCL-backed tier search and the enumerator must agree on optima, and
//! everything either emits must satisfy the paper's constraints C1/C2.

use bettertogether::solver::enumerate::for_each_schedule;
use bettertogether::solver::{DagProblem, Eval};
use proptest::prelude::*;

fn table_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // 2..=6 stages × 2..=4 classes, latencies in [1, 1000].
    (2usize..=6, 2usize..=4).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(1.0f64..1000.0, m..=m), n..=n)
    })
}

/// The table itself, then the same shape with every latency folded onto
/// {1, 2, 3, 4}: there many chunk sums tie, so optima have many
/// witnesses and window bounds sit on sums.
fn with_ties(rows: Vec<Vec<f64>>) -> [DagProblem; 2] {
    let tied = rows
        .iter()
        .map(|row| row.iter().map(|&t| f64::from(t as u32 % 4 + 1)).collect())
        .collect();
    [rows, tied].map(|rows| DagProblem::chain(rows).expect("valid table"))
}

/// The whole space, in candidate order.
fn enumerate_schedules(p: &DagProblem) -> Vec<Eval> {
    p.latency_candidates_exact(usize::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sat_min_latency_matches_enumerator(rows in table_strategy()) {
        for p in with_ties(rows) {
            let (exact, _) = p.min_latency_exact().expect("feasible");
            let (sat, schedule) = p.min_latency(&[]).expect("feasible");
            prop_assert!((exact - sat).abs() < 1e-6, "exact {exact} vs sat {sat}");
            prop_assert!(p.is_valid(&schedule));
            // The witness really achieves the claimed bound.
            let sums = p.evaluate(&schedule).chunk_sums;
            prop_assert!(sums.iter().all(|&s| s <= sat + 1e-6));
        }
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
        for p in with_ties(rows) {
            let sums = p.chunk_sums();
            let lo = sums[((sums.len() - 1) as f64 * lo_frac) as usize];
            let hi = sums[((sums.len() - 1) as f64 * hi_frac) as usize];
            let found = p.solve_window(lo, hi, &[]);
            if let Some(schedule) = &found {
                prop_assert!(p.is_valid(schedule));
                for s in p.evaluate(schedule).chunk_sums {
                    prop_assert!(s >= lo - 1e-6 && s <= hi + 1e-6, "chunk {s} outside [{lo}, {hi}]");
                }
            }
            // The enumerator agrees on feasibility.
            let mut any_exact = false;
            for_each_schedule(&p, |_, chunk_sums| {
                any_exact |= chunk_sums.iter().all(|&s| s >= lo - 1e-9 && s <= hi + 1e-9);
            });
            prop_assert_eq!(found.is_some(), any_exact, "window [{}, {}]", lo, hi);
        }
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
