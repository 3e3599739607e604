//! The optimizer and the runtime number a schedule's chunks the same way:
//! `Eval::chunk_sums[i]` (bt-solver) prices chunk `i` of the
//! `DagSchedule` (bt-rt) built from the same assignment, and the two agree
//! on which assignments are valid. Checked on every DAG of at most five
//! stages (every forward edge set, and each again labelled back to front),
//! over seeded random assignments to one to four classes, all classes
//! allowed and no chunk cap.

use bettertogether::rt::{DagSchedule, DagScheduleError, PuClass, TaskGraph};
use bettertogether::solver::{DagProblem, StageDag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether the graph over classes, with an edge wherever a dependency
/// crosses from one class to another, is acyclic.
fn class_quotient_acyclic(deps: &[(usize, usize)], a: &[usize], m: usize) -> bool {
    let mut quotient = TaskGraph::new(m);
    for &(u, v) in deps.iter().filter(|&&(u, v)| a[u] != a[v]) {
        quotient.add_dep(a[u], a[v]);
    }
    quotient.linearize().is_ok()
}

#[test]
fn solver_chunk_sums_line_up_with_schedule_chunks() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut checked, mut aligned) = (0, 0);
    for n in 1..=5usize {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        for (shape, reversed) in (0u32..1 << pairs.len()).flat_map(|s| [(s, false), (s, true)]) {
            let label = |i: usize| if reversed { n - 1 - i } else { i };
            let deps: Vec<(usize, usize)> = (pairs.iter().enumerate())
                .filter(|(b, _)| shape >> b & 1 == 1)
                .map(|(_, &(i, j))| (label(i), label(j)))
                .collect();
            let mut graph = TaskGraph::new(n);
            for &(u, v) in &deps {
                graph.add_dep(u, v);
            }
            let dag = StageDag::new(n, deps.clone()).unwrap();
            let path = (1..n).all(|i| dag.reaches(i - 1, i));
            for m in 1..=PuClass::COUNT {
                let lat: Vec<Vec<f64>> = (0..n)
                    .map(|s| {
                        (0..m)
                            .map(|c| 0.1 + ((s * 7 + c * 13) % 11) as f64 * 0.37)
                            .collect()
                    })
                    .collect();
                let p = DagProblem::new(lat.clone(), dag.clone()).unwrap();
                for _ in 0..12 {
                    let a: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
                    let classes = a.iter().map(|&c| PuClass::ALL[c]).collect();
                    let built = DagSchedule::new(classes, &graph);
                    let valid = match &built {
                        Ok(_) => true,
                        Err(DagScheduleError::NotSinglePort { .. }) => {
                            class_quotient_acyclic(&deps, &a, m)
                        }
                        Err(_) => false,
                    };
                    assert_eq!(p.is_valid(&a), valid, "{deps:?} {a:?}: {built:?}");
                    checked += 1;
                    let (Ok(schedule), true) = (built, valid) else {
                        continue;
                    };
                    let sums = p.evaluate(&a).chunk_sums;
                    assert_eq!(sums.len(), schedule.chunks().len(), "{deps:?} {a:?}");
                    for (got, chunk) in sums.iter().zip(schedule.chunks()) {
                        let class = chunk.pu.index();
                        let want: f64 = chunk.stages.iter().map(|&s| lat[s][class]).sum();
                        let same = match path {
                            true => (got - want).abs() < 1e-9,
                            false => got.to_bits() == want.to_bits(),
                        };
                        assert!(same, "{deps:?} {a:?}: chunk {chunk:?} sums {got} vs {want}");
                    }
                    aligned += 1;
                }
            }
        }
    }
    assert_eq!(checked, 2 * (1 + 2 + 8 + 64 + 1024) * PuClass::COUNT * 12);
    // 61 867 of the 105 504 draws build; most must, or the alignment
    // half proves little.
    assert!(
        aligned > checked / 2,
        "only {aligned} of {checked} assignments built"
    );
}
