//! Schedule-latency prediction from a profiling table: the paper's
//! `T_max` — the bottleneck chunk's summed stage latencies, for fork/join
//! schedules and chains alike ([`DagSchedule::from_schedule`]).

use bt_pipeline::DagSchedule;
use bt_profiler::ProfilingTable;
use bt_soc::Micros;

/// Per-chunk predicted runtimes of `schedule` under `table`, in the
/// schedule's chunk order. A replicated stage's two chunks are each priced
/// at *half* the stage latency: every replica serves alternate tasks at
/// full per-task latency, so its steady-state service demand per pipeline
/// interval halves — the same convention the solver's
/// `evaluate_replicated` uses.
///
/// Returns `None` if the table lacks a class used by the schedule or the
/// stage counts disagree.
pub(crate) fn chunk_predictions(
    table: &ProfilingTable,
    schedule: &DagSchedule,
) -> Option<Vec<Micros>> {
    if table.stages().len() != schedule.stage_count() {
        return None;
    }
    let replica = schedule.replica_pair();
    let mut sums = Vec::new();
    for (i, chunk) in schedule.chunks().iter().enumerate() {
        let mut acc = Micros::ZERO;
        for &stage in &chunk.stages {
            acc += table.latency(stage, chunk.pu)?;
        }
        if replica.is_some_and(|(a, b)| i == a || i == b) {
            acc = Micros::new(acc.as_f64() * 0.5);
        }
        sums.push(acc);
    }
    Some(sums)
}

/// Predicted pipeline latency of `schedule`: the maximum chunk runtime
/// (`T_max`). Parallel branches pipeline against each other, so the
/// steady-state time per task is still the bottleneck chunk — a DAG changes
/// *which* chunk decompositions are legal (path-convexity instead of
/// linear contiguity) and lets replication halve a bottleneck.
pub fn predict_latency(table: &ProfilingTable, schedule: &DagSchedule) -> Option<Micros> {
    chunk_predictions(table, schedule)?
        .into_iter()
        .reduce(Micros::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_pipeline::Schedule;
    use bt_profiler::ProfileMode;
    use bt_soc::PuClass;

    fn table() -> ProfilingTable {
        ProfilingTable::new(
            "app",
            "dev",
            ProfileMode::InterferenceHeavy,
            vec!["a".into(), "b".into(), "c".into()],
            vec![PuClass::BigCpu, PuClass::Gpu],
            vec![
                vec![Micros::new(10.0), Micros::new(5.0)],
                vec![Micros::new(20.0), Micros::new(8.0)],
                vec![Micros::new(30.0), Micros::new(100.0)],
            ],
        )
    }

    fn chain(classes: Vec<PuClass>) -> DagSchedule {
        DagSchedule::from_schedule(&Schedule::new(classes).unwrap())
    }

    #[test]
    fn chunk_sums_and_bottleneck() {
        let t = table();
        let s = chain(vec![PuClass::Gpu, PuClass::Gpu, PuClass::BigCpu]);
        assert_eq!(
            chunk_predictions(&t, &s).unwrap(),
            vec![Micros::new(13.0), Micros::new(30.0)]
        );
        assert_eq!(predict_latency(&t, &s).unwrap(), Micros::new(30.0));
    }

    #[test]
    fn homogeneous_has_zero_gapness() {
        let t = table();
        let s = chain(vec![PuClass::BigCpu; 3]);
        assert_eq!(predict_latency(&t, &s).unwrap(), Micros::new(60.0));
        assert_eq!(chunk_predictions(&t, &s).unwrap(), vec![Micros::new(60.0)]);
    }

    #[test]
    fn missing_class_yields_none() {
        let t = table();
        let s = chain(vec![PuClass::LittleCpu; 3]);
        assert_eq!(predict_latency(&t, &s), None);
    }

    #[test]
    fn stage_count_mismatch_yields_none() {
        let t = table();
        let s = chain(vec![PuClass::BigCpu; 4]);
        assert_eq!(predict_latency(&t, &s), None);
    }

    #[test]
    fn dag_chain_predictions_match_linear() {
        // Every chain over two classes: the DAG form prices each chunk as
        // the linear interval sum, in the same order and bit for bit.
        let t = table();
        for bits in 0..8u32 {
            let classes: Vec<PuClass> = (0..3)
                .map(|s| [PuClass::BigCpu, PuClass::Gpu][(bits >> s & 1) as usize])
                .collect();
            let Ok(linear) = Schedule::new(classes) else {
                continue; // a class used twice is not a schedule
            };
            let interval_sums: Vec<Micros> = linear
                .chunks()
                .iter()
                .map(|c| {
                    (c.first_stage..=c.last_stage)
                        .map(|s| t.latency(s, c.pu).unwrap())
                        .fold(Micros::ZERO, |acc, l| acc + l)
                })
                .collect();
            let dag = DagSchedule::from_schedule(&linear);
            assert_eq!(chunk_predictions(&t, &dag), Some(interval_sums), "{linear}");
        }
    }

    #[test]
    fn replicated_bottleneck_is_half_priced() {
        use PuClass::*;
        let t = ProfilingTable::new(
            "app",
            "dev",
            ProfileMode::InterferenceHeavy,
            vec!["a".into(), "b".into(), "c".into()],
            vec![BigCpu, Gpu, LittleCpu, MediumCpu],
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
        let g = bt_kernels::TaskGraph::chain(3);
        let s = DagSchedule::replicated(vec![LittleCpu, BigCpu, MediumCpu], &g, 1, (BigCpu, Gpu))
            .unwrap();
        // Chunks: L{0}, B{1}, G{1}, M{2}; replica chunks at half service.
        assert_eq!(
            chunk_predictions(&t, &s).unwrap(),
            vec![
                Micros::new(4.0),
                Micros::new(20.0),
                Micros::new(12.0),
                Micros::new(7.0),
            ]
        );
        assert_eq!(predict_latency(&t, &s).unwrap(), Micros::new(20.0));
    }
}
