use bt_soc::{Micros, PuClass};
use serde::{Deserialize, Serialize};

/// The two profiling modes of BT-Profiler (§3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProfileMode {
    /// Each stage runs alone on its PU — the methodology of prior work,
    /// whose compositions mispredict loaded-system behaviour.
    Isolated,
    /// While a stage is measured on one PU, every other PU concurrently
    /// executes the same computation, emulating realistic intra-application
    /// interference.
    InterferenceHeavy,
}

impl ProfileMode {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ProfileMode::Isolated => "isolated",
            ProfileMode::InterferenceHeavy => "interference",
        }
    }
}

impl std::fmt::Display for ProfileMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a [`ProfilingTable`] could not be constructed.
///
/// Non-finite entries are the dangerous case: a NaN latency smuggled into
/// the optimizer used to surface only as a panic deep inside a sort, so the
/// table now rejects it at the boundary where the bad measurement is still
/// attributable to a (stage, class) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TableError {
    /// The latency matrix has a different row count than the stage labels.
    RowCountMismatch {
        /// Rows in the latency matrix.
        rows: usize,
        /// Stage labels supplied.
        stages: usize,
    },
    /// A latency row has a different column count than the class labels.
    ColumnCountMismatch {
        /// The offending row.
        row: usize,
        /// Columns in that row.
        cols: usize,
        /// Class labels supplied.
        classes: usize,
    },
    /// A latency (or spread) entry is NaN or infinite.
    NonFiniteEntry {
        /// Row (stage index) of the offending cell.
        row: usize,
        /// Column (class index) of the offending cell.
        col: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::RowCountMismatch { rows, stages } => {
                write!(f, "row count mismatch: {rows} rows for {stages} stages")
            }
            TableError::ColumnCountMismatch { row, cols, classes } => {
                write!(
                    f,
                    "column count mismatch: row {row} has {cols} columns for {classes} classes"
                )
            }
            TableError::NonFiniteEntry { row, col } => {
                write!(f, "non-finite latency at stage {row}, class column {col}")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// The 2-D profiling table of §3.2: rows are stages, columns are PU
/// classes, entries are mean measured latencies.
///
/// ```
/// use bt_profiler::{ProfilingTable, ProfileMode};
/// use bt_soc::{Micros, PuClass};
///
/// let table = ProfilingTable::new(
///     "app", "device", ProfileMode::Isolated,
///     vec!["s0".into()],
///     vec![PuClass::BigCpu],
///     vec![vec![Micros::new(10.0)]],
/// );
/// assert_eq!(table.latency(0, PuClass::BigCpu).unwrap().as_f64(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfilingTable {
    app: String,
    device: String,
    mode: ProfileMode,
    stages: Vec<String>,
    classes: Vec<PuClass>,
    latency: Vec<Vec<Micros>>,
    #[serde(default)]
    spread: Option<Vec<Vec<Micros>>>,
}

impl ProfilingTable {
    /// Builds a table. `latency[row][col]` pairs `stages[row]` with
    /// `classes[col]`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape disagrees with the labels or any entry
    /// is non-finite.
    pub fn new(
        app: impl Into<String>,
        device: impl Into<String>,
        mode: ProfileMode,
        stages: Vec<String>,
        classes: Vec<PuClass>,
        latency: Vec<Vec<Micros>>,
    ) -> ProfilingTable {
        match ProfilingTable::try_new(app, device, mode, stages, classes, latency) {
            Ok(t) => t,
            Err(e @ TableError::RowCountMismatch { .. }) => panic!("row count mismatch: {e}"),
            Err(e @ TableError::ColumnCountMismatch { .. }) => {
                panic!("column count mismatch: {e}")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates the matrix shape against the labels
    /// and every entry for finiteness.
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] naming the offending row/cell.
    pub(crate) fn try_new(
        app: impl Into<String>,
        device: impl Into<String>,
        mode: ProfileMode,
        stages: Vec<String>,
        classes: Vec<PuClass>,
        latency: Vec<Vec<Micros>>,
    ) -> Result<ProfilingTable, TableError> {
        if latency.len() != stages.len() {
            return Err(TableError::RowCountMismatch {
                rows: latency.len(),
                stages: stages.len(),
            });
        }
        for (row, r) in latency.iter().enumerate() {
            if r.len() != classes.len() {
                return Err(TableError::ColumnCountMismatch {
                    row,
                    cols: r.len(),
                    classes: classes.len(),
                });
            }
            for (col, v) in r.iter().enumerate() {
                if !v.as_f64().is_finite() {
                    return Err(TableError::NonFiniteEntry { row, col });
                }
            }
        }
        Ok(ProfilingTable {
            app: app.into(),
            device: device.into(),
            mode,
            stages,
            classes,
            latency,
            spread: None,
        })
    }

    /// Attaches per-cell measurement spread (standard deviation across the
    /// repetitions), same shape as the latency matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shape disagrees with the latency matrix.
    pub(crate) fn with_spread(mut self, spread: Vec<Vec<Micros>>) -> ProfilingTable {
        assert_eq!(spread.len(), self.latency.len(), "row count mismatch");
        assert!(
            spread
                .iter()
                .zip(&self.latency)
                .all(|(s, l)| s.len() == l.len()),
            "column count mismatch"
        );
        self.spread = Some(spread);
        self
    }

    /// Standard deviation of stage `stage` on `class` across the profiling
    /// repetitions, if spread data was recorded.
    #[cfg(test)]
    pub(crate) fn latency_spread(&self, stage: usize, class: PuClass) -> Option<Micros> {
        let col = self.classes.iter().position(|&c| c == class)?;
        self.spread.as_ref()?.get(stage).map(|row| row[col])
    }

    /// Element-wise ratio of this table over `baseline`
    /// (`self / baseline`), the quantity of the paper's Fig. 7 when `self`
    /// is interference-heavy and `baseline` is isolated.
    ///
    /// Returns `None` if the tables' shapes or labels disagree.
    pub fn ratio_over(&self, baseline: &ProfilingTable) -> Option<Vec<Vec<f64>>> {
        if self.stages != baseline.stages || self.classes != baseline.classes {
            return None;
        }
        Some(
            self.latency
                .iter()
                .zip(&baseline.latency)
                .map(|(a, b)| {
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| x.as_f64() / y.as_f64())
                        .collect()
                })
                .collect(),
        )
    }

    /// The profiled application's name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The profiled device's name.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Which profiling mode produced this table.
    pub fn mode(&self) -> ProfileMode {
        self.mode
    }

    /// Stage names (row labels).
    pub fn stages(&self) -> &[String] {
        &self.stages
    }

    /// PU classes (column labels).
    pub fn classes(&self) -> &[PuClass] {
        &self.classes
    }

    /// Mean latency of stage `stage` on `class`, if profiled.
    pub fn latency(&self, stage: usize, class: PuClass) -> Option<Micros> {
        let col = self.classes.iter().position(|&c| c == class)?;
        self.latency.get(stage).map(|row| row[col])
    }

    /// The whole row of stage `stage` in class-column order.
    pub fn row(&self, stage: usize) -> &[Micros] {
        &self.latency[stage]
    }

    /// The table as a dense `stages × classes` matrix of microseconds —
    /// the exact input shape of the schedule optimizer.
    pub fn to_matrix(&self) -> Vec<Vec<f64>> {
        self.latency
            .iter()
            .map(|row| row.iter().map(|m| m.as_f64()).collect())
            .collect()
    }

    /// Returns a copy with every latency in `class`'s column multiplied by
    /// `factor` — the drift-correction primitive of the re-optimization
    /// loop: an observed slowdown on one cluster rescales its predicted
    /// costs without re-profiling. Spread (when recorded) scales by the
    /// same factor, since a multiplicative throttle stretches the whole
    /// distribution.
    ///
    /// Returns `None` if `class` is not a column of this table or `factor`
    /// is not finite and positive.
    pub fn scaled_class(&self, class: PuClass, factor: f64) -> Option<ProfilingTable> {
        if !(factor.is_finite() && factor > 0.0) {
            return None;
        }
        let col = self.classes.iter().position(|&c| c == class)?;
        let mut out = self.clone();
        for row in &mut out.latency {
            row[col] = Micros::new(row[col].as_f64() * factor);
        }
        if let Some(spread) = &mut out.spread {
            for row in spread {
                row[col] = Micros::new(row[col].as_f64() * factor);
            }
        }
        Some(out)
    }

    /// Renders an aligned text table for reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} on {} ({} mode)\n",
            self.app, self.device, self.mode
        ));
        out.push_str(&format!("{:>14}", "stage"));
        for c in &self.classes {
            out.push_str(&format!("{:>12}", c.label()));
        }
        out.push('\n');
        for (i, name) in self.stages.iter().enumerate() {
            out.push_str(&format!("{name:>14}"));
            for t in &self.latency[i] {
                out.push_str(&format!("{:>12}", format!("{:.1}µs", t.as_f64())));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ProfilingTable {
        ProfilingTable::new(
            "octree",
            "pixel",
            ProfileMode::InterferenceHeavy,
            vec!["morton".into(), "sort".into()],
            vec![PuClass::BigCpu, PuClass::Gpu],
            vec![
                vec![Micros::new(100.0), Micros::new(50.0)],
                vec![Micros::new(200.0), Micros::new(900.0)],
            ],
        )
    }

    #[test]
    fn lookup_by_class() {
        let t = table();
        assert_eq!(t.latency(1, PuClass::Gpu).unwrap().as_f64(), 900.0);
        assert_eq!(t.latency(0, PuClass::LittleCpu), None);
    }

    #[test]
    fn matrix_round_trip() {
        let t = table();
        let m = t.to_matrix();
        assert_eq!(m, vec![vec![100.0, 50.0], vec![200.0, 900.0]]);
    }

    #[test]
    fn render_contains_labels() {
        let s = table().render();
        assert!(s.contains("morton"));
        assert!(s.contains("big"));
        assert!(s.contains("interference"));
    }

    #[test]
    fn spread_and_ratio() {
        let heavy = table();
        let iso = ProfilingTable::new(
            "octree",
            "pixel",
            ProfileMode::Isolated,
            vec!["morton".into(), "sort".into()],
            vec![PuClass::BigCpu, PuClass::Gpu],
            vec![
                vec![Micros::new(50.0), Micros::new(100.0)],
                vec![Micros::new(100.0), Micros::new(900.0)],
            ],
        );
        let ratios = heavy.ratio_over(&iso).expect("same shape");
        assert!((ratios[0][0] - 2.0).abs() < 1e-12);
        assert!((ratios[0][1] - 0.5).abs() < 1e-12);
        assert!((ratios[1][1] - 1.0).abs() < 1e-12);

        let with = iso.clone().with_spread(vec![
            vec![Micros::new(1.0), Micros::new(2.0)],
            vec![Micros::new(3.0), Micros::new(4.0)],
        ]);
        assert_eq!(with.latency_spread(1, PuClass::Gpu).unwrap().as_f64(), 4.0);
        assert_eq!(heavy.latency_spread(0, PuClass::BigCpu), None);
    }

    #[test]
    fn ratio_requires_matching_labels() {
        let a = table();
        let b = ProfilingTable::new(
            "other",
            "pixel",
            ProfileMode::Isolated,
            vec!["x".into()],
            vec![PuClass::BigCpu],
            vec![vec![Micros::new(1.0)]],
        );
        assert!(a.ratio_over(&b).is_none());
    }

    #[test]
    fn scaled_class_rescales_one_column() {
        let t = table().with_spread(vec![
            vec![Micros::new(1.0), Micros::new(2.0)],
            vec![Micros::new(3.0), Micros::new(4.0)],
        ]);
        let s = t.scaled_class(PuClass::BigCpu, 2.0).expect("column exists");
        assert_eq!(s.latency(0, PuClass::BigCpu).unwrap().as_f64(), 200.0);
        assert_eq!(s.latency(1, PuClass::BigCpu).unwrap().as_f64(), 400.0);
        // Other columns untouched.
        assert_eq!(s.latency(0, PuClass::Gpu).unwrap().as_f64(), 50.0);
        // Spread scales with the same factor.
        assert_eq!(s.latency_spread(1, PuClass::BigCpu).unwrap().as_f64(), 6.0);
        assert_eq!(s.latency_spread(1, PuClass::Gpu).unwrap().as_f64(), 4.0);
        // Missing column and degenerate factors are rejected.
        assert!(t.scaled_class(PuClass::LittleCpu, 2.0).is_none());
        assert!(t.scaled_class(PuClass::BigCpu, 0.0).is_none());
        assert!(t.scaled_class(PuClass::BigCpu, f64::NAN).is_none());
    }

    #[test]
    fn non_finite_entries_rejected_with_typed_error() {
        // NaN is already rejected by `Micros::new`, but infinities (and
        // NaNs arriving through serde) reach the table constructor.
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let err = ProfilingTable::try_new(
                "a",
                "d",
                ProfileMode::Isolated,
                vec!["s0".into(), "s1".into()],
                vec![PuClass::BigCpu, PuClass::Gpu],
                vec![
                    vec![Micros::new(1.0), Micros::new(2.0)],
                    vec![Micros::new(3.0), Micros::new(bad)],
                ],
            )
            .expect_err("non-finite entry must be rejected");
            assert_eq!(err, TableError::NonFiniteEntry { row: 1, col: 1 });
            assert!(err.to_string().contains("non-finite"));
        }
    }

    #[test]
    fn try_new_reports_shape_mismatches() {
        let err = ProfilingTable::try_new(
            "a",
            "d",
            ProfileMode::Isolated,
            vec!["s".into()],
            vec![PuClass::Gpu],
            vec![],
        )
        .expect_err("row mismatch");
        assert_eq!(err, TableError::RowCountMismatch { rows: 0, stages: 1 });
        let err = ProfilingTable::try_new(
            "a",
            "d",
            ProfileMode::Isolated,
            vec!["s".into()],
            vec![PuClass::Gpu],
            vec![vec![]],
        )
        .expect_err("column mismatch");
        assert!(matches!(
            err,
            TableError::ColumnCountMismatch { row: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn new_panics_on_infinite_entry() {
        let _ = ProfilingTable::new(
            "a",
            "d",
            ProfileMode::Isolated,
            vec!["s".into()],
            vec![PuClass::Gpu],
            vec![vec![Micros::new(f64::INFINITY)]],
        );
    }

    #[test]
    #[should_panic(expected = "row count")]
    fn shape_validated() {
        let _ = ProfilingTable::new(
            "a",
            "d",
            ProfileMode::Isolated,
            vec!["s".into()],
            vec![PuClass::Gpu],
            vec![],
        );
    }
}
