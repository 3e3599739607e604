//! The BetterTogether schedule-optimization encoding (§3.3 of the paper).
//!
//! Decision variables `x[i][c]` assign stage `i` to PU class `c`, under:
//!
//! - **C1** — exactly one PU per stage;
//! - **C2** — contiguity: stages mapped to the same PU form a single chunk;
//! - **C3a/C3b** — every maximal chunk's summed latency lies in a window
//!   `[T_min, T_max]`;
//! - **C5ℓ** — blocking clauses excluding previously found schedules.
//!
//! Objectives (gapness **O1** and latency) are minimized by binary search
//! over the discrete set of achievable chunk sums (the *tiers*), each probe
//! one assumption pair on a persistent solver session — the role z3's
//! `Optimize` plays in the paper.

use crate::tiers::{LatencyEnumerator, TierSearch, Tiered, EPS};
use crate::{Engine, Var};

/// A schedule: for each stage, the index of its assigned PU class.
pub type Assignment = Vec<usize>;

/// Errors constructing a [`ScheduleProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProblemError {
    /// The latency table is empty or ragged.
    BadShape,
    /// A latency entry is non-positive or non-finite.
    BadLatency {
        /// Stage row.
        stage: usize,
        /// Class column.
        class: usize,
    },
    /// No PU class is allowed.
    NoAllowedClass,
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::BadShape => {
                f.write_str("latency table must be non-empty and rectangular")
            }
            ProblemError::BadLatency { stage, class } => {
                write!(
                    f,
                    "latency for stage {stage} on class {class} must be positive and finite"
                )
            }
            ProblemError::NoAllowedClass => f.write_str("at least one PU class must be allowed"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A schedule-optimization instance: the profiling table restricted to the
/// classes the device can schedule.
#[derive(Debug, Clone)]
pub struct ScheduleProblem {
    /// `latency[i][c]`: profiled latency of stage `i` on class `c` (µs).
    latency: Vec<Vec<f64>>,
    /// `prefix[c][i]`: Σ `latency[0..i][c]` — every chunk sum `[i, j]` on
    /// class `c` is the O(1) difference `prefix[c][j+1] − prefix[c][i]`.
    /// All chunk-sum consumers (candidate `T_max` prediction, the window
    /// encoding, assignment evaluation) read these same differences, so a
    /// chunk's value is bit-identical everywhere it appears.
    prefix: Vec<Vec<f64>>,
    allowed: Vec<bool>,
    /// Maximum number of chunks (dispatcher threads) a schedule may use;
    /// `None` means only the PU count limits it.
    max_chunks: Option<usize>,
    /// Which SAT engine window probes run on.
    engine: Engine,
}

impl ScheduleProblem {
    /// Creates a problem from a `stages × classes` latency table, with all
    /// classes allowed.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if the table is empty, ragged, or contains
    /// non-positive/non-finite entries.
    pub fn new(latency: Vec<Vec<f64>>) -> Result<ScheduleProblem, ProblemError> {
        if latency.is_empty() || latency[0].is_empty() {
            return Err(ProblemError::BadShape);
        }
        let classes = latency[0].len();
        for (i, row) in latency.iter().enumerate() {
            if row.len() != classes {
                return Err(ProblemError::BadShape);
            }
            for (c, &t) in row.iter().enumerate() {
                if !(t > 0.0 && t.is_finite()) {
                    return Err(ProblemError::BadLatency { stage: i, class: c });
                }
            }
        }
        let allowed = vec![true; classes];
        let prefix: Vec<Vec<f64>> = (0..classes)
            .map(|c| {
                let mut acc = 0.0;
                let mut p = Vec::with_capacity(latency.len() + 1);
                p.push(0.0);
                for row in &latency {
                    acc += row[c];
                    p.push(acc);
                }
                p
            })
            .collect();
        Ok(ScheduleProblem {
            latency,
            prefix,
            allowed,
            max_chunks: None,
            engine: Engine::default(),
        })
    }

    /// Selects the SAT engine every window probe runs on (default
    /// [`Engine::Cdcl`]; [`Engine::Dpll`] keeps the pre-clause-learning
    /// decision procedure for oracle comparisons and benches).
    pub fn with_engine(mut self, engine: Engine) -> ScheduleProblem {
        self.engine = engine;
        self
    }

    /// The SAT engine window probes run on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Restricts which classes may host chunks (e.g. unpinnable clusters).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::NoAllowedClass`] if everything is disallowed,
    /// or [`ProblemError::BadShape`] on length mismatch.
    pub fn with_allowed(mut self, allowed: Vec<bool>) -> Result<ScheduleProblem, ProblemError> {
        if allowed.len() != self.classes() {
            return Err(ProblemError::BadShape);
        }
        if !allowed.iter().any(|&a| a) {
            return Err(ProblemError::NoAllowedClass);
        }
        self.allowed = allowed;
        Ok(self)
    }

    /// Caps the number of chunks (one dispatcher thread each, §3.4) a
    /// schedule may use — e.g. to bound thread count or keep clusters
    /// powered down. Encoded with a pseudo-boolean constraint over
    /// chunk-boundary indicator variables in the SAT engine.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_max_chunks(mut self, k: usize) -> ScheduleProblem {
        assert!(k >= 1, "at least one chunk is required");
        self.max_chunks = Some(k);
        self
    }

    /// The configured chunk cap, if any.
    pub fn max_chunks(&self) -> Option<usize> {
        self.max_chunks
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.latency.len()
    }

    /// Number of PU classes (columns).
    pub fn classes(&self) -> usize {
        self.latency[0].len()
    }

    /// Whether class `c` may host chunks.
    pub fn is_allowed(&self, c: usize) -> bool {
        self.allowed[c]
    }

    /// Profiled latency of stage `i` on class `c`.
    pub fn latency(&self, i: usize, c: usize) -> f64 {
        self.latency[i][c]
    }

    /// Latency of the contiguous chunk `[i, j]` on class `c` — an O(1)
    /// per-stage prefix-sum difference.
    pub fn chunk_sum(&self, i: usize, j: usize, c: usize) -> f64 {
        self.prefix[c][j + 1] - self.prefix[c][i]
    }

    /// All achievable maximal-chunk sums over allowed classes, sorted and
    /// deduplicated — the discrete search space for window bounds.
    pub fn chunk_sums(&self) -> Vec<f64> {
        let n = self.stages();
        let mut sums = Vec::new();
        for c in 0..self.classes() {
            if !self.allowed[c] {
                continue;
            }
            for i in 0..n {
                for j in i..n {
                    sums.push(self.chunk_sum(i, j, c));
                }
            }
        }
        sums.sort_by(f64::total_cmp);
        sums.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        sums
    }

    /// Whether `assignment` satisfies C1 (length/range), contiguity (C2),
    /// and class permissions.
    pub fn is_valid(&self, assignment: &[usize]) -> bool {
        if assignment.len() != self.stages() {
            return false;
        }
        if assignment
            .iter()
            .any(|&c| c >= self.classes() || !self.allowed[c])
        {
            return false;
        }
        // Contiguity: a class never reappears after a different class.
        let mut seen_closed = vec![false; self.classes()];
        let mut prev = usize::MAX;
        let mut chunks = 0usize;
        for &c in assignment {
            if c != prev {
                if seen_closed[c] {
                    return false;
                }
                if prev != usize::MAX {
                    seen_closed[prev] = true;
                }
                prev = c;
                chunks += 1;
            }
        }
        if let Some(k) = self.max_chunks {
            if chunks > k {
                return false;
            }
        }
        true
    }

    /// The maximal-chunk sums of a valid assignment, in pipeline order.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is invalid.
    pub fn chunk_sums_of(&self, assignment: &[usize]) -> Vec<f64> {
        assert!(self.is_valid(assignment), "invalid assignment");
        let mut sums = Vec::new();
        let mut start = 0;
        for i in 1..=assignment.len() {
            if i == assignment.len() || assignment[i] != assignment[start] {
                sums.push(self.chunk_sum(start, i - 1, assignment[start]));
                start = i;
            }
        }
        sums
    }

    /// Solves the window decision problem `D(lo, hi)` — does a schedule
    /// exist whose every maximal chunk sum lies in `[lo, hi]` — excluding
    /// `blocked` schedules. Returns a satisfying assignment if one exists.
    pub fn solve_window(&self, lo: f64, hi: f64, blocked: &[Assignment]) -> Option<Assignment> {
        TierSearch::new(self, blocked).solve_window(self, lo, hi)
    }

    /// Minimizes predicted pipeline latency (the bottleneck `T_max`) by
    /// binary search over the tiers of one session, excluding `blocked`
    /// schedules. Returns `(T_max, schedule)`.
    pub fn min_latency(&self, blocked: &[Assignment]) -> Option<(f64, Assignment)> {
        TierSearch::new(self, blocked).min_latency(self)
    }

    /// Minimizes gapness (`T_max − T_min`, objective O1): for every lower
    /// tier, the smallest feasible upper tier over it bounds the gapness
    /// of every schedule whose shortest chunk sits there, so the least
    /// such difference is the optimum. Returns `(gapness, schedule)`.
    ///
    /// This is the paper-faithful counterpart of z3's `minimize`; the exact
    /// enumerator in [`crate::enumerate`] is cross-checked against it.
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
    /// (`fill = 0` is what [`ScheduleProblem::latency_candidates`] drives).
    /// It works on its own copy of the problem, so it can outlive `self`
    /// (a serving cell keeps one warm across requests).
    pub fn latency_enumerator(&self, fill: f64) -> LatencyEnumerator {
        LatencyEnumerator::new(Box::new(self.clone()), fill)
    }
}

impl Tiered for ScheduleProblem {
    fn base(&self) -> &ScheduleProblem {
        self
    }

    fn tier_sums(&self) -> Vec<f64> {
        self.chunk_sums()
    }

    fn state(&self, search: &mut TierSearch) {
        let n = self.stages();
        for c in (0..self.classes()).filter(|&c| self.allowed[c]) {
            for i in 0..n {
                // C2: (x[i][c] ∧ x[k][c]) → x[i+1][c] for i+1 < k; induction
                // extends this to all middle stages.
                for k in i + 2..n {
                    let (xi, xk, xmid) = (search.x[i][c], search.x[k][c], search.x[i + 1][c]);
                    search.solver.add_clause(&[xi.neg(), xk.neg(), xmid.pos()]);
                }
                // C3: every chunk [i, j], against both bounds. Sums come
                // from the same prefix differences the reported optimum
                // does, so window test and optimum agree bit for bit.
                for j in i..n {
                    let sum = self.chunk_sum(i, j, c);
                    search.forbid_over(c, i..=j, sum);
                    search.forbid_exactly(c, |s| (i..=j).contains(&s), sum);
                }
            }
        }
        // Chunk cap: boundary indicator bᵢ is forced true whenever stages
        // i and i+1 run on different classes; Σ bᵢ ≤ max_chunks − 1 via the
        // pseudo-boolean layer.
        if let (Some(k), true) = (self.max_chunks, n > 1) {
            let boundaries: Vec<Var> = (0..n - 1).map(|_| search.solver.new_var()).collect();
            for (i, &b) in boundaries.iter().enumerate() {
                for (xi, xnext) in search.x[i].iter().zip(&search.x[i + 1]) {
                    // (x[i][c] ∧ ¬x[i+1][c]) → b
                    search.solver.add_clause(&[xi.neg(), xnext.pos(), b.pos()]);
                }
            }
            let terms: Vec<(crate::Lit, u64)> = boundaries.iter().map(|&b| (b.pos(), 1)).collect();
            search.solver.add_pb_le(&terms, (k - 1) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 stages × 2 classes with obvious structure.
    fn small() -> ScheduleProblem {
        ScheduleProblem::new(vec![
            vec![10.0, 100.0],
            vec![100.0, 10.0],
            vec![10.0, 100.0],
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(matches!(
            ScheduleProblem::new(vec![]),
            Err(ProblemError::BadShape)
        ));
        assert!(matches!(
            ScheduleProblem::new(vec![vec![1.0], vec![1.0, 2.0]]),
            Err(ProblemError::BadShape)
        ));
        assert!(matches!(
            ScheduleProblem::new(vec![vec![1.0, -2.0]]),
            Err(ProblemError::BadLatency { stage: 0, class: 1 })
        ));
    }

    #[test]
    fn validity_checks_contiguity() {
        let p = small();
        assert!(p.is_valid(&[0, 0, 0]));
        assert!(p.is_valid(&[0, 1, 1]));
        assert!(!p.is_valid(&[0, 1, 0]), "class 0 reappears");
        assert!(!p.is_valid(&[0, 1]), "wrong length");
        assert!(!p.is_valid(&[0, 2, 2]), "class out of range");
    }

    #[test]
    fn chunk_sums_of_assignment() {
        let p = small();
        assert_eq!(p.chunk_sums_of(&[0, 0, 0]), vec![120.0]);
        assert_eq!(p.chunk_sums_of(&[0, 1, 1]), vec![10.0, 110.0]);
        assert_eq!(p.chunk_sums_of(&[0, 0, 1]), vec![110.0, 100.0]);
    }

    #[test]
    fn solve_window_respects_bounds() {
        let p = small();
        // Only the all-on-one-class schedules have a single chunk ≥ 120.
        let a = p.solve_window(115.0, 125.0, &[]).expect("feasible");
        assert_eq!(p.chunk_sums_of(&a), vec![120.0]);
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
        let sums = p.chunk_sums_of(&a);
        assert!(sums.iter().all(|&s| s <= 110.0 + 1e-6));
    }

    #[test]
    fn min_gapness_prefers_balanced_splits() {
        let p = ScheduleProblem::new(vec![
            vec![50.0, 500.0],
            vec![50.0, 500.0],
            vec![500.0, 100.0],
        ])
        .unwrap();
        // [0,1] on class 0 = 100, [2] on class 1 = 100 → gapness 0.
        let (g, a) = p.min_gapness().expect("feasible");
        assert!(g.abs() < 1e-6, "gapness {g}");
        assert_eq!(a, vec![0, 0, 1]);
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
        let p = ScheduleProblem::new(vec![vec![10.0, 1.0, 20.0], vec![10.0, 1.0, 20.0]])
            .unwrap()
            .with_allowed(vec![true, false, true])
            .unwrap();
        for (_, a) in p.latency_candidates(20) {
            assert!(a.iter().all(|&c| c != 1), "used disallowed class: {a:?}");
        }
    }

    #[test]
    fn single_stage_problem() {
        let p = ScheduleProblem::new(vec![vec![5.0, 3.0]]).unwrap();
        let (t, a) = p.min_latency(&[]).unwrap();
        assert_eq!(a, vec![1]);
        assert!((t - 3.0).abs() < 1e-9);
        let (g, _) = p.min_gapness().unwrap();
        assert_eq!(g, 0.0);
    }

    #[test]
    fn candidate_count_bounded_by_schedule_space() {
        // 2 stages × 2 classes: schedules = {00, 01, 10, 11} minus
        // non-contiguous (none for n=2) = 4.
        let p = ScheduleProblem::new(vec![vec![1.0, 2.0], vec![1.0, 2.0]]).unwrap();
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
        assert_eq!(session.problem().stages(), p.stages());
        // A drained session stays drained.
        assert!(session.next().is_none());
    }
}
