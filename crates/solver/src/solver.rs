//! A small, complete CDCL SAT solver: two-watched-literal unit
//! propagation, first-UIP clause learning, non-chronological backjumping,
//! EVSIDS-style decaying activity and Luby restarts.
//!
//! This is the substrate that replaces the paper's use of z3 (§3.3). The
//! BetterTogether encoding only needs CNF plus blocking clauses — the chunk
//! cap included, which a tier-search session explains with plain clauses
//! over per-class in-use literals. Clause learning is what carries the
//! `DagProblem` encodings past the 9-stage chain size, where chronological
//! backtracking re-explores the same conflicts exponentially. The tests
//! check it against oracles that share none of its code: a truth table
//! over every assignment, and the schedule enumerator of
//! [`crate::enumerate`].
//!
//! Storage is flat and reused, because a tier search makes hundreds of
//! short solves whose time is unit propagation:
//! - every clause, problem or learned, sits in one literal arena as a
//!   length slot followed by its literals, and is named by the checked
//!   `u32` offset of its first literal — in watch lists and reasons alike,
//!   so a watch visit reads the clause with no lookup in between;
//! - values are kept per literal code (`1` true, `0` false, `-1`
//!   unassigned), so reading a literal is one load;
//! - `propagate` moves a literal's watch list out while it visits it and
//!   puts it back, in the same visit order and with the same
//!   `swap_remove` as a list visited in place;
//! - `add_clause`'s sort and conflict analysis's learned clause and marks
//!   live in buffers the solver keeps.
//!
//! None of this changes the search: decisions, propagations, conflicts
//! and learned clauses are what a clause-per-`Vec` solver makes, and
//! `tiers::tests::n9_search_counts_and_schedules_are_pinned` pins their
//! counts. Two things that would be faster in general would change it:
//! blocker literals (a satisfied blocker skips the slot swap the search
//! order depends on) and a root trail kept across solves. A decision heap
//! in place of `pick_active_var`'s scan could keep the same picks, but it
//! costs more than the scan here: every solve backtracks to the root and
//! would refill it (DESIGN.md §9).

use crate::conflict::{luby, ACTIVITY_DECAY, RESTART_BASE};
use crate::lit::{Lit, Var};

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SolveResult {
    /// Satisfiable, with a full model.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
}

/// A complete assignment to all variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Model(Vec<bool>);

impl Model {
    /// The value of `v` in this model.
    pub(crate) fn value(&self, v: Var) -> bool {
        self.0[v.index()]
    }
}

/// Plain search counters, cumulative over a solver's (or a tier-search
/// session's) lifetime. `cegar_rounds` counts decoded models a session
/// refuted with an explanation; the [`Solver`] itself leaves it zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolveStats {
    /// Branching decisions, assumptions included.
    pub(crate) decisions: u64,
    /// Trail literals unit propagation has processed.
    pub(crate) propagations: u64,
    /// Conflicts reached.
    pub(crate) conflicts: u64,
    /// Clauses (and units) learned.
    pub(crate) learned: u64,
    /// Refuted models in a tier-search session.
    pub(crate) cegar_rounds: u64,
}

/// Why a trail literal holds: a decision (or root-level unit), or unit
/// propagation of the clause at this arena offset.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reason {
    Decision,
    Clause(u32),
}

const UNASSIGNED: i8 = -1;

/// The SAT solver. Clauses persist across [`Solver::solve_assuming`]
/// calls, and learned clauses with them, so blocking clauses support
/// incremental enumeration of models that keeps its pruning.
#[derive(Debug, Default)]
pub(crate) struct Solver {
    num_vars: usize,
    /// Every clause, original ones followed by learned ones, back to
    /// back: a header slot holding the clause's length (as a literal
    /// code), then its literals. A clause is named by the offset of its
    /// first literal.
    arena: Vec<Lit>,
    num_learned: usize,
    pub(crate) stats: SolveStats,
    /// Watch lists: for each literal code, the offsets of the clauses
    /// currently watching that literal.
    watches: Vec<Vec<u32>>,
    /// Unit clauses (original and learned), enqueued at the root of every
    /// solve.
    units: Vec<Lit>,
    /// Trivially unsatisfiable (empty clause added).
    trivially_unsat: bool,
    /// `add_clause`'s sorted copy of its input.
    sorted: Vec<Lit>,

    // Search state (reset per solve).
    /// Value of each literal code: `1` true, `0` false, [`UNASSIGNED`].
    value: Vec<i8>,
    pub(crate) trail: Vec<Lit>,
    qhead: usize,
    /// Trail length at each decision level boundary.
    pub(crate) trail_lim: Vec<usize>,
    /// Antecedent of each variable's current assignment.
    pub(crate) reason: Vec<Reason>,
    /// Decision level of each variable's current assignment.
    pub(crate) level: Vec<u32>,
    /// EVSIDS activity per variable.
    pub(crate) activity: Vec<f64>,
    pub(crate) var_inc: f64,
    /// Last value each variable held (phase saving); `false` initially, so
    /// the first descent decides every variable false.
    saved_phase: Vec<bool>,
    /// Conflict-analysis mark per variable.
    pub(crate) seen: Vec<bool>,
    /// Conflict analysis's learned clause, asserting literal first.
    pub(crate) learnt: Vec<Lit>,
    /// Conflict analysis's marked variables, unmarked when it ends.
    pub(crate) to_clear: Vec<usize>,
}

impl Solver {
    /// Creates an empty solver.
    pub(crate) fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub(crate) fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.value.push(UNASSIGNED);
        self.value.push(UNASSIGNED);
        self.reason.push(Reason::Decision);
        self.level.push(0);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        v
    }

    /// Asserts that every literal's variable was allocated by
    /// [`Solver::new_var`].
    fn check_allocated(&self, lits: &[Lit]) {
        for l in lits {
            assert!(l.var().index() < self.num_vars, "unallocated variable");
        }
    }

    /// Adds a clause (a disjunction of literals). Duplicates are removed;
    /// tautologies are dropped; the empty clause makes the formula
    /// trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub(crate) fn add_clause(&mut self, lits: &[Lit]) {
        self.check_allocated(lits);
        let mut sorted = std::mem::take(&mut self.sorted);
        sorted.clear();
        sorted.extend_from_slice(lits);
        sorted.sort_unstable();
        sorted.dedup();
        // Tautology check: both polarities present.
        let tautology = sorted.windows(2).any(|w| w[0].var() == w[1].var());
        match sorted.len() {
            _ if tautology => {} // x ∨ ¬x
            0 => self.trivially_unsat = true,
            1 => self.units.push(sorted[0]),
            _ => {
                self.push_clause(&sorted);
            }
        }
        self.sorted = sorted;
    }

    /// Installs a clause verbatim, watching its first two literals.
    /// Learned clauses come through here with a deliberate order
    /// (asserting literal first, backjump-level literal second), so no
    /// sorting.
    fn push_clause(&mut self, lits: &[Lit]) -> u32 {
        debug_assert!(lits.len() >= 2);
        let at = u32::try_from(self.arena.len() + 1).expect("clause arena exceeds u32 offsets");
        self.arena.push(Lit::from_code(lits.len()));
        self.arena.extend_from_slice(lits);
        self.watches[lits[0].code()].push(at);
        self.watches[lits[1].code()].push(at);
        at
    }

    /// The literals of the clause at offset `at`.
    pub(crate) fn clause(&self, at: u32) -> &[Lit] {
        let at = at as usize;
        &self.arena[at..at + self.arena[at - 1].code()]
    }

    /// Convenience: at most one of `lits` is true (pairwise encoding).
    pub(crate) fn add_at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in i + 1..lits.len() {
                self.add_clause(&[!lits[i], !lits[j]]);
            }
        }
    }

    /// Convenience: exactly one of `lits` is true.
    pub(crate) fn add_exactly_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
        self.add_at_most_one(lits);
    }

    /// Assigns `l` true with the given antecedent; returns false on
    /// conflict with an existing value.
    fn enqueue(&mut self, l: Lit, reason: Reason) -> bool {
        match self.value[l.code()] {
            1 => true,
            0 => false,
            _ => {
                let v = l.var().index();
                self.value[l.code()] = 1;
                self.value[(!l).code()] = 0;
                self.reason[v] = reason;
                self.level[v] = self.trail_lim.len() as u32;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation. Returns the offset of the falsified clause on
    /// conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Literal !l just became false. Its watch list is moved out
            // while it is visited: every clause that leaves it moves to
            // the list of a literal that is not false, never back here.
            let false_lit = !l;
            let mut watching = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut conflict = None;
            let mut i = 0;
            while i < watching.len() {
                let cref = watching[i];
                let at = cref as usize;
                // Ensure the false literal is at slot 1.
                if self.arena[at] == false_lit {
                    self.arena.swap(at, at + 1);
                }
                debug_assert_eq!(self.arena[at + 1], false_lit);
                let first = self.arena[at];
                let first_value = self.value[first.code()];
                if first_value == 1 {
                    i += 1;
                    continue; // clause already satisfied
                }
                // Look for a replacement watch.
                let len = self.arena[at - 1].code();
                let c = &mut self.arena[at..at + len];
                if let Some(k) = (2..c.len()).find(|&k| self.value[c[k].code()] != 0) {
                    c.swap(1, k);
                    self.watches[c[1].code()].push(cref);
                    watching.swap_remove(i);
                    continue;
                }
                // Unit or conflict on slot 0.
                if first_value == UNASSIGNED {
                    let ok = self.enqueue(first, Reason::Clause(cref));
                    debug_assert!(ok, "enqueue of unassigned literal cannot fail");
                    i += 1;
                } else {
                    conflict = Some(cref);
                    break;
                }
            }
            debug_assert!(self.watches[false_lit.code()].is_empty());
            self.watches[false_lit.code()] = watching;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn backtrack_to(&mut self, trail_len: usize) {
        while self.trail.len() > trail_len {
            let l = self.trail.pop().expect("trail non-empty");
            self.saved_phase[l.var().index()] = l.is_pos();
            self.value[l.code()] = UNASSIGNED;
            self.value[(!l).code()] = UNASSIGNED;
        }
        self.qhead = trail_len;
    }

    /// CDCL: undoes every assignment above decision level `lvl`.
    fn backjump(&mut self, lvl: usize) {
        if self.trail_lim.len() > lvl {
            let target = self.trail_lim[lvl];
            self.backtrack_to(target);
            self.trail_lim.truncate(lvl);
        }
    }

    /// Root-level setup: clears search state and enqueues unit clauses.
    /// Returns false if the root level is already contradictory.
    fn init_root(&mut self) -> bool {
        self.backtrack_to(0);
        self.trail_lim.clear();
        for i in 0..self.units.len() {
            let u = self.units[i];
            if !self.enqueue(u, Reason::Decision) {
                return false;
            }
        }
        true
    }

    /// Each variable's value, read off its positive literal.
    fn var_values(&self) -> impl Iterator<Item = i8> + '_ {
        self.value.iter().step_by(2).copied()
    }

    fn extract_model(&self) -> Model {
        Model(self.var_values().map(|v| v == 1).collect())
    }

    /// Highest-activity unassigned variable (lowest index on ties, so the
    /// search is deterministic).
    fn pick_active_var(&self) -> Option<Var> {
        let mut best: Option<usize> = None;
        for (i, a) in self.var_values().enumerate() {
            if a != UNASSIGNED {
                continue;
            }
            match best {
                Some(b) if self.activity[b] >= self.activity[i] => {}
                _ => best = Some(i),
            }
        }
        best.map(|i| Var::new(i as u32))
    }

    /// Decides satisfiability under `assumptions`: leading decisions that
    /// are never flipped, so `Unsat` means "not with these literals" and
    /// leaves the formula itself untouched. First-UIP analysis keeps the
    /// negation of every assumption a conflict depended on inside the
    /// learned clause, so everything learned stays valid for later calls
    /// under other assumptions (or none).
    ///
    /// Clauses added between calls persist (supporting blocking-clause
    /// enumeration), as do learned clauses; search state is reset per
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if an assumption references an unallocated variable.
    pub(crate) fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.check_allocated(assumptions);
        if self.trivially_unsat || !self.init_root() {
            return SolveResult::Unsat;
        }
        let mut conflicts_since_restart: u64 = 0;
        let mut restarts: u64 = 0;
        let mut restart_limit = RESTART_BASE * luby(restarts);
        loop {
            match self.propagate() {
                Some(confl) => {
                    if self.trail_lim.is_empty() {
                        return SolveResult::Unsat; // conflict with the roots
                    }
                    conflicts_since_restart += 1;
                    self.stats.conflicts += 1;
                    self.stats.learned += 1;
                    self.var_inc /= ACTIVITY_DECAY;
                    let backjump_lvl = self.analyze(confl);
                    self.backjump(backjump_lvl);
                    let learnt = std::mem::take(&mut self.learnt);
                    let asserted = if learnt.len() == 1 {
                        // Asserting unit: now a root fact. Persisting it in
                        // `units` keeps it across incremental solve calls.
                        self.units.push(learnt[0]);
                        self.enqueue(learnt[0], Reason::Decision)
                    } else {
                        let ci = self.push_clause(&learnt);
                        self.num_learned += 1;
                        let ok = self.enqueue(learnt[0], Reason::Clause(ci));
                        debug_assert!(ok, "learned clause asserts after backjump");
                        true
                    };
                    self.learnt = learnt;
                    if !asserted {
                        return SolveResult::Unsat;
                    }
                }
                None => {
                    if conflicts_since_restart >= restart_limit {
                        restarts += 1;
                        conflicts_since_restart = 0;
                        restart_limit = RESTART_BASE * luby(restarts);
                        self.backjump(0);
                        continue;
                    }
                    // Assumptions occupy the first decision levels, one
                    // each (an already-true one gets an empty level).
                    let lit = match assumptions.get(self.trail_lim.len()) {
                        Some(&a) if self.value[a.code()] == 0 => return SolveResult::Unsat,
                        Some(&a) => a,
                        None => match self.pick_active_var() {
                            None => return SolveResult::Sat(self.extract_model()),
                            Some(v) if self.saved_phase[v.index()] => v.pos(),
                            Some(v) => v.neg(),
                        },
                    };
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let ok = self.enqueue(lit, Reason::Decision);
                    debug_assert!(ok);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SolveResult {
        fn model(&self) -> Option<&Model> {
            match self {
                SolveResult::Sat(m) => Some(m),
                SolveResult::Unsat => None,
            }
        }

        fn is_sat(&self) -> bool {
            matches!(self, SolveResult::Sat(_))
        }
    }

    impl Solver {
        fn solve(&mut self) -> SolveResult {
            self.solve_assuming(&[])
        }

        /// Problem clauses, excluding units and learned clauses.
        fn num_clauses(&self) -> usize {
            let (mut clauses, mut at) = (0, 0);
            while at < self.arena.len() {
                at += 1 + self.arena[at].code();
                clauses += 1;
            }
            clauses - self.num_learned
        }

        fn num_learned(&self) -> usize {
            self.num_learned
        }
    }

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].pos()]);
        assert!(s.solve().is_sat());
        s.add_clause(&[v[0].neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    #[should_panic(expected = "unallocated variable")]
    fn solve_assuming_an_unallocated_variable_panics() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        s.solve_assuming(&[Var::new(2).pos()]);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        vars(&mut s, 3);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].pos(), v[0].neg()]);
        assert_eq!(s.num_clauses(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn chain_of_implications_propagates() {
        // a ∧ (a→b) ∧ (b→c) ∧ (c→d) forces all true.
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause(&[v[0].pos()]);
        for w in v.windows(2) {
            s.add_clause(&[w[0].neg(), w[1].pos()]);
        }
        match s.solve() {
            SolveResult::Sat(m) => assert!(v.iter().all(|&x| m.value(x))),
            SolveResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[row[0].pos(), row[1].pos()]);
        }
        #[allow(clippy::needless_range_loop)]
        for hole in 0..2 {
            for a in 0..3 {
                for b in a + 1..3 {
                    let (pa, pb) = (p[a][hole], p[b][hole]);
                    s.add_clause(&[pa.neg(), pb.neg()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_6_into_5_learns_clauses() {
        // Large enough that CDCL actually exercises learning + backjumping.
        let mut s = Solver::new();
        pigeonhole_6_into_5(&mut s);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.num_learned() > 0,
            "pigeonhole refutation must learn clauses"
        );
    }

    /// 6 pigeons, 5 holes, as clauses over `p[pigeon][hole]`.
    fn pigeonhole_6_into_5(s: &mut Solver) -> Vec<Vec<Var>> {
        let holes = 5;
        let p: Vec<Vec<Var>> = (0..holes + 1).map(|_| vars(s, holes)).collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&lits);
        }
        for hole in 0..holes {
            for a in 0..p.len() {
                for b in a + 1..p.len() {
                    s.add_clause(&[p[a][hole].neg(), p[b][hole].neg()]);
                }
            }
        }
        p
    }

    #[test]
    fn falsified_assumption_is_unsat_without_poisoning() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].neg(), v[1].pos()]); // a → b
        s.add_clause(&[v[1].neg(), v[2].pos()]); // b → c
        assert_eq!(
            s.solve_assuming(&[v[0].pos(), v[2].neg()]),
            SolveResult::Unsat
        );
        assert_eq!(
            s.solve_assuming(&[v[2].neg(), v[0].pos()]),
            SolveResult::Unsat
        );
        // The formula itself is untouched: satisfiable with no
        // assumptions, and under either assumption alone.
        assert!(s.solve().is_sat());
        let m = s.solve_assuming(&[v[0].pos()]);
        assert!(m.model().is_some_and(|m| m.value(v[1]) && m.value(v[2])));
        let m = s.solve_assuming(&[v[2].neg(), v[2].neg()]);
        assert!(m.model().is_some_and(|m| !m.value(v[0]) && !m.value(v[2])));
        // An assumption against a unit is Unsat, and only for that call.
        s.add_clause(&[v[1].pos()]);
        assert_eq!(s.solve_assuming(&[v[1].neg()]), SolveResult::Unsat);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn learned_clauses_survive_across_assumptions() {
        // Pigeonhole guarded by a selector `g`: refuting it under `g`
        // learns clauses (all carrying ¬g, so still true without it) that
        // the next call starts from.
        let mut s = Solver::new();
        let g = s.new_var();
        let holes = 5;
        let p: Vec<Vec<Var>> = (0..holes + 1).map(|_| vars(&mut s, holes)).collect();
        for row in &p {
            let lits: Vec<Lit> = std::iter::once(g.neg())
                .chain(row.iter().map(|v| v.pos()))
                .collect();
            s.add_clause(&lits);
        }
        for hole in 0..holes {
            for a in 0..p.len() {
                for b in a + 1..p.len() {
                    s.add_clause(&[p[a][hole].neg(), p[b][hole].neg()]);
                }
            }
        }
        assert_eq!(s.solve_assuming(&[g.pos()]), SolveResult::Unsat);
        let (learned, conflicts) = (s.num_learned(), s.stats.conflicts);
        assert!(learned > 0, "the refutation under g must learn");
        assert!(s.solve().is_sat(), "without g the pigeons are free");
        assert!(s.num_learned() >= learned, "learned clauses persist");
        // The second refutation reuses them: it needs fewer conflicts.
        assert_eq!(s.solve_assuming(&[g.pos()]), SolveResult::Unsat);
        assert!(s.stats.conflicts - conflicts < conflicts);
    }

    #[test]
    fn pigeonhole_under_an_irrelevant_assumption_still_learns() {
        let mut s = Solver::new();
        let free = s.new_var();
        pigeonhole_6_into_5(&mut s);
        assert_eq!(s.solve_assuming(&[free.pos()]), SolveResult::Unsat);
        assert!(s.num_learned() > 0);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn exactly_one_helper() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let lits: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        s.add_exactly_one(&lits);
        match s.solve() {
            SolveResult::Sat(m) => {
                let count = v.iter().filter(|&&x| m.value(x)).count();
                assert_eq!(count, 1);
            }
            SolveResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn blocking_clauses_enumerate_all_models() {
        // 3 free variables → 8 models; learned clauses must not block
        // unseen models.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let mut count = 0;
        while let SolveResult::Sat(m) = s.solve() {
            count += 1;
            assert!(count <= 8, "more models than possible");
            let block: Vec<Lit> = v
                .iter()
                .map(|&x| if m.value(x) { x.neg() } else { x.pos() })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn solve_is_repeatable() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        let a = s.solve();
        let b = s.solve();
        assert_eq!(a, b);
    }

    /// A formula in DIMACS form: `±(v + 1)` is variable `v` or its
    /// negation. The oracle below reads only this form, so it shares no
    /// code with the solver's literals, clause arena or propagation.
    type Cnf = Vec<Vec<i32>>;

    /// Whether row `bits` of the truth table (bit `v` is variable `v`)
    /// satisfies every clause and every assumption.
    fn row_satisfies(bits: u32, cnf: &Cnf, assume: &[i32]) -> bool {
        let holds = |&l: &i32| (bits >> (l.unsigned_abs() - 1) & 1 == 1) == (l > 0);
        assume.iter().all(holds) && cnf.iter().all(|c| c.iter().any(holds))
    }

    /// Rows of the truth table over `n` variables that satisfy the formula
    /// under `assume`.
    fn truth_table(n: usize, cnf: &Cnf, assume: &[i32]) -> Vec<u32> {
        (0..1u32 << n)
            .filter(|&bits| row_satisfies(bits, cnf, assume))
            .collect()
    }

    fn lits(dimacs: &[i32]) -> Vec<Lit> {
        let lit = |&l: &i32| {
            let v = Var::new(l.unsigned_abs() - 1);
            if l > 0 {
                v.pos()
            } else {
                v.neg()
            }
        };
        dimacs.iter().map(lit).collect()
    }

    /// The model as a truth-table row.
    fn row(m: &Model, n: usize) -> u32 {
        (0..n)
            .filter(|&v| m.value(Var::new(v as u32)))
            .fold(0, |bits, v| bits | 1 << v)
    }

    fn random_lit(rng: &mut impl rand::Rng, n: usize) -> i32 {
        let v = rng.gen_range(1..=n as i32);
        if rng.gen_bool(0.5) {
            v
        } else {
            -v
        }
    }

    /// A random formula over `n` variables with `clauses` clauses of one
    /// to three literals each.
    fn random_cnf(rng: &mut impl rand::Rng, n: usize, clauses: usize) -> Cnf {
        (0..clauses)
            .map(|_| {
                (0..rng.gen_range(1..=3))
                    .map(|_| random_lit(rng, n))
                    .collect()
            })
            .collect()
    }

    fn solver_for(n: usize, cnf: &Cnf) -> Solver {
        let mut s = Solver::new();
        vars(&mut s, n);
        for c in cnf {
            s.add_clause(&lits(c));
        }
        s
    }

    #[test]
    fn random_formulas_match_their_truth_table() {
        // 6–10 variables: the verdict must be the truth table's, and a
        // model must be one of its satisfying rows — with no assumptions
        // and under random ones, on one solver, so that whatever a call
        // learned must not mislead the next.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let (mut sat, mut unsat) = (0, 0);
        for round in 0..200 {
            let n = rng.gen_range(6..=10);
            // Dense enough that more than half the calls are Unsat.
            let clauses = rng.gen_range(n / 2..=2 * n);
            let cnf = random_cnf(&mut rng, n, clauses);
            let mut s = solver_for(n, &cnf);
            for call in 0..4 {
                let assume: Vec<i32> = (0..call).map(|_| random_lit(&mut rng, n)).collect();
                let rows = truth_table(n, &cnf, &assume);
                match s.solve_assuming(&lits(&assume)) {
                    SolveResult::Sat(m) => {
                        let bits = row(&m, n);
                        assert!(
                            row_satisfies(bits, &cnf, &assume),
                            "round {round}: model {bits:b} violates {cnf:?} under {assume:?}"
                        );
                        sat += 1;
                    }
                    SolveResult::Unsat => {
                        assert!(
                            rows.is_empty(),
                            "round {round}: Unsat, but {} rows satisfy {cnf:?} under {assume:?}",
                            rows.len()
                        );
                        unsat += 1;
                    }
                }
            }
        }
        // Both verdicts are exercised, neither one rarely.
        assert!(sat > 200 && unsat > 200, "{sat} Sat, {unsat} Unsat");
    }

    #[test]
    fn blocking_enumeration_counts_every_truth_table_model() {
        // Blocking each model in turn must visit exactly the truth table's
        // satisfying rows: a learned clause that blocked an unseen model
        // would end the count early. The models that satisfy a random
        // literal are taken first with it assumed, so clauses learned
        // there must also stay valid once it is dropped.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut models = 0;
        for round in 0..120 {
            let n = rng.gen_range(6..=8);
            let clauses = rng.gen_range(n / 2..=2 * n);
            let cnf = random_cnf(&mut rng, n, clauses);
            let mut s = solver_for(n, &cnf);
            let pick = random_lit(&mut rng, n);
            let mut seen = std::collections::BTreeSet::new();
            for assume in [vec![pick], vec![]] {
                while let SolveResult::Sat(m) = s.solve_assuming(&lits(&assume)) {
                    let bits = row(&m, n);
                    assert!(row_satisfies(bits, &cnf, &assume), "round {round}");
                    assert!(seen.insert(bits), "round {round}: model {bits:b} repeats");
                    let block: Vec<i32> = (1..=n as i32)
                        .map(|v| if bits >> (v - 1) & 1 == 1 { -v } else { v })
                        .collect();
                    s.add_clause(&lits(&block));
                }
                let want = truth_table(n, &cnf, &assume);
                assert!(
                    want.iter().all(|r| seen.contains(r)),
                    "round {round}: {} of {} models under {assume:?} found for {cnf:?}",
                    want.iter().filter(|r| seen.contains(r)).count(),
                    want.len()
                );
            }
            assert_eq!(seen.len(), truth_table(n, &cnf, &[]).len(), "round {round}");
            models += seen.len();
        }
        assert!(models > 500, "only {models} models enumerated");
    }

    #[test]
    fn exhaustive_agreement_with_brute_force() {
        // Random 4-variable formulas of up to nine clauses, mostly
        // satisfiable, against the truth table: under assumptions first,
        // then with none, on one solver.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n = 4;
        for _ in 0..300 {
            let clauses = rng.gen_range(1..10);
            let cnf = random_cnf(&mut rng, n, clauses);
            let mut s = solver_for(n, &cnf);
            for assumed in [1, 2, 3, 0] {
                let assume: Vec<i32> = (0..assumed).map(|_| random_lit(&mut rng, n)).collect();
                let got = s.solve_assuming(&lits(&assume));
                let any = !truth_table(n, &cnf, &assume).is_empty();
                assert_eq!(got.is_sat(), any, "{cnf:?} under {assume:?}");
                if let SolveResult::Sat(m) = got {
                    assert!(
                        row_satisfies(row(&m, n), &cnf, &assume),
                        "{cnf:?} under {assume:?}"
                    );
                }
            }
        }
    }
}
