//! Conflict analysis for the CDCL solver: first-UIP clause learning,
//! EVSIDS-style activity bookkeeping, and the Luby restart sequence.
//!
//! Separated from the solver core so the watched-literal propagation
//! machinery stays independent of *how* conflicts are turned into learned
//! clauses.

use crate::lit::Lit;
use crate::solver::{Reason, Solver};

/// Multiplicative activity decay applied once per conflict (as
/// `var_inc /= DECAY`, the rescaling formulation of EVSIDS).
pub(crate) const ACTIVITY_DECAY: f64 = 0.95;

/// Rescale threshold for variable activities.
pub(crate) const ACTIVITY_RESCALE: f64 = 1e100;

/// Conflicts allowed before the first restart; later restarts scale this
/// by the Luby sequence.
pub(crate) const RESTART_BASE: u64 = 128;

/// The reluctant-doubling (Luby) sequence `1 1 2 1 1 2 4 1 1 2 1 1 2 4 8…`
/// for `x = 0, 1, 2, …` — the optimal universal restart schedule.
pub(crate) fn luby(mut x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1 << seq
}

impl Solver {
    /// Bumps a variable's activity, rescaling the whole table when it
    /// overflows the EVSIDS threshold.
    pub(crate) fn bump_activity(&mut self, var_idx: usize) {
        self.activity[var_idx] += self.var_inc;
        if self.activity[var_idx] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a *= 1.0 / ACTIVITY_RESCALE;
            }
            self.var_inc *= 1.0 / ACTIVITY_RESCALE;
        }
    }

    /// First-UIP conflict analysis: walks the implication graph backwards
    /// from the falsified clause `confl` along reason clauses, resolving on
    /// literals of the current decision level until exactly one (the first
    /// unique implication point) remains. Leaves the learned clause in
    /// `self.learnt` — asserting literal at index 0, a highest-level
    /// remaining literal at index 1 (the second watch stays valid right
    /// after the backjump) — and returns the backjump level.
    ///
    /// Every variable touched gets an activity bump, which is what focuses
    /// subsequent decisions on the conflicting core.
    pub(crate) fn analyze(&mut self, confl: u32) -> usize {
        let current = self.trail_lim.len();
        debug_assert!(current > 0, "level-0 conflicts are final, not analyzed");
        self.learnt.clear();
        self.learnt.push(Lit::from_code(0)); // slot for the UIP
        let mut path = 0usize;
        let mut index = self.trail.len();
        let mut p: Option<Lit> = None;
        let mut ci = confl;
        loop {
            // For a reason clause, index 0 holds the implied literal `p`
            // itself; resolution only adds the antecedent side.
            for k in usize::from(p.is_some())..self.clause(ci).len() {
                let q = self.clause(ci)[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.to_clear.push(v);
                    self.bump_activity(v);
                    if self.level[v] as usize >= current {
                        path += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Next marked literal walking the trail backwards: the most
            // recently implied variable still on the conflict side.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path -= 1;
            p = Some(pl);
            if path == 0 {
                break;
            }
            ci = match self.reason[pl.var().index()] {
                Reason::Clause(reason) => reason,
                Reason::Decision => {
                    unreachable!("a decision cannot be on the conflict side below the UIP")
                }
            };
        }
        self.learnt[0] = !p.expect("loop ran at least once");
        for v in self.to_clear.drain(..) {
            self.seen[v] = false;
        }
        let learnt = &mut self.learnt;
        if learnt.len() == 1 {
            return 0;
        }
        let mut hi = 1;
        for i in 2..learnt.len() {
            if self.level[learnt[i].var().index()] > self.level[learnt[hi].var().index()] {
                hi = i;
            }
        }
        learnt.swap(1, hi);
        self.level[learnt[1].var().index()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix_is_reluctant_doubling() {
        let want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }
}
