//! Fault-injection vocabulary for the simulators: deterministic, data-driven
//! perturbations of a pipeline run.
//!
//! BetterTogether's static schedules assume the interference-heavy profile
//! stays representative. Real SoCs drift: DVFS throttles a cluster, a task
//! straggles behind a page-fault storm, a kernel times out, a PU drops off
//! the bus. A [`FaultSpec`] describes such perturbations as plain data —
//! every activation is a pure function of `(chunk, task, stage, class,
//! virtual time)`, so a faulted simulation is exactly as deterministic as a
//! fault-free one: same spec + same seed ⇒ bit-identical run.
//!
//! The spec is the *mechanism*; seedable random fault *policy* (generating
//! specs) lives upstream in `bt-faults`, which lowers its `FaultPlan` onto
//! this vocabulary.

use serde::{Deserialize, Serialize};

use crate::PuClass;

/// A DVFS-style slowdown ramp on one PU class: service times of chunks
/// hosted on `class` are multiplied by a factor that interpolates linearly
/// from 1 at `start_us` to `factor` at `start_us + ramp_us`, then holds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowdownRamp {
    /// The throttled PU class.
    pub class: PuClass,
    /// Virtual time (µs) the throttle begins.
    pub start_us: f64,
    /// Ramp length (µs); `0` is a step change.
    pub ramp_us: f64,
    /// Steady-state service-time multiplier (`> 1` slows the class down).
    pub factor: f64,
}

impl SlowdownRamp {
    /// The multiplier in effect at virtual time `now` (µs).
    pub(crate) fn factor_at(&self, now: f64) -> f64 {
        if now <= self.start_us {
            1.0
        } else if self.ramp_us <= 0.0 || now >= self.start_us + self.ramp_us {
            self.factor
        } else {
            1.0 + (self.factor - 1.0) * (now - self.start_us) / self.ramp_us
        }
    }
}

/// A transient straggler: one task served `factor`× slower by one chunk
/// (cache-cold object, page-fault storm, background interrupt burst).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// The straggling chunk (the dynamic scheduler, which has no chunk
    /// identity, matches on `task` alone).
    pub chunk: usize,
    /// The affected task sequence number.
    pub task: usize,
    /// Service-time multiplier for that (chunk, task) pair.
    pub factor: f64,
}

/// What happens when a stage iteration faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StageFaultKind {
    /// The kernel fails: the task is dropped and its object recycled to
    /// the pipeline head.
    Error,
    /// The kernel hangs for `extra_us` before completing — what a runtime
    /// watchdog would observe as a timeout.
    Timeout {
        /// Extra service time in µs.
        extra_us: f64,
    },
}

/// A fault pinned to one `(chunk, task, stage)` iteration (`stage` is the
/// index *within* the chunk). The dynamic scheduler matches on
/// `(task, stage)` only.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageFault {
    /// Chunk index in pipeline order.
    pub chunk: usize,
    /// Task sequence number.
    pub task: usize,
    /// Stage index within the chunk.
    pub stage: usize,
    /// Error (drop) or timeout (delay).
    pub kind: StageFaultKind,
}

/// Permanent loss of a PU class at a virtual instant: chunks hosted on it
/// stop serving, in-flight work dies at `at_us`, and every task reaching a
/// lost chunk is dropped (the static pipeline drains and degrades; the
/// dynamic scheduler routes around the loss).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PuLoss {
    /// The lost PU class.
    pub class: PuClass,
    /// Virtual time of the loss (µs).
    pub at_us: f64,
}

/// A deterministic set of perturbations applied to one simulated run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-class DVFS throttle ramps (multipliers compose).
    pub slowdowns: Vec<SlowdownRamp>,
    /// Per-(chunk, task) transient stragglers.
    pub stragglers: Vec<Straggler>,
    /// Kernel errors / timeouts on exact stage iterations.
    pub stage_faults: Vec<StageFault>,
    /// Permanent PU losses.
    pub losses: Vec<PuLoss>,
}

impl FaultSpec {
    /// A spec with no perturbations.
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// Whether the spec perturbs anything at all.
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty()
            && self.stragglers.is_empty()
            && self.stage_faults.is_empty()
            && self.losses.is_empty()
    }

    /// Product of all slowdown-ramp multipliers on `class` at `now`.
    pub(crate) fn slowdown_factor(&self, class: PuClass, now: f64) -> f64 {
        self.slowdowns
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.factor_at(now))
            .product()
    }

    /// Product of straggler multipliers for `(chunk, task)`. `None` is the
    /// dynamic scheduler's chunk-less address: it matches `task` on any
    /// chunk.
    pub(crate) fn straggler_factor(&self, chunk: Option<usize>, task: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| chunk.is_none_or(|c| s.chunk == c) && s.task == task)
            .map(|s| s.factor)
            .product()
    }

    /// The fault pinned to `(chunk, task, stage)`, if any; `None` matches
    /// `(task, stage)` on any chunk. An `Error` entry wins over a `Timeout`
    /// when both match the same iteration.
    pub(crate) fn stage_fault(
        &self,
        chunk: Option<usize>,
        task: usize,
        stage: usize,
    ) -> Option<StageFaultKind> {
        let mut found = None;
        for f in &self.stage_faults {
            if chunk.is_none_or(|c| f.chunk == c) && f.task == task && f.stage == stage {
                if matches!(f.kind, StageFaultKind::Error) {
                    return Some(f.kind);
                }
                found = Some(f.kind);
            }
        }
        found
    }

    /// The earliest loss instant of `class`, if it is lost at all.
    pub fn loss_at(&self, class: PuClass) -> Option<f64> {
        self.losses
            .iter()
            .filter(|l| l.class == class)
            .map(|l| l.at_us)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_interpolates_linearly() {
        let r = SlowdownRamp {
            class: PuClass::BigCpu,
            start_us: 100.0,
            ramp_us: 100.0,
            factor: 3.0,
        };
        assert_eq!(r.factor_at(0.0), 1.0);
        assert_eq!(r.factor_at(100.0), 1.0);
        assert!((r.factor_at(150.0) - 2.0).abs() < 1e-12);
        assert_eq!(r.factor_at(200.0), 3.0);
        assert_eq!(r.factor_at(1e9), 3.0);
    }

    #[test]
    fn step_ramp_switches_instantly() {
        let r = SlowdownRamp {
            class: PuClass::Gpu,
            start_us: 50.0,
            ramp_us: 0.0,
            factor: 2.0,
        };
        assert_eq!(r.factor_at(50.0), 1.0);
        assert_eq!(r.factor_at(50.0 + 1e-9), 2.0);
    }

    #[test]
    fn slowdown_factors_compose_multiplicatively() {
        let spec = FaultSpec {
            slowdowns: vec![
                SlowdownRamp {
                    class: PuClass::BigCpu,
                    start_us: 0.0,
                    ramp_us: 0.0,
                    factor: 2.0,
                },
                SlowdownRamp {
                    class: PuClass::BigCpu,
                    start_us: 0.0,
                    ramp_us: 0.0,
                    factor: 1.5,
                },
            ],
            ..FaultSpec::default()
        };
        assert!((spec.slowdown_factor(PuClass::BigCpu, 1.0) - 3.0).abs() < 1e-12);
        assert_eq!(spec.slowdown_factor(PuClass::Gpu, 1.0), 1.0);
    }

    #[test]
    fn error_wins_over_timeout_on_same_iteration() {
        let spec = FaultSpec {
            stage_faults: vec![
                StageFault {
                    chunk: 1,
                    task: 3,
                    stage: 0,
                    kind: StageFaultKind::Timeout { extra_us: 10.0 },
                },
                StageFault {
                    chunk: 1,
                    task: 3,
                    stage: 0,
                    kind: StageFaultKind::Error,
                },
            ],
            ..FaultSpec::default()
        };
        assert_eq!(spec.stage_fault(Some(1), 3, 0), Some(StageFaultKind::Error));
        assert_eq!(spec.stage_fault(Some(1), 3, 1), None);
        assert_eq!(spec.stage_fault(Some(0), 3, 0), None);
        assert_eq!(spec.stage_fault(None, 3, 0), Some(StageFaultKind::Error));
    }

    #[test]
    fn a_chunkless_straggler_lookup_matches_every_chunk() {
        let at = |chunk, factor| Straggler {
            chunk,
            task: 7,
            factor,
        };
        let spec = FaultSpec {
            stragglers: vec![at(0, 2.0), at(2, 3.0)],
            ..FaultSpec::default()
        };
        assert_eq!(spec.straggler_factor(Some(2), 7), 3.0);
        assert_eq!(spec.straggler_factor(Some(1), 7), 1.0);
        assert_eq!(spec.straggler_factor(None, 7), 6.0);
        assert_eq!(spec.straggler_factor(None, 8), 1.0);
    }

    #[test]
    fn earliest_loss_wins() {
        let spec = FaultSpec {
            losses: vec![
                PuLoss {
                    class: PuClass::Gpu,
                    at_us: 500.0,
                },
                PuLoss {
                    class: PuClass::Gpu,
                    at_us: 200.0,
                },
            ],
            ..FaultSpec::default()
        };
        assert_eq!(spec.loss_at(PuClass::Gpu), Some(200.0));
        assert_eq!(spec.loss_at(PuClass::BigCpu), None);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = FaultSpec {
            slowdowns: vec![SlowdownRamp {
                class: PuClass::BigCpu,
                start_us: 10.0,
                ramp_us: 5.0,
                factor: 2.0,
            }],
            stragglers: vec![Straggler {
                chunk: 0,
                task: 7,
                factor: 4.0,
            }],
            stage_faults: vec![StageFault {
                chunk: 2,
                task: 11,
                stage: 1,
                kind: StageFaultKind::Timeout { extra_us: 100.0 },
            }],
            losses: vec![PuLoss {
                class: PuClass::LittleCpu,
                at_us: 1e4,
            }],
        };
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: FaultSpec = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, spec);
        assert!(!back.is_empty());
        assert!(FaultSpec::none().is_empty());
    }
}
