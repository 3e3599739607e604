//! Pipeline schedules: the stage → PU mapping produced by BT-Optimizer and
//! consumed by the executors.

use core::fmt;

#[cfg(feature = "std")]
use alloc::string::ToString;
use alloc::vec;
use alloc::vec::Vec;

use crate::pu::PuClass;

/// Error constructing a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// No stages.
    Empty,
    /// A PU class reappears after a different class (violates C2).
    NotContiguous {
        /// The stage index where the violation occurs.
        stage: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Empty => f.write_str("a schedule needs at least one stage"),
            ScheduleError::NotContiguous { stage } => {
                write!(
                    f,
                    "stages on one PU must be contiguous (violated at stage {stage})"
                )
            }
        }
    }
}

impl core::error::Error for ScheduleError {}

/// One chunk of a schedule: a PU class and the contiguous stage range it
/// executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "std", derive(serde::Serialize, serde::Deserialize))]
pub struct ChunkAssignment {
    /// The serving PU class.
    pub pu: PuClass,
    /// First stage index (inclusive).
    pub first_stage: usize,
    /// Last stage index (inclusive).
    pub last_stage: usize,
}

impl ChunkAssignment {
    /// Number of stages in this chunk.
    pub fn stage_count(&self) -> usize {
        self.last_stage - self.first_stage + 1
    }
}

/// A validated pipeline schedule: for each stage, the PU class it runs on,
/// with the contiguity constraint (C2) enforced at construction.
///
/// ```
/// use bt_rt::{PuClass, Schedule};
///
/// let s = Schedule::new(vec![
///     PuClass::BigCpu, PuClass::BigCpu, PuClass::Gpu,
/// ])?;
/// assert_eq!(s.chunks().len(), 2);
/// assert_eq!(s.to_string(), "BBG");
/// # Ok::<(), bt_rt::ScheduleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schedule {
    assignment: Vec<PuClass>,
    /// Maximal chunks, precomputed at construction: `chunks()` sits on
    /// the executors' and predictors' hot paths, where a fresh `Vec` per
    /// call showed up in Fig. 2 loop profiles.
    chunks: Vec<ChunkAssignment>,
}

impl Schedule {
    /// Validates and wraps a stage → class assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Empty`] for zero stages, or
    /// [`ScheduleError::NotContiguous`] if a class reappears after another
    /// class intervened.
    pub fn new(assignment: Vec<PuClass>) -> Result<Schedule, ScheduleError> {
        if assignment.is_empty() {
            return Err(ScheduleError::Empty);
        }
        let mut closed = [false; PuClass::COUNT];
        let mut prev: Option<PuClass> = None;
        for (i, &c) in assignment.iter().enumerate() {
            if prev != Some(c) {
                if closed[c.index()] {
                    return Err(ScheduleError::NotContiguous { stage: i });
                }
                if let Some(p) = prev {
                    closed[p.index()] = true;
                }
                prev = Some(c);
            }
        }
        let chunks = Schedule::compute_chunks(&assignment);
        Ok(Schedule { assignment, chunks })
    }

    /// A schedule placing every stage on one PU (the paper's homogeneous
    /// baselines).
    pub fn homogeneous(stages: usize, pu: PuClass) -> Schedule {
        assert!(stages > 0, "a schedule needs at least one stage");
        Schedule {
            assignment: vec![pu; stages],
            chunks: vec![ChunkAssignment {
                pu,
                first_stage: 0,
                last_stage: stages - 1,
            }],
        }
    }

    fn compute_chunks(assignment: &[PuClass]) -> Vec<ChunkAssignment> {
        let mut chunks = Vec::new();
        let mut start = 0;
        for i in 1..=assignment.len() {
            if i == assignment.len() || assignment[i] != assignment[start] {
                chunks.push(ChunkAssignment {
                    pu: assignment[start],
                    first_stage: start,
                    last_stage: i - 1,
                });
                start = i;
            }
        }
        chunks
    }

    /// Builds a schedule from optimizer output: per-stage indices into a
    /// class palette.
    ///
    /// # Errors
    ///
    /// Propagates validation errors; panics if an index is out of range of
    /// `classes`.
    pub fn from_class_indices(
        indices: &[usize],
        classes: &[PuClass],
    ) -> Result<Schedule, ScheduleError> {
        Schedule::new(indices.iter().map(|&i| classes[i]).collect())
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.assignment.len()
    }

    /// The full assignment.
    pub fn assignment(&self) -> &[PuClass] {
        &self.assignment
    }

    /// The maximal chunks, in pipeline order (precomputed; this is a
    /// zero-cost accessor).
    pub fn chunks(&self) -> &[ChunkAssignment] {
        &self.chunks
    }

    /// The distinct PU classes used.
    pub fn classes_used(&self) -> Vec<PuClass> {
        self.chunks().iter().map(|c| c.pu).collect()
    }

    /// Whether every stage runs on the same PU.
    pub fn is_homogeneous(&self) -> bool {
        self.chunks().len() == 1
    }
}

// Hand-written serde keeps the wire format exactly what the derive on the
// pre-cache struct produced — `{"assignment":[...]}` — and re-validates
// (and re-derives the chunk cache) on the way in.
#[cfg(feature = "std")]
impl serde::Serialize for Schedule {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "assignment".to_string(),
            serde::Serialize::to_value(&self.assignment),
        )])
    }
}

#[cfg(feature = "std")]
impl serde::Deserialize for Schedule {
    fn from_value(v: &serde::Value) -> Result<Schedule, serde::Error> {
        let assignment = v
            .get("assignment")
            .ok_or_else(|| serde::Error::new("Schedule: missing field `assignment`"))?;
        let assignment: Vec<PuClass> = serde::Deserialize::from_value(assignment)?;
        Schedule::new(assignment).map_err(|e| serde::Error::new(e.to_string()))
    }
}

impl fmt::Display for Schedule {
    /// Compact form: one letter per stage (B/M/L/G).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &c in &self.assignment {
            let ch = match c {
                PuClass::BigCpu => 'B',
                PuClass::MediumCpu => 'M',
                PuClass::LittleCpu => 'L',
                PuClass::Gpu => 'G',
            };
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::string::ToString;

    #[test]
    fn chunk_decomposition() {
        let s = Schedule::new(vec![
            PuClass::BigCpu,
            PuClass::BigCpu,
            PuClass::Gpu,
            PuClass::LittleCpu,
        ])
        .unwrap();
        let chunks = s.chunks();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].pu, PuClass::BigCpu);
        assert_eq!((chunks[0].first_stage, chunks[0].last_stage), (0, 1));
        assert_eq!(chunks[0].stage_count(), 2);
        assert_eq!(chunks[2].pu, PuClass::LittleCpu);
    }

    #[test]
    fn contiguity_enforced() {
        let r = Schedule::new(vec![PuClass::BigCpu, PuClass::Gpu, PuClass::BigCpu]);
        assert_eq!(r, Err(ScheduleError::NotContiguous { stage: 2 }));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Schedule::new(vec![]), Err(ScheduleError::Empty));
    }

    #[test]
    fn homogeneous_is_single_chunk() {
        let s = Schedule::homogeneous(5, PuClass::Gpu);
        assert!(s.is_homogeneous());
        assert_eq!(s.chunks().len(), 1);
        assert_eq!(s.to_string(), "GGGGG");
    }

    #[test]
    fn from_class_indices_maps_palette() {
        let classes = [PuClass::BigCpu, PuClass::Gpu];
        let s = Schedule::from_class_indices(&[0, 0, 1], &classes).unwrap();
        assert_eq!(s.assignment()[2], PuClass::Gpu);
        assert_eq!(s.to_string(), "BBG");
    }

    #[cfg(feature = "std")]
    #[test]
    fn serde_round_trip_keeps_wire_format_and_revalidates() {
        let s = Schedule::new(vec![PuClass::BigCpu, PuClass::BigCpu, PuClass::Gpu]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.starts_with("{\"assignment\":"),
            "wire format must stay assignment-only: {json}"
        );
        assert!(!json.contains("chunks"), "cache must not leak: {json}");
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.chunks(), s.chunks());
        // Invalid assignments are rejected at deserialization too.
        let bad = "{\"assignment\":[\"BigCpu\",\"Gpu\",\"BigCpu\"]}";
        assert!(serde_json::from_str::<Schedule>(bad).is_err());
        assert!(serde_json::from_str::<Schedule>("{\"assignment\":[]}").is_err());
    }

    #[test]
    fn display_letters() {
        let s = Schedule::new(vec![
            PuClass::MediumCpu,
            PuClass::LittleCpu,
            PuClass::LittleCpu,
        ])
        .unwrap();
        assert_eq!(s.to_string(), "MLL");
    }
}
