use serde::{Deserialize, Serialize};

use crate::{GpuBackend, PerClass, PuClass};

/// Black-box resource-demand description of one pipeline stage.
///
/// BetterTogether profiles stages without source-level inspection (§3.2 of
/// the paper); the simulator substrate needs *some* description of what a
/// stage does, so each kernel in `bt-kernels` carries a `WorkProfile` — the
/// moral equivalent of what hardware counters would reveal about it:
///
/// - `flops` — arithmetic operations per task,
/// - `bytes` — DRAM traffic per task (reads + writes beyond cache),
/// - `parallel_fraction` — Amdahl fraction executable in parallel,
/// - `divergence` — 0 (uniform control flow) to 1 (fully divergent),
/// - `irregularity` — 0 (streaming access) to 1 (pointer chasing),
/// - `launches` — number of kernel launches / parallel regions per task.
///
/// Per-class efficiency overrides allow calibrating a stage against measured
/// device behaviour when the analytic traits are insufficient (documented in
/// DESIGN.md; used sparingly by the workload definitions).
///
/// ```
/// use bt_soc::WorkProfile;
/// let sort = WorkProfile::new(40.0e6, 21.0e6)
///     .with_divergence(0.55)
///     .with_irregularity(0.5)
///     .with_launches(8);
/// assert_eq!(sort.launches(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkProfile {
    flops: f64,
    bytes: f64,
    parallel_fraction: f64,
    divergence: f64,
    irregularity: f64,
    launches: u32,
    eff_override: PerClass<f64>,
    backend_eff: [Option<f64>; 2],
}

impl WorkProfile {
    /// Creates a profile for a stage performing `flops` arithmetic
    /// operations and moving `bytes` bytes of DRAM traffic per task.
    ///
    /// Defaults: fully parallel, uniform control flow, streaming
    /// access, one kernel launch.
    ///
    /// # Panics
    ///
    /// Panics if `flops` or `bytes` is negative, or both are zero.
    pub fn new(flops: f64, bytes: f64) -> WorkProfile {
        assert!(flops >= 0.0 && bytes >= 0.0, "work must be non-negative");
        assert!(flops > 0.0 || bytes > 0.0, "a stage must do some work");
        WorkProfile {
            flops,
            bytes,
            parallel_fraction: 1.0,
            divergence: 0.0,
            irregularity: 0.0,
            launches: 1,
            eff_override: PerClass::empty(),
            backend_eff: [None, None],
        }
    }

    /// Sets the Amdahl parallel fraction in `[0, 1]`.
    pub fn with_parallel_fraction(mut self, f: f64) -> WorkProfile {
        assert!((0.0..=1.0).contains(&f));
        self.parallel_fraction = f;
        self
    }

    /// Sets the control-flow divergence in `[0, 1]`.
    pub fn with_divergence(mut self, d: f64) -> WorkProfile {
        assert!((0.0..=1.0).contains(&d));
        self.divergence = d;
        self
    }

    /// Sets the memory-access irregularity in `[0, 1]`.
    pub fn with_irregularity(mut self, irr: f64) -> WorkProfile {
        assert!((0.0..=1.0).contains(&irr));
        self.irregularity = irr;
        self
    }

    /// Sets the number of kernel launches (or parallel regions) per task.
    /// Multi-pass algorithms such as radix sort pay the dispatch overhead
    /// once per pass.
    pub fn with_launches(mut self, n: u32) -> WorkProfile {
        assert!(n >= 1);
        self.launches = n;
        self
    }

    /// Overrides the achieved-efficiency multiplier for one PU class.
    ///
    /// The analytic model multiplies its throughput estimate for `class` by
    /// `eff` (default 1.0). Values below 1.0 model stages that map worse to
    /// the class than the generic traits predict; above 1.0, better. Used
    /// for calibration against published per-device numbers.
    pub fn with_efficiency(mut self, class: PuClass, eff: f64) -> WorkProfile {
        assert!(eff > 0.0);
        self.eff_override.set(class, eff);
        self
    }

    /// Returns a copy with `flops` and `bytes` scaled by `factor`,
    /// everything else (parallelism, divergence, launch count, efficiency
    /// calibration) unchanged — the model of the same stage run at a
    /// different input scale. Fixed per-launch overheads in the latency
    /// model don't scale, so per-class latency shifts non-uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is non-positive or non-finite.
    pub fn scaled(&self, factor: f64) -> WorkProfile {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite"
        );
        let mut scaled = self.clone();
        scaled.flops *= factor;
        scaled.bytes *= factor;
        scaled
    }

    /// Arithmetic operations per task.
    pub fn flops(&self) -> f64 {
        self.flops
    }

    /// DRAM traffic per task in bytes.
    pub fn bytes(&self) -> f64 {
        self.bytes
    }

    /// Amdahl parallel fraction.
    pub(crate) fn parallel_fraction(&self) -> f64 {
        self.parallel_fraction
    }

    /// Control-flow divergence in `[0, 1]`.
    pub fn divergence(&self) -> f64 {
        self.divergence
    }

    /// Memory irregularity in `[0, 1]`.
    pub fn irregularity(&self) -> f64 {
        self.irregularity
    }

    /// Kernel launches per task.
    pub fn launches(&self) -> u32 {
        self.launches
    }

    /// Per-class efficiency multiplier (1.0 when not overridden).
    pub(crate) fn efficiency(&self, class: PuClass) -> f64 {
        self.eff_override.get(class).copied().unwrap_or(1.0)
    }

    /// Declares the quality of this stage's kernel under a GPU backend.
    ///
    /// Kernels are implemented separately per backend (CUDA vs. Vulkan
    /// compute, §3.1 of the paper) and can differ drastically in quality —
    /// e.g. a CUDA radix sort built on warp-synchronous primitives versus a
    /// portable Vulkan multi-pass shader. The multiplier scales achieved
    /// throughput on GPUs driven through `backend`.
    pub fn with_backend_efficiency(mut self, backend: GpuBackend, eff: f64) -> WorkProfile {
        assert!(eff > 0.0);
        self.backend_eff[backend.index()] = Some(eff);
        self
    }

    /// The backend efficiency multiplier (1.0 when not declared).
    pub(crate) fn backend_efficiency(&self, backend: GpuBackend) -> f64 {
        self.backend_eff[backend.index()].unwrap_or(1.0)
    }

    /// Returns a profile for the combined execution of `self` followed by
    /// `other` (used when several stages form a chunk and their aggregate
    /// demand matters, e.g. for bandwidth accounting).
    pub fn merged(&self, other: &WorkProfile) -> WorkProfile {
        let total_flops = self.flops + other.flops;
        let weight = |a: f64, b: f64| {
            if total_flops > 0.0 {
                (a * self.flops + b * other.flops) / total_flops
            } else {
                (a + b) / 2.0
            }
        };
        WorkProfile {
            flops: total_flops,
            bytes: self.bytes + other.bytes,
            parallel_fraction: weight(self.parallel_fraction, other.parallel_fraction),
            divergence: weight(self.divergence, other.divergence),
            irregularity: weight(self.irregularity, other.irregularity),
            launches: self.launches + other.launches,
            eff_override: PerClass::empty(),
            backend_eff: [None, None],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let w = WorkProfile::new(1e6, 1e5);
        assert_eq!(w.launches(), 1);
        assert_eq!(w.divergence(), 0.0);
        assert!(w.parallel_fraction() > 0.9);
        assert_eq!(w.efficiency(PuClass::Gpu), 1.0);
    }

    #[test]
    fn efficiency_override() {
        let w = WorkProfile::new(1e6, 1e5).with_efficiency(PuClass::Gpu, 0.25);
        assert_eq!(w.efficiency(PuClass::Gpu), 0.25);
        assert_eq!(w.efficiency(PuClass::BigCpu), 1.0);
    }

    #[test]
    fn merged_sums_work_and_weights_traits() {
        let a = WorkProfile::new(3e6, 1e6).with_divergence(0.0);
        let b = WorkProfile::new(1e6, 1e6).with_divergence(0.8);
        let m = a.merged(&b);
        assert!((m.flops() - 4e6).abs() < 1.0);
        assert!((m.bytes() - 2e6).abs() < 1.0);
        // flop-weighted: 0.8 * 1/4 = 0.2
        assert!((m.divergence() - 0.2).abs() < 1e-9);
        assert_eq!(m.launches(), 2);
    }

    #[test]
    #[should_panic(expected = "some work")]
    fn zero_work_panics() {
        let _ = WorkProfile::new(0.0, 0.0);
    }
}
