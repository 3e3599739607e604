use serde::{Deserialize, Serialize};

use crate::{PerClass, PuClass};

/// A kernel currently executing on some other PU, as seen by the cost model.
///
/// Only two facts about a co-runner matter for contention: which cluster it
/// occupies (drives the DVFS/firmware response) and how much DRAM bandwidth
/// it demands (drives memory contention).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveKernel {
    /// The PU class the co-running kernel occupies.
    pub class: PuClass,
    /// Its DRAM bandwidth demand in GB/s (see [`crate::cost::bw_demand`]).
    pub bw_demand_gbs: f64,
}

impl ActiveKernel {
    /// Convenience constructor.
    pub fn new(class: PuClass, bw_demand_gbs: f64) -> ActiveKernel {
        ActiveKernel {
            class,
            bw_demand_gbs,
        }
    }
}

/// Per-device model of intra-application interference.
///
/// The paper (§5.3, Fig. 7) finds two distinct mechanisms on edge SoCs:
///
/// 1. **DVFS / firmware response** — opaque, per-device frequency-governor
///    behaviour triggered by system load: CPU clusters typically slow down
///    (thermal/power budget sharing), while mobile GPUs often *speed up*
///    (vendor firmware boosts GPU clocks under heavy CPU load), and the
///    OnePlus A510 cluster is boosted by a high-performance mode. This is
///    captured by a per-class latency multiplier applied whenever any other
///    PU is active. Multipliers are calibrated against Fig. 7 of the paper.
/// 2. **DRAM bandwidth contention** — the shared memory controller divides
///    bandwidth between concurrently active PUs; memory-bound stages suffer
///    more than compute-bound ones. This part is computed *dynamically* by
///    the cost model from the actual co-runner set, which is what makes
///    measured pipeline latencies deviate from any static table — the
///    effect BetterTogether's interference-aware profiling approximates and
///    its autotuning pass absorbs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    dvfs: PerClass<f64>,
    contention_strength: f64,
    /// Cross-tenant bandwidth-demand penalty, stored as the *excess* over
    /// parity (`penalty − 1`) so that payloads predating the field
    /// deserialize to parity via the plain zero default. See
    /// [`InterferenceModel::cross_tenant_penalty`] for semantics.
    #[serde(default)]
    cross_tenant_excess: f64,
}

impl InterferenceModel {
    /// A model with no interference at all: every multiplier is 1 and
    /// bandwidth contention is disabled. Useful for unit tests and for
    /// modeling idealized discrete-GPU systems.
    pub fn none() -> InterferenceModel {
        InterferenceModel {
            dvfs: PerClass::empty(),
            contention_strength: 0.0,
            cross_tenant_excess: 0.0,
        }
    }

    /// Builds a model from per-class DVFS multipliers and a bandwidth
    /// contention strength in `[0, 1]` (0 = PUs never contend for DRAM,
    /// 1 = full proportional-sharing contention).
    pub fn calibrated<const N: usize>(
        dvfs: [(PuClass, f64); N],
        contention_strength: f64,
    ) -> InterferenceModel {
        assert!(
            (0.0..=1.0).contains(&contention_strength),
            "contention strength must be in [0, 1]"
        );
        for (_, m) in &dvfs {
            assert!(*m > 0.0, "dvfs multipliers must be positive");
        }
        InterferenceModel {
            dvfs: dvfs.into_iter().collect(),
            contention_strength,
            cross_tenant_excess: 0.0,
        }
    }

    /// Sets the multiplier applied to the bandwidth demand a co-runner
    /// advertises when it belongs to a *different tenant* (co-running
    /// application). Independent apps share no working set, so their DRAM
    /// traffic can thrash each other harder (> 1) — or, for devices with
    /// effective cache partitioning, softer (< 1) — than chunks of one
    /// pipeline. Must be finite and positive.
    #[cfg(test)]
    pub(crate) fn with_cross_tenant_penalty(mut self, penalty: f64) -> InterferenceModel {
        assert!(
            penalty.is_finite() && penalty > 0.0,
            "cross-tenant penalty must be finite and positive"
        );
        self.cross_tenant_excess = penalty - 1.0;
        self
    }

    /// The bandwidth-demand multiplier applied to co-runners from other
    /// tenants. `1.0` (the default) prices cross-tenant contention exactly
    /// like intra-app contention, preserving single-tenant behaviour bit
    /// for bit.
    pub(crate) fn cross_tenant_penalty(&self) -> f64 {
        1.0 + self.cross_tenant_excess
    }

    /// The DVFS latency multiplier for `class` when at least one other PU is
    /// busy. Returns 1.0 for classes without calibration data.
    pub fn dvfs_multiplier(&self, class: PuClass) -> f64 {
        self.dvfs.get(class).copied().unwrap_or(1.0)
    }

    /// Bandwidth contention strength in `[0, 1]`.
    pub fn contention_strength(&self) -> f64 {
        self.contention_strength
    }

    /// Computes the memory-time dilation factor for a kernel demanding
    /// `own_demand_gbs` of DRAM bandwidth while the kernels in `co_runners`
    /// are active, on a device with `dram_bw_gbs` of shared bandwidth.
    ///
    /// Under proportional sharing, when total demand exceeds capacity each
    /// client's memory phase dilates by `total / capacity`. The contention
    /// strength interpolates between no contention (1.0) and full
    /// proportional sharing.
    pub(crate) fn memory_dilation(
        &self,
        own_demand_gbs: f64,
        co_runners: &[ActiveKernel],
        dram_bw_gbs: f64,
    ) -> f64 {
        if self.contention_strength == 0.0 || co_runners.is_empty() {
            return 1.0;
        }
        let total: f64 = own_demand_gbs + co_runners.iter().map(|k| k.bw_demand_gbs).sum::<f64>();
        if total <= dram_bw_gbs {
            return 1.0;
        }
        let full = total / dram_bw_gbs;
        1.0 + self.contention_strength * (full - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let m = InterferenceModel::none();
        assert_eq!(m.dvfs_multiplier(PuClass::BigCpu), 1.0);
        let co = [ActiveKernel::new(PuClass::Gpu, 100.0)];
        assert_eq!(m.memory_dilation(100.0, &co, 10.0), 1.0);
    }

    #[test]
    fn dvfs_lookup() {
        let m = InterferenceModel::calibrated([(PuClass::Gpu, 0.86)], 0.5);
        assert_eq!(m.dvfs_multiplier(PuClass::Gpu), 0.86);
        assert_eq!(m.dvfs_multiplier(PuClass::BigCpu), 1.0);
    }

    #[test]
    fn no_dilation_when_under_capacity() {
        let m = InterferenceModel::calibrated([], 1.0);
        let co = [ActiveKernel::new(PuClass::Gpu, 4.0)];
        assert_eq!(m.memory_dilation(5.0, &co, 10.0), 1.0);
    }

    #[test]
    fn full_contention_is_proportional_sharing() {
        let m = InterferenceModel::calibrated([], 1.0);
        let co = [ActiveKernel::new(PuClass::Gpu, 15.0)];
        // total = 20, capacity = 10 -> 2x dilation
        assert!((m.memory_dilation(5.0, &co, 10.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partial_contention_interpolates() {
        let m = InterferenceModel::calibrated([], 0.5);
        let co = [ActiveKernel::new(PuClass::Gpu, 15.0)];
        assert!((m.memory_dilation(5.0, &co, 10.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn no_corunners_means_no_dilation() {
        let m = InterferenceModel::calibrated([], 1.0);
        assert_eq!(m.memory_dilation(50.0, &[], 10.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplier_panics() {
        let _ = InterferenceModel::calibrated([(PuClass::Gpu, 0.0)], 0.5);
    }

    #[test]
    fn cross_tenant_penalty_defaults_to_parity() {
        assert_eq!(InterferenceModel::none().cross_tenant_penalty(), 1.0);
        assert_eq!(
            InterferenceModel::calibrated([], 0.5).cross_tenant_penalty(),
            1.0
        );
        let m = InterferenceModel::calibrated([], 0.5).with_cross_tenant_penalty(1.4);
        assert_eq!(m.cross_tenant_penalty(), 1.4);
        // Serde round-trip preserves it, and old payloads without the
        // field deserialize to parity.
        let json = serde_json::to_string(&m).unwrap();
        let back: InterferenceModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        let legacy: InterferenceModel =
            serde_json::from_str(r#"{"dvfs":[null,null,null,null],"contention_strength":0.5}"#)
                .unwrap();
        assert_eq!(legacy.cross_tenant_penalty(), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_cross_tenant_penalty_panics() {
        let _ = InterferenceModel::calibrated([], 0.5).with_cross_tenant_penalty(0.0);
    }
}
