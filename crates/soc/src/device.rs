use serde::{Deserialize, Serialize};

use crate::{AffinityMap, GpuBackend, InterferenceModel, PuClass, PuSpec, SocError};

pub use bt_rt::PerClass;

/// Complete model of one heterogeneous SoC: its PU clusters, shared DRAM,
/// interference behaviour, and thread-affinity constraints.
///
/// Build with [`SocBuilder`] or use one of the paper's evaluation platforms
/// from [`devices`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocSpec {
    name: String,
    pus: PerClass<PuSpec>,
    dram_bw_gbs: f64,
    interference: InterferenceModel,
    affinity: AffinityMap,
}

impl SocSpec {
    /// Human-readable device name, e.g. `"Google Pixel 7a"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable content hash of the full device model (clusters, bandwidth,
    /// interference, affinity) — the device component of a content-addressed
    /// plan-cache key. Two specs hash equal iff every parameter a solve
    /// depends on is equal; see [`json_hash`](crate::json_hash) for
    /// stability guarantees.
    pub fn content_hash(&self) -> u64 {
        crate::hash::json_hash(self)
    }

    /// The cluster specification for `class`, if the device has one.
    pub fn pu(&self, class: PuClass) -> Option<&PuSpec> {
        self.pus.get(class)
    }

    /// The cluster specification for `class`.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::MissingPu`] if the device has no such cluster.
    pub(crate) fn try_pu(&self, class: PuClass) -> Result<&PuSpec, SocError> {
        self.pus.get(class).ok_or(SocError::MissingPu(class))
    }

    /// All PU classes present on the device, in canonical order.
    pub fn classes(&self) -> Vec<PuClass> {
        self.pus.iter().map(|(c, _)| c).collect()
    }

    /// PU classes that can host pipeline chunks (see
    /// [`PuSpec::schedulable`]; e.g. the OnePlus 11 little cluster is
    /// profiled but not schedulable because its cores cannot be pinned).
    pub fn schedulable_classes(&self) -> Vec<PuClass> {
        self.pus
            .iter()
            .filter(|(_, spec)| spec.schedulable())
            .map(|(c, _)| c)
            .collect()
    }

    /// Iterates over all clusters.
    pub fn pus(&self) -> impl Iterator<Item = (PuClass, &PuSpec)> {
        self.pus.iter()
    }

    /// Total DRAM bandwidth shared by all PUs, in GB/s (UMA assumption).
    pub fn dram_bw_gbs(&self) -> f64 {
        self.dram_bw_gbs
    }

    /// The device's interference model.
    pub fn interference(&self) -> &InterferenceModel {
        &self.interference
    }

    /// Returns a copy of this device with a different interference model —
    /// the lever the interference-ablation experiments use.
    pub fn with_interference(mut self, model: InterferenceModel) -> SocSpec {
        self.interference = model;
        self
    }

    /// The device's thread-affinity map.
    pub fn affinity(&self) -> &AffinityMap {
        &self.affinity
    }
}

/// Builder for [`SocSpec`].
///
/// ```
/// use bt_soc::{SocBuilder, PuSpec, PuClass, InterferenceModel};
///
/// let soc = SocBuilder::new("MyBoard")
///     .pu(PuSpec::new(PuClass::BigCpu, "A78", 4, 2.0))
///     .pu(PuSpec::new(PuClass::Gpu, "iGPU", 8, 0.9))
///     .dram_bw_gbs(30.0)
///     .build()
///     .expect("valid device");
/// assert_eq!(soc.classes().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SocBuilder {
    name: String,
    pus: PerClass<PuSpec>,
    dram_bw_gbs: f64,
    interference: InterferenceModel,
    affinity: Option<AffinityMap>,
}

impl SocBuilder {
    /// Starts building a device model with the given name.
    pub fn new(name: impl Into<String>) -> SocBuilder {
        SocBuilder {
            name: name.into(),
            pus: PerClass::empty(),
            dram_bw_gbs: 20.0,
            interference: InterferenceModel::none(),
            affinity: None,
        }
    }

    /// Adds (or replaces) the cluster of the spec's class.
    pub fn pu(mut self, spec: PuSpec) -> SocBuilder {
        self.pus.set(spec.class(), spec);
        self
    }

    /// Sets the total shared DRAM bandwidth in GB/s.
    pub fn dram_bw_gbs(mut self, bw: f64) -> SocBuilder {
        self.dram_bw_gbs = bw;
        self
    }

    /// Sets the interference model (defaults to no interference).
    pub fn interference(mut self, model: InterferenceModel) -> SocBuilder {
        self.interference = model;
        self
    }

    /// Sets the affinity map (defaults to a map derived from the clusters:
    /// cores numbered little → medium → big, all pinnable cores exposed).
    pub fn affinity(mut self, map: AffinityMap) -> SocBuilder {
        self.affinity = Some(map);
        self
    }

    /// Finalizes the device model.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::EmptyDevice`] if no cluster was added, or
    /// [`SocError::InvalidSpec`] if a parameter is non-positive.
    pub fn build(self) -> Result<SocSpec, SocError> {
        if self.pus.is_empty() {
            return Err(SocError::EmptyDevice);
        }
        if self.dram_bw_gbs <= 0.0 {
            return Err(SocError::InvalidSpec {
                param: "dram_bw_gbs",
                value: self.dram_bw_gbs,
            });
        }
        for (_, spec) in self.pus.iter() {
            spec.validate()?;
        }
        let affinity = match self.affinity {
            Some(map) => map,
            None => crate::affinity::derive_affinity(&self.pus),
        };
        Ok(SocSpec {
            name: self.name,
            pus: self.pus,
            dram_bw_gbs: self.dram_bw_gbs,
            interference: self.interference,
            affinity,
        })
    }
}

/// Models of the paper's four evaluation platforms (Table 2).
///
/// All architectural parameters (core counts, frequencies) come from the
/// paper; micro-architectural parameters (IPC, SIMD widths, efficiencies,
/// overheads) and the interference multipliers are calibrated so the
/// simulator reproduces the paper's Table 3 baselines and Fig. 7 ratios.
pub mod devices {
    use super::*;

    /// Google Pixel 7a — Tensor G2: 2× Cortex-X1 @ 2.85 GHz, 2× Cortex-A78
    /// @ 2.35 GHz, 4× Cortex-A55 @ 1.80 GHz, Arm Mali-G710 MP7 (Vulkan).
    ///
    /// All eight CPU cores are pinnable (full affinity control, §5.1).
    pub fn pixel_7a() -> SocSpec {
        SocBuilder::new("Google Pixel 7a")
            .pu(PuSpec::new(PuClass::BigCpu, "Cortex-X1", 2, 2.85)
                .with_ipc(3.2)
                .with_simd_lanes(4)
                .with_arith_eff(0.30)
                .with_divergence_penalty(0.15)
                .with_irregular_penalty(0.45)
                .with_mem_bw_gbs(14.0)
                .with_dispatch_overhead_us(14.0)
                .with_l2_kib(1024))
            .pu(PuSpec::new(PuClass::MediumCpu, "Cortex-A78", 2, 2.35)
                .with_ipc(2.6)
                .with_simd_lanes(4)
                .with_arith_eff(0.30)
                .with_divergence_penalty(0.18)
                .with_irregular_penalty(0.50)
                .with_mem_bw_gbs(10.0)
                .with_dispatch_overhead_us(14.0)
                .with_l2_kib(256))
            .pu(PuSpec::new(PuClass::LittleCpu, "Cortex-A55", 4, 1.80)
                .with_ipc(1.1)
                .with_simd_lanes(2)
                .with_arith_eff(0.28)
                .with_divergence_penalty(0.25)
                .with_irregular_penalty(0.60)
                .with_mem_bw_gbs(7.0)
                .with_dispatch_overhead_us(18.0)
                .with_l2_kib(128))
            .pu(PuSpec::new(PuClass::Gpu, "Mali-G710 MP7", 7, 0.85)
                .with_backend(GpuBackend::Vulkan)
                .with_ipc(2.0)
                .with_simd_lanes(32)
                .with_arith_eff(0.40)
                .with_divergence_penalty(0.92)
                .with_irregular_penalty(0.85)
                .with_mem_bw_gbs(18.0)
                .with_dispatch_overhead_us(25.0)
                .with_sync_overhead_us(130.0)
                .with_l2_kib(1024))
            .dram_bw_gbs(20.0)
            .interference(InterferenceModel::calibrated(
                [
                    (PuClass::BigCpu, 1.34),
                    (PuClass::MediumCpu, 1.15),
                    (PuClass::LittleCpu, 1.33),
                    (PuClass::Gpu, 0.74),
                ],
                0.3,
            ))
            .build()
            .expect("pixel 7a model is valid")
    }

    /// OnePlus 11 — Snapdragon 8 Gen 2: 1× Cortex-X3 @ 3.2 GHz, 2× A715 +
    /// 2× A710 @ 2.8 GHz (modeled as one 4-core medium cluster), 3× A510 @
    /// 2.0 GHz, Qualcomm Adreno 740 (Vulkan).
    ///
    /// Only 5 of 8 cores may be pinned (§5.1): the A510 cluster is profiled
    /// but excluded from schedules.
    pub fn oneplus_11() -> SocSpec {
        SocBuilder::new("OnePlus 11")
            .pu(PuSpec::new(PuClass::BigCpu, "Cortex-X3", 1, 3.2)
                .with_ipc(4.2)
                .with_simd_lanes(4)
                .with_arith_eff(0.42)
                .with_divergence_penalty(0.12)
                .with_irregular_penalty(0.42)
                .with_mem_bw_gbs(16.0)
                .with_dispatch_overhead_us(12.0)
                .with_l2_kib(1024))
            .pu(PuSpec::new(PuClass::MediumCpu, "Cortex-A715/A710", 4, 2.8)
                .with_ipc(2.8)
                .with_simd_lanes(4)
                .with_arith_eff(0.29)
                .with_divergence_penalty(0.16)
                .with_irregular_penalty(0.48)
                .with_mem_bw_gbs(13.0)
                .with_dispatch_overhead_us(13.0)
                .with_l2_kib(512))
            .pu(PuSpec::new(PuClass::LittleCpu, "Cortex-A510", 3, 2.0)
                .with_ipc(1.3)
                .with_simd_lanes(2)
                .with_arith_eff(0.28)
                .with_divergence_penalty(0.25)
                .with_irregular_penalty(0.60)
                .with_mem_bw_gbs(6.0)
                .with_dispatch_overhead_us(18.0)
                .with_l2_kib(256)
                .with_pinnable_cores(0))
            .pu(PuSpec::new(PuClass::Gpu, "Adreno 740", 12, 0.68)
                .with_backend(GpuBackend::Vulkan)
                .with_ipc(2.0)
                .with_simd_lanes(48)
                .with_arith_eff(0.38)
                .with_divergence_penalty(0.88)
                .with_irregular_penalty(0.80)
                .with_mem_bw_gbs(26.0)
                .with_dispatch_overhead_us(20.0)
                .with_sync_overhead_us(110.0)
                .with_l2_kib(2048))
            .dram_bw_gbs(28.0)
            .interference(InterferenceModel::calibrated(
                [
                    (PuClass::BigCpu, 1.33),
                    (PuClass::MediumCpu, 0.97),
                    (PuClass::LittleCpu, 0.62),
                    (PuClass::Gpu, 0.62),
                ],
                0.25,
            ))
            .build()
            .expect("oneplus 11 model is valid")
    }

    /// NVIDIA Jetson Orin Nano 8 GB — 6× Cortex-A78AE @ 1.7 GHz, Ampere GPU
    /// (1024 CUDA cores @ 0.625 GHz, CUDA backend).
    ///
    /// Homogeneous CPU complex: only two PU classes, so pipelines have at
    /// most two chunks (this is why the paper sees the smallest gains here).
    pub fn jetson_orin_nano() -> SocSpec {
        SocBuilder::new("Jetson Orin Nano")
            .pu(PuSpec::new(PuClass::BigCpu, "Cortex-A78AE", 6, 1.7)
                .with_ipc(2.6)
                .with_simd_lanes(4)
                .with_arith_eff(0.38)
                .with_divergence_penalty(0.15)
                .with_irregular_penalty(0.42)
                .with_mem_bw_gbs(34.0)
                .with_dispatch_overhead_us(10.0)
                .with_l2_kib(256))
            .pu(PuSpec::new(PuClass::Gpu, "Ampere iGPU", 8, 0.625)
                .with_backend(GpuBackend::Cuda)
                .with_ipc(2.0)
                .with_simd_lanes(128)
                .with_arith_eff(0.42)
                .with_divergence_penalty(0.55)
                .with_irregular_penalty(0.55)
                .with_mem_bw_gbs(45.0)
                .with_dispatch_overhead_us(6.0)
                .with_sync_overhead_us(9.0)
                .with_l2_kib(4096))
            .dram_bw_gbs(55.0)
            .interference(InterferenceModel::calibrated(
                [(PuClass::BigCpu, 1.36), (PuClass::Gpu, 1.13)],
                0.4,
            ))
            .build()
            .expect("jetson orin nano model is valid")
    }

    /// Jetson Orin Nano in its 7 W low-power mode: two CPU cores are shut
    /// off and frequencies are halved (4× A78AE @ 0.85 GHz; GPU clocked
    /// down ~35%).
    pub fn jetson_orin_nano_lp() -> SocSpec {
        SocBuilder::new("Jetson Orin Nano (LP)")
            .pu(PuSpec::new(PuClass::BigCpu, "Cortex-A78AE", 4, 0.85)
                .with_ipc(2.6)
                .with_simd_lanes(4)
                .with_arith_eff(0.38)
                .with_divergence_penalty(0.15)
                .with_irregular_penalty(0.42)
                .with_mem_bw_gbs(26.0)
                .with_dispatch_overhead_us(10.0)
                .with_l2_kib(256))
            .pu(PuSpec::new(PuClass::Gpu, "Ampere iGPU (LP)", 8, 0.42)
                .with_backend(GpuBackend::Cuda)
                .with_ipc(2.0)
                .with_simd_lanes(128)
                .with_arith_eff(0.42)
                .with_divergence_penalty(0.55)
                .with_irregular_penalty(0.55)
                .with_mem_bw_gbs(34.0)
                .with_dispatch_overhead_us(6.0)
                .with_sync_overhead_us(9.0)
                .with_l2_kib(4096))
            .dram_bw_gbs(42.0)
            .interference(InterferenceModel::calibrated(
                [(PuClass::BigCpu, 1.24), (PuClass::Gpu, 1.65)],
                0.4,
            ))
            .build()
            .expect("jetson orin nano lp model is valid")
    }

    /// STM32H745-class dual-core microcontroller — the MCU-class edge
    /// platform exercising the `no_std` runtime substrate (`bt-rt`).
    ///
    /// Mapping of the paper's SoC taxonomy onto an MCU:
    ///
    /// - **big** = Cortex-M7 @ 480 MHz: single-issue-dominant in-order
    ///   core with DSP/FPU dual-issue opportunities (`ipc` 1.6,
    ///   two-lane SIMD via the DSP extensions), fed by tightly-coupled
    ///   SRAM over a narrow AXI bus.
    /// - **little** = Cortex-M4 @ 240 MHz: the companion core, scalar
    ///   only and roughly 7× weaker — useful for light post-processing
    ///   stages, exactly the role little clusters play on phones.
    /// - **GPU slot** = the MDMA/GPDMA engine: an asynchronous engine
    ///   class with real burst bandwidth but almost no arithmetic
    ///   throughput (`arith_eff` 0.1), so only copy/acquisition-shaped
    ///   stages land on it. It has no GPGPU backend (`gpu_backend`
    ///   stays `None`): kernels price at their default efficiency.
    /// - **shared DRAM** = the flash/AXI backbone: at ~1 GB/s it is the
    ///   contended resource, playing the role DRAM bandwidth plays on
    ///   the phone SoCs (tiny SRAM vs slow flash).
    ///
    /// Interference is calibrated aggressively relative to the phones:
    /// on an MCU every bus master shares one AXI matrix, so co-running
    /// the M4 or the DMA engine visibly dilates M7 service times.
    pub fn mcu_m7() -> SocSpec {
        SocBuilder::new("STM32H745-class MCU")
            .pu(PuSpec::new(PuClass::BigCpu, "Cortex-M7", 1, 0.48)
                .with_ipc(1.6)
                .with_simd_lanes(2)
                .with_arith_eff(0.50)
                .with_divergence_penalty(0.05)
                .with_irregular_penalty(0.30)
                .with_mem_bw_gbs(0.64)
                .with_dispatch_overhead_us(2.0)
                .with_sync_overhead_us(1.0)
                .with_l2_kib(16))
            .pu(PuSpec::new(PuClass::LittleCpu, "Cortex-M4", 1, 0.24)
                .with_ipc(1.0)
                .with_simd_lanes(1)
                .with_arith_eff(0.45)
                .with_divergence_penalty(0.08)
                .with_irregular_penalty(0.35)
                .with_mem_bw_gbs(0.25)
                .with_dispatch_overhead_us(3.0)
                .with_sync_overhead_us(1.0)
                .with_l2_kib(0))
            .pu(PuSpec::new(PuClass::Gpu, "MDMA engine", 1, 0.24)
                .with_ipc(1.0)
                .with_simd_lanes(4)
                .with_arith_eff(0.10)
                .with_divergence_penalty(0.95)
                .with_irregular_penalty(0.90)
                .with_mem_bw_gbs(1.0)
                .with_dispatch_overhead_us(1.0)
                .with_sync_overhead_us(3.0)
                .with_l2_kib(0))
            .dram_bw_gbs(1.1)
            .interference(InterferenceModel::calibrated(
                [
                    (PuClass::BigCpu, 1.18),
                    (PuClass::LittleCpu, 1.25),
                    (PuClass::Gpu, 1.05),
                ],
                0.35,
            ))
            .build()
            .expect("mcu model is valid")
    }

    /// All four evaluation platforms, in the paper's order. (The MCU-class
    /// platform [`mcu_m7`] is an extension, not one of the paper's
    /// devices, so it is deliberately not part of this set.)
    pub fn all() -> Vec<SocSpec> {
        vec![
            pixel_7a(),
            oneplus_11(),
            jetson_orin_nano(),
            jetson_orin_nano_lp(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_empty_device() {
        assert!(matches!(
            SocBuilder::new("x").build(),
            Err(SocError::EmptyDevice)
        ));
    }

    #[test]
    fn builder_rejects_bad_bandwidth() {
        let r = SocBuilder::new("x")
            .pu(PuSpec::new(PuClass::BigCpu, "c", 1, 1.0))
            .dram_bw_gbs(0.0)
            .build();
        assert!(matches!(
            r,
            Err(SocError::InvalidSpec {
                param: "dram_bw_gbs",
                ..
            })
        ));
    }

    #[test]
    fn pixel_has_four_classes_all_schedulable() {
        let soc = devices::pixel_7a();
        assert_eq!(soc.classes().len(), 4);
        assert_eq!(soc.schedulable_classes().len(), 4);
        assert_eq!(soc.try_pu(PuClass::BigCpu).unwrap().cores(), 2);
    }

    #[test]
    fn oneplus_little_cluster_not_schedulable() {
        let soc = devices::oneplus_11();
        assert_eq!(soc.classes().len(), 4);
        let sched = soc.schedulable_classes();
        assert_eq!(sched.len(), 3);
        assert!(!sched.contains(&PuClass::LittleCpu));
    }

    #[test]
    fn jetson_has_two_classes() {
        for soc in [devices::jetson_orin_nano(), devices::jetson_orin_nano_lp()] {
            assert_eq!(soc.classes(), vec![PuClass::BigCpu, PuClass::Gpu]);
        }
    }

    #[test]
    fn lp_mode_is_slower_on_cpu() {
        let normal = devices::jetson_orin_nano();
        let lp = devices::jetson_orin_nano_lp();
        let n = normal.try_pu(PuClass::BigCpu).unwrap();
        let l = lp.try_pu(PuClass::BigCpu).unwrap();
        assert!(l.peak_gflops() < n.peak_gflops());
        assert!(l.cores() < n.cores());
    }

    #[test]
    fn missing_pu_error() {
        let soc = devices::jetson_orin_nano();
        assert_eq!(
            soc.try_pu(PuClass::LittleCpu),
            Err(SocError::MissingPu(PuClass::LittleCpu))
        );
        assert!(soc.pu(PuClass::MediumCpu).is_none());
    }
}
