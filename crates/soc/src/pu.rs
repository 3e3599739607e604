use serde::{Deserialize, Serialize};

use crate::SocError;

pub use bt_rt::PuClass;

/// The GPGPU programming backend an integrated GPU is driven through.
///
/// Kernel implementations differ per backend (the paper implements CUDA
/// kernels for Jetson and GLSL/Vulkan compute shaders for the Arm and
/// Qualcomm GPUs), and so does achievable efficiency: e.g. the CUDA radix
/// sort uses warp-synchronous primitives unavailable in portable Vulkan
/// shaders. [`crate::WorkProfile::with_backend_efficiency`] captures this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuBackend {
    /// NVIDIA CUDA (Jetson-class devices).
    Cuda,
    /// Vulkan compute / SPIR-V (mobile GPUs).
    Vulkan,
}

impl GpuBackend {
    /// Stable index in `0..2`.
    pub const fn index(self) -> usize {
        match self {
            GpuBackend::Cuda => 0,
            GpuBackend::Vulkan => 1,
        }
    }
}

/// Architectural specification of one PU cluster.
///
/// The fields feed the roofline cost model in [`crate::cost`]: peak
/// arithmetic throughput is derived from `cores × freq_ghz × ipc ×
/// simd_lanes × arith_eff`, memory behaviour from `mem_bw_gbs`, and
/// fixed costs from `dispatch_overhead_us`.
///
/// Construct with [`PuSpec::new`] and refine with the builder-style `with_*`
/// methods:
///
/// ```
/// use bt_soc::{PuClass, PuSpec};
/// let big = PuSpec::new(PuClass::BigCpu, "Cortex-X1", 2, 2.85)
///     .with_ipc(4.0)
///     .with_simd_lanes(4)
///     .with_mem_bw_gbs(18.0);
/// assert!(big.peak_gflops() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PuSpec {
    class: PuClass,
    name: String,
    cores: u32,
    freq_ghz: f64,
    ipc: f64,
    simd_lanes: u32,
    arith_eff: f64,
    divergence_penalty: f64,
    irregular_penalty: f64,
    mem_bw_gbs: f64,
    dispatch_overhead_us: f64,
    sync_overhead_us: f64,
    l2_kib: u32,
    pinnable_cores: u32,
    gpu_backend: Option<GpuBackend>,
}

impl PuSpec {
    /// Creates a specification for a cluster of `cores` cores of the given
    /// `class`, running at `freq_ghz` GHz. Remaining parameters take
    /// class-appropriate defaults; override them with the `with_*` methods.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `freq_ghz <= 0.0`.
    pub fn new(class: PuClass, name: impl Into<String>, cores: u32, freq_ghz: f64) -> PuSpec {
        assert!(cores > 0, "a PU cluster needs at least one core");
        assert!(freq_ghz > 0.0, "clock frequency must be positive");
        let (ipc, simd, arith_eff, div_pen, irr_pen, bw, overhead, sync, l2) = match class {
            PuClass::BigCpu => (3.0, 4, 0.35, 0.15, 0.45, 16.0, 12.0, 4.0, 512),
            PuClass::MediumCpu => (2.2, 4, 0.35, 0.18, 0.50, 12.0, 12.0, 4.0, 256),
            PuClass::LittleCpu => (1.1, 2, 0.30, 0.25, 0.60, 6.0, 15.0, 4.0, 128),
            PuClass::Gpu => (2.0, 16, 0.45, 0.85, 0.80, 22.0, 45.0, 60.0, 1024),
        };
        PuSpec {
            class,
            name: name.into(),
            cores,
            freq_ghz,
            ipc,
            simd_lanes: simd,
            arith_eff,
            divergence_penalty: div_pen,
            irregular_penalty: irr_pen,
            mem_bw_gbs: bw,
            dispatch_overhead_us: overhead,
            sync_overhead_us: sync,
            l2_kib: l2,
            pinnable_cores: if class.is_cpu() { cores } else { 0 },
            gpu_backend: None,
        }
    }

    /// Declares the GPGPU backend this GPU is programmed through.
    ///
    /// # Panics
    ///
    /// Panics if called on a CPU cluster.
    pub fn with_backend(mut self, backend: GpuBackend) -> PuSpec {
        assert!(!self.class.is_cpu(), "backends apply to GPUs only");
        self.gpu_backend = Some(backend);
        self
    }

    /// Sets sustained instructions per cycle per core.
    pub fn with_ipc(mut self, ipc: f64) -> PuSpec {
        assert!(ipc > 0.0);
        self.ipc = ipc;
        self
    }

    /// Sets the number of f32 SIMD/SIMT lanes per core (NEON width for CPUs,
    /// ALUs per shader core for GPUs).
    pub fn with_simd_lanes(mut self, lanes: u32) -> PuSpec {
        assert!(lanes > 0);
        self.simd_lanes = lanes;
        self
    }

    /// Sets the fraction of peak arithmetic throughput achievable by tuned
    /// kernels (captures instruction mix, pipeline stalls, compiler quality).
    pub fn with_arith_eff(mut self, eff: f64) -> PuSpec {
        assert!(eff > 0.0 && eff <= 1.0);
        self.arith_eff = eff;
        self
    }

    /// Sets the throughput fraction *lost* under fully divergent control
    /// flow (0 = immune, 1 = throughput collapses to a single lane).
    ///
    /// Mobile GPUs that execute warps in strict lockstep have values near
    /// 0.85–0.95; desktop-class GPUs with independent thread scheduling are
    /// lower; CPUs with branch prediction are near 0.1–0.25.
    pub fn with_divergence_penalty(mut self, p: f64) -> PuSpec {
        assert!((0.0..=1.0).contains(&p));
        self.divergence_penalty = p;
        self
    }

    /// Sets the bandwidth fraction lost under fully irregular (pointer
    /// chasing / non-coalesced) memory access.
    pub fn with_irregular_penalty(mut self, p: f64) -> PuSpec {
        assert!((0.0..=1.0).contains(&p));
        self.irregular_penalty = p;
        self
    }

    /// Sets the DRAM bandwidth (GB/s) achievable by this cluster alone.
    pub fn with_mem_bw_gbs(mut self, bw: f64) -> PuSpec {
        assert!(bw > 0.0);
        self.mem_bw_gbs = bw;
        self
    }

    /// Sets the fixed per-kernel dispatch overhead in microseconds (OpenMP
    /// fork for CPUs, asynchronous kernel submission for GPUs).
    pub fn with_dispatch_overhead_us(mut self, us: f64) -> PuSpec {
        assert!(us >= 0.0);
        self.dispatch_overhead_us = us;
        self
    }

    /// Sets the completion-synchronization cost in microseconds: a Vulkan
    /// fence wait / `cudaStreamSynchronize` on GPUs, the implicit OpenMP
    /// join on CPUs.
    ///
    /// This cost is what BT-Implementer amortizes (§3.4): kernels within a
    /// chunk are submitted asynchronously and synchronized *once per chunk
    /// per task*, while an accelerator-oriented baseline synchronizes after
    /// every stage. On mobile Vulkan stacks the fence round-trip is large,
    /// which is a major source of the paper's pipeline speedups on phones.
    pub fn with_sync_overhead_us(mut self, us: f64) -> PuSpec {
        assert!(us >= 0.0);
        self.sync_overhead_us = us;
        self
    }

    /// Sets the L2 cache size in KiB.
    pub(crate) fn with_l2_kib(mut self, kib: u32) -> PuSpec {
        self.l2_kib = kib;
        self
    }

    /// Sets how many cores of this cluster the OS allows to be pinned via
    /// `sched_setaffinity` (the OnePlus 11 exposes only 5 of its 8 cores,
    /// see §5.1 of the paper). A cluster with zero pinnable cores can be
    /// profiled but is excluded from pipeline schedules.
    pub(crate) fn with_pinnable_cores(mut self, n: u32) -> PuSpec {
        assert!(n <= self.cores);
        self.pinnable_cores = n;
        self
    }

    /// The PU class of this cluster.
    pub fn class(&self) -> PuClass {
        self.class
    }

    /// Marketing/architecture name, e.g. `"Cortex-X1"` or `"Mali-G710 MP7"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores (CPU) or shader cores/SMs (GPU) in the cluster.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Clock frequency in GHz.
    pub(crate) fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// Sustained instructions per cycle per core.
    pub(crate) fn ipc(&self) -> f64 {
        self.ipc
    }

    /// f32 lanes per core.
    pub(crate) fn simd_lanes(&self) -> u32 {
        self.simd_lanes
    }

    /// Achievable fraction of peak arithmetic throughput.
    pub(crate) fn arith_eff(&self) -> f64 {
        self.arith_eff
    }

    /// Throughput fraction lost under fully divergent control flow.
    pub(crate) fn divergence_penalty(&self) -> f64 {
        self.divergence_penalty
    }

    /// Bandwidth fraction lost under fully irregular access.
    pub(crate) fn irregular_penalty(&self) -> f64 {
        self.irregular_penalty
    }

    /// DRAM bandwidth (GB/s) achievable by this cluster alone.
    pub(crate) fn mem_bw_gbs(&self) -> f64 {
        self.mem_bw_gbs
    }

    /// Fixed per-kernel dispatch overhead in microseconds.
    pub(crate) fn dispatch_overhead_us(&self) -> f64 {
        self.dispatch_overhead_us
    }

    /// Completion-synchronization cost in microseconds (see
    /// [`PuSpec::with_sync_overhead_us`]).
    pub fn sync_overhead_us(&self) -> f64 {
        self.sync_overhead_us
    }

    /// Cores the OS allows user threads to be pinned to.
    pub(crate) fn pinnable_cores(&self) -> u32 {
        self.pinnable_cores
    }

    /// The GPGPU backend, if this is a GPU with one declared.
    pub(crate) fn gpu_backend(&self) -> Option<GpuBackend> {
        self.gpu_backend
    }

    /// Whether this cluster can host a pipeline chunk (requires at least one
    /// pinnable core for CPUs; GPUs are always schedulable).
    pub fn schedulable(&self) -> bool {
        !self.class.is_cpu() || self.pinnable_cores > 0
    }

    /// Peak single-precision throughput in GFLOP/s, before efficiency
    /// derating: `cores × freq × ipc × simd_lanes`.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.freq_ghz * self.ipc * self.simd_lanes as f64
    }

    /// Validates that all numeric parameters are physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] naming the first non-positive
    /// parameter.
    pub fn validate(&self) -> Result<(), SocError> {
        let checks: [(&'static str, f64); 4] = [
            ("freq_ghz", self.freq_ghz),
            ("ipc", self.ipc),
            ("arith_eff", self.arith_eff),
            ("mem_bw_gbs", self.mem_bw_gbs),
        ];
        for (param, value) in checks {
            if value <= 0.0 {
                return Err(SocError::InvalidSpec { param, value });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_and_builders() {
        let spec = PuSpec::new(PuClass::BigCpu, "X1", 2, 2.85)
            .with_ipc(4.0)
            .with_simd_lanes(4)
            .with_arith_eff(0.4);
        assert_eq!(spec.cores(), 2);
        assert!((spec.peak_gflops() - 2.0 * 2.85 * 4.0 * 4.0).abs() < 1e-9);
        assert_eq!(spec.arith_eff(), 0.4);
        assert!(spec.schedulable());
        spec.validate().unwrap();
    }

    #[test]
    fn gpu_not_pinnable_but_schedulable() {
        let gpu = PuSpec::new(PuClass::Gpu, "Mali", 7, 0.85);
        assert_eq!(gpu.pinnable_cores(), 0);
        assert!(gpu.schedulable());
    }

    #[test]
    fn cpu_without_pinnable_cores_is_not_schedulable() {
        let little = PuSpec::new(PuClass::LittleCpu, "A510", 3, 2.0).with_pinnable_cores(0);
        assert!(!little.schedulable());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = PuSpec::new(PuClass::BigCpu, "bad", 0, 1.0);
    }

    #[test]
    fn validate_rejects_nonpositive() {
        let mut spec = PuSpec::new(PuClass::BigCpu, "X1", 2, 2.85);
        spec.freq_ghz = -1.0;
        assert!(matches!(
            spec.validate(),
            Err(SocError::InvalidSpec {
                param: "freq_ghz",
                ..
            })
        ));
    }
}
