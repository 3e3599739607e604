//! Roofline-style latency model mapping a [`WorkProfile`] onto a PU.
//!
//! The model combines four effects, each anchored to an architectural
//! parameter of the [`PuSpec`]:
//!
//! 1. **Compute roofline** — parallel arithmetic runs at
//!    `cores × freq × ipc × effective_lanes × arith_eff`, where divergent
//!    control flow collapses SIMD/SIMT lanes according to the PU's
//!    divergence penalty (severe on lockstep mobile GPUs, mild on CPUs).
//! 2. **Memory roofline** — parallel memory traffic runs at the PU's
//!    achievable DRAM bandwidth, derated by access irregularity, and dilated
//!    by DRAM contention with concurrently active PUs.
//! 3. **Amdahl serial fraction** — the serial residue executes on a single
//!    scalar lane.
//! 4. **Dispatch overhead** — a fixed cost per kernel launch (OpenMP
//!    fork/join on CPUs; stream/queue submission on GPUs), which is why
//!    offloading many tiny stages to a mobile GPU loses even when the GPU's
//!    throughput is higher.
//!
//! On top of the rooflines sits the device's [`crate::InterferenceModel`]: a
//! DVFS/firmware multiplier whenever any co-runner is active, and dynamic
//! bandwidth sharing (§5.3 of the paper).

use crate::{ActiveKernel, Micros, PuSpec, SocSpec, WorkProfile};

/// The concurrency context a kernel executes under.
///
/// `isolated()` models the paper's isolated profiling mode; a non-empty
/// co-runner list models interference-heavy profiling or actual pipelined
/// execution.
#[derive(Debug, Clone, Default)]
pub struct LoadContext {
    co_runners: Vec<ActiveKernel>,
}

impl LoadContext {
    /// No other PU is active (isolated profiling mode, §3.2).
    pub fn isolated() -> LoadContext {
        LoadContext {
            co_runners: Vec::new(),
        }
    }

    /// The given kernels are active on other PUs.
    pub fn with_co_runners(co_runners: Vec<ActiveKernel>) -> LoadContext {
        LoadContext { co_runners }
    }

    /// The co-running kernels.
    pub(crate) fn co_runners(&self) -> &[ActiveKernel] {
        &self.co_runners
    }
}

/// Total achieved-efficiency multiplier: the per-class calibration times
/// the per-backend kernel quality (for GPUs with a declared backend).
fn achieved_eff(work: &WorkProfile, pu: &PuSpec) -> f64 {
    let backend = pu
        .gpu_backend()
        .map(|b| work.backend_efficiency(b))
        .unwrap_or(1.0);
    work.efficiency(pu.class()) * backend
}

/// Effective SIMD/SIMT lane count for `work` on `pu`: divergence collapses
/// lanes in proportion to the PU's divergence penalty, never below 1.
fn effective_lanes(work: &WorkProfile, pu: &PuSpec) -> f64 {
    let lanes = pu.simd_lanes() as f64;
    (lanes * (1.0 - pu.divergence_penalty() * work.divergence())).max(1.0)
}

/// Parallel arithmetic throughput in FLOP/µs for `work` on `pu`.
fn compute_throughput(work: &WorkProfile, pu: &PuSpec) -> f64 {
    let gflops = pu.cores() as f64
        * pu.freq_ghz()
        * pu.ipc()
        * effective_lanes(work, pu)
        * pu.arith_eff()
        * achieved_eff(work, pu);
    gflops * 1e3 // GFLOP/s → FLOP/µs
}

/// Achievable memory bandwidth in bytes/µs for `work` on `pu`, before DRAM
/// contention: the PU's solo bandwidth derated by access irregularity.
fn memory_throughput(work: &WorkProfile, pu: &PuSpec) -> f64 {
    let gbs = pu.mem_bw_gbs()
        * (1.0 - pu.irregular_penalty() * work.irregularity())
        * achieved_eff(work, pu);
    (gbs * 1e3).max(1e-9) // GB/s → bytes/µs
}

/// DRAM bandwidth demand of `work` running on `pu`, in GB/s.
///
/// Used to describe this kernel as an [`ActiveKernel`] co-runner: a fully
/// memory-bound kernel demands its whole achievable bandwidth; a
/// compute-bound kernel only the fraction of time it spends in its memory
/// phase.
pub fn bw_demand(work: &WorkProfile, pu: &PuSpec) -> f64 {
    let t_comp = work.flops() / compute_throughput(work, pu);
    let t_mem = work.bytes() / memory_throughput(work, pu);
    let total = t_comp + t_mem;
    if total <= 0.0 {
        return 0.0;
    }
    let mem_fraction = t_mem / total.max(1e-12);
    memory_throughput(work, pu) / 1e3 * mem_fraction
}

/// Latency of one execution of `work` on `pu` of `soc` under `ctx`.
///
/// This is the central primitive of the substrate: the profiler, the
/// discrete-event simulator, and the baselines all call it. Deterministic —
/// measurement noise is applied by callers via [`crate::NoiseModel`].
///
/// ```
/// use bt_soc::{devices, PuClass, WorkProfile, cost::{latency, LoadContext}};
/// let soc = devices::jetson_orin_nano();
/// let w = WorkProfile::new(50.0e6, 8.0e6);
/// let cpu = latency(&w, soc.pu(PuClass::BigCpu).unwrap(), &soc, &LoadContext::isolated());
/// let gpu = latency(&w, soc.pu(PuClass::Gpu).unwrap(), &soc, &LoadContext::isolated());
/// // dense, regular work favours the Ampere GPU
/// assert!(gpu < cpu);
/// ```
pub fn latency(work: &WorkProfile, pu: &PuSpec, soc: &SocSpec, ctx: &LoadContext) -> Micros {
    latency_under(work, pu, soc, ctx.co_runners())
}

/// [`latency`] against a borrowed co-runner slice instead of a
/// [`LoadContext`] — the allocation-free form hot loops (the discrete-event
/// simulator's per-dispatch service computation) call with a reused scratch
/// buffer. Bit-identical to [`latency`] with the same co-runners.
pub(crate) fn latency_under(
    work: &WorkProfile,
    pu: &PuSpec,
    soc: &SocSpec,
    co_runners: &[ActiveKernel],
) -> Micros {
    let pf = work.parallel_fraction();

    // Parallel phase: roofline of compute and memory.
    let t_comp = work.flops() * pf / compute_throughput(work, pu);
    let mut t_mem = work.bytes() * pf / memory_throughput(work, pu);

    // DRAM contention dilates the memory phase.
    let dilation =
        soc.interference()
            .memory_dilation(bw_demand(work, pu), co_runners, soc.dram_bw_gbs());
    t_mem *= dilation;

    let t_parallel = t_comp.max(t_mem);

    // Serial residue on one scalar lane.
    let scalar_thr = pu.freq_ghz() * pu.ipc() * pu.arith_eff() * 1e3;
    let t_serial = work.flops() * (1.0 - pf) / scalar_thr;

    // DVFS / firmware response when any co-runner is active.
    let dvfs = if co_runners.is_empty() {
        1.0
    } else {
        soc.interference().dvfs_multiplier(pu.class())
    };

    let t_dispatch = work.launches() as f64 * pu.dispatch_overhead_us();
    Micros::new((t_parallel + t_serial) * dvfs + t_dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{devices, InterferenceModel, PuClass, SocBuilder};

    fn test_soc(contention: f64, dvfs: &[(PuClass, f64)]) -> SocSpec {
        let mut pairs = [(PuClass::BigCpu, 1.0); 4];
        for (i, &(c, m)) in dvfs.iter().enumerate() {
            pairs[i] = (c, m);
        }
        let model = match dvfs.len() {
            0 => InterferenceModel::calibrated::<0>([], contention),
            1 => InterferenceModel::calibrated([pairs[0]], contention),
            2 => InterferenceModel::calibrated([pairs[0], pairs[1]], contention),
            _ => panic!("test helper supports up to 2 entries"),
        };
        SocBuilder::new("test")
            .pu(PuSpec::new(PuClass::BigCpu, "big", 2, 2.0).with_mem_bw_gbs(10.0))
            .pu(PuSpec::new(PuClass::Gpu, "gpu", 8, 1.0).with_mem_bw_gbs(15.0))
            .dram_bw_gbs(16.0)
            .interference(model)
            .build()
            .unwrap()
    }

    #[test]
    fn latency_is_positive_and_finite() {
        let soc = devices::pixel_7a();
        let w = WorkProfile::new(1e6, 1e5);
        for (_, pu) in soc.pus() {
            let t = latency(&w, pu, &soc, &LoadContext::isolated());
            assert!(t.as_f64() > 0.0 && t.as_f64().is_finite());
        }
    }

    #[test]
    fn more_flops_takes_longer() {
        let soc = test_soc(0.0, &[]);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let a = latency(
            &WorkProfile::new(1e6, 1e4),
            pu,
            &soc,
            &LoadContext::isolated(),
        );
        let b = latency(
            &WorkProfile::new(1e8, 1e4),
            pu,
            &soc,
            &LoadContext::isolated(),
        );
        assert!(b > a);
    }

    #[test]
    fn divergence_hurts_gpu_more_than_cpu() {
        let soc = devices::pixel_7a();
        let regular = WorkProfile::new(5e7, 1e6);
        let divergent = WorkProfile::new(5e7, 1e6).with_divergence(1.0);
        let cpu = soc.pu(PuClass::BigCpu).unwrap();
        let gpu = soc.pu(PuClass::Gpu).unwrap();
        let ctx = LoadContext::isolated();
        let cpu_ratio = latency(&divergent, cpu, &soc, &ctx) / latency(&regular, cpu, &soc, &ctx);
        let gpu_ratio = latency(&divergent, gpu, &soc, &ctx) / latency(&regular, gpu, &soc, &ctx);
        assert!(
            gpu_ratio > 2.0 * cpu_ratio,
            "gpu {gpu_ratio} vs cpu {cpu_ratio}"
        );
    }

    #[test]
    fn launch_overhead_dominates_tiny_gpu_kernels() {
        let soc = devices::pixel_7a();
        let tiny = WorkProfile::new(1e3, 1e3).with_launches(4);
        let gpu = soc.pu(PuClass::Gpu).unwrap();
        let t = latency(&tiny, gpu, &soc, &LoadContext::isolated());
        // 4 launches at 25 µs each dwarf the sub-µs compute.
        assert!(t.as_f64() > 4.0 * 20.0);
    }

    #[test]
    fn dvfs_multiplier_applies_only_under_contention() {
        let soc = test_soc(0.0, &[(PuClass::BigCpu, 1.5)]);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let w = WorkProfile::new(1e7, 1e3); // compute-bound: no bw effect
        let iso = latency(&w, pu, &soc, &LoadContext::isolated());
        let ctx = LoadContext::with_co_runners(vec![ActiveKernel::new(PuClass::Gpu, 0.0)]);
        let heavy = latency(&w, pu, &soc, &ctx);
        let ratio = heavy / iso;
        assert!(ratio > 1.3 && ratio < 1.55, "ratio was {ratio}");
    }

    #[test]
    fn gpu_boost_speeds_up_under_load() {
        let soc = test_soc(0.0, &[(PuClass::Gpu, 0.7)]);
        let pu = soc.pu(PuClass::Gpu).unwrap();
        let w = WorkProfile::new(1e8, 1e3);
        let iso = latency(&w, pu, &soc, &LoadContext::isolated());
        let ctx = LoadContext::with_co_runners(vec![ActiveKernel::new(PuClass::BigCpu, 0.0)]);
        let heavy = latency(&w, pu, &soc, &ctx);
        assert!(heavy < iso);
    }

    #[test]
    fn bandwidth_contention_slows_memory_bound_work() {
        let soc = test_soc(1.0, &[]);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let membound = WorkProfile::new(1e3, 5e7);
        let iso = latency(&membound, pu, &soc, &LoadContext::isolated());
        // A co-runner demanding the full DRAM bandwidth.
        let ctx = LoadContext::with_co_runners(vec![ActiveKernel::new(PuClass::Gpu, 16.0)]);
        let heavy = latency(&membound, pu, &soc, &ctx);
        assert!(heavy.as_f64() > 1.2 * iso.as_f64());
    }

    #[test]
    fn compute_bound_work_is_insensitive_to_bandwidth_contention() {
        let soc = test_soc(1.0, &[]);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let compbound = WorkProfile::new(1e8, 1e3);
        let iso = latency(&compbound, pu, &soc, &LoadContext::isolated());
        let ctx = LoadContext::with_co_runners(vec![ActiveKernel::new(PuClass::Gpu, 16.0)]);
        let heavy = latency(&compbound, pu, &soc, &ctx);
        let ratio = heavy / iso;
        assert!(ratio < 1.02, "ratio was {ratio}");
    }

    #[test]
    fn bw_demand_tracks_memory_boundedness() {
        let soc = test_soc(0.0, &[]);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let membound = bw_demand(&WorkProfile::new(1e3, 1e8), pu);
        let compbound = bw_demand(&WorkProfile::new(1e9, 1e3), pu);
        assert!(membound > 5.0, "memory-bound demand was {membound} GB/s");
        assert!(compbound < 0.5, "compute-bound demand was {compbound} GB/s");
    }

    #[test]
    fn serial_fraction_penalizes_gpu() {
        let soc = devices::jetson_orin_nano();
        let gpu = soc.pu(PuClass::Gpu).unwrap();
        let par = WorkProfile::new(5e7, 1e5).with_parallel_fraction(1.0);
        let half = WorkProfile::new(5e7, 1e5).with_parallel_fraction(0.5);
        let ctx = LoadContext::isolated();
        let ratio = latency(&half, gpu, &soc, &ctx) / latency(&par, gpu, &soc, &ctx);
        assert!(
            ratio > 5.0,
            "serial residue should dominate on GPU, ratio {ratio}"
        );
    }

    #[test]
    fn efficiency_override_scales_latency() {
        let soc = test_soc(0.0, &[]);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let base = WorkProfile::new(1e8, 1e3).with_parallel_fraction(1.0);
        let slow = base.clone().with_efficiency(PuClass::BigCpu, 0.5);
        let ctx = LoadContext::isolated();
        let r = latency(&slow, pu, &soc, &ctx) / latency(&base, pu, &soc, &ctx);
        assert!((r - 2.0).abs() < 0.1, "ratio was {r}");
    }
}
