//! The paper's homogeneous baselines (§5.1): the whole application on one
//! PU class — big-CPU DOALL parallelism or full GPU offload with per-stage
//! synchronization on the simulator, one-tier execution on the host. The
//! backend decides which classes constitute meaningful baselines.

use bt_soc::parallel::fan_out;
use bt_soc::{Micros, PuClass};
use serde::{Deserialize, Serialize};

use crate::backend::ExecutionBackend;
use crate::BtError;

/// One homogeneous baseline: the class and its measured per-task latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// The PU class hosting the whole application.
    pub class: PuClass,
    /// Measured per-task latency.
    pub latency: Micros,
}

/// Measured homogeneous baselines for one (backend, application) pair —
/// one row of the paper's Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baselines {
    entries: Vec<BaselineEntry>,
}

impl Baselines {
    /// Builds from explicit entries (normally produced by
    /// [`measure_baselines`]).
    pub fn new(entries: Vec<BaselineEntry>) -> Baselines {
        Baselines { entries }
    }

    /// All entries, in the backend's baseline-class order.
    pub fn entries(&self) -> &[BaselineEntry] {
        &self.entries
    }

    /// The fastest baseline latency — the reference the paper's speedups
    /// use. `None` if no baseline was measured.
    pub fn best(&self) -> Option<Micros> {
        self.entries.iter().map(|e| e.latency).reduce(Micros::min)
    }

    /// Which class wins, if any baseline was measured.
    pub fn winner(&self) -> Option<PuClass> {
        self.entries
            .iter()
            .min_by(|a, b| a.latency.partial_cmp(&b.latency).expect("finite latencies"))
            .map(|e| e.class)
    }

    /// The measured latency of `class`'s baseline, if it was measured.
    pub fn latency_of(&self, class: PuClass) -> Option<Micros> {
        self.entries
            .iter()
            .find(|e| e.class == class)
            .map(|e| e.latency)
    }

    /// The CPU-only (big cores) baseline, if measured.
    pub fn cpu(&self) -> Option<Micros> {
        self.latency_of(PuClass::BigCpu)
    }

    /// The GPU-only baseline, if measured.
    pub fn gpu(&self) -> Option<Micros> {
        self.latency_of(PuClass::Gpu)
    }
}

/// Measures every homogeneous baseline the backend declares meaningful
/// (Fig. 2, step 5's comparison set).
///
/// On the simulator that is the paper's pair — big-CPU only ("they
/// consistently deliver the best performance; mixing big and little cores
/// led to degraded performance due to load imbalance") and GPU-only; on
/// the host, every configured tier.
///
/// When the backend's
/// [`parallel_measure_hint`](ExecutionBackend::parallel_measure_hint) is
/// set, the baseline classes are measured concurrently and merged in class
/// order — byte-identical to the serial sweep.
///
/// # Errors
///
/// Propagates backend errors (e.g. a device without a GPU).
pub fn measure_baselines<B: ExecutionBackend>(backend: &B) -> Result<Baselines, BtError> {
    let classes = backend.baseline_classes();
    let runs = fan_out(classes.len(), backend.parallel_measure_hint(), |i| {
        backend.measure_baseline(classes[i])
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let entries = classes
        .into_iter()
        .zip(runs)
        .map(|(class, m)| BaselineEntry {
            class,
            latency: m.latency,
        })
        .collect();
    Ok(Baselines { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use bt_kernels::apps;
    use bt_soc::devices;
    use bt_soc::RunConfig;

    fn noiseless(soc: bt_soc::SocSpec, app: bt_kernels::AppModel) -> SimBackend {
        SimBackend::new(soc, app).with_run(RunConfig {
            noise_sigma: 0.0,
            ..RunConfig::default()
        })
    }

    #[test]
    fn gpu_wins_dense_cpu_wins_octree_on_pixel() {
        let dense = apps::alexnet_dense_app(apps::AlexNetConfig::default()).model();
        let octree = apps::octree_app(apps::OctreeConfig::default()).model();
        let d = measure_baselines(&noiseless(devices::pixel_7a(), dense)).unwrap();
        let o = measure_baselines(&noiseless(devices::pixel_7a(), octree)).unwrap();
        assert_eq!(d.winner(), Some(PuClass::Gpu), "Table 3: GPU wins dense");
        assert_eq!(
            o.winner(),
            Some(PuClass::BigCpu),
            "Table 3: CPU wins octree on phones"
        );
        assert_eq!(d.best(), d.gpu());
        assert_eq!(o.best(), o.cpu());
        assert_eq!(d.entries().len(), 2);
    }

    #[test]
    fn gpu_wins_octree_on_jetson() {
        let octree = apps::octree_app(apps::OctreeConfig::default()).model();
        let o = measure_baselines(&noiseless(devices::jetson_orin_nano(), octree)).unwrap();
        assert_eq!(
            o.winner(),
            Some(PuClass::Gpu),
            "Table 3: Ampere wins octree"
        );
    }

    #[test]
    fn baselines_are_deterministic_without_noise() {
        let app = apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model();
        let backend = noiseless(devices::oneplus_11(), app);
        let a = measure_baselines(&backend).unwrap();
        let b = measure_baselines(&backend).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_baselines_degrade_to_none() {
        let b = Baselines::new(Vec::new());
        assert_eq!(b.best(), None);
        assert_eq!(b.winner(), None);
        assert_eq!(b.cpu(), None);
    }
}
