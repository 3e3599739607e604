//! The paper's published numbers — the only place in `bt-bench` they are
//! written down. Per-cell targets are keyed by device name, app label and
//! [`PuClass`], never by position in `devices::all()` / `paper_apps()`, so
//! reordering either cannot silently pair Pixel rows with OnePlus targets.

use bt_soc::PuClass::{self, BigCpu, Gpu, LittleCpu, MediumCpu};

pub(crate) const PIXEL: &str = "Google Pixel 7a";
pub(crate) const ONEPLUS: &str = "OnePlus 11";
pub(crate) const JETSON: &str = "Jetson Orin Nano";
pub(crate) const JETSON_LP: &str = "Jetson Orin Nano (LP)";

/// Table 3: (device, app) → homogeneous (CPU, GPU) latency in ms.
const TABLE3: [(&str, &str, (f64, f64)); 12] = [
    (PIXEL, "CIFAR-D", (155.63, 1.89)),
    (PIXEL, "CIFAR-S", (8.51, 8.35)),
    (PIXEL, "Tree", (8.40, 34.73)),
    (ONEPLUS, "CIFAR-D", (113.88, 1.89)),
    (ONEPLUS, "CIFAR-S", (7.52, 3.95)),
    (ONEPLUS, "Tree", (5.99, 22.26)),
    (JETSON, "CIFAR-D", (19.90, 1.04)),
    (JETSON, "CIFAR-S", (4.81, 1.14)),
    (JETSON, "Tree", (3.29, 1.08)),
    (JETSON_LP, "CIFAR-D", (11.36, 1.08)),
    (JETSON_LP, "CIFAR-S", (4.58, 1.78)),
    (JETSON_LP, "Tree", (4.26, 0.74)),
];

/// Fig. 7: (device, PU class) → interference-heavy / isolated ratio.
const FIG7: [(&str, PuClass, f64); 12] = [
    (PIXEL, BigCpu, 1.40),
    (PIXEL, MediumCpu, 1.20),
    (PIXEL, LittleCpu, 1.39),
    (PIXEL, Gpu, 0.86),
    (ONEPLUS, BigCpu, 1.38),
    (ONEPLUS, MediumCpu, 1.00),
    (ONEPLUS, LittleCpu, 0.63),
    (ONEPLUS, Gpu, 0.64),
    (JETSON, BigCpu, 1.43),
    (JETSON, Gpu, 1.19),
    (JETSON_LP, BigCpu, 1.29),
    (JETSON_LP, Gpu, 1.74),
];

/// Table 3's (CPU, GPU) ms for one cell; `paper::tests` walks every cell
/// the experiments visit, so a miss here is a bug in this file.
pub(crate) fn table3(device: &str, app: &str) -> (f64, f64) {
    let hit = TABLE3.iter().find(|(d, a, _)| (*d, *a) == (device, app));
    hit.unwrap_or_else(|| panic!("paper.rs has no Table 3 entry for {device} / {app}"))
        .2
}

/// Fig. 7's ratio for one PU; covered like [`table3`].
pub(crate) fn fig7(device: &str, class: PuClass) -> f64 {
    let hit = FIG7.iter().find(|(d, c, _)| *d == device && *c == class);
    hit.unwrap_or_else(|| panic!("paper.rs has no Fig. 7 entry for {device} / {class}"))
        .2
}

/// Fig. 4: the maximum speedup and the (device, app) cell it occurs in.
pub(crate) const FIG4_MAX: (f64, &str, &str) = (8.40, PIXEL, "Tree");
/// Fig. 4: overall geomean — §5.1 and the abstract state different ones.
pub(crate) const FIG4_GEOMEAN: (f64, f64) = (2.17, 2.72);
/// Fig. 4: geomean speedup over the CPU-only baseline.
pub(crate) const FIG4_GEOMEAN_VS_CPU: f64 = 11.23;
/// Fig. 4: per-device geomeans.
pub(crate) const FIG4_DEVICE_GEOMEAN: [(&str, f64); 4] = [
    (PIXEL, 5.10),
    (ONEPLUS, 3.55),
    (JETSON, 1.09),
    (JETSON_LP, 1.15),
];

/// §1: isolated-model (predicted ms, measured ms, error %) on sparse/Pixel.
pub(crate) const MOTIVATION: (f64, f64, f64) = (4.95, 7.77, 57.0);

/// Fig. 6(a): mean and maximum correlation.
pub(crate) const FIG6_A: (f64, f64) = (0.92, 0.99);
/// Fig. 6(b): mean correlation.
pub(crate) const FIG6_B_MEAN: f64 = 0.85;
/// Fig. 6(b): the range the Jetson's sparse/octree cells fall to.
pub(crate) const FIG6_B_JETSON_IRREGULAR: (f64, f64) = (0.65, 0.73);

/// Table 4: autotuning gain over the predicted best, and the (1-based)
/// index of the measured best.
pub(crate) const TABLE4_GAIN: (f64, usize) = (1.35, 4);
/// Table 4: measured ms of the predicted best and of the measured best.
pub(crate) const TABLE4_MS: (f64, f64) = (5.34, 3.96);
/// §5.2: device seconds one autotuning phase costs (20 candidates × 10 s).
pub(crate) const AUTOTUNE_COST_S: f64 = 200.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_app_labels, paper_devices};

    #[test]
    fn every_cell_the_experiments_visit_has_a_target() {
        let devices = paper_devices();
        for soc in &devices {
            for app in paper_app_labels() {
                let (cpu, gpu) = table3(soc.name(), app);
                assert!(cpu > 0.0 && gpu > 0.0);
            }
            for class in soc.classes() {
                assert!(fig7(soc.name(), class) > 0.0);
            }
            assert!(FIG4_DEVICE_GEOMEAN.iter().any(|(d, _)| *d == soc.name()));
        }
        // ... and nothing is keyed by a name no device carries.
        let known = |d: &str| devices.iter().any(|s| s.name() == d);
        assert!(TABLE3.iter().all(|(d, _, _)| known(d)));
        assert!(FIG7.iter().all(|(d, _, _)| known(d)));
        assert!(known(FIG4_MAX.1) && paper_app_labels().contains(&FIG4_MAX.2));
    }
}
