//! BT-Profiler (§3.2 of the paper): black-box, per-(stage, PU) latency
//! measurement on the simulated device, in isolated or interference-heavy
//! mode.
//!
//! In interference-heavy mode, while stage `s` is measured on PU `p`, every
//! other PU concurrently executes the same computation — exactly the
//! paper's controlled-background-load protocol. Each measurement is
//! repeated (30× by default) and the mean recorded.

use bt_kernels::AppModel;
use bt_soc::cost::{self, LoadContext};
use bt_soc::parallel::{amortises_spawn, fan_out};
use bt_soc::{seed_from_labels, ActiveKernel, Micros, NoiseModel, PuClass, SocSpec, WorkProfile};

use crate::{ProfileMode, ProfilingTable};

/// Configuration of a profiling run.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Repetitions per (stage, PU) cell; the paper uses 30.
    pub reps: u32,
    /// Log-scale sigma of simulated measurement noise.
    pub noise_sigma: f64,
    /// Base seed; each cell derives its own reproducible noise stream.
    pub seed: u64,
    /// Permit filling table rows (stages) concurrently. Safe on the
    /// simulated substrate because every cell seeds its own noise stream
    /// from its labels — rows are independent, and the merge preserves
    /// stage order, so the table is byte-identical to a serial fill.
    /// Permission only: rows spread when one row (`classes × reps` noise
    /// draws) [amortises a spawn](bt_soc::parallel::amortises_spawn),
    /// which at the paper's 30 reps it does not.
    pub parallel: bool,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig {
            reps: 30,
            noise_sigma: 0.02,
            seed: 0,
            parallel: true,
        }
    }
}

/// Estimated host microseconds of one table row: `classes × reps`
/// repetitions (noise draw + Welford step) at 0.02 µs each —
/// `profiler.table_us` ≈ 17 µs serial for 7 stages × 4 classes × 30 reps.
fn row_us(classes: usize, reps: u32) -> f64 {
    0.02 * classes as f64 * f64::from(reps)
}

/// The load context a cell is measured under: isolated, or with every other
/// PU running the same work (§3.2).
fn cell_context(
    soc: &SocSpec,
    work: &WorkProfile,
    class: PuClass,
    mode: ProfileMode,
) -> LoadContext {
    match mode {
        ProfileMode::Isolated => LoadContext::isolated(),
        ProfileMode::InterferenceHeavy => {
            let co: Vec<ActiveKernel> = soc
                .pus()
                .filter(|(c, _)| *c != class)
                .map(|(c, spec)| ActiveKernel::new(c, cost::bw_demand(work, spec)))
                .collect();
            LoadContext::with_co_runners(co)
        }
    }
}

/// Profiles every stage of `app` on every PU class of `soc` under `mode`,
/// producing the paper's 2-D profiling table.
///
/// ```
/// use bt_profiler::{profile, ProfileMode, ProfilerConfig};
/// use bt_kernels::apps;
/// use bt_soc::devices;
///
/// let app = apps::octree_app(apps::OctreeConfig::default()).model();
/// let soc = devices::pixel_7a();
/// let table = profile(&soc, &app, ProfileMode::InterferenceHeavy, &ProfilerConfig::default());
/// assert_eq!(table.stages().len(), 7);
/// assert_eq!(table.classes().len(), 4);
/// ```
pub fn profile(
    soc: &SocSpec,
    app: &AppModel,
    mode: ProfileMode,
    cfg: &ProfilerConfig,
) -> ProfilingTable {
    let classes = soc.classes();
    let reps = cfg.reps.max(1);
    // Rows are independent (per-cell seeded noise), so rows long enough to
    // pay for a worker fill across threads and merge in stage order.
    let rows: Vec<(Vec<Micros>, Vec<Micros>)> = fan_out(
        app.stage_count(),
        cfg.parallel && amortises_spawn(row_us(classes.len(), reps)),
        |stage_idx| {
            let stage = &app.stages[stage_idx];
            let mut row = Vec::with_capacity(classes.len());
            let mut srow = Vec::with_capacity(classes.len());
            for &class in &classes {
                let pu = soc.pu(class).expect("classes() only returns present PUs");
                let ctx = cell_context(soc, &stage.work, class, mode);
                let seed = seed_from_labels(
                    &[
                        soc.name(),
                        &app.name,
                        &stage.name,
                        class.label(),
                        mode.label(),
                    ],
                    cfg.seed,
                );
                let mut noise = NoiseModel::new(cfg.noise_sigma, seed);
                let base = cost::latency(&stage.work, pu, soc, &ctx);
                // Streaming Welford accumulation: one pass, no sample
                // buffer; variance is the population form (÷ reps), as
                // before.
                let mut mean = 0.0;
                let mut m2 = 0.0;
                for k in 1..=reps {
                    let x = base.as_f64() * noise.factor();
                    let d = x - mean;
                    mean += d / k as f64;
                    m2 += d * (x - mean);
                }
                let var = m2 / reps as f64;
                row.push(Micros::new(mean));
                srow.push(Micros::new(var.sqrt()));
            }
            (row, srow)
        },
    );
    let mut latency = Vec::with_capacity(app.stage_count());
    let mut spread = Vec::with_capacity(app.stage_count());
    for (row, srow) in rows {
        latency.push(row);
        spread.push(srow);
    }
    ProfilingTable::new(
        &app.name,
        soc.name(),
        mode,
        app.stages.iter().map(|s| s.name.clone()).collect(),
        classes,
        latency,
    )
    .with_spread(spread)
}

/// Wall-clock cost of collecting a table with `cfg`: every cell is measured
/// `reps` times under its context (the paper reports ≈6 minutes per device
/// per application at paper-scale inputs).
pub fn profiling_cost(
    soc: &SocSpec,
    app: &AppModel,
    mode: ProfileMode,
    cfg: &ProfilerConfig,
) -> Micros {
    let mut total = Micros::ZERO;
    for stage in &app.stages {
        for (class, pu) in soc.pus() {
            let ctx = cell_context(soc, &stage.work, class, mode);
            total += cost::latency(&stage.work, pu, soc, &ctx) * cfg.reps.max(1) as f64;
        }
    }
    total
}

/// Profiles via the paper's literal throughput method (§3.2): each cell
/// runs the stage back-to-back for a fixed virtual `window` and records
/// `window / completions` as the latency. Converges to [`profile`]'s
/// mean-of-reps as the window grows: the tests check [`profile`] against it.
#[cfg(test)]
fn profile_by_throughput(
    soc: &SocSpec,
    app: &AppModel,
    mode: ProfileMode,
    cfg: &ProfilerConfig,
    window: Micros,
) -> ProfilingTable {
    assert!(window.as_f64() > 0.0, "window must be positive");
    let classes = soc.classes();
    let mut latency = Vec::with_capacity(app.stage_count());
    for stage in &app.stages {
        let mut row = Vec::with_capacity(classes.len());
        for &class in &classes {
            let pu = soc.pu(class).expect("classes() only returns present PUs");
            let ctx = cell_context(soc, &stage.work, class, mode);
            let seed = seed_from_labels(
                &[
                    soc.name(),
                    &app.name,
                    &stage.name,
                    class.label(),
                    mode.label(),
                    "throughput",
                ],
                cfg.seed,
            );
            let mut noise = NoiseModel::new(cfg.noise_sigma, seed);
            let base = cost::latency(&stage.work, pu, soc, &ctx);
            // Count completions within the window; the final partial
            // execution does not count (black-box completion counting).
            let mut elapsed = 0.0;
            let mut completions = 0u64;
            while elapsed < window.as_f64() {
                let dt = base.as_f64() * noise.factor();
                if elapsed + dt > window.as_f64() {
                    break;
                }
                elapsed += dt;
                completions += 1;
            }
            let cell = if completions == 0 {
                // Stage longer than the window: fall back to one sample.
                base.as_f64() * noise.factor()
            } else {
                elapsed / completions as f64
            };
            row.push(Micros::new(cell));
        }
        latency.push(row);
    }
    ProfilingTable::new(
        &app.name,
        soc.name(),
        mode,
        app.stages.iter().map(|s| s.name.clone()).collect(),
        classes,
        latency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_kernels::apps;
    use bt_soc::devices;

    fn octree_model() -> AppModel {
        apps::octree_app(apps::OctreeConfig::default()).model()
    }

    #[test]
    fn table_shape_matches_app_and_device() {
        let soc = devices::jetson_orin_nano();
        let table = profile(
            &soc,
            &octree_model(),
            ProfileMode::Isolated,
            &ProfilerConfig::default(),
        );
        assert_eq!(table.stages().len(), 7);
        assert_eq!(table.classes(), &[PuClass::BigCpu, PuClass::Gpu]);
        assert_eq!(table.device(), "Jetson Orin Nano");
    }

    #[test]
    fn deterministic_per_seed() {
        let soc = devices::pixel_7a();
        let cfg = ProfilerConfig::default();
        let a = profile(&soc, &octree_model(), ProfileMode::Isolated, &cfg);
        let b = profile(&soc, &octree_model(), ProfileMode::Isolated, &cfg);
        assert_eq!(a, b);
        let cfg2 = ProfilerConfig { seed: 99, ..cfg };
        let c = profile(&soc, &octree_model(), ProfileMode::Isolated, &cfg2);
        assert_ne!(a, c);
    }

    #[test]
    fn interference_slows_cpus_on_pixel() {
        // Pixel CPU clusters slow down under load (Fig. 7); the table must
        // reflect it.
        let soc = devices::pixel_7a();
        let cfg = ProfilerConfig {
            noise_sigma: 0.0,
            ..ProfilerConfig::default()
        };
        let iso = profile(&soc, &octree_model(), ProfileMode::Isolated, &cfg);
        let heavy = profile(&soc, &octree_model(), ProfileMode::InterferenceHeavy, &cfg);
        for stage in 0..7 {
            for class in [PuClass::BigCpu, PuClass::MediumCpu, PuClass::LittleCpu] {
                let i = iso.latency(stage, class).unwrap().as_f64();
                let h = heavy.latency(stage, class).unwrap().as_f64();
                assert!(h > i, "stage {stage} on {class}: {h} ≤ {i}");
            }
        }
    }

    #[test]
    fn interference_speeds_up_pixel_gpu() {
        // The Mali GPU boosts under CPU load (Fig. 7: 0.86×).
        let soc = devices::pixel_7a();
        let cfg = ProfilerConfig {
            noise_sigma: 0.0,
            ..ProfilerConfig::default()
        };
        let iso = profile(&soc, &octree_model(), ProfileMode::Isolated, &cfg);
        let heavy = profile(&soc, &octree_model(), ProfileMode::InterferenceHeavy, &cfg);
        let mut speedups = 0;
        for stage in 0..7 {
            let i = iso.latency(stage, PuClass::Gpu).unwrap().as_f64();
            let h = heavy.latency(stage, PuClass::Gpu).unwrap().as_f64();
            if h < i {
                speedups += 1;
            }
        }
        assert!(
            speedups >= 5,
            "GPU should usually speed up, got {speedups}/7"
        );
    }

    #[test]
    fn reps_reduce_noise() {
        let soc = devices::pixel_7a();
        let app = octree_model();
        let noisy = ProfilerConfig {
            reps: 1,
            noise_sigma: 0.2,
            seed: 3,
            ..ProfilerConfig::default()
        };
        let averaged = ProfilerConfig {
            reps: 200,
            noise_sigma: 0.2,
            seed: 3,
            ..ProfilerConfig::default()
        };
        let exact = ProfilerConfig {
            reps: 1,
            noise_sigma: 0.0,
            seed: 3,
            ..ProfilerConfig::default()
        };
        let t_noisy = profile(&soc, &app, ProfileMode::Isolated, &noisy);
        let t_avg = profile(&soc, &app, ProfileMode::Isolated, &averaged);
        let t_exact = profile(&soc, &app, ProfileMode::Isolated, &exact);
        // Averaged cells are closer to the true value than single-shot, in
        // aggregate.
        let err = |t: &ProfilingTable| -> f64 {
            (0..7)
                .map(|s| {
                    let a = t.latency(s, PuClass::BigCpu).unwrap().as_f64();
                    let e = t_exact.latency(s, PuClass::BigCpu).unwrap().as_f64();
                    ((a - e) / e).abs()
                })
                .sum()
        };
        assert!(err(&t_avg) < err(&t_noisy));
    }

    #[test]
    fn parallel_fill_is_identical_to_serial() {
        let soc = devices::pixel_7a();
        let app = octree_model();
        // Enough reps that one row pays for a worker, so `par` really
        // fans out (30 reps would fill serially under either flag).
        let par = ProfilerConfig {
            reps: 1000,
            noise_sigma: 0.1,
            seed: 7,
            ..ProfilerConfig::default()
        };
        assert!(amortises_spawn(row_us(soc.classes().len(), par.reps)));
        let ser = ProfilerConfig {
            parallel: false,
            ..par.clone()
        };
        for mode in [ProfileMode::Isolated, ProfileMode::InterferenceHeavy] {
            assert_eq!(
                profile(&soc, &app, mode, &par),
                profile(&soc, &app, mode, &ser)
            );
        }
    }

    #[test]
    fn welford_spread_matches_two_pass_formula() {
        // Regression against the pre-streaming implementation: rebuild each
        // cell's sample stream from its (labels, seed) noise model and
        // compute mean/σ with the old collect-then-two-pass formulas.
        let soc = devices::pixel_7a();
        let app = octree_model();
        let cfg = ProfilerConfig {
            noise_sigma: 0.15,
            seed: 21,
            ..ProfilerConfig::default()
        };
        let mode = ProfileMode::InterferenceHeavy;
        let table = profile(&soc, &app, mode, &cfg);
        for (s, stage) in app.stages.iter().enumerate() {
            for &class in table.classes() {
                let pu = soc.pu(class).unwrap();
                let ctx = cell_context(&soc, &stage.work, class, mode);
                let seed = seed_from_labels(
                    &[
                        soc.name(),
                        &app.name,
                        &stage.name,
                        class.label(),
                        mode.label(),
                    ],
                    cfg.seed,
                );
                let mut noise = NoiseModel::new(cfg.noise_sigma, seed);
                let base = cost::latency(&stage.work, pu, &soc, &ctx);
                let samples: Vec<f64> = (0..cfg.reps)
                    .map(|_| base.as_f64() * noise.factor())
                    .collect();
                let mean = samples.iter().sum::<f64>() / cfg.reps as f64;
                let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / cfg.reps as f64;
                let got_mean = table.latency(s, class).unwrap().as_f64();
                let got_sd = table.latency_spread(s, class).unwrap().as_f64();
                assert!(
                    ((got_mean - mean) / mean).abs() < 1e-12,
                    "stage {s} on {class}: mean {got_mean} vs two-pass {mean}"
                );
                assert!(
                    (got_sd - var.sqrt()).abs() <= 1e-12 * var.sqrt().max(1.0),
                    "stage {s} on {class}: σ {got_sd} vs two-pass {}",
                    var.sqrt()
                );
            }
        }
    }

    #[test]
    fn throughput_profiling_agrees_with_mean_profiling() {
        let soc = devices::pixel_7a();
        let app = octree_model();
        let cfg = ProfilerConfig {
            noise_sigma: 0.02,
            ..ProfilerConfig::default()
        };
        let by_mean = profile(&soc, &app, ProfileMode::InterferenceHeavy, &cfg);
        // A generous window (many completions per cell) converges to the
        // mean-of-reps estimate.
        let by_thr = profile_by_throughput(
            &soc,
            &app,
            ProfileMode::InterferenceHeavy,
            &cfg,
            Micros::from_secs(1.0),
        );
        for s in 0..app.stage_count() {
            for &c in by_mean.classes() {
                let a = by_mean.latency(s, c).unwrap().as_f64();
                let b = by_thr.latency(s, c).unwrap().as_f64();
                assert!(
                    ((a - b) / a).abs() < 0.05,
                    "stage {s} on {c}: mean {a} vs throughput {b}"
                );
            }
        }
    }

    #[test]
    fn throughput_profiling_handles_stages_longer_than_window() {
        let soc = devices::pixel_7a();
        let app = octree_model();
        let cfg = ProfilerConfig {
            noise_sigma: 0.0,
            ..ProfilerConfig::default()
        };
        // Tiny window: every cell falls back to the single-sample path and
        // must still be positive.
        let t = profile_by_throughput(&soc, &app, ProfileMode::Isolated, &cfg, Micros::new(1.0));
        for s in 0..app.stage_count() {
            for &c in t.classes() {
                assert!(t.latency(s, c).unwrap().as_f64() > 0.0);
            }
        }
    }

    #[test]
    fn profiling_cost_is_positive_and_scales_with_reps() {
        let soc = devices::pixel_7a();
        let app = octree_model();
        let c30 = profiling_cost(
            &soc,
            &app,
            ProfileMode::InterferenceHeavy,
            &ProfilerConfig::default(),
        );
        let c60 = profiling_cost(
            &soc,
            &app,
            ProfileMode::InterferenceHeavy,
            &ProfilerConfig {
                reps: 60,
                ..ProfilerConfig::default()
            },
        );
        assert!(c30.as_f64() > 0.0);
        assert!((c60.as_f64() / c30.as_f64() - 2.0).abs() < 1e-9);
    }
}
