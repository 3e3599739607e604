//! Wall-clock profiling of real kernels on the host machine.
//!
//! The simulated profiler ([`crate::profile`]) models the paper's four edge
//! devices; this module is the same protocol against real silicon — the
//! development host — so the end-to-end framework can also drive the real
//! pipeline runtime. Host "PU classes" are thread-count tiers (a stand-in
//! for big/little clusters): each class is profiled by running the stage's
//! actual kernel with that many worker threads.
//!
//! Interference-heavy mode follows §3.2: while the foreground stage is
//! measured, background threads continuously execute the same kernel on
//! their own payloads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bt_kernels::{Application, ParCtx};
use bt_soc::{Micros, PuClass};

use crate::{ProfileMode, ProfilingTable};

/// How many worker threads each "class" of the host gets.
#[derive(Debug, Clone)]
pub struct HostClasses {
    tiers: Vec<(PuClass, usize)>,
}

impl HostClasses {
    /// A two-tier default: a "big" tier with all available parallelism and
    /// a "little" tier with a single thread.
    pub fn default_for_host() -> HostClasses {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        HostClasses {
            tiers: vec![(PuClass::BigCpu, cores.max(2) / 2), (PuClass::LittleCpu, 1)],
        }
    }

    /// Custom tiers.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty or a thread count is zero.
    pub fn new(tiers: Vec<(PuClass, usize)>) -> HostClasses {
        assert!(!tiers.is_empty(), "need at least one tier");
        assert!(
            tiers.iter().all(|&(_, n)| n > 0),
            "thread counts must be positive"
        );
        HostClasses { tiers }
    }

    /// The tiers as `(class, threads)` pairs.
    pub fn tiers(&self) -> &[(PuClass, usize)] {
        &self.tiers
    }

    /// Threads of a class, if present.
    pub fn threads(&self, class: PuClass) -> Option<usize> {
        self.tiers
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, n)| n)
    }
}

/// Configuration of a host profiling run.
#[derive(Debug, Clone)]
pub struct HostProfilerConfig {
    /// Repetitions per cell (paper: 30). Keep small for large inputs.
    pub reps: u32,
    /// Warmup executions per cell, excluded from the mean.
    pub warmup: u32,
}

impl Default for HostProfilerConfig {
    fn default() -> HostProfilerConfig {
        HostProfilerConfig { reps: 5, warmup: 1 }
    }
}

/// Profiles every stage of `app` on every host tier with real wall-clock
/// timing. The stage kernels execute for real; earlier stages run once per
/// cell to produce valid inputs for the profiled stage.
///
/// Under [`ProfileMode::InterferenceHeavy`] — the framework's default —
/// each cell is measured while live co-runner threads execute the same
/// stage on every *other* tier (§3.2), so the contention is real, not
/// modeled. That fidelity has a cost: the machine is deliberately
/// saturated for the whole tiers × stages × `reps` sweep, and timings are
/// only meaningful if nothing else competes for it. Keep
/// [`HostProfilerConfig::reps`] small on shared machines, or profile with
/// [`ProfileMode::Isolated`] when contention fidelity doesn't matter.
pub fn profile_host<P>(
    app: &Application<P>,
    classes: &HostClasses,
    mode: ProfileMode,
    cfg: &HostProfilerConfig,
) -> ProfilingTable
where
    P: Send + 'static,
{
    let stage_names: Vec<String> = app.stages().iter().map(|s| s.name().to_string()).collect();
    let class_list: Vec<PuClass> = classes.tiers.iter().map(|&(c, _)| c).collect();

    let mut latency = vec![Vec::with_capacity(class_list.len()); app.stage_count()];

    for &(class, threads) in &classes.tiers {
        let ctx = ParCtx::new(threads);
        // Prepare a payload advanced to each stage boundary.
        let mut payload = app.new_payload();
        app.load_input(&mut payload, 0);

        for (si, stage) in app.stages().iter().enumerate() {
            let mean_us = match mode {
                ProfileMode::Isolated => measure(stage, &mut payload, &ctx, cfg, si, app),
                ProfileMode::InterferenceHeavy => {
                    let stop = AtomicBool::new(false);
                    let result = std::thread::scope(|scope| {
                        // One background co-runner per *other* tier, running
                        // the same stage on its own payload (§3.2).
                        for &(other, other_threads) in &classes.tiers {
                            if other == class {
                                continue;
                            }
                            let stop = &stop;
                            let bg_ctx = ParCtx::new(other_threads);
                            let mut bg_payload = app.new_payload();
                            scope.spawn(move || {
                                // Run the same computation continuously on
                                // this tier until the measurement is done,
                                // re-priming the payload each iteration.
                                while !stop.load(Ordering::Relaxed) {
                                    app.load_input(&mut bg_payload, 1);
                                    for prior in app.stages().iter().take(si) {
                                        prior.run(&mut bg_payload, &bg_ctx);
                                    }
                                    stage.run(&mut bg_payload, &bg_ctx);
                                }
                            });
                        }
                        let m = measure(stage, &mut payload, &ctx, cfg, si, app);
                        stop.store(true, Ordering::Relaxed);
                        m
                    });
                    result
                }
            };
            latency[si].push(Micros::new(mean_us));
        }
    }

    // Transposed fill above: latency[stage] currently gains one column per
    // tier iteration, in tier order — already the right layout.
    ProfilingTable::new(app.name(), "host", mode, stage_names, class_list, latency)
}

/// Measures one stage: before *every* repetition the pipeline prefix is
/// re-run to refresh the stage's input (stage kernels transform the
/// payload, so back-to-back re-execution would see a stale shape), then the
/// stage alone is timed.
fn measure<P>(
    stage: &bt_kernels::Stage<P>,
    payload: &mut P,
    ctx: &ParCtx,
    cfg: &HostProfilerConfig,
    stage_idx: usize,
    app: &Application<P>,
) -> f64 {
    let prime = |payload: &mut P| {
        app.load_input(payload, 0);
        for prior in app.stages().iter().take(stage_idx) {
            prior.run(payload, ctx);
        }
    };
    for _ in 0..cfg.warmup {
        prime(payload);
        stage.run(payload, ctx);
    }
    let reps = cfg.reps.max(1);
    let mut total = 0.0;
    for _ in 0..reps {
        prime(payload);
        let start = Instant::now();
        stage.run(payload, ctx);
        total += start.elapsed().as_secs_f64() * 1e6;
    }
    total / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_kernels::apps::{self, OctreeConfig};
    use bt_kernels::pointcloud::CloudShape;

    fn tiny_octree() -> bt_kernels::Application<apps::OctreeTask> {
        apps::octree_app(OctreeConfig {
            points: 2000,
            shape: CloudShape::Uniform,
            max_depth: 5,
            seed: 1,
        })
    }

    #[test]
    fn host_profile_shape() {
        let app = tiny_octree();
        let classes = HostClasses::new(vec![(PuClass::BigCpu, 2), (PuClass::LittleCpu, 1)]);
        let cfg = HostProfilerConfig { reps: 2, warmup: 0 };
        let table = profile_host(&app, &classes, ProfileMode::Isolated, &cfg);
        assert_eq!(table.stages().len(), 7);
        assert_eq!(table.classes().len(), 2);
        assert_eq!(table.device(), "host");
        // Every cell is a real measurement: positive.
        for s in 0..7 {
            for &c in table.classes() {
                assert!(table.latency(s, c).unwrap().as_f64() > 0.0);
            }
        }
    }

    #[test]
    fn interference_heavy_mode_completes() {
        let app = tiny_octree();
        let classes = HostClasses::new(vec![(PuClass::BigCpu, 2), (PuClass::LittleCpu, 1)]);
        let cfg = HostProfilerConfig { reps: 1, warmup: 0 };
        let table = profile_host(&app, &classes, ProfileMode::InterferenceHeavy, &cfg);
        assert_eq!(table.mode(), ProfileMode::InterferenceHeavy);
        for s in 0..table.stages().len() {
            assert!(table.latency(s, PuClass::BigCpu).unwrap().as_f64() > 0.0);
        }
    }

    #[test]
    fn default_host_classes_are_sane() {
        let c = HostClasses::default_for_host();
        assert!(c.threads(PuClass::BigCpu).unwrap() >= 1);
        assert_eq!(c.threads(PuClass::LittleCpu), Some(1));
        assert_eq!(c.threads(PuClass::Gpu), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = HostClasses::new(vec![(PuClass::BigCpu, 0)]);
    }
}
