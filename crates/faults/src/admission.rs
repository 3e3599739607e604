//! Admission control for multi-tenant co-runs.
//!
//! Deciding whether one more application may join a shared SoC is a
//! *what-if* question, and the multi-tenant simulator answers it exactly:
//! [`admit_greedy`] trial-co-schedules each candidate against the tenants
//! admitted so far ([`bt_soc::simulate_multi`]) and admits it only when
//! the resulting mix satisfies the configured policy — the fair-share vs
//! latency-target split of the multi-criteria pipeline-scheduling
//! literature.
//!
//! The trial runs reuse this crate's failure-budget machinery: an optional
//! [`FaultPlan`] stresses every trial mix, and a per-tenant **drop
//! budget** (maximum tolerated `dropped / submitted` fraction) rejects
//! candidates whose admission would push any tenant past its failure
//! budget under that stress — the same conservation accounting the
//! resilience tests pin.

use bt_core::{BtError, CoTenant};
use bt_pipeline::to_chunk_specs;
use bt_soc::{simulate_multi, RunReport, SocSpec, TenantSpec};

use crate::FaultPlan;

/// The admission rule applied to every trial mix.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionPolicy {
    /// Equal-steady-state-throughput fairness: every tenant in the mix
    /// must retain a comparable fraction of its *solo* throughput. A
    /// candidate is admitted only if
    /// `min(retention) >= tolerance * max(retention)` across the trial
    /// mix, where `retention = co-run throughput / solo throughput`.
    /// `tolerance` is in `(0, 1]`; 1.0 demands exactly equal retention.
    FairShare {
        /// Minimum allowed ratio between the worst and best per-tenant
        /// throughput retention.
        tolerance: f64,
    },
    /// Latency SLO: a candidate is rejected when its admission would push
    /// any tenant in the mix — itself included — past the target mean
    /// task latency (µs).
    LatencyTarget {
        /// The shared mean-task-latency SLO in microseconds.
        slo_us: f64,
    },
}

/// Configuration for [`admit_greedy`]: the policy plus the
/// failure-budget stress applied to every trial mix.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// The admission rule.
    pub policy: AdmissionPolicy,
    /// Maximum tolerated per-tenant `dropped / submitted` fraction under
    /// the stress plan (the failure budget). 0.0 demands lossless
    /// co-runs.
    pub max_drop_fraction: f64,
    /// Fault stress applied to every trial mix. Chunk-addressed faults
    /// use the trial mix's *global* (flattened) chunk indices, so a plan
    /// written for a full mix exercises earlier, smaller trials only
    /// partially. [`FaultPlan::none`] leaves trials clean.
    pub stress: FaultPlan,
}

impl AdmissionConfig {
    /// A clean-trial configuration (no stress, zero drop budget).
    ///
    /// # Panics
    ///
    /// Panics when the policy's parameter is out of range:
    /// `FairShare.tolerance` outside `(0, 1]`, or a non-positive /
    /// non-finite `LatencyTarget.slo_us`.
    pub fn new(policy: AdmissionPolicy) -> AdmissionConfig {
        match &policy {
            AdmissionPolicy::FairShare { tolerance } => assert!(
                *tolerance > 0.0 && *tolerance <= 1.0,
                "fair-share tolerance must be in (0, 1]"
            ),
            AdmissionPolicy::LatencyTarget { slo_us } => assert!(
                slo_us.is_finite() && *slo_us > 0.0,
                "latency SLO must be finite and positive"
            ),
        }
        AdmissionConfig {
            policy,
            max_drop_fraction: 0.0,
            stress: FaultPlan::none(),
        }
    }
}

/// A rejected candidate and the reason the trial mix failed.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Index into the candidate list handed to [`admit_greedy`].
    pub candidate: usize,
    /// Human-readable policy violation.
    pub reason: String,
}

/// The outcome of a greedy admission sweep.
#[derive(Debug)]
pub struct AdmissionDecision {
    /// Indices of admitted candidates, in admission order.
    pub admitted: Vec<usize>,
    /// Rejected candidates with reasons, in rejection order.
    pub rejected: Vec<Rejection>,
    /// Per-tenant reports of the final admitted mix (parallel to
    /// `admitted`); empty when nothing was admitted.
    pub reports: Vec<RunReport>,
}

/// Greedily admits `candidates` in order onto `soc`: each candidate is
/// trial-co-scheduled with the already-admitted tenants under
/// `cfg.stress`, and joins the mix only if every tenant stays within the
/// failure budget and the mix satisfies `cfg.policy`.
///
/// Greedy order matters — an early heavyweight can crowd out later
/// lightweights — which mirrors online admission, where requests arrive
/// one at a time.
///
/// # Errors
///
/// Configuration errors from the simulator (stage mismatch, missing PU)
/// abort the sweep; policy violations do not — they land in
/// [`AdmissionDecision::rejected`].
pub fn admit_greedy(
    soc: &SocSpec,
    candidates: &[CoTenant],
    cfg: &AdmissionConfig,
) -> Result<AdmissionDecision, BtError> {
    let spec_of = |t: &CoTenant| -> Result<TenantSpec, BtError> {
        Ok(TenantSpec::new(
            t.app.name.clone(),
            to_chunk_specs(&t.app, &t.schedule)?,
            t.run.clone(),
        ))
    };
    let stress = cfg.stress.to_spec();
    let stress_opt = (!stress.is_empty()).then_some(&stress);

    // Solo throughputs, needed for fair-share retention; measured clean
    // so the retention denominator is the tenant's undisturbed capacity.
    let solo_thpt: Vec<Option<f64>> = match cfg.policy {
        AdmissionPolicy::FairShare { .. } => candidates
            .iter()
            .map(|t| {
                let solo = simulate_multi(soc, &[spec_of(t)?], None)?;
                Ok(solo.tenants[0].stats.as_ref().map(|s| s.throughput_hz))
            })
            .collect::<Result<_, BtError>>()?,
        AdmissionPolicy::LatencyTarget { .. } => vec![None; candidates.len()],
    };

    let mut admitted: Vec<usize> = Vec::new();
    let mut admitted_specs: Vec<TenantSpec> = Vec::new();
    let mut rejected: Vec<Rejection> = Vec::new();
    let mut reports: Vec<RunReport> = Vec::new();

    for (i, candidate) in candidates.iter().enumerate() {
        let mut trial = admitted_specs.clone();
        trial.push(spec_of(candidate)?);
        let multi = simulate_multi(soc, &trial, stress_opt)?;

        let mut violation: Option<String> = None;
        for (pos, report) in multi.tenants.iter().enumerate() {
            let member = admitted.get(pos).copied().unwrap_or(i);
            let drop_frac = if report.submitted == 0 {
                0.0
            } else {
                report.dropped as f64 / report.submitted as f64
            };
            if drop_frac > cfg.max_drop_fraction {
                violation = Some(format!(
                    "tenant #{member} exceeds failure budget: dropped {:.1}% > {:.1}%",
                    drop_frac * 100.0,
                    cfg.max_drop_fraction * 100.0
                ));
                break;
            }
            if report.stats.is_none() {
                violation = Some(format!("tenant #{member} measured no steady state"));
                break;
            }
        }

        if violation.is_none() {
            violation = match cfg.policy {
                AdmissionPolicy::FairShare { tolerance } => {
                    let retention: Vec<f64> = multi
                        .tenants
                        .iter()
                        .enumerate()
                        .map(|(pos, r)| {
                            let member = admitted.get(pos).copied().unwrap_or(i);
                            let solo = solo_thpt[member].unwrap_or(f64::NAN);
                            r.stats.as_ref().map_or(0.0, |s| s.throughput_hz) / solo
                        })
                        .collect();
                    let min = retention.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = retention.iter().copied().fold(0.0f64, f64::max);
                    (!(min.is_finite() && max > 0.0) || min < tolerance * max).then(|| {
                        format!(
                            "unfair mix: worst retention {min:.3} < {tolerance} × best {max:.3}"
                        )
                    })
                }
                AdmissionPolicy::LatencyTarget { slo_us } => multi
                    .tenants
                    .iter()
                    .enumerate()
                    .find_map(|(pos, r)| {
                        let member = admitted.get(pos).copied().unwrap_or(i);
                        let lat = r
                            .stats
                            .as_ref()
                            .map_or(f64::INFINITY, |s| s.mean_task_latency.as_f64());
                        (lat > slo_us).then(|| {
                            format!(
                                "tenant #{member} mean task latency {lat:.0}µs exceeds SLO {slo_us:.0}µs"
                            )
                        })
                    }),
            };
        }

        match violation {
            None => {
                admitted.push(i);
                admitted_specs = trial;
                reports = multi.tenants;
            }
            Some(reason) => rejected.push(Rejection {
                candidate: i,
                reason,
            }),
        }
    }

    Ok(AdmissionDecision {
        admitted,
        rejected,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_kernels::apps;
    use bt_soc::{devices, PuClass, PuLoss, RunConfig};

    use bt_pipeline::Schedule;

    fn octree(seed: u64) -> CoTenant {
        let app = apps::octree_app(apps::OctreeConfig::default()).model();
        let schedule = Schedule::new(vec![
            PuClass::BigCpu,
            PuClass::BigCpu,
            PuClass::MediumCpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::Gpu,
            PuClass::LittleCpu,
        ])
        .unwrap();
        CoTenant::new(
            app,
            schedule,
            RunConfig {
                tasks: 20,
                warmup: 4,
                seed,
                ..RunConfig::default()
            },
        )
    }

    fn alexnet(seed: u64) -> CoTenant {
        let app = apps::alexnet_dense_app(apps::AlexNetConfig::default()).model();
        let k = app.stage_count();
        CoTenant::new(
            app,
            Schedule::homogeneous(k, PuClass::Gpu),
            RunConfig {
                tasks: 20,
                warmup: 4,
                seed,
                ..RunConfig::default()
            },
        )
    }

    #[test]
    fn compatible_tenants_are_both_admitted() {
        let soc = devices::pixel_7a();
        let cands = [octree(1), alexnet(2)];
        let cfg = AdmissionConfig::new(AdmissionPolicy::FairShare { tolerance: 0.05 });
        let d = admit_greedy(&soc, &cands, &cfg).unwrap();
        assert_eq!(d.admitted, vec![0, 1]);
        assert!(d.rejected.is_empty());
        assert_eq!(d.reports.len(), 2);
        for r in &d.reports {
            assert_eq!(r.completed + r.dropped, r.submitted);
        }
    }

    #[test]
    fn latency_target_rejects_the_tenant_that_breaks_the_slo() {
        let soc = devices::pixel_7a();
        let first = octree(1);
        // Solo latency of the first tenant defines a just-met SLO; the
        // co-runner's interference must then push it past the target.
        let solo = admit_greedy(
            &soc,
            std::slice::from_ref(&first),
            &AdmissionConfig::new(AdmissionPolicy::LatencyTarget { slo_us: f64::MAX }),
        )
        .unwrap();
        let solo_lat = solo.reports[0].expect_stats().mean_task_latency.as_f64();
        let cfg = AdmissionConfig::new(AdmissionPolicy::LatencyTarget {
            slo_us: solo_lat * 1.001,
        });
        let d = admit_greedy(&soc, &[first, octree(2), octree(3)], &cfg).unwrap();
        assert_eq!(d.admitted, vec![0], "co-runners must violate the tight SLO");
        assert_eq!(d.rejected.len(), 2);
        assert!(d.rejected[0].reason.contains("SLO"));
        assert_eq!(d.reports.len(), 1);
    }

    #[test]
    fn exact_fair_share_rejects_an_asymmetric_mix() {
        let soc = devices::pixel_7a();
        // tolerance 1.0 demands byte-equal retention, which an
        // octree/alexnet mix cannot hit.
        let cfg = AdmissionConfig::new(AdmissionPolicy::FairShare { tolerance: 1.0 });
        let d = admit_greedy(&soc, &[octree(1), alexnet(2)], &cfg).unwrap();
        assert_eq!(d.admitted, vec![0], "first tenant alone is trivially fair");
        assert_eq!(d.rejected.len(), 1);
        assert!(d.rejected[0].reason.contains("unfair"));
    }

    #[test]
    fn failure_budget_rejects_lossy_trials() {
        let soc = devices::pixel_7a();
        // Lose the GPU early: most octree tasks drop, blowing any budget.
        let mut plan = FaultPlan::none();
        plan.spec.losses.push(PuLoss {
            class: PuClass::Gpu,
            at_us: 10.0,
        });
        let mut cfg = AdmissionConfig::new(AdmissionPolicy::LatencyTarget { slo_us: f64::MAX });
        cfg.stress = plan;
        cfg.max_drop_fraction = 0.1;
        let d = admit_greedy(&soc, &[octree(1)], &cfg).unwrap();
        assert!(d.admitted.is_empty());
        assert!(d.rejected[0].reason.contains("failure budget"));
    }

    #[test]
    fn empty_candidate_list_is_an_empty_decision() {
        let soc = devices::pixel_7a();
        let cfg = AdmissionConfig::new(AdmissionPolicy::FairShare { tolerance: 0.5 });
        let d = admit_greedy(&soc, &[], &cfg).unwrap();
        assert!(d.admitted.is_empty() && d.rejected.is_empty() && d.reports.is_empty());
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn out_of_range_tolerance_panics() {
        let _ = AdmissionConfig::new(AdmissionPolicy::FairShare { tolerance: 0.0 });
    }
}
