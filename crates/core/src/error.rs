use std::error::Error;
use std::fmt;

/// Errors produced by the BetterTogether framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum BtError {
    /// The schedule optimizer could not be constructed.
    Problem(bt_solver::ProblemError),
    /// A DAG-solver assignment could not be realized as an executable
    /// pipeline schedule.
    DagSchedule(bt_pipeline::DagScheduleError),
    /// The simulator rejected a configuration.
    Soc(bt_soc::SocError),
    /// The host pipeline rejected a configuration.
    Pipeline(bt_pipeline::PipelineError),
    /// No schedule survived optimization / filtering.
    NoCandidates,
    /// A (possibly cached) plan disagrees with the backend on stage count.
    PlanStageMismatch {
        /// Stages the plan was built for.
        plan: usize,
        /// Stages of the backend's bound application.
        backend: usize,
    },
    /// A (possibly cached) plan schedules a class the backend cannot host.
    PlanClassUnavailable(bt_soc::PuClass),
    /// A faulted run degraded so far that no steady-state measurement
    /// exists (every measured-window task was dropped).
    RunDegraded {
        /// Tasks admitted into the pipeline.
        submitted: u64,
        /// Tasks that completed.
        completed: u64,
        /// Tasks lost to injected faults.
        dropped: u64,
    },
    /// A fault-injection wrapper deliberately failed this measurement.
    InjectedFault {
        /// The autotuning run index the fault was armed for.
        run_index: u64,
    },
    /// The backend cannot execute fork/join (DAG) schedules (see
    /// [`crate::ExecutionBackend::measure_dag`]).
    DagUnsupported {
        /// Name of the refusing backend.
        backend: String,
    },
    /// The backend cannot co-run multiple tenants (only virtual-time
    /// substrates co-schedule tenant timelines; see
    /// [`crate::ExecutionBackend::measure_multi`]).
    MultiTenantUnsupported {
        /// Name of the refusing backend.
        backend: String,
    },
}

impl fmt::Display for BtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtError::Problem(e) => write!(f, "schedule problem: {e}"),
            BtError::DagSchedule(e) => write!(f, "DAG schedule: {e}"),
            BtError::Soc(e) => write!(f, "device model: {e}"),
            BtError::Pipeline(e) => write!(f, "pipeline: {e}"),
            BtError::NoCandidates => f.write_str("no candidate schedule satisfies the constraints"),
            BtError::PlanStageMismatch { plan, backend } => write!(
                f,
                "plan was built for {plan} stages but the backend's application has {backend}"
            ),
            BtError::PlanClassUnavailable(class) => {
                write!(
                    f,
                    "plan schedules PU class {class} which the backend cannot host"
                )
            }
            BtError::RunDegraded {
                submitted,
                completed,
                dropped,
            } => write!(
                f,
                "faulted run degraded past measurement: {completed}/{submitted} tasks completed, {dropped} dropped"
            ),
            BtError::InjectedFault { run_index } => {
                write!(f, "fault injected into measurement run {run_index}")
            }
            BtError::DagUnsupported { backend } => {
                write!(f, "backend '{backend}' cannot execute fork/join schedules")
            }
            BtError::MultiTenantUnsupported { backend } => {
                write!(f, "backend '{backend}' cannot measure multi-tenant co-runs")
            }
        }
    }
}

impl Error for BtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BtError::Problem(e) => Some(e),
            BtError::DagSchedule(e) => Some(e),
            BtError::Soc(e) => Some(e),
            BtError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bt_solver::ProblemError> for BtError {
    fn from(e: bt_solver::ProblemError) -> BtError {
        BtError::Problem(e)
    }
}

impl From<bt_pipeline::DagScheduleError> for BtError {
    fn from(e: bt_pipeline::DagScheduleError) -> BtError {
        BtError::DagSchedule(e)
    }
}

impl From<bt_soc::SocError> for BtError {
    fn from(e: bt_soc::SocError) -> BtError {
        BtError::Soc(e)
    }
}

/// A simulator rejection is [`BtError::Soc`] whichever layer reports it.
impl From<bt_pipeline::PipelineError> for BtError {
    fn from(e: bt_pipeline::PipelineError) -> BtError {
        match e {
            bt_pipeline::PipelineError::Soc(e) => BtError::Soc(e),
            e => BtError::Pipeline(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BtError::from(bt_soc::SocError::EmptyDevice);
        assert!(e.to_string().contains("device model"));
        assert!(e.source().is_some());
        assert!(BtError::NoCandidates.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BtError>();
    }
}
