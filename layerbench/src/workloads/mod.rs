//! The five workloads. Each stresses a different layer; on every other
//! workload the prediction for a change to that layer is *no change*.

pub mod host_stream;
pub mod plan_fleet;
pub mod plan_solver;
pub mod serve_mix;
pub mod sim_stream;
