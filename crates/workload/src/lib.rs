//! Workload generation: Table I node capacities, Table II task demands,
//! Poisson arrivals — plus the [`WorkloadSource`] boundary and the
//! [`SyntheticSource`] generator library (bursty MMPP, diurnal,
//! flash-crowd arrivals; Pareto durations; Zipf demand hotspots;
//! heterogeneous capacity classes) behind declarative [`WorkloadSpec`]s.
//!
//! §IV-A: *"the user requests (or tasks) will be periodically generated on
//! each node based on Poisson process with 3000 seconds as its mean"*, and
//! *"Tasks' workloads are randomly generated such that their overall average
//! execution time is 3000 seconds."*
//!
//! Demand vectors follow Table II: with demand ratio `λ`, every dimension is
//! drawn uniformly from `[base_d · λ, cmax_d · λ]` — e.g. CPU in
//! `[λ, 25.6λ]`. Small `λ` therefore concentrates all query points in the
//! low corner of the CAN space (the hotspot regime of Fig. 4(b)).

pub mod demand;
pub mod generators;
pub mod nodes;
pub mod poisson;
pub mod source;
pub mod spec;

pub use demand::{DemandSampler, TaskSpec};
pub use generators::SyntheticSource;
pub use nodes::{cmax, NodeCapacitySampler};
pub use poisson::PoissonArrivals;
pub use source::WorkloadSource;
pub use spec::{
    ArrivalModel, DemandModel, DurationModel, NodeModel, WorkloadSpec, MAX_HOTSPOT_CORNERS,
};
