//! Workload generation: the [`WorkloadSource`] boundary and its one
//! generator, [`SyntheticSource`]. Its default [`WorkloadSpec`] is the
//! paper's workload — Table I node capacities ([`nodes`]), Table II task
//! demands ([`demand`]), Poisson arrivals and exponential durations; the
//! other specs swap in bursty MMPP, diurnal or flash-crowd arrivals, Pareto
//! durations, Zipf demand hotspots or heterogeneous capacity classes.
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
pub mod source;
pub mod spec;

pub use demand::TaskSpec;
pub use generators::SyntheticSource;
pub use nodes::{cmax, table1_capacity};
pub use source::WorkloadSource;
pub use spec::{
    ArrivalModel, DemandModel, DurationModel, NodeModel, WorkloadSpec, MAX_HOTSPOT_CORNERS,
};
