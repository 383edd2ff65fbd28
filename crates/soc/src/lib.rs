//! The Self-Organizing Cloud scenario runner.
//!
//! Wires together every substrate — the event engine, the CAN overlay, the
//! discovery protocol under test, PSM execution, Table I/II workload,
//! LAN/WAN network model, node churn and the metric trackers — into the
//! paper's §IV experiment: one simulated day, per-node Poisson task
//! arrivals, single-message discovery queries, best-fit dispatch,
//! proportional-share execution and hourly metric samples.
//!
//! ```no_run
//! use soc_sim::{ProtocolChoice, Scenario};
//!
//! let report = Scenario::paper(ProtocolChoice::Hid)
//!     .nodes(500)
//!     .lambda(0.5)
//!     .seed(7)
//!     .run();
//! println!("{}", report.summary());
//! ```

pub mod defense;
pub mod json;
mod profile;
pub mod report;
pub mod runner;
pub mod scenario;

pub use defense::{Blacklist, DefenseParams};
pub use profile::{PhaseStat, ProfileSummary};
pub use report::{FaultSummary, RunReport};
pub use runner::{build_source, run_scenario, run_scenario_with};
pub use scenario::{ProtocolChoice, Scenario};
pub use soc_net::FaultConfig;
