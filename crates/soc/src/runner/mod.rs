//! The event loop: tasks, queries, dispatch, execution, churn, metrics.
//!
//! A run is one value ([`nodes`]) pumped by one loop on the calling
//! thread. It owns every node id: the CAN overlay and LAN topology, the
//! run's one event queue ([`event`]), the protocol instance, the executors,
//! pending queries, the workload source, the live set and every RNG
//! stream. Every per-node table — executors, completion memo, blacklists,
//! the protocol's caches and finger tables — is a plain `Vec` indexed by
//! [`soc_types::NodeId::idx`]. Churn swaps and metric samples ([`system`])
//! are two more events on the same queue.
//!
//! [`boot`] builds the run, [`nodes::Nodes::run`] pops its events, [`finish`]
//! assembles the report. The queue orders by `(timestamp, insertion
//! sequence)`, so ties at one instant run first in, first out, and a run
//! is a pure function of `(scenario, seed)`.

mod boot;
mod event;
mod finish;
mod nodes;
mod system;

use crate::report::RunReport;
use crate::scenario::{ProtocolChoice, Scenario};
use boot::bootstrap;
use pidcan::{PidCan, PidCanConfig};
use soc_gossip::{GossipConfig, Newscast};
use soc_khdn::{KhdnCan, KhdnConfig};
use soc_overlay::DiscoveryOverlay;
use soc_workload::{SyntheticSource, WorkloadSource};

/// Run one scenario; `make_proto` builds the protocol instance for an id
/// capacity (see [`boot::bootstrap`]).
fn run_with<P: DiscoveryOverlay>(
    sc: &Scenario,
    source: &mut dyn WorkloadSource,
    make_proto: impl FnOnce(usize) -> P,
    can_dim: usize,
) -> RunReport {
    assert!(
        sc.duration_ms < soc_types::RUN_LIMIT_MS,
        "duration_ms: must be < {} (2^32 ms)",
        soc_types::RUN_LIMIT_MS
    );
    // soc-lint: allow(no-wall-clock) -- wall_ms is diagnostic-only and excluded from fingerprint() (see report.rs FINGERPRINT_EXCLUDED)
    let wall_start = std::time::Instant::now();
    let mut nodes = bootstrap(sc, source, make_proto, can_dim);
    nodes.start();
    nodes.run();
    finish::finish(nodes, wall_start)
}

/// Build the scenario's configured synthetic workload source (the object a
/// trace recorder wraps).
pub fn build_source(sc: &Scenario) -> SyntheticSource {
    SyntheticSource::new(
        sc.workload,
        sc.lambda,
        sc.mean_arrival_s,
        sc.mean_duration_s,
    )
}

/// Run a scenario with its configured protocol and workload.
pub fn run_scenario(sc: &Scenario) -> RunReport {
    let mut source = build_source(sc);
    run_scenario_with(sc, &mut source)
}

/// Run a scenario pulling all workload decisions from an explicit
/// [`WorkloadSource`] — the trace record/replay entry point. The source
/// must match the scenario's shape (node counts, call order); the
/// scenario's own `workload` spec is ignored.
pub fn run_scenario_with(sc: &Scenario, source: &mut dyn WorkloadSource) -> RunReport {
    // Scaled-down scenarios shrink task durations; protocol cycles shrink
    // by the same factor so staleness-vs-lifetime ratios stay faithful.
    let f = (sc.mean_duration_s / 3000.0).min(1.0);
    let dims = soc_types::SOC_DIMS;
    let cfg = match sc.protocol {
        ProtocolChoice::Hid => PidCanConfig::hid(),
        ProtocolChoice::Sid => PidCanConfig::sid(),
        ProtocolChoice::HidSos => PidCanConfig::hid_sos(),
        ProtocolChoice::SidSos => PidCanConfig::sid_sos(),
        ProtocolChoice::SidVd => PidCanConfig::sid_vd(),
        ProtocolChoice::Newscast => {
            let cfg = GossipConfig::default().scale_cycles(f);
            let make = |max_nodes| Newscast::new(cfg, sc.n_nodes, max_nodes);
            return run_with(sc, source, make, dims);
        }
        ProtocolChoice::Khdn => {
            let cfg = KhdnConfig::default().scale_cycles(f);
            let make = |max_nodes| KhdnCan::new(cfg, sc.n_nodes, max_nodes);
            return run_with(sc, source, make, dims);
        }
    };
    let cfg = cfg.scale_cycles(f);
    let dim = cfg.overlay_dim();
    let make = |max_nodes| PidCan::new(cfg, dim, sc.n_nodes, max_nodes);
    run_with(sc, source, make, dim)
}

#[cfg(test)]
#[path = "tests/run.rs"]
mod tests;

#[cfg(test)]
#[path = "tests/fault.rs"]
mod fault_tests;

#[cfg(test)]
#[path = "tests/checkpoint.rs"]
mod checkpoint_tests;

#[cfg(test)]
#[path = "tests/exec.rs"]
mod exec_tests;
