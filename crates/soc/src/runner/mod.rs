//! The event loop: tasks, queries, dispatch, execution, churn, metrics.
//!
//! A run is two values pumped by one loop on the calling thread:
//!
//! - The **node side** ([`nodes`]) owns every node id: the CAN overlay and
//!   LAN topology, one event queue ([`event`]), the protocol instance, the
//!   executors, pending queries, the workload source and the node-side RNG
//!   streams. Every per-node table — executors, completion memo,
//!   blacklists, the protocol's caches and finger tables — is a plain
//!   `Vec` indexed by [`soc_types::NodeId::idx`].
//! - The **coordinator** ([`coord`]) holds whole-system concerns (churn,
//!   metric sampling, capacity draws for joiners) on its own queue. At
//!   equal instants a coordinator event runs first, so churn and sampling
//!   at `t` precede node events at `t`.
//!
//! [`boot`] builds both, [`drive`] pumps them, [`finish`] assembles the
//! report. Both queues order by `(timestamp, insertion sequence)`, so
//! insertion order fixes every same-instant tie and a run is a pure
//! function of `(scenario, seed)` — and of `SOC_FAULT_DEFENSE`, the one
//! knob that changes an outcome.

mod boot;
mod coord;
mod event;
mod finish;
mod nodes;

use crate::report::RunReport;
use crate::scenario::{ProtocolChoice, Scenario};
use boot::bootstrap;
use coord::{CoEv, Coord};
use nodes::Nodes;
use pidcan::{PidCan, PidCanConfig};
use soc_gossip::{GossipConfig, Newscast};
use soc_khdn::{KhdnCan, KhdnConfig};
use soc_overlay::DiscoveryOverlay;
use soc_workload::{SyntheticSource, WorkloadSource};

fn defense_from_env() -> bool {
    soc_types::knobs::value("SOC_FAULT_DEFENSE").as_deref() == Some("on")
}

/// Run one scenario; `make_proto` builds the protocol instance for an id
/// capacity (see [`boot::bootstrap`]).
fn run_with<P: DiscoveryOverlay>(
    sc: &Scenario,
    source: &mut dyn WorkloadSource,
    make_proto: impl FnOnce(usize) -> P,
    can_dim: usize,
    defense_on: bool,
) -> RunReport {
    // soc-lint: allow(no-wall-clock) -- wall_ms is diagnostic-only and excluded from fingerprint() (see report.rs FINGERPRINT_EXCLUDED)
    let wall_start = std::time::Instant::now();
    let (mut coord, mut nodes) = bootstrap(sc, source, make_proto, can_dim, defense_on);

    // Protocol start-up, then the arrival chains, over the live nodes in
    // id order.
    nodes.with_proto(|p, ctx| p.on_start(ctx, &coord.live));
    // `on_start` emits for every node in one callback; dropped here, the
    // recycled buffers regrow to the size of one steady-state event's
    // effects instead of keeping start-up's.
    nodes.fx_buf = Vec::new();
    nodes.fx_next = Vec::new();
    for &node in &coord.live {
        nodes.schedule_arrival(node);
    }
    // Sampling + churn live on the coordinator queue.
    coord.cq.schedule_at(sc.sample_ms, CoEv::Sample);
    coord.schedule_next_churn(0);

    drive(&mut coord, &mut nodes);

    finish::finish(coord, nodes, wall_start)
}

/// Run the earliest coordinator event while it is due at or before the
/// earliest node event; otherwise pump node events up to the next
/// coordinator event. Returns when no event remains at or before the
/// deadline.
fn drive<P: DiscoveryOverlay>(coord: &mut Coord<'_>, nodes: &mut Nodes<'_, P>) {
    let deadline = coord.sc.duration_ms;
    loop {
        let tn = nodes.queue.peek_time().filter(|&t| t <= deadline);
        match coord.cq.peek_time().filter(|&t| t <= deadline) {
            Some(tc) if tn.is_none_or(|t| tc <= t) => {
                let (at, ev) = coord.cq.pop_until(tc).expect("peeked coordinator event");
                debug_assert_eq!(at, tc);
                coord.handle_coev(nodes, tc, ev);
            }
            // `tc > tn` here, so the earliest node event is inside.
            Some(tc) => nodes.pump(tc),
            None if tn.is_some() => nodes.pump(deadline + 1),
            None => break,
        }
    }
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
    let defense_on = defense_from_env();
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
            return run_with(sc, source, make, dims, defense_on);
        }
        ProtocolChoice::Khdn => {
            let cfg = KhdnConfig::default().scale_cycles(f);
            let make = |max_nodes| KhdnCan::new(cfg, sc.n_nodes, max_nodes);
            return run_with(sc, source, make, dims, defense_on);
        }
    };
    let mut cfg = cfg.scale_cycles(f);
    cfg.corner_jitter = sc.corner_jitter;
    let dim = cfg.overlay_dim();
    let make = |max_nodes| PidCan::new(cfg, dim, sc.n_nodes, max_nodes);
    run_with(sc, source, make, dim, defense_on)
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
