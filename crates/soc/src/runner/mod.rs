//! The event loop: tasks, queries, dispatch, execution, churn, metrics.
//!
//! # The windowed executor
//!
//! The simulation state is partitioned into **shards** — unions of whole
//! LANs, `min(8, LAN count)` of them — and driven by one loop, on the
//! calling thread, in bounded lookahead windows:
//!
//! - Every shard ([`shard`]) owns its nodes' event queue ([`event`]), protocol
//!   instance, workload fork, executors, pending queries and RNG streams.
//!   Its nodes are one contiguous id range, and every per-node table it
//!   keeps — executors, completion memo, blacklists, the protocol's caches
//!   and finger tables — has rows for that range and no other
//!   ([`soc_types::OwnedRows`]). A window `[w0, wb)` is chosen so that
//!   `wb − w0` never exceeds the minimum cross-LAN latency (the
//!   conservative lookahead `L`); each shard then pops its own events up to
//!   `wb` with no knowledge of the others.
//! - Events a shard generates for a foreign shard (message deliveries,
//!   task dispatches, suspicion timers for foreign observers) are buffered
//!   in a per-shard **outbox**. Since cross-shard always means cross-LAN,
//!   every such event fires at least `L` after the instant that produced
//!   it — i.e. at or after `wb` — so buffering until the window closes
//!   can never reorder it before an event the target shard already ran.
//! - When the window closes the outboxes are drained into the target
//!   queues in **sender-shard order, each in emission order** ([`drive`]).
//!   The queues order by `(timestamp, insertion sequence)`, so that
//!   insertion order alone fixes every same-instant tie — no sort — and
//!   the delivered schedule is a pure function of the buffered events.
//! - Global concerns (churn, metric sampling, capacity draws, the CAN
//!   structure) live on a **coordinator** ([`coord`]) with its own event
//!   queue. Coordinator events run between windows, with `&mut` access to
//!   the world and every shard.
//!
//! There is one way to build a shard and one way to pump it. [`boot`] is
//! handed a constructor `Fn(Range<u32>) -> P` and calls it once per shard
//! with the id range whose rows that shard's protocol instance holds; the
//! workload source is forked once per shard the same way. A protocol that
//! is not [`DiscoveryOverlay::SHARDABLE`] (the gossip baselines keep
//! cross-node handler state) and an oracle run get one shard that owns
//! every id — built and pumped exactly like one of eight. The shard count
//! is a constant of the simulated model, like `lan_size`: per-shard RNG
//! streams, id namespaces and workload forks make the cut part of what a
//! fingerprint pins, and nothing in the environment can change it.
//!
//! Nothing in a run is shared between threads: the shards are a plain
//! `Vec`, pumped one after the other. They remain because the cut decides
//! which RNG stream serves a draw and how same-instant events tie, so
//! every pinned `RunReport::fingerprint` depends on it; one plain queue
//! needs a partition-invariant tie-break first (ROADMAP G(3)). Pumping
//! the same windows on worker threads lost end to end (README, decisions
//! table). [`finish`] folds the shards into the report.

mod boot;
mod coord;
mod drive;
mod event;
mod finish;
mod shard;

use crate::report::RunReport;
use crate::scenario::{ProtocolChoice, Scenario};
use boot::bootstrap;
use coord::CoEv;
use pidcan::{PidCan, PidCanConfig};
use soc_can::CanOverlay;
use soc_gossip::{GossipConfig, Newscast};
use soc_khdn::{KhdnCan, KhdnConfig};
use soc_net::LanTopology;
use soc_overlay::DiscoveryOverlay;
use soc_types::{NodeId, SimMillis};
use soc_workload::{SyntheticSource, WorkloadSource};
use std::ops::Range;

fn defense_from_env() -> bool {
    soc_types::knobs::value("SOC_FAULT_DEFENSE").as_deref() == Some("on")
}

/// World state every shard reads during a window and only the coordinator
/// mutates (the CAN overlay, on churn), between windows.
struct World {
    can: CanOverlay,
    topo: LanTopology,
    /// Node → shard (whole-LAN groupings, fixed for the run).
    shard_of: Vec<usize>,
    /// Conservative lookahead: the minimum cross-LAN latency. Every
    /// cross-shard event fires at least this far after its cause.
    lookahead: SimMillis,
}

/// Run one scenario through the windowed engine; `make_proto` builds the
/// protocol instance that holds the rows of one id range (see
/// [`boot::bootstrap`]).
fn run_windowed<P: DiscoveryOverlay>(
    sc: &Scenario,
    source: &mut dyn WorkloadSource,
    make_proto: impl Fn(Range<u32>) -> P,
    can_dim: usize,
    defense_on: bool,
) -> RunReport {
    // soc-lint: allow(no-wall-clock) -- wall_ms is diagnostic-only and excluded from fingerprint() (see report.rs FINGERPRINT_EXCLUDED)
    let wall_start = std::time::Instant::now();
    let (mut coord, mut world, mut shards) = bootstrap(sc, source, make_proto, can_dim, defense_on);

    // Protocol start-up, then the arrival chains, per shard over its own
    // live nodes in id order. Cross-shard bootstrap sends are cross-LAN, so
    // buffering them to the first merge is within the lookahead rule.
    let mut own: Vec<Vec<NodeId>> = vec![Vec::new(); shards.len()];
    for &node in &coord.live {
        own[world.shard_of[node.idx()]].push(node);
    }
    for (sh, own) in shards.iter_mut().zip(&own) {
        sh.with_proto(&world, |p, ctx| p.on_start(ctx, own));
    }
    drive::merge_outboxes(&mut shards);
    for (sh, own) in shards.iter_mut().zip(&own) {
        // `on_start` emits for every node of the shard in one callback;
        // dropped here, the recycled buffers regrow to the size of one
        // steady-state event's effects instead of keeping start-up's.
        sh.fx_buf = Vec::new();
        sh.fx_next = Vec::new();
        sh.outbox = Vec::new();
        for &node in own {
            sh.schedule_arrival(node);
        }
    }
    // Sampling + churn live on the coordinator queue.
    coord.cq.schedule_at(sc.sample_ms, CoEv::Sample);
    coord.schedule_next_churn(0);

    drive::drive(&mut coord, &mut world, &mut shards);

    finish::finish(coord, shards, wall_start)
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
        // The baselines are not shardable: the one range their constructor
        // is handed is every id.
        ProtocolChoice::Newscast => {
            let cfg = GossipConfig::default().scale_cycles(f);
            let make = |ids: Range<u32>| Newscast::new(cfg, sc.n_nodes, ids.end as usize);
            return run_windowed(sc, source, make, dims, defense_on);
        }
        ProtocolChoice::Khdn => {
            let cfg = KhdnConfig::default().scale_cycles(f);
            let make = |ids: Range<u32>| KhdnCan::new(cfg, sc.n_nodes, ids.end as usize);
            return run_windowed(sc, source, make, dims, defense_on);
        }
    };
    let mut cfg = cfg.scale_cycles(f);
    cfg.corner_jitter = sc.corner_jitter;
    let dim = cfg.overlay_dim();
    let make = |ids| PidCan::for_range(cfg, dim, sc.n_nodes, ids);
    run_windowed(sc, source, make, dim, defense_on)
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
