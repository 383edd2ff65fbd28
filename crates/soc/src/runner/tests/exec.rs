use super::boot::{bootstrap, id_headroom};
use super::shard::Shard;
use super::{build_source, run_windowed};
use crate::scenario::{ProtocolChoice, Scenario};
use pidcan::{PidCan, PidCanConfig};
use soc_gossip::{GossipConfig, Newscast};
use soc_khdn::{KhdnCan, KhdnConfig};
use soc_net::FaultConfig;
use soc_overlay::{Ctx, DiscoveryOverlay, QueryRequest, TimerKind};
use soc_types::NodeId;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where [`Tripwire`] panics — or, for the one passive wire, counts.
#[derive(Clone, Copy)]
enum Trip {
    /// On a shard's k-th message delivery — inside a window.
    Delivery(usize),
    /// On the first node departure — on the coordinator, between windows.
    Leave,
    /// Never: count the departures of nodes that, as observers, hold
    /// an active blacklist entry against any of the `ids` node ids.
    WatchLeaves {
        ids: u32,
        observers_gone: &'static AtomicU64,
    },
}

/// A protocol that behaves exactly like `inner` until its tripwire
/// fires. Every shard's instance carries its own copy of the wire.
struct Tripwire<P> {
    inner: P,
    trip: Trip,
}

impl<P: DiscoveryOverlay> DiscoveryOverlay for Tripwire<P> {
    type Msg = P::Msg;
    const SHARDABLE: bool = P::SHARDABLE;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>, nodes: &[NodeId]) {
        self.inner.on_start(ctx, nodes)
    }
    fn absorb_diag(&mut self, other: &Self) {
        self.inner.absorb_diag(&other.inner)
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId, msg: Self::Msg) {
        if let Trip::Delivery(left) = &mut self.trip {
            *left -= 1;
            assert!(*left > 0, "tripwire: delivery handler blew up");
        }
        self.inner.on_message(ctx, node, msg)
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId, kind: TimerKind) {
        self.inner.on_timer(ctx, node, kind)
    }
    fn start_query(&mut self, ctx: &mut Ctx<'_, Self::Msg>, req: QueryRequest) {
        self.inner.start_query(ctx, req)
    }
    fn on_node_joined(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId) {
        self.inner.on_node_joined(ctx, node)
    }
    fn on_node_left(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId) {
        assert!(
            !matches!(self.trip, Trip::Leave),
            "tripwire: churn handler blew up"
        );
        if let Trip::WatchLeaves {
            ids,
            observers_gone,
        } = self.trip
        {
            // The hook runs before the coordinator forgets the
            // victim's suspicions, so they are still readable here.
            if (0..ids).any(|x| ctx.host.is_suspect(node, NodeId(x), ctx.now)) {
                observers_gone.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.on_node_left(ctx, node)
    }
    fn on_zones_reassigned(&mut self, ctx: &mut Ctx<'_, Self::Msg>, affected: &[NodeId]) {
        self.inner.on_zones_reassigned(ctx, affected)
    }
    fn on_message_dropped(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        to: NodeId,
        msg: Self::Msg,
    ) {
        self.inner.on_message_dropped(ctx, from, to, msg)
    }
}

/// A 120-node (4-LAN, 4-shard) HID run with a tripwire around the
/// protocol.
fn run_tripped(trip: Trip, churn: f64) {
    let sc = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .hours(1)
        .churn(churn)
        .seed(16);
    let cfg = PidCanConfig::hid();
    let dim = cfg.overlay_dim();
    let tripped = |ids| Tripwire {
        inner: PidCan::for_range(cfg, dim, sc.n_nodes, ids),
        trip,
    };
    run_windowed(&sc, &mut build_source(&sc), tripped, dim, false);
}

/// The shape of `PIN_LANS_DEFENCE` in the bench crate's
/// `fault_equivalence` suite — 8 one-LAN shards, churn 0.5, blackholes and
/// liars, defence on — really does what that pin is there for: nodes
/// that blacklist others are churned away (so `node_leave` must forget
/// an observer's row on one shard and the suspicions about it on all),
/// and strikes keep landing throughout.
#[test]
fn churn_takes_blacklisting_observers_away() {
    static OBSERVERS_GONE: AtomicU64 = AtomicU64::new(0);
    let mut sc = Scenario::quick(ProtocolChoice::Hid)
        .nodes(192)
        .hours(2)
        .churn(0.5)
        .seed(16)
        .fault(FaultConfig {
            blackhole_frac: 0.15,
            liar_frac: 0.1,
            ..FaultConfig::default()
        });
    sc.lan_size = 30;
    let cfg = PidCanConfig::hid();
    let dim = cfg.overlay_dim();
    let max_nodes = sc.n_nodes + id_headroom(sc.n_nodes);
    let watched = |ids| Tripwire {
        inner: PidCan::for_range(cfg, dim, sc.n_nodes, ids),
        trip: Trip::WatchLeaves {
            ids: max_nodes as u32,
            observers_gone: &OBSERVERS_GONE,
        },
    };
    let r = run_windowed(&sc, &mut build_source(&sc), watched, dim, true);
    assert!(r.faults.suspicions > 0 && r.faults.blacklisted > 0);
    assert!(
        OBSERVERS_GONE.load(Ordering::Relaxed) > 0,
        "no blacklisting observer ever left: {:?}",
        r.faults
    );
}

/// A protocol handler that panics inside a window leaves the run with its
/// own message — nothing between the handler and the caller rewraps it.
#[test]
#[should_panic(expected = "tripwire: delivery handler blew up")]
fn handler_panic_in_a_window_keeps_its_message() {
    run_tripped(Trip::Delivery(500), 0.0);
}

/// Same for a protocol hook the coordinator calls between windows.
#[test]
#[should_panic(expected = "tripwire: churn handler blew up")]
fn hook_panic_between_windows_keeps_its_message() {
    run_tripped(Trip::Leave, 0.75);
}

/// The id ranges `(execs, comp_sched, blacklist rows)` of every shard.
fn held<P: DiscoveryOverlay>(shards: &[Shard<P>]) -> Vec<[Range<u32>; 3]> {
    shards
        .iter()
        .map(|sh| {
            [
                sh.hosts.execs.owned(),
                sh.comp_sched.owned(),
                sh.hosts.blacklist.observers(),
            ]
        })
        .collect()
}

/// Every per-node table is sized to the shard's own ids: over an
/// 8-shard bootstrap the rows of each table add up to `max_nodes`, not
/// `8 · max_nodes`, the ranges tile the id space in shard order, and
/// they are the `shard_of` map read the other way. A single shard — an
/// oracle run's, or an unshardable protocol's — holds every id. The shard
/// count is decided in `bootstrap` and nowhere else, so the shapes the
/// benchmark runs are pinned here too.
#[test]
fn shards_hold_rows_for_their_own_ids_only() {
    // 128 nodes + 32 headroom ids in 20-node LANs: 8 LANs, 8 shards.
    let mut sc = Scenario::quick(ProtocolChoice::Hid).nodes(128).seed(17);
    sc.lan_size = 20;
    let max_nodes = (sc.n_nodes + id_headroom(sc.n_nodes)) as u32;
    let cfg = PidCanConfig::hid();
    let dim = cfg.overlay_dim();
    let boot = |sc: &Scenario| {
        let mut src = build_source(sc);
        let hid = |ids| PidCan::for_range(cfg, dim, sc.n_nodes, ids);
        let (_, world, shards) = bootstrap(sc, &mut src, hid, dim, false);
        (world, shards)
    };

    let (world, shards) = boot(&sc);
    assert_eq!(shards.len(), 8);
    let mut next = 0;
    for (sid, (sh, rows)) in shards.iter().zip(held(&shards)).enumerate() {
        let ids = sh.proto.owned();
        assert_eq!(ids.start, next, "shard {sid} leaves a gap or overlaps");
        assert!(!ids.is_empty());
        assert_eq!(rows, [ids.clone(), ids.clone(), ids.clone()]);
        assert!(ids.clone().all(|i| world.shard_of[i as usize] == sid));
        // What every shard reads for foreign ids stays full-size.
        assert_eq!(sh.hosts.alive.len(), max_nodes as usize);
        next = ids.end;
    }
    assert_eq!(next, max_nodes, "the shards' ranges tile the id space");

    // The three sharded benchmark shapes: `paper-cell` (2 500 ids in
    // 32-node LANs = 79 LANs), `churn-storm` (750 ids, 24 LANs) and
    // `large-n` (12 500 ids, 391 LANs) all cut into 8.
    let paper = Scenario::paper(ProtocolChoice::Hid);
    for (n, lans) in [(2000, 79), (600, 24), (10_000, 391)] {
        let (world, shards) = boot(&paper.nodes(n));
        assert_eq!(world.topo.n_lans(), lans);
        assert_eq!(shards.len(), 8, "{n} nodes in {lans} LANs");
    }

    sc.oracle = true;
    let (_, shards) = boot(&sc);
    assert_eq!(shards.len(), 1);
    assert_eq!(shards[0].proto.owned(), 0..max_nodes);
    assert_eq!(held(&shards), [[0..max_nodes, 0..max_nodes, 0..max_nodes]]);

    sc.oracle = false;
    let all = [[0..max_nodes, 0..max_nodes, 0..max_nodes]];
    let mut src = build_source(&sc);
    let n = max_nodes as usize;
    let gossip = |_| Newscast::new(GossipConfig::default(), sc.n_nodes, n);
    let (_, _, shards) = bootstrap(&sc, &mut src, gossip, soc_types::SOC_DIMS, false);
    assert_eq!(held(&shards), all);
    let khdn = |_| KhdnCan::new(KhdnConfig::default(), sc.n_nodes, n);
    let (_, _, shards) = bootstrap(&sc, &mut src, khdn, soc_types::SOC_DIMS, false);
    assert_eq!(held(&shards), all);
}

/// An unshardable protocol (gossip keeps cross-node handler state) runs
/// one shard through the same loop: no lookahead bound, one window per
/// coordinator event, an outbox that stays empty.
#[test]
fn single_shard_protocols_fall_back_cleanly() {
    let sc = Scenario::quick(ProtocolChoice::Newscast)
        .nodes(80)
        .hours(1)
        .seed(15);
    let r = sc.run();
    assert!(r.generated > 0 && r.finished > 0, "{r:?}");
    assert_eq!(r.fingerprint(), sc.run().fingerprint());
}
