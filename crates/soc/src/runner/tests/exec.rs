use super::{build_source, run_with};
use crate::scenario::{ProtocolChoice, Scenario};
use pidcan::{PidCan, PidCanConfig};
use soc_net::FaultConfig;
use soc_overlay::{Ctx, DiscoveryOverlay, QueryRequest, TimerKind};
use soc_types::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where [`Tripwire`] panics — or, for the one passive wire, counts.
#[derive(Clone, Copy)]
enum Trip {
    /// On the k-th message delivery — a node event.
    Delivery(usize),
    /// On the first node departure — a churn swap.
    Leave,
    /// Never: count the departures of nodes that, as observers, hold
    /// an active blacklist entry against any of the `ids` node ids.
    WatchLeaves {
        ids: u32,
        observers_gone: &'static AtomicU64,
    },
}

/// A protocol that behaves exactly like `inner` until its tripwire
/// fires.
struct Tripwire<P> {
    inner: P,
    trip: Trip,
}

impl<P: DiscoveryOverlay> DiscoveryOverlay for Tripwire<P> {
    type Msg = P::Msg;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>, nodes: &[NodeId]) {
        self.inner.on_start(ctx, nodes)
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
            // The hook runs before the churn swap forgets the
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

/// A 120-node HID run with a tripwire around the protocol.
fn run_tripped(trip: Trip, churn: f64) {
    let sc = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .hours(1)
        .churn(churn)
        .seed(16);
    let cfg = PidCanConfig::hid();
    let dim = cfg.overlay_dim();
    let tripped = |max_nodes| Tripwire {
        inner: PidCan::new(cfg, dim, sc.n_nodes, max_nodes),
        trip,
    };
    run_with(&sc, &mut build_source(&sc), tripped, dim);
}

/// The shape of `PIN_LANS_DEFENCE` in the bench crate's
/// `fault_equivalence` suite — 8 LANs, churn 0.5, blackholes and liars,
/// defence on — really does what that pin is there for: nodes that
/// blacklist others are churned away (so `node_leave` must forget an
/// observer's own row and everyone's suspicions about it), and strikes
/// keep landing throughout.
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
            defense: true,
            ..FaultConfig::default()
        });
    sc.lan_size = 30;
    let cfg = PidCanConfig::hid();
    let dim = cfg.overlay_dim();
    let watched = |max_nodes: usize| Tripwire {
        inner: PidCan::new(cfg, dim, sc.n_nodes, max_nodes),
        trip: Trip::WatchLeaves {
            ids: max_nodes as u32,
            observers_gone: &OBSERVERS_GONE,
        },
    };
    let r = run_with(&sc, &mut build_source(&sc), watched, dim);
    assert!(r.faults.suspicions > 0 && r.faults.blacklisted > 0);
    assert!(
        OBSERVERS_GONE.load(Ordering::Relaxed) > 0,
        "no blacklisting observer ever left: {:?}",
        r.faults
    );
}

/// A protocol handler that panics on a node event leaves the run with its
/// own message — nothing between the handler and the caller rewraps it.
#[test]
#[should_panic(expected = "tripwire: delivery handler blew up")]
fn handler_panic_keeps_its_message() {
    run_tripped(Trip::Delivery(500), 0.0);
}

/// Same for a protocol hook a churn swap calls.
#[test]
#[should_panic(expected = "tripwire: churn handler blew up")]
fn churn_hook_panic_keeps_its_message() {
    run_tripped(Trip::Leave, 0.75);
}
