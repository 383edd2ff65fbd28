//! The [`DiscoveryOverlay`] trait and the effect-based protocol context.

use rand::rngs::SmallRng;
use soc_can::CanOverlay;
use soc_net::{MsgCounts, MsgKind};
use soc_types::{NodeId, QueryId, ResVec, SimMillis};

/// Protocol-defined timer discriminant (e.g. "state-update cycle",
/// "diffusion cycle"). Values are private to each protocol.
pub type TimerKind = u32;

/// Read-only host information protocols may consult.
pub trait HostInfo {
    /// Current availability vector `a_i` of a node (clamped at zero).
    fn availability(&self, node: NodeId) -> ResVec;
    /// The global capacity upper bound `cmax` (Formula (3)).
    fn cmax(&self) -> &ResVec;
    /// Is the node currently alive (not churned away)?
    fn is_alive(&self, node: NodeId) -> bool;
    /// Does `by` currently suspect `node` of misbehaviour (blacklisted by
    /// the fault-defence layer)? Routing avoids suspected next hops.
    /// Default: nobody suspects anybody — the cooperative baseline.
    fn is_suspect(&self, by: NodeId, node: NodeId, now: SimMillis) -> bool {
        let _ = (by, node, now);
        false
    }
}

/// A discovery request handed to the overlay by the scenario runner.
#[derive(Clone, Copy, Debug)]
pub struct QueryRequest {
    /// Query identity.
    pub qid: QueryId,
    /// The node issuing the query (where the task was submitted).
    pub requester: NodeId,
    /// The task's expectation vector `e(t_ij)` in raw resource units.
    pub demand: ResVec,
    /// `δ`: how many qualified records the requester wants (the paper's
    /// "first k matched results").
    pub wanted: usize,
}

/// A qualified record returned to the requester.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// The advertised node.
    pub node: NodeId,
    /// Its advertised availability (possibly stale — that is the point).
    pub avail: ResVec,
}

/// Terminal protocol verdict for a query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryVerdict {
    /// The protocol exhausted its search without enough results. Whatever
    /// candidates were already reported still count.
    Exhausted,
}

/// Effects a protocol handler requests; the runner applies them after the
/// handler returns (message latencies, accounting, task dispatch).
#[derive(Clone, Debug)]
pub enum Effect<M> {
    /// Send a protocol message (runner samples latency, counts traffic).
    Send {
        /// Sending node (charged for the message).
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Accounting class.
        kind: MsgKind,
        /// Payload delivered to `on_message`.
        msg: M,
    },
    /// Arm a timer for `node` after `delay` ms.
    Timer {
        /// Node whose timer fires.
        node: NodeId,
        /// Protocol-defined discriminant.
        kind: TimerKind,
        /// Delay from now, in ms.
        delay: SimMillis,
    },
    /// Report found candidates for a query (may be emitted several times —
    /// the FoundList notifications of Algorithm 5).
    QueryResults {
        /// The query these belong to.
        qid: QueryId,
        /// Qualified records found.
        candidates: Vec<Candidate>,
    },
    /// The protocol is done with this query (gave up or finished).
    QueryDone {
        /// The query.
        qid: QueryId,
        /// Verdict (currently only exhaustion; success is implied by
        /// `QueryResults` reaching `wanted`).
        verdict: QueryVerdict,
    },
}

/// The world as a protocol handler sees it for the duration of one event.
pub struct Ctx<'a, M> {
    /// Current simulation time.
    pub now: SimMillis,
    /// The CAN overlay structure (zones + neighbors). Gossip ignores it.
    pub can: &'a CanOverlay,
    /// Host/capacity information.
    pub host: &'a dyn HostInfo,
    /// Protocol randomness (its own deterministic stream).
    pub rng: &'a mut SmallRng,
    /// Routing steps computed in this callback (one per INSCAN finger or
    /// greedy next-hop step). Protocols only add to it; the runner folds
    /// it into the run's totals, which the profile reports as `route`.
    pub routes: u64,
    /// Record-cache qualification probes made in this callback, kept
    /// like [`Ctx::routes`] and reported as `cache_probe`.
    pub probes: u64,
    effects: Vec<Effect<M>>,
    /// Per-kind counts of everything sent or charged in this callback,
    /// flushed by the runner as one `MsgStats::record_batch` instead of a
    /// scattered counter write per message.
    sent: MsgCounts,
}

impl<'a, M> Ctx<'a, M> {
    /// Build a context (runner-side).
    pub fn new(
        now: SimMillis,
        can: &'a CanOverlay,
        host: &'a dyn HostInfo,
        rng: &'a mut SmallRng,
    ) -> Self {
        Ctx {
            now,
            can,
            host,
            rng,
            routes: 0,
            probes: 0,
            effects: Vec::new(),
            sent: MsgCounts::new(),
        }
    }

    /// Build a context that reuses a recycled effects buffer.
    ///
    /// The scenario runner constructs one `Ctx` per delivered event; handing
    /// back the drained buffer from the previous event makes the per-event
    /// allocation count zero on the steady-state path.
    pub fn new_in(
        now: SimMillis,
        can: &'a CanOverlay,
        host: &'a dyn HostInfo,
        rng: &'a mut SmallRng,
        mut buffer: Vec<Effect<M>>,
    ) -> Self {
        buffer.clear();
        Ctx {
            now,
            can,
            host,
            rng,
            routes: 0,
            probes: 0,
            effects: buffer,
            sent: MsgCounts::new(),
        }
    }

    /// Queue a message send (counted against `from`'s traffic).
    pub fn send(&mut self, from: NodeId, to: NodeId, kind: MsgKind, msg: M) {
        self.sent.add(kind, 1);
        self.effects.push(Effect::Send {
            from,
            to,
            kind,
            msg,
        });
    }

    /// Arm a timer.
    pub fn timer(&mut self, node: NodeId, kind: TimerKind, delay: SimMillis) {
        self.effects.push(Effect::Timer { node, kind, delay });
    }

    /// Report candidates found for `qid`.
    pub fn query_results(&mut self, qid: QueryId, candidates: Vec<Candidate>) {
        self.effects.push(Effect::QueryResults { qid, candidates });
    }

    /// Declare the protocol finished with `qid`.
    pub fn query_done(&mut self, qid: QueryId, verdict: QueryVerdict) {
        self.effects.push(Effect::QueryDone { qid, verdict });
    }

    /// Charge maintenance traffic performed synchronously (e.g. finger
    /// refresh walks) to `node`'s account. Pure accounting — no effect is
    /// queued; the counts flush with everything else in [`Ctx::finish`].
    pub fn charge(&mut self, node: NodeId, kind: MsgKind, count: u64) {
        let _ = node;
        self.sent.add(kind, count);
    }

    /// Drain the queued effects and the batched traffic counts
    /// (runner-side). The counts cover every `send` and `charge` this
    /// context saw and are folded into `MsgStats` in one batch.
    pub fn finish(self) -> (Vec<Effect<M>>, MsgCounts) {
        (self.effects, self.sent)
    }

    /// Normalize a raw resource vector into CAN key-space coordinates.
    pub fn normalize(&self, v: &ResVec) -> ResVec {
        v.normalize(self.host.cmax())
    }
}

/// A resource-discovery protocol under evaluation.
///
/// All methods receive the per-event [`Ctx`]; handlers must be
/// deterministic given `(state, event, rng stream)`.
///
/// The scenario runner builds one instance per run, holding every node
/// id's rows, and never copies it.
pub trait DiscoveryOverlay {
    /// Protocol message payload.
    type Msg: Clone + std::fmt::Debug;

    /// Human-readable protocol name (report labels).
    fn name(&self) -> &'static str;

    /// Called once at simulation start, before any event: arm the initial
    /// timers (and build the initial routing state) of `nodes` — the live
    /// nodes, in ascending id order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>, nodes: &[NodeId]);

    /// A message arrived at `node`.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId, msg: Self::Msg);

    /// A timer armed via [`Ctx::timer`] fired at `node`.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId, kind: TimerKind);

    /// Begin a discovery query (the runner handles collection of results,
    /// best-fit selection, dispatch and timeouts).
    fn start_query(&mut self, ctx: &mut Ctx<'_, Self::Msg>, req: QueryRequest);

    /// The runner settled `qid` — dispatched its task, or counted it failed
    /// or killed — and ignores whatever still arrives for it: drop the
    /// requester-side bookkeeping [`Self::start_query`] created. Default:
    /// no-op (nothing kept per query).
    fn on_query_settled(&mut self, qid: QueryId) {
        let _ = qid;
    }

    /// A node joined the overlay (churn); per-node state should be reset.
    fn on_node_joined(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId);

    /// A node left the overlay (churn); references to it should be dropped.
    fn on_node_left(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId);

    /// Diagnostic: free-form protocol counters for calibration reports.
    fn diag_string(&self) -> String {
        String::new()
    }

    /// Diagnostic: does any node's *cached record* currently qualify
    /// `demand`? `None` when the protocol cannot answer (default). Used by
    /// calibration oracles only — never by protocol logic.
    fn diag_record_match(
        &self,
        demand: &soc_types::ResVec,
        now: soc_types::SimMillis,
    ) -> Option<bool> {
        let _ = (demand, now);
        None
    }

    /// Zones were reassigned by a join/leave takeover; `affected` nodes own
    /// different zones now and may want to refresh routing state. Called
    /// after the overlay structure has been updated. Default: no-op.
    fn on_zones_reassigned(&mut self, ctx: &mut Ctx<'_, Self::Msg>, affected: &[NodeId]) {
        let _ = (ctx, affected);
    }

    /// A message could not be delivered because the target (`to`) churned
    /// away; invoked at the *sender* (transport-failure detection), which
    /// should route around `to`. Default: the message is lost silently.
    fn on_message_dropped(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        to: NodeId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, from, to, msg);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use soc_types::ResVec;

    struct FakeHost {
        cmax: ResVec,
    }
    impl HostInfo for FakeHost {
        fn availability(&self, _node: NodeId) -> ResVec {
            ResVec::from_slice(&[1.0, 1.0])
        }
        fn cmax(&self) -> &ResVec {
            &self.cmax
        }
        fn is_alive(&self, _node: NodeId) -> bool {
            true
        }
    }

    #[test]
    fn ctx_queues_effects_in_order_and_batches_accounting() {
        let can = CanOverlay::new(2, 4, NodeId(0));
        let host = FakeHost {
            cmax: ResVec::from_slice(&[2.0, 2.0]),
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx: Ctx<'_, u32> = Ctx::new(5, &can, &host, &mut rng);
        ctx.send(NodeId(0), NodeId(1), MsgKind::DutyQuery, 7);
        ctx.timer(NodeId(0), 3, 100);
        ctx.query_results(QueryId(9), vec![]);
        ctx.query_done(QueryId(9), QueryVerdict::Exhausted);
        ctx.charge(NodeId(2), MsgKind::Maintenance, 5);
        let (fx, sent) = ctx.finish();
        assert_eq!(fx.len(), 4, "charge is accounting, not an effect");
        assert!(matches!(fx[0], Effect::Send { to: NodeId(1), .. }));
        assert!(matches!(
            fx[1],
            Effect::Timer {
                kind: 3,
                delay: 100,
                ..
            }
        ));
        assert!(matches!(fx[2], Effect::QueryResults { .. }));
        assert!(matches!(
            fx[3],
            Effect::QueryDone {
                verdict: QueryVerdict::Exhausted,
                ..
            }
        ));
        assert_eq!(sent.count(MsgKind::DutyQuery), 1);
        assert_eq!(sent.count(MsgKind::Maintenance), 5);
        assert_eq!(sent.count(MsgKind::Dispatch), 0);
    }

    #[test]
    fn normalize_uses_host_cmax() {
        let can = CanOverlay::new(2, 4, NodeId(0));
        let host = FakeHost {
            cmax: ResVec::from_slice(&[2.0, 4.0]),
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let ctx: Ctx<'_, ()> = Ctx::new(0, &can, &host, &mut rng);
        let n = ctx.normalize(&ResVec::from_slice(&[1.0, 1.0]));
        assert_eq!(n.as_slice(), &[0.5, 0.25]);
    }
}
