//! The events the node queue holds, and the profiler phase each is
//! charged to.

use crate::profile::Phase;
use soc_net::MsgKind;
use soc_types::{NodeId, QueryId, ResVec, SimMillis, TaskId};

/// A task en route to its execution node, with fallback candidates in
/// best-fit order (Inequality (2) is re-checked on arrival; a node that no
/// longer qualifies rejects, and the task bounces back through the
/// requester to the next candidate). Carries its own expectation so the
/// executing node can settle the efficiency when the task finishes.
#[derive(Clone, Debug)]
pub(super) struct DispatchSpec {
    pub(super) tid: TaskId,
    pub(super) expect: ResVec,
    pub(super) duration_s: f64,
    pub(super) submitted_at: SimMillis,
    pub(super) requester: NodeId,
    pub(super) fallbacks: Vec<NodeId>,
    /// Expected execution time per Equation (4) (work over the system-wide
    /// average capacity), fixed at submission.
    pub(super) expect_s: f64,
    /// Locally scheduled (never exercised discovery)?
    pub(super) is_local: bool,
}

/// The run's events: node events, each anchored to one node, and the two
/// whole-system ones (churn swaps and metric samples).
///
/// An event is moved several times between the handler that emits it and
/// the handler that consumes it (effect → queue slab → pop → dispatch),
/// so it stays at 48 bytes: protocol messages box their fat bodies (see
/// the message enums), and the dispatch payload rides behind a `Box` that
/// bounces with the task.
pub(super) enum Ev<M> {
    Deliver {
        /// Sender — the suspicion source when the delivery is suppressed
        /// by a blackhole receiver.
        from: NodeId,
        to: NodeId,
        /// Accounting class (blackholes spare `FoundNotify`: an evil
        /// requester still collects its own results).
        kind: MsgKind,
        msg: M,
    },
    ProtoTimer {
        node: NodeId,
        kind: u32,
    },
    Arrival {
        node: NodeId,
    },
    QueryTimeout {
        qid: QueryId,
    },
    TaskArrive {
        to: NodeId,
        spec: Box<DispatchSpec>,
    },
    Completion {
        node: NodeId,
        epoch: u64,
    },
    /// Forward-timeout suspicion: `by` sent a message to `of` that a fault
    /// swallowed; after the suspicion delay, `by` registers a strike.
    Suspect {
        by: NodeId,
        of: NodeId,
    },
    /// One departure and one join (§IV-B churn).
    ChurnSwap,
    /// Periodic metric sample.
    Sample,
}

const _: () = {
    assert!(std::mem::size_of::<Ev<pidcan::PidMsg>>() <= 48);
    assert!(std::mem::size_of::<Ev<soc_khdn::KhdnMsg>>() <= 48);
    assert!(std::mem::size_of::<Ev<soc_gossip::GossipMsg>>() <= 48);
};

/// The event-arm phase charged for one popped event. Total order and
/// disjointness come for free: every event lands in exactly one arm — the
/// compiler demands an arm per variant, and the two lints below keep a
/// `_ =>` from standing in for one (clippy files a wildcard that covers a
/// single variant under its own name), so no event can leave the
/// profiler's tiling of the loop.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(super) fn dispatch_phase<M>(ev: &Ev<M>) -> Phase {
    match ev {
        Ev::Deliver { .. } => Phase::DeliverMsg,
        Ev::ProtoTimer { .. } => Phase::ProtoTimer,
        Ev::Arrival { .. } => Phase::Arrival,
        Ev::QueryTimeout { .. } => Phase::QueryTimeout,
        Ev::TaskArrive { .. } => Phase::TaskArrive,
        Ev::Completion { .. } => Phase::Completion,
        Ev::Suspect { .. } => Phase::Suspect,
        Ev::ChurnSwap => Phase::ChurnSwap,
        Ev::Sample => Phase::Sample,
    }
}
