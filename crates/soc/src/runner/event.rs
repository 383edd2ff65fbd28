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
/// and most of the run's pending events are timers, so it is 16 bytes: a
/// message body waits in [`Msgs`] and the event names its slot, and the
/// dispatch payload rides behind a `Box` that bounces with the task.
pub(super) enum Ev {
    Deliver {
        /// Sender — the suspicion source when the delivery is suppressed
        /// by a blackhole receiver.
        from: NodeId,
        to: NodeId,
        /// Accounting class (blackholes spare `FoundNotify`: an evil
        /// requester still collects its own results).
        kind: MsgKind,
        /// The body, taken out of [`Msgs`] as soon as the event pops.
        msg: MsgSlot,
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

// The tag leaves `Option<Ev>` a niche, so the queue's slab node is the
// 16-byte event plus its 8 bytes of links.
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Ev>() == 16);
    assert!(size_of::<Option<Ev>>() == 16);
};

/// Names one message body waiting in [`Msgs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct MsgSlot(u32);

/// The bodies of the messages in flight: one slot per `Ev::Deliver` still
/// queued, filled when the delivery is scheduled and emptied when it pops.
/// Freed slots are reused last in, first out, so the slab is as long as
/// the most deliveries ever pending at once.
pub(super) struct Msgs<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
}

// `put` and `take` are `#[inline]`: left out of line they cost
// message-heavy runs 3–4 % of wall time (`churn-storm`, `gossip-baseline`),
// with the body passed through the stack and `LanTopology::latency` pushed
// out of `apply_effects`.
impl<M> Msgs<M> {
    pub(super) fn new() -> Self {
        Msgs {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `msg` in the most recently freed slot, or a new one.
    #[inline]
    pub(super) fn put(&mut self, msg: M) -> MsgSlot {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(msg);
                MsgSlot(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("message slab outgrew u32 slots");
                self.slots.push(Some(msg));
                MsgSlot(i)
            }
        }
    }

    /// Take the body out of `slot` and free the slot.
    #[inline]
    pub(super) fn take(&mut self, slot: MsgSlot) -> M {
        let msg = self.slots[slot.0 as usize]
            .take()
            .unwrap_or_else(|| panic!("message slot {} taken while free", slot.0));
        self.free.push(slot.0);
        msg
    }

    /// Slots holding a body.
    #[cfg(test)]
    pub(super) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever allocated: the most bodies held at once.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }
}

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
pub(super) fn dispatch_phase(ev: &Ev) -> Phase {
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

#[cfg(test)]
mod tests {
    use super::{MsgSlot, Msgs};
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut m = Msgs::new();
        let (a, b, c) = (m.put('a'), m.put('b'), m.put('c'));
        assert_eq!((a, b, c), (MsgSlot(0), MsgSlot(1), MsgSlot(2)));
        assert_eq!(m.take(a), 'a');
        assert_eq!(m.take(c), 'c');
        assert_eq!((m.live(), m.len()), (1, 3));
        assert_eq!(m.put('d'), c);
        assert_eq!(m.put('e'), a);
        assert_eq!(m.put('f'), MsgSlot(3));
        assert_eq!((m.take(b), m.take(c), m.take(a)), ('b', 'd', 'e'));
        assert_eq!((m.live(), m.len()), (1, 4));
    }

    #[test]
    #[should_panic(expected = "message slot 0 taken while free")]
    fn taking_a_freed_slot_panics() {
        let mut m = Msgs::new();
        let a = m.put(1u8);
        m.take(a);
        m.take(a);
    }

    struct Counted(Rc<Cell<u32>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn dropping_the_slab_drops_each_held_body_once() {
        let drops = Rc::new(Cell::new(0));
        let mut m = Msgs::new();
        let slots: Vec<MsgSlot> = (0..5).map(|_| m.put(Counted(drops.clone()))).collect();
        drop(m.take(slots[1]));
        drop(m.take(slots[3]));
        assert_eq!(drops.get(), 2);
        drop(m);
        assert_eq!(drops.get(), 5);
    }
}
