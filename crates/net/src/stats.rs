//! Message-delivery accounting (the paper's "message delivery cost").

/// Every message class exchanged by any protocol in the evaluation.
///
/// Table III's "msg delivery cost" sums all of these; keeping them separate
/// also lets the benches report per-class breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Periodic availability-state record routed to its duty node.
    StateUpdate = 0,
    /// PID-CAN index diffusion (`{ID, dim_NO, dim_TTL}`) messages.
    IndexDiffusion = 1,
    /// Query routing toward the duty node (Algorithm 3).
    DutyQuery = 2,
    /// Index-agent messages (Algorithm 4).
    IndexAgent = 3,
    /// Index-jump messages (Algorithm 5).
    IndexJump = 4,
    /// FoundList (`ϕ`) notifications back to the requester.
    FoundNotify = 5,
    /// Task dispatch to the selected execution node.
    Dispatch = 6,
    /// Newscast view-exchange messages.
    GossipExchange = 7,
    /// KHDN-CAN record replication to K-hop negative neighbors.
    KhdnReplicate = 8,
    /// INSCAN index-table refresh probes and churn repair traffic.
    Maintenance = 9,
    /// INSCAN-RQ flood messages (strawman range query).
    RqFlood = 10,
}

/// Number of message classes.
pub const MSG_KINDS: usize = 11;

// One byte: the runner's queued deliveries carry a kind each.
const _: () = assert!(std::mem::size_of::<MsgKind>() == 1);

impl MsgKind {
    /// All kinds, for iteration/reporting.
    pub const ALL: [MsgKind; MSG_KINDS] = [
        MsgKind::StateUpdate,
        MsgKind::IndexDiffusion,
        MsgKind::DutyQuery,
        MsgKind::IndexAgent,
        MsgKind::IndexJump,
        MsgKind::FoundNotify,
        MsgKind::Dispatch,
        MsgKind::GossipExchange,
        MsgKind::KhdnReplicate,
        MsgKind::Maintenance,
        MsgKind::RqFlood,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::StateUpdate => "state-update",
            MsgKind::IndexDiffusion => "index-diffusion",
            MsgKind::DutyQuery => "duty-query",
            MsgKind::IndexAgent => "index-agent",
            MsgKind::IndexJump => "index-jump",
            MsgKind::FoundNotify => "found-notify",
            MsgKind::Dispatch => "dispatch",
            MsgKind::GossipExchange => "gossip-exchange",
            MsgKind::KhdnReplicate => "khdn-replicate",
            MsgKind::Maintenance => "maintenance",
            MsgKind::RqFlood => "rq-flood",
        }
    }
}

/// Counters of messages *sent or forwarded*, per kind.
///
/// The paper's headline metric divides the grand total by the node count —
/// no per-node counter is needed for any reported quantity, so `record` is
/// a pair of array/scalar increments with no per-node storage. A protocol
/// callback counts into its own `MsgStats` (in `soc_overlay::Ctx`), which
/// the runner folds into the run's once per callback
/// ([`MsgStats::record_batch`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsgStats {
    by_kind: [u64; MSG_KINDS],
    total: u64,
}

impl MsgStats {
    /// Record one message of `kind` sent (or forwarded).
    #[inline]
    pub fn record(&mut self, kind: MsgKind) {
        self.record_n(kind, 1);
    }

    /// Record `n` messages at once (synchronous maintenance walks).
    #[inline]
    pub fn record_n(&mut self, kind: MsgKind, n: u64) {
        self.by_kind[kind as usize] += n;
        self.total += n;
    }

    /// Merge another set of counters in (one callback's batch: a pass over
    /// the fixed-size kind array instead of a write per message).
    pub fn record_batch(&mut self, batch: &MsgStats) {
        for (mine, theirs) in self.by_kind.iter_mut().zip(batch.by_kind) {
            *mine += theirs;
        }
        self.total += batch.total;
    }

    /// Total messages of `kind`.
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.by_kind[kind as usize]
    }

    /// Total messages across all kinds.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-kind breakdown `(kind, count)`, descending by count.
    pub fn breakdown(&self) -> Vec<(MsgKind, u64)> {
        let mut v: Vec<(MsgKind, u64)> = MsgKind::ALL
            .iter()
            .map(|&k| (k, self.count(k)))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Reset all counters (between scenario repetitions).
    pub fn clear(&mut self) {
        self.by_kind = [0; MSG_KINDS];
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_updates_all_views() {
        let mut s = MsgStats::default();
        s.record(MsgKind::StateUpdate);
        s.record(MsgKind::StateUpdate);
        s.record(MsgKind::IndexJump);
        assert_eq!(s.count(MsgKind::StateUpdate), 2);
        assert_eq!(s.count(MsgKind::IndexJump), 1);
        assert_eq!(s.count(MsgKind::DutyQuery), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn record_n_batches() {
        let mut s = MsgStats::default();
        s.record_n(MsgKind::Maintenance, 17);
        assert_eq!(s.count(MsgKind::Maintenance), 17);
        assert_eq!(s.total(), 17);
    }

    #[test]
    fn record_batch_equals_per_message_records() {
        let mut batched = MsgStats::default();
        let mut scattered = MsgStats::default();
        let mut c = MsgStats::default();
        for _ in 0..3 {
            c.record(MsgKind::DutyQuery);
            scattered.record(MsgKind::DutyQuery);
        }
        c.record_n(MsgKind::Maintenance, 7);
        scattered.record_n(MsgKind::Maintenance, 7);
        batched.record_batch(&c);
        assert_eq!(batched, scattered);
        batched.record_batch(&MsgStats::default());
        assert_eq!(batched, scattered);
    }

    #[test]
    fn breakdown_is_sorted_and_sparse() {
        let mut s = MsgStats::default();
        for _ in 0..5 {
            s.record(MsgKind::IndexDiffusion);
        }
        s.record(MsgKind::Dispatch);
        let b = s.breakdown();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], (MsgKind::IndexDiffusion, 5));
        assert_eq!(b[1], (MsgKind::Dispatch, 1));
    }

    #[test]
    fn clear_resets() {
        let mut s = MsgStats::default();
        s.record(MsgKind::Maintenance);
        s.clear();
        assert_eq!(s.total(), 0);
        assert_eq!(s.count(MsgKind::Maintenance), 0);
    }

    #[test]
    fn all_kinds_have_labels() {
        for k in MsgKind::ALL {
            assert!(!k.label().is_empty());
        }
        assert_eq!(MsgKind::ALL.len(), MSG_KINDS);
    }
}
