//! Blacklist/retry defence against injected faults.
//!
//! The defence is deliberately simple — the fledger-style baseline the
//! adaptive-policy work will later compete against. Each node keeps a
//! private blacklist fed by *forward-timeout suspicion*: when a message a
//! node sent is dropped by a fault (blackhole, loss, partition), the
//! sender registers a strike against the destination a short suspicion
//! delay later. Enough strikes inside a sliding window blacklist the
//! destination for a fixed TTL; routing then avoids blacklisted next hops
//! and the runner re-issues timed-out duty queries with exponential
//! backoff.
//!
//! Two properties the unit tests pin:
//! - a slow-but-honest node that triggers the occasional isolated strike
//!   (e.g. random loss) is **not** permanently blacklisted — strikes
//!   outside the window do not accumulate, and entries expire;
//! - blacklisting is per-observer (`by`): one node's suspicion never
//!   leaks into another's routing decisions.
//!
//! Iteration-bearing state uses `BTreeMap` so every walk is in NodeId
//! order — the same determinism discipline `soc-lint` enforces
//! workspace-wide.

use std::collections::BTreeMap;

use soc_types::{NodeId, SimMillis};

/// Tunables for the suspicion/blacklist/retry pipeline.
#[derive(Clone, Copy, Debug)]
pub struct DefenseParams {
    /// Delay between a fault-dropped send and the sender's strike — the
    /// stand-in for a forward/ack timeout.
    pub suspect_after_ms: SimMillis,
    /// Strikes within `strike_window_ms` needed to blacklist.
    pub strike_threshold: u32,
    /// Sliding window over which strikes accumulate.
    pub strike_window_ms: SimMillis,
    /// How long a blacklist entry lasts before the node is given another
    /// chance.
    pub blacklist_ms: SimMillis,
    /// Maximum re-issues of a duty query that timed out with no results.
    pub max_retries: u32,
}

impl Default for DefenseParams {
    fn default() -> Self {
        DefenseParams {
            suspect_after_ms: 2_000,
            strike_threshold: 2,
            strike_window_ms: 120_000,
            blacklist_ms: 300_000,
            max_retries: 2,
        }
    }
}

/// Strike history and blacklist verdict for one (observer, suspect) pair.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Strikes accumulated in the current window.
    strikes: u32,
    /// When the current window opened.
    window_start: SimMillis,
    /// Blacklisted until this time (0 = not currently blacklisted).
    until: SimMillis,
}

/// Per-node blacklists: `per[by]` maps suspected node → entry. There is a
/// row for every observer id; suspects are arbitrary node ids.
#[derive(Clone, Debug)]
pub struct Blacklist {
    per: Vec<BTreeMap<NodeId, Entry>>,
    /// Total blacklisting events over the run (re-blacklisting after
    /// expiry counts again).
    pub blacklisted_total: u64,
}

impl Blacklist {
    /// Empty blacklists for the observers with ids below `n`.
    pub fn new(n: usize) -> Self {
        Blacklist {
            per: vec![BTreeMap::new(); n],
            blacklisted_total: 0,
        }
    }

    /// Register a strike by `by` against `of` at `now`. Returns true when
    /// this strike newly blacklisted `of` (for confusion accounting).
    pub fn strike(&mut self, by: NodeId, of: NodeId, now: SimMillis, p: &DefenseParams) -> bool {
        let e = self.per[by.idx()].entry(of).or_insert(Entry {
            strikes: 0,
            window_start: now,
            until: 0,
        });
        if now.saturating_sub(e.window_start) > p.strike_window_ms {
            // Window elapsed: isolated strikes do not accumulate forever.
            e.strikes = 0;
            e.window_start = now;
        }
        e.strikes += 1;
        let was_listed = e.until > now;
        if !was_listed && e.strikes >= p.strike_threshold {
            e.until = now + p.blacklist_ms;
            e.strikes = 0;
            e.window_start = now;
            self.blacklisted_total += 1;
            return true;
        }
        false
    }

    /// Is `of` currently blacklisted by `by`? Read-only — expired entries
    /// simply stop matching (they are swept lazily on `clear_node`).
    pub fn is_blacklisted(&self, by: NodeId, of: NodeId, now: SimMillis) -> bool {
        self.per[by.idx()].get(&of).is_some_and(|e| e.until > now)
    }

    /// Number of active (unexpired) entries across all observers.
    pub fn active_total(&self, now: SimMillis) -> u64 {
        self.per
            .iter()
            .map(|m| m.values().filter(|e| e.until > now).count() as u64)
            .sum()
    }

    /// A node churned away and was replaced: forget its own suspicions
    /// and every observer's suspicions about it — the new occupant of the
    /// slot is a different machine.
    pub fn clear_node(&mut self, node: NodeId) {
        self.per[node.idx()].clear();
        for m in &mut self.per {
            m.remove(&node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DefenseParams {
        DefenseParams::default()
    }

    #[test]
    fn single_strike_does_not_blacklist() {
        let mut b = Blacklist::new(4);
        assert!(!b.strike(NodeId(0), NodeId(1), 1_000, &p()));
        assert!(!b.is_blacklisted(NodeId(0), NodeId(1), 1_001));
        assert_eq!(b.blacklisted_total, 0);
    }

    #[test]
    fn threshold_strikes_within_window_blacklist() {
        let mut b = Blacklist::new(4);
        assert!(!b.strike(NodeId(0), NodeId(1), 1_000, &p()));
        assert!(b.strike(NodeId(0), NodeId(1), 30_000, &p()));
        assert!(b.is_blacklisted(NodeId(0), NodeId(1), 30_001));
        assert_eq!(b.blacklisted_total, 1);
        assert_eq!(b.active_total(30_001), 1);
    }

    #[test]
    fn slow_but_honest_node_is_not_permanently_blacklisted() {
        // Isolated strikes spaced wider than the window never accumulate:
        // the occasional lost message cannot blacklist an honest node.
        let mut b = Blacklist::new(4);
        let params = p();
        for k in 0..10 {
            let t = 1_000 + k * (params.strike_window_ms + 1);
            assert!(
                !b.strike(NodeId(0), NodeId(1), t, &params),
                "strike {k} blacklisted an honest node"
            );
        }
        assert!(!b.is_blacklisted(
            NodeId(0),
            NodeId(1),
            1_000 + 10 * (params.strike_window_ms + 1)
        ));
        assert_eq!(b.blacklisted_total, 0);
    }

    #[test]
    fn entries_expire_and_can_reblacklist() {
        let mut b = Blacklist::new(4);
        let params = p();
        b.strike(NodeId(0), NodeId(1), 1_000, &params);
        assert!(b.strike(NodeId(0), NodeId(1), 2_000, &params));
        let expiry = 2_000 + params.blacklist_ms;
        assert!(b.is_blacklisted(NodeId(0), NodeId(1), expiry - 1));
        assert!(!b.is_blacklisted(NodeId(0), NodeId(1), expiry));
        // The node earns a clean slate, then reoffends.
        assert!(!b.strike(NodeId(0), NodeId(1), expiry + 10, &params));
        assert!(b.strike(NodeId(0), NodeId(1), expiry + 20, &params));
        assert_eq!(b.blacklisted_total, 2);
    }

    #[test]
    fn suspicion_is_per_observer() {
        let mut b = Blacklist::new(4);
        b.strike(NodeId(0), NodeId(1), 1_000, &p());
        b.strike(NodeId(0), NodeId(1), 2_000, &p());
        assert!(b.is_blacklisted(NodeId(0), NodeId(1), 3_000));
        assert!(!b.is_blacklisted(NodeId(2), NodeId(1), 3_000));
    }

    #[test]
    fn clear_node_forgets_both_directions() {
        let mut b = Blacklist::new(4);
        b.strike(NodeId(0), NodeId(1), 1_000, &p());
        b.strike(NodeId(0), NodeId(1), 2_000, &p());
        b.strike(NodeId(1), NodeId(2), 1_000, &p());
        b.strike(NodeId(1), NodeId(2), 2_000, &p());
        b.clear_node(NodeId(1));
        assert!(!b.is_blacklisted(NodeId(0), NodeId(1), 3_000));
        assert!(!b.is_blacklisted(NodeId(1), NodeId(2), 3_000));
        assert_eq!(b.active_total(3_000), 0);
    }

    #[test]
    fn while_listed_strikes_do_not_double_count() {
        let mut b = Blacklist::new(4);
        let params = p();
        b.strike(NodeId(0), NodeId(1), 1_000, &params);
        assert!(b.strike(NodeId(0), NodeId(1), 2_000, &params));
        // Further strikes while already listed return false and do not
        // bump the event counter.
        assert!(!b.strike(NodeId(0), NodeId(1), 3_000, &params));
        assert_eq!(b.blacklisted_total, 1);
    }
}
