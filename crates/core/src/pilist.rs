//! PIList — the Positive Index List (§III-B2).
//!
//! "Upon receiving an index message, the node will store it into a list,
//! denoted as PIList, which means Positive Index List." Entries name nodes
//! *known to hold state records* (their caches were non-empty when they
//! diffused); they sit in the index-senders' positive direction, which is
//! exactly where records qualifying a local demand vector live.

use rand::{Rng, RngExt};
use soc_types::{NodeId, SimMillis};

/// One node's PIList as an append-only log of `(index node, receipt)`.
///
/// The list it stands for holds each id once, at its first entry, with
/// the receipt of its last entry: a re-receipt is one more push, and it
/// refreshes the id without moving it. Receipt times are 4-byte
/// milliseconds, exact because a run is shorter than 2^32 ms (the scenario
/// spec rejects a longer one), so an entry is 8 bytes.
type Log = Vec<(NodeId, u32)>;

const _: () = assert!(std::mem::size_of::<Log>() == 24);

/// Every node's PIList, plus the scratch that folds repeats, shared by all.
///
/// An insert is a push. Repeats fold into their id's first entry when the
/// TTL sweep ([`PiLists::purge`]) runs and when a full log would otherwise
/// grow; a log grows to a quarter above its folded length, and a sweep
/// that leaves it at most half full shrinks it the same way.
pub struct PiLists {
    logs: Vec<Log>,
    marks: Marks,
}

/// Per-id scratch for one pass over a log: which ids it names, one bit
/// each, and each named id's latest receipt. A pass marks every entry,
/// then takes each id at its first entry, which clears the mark again.
struct Marks {
    bits: Vec<u64>,
    latest: Vec<u32>,
}

impl Marks {
    fn mark(&mut self, log: &[(NodeId, u32)]) {
        for &(id, t) in log {
            self.bits[id.idx() / 64] |= 1 << (id.idx() % 64);
            self.latest[id.idx()] = t;
        }
    }

    /// `id`'s latest receipt if this is its first entry since [`Self::mark`].
    fn take(&mut self, id: NodeId) -> Option<u32> {
        let (word, bit) = (&mut self.bits[id.idx() / 64], 1 << (id.idx() % 64));
        let first = *word & bit != 0;
        *word &= !bit;
        first.then_some(self.latest[id.idx()])
    }

    /// Fold `log` to one entry per id, at its first place with its latest
    /// receipt, keeping the ids whose receipt passes `keep`; returns the
    /// new length.
    fn fold(&mut self, log: &mut Log, keep: impl Fn(u32) -> bool) -> usize {
        self.mark(log);
        let mut kept = 0;
        for i in 0..log.len() {
            let id = log[i].0;
            if let Some(t) = self.take(id).filter(|&t| keep(t)) {
                log[kept] = (id, t);
                kept += 1;
            }
        }
        log.truncate(kept);
        kept
    }
}

/// `now` as a receipt time.
///
/// # Panics
/// Panics at or past 2^32 ms, which no run reaches.
fn receipt(now: SimMillis) -> u32 {
    u32::try_from(now).expect("PIList receipt times are below 2^32 ms")
}

/// Is a receipt at `t` still fresh at `now`?
fn is_fresh(t: u32, now: SimMillis, ttl: SimMillis) -> bool {
    now.saturating_sub(SimMillis::from(t)) <= ttl
}

/// Spare slots a log of `len` folded entries is resized to: a quarter,
/// plus one.
fn spare(len: usize) -> usize {
    len / 4 + 1
}

impl PiLists {
    /// Empty lists for ids `0..max_nodes`, naming index nodes in the same
    /// range.
    pub fn new(max_nodes: usize) -> Self {
        PiLists {
            logs: vec![Log::new(); max_nodes],
            marks: Marks {
                bits: vec![0; max_nodes.div_ceil(64)],
                latest: vec![0; max_nodes],
            },
        }
    }

    /// Record at `node` that `index_node`'s identifier arrived at `now`.
    /// Re-receipt refreshes the timestamp.
    pub fn insert(&mut self, node: NodeId, index_node: NodeId, now: SimMillis) {
        let t = receipt(now);
        let log = &mut self.logs[node.idx()];
        if log.len() == log.capacity() {
            // Grows only if the fold freed fewer than `spare` slots.
            self.marks.fold(log, |_| true);
            log.reserve_exact(spare(log.len()));
        }
        log.push((index_node, t));
    }

    /// Drop `node`'s entries older than `ttl` at `now`; returns how many
    /// were kept.
    pub fn purge(&mut self, node: NodeId, now: SimMillis, ttl: SimMillis) -> usize {
        let log = &mut self.logs[node.idx()];
        let kept = self.marks.fold(log, |t| is_fresh(t, now, ttl));
        if kept <= log.capacity() / 2 {
            log.shrink_to(kept + spare(kept));
        }
        kept
    }

    /// Forget `node`'s list (the node left or rejoined).
    pub fn clear(&mut self, node: NodeId) {
        self.logs[node.idx()] = Log::new();
    }

    /// True when `node` holds no entries (fresh or not).
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.logs[node.idx()].is_empty()
    }

    /// `node`'s fresh entries at `now`, in first-insertion order.
    pub fn fresh(&mut self, node: NodeId, now: SimMillis, ttl: SimMillis) -> Vec<NodeId> {
        let log = &self.logs[node.idx()];
        self.marks.mark(log);
        log.iter()
            .filter(|&&(id, _)| self.marks.take(id).is_some_and(|t| is_fresh(t, now, ttl)))
            .map(|&(id, _)| id)
            .collect()
    }

    /// Sample up to `k` distinct fresh entries of `node`'s list uniformly
    /// at random (Algorithm 4 line 1: "Randomly select a few indexes from
    /// pi's PIList and put them in j").
    pub fn sample<R: Rng>(
        &mut self,
        node: NodeId,
        k: usize,
        now: SimMillis,
        ttl: SimMillis,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut fresh = self.fresh(node, now, ttl);
        // Partial Fisher–Yates: the first `k` positions become the sample.
        let take = k.min(fresh.len());
        for i in 0..take {
            let j = rng.random_range(i..fresh.len());
            fresh.swap(i, j);
        }
        fresh.truncate(take);
        fresh
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const A: NodeId = NodeId(0);

    #[test]
    fn insert_is_idempotent_and_refreshing() {
        let mut p = PiLists::new(4);
        p.insert(A, NodeId(1), 100);
        p.insert(A, NodeId(1), 500);
        assert_eq!(p.fresh(A, 500, 600), vec![NodeId(1)]);
        // The refreshed timestamp keeps it alive longer: with the original
        // t=100 stamp the entry would be stale at now=1000 (age 900 > 600),
        // but the refresh at t=500 keeps it fresh (age 500).
        assert_eq!(p.fresh(A, 1_000, 600), vec![NodeId(1)]);
        assert!(p.fresh(A, 1_101, 600).is_empty());
        // The sweep folds the repeat into one entry.
        assert_eq!(p.purge(A, 1_000, 600), 1);
        assert_eq!(p.logs[0], vec![(NodeId(1), 500)]);
    }

    #[test]
    fn a_refresh_keeps_the_first_place() {
        let mut p = PiLists::new(4);
        for (id, t) in [(1, 0), (2, 10), (1, 20), (3, 30), (2, 40)] {
            p.insert(A, NodeId(id), t);
        }
        let order = vec![NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(p.fresh(A, 40, 600), order);
        assert_eq!(p.purge(A, 40, 600), 3);
        assert_eq!(p.fresh(A, 40, 600), order);
        assert_eq!(
            p.logs[0],
            vec![(NodeId(1), 20), (NodeId(2), 40), (NodeId(3), 30)]
        );
    }

    #[test]
    fn purge_drops_stale() {
        let mut p = PiLists::new(4);
        p.insert(A, NodeId(1), 0);
        p.insert(A, NodeId(2), 900);
        assert_eq!(p.purge(A, 1_000, 500), 1);
        assert_eq!(p.fresh(A, 1_000, 500), vec![NodeId(2)]);
    }

    #[test]
    fn lists_are_per_node_and_clear_forgets() {
        let mut p = PiLists::new(4);
        p.insert(NodeId(1), NodeId(2), 0);
        p.insert(NodeId(3), NodeId(2), 0);
        assert!(p.is_empty(A));
        p.clear(NodeId(1));
        assert!(p.is_empty(NodeId(1)));
        assert_eq!(p.fresh(NodeId(3), 0, 10), vec![NodeId(2)]);
    }

    #[test]
    fn sample_is_within_bounds_and_distinct() {
        let mut p = PiLists::new(10);
        for i in 0..10 {
            p.insert(A, NodeId(i), 0);
            p.insert(A, NodeId(9 - i), 0);
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for k in [0usize, 3, 10, 25] {
            let s = p.sample(A, k, 100, 1_000, &mut rng);
            assert_eq!(s.len(), k.min(10));
            let mut dedup = s.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), s.len(), "sample has duplicates");
        }
    }

    #[test]
    fn sample_excludes_stale_entries() {
        let mut p = PiLists::new(4);
        p.insert(A, NodeId(1), 0);
        p.insert(A, NodeId(2), 10_000);
        let mut rng = SmallRng::seed_from_u64(8);
        let s = p.sample(A, 5, 10_500, 600, &mut rng);
        assert_eq!(s, vec![NodeId(2)]);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut p = PiLists::new(4);
        for i in 0..4 {
            p.insert(A, NodeId(i), 0);
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            for id in p.sample(A, 1, 0, 100, &mut rng) {
                counts[id.0 as usize] += 1;
            }
        }
        for c in counts {
            assert!((800..1200).contains(&c), "biased sampling: {counts:?}");
        }
    }

    /// The capacity a fold may leave a log of `distinct` ids: a quarter
    /// more, plus one.
    fn bound(distinct: usize) -> usize {
        (distinct * 5).div_ceil(4) + 1
    }

    #[test]
    fn a_log_grows_by_a_quarter_of_its_distinct_ids() {
        // Only first receipts: every fold finds the log full of distinct
        // ids, so each growth is the quarter step.
        let mut p = PiLists::new(1_000);
        for i in 0..1_000 {
            p.insert(A, NodeId(i), 0);
            assert!(p.logs[0].capacity() <= bound(i as usize + 1));
        }
        // Three rounds of repeats fold in place: the log never grows past
        // the bound of its 1 000 ids.
        for round in 1..=3 {
            for i in 0..1_000 {
                p.insert(A, NodeId(i), round);
                assert!(p.logs[0].capacity() <= bound(1_000));
            }
        }
        assert_eq!(p.fresh(A, 3, 0).len(), 1_000);
    }

    #[test]
    fn a_sweep_that_leaves_half_shrinks_the_log() {
        let mut p = PiLists::new(200);
        for i in 0..200 {
            p.insert(A, NodeId(i), u64::from(i) * 10);
        }
        let full = p.logs[0].capacity();
        let half = full / 2;
        // Entry i is fresh at 2 000 ms under a TTL of 10·k ms iff
        // i ≥ 200 − k, so that sweep keeps k entries.
        let ttl = |k: usize| 10 * k as SimMillis;
        // One more than half: the log keeps its capacity.
        assert_eq!(p.purge(A, 2_000, ttl(half + 1)), half + 1);
        assert_eq!(p.logs[0].capacity(), full);
        // Half: shrunk to the bound of the ids it kept.
        assert_eq!(p.purge(A, 2_000, ttl(half)), half);
        assert!(p.logs[0].capacity() <= bound(half));
        let kept: Vec<NodeId> = (200 - half as u32..200).map(NodeId).collect();
        assert_eq!(p.fresh(A, 2_000, ttl(half)), kept);
    }

    /// The deduplicate-on-insert list the log replaced, with 64-bit receipt
    /// times, as the model.
    #[derive(Default)]
    struct Tuples(Vec<(NodeId, SimMillis)>);

    impl Tuples {
        /// Returns whether `n` was already listed (a re-receipt).
        fn insert(&mut self, n: NodeId, now: SimMillis) -> bool {
            match self.0.iter_mut().find(|e| e.0 == n) {
                Some(e) => {
                    e.1 = now;
                    true
                }
                None => {
                    self.0.push((n, now));
                    false
                }
            }
        }
        fn fresh(&self, now: SimMillis, ttl: SimMillis) -> Vec<NodeId> {
            let live = self.0.iter().filter(|e| now.saturating_sub(e.1) <= ttl);
            live.map(|e| e.0).collect()
        }
        fn sample(
            &self,
            k: usize,
            now: SimMillis,
            ttl: SimMillis,
            rng: &mut SmallRng,
        ) -> Vec<NodeId> {
            let mut fresh = self.fresh(now, ttl);
            let take = k.min(fresh.len());
            for i in 0..take {
                let j = rng.random_range(i..fresh.len());
                fresh.swap(i, j);
            }
            fresh.truncate(take);
            fresh
        }
    }

    /// What one lockstep script draws.
    struct Draws {
        steps: usize,
        /// Ids `0..pool` a receipt can name; first receipts cycle through
        /// them.
        pool: u32,
        /// Per mille of receipts that re-receive an id the list holds.
        reuse: u32,
        /// The clock advances `0..max_step` ms a step.
        max_step: SimMillis,
        ttl: SimMillis,
        /// TTL sweep cadence.
        sweep_every: SimMillis,
    }

    /// What a script drew: the largest list, the share of receipts that
    /// were re-receipts, and the entries the sweeps dropped.
    struct Drawn {
        largest: usize,
        repeats: f64,
        dropped: usize,
    }

    /// Drive a log and the model through one seeded script of receipts,
    /// sweeps and samples whose clock starts at `start`, comparing every
    /// answer and the sampling stream's position after every call.
    fn lockstep(start: SimMillis, d: &Draws) -> Drawn {
        let mut script = SmallRng::seed_from_u64(10);
        let (mut fast, mut slow) = (SmallRng::seed_from_u64(11), SmallRng::seed_from_u64(11));
        let (mut p, mut m) = (PiLists::new(d.pool as usize), Tuples::default());
        let (mut now, mut sweep) = (start, start + d.sweep_every);
        let (mut next_new, mut receipts, mut repeats) = (0, 0, 0);
        let mut drawn = Drawn {
            largest: 0,
            repeats: 0.0,
            dropped: 0,
        };
        for _ in 0..d.steps {
            let capacity = p.logs[0].capacity();
            now += script.random_range(0..d.max_step);
            if now >= sweep {
                sweep = now + d.sweep_every;
                let before = m.0.len();
                m.0.retain(|e| now.saturating_sub(e.1) <= d.ttl);
                drawn.dropped += before - m.0.len();
                assert_eq!(p.purge(A, now, d.ttl), m.0.len());
            }
            if script.random_range(0..4) < 3 {
                let id = if !m.0.is_empty() && script.random_range(0..1_000) < d.reuse {
                    m.0[script.random_range(0..m.0.len())].0
                } else {
                    next_new = (next_new + 1) % d.pool;
                    NodeId(next_new)
                };
                p.insert(A, id, now);
                repeats += u32::from(m.insert(id, now));
                receipts += 1;
                drawn.largest = drawn.largest.max(m.0.len());
            } else {
                let k = script.random_range(0..10);
                assert_eq!(
                    p.sample(A, k, now, d.ttl, &mut fast),
                    m.sample(k, now, d.ttl, &mut slow)
                );
            }
            assert_eq!(p.fresh(A, now, d.ttl), m.fresh(now, d.ttl));
            // A log resizes only to a quarter above its distinct ids.
            if p.logs[0].capacity() != capacity {
                assert!(p.logs[0].capacity() <= bound(m.0.len()));
            }
            // Same stream position: every sample drew the same bounds.
            assert_eq!(fast.clone().random::<u64>(), slow.clone().random::<u64>());
        }
        drawn.repeats = f64::from(repeats) / f64::from(receipts);
        drawn
    }

    /// A few dozen ids, mostly re-received, swept often: 4 000 steps of at
    /// most 39 ms, so a script spans at most 156 000 ms.
    const NARROW: Draws = Draws {
        steps: 4_000,
        pool: 48,
        reuse: 800,
        max_step: 40,
        ttl: 600,
        sweep_every: 140,
    };

    #[test]
    fn the_log_matches_the_tuple_list_in_lockstep() {
        let narrow = lockstep(0, &NARROW);
        assert!(narrow.repeats > 0.8 && narrow.dropped > 0);
        // What runs draw: lists of hundreds of ids (the largest at
        // `large-n` holds 960), re-receipt shares of 59 % (`large-n`) to
        // 86 % (`churn-storm`), the 60 s sweep with the 900 s TTL.
        for (reuse, max_step, share) in [(590, 1_000, 0.59..0.65), (850, 1_500, 0.85..0.88)] {
            let wide = Draws {
                steps: 40_000,
                pool: 4_096,
                reuse,
                max_step,
                ttl: 900_000,
                sweep_every: 60_000,
            };
            let drawn = lockstep(0, &wide);
            assert!(drawn.largest >= 300, "largest list {}", drawn.largest);
            assert!(
                share.contains(&drawn.repeats),
                "re-receipts {}",
                drawn.repeats
            );
            assert!(drawn.dropped > 1_000, "dropped {}", drawn.dropped);
        }
    }

    #[test]
    fn u32_receipt_times_match_the_u64_model_just_below_2_pow_32() {
        // The script runs its last minutes right under 2^32; then two
        // receipts at the last representable millisecond and 700 ms
        // before it.
        lockstep((1 << 32) - 156_100, &NARROW);
        let (mut p, mut m) = (PiLists::new(4), Tuples::default());
        for (id, t) in [(1, u64::from(u32::MAX) - 700), (2, u64::from(u32::MAX))] {
            p.insert(A, NodeId(id), t);
            m.insert(NodeId(id), t);
        }
        for now in [u64::from(u32::MAX), 1 << 32, (1 << 32) + 600] {
            assert_eq!(p.fresh(A, now, 600), m.fresh(now, 600), "at {now}");
        }
    }

    #[test]
    #[should_panic(expected = "PIList receipt times are below 2^32 ms")]
    fn a_receipt_at_2_pow_32_is_a_named_panic() {
        PiLists::new(2).insert(A, NodeId(1), 1 << 32);
    }
}
