//! PIList — the Positive Index List (§III-B2).
//!
//! "Upon receiving an index message, the node will store it into a list,
//! denoted as PIList, which means Positive Index List." Entries name nodes
//! *known to hold state records* (their caches were non-empty when they
//! diffused); they sit in the index-senders' positive direction, which is
//! exactly where records qualifying a local demand vector live.

use rand::{Rng, RngExt};
use soc_types::{NodeId, SimMillis};

/// A TTL'd set of index-node identifiers with receipt timestamps.
///
/// Two columns in one insertion order, `ids[i]` received at `times[i]`:
/// every relayed index message looks its sender up in the id column (4
/// bytes an entry, ≈ 110 entries in a 10 000-node run), and only the
/// TTL passes read the time column. Receipt times are 4-byte milliseconds
/// too, exact because a run is shorter than 2^32 ms (the scenario spec
/// rejects a longer one), so an entry is 8 bytes in all.
#[derive(Clone, Debug, Default)]
pub struct PiList {
    ids: Vec<NodeId>,
    times: Vec<u32>,
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

impl PiList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `index_node`'s identifier arrived at `now`. Re-receipt
    /// refreshes the timestamp.
    pub fn insert(&mut self, index_node: NodeId, now: SimMillis) {
        let t = receipt(now);
        match self.ids.iter().position(|&n| n == index_node) {
            Some(i) => self.times[i] = t,
            None => {
                self.ids.push(index_node);
                self.times.push(t);
            }
        }
    }

    /// Drop entries older than `ttl` at `now`; returns how many were kept.
    pub fn purge(&mut self, now: SimMillis, ttl: SimMillis) -> usize {
        let mut kept = 0;
        for i in 0..self.ids.len() {
            if is_fresh(self.times[i], now, ttl) {
                self.ids[kept] = self.ids[i];
                self.times[kept] = self.times[i];
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.times.truncate(kept);
        kept
    }

    /// Number of stored entries (fresh or not).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Fresh entries at `now`, in insertion order.
    pub fn fresh(&self, now: SimMillis, ttl: SimMillis) -> Vec<NodeId> {
        self.ids
            .iter()
            .zip(&self.times)
            .filter(|&(_, &t)| is_fresh(t, now, ttl))
            .map(|(&n, _)| n)
            .collect()
    }

    /// Sample up to `k` distinct fresh entries uniformly at random
    /// (Algorithm 4 line 1: "Randomly select a few indexes from pi's PIList
    /// and put them in j").
    pub fn sample<R: Rng>(
        &self,
        k: usize,
        now: SimMillis,
        ttl: SimMillis,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut fresh = self.fresh(now, ttl);
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

    #[test]
    fn insert_is_idempotent_and_refreshing() {
        let mut p = PiList::new();
        p.insert(NodeId(1), 100);
        p.insert(NodeId(1), 500);
        assert_eq!(p.len(), 1);
        // The refreshed timestamp keeps it alive longer: with the original
        // t=100 stamp the entry would be stale at now=1000 (age 900 > 600),
        // but the refresh at t=500 keeps it fresh (age 500).
        assert_eq!(p.fresh(1_000, 600), vec![NodeId(1)]);
        assert!(p.fresh(1_101, 600).is_empty());
    }

    #[test]
    fn purge_drops_stale() {
        let mut p = PiList::new();
        p.insert(NodeId(1), 0);
        p.insert(NodeId(2), 900);
        assert_eq!(p.purge(1_000, 500), 1);
        assert_eq!(p.fresh(1_000, 500), vec![NodeId(2)]);
    }

    #[test]
    fn sample_is_within_bounds_and_distinct() {
        let mut p = PiList::new();
        for i in 0..10 {
            p.insert(NodeId(i), 0);
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for k in [0usize, 3, 10, 25] {
            let s = p.sample(k, 100, 1_000, &mut rng);
            assert_eq!(s.len(), k.min(10));
            let mut dedup = s.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), s.len(), "sample has duplicates");
        }
    }

    #[test]
    fn sample_excludes_stale_entries() {
        let mut p = PiList::new();
        p.insert(NodeId(1), 0);
        p.insert(NodeId(2), 10_000);
        let mut rng = SmallRng::seed_from_u64(8);
        let s = p.sample(5, 10_500, 600, &mut rng);
        assert_eq!(s, vec![NodeId(2)]);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut p = PiList::new();
        for i in 0..4 {
            p.insert(NodeId(i), 0);
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            for id in p.sample(1, 0, 100, &mut rng) {
                counts[id.0 as usize] += 1;
            }
        }
        for c in counts {
            assert!((800..1200).contains(&c), "biased sampling: {counts:?}");
        }
    }

    /// The one-`Vec`-of-tuples list the columns replaced, with 64-bit
    /// receipt times, as the model.
    #[derive(Default)]
    struct Tuples(Vec<(NodeId, SimMillis)>);

    impl Tuples {
        fn insert(&mut self, n: NodeId, now: SimMillis) {
            match self.0.iter_mut().find(|e| e.0 == n) {
                Some(e) => e.1 = now,
                None => self.0.push((n, now)),
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

    /// Drive a list and the model through one seeded script of inserts,
    /// purges and samples whose clock starts at `start` and ends at
    /// `start + 4 000 · 39` ms at the latest.
    fn lockstep(start: SimMillis) {
        const TTL: SimMillis = 600;
        let mut script = SmallRng::seed_from_u64(10);
        let (mut fast, mut slow) = (SmallRng::seed_from_u64(11), SmallRng::seed_from_u64(11));
        let (mut p, mut m) = (PiList::new(), Tuples::default());
        let mut now = start;
        for _ in 0..4_000 {
            now += script.random_range(0..40u64);
            // Few ids, so re-receipts (refreshes) outnumber first inserts.
            let id = NodeId(script.random_range(0..48));
            match script.random_range(0..7) {
                0..=3 => {
                    p.insert(id, now);
                    m.insert(id, now);
                }
                4 => {
                    m.0.retain(|e| now.saturating_sub(e.1) <= TTL);
                    assert_eq!(p.purge(now, TTL), m.0.len());
                }
                _ => {
                    let k = script.random_range(0..6);
                    assert_eq!(
                        p.sample(k, now, TTL, &mut fast),
                        m.sample(k, now, TTL, &mut slow)
                    );
                }
            }
            assert_eq!(p.len(), m.0.len());
            assert_eq!(p.fresh(now, TTL), m.fresh(now, TTL));
        }
        // Same stream position: every sample drew the same bounds.
        assert_eq!(fast.random::<u64>(), slow.random::<u64>());
    }

    #[test]
    fn columns_match_the_tuple_list_in_lockstep() {
        lockstep(0);
    }

    #[test]
    fn u32_receipt_times_match_the_u64_model_just_below_2_pow_32() {
        // The script's clock advances at most 156 000 ms, so it runs its
        // last minutes right under 2^32; then two receipts at the last
        // representable millisecond and 700 ms before it.
        lockstep((1 << 32) - 156_100);
        let (mut p, mut m) = (PiList::new(), Tuples::default());
        for (id, t) in [(1, u64::from(u32::MAX) - 700), (2, u64::from(u32::MAX))] {
            p.insert(NodeId(id), t);
            m.insert(NodeId(id), t);
        }
        for now in [u64::from(u32::MAX), 1 << 32, (1 << 32) + 600] {
            assert_eq!(p.fresh(now, 600), m.fresh(now, 600), "at {now}");
        }
    }

    #[test]
    #[should_panic(expected = "PIList receipt times are below 2^32 ms")]
    fn a_receipt_at_2_pow_32_is_a_named_panic() {
        PiList::new().insert(NodeId(1), 1 << 32);
    }
}
