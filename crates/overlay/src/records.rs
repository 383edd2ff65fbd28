//! The per-node state-record cache `γ`.
//!
//! Duty nodes collect availability records routed to their zone; records
//! carry a TTL ("The TTL (or age) of each state-update message is 600
//! seconds", §IV-A) and a fresher record from the same subject node replaces
//! the older one.
//!
//! The cache is one `Vec` of records sorted by subject, and every read is
//! a walk that tests each record's age and Inequality (2). In situ a duty
//! cache holds the tens of records routed to one zone within one TTL (mean
//! 7–10, at most 46 in a 10 000-node run), so the walk is a few hundred
//! nanoseconds over contiguous memory and inserts — which outnumber probes
//! — are a binary search plus a short shift. Results come out in ascending
//! subject order, which fixes `FoundList` order and every downstream
//! random draw per seed; `tests/cache_props.rs` holds the cache to its
//! contract against a naive `Vec` oracle.

use soc_types::{NodeId, ResVec, SimMillis};

/// One cached availability record: "node `subject` had availability `avail`
/// as of `stored_at`".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StateRecord {
    /// The node whose resources the record describes.
    pub subject: NodeId,
    /// Its availability vector `a_i` (raw resource units).
    pub avail: ResVec,
    /// When the record was stored at the cache.
    pub stored_at: SimMillis,
}

// A probe walks every record of a duty cache: 72 bytes is the subject, the
// inline `MAX_DIM`-wide availability vector and the timestamp, nothing else.
const _: () = assert!(std::mem::size_of::<StateRecord>() == 72);

/// Is `r` within `ttl` of `now`? (Exactly at the TTL still counts.)
fn is_fresh(r: &StateRecord, now: SimMillis, ttl: SimMillis) -> bool {
    now.saturating_sub(r.stored_at) <= ttl
}

/// Capacity step, in records. Ten thousand caches of 72-byte records are
/// the one place where `Vec`'s doubling (and never shrinking) shows: grown
/// and trimmed in steps of four, capacity stays within three records of
/// what the cache holds, at one small `realloc` per four net inserts.
const GROW: usize = 4;

/// TTL'd cache of state records, keyed by subject node.
#[derive(Clone)]
pub struct RecordCache {
    ttl_ms: SimMillis,
    /// Ascending by subject, one record per subject.
    records: Vec<StateRecord>,
}

// Debug stays manual: dumping every cached record per node would swamp any
// diagnostic output the cache appears in.
impl std::fmt::Debug for RecordCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordCache")
            .field("ttl_ms", &self.ttl_ms)
            .field("len", &self.records.len())
            .finish()
    }
}

impl RecordCache {
    /// Cache with the given record TTL.
    pub fn new(ttl_ms: SimMillis) -> Self {
        RecordCache {
            ttl_ms,
            records: Vec::new(),
        }
    }

    /// The paper's configuration: 600 s TTL.
    pub fn paper() -> Self {
        Self::new(600_000)
    }

    /// Record TTL.
    pub fn ttl_ms(&self) -> SimMillis {
        self.ttl_ms
    }

    /// Insert/replace the record for its subject. Keeps the newer one if a
    /// record for the same subject is already present (an equally old one
    /// is replaced).
    pub fn insert(&mut self, rec: StateRecord) {
        match self.position(rec.subject) {
            Err(at) => {
                if self.records.len() == self.records.capacity() {
                    self.records.reserve_exact(GROW);
                }
                self.records.insert(at, rec);
            }
            Ok(at) => {
                if self.records[at].stored_at <= rec.stored_at {
                    self.records[at] = rec;
                }
            }
        }
    }

    /// Where `subject`'s record is (`Ok`) or would be inserted (`Err`).
    fn position(&self, subject: NodeId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&subject, |r| r.subject)
    }

    /// Remove expired records; returns how many were dropped.
    pub fn purge_expired(&mut self, now: SimMillis) -> usize {
        let ttl = self.ttl_ms;
        let before = self.records.len();
        self.records.retain(|r| is_fresh(r, now, ttl));
        self.records
            .shrink_to(self.records.len().next_multiple_of(GROW));
        before - self.records.len()
    }

    /// Remove the record about `subject` (e.g. it churned away).
    pub fn remove(&mut self, subject: NodeId) -> Option<StateRecord> {
        let at = self.position(subject).ok()?;
        Some(self.records.remove(at))
    }

    /// Is the cache empty of *fresh* records at `now`? (Algorithm 1's
    /// "cache γ is non-empty" test.)
    pub fn is_empty_at(&self, now: SimMillis) -> bool {
        !self.records.iter().any(|r| is_fresh(r, now, self.ttl_ms))
    }

    /// Number of *stored* records — including expired ones not yet purged,
    /// which [`Self::is_empty_at`] ignores. Use [`Self::fresh_len`] when the
    /// question is "how many records are usable right now"; a cache can
    /// report `len() > 0` with zero fresh records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are stored at all (expired ones included —
    /// the mirror of [`Self::len`], not of [`Self::is_empty_at`]).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records still fresh at `now` — the consistent companion of
    /// [`Self::is_empty_at`]: `fresh_len(now) == 0 ⇔ is_empty_at(now)`.
    pub fn fresh_len(&self, now: SimMillis) -> usize {
        self.records
            .iter()
            .filter(|r| is_fresh(r, now, self.ttl_ms))
            .count()
    }

    /// Fresh records whose availability dominates `demand` (Inequality (2)),
    /// i.e. the cache's qualified `FoundList` candidates.
    ///
    /// Allocates a fresh `Vec` per call; protocol hot paths should use
    /// [`Self::qualified_into`] with a recycled buffer instead.
    pub fn qualified(&self, demand: &ResVec, now: SimMillis) -> Vec<StateRecord> {
        let mut out = Vec::new();
        self.qualified_into(demand, now, &mut out);
        out
    }

    /// [`Self::qualified`] into a caller-provided buffer (cleared first).
    /// Results are in ascending subject order.
    pub fn qualified_into(&self, demand: &ResVec, now: SimMillis, out: &mut Vec<StateRecord>) {
        out.clear();
        out.extend(
            self.records
                .iter()
                .filter(|r| is_fresh(r, now, self.ttl_ms) && r.avail.dominates(demand))
                .copied(),
        );
    }

    /// Does any fresh record qualify `demand`? Early-exits on the first hit
    /// — the cheap form of `!qualified(..).is_empty()` for
    /// oracles/diagnostics.
    pub fn has_qualified(&self, demand: &ResVec, now: SimMillis) -> bool {
        self.records
            .iter()
            .any(|r| is_fresh(r, now, self.ttl_ms) && r.avail.dominates(demand))
    }

    /// All fresh records, in ascending subject order.
    pub fn fresh(&self, now: SimMillis) -> Vec<StateRecord> {
        self.records
            .iter()
            .filter(|r| is_fresh(r, now, self.ttl_ms))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(subject: u32, avail: &[f64], at: SimMillis) -> StateRecord {
        StateRecord {
            subject: NodeId(subject),
            avail: ResVec::from_slice(avail),
            stored_at: at,
        }
    }

    #[test]
    fn insert_replaces_older_same_subject() {
        let mut c = RecordCache::new(600_000);
        c.insert(rec(1, &[1.0, 1.0], 1_000));
        c.insert(rec(1, &[2.0, 2.0], 2_000));
        assert_eq!(c.len(), 1);
        let fresh = c.fresh(2_000);
        assert_eq!(fresh[0].avail[0], 2.0);
        // Stale duplicate does not clobber the newer record.
        c.insert(rec(1, &[9.0, 9.0], 500));
        assert_eq!(c.fresh(2_000)[0].avail[0], 2.0);
    }

    #[test]
    fn ttl_expiry() {
        let mut c = RecordCache::new(600_000);
        c.insert(rec(1, &[1.0], 0));
        assert!(!c.is_empty_at(600_000)); // exactly at TTL: still fresh
        assert!(c.is_empty_at(600_001));
        assert_eq!(c.purge_expired(700_000), 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn qualified_filters_by_dominance_and_freshness() {
        let mut c = RecordCache::new(600_000);
        c.insert(rec(1, &[4.0, 4.0], 0)); // qualifies, fresh at 100k
        c.insert(rec(2, &[1.0, 9.0], 0)); // fails dim 0
        c.insert(rec(3, &[9.0, 9.0], 0)); // qualifies
        let demand = ResVec::from_slice(&[2.0, 2.0]);
        let q: Vec<u32> = c
            .qualified(&demand, 100_000)
            .iter()
            .map(|r| r.subject.0)
            .collect();
        // Ascending subject order.
        assert_eq!(q, vec![1, 3]);
        assert!(c.has_qualified(&demand, 100_000));
        // Far in the future everything expired.
        assert!(c.qualified(&demand, 10_000_000).is_empty());
        assert!(!c.has_qualified(&demand, 10_000_000));
    }

    #[test]
    fn remove_subject() {
        let mut c = RecordCache::new(1_000);
        c.insert(rec(5, &[1.0], 0));
        assert!(c.remove(NodeId(5)).is_some());
        assert!(c.remove(NodeId(5)).is_none());
        assert!(c.is_empty());
    }

    /// Regression (ISSUE 4 satellite): `len`/`is_empty` count
    /// expired-but-unpurged records, so a caller watching them could see a
    /// "non-empty" cache with zero usable records. `fresh_len` is the
    /// freshness-consistent counterpart of `is_empty_at`.
    #[test]
    fn len_counts_expired_records_fresh_len_does_not() {
        let mut c = RecordCache::new(1_000);
        c.insert(rec(1, &[1.0], 0));
        c.insert(rec(2, &[1.0], 5_000));
        // At t = 10 s, record 1 is long expired but never purged.
        assert_eq!(c.len(), 2, "len counts expired-but-unpurged records");
        assert!(!c.is_empty());
        assert_eq!(c.fresh_len(5_500), 1);
        assert!(!c.is_empty_at(5_500));
        // Both expired: len still 2, fresh view empty.
        assert_eq!(c.len(), 2);
        assert_eq!(c.fresh_len(10_000), 0);
        assert!(c.is_empty_at(10_000), "no fresh records at t=10s");
        assert!(!c.is_empty(), "…though stale ones are still stored");
        // After the purge the two views agree again.
        assert_eq!(c.purge_expired(10_000), 2);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn out_of_order_inserts_keep_freshness_sorted() {
        let mut c = RecordCache::new(600_000);
        // Timestamps arrive shuffled; the TTL cut must still be exact.
        for (s, at) in [(1, 5_000), (2, 1_000), (3, 9_000), (4, 3_000)] {
            c.insert(rec(s, &[1.0], at));
        }
        assert_eq!(c.fresh_len(601_500), 3); // record 2 expired
        let ids: Vec<u32> = c.fresh(601_500).iter().map(|r| r.subject.0).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }
}
