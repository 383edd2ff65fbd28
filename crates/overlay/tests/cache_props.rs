//! Property test: `RecordCache` against a naive `Vec<StateRecord>` oracle
//! on random op scripts — same qualified lists (contents *and* order), same
//! fresh views, same counts, same purge results at every step — including
//! out-of-order timestamps, same-subject replacement races, removals and
//! heavy expiry. The oracle restates the contract from scratch (linear
//! search, sort on read), sharing no code with the cache.
//!
//! Runs 256 cases minimum (`PROPTEST_CASES` can only raise it), matching
//! the acceptance bar set by the PR-2 queue rewrite.

use proptest::prelude::*;
use soc_overlay::{RecordCache, StateRecord};
use soc_types::{NodeId, ResVec, SimMillis};

const TTL: SimMillis = 5_000;

/// One scripted cache operation, decoded from a generated tuple.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert a record for `subject` with availability derived from `a`,
    /// stamped `back` ms behind the current clock (possibly out of order).
    Insert { subject: u32, a: u64, back: u64 },
    /// Remove `subject`'s record.
    Remove { subject: u32 },
    /// Advance the clock by `dt` and purge.
    Purge { dt: u64 },
    /// Advance the clock by `dt` and compare every read-side observable.
    Probe { dt: u64, a: u64 },
}

fn decode(kind: u8, subject: u32, a: u64, dt: u64) -> Op {
    match kind {
        // Biased toward inserts so caches actually fill up.
        0..=2 => Op::Insert {
            subject,
            a,
            // Mostly fresh timestamps, some deep in the past (instant
            // expiry), some out of order relative to earlier inserts.
            back: dt % (2 * TTL),
        },
        3 => Op::Remove { subject },
        4 => Op::Purge { dt: dt % 2_000 },
        _ => Op::Probe { dt: dt % 2_000, a },
    }
}

fn avail(seed: u64) -> ResVec {
    // Small coordinate alphabet ⇒ plenty of dominance ties and exact hits.
    ResVec::from_slice(&[
        (seed % 5) as f64,
        (seed / 5 % 5) as f64,
        (seed / 25 % 5) as f64,
    ])
}

/// The contract, stated naively: an unordered bag with at most one record
/// per subject, where the newer `stored_at` wins (ties go to the later
/// insert) and every read filters by age, then sorts by subject.
#[derive(Default)]
struct Oracle(Vec<StateRecord>);

impl Oracle {
    fn insert(&mut self, rec: StateRecord) {
        match self.0.iter_mut().find(|r| r.subject == rec.subject) {
            Some(old) if old.stored_at > rec.stored_at => {}
            Some(old) => *old = rec,
            None => self.0.push(rec),
        }
    }

    fn remove(&mut self, subject: NodeId) -> Option<StateRecord> {
        let i = self.0.iter().position(|r| r.subject == subject)?;
        Some(self.0.swap_remove(i))
    }

    fn purge_expired(&mut self, now: SimMillis) -> usize {
        let before = self.0.len();
        self.0.retain(|r| now.saturating_sub(r.stored_at) <= TTL);
        before - self.0.len()
    }

    /// Fresh records at `now`, ascending subject.
    fn fresh(&self, now: SimMillis) -> Vec<StateRecord> {
        let mut out: Vec<StateRecord> = self
            .0
            .iter()
            .filter(|r| now.saturating_sub(r.stored_at) <= TTL)
            .copied()
            .collect();
        out.sort_by_key(|r| r.subject);
        out
    }

    fn qualified(&self, demand: &ResVec, now: SimMillis) -> Vec<StateRecord> {
        let mut out = self.fresh(now);
        out.retain(|r| r.avail.dominates(demand));
        out
    }
}

/// Run an op script against the cache and the oracle, asserting lockstep
/// equality of every observable.
fn run_script(ops: &[(u8, u32, u64, u64)]) -> Result<(), String> {
    let mut cache = RecordCache::new(TTL);
    let mut oracle = Oracle::default();
    let mut now: SimMillis = TTL; // headroom so `back` cannot underflow 0
    let mut qbuf = Vec::new();
    for (step, &(kind, subject, a, dt)) in ops.iter().enumerate() {
        let err = |what: &str| format!("step {step}: {what} diverged");
        match decode(kind, subject % 24, a, dt) {
            Op::Insert { subject, a, back } => {
                let rec = StateRecord {
                    subject: NodeId(subject),
                    avail: avail(a),
                    stored_at: now.saturating_sub(back),
                };
                cache.insert(rec);
                oracle.insert(rec);
            }
            Op::Remove { subject } => {
                if cache.remove(NodeId(subject)) != oracle.remove(NodeId(subject)) {
                    return Err(err("remove"));
                }
            }
            Op::Purge { dt } => {
                now += dt;
                if cache.purge_expired(now) != oracle.purge_expired(now) {
                    return Err(err("purge_expired count"));
                }
            }
            Op::Probe { dt, a } => {
                now += dt;
                let demand = avail(a / 3);
                let want = oracle.qualified(&demand, now);
                cache.qualified_into(&demand, now, &mut qbuf);
                if qbuf != want {
                    return Err(err("qualified list"));
                }
                if cache.has_qualified(&demand, now) == want.is_empty() {
                    return Err(err("has_qualified"));
                }
                if cache.fresh(now) != oracle.fresh(now) {
                    return Err(err("fresh list"));
                }
            }
        }
        // Cheap invariants checked after *every* op.
        if cache.len() != oracle.0.len() {
            return Err(err("len (expired-unpurged records count)"));
        }
        if cache.is_empty() != oracle.0.is_empty() {
            return Err(err("is_empty"));
        }
        if cache.fresh_len(now) != oracle.fresh(now).len() {
            return Err(err("fresh_len"));
        }
        if (cache.fresh_len(now) == 0) != cache.is_empty_at(now) {
            return Err(err("fresh_len/is_empty_at consistency"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_matches_vec_oracle(
        ops in prop::collection::vec((0u8..6, 0u32..1000, 0u64..1_000_000, 0u64..20_000), 1..200)
    ) {
        if let Err(e) = run_script(&ops) {
            prop_assert!(false, "{e}");
        }
    }
}

/// Deterministic torture case: same-subject replacement churn under
/// steady expiry, independent of the generated scripts.
#[test]
fn replacement_churn_stays_lockstep() {
    let mut ops: Vec<(u8, u32, u64, u64)> = Vec::new();
    for i in 0u64..600 {
        ops.push((0, (i % 7) as u32, i * 131, i % 40)); // replace-heavy inserts
        if i % 5 == 0 {
            ops.push((4, 0, 0, 300)); // purge with clock advance
        }
        ops.push((5, 0, i * 17, 7)); // probe
    }
    run_script(&ops).unwrap();
}
