//! Property test: `RecordCache` against a naive `Vec<StateRecord>` oracle
//! on random op scripts — same qualified lists (contents *and* order), same
//! fresh views, same counts, same purge results at every step — including
//! out-of-order timestamps, same-subject replacement races (equal stamps,
//! where the later insert wins, and older re-inserts, which must not),
//! removals and heavy expiry, over a small integer alphabet and over the
//! Table I capacity lattice the workload draws. The oracle restates the contract from scratch (linear
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
            // One in four stamped *now*: the clock moves on purges and
            // probes only, so back-to-back inserts for one subject tie on
            // `stored_at`. The rest mostly fresh, some deep in the past
            // (instant expiry), some older than the record they meet.
            back: if dt % 4 == 0 { 0 } else { dt % (2 * TTL) },
        },
        3 => Op::Remove { subject },
        4 => Op::Purge { dt: dt % 2_000 },
        _ => Op::Probe { dt: dt % 2_000, a },
    }
}

/// Which vectors a script draws.
#[derive(Clone, Copy, Debug)]
enum Alphabet {
    /// Three small integer coordinates ⇒ plenty of dominance ties and
    /// exact hits.
    Small,
    /// Table I: an idle node's availability is its capacity, one of four
    /// levels per dimension (`soc_workload::nodes`), and a loaded node's is
    /// that minus Table II demands — halves and quarters of the same
    /// levels — so Inequality (2) is decided by exact equality all the time.
    TableI,
}

fn avail(alphabet: Alphabet, seed: u64) -> ResVec {
    let level = |levels: [f64; 4], digit: u64| levels[(seed / digit % 4) as usize];
    match alphabet {
        Alphabet::Small => ResVec::from_slice(&[
            (seed % 5) as f64,
            (seed / 5 % 5) as f64,
            (seed / 25 % 5) as f64,
        ]),
        Alphabet::TableI => {
            let used = [1.0, 0.5, 0.25, 0.0][(seed / 4096 % 4) as usize];
            ResVec::from_slice(&[
                level([1.0, 2.0, 4.0, 8.0], 1) * level([1.0, 2.0, 2.4, 3.2], 4),
                level([20.0, 40.0, 60.0, 80.0], 16),
                level([5.0, 7.5, 10.0, 6.25], 64),
                level([20.0, 60.0, 120.0, 240.0], 256),
                level([512.0, 1024.0, 2048.0, 4096.0], 1024),
            ]) * used
        }
    }
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
fn run_script(alphabet: Alphabet, ops: &[(u8, u32, u64, u64)]) -> Result<(), String> {
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
                    avail: avail(alphabet, a),
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
                let demand = avail(alphabet, a / 3);
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
        table_i in 0u8..2,
        ops in prop::collection::vec((0u8..6, 0u32..1000, 0u64..1_000_000, 0u64..20_000), 1..200)
    ) {
        let alphabet = if table_i == 1 { Alphabet::TableI } else { Alphabet::Small };
        if let Err(e) = run_script(alphabet, &ops) {
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
    run_script(Alphabet::Small, &ops).unwrap();
    run_script(Alphabet::TableI, &ops).unwrap();
}

/// The two replacement rules a duty cache meets when updates overtake each
/// other, spelled out: an equally old record replaces (the later insert
/// wins), an older one is dropped.
#[test]
fn equal_stamp_replaces_and_older_reinsert_does_not() {
    let rec = |a: u64, stored_at| StateRecord {
        subject: NodeId(3),
        avail: avail(Alphabet::TableI, a),
        stored_at,
    };
    let mut cache = RecordCache::new(TTL);
    cache.insert(rec(1, 1_000));
    cache.insert(rec(2, 1_000));
    assert_eq!(cache.fresh(1_000), vec![rec(2, 1_000)]);
    cache.insert(rec(7, 999));
    assert_eq!(cache.fresh(1_000), vec![rec(2, 1_000)]);
    assert_eq!(cache.len(), 1);
}
