//! Property test: the `SOC_ROUTE=cached` router is observationally
//! identical to the scan router on random op scripts — the same next hop
//! (finger step *and* greedy step) for every query, interleaved with
//! joins, leaves, finger-table refreshes and evictions (the events that
//! invalidate cached hops through the overlay/table epochs).
//!
//! Queries draw from a small pool of target points so the same
//! `(node, target)` pairs recur — the cached router must actually *hit*
//! (asserted below) and still agree after every structural change.
//!
//! Runs 256 cases minimum (`PROPTEST_CASES` can only raise it), matching
//! the acceptance bar set by the PR-2 queue rewrite and the PR-4 cache.
//!
//! A second property pins what the step must guarantee whichever router
//! computes it: a full INSCAN route is a strict descent of the routing key
//! and ends at the owner, for the split-plane targets the workload draws.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::{greedy_next_hop, CanOverlay};
use soc_inscan::{inscan_next_hop, inscan_route, IndexTables, RouteBackend, Router};
use soc_types::{NodeId, ResVec};

const DIM: usize = 3;
const START: usize = 48;
const MAX_NODES: usize = 96;
const POOL: usize = 12;

/// One scripted world operation, decoded from a generated tuple.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A fresh id joins at an rng-drawn point.
    Join,
    /// The `pick`-th live node leaves (never drains the overlay).
    Leave { pick: usize },
    /// The `pick`-th live node rebuilds its finger table.
    Refresh { pick: usize },
    /// The `pick`-th live node is evicted from every finger table
    /// (stale-finger repair after departure).
    Evict { pick: usize },
    /// Route from the `pick`-th live node toward pool target `t`,
    /// comparing cached vs scan for both the finger and the greedy step.
    Query { pick: usize, t: usize },
}

fn decode(kind: u8, pick: usize, seed: u64) -> Op {
    match kind {
        0 => Op::Join,
        1 => Op::Leave { pick },
        2 => Op::Refresh { pick },
        3 => Op::Evict { pick },
        _ => Op::Query {
            pick,
            t: (seed % POOL as u64) as usize,
        },
    }
}

fn nth_live(ov: &CanOverlay, pick: usize) -> NodeId {
    let n = ov.len();
    ov.live_nodes().nth(pick % n).expect("non-empty overlay")
}

fn run_script(ops: &[(u8, u16, u64)]) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(0xD1CE);
    let mut ov = CanOverlay::bootstrap(DIM, START, MAX_NODES, &mut rng);
    let mut tables = IndexTables::new(DIM, START, MAX_NODES);
    tables.refresh_all(&ov, &mut rng);
    let mut cached = Router::with_backend(RouteBackend::Cached);
    let mut scan = Router::with_backend(RouteBackend::Scan);
    let pool: Vec<_> = (0..POOL).map(|_| random_point(DIM, &mut rng)).collect();
    // Ids not currently alive, usable for joins.
    let mut free: Vec<NodeId> = (START..MAX_NODES).map(|i| NodeId(i as u32)).collect();

    for &(kind, pick, seed) in ops {
        match decode(kind, pick as usize, seed) {
            Op::Join => {
                if let Some(id) = free.pop() {
                    ov.join(id, &random_point(DIM, &mut rng));
                    tables.refresh_node(id, &ov, &mut rng);
                }
            }
            Op::Leave { pick } => {
                if ov.len() > 2 {
                    let victim = nth_live(&ov, pick);
                    ov.leave(victim);
                    tables.clear_node(victim);
                    free.push(victim);
                }
            }
            Op::Refresh { pick } => {
                let node = nth_live(&ov, pick);
                tables.refresh_node(node, &ov, &mut rng);
            }
            Op::Evict { pick } => {
                let node = nth_live(&ov, pick);
                tables.evict_everywhere(node);
            }
            Op::Query { pick, t } => {
                let from = nth_live(&ov, pick);
                let target = &pool[t];
                let want = scan.next_hop(&ov, &tables, from, target);
                let got = cached.next_hop(&ov, &tables, from, target);
                if got != want {
                    return Err(format!(
                        "finger step diverged at {from} -> {target:?}: \
                         cached {got:?} vs scan {want:?}"
                    ));
                }
                // Lockstep against the raw functions too, so the scan
                // router itself cannot drift from the reference.
                if want != inscan_next_hop(&ov, &tables, from, target) {
                    return Err("scan router drifted from inscan_next_hop".into());
                }
                let wantg = greedy_next_hop(&ov, from, target);
                let gotg = cached.greedy_hop(&ov, from, target);
                if gotg != wantg {
                    return Err(format!(
                        "greedy step diverged at {from} -> {target:?}: \
                         cached {gotg:?} vs scan {wantg:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One target coordinate as the workload draws them: Table I capacities
/// normalize to binary fractions, so an availability point sits on the
/// faces of the key space and exactly on midpoint split planes. One draw
/// in six stays continuous (a loaded node's point).
fn coord() -> impl Strategy<Value = f64> {
    (0u8..6, 0u32..=6, 0u32..64, 0.0f64..1.0).prop_map(|(kind, j, k, x)| match kind {
        0 => 0.0,
        1 => 1.0,
        2..=4 => f64::from(k % (1 << j)) / f64::from(1u32 << j),
        _ => x,
    })
}

/// A `dim`-dimensional overlay and its finger tables after `seed`-drawn
/// joins and leaves. Only a joiner builds its row, so everyone else's
/// fingers go stale the way they do between two refresh timers.
fn churned_world(dim: usize, seed: u64) -> (CanOverlay, IndexTables) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ov = CanOverlay::bootstrap(dim, 32, 64, &mut rng);
    let mut tables = IndexTables::new(dim, 32, 64);
    tables.refresh_all(&ov, &mut rng);
    for id in 32..64 {
        if rng.random_range(0..3) > 0 {
            ov.join(NodeId(id), &random_point(dim, &mut rng));
            tables.refresh_node(NodeId(id), &ov, &mut rng);
        } else if ov.len() > 2 {
            let victim = nth_live(&ov, rng.random_range(0..ov.len()));
            ov.leave(victim);
            tables.clear_node(victim);
        }
    }
    (ov, tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_router_matches_scan_under_churn(
        ops in prop::collection::vec((0u8..8, 0u16..512, 0u64..1_000_000), 1..150)
    ) {
        if let Err(e) = run_script(&ops) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn inscan_routes_descend_to_the_owner_of_lattice_targets(
        seed in 0u64..100_000,
        dim_pick in 0usize..3,
        targets in prop::collection::vec(prop::collection::vec(coord(), 5), 3),
    ) {
        let dim = [2, 3, 5][dim_pick];
        let (ov, tables) = churned_world(dim, seed);
        for t in &targets {
            let p = ResVec::from_slice(&t[..dim]);
            let owner = ov.owner_of(&p);
            for start in ov.live_nodes() {
                let out = inscan_route(&ov, &tables, start, &p, ov.len());
                prop_assert_eq!(out.owner, Some(owner), "from {} toward {:?}", start, p);
                let mut key = ov.zone(start).unwrap().route_key(&p);
                for hop in &out.path {
                    let next = ov.zone(*hop).unwrap().route_key(&p);
                    prop_assert!(next < key, "{:?} -> {:?} at {} toward {:?}", key, next, hop, p);
                    key = next;
                }
                prop_assert_eq!(key, (0.0, 0));
            }
        }
    }
}

/// Deterministic torture case: query bursts against the same pool targets
/// between every kind of invalidation, heavy enough that the cache must
/// both hit (validating the memoization) and invalidate (validating the
/// epochs), independent of the generated scripts.
#[test]
fn churn_storm_stays_lockstep_and_hits() {
    let mut ops: Vec<(u8, u16, u64)> = Vec::new();
    for i in 0u64..400 {
        // Repeated same-target queries from a few senders...
        ops.push((7, (i % 5) as u16, i % 4));
        ops.push((7, (i % 3) as u16, (i + 1) % 4));
        // ...interleaved with churn and table maintenance.
        match i % 8 {
            0 => ops.push((0, 0, i)),               // join
            2 => ops.push((1, (i % 11) as u16, i)), // leave
            4 => ops.push((2, (i % 7) as u16, i)),  // refresh
            6 => ops.push((3, (i % 13) as u16, i)), // evict
            _ => {}
        }
    }
    run_script(&ops).unwrap();

    // The memoization must actually engage on this repeat-heavy script:
    // rebuild the same world and count hits through a fresh router.
    let mut rng = SmallRng::seed_from_u64(7);
    let ov = CanOverlay::bootstrap(DIM, START, MAX_NODES, &mut rng);
    let mut tables = IndexTables::new(DIM, START, MAX_NODES);
    tables.refresh_all(&ov, &mut rng);
    let mut router = Router::with_backend(RouteBackend::Cached);
    let pool: Vec<_> = (0..POOL).map(|_| random_point(DIM, &mut rng)).collect();
    for round in 0..3 {
        for p in &pool {
            for n in 0..8u32 {
                router.next_hop(&ov, &tables, NodeId(n), p);
            }
        }
        let s = router.cache_stats();
        if round > 0 {
            assert!(
                s.hits > 0,
                "stable world + repeated targets must hit: {s:?}"
            );
        }
    }
}
