//! Property test: a full INSCAN route is a strict descent of the routing
//! key and ends at the owner, for the split-plane targets the workload
//! draws, on overlays whose fingers went stale under joins and leaves.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed a local RNG; no simulation stream is involved"
)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::CanOverlay;
use soc_inscan::{inscan_route, IndexTables};
use soc_types::{NodeId, ResVec};

fn nth_live(ov: &CanOverlay, pick: usize) -> NodeId {
    let n = ov.len();
    ov.live_nodes().nth(pick % n).expect("non-empty overlay")
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
