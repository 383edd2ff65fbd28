//! Property-based tests for the CAN substrate: the partition tree tiles the
//! space under arbitrary churn, neighbor tables stay exactly consistent with
//! zone geometry, and greedy routing always converges to the true owner —
//! by strict descent of the routing key, for targets on split planes too.
//! The flat tables are held to what they replaced: after every join and
//! leave, each `neighbors_along` run (located by run offsets edited with
//! the table) is the filtered table, and the zone-less tree locates every
//! lattice point in the zone `CanOverlay::zone` serves. The packed zone
//! rows are held to the `f64` zones they encode: every zone round-trips,
//! and on every pair a join or leave re-tests, integer row adjacency is
//! the `f64` `adjacency`. Liveness has one owner, the tree: after every
//! join and leave the overlay's count, its ascending `live_nodes` and
//! `is_alive` all agree with who has a zone.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed a local RNG; no simulation stream is involved"
)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::{
    adjacency, is_negative_direction, route_path, CanOverlay, PartitionTree, Point, Zone, ZoneRow,
};
use soc_types::{NodeId, ResVec, SOC_DIMS};
use soc_workload::{cmax, table1_capacity};

/// A churn script: joins (point) and leaves (victim selector).
#[derive(Clone, Debug)]
enum Op {
    Join([f64; 3]),
    Leave(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::array::uniform3(0.0f64..1.0).prop_map(Op::Join),
        1 => (0usize..64).prop_map(Op::Leave),
    ]
}

fn pt(c: &[f64]) -> ResVec {
    ResVec::from_slice(c)
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

/// A `dim`-dimensional overlay after `seed`-drawn joins and leaves.
fn churned_overlay(dim: usize, seed: u64) -> CanOverlay {
    churned_overlay_checked(dim, seed, |_| Ok(())).unwrap()
}

/// [`churned_overlay`], calling `check` after the bootstrap and after
/// every join and leave.
fn churned_overlay_checked(
    dim: usize,
    seed: u64,
    mut check: impl FnMut(&CanOverlay) -> Result<(), String>,
) -> Result<CanOverlay, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ov = CanOverlay::bootstrap(dim, 24, 64, &mut rng);
    check(&ov)?;
    for id in 24..56 {
        if rng.random_range(0..3) > 0 {
            ov.join(NodeId(id), &random_point(dim, &mut rng));
        } else if ov.len() > 2 {
            let victim = ov.live_nodes().nth(rng.random_range(0..ov.len())).unwrap();
            ov.leave(victim);
        }
        check(&ov)?;
    }
    Ok(ov)
}

/// Every node's `neighbors_along` runs — departed and never-joined ids
/// included — are exactly its table filtered by `(dim, positive)`, one past
/// the last dimension too (an empty run, not a panic), and in run order
/// they concatenate to the whole table.
fn runs_match_tables(ov: &CanOverlay) -> Result<(), String> {
    for id in 0..64 {
        let n = NodeId(id);
        let mut concat = Vec::new();
        for d in 0..=ov.dim() {
            for positive in [false, true] {
                let want: Vec<_> = ov
                    .neighbors(n)
                    .iter()
                    .filter(|e| usize::from(e.dim) == d && e.positive == positive)
                    .copied()
                    .collect();
                let run = ov.neighbors_along(n, d, positive);
                prop_assert_eq!(run, &want[..], "{} along {}{}", n, d, positive);
                concat.extend_from_slice(run);
            }
        }
        prop_assert_eq!(
            &concat[..],
            ov.neighbors(n),
            "{}'s runs do not tile its table",
            n
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_routing_descends_to_the_owner_of_lattice_targets(
        seed in 0u64..100_000,
        dim_pick in 0usize..3,
        targets in prop::collection::vec(prop::collection::vec(coord(), 5), 3),
    ) {
        let dim = [2, 3, 5][dim_pick];
        let ov = churned_overlay(dim, seed);
        for t in &targets {
            let p = pt(&t[..dim]);
            let owner = ov.owner_of(&p);
            for start in ov.live_nodes() {
                let out = route_path(&ov, start, &p, ov.len());
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

/// The live set is the tree's zone owners, however it is asked: `len`
/// counts `live_nodes`, which ascend strictly, and `is_alive` holds for an
/// id below `ids` — and for `ids` itself, one past them — exactly when it
/// has a zone.
fn live_set_is_the_tree(ov: &CanOverlay, ids: u32) -> Result<(), String> {
    let live: Vec<NodeId> = ov.live_nodes().collect();
    prop_assert_eq!(ov.len(), live.len());
    prop_assert!(live.windows(2).all(|w| w[0] < w[1]), "{:?}", live);
    for id in 0..=ids {
        let n = NodeId(id);
        prop_assert_eq!(ov.is_alive(n), ov.zone(n).is_some(), "{}", n);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn neighbor_runs_and_leaf_lookup_agree_with_the_tables(
        seed in 0u64..100_000,
        dim_pick in 0usize..3,
        targets in prop::collection::vec(prop::collection::vec(coord(), 5), 8),
    ) {
        let dim = [2, 3, 5][dim_pick];
        // Tables are edited in place, so check the runs and the live set
        // after every step.
        let ov = churned_overlay_checked(dim, seed, |ov| {
            runs_match_tables(ov)?;
            live_set_is_the_tree(ov, 64)
        })?;
        prop_assert!(ov.validate().is_ok(), "{:?}", ov.validate());
        for n in ov.live_nodes() {
            // A zone owns its low corner (half-open) and its centre.
            let z = ov.zone(n).unwrap();
            prop_assert_eq!(ov.tree().zone_of(n), Some(z));
            prop_assert_eq!(ov.tree().find_leaf(z.lo()), n);
            prop_assert_eq!(ov.tree().find_leaf(&z.center()), n);
        }
        for t in &targets {
            let p = pt(&t[..dim]);
            // Twice: the descent, then the last-hit shortcut.
            for _ in 0..2 {
                let owner = ov.tree().find_leaf(&p);
                prop_assert!(ov.zone(owner).unwrap().contains(&p), "{} for {:?}", owner, p);
            }
        }
    }

    #[test]
    fn tree_tiles_space_under_churn(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut t = PartitionTree::new(3, NodeId(0));
        let mut next = 1u32;
        for op in ops {
            match op {
                Op::Join(p) => {
                    t.join(NodeId(next), &pt(&p));
                    next += 1;
                }
                Op::Leave(k) => {
                    if t.len() > 1 {
                        let victims: Vec<NodeId> = t.leaves().map(|(n, _)| n).collect();
                        let mut sorted = victims;
                        sorted.sort();
                        let v = sorted[k % sorted.len()];
                        t.leave(v).unwrap();
                    }
                }
            }
            prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        }
    }

    #[test]
    fn every_point_has_exactly_one_owner(
        points in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 20),
        probes in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 20),
    ) {
        let mut t = PartitionTree::new(3, NodeId(0));
        for (i, p) in points.iter().enumerate() {
            t.join(NodeId(i as u32 + 1), &pt(p));
        }
        for q in &probes {
            let q = pt(q);
            let owner = t.find_leaf(&q);
            // Exactly one leaf zone contains the probe point.
            let containing: Vec<NodeId> = t
                .leaves()
                .filter(|(_, z)| z.contains(&q))
                .map(|(n, _)| n)
                .collect();
            prop_assert_eq!(containing.len(), 1);
            prop_assert_eq!(containing[0], owner);
        }
    }

    #[test]
    fn overlay_neighbors_consistent_under_churn(seed in 0u64..1000, churn_rounds in 0usize..12) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ov = CanOverlay::bootstrap(2, 24, 64, &mut rng);
        for round in 0..churn_rounds {
            let newcomer = NodeId(24 + round as u32);
            ov.join(newcomer, &random_point(2, &mut rng));
            let nth = (seed as usize + round) % ov.len();
            let victim = ov.live_nodes().nth(nth).unwrap();
            ov.leave(victim);
        }
        prop_assert!(ov.validate().is_ok(), "{:?}", ov.validate());
    }

    #[test]
    fn routing_always_converges(seed in 0u64..500, target in prop::array::uniform2(0.0f64..1.0)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ov = CanOverlay::bootstrap(2, 40, 64, &mut rng);
        let t = pt(&target);
        for start in ov.live_nodes() {
            let out = route_path(&ov, start, &t, 4_000);
            prop_assert_eq!(out.owner, Some(ov.owner_of(&t)));
        }
    }

    #[test]
    fn adjacency_is_symmetric_with_flipped_orientation(
        a_lo in prop::array::uniform2(0.0f64..0.9),
        b_lo in prop::array::uniform2(0.0f64..0.9),
        w in 0.05f64..0.5,
    ) {
        let za = Zone::new(pt(&a_lo), pt(&[a_lo[0] + w, a_lo[1] + w]));
        let zb = Zone::new(pt(&b_lo), pt(&[b_lo[0] + w, b_lo[1] + w]));
        match (adjacency(&za, &zb), adjacency(&zb, &za)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.dim, y.dim);
                prop_assert_ne!(x.first_is_positive, y.first_is_positive);
            }
            other => prop_assert!(false, "asymmetric adjacency: {:?}", other),
        }
    }

    #[test]
    fn negative_direction_is_transitive_on_chains(
        xs in prop::collection::vec(0.0f64..0.3, 2),
        shift in 0.31f64..0.6,
    ) {
        // Build three boxes stacked along both axes: A below B below C.
        let a = Zone::new(pt(&xs), pt(&[xs[0] + 0.05, xs[1] + 0.05]));
        let b = Zone::new(
            pt(&[xs[0] + shift * 0.5, xs[1] + shift * 0.5]),
            pt(&[xs[0] + shift * 0.5 + 0.05, xs[1] + shift * 0.5 + 0.05]),
        );
        let c = Zone::new(
            pt(&[xs[0] + shift, xs[1] + shift]),
            pt(&[xs[0] + shift + 0.05, xs[1] + shift + 0.05]),
        );
        if is_negative_direction(&a, &b) && is_negative_direction(&b, &c) {
            prop_assert!(is_negative_direction(&a, &c));
        }
    }

    #[test]
    fn split_then_merge_roundtrip(
        cuts in prop::collection::vec(0usize..3, 0..24),
        dim in 0usize..3,
    ) {
        // A zone of the tree: the unit box after `cuts` midpoint splits,
        // keeping the lower or upper half by the parity of the step.
        let mut z = ZoneRow::unit(3);
        for (i, &d) in cuts.iter().enumerate() {
            let (lo, hi) = z.split(d);
            z = if i % 2 == 0 { lo } else { hi };
        }
        let (a, b) = z.split(dim);
        prop_assert_eq!(a.merge(&b), Some(z));
        prop_assert_eq!(b.merge(&a), Some(z));
        let (za, zb) = (a.zone(), b.zone());
        prop_assert_eq!(za.volume() + zb.volume(), z.zone().volume());
        // Halves are adjacent along the split dimension.
        let adj = adjacency(&za, &zb).unwrap();
        prop_assert_eq!(adj.dim, dim);
        prop_assert_eq!(a.adjacency(&b), Some(adj));
    }
}

/// A join point as the simulator draws them: uniform ([`random_point`],
/// what a churn join picks), or — one draw in `lattice` of four — a Table I
/// node's capacity normalized by `cmax`, which sits on the faces of the key
/// space and on split planes.
fn join_point(rng: &mut SmallRng, lattice: u32) -> Point {
    if rng.random_range(0..4) < lattice {
        table1_capacity(rng).div_elem(&cmax())
    } else {
        random_point(SOC_DIMS, rng)
    }
}

/// `n`'s row decodes to the zone `CanOverlay::zone` serves and packs back
/// to itself.
fn row_round_trips(ov: &CanOverlay, n: NodeId) -> Result<(), String> {
    let row = *ov.tree().row(n).ok_or(format!("{n} has no row"))?;
    let zone = ov.zone(n).ok_or(format!("{n} has no zone"))?;
    prop_assert_eq!(row.zone(), zone, "{}", n);
    prop_assert_eq!(ZoneRow::pack(&zone), row, "{}", n);
    Ok(())
}

/// Row adjacency of `a` and `b` is the `f64` adjacency of their zones.
fn rows_agree(ov: &CanOverlay, a: NodeId, b: NodeId) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let (ra, rb) = (ov.tree().row(a).unwrap(), ov.tree().row(b).unwrap());
    prop_assert_eq!(
        ra.adjacency(rb),
        adjacency(&ra.zone(), &rb.zone()),
        "{} {}",
        a,
        b
    );
    Ok(())
}

/// `ov.join(id, p)`, then the checks on every pair the join re-tests: the
/// splitter and the newcomer against each other and against each of the
/// splitter's old neighbors.
fn checked_join(ov: &mut CanOverlay, id: NodeId, p: &Point) -> Result<(), String> {
    let owner = ov.owner_of(p);
    let old: Vec<NodeId> = ov.neighbors(owner).iter().map(|e| e.node).collect();
    ov.join(id, p);
    for n in [owner, id] {
        row_round_trips(ov, n)?;
        for &v in &old {
            rows_agree(ov, n, v)?;
        }
    }
    rows_agree(ov, owner, id)
}

/// `ov.leave(victim)`, then the checks on every pair the leave re-tests:
/// each reassigned node against the victim's neighbors, the reassigned
/// nodes and their old neighbors (which covers the two reassigned nodes
/// against each other).
fn checked_leave(ov: &mut CanOverlay, victim: NodeId, ids: u32) -> Result<(), String> {
    let old: Vec<Vec<NodeId>> = (0..ids)
        .map(|i| ov.neighbors(NodeId(i)).iter().map(|e| e.node).collect())
        .collect();
    let reass: Vec<NodeId> = ov.leave(victim).into_iter().map(|(n, _)| n).collect();
    let mut cand: Vec<NodeId> = old[victim.idx()].clone();
    for n in &reass {
        cand.push(*n);
        cand.extend(&old[n.idx()]);
    }
    cand.retain(|&v| v != victim);
    for &n in &reass {
        row_round_trips(ov, n)?;
        for &v in &cand {
            rows_agree(ov, n, v)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn zone_rows_round_trip_and_agree_with_f64_adjacency(
        seed in 0u64..100_000,
        lattice in 1u32..=3,
    ) {
        // A 10 000-node bootstrap, joins as the workload draws them.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ov = CanOverlay::new(SOC_DIMS, 10_000, NodeId(0));
        for id in 1..10_000 {
            let p = join_point(&mut rng, lattice);
            checked_join(&mut ov, NodeId(id), &p)?;
        }
        for n in ov.live_nodes() {
            row_round_trips(&ov, n)?;
        }

        // A churned overlay: joins and leaves in equal measure.
        const IDS: u32 = 600;
        let mut ov = CanOverlay::new(SOC_DIMS, IDS as usize, NodeId(0));
        for id in 1..IDS / 2 {
            let p = join_point(&mut rng, lattice);
            checked_join(&mut ov, NodeId(id), &p)?;
        }
        for _ in 0..IDS {
            let id = NodeId(rng.random_range(0..IDS));
            if !ov.is_alive(id) {
                let p = join_point(&mut rng, lattice);
                checked_join(&mut ov, id, &p)?;
            } else if ov.len() > 1 {
                checked_leave(&mut ov, id, IDS)?;
            }
            live_set_is_the_tree(&ov, IDS)?;
        }
        for n in ov.live_nodes() {
            row_round_trips(&ov, n)?;
        }
        prop_assert!(ov.validate().is_ok(), "{:?}", ov.validate());
    }
}

/// Joins at 0 halve the zone there: 32 halvings reach the 2^-32 row
/// resolution with every zone exact, and the 33rd is the named panic of a
/// split below resolution, not a wrong zone.
#[test]
#[should_panic(expected = "zone too thin to split along dim 0")]
fn halving_one_dimension_past_2_pow_minus_32_is_a_named_panic() {
    let origin = pt(&[0.0]);
    let mut t = PartitionTree::new(1, NodeId(0));
    for k in 1..=32u32 {
        t.join(NodeId(k), &origin);
        let width = 1.0 / f64::from(1u32 << (k - 1)) / 2.0;
        let want = Zone::new(pt(&[0.0]), pt(&[width]));
        assert_eq!(t.zone_of(NodeId(k)), Some(want), "after {k} halvings");
        assert_eq!(t.find_leaf(&origin), NodeId(k));
    }
    t.validate().unwrap();
    t.join(NodeId(33), &origin);
}
