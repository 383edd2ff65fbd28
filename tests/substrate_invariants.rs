//! Cross-crate invariant tests at the substrate level: CAN + INSCAN +
//! PID-CAN structures driven together, checking the paper's analytic
//! claims (§III-A/B) on live structures.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed a local RNG; no simulation stream is involved"
)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use soc_pidcan::can::{is_negative_direction, CanOverlay};
use soc_pidcan::inscan::{inscan_route, kmax_for, range_query, IndexTables};
use soc_pidcan::pidcan::diffusion::{binary_decomposition, simulate_diffusion, theorem1_hops};
use soc_pidcan::pidcan::DiffusionMethod;
use soc_pidcan::types::{NodeId, ResVec};

fn setup(n: usize, dim: usize, seed: u64) -> (CanOverlay, IndexTables, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ov = CanOverlay::bootstrap(dim, n, n, &mut rng);
    let mut tables = IndexTables::new(dim, n, n);
    tables.refresh_all(&ov, &mut rng);
    (ov, tables, rng)
}

#[test]
fn inscan_rq_traffic_matches_formula() {
    // §III-A: traffic per INSCAN-RQ = routing hops + (N − 1) where N is the
    // number of responsible zones.
    let (ov, tables, mut rng) = setup(256, 2, 1);
    for _ in 0..50 {
        let v = soc_pidcan::can::overlay::random_point(2, &mut rng);
        let out = range_query(&ov, &tables, NodeId(0), &v, &ResVec::splat(2, 1.0));
        assert_eq!(out.total_msgs(), out.route_hops + out.responsible.len() - 1);
        // Every responsible zone genuinely overlaps the query box.
        for n in &out.responsible {
            assert!(ov
                .zone(*n)
                .unwrap()
                .overlaps_box(&v, &ResVec::splat(2, 1.0)));
        }
    }
}

#[test]
fn state_update_delivery_is_olog_n() {
    // §III-A: "the state-update message delivery distance is O(log2 n)".
    let n = 1024;
    let (ov, tables, mut rng) = setup(n, 2, 2);
    let bound = 3.0 * (n as f64).log2();
    let mut total = 0usize;
    let trials = 300;
    for i in 0..trials {
        let from = NodeId((i * 7 % n) as u32);
        let p = soc_pidcan::can::overlay::random_point(2, &mut rng);
        let out = inscan_route(&ov, &tables, from, &p, 100_000);
        assert!(out.owner.is_some());
        total += out.hops();
    }
    let avg = total as f64 / trials as f64;
    assert!(avg <= bound, "avg {avg:.1} hops vs bound {bound:.1}");
}

#[test]
fn hid_diffusion_reaches_negative_direction_nodes_over_rounds() {
    // Theorem 1's operational consequence: repeated HID rounds notify the
    // overwhelming majority of a node's negative-direction set.
    //
    // Regime note: Algorithm 1 fixes the same-dimension relay budget to
    // dim_TTL = L = 2, so one round composes at most two 2^k jumps per
    // dimension. That covers every distance when r = n^{1/d} ≲ 2^kmax + 2^kmax
    // (the paper's 5-D SOC has r ≈ 4.6), which is the regime this test
    // pins; low-dimensional/high-r spaces are structurally under-covered —
    // quantified by the `diffusion_coverage` bench.
    let (ov, tables, mut rng) = setup(216, 3, 3);
    let origin = ov.owner_of(&ResVec::splat(3, 1.0));
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..300 {
        let out = simulate_diffusion(&ov, &tables, origin, DiffusionMethod::Hopping, 2, &mut rng);
        seen.extend(out.reached.iter().map(|(n, _)| *n));
    }
    let oz = ov.zone(origin).unwrap();
    let neg: Vec<NodeId> = ov
        .live_nodes()
        .filter(|&n| n != origin)
        .filter(|&n| is_negative_direction(&ov.zone(n).unwrap(), &oz))
        .collect();
    let hit = neg.iter().filter(|n| seen.contains(*n)).count();
    // The chain structure (one next-dimension chain per visited relay)
    // biases coverage toward diagonal bands, so the plateau sits below
    // 100% even with unlimited rounds; 60% of the *entire* space from a
    // single origin is ample for PIList population (every query consults
    // d agents × jump chains, not one receiver).
    assert!(
        hit as f64 >= 0.6 * neg.len() as f64,
        "cumulative HID coverage too small: {hit}/{}",
        neg.len()
    );
}

#[test]
fn kmax_tracks_paper_formula_at_eval_scales() {
    // §III-A: k = 0,1,…,⌊log2 n^{1/d}⌋ — Table III's node counts.
    assert_eq!(kmax_for(2000, 5), 2);
    assert_eq!(kmax_for(4000, 5), 2);
    assert_eq!(kmax_for(12000, 5), 2);
    assert_eq!(kmax_for(12000, 2), 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem1_binary_decomposition(lambda in 1usize..4096) {
        let parts = binary_decomposition(lambda);
        prop_assert_eq!(parts.iter().sum::<usize>(), lambda);
        prop_assert_eq!(parts.len(), theorem1_hops(lambda));
        let bound = (lambda as f64).log2().floor() as usize + 1;
        prop_assert!(parts.len() <= bound);
    }

    #[test]
    fn overlay_survives_arbitrary_churn_scripts(
        seed in 0u64..500,
        script in prop::collection::vec(prop::bool::ANY, 1..40),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ov = CanOverlay::bootstrap(3, 32, 128, &mut rng);
        let mut next_id = 32u32;
        for join in script {
            if join || ov.len() <= 2 {
                ov.join(NodeId(next_id), &soc_pidcan::can::overlay::random_point(3, &mut rng));
                next_id += 1;
            } else {
                let k = (seed as usize + next_id as usize) % ov.len();
                let victim = ov.live_nodes().nth(k).unwrap();
                ov.leave(victim);
            }
        }
        prop_assert!(ov.validate().is_ok(), "{:?}", ov.validate());
    }

    #[test]
    fn routing_correct_after_churn(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ov = CanOverlay::bootstrap(2, 48, 96, &mut rng);
        // Churn a third of the overlay.
        for i in 0..16u32 {
            ov.join(NodeId(48 + i), &soc_pidcan::can::overlay::random_point(2, &mut rng));
            let k = (seed as usize + i as usize) % ov.len();
            let victim = ov.live_nodes().nth(k).unwrap();
            ov.leave(victim);
        }
        let mut tables = IndexTables::new(2, 64, 96);
        tables.refresh_all(&ov, &mut rng);
        for _ in 0..20 {
            let p = soc_pidcan::can::overlay::random_point(2, &mut rng);
            let from = ov.live_nodes().next().unwrap();
            let out = inscan_route(&ov, &tables, from, &p, 10_000);
            prop_assert_eq!(out.owner, Some(ov.owner_of(&p)));
        }
    }
}
