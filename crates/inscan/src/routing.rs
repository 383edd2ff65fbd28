//! INSCAN routing: finger jumps + greedy fallback.

use crate::table::IndexTables;
use soc_can::{greedy_next_hop, CanOverlay, Point, RouteOutcome};
use soc_types::{NodeId, MAX_DIM};

/// One INSCAN routing step from `current` toward `target`.
///
/// Strategy: try the longest `2^k` finger (largest `k` first, both
/// directions as needed per dimension) that strictly reduces the distance
/// to the target without overshooting along its dimension; otherwise fall
/// back to a greedy adjacent hop. Returns `None` when `current`'s zone
/// contains the target.
///
/// Either way the step strictly lowers [`Zone::route_key`](soc_can::Zone::route_key):
/// a finger is taken only for a strictly smaller distance, and the greedy
/// hop descends the full key — which is what finishes the walk once the
/// target is at distance 0 on a split plane some neighbor owns. So a
/// route reaches `owner_of(target)` for every target, stale fingers or not.
///
/// This step runs once per routed hop of every message in the simulation —
/// the dimension ranking works in a fixed-size stack array (`dim ≤`
/// [`MAX_DIM`]) with a stable insertion sort, so the step allocates
/// nothing. The sort is descending by remaining gap with ties keeping
/// dimension order, exactly the comparison order of the `Vec::sort_by`
/// it replaced (both are stable), so routing decisions are bit-identical.
pub fn inscan_next_hop(
    ov: &CanOverlay,
    tables: &IndexTables,
    current: NodeId,
    target: &Point,
) -> Option<NodeId> {
    let zone = ov.row(current).expect("routing from dead node");
    if zone.contains(target) {
        return None;
    }
    let cur_dist = zone.dist_to_point(target);
    let table = tables.get(current);

    // Rank dimensions by how far we still have to travel along them (from
    // the zone's centre, `(lo + hi) · 0.5` as `Zone::center` computes it).
    let ndims = ov.dim();
    let mut dims = [(0.0f64, 0usize, false); MAX_DIM];
    for (d, slot) in dims.iter_mut().enumerate().take(ndims) {
        let (lo, hi) = zone.bounds(d);
        let gap = target[d] - (lo + hi) * 0.5;
        *slot = (gap.abs(), d, gap > 0.0);
    }
    // Stable insertion sort, descending by gap (shift only while strictly
    // smaller, so equal gaps keep ascending-dimension order).
    for i in 1..ndims {
        let x = dims[i];
        let mut j = i;
        while j > 0 && dims[j - 1].0 < x.0 {
            dims[j] = dims[j - 1];
            j -= 1;
        }
        dims[j] = x;
    }

    for &(gap, d, positive) in dims.iter().take(ndims) {
        if gap == 0.0 {
            continue;
        }
        // Longest finger first.
        for k in (0..=table.kmax()).rev() {
            let Some(cand) = table.get(d, positive, k) else {
                continue;
            };
            let Some(cz) = ov.row(cand) else {
                continue; // stale entry (churn); skip
            };
            // No overshoot along d, and strict global progress.
            let (lo, hi) = cz.bounds(d);
            let overshoot = if positive {
                lo > target[d]
            } else {
                hi < target[d]
            };
            if overshoot {
                continue;
            }
            if cz.dist_to_point(target) < cur_dist {
                return Some(cand);
            }
        }
    }
    // Fingers unusable (edge effects / churn staleness): greedy step.
    greedy_next_hop(ov, current, target)
}

/// Walk a full INSCAN route; see [`soc_can::route_path`] for the greedy
/// analogue.
pub fn inscan_route(
    ov: &CanOverlay,
    tables: &IndexTables,
    from: NodeId,
    target: &Point,
    max_hops: usize,
) -> RouteOutcome {
    let mut path = Vec::new();
    let mut cur = from;
    for _ in 0..max_hops {
        match inscan_next_hop(ov, tables, cur, target) {
            None => {
                return RouteOutcome {
                    owner: Some(cur),
                    path,
                }
            }
            Some(next) => {
                path.push(next);
                cur = next;
            }
        }
    }
    if ov.row(cur).is_some_and(|z| z.contains(target)) {
        RouteOutcome {
            owner: Some(cur),
            path,
        }
    } else {
        RouteOutcome { owner: None, path }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use soc_can::overlay::random_point;
    use soc_can::route_path;

    fn setup(n: usize, dim: usize, seed: u64) -> (CanOverlay, IndexTables, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ov = CanOverlay::bootstrap(dim, n, n, &mut rng);
        let mut tables = IndexTables::new(dim, n, n);
        tables.refresh_all(&ov, &mut rng);
        (ov, tables, rng)
    }

    #[test]
    fn inscan_routing_reaches_owner() {
        let (ov, tables, mut rng) = setup(128, 2, 61);
        for _ in 0..100 {
            let p = random_point(2, &mut rng);
            let out = inscan_route(&ov, &tables, NodeId(0), &p, 1_000);
            assert_eq!(out.owner, Some(ov.owner_of(&p)));
        }
    }

    #[test]
    fn inscan_beats_greedy_on_average() {
        let (ov, tables, mut rng) = setup(512, 2, 62);
        let mut greedy_hops = 0usize;
        let mut inscan_hops = 0usize;
        for _ in 0..200 {
            let p = random_point(2, &mut rng);
            greedy_hops += route_path(&ov, NodeId(0), &p, 10_000).hops();
            inscan_hops += inscan_route(&ov, &tables, NodeId(0), &p, 10_000).hops();
        }
        assert!(
            inscan_hops < greedy_hops,
            "fingers should shorten routes: {inscan_hops} vs {greedy_hops}"
        );
    }

    #[test]
    fn inscan_hops_are_logarithmic() {
        // Paper: state-update delivery is O(log2 n) hops.
        let n = 1024;
        let (ov, tables, mut rng) = setup(n, 2, 63);
        let log2n = (n as f64).log2();
        let trials = 200;
        let mut total = 0usize;
        for _ in 0..trials {
            let p = random_point(2, &mut rng);
            let from = NodeId((rng.random::<u64>() % n as u64) as u32);
            total += inscan_route(&ov, &tables, from, &p, 10_000).hops();
        }
        let avg = total as f64 / trials as f64;
        assert!(
            avg <= 2.5 * log2n,
            "avg inscan hops {avg:.1} not O(log2 n) (= {log2n:.1})"
        );
    }

    #[test]
    fn routing_survives_stale_entries() {
        let (mut ov, tables, mut rng) = setup(64, 2, 64);
        // Churn a few nodes WITHOUT refreshing the tables: stale fingers.
        for i in [3u32, 9, 17] {
            ov.leave(NodeId(i));
        }
        for _ in 0..50 {
            let p = random_point(2, &mut rng);
            let from = ov.live_nodes().next().unwrap();
            let out = inscan_route(&ov, &tables, from, &p, 2_000);
            assert_eq!(out.owner, Some(ov.owner_of(&p)));
        }
    }

    #[test]
    fn five_dim_inscan_routing() {
        let (ov, tables, mut rng) = setup(243, 5, 65);
        for _ in 0..60 {
            let p = random_point(5, &mut rng);
            let out = inscan_route(&ov, &tables, NodeId(1), &p, 2_000);
            assert_eq!(out.owner, Some(ov.owner_of(&p)));
        }
    }
}
