//! Greedy CAN coordinate routing.
//!
//! Classic CAN forwards a message to the neighbor whose zone is closest to
//! the destination point, giving `O(d · n^{1/d})` expected hops. INSCAN
//! (`soc-inscan`) layers `2^k` finger jumps on top to reach `O(log2 n)`;
//! both use this module's greedy step as the local fallback.
//!
//! "Closest" is [`Zone::route_key`](crate::Zone::route_key), not distance
//! alone: the key agrees with half-open zone ownership, so every step is a
//! strict descent and the walk ends at `owner_of(target)` for every target,
//! including the ones that sit exactly on split planes.

use crate::overlay::CanOverlay;
use crate::zone::Point;
use soc_types::NodeId;

/// Result of walking a route to the zone containing a target point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteOutcome {
    /// The node whose zone contains the target, if routing converged.
    pub owner: Option<NodeId>,
    /// Nodes visited after the source (one per hop).
    pub path: Vec<NodeId>,
}

impl RouteOutcome {
    /// Number of message hops taken.
    pub fn hops(&self) -> usize {
        self.path.len()
    }
}

/// One greedy step from `current` toward `target`.
///
/// Returns `None` when `current`'s zone already contains `target`;
/// otherwise the returned neighbor's [`route_key`](crate::Zone::route_key)
/// is strictly below `current`'s. Ties are broken by node id so routing is
/// deterministic.
pub fn greedy_next_hop(ov: &CanOverlay, current: NodeId, target: &Point) -> Option<NodeId> {
    let zone = ov.row(current).expect("routing from a dead node");
    if zone.contains(target) {
        return None;
    }
    greedy_next_hop_filtered(ov, current, target, |n| {
        // Plain greedy routing runs against a consistent overlay: a
        // neighbor entry without a zone means the neighbor tables are
        // corrupt, and silently skipping it would hide that (the filtered
        // walk below skips zone-less entries by design, which is correct
        // only for the route-around-churn callers).
        debug_assert!(ov.row(n).is_some(), "neighbor table points at dead node");
        true
    })
}

/// The greedy step over the subset of `current`'s neighbors accepted by
/// `accept` — the shared fallback behind plain greedy routing and the
/// protocols' route-around-a-dead-hop retransmission paths (which exclude
/// the observed-dead node and anything the failure detector flagged).
///
/// The caller must already have established that `current`'s zone does not
/// contain `target`. Neighbors without a zone (mid-churn staleness) are
/// skipped; the smallest [`route_key`](crate::Zone::route_key) wins, ties
/// break by node id. Returns `None` when no neighbor is accepted (an
/// isolated sender).
pub fn greedy_next_hop_filtered(
    ov: &CanOverlay,
    current: NodeId,
    target: &Point,
    mut accept: impl FnMut(NodeId) -> bool,
) -> Option<NodeId> {
    let mut best: Option<((f64, u32), NodeId)> = None;
    for e in ov.neighbors(current) {
        if !accept(e.node) {
            continue;
        }
        let Some(nz) = ov.row(e.node) else {
            continue;
        };
        let cand = (nz.route_key(target), e.node);
        if best.is_none_or(|b| cand < b) {
            best = Some(cand);
        }
    }
    best.map(|(_, n)| n)
}

/// Walk the full greedy route from `from` to the owner of `target`.
///
/// `max_hops` bounds the walk (greedy routing on a box partition always
/// converges, but the bound protects against pathological mid-churn states).
pub fn route_path(ov: &CanOverlay, from: NodeId, target: &Point, max_hops: usize) -> RouteOutcome {
    let mut path = Vec::new();
    let mut cur = from;
    for _ in 0..max_hops {
        match greedy_next_hop(ov, cur, target) {
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
    // Did not converge within the budget.
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
    use crate::overlay::random_point;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn routing_reaches_the_owner() {
        let mut rng = SmallRng::seed_from_u64(11);
        let ov = CanOverlay::bootstrap(2, 100, 128, &mut rng);
        for _ in 0..200 {
            let p = random_point(2, &mut rng);
            let from = ov.live_nodes().next().unwrap();
            let out = route_path(&ov, from, &p, 500);
            let owner = out.owner.expect("route converged");
            assert_eq!(owner, ov.owner_of(&p));
        }
    }

    #[test]
    fn route_from_owner_is_zero_hops() {
        let mut rng = SmallRng::seed_from_u64(12);
        let ov = CanOverlay::bootstrap(2, 50, 64, &mut rng);
        let p = random_point(2, &mut rng);
        let owner = ov.owner_of(&p);
        let out = route_path(&ov, owner, &p, 100);
        assert_eq!(out.owner, Some(owner));
        assert_eq!(out.hops(), 0);
    }

    #[test]
    fn hop_count_scales_like_can_bound() {
        // Expected CAN hops ~ (d/4) n^{1/d}; allow a generous constant.
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 256;
        let ov = CanOverlay::bootstrap(2, n, 300, &mut rng);
        let bound = 8.0 * (n as f64).powf(0.5);
        let mut total = 0usize;
        let trials = 100;
        for _ in 0..trials {
            let p = random_point(2, &mut rng);
            let from = NodeId(0);
            let out = route_path(&ov, from, &p, 10_000);
            assert!(out.owner.is_some());
            total += out.hops();
        }
        let avg = total as f64 / trials as f64;
        assert!(avg < bound, "avg hops {avg} exceeds CAN bound {bound}");
    }

    #[test]
    fn routing_works_in_five_dims() {
        let mut rng = SmallRng::seed_from_u64(14);
        let ov = CanOverlay::bootstrap(5, 128, 128, &mut rng);
        for _ in 0..100 {
            let p = random_point(5, &mut rng);
            let out = route_path(&ov, NodeId(3), &p, 1_000);
            assert_eq!(out.owner, Some(ov.owner_of(&p)));
        }
    }

    #[test]
    fn deterministic_paths() {
        let mut rng = SmallRng::seed_from_u64(15);
        let ov = CanOverlay::bootstrap(3, 64, 64, &mut rng);
        let p = random_point(3, &mut rng);
        let a = route_path(&ov, NodeId(1), &p, 1_000);
        let b = route_path(&ov, NodeId(1), &p, 1_000);
        assert_eq!(a, b);
    }
}
