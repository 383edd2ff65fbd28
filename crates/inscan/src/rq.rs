//! INSCAN-RQ: the flooding range query (Fig. 1) used as the paper's
//! strawman.
//!
//! §III-A: *"it is easy to prove that its query delay upperbound is
//! `2·log2 n` but the network traffic per query is `log2 n + N − 1`, where
//! `N` is the total number of all responsible nodes (shadow area in
//! Fig. 1)"*. This module computes the exact responsible set and both cost
//! terms so tests and examples can verify those bounds.

use crate::routing::inscan_route;
use crate::table::IndexTables;
use soc_can::{CanOverlay, Point};
use soc_types::NodeId;
use std::collections::{BTreeSet, VecDeque};

/// Result of one INSCAN-RQ execution.
#[derive(Clone, Debug)]
pub struct RangeQueryOutcome {
    /// The duty (boundary-corner) node the query was routed to.
    pub duty: NodeId,
    /// Hops taken to reach the duty node.
    pub route_hops: usize,
    /// Every responsible node (zone overlapping `[v, hi]` — the shaded
    /// zones of Fig. 1), including the duty node.
    pub responsible: Vec<NodeId>,
    /// Flood messages spent visiting them (`N − 1`: a spanning tree over
    /// the responsible subgraph).
    pub flood_msgs: usize,
    /// Depth of the flood (BFS layers), bounding the second delay phase.
    pub flood_depth: usize,
}

impl RangeQueryOutcome {
    /// Total messages (routing + flood): the `log2 n + N − 1` of §III-A.
    pub fn total_msgs(&self) -> usize {
        self.route_hops + self.flood_msgs
    }

    /// Delay proxy in hops (routing + flood depth): ≤ `2·log2 n` when the
    /// responsible region is compact.
    pub fn delay_hops(&self) -> usize {
        self.route_hops + self.flood_depth
    }
}

/// Execute a full INSCAN-RQ from `requester` for the box `[v, hi]`.
///
/// Routes to the duty node owning `v`, then floods across all zones
/// overlapping the box (BFS along CAN adjacency restricted to responsible
/// zones — responsible regions are boxes, hence connected).
pub fn range_query(
    ov: &CanOverlay,
    tables: &IndexTables,
    requester: NodeId,
    v: &Point,
    hi: &Point,
) -> RangeQueryOutcome {
    let route = inscan_route(ov, tables, requester, v, 100_000);
    let duty = route.owner.expect("INSCAN routing converges");

    // BFS flood across responsible zones.
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    let mut order: Vec<NodeId> = Vec::new();
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    let mut depth = 0usize;
    seen.insert(duty);
    queue.push_back((duty, 0));
    while let Some((cur, d)) = queue.pop_front() {
        order.push(cur);
        depth = depth.max(d);
        for e in ov.neighbors(cur) {
            if seen.contains(&e.node) {
                continue;
            }
            let z = ov.zone(e.node).expect("live neighbor");
            if z.overlaps_box(v, hi) {
                seen.insert(e.node);
                queue.push_back((e.node, d + 1));
            }
        }
    }

    let flood_msgs = order.len().saturating_sub(1);
    RangeQueryOutcome {
        duty,
        route_hops: route.hops(),
        responsible: order,
        flood_msgs,
        flood_depth: depth,
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use crate::table::IndexTables;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::overlay::random_point;
    use soc_types::ResVec;

    fn setup(n: usize, dim: usize, seed: u64) -> (CanOverlay, IndexTables, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ov = CanOverlay::bootstrap(dim, n, n, &mut rng);
        let mut tables = IndexTables::new(dim, n, n);
        tables.refresh_all(&ov, &mut rng);
        (ov, tables, rng)
    }

    #[test]
    fn finds_every_responsible_zone() {
        let (ov, tables, mut rng) = setup(128, 2, 71);
        for _ in 0..30 {
            let v = random_point(2, &mut rng);
            let hi = ResVec::splat(2, 1.0);
            let out = range_query(&ov, &tables, NodeId(0), &v, &hi);
            // Ground truth by exhaustive scan.
            let expect: BTreeSet<NodeId> = ov
                .live_nodes()
                .filter(|&n| ov.zone(n).unwrap().overlaps_box(&v, &hi))
                .collect();
            let got: BTreeSet<NodeId> = out.responsible.iter().copied().collect();
            assert_eq!(got, expect, "flood missed responsible zones");
            assert_eq!(out.flood_msgs, expect.len() - 1);
        }
    }

    #[test]
    fn duty_node_owns_query_corner() {
        let (ov, tables, mut rng) = setup(64, 2, 72);
        let v = random_point(2, &mut rng);
        let out = range_query(&ov, &tables, NodeId(3), &v, &ResVec::splat(2, 1.0));
        assert_eq!(out.duty, ov.owner_of(&v));
    }

    #[test]
    fn traffic_grows_with_range_size() {
        // Fig. 4/§I observation: a query for CPU ≥ half of cmax makes ~half
        // the network responsible; bigger ranges cost more flood messages.
        let (ov, tables, _rng) = setup(256, 2, 73);
        let small = range_query(
            &ov,
            &tables,
            NodeId(0),
            &ResVec::from_slice(&[0.9, 0.9]),
            &ResVec::splat(2, 1.0),
        );
        let big = range_query(
            &ov,
            &tables,
            NodeId(0),
            &ResVec::from_slice(&[0.1, 0.1]),
            &ResVec::splat(2, 1.0),
        );
        assert!(big.flood_msgs > 4 * small.flood_msgs.max(1));
        // The low-corner query touches most of the network.
        assert!(big.responsible.len() as f64 > 0.5 * ov.len() as f64);
    }

    #[test]
    fn delay_bound_matches_paper_shape() {
        // delay ≤ 2 log2 n (routing ≤ log2 n, compact flood ≤ log2 n) for a
        // *small* range; allow slack for constants.
        let n = 256;
        let (ov, tables, mut rng) = setup(n, 2, 74);
        let log2n = (n as f64).log2();
        for _ in 0..20 {
            let mut v = random_point(2, &mut rng);
            // Keep the box small: near the top corner.
            v[0] = v[0].max(0.85);
            v[1] = v[1].max(0.85);
            let out = range_query(&ov, &tables, NodeId(0), &v, &ResVec::splat(2, 1.0));
            assert!(
                (out.delay_hops() as f64) <= 3.0 * log2n,
                "delay {} vs 2·log2 n = {}",
                out.delay_hops(),
                2.0 * log2n
            );
        }
    }
}
