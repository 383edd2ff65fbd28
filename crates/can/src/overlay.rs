//! The global CAN overlay registry: zones + neighbor tables.
//!
//! `CanOverlay` plays the role PeerSim's network container plays in the
//! paper's simulation: it owns the authoritative zone assignment (the
//! [`PartitionTree`], which holds the one table of zones) and maintains
//! each node's neighbor table incrementally across joins and departures.
//! Protocol crates read neighbors/zones from here and exchange *messages*
//! through the simulator — the registry itself never performs discovery.
//!
//! Incremental-maintenance correctness argument (also exercised by the
//! property tests): a zone created by a split is contained in the parent
//! zone, so its neighbors are a subset of the parent's neighbors plus its
//! sibling; a zone created by a merge is the union of the pair, so its
//! neighbors are a subset of the union of the pair's neighbors; a takeover
//! transfers a zone unchanged. Hence re-testing adjacency against the old
//! neighbor lists of the affected nodes is exhaustive.

use crate::neighbors::adjacency;
use crate::row::ZoneRow;
use crate::tree::PartitionTree;
use crate::zone::{Point, Zone};
use rand::{Rng, RngExt};
use soc_types::{NodeId, ResVec};
use std::collections::BTreeSet;

/// One entry of a node's neighbor table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborEntry {
    /// The adjacent node.
    pub node: NodeId,
    /// Dimension along which the zones abut (`< MAX_DIM`, so a byte).
    pub dim: u8,
    /// `true` when `node` lies on the *positive* side (it is our positive
    /// neighbor along `dim`).
    pub positive: bool,
}

// Every routed hop reads one node's whole table (≈ 14 entries at d = 5,
// n = 10 000) and every finger-walk step one run of it: at 8 bytes an entry
// that is two cache lines.
const _: () = assert!(std::mem::size_of::<NeighborEntry>() == 8);

impl NeighborEntry {
    /// The table's sort key; [`CanOverlay::neighbors_along`] relies on it.
    #[inline]
    fn key(&self) -> (u8, bool, NodeId) {
        (self.dim, self.positive, self.node)
    }

    /// Index of the table run this entry belongs to: `2·dim + positive`.
    #[inline]
    fn run(&self) -> usize {
        2 * usize::from(self.dim) + usize::from(self.positive)
    }
}

/// Global CAN state: who owns which zone, and who neighbors whom.
pub struct CanOverlay {
    tree: PartitionTree,
    /// Each node's neighbor table, kept sorted by [`NeighborEntry::key`]
    /// as it is edited — an insert goes to its binary-searched position.
    neighbors: Vec<Vec<NeighborEntry>>,
    /// Run offsets, `2·dim + 1` per node: with `o` node `i`'s stretch,
    /// entries of run `r = 2·d + positive` are `neighbors[i][o[r] ..
    /// o[r + 1]]`; `o[0]` is 0 and `o[2·dim]` the table's length. Edited
    /// with the table, so a table is capped at `u8::MAX` entries.
    runs: Vec<u8>,
    dim: usize,
}

impl CanOverlay {
    /// Bootstrap an overlay of dimension `dim` with capacity for `max_nodes`
    /// node ids; node `first` owns the whole space.
    pub fn new(dim: usize, max_nodes: usize, first: NodeId) -> Self {
        // The largest table first, while the heap is at its emptiest.
        let tree = PartitionTree::with_leaf_capacity(dim, first, max_nodes);
        CanOverlay {
            tree,
            neighbors: vec![Vec::new(); max_nodes],
            runs: vec![0; max_nodes * (2 * dim + 1)],
            dim,
        }
    }

    /// Bootstrap with nodes `0..n` joining at rng-chosen points.
    pub fn bootstrap<R: Rng>(dim: usize, n: usize, max_nodes: usize, rng: &mut R) -> Self {
        assert!(n >= 1 && n <= max_nodes);
        let mut ov = Self::new(dim, max_nodes, NodeId(0));
        for i in 1..n {
            let p = random_point(dim, rng);
            ov.join(NodeId(i as u32), &p);
        }
        ov
    }

    /// Key-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live nodes: the partition tree's zone owners.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when the overlay has no live node (never happens in scenarios).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Is `node` currently part of the overlay, that is, does it own a
    /// zone of the partition tree?
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.tree.contains_node(node)
    }

    /// Zone owned by `node`, decoded from its row of the zone table.
    #[inline]
    pub fn zone(&self, node: NodeId) -> Option<Zone> {
        self.tree.zone_of(node)
    }

    /// `node`'s zone as stored: the row answers the point tests a routed
    /// hop makes ([`ZoneRow::contains`], [`ZoneRow::route_key`], …)
    /// exactly as the decoded [`Zone`] would, without decoding it.
    #[inline]
    pub fn row(&self, node: NodeId) -> Option<&ZoneRow> {
        self.tree.row(node)
    }

    /// The node whose zone contains `p` (the paper's "duty node" for a state
    /// vector or query vector at `p`).
    pub fn owner_of(&self, p: &Point) -> NodeId {
        self.tree.find_leaf(p)
    }

    /// Neighbor table of `node`.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NeighborEntry] {
        &self.neighbors[node.idx()]
    }

    /// The neighbors of `node` along `dim` on one side, ascending by id:
    /// one contiguous run of the table, which is kept sorted by
    /// `(dim, positive, node)`, located by two run offsets. Empty at the
    /// edge of the space and for a dimension the overlay does not have.
    pub fn neighbors_along(&self, node: NodeId, dim: usize, positive: bool) -> &[NeighborEntry] {
        if dim >= self.dim {
            return &[];
        }
        let r = 2 * dim + usize::from(positive);
        let o = self.run_offsets(node);
        &self.neighbors[node.idx()][usize::from(o[r])..usize::from(o[r + 1])]
    }

    /// `node`'s `2·dim + 1` run offsets.
    #[inline]
    fn run_offsets(&self, node: NodeId) -> &[u8] {
        let stride = 2 * self.dim + 1;
        &self.runs[node.idx() * stride..][..stride]
    }

    /// Iterate over live node ids, ascending.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tree.owners()
    }

    /// Access the underlying partition tree (read-only).
    pub fn tree(&self) -> &PartitionTree {
        &self.tree
    }

    /// Make `node`'s entry for `other` equal `want` (`None`: no entry): a
    /// position-remove and a binary-search insert into the sorted table,
    /// each shifting the run offsets after it, and nothing at all when the
    /// entry is already right.
    ///
    /// # Panics
    /// Panics if the table would outgrow its `u8` run offsets.
    fn set_entry(&mut self, node: NodeId, other: NodeId, want: Option<NeighborEntry>) {
        let stride = 2 * self.dim + 1;
        let table = &mut self.neighbors[node.idx()];
        let o = &mut self.runs[node.idx() * stride..][..stride];
        let have = table.iter().position(|e| e.node == other);
        if have.map(|i| table[i]) == want {
            return;
        }
        if let Some(i) = have {
            for end in &mut o[table.remove(i).run() + 1..] {
                *end -= 1;
            }
        }
        if let Some(e) = want {
            assert!(
                table.len() < usize::from(u8::MAX),
                "{node}'s neighbor table outgrew its u8 run offsets at {} entries",
                table.len()
            );
            let r = e.run();
            let (lo, hi) = (usize::from(o[r]), usize::from(o[r + 1]));
            table.insert(lo + table[lo..hi].partition_point(|x| x.node < e.node), e);
            for end in &mut o[r + 1..] {
                *end += 1;
            }
        }
    }

    /// Empty `node`'s table and its run offsets.
    fn clear_table(&mut self, node: NodeId) {
        let stride = 2 * self.dim + 1;
        self.neighbors[node.idx()].clear();
        self.runs[node.idx() * stride..][..stride].fill(0);
    }

    /// Set the mutual entries between `a` and `b` to what their current
    /// zones say: adjacent along one dimension, or not neighbors. Tested
    /// on the zone rows, without decoding them.
    fn retest(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        let adj = match (self.tree.row(a), self.tree.row(b)) {
            (Some(za), Some(zb)) => za.adjacency(zb),
            _ => None,
        };
        // `adj.first_is_positive` describes `a` relative to `b`.
        let to_b = adj.map(|adj| NeighborEntry {
            node: b,
            dim: adj.dim as u8,
            positive: !adj.first_is_positive,
        });
        let to_a = adj.map(|adj| NeighborEntry {
            node: a,
            dim: adj.dim as u8,
            positive: adj.first_is_positive,
        });
        self.set_entry(a, b, to_b);
        self.set_entry(b, a, to_a);
    }

    /// `newcomer` joins at point `p`: the owner of the enclosing zone splits.
    /// Returns the node that split its zone.
    ///
    /// # Panics
    /// Panics if `newcomer` is already alive or its id exceeds capacity.
    pub fn join(&mut self, newcomer: NodeId, p: &Point) -> NodeId {
        assert!(!self.is_alive(newcomer), "{newcomer} already alive");
        let owner = self.tree.join(newcomer, p);
        let old_nb: Vec<NodeId> = self.neighbors[owner.idx()].iter().map(|e| e.node).collect();
        self.clear_table(newcomer);

        for v in &old_nb {
            self.retest(owner, *v);
            self.retest(newcomer, *v);
        }
        self.retest(owner, newcomer);
        owner
    }

    /// `node` departs; zones are reassigned per the partition-tree takeover.
    /// Returns the reassignments `(node, new_zone)` that took place.
    ///
    /// # Panics
    /// Panics if `node` is not alive, or if it is the last live node.
    pub fn leave(&mut self, node: NodeId) -> Vec<(NodeId, Zone)> {
        assert!(self.is_alive(node), "{node} not alive");
        assert!(self.len() > 1, "cannot drain the overlay");

        // Collect candidate sets *before* mutating zones.
        let dep_nb: Vec<NodeId> = self.neighbors[node.idx()].iter().map(|e| e.node).collect();
        let reass = self
            .tree
            .leave(node)
            .expect("more than one live node implies a non-final leave");

        let mut cand: BTreeSet<NodeId> = dep_nb.iter().copied().collect();
        for (n, _) in &reass {
            cand.insert(*n);
            for e in &self.neighbors[n.idx()] {
                cand.insert(e.node);
            }
        }
        cand.remove(&node);

        // Retire the departed node.
        for v in &dep_nb {
            self.set_entry(*v, node, None);
        }
        self.clear_table(node);

        // The tree holds the new zones: re-test every (changed, candidate)
        // pair.
        for (n, _) in &reass {
            // The changed node's table may contain stale entries whose
            // counterpart is being re-tested below; start clean.
            let stale: Vec<NodeId> = self.neighbors[n.idx()].iter().map(|e| e.node).collect();
            for s in stale {
                self.set_entry(s, *n, None);
            }
            self.clear_table(*n);
            for v in &cand {
                self.retest(*n, *v);
            }
        }
        if reass.len() == 2 {
            self.retest(reass[0].0, reass[1].0);
        }
        reass
    }

    /// Exhaustive validation of zone/neighbor consistency (test use).
    pub fn validate(&self) -> Result<(), String> {
        self.tree.validate()?;
        // Point location lands in the zone the table serves.
        for (n, z) in self.tree.leaves() {
            if self.tree.find_leaf(&z.center()) != n {
                return Err(format!("{n} zone desynced from tree"));
            }
        }
        // Neighbor tables are exactly the adjacency relation.
        let live: Vec<NodeId> = self.live_nodes().collect();
        for &a in &live {
            let za = self.tree.zone_of(a).unwrap();
            let mut expect: Vec<NeighborEntry> = Vec::new();
            for &b in &live {
                if a == b {
                    continue;
                }
                let zb = self.tree.zone_of(b).unwrap();
                if let Some(adj) = adjacency(&za, &zb) {
                    expect.push(NeighborEntry {
                        node: b,
                        dim: adj.dim as u8,
                        positive: !adj.first_is_positive,
                    });
                }
            }
            expect.sort_by_key(NeighborEntry::key);
            if expect != self.neighbors[a.idx()] {
                return Err(format!(
                    "{a} neighbor table mismatch: have {:?}, want {:?}",
                    self.neighbors[a.idx()],
                    expect
                ));
            }
        }
        // Run offsets partition each table by run; a dead node's are zero.
        for i in 0..self.neighbors.len() {
            let node = NodeId(i as u32);
            let table = &self.neighbors[i];
            let want = (0..=2 * self.dim).map(|r| table.iter().filter(|e| e.run() < r).count());
            if !want.eq(self.run_offsets(node).iter().map(|&o| usize::from(o))) {
                return Err(format!("{node} run offsets desynced from its table"));
            }
        }
        Ok(())
    }
}

/// Uniform random point in `[0,1)^dim`.
pub fn random_point<R: Rng>(dim: usize, rng: &mut R) -> Point {
    let mut p = ResVec::zeros(dim);
    for d in 0..dim {
        p[d] = rng.random::<f64>();
    }
    p
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bootstrap_small_overlay_is_consistent() {
        let mut rng = SmallRng::seed_from_u64(1);
        let ov = CanOverlay::bootstrap(2, 16, 32, &mut rng);
        assert_eq!(ov.len(), 16);
        ov.validate().unwrap();
    }

    #[test]
    fn owner_of_agrees_with_zones() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ov = CanOverlay::bootstrap(3, 25, 32, &mut rng);
        for _ in 0..200 {
            let p = random_point(3, &mut rng);
            let owner = ov.owner_of(&p);
            assert!(ov.zone(owner).unwrap().contains(&p));
        }
    }

    #[test]
    fn neighbor_tables_track_churn() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ov = CanOverlay::bootstrap(2, 20, 64, &mut rng);
        ov.validate().unwrap();
        // Interleave joins and leaves.
        for round in 0..10u32 {
            let newcomer = NodeId(20 + round);
            ov.join(newcomer, &random_point(2, &mut rng));
            let victim = ov
                .live_nodes()
                .nth((round as usize * 3) % ov.len())
                .unwrap();
            ov.leave(victim);
            ov.validate()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn leave_rejects_last_node() {
        let ov = CanOverlay::new(2, 4, NodeId(0));
        assert_eq!(ov.len(), 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ov2 = CanOverlay::new(2, 4, NodeId(0));
            ov2.leave(NodeId(0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn neighbors_are_mutual() {
        let mut rng = SmallRng::seed_from_u64(4);
        let ov = CanOverlay::bootstrap(2, 30, 32, &mut rng);
        for a in ov.live_nodes() {
            for e in ov.neighbors(a) {
                let back = ov
                    .neighbors(e.node)
                    .iter()
                    .find(|b| b.node == a)
                    .expect("mutual entry");
                assert_eq!(back.dim, e.dim);
                assert_ne!(back.positive, e.positive);
            }
        }
    }

    #[test]
    #[should_panic(expected = "n0's neighbor table outgrew its u8 run offsets at 255 entries")]
    fn an_over_long_table_is_a_named_panic() {
        let mut ov = CanOverlay::new(2, 1, NodeId(0));
        for i in 1..=256 {
            let e = NeighborEntry {
                node: NodeId(i),
                dim: (i % 2) as u8,
                positive: i % 3 == 0,
            };
            ov.set_entry(NodeId(0), e.node, Some(e));
        }
    }

    #[test]
    fn five_dim_overlay_works() {
        let mut rng = SmallRng::seed_from_u64(5);
        let ov = CanOverlay::bootstrap(5, 64, 64, &mut rng);
        ov.validate().unwrap();
        // Every live node has at least one neighbor in a 64-node overlay.
        for n in ov.live_nodes() {
            assert!(!ov.neighbors(n).is_empty());
        }
    }
}
