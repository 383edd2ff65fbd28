//! The CAN binary partition tree.
//!
//! CAN's zone structure is the leaf set of a binary split tree: every join
//! splits one leaf in two, and every departure un-splits (possibly after a
//! "defragmentation" handover, per the CAN paper's takeover algorithm, which
//! this paper adopts in §IV-B: "a binary partition tree based background
//! zone reassignment algorithm \[14\] to ensure each node always corresponds
//! to a globally unique zone").
//!
//! The tree also answers point location (`find_leaf`) in O(depth).

use crate::row::ZoneRow;
use crate::zone::{Point, Zone};
use soc_types::NodeId;
use std::cell::Cell;

#[derive(Clone, Copy, Debug)]
enum NodeKind {
    Leaf(NodeId),
    /// Split at coordinate `at` of dimension `depth % d`: `left` is the
    /// half below it.
    Internal {
        left: u32,
        right: u32,
        at: f64,
    },
}

#[derive(Clone, Copy, Debug)]
struct TreeNode {
    parent: u32,
    depth: u32,
    kind: NodeKind,
}

// A point location reads one node per level (≈ 14 levels at n = 10 000):
// two nodes to a cache line, and no zone — a leaf's zone is its owner's row
// of the one zone table.
const _: () = assert!(std::mem::size_of::<TreeNode>() <= 32);

/// "No such slot": the root's parent, an absent id's leaf.
const NONE: u32 = u32::MAX;

/// The global zone-partition structure, and the one table of zones.
///
/// Invariants (checked by [`PartitionTree::validate`] and the property
/// tests):
/// * leaves tile `[0,1]^d` exactly (disjoint interiors, full cover);
/// * each live `NodeId` owns exactly one leaf;
/// * every internal node's children merge back to its zone;
/// * splits cycle through dimensions by depth (`split dim = depth % d`).
#[derive(Clone, Debug)]
pub struct PartitionTree {
    nodes: Vec<TreeNode>,
    free: Vec<u32>,
    root: u32,
    /// Tree slot of each id's leaf ([`NONE`] when the id owns none).
    leaf_of: Vec<u32>,
    /// Zone of each id's leaf, one 32-byte [`ZoneRow`] each — the only
    /// copy: internal nodes keep their split coordinate, and a merged zone
    /// is rebuilt from its two halves. [`PartitionTree::zone_of`] decodes
    /// a row; joins and leaves never do.
    zones: Vec<Option<ZoneRow>>,
    n_leaves: usize,
    dim: usize,
    /// Last leaf returned by [`PartitionTree::find_leaf`]. Point queries
    /// cluster (oracle checks re-resolve the same demand corner, state
    /// updates hit the same duty zones), so checking the previous hit —
    /// O(d) containment — usually skips the O(depth) descent. Invalidated
    /// on every structural change; leaves tile the space, so any *live*
    /// leaf whose zone contains the point is the unique correct answer.
    /// A `Cell`, so `find_leaf` can stay `&self`; the hint is validated
    /// before use, a clone's copy included.
    last_hit: Cell<usize>,
}

/// Sentinel for an empty/invalidated `last_hit` cache.
const NO_HIT: usize = usize::MAX;

impl PartitionTree {
    /// A tree with a single leaf (the whole space) owned by `first`.
    pub fn new(dim: usize, first: NodeId) -> Self {
        Self::with_leaf_capacity(dim, first, 1)
    }

    /// Like [`PartitionTree::new`], with room for ids below `leaves` — a
    /// binary tree of `2·leaves − 1` nodes and `leaves` zones — reserved up
    /// front. An overlay that knows its id capacity asks for it before
    /// anything else: grown by doubling instead, the largest table of a
    /// 10 000-node overlay ends as a multi-megabyte move in the middle of
    /// the bootstrap, the one request large enough that a recycled heap
    /// sometimes cannot place it below its old top.
    pub fn with_leaf_capacity(dim: usize, first: NodeId, leaves: usize) -> Self {
        let root = TreeNode {
            parent: NONE,
            depth: 0,
            kind: NodeKind::Leaf(first),
        };
        let mut nodes = Vec::with_capacity((2 * leaves).saturating_sub(1).max(1));
        nodes.push(root);
        let mut tree = PartitionTree {
            nodes,
            free: Vec::new(),
            root: 0,
            leaf_of: vec![NONE; leaves],
            zones: vec![None; leaves],
            n_leaves: 0,
            dim,
            last_hit: Cell::new(NO_HIT),
        };
        tree.set_leaf(first, 0, ZoneRow::unit(dim));
        tree
    }

    /// Dimensionality of the key space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live leaves (= overlay size).
    pub fn len(&self) -> usize {
        self.n_leaves
    }

    /// True when no id owns a zone (the last node has left).
    pub fn is_empty(&self) -> bool {
        self.n_leaves == 0
    }

    /// Is `node` currently an owner of a zone? Reads the id's leaf slot,
    /// not its zone row: the runner asks on every send and delivery.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.leaf_of
            .get(node.idx())
            .is_some_and(|&slot| slot != NONE)
    }

    /// The ids that own a zone, ascending, without decoding any zone.
    pub fn owners(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_of
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NONE)
            .map(|(id, _)| NodeId(id as u32))
    }

    /// Zone currently owned by `node`, if it is in the overlay.
    #[inline]
    pub fn zone_of(&self, node: NodeId) -> Option<Zone> {
        self.row(node).map(ZoneRow::zone)
    }

    /// The row of `node`'s zone, if it is in the overlay.
    #[inline]
    pub fn row(&self, node: NodeId) -> Option<&ZoneRow> {
        self.zones.get(node.idx())?.as_ref()
    }

    /// Record `node` as the owner of the leaf in `slot`, with zone `zone`
    /// (the id tables grow on demand for a tree built without a capacity).
    fn set_leaf(&mut self, node: NodeId, slot: u32, zone: ZoneRow) {
        if node.idx() >= self.zones.len() {
            self.zones.resize(node.idx() + 1, None);
            self.leaf_of.resize(node.idx() + 1, NONE);
        }
        if self.zones[node.idx()].is_none() {
            self.n_leaves += 1;
        }
        self.zones[node.idx()] = Some(zone);
        self.leaf_of[node.idx()] = slot;
    }

    /// `node` stops owning a leaf; returns the zone it held.
    fn unset_leaf(&mut self, node: NodeId) -> ZoneRow {
        self.n_leaves -= 1;
        self.leaf_of[node.idx()] = NONE;
        self.zones[node.idx()].take().expect("node not in overlay")
    }

    fn leaf_row(&self, owner: NodeId) -> &ZoneRow {
        self.row(owner).expect("every leaf owner has a zone")
    }

    /// Owner of the leaf containing `p`, a point of the key space
    /// `[0,1]^d`.
    pub fn find_leaf(&self, p: &Point) -> NodeId {
        debug_assert!(
            Zone::unit(self.dim).contains(p),
            "{p:?} is outside the key space"
        );
        // Last-hit fast path: valid between structural changes (the cache
        // is cleared on join/leave, so the slot is a live leaf).
        let cached = self.last_hit.get();
        if cached != NO_HIT {
            if let NodeKind::Leaf(owner) = self.nodes[cached].kind {
                if self.leaf_row(owner).contains(p) {
                    return owner;
                }
            }
        }
        let mut i = self.root as usize;
        loop {
            let n = &self.nodes[i];
            match n.kind {
                NodeKind::Leaf(owner) => {
                    self.last_hit.set(i);
                    return owner;
                }
                // Inside the parent's zone, the lower half contains `p`
                // exactly when `p` is below the split plane (half-open:
                // the plane itself belongs to the upper half).
                NodeKind::Internal { left, right, at } => {
                    let below = p[n.depth as usize % self.dim] < at;
                    i = if below { left } else { right } as usize;
                }
            }
        }
    }

    /// All `(owner, zone)` pairs, ordered by owner id.
    pub fn leaves(&self) -> impl Iterator<Item = (NodeId, Zone)> + '_ {
        self.zones
            .iter()
            .enumerate()
            .filter_map(|(id, z)| Some((NodeId(id as u32), z.as_ref()?.zone())))
    }

    fn alloc(&mut self, n: TreeNode) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = n;
            i
        } else {
            self.nodes.push(n);
            u32::try_from(self.nodes.len() - 1).expect("tree slots fit u32")
        }
    }

    /// Join: `newcomer` picks the random point `p`, the owner of the leaf
    /// containing `p` splits its zone (along `depth % d`, CAN's cyclic
    /// order) and hands the half *not* containing `p`… to itself; the
    /// newcomer takes the half containing `p`.
    ///
    /// Returns the splitter; both new zones are in [`Self::zone_of`].
    ///
    /// # Panics
    /// Panics if `newcomer` is already in the overlay.
    pub fn join(&mut self, newcomer: NodeId, p: &Point) -> NodeId {
        assert!(!self.contains_node(newcomer), "{newcomer} already joined");
        let owner = self.find_leaf(p);
        let leaf_idx = self.leaf_of[owner.idx()];
        let depth = self.nodes[leaf_idx as usize].depth;
        let split_dim = depth as usize % self.dim;
        let (lo_half, hi_half) = self.leaf_row(owner).split(split_dim);

        // Newcomer takes the half containing its chosen point.
        let (left_owner, right_owner) = if lo_half.contains(p) {
            (newcomer, owner)
        } else {
            (owner, newcomer)
        };

        let child = |owner| TreeNode {
            parent: leaf_idx,
            depth: depth + 1,
            kind: NodeKind::Leaf(owner),
        };
        let left = self.alloc(child(left_owner));
        let right = self.alloc(child(right_owner));
        self.nodes[leaf_idx as usize].kind = NodeKind::Internal {
            left,
            right,
            at: hi_half.bounds(split_dim).0,
        };
        self.set_leaf(left_owner, left, lo_half);
        self.set_leaf(right_owner, right, hi_half);
        self.last_hit.set(NO_HIT);
        owner
    }

    fn children(&self, idx: u32) -> Option<(u32, u32)> {
        match self.nodes[idx as usize].kind {
            NodeKind::Internal { left, right, .. } => Some((left, right)),
            NodeKind::Leaf(_) => None,
        }
    }

    fn leaf_owner(&self, idx: u32) -> Option<NodeId> {
        match self.nodes[idx as usize].kind {
            NodeKind::Leaf(owner) => Some(owner),
            NodeKind::Internal { .. } => None,
        }
    }

    /// Find an internal node in the subtree at `idx` whose children are both
    /// leaves, or return `idx` itself if it is a leaf.
    fn deepest_leaf_pair(&self, idx: u32) -> u32 {
        let mut i = idx;
        while let Some((left, right)) = self.children(i) {
            // Descend into an internal child (prefer left for determinism).
            i = if self.children(left).is_some() {
                left
            } else if self.children(right).is_some() {
                right
            } else {
                return i;
            };
        }
        i
    }

    /// Un-split `parent`, whose children are the leaves of `gone` and
    /// `stays`: `stays` owns the merged zone. Returns that zone.
    fn collapse(&mut self, parent: u32, gone: ZoneRow, stays: NodeId) -> ZoneRow {
        let (left, right) = self.children(parent).expect("collapse target is internal");
        self.free.push(left);
        self.free.push(right);
        self.nodes[parent as usize].kind = NodeKind::Leaf(stays);
        let merged = gone
            .merge(self.leaf_row(stays))
            .expect("sibling leaves are the halves of one split");
        self.set_leaf(stays, parent, merged);
        merged
    }

    /// Departure with CAN takeover.
    ///
    /// * If the departing leaf's sibling is a leaf, the sibling owner simply
    ///   absorbs the merged parent zone.
    /// * Otherwise (the sibling subtree is deeper), find the shallowest
    ///   sibling *leaf pair* in that subtree; one of the pair hands its zone
    ///   to its own sibling (merging that pair) and moves over to take the
    ///   departing node's zone — the CAN defragmentation handover.
    ///
    /// Returns the list of `(node, new_zone)` reassignments performed
    /// (1 entry for the simple merge, 2 for the handover case), so callers
    /// can update neighbor tables. Returns `None` when `node` is the last
    /// one in the overlay (the tree then becomes empty and unusable — the
    /// simulator never drains the overlay completely).
    ///
    /// # Panics
    /// Panics if `node` is not in the overlay.
    pub fn leave(&mut self, node: NodeId) -> Option<Vec<(NodeId, Zone)>> {
        // Collapse frees tree slots without rewriting them; a cached slot
        // could otherwise keep answering as a stale leaf.
        self.last_hit.set(NO_HIT);
        assert!(self.contains_node(node), "node not in overlay");
        let leaf_idx = self.leaf_of[node.idx()];
        let zone = self.unset_leaf(node);
        let parent = self.nodes[leaf_idx as usize].parent;
        if parent == NONE {
            // Departing node owned the whole space.
            return None;
        }
        let (left, right) = self.children(parent).expect("a parent is internal");
        let sib = if left == leaf_idx { right } else { left };

        if let Some(sib_owner) = self.leaf_owner(sib) {
            // Simple merge: sibling takes over the parent zone.
            let merged = self.collapse(parent, zone, sib_owner);
            return Some(vec![(sib_owner, merged.zone())]);
        }

        // Handover: pull a leaf pair out of the sibling subtree.
        let pair_parent = self.deepest_leaf_pair(sib);
        let (l, r) = self
            .children(pair_parent)
            .expect("an internal subtree holds a leaf pair");
        let (mover, stayer) = match (self.leaf_owner(l), self.leaf_owner(r)) {
            (Some(l), Some(r)) => (l, r),
            _ => unreachable!("deepest_leaf_pair returns a pair of leaves"),
        };
        // `stayer` absorbs the pair's merged zone…
        let moved_from = self.unset_leaf(mover);
        let stayer_zone = self.collapse(pair_parent, moved_from, stayer);
        // …and `mover` takes the departed node's zone.
        self.nodes[leaf_idx as usize].kind = NodeKind::Leaf(mover);
        self.set_leaf(mover, leaf_idx, zone);

        Some(vec![(stayer, stayer_zone.zone()), (mover, zone.zone())])
    }

    /// The zone the subtree at `idx` covers, rebuilt bottom-up from the
    /// leaf zones: every split must sit at `depth % d` on the plane its
    /// node records, and its halves must merge.
    fn subtree_zone(&self, idx: u32) -> Result<ZoneRow, String> {
        let n = &self.nodes[idx as usize];
        match n.kind {
            NodeKind::Leaf(owner) => {
                if self.leaf_of.get(owner.idx()) != Some(&idx) {
                    return Err(format!("leaf_of[{owner}] stale"));
                }
                self.row(owner)
                    .copied()
                    .ok_or(format!("leaf owner {owner} has no zone"))
            }
            NodeKind::Internal { left, right, at } => {
                let (lo, hi) = (self.subtree_zone(left)?, self.subtree_zone(right)?);
                let d = n.depth as usize % self.dim;
                for child in [left, right] {
                    let c = &self.nodes[child as usize];
                    if c.parent != idx || c.depth != n.depth + 1 {
                        return Err(format!("slot {child} mislinked under {idx}"));
                    }
                }
                if lo.bounds(d).1 != at || hi.bounds(d).0 != at {
                    return Err(format!("slot {idx} does not split dim {d} at {at}"));
                }
                lo.merge(&hi)
                    .ok_or_else(|| "children do not merge to parent zone".to_string())
            }
        }
    }

    /// Exhaustive structural validation (test/debug use).
    pub fn validate(&self) -> Result<(), String> {
        // Leaves must tile the space: total volume 1 and pairwise disjoint.
        let leaves: Vec<(NodeId, Zone)> = self.leaves().collect();
        if leaves.len() != self.n_leaves {
            return Err(format!(
                "{} zones for {} leaves",
                leaves.len(),
                self.n_leaves
            ));
        }
        let vol: f64 = leaves.iter().map(|(_, z)| z.volume()).sum();
        if (vol - 1.0).abs() > 1e-9 {
            return Err(format!("leaf volume {vol} != 1"));
        }
        for (i, (_, a)) in leaves.iter().enumerate() {
            for (_, b) in leaves.iter().skip(i + 1) {
                let overlap = (0..a.dim()).all(|d| a.ranges_overlap(b, d));
                if overlap {
                    return Err(format!("overlapping leaves {a:?} {b:?}"));
                }
            }
        }
        // The ids with a leaf slot are the ids with a zone, and every zone
        // hangs in the tree; the splits rebuild the space.
        if !self.owners().eq(leaves.iter().map(|&(id, _)| id)) {
            return Err("leaf slots and zone rows disagree on the owners".into());
        }
        for (id, _) in &leaves {
            let slot = self.leaf_of[id.idx()];
            if slot == NONE || self.leaf_owner(slot) != Some(*id) {
                return Err(format!("leaf_of[{id}] stale"));
            }
        }
        if self.subtree_zone(self.root)? != ZoneRow::unit(self.dim) {
            return Err("the root does not cover the key space".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_types::ResVec;

    fn pt(s: &[f64]) -> Point {
        ResVec::from_slice(s)
    }

    #[test]
    fn bootstrap_owns_everything() {
        let t = PartitionTree::new(2, NodeId(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.find_leaf(&pt(&[0.3, 0.9])), NodeId(0));
        assert_eq!(t.zone_of(NodeId(0)), Some(Zone::unit(2)));
        t.validate().unwrap();
    }

    #[test]
    fn join_splits_cyclically() {
        let mut t = PartitionTree::new(2, NodeId(0));
        // depth 0 → split dim 0.
        t.join(NodeId(1), &pt(&[0.9, 0.5]));
        assert_eq!(t.zone_of(NodeId(0)).unwrap().hi()[0], 0.5);
        assert_eq!(t.zone_of(NodeId(1)).unwrap().lo()[0], 0.5);
        // depth 1 → split dim 1.
        t.join(NodeId(2), &pt(&[0.9, 0.9]));
        assert_eq!(t.zone_of(NodeId(1)).unwrap().hi()[1], 0.5);
        assert_eq!(t.zone_of(NodeId(2)).unwrap().lo()[1], 0.5);
        t.validate().unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn newcomer_takes_half_containing_its_point() {
        let mut t = PartitionTree::new(1, NodeId(0));
        t.join(NodeId(1), &pt(&[0.1]));
        assert!(t.zone_of(NodeId(1)).unwrap().contains(&pt(&[0.1])));
        assert!(t.zone_of(NodeId(0)).unwrap().contains(&pt(&[0.9])));
    }

    #[test]
    fn simple_leave_merges_sibling() {
        let mut t = PartitionTree::new(2, NodeId(0));
        t.join(NodeId(1), &pt(&[0.9, 0.5]));
        let re = t.leave(NodeId(1)).unwrap();
        assert_eq!(re, vec![(NodeId(0), Zone::unit(2))]);
        assert_eq!(t.len(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn handover_leave_reassigns_two_nodes() {
        let mut t = PartitionTree::new(2, NodeId(0));
        t.join(NodeId(1), &pt(&[0.9, 0.5])); // right half
        t.join(NodeId(2), &pt(&[0.9, 0.9])); // right-top
        t.join(NodeId(3), &pt(&[0.9, 0.99])); // split right-top again
                                              // Node 0 owns the left half; its sibling subtree is deep.
        let re = t.leave(NodeId(0)).unwrap();
        assert_eq!(re.len(), 2, "handover must reassign a pair: {re:?}");
        t.validate().unwrap();
        assert_eq!(t.len(), 3);
        // Space still fully covered.
        for p in [[0.1, 0.1], [0.9, 0.1], [0.9, 0.9], [0.1, 0.9]] {
            let _ = t.find_leaf(&pt(&p));
        }
    }

    #[test]
    fn last_node_leave_returns_none() {
        let mut t = PartitionTree::new(2, NodeId(0));
        assert!(t.leave(NodeId(0)).is_none());
    }

    #[test]
    fn many_joins_and_leaves_stay_valid() {
        let mut t = PartitionTree::new(3, NodeId(0));
        // Deterministic pseudo-random points via a simple LCG.
        let mut s = 12345u64;
        let mut r = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 1..200u32 {
            let p = pt(&[r(), r(), r()]);
            t.join(NodeId(i), &p);
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 200);
        for i in (1..200u32).step_by(2) {
            t.leave(NodeId(i)).unwrap();
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 100);
        // Point location still resolves to live owners.
        for _ in 0..100 {
            let p = pt(&[r(), r(), r()]);
            let owner = t.find_leaf(&p);
            assert!(t.contains_node(owner));
            assert!(t.zone_of(owner).unwrap().contains(&p));
        }
    }

    #[test]
    fn last_hit_cache_survives_churn() {
        let mut t = PartitionTree::new(2, NodeId(0));
        t.join(NodeId(1), &pt(&[0.9, 0.5]));
        t.join(NodeId(2), &pt(&[0.9, 0.9]));
        let p = pt(&[0.9, 0.9]);
        // Warm the cache, then hit it repeatedly.
        assert_eq!(t.find_leaf(&p), NodeId(2));
        assert_eq!(t.find_leaf(&p), NodeId(2));
        // Structural change: the cached leaf splits; answers must follow.
        t.join(NodeId(3), &pt(&[0.99, 0.99]));
        let owner = t.find_leaf(&p);
        assert!(t.zone_of(owner).unwrap().contains(&p));
        // Leave collapses zones; the stale slot must not answer.
        t.leave(owner).unwrap();
        let owner2 = t.find_leaf(&p);
        assert!(t.zone_of(owner2).unwrap().contains(&p));
        t.validate().unwrap();
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut t = PartitionTree::new(2, NodeId(0));
        t.join(NodeId(1), &pt(&[0.9, 0.5]));
        let before = t.nodes.len();
        t.leave(NodeId(1)).unwrap();
        t.join(NodeId(2), &pt(&[0.9, 0.5]));
        assert_eq!(t.nodes.len(), before, "freed slots must be reused");
    }
}
