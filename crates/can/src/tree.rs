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

use crate::zone::{Point, Zone};
use soc_types::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf(NodeId),
    Internal { left: usize, right: usize },
}

#[derive(Clone, Debug)]
struct TreeNode {
    zone: Zone,
    parent: Option<usize>,
    depth: usize,
    kind: NodeKind,
}

/// The global zone-partition structure.
///
/// Invariants (checked by `debug_validate` and the property tests):
/// * leaves tile `[0,1]^d` exactly (disjoint interiors, full cover);
/// * each live `NodeId` owns exactly one leaf;
/// * every internal node's children merge back to its zone;
/// * splits cycle through dimensions by depth (`split dim = depth % d`).
#[derive(Debug)]
pub struct PartitionTree {
    nodes: Vec<TreeNode>,
    free: Vec<usize>,
    root: usize,
    leaf_of: HashMap<NodeId, usize>,
    dim: usize,
    /// Last leaf returned by [`PartitionTree::find_leaf`]. Point queries
    /// cluster (oracle checks re-resolve the same demand corner, state
    /// updates hit the same duty zones), so checking the previous hit —
    /// O(d) containment — usually skips the O(depth) descent. Invalidated
    /// on every structural change; leaves tile the space, so any *live*
    /// leaf whose zone contains the point is the unique correct answer.
    ///
    /// Atomic (Relaxed) rather than `Cell` so the sharded executor may
    /// call `find_leaf` from several worker threads on a structurally
    /// frozen tree: any stored index is a live leaf during a window, the
    /// hint is validated before use, and a racy overwrite only costs one
    /// extra descent — never a wrong answer.
    last_hit: AtomicUsize,
}

impl Clone for PartitionTree {
    fn clone(&self) -> Self {
        PartitionTree {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            root: self.root,
            leaf_of: self.leaf_of.clone(),
            dim: self.dim,
            // Pure hint: the clone starts cold rather than copying it.
            last_hit: AtomicUsize::new(NO_HIT),
        }
    }
}

/// Sentinel for an empty/invalidated `last_hit` cache.
const NO_HIT: usize = usize::MAX;

impl PartitionTree {
    /// A tree with a single leaf (the whole space) owned by `first`.
    pub fn new(dim: usize, first: NodeId) -> Self {
        Self::with_leaf_capacity(dim, first, 1)
    }

    /// Like [`PartitionTree::new`], with room for `leaves` leaves — a binary
    /// tree of `2·leaves − 1` nodes — reserved in one allocation. An overlay
    /// that knows its id capacity asks for it before anything else: grown
    /// by doubling instead, the node array of a 10 000-node overlay ends as
    /// a 3 MB → 6 MB move in the middle of the bootstrap, the one request
    /// large enough that a recycled heap sometimes cannot place it below
    /// its old top (+3.7 MB of peak RSS when that happens).
    pub fn with_leaf_capacity(dim: usize, first: NodeId, leaves: usize) -> Self {
        let root = TreeNode {
            zone: Zone::unit(dim),
            parent: None,
            depth: 0,
            kind: NodeKind::Leaf(first),
        };
        let mut nodes = Vec::with_capacity((2 * leaves).saturating_sub(1).max(1));
        nodes.push(root);
        let mut leaf_of = HashMap::new();
        leaf_of.insert(first, 0);
        PartitionTree {
            nodes,
            free: Vec::new(),
            root: 0,
            leaf_of,
            dim,
            last_hit: AtomicUsize::new(NO_HIT),
        }
    }

    /// Dimensionality of the key space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live leaves (= overlay size).
    pub fn len(&self) -> usize {
        self.leaf_of.len()
    }

    /// True when only the bootstrap node remains.
    pub fn is_empty(&self) -> bool {
        self.leaf_of.is_empty()
    }

    /// Is `node` currently an owner of a zone?
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.leaf_of.contains_key(&node)
    }

    /// Zone currently owned by `node`, if it is in the overlay.
    pub fn zone_of(&self, node: NodeId) -> Option<&Zone> {
        self.leaf_of.get(&node).map(|&i| &self.nodes[i].zone)
    }

    /// Owner of the leaf containing `p`.
    pub fn find_leaf(&self, p: &Point) -> NodeId {
        // Last-hit fast path: valid between structural changes (the cache
        // is cleared on join/leave, so the slot is a live leaf).
        let cached = self.last_hit.load(Ordering::Relaxed);
        if cached != NO_HIT {
            if let NodeKind::Leaf(owner) = self.nodes[cached].kind {
                if self.nodes[cached].zone.contains(p) {
                    return owner;
                }
            }
        }
        let mut i = self.root;
        loop {
            match self.nodes[i].kind {
                NodeKind::Leaf(owner) => {
                    self.last_hit.store(i, Ordering::Relaxed);
                    return owner;
                }
                NodeKind::Internal { left, right } => {
                    i = if self.nodes[left].zone.contains(p) {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// All `(owner, zone)` pairs, ordered by owner id.
    ///
    /// `leaf_of` is a HashMap, so its raw iteration order is arbitrary;
    /// sorting here keeps every caller deterministic by construction
    /// instead of trusting each call site to normalize.
    pub fn leaves(&self) -> impl Iterator<Item = (NodeId, &Zone)> + '_ {
        let mut out: Vec<(NodeId, &Zone)> = self
            .leaf_of // soc-lint: allow(no-unordered-iter) -- order normalized by the sort below
            .iter()
            .map(|(&id, &i)| (id, &self.nodes[i].zone))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id); // soc-lint: allow(no-unstable-sort) -- map keys are unique, stability is moot
        out.into_iter()
    }

    fn alloc(&mut self, n: TreeNode) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = n;
            i
        } else {
            self.nodes.push(n);
            self.nodes.len() - 1
        }
    }

    /// Join: `newcomer` picks the random point `p`, the owner of the leaf
    /// containing `p` splits its zone (along `depth % d`, CAN's cyclic
    /// order) and hands the half *not* containing `p`… to itself; the
    /// newcomer takes the half containing `p`.
    ///
    /// Returns `(splitter, newcomer_zone, splitter_zone)`.
    ///
    /// # Panics
    /// Panics if `newcomer` is already in the overlay.
    pub fn join(&mut self, newcomer: NodeId, p: &Point) -> (NodeId, Zone, Zone) {
        assert!(
            !self.leaf_of.contains_key(&newcomer),
            "{newcomer} already joined"
        );
        let owner = self.find_leaf(p);
        let leaf_idx = self.leaf_of[&owner];
        let depth = self.nodes[leaf_idx].depth;
        let split_dim = depth % self.dim;
        let (lo_half, hi_half) = self.nodes[leaf_idx].zone.split(split_dim);

        // Newcomer takes the half containing its chosen point.
        let (new_zone, old_zone) = if lo_half.contains(p) {
            (lo_half, hi_half)
        } else {
            (hi_half, lo_half)
        };

        let left_first = new_zone.lo()[split_dim] < old_zone.lo()[split_dim];
        let (left_zone, right_zone, left_owner, right_owner) = if left_first {
            (new_zone, old_zone, newcomer, owner)
        } else {
            (old_zone, new_zone, owner, newcomer)
        };

        let left = self.alloc(TreeNode {
            zone: left_zone,
            parent: Some(leaf_idx),
            depth: depth + 1,
            kind: NodeKind::Leaf(left_owner),
        });
        let right = self.alloc(TreeNode {
            zone: right_zone,
            parent: Some(leaf_idx),
            depth: depth + 1,
            kind: NodeKind::Leaf(right_owner),
        });
        self.nodes[leaf_idx].kind = NodeKind::Internal { left, right };
        self.leaf_of.insert(left_owner, left);
        self.leaf_of.insert(right_owner, right);
        self.last_hit.store(NO_HIT, Ordering::Relaxed);

        (owner, new_zone, old_zone)
    }

    fn sibling(&self, idx: usize) -> Option<usize> {
        let parent = self.nodes[idx].parent?;
        match self.nodes[parent].kind {
            NodeKind::Internal { left, right } => Some(if left == idx { right } else { left }),
            NodeKind::Leaf(_) => unreachable!("parent must be internal"),
        }
    }

    /// Find an internal node in the subtree at `idx` whose children are both
    /// leaves, or return `idx` itself if it is a leaf.
    fn deepest_leaf_pair(&self, idx: usize) -> usize {
        let mut i = idx;
        loop {
            match self.nodes[i].kind {
                NodeKind::Leaf(_) => return i,
                NodeKind::Internal { left, right } => {
                    let both_leaves = matches!(self.nodes[left].kind, NodeKind::Leaf(_))
                        && matches!(self.nodes[right].kind, NodeKind::Leaf(_));
                    if both_leaves {
                        return i;
                    }
                    // Descend into an internal child (prefer left for
                    // determinism).
                    i = if matches!(self.nodes[left].kind, NodeKind::Internal { .. }) {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn collapse(&mut self, parent: usize, new_owner: NodeId) {
        if let NodeKind::Internal { left, right } = self.nodes[parent].kind {
            self.free.push(left);
            self.free.push(right);
            self.nodes[parent].kind = NodeKind::Leaf(new_owner);
            self.leaf_of.insert(new_owner, parent);
        } else {
            unreachable!("collapse target must be internal");
        }
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
        self.last_hit.store(NO_HIT, Ordering::Relaxed);
        let leaf_idx = *self.leaf_of.get(&node).expect("node not in overlay");
        self.leaf_of.remove(&node);
        let Some(sib) = self.sibling(leaf_idx) else {
            // Departing node owned the whole space.
            return None;
        };
        let parent = self.nodes[leaf_idx].parent.expect("sibling implies parent");

        if let NodeKind::Leaf(sib_owner) = self.nodes[sib].kind {
            // Simple merge: sibling takes over the parent zone.
            self.collapse(parent, sib_owner);
            let z = self.nodes[parent].zone;
            return Some(vec![(sib_owner, z)]);
        }

        // Handover: pull a leaf pair out of the sibling subtree.
        let pair_parent = self.deepest_leaf_pair(sib);
        let (mover, stayer) = match self.nodes[pair_parent].kind {
            NodeKind::Internal { left, right } => {
                let l_owner = match self.nodes[left].kind {
                    NodeKind::Leaf(o) => o,
                    _ => unreachable!(),
                };
                let r_owner = match self.nodes[right].kind {
                    NodeKind::Leaf(o) => o,
                    _ => unreachable!(),
                };
                (l_owner, r_owner)
            }
            NodeKind::Leaf(_) => unreachable!("deepest_leaf_pair found a leaf under internal sib"),
        };
        // `stayer` absorbs the pair's merged zone…
        self.leaf_of.remove(&mover);
        self.collapse(pair_parent, stayer);
        let stayer_zone = self.nodes[pair_parent].zone;
        // …and `mover` takes the departed node's zone.
        self.nodes[leaf_idx].kind = NodeKind::Leaf(mover);
        self.leaf_of.insert(mover, leaf_idx);
        let mover_zone = self.nodes[leaf_idx].zone;

        Some(vec![(stayer, stayer_zone), (mover, mover_zone)])
    }

    /// Exhaustive structural validation (test/debug use).
    pub fn validate(&self) -> Result<(), String> {
        // Leaves must tile the space: total volume 1 and pairwise disjoint.
        let leaves: Vec<(NodeId, Zone)> = self.leaves().map(|(n, z)| (n, *z)).collect();
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
        // leaf_of is consistent.
        // soc-lint: allow(no-unordered-iter) -- order-blind validation: each entry is checked independently
        for (&id, &idx) in &self.leaf_of {
            match self.nodes[idx].kind {
                NodeKind::Leaf(o) if o == id => {}
                _ => return Err(format!("leaf_of[{id}] stale")),
            }
        }
        // Children merge to parents.
        for n in &self.nodes {
            if let NodeKind::Internal { left, right } = n.kind {
                let merged = self.nodes[left].zone.merge(&self.nodes[right].zone);
                if merged != Some(n.zone) {
                    return Err("children do not merge to parent zone".into());
                }
            }
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
        assert_eq!(t.zone_of(NodeId(0)), Some(&Zone::unit(2)));
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
