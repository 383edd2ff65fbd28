//! Per-node index tables: sampled nodes at `2^k` hop distances.

use rand::{Rng, RngExt};
use soc_can::CanOverlay;
use soc_types::NodeId;
use std::ops::Range;

/// The paper's `k` bound: `⌊log2 n^{1/d}⌋` (so the largest finger spans
/// roughly half the nodes along one dimension) — the largest `k` with
/// `2^(k·d) ≤ n`, computed in integers: `powf` rounds perfect powers down
/// (`64^(1/3)` = 3.9999999999999996), and the arena's row stride derives
/// from this number.
pub fn kmax_for(n: usize, dim: usize) -> usize {
    let dim = dim.max(1);
    let mut k = 0;
    while ((k + 1) * dim) < usize::BITS as usize && (1usize << ((k + 1) * dim)) <= n {
        k += 1;
    }
    k
}

/// Arena marker for "no entry" (edge of the space, or evicted).
const EMPTY: u32 = u32::MAX;

#[inline]
fn filled(seg: &[u32]) -> impl Iterator<Item = NodeId> + Clone + '_ {
    seg.iter().filter(|&&e| e != EMPTY).map(|&e| NodeId(e))
}

/// One node's index table: for each dimension and direction, the sampled
/// node at `2^k` hops, `k = 0..=kmax` — a borrowed view of that node's row
/// in the [`IndexTables`] arena. A row holds `dim` blocks of
/// `[positive k = 0..=kmax | negative k = 0..=kmax]`.
///
/// Entries may be absent near the edge of the (non-toroidal) key space.
#[derive(Clone, Copy, Debug)]
pub struct IndexTable<'a> {
    row: &'a [u32],
    /// `kmax + 1`: entries per (dimension, direction) segment.
    seg: usize,
}

/// Message accounting for one refresh sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Probe hops walked (each is one maintenance message).
    pub probe_msgs: u64,
}

impl<'a> IndexTable<'a> {
    /// Largest finger exponent.
    pub fn kmax(&self) -> usize {
        self.seg - 1
    }

    /// The `k = 0..=kmax` entries along `dim` in one direction; `None` for
    /// a dimension the overlay does not have.
    #[inline]
    fn segment(&self, dim: usize, positive: bool) -> Option<&'a [u32]> {
        // Saturating, so an absurd `dim` is a miss rather than an overflow.
        let at = dim
            .saturating_mul(2 * self.seg)
            .saturating_add(if positive { 0 } else { self.seg });
        self.row.get(at..at.saturating_add(self.seg))
    }

    /// Index node at `2^k` hops along `dim` in the given direction.
    #[inline]
    pub fn get(&self, dim: usize, positive: bool, k: usize) -> Option<NodeId> {
        match self.segment(dim, positive)?.get(k) {
            Some(&e) if e != EMPTY => Some(NodeId(e)),
            _ => None,
        }
    }

    /// All known index nodes along `dim` in the given direction
    /// (deduplicated, ascending `k`).
    pub fn along(&self, dim: usize, positive: bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        for id in self.segment(dim, positive).into_iter().flat_map(filled) {
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// Pick a random negative index node along `dim` (the paper's "randomly
    /// select an NINode along dimension NO. j"): a uniformly random `k`
    /// among the populated entries.
    pub fn random_ninode<R: Rng>(&self, dim: usize, rng: &mut R) -> Option<NodeId> {
        pick_uniform(filled(self.segment(dim, false)?), rng)
    }

    /// Pick a random positive index node along `dim`.
    pub fn random_positive<R: Rng>(&self, dim: usize, rng: &mut R) -> Option<NodeId> {
        pick_uniform(filled(self.segment(dim, true)?), rng)
    }
}

/// One walk step: a random adjacent neighbor of `from` along `dim` with the
/// requested orientation, or `None` at the edge of the space.
pub fn walk_step<R: Rng>(
    ov: &CanOverlay,
    from: NodeId,
    dim: usize,
    positive: bool,
    rng: &mut R,
) -> Option<NodeId> {
    let run = ov.neighbors_along(from, dim, positive);
    if run.is_empty() {
        return None;
    }
    Some(run[rng.random_range(0..run.len())].node)
}

/// Uniformly random populated finger of one segment, or `None` (and no
/// draw) when it has none. Two passes over the `kmax + 1` entries instead
/// of a collected `Vec`: count, draw an index below the count, take `.nth`
/// — the same bound, hence the same draw and stream position, as indexing
/// a collected vector.
fn pick_uniform<I, R>(mut items: I, rng: &mut R) -> Option<NodeId>
where
    I: Iterator<Item = NodeId> + Clone,
    R: Rng,
{
    let count = items.clone().count();
    if count == 0 {
        return None;
    }
    items.nth(rng.random_range(0..count))
}

/// The index tables of every node id in one arena, plus shared
/// bookkeeping.
///
/// Node `i`'s row is `arena[i·stride .. (i+1)·stride]` with
/// `stride = 2·dim·(kmax+1)` node ids ([`EMPTY`] for "no entry"): no
/// per-node heap object, and refreshes write in place.
#[derive(Clone, Debug)]
pub struct IndexTables {
    arena: Vec<u32>,
    dim: usize,
    kmax: usize,
}

impl IndexTables {
    /// Empty tables for all `max_nodes` ids in a `dim`-dimensional overlay
    /// of expected size `n`.
    pub fn new(dim: usize, n: usize, max_nodes: usize) -> Self {
        let kmax = kmax_for(n, dim);
        IndexTables {
            arena: vec![EMPTY; max_nodes * 2 * dim * (kmax + 1)],
            dim,
            kmax,
        }
    }

    /// Finger exponent bound.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    #[inline]
    fn stride(&self) -> usize {
        2 * self.dim * (self.kmax + 1)
    }

    /// Where `node`'s row sits in the arena.
    #[inline]
    fn row_span(&self, node: NodeId) -> Range<usize> {
        let stride = self.stride();
        node.idx() * stride..(node.idx() + 1) * stride
    }

    /// Table of `node`.
    #[inline]
    pub fn get(&self, node: NodeId) -> IndexTable<'_> {
        IndexTable {
            row: &self.arena[self.row_span(node)],
            seg: self.kmax + 1,
        }
    }

    /// Rebuild `node`'s table in place by probe walks along every
    /// dimension ("flooding the querying messages to its neighbors along
    /// the d dimensions until reaching the edge of the CAN space", §III-A);
    /// returns probe accounting.
    ///
    /// Each walk step picks a random neighbor with the right orientation,
    /// recording the nodes reached at power-of-two hop counts.
    pub fn refresh_node<R: Rng>(
        &mut self,
        node: NodeId,
        ov: &CanOverlay,
        rng: &mut R,
    ) -> WalkStats {
        debug_assert_eq!(ov.dim(), self.dim, "overlay/table dimension mismatch");
        let (span, kmax) = (self.row_span(node), self.kmax);
        let row = &mut self.arena[span];
        row.fill(EMPTY);
        let mut stats = WalkStats::default();
        // One segment per (dimension, direction), positive first — the walk
        // (and RNG draw) order.
        for (s, entries) in row.chunks_exact_mut(kmax + 1).enumerate() {
            let (d, positive) = (s / 2, s % 2 == 0);
            let mut cur = node;
            let mut next_k = 0usize;
            for step in 1..=(1usize << kmax) {
                let Some(next) = walk_step(ov, cur, d, positive, rng) else {
                    break; // reached the edge of the space
                };
                stats.probe_msgs += 1;
                cur = next;
                if step == (1usize << next_k) {
                    debug_assert_ne!(cur.0, EMPTY, "the sentinel is not a node id");
                    entries[next_k] = cur.0;
                    next_k += 1;
                }
            }
        }
        stats
    }

    /// Refresh every live node (bootstrap of tables that hold every id);
    /// returns total probe accounting.
    pub fn refresh_all<R: Rng>(&mut self, ov: &CanOverlay, rng: &mut R) -> WalkStats {
        let mut total = WalkStats::default();
        let nodes: Vec<NodeId> = ov.live_nodes().collect();
        for n in nodes {
            let s = self.refresh_node(n, ov, rng);
            total.probe_msgs += s.probe_msgs;
        }
        total
    }

    /// Evict a churned-away node from every table held here; returns
    /// entries dropped.
    pub fn evict_everywhere(&mut self, node: NodeId) -> usize {
        debug_assert_ne!(node.0, EMPTY, "the sentinel is not a node id");
        let mut total = 0;
        for e in self.arena.iter_mut().filter(|e| **e == node.0) {
            *e = EMPTY;
            total += 1;
        }
        total
    }

    /// Clear one node's own table (it departed).
    pub fn clear_node(&mut self, node: NodeId) {
        let span = self.row_span(node);
        self.arena[span].fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::is_negative_direction;

    #[test]
    fn kmax_matches_paper_formula() {
        // n = 2000, d = 5 ⇒ r ≈ 4.57 ⇒ kmax = 2.
        assert_eq!(kmax_for(2000, 5), 2);
        // n = 2000, d = 2 ⇒ r ≈ 44.7 ⇒ kmax = 5.
        assert_eq!(kmax_for(2000, 2), 5);
        assert_eq!(kmax_for(1, 3), 0);
        assert_eq!(kmax_for(0, 3), 0);
    }

    #[test]
    fn kmax_is_exact_on_perfect_powers() {
        // `powf` put 64^(1/3) at 3.9999999999999996 and answered 1.
        assert_eq!(kmax_for(64, 3), 2);
        assert_eq!(kmax_for(4096, 6), 2);
        assert_eq!(kmax_for(4096, 3), 4);
        for d in [2usize, 3, 5, 6] {
            for k in 1..=(40 / d) {
                let n = 1usize << (k * d);
                assert_eq!(kmax_for(n, d), k, "n = 2^({k}*{d})");
                assert_eq!(kmax_for(n - 1, d), k - 1, "n = 2^({k}*{d}) - 1");
                assert_eq!(kmax_for(n + 1, d), k, "n = 2^({k}*{d}) + 1");
            }
        }
        // The pinned and gallery scales keep their value.
        for n in [192, 600, 2000, 10_000] {
            assert_eq!(kmax_for(n, 5), if n < 1024 { 1 } else { 2 });
        }
        assert_eq!(kmax_for(usize::MAX, 1), usize::BITS as usize - 1);
    }

    #[test]
    fn refresh_populates_plausible_entries() {
        let mut rng = SmallRng::seed_from_u64(51);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        let node = NodeId(5);
        let mut tables = IndexTables::new(2, 64, 64);
        let stats = tables.refresh_node(node, &ov, &mut rng);
        let t = tables.get(node);
        assert!(stats.probe_msgs > 0);
        // At least the k=0 entries (adjacent neighbors) exist in some
        // direction for an interior node.
        let any = (0..2).any(|d| t.get(d, true, 0).is_some() || t.get(d, false, 0).is_some());
        assert!(any, "no index entries at all");
        // Negative entries must be negative-direction nodes of the owner…
        let my_zone = ov.zone(node).unwrap();
        for d in 0..2 {
            for id in t.along(d, false) {
                let z = ov.zone(id).unwrap();
                // …at least along the walked dimension.
                assert!(
                    z.lo()[d] <= my_zone.lo()[d],
                    "negative walk went the wrong way: {z:?} vs {my_zone:?}"
                );
            }
        }
    }

    #[test]
    fn negative_walks_from_top_corner_reach_negative_direction_nodes() {
        let mut rng = SmallRng::seed_from_u64(52);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        // Find the node owning the top corner: every negative index node of
        // it is a negative-direction node.
        let corner = ov.owner_of(&soc_types::ResVec::from_slice(&[1.0, 1.0]));
        let mut tables = IndexTables::new(2, 64, 64);
        tables.refresh_node(corner, &ov, &mut rng);
        let t = tables.get(corner);
        let cz = ov.zone(corner).unwrap();
        for d in 0..2 {
            for id in t.along(d, false) {
                let z = ov.zone(id).unwrap();
                assert!(
                    is_negative_direction(&z, &cz) || z.ranges_overlap(&cz, 1 - d),
                    "walk along {d} from the corner must stay weakly negative"
                );
            }
        }
    }

    #[test]
    fn evict_removes_all_references() {
        let mut rng = SmallRng::seed_from_u64(53);
        let ov = CanOverlay::bootstrap(2, 32, 32, &mut rng);
        let mut tables = IndexTables::new(2, 32, 32);
        tables.refresh_all(&ov, &mut rng);
        let victim = NodeId(7);
        tables.evict_everywhere(victim);
        for n in ov.live_nodes() {
            let t = tables.get(n);
            for d in 0..2 {
                for dir in [true, false] {
                    assert!(!t.along(d, dir).contains(&victim));
                }
            }
        }
    }

    #[test]
    fn random_ninode_draws_from_negative_side() {
        let mut rng = SmallRng::seed_from_u64(54);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        let corner = ov.owner_of(&soc_types::ResVec::from_slice(&[1.0, 1.0]));
        let mut tables = IndexTables::new(2, 64, 64);
        tables.refresh_node(corner, &ov, &mut rng);
        let t = tables.get(corner);
        let negs = t.along(0, false);
        if !negs.is_empty() {
            for _ in 0..20 {
                let pick = t.random_ninode(0, &mut rng).unwrap();
                assert!(negs.contains(&pick));
            }
        }
    }

    /// The collecting pick: the model the allocation-free picks must match
    /// draw for draw — no draw at all for an empty candidate list.
    fn pick_collected<R: Rng>(filled: Vec<NodeId>, rng: &mut R) -> Option<NodeId> {
        if filled.is_empty() {
            None
        } else {
            Some(filled[rng.random_range(0..filled.len())])
        }
    }

    #[test]
    fn picks_match_the_collecting_model_in_lockstep() {
        // The workload's overlay: five dimensions, after joins and leaves.
        let mut rng = SmallRng::seed_from_u64(56);
        let mut ov = CanOverlay::bootstrap(5, 48, 96, &mut rng);
        for id in 48..96 {
            ov.join(NodeId(id), &soc_can::overlay::random_point(5, &mut rng));
            let victim = ov.live_nodes().nth(rng.random_range(0..ov.len())).unwrap();
            ov.leave(victim);
        }
        let mut tables = IndexTables::new(5, 48, 96);
        tables.refresh_all(&ov, &mut rng);
        let (mut fast, mut model) = (rng.clone(), rng);
        let mut empties = 0;
        for node in ov.live_nodes() {
            let t = tables.get(node);
            for d in 0..5 {
                for positive in [true, false] {
                    // `walk_step` indexes one run of the sorted table; the
                    // model filters the whole table, counts, takes the nth.
                    let cands: Vec<NodeId> = ov
                        .neighbors(node)
                        .iter()
                        .filter(|e| usize::from(e.dim) == d && e.positive == positive)
                        .map(|e| e.node)
                        .collect();
                    empties += usize::from(cands.is_empty());
                    assert_eq!(
                        walk_step(&ov, node, d, positive, &mut fast),
                        pick_collected(cands, &mut model)
                    );
                    let filled: Vec<NodeId> = (0..=t.kmax())
                        .filter_map(|k| t.get(d, positive, k))
                        .collect();
                    let got = if positive {
                        t.random_positive(d, &mut fast)
                    } else {
                        t.random_ninode(d, &mut fast)
                    };
                    assert_eq!(got, pick_collected(filled, &mut model));
                    // Same stream position after every pick, empty or not.
                    assert_eq!(fast.random::<u64>(), model.random::<u64>());
                }
            }
        }
        assert!(
            empties > 0,
            "edge nodes must exercise the zero-candidate arm"
        );
    }

    #[test]
    fn walk_step_respects_orientation() {
        let mut rng = SmallRng::seed_from_u64(55);
        let ov = CanOverlay::bootstrap(2, 32, 32, &mut rng);
        for node in ov.live_nodes() {
            if let Some(next) = walk_step(&ov, node, 0, true, &mut rng) {
                let me = ov.zone(node).unwrap();
                let nz = ov.zone(next).unwrap();
                assert_eq!(nz.lo()[0], me.hi()[0], "positive step must abut above");
            }
        }
    }
}
