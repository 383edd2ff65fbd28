//! Per-node index tables: sampled nodes at `2^k` hop distances.

use rand::{Rng, RngExt};
use soc_can::CanOverlay;
use soc_types::NodeId;

/// The paper's `k` bound: `⌊log2 n^{1/d}⌋` (so the largest finger spans
/// roughly half the nodes along one dimension).
pub fn kmax_for(n: usize, dim: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let r = (n as f64).powf(1.0 / dim as f64);
    r.log2().floor().max(0.0) as usize
}

/// One node's index table: for each dimension and direction, the sampled
/// node at `2^k` hops (`entries[dim][k]`), `k = 0..=kmax`.
///
/// Entries may be `None` near the edge of the (non-toroidal) key space.
#[derive(Clone, Debug, Default)]
pub struct IndexTable {
    positive: Vec<Vec<Option<NodeId>>>,
    negative: Vec<Vec<Option<NodeId>>>,
}

/// Message accounting for one refresh sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Probe hops walked (each is one maintenance message).
    pub probe_msgs: u64,
}

impl IndexTable {
    /// Empty table for a `dim`-dimensional overlay with fingers up to
    /// `2^kmax`.
    pub fn new(dim: usize, kmax: usize) -> Self {
        IndexTable {
            positive: vec![vec![None; kmax + 1]; dim],
            negative: vec![vec![None; kmax + 1]; dim],
        }
    }

    /// Largest finger exponent.
    pub fn kmax(&self) -> usize {
        self.positive.first().map(|v| v.len() - 1).unwrap_or(0)
    }

    /// Index node at `2^k` hops along `dim` in the given direction.
    pub fn get(&self, dim: usize, positive: bool, k: usize) -> Option<NodeId> {
        let side = if positive {
            &self.positive
        } else {
            &self.negative
        };
        side.get(dim).and_then(|v| v.get(k).copied().flatten())
    }

    /// All known index nodes along `dim` in the given direction
    /// (deduplicated, ascending `k`).
    pub fn along(&self, dim: usize, positive: bool) -> Vec<NodeId> {
        let side = if positive {
            &self.positive
        } else {
            &self.negative
        };
        let mut out = Vec::new();
        if let Some(v) = side.get(dim) {
            for id in v.iter().flatten() {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
        }
        out
    }

    /// Pick a random negative index node along `dim` (the paper's "randomly
    /// select an NINode along dimension NO. j"): a uniformly random `k`
    /// among the populated entries.
    pub fn random_ninode<R: Rng>(&self, dim: usize, rng: &mut R) -> Option<NodeId> {
        pick_uniform(self.negative.get(dim)?.iter().flatten().copied(), rng)
    }

    /// Pick a random positive index node along `dim`.
    pub fn random_positive<R: Rng>(&self, dim: usize, rng: &mut R) -> Option<NodeId> {
        pick_uniform(self.positive.get(dim)?.iter().flatten().copied(), rng)
    }

    /// Drop every reference to `node` (it churned away); returns how many
    /// entries were invalidated.
    pub fn evict(&mut self, node: NodeId) -> usize {
        let mut n = 0;
        for side in [&mut self.positive, &mut self.negative] {
            for v in side.iter_mut() {
                for e in v.iter_mut() {
                    if *e == Some(node) {
                        *e = None;
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Rebuild the table for `node` by probe walks along every dimension
    /// ("flooding the querying messages to its neighbors along the d
    /// dimensions until reaching the edge of the CAN space", §III-A).
    ///
    /// Each walk step picks a random neighbor with the right orientation,
    /// recording the nodes reached at power-of-two hop counts.
    pub fn refresh<R: Rng>(
        node: NodeId,
        ov: &CanOverlay,
        kmax: usize,
        rng: &mut R,
    ) -> (IndexTable, WalkStats) {
        let dim = ov.dim();
        let mut table = IndexTable::new(dim, kmax);
        let mut stats = WalkStats::default();
        let max_steps = 1usize << kmax;
        for d in 0..dim {
            for positive in [true, false] {
                let mut cur = node;
                let mut next_k = 0usize;
                for step in 1..=max_steps {
                    match walk_step(ov, cur, d, positive, rng) {
                        Some(next) => {
                            stats.probe_msgs += 1;
                            cur = next;
                            if step == (1usize << next_k) {
                                let side = if positive {
                                    &mut table.positive
                                } else {
                                    &mut table.negative
                                };
                                side[d][next_k] = Some(cur);
                                next_k += 1;
                                if next_k > kmax {
                                    break;
                                }
                            }
                        }
                        None => break, // reached the edge of the space
                    }
                }
            }
        }
        (table, stats)
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
    let cands = ov
        .neighbors(from)
        .iter()
        .filter(|e| e.dim == dim && e.positive == positive)
        .map(|e| e.node);
    pick_uniform(cands, rng)
}

/// Uniformly random element of `items`, or `None` (and no draw) when it is
/// empty. Two passes instead of a collected `Vec`: count, draw an index
/// below the count, take `.nth` — the same bound, hence the same draw and
/// stream position, as indexing a collected vector.
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

/// All nodes' index tables, plus shared bookkeeping.
#[derive(Clone, Debug)]
pub struct IndexTables {
    tables: Vec<IndexTable>,
    /// Per-node refresh epochs: bumped whenever a node's table content
    /// changes (refresh, clear, eviction). Routing caches compare these to
    /// decide whether a memoized next hop computed from the table is stale.
    epochs: Vec<u64>,
    kmax: usize,
}

impl IndexTables {
    /// Empty tables for `max_nodes` ids in a `dim`-dimensional overlay of
    /// expected size `n`.
    pub fn new(dim: usize, n: usize, max_nodes: usize) -> Self {
        let kmax = kmax_for(n, dim);
        IndexTables {
            tables: vec![IndexTable::new(dim, kmax); max_nodes],
            epochs: vec![0; max_nodes],
            kmax,
        }
    }

    /// Finger exponent bound.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    /// Table of `node`.
    pub fn get(&self, node: NodeId) -> &IndexTable {
        &self.tables[node.idx()]
    }

    /// Refresh epoch of `node`'s table (changes exactly when the table's
    /// content may have changed).
    #[inline]
    pub fn epoch_of(&self, node: NodeId) -> u64 {
        self.epochs[node.idx()]
    }

    /// Refresh one node's table in place; returns probe accounting.
    pub fn refresh_node<R: Rng>(
        &mut self,
        node: NodeId,
        ov: &CanOverlay,
        rng: &mut R,
    ) -> WalkStats {
        let (t, stats) = IndexTable::refresh(node, ov, self.kmax, rng);
        self.tables[node.idx()] = t;
        self.epochs[node.idx()] += 1;
        stats
    }

    /// Refresh every live node (bootstrap); returns total probe accounting.
    pub fn refresh_all<R: Rng>(&mut self, ov: &CanOverlay, rng: &mut R) -> WalkStats {
        let mut total = WalkStats::default();
        let nodes: Vec<NodeId> = ov.live_nodes().collect();
        for n in nodes {
            let s = self.refresh_node(n, ov, rng);
            total.probe_msgs += s.probe_msgs;
        }
        total
    }

    /// Evict a churned-away node from every table; returns entries dropped.
    pub fn evict_everywhere(&mut self, node: NodeId) -> usize {
        let mut total = 0;
        for (i, t) in self.tables.iter_mut().enumerate() {
            let n = t.evict(node);
            if n > 0 {
                self.epochs[i] += 1;
            }
            total += n;
        }
        total
    }

    /// Clear one node's own table (it departed).
    pub fn clear_node(&mut self, node: NodeId) {
        let dim = self.tables[node.idx()].positive.len();
        self.tables[node.idx()] = IndexTable::new(dim, self.kmax);
        self.epochs[node.idx()] += 1;
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
    }

    #[test]
    fn refresh_populates_plausible_entries() {
        let mut rng = SmallRng::seed_from_u64(51);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        let node = NodeId(5);
        let (t, stats) = IndexTable::refresh(node, &ov, kmax_for(64, 2), &mut rng);
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
        let (t, _) = IndexTable::refresh(corner, &ov, kmax_for(64, 2), &mut rng);
        let cz = ov.zone(corner).unwrap();
        for d in 0..2 {
            for id in t.along(d, false) {
                let z = ov.zone(id).unwrap();
                assert!(
                    is_negative_direction(z, cz) || z.ranges_overlap(cz, 1 - d),
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

    /// The collecting pick the three call sites used before: the model the
    /// allocation-free `pick_uniform` must match draw for draw.
    fn pick_collected<R: Rng>(filled: Vec<NodeId>, rng: &mut R) -> Option<NodeId> {
        if filled.is_empty() {
            None
        } else {
            Some(filled[rng.random_range(0..filled.len())])
        }
    }

    #[test]
    fn picks_match_the_collecting_model_in_lockstep() {
        let mut rng = SmallRng::seed_from_u64(56);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        let mut tables = IndexTables::new(2, 64, 64);
        tables.refresh_all(&ov, &mut rng);
        let (mut fast, mut model) = (rng.clone(), rng);
        let mut empties = 0;
        for node in ov.live_nodes() {
            let t = tables.get(node);
            for d in 0..2 {
                for positive in [true, false] {
                    let cands: Vec<NodeId> = ov
                        .neighbors(node)
                        .iter()
                        .filter(|e| e.dim == d && e.positive == positive)
                        .map(|e| e.node)
                        .collect();
                    empties += usize::from(cands.is_empty());
                    assert_eq!(
                        walk_step(&ov, node, d, positive, &mut fast),
                        pick_collected(cands, &mut model)
                    );
                    let side = if positive { &t.positive } else { &t.negative };
                    let filled: Vec<NodeId> = side[d].iter().flatten().copied().collect();
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
