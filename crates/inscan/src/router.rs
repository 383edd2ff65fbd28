//! The routed-message fast path: a [`Router`] facade over the per-hop
//! next-hop decision, with an epoch-validated route cache.
//!
//! Every routed message (state updates, duty queries) re-runs the same
//! pure decision at each hop: *given my zone, my finger table and the
//! target point, who is next?* Targets recur heavily — Table II demand
//! vectors come from a discrete set, so concurrent same-corner queries
//! share exact targets, and an idle node republishes its unchanged
//! availability point every state cycle — which makes the decision worth
//! memoizing, in the spirit of request-aware cloud cache management:
//! remember exactly the hot, re-requested decisions behind explicit
//! invalidation.
//!
//! The cache is a direct-mapped table whose size is fixed at construction
//! (scaled to the ids the router's instance owns): hashing `(node, target)`
//! picks the **target cell**, and the entry stores the exact target plus
//! the two epochs its answer was computed under — the overlay structure
//! epoch ([`CanOverlay::epoch`], bumped on every join/leave/zone change)
//! and the node's finger-table refresh epoch
//! ([`IndexTables::epoch_of`]). A lookup hits only when the cell holds the
//! *bit-identical* target and both epochs still match, so a hit returns
//! exactly what the scan would have computed — stale entries (churn, table
//! refresh) and cell collisions simply miss and are overwritten. Neither
//! the finger step nor the greedy fallback draws randomness, so cached
//! routing is bitwise-identical end to end
//! (`crates/bench/tests/route_equivalence.rs` pins whole-run fingerprints;
//! `crates/inscan/tests/route_props.rs` pins the step in lockstep).
//!
//! Select with `SOC_ROUTE=scan|cached` (read per router construction);
//! default `cached`.

use crate::routing::inscan_next_hop;
use crate::table::IndexTables;
use soc_can::{greedy_next_hop, CanOverlay, Point};
use soc_types::NodeId;

/// Which next-hop implementation a [`Router`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteBackend {
    /// Memoize per-(node, target-cell) next hops, epoch-validated
    /// (default).
    Cached,
    /// Recompute the finger/greedy scan on every hop (reference
    /// implementation).
    Scan,
}

impl RouteBackend {
    /// Backend selected by the `SOC_ROUTE` environment variable (`scan` or
    /// `cached`); defaults to `Cached`.
    ///
    /// This is the single place `SOC_ROUTE` is parsed (the read, trimmed
    /// and lowercased like every knob's, is `soc_types::knobs::value`).
    /// Still read on every router construction — deliberately not
    /// `OnceLock`-cached, because the equivalence suites flip the variable
    /// between runs inside one process to A/B both backends; a
    /// process-global cache would freeze the first value and reduce those
    /// bitwise checks to self-comparisons.
    pub fn from_env() -> Self {
        match soc_types::knobs::value("SOC_ROUTE").as_deref() {
            Some("scan") => RouteBackend::Scan,
            _ => RouteBackend::Cached,
        }
    }
}

/// Most cache slots a router ever allocates, and what one built without an
/// id count ([`Router::with_backend`], [`Router::from_env`]) gets. At
/// 300–2000 nodes a duty-routing burst touches a few hundred (node, target)
/// pairs; 4096 cells keep the direct-mapped conflict rate low for 416 KiB
/// (104-byte cells).
///
/// There is one router per protocol instance and the runner builds one
/// instance per shard, each routing only for the ids its shard owns — so [`Router::sized_for`] scales the table to that id count
/// (rounded up to a power of two, [`MIN_CELLS`] … `MAX_CELLS`): 512 cells =
/// 52 KiB for a 320-id shard of the n = 2000 cell instead of 416 KiB. The
/// size only moves the hit rate; a hit is validated against the exact key,
/// so any size answers bit-identically.
const MAX_CELLS: usize = 4096;

/// Fewest cache slots a router allocates.
const MIN_CELLS: usize = 64;

/// One memoized next-hop decision.
#[derive(Clone, Copy, Debug)]
struct Entry {
    node: NodeId,
    target: Point,
    /// `true` when the entry answers the greedy (finger-less) question —
    /// the same `(node, target)` pair may legitimately have both answers.
    greedy: bool,
    hop: Option<NodeId>,
    ov_epoch: u64,
    tbl_epoch: u64,
}

/// Hit/miss accounting (diagnostics and benches only — never part of a
/// report fingerprint).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that recomputed (cold cell, collision, or stale epoch).
    pub misses: u64,
}

/// The routed-message facade: one per protocol instance.
///
/// Both entry points return bit-identically what their underlying scan
/// (`inscan_next_hop` / `greedy_next_hop`) returns; the `Cached` backend
/// only changes *when the work happens*.
pub struct Router {
    backend: RouteBackend,
    /// Table length minus one (the length is a power of two): selects the
    /// cell from a key hash.
    mask: usize,
    /// Empty until the first miss stores its answer, then `mask + 1` long.
    cells: Vec<Option<Entry>>,
    stats: RouteCacheStats,
}

impl Router {
    /// Router with an explicit backend and the largest table.
    pub fn with_backend(backend: RouteBackend) -> Self {
        Router {
            backend,
            mask: MAX_CELLS - 1,
            // A router that never routes — the scan backend's, a shard's
            // with no live node — never pays for the table; the others fill
            // it on their first miss.
            cells: Vec::new(),
            stats: RouteCacheStats::default(),
        }
    }

    /// Router with the `SOC_ROUTE`-selected backend and the largest table.
    pub fn from_env() -> Self {
        Self::with_backend(RouteBackend::from_env())
    }

    /// Router with the `SOC_ROUTE`-selected backend whose table is sized
    /// for an instance that routes on behalf of `ids` node ids.
    pub fn sized_for(ids: usize) -> Self {
        let cells = ids.next_power_of_two().clamp(MIN_CELLS, MAX_CELLS);
        Router {
            mask: cells - 1,
            ..Self::from_env()
        }
    }

    /// Backend in use.
    pub fn backend(&self) -> RouteBackend {
        self.backend
    }

    /// Cache accounting so far.
    pub fn cache_stats(&self) -> RouteCacheStats {
        self.stats
    }

    /// One INSCAN routing step (fingers + greedy fallback) from `current`
    /// toward `target`; `None` when `current`'s zone contains the target.
    pub fn next_hop(
        &mut self,
        ov: &CanOverlay,
        tables: &IndexTables,
        current: NodeId,
        target: &Point,
    ) -> Option<NodeId> {
        if self.backend == RouteBackend::Scan {
            return inscan_next_hop(ov, tables, current, target);
        }
        let tbl_epoch = tables.epoch_of(current);
        let cell = key_hash(current, target, false) & self.mask;
        if let Some(hop) = self.lookup(cell, ov, current, target, false, tbl_epoch) {
            return hop;
        }
        let hop = inscan_next_hop(ov, tables, current, target);
        self.store(cell, ov, current, target, false, tbl_epoch, hop);
        hop
    }

    /// One greedy CAN step (no finger table) from `current` toward
    /// `target`; `None` when `current`'s zone contains the target.
    pub fn greedy_hop(
        &mut self,
        ov: &CanOverlay,
        current: NodeId,
        target: &Point,
    ) -> Option<NodeId> {
        if self.backend == RouteBackend::Scan {
            return greedy_next_hop(ov, current, target);
        }
        let cell = key_hash(current, target, true) & self.mask;
        if let Some(hop) = self.lookup(cell, ov, current, target, true, 0) {
            return hop;
        }
        let hop = greedy_next_hop(ov, current, target);
        self.store(cell, ov, current, target, true, 0, hop);
        hop
    }

    /// `Some(answer)` on a validated hit, `None` on a miss. The caller
    /// hashes the key once (`key_hash`, masked to a cell) and reuses the
    /// cell for the `store` that follows a miss.
    #[inline]
    fn lookup(
        &mut self,
        cell: usize,
        ov: &CanOverlay,
        node: NodeId,
        target: &Point,
        greedy: bool,
        tbl_epoch: u64,
    ) -> Option<Option<NodeId>> {
        if let Some(Some(e)) = self.cells.get(cell) {
            if e.node == node
                && e.greedy == greedy
                && e.ov_epoch == ov.epoch()
                && e.tbl_epoch == tbl_epoch
                && e.target == *target
            {
                self.stats.hits += 1;
                return Some(e.hop);
            }
        }
        self.stats.misses += 1;
        None
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn store(
        &mut self,
        cell: usize,
        ov: &CanOverlay,
        node: NodeId,
        target: &Point,
        greedy: bool,
        tbl_epoch: u64,
        hop: Option<NodeId>,
    ) {
        if self.cells.is_empty() {
            self.cells = vec![None; self.mask + 1];
        }
        self.cells[cell] = Some(Entry {
            node,
            target: *target,
            greedy,
            hop,
            ov_epoch: ov.epoch(),
            tbl_epoch,
        });
    }
}

/// FNV-1a over the exact target bits, the node id and the greedy flag; the
/// router masks it down to its direct-mapped target cell. Each ingredient
/// is folded through the multiply so it reaches the low bits that select
/// the cell (FNV's multiply only diffuses differences *upward* — a flag
/// parked in a high bit of the seed would never touch the cell index).
#[inline]
fn key_hash(node: NodeId, target: &Point, greedy: bool) -> usize {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h = (h ^ node.0 as u64).wrapping_mul(PRIME);
    h = (h ^ greedy as u64).wrapping_mul(PRIME);
    for v in target.iter() {
        h = (h ^ v.to_bits()).wrapping_mul(PRIME);
    }
    // to_bits differences live mostly in the mantissa's high bits; fold
    // the top half down so they reach the cell index too.
    h ^= h >> 32;
    h as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::overlay::random_point;

    fn setup(n: usize, dim: usize, seed: u64) -> (CanOverlay, IndexTables, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ov = CanOverlay::bootstrap(dim, n, n + 8, &mut rng);
        let mut tables = IndexTables::new(dim, n, n + 8);
        tables.refresh_all(&ov, &mut rng);
        (ov, tables, rng)
    }

    /// A cached router with exactly `cells` slots, whatever `SOC_ROUTE` says.
    fn cached(cells: usize) -> Router {
        assert!(cells.is_power_of_two());
        Router {
            mask: cells - 1,
            ..Router::with_backend(RouteBackend::Cached)
        }
    }

    #[test]
    fn cached_agrees_with_scan_and_hits_on_repeats() {
        let (ov, tables, mut rng) = setup(128, 3, 90);
        // Every other target is snapped to the eighths lattice, where split
        // planes are, in all but one coordinate — like an availability point,
        // whose bandwidth coordinate stays continuous: the greedy step must
        // be memoized exactly there too.
        let mut points: Vec<_> = (0..32).map(|_| random_point(3, &mut rng)).collect();
        for p in points.iter_mut().step_by(2) {
            for d in 0..2 {
                p[d] = (p[d] * 8.0).round() / 8.0;
            }
        }
        for cells in [MIN_CELLS, 1024, MAX_CELLS] {
            let mut router = cached(cells);
            for round in 0..3 {
                for p in &points {
                    for node in [NodeId(0), NodeId(5), NodeId(17)] {
                        let want = inscan_next_hop(&ov, &tables, node, p);
                        assert_eq!(router.next_hop(&ov, &tables, node, p), want);
                        let wantg = greedy_next_hop(&ov, node, p);
                        assert_eq!(router.greedy_hop(&ov, node, p), wantg);
                    }
                }
                if round == 0 {
                    assert_eq!(router.cache_stats().hits, 0, "cold cache cannot hit");
                }
            }
            assert_eq!(router.cells.len(), cells);
            let s = router.cache_stats();
            // 192 distinct keys: the smaller tables thrash on collisions (and
            // must still answer exactly), the largest holds nearly all.
            assert!(s.hits > 0, "repeats must hit at {cells} cells: {s:?}");
            if cells == MAX_CELLS {
                assert!(s.hits > s.misses, "repeats must hit: {s:?}");
            }
        }
    }

    #[test]
    fn the_table_is_allocated_by_the_first_miss_of_the_cached_backend() {
        let (ov, tables, mut rng) = setup(64, 2, 93);
        let p = random_point(2, &mut rng);
        let mut cached = Router::with_backend(RouteBackend::Cached);
        let mut scan = Router::with_backend(RouteBackend::Scan);
        assert!(cached.cells.is_empty());
        let want = inscan_next_hop(&ov, &tables, NodeId(3), &p);
        for _ in 0..2 {
            assert_eq!(cached.next_hop(&ov, &tables, NodeId(3), &p), want);
            assert_eq!(scan.next_hop(&ov, &tables, NodeId(3), &p), want);
        }
        assert_eq!(cached.cells.len(), MAX_CELLS);
        let stats = cached.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert!(scan.cells.is_empty(), "the scan backend never needs one");
    }

    #[test]
    fn the_table_is_sized_to_the_ids_the_router_serves() {
        let (ov, tables, mut rng) = setup(64, 2, 94);
        let p = random_point(2, &mut rng);
        // 320 ids is one shard of the n = 2000 cell (2500 ids over 8 shards).
        for (ids, cells) in [(0, 64), (64, 64), (320, 512), (1563, 2048), (12_500, 4096)] {
            let mut router = Router {
                backend: RouteBackend::Cached,
                ..Router::sized_for(ids)
            };
            assert!(router.cells.is_empty());
            router.next_hop(&ov, &tables, NodeId(3), &p);
            assert_eq!(router.cells.len(), cells, "table of a {ids}-id router");
        }
    }

    #[test]
    fn join_invalidates_cached_hops() {
        let (mut ov, tables, mut rng) = setup(64, 2, 91);
        let mut router = Router::with_backend(RouteBackend::Cached);
        let p = random_point(2, &mut rng);
        let before = router.next_hop(&ov, &tables, NodeId(0), &p);
        assert_eq!(before, router.next_hop(&ov, &tables, NodeId(0), &p));
        let hits0 = router.cache_stats().hits;
        assert!(hits0 > 0);
        ov.join(NodeId(64), &random_point(2, &mut rng));
        // Same lookup after the epoch bump must recompute (a miss), and
        // still agree with the scan against the *new* structure.
        let after = router.next_hop(&ov, &tables, NodeId(0), &p);
        assert_eq!(after, inscan_next_hop(&ov, &tables, NodeId(0), &p));
        assert_eq!(router.cache_stats().hits, hits0);
    }

    #[test]
    fn table_refresh_invalidates_only_that_node() {
        let (ov, mut tables, mut rng) = setup(64, 2, 92);
        let mut router = Router::with_backend(RouteBackend::Cached);
        let p = random_point(2, &mut rng);
        router.next_hop(&ov, &tables, NodeId(1), &p);
        router.next_hop(&ov, &tables, NodeId(2), &p);
        tables.refresh_node(NodeId(1), &ov, &mut rng);
        let misses0 = router.cache_stats().misses;
        // Node 1 recomputes; node 2 still hits.
        assert_eq!(
            router.next_hop(&ov, &tables, NodeId(1), &p),
            inscan_next_hop(&ov, &tables, NodeId(1), &p)
        );
        assert_eq!(router.cache_stats().misses, misses0 + 1);
        router.next_hop(&ov, &tables, NodeId(2), &p);
        assert_eq!(router.cache_stats().misses, misses0 + 1);
    }

    #[test]
    fn env_selection_defaults_to_cached() {
        // Not a parallel-safe env test (process-global): only assert the
        // default when the variable is absent.
        if soc_types::knobs::raw("SOC_ROUTE").is_none() {
            assert_eq!(RouteBackend::from_env(), RouteBackend::Cached);
        }
        assert_eq!(
            Router::with_backend(RouteBackend::Scan).backend(),
            RouteBackend::Scan
        );
    }
}
