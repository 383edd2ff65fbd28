//! Property test: the flat finger-table arena ([`IndexTables`]) is
//! observationally identical to the nested-`Vec` table it replaced, kept
//! here as the reference model — the same entries, the same eviction
//! counts and probe accounting, and the same RNG stream position
//! after every call — on random op scripts that interleave refreshes,
//! clears and evictions with overlay joins and leaves, for every
//! `(dim, kmax)` shape the arena's stride can take.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed a local RNG; no simulation stream is involved"
)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::CanOverlay;
use soc_inscan::table::walk_step;
use soc_inscan::{IndexTables, WalkStats};
use soc_types::NodeId;

const START: usize = 24;
const MAX_NODES: usize = 40;

/// One node's table as it was before the arena — `[positive, negative]`,
/// each `[dim][k]`: one heap vector per dimension and direction.
#[derive(Clone)]
struct ModelTable([Vec<Vec<Option<NodeId>>>; 2]);

impl ModelTable {
    fn new(dim: usize, kmax: usize) -> Self {
        let side = vec![vec![None; kmax + 1]; dim];
        ModelTable([side.clone(), side])
    }
    fn row(&self, dim: usize, positive: bool) -> Option<&Vec<Option<NodeId>>> {
        self.0[usize::from(!positive)].get(dim)
    }
    fn get(&self, dim: usize, positive: bool, k: usize) -> Option<NodeId> {
        self.row(dim, positive)?.get(k).copied().flatten()
    }
    fn along(&self, dim: usize, positive: bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        for id in self.row(dim, positive).into_iter().flatten().flatten() {
            if !out.contains(id) {
                out.push(*id);
            }
        }
        out
    }
    fn pick<R: Rng>(&self, dim: usize, positive: bool, rng: &mut R) -> Option<NodeId> {
        let row = self.row(dim, positive)?;
        let filled: Vec<NodeId> = row.iter().flatten().copied().collect();
        (!filled.is_empty()).then(|| filled[rng.random_range(0..filled.len())])
    }
    fn evict(&mut self, node: NodeId) -> usize {
        let hits = self.0.iter_mut().flatten().flatten();
        hits.filter(|e| **e == Some(node))
            .map(|e| *e = None)
            .count()
    }
    /// Rebuild by probe walks, as `IndexTable::refresh` did.
    fn refresh<R: Rng>(&mut self, node: NodeId, ov: &CanOverlay, rng: &mut R) -> WalkStats {
        let kmax = self.0[0][0].len() - 1;
        *self = ModelTable::new(ov.dim(), kmax);
        let mut stats = WalkStats::default();
        for d in 0..ov.dim() {
            for positive in [true, false] {
                let (mut cur, mut next_k) = (node, 0usize);
                for step in 1..=(1usize << kmax) {
                    let Some(next) = walk_step(ov, cur, d, positive, rng) else {
                        break;
                    };
                    stats.probe_msgs += 1;
                    cur = next;
                    if step == (1usize << next_k) {
                        self.0[usize::from(!positive)][d][next_k] = Some(cur);
                        next_k += 1;
                    }
                }
            }
        }
        stats
    }
}

/// Both implementations plus the RNG each one draws from.
struct World {
    ov: CanOverlay,
    arena: IndexTables,
    model: Vec<ModelTable>,
    kmax: usize,
    fast: SmallRng,
    slow: SmallRng,
}

impl World {
    /// Same stream position without advancing either stream.
    fn check_rng(&self, after: &str) -> Result<(), String> {
        if self.fast.clone().random::<u64>() != self.slow.clone().random::<u64>() {
            return Err(format!("RNG streams diverged after {after}"));
        }
        Ok(())
    }

    fn refresh(&mut self, node: NodeId) -> Result<(), String> {
        let got = self.arena.refresh_node(node, &self.ov, &mut self.fast);
        let want = self.model[node.idx()].refresh(node, &self.ov, &mut self.slow);
        if got != want {
            return Err(format!("WalkStats of {node}: {got:?} vs {want:?}"));
        }
        self.check_rng("refresh_node")?;
        self.check_node(node)
    }

    fn clear(&mut self, node: NodeId) -> Result<(), String> {
        self.arena.clear_node(node);
        self.model[node.idx()] = ModelTable::new(self.ov.dim(), self.kmax);
        self.check_node(node)
    }

    fn evict(&mut self, node: NodeId) -> Result<(), String> {
        let got = self.arena.evict_everywhere(node);
        let want: usize = self.model.iter_mut().map(|m| m.evict(node)).sum();
        if got != want {
            return Err(format!(
                "evicting {node} dropped {got} entries, model {want}"
            ));
        }
        Ok(())
    }

    /// Every read the table offers, in and out of range, for one node.
    fn check_node(&mut self, node: NodeId) -> Result<(), String> {
        let (t, m) = (self.arena.get(node), &self.model[node.idx()]);
        if t.kmax() != self.kmax || self.arena.kmax() != self.kmax {
            return Err(format!("kmax of {node}"));
        }
        // One dimension and two exponents past the end, plus an absurd one.
        for d in (0..=self.ov.dim()).chain([usize::MAX]) {
            for positive in [true, false] {
                for k in (0..=self.kmax + 2).chain([usize::MAX]) {
                    if t.get(d, positive, k) != m.get(d, positive, k) {
                        return Err(format!("get({d}, {positive}, {k}) of {node}"));
                    }
                }
                if t.along(d, positive) != m.along(d, positive) {
                    return Err(format!("along({d}, {positive}) of {node}"));
                }
                let got = if positive {
                    t.random_positive(d, &mut self.fast)
                } else {
                    t.random_ninode(d, &mut self.fast)
                };
                if got != m.pick(d, positive, &mut self.slow) {
                    return Err(format!("random pick ({d}, {positive}) of {node}"));
                }
                self.check_rng(&format!("pick ({d}, {positive}) of {node}"))?;
            }
        }
        Ok(())
    }
}

fn nth_live(ov: &CanOverlay, pick: usize) -> NodeId {
    ov.live_nodes()
        .nth(pick % ov.len())
        .expect("non-empty overlay")
}

fn run_script(dim: usize, kmax: usize, seed: u64, ops: &[(u8, u16)]) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ov = CanOverlay::bootstrap(dim, START, MAX_NODES, &mut rng);
    // The expected-size argument only feeds `kmax_for`: 2^(kmax·dim)
    // selects the finger depth whatever the overlay really holds.
    let n = 1usize << (kmax * dim);
    let mut w = World {
        ov,
        arena: IndexTables::new(dim, n, MAX_NODES),
        model: vec![ModelTable::new(dim, kmax); MAX_NODES],
        kmax,
        fast: SmallRng::seed_from_u64(seed ^ 0xA5A5),
        slow: SmallRng::seed_from_u64(seed ^ 0xA5A5),
    };
    let live: Vec<NodeId> = w.ov.live_nodes().collect();
    for node in live {
        w.refresh(node)?;
    }
    let mut free: Vec<NodeId> = (START..MAX_NODES).map(|i| NodeId(i as u32)).collect();
    for &(kind, pick) in ops {
        let pick = pick as usize;
        match kind {
            0 => {
                if let Some(id) = free.pop() {
                    w.ov.join(id, &random_point(dim, &mut rng));
                    w.refresh(id)?;
                }
            }
            1 if w.ov.len() > 2 => {
                let victim = nth_live(&w.ov, pick);
                w.ov.leave(victim);
                w.clear(victim)?;
                free.push(victim);
            }
            2 | 3 => w.refresh(nth_live(&w.ov, pick))?,
            // Dead ids too: eviction must not care who is alive.
            4 => w.evict(NodeId((pick % MAX_NODES) as u32))?,
            5 => w.clear(nth_live(&w.ov, pick))?,
            _ => w.check_node(NodeId((pick % MAX_NODES) as u32))?,
        }
    }
    for i in 0..MAX_NODES {
        w.check_node(NodeId(i as u32))?;
    }
    w.check_rng("the script")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_matches_nested_vec_model(
        dim in 2usize..=6,
        kmax in 0usize..=5,
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u8..8, 0u16..512), 1..60),
    ) {
        if let Err(e) = run_script(dim, kmax, seed, &ops) {
            prop_assert!(false, "dim {dim} kmax {kmax}: {e}");
        }
    }
}

/// Every `(dim, kmax)` shape once, with a fixed script that exercises
/// every op kind — independent of what the generator happens to draw.
#[test]
fn every_shape_stays_lockstep() {
    let ops: Vec<(u8, u16)> = (0u16..64).map(|i| ((i % 8) as u8, i * 37)).collect();
    for dim in 2..=6 {
        for kmax in 0..=5 {
            run_script(dim, kmax, 11 + dim as u64 * 7 + kmax as u64, &ops)
                .unwrap_or_else(|e| panic!("dim {dim} kmax {kmax}: {e}"));
        }
    }
}
