//! Index diffusion (§III-B1, Algorithms 1–2; Theorem 1, Fig. 2–3).
//!
//! [`fan_out`] is the per-node rule of both algorithms, written once: which
//! `(dim_no, dim_ttl)` index messages a node sends, as the sender or as a
//! relay. The live protocol ([`crate::protocol`]) walks it with `PidMsg::Index`
//! messages; [`simulate_diffusion`] walks it synchronously for one round,
//! for analysis. With the binary-decomposition argument behind Theorem 1,
//! tests and examples reproduce Fig. 2 (relay depth `≤ ⌈log2 r⌉` per
//! dimension) and Fig. 3 (SID vs HID coverage) without the event loop.

use crate::config::DiffusionMethod;
use rand::Rng;
use soc_can::CanOverlay;
use soc_inscan::IndexTables;
use soc_types::NodeId;
use std::collections::VecDeque;

/// The index messages one node sends in a diffusion round, as
/// `(dim_no, dim_ttl)` pairs in send order; each goes to one random
/// negative index node along `dim_no`.
///
/// `hop` is `None` at the sender (Algorithm 1) and the received message's
/// `(dim_no, dim_ttl)` at a relay (Algorithm 2). Under HID a message
/// carries a same-dimension budget `dim_ttl`: the sender sends one message
/// along dimension 0 with budget `l`, and a relay passes the message on
/// along its dimension while budget is left, then starts the next
/// dimension with a fresh budget. Under SID the sender, and then every
/// relay for the next dimension, picks all `l` targets itself. When every
/// pick succeeds a round sends `ω = Σ_{j=1..d} l^j` messages either way.
pub fn fan_out(
    method: DiffusionMethod,
    l: usize,
    dims: usize,
    hop: Option<(usize, usize)>,
) -> impl Iterator<Item = (usize, usize)> {
    let next_dim = hop.map_or(0, |(dim_no, _)| dim_no + 1);
    let (same_dim, next_ttl, copies) = match (method, hop) {
        (DiffusionMethod::Hopping, Some((dim_no, ttl))) if ttl > 1 => {
            (Some((dim_no, ttl - 1)), l, 1)
        }
        (DiffusionMethod::Hopping, _) => (None, l, 1),
        (DiffusionMethod::Spreading, _) => (None, 0, l),
    };
    let copies = if next_dim < dims { copies } else { 0 };
    same_dim
        .into_iter()
        .chain(std::iter::repeat_n((next_dim, next_ttl), copies))
}

/// Result of one synchronous diffusion round from a single origin.
#[derive(Clone, Debug)]
pub struct DiffusionOutcome {
    /// Distinct nodes that received the origin's index, with the message
    /// depth (hops from the origin) at first receipt.
    pub reached: Vec<(NodeId, usize)>,
    /// Total index messages sent.
    pub messages: usize,
    /// Maximum message depth.
    pub max_depth: usize,
}

impl DiffusionOutcome {
    /// Number of distinct nodes notified.
    pub fn coverage(&self) -> usize {
        self.reached.len()
    }
}

/// Run one diffusion round from `origin` using the given method: a
/// breadth-first walk of [`fan_out`], as the live protocol would send it
/// with every message delivered.
pub fn simulate_diffusion<R: Rng>(
    ov: &CanOverlay,
    tables: &IndexTables,
    origin: NodeId,
    method: DiffusionMethod,
    l: usize,
    rng: &mut R,
) -> DiffusionOutcome {
    let dims = ov.dim();
    let mut reached: Vec<(NodeId, usize)> = Vec::new();
    let mut messages = 0usize;
    let mut max_depth = 0usize;
    // (sender, the message it received, its depth); the origin received none.
    let mut queue = VecDeque::new();
    queue.push_back((origin, None, 0));
    while let Some((at, hop, depth)) = queue.pop_front() {
        if hop.is_some() {
            max_depth = max_depth.max(depth);
            if !reached.iter().any(|(n, _)| *n == at) {
                reached.push((at, depth));
            }
        }
        for (dim_no, dim_ttl) in fan_out(method, l, dims, hop) {
            if let Some(t) = tables.get(at).random_ninode(dim_no, rng) {
                messages += 1;
                queue.push_back((t, Some((dim_no, dim_ttl)), depth + 1));
            }
        }
    }

    DiffusionOutcome {
        reached,
        messages,
        max_depth,
    }
}

/// Theorem 1's constructive core: the powers of two composing a hop
/// distance `λ` (its binary decomposition), so `λ` can be covered in
/// `popcount(λ) ≤ ⌈log2(λ+1)⌉` index-node relays.
pub fn binary_decomposition(lambda: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut bit = 0usize;
    let mut x = lambda;
    while x > 0 {
        if x & 1 == 1 {
            out.push(1 << bit);
        }
        x >>= 1;
        bit += 1;
    }
    out.reverse(); // largest jump first
    out
}

/// Relay hops needed to cover distance `lambda` per Theorem 1.
pub fn theorem1_hops(lambda: usize) -> usize {
    lambda.count_ones() as usize
}

/// Fig. 2's line-network experiment: `r` nodes on a line, each holding
/// `2^k` fingers toward the origin; diffuse the top node's index along the
/// binary decomposition and return, for every node, the relay depth at
/// which it is first notified (index 0 = the top node itself).
pub fn line_diffusion_depths(r: usize) -> Vec<usize> {
    // Node i sits at distance i from the top node. Depth(i) = relays to
    // reach it using power-of-two jumps: popcount(i) when relays may chain
    // through intermediate notified nodes greedily.
    (0..r).map(theorem1_hops).collect()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use crate::config::DiffusionMethod;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(n: usize, dim: usize, seed: u64) -> (CanOverlay, IndexTables, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ov = CanOverlay::bootstrap(dim, n, n, &mut rng);
        let mut tables = IndexTables::new(dim, n, n);
        tables.refresh_all(&ov, &mut rng);
        (ov, tables, rng)
    }

    #[test]
    fn binary_decomposition_reconstructs() {
        for lambda in 0..256usize {
            let parts = binary_decomposition(lambda);
            assert_eq!(parts.iter().sum::<usize>(), lambda);
            assert_eq!(parts.len(), theorem1_hops(lambda));
            // Each part is a power of two.
            for p in parts {
                assert_eq!(p & (p - 1), 0);
            }
        }
    }

    #[test]
    fn theorem1_bound_holds() {
        // h ≤ [log2 λ] + 1 ≤ [log2 r] for any distance λ < r.
        for r in [19usize, 64, 1000] {
            for lambda in 1..r {
                let h = theorem1_hops(lambda);
                let bound = (lambda as f64).log2().floor() as usize + 1;
                assert!(h <= bound, "λ={lambda}: {h} > {bound}");
            }
        }
    }

    #[test]
    fn fig2_line_example() {
        // The paper's example: r = 19 nodes, the top-most node needs < 4
        // relay hops (log2 19 ≈ 4.25) to reach everyone.
        let depths = line_diffusion_depths(19);
        assert_eq!(depths[0], 0);
        assert!(depths.iter().all(|&d| d <= 4));
        // Specifically (13)₁₀ = (1101)₂ → 3 hops, as §III-B1 works out.
        assert_eq!(depths[13], 3);
    }

    /// Messages of one round when every pick succeeds: `fan_out` expanded
    /// from the sender down.
    fn full_round(method: DiffusionMethod, l: usize, dims: usize) -> usize {
        let mut messages = 0;
        let mut pending = vec![None];
        while let Some(hop) = pending.pop() {
            for msg in fan_out(method, l, dims, hop) {
                messages += 1;
                pending.push(Some(msg));
            }
        }
        messages
    }

    #[test]
    fn fan_out_sends_omega_messages_when_every_pick_succeeds() {
        // §III-B1: "if L = 2 and d = 3, the total number of messages is
        // only 14" — ω = Σ_{j=1..d} L^j, for HID's relayed budget as for
        // SID's initiator-picked targets.
        for l in 1..=4 {
            let cfg = crate::config::PidCanConfig {
                fanout_l: l,
                ..Default::default()
            };
            for dims in 1..=6 {
                for method in [DiffusionMethod::Hopping, DiffusionMethod::Spreading] {
                    assert_eq!(
                        full_round(method, l, dims),
                        cfg.omega(dims),
                        "{method:?} L = {l}, d = {dims}"
                    );
                }
            }
        }
    }

    #[test]
    fn hopping_message_count_bounded_by_omega() {
        let (ov, tables, mut rng) = setup(128, 2, 81);
        let cfg = crate::config::PidCanConfig::default();
        let omega = cfg.omega(2);
        // Origin must have negative directions: use the top-corner owner.
        let origin = ov.owner_of(&soc_types::ResVec::from_slice(&[1.0, 1.0]));
        for _ in 0..50 {
            let out =
                simulate_diffusion(&ov, &tables, origin, DiffusionMethod::Hopping, 2, &mut rng);
            assert!(out.messages <= omega, "{} > ω = {omega}", out.messages);
        }
    }

    #[test]
    fn hopping_spreads_wider_than_spreading() {
        // Fig. 3 / §III-B2: HID diffuses more widely than SID at equal L.
        let (ov, tables, mut rng) = setup(256, 2, 82);
        let origin = ov.owner_of(&soc_types::ResVec::from_slice(&[1.0, 1.0]));
        let rounds = 200;
        let mut hid_cov = 0usize;
        let mut sid_cov = 0usize;
        let mut hid_msgs = 0usize;
        let mut sid_msgs = 0usize;
        // Aggregate distinct nodes over repeated rounds (the protocol
        // diffuses every cycle, so cumulative coverage is what matters).
        let mut hid_seen = std::collections::BTreeSet::new();
        let mut sid_seen = std::collections::BTreeSet::new();
        for _ in 0..rounds {
            let h = simulate_diffusion(&ov, &tables, origin, DiffusionMethod::Hopping, 2, &mut rng);
            let s = simulate_diffusion(
                &ov,
                &tables,
                origin,
                DiffusionMethod::Spreading,
                2,
                &mut rng,
            );
            hid_cov += h.coverage();
            sid_cov += s.coverage();
            hid_msgs += h.messages;
            sid_msgs += s.messages;
            hid_seen.extend(h.reached.iter().map(|(n, _)| *n));
            sid_seen.extend(s.reached.iter().map(|(n, _)| *n));
        }
        // Message budgets are comparable (same ω cap).
        let rel = (hid_msgs as f64 - sid_msgs as f64).abs() / sid_msgs.max(1) as f64;
        assert!(rel < 0.5, "budget mismatch: {hid_msgs} vs {sid_msgs}");
        let _ = (hid_cov, sid_cov);
        assert!(
            hid_seen.len() >= sid_seen.len(),
            "HID cumulative coverage {} < SID {}",
            hid_seen.len(),
            sid_seen.len()
        );
    }

    #[test]
    fn depth_is_logarithmic_for_hopping() {
        let (ov, tables, mut rng) = setup(256, 2, 83);
        let origin = ov.owner_of(&soc_types::ResVec::from_slice(&[1.0, 1.0]));
        let out = simulate_diffusion(&ov, &tables, origin, DiffusionMethod::Hopping, 2, &mut rng);
        // depth ≤ d · L (each dimension contributes at most L chained
        // relays under the live algorithm).
        assert!(out.max_depth <= 2 * 2, "depth {}", out.max_depth);
    }
}
