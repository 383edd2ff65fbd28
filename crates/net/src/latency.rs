//! LAN topology and per-hop latency sampling.

use rand::{Rng, RngExt};
use soc_types::{NodeId, SimMillis};

/// Latency ranges (milliseconds, uniform) for intra-LAN and WAN hops.
#[derive(Clone, Copy, Debug)]
pub struct LatencyConfig {
    /// Intra-LAN one-way latency range.
    pub lan_ms: (SimMillis, SimMillis),
    /// Cross-LAN (WAN) one-way latency range. §IV-B: ≈200 ms per WAN hop.
    pub wan_ms: (SimMillis, SimMillis),
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            lan_ms: (2, 10),
            wan_ms: (150, 250),
        }
    }
}

/// Assignment of nodes to LANs plus per-node WAN bandwidth.
///
/// Nodes are grouped into LANs of `lan_size` consecutive ids — the paper
/// does not describe the grouping beyond its existence, and overlay
/// neighbors are random with respect to ids, so consecutive grouping is
/// equivalent to random grouping for every measured quantity.
#[derive(Clone, Debug)]
pub struct LanTopology {
    lan_of: Vec<u32>,
    /// Per-node WAN bandwidth in Mbps (Table I: 0.2–2 Mbps).
    wan_mbps: Vec<f64>,
    /// Per-node LAN bandwidth in Mbps (Table I: 5–10 Mbps).
    lan_mbps: Vec<f64>,
    config: LatencyConfig,
    n_lans: u32,
}

impl LanTopology {
    /// Build a topology of `n` nodes in LANs of `lan_size`, sampling
    /// bandwidths from Table I's ranges.
    pub fn new<R: Rng>(n: usize, lan_size: usize, config: LatencyConfig, rng: &mut R) -> Self {
        assert!(lan_size >= 1);
        let lan_of: Vec<u32> = (0..n).map(|i| (i / lan_size) as u32).collect();
        let wan_mbps = (0..n).map(|_| rng.random_range(0.2..=2.0)).collect();
        let lan_mbps = (0..n).map(|_| rng.random_range(5.0..=10.0)).collect();
        let n_lans = lan_of.last().map(|&l| l + 1).unwrap_or(0);
        LanTopology {
            lan_of,
            wan_mbps,
            lan_mbps,
            config,
            n_lans,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.lan_of.len()
    }

    /// True when the topology holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.lan_of.is_empty()
    }

    /// Number of LANs.
    pub fn n_lans(&self) -> u32 {
        self.n_lans
    }

    /// LAN id of `node`.
    pub fn lan_of(&self, node: NodeId) -> u32 {
        self.lan_of[node.idx()]
    }

    /// Are two nodes on the same LAN?
    pub fn same_lan(&self, a: NodeId, b: NodeId) -> bool {
        self.lan_of(a) == self.lan_of(b)
    }

    /// Sample the one-way latency of a control message `from → to`.
    pub fn latency<R: Rng>(&self, from: NodeId, to: NodeId, rng: &mut R) -> SimMillis {
        let (lo, hi) = if self.same_lan(from, to) {
            self.config.lan_ms
        } else {
            self.config.wan_ms
        };
        rng.random_range(lo..=hi)
    }

    /// Time to push `kbytes` of payload `from → to` (dispatching a task's
    /// data), limited by the slower endpoint's bandwidth, plus latency.
    pub fn transfer_ms<R: Rng>(
        &self,
        from: NodeId,
        to: NodeId,
        kbytes: f64,
        rng: &mut R,
    ) -> SimMillis {
        let mbps = if self.same_lan(from, to) {
            self.lan_mbps[from.idx()].min(self.lan_mbps[to.idx()])
        } else {
            self.wan_mbps[from.idx()].min(self.wan_mbps[to.idx()])
        };
        let ms = (kbytes * 8.0) / mbps; // kbit / (kbit/ms)  — Mbps == kbit/ms
        self.latency(from, to, rng) + ms.round() as SimMillis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn topo(n: usize, lan: usize) -> (LanTopology, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(42);
        let t = LanTopology::new(n, lan, LatencyConfig::default(), &mut rng);
        (t, rng)
    }

    #[test]
    fn grouping_is_contiguous() {
        let (t, _) = topo(100, 20);
        assert_eq!(t.n_lans(), 5);
        assert!(t.same_lan(NodeId(0), NodeId(19)));
        assert!(!t.same_lan(NodeId(19), NodeId(20)));
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn lan_latency_lower_than_wan() {
        let (t, mut rng) = topo(100, 20);
        for _ in 0..100 {
            let lan = t.latency(NodeId(0), NodeId(1), &mut rng);
            let wan = t.latency(NodeId(0), NodeId(99), &mut rng);
            assert!((2..=10).contains(&lan), "lan latency {lan}");
            assert!((150..=250).contains(&wan), "wan latency {wan}");
        }
    }

    #[test]
    fn bandwidths_within_table1() {
        let (t, _) = topo(50, 10);
        for v in &t.wan_mbps {
            assert!((0.2..=2.0).contains(v));
        }
        for v in &t.lan_mbps {
            assert!((5.0..=10.0).contains(v));
        }
    }

    #[test]
    fn transfer_time_dominated_by_bandwidth_on_wan() {
        let (t, mut rng) = topo(100, 20);
        // 1 MB over at most 2 Mbps ⇒ ≥ 4 s ≫ latency.
        let ms = t.transfer_ms(NodeId(0), NodeId(99), 1024.0, &mut rng);
        assert!(ms >= 4_000, "transfer {ms} ms too fast");
        // Same payload on the LAN is ≥ 5 Mbps ⇒ ≤ ~1.7 s.
        let ms = t.transfer_ms(NodeId(0), NodeId(1), 1024.0, &mut rng);
        assert!(ms <= 1_800, "lan transfer {ms} ms too slow");
    }

    #[test]
    fn single_lan_topology() {
        let (t, mut rng) = topo(10, 100);
        assert_eq!(t.n_lans(), 1);
        let l = t.latency(NodeId(0), NodeId(9), &mut rng);
        assert!((2..=10).contains(&l));
    }
}
