//! Seedable, independent RNG streams.
//!
//! Every stochastic component of the simulation (workload generation, each
//! protocol's probabilistic choices, the network latency sampler, churn)
//! draws from its own stream derived from the master seed. Components then
//! stay reproducible *independently*: changing how many random numbers one
//! protocol consumes does not perturb the workload another run sees —
//! essential for paired protocol comparisons like the paper's Fig. 5-7.

use rand::rngs::{splitmix64, SmallRng};
use rand::SeedableRng;

/// Well-known stream identifiers. Using an enum (not magic numbers) keeps
/// call sites self-describing.
///
/// Every stream has one owner: the runner (crate `soc`, `runner/boot.rs`)
/// derives each one and hands it to the component that draws from it, and
/// `Test` belongs to test code alone. One owner per stream keeps draw
/// order a property of the runner, the invariant record → replay and the
/// node-side streams ([`stream_rng_shard`]) lean on. `soc-lint`'s
/// `rng-stream-discipline` rule flags a variant named anywhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RngStreams {
    /// Node capacity sampling (Table I).
    NodeCapacities,
    /// Task arrival times and demand vectors (Table II).
    Workload,
    /// CAN join points and structural randomness.
    Overlay,
    /// Protocol message randomness (index diffusion, random jumps).
    Protocol,
    /// Network latency jitter.
    Network,
    /// Churn event placement.
    Churn,
    /// LAN topology construction.
    Topology,
    /// Dispatch-time candidate shuffling (best-fit contention control).
    Dispatch,
    /// Fault-injection decisions: blackhole/liar selection, per-hop message
    /// loss, the Gilbert–Elliott burst chain. A dedicated stream so that
    /// enabling faults never perturbs the workload/network draws — the
    /// trace-replay invariant from the record/replay subsystem depends on it.
    Fault,
    /// Anything test-local.
    Test(u16),
}

impl RngStreams {
    fn id(self) -> u64 {
        match self {
            RngStreams::NodeCapacities => 1,
            RngStreams::Workload => 2,
            RngStreams::Overlay => 3,
            RngStreams::Protocol => 4,
            RngStreams::Network => 5,
            RngStreams::Churn => 6,
            RngStreams::Topology => 7,
            RngStreams::Dispatch => 8,
            RngStreams::Fault => 9,
            RngStreams::Test(k) => 1000 + k as u64,
        }
    }
}

// The shared `rand::rngs::splitmix64` finalizer decorrelates
// `(seed, stream)` pairs so adjacent seeds do not produce correlated
// streams.

/// Derive the RNG for `stream` under master `seed`.
pub fn stream_rng(seed: u64, stream: RngStreams) -> SmallRng {
    let mixed = splitmix64(splitmix64(seed) ^ stream.id().wrapping_mul(0xA24B_AED4_963E_E407));
    // soc-lint: allow(rng-stream-discipline) -- this IS the blessed constructor the rule funnels everyone through
    SmallRng::seed_from_u64(mixed)
}

/// Derive the RNG for `stream` in partition `shard` under master `seed`.
///
/// The runner draws its node-facing streams from partition 0; a run is
/// not partitioned any more, but every pinned fingerprint was recorded
/// under this derivation, so it stays. Every partition — 0 included —
/// mixes a partition-dependent term, so no such stream ever aliases the
/// master [`stream_rng`] stream (bootstrap and churn keep drawing the
/// master streams).
pub fn stream_rng_shard(seed: u64, stream: RngStreams, shard: usize) -> SmallRng {
    let mixed = splitmix64(
        splitmix64(seed)
            ^ stream.id().wrapping_mul(0xA24B_AED4_963E_E407)
            ^ splitmix64(0x9E37_79B9_7F4A_7C15 ^ shard as u64),
    );
    // soc-lint: allow(rng-stream-discipline) -- blessed shard-stream constructor, same funnel as stream_rng
    SmallRng::seed_from_u64(mixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let mut a = stream_rng(7, RngStreams::Workload);
        let mut b = stream_rng(7, RngStreams::Workload);
        for _ in 0..64 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = stream_rng(7, RngStreams::Workload);
        let mut b = stream_rng(7, RngStreams::Protocol);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = stream_rng(1, RngStreams::Overlay);
        let mut b = stream_rng(2, RngStreams::Overlay);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn test_streams_are_distinct() {
        let mut a = stream_rng(1, RngStreams::Test(0));
        let mut b = stream_rng(1, RngStreams::Test(1));
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn shard_streams_are_distinct_from_master_and_each_other() {
        // No shard stream (shard 0 included) may alias the master stream,
        // and distinct shards must decorrelate.
        let mut master = stream_rng(7, RngStreams::Fault);
        let vm: Vec<u64> = (0..8).map(|_| master.random()).collect();
        let mut prev: Vec<Vec<u64>> = vec![vm];
        for shard in 0..4 {
            let mut r = stream_rng_shard(7, RngStreams::Fault, shard);
            let v: Vec<u64> = (0..8).map(|_| r.random()).collect();
            for p in &prev {
                assert_ne!(*p, v, "shard {shard} stream aliases another stream");
            }
            prev.push(v);
        }
    }

    #[test]
    fn shard_stream_is_deterministic() {
        let mut a = stream_rng_shard(9, RngStreams::Workload, 3);
        let mut b = stream_rng_shard(9, RngStreams::Workload, 3);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let x = splitmix64(0x1234_5678);
        let y = splitmix64(0x1234_5679);
        let flipped = (x ^ y).count_ones();
        assert!(flipped > 16, "weak avalanche: {flipped} bits");
    }
}
