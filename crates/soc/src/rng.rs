//! Seedable, independent RNG streams, private to the runner.
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
/// Every stream has one owner: this module is private to `soc-sim`, and
/// its one caller, `runner/boot.rs`, derives each stream and hands it to
/// the component that draws from it, so no other crate can name one.
/// `Test` exists only in test builds. One owner per stream keeps draw
/// order a property of the runner, the invariant record → replay and the
/// node-side streams ([`node_stream_rng`]) lean on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RngStreams {
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
    #[cfg(test)]
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
            #[cfg(test)]
            RngStreams::Test(k) => 1000 + k as u64,
        }
    }
}

// The shared `rand::rngs::splitmix64` finalizer decorrelates
// `(seed, stream)` pairs so adjacent seeds do not produce correlated
// streams.

/// Derive the RNG for `stream` under master `seed`.
#[expect(
    clippy::disallowed_methods,
    reason = "the one constructor every master stream comes from"
)]
pub(crate) fn stream_rng(seed: u64, stream: RngStreams) -> SmallRng {
    let mixed = splitmix64(splitmix64(seed) ^ stream.id().wrapping_mul(0xA24B_AED4_963E_E407));
    SmallRng::seed_from_u64(mixed)
}

/// Derive the node-side RNG for `stream` under master `seed`: the streams
/// the nodes' events draw from, where bootstrap and churn draw the master
/// [`stream_rng`] streams.
///
/// A node-side stream mixes one more constant term into the master
/// derivation, so it never aliases its master stream. The term is what the
/// first of the runner's old per-partition streams mixed in; every pinned
/// fingerprint was recorded under it, so it stays.
#[expect(
    clippy::disallowed_methods,
    reason = "the one constructor every node-side stream comes from"
)]
pub(crate) fn node_stream_rng(seed: u64, stream: RngStreams) -> SmallRng {
    let mixed = splitmix64(
        splitmix64(seed)
            ^ stream.id().wrapping_mul(0xA24B_AED4_963E_E407)
            ^ splitmix64(0x9E37_79B9_7F4A_7C15),
    );
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
    fn node_streams_never_alias_master_streams() {
        for stream in [
            RngStreams::Workload,
            RngStreams::Protocol,
            RngStreams::Fault,
        ] {
            let mut master = stream_rng(7, stream);
            let mut node = node_stream_rng(7, stream);
            let vm: Vec<u64> = (0..8).map(|_| master.random()).collect();
            let vn: Vec<u64> = (0..8).map(|_| node.random()).collect();
            assert_ne!(vm, vn, "{stream:?}: the node stream aliases the master");
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
