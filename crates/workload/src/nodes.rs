//! Table I: node capacity sampling.
//!
//! | parameter | values |
//! |---|---|
//! | processors per node | 1, 2, 4, 8 |
//! | computation rate per processor | 1, 2, 2.4, 3.2 |
//! | I/O speed | 20, 40, 60, 80 MbPS |
//! | memory | 512, 1024, 2048, 4096 MB |
//! | disk | 20, 60, 120, 240 GB |
//!
//! The per-node *network* capacity dimension is the node's access (LAN)
//! bandwidth (5–10 Mbps, Table I): Table II lets task bandwidth demands
//! reach `10λ` Mbps, which only the LAN range can satisfy, so that is the
//! capacity the paper's demand distribution is normalized against.

use rand::{Rng, RngExt};
use soc_types::ResVec;

const PROCS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
const RATES: [f64; 4] = [1.0, 2.0, 2.4, 3.2];
const IOS: [f64; 4] = [20.0, 40.0, 60.0, 80.0];
const MEMS: [f64; 4] = [512.0, 1024.0, 2048.0, 4096.0];
const DISKS: [f64; 4] = [20.0, 60.0, 120.0, 240.0];
const NET_RANGE: (f64, f64) = (5.0, 10.0);

/// Global capacity maxima `cmax` per dimension (the upper-bound capacity
/// vector of Formula (3); the paper obtains it by gossip aggregation \[23\],
/// we use the exact distribution bound — see DESIGN.md §2).
pub fn cmax() -> ResVec {
    ResVec::from_slice(&[
        PROCS[3] * RATES[3], // 25.6
        IOS[3],              // 80
        NET_RANGE.1,         // 10.0 (Table II task net demand tops out at 10λ)
        DISKS[3],            // 240
        MEMS[3],             // 4096
    ])
}

/// Samples node capacity vectors per Table I.
#[derive(Clone, Debug, Default)]
pub struct NodeCapacitySampler;

impl NodeCapacitySampler {
    /// Draw one capacity vector `(cpu, io, net, disk, mem)`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> ResVec {
        let procs = PROCS[rng.random_range(0..4)];
        let rate = RATES[rng.random_range(0..4)];
        let io = IOS[rng.random_range(0..4)];
        let mem = MEMS[rng.random_range(0..4)];
        let disk = DISKS[rng.random_range(0..4)];
        let net = rng.random_range(NET_RANGE.0..=NET_RANGE.1);
        ResVec::from_slice(&[procs * rate, io, net, disk, mem])
    }

    /// Sample `n` capacity vectors.
    pub fn sample_n<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<ResVec> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Draw one capacity vector restricted to one half of the Table I grid:
    /// `upper` samples every dimension from its top-two discrete levels (and
    /// the upper LAN range), `!upper` from the bottom two. Both halves stay
    /// inside the Table I grid, so [`cmax`] still dominates every sample —
    /// the heterogeneous "node class" generators build on this.
    pub fn sample_half<R: Rng>(&self, rng: &mut R, upper: bool) -> ResVec {
        let lo = if upper { 2 } else { 0 };
        let procs = PROCS[rng.random_range(lo..lo + 2)];
        let rate = RATES[rng.random_range(lo..lo + 2)];
        let io = IOS[rng.random_range(lo..lo + 2)];
        let mem = MEMS[rng.random_range(lo..lo + 2)];
        let disk = DISKS[rng.random_range(lo..lo + 2)];
        let mid = (NET_RANGE.0 + NET_RANGE.1) / 2.0;
        let net = if upper {
            rng.random_range(mid..=NET_RANGE.1)
        } else {
            rng.random_range(NET_RANGE.0..=mid)
        };
        ResVec::from_slice(&[procs * rate, io, net, disk, mem])
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_types::SOC_DIMS;

    #[test]
    fn cmax_matches_table1_maxima() {
        let c = cmax();
        assert_eq!(c.dim(), SOC_DIMS);
        assert_eq!(c[0], 25.6);
        assert_eq!(c[1], 80.0);
        assert_eq!(c[2], 10.0);
        assert_eq!(c[3], 240.0);
        assert_eq!(c[4], 4096.0);
    }

    #[test]
    fn samples_within_table1() {
        let mut rng = SmallRng::seed_from_u64(9);
        let s = NodeCapacitySampler;
        let cm = cmax();
        for _ in 0..500 {
            let c = s.sample(&mut rng);
            assert!(cm.dominates(&c), "{c:?} exceeds cmax");
            assert!(c.all_positive());
            // CPU is a product of listed discrete values.
            let cpu_ok = PROCS
                .iter()
                .any(|p| RATES.iter().any(|r| (p * r - c[0]).abs() < 1e-12));
            assert!(cpu_ok, "cpu {} not in Table I grid", c[0]);
            assert!(IOS.contains(&c[1]));
            assert!(MEMS.contains(&c[4]));
            assert!(DISKS.contains(&c[3]));
            assert!((5.0..=10.0).contains(&c[2]));
        }
    }

    #[test]
    fn capacity_distribution_covers_grid() {
        // With 2000 samples every discrete level should appear.
        let mut rng = SmallRng::seed_from_u64(10);
        let s = NodeCapacitySampler;
        let caps = s.sample_n(2000, &mut rng);
        for io in IOS {
            assert!(caps.iter().any(|c| c[1] == io), "io level {io} missing");
        }
        for mem in MEMS {
            assert!(caps.iter().any(|c| c[4] == mem), "mem level {mem} missing");
        }
    }
}
