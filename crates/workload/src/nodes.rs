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
use std::ops::{Range, RangeInclusive};

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

/// Draw one Table I capacity vector `(cpu, io, net, disk, mem)`.
pub fn table1_capacity<R: Rng>(rng: &mut R) -> ResVec {
    draw(rng, 0..4, NET_RANGE.0..=NET_RANGE.1)
}

/// Draw one capacity vector from one half of the Table I grid: `upper`
/// takes every dimension from its top two discrete levels (and the upper
/// half of the LAN range), `!upper` from the bottom two. Both halves stay
/// inside the grid, so [`cmax`] still dominates every draw — the
/// heterogeneous "node class" model builds on this.
pub(crate) fn table1_half<R: Rng>(rng: &mut R, upper: bool) -> ResVec {
    let mid = (NET_RANGE.0 + NET_RANGE.1) / 2.0;
    if upper {
        draw(rng, 2..4, mid..=NET_RANGE.1)
    } else {
        draw(rng, 0..2, NET_RANGE.0..=mid)
    }
}

/// The Table I draw: each discrete dimension picks one of `levels`, the
/// LAN bandwidth is uniform over `net`.
fn draw<R: Rng>(rng: &mut R, levels: Range<usize>, net: RangeInclusive<f64>) -> ResVec {
    let procs = PROCS[rng.random_range(levels.clone())];
    let rate = RATES[rng.random_range(levels.clone())];
    let io = IOS[rng.random_range(levels.clone())];
    let mem = MEMS[rng.random_range(levels.clone())];
    let disk = DISKS[rng.random_range(levels)];
    let net = rng.random_range(net);
    ResVec::from_slice(&[procs * rate, io, net, disk, mem])
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
        let cm = cmax();
        for _ in 0..500 {
            let c = table1_capacity(&mut rng);
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
        let caps: Vec<ResVec> = (0..2000).map(|_| table1_capacity(&mut rng)).collect();
        for io in IOS {
            assert!(caps.iter().any(|c| c[1] == io), "io level {io} missing");
        }
        for mem in MEMS {
            assert!(caps.iter().any(|c| c[4] == mem), "mem level {mem} missing");
        }
    }
}
