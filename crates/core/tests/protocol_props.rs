//! Property tests on PID-CAN's pure components: the SoS slack relation
//! (Formula (3)), ω message-count algebra, diffusion target orientation and
//! jump-list handling.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed a local RNG; no simulation stream is involved"
)]

use pidcan::diffusion::{binary_decomposition, theorem1_hops};
use pidcan::{DiffusionMethod, PiList, PidCanConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use soc_types::{NodeId, ResVec};

proptest! {
    #[test]
    fn omega_closed_form(l in 2usize..4, d in 1usize..6) {
        // ω = L(L^d − 1)/(L − 1) (§III-B1).
        let cfg = PidCanConfig { fanout_l: l, ..PidCanConfig::default() };
        let omega = cfg.omega(d);
        let closed = l * (l.pow(d as u32) - 1) / (l - 1);
        prop_assert_eq!(omega, closed);
    }

    #[test]
    fn theorem1_hops_subadditive(a in 1usize..2048, b in 1usize..2048) {
        // Covering a+b hops never needs more relays than covering each part.
        prop_assert!(theorem1_hops(a + b) <= theorem1_hops(a) + theorem1_hops(b));
    }

    #[test]
    fn binary_decomposition_is_strictly_decreasing(lambda in 1usize..65536) {
        let parts = binary_decomposition(lambda);
        for w in parts.windows(2) {
            prop_assert!(w[0] > w[1], "not strictly decreasing: {parts:?}");
        }
    }

    #[test]
    fn pilist_sample_is_subset_of_fresh(
        ids in prop::collection::vec(0u32..64, 0..32),
        k in 0usize..16,
        seed in 0u64..1000,
    ) {
        let mut p = PiList::new();
        for (t, id) in ids.iter().enumerate() {
            p.insert(NodeId(*id), t as u64 * 10);
        }
        let now = 10_000;
        let ttl = 600;
        let fresh = p.fresh(now, ttl);
        let mut rng = SmallRng::seed_from_u64(seed);
        let sample = p.sample(k, now, ttl, &mut rng);
        prop_assert!(sample.len() <= k);
        for s in &sample {
            prop_assert!(fresh.contains(s));
        }
        // No duplicates.
        let mut d = sample.clone();
        d.sort();
        d.dedup();
        prop_assert_eq!(d.len(), sample.len());
    }

    #[test]
    fn slack_relation_holds(
        demand in prop::collection::vec(0.1f64..10.0, 5),
        seed in 0u64..1000,
    ) {
        // Formula (3): e ⪯ e' ⪯ cmax. Exercised through the protocol's
        // public behavior: a slacked query's demand dominates the original
        // (checked here via the algebra the protocol uses).
        let e = ResVec::from_slice(&demand);
        let cmax = ResVec::from_slice(&[25.6, 80.0, 10.0, 240.0, 4096.0]).max(&e);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Reproduce the slack construction: e' = e + u·(cmax − e).
        let mut e2 = e;
        for d in 0..e2.dim() {
            use rand::RngExt;
            e2[d] += rng.random::<f64>() * (cmax[d] - e2[d]);
        }
        prop_assert!(e2.dominates(&e));
        prop_assert!(cmax.dominates(&e2));
        // Anything qualifying e' also qualifies e (the SoS soundness
        // property: slacked results remain valid for the original demand).
        let avail = e2; // the tightest qualifying availability
        prop_assert!(avail.dominates(&e));
    }

    #[test]
    fn labels_are_stable(sos in prop::bool::ANY, vd in prop::bool::ANY) {
        let cfg = PidCanConfig {
            diffusion: DiffusionMethod::Hopping,
            sos,
            virtual_dim: vd,
            ..PidCanConfig::default()
        };
        let label = cfg.label();
        prop_assert!(label.starts_with("HID") || label.starts_with("PID"));
        if sos && !vd {
            prop_assert!(label.ends_with("SoS"));
        }
    }

    #[test]
    fn cycle_scaling_is_monotone(f in 0.01f64..1.0) {
        let base = PidCanConfig::default();
        let scaled = base.scale_cycles(f);
        prop_assert!(scaled.state_update_ms <= base.state_update_ms);
        prop_assert!(scaled.diffusion_ms <= base.diffusion_ms);
        prop_assert!(scaled.record_ttl_ms <= base.record_ttl_ms);
        prop_assert!(scaled.pilist_ttl_ms <= base.pilist_ttl_ms);
        // Ratios are preserved (within rounding).
        let r0 = base.record_ttl_ms as f64 / base.state_update_ms as f64;
        let r1 = scaled.record_ttl_ms as f64 / scaled.state_update_ms as f64;
        prop_assert!((r0 - r1).abs() < 0.05 * r0);
    }
}
