//! Property-based tests for `ResVec` algebra.
//!
//! These pin the componentwise-order semantics the whole protocol stack
//! relies on: Inequality (2) qualification, normalization into the CAN key
//! space, and best-fit slack ordering.

use proptest::prelude::*;
use soc_types::ResVec;

fn vec_strategy(dim: usize) -> impl Strategy<Value = ResVec> {
    prop::collection::vec(0.0f64..1e6, dim).prop_map(|v| ResVec::from_slice(&v))
}

fn pos_vec_strategy(dim: usize) -> impl Strategy<Value = ResVec> {
    prop::collection::vec(1e-6f64..1e6, dim).prop_map(|v| ResVec::from_slice(&v))
}

proptest! {
    #[test]
    fn dominance_is_reflexive(a in vec_strategy(5)) {
        prop_assert!(a.dominates(&a));
    }

    #[test]
    fn dominance_is_transitive(a in vec_strategy(5), b in vec_strategy(5), c in vec_strategy(5)) {
        let lo = a.min(&b).min(&c);
        let hi = a.max(&b).max(&c);
        let mid = a.max(&lo).min(&hi);
        prop_assert!(hi.dominates(&mid));
        prop_assert!(mid.dominates(&lo));
        prop_assert!(hi.dominates(&lo));
    }

    #[test]
    fn dominance_antisymmetric(a in vec_strategy(5), b in vec_strategy(5)) {
        if a.dominates(&b) && b.dominates(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn sum_of_parts_dominates_parts(a in vec_strategy(5), b in vec_strategy(5)) {
        let s = a + b;
        prop_assert!(s.dominates(&a));
        prop_assert!(s.dominates(&b));
    }

    #[test]
    fn sub_clamped_is_dominated_by_minuend(a in vec_strategy(5), b in vec_strategy(5)) {
        let d = a.sub_clamped(&b);
        prop_assert!(d.iter().all(|x| x >= 0.0));
        prop_assert!(a.dominates(&d));
    }

    #[test]
    fn normalize_lands_in_unit_box(a in vec_strategy(5), cmax in pos_vec_strategy(5)) {
        let n = a.normalize(&cmax);
        for v in n.iter() {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn normalize_preserves_dominance(a in vec_strategy(5), b in vec_strategy(5), cmax in pos_vec_strategy(5)) {
        let (lo, hi) = (a.min(&b), a.max(&b));
        prop_assert!(hi.normalize(&cmax).dominates(&lo.normalize(&cmax)));
    }

    #[test]
    fn min_max_bracket(a in vec_strategy(5), b in vec_strategy(5)) {
        let lo = a.min(&b);
        let hi = a.max(&b);
        prop_assert!(hi.dominates(&a));
        prop_assert!(hi.dominates(&b));
        prop_assert!(a.dominates(&lo));
        prop_assert!(b.dominates(&lo));
    }

    #[test]
    fn distances_are_metrics(a in vec_strategy(4), b in vec_strategy(4)) {
        prop_assert!(a.dist_l2(&b) >= 0.0);
        prop_assert!((a.dist_l2(&b) - b.dist_l2(&a)).abs() < 1e-9);
    }

    #[test]
    fn fit_slack_monotone_in_candidate(
        demand in vec_strategy(5),
        extra in vec_strategy(5),
        cmax in pos_vec_strategy(5),
    ) {
        // A candidate with strictly more headroom never has smaller slack.
        let tight = demand;
        let loose = demand + extra;
        prop_assert!(loose.fit_slack(&demand, &cmax) >= tight.fit_slack(&demand, &cmax) - 1e-9);
    }

    #[test]
    fn scale_then_unscale_roundtrips(a in vec_strategy(5), k in 1e-3f64..1e3) {
        let b = (a * k) / k;
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
        }
    }

    #[test]
    fn push_pop_roundtrip(a in vec_strategy(5), v in 0.0f64..1.0) {
        let b = a.push_dim(v);
        prop_assert_eq!(b[5], v);
        prop_assert_eq!(ResVec::from_slice(&b.as_slice()[..5]), a);
    }
}
