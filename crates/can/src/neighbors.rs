//! Zone adjacency and the paper's positive/negative orientation.
//!
//! §III-A defines the vocabulary this module implements:
//!
//! * Two nodes are **adjacent neighbors** when exactly one dimension has
//!   non-overlapping (abutting) ranges and all other dimensions overlap.
//! * Along that dimension, the node on the *greater* side is the
//!   **positive neighbor** of the other; the lower one is the **negative
//!   neighbor** (Fig. 1: node 22 is node 12's negative neighbor).
//! * Zone A is a **negative-direction node** of B when, in every dimension,
//!   A's range either overlaps B's or lies entirely below it (Fig. 1:
//!   node 22 is node 13's negative-direction node).

use crate::zone::Zone;

/// Result of an adjacency test between two zones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Adjacency {
    /// The single dimension along which the zones abut.
    pub dim: usize,
    /// `true` when the *first* zone is on the greater side (i.e. the first
    /// zone is the second's positive neighbor).
    pub first_is_positive: bool,
}

/// Test whether `a` and `b` are adjacent neighbors; if so, report the
/// abutting dimension and orientation.
///
/// Zone boundaries are exact binary fractions, so `==` on bounds is sound.
pub fn adjacency(a: &Zone, b: &Zone) -> Option<Adjacency> {
    debug_assert_eq!(a.dim(), b.dim());
    let mut abutting: Option<Adjacency> = None;
    for d in 0..a.dim() {
        if a.ranges_overlap(b, d) {
            continue;
        }
        // Non-overlapping dimension: must abut exactly, and be unique.
        if abutting.is_some() {
            return None; // two separated dimensions → diagonal, not adjacent
        }
        if a.lo()[d] == b.hi()[d] {
            abutting = Some(Adjacency {
                dim: d,
                first_is_positive: true,
            });
        } else if a.hi()[d] == b.lo()[d] {
            abutting = Some(Adjacency {
                dim: d,
                first_is_positive: false,
            });
        } else {
            return None; // separated with a gap
        }
    }
    abutting
}

/// Is `a` a negative-direction node of `b`? (Every dimension of `a`'s zone
/// overlaps `b`'s or lies entirely below it.)
pub fn is_negative_direction(a: &Zone, b: &Zone) -> bool {
    debug_assert_eq!(a.dim(), b.dim());
    (0..a.dim()).all(|d| a.ranges_overlap(b, d) || a.hi()[d] <= b.lo()[d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_types::ResVec;

    fn z(lo: &[f64], hi: &[f64]) -> Zone {
        Zone::new(ResVec::from_slice(lo), ResVec::from_slice(hi))
    }

    #[test]
    fn halves_are_adjacent() {
        let (a, b) = (z(&[0.0, 0.0], &[0.5, 1.0]), z(&[0.5, 0.0], &[1.0, 1.0]));
        let adj = adjacency(&a, &b).unwrap();
        assert_eq!(adj.dim, 0);
        assert!(!adj.first_is_positive); // a is the lower half
        let adj = adjacency(&b, &a).unwrap();
        assert!(adj.first_is_positive);
    }

    #[test]
    fn diagonal_zones_are_not_adjacent() {
        let a = z(&[0.0, 0.0], &[0.5, 0.5]);
        let b = z(&[0.5, 0.5], &[1.0, 1.0]);
        assert_eq!(adjacency(&a, &b), None); // corner touch only
    }

    #[test]
    fn gap_means_not_adjacent() {
        let a = z(&[0.0, 0.0], &[0.25, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert_eq!(adjacency(&a, &b), None);
    }

    #[test]
    fn same_zone_not_adjacent() {
        let a = z(&[0.0, 0.0], &[0.5, 1.0]);
        assert_eq!(adjacency(&a, &a), None); // all dims overlap
    }

    #[test]
    fn partial_overlap_counts_as_adjacent() {
        // b sits to the right of a but covers only part of a's y-range.
        let a = z(&[0.0, 0.0], &[0.5, 1.0]);
        let b = z(&[0.5, 0.25], &[1.0, 0.5]);
        let adj = adjacency(&a, &b).unwrap();
        assert_eq!(adj.dim, 0);
        assert!(!adj.first_is_positive);
    }

    #[test]
    fn orientation_is_antisymmetric() {
        let a = z(&[0.0, 0.0], &[0.5, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        let ab = adjacency(&a, &b).unwrap();
        let ba = adjacency(&b, &a).unwrap();
        assert_ne!(ab.first_is_positive, ba.first_is_positive);
        assert_eq!(ab.dim, ba.dim);
    }

    #[test]
    fn negative_direction_examples_from_fig1() {
        // Low-corner zone is negative-direction of the high-corner zone.
        let low = z(&[0.0, 0.0], &[0.25, 0.25]);
        let high = z(&[0.75, 0.75], &[1.0, 1.0]);
        assert!(is_negative_direction(&low, &high));
        assert!(!is_negative_direction(&high, &low));
        // A zone overlapping in all dims is negative-direction both ways.
        let mid = z(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(is_negative_direction(&mid, &mid));
    }

    #[test]
    fn negative_direction_requires_every_dim() {
        // Above in y, below in x: neither direction dominates.
        let a = z(&[0.0, 0.75], &[0.25, 1.0]);
        let b = z(&[0.75, 0.0], &[1.0, 0.25]);
        assert!(!is_negative_direction(&a, &b));
        assert!(!is_negative_direction(&b, &a));
    }

    #[test]
    fn adjacent_negative_neighbor_is_negative_direction() {
        // An abutting lower neighbor is also a negative-direction node.
        let (lo, hi) = (z(&[0.0, 0.0], &[0.5, 1.0]), z(&[0.5, 0.0], &[1.0, 1.0]));
        assert!(is_negative_direction(&lo, &hi));
        assert!(!is_negative_direction(&hi, &lo));
    }
}
