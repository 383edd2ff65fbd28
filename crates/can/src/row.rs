//! Zone rows: the partition tree's packed zone table.
//!
//! Splits are at midpoints, so after at most 32 halvings along each
//! dimension every bound of a zone is `a · 2^-32` for an integer `a`, and
//! a zone's width along a dimension is `2^-level` for its split level
//! there. A [`ZoneRow`] stores exactly that: the lower corner in units of
//! 2^-32 and one level per dimension, 32 bytes in all, half a cache line.
//! Every bound decodes to the `f64` the midpoint split computes, so a row
//! and its [`Zone`] are the same box. Neighbour maintenance on join and
//! leave tests adjacency on rows, in integers, and a routed hop tests its
//! target point against rows ([`ZoneRow::contains`],
//! [`ZoneRow::route_key`], [`ZoneRow::dist_to_point`]) through the same
//! code [`Zone`] uses, so neither builds a `Zone` on the event path.

use crate::neighbors::Adjacency;
use crate::zone::{self, Point, Zone};
use soc_types::{ResVec, MAX_DIM};
use std::num::NonZeroU8;

/// The finest split level: a zone is at least 2^-32 wide.
const MAX_LEVEL: u8 = 32;

/// The key space's side, `1.0`, in row units.
const SIDE: u64 = 1 << MAX_LEVEL;

/// One zone of the partition tree, packed.
///
/// `None` fits in `dim`'s niche, so an `Option<ZoneRow>` is 32 bytes too,
/// and a table of them puts two zones on a cache line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(align(32))]
pub struct ZoneRow {
    /// Lower corner, in units of 2^-32 (slots past `dim` stay 0).
    lo: [u32; MAX_DIM],
    /// Split level per dimension: the zone is `2^-level` wide there.
    level: [u8; MAX_DIM],
    dim: NonZeroU8,
}

const _: () = assert!(std::mem::size_of::<ZoneRow>() == 32);
const _: () = assert!(std::mem::size_of::<Option<ZoneRow>>() == 32);

/// Row units to the key-space coordinate: exact, `a ≤ 2^32 < 2^53`.
/// Converted through `i64`, which x86-64 does in one instruction (a
/// `u64` takes a branchy sequence), and the same value for `a < 2^63`.
#[inline]
fn coord(a: u64) -> f64 {
    a as i64 as f64 / SIDE as f64
}

impl ZoneRow {
    /// The whole key space `[0,1]^dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `dim > MAX_DIM`.
    pub fn unit(dim: usize) -> ZoneRow {
        assert!((1..=MAX_DIM).contains(&dim), "dim {dim} out of range");
        ZoneRow {
            lo: [0; MAX_DIM],
            level: [0; MAX_DIM],
            dim: NonZeroU8::new(dim as u8).expect("dim ≥ 1"),
        }
    }

    /// The row of `z`.
    ///
    /// # Panics
    /// Panics unless every bound of `z` is `a · 2^-32` and every width
    /// `2^-level` with `level ≤ 32` — true of every zone that midpoint
    /// splits ([`ZoneRow::split`]) cut from the unit zone.
    pub fn pack(z: &Zone) -> ZoneRow {
        let mut row = ZoneRow::unit(z.dim());
        for d in 0..z.dim() {
            let lo = z.lo()[d] * SIDE as f64;
            let levels = -z.width(d).log2();
            if (0.0..SIDE as f64).contains(&lo) && (0.0..=32.0).contains(&levels) {
                row.lo[d] = lo as u32;
                row.level[d] = levels as u8;
            }
        }
        assert_eq!(row.zone(), *z, "{z:?} has no exact row");
        row
    }

    /// The zone this row stores.
    #[inline]
    pub fn zone(&self) -> Zone {
        let (mut lo, mut hi) = (ResVec::zeros(self.dim()), ResVec::zeros(self.dim()));
        for d in 0..self.dim() {
            (lo[d], hi[d]) = self.bounds(d);
        }
        Zone::from_corners(lo, hi)
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        usize::from(self.dim.get())
    }

    /// `[lo, hi)` along `d`, in row units (`hi ≤ 2^32`).
    #[inline]
    fn span(&self, d: usize) -> (u64, u64) {
        let lo = u64::from(self.lo[d]);
        (lo, lo + (SIDE >> self.level[d]))
    }

    /// `(lower, upper)` bound along `d`.
    #[inline]
    pub fn bounds(&self, d: usize) -> (f64, f64) {
        let (lo, hi) = self.span(d);
        (coord(lo), coord(hi))
    }

    /// [`Zone::contains`] on the row: half-open, except on the top face
    /// of the key space.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        zone::contains(self.dim(), p, |d| self.bounds(d))
    }

    /// [`Zone::route_key`] on the row.
    #[inline]
    pub fn route_key(&self, p: &Point) -> (f64, u32) {
        zone::route_key(self.dim(), p, |d| self.bounds(d))
    }

    /// [`Zone::dist_to_point`] on the row.
    #[inline]
    pub fn dist_to_point(&self, p: &Point) -> f64 {
        zone::dist_to_point(self.dim(), p, |d| self.bounds(d))
    }

    /// Split at the midpoint of `d`, returning `(lower, upper)`.
    ///
    /// # Panics
    /// Panics if the zone is 2^-32 wide along `d` already.
    pub fn split(&self, d: usize) -> (ZoneRow, ZoneRow) {
        let level = self.level[d];
        assert!(level < MAX_LEVEL, "zone too thin to split along dim {d}");
        let mut lower = *self;
        lower.level[d] = level + 1;
        let mut upper = lower;
        upper.lo[d] += 1 << (MAX_LEVEL - 1 - level);
        (lower, upper)
    }

    /// Merge the two halves of one [`ZoneRow::split`], in either order;
    /// `None` for any other pair.
    pub fn merge(&self, other: &ZoneRow) -> Option<ZoneRow> {
        if self.dim != other.dim {
            return None;
        }
        let mut diff = None;
        for d in 0..self.dim() {
            if self.lo[d] == other.lo[d] && self.level[d] == other.level[d] {
                continue;
            }
            if diff.is_some() {
                return None;
            }
            diff = Some(d);
        }
        let d = diff?;
        let (lower, upper) = if self.lo[d] < other.lo[d] {
            (self, other)
        } else {
            (other, self)
        };
        let level = lower.level[d];
        // Equal halves that abut, the lower one at a multiple of the
        // merged width.
        let whole = (SIDE << 1) >> level;
        let aligned = u64::from(lower.lo[d]) % whole == 0;
        if level == 0 || upper.level[d] != level || !aligned {
            return None;
        }
        if lower.span(d).1 != u64::from(upper.lo[d]) {
            return None;
        }
        let mut merged = *lower;
        merged.level[d] = level - 1;
        Some(merged)
    }

    /// [`crate::adjacency`] on rows, in integers: the same answer for the
    /// same zones, since decoding is exact and order-preserving.
    #[inline]
    pub fn adjacency(&self, other: &ZoneRow) -> Option<Adjacency> {
        debug_assert_eq!(self.dim, other.dim);
        let mut abutting = None;
        for d in 0..self.dim() {
            let (a_lo, a_hi) = self.span(d);
            let (b_lo, b_hi) = other.span(d);
            if a_lo < b_hi && a_hi > b_lo {
                continue;
            }
            if abutting.is_some() {
                return None;
            }
            let first_is_positive = if a_lo == b_hi {
                true
            } else if a_hi == b_lo {
                false
            } else {
                return None;
            };
            abutting = Some(Adjacency {
                dim: d,
                first_is_positive,
            });
        }
        abutting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency;

    fn zone(lo: &[f64], hi: &[f64]) -> Zone {
        Zone::new(ResVec::from_slice(lo), ResVec::from_slice(hi))
    }

    #[test]
    fn halves_decode_to_midpoint_splits() {
        let unit = ZoneRow::unit(3);
        assert_eq!(unit.zone(), Zone::unit(3));
        let (lo, hi) = unit.split(1);
        assert_eq!(lo.zone(), zone(&[0.0; 3], &[1.0, 0.5, 1.0]));
        assert_eq!(hi.zone(), zone(&[0.0, 0.5, 0.0], &[1.0; 3]));
        let (a, b) = hi.split(1);
        let (za, zb) = (a.zone(), b.zone());
        assert_eq!(zb, zone(&[0.0, 0.75, 0.0], &[1.0; 3]));
        assert_eq!(ZoneRow::pack(&zb), b);
        assert_eq!(adjacency(&za, &zb), a.adjacency(&b));
        assert_eq!(adjacency(&za, &lo.zone()), a.adjacency(&lo));
        assert_eq!(adjacency(&zb, &lo.zone()), b.adjacency(&lo));
    }

    #[test]
    fn point_tests_match_the_zone_on_planes_and_faces() {
        let (lo, hi) = ZoneRow::unit(2).split(0);
        let (lo, hi) = (lo.split(1).1, hi.split(1).0);
        for p in [
            [0.5, 0.3],
            [0.0, 0.0],
            [1.0, 1.0],
            [0.25, 1.0],
            [0.75, 0.5],
            [0.6, 0.1],
        ] {
            let p = ResVec::from_slice(&p);
            for row in [lo, hi] {
                let z = row.zone();
                assert_eq!(row.contains(&p), z.contains(&p), "{p:?}");
                assert_eq!(row.route_key(&p), z.route_key(&p), "{p:?}");
                assert_eq!(row.dist_to_point(&p), z.dist_to_point(&p), "{p:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "has no exact row")]
    fn a_zone_off_the_grid_does_not_pack() {
        let third = ResVec::from_slice(&[1.0 / 3.0]);
        ZoneRow::pack(&Zone::new(ResVec::zeros(1), third));
    }

    #[test]
    #[should_panic(expected = "zone too thin to split along dim 0")]
    fn the_33rd_halving_is_a_named_panic() {
        let mut row = ZoneRow::unit(1);
        for _ in 0..=MAX_LEVEL {
            row = row.split(0).0;
        }
    }
}
