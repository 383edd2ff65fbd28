//! Zones: axis-aligned boxes partitioning the CAN key space `[0,1]^d`.

use soc_types::ResVec;

/// A point in the CAN key space (components in `[0,1]`).
pub type Point = ResVec;

/// A half-open axis-aligned box `[lo, hi)` per dimension.
///
/// Splits always occur at midpoints ([`crate::ZoneRow::split`]), so all
/// boundaries are exact binary fractions and `f64` equality on them is
/// reliable. Zones whose upper bound is exactly `1.0` treat that face as
/// *closed* so the point `1.0` (a fully-idle node's normalized
/// availability) is owned by someone.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Zone {
    lo: ResVec,
    hi: ResVec,
}

impl Zone {
    /// The whole key space `[0,1]^d`.
    pub fn unit(dim: usize) -> Zone {
        Zone {
            lo: ResVec::zeros(dim),
            hi: ResVec::splat(dim, 1.0),
        }
    }

    /// Construct from bounds.
    ///
    /// # Panics
    /// Panics if `lo` does not strictly precede `hi` in every dimension.
    pub fn new(lo: ResVec, hi: ResVec) -> Zone {
        assert_eq!(lo.dim(), hi.dim());
        for i in 0..lo.dim() {
            assert!(lo[i] < hi[i], "degenerate zone in dim {i}: {lo:?}..{hi:?}");
        }
        Zone { lo, hi }
    }

    /// [`Zone::new`] without the checks, for corners known to be ordered
    /// (a decoded [`crate::ZoneRow`]).
    #[inline]
    pub(crate) fn from_corners(lo: ResVec, hi: ResVec) -> Zone {
        Zone { lo, hi }
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &ResVec {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &ResVec {
        &self.hi
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.dim()
    }

    /// Geometric center.
    pub fn center(&self) -> Point {
        (self.lo + self.hi) * 0.5
    }

    /// Extent along `dim`.
    #[inline]
    pub fn width(&self, dim: usize) -> f64 {
        self.hi[dim] - self.lo[dim]
    }

    /// Volume (product of widths).
    pub fn volume(&self) -> f64 {
        (0..self.dim()).map(|d| self.width(d)).product()
    }

    /// Does the zone contain `p`? Half-open except on the top face of the
    /// key space (where `hi == 1.0` is inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        contains(self.dim(), p, |d| (self.lo[d], self.hi[d]))
    }

    /// Does the *open interior* of `self` intersect the box `[lo, hi]`?
    ///
    /// Used by INSCAN-RQ to enumerate the "shaded zones" (Fig. 1) a range
    /// query must check.
    pub fn overlaps_box(&self, lo: &Point, hi: &Point) -> bool {
        debug_assert_eq!(self.dim(), lo.dim());
        (0..self.dim()).all(|d| self.lo[d] < hi[d] && self.hi[d] > lo[d])
    }

    /// Do the projections of `self` and `other` onto `dim` overlap with
    /// positive measure?
    #[inline]
    pub fn ranges_overlap(&self, other: &Zone, dim: usize) -> bool {
        self.lo[dim] < other.hi[dim] && self.hi[dim] > other.lo[dim]
    }

    /// What one routing step toward `p` must strictly decrease:
    /// `(`[`Zone::dist_to_point`]`, open faces)`, compared lexicographically,
    /// where an *open face* is a dimension in which `p` lies exactly on the
    /// zone's excluded upper bound (`p[d] == hi[d] != 1.0`).
    ///
    /// Distance alone cannot order zones around a target that sits on a
    /// split plane — and Table I capacities normalize to binary fractions,
    /// so availability points do: every zone touching the plane is at
    /// distance 0, yet half-open ownership gives the point to exactly one
    /// of them. The face count breaks that tie consistently with
    /// [`Zone::contains`]: the key is `(0.0, 0)` exactly for the owner, and
    /// any other zone has a face neighbor with a strictly smaller key
    /// (distance > 0: across the face nearest `p`; distance 0 with `k` open
    /// faces: across one of them, at most `k − 1` remain), so minimizing it
    /// over neighbors reaches the owner of every target.
    pub fn route_key(&self, p: &Point) -> (f64, u32) {
        route_key(self.dim(), p, |d| (self.lo[d], self.hi[d]))
    }

    /// Minimum Euclidean distance from the zone (as a closed box) to `p`;
    /// zero when `p` is inside or on the boundary — including a boundary
    /// the half-open zone does not own, which is why routing compares
    /// [`Zone::route_key`] rather than this alone.
    pub fn dist_to_point(&self, p: &Point) -> f64 {
        dist_to_point(self.dim(), p, |d| (self.lo[d], self.hi[d]))
    }
}

// The point tests of a `dim`-dimensional box whose bounds along `d` are
// `bounds(d) = (lo, hi)`. A `Zone` reads its bounds from its corners and a
// `ZoneRow` decodes them from its integers; both answer through these
// bodies, so a row and its decoded zone agree bit for bit.

/// [`Zone::contains`].
#[inline]
pub(crate) fn contains(dim: usize, p: &Point, bounds: impl Fn(usize) -> (f64, f64)) -> bool {
    debug_assert_eq!(dim, p.dim());
    (0..dim).all(|d| {
        let (lo, hi) = bounds(d);
        let inside_hi = if hi == 1.0 { p[d] <= 1.0 } else { p[d] < hi };
        p[d] >= lo && inside_hi
    })
}

/// [`Zone::route_key`].
#[inline]
pub(crate) fn route_key(
    dim: usize,
    p: &Point,
    bounds: impl Fn(usize) -> (f64, f64) + Copy,
) -> (f64, u32) {
    let open = (0..dim)
        .filter(|&d| {
            let hi = bounds(d).1;
            p[d] == hi && hi != 1.0
        })
        .count();
    (dist_to_point(dim, p, bounds), open as u32)
}

/// [`Zone::dist_to_point`].
#[inline]
pub(crate) fn dist_to_point(dim: usize, p: &Point, bounds: impl Fn(usize) -> (f64, f64)) -> f64 {
    let mut acc = 0.0;
    for d in 0..dim {
        let (lo, hi) = bounds(d);
        let gap = if p[d] < lo {
            lo - p[d]
        } else if p[d] > hi {
            p[d] - hi
        } else {
            0.0
        };
        acc += gap * gap;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZoneRow;

    fn pt(s: &[f64]) -> Point {
        ResVec::from_slice(s)
    }

    /// The halves of `z` split at the midpoint of `d`.
    fn halves(z: &Zone, d: usize) -> (Zone, Zone) {
        let (a, b) = ZoneRow::pack(z).split(d);
        (a.zone(), b.zone())
    }

    #[test]
    fn unit_zone_contains_everything() {
        let z = Zone::unit(2);
        assert!(z.contains(&pt(&[0.0, 0.0])));
        assert!(z.contains(&pt(&[0.5, 0.999])));
        assert!(z.contains(&pt(&[1.0, 1.0]))); // top face inclusive
        assert_eq!(z.volume(), 1.0);
        assert_eq!(z.center(), pt(&[0.5, 0.5]));
    }

    #[test]
    fn split_partitions_exactly() {
        let z = Zone::unit(2);
        let (a, b) = halves(&z, 0);
        assert_eq!(a.hi()[0], 0.5);
        assert_eq!(b.lo()[0], 0.5);
        assert!(a.contains(&pt(&[0.49, 0.5])));
        assert!(!a.contains(&pt(&[0.5, 0.5]))); // half-open interior boundary
        assert!(b.contains(&pt(&[0.5, 0.5])));
        assert!((a.volume() + b.volume() - z.volume()).abs() < 1e-12);
    }

    #[test]
    fn merge_is_inverse_of_split() {
        let z = ZoneRow::pack(&Zone::new(pt(&[0.25, 0.5]), pt(&[0.5, 1.0])));
        for d in 0..2 {
            let (a, b) = z.split(d);
            assert_eq!(a.merge(&b), Some(z));
            assert_eq!(b.merge(&a), Some(z));
        }
    }

    #[test]
    fn merge_rejects_incompatible_boxes() {
        let (a, b) = ZoneRow::unit(2).split(0);
        let (a1, _a2) = a.split(1);
        assert_eq!(a1.merge(&b), None); // differ in two dims
                                        // Abutting boxes with identical cross-sections whose union is a
                                        // box but not a zone of the tree (0 .. 0.75) do not merge.
        let (b1, _b2) = b.split(0);
        assert_eq!(a.merge(&b1), None);
        // Equal abutting halves of two different splits do not either.
        let (_, a_hi) = a.split(0);
        assert_eq!(a_hi.merge(&b1), None);
        // Mismatched cross-sections never merge.
        let (short, _) = b.split(1); // right half, lower y only
        assert_eq!(a.merge(&short), None);
    }

    #[test]
    fn overlaps_box_matches_fig1_intuition() {
        // Query box = positive orthant from v; zones crossing it overlap.
        let (left, right) = halves(&Zone::unit(2), 0);
        let v = pt(&[0.6, 0.3]);
        let one = pt(&[1.0, 1.0]);
        assert!(!left.overlaps_box(&v, &one));
        assert!(right.overlaps_box(&v, &one));
    }

    #[test]
    fn dist_to_point_zero_inside() {
        let z = Zone::new(pt(&[0.0, 0.0]), pt(&[0.5, 0.5]));
        assert_eq!(z.dist_to_point(&pt(&[0.25, 0.25])), 0.0);
        assert!((z.dist_to_point(&pt(&[1.0, 0.25])) - 0.5).abs() < 1e-12);
        let corner = z.dist_to_point(&pt(&[1.0, 1.0]));
        assert!((corner - (0.5f64.powi(2) * 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn route_key_is_minimal_exactly_for_the_owner() {
        // A 4 × 4 grid of quarter-width zones, probed on the eighths
        // lattice: every second probe coordinate is a split plane, and 0.0
        // and 1.0 are the faces of the key space.
        let zones: Vec<Zone> = (0..16)
            .map(|i| {
                let (x, y) = ((i % 4) as f64 * 0.25, (i / 4) as f64 * 0.25);
                Zone::new(pt(&[x, y]), pt(&[x + 0.25, y + 0.25]))
            })
            .collect();
        for i in 0..=8 {
            for j in 0..=8 {
                let p = pt(&[i as f64 / 8.0, j as f64 / 8.0]);
                let mut owners = 0;
                for z in &zones {
                    assert_eq!(z.route_key(&p) == (0.0, 0), z.contains(&p), "{z:?} {p:?}");
                    owners += usize::from(z.contains(&p));
                }
                assert_eq!(owners, 1, "{p:?}");
            }
        }
        // On a shared plane both sides are at distance 0; only the side
        // that does not own the point has an open face.
        let (left, right) = halves(&Zone::unit(2), 0);
        let on_plane = pt(&[0.5, 0.3]);
        assert_eq!(left.route_key(&on_plane), (0.0, 1));
        assert_eq!(right.route_key(&on_plane), (0.0, 0));
        // The top face of the key space is closed, so it is never open.
        assert_eq!(right.route_key(&pt(&[1.0, 1.0])), (0.0, 0));
        assert_eq!(left.route_key(&pt(&[1.0, 1.0])), (0.5, 0));
    }

    #[test]
    fn ranges_overlap_is_symmetric() {
        let (a, b) = halves(&Zone::unit(2), 0);
        assert!(!a.ranges_overlap(&b, 0));
        assert!(!b.ranges_overlap(&a, 0));
        assert!(a.ranges_overlap(&b, 1));
    }

    #[test]
    #[should_panic]
    fn degenerate_zone_rejected() {
        let _ = Zone::new(pt(&[0.5, 0.0]), pt(&[0.5, 1.0]));
    }
}
