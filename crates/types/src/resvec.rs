//! [`ResVec`]: an inline multi-dimensional resource vector.
//!
//! The paper manipulates vectors of `d` resource quantities everywhere:
//! capacities `c_i`, loads `l_i`, availabilities `a_i = c_i - l_i`,
//! expectation vectors `e(t_ij)` and the allocation of Equation (1)
//! `r(t_ij) = e(t_ij)/l_i · c_i` (all componentwise). `ResVec` stores up to
//! [`MAX_DIM`] `f64` components inline — no heap allocation on the
//! simulator's hot paths.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Sub, SubAssign};

/// Maximum supported dimensionality.
///
/// The paper's SOC uses 5 dimensions; the VD variant (§IV-A, SID-CAN+VD)
/// adds a sixth *virtual* dimension, and illustrations use 2. Six is the
/// widest vector the paper has, and keeps the struct at 56 bytes: every
/// state record, cached zone corner and running task carries one.
pub const MAX_DIM: usize = 6;

// Five Table I dimensions plus VD's virtual one, and not a slot more.
const _: () = assert!(MAX_DIM == crate::units::SOC_DIMS + 1);
const _: () = assert!(std::mem::size_of::<ResVec>() == 56);

/// A `d`-dimensional resource vector with `d <= MAX_DIM`.
///
/// Componentwise comparison follows the paper's `⪰` notation:
/// [`ResVec::dominates`] is Inequality (2)'s `a_r ⪰ e(τ)`.
#[derive(Clone, Copy, PartialEq)]
pub struct ResVec {
    vals: [f64; MAX_DIM],
    dim: u8,
}

impl ResVec {
    /// The all-zero vector of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `dim > MAX_DIM`.
    #[inline]
    pub fn zeros(dim: usize) -> Self {
        assert!((1..=MAX_DIM).contains(&dim), "dim {dim} out of range");
        ResVec {
            vals: [0.0; MAX_DIM],
            dim: dim as u8,
        }
    }

    /// A vector of dimension `dim` with every component equal to `v`.
    #[inline]
    pub fn splat(dim: usize, v: f64) -> Self {
        let mut r = Self::zeros(dim);
        for i in 0..dim {
            r.vals[i] = v;
        }
        r
    }

    /// Build from a slice (`slice.len()` becomes the dimension).
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        let mut r = Self::zeros(s.len());
        r.vals[..s.len()].copy_from_slice(s);
        r
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The components as a slice of length [`Self::dim`].
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..self.dim as usize]
    }

    /// Iterate over components by value.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.as_slice().iter().copied()
    }

    /// `self ⪰ other`: every component of `self` is `>= ` the matching
    /// component of `other` (the paper's componentwise inequality, used for
    /// resource qualification — Inequality (2)).
    ///
    /// # Panics
    /// Panics in debug builds if the dimensions differ.
    #[inline]
    pub fn dominates(&self, other: &ResVec) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a >= b)
    }

    /// All components strictly positive.
    #[inline]
    pub fn all_positive(&self) -> bool {
        self.iter().all(|v| v > 0.0)
    }

    /// Componentwise minimum.
    #[inline]
    pub fn min(&self, other: &ResVec) -> ResVec {
        debug_assert_eq!(self.dim, other.dim);
        let mut r = *self;
        for i in 0..self.dim() {
            r.vals[i] = r.vals[i].min(other.vals[i]);
        }
        r
    }

    /// Componentwise maximum.
    #[inline]
    pub fn max(&self, other: &ResVec) -> ResVec {
        debug_assert_eq!(self.dim, other.dim);
        let mut r = *self;
        for i in 0..self.dim() {
            r.vals[i] = r.vals[i].max(other.vals[i]);
        }
        r
    }

    /// Componentwise division. Components where `other` is zero yield zero
    /// when `self` is zero too, `+inf` otherwise (callers on the allocation
    /// path guarantee positive denominators).
    #[inline]
    pub fn div_elem(&self, other: &ResVec) -> ResVec {
        debug_assert_eq!(self.dim, other.dim);
        let mut r = *self;
        for i in 0..self.dim() {
            r.vals[i] = if other.vals[i] == 0.0 && r.vals[i] == 0.0 {
                0.0
            } else {
                r.vals[i] / other.vals[i]
            };
        }
        r
    }

    /// Componentwise `max(self - other, 0)`: subtraction that never goes
    /// negative, used for availability under transient over-commitment.
    #[inline]
    pub fn sub_clamped(&self, other: &ResVec) -> ResVec {
        debug_assert_eq!(self.dim, other.dim);
        let mut r = *self;
        for i in 0..self.dim() {
            r.vals[i] = (r.vals[i] - other.vals[i]).max(0.0);
        }
        r
    }

    /// Normalize into `[0,1]^d` coordinates by dividing componentwise by
    /// `cmax` and clamping. This is how availability/expectation vectors map
    /// onto the CAN key space.
    #[inline]
    pub fn normalize(&self, cmax: &ResVec) -> ResVec {
        debug_assert_eq!(self.dim, cmax.dim);
        let mut r = *self;
        for i in 0..self.dim() {
            let denom = cmax.vals[i];
            r.vals[i] = if denom > 0.0 {
                (r.vals[i] / denom).clamp(0.0, 1.0)
            } else {
                0.0
            };
        }
        r
    }

    /// Sum of components.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.iter().sum()
    }

    /// Euclidean (L2) distance.
    #[inline]
    pub fn dist_l2(&self, other: &ResVec) -> f64 {
        debug_assert_eq!(self.dim, other.dim);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Best-fit *slack* of a candidate availability `self` against demand
    /// `v`, normalized by `cmax`: `Σ_k (self_k - v_k)/cmax_k`.
    ///
    /// Smaller slack means a tighter fit; the requester picks the record with
    /// minimum slack among the returned `FoundList` so large nodes stay free
    /// for large tasks (the paper's "best-fit" objective).
    #[inline]
    pub fn fit_slack(&self, v: &ResVec, cmax: &ResVec) -> f64 {
        debug_assert_eq!(self.dim, v.dim);
        let mut s = 0.0;
        for i in 0..self.dim() {
            let denom = cmax.vals[i].max(f64::MIN_POSITIVE);
            s += (self.vals[i] - v.vals[i]) / denom;
        }
        s
    }

    /// Extend with one extra trailing component (used by the VD variant to
    /// append the virtual dimension).
    ///
    /// # Panics
    /// Panics if the vector is already at [`MAX_DIM`].
    #[inline]
    pub fn push_dim(&self, v: f64) -> ResVec {
        assert!(self.dim() < MAX_DIM, "cannot exceed MAX_DIM");
        let mut r = *self;
        r.vals[self.dim()] = v;
        r.dim += 1;
        r
    }
}

impl Index<usize> for ResVec {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for ResVec {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.vals[..self.dim as usize][i]
    }
}

impl Add for ResVec {
    type Output = ResVec;
    #[inline]
    fn add(self, rhs: ResVec) -> ResVec {
        debug_assert_eq!(self.dim, rhs.dim);
        let mut r = self;
        for i in 0..r.dim() {
            r.vals[i] += rhs.vals[i];
        }
        r
    }
}

impl AddAssign for ResVec {
    #[inline]
    fn add_assign(&mut self, rhs: ResVec) {
        *self = *self + rhs;
    }
}

impl Sub for ResVec {
    type Output = ResVec;
    #[inline]
    fn sub(self, rhs: ResVec) -> ResVec {
        debug_assert_eq!(self.dim, rhs.dim);
        let mut r = self;
        for i in 0..r.dim() {
            r.vals[i] -= rhs.vals[i];
        }
        r
    }
}

impl SubAssign for ResVec {
    #[inline]
    fn sub_assign(&mut self, rhs: ResVec) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for ResVec {
    type Output = ResVec;
    #[inline]
    fn mul(self, k: f64) -> ResVec {
        let mut r = self;
        for i in 0..r.dim() {
            r.vals[i] *= k;
        }
        r
    }
}

impl Div<f64> for ResVec {
    type Output = ResVec;
    #[inline]
    fn div(self, k: f64) -> ResVec {
        let mut r = self;
        for i in 0..r.dim() {
            r.vals[i] /= k;
        }
        r
    }
}

impl fmt::Debug for ResVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.3}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for ResVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[f64]) -> ResVec {
        ResVec::from_slice(s)
    }

    #[test]
    fn construction_and_access() {
        let a = v(&[1.0, 2.0, 3.0]);
        assert_eq!(a.dim(), 3);
        assert_eq!(a[0], 1.0);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        let z = ResVec::zeros(5);
        assert_eq!(z.sum(), 0.0);
        let s = ResVec::splat(4, 2.5);
        assert_eq!(s.sum(), 10.0);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = ResVec::zeros(0);
    }

    #[test]
    #[should_panic]
    fn oversized_dim_rejected() {
        let _ = ResVec::zeros(MAX_DIM + 1);
    }

    #[test]
    fn dominance_matches_paper_inequality_2() {
        // a_r ⪰ e(τ) iff every component suffices.
        let avail = v(&[4.0, 100.0, 2.0]);
        let demand = v(&[4.0, 99.0, 2.0]);
        assert!(avail.dominates(&demand));
        let too_big = v(&[4.1, 99.0, 2.0]);
        assert!(!avail.dominates(&too_big));
        // Dominance is reflexive and antisymmetric (up to equality).
        assert!(avail.dominates(&avail));
    }

    #[test]
    fn arithmetic() {
        let a = v(&[1.0, 2.0]);
        let b = v(&[0.5, 5.0]);
        assert_eq!((a + b).as_slice(), &[1.5, 7.0]);
        assert_eq!((a - b).as_slice(), &[0.5, -3.0]);
        assert_eq!((a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((a / 2.0).as_slice(), &[0.5, 1.0]);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn sub_clamped_never_negative() {
        let a = v(&[1.0, 2.0, 3.0]);
        let b = v(&[2.0, 1.0, 3.0]);
        let d = a.sub_clamped(&b);
        assert_eq!(d.as_slice(), &[0.0, 1.0, 0.0]);
        assert!(d.iter().all(|x| x >= 0.0));
    }

    #[test]
    fn mul_div_elem() {
        let a = v(&[2.0, 3.0]);
        let b = v(&[4.0, 6.0]);
        assert_eq!(b.div_elem(&a).as_slice(), &[2.0, 2.0]);
        // 0/0 convention.
        let z = ResVec::zeros(2);
        assert_eq!(z.div_elem(&z).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn normalize_maps_into_unit_box() {
        let cmax = v(&[25.6, 80.0, 10.0, 240.0, 4096.0]);
        let a = v(&[12.8, 40.0, 20.0, 0.0, 4096.0]);
        let n = a.normalize(&cmax);
        assert!((n[0] - 0.5).abs() < 1e-12);
        assert!((n[1] - 0.5).abs() < 1e-12);
        assert_eq!(n[2], 1.0); // clamped: 20 > 10
        assert_eq!(n[3], 0.0);
        assert_eq!(n[4], 1.0);
    }

    #[test]
    fn distances() {
        let a = v(&[0.0, 0.0]);
        let b = v(&[3.0, 4.0]);
        assert!((a.dist_l2(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.dist_l2(&a), 0.0);
    }

    #[test]
    fn fit_slack_prefers_tight_candidates() {
        let cmax = v(&[10.0, 10.0]);
        let demand = v(&[4.0, 4.0]);
        let tight = v(&[5.0, 4.5]);
        let loose = v(&[10.0, 10.0]);
        assert!(tight.fit_slack(&demand, &cmax) < loose.fit_slack(&demand, &cmax));
        // Exact fit has zero slack.
        assert_eq!(demand.fit_slack(&demand, &cmax), 0.0);
    }

    #[test]
    fn push_pop_dim_roundtrip() {
        let a = v(&[1.0, 2.0]);
        let b = a.push_dim(0.7);
        assert_eq!(b.dim(), 3);
        assert_eq!(b[2], 0.7);
        assert_eq!(ResVec::from_slice(&b.as_slice()[..2]), a);
    }

    #[test]
    fn min_max_components() {
        let a = v(&[1.0, 5.0, 3.0]);
        let b = v(&[2.0, 4.0, 3.0]);
        assert_eq!(a.min(&b).as_slice(), &[1.0, 4.0, 3.0]);
        assert_eq!(a.max(&b).as_slice(), &[2.0, 5.0, 3.0]);
    }
}
