//! Tilted rectangular regions (TRRs) for Deferred-Merge Embedding.
//!
//! DME represents the locus of equidistant merge locations as *tilted*
//! rectangles — rectangles rotated 45° with respect to the routing axes.
//! Under the rotation `(u, v) = (x + y, x − y)` these become ordinary
//! axis-aligned rectangles, and the Manhattan metric becomes the Chebyshev
//! metric, in which expansion by a radius and region intersection are a few
//! min/max operations. This module implements exactly that machinery.

use crate::PointF;
use std::fmt;

/// A tilted rectangular region, stored as an axis-aligned box in the
/// rotated `(u, v) = (x + y, x − y)` coordinate system.
///
/// A `Trr` can be a point, a ±1-slope segment (degenerate in `u` or `v`) or
/// a full region. All DME operations — expanding by a wire radius,
/// intersecting two regions, measuring the Manhattan distance between
/// regions — close over this representation.
///
/// # Examples
///
/// ```
/// use snr_geom::{PointF, Trr};
///
/// let a = Trr::point(PointF::new(0.0, 0.0));
/// let b = Trr::point(PointF::new(6.0, 2.0));
/// assert_eq!(a.distance(&b), 8.0); // Manhattan distance
///
/// // Expanding each by half the distance makes them touch:
/// let m = a.expand(4.0).intersect(&b.expand(4.0)).unwrap();
/// assert!(m.is_segment());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trr {
    ulo: f64,
    uhi: f64,
    vlo: f64,
    vhi: f64,
}

impl Trr {
    /// Creates a region from rotated-coordinate bounds.
    ///
    /// Returns `None` if the bounds are inverted or non-finite.
    pub fn from_uv_bounds(ulo: f64, uhi: f64, vlo: f64, vhi: f64) -> Option<Self> {
        let ok = ulo.is_finite()
            && uhi.is_finite()
            && vlo.is_finite()
            && vhi.is_finite()
            && ulo <= uhi
            && vlo <= vhi;
        ok.then_some(Trr { ulo, uhi, vlo, vhi })
    }

    /// The degenerate region containing exactly one point.
    pub fn point(p: PointF) -> Self {
        Trr {
            ulo: p.u(),
            uhi: p.u(),
            vlo: p.v(),
            vhi: p.v(),
        }
    }

    /// Lower `u` bound (rotated coordinates).
    pub fn ulo(&self) -> f64 {
        self.ulo
    }
    /// Upper `u` bound (rotated coordinates).
    pub fn uhi(&self) -> f64 {
        self.uhi
    }
    /// Lower `v` bound (rotated coordinates).
    pub fn vlo(&self) -> f64 {
        self.vlo
    }
    /// Upper `v` bound (rotated coordinates).
    pub fn vhi(&self) -> f64 {
        self.vhi
    }

    /// Whether the region is degenerate in at least one rotated axis, i.e.
    /// a ±1-slope segment (or a point) in design coordinates.
    pub fn is_segment(&self) -> bool {
        const EPS: f64 = 1e-9;
        (self.uhi - self.ulo) <= EPS || (self.vhi - self.vlo) <= EPS
    }

    /// The region expanded by Manhattan radius `r ≥ 0`.
    ///
    /// In rotated coordinates a Manhattan ball is a Chebyshev ball, so the
    /// expansion grows every bound by `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative or not finite.
    pub fn expand(&self, r: f64) -> Trr {
        assert!(r.is_finite() && r >= 0.0, "invalid expansion radius {r}");
        Trr {
            ulo: self.ulo - r,
            uhi: self.uhi + r,
            vlo: self.vlo - r,
            vhi: self.vhi + r,
        }
    }

    /// Intersection with `other`, or `None` when disjoint.
    ///
    /// DME intersects regions expanded by radii that sum *exactly* to their
    /// distance, so floating-point rounding can invert a bound by a few ULPs.
    /// Inversions up to a relative tolerance are collapsed to the midpoint
    /// instead of reported as disjoint.
    pub fn intersect(&self, other: &Trr) -> Option<Trr> {
        let scale = 1.0
            + self.ulo.abs().max(self.uhi.abs()).max(self.vlo.abs()).max(self.vhi.abs())
            + other.ulo.abs().max(other.uhi.abs()).max(other.vlo.abs()).max(other.vhi.abs());
        let tol = 1e-12 * scale;
        let clip = |lo: f64, hi: f64| -> Option<(f64, f64)> {
            if lo <= hi {
                Some((lo, hi))
            } else if lo - hi <= tol {
                let mid = (lo + hi) / 2.0;
                Some((mid, mid))
            } else {
                None
            }
        };
        let (ulo, uhi) = clip(self.ulo.max(other.ulo), self.uhi.min(other.uhi))?;
        let (vlo, vhi) = clip(self.vlo.max(other.vlo), self.vhi.min(other.vhi))?;
        Trr::from_uv_bounds(ulo, uhi, vlo, vhi)
    }

    /// Minimum Manhattan distance between the two regions
    /// (zero when they overlap).
    ///
    /// Because the Manhattan metric is the Chebyshev metric in rotated
    /// coordinates, this is the larger of the per-axis gaps.
    pub fn distance(&self, other: &Trr) -> f64 {
        let gap = |alo: f64, ahi: f64, blo: f64, bhi: f64| (blo - ahi).max(alo - bhi).max(0.0);
        let du = gap(self.ulo, self.uhi, other.ulo, other.uhi);
        let dv = gap(self.vlo, self.vhi, other.vlo, other.vhi);
        du.max(dv)
    }

    /// The point of the region closest (Manhattan) to `p`.
    ///
    /// Used during top-down DME embedding: the child's location is the point
    /// of its merging region nearest the already-placed parent.
    pub fn closest_to(&self, p: PointF) -> PointF {
        let u = p.u().clamp(self.ulo, self.uhi);
        let v = p.v().clamp(self.vlo, self.vhi);
        PointF::from_uv(u, v)
    }

    /// An arbitrary representative point (the region center).
    pub fn center(&self) -> PointF {
        PointF::from_uv((self.ulo + self.uhi) / 2.0, (self.vlo + self.vhi) / 2.0)
    }

    /// Manhattan distance from the region to a point.
    pub fn distance_to_point(&self, p: PointF) -> f64 {
        self.distance(&Trr::point(p))
    }
}

impl fmt::Display for Trr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Trr{{u: [{:.1}, {:.1}], v: [{:.1}, {:.1}]}}",
            self.ulo, self.uhi, self.vlo, self.vhi
        )
    }
}

/// A ±1-slope segment in design coordinates — the classic DME
/// "merging segment".
///
/// This is a convenience view over a degenerate [`Trr`]: it keeps explicit
/// endpoints, which is useful for reporting and tests, while all geometric
/// computation happens on the underlying region.
///
/// # Examples
///
/// ```
/// use snr_geom::{DiagSegment, PointF};
///
/// let s = DiagSegment::new(PointF::new(0.0, 0.0), PointF::new(3.0, 3.0)).unwrap();
/// assert_eq!(s.length(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagSegment {
    a: PointF,
    b: PointF,
}

impl DiagSegment {
    /// Creates a diagonal segment.
    ///
    /// Returns `None` unless the segment has slope +1, slope −1, or is a
    /// single point (tolerance 1e-6 nm).
    pub fn new(a: PointF, b: PointF) -> Option<Self> {
        const EPS: f64 = 1e-6;
        let du = (a.u() - b.u()).abs();
        let dv = (a.v() - b.v()).abs();
        (du <= EPS || dv <= EPS).then_some(DiagSegment { a, b })
    }

    /// First endpoint.
    pub fn a(&self) -> PointF {
        self.a
    }

    /// Second endpoint.
    pub fn b(&self) -> PointF {
        self.b
    }

    /// Manhattan length of the segment.
    pub fn length(&self) -> f64 {
        self.a.manhattan(self.b)
    }

    /// The segment as a (degenerate) tilted region.
    pub fn to_trr(&self) -> Trr {
        Trr::from_uv_bounds(
            self.a.u().min(self.b.u()),
            self.a.u().max(self.b.u()),
            self.a.v().min(self.b.v()),
            self.a.v().max(self.b.v()),
        )
        .expect("endpoints are finite")
    }
}

impl From<DiagSegment> for Trr {
    fn from(s: DiagSegment) -> Trr {
        s.to_trr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn pf(x: f64, y: f64) -> PointF {
        PointF::new(x, y)
    }

    #[test]
    fn point_region_distance_is_manhattan() {
        let a = Trr::point(pf(0.0, 0.0));
        let b = Trr::point(pf(3.0, 4.0));
        assert_eq!(a.distance(&b), 7.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn expansion_radius_matches_manhattan_ball() {
        // Every integer point at Manhattan distance <= r must fall inside
        // the expanded region; points farther away must fall outside.
        let c = Point::new(10, 10);
        let region = Trr::point(c.to_f64()).expand(5.0);
        for dx in -8i64..=8 {
            for dy in -8i64..=8 {
                let p = Point::new(c.x + dx, c.y + dy);
                let inside = region.distance_to_point(p.to_f64()) <= 1e-9;
                assert_eq!(inside, c.manhattan(p) <= 5, "point {p}");
            }
        }
    }

    #[test]
    fn exact_radius_intersection_is_segment() {
        let a = Trr::point(pf(0.0, 0.0));
        let b = Trr::point(pf(10.0, 4.0));
        let d = a.distance(&b);
        let m = a.expand(d / 2.0).intersect(&b.expand(d / 2.0)).unwrap();
        assert!(m.is_segment());
        // Every point of the merging segment is equidistant from both cores.
        let c = m.center();
        assert!((a.distance_to_point(c) - d / 2.0).abs() < 1e-9);
        assert!((b.distance_to_point(c) - d / 2.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_radii_balance_distances() {
        let a = Trr::point(pf(0.0, 0.0));
        let b = Trr::point(pf(8.0, 0.0));
        let (ea, eb) = (6.0, 2.0);
        let m = a.expand(ea).intersect(&b.expand(eb)).unwrap();
        let c = m.center();
        assert!(a.distance_to_point(c) <= ea + 1e-9);
        assert!(b.distance_to_point(c) <= eb + 1e-9);
    }

    #[test]
    fn disjoint_regions_do_not_intersect() {
        let a = Trr::point(pf(0.0, 0.0)).expand(1.0);
        let b = Trr::point(pf(10.0, 0.0)).expand(1.0);
        assert!(a.intersect(&b).is_none());
        assert_eq!(a.distance(&b), 8.0);
    }

    #[test]
    fn closest_point_clamps_into_region() {
        let r = Trr::point(pf(0.0, 0.0)).expand(2.0);
        let inside = pf(0.5, 0.5);
        let got = r.closest_to(inside);
        assert!((got.x - inside.x).abs() < 1e-9 && (got.y - inside.y).abs() < 1e-9);

        let outside = pf(10.0, 0.0);
        let nearest = r.closest_to(outside);
        assert!(r.distance_to_point(nearest) < 1e-9);
        assert!((nearest.manhattan(outside) - r.distance_to_point(outside)).abs() < 1e-9);
    }

    #[test]
    fn diag_segment_validation() {
        assert!(DiagSegment::new(pf(0.0, 0.0), pf(3.0, 3.0)).is_some()); // slope +1
        assert!(DiagSegment::new(pf(0.0, 0.0), pf(3.0, -3.0)).is_some()); // slope -1
        assert!(DiagSegment::new(pf(0.0, 0.0), pf(0.0, 0.0)).is_some()); // point
        assert!(DiagSegment::new(pf(0.0, 0.0), pf(3.0, 1.0)).is_none()); // other
    }

    #[test]
    fn diag_segment_roundtrips_to_trr() {
        let s = DiagSegment::new(pf(0.0, 0.0), pf(4.0, 4.0)).unwrap();
        let t = s.to_trr();
        assert!(t.is_segment());
        assert!(t.distance_to_point(pf(2.0, 2.0)) < 1e-9);
        assert!(t.distance_to_point(pf(2.0, 0.0)) > 1.0);
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(Trr::from_uv_bounds(1.0, 0.0, 0.0, 0.0).is_none());
        assert!(Trr::from_uv_bounds(f64::NAN, 0.0, 0.0, 0.0).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid expansion radius")]
    fn negative_expansion_panics() {
        let _ = Trr::point(pf(0.0, 0.0)).expand(-1.0);
    }

    #[test]
    fn distance_between_expanded_regions_shrinks_by_radii() {
        let a = Trr::point(pf(0.0, 0.0));
        let b = Trr::point(pf(20.0, 0.0));
        assert_eq!(a.expand(3.0).distance(&b.expand(4.0)), 13.0);
    }
}
