use crate::{Orientation, Point};
use std::fmt;

/// A line segment between two (possibly coincident) integer points.
///
/// Segments are the geometric realization of conflict-graph edges in the
/// straight-line embedding; [`Segment::crosses`] is the predicate that
/// decides whether two embedded edges prevent a planar embedding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// The axis-aligned bounding box, degenerate boxes inflated to unit size
    /// are *not* produced — use [`Segment::bbox_ranges`] for exact ranges.
    pub fn bbox_ranges(&self) -> (i64, i64, i64, i64) {
        (
            self.a.x.min(self.b.x),
            self.a.y.min(self.b.y),
            self.a.x.max(self.b.x),
            self.a.y.max(self.b.y),
        )
    }

    /// Whether `p` lies on the closed segment (exact).
    pub fn contains(&self, p: Point) -> bool {
        if Point::orient(self.a, self.b, p) != Orientation::Collinear {
            return false;
        }
        let (x_lo, y_lo, x_hi, y_hi) = self.bbox_ranges();
        x_lo <= p.x && p.x <= x_hi && y_lo <= p.y && p.y <= y_hi
    }

    /// Whether the closed segments share at least one point (exact).
    pub fn intersects(&self, other: &Segment) -> bool {
        let (x_lo, y_lo, x_hi, y_hi) = self.bbox_ranges();
        let (ox_lo, oy_lo, ox_hi, oy_hi) = other.bbox_ranges();
        if x_hi < ox_lo || ox_hi < x_lo || y_hi < oy_lo || oy_hi < y_lo {
            return false;
        }
        let d1 = Point::orient(other.a, other.b, self.a);
        let d2 = Point::orient(other.a, other.b, self.b);
        let d3 = Point::orient(self.a, self.b, other.a);
        let d4 = Point::orient(self.a, self.b, other.b);
        if opposite(d1, d2) && opposite(d3, d4) {
            return true;
        }
        (d1 == Orientation::Collinear && other_contains_on_box(other, self.a))
            || (d2 == Orientation::Collinear && other_contains_on_box(other, self.b))
            || (d3 == Orientation::Collinear && other_contains_on_box(self, other.a))
            || (d4 == Orientation::Collinear && other_contains_on_box(self, other.b))
    }

    /// Whether two embedded graph edges *cross* — i.e. intersect anywhere
    /// other than at a shared endpoint.
    ///
    /// This is the planarity-violation predicate:
    ///
    /// * a proper interior crossing is a cross;
    /// * one segment's endpoint in the other's interior (a "T" contact) is a
    ///   cross, because a plane graph may only meet at vertices;
    /// * collinear overlap over more than one point is a cross;
    /// * segments that only share one or two endpoints do **not** cross.
    ///
    /// ```
    /// use aapsm_geom::{Point, Segment};
    /// let s = Segment::new(Point::new(0, 0), Point::new(10, 0));
    /// // Shared endpoint only: not a crossing.
    /// assert!(!s.crosses(&Segment::new(Point::new(10, 0), Point::new(20, 5))));
    /// // T-contact in the interior: a crossing.
    /// assert!(s.crosses(&Segment::new(Point::new(5, 0), Point::new(5, 5))));
    /// ```
    pub fn crosses(&self, other: &Segment) -> bool {
        if !self.intersects(other) {
            return false;
        }
        // They intersect; decide whether the intersection is exactly a
        // shared endpoint.
        let shared: Vec<Point> = [self.a, self.b]
            .into_iter()
            .filter(|p| *p == other.a || *p == other.b)
            .collect();
        match shared.len() {
            0 => true,
            1 => {
                let p = shared[0];
                // The intersection must be only {p}: no other contact.
                // Check the non-shared endpoints are not on the other
                // segment, and the segments are not collinear-overlapping
                // beyond p.
                let self_other_end = if self.a == p { self.b } else { self.a };
                let other_other_end = if other.a == p { other.b } else { other.a };
                if self.contains(other_other_end) || other.contains(self_other_end) {
                    return true;
                }
                false
            }
            _ => {
                // Both endpoints shared: identical (or reversed) segments.
                // Parallel identical embeddings overlap everywhere.
                true
            }
        }
    }
}

fn opposite(a: Orientation, b: Orientation) -> bool {
    matches!(
        (a, b),
        (Orientation::Clockwise, Orientation::CounterClockwise)
            | (Orientation::CounterClockwise, Orientation::Clockwise)
    )
}

fn other_contains_on_box(seg: &Segment, p: Point) -> bool {
    let (x_lo, y_lo, x_hi, y_hi) = seg.bbox_ranges();
    x_lo <= p.x && p.x <= x_hi && y_lo <= p.y && p.y <= y_hi
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -- {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: i64, ay: i64, bx: i64, by: i64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn proper_crossing() {
        assert!(seg(0, 0, 10, 10).crosses(&seg(0, 10, 10, 0)));
    }

    #[test]
    fn disjoint_segments() {
        assert!(!seg(0, 0, 10, 0).crosses(&seg(0, 1, 10, 1)));
        assert!(!seg(0, 0, 1, 1).intersects(&seg(3, 3, 4, 4)));
    }

    #[test]
    fn shared_endpoint_is_not_a_crossing() {
        assert!(!seg(0, 0, 10, 0).crosses(&seg(10, 0, 20, 10)));
        assert!(!seg(0, 0, 10, 0).crosses(&seg(0, 0, -5, 3)));
        // But they do intersect.
        assert!(seg(0, 0, 10, 0).intersects(&seg(10, 0, 20, 10)));
    }

    #[test]
    fn t_contact_is_a_crossing() {
        assert!(seg(0, 0, 10, 0).crosses(&seg(5, 0, 5, 9)));
        assert!(seg(5, 0, 5, 9).crosses(&seg(0, 0, 10, 0)));
    }

    #[test]
    fn collinear_overlap_is_a_crossing() {
        assert!(seg(0, 0, 10, 0).crosses(&seg(5, 0, 15, 0)));
        // Collinear but disjoint: no.
        assert!(!seg(0, 0, 10, 0).crosses(&seg(11, 0, 15, 0)));
        // Collinear sharing exactly one endpoint: no crossing.
        assert!(!seg(0, 0, 10, 0).crosses(&seg(10, 0, 20, 0)));
        // Collinear containment sharing an endpoint: crossing (overlap is
        // more than a point).
        assert!(seg(0, 0, 10, 0).crosses(&seg(0, 0, 5, 0)));
    }

    #[test]
    fn identical_segments_cross() {
        assert!(seg(0, 0, 10, 0).crosses(&seg(0, 0, 10, 0)));
        assert!(seg(0, 0, 10, 0).crosses(&seg(10, 0, 0, 0)));
    }

    #[test]
    fn contains_checks_bounds() {
        let s = seg(0, 0, 10, 10);
        assert!(s.contains(Point::new(5, 5)));
        assert!(!s.contains(Point::new(11, 11)));
        assert!(!s.contains(Point::new(5, 6)));
    }

    #[test]
    fn collinear_chain_through_midpoint_does_not_cross() {
        // Two halves of one straight line sharing the midpoint: the PCG
        // overlap-node pattern. Must NOT count as crossing each other.
        let left = seg(0, 0, 5, 0);
        let right = seg(5, 0, 10, 0);
        assert!(!left.crosses(&right));
    }
}
