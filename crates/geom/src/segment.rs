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
        let a_shared = self.a == other.a || self.a == other.b;
        let b_shared = self.b == other.a || self.b == other.b;
        match (a_shared, b_shared) {
            (false, false) => true,
            (true, false) | (false, true) => {
                // One endpoint `p` is shared (so `self` is not a point).
                // The intersection must be only {p}: no other contact.
                // Check the non-shared endpoints are not on the other
                // segment, and the segments are not collinear-overlapping
                // beyond p.
                let (p, self_other_end) = if a_shared {
                    (self.a, self.b)
                } else {
                    (self.b, self.a)
                };
                let other_other_end = if other.a == p { other.b } else { other.a };
                self.contains(other_other_end) || other.contains(self_other_end)
            }
            // Both endpoints shared: identical (or reversed) segments, or
            // a point segment on an endpoint of `other`. Parallel
            // identical embeddings overlap everywhere.
            (true, true) => true,
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
    fn degenerate_contacts_keep_their_verdicts() {
        // A point segment crosses whatever it lies on, endpoints included,
        // and nothing else.
        assert!(seg(5, 0, 5, 0).crosses(&seg(0, 0, 10, 0)));
        assert!(seg(0, 0, 0, 0).crosses(&seg(0, 0, 10, 0)));
        assert!(seg(0, 0, 10, 0).crosses(&seg(10, 0, 10, 0)));
        assert!(seg(3, 3, 3, 3).crosses(&seg(3, 3, 3, 3)));
        assert!(!seg(5, 1, 5, 1).crosses(&seg(0, 0, 10, 0)));
        // Reversed identical segments overlap everywhere.
        assert!(seg(0, 0, 7, 3).crosses(&seg(7, 3, 0, 0)));
        // A T-contact at a shared node: two edges leave node (0, 0), and
        // one ends on the other's interior, folding back along it.
        assert!(seg(0, 0, 10, 0).crosses(&seg(0, 0, 4, 0)));
        assert!(seg(4, 0, 0, 0).crosses(&seg(10, 0, 0, 0)));
        // A T-contact of a third edge at that shared node is no crossing
        // for the edges the node ends, and a crossing for one it passes.
        assert!(!seg(0, 0, 10, 0).crosses(&seg(0, 0, 0, 6)));
        assert!(seg(-5, 0, 5, 0).crosses(&seg(0, 0, 0, 6)));
    }

    /// The shared-endpoint rule as first written, collecting the shared
    /// endpoints into a `Vec`: the oracle for the allocation-free one.
    fn crosses_by_collecting(s: &Segment, other: &Segment) -> bool {
        if !s.intersects(other) {
            return false;
        }
        let shared: Vec<Point> = [s.a, s.b]
            .into_iter()
            .filter(|p| *p == other.a || *p == other.b)
            .collect();
        match shared.len() {
            0 => true,
            1 => {
                let p = shared[0];
                let s_other_end = if s.a == p { s.b } else { s.a };
                let other_other_end = if other.a == p { other.b } else { other.a };
                s.contains(other_other_end) || other.contains(s_other_end)
            }
            _ => true,
        }
    }

    #[test]
    fn crosses_matches_the_collecting_oracle_on_a_small_grid() {
        // Every segment between points of a 4 × 3 grid, point segments
        // and both orientations included, against every other one.
        let points: Vec<Point> = (0..4)
            .flat_map(|x| (0..3).map(move |y| Point::new(x * 2, y)))
            .collect();
        let segs: Vec<Segment> = points
            .iter()
            .flat_map(|&a| points.iter().map(move |&b| Segment::new(a, b)))
            .collect();
        for s in &segs {
            for o in &segs {
                assert_eq!(s.crosses(o), crosses_by_collecting(s, o), "{s} vs {o}");
            }
        }
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
