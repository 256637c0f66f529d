use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A 2-D point in integer database units.
///
/// ```
/// use aapsm_geom::Point;
/// let p = Point::new(3, 4) + Point::new(1, -1);
/// assert_eq!(p, Point::new(4, 3));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Horizontal coordinate in dbu.
    pub x: i64,
    /// Vertical coordinate in dbu.
    pub y: i64,
}

/// The orientation of an ordered point triple `(a, b, c)`.
///
/// Returned by [`Point::orient`]; exact (computed in `i128`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// `c` lies strictly left of the directed line `a -> b`.
    CounterClockwise,
    /// `a`, `b`, `c` are collinear.
    Collinear,
    /// `c` lies strictly right of the directed line `a -> b`.
    Clockwise,
}

impl Point {
    /// Creates a point from its coordinates.
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// Exact 2-D cross product `self × other` in `i128`.
    ///
    /// ```
    /// use aapsm_geom::Point;
    /// assert_eq!(Point::new(1, 0).cross(Point::new(0, 1)), 1);
    /// ```
    pub fn cross(self, other: Point) -> i128 {
        self.x as i128 * other.y as i128 - self.y as i128 * other.x as i128
    }

    /// Exact orientation of the triple `(a, b, c)`.
    ///
    /// ```
    /// use aapsm_geom::{Orientation, Point};
    /// let o = Point::orient(Point::new(0, 0), Point::new(2, 0), Point::new(1, 1));
    /// assert_eq!(o, Orientation::CounterClockwise);
    /// ```
    pub fn orient(a: Point, b: Point, c: Point) -> Orientation {
        let v = (b - a).cross(c - a);
        match v.cmp(&0) {
            std::cmp::Ordering::Greater => Orientation::CounterClockwise,
            std::cmp::Ordering::Equal => Orientation::Collinear,
            std::cmp::Ordering::Less => Orientation::Clockwise,
        }
    }

    /// The midpoint of the segment `self -> other`, rounded toward negative
    /// infinity on each axis.
    ///
    /// Used to place overlap nodes of the phase conflict graph on the
    /// straight line between two shifter nodes.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(
            ((self.x as i128 + other.x as i128).div_euclid(2)) as i64,
            ((self.y as i128 + other.y as i128).div_euclid(2)) as i64,
        )
    }

    /// Pseudo-angle comparator key: orders directions counter-clockwise
    /// starting from the positive x axis, exactly, without trigonometry.
    ///
    /// The returned key orders first by half-plane (upper half, including the
    /// positive x axis, precedes the lower half), ties within a half-plane
    /// being broken by the exact cross product at comparison time — see
    /// [`Point::cmp_angle`].
    fn angle_half(self) -> u8 {
        debug_assert!(self.x != 0 || self.y != 0, "zero vector has no angle");
        // Half 0: angle in [0, pi): y > 0, or y == 0 && x > 0.
        if self.y > 0 || (self.y == 0 && self.x > 0) {
            0
        } else {
            1
        }
    }

    /// Compares two direction vectors by counter-clockwise angle from the
    /// positive x axis. Exact; both vectors must be non-zero.
    ///
    /// Collinear same-direction vectors compare equal.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either vector is zero.
    pub fn cmp_angle(self, other: Point) -> std::cmp::Ordering {
        let (ha, hb) = (self.angle_half(), other.angle_half());
        ha.cmp(&hb).then_with(|| 0i128.cmp(&self.cross(other)))
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn cross_is_exact_at_extremes() {
        let a = Point::new(i64::MAX / 2, i64::MAX / 2);
        let b = Point::new(-(i64::MAX / 2), i64::MAX / 2);
        // Would overflow i64; must be exact in i128.
        assert!(a.cross(b) > 0);
    }

    #[test]
    fn orient_basic() {
        let o = Point::new(0, 0);
        let x = Point::new(10, 0);
        assert_eq!(
            Point::orient(o, x, Point::new(5, 1)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            Point::orient(o, x, Point::new(5, -1)),
            Orientation::Clockwise
        );
        assert_eq!(
            Point::orient(o, x, Point::new(20, 0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn midpoint_rounds_consistently() {
        assert_eq!(
            Point::new(0, 0).midpoint(Point::new(3, 3)),
            Point::new(1, 1)
        );
        assert_eq!(
            Point::new(-1, -1).midpoint(Point::new(0, 0)),
            Point::new(-1, -1)
        );
        assert_eq!(
            Point::new(2, 4).midpoint(Point::new(4, 8)),
            Point::new(3, 6)
        );
    }

    #[test]
    fn angle_order_is_ccw_from_positive_x() {
        let dirs = [
            Point::new(1, 0),   // 0
            Point::new(1, 1),   // 45
            Point::new(0, 1),   // 90
            Point::new(-1, 1),  // 135
            Point::new(-1, 0),  // 180
            Point::new(-1, -1), // 225
            Point::new(0, -1),  // 270
            Point::new(1, -1),  // 315
        ];
        for w in dirs.windows(2) {
            assert_eq!(w[0].cmp_angle(w[1]), Ordering::Less, "{} !< {}", w[0], w[1]);
        }
        // Same direction, different magnitude: equal.
        assert_eq!(
            Point::new(2, 2).cmp_angle(Point::new(5, 5)),
            Ordering::Equal
        );
        // Opposite directions are distinct.
        assert_eq!(
            Point::new(1, 1).cmp_angle(Point::new(-1, -1)),
            Ordering::Less
        );
    }
}
