use std::fmt;

/// A closed 1-D integer interval `[lo, hi]` with `lo <= hi`.
///
/// Intervals describe projections of layout geometry onto an axis; the
/// correction planner uses them as the legal positions of end-to-end
/// space-insertion cut lines.
///
/// ```
/// use aapsm_geom::Interval;
/// let a = Interval::new(0, 10);
/// let b = Interval::new(4, 20);
/// assert_eq!(a.intersect(&b), Some(Interval::new(4, 10)));
/// assert_eq!(a.gap(&Interval::new(15, 20)), 5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Lower bound.
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Length `hi - lo` (zero for a point interval).
    ///
    /// No `is_empty` companion on purpose: a closed interval always
    /// contains at least its endpoint, so `len() == 0` means "point".
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> i64 {
        self.hi - self.lo
    }

    /// Whether `v` lies inside the closed interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the closed intervals share at least one point.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The intersection, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// The smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Distance between the intervals: `0` when they overlap or touch,
    /// otherwise the size of the empty space separating them.
    pub fn gap(&self, other: &Interval) -> i64 {
        if self.overlaps(other) {
            0
        } else if self.hi < other.lo {
            other.lo - self.hi
        } else {
            self.lo - other.hi
        }
    }

    /// Signed separation: positive = empty space between the intervals,
    /// negative = size of their overlap, zero = they exactly touch.
    pub fn signed_gap(&self, other: &Interval) -> i64 {
        (other.lo - self.hi).max(self.lo - other.hi)
    }

    /// Translates the interval by `delta`.
    pub fn shift(&self, delta: i64) -> Interval {
        Interval {
            lo: self.lo + delta,
            hi: self.hi + delta,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_inverted_bounds() {
        let _ = Interval::new(5, 4);
    }

    #[test]
    fn overlap_and_touch() {
        let a = Interval::new(0, 10);
        assert!(a.overlaps(&Interval::new(10, 20))); // closed: touching counts
        assert!(!a.overlaps(&Interval::new(11, 20)));
        assert!(a.overlaps(&Interval::point(5)));
    }

    #[test]
    fn gap_values() {
        let a = Interval::new(0, 10);
        assert_eq!(a.gap(&Interval::new(15, 20)), 5);
        assert_eq!(a.gap(&Interval::new(-20, -3)), 3);
        assert_eq!(a.gap(&Interval::new(5, 7)), 0);
        assert_eq!(a.signed_gap(&Interval::new(5, 30)), -5);
        assert_eq!(a.signed_gap(&Interval::new(10, 30)), 0);
        assert_eq!(a.signed_gap(&Interval::new(12, 30)), 2);
    }

    #[test]
    fn intersect_and_hull() {
        let a = Interval::new(0, 10);
        let b = Interval::new(4, 20);
        assert_eq!(a.intersect(&b), Some(Interval::new(4, 10)));
        assert_eq!(a.intersect(&Interval::new(11, 12)), None);
        assert_eq!(a.hull(&b), Interval::new(0, 20));
    }
}
