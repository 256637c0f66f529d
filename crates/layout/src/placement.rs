//! Placement transforms for hierarchical layouts.
//!
//! A placed instance carries an [`Orient`] — one of the eight elements of
//! the rectangle symmetry group (90°-multiple rotation, optional
//! reflection) — plus an integer translation, bundled as a [`Placement`].
//! The conventions follow GDSII `STRANS`/`ANGLE` semantics: the
//! reflection (about the X axis, `y → -y`) is applied **first**, then the
//! counter-clockwise rotation, then the translation. Magnification is not
//! modeled: the detection pipeline's design rules are absolute distances,
//! so a scaled instance would not be rule-equivalent to its master.
//!
//! All transforms are exact over `i64`; the `try_*` variants report
//! overflow instead of wrapping so [`crate::HierLayout::flatten`] can turn
//! an out-of-range placement into a structured error.

use aapsm_geom::{Point, Rect};

/// A counter-clockwise rotation by a multiple of 90°.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rot {
    /// No rotation.
    #[default]
    R0,
    /// 90° counter-clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° counter-clockwise.
    R270,
}

impl Rot {
    /// The rotation angle in degrees (0, 90, 180 or 270).
    pub fn degrees(self) -> u32 {
        match self {
            Rot::R0 => 0,
            Rot::R90 => 90,
            Rot::R180 => 180,
            Rot::R270 => 270,
        }
    }

    /// The rotation for an angle that is a multiple of 90° (mod 360).
    pub fn from_degrees(deg: i64) -> Option<Rot> {
        match deg.rem_euclid(360) {
            0 => Some(Rot::R0),
            90 => Some(Rot::R90),
            180 => Some(Rot::R180),
            270 => Some(Rot::R270),
            _ => None,
        }
    }

    fn quarter_turns(self) -> u8 {
        match self {
            Rot::R0 => 0,
            Rot::R90 => 1,
            Rot::R180 => 2,
            Rot::R270 => 3,
        }
    }

    fn from_quarter_turns(q: u8) -> Rot {
        match q % 4 {
            0 => Rot::R0,
            1 => Rot::R90,
            2 => Rot::R180,
            _ => Rot::R270,
        }
    }

    /// `self` followed by `other` (rotations commute, so order is moot).
    pub(crate) fn plus(self, other: Rot) -> Rot {
        Rot::from_quarter_turns(self.quarter_turns() + other.quarter_turns())
    }

    /// The inverse rotation.
    pub(crate) fn inverse(self) -> Rot {
        Rot::from_quarter_turns(4 - self.quarter_turns())
    }
}

/// An element of the rectangle symmetry group: optional reflection about
/// the X axis followed by a counter-clockwise 90°-multiple rotation.
///
/// GDSII correspondence: `reflect` is `STRANS` bit 15, `rotation` is
/// `ANGLE` (restricted to 90° multiples).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Orient {
    /// Counter-clockwise rotation, applied after the reflection.
    pub rotation: Rot,
    /// Reflect about the X axis (`y → -y`) before rotating.
    pub reflect: bool,
}

impl Orient {
    /// The identity orientation.
    pub const IDENTITY: Orient = Orient {
        rotation: Rot::R0,
        reflect: false,
    };

    /// A pure rotation.
    pub fn rotated(rotation: Rot) -> Orient {
        Orient {
            rotation,
            reflect: false,
        }
    }

    /// True for the identity element.
    pub fn is_identity(self) -> bool {
        self == Orient::IDENTITY
    }

    /// All eight orientations, in a fixed enumeration order.
    pub fn all() -> [Orient; 8] {
        let mut out = [Orient::IDENTITY; 8];
        let rots = [Rot::R0, Rot::R90, Rot::R180, Rot::R270];
        for (i, &rotation) in rots.iter().enumerate() {
            out[i] = Orient {
                rotation,
                reflect: false,
            };
            out[i + 4] = Orient {
                rotation,
                reflect: true,
            };
        }
        out
    }

    /// Applies the orientation to a point, checking for `i64` overflow
    /// (only `i64::MIN` coordinates can overflow, via negation).
    fn try_apply(self, p: Point) -> Option<Point> {
        let y = if self.reflect {
            p.y.checked_neg()?
        } else {
            p.y
        };
        let x = p.x;
        Some(match self.rotation {
            Rot::R0 => Point::new(x, y),
            Rot::R90 => Point::new(y.checked_neg()?, x),
            Rot::R180 => Point::new(x.checked_neg()?, y.checked_neg()?),
            Rot::R270 => Point::new(y, x.checked_neg()?),
        })
    }

    /// Applies the orientation to a point.
    ///
    /// # Panics
    ///
    /// On `i64` overflow (a coordinate of `i64::MIN`); sanitized layouts
    /// are orders of magnitude inside the representable range.
    pub fn apply(self, p: Point) -> Point {
        match self.try_apply(p) {
            Some(q) => q,
            None => panic!("orientation transform overflowed on {p:?}"),
        }
    }

    /// Applies the orientation to a rectangle (the image of an axis-aligned
    /// rectangle under a symmetry of the axes is axis-aligned).
    pub fn try_apply_rect(self, r: &Rect) -> Option<Rect> {
        let a = self.try_apply(Point::new(r.x_lo(), r.y_lo()))?;
        let b = self.try_apply(Point::new(r.x_hi(), r.y_hi()))?;
        Rect::from_corners(a, b)
    }

    /// `self ∘ other`: the orientation that first applies `other`, then
    /// `self`.
    pub(crate) fn compose(self, other: Orient) -> Orient {
        // Normal form R·M (rotation after mirror): M·R(a) = R(-a)·M, so
        //   R(s)·M^es · R(o)·M^eo  =  R(s ± o) · M^(es ⊕ eo)
        // with the minus sign exactly when `self` reflects.
        let o_rot = if self.reflect {
            other.rotation.inverse()
        } else {
            other.rotation
        };
        Orient {
            rotation: self.rotation.plus(o_rot),
            reflect: self.reflect ^ other.reflect,
        }
    }
}

/// A full instance placement: orientation followed by translation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Placement {
    /// Orientation applied about the master's origin.
    pub orient: Orient,
    /// Translation applied after the orientation.
    pub delta: Point,
}

impl Placement {
    /// The identity placement.
    pub const IDENTITY: Placement = Placement {
        orient: Orient::IDENTITY,
        delta: Point::new(0, 0),
    };

    /// A pure translation.
    pub fn at(x: i64, y: i64) -> Placement {
        Placement {
            orient: Orient::IDENTITY,
            delta: Point::new(x, y),
        }
    }

    /// An oriented placement.
    pub fn new(orient: Orient, x: i64, y: i64) -> Placement {
        Placement {
            orient,
            delta: Point::new(x, y),
        }
    }

    /// Applies the placement to a point, checking for `i64` overflow.
    fn try_apply(&self, p: Point) -> Option<Point> {
        let q = self.orient.try_apply(p)?;
        Some(Point::new(
            q.x.checked_add(self.delta.x)?,
            q.y.checked_add(self.delta.y)?,
        ))
    }

    /// Applies the placement to a rectangle, checking for `i64` overflow.
    pub fn try_apply_rect(&self, r: &Rect) -> Option<Rect> {
        let a = self.try_apply(Point::new(r.x_lo(), r.y_lo()))?;
        let b = self.try_apply(Point::new(r.x_hi(), r.y_hi()))?;
        Rect::from_corners(a, b)
    }

    /// `self ∘ other`: the placement that first applies `other`, then
    /// `self` (`None` on `i64` overflow).
    pub(crate) fn try_compose(&self, other: &Placement) -> Option<Placement> {
        // self(other(p)) = Os·Oo·p + Os·to + ts.
        let moved = self.try_apply(other.delta)?;
        Some(Placement {
            orient: self.orient.compose(other.orient),
            delta: moved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(0, 0),
            Point::new(7, 3),
            Point::new(-5, 11),
            Point::new(123_456, -654_321),
        ]
    }

    #[test]
    fn identity_fixes_everything() {
        for p in sample_points() {
            assert_eq!(Orient::IDENTITY.apply(p), p);
            assert_eq!(Placement::IDENTITY.try_apply(p), Some(p));
        }
    }

    #[test]
    fn rotation_quarter_turn_cycles() {
        let r90 = Orient::rotated(Rot::R90);
        for p in sample_points() {
            let mut q = p;
            for _ in 0..4 {
                q = r90.apply(q);
            }
            assert_eq!(q, p, "four quarter turns are the identity");
        }
        assert_eq!(r90.apply(Point::new(1, 0)), Point::new(0, 1));
        assert_eq!(r90.apply(Point::new(0, 1)), Point::new(-1, 0));
    }

    #[test]
    fn reflect_then_rotate_convention_matches_gdsii() {
        // STRANS reflection flips y first; ANGLE then rotates CCW.
        let o = Orient {
            rotation: Rot::R90,
            reflect: true,
        };
        // (2, 1) -reflect-> (2, -1) -R90-> (1, 2).
        assert_eq!(o.apply(Point::new(2, 1)), Point::new(1, 2));
    }

    #[test]
    fn compose_matches_pointwise_application() {
        for a in Orient::all() {
            for b in Orient::all() {
                for p in sample_points() {
                    assert_eq!(
                        a.compose(b).apply(p),
                        a.apply(b.apply(p)),
                        "compose({a:?}, {b:?}) disagrees at {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn inverse_round_trips_all_eight() {
        // The eight orientations form a group: each has a two-sided
        // inverse among them, and it undoes the orientation pointwise.
        for o in Orient::all() {
            let inv = Orient::all()
                .into_iter()
                .find(|&i| o.compose(i).is_identity())
                .expect("every orientation has an inverse");
            assert!(inv.compose(o).is_identity());
            for p in sample_points() {
                assert_eq!(inv.apply(o.apply(p)), p);
            }
        }
    }

    #[test]
    fn placement_compose_matches_sequential_application() {
        let placements = [
            Placement::at(10, -20),
            Placement::new(Orient::rotated(Rot::R90), 5, 7),
            Placement::new(
                Orient {
                    rotation: Rot::R270,
                    reflect: true,
                },
                -1000,
                999,
            ),
        ];
        for a in &placements {
            for b in &placements {
                let ab = a.try_compose(b).expect("no overflow");
                for p in sample_points() {
                    assert_eq!(ab.try_apply(p), b.try_apply(p).and_then(|q| a.try_apply(q)));
                }
            }
        }
    }

    #[test]
    fn rect_transform_is_exact_bbox() {
        let r = Rect::new(2, 1, 10, 4);
        for o in Orient::all() {
            let img = o.try_apply_rect(&r).expect("in range");
            // The image must be exactly the bbox of the four transformed
            // corners — extents swap under odd rotations.
            let (w, h) = (r.width(), r.height());
            let (iw, ih) = (img.width(), img.height());
            match o.rotation {
                Rot::R0 | Rot::R180 => assert_eq!((iw, ih), (w, h)),
                Rot::R90 | Rot::R270 => assert_eq!((iw, ih), (h, w)),
            }
        }
        // Specific case: R90 maps [2,10]×[1,4] to [-4,-1]×[2,10].
        let img = Orient::rotated(Rot::R90).try_apply_rect(&r).expect("ok");
        assert_eq!((img.x_lo(), img.y_lo()), (-4, 2));
        assert_eq!((img.x_hi(), img.y_hi()), (-1, 10));
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let p = Point::new(i64::MAX, 1);
        assert!(Placement::at(1, 0).try_apply(p).is_none());
        assert!(Orient::rotated(Rot::R180)
            .try_apply(Point::new(i64::MIN, 0))
            .is_none());
    }
}
