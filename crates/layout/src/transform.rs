//! End-to-end space insertion — the paper's layout-modification primitive.

use crate::Layout;
use aapsm_geom::{Axis, Rect};

/// An end-to-end space insertion: at `position` along `axis`, the layout
/// is cut by a full-chip line and `width` dbu of empty space is inserted.
///
/// Geometry entirely on the high side of the cut shifts by `width`;
/// geometry straddling the cut stretches (its *length* grows — the cut
/// planner only ever places cuts where stretching does not change feature
/// widths). Geometry on the low side is untouched.
///
/// `axis` is the axis along which coordinates change: a vertical cut line
/// (separating left from right) has `axis == Axis::X`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceCut {
    /// Axis whose coordinates grow.
    pub axis: Axis,
    /// Cut position (geometry with low edge ≥ this shifts).
    pub position: i64,
    /// Amount of inserted space (> 0).
    pub width: i64,
}

#[cfg(test)]
impl SpaceCut {
    /// Applies the cut to a single rectangle: the per-cut reference
    /// semantics the prefix-sum [`apply_cuts`] is tested against.
    fn apply_rect(&self, r: &Rect) -> Rect {
        let (lo, hi) = match self.axis {
            Axis::X => (r.x_lo(), r.x_hi()),
            Axis::Y => (r.y_lo(), r.y_hi()),
        };
        let (new_lo, new_hi) = if lo >= self.position {
            (lo + self.width, hi + self.width)
        } else if hi > self.position {
            (lo, hi + self.width) // straddles: stretch
        } else {
            (lo, hi)
        };
        match self.axis {
            Axis::X => Rect::new(new_lo, r.y_lo(), new_hi, r.y_hi()),
            Axis::Y => Rect::new(r.x_lo(), new_lo, r.x_hi(), new_hi),
        }
    }
}

/// The per-axis prefix-sum form of a cut set: sorted distinct positions
/// with the *cumulative* inserted width up to and including each position,
/// so a rect edge's total shift is one `partition_point` lookup instead of
/// a scan over every cut.
///
/// Equivalent to replaying the cuts from the highest position down (each
/// cut's `position` in the original coordinate system): an edge at `v`
/// accumulates the width of every cut at `position <= v` when it is a low
/// edge, `position < v` when it is a high edge — exactly the
/// shift/stretch/keep cases of one cut applied to a rect, composed.
struct ShiftTable {
    /// Ascending distinct cut positions on one axis.
    positions: Vec<i64>,
    /// `prefix[i]` = total width of cuts at `positions[..=i]`.
    prefix: Vec<i64>,
}

impl ShiftTable {
    /// Builds the table from the cuts on `axis`. Duplicate positions
    /// compose additively — they merge into one entry of summed width,
    /// which is exactly what replaying them one by one produces.
    fn new(cuts: &[SpaceCut], axis: Axis) -> ShiftTable {
        let mut at: Vec<(i64, i64)> = cuts
            .iter()
            .filter(|c| c.axis == axis)
            .map(|c| (c.position, c.width))
            .collect();
        at.sort_unstable_by_key(|&(pos, _)| pos);
        let mut positions = Vec::with_capacity(at.len());
        let mut prefix = Vec::with_capacity(at.len());
        let mut total = 0i64;
        for (pos, width) in at {
            total += width;
            if positions.last() == Some(&pos) {
                // Invariant, not an error path: prefix grows in lockstep with
                // positions, so a matched last() implies a last_mut().
                #[allow(clippy::expect_used)]
                let last = prefix.last_mut().expect("same length");
                *last = total;
            } else {
                positions.push(pos);
                prefix.push(total);
            }
        }
        ShiftTable { positions, prefix }
    }

    /// Total width of cuts with `position <= v` (low edges shift by this).
    fn shift_le(&self, v: i64) -> i64 {
        let i = self.positions.partition_point(|&p| p <= v);
        if i == 0 {
            0
        } else {
            self.prefix[i - 1]
        }
    }

    /// Total width of cuts with `position < v` (high edges shift by this:
    /// a cut exactly at a rect's high edge leaves it untouched).
    fn shift_lt(&self, v: i64) -> i64 {
        let i = self.positions.partition_point(|&p| p < v);
        if i == 0 {
            0
        } else {
            self.prefix[i - 1]
        }
    }
}

/// Applies a set of cuts to a layout, returning the modified layout.
///
/// Every cut's `position` refers to the *original* coordinate system, and
/// duplicate same-axis positions compose additively (equivalent to one cut
/// of the summed width). The implementation is a single pass: per axis the
/// sorted cut positions and a prefix sum of their widths give each rect
/// edge its total shift by one binary search — O((R + C) log C) over R
/// rects and C cuts, instead of replaying every cut over every rect.
pub fn apply_cuts(layout: &Layout, cuts: &[SpaceCut]) -> Layout {
    if cuts.is_empty() {
        return layout.clone();
    }
    let x = ShiftTable::new(cuts, Axis::X);
    let y = ShiftTable::new(cuts, Axis::Y);
    let rects: Vec<Rect> = layout
        .rects()
        .iter()
        .map(|r| {
            Rect::new(
                r.x_lo() + x.shift_le(r.x_lo()),
                r.y_lo() + y.shift_le(r.y_lo()),
                r.x_hi() + x.shift_lt(r.x_hi()),
                r.y_hi() + y.shift_lt(r.y_hi()),
            )
        })
        .collect();
    Layout::from_rects(rects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_stretch_and_keep() {
        let cut = SpaceCut {
            axis: Axis::X,
            position: 100,
            width: 50,
        };
        // Entirely right: shifts.
        assert_eq!(
            cut.apply_rect(&Rect::new(100, 0, 200, 10)),
            Rect::new(150, 0, 250, 10)
        );
        // Straddles: stretches.
        assert_eq!(
            cut.apply_rect(&Rect::new(50, 0, 150, 10)),
            Rect::new(50, 0, 200, 10)
        );
        // Entirely left (touching the cut): unchanged.
        assert_eq!(
            cut.apply_rect(&Rect::new(0, 0, 100, 10)),
            Rect::new(0, 0, 100, 10)
        );
    }

    #[test]
    fn horizontal_cut_moves_y() {
        let cut = SpaceCut {
            axis: Axis::Y,
            position: 0,
            width: 30,
        };
        assert_eq!(
            cut.apply_rect(&Rect::new(0, 5, 10, 15)),
            Rect::new(0, 35, 10, 45)
        );
    }

    #[test]
    fn gaps_straddling_the_cut_grow_and_others_do_not_shrink() {
        let layout = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 1000),
            Rect::new(300, 0, 400, 1000),
            Rect::new(700, 0, 800, 1000),
        ]);
        let cut = SpaceCut {
            axis: Axis::X,
            position: 200,
            width: 80,
        };
        let out = apply_cuts(&layout, &[cut]);
        // Gap 0-1 grows from 200 to 280.
        assert_eq!(out.rects()[1].x_lo() - out.rects()[0].x_hi(), 280);
        // Gap 1-2 preserved.
        assert_eq!(out.rects()[2].x_lo() - out.rects()[1].x_hi(), 300);
    }

    #[test]
    fn multiple_cuts_compose_in_original_coordinates() {
        let layout = Layout::from_rects(vec![Rect::new(0, 0, 10, 10), Rect::new(100, 0, 110, 10)]);
        let cuts = [
            SpaceCut {
                axis: Axis::X,
                position: 50,
                width: 5,
            },
            SpaceCut {
                axis: Axis::X,
                position: 60,
                width: 7,
            },
        ];
        let out = apply_cuts(&layout, &cuts);
        assert_eq!(out.rects()[0], Rect::new(0, 0, 10, 10));
        assert_eq!(out.rects()[1], Rect::new(112, 0, 122, 10));
    }

    /// The reference semantics: replay each cut over every rect from the
    /// highest position down (the pre-prefix-sum implementation).
    fn apply_cuts_replay(layout: &Layout, cuts: &[SpaceCut]) -> Layout {
        let mut ordered: Vec<SpaceCut> = cuts.to_vec();
        ordered.sort_by_key(|c| std::cmp::Reverse(c.position));
        let mut rects: Vec<Rect> = layout.rects().to_vec();
        for cut in &ordered {
            for r in &mut rects {
                *r = cut.apply_rect(r);
            }
        }
        Layout::from_rects(rects)
    }

    #[test]
    fn prefix_sum_matches_per_cut_replay_on_random_cut_sets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let rects: Vec<Rect> = (0..15)
                .map(|_| {
                    let x = rng.gen_range(-2000..2000);
                    let y = rng.gen_range(-2000..2000);
                    Rect::new(x, y, x + rng.gen_range(1..800), y + rng.gen_range(1..800))
                })
                .collect();
            let layout = Layout::from_rects(rects);
            let cuts: Vec<SpaceCut> = (0..rng.gen_range(0..8))
                .map(|_| SpaceCut {
                    axis: if rng.gen_range(0..2) == 0 {
                        Axis::X
                    } else {
                        Axis::Y
                    },
                    // Deliberately collision-prone positions (multiples of
                    // 100): duplicate same-axis positions and positions
                    // exactly on rect edges are both exercised.
                    position: rng.gen_range(-20..20) * 100,
                    width: rng.gen_range(1..300),
                })
                .collect();
            assert_eq!(
                apply_cuts(&layout, &cuts),
                apply_cuts_replay(&layout, &cuts),
                "cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn duplicate_positions_compose_additively() {
        let layout = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 100),
            Rect::new(50, 0, 300, 100),
            Rect::new(200, 0, 400, 100),
        ]);
        let twice = [
            SpaceCut {
                axis: Axis::X,
                position: 120,
                width: 30,
            },
            SpaceCut {
                axis: Axis::X,
                position: 120,
                width: 50,
            },
        ];
        let merged = [SpaceCut {
            axis: Axis::X,
            position: 120,
            width: 80,
        }];
        assert_eq!(apply_cuts(&layout, &twice), apply_cuts(&layout, &merged));
        assert_eq!(
            apply_cuts(&layout, &twice),
            apply_cuts_replay(&layout, &twice)
        );
    }

    #[test]
    fn widths_never_change_for_non_straddling_rects() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let rects: Vec<Rect> = (0..20)
                .map(|i| {
                    let x = i * 500 + rng.gen_range(0..100);
                    let y = rng.gen_range(0..1000);
                    Rect::new(x, y, x + 100, y + rng.gen_range(100..1000))
                })
                .collect();
            let layout = Layout::from_rects(rects.clone());
            // Cut in a gap between columns: never straddles.
            let cut = SpaceCut {
                axis: Axis::X,
                position: 10 * 500 + 250,
                width: rng.gen_range(1..300),
            };
            let out = apply_cuts(&layout, &[cut]);
            for (before, after) in rects.iter().zip(out.rects()) {
                assert_eq!(before.width(), after.width());
                assert_eq!(before.height(), after.height());
            }
        }
    }
}
