//! Property-based tests of layout extraction, space insertion and
//! hierarchy sanitization.

use aapsm_geom::{Axis, Rect};
use aapsm_layout::{
    apply_cuts, check_assignable, extract_phase_geometry, Cell, DesignRules, HierLayout, Instance,
    Layout, Orient, Placement, SpaceCut,
};
use proptest::prelude::*;

/// Random non-overlapping rect layouts: rects snapped to disjoint slots.
fn layout() -> impl Strategy<Value = Layout> {
    proptest::collection::vec((0i64..8, 0i64..4, 80i64..320, 400i64..2000), 1..12).prop_map(
        |slots| {
            let mut seen = std::collections::HashSet::new();
            let mut rects = Vec::new();
            for (cx, cy, w, h) in slots {
                if seen.insert((cx, cy)) {
                    let x = cx * 1200;
                    let y = cy * 2600;
                    rects.push(Rect::new(x, y, x + w, y + h));
                }
            }
            Layout::from_rects(rects)
        },
    )
}

/// A lattice layout for the sanitize property: slot `(column, row,
/// width, height)` puts a rect of `100 · width` by `100 · height` dbu at
/// `(300 · column, 300 · row)` from `base`, the first slot at each
/// lattice point only, and `dup` repeats the first rect at the end. Cut
/// `(x axis, k, kind, w)` sits in lattice step `k`: kind `0` in the
/// clear gap after a column or row, where widths may be negative (a
/// width of −300 moves the next column or row onto this one, never
/// collapsing a rect), the others on a rect's low edge or inside rects,
/// with non-negative widths.
fn lattice_with_cuts(
    slots: &[(i64, i64, i64, i64)],
    dup: bool,
    cuts: &[(bool, i64, usize, usize)],
    base: i64,
) -> (Layout, Vec<SpaceCut>) {
    let mut seen = std::collections::HashSet::new();
    let mut rects: Vec<Rect> = slots
        .iter()
        .filter(|&&(c, r, _, _)| seen.insert((c, r)))
        .map(|&(c, r, w, h)| {
            let (x, y) = (base + 300 * c, base + 300 * r);
            Rect::new(x, y, x + 100 * w, y + 100 * h)
        })
        .collect();
    if dup {
        rects.push(rects[0]);
    }
    let cuts = cuts
        .iter()
        .map(|&(is_x, k, kind, w)| SpaceCut {
            axis: if is_x { Axis::X } else { Axis::Y },
            position: base + 300 * k + [250, 0, 50, 150][kind],
            width: if kind == 0 {
                [-300, -300, -150, 0, 600][w]
            } else {
                [0, 1, 40, 300, 600][w]
            },
        })
        .collect();
    (Layout::from_rects(rects), cuts)
}

/// Leaf rects on a coarse lattice: `(column, row, width, height)` steps.
type LeafRects = Vec<(i64, i64, i64, i64)>;

/// A small hierarchy built from drawn numbers: `leaves` leaf cells, a MID
/// placing the first leaf and the last one `mid_dx` to its right, and a
/// top with its own rects, placing leaves and the MID at lattice offsets
/// close enough to overlap, in one of three orientations (so classes
/// repeat). `dup` injects a duplicate: `0` none, `1` a leaf rect copied
/// inside its leaf, `2` a top rect equal to a placed rect, `3` an
/// instance placed twice, `4` a top rect copied. `far` places one
/// instance again (`0`) or copies one top rect (`1`) past the coordinate
/// limit. `block` adds a 2e7-dbu square, far larger than the rest, as a
/// placed cell (`1`) or a top rect (`2`).
fn small_hierarchy(
    leaves: &[LeafRects],
    mid_dx: i64,
    instances: &[(usize, usize, i64, i64)],
    top_rects: &[(i64, i64)],
    (dup, which): (usize, usize),
    far: usize,
    block: usize,
) -> HierLayout {
    let mut h = HierLayout::new();
    for (i, rects) in leaves.iter().enumerate() {
        let mut cell = Cell::new(format!("LEAF{i}"));
        for &(x, y, w, ht) in rects {
            let (x, y) = (x * 200, y * 700);
            cell.rects.push(Rect::new(x, y, x + w * 50, y + ht * 150));
        }
        if dup == 1 {
            cell.rects.push(cell.rects[which % cell.rects.len()]);
        }
        h.add_cell(cell);
    }
    let mut mid = Cell::new("MID");
    for (cell, x) in [(0, 0), (leaves.len() - 1, mid_dx * 200)] {
        mid.instances.push(Instance {
            cell,
            placement: Placement::at(x, 0),
        });
    }
    let cells = h.add_cell(mid) + 1;
    let mut top = Cell::new("TOP");
    for &(x, y) in top_rects {
        let (x, y) = (x * 400, y * 900);
        top.rects.push(Rect::new(x, y, x + 100, y + 600));
    }
    for &(cell, orient, x, y) in instances {
        top.instances.push(Instance {
            cell: cell % cells,
            placement: Placement::new(Orient::all()[orient], x * 1_000, y * 1_000),
        });
    }
    let past = i64::from(i32::MAX) - 1_000;
    if far == 0 {
        let mut inst = top.instances[which % instances.len()];
        inst.placement.delta.x += past;
        top.instances.push(inst);
    }
    if let (1, Some(r)) = (far, top.rects.first()) {
        top.rects.push(r.shift(past, 0));
    }
    let huge = Rect::new(-20_000_000, 0, 0, 20_000_000);
    match block {
        1 => {
            let mut cell = Cell::new("BLOCK");
            cell.rects.push(huge);
            top.instances.push(Instance {
                cell: h.add_cell(cell),
                placement: Placement::IDENTITY,
            });
        }
        2 => top.rects.push(huge),
        _ => {}
    }
    let inst = top.instances[which % instances.len()];
    match dup {
        2 if inst.cell < leaves.len() => {
            let rects = &h.cells[inst.cell].rects;
            let placed = inst.placement.try_apply_rect(&rects[which % rects.len()]);
            top.rects.extend(placed);
        }
        3 => top.instances.push(inst),
        4 => top.rects.extend(top.rects.get(which % 3).copied()),
        _ => {}
    }
    h.top = Some(h.add_cell(top));
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sanitizing a cut layout returns exactly what sanitizing a fresh
    /// layout of the same rects returns, duplicates and out-of-range
    /// coordinates included, whether or not the source's duplicate scan
    /// ran before the cuts: `apply_cuts` carries a clean scan over only
    /// when no width is negative.
    #[test]
    fn cut_layouts_sanitize_like_fresh_ones(
        slots in proptest::collection::vec((0i64..6, 0i64..4, 1i64..3, 1i64..3), 1..16),
        dup in 0usize..8,
        cuts in proptest::collection::vec((any::<bool>(), 0i64..6, 0usize..4, 0usize..5), 0..4),
        near in 0usize..3,
        scanned in any::<bool>(),
    ) {
        let rules = DesignRules::default();
        let limit = i64::from(i32::MAX)
            - rules.shifter_width
            - rules.shifter_overhang
            - rules.shifter_spacing
            - rules.min_feature_space;
        let base = [0, limit - 1500, 200 - limit][near];
        let (l, cuts) = lattice_with_cuts(&slots, dup == 0, &cuts, base);
        if scanned {
            let _ = l.sanitize(&rules);
        }
        let cut = apply_cuts(&l, &cuts);
        let fresh = Layout::from_rects(cut.rects().to_vec());
        prop_assert_eq!(cut.sanitize(&rules), fresh.sanitize(&rules));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `HierLayout::sanitize` returns exactly what flattening and
    /// sanitizing returns, on hierarchies whose placements overlap, repeat
    /// and leave the coordinate range, next to one far larger box, with
    /// duplicates injected.
    #[test]
    fn hier_sanitize_matches_flatten(
        leaves in proptest::collection::vec(
            proptest::collection::vec((0i64..6, 0i64..3, 1i64..4, 1i64..4), 1..5),
            1..4,
        ),
        mid_dx in 0i64..8,
        instances in proptest::collection::vec((0usize..8, 0usize..3, -3i64..6, -3i64..6), 1..8),
        top_rects in proptest::collection::vec((0i64..12, 0i64..6), 0..3),
        dup in (0usize..5, 0usize..64),
        far in 0usize..6,
        block in 0usize..4,
    ) {
        let h = small_hierarchy(&leaves, mid_dx, &instances, &top_rects, dup, far, block);
        let rules = DesignRules::default();
        let flat = h.flatten().and_then(|f| f.sanitize(&rules));
        prop_assert_eq!(h.sanitize(&rules), flat);
    }

    /// Extraction is deterministic and produces two shifters per critical
    /// feature, flanking it symmetrically.
    #[test]
    fn extraction_shape(l in layout()) {
        let rules = DesignRules::default();
        let g1 = extract_phase_geometry(&l, &rules);
        let g2 = extract_phase_geometry(&l, &rules);
        prop_assert_eq!(g1.shifters.len(), g2.shifters.len());
        prop_assert_eq!(g1.overlaps.len(), g2.overlaps.len());
        prop_assert_eq!(g1.shifters.len(), 2 * g1.critical_count());
        for f in &g1.features {
            if let Some((lo, hi)) = f.shifters {
                prop_assert!(!g1.shifters[lo].rect.overlaps(&f.rect));
                prop_assert!(!g1.shifters[hi].rect.overlaps(&f.rect));
            }
        }
    }

    /// Overlap pairs are exactly the sub-spacing pairs the rule describes:
    /// every reported pair is closer than the spacing rule.
    #[test]
    fn overlaps_violate_spacing(l in layout()) {
        let rules = DesignRules::default();
        let g = extract_phase_geometry(&l, &rules);
        let s = rules.shifter_spacing as i128;
        for o in &g.overlaps {
            let gap = g.shifters[o.a].rect.euclid_gap_sq(&g.shifters[o.b].rect);
            prop_assert!(gap < s * s);
            prop_assert!(o.weight >= 1);
        }
    }

    /// Space insertion preserves every feature's width and height (cuts in
    /// clear columns) and never shrinks any pairwise gap.
    #[test]
    fn insertion_monotonicity(l in layout(), width in 1i64..400) {
        // Cut in the guaranteed-clear column between slot columns.
        let cut = SpaceCut { axis: Axis::X, position: 1200 - 100, width };
        let out = apply_cuts(&l, &[cut]);
        for (a, b) in l.rects().iter().zip(out.rects()) {
            prop_assert_eq!(a.width(), b.width());
            prop_assert_eq!(a.height(), b.height());
        }
        for i in 0..l.rects().len() {
            for j in (i + 1)..l.rects().len() {
                let before = l.rects()[i].euclid_gap_sq(&l.rects()[j]);
                let after = out.rects()[i].euclid_gap_sq(&out.rects()[j]);
                prop_assert!(after >= before, "gap shrank: {} -> {}", before, after);
            }
        }
    }

    /// Inserting space never makes an assignable layout unassignable.
    #[test]
    fn insertion_preserves_assignability(l in layout(), width in 1i64..400) {
        let rules = DesignRules::default();
        if check_assignable(&extract_phase_geometry(&l, &rules)).is_ok() {
            let cut = SpaceCut { axis: Axis::X, position: 1100, width };
            let out = apply_cuts(&l, &[cut]);
            prop_assert!(check_assignable(&extract_phase_geometry(&out, &rules)).is_ok());
        }
    }
}
