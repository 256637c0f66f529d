//! Property-based tests of layout extraction and space insertion.

use aapsm_geom::{Axis, Rect};
use aapsm_layout::{
    apply_cuts, check_assignable, extract_phase_geometry, DesignRules, Layout, SpaceCut,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
