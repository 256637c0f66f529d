//! Layout modification by end-to-end space insertion (Section 3.2).
//!
//! Each correctable conflict yields one or two *correction intervals* (the
//! projections of its shifter gap); interval endpoints define candidate
//! grid lines; a weighted set cover picks the lines; the chosen lines
//! become [`SpaceCut`]s. Cut positions are *legal* only where they do not
//! widen any feature (a vertical cut must not pass through the interior of
//! a vertical feature's x-span) — this is how the scheme guarantees that
//! "only the lengths of features are increased but the widths remain the
//! same".
//!
//! The planner is decompose-then-solve like the detection side: candidate
//! coverage is built by per-axis sorted-endpoint assignment (each interval
//! claims its contiguous run of candidate positions by binary search), and
//! the weighted set cover is solved per connected component of the
//! candidate–element incidence ([`aapsm_cover::solve_decomposed`]) — exact
//! branch-and-bound under a per-component node budget with greedy
//! fallback, one component after another, merged in component order.
//! Cut widths are Euclidean-minimal: a diagonal pair's perpendicular gap
//! already contributes to the spacing rule, so the cut only needs
//! `⌈√(spacing² − gap_perp²)⌉ − gap_axis`, not the full per-axis deficit.

use crate::{Conflict, ConstraintKind};
use aapsm_cover::{solve_decomposed, CoverInstance, DecomposeOptions};
use aapsm_geom::{Axis, Interval};
use aapsm_layout::{
    apply_cuts, check_assignable, extract_phase_geometry, DesignRules, FeatureOrientation, Layout,
    PhaseGeometry, SpaceCut,
};

/// Options of the correction planner.
#[derive(Clone, Debug)]
pub struct CorrectionOptions {
    /// Per-component set-count cap for the exact cover solver: connected
    /// components of the candidate–element incidence with more candidate
    /// grid lines than this fall back to greedy. Components are small in
    /// practice, so this proves far more of the cover optimal than the
    /// pre-decomposition global threshold did.
    pub exact_cover_limit: usize,
    /// Branch-and-bound node budget *per cover component*. A truncated
    /// search keeps its incumbent (never worse than greedy) but the plan
    /// truthfully reports [`CorrectionPlan::cover_optimal`] `== false`.
    pub exact_node_limit: u64,
    /// Ignored: the cover components are solved serially (a worker pool
    /// there measured no gain on two cores). The field stays only because
    /// the end-to-end benchmark in `perfbench/` sets it by this name.
    pub parallelism: usize,
    /// Work/deadline budget charged by the cover branch-and-bound
    /// ([`aapsm_fault::Stage::Cover`], one tick per search node). Tripped
    /// components keep their greedy-warm-start incumbent and the plan
    /// truthfully reports [`CorrectionPlan::cover_optimal`] `== false`.
    /// Default: [`aapsm_fault::Budget::unlimited`].
    pub budget: aapsm_fault::Budget,
}

impl Default for CorrectionOptions {
    fn default() -> Self {
        CorrectionOptions {
            exact_cover_limit: 256,
            exact_node_limit: 200_000,
            parallelism: 1,
            budget: aapsm_fault::Budget::unlimited(),
        }
    }
}

/// A planned correction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrectionPlan {
    /// The end-to-end spaces to insert.
    pub cuts: Vec<SpaceCut>,
    /// Conflict indices (into the input slice) corrected by the plan.
    pub corrected: Vec<usize>,
    /// Conflict indices with no legal correction interval — the paper's
    /// mask-splitting bucket.
    pub uncorrectable: Vec<usize>,
    /// The largest number of conflicts corrected by a single grid line
    /// (Table 2, column Max).
    pub max_conflicts_single_line: usize,
    /// Connected components of the set cover's candidate–element
    /// incidence (0 when nothing was correctable).
    pub cover_components: usize,
    /// How many cover components were solved to proven optimality.
    pub cover_optimal_components: usize,
    /// Whether the set cover was solved to proven optimality: every
    /// component's exact search ran to completion. Never `true` when a
    /// search was truncated by the node budget or fell back to greedy.
    pub cover_optimal: bool,
}

impl CorrectionPlan {
    /// Number of grid lines where spaces are inserted (Table 2, column
    /// Grid).
    pub fn grid_line_count(&self) -> usize {
        self.cuts.len()
    }

    /// Total inserted width along an axis.
    pub fn inserted_width(&self, axis: Axis) -> i64 {
        self.cuts
            .iter()
            .filter(|c| c.axis == axis)
            .map(|c| c.width)
            .sum()
    }
}

/// Result of applying a correction plan.
#[derive(Clone, Debug)]
pub struct CorrectionReport {
    /// The modified layout.
    pub modified: Layout,
    /// Bounding-box area before modification (dbu²).
    pub area_before: i128,
    /// Bounding-box area after modification.
    pub area_after: i128,
    /// Percentage area increase (the paper's 0.7–11.8% metric).
    pub area_increase_pct: f64,
    /// Whether the modified layout re-extracts as phase-assignable
    /// (always true when `uncorrectable` was empty).
    pub verified: bool,
}

/// One candidate grid line.
#[derive(Clone, Debug)]
struct Candidate {
    axis: Axis,
    position: i64,
    covered: Vec<usize>, // indices into `correctable`
    width: i64,          // max needed space among covered conflicts
}

/// Plans end-to-end space insertions correcting the given conflicts.
///
/// Only [`ConstraintKind::Overlap`] conflicts are correctable by spacing;
/// flank and direct conflicts land in
/// [`CorrectionPlan::uncorrectable`], as do overlaps whose shifters
/// interpenetrate on both axes or whose every candidate line would widen a
/// feature.
pub fn plan_correction(
    geom: &PhaseGeometry,
    conflicts: &[Conflict],
    rules: &DesignRules,
    options: &CorrectionOptions,
) -> CorrectionPlan {
    if conflicts.is_empty() {
        // Nothing to correct: skip the forbidden-span setup entirely (an
        // empty set cover is trivially optimal). Every already-assignable
        // round of the flow's convergence loop takes this path.
        return CorrectionPlan {
            cuts: Vec::new(),
            corrected: Vec::new(),
            uncorrectable: Vec::new(),
            max_conflicts_single_line: 0,
            cover_components: 0,
            cover_optimal_components: 0,
            cover_optimal: true,
        };
    }
    // Forbidden spans per axis: a cut may not pass through the interior of
    // a feature's *width* span (a vertical cut through a vertical feature
    // would widen it). Merged and sorted for binary search.
    let forbidden = |axis: Axis| -> Vec<(i64, i64)> {
        let mut spans: Vec<(i64, i64)> = geom
            .features
            .iter()
            .filter(|f| match f.orientation {
                FeatureOrientation::Vertical => axis == Axis::X,
                FeatureOrientation::Horizontal => axis == Axis::Y,
            })
            .map(|f| {
                let s = f.rect.span(axis);
                (s.lo(), s.hi())
            })
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(spans.len());
        for (lo, hi) in spans {
            match merged.last_mut() {
                // Open interiors: spans touching only at endpoints do not
                // merge (a cut exactly at the contact point is legal).
                Some(last) if lo < last.1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    };
    let forbidden_x = forbidden(Axis::X);
    let forbidden_y = forbidden(Axis::Y);
    let spans_for = |axis: Axis| -> &Vec<(i64, i64)> {
        match axis {
            Axis::X => &forbidden_x,
            Axis::Y => &forbidden_y,
        }
    };
    let legal = |axis: Axis, pos: i64| -> bool {
        let spans = spans_for(axis);
        let i = spans.partition_point(|&(lo, _)| lo < pos);
        i == 0 || spans[i - 1].1 <= pos
    };

    // Correction intervals per conflict. A conflict between shifters of
    // features Fa and Fb can be corrected along an axis iff the *features*
    // are separable along it: any cut strictly between them moves Fb (and
    // its regenerated shifters) away from Fa, growing the shifter gap by
    // the cut width.
    struct Item {
        conflict_index: usize,
        intervals: Vec<(Axis, Interval, i64)>, // (axis, cut positions, needed width)
    }
    let mut correctable: Vec<Item> = Vec::new();
    let mut uncorrectable = Vec::new();
    for (ci, c) in conflicts.iter().enumerate() {
        let ConstraintKind::Overlap(oi) = c.constraint else {
            uncorrectable.push(ci);
            continue;
        };
        let o = &geom.overlaps[oi];
        let sa = geom.shifters[o.a].rect;
        let sb = geom.shifters[o.b].rect;
        let fa = geom.features[geom.shifters[o.a].feature].rect;
        let fb = geom.features[geom.shifters[o.b].feature].rect;
        let shifter_gap = |axis: Axis| match axis {
            Axis::X => o.gap_x,
            Axis::Y => o.gap_y,
        };
        let mut intervals = Vec::new();
        for axis in [Axis::X, Axis::Y] {
            if fa.gap(&fb, axis) < 0 {
                continue; // features not separable along this axis
            }
            // The cut pushes the high-side feature (and its regenerated
            // shifters) further along +axis, so the deficit to close is
            // the *directional* shifter gap — high shifter's low edge
            // minus low shifter's high edge. For interleaved jog shifters
            // this is more negative than the signed mutual gap (which
            // measures the smaller penetration, in the direction the cut
            // cannot separate), and sizing from the mutual gap would
            // under-correct.
            let (lo, hi, gap_axis) = if fa.span(axis).lo() <= fb.span(axis).lo() {
                (
                    fa.span(axis).hi(),
                    fb.span(axis).lo(),
                    sb.span(axis).lo() - sa.span(axis).hi(),
                )
            } else {
                (
                    fb.span(axis).hi(),
                    fa.span(axis).lo(),
                    sa.span(axis).lo() - sb.span(axis).hi(),
                )
            };
            // Detection is Euclidean (`euclid_gap_sq < spacing²` over the
            // positive parts of the per-axis gaps), so the minimal
            // sufficient growth along this axis restores
            //   (gap_axis + needed)² + max(gap_perp, 0)² ≥ spacing²,
            // i.e. needed = ⌈√(spacing² − gap_perp⁺²)⌉ − gap_axis. For
            // axis-aligned pairs (gap_perp ≤ 0) this is the directional
            // deficit `spacing − gap_axis`; for diagonal pairs the
            // perpendicular gap already contributes, and the per-axis
            // deficit would over-correct.
            let gap_perp = shifter_gap(axis.perp()).max(0);
            let spacing = rules.shifter_spacing;
            let residual =
                (spacing as i128) * (spacing as i128) - (gap_perp as i128) * (gap_perp as i128);
            if residual <= 0 {
                // Unreachable for conflicts produced by detection (the
                // Euclidean predicate implies gap_perp < spacing), but
                // `plan_correction` accepts arbitrary conflict slices:
                // such a "conflict" is already spaced along the
                // perpendicular axis, so no cut is needed here — skip the
                // axis in debug and release alike.
                continue;
            }
            let needed = ceil_isqrt(residual) - gap_axis;
            if needed <= 0 {
                // Likewise unreachable for detected conflicts (their
                // Euclidean gap is below spacing, so the directional gap
                // is below √residual), but an arbitrary caller slice may
                // contain an already-spaced pair — never emit a cut of
                // non-positive width for it.
                continue;
            }
            intervals.push((axis, Interval::new(lo, hi), needed));
        }
        if intervals.is_empty() {
            uncorrectable.push(ci);
        } else {
            correctable.push(Item {
                conflict_index: ci,
                intervals,
            });
        }
    }

    // Candidate grid lines: interval endpoints plus legality boundaries
    // inside the intervals (a cut anywhere in an interval corrects its
    // conflict, so the optimum can always be normalized to one of these).
    // Collected per axis, sorted and deduplicated — the canonical
    // candidate order is axis X ascending then axis Y ascending.
    let mut positions_x: Vec<i64> = Vec::new();
    let mut positions_y: Vec<i64> = Vec::new();
    for item in &correctable {
        for &(axis, iv, _) in &item.intervals {
            let out = match axis {
                Axis::X => &mut positions_x,
                Axis::Y => &mut positions_y,
            };
            for pos in [iv.lo(), iv.hi()] {
                if legal(axis, pos) {
                    out.push(pos);
                }
            }
            // Boundaries of forbidden spans inside the interval are the
            // other normalization points.
            let spans = spans_for(axis);
            let start = spans.partition_point(|&(_, hi)| hi < iv.lo());
            for &(lo, hi) in &spans[start..] {
                if lo > iv.hi() {
                    break;
                }
                for pos in [lo, hi] {
                    if iv.contains(pos) && legal(axis, pos) {
                        out.push(pos);
                    }
                }
            }
        }
    }
    positions_x.sort_unstable();
    positions_x.dedup();
    positions_y.sort_unstable();
    positions_y.dedup();

    // A candidate covers every conflict whose (same-axis) interval
    // contains its position. Each interval claims the contiguous run of
    // sorted candidate positions it contains (two binary searches over
    // the endpoint-sorted positions), so building the coverage costs
    // O(intervals · log candidates + incidence) instead of the old
    // O(candidates × conflicts) nested scan.
    let x_count = positions_x.len();
    let mut candidates: Vec<Candidate> = positions_x
        .iter()
        .map(|&position| (Axis::X, position))
        .chain(positions_y.iter().map(|&position| (Axis::Y, position)))
        .map(|(axis, position)| Candidate {
            axis,
            position,
            covered: Vec::new(),
            width: 0,
        })
        .collect();
    for (item_idx, item) in correctable.iter().enumerate() {
        for &(axis, iv, needed) in &item.intervals {
            let (positions, base) = match axis {
                Axis::X => (&positions_x, 0),
                Axis::Y => (&positions_y, x_count),
            };
            let from = positions.partition_point(|&p| p < iv.lo());
            let to = positions.partition_point(|&p| p <= iv.hi());
            for c in &mut candidates[base + from..base + to] {
                c.covered.push(item_idx);
                c.width = c.width.max(needed);
            }
        }
    }
    // Every candidate position is an endpoint of (or a legality boundary
    // inside) some interval, which therefore contains it.
    debug_assert!(candidates.iter().all(|c| !c.covered.is_empty()));

    // Items whose every endpoint was illegal are uncorrectable.
    let mut coverable = vec![false; correctable.len()];
    for c in &candidates {
        for &i in &c.covered {
            coverable[i] = true;
        }
    }
    for (item_idx, item) in correctable.iter().enumerate() {
        if !coverable[item_idx] {
            uncorrectable.push(item.conflict_index);
        }
    }

    // Weighted set cover over the coverable items.
    let element_of: Vec<Option<usize>> = {
        let mut next = 0usize;
        coverable
            .iter()
            .map(|&c| {
                c.then(|| {
                    let e = next;
                    next += 1;
                    e
                })
            })
            .collect()
    };
    let universe = element_of.iter().flatten().count();
    let sets: Vec<(i64, Vec<usize>)> = candidates
        .iter()
        .map(|c| {
            (
                c.width.max(1),
                c.covered.iter().filter_map(|&i| element_of[i]).collect(),
            )
        })
        .collect();
    let inst = CoverInstance::new(universe, sets);
    let cover = solve_decomposed(
        &inst,
        &DecomposeOptions {
            node_limit_per_component: options.exact_node_limit,
            max_exact_sets: options.exact_cover_limit,
            budget: options.budget.clone(),
        },
    );
    let solution = cover.solution;

    let mut cuts = Vec::new();
    let mut corrected_items = std::collections::HashSet::new();
    let mut max_single = 0usize;
    for &s in &solution.chosen {
        let c = &candidates[s];
        cuts.push(SpaceCut {
            axis: c.axis,
            position: c.position,
            width: c.width,
        });
        max_single = max_single.max(c.covered.len());
        corrected_items.extend(c.covered.iter().copied());
    }
    let corrected: Vec<usize> = {
        let mut v: Vec<usize> = corrected_items
            .into_iter()
            .map(|i| correctable[i].conflict_index)
            .collect();
        v.sort_unstable();
        v
    };
    uncorrectable.sort_unstable();
    uncorrectable.dedup();
    CorrectionPlan {
        cuts,
        corrected,
        uncorrectable,
        max_conflicts_single_line: max_single,
        cover_components: cover.components,
        cover_optimal_components: cover.optimal_components,
        cover_optimal: cover.optimal,
    }
}

/// `⌈√x⌉` for positive `x`, in exact integer arithmetic.
fn ceil_isqrt(x: i128) -> i64 {
    debug_assert!(x > 0);
    let r = (x as u128).isqrt() as i128;
    (if r * r >= x { r } else { r + 1 }) as i64
}

impl CorrectionReport {
    /// Builds a report from the modified layout and the original
    /// bounding-box area — the one place the area-increase accounting
    /// lives ([`apply_correction`] and `run_flow` both end here).
    pub(crate) fn from_modified(
        modified: Layout,
        area_before: i128,
        verified: bool,
    ) -> CorrectionReport {
        let area_after = modified.stats().bbox_area;
        let area_increase_pct = if area_before > 0 {
            (area_after - area_before) as f64 / area_before as f64 * 100.0
        } else {
            0.0
        };
        CorrectionReport {
            modified,
            area_before,
            area_after,
            area_increase_pct,
            verified,
        }
    }
}

/// Applies a correction plan and verifies the result by re-extraction.
pub fn apply_correction(
    layout: &Layout,
    plan: &CorrectionPlan,
    rules: &DesignRules,
) -> CorrectionReport {
    let area_before = layout.stats().bbox_area;
    let modified = apply_cuts(layout, &plan.cuts);
    let verified = plan.uncorrectable.is_empty()
        && check_assignable(&extract_phase_geometry(&modified, rules)).is_ok();
    CorrectionReport::from_modified(modified, area_before, verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_conflicts, DetectConfig};
    use aapsm_layout::fixtures;

    fn correct_layout(l: &Layout) -> (CorrectionPlan, CorrectionReport) {
        let rules = DesignRules::default();
        let geom = extract_phase_geometry(l, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let plan = plan_correction(
            &geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        let outcome = apply_correction(l, &plan, &rules);
        (plan, outcome)
    }

    #[test]
    fn gate_over_strap_corrected_by_one_space() {
        let rules = DesignRules::default();
        let (plan, outcome) = correct_layout(&fixtures::gate_over_strap(&rules));
        assert_eq!(plan.grid_line_count(), 1);
        assert!(plan.uncorrectable.is_empty());
        assert!(outcome.verified, "modified layout must be assignable");
        assert!(outcome.area_after > outcome.area_before);
    }

    #[test]
    fn jog_corrected_and_verified() {
        let rules = DesignRules::default();
        let (plan, outcome) = correct_layout(&fixtures::stacked_jog(&rules));
        assert!(plan.uncorrectable.is_empty());
        assert!(outcome.verified);
    }

    #[test]
    fn short_middle_corrected_by_vertical_space() {
        let rules = DesignRules::default();
        let (plan, outcome) = correct_layout(&fixtures::short_middle_wire(&rules));
        assert!(plan.uncorrectable.is_empty());
        assert!(plan.cuts.iter().any(|c| c.axis == Axis::X));
        assert!(outcome.verified);
    }

    #[test]
    fn bus_conflicts_share_one_horizontal_space() {
        // The Figure 5 scenario: many conflicts corrected by one
        // end-to-end space.
        let rules = DesignRules::default();
        let (plan, outcome) = correct_layout(&fixtures::strap_under_bus(6, &rules));
        assert!(outcome.verified);
        assert!(
            plan.max_conflicts_single_line >= 6,
            "one line should clear the whole bus: {plan:?}"
        );
        assert_eq!(plan.grid_line_count(), 1);
    }

    #[test]
    fn no_conflicts_means_no_cuts() {
        let _rules = DesignRules::default();
        let (plan, outcome) = correct_layout(&fixtures::wire_row(5, 600));
        assert!(plan.cuts.is_empty());
        assert_eq!(outcome.area_increase_pct, 0.0);
        assert!(outcome.verified);
    }

    #[test]
    fn synthetic_design_end_to_end() {
        let rules = DesignRules::default();
        let l = aapsm_layout::synth::generate(
            &aapsm_layout::synth::SynthParams {
                rows: 3,
                gates_per_row: 50,
                strap_frac: 0.6,
                jog_frac: 0.05,
                short_mid_frac: 0.05,
                ..Default::default()
            },
            &rules,
        );
        let (plan, outcome) = correct_layout(&l);
        assert!(
            plan.uncorrectable.is_empty(),
            "synthetic conflicts are spacing-correctable: {:?}",
            plan.uncorrectable
        );
        assert!(outcome.verified);
        // The paper's area increases range 0.7%..11.8%; stay in a sane band.
        assert!(
            outcome.area_increase_pct < 25.0,
            "area increase {:.2}% looks wrong",
            outcome.area_increase_pct
        );
    }

    #[test]
    fn uncorrectable_bucket_collects_flank_direct_and_blocked_overlaps() {
        use crate::ConflictSource;
        use aapsm_geom::Rect;
        // Two facing wires whose only separating interval is fully
        // covered by a wide (non-critical) wall's forbidden x-span, plus
        // hand-made flank/direct conflicts: all three conflict kinds land
        // in `uncorrectable`, in input order.
        let rules = DesignRules::default();
        let layout = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 2000),       // A (critical)
            Rect::new(600, 0, 700, 2000),     // B (critical)
            Rect::new(99, -9000, 601, -7000), // wall: outlaws x in (99, 601)
        ]);
        let geom = extract_phase_geometry(&layout, &rules);
        let oi = geom
            .overlaps
            .iter()
            .position(|o| o.gap_x >= 0)
            .expect("facing pair exists");
        let conflicts = vec![
            Conflict {
                constraint: ConstraintKind::Overlap(oi),
                weight: geom.overlaps[oi].weight,
                source: ConflictSource::Bipartization,
            },
            Conflict {
                constraint: ConstraintKind::Flank(0),
                weight: 1,
                source: ConflictSource::Planarization,
            },
            Conflict {
                constraint: ConstraintKind::Direct(1),
                weight: 1,
                source: ConflictSource::Degenerate,
            },
        ];
        let plan = plan_correction(&geom, &conflicts, &rules, &CorrectionOptions::default());
        assert_eq!(plan.uncorrectable, vec![0, 1, 2]);
        assert!(plan.cuts.is_empty());
        assert!(plan.corrected.is_empty());
        assert_eq!(plan.max_conflicts_single_line, 0);
        assert_eq!(plan.cover_components, 0);
        assert_eq!(plan.cover_optimal_components, 0);
        assert!(plan.cover_optimal, "an empty cover is trivially optimal");
    }

    #[test]
    fn cover_optimal_flips_exactly_at_the_exact_cover_limit() {
        // The bus fixture yields a multi-candidate cover; scanning the
        // limit must show greedy (not proven optimal) below a single
        // threshold and exact above it, with both sides still correcting
        // every conflict.
        let rules = DesignRules::default();
        let l = fixtures::strap_under_bus(6, &rules);
        let geom = extract_phase_geometry(&l, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let plan_at = |limit: usize| {
            plan_correction(
                &geom,
                &report.conflicts,
                &rules,
                &CorrectionOptions {
                    exact_cover_limit: limit,
                    ..CorrectionOptions::default()
                },
            )
        };
        let mut flip = None;
        let mut prev_optimal = false;
        for limit in 0..=64 {
            let plan = plan_at(limit);
            assert!(plan.uncorrectable.is_empty());
            assert_eq!(
                plan.corrected.len(),
                report.conflict_count(),
                "limit {limit}: every conflict stays corrected"
            );
            if plan.cover_optimal && !prev_optimal {
                assert!(flip.is_none(), "optimality must flip exactly once");
                flip = Some(limit);
            }
            assert!(
                plan.cover_optimal || flip.is_none(),
                "limit {limit}: optimality must be monotone in the limit"
            );
            prev_optimal = plan.cover_optimal;
        }
        let flip = flip.expect("some limit admits the exact solver");
        assert!(flip > 0, "limit 0 must force the greedy fallback");
        // The exact side can only improve (or match) the greedy weight.
        let greedy = plan_at(flip - 1);
        let exact = plan_at(flip);
        assert!(!greedy.cover_optimal && exact.cover_optimal);
        let width = |p: &CorrectionPlan| p.inserted_width(Axis::X) + p.inserted_width(Axis::Y);
        assert!(width(&exact) <= width(&greedy));
    }

    #[test]
    fn inserted_width_accounts_per_axis() {
        // Two independent conflicts far apart: one needs a vertical
        // space (Axis::X), the other a horizontal one (Axis::Y); the
        // plan must report both axes separately and their sum must match
        // the cut list.
        let rules = DesignRules::default();
        let mut rects = fixtures::short_middle_wire(&rules).rects().to_vec(); // X-cut conflict
        for r in fixtures::stacked_jog(&rules).rects() {
            // Far above, out of interaction range.
            rects.push(aapsm_geom::Rect::new(
                r.x_lo() + 20_000,
                r.y_lo() + 20_000,
                r.x_hi() + 20_000,
                r.y_hi() + 20_000,
            ));
        }
        let l = Layout::from_rects(rects);
        let (plan, outcome) = correct_layout(&l);
        assert!(plan.uncorrectable.is_empty());
        assert!(outcome.verified);
        let wx = plan.inserted_width(Axis::X);
        let wy = plan.inserted_width(Axis::Y);
        assert!(wx > 0, "short-middle needs a vertical space: {plan:?}");
        assert!(wy > 0, "the jog needs a horizontal space: {plan:?}");
        assert_eq!(wx + wy, plan.cuts.iter().map(|c| c.width).sum::<i64>());
        assert_eq!(
            plan.cuts.iter().filter(|c| c.axis == Axis::X).count()
                + plan.cuts.iter().filter(|c| c.axis == Axis::Y).count(),
            plan.grid_line_count()
        );
    }

    #[test]
    fn diagonal_pair_gets_the_euclidean_minimal_width() {
        // The two conflicts of the diagonal-jog fixture have gaps
        // (gap_x = 200, gap_y = 100) with spacing 280. The per-axis
        // deficit would demand 280 − 200 = 80 along x; the Euclidean
        // minimum is ⌈√(280² − 100²)⌉ − 200 = 62. The narrower cut must
        // still verify, and the area increase must strictly improve on
        // the per-axis sizing.
        let rules = DesignRules::default();
        let l = fixtures::diagonal_jog(&rules);
        let geom = extract_phase_geometry(&l, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        assert!(report.conflict_count() > 0);
        let diagonal = report.conflicts.iter().all(|c| {
            let ConstraintKind::Overlap(oi) = c.constraint else {
                return false;
            };
            let o = &geom.overlaps[oi];
            o.gap_x > 0 && o.gap_y > 0
        });
        assert!(diagonal, "fixture must select diagonal conflicts");
        let (plan, outcome) = correct_layout(&l);
        assert!(plan.uncorrectable.is_empty());
        assert!(outcome.verified, "narrower cuts must still verify");
        assert!(outcome.area_after > outcome.area_before);
        // Every cut is strictly narrower than the per-axis deficit of the
        // conflicts it corrects (all conflicts here share both gaps).
        let per_axis_deficit = |axis: Axis| {
            report
                .conflicts
                .iter()
                .map(|c| {
                    let ConstraintKind::Overlap(oi) = c.constraint else {
                        unreachable!()
                    };
                    let o = &geom.overlaps[oi];
                    rules.shifter_spacing
                        - match axis {
                            Axis::X => o.gap_x,
                            Axis::Y => o.gap_y,
                        }
                })
                .max()
                .unwrap()
        };
        let naive: Vec<SpaceCut> = plan
            .cuts
            .iter()
            .map(|c| SpaceCut {
                width: per_axis_deficit(c.axis),
                ..*c
            })
            .collect();
        for (cut, wide) in plan.cuts.iter().zip(&naive) {
            assert!(
                cut.width < wide.width,
                "euclidean width {} must beat per-axis {}",
                cut.width,
                wide.width
            );
        }
        // The per-axis sizing also verifies — the improvement is pure
        // area, not a correctness trade.
        let naive_outcome = {
            let modified = aapsm_layout::apply_cuts(&l, &naive);
            let ok = check_assignable(&extract_phase_geometry(&modified, &rules)).is_ok();
            assert!(ok);
            modified.stats().bbox_area
        };
        assert!(
            outcome.area_after < naive_outcome,
            "euclidean sizing must strictly shrink the corrected area"
        );
    }

    #[test]
    fn truncated_cover_search_is_reported_unproven() {
        // Driving the one-node budget through `plan_correction`: the
        // synthetic design's cover decomposes into several components and
        // at least one cannot be proven at the search root, so with
        // `exact_node_limit: 1` its search truncates and `cover_optimal`
        // must be false — the regression for the old "`solve_exact`
        // returned `Some`, therefore optimal" lie. (Components whose
        // greedy warm start already meets the root lower bound are proven
        // without expanding a node; truncation needs a component where
        // the bound is slack, which the synth mix reliably provides.)
        // The plan itself stays feasible: every conflict is still
        // corrected.
        let rules = DesignRules::default();
        let l = aapsm_layout::synth::generate(
            &aapsm_layout::synth::SynthParams {
                rows: 3,
                gates_per_row: 50,
                strap_frac: 0.6,
                jog_frac: 0.05,
                short_mid_frac: 0.05,
                ..Default::default()
            },
            &rules,
        );
        let geom = extract_phase_geometry(&l, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let plan = plan_correction(
            &geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions {
                exact_node_limit: 1,
                ..CorrectionOptions::default()
            },
        );
        assert!(
            !plan.cover_optimal,
            "a truncated search must not claim optimality: {plan:?}"
        );
        assert!(plan.cover_optimal_components < plan.cover_components.max(1));
        assert!(plan.uncorrectable.is_empty());
        assert_eq!(plan.corrected.len(), report.conflict_count());
        // The generous default budget proves the same cover.
        let proven = plan_correction(
            &geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        assert!(proven.cover_optimal);
        assert_eq!(proven.cover_optimal_components, proven.cover_components);
        let width = |p: &CorrectionPlan| p.inserted_width(Axis::X) + p.inserted_width(Axis::Y);
        assert!(width(&proven) <= width(&plan));
    }

    /// `CorrectionOptions::parallelism` is ignored: the cover is serial,
    /// so every value yields the same plan.
    #[test]
    fn planner_is_bit_identical_across_parallelism_degrees() {
        let rules = DesignRules::default();
        for layout in [
            fixtures::strap_under_bus(6, &rules),
            fixtures::diagonal_jog(&rules),
            fixtures::stacked_jog(&rules),
        ] {
            let geom = extract_phase_geometry(&layout, &rules);
            let report = detect_conflicts(&geom, &DetectConfig::default());
            let base = plan_correction(
                &geom,
                &report.conflicts,
                &rules,
                &CorrectionOptions::default(),
            );
            for parallelism in [0, 2, 4] {
                let plan = plan_correction(
                    &geom,
                    &report.conflicts,
                    &rules,
                    &CorrectionOptions {
                        parallelism,
                        ..CorrectionOptions::default()
                    },
                );
                assert_eq!(plan, base, "parallelism {parallelism} diverged");
            }
        }
    }

    #[test]
    fn cut_widths_meet_spacing_needs() {
        let rules = DesignRules::default();
        let l = fixtures::gate_over_strap(&rules);
        let geom = extract_phase_geometry(&l, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let plan = plan_correction(
            &geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        // A cut never needs more than the full spacing rule plus the
        // deepest possible shifter interpenetration.
        let bound = rules.shifter_spacing + 2 * (rules.shifter_width + rules.shifter_overhang);
        for cut in &plan.cuts {
            assert!(cut.width > 0 && cut.width <= bound);
        }
    }
}
