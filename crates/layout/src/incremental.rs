//! Incremental phase-geometry re-extraction for the detect→correct→verify
//! loop.
//!
//! After a [`crate::SpaceCut`] batch, almost all geometry rides the cuts
//! as rigid per-region translations; only rects the cuts stretch, shift
//! apart, or touch change their relations. [`ExtractState`] retains the
//! last extraction's geometry and spatial indices and re-extracts the
//! modified layout by reusing every *clean* merge constraint and
//! rescanning only the pairs near the inserted slabs.
//!
//! # Invariants (mirroring `aapsm_core::shard`'s style)
//!
//! 1. **Bit-identical output.** [`ExtractState::incremental`] leaves
//!    `self.geometry()` byte-identical to
//!    [`crate::extract_phase_geometry`] on the modified layout — same
//!    features, shifters, overlap list (values *and* order) and direct
//!    conflicts. Property-tested in
//!    `aapsm-core/tests/incremental_equivalence.rs`.
//! 2. **Clean-pair reuse is exact.** An old overlap is reused iff the
//!    hull of its two shifter rects is rigid under the cuts
//!    ([`DirtyRegions::rigid_shift_of`]). A rigid hull translates both
//!    rects, their corridor, and every feature body intersecting that
//!    corridor by one vector (the corridor of a low-region pair is
//!    covered identically by a stretched feature's untouched low part),
//!    so gaps, weights and the corridor-blocking verdict are invariant.
//! 3. **Dirty pairs are exactly the slab-touching pairs.** By the
//!    complementarity invariant of [`DirtyRegions`], a pair is *not*
//!    reused iff the post-cut hull of its rects touches an inserted
//!    slab; and any candidate pair whose hull touches a slab has at
//!    least one *probe* touching it (probes cover the whole gap between
//!    candidate rects), so slab queries against the shifter grid
//!    enumerate every dirty candidate. Reused and rescanned constraints
//!    therefore partition the constraint set.
//! 4. **Index stability.** Feature order equals rect order and cuts
//!    preserve rect count/order, so when the criticality pattern is
//!    unchanged, shifter indices are identical and old overlap endpoints
//!    transfer verbatim. Criticality flips (a cut widening a feature —
//!    only possible for cuts the correction planner would never emit)
//!    and any rect that fails to match its predicted post-cut image
//!    trigger a full re-extraction fallback instead of wrong reuse.
//! 5. **Grid maintenance is rebuild.** Both indices are immutable, so a
//!    re-extraction with cuts rebuilds them from the post-cut boxes
//!    ([`GridIndex::build`]); they are then identical to a fresh
//!    extraction's, cell order included. Without cuts they are kept.

use crate::phase_geom::{
    canonicalize_constraints, classify_features, feature_box, scan_pair, shifter_probe, ScanHit,
};
use crate::{DesignRules, Layout, PhaseGeometry, SpaceCut};
use aapsm_geom::{Axis, CutSpec, DirtyRegions, GridIndex, RectSoA};

/// Retained extraction state: the geometry of the last extracted layout
/// plus the spatial indices that produced it.
#[derive(Clone, Debug)]
pub struct ExtractState {
    geom: PhaseGeometry,
    shifter_grid: GridIndex,
    feature_grid: GridIndex,
    radius: i64,
}

/// What one [`ExtractState::incremental`] call did, including the overlap
/// index mappings downstream incremental stages need.
#[derive(Clone, Debug, Default)]
pub struct ExtractDelta {
    /// Old overlap index → new overlap index, for every reused overlap.
    pub overlap_map: Vec<Option<u32>>,
    /// New overlap index → old overlap index (inverse of `overlap_map`).
    pub overlap_preimage: Vec<Option<u32>>,
    /// The whole state was rebuilt from scratch (structural change or
    /// unpredicted geometry); no constraint was reused.
    pub fallback: bool,
    /// Overlaps carried over without rescanning.
    pub reused_overlaps: usize,
    /// Candidate pairs re-run through the scan verdict.
    pub rescanned_pairs: usize,
}

/// Converts layout-level cuts into the geom-level dirty-region summary.
pub fn dirty_regions_for(cuts: &[SpaceCut]) -> DirtyRegions {
    DirtyRegions::from_cuts(cuts.iter().map(|c| CutSpec {
        axis: c.axis,
        position: c.position,
        width: c.width,
    }))
}

impl ExtractState {
    /// From-scratch extraction, retaining the spatial indices.
    ///
    /// This *is* the canonical extractor —
    /// [`crate::extract_phase_geometry_par`] delegates here — so the
    /// incremental path reuses state produced by the exact same code.
    pub fn full(layout: &Layout, rules: &DesignRules, parallelism: usize) -> ExtractState {
        let mut geom = classify_features(layout, rules);
        let radius = rules.interaction_radius();
        let (shifter_grid, feature_grid) = build_grids(&geom, radius);

        let spacing_sq = (rules.shifter_spacing as i128) * (rules.shifter_spacing as i128);
        let shifters = &geom.shifters;
        let boxes = RectSoA::from_rects(shifters.iter().map(|s| &s.rect));
        let features = &geom.features;
        let hits = shifter_grid.par_collect_pairs(parallelism, |ia, ib| {
            scan_pair(
                shifters,
                &boxes,
                features,
                &feature_grid,
                rules,
                spacing_sq,
                ia as usize,
                ib as usize,
            )
        });
        for hit in hits {
            match hit {
                ScanHit::Overlap(o) => geom.overlaps.push(o),
                ScanHit::Direct(d) => geom.direct_conflicts.push(d),
            }
        }
        canonicalize_constraints(&mut geom);
        ExtractState {
            geom,
            shifter_grid,
            feature_grid,
            radius,
        }
    }

    /// The extracted geometry.
    pub fn geometry(&self) -> &PhaseGeometry {
        &self.geom
    }

    /// Replaces this state with a from-scratch extraction of `modified`
    /// and reports the fallback (no constraint reused).
    fn rebuild_full(
        &mut self,
        modified: &Layout,
        rules: &DesignRules,
        parallelism: usize,
    ) -> ExtractDelta {
        let old_overlaps = self.geom.overlaps.len();
        *self = ExtractState::full(modified, rules, parallelism);
        ExtractDelta {
            overlap_map: vec![None; old_overlaps],
            overlap_preimage: vec![None; self.geom.overlaps.len()],
            fallback: true,
            ..ExtractDelta::default()
        }
    }

    /// Consumes the state, keeping only the geometry.
    pub(crate) fn into_geometry(self) -> PhaseGeometry {
        self.geom
    }

    /// Re-extracts after `cuts` produced `modified` from the layout this
    /// state was last extracted from. Updates the state in place and
    /// returns the overlap index mappings.
    ///
    /// The result is bit-identical to a from-scratch extraction of
    /// `modified`; when reuse preconditions fail (criticality flip, rect
    /// count change, unpredicted rect movement) the state falls back to
    /// [`ExtractState::full`] and reports it.
    pub fn incremental(
        &mut self,
        modified: &Layout,
        cuts: &[SpaceCut],
        rules: &DesignRules,
        parallelism: usize,
    ) -> ExtractDelta {
        let dirty = dirty_regions_for(cuts);

        // ---- Early adaptive bail-out, before any per-item work: when
        // the cuts dirty most of the chip (a whole-chip correction
        // round, not a localized fix), the pair-by-pair rescan costs
        // more than the streaming from-scratch sweep. One
        // rigid-classification pass over the *old* geometry estimates
        // the dirty fraction in O(shifters · log cuts). Purely a
        // scheduling decision — the full path is bit-identical by
        // definition. Tiny inputs always take the reuse path: they are
        // sub-millisecond either way and the threshold would be noise.
        //
        // The threshold is a quarter, not half: the reuse path's cost is
        // super-linear in the dirty fraction (every dirty shifter
        // re-probes its whole neighborhood), so at 30-50% dirty it
        // already loses to the streaming sweep — measured as the
        // rows_x16 `full_speedup: 0.708` regression against the
        // documented ≥0.7× floor when the bound was a half.
        const ADAPTIVE_FALLBACK_MIN_SHIFTERS: usize = 512;
        if self.geom.shifters.len() >= ADAPTIVE_FALLBACK_MIN_SHIFTERS {
            let dirty_estimate = self
                .geom
                .shifters
                .iter()
                .filter(|s| {
                    dirty
                        .rigid_shift_of_rect(&s.rect.inflate(self.radius))
                        .is_none()
                })
                .count();
            if dirty_estimate * 4 > self.geom.shifters.len() {
                return self.rebuild_full(modified, rules, parallelism);
            }
        }

        let fresh = classify_features(modified, rules);

        // ---- Reuse preconditions: rect count, predicted movement,
        // criticality/orientation-independent shifter layout. ----
        let mut ordered_cuts: Vec<SpaceCut> = cuts.to_vec();
        ordered_cuts.sort_by_key(|c| std::cmp::Reverse(c.position));
        let structurally_ok = fresh.features.len() == self.geom.features.len()
            && fresh.shifters.len() == self.geom.shifters.len()
            && fresh
                .features
                .iter()
                .zip(&self.geom.features)
                .all(|(n, o)| {
                    n.critical == o.critical
                        && n.shifters == o.shifters
                        && n.rect == predicted_rect(o.rect, &ordered_cuts)
                });
        if !structurally_ok {
            return self.rebuild_full(modified, rules, parallelism);
        }

        // ---- Grid maintenance: the indices are immutable, so rebuild
        // both from the post-cut boxes. Without cuts nothing moved (the
        // structural check above matched every rect to its old self), and
        // the retained indices already are that rebuild. ----
        if !cuts.is_empty() {
            (self.shifter_grid, self.feature_grid) = build_grids(&fresh, self.radius);
        }

        // ---- Reused constraints: rigid pairs carry over verbatim. ----
        let old_overlap_count = self.geom.overlaps.len();
        let mut kept: Vec<(u32, crate::OverlapPair)> = Vec::new();
        for (oi, o) in self.geom.overlaps.iter().enumerate() {
            let hull = self.geom.shifters[o.a]
                .rect
                .hull(&self.geom.shifters[o.b].rect);
            if dirty.rigid_shift_of_rect(&hull).is_some() {
                kept.push((oi as u32, *o));
            }
        }
        let mut kept_directs: Vec<crate::DirectConflict> = Vec::new();
        for d in &self.geom.direct_conflicts {
            // Invariant, not an error path: direct conflicts are only ever
            // recorded against critical features, which carry shifters.
            #[allow(clippy::expect_used)]
            let (lo, hi) = self.geom.features[d.feature]
                .shifters
                .expect("direct conflicts come from critical features");
            let hull = self.geom.shifters[lo]
                .rect
                .hull(&self.geom.shifters[hi].rect);
            if dirty.rigid_shift_of_rect(&hull).is_some() {
                kept_directs.push(*d);
            }
        }

        // ---- Dirty candidates: pairs with a probe touching a slab. ----
        let spacing_sq = (rules.shifter_spacing as i128) * (rules.shifter_spacing as i128);
        let fresh_boxes = RectSoA::from_rects(fresh.shifters.iter().map(|s| &s.rect));
        let mut near_slab = vec![false; fresh.shifters.len()];
        if let Some((bx_lo, by_lo, bx_hi, by_hi)) = self.shifter_grid.bounds() {
            for region in dirty
                .slabs(Axis::X)
                .map(|(lo, hi)| (lo, by_lo, hi, by_hi))
                .chain(dirty.slabs(Axis::Y).map(|(lo, hi)| (bx_lo, lo, bx_hi, hi)))
            {
                self.shifter_grid
                    .query(region, |id| near_slab[id as usize] = true);
            }
        }
        let mut rescanned = 0usize;
        let mut hits: Vec<ScanHit> = Vec::new();
        for s in 0..fresh.shifters.len() {
            if !near_slab[s] {
                continue;
            }
            self.shifter_grid
                .query(self.shifter_grid.bbox(s as u32), |p| {
                    let p = p as usize;
                    if p == s || (near_slab[p] && p < s) {
                        return;
                    }
                    let hull = fresh.shifters[s].rect.hull(&fresh.shifters[p].rect);
                    if !dirty.post_bbox_touches_slab((
                        hull.x_lo(),
                        hull.y_lo(),
                        hull.x_hi(),
                        hull.y_hi(),
                    )) {
                        return; // rigid pair: covered by reuse
                    }
                    rescanned += 1;
                    hits.extend(scan_pair(
                        &fresh.shifters,
                        &fresh_boxes,
                        &fresh.features,
                        &self.feature_grid,
                        rules,
                        spacing_sq,
                        s,
                        p,
                    ));
                });
        }

        // ---- Merge into canonical order and build the index maps. ----
        let reused_overlaps = kept.len();
        let mut merged: Vec<(Option<u32>, crate::OverlapPair)> =
            kept.into_iter().map(|(oi, o)| (Some(oi), o)).collect();
        let mut directs = kept_directs;
        for hit in hits {
            match hit {
                ScanHit::Overlap(o) => merged.push((None, o)),
                ScanHit::Direct(d) => directs.push(d),
            }
        }
        merged.sort_by_key(|(_, o)| (o.a, o.b));
        let mut overlap_map = vec![None; old_overlap_count];
        let mut overlap_preimage = vec![None; merged.len()];
        let mut overlaps = Vec::with_capacity(merged.len());
        for (new_oi, (old_oi, o)) in merged.into_iter().enumerate() {
            if let Some(old_oi) = old_oi {
                overlap_map[old_oi as usize] = Some(new_oi as u32);
                overlap_preimage[new_oi] = Some(old_oi);
            }
            overlaps.push(o);
        }
        directs.sort_by_key(|d| d.feature);

        self.geom = PhaseGeometry {
            features: fresh.features,
            shifters: fresh.shifters,
            overlaps,
            direct_conflicts: directs,
        };
        ExtractDelta {
            overlap_map,
            overlap_preimage,
            fallback: false,
            reused_overlaps,
            rescanned_pairs: rescanned,
        }
    }
}

/// The two extraction indices over `geom`: shifter probes (rects inflated
/// by the interaction `radius`) and feature bodies, on one cell size.
fn build_grids(geom: &PhaseGeometry, radius: i64) -> (GridIndex, GridIndex) {
    let cell = (radius * 2).max(64);
    (
        GridIndex::build(cell, geom.shifters.iter().map(|s| shifter_probe(s, radius))),
        GridIndex::build(cell, geom.features.iter().map(feature_box)),
    )
}

/// The post-cut image of one rect under a cut batch (the same math as
/// [`crate::apply_cuts`]; `ordered_cuts` must already be sorted by
/// descending position — sorted once by the caller, not per rect).
fn predicted_rect(r: aapsm_geom::Rect, ordered_cuts: &[SpaceCut]) -> aapsm_geom::Rect {
    let mut out = r;
    for cut in ordered_cuts {
        out = cut.apply_rect(&out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_cuts, extract_phase_geometry, fixtures};

    fn assert_incremental_matches(layout: &Layout, cuts: &[SpaceCut], expect_fallback: bool) {
        let rules = DesignRules::default();
        let mut state = ExtractState::full(layout, &rules, 1);
        let modified = apply_cuts(layout, cuts);
        let delta = state.incremental(&modified, cuts, &rules, 1);
        assert_eq!(delta.fallback, expect_fallback);
        let scratch = extract_phase_geometry(&modified, &rules);
        assert_eq!(state.geometry(), &scratch);
        // The maps relate identical overlap values on both sides.
        for (old_oi, new_oi) in delta.overlap_map.iter().enumerate() {
            if let Some(new_oi) = new_oi {
                assert_eq!(
                    delta.overlap_preimage[*new_oi as usize],
                    Some(old_oi as u32)
                );
            }
        }
    }

    #[test]
    fn zero_cuts_reuse_everything() {
        let rules = DesignRules::default();
        let layout = fixtures::strap_under_bus(4, &rules);
        let mut state = ExtractState::full(&layout, &rules, 1);
        let before = state.geometry().clone();
        let delta = state.incremental(&layout.clone(), &[], &rules, 1);
        assert!(!delta.fallback);
        assert_eq!(delta.rescanned_pairs, 0);
        assert_eq!(delta.reused_overlaps, before.overlaps.len());
        assert_eq!(state.geometry(), &before);
    }

    #[test]
    fn single_cut_matches_scratch() {
        let rules = DesignRules::default();
        for (layout, cut) in [
            (
                fixtures::strap_under_bus(5, &rules),
                SpaceCut {
                    axis: Axis::Y,
                    position: 300,
                    width: 180,
                },
            ),
            (
                fixtures::short_middle_wire(&rules),
                SpaceCut {
                    axis: Axis::X,
                    position: 150,
                    width: 200,
                },
            ),
        ] {
            assert_incremental_matches(&layout, &[cut], false);
        }
    }

    #[test]
    fn both_axis_cuts_match_scratch() {
        let rules = DesignRules::default();
        let layout = fixtures::strap_under_bus(6, &rules);
        let cuts = [
            SpaceCut {
                axis: Axis::Y,
                position: 300,
                width: 100,
            },
            SpaceCut {
                axis: Axis::X,
                position: 350,
                width: 90,
            },
            SpaceCut {
                axis: Axis::X,
                position: 1750,
                width: 40,
            },
        ];
        assert_incremental_matches(&layout, &cuts, false);
    }

    #[test]
    fn boundary_touching_cut_matches_scratch() {
        // Cut exactly on a feature edge: rects touch the cut line, the
        // touching pairs go dirty, and the result still matches scratch.
        let layout = fixtures::wire_row(5, 600);
        let cuts = [SpaceCut {
            axis: Axis::X,
            position: 700, // == wire 1's x_hi
            width: 120,
        }];
        assert_incremental_matches(&layout, &cuts, false);
    }

    #[test]
    fn criticality_flip_falls_back() {
        // A vertical cut through a vertical wire's interior widens it past
        // the critical threshold — the planner never emits this, but the
        // state must survive it via the full fallback.
        let layout = fixtures::wire_row(3, 600);
        let cuts = [SpaceCut {
            axis: Axis::X,
            position: 650, // interior of wire 1 (x 600..700)
            width: 300,
        }];
        assert_incremental_matches(&layout, &cuts, true);
    }

    #[test]
    fn second_round_composes() {
        let rules = DesignRules::default();
        let layout = fixtures::strap_under_bus(5, &rules);
        let mut state = ExtractState::full(&layout, &rules, 1);
        let cuts1 = [SpaceCut {
            axis: Axis::Y,
            position: 300,
            width: 150,
        }];
        let step1 = apply_cuts(&layout, &cuts1);
        state.incremental(&step1, &cuts1, &rules, 1);
        let cuts2 = [SpaceCut {
            axis: Axis::X,
            position: 350,
            width: 80,
        }];
        let step2 = apply_cuts(&step1, &cuts2);
        let delta = state.incremental(&step2, &cuts2, &rules, 1);
        assert!(!delta.fallback);
        assert_eq!(state.geometry(), &extract_phase_geometry(&step2, &rules));
    }

    /// Regression for the whole-chip round falling below the documented
    /// ≥0.7× adaptive-fallback floor: with the bail-out bound at one
    /// half, a round dirtying 30-50% of the chip took the (super-linear)
    /// reuse path and lost to the streaming sweep. The bound is now a
    /// quarter; this pins the *decision*, which is deterministic, rather
    /// than wall-clock.
    #[test]
    fn whole_chip_rounds_bail_out_above_a_quarter_dirty() {
        let rules = DesignRules::default();
        let params = crate::synth::SynthParams {
            rows: 2,
            gates_per_row: 150,
            ..Default::default()
        };
        let layout = crate::synth::generate(&params, &rules);
        let state = ExtractState::full(&layout, &rules, 1);
        let geom = state.geometry().clone();
        let n = geom.shifters.len();
        assert!(n >= 512, "fixture too small to cross the adaptive gate");
        let radius = rules.interaction_radius();
        let span = layout.stats().bbox.expect("non-empty").width();
        let dirty_fraction = |cuts: &[SpaceCut]| {
            let dirty = dirty_regions_for(cuts);
            geom.shifters
                .iter()
                .filter(|s| dirty.rigid_shift_of_rect(&s.rect.inflate(radius)).is_none())
                .count() as f64
                / n as f64
        };
        let spread_cuts = |count: i64| -> Vec<SpaceCut> {
            (1..=count)
                .map(|i| SpaceCut {
                    axis: Axis::X,
                    position: span * i / (count + 1),
                    width: 180,
                })
                .collect()
        };
        // Calibrate a cut set landing in the regression window (between
        // a quarter and a half dirty): the old bound kept reusing there.
        let cuts = (2..200)
            .map(spread_cuts)
            .find(|cuts| {
                let f = dirty_fraction(cuts);
                f > 0.27 && f <= 0.5
            })
            .expect("some spread cut count dirties 27-50% of the chip");
        assert_incremental_matches(&layout, &cuts, true);
        // A localized fix (far below a quarter dirty) must still reuse.
        let local = spread_cuts(1);
        assert!(dirty_fraction(&local) < 0.25);
        assert_incremental_matches(&layout, &local, false);
    }
}
