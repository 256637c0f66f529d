//! Certified verification of a corrected layout: whether the layout a
//! cut set produces is phase-assignable, decided from the pre-cut
//! extraction instead of extracting the corrected layout again.
//!
//! The same facts let [`derive_cut_geometry`] derive the corrected
//! layout's whole extraction from the pre-cut one, re-testing only the
//! close pairs a cut touches.
//!
//! The paper's correction inserts end-to-end spaces where "only the
//! lengths of features are increased but the widths remain the same".
//! Write `S(≤v)` and `S(<v)` for the total width of the cuts on one axis
//! at positions `≤ v` and `< v`. [`apply_cuts`](crate::apply_cuts) moves a
//! rect's low edge at `v` to `v + S(≤v)` and its high edge to `v + S(<v)`.
//! Five facts follow.
//!
//! **(a) Features, criticality and shifter indices are kept.** When no
//! cut lies strictly inside a critical feature's width span, its width
//! stays and only its length can grow, so it keeps its orientation and
//! its criticality; a non-critical feature's shorter side never shrinks.
//! The post-cut shifters are then the ones [`shifter_rects`] derives
//! from the mapped feature rects, under the same indices. (Mapping a
//! shifter rect itself would be wrong: a cut inside its width band
//! stretches it, but not the shifter derived from its feature.)
//!
//! **(b) No gap between two shifters shrinks.** Every shifter edge is a
//! feature edge plus an offset: `≤ 0` on a low edge, `≥ 0` on a high edge
//! (shifter width `> 0`, overhang `≥ 0`). Let shifter `P`'s low edge
//! `e_P + c_P` sit a positive gap above shifter `Q`'s high edge
//! `e_Q + c_Q`. Then `e_P > e_Q`, so `P`'s edge moves by at least
//! `S(<e_P) ≥ S(≤e_Q)`, which is at least what `Q`'s edge moves by. The
//! positive part of the gap on each axis never shrinks, nor does the
//! Euclidean gap: every post-cut close pair was a pre-cut close pair.
//!
//! **(c) A cut can unblock a blocked corridor.** A cut inside a blocked
//! pair's corridor can stretch a clear sliver of it past the 2 × overhang
//! line-end exemption:
//! [`fixtures::corridor_unblock_latent`](crate::fixtures::corridor_unblock_latent)
//! and
//! [`fixtures::corridor_unblock_two_round`](crate::fixtures::corridor_unblock_two_round)
//! show it happening. So the certificate re-tests every blocked pair that
//! is still close after the cuts, with extraction's own corridor test on
//! the mapped geometry. By the edge argument of (b), a feature strictly
//! outside the pre-cut hull of the pair's two shifter rects stays
//! strictly outside the post-cut hull, so the pre-cut feature grid
//! queried with the pre-cut hull returns every body that can meet the
//! post-cut corridor.
//!
//! **(d) A pair whose hull no cut touches keeps its verdict, gaps and
//! weight.** Let no cut lie in the closed span, on either axis, of the
//! pre-cut hull of the pair's two shifter rects. Then every coordinate
//! in that span moves by one shift `D` per axis, low edge or high edge
//! alike. Each shifter is derived from its feature's edges, which lie in
//! the span too (a shifter's own edges, or its edges less the overhang),
//! so both post-cut shifters are the pre-cut ones moved by `D`: the gaps
//! and the weight stay. A coordinate below the span stays below it
//! moved by `D` (it moves by at most `D`), and one above stays above it
//! (it moves by at least `D`). So every feature meets the moved corridor
//! exactly when it met the old one, with the same clipped span moved by
//! `D`, and the corridor verdict stays.
//!
//! **(e) A cut inside a pair's hull can block a clear corridor.** Such a
//! cut changes the pair's gaps and weight, or spaces it. A cut inside a
//! short perpendicular overlap also stretches both shifters along it
//! (past the 2 × overhang exemption, so the pair gets a corridor), and a
//! feature body beside them stretches with them and can fill it. So a
//! pre-cut overlap that a cut touches can become blocked, just as (c)
//! lets a blocked pair become an overlap, and [`derive_cut_geometry`]
//! re-tests both kinds.
//!
//! By (b) the post-cut merge constraints are a subset of the pre-cut
//! overlaps still close after the cuts plus the blocked pairs that
//! unblock. When every corrected overlap's post-cut gap is at least the
//! spacing and no blocked pair unblocks, they are a subset of the pre-cut
//! overlaps minus the corrected ones. A feature's own shifter pair stays
//! blocked (its own body fills the corridor but one overhang at each
//! end), so no direct conflict appears. The phase assignment that
//! [`check_assignable`](crate::check_assignable)'s propagation finds over
//! the flank constraints plus the remaining pre-cut overlaps therefore
//! satisfies the corrected layout's geometry, and the check of that
//! geometry succeeds.
//!
//! The derivation: by (a) the corrected layout classifies into the same
//! critical features and shifter indices, so classifying the mapped
//! feature rects gives extraction's features and shifters. By (b) every
//! post-cut close pair is a pre-cut overlap or blocked pair, and a pair
//! that is not close is spaced whatever its corridor. By (d) a pair no
//! cut touches keeps its pre-cut verdict. Every other close pair goes
//! through extraction's own per-pair test, on the corrected features and
//! the feature grid rebuilt over them, which is also the record's grid.
//! Direct conflicts need no pass: under valid rules a feature's own pair
//! is never one.

use crate::assign::propagate;
use crate::phase_geom::{
    classify_features, feature_grid, record_scan, scan_pair, shifter_rects, spacing_sq, Corridor,
};
use crate::transform::CutMap;
use crate::{
    AssignabilityWitness, DesignRules, FeatureOrientation, PhaseAssignment, PhaseGeometry,
    ScanRecord, Side, SpaceCut,
};
use aapsm_geom::{Axis, Rect};

/// Why [`certify_cuts`] could not verify a corrected layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertificateRefusal {
    /// The rules fail [`DesignRules::validate`].
    InvalidRules,
    /// A cut has a negative width, or lies strictly inside a critical
    /// feature's width span, and would widen it.
    IllegalCuts,
    /// A corrected overlap's shifters are still closer than the spacing
    /// rule after the cuts.
    StillClose {
        /// Index of the overlap in the pre-cut geometry.
        overlap: usize,
    },
    /// A close shifter pair whose corridor was blocked is clear after the
    /// cuts: the corrected layout has a merge constraint the pre-cut one
    /// did not.
    Unblocked {
        /// First shifter index (`a < b`).
        a: usize,
        /// Second shifter index.
        b: usize,
    },
    /// The pre-cut constraints less the corrected overlaps are not
    /// phase-assignable.
    Inconsistent(AssignabilityWitness),
}

/// Verifies that the layout `cuts` make of the one `geom` was extracted
/// from is phase-assignable once the overlaps `corrected` (indices into
/// [`PhaseGeometry::overlaps`]) are gone, and returns a phase assignment
/// of it, indexed by the unchanged shifter ids. `record` must be the
/// [`ScanRecord`] of the extraction that produced `geom`.
///
/// It runs no extraction, grid build or pair scan. The checks, proven
/// sound in the module docs: every corrected overlap's post-cut gap,
/// computed through the cut prefix sums, is at least the spacing; no
/// blocked pair that is still close after the cuts is clear; and the
/// propagation over the pre-cut constraints less `corrected` succeeds.
/// Then [`check_assignable`](crate::check_assignable) on the re-extracted
/// corrected layout succeeds too, and the returned assignment satisfies
/// that geometry.
///
/// # Errors
///
/// The first [`CertificateRefusal`] met. A refusal is not a verdict: the
/// corrected layout may still be assignable, and the caller re-extracts
/// it to decide.
///
/// # Panics
///
/// If `corrected` holds an index past `geom.overlaps`.
pub fn certify_cuts(
    geom: &PhaseGeometry,
    record: &ScanRecord,
    rules: &DesignRules,
    cuts: &[SpaceCut],
    corrected: &[usize],
) -> Result<PhaseAssignment, CertificateRefusal> {
    if rules.validate().is_err() {
        return Err(CertificateRefusal::InvalidRules);
    }
    let map = CutMap::new(cuts);
    if !legal(geom, &map, cuts) {
        return Err(CertificateRefusal::IllegalCuts);
    }
    let mut post = PostCut {
        geom,
        rules,
        map,
        features: vec![None; geom.features.len()],
    };
    let spacing_sq = spacing_sq(rules);

    let mut removed = vec![false; geom.overlaps.len()];
    for &oi in corrected {
        let o = &geom.overlaps[oi];
        if post.shifter(o.a).euclid_gap_sq(&post.shifter(o.b)) < spacing_sq {
            return Err(CertificateRefusal::StillClose { overlap: oi });
        }
        removed[oi] = true;
    }

    for &(a, b) in &record.blocked {
        let (a, b) = (a as usize, b as usize);
        let (pa, pb) = (post.shifter(a), post.shifter(b));
        if pa.euclid_gap_sq(&pb) >= spacing_sq {
            continue;
        }
        let hull = geom.shifters[a].rect.hull(&geom.shifters[b].rect);
        let query = (hull.x_lo(), hull.y_lo(), hull.x_hi(), hull.y_hi());
        let blocked = Corridor::between(&pa, &pb, rules).is_some_and(|corridor| {
            corridor.blocked(|visit| {
                record
                    .feature_grid
                    .query(query, |fi| visit(&post.feature(fi as usize)))
            })
        });
        if !blocked {
            return Err(CertificateRefusal::Unblocked { a, b });
        }
    }

    propagate(geom, |oi| removed[oi]).map_err(CertificateRefusal::Inconsistent)
}

/// Whether fact (a) of the module docs covers `cuts`: none has a
/// negative width, and none lies strictly inside a critical feature's
/// width span.
fn legal(geom: &PhaseGeometry, map: &CutMap, cuts: &[SpaceCut]) -> bool {
    let widened = |f: &crate::Feature| {
        let width_axis = match f.orientation {
            FeatureOrientation::Vertical => Axis::X,
            FeatureOrientation::Horizontal => Axis::Y,
        };
        let span = f.rect.span(width_axis);
        f.critical && map.splits(width_axis, span.lo(), span.hi())
    };
    cuts.iter().all(|c| c.width >= 0) && !geom.features.iter().any(widened)
}

/// What [`derive_cut_geometry`] returns: the corrected layout's
/// extraction, and how much of the pre-cut scan carried over.
#[derive(Debug)]
pub struct CutDerivation {
    /// The corrected layout's geometry.
    pub geometry: PhaseGeometry,
    /// The corrected layout's scan record.
    pub record: ScanRecord,
    /// Pre-cut close pairs (overlaps and blocked pairs) that no cut
    /// touches: their verdicts, gaps and weights carried over.
    pub kept_pairs: usize,
    /// Pre-cut close pairs that a cut touches, re-tested on the corrected
    /// geometry.
    pub retested_pairs: usize,
}

/// The extraction of the layout `cuts` make of the one `geom` was
/// extracted from, derived without a pair scan. `record` must be the
/// [`ScanRecord`] of the extraction that produced `geom`.
///
/// The geometry and record are exactly what
/// [`extract_phase_geometry_recorded`](crate::extract_phase_geometry_recorded)
/// returns for `apply_cuts(layout, cuts)`, at every parallelism degree.
/// The derivation classifies the mapped features, rebuilds the feature
/// grid over them, keeps every pre-cut close pair whose shifters' hull no
/// cut touches, and re-tests the others with extraction's per-pair test;
/// the proof is in the module docs.
///
/// Returns `None` where that proof does not hold: the rules fail
/// [`DesignRules::validate`], or a cut has a negative width or lies
/// strictly inside a critical feature's width span. The caller then
/// extracts.
pub fn derive_cut_geometry(
    geom: &PhaseGeometry,
    record: &ScanRecord,
    rules: &DesignRules,
    cuts: &[SpaceCut],
) -> Option<CutDerivation> {
    let map = CutMap::new(cuts);
    if rules.validate().is_err() || !legal(geom, &map, cuts) {
        return None;
    }
    let rects: Vec<Rect> = geom.features.iter().map(|f| map.rect(&f.rect)).collect();
    let mut post = classify_features(&rects, rules);
    debug_assert!(
        geom.features.iter().zip(&post.features).all(|(pre, post)| {
            pre.critical == post.critical && (!pre.critical || pre.orientation == post.orientation)
        }),
        "fact (a): legal cuts keep every feature's criticality and critical orientation"
    );
    let grid = feature_grid(&post.features);
    let spacing_sq = spacing_sq(rules);
    let touched =
        |a: usize, b: usize| map.touches(&geom.shifters[a].rect.hull(&geom.shifters[b].rect));
    let retest = |a: usize, b: usize| {
        scan_pair(
            &post.shifters,
            &post.features,
            &grid,
            rules,
            spacing_sq,
            a,
            b,
        )
    };
    let (mut overlaps, mut blocked, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    overlaps.reserve_exact(geom.overlaps.len());
    blocked.reserve_exact(record.blocked.len());
    let mut retested_pairs = 0;
    for o in &geom.overlaps {
        if touched(o.a, o.b) {
            retested_pairs += 1;
            hits.extend(retest(o.a, o.b));
        } else {
            overlaps.push(*o);
        }
    }
    for &(a, b) in &record.blocked {
        if touched(a as usize, b as usize) {
            retested_pairs += 1;
            hits.extend(retest(a as usize, b as usize));
        } else {
            blocked.push((a, b));
        }
    }
    let kept_pairs = overlaps.len() + blocked.len();
    post.overlaps = overlaps;
    let (geometry, record) = record_scan(post, grid, blocked, hits);
    Some(CutDerivation {
        geometry,
        record,
        kept_pairs,
        retested_pairs,
    })
}

/// The corrected layout's features and shifters, derived from the
/// pre-cut ones on first use: the corrected and re-tested pairs share
/// most of their features.
struct PostCut<'a> {
    geom: &'a PhaseGeometry,
    rules: &'a DesignRules,
    map: CutMap,
    /// Mapped feature rects, by feature index.
    features: Vec<Option<Rect>>,
}

impl PostCut<'_> {
    fn feature(&mut self, fi: usize) -> Rect {
        let (map, geom) = (&self.map, self.geom);
        *self.features[fi].get_or_insert_with(|| map.rect(&geom.features[fi].rect))
    }

    /// Shifter `s` of the corrected layout: derived from its mapped
    /// feature, not mapped itself (see (a) of the module docs).
    fn shifter(&mut self, s: usize) -> Rect {
        let shifter = self.geom.shifters[s];
        let f = &self.geom.features[shifter.feature];
        let (low, high) = shifter_rects(&self.feature(shifter.feature), f.orientation, self.rules);
        match shifter.side {
            Side::Low => low,
            Side::High => high,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        apply_cuts, check_assignable, extract_phase_geometry, extract_phase_geometry_recorded,
        fixtures, Layout,
    };

    fn rules() -> DesignRules {
        DesignRules::default()
    }

    fn cut(axis: Axis, position: i64, width: i64) -> SpaceCut {
        SpaceCut {
            axis,
            position,
            width,
        }
    }

    /// `certify_cuts` with nothing corrected, checked against the
    /// re-extraction: a verified certificate's assignment satisfies it.
    fn certify_and_check(layout: &Layout, cuts: &[SpaceCut]) -> Result<(), CertificateRefusal> {
        let rules = rules();
        let (geom, record) = extract_phase_geometry_recorded(layout, &rules, 1);
        let verdict = certify_cuts(&geom, &record, &rules, cuts, &[]);
        let post = extract_phase_geometry(&apply_cuts(layout, cuts), &rules);
        if let Ok(a) = &verdict {
            assert!(a.satisfies(&post), "cuts {cuts:?}");
            assert!(check_assignable(&post).is_ok(), "cuts {cuts:?}");
        }
        verdict.map(|_| ())
    }

    #[test]
    fn the_scan_records_the_blocked_close_pairs() {
        // Wire B's body fills the corridor of A_high (1) to B_high (3),
        // and wire A's that of A_low (0) to B_low (2).
        let layout = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 1000),
            Rect::new(400, 0, 500, 1000),
        ]);
        let (geom, record) = extract_phase_geometry_recorded(&layout, &rules(), 1);
        assert_eq!(record.blocked, vec![(0, 2), (1, 3)]);
        assert_eq!(geom, extract_phase_geometry(&layout, &rules()));
    }

    #[test]
    fn a_cut_through_the_latent_corridor_is_refused() {
        // The x = 950 cut stretches H1/H2 past M's end and opens their
        // corridor: the re-extraction merges them into an odd cycle.
        let layout = fixtures::corridor_unblock_latent(&rules());
        let cuts = [cut(Axis::X, 950, 100)];
        let post = extract_phase_geometry(&apply_cuts(&layout, &cuts), &rules());
        assert!(check_assignable(&post).is_err());
        let Err(CertificateRefusal::Unblocked { a, b }) = certify_and_check(&layout, &cuts) else {
            panic!("the unblocked corridor must be refused");
        };
        assert!(post.overlaps.iter().any(|o| (o.a, o.b) == (a, b)));
        // A cut far from every corridor changes nothing.
        assert_eq!(
            certify_and_check(&layout, &[cut(Axis::X, 5000, 100)]),
            Ok(())
        );
    }

    #[test]
    fn a_cut_through_a_critical_width_is_illegal() {
        let layout = fixtures::wire_row(3, 600);
        assert_eq!(
            certify_and_check(&layout, &[cut(Axis::X, 650, 10)]),
            Err(CertificateRefusal::IllegalCuts)
        );
        assert_eq!(
            certify_and_check(&layout, &[cut(Axis::X, 700, -10)]),
            Err(CertificateRefusal::IllegalCuts)
        );
        // On an edge of the span, the cut moves the wire without widening.
        assert_eq!(certify_and_check(&layout, &[cut(Axis::X, 700, 10)]), Ok(()));
    }

    #[test]
    fn an_under_sized_cut_leaves_the_corrected_pair_close() {
        // Gate over strap: the strap's top shifter merges with both gate
        // shifters. A horizontal space between them corrects both
        // overlaps only once it is wide enough.
        let rules = rules();
        let layout = fixtures::gate_over_strap(&rules);
        let (geom, record) = extract_phase_geometry_recorded(&layout, &rules, 1);
        let corrected: Vec<usize> = (0..geom.overlaps.len()).collect();
        let deficit = geom.overlaps.iter().map(|o| o.weight).max().unwrap();
        let wide = [cut(Axis::Y, 300, deficit)];
        assert!(certify_cuts(&geom, &record, &rules, &wide, &corrected).is_ok());
        let narrow = [cut(Axis::Y, 300, deficit - 1)];
        assert!(matches!(
            certify_cuts(&geom, &record, &rules, &narrow, &corrected),
            Err(CertificateRefusal::StillClose { .. })
        ));
        // Nothing corrected: the odd cycle stays.
        assert!(matches!(
            certify_cuts(&geom, &record, &rules, &wide, &[]),
            Err(CertificateRefusal::Inconsistent(_))
        ));
    }
}
