use crate::{DesignRules, Layout};
use aapsm_geom::{Axis, GridIndex, Rect};

/// Orientation of a feature (which sides its shifters flank).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FeatureOrientation {
    /// Taller than wide (or square): shifters at left and right.
    Vertical,
    /// Wider than tall: shifters below and above.
    Horizontal,
}

/// Which side of its feature a shifter flanks, along the flanking axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Left (vertical features) or bottom (horizontal features).
    Low,
    /// Right (vertical features) or top (horizontal features).
    High,
}

/// A layout feature with its criticality classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Feature {
    /// The feature's rectangle.
    pub rect: Rect,
    /// Orientation (decides shifter placement).
    pub orientation: FeatureOrientation,
    /// Whether the feature is critical (gets shifters).
    pub critical: bool,
    /// Indices of the two flanking shifters `(low, high)` when critical.
    pub shifters: Option<(usize, usize)>,
}

/// A phase shifter flanking a critical feature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shifter {
    /// The shifter's rectangle.
    pub rect: Rect,
    /// Index of the feature it flanks.
    pub feature: usize,
    /// Which side of the feature it flanks.
    pub side: Side,
}

/// A pair of shifters that violates the shifter spacing rule through clear
/// area and must therefore be merged (same phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlapPair {
    /// First shifter index (`a < b`).
    pub a: usize,
    /// Second shifter index.
    pub b: usize,
    /// Signed horizontal gap between the shifter rects. When it is
    /// `>= 0`, a vertical end-to-end space (at some x between the
    /// shifters) can correct the pair; touching pairs (gap 0) count, since
    /// the cut line passes exactly along the contact plane.
    pub gap_x: i64,
    /// Signed vertical gap; `>= 0` when a horizontal end-to-end space can
    /// correct the pair.
    pub gap_y: i64,
    /// Layout-impact weight: the spacing deficit (how much extra space
    /// would separate the pair), at least 1.
    pub weight: i64,
}

/// A same-feature contradiction: the two shifters of one critical feature
/// also violate the spacing rule around the feature's line ends, forcing
/// "same phase" and "opposite phase" simultaneously. These are emitted
/// directly as conflicts (they correspond to the degenerate odd 3-cycles
/// the paper's graph would otherwise contain as parallel constraints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectConflict {
    /// The feature whose shifters contradict.
    pub feature: usize,
    /// The spacing deficit weight of the violating interaction.
    pub weight: i64,
}

/// The complete phase geometry extracted from a layout: features,
/// shifters, and merge (overlap) constraints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseGeometry {
    /// All features, in layout rectangle order.
    pub features: Vec<Feature>,
    /// All generated shifters.
    pub shifters: Vec<Shifter>,
    /// All merge constraints between shifters of different features.
    pub overlaps: Vec<OverlapPair>,
    /// Degenerate same-feature contradictions.
    pub direct_conflicts: Vec<DirectConflict>,
}

impl PhaseGeometry {
    /// Number of critical features.
    pub fn critical_count(&self) -> usize {
        self.features.iter().filter(|f| f.critical).count()
    }
}

/// Classifies features, generates shifters and extracts merge constraints.
///
/// The shifter spacing rule is evaluated *through clear area*: a pair of
/// shifters closer than [`DesignRules::shifter_spacing`] is exempt when a
/// feature body fills (part of) the straight corridor between them — this
/// is what keeps a feature's own two shifters, and facing-shifter pairs
/// separated by an intervening line, from being spuriously merged, while
/// preserving the paper's conflict classes (shared shifters at line
/// crossings, line-end jogs, short middle lines).
pub fn extract_phase_geometry(layout: &Layout, rules: &DesignRules) -> PhaseGeometry {
    extract_phase_geometry_par(layout, rules, 1)
}

/// One hit of the merge-constraint scan, tagged by kind so the sharded
/// traversal can stream both outputs through one buffer.
enum ScanHit {
    Overlap(OverlapPair),
    Direct(DirectConflict),
}

/// [`extract_phase_geometry`] with an explicit parallelism degree (`0` =
/// one worker per CPU, `1` = serial, `k` = at most `k` workers).
///
/// Feature classification, shifter generation and the two spatial
/// indices (shifter probes and feature bodies, each one
/// [`aapsm_geom::GridIndex::build`]) are a sequential pass; the
/// merge-constraint scan — the extraction hot path on full-chip inputs —
/// runs over contiguous bands of occupied grid cells on worker threads
/// ([`aapsm_geom::GridIndex::par_collect_pairs`]), with per-band buffers
/// merged in band order. The result is **bit-identical to serial** at
/// every parallelism degree.
pub fn extract_phase_geometry_par(
    layout: &Layout,
    rules: &DesignRules,
    parallelism: usize,
) -> PhaseGeometry {
    let mut geom = classify_features(layout, rules);
    let radius = rules.interaction_radius();
    let probes: Vec<_> = geom
        .shifters
        .iter()
        .map(|s| shifter_probe(s, radius))
        .collect();
    let bodies: Vec<_> = geom.features.iter().map(feature_box).collect();
    let shifter_grid = GridIndex::build(GridIndex::cell_for(&probes), probes);
    let feature_grid = GridIndex::build(GridIndex::cell_for(&bodies), bodies);

    let spacing_sq = (rules.shifter_spacing as i128) * (rules.shifter_spacing as i128);
    let shifters = &geom.shifters;
    let features = &geom.features;
    let hits = shifter_grid.par_collect_pairs(parallelism, |ia, ib| {
        scan_pair(
            shifters,
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
    geom
}

/// The cheap sequential pass: feature classification and shifter
/// generation (no merge constraints yet).
fn classify_features(layout: &Layout, rules: &DesignRules) -> PhaseGeometry {
    let mut geom = PhaseGeometry::default();
    for (i, &rect) in layout.rects().iter().enumerate() {
        let orientation = if rect.height() >= rect.width() {
            FeatureOrientation::Vertical
        } else {
            FeatureOrientation::Horizontal
        };
        let critical = rect.min_dim() <= rules.critical_width;
        let shifters = critical.then(|| {
            let (w, o) = (rules.shifter_width, rules.shifter_overhang);
            let (low, high) = match orientation {
                FeatureOrientation::Vertical => (
                    Rect::new(
                        rect.x_lo() - w,
                        rect.y_lo() - o,
                        rect.x_lo(),
                        rect.y_hi() + o,
                    ),
                    Rect::new(
                        rect.x_hi(),
                        rect.y_lo() - o,
                        rect.x_hi() + w,
                        rect.y_hi() + o,
                    ),
                ),
                FeatureOrientation::Horizontal => (
                    Rect::new(
                        rect.x_lo() - o,
                        rect.y_lo() - w,
                        rect.x_hi() + o,
                        rect.y_lo(),
                    ),
                    Rect::new(
                        rect.x_lo() - o,
                        rect.y_hi(),
                        rect.x_hi() + o,
                        rect.y_hi() + w,
                    ),
                ),
            };
            let lo_id = geom.shifters.len();
            geom.shifters.push(Shifter {
                rect: low,
                feature: i,
                side: Side::Low,
            });
            geom.shifters.push(Shifter {
                rect: high,
                feature: i,
                side: Side::High,
            });
            (lo_id, lo_id + 1)
        });
        geom.features.push(Feature {
            rect,
            orientation,
            critical,
            shifters,
        });
    }
    geom
}

/// The probe box a shifter is indexed under: its rect inflated by
/// `⌈radius / 2⌉`.
///
/// Two probes touch iff the rects' L∞ gap is at most `2⌈radius / 2⌉`,
/// which is at least `radius`. A pair that can violate the spacing rule
/// has a Euclidean gap below `radius`, so its L∞ gap is below it too,
/// and its probes touch. Half-probes still find every such pair, from
/// fewer candidates than probes inflated by the whole radius (82,067
/// against 146,400 on the d6 chip, for 81,112 close pairs).
fn shifter_probe(s: &Shifter, radius: i64) -> (i64, i64, i64, i64) {
    let probe = s.rect.inflate((radius + 1) / 2);
    (probe.x_lo(), probe.y_lo(), probe.x_hi(), probe.y_hi())
}

/// The box a feature is indexed under (its own rect).
fn feature_box(f: &Feature) -> (i64, i64, i64, i64) {
    (f.rect.x_lo(), f.rect.y_lo(), f.rect.x_hi(), f.rect.y_hi())
}

/// The merge-constraint verdict for one candidate shifter pair: `None`
/// when the pair is spaced or its corridor is blocked, otherwise the
/// overlap (or same-feature direct conflict) it induces.
///
/// This is *the* per-pair scan logic — the sharded sweep and the
/// all-pairs test oracle both call it, so their verdicts cannot drift
/// apart. It is a pure function of the pair's geometry and the feature
/// set; neither candidate enumeration order nor feature-grid internal
/// ordering can change its result (covered spans are re-sorted inside
/// `corridor_blocked`).
///
/// The grid reports only pairs whose probes touch, and nearly all of
/// those (98.8 % on d6) are within the spacing rule, so the spacing test
/// reads the shifter rects directly.
fn scan_pair(
    shifters: &[Shifter],
    features: &[Feature],
    feature_grid: &GridIndex,
    rules: &DesignRules,
    spacing_sq: i128,
    a: usize,
    b: usize,
) -> Option<ScanHit> {
    let (sa, sb) = (shifters[a], shifters[b]);
    if sa.rect.euclid_gap_sq(&sb.rect) >= spacing_sq {
        return None;
    }
    if corridor_blocked(features, feature_grid, rules, &sa, &sb) {
        return None;
    }
    let gap_x = sa.rect.x_gap(&sb.rect);
    let gap_y = sa.rect.y_gap(&sb.rect);
    let weight = (rules.shifter_spacing - gap_x.max(gap_y)).max(1);
    Some(if sa.feature == sb.feature {
        ScanHit::Direct(DirectConflict {
            feature: sa.feature,
            weight,
        })
    } else {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        ScanHit::Overlap(OverlapPair {
            a,
            b,
            gap_x,
            gap_y,
            weight,
        })
    })
}

/// Sorts the scanned constraints into the canonical order extraction
/// emits: overlaps ascending by shifter pair, direct conflicts ascending
/// by feature. Both keys are unique (the grid traversal visits each pair
/// once), so the order is a pure function of the constraint *set*: no
/// parallelism degree or band order can change the bytes.
fn canonicalize_constraints(geom: &mut PhaseGeometry) {
    geom.overlaps.sort_by_key(|o| (o.a, o.b));
    geom.direct_conflicts.sort_by_key(|d| d.feature);
}

/// Whether the straight corridor between two nearby shifters is blocked by
/// feature bodies (so the spacing rule does not apply to the pair).
///
/// The corridor is the gap interval along the separating axis times the
/// overlap of the shifters' spans on the perpendicular axis. The pair is
/// blocked when, after subtracting the perpendicular spans of every
/// feature intersecting the corridor, no *contiguous clear sightline*
/// longer than the line-end exemption (2 × shifter overhang) remains.
///
/// Consequences, matching the paper's conflict taxonomy:
///
/// * a feature's own two shifters are blocked by the feature itself (only
///   the overhang slivers wrap around its line ends, and those are
///   exempted — the paper excludes line-end conflicts as DRC-handled);
/// * facing shifter pairs across an intervening line are blocked;
/// * a shifter facing two others past a *short* middle line keeps a long
///   clear sightline and stays constrained;
/// * diagonal / corner interactions (no meaningful perpendicular overlap)
///   are never blocked.
fn corridor_blocked(
    features: &[Feature],
    feature_grid: &GridIndex,
    rules: &DesignRules,
    sa: &Shifter,
    sb: &Shifter,
) -> bool {
    let gap_x = sa.rect.x_gap(&sb.rect);
    let gap_y = sa.rect.y_gap(&sb.rect);
    let axis = if gap_x > 0 && gap_y <= 0 {
        Axis::X
    } else if gap_y > 0 && gap_x <= 0 {
        Axis::Y
    } else {
        // Overlapping/touching (both <= 0) or diagonal (both > 0): no
        // corridor to block.
        return false;
    };
    let exemption = 2 * rules.shifter_overhang;
    let (lo_rect, hi_rect) = if sa.rect.span(axis).lo() <= sb.rect.span(axis).lo() {
        (&sa.rect, &sb.rect)
    } else {
        (&sb.rect, &sa.rect)
    };
    let along = aapsm_geom::Interval::new(lo_rect.span(axis).hi(), hi_rect.span(axis).lo());
    let perp = match sa
        .rect
        .span(axis.perp())
        .intersect(&sb.rect.span(axis.perp()))
    {
        Some(iv) => iv,
        None => return false,
    };
    if perp.len() <= exemption {
        // Corner-scale interaction: nothing meaningful can block it.
        return false;
    }
    let corridor = match axis {
        Axis::X => Rect::from_corners(
            aapsm_geom::Point::new(along.lo(), perp.lo()),
            aapsm_geom::Point::new(along.hi(), perp.hi()),
        ),
        Axis::Y => Rect::from_corners(
            aapsm_geom::Point::new(perp.lo(), along.lo()),
            aapsm_geom::Point::new(perp.hi(), along.hi()),
        ),
    };
    let Some(corridor) = corridor else {
        // Zero-length gap: the pair effectively touches.
        return false;
    };
    COVERED.with_borrow_mut(|covered| {
        // Collect the perpendicular spans covered by features in the
        // corridor.
        covered.clear();
        feature_grid.query(
            (
                corridor.x_lo(),
                corridor.y_lo(),
                corridor.x_hi(),
                corridor.y_hi(),
            ),
            |fi| {
                let rect = &features[fi as usize].rect;
                if rect.overlaps(&corridor) {
                    let span = rect.span(axis.perp());
                    covered.push((span.lo().max(perp.lo()), span.hi().min(perp.hi())));
                }
            },
        );
        if covered.is_empty() {
            return false;
        }
        covered.sort_unstable();
        // Longest clear stretch of the perpendicular interval.
        let mut max_clear = 0i64;
        let mut cursor = perp.lo();
        for &(lo, hi) in covered.iter() {
            if lo > cursor {
                max_clear = max_clear.max(lo - cursor);
            }
            cursor = cursor.max(hi);
        }
        max_clear = max_clear.max(perp.hi() - cursor);
        max_clear <= exemption
    })
}

std::thread_local! {
    /// [`corridor_blocked`]'s covered spans, one buffer per thread: the
    /// pair scan calls it for every close pair (81 K on the d6 chip, on
    /// every scan worker), and a fresh `Vec` per call cost an allocation
    /// each.
    static COVERED: std::cell::RefCell<Vec<(i64, i64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> DesignRules {
        DesignRules::default()
    }

    /// A single vertical critical wire.
    fn wire(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::new(x, y, x + w, y + h)
    }

    #[test]
    fn critical_feature_gets_two_shifters() {
        let l = Layout::from_rects(vec![wire(0, 0, 100, 1000)]);
        let g = extract_phase_geometry(&l, &rules());
        assert_eq!(g.shifters.len(), 2);
        assert_eq!(g.features[0].shifters, Some((0, 1)));
        let (lo, hi) = (g.shifters[0], g.shifters[1]);
        assert_eq!(lo.side, Side::Low);
        assert_eq!(lo.rect, Rect::new(-200, -100, 0, 1100));
        assert_eq!(hi.rect, Rect::new(100, -100, 300, 1100));
        // Own shifters are separated by the feature: no direct conflict.
        assert!(g.direct_conflicts.is_empty());
        assert!(g.overlaps.is_empty());
    }

    #[test]
    fn wide_feature_is_not_critical() {
        let l = Layout::from_rects(vec![Rect::new(0, 0, 400, 900)]);
        let g = extract_phase_geometry(&l, &rules());
        assert_eq!(g.critical_count(), 0);
        assert!(g.shifters.is_empty());
    }

    #[test]
    fn horizontal_feature_shifters_above_and_below() {
        let l = Layout::from_rects(vec![Rect::new(0, 0, 1000, 100)]);
        let g = extract_phase_geometry(&l, &rules());
        let lo = g.shifters[0];
        assert_eq!(lo.rect, Rect::new(-100, -200, 1100, 0));
        assert_eq!(g.shifters[1].rect, Rect::new(-100, 100, 1100, 300));
    }

    #[test]
    fn facing_shifters_of_adjacent_wires_merge() {
        // Pitch 500 (edge to edge): facing shifters gap = 500 - 400 = 100
        // < 280 -> merge; far shifters blocked by the wire bodies.
        let l = Layout::from_rects(vec![wire(0, 0, 100, 1000), wire(600, 0, 100, 1000)]);
        let g = extract_phase_geometry(&l, &rules());
        assert_eq!(g.overlaps.len(), 1);
        let o = g.overlaps[0];
        // Shifter 1 is wire 0's High (right); shifter 2 is wire 1's Low.
        assert_eq!((o.a, o.b), (1, 2));
        assert_eq!(o.gap_x, 100);
        assert_eq!(o.weight, 280 - 100);
        assert!(o.gap_x >= 0, "a vertical space corrects the pair");
        assert!(o.gap_y < 0, "a horizontal space cannot");
    }

    #[test]
    fn far_wires_do_not_interact() {
        let l = Layout::from_rects(vec![wire(0, 0, 100, 1000), wire(2000, 0, 100, 1000)]);
        let g = extract_phase_geometry(&l, &rules());
        assert!(g.overlaps.is_empty());
    }

    #[test]
    fn feature_body_blocks_cross_pair() {
        // Tight pitch 300: A_high and B_high are 200 apart along x, but
        // wire B's body fills that corridor, so only the facing pair and
        // possibly diagonal interactions merge.
        let l = Layout::from_rects(vec![wire(0, 0, 100, 1000), wire(400, 0, 100, 1000)]);
        let g = extract_phase_geometry(&l, &rules());
        // Facing pair (A_high=1, B_low=2) overlaps geometrically.
        assert!(g.overlaps.iter().any(|o| (o.a, o.b) == (1, 2)));
        // A_high (1) to B_high (3): corridor crosses B's body: blocked.
        assert!(!g.overlaps.iter().any(|o| (o.a, o.b) == (1, 3)));
        // A_low (0) to B_low (2): corridor crosses A's body: blocked.
        assert!(!g.overlaps.iter().any(|o| (o.a, o.b) == (0, 2)));
    }

    #[test]
    fn gate_over_strap_shares_one_shifter_with_both_gate_shifters() {
        let r = rules();
        // Horizontal strap below a vertical gate; gate bottom 400 above
        // the strap top: strap_high spans up to strap.y+200; gate shifters
        // reach down to gate.y_lo - 100; vertical gap = 400-200-100 = 100
        // < 280 -> both gate shifters merge with the strap's top shifter.
        let strap = Rect::new(-1000, 0, 1000, 100);
        let gate = Rect::new(-50, 500, 50, 1500);
        let l = Layout::from_rects(vec![strap, gate]);
        let g = extract_phase_geometry(&l, &r);
        // strap shifters 0 (low) 1 (high); gate shifters 2 (low) 3 (high)
        let has = |a, b| g.overlaps.iter().any(|o| (o.a, o.b) == (a, b));
        assert!(has(1, 2), "strap top ~ gate left: {:?}", g.overlaps);
        assert!(has(1, 3), "strap top ~ gate right");
        // No contradiction within one feature.
        assert!(g.direct_conflicts.is_empty());
    }

    #[test]
    fn line_end_jog_interacts_diagonally() {
        // Two stacked vertical wires with a horizontal jog: the upper
        // wire's low shifter reaches down past the lower wire's high
        // shifter corner-to-corner.
        let lower = wire(0, 0, 100, 1000);
        let upper = wire(360, 1200, 100, 1000);
        let l = Layout::from_rects(vec![lower, upper]);
        let g = extract_phase_geometry(&l, &rules());
        // lower_high (1) spans x [100,300], y [-100,1100];
        // upper_low (2) spans x [160,360], y [1100,2300]: they touch in y
        // and overlap in x -> merge pair.
        assert!(g.overlaps.iter().any(|o| (o.a, o.b) == (1, 2)));
    }

    #[test]
    fn overlapping_shifters_have_weight_above_spacing() {
        // Deeply interpenetrating shifters (pitch 240 -> facing shifters
        // overlap by 160): weight = spacing - max(gap) where gap is
        // negative.
        let l = Layout::from_rects(vec![wire(0, 0, 100, 1000), wire(340, 0, 100, 1000)]);
        let g = extract_phase_geometry(&l, &rules());
        let o = g
            .overlaps
            .iter()
            .find(|o| (o.a, o.b) == (1, 2))
            .expect("facing pair merges");
        assert_eq!(o.gap_x, -160);
        // gap_y is negative too (same y span): weight = 280 - max(-160, gap_y).
        assert!(o.weight > 280);
        assert!(o.gap_x < 0, "a vertical space cannot correct the pair");
    }

    #[test]
    fn parallel_extraction_is_bit_identical() {
        let r = rules();
        let l = crate::synth::generate(
            &crate::synth::SynthParams {
                rows: 2,
                gates_per_row: 40,
                strap_frac: 0.6,
                jog_frac: 0.08,
                short_mid_frac: 0.06,
                ..Default::default()
            },
            &r,
        );
        let serial = extract_phase_geometry(&l, &r);
        for parallelism in [0usize, 2, 4, 8] {
            assert_eq!(
                extract_phase_geometry_par(&l, &r, parallelism),
                serial,
                "parallelism {parallelism}"
            );
        }
    }

    /// All-pairs oracle: every shifter pair through [`scan_pair`], with
    /// corridors answered by a feature grid of one cell.
    fn extract_all_pairs(layout: &Layout, rules: &DesignRules) -> PhaseGeometry {
        let mut geom = classify_features(layout, rules);
        let feature_grid = GridIndex::build(1 << 40, geom.features.iter().map(feature_box));
        let spacing_sq = (rules.shifter_spacing as i128).pow(2);
        let n = geom.shifters.len();
        let mut hits = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                hits.extend(scan_pair(
                    &geom.shifters,
                    &geom.features,
                    &feature_grid,
                    rules,
                    spacing_sq,
                    a,
                    b,
                ));
            }
        }
        for hit in hits {
            match hit {
                ScanHit::Overlap(o) => geom.overlaps.push(o),
                ScanHit::Direct(d) => geom.direct_conflicts.push(d),
            }
        }
        canonicalize_constraints(&mut geom);
        geom
    }

    /// A random layout of critical wires: scattered short ones, a few
    /// many times longer than the median (their probes span many grid
    /// cells), and wire pairs whose facing shifters sit at an L∞ gap of
    /// `r - 1`, `r` or `r + 1`, straight across or diagonally.
    fn random_gap_layout(seed: u64, rules: &DesignRules) -> Layout {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (r, w) = (rules.shifter_spacing, rules.shifter_width);
        let mut rects = Vec::new();
        let wire = |rng: &mut rand::rngs::StdRng, x: i64, y: i64, len: i64| {
            let width = rng.gen_range(40..=rules.critical_width);
            if rng.gen_bool(0.5) {
                Rect::new(x, y, x + width, y + len)
            } else {
                Rect::new(x, y, x + len, y + width)
            }
        };
        for _ in 0..40 {
            let (x, y) = (rng.gen_range(-8000..8000), rng.gen_range(-8000..8000));
            let len = rng.gen_range(200..1200);
            rects.push(wire(&mut rng, x, y, len));
        }
        for _ in 0..4 {
            let (x, y) = (rng.gen_range(-8000..8000), rng.gen_range(-8000..8000));
            let len = rng.gen_range(10_000..16_000);
            rects.push(wire(&mut rng, x, y, len));
        }
        for _ in 0..30 {
            // Two vertical wires: the right one's low shifter starts
            // `gap` past the left one's high shifter.
            let (x, y) = (rng.gen_range(-8000..8000), rng.gen_range(-8000..8000));
            let (width, len) = (rng.gen_range(40..=rules.critical_width), 1000);
            let gap = r + rng.gen_range(-1..=1);
            let left = Rect::new(x, y, x + width, y + len);
            let x2 = x + width + w + gap + w;
            // Straight across, or shifted up so the y gap is in `0..=gap`.
            let dy = if rng.gen_bool(0.5) {
                rng.gen_range(-len / 2..len / 2)
            } else {
                len + 2 * rules.shifter_overhang + rng.gen_range(0..=gap)
            };
            rects.push(left);
            rects.push(Rect::new(x2, y + dy, x2 + width, y + dy + len));
        }
        Layout::from_rects(rects)
    }

    #[test]
    fn extraction_finds_every_pair_the_all_pairs_oracle_finds() {
        for spacing in [279, 280, 281] {
            let rules = DesignRules {
                shifter_spacing: spacing,
                ..rules()
            };
            let mut overlaps = 0;
            for seed in 0..12 {
                let layout = random_gap_layout(seed, &rules);
                let oracle = extract_all_pairs(&layout, &rules);
                assert_eq!(
                    extract_phase_geometry(&layout, &rules),
                    oracle,
                    "spacing {spacing} seed {seed}"
                );
                overlaps += oracle.overlaps.len();
            }
            assert!(overlaps > 0, "spacing {spacing}: no pair merged");
        }
    }

    #[test]
    fn square_feature_treated_as_vertical() {
        let l = Layout::from_rects(vec![Rect::new(0, 0, 100, 100)]);
        let g = extract_phase_geometry(&l, &rules());
        assert_eq!(g.features[0].orientation, FeatureOrientation::Vertical);
        assert_eq!(g.shifters.len(), 2);
    }
}
