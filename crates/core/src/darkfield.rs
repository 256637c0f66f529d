//! Dark-field AAPSM extension.
//!
//! The paper's Section 2 reviews the dark-field formulation of Kahng et
//! al. \[5\]: in dark-field AAPSM the *features themselves* are phase
//! shifted, so two critical features closer than the minimum opposite-phase
//! spacing `b` must receive opposite phases, and the layout is assignable
//! iff the **conflict graph** (features = nodes, close pairs = edges) is
//! bipartite. The same optimal machinery applies: planarize the straight
//! line drawing, bipartize via the dual T-join, and the deleted edges are
//! the conflicts to fix by spacing.
//!
//! This module reuses the whole pipeline for that setting — the paper's
//! lineage in ~100 lines, and a useful second consumer of the graph stack.

use crate::{bipartize, BipartizeMethod};
use aapsm_geom::GridIndex;
use aapsm_graph::{planarize, EmbeddedGraph, ParityUnionFind, PlanarizeOrder};
use aapsm_layout::{DesignRules, Layout};
use aapsm_tjoin::TJoinMethod;

/// A dark-field conflict: a pair of feature indices that must be separated
/// to at least the opposite-phase spacing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DarkFieldConflict {
    /// First feature index.
    pub a: usize,
    /// Second feature index.
    pub b: usize,
    /// Spacing deficit.
    pub weight: i64,
}

/// Dark-field analysis result.
#[derive(Clone, Debug)]
pub struct DarkFieldReport {
    /// Number of opposite-phase constraint edges found.
    pub constraint_count: usize,
    /// The minimal conflict set.
    pub conflicts: Vec<DarkFieldConflict>,
    /// A satisfying feature phase assignment after voiding the conflicts
    /// (0/1 per feature; non-critical features get 0).
    pub phases: Vec<u8>,
}

/// Runs dark-field AAPSM conflict detection on a layout: critical features
/// closer than `rules.shifter_spacing` must alternate phases; returns the
/// minimum-weight constraint set to void (by respacing or mask splitting).
pub fn detect_dark_field(layout: &Layout, rules: &DesignRules) -> DarkFieldReport {
    let mut g = EmbeddedGraph::new();
    let mut critical = Vec::new();
    for (i, r) in layout.rects().iter().enumerate() {
        if r.min_dim() <= rules.critical_width {
            critical.push((i, *r, g.add_node(r.center())));
        }
    }
    // Close critical pairs -> opposite-phase edges.
    let spacing = rules.shifter_spacing;
    let grid = GridIndex::build(
        (2 * spacing).max(64),
        critical.iter().map(|(_, r, _)| {
            let probe = r.inflate(spacing);
            (probe.x_lo(), probe.y_lo(), probe.x_hi(), probe.y_hi())
        }),
    );
    let mut pairs = Vec::new();
    let s2 = (spacing as i128) * (spacing as i128);
    // Streaming traversal: the candidate set is never materialized.
    grid.for_each_candidate_pair(|ka, kb| {
        let (ia, ra, na) = critical[ka as usize];
        let (ib, rb, nb) = critical[kb as usize];
        let gap = ra.euclid_gap_sq(&rb);
        if gap < s2 {
            let deficit = spacing - ra.x_gap(&rb).max(ra.y_gap(&rb));
            g.add_edge(na, nb, deficit.max(1));
            pairs.push((ia, ib, deficit.max(1)));
        }
    });
    g.nudge_duplicate_positions();
    let constraint_count = pairs.len();

    // Planarize + optimal bipartization + recheck, exactly as bright field.
    let removed = planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1).removed;
    let outcome = bipartize(
        &g,
        BipartizeMethod::OptimalDual {
            tjoin: TJoinMethod::default(),
            blocks: false,
        },
        1,
    );
    let mut conflicts = Vec::new();
    let deleted: std::collections::HashSet<_> = outcome.deleted.iter().copied().collect();
    let mut uf = ParityUnionFind::new(g.node_count());
    for e in g.alive_edges() {
        if !deleted.contains(&e) {
            let (u, v) = g.endpoints(e);
            // Invariant: removing `outcome.deleted` leaves the graph
            // bipartite, so re-adding the kept edges cannot conflict.
            #[allow(clippy::expect_used)]
            uf.union(u.index(), v.index(), 1)
                .expect("bipartization leaves the graph bipartite");
        }
    }
    let mut edge_conflicts: Vec<_> = outcome.deleted.clone();
    for e in removed {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index(), 1).is_err() {
            edge_conflicts.push(e);
        }
    }
    for e in &edge_conflicts {
        let idx = e.index();
        let (a, b, weight) = pairs[idx];
        conflicts.push(DarkFieldConflict { a, b, weight });
    }

    // Feature phases from the surviving constraints.
    let mut phases = vec![0u8; layout.len()];
    for (k, (i, _, _)) in critical.iter().enumerate() {
        let (_, parity) = uf.find(k);
        phases[*i] = parity;
    }
    DarkFieldReport {
        constraint_count,
        conflicts,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_geom::Rect;

    fn rules() -> DesignRules {
        DesignRules::default()
    }

    #[test]
    fn far_features_have_no_constraints() {
        let l = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 1000),
            Rect::new(5000, 0, 5100, 1000),
        ]);
        let r = detect_dark_field(&l, &rules());
        assert_eq!(r.constraint_count, 0);
        assert!(r.conflicts.is_empty());
    }

    #[test]
    fn close_pair_alternates() {
        let l = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 1000),
            Rect::new(250, 0, 350, 1000), // 150 < 280 apart
        ]);
        let r = detect_dark_field(&l, &rules());
        assert_eq!(r.constraint_count, 1);
        assert!(r.conflicts.is_empty());
        assert_ne!(r.phases[0], r.phases[1]);
    }

    #[test]
    fn odd_triangle_yields_one_conflict() {
        // Three mutually-close features: an odd cycle in the dark-field
        // conflict graph; one edge must be voided.
        let l = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 100),
            Rect::new(250, 0, 350, 100),
            Rect::new(120, 250, 220, 350),
        ]);
        let r = detect_dark_field(&l, &rules());
        assert_eq!(r.constraint_count, 3);
        assert_eq!(r.conflicts.len(), 1);
    }

    #[test]
    fn even_chain_is_fine() {
        let rects: Vec<Rect> = (0..6)
            .map(|i| Rect::new(i * 350, 0, i * 350 + 100, 800))
            .collect();
        let r = detect_dark_field(&Layout::from_rects(rects), &rules());
        assert_eq!(r.constraint_count, 5);
        assert!(r.conflicts.is_empty());
        // Alternating phases along the chain.
        for w in (0..6).collect::<Vec<_>>().windows(2) {
            assert_ne!(r.phases[w[0]], r.phases[w[1]]);
        }
    }

    /// Recomputes the close-critical-pair set independently of
    /// [`detect_dark_field`]'s grid traversal (quadratic scan) and checks
    /// the report against it: every conflict names a genuine close pair,
    /// and every close pair not voided by a conflict got opposite phases.
    fn assert_dark_field_sound(l: &Layout, r: &DesignRules, report: &DarkFieldReport) {
        let rects = l.rects();
        let critical: Vec<usize> = (0..rects.len())
            .filter(|&i| rects[i].min_dim() <= r.critical_width)
            .collect();
        let s2 = (r.shifter_spacing as i128) * (r.shifter_spacing as i128);
        let mut close = Vec::new();
        for (k, &i) in critical.iter().enumerate() {
            for &j in &critical[k + 1..] {
                if rects[i].euclid_gap_sq(&rects[j]) < s2 {
                    close.push((i.min(j), i.max(j)));
                }
            }
        }
        assert_eq!(report.constraint_count, close.len());
        let voided: std::collections::HashSet<(usize, usize)> = report
            .conflicts
            .iter()
            .map(|c| (c.a.min(c.b), c.a.max(c.b)))
            .collect();
        for v in &voided {
            assert!(close.contains(v), "conflict {v:?} is not a close pair");
        }
        for &(a, b) in &close {
            if !voided.contains(&(a, b)) {
                assert_ne!(
                    report.phases[a], report.phases[b],
                    "surviving constraint ({a},{b}) must alternate phases"
                );
            }
        }
    }

    /// Differential test against the bright-field pipeline on shared
    /// fixtures: the two formulations answer different questions — dark
    /// field phases the *features*, bright field the *shifters flanking*
    /// them — so layouts whose shifters collide while the features
    /// themselves are legally spaced conflict under bright field only.
    /// Both reports must be internally sound on every fixture.
    #[test]
    fn dark_field_vs_bright_field_on_shared_fixtures() {
        use crate::{detect_conflicts, DetectConfig};
        use aapsm_layout::{extract_phase_geometry, fixtures};
        let r = rules();
        // (fixture, expected dark conflicts, expected bright conflicts)
        let cases: Vec<(&str, Layout, usize, usize)> = vec![
            ("single_wire", fixtures::single_wire(&r), 0, 0),
            ("wire_row", fixtures::wire_row(8, 600), 0, 0),
            ("benign_block", fixtures::benign_block(&r), 0, 0),
            // The defining divergence: the gate's shifters overlap the
            // strap's, but the features sit farther apart than the
            // opposite-phase spacing — bright field must flag it, dark
            // field must not.
            ("gate_over_strap", fixtures::gate_over_strap(&r), 0, 1),
            ("stacked_jog", fixtures::stacked_jog(&r), 0, 2),
            ("short_middle_wire", fixtures::short_middle_wire(&r), 0, 1),
            ("strap_under_bus", fixtures::strap_under_bus(6, &r), 0, 6),
        ];
        for (name, l, dark_expected, bright_expected) in cases {
            let dark = detect_dark_field(&l, &r);
            assert_eq!(dark.conflicts.len(), dark_expected, "{name}: dark field");
            assert_dark_field_sound(&l, &r, &dark);
            let bright =
                detect_conflicts(&extract_phase_geometry(&l, &r), &DetectConfig::default());
            assert_eq!(
                bright.conflict_count(),
                bright_expected,
                "{name}: bright field"
            );
        }
        // A tight wire row puts the features themselves inside the
        // opposite-phase spacing: dark field now sees a constraint chain
        // (even, hence still assignable with alternating phases).
        let tight = fixtures::wire_row(6, 260);
        let dark = detect_dark_field(&tight, &r);
        assert_eq!(dark.constraint_count, 5);
        assert!(dark.conflicts.is_empty());
        assert_dark_field_sound(&tight, &r, &dark);
    }

    #[test]
    fn wide_features_ignored() {
        let l = Layout::from_rects(vec![
            Rect::new(0, 0, 500, 1000),
            Rect::new(600, 0, 1100, 1000),
        ]);
        let r = detect_dark_field(&l, &rules());
        assert_eq!(r.constraint_count, 0);
    }
}
