//! Property tests: hierarchical detection is bit-identical to flattening.
//!
//! `detect_hier(&h, rules, config)` must report byte-for-byte the same
//! conflict set (and the same stage counters) as
//! `detect_conflicts(&extract_phase_geometry(&h.flatten()?, rules), config)`,
//! for every hierarchy shape — repeated instances, all eight placement
//! orientations, nested cells, instances close enough to interact across
//! their boundaries — and every `parallelism` ∈ {0, 1, 2, 4}, on both
//! graph reductions. The hierarchy is an input format, never a different
//! answer.

use aapsm_core::{
    build_phase_conflict_graph, detect_conflicts, detect_hier, DetectConfig, DetectReport,
    GraphKind, HierDetectStats,
};
use aapsm_geom::{Rect, SERIAL_FALLBACK_WORK};
use aapsm_graph::NodeId;
use aapsm_layout::synth::{generate, scaling_suite, SynthParams};
use aapsm_layout::{
    extract_phase_geometry, Cell, DesignRules, HierLayout, Instance, Layout, LayoutError, Orient,
    Placement, Rot,
};
use proptest::prelude::*;

const DEGREES: [usize; 4] = [0, 1, 2, 4];

/// A conflict-rich leaf cell cut from the synthetic generator.
fn leaf_cell(name: &str, seed: u64, gates: usize) -> Cell {
    synth_cell(
        name,
        &SynthParams {
            rows: 1,
            gates_per_row: gates,
            strap_frac: 0.7,
            jog_frac: 0.08,
            short_mid_frac: 0.06,
            seed,
            ..SynthParams::default()
        },
    )
}

/// A cell holding the synthetic generator's layout for `params`.
fn synth_cell(name: &str, params: &SynthParams) -> Cell {
    let layout = generate(params, &DesignRules::default());
    let mut cell = Cell::new(name);
    cell.rects = layout.rects().to_vec();
    cell
}

fn cell_bbox(cell: &Cell) -> Rect {
    Layout::from_rects(cell.rects.clone())
        .stats()
        .bbox
        .expect("leaf cell has rects")
}

/// A top cell placing `cols × rows` copies of one leaf on a square grid.
/// Each slot's delta is chosen so the *oriented* bounding box lands on
/// the grid slot, so rotated/reflected instances tile the same way.
/// `gap` controls whether neighboring instances interact: below the
/// design-rule interaction radius, conflict-graph components straddle
/// instance boundaries; above it, every component is interior to one
/// instance.
/// `orient` maps a slot's row-major index to its orientation.
fn grid_hier(
    leaf: Cell,
    cols: usize,
    rows: usize,
    gap: i64,
    orient: impl Fn(usize) -> Orient,
) -> HierLayout {
    let bbox = cell_bbox(&leaf);
    let pitch = bbox.width().max(bbox.height()) + gap;
    let mut h = HierLayout::new();
    let leaf_ix = h.add_cell(leaf);
    let mut top = Cell::new("TOP");
    for r in 0..rows {
        for c in 0..cols {
            let orient = orient(r * cols + c);
            let obb = orient.try_apply_rect(&bbox).expect("oriented bbox fits");
            top.instances.push(Instance {
                cell: leaf_ix,
                placement: Placement::new(
                    orient,
                    c as i64 * pitch - obb.x_lo(),
                    r as i64 * pitch - obb.y_lo(),
                ),
            });
        }
    }
    let top_ix = h.add_cell(top);
    h.top = Some(top_ix);
    h
}

/// Places every instance upright.
fn upright(_slot: usize) -> Orient {
    Orient::IDENTITY
}

/// Cycles a grid through all eight orientations.
fn all_orients(slot: usize) -> Orient {
    Orient::all()[slot % 8]
}

fn config(kind: GraphKind, parallelism: usize) -> DetectConfig {
    DetectConfig {
        graph: kind,
        parallelism,
        ..DetectConfig::default()
    }
}

/// Conflicts byte-identical, stage counters identical; timings excluded.
fn assert_reports_match(hier: &DetectReport, flat: &DetectReport, label: &str) {
    assert_eq!(hier.conflicts, flat.conflicts, "{label}: conflict sets");
    assert_eq!(
        hier.stats.graph_nodes, flat.stats.graph_nodes,
        "{label}: nodes"
    );
    assert_eq!(
        hier.stats.graph_edges, flat.stats.graph_edges,
        "{label}: edges"
    );
    assert_eq!(
        hier.stats.crossings, flat.stats.crossings,
        "{label}: crossings"
    );
    assert_eq!(
        hier.stats.planarize_removed, flat.stats.planarize_removed,
        "{label}: planarize_removed"
    );
    assert_eq!(
        hier.stats.bipartize_conflicts, flat.stats.bipartize_conflicts,
        "{label}: bipartize_conflicts"
    );
    assert_eq!(
        hier.stats.recheck_conflicts, flat.stats.recheck_conflicts,
        "{label}: recheck_conflicts"
    );
}

fn check_equivalence(h: &HierLayout, kind: GraphKind) {
    let rules = DesignRules::default();
    let flat = h.flatten().expect("valid hierarchy");
    let flat_geom = extract_phase_geometry(&flat, &rules);
    for &parallelism in &DEGREES {
        let cfg = config(kind, parallelism);
        let hier_report = detect_hier(h, &rules, &cfg).expect("valid hierarchy");
        let flat_report = detect_conflicts(&flat_geom, &cfg);
        assert_reports_match(
            &hier_report.report,
            &flat_report,
            &format!("{kind:?} parallelism {parallelism}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random grids of one repeated leaf — identity placements, varying
    /// instance gap (interacting and isolated), both graph reductions.
    #[test]
    fn hier_matches_flat_on_grids(
        seed in 0u64..1_000_000,
        gates in 6usize..=14,
        cols in 1usize..=3,
        rows in 1usize..=2,
        gap_ix in 0usize..3,
    ) {
        let gap = [40i64, 400, 20_000][gap_ix];
        let h = grid_hier(leaf_cell("LEAF", seed, gates), cols, rows, gap, upright);
        check_equivalence(&h, GraphKind::PhaseConflict);
        check_equivalence(&h, GraphKind::Feature);
    }

    /// All eight orientations in one grid: the placement algebra agrees
    /// with the flat pipeline.
    #[test]
    fn hier_matches_flat_under_all_orientations(
        seed in 0u64..1_000_000,
        gates in 6usize..=12,
        gap_ix in 0usize..2,
    ) {
        let gap = [120i64, 20_000][gap_ix];
        let h = grid_hier(leaf_cell("LEAF", seed, gates), 4, 2, gap, all_orients);
        check_equivalence(&h, GraphKind::PhaseConflict);
    }
}

/// Nested hierarchy: TOP places two MIDs, each MID places two LEAFs, so
/// depth-2 occurrences (each LEAF inside a MID) are placed too.
#[test]
fn nested_hierarchy_matches_flat() {
    let mut h = HierLayout::new();
    let leaf = h.add_cell(leaf_cell("LEAF", 77, 8));
    let bbox = cell_bbox(&h.cells[leaf]);
    let pitch = bbox.width().max(bbox.height()) + 200;
    let mut mid = Cell::new("MID");
    mid.instances.push(Instance {
        cell: leaf,
        placement: Placement::IDENTITY,
    });
    mid.instances.push(Instance {
        cell: leaf,
        placement: Placement::new(Orient::rotated(Rot::R90), pitch, 0),
    });
    let mid = h.add_cell(mid);
    let mut top = Cell::new("TOP");
    top.instances.push(Instance {
        cell: mid,
        placement: Placement::IDENTITY,
    });
    top.instances.push(Instance {
        cell: mid,
        placement: Placement::at(0, 2 * pitch),
    });
    let top = h.add_cell(top);
    h.top = Some(top);
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
}

/// Detects `h` at parallelism 1 and returns its counters.
fn hier_stats(h: &HierLayout) -> HierDetectStats {
    detect_hier(
        h,
        &DesignRules::default(),
        &config(GraphKind::PhaseConflict, 1),
    )
    .expect("valid hierarchy")
    .hier
}

/// A top cell placing one leaf upright at every `(x, y)` corner.
fn placed_at(leaf: Cell, corners: &[(i64, i64)]) -> HierLayout {
    let bbox = cell_bbox(&leaf);
    let mut h = HierLayout::new();
    let leaf = h.add_cell(leaf);
    let mut top = Cell::new("TOP");
    for &(x, y) in corners {
        top.instances.push(Instance {
            cell: leaf,
            placement: Placement::at(x - bbox.x_lo(), y - bbox.y_lo()),
        });
    }
    h.top = Some(h.add_cell(top));
    h
}

/// Top-cell rects within one interaction radius of instances: a wire
/// beside the first instance, a strap under the second, and one wire
/// far from everything.
#[test]
fn top_rects_near_instances_match_flat() {
    let r = DesignRules::default().interaction_radius();
    let mut h = grid_hier(leaf_cell("LEAF", 5, 10), 3, 2, 2_000, upright);
    let bbox = cell_bbox(&h.cells[0]);
    let pitch = bbox.width().max(bbox.height()) + 2_000;
    let top = h.top.expect("grid has a top");
    h.cells[top].rects = vec![
        Rect::new(-r / 2 - 100, 0, -r / 2, bbox.height()),
        Rect::new(pitch, -r / 2 - 100, pitch + bbox.width(), -r / 2),
        Rect::new(-50_000, -50_000, -49_900, -48_000),
    ];
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    // The strap runs under the second instance's whole bottom edge, so
    // none of its groups is safe; the other five place some.
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 1, "{stats:?}");
    assert_eq!(stats.instances_reused, 5, "{stats:?}");
}

/// A plate 5e8 dbu wide as a top rect, far from a repeated leaf: every
/// grid that holds it coarsens instead of panicking, and hier still
/// equals flat.
#[test]
fn far_plate_top_rect_matches_flat() {
    let mut h = grid_hier(leaf_cell("LEAF", 5, 10), 3, 2, 2_000, upright);
    let top = h.top.expect("grid has a top");
    h.cells[top].rects.push(Rect::new(
        -1_000_000_000,
        -1_000_000_000,
        -500_000_000,
        -500_000_000,
    ));
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
}

/// One grid whose neighbours are touching (gap 40) in some places and
/// isolated (gap 20 000) in others.
#[test]
fn mixed_gap_grid_matches_flat() {
    let leaf = leaf_cell("LEAF", 12, 10);
    let bbox = cell_bbox(&leaf);
    let (w, h) = (bbox.width(), bbox.height());
    let xs = [0, w + 40, 2 * w + 20_040, 3 * w + 20_080];
    let ys = [0, h + 40, 2 * h + 20_040];
    let corners: Vec<(i64, i64)> = ys
        .iter()
        .flat_map(|&y| xs.iter().map(move |&x| (x, y)))
        .collect();
    let h = placed_at(leaf, &corners);
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    // Two of the eight instances with a touching neighbour on two sides
    // have no safe group; the other ten place some.
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 1, "{stats:?}");
    assert_eq!(stats.instances_reused, 10, "{stats:?}");
}

/// A nested hierarchy where two MID classes each repeat: TOP places
/// MID_A twice upright and MID_B twice rotated by 180°, close enough
/// that some groups straddle the MID boundaries.
#[test]
fn nested_repeated_mid_classes_match_flat() {
    let mut h = HierLayout::new();
    let leaf_a = h.add_cell(leaf_cell("LEAF_A", 41, 8));
    let leaf_b = h.add_cell(leaf_cell("LEAF_B", 42, 8));
    let bbox = cell_bbox(&h.cells[leaf_a]).hull(&cell_bbox(&h.cells[leaf_b]));
    let pitch = bbox.width().max(bbox.height()) + 200;
    let mut mids = Vec::new();
    for (name, second) in [("MID_A", leaf_a), ("MID_B", leaf_b)] {
        let mut mid = Cell::new(name);
        mid.instances.push(Instance {
            cell: leaf_a,
            placement: Placement::IDENTITY,
        });
        mid.instances.push(Instance {
            cell: second,
            placement: Placement::new(Orient::rotated(Rot::R90), 2 * pitch, 0),
        });
        mids.push(h.add_cell(mid));
    }
    let mut top = Cell::new("TOP");
    for (i, &(mid, orient)) in [
        (mids[0], Orient::IDENTITY),
        (mids[0], Orient::IDENTITY),
        (mids[1], Orient::rotated(Rot::R180)),
        (mids[1], Orient::rotated(Rot::R180)),
    ]
    .iter()
    .enumerate()
    {
        top.instances.push(Instance {
            cell: mid,
            placement: Placement::new(orient, (i as i64 % 2) * 20_000, (i as i64 / 2) * 3 * pitch),
        });
    }
    h.top = Some(h.add_cell(top));
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 2, "{stats:?}");
    assert_eq!(stats.instances_total, 12);
}

/// A strap with a tall gate at its right end: the gate's shifters both
/// merge with the strap's top shifter, an odd cycle whose overlap
/// half-edges run diagonally from `(0, 200)` to the midpoints
/// `(7425, 5350)` and `(7575, 5350)`.
fn strap_and_far_gate() -> Vec<Rect> {
    vec![
        Rect::new(-20_000, 0, 20_000, 100),
        Rect::new(14_950, 500, 15_050, 20_500),
    ]
}

/// The odd–bipartite probe fallback of the flat pipeline (the geometry
/// of `detect.rs`' `odd_cycle_and_lone_flank(true)`, from rects): a lone
/// critical feature far from every shifter whose flank edge crosses the
/// odd cycle's overlap half-edges. Placed four times, the class pass
/// falls back too, so the chip is detected flat.
#[test]
fn probe_fallback_leaf_matches_flat() {
    let mut leaf = Cell::new("LEAF");
    leaf.rects = strap_and_far_gate();
    leaf.rects.push(Rect::new(3_650, 2_720, 3_750, 2_820));
    let bbox = cell_bbox(&leaf);
    let (w, h) = (bbox.width() + 20_000, bbox.height() + 20_000);
    let h = placed_at(leaf, &[(0, 0), (w, 0), (0, h), (w, h)]);
    check_equivalence(&h, GraphKind::PhaseConflict);
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 0, "{stats:?}");
    assert_eq!(stats.instances_reused, 0, "{stats:?}");
}

/// A leaf whose nudge moves a node of one component off a node of
/// another: the strap–gate overlap node at `(7425, 5350)` lands on the
/// high shifter centre of a lone feature, which keeps its place (shifter
/// nodes come first), so the overlap node moves one unit right, onto an
/// overlap half-edge of a third odd cycle (an L of a strap and a wire,
/// its half-edge running through `(7426, 5350)`). Only the moved node
/// touches that half-edge, so the flat chip has two crossings that an
/// unmoved node lacks. Four placements; a top-cell wire above the gate
/// of the one at the origin comes near the strap–gate cycle but not
/// near the lone feature. The lone feature must leave the placed groups
/// with the cycle, or the rest pass sees no collision, no nudge and no
/// crossing.
#[test]
fn nudged_component_leaf_matches_flat() {
    let rules = DesignRules::default();
    let mut leaf = Cell::new("LEAF");
    leaf.rects = strap_and_far_gate();
    leaf.rects.extend([
        Rect::new(7_225, 5_300, 7_325, 5_400),
        Rect::new(1_214, 3_962, 11_214, 4_062),
        Rect::new(11_364, 4_112, 11_464, 14_112),
    ]);
    let geom = extract_phase_geometry(&Layout::from_rects(leaf.rects.clone()), &rules);
    let cg = build_phase_conflict_graph(&geom);
    let meet = aapsm_geom::Point::new(7_425, 5_350);
    assert_eq!(
        cg.graph.pos(NodeId(5)),
        meet,
        "the lone feature's high shifter"
    );
    let overlap_node = NodeId(geom.shifters.len() as u32);
    assert_eq!(
        cg.graph.pos(overlap_node),
        aapsm_geom::Point::new(7_426, 5_350),
        "the first overlap node moved"
    );

    let bbox = cell_bbox(&leaf);
    let (w, h) = (bbox.width() + 20_000, bbox.height() + 20_000);
    let mut h = placed_at(leaf, &[(0, 0), (w, 0), (0, h), (w, h)]);
    let top = h.top.expect("placed_at sets the top");
    // A wire 2r above the gate's shifter of the placement at the origin.
    let (x, y) = (
        -bbox.x_lo(),
        20_600 + 2 * rules.interaction_radius() - bbox.y_lo(),
    );
    h.cells[top]
        .rects
        .push(Rect::new(x + 14_500, y, x + 15_500, y + 100));
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    // The nudge joins the lone feature to the cycles' group, which the
    // wire makes unsafe at the origin: three placements reuse.
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 1, "{stats:?}");
    assert_eq!(stats.instances_reused, 3, "{stats:?}");
}

/// Two crossing odd cycles of one leaf, only one of them near other
/// geometry: the L of a strap and a tall wire, whose overlap half-edge
/// from `(5000, 200)` to `(7525, 2675)` crosses the flank of an interior
/// strap–gate motif. A top-cell wire beside the L's wire top, placed at
/// the origin only, comes near the L and not the motif. The crossing
/// joins both into one group, so the motif leaves the placed groups
/// with the L; placed from its class, it would keep the crossing that
/// the rest pass cannot see, and the L would lose its victim.
#[test]
fn crossing_component_leaf_matches_flat() {
    let rules = DesignRules::default();
    let mut leaf = Cell::new("LEAF");
    leaf.rects = vec![
        Rect::new(0, 0, 10_000, 100),
        Rect::new(10_150, 150, 10_250, 10_150),
        Rect::new(5_200, 1_200, 6_800, 1_300),
        Rect::new(5_950, 1_700, 6_050, 2_700),
    ];
    let geom = extract_phase_geometry(&Layout::from_rects(leaf.rects.clone()), &rules);
    let crossings = aapsm_graph::crossing_pairs_par(&build_phase_conflict_graph(&geom).graph, 1);
    assert!(!crossings.pairs.is_empty(), "the L crosses the motif");
    let bbox = cell_bbox(&leaf);
    let (w, h) = (bbox.width() + 20_000, bbox.height() + 20_000);
    let mut h = placed_at(leaf, &[(0, 0), (w, 0), (0, h), (w, h)]);
    let top = h.top.expect("placed_at sets the top");
    // 2r right of the L wire's high shifter, near its top end.
    let x = 10_450 + 2 * rules.interaction_radius() + 200 - bbox.x_lo();
    let y = 9_000 - bbox.y_lo();
    h.cells[top].rects.push(Rect::new(x, y, x + 100, y + 1_000));
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 1, "{stats:?}");
    assert_eq!(stats.instances_reused, 3, "{stats:?}");
}

/// An overlap between two placements whose half-edge runs across a third
/// group: a long strap's top shifter merges with both shifters of a
/// top-cell wire at its right end, and the half-edge from the strap's
/// shifter centre `(5000, 200)` to the midpoint `(7525, 2675)` crosses
/// the flank of an interior strap–gate motif, which no other geometry
/// comes near. The motif must join the rest, or its crossings and
/// planarization differ from the flat chip's.
#[test]
fn cross_instance_edge_over_an_interior_group_matches_flat() {
    let mut leaf = Cell::new("LEAF");
    leaf.rects = vec![
        Rect::new(0, 0, 10_000, 100),
        Rect::new(5_200, 1_000, 6_800, 1_100),
        Rect::new(5_950, 1_500, 6_050, 2_500),
    ];
    let bbox = cell_bbox(&leaf);
    let mut h = placed_at(leaf, &[(0, 0), (0, 50_000)]);
    let top = h.top.expect("placed_at sets the top");
    h.cells[top].rects.push(Rect::new(
        10_150 + bbox.x_lo(),
        150,
        10_250 + bbox.x_lo(),
        10_150,
    ));
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    // The far placement reuses both groups; the one by the wire none.
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 1, "{stats:?}");
    assert_eq!(stats.instances_reused, 1, "{stats:?}");
}

/// The same L of a strap and a wire, both in the top cell, around an
/// interior strap–gate motif that is the whole leaf: the motif keeps
/// `2r` clear of both top rects, but the overlap half-edge from the
/// strap's shifter centre `(5000, 200)` to the midpoint `(7525, 2675)`
/// crosses the motif strap's flank. Two top rects have no placement in
/// common, so their overlap must be tested against the placed groups.
#[test]
fn top_rect_edge_over_an_interior_group_matches_flat() {
    let mut h = HierLayout::new();
    let mut leaf = Cell::new("LEAF");
    leaf.rects = vec![
        Rect::new(5_200, 1_200, 6_800, 1_300),
        Rect::new(5_950, 1_700, 6_050, 2_700),
    ];
    let leaf = h.add_cell(leaf);
    let mut top = Cell::new("TOP");
    top.rects = vec![
        Rect::new(0, 0, 10_000, 100),
        Rect::new(10_150, 150, 10_250, 10_150),
    ];
    for y in [0, 50_000] {
        top.instances.push(Instance {
            cell: leaf,
            placement: Placement::at(0, y),
        });
    }
    h.top = Some(h.add_cell(top));
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    // The far placement reuses the motif; the one inside the L does not.
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 1, "{stats:?}");
    assert_eq!(stats.instances_reused, 1, "{stats:?}");
}

/// A corridor across an instance edge blocked by a non-critical feature
/// that belongs to no group: a top-cell strap below the instance and the
/// instance's bottom strap are 200 dbu apart, and a wide block of the
/// instance fills the corridor between their shifters. The block must
/// enter the rest as a corridor blocker, or the rest pass merges the two
/// straps.
#[test]
fn blocked_corridor_across_an_instance_edge_matches_flat() {
    let mut h = HierLayout::new();
    let mut leaf = Cell::new("LEAF");
    leaf.rects = vec![
        Rect::new(-100, 20, 2_100, 180),
        Rect::new(0, 400, 2_000, 500),
        Rect::new(-1_000, 3_000, 1_000, 3_100),
        Rect::new(-50, 3_500, 50, 4_500),
    ];
    let leaf = h.add_cell(leaf);
    let mut top = Cell::new("TOP");
    top.rects.push(Rect::new(0, -300, 2_000, -200));
    for y in [0, 50_000] {
        top.instances.push(Instance {
            cell: leaf,
            placement: Placement::at(0, y),
        });
    }
    h.top = Some(h.add_cell(top));
    let rules = DesignRules::default();
    let flat = extract_phase_geometry(&h.flatten().expect("valid"), &rules);
    assert!(flat.overlaps.iter().all(|o| {
        let features = [flat.shifters[o.a].feature, flat.shifters[o.b].feature];
        !features.contains(&0)
    }));
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    let stats = hier_stats(&h);
    assert_eq!(stats.cells_detected, 1, "{stats:?}");
    assert_eq!(stats.instances_reused, 2, "{stats:?}");
}

/// `detect_hier` (which does not flatten) and `HierLayout::sanitize`
/// report exactly the error [`HierLayout::flatten`] reports.
#[test]
fn errors_match_flatten() {
    let rules = DesignRules::default();
    let leaf = |h: &mut HierLayout| {
        let mut cell = Cell::new("LEAF");
        cell.rects.push(Rect::new(0, 0, 100, 1_000));
        h.add_cell(cell)
    };
    let mut cases = Vec::new();
    // A dangling reference behind a valid instance.
    let mut h = HierLayout::new();
    let a = leaf(&mut h);
    let mut top = Cell::new("TOP");
    for cell in [a, 9] {
        top.instances.push(Instance {
            cell,
            placement: Placement::IDENTITY,
        });
    }
    h.top = Some(h.add_cell(top));
    cases.push(("unknown cell", h));
    // A placement that overflows inside a nested instance, after a
    // valid one of the same class.
    let mut h = HierLayout::new();
    let a = leaf(&mut h);
    let mut mid = Cell::new("MID");
    mid.instances.push(Instance {
        cell: a,
        placement: Placement::at(i64::MAX - 50, 0),
    });
    let mid = h.add_cell(mid);
    let mut top = Cell::new("TOP");
    for x in [-i64::MAX + 100, 0, 10] {
        top.instances.push(Instance {
            cell: mid,
            placement: Placement::at(x, 0),
        });
    }
    h.top = Some(h.add_cell(top));
    cases.push(("placement out of range", h));
    // A doubling chain past the expansion cap.
    let mut h = HierLayout::new();
    let mut prev = leaf(&mut h);
    for i in 1..=30 {
        let mut cell = Cell::new(format!("L{i}"));
        for x in [0, 1 << i] {
            cell.instances.push(Instance {
                cell: prev,
                placement: Placement::at(x, 0),
            });
        }
        prev = h.add_cell(cell);
    }
    h.top = Some(prev);
    cases.push(("hierarchy too large", h));
    for (name, h) in &cases {
        let flat = h.flatten().map(|_| ()).expect_err(name);
        assert_eq!(h.sanitize(&rules), Err(flat.clone()), "{name}: sanitize");
        for &parallelism in &DEGREES {
            let cfg = config(GraphKind::PhaseConflict, parallelism);
            let hier = detect_hier(h, &rules, &cfg).map(|_| ()).expect_err(name);
            assert_eq!(hier, flat, "{name}");
        }
    }
    let [unknown, range, large] = [0, 1, 2].map(|i| cases[i].1.flatten().map(|_| ()));
    assert!(matches!(unknown, Err(LayoutError::UnknownCell { .. })));
    assert!(matches!(
        range,
        Err(LayoutError::PlacementOutOfRange { .. })
    ));
    assert!(matches!(large, Err(LayoutError::HierarchyTooLarge { .. })));
}

/// Exact counters on a grid of one repeated cell with isolating gaps:
/// six occurrences of one class, detected once and placed six times,
/// so the chip's six identical dual T-join instances are solved once.
#[test]
fn repeated_instances_solve_one_class_pass() {
    let rules = DesignRules::default();
    let h = grid_hier(leaf_cell("LEAF", 31, 12), 3, 2, 20_000, upright);
    let report = detect_hier(&h, &rules, &config(GraphKind::PhaseConflict, 0)).expect("valid");
    assert_eq!(report.hier.cells_detected, 1, "{:?}", report.hier);
    assert_eq!(report.hier.instances_total, 6);
    assert_eq!(report.hier.instances_reused, 6, "{:?}", report.hier);
    assert_eq!(report.hier.solve_misses, 1, "{:?}", report.hier);
}

/// The same counters when the grid cycles through all eight
/// orientations of one cell: sixteen occurrences of eight classes, each
/// class detected once, one dual T-join instance per class.
#[test]
fn all_orientation_grid_solves_each_class_once() {
    let rules = DesignRules::default();
    let h = grid_hier(leaf_cell("LEAF", 31, 10), 4, 4, 20_000, all_orients);
    let report = detect_hier(&h, &rules, &config(GraphKind::PhaseConflict, 0)).expect("valid");
    assert_eq!(report.hier.cells_detected, 8, "{:?}", report.hier);
    assert_eq!(report.hier.instances_total, 16);
    assert_eq!(report.hier.instances_reused, 16, "{:?}", report.hier);
    assert_eq!(report.hier.solve_misses, 8, "{:?}", report.hier);
}

/// Exact counters on a 4×4 checkerboard of two orientation classes
/// (upright and `Orient::all()[5]`) of the scaling suite's leaf row,
/// instances isolated by eight interaction radii. Every component is
/// interior to one instance and safe in every placement, so each class
/// is detected once (8 dual T-join instances each) and placed eight
/// times.
#[test]
fn two_orientation_grid_reuse_counters_are_exact() {
    let rules = DesignRules::default();
    let leaf = synth_cell(
        "LEAF",
        &SynthParams {
            rows: 1,
            ..scaling_suite()[0].params.clone()
        },
    );
    let h = grid_hier(leaf, 4, 4, 8 * rules.interaction_radius(), |slot| {
        Orient::all()[(slot % 2) * 5]
    });
    check_equivalence(&h, GraphKind::PhaseConflict);
    let report = detect_hier(&h, &rules, &config(GraphKind::PhaseConflict, 0)).expect("valid");
    assert_eq!(report.report.conflicts.len(), 224);
    assert_eq!(report.hier.cells_detected, 2, "{:?}", report.hier);
    assert_eq!(report.hier.instances_total, 16);
    assert_eq!(report.hier.instances_reused, 16, "{:?}", report.hier);
    assert_eq!(report.hier.solve_misses, 16, "{:?}", report.hier);
}

/// Structural errors propagate instead of panicking or truncating.
#[test]
fn invalid_hierarchies_are_structured_errors() {
    let mut h = HierLayout::new();
    let a = h.add_cell(Cell::new("A"));
    let b = h.add_cell(Cell::new("B"));
    h.cells[a].instances.push(Instance {
        cell: b,
        placement: Placement::IDENTITY,
    });
    h.cells[b].instances.push(Instance {
        cell: a,
        placement: Placement::IDENTITY,
    });
    h.top = Some(a);
    let rules = DesignRules::default();
    let err = detect_hier(&h, &rules, &DetectConfig::default());
    assert!(err.is_err(), "reference cycle must be rejected");
}

/// Classes whose work reaches `SERIAL_FALLBACK_WORK`, so that
/// `parallelism: 0` runs the class passes and detections as parallel
/// maps: a 4×4 grid of one four-row, 64-gate leaf in all eight
/// orientations, instances isolated. Exact counters (each class solves
/// 15 dual T-join instances), and hier == flat at every degree.
#[test]
fn parallel_class_maps_match_flat() {
    let rules = DesignRules::default();
    let leaf = synth_cell(
        "LEAF",
        &SynthParams {
            rows: 4,
            gates_per_row: 64,
            strap_frac: 0.7,
            jog_frac: 0.08,
            short_mid_frac: 0.06,
            seed: 31,
            ..SynthParams::default()
        },
    );
    let class_work = 8 * leaf.rects.len();
    assert!(class_work >= SERIAL_FALLBACK_WORK, "{class_work}");
    let h = grid_hier(leaf, 4, 4, 20_000, all_orients);
    check_equivalence(&h, GraphKind::PhaseConflict);
    check_equivalence(&h, GraphKind::Feature);
    let report = detect_hier(&h, &rules, &config(GraphKind::PhaseConflict, 0)).expect("valid");
    assert_eq!(report.report.conflicts.len(), 1280);
    assert_eq!(report.hier.cells_detected, 8, "{:?}", report.hier);
    assert_eq!(report.hier.instances_total, 16);
    assert_eq!(report.hier.instances_reused, 16, "{:?}", report.hier);
    assert_eq!(report.hier.solve_misses, 120, "{:?}", report.hier);
}
