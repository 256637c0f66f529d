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

use aapsm_core::{detect_conflicts, detect_hier, DetectConfig, DetectReport, GraphKind};
use aapsm_geom::Rect;
use aapsm_layout::synth::{generate, scaling_suite, SynthParams};
use aapsm_layout::{
    extract_phase_geometry, Cell, DesignRules, HierLayout, Instance, Layout, Orient, Placement, Rot,
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

/// Exact counters on a grid of one repeated cell with isolating gaps:
/// six occurrences, no class detected on its own, no solve answered from
/// a cache, and the chip's six dual T-join instances (one per placed
/// leaf) all solved fresh.
#[test]
fn repeated_instances_solve_every_instance_fresh() {
    let rules = DesignRules::default();
    let h = grid_hier(leaf_cell("LEAF", 31, 12), 3, 2, 20_000, upright);
    let report = detect_hier(&h, &rules, &config(GraphKind::PhaseConflict, 0)).expect("valid");
    assert_eq!(report.hier.cells_detected, 0, "{:?}", report.hier);
    assert_eq!(report.hier.instances_total, 6);
    assert_eq!(report.hier.instances_reused, 0, "{:?}", report.hier);
    assert_eq!(report.hier.solve_misses, 6, "{:?}", report.hier);
}

/// The same counters when the grid cycles through all eight
/// orientations of one cell: sixteen occurrences and sixteen dual
/// T-join instances, all solved fresh.
#[test]
fn all_orientation_grid_solves_every_instance_fresh() {
    let rules = DesignRules::default();
    let h = grid_hier(leaf_cell("LEAF", 31, 10), 4, 4, 20_000, all_orients);
    let report = detect_hier(&h, &rules, &config(GraphKind::PhaseConflict, 0)).expect("valid");
    assert_eq!(report.hier.cells_detected, 0, "{:?}", report.hier);
    assert_eq!(report.hier.instances_total, 16);
    assert_eq!(report.hier.instances_reused, 0, "{:?}", report.hier);
    assert_eq!(report.hier.solve_misses, 16, "{:?}", report.hier);
}

/// Exact counters on a 4×4 checkerboard of two orientation classes
/// (upright and `Orient::all()[5]`) of the scaling suite's leaf row,
/// instances isolated by eight interaction radii. Every component is
/// interior to one instance, and each of the 16 instances holds 8 dual
/// T-join instances, so the chip solves 128 instances, all fresh.
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
    assert_eq!(report.hier.cells_detected, 0, "{:?}", report.hier);
    assert_eq!(report.hier.instances_total, 16);
    assert_eq!(report.hier.instances_reused, 0, "{:?}", report.hier);
    assert_eq!(report.hier.solve_misses, 128, "{:?}", report.hier);
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
