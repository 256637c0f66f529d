//! Hierarchical detection walkthrough: build a Cell/Instance hierarchy,
//! detect its conflicts (bit-identical to flattening first), then
//! round-trip the hierarchy through GDSII without flattening — and
//! without silently dropping anything.
//!
//! Run with: `cargo run --example hier_cells --release`

use aapsm::core::detect_conflicts;
use aapsm::prelude::*;

fn main() {
    let rules = DesignRules::default();

    // A standard cell cut from the synthetic generator: one row of
    // gates with straps and jogs, conflict-rich on purpose.
    let leaf_layout = aapsm::layout::synth::generate(
        &aapsm::layout::synth::SynthParams {
            rows: 1,
            gates_per_row: 24,
            seed: 7,
            ..Default::default()
        },
        &rules,
    );
    let mut leaf = Cell::new("NAND_ROW");
    leaf.rects = leaf_layout.rects().to_vec();
    let bbox = leaf_layout.stats().bbox.expect("leaf has rects");

    // Place it sixteen times — a 4×4 grid, alternating upright and
    // rotated placements, far enough apart that instances don't
    // interact. (Close placements are fine too: the chip is detected
    // flat, so boundary interactions are exact.)
    let pitch = bbox.width().max(bbox.height()) + 8 * rules.interaction_radius();
    let mut hier = HierLayout::new();
    let leaf_ix = hier.add_cell(leaf);
    let mut top = Cell::new("CHIP");
    for r in 0..4i64 {
        for c in 0..4i64 {
            let orient = if (r + c) % 2 == 0 {
                Orient::IDENTITY
            } else {
                Orient {
                    rotation: Rot::R90,
                    reflect: true,
                }
            };
            let placed = orient.try_apply_rect(&bbox).expect("in range");
            top.instances.push(Instance {
                cell: leaf_ix,
                placement: Placement::new(
                    orient,
                    c * pitch - placed.x_lo(),
                    r * pitch - placed.y_lo(),
                ),
            });
        }
    }
    let top_ix = hier.add_cell(top);
    hier.top = Some(top_ix);

    // Hierarchical detection: flatten the placements, then detect the
    // flat chip.
    let report = detect_hier(&hier, &rules, &DetectConfig::default()).expect("valid hierarchy");
    println!(
        "hierarchical: {} conflicts over {} placed cells; {} dual T-join instances solved",
        report.report.conflict_count(),
        report.hier.instances_total,
        report.hier.solve_misses,
    );

    // The answer is bit-identical to flattening first — the hierarchy
    // is an input format, never a different result.
    let flat = hier.flatten().expect("valid hierarchy");
    let geom = extract_phase_geometry(&flat, &rules);
    let flat_report = detect_conflicts(&geom, &DetectConfig::default());
    assert_eq!(report.report.conflicts, flat_report.conflicts);
    println!(
        "flat ({} polygons): {} conflicts — identical",
        flat.len(),
        flat_report.conflict_count()
    );

    // Round-trip through GDSII *with* the hierarchy: SREF records carry
    // the placements, and nothing is silently dropped — the reader
    // accounts for every record it skips.
    let bytes = aapsm::gds::write_gds_hier(&hier, "HIERDEMO");
    let back = aapsm::gds::read_gds_hier(&bytes).expect("well-formed stream");
    assert_eq!(back.hier, hier);
    assert_eq!(back.total_skipped(), 0);
    println!(
        "GDS round-trip: {} bytes, {} cells, {} records skipped",
        bytes.len(),
        back.hier.cells.len(),
        back.total_skipped(),
    );
}
