//! Hierarchical detection: flatten, then detect the flat chip.
//!
//! [`detect_hier`] accepts a [`HierLayout`] and reports exactly the
//! conflicts of
//! `detect_conflicts(&extract_phase_geometry(&hier.flatten()?, rules), config)`,
//! at any [`DetectConfig::parallelism`] setting: it flattens the hierarchy
//! ([`HierLayout::flatten`]), extracts the flat phase geometry and runs
//! the one from-scratch detection path that [`crate::detect_conflicts`]
//! and [`crate::run_flow`] share.
//!
//! The hierarchy is an input format here, not a reuse strategy: no
//! per-cell result is reused across placements, because detecting a
//! `(cell, orientation)` class on its own to seed a solve cache measured
//! as costly as the cache hits it bought. [`HierDetectStats`] keeps its
//! reuse counters, at `0`, for the benchmark's stable output schema.
//!
//! Like [`crate::detect_conflicts`], this entry point runs unbudgeted; route
//! hierarchical workloads through [`crate::run_flow`] for deadline
//! control (flatten first — the flow is flat-only).

use aapsm_fault::Budget;
use aapsm_layout::{extract_phase_geometry_par, DesignRules, HierLayout, LayoutError};

use crate::detect::{detect_geometry_budgeted, DetectConfig, DetectReport};

/// Accounting for one [`detect_hier`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierDetectStats {
    /// Always `0`: no `(cell, orientation)` class is detected on its
    /// own. The field stays for the benchmark's stable output schema.
    pub cells_detected: usize,
    /// Placed-cell occurrences in the flattened hierarchy (all depths).
    pub instances_total: usize,
    /// Always `0`: the chip pass runs without a solve cache, so no
    /// bipartization component is answered from one. The field stays for
    /// the benchmark's stable output schema.
    pub instances_reused: usize,
    /// Dual T-join instances of the chip pass, every one solved fresh
    /// (`0` when the chip's conflict graph is already bipartite).
    pub solve_misses: usize,
}

/// A [`DetectReport`] plus the hierarchy accounting.
#[derive(Clone, Debug)]
pub struct HierDetectReport {
    /// The flat-identical detection result.
    pub report: DetectReport,
    /// Occurrence and solve counts of the run.
    pub hier: HierDetectStats,
}

/// Detect phase conflicts in a hierarchical layout.
///
/// Bit-identical to flattening first: for every valid `hier` and every
/// `config.parallelism`, the conflicts equal those of the flat pipeline
/// (property-tested in `tests/hier_equivalence.rs`):
///
/// ```
/// use aapsm_core::{detect_conflicts, detect_hier, DetectConfig};
/// use aapsm_layout::{
///     extract_phase_geometry, fixtures, Cell, DesignRules, HierLayout, Instance, Placement,
/// };
///
/// let rules = DesignRules::default();
/// let mut hier = HierLayout::new();
/// let mut leaf = Cell::new("GATE_OVER_STRAP");
/// leaf.rects = fixtures::gate_over_strap(&rules).rects().to_vec();
/// let leaf = hier.add_cell(leaf);
/// let mut top = Cell::new("TOP");
/// for x in [0, 5_000] {
///     let placement = Placement::at(x, 0);
///     top.instances.push(Instance { cell: leaf, placement });
/// }
/// hier.top = Some(hier.add_cell(top));
///
/// let config = DetectConfig::default();
/// let report = detect_hier(&hier, &rules, &config)?;
/// let flat = detect_conflicts(&extract_phase_geometry(&hier.flatten()?, &rules), &config);
/// assert!(!flat.conflicts.is_empty());
/// assert_eq!(report.report.conflicts, flat.conflicts);
/// assert_eq!(report.hier.instances_total, 2);
/// # Ok::<(), aapsm_layout::LayoutError>(())
/// ```
///
/// Errors are the structural ones surfaced by [`HierLayout::flatten`]:
/// unknown cells, reference cycles, out-of-range placements, oversized
/// expansions.
pub fn detect_hier(
    hier: &HierLayout,
    rules: &DesignRules,
    config: &DetectConfig,
) -> Result<HierDetectReport, LayoutError> {
    let flat = hier.flatten()?;
    let geom = extract_phase_geometry_par(&flat, rules, config.parallelism);
    let out = match detect_geometry_budgeted(&geom, config, None, &Budget::unlimited()) {
        Ok(out) => out,
        Err(e) => unreachable!("an unlimited budget never trips: {e}"),
    };
    Ok(HierDetectReport {
        report: out.report,
        hier: HierDetectStats {
            cells_detected: 0,
            instances_total: hier.placed_instances()? as usize,
            instances_reused: 0,
            solve_misses: out.activity.misses,
        },
    })
}
