//! Hierarchical detection: detect once per unique cell, reuse per placement.
//!
//! [`detect_hier`] runs the full Step-1/Step-2 pipeline over a
//! [`HierLayout`] without giving up bit-identity with the flat pipeline:
//! the conflict set it reports is exactly
//! `detect_conflicts(&hier.flatten()?, rules, config)`, at any
//! [`DetectConfig::parallelism`] setting. What the hierarchy buys is
//! *solve reuse*, not a different answer.
//!
//! The mechanism rests on two facts:
//!
//! - **Solve-cache keys are coordinate-free** ([`SolveCache`]): a
//!   bipartization component is keyed by its local structure (T-vector +
//!   reindexed weighted edges), so a component interior to a cell hashes
//!   identically wherever — and however often — the cell is placed.
//!   Planarization's removal order (weight, then edge index) is stable
//!   per component, so the interior components survive it unchanged.
//! - **One flank weight for the whole run**: every cell master is built
//!   with the chip's own flank weight, so its flank edges carry the same
//!   weight — and its components the same keys — as in the chip. The
//!   chip itself is built exactly as [`crate::detect_conflicts`] builds
//!   it, so instance-boundary interactions need no special handling.
//!
//! So the driver first *primes* an owned [`SolveCache`] by detecting each
//! unique `(cell, orientation)` class once in isolation (translations
//! share a class; the eight [`Orient`]s do not, because rotation changes
//! which feature pairs interact; classes placed only once are skipped —
//! there is nothing to reuse), then runs the flat pipeline over the
//! flattened layout with that cache attached. Components interior to an
//! instance hit the primed entries; components that straddle instance
//! boundaries miss and are solved fresh. Both paths return the same
//! solution the uncached solver would (cached results are bit-identical
//! by construction), so correctness never depends on the hit pattern —
//! only wall-clock does.
//!
//! Like [`detect_conflicts`], this entry point runs unbudgeted; route
//! hierarchical workloads through [`crate::run_flow`] for deadline
//! control (flatten first — the flow engine is flat-only today).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use aapsm_fault::Budget;
use aapsm_graph::crossing_pairs_par;
use aapsm_layout::{
    extract_phase_geometry_par, DesignRules, HierLayout, LayoutError, Orient, Placement,
};

use crate::bipartize::{CacheRef, SolveCache};
use crate::detect::{finish_pipeline, DetectConfig, DetectReport};
use crate::graphs::{build_conflict_graph_with_flank, flank_weight_for};

/// Reuse accounting for one [`detect_hier`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierDetectStats {
    /// Unique `(cell, orientation)` classes detected in isolation to
    /// prime the solve cache. Classes placed only once and classes whose
    /// master flattens to no shifters are skipped (nothing to reuse,
    /// nothing to prime).
    pub cells_detected: usize,
    /// Placed-cell occurrences in the flattened hierarchy (all depths).
    pub instances_total: usize,
    /// Bipartization components of the full-chip pass answered from the
    /// primed cache — the work the hierarchy saved.
    pub instances_reused: usize,
    /// Components of the full-chip pass that missed the cache and were
    /// solved fresh: instance-boundary interactions, plus the top cell's
    /// own geometry. On an all-interior layout this is near zero.
    pub solve_misses: usize,
}

/// A [`DetectReport`] plus the per-cell reuse accounting.
#[derive(Clone, Debug)]
pub struct HierDetectReport {
    /// The flat-identical detection result.
    pub report: DetectReport,
    /// How much of it was answered per-cell.
    pub hier: HierDetectStats,
}

/// Detect phase conflicts in a hierarchical layout, reusing per-cell
/// results across placements.
///
/// Bit-identical to flattening first: for every valid `hier` and every
/// `config.parallelism`,
/// `detect_hier(&hier, rules, config)?.report.conflicts` equals
/// `detect_conflicts(&hier.flatten()?, rules, config).conflicts`
/// (property-tested in `tests/hier_equivalence.rs`).
///
/// Errors are the structural ones surfaced by
/// [`HierLayout::flatten_with_placements`]: unknown cells, reference
/// cycles, out-of-range placements, oversized expansions.
pub fn detect_hier(
    hier: &HierLayout,
    rules: &DesignRules,
    config: &DetectConfig,
) -> Result<HierDetectReport, LayoutError> {
    let (flat, occurrences) = hier.flatten_with_placements()?;
    let geom = extract_phase_geometry_par(&flat, rules, config.parallelism);
    // One flank weight for the whole run: the priming masters and the
    // full chip must bucket identically or no key would ever match.
    // `flank_weight_for` floors at `FLANK_WEIGHT_FLOOR`, which already
    // dominates any cell-sized overlap sum, so using the chip-wide
    // weight for the isolated masters changes nothing about their
    // optima — only their cache keys, which is the point.
    let flank_weight = flank_weight_for(&geom);

    // ---- Prime: one detection per unique (cell, orientation) class. ----
    // A class placed once gains nothing from priming — the main pass
    // would solve its components exactly once either way — so only
    // classes with at least two occurrences are worth a master run.
    let mut class_counts: BTreeMap<(usize, Orient), usize> = BTreeMap::new();
    for occ in &occurrences {
        *class_counts
            .entry((occ.cell, occ.placement.orient))
            .or_insert(0) += 1;
    }
    let classes: Vec<(usize, Orient)> = class_counts
        .into_iter()
        .filter_map(|(class, count)| (count >= 2).then_some(class))
        .collect();
    let mut cache = SolveCache::with_capacity(1 << 14);
    let mut cells_detected = 0usize;
    for &(cell, orient) in &classes {
        let master = hier.flatten_cell(
            cell,
            &Placement {
                orient,
                delta: aapsm_geom::Point::new(0, 0),
            },
        )?;
        let master_geom = extract_phase_geometry_par(&master, rules, config.parallelism);
        if master_geom.shifters.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let cg = build_conflict_graph_with_flank(&master_geom, config.graph, flank_weight);
        // The master's report is discarded; this call exists to leave
        // every interior component's solution in `cache` (a bipartite
        // master has none to leave).
        let _ = finish_pipeline(
            &master_geom,
            Cow::Owned(cg),
            |g| crossing_pairs_par(g, config.parallelism),
            config,
            t0,
            CacheRef::Owned(&mut cache),
            &Budget::unlimited(),
        );
        cells_detected += 1;
    }

    // ---- Full chip: the flat build, primed cache attached. ----
    let t0 = Instant::now();
    let cg = build_conflict_graph_with_flank(&geom, config.graph, flank_weight);
    let out = finish_pipeline(
        &geom,
        Cow::Owned(cg),
        |g| crossing_pairs_par(g, config.parallelism),
        config,
        t0,
        CacheRef::Owned(&mut cache),
        &Budget::unlimited(),
    );

    Ok(HierDetectReport {
        report: out.report,
        hier: HierDetectStats {
            cells_detected,
            instances_total: occurrences.len(),
            instances_reused: out.activity.hits,
            solve_misses: out.activity.misses,
        },
    })
}
