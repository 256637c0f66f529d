//! Benchmark harness for the DATE 2005 bright-field AAPSM reproduction.
//!
//! The binaries regenerate the paper's tables and figures ([`table1`
//! bin](../src/bin/table1.rs): conflict-detection QoR and gadget runtimes;
//! [`table2` bin](../src/bin/table2.rs): layout modification; `fig2` and
//! `fig3_gadgets`). This library holds the shared plumbing: design
//! preparation and measurement helpers.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use aapsm_core::{
    detect_conflicts, detect_greedy, DetectConfig, GadgetKind, GraphKind, GreedyKind, TJoinMethod,
};
use aapsm_layout::synth::{generate, BenchDesign};
use aapsm_layout::{extract_phase_geometry, DesignRules, Layout, PhaseGeometry};
use std::time::Duration;

/// A generated benchmark design with its extracted phase geometry.
pub struct PreparedDesign {
    /// Design name (table row label).
    pub name: &'static str,
    /// The generated layout.
    pub layout: Layout,
    /// Extracted features/shifters/overlaps.
    pub geom: PhaseGeometry,
}

/// Generates and extracts one suite design.
pub fn prepare(design: &BenchDesign, rules: &DesignRules) -> PreparedDesign {
    let layout = generate(&design.params, rules);
    let geom = extract_phase_geometry(&layout, rules);
    PreparedDesign {
        name: design.name,
        layout,
        geom,
    }
}

/// One Table 1 row: QoR of all four detection schemes plus the matching
/// runtimes with optimized and generalized gadgets.
pub struct Table1Row {
    /// Design name.
    pub name: &'static str,
    /// Polygon count.
    pub polygons: usize,
    /// Conflicts from optimal bipartization only, PCG representation
    /// (planarization cost not counted) — column NP.
    pub np: usize,
    /// Full flow on the feature graph — column FG.
    pub fg: usize,
    /// Full flow on the phase conflict graph — column PCG.
    pub pcg: usize,
    /// Literal greedy spanning-forest baseline — column GB.
    pub gb: usize,
    /// Parity-aware greedy (GB⁺, ours).
    pub gb_parity: usize,
    /// Bipartization wall time with optimized (≤3) gadgets.
    pub o_gadget_time: Duration,
    /// Bipartization wall time with generalized gadgets.
    pub g_gadget_time: Duration,
}

/// Runs all Table 1 measurements on one design.
pub fn table1_row(p: &PreparedDesign) -> Table1Row {
    let pcg_opt = detect_conflicts(
        &p.geom,
        &DetectConfig {
            tjoin: TJoinMethod::Gadget(GadgetKind::Optimized),
            ..DetectConfig::default()
        },
    );
    let pcg_gen = detect_conflicts(
        &p.geom,
        &DetectConfig {
            tjoin: TJoinMethod::Gadget(GadgetKind::default()),
            ..DetectConfig::default()
        },
    );
    let fg = detect_conflicts(
        &p.geom,
        &DetectConfig {
            graph: GraphKind::Feature,
            ..DetectConfig::default()
        },
    );
    let gb = detect_greedy(&p.geom, GraphKind::PhaseConflict, GreedyKind::Spanning);
    let gbp = detect_greedy(&p.geom, GraphKind::PhaseConflict, GreedyKind::Parity);
    Table1Row {
        name: p.name,
        polygons: p.layout.len(),
        np: pcg_gen.stats.bipartize_conflicts + p.geom.direct_conflicts.len(),
        fg: fg.conflict_count(),
        pcg: pcg_gen.conflict_count(),
        gb: gb.conflict_count(),
        gb_parity: gbp.conflict_count(),
        o_gadget_time: pcg_opt.stats.bipartize_time,
        g_gadget_time: pcg_gen.stats.bipartize_time,
    }
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_layout::synth::standard_suite;

    #[test]
    fn table1_row_on_smallest_design() {
        let rules = DesignRules::default();
        let suite = standard_suite();
        let p = prepare(&suite[0], &rules);
        let row = table1_row(&p);
        assert!(row.polygons >= 1000);
        // The paper's ordering claims.
        assert!(row.np <= row.pcg, "NP <= PCG");
        assert!(row.pcg <= row.fg, "PCG <= FG");
        assert!(row.gb >= row.gb_parity, "GB literal over-deletes");
        assert!(row.gb_parity >= row.pcg, "greedy never beats optimal");
    }
}
