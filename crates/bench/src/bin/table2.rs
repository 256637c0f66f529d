//! Regenerates Table 2: layout modification for a variety of designs.
//!
//! Columns follow the paper: design area (µm²), number of conflicts
//! selected by detection, number of grid lines where end-to-end spaces are
//! added, the maximum number of conflicts removed by a single line, and
//! the percentage area increase. Two columns check the run: `verified`
//! (the corrected layout is phase-assignable) and `proven` (the set cover
//! was solved to proven optimality). The binary exits non-zero when any
//! design fails verification.
//!
//! Usage: `cargo run -p aapsm-bench --bin table2 --release`

use aapsm_bench::prepare;
use aapsm_core::{
    apply_correction, detect_conflicts, plan_correction, CorrectionOptions, DetectConfig,
};
use aapsm_layout::synth::modification_suite;
use aapsm_layout::DesignRules;

fn main() {
    let rules = DesignRules::default();
    println!(
        "{:<5} {:>12} | {:>9} {:>6} {:>5} | {:>8} {:>9} {:>6}",
        "design", "area (um^2)", "conflicts", "grid", "max", "area+%", "verified", "proven"
    );
    println!("{}", "-".repeat(70));
    let mut increases = Vec::new();
    let mut unverified = Vec::new();
    for d in modification_suite() {
        let p = prepare(&d, &rules);
        let report = detect_conflicts(&p.geom, &DetectConfig::default());
        let plan = plan_correction(
            &p.geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        let outcome = apply_correction(&p.layout, &plan, &rules);
        let area_um2 = outcome.area_before as f64 / 1e6; // dbu^2 (nm^2) -> um^2
        increases.push(outcome.area_increase_pct);
        if !outcome.verified {
            unverified.push(p.name);
        }
        println!(
            "{:<5} {:>12.1} | {:>9} {:>6} {:>5} | {:>7.2}% {:>9} {:>6}",
            p.name,
            area_um2,
            report.conflict_count(),
            plan.grid_line_count(),
            plan.max_conflicts_single_line,
            outcome.area_increase_pct,
            if outcome.verified { "yes" } else { "NO" },
            if plan.cover_optimal { "yes" } else { "no" }
        );
    }
    println!("{}", "-".repeat(70));
    let avg = increases.iter().sum::<f64>() / increases.len() as f64;
    let (lo, hi) = (
        increases.iter().cloned().fold(f64::INFINITY, f64::min),
        increases.iter().cloned().fold(0.0f64, f64::max),
    );
    println!(
        "area increase range {:.2}%..{:.2}%, average {:.2}%  (paper: 0.7%..11.8%, average ~4%)",
        lo, hi, avg
    );
    if !unverified.is_empty() {
        eprintln!("unverified designs: {}", unverified.join(", "));
        std::process::exit(1);
    }
}
