//! Tests pinning the paper's qualitative experimental claims on the
//! reproduction suite. The quantitative record is what the `aapsm-bench`
//! table binaries (`table1`, `table2`) print.

use aapsm::core::{
    apply_correction, detect_conflicts, detect_greedy, plan_correction, CorrectionOptions,
    DetectConfig, GadgetKind, GraphKind, GreedyKind, TJoinMethod,
};
use aapsm::layout::synth;
use aapsm::prelude::*;
use aapsm::tjoin::{solve_gadget_budgeted, Budget, MatchingContext, TJoinInstance};

fn conflict_rich_design(seed: u64) -> PhaseGeometry {
    let rules = DesignRules::default();
    let layout = synth::generate(
        &synth::SynthParams {
            rows: 3,
            gates_per_row: 60,
            strap_frac: 0.6,
            jog_frac: 0.06,
            short_mid_frac: 0.05,
            seed,
            ..Default::default()
        },
        &rules,
    );
    extract_phase_geometry(&layout, &rules)
}

/// Table 1 QoR ordering: NP <= PCG <= FG << GB. The PCG-vs-FG comparison
/// is driven by greedy planarization, so single-conflict flips can happen
/// on individual seeds (the paper's "consistently" is about its own
/// benchmark suite); we allow 2% per-seed slack and require the aggregate
/// ordering strictly.
#[test]
fn table1_qor_ordering() {
    let mut pcg_total = 0usize;
    let mut fg_total = 0usize;
    for seed in [1u64, 2, 3, 4, 5] {
        let geom = conflict_rich_design(seed);
        let pcg = detect_conflicts(&geom, &DetectConfig::default());
        let fg = detect_conflicts(
            &geom,
            &DetectConfig {
                graph: GraphKind::Feature,
                ..DetectConfig::default()
            },
        );
        let gb = detect_greedy(&geom, GraphKind::PhaseConflict, GreedyKind::Spanning);
        let np = pcg.stats.bipartize_conflicts + geom.direct_conflicts.len();
        assert!(np <= pcg.conflict_count(), "seed {seed}");
        assert!(
            pcg.conflict_count() as f64 <= fg.conflict_count() as f64 * 1.02 + 1.0,
            "seed {seed}: PCG {} far above FG {}",
            pcg.conflict_count(),
            fg.conflict_count()
        );
        assert!(
            gb.conflict_count() as f64 >= 1.5 * pcg.conflict_count().max(1) as f64,
            "seed {seed}: GB should be far worse ({} vs {})",
            gb.conflict_count(),
            pcg.conflict_count()
        );
        pcg_total += pcg.conflict_count();
        fg_total += fg.conflict_count();
    }
    assert!(
        pcg_total <= fg_total,
        "aggregate: PCG {pcg_total} must not exceed FG {fg_total}"
    );
}

/// Table 1 runtime claim: generalized gadgets build strictly smaller
/// matching instances than optimized gadgets on high-degree duals.
#[test]
fn generalized_gadgets_are_smaller() {
    let mut edges = Vec::new();
    let mut t = vec![false];
    for l in 0..20usize {
        edges.push((0, l + 1, 1));
        t.push(l % 2 == 0);
    }
    let inst = TJoinInstance::new(21, edges, t).expect("valid");
    let mut ctx = MatchingContext::new();
    let unlimited = Budget::unlimited();
    let (_, opt) = solve_gadget_budgeted(&inst, GadgetKind::Optimized, &mut ctx, &unlimited)
        .expect("feasible");
    let gen8 = GadgetKind::Generalized { max_group: 8 };
    let (_, gen) = solve_gadget_budgeted(&inst, gen8, &mut ctx, &unlimited).expect("feasible");
    assert!(gen.matching_nodes < opt.matching_nodes);
}

/// All T-join engines give identical conflict weights (exactness).
#[test]
fn engines_agree() {
    let geom = conflict_rich_design(7);
    let weights: Vec<i64> = [
        TJoinMethod::Gadget(GadgetKind::Optimized),
        TJoinMethod::Gadget(GadgetKind::default()),
        TJoinMethod::ShortestPath,
    ]
    .into_iter()
    .map(|tjoin| {
        detect_conflicts(
            &geom,
            &DetectConfig {
                tjoin,
                ..DetectConfig::default()
            },
        )
        .conflicts
        .iter()
        .map(|c| c.weight)
        .sum()
    })
    .collect();
    assert!(weights.windows(2).all(|w| w[0] == w[1]), "{weights:?}");
}

/// Table 2 claims: area increase stays in a single-digit-percent band and
/// a sizable fraction of conflicts is corrected by a single space.
#[test]
fn table2_band() {
    let rules = DesignRules::default();
    for d in synth::modification_suite().into_iter().take(3) {
        let layout = synth::generate(&d.params, &rules);
        let geom = extract_phase_geometry(&layout, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        if report.conflict_count() == 0 {
            continue;
        }
        let plan = plan_correction(
            &geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        assert!(plan.uncorrectable.is_empty(), "{}", d.name);
        let outcome = apply_correction(&layout, &plan, &rules);
        assert!(outcome.verified, "{}", d.name);
        assert!(
            outcome.area_increase_pct > 0.0 && outcome.area_increase_pct < 15.0,
            "{}: {:.2}% outside the paper-like band",
            d.name,
            outcome.area_increase_pct
        );
        assert!(
            plan.max_conflicts_single_line >= 1,
            "{}: at least one line corrects some conflict",
            d.name
        );
        assert!(
            plan.grid_line_count() <= report.conflict_count(),
            "{}: sharing lines across conflicts",
            d.name
        );
    }
}
