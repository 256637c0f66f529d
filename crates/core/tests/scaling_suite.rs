//! Behavior contract of the parallel-scaling suite
//! (`aapsm_layout::synth::scaling_suite`), one test per design so the
//! four run concurrently:
//!
//! * every parallel stage equals its serial run: extraction, the
//!   planarize removed set and optimal-dual bipartization, whose
//!   per-component face trace is the pipeline's only one (parallelism 2
//!   against 1; 2 is explicit so the parallel paths run on any host).
//!   Correction planning is serial at every setting, so it is pinned,
//!   not compared;
//! * a `RedetectEngine` session's re-detect equals scratch extract +
//!   detect on a one-conflict ("local") and an all-conflicts ("full")
//!   correction;
//! * the local round keeps the solve cache warm: more hits than misses,
//!   and only a handful of misses regardless of chip size;
//! * the bipartization size, the planarized graph's edge count, the
//!   dual T-join instance count (the closure/gadget census, every
//!   instance solved by the metric closure) and the correction plan (proven cover
//!   components, cuts and total cut width) are pinned exactly. A drift in
//!   any of them is a behavior change, not noise.

use aapsm_core::{
    bipartize, build_conflict_graph, detect_conflicts, plan_correction, tjoin_method_census,
    BipartizeMethod, CorrectionOptions, DetectConfig, GraphKind, PlanarizeOrder, RedetectEngine,
    TJoinMethod,
};
use aapsm_graph::planarize;
use aapsm_layout::synth::{generate, scaling_suite};
use aapsm_layout::{apply_cuts, extract_phase_geometry_par, DesignRules};

/// The parallel degree checked against serial.
const PARALLEL: usize = 2;

/// Checks one scaling-suite design and pins its optimal bipartization
/// size, the planarized graph's alive edges, the (closure, gadget)
/// census of its component instances under the default `TJoinMethod`
/// (every instance is a closure solve), and its default
/// correction plan as (proven cover components, cover components, cuts,
/// total cut width).
fn check_design(
    name: &str,
    deleted: usize,
    alive_edges: usize,
    picks: (usize, usize),
    plan: (usize, usize, usize, i64),
) {
    let design = scaling_suite()
        .into_iter()
        .find(|d| d.name == name)
        .expect("design is in the scaling suite");
    let rules = DesignRules::default();
    let layout = generate(&design.params, &rules);

    let geom = extract_phase_geometry_par(&layout, &rules, 1);
    assert_eq!(
        geom,
        extract_phase_geometry_par(&layout, &rules, PARALLEL),
        "{name}: parallel extraction diverged from serial"
    );

    let mut cg = build_conflict_graph(&geom, GraphKind::PhaseConflict);
    let mut cg_par = cg.clone();
    let removed = planarize(&mut cg.graph, PlanarizeOrder::MinWeightFirst, 1).removed;
    let removed_par =
        planarize(&mut cg_par.graph, PlanarizeOrder::MinWeightFirst, PARALLEL).removed;
    assert_eq!(
        removed, removed_par,
        "{name}: parallel planarization diverged from serial"
    );
    assert_eq!(cg, cg_par, "{name}: planarized graphs differ");
    let g = &cg.graph;

    let method = BipartizeMethod::OptimalDual {
        tjoin: TJoinMethod::default(),
    };
    let serial = bipartize(g, method, 1);
    assert_eq!(
        serial.deleted,
        bipartize(g, method, PARALLEL).deleted,
        "{name}: parallel bipartization diverged from serial"
    );
    assert_eq!(serial.deleted.len(), deleted, "{name}: deleted edges");
    assert_eq!(g.alive_edge_count(), alive_edges, "{name}: alive edges");
    let census = tjoin_method_census(g, false);
    assert_eq!(
        (census.closure, census.gadget),
        picks,
        "{name}: T-join method census"
    );

    let config = DetectConfig {
        parallelism: PARALLEL,
        ..DetectConfig::default()
    };
    let mut engine = RedetectEngine::new(rules, config.clone());
    let round0 = engine.detect_full(&layout);
    assert!(
        round0.conflict_count() > 0,
        "{name}: scaling designs are expected to need correction"
    );
    let plan_geom = engine.geometry().expect("detected");
    let round0_plan = plan_correction(
        plan_geom,
        &round0.conflicts,
        &rules,
        &CorrectionOptions::default(),
    );
    assert_eq!(
        (
            round0_plan.cover_optimal_components,
            round0_plan.cover_components,
            round0_plan.cuts.len(),
            round0_plan.cuts.iter().map(|c| c.width).sum::<i64>(),
        ),
        plan,
        "{name}: correction plan (proven, components, cuts, cut width)"
    );

    // Each round replays from a clone of the post-round-0 engine and is
    // checked against extract + detect from scratch on the cut layout.
    let redetect = |conflict_count: usize, label: &str| {
        let plan = plan_correction(
            plan_geom,
            &round0.conflicts[..conflict_count],
            &rules,
            &CorrectionOptions::default(),
        );
        assert!(!plan.cuts.is_empty(), "{name}: {label} plan is empty");
        let modified = apply_cuts(&layout, &plan.cuts);
        let scratch_geom = extract_phase_geometry_par(&modified, &rules, PARALLEL);
        let scratch = detect_conflicts(&scratch_geom, &config);
        let mut e = engine.clone();
        let report = e.redetect_after_correction(&modified, &plan.cuts);
        assert_eq!(
            e.geometry(),
            Some(&scratch_geom),
            "{name}: {label} incremental re-extraction diverged from scratch"
        );
        assert_eq!(
            report.conflicts, scratch.conflicts,
            "{name}: {label} incremental re-detect diverged from scratch"
        );
        assert_eq!(report.stats.crossings, scratch.stats.crossings);
        assert_eq!(
            report.stats.planarize_removed,
            scratch.stats.planarize_removed
        );
        *e.last_stats()
    };
    let local = redetect(1, "local");
    // A one-conflict round may only miss on the components its cuts
    // dirtied: a handful per inserted grid line, independent of chip
    // size. A cold cache here means the solve keys are unstable again.
    assert!(
        local.solve_hits > local.solve_misses,
        "{name}: solve cache went cold on a one-conflict round: {local:?}"
    );
    assert!(
        local.solve_misses <= 16,
        "{name}: too many solve-cache misses on a one-conflict round: {local:?}"
    );
    redetect(round0.conflict_count(), "full");
}

#[test]
fn rows_x1() {
    check_design("rows_x1", 73, 1578, (34, 0), (20, 20, 25, 4030));
}

#[test]
fn rows_x4() {
    check_design("rows_x4", 319, 6313, (130, 0), (53, 53, 107, 18097));
}

#[test]
fn rows_x16() {
    check_design("rows_x16", 1304, 25485, (539, 0), (186, 186, 285, 55824));
}

#[test]
fn rows_x64() {
    check_design("rows_x64", 5475, 103426, (2197, 0), (387, 388, 825, 185398));
}
