//! The AAPSM conflict-detection pipeline (Sections 3 / 3.1 of the paper).

use crate::bipartize::{bipartize_optimal_budgeted, CacheActivity};
use crate::flow::StageProvenance;
use crate::graphs::{
    build_conflict_graph, charge_graph_build, ConflictGraph, EdgeConstraint, GraphKind,
};
use crate::{bipartize, BipartizeMethod, SolveCache};
use aapsm_fault::{Budget, BudgetExceeded};
use aapsm_graph::{CrossingSet, EdgeId, EmbeddedGraph, ParityUnionFind, PlanarizeOrder};
use aapsm_layout::PhaseGeometry;
use aapsm_tjoin::TJoinMethod;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The layout constraint selected for correction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConstraintKind {
    /// A same-phase overlap constraint (index into
    /// [`PhaseGeometry::overlaps`]): correct by separating the pair.
    Overlap(usize),
    /// An opposite-phase flanking constraint (feature index): not
    /// correctable by spacing (feature widening / mask splitting bucket).
    Flank(usize),
    /// A degenerate same-feature contradiction (feature index).
    Direct(usize),
}

/// Which pipeline stage selected a conflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictSource {
    /// Selected by optimal bipartization (Step 2).
    Bipartization,
    /// A planarization victim confirmed by the Step-3 recheck.
    Planarization,
    /// Emitted directly during extraction (degenerate geometry).
    Degenerate,
}

/// One AAPSM conflict selected for correction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Conflict {
    /// The constraint to void.
    pub constraint: ConstraintKind,
    /// Its layout-impact weight.
    pub weight: i64,
    /// The stage that selected it.
    pub source: ConflictSource,
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct DetectConfig {
    /// Which layout-to-graph reduction to use (PCG = the paper, FG = the
    /// prior-art baseline).
    pub graph: GraphKind,
    /// T-join / matching machinery for the optimal bipartization. The
    /// default, the metric closure, is the fastest on every measured
    /// design; the gadget kinds reproduce the paper's runtime tables.
    /// Every method finds a minimum-weight deletion set, but two methods
    /// may pick different sets of equal weight.
    pub tjoin: TJoinMethod,
    /// Planarization edge-removal policy.
    pub planarize_order: PlanarizeOrder,
    /// Ignored: the optimal bipartization always solves one dual T-join
    /// per connected component. The field stays only because the
    /// end-to-end benchmark in `perfbench/` reads it by this name.
    pub blocks: bool,
    /// Worker threads for the whole pipeline — phase-geometry
    /// extraction, the sharded crossing sweep feeding planarization, the
    /// per-component face trace / dual T-join extraction, and the
    /// bipartization solve: `0` = one per available CPU, `1` = serial
    /// (the default), `k` = at most `k`. The conflict-graph build itself
    /// is one serial pass at every setting, and so is the correction
    /// planner's set cover inside [`crate::run_flow`]. Every setting
    /// produces bit-identical conflict sets; see [`crate::bipartize`],
    /// [`aapsm_graph::crossing_pairs_par`] and
    /// [`aapsm_graph::component_embeddings_budgeted`].
    ///
    /// Detection itself carries no budget: [`detect_conflicts`] runs
    /// unbudgeted, and a budgeted run goes through
    /// [`crate::FlowConfig::budget`] or
    /// [`crate::RedetectEngine::set_budget`].
    pub parallelism: usize,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            graph: GraphKind::PhaseConflict,
            tjoin: TJoinMethod::default(),
            planarize_order: PlanarizeOrder::MinWeightFirst,
            blocks: false,
            parallelism: 1,
        }
    }
}

/// Pipeline statistics (Table 1 instrumentation).
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectStats {
    /// Conflict-graph nodes.
    pub graph_nodes: usize,
    /// Conflict-graph edges.
    pub graph_edges: usize,
    /// Straight-line crossings before planarization among the edges of
    /// the odd (non-bipartite) components, or among all edges when an
    /// edge of a bipartite component crosses one of them (the fallback
    /// of the odd-components path); `0` when [`DetectStats::bipartite`]
    /// is set (no sweep ran). On every measured design no crossing
    /// touches a bipartite component, so this equals the whole graph's
    /// count.
    pub crossings: usize,
    /// Edges removed by planarization (|P|), counted over the same edges
    /// as [`DetectStats::crossings`]; `0` when [`DetectStats::bipartite`]
    /// is set.
    pub planarize_removed: usize,
    /// Conflicts selected by bipartization alone (the paper's NP column
    /// when run on the PCG).
    pub bipartize_conflicts: usize,
    /// Planarization victims confirmed as conflicts in Step 3.
    pub recheck_conflicts: usize,
    /// The Theorem-1 shortcut fired: the conflict graph was already
    /// bipartite, so the report is the direct conflicts alone and the
    /// crossing sweep, planarization, bipartization and recheck never
    /// ran. A converged [`crate::RedetectEngine`] round always takes it;
    /// a converged [`crate::run_flow`] round builds no graph at all.
    pub bipartite: bool,
    /// Wall time from the start of the conflict-graph build through
    /// planarization (through the parity pass when
    /// [`DetectStats::bipartite`] is set). Phase-geometry extraction is
    /// never included, on any detection path.
    pub build_time: Duration,
    /// Wall time of the bipartization (dual + T-join + matching) — the
    /// paper's runtime comparison measures this stage. Zero when
    /// [`DetectStats::bipartite`] is set.
    pub bipartize_time: Duration,
}

/// Detection outcome.
#[derive(Clone, Debug)]
pub struct DetectReport {
    /// The minimal conflict set, including degenerate direct conflicts.
    pub conflicts: Vec<Conflict>,
    /// Statistics.
    pub stats: DetectStats,
}

impl DetectReport {
    /// Number of conflicts selected (the paper's QoR metric).
    pub fn conflict_count(&self) -> usize {
        self.conflicts.len()
    }

    /// Total weight of the selected conflicts.
    pub fn total_weight(&self) -> i64 {
        self.conflicts.iter().map(|c| c.weight).sum()
    }
}

/// Runs the full detection pipeline on extracted phase geometry:
/// build graph → planarize → optimal bipartization → Step-3 recheck.
/// A graph that is already bipartite stops right after the build (see
/// [`DetectStats::bipartite`]); otherwise only its odd components go
/// through planarization, bipartization and the recheck, since a
/// bipartite component contributes no conflict.
pub fn detect_conflicts(geom: &PhaseGeometry, config: &DetectConfig) -> DetectReport {
    match detect_geometry_budgeted(geom, config, None, &Budget::unlimited()) {
        Ok(out) => out.report,
        Err(e) => unreachable!("an unlimited budget never trips: {e}"),
    }
}

/// From-scratch detection of extracted geometry: the budgeted graph
/// build, then [`finish_pipeline`], solving through `cache`.
/// [`detect_conflicts`], every [`crate::run_flow`] round,
/// [`crate::detect_hier`] and every [`crate::RedetectEngine`] detection
/// go through here.
///
/// # Errors
///
/// [`BudgetExceeded`] when the graph build trips `budget` (no cheaper
/// build exists, so detection cannot degrade there).
pub(crate) fn detect_geometry_budgeted(
    geom: &PhaseGeometry,
    config: &DetectConfig,
    cache: Option<&SolveCache>,
    budget: &Budget,
) -> Result<PipelineOutcome, BudgetExceeded> {
    charge_graph_build(geom, budget)?;
    Ok(detect_charged_geometry(geom, config, cache, budget))
}

/// [`detect_geometry_budgeted`] after its
/// [`aapsm_fault::Stage::GraphBuild`] charge, for a caller that has made
/// the charge already.
pub(crate) fn detect_charged_geometry(
    geom: &PhaseGeometry,
    config: &DetectConfig,
    cache: Option<&SolveCache>,
    budget: &Budget,
) -> PipelineOutcome {
    let t0 = Instant::now();
    let cg = build_conflict_graph(geom, config.graph);
    finish_pipeline(geom, cg, config, t0, cache, budget)
}

/// What [`finish_pipeline`] hands back.
pub(crate) struct PipelineOutcome {
    pub report: DetectReport,
    pub provenance: StageProvenance,
    pub activity: CacheActivity,
}

impl PipelineOutcome {
    /// The outcome of detecting an assignable geometry: no conflicts,
    /// exactly what [`finish_pipeline`]'s Theorem-1 shortcut reports for
    /// it, without building the graph (its statistics stay zero).
    pub(crate) fn converged() -> PipelineOutcome {
        PipelineOutcome {
            report: DetectReport {
                conflicts: Vec::new(),
                stats: DetectStats {
                    bipartite: true,
                    ..DetectStats::default()
                },
            },
            provenance: StageProvenance::Exact,
            activity: CacheActivity::default(),
        }
    }
}

/// The back half of the detection pipeline, entered right after the
/// conflict-graph build of [`detect_charged_geometry`].
///
/// **Theorem-1 shortcut.** One parity union-find pass over the alive
/// edges marks every odd (non-bipartite) component
/// ([`bipartite_component_edges`]). A graph with no odd component is
/// phase-assignable as it stands (the paper's Theorem 1), and then so is
/// every planarized subgraph: every face is even, no dual T-join instance
/// exists, and every planarization victim re-enters the recheck's parity
/// union-find consistently. The report is then exactly the direct
/// conflicts, so the crossing sweep, planarization, bipartization and the
/// recheck are skipped.
///
/// **Odd components only.** Otherwise the edges of the bipartite
/// components are killed on the owned graph, and
/// [`aapsm_graph::crossing_pairs_probed`] sweeps the remaining (odd)
/// edges and probes every killed edge against the same grid. When no
/// killed edge crosses an odd edge, planarization, the face trace, the
/// dual T-join and the Step-3 recheck of [`optimal_pipeline`] see the odd
/// components alone. The report is bit-identical to running them on the
/// whole graph:
///
/// - A subgraph of a bipartite component stays bipartite, so whatever
///   planarization would leave of one has no odd face and yields no dual
///   T-join instance. Its victims always re-enter the recheck's parity
///   union-find consistently, and components share no node, so they
///   never change a union inside an odd component. Bipartite components
///   therefore contribute no conflict.
/// - Planarization's greedy removal pops edges in one total order and
///   changes only the crossing counts of an edge's crossing partners.
///   With no odd–bipartite crossing, the decisions on the odd edges
///   depend only on the crossings among them, which is the probed sweep.
/// - Each component is traced on its own
///   ([`aapsm_graph::component_embeddings_budgeted`]), and killing other
///   components changes neither its trace nor the relative
///   [`aapsm_graph::connected_components`] order of the odd components,
///   so the dual T-join instances, and with them the [`SolveCache`]
///   keys, do not change.
///
/// If a killed edge does cross an odd edge, every killed edge is revived
/// and the whole graph is swept and solved as before. No measured design
/// takes this fallback: there, every crossing lies inside one odd
/// component. [`DetectStats::crossings`] and
/// [`DetectStats::planarize_removed`] count the odd part, or the whole
/// graph after a fallback.
fn finish_pipeline(
    geom: &PhaseGeometry,
    mut cg: ConflictGraph,
    config: &DetectConfig,
    t0: Instant,
    cache: Option<&SolveCache>,
    budget: &Budget,
) -> PipelineOutcome {
    let graph_edges = cg.graph.alive_edge_count();
    let Some(bipartite_edges) = bipartite_component_edges(&cg.graph) else {
        let mut conflicts = Vec::new();
        push_direct_conflicts(geom, &mut conflicts, &mut HashSet::new());
        return PipelineOutcome {
            report: DetectReport {
                conflicts,
                stats: DetectStats {
                    graph_nodes: cg.graph.node_count(),
                    graph_edges,
                    bipartite: true,
                    build_time: t0.elapsed(),
                    ..DetectStats::default()
                },
            },
            provenance: StageProvenance::Exact,
            activity: CacheActivity::default(),
        };
    };
    for &e in &bipartite_edges {
        cg.graph.kill_edge(e);
    }
    let crossings =
        match aapsm_graph::crossing_pairs_probed(&cg.graph, &bipartite_edges, config.parallelism) {
            Some(crossings) => crossings,
            None => {
                for &e in &bipartite_edges {
                    cg.graph.revive_edge(e);
                }
                aapsm_graph::crossing_pairs_par(&cg.graph, config.parallelism)
            }
        };
    let (mut report, provenance, activity) =
        optimal_pipeline(geom, &mut cg, &crossings, config, t0, cache, budget);
    // The optimal pipeline counted the odd part's edges.
    report.stats.graph_edges = graph_edges;
    PipelineOutcome {
        report,
        provenance,
        activity,
    }
}

/// The alive edges of `g`'s bipartite components, ascending, or `None`
/// when `g` has no odd component (it is bipartite).
///
/// One parity union-find pass over the alive edges: an edge whose union
/// fails closes an odd cycle, so its component is odd. Later unions may
/// re-root that component, so the marks are resolved to final roots only
/// after every union.
fn bipartite_component_edges(g: &EmbeddedGraph) -> Option<Vec<EdgeId>> {
    let mut uf = ParityUnionFind::new(g.node_count());
    let mut odd_closers = Vec::new();
    for e in g.alive_edges() {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index(), 1).is_err() {
            odd_closers.push(u.index());
        }
    }
    if odd_closers.is_empty() {
        return None;
    }
    let mut odd_root = vec![false; g.node_count()];
    for n in odd_closers {
        odd_root[uf.find(n).0] = true;
    }
    Some(
        g.alive_edges()
            .filter(|&e| !odd_root[uf.find(g.endpoints(e).0.index()).0])
            .collect(),
    )
}

/// The optimal pipeline over a precomputed crossing set of `cg`'s alive
/// edges: planarize, bipartize (optionally through a
/// [`crate::SolveCache`]), run the Step-3 recheck and assemble the report.
///
/// Infallible by design: a budget trip inside the optimal bipartization
/// *degrades* to the parity-greedy heuristic (still a valid conflict
/// set) and is reported through the returned [`StageProvenance`].
// Invariant, not an error path: G_p minus D is bipartite by construction.
#[allow(clippy::expect_used)]
fn optimal_pipeline(
    geom: &PhaseGeometry,
    cg: &mut ConflictGraph,
    crossings: &CrossingSet,
    config: &DetectConfig,
    t0: Instant,
    cache: Option<&SolveCache>,
    budget: &Budget,
) -> (DetectReport, StageProvenance, CacheActivity) {
    let crossings_before = crossings.pairs.len();
    let graph_nodes = cg.graph.node_count();
    let graph_edges = cg.graph.alive_edge_count();
    let p_set =
        aapsm_graph::planarize_with_crossings(&mut cg.graph, config.planarize_order, crossings)
            .removed;
    let build_time = t0.elapsed();

    let t1 = Instant::now();
    let attempt =
        bipartize_optimal_budgeted(&cg.graph, config.tjoin, config.parallelism, budget, cache);
    // A budget trip degrades the whole stage to the (cheap, unbudgeted)
    // parity-greedy heuristic — a valid conflict set — and says so.
    let (outcome, activity, provenance) = match attempt {
        Ok((outcome, activity)) => (outcome, activity, StageProvenance::Exact),
        Err(e) => (
            bipartize(&cg.graph, BipartizeMethod::GreedyParity, config.parallelism),
            CacheActivity::default(),
            StageProvenance::Degraded(format!(
                "optimal bipartization fell back to parity-greedy: {e}"
            )),
        ),
    };
    let bipartize_time = t1.elapsed();

    // Step 3: re-check the planarization victims against the coloring of
    // G_p - D using a parity union-find seeded with the surviving edges.
    let mut uf = ParityUnionFind::new(cg.graph.node_count());
    let deleted: HashSet<EdgeId> = outcome.deleted.iter().copied().collect();
    for e in cg.graph.alive_edges() {
        if deleted.contains(&e) {
            continue;
        }
        let (u, v) = cg.graph.endpoints(e);
        uf.union(u.index(), v.index(), 1)
            .expect("G_p minus D is bipartite by construction");
    }
    // Heaviest first: expensive constraints are kept consistent, cheap
    // ones become the conflicts.
    let mut p_sorted = p_set.clone();
    p_sorted.sort_by_key(|&e| (std::cmp::Reverse(cg.graph.weight(e)), e.index()));
    let mut recheck_conflict_edges = Vec::new();
    for e in p_sorted {
        let (u, v) = cg.graph.endpoints(e);
        if uf.union(u.index(), v.index(), 1).is_err() {
            recheck_conflict_edges.push(e);
        }
    }

    // Map conflict edges to distinct constraints.
    let mut conflicts = Vec::new();
    let mut seen = HashSet::new();
    push_direct_conflicts(geom, &mut conflicts, &mut seen);
    let bipartize_conflicts = push_edge_conflicts(
        geom,
        cg,
        &outcome.deleted,
        ConflictSource::Bipartization,
        &mut conflicts,
        &mut seen,
    );
    let recheck_conflicts = push_edge_conflicts(
        geom,
        cg,
        &recheck_conflict_edges,
        ConflictSource::Planarization,
        &mut conflicts,
        &mut seen,
    );

    (
        DetectReport {
            conflicts,
            stats: DetectStats {
                graph_nodes,
                graph_edges,
                crossings: crossings_before,
                planarize_removed: p_set.len(),
                bipartize_conflicts,
                recheck_conflicts,
                bipartite: false,
                build_time,
                bipartize_time,
            },
        },
        provenance,
        activity,
    )
}

/// Appends one degenerate conflict per distinct feature of
/// `geom.direct_conflicts`, in extraction order.
fn push_direct_conflicts(
    geom: &PhaseGeometry,
    conflicts: &mut Vec<Conflict>,
    seen: &mut HashSet<ConstraintKind>,
) {
    for d in &geom.direct_conflicts {
        if seen.insert(ConstraintKind::Direct(d.feature)) {
            conflicts.push(Conflict {
                constraint: ConstraintKind::Direct(d.feature),
                weight: d.weight,
                source: ConflictSource::Degenerate,
            });
        }
    }
}

/// Appends one conflict per distinct constraint behind `edges` (in edge
/// order, skipping constraints already in `seen`) and returns how many it
/// added. An overlap conflict carries its overlap's weight, a flank
/// conflict the graph's flank weight.
fn push_edge_conflicts(
    geom: &PhaseGeometry,
    cg: &ConflictGraph,
    edges: &[EdgeId],
    source: ConflictSource,
    conflicts: &mut Vec<Conflict>,
    seen: &mut HashSet<ConstraintKind>,
) -> usize {
    let before = conflicts.len();
    for &e in edges {
        let (constraint, weight) = match cg.constraint(e) {
            EdgeConstraint::Overlap(oi) => (ConstraintKind::Overlap(oi), geom.overlaps[oi].weight),
            EdgeConstraint::Flank(fi) => (ConstraintKind::Flank(fi), cg.flank_weight),
        };
        if seen.insert(constraint) {
            conflicts.push(Conflict {
                constraint,
                weight,
                source,
            });
        }
    }
    conflicts.len() - before
}

/// The greedy bipartization baselines (the paper's GB column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GreedyKind {
    /// Literal maximum-weight spanning forest (all leftover edges become
    /// conflicts).
    Spanning,
    /// Parity-aware greedy (only odd-cycle-closing edges).
    Parity,
}

/// Runs a greedy baseline directly on the (non-planarized) conflict graph
/// and reports the selected constraints.
pub fn detect_greedy(geom: &PhaseGeometry, graph: GraphKind, kind: GreedyKind) -> DetectReport {
    let t0 = Instant::now();
    let cg = build_conflict_graph(geom, graph);
    let method = match kind {
        GreedyKind::Spanning => BipartizeMethod::GreedySpanning,
        GreedyKind::Parity => BipartizeMethod::GreedyParity,
    };
    let outcome = bipartize(&cg.graph, method, 1);
    let mut conflicts: Vec<Conflict> = geom
        .direct_conflicts
        .iter()
        .map(|d| Conflict {
            constraint: ConstraintKind::Direct(d.feature),
            weight: d.weight,
            source: ConflictSource::Degenerate,
        })
        .collect();
    push_edge_conflicts(
        geom,
        &cg,
        &outcome.deleted,
        ConflictSource::Bipartization,
        &mut conflicts,
        &mut HashSet::new(),
    );
    let n = conflicts.len();
    DetectReport {
        conflicts,
        stats: DetectStats {
            graph_nodes: cg.graph.node_count(),
            graph_edges: cg.graph.alive_edge_count(),
            bipartize_conflicts: n,
            build_time: t0.elapsed(),
            ..DetectStats::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_layout::{check_assignable, extract_phase_geometry, fixtures, DesignRules};

    fn detect_fixture(l: &aapsm_layout::Layout) -> (PhaseGeometry, DetectReport) {
        let r = DesignRules::default();
        let geom = extract_phase_geometry(l, &r);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        (geom, report)
    }

    #[test]
    fn assignable_layouts_have_no_conflicts() {
        let r = DesignRules::default();
        for l in [
            fixtures::single_wire(&r),
            fixtures::wire_row(8, 600),
            fixtures::benign_block(&r),
        ] {
            let (_, report) = detect_fixture(&l);
            assert_eq!(report.conflict_count(), 0);
        }
    }

    #[test]
    fn gate_over_strap_selects_exactly_one_overlap() {
        let r = DesignRules::default();
        let (geom, report) = detect_fixture(&fixtures::gate_over_strap(&r));
        assert_eq!(report.conflict_count(), 1);
        let c = report.conflicts[0];
        assert!(matches!(c.constraint, ConstraintKind::Overlap(_)));
        // Voiding the selected overlap restores assignability.
        let ConstraintKind::Overlap(oi) = c.constraint else {
            unreachable!()
        };
        let mut voided = geom.clone();
        voided.overlaps.remove(oi);
        assert!(check_assignable(&voided).is_ok());
    }

    #[test]
    fn conflict_removal_always_restores_assignability() {
        // The defining guarantee of the detection flow, on every fixture
        // and a synthetic design.
        let r = DesignRules::default();
        let mut layouts = vec![
            fixtures::gate_over_strap(&r),
            fixtures::stacked_jog(&r),
            fixtures::short_middle_wire(&r),
            fixtures::strap_under_bus(6, &r),
        ];
        layouts.push(aapsm_layout::synth::generate(
            &aapsm_layout::synth::SynthParams::default(),
            &r,
        ));
        for (i, l) in layouts.iter().enumerate() {
            let (geom, report) = detect_fixture(l);
            assert!(report.conflict_count() > 0, "layout {i} should conflict");
            let mut voided = geom.clone();
            let mut drop_overlaps: Vec<usize> = report
                .conflicts
                .iter()
                .filter_map(|c| match c.constraint {
                    ConstraintKind::Overlap(oi) => Some(oi),
                    _ => None,
                })
                .collect();
            assert_eq!(
                drop_overlaps.len(),
                report.conflict_count(),
                "layout {i}: all conflicts should be spacing-correctable overlaps"
            );
            drop_overlaps.sort_unstable_by(|a, b| b.cmp(a));
            for oi in drop_overlaps {
                voided.overlaps.remove(oi);
            }
            assert!(
                check_assignable(&voided).is_ok(),
                "layout {i}: voiding the conflict set must make the layout assignable"
            );
        }
    }

    #[test]
    fn strap_under_bus_needs_one_conflict_per_wire() {
        let r = DesignRules::default();
        let (_, report) = detect_fixture(&fixtures::strap_under_bus(6, &r));
        assert_eq!(report.conflict_count(), 6);
    }

    #[test]
    fn all_tjoin_methods_agree_on_conflict_weight() {
        let r = DesignRules::default();
        let l = aapsm_layout::synth::generate(
            &aapsm_layout::synth::SynthParams {
                rows: 2,
                gates_per_row: 30,
                strap_frac: 0.8,
                ..Default::default()
            },
            &r,
        );
        let geom = extract_phase_geometry(&l, &r);
        let weights: Vec<i64> = [
            TJoinMethod::Gadget(aapsm_tjoin::GadgetKind::Complete),
            TJoinMethod::Gadget(aapsm_tjoin::GadgetKind::Optimized),
            TJoinMethod::Gadget(aapsm_tjoin::GadgetKind::default()),
            TJoinMethod::ShortestPath,
        ]
        .into_iter()
        .map(|tj| {
            let report = detect_conflicts(
                &geom,
                &DetectConfig {
                    tjoin: tj,
                    ..DetectConfig::default()
                },
            );
            report
                .conflicts
                .iter()
                .filter(|c| c.source == ConflictSource::Bipartization)
                .map(|c| c.weight)
                .sum()
        })
        .collect();
        assert!(weights.windows(2).all(|w| w[0] == w[1]), "{weights:?}");
    }

    #[test]
    fn pcg_selects_no_more_conflicts_than_fg() {
        // The paper's headline QoR claim (Table 1): NP <= PCG <= FG. The
        // PCG/FG comparison rides on greedy planarization, so single-seed
        // single-conflict flips are possible; the aggregate must hold.
        let r = DesignRules::default();
        let mut pcg_total = 0usize;
        let mut fg_total = 0usize;
        for seed in [1u64, 7, 42] {
            let l = aapsm_layout::synth::generate(
                &aapsm_layout::synth::SynthParams {
                    rows: 3,
                    gates_per_row: 40,
                    strap_frac: 0.6,
                    jog_frac: 0.06,
                    short_mid_frac: 0.05,
                    seed,
                    ..Default::default()
                },
                &r,
            );
            let geom = extract_phase_geometry(&l, &r);
            let pcg = detect_conflicts(&geom, &DetectConfig::default());
            let fg = detect_conflicts(
                &geom,
                &DetectConfig {
                    graph: GraphKind::Feature,
                    ..DetectConfig::default()
                },
            );
            let np = pcg.stats.bipartize_conflicts + geom.direct_conflicts.len();
            assert!(
                np <= pcg.conflict_count(),
                "seed {seed}: NP {np} vs PCG {}",
                pcg.conflict_count()
            );
            pcg_total += pcg.conflict_count();
            fg_total += fg.conflict_count();
        }
        assert!(
            pcg_total <= fg_total,
            "aggregate PCG {pcg_total} must not exceed FG {fg_total}"
        );
    }

    #[test]
    fn greedy_baselines_select_more() {
        let r = DesignRules::default();
        let l = aapsm_layout::synth::generate(&aapsm_layout::synth::SynthParams::default(), &r);
        let geom = extract_phase_geometry(&l, &r);
        let pcg = detect_conflicts(&geom, &DetectConfig::default());
        let gb = detect_greedy(&geom, GraphKind::PhaseConflict, GreedyKind::Spanning);
        let gp = detect_greedy(&geom, GraphKind::PhaseConflict, GreedyKind::Parity);
        assert!(gb.conflict_count() > pcg.conflict_count());
        assert!(gp.conflict_count() >= pcg.conflict_count());
        assert!(gb.conflict_count() >= gp.conflict_count());
    }

    /// Scaling-suite designs covered by the shortcut test: rows_x1 and
    /// rows_x4. The larger designs repeat the same row recipe and add
    /// half a minute or more per design in debug builds.
    const SCALING_DESIGNS: usize = 2;

    /// The optimal pipeline with the shortcut bypassed: build, sweep,
    /// then [`optimal_pipeline`] regardless of bipartiteness.
    fn forced_full_pipeline(geom: &PhaseGeometry, config: &DetectConfig) -> DetectReport {
        let mut cg = build_conflict_graph(geom, config.graph);
        let crossings = aapsm_graph::crossing_pairs_par(&cg.graph, config.parallelism);
        optimal_pipeline(
            geom,
            &mut cg,
            &crossings,
            config,
            Instant::now(),
            None,
            &Budget::unlimited(),
        )
        .0
    }

    #[test]
    fn theorem1_shortcut_matches_the_full_pipeline() {
        let r = DesignRules::default();
        let mut layouts = vec![
            fixtures::single_wire(&r),
            fixtures::wire_row(8, 600),
            fixtures::gate_over_strap(&r),
            fixtures::stacked_jog(&r),
            fixtures::short_middle_wire(&r),
            fixtures::strap_under_bus(6, &r),
            fixtures::corridor_unblock_latent(&r),
            fixtures::corridor_unblock_two_round(&r),
            fixtures::diagonal_jog(&r),
            fixtures::benign_block(&r),
            aapsm_layout::synth::generate(&aapsm_layout::synth::SynthParams::default(), &r),
        ];
        layouts.extend(
            aapsm_layout::synth::scaling_suite()
                .iter()
                .take(SCALING_DESIGNS)
                .map(|d| aapsm_layout::synth::generate(&d.params, &r)),
        );
        // The standard suite's recipe (`SynthParams::default()` but for
        // size and seed) leaves many components bipartite: d1, and d6's
        // seed at a tenth of its rows and gates.
        let standard = aapsm_layout::synth::standard_suite();
        layouts.extend(
            [
                standard[0].params.clone(),
                aapsm_layout::synth::SynthParams {
                    rows: 4,
                    gates_per_row: 100,
                    ..standard[5].params.clone()
                },
            ]
            .iter()
            .map(|params| aapsm_layout::synth::generate(params, &r)),
        );
        let mut configs: Vec<DetectConfig> = [0, 1, 2, 4]
            .into_iter()
            .map(|parallelism| DetectConfig {
                parallelism,
                ..DetectConfig::default()
            })
            .collect();
        configs.push(DetectConfig {
            graph: GraphKind::Feature,
            ..DetectConfig::default()
        });
        let (mut shortcuts, mut full_runs, mut mixed) = (0usize, 0usize, 0usize);
        for (i, layout) in layouts.iter().enumerate() {
            let corrected = crate::run_flow(layout, &r, &crate::FlowConfig::default())
                .expect("fixtures and synth designs are correctable")
                .correction
                .modified;
            for (stage, l) in [("input", layout), ("corrected", &corrected)] {
                let geom = extract_phase_geometry(l, &r);
                for config in &configs {
                    let context = format!(
                        "layout {i} {stage}, {:?} p{}",
                        config.graph, config.parallelism
                    );
                    let report = detect_conflicts(&geom, config);
                    let full = forced_full_pipeline(&geom, config);
                    assert_eq!(report.conflicts, full.conflicts, "{context}");
                    assert_eq!(report.stats.graph_nodes, full.stats.graph_nodes);
                    assert_eq!(report.stats.graph_edges, full.stats.graph_edges);
                    let cg = build_conflict_graph(&geom, config.graph);
                    assert_eq!(
                        report.stats.bipartite,
                        aapsm_graph::two_color(&cg.graph).is_ok(),
                        "{context}"
                    );
                    let bipartite_edges = bipartite_component_edges(&cg.graph);
                    assert_eq!(bipartite_edges.is_none(), report.stats.bipartite);
                    mixed += usize::from(bipartite_edges.is_some_and(|b| !b.is_empty()));
                    assert!(stage == "input" || report.stats.bipartite, "{context}");
                    if report.stats.bipartite {
                        shortcuts += 1;
                        assert_eq!(report.conflicts, direct_only(&geom), "{context}");
                        assert_eq!(
                            (report.stats.crossings, report.stats.planarize_removed),
                            (0, 0),
                            "{context}"
                        );
                        assert_eq!(report.stats.bipartize_time, Duration::ZERO);
                    } else {
                        full_runs += 1;
                        assert_eq!(report.stats.crossings, full.stats.crossings);
                        assert_eq!(report.stats.planarize_removed, full.stats.planarize_removed);
                        assert_eq!(
                            report.stats.bipartize_conflicts,
                            full.stats.bipartize_conflicts
                        );
                        assert_eq!(report.stats.recheck_conflicts, full.stats.recheck_conflicts);
                    }
                }
            }
        }
        assert!(
            shortcuts > 0 && full_runs > 0 && mixed > 0,
            "{shortcuts}/{full_runs}/{mixed}"
        );
    }

    /// `DetectConfig::blocks` and the census's `blocks` argument are
    /// no-ops: detection, the whole flow and the census read the same
    /// with either value.
    #[test]
    fn blocks_knob_is_ignored() {
        let r = DesignRules::default();
        let synth =
            |params: &aapsm_layout::synth::SynthParams| aapsm_layout::synth::generate(params, &r);
        let layouts = [
            fixtures::strap_under_bus(6, &r),
            fixtures::diagonal_jog(&r),
            synth(&aapsm_layout::synth::scaling_suite()[0].params),
            synth(&aapsm_layout::synth::standard_suite()[0].params),
        ];
        let knob = DetectConfig {
            blocks: true,
            ..DetectConfig::default()
        };
        let counts = |s: &DetectStats| {
            (
                (s.graph_nodes, s.graph_edges, s.crossings),
                (s.planarize_removed, s.bipartize_conflicts),
                (s.recheck_conflicts, s.bipartite),
            )
        };
        let mut instances = 0;
        for (i, layout) in layouts.iter().enumerate() {
            let geom = extract_phase_geometry(layout, &r);
            let base = detect_conflicts(&geom, &DetectConfig::default());
            let other = detect_conflicts(&geom, &knob);
            assert_eq!(other.conflicts, base.conflicts, "layout {i}");
            assert_eq!(counts(&other.stats), counts(&base.stats), "layout {i}");

            let flow = |detect: &DetectConfig| {
                let config = crate::FlowConfig {
                    detect: detect.clone(),
                    ..crate::FlowConfig::default()
                };
                crate::run_flow(layout, &r, &config).expect("suite designs are correctable")
            };
            let (base, other) = (flow(&DetectConfig::default()), flow(&knob));
            assert_eq!(other.detection.conflicts, base.detection.conflicts);
            assert_eq!(other.plan, base.plan, "layout {i}");
            assert_eq!(other.correction.modified, base.correction.modified);
            assert_eq!(other.assignment, base.assignment, "layout {i}");
            assert_eq!(other.verified, base.verified, "layout {i}");
            assert_eq!(other.rounds, base.rounds, "layout {i}");
            assert_eq!(other.provenance, base.provenance, "layout {i}");

            let mut cg = build_conflict_graph(&geom, GraphKind::PhaseConflict);
            aapsm_graph::planarize(&mut cg.graph, PlanarizeOrder::MinWeightFirst, 1);
            let census = crate::tjoin_method_census(&cg.graph, false);
            assert_eq!(crate::tjoin_method_census(&cg.graph, true), census);
            instances += census.closure;
        }
        assert!(instances > 0, "the census must see some instance");
    }

    /// [`bipartite_component_edges`] against a per-component two-coloring
    /// on random multigraphs of a few components each, with dead edges.
    #[test]
    fn odd_components_match_a_per_component_two_coloring() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let (mut odd_seen, mut bipartite_seen) = (0, 0);
        for _ in 0..300 {
            let n = rng.gen_range(2..40);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|i| g.add_node(aapsm_geom::Point::new(i, 0)))
                .collect();
            // Edges stay inside one of a few node groups, so components
            // of both kinds come up, and later edges often merge a
            // component after it was found odd, moving its root.
            let groups = rng.gen_range(1..5).min(n as usize);
            for _ in 0..rng.gen_range(0..3 * n) {
                let group = rng.gen_range(0..groups);
                let members: Vec<_> = (group..n as usize).step_by(groups).collect();
                let (u, v) = (
                    members[rng.gen_range(0..members.len())],
                    members[rng.gen_range(0..members.len())],
                );
                if u != v {
                    let e = g.add_edge(nodes[u], nodes[v], 1);
                    if rng.gen_bool(0.1) {
                        g.kill_edge(e);
                    }
                }
            }
            let comps = aapsm_graph::connected_components(&g);
            let mut odd = vec![false; comps.count];
            for (c, flag) in odd.iter_mut().enumerate() {
                let mut sub = g.clone();
                for e in g.alive_edges() {
                    if comps.component(g.endpoints(e).0) as usize != c {
                        sub.kill_edge(e);
                    }
                }
                *flag = aapsm_graph::two_color(&sub).is_err();
            }
            let expected: Vec<EdgeId> = g
                .alive_edges()
                .filter(|&e| !odd[comps.component(g.endpoints(e).0) as usize])
                .collect();
            let any_odd = odd.iter().any(|&o| o);
            odd_seen += usize::from(any_odd);
            bipartite_seen += usize::from(any_odd && !expected.is_empty());
            assert_eq!(
                bipartite_component_edges(&g),
                any_odd.then_some(expected),
                "{g:?}"
            );
        }
        assert!(
            odd_seen > 50 && bipartite_seen > 50,
            "{odd_seen}/{bipartite_seen}"
        );
    }

    /// A rect of `2 * half` by `2 * half` dbu centred on `(x, y)`.
    fn square(x: i64, y: i64, half: i64) -> aapsm_geom::Rect {
        aapsm_geom::Rect::new(x - half, y - half, x + half, y + half)
    }

    /// A hand-built geometry with two components. Features A, B and C
    /// close an odd cycle of three flanks and three overlaps: A's high
    /// shifter overlaps B's low one (weight 50), B–C and C–A weigh 10.
    /// Feature D stands alone, so its flank edge is a bipartite component.
    /// With `cross` set, D's flank runs vertically through the A–B
    /// overlap's first half-edge; without it, D sits far away.
    fn odd_cycle_and_lone_flank(cross: bool) -> PhaseGeometry {
        use aapsm_layout::{Feature, FeatureOrientation, OverlapPair, Shifter, Side};
        // Shifter-node positions (the PCG puts nodes at shifter centres):
        // the odd cycle runs around a 2000 × 2000 square; D's shifters sit
        // 500 below and above the A–B half-edge, or 10 000 to the right.
        let dx = if cross { 1250 } else { 10_000 };
        let features = [
            ((0, 0), (1000, 0)),
            ((2000, 0), (2000, 2000)),
            ((1000, 2000), (0, 2000)),
            ((dx, -500), (dx, 500)),
        ];
        let mut geom = PhaseGeometry::default();
        for (fi, &(lo, hi)) in features.iter().enumerate() {
            for (p, side) in [(lo, Side::Low), (hi, Side::High)] {
                geom.shifters.push(Shifter {
                    rect: square(p.0, p.1, 50),
                    feature: fi,
                    side,
                });
            }
            let mid = (lo.0 + hi.0) / 2;
            let mid_y = (lo.1 + hi.1) / 2;
            geom.features.push(Feature {
                rect: square(mid, mid_y, 40),
                orientation: FeatureOrientation::Vertical,
                critical: true,
                shifters: Some((2 * fi, 2 * fi + 1)),
            });
        }
        for (a, b, weight) in [(1, 2, 50), (3, 4, 10), (0, 5, 10)] {
            geom.overlaps.push(OverlapPair {
                a,
                b,
                gap_x: -1,
                gap_y: -1,
                weight,
            });
        }
        geom
    }

    #[test]
    fn an_odd_bipartite_crossing_falls_back_to_the_whole_graph() {
        for cross in [true, false] {
            let geom = odd_cycle_and_lone_flank(cross);
            let mut cg = build_conflict_graph(&geom, GraphKind::PhaseConflict);
            let bipartite = bipartite_component_edges(&cg.graph).expect("A, B, C are odd");
            let flank_d = EdgeId(cg.graph.edge_count() as u32 - 1);
            assert_eq!(bipartite, [flank_d]);
            cg.graph.kill_edge(flank_d);
            let probed = aapsm_graph::crossing_pairs_probed(&cg.graph, &bipartite, 1);
            assert_eq!(probed.is_none(), cross);
            for parallelism in [0, 1, 2, 4] {
                let config = DetectConfig {
                    parallelism,
                    ..DetectConfig::default()
                };
                let report = detect_conflicts(&geom, &config);
                let full = forced_full_pipeline(&geom, &config);
                assert_eq!(report.conflicts, full.conflicts, "cross {cross}");
                let stats = |r: &DetectReport| {
                    let s = r.stats;
                    (
                        s.graph_nodes,
                        s.graph_edges,
                        s.crossings,
                        s.planarize_removed,
                    )
                };
                assert_eq!(stats(&report), stats(&full), "cross {cross}");
                // Crossed, planarization removes the A–B half-edge and the
                // recheck confirms it; else the cheapest overlap goes.
                let expected = if cross {
                    (0, 50, ConflictSource::Planarization)
                } else {
                    (1, 10, ConflictSource::Bipartization)
                };
                let c = report.conflicts[0];
                assert_eq!(report.conflict_count(), 1);
                assert_eq!(
                    (c.constraint, c.weight, c.source),
                    (ConstraintKind::Overlap(expected.0), expected.1, expected.2)
                );
                assert_eq!(report.stats.crossings, usize::from(cross));
            }
        }
    }

    /// The direct conflicts of `geom`, first occurrence per feature.
    fn direct_only(geom: &PhaseGeometry) -> Vec<Conflict> {
        let mut seen = HashSet::new();
        geom.direct_conflicts
            .iter()
            .filter(|d| seen.insert(d.feature))
            .map(|d| Conflict {
                constraint: ConstraintKind::Direct(d.feature),
                weight: d.weight,
                source: ConflictSource::Degenerate,
            })
            .collect()
    }

    #[test]
    fn shortcut_reports_deduplicated_direct_conflicts() {
        // Extraction emits at most one direct conflict per feature; the
        // injected duplicate checks that both paths deduplicate alike.
        let r = DesignRules::default();
        let direct = [(1, 5), (1, 7), (3, 2)]
            .map(|(feature, weight)| aapsm_layout::DirectConflict { feature, weight });
        for (layout, bipartite) in [
            (fixtures::wire_row(4, 600), true),
            (fixtures::strap_under_bus(4, &r), false),
        ] {
            let mut geom = extract_phase_geometry(&layout, &r);
            geom.direct_conflicts.extend(direct);
            let report = detect_conflicts(&geom, &DetectConfig::default());
            assert_eq!(report.stats.bipartite, bipartite);
            let full = forced_full_pipeline(&geom, &DetectConfig::default());
            assert_eq!(report.conflicts, full.conflicts);
            assert_eq!(report.conflicts[..2], direct_only(&geom)[..]);
            assert_eq!(direct_only(&geom).len(), 2);
        }
    }
}
