//! The AAPSM conflict-detection pipeline (Sections 3 / 3.1 of the paper).

use crate::bipartize::{bipartize_optimal_budgeted, CacheActivity};
use crate::flow::StageProvenance;
use crate::graphs::{
    build_conflict_graph, charge_graph_build, ConflictGraph, EdgeConstraint, GraphKind,
};
use crate::{bipartize, BipartizeMethod, SolveCache};
use aapsm_fault::{Budget, BudgetExceeded};
use aapsm_geom::{GridIndex, Segment};
use aapsm_graph::{CrossingSet, EdgeId, EmbeddedGraph, ParityUnionFind, PlanarizeOrder};
use aapsm_layout::{CutMap, PhaseGeometry, SpaceCut};
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
    /// [`aapsm_graph::component_embeddings_budgeted`]. Under
    /// [`crate::detect_hier`] it spreads the `(cell, orientation)`
    /// classes over the workers, each class's stages running serially,
    /// and runs the stages of the remaining flat geometry (the rest) at
    /// this setting.
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
    let components = EdgeComponents::of(&cg.graph);
    finish_pipeline(geom, cg, components, config, t0, cache, budget, None)
}

/// [`finish_pipeline`] on a conflict graph the caller built (from
/// `geom`, starting the build clock at `t0`), unbudgeted and uncached.
/// [`crate::detect_hier`] builds its parts' graphs itself, with the
/// whole chip's flank weight. A class pass has swept its whole graph
/// already to group its components, and hands the pairs over as `known`:
/// [`CrossingSet::alive_part`] reads the odd part's pairs and the probe's
/// verdict off them instead of sweeping again.
pub(crate) fn detect_built_graph(
    geom: &PhaseGeometry,
    cg: ConflictGraph,
    config: &DetectConfig,
    t0: Instant,
    known: Option<&CrossingSet>,
) -> PipelineOutcome {
    let components = EdgeComponents::of(&cg.graph);
    let unlimited = Budget::unlimited();
    finish_pipeline(geom, cg, components, config, t0, None, &unlimited, known)
}

/// What [`finish_pipeline`] and [`detect_after_cuts`] hand back.
pub(crate) struct PipelineOutcome {
    pub report: DetectReport,
    pub provenance: StageProvenance,
    pub activity: CacheActivity,
    /// The round's conflict graph and what the pipeline decided on it;
    /// `None` when no graph was built.
    pub round: Option<Round>,
    /// The odd components [`detect_after_cuts`] reused and re-ran.
    pub reuse: ComponentReuse,
}

/// A detected round by conflict-graph edge id: the graph, moved out of
/// the pipeline, and what each stage decided on it. This is what
/// [`detect_after_cuts`] detects the next geometry against.
#[derive(Clone)]
pub(crate) struct Round {
    /// The conflict graph; its kill flags are whatever the pipeline left.
    pub graph: ConflictGraph,
    /// Its components, as classified right after the build.
    pub components: EdgeComponents,
    /// The crossing pairs planarization read, counted in
    /// [`DetectStats::crossings`]. Empty when the Theorem-1 shortcut fired.
    pub crossings: CrossingSet,
    /// Planarization's victims: in removal order after a detection from
    /// scratch, ascending after an edit-local one.
    pub removed: Vec<EdgeId>,
    /// The bipartization's deleted edges, ascending.
    pub deleted: Vec<EdgeId>,
    /// The victims the Step-3 recheck confirmed, heaviest first.
    pub hits: Vec<EdgeId>,
    /// An edge of a bipartite component crossed an odd one, so the
    /// whole graph was swept and solved.
    pub whole_graph: bool,
}

/// The odd components of an edit-local round, by how they were detected;
/// both `0` for a detection from scratch.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ComponentReuse {
    /// Odd components whose kept outcome was carried over.
    pub reused: usize,
    /// Odd components that went through the pipeline.
    pub rerun: usize,
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
            round: None,
            reuse: ComponentReuse::default(),
        }
    }

    /// The report and its provenance; the rest is dropped here.
    pub(crate) fn into_report(self) -> (DetectReport, StageProvenance) {
        (self.report, self.provenance)
    }
}

/// The connected components of a conflict graph's alive edges and which
/// of them are odd (not bipartite), from one parity union-find pass: an
/// edge whose union fails closes an odd cycle, so its component is odd.
/// Later unions may re-root that component, so the marks are resolved to
/// final roots only after every union.
#[derive(Clone)]
pub(crate) struct EdgeComponents {
    /// Per edge id, the node index of its component's root; `u32::MAX`
    /// for an edge that was dead at the pass.
    root: Vec<u32>,
    /// Per node index, whether it roots an odd component.
    odd_root: Vec<bool>,
    any_odd: bool,
}

impl EdgeComponents {
    pub(crate) fn of(g: &EmbeddedGraph) -> EdgeComponents {
        let mut uf = ParityUnionFind::new(g.node_count());
        let mut odd_closers = Vec::new();
        for e in g.alive_edges() {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index(), 1).is_err() {
                odd_closers.push(u.index());
            }
        }
        let mut root = vec![NO_EDGE; g.edge_count()];
        for e in g.alive_edges() {
            root[e.index()] = uf.find(g.endpoints(e).0.index()).0 as u32;
        }
        let mut odd_root = vec![false; g.node_count()];
        for &n in &odd_closers {
            odd_root[uf.find(n).0] = true;
        }
        EdgeComponents {
            root,
            odd_root,
            any_odd: !odd_closers.is_empty(),
        }
    }

    /// The root of an edge alive at the pass.
    fn root(&self, e: EdgeId) -> usize {
        self.root[e.index()] as usize
    }

    /// Whether an edge alive at the pass lies in an odd component.
    fn is_odd(&self, e: EdgeId) -> bool {
        self.odd_root[self.root(e)]
    }

    /// The alive edges of the bipartite components, ascending, or `None`
    /// when no component is odd (the graph is bipartite).
    pub(crate) fn bipartite_edges(&self) -> Option<Vec<EdgeId>> {
        self.any_odd.then(|| {
            (0..self.root.len() as u32)
                .map(EdgeId)
                .filter(|&e| self.root[e.index()] != NO_EDGE && !self.is_odd(e))
                .collect()
        })
    }
}

/// "No edge" in the `u32` edge and root tables of this module.
const NO_EDGE: u32 = u32::MAX;

/// The back half of the detection pipeline, entered right after the
/// conflict-graph build of [`detect_charged_geometry`].
///
/// **Theorem-1 shortcut.** One parity union-find pass over the alive
/// edges marks every odd (non-bipartite) component
/// ([`EdgeComponents`]). A graph with no odd component is
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
///
/// `components` is the parity pass over `cg` as built.
#[allow(clippy::too_many_arguments)]
fn finish_pipeline(
    geom: &PhaseGeometry,
    mut cg: ConflictGraph,
    components: EdgeComponents,
    config: &DetectConfig,
    t0: Instant,
    cache: Option<&SolveCache>,
    budget: &Budget,
    known: Option<&CrossingSet>,
) -> PipelineOutcome {
    let graph_nodes = cg.graph.node_count();
    let graph_edges = cg.graph.alive_edge_count();
    let Some(bipartite_edges) = components.bipartite_edges() else {
        let mut conflicts = Vec::new();
        push_direct_conflicts(geom, &mut conflicts, &mut HashSet::new());
        return PipelineOutcome {
            report: DetectReport {
                conflicts,
                stats: DetectStats {
                    graph_nodes,
                    graph_edges,
                    bipartite: true,
                    build_time: t0.elapsed(),
                    ..DetectStats::default()
                },
            },
            provenance: StageProvenance::Exact,
            activity: CacheActivity::default(),
            round: Some(Round {
                graph: cg,
                components,
                crossings: CrossingSet::default(),
                removed: Vec::new(),
                deleted: Vec::new(),
                hits: Vec::new(),
                whole_graph: false,
            }),
            reuse: ComponentReuse::default(),
        };
    };
    for &e in &bipartite_edges {
        cg.graph.kill_edge(e);
    }
    let probed = match known {
        Some(all) => all.alive_part(&cg.graph),
        None => aapsm_graph::crossing_pairs_probed(&cg.graph, &bipartite_edges, config.parallelism),
    };
    let whole_graph = probed.is_none();
    let crossings = probed.unwrap_or_else(|| {
        for &e in &bipartite_edges {
            cg.graph.revive_edge(e);
        }
        aapsm_graph::crossing_pairs_par(&cg.graph, config.parallelism)
    });
    let d = optimal_pipeline(&mut cg, &crossings, config, t0, cache, budget);
    let report = assemble_report(
        geom,
        &cg,
        &d.deleted,
        &d.hits,
        DetectStats {
            graph_nodes,
            graph_edges,
            crossings: crossings.pairs.len(),
            planarize_removed: d.removed.len(),
            build_time: d.build_time,
            bipartize_time: d.bipartize_time,
            ..DetectStats::default()
        },
    );
    PipelineOutcome {
        report,
        provenance: d.provenance,
        activity: d.activity,
        round: Some(Round {
            graph: cg,
            components,
            crossings,
            removed: d.removed,
            deleted: d.deleted,
            hits: d.hits,
            whole_graph,
        }),
        reuse: ComponentReuse::default(),
    }
}

/// What the optimal pipeline decided on a graph's alive edges.
struct Decisions {
    /// Planarization's victims, in removal order.
    removed: Vec<EdgeId>,
    /// The bipartization's deleted edges, ascending.
    deleted: Vec<EdgeId>,
    /// The victims the Step-3 recheck confirmed, heaviest first.
    hits: Vec<EdgeId>,
    provenance: StageProvenance,
    activity: CacheActivity,
    build_time: Duration,
    bipartize_time: Duration,
}

/// The optimal pipeline over a precomputed crossing set of `cg`'s alive
/// edges: planarize, bipartize (optionally through a
/// [`crate::SolveCache`]) and run the Step-3 recheck.
///
/// Infallible by design: a budget trip inside the optimal bipartization
/// *degrades* to the parity-greedy heuristic (still a valid conflict
/// set) and is reported through the returned [`StageProvenance`].
fn optimal_pipeline(
    cg: &mut ConflictGraph,
    crossings: &CrossingSet,
    config: &DetectConfig,
    t0: Instant,
    cache: Option<&SolveCache>,
    budget: &Budget,
) -> Decisions {
    let removed =
        aapsm_graph::planarize_with_crossings(&mut cg.graph, config.planarize_order, crossings)
            .removed;
    let build_time = t0.elapsed();
    let t1 = Instant::now();
    let attempt =
        bipartize_optimal_budgeted(&cg.graph, config.tjoin, config.parallelism, budget, cache);
    let (deleted, activity, provenance) = match attempt {
        Ok((outcome, activity)) => (outcome.deleted, activity, StageProvenance::Exact),
        Err(e) => degrade(&cg.graph, config, e),
    };
    let bipartize_time = t1.elapsed();
    let hits = recheck(&cg.graph, &deleted, &removed);
    Decisions {
        removed,
        deleted,
        hits,
        provenance,
        activity,
        build_time,
        bipartize_time,
    }
}

/// A budget trip degrades the whole bipartization to the (cheap,
/// unbudgeted) parity-greedy heuristic — a valid conflict set — and says
/// so.
fn degrade(
    g: &EmbeddedGraph,
    config: &DetectConfig,
    e: BudgetExceeded,
) -> (Vec<EdgeId>, CacheActivity, StageProvenance) {
    (
        bipartize(g, BipartizeMethod::GreedyParity, config.parallelism).deleted,
        CacheActivity::default(),
        StageProvenance::Degraded(format!(
            "optimal bipartization fell back to parity-greedy: {e}"
        )),
    )
}

/// Step 3: re-checks the planarization victims `removed` against the
/// coloring of the alive edges less `deleted`, with a parity union-find
/// seeded by the surviving edges, heaviest victim first (expensive
/// constraints are kept consistent, cheap ones become the conflicts).
/// Returns the victims that would close an odd cycle, in that order.
// Invariant, not an error path: G_p minus D is bipartite by construction.
#[allow(clippy::expect_used)]
fn recheck(g: &EmbeddedGraph, deleted: &[EdgeId], removed: &[EdgeId]) -> Vec<EdgeId> {
    let mut uf = ParityUnionFind::new(g.node_count());
    let mut is_deleted = vec![false; g.edge_count()];
    for &e in deleted {
        is_deleted[e.index()] = true;
    }
    for e in g.alive_edges() {
        if is_deleted[e.index()] {
            continue;
        }
        let (u, v) = g.endpoints(e);
        uf.union(u.index(), v.index(), 1)
            .expect("G_p minus D is bipartite by construction");
    }
    let mut p_sorted = removed.to_vec();
    sort_heaviest_first(g, &mut p_sorted);
    p_sorted
        .into_iter()
        .filter(|&e| {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index(), 1).is_err()
        })
        .collect()
}

/// The recheck's order: heaviest first, ties by edge id.
fn sort_heaviest_first(g: &EmbeddedGraph, edges: &mut [EdgeId]) {
    edges.sort_by_key(|&e| (std::cmp::Reverse(g.weight(e)), e.index()));
}

/// The report of a round: the direct conflicts, then one conflict per
/// distinct constraint behind the bipartization's `deleted` edges, then
/// behind the recheck's `hits`. `stats` brings every count but the two
/// conflict counts this fills in.
fn assemble_report(
    geom: &PhaseGeometry,
    cg: &ConflictGraph,
    deleted: &[EdgeId],
    hits: &[EdgeId],
    stats: DetectStats,
) -> DetectReport {
    let mut conflicts = Vec::new();
    let mut seen = HashSet::new();
    push_direct_conflicts(geom, &mut conflicts, &mut seen);
    let bipartize_conflicts = push_edge_conflicts(
        geom,
        cg,
        deleted,
        ConflictSource::Bipartization,
        &mut conflicts,
        &mut seen,
    );
    let recheck_conflicts = push_edge_conflicts(
        geom,
        cg,
        hits,
        ConflictSource::Planarization,
        &mut conflicts,
        &mut seen,
    );
    DetectReport {
        conflicts,
        stats: DetectStats {
            bipartize_conflicts,
            recheck_conflicts,
            ..stats
        },
    }
}

/// Edit-local detection: detects `geom`, the geometry that `cuts` make of
/// `prev`, against `kept`, `prev`'s exact round, and returns the report
/// [`detect_geometry_budgeted`] returns for `geom`, bit for bit, with
/// fewer solve-cache lookups and budget charges.
///
/// A cut moves everything on each side of its line by one rigid
/// translation, and most of the conflict graph moves with it. The new
/// graph is built in full; each edge maps to its predecessor through the
/// constraint it encodes (overlaps stay sorted by `(a, b)` and shifter
/// ids do not change, so overlap and flank ids map in increasing order).
/// An edge is *rigid* when its weight is unchanged and both end nodes sit
/// exactly at their old position plus the translation of the one
/// half-open cut cell both old positions lie in. A component *reuses*
/// its kept outcome when every edge is rigid, its edge set maps one to
/// one onto an old component, and no crossing of either round links it
/// to a component that re-runs. Such a component keeps its crossings,
/// planarization victims, bipartization deletions and recheck hits, with
/// the ids remapped:
///
/// - Adjacent edges share a node, so a component of rigid edges lies in
///   one cut cell and moves by one translation. Its incidence, weights
///   and relative id order are those of its predecessor.
/// - The crossing predicate is exact and unchanged by a common
///   translation. Cut cells are convex and, with non-negative cut widths,
///   stay disjoint after the cut, so rigid edges of different cells cross
///   in neither round. Every crossing between two reused edges is
///   therefore a kept one, and every crossing with a re-run edge is
///   tested: each edge of a re-run component is re-tested against the
///   whole new graph, and a component a tested edge crosses re-runs too.
///   A kept crossing whose other edge vanished or re-runs makes its
///   component re-run as well. So the crossing partners of a reused
///   component are those of its predecessor, and planarization, whose
///   decisions depend only on an edge's crossing cluster and the
///   relative order of its edges, removes the same victims.
/// - The face trace, the dual T-join (a deterministic solve of a
///   byte-equal instance) and the recheck each work per component, so
///   they decide the same on a reused component as on its predecessor.
///
/// Every other odd component goes through the stages of
/// [`optimal_pipeline`] with the rest of the graph killed, as
/// [`finish_pipeline`] kills the bipartite components, and the decisions
/// merge in flat edge order through [`assemble_report`]. A tested crossing between an odd and a
/// bipartite edge means the scratch path would sweep the whole graph, so
/// the round detects from scratch; it does so too when `kept` swept the
/// whole graph, when the flank weight or the graph's shape changed, and
/// when the new graph is bipartite (the Theorem-1 shortcut is cheaper).
/// When the re-run bipartization trips `budget`, the round degrades as
/// the scratch path does: parity-greedy over every odd component after
/// all of planarization's victims.
///
/// `cuts` must have non-negative widths, as
/// [`aapsm_layout::derive_cut_geometry`] requires.
///
/// # Errors
///
/// [`BudgetExceeded`] when the graph build trips `budget`.
pub(crate) fn detect_after_cuts(
    prev: &PhaseGeometry,
    kept: &Round,
    cuts: &[SpaceCut],
    geom: &PhaseGeometry,
    config: &DetectConfig,
    cache: Option<&SolveCache>,
    budget: &Budget,
) -> Result<PipelineOutcome, BudgetExceeded> {
    charge_graph_build(geom, budget)?;
    let t0 = Instant::now();
    let mut cg = build_conflict_graph(geom, config.graph);
    let components = EdgeComponents::of(&cg.graph);
    let same_shape = kept.graph.kind == cg.kind
        && kept.graph.flank_weight == cg.flank_weight
        && prev.features.len() == geom.features.len()
        && prev.shifters.len() == geom.shifters.len();
    if kept.whole_graph || !same_shape || !components.any_odd {
        return Ok(finish_pipeline(
            geom, cg, components, config, t0, cache, budget, None,
        ));
    }
    let triage = Triage::new(prev, kept, cuts, geom, &cg, &components);
    if triage
        .pairs
        .iter()
        .any(|&(a, b)| components.is_odd(a) != components.is_odd(b))
    {
        return Ok(finish_pipeline(
            geom, cg, components, config, t0, cache, budget, None,
        ));
    }
    let rerun = |e: EdgeId| components.is_odd(e) && triage.rerun[components.root(e)];
    let reused = |n: u32| {
        n != NO_EDGE && components.is_odd(EdgeId(n)) && !triage.rerun[components.root(EdgeId(n))]
    };
    let mut reuse = ComponentReuse::default();
    for (&odd, &again) in components.odd_root.iter().zip(&triage.rerun) {
        if odd {
            if again {
                reuse.rerun += 1;
            } else {
                reuse.reused += 1;
            }
        }
    }
    // The kept decisions of the reused components, in new ids.
    let image = |old: &[EdgeId]| -> Vec<EdgeId> {
        old.iter()
            .map(|&e| triage.new_of_old[e.index()])
            .filter(|&n| reused(n))
            .map(EdgeId)
            .collect()
    };
    let mut removed = image(&kept.removed);
    let mut deleted = image(&kept.deleted);
    let mut hits = image(&kept.hits);
    let mut pairs: Vec<(EdgeId, EdgeId)> = kept
        .crossings
        .pairs
        .iter()
        .filter_map(|&(a, b)| {
            let (a, b) = (triage.new_of_old[a.index()], triage.new_of_old[b.index()]);
            (reused(a) && reused(b)).then_some((EdgeId(a), EdgeId(b)))
        })
        .collect();

    // The re-run part, with every other edge killed.
    let graph_nodes = cg.graph.node_count();
    let graph_edges = cg.graph.alive_edge_count();
    for e in cg.graph.all_edges() {
        if !rerun(e) {
            cg.graph.kill_edge(e);
        }
    }
    let mut local = CrossingSet {
        pairs: triage
            .pairs
            .into_iter()
            .filter(|&(a, _)| rerun(a))
            .collect(),
    };
    local.pairs.sort_unstable();
    let local_removed =
        aapsm_graph::planarize_with_crossings(&mut cg.graph, config.planarize_order, &local)
            .removed;
    removed.extend_from_slice(&local_removed);
    removed.sort_unstable();
    pairs.extend_from_slice(&local.pairs);
    pairs.sort_unstable();
    let build_time = t0.elapsed();
    let t1 = Instant::now();
    let attempt =
        bipartize_optimal_budgeted(&cg.graph, config.tjoin, config.parallelism, budget, cache);
    let (activity, provenance) = match attempt {
        Ok((outcome, activity)) => {
            hits.extend(recheck(&cg.graph, &outcome.deleted, &local_removed));
            deleted.extend_from_slice(&outcome.deleted);
            deleted.sort_unstable();
            sort_heaviest_first(&cg.graph, &mut hits);
            (activity, StageProvenance::Exact)
        }
        Err(e) => {
            // The scratch path's degraded state: every odd edge alive but
            // planarization's victims.
            for e in cg.graph.all_edges() {
                if components.is_odd(e) {
                    cg.graph.revive_edge(e);
                }
            }
            for &e in &removed {
                cg.graph.kill_edge(e);
            }
            let (greedy, activity, provenance) = degrade(&cg.graph, config, e);
            hits = recheck(&cg.graph, &greedy, &removed);
            deleted = greedy;
            (activity, provenance)
        }
    };
    let bipartize_time = t1.elapsed();
    let report = assemble_report(
        geom,
        &cg,
        &deleted,
        &hits,
        DetectStats {
            graph_nodes,
            graph_edges,
            crossings: pairs.len(),
            planarize_removed: removed.len(),
            build_time,
            bipartize_time,
            ..DetectStats::default()
        },
    );
    Ok(PipelineOutcome {
        report,
        provenance,
        activity,
        round: Some(Round {
            graph: cg,
            components,
            crossings: CrossingSet { pairs },
            removed,
            deleted,
            hits,
            whole_graph: false,
        }),
        reuse,
    })
}

/// How [`detect_after_cuts`] splits the new graph's components.
struct Triage {
    /// Per old edge id, its successor's id, or [`NO_EDGE`].
    new_of_old: Vec<u32>,
    /// Per node index of the new graph, whether the component it roots
    /// re-runs.
    rerun: Vec<bool>,
    /// Every crossing pair of the new graph with an edge in a re-running
    /// component, each once, smaller id first.
    pairs: Vec<(EdgeId, EdgeId)>,
}

impl Triage {
    fn new(
        prev: &PhaseGeometry,
        kept: &Round,
        cuts: &[SpaceCut],
        geom: &PhaseGeometry,
        cg: &ConflictGraph,
        components: &EdgeComponents,
    ) -> Triage {
        let (old, new) = (&kept.graph.graph, &cg.graph);
        let old_of_new = predecessors(prev, &kept.graph, geom, cg);
        let mut new_of_old = vec![NO_EDGE; old.edge_count()];
        for (e, &o) in old_of_new.iter().enumerate() {
            if o != NO_EDGE {
                new_of_old[o as usize] = e as u32;
            }
        }
        // Per new component (by root): the old component all its edges
        // map into, or `DIRTY`, and its edge count.
        const DIRTY: u32 = NO_EDGE - 1;
        let cuts = CutMap::new(cuts);
        let mut source = vec![NO_EDGE; new.node_count()];
        let mut count = vec![0u32; new.node_count()];
        for e in new.all_edges() {
            let r = components.root(e);
            count[r] += 1;
            let o = old_of_new[e.index()];
            let target = if o != NO_EDGE && rigid(&cuts, old, EdgeId(o), new, e) {
                kept.components.root[o as usize]
            } else {
                DIRTY
            };
            source[r] = match source[r] {
                NO_EDGE => target,
                s if s == target => s,
                _ => DIRTY,
            };
        }
        let mut old_count = vec![0u32; old.node_count()];
        for &r in &kept.components.root {
            old_count[r as usize] += 1;
        }
        let mut rerun: Vec<bool> = source
            .iter()
            .zip(&count)
            .map(|(&s, &c)| c > 0 && (s == DIRTY || old_count[s as usize] != c))
            .collect();

        // Kept crossings: one whose edge vanished re-runs the other's
        // component, the rest link two components.
        let mut links = Vec::new();
        for &(a, b) in &kept.crossings.pairs {
            match (new_of_old[a.index()], new_of_old[b.index()]) {
                (NO_EDGE, NO_EDGE) => {}
                (NO_EDGE, n) | (n, NO_EDGE) => rerun[components.root(EdgeId(n))] = true,
                (m, n) => links.push((components.root(EdgeId(m)), components.root(EdgeId(n)))),
            }
        }
        // Rounds: index the edges of the components re-running so far and
        // not tested yet (a batch), then stream every edge of the graph
        // through that index. A pair is recorded in the round of its
        // later-tested edge; within one batch, from its smaller id.
        let boxes: Vec<_> = new
            .all_edges()
            .map(|e| new.segment(e).bbox_ranges())
            .collect();
        let mut tested_in = vec![0u32; boxes.len()];
        let mut pairs = Vec::new();
        for round in 1.. {
            while links.iter().any(|&(a, b)| rerun[a] != rerun[b]) {
                for &(a, b) in &links {
                    if rerun[a] || rerun[b] {
                        (rerun[a], rerun[b]) = (true, true);
                    }
                }
            }
            let batch: Vec<usize> = (0..boxes.len())
                .filter(|&e| tested_in[e] == 0 && rerun[components.root[e] as usize])
                .collect();
            if batch.is_empty() {
                break;
            }
            let mut hull = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
            for &e in &batch {
                tested_in[e] = round;
                let b = boxes[e];
                hull = (
                    hull.0.min(b.0),
                    hull.1.min(b.1),
                    hull.2.max(b.2),
                    hull.3.max(b.3),
                );
            }
            let batch_boxes: Vec<_> = batch.iter().map(|&e| boxes[e]).collect();
            let segments: Vec<Segment> = batch
                .iter()
                .map(|&e| new.segment(EdgeId(e as u32)))
                .collect();
            let grid = GridIndex::build(GridIndex::cell_for(&batch_boxes), batch_boxes);
            for (q, &b) in boxes.iter().enumerate() {
                let earlier = tested_in[q] != 0 && tested_in[q] < round;
                if earlier || b.0 > hull.2 || hull.0 > b.2 || b.1 > hull.3 || hull.1 > b.3 {
                    continue;
                }
                let segment = new.segment(EdgeId(q as u32));
                grid.query(b, |k| {
                    let x = batch[k as usize];
                    let same_batch = tested_in[q] == round;
                    if (same_batch && q >= x) || !segment.crosses(&segments[k as usize]) {
                        return;
                    }
                    pairs.push((EdgeId(q.min(x) as u32), EdgeId(q.max(x) as u32)));
                    if !same_batch {
                        rerun[components.root[q] as usize] = true;
                    }
                });
            }
        }
        Triage {
            new_of_old,
            rerun,
            pairs,
        }
    }
}

/// Per edge of `cg`, the id of the edge of `old` encoding the same
/// constraint (the same half, for a constraint of two edges), or
/// [`NO_EDGE`] for an overlap `prev` does not have. `cg` is built from
/// `geom`, `old` from `prev`, both of one kind and with the same features
/// and shifters; ids map in increasing order. A constraint's edges are
/// consecutive, so an edge maps to the old edge as far from the first
/// one of its constraint, when that edge encodes the same constraint.
fn predecessors(
    prev: &PhaseGeometry,
    old: &ConflictGraph,
    geom: &PhaseGeometry,
    cg: &ConflictGraph,
) -> Vec<u32> {
    // Both overlap lists are sorted by (a, b): one merge maps them.
    let mut old_overlap = vec![NO_EDGE; geom.overlaps.len()];
    let mut i = 0;
    for (k, o) in geom.overlaps.iter().enumerate() {
        while i < prev.overlaps.len() && (prev.overlaps[i].a, prev.overlaps[i].b) < (o.a, o.b) {
            i += 1;
        }
        if i < prev.overlaps.len() && (prev.overlaps[i].a, prev.overlaps[i].b) == (o.a, o.b) {
            old_overlap[k] = i as u32;
            i += 1;
        }
    }
    // The first edge of each constraint; a constraint's edges are
    // consecutive.
    let mut first_overlap = vec![NO_EDGE; prev.overlaps.len()];
    let mut first_flank = vec![NO_EDGE; prev.features.len()];
    for (e, &c) in old.edge_constraint.iter().enumerate() {
        let slot = match c {
            EdgeConstraint::Overlap(oi) => &mut first_overlap[oi],
            EdgeConstraint::Flank(fi) => &mut first_flank[fi],
        };
        if *slot == NO_EDGE {
            *slot = e as u32;
        }
    }
    let mut run_start = 0;
    let out: Vec<u32> = cg
        .edge_constraint
        .iter()
        .enumerate()
        .map(|(e, &c)| {
            if e == 0 || cg.edge_constraint[e - 1] != c {
                run_start = e;
            }
            let (first, same) = match c {
                EdgeConstraint::Overlap(oi) => match old_overlap[oi] {
                    NO_EDGE => (NO_EDGE, c),
                    o => (
                        first_overlap[o as usize],
                        EdgeConstraint::Overlap(o as usize),
                    ),
                },
                EdgeConstraint::Flank(fi) => (first_flank[fi], c),
            };
            let o = first.saturating_add((e - run_start) as u32);
            match old.edge_constraint.get(o as usize) {
                Some(&oc) if first != NO_EDGE && oc == same => o,
                _ => NO_EDGE,
            }
        })
        .collect();
    debug_assert!(
        out.iter()
            .filter(|&&o| o != NO_EDGE)
            .zip(out.iter().filter(|&&o| o != NO_EDGE).skip(1))
            .all(|(a, b)| a < b),
        "edge ids map in increasing order"
    );
    out
}

/// Whether `e` of `new` is edge `o` of `old` moved rigidly by `cuts`: the
/// same weight, both old end nodes in one cut cell, and both new end
/// nodes at their old position plus that cell's translation.
fn rigid(cuts: &CutMap, old: &EmbeddedGraph, o: EdgeId, new: &EmbeddedGraph, e: EdgeId) -> bool {
    if old.weight(o) != new.weight(e) {
        return false;
    }
    let ((ou, ov), (nu, nv)) = (old.endpoints(o), new.endpoints(e));
    let (pu, pv) = (old.pos(ou), old.pos(ov));
    let (cell, shift) = cuts.cell(pu);
    cell == cuts.cell(pv).0 && new.pos(nu) == pu + shift && new.pos(nv) == pv + shift
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
    let mut conflicts = Vec::new();
    let mut seen = HashSet::new();
    push_direct_conflicts(geom, &mut conflicts, &mut seen);
    let bipartize_conflicts = push_edge_conflicts(
        geom,
        &cg,
        &outcome.deleted,
        ConflictSource::Bipartization,
        &mut conflicts,
        &mut seen,
    );
    DetectReport {
        conflicts,
        stats: DetectStats {
            graph_nodes: cg.graph.node_count(),
            graph_edges: cg.graph.alive_edge_count(),
            bipartize_conflicts,
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
        let d = optimal_pipeline(
            &mut cg,
            &crossings,
            config,
            Instant::now(),
            None,
            &Budget::unlimited(),
        );
        assemble_report(
            geom,
            &cg,
            &d.deleted,
            &d.hits,
            DetectStats {
                graph_nodes: cg.graph.node_count(),
                graph_edges: cg.graph.edge_count(),
                crossings: crossings.pairs.len(),
                planarize_removed: d.removed.len(),
                ..DetectStats::default()
            },
        )
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
                    let bipartite_edges = EdgeComponents::of(&cg.graph).bipartite_edges();
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

    /// [`EdgeComponents::bipartite_edges`] against a per-component two-coloring
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
                EdgeComponents::of(&g).bipartite_edges(),
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

    /// The `(low, high)` shifter-node positions of one hand-built feature.
    type FeatureNodes = ((i64, i64), (i64, i64));

    /// A hand-built geometry: one critical feature per `(low, high)`
    /// pair of shifter-node positions (the PCG puts nodes at shifter
    /// centres), with shifters `2i` and `2i + 1`, and one overlap per
    /// `(a, b, weight)`. Overlaps must come sorted by `(a, b)`.
    fn hand_built(features: &[FeatureNodes], overlaps: &[(usize, usize, i64)]) -> PhaseGeometry {
        use aapsm_layout::{Feature, FeatureOrientation, OverlapPair, Shifter, Side};
        let mut geom = PhaseGeometry::default();
        for (fi, &(lo, hi)) in features.iter().enumerate() {
            for (p, side) in [(lo, Side::Low), (hi, Side::High)] {
                geom.shifters.push(Shifter {
                    rect: square(p.0, p.1, 50),
                    feature: fi,
                    side,
                });
            }
            geom.features.push(Feature {
                rect: square((lo.0 + hi.0) / 2, (lo.1 + hi.1) / 2, 40),
                orientation: FeatureOrientation::Vertical,
                critical: true,
                shifters: Some((2 * fi, 2 * fi + 1)),
            });
        }
        for &(a, b, weight) in overlaps {
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

    /// A hand-built geometry with two components. Features A, B and C
    /// close an odd cycle of three flanks and three overlaps: A's high
    /// shifter overlaps B's low one (weight 50), B–C and C–A weigh 10.
    /// Feature D stands alone, so its flank edge is a bipartite component.
    /// With `cross` set, D's flank runs vertically through the A–B
    /// overlap's first half-edge; without it, D sits far away.
    fn odd_cycle_and_lone_flank(cross: bool) -> PhaseGeometry {
        // The odd cycle runs around a 2000 × 2000 square; D's shifters
        // sit 500 below and above the A–B half-edge, or 10 000 to the
        // right.
        let dx = if cross { 1250 } else { 10_000 };
        hand_built(
            &[
                ((0, 0), (1000, 0)),
                ((2000, 0), (2000, 2000)),
                ((1000, 2000), (0, 2000)),
                ((dx, -500), (dx, 500)),
            ],
            &[(1, 2, 50), (3, 4, 10), (0, 5, 10)],
        )
    }

    #[test]
    fn an_odd_bipartite_crossing_falls_back_to_the_whole_graph() {
        for cross in [true, false] {
            let geom = odd_cycle_and_lone_flank(cross);
            let mut cg = build_conflict_graph(&geom, GraphKind::PhaseConflict);
            let bipartite = EdgeComponents::of(&cg.graph)
                .bipartite_edges()
                .expect("A, B, C are odd");
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

    #[test]
    fn greedy_baselines_deduplicate_direct_conflicts() {
        // The duplicate of `shortcut_reports_deduplicated_direct_conflicts`:
        // each feature is reported once, and `bipartize_conflicts` counts
        // the bipartization's picks alone.
        let r = DesignRules::default();
        let mut geom = extract_phase_geometry(&fixtures::strap_under_bus(4, &r), &r);
        geom.direct_conflicts.extend(
            [(1, 5), (1, 7), (3, 2)]
                .map(|(feature, weight)| aapsm_layout::DirectConflict { feature, weight }),
        );
        let direct = direct_only(&geom);
        assert_eq!(direct.len(), 2);
        for kind in [GreedyKind::Spanning, GreedyKind::Parity] {
            let report = detect_greedy(&geom, GraphKind::PhaseConflict, kind);
            assert_eq!(report.conflicts[..2], direct[..], "{kind:?}");
            assert!(report.conflicts[2..]
                .iter()
                .all(|c| c.source == ConflictSource::Bipartization));
            assert_eq!(
                report.stats.bipartize_conflicts,
                report.conflict_count() - direct.len(),
                "{kind:?}"
            );
            assert!(report.stats.bipartize_conflicts > 0, "{kind:?}");
        }
    }

    /// Shifter-node positions of an odd cycle: features `(0,0)–(1000,0)`,
    /// `(2000,0)–(2000,800)` and `(1000,800)–(1000,1600)`, translated by
    /// `(dx, dy)`, and its overlaps 1–2, 3–4 and 0–5 from shifter
    /// `first`. Shifter `first + 5` is the second shifter of every edge
    /// it is on.
    fn odd_cycle_at(dx: i64, dy: i64) -> [FeatureNodes; 3] {
        [
            ((0, 0), (1000, 0)),
            ((2000, 0), (2000, 800)),
            ((1000, 800), (1000, 1600)),
        ]
        .map(|((x0, y0), (x1, y1))| ((x0 + dx, y0 + dy), (x1 + dx, y1 + dy)))
    }

    fn odd_cycle_overlaps(first: usize, weights: [i64; 3]) -> [(usize, usize, i64); 3] {
        [
            (first, first + 5, weights[2]),
            (first + 1, first + 2, weights[0]),
            (first + 3, first + 4, weights[1]),
        ]
    }

    /// Two odd cycles and a far third, `K1` at the origin, `K2` where
    /// `k2` puts it, `K3` far below both cut lines; overlaps sorted by
    /// `(a, b)`.
    fn three_cycles(k2: [FeatureNodes; 3]) -> PhaseGeometry {
        let mut features = odd_cycle_at(0, 0).to_vec();
        features.extend(k2);
        features.extend(odd_cycle_at(20_000, -5_000));
        let mut overlaps = odd_cycle_overlaps(0, [50, 40, 30]).to_vec();
        overlaps.extend(odd_cycle_overlaps(6, [20, 60, 70]));
        overlaps.extend(odd_cycle_overlaps(12, [30, 20, 10]));
        overlaps.sort_by_key(|o| (o.0, o.1));
        hand_built(&features, &overlaps)
    }

    /// The edits of [`edit_local_detection_matches_scratch_on_hand_built_edits`]:
    /// `(name, before, cuts, after)`. In both, an odd cycle `K2` crosses
    /// `K1` before the edit and not after it, and `K3` is untouched.
    fn hand_built_edits() -> Vec<(&'static str, PhaseGeometry, Vec<SpaceCut>, PhaseGeometry)> {
        let cut = |position, width| SpaceCut {
            axis: aapsm_geom::Axis::Y,
            position,
            width,
        };
        // The cut line runs between K1's top shifter (1000, 1600) and the
        // rest of K1, which stays put, and so does that shifter: both
        // edges on it join two cells without moving. K2 lies wholly above
        // the line and moves up rigidly, off K1's flank.
        let k2 = |dy: i64| odd_cycle_at(900, 1300 + dy);
        let spanning = (
            "an edge joining two cells",
            three_cycles(k2(0)),
            vec![cut(1200, 1000)],
            three_cycles(k2(1000)),
        );
        // K1 lies below the cut line and stays put. K2's first flank runs
        // from below the line to above it and crosses K1 before the cut;
        // its top end moves up with the rest of K2, and the flank turns
        // off K1.
        let k2 = |dy: i64| {
            let mut k = odd_cycle_at(800, 1800 + dy);
            k[0] = ((1200, 1000), (800, 1800 + dy));
            k
        };
        let turned = (
            "a moved edge leaving a kept crossing",
            three_cycles(k2(0)),
            vec![cut(1700, 2000)],
            three_cycles(k2(2000)),
        );
        vec![spanning, turned]
    }

    /// [`detect_after_cuts`] equals scratch detection on hand-built edits
    /// whose crossings between two odd components change, at every
    /// parallelism, while the untouched third component reuses its kept
    /// outcome. One edit joins two cut cells by an edge that does not
    /// move; the other leaves a kept crossing of an unmoved component.
    #[test]
    fn edit_local_detection_matches_scratch_on_hand_built_edits() {
        let unlimited = Budget::unlimited();
        for (name, before, cuts, after) in hand_built_edits() {
            for parallelism in [0, 1, 2, 4] {
                let config = DetectConfig {
                    parallelism,
                    ..DetectConfig::default()
                };
                let first = detect_geometry_budgeted(&before, &config, None, &unlimited)
                    .expect("unlimited");
                let round = first.round.expect("a graph was built");
                assert!(first.report.stats.crossings > 0, "{name}: K1 and K2 cross");
                let out =
                    detect_after_cuts(&before, &round, &cuts, &after, &config, None, &unlimited)
                        .expect("unlimited");
                let scratch = detect_conflicts(&after, &config);
                assert!(
                    scratch.stats.crossings < first.report.stats.crossings,
                    "{name}: K2 moved off K1"
                );
                assert_ne!(scratch.conflicts, first.report.conflicts, "{name}");
                assert_eq!(out.report.conflicts, scratch.conflicts, "{name}");
                let counts = |s: &DetectStats| {
                    (
                        (s.graph_nodes, s.graph_edges, s.crossings),
                        (s.planarize_removed, s.bipartize_conflicts),
                        (s.recheck_conflicts, s.bipartite),
                    )
                };
                assert_eq!(counts(&out.report.stats), counts(&scratch.stats), "{name}");
                assert_eq!((out.reuse.reused, out.reuse.rerun), (1, 2), "{name}");
            }
        }
    }
}
