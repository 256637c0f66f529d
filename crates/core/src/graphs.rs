//! Conflict-graph construction: the paper's phase conflict graph and the
//! prior-art feature graph, over one shared representation.

use aapsm_fault::{Budget, BudgetExceeded, Stage};
use aapsm_graph::{crossing_pairs_par, EdgeId, EmbeddedGraph};
use aapsm_layout::PhaseGeometry;

/// Which layout-to-graph reduction to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GraphKind {
    /// The paper's phase conflict graph (Section 3.1.1).
    #[default]
    PhaseConflict,
    /// The feature graph of Kahng et al. \[6\] (reconstructed from the
    /// paper's description; see [`build_feature_graph`]). Colors are
    /// side-transformed phases, so flanking and same-side overlaps become
    /// 2-paths through feature/conflict nodes (the geometric detours the
    /// paper criticizes) and opposite-side overlaps become direct edges.
    Feature,
}

/// The layout constraint a conflict-graph edge encodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeConstraint {
    /// Opposite-phase constraint of a critical feature (by feature index).
    Flank(usize),
    /// Same-phase constraint of an overlapping shifter pair (by index into
    /// [`PhaseGeometry::overlaps`]).
    Overlap(usize),
}

/// A conflict graph: the embedded graph plus the constraint each edge
/// represents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictGraph {
    /// The embedded multigraph (positions in layout dbu).
    pub graph: EmbeddedGraph,
    /// Which reduction built it.
    pub kind: GraphKind,
    /// Constraint per edge id.
    pub edge_constraint: Vec<EdgeConstraint>,
    /// Effectively-infinite weight used for flanking edges (larger than
    /// any possible sum of overlap weights, so optimal bipartization never
    /// deletes a flank if any alternative exists).
    pub flank_weight: i64,
}

/// Size/crossing statistics of a conflict graph (Figure 2 reproduction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Straight-line crossing pairs in the natural embedding.
    pub crossings: usize,
}

impl ConflictGraph {
    /// The constraint behind an edge.
    pub fn constraint(&self, e: EdgeId) -> EdgeConstraint {
        self.edge_constraint[e.index()]
    }

    /// Whether the edge carries the effectively-infinite flank weight.
    pub fn is_flank(&self, e: EdgeId) -> bool {
        matches!(self.constraint(e), EdgeConstraint::Flank(_))
    }

    /// Node/edge/crossing statistics of the current (alive) graph.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            nodes: self.graph.node_count(),
            edges: self.graph.alive_edge_count(),
            crossings: crossing_pairs_par(&self.graph, 1).pairs.len(),
        }
    }
}

/// Floor for the flank weight: far above any realistic chip's total
/// overlap weight (rows_x64 sums to ~4×10⁷, five decades under this),
/// yet small enough that hundreds of millions of flank edges stay inside
/// `i64` totals.
pub(crate) const FLANK_WEIGHT_FLOOR: i64 = 1 << 32;

pub(crate) fn flank_weight_for(geom: &PhaseGeometry) -> i64 {
    // The dominance requirement is only `> sum of overlap weights`; any
    // dominating value yields the same optimal T-join (the solution order
    // is lexicographic in (flank count, overlap weight) once flanks
    // dominate), so the exact figure is free to choose for stability.
    // Bucketing the sum to a power of two alone was not stable enough: a
    // correction round nudging the sum across a bucket boundary flipped
    // every component's flank edge weight, which is part of the solve
    // cache key, and every component missed (the rows_x64 steady-state
    // `solve_misses: 13`). The floor pins the weight to one constant for
    // every realistic chip, so the `SolveCache` keys of a component that
    // a correction round left untouched stay equal across rounds (what the
    // service's `RedetectEngine` sessions hit on every ECO edit). The
    // power-of-two ramp only engages past the floor, where dominance must
    // still hold.
    let sum = geom.overlaps.iter().map(|o| o.weight).sum::<i64>();
    ((sum as u64 + 1).next_power_of_two() as i64).max(FLANK_WEIGHT_FLOOR)
}

/// Builds the requested conflict graph.
pub fn build_conflict_graph(geom: &PhaseGeometry, kind: GraphKind) -> ConflictGraph {
    match kind {
        GraphKind::PhaseConflict => build_phase_conflict_graph(geom),
        GraphKind::Feature => build_feature_graph(geom),
    }
}

/// The [`Stage::GraphBuild`] charge of building `geom`'s conflict graph:
/// one tick per overlap and per critical feature, made up front. A
/// conflict graph has no cheaper degraded form, so a trip means no graph
/// is built.
pub(crate) fn charge_graph_build(
    geom: &PhaseGeometry,
    budget: &Budget,
) -> Result<(), BudgetExceeded> {
    let constraints = geom.overlaps.len() + geom.critical_count();
    budget.charge(Stage::GraphBuild, constraints as u64)
}

/// [`build_conflict_graph`] under the signature of the other `*_par`
/// stage entry points. The build is one linear pass and always runs
/// serially (a tile-sharded parallel build never beat it on two cores),
/// so `parallelism` is ignored. The function stays only because the
/// end-to-end benchmark in `perfbench/` calls it by this name.
pub fn build_conflict_graph_par(
    geom: &PhaseGeometry,
    kind: GraphKind,
    _parallelism: usize,
) -> ConflictGraph {
    build_conflict_graph(geom, kind)
}

/// Builds the paper's phase conflict graph.
///
/// * one *edge shifter node* per shifter, at the shifter center;
/// * per overlap pair, an *overlap node* at the midpoint of the straight
///   segment between the two shifter nodes, plus the two half edges (each
///   carrying the full constraint weight — deleting either half removes
///   the same-phase constraint);
/// * per critical feature, a direct flank edge between its two shifter
///   nodes with effectively-infinite weight.
///
/// The graph is bipartite iff the layout is phase-assignable (colors are
/// phases; a 2-path forces equality, a direct edge inequality).
pub fn build_phase_conflict_graph(geom: &PhaseGeometry) -> ConflictGraph {
    let flank_weight = flank_weight_for(geom);
    let mut graph = EmbeddedGraph::new();
    let edges = 2 * geom.overlaps.len() + geom.critical_count();
    graph.reserve(geom.shifters.len() + geom.overlaps.len(), edges);
    let mut edge_constraint = Vec::with_capacity(edges);

    let shifter_nodes: Vec<_> = geom
        .shifters
        .iter()
        .map(|s| graph.add_node(s.rect.center()))
        .collect();
    for (oi, o) in geom.overlaps.iter().enumerate() {
        let (na, nb) = (shifter_nodes[o.a], shifter_nodes[o.b]);
        let mid = graph.pos(na).midpoint(graph.pos(nb));
        let on = graph.add_node(mid);
        graph.add_edge(na, on, o.weight);
        edge_constraint.push(EdgeConstraint::Overlap(oi));
        graph.add_edge(on, nb, o.weight);
        edge_constraint.push(EdgeConstraint::Overlap(oi));
    }
    for (fi, f) in geom.features.iter().enumerate() {
        if let Some((lo, hi)) = f.shifters {
            graph.add_edge(shifter_nodes[lo], shifter_nodes[hi], flank_weight);
            edge_constraint.push(EdgeConstraint::Flank(fi));
        }
    }
    graph.nudge_duplicate_positions();
    ConflictGraph {
        graph,
        kind: GraphKind::PhaseConflict,
        edge_constraint,
        flank_weight,
    }
}

/// Builds the reconstructed feature graph of \[6\].
///
/// Colors are *side-transformed* phases (`color = phase XOR side`), so:
///
/// * the flanking constraint becomes an **equality** ⇒ a 2-path through a
///   *feature node* at the feature center;
/// * a same-side overlap becomes an equality ⇒ a 2-path through a
///   *conflict node* at the **overlap-region center** (the geometric
///   detour);
/// * an opposite-side overlap becomes an inequality ⇒ a direct edge.
///
/// Bipartite iff phase-assignable, with more nodes, more edges and more
/// crossings than the phase conflict graph — exactly the comparison the
/// paper draws in Figure 2 / Table 1.
pub fn build_feature_graph(geom: &PhaseGeometry) -> ConflictGraph {
    let flank_weight = flank_weight_for(geom);
    let mut graph = EmbeddedGraph::new();
    graph.reserve(
        geom.shifters.len() + geom.critical_count(),
        2 * geom.critical_count() + 2 * geom.overlaps.len(),
    );
    let mut edge_constraint =
        Vec::with_capacity(2 * geom.critical_count() + 2 * geom.overlaps.len());

    let shifter_nodes: Vec<_> = geom
        .shifters
        .iter()
        .map(|s| graph.add_node(s.rect.center()))
        .collect();
    for (fi, f) in geom.features.iter().enumerate() {
        if let Some((lo, hi)) = f.shifters {
            let fnode = graph.add_node(f.rect.center());
            graph.add_edge(shifter_nodes[lo], fnode, flank_weight);
            edge_constraint.push(EdgeConstraint::Flank(fi));
            graph.add_edge(fnode, shifter_nodes[hi], flank_weight);
            edge_constraint.push(EdgeConstraint::Flank(fi));
        }
    }
    for (oi, o) in geom.overlaps.iter().enumerate() {
        let (sa, sb) = (&geom.shifters[o.a], &geom.shifters[o.b]);
        let (na, nb) = (shifter_nodes[o.a], shifter_nodes[o.b]);
        if sa.side == sb.side {
            // Same side: equality under the transform — detour through the
            // overlap-region center.
            let c = graph.add_node(sa.rect.overlap_region_center(&sb.rect));
            graph.add_edge(na, c, o.weight);
            edge_constraint.push(EdgeConstraint::Overlap(oi));
            graph.add_edge(c, nb, o.weight);
            edge_constraint.push(EdgeConstraint::Overlap(oi));
        } else {
            graph.add_edge(na, nb, o.weight);
            edge_constraint.push(EdgeConstraint::Overlap(oi));
        }
    }
    graph.nudge_duplicate_positions();
    ConflictGraph {
        graph,
        kind: GraphKind::Feature,
        edge_constraint,
        flank_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_graph::{two_color, PlanarizeOrder};
    use aapsm_layout::{check_assignable, extract_phase_geometry, fixtures, DesignRules};

    fn geoms() -> Vec<(&'static str, PhaseGeometry)> {
        let r = DesignRules::default();
        let mut out = vec![
            (
                "single",
                extract_phase_geometry(&fixtures::single_wire(&r), &r),
            ),
            (
                "row",
                extract_phase_geometry(&fixtures::wire_row(6, 600), &r),
            ),
            (
                "gate_over_strap",
                extract_phase_geometry(&fixtures::gate_over_strap(&r), &r),
            ),
            (
                "jog",
                extract_phase_geometry(&fixtures::stacked_jog(&r), &r),
            ),
            (
                "short_middle",
                extract_phase_geometry(&fixtures::short_middle_wire(&r), &r),
            ),
            (
                "bus",
                extract_phase_geometry(&fixtures::strap_under_bus(4, &r), &r),
            ),
        ];
        // A synthetic block for breadth.
        let l = aapsm_layout::synth::generate(
            &aapsm_layout::synth::SynthParams {
                rows: 2,
                gates_per_row: 40,
                ..Default::default()
            },
            &r,
        );
        out.push(("synth", extract_phase_geometry(&l, &r)));
        out
    }

    #[test]
    fn both_graphs_bipartite_iff_assignable() {
        for (name, geom) in geoms() {
            let assignable = check_assignable(&geom).is_ok();
            for kind in [GraphKind::PhaseConflict, GraphKind::Feature] {
                let cg = build_conflict_graph(&geom, kind);
                assert_eq!(
                    two_color(&cg.graph).is_ok(),
                    assignable,
                    "{name} {kind:?}: graph bipartiteness must match assignability"
                );
            }
        }
    }

    #[test]
    fn pcg_is_usually_smaller_and_never_crosses_more_than_fg() {
        // The paper: "In most examples, the phase conflict graph also has
        // a smaller number of nodes and edges than the feature graph" —
        // "most", not "all" (opposite-side overlaps are single FG edges).
        // The crossing advantage, the claim that actually drives QoR, must
        // hold throughout.
        let mut smaller = 0usize;
        let mut total = 0usize;
        for (name, geom) in geoms() {
            if geom.overlaps.is_empty() {
                continue;
            }
            let pcg = build_phase_conflict_graph(&geom).stats();
            let fg = build_feature_graph(&geom).stats();
            assert!(
                pcg.crossings <= fg.crossings,
                "{name}: PCG must not cross more: {pcg:?} vs {fg:?}"
            );
            total += 1;
            if pcg.nodes <= fg.nodes && pcg.edges <= fg.edges {
                smaller += 1;
            }
        }
        assert!(
            smaller * 2 > total,
            "PCG smaller in only {smaller}/{total} examples"
        );
    }

    #[test]
    fn pcg_edge_count_formula() {
        // |E| = 2 * overlaps + criticals; |V| = shifters + overlaps.
        for (_, geom) in geoms() {
            let cg = build_phase_conflict_graph(&geom);
            assert_eq!(
                cg.graph.alive_edge_count(),
                2 * geom.overlaps.len() + geom.critical_count()
            );
            assert_eq!(
                cg.graph.node_count(),
                geom.shifters.len() + geom.overlaps.len()
            );
        }
    }

    #[test]
    fn flank_edges_dominate_all_overlap_weight() {
        for (_, geom) in geoms() {
            let cg = build_phase_conflict_graph(&geom);
            let total_overlap: i64 = geom.overlaps.iter().map(|o| o.weight).sum();
            assert!(cg.flank_weight > total_overlap);
        }
    }

    #[test]
    fn planarization_leaves_plane_graph() {
        for (name, geom) in geoms() {
            for kind in [GraphKind::PhaseConflict, GraphKind::Feature] {
                let mut cg = build_conflict_graph(&geom, kind);
                let removed =
                    aapsm_graph::planarize(&mut cg.graph, PlanarizeOrder::MinWeightFirst, 1)
                        .removed;
                assert!(
                    crossing_pairs_par(&cg.graph, 1).is_planar(),
                    "{name} {kind:?} still has crossings"
                );
                for e in removed {
                    assert!(!cg.graph.is_alive(e));
                }
            }
        }
    }

    #[test]
    fn budgeted_build_charges_one_tick_per_constraint() {
        use aapsm_fault::{BudgetSpec, ExhaustReason};
        for (name, geom) in geoms() {
            let ticks = (geom.overlaps.len() + geom.critical_count()) as u64;
            let budget = BudgetSpec::default().build();
            charge_graph_build(&geom, &budget)
                .unwrap_or_else(|e| panic!("{name}: uncapped charge tripped: {e}"));
            assert_eq!(budget.used(Stage::GraphBuild), ticks, "{name}");
            if ticks == 0 {
                continue;
            }
            let capped = BudgetSpec {
                graph_build_ticks: Some(ticks - 1),
                ..BudgetSpec::default()
            }
            .build();
            let err =
                charge_graph_build(&geom, &capped).expect_err("a cap one tick short must trip");
            assert_eq!(err.stage, Stage::GraphBuild, "{name}");
            assert_eq!(err.reason, ExhaustReason::WorkCap, "{name}");
        }
    }

    #[test]
    fn overlap_halves_share_constraint() {
        let r = DesignRules::default();
        let geom = extract_phase_geometry(&fixtures::wire_row(3, 600), &r);
        let cg = build_phase_conflict_graph(&geom);
        for (oi, _) in geom.overlaps.iter().enumerate() {
            let halves: Vec<_> = cg
                .graph
                .all_edges()
                .filter(|&e| cg.constraint(e) == EdgeConstraint::Overlap(oi))
                .collect();
            assert_eq!(halves.len(), 2);
        }
    }
}
