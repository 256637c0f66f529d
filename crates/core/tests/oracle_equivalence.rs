//! Adversarial cross-validation of [`BipartizeMethod::OptimalDual`]
//! against three *independent* brute-force oracles on small random
//! embedded graphs, across parallelism 0/1/2/4:
//!
//! 1. **Minimum odd-cycle cover by subset enumeration**: every edge
//!    subset is tested for leaving a bipartite remainder with a parity
//!    union-find (a different bipartiteness checker than the BFS
//!    two-coloring the production pipeline asserts with).
//! 2. **Dual T-join by subset enumeration** (`aapsm_tjoin::brute`): the
//!    paper's reduction re-derived in the test — trace faces, build the
//!    geometric dual, T = odd faces — and solved by enumerating dual edge
//!    subsets, validating both the reduction and the solvers.
//! 3. **T-pair matching** (`aapsm_matching::exhaustive`): the classical
//!    theorem that a minimum T-join weighs exactly as much as a minimum
//!    perfect matching of T under the shortest-path metric (non-negative
//!    weights), with all-pairs distances by Floyd–Warshall and the
//!    matching by exhaustive subset DP.
//!
//! Every oracle must agree with every configuration (both decomposition
//! modes; gadget and shortest-path T-join engines; every
//! parallelism degree) on total weight, and every returned deletion set
//! must actually leave the graph bipartite.

use aapsm_core::{bipartize, BipartizeMethod, GadgetKind, TJoinMethod};
use aapsm_graph::{
    build_dual, planarize, trace_faces, two_color_excluding, EdgeId, EmbeddedGraph,
    ParityUnionFind, PlanarizeOrder,
};
use aapsm_matching::exhaustive;
use aapsm_tjoin::{brute::solve_brute, TJoinInstance};
use proptest::prelude::*;

const DEGREES: [usize; 4] = [0, 1, 2, 4];

/// A small random planarized multigraph (≤ 14 alive edges, so subset
/// enumeration stays ≤ 2¹⁴).
fn small_plane_graph() -> impl Strategy<Value = EmbeddedGraph> {
    let node = (-300i64..300, -300i64..300);
    (
        proptest::collection::vec(node, 3..9),
        proptest::collection::vec((0usize..9, 0usize..9, 1i64..30), 1..15),
    )
        .prop_map(|(pts, raw_edges)| {
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = pts
                .into_iter()
                .map(|(x, y)| g.add_node(aapsm_geom::Point::new(x, y)))
                .collect();
            g.nudge_duplicate_positions();
            for (u, v, w) in raw_edges {
                let (u, v) = (u % nodes.len(), v % nodes.len());
                if u != v {
                    g.add_edge(nodes[u], nodes[v], w);
                }
            }
            planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
            g
        })
}

/// Oracle 1: minimum-weight edge set whose removal leaves the alive
/// subgraph bipartite, by full subset enumeration with a parity
/// union-find bipartiteness check.
fn oracle_cover_weight(g: &EmbeddedGraph) -> i64 {
    let alive: Vec<EdgeId> = g.alive_edges().collect();
    let m = alive.len();
    assert!(m <= 20, "oracle limited to 20 edges");
    let mut best = i64::MAX;
    'subsets: for mask in 0u32..(1 << m) {
        let mut weight = 0i64;
        for (i, &e) in alive.iter().enumerate() {
            if mask & (1 << i) != 0 {
                weight += g.weight(e);
                if weight >= best {
                    continue 'subsets;
                }
            }
        }
        let mut uf = ParityUnionFind::new(g.node_count());
        for (i, &e) in alive.iter().enumerate() {
            if mask & (1 << i) == 0 {
                let (u, v) = g.endpoints(e);
                if uf.union(u.index(), v.index(), 1).is_err() {
                    continue 'subsets;
                }
            }
        }
        best = weight;
    }
    best
}

/// The whole-graph dual T-join instance of the paper's reduction
/// (T = odd faces, bridges excluded), plus the primal weight of an empty
/// dual: `None` when the graph is already bipartite everywhere.
fn dual_instance(g: &EmbeddedGraph) -> Option<TJoinInstance> {
    let faces = trace_faces(g);
    let dual = build_dual(g, &faces);
    if dual.t_set().is_empty() {
        return None;
    }
    let edges: Vec<(usize, usize, i64)> = dual
        .edges
        .iter()
        .map(|de| (de.a as usize, de.b as usize, de.weight))
        .collect();
    Some(TJoinInstance::new(dual.face_count, edges, dual.odd_face.clone()).expect("well-formed"))
}

/// Oracle 2: the dual T-join solved by subset enumeration.
fn oracle_tjoin_weight(inst: &TJoinInstance) -> i64 {
    solve_brute(inst)
        .expect("odd faces come in even numbers per component")
        .weight
}

/// Oracle 3: minimum perfect matching of T under the shortest-path
/// metric (Floyd–Warshall over the dual). Returns `None` when T is too
/// large for the exhaustive DP.
fn oracle_matching_weight(inst: &TJoinInstance) -> Option<i64> {
    let n = inst.node_count();
    let t_nodes: Vec<usize> = (0..n).filter(|&v| inst.t_set()[v]).collect();
    if t_nodes.len() > 12 {
        return None;
    }
    const INF: i64 = i64::MAX / 4;
    let mut dist = vec![vec![INF; n]; n];
    for (v, row) in dist.iter_mut().enumerate() {
        row[v] = 0;
    }
    for &(u, v, w) in inst.edges() {
        dist[u][v] = dist[u][v].min(w);
        dist[v][u] = dist[v][u].min(w);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if dist[i][k] + dist[k][j] < dist[i][j] {
                    dist[i][j] = dist[i][k] + dist[k][j];
                }
            }
        }
    }
    let mut pair_edges = Vec::new();
    for a in 0..t_nodes.len() {
        for b in a + 1..t_nodes.len() {
            let d = dist[t_nodes[a]][t_nodes[b]];
            if d < INF {
                pair_edges.push((a, b, d));
            }
        }
    }
    let matching = exhaustive::min_weight_perfect_matching(t_nodes.len(), &pair_edges)
        .expect("T is even per component, so a finite perfect matching exists");
    Some(matching.weight)
}

fn configs() -> Vec<BipartizeMethod> {
    [
        TJoinMethod::Gadget(GadgetKind::default()),
        TJoinMethod::ShortestPath,
    ]
    .into_iter()
    .map(|tjoin| BipartizeMethod::OptimalDual { tjoin })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every optimal-dual configuration, at every parallelism degree,
    /// matches all three oracles on total weight, returns the identical
    /// deleted set across degrees, and actually bipartizes the graph.
    #[test]
    fn optimal_dual_matches_brute_force_oracles(g in small_plane_graph()) {
        let cover = oracle_cover_weight(&g);
        if let Some(inst) = dual_instance(&g) {
            let tjoin = oracle_tjoin_weight(&inst);
            prop_assert_eq!(
                tjoin, cover,
                "dual T-join reduction diverged from the direct cover oracle"
            );
            if let Some(matching) = oracle_matching_weight(&inst) {
                prop_assert_eq!(matching, cover, "T-pair matching oracle diverged");
            }
        } else {
            prop_assert_eq!(cover, 0, "no odd faces but a non-empty cover");
        }
        for method in configs() {
            let serial = bipartize(&g, method, 1);
            prop_assert_eq!(
                serial.weight, cover,
                "{:?}: optimal weight diverged from the cover oracle", method
            );
            prop_assert!(
                two_color_excluding(&g, &serial.deleted).is_ok(),
                "{:?}: deleted set does not bipartize", method
            );
            for parallelism in DEGREES {
                let par = bipartize(&g, method, parallelism);
                prop_assert_eq!(
                    &par.deleted, &serial.deleted,
                    "{:?}: deleted set diverged at parallelism {}", method, parallelism
                );
                prop_assert_eq!(par.weight, serial.weight);
            }
        }
    }
}

/// Deterministic adversarial shapes the random strategy is unlikely to
/// hit: interleaved components, a bridge forest hanging off odd cycles,
/// and parallel edges forming even 2-cycles next to an odd triangle.
#[test]
fn oracle_agreement_on_adversarial_shapes() {
    use aapsm_geom::Point;
    let p = Point::new;
    let mut shapes: Vec<(&str, EmbeddedGraph)> = Vec::new();

    // Two interleaved triangles (edge ids alternate components).
    let mut g = EmbeddedGraph::new();
    let a0 = g.add_node(p(0, 0));
    let b0 = g.add_node(p(100, 0));
    let c0 = g.add_node(p(50, 80));
    let a1 = g.add_node(p(10_000, 0));
    let b1 = g.add_node(p(10_100, 0));
    let c1 = g.add_node(p(10_050, 80));
    g.add_edge(a0, b0, 7);
    g.add_edge(a1, b1, 2);
    g.add_edge(b0, c0, 5);
    g.add_edge(b1, c1, 9);
    g.add_edge(c0, a0, 3);
    g.add_edge(c1, a1, 4);
    shapes.push(("interleaved triangles", g));

    // An odd triangle with a pendant tree (bridges must never be chosen).
    let mut g = EmbeddedGraph::new();
    let a = g.add_node(p(0, 0));
    let b = g.add_node(p(100, 0));
    let c = g.add_node(p(50, 80));
    let d = g.add_node(p(200, 10));
    let e = g.add_node(p(300, -20));
    g.add_edge(a, b, 10);
    g.add_edge(b, c, 10);
    g.add_edge(c, a, 1);
    g.add_edge(b, d, 1); // bridge, cheaper than every cycle edge
    g.add_edge(d, e, 1); // bridge
    shapes.push(("triangle with pendant tree", g));

    // Bowtie: two odd triangles sharing one articulation node, so the
    // component and block decompositions produce different instance
    // shapes with the same optimum.
    let mut g = EmbeddedGraph::new();
    let m = g.add_node(p(0, 0));
    let a = g.add_node(p(-100, 50));
    let b = g.add_node(p(-100, -50));
    let c = g.add_node(p(100, 50));
    let d = g.add_node(p(100, -50));
    g.add_edge(m, a, 4);
    g.add_edge(a, b, 6);
    g.add_edge(b, m, 5);
    g.add_edge(m, c, 3);
    g.add_edge(c, d, 8);
    g.add_edge(d, m, 7);
    shapes.push(("bowtie", g));

    // Bipartite square: no odd faces at all, so the dual T-join has
    // |T| = 0 and every method must return an empty zero-weight answer.
    let mut g = EmbeddedGraph::new();
    let a = g.add_node(p(0, 0));
    let b = g.add_node(p(100, 0));
    let c = g.add_node(p(100, 100));
    let d = g.add_node(p(0, 100));
    g.add_edge(a, b, 2);
    g.add_edge(b, c, 3);
    g.add_edge(c, d, 4);
    g.add_edge(d, a, 5);
    shapes.push(("bipartite square", g));

    // Dense-|T| fan: apex over a path of 8 nodes makes 7 odd triangle
    // faces plus an odd (9-edge) outer face, so |T| = 8 against 15 dual
    // edges — the K_|T| closure instance out-sizes the dual, yet the
    // closure must still find the optimum.
    let mut g = EmbeddedGraph::new();
    let apex = g.add_node(p(350, -200));
    let path: Vec<_> = (0..8).map(|i| g.add_node(p(i * 100, 0))).collect();
    for w in path.windows(2) {
        g.add_edge(w[0], w[1], 2);
    }
    for (i, &u) in path.iter().enumerate() {
        g.add_edge(apex, u, 3 + i as i64);
    }
    shapes.push(("dense-T fan", g));

    for (name, g) in shapes {
        let cover = oracle_cover_weight(&g);
        match dual_instance(&g) {
            Some(inst) => {
                assert_eq!(oracle_tjoin_weight(&inst), cover, "{name}: T-join oracle");
                assert_eq!(
                    oracle_matching_weight(&inst),
                    Some(cover),
                    "{name}: matching oracle"
                );
            }
            None => assert_eq!(cover, 0, "{name}: bipartite shape must cost 0"),
        }
        for method in configs() {
            for parallelism in DEGREES {
                let out = bipartize(&g, method, parallelism);
                assert_eq!(out.weight, cover, "{name}: {method:?} p={parallelism}");
                assert!(two_color_excluding(&g, &out.deleted).is_ok(), "{name}");
            }
        }
    }
}
