//! Property-based tests of the embedded-graph machinery: planarization,
//! face tracing, duals and bipartization invariants.

use aapsm_fault::Budget;
use aapsm_geom::Point;
use aapsm_graph::{
    build_dual, component_embeddings_budgeted, connected_components, crossing_pairs_par,
    greedy_parity_subgraph, planarize, trace_faces, two_color, two_color_excluding, EmbeddedGraph,
    ParityUnionFind, PlanarizeOrder,
};
use proptest::prelude::*;

#[path = "support/component_trace.rs"]
mod component_trace;

fn random_graph() -> impl Strategy<Value = EmbeddedGraph> {
    let node = (-400i64..400, -400i64..400);
    (
        proptest::collection::vec(node, 2..25),
        proptest::collection::vec((0usize..25, 0usize..25, 1i64..50), 0..50),
    )
        .prop_map(|(pts, raw_edges)| {
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = pts
                .into_iter()
                .map(|(x, y)| g.add_node(Point::new(x, y)))
                .collect();
            g.nudge_duplicate_positions();
            for (u, v, w) in raw_edges {
                let (u, v) = (u % nodes.len(), v % nodes.len());
                if u != v {
                    g.add_edge(nodes[u], nodes[v], w);
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planarization always yields a plane drawing, and only kills edges.
    #[test]
    fn planarize_clears_all_crossings(mut g in random_graph()) {
        let before = g.alive_edge_count();
        let removed = planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        prop_assert!(crossing_pairs_par(&g, 1).is_planar());
        prop_assert_eq!(g.alive_edge_count() + removed.removed.len(), before);
    }

    /// Euler's formula holds per component after planarization, and face
    /// walks cover each half-edge exactly once.
    #[test]
    fn faces_satisfy_euler(mut g in random_graph()) {
        planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        let faces = trace_faces(&g);
        prop_assert_eq!(
            faces.face_len.iter().sum::<u32>() as usize,
            2 * g.alive_edge_count()
        );
        // V - E + F = 2 per component with edges.
        let comps = connected_components(&g);
        let mut v = vec![0i64; comps.count];
        let mut e = vec![0i64; comps.count];
        let mut fs: Vec<std::collections::HashSet<u32>> =
            vec![Default::default(); comps.count];
        for n in g.nodes() {
            v[comps.component(n) as usize] += 1;
        }
        for ed in g.alive_edges() {
            let c = comps.component(g.endpoints(ed).0) as usize;
            e[c] += 1;
            fs[c].insert(faces.left_face(ed));
            fs[c].insert(faces.right_face(ed));
        }
        for c in 0..comps.count {
            if e[c] > 0 {
                prop_assert_eq!(v[c] - e[c] + fs[c].len() as i64, 2);
            }
        }
    }

    /// The per-component face trace the pipeline runs is the serial
    /// trace restricted to each component at every parallelism degree,
    /// and the serial trace passes the full structural validator
    /// (half-edge coverage, per-component Euler formula, bridge
    /// double-visit).
    #[test]
    fn parallel_trace_is_bit_identical_and_valid(mut g in random_graph()) {
        planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        component_trace::assert_component_traces_restrict_serial(&g, "random graph");
    }

    /// The dual edges, bridges and odd faces read off each component's
    /// trace are the serial dual restricted to that component at every
    /// parallelism degree.
    #[test]
    fn parallel_dual_is_bit_identical(mut g in random_graph()) {
        planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        component_trace::assert_component_duals_restrict_serial(&g, "random graph");
    }

    /// The dual's odd faces come in even counts per component, and dual
    /// degrees sum to twice the non-bridge edges.
    #[test]
    fn dual_parity_invariants(mut g in random_graph()) {
        planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        let faces = trace_faces(&g);
        let dual = build_dual(&g, &faces);
        prop_assert_eq!(dual.t_set().len() % 2, 0);
        prop_assert_eq!(
            dual.degrees().iter().sum::<usize>(),
            2 * dual.edges.len()
        );
        prop_assert_eq!(
            dual.edges.len() + dual.bridges.len(),
            g.alive_edge_count()
        );
    }

    /// A graph is bipartite iff the greedy parity subgraph deletes nothing;
    /// excluding the parity-greedy leftovers always leaves it bipartite.
    #[test]
    fn parity_greedy_coherence(g in random_graph()) {
        let f = greedy_parity_subgraph(&g);
        prop_assert_eq!(two_color(&g).is_ok(), f.leftover.is_empty());
        prop_assert!(two_color_excluding(&g, &f.leftover).is_ok());
    }

    /// Odd-cycle witnesses are genuinely odd closed walks.
    #[test]
    fn odd_cycle_witness_valid(g in random_graph()) {
        if let Err(cycle) = two_color(&g) {
            prop_assert_eq!(cycle.edges.len() % 2, 1);
            let mut deg = std::collections::HashMap::new();
            for &e in &cycle.edges {
                let (u, v) = g.endpoints(e);
                *deg.entry(u).or_insert(0) += 1;
                *deg.entry(v).or_insert(0) += 1;
            }
            prop_assert!(deg.values().all(|d| d % 2 == 0));
        }
    }

    /// Parity union-find agrees with BFS 2-coloring on bipartiteness.
    #[test]
    fn parity_uf_agrees_with_bfs(g in random_graph()) {
        let mut uf = ParityUnionFind::new(g.node_count());
        let mut consistent = true;
        for e in g.alive_edges() {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index(), 1).is_err() {
                consistent = false;
                break;
            }
        }
        prop_assert_eq!(consistent, two_color(&g).is_ok());
    }
}
