use crate::{EdgeId, EmbeddedGraph, NodeId};

/// A proper 2-coloring of an [`EmbeddedGraph`].
#[derive(Clone, Debug)]
pub struct TwoColoring {
    /// Color (0 or 1) per node index. Isolated nodes get color 0.
    pub color: Vec<u8>,
}

/// Witness that a graph is not bipartite: the alive edges of one odd cycle.
#[derive(Clone, Debug)]
pub struct OddCycle {
    /// Edge ids of the cycle, in order around the cycle.
    pub edges: Vec<EdgeId>,
}

impl OddCycle {
    /// Cycle length (always odd).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the cycle is empty (it never is for a valid witness).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// 2-colors the alive subgraph, or returns an odd cycle.
///
/// # Errors
///
/// Returns an [`OddCycle`] witness when the alive subgraph is not
/// bipartite.
///
/// ```
/// use aapsm_geom::Point;
/// use aapsm_graph::{two_color, EmbeddedGraph};
/// let mut g = EmbeddedGraph::new();
/// let a = g.add_node(Point::new(0, 0));
/// let b = g.add_node(Point::new(1, 0));
/// g.add_edge(a, b, 1);
/// let coloring = two_color(&g).unwrap();
/// assert_ne!(coloring.color[0], coloring.color[1]);
/// ```
pub fn two_color(g: &EmbeddedGraph) -> Result<TwoColoring, OddCycle> {
    two_color_excluding(g, &[])
}

/// 2-colors the alive subgraph minus the given extra edge set, or returns
/// an odd cycle avoiding those edges.
///
/// `excluded` is a sorted-or-not slice of edge ids treated as deleted in
/// addition to dead edges. This is Step 3 of the paper's flow: color
/// `G_p − D` and test the planarization-removed edges against the coloring.
///
/// # Errors
///
/// Returns an [`OddCycle`] whose edges all remain in the filtered subgraph.
pub fn two_color_excluding(
    g: &EmbeddedGraph,
    excluded: &[EdgeId],
) -> Result<TwoColoring, OddCycle> {
    let mut skip = vec![false; g.edge_count()];
    for &e in excluded {
        skip[e.index()] = true;
    }
    let n = g.node_count();
    let mut color = vec![u8::MAX; n];
    // Parent edge that discovered each node, for odd-cycle extraction.
    let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut parent_node: Vec<Option<NodeId>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();

    for start in g.nodes() {
        if color[start.index()] != u8::MAX {
            continue;
        }
        color[start.index()] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for e in g.incident(u) {
                if skip[e.index()] {
                    continue;
                }
                let v = g.other_endpoint(e, u);
                if color[v.index()] == u8::MAX {
                    color[v.index()] = color[u.index()] ^ 1;
                    parent_edge[v.index()] = Some(e);
                    parent_node[v.index()] = Some(u);
                    queue.push_back(v);
                } else if color[v.index()] == color[u.index()] {
                    return Err(extract_odd_cycle(g, u, v, e, &parent_edge, &parent_node));
                }
            }
        }
    }
    for c in &mut color {
        if *c == u8::MAX {
            *c = 0;
        }
    }
    Ok(TwoColoring { color })
}

/// Walks parent pointers from both endpoints of the violating edge up to
/// their lowest common ancestor in the BFS forest, producing a cycle.
fn extract_odd_cycle(
    g: &EmbeddedGraph,
    u: NodeId,
    v: NodeId,
    closing: EdgeId,
    parent_edge: &[Option<EdgeId>],
    parent_node: &[Option<NodeId>],
) -> OddCycle {
    // Collect ancestor chains (node -> root).
    let chain = |mut n: NodeId| {
        let mut nodes = vec![n];
        let mut edges = Vec::new();
        while let Some(p) = parent_node[n.index()] {
            // Invariant, not an error path: BFS sets parent_edge with parent_node.
            #[allow(clippy::expect_used)]
            edges.push(parent_edge[n.index()].expect("parent edge set with parent node"));
            n = p;
            nodes.push(n);
        }
        (nodes, edges)
    };
    let (nu, eu) = chain(u);
    let (nv, ev) = chain(v);
    // Find LCA: deepest common node. Chains end at the same BFS root.
    let set: std::collections::HashMap<NodeId, usize> = nu
        .iter()
        .copied()
        .enumerate()
        .map(|(i, n)| (n, i))
        .collect();
    let mut lca_idx_v = 0;
    let mut lca_idx_u = nu.len() - 1;
    for (i, n) in nv.iter().enumerate() {
        if let Some(&j) = set.get(n) {
            lca_idx_v = i;
            lca_idx_u = j;
            break;
        }
    }
    let mut edges = Vec::new();
    edges.extend_from_slice(&eu[..lca_idx_u]);
    let mut back: Vec<EdgeId> = ev[..lca_idx_v].to_vec();
    back.reverse();
    edges.extend(back);
    edges.push(closing);
    debug_assert!(edges.len() % 2 == 1, "extracted cycle must be odd");
    debug_assert!(edges.iter().all(|&e| g.is_alive(e)));
    OddCycle { edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_geom::Point;

    fn path_graph(n: usize) -> EmbeddedGraph {
        let mut g = EmbeddedGraph::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| g.add_node(Point::new(i as i64 * 10, 0)))
            .collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], 1);
        }
        g
    }

    fn cycle_graph(n: usize) -> EmbeddedGraph {
        let mut g = EmbeddedGraph::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| {
                // Place on a convex polygon.
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                g.add_node(Point::new(
                    (1000.0 * a.cos()) as i64,
                    (1000.0 * a.sin()) as i64,
                ))
            })
            .collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], 1);
        }
        g
    }

    #[test]
    fn paths_and_even_cycles_are_bipartite() {
        assert!(two_color(&path_graph(7)).is_ok());
        assert!(two_color(&cycle_graph(8)).is_ok());
    }

    #[test]
    fn odd_cycle_witness_has_odd_length() {
        for n in [3usize, 5, 9, 13] {
            let g = cycle_graph(n);
            let cyc = two_color(&g).unwrap_err();
            assert_eq!(cyc.len(), n);
        }
    }

    #[test]
    fn killing_an_edge_restores_bipartiteness() {
        let mut g = cycle_graph(5);
        let cyc = two_color(&g).unwrap_err();
        g.kill_edge(cyc.edges[0]);
        assert!(two_color(&g).is_ok());
    }

    #[test]
    fn excluding_edges_is_like_killing_them() {
        let g = cycle_graph(7);
        let cyc = two_color(&g).unwrap_err();
        let coloring = two_color_excluding(&g, &[cyc.edges[3]]).unwrap();
        // All remaining edges properly colored.
        for e in g.alive_edges() {
            if e != cyc.edges[3] {
                let (u, v) = g.endpoints(e);
                assert_ne!(coloring.color[u.index()], coloring.color[v.index()]);
            }
        }
    }

    #[test]
    fn multiple_components() {
        let mut g = path_graph(3);
        // Add a disjoint triangle far away.
        let a = g.add_node(Point::new(1000, 1000));
        let b = g.add_node(Point::new(1010, 1000));
        let c = g.add_node(Point::new(1005, 1010));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        let e = g.add_edge(c, a, 1);
        let cyc = two_color(&g).unwrap_err();
        assert_eq!(cyc.len(), 3);
        g.kill_edge(e);
        assert!(two_color(&g).is_ok());
    }

    #[test]
    fn odd_cycle_in_dense_graph_is_valid() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for trial in 0..50 {
            let n = rng.gen_range(3..20);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|i| g.add_node(Point::new(i as i64 * 7, (i * i) as i64 % 23)))
                .collect();
            for _ in 0..rng.gen_range(n..3 * n) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], 1);
                }
            }
            if let Err(cyc) = two_color(&g) {
                assert!(cyc.len() % 2 == 1, "trial {trial}");
                // Check the edges actually form a closed walk.
                use std::collections::HashMap;
                let mut deg: HashMap<NodeId, usize> = HashMap::new();
                for &e in &cyc.edges {
                    let (u, v) = g.endpoints(e);
                    *deg.entry(u).or_default() += 1;
                    *deg.entry(v).or_default() += 1;
                }
                assert!(
                    deg.values().all(|&d| d % 2 == 0),
                    "trial {trial}: not a closed walk"
                );
            }
        }
    }
}
