use crate::{EdgeId, EmbeddedGraph, NodeId};

/// Partition of a graph's alive subgraph into connected components.
#[derive(Clone, Debug)]
pub struct Components {
    /// Component index per node (nodes of dead-only incidence form
    /// singleton components too).
    pub comp_of: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Component of a node.
    pub fn component(&self, n: NodeId) -> u32 {
        self.comp_of[n.index()]
    }

    /// Groups alive edge ids by the component of their endpoints.
    pub(crate) fn edges_by_component(&self, g: &EmbeddedGraph) -> Vec<Vec<EdgeId>> {
        let mut out = vec![Vec::new(); self.count];
        for e in g.alive_edges() {
            let (u, _) = g.endpoints(e);
            out[self.comp_of[u.index()] as usize].push(e);
        }
        out
    }
}

/// Computes connected components of the alive subgraph.
///
/// ```
/// use aapsm_geom::Point;
/// use aapsm_graph::{connected_components, EmbeddedGraph};
/// let mut g = EmbeddedGraph::new();
/// let a = g.add_node(Point::new(0, 0));
/// let b = g.add_node(Point::new(1, 0));
/// let _c = g.add_node(Point::new(9, 9));
/// g.add_edge(a, b, 1);
/// assert_eq!(connected_components(&g).count, 2);
/// ```
pub fn connected_components(g: &EmbeddedGraph) -> Components {
    let n = g.node_count();
    let mut comp_of = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for start in g.nodes() {
        if comp_of[start.index()] != u32::MAX {
            continue;
        }
        comp_of[start.index()] = count;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for e in g.incident(u) {
                let v = g.other_endpoint(e, u);
                if comp_of[v.index()] == u32::MAX {
                    comp_of[v.index()] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    Components {
        comp_of,
        count: count as usize,
    }
}

/// Computes the biconnected components (blocks) of the alive subgraph,
/// returned as edge sets. Every alive edge belongs to exactly one block.
///
/// Odd cycles live entirely inside one block, so bipartization decomposes
/// exactly over blocks; running the optimal bipartization per block instead
/// of per connected component is the decomposition ablation of the bench
/// suite.
pub fn biconnected_components(g: &EmbeddedGraph) -> Vec<Vec<EdgeId>> {
    let n = g.node_count();
    let mut disc = vec![0u32; n]; // 0 = unvisited; otherwise discovery time + 1
    let mut low = vec![0u32; n];
    let mut blocks: Vec<Vec<EdgeId>> = Vec::new();
    let mut edge_stack: Vec<EdgeId> = Vec::new();
    let mut timer = 1u32;

    // Iterative DFS frame: (node, parent edge, iterator index into adj).
    struct Frame {
        node: NodeId,
        parent_edge: Option<EdgeId>,
        next: usize,
    }

    let mut on_stack_edge = vec![false; g.edge_count()];

    for root in g.nodes() {
        if disc[root.index()] != 0 {
            continue;
        }
        disc[root.index()] = timer;
        low[root.index()] = timer;
        timer += 1;
        let mut stack = vec![Frame {
            node: root,
            parent_edge: None,
            next: 0,
        }];
        while let Some(frame) = stack.last_mut() {
            let u = frame.node;
            // Gather incident alive edges lazily by index.
            let incident: Vec<EdgeId> = g.incident(u).collect();
            if frame.next < incident.len() {
                let e = incident[frame.next];
                frame.next += 1;
                if Some(e) == frame.parent_edge {
                    continue;
                }
                let v = g.other_endpoint(e, u);
                if disc[v.index()] == 0 {
                    // Tree edge: descend.
                    edge_stack.push(e);
                    on_stack_edge[e.index()] = true;
                    disc[v.index()] = timer;
                    low[v.index()] = timer;
                    timer += 1;
                    stack.push(Frame {
                        node: v,
                        parent_edge: Some(e),
                        next: 0,
                    });
                } else if disc[v.index()] < disc[u.index()] && !on_stack_edge[e.index()] {
                    // Back edge to an ancestor.
                    edge_stack.push(e);
                    on_stack_edge[e.index()] = true;
                    low[u.index()] = low[u.index()].min(disc[v.index()]);
                } else if disc[v.index()] < disc[u.index()] {
                    low[u.index()] = low[u.index()].min(disc[v.index()]);
                }
            } else {
                // Done with u; propagate low to parent and maybe pop a block.
                let parent_edge = frame.parent_edge;
                stack.pop();
                if let Some(pe) = parent_edge {
                    // Invariant, not an error path: a frame with a parent edge
                    // sits above its parent's frame on the DFS stack.
                    #[allow(clippy::expect_used)]
                    let parent = stack.last().expect("parent frame exists").node;
                    low[parent.index()] = low[parent.index()].min(low[u.index()]);
                    if low[u.index()] >= disc[parent.index()] {
                        // parent is an articulation point (or root): pop a block.
                        let mut block = Vec::new();
                        while let Some(&top) = edge_stack.last() {
                            edge_stack.pop();
                            block.push(top);
                            if top == pe {
                                break;
                            }
                        }
                        blocks.push(block);
                    }
                }
            }
        }
    }
    debug_assert!(edge_stack.is_empty());
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_geom::Point;

    fn node(g: &mut EmbeddedGraph, x: i64, y: i64) -> NodeId {
        g.add_node(Point::new(x, y))
    }

    #[test]
    fn components_respect_dead_edges() {
        let mut g = EmbeddedGraph::new();
        let a = node(&mut g, 0, 0);
        let b = node(&mut g, 1, 0);
        let e = g.add_edge(a, b, 1);
        assert_eq!(connected_components(&g).count, 1);
        g.kill_edge(e);
        assert_eq!(connected_components(&g).count, 2);
    }

    #[test]
    fn edges_by_component_partitions() {
        let mut g = EmbeddedGraph::new();
        let a = node(&mut g, 0, 0);
        let b = node(&mut g, 1, 0);
        let c = node(&mut g, 100, 0);
        let d = node(&mut g, 101, 0);
        g.add_edge(a, b, 1);
        g.add_edge(c, d, 1);
        let comps = connected_components(&g);
        let per = comps.edges_by_component(&g);
        assert_eq!(per.iter().map(Vec::len).sum::<usize>(), 2);
        assert!(per.iter().all(|v| v.len() == 1));
    }

    /// Two triangles sharing one articulation node: 2 blocks.
    #[test]
    fn bowtie_has_two_blocks() {
        let mut g = EmbeddedGraph::new();
        let m = node(&mut g, 0, 0);
        let a = node(&mut g, -10, 5);
        let b = node(&mut g, -10, -5);
        let c = node(&mut g, 10, 5);
        let d = node(&mut g, 10, -5);
        g.add_edge(m, a, 1);
        g.add_edge(a, b, 1);
        g.add_edge(b, m, 1);
        g.add_edge(m, c, 1);
        g.add_edge(c, d, 1);
        g.add_edge(d, m, 1);
        let blocks = biconnected_components(&g);
        assert_eq!(blocks.len(), 2);
        assert!(blocks.iter().all(|b| b.len() == 3));
    }

    #[test]
    fn path_blocks_are_single_edges() {
        let mut g = EmbeddedGraph::new();
        let nodes: Vec<_> = (0..5).map(|i| node(&mut g, i * 10, 0)).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], 1);
        }
        let blocks = biconnected_components(&g);
        assert_eq!(blocks.len(), 4);
        assert!(blocks.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn cycle_is_one_block() {
        let mut g = EmbeddedGraph::new();
        let nodes: Vec<_> = (0..6).map(|i| node(&mut g, i * 10, (i % 2) * 10)).collect();
        for i in 0..6 {
            g.add_edge(nodes[i], nodes[(i + 1) % 6], 1);
        }
        let blocks = biconnected_components(&g);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), 6);
    }

    #[test]
    fn every_alive_edge_in_exactly_one_block() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let n = rng.gen_range(2..25);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|i| node(&mut g, i as i64 * 3, (i as i64 * 7) % 13))
                .collect();
            for _ in 0..rng.gen_range(1..3 * n) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], 1);
                }
            }
            let blocks = biconnected_components(&g);
            let mut seen = vec![0usize; g.edge_count()];
            for b in &blocks {
                for e in b {
                    seen[e.index()] += 1;
                }
            }
            for e in g.alive_edges() {
                assert_eq!(seen[e.index()], 1, "edge {e} in {} blocks", seen[e.index()]);
            }
        }
    }

    #[test]
    fn parallel_edges_form_a_block() {
        let mut g = EmbeddedGraph::new();
        let a = node(&mut g, 0, 0);
        let b = node(&mut g, 10, 0);
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        let blocks = biconnected_components(&g);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), 2);
    }
}
