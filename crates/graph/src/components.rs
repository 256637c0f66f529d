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
}
