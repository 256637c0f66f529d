use crate::{EdgeId, EmbeddedGraph, ParityUnionFind, UnionFind};

/// Result of a greedy forest / subgraph construction: the kept edges and
/// the leftover (deleted) edges.
#[derive(Clone, Debug)]
pub struct SpanningForest {
    /// Edges kept in the forest / bipartite subgraph.
    pub kept: Vec<EdgeId>,
    /// Edges that could not be added; in the greedy-bipartization baselines
    /// these are the AAPSM conflicts selected for correction.
    pub leftover: Vec<EdgeId>,
}

/// Sorts alive edges by decreasing weight (ties by ascending id, so results
/// are deterministic).
fn edges_by_weight_desc(g: &EmbeddedGraph) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = g.alive_edges().collect();
    edges.sort_by_key(|&e| (std::cmp::Reverse(g.weight(e)), e.index()));
    edges
}

/// The literal greedy-bipartization baseline of the paper (column GB of
/// Table 1): build a maximum-weight spanning forest by greedily taking the
/// heaviest edge that does not close *any* cycle; every leftover edge is
/// declared an AAPSM conflict.
///
/// Note this over-deletes: chords closing even cycles do not hurt
/// bipartiteness but are still deleted. See [`greedy_parity_subgraph`] for
/// the parity-aware variant.
///
/// ```
/// use aapsm_geom::Point;
/// use aapsm_graph::{max_weight_spanning_forest, EmbeddedGraph};
/// let mut g = EmbeddedGraph::new();
/// let a = g.add_node(Point::new(0, 0));
/// let b = g.add_node(Point::new(10, 0));
/// let c = g.add_node(Point::new(5, 8));
/// g.add_edge(a, b, 5);
/// g.add_edge(b, c, 4);
/// let cheap = g.add_edge(c, a, 1);
/// let forest = max_weight_spanning_forest(&g);
/// assert_eq!(forest.leftover, vec![cheap]);
/// ```
pub fn max_weight_spanning_forest(g: &EmbeddedGraph) -> SpanningForest {
    let mut uf = UnionFind::new(g.node_count());
    let mut kept = Vec::new();
    let mut leftover = Vec::new();
    for e in edges_by_weight_desc(g) {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index()) {
            kept.push(e);
        } else {
            leftover.push(e);
        }
    }
    SpanningForest { kept, leftover }
}

/// Parity-aware greedy bipartization: greedily keep the heaviest edges that
/// leave the kept subgraph bipartite (via a parity union-find); leftover
/// edges are exactly the edges that would close an odd cycle at the moment
/// they are considered.
///
/// This is the natural strengthening of the paper's GB baseline and is
/// reported alongside it.
pub fn greedy_parity_subgraph(g: &EmbeddedGraph) -> SpanningForest {
    let mut uf = ParityUnionFind::new(g.node_count());
    let mut kept = Vec::new();
    let mut leftover = Vec::new();
    for e in edges_by_weight_desc(g) {
        let (u, v) = g.endpoints(e);
        match uf.union(u.index(), v.index(), 1) {
            Ok(_) => kept.push(e),
            Err(_) => leftover.push(e),
        }
    }
    SpanningForest { kept, leftover }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_color_excluding;
    use aapsm_geom::Point;

    fn cycle(n: usize, weights: &[i64]) -> EmbeddedGraph {
        let mut g = EmbeddedGraph::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                g.add_node(Point::new(
                    (1000.0 * a.cos()) as i64,
                    (1000.0 * a.sin()) as i64,
                ))
            })
            .collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], weights[i]);
        }
        g
    }

    #[test]
    fn spanning_forest_drops_min_weight_cycle_edge() {
        let g = cycle(4, &[10, 20, 30, 5]);
        let f = max_weight_spanning_forest(&g);
        assert_eq!(f.leftover.len(), 1);
        assert_eq!(g.weight(f.leftover[0]), 5);
    }

    #[test]
    fn parity_greedy_keeps_even_cycles() {
        let g = cycle(4, &[10, 20, 30, 5]);
        let f = greedy_parity_subgraph(&g);
        assert!(f.leftover.is_empty(), "even cycle needs no deletion");
    }

    #[test]
    fn parity_greedy_breaks_odd_cycles_cheaply() {
        let g = cycle(5, &[10, 20, 30, 5, 8]);
        let f = greedy_parity_subgraph(&g);
        assert_eq!(f.leftover.len(), 1);
        assert_eq!(g.weight(f.leftover[0]), 5);
    }

    #[test]
    fn parity_greedy_result_is_bipartite() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..40 {
            let n = rng.gen_range(3..30);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|i| g.add_node(Point::new(i as i64, (i as i64 * 13) % 31)))
                .collect();
            for _ in 0..rng.gen_range(1..4 * n) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], rng.gen_range(1..100));
                }
            }
            let f = greedy_parity_subgraph(&g);
            assert!(two_color_excluding(&g, &f.leftover).is_ok());
            // GB (spanning forest) always deletes at least as many edges.
            let gb = max_weight_spanning_forest(&g);
            assert!(gb.leftover.len() >= f.leftover.len());
        }
    }

    #[test]
    fn deterministic_under_ties() {
        let g = cycle(5, &[7, 7, 7, 7, 7]);
        let a = greedy_parity_subgraph(&g);
        let b = greedy_parity_subgraph(&g);
        assert_eq!(a.leftover, b.leftover);
    }
}
