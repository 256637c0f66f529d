use crate::{crossing_pairs_par, EdgeId, EmbeddedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The edge-selection policy of the greedy planarization step.
///
/// The paper removes minimum-weight crossing edges greedily
/// ([`PlanarizeOrder::MinWeightFirst`]); the other policies exist for the
/// ablation bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanarizeOrder {
    /// Remove the cheapest crossing edge first (the paper's policy).
    MinWeightFirst,
    /// Remove the most-crossing edge first, ties by cheapest.
    MostCrossingsFirst,
    /// Remove the edge with the smallest weight-per-crossing ratio first.
    MinWeightPerCrossing,
}

/// Result of planarization: which edges were removed to clear all
/// crossings.
#[derive(Clone, Debug)]
pub struct PlanarizeResult {
    /// Removed edges (the paper's potential conflict set `P`), in removal
    /// order.
    pub removed: Vec<EdgeId>,
    /// Number of crossing pairs in the original drawing.
    pub initial_crossings: usize,
}

/// Greedily removes crossing edges until the straight-line drawing of the
/// alive subgraph is planar.
///
/// Removed edges are killed in `g` and returned. This is Step 1(b) of the
/// paper's flow; the removed set is the *potential conflict set P*, which
/// Step 3 later re-examines against the bipartization coloring.
///
/// `parallelism` drives the initial crossing sweep (`0` = one worker per
/// CPU, `1` = serial). The greedy removal loop itself is inherently
/// sequential; results are bit-identical at every degree because the
/// sweep is ([`crate::crossing_pairs_par`]).
pub fn planarize(
    g: &mut EmbeddedGraph,
    order: PlanarizeOrder,
    parallelism: usize,
) -> PlanarizeResult {
    let crossings = crate::crossing_pairs_par(g, parallelism);
    planarize_with_crossings(g, order, &crossings)
}

/// [`planarize`] over a precomputed crossing set of the *current* alive
/// subgraph — callers that already ran the sweep (e.g. for statistics)
/// avoid paying it twice.
pub fn planarize_with_crossings(
    g: &mut EmbeddedGraph,
    order: PlanarizeOrder,
    crossings: &crate::CrossingSet,
) -> PlanarizeResult {
    let initial = crossings.pairs.len();
    let edge_count = g.edge_count();
    let partners = crossings.partners(edge_count);
    let mut count = crossings.counts(edge_count);

    // Priority value per policy; lower = removed earlier. Recomputed lazily.
    let priority = |g: &EmbeddedGraph, e: EdgeId, cnt: u32, order: PlanarizeOrder| -> (i128, i64) {
        match order {
            PlanarizeOrder::MinWeightFirst => (g.weight(e) as i128, e.index() as i64),
            PlanarizeOrder::MostCrossingsFirst => (-(cnt as i128), g.weight(e)),
            PlanarizeOrder::MinWeightPerCrossing => {
                // Scale to avoid rationals: weight / count compared as
                // the integer ratio weight * 2^20 / count. The widening
                // to i128 matters: in i64 the shift overflows for
                // weights >= 2^43, inverting removal order (or
                // panicking in debug builds).
                let ratio = ((g.weight(e) as i128) << 20) / cnt.max(1) as i128;
                (ratio, g.weight(e))
            }
        }
    };

    // (priority, crossing count at insertion, edge).
    type HeapEntry = Reverse<((i128, i64), u32, EdgeId)>;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    for e in g.alive_edges() {
        let c = count[e.index()];
        if c > 0 {
            heap.push(Reverse((priority(g, e, c, order), c, e)));
        }
    }

    let mut removed = Vec::new();
    while let Some(Reverse((_, stale_count, e))) = heap.pop() {
        let c = count[e.index()];
        if !g.is_alive(e) || c == 0 {
            continue;
        }
        if c != stale_count {
            // Count changed since insertion: re-queue with fresh priority.
            heap.push(Reverse((priority(g, e, c, order), c, e)));
            continue;
        }
        g.kill_edge(e);
        removed.push(e);
        count[e.index()] = 0;
        // Each edge is killed at most once, so every CSR row is walked at
        // most once from here.
        for &p in partners.neighbors(e) {
            if g.is_alive(p) && count[p.index()] > 0 {
                count[p.index()] -= 1;
            }
        }
    }

    debug_assert!(crossing_pairs_par(g, 1).is_planar());
    PlanarizeResult {
        removed,
        initial_crossings: initial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_geom::Point;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn removes_cheapest_of_crossing_pair() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 100));
        let c = g.add_node(p(0, 100));
        let d = g.add_node(p(100, 0));
        let cheap = g.add_edge(a, b, 1);
        let dear = g.add_edge(c, d, 50);
        let res = planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        assert_eq!(res.removed, vec![cheap]);
        assert!(!g.is_alive(cheap));
        assert!(g.is_alive(dear));
        assert_eq!(res.initial_crossings, 1);
    }

    #[test]
    fn planar_input_untouched() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 100));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        let res = planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        assert!(res.removed.is_empty());
        assert_eq!(g.alive_edge_count(), 3);
    }

    #[test]
    fn one_hub_edge_crossing_many() {
        // One cheap long edge crossing three expensive ones: only the long
        // edge should go, under any policy.
        let mut g = EmbeddedGraph::new();
        let l = g.add_node(p(-100, 0));
        let r = g.add_node(p(100, 0));
        let hub = g.add_edge(l, r, 2);
        for i in 0..3 {
            let x = -50 + i * 50;
            let t = g.add_node(p(x, 50));
            let b = g.add_node(p(x, -50));
            g.add_edge(t, b, 100);
        }
        for order in [
            PlanarizeOrder::MinWeightFirst,
            PlanarizeOrder::MostCrossingsFirst,
            PlanarizeOrder::MinWeightPerCrossing,
        ] {
            let mut gg = g.clone();
            let res = planarize(&mut gg, order, 1);
            assert_eq!(res.removed, vec![hub], "order {order:?}");
        }
    }

    #[test]
    fn always_ends_planar_on_random_drawings() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..15 {
            let n = rng.gen_range(5..30);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| g.add_node(p(rng.gen_range(-400..400), rng.gen_range(-400..400))))
                .collect();
            g.nudge_duplicate_positions();
            for _ in 0..rng.gen_range(5..60) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], rng.gen_range(1..50));
                }
            }
            let res = planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
            assert!(crossing_pairs_par(&g, 1).is_planar());
            // Removed edges really were killed.
            assert!(res.removed.iter().all(|&e| !g.is_alive(e)));
        }
    }

    #[test]
    fn weight_per_crossing_survives_huge_weights() {
        // Regression: weights at and beyond 2^43 used to overflow the
        // `weight << 20` ratio in MinWeightPerCrossing, flipping the
        // removal order (debug builds panicked). The cheap edge of each
        // crossing pair must still be the one removed.
        let huge = 1i64 << 50;
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 100));
        let c = g.add_node(p(0, 100));
        let d = g.add_node(p(100, 0));
        let cheap = g.add_edge(a, b, huge);
        let dear = g.add_edge(c, d, huge + 12345);
        let res = planarize(&mut g, PlanarizeOrder::MinWeightPerCrossing, 1);
        assert_eq!(res.removed, vec![cheap]);
        assert!(!g.is_alive(cheap));
        assert!(g.is_alive(dear));
    }

    #[test]
    fn min_weight_policy_prefers_cheap_edges_globally() {
        // Two independent crossing pairs; each must lose its cheap member.
        let mut g = EmbeddedGraph::new();
        let mk = |g: &mut EmbeddedGraph, ox: i64| {
            let a = g.add_node(p(ox, 0));
            let b = g.add_node(p(ox + 100, 100));
            let c = g.add_node(p(ox, 100));
            let d = g.add_node(p(ox + 100, 0));
            let cheap = g.add_edge(a, b, 1);
            let _dear = g.add_edge(c, d, 9);
            cheap
        };
        let c1 = mk(&mut g, 0);
        let c2 = mk(&mut g, 1000);
        let res = planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
        let mut removed = res.removed.clone();
        removed.sort_unstable();
        assert_eq!(removed, vec![c1, c2]);
    }
}
