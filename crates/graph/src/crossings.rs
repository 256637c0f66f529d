use crate::{EdgeId, EmbeddedGraph};
use aapsm_geom::{par_map_indexed, workers_for, GridIndex, Segment};

/// The set of crossing edge pairs of a straight-line drawing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrossingSet {
    /// Unordered crossing pairs, each reported once with the smaller edge
    /// id first.
    pub pairs: Vec<(EdgeId, EdgeId)>,
}

/// Crossing adjacency in CSR (offsets + data) form: one flat `data` array
/// of partners with a per-edge offset table, instead of one heap `Vec` per
/// edge. Built once per planarization and read on its hot removal loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrossingAdjacency {
    offsets: Vec<u32>,
    data: Vec<EdgeId>,
}

impl CrossingAdjacency {
    /// The edges crossing `e`.
    pub(crate) fn neighbors(&self, e: EdgeId) -> &[EdgeId] {
        let (lo, hi) = (self.offsets[e.index()], self.offsets[e.index() + 1]);
        &self.data[lo as usize..hi as usize]
    }

    /// Number of edges the table covers.
    pub fn edge_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

impl CrossingSet {
    /// Whether the drawing is already planar (no crossings).
    pub fn is_planar(&self) -> bool {
        self.pairs.is_empty()
    }

    /// What [`crossing_pairs_probed`] returns for `g` with its dead edges
    /// as the probes, read off `self`, the crossing pairs of the same
    /// drawing with every edge alive: `None` when a pair has exactly one
    /// alive edge, otherwise the pairs with both, in the same order. A
    /// caller that swept the whole graph already skips a second sweep.
    pub fn alive_part(&self, g: &EmbeddedGraph) -> Option<CrossingSet> {
        let mut pairs = Vec::new();
        for &(a, b) in &self.pairs {
            match (g.is_alive(a), g.is_alive(b)) {
                (true, true) => pairs.push((a, b)),
                (false, false) => {}
                _ => return None,
            }
        }
        Some(CrossingSet { pairs })
    }

    /// Number of crossings each edge participates in, indexed by edge id.
    pub fn counts(&self, edge_count: usize) -> Vec<u32> {
        let mut counts = vec![0u32; edge_count];
        for &(a, b) in &self.pairs {
            counts[a.index()] += 1;
            counts[b.index()] += 1;
        }
        counts
    }

    /// Adjacency: for each edge, the edges it crosses, as a flat CSR table
    /// (two counting passes, no per-edge heap allocation).
    pub(crate) fn partners(&self, edge_count: usize) -> CrossingAdjacency {
        let mut offsets = vec![0u32; edge_count + 1];
        for &(a, b) in &self.pairs {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut data = vec![EdgeId(0); self.pairs.len() * 2];
        for &(a, b) in &self.pairs {
            data[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            data[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        CrossingAdjacency { offsets, data }
    }
}

/// Finds all crossing pairs among alive edges using a spatial grid sized
/// by [`GridIndex::cell_for`] from the edges' bounding boxes, on up to
/// `parallelism` workers (`0` = one worker per CPU, `1` = serial, `k` = at
/// most `k` workers).
///
/// Two edges *cross* when their segments intersect anywhere beyond a shared
/// endpoint — see [`aapsm_geom::Segment::crosses`]. Edges meeting only at a
/// common node do not cross; parallel edges (coincident segments) and
/// collinear containments *do*, so that the planarized drawing is a proper
/// plane graph with a well-defined rotation system.
///
/// The sweep shards the spatial grid's occupied cells into contiguous
/// bands ([`GridIndex::par_collect_pairs`]); workers test segment pairs in
/// disjoint bands and per-band buffers are merged in band order, so the
/// result is **bit-identical to serial** at every degree.
pub fn crossing_pairs_par(g: &EmbeddedGraph, parallelism: usize) -> CrossingSet {
    // With no probe there is nothing to refuse on.
    crossing_pairs_probed(g, &[], parallelism).unwrap_or_default()
}

/// [`crossing_pairs_par`] with probes: `None` as soon as the segment of
/// any edge in `probes` (alive or not) crosses an alive edge, otherwise
/// the crossing pairs among the alive edges, exactly as
/// [`crossing_pairs_par`] reports them.
///
/// The probes query the grid the sweep builds, before the sweep runs, so
/// a refused call pays for the grid but not for the pair enumeration.
/// They run on up to `parallelism` workers, one contiguous slice of
/// `probes` each ([`aapsm_geom::workers_for`]). Detection kills the edges
/// of the conflict graph's bipartite components, sweeps the rest, and
/// probes with the killed edges: `None` says that a killed edge crosses a
/// swept one.
pub fn crossing_pairs_probed(
    g: &EmbeddedGraph,
    probes: &[EdgeId],
    parallelism: usize,
) -> Option<CrossingSet> {
    let alive: Vec<EdgeId> = g.alive_edges().collect();
    if alive.is_empty() {
        return Some(CrossingSet::default());
    }
    // Segments are packed once so a probe never chases node positions
    // through the graph.
    let segs: Vec<Segment> = alive.iter().map(|&e| g.segment(e)).collect();
    let boxes: Vec<_> = segs.iter().map(Segment::bbox_ranges).collect();
    let grid = GridIndex::build(GridIndex::cell_for(&boxes), boxes);
    let segs = &segs;
    if !probes.is_empty() {
        let workers = workers_for(parallelism, probes.len(), probes.len());
        let crossed = par_map_indexed(
            workers,
            workers,
            || (),
            |(), w| {
                let slice = &probes[w * probes.len() / workers..(w + 1) * probes.len() / workers];
                slice.iter().any(|&p| {
                    let probe = g.segment(p);
                    let mut hit = false;
                    grid.query(probe.bbox_ranges(), |i| {
                        hit = hit || probe.crosses(&segs[i as usize]);
                    });
                    hit
                })
            },
        );
        if crossed.contains(&true) {
            return None;
        }
    }
    let mut pairs = grid.par_collect_pairs(parallelism, |ia, ib| {
        // Edges sharing a graph node share that segment endpoint, which
        // [`Segment::crosses`] already discounts; edges that *additionally*
        // overlap (parallel edges, collinear containment) are genuine
        // planarity violations and must be reported.
        if segs[ia as usize].crosses(&segs[ib as usize]) {
            let (ea, eb) = (alive[ia as usize], alive[ib as usize]);
            let (lo, hi) = if ea.index() < eb.index() {
                (ea, eb)
            } else {
                (eb, ea)
            };
            Some((lo, hi))
        } else {
            None
        }
    });
    // The grid streams each candidate pair exactly once, so no dedup is
    // needed; sort for the canonical edge-id order the callers rely on.
    pairs.sort_unstable();
    Some(CrossingSet { pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_geom::Point;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn detects_x_crossing() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 100));
        let c = g.add_node(p(0, 100));
        let d = g.add_node(p(100, 0));
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(c, d, 1);
        let cs = crossing_pairs_par(&g, 1);
        assert_eq!(cs.pairs, vec![(e1, e2)]);
        assert_eq!(cs.counts(g.edge_count()), vec![1, 1]);
    }

    #[test]
    fn shared_node_edges_do_not_cross() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 100));
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 1);
        g.add_edge(b, c, 1);
        assert!(crossing_pairs_par(&g, 1).is_planar());
    }

    #[test]
    fn dead_edges_ignored() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 100));
        let c = g.add_node(p(0, 100));
        let d = g.add_node(p(100, 0));
        let e1 = g.add_edge(a, b, 1);
        g.add_edge(c, d, 1);
        g.kill_edge(e1);
        assert!(crossing_pairs_par(&g, 1).is_planar());
    }

    #[test]
    fn matches_brute_force_on_random_drawings() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        for _ in 0..20 {
            let n = rng.gen_range(4..25);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| g.add_node(p(rng.gen_range(-500..500), rng.gen_range(-500..500))))
                .collect();
            // nudge duplicates to keep drawings simple
            let mut gg = g.clone();
            for _ in 0..rng.gen_range(3..40) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && gg.pos(nodes[u]) != gg.pos(nodes[v]) {
                    gg.add_edge(nodes[u], nodes[v], 1);
                }
            }
            // Long edges out to far nodes: each spans many cells of the
            // grid the sweep sizes from the (short) median edge.
            let far: Vec<_> = (0..2)
                .map(|_| gg.add_node(p(rng.gen_range(-40_000..40_000), 20_000)))
                .collect();
            for _ in 0..rng.gen_range(1..4) {
                gg.add_edge(nodes[rng.gen_range(0..n)], far[rng.gen_range(0..2)], 1);
            }
            let boxes: Vec<_> = gg
                .alive_edges()
                .map(|e| gg.segment(e).bbox_ranges())
                .collect();
            let longest = boxes.iter().map(|b| (b.2 - b.0).max(b.3 - b.1)).max();
            assert!(longest > Some(10 * GridIndex::cell_for(&boxes)));
            let fast = crossing_pairs_par(&gg, 1).pairs;
            // Brute force.
            let alive: Vec<EdgeId> = gg.alive_edges().collect();
            let mut brute = Vec::new();
            for i in 0..alive.len() {
                for j in i + 1..alive.len() {
                    let (ea, eb) = (alive[i], alive[j]);
                    if gg.segment(ea).crosses(&gg.segment(eb)) {
                        brute.push((ea, eb));
                    }
                }
            }
            brute.sort_unstable();
            assert_eq!(fast, brute);
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..10 {
            let n = rng.gen_range(6..30);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| g.add_node(p(rng.gen_range(-600..600), rng.gen_range(-600..600))))
                .collect();
            g.nudge_duplicate_positions();
            for _ in 0..rng.gen_range(5..50) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], 1);
                }
            }
            let serial = crossing_pairs_par(&g, 1);
            for parallelism in [0usize, 2, 4, 8] {
                assert_eq!(crossing_pairs_par(&g, parallelism), serial);
            }
        }
    }

    /// All crossing pairs among the alive edges, by testing every pair.
    fn brute_pairs(g: &EmbeddedGraph) -> Vec<(EdgeId, EdgeId)> {
        let alive: Vec<EdgeId> = g.alive_edges().collect();
        let mut out = Vec::new();
        for (i, &ea) in alive.iter().enumerate() {
            for &eb in &alive[i + 1..] {
                if g.segment(ea).crosses(&g.segment(eb)) {
                    out.push((ea, eb));
                }
            }
        }
        out
    }

    #[test]
    fn probed_sweep_refuses_exactly_on_a_crossing_probe() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let (mut refused, mut answered) = (0, 0);
        for round in 0..40 {
            // Two clusters 5000 dbu apart, edges inside each: probing all
            // of the far cluster never crosses, probing part of the near
            // one usually does.
            let n = rng.gen_range(6..30);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..2 * n)
                .map(|i| {
                    let x = rng.gen_range(-600..600) + if i < n { 0 } else { 5000 };
                    g.add_node(p(x, rng.gen_range(-600..600)))
                })
                .collect();
            g.nudge_duplicate_positions();
            for _ in 0..rng.gen_range(5..40) {
                let cluster = rng.gen_range(0..2) * n;
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    g.add_edge(nodes[cluster + u], nodes[cluster + v], 1);
                }
            }
            let brute = brute_pairs(&g);
            for parallelism in [0, 1, 2, 4] {
                let swept = crossing_pairs_probed(&g, &[], parallelism).map(|c| c.pairs);
                assert_eq!(swept.as_ref(), Some(&brute));
                assert_eq!(crossing_pairs_par(&g, parallelism).pairs, brute);
            }
            // Kill the far cluster, and in odd rounds part of the near
            // one, and probe with them.
            let near_share = if round % 2 == 1 { 0.3 } else { 0.0 };
            let probes: Vec<EdgeId> = g
                .alive_edges()
                .filter(|&e| g.endpoints(e).0.index() >= n || rng.gen_bool(near_share))
                .collect();
            for &e in &probes {
                g.kill_edge(e);
            }
            let crossed = probes.iter().any(|&pe| {
                g.alive_edges()
                    .any(|e| g.segment(pe).crosses(&g.segment(e)))
            });
            let expected = (!crossed).then(|| brute_pairs(&g));
            for parallelism in [0, 1, 2, 4] {
                let probed = crossing_pairs_probed(&g, &probes, parallelism).map(|c| c.pairs);
                assert_eq!(probed, expected, "p{parallelism}");
            }
            let all = CrossingSet { pairs: brute };
            assert_eq!(all.alive_part(&g).map(|c| c.pairs), expected);
            if crossed {
                refused += 1;
            } else if !probes.is_empty() {
                answered += 1;
            }
        }
        assert!(refused > 5 && answered > 5, "{refused}/{answered}");
    }

    #[test]
    fn csr_partners_match_pairs() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 100));
        let c = g.add_node(p(0, 100));
        let d = g.add_node(p(100, 0));
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(c, d, 1);
        let mid_l = g.add_node(p(-50, 50));
        let mid_r = g.add_node(p(150, 50));
        let e3 = g.add_edge(mid_l, mid_r, 1); // horizontal through both
        let cs = crossing_pairs_par(&g, 1);
        let adj = cs.partners(g.edge_count());
        assert_eq!(adj.edge_count(), 3);
        let mut n1: Vec<_> = adj.neighbors(e1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![e2, e3]);
        let mut n3: Vec<_> = adj.neighbors(e3).to_vec();
        n3.sort_unstable();
        assert_eq!(n3, vec![e1, e2]);
        // Degree bookkeeping agrees with counts().
        let counts = cs.counts(g.edge_count());
        for e in [e1, e2, e3] {
            assert_eq!(adj.neighbors(e).len(), counts[e.index()] as usize);
        }
    }

    #[test]
    fn collinear_chain_is_planar() {
        // The PCG overlap-node pattern: a -- o -- b on one straight line.
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let o = g.add_node(p(50, 0));
        let b = g.add_node(p(100, 0));
        g.add_edge(a, o, 1);
        g.add_edge(o, b, 1);
        assert!(crossing_pairs_par(&g, 1).is_planar());
    }

    #[test]
    fn edge_through_foreign_vertex_counts_as_crossing() {
        // A long edge passing exactly through another edge's endpoint
        // breaks planarity of the drawing and must be reported.
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 0));
        let d = g.add_node(p(50, 50));
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(c, d, 1);
        let cs = crossing_pairs_par(&g, 1);
        assert_eq!(cs.pairs, vec![(e1, e2)]);
    }
}
