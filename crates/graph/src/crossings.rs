use crate::{EdgeId, EmbeddedGraph};
use aapsm_geom::{DirtyRegions, GridIndex, SegmentSoA};

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
    let alive: Vec<EdgeId> = g.alive_edges().collect();
    if alive.is_empty() {
        return CrossingSet::default();
    }
    // The sweep probes far more candidate pairs than it reports, so the
    // crossing test reads endpoint coordinates from a packed SoA buffer
    // (bit-identical to [`aapsm_geom::Segment::crosses`]) instead of
    // chasing node positions through the graph per probe.
    let mut segs = SegmentSoA::with_capacity(alive.len());
    let mut boxes = Vec::with_capacity(alive.len());
    for &e in &alive {
        let seg = g.segment(e);
        segs.push(&seg);
        boxes.push(seg.bbox_ranges());
    }
    let grid = GridIndex::build(GridIndex::cell_for(&boxes), boxes);
    let segs = &segs;
    let mut pairs = grid.par_collect_pairs(parallelism, |ia, ib| {
        // Edges sharing a graph node share that segment endpoint, which
        // [`Segment::crosses`] already discounts; edges that *additionally*
        // overlap (parallel edges, collinear containment) are genuine
        // planarity violations and must be reported.
        if segs.crosses(ia as usize, ib as usize) {
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
    CrossingSet { pairs }
}

/// Incrementally recomputes the crossing set of `new_g` from the crossing
/// set of `old_g` after an end-to-end-cut batch summarized by `dirty`.
///
/// `old_of_new` maps each new edge id to the old edge encoding the same
/// constraint (`None` for constraints created by the cuts); both graphs
/// must be fully alive (pre-planarization). The result is **bit-identical**
/// to [`crossing_pairs_par`] on `new_g`.
///
/// # How it stays exact
///
/// Each new edge is classified once:
///
/// * **Translated** — it has an old counterpart and its segment is the
///   old segment plus one rigid vector `δ` (endpoint-wise, in stored
///   endpoint order).
/// * **Region-consistent** — additionally, `δ` is exactly the
///   [`DirtyRegions::rigid_shift_of`] of its old bounding box. Such
///   edges strictly avoid every inserted slab after the cuts, and two of
///   them with *different* `δ` end up separated by a slab (the
///   slab-separation invariant), so they cannot cross.
/// * **Suspect** — everything else: unmapped, non-translated, or
///   translated by a delta its region does not explain (e.g. the flank
///   edge of a stretched feature, whose midpoint-derived endpoints move
///   by half a cut width).
///
/// A crossing pair with no suspect member consists of two
/// region-consistent edges; if their deltas differ they cannot cross, and
/// if the deltas agree, translation by the common vector preserves
/// crossing *and* non-crossing exactly — so the pair crosses in `new_g`
/// iff its pre-image crossed in `old_g`. Those pairs are copied from the
/// old set. Every pair with a suspect member is re-tested geometrically:
/// suspects are queried against a fresh spatial grid over the new edges
/// (an edge pair that crosses has intersecting bounding boxes, so the
/// query finds every partner). The two sources are disjoint by
/// construction, and their union is sorted into the canonical edge-id
/// order.
pub fn crossing_pairs_incremental(
    new_g: &EmbeddedGraph,
    old_g: &EmbeddedGraph,
    old_set: &CrossingSet,
    old_of_new: &[Option<EdgeId>],
    dirty: &DirtyRegions,
) -> CrossingSet {
    let edge_count = new_g.edge_count();
    debug_assert_eq!(old_of_new.len(), edge_count);

    // ---- Classify every new edge. ----
    let mut new_of_old: Vec<Option<EdgeId>> = vec![None; old_g.edge_count()];
    let mut delta: Vec<Option<(i64, i64)>> = vec![None; edge_count];
    let mut suspect = vec![true; edge_count];
    for e in new_g.all_edges() {
        let Some(old_e) = old_of_new[e.index()] else {
            continue;
        };
        new_of_old[old_e.index()] = Some(e);
        let (nu, nv) = new_g.endpoints(e);
        let (ou, ov) = old_g.endpoints(old_e);
        let (np0, np1) = (new_g.pos(nu), new_g.pos(nv));
        let (op0, op1) = (old_g.pos(ou), old_g.pos(ov));
        let d0 = (np0.x - op0.x, np0.y - op0.y);
        let d1 = (np1.x - op1.x, np1.y - op1.y);
        if d0 != d1 {
            continue; // not a rigid translation
        }
        delta[e.index()] = Some(d0);
        let old_bbox = old_g.segment(old_e).bbox_ranges();
        suspect[e.index()] = dirty.rigid_shift_of(old_bbox) != Some(d0);
    }

    // ---- Keep old crossings between non-suspect same-delta edges. ----
    let mut pairs: Vec<(EdgeId, EdgeId)> = Vec::new();
    for &(oa, ob) in &old_set.pairs {
        let (Some(na), Some(nb)) = (new_of_old[oa.index()], new_of_old[ob.index()]) else {
            continue;
        };
        if suspect[na.index()] || suspect[nb.index()] {
            continue; // re-tested below
        }
        if delta[na.index()] != delta[nb.index()] {
            continue; // slab-separated: provably no longer crossing
        }
        let (lo, hi) = if na.index() < nb.index() {
            (na, nb)
        } else {
            (nb, na)
        };
        pairs.push((lo, hi));
    }

    // ---- Re-test every pair with a suspect member. ----
    let suspects: Vec<EdgeId> = new_g.all_edges().filter(|e| suspect[e.index()]).collect();
    // Adaptive bail-out: once most edges are suspect (a whole-chip cut
    // batch), per-suspect queries cost more than the streaming
    // owner-cell sweep. Purely a scheduling decision — both paths are
    // bit-identical.
    if suspects.len() * 2 > edge_count.max(1) {
        return crossing_pairs_par(new_g, 1);
    }
    if !suspects.is_empty() {
        // A fresh grid over the post-cut edges, indexed by edge id (every
        // edge is alive here by contract, so ids are dense), plus packed
        // endpoints — same locality win as the from-scratch sweep.
        let mut segs = SegmentSoA::with_capacity(edge_count);
        let mut boxes = Vec::with_capacity(edge_count);
        for e in new_g.all_edges() {
            let seg = new_g.segment(e);
            segs.push(&seg);
            boxes.push(seg.bbox_ranges());
        }
        let grid = GridIndex::build(GridIndex::cell_for(&boxes), boxes);
        for &s in &suspects {
            grid.query(grid.bbox(s.0), |partner| {
                let p = EdgeId(partner);
                if p == s || (suspect[p.index()] && p.index() < s.index()) {
                    return;
                }
                if segs.crosses(s.index(), p.index()) {
                    let (lo, hi) = if s.index() < p.index() {
                        (s, p)
                    } else {
                        (p, s)
                    };
                    pairs.push((lo, hi));
                }
            });
        }
    }

    pairs.sort_unstable();
    CrossingSet { pairs }
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
    fn incremental_sweep_matches_scratch_after_synthetic_cut() {
        use aapsm_geom::{Axis, CutSpec, DirtyRegions};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(131);
        for trial in 0..20 {
            // Old graph: random nodes/edges.
            let n = rng.gen_range(8..30);
            let mut old_g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| p(rng.gen_range(-600..600), rng.gen_range(-600..600)))
                .map(|pt| old_g.add_node(pt))
                .collect();
            for _ in 0..rng.gen_range(6..40) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && old_g.pos(nodes[u]) != old_g.pos(nodes[v]) {
                    old_g.add_edge(nodes[u], nodes[v], 1);
                }
            }
            let old_set = crossing_pairs_par(&old_g, 1);

            // "Cut": shift every node at x >= position by width; nodes
            // exactly on the line move too (their edges straddle and are
            // caught as non-region-consistent or dirty).
            let position = rng.gen_range(-200..200);
            let width = rng.gen_range(1..300);
            let dirty = DirtyRegions::from_cuts([CutSpec {
                axis: Axis::X,
                position,
                width,
            }]);
            let mut new_g = EmbeddedGraph::new();
            for node in old_g.nodes() {
                let q = old_g.pos(node);
                let x = if q.x >= position { q.x + width } else { q.x };
                new_g.add_node(p(x, q.y));
            }
            // Drop a couple of edges (vanished constraints), keep the
            // rest mapped 1:1, and add one brand-new edge.
            let mut old_of_new: Vec<Option<EdgeId>> = Vec::new();
            for e in old_g.all_edges() {
                if e.index() % 7 == trial % 7 {
                    continue; // vanished
                }
                let (u, v) = old_g.endpoints(e);
                new_g.add_edge(u, v, 1);
                old_of_new.push(Some(e));
            }
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            if a != b && new_g.pos(nodes[a]) != new_g.pos(nodes[b]) {
                new_g.add_edge(nodes[a], nodes[b], 1);
                old_of_new.push(None);
            }

            let scratch = crossing_pairs_par(&new_g, 1);
            let incremental =
                crossing_pairs_incremental(&new_g, &old_g, &old_set, &old_of_new, &dirty);
            assert_eq!(incremental, scratch, "trial {trial}");
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
