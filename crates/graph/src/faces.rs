use crate::{connected_components, EdgeId, EmbeddedGraph, NodeId};

/// The faces of a plane straight-line drawing of the alive subgraph.
///
/// Computed by [`trace_faces`] from the *rotation system* induced by the
/// node coordinates (incident edges sorted counter-clockwise). Each
/// directed half-edge belongs to exactly one face; the face boundary walk
/// of a bridge visits it twice (once per direction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Faces {
    /// Number of faces traced.
    pub count: usize,
    /// Face id per half-edge (`2*edge + dir`); `u32::MAX` for dead edges.
    pub face_of: Vec<u32>,
    /// Boundary walk length per face (number of half-edges).
    pub face_len: Vec<u32>,
}

impl Faces {
    /// Face on the side of `e` traversed in `u -> v` direction (dir 0).
    pub fn left_face(&self, e: EdgeId) -> u32 {
        self.face_of[2 * e.index()]
    }

    /// Face on the side of `e` traversed in `v -> u` direction (dir 1).
    pub fn right_face(&self, e: EdgeId) -> u32 {
        self.face_of[2 * e.index() + 1]
    }

    /// Whether the face has an odd boundary walk. For a plane graph these
    /// are exactly the T-nodes of the dual T-join formulation of
    /// bipartization: the dual node's degree parity equals the boundary
    /// walk parity.
    pub(crate) fn is_odd(&self, face: u32) -> bool {
        self.face_len[face as usize] % 2 == 1
    }

    /// Validates this face structure against the graph it was traced from
    /// — the reusable debug assertion behind every face-tracing test
    /// (serial and parallel alike).
    ///
    /// Checks, in order:
    ///
    /// 1. **Half-edge coverage**: every alive half-edge carries a face id
    ///    below [`Faces::count`]; every dead half-edge carries `u32::MAX`.
    /// 2. **Walk lengths**: the number of half-edges assigned to each face
    ///    equals its recorded [`Faces::face_len`] (so walks sum to twice
    ///    the alive edge count).
    /// 3. **Per-component Euler formula**: `V − E + F = 2` for every
    ///    connected component with at least one alive edge.
    /// 4. **Bridge double-visit**: an alive edge has the same face on both
    ///    sides (its boundary walk visits it twice) **iff** it is a bridge
    ///    of the alive subgraph, independently computed by DFS low-link.
    ///
    /// Returns `Err` with a description of the first violation. Intended
    /// for `debug_assert!(faces.validate(&g).is_ok())`-style use and test
    /// suites; it allocates and runs a DFS, so keep it off release hot
    /// paths.
    pub fn validate(&self, g: &EmbeddedGraph) -> Result<(), String> {
        if self.face_of.len() != 2 * g.edge_count() {
            return Err(format!(
                "face_of covers {} half-edges, graph has {}",
                self.face_of.len(),
                2 * g.edge_count()
            ));
        }
        if self.face_len.len() != self.count {
            return Err(format!(
                "face_len has {} entries for {} faces",
                self.face_len.len(),
                self.count
            ));
        }
        let mut assigned = vec![0u64; self.count];
        for e in g.all_edges() {
            for dir in 0..2 {
                let f = self.face_of[2 * e.index() + dir];
                if g.is_alive(e) {
                    if f == u32::MAX {
                        return Err(format!("alive half-edge {e}/{dir} has no face"));
                    }
                    if f as usize >= self.count {
                        return Err(format!("half-edge {e}/{dir} has face {f} >= count"));
                    }
                    assigned[f as usize] += 1;
                } else if f != u32::MAX {
                    return Err(format!("dead half-edge {e}/{dir} assigned to face {f}"));
                }
            }
        }
        for (f, (&n, &len)) in assigned.iter().zip(&self.face_len).enumerate() {
            if n != u64::from(len) {
                return Err(format!("face {f} has {n} half-edges but walk length {len}"));
            }
        }
        // Per-component Euler formula.
        let comps = connected_components(g);
        let mut v = vec![0i64; comps.count];
        let mut e_cnt = vec![0i64; comps.count];
        let mut comp_of_face = vec![u32::MAX; self.count];
        let mut f_cnt = vec![0i64; comps.count];
        for n in g.nodes() {
            v[comps.component(n) as usize] += 1;
        }
        for ed in g.alive_edges() {
            let c = comps.component(g.endpoints(ed).0);
            e_cnt[c as usize] += 1;
            for f in [self.left_face(ed), self.right_face(ed)] {
                let slot = &mut comp_of_face[f as usize];
                if *slot == u32::MAX {
                    *slot = c;
                    f_cnt[c as usize] += 1;
                } else if *slot != c {
                    return Err(format!("face {f} spans components {} and {c}", *slot));
                }
            }
        }
        for c in 0..comps.count {
            if e_cnt[c] > 0 && v[c] - e_cnt[c] + f_cnt[c] != 2 {
                return Err(format!(
                    "component {c} violates Euler: V={} E={} F={}",
                    v[c], e_cnt[c], f_cnt[c]
                ));
            }
        }
        // Bridge double-visit: same-face-both-sides must coincide with
        // bridgeness of the alive subgraph.
        let bridges = alive_bridges(g);
        for ed in g.alive_edges() {
            let double_visit = self.left_face(ed) == self.right_face(ed);
            if double_visit != bridges[ed.index()] {
                return Err(format!(
                    "edge {ed}: double-visit {double_visit} but bridge {}",
                    bridges[ed.index()]
                ));
            }
        }
        Ok(())
    }
}

/// Bridges of the alive subgraph by iterative DFS low-link, indexed by
/// edge id. Parallel edges are never bridges (the duplicate is a back
/// edge), which the parent-*edge* tracking below preserves.
fn alive_bridges(g: &EmbeddedGraph) -> Vec<bool> {
    let n = g.node_count();
    let mut disc = vec![0u32; n]; // 0 = unvisited, else discovery time + 1
    let mut low = vec![0u32; n];
    let mut bridge = vec![false; g.edge_count()];
    let mut timer = 1u32;
    struct Frame {
        node: NodeId,
        parent_edge: Option<EdgeId>,
        /// Alive incident edges, collected once when the frame is pushed.
        incident: Vec<EdgeId>,
        next: usize,
    }
    let frame_for = |node: NodeId, parent_edge: Option<EdgeId>| Frame {
        node,
        parent_edge,
        incident: g.incident(node).collect(),
        next: 0,
    };
    for root in g.nodes() {
        if disc[root.index()] != 0 {
            continue;
        }
        disc[root.index()] = timer;
        low[root.index()] = timer;
        timer += 1;
        let mut stack = vec![frame_for(root, None)];
        while let Some(frame) = stack.last_mut() {
            let u = frame.node;
            if frame.next < frame.incident.len() {
                let e = frame.incident[frame.next];
                frame.next += 1;
                if Some(e) == frame.parent_edge {
                    continue;
                }
                let v = g.other_endpoint(e, u);
                if disc[v.index()] == 0 {
                    disc[v.index()] = timer;
                    low[v.index()] = timer;
                    timer += 1;
                    stack.push(frame_for(v, Some(e)));
                } else {
                    low[u.index()] = low[u.index()].min(disc[v.index()]);
                }
            } else {
                let parent_edge = frame.parent_edge;
                stack.pop();
                if let Some(pe) = parent_edge {
                    // Invariant, not an error path: a frame with a parent edge
                    // sits above its parent's frame on the DFS stack.
                    #[allow(clippy::expect_used)]
                    let parent = stack.last().expect("parent frame exists").node;
                    low[parent.index()] = low[parent.index()].min(low[u.index()]);
                    if low[u.index()] > disc[parent.index()] {
                        bridge[pe.index()] = true;
                    }
                }
            }
        }
    }
    bridge
}

/// Traces the faces of the alive subgraph's straight-line drawing.
///
/// Requires a *plane* drawing: no two alive edges may cross (run
/// [`crate::planarize`] first) and no two nodes may share coordinates (see
/// [`EmbeddedGraph::nudge_duplicate_positions`]).
///
/// # Panics
///
/// Panics if an alive edge has zero length (coincident endpoint
/// coordinates).
pub fn trace_faces(g: &EmbeddedGraph) -> Faces {
    // One canonical trace algorithm for serial and parallel alike:
    // `embed::trace_edge_list` over the identity partition (all alive
    // edges, global node numbering). Scanning the dense half-edge list in
    // ascending order visits global half-edges in ascending order, so the
    // local face ids *are* the serial face ids — only the half-edge
    // indices need scattering back to the global `2*edge + dir` layout.
    let edges: Vec<EdgeId> = g.alive_edges().collect();
    let node_local: Vec<u32> = (0..g.node_count() as u32).collect();
    let (local_face_of, face_len, _anchors) = crate::embed::trace_edge_list(
        g,
        &edges,
        &node_local,
        g.node_count(),
        &mut crate::embed::TraceScratch::default(),
    );
    let mut face_of = vec![u32::MAX; 2 * g.edge_count()];
    for (i, &e) in edges.iter().enumerate() {
        face_of[2 * e.index()] = local_face_of[2 * i];
        face_of[2 * e.index() + 1] = local_face_of[2 * i + 1];
    }
    Faces {
        count: face_len.len(),
        face_of,
        face_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_geom::Point;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    fn check_euler(g: &EmbeddedGraph, faces: &Faces) {
        faces.validate(g).expect("traced faces must validate");
    }

    fn odd_face_count(faces: &Faces) -> usize {
        (0..faces.count as u32).filter(|&f| faces.is_odd(f)).count()
    }

    #[test]
    fn single_edge_one_face_of_length_two() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(10, 0));
        let e = g.add_edge(a, b, 1);
        let f = trace_faces(&g);
        assert_eq!(f.count, 1);
        assert_eq!(f.face_len, vec![2]);
        assert_eq!(f.left_face(e), f.right_face(e));
        check_euler(&g, &f);
    }

    #[test]
    fn triangle_two_odd_faces() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        let f = trace_faces(&g);
        assert_eq!(f.count, 2);
        let mut lens = f.face_len.clone();
        lens.sort_unstable();
        assert_eq!(lens, vec![3, 3]);
        assert_eq!(odd_face_count(&f), 2);
        check_euler(&g, &f);
    }

    #[test]
    fn square_two_even_faces() {
        let mut g = EmbeddedGraph::new();
        let n: Vec<_> = [(0, 0), (100, 0), (100, 100), (0, 100)]
            .iter()
            .map(|&(x, y)| g.add_node(p(x, y)))
            .collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], 1);
        }
        let f = trace_faces(&g);
        assert_eq!(f.count, 2);
        assert_eq!(odd_face_count(&f), 0);
        check_euler(&g, &f);
    }

    #[test]
    fn k4_planar_drawing_has_four_faces() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(200, 0));
        let c = g.add_node(p(100, 160));
        let m = g.add_node(p(100, 60)); // inside the triangle
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        g.add_edge(m, a, 1);
        g.add_edge(m, b, 1);
        g.add_edge(m, c, 1);
        let f = trace_faces(&g);
        assert_eq!(f.count, 4);
        assert_eq!(f.face_len.iter().sum::<u32>(), 12); // 2E
        assert_eq!(odd_face_count(&f), 4);
        check_euler(&g, &f);
    }

    #[test]
    fn tree_has_single_face() {
        let mut g = EmbeddedGraph::new();
        let r = g.add_node(p(0, 0));
        let a = g.add_node(p(100, 10));
        let b = g.add_node(p(-100, 20));
        let c = g.add_node(p(10, 100));
        let d = g.add_node(p(110, 110));
        g.add_edge(r, a, 1);
        g.add_edge(r, b, 1);
        g.add_edge(r, c, 1);
        g.add_edge(a, d, 1);
        let f = trace_faces(&g);
        assert_eq!(f.count, 1);
        assert_eq!(f.face_len, vec![8]); // every edge visited twice
        check_euler(&g, &f);
    }

    #[test]
    fn two_components_each_get_faces() {
        let mut g = EmbeddedGraph::new();
        // Triangle at origin.
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        // Far-away single edge.
        let x = g.add_node(p(10_000, 0));
        let y = g.add_node(p(10_100, 0));
        g.add_edge(x, y, 1);
        let f = trace_faces(&g);
        assert_eq!(f.count, 3);
        check_euler(&g, &f);
    }

    #[test]
    fn face_walk_lengths_sum_to_twice_edges() {
        use crate::{planarize, PlanarizeOrder};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let n = rng.gen_range(4..40);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| g.add_node(p(rng.gen_range(-500..500), rng.gen_range(-500..500))))
                .collect();
            g.nudge_duplicate_positions();
            for _ in 0..rng.gen_range(3..80) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], rng.gen_range(1..20));
                }
            }
            planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
            let f = trace_faces(&g);
            assert_eq!(
                f.face_len.iter().sum::<u32>() as usize,
                2 * g.alive_edge_count()
            );
            check_euler(&g, &f);
            // Odd faces come in even numbers per component.
            assert_eq!(odd_face_count(&f) % 2, 0);
        }
    }
}
