//! Per-component face tracing.
//!
//! [`crate::trace_faces`] is inherently a per-component computation: the
//! rotation system of a node involves only its own incident half-edges, a
//! face boundary walk never leaves its connected component, and every dual
//! edge connects two faces of one component.
//! [`component_embeddings_budgeted`] exploits that: it partitions the alive
//! edges by connected component and traces each component's faces
//! independently on `std::thread::scope` workers, with dense per-component
//! renumbering of nodes, half-edges and faces. Bipartization builds one
//! dual T-join instance per component straight from these traces.
//!
//! # Bit-identity guarantee
//!
//! Each component's trace is **the global serial trace restricted to the
//! component**, at every parallelism degree (property-tested in
//! `crates/graph/tests/proptest_graph.rs` across parallelism 0/1/2/4). The
//! rule that makes face ids line up: the serial trace scans half-edges in
//! ascending id order and opens a new face at the first unvisited
//! half-edge, so serial face ids are exactly the faces sorted by their
//! minimal half-edge id (the face's *anchor*). A per-component trace
//! scanning its own half-edges in ascending global order discovers the
//! same faces at the same anchors in ascending order, so local face `k`
//! is the component's `k`-th face in serial order — no renumbering
//! fixpoint, no tie-breaking heuristics.
//!
//! [`trace_faces_par`] and [`build_dual_par`] are one-line forwards to
//! the serial [`crate::trace_faces`] and [`crate::build_dual`]; nothing in
//! the pipeline calls them.

use crate::{
    build_dual, connected_components, trace_faces, DualGraph, EdgeId, EmbeddedGraph, Faces,
};
use aapsm_fault::{Budget, BudgetExceeded, FaultSite, Stage};
use aapsm_geom::{par_map_indexed, workers_for};

/// The faces of one connected component's plane drawing, in dense local
/// numbering.
///
/// Local half-edge `2*i + dir` is direction `dir` of `edges[i]` (dir 0 =
/// insertion order `u -> v`), mirroring the global `2*edge + dir` layout.
/// Local face ids are assigned in trace order — ascending
/// [`ComponentEmbedding::anchors`] — which equals the restriction of the
/// global serial face order to this component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentEmbedding {
    /// Global ids of this component's alive edges, ascending.
    pub edges: Vec<EdgeId>,
    /// Local face id per local half-edge.
    pub face_of: Vec<u32>,
    /// Boundary walk length per local face, in trace order.
    pub face_len: Vec<u32>,
    /// Global id of the minimal half-edge on each local face's boundary,
    /// strictly ascending — the key of the deterministic global merge.
    pub anchors: Vec<u32>,
}

impl ComponentEmbedding {
    /// Number of faces of this component.
    pub fn face_count(&self) -> usize {
        self.face_len.len()
    }

    /// Whether any face has an odd boundary walk (⇔ the component's dual
    /// T-join has a non-empty T-set ⇔ the component is not bipartite).
    pub fn has_odd_face(&self) -> bool {
        self.face_len.iter().any(|&l| l % 2 == 1)
    }
}

/// Traces the faces of every edge-bearing connected component of the alive
/// subgraph on up to `parallelism` workers (`0` = auto, `1` = inline),
/// under a [`Budget`]: each component's trace charges [`Stage::Embed`]
/// with its half-edge count before running, and the whole call aborts
/// with the first trip.
///
/// Components are returned in [`connected_components`] order with
/// edge-free components skipped; each entry's trace is bit-identical to
/// what the serial [`crate::trace_faces`] computes for that component (see
/// the module docs for why). Same planarity contract and
/// zero-length-edge panics as the serial trace.
///
/// # Errors
///
/// Returns [`BudgetExceeded`] when the deadline, embed work cap, or
/// cancellation token trips; partial traces are discarded.
pub fn component_embeddings_budgeted(
    g: &EmbeddedGraph,
    parallelism: usize,
    budget: &Budget,
) -> Result<Vec<ComponentEmbedding>, BudgetExceeded> {
    let partition = ComponentPartition::of(g);
    let workers = workers_for(parallelism, partition.work.len(), g.edge_count());
    par_map_indexed(
        partition.work.len(),
        workers,
        TraceScratch::default,
        |scratch, k| {
            let (c, edges) = &partition.work[k];
            aapsm_fault::hit(FaultSite::EmbedComponent);
            budget.charge(Stage::Embed, 2 * edges.len() as u64)?;
            let node_count = partition.node_counts[*c] as usize;
            let (face_of, face_len, anchors) =
                trace_edge_list(g, edges, &partition.node_local, node_count, scratch);
            Ok(ComponentEmbedding {
                edges: edges.clone(),
                face_of,
                face_len,
                anchors,
            })
        },
    )
    .into_iter()
    .collect()
}

/// The serial O(V + E) preamble of per-component tracing: dense node
/// renumbering plus the edge-bearing components' ascending edge lists.
/// The expensive part of tracing (the angular rotation sorts) happens on
/// the workers afterwards.
struct ComponentPartition {
    /// `(component id, its alive edges ascending)`, edge-bearing
    /// components only, in [`connected_components`] order.
    work: Vec<(usize, Vec<EdgeId>)>,
    /// Index of each node within its component.
    node_local: Vec<u32>,
    /// Node count per component (all components, edge-bearing or not).
    node_counts: Vec<u32>,
}

impl ComponentPartition {
    fn of(g: &EmbeddedGraph) -> ComponentPartition {
        let comps = connected_components(g);
        let mut node_local = vec![0u32; g.node_count()];
        let mut node_counts = vec![0u32; comps.count];
        for n in g.nodes() {
            let c = comps.component(n) as usize;
            node_local[n.index()] = node_counts[c];
            node_counts[c] += 1;
        }
        let work: Vec<(usize, Vec<EdgeId>)> = comps
            .edges_by_component(g)
            .into_iter()
            .enumerate()
            .filter(|(_, edges)| !edges.is_empty())
            .collect();
        ComponentPartition {
            work,
            node_local,
            node_counts,
        }
    }
}

/// The working buffers of [`trace_edge_list`], reused across the
/// components one worker traces: a fresh set per component cost five
/// allocations each.
#[derive(Default)]
pub(crate) struct TraceScratch {
    /// The local node each local half-edge leaves.
    source: Vec<u32>,
    /// `node_count + 1` offsets into `halves`.
    starts: Vec<u32>,
    /// Every node's half-edges, in CCW rotation order.
    halves: Vec<u32>,
    /// The fill cursor per node while `halves` is laid out.
    fill: Vec<u32>,
    /// Position of each half-edge in `halves`.
    rot_pos: Vec<u32>,
}

/// Empties `v` and fills it with `len` copies of `value`, keeping its
/// allocation.
fn refill(v: &mut Vec<u32>, len: usize, value: u32) {
    v.clear();
    v.resize(len, value);
}

/// The canonical face-tracing algorithm, over an arbitrary ascending
/// alive-edge list with a dense node renumbering: builds the CCW rotation
/// system, walks face successors, and assigns face ids in ascending
/// first-half-edge order. Returns `(face_of, face_len, anchors)` in the
/// [`ComponentEmbedding`] layout. [`crate::trace_faces`] runs it once
/// over the identity partition; [`component_embeddings_budgeted`] runs it
/// per component — one implementation, so the restriction contract
/// cannot drift.
pub(crate) fn trace_edge_list(
    g: &EmbeddedGraph,
    edges: &[EdgeId],
    node_local: &[u32],
    node_count: usize,
    scratch: &mut TraceScratch,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let TraceScratch {
        source,
        starts,
        halves,
        fill,
        rot_pos,
    } = scratch;
    let half_count = 2 * edges.len();
    // Local rotation system, in compressed sparse rows: node `n`'s
    // half-edges are `halves[starts[n]..starts[n + 1]]`, filled in local
    // half-edge order. Local half-edge order at a node is monotone in
    // global half-edge order (edge ids ascend with local edge index), so
    // the local id tie-break below equals the serial global tie-break.
    let local_node = |h: usize| -> u32 {
        let (u, v) = g.endpoints(edges[h / 2]);
        node_local[if h.is_multiple_of(2) { u } else { v }.index()]
    };
    // The node each half-edge leaves.
    source.clear();
    source.extend((0..half_count).map(local_node));
    refill(starts, node_count + 1, 0);
    for &n in source.iter() {
        starts[n as usize + 1] += 1;
    }
    for n in 0..node_count {
        starts[n + 1] += starts[n];
    }
    refill(halves, half_count, 0);
    fill.clear();
    fill.extend_from_slice(starts);
    for (h, &n) in source.iter().enumerate() {
        halves[fill[n as usize] as usize] = h as u32;
        fill[n as usize] += 1;
    }
    let target_pos = |h: u32| {
        let e = edges[(h / 2) as usize];
        let (u, v) = g.endpoints(e);
        if h.is_multiple_of(2) {
            g.pos(v)
        } else {
            g.pos(u)
        }
    };
    let source_pos = |h: u32| target_pos(h ^ 1);
    for n in 0..node_count {
        let rot = &mut halves[starts[n] as usize..starts[n + 1] as usize];
        if rot.len() < 2 {
            continue;
        }
        let from = source_pos(rot[0]);
        rot.sort_by(|&ha, &hb| {
            let da = target_pos(ha) - from;
            let db = target_pos(hb) - from;
            assert!(
                (da.x, da.y) != (0, 0) && (db.x, db.y) != (0, 0),
                "zero-length edge in plane drawing"
            );
            da.cmp_angle(db).then(ha.cmp(&hb))
        });
    }
    // Position of each half-edge in `halves`.
    refill(rot_pos, half_count, u32::MAX);
    for (i, &h) in halves.iter().enumerate() {
        rot_pos[h as usize] = i as u32;
    }
    // Face successor of h = (u -> v): the half-edge after twin(h) in the
    // CCW rotation at v.
    let next = |h: u32| -> u32 {
        let twin = (h ^ 1) as usize;
        let n = source[twin] as usize;
        let i = rot_pos[twin] + 1;
        halves[if i == starts[n + 1] { starts[n] } else { i } as usize]
    };

    let mut face_of = vec![u32::MAX; half_count];
    let mut face_len = Vec::new();
    let mut anchors = Vec::new();
    let mut count = 0u32;
    for start in 0..half_count as u32 {
        if face_of[start as usize] != u32::MAX {
            continue;
        }
        let mut len = 0u32;
        let mut h = start;
        loop {
            debug_assert_eq!(face_of[h as usize], u32::MAX);
            face_of[h as usize] = count;
            len += 1;
            h = next(h);
            if h == start {
                break;
            }
        }
        face_len.push(len);
        // The global anchor: scanning local half-edges in ascending order
        // visits global half-edges in ascending order, so `start` is the
        // face's minimal half-edge both locally and globally.
        anchors.push(2 * edges[(start / 2) as usize].0 + (start & 1));
        count += 1;
    }
    (face_of, face_len, anchors)
}

/// [`crate::trace_faces`] under the signature of the other `*_par`
/// stage entry points; `parallelism` is ignored. The whole-graph trace
/// always runs serially: the pipeline traces per component
/// ([`component_embeddings_budgeted`]) and never calls this. The function
/// stays only because the end-to-end benchmark in `perfbench/` calls it
/// by this name.
pub fn trace_faces_par(g: &EmbeddedGraph, _parallelism: usize) -> Faces {
    trace_faces(g)
}

/// [`crate::build_dual`] under the signature of the other `*_par` stage
/// entry points; `parallelism` is ignored, as in [`trace_faces_par`]. The
/// function stays only because the end-to-end benchmark in `perfbench/`
/// calls it by this name.
pub fn build_dual_par(g: &EmbeddedGraph, faces: &Faces, _parallelism: usize) -> DualGraph {
    build_dual(g, faces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{planarize, PlanarizeOrder};
    use aapsm_geom::Point;

    mod component_trace {
        include!("../tests/support/component_trace.rs");
    }

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    fn assert_identical(g: &EmbeddedGraph, label: &str) {
        component_trace::assert_component_traces_restrict_serial(g, label);
        component_trace::assert_component_duals_restrict_serial(g, label);
    }

    /// Interleaved components: edge ids alternate between two far-apart
    /// triangles, so serial face ids interleave components — each
    /// component's local order must be the serial order restricted to it.
    #[test]
    fn interleaved_components_merge_to_serial_order() {
        let mut g = EmbeddedGraph::new();
        let a0 = g.add_node(p(0, 0));
        let b0 = g.add_node(p(100, 0));
        let c0 = g.add_node(p(50, 80));
        let a1 = g.add_node(p(10_000, 0));
        let b1 = g.add_node(p(10_100, 0));
        let c1 = g.add_node(p(10_050, 80));
        g.add_edge(a0, b0, 1);
        g.add_edge(a1, b1, 1);
        g.add_edge(b0, c0, 1);
        g.add_edge(b1, c1, 1);
        g.add_edge(c0, a0, 1);
        g.add_edge(c1, a1, 1);
        assert_identical(&g, "interleaved triangles");
        assert_eq!(trace_faces(&g).count, 4);
        let embs = component_embeddings_budgeted(&g, 4, &Budget::unlimited()).expect("unlimited");
        assert_eq!(embs.len(), 2);
        assert!(embs.iter().all(|e| e.face_count() == 2));
    }

    #[test]
    fn bridge_heavy_star_and_empty_graph() {
        let mut g = EmbeddedGraph::new();
        let hub = g.add_node(p(0, 0));
        for i in 0..7i64 {
            let leaf = g.add_node(p(100 + 13 * i, 17 * i - 40));
            g.add_edge(hub, leaf, 1 + i);
        }
        assert_identical(&g, "star");
        assert_identical(&EmbeddedGraph::new(), "empty");
    }

    #[test]
    fn parallel_edges_and_dead_edges() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        let dead = g.add_edge(a, c, 3);
        g.add_edge(b, c, 4);
        g.kill_edge(dead);
        assert_identical(&g, "parallel + dead");
        let f = trace_faces(&g);
        assert_eq!(f.face_of[2 * dead.index()], u32::MAX);
        assert_eq!(f.face_of[2 * dead.index() + 1], u32::MAX);
        let embs = component_embeddings_budgeted(&g, 2, &Budget::unlimited()).expect("unlimited");
        assert!(embs.iter().all(|e| !e.edges.contains(&dead)));
    }

    #[test]
    fn component_embeddings_skip_isolated_nodes() {
        let mut g = EmbeddedGraph::new();
        g.add_node(p(-500, -500)); // isolated
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        g.add_node(p(500, 500)); // isolated
        let embs = component_embeddings_budgeted(&g, 2, &Budget::unlimited()).expect("unlimited");
        assert_eq!(embs.len(), 1);
        assert_eq!(embs[0].face_count(), 2);
        assert!(embs[0].has_odd_face());
        assert!(embs[0].anchors.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn budgeted_embeddings_trip_or_match_exactly() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        let starved = aapsm_fault::BudgetSpec {
            embed_ticks: Some(1),
            ..aapsm_fault::BudgetSpec::default()
        }
        .build();
        let err = component_embeddings_budgeted(&g, 1, &starved)
            .expect_err("1 tick cannot pay for 6 half-edges");
        assert_eq!(err.stage, Stage::Embed);
        let ok = component_embeddings_budgeted(&g, 2, &Budget::unlimited()).expect("unlimited");
        let serial = component_embeddings_budgeted(&g, 1, &Budget::unlimited()).expect("unlimited");
        assert_eq!(ok, serial);
    }

    #[test]
    fn random_planarized_graphs_are_bit_identical() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..15 {
            let n = rng.gen_range(4..40);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| g.add_node(p(rng.gen_range(-500..500), rng.gen_range(-500..500))))
                .collect();
            g.nudge_duplicate_positions();
            for _ in 0..rng.gen_range(3..90) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], rng.gen_range(1..20));
                }
            }
            planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
            assert_identical(&g, &format!("random trial {trial}"));
        }
    }
}
