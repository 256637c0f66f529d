// The restriction check of the per-component face trace: every
// component that `component_embeddings_budgeted` traces must equal the
// global serial `trace_faces` restricted to that component.
//
// Shared between the graph crate's `embed.rs` unit tests (through
// `include!`, hence plain comments here), `tests/proptest_graph.rs` and
// the core crate's `tests/parallel_equivalence.rs`. It names nothing
// itself: each including module brings `Budget`, `EmbeddedGraph`,
// `build_dual`, `trace_faces`, `connected_components` and
// `component_embeddings_budgeted` into scope.

use super::*;

/// Parallelism degrees the per-component trace is checked at.
const TRACE_DEGREES: [usize; 4] = [0, 1, 2, 4];

/// Asserts, at every degree of [`TRACE_DEGREES`], that the component
/// traces partition the alive edges in [`connected_components`] order
/// and that each
/// one is the serial trace restricted to its component: local face `k`
/// is the component's `k`-th face in serial order, its anchor is that
/// face's minimal half-edge, its length matches, and every local
/// `face_of` entry maps through the anchors to the serial `face_of`.
pub fn assert_component_traces_restrict_serial(g: &EmbeddedGraph, label: &str) {
    let serial = trace_faces(g);
    serial
        .validate(g)
        .unwrap_or_else(|e| panic!("{label}: serial trace invalid: {e}"));
    // Serial face ids open at their minimal half-edge, so the first
    // half-edge seen per face is its anchor.
    let mut anchor_of = vec![u32::MAX; serial.count];
    for (h, &f) in serial.face_of.iter().enumerate() {
        if f != u32::MAX && anchor_of[f as usize] == u32::MAX {
            anchor_of[f as usize] = h as u32;
        }
    }
    let comps = connected_components(g);
    let comp_of_edge = |e| comps.component(g.endpoints(e).0);
    for parallelism in TRACE_DEGREES {
        let at = format!("{label} at parallelism {parallelism}");
        let embs = component_embeddings_budgeted(g, parallelism, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{at}: unlimited budget tripped: {e}"));
        let order: Vec<u32> = embs.iter().map(|emb| comp_of_edge(emb.edges[0])).collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "{at}: components out of order: {order:?}"
        );
        let mut face_owner = vec![usize::MAX; serial.count];
        let mut edge_count = 0;
        for (k, emb) in embs.iter().enumerate() {
            assert!(
                emb.edges.windows(2).all(|w| w[0] < w[1]),
                "{at}: component {k} edges not ascending"
            );
            assert!(
                emb.edges.iter().all(|&e| comp_of_edge(e) == order[k]),
                "{at}: component {k} holds another component's edge"
            );
            edge_count += emb.edges.len();
            let global: Vec<u32> = emb
                .anchors
                .iter()
                .map(|&a| serial.face_of[a as usize])
                .collect();
            assert!(
                global.windows(2).all(|w| w[0] < w[1]),
                "{at}: component {k} local faces out of serial order: {global:?}"
            );
            for (lf, &gf) in global.iter().enumerate() {
                assert_eq!(
                    emb.anchors[lf], anchor_of[gf as usize],
                    "{at}: component {k} face {lf} anchor"
                );
                assert_eq!(
                    emb.face_len[lf], serial.face_len[gf as usize],
                    "{at}: component {k} face {lf} length"
                );
                assert_eq!(
                    face_owner[gf as usize],
                    usize::MAX,
                    "{at}: serial face {gf} traced twice"
                );
                face_owner[gf as usize] = k;
            }
            for (i, &e) in emb.edges.iter().enumerate() {
                for dir in 0..2 {
                    assert_eq!(
                        global[emb.face_of[2 * i + dir] as usize],
                        serial.face_of[2 * e.index() + dir],
                        "{at}: component {k} face_of of edge {e:?} side {dir}"
                    );
                }
            }
        }
        assert_eq!(edge_count, g.alive_edge_count(), "{at}: alive edges");
        assert!(
            face_owner.iter().all(|&k| k != usize::MAX),
            "{at}: a serial face belongs to no component"
        );
    }
}

/// Asserts, at every degree of [`TRACE_DEGREES`], that the dual edges,
/// bridges and odd faces read off each component trace (as bipartization
/// does when it builds its per-component T-join instances) are the
/// global [`build_dual`] restricted to that component.
pub fn assert_component_duals_restrict_serial(g: &EmbeddedGraph, label: &str) {
    let serial = trace_faces(g);
    let dual = build_dual(g, &serial);
    for parallelism in TRACE_DEGREES {
        let at = format!("{label} at parallelism {parallelism}");
        let embs = component_embeddings_budgeted(g, parallelism, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{at}: unlimited budget tripped: {e}"));
        let mut edges = Vec::new();
        let mut bridges = Vec::new();
        for emb in &embs {
            let global = |lf: u32| serial.face_of[emb.anchors[lf as usize] as usize];
            for (i, &e) in emb.edges.iter().enumerate() {
                let (a, b) = (emb.face_of[2 * i], emb.face_of[2 * i + 1]);
                if a == b {
                    bridges.push(e);
                } else {
                    edges.push((e, global(a), global(b), g.weight(e)));
                }
            }
            for (lf, &len) in emb.face_len.iter().enumerate() {
                assert_eq!(
                    len % 2 == 1,
                    dual.odd_face[global(lf as u32) as usize],
                    "{at}: odd flag of local face {lf}"
                );
            }
            assert_eq!(
                emb.has_odd_face(),
                emb.anchors
                    .iter()
                    .any(|&a| dual.odd_face[serial.face_of[a as usize] as usize]),
                "{at}: component odd-face flag"
            );
        }
        edges.sort_unstable_by_key(|d| d.0);
        bridges.sort_unstable();
        let expected: Vec<_> = dual
            .edges
            .iter()
            .map(|d| (d.primal, d.a, d.b, d.weight))
            .collect();
        assert_eq!(edges, expected, "{at}: dual edges");
        assert_eq!(bridges, dual.bridges, "{at}: bridges");
    }
}
