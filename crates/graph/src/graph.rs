use aapsm_geom::{Point, Segment};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node in an [`EmbeddedGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an edge in an [`EmbeddedGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Edge {
    u: NodeId,
    v: NodeId,
    weight: i64,
    alive: bool,
}

/// A weighted multigraph drawn in the plane with straight-line edges.
///
/// Nodes carry exact integer coordinates; an edge is geometrically the
/// segment between its endpoints' coordinates. Edges can be soft-deleted
/// ("killed") — planarization and bipartization express their results as
/// sets of killed edges while all indices stay stable.
///
/// Self-loops are rejected; parallel edges are allowed (they arise naturally
/// when a shifter pair is constrained both by flanking and by overlap).
///
/// # Layout
///
/// Nodes and edges are two flat arrays. The incidence lists are one
/// compressed-sparse-row table (per-node offsets into one array of edge
/// ids, each node's ids ascending) built from the edge array by a
/// counting pass on the first traversal ([`Self::incident`],
/// [`Self::degree`]) and dropped by [`Self::add_node`] and
/// [`Self::add_edge`]; killing and reviving edges keep it. A build is
/// therefore a handful of allocations whatever its size, and a clone
/// copies a few flat arrays. The table is a cache: equality compares
/// nodes and edges only.
#[derive(Clone, Default)]
pub struct EmbeddedGraph {
    positions: Vec<Point>,
    edges: Vec<Edge>,
    incidence: OnceLock<Incidence>,
}

/// The incidence lists of an [`EmbeddedGraph`] in CSR form.
#[derive(Clone)]
struct Incidence {
    /// `node_count + 1` offsets: node `n`'s edges are
    /// `edges[offsets[n]..offsets[n + 1]]`.
    offsets: Vec<usize>,
    /// Every node's incident edges (dead or alive), ascending per node.
    edges: Vec<EdgeId>,
}

impl Incidence {
    fn of(nodes: usize, edges: &[Edge]) -> Incidence {
        // Degrees, then inclusive prefix sums (node `n`'s end), then a
        // fill from the last edge down that leaves each offset at its
        // node's start and each list ascending.
        let mut offsets = vec![0usize; nodes + 1];
        for e in edges {
            offsets[e.u.index()] += 1;
            offsets[e.v.index()] += 1;
        }
        let mut sum = 0;
        for o in &mut offsets {
            sum += *o;
            *o = sum;
        }
        let mut ids = vec![EdgeId(0); sum];
        for (i, e) in edges.iter().enumerate().rev() {
            for n in [e.u, e.v] {
                offsets[n.index()] -= 1;
                ids[offsets[n.index()]] = EdgeId(i as u32);
            }
        }
        Incidence {
            offsets,
            edges: ids,
        }
    }
}

impl PartialEq for EmbeddedGraph {
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions && self.edges == other.edges
    }
}

impl Eq for EmbeddedGraph {}

impl fmt::Debug for EmbeddedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmbeddedGraph")
            .field("positions", &self.positions)
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

impl EmbeddedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        EmbeddedGraph::default()
    }

    /// Pre-allocates the node and edge arrays for `nodes` and `edges`
    /// more (the conflict-graph builders know both counts up front). The
    /// incidence table needs no reservation: it is sized exactly when a
    /// traversal first builds it.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.positions.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Adds a node at `pos` and returns its id.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        let id = NodeId(self.positions.len() as u32);
        self.positions.push(pos);
        self.incidence.take();
        id
    }

    /// Adds an edge between distinct nodes and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either id is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: i64) -> EdgeId {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(u.index() < self.positions.len() && v.index() < self.positions.len());
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            u,
            v,
            weight,
            alive: true,
        });
        self.incidence.take();
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of edges ever added (including killed ones).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of edges currently alive.
    pub fn alive_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.alive).count()
    }

    /// Coordinates of a node.
    pub fn pos(&self, n: NodeId) -> Point {
        self.positions[n.index()]
    }

    /// The endpoints `(u, v)` of an edge in insertion order.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e.index()];
        (edge.u, edge.v)
    }

    /// The endpoint of `e` that is not `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of `e`.
    pub(crate) fn other_endpoint(&self, e: EdgeId, n: NodeId) -> NodeId {
        let (u, v) = self.endpoints(e);
        if n == u {
            v
        } else {
            assert_eq!(n, v, "{n} is not an endpoint of {e}");
            u
        }
    }

    /// Weight of an edge.
    pub fn weight(&self, e: EdgeId) -> i64 {
        self.edges[e.index()].weight
    }

    /// Whether an edge is alive.
    pub fn is_alive(&self, e: EdgeId) -> bool {
        self.edges[e.index()].alive
    }

    /// Soft-deletes an edge. Killing a dead edge is a no-op.
    pub fn kill_edge(&mut self, e: EdgeId) {
        self.edges[e.index()].alive = false;
    }

    /// Resurrects a previously killed edge.
    pub fn revive_edge(&mut self, e: EdgeId) {
        self.edges[e.index()].alive = true;
    }

    /// The straight-line segment realizing an edge.
    pub fn segment(&self, e: EdgeId) -> Segment {
        let (u, v) = self.endpoints(e);
        Segment::new(self.pos(u), self.pos(v))
    }

    /// Iterates over the ids of all alive edges.
    pub fn alive_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Iterates over all edge ids, dead or alive.
    pub fn all_edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Alive edges incident to `n`, in ascending id order (a parallel
    /// edge appears once per edge).
    pub fn incident(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let inc = self
            .incidence
            .get_or_init(|| Incidence::of(self.positions.len(), &self.edges));
        inc.edges[inc.offsets[n.index()]..inc.offsets[n.index() + 1]]
            .iter()
            .copied()
            .filter(move |e| self.edges[e.index()].alive)
    }

    /// Alive degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.incident(n).count()
    }

    /// Total weight of the given edges.
    pub fn total_weight<I: IntoIterator<Item = EdgeId>>(&self, edges: I) -> i64 {
        edges.into_iter().map(|e| self.weight(e)).sum()
    }

    /// Ensures no two nodes share exact coordinates by nudging later
    /// duplicates one dbu at a time along a deterministic spiral.
    ///
    /// Exact coincidences break the angular rotation system used by face
    /// tracing; at nm resolution a 1-dbu nudge is far below any design rule
    /// and does not meaningfully change which edges cross. Returns how many
    /// nodes were moved.
    pub fn nudge_duplicate_positions(&mut self) -> usize {
        let mut seen: aapsm_geom::FxHashSet<Point> =
            aapsm_geom::FxHashSet::with_capacity_and_hasher(
                self.positions.len(),
                aapsm_geom::FxBuildHasher::default(),
            );
        let spiral: [(i64, i64); 8] = [
            (1, 0),
            (0, 1),
            (-1, 0),
            (0, -1),
            (1, 1),
            (-1, 1),
            (-1, -1),
            (1, -1),
        ];
        let mut moved = 0;
        for i in 0..self.positions.len() {
            let mut p = self.positions[i];
            if seen.contains(&p) {
                let mut radius = 1i64;
                'search: loop {
                    for (dx, dy) in spiral {
                        let q = Point::new(p.x + dx * radius, p.y + dy * radius);
                        if !seen.contains(&q) {
                            p = q;
                            break 'search;
                        }
                    }
                    radius += 1;
                }
                self.positions[i] = p;
                moved += 1;
            }
            seen.insert(p);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn build_and_query() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(10, 0));
        let c = g.add_node(p(5, 5));
        let e1 = g.add_edge(a, b, 3);
        let e2 = g.add_edge(b, c, 4);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.alive_edge_count(), 2);
        assert_eq!(g.other_endpoint(e1, a), b);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.total_weight([e1, e2]), 7);
        g.kill_edge(e1);
        assert_eq!(g.alive_edge_count(), 1);
        assert_eq!(g.degree(b), 1);
        g.revive_edge(e1);
        assert_eq!(g.degree(b), 2);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(10, 0));
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(a, b, 2);
        assert_ne!(e1, e2);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        g.add_edge(a, a, 1);
    }

    #[test]
    fn nudge_separates_duplicates() {
        let mut g = EmbeddedGraph::new();
        for _ in 0..5 {
            g.add_node(p(7, 7));
        }
        let moved = g.nudge_duplicate_positions();
        assert_eq!(moved, 4);
        let mut pts: Vec<_> = g.nodes().map(|n| g.pos(n)).collect();
        pts.sort_unstable();
        pts.dedup();
        assert_eq!(pts.len(), 5);
    }

    fn incident(g: &EmbeddedGraph, n: NodeId) -> Vec<u32> {
        g.incident(n).map(|e| e.0).collect()
    }

    #[test]
    fn incidence_follows_edits_after_a_traversal() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(10, 0));
        g.add_edge(b, a, 1);
        assert_eq!(incident(&g, a), vec![0]);
        // A node and an edge added after the table was built show up.
        let c = g.add_node(p(5, 5));
        assert_eq!(incident(&g, c), Vec::<u32>::new());
        g.add_edge(c, a, 2);
        g.add_edge(a, b, 3);
        assert_eq!(incident(&g, a), vec![0, 1, 2]);
        assert_eq!(incident(&g, b), vec![0, 2]);
        assert_eq!(incident(&g, c), vec![1]);
        assert_eq!(g.degree(a), 3);
    }

    #[test]
    fn incidence_is_ascending_with_parallel_edges_and_kills() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut g = EmbeddedGraph::new();
        let nodes: Vec<NodeId> = (0..12).map(|i| g.add_node(p(i, i * i))).collect();
        for _ in 0..60 {
            let u = rng.gen_range(0..12usize);
            let v = (u + rng.gen_range(1..12usize)) % 12;
            g.add_edge(nodes[u], nodes[v], 1);
        }
        // Parallel edges between one pair, added last.
        let (x, y) = (nodes[3], nodes[4]);
        let twins = [g.add_edge(x, y, 5), g.add_edge(y, x, 6)];
        for e in g.all_edges().filter(|e| e.0 % 3 == 0) {
            g.kill_edge(e);
        }
        g.revive_edge(EdgeId(3));
        for e in twins {
            g.revive_edge(e);
        }
        for n in g.nodes() {
            let want: Vec<u32> = g
                .alive_edges()
                .filter(|&e| {
                    let (u, v) = g.endpoints(e);
                    u == n || v == n
                })
                .map(|e| e.0)
                .collect();
            assert_eq!(incident(&g, n), want, "node {n}");
            assert_eq!(g.degree(n), want.len(), "node {n}");
        }
        for e in twins {
            assert_eq!(g.incident(x).filter(|&f| f == e).count(), 1);
            assert_eq!(g.incident(y).filter(|&f| f == e).count(), 1);
        }
    }

    #[test]
    fn clones_equal_their_source_with_or_without_the_table() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(10, 0));
        let c = g.add_node(p(5, 5));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 2);
        g.add_edge(a, b, 3);
        let cold = g.clone();
        assert_eq!(g.degree(b), 3);
        let warm = g.clone();
        // Equality ignores whether either side has built its table.
        assert_eq!(cold, g);
        assert_eq!(warm, g);
        assert_eq!(cold, warm);
        for n in g.nodes() {
            assert_eq!(incident(&cold, n), incident(&g, n));
            assert_eq!(incident(&warm, n), incident(&g, n));
        }
        // A clone edited apart no longer equals its source, and each
        // side's table follows its own edits.
        let mut edited = warm.clone();
        edited.kill_edge(EdgeId(0));
        assert_ne!(edited, g);
        assert_eq!(incident(&edited, a), vec![2]);
        assert_eq!(incident(&g, a), vec![0, 2]);
        let d = edited.add_node(p(9, 9));
        edited.add_edge(d, c, 4);
        assert_eq!(incident(&edited, c), vec![1, 3]);
        assert_eq!(incident(&g, c), vec![1]);
    }

    #[test]
    fn segment_matches_positions() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(1, 2));
        let b = g.add_node(p(3, 4));
        let e = g.add_edge(a, b, 1);
        assert_eq!(g.segment(e), Segment::new(p(1, 2), p(3, 4)));
    }
}
