use aapsm_geom::{Point, Segment};
use std::fmt;

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EmbeddedGraph {
    positions: Vec<Point>,
    edges: Vec<Edge>,
    adj: Vec<Vec<EdgeId>>,
}

impl EmbeddedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        EmbeddedGraph::default()
    }

    /// Pre-allocates for `nodes` additional nodes and `edges` additional
    /// edges (the conflict-graph builders know both counts up front).
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.positions.reserve(nodes);
        self.adj.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Adds a node at `pos` and returns its id.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        let id = NodeId(self.positions.len() as u32);
        self.positions.push(pos);
        self.adj.push(Vec::new());
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
        self.adj[u.index()].push(id);
        self.adj[v.index()].push(id);
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

    /// Alive edges incident to `n`.
    pub fn incident(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adj[n.index()]
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

    #[test]
    fn segment_matches_positions() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(1, 2));
        let b = g.add_node(p(3, 4));
        let e = g.add_edge(a, b, 1);
        assert_eq!(g.segment(e), Segment::new(p(1, 2), p(3, 4)));
    }
}
