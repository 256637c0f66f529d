//! Embedded multigraphs and the graph machinery of phase-conflict analysis.
//!
//! The bright-field AAPSM flow of Chiang–Kahng–Sinha–Xu–Zelikovsky (DATE
//! 2005) reduces layout phase assignment to questions about a graph drawn in
//! the plane with straight-line edges:
//!
//! * is it **bipartite** (⇔ the layout is phase-assignable)?
//! * which minimum-weight edge set makes it bipartite (**bipartization**)?
//! * which edges must be deleted so the straight-line drawing has no
//!   crossings (**planarization**)?
//! * what are the **faces** of the resulting plane graph and its geometric
//!   **dual** (on which the bipartization becomes a T-join problem)?
//!
//! This crate provides all of that on a single concrete representation,
//! [`EmbeddedGraph`] — a weighted multigraph whose nodes carry exact integer
//! coordinates ([`aapsm_geom::Point`]).
//!
//! # Example
//!
//! ```
//! use aapsm_geom::Point;
//! use aapsm_graph::EmbeddedGraph;
//!
//! // An odd triangle is not bipartite.
//! let mut g = EmbeddedGraph::new();
//! let a = g.add_node(Point::new(0, 0));
//! let b = g.add_node(Point::new(10, 0));
//! let c = g.add_node(Point::new(5, 8));
//! g.add_edge(a, b, 1);
//! g.add_edge(b, c, 1);
//! g.add_edge(c, a, 1);
//! assert!(aapsm_graph::two_color(&g).is_err());
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bipartite;
mod components;
mod crossings;
mod dual;
mod embed;
mod faces;
mod graph;
mod planarize;
mod spanning;
mod unionfind;

pub use bipartite::{two_color, two_color_excluding, OddCycle, TwoColoring};
pub use components::{biconnected_components, connected_components, Components};
pub use crossings::{crossing_pairs_par, crossing_pairs_probed, CrossingAdjacency, CrossingSet};
pub use dual::{build_dual, DualEdge, DualGraph};
pub use embed::{
    build_dual_par, component_embeddings_budgeted, trace_faces_par, ComponentEmbedding,
};
pub use faces::{trace_faces, Faces};
pub use graph::{EdgeId, EmbeddedGraph, NodeId};
pub use planarize::{planarize, planarize_with_crossings, PlanarizeOrder, PlanarizeResult};
pub use spanning::{greedy_parity_subgraph, max_weight_spanning_forest, SpanningForest};
pub use unionfind::{ParityConflict, ParityUnionFind, UnionFind};
