//! Maximum/minimum weight matching on general graphs (Blossom algorithm).
//!
//! The bright-field AAPSM flow needs *minimum-weight perfect matching*: the
//! optimal bipartization of the planarized phase conflict graph reduces to a
//! T-join on the geometric dual, which in turn reduces — via the paper's
//! generalized gadgets — to a perfect matching on the gadget graph.
//!
//! This crate implements the primal–dual Blossom algorithm in O(V³),
//! following the classic dense-matrix formulation (Gabow-style with lazy
//! blossom bookkeeping). Weights are exact `i64` throughout; dual variables
//! use doubled weights so all slack arithmetic stays integral.
//!
//! Two free functions:
//!
//! * [`max_weight_matching`] — maximum weight (not necessarily perfect)
//!   matching, weights must be positive;
//! * [`min_weight_perfect_matching`] — minimum weight perfect matching via
//!   the standard cardinality-dominant weight transform.
//!
//! The [`exhaustive`] module provides a brute-force reference used by the
//! property-test suite (and usable at runtime for tiny instances).
//!
//! # Solver reuse and budgets
//!
//! The Blossom solver works on a dense `(2n+1)²` matrix plus O(n²)
//! scratch, which the free functions allocate afresh on each call. A
//! [`MatchingContext`] owns those buffers as a reusable arena, and
//! [`MatchingContext::try_min_weight_perfect_matching`] is its one entry:
//! it solves on the arena, allocating only when an instance is larger
//! than everything the context has seen before, and charges the work to
//! a [`Budget`]. That matters when one AAPSM flow solves thousands of
//! small matchings: each bipartization worker holds its own context.
//!
//! # Example
//!
//! ```
//! use aapsm_matching::min_weight_perfect_matching;
//!
//! // A 4-cycle with one cheap and one expensive chord-free pairing.
//! let edges = [(0, 1, 10), (1, 2, 1), (2, 3, 10), (3, 0, 1)];
//! let m = min_weight_perfect_matching(4, &edges).expect("perfect matching exists");
//! assert_eq!(m.weight, 2); // pairs (1,2) and (3,0)
//! assert_eq!(m.mate[1], Some(2));
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod blossom;
pub mod exhaustive;

pub use blossom::max_weight_matching;

pub use aapsm_fault::{Budget, BudgetExceeded, Stage};

/// A reusable Blossom solver arena.
///
/// Buffer capacities persist across calls: a context that has solved an
/// `n`-node instance solves any instance of at most `n` nodes without
/// touching the allocator.
pub struct MatchingContext {
    solver: blossom::Solver,
}

impl Default for MatchingContext {
    fn default() -> Self {
        MatchingContext::new()
    }
}

impl MatchingContext {
    /// An empty context; buffers are allocated on first use.
    pub fn new() -> Self {
        MatchingContext {
            solver: blossom::Solver::new(),
        }
    }

    /// Largest instance node count solvable without allocating.
    #[cfg(test)]
    pub(crate) fn node_capacity(&self) -> usize {
        self.solver.node_capacity()
    }

    /// [`min_weight_perfect_matching`] on this context's arena, charging
    /// Blossom dual-adjustment work to `budget`. `Ok(None)` means the
    /// graph has no perfect matching — a budget trip is a distinct outcome
    /// (`Err`), so callers can tell "infeasible" from "out of budget".
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the [`Stage::Matching`] budget trips; the
    /// solve is abandoned whole (no partial matching is returned), and the
    /// context stays usable for the next instance.
    pub fn try_min_weight_perfect_matching(
        &mut self,
        n: usize,
        edges: &[(usize, usize, i64)],
        budget: &Budget,
    ) -> Result<Option<Matching>, BudgetExceeded> {
        min_weight_perfect_matching_impl(&mut self.solver, n, edges, budget)
    }
}

/// A matching: `mate[v]` is `v`'s partner, `None` if unmatched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// Partner of each node.
    pub mate: Vec<Option<usize>>,
    /// Total weight of the matched edges (in the caller's original
    /// weights).
    pub weight: i64,
}

impl Matching {
    /// Whether every node is matched.
    pub fn is_perfect(&self) -> bool {
        self.mate.iter().all(Option::is_some)
    }

    /// The matched pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, m)| m.and_then(|v| (u < v).then_some((u, v))))
            .collect()
    }
}

/// Finds a minimum-weight perfect matching, or `None` when the graph has no
/// perfect matching (including when `n` is odd).
///
/// Duplicate edges are allowed; the cheapest parallel edge wins. Weights
/// may be any `i64` within ±2⁴⁰ (they are shifted internally; the limit
/// leaves ample headroom for chip-scale spacing weights).
///
/// Solves on a fresh arena; hold a [`MatchingContext`] to reuse one across
/// calls.
///
/// # Panics
///
/// Panics if an edge references a node `>= n`, is a self-loop, or exceeds
/// the weight headroom above.
pub fn min_weight_perfect_matching(n: usize, edges: &[(usize, usize, i64)]) -> Option<Matching> {
    unlimited(min_weight_perfect_matching_impl(
        &mut blossom::Solver::new(),
        n,
        edges,
        &Budget::unlimited(),
    ))
}

/// The result of a solve under [`Budget::unlimited`], which never trips.
fn unlimited<T>(result: Result<T, BudgetExceeded>) -> T {
    match result {
        Ok(value) => value,
        Err(_) => unreachable!("unlimited budget tripped"),
    }
}

fn min_weight_perfect_matching_impl(
    solver: &mut blossom::Solver,
    n: usize,
    edges: &[(usize, usize, i64)],
    budget: &Budget,
) -> Result<Option<Matching>, BudgetExceeded> {
    if n == 0 {
        return Ok(Some(Matching {
            mate: Vec::new(),
            weight: 0,
        }));
    }
    if n % 2 == 1 {
        return Ok(None);
    }
    const W_LIMIT: i64 = 1 << 40;
    let mut w_max = 0i64;
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(w.abs() < W_LIMIT, "weight exceeds headroom");
        w_max = w_max.max(w.abs());
    }
    // Cardinality-dominant transform: w' = base + (w_max - w) with
    // base > n * (2 * w_max), so larger matchings always outweigh smaller
    // ones and, among maximum matchings, minimum original weight wins.
    let base = 2 * w_max * (n as i64) + 1;
    let transformed: Vec<(usize, usize, i64)> = edges
        .iter()
        .map(|&(u, v, w)| (u, v, base + (w_max - w)))
        .collect();
    let m = solver.solve_max_weight(n, &transformed, budget)?;
    if !m.is_perfect() {
        return Ok(None);
    }
    // Invariant, not an error path: the solver only matches pairs that came
    // from the input edge list, so the min() below always sees a candidate.
    #[allow(clippy::expect_used)]
    let weight = m
        .pairs()
        .iter()
        .map(|&(u, v)| {
            edges
                .iter()
                .filter(|&&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u))
                .map(|&(_, _, w)| w)
                .min()
                .expect("matched pair corresponds to an input edge")
        })
        .sum();
    Ok(Some(Matching {
        mate: m.mate,
        weight,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_and_odd() {
        assert!(min_weight_perfect_matching(0, &[]).is_some());
        assert!(min_weight_perfect_matching(3, &[(0, 1, 1), (1, 2, 1)]).is_none());
    }

    #[test]
    fn single_edge() {
        let m = min_weight_perfect_matching(2, &[(0, 1, 7)]).unwrap();
        assert_eq!(m.weight, 7);
        assert_eq!(m.mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn no_perfect_matching() {
        // Star K_{1,3}: 4 nodes but no perfect matching.
        assert!(min_weight_perfect_matching(4, &[(0, 1, 1), (0, 2, 1), (0, 3, 1)]).is_none());
    }

    #[test]
    fn prefers_cheap_pairs_even_if_locally_tempting() {
        // Path 0-1-2-3 with cheap middle: taking (1,2) leaves 0 and 3
        // unmatchable; the perfect matching must use the two outer edges.
        let m = min_weight_perfect_matching(4, &[(0, 1, 5), (1, 2, 1), (2, 3, 5)]).unwrap();
        assert_eq!(m.weight, 10);
    }

    #[test]
    fn parallel_edges_take_the_cheapest() {
        let m = min_weight_perfect_matching(2, &[(0, 1, 9), (0, 1, 4), (1, 0, 6)]).unwrap();
        assert_eq!(m.weight, 4);
    }

    #[test]
    fn zero_and_negative_weights() {
        let m = min_weight_perfect_matching(4, &[(0, 1, 0), (2, 3, -5), (0, 2, 100), (1, 3, 100)])
            .unwrap();
        assert_eq!(m.weight, -5);
    }

    #[test]
    fn blossom_shrinking_is_exercised() {
        // Two triangles joined by a middle edge: odd components force
        // blossom handling.
        let edges = [
            (0, 1, 2),
            (1, 2, 2),
            (2, 0, 2),
            (3, 4, 2),
            (4, 5, 2),
            (5, 3, 2),
            (2, 3, 1),
        ];
        let m = min_weight_perfect_matching(6, &edges).unwrap();
        assert_eq!(m.weight, 5); // (0,1) + (2,3) + (4,5)
    }

    #[test]
    fn context_reuse_does_not_allocate_within_capacity() {
        // One large solve sizes the arena; every smaller solve after it
        // must run without growing any buffer, and must agree with a
        // fresh context.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let mut ctx = MatchingContext::new();
        let big_n = 40;
        let mut big_edges = Vec::new();
        for u in 0..big_n {
            for v in u + 1..big_n {
                if rng.gen_bool(0.4) {
                    big_edges.push((u, v, rng.gen_range(1..1000)));
                }
            }
        }
        let budget = Budget::unlimited();
        ctx.try_min_weight_perfect_matching(big_n, &big_edges, &budget)
            .unwrap();
        assert!(ctx.node_capacity() >= big_n);

        for _ in 0..50 {
            let n = 2 * rng.gen_range(1..=15); // all within capacity
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.6) {
                        edges.push((u, v, rng.gen_range(0..100)));
                    }
                }
            }
            let reused = ctx
                .try_min_weight_perfect_matching(n, &edges, &budget)
                .unwrap();
            let fresh = min_weight_perfect_matching(n, &edges);
            assert_eq!(
                reused.as_ref().map(|m| m.weight),
                fresh.as_ref().map(|m| m.weight),
                "arena reuse changed the optimum (n={n})"
            );
            assert_eq!(reused.map(|m| m.mate), fresh.map(|m| m.mate));
        }
        assert_eq!(
            ctx.node_capacity(),
            big_n,
            "within-capacity solves must not grow the arena"
        );
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..200 {
            let n = 2 * rng.gen_range(1..6); // up to 10 nodes
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.7) {
                        edges.push((u, v, rng.gen_range(0..100)));
                    }
                }
            }
            let fast = min_weight_perfect_matching(n, &edges);
            let brute = exhaustive::min_weight_perfect_matching(n, &edges);
            match (fast, brute) {
                (None, None) => {}
                (Some(f), Some(b)) => {
                    assert_eq!(f.weight, b.weight, "trial {trial} n={n} edges={edges:?}");
                    assert!(f.is_perfect());
                }
                (f, b) => panic!(
                    "trial {trial}: existence disagrees: fast={} brute={}",
                    f.is_some(),
                    b.is_some()
                ),
            }
        }
    }

    #[test]
    fn matches_brute_force_with_big_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        for _ in 0..50 {
            let n = 8;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.6) {
                        edges.push((u, v, rng.gen_range(0..1_000_000_000)));
                    }
                }
            }
            let fast = min_weight_perfect_matching(n, &edges);
            let brute = exhaustive::min_weight_perfect_matching(n, &edges);
            assert_eq!(fast.map(|m| m.weight), brute.map(|m| m.weight));
        }
    }

    #[test]
    fn larger_dense_instance_is_consistent() {
        // Sanity: mate array is involutive and every matched pair is an edge.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let n = 60;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(0.3) {
                    edges.push((u, v, rng.gen_range(1..10_000)));
                }
            }
        }
        if let Some(m) = min_weight_perfect_matching(n, &edges) {
            for (u, v) in m.pairs() {
                assert_eq!(m.mate[v], Some(u));
                assert!(edges
                    .iter()
                    .any(|&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u)));
            }
            assert_eq!(m.pairs().len(), n / 2);
        }
    }
}
