//! Minimum-weight T-join solvers.
//!
//! Given a graph `G = (V, E, w)` with non-negative weights and a node set
//! `T ⊆ V`, a *T-join* is an edge set `A` such that a node is incident to an
//! odd number of edges of `A` exactly when it belongs to `T`. The optimal
//! bipartization of a planar phase conflict graph is a minimum-weight T-join
//! on its geometric dual with `T` = odd faces (Hadlock's construction, used
//! by Kahng et al. and by the DATE 2005 bright-field AAPSM paper this
//! workspace reproduces).
//!
//! Solvers (all exact, all reducing to minimum-weight perfect matching):
//!
//! * [`GadgetKind::Complete`] — one complete gadget per node (the textbook
//!   direct reduction),
//! * [`GadgetKind::Optimized`] — gadgets decomposed into complete subgraphs
//!   of size ≤ 3 chained by divide junctions (the reduction of Kahng et
//!   al., TCAD'99),
//! * [`GadgetKind::Generalized`] — complete subgraphs of *any* size (the
//!   DATE 2005 paper's new reduction; larger groups mean fewer junction
//!   nodes and faster matching),
//! * [`TJoinMethod::ShortestPath`] — the Edmonds–Johnson reduction:
//!   all-pairs shortest paths among T-nodes, matching on the complete
//!   T-graph, symmetric difference of the matched paths.
//!
//! # Auto-selection
//!
//! [`TJoinMethod::Auto`] (the default) picks per instance between the two
//! reductions by comparing the matching instances they produce. The gadget
//! reduction hands Blossom a graph with Θ(E) nodes regardless of |T|; the
//! metric closure hands it K_|T| after an O(|T|·E log V) Dijkstra sweep.
//! Since the dense Blossom solver is cubic in its node count, the closure
//! wins whenever the T-set is sparse relative to the edge set — which for
//! conflict-graph duals (few odd faces among many) is nearly always. The
//! heuristic in [`select_method`] is deliberately simple and purely a
//! function of instance shape: `ShortestPath` iff
//! `|T|² ≤ CLOSURE_DENSITY_FACTOR · |E|`, else `Gadget` — dense-T
//! instances (most faces odd, e.g. fully triangulated regions) keep the
//! gadget path where the closure's K_|T| would approach the gadget's size
//! while paying the Dijkstra sweep on top.
//!
//! # Caching and method provenance
//!
//! Callers that memoize joins by canonical instance bytes (the core
//! crate's `SolveCache`) must record *which concrete method* produced each
//! entry: `Auto` resolves deterministically per instance via
//! [`resolve_method`], so a cache keyed on instance bytes alone stays
//! correct under `Auto`, but mixing configured methods across sessions
//! sharing one cache would otherwise silently serve a join computed under
//! a different policy. Store the resolved method alongside the entry and
//! treat a mismatch as a miss.
//!
//! The gadget solvers support two representations: the *explicit* one
//! materializes a true node, a ghost node and a dummy node per edge
//! (straightforwardly correct), while the *merged* one collapses ghost and
//! dummy into the remote true node ("ghost nodes are not represented", as
//! the paper puts it), shrinking the matching instance by ~2 nodes per
//! edge. Parallel edges fall back to the explicit form to keep extraction
//! unambiguous. All solvers are cross-validated against each other and
//! against brute force in the test suite.
//!
//! # Example
//!
//! ```
//! use aapsm_tjoin::{solve_budgeted, Budget, MatchingContext, TJoinInstance, TJoinMethod};
//!
//! // A path 0-1-2 with T = {0, 2}: the T-join is the whole path.
//! let inst = TJoinInstance::new(3, vec![(0, 1, 4), (1, 2, 5)], vec![true, false, true])?;
//! let mut ctx = MatchingContext::new();
//! let join = solve_budgeted(&inst, TJoinMethod::default(), &mut ctx, &Budget::unlimited())?;
//! assert_eq!(join.weight, 9);
//! # Ok::<(), aapsm_tjoin::TJoinError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod brute;
mod gadget;
mod instance;
mod shortest_path;

pub use gadget::{solve_gadget_budgeted, GadgetKind, GadgetStats};
pub use instance::{TJoin, TJoinError, TJoinInstance};
use shortest_path::solve_shortest_path_budgeted;

pub use aapsm_fault::{Budget, BudgetExceeded};
pub use aapsm_matching::MatchingContext;

/// Which reduction to use for solving a T-join instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TJoinMethod {
    /// Gadget reduction to perfect matching.
    Gadget(GadgetKind),
    /// Edmonds–Johnson shortest-path reduction.
    ShortestPath,
    /// Per-instance selection between [`TJoinMethod::ShortestPath`] and
    /// the default gadget by instance shape (see [`select_method`]).
    Auto,
}

impl Default for TJoinMethod {
    /// Auto-selection: metric closure for sparse T-sets (the common
    /// conflict-dual shape), the paper's generalized gadgets otherwise.
    fn default() -> Self {
        TJoinMethod::Auto
    }
}

/// [`TJoinMethod::Auto`] picks the shortest-path reduction iff
/// `|T|² ≤ CLOSURE_DENSITY_FACTOR · |E|`. At that boundary the closure's
/// K_|T| matching instance (|T| nodes, dense) is still decisively smaller
/// than the gadget's Θ(E)-node instance for the cubic Blossom solver,
/// while beyond it the O(|T|·E log V) Dijkstra sweep stops paying for
/// itself on dense-T instances.
pub const CLOSURE_DENSITY_FACTOR: usize = 4;

/// The concrete method [`TJoinMethod::Auto`] picks for `inst`: a pure,
/// deterministic function of the instance shape (|T| and |E| only), so
/// caching layers keyed on canonical instance bytes resolve identically on
/// every lookup.
///
/// Never returns [`TJoinMethod::Auto`].
pub fn select_method(inst: &TJoinInstance) -> TJoinMethod {
    let t = inst.t_set().iter().filter(|&&b| b).count();
    let m = inst.edges().len();
    if t.saturating_mul(t) <= CLOSURE_DENSITY_FACTOR.saturating_mul(m) {
        TJoinMethod::ShortestPath
    } else {
        TJoinMethod::Gadget(GadgetKind::default())
    }
}

/// Resolves `method` to the concrete reduction used for `inst`:
/// [`TJoinMethod::Auto`] defers to [`select_method`], anything else is
/// returned unchanged. Cache layers recording method provenance call this
/// so an entry's tag never says `Auto`.
pub fn resolve_method(method: TJoinMethod, inst: &TJoinInstance) -> TJoinMethod {
    match method {
        TJoinMethod::Auto => select_method(inst),
        concrete => concrete,
    }
}

/// Solves a minimum-weight T-join instance with the chosen method, under
/// a [`Budget`].
///
/// All methods bottom out in Blossom perfect matching against the
/// caller-owned [`MatchingContext`] arena, so callers solving many
/// instances reuse one allocation (the parallel bipartization workers
/// hold one each; sequential callers can borrow the calling thread's via
/// `aapsm_matching::with_thread_context`). The Blossom dual-adjustment
/// loop charges [`aapsm_fault::Stage::Matching`] ticks and aborts early
/// when the budget trips; pass [`Budget::unlimited`] for an unbounded
/// solve.
///
/// # Errors
///
/// Returns [`TJoinError::Infeasible`] when some connected component
/// contains an odd number of T-nodes, and [`TJoinError::Budget`] when the
/// deadline, matching work cap, or cancellation token trips mid-solve.
pub fn solve_budgeted(
    inst: &TJoinInstance,
    method: TJoinMethod,
    ctx: &mut MatchingContext,
    budget: &Budget,
) -> Result<TJoin, TJoinError> {
    match method {
        TJoinMethod::Gadget(kind) => {
            solve_gadget_budgeted(inst, kind, ctx, budget).map(|(join, _)| join)
        }
        TJoinMethod::ShortestPath => solve_shortest_path_budgeted(inst, ctx, budget),
        TJoinMethod::Auto => solve_budgeted(inst, select_method(inst), ctx, budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn solve(inst: &TJoinInstance, method: TJoinMethod) -> Result<TJoin, TJoinError> {
        solve_budgeted(
            inst,
            method,
            &mut MatchingContext::new(),
            &Budget::unlimited(),
        )
    }

    fn all_methods() -> Vec<TJoinMethod> {
        vec![
            TJoinMethod::Gadget(GadgetKind::Complete),
            TJoinMethod::Gadget(GadgetKind::Optimized),
            TJoinMethod::Gadget(GadgetKind::Generalized { max_group: 4 }),
            TJoinMethod::Gadget(GadgetKind::Generalized { max_group: 8 }),
            TJoinMethod::ShortestPath,
            TJoinMethod::Auto,
        ]
    }

    #[test]
    fn auto_selection_is_shape_driven_and_concrete() {
        // Sparse T: 2 T-nodes on a 4-edge path → closure.
        let sparse = TJoinInstance::new(
            5,
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
            vec![true, false, false, false, true],
        )
        .unwrap();
        assert_eq!(select_method(&sparse), TJoinMethod::ShortestPath);

        // Dense T: two disjoint triangles with all 6 nodes in T —
        // |T|² = 36 > 4·|E| = 24 → gadget.
        let dense = TJoinInstance::new(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
            ],
            vec![true; 6],
        )
        .unwrap();
        assert_eq!(
            select_method(&dense),
            TJoinMethod::Gadget(GadgetKind::default())
        );

        // resolve_method is the identity on concrete methods and never
        // returns Auto.
        for m in all_methods() {
            let r = resolve_method(m, &sparse);
            assert_ne!(r, TJoinMethod::Auto);
            if m != TJoinMethod::Auto {
                assert_eq!(r, m);
            }
        }
    }

    #[test]
    fn empty_t_means_empty_join() {
        let inst =
            TJoinInstance::new(3, vec![(0, 1, 2), (1, 2, 3)], vec![false, false, false]).unwrap();
        for m in all_methods() {
            let j = solve(&inst, m).unwrap();
            assert_eq!(j.weight, 0, "{m:?}");
            assert!(j.edges.is_empty());
        }
    }

    #[test]
    fn two_t_nodes_take_shortest_path() {
        // Square with unequal sides; T at opposite corners.
        let inst = TJoinInstance::new(
            4,
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 10), (3, 0, 10)],
            vec![true, false, true, false],
        )
        .unwrap();
        for m in all_methods() {
            let j = solve(&inst, m).unwrap();
            assert_eq!(j.weight, 2, "{m:?}");
            assert!(inst.is_valid_join(&j));
        }
    }

    #[test]
    fn infeasible_odd_t_in_component() {
        let inst = TJoinInstance::new(3, vec![(0, 1, 1)], vec![true, false, true]).unwrap();
        for m in all_methods() {
            assert!(
                matches!(solve(&inst, m), Err(TJoinError::Infeasible { .. })),
                "{m:?}"
            );
        }
    }

    #[test]
    fn parallel_edges_supported() {
        // Two parallel edges; T = both endpoints: take the cheaper one.
        let inst = TJoinInstance::new(2, vec![(0, 1, 7), (0, 1, 3)], vec![true, true]).unwrap();
        for m in all_methods() {
            let j = solve(&inst, m).unwrap();
            assert_eq!(j.weight, 3, "{m:?}");
            assert!(inst.is_valid_join(&j), "{m:?}");
        }
    }

    #[test]
    fn four_t_nodes_prefer_disjoint_pairs() {
        // Path 0-1-2-3 with all four nodes in T: join = {(0,1), (2,3)}.
        let inst = TJoinInstance::new(
            4,
            vec![(0, 1, 2), (1, 2, 100), (2, 3, 2)],
            vec![true, true, true, true],
        )
        .unwrap();
        for m in all_methods() {
            let j = solve(&inst, m).unwrap();
            assert_eq!(j.weight, 4, "{m:?}");
        }
    }

    #[test]
    fn all_methods_agree_with_brute_force_on_random_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let methods = all_methods();
        for trial in 0..120 {
            let n = rng.gen_range(2..8);
            let m_edges = rng.gen_range(1..12.min(3 * n));
            let mut edges = Vec::new();
            for _ in 0..m_edges {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    edges.push((u, v, rng.gen_range(0..30) as i64));
                }
            }
            if edges.is_empty() {
                continue;
            }
            let t: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            let inst = TJoinInstance::new(n, edges.clone(), t.clone()).unwrap();
            let reference = brute::solve_brute(&inst);
            for &m in &methods {
                let got = solve(&inst, m);
                match (&reference, got) {
                    (None, Err(TJoinError::Infeasible { .. })) => {}
                    (Some(b), Ok(j)) => {
                        assert!(
                            inst.is_valid_join(&j),
                            "trial {trial} {m:?}: invalid join for edges={edges:?} t={t:?}"
                        );
                        assert_eq!(
                            j.weight, b.weight,
                            "trial {trial} {m:?}: edges={edges:?} t={t:?}"
                        );
                    }
                    (b, g) => panic!(
                        "trial {trial} {m:?}: feasibility disagrees brute={} got_ok={} edges={edges:?} t={t:?}",
                        b.is_some(),
                        g.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn methods_agree_on_larger_instances() {
        // Beyond brute-force reach: cross-validate methods against each
        // other.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..20 {
            let n = rng.gen_range(10..30);
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(n..4 * n) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    edges.push((u, v, rng.gen_range(0..100) as i64));
                }
            }
            let t: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let inst = TJoinInstance::new(n, edges, t).unwrap();
            let results: Vec<_> = all_methods()
                .into_iter()
                .map(|m| solve(&inst, m).map(|j| j.weight))
                .collect();
            for w in &results[1..] {
                assert_eq!(
                    results[0].as_ref().ok(),
                    w.as_ref().ok(),
                    "trial {trial}: {results:?}"
                );
            }
        }
    }
}
