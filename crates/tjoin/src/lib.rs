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
//! # Which reduction the pipeline uses
//!
//! [`TJoinMethod::ShortestPath`] is the default and the reduction the
//! detection pipeline solves every dual T-join with; the gadget kinds stay
//! as explicit methods for the paper's Table 1 and Figs. 3–4 and for the
//! oracle suites. On conflict-graph duals the closure was never slower,
//! dense-T instances (`|T|² > 4·|E|`, most faces odd) included, which once
//! went to the generalized gadget. Serial `bipartize` medians (release),
//! at equal weight on every design; designs with no dense-T instance read
//! the same either way:
//!
//! | design | dense-T to the gadget | all closure |
//! |---|---|---|
//! | `flow_cover` block 1 | 27.6–30.8 ms | 4.3–4.4 ms |
//! | `flow_cover` block 3 | 49.5–58.6 ms | 5.0–5.1 ms |
//! | `service_eco` session, recipe seed 32 | 63.9 ms | 15.5 ms |
//! | `service_eco` session, recipe seed 33 | 39.8 ms | 15.6 ms |
//! | `service_eco` session, recipe seed 34 | 95.6 ms | 16.0 ms |
//! | rows_x64 | 120–159 ms | 60–72 ms |
//!
//! Every method is exact, but two methods may return different joins of
//! equal weight, so a memo of joins (the core crate's `SolveCache`) keys
//! each entry by method as well as by instance.
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
}

impl Default for TJoinMethod {
    /// The metric closure: the fastest reduction on every measured
    /// conflict-graph dual (see the crate docs).
    fn default() -> Self {
        TJoinMethod::ShortestPath
    }
}

/// Solves a minimum-weight T-join instance with the chosen method, under
/// a [`Budget`].
///
/// All methods bottom out in Blossom perfect matching against the
/// caller-owned [`MatchingContext`] arena, so callers solving many
/// instances reuse one allocation (the parallel bipartization workers
/// hold one each). The Blossom dual-adjustment loop charges
/// [`aapsm_fault::Stage::Matching`] ticks and aborts early when the
/// budget trips; pass [`Budget::unlimited`] for an unbounded solve.
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
        ]
    }

    #[test]
    fn default_is_the_metric_closure() {
        assert_eq!(TJoinMethod::default(), TJoinMethod::ShortestPath);
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
