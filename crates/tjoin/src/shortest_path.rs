//! The Edmonds–Johnson shortest-path reduction for minimum-weight T-joins.

use crate::{TJoin, TJoinError, TJoinInstance};
use aapsm_fault::{Budget, Stage};
use aapsm_matching::MatchingContext;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const INF: i64 = i64::MAX / 4;
const NO_PARENT: usize = usize::MAX;

/// Solves a T-join via all-pairs shortest paths among T-nodes, against a
/// caller-owned matching arena and under a [`Budget`]:
///
/// 1. run Dijkstra from every T-node,
/// 2. find a minimum-weight perfect matching on the complete graph over
///    the T-nodes with shortest-path distances as weights,
/// 3. take the symmetric difference of the matched shortest paths.
///
/// The symmetric difference step matters: matched paths may share edges,
/// and XOR-ing them preserves the degree parity while never increasing the
/// weight, so the result is an optimal T-join.
///
/// Every phase of the reduction charges [`aapsm_fault::Stage::Matching`]
/// work: the Dijkstra sweep charges one tick per heap pop, the T-pair
/// distance-graph build one tick per source row, and the Blossom matching
/// its usual one tick per dual adjustment — with a boundary
/// [`Budget::check`] between phases. A blown deadline or work cap
/// therefore trips inside whichever loop is running, never only after the
/// (potentially dominant) shortest-path work has already completed. Pass
/// [`Budget::unlimited`] for an unbounded solve.
///
/// # Errors
///
/// Returns [`TJoinError::Infeasible`] when some component has an odd
/// number of T-nodes and [`TJoinError::Budget`] when the budget trips
/// in any phase.
pub(crate) fn solve_shortest_path_budgeted(
    inst: &TJoinInstance,
    ctx: &mut MatchingContext,
    budget: &Budget,
) -> Result<TJoin, TJoinError> {
    inst.check_feasible()?;
    let t_nodes: Vec<usize> = (0..inst.node_count())
        .filter(|&v| inst.t_set()[v])
        .collect();
    if t_nodes.is_empty() {
        return Ok(TJoin {
            edges: Vec::new(),
            weight: 0,
        });
    }

    // Dijkstra from each T-node, remembering the parent edge for path
    // recovery. A source only ever needs distances to the T-nodes of its
    // own component, so each run stops once those are all settled.
    budget.check(Stage::Matching)?;
    let comp = inst.components();
    let comp_count = comp.iter().copied().max().map_or(0, |c| c + 1);
    let mut t_per_comp = vec![0usize; comp_count];
    // lint: allow(L1) — O(|T|) single-increment fill, dominated by the charged Dijkstra phase below
    for &t in &t_nodes {
        t_per_comp[comp[t]] += 1;
    }
    let mut dijkstra = DijkstraScratch::new(inst.node_count());
    let mut dist_all = Vec::with_capacity(t_nodes.len());
    let mut parent_all = Vec::with_capacity(t_nodes.len());
    for &s in &t_nodes {
        let (dist, parent) = dijkstra.run_budgeted(inst, s, t_per_comp[comp[s]], budget)?;
        dist_all.push(dist);
        parent_all.push(parent);
    }

    // Complete graph over T-nodes (only pairs in the same component).
    budget.check(Stage::Matching)?;
    let mut matching_edges = Vec::new();
    for (i, dist_i) in dist_all.iter().enumerate() {
        budget.charge(Stage::Matching, 1)?;
        // lint: allow(L1) — one tick per source row charged by the enclosing loop; body is plain appends
        for j in (i + 1)..t_nodes.len() {
            let d = dist_i[t_nodes[j]];
            if d < INF {
                matching_edges.push((i, j, d));
            }
        }
    }
    budget.check(Stage::Matching)?;
    let Some(matching) =
        ctx.try_min_weight_perfect_matching(t_nodes.len(), &matching_edges, budget)?
    else {
        // `check_feasible` guarantees an even T count per component, which
        // makes the T-node distance graph perfectly matchable.
        debug_assert!(false, "even T per component yielded no perfect matching");
        return Err(TJoinError::Internal {
            context: "T-node distance graph of a feasible instance has no perfect matching",
        });
    };

    // XOR the matched shortest paths.
    let mut in_join = vec![false; inst.edges().len()];
    for (i, j) in matching.pairs() {
        let mut v = t_nodes[j];
        let target = t_nodes[i];
        while v != target {
            // Path recovery is O(|T|·V) worst case — real work that a
            // deadline must be able to interrupt: one tick per path edge.
            budget.charge(Stage::Matching, 1)?;
            // Invariant: the matching only pairs T-nodes with a finite
            // distance, so the Dijkstra parent chain reaches the target.
            let ei = parent_all[i][v];
            debug_assert_ne!(ei, NO_PARENT, "path exists to matched partner");
            in_join[ei] ^= true;
            let (a, b, _) = inst.edges()[ei];
            v = if a == v { b } else { a };
        }
    }
    let edges: Vec<usize> = (0..inst.edges().len()).filter(|&i| in_join[i]).collect();
    let weight = edges.iter().map(|&i| inst.edges()[i].2).sum();
    Ok(TJoin { edges, weight })
}

/// Reusable buffers for the per-source Dijkstra runs: the heap survives
/// across sources (capacity reuse), while the distance and parent arrays
/// are handed out per source for path recovery.
struct DijkstraScratch {
    n: usize,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
}

impl DijkstraScratch {
    fn new(n: usize) -> DijkstraScratch {
        DijkstraScratch {
            n,
            heap: BinaryHeap::new(),
        }
    }

    /// One budgeted single-source run, stopping early once `t_in_comp`
    /// T-nodes (the source's whole component share) are settled. Charges
    /// one [`Stage::Matching`] tick per heap pop — the unit of work of
    /// the O(|T|·E log V) phase.
    fn run_budgeted(
        &mut self,
        inst: &TJoinInstance,
        source: usize,
        t_in_comp: usize,
        budget: &Budget,
    ) -> Result<(Vec<i64>, Vec<usize>), TJoinError> {
        let mut dist = vec![INF; self.n];
        let mut parent = vec![NO_PARENT; self.n];
        self.heap.clear();
        let mut t_settled = 0usize;
        dist[source] = 0;
        self.heap.push(Reverse((0i64, source)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            budget.charge(Stage::Matching, 1)?;
            if dist[u] != d {
                continue;
            }
            if inst.t_set()[u] {
                t_settled += 1;
                if t_settled == t_in_comp {
                    break;
                }
            }
            // lint: allow(L1) — one tick per heap pop charged above; the incident scan is that pop's unit of work
            for &ei in inst.incident(u) {
                let (a, b, w) = inst.edges()[ei];
                let v = if a == u { b } else { a };
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    parent[v] = ei;
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        Ok((dist, parent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_fault::BudgetSpec;

    fn solve_shortest_path(inst: &TJoinInstance) -> Result<TJoin, TJoinError> {
        solve_shortest_path_budgeted(inst, &mut MatchingContext::new(), &Budget::unlimited())
    }

    #[test]
    fn shared_path_edges_cancel() {
        // Star: center 0, leaves 1..=4, all leaves in T. Any pairing of
        // leaves routes through the center; shared spokes must not be
        // double-counted.
        let inst = TJoinInstance::new(
            5,
            vec![(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
            vec![false, true, true, true, true],
        )
        .unwrap();
        let j = solve_shortest_path(&inst).unwrap();
        assert_eq!(j.weight, 4); // all four spokes
        assert!(inst.is_valid_join(&j));
    }

    #[test]
    fn center_in_t_with_three_leaves_is_infeasible() {
        let inst = TJoinInstance::new(
            4,
            vec![(0, 1, 1), (0, 2, 1), (0, 3, 1)],
            vec![true, true, true, false],
        )
        .unwrap();
        // Component T count = 3: infeasible.
        assert!(solve_shortest_path(&inst).is_err());
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let inst =
            TJoinInstance::new(3, vec![(0, 1, 0), (1, 2, 0)], vec![true, false, true]).unwrap();
        let j = solve_shortest_path(&inst).unwrap();
        assert_eq!(j.weight, 0);
        assert!(inst.is_valid_join(&j));
        assert_eq!(j.edges.len(), 2);
    }

    #[test]
    fn multiple_components_solved_independently() {
        let inst = TJoinInstance::new(4, vec![(0, 1, 5), (2, 3, 7)], vec![true, true, true, true])
            .unwrap();
        let j = solve_shortest_path(&inst).unwrap();
        assert_eq!(j.weight, 12);
    }

    /// A long path with T at both ends: the Dijkstra phase pops ~n heap
    /// entries while the 2-node matching needs only a handful of dual
    /// adjustments.
    fn long_path(n: usize) -> TJoinInstance {
        let edges: Vec<(usize, usize, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let mut t = vec![false; n];
        t[0] = true;
        t[n - 1] = true;
        TJoinInstance::new(n, edges, t).unwrap()
    }

    #[test]
    fn dijkstra_phase_is_charged_to_the_budget() {
        // Regression for the unbudgeted-Dijkstra bug: with a Matching
        // work cap far above what the tiny 2-node Blossom matching
        // charges but far below the number of heap pops, the solve must
        // trip *inside the shortest-path phase*. Before the fix the first
        // charge happened only inside the matching, so this budget never
        // tripped at all.
        let inst = long_path(4096);
        let budget = BudgetSpec {
            matching_ticks: Some(64),
            ..BudgetSpec::default()
        }
        .build();
        let mut ctx = MatchingContext::new();
        let got = solve_shortest_path_budgeted(&inst, &mut ctx, &budget);
        assert!(
            matches!(got, Err(TJoinError::Budget(_))),
            "cap of 64 ticks against ~4096 heap pops must trip, got {got:?}"
        );
        // The identical instance under an unlimited budget still solves
        // exactly (the charges are bookkeeping, not behavior).
        let j = solve_shortest_path_budgeted(&inst, &mut ctx, &Budget::unlimited()).unwrap();
        assert_eq!(j.weight, 4095);
    }

    /// Injected exhaustion from the N-th charge lands inside the Dijkstra
    /// loop (pop N) — only possible now that the loop charges at all.
    /// Before the fix the matching's few dual adjustments were the only
    /// charges, the plan's occurrence index was never reached, and the
    /// solve sailed through.
    #[cfg(debug_assertions)]
    #[test]
    fn injected_exhaustion_fires_inside_the_dijkstra_phase() {
        use aapsm_fault::{with_plan, ExhaustReason, FaultPlan};
        let inst = long_path(512);
        // Uncapped but *limited* budget: injection only applies to
        // budgets built from a spec, never to `Budget::unlimited`.
        let budget = BudgetSpec::default().build();
        let mut ctx = MatchingContext::new();
        let got = with_plan(
            FaultPlan {
                exhaust_at: Some((Stage::Matching, 100)),
                ..FaultPlan::default()
            },
            || solve_shortest_path_budgeted(&inst, &mut ctx, &budget),
        );
        match got {
            Err(TJoinError::Budget(e)) => {
                assert_eq!(e.stage, Stage::Matching);
                assert_eq!(e.reason, ExhaustReason::Injected);
            }
            other => panic!("expected an injected budget trip, got {other:?}"),
        }
        // No plan, same budget: the solve completes and is exact.
        let j = solve_shortest_path_budgeted(&inst, &mut ctx, &budget).unwrap();
        assert_eq!(j.weight, 511);
        assert!(inst.is_valid_join(&j));
    }

    #[test]
    fn early_exit_matches_full_sweep_across_components() {
        // Two components of very different sizes plus unreachable
        // filler: early exit must still produce the same pairing.
        let mut edges = vec![];
        for i in 0..40usize {
            edges.push((i, i + 1, 2));
        }
        edges.push((50, 51, 3));
        let mut t = vec![false; 60];
        t[0] = true;
        t[40] = true;
        t[50] = true;
        t[51] = true;
        let inst = TJoinInstance::new(60, edges, t).unwrap();
        let j = solve_shortest_path(&inst).unwrap();
        assert_eq!(j.weight, 80 + 3);
        assert!(inst.is_valid_join(&j));
    }
}
