use crate::{solve_greedy, CoverInstance, CoverSolution};
use aapsm_fault::{Budget, Stage};

/// Outcome of the exact branch-and-bound solver.
///
/// `proven` tells the truth about optimality: it is `true` only when the
/// search ran to completion. When the node budget truncates the search the
/// incumbent is still returned (it is never worse than the greedy warm
/// start), but `proven` is `false` — callers deciding whether a cover is
/// "provably optimal" must consult it instead of treating `Some` as proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactCover {
    /// The best cover found.
    pub solution: CoverSolution,
    /// Whether the search completed, proving `solution` optimal.
    pub proven: bool,
}

/// Tuning knobs for the exact branch-and-bound solver.
#[derive(Clone, Debug)]
pub struct ExactOptions {
    /// Give up after this many search nodes: the incumbent is returned
    /// with [`ExactCover::proven`] `== false`. With the LP dual-ascent
    /// bound, the correction planner's per-component grid-line instances
    /// (at most 256 sets each) close within a few hundred nodes, so the
    /// limit only stops instances whose LP gap the bound cannot close.
    pub node_limit: u64,
    /// Work budget: every search node charges one [`Stage::Cover`] tick.
    /// A budget trip truncates the search exactly like the node limit —
    /// the incumbent is returned with [`ExactCover::proven`] `== false`,
    /// never a silent claim of optimality.
    pub budget: Budget,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            node_limit: 2_000_000,
            budget: Budget::unlimited(),
        }
    }
}

struct Search<'a> {
    inst: &'a CoverInstance,
    best: Option<Vec<usize>>,
    best_weight: i64,
    nodes: u64,
    node_limit: u64,
    budget: &'a Budget,
    truncated: bool,
    /// The element order of [`lp_bound`].
    order: Vec<usize>,
    /// [`lp_bound`]'s per-set slack, reused at every node.
    slack: Vec<i64>,
}

/// The element order [`lp_bound`] walks: fewest covering sets first, ties
/// by index. Computed once per [`solve_exact`].
pub(crate) fn dual_order(inst: &CoverInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..inst.universe_size()).collect();
    order.sort_by_key(|&e| inst.covering_sets(e).len());
    order
}

/// LP dual-ascent lower bound on the weight needed to cover the
/// uncovered elements with unbanned sets.
///
/// Walks the uncovered elements in `order`, raises each element's dual
/// `u_e` to the smallest remaining slack among its unbanned covering sets
/// and subtracts `u_e` from each of those sets. `u` stays feasible for the
/// dual of the remaining cover's LP relaxation, so `Σ u_e` bounds every
/// cover of it. `slack` is per-set scratch (`set_count` long), overwritten.
pub(crate) fn lp_bound(
    inst: &CoverInstance,
    order: &[usize],
    covered: &[bool],
    banned: &[bool],
    slack: &mut [i64],
) -> i64 {
    for (s, slot) in slack.iter_mut().enumerate() {
        *slot = inst.weight(s);
    }
    let mut bound = 0i64;
    for &e in order {
        if covered[e] {
            continue;
        }
        let sets = inst.covering_sets(e);
        let Some(u) = sets
            .iter()
            .filter(|&&s| !banned[s])
            .map(|&s| slack[s])
            .min()
        else {
            continue;
        };
        for &s in sets {
            if !banned[s] {
                slack[s] -= u;
            }
        }
        bound += u;
    }
    bound
}

impl Search<'_> {
    fn dfs(
        &mut self,
        covered: &mut [bool],
        banned: &mut [bool],
        chosen: &mut Vec<usize>,
        weight: i64,
    ) {
        self.nodes += 1;
        if self.nodes > self.node_limit || self.budget.charge(Stage::Cover, 1).is_err() {
            self.truncated = true;
            return;
        }
        if weight >= self.best_weight {
            return;
        }
        // Find the uncovered element with the fewest available covering
        // sets (fail-first).
        let mut pivot: Option<(usize, usize)> = None;
        for (e, &cov) in covered.iter().enumerate() {
            if cov {
                continue;
            }
            let avail = self
                .inst
                .covering_sets(e)
                .iter()
                .filter(|&&s| !banned[s])
                .count();
            if avail == 0 {
                return; // infeasible branch
            }
            if pivot.is_none_or(|(_, a)| avail < a) {
                pivot = Some((e, avail));
                if avail == 1 {
                    break;
                }
            }
        }
        let Some((pivot_elem, _)) = pivot else {
            // Everything covered: record incumbent.
            self.best_weight = weight;
            self.best = Some(chosen.clone());
            return;
        };
        let bound = lp_bound(self.inst, &self.order, covered, banned, &mut self.slack);
        if weight + bound >= self.best_weight {
            return;
        }
        // Branch on the sets covering the pivot element, cheapest first.
        let mut candidates: Vec<usize> = self
            .inst
            .covering_sets(pivot_elem)
            .iter()
            .copied()
            .filter(|&s| !banned[s])
            .collect();
        candidates.sort_by_key(|&s| (self.inst.weight(s), s));
        let mut newly_banned = Vec::new();
        for &s in &candidates {
            // Include s.
            let newly_covered: Vec<usize> = self
                .inst
                .elements(s)
                .iter()
                .copied()
                .filter(|&e| !covered[e])
                .collect();
            for &e in &newly_covered {
                covered[e] = true;
            }
            chosen.push(s);
            self.dfs(covered, banned, chosen, weight + self.inst.weight(s));
            chosen.pop();
            for &e in &newly_covered {
                covered[e] = false;
            }
            if self.truncated {
                break;
            }
            // Exclude s in all later branches (standard pivot branching).
            banned[s] = true;
            newly_banned.push(s);
        }
        for s in newly_banned {
            banned[s] = false;
        }
    }
}

/// Exact minimum-weight set cover by branch-and-bound (mincov-style:
/// fail-first pivot selection, essential sets implicit via unit pivots, an
/// LP dual-ascent lower bound, greedy incumbent warm start).
///
/// Returns `None` when the instance is not coverable. Otherwise the
/// incumbent is always feasible (the greedy warm start guarantees one) and
/// [`ExactCover::proven`] records whether the search completed inside the
/// node budget — a truncated search returns its (possibly suboptimal)
/// incumbent with `proven == false` rather than silently posing as exact.
pub fn solve_exact(inst: &CoverInstance, options: &ExactOptions) -> Option<ExactCover> {
    if !inst.is_coverable() {
        return None;
    }
    let warm = solve_greedy(inst);
    let mut search = Search {
        inst,
        best_weight: warm.weight,
        best: Some(warm.chosen),
        nodes: 0,
        node_limit: options.node_limit,
        budget: &options.budget,
        truncated: false,
        order: dual_order(inst),
        slack: vec![0; inst.set_count()],
    };
    let mut covered = vec![false; inst.universe_size()];
    let mut banned = vec![false; inst.set_count()];
    let mut chosen = Vec::new();
    search.dfs(&mut covered, &mut banned, &mut chosen, 0);
    let truncated = search.truncated;
    search.best.map(|chosen| ExactCover {
        solution: CoverSolution::from_sets(inst, chosen),
        proven: !truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beats_greedy_on_the_disjoint_pair_trap() {
        // Greedy would take the ratio-attractive big set when it is
        // slightly cheaper per element; exact must find the disjoint pair.
        let inst = CoverInstance::new(
            4,
            vec![
                (5, vec![0, 1, 2, 3]), // ratio 1.25
                (2, vec![0, 1]),       // ratio 1.0
                (2, vec![2, 3]),       // ratio 1.0
            ],
        );
        let out = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(out.proven);
        assert_eq!(out.solution.weight, 4);
        assert_eq!(out.solution.chosen, vec![1, 2]);
    }

    #[test]
    fn uncoverable_returns_none() {
        let inst = CoverInstance::new(2, vec![(1, vec![0])]);
        assert!(solve_exact(&inst, &ExactOptions::default()).is_none());
    }

    #[test]
    fn essential_sets_are_forced() {
        let inst = CoverInstance::new(
            3,
            vec![(100, vec![0]), (1, vec![1, 2])], // set 0 essential
        );
        let out = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(out.proven);
        assert_eq!(out.solution.chosen, vec![0, 1]);
        assert_eq!(out.solution.weight, 101);
    }

    #[test]
    fn node_limit_still_returns_feasible_but_unproven() {
        // The odd triangle has a real integrality gap: LP optimum 1.5,
        // integer optimum 2, root dual-ascent bound 1. The root bound
        // cannot close it, so a one-node limit truncates the search.
        let inst = CoverInstance::new(3, vec![(1, vec![0, 1]), (1, vec![1, 2]), (1, vec![0, 2])]);
        let out = solve_exact(
            &inst,
            &ExactOptions {
                node_limit: 1,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        assert!(out.solution.is_feasible(&inst));
        assert!(
            !out.proven,
            "a truncated search must not claim proven optimality"
        );
        // A generous budget proves the same instance.
        let full = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(full.proven);
        assert!(full.solution.weight <= out.solution.weight);
        assert_eq!(full.solution.weight, 2);
    }

    #[test]
    fn work_budget_trip_truncates_truthfully() {
        // The odd triangle: its root bound (1) cannot close the search
        // against the greedy incumbent (2), so the one-tick budget trips.
        let inst = CoverInstance::new(3, vec![(1, vec![0, 1]), (1, vec![1, 2]), (1, vec![0, 2])]);
        let budget = aapsm_fault::BudgetSpec {
            cover_ticks: Some(1),
            ..aapsm_fault::BudgetSpec::default()
        }
        .build();
        let out = solve_exact(
            &inst,
            &ExactOptions {
                budget,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        assert!(out.solution.is_feasible(&inst));
        assert!(!out.proven, "a budget-tripped search must not claim proof");
    }
}
