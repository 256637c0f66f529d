//! Connected-component decomposition of weighted set cover.
//!
//! The candidate–element incidence structure of a [`CoverInstance`] is a
//! bipartite graph; a minimum-weight cover of the whole instance is the
//! union of minimum-weight covers of its connected components, because no
//! set crosses a component boundary. [`solve_decomposed`] exploits this
//! the same way the detection side of this workspace does
//! (decompose-then-solve, see `aapsm_core::bipartize` and
//! `aapsm_graph::component_embeddings_budgeted`):
//!
//! 1. **Decompose** — union-find over the sets: every element unions the
//!    sets covering it, so a component is a maximal group of sets reachable
//!    through shared elements. Components are numbered in order of their
//!    *minimal global set index* and each carries its sets ascending; the
//!    per-component sub-instance uses dense renumbering of both sets and
//!    elements (ascending global order), so its bytes are a pure function
//!    of the input instance.
//! 2. **Solve** — each component independently: exact branch-and-bound
//!    ([`solve_exact`]) under a *per-component* node budget when the
//!    component has at most [`DecomposeOptions::max_exact_sets`] sets,
//!    greedy otherwise. Components are small in practice, so far more of
//!    the cover is *proven* optimal than a single global size threshold
//!    allows. Components are solved one after another on the calling
//!    thread (a worker pool here measured no gain on two cores), through
//!    `aapsm_geom::par_map_indexed` at one worker, so a panicking
//!    component solve is caught and retried once like every other
//!    per-item stage.
//! 3. **Merge** — local chosen sets map back through the component's dense
//!    renumbering and concatenate in component order. Every per-component
//!    solve is a pure function of its sub-instance, and the component
//!    order is fixed by the decomposition, so the merged solution is
//!    deterministic.
//!
//! Truncation-truthfulness: [`DecomposedCover::optimal`] is `true` only
//! when the instance is coverable *and every* component's search ran to
//! completion ([`ExactCover::proven`]); a single truncated or greedy
//! component makes the whole cover "not proven", never silently optimal.

use crate::branch::ExactCover;
use crate::{solve_exact, solve_greedy, CoverInstance, CoverSolution, ExactOptions};
use aapsm_fault::{Budget, FaultSite};
use aapsm_geom::par_map_indexed;
use aapsm_graph::UnionFind;

/// Tuning knobs for [`solve_decomposed`].
#[derive(Clone, Debug)]
pub struct DecomposeOptions {
    /// Branch-and-bound node budget *per component* (truncated components
    /// keep their incumbent but are not counted as proven optimal).
    pub node_limit_per_component: u64,
    /// Components with more sets than this skip the exact solver and go
    /// straight to greedy.
    pub max_exact_sets: usize,
    /// Shared work budget charged by every component's branch-and-bound
    /// ([`aapsm_fault::Stage::Cover`], one tick per search node). Tripped
    /// components keep their greedy-warm-start incumbent and are reported
    /// unproven; an unlimited budget (the default) changes nothing.
    pub budget: Budget,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions {
            node_limit_per_component: 200_000,
            max_exact_sets: 256,
            budget: Budget::unlimited(),
        }
    }
}

/// Result of [`solve_decomposed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecomposedCover {
    /// The merged global solution. Mirrors [`solve_greedy`]'s contract on
    /// uncoverable instances: elements with no covering set are skipped,
    /// all others are covered.
    pub solution: CoverSolution,
    /// Number of connected components of the candidate–element incidence
    /// (empty sets, which can never be chosen, form no component).
    pub components: usize,
    /// How many components were solved to *proven* optimality.
    pub optimal_components: usize,
    /// Whether the whole cover is provably minimum-weight: the instance is
    /// coverable and every component's exact search completed.
    pub optimal: bool,
}

/// The sets of each connected component, components ordered by minimal
/// global set index, sets ascending within each component (the ascending
/// first-seen scan below yields minimal-member ordering regardless of
/// which member the union-find picks as root). Empty sets are excluded
/// (they cover nothing and can never be chosen).
fn component_sets(inst: &CoverInstance) -> Vec<Vec<usize>> {
    let k = inst.set_count();
    let mut forest = UnionFind::new(k);
    for e in 0..inst.universe_size() {
        let sets = inst.covering_sets(e);
        for w in sets.windows(2) {
            forest.union(w[0], w[1]);
        }
    }
    let mut comp_of_root = vec![usize::MAX; k];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for s in 0..k {
        if inst.elements(s).is_empty() {
            continue;
        }
        let root = forest.find(s);
        let c = if comp_of_root[root] == usize::MAX {
            comp_of_root[root] = comps.len();
            comps.push(Vec::new());
            comp_of_root[root]
        } else {
            comp_of_root[root]
        };
        comps[c].push(s);
    }
    comps
}

/// One component's solve: dense sub-instance extraction + exact-or-greedy.
/// Returns the chosen *global* set indices and whether the component was
/// solved to proven optimality.
fn solve_component(
    inst: &CoverInstance,
    sets: &[usize],
    opts: &DecomposeOptions,
) -> (Vec<usize>, bool) {
    debug_assert!(!sets.is_empty());
    aapsm_fault::hit(FaultSite::CoverComponent);
    if sets.len() == 1 {
        // A single set covering its whole component is trivially the
        // unique minimum cover (weights are positive).
        return (vec![sets[0]], true);
    }
    // Dense element renumbering, ascending global order (sets are already
    // ascending), so the sub-instance bytes are canonical.
    let mut elems: Vec<usize> = sets
        .iter()
        .flat_map(|&s| inst.elements(s))
        .copied()
        .collect();
    elems.sort_unstable();
    elems.dedup();
    // Invariant: `elems` was built from exactly these sets' elements.
    #[allow(clippy::expect_used)]
    let local_of = |e: usize| {
        elems
            .binary_search(&e)
            .expect("element is in the component")
    };
    let sub = CoverInstance::new(
        elems.len(),
        sets.iter()
            .map(|&s| {
                (
                    inst.weight(s),
                    inst.elements(s).iter().map(|&e| local_of(e)).collect(),
                )
            })
            .collect(),
    );
    let (chosen_local, proven) = if sets.len() <= opts.max_exact_sets {
        match solve_exact(
            &sub,
            &ExactOptions {
                node_limit: opts.node_limit_per_component,
                budget: opts.budget.clone(),
            },
        ) {
            Some(ExactCover { solution, proven }) => (solution.chosen, proven),
            // Unreachable for components built from incidence (every
            // element has a covering set), but stay total.
            None => (solve_greedy(&sub).chosen, false),
        }
    } else {
        (solve_greedy(&sub).chosen, false)
    };
    (chosen_local.into_iter().map(|s| sets[s]).collect(), proven)
}

/// Solves a weighted set cover by connected-component decomposition: each
/// component of the candidate–element incidence is solved independently
/// (exact branch-and-bound under a per-component budget, greedy fallback),
/// one after another, and the per-component covers merge in component
/// order. See the module docs for the invariants.
pub fn solve_decomposed(inst: &CoverInstance, opts: &DecomposeOptions) -> DecomposedCover {
    let comps = component_sets(inst);
    // One worker: serial, with `par_map_indexed`'s per-item panic
    // isolation.
    let solved: Vec<(Vec<usize>, bool)> = par_map_indexed(
        comps.len(),
        1,
        || (),
        |(), c| solve_component(inst, &comps[c], opts),
    );
    let mut chosen = Vec::new();
    let mut optimal_components = 0usize;
    for (sets, proven) in &solved {
        chosen.extend_from_slice(sets);
        optimal_components += usize::from(*proven);
    }
    let optimal = inst.is_coverable() && optimal_components == comps.len();
    DecomposedCover {
        solution: CoverSolution::from_sets(inst, chosen),
        components: comps.len(),
        optimal_components,
        optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decomposed(inst: &CoverInstance) -> DecomposedCover {
        solve_decomposed(inst, &DecomposeOptions::default())
    }

    #[test]
    fn two_disjoint_components_solved_independently() {
        // Component {0, 1} over elements {0, 1}; component {2, 3} over
        // {2, 3}. The optimum picks the cheap set of each.
        let inst = CoverInstance::new(
            4,
            vec![
                (5, vec![0, 1]),
                (9, vec![0, 1]),
                (7, vec![2, 3]),
                (3, vec![2, 3]),
            ],
        );
        let out = decomposed(&inst);
        assert_eq!(out.components, 2);
        assert_eq!(out.optimal_components, 2);
        assert!(out.optimal);
        assert_eq!(out.solution.chosen, vec![0, 3]);
        assert_eq!(out.solution.weight, 8);
    }

    #[test]
    fn bridging_element_joins_components() {
        // Set 2 shares elements with both 0 and 1: one component.
        let inst = CoverInstance::new(3, vec![(2, vec![0]), (2, vec![2]), (3, vec![0, 1, 2])]);
        let out = decomposed(&inst);
        assert_eq!(out.components, 1);
        assert!(out.optimal);
        assert_eq!(out.solution.weight, 3);
        assert_eq!(out.solution.chosen, vec![2]);
    }

    #[test]
    fn empty_sets_form_no_component_and_are_never_chosen() {
        let inst = CoverInstance::new(1, vec![(1, vec![]), (2, vec![0])]);
        let out = decomposed(&inst);
        assert_eq!(out.components, 1);
        assert_eq!(out.solution.chosen, vec![1]);
        assert!(out.optimal);
    }

    #[test]
    fn uncoverable_instance_is_not_optimal_but_covers_the_rest() {
        // Element 1 has no covering set: greedy semantics (skip it), but
        // the cover must not claim optimality for a partial cover.
        let inst = CoverInstance::new(2, vec![(1, vec![0])]);
        let out = decomposed(&inst);
        assert_eq!(out.components, 1);
        assert!(!out.optimal);
        assert_eq!(out.solution.chosen, vec![0]);
        assert!(!out.solution.is_feasible(&inst));
    }

    #[test]
    fn truncated_component_is_not_counted_optimal() {
        // The root lower bound does not close the odd triangle (LP
        // optimum 1.5, integer optimum 2, root bound 1), so a one-node
        // budget genuinely truncates the search mid-flight.
        let inst = CoverInstance::new(3, vec![(1, vec![0, 1]), (1, vec![1, 2]), (1, vec![0, 2])]);
        let out = solve_decomposed(
            &inst,
            &DecomposeOptions {
                node_limit_per_component: 1,
                ..DecomposeOptions::default()
            },
        );
        assert_eq!(out.components, 1);
        assert_eq!(out.optimal_components, 0);
        assert!(!out.optimal);
        assert!(out.solution.is_feasible(&inst));
    }

    #[test]
    fn greedy_fallback_above_the_set_limit() {
        let inst = CoverInstance::new(2, vec![(1, vec![0]), (1, vec![1]), (5, vec![0, 1])]);
        let out = solve_decomposed(
            &inst,
            &DecomposeOptions {
                max_exact_sets: 0,
                ..DecomposeOptions::default()
            },
        );
        assert!(!out.optimal);
        assert_eq!(out.optimal_components, 0);
        assert!(out.solution.is_feasible(&inst));
    }
}
