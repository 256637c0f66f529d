//! Property-based tests of the set-cover solvers.

use aapsm_cover::{
    solve_decomposed, solve_exact, solve_greedy, CoverInstance, DecomposeOptions, ExactOptions,
};
use proptest::prelude::*;

fn instance() -> impl Strategy<Value = CoverInstance> {
    (1usize..10).prop_flat_map(|n| {
        proptest::collection::vec((1i64..50, proptest::collection::vec(0..n, 1..=n)), 1..9)
            .prop_map(move |sets| CoverInstance::new(n, sets))
    })
}

/// A wider instance shape that actually decomposes: elements are spread
/// over disjoint blocks, so the incidence splits into several components.
fn blocky_instance() -> impl Strategy<Value = CoverInstance> {
    (2usize..5, 1usize..4).prop_flat_map(|(blocks, block_elems)| {
        let n = blocks * block_elems;
        proptest::collection::vec(
            (
                1i64..50,
                0..blocks,
                proptest::collection::vec(0..block_elems, 1..=block_elems),
            ),
            1..12,
        )
        .prop_map(move |sets| {
            CoverInstance::new(
                n,
                sets.into_iter()
                    .map(|(w, b, elems)| {
                        (w, elems.into_iter().map(|e| b * block_elems + e).collect())
                    })
                    .collect(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact never exceeds greedy; both feasible when the instance is
    /// coverable; a default-budget search on these tiny instances always
    /// completes (proven).
    #[test]
    fn exact_at_most_greedy(inst in instance()) {
        let greedy = solve_greedy(&inst);
        match solve_exact(&inst, &ExactOptions::default()) {
            Some(out) => {
                prop_assert!(inst.is_coverable());
                prop_assert!(out.proven);
                prop_assert!(out.solution.is_feasible(&inst));
                prop_assert!(greedy.is_feasible(&inst));
                prop_assert!(out.solution.weight <= greedy.weight);
            }
            None => prop_assert!(!inst.is_coverable()),
        }
    }

    /// Adding a set never worsens the exact optimum.
    #[test]
    fn monotone_in_sets(inst in instance(), w in 1i64..50) {
        let Some(base) = solve_exact(&inst, &ExactOptions::default()) else {
            return Ok(());
        };
        let mut sets: Vec<(i64, Vec<usize>)> = (0..inst.set_count())
            .map(|s| (inst.weight(s), inst.elements(s).to_vec()))
            .collect();
        sets.push((w, (0..inst.universe_size()).collect()));
        let bigger = CoverInstance::new(inst.universe_size(), sets);
        let better = solve_exact(&bigger, &ExactOptions::default()).unwrap();
        prop_assert!(better.solution.weight <= base.solution.weight.min(w));
    }

    /// Doubling every weight doubles the exact optimum.
    #[test]
    fn weight_scaling(inst in instance()) {
        let Some(base) = solve_exact(&inst, &ExactOptions::default()) else {
            return Ok(());
        };
        let sets: Vec<(i64, Vec<usize>)> = (0..inst.set_count())
            .map(|s| (inst.weight(s) * 2, inst.elements(s).to_vec()))
            .collect();
        let doubled = CoverInstance::new(inst.universe_size(), sets);
        let solved = solve_exact(&doubled, &ExactOptions::default()).unwrap();
        prop_assert_eq!(solved.solution.weight, base.solution.weight * 2);
    }

    /// The component-decomposed cover equals the monolithic exact optimum
    /// on coverable instances (the decompose-then-solve oracle).
    #[test]
    fn decomposed_matches_monolithic_and_parallelism(inst in blocky_instance()) {
        let base = solve_decomposed(&inst, &DecomposeOptions::default());
        match solve_exact(&inst, &ExactOptions::default()) {
            Some(mono) => {
                prop_assert!(inst.is_coverable());
                prop_assert!(base.optimal);
                prop_assert_eq!(base.optimal_components, base.components);
                prop_assert!(base.solution.is_feasible(&inst));
                prop_assert_eq!(base.solution.weight, mono.solution.weight);
            }
            None => prop_assert!(!base.optimal),
        }
    }

    /// A starved per-component node budget still returns a feasible cover
    /// but never claims optimality (truncation truth-telling).
    #[test]
    fn starved_budget_is_feasible_but_unproven(inst in blocky_instance()) {
        let out = solve_decomposed(&inst, &DecomposeOptions {
            node_limit_per_component: 1,
            ..DecomposeOptions::default()
        });
        let full = solve_decomposed(&inst, &DecomposeOptions::default());
        prop_assert!(full.solution.weight <= out.solution.weight);
        if inst.is_coverable() {
            prop_assert!(out.solution.is_feasible(&inst));
            // Multi-set components truncate at one node; only single-set
            // components stay proven, so "all proven" implies the covers
            // agree anyway.
            if out.optimal {
                prop_assert_eq!(&out.solution, &full.solution);
            }
        } else {
            prop_assert!(!out.optimal);
        }
    }
}
