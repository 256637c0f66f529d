//! Property-based cross-validation of the Blossom solver against the
//! exhaustive reference.

use aapsm_fault::BudgetSpec;
use aapsm_matching::{
    exhaustive, max_weight_matching, min_weight_perfect_matching, Budget, MatchingContext, Stage,
};
use proptest::prelude::*;

fn edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (2..=max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1i64..1000);
        (Just(n), proptest::collection::vec(edge, 0..20)).prop_map(|(n, raw)| {
            let clean: Vec<_> = raw.into_iter().filter(|&(u, v, _)| u != v).collect();
            (n, clean)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blossom minimum-weight perfect matching matches brute force in both
    /// existence and weight.
    #[test]
    fn min_perfect_matches_brute((n, es) in edges(10)) {
        let fast = min_weight_perfect_matching(n, &es);
        let brute = exhaustive::min_weight_perfect_matching(n, &es);
        prop_assert_eq!(fast.as_ref().map(|m| m.weight), brute.as_ref().map(|m| m.weight));
        if let Some(m) = fast {
            prop_assert!(m.is_perfect());
            // Mate array is involutive.
            for (u, mate) in m.mate.iter().enumerate() {
                let v = mate.unwrap();
                prop_assert_eq!(m.mate[v], Some(u));
            }
        }
    }

    /// Blossom maximum-weight matching weight matches brute force.
    #[test]
    fn max_weight_matches_brute((n, es) in edges(9)) {
        let fast = max_weight_matching(n, &es);
        let brute = exhaustive::max_weight_matching(n, &es);
        prop_assert_eq!(fast.weight, brute);
        // Every matched pair is a real edge.
        for (u, v) in fast.pairs() {
            prop_assert!(es.iter().any(|&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u)));
        }
    }

    /// Scaling all weights by a positive constant scales the optimum.
    #[test]
    fn weight_scaling((n, es) in edges(8), k in 1i64..5) {
        let scaled: Vec<_> = es.iter().map(|&(u, v, w)| (u, v, w * k)).collect();
        let a = min_weight_perfect_matching(n, &es);
        let b = min_weight_perfect_matching(n, &scaled);
        prop_assert_eq!(a.map(|m| m.weight * k), b.map(|m| m.weight));
    }

    /// A context solve under a matching tick cap is either refused at
    /// `Stage::Matching` or exact, and a refused solve leaves the arena
    /// ready for the next instance.
    #[test]
    fn budgeted_solve_is_exact_or_refused(
        (n, es) in edges(10),
        cap in 0u64..8,
        (next_n, next_es) in edges(10),
    ) {
        let mut ctx = MatchingContext::new();
        let budget = BudgetSpec { matching_ticks: Some(cap), ..BudgetSpec::default() }.build();
        match ctx.try_min_weight_perfect_matching(n, &es, &budget) {
            Err(e) => prop_assert_eq!(e.stage, Stage::Matching),
            Ok(m) => {
                let brute = exhaustive::min_weight_perfect_matching(n, &es);
                prop_assert_eq!(m.as_ref().map(|m| m.weight), brute.map(|m| m.weight));
                prop_assert!(m.is_none_or(|m| m.is_perfect()));
            }
        }
        // Refused or not, the same context solves the next instance exactly.
        let next = ctx
            .try_min_weight_perfect_matching(next_n, &next_es, &Budget::unlimited())
            .unwrap();
        let brute = exhaustive::min_weight_perfect_matching(next_n, &next_es);
        prop_assert_eq!(next.as_ref().map(|m| m.weight), brute.map(|m| m.weight));
        prop_assert!(next.is_none_or(|m| m.is_perfect()));
    }
}
