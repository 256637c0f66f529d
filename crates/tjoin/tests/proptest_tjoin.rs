//! Property-based cross-validation of every T-join engine.

use aapsm_tjoin::{
    brute, solve_budgeted, Budget, GadgetKind, MatchingContext, TJoin, TJoinError, TJoinInstance,
    TJoinMethod,
};
use proptest::prelude::*;

fn solve(inst: &TJoinInstance, method: TJoinMethod) -> Result<TJoin, TJoinError> {
    solve_budgeted(
        inst,
        method,
        &mut MatchingContext::new(),
        &Budget::unlimited(),
    )
}

fn instance() -> impl Strategy<Value = TJoinInstance> {
    (2usize..8).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n, 0i64..40), 1..12),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_filter_map("needs >= 1 clean edge", move |(raw, t)| {
                let edges: Vec<_> = raw.into_iter().filter(|&(u, v, _)| u != v).collect();
                if edges.is_empty() {
                    return None;
                }
                TJoinInstance::new(n, edges, t).ok()
            })
    })
}

fn methods() -> Vec<TJoinMethod> {
    vec![
        TJoinMethod::Gadget(GadgetKind::Complete),
        TJoinMethod::Gadget(GadgetKind::Optimized),
        TJoinMethod::Gadget(GadgetKind::Generalized { max_group: 1 }),
        TJoinMethod::Gadget(GadgetKind::Generalized { max_group: 4 }),
        TJoinMethod::ShortestPath,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All engines agree with brute force on feasibility, weight and join
    /// validity.
    #[test]
    fn engines_match_brute_force(inst in instance()) {
        let reference = brute::solve_brute(&inst);
        for m in methods() {
            match (&reference, solve(&inst, m)) {
                (None, Err(_)) => {}
                (Some(b), Ok(j)) => {
                    prop_assert!(inst.is_valid_join(&j), "{m:?}");
                    prop_assert_eq!(j.weight, b.weight, "{:?}", m);
                }
                (b, g) => {
                    return Err(TestCaseError::fail(format!(
                        "{m:?}: feasibility disagrees: brute={} got={}",
                        b.is_some(),
                        g.is_ok()
                    )))
                }
            }
        }
    }

    /// Adding a disconnected component with an even T-set never changes
    /// feasibility of the original part.
    #[test]
    fn feasibility_is_componentwise(inst in instance()) {
        let n = inst.node_count();
        let mut edges = inst.edges().to_vec();
        edges.push((n, n + 1, 7));
        let mut t = inst.t_set().to_vec();
        t.extend([true, true]);
        let bigger = TJoinInstance::new(n + 2, edges, t).unwrap();
        prop_assert_eq!(
            inst.check_feasible().is_ok(),
            bigger.check_feasible().is_ok()
        );
    }

    /// The empty T-set always has the empty optimal join.
    #[test]
    fn empty_t_is_trivial(inst in instance()) {
        let empty_t = TJoinInstance::new(
            inst.node_count(),
            inst.edges().to_vec(),
            vec![false; inst.node_count()],
        )
        .unwrap();
        for m in methods() {
            let j = solve(&empty_t, m).unwrap();
            prop_assert_eq!(j.weight, 0);
            prop_assert!(j.edges.is_empty());
        }
    }
}
