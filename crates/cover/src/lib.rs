//! Weighted set cover solvers.
//!
//! The layout-modification step of the DATE 2005 bright-field AAPSM paper
//! formulates the choice of end-to-end space-insertion grid lines as a
//! weighted set cover: the universe is the set of correctable AAPSM
//! conflicts, every candidate grid line is a set (the conflicts it can
//! correct), and a line's weight is the largest space needed by any
//! conflict intersecting it. The paper uses "a covering solver from
//! Berkeley" (espresso/mincov); this crate supplies the equivalents:
//!
//! * [`solve_greedy`] — the classic ln(n)-approximate greedy (weight per
//!   newly covered element),
//! * [`solve_exact`] — a mincov-style branch-and-bound with essential-set
//!   propagation and an LP dual-ascent lower bound, reporting truthfully
//!   whether its search completed ([`ExactCover::proven`]),
//! * [`solve_decomposed`] — the production path: connected-component
//!   decomposition of the candidate–element incidence, each component
//!   solved independently (exact under a per-component node budget, greedy
//!   fallback) on scoped worker threads with a deterministic merge that is
//!   bit-identical at every parallelism degree (see [`decompose`] module
//!   docs for the invariants).
//!
//! # Example
//!
//! ```
//! use aapsm_cover::{CoverInstance, solve_greedy};
//!
//! let inst = CoverInstance::new(3, vec![
//!     (5, vec![0, 1]),    // set 0: weight 5 covers {0, 1}
//!     (5, vec![1, 2]),    // set 1
//!     (12, vec![0, 1, 2]) // set 2: covers everything but is expensive
//! ]);
//! let sol = solve_greedy(&inst);
//! assert!(sol.is_feasible(&inst));
//! assert_eq!(sol.chosen, vec![0, 1]);
//! assert_eq!(sol.weight, 10);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod branch;
pub mod decompose;
mod greedy;
mod instance;

pub use branch::{solve_exact, ExactCover, ExactOptions};
pub use decompose::{solve_decomposed, DecomposeOptions, DecomposedCover};
pub use greedy::solve_greedy;
pub use instance::{CoverInstance, CoverSolution};

pub use aapsm_fault::{Budget, BudgetSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Exhaustive optimum for tiny instances.
    fn brute_optimum(inst: &CoverInstance) -> Option<i64> {
        let k = inst.set_count();
        assert!(k <= 20);
        let mut best: Option<i64> = None;
        'outer: for mask in 0u32..(1 << k) {
            let mut covered = vec![false; inst.universe_size()];
            let mut w = 0i64;
            for s in 0..k {
                if mask & (1 << s) != 0 {
                    w += inst.weight(s);
                    for &e in inst.elements(s) {
                        covered[e] = true;
                    }
                }
            }
            for c in covered {
                if !c {
                    continue 'outer;
                }
            }
            best = Some(best.map_or(w, |b: i64| b.min(w)));
        }
        best
    }

    fn random_instance(rng: &mut impl Rng, max_elems: usize, max_sets: usize) -> CoverInstance {
        let n = rng.gen_range(1..=max_elems);
        let k = rng.gen_range(1..=max_sets);
        let mut sets = Vec::new();
        for _ in 0..k {
            let size = rng.gen_range(1..=n);
            let mut elems: Vec<usize> = (0..n).collect();
            // Random subset of `size` elements.
            for i in 0..size {
                let j = rng.gen_range(i..n);
                elems.swap(i, j);
            }
            elems.truncate(size);
            sets.push((rng.gen_range(1..50), elems));
        }
        CoverInstance::new(n, sets)
    }

    #[test]
    fn exact_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..150 {
            let inst = random_instance(&mut rng, 10, 8);
            let brute = brute_optimum(&inst);
            let exact = solve_exact(&inst, &ExactOptions::default());
            match (brute, exact) {
                (None, None) => {}
                (Some(b), Some(out)) => {
                    assert!(out.proven, "trial {trial}");
                    assert!(out.solution.is_feasible(&inst), "trial {trial}");
                    assert_eq!(out.solution.weight, b, "trial {trial}");
                }
                (b, e) => panic!(
                    "trial {trial}: feasibility disagrees {b:?} vs {}",
                    e.is_some()
                ),
            }
        }
    }

    #[test]
    fn greedy_is_feasible_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..150 {
            let inst = random_instance(&mut rng, 12, 10);
            if brute_optimum(&inst).is_none() {
                continue;
            }
            let sol = solve_greedy(&inst);
            assert!(sol.is_feasible(&inst));
            let opt = brute_optimum(&inst).unwrap();
            assert!(sol.weight >= opt);
            // ln(12) < 2.5; greedy is within the classical H_n bound.
            assert!(sol.weight <= opt * 4, "greedy too far from optimum");
        }
    }

    #[test]
    fn decomposed_matches_monolithic_exact_on_random_instances() {
        // The cross-validation oracle: per-component solve + merge must
        // reach the same optimum weight as the monolithic branch-and-bound
        // (and the brute-force subset enumeration) on every coverable
        // instance; both feasible.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for trial in 0..150 {
            let inst = random_instance(&mut rng, 10, 8);
            let out = solve_decomposed(&inst, &DecomposeOptions::default());
            match brute_optimum(&inst) {
                Some(b) if inst.is_coverable() => {
                    assert!(out.optimal, "trial {trial}");
                    assert_eq!(out.optimal_components, out.components, "trial {trial}");
                    assert!(out.solution.is_feasible(&inst), "trial {trial}");
                    assert_eq!(out.solution.weight, b, "trial {trial}");
                    let mono = solve_exact(&inst, &ExactOptions::default()).expect("coverable");
                    assert_eq!(out.solution.weight, mono.solution.weight, "trial {trial}");
                }
                _ => assert!(!out.optimal, "trial {trial}"),
            }
        }
    }

    #[test]
    fn root_lp_bound_never_exceeds_the_optimum() {
        // The dual-ascent bound must be dual-feasible: at the root (nothing
        // covered, nothing banned) it never exceeds the integer optimum,
        // and the search it prunes still reaches that optimum.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut checked = 0;
        for trial in 0..2000 {
            let inst = random_instance(&mut rng, 12, 10);
            let Some(opt) = brute_optimum(&inst) else {
                continue;
            };
            let order = branch::dual_order(&inst);
            let mut slack = vec![0; inst.set_count()];
            let bound = branch::lp_bound(
                &inst,
                &order,
                &vec![false; inst.universe_size()],
                &vec![false; inst.set_count()],
                &mut slack,
            );
            assert!(bound <= opt, "trial {trial}: bound {bound} > optimum {opt}");
            let exact = solve_exact(&inst, &ExactOptions::default()).expect("coverable");
            assert!(exact.proven, "trial {trial}");
            assert_eq!(exact.solution.weight, opt, "trial {trial}");
            checked += 1;
            if checked == 300 {
                return;
            }
        }
        panic!("only {checked} coverable instances drawn");
    }

    #[test]
    fn exact_reports_truncated_searches_as_unproven() {
        // Regression for the cover-optimality lie: an incumbent of a
        // truncated search must never be reported as optimal. With the
        // one-node budget the search truncates immediately, so the
        // incumbent (the greedy warm start) must be reported as
        // *unproven*. The odd triangle is chosen so the root lower bound
        // cannot close the search: LP optimum 1.5, integer optimum 2,
        // root bound 1.
        let triangle =
            CoverInstance::new(3, vec![(1, vec![0, 1]), (1, vec![1, 2]), (1, vec![0, 2])]);
        let one_node = ExactOptions {
            node_limit: 1,
            ..ExactOptions::default()
        };
        let out = solve_exact(&triangle, &one_node).unwrap();
        assert!(!out.proven);
        assert!(out.solution.is_feasible(&triangle));
        // Same instance with the default (generous) budget: proven; the
        // lie is only possible when truncation occurs.
        let full = solve_exact(&triangle, &ExactOptions::default()).unwrap();
        assert!(full.proven);
        assert_eq!(full.solution.weight, 2);
        // The big set here hides behind the per-element minima of an
        // independent-element bound, but the LP bound closes the instance
        // at the root: one node is a proof.
        let hidden = CoverInstance::new(
            4,
            vec![(5, vec![0, 1, 2, 3]), (2, vec![0, 1]), (2, vec![2, 3])],
        );
        let out = solve_exact(&hidden, &one_node).unwrap();
        assert!(out.proven);
        assert_eq!(out.solution.weight, 4);
    }
}
