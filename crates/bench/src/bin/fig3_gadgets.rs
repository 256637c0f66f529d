//! Regenerates the Figure 3 / Figure 4 content: sizes of the gadget
//! matching instances per node degree, for the complete, optimized (≤3)
//! and generalized gadget constructions.
//!
//! Usage: `cargo run -p aapsm-bench --bin fig3_gadgets --release`

use aapsm_tjoin::{solve_gadget_budgeted, Budget, GadgetKind, MatchingContext, TJoinInstance};

/// A star instance with the given hub degree (plus parity-consistent T).
fn star(degree: usize) -> TJoinInstance {
    let mut edges = Vec::new();
    let mut t = vec![false];
    for l in 0..degree {
        edges.push((0, l + 1, 1 + l as i64));
        t.push(true);
    }
    if degree % 2 == 1 {
        t[1] = false;
    }
    TJoinInstance::new(degree + 1, edges, t).expect("valid star instance")
}

fn main() {
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "degree", "compl n", "compl e", "opt n", "opt e", "gen8 n", "gen8 e"
    );
    println!("{}", "-".repeat(78));
    for degree in [3usize, 5, 8, 12, 16, 24, 32] {
        let inst = star(degree);
        let kinds = [
            GadgetKind::Complete,
            GadgetKind::Optimized,
            GadgetKind::Generalized { max_group: 8 },
        ];
        let (mut ctx, unlimited) = (MatchingContext::new(), Budget::unlimited());
        let stats: Vec<_> = kinds
            .iter()
            .map(|&k| {
                solve_gadget_budgeted(&inst, k, &mut ctx, &unlimited)
                    .expect("feasible")
                    .1
            })
            .collect();
        println!(
            "{:>6} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
            degree,
            stats[0].matching_nodes,
            stats[0].matching_edges,
            stats[1].matching_nodes,
            stats[1].matching_edges,
            stats[2].matching_nodes,
            stats[2].matching_edges,
        );
    }
    println!(
        "\ncomplete gadgets grow O(d^2) edges; optimized (<=3) adds many divide junctions;\n\
         generalized (the paper, Fig. 4) balances both — fewest nodes at bounded edges."
    );
}
