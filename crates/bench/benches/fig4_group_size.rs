//! Figure 4 ablation: generalized-gadget group size sweep. Larger complete
//! groups mean fewer divide junctions (fewer matching nodes) but
//! quadratically more intra-group edges; the sweep locates the balance the
//! paper exploits for its ~16% matching-runtime gain.

use aapsm_tjoin::{solve_gadget_budgeted, Budget, GadgetKind, MatchingContext, TJoinInstance};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn random_instance(seed: u64) -> TJoinInstance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = 60;
    let mut edges = Vec::new();
    for _ in 0..220 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v, rng.gen_range(1..100) as i64));
        }
    }
    // Even T per component: mark pairs of nodes.
    let mut t = vec![false; n];
    for ti in t.iter_mut().take(20) {
        *ti = true;
    }
    TJoinInstance::new(n, edges, t).expect("valid instance")
}

fn bench(c: &mut Criterion) {
    let inst = random_instance(9);
    let mut group = c.benchmark_group("fig4_group_size");
    group.sample_size(10);
    let mut ctx = MatchingContext::new();
    let mut solve = |kind| {
        solve_gadget_budgeted(
            std::hint::black_box(&inst),
            kind,
            &mut ctx,
            &Budget::unlimited(),
        )
        .expect("feasible")
    };
    for max_group in [2usize, 3, 4, 6, 8, 12, 16] {
        group.bench_function(format!("group_{max_group}"), |b| {
            b.iter(|| solve(GadgetKind::Generalized { max_group }))
        });
    }
    group.bench_function("complete", |b| b.iter(|| solve(GadgetKind::Complete)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
