//! Table 1 runtime columns: bipartization (dual T-join + matching) with
//! optimized vs generalized gadgets, plus the shortest-path reduction for
//! reference.

use aapsm_bench::prepare;
use aapsm_core::{detect_conflicts, DetectConfig, GadgetKind, TJoinMethod};
use aapsm_layout::synth::standard_suite;
use aapsm_layout::DesignRules;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let rules = DesignRules::default();
    let suite = standard_suite();
    let design = prepare(&suite[1], &rules); // d2
    let mut group = c.benchmark_group("table1_gadget_runtime");
    group.sample_size(10);
    for (name, method) in [
        ("o_gadget", TJoinMethod::Gadget(GadgetKind::Optimized)),
        ("g_gadget", TJoinMethod::Gadget(GadgetKind::default())),
        ("shortest_path", TJoinMethod::ShortestPath),
    ] {
        let config = DetectConfig {
            tjoin: method,
            ..DetectConfig::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| detect_conflicts(std::hint::black_box(&design.geom), &config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
