//! Ablation benches for two design choices: planarization edge ordering
//! and greedy vs exact covering.

use aapsm_bench::prepare;
use aapsm_core::{
    build_phase_conflict_graph, detect_conflicts, plan_correction, CorrectionOptions, DetectConfig,
    PlanarizeOrder,
};
use aapsm_graph::planarize;
use aapsm_layout::synth::{modification_suite, standard_suite};
use aapsm_layout::DesignRules;
use criterion::{criterion_group, criterion_main, Criterion};

fn planarize_orders(c: &mut Criterion) {
    let rules = DesignRules::default();
    let p = prepare(&standard_suite()[1], &rules);
    let mut group = c.benchmark_group("ablation_planarize");
    group.sample_size(10);
    for (tag, order) in [
        ("min_weight", PlanarizeOrder::MinWeightFirst),
        ("most_crossings", PlanarizeOrder::MostCrossingsFirst),
        ("weight_per_crossing", PlanarizeOrder::MinWeightPerCrossing),
    ] {
        group.bench_function(tag, |b| {
            b.iter(|| {
                let mut cg = build_phase_conflict_graph(std::hint::black_box(&p.geom));
                planarize(&mut cg.graph, order, 1).removed.len()
            })
        });
    }
    group.finish();
}

fn cover_solvers(c: &mut Criterion) {
    let rules = DesignRules::default();
    let p = prepare(&modification_suite()[0], &rules);
    let report = detect_conflicts(&p.geom, &DetectConfig::default());
    let mut group = c.benchmark_group("ablation_cover");
    group.sample_size(10);
    for (tag, limit) in [("greedy_only", 0usize), ("exact_when_small", 64)] {
        group.bench_function(tag, |b| {
            b.iter(|| {
                plan_correction(
                    std::hint::black_box(&p.geom),
                    &report.conflicts,
                    &rules,
                    &CorrectionOptions {
                        exact_cover_limit: limit,
                        ..CorrectionOptions::default()
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, planarize_orders, cover_solvers);
criterion_main!(benches);
