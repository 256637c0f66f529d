//! The metric catalog: every metric the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` names the same metrics; the tests check that the two
//! agree and that a run emits every one of them.

/// End-to-end metrics, emitted by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("conflicts", "count"),
    ("verified_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by every traced run of every workload (a
/// layer the workload does not reach reads 0). Times are self times per
/// operation; counts are per operation.
pub const PER_LAYER: &[(&str, &str)] = &[
    // gds
    ("gds.read_ms", "ms"),
    ("gds.write_ms", "ms"),
    ("gds.bytes_in", "bytes"),
    // layout
    ("layout.sanitize_ms", "ms"),
    ("layout.extract_ms", "ms"),
    ("layout.shifters", "count"),
    ("layout.overlaps", "count"),
    ("layout.apply_cuts_ms", "ms"),
    ("layout.check_assignable_ms", "ms"),
    ("layout.flatten_ms", "ms"),
    // core graph build + graph
    ("core.build_ms", "ms"),
    ("core.graph_nodes", "count"),
    ("core.graph_edges", "count"),
    ("graph.crossings_ms", "ms"),
    ("graph.crossings", "count"),
    ("graph.planarize_ms", "ms"),
    ("graph.planarize_removed", "count"),
    ("graph.face_dual_ms", "ms"),
    // core bipartize + tjoin/matching
    ("core.bipartize_ms", "ms"),
    ("tjoin.closure_picks", "count"),
    ("tjoin.gadget_picks", "count"),
    ("core.bipartize_conflicts", "count"),
    ("core.recheck_ms", "ms"),
    ("core.recheck_conflicts", "count"),
    // fault work ticks
    ("fault.graph_build_ticks", "ticks"),
    ("fault.embed_ticks", "ticks"),
    ("fault.matching_ticks", "ticks"),
    ("fault.cover_ticks", "ticks"),
    // core correct + cover
    ("core.plan_ms", "ms"),
    ("cover.components", "count"),
    ("cover.proven_components", "count"),
    ("cover.proven_share", "share"),
    ("cover.grid_lines", "count"),
    ("cover.plan_weight", "dbu"),
    ("cover.area_increase_pct", "%"),
    // core redetect + layout::incremental
    ("core.redetect_ms", "ms"),
    ("redetect.incremental_share", "share"),
    ("redetect.extraction_fallbacks", "count"),
    ("redetect.reused_overlaps", "count"),
    ("redetect.rescanned_pairs", "count"),
    ("redetect.tiles_reused", "count"),
    ("redetect.tiles_rebuilt", "count"),
    ("redetect.solve_hit_share", "share"),
    // core::hier
    ("hier.detect_ms", "ms"),
    ("hier.prime_ms", "ms"),
    ("hier.cells_detected", "count"),
    ("hier.instances_reused", "count"),
    ("hier.solve_misses", "count"),
    // service
    ("service.detect_p50_ms", "ms"),
    ("service.detect_p90_ms", "ms"),
    ("service.apply_p50_ms", "ms"),
    ("service.apply_p90_ms", "ms"),
    ("service.requests_per_s", "1/s"),
    ("service.submit_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.queue_depth", "count"),
    ("service.attempts", "count"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("service.degraded", "count"),
    ("cache.hit_share", "share"),
    ("cache.evictions", "count"),
    // the trace itself
    ("unattributed_ms", "ms"),
    ("tracing_overhead_ms", "ms"),
];

/// The unit of a catalog metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
