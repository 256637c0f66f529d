//! Bright-field AAPSM conflict detection and correction.
//!
//! This crate is the primary contribution of the DATE 2005 paper by
//! Chiang, Kahng, Sinha, Xu and Zelikovsky, rebuilt end to end:
//!
//! 1. **Phase conflict graph** ([`build_phase_conflict_graph`]): one edge
//!    shifter node per shifter, an overlap node on the straight segment
//!    between merged shifters, and one direct edge per critical feature.
//!    Bipartite ⇔ phase-assignable (Theorem 1). The prior-art **feature
//!    graph** ([`build_feature_graph`]) is provided as the FG baseline.
//!    [`detect_conflicts`] applies the theorem directly: a graph that is
//!    already bipartite stops after one parity pass
//!    ([`DetectStats::bipartite`]), since steps 2–4 would select nothing.
//! 2. **Planarization** ([`aapsm_graph::planarize`]): greedy removal of
//!    minimum-weight crossing edges; removed edges form the potential
//!    conflict set *P*.
//! 3. **Optimal bipartization** ([`bipartize`]): per component, trace the
//!    faces of the plane drawing, build the geometric dual, solve the
//!    minimum-weight T-join with T = odd faces by [`aapsm_tjoin`]'s
//!    metric closure (the paper's gadget reductions are explicit
//!    [`TJoinMethod`]s).
//! 4. **Final conflict set** ([`detect_conflicts`]): the paper's Step 3 —
//!    re-check the planarization victims against the bipartization
//!    coloring; only those that would close odd cycles become conflicts.
//! 5. **Layout modification** ([`plan_correction`], [`apply_correction`]):
//!    correction intervals (Euclidean-minimal, direction-aware cut
//!    widths), legal grid lines, a weighted set cover solved serially per
//!    connected component ([`aapsm_cover::solve_decomposed`] — exact
//!    branch-and-bound under a per-component budget, with truthful
//!    optimality reporting), and end-to-end space insertion, with
//!    re-extraction-based verification.
//!
//! The one-call entry point is [`run_flow`] — a multi-round
//! detect→correct→**re-detect** convergence loop in which every round
//! re-extracts the corrected layout and detects it from scratch, exactly
//! as [`detect_conflicts`] does ([`detect_hier`] flattens a hierarchy and
//! takes the same path). The resident service drives a
//! [`RedetectEngine`] per session: it detects each edited layout the same
//! way, solving through a dual-T-join [`SolveCache`] that engines may
//! share, and answers an unchanged layout from its last exact report.
//! Every report equals a from-scratch [`detect_conflicts`] pass
//! (property-tested in `tests/incremental_equivalence.rs`).
//!
//! # Budgets, degradation and fault isolation
//!
//! Every long-running stage is *budgeted*: [`FlowConfig::budget`] /
//! [`CorrectionOptions::budget`] carry an [`aapsm_fault::Budget`]
//! (wall-clock deadline, per-stage work caps, cooperative cancellation)
//! that the graph build (once, up front), face trace, Blossom matching
//! and cover branch-and-bound charge as they work. When a budget trips, the flow
//! walks a **degradation ladder** instead of failing outright — optimal
//! bipartization falls back to the parity-greedy heuristic, the exact
//! cover keeps its (feasible) incumbent — and records what happened in
//! [`FlowResult::provenance`] ([`StageProvenance::Exact`] /
//! [`StageProvenance::Degraded`] / [`StageProvenance::Skipped`] per round
//! and stage), so a degraded answer can never masquerade as a proven one.
//! Worker panics are isolated per item (`aapsm_geom::par_map_indexed`
//! retries a poisoned component once serially); a persistent panic
//! surfaces as [`FlowError::WorkerPanic`] rather than tearing down the
//! caller. The deterministic fault-injection hooks of [`aapsm_fault`]
//! (compiled out in release) drive the property suite in
//! `tests/fault_injection.rs`: every injected fault yields either a
//! bit-identical complete result or a truthfully flagged degraded/error
//! result — never a silently wrong one.
//!
//! # Parallelism and solver reuse
//!
//! The detection pipeline is decompose-then-solve behind one knob,
//! [`DetectConfig::parallelism`] (reachable from [`FlowConfig`] via its
//! `detect` field): `0` = one worker per available CPU, `1` = serial
//! (default), `k` = at most `k` workers. Every degree yields
//! **bit-identical** results (property-tested in
//! `tests/parallel_equivalence.rs`). Only the stages that pay on two
//! cores run in parallel: extraction, the crossing sweep, the
//! per-component face trace and the bipartization solve.
//!
//! * **Front-end**: phase-geometry extraction and the planarization
//!   crossing sweep shard the spatial grid's occupied cells into
//!   contiguous bands (`aapsm_geom::GridIndex::par_collect_pairs`), with
//!   per-band buffers merged in band order. The conflict graph in between
//!   is one serial linear pass ([`build_conflict_graph`]) at every
//!   degree.
//! * **Back-end**: faces are traced and dualized **per connected
//!   component** on worker threads (`aapsm_graph::component_embeddings_budgeted`
//!   — the dual T-join decomposition falls out of the partition for
//!   free, with dense `Vec`-based renumbering), then every independent
//!   instance (one per component with odd faces) is solved on worker
//!   threads; per-instance
//!   deleted-edge sets are merged in instance order and sorted by edge
//!   id. Tiny graphs and instance sets fall back to the calling thread
//!   adaptively (thread spawn would dominate; one policy,
//!   `aapsm_geom::workers_for`, decides for every stage). Lower-level
//!   callers use [`bipartize`] directly.
//! * **Correction** is serial: the planner's weighted set cover
//!   decomposes into connected components of the candidate–element
//!   incidence, solved one after another in component order (a worker
//!   pool there measured no gain on two cores).
//!   [`CorrectionOptions::parallelism`] is ignored.
//! * **Allocation**: each worker owns one `aapsm_matching::MatchingContext`
//!   — a reusable Blossom arena. Solving through a context allocates only
//!   when an instance out-sizes everything the context has seen, so the
//!   thousands of small matchings of one flow stop hammering the
//!   allocator. The serial path is one worker with one context.
//!
//! # Example
//!
//! ```
//! use aapsm_core::{run_flow, FlowConfig};
//! use aapsm_layout::{fixtures, DesignRules};
//!
//! let rules = DesignRules::default();
//! let layout = fixtures::gate_over_strap(&rules);
//! let result = run_flow(&layout, &rules, &FlowConfig::default())?;
//! assert_eq!(result.detection.conflicts.len(), 1);
//! assert!(result.verified, "corrected layout must be phase-assignable");
//! # Ok::<(), aapsm_core::FlowError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bipartize;
mod correct;
pub mod darkfield;
mod detect;
mod flow;
mod graphs;
mod hier;
mod redetect;

pub use bipartize::{
    bipartize, tjoin_method_census, BipartizeMethod, BipartizeOutcome, CacheStats, MethodCensus,
    SolveCache,
};
pub use correct::{
    apply_correction, plan_correction, CorrectionOptions, CorrectionPlan, CorrectionReport,
};
pub use detect::{
    detect_conflicts, detect_greedy, Conflict, ConflictSource, ConstraintKind, DetectConfig,
    DetectReport, DetectStats, GreedyKind,
};
pub use flow::{
    run_flow, FlowConfig, FlowError, FlowResult, FlowRound, RoundProvenance, StageProvenance,
};
pub use graphs::{
    build_conflict_graph, build_conflict_graph_par, build_feature_graph,
    build_phase_conflict_graph, ConflictGraph, GraphKind, GraphStats,
};
pub use hier::{detect_hier, HierDetectReport, HierDetectStats};
pub use redetect::{RedetectEngine, RedetectStats};

pub use aapsm_fault::{
    Budget, BudgetExceeded, BudgetSpec, CancelToken, ExhaustReason, Stage as BudgetStage,
};
pub use aapsm_graph::PlanarizeOrder;
pub use aapsm_tjoin::{GadgetKind, TJoinMethod};
