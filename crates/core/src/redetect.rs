//! Incremental re-detection for the resident service's ECO edits.
//!
//! A session of `aapsm-service` holds one layout and re-detects it after
//! every small edit (an ApplyCuts request). A handful of
//! [`SpaceCut`]s perturbs geometry only along a few grid lines, so a full
//! from-scratch [`crate::detect_conflicts`] pass would redo mostly
//! unchanged work. [`RedetectEngine`] retains what the previous
//! detection computed — the extraction state, the pristine conflict
//! graph and its crossing set (when one was computed) — solves through a
//! dual-T-join [`SolveCache`], and recomputes only what the cuts touched.
//! The batch [`crate::run_flow`] does not use it: its end-to-end
//! correction rounds move too much of the layout for the incremental
//! extraction to apply, so it detects every round from scratch.
//!
//! # What is incremental, and why each piece stays bit-identical
//!
//! * **Extraction** (`aapsm_layout::ExtractState`): rigid merge
//!   constraints are carried over and only slab-touching pairs are
//!   rescanned; the spatial grids are rebuilt from the cut geometry
//!   (one `aapsm_geom::GridIndex::build` each). Exactness: the
//!   dirty/clean split is the complementarity invariant of
//!   `aapsm_geom::DirtyRegions`.
//! * **Conflict-graph build** is *not* incremental: every round rebuilds
//!   the graph with the one serial builder
//!   ([`crate::build_conflict_graph`]). It is a single linear pass, and
//!   reusing and remapping slices of the old graph measured slower than
//!   rebuilding it. The old graph is kept only as the frame the
//!   incremental crossing sweep compares against.
//! * **Crossing sweep** (`aapsm_graph::crossing_pairs_incremental`):
//!   crossings between rigid same-shift edges are copied from the
//!   previous set; every pair with a suspect member is re-tested
//!   geometrically. The crossing set is retained *lazily*: a round whose
//!   graph is already bipartite takes the Theorem-1 shortcut of
//!   [`crate::detect_conflicts`] and never sweeps, so it leaves no set
//!   behind, and the next round that needs one runs the full
//!   `aapsm_graph::crossing_pairs_par` sweep instead (same bits).
//! * **Planarization** runs in full on the (incremental) crossing set —
//!   its greedy removal loop is linear-ish and inherently global.
//! * **Bipartization** ([`SolveCache`]): per-component dual T-join
//!   instances are memoized by exact instance bytes, so untouched
//!   components replay their previous solution; the solvers being
//!   deterministic makes a byte-equal instance's cached join exactly
//!   what a fresh solve would return. The engine holds one cache handle:
//!   [`RedetectEngine::new`] makes a private one (LRU-bounded to
//!   [`SolveCache::DEFAULT_CAPACITY`]), [`RedetectEngine::set_shared_cache`]
//!   swaps in a handle shared with other engines (the service shares one
//!   across all its sessions), and a clone of an engine shares its
//!   parent's cache. Instance extraction itself (the
//!   per-component face trace / dual build of
//!   `aapsm_graph::component_embeddings_budgeted`) honors the engine's
//!   parallelism knob and yields byte-identical instances at every
//!   degree, keeping cache keys stable across serial and parallel
//!   rounds.
//!
//! Whenever a reuse precondition fails — criticality flips, a rect that
//! does not match its predicted post-cut image, the feature-graph
//! ablation, or a missing prior state — the engine degrades to the full
//! pipeline for that round (still through the solve cache, which is
//! correct unconditionally) and reports it in [`RedetectStats`].

use crate::bipartize::CacheActivity;
use crate::detect::finish_pipeline;
use crate::flow::StageProvenance;
use crate::graphs::build_conflict_graph_budgeted;
use crate::{ConflictGraph, DetectConfig, DetectReport, GraphKind, SolveCache};
use aapsm_fault::{Budget, BudgetExceeded};
use aapsm_graph::{
    crossing_pairs_incremental, crossing_pairs_par, CrossingSet, EdgeId, EmbeddedGraph,
};
use aapsm_layout::{dirty_regions_for, DesignRules, ExtractState, Layout, PhaseGeometry, SpaceCut};
use std::borrow::Cow;
use std::time::Instant;

/// What the last [`RedetectEngine`] round did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RedetectStats {
    /// Whether the round ran the incremental front-end (`false` for the
    /// initial detection and every fallback).
    pub incremental: bool,
    /// The incremental extraction hit a structural change and rebuilt
    /// from scratch.
    pub extraction_fallback: bool,
    /// Merge constraints carried over without rescanning.
    pub reused_overlaps: usize,
    /// Candidate shifter pairs re-run through the scan verdict.
    pub rescanned_pairs: usize,
    /// Always `0`: the graph build keeps no reusable pieces. The field
    /// stays for the benchmark's stable output schema.
    pub tiles_reused: usize,
    /// `1` on an incremental round (the whole conflict graph is rebuilt)
    /// and `0` otherwise. The field stays for the benchmark's stable
    /// output schema.
    pub tiles_rebuilt: usize,
    /// Dual T-join instances answered from the solve cache.
    pub solve_hits: usize,
    /// Dual T-join instances solved fresh.
    pub solve_misses: usize,
}

#[derive(Clone)]
struct EngineState {
    extract: ExtractState,
    /// Pristine (pre-planarization) conflict graph of the last round.
    graph: ConflictGraph,
    /// Its full crossing set; `None` when the round took the Theorem-1
    /// shortcut and never swept.
    crossings: Option<CrossingSet>,
}

/// A detection session that supports cheap re-detection after correction
/// rounds; see the module docs.
///
/// The engine owns one fixed [`DetectConfig`] and is driven with
/// [`RedetectEngine::detect_full`] once, then
/// [`RedetectEngine::redetect_after_correction`] per correction round.
///
/// Cloning an engine copies its retained state but **shares** its
/// [`SolveCache`]: the clone and the original memoize into one map. That
/// is sound (cached joins are exactly what a fresh solve returns), so a
/// clone's reports stay bit-identical to a from-scratch detection; only
/// its hit/miss counts see the other's entries.
#[derive(Clone)]
pub struct RedetectEngine {
    rules: DesignRules,
    config: DetectConfig,
    /// Dual-T-join memo of every round: private unless
    /// [`RedetectEngine::set_shared_cache`] replaced it.
    cache: SolveCache,
    /// Work/deadline budget of subsequent rounds (see
    /// [`RedetectEngine::set_budget`]); unlimited by default.
    budget: Budget,
    state: Option<EngineState>,
    stats: RedetectStats,
}

impl RedetectEngine {
    /// Creates an engine for a fixed rule set and detection config, with
    /// a private solve cache of [`SolveCache::DEFAULT_CAPACITY`] entries.
    pub fn new(rules: DesignRules, config: DetectConfig) -> RedetectEngine {
        RedetectEngine {
            rules,
            config,
            cache: SolveCache::new(SolveCache::DEFAULT_CAPACITY),
            budget: Budget::unlimited(),
            state: None,
            stats: RedetectStats::default(),
        }
    }

    /// Replaces the engine's solve cache with `cache`, typically a clone
    /// of a handle other engines hold too. Keys are canonical instance
    /// bytes tagged with the solving method (see the [`SolveCache`]
    /// docs), so hits seeded by *other* sessions are sound.
    pub fn set_shared_cache(&mut self, cache: SolveCache) {
        self.cache = cache;
    }

    /// Replaces the budget driving subsequent rounds (charged by the graph
    /// build, face trace, matching and the Step-2 solve; unlimited until
    /// first set) — how a resident service maps per-request deadlines
    /// onto a long-lived engine. The retained state is unaffected: a
    /// tighter budget only limits new work.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The geometry of the last detected layout (`None` before the first
    /// detection).
    pub fn geometry(&self) -> Option<&PhaseGeometry> {
        self.state.as_ref().map(|s| s.extract.geometry())
    }

    /// Statistics of the last round.
    pub fn last_stats(&self) -> &RedetectStats {
        &self.stats
    }

    /// Full detection, establishing (or re-establishing) the retained
    /// state. The report is bit-identical to
    /// [`crate::detect_conflicts`] on the extracted geometry.
    ///
    /// # Panics
    ///
    /// Panics when the engine's budget ([`RedetectEngine::set_budget`])
    /// trips — use [`RedetectEngine::try_detect_full`] for budgeted
    /// sessions.
    pub fn detect_full(&mut self, layout: &Layout) -> DetectReport {
        match self.try_detect_full(layout) {
            Ok((report, _)) => report,
            Err(e) => panic!("detect_full under a limited budget: {e}"),
        }
    }

    /// [`RedetectEngine::detect_full`] honoring the engine's budget,
    /// returning the bipartization's [`StageProvenance`] alongside the
    /// report.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the graph build trips the budget (no
    /// cheaper build exists, so detection cannot degrade there); the
    /// retained state is dropped and the next call re-detects from
    /// scratch.
    pub fn try_detect_full(
        &mut self,
        layout: &Layout,
    ) -> Result<(DetectReport, StageProvenance), BudgetExceeded> {
        let extract = ExtractState::full(layout, &self.rules, self.config.parallelism);
        // `build_time` spans the graph build onward, as on every
        // detection path; extraction is not part of it.
        let t0 = Instant::now();
        self.state = None;
        let (report, provenance, activity) = self.full_back_end(t0, extract)?;
        self.stats = RedetectStats {
            incremental: false,
            solve_hits: activity.hits,
            solve_misses: activity.misses,
            ..RedetectStats::default()
        };
        Ok((report, provenance))
    }

    /// Re-detects after `cuts` transformed the previously detected
    /// layout into `modified` — the incremental entry point for an
    /// edit. Bit-identical (conflicts, weights, counts) to a
    /// from-scratch [`crate::detect_conflicts`] on `modified`'s
    /// geometry; see `crates/core/tests/incremental_equivalence.rs`.
    pub fn redetect_after_correction(
        &mut self,
        modified: &Layout,
        cuts: &[SpaceCut],
    ) -> DetectReport {
        match self.try_redetect_after_correction(modified, cuts) {
            Ok((report, _)) => report,
            Err(e) => panic!("redetect_after_correction under a limited budget: {e}"),
        }
    }

    /// [`RedetectEngine::redetect_after_correction`] honoring the
    /// engine's budget, returning the bipartization's
    /// [`StageProvenance`] alongside the report.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the (incremental or full) graph build
    /// trips the budget; the retained state is dropped and the next call
    /// re-detects from scratch.
    pub fn try_redetect_after_correction(
        &mut self,
        modified: &Layout,
        cuts: &[SpaceCut],
    ) -> Result<(DetectReport, StageProvenance), BudgetExceeded> {
        // The FG ablation lacks the stable id layout the remaps rely on;
        // and with no prior state there is nothing to be incremental
        // about. Both run the full pipeline (still solve-cached).
        if self.state.is_none() || self.config.graph == GraphKind::Feature {
            return self.try_detect_full(modified);
        }
        let Some(mut state) = self.state.take() else {
            unreachable!("checked above")
        };
        let delta = state
            .extract
            .incremental(modified, cuts, &self.rules, self.config.parallelism);
        let t0 = Instant::now();
        if delta.fallback {
            let (report, provenance, activity) = self.full_back_end(t0, state.extract)?;
            self.stats = RedetectStats {
                incremental: false,
                extraction_fallback: true,
                solve_hits: activity.hits,
                solve_misses: activity.misses,
                ..RedetectStats::default()
            };
            return Ok((report, provenance));
        }

        // ---- Incremental front-end. ----
        let dirty = dirty_regions_for(cuts);
        let EngineState {
            extract,
            graph: old_graph,
            crossings: old_crossings,
        } = state;
        let graph =
            build_conflict_graph_budgeted(extract.geometry(), self.config.graph, &self.budget)?;
        let parallelism = self.config.parallelism;
        let sweep = |g: &EmbeddedGraph| match &old_crossings {
            Some(old_crossings) => {
                let old_of_new = pcg_edge_map(
                    &delta.overlap_preimage,
                    old_graph.graph.edge_count(),
                    g.edge_count(),
                );
                crossing_pairs_incremental(g, &old_graph.graph, old_crossings, &old_of_new, &dirty)
            }
            // The previous round took the shortcut: nothing to carry over.
            None => crossing_pairs_par(g, parallelism),
        };
        let (report, provenance, activity) = self.finish_round(t0, extract, graph, sweep);
        self.stats = RedetectStats {
            incremental: true,
            extraction_fallback: false,
            reused_overlaps: delta.reused_overlaps,
            rescanned_pairs: delta.rescanned_pairs,
            tiles_reused: 0,
            tiles_rebuilt: 1,
            solve_hits: activity.hits,
            solve_misses: activity.misses,
        };
        Ok((report, provenance))
    }

    /// The from-scratch back end over a ready extraction state: graph
    /// build, then the shared pipeline tail with a full crossing sweep
    /// (if the graph needs one); installs the new state.
    fn full_back_end(
        &mut self,
        t0: Instant,
        extract: ExtractState,
    ) -> Result<(DetectReport, StageProvenance, CacheActivity), BudgetExceeded> {
        let graph =
            build_conflict_graph_budgeted(extract.geometry(), self.config.graph, &self.budget)?;
        let parallelism = self.config.parallelism;
        Ok(self.finish_round(t0, extract, graph, |g| crossing_pairs_par(g, parallelism)))
    }

    /// The shared pipeline tail over a round's pristine graph
    /// ([`finish_pipeline`]: the Theorem-1 shortcut, or `sweep`,
    /// planarize, bipartize through the engine's solve cache and the
    /// Step-3 recheck on a copy of `graph`); then retains the round's
    /// state for the next one.
    fn finish_round(
        &mut self,
        t0: Instant,
        extract: ExtractState,
        graph: ConflictGraph,
        sweep: impl FnOnce(&EmbeddedGraph) -> CrossingSet,
    ) -> (DetectReport, StageProvenance, CacheActivity) {
        let out = finish_pipeline(
            extract.geometry(),
            Cow::Borrowed(&graph),
            sweep,
            &self.config,
            t0,
            Some(&self.cache),
            &self.budget,
        );
        self.state = Some(EngineState {
            extract,
            graph,
            crossings: out.crossings,
        });
        (out.report, out.provenance, out.activity)
    }
}

/// New-edge → old-edge map of the phase conflict graph's canonical id
/// layout: overlap half-edges sit at `2·oi + half` and follow the
/// overlap's index mapping; flank edges occupy the trailing block in
/// critical-feature order, which the non-fallback extraction guarantees
/// is unchanged (so both graphs hold the same number of flank edges).
fn pcg_edge_map(
    overlap_preimage: &[Option<u32>],
    old_edge_count: usize,
    new_edge_count: usize,
) -> Vec<Option<EdgeId>> {
    let o_new = overlap_preimage.len();
    let crit = new_edge_count - 2 * o_new;
    let o_old = (old_edge_count - crit) / 2;
    let mut map: Vec<Option<EdgeId>> = vec![None; 2 * o_new + crit];
    for (oi_new, pre) in overlap_preimage.iter().enumerate() {
        if let Some(oi_old) = pre {
            map[2 * oi_new] = Some(EdgeId(2 * oi_old));
            map[2 * oi_new + 1] = Some(EdgeId(2 * oi_old + 1));
        }
    }
    for r in 0..crit {
        map[2 * o_new + r] = Some(EdgeId((2 * o_old + r) as u32));
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_conflicts;
    use aapsm_geom::Axis;
    use aapsm_layout::synth::{generate, scaling_suite};
    use aapsm_layout::{apply_cuts, extract_phase_geometry, fixtures};

    fn assert_reports_match(a: &DetectReport, b: &DetectReport) {
        assert_eq!(a.conflicts, b.conflicts);
        assert_eq!(a.stats.graph_nodes, b.stats.graph_nodes);
        assert_eq!(a.stats.graph_edges, b.stats.graph_edges);
        assert_eq!(a.stats.crossings, b.stats.crossings);
        assert_eq!(a.stats.planarize_removed, b.stats.planarize_removed);
        assert_eq!(a.stats.bipartize_conflicts, b.stats.bipartize_conflicts);
        assert_eq!(a.stats.recheck_conflicts, b.stats.recheck_conflicts);
        assert_eq!(a.stats.bipartite, b.stats.bipartite);
    }

    #[test]
    fn full_detect_matches_detect_conflicts() {
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        for layout in [
            fixtures::gate_over_strap(&rules),
            fixtures::strap_under_bus(6, &rules),
            fixtures::wire_row(5, 600),
        ] {
            let mut engine = RedetectEngine::new(rules, config.clone());
            let report = engine.detect_full(&layout);
            let scratch = detect_conflicts(&extract_phase_geometry(&layout, &rules), &config);
            assert_reports_match(&report, &scratch);
        }
    }

    #[test]
    fn redetect_without_state_is_full_detection() {
        let rules = DesignRules::default();
        let mut engine = RedetectEngine::new(rules, DetectConfig::default());
        let layout = fixtures::gate_over_strap(&rules);
        let report = engine.redetect_after_correction(&layout, &[]);
        assert!(!engine.last_stats().incremental);
        let scratch = detect_conflicts(
            &extract_phase_geometry(&layout, &rules),
            &DetectConfig::default(),
        );
        assert_reports_match(&report, &scratch);
    }

    #[test]
    fn engines_given_one_cache_share_its_solutions() {
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        let layout = fixtures::strap_under_bus(6, &rules);
        let scratch = detect_conflicts(&extract_phase_geometry(&layout, &rules), &config);
        let cache = SolveCache::new(SolveCache::DEFAULT_CAPACITY);
        let mut first = RedetectEngine::new(rules, config.clone());
        first.set_shared_cache(cache.clone());
        assert_reports_match(&first.detect_full(&layout), &scratch);
        let seeded = first.last_stats().solve_misses;
        assert!(seeded > 0, "the fixture must need T-join solves");
        assert_eq!(cache.stats().entries, seeded);
        // A second engine on the same cache solves nothing fresh.
        let mut second = RedetectEngine::new(rules, config.clone());
        second.set_shared_cache(cache.clone());
        assert_reports_match(&second.detect_full(&layout), &scratch);
        assert_eq!(second.last_stats().solve_misses, 0);
        assert_eq!(second.last_stats().solve_hits, seeded);
        // A clone shares its parent's private cache: after the parent
        // detects, the clone's detection is all hits.
        let mut parent = RedetectEngine::new(rules, config);
        let mut clone = parent.clone();
        parent.detect_full(&layout);
        assert_eq!(parent.last_stats().solve_misses, seeded);
        assert_reports_match(&clone.detect_full(&layout), &scratch);
        assert_eq!(clone.last_stats().solve_misses, 0);
        assert_eq!(clone.last_stats().solve_hits, seeded);
    }

    #[test]
    fn capacity_one_cache_stays_bounded_and_exact() {
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        let design = scaling_suite()
            .into_iter()
            .find(|d| d.name == "rows_x1")
            .expect("rows_x1 is in the scaling suite");
        let layout = generate(&design.params, &rules);
        let cache = SolveCache::new(1);
        let mut engine = RedetectEngine::new(rules, config.clone());
        engine.set_shared_cache(cache.clone());
        let report = engine.detect_full(&layout);
        let geom = extract_phase_geometry(&layout, &rules);
        assert_reports_match(&report, &detect_conflicts(&geom, &config));
        assert!(
            engine.last_stats().solve_misses > 1,
            "the layout must need several T-join solves"
        );
        assert_eq!(cache.stats().entries, 1);
        // An ECO round correcting one conflict: every evicted instance is
        // solved again, and the answer still equals scratch.
        let plan = crate::plan_correction(
            &geom,
            &report.conflicts[..1],
            &rules,
            &crate::CorrectionOptions::default(),
        );
        let modified = apply_cuts(&layout, &plan.cuts);
        let incremental = engine.redetect_after_correction(&modified, &plan.cuts);
        assert!(engine.last_stats().incremental);
        let scratch = detect_conflicts(&extract_phase_geometry(&modified, &rules), &config);
        assert_reports_match(&incremental, &scratch);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn redetect_after_manual_cut_matches_scratch() {
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        let layout = fixtures::strap_under_bus(5, &rules);
        let mut engine = RedetectEngine::new(rules, config.clone());
        engine.detect_full(&layout);
        let cuts = [SpaceCut {
            axis: Axis::Y,
            position: 300,
            width: 200,
        }];
        let modified = apply_cuts(&layout, &cuts);
        let incremental = engine.redetect_after_correction(&modified, &cuts);
        assert!(engine.last_stats().incremental);
        let scratch = detect_conflicts(&extract_phase_geometry(&modified, &rules), &config);
        assert_reports_match(&incremental, &scratch);
        assert_eq!(
            engine.geometry(),
            Some(&extract_phase_geometry(&modified, &rules))
        );
    }
}
