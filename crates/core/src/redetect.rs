//! The detection session behind the resident service's ECO edits.
//!
//! A session of `aapsm-service` holds one layout and re-detects it after
//! every edit (an ApplyCuts request) and on every Detect request. Every
//! report of a [`RedetectEngine`] is [`crate::detect_conflicts`] on the
//! layout's geometry, bit for bit: the first round detects exactly as
//! [`crate::run_flow`] detects its first round
//! ([`aapsm_layout::extract_phase_geometry_par`], then the one batch
//! detection path: graph build, Theorem-1 shortcut or crossing sweep,
//! planarization, bipartization, Step-3 recheck), and a round after an
//! edit reaches the same report from what the engine kept.
//!
//! What the session keeps between rounds:
//!
//! * **A solve cache.** Per-component dual T-join instances are memoized
//!   by exact instance bytes, so a component an edit left untouched
//!   replays its previous solution; the solvers being deterministic makes
//!   a byte-equal instance's cached join exactly what a fresh solve would
//!   return. The engine holds one cache handle: [`RedetectEngine::new`]
//!   makes a private one (LRU-bounded to [`SolveCache::DEFAULT_CAPACITY`]),
//!   [`RedetectEngine::set_shared_cache`] swaps in a handle shared with
//!   other engines (the service shares one across all its sessions), and
//!   a clone of an engine shares its parent's cache.
//! * **The last layout's extraction, exact report and round.** The
//!   engine keeps the geometry and [`ScanRecord`] of the layout it
//!   detected last (the geometry's features are that layout's rects, in
//!   order), and, when its bipartization was [`StageProvenance::Exact`],
//!   the report and the round behind it: the conflict graph and, by edge
//!   id, the crossings planarization read, its victims, the
//!   bipartization's deletions and the recheck's hits. All of it moves
//!   out of the pipeline; nothing is recomputed or cloned for it. When
//!   [`RedetectEngine::try_redetect_after_correction`] is handed that
//!   layout again, it answers with a clone of the kept report and does
//!   no detection work. A degraded answer is never kept, so a later round
//!   with a larger budget detects again (from the kept extraction), and
//!   an edit after it detects from scratch. The test is layout equality,
//!   not an empty cut list, so a caller never gets a stale answer.
//!
//! A round whose `cuts` make the layout from the kept one reuses both
//! halves of that state. An end-to-end cut moves everything on each side
//! of its line by one rigid translation, and a chip's features keep
//! their widths, so most of the chip reaches the new round unchanged but
//! for a translation:
//!
//! * **The extraction is derived, not scanned.** [`derive_cut_geometry`]
//!   uses the scan record to prove that only the close pairs whose
//!   shifter hull a cut touches can change, and re-tests only those (a
//!   one-cut ECO edit on `rows_x16`, which has 9,452 overlaps, re-tests
//!   about 160 close pairs). The derivation is the extraction, bit for
//!   bit; debug builds check it. Where it declines (a cut that would
//!   widen a critical feature, or a negative one), or the cuts do not
//!   make the layout from the kept one, the engine extracts and detects
//!   from scratch.
//! * **Detection is edit-local.** The new conflict graph is built in
//!   full, and its edges map to their predecessors through the
//!   constraints they encode. An edge is *rigid* when its weight is
//!   unchanged and both end nodes sit at their old position plus the
//!   translation of the one half-open cut cell both lie in. A component
//!   whose edges are all rigid, whose edge set maps one to one onto an
//!   old component, and which no crossing of either round links to a
//!   re-run component keeps its kept crossings, victims, deletions and
//!   recheck hits, with the ids remapped. That is exact because the
//!   crossing predicate does not change under a common translation, cut
//!   cells are convex and stay disjoint after the cut (so rigid edges of
//!   different cells cross in neither round), and ids map in increasing
//!   order; every edge of a re-run component is re-tested against the
//!   whole new graph. The other odd components go through the pipeline
//!   and the decisions merge in edge order. Where the argument does not
//!   hold (no kept round, a changed flank weight, a crossing between an
//!   odd and a bipartite component in either round) the round detects
//!   from scratch. Debug builds check every edit-local report against a
//!   scratch detection. [`RedetectStats::components_reused`] and
//!   [`RedetectStats::components_rerun`] count the split: a one-cut ECO
//!   edit on `rows_x16` re-runs about 6 of 480 odd components.
//!
//! An earlier design re-extracted the pairs near the inserted slabs by
//! re-scanning them and re-swept only the crossings of moved edges; on
//! the benchmark's one-cut edits it was about 1.2× faster than a
//! from-scratch round with a warm cache, too little for its code.

use crate::detect::{detect_after_cuts, detect_geometry_budgeted, PipelineOutcome, Round};
use crate::flow::StageProvenance;
use crate::{DetectConfig, DetectReport, SolveCache};
use aapsm_fault::{Budget, BudgetExceeded, Stage};
use aapsm_layout::{
    derive_cut_geometry, extract_phase_geometry_recorded, DesignRules, Layout, PhaseGeometry,
    ScanRecord, SpaceCut,
};

/// What the last [`RedetectEngine`] round did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RedetectStats {
    /// The round was answered from the report kept for an unchanged
    /// layout, with no detection work (`false` whenever it detected).
    pub incremental: bool,
    /// The round had cuts and a kept extraction, but extracted: the
    /// derivation declined the cuts, or they do not make the layout from
    /// the kept one.
    pub extraction_fallback: bool,
    /// Close shifter pairs (overlaps and blocked pairs) whose verdicts
    /// the derivation carried over: those whose shifter hull no cut
    /// touches.
    pub reused_overlaps: usize,
    /// Close shifter pairs the derivation re-tested: those whose shifter
    /// hull a cut touches.
    pub rescanned_pairs: usize,
    /// Always `0`: the graph build keeps no reusable pieces. The field
    /// stays for the benchmark's stable output schema.
    pub tiles_reused: usize,
    /// Always `0`, for the same reason as [`RedetectStats::tiles_reused`].
    pub tiles_rebuilt: usize,
    /// Dual T-join instances answered from the solve cache. A reused
    /// component ([`RedetectStats::components_reused`]) never reaches the
    /// cache, so it counts neither here nor in
    /// [`RedetectStats::solve_misses`].
    pub solve_hits: usize,
    /// Dual T-join instances solved fresh.
    pub solve_misses: usize,
    /// Odd conflict-graph components whose outcome (crossings, victims,
    /// deletions, recheck hits) the round carried over from the kept
    /// round, because the cuts moved them rigidly and no re-run
    /// component crosses them. `0` when the round detected from scratch.
    pub components_reused: usize,
    /// Odd components the round detected afresh: those the cuts changed
    /// or moved apart, and those a crossing links to one. `0` when the
    /// round detected from scratch, which runs every odd component.
    pub components_rerun: usize,
}

/// The last layout an engine detected: its extraction and report.
#[derive(Clone)]
struct Detected {
    /// Its geometry, whose features are the layout's rects in order.
    geometry: PhaseGeometry,
    record: ScanRecord,
    /// Its report and round, kept only when the bipartization was exact.
    exact: Option<(DetectReport, Round)>,
}

/// Whether `geometry` is an extraction of `layout`: its features are the
/// layout's rects, in order.
fn extracts(geometry: &PhaseGeometry, layout: &Layout) -> bool {
    geometry.features.len() == layout.len()
        && geometry
            .features
            .iter()
            .zip(layout.rects())
            .all(|(f, r)| f.rect == *r)
}

/// A detection session over one evolving layout; see the module docs.
///
/// The engine owns one fixed [`DetectConfig`] and is driven with
/// [`RedetectEngine::detect_full`] or
/// [`RedetectEngine::redetect_after_correction`], once per edit.
///
/// Cloning an engine copies its kept layout and report but **shares**
/// its [`SolveCache`]: the clone and the original memoize into one map.
/// That is sound (cached joins are exactly what a fresh solve returns),
/// so a clone's reports stay bit-identical to a from-scratch detection;
/// only its hit/miss counts see the other's entries.
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
    last: Option<Detected>,
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
            last: None,
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

    /// Replaces the budget driving subsequent rounds (checked on entry
    /// and charged by the graph build, face trace, matching and the
    /// Step-2 solve; unlimited until first set) — how a resident service
    /// maps per-request deadlines onto a long-lived engine. The kept
    /// report is unaffected: an exact report stays exact under any
    /// budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The geometry of the last detected layout (`None` before the first
    /// detection and after a round whose budget tripped).
    pub fn geometry(&self) -> Option<&PhaseGeometry> {
        self.last.as_ref().map(|d| &d.geometry)
    }

    /// Statistics of the last round.
    pub fn last_stats(&self) -> &RedetectStats {
        &self.stats
    }

    /// Detects `layout` from scratch, even when it is the layout the
    /// engine detected last. The report is bit-identical to
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
    /// kept layout and report are dropped.
    pub fn try_detect_full(
        &mut self,
        layout: &Layout,
    ) -> Result<(DetectReport, StageProvenance), BudgetExceeded> {
        self.last = None;
        let (geometry, record) =
            extract_phase_geometry_recorded(layout, &self.rules, self.config.parallelism);
        self.detect(geometry, record, RedetectStats::default())
    }

    /// Detects `geometry`, the extraction recorded in `record`, from
    /// scratch through the engine's cache and budget, and keeps both with
    /// the outcome. `stats` says how the round came by the extraction.
    fn detect(
        &mut self,
        geometry: PhaseGeometry,
        record: ScanRecord,
        stats: RedetectStats,
    ) -> Result<(DetectReport, StageProvenance), BudgetExceeded> {
        let out =
            detect_geometry_budgeted(&geometry, &self.config, Some(&self.cache), &self.budget)?;
        Ok(self.keep(geometry, record, stats, out))
    }

    /// Records `out`, the detection of `geometry`, as the round's
    /// statistics and kept state, and returns its report.
    fn keep(
        &mut self,
        geometry: PhaseGeometry,
        record: ScanRecord,
        stats: RedetectStats,
        out: PipelineOutcome,
    ) -> (DetectReport, StageProvenance) {
        self.stats = RedetectStats {
            solve_hits: out.activity.hits,
            solve_misses: out.activity.misses,
            components_reused: out.reuse.reused,
            components_rerun: out.reuse.rerun,
            ..stats
        };
        let exact = match (out.provenance.is_exact(), out.round) {
            (true, Some(round)) => Some((out.report.clone(), round)),
            _ => None,
        };
        self.last = Some(Detected {
            geometry,
            record,
            exact,
        });
        (out.report, out.provenance)
    }

    /// Detects `modified`, the layout after an edit. The report is
    /// bit-identical (conflicts, weights, counts) to a from-scratch
    /// [`crate::detect_conflicts`] on `modified`'s geometry; see
    /// `crates/core/tests/incremental_equivalence.rs`. When `cuts` make
    /// `modified` from the layout detected last, its extraction is
    /// derived instead of scanned and only the conflict-graph components
    /// the cuts move re-run (see the module docs).
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
    /// The budget is checked on entry, as [`crate::run_flow`] checks its
    /// own. Then `modified`'s extraction comes from the kept one when it
    /// can:
    ///
    /// * `modified` is the layout detected last: its exact report is
    ///   returned with no detection work ([`RedetectStats::incremental`]);
    ///   with no exact report, the kept extraction is detected again;
    /// * `cuts` make `modified` from the layout detected last: the
    ///   extraction is derived ([`derive_cut_geometry`]) and detected
    ///   edit-locally against the kept round, or from scratch when the
    ///   last round was degraded;
    /// * otherwise `modified` is detected as
    ///   [`RedetectEngine::try_detect_full`] detects it.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the entry check or the graph build trips
    /// the budget. A trip in the graph build drops the kept extraction
    /// and report.
    pub fn try_redetect_after_correction(
        &mut self,
        modified: &Layout,
        cuts: &[SpaceCut],
    ) -> Result<(DetectReport, StageProvenance), BudgetExceeded> {
        self.budget.check(Stage::GraphBuild)?;
        let Some(last) = self.last.take() else {
            return self.try_detect_full(modified);
        };
        if extracts(&last.geometry, modified) {
            if let Some((report, _)) = &last.exact {
                let report = report.clone();
                self.last = Some(last);
                self.stats = RedetectStats {
                    incremental: true,
                    ..RedetectStats::default()
                };
                return Ok((report, StageProvenance::Exact));
            }
            return self.detect(last.geometry, last.record, RedetectStats::default());
        }
        if cuts.is_empty() {
            return self.try_detect_full(modified);
        }
        let derived = derive_cut_geometry(&last.geometry, &last.record, &self.rules, cuts)
            .filter(|d| extracts(&d.geometry, modified));
        match derived {
            Some(d) => {
                debug_assert!(
                    {
                        let (geometry, record) =
                            extract_phase_geometry_recorded(modified, &self.rules, 1);
                        geometry == d.geometry && record == d.record
                    },
                    "a derived extraction must equal the re-extraction"
                );
                let stats = RedetectStats {
                    reused_overlaps: d.kept_pairs,
                    rescanned_pairs: d.retested_pairs,
                    ..RedetectStats::default()
                };
                let (config, cache) = (&self.config, Some(&self.cache));
                let out = match &last.exact {
                    Some((_, round)) => detect_after_cuts(
                        &last.geometry,
                        round,
                        cuts,
                        &d.geometry,
                        config,
                        cache,
                        &self.budget,
                    ),
                    None => detect_geometry_budgeted(&d.geometry, config, cache, &self.budget),
                };
                drop(last);
                let out = out?;
                debug_assert!(
                    !out.provenance.is_exact() || {
                        let scratch = crate::detect_conflicts(&d.geometry, config);
                        same_report(&out.report, &scratch)
                    },
                    "an edit-local report must equal a scratch detection"
                );
                Ok(self.keep(d.geometry, d.record, stats, out))
            }
            None => {
                drop(last);
                let (geometry, record) =
                    extract_phase_geometry_recorded(modified, &self.rules, self.config.parallelism);
                let stats = RedetectStats {
                    extraction_fallback: true,
                    ..RedetectStats::default()
                };
                self.detect(geometry, record, stats)
            }
        }
    }
}

/// Whether two reports agree in their conflicts and in every count of
/// their statistics (not in their timings).
fn same_report(a: &DetectReport, b: &DetectReport) -> bool {
    let counts = |r: &DetectReport| {
        let s = r.stats;
        (
            (s.graph_nodes, s.graph_edges, s.crossings),
            (s.planarize_removed, s.bipartize_conflicts),
            (s.recheck_conflicts, s.bipartite),
        )
    };
    a.conflicts == b.conflicts && counts(a) == counts(b)
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
        let redetected = engine.redetect_after_correction(&modified, &plan.cuts);
        assert!(!engine.last_stats().incremental, "an edit is detected");
        let scratch = detect_conflicts(&extract_phase_geometry(&modified, &rules), &config);
        assert_reports_match(&redetected, &scratch);
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
        let redetected = engine.redetect_after_correction(&modified, &cuts);
        assert!(!engine.last_stats().incremental, "an edit is detected");
        let scratch = detect_conflicts(&extract_phase_geometry(&modified, &rules), &config);
        assert_reports_match(&redetected, &scratch);
        assert_eq!(
            engine.geometry(),
            Some(&extract_phase_geometry(&modified, &rules))
        );
    }

    #[test]
    fn unchanged_layout_is_answered_from_the_kept_report() {
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        let layout = fixtures::strap_under_bus(6, &rules);
        let scratch = detect_conflicts(&extract_phase_geometry(&layout, &rules), &config);
        let cache = SolveCache::new(SolveCache::DEFAULT_CAPACITY);
        let mut engine = RedetectEngine::new(rules, config);
        engine.set_shared_cache(cache.clone());
        let first = engine.detect_full(&layout);
        assert!(engine.last_stats().solve_misses > 0);
        let before = cache.stats();
        for _ in 0..2 {
            let (report, provenance) = engine
                .try_redetect_after_correction(&layout, &[])
                .expect("an unlimited budget never trips");
            assert!(engine.last_stats().incremental);
            assert_eq!(provenance, StageProvenance::Exact);
            assert_reports_match(&report, &scratch);
            assert_eq!(report.stats.build_time, first.stats.build_time);
            assert_eq!(
                (
                    engine.last_stats().solve_hits,
                    engine.last_stats().solve_misses
                ),
                (0, 0)
            );
            let after = cache.stats();
            assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        }
        // `detect_full` always detects, even an unchanged layout.
        engine.detect_full(&layout);
        assert!(!engine.last_stats().incremental);
        assert!(engine.last_stats().solve_hits > 0);
    }

    #[test]
    fn a_degraded_round_is_never_replayed() {
        use aapsm_fault::BudgetSpec;
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        let layout = fixtures::strap_under_bus(6, &rules);
        let scratch = detect_conflicts(&extract_phase_geometry(&layout, &rules), &config);
        let mut engine = RedetectEngine::new(rules, config);
        engine.set_budget(
            BudgetSpec {
                matching_ticks: Some(0),
                ..BudgetSpec::default()
            }
            .build(),
        );
        let (_, provenance) = engine
            .try_redetect_after_correction(&layout, &[])
            .expect("a matching cap degrades, it does not error");
        assert!(
            matches!(provenance, StageProvenance::Degraded(_)),
            "the cap must degrade the bipartization: {provenance:?}"
        );
        engine.set_budget(Budget::unlimited());
        let (report, provenance) = engine
            .try_redetect_after_correction(&layout, &[])
            .expect("an unlimited budget never trips");
        assert!(
            !engine.last_stats().incremental,
            "a degraded report was replayed"
        );
        assert_eq!(provenance, StageProvenance::Exact);
        assert_reports_match(&report, &scratch);
    }

    #[test]
    fn a_different_layout_without_cuts_is_detected() {
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        let layout = fixtures::strap_under_bus(5, &rules);
        let mut engine = RedetectEngine::new(rules, config.clone());
        let first = engine.detect_full(&layout);
        let plan = crate::plan_correction(
            engine.geometry().expect("detected"),
            &first.conflicts,
            &rules,
            &crate::CorrectionOptions::default(),
        );
        let corrected = apply_cuts(&layout, &plan.cuts);
        let scratch_geom = extract_phase_geometry(&corrected, &rules);
        let scratch = detect_conflicts(&scratch_geom, &config);
        assert_ne!(scratch.conflicts, first.conflicts);
        // No cuts passed: only the layout says it changed.
        let report = engine.redetect_after_correction(&corrected, &[]);
        assert!(!engine.last_stats().incremental);
        assert_reports_match(&report, &scratch);
        assert_eq!(engine.geometry(), Some(&scratch_geom));
    }

    #[test]
    fn a_cancelled_budget_stops_the_kept_report_path() {
        use aapsm_fault::{BudgetSpec, ExhaustReason, Stage};
        let rules = DesignRules::default();
        let layout = fixtures::strap_under_bus(5, &rules);
        let mut engine = RedetectEngine::new(rules, DetectConfig::default());
        let first = engine.detect_full(&layout);
        let budget = BudgetSpec::default().build();
        budget.cancel_token().expect("a built budget").cancel();
        engine.set_budget(budget);
        let err = engine
            .try_redetect_after_correction(&layout, &[])
            .expect_err("a cancelled budget must stop the round");
        assert_eq!(err.reason, ExhaustReason::Cancelled);
        assert_eq!(err.stage, Stage::GraphBuild);
        // The entry check changed nothing: the next round replays.
        engine.set_budget(Budget::unlimited());
        let report = engine.redetect_after_correction(&layout, &[]);
        assert!(engine.last_stats().incremental);
        assert_reports_match(&report, &first);
    }
}
