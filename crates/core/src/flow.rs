//! The one-call end-to-end flow: a detect → correct → **verify**
//! convergence loop, followed by phase assignment. The first round
//! extracts the layout and detects it exactly as
//! [`crate::detect_conflicts`] would. A round after cuts first tries to
//! *certify* the corrected layout from the previous round's extraction
//! ([`certify_cuts`]): when no conflict is uncorrectable, the cuts space
//! every corrected pair apart and no blocked corridor opens, the
//! corrected layout is assignable, and the certificate's assignment is
//! the flow's final verification; no extraction, graph build or pair
//! scan runs. A refused certificate falls back to the corrected layout's
//! extraction, derived from the previous one by [`derive_cut_geometry`],
//! which re-tests only the close pairs a cut touches; the round extracts
//! only where the derivation declines. It then runs [`check_assignable`]
//! and detects only when the check fails. Debug builds also re-extract a
//! certified or derived layout and assert that the check or the
//! derivation agrees.
//!
//! The flow is *budgeted* and *fault-isolated*: the budget carried by
//! [`FlowConfig::budget`] is checked at entry and charged by every
//! stage, degradations are recorded per round in
//! [`FlowResult::provenance`], and a worker panic that survives the
//! per-item retry of `aapsm_geom::par_map_indexed` surfaces as
//! [`FlowError::WorkerPanic`] instead of unwinding through the caller.

use crate::detect::{detect_charged_geometry, detect_geometry_budgeted, PipelineOutcome};
use crate::graphs::charge_graph_build;
use crate::{
    plan_correction, ConstraintKind, CorrectionOptions, CorrectionPlan, CorrectionReport,
    DetectConfig, DetectReport, SolveCache,
};
use aapsm_fault::{Budget, BudgetExceeded, Stage};
use aapsm_layout::{
    apply_cuts, certify_cuts, check_assignable, derive_cut_geometry, extract_phase_geometry,
    extract_phase_geometry_recorded, AssignabilityWitness, DesignRules, Layout, LayoutError,
    PhaseAssignment, PhaseGeometry, ScanRecord,
};
use std::fmt;

/// Configuration of [`run_flow`].
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Detection pipeline configuration.
    pub detect: DetectConfig,
    /// Correction planner options. [`CorrectionOptions::budget`] is
    /// overridden inside [`run_flow`] by [`FlowConfig::budget`], so
    /// detection *and* the correction planner's per-component cover
    /// solves charge one budget. [`CorrectionOptions::parallelism`] is
    /// ignored: the cover runs serially.
    pub correct: CorrectionOptions,
    /// The **flow-wide** work/deadline budget: [`run_flow`] checks it at
    /// entry, charges it in every round's detection (graph build, face
    /// trace, matching, Step-2 solve) and drives the correction planner's
    /// cover solves with it. Default: [`Budget::unlimited`].
    pub budget: Budget,
    /// Maximum detect→correct rounds. Round `k+1` verifies the layout
    /// round `k`'s cuts produced: by the certificate, or, when it refuses,
    /// by re-extracting and re-detecting that layout; the loop ends early
    /// once a round detects no conflicts. Space insertion can *unblock* a
    /// previously feature-blocked shifter corridor (the stretched geometry
    /// opens a clear sightline); the certificate then refuses, and the
    /// re-detection can find a conflict that needs another round.
    pub max_rounds: usize,
    /// Optional dual-T-join memo: when set, every round's bipartization
    /// looks its instances up in this cache and files the ones it solves
    /// there (the resident service hands every session's flow its one
    /// shared cache); when unset, the flow memoizes nothing.
    pub solve_cache: Option<SolveCache>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            detect: DetectConfig::default(),
            correct: CorrectionOptions::default(),
            budget: Budget::unlimited(),
            max_rounds: 8,
            solve_cache: None,
        }
    }
}

impl FlowConfig {
    /// A default configuration whose detection *and* correction stages
    /// share `budget` — the one-call way to run a deadline-bounded flow.
    pub fn with_budget(budget: Budget) -> FlowConfig {
        FlowConfig {
            budget,
            ..FlowConfig::default()
        }
    }
}

/// One round of the detect→correct→re-detect loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRound {
    /// Conflicts the round detected.
    pub conflicts: usize,
    /// End-to-end spaces it inserted (0 on the converged round).
    pub cuts: usize,
}

/// How one flow stage of one round obtained its result.
///
/// The truthfulness contract of the degradation ladder: a stage may fall
/// back to a cheaper method when the budget trips, but the fall-back is
/// always recorded here — a degraded answer can never masquerade as a
/// proven one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageProvenance {
    /// The stage ran its exact/optimal algorithm to completion.
    Exact,
    /// The stage fell back to a cheaper method (the payload says why);
    /// its result is valid but not proven optimal.
    Degraded(String),
    /// The stage did not run (the payload says why).
    Skipped(String),
}

impl StageProvenance {
    /// Whether this stage ran its exact algorithm to completion.
    pub fn is_exact(&self) -> bool {
        matches!(self, StageProvenance::Exact)
    }
}

/// Per-stage provenance of one [`FlowRound`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundProvenance {
    /// Conflict-graph build. Never degraded: a graph build that trips its budget aborts the flow
    /// instead (no cheaper build exists).
    pub build: StageProvenance,
    /// Optimal bipartization; degrades to parity-greedy on a budget trip.
    pub bipartize: StageProvenance,
    /// Correction cover; degraded when the exact branch-and-bound was
    /// truncated or budget-tripped (the plan keeps its feasible
    /// incumbent).
    pub correct: StageProvenance,
}

impl RoundProvenance {
    /// Whether every stage of the round ran exactly.
    pub fn is_exact(&self) -> bool {
        self.build.is_exact() && self.bipartize.is_exact() && self.correct.is_exact()
    }

    fn skipped(reason: &str) -> RoundProvenance {
        RoundProvenance {
            build: StageProvenance::Skipped(reason.to_string()),
            bipartize: StageProvenance::Skipped(reason.to_string()),
            correct: StageProvenance::Skipped(reason.to_string()),
        }
    }
}

/// Errors of the end-to-end flow.
#[derive(Clone, Debug)]
pub enum FlowError {
    /// The design rules are inconsistent.
    BadRules(String),
    /// The input layout failed sanitization ([`Layout::sanitize`]):
    /// degenerate rects, duplicated geometry, or coordinates too close
    /// to the GDS i32 range for the rules' shifter extents.
    BadLayout(LayoutError),
    /// Some of the *first* detection round's conflicts could not be
    /// corrected by space insertion (indices into that round's report —
    /// the `detection` the caller would have received); the caller
    /// should route them to feature widening / mask splitting.
    /// Uncorrectable conflicts that only *appear* in a later round (cut
    /// geometry can create them) do not error: the flow returns its
    /// partial result with `verified == false` and the leftover count in
    /// the final [`FlowRound`].
    Uncorrectable(Vec<usize>),
    /// The budget was exhausted (or cancelled) before any partial result
    /// worth returning existed: already expired at entry, or tripped
    /// during a graph build — the one stage with no degraded form.
    Budget(BudgetExceeded),
    /// A worker panic survived the per-item retry; the payload is the
    /// panic message.
    WorkerPanic(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::BadRules(msg) => write!(f, "invalid design rules: {msg}"),
            FlowError::BadLayout(e) => write!(f, "invalid layout: {e}"),
            FlowError::Uncorrectable(v) => {
                write!(
                    f,
                    "{} conflicts not correctable by space insertion (report indices",
                    v.len()
                )?;
                for (n, i) in v.iter().take(8).enumerate() {
                    write!(f, "{} {i}", if n == 0 { "" } else { "," })?;
                }
                if v.len() > 8 {
                    write!(f, ", …")?;
                }
                write!(f, ")")
            }
            FlowError::Budget(e) => write!(f, "flow budget exhausted: {e}"),
            FlowError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::BadLayout(e) => Some(e),
            FlowError::Budget(e) => Some(e),
            FlowError::BadRules(_) | FlowError::Uncorrectable(_) | FlowError::WorkerPanic(_) => {
                None
            }
        }
    }
}

/// Everything the flow produced.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Extracted phase geometry of the input layout.
    pub geometry: PhaseGeometry,
    /// Conflict detection report of the first round.
    pub detection: DetectReport,
    /// First-round correction plan (empty when the layout was already
    /// assignable). Later rounds' cut counts are in [`FlowResult::rounds`].
    pub plan: CorrectionPlan,
    /// Cumulative correction report: the final layout and the overall
    /// area change.
    pub correction: CorrectionReport,
    /// Phase assignment of the corrected layout.
    pub assignment: PhaseAssignment,
    /// Whether the corrected layout verifies as phase-assignable.
    pub verified: bool,
    /// The detect→correct rounds the loop ran, in order.
    pub rounds: Vec<FlowRound>,
    /// Per-stage provenance of each round, parallel to
    /// [`FlowResult::rounds`]: which stages ran exactly, which degraded
    /// under the budget, which were skipped.
    pub provenance: Vec<RoundProvenance>,
}

impl FlowResult {
    /// Number of detect rounds run (≥ 1).
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Conflicts detected in the final round (0 when converged).
    pub fn final_conflicts(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.conflicts)
    }

    /// Whether the flow never walked the degradation ladder: every
    /// detection stage ran exactly and no cover was truncated. Benign
    /// skips (a converged round with nothing to correct, the round cap)
    /// don't count; a budget-stopped final round (all stages skipped)
    /// does.
    pub fn all_exact(&self) -> bool {
        self.provenance.iter().all(|p| {
            p.build.is_exact()
                && p.bipartize.is_exact()
                && !matches!(p.correct, StageProvenance::Degraded(_))
        })
    }
}

/// Runs the full bright-field AAPSM flow on a layout:
///
/// 1. extract features/shifters/overlaps,
/// 2. detect the minimal conflict set (phase conflict graph →
///    planarization → dual-T-join bipartization → recheck),
/// 3. plan and apply end-to-end space insertion,
/// 4. **verify** the corrected layout and repeat from 3 until no
///    conflicts remain (or [`FlowConfig::max_rounds`] is hit — the result
///    then has `verified == false`),
/// 5. phase-assign the corrected layout.
///
/// A round after cuts first runs [`certify_cuts`] on the previous
/// round's extraction. A verified certificate converges the flow with its
/// assignment (the propagation of [`check_assignable`] over the previous
/// round's constraints less the corrected conflicts) and costs no
/// extraction, graph build, crossing sweep, planarization or T-join. A
/// refused one falls back to the corrected layout's extraction, derived
/// from the previous one by [`derive_cut_geometry`] where it can be, and
/// runs [`check_assignable`]; only a failed check detects, from scratch,
/// so every detecting round's report is [`crate::detect_conflicts`] on
/// the round's extracted geometry. The resident service's
/// [`crate::RedetectEngine`] detects its edits that way, one layout at a
/// time.
///
/// Under a limited [`FlowConfig::budget`] the flow degrades gracefully
/// where a cheaper valid method exists (see [`RoundProvenance`]) and
/// stops early — returning the partial result with `verified == false` —
/// when the budget trips between rounds; only an entry-expired budget or
/// a trip inside a graph build errors.
///
/// # Errors
///
/// * [`FlowError::BadRules`] for inconsistent design rules;
/// * [`FlowError::BadLayout`] for layouts failing [`Layout::sanitize`];
/// * [`FlowError::Uncorrectable`] when some conflicts cannot be fixed by
///   spacing (T-shape-like cases the paper routes to feature widening or
///   mask splitting);
/// * [`FlowError::Budget`] when the budget is exhausted with nothing to
///   return;
/// * [`FlowError::WorkerPanic`] when a worker panic survives the retry.
pub fn run_flow(
    layout: &Layout,
    rules: &DesignRules,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    rules.validate().map_err(FlowError::BadRules)?;
    layout.sanitize(rules).map_err(FlowError::BadLayout)?;
    let budget = &config.budget;
    budget.check(Stage::GraphBuild).map_err(FlowError::Budget)?;
    // Panic isolation: `par_map_indexed` already retries a panicked item
    // once serially; a panic that survives that retry (or one on the
    // calling thread) is converted to a structured error here rather
    // than unwinding through the caller.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_flow_inner(layout, rules, config, budget)
    })) {
        Ok(result) => result,
        Err(payload) => Err(FlowError::WorkerPanic(panic_message(payload.as_ref()))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panic".to_string()
    }
}

/// A layout's phase geometry with its extraction's [`ScanRecord`].
type Extraction = (PhaseGeometry, ScanRecord);

/// One round's detection: extract `layout`, then detect it from scratch
/// through the flow's shared solve cache, if any.
fn detect_round(
    layout: &Layout,
    rules: &DesignRules,
    config: &FlowConfig,
    budget: &Budget,
) -> Result<(Extraction, PipelineOutcome), BudgetExceeded> {
    let extraction = extract_phase_geometry_recorded(layout, rules, config.detect.parallelism);
    let out = detect_geometry_budgeted(
        &extraction.0,
        &config.detect,
        config.solve_cache.as_ref(),
        budget,
    )?;
    Ok((extraction, out))
}

/// A round after cuts: `layout` is what `plan`'s cuts made of the layout
/// `prev` was extracted from, and `report` is `prev`'s detection. Makes
/// the round's [`Stage::GraphBuild`] charge, then certifies `layout` from
/// `prev` ([`certify_cuts`]); a verified certificate is the round's whole
/// verdict, and the round keeps `prev` (`None`: the cuts kept its
/// features and shifters). A refused one derives `layout`'s extraction
/// from `prev` ([`derive_cut_geometry`]; it extracts only where the
/// derivation declines) and runs [`check_assignable`] before any graph
/// is built: by Theorem 1 an
/// assignable geometry has a bipartite conflict graph and no direct
/// conflicts, so detection would report nothing. Only a failed check
/// builds the graph and detects.
///
/// Returns the round's extraction, detection and verdict, so the flow's
/// final verification does not repeat it.
fn redetect_round(
    prev: &Extraction,
    report: &DetectReport,
    plan: &CorrectionPlan,
    layout: &Layout,
    rules: &DesignRules,
    config: &FlowConfig,
    budget: &Budget,
) -> Result<(Option<Extraction>, PipelineOutcome, Verdict), BudgetExceeded> {
    charge_graph_build(&prev.0, budget)?;
    // Condition one of the certificate: every conflict is an overlap the
    // plan corrects. The other two are `certify_cuts`'s own.
    let corrected: Option<Vec<usize>> = if plan.uncorrectable.is_empty() {
        report
            .conflicts
            .iter()
            .map(|c| match c.constraint {
                ConstraintKind::Overlap(oi) => Some(oi),
                ConstraintKind::Flank(_) | ConstraintKind::Direct(_) => None,
            })
            .collect()
    } else {
        None
    };
    if let Some(corrected) = corrected {
        if let Ok(assignment) = certify_cuts(&prev.0, &prev.1, rules, &plan.cuts, &corrected) {
            debug_assert!(
                extraction_agrees(layout, rules, &assignment),
                "a certified layout must re-extract as assignable under the certificate's assignment"
            );
            return Ok((None, PipelineOutcome::converged(), Ok(assignment)));
        }
    }
    let extraction = match derive_cut_geometry(&prev.0, &prev.1, rules, &plan.cuts) {
        Some(derived) => {
            let extraction = (derived.geometry, derived.record);
            debug_assert!(
                extract_phase_geometry_recorded(layout, rules, 1) == extraction,
                "a derived extraction must equal the re-extraction"
            );
            extraction
        }
        None => extract_phase_geometry_recorded(layout, rules, config.detect.parallelism),
    };
    let geom = &extraction.0;
    let verdict = check_assignable(geom);
    let out = if verdict.is_ok() {
        PipelineOutcome::converged()
    } else {
        detect_charged_geometry(geom, &config.detect, config.solve_cache.as_ref(), budget)
    };
    Ok((Some(extraction), out, verdict))
}

/// Whether a fresh extraction of `layout` is assignable and satisfied by
/// `assignment`: the independent check of a verified certificate that
/// debug builds run.
fn extraction_agrees(layout: &Layout, rules: &DesignRules, assignment: &PhaseAssignment) -> bool {
    let geom = extract_phase_geometry(layout, rules);
    check_assignable(&geom).is_ok() && assignment.satisfies(&geom)
}

/// A [`check_assignable`] result.
type Verdict = Result<PhaseAssignment, AssignabilityWitness>;

// Invariant, not an error path: the loop runs at least once, and its
// first iteration records the first-round snapshot.
#[allow(clippy::expect_used)]
fn run_flow_inner(
    layout: &Layout,
    rules: &DesignRules,
    config: &FlowConfig,
    budget: &Budget,
) -> Result<FlowResult, FlowError> {
    // One budget for the whole flow: the correction planner's cover
    // solves charge the detection budget.
    let correct_options = CorrectionOptions {
        budget: budget.clone(),
        ..config.correct.clone()
    };
    let mut current = layout.clone();
    let mut rounds: Vec<FlowRound> = Vec::new();
    let mut provenance: Vec<RoundProvenance> = Vec::new();
    let mut first: Option<(DetectReport, CorrectionPlan)> = None;
    // `last` is the extraction of the last layout a round extracted: a
    // certified round keeps the pre-cut one (its features and shifters
    // are the corrected layout's), and a budget-stopped round leaves it
    // one round behind. The first round's geometry moves out of it into
    // `first_geometry` when a later round extracts.
    let mut first_geometry: Option<PhaseGeometry> = None;
    let (mut last, out) =
        detect_round(&current, rules, config, budget).map_err(FlowError::Budget)?;
    let (mut report, mut bip_prov) = out.into_report();
    // The verdict on `current`, once a round after cuts has reached one.
    let mut verdict: Option<Verdict> = None;
    let mut recorded_final = false;
    let mut budget_stopped = false;
    for _correction_round in 0..config.max_rounds.max(1) {
        let plan = plan_correction(&last.0, &report.conflicts, rules, &correct_options);
        if first.is_none() {
            first = Some((report.clone(), plan.clone()));
        }
        if report.conflict_count() == 0 {
            rounds.push(FlowRound {
                conflicts: 0,
                cuts: 0,
            });
            provenance.push(RoundProvenance {
                build: StageProvenance::Exact,
                bipartize: bip_prov.clone(),
                correct: StageProvenance::Skipped("no conflicts to correct".to_string()),
            });
            recorded_final = true;
            break;
        }
        if !plan.uncorrectable.is_empty() {
            if rounds.is_empty() {
                // First detection: the error's indices address the
                // report the caller would have received.
                return Err(FlowError::Uncorrectable(plan.uncorrectable));
            }
            // A *cut-created* conflict with no legal correction line:
            // stop correcting and return the partial result (verified
            // = false, remaining conflicts in the final round) instead
            // of an error whose indices would address a report the
            // caller never sees.
            rounds.push(FlowRound {
                conflicts: report.conflict_count(),
                cuts: 0,
            });
            provenance.push(RoundProvenance {
                build: StageProvenance::Exact,
                bipartize: bip_prov.clone(),
                correct: StageProvenance::Skipped(
                    "cut-created conflicts have no legal correction line".to_string(),
                ),
            });
            recorded_final = true;
            break;
        }
        rounds.push(FlowRound {
            conflicts: report.conflict_count(),
            cuts: plan.cuts.len(),
        });
        provenance.push(RoundProvenance {
            build: StageProvenance::Exact,
            bipartize: bip_prov.clone(),
            correct: if plan.cover_optimal {
                StageProvenance::Exact
            } else {
                StageProvenance::Degraded(
                    "cover search truncated (node limit or budget); feasible incumbent kept"
                        .to_string(),
                )
            },
        });
        debug_assert!(!plan.cuts.is_empty(), "correctable conflicts yield cuts");
        current = apply_cuts(&current, &plan.cuts);
        match redetect_round(&last, &report, &plan, &current, rules, config, budget) {
            Ok((extraction, out, checked)) => {
                if let Some(extraction) = extraction {
                    let previous = std::mem::replace(&mut last, extraction);
                    first_geometry.get_or_insert(previous.0);
                }
                (report, bip_prov) = out.into_report();
                verdict = Some(checked);
            }
            Err(e) => {
                // The cuts just applied were planned from a *verified*
                // detection, so `current` is a sound partial result; only
                // its re-verification is missing. Record a truthfully
                // skipped final round and stop.
                rounds.push(FlowRound {
                    conflicts: 0,
                    cuts: 0,
                });
                provenance.push(RoundProvenance::skipped(&format!(
                    "re-detection stopped by budget: {e}"
                )));
                budget_stopped = true;
                recorded_final = true;
                break;
            }
        }
    }
    if !recorded_final {
        // Round cap hit: record the last re-detection (converged or not)
        // without planning another correction.
        rounds.push(FlowRound {
            conflicts: report.conflict_count(),
            cuts: 0,
        });
        provenance.push(RoundProvenance {
            build: StageProvenance::Exact,
            bipartize: bip_prov.clone(),
            correct: StageProvenance::Skipped("round cap reached".to_string()),
        });
    }

    let (detection, plan) = first.expect("at least one round ran");
    let converged = !budget_stopped && report.conflict_count() == 0;
    let (assignment, assignable) = if budget_stopped {
        // `last` predates the final (unverified) cuts; skip the check
        // and return the trivial assignment with verified = false.
        (
            PhaseAssignment {
                phase: vec![0; last.0.shifters.len()],
            },
            false,
        )
    } else {
        match verdict.unwrap_or_else(|| check_assignable(&last.0)) {
            Ok(a) => (a, true),
            Err(_) => (
                // Verification failed; return the trivial assignment with
                // verified = false so callers can inspect.
                PhaseAssignment {
                    phase: vec![0; last.0.shifters.len()],
                },
                false,
            ),
        }
    };
    let verified = converged && assignable;
    let correction = CorrectionReport::from_modified(current, layout.stats().bbox_area, verified);
    Ok(FlowResult {
        geometry: first_geometry.unwrap_or(last.0),
        detection,
        plan,
        correction,
        assignment,
        verified,
        rounds,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_layout::{extract_phase_geometry, fixtures};

    #[test]
    fn flow_on_clean_layout_is_identity() {
        let rules = DesignRules::default();
        let layout = fixtures::wire_row(6, 600);
        let res = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
        assert_eq!(res.detection.conflict_count(), 0);
        assert!(res.plan.cuts.is_empty());
        assert_eq!(res.correction.modified, layout);
        assert!(res.verified);
        assert!(res.all_exact(), "provenance: {:?}", res.provenance);
        assert_eq!(res.provenance.len(), res.rounds.len());
    }

    #[test]
    fn flow_fixes_conflicting_fixture() {
        let rules = DesignRules::default();
        let layout = fixtures::strap_under_bus(5, &rules);
        let res = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
        assert!(res.detection.conflict_count() > 0);
        assert!(res.verified);
        assert_eq!(res.geometry, extract_phase_geometry(&layout, &rules));
        // The assignment satisfies the corrected geometry.
        let geom = extract_phase_geometry(&res.correction.modified, &rules);
        assert!(res.assignment.satisfies(&geom));
        // Unbudgeted rounds are all-exact except the final skip reason.
        assert_eq!(res.provenance.len(), res.rounds.len());
        for p in &res.provenance {
            assert!(p.build.is_exact());
            assert!(p.bipartize.is_exact());
        }
    }

    #[test]
    fn bad_rules_rejected() {
        let rules = DesignRules {
            shifter_width: -1,
            ..DesignRules::default()
        };
        assert!(matches!(
            run_flow(&fixtures::wire_row(2, 600), &rules, &FlowConfig::default()),
            Err(FlowError::BadRules(_))
        ));
    }

    #[test]
    fn bad_layout_rejected() {
        let rules = DesignRules::default();
        let mut rects = fixtures::wire_row(2, 600).rects().to_vec();
        rects.push(rects[0]); // exact duplicate
        let layout = aapsm_layout::Layout::from_rects(rects);
        assert!(matches!(
            run_flow(&layout, &rules, &FlowConfig::default()),
            Err(FlowError::BadLayout(LayoutError::DuplicateRect { .. }))
        ));
    }

    #[test]
    fn two_round_fixture_converges_with_round_accounting() {
        // The corridor-unblock fixture: round 1's cut stretches the
        // straps and opens a previously blocked corridor, so a *new*
        // conflict appears and a second correction round is required.
        let rules = DesignRules::default();
        let layout = fixtures::corridor_unblock_two_round(&rules);
        let res = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
        assert!(res.verified);
        assert_eq!(res.round_count(), 3, "rounds: {:?}", res.rounds);
        assert_eq!(res.rounds[0].conflicts, 1);
        assert!(res.rounds[0].cuts >= 1);
        assert_eq!(res.rounds[1].conflicts, 1, "rounds: {:?}", res.rounds);
        assert_eq!(res.rounds[2].conflicts, 0);
        assert_eq!(res.final_conflicts(), 0);
        // The result carries the input's geometry, not a later round's.
        assert_eq!(res.geometry, extract_phase_geometry(&layout, &rules));
        // Single-round flows must not regress: the bus fixture still
        // converges after one correction.
        let bus = run_flow(
            &fixtures::strap_under_bus(5, &rules),
            &rules,
            &FlowConfig::default(),
        )
        .unwrap();
        assert_eq!(bus.round_count(), 2, "rounds: {:?}", bus.rounds);
        assert_eq!(bus.final_conflicts(), 0);
    }

    #[test]
    fn later_round_uncorrectable_returns_partial_result() {
        // The two-round fixture plus a far-away horizontal wall whose
        // forbidden y-span outlaws every correction candidate of the
        // round-2 (cut-created) conflict: the flow must stop with an
        // inspectable partial result, not an error indexing a report the
        // caller never sees.
        let rules = DesignRules::default();
        let mut rects = fixtures::corridor_unblock_two_round(&rules)
            .rects()
            .to_vec();
        rects.push(aapsm_geom::Rect::new(5000, 99, 6000, 601));
        let layout = aapsm_layout::Layout::from_rects(rects);
        let res = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
        assert!(!res.verified);
        assert_eq!(res.round_count(), 2, "rounds: {:?}", res.rounds);
        assert!(res.final_conflicts() > 0);
        assert_eq!(res.rounds[1].cuts, 0, "no further correction attempted");
        assert!(
            matches!(res.provenance[1].correct, StageProvenance::Skipped(_)),
            "provenance: {:?}",
            res.provenance
        );
    }

    #[test]
    fn first_round_uncorrectable_errors_with_first_report_indices() {
        // The two-round fixture's round-0 conflict has exactly two legal
        // correction lines, x = 950 and x = 951. A far-away wide (so
        // non-critical) wall spanning both outlaws them: the flow must
        // error, and the indices must address the report of a plain
        // detection of the input.
        let rules = DesignRules::default();
        let mut rects = fixtures::corridor_unblock_two_round(&rules)
            .rects()
            .to_vec();
        rects.push(aapsm_geom::Rect::new(900, 5000, 1600, 6000));
        let layout = aapsm_layout::Layout::from_rects(rects);
        let Err(FlowError::Uncorrectable(indices)) =
            run_flow(&layout, &rules, &FlowConfig::default())
        else {
            panic!("a round-0 conflict with no legal line must error");
        };
        let geom = extract_phase_geometry(&layout, &rules);
        let report = crate::detect_conflicts(&geom, &DetectConfig::default());
        assert_eq!(report.conflict_count(), 1, "{:?}", report.conflicts);
        assert_eq!(indices, vec![0]);
        let plan = plan_correction(
            &geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        assert_eq!(indices, plan.uncorrectable);
    }

    #[test]
    fn round_cap_reports_unconverged() {
        let rules = DesignRules::default();
        let layout = fixtures::corridor_unblock_two_round(&rules);
        let res = run_flow(
            &layout,
            &rules,
            &FlowConfig {
                max_rounds: 1,
                ..FlowConfig::default()
            },
        )
        .unwrap();
        // One correction round is not enough for this fixture.
        assert!(!res.verified);
        assert_eq!(res.round_count(), 2);
        assert!(res.final_conflicts() > 0);
        assert!(
            matches!(res.provenance[1].correct, StageProvenance::Skipped(_)),
            "provenance: {:?}",
            res.provenance
        );
    }

    #[test]
    fn flow_on_synthetic_design() {
        let rules = DesignRules::default();
        let layout =
            aapsm_layout::synth::generate(&aapsm_layout::synth::SynthParams::default(), &rules);
        let res = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
        assert!(res.verified);
        assert!(res.correction.area_increase_pct >= 0.0);
    }
}
