//! `service_eco`: a resident `DetectionService` under a closed-loop ECO
//! edit stream. Each operation is one ECO step on one session: a warm
//! `Detect` (the editor's read), then an `ApplyCuts` inserting the space
//! that fixes one conflict (the write, which commits).

use crate::inputs::{self, derive_seed, hash_layout};
use crate::report::{ensure, Checker, Outcome};
use crate::stats::{self, mean, median, quantile};
use crate::{repeated_setup, RunConfig};
use aapsm::core::{
    detect_conflicts, plan_correction, Conflict, CorrectionOptions, DetectConfig, RedetectEngine,
    RedetectStats,
};
use aapsm::geom::Axis;
use aapsm::layout::{apply_cuts, extract_phase_geometry, DesignRules, Layout, SpaceCut};
use aapsm::service::{DetectionService, Request, Response, ResponseKind, ServiceConfig, SessionId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Edits per session replayed directly for `service.overhead_ms`.
const REPLAY_EDITS: usize = 40;

/// Edits prepared per session: far more than a run applies, so the
/// closed loop never runs dry.
fn script_len(scale: crate::Scale) -> usize {
    match scale {
        crate::Scale::Full => 320,
        crate::Scale::Smoke => 12,
    }
}

struct Session {
    original: Layout,
    id: SessionId,
    /// Cold-detection conflicts from a serial `detect_conflicts` oracle.
    oracle: Vec<Conflict>,
    /// The edit script: one space insertion per step.
    script: Vec<SpaceCut>,
}

struct Prepared {
    service: DetectionService,
    sessions: Vec<Session>,
}

/// The edit script of one session: the cuts that fix single conflicts,
/// for a sample of the session's conflicts drawn with `seed`. Each axis is applied
/// in descending position, so an earlier cut never moves the geometry a
/// later cut was planned on (a cut shifts only what lies above its
/// position, and the two axes do not move each other's coordinates).
fn edit_script(
    geom: &aapsm::layout::PhaseGeometry,
    conflicts: &[Conflict],
    rules: &DesignRules,
    seed: u64,
    len: usize,
) -> Vec<SpaceCut> {
    let mut order: Vec<usize> = (0..conflicts.len()).collect();
    // Seeded Fisher-Yates.
    for i in (1..order.len()).rev() {
        let j = (derive_seed(seed, 5, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut by_axis: [Vec<SpaceCut>; 2] = [Vec::new(), Vec::new()];
    let options = CorrectionOptions::default();
    for &c in &order {
        if by_axis[0].len() + by_axis[1].len() >= len {
            break;
        }
        let plan = plan_correction(geom, &conflicts[c..=c], rules, &options);
        if let [cut] = plan.cuts.as_slice() {
            let axis = usize::from(cut.axis == Axis::Y);
            if by_axis[axis].iter().all(|o| o.position != cut.position) {
                by_axis[axis].push(*cut);
            }
        }
    }
    for cuts in &mut by_axis {
        cuts.sort_by_key(|c| std::cmp::Reverse(c.position));
    }
    let [xs, ys] = by_axis;
    let mut script = Vec::with_capacity(xs.len() + ys.len());
    let (mut xs, mut ys) = (xs.into_iter(), ys.into_iter());
    loop {
        match (xs.next(), ys.next()) {
            (None, None) => break,
            (x, y) => script.extend(x.into_iter().chain(y)),
        }
    }
    script
}

fn service_config(rules: DesignRules) -> ServiceConfig {
    ServiceConfig {
        workers: stats::nproc(),
        request_parallelism: 1,
        ..ServiceConfig::new(rules)
    }
}

fn conflicts_of(response: &Response) -> Result<(&[Conflict], &RedetectStats), String> {
    match &response.kind {
        ResponseKind::Detection {
            conflicts, stats, ..
        } => Ok((conflicts, stats)),
        other => Err(format!("expected a detection, got {other:?}")),
    }
}

fn setup(config: &RunConfig, rules: &DesignRules) -> Result<Prepared, String> {
    let layouts = inputs::service_sessions(config.seed, config.scale, rules);
    let service = DetectionService::start(service_config(*rules))
        .map_err(|e| format!("service start: {e}"))?;
    let mut sessions = Vec::with_capacity(layouts.len());
    for (i, layout) in layouts.into_iter().enumerate() {
        let geom = extract_phase_geometry(&layout, rules);
        let oracle = detect_conflicts(&geom, &DetectConfig::default()).conflicts;
        // The script is part of the input's structure, so it does not
        // depend on the workload seed (see `inputs`).
        let script = edit_script(
            &geom,
            &oracle,
            rules,
            derive_seed(0, 6, i as u64),
            script_len(config.scale),
        );
        let id = service
            .open_session(layout.clone())
            .map_err(|e| format!("open session: {e}"))?;
        // The cold first detection is set-up: it builds the session's
        // warm engine.
        let cold = service
            .request(id, Request::Detect)
            .map_err(|e| format!("cold detect: {e}"))?;
        let (conflicts, _) = conflicts_of(&cold)?;
        ensure(!cold.degraded() && conflicts == oracle.as_slice(), || {
            format!("session {i}: cold detection differs from the oracle")
        })?;
        sessions.push(Session {
            original: layout,
            id,
            oracle,
            script,
        });
    }
    Ok(Prepared { service, sessions })
}

/// One client-side request: latencies split at the submit/wait boundary.
struct Sample {
    apply: bool,
    submit_ms: f64,
    wait_ms: f64,
    response: Result<Response, String>,
}

impl Sample {
    fn ms(&self) -> f64 {
        self.submit_ms + self.wait_ms
    }
}

fn request(service: &DetectionService, id: SessionId, req: Request) -> Sample {
    let apply = matches!(req, Request::ApplyCuts(_));
    let t = Instant::now();
    let ticket = service.submit(id, req);
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let response = ticket.and_then(|t| t.wait()).map_err(|e| e.to_string());
    let wait_ms = t.elapsed().as_secs_f64() * 1e3;
    Sample {
        apply,
        submit_ms,
        wait_ms,
        response,
    }
}

/// Per session, the requests it received in order.
type Log = Vec<(usize, Vec<Sample>)>;

/// The closed loop: `clients` threads, each owning every `clients`-th
/// session, issue ECO steps round-robin over their sessions until the
/// window closes (at least one round) or a script runs out.
fn closed_loop(prepared: &Prepared, seconds: f64, clients: usize) -> (Log, f64) {
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let service = &prepared.service;
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mine: Vec<(usize, &Session)> = prepared
                    .sessions
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == c)
                    .collect();
                scope.spawn(move || {
                    let mut log: Log = mine.iter().map(|(i, _)| (*i, Vec::new())).collect();
                    let mut step = 0usize;
                    'run: loop {
                        for (slot, (_, session)) in mine.iter().enumerate() {
                            let Some(cut) = session.script.get(step) else {
                                break 'run;
                            };
                            let samples = &mut log[slot].1;
                            samples.push(request(service, session.id, Request::Detect));
                            samples.push(request(
                                service,
                                session.id,
                                Request::ApplyCuts(vec![*cut]),
                            ));
                        }
                        step += 1;
                        if start.elapsed() >= window {
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    (logs.into_iter().flatten().collect(), wall)
}

/// Checks one session's request log: every answer non-degraded, every
/// warm `Detect` equal to the session's previous answer, and the final
/// state equal to a from-scratch detection of the expected layout.
fn check_session(
    prepared: &Prepared,
    session: &Session,
    samples: &[Sample],
    rules: &DesignRules,
    checker: &mut Checker,
) {
    let mut previous: Vec<Conflict> = session.oracle.clone();
    let mut expected = session.original.clone();
    let mut applied = 0usize;
    for sample in samples {
        let verdict = (|| -> Result<(), String> {
            let response = sample.response.as_ref().map_err(Clone::clone)?;
            ensure(!response.degraded(), || "degraded answer".to_string())?;
            let (conflicts, _) = conflicts_of(response)?;
            let mut conflicts = conflicts.to_vec();
            if checker.tamper() {
                conflicts.pop();
            }
            if sample.apply {
                expected = apply_cuts(&expected, &session.script[applied..=applied]);
                applied += 1;
            } else {
                ensure(conflicts == previous, || {
                    "warm Detect differs from the session's last answer".to_string()
                })?;
            }
            previous = conflicts;
            Ok(())
        })();
        checker.record(verdict);
    }
    // The session's final state, against scratch.
    let verdict = (|| -> Result<(), String> {
        let layout = prepared
            .service
            .session_layout(session.id)
            .map_err(|e| e.to_string())?;
        ensure(layout == expected, || {
            "session layout differs from the edits applied".to_string()
        })?;
        let scratch = detect_conflicts(
            &extract_phase_geometry(&expected, rules),
            &DetectConfig::default(),
        );
        ensure(scratch.conflicts == previous, || {
            "final answer differs from a from-scratch detection".to_string()
        })
    })();
    checker.record(verdict);
}

/// Runs `service_eco`.
pub fn run(config: &RunConfig, checker: &mut Checker) -> Outcome {
    let rules = DesignRules::default();
    let (prepared, setup_s) = repeated_setup(config, || setup(config, &rules));
    let mut outcome = Outcome {
        parallelism: 1,
        service_workers: stats::nproc(),
        ..Outcome::default()
    };
    let prepared = match prepared {
        Ok(p) => p,
        Err(msg) => {
            checker.record(Err(msg));
            return outcome;
        }
    };
    outcome.input_hashes = prepared
        .sessions
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("rows_x16.{i}"), hash_layout(&s.original)))
        .collect();
    let clients = stats::nproc().min(prepared.sessions.len()).max(1);
    let (log, wall) = closed_loop(&prepared, config.seconds, clients);
    for (i, samples) in &log {
        check_session(&prepared, &prepared.sessions[*i], samples, &rules, checker);
    }
    if config.trace {
        traced(&prepared, &log, &rules, &mut outcome, wall);
    } else {
        // Each session's log alternates Detect and ApplyCuts: one pair is
        // one ECO step.
        let steps: Vec<f64> = log
            .iter()
            .flat_map(|(_, s)| s.chunks(2))
            .map(|p| p.iter().map(|s| s.ms()).sum())
            .collect();
        outcome.set("setup_s", setup_s);
        outcome.set("op_p50_ms", median(&steps));
        outcome.set("ops_per_s", steps.len() as f64 / wall);
        outcome.set(
            "conflicts",
            prepared
                .sessions
                .iter()
                .map(|s| s.oracle.len())
                .sum::<usize>() as f64,
        );
    }
    let report = prepared.service.shutdown(Duration::from_secs(60));
    if !report.within_deadline {
        checker.record(Err("service did not drain within 60 s".to_string()));
    }
    outcome
}

/// Per-layer metrics of the service run: request latencies by type, the
/// submit/wait split, supervision counters, re-detect statistics from the
/// responses, and the service's overhead over a direct engine replay of
/// the same edits.
fn traced(prepared: &Prepared, log: &Log, rules: &DesignRules, outcome: &mut Outcome, wall: f64) {
    let samples: Vec<&Sample> = log.iter().flat_map(|(_, s)| s).collect();
    let n = samples.len() as f64;
    let of = |apply: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.apply == apply)
            .map(|s| s.ms())
            .collect()
    };
    let (detects, applies) = (of(false), of(true));
    let p90 = |v: &[f64]| quantile(v, 0.9).unwrap_or(0.0);
    outcome.set("service.detect_p50_ms", median(&detects));
    outcome.set("service.detect_p90_ms", p90(&detects));
    outcome.set("service.apply_p50_ms", median(&applies));
    outcome.set("service.apply_p90_ms", p90(&applies));
    outcome.set("service.requests_per_s", n / wall);
    outcome.set(
        "service.submit_ms",
        mean(&samples.iter().map(|s| s.submit_ms).collect::<Vec<_>>()),
    );
    outcome.set(
        "service.wait_ms",
        mean(&samples.iter().map(|s| s.wait_ms).collect::<Vec<_>>()),
    );

    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut redetects, mut incremental, mut hits, mut lookups) = (0.0, 0.0, 0.0, 0.0);
    for s in &samples {
        let Ok(r) = &s.response else { continue };
        *counts.entry("service.queue_depth").or_insert(0.0) += r.queue_depth_at_admission as f64;
        *counts.entry("service.attempts").or_insert(0.0) += f64::from(r.attempts);
        if let Ok((_, st)) = conflicts_of(r) {
            redetects += 1.0;
            incremental += f64::from(u8::from(st.incremental));
            hits += st.solve_hits as f64;
            lookups += (st.solve_hits + st.solve_misses) as f64;
            for (name, v) in [
                (
                    "redetect.extraction_fallbacks",
                    f64::from(u8::from(st.extraction_fallback)),
                ),
                ("redetect.reused_overlaps", st.reused_overlaps as f64),
                ("redetect.rescanned_pairs", st.rescanned_pairs as f64),
                ("redetect.tiles_reused", st.tiles_reused as f64),
                ("redetect.tiles_rebuilt", st.tiles_rebuilt as f64),
            ] {
                *counts.entry(name).or_insert(0.0) += v;
            }
        }
    }
    outcome.set_counts(&counts, samples.len());
    outcome.set(
        "redetect.incremental_share",
        stats::ratio(incremental, redetects),
    );
    outcome.set("redetect.solve_hit_share", stats::ratio(hits, lookups));

    let m = prepared.service.metrics();
    outcome.set("service.retries", m.retries as f64);
    outcome.set(
        "service.rejected",
        (m.rejected_overload + m.rejected_breaker) as f64,
    );
    outcome.set("service.degraded", m.degraded as f64);
    let cache = prepared.service.cache_stats();
    outcome.set(
        "cache.hit_share",
        stats::ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    outcome.set("cache.evictions", cache.evictions as f64);

    // Direct replay: each session's first edits through a bare engine,
    // outside the service; the difference to the client latency of the
    // same edits is what the service layer costs.
    let mut direct_ms = Vec::new();
    let mut client_ms = Vec::new();
    for (i, samples) in log {
        let session = &prepared.sessions[*i];
        let mut engine = RedetectEngine::new(*rules, DetectConfig::default());
        engine.detect_full(&session.original);
        let mut layout = session.original.clone();
        let applies = samples.iter().filter(|s| s.apply).take(REPLAY_EDITS);
        for (cut, sample) in session.script.iter().zip(applies) {
            let t = Instant::now();
            layout = apply_cuts(&layout, std::slice::from_ref(cut));
            std::hint::black_box(
                engine.redetect_after_correction(&layout, std::slice::from_ref(cut)),
            );
            direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
            client_ms.push(sample.ms());
        }
    }
    outcome.set("service.overhead_ms", mean(&client_ms) - mean(&direct_ms));
    outcome.set("core.redetect_ms", mean(&direct_ms));
}
