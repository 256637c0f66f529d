//! End-to-end benchmark of the bright-field AAPSM flow.
//!
//! Every workload drives the library from outside, through its public
//! entry points, on inputs generated from a workload seed. One run times
//! the workload's operation for a fixed wall-clock window with tracing
//! off and reports the end-to-end metrics; a separate traced run replays
//! the same operations stage by stage through the public stage entry
//! points and reports the per-layer metrics. Every answer is checked
//! against an oracle outside the timed region. See `README.md`.

pub mod catalog;
pub mod flow;
pub mod hier;
pub mod inputs;
pub mod json;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;

use report::{Checker, Outcome};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One full-chip layout through GDS → `run_flow` → GDS.
    FlowFullchip,
    /// A batch of conflict-rich blocks through GDS → `run_flow` → GDS.
    FlowCover,
    /// A resident service under a closed-loop ECO edit stream.
    ServiceEco,
    /// A hierarchical library through `read_gds_hier` → `detect_hier`.
    HierGrid,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 4] = [
        Workload::FlowFullchip,
        Workload::FlowCover,
        Workload::ServiceEco,
        Workload::HierGrid,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowFullchip => "flow_fullchip",
            Workload::FlowCover => "flow_cover",
            Workload::ServiceEco => "service_eco",
            Workload::HierGrid => "hier_grid",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own sizes, or tiny ones for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is specified and measured at.
    Full,
    /// Small inputs that exercise every code path and oracle in well
    /// under a second, for the benchmark's own tests.
    Smoke,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Corrupt every answer before it is checked. Exists so the tests can
    /// show that a wrong answer is caught and counted as failed.
    pub tamper: bool,
}

/// Set-up runs this many times in an untraced run; `setup_s` is the
/// median, so a one-off stall in set-up does not move it.
pub const SETUP_REPEATS: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times in an untraced run (once in a
/// traced run, which does not report `setup_s`) and returns the last
/// result with the median set-up time in seconds.
pub fn repeated_setup<T>(config: &RunConfig, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if config.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut last: Option<T> = None;
    for _ in 0..repeats {
        // Drop the previous set-up's state first, so every repeat starts
        // from the same memory state.
        drop(last.take());
        let t = std::time::Instant::now();
        let out = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    let median = stats::median(&times);
    (last.expect("at least one set-up ran"), median)
}

/// Runs one workload and returns everything it measured and checked.
pub fn run(config: &RunConfig) -> Outcome {
    let mut checker = Checker::new(config.tamper);
    let mut outcome = match config.workload {
        Workload::FlowFullchip | Workload::FlowCover => flow::run(config, &mut checker),
        Workload::ServiceEco => service::run(config, &mut checker),
        Workload::HierGrid => hier::run(config, &mut checker),
    };
    outcome.finish(config, checker);
    outcome
}
