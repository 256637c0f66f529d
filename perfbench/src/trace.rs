//! Spans recorded by the traced run, around each call the benchmark makes
//! into a layer. Nothing here reaches inside the library: a stage without
//! a public entry point of its own is a *derived* child span, laid out
//! from the statistics its enclosing call returns, or the named residual
//! of that call.
//!
//! Spans stay in memory and are written out with the run record.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are microseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// Span id, unique within the run.
    pub id: u32,
    /// The span that caused this one (`None` for an operation's stages).
    pub parent: Option<u32>,
    /// Stage name, `layer.stage`.
    pub name: &'static str,
    /// Start, µs since the tracer started.
    pub start_us: f64,
    /// End, µs since the tracer started.
    pub end_us: f64,
    /// A stand-alone re-run of a stage that the operation executes
    /// inside an enclosing call: measured on the operation's own input
    /// after the operation, and excluded from its attribution.
    pub probe: bool,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Starts the next operation; later spans carry its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: f64,
        end: f64,
        probe: bool,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_us: start,
            end_us: end,
            probe,
        });
        id
    }

    /// Runs `f` inside a stage span of the current operation.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u32) {
        self.timed(name, false, f)
    }

    /// Runs `f` inside a probe span (see [`Span::probe`]).
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, true, f).0
    }

    fn timed<T>(&mut self, name: &'static str, probe: bool, f: impl FnOnce() -> T) -> (T, u32) {
        let start = self.now_us();
        let out = std::hint::black_box(f());
        let end = self.now_us();
        (out, self.push(name, None, start, end, probe))
    }

    /// Splits span `parent` into consecutive child spans of the given
    /// durations (as the enclosing call reported them), followed by a
    /// child named `residual` covering whatever time is left.
    pub fn split(
        &mut self,
        parent: u32,
        parts: &[(&'static str, Duration)],
        residual: &'static str,
    ) {
        let (mut at, end) = {
            let p = &self.spans[parent as usize];
            (p.start_us, p.end_us)
        };
        for &(name, d) in parts {
            let next = (at + d.as_secs_f64() * 1e6).min(end);
            self.push(name, Some(parent), at, next, false);
            at = next;
        }
        self.push(residual, Some(parent), at, end, false);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per stage name, in ms: each span's duration minus
    /// the part its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p as usize] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ms) {
            *out.entry(s.name).or_insert(0.0) += (s.ms() - covered).max(0.0);
        }
        out
    }

    /// Per operation: (wall time from its first to its last stage span,
    /// total duration of its top-level stage spans), in ms. Probes are
    /// excluded from both.
    pub fn op_totals(&self) -> Vec<(f64, f64)> {
        let mut per_op: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_none() && !s.probe) {
            let e = per_op
                .entry(s.op)
                .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0.0));
            e.0 = e.0.min(s.start_us);
            e.1 = e.1.max(s.end_us);
            e.2 += s.ms();
        }
        per_op
            .values()
            .map(|&(start, end, sum)| ((end - start) / 1e3, sum))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin_op();
        let ((), id) = t.span("core.detect", || {
            std::thread::sleep(Duration::from_millis(3))
        });
        t.split(
            id,
            &[("core.build", Duration::from_millis(1))],
            "core.recheck",
        );
        let self_ms = t.self_ms();
        assert!(self_ms["core.detect"] < 1e-9, "{self_ms:?}");
        assert!((self_ms["core.build"] - 1.0).abs() < 1e-6);
        let total = self_ms["core.build"] + self_ms["core.recheck"];
        assert!((total - t.spans()[0].ms()).abs() < 1e-6);
        let totals = t.op_totals();
        assert_eq!(totals.len(), 1);
        assert!((totals[0].0 - totals[0].1).abs() < 1e-9);
    }
}
