//! Answer checking, run metadata, and the result line / run record.

use crate::catalog::{unit_of, END_TO_END, PER_LAYER};
use crate::json::{push_num, push_str};
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::{RunConfig, Scale};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts operations and their verdicts. Every answer the benchmark gets
/// goes through [`Checker::record`], outside the timed region.
pub struct Checker {
    tamper: bool,
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checker {
    /// A checker; with `tamper`, workloads corrupt each answer before
    /// checking it (see [`RunConfig::tamper`]).
    pub fn new(tamper: bool) -> Checker {
        Checker {
            tamper,
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
        }
    }

    /// Whether answers are to be corrupted before checking.
    pub fn tamper(&self) -> bool {
        self.tamper
    }

    /// Records one operation: `Ok` if its answer checked out, `Err` with
    /// the reason otherwise. A failure is reported loudly on stderr.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            eprintln!("perfbench: FAILED op {}: {msg}", self.attempted);
            if self.messages.len() < 16 {
                self.messages.push(msg);
            }
        }
    }
}

/// Returns `Err(what)` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// FNV-1a hash of each generated input, by input name.
    pub input_hashes: Vec<(String, u64)>,
    /// `DetectConfig::parallelism` the operations ran at.
    pub parallelism: usize,
    /// Service worker threads (0 where no service runs).
    pub service_workers: usize,
    /// Traced-run spans.
    pub spans: Vec<Span>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose answer was wrong, degraded or an error.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Catalog metrics the run should have emitted but did not.
    pub missing: Vec<&'static str>,
}

impl Outcome {
    /// Sets a catalog metric.
    ///
    /// # Panics
    ///
    /// On a name outside the catalog: a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.metrics.insert(name, value);
    }

    /// Sets `{stage}_ms` for every traced stage whose name has a catalog
    /// metric, as the stage's self time per traced operation.
    pub fn set_self_times(&mut self, self_ms: &BTreeMap<&'static str, f64>, ops: usize) {
        for (stage, total) in self_ms {
            let metric = format!("{stage}_ms");
            if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
                self.set(name, stats::ratio(*total, ops as f64));
            }
        }
    }

    /// Sets every per-operation count of `counts`, dividing by `ops`.
    pub fn set_counts(&mut self, counts: &BTreeMap<&'static str, f64>, ops: usize) {
        for (name, total) in counts {
            self.set(name, stats::ratio(*total, ops as f64));
        }
    }

    /// Sets `unattributed_ms` (untraced latency minus the traced
    /// operation's top-level spans) and `tracing_overhead_ms` (traced
    /// operation wall time minus untraced latency), and keeps the spans.
    pub fn set_trace_totals(&mut self, tracer: &Tracer, untraced_ms: &[f64]) {
        let totals = tracer.op_totals();
        let wall: Vec<f64> = totals.iter().map(|t| t.0).collect();
        let attributed: Vec<f64> = totals.iter().map(|t| t.1).collect();
        let untraced = stats::mean(untraced_ms);
        self.set("unattributed_ms", untraced - stats::mean(&attributed));
        self.set("tracing_overhead_ms", stats::mean(&wall) - untraced);
        self.spans = tracer.spans().to_vec();
    }

    /// Folds in the checker's counts and the process-level metrics, and
    /// notes catalog metrics the run did not produce. A traced run
    /// reports 0 for layers its workload never reaches.
    pub fn finish(&mut self, config: &RunConfig, checker: Checker) {
        self.attempted = checker.attempted;
        self.failed = checker.failed;
        self.failures = checker.messages;
        if config.trace {
            for (name, _) in PER_LAYER {
                self.metrics.entry(name).or_insert(0.0);
            }
            self.metrics
                .retain(|name, _| PER_LAYER.iter().any(|(n, _)| n == name));
        } else {
            let ok = self.attempted.saturating_sub(self.failed) as f64;
            self.set("verified_share", stats::ratio(ok, self.attempted as f64));
            if let Some(mb) = stats::peak_rss_mb() {
                self.set("peak_rss_mb", mb);
            }
            self.missing = END_TO_END
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !self.metrics.contains_key(n))
                .collect();
            self.metrics
                .retain(|name, _| END_TO_END.iter().any(|(n, _)| n == name));
        }
    }

    /// Whether every answer checked out and every metric was produced.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.missing.is_empty()
    }

    fn push_metrics(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(out, name);
            out.push_str(": {\"value\": ");
            push_num(out, *value);
            out.push_str(", \"unit\": ");
            push_str(out, unit_of(name).unwrap_or(""));
            out.push('}');
        }
        out.push('}');
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct(),
            self.attempted,
            self.failed
        );
        self.push_metrics(&mut out);
        out.push('}');
        out
    }

    /// The run record: metadata, result, failure messages and spans.
    pub fn record_json(&self, config: &RunConfig) -> String {
        let mut out = String::from("{\n  \"meta\": {");
        let field = |out: &mut String, key: &str, value: &str, quoted: bool| {
            if !out.ends_with('{') {
                out.push_str(", ");
            }
            push_str(out, key);
            out.push_str(": ");
            if quoted {
                push_str(out, value);
            } else {
                out.push_str(value);
            }
        };
        field(&mut out, "workload", config.workload.name(), true);
        field(&mut out, "seed", &config.seed.to_string(), false);
        field(&mut out, "seconds", &config.seconds.to_string(), false);
        field(&mut out, "trace", &config.trace.to_string(), false);
        let scale = match config.scale {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        };
        field(&mut out, "scale", scale, true);
        field(&mut out, "nproc", &stats::nproc().to_string(), false);
        field(
            &mut out,
            "parallelism",
            &self.parallelism.to_string(),
            false,
        );
        field(
            &mut out,
            "service_workers",
            &self.service_workers.to_string(),
            false,
        );
        field(
            &mut out,
            "rustc",
            &tool_version("rustc", &["--version"]),
            true,
        );
        field(&mut out, "git_rev", &git_rev(), true);
        field(
            &mut out,
            "input_hash",
            &format!("{:016x}", self.input_hash()),
            true,
        );
        out.push_str(", \"inputs\": {");
        for (i, (name, hash)) in self.input_hashes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, name);
            out.push_str(": ");
            push_str(&mut out, &format!("{hash:016x}"));
        }
        out.push_str("}},\n  \"result\": ");
        out.push_str(&self.result_line());
        out.push_str(",\n  \"failures\": [");
        for (i, msg) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, msg);
        }
        out.push_str("],\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let _ = write!(out, "{{\"op\": {}, \"id\": {}, \"parent\": ", s.op, s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"name\": ");
            push_str(&mut out, s.name);
            out.push_str(", \"start_us\": ");
            push_num(&mut out, s.start_us);
            out.push_str(", \"end_us\": ");
            push_num(&mut out, s.end_us);
            let _ = write!(out, ", \"probe\": {}}}", s.probe);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// One hash over every generated input of the run.
    pub fn input_hash(&self) -> u64 {
        let mut h = crate::inputs::Fnv::new();
        for (name, hash) in &self.input_hashes {
            h.write(name.as_bytes());
            h.write(&hash.to_le_bytes());
        }
        h.finish()
    }
}

/// The commit checked out in the working directory, read from its own
/// `.git` (never from a repository further up the tree), or `"none"`.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let rev = read("HEAD").and_then(|head| {
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        read(name).map(|r| r.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
    });
    rev.filter(|r| !r.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

/// First line of `program args` (e.g. the compiler version), or `"none"`
/// when the program is missing or fails.
fn tool_version(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}
