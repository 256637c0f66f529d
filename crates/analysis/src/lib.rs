//! # aapsm-analysis — workspace invariant analyzer
//!
//! An offline, pure-std static-analysis pass over this workspace's own
//! source, enforcing the project-specific discipline that clippy cannot
//! express. The contracts it machine-checks are the ones ROADMAP.md
//! states in prose — budgets charged inside every long loop, panic
//! isolation never bypassed, cache keys pure, lock poison handled — and
//! that code review has already let slip once (PR 8's unbudgeted
//! Dijkstra phase is the founding bug of lint L1).
//!
//! ## Lint catalog
//!
//! | id | discipline |
//! |----|------------|
//! | L0 | every `lint:` comment is a well-formed suppression of a known, suppressible lint |
//! | L1 | every loop in a `*_budgeted` fn charges or checks its `Budget` |
//! | L2 | non-test `unwrap()`/`expect()` in lib code: crate-root deny + justified `#[allow]` |
//! | L3 | `std::thread::{spawn,scope,Builder}` only inside the sanctioned wrappers |
//! | L4 | no clock/randomness reachable from `SolveCache` key construction |
//! | L5 | `.lock()` in `crates/service` flows through the poison-recovering helper |
//! | L8 | every non-test lib `pub fn` is named somewhere outside its crate's library sources |
//!
//! See `crates/analysis/README.md` for the full catalog, rationale, and
//! how to add a lint.
//!
//! ## Suppression
//!
//! A finding is suppressed by a line comment on the same line or the
//! line directly above it:
//!
//! ```text
//! // lint: allow(L3) — load generator; a worker panic must fail the run
//! ```
//!
//! The reason after the dash is mandatory: a suppression without one is
//! itself a finding. Suppressions are per-line and per-lint — there is
//! no file- or crate-wide escape hatch by design.
//!
//! ## Running
//!
//! ```text
//! cargo run -p aapsm-analysis -- --workspace
//! ```
//!
//! prints findings as `file:line [Lx] message` and exits nonzero when
//! any unsuppressed finding remains. CI runs this beside clippy/fmt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod lexer;
pub mod lints;
pub mod scanner;

use scanner::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// The lints, by catalog id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Well-formed suppression comments.
    L0,
    /// Budget discipline in `*_budgeted` functions.
    L1,
    /// Unwrap/expect discipline in lib code.
    L2,
    /// Thread spawn/scope confinement.
    L3,
    /// Cache-key purity.
    L4,
    /// Service lock discipline.
    L5,
    /// Unused public fns.
    L8,
}

impl Lint {
    pub fn code(self) -> &'static str {
        match self {
            Lint::L0 => "L0",
            Lint::L1 => "L1",
            Lint::L2 => "L2",
            Lint::L3 => "L3",
            Lint::L4 => "L4",
            Lint::L5 => "L5",
            Lint::L8 => "L8",
        }
    }

    fn from_code(code: &str) -> Option<Lint> {
        match code {
            "L0" => Some(Lint::L0),
            "L1" => Some(Lint::L1),
            "L2" => Some(Lint::L2),
            "L3" => Some(Lint::L3),
            "L4" => Some(Lint::L4),
            "L5" => Some(Lint::L5),
            "L8" => Some(Lint::L8),
            _ => None,
        }
    }

    /// One-line description, for `--list`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::L0 => {
                "a lint: comment must read `lint: allow(Lx) — reason` and name a known lint \
                 other than L0"
            }
            Lint::L1 => "every loop in a *_budgeted fn must charge or check its Budget",
            Lint::L2 => {
                "non-test unwrap()/expect() in lib code needs the crate-root deny \
                 and a justified #[allow]"
            }
            Lint::L3 => {
                "std::thread::{spawn,scope,Builder} only inside par_map_indexed \
                 and the service worker pool"
            }
            Lint::L4 => "no clock or randomness reachable from SolveCache key construction",
            Lint::L5 => ".lock() in crates/service must use the poison-recovering helper",
            Lint::L8 => {
                "a non-test lib pub fn must be named outside its crate's library sources \
                 (other crates, bins, tests, examples, benches, perfbench, doc fences)"
            }
        }
    }

    pub fn all() -> [Lint; 7] {
        [
            Lint::L0,
            Lint::L1,
            Lint::L2,
            Lint::L3,
            Lint::L4,
            Lint::L5,
            Lint::L8,
        ]
    }
}

/// One lint finding, printable as `file:line [Lx] message`.
#[derive(Clone, Debug)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub lint: Lint,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.path,
            self.line,
            self.lint.code(),
            self.message
        )
    }
}

/// A parsed `// lint: allow(Lx) — reason` comment.
struct Suppression {
    line: u32,
    lint: Lint,
    /// `false` when the mandatory reason is missing.
    has_reason: bool,
}

/// Extracts suppression comments from a file. Malformed suppressions
/// (bad syntax, unknown lint id, an attempt to suppress L0) are reported
/// as [`Lint::L0`] findings, and a missing reason as a finding of the lint
/// it would suppress, so a suppression cannot silently fail open *or*
/// closed.
fn suppressions(file: &SourceFile, findings: &mut Vec<Finding>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for tok in &file.tokens {
        if tok.kind != lexer::TokenKind::LineComment {
            continue;
        }
        let text = tok.text(&file.text).trim_start_matches('/').trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else {
            findings.push(Finding {
                path: file.path.clone(),
                line: tok.line,
                lint: Lint::L0,
                message: format!(
                    "malformed lint comment (expected `lint: allow(Lx) — reason`): `{text}`"
                ),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                path: file.path.clone(),
                line: tok.line,
                lint: Lint::L0,
                message: "malformed lint comment: unterminated allow(…)".to_string(),
            });
            continue;
        };
        let code = rest[..close].trim();
        let lint = match Lint::from_code(code) {
            Some(Lint::L0) | None => {
                let message = if code == "L0" {
                    "L0 findings cannot be suppressed".to_string()
                } else {
                    format!("unknown lint `{code}` in suppression")
                };
                findings.push(Finding {
                    path: file.path.clone(),
                    line: tok.line,
                    lint: Lint::L0,
                    message,
                });
                continue;
            }
            Some(lint) => lint,
        };
        // The reason: anything nonempty after the closing paren and an
        // optional `—`/`-`/`:` separator.
        let reason = rest[close + 1..]
            .trim()
            .trim_start_matches(['—', '–', '-', ':'])
            .trim();
        out.push(Suppression {
            line: tok.line,
            lint,
            has_reason: !reason.is_empty(),
        });
    }
    out
}

/// The result of analyzing a set of files.
pub struct Report {
    pub findings: Vec<Finding>,
    pub files: usize,
}

/// Analyzes a set of `(workspace-relative path, contents)` pairs: runs
/// every per-file lint, the workspace-level lints (crate-root deny
/// presence, cache-key purity, unused public fns), and applies
/// suppressions.
///
/// `references` are the files that may name lib items but are not
/// linted themselves: `tests/`, `examples/`, `benches/` and perfbench.
/// L8 reads them with `sources`, so without the whole workspace in view
/// every `pub fn` looks unused.
pub fn analyze(sources: &[(String, String)], references: &[(String, String)]) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, t)| SourceFile::parse(p, t))
        .collect();
    let mut findings = Vec::new();
    let mut sups: Vec<Vec<Suppression>> = Vec::new();
    for file in &files {
        sups.push(suppressions(file, &mut findings));
        lints::l1_budget::run(file, &mut findings);
        lints::l2_unwrap::run(file, &mut findings);
        lints::l3_threads::run(file, &mut findings);
        lints::l5_locks::run(file, &mut findings);
    }
    lints::l2_unwrap::run_workspace(&files, &mut findings);
    lints::l4_cache_purity::run(&files, &mut findings);
    lints::l8_unused_pub::run(&files, references, &mut findings);

    // Apply suppressions: a justified suppression covers findings of its
    // lint on its own line and the next line; one without a reason
    // covers nothing and is reported.
    let mut kept = Vec::new();
    for f in findings {
        let sup = files
            .iter()
            .position(|file| file.path == f.path)
            .and_then(|fi| {
                sups[fi]
                    .iter()
                    .find(|s| s.lint == f.lint && (s.line == f.line || s.line + 1 == f.line))
            });
        match sup {
            Some(s) if s.has_reason => {}
            Some(s) => {
                kept.push(Finding {
                    path: f.path.clone(),
                    line: s.line,
                    lint: f.lint,
                    message: format!(
                        "suppression of [{}] is missing its mandatory reason \
                         (`lint: allow({}) — why this is sound`)",
                        f.lint.code(),
                        f.lint.code()
                    ),
                });
            }
            None => kept.push(f),
        }
    }
    kept.sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    kept.dedup_by(|a, b| {
        a.path == b.path && a.line == b.line && a.lint == b.lint && a.message == b.message
    });
    Report {
        findings: kept,
        files: files.len(),
    }
}

/// Collects the workspace source files the analyzer covers: the root
/// facade's `src/` and every `crates/*/src/` tree, recursively.
///
/// Excluded by design: `support/` (vendored offline stand-ins for
/// third-party crates — not this project's code), `target/`, crate
/// `tests/` directories and `examples/` (test and documentation code is
/// outside the production discipline the lints gate; `#[cfg(test)]`
/// modules inside `src/` are skipped span-wise instead).
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for dir in entries {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Collects the files L8 reads for references but no lint covers: every
/// `tests/`, `examples/` and `benches/` directory of the facade and of
/// each crate, and `perfbench/{src,tests}` (the benchmark package, which
/// drives the public API from outside the workspace).
fn collect_reference_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    const TARGETS: [&str; 3] = ["tests", "examples", "benches"];
    let mut dirs: Vec<PathBuf> = TARGETS
        .iter()
        .chain(&["perfbench/src", "perfbench/tests"])
        .map(|sub| root.join(sub))
        .collect();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let dir = entry?.path();
            dirs.extend(TARGETS.iter().map(|sub| dir.join(sub)));
        }
    }
    let mut out = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads and analyzes the workspace rooted at `root`, L8 included.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the source tree.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let read = |paths: Vec<PathBuf>| -> std::io::Result<Vec<(String, String)>> {
        paths
            .iter()
            .map(|p| {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(p)
                    .to_string_lossy()
                    .replace('\\', "/");
                Ok((rel, std::fs::read_to_string(p)?))
            })
            .collect()
    };
    let sources = read(collect_workspace_files(root)?)?;
    let references = read(collect_reference_files(root)?)?;
    Ok(analyze(&sources, &references))
}

/// Locates the workspace root: ascends from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
