//! **L2 — unwrap/expect discipline.** Lib code must not panic on
//! recoverable paths. Two machine-checked halves:
//!
//! 1. *Crate root deny* (workspace pass): every crate root `lib.rs`
//!    carries `#![cfg_attr(not(test), deny(clippy::unwrap_used,
//!    clippy::expect_used))]`, so clippy rejects new bare sites.
//! 2. *Justified allows* (per-file pass): every non-test `.unwrap()` /
//!    `.expect(…)` in lib code must sit under an
//!    `#[allow(clippy::unwrap_used/expect_used)]` that has an adjacent
//!    comment saying *why* the panic is impossible (the workspace idiom:
//!    `// Invariant, not an error path: …` directly above the attribute).
//!
//! Together with the clippy deny this means a panic site cannot appear
//! without a written proof obligation next to it.

use crate::lexer::TokenKind;
use crate::lints::is_lib_code;
use crate::scanner::SourceFile;
use crate::{Finding, Lint};

/// An `allow(… unwrap_used/expect_used …)` attribute occurrence.
struct AllowSite {
    start: usize,
    line: u32,
    /// A comment sits on the attribute's line or the line above it.
    justified: bool,
}

fn collect_allow_sites(file: &SourceFile) -> Vec<AllowSite> {
    let mut out = Vec::new();
    let code = &file.code;
    for ci in 0..code.len() {
        let tok = &file.tokens[code[ci]];
        if tok.kind != TokenKind::Ident || tok.text(&file.text) != "allow" {
            continue;
        }
        if ci + 1 >= code.len() || file.tokens[code[ci + 1]].text(&file.text) != "(" {
            continue;
        }
        // Scan the parenthesized argument for the two clippy lints.
        let mut depth = 0i32;
        let mut relevant = false;
        for &tok_idx in &code[(ci + 1)..] {
            let t = file.tokens[tok_idx].text(&file.text);
            match t {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "unwrap_used" | "expect_used" => relevant = true,
                _ => {}
            }
        }
        if !relevant {
            continue;
        }
        let line = tok.line;
        let justified = file.tokens.iter().any(|t| {
            matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && (t.line + 1 == line || t.line == line)
        });
        out.push(AllowSite {
            start: tok.start,
            line,
            justified,
        });
    }
    out
}

pub fn run(file: &SourceFile, out: &mut Vec<Finding>) {
    if !is_lib_code(&file.path) {
        return;
    }
    let allows = collect_allow_sites(file);
    for a in &allows {
        if !a.justified && !file.in_test(a.start) {
            out.push(Finding {
                path: file.path.clone(),
                line: a.line,
                lint: Lint::L2,
                message: "allow(clippy::unwrap_used/expect_used) without an adjacent \
                          justification comment — say why the panic is impossible"
                    .to_string(),
            });
        }
    }
    let code = &file.code;
    for ci in 1..code.len() {
        let tok = &file.tokens[code[ci]];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(&file.text);
        if text != "unwrap" && text != "expect" {
            continue;
        }
        if file.tokens[code[ci - 1]].text(&file.text) != "." {
            continue;
        }
        if ci + 1 >= code.len() || file.tokens[code[ci + 1]].text(&file.text) != "(" {
            continue;
        }
        if file.in_test(tok.start) {
            continue;
        }
        // Covered when a relevant allow attribute precedes the site
        // within its enclosing item (function attributes included).
        let covered = file.enclosing_fn(tok.start).is_some_and(|f| {
            allows
                .iter()
                .any(|a| a.start >= f.attrs_start && a.start < tok.start)
        });
        if !covered {
            out.push(Finding {
                path: file.path.clone(),
                line: tok.line,
                lint: Lint::L2,
                message: format!(
                    "non-test `{text}()` in lib code without \
                     #[allow(clippy::{text}_used)] + justification — return a \
                     structured error or document the invariant"
                ),
            });
        }
    }
}

/// Crate roots that must carry the deny attribute: the root facade and
/// every `crates/*/src/lib.rs` in the analyzed set.
pub(crate) fn run_workspace(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files {
        if file.path != "src/lib.rs" && !(file.path.ends_with("/src/lib.rs")) {
            continue;
        }
        let mut saw = (false, false, false);
        for &i in &file.code {
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident {
                continue;
            }
            match tok.text(&file.text) {
                "deny" => saw.0 = true,
                "unwrap_used" => saw.1 = true,
                "expect_used" => saw.2 = true,
                _ => {}
            }
        }
        if !(saw.0 && saw.1 && saw.2) {
            out.push(Finding {
                path: file.path.clone(),
                line: 1,
                lint: Lint::L2,
                message: "crate root is missing #![cfg_attr(not(test), \
                          deny(clippy::unwrap_used, clippy::expect_used))]"
                    .to_string(),
            });
        }
    }
}
