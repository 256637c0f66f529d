//! **L3 — thread confinement.** Worker panics are isolated per item by
//! `aapsm_geom::par_map_indexed` (catch, retry once, structured
//! `WorkerPanic`) and by the service worker pool's crash-only sessions.
//! That guarantee only holds if nobody spawns threads any other way, so
//! `std::thread::spawn`, `std::thread::scope`, `std::thread::Builder`
//! and `.spawn(…)` method calls are confined to the two sanctioned
//! wrappers:
//!
//! - `par_map_indexed` in `crates/geom/src/grid.rs`
//! - `DetectionService::start` in `crates/service/src/service.rs`
//!
//! Anything else — however innocent — bypasses panic isolation and the
//! `parallelism` knob, and must either go through the wrappers or carry
//! a per-line suppression with a reason. Test code is exempt; outside
//! it, the tree carries no L3 suppression.

use crate::lexer::TokenKind;
use crate::scanner::SourceFile;
use crate::{Finding, Lint};

const SANCTIONED: &[(&str, &str)] = &[
    ("crates/geom/src/grid.rs", "par_map_indexed"),
    ("crates/service/src/service.rs", "start"),
];

fn sanctioned(file: &SourceFile, offset: usize) -> bool {
    SANCTIONED.iter().any(|&(path, fn_name)| {
        file.path == path && file.enclosing_fn(offset).is_some_and(|f| f.name == fn_name)
    })
}

pub fn run(file: &SourceFile, out: &mut Vec<Finding>) {
    let code = &file.code;
    let text_at = |ci: usize| file.tokens[code[ci]].text(&file.text);
    for ci in 0..code.len() {
        let tok = &file.tokens[code[ci]];
        if tok.kind != TokenKind::Ident || file.in_test(tok.start) {
            continue;
        }
        let construct = match tok.text(&file.text) {
            // `thread::spawn`, `thread::scope`, `thread::Builder` paths.
            "thread"
                if ci + 3 < code.len()
                    && text_at(ci + 1) == ":"
                    && text_at(ci + 2) == ":"
                    && matches!(text_at(ci + 3), "spawn" | "scope" | "Builder") =>
            {
                Some(format!("std::thread::{}", text_at(ci + 3)))
            }
            // `.spawn(…)` method calls (scope handles, builders).
            "spawn"
                if ci > 0
                    && text_at(ci - 1) == "."
                    && ci + 1 < code.len()
                    && text_at(ci + 1) == "(" =>
            {
                Some(".spawn()".to_string())
            }
            _ => None,
        };
        let Some(construct) = construct else { continue };
        if sanctioned(file, tok.start) {
            continue;
        }
        out.push(Finding {
            path: file.path.clone(),
            line: tok.line,
            lint: Lint::L3,
            message: format!(
                "`{construct}` outside the sanctioned wrappers (par_map_indexed / \
                 the service worker pool) bypasses panic isolation"
            ),
        });
    }
}
