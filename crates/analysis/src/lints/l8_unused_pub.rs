//! **L8 — unused public fns.** A `pub fn` is a promise to callers
//! outside its crate; one that nothing outside the crate names is API
//! surface kept only by habit. This lint flags every non-test `pub fn`
//! (free function or inherent method) in a lib crate's `src/` whose name
//! appears nowhere outside that crate's library sources.
//!
//! Outside means: other crates' sources, the facade `src/`, the crate's
//! own `src/bin` and `src/main.rs` targets, and the reference-only files
//! — every `tests/`, `examples/` and `benches/` directory and
//! `perfbench/{src,tests}` — plus compiled Rust code fences in doc
//! comments anywhere, because doctests compile outside the crate.
//!
//! Names resolve the way L4 resolves call edges: by identifier alone, so
//! a collision (`new`, `len`, …) can only keep an item `pub`, never flag
//! a used one. The fix for a finding is to delete the fn, make it
//! `pub(crate)` or private, or suppress it with a reason (the paper's
//! comparison baselines are the intended case).

use crate::lexer::{lex, Token, TokenKind};
use crate::lints::is_lib_code;
use crate::scanner::SourceFile;
use crate::{Finding, Lint};
use std::collections::{HashMap, HashSet};

/// The lib crate a workspace-relative path belongs to (`crates/<name>`,
/// or `.` for the facade's `src/`), or `None` when the path is not lib
/// source: binaries, tests, examples, benches, perfbench.
fn lib_crate(path: &str) -> Option<&str> {
    if !is_lib_code(path) {
        return None;
    }
    if path.starts_with("src/") {
        return Some(".");
    }
    let rest = path.strip_prefix("crates/")?;
    let name_len = rest.find('/')?;
    Some(&path[.."crates/".len() + name_len])
}

/// Whether a fence info string opens a Rust code block that rustdoc
/// compiles as written: empty, or only attributes that keep it compiled
/// (`rust`, `no_run`, …). `ignore` and `compile_fail` fences do not
/// count, since rustdoc never builds the first and the second must not
/// build.
fn is_rust_fence(info: &str) -> bool {
    info.split(',').map(str::trim).all(|attr| {
        matches!(
            attr,
            "" | "rust" | "no_run" | "should_panic" | "test_harness"
        ) || attr.starts_with("edition")
    })
}

/// Where a doc-comment line sits relative to code fences.
enum Fence {
    Outside,
    /// Inside a Rust fence; the lines so far.
    Rust(String),
    /// Inside a fence rustdoc does not compile: another language
    /// (`text`, `sh`, …), `ignore` or `compile_fail`.
    Other,
}

/// Who names each identifier: the lib crate whose library sources
/// spell it, or `None` for a name spelled outside every lib crate.
type Named<'a> = HashMap<String, HashSet<Option<&'a str>>>;

/// Records every identifier a file names: code identifiers under the
/// file's lib-crate owner (`None` for non-lib files), and identifiers in
/// Rust doc-comment fences under `None`, since doctests compile outside
/// the crate.
fn collect_names<'a>(owner: Option<&'a str>, text: &str, tokens: &[Token], named: &mut Named<'a>) {
    let mut fence = Fence::Outside;
    for tok in tokens {
        let t = tok.text(text);
        if tok.kind == TokenKind::Ident {
            named.entry(t.to_string()).or_default().insert(owner);
        }
        let doc_line = (tok.kind == TokenKind::LineComment && !t.starts_with("////"))
            .then(|| t.strip_prefix("///").or_else(|| t.strip_prefix("//!")))
            .flatten()
            .map(str::trim);
        fence = match (fence, doc_line) {
            // A doc block ends at the first non-doc token, and so does
            // any fence left open in it.
            (Fence::Rust(body), None) => {
                name_fenced(&body, named);
                Fence::Outside
            }
            (_, None) => Fence::Outside,
            (Fence::Outside, Some(line)) => match line.strip_prefix("```") {
                Some(info) if is_rust_fence(info) => Fence::Rust(String::new()),
                Some(_) => Fence::Other,
                None => Fence::Outside,
            },
            (Fence::Rust(body), Some(line)) if line.starts_with("```") => {
                name_fenced(&body, named);
                Fence::Outside
            }
            (Fence::Rust(mut body), Some(line)) => {
                // Hidden doctest lines (`# use …;`) compile too.
                body.push_str(line.strip_prefix('#').unwrap_or(line));
                body.push('\n');
                Fence::Rust(body)
            }
            (Fence::Other, Some(line)) if line.starts_with("```") => Fence::Outside,
            (Fence::Other, Some(_)) => Fence::Other,
        };
    }
    if let Fence::Rust(body) = fence {
        name_fenced(&body, named);
    }
}

fn name_fenced(body: &str, named: &mut Named<'_>) {
    for tok in lex(body) {
        if tok.kind == TokenKind::Ident {
            named
                .entry(tok.text(body).to_string())
                .or_default()
                .insert(None);
        }
    }
}

/// Runs L8 over the linted `files` and the reference-only `references`
/// (`(workspace-relative path, contents)` pairs that may name lib items
/// but are not linted themselves).
pub fn run(files: &[SourceFile], references: &[(String, String)], out: &mut Vec<Finding>) {
    let mut named = Named::new();
    for file in files {
        collect_names(lib_crate(&file.path), &file.text, &file.tokens, &mut named);
    }
    for (_, text) in references {
        collect_names(None, text, &lex(text), &mut named);
    }
    for file in files {
        let Some(krate) = lib_crate(&file.path) else {
            continue;
        };
        for item in &file.fns {
            if !item.is_pub || file.in_test(item.attrs_start) {
                continue;
            }
            let used_outside = named
                .get(&item.name)
                .is_some_and(|owners| owners.iter().any(|&o| o != Some(krate)));
            if used_outside {
                continue;
            }
            out.push(Finding {
                path: file.path.clone(),
                line: item.line,
                lint: Lint::L8,
                message: format!(
                    "pub fn `{}` is named nowhere outside {krate}'s library sources — \
                     delete it, make it pub(crate) or private, or suppress with a reason",
                    item.name
                ),
            });
        }
    }
}
