//! Per-lint fixture corpus: for every lint a known-bad fixture must
//! fire, the corrected fixture must pass, and a suppressed fixture must
//! pass — so each lint's firing condition is pinned from both sides.

/// Runs every lint but L8, whose fixtures below give it the reference
/// view it needs; without one, every `pub fn` here would look unused.
fn run(files: &[(&str, &str)]) -> Vec<aapsm_analysis::Finding> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|&(p, t)| (p.to_string(), t.to_string()))
        .collect();
    aapsm_analysis::analyze(&sources, &[])
        .findings
        .into_iter()
        .filter(|f| f.lint != aapsm_analysis::Lint::L8)
        .collect()
}

/// `"path:line [Lx]"` for every finding, for exact assertions.
fn keys(files: &[(&str, &str)]) -> Vec<String> {
    run(files)
        .iter()
        .map(|f| format!("{}:{} [{}]", f.path, f.line, f.lint.code()))
        .collect()
}

fn fires(files: &[(&str, &str)], code: &str) -> bool {
    run(files).iter().any(|f| f.lint.code() == code)
}

// ---------------------------------------------------------------- L1

const L1_BAD: &str = r#"
use aapsm_fault::Budget;
pub fn sweep_budgeted(xs: &[u64], budget: &Budget) -> u64 {
    let mut acc = 0;
    for &x in xs {
        acc += x;
    }
    acc
}
"#;

const L1_GOOD_CHARGE: &str = r#"
use aapsm_fault::{Budget, Stage};
pub fn sweep_budgeted(xs: &[u64], budget: &Budget) -> Result<u64, BudgetExceeded> {
    let mut acc = 0;
    for &x in xs {
        budget.charge(Stage::Cover, 1)?;
        acc += x;
    }
    Ok(acc)
}
"#;

#[test]
fn l1_unbudgeted_loop_fires() {
    let files = [("crates/foo/src/util.rs", L1_BAD)];
    assert_eq!(keys(&files), vec!["crates/foo/src/util.rs:5 [L1]"]);
}

#[test]
fn l1_charging_loop_passes() {
    assert!(!fires(&[("crates/foo/src/util.rs", L1_GOOD_CHARGE)], "L1"));
}

#[test]
fn l1_check_satisfies_too() {
    let src = r#"
pub fn wait_budgeted(budget: &Budget) -> Result<(), BudgetExceeded> {
    while pending() {
        budget.check(Stage::Cover)?;
    }
    Ok(())
}
"#;
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L1"));
}

#[test]
fn l1_inner_charge_covers_enclosing_loops() {
    let src = r#"
pub fn nest_budgeted(grid: &[Vec<u64>], budget: &Budget) -> Result<(), BudgetExceeded> {
    for row in grid {
        for &cell in row {
            budget.charge(Stage::Cover, 1)?;
            consume(cell);
        }
    }
    Ok(())
}
"#;
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L1"));
}

#[test]
fn l1_delegating_to_a_budgeted_fn_passes() {
    let src = r#"
pub fn outer_budgeted(xs: &[u64], budget: &Budget) -> Result<(), BudgetExceeded> {
    for &x in xs {
        inner_budgeted(x, budget)?;
    }
    Ok(())
}
"#;
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L1"));
}

#[test]
fn l1_non_budgeted_fn_is_out_of_scope() {
    let src = "pub fn sweep(xs: &[u64]) -> u64 { let mut a = 0; for &x in xs { a += x; } a }";
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L1"));
}

#[test]
fn l1_test_code_is_out_of_scope() {
    let src = format!("#[cfg(test)]\nmod tests {{\n{L1_BAD}\n}}");
    assert!(!fires(&[("crates/foo/src/util.rs", &src)], "L1"));
}

#[test]
fn l1_suppression_with_reason_covers_next_line() {
    let src = r#"
pub fn sweep_budgeted(xs: &[u64], budget: &Budget) -> u64 {
    let mut acc = 0;
    // lint: allow(L1) — O(n) accumulation, dominated by the charged phase
    for &x in xs {
        acc += x;
    }
    acc
}
"#;
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L1"));
}

#[test]
fn l1_reasonless_suppression_suppresses_nothing_and_is_reported() {
    let src = r#"
pub fn sweep_budgeted(xs: &[u64], budget: &Budget) -> u64 {
    let mut acc = 0;
    // lint: allow(L1)
    for &x in xs {
        acc += x;
    }
    acc
}
"#;
    let findings = run(&[("crates/foo/src/util.rs", src)]);
    assert!(findings
        .iter()
        .any(|f| f.message.contains("missing its mandatory reason")));
}

// ---------------------------------------------------------------- L0

#[test]
fn unknown_lint_code_in_suppression_is_reported() {
    let src = "// lint: allow(L9) — nope\nfn f() {}";
    let files = [("crates/foo/src/util.rs", src)];
    assert_eq!(keys(&files), vec!["crates/foo/src/util.rs:1 [L0]"]);
    assert!(run(&files)[0].message.contains("unknown lint `L9`"));
}

#[test]
fn malformed_suppression_is_reported() {
    for src in [
        "// lint: deny(L1) — wrong verb\nfn f() {}",
        "// lint: allow(L1 — unterminated\nfn f() {}",
    ] {
        let files = [("crates/foo/src/util.rs", src)];
        assert_eq!(keys(&files), vec!["crates/foo/src/util.rs:1 [L0]"], "{src}");
        assert!(run(&files)[0].message.contains("malformed"), "{src}");
    }
}

#[test]
fn l0_cannot_be_suppressed() {
    let src = "// lint: allow(L0) — hide the next line\n// lint: allow(L9) — nope\nfn f() {}";
    let files = [("crates/foo/src/util.rs", src)];
    assert_eq!(
        keys(&files),
        vec![
            "crates/foo/src/util.rs:1 [L0]",
            "crates/foo/src/util.rs:2 [L0]"
        ]
    );
}

#[test]
fn l0_is_in_the_catalog() {
    assert!(aapsm_analysis::Lint::all().contains(&aapsm_analysis::Lint::L0));
    assert!(aapsm_analysis::Lint::L0.describe().contains("allow(Lx)"));
}

// ---------------------------------------------------------------- L2

const DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n";

#[test]
fn l2_missing_crate_root_deny_fires() {
    let files = [("crates/foo/src/lib.rs", "pub fn f() {}")];
    assert_eq!(keys(&files), vec!["crates/foo/src/lib.rs:1 [L2]"]);
}

#[test]
fn l2_present_crate_root_deny_passes() {
    let files = [("crates/foo/src/lib.rs", DENY)];
    assert!(keys(&files).is_empty());
}

#[test]
fn l2_naked_unwrap_in_lib_code_fires() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let files = [("crates/foo/src/util.rs", src)];
    assert_eq!(keys(&files), vec!["crates/foo/src/util.rs:1 [L2]"]);
}

#[test]
fn l2_justified_allow_passes() {
    let src = r#"
// Invariant, not an error path: callers checked Some above.
#[allow(clippy::unwrap_used)]
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L2"));
}

#[test]
fn l2_allow_without_justification_comment_fires() {
    let src = r#"
#[allow(clippy::unwrap_used)]
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    assert!(fires(&[("crates/foo/src/util.rs", src)], "L2"));
}

#[test]
fn l2_test_code_unwrap_is_out_of_scope() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}";
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L2"));
}

#[test]
fn l2_binary_code_is_out_of_scope() {
    let src = "fn main() { std::env::args().next().unwrap(); }";
    assert!(!fires(&[("crates/foo/src/bin/tool.rs", src)], "L2"));
    assert!(!fires(&[("crates/foo/src/main.rs", src)], "L2"));
}

// ---------------------------------------------------------------- L3

#[test]
fn l3_stray_thread_spawn_fires() {
    let src = "pub fn helper() { std::thread::spawn(|| {}); }";
    let files = [("crates/foo/src/util.rs", src)];
    assert_eq!(keys(&files), vec!["crates/foo/src/util.rs:1 [L3]"]);
}

#[test]
fn l3_thread_scope_outside_sanctioned_wrapper_fires() {
    let src = "pub fn helper() { std::thread::scope(|s| { let _ = s; }); }";
    assert!(fires(&[("crates/foo/src/util.rs", src)], "L3"));
}

#[test]
fn l3_sanctioned_wrapper_passes() {
    let src = r#"
pub fn par_map_indexed(count: usize) {
    std::thread::scope(|scope| {
        scope.spawn(|| count);
    });
}
"#;
    assert!(!fires(&[("crates/geom/src/grid.rs", src)], "L3"));
}

#[test]
fn l3_same_fn_name_elsewhere_still_fires() {
    // The sanction is a (file, fn) pair — the fn name alone is not enough.
    let src = "pub fn par_map_indexed() { std::thread::spawn(|| {}); }";
    assert!(fires(&[("crates/foo/src/util.rs", src)], "L3"));
}

#[test]
fn l3_suppression_with_reason_passes() {
    let src = r#"
pub fn helper() {
    // lint: allow(L3) — harness thread; a panic here must fail the run
    std::thread::spawn(|| {});
}
"#;
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L3"));
}

// ---------------------------------------------------------------- L4

#[test]
fn l4_clock_reachable_from_key_construction_fires() {
    let src = r#"
pub struct InstanceKey(u64);
pub fn key_of(x: u64) -> InstanceKey {
    InstanceKey(stamp(x))
}
fn stamp(x: u64) -> u64 {
    let _ = std::time::Instant::now();
    x
}
"#;
    let files = [("crates/core/src/cache.rs", src)];
    let findings = run(&files);
    assert!(
        findings
            .iter()
            .any(|f| f.lint.code() == "L4" && f.message.contains("Instant::now")),
        "{findings:?}"
    );
}

#[test]
fn l4_randomness_via_call_chain_fires_with_path() {
    let src = r#"
pub fn key_of(x: u64) -> InstanceKey { InstanceKey(middle(x)) }
fn middle(x: u64) -> u64 { entropy(x) }
fn entropy(x: u64) -> u64 { x ^ thread_rng() }
"#;
    let findings = run(&[("crates/core/src/cache.rs", src)]);
    let l4: Vec<_> = findings.iter().filter(|f| f.lint.code() == "L4").collect();
    assert_eq!(l4.len(), 1, "{findings:?}");
    assert!(l4[0].message.contains("key_of → middle → entropy"));
}

#[test]
fn l4_pure_key_construction_passes() {
    let src = r#"
pub struct InstanceKey(u64);
pub fn key_of(xs: &[u64]) -> InstanceKey {
    InstanceKey(xs.iter().copied().fold(17, |h, x| h ^ x))
}
"#;
    assert!(!fires(&[("crates/core/src/cache.rs", src)], "L4"));
}

#[test]
fn l4_clock_unreachable_from_roots_passes() {
    // A clock elsewhere in the workspace is fine — only reachability
    // from key construction is banned.
    let src = r#"
pub fn key_of(x: u64) -> InstanceKey { InstanceKey(x) }
pub fn profile() -> std::time::Instant { std::time::Instant::now() }
"#;
    assert!(!fires(&[("crates/core/src/cache.rs", src)], "L4"));
}

#[test]
fn l4_fails_closed_when_no_roots_found() {
    // If crates/core is in the scan but the root heuristic matches
    // nothing, the lint reports its own blindness instead of passing.
    let findings = run(&[("crates/core/src/cache.rs", "pub fn helper() {}")]);
    assert!(
        findings
            .iter()
            .any(|f| f.lint.code() == "L4" && f.message.contains("root heuristic")),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------- L5

#[test]
fn l5_bare_lock_unwrap_in_service_fires() {
    let src = r#"
pub fn tick(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
"#;
    assert!(fires(&[("crates/service/src/worker.rs", src)], "L5"));
}

#[test]
fn l5_poison_recovering_lock_passes() {
    let src = r#"
use std::sync::{Mutex, MutexGuard, PoisonError};
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
"#;
    assert!(!fires(&[("crates/service/src/worker.rs", src)], "L5"));
}

#[test]
fn l5_only_applies_to_the_service_crate() {
    let src = r#"
// Invariant, not an error path: single-threaded test helper.
#[allow(clippy::unwrap_used)]
pub fn tick(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
"#;
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L5"));
}

#[test]
fn l5_test_code_is_out_of_scope() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n}";
    assert!(!fires(&[("crates/service/src/worker.rs", src)], "L5"));
}

// ------------------------------------------------------- cross-cutting

#[test]
fn findings_are_sorted_and_display_as_path_line_code() {
    let files = [
        (
            "crates/zzz/src/util.rs",
            "pub fn helper() { std::thread::spawn(|| {}); }",
        ),
        ("crates/aaa/src/util.rs", L1_BAD),
    ];
    let findings = run(&files);
    assert_eq!(findings.len(), 2);
    assert_eq!(findings[0].path, "crates/aaa/src/util.rs");
    let shown = findings[1].to_string();
    assert!(
        shown.starts_with("crates/zzz/src/util.rs:1 [L3] "),
        "{shown}"
    );
}

#[test]
fn suppression_on_the_same_line_works() {
    let src = "pub fn helper() { std::thread::spawn(|| {}); } // lint: allow(L3) — fixture";
    assert!(!fires(&[("crates/foo/src/util.rs", src)], "L3"));
}

#[test]
fn suppression_of_one_lint_does_not_cover_another() {
    let src = r#"
pub fn sweep_budgeted(xs: &[u64], budget: &Budget) -> u64 {
    let mut acc = 0;
    // lint: allow(L3) — wrong lint id for this site
    for &x in xs {
        acc += x;
    }
    acc
}
"#;
    assert!(fires(&[("crates/foo/src/util.rs", src)], "L1"));
}

// ---------------------------------------------------------------- L8

/// Runs every lint with L8's reference view: `references` are read for
/// names but not linted.
fn keys_with_refs(files: &[(&str, &str)], references: &[(&str, &str)]) -> Vec<String> {
    let owned = |fs: &[(&str, &str)]| -> Vec<(String, String)> {
        fs.iter()
            .map(|&(p, t)| (p.to_string(), t.to_string()))
            .collect()
    };
    aapsm_analysis::analyze(&owned(files), &owned(references))
        .findings
        .iter()
        .map(|f| format!("{}:{} [{}]", f.path, f.line, f.lint.code()))
        .collect()
}

const L8_LIB: &str = r#"
pub fn helper(x: u64) -> u64 {
    x + 1
}

pub(crate) fn internal() {}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_adds_one() {
        assert_eq!(super::helper(1), 2);
    }
}
"#;

#[test]
fn l8_fn_used_only_by_its_own_unit_tests_fires() {
    let files = [("crates/foo/src/util.rs", L8_LIB)];
    assert_eq!(
        keys_with_refs(&files, &[]),
        vec!["crates/foo/src/util.rs:2 [L8]"]
    );
}

#[test]
fn l8_use_from_another_crate_passes() {
    let files = [
        ("crates/foo/src/util.rs", L8_LIB),
        (
            "crates/bar/src/lib.rs",
            "fn f() -> u64 { aapsm_foo::helper(1) }",
        ),
    ];
    assert!(!keys_with_refs(&files, &[])
        .iter()
        .any(|k| k.contains("[L8]")));
}

#[test]
fn l8_use_from_a_tests_file_passes() {
    let files = [("crates/foo/src/util.rs", L8_LIB)];
    let refs = [(
        "crates/foo/tests/api.rs",
        "#[test]\nfn t() { foo::helper(1); }",
    )];
    assert!(keys_with_refs(&files, &refs).is_empty());
}

#[test]
fn l8_use_from_the_crates_own_bin_target_passes() {
    let files = [
        ("crates/foo/src/util.rs", L8_LIB),
        (
            "crates/foo/src/bin/tool.rs",
            "fn main() { foo::helper(1); }",
        ),
    ];
    assert!(keys_with_refs(&files, &[]).is_empty());
}

#[test]
fn l8_use_from_a_doc_comment_fence_passes() {
    let doc = format!(
        "/// ```\n/// # use foo::helper;\n/// assert_eq!(helper(1), 2);\n/// ```\n{L8_LIB}"
    );
    let files = [("crates/foo/src/util.rs", doc.as_str())];
    assert!(keys_with_refs(&files, &[]).is_empty());
}

#[test]
fn l8_use_from_a_non_rust_fence_does_not_count() {
    let doc = format!("/// ```text\n/// helper(1)\n/// ```\n{L8_LIB}");
    let files = [("crates/foo/src/util.rs", doc.as_str())];
    assert_eq!(
        keys_with_refs(&files, &[]),
        vec!["crates/foo/src/util.rs:5 [L8]"]
    );
}

#[test]
fn l8_use_from_an_uncompiled_fence_does_not_count() {
    for info in ["ignore", "compile_fail"] {
        let doc = format!("/// ```{info}\n/// helper(1)\n/// ```\n{L8_LIB}");
        let files = [("crates/foo/src/util.rs", doc.as_str())];
        assert_eq!(
            keys_with_refs(&files, &[]),
            vec!["crates/foo/src/util.rs:5 [L8]"],
            "{info}"
        );
    }
}

#[test]
fn l8_use_from_perfbench_passes() {
    let files = [("crates/foo/src/util.rs", L8_LIB)];
    let refs = [("perfbench/src/flow.rs", "pub fn time() { foo::helper(1); }")];
    assert!(keys_with_refs(&files, &refs).is_empty());
}

#[test]
fn l8_pub_fn_inside_cfg_test_is_out_of_scope() {
    let src = "#[cfg(test)]\nmod tests {\n    pub fn fixture() -> u64 { 1 }\n}\n\n#[cfg(test)]\npub fn other_fixture() {}";
    let files = [("crates/foo/src/util.rs", src)];
    assert!(keys_with_refs(&files, &[]).is_empty());
}

#[test]
fn l8_suppression_with_reason_passes() {
    let src =
        "// lint: allow(L8) — the paper's baseline, kept for comparison\npub fn baseline() {}";
    let files = [("crates/foo/src/util.rs", src)];
    assert!(keys_with_refs(&files, &[]).is_empty());
}

#[test]
fn l8_reasonless_suppression_is_reported() {
    let src = "// lint: allow(L8)\npub fn baseline() {}";
    let sources = [("crates/foo/src/util.rs".to_string(), src.to_string())];
    let findings = aapsm_analysis::analyze(&sources, &[]).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(
        findings[0].to_string().split(' ').next(),
        Some("crates/foo/src/util.rs:1")
    );
    assert!(findings[0].message.contains("missing its mandatory reason"));
}
