//! The lint passes. Each lint is one module with a `run` entry point;
//! per-file lints take a [`SourceFile`](crate::scanner::SourceFile),
//! workspace lints take the whole file set. See the crate docs for the
//! catalog and `README.md` for how to add a lint.

pub mod l1_budget;
pub mod l2_unwrap;
pub mod l3_threads;
pub mod l4_cache_purity;
pub mod l5_locks;
pub mod l8_unused_pub;

/// Whether a workspace-relative path is library (non-binary) source:
/// under some `src/`, not under `src/bin/`, and not a `main.rs`.
pub(crate) fn is_lib_code(path: &str) -> bool {
    (path.starts_with("src/") || path.contains("/src/"))
        && !path.contains("/src/bin/")
        && !path.ends_with("/main.rs")
        && path != "src/main.rs"
}
