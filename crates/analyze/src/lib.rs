//! `kibamrm-analyze` — in-repo static analysis for the dependability
//! invariants the test suite can only probe dynamically.
//!
//! The workspace's headline guarantees (bit-identical answers across
//! thread counts, panic-free typed-error serving at the network
//! boundary, exact mul-then-add in the sparse kernels) rest on coding
//! rules no compiler flag checks: justified `unsafe`, panic-free
//! request paths, a consistent lock order, no FMA or wall-clock reads
//! on solver paths, no lossy casts in the wire parsers. This crate
//! walks the workspace sources with a comment/string-aware lexer (see
//! [`lexer`]) and enforces those rules as a CI gate; `--deny` turns
//! any finding into a non-zero exit.
//!
//! The rule catalogue, each rule's model and its false-positive policy
//! are documented in DESIGN.md §14; the per-crate configuration lives
//! in `analyze.toml` at the workspace root. The crate is std-only and
//! dependency-free on purpose: it must build from a cold cache in
//! seconds and keep working on a tree that does not compile.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod source;

pub use config::{Config, ConfigError};
pub use rules::Finding;

use std::path::Path;

/// Lexes every configured source file under `root` and runs the full
/// rule catalogue. Findings come back sorted by (file, line, rule).
pub fn analyze_tree(root: &Path, config: &Config) -> std::io::Result<Vec<Finding>> {
    let files = source::load_workspace(root, config)?;
    Ok(rules::run_all(&files, config))
}

/// Convenience: load `analyze.toml` from `root` and run. The config
/// file is mandatory — an unconfigured gate silently checks nothing.
pub fn analyze_root(root: &Path) -> Result<Vec<Finding>, String> {
    let config_path = root.join("analyze.toml");
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let config = Config::from_toml(&text).map_err(|e| e.to_string())?;
    analyze_tree(root, &config).map_err(|e| format!("walking {}: {e}", root.display()))
}
