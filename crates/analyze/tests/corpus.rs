//! The committed bad-fixture corpus: every rule must fire at the
//! exact line with the exact rule id, and every in-file annotation
//! escape (`SAFETY:`, `PANIC-OK:`, `DETERMINISM-OK:`, `CAST-OK:`,
//! `#[cfg(test)]`) must hold — the corpus pins both directions.

#![forbid(unsafe_code)]

use kibamrm_analyze::{analyze_tree, Config};
use std::path::Path;

fn corpus_findings() -> Vec<(String, u32, &'static str)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("fixture config");
    let config = Config::from_toml(&text).expect("fixture config parses");
    analyze_tree(&root, &config)
        .expect("fixture tree walks")
        .into_iter()
        .map(|f| (f.file, f.line, f.rule))
        .collect()
}

#[test]
fn every_rule_fires_at_the_expected_lines() {
    let expected: Vec<(String, u32, &'static str)> = [
        ("bad/casts.rs", 4, "lossy-cast"),
        ("bad/casts.rs", 8, "lossy-cast"),
        ("bad/locks.rs", 14, "lock-order"),
        ("bad/locks.rs", 26, "lock-order"),
        ("bad/nondeterminism.rs", 9, "determinism"),
        ("bad/nondeterminism.rs", 13, "determinism"),
        ("bad/nondeterminism.rs", 14, "determinism"),
        ("bad/nondeterminism.rs", 24, "determinism"),
        ("bad/nondeterminism.rs", 38, "determinism"),
        ("bad/panics.rs", 4, "panic-path"),
        ("bad/panics.rs", 8, "panic-path"),
        ("bad/panics.rs", 13, "panic-path"),
        ("bad/unsafe_outside_inventory.rs", 7, "unsafe-safety"),
        ("bad/unsafe_undocumented.rs", 7, "unsafe-safety"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r))
    .collect();
    assert_eq!(corpus_findings(), expected);
}

#[test]
fn the_cycle_report_names_both_edges() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("fixture config");
    let config = Config::from_toml(&text).expect("fixture config parses");
    let findings = analyze_tree(&root, &config).expect("fixture tree walks");
    let cycle = findings
        .iter()
        .find(|f| f.rule == "lock-order" && f.message.contains("cycle"))
        .expect("the seeded inversion is reported");
    assert!(cycle.message.contains("`Pair::self.a` → `Pair::self.b`"));
    assert!(cycle.message.contains("`Pair::self.b` → `Pair::self.a`"));
    assert!(cycle.message.contains("in `forward`"));
    assert!(cycle.message.contains("in `backward`"));
}
