//! Rule `determinism`: the repo's bit-identity guarantees must not be
//! undermined by FMA contraction, wall-clock reads on solver paths, or
//! hash-order-dependent iteration feeding output bytes.
//!
//! Three sub-checks over the configured `paths` (outside
//! `#[cfg(test)]`):
//!
//! * **FMA**: `.mul_add(…)` method calls (and `f64::mul_add` UFCS) are
//!   denied outside `mul_add_allowed` — fused multiply-add rounds once
//!   where the kernels' contract is exact mul-then-add.
//! * **Wall clocks**: `Instant::now`, `SystemTime`, and `.elapsed()`
//!   are denied outside `clock_allowed` (the budget/deadline/timeout
//!   modules) — clock reads on a solve path are how timing leaks into
//!   answers.
//! * **Unordered iteration**: in `ordered_output_paths` files, calling
//!   `.iter()/.keys()/.values()/.drain()/.into_iter()` on (or `for`-
//!   looping over) a receiver that the same file declares as `HashMap`
//!   or `HashSet` is a finding — bytes that leave the process must not
//!   depend on hash order. Sort first (and say so), switch to
//!   `BTreeMap`, or justify with `// DETERMINISM-OK: <reason>`.

use super::{receiver_chain, Finding, RULE_DETERMINISM};
use crate::config::{path_matches, Config};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

const ANNOTATION: &str = "DETERMINISM-OK:";
// Wider than the other rules' 2: the flagged `.iter()` token often
// sits a few lines into a formatted method chain whose justification
// annotates the statement head.
const LOOKBACK: u32 = 4;
// `.retain()` is deliberately absent: its visitation order cannot leak
// into the surviving set's contents.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

pub fn check(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !path_matches(&file.path, &config.determinism_paths) {
            continue;
        }
        let tokens = file.tokens();
        let unordered = unordered_names(file);
        let ordered_output = path_matches(&file.path, &config.ordered_output_paths);
        for (i, token) in tokens.iter().enumerate() {
            if token.kind != TokKind::Ident || file.in_test(token.line) {
                continue;
            }
            if file.lexed.has_marker(token.line, LOOKBACK, ANNOTATION) {
                continue;
            }
            let mut report = |message: String, hint: &str| {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: token.line,
                    rule: RULE_DETERMINISM,
                    message,
                    hint: hint.to_string(),
                });
            };
            match token.text.as_str() {
                "mul_add" if !path_matches(&file.path, &config.mul_add_allowed) => {
                    // A method call or any path call (`f64::mul_add`).
                    let after_dot = i > 0 && tokens[i - 1].text == ".";
                    let path_call = !after_dot && i > 0 && tokens[i - 1].text == ":";
                    if after_dot || path_call {
                        report(
                            "FMA (`mul_add`) breaks the exact mul-then-add contract".to_string(),
                            "spell the arithmetic as `a * b + c`; bit-identity with the \
                             reference kernels depends on it",
                        );
                    }
                }
                "Instant"
                    if !path_matches(&file.path, &config.clock_allowed)
                        && tokens.get(i + 1).is_some_and(|t| t.text == ":")
                        && tokens.get(i + 3).is_some_and(|t| t.text == "now") =>
                {
                    report(
                        "wall-clock read (`Instant::now`) outside the budget/timeout \
                             modules"
                            .to_string(),
                        "thread a `Budget` (or a caller-supplied timestamp) through \
                             instead of reading the clock on a solve path",
                    );
                }
                "SystemTime" if !path_matches(&file.path, &config.clock_allowed) => {
                    report(
                        "wall-clock read (`SystemTime`) outside the budget/timeout modules"
                            .to_string(),
                        "thread a caller-supplied timestamp through instead",
                    );
                }
                "elapsed"
                    if !path_matches(&file.path, &config.clock_allowed)
                        && i > 0
                        && tokens[i - 1].text == "."
                        && tokens.get(i + 1).is_some_and(|t| t.text == "(") =>
                {
                    report(
                        "wall-clock read (`.elapsed()`) outside the budget/timeout \
                             modules"
                            .to_string(),
                        "thread a `Budget` (or a caller-supplied timestamp) through \
                             instead of reading the clock on a solve path",
                    );
                }
                m if ordered_output && ITER_METHODS.contains(&m) => {
                    let is_call = i > 0
                        && tokens[i - 1].text == "."
                        && tokens.get(i + 1).is_some_and(|t| t.text == "(");
                    if !is_call {
                        continue;
                    }
                    let Some((chain, _)) = receiver_chain(tokens, i - 1) else {
                        continue;
                    };
                    let tail = chain.rsplit('.').next().unwrap_or(&chain);
                    if unordered.contains(tail) {
                        report(
                            format!(
                                "iteration over hash-ordered `{tail}` feeds output in an \
                                 ordered-output file"
                            ),
                            "sort by a total, unique key before serialising (or use \
                             BTreeMap); justify reviewed perf-only uses with \
                             `// DETERMINISM-OK: <reason>`",
                        );
                    }
                }
                _ => {}
            }
        }
    }
    findings
}

/// Names declared as `HashMap`/`HashSet` in this file: struct fields
/// and locals (`name: HashMap<…>`, `let name = HashMap::new()`).
fn unordered_names(file: &SourceFile) -> BTreeSet<String> {
    let tokens = file.tokens();
    let mut names = BTreeSet::new();
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != TokKind::Ident || (token.text != "HashMap" && token.text != "HashSet") {
            continue;
        }
        // `name : HashMap` (field or typed local/param).
        if i >= 2 && tokens[i - 1].text == ":" && tokens[i - 2].kind == TokKind::Ident {
            // Exclude `std::collections::HashMap` path segments, where
            // the token two back is also punct-joined (`:`-`:`).
            if !(i >= 3 && tokens[i - 3].text == ":") {
                names.insert(tokens[i - 2].text.clone());
                continue;
            }
        }
        // `let [mut] name = HashMap::…`.
        if i >= 2 && tokens[i - 1].text == "=" && tokens[i - 2].kind == TokKind::Ident {
            names.insert(tokens[i - 2].text.clone());
        }
    }
    names
}
