//! The repository benchmark: the served path (HTTP `/query` against an
//! in-process `kibamrm_net::Server`) and the batch paths
//! (`SolverRegistry::sweep` over a `ScenarioGrid`, and cold
//! `SolverRegistry::solve` calls on one large chain), run against the
//! shipped defaults — `ServiceConfig::default()`,
//! `SolverOptions::default()`, `NetConfig::default()`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_http|sweep_grid|cold_solve> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the workload and metric definitions
//! (names, units, and each workload's one-line reason) are read from
//! `BENCHMARK.json` there. Inputs are generated from `--seed` alone.
//! Every output is checked; a failed check counts in `failed`, marks the
//! result incorrect, and makes the exit code 1.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it measures the workload
//! untraced and then traced (their difference is the tracing overhead),
//! records spans around calls into each layer's public functions, writes
//! the spans to `perfbench/out/`, and reports the per-layer metrics.
//! Per-layer metrics of layers a workload does not exercise read 0.
//!
//! Standard output: human-readable lines, then one `{"record": …}` line
//! (the machine, the workload's definition and inputs, every metric with
//! unit and sample count, the exact counts), then the result line the
//! harness reads: `{"correct", "attempted", "failed", "metrics"}`.

mod calibrate;
mod cold;
mod fleet;
mod inputs;
mod replay;
mod stats;
mod sweep_grid;
mod trace;

use calibrate::Calibration;
use kibamrm_net::json::{write_f64, write_string, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Span, Tracer};

/// How one invocation runs its workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One measured value and how many samples it summarises.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, Value>,
    /// Machine-independent counts that must repeat exactly at a seed.
    exact: BTreeMap<&'static str, f64>,
    /// JSON object text describing the generated inputs.
    inputs: String,
    /// Every timed operation's latency, in completion order.
    latencies_ms: Vec<f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn new(inputs: String) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            exact: BTreeMap::new(),
            inputs,
            latencies_ms: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Value { value, samples });
    }

    /// A count that must repeat exactly at a fixed seed.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.metric(name, value, 1);
        self.exact.insert(name, value);
    }

    /// Counts one checked output; a failure is kept with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// The end-to-end metrics every workload reports: the median
    /// operation latency (at the reference speed for CPU-bound
    /// workloads, see [`calibrate`]), the median set-up time at the
    /// reference speed, and the peak resident set.
    pub fn end_to_end(&mut self, phase: &Phase, setups_s: &[f64]) -> Result<(), String> {
        let gated = phase.gated_ms();
        self.metric("p50_ms", stats::median(gated), gated.len());
        self.metric("setup_s", stats::median(setups_s), setups_s.len());
        self.metric("peak_rss_mb", stats::peak_rss_mb()?, 1);
        self.latencies_ms = phase.latencies_ms.clone();
        Ok(())
    }

    /// Tracing overhead: the traced minus the untraced median of the
    /// gated latency.
    pub fn trace_overhead(&mut self, untraced: &Phase, traced: &Phase) {
        let (u, t) = (
            stats::median(untraced.gated_ms()),
            stats::median(traced.gated_ms()),
        );
        let n = traced.latencies_ms.len();
        self.metric("trace.overhead_p50_ms", t - u, n);
        self.metric("trace.overhead_pct", 100.0 * (t - u) / u, n);
    }
}

/// The timed operations of one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall-clock latencies.
    pub latencies_ms: Vec<f64>,
    /// The same latencies at the reference speed; empty for a workload
    /// whose latency is set by timers rather than by the CPU.
    pub scaled_ms: Vec<f64>,
    /// Operations whose output passed its check.
    pub ok: usize,
    pub elapsed_s: f64,
}

impl Phase {
    /// The latencies the end-to-end metric summarises.
    pub fn gated_ms(&self) -> &[f64] {
        if self.scaled_ms.is_empty() {
            &self.latencies_ms
        } else {
            &self.scaled_ms
        }
    }
}

/// Runs `set_up` [`SETUPS`] times, each right after a calibration, and
/// returns the last result with every set-up's time at the reference
/// speed; earlier results go to `discard`.
pub fn set_up_repeatedly<T>(
    cal: &mut Calibration,
    mut set_up: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            discard(previous)?;
        }
        let factor = cal.factor();
        let started = Instant::now();
        last = Some(set_up()?);
        times.push(started.elapsed().as_secs_f64() * factor);
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Calls `op` back to back until `seconds` have passed (at least once),
/// each call right after a calibration and inside a root span `root`
/// when `tr` records, and checks every answer outside the timed call.
pub fn repeat_for<T>(
    seconds: f64,
    out: &mut Outcome,
    tr: &mut Tracer,
    cal: &mut Calibration,
    root: &'static str,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(&T) -> Result<(), String>,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    while phase.latencies_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
        tr.set_request(phase.latencies_ms.len() as u64);
        let factor = cal.factor();
        let t = Instant::now();
        let answer = tr.span(root, |_| op());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        phase.latencies_ms.push(ms);
        phase.scaled_ms.push(ms * factor);
        let verdict = check(std::hint::black_box(&answer));
        if verdict.is_ok() {
            phase.ok += 1;
        }
        out.check(verdict.is_ok(), || verdict.unwrap_err());
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase
}

/// A JSON object with the given members (values already encoded).
pub fn json_object(members: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_string(&mut out, key);
        out.push_str(": ");
        out.push_str(value);
    }
    out.push('}');
    out
}

pub fn json_num(v: f64) -> String {
    let mut s = String::new();
    write_f64(&mut s, v);
    s
}

pub fn json_nums(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(", "))
}

pub fn json_str(v: &str) -> String {
    let mut s = String::new();
    write_string(&mut s, v);
    s
}

/// The metric and workload definitions, read from `BENCHMARK.json`.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
    workloads: Vec<(String, String)>,
}

fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let pairs = |list: &str, second: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(list)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                field("name")
                    .zip(field(second))
                    .ok_or_else(|| format!("a {list} entry lacks name or {second}"))
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: pairs("end_to_end", "unit")?,
        per_layer: pairs("per_layer", "unit")?,
        workloads: pairs("workloads", "why")?,
    })
}

/// The machine a result came from.
fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    json_object(&[
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu)),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        // The package enables no feature of the crates it builds.
        ("cargo_features", "[]".to_string()),
        ("git_commit", json_str(&git_commit())),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process; a plain source tree reports `unknown`).
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(h, _)| h.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compares this run's exact counts with the last run at the same
/// workload and seed (kept under `perfbench/out/`), and stores them.
/// Any count that moved is a defect of the benchmark or the program.
fn count_drift(workload: &str, run: &Run, exact: &BTreeMap<&'static str, f64>) -> Vec<String> {
    let path = out_dir().join(format!(
        "counts-{workload}-seed{}-trace{}.tsv",
        run.seed,
        u8::from(run.traced)
    ));
    let text: String = exact.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
    let mut drift = Vec::new();
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let previous: BTreeMap<&str, &str> = previous
            .lines()
            .filter_map(|l| l.split_once('\t'))
            .collect();
        for (name, value) in exact {
            match previous.get(name) {
                Some(p) if *p == value.to_string() => {}
                Some(p) => drift.push(format!("{name}: {p} -> {value}")),
                None => {}
            }
        }
    }
    if std::fs::create_dir_all(out_dir()).is_ok() {
        let _ = std::fs::write(&path, text);
    }
    drift
}

fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Run {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            traced: traced.unwrap_or(false),
        },
    ))
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the workload and prints the result; `Ok(false)` when an output
/// check failed.
fn real_main() -> Result<bool, String> {
    let (workload, run) = parse_args()?;
    let spec = load_spec(Path::new("BENCHMARK.json"))?;
    let why = spec
        .workloads
        .iter()
        .find(|(name, _)| *name == workload)
        .map_or_else(
            || "run by hand; not a BENCHMARK.json workload".to_string(),
            |(_, why)| why.clone(),
        );
    let mut outcome = match workload.as_str() {
        "fleet_http" => fleet::run(&run)?,
        "sweep_grid" => sweep_grid::run(&run)?,
        "cold_solve" => cold::run(&run)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if run.traced {
        let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.metric("failed_frac", failed_frac, outcome.attempted as usize);
        outcome.metric("trace.spans", outcome.spans.len() as f64, 1);
    }

    let listed = if run.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for name in outcome.metrics.keys() {
        if !listed.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "{workload} produced {name}, which BENCHMARK.json does not list"
            ));
        }
    }
    let mut not_exercised = Vec::new();
    let mut record_metrics = Vec::new();
    let mut result_metrics = Vec::new();
    for (name, unit) in listed {
        let value = match outcome.metrics.get(name.as_str()) {
            Some(v) if v.value.is_finite() => *v,
            Some(v) => return Err(format!("{name} is not finite: {}", v.value)),
            None if run.traced => {
                not_exercised.push(json_str(name));
                Value {
                    value: 0.0,
                    samples: 0,
                }
            }
            None => return Err(format!("{workload} did not produce {name}")),
        };
        println!(
            "{name:>36} = {:<14} {unit} (n = {})",
            value.value, value.samples
        );
        let entry = |with_samples: bool| {
            let mut members = vec![("value", json_num(value.value)), ("unit", json_str(unit))];
            if with_samples {
                members.push(("samples", value.samples.to_string()));
            }
            (name.as_str(), json_object(&members))
        };
        record_metrics.push(entry(true));
        result_metrics.push(entry(false));
    }

    let drift = count_drift(&workload, &run, &outcome.exact);
    for d in &drift {
        eprintln!("perfbench: exact count drifted since the last run at this seed: {d}");
    }
    let spans_file = if run.traced {
        let path = out_dir().join(format!("spans-{workload}-seed{}.tsv", run.seed));
        trace::write_tsv(&path, &outcome.spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        json_str(&path.display().to_string())
    } else {
        "null".to_string()
    };
    if !outcome.latencies_ms.is_empty() {
        let path = out_dir().join(format!("latencies-{workload}-seed{}.txt", run.seed));
        let text: String = outcome
            .latencies_ms
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let list = |items: Vec<String>| format!("[{}]", items.join(", "));
    let exact: Vec<(&str, String)> = outcome
        .exact
        .iter()
        .map(|(k, v)| (*k, json_num(*v)))
        .collect();
    let definition = json_object(&[
        ("name", json_str(&workload)),
        ("seed", run.seed.to_string()),
        ("seconds", json_num(run.seconds)),
        ("traced", run.traced.to_string()),
        ("why", json_str(&why)),
        ("inputs", outcome.inputs.clone()),
    ]);
    let record = json_object(&[
        ("workload", definition),
        ("machine", machine()),
        ("metrics", json_object(&record_metrics)),
        ("exact_counts", json_object(&exact)),
        (
            "count_drift",
            list(drift.iter().map(|d| json_str(d)).collect()),
        ),
        ("not_exercised", list(not_exercised)),
        (
            "problems",
            list(outcome.problems.iter().map(|p| json_str(p)).collect()),
        ),
        ("spans_file", spans_file),
    ]);
    println!("{}", json_object(&[("record", record)]));
    let correct = outcome.failed == 0;
    println!(
        "{}",
        json_object(&[
            ("correct", correct.to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", json_object(&result_metrics)),
        ])
    );
    Ok(correct)
}
