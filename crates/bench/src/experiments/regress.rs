//! `bench-harness regress --against DIR` — the CI counter/accuracy
//! regression gate.
//!
//! Re-runs the quick engine configurations and diffs them against the
//! **committed** baselines (`BENCH_uniformisation.json`,
//! `BENCH_sweep.json`, `BENCH_mc.json` and `BENCH_service.json` in
//! `--against`, default `.`), failing on:
//!
//! * **structure drift** — the derived chain's `states`/`nnz` no longer
//!   match the committed config (someone changed the discretisation
//!   without regenerating baselines);
//! * **accuracy drift** — the banded-windowed and banded-full engines
//!   disagree with the CSR engine by more than `1e-12` at a tightened
//!   ε (`--epsilon`, default `1e-13`, makes the bound follow from the
//!   engines' error budgets; loosening it is how the gate is verified
//!   to fire);
//! * **work growth** — any engine's `touched_entries` exceeds the
//!   committed value by more than 10 % (shrinking is an improvement and
//!   passes);
//! * **planner drift** — the quick sweep grid's planned results are not
//!   bit-identical to naive per-scenario solves (sup-distance must be
//!   exactly 0), or the plan no longer forms the committed number of
//!   groups;
//! * **Monte Carlo drift** (`BENCH_mc.json`) — the streaming simulation
//!   engine's gate configuration is no longer bit-identical across
//!   worker-pool sizes, or its fixed-seed curve leaves the Wilson band
//!   around the exact reference, or the committed facts themselves were
//!   recorded failing. (The sup distance is *not* compared against the
//!   committed value bit for bit: `exp`/`ln` may differ across libm
//!   builds; the band re-derived on this machine is the contract.)
//! * **service drift** (`BENCH_service.json`) — the resident query
//!   service's answers on the quick fleet trace are not bit-identical to
//!   independent fresh solves (sup-distance must be exactly 0), the
//!   deterministic trace's cache hit rate falls below the committed
//!   floor, the deterministic deadline leg's hit rate / degraded-serve
//!   fraction drift from their exact constructed values, or the
//!   committed facts were recorded failing any of those checks;
//! * **representation drift** — on the committed `Δ = 300` config,
//!   `Auto` must sweep only the states the full-charge start reaches
//!   (fewer than the chain's), on length-sorted rows; its curve must
//!   equal the forced-CSR engine's bit for bit, and its
//!   `touched_entries` must be exactly `iterations × nnz` of the swept
//!   `Pᵀ` (no padding slots);
//! * **worker-count drift** — on the committed `Δ = 50` config, whose
//!   swept rows are enough for the row pool to run, the curve must carry
//!   the same bits with 1 and 4 row workers;
//! * **cancellation overhead** — with an unlimited budget the
//!   budget-threaded uniformisation engine must touch *exactly* as many
//!   entries as the plain engine and produce a bit-identical curve: the
//!   cooperative check points are free on the uncancelled hot path.
//!
//! A machine-readable verdict is always written to
//! `REGRESS_report.json` under `--out` (the CI artifact), then the run
//! exits non-zero if any check failed. Every gated fact is a
//! machine-independent counter or a bit-identity; the baselines hold no
//! timings (wall clock is measured by perfbench).

use super::baseline::engine_matrix;
use super::config::Config;
use super::{discretise_fig8, sweep as sweep_experiment, write_json};
use crate::json::Json;
use markov::sparse::PARALLEL_SPMV_MIN_ROWS;
use markov::transient::{
    measure_curve, measure_curve_budgeted, CurveCache, CurveSolution, Representation,
    TransientOptions,
};
use markov::Budget;
use std::path::Path;

/// The tolerated relative growth in `touched_entries`.
const TOUCHED_GROWTH_LIMIT: f64 = 0.10;
/// The accuracy-drift bound on engine sup-distances.
const DRIFT_BOUND: f64 = 1e-12;
/// Committed Δ configs above this state count are skipped (the gate must
/// stay a quick smoke, not a multi-minute bench re-run).
const MAX_GATED_STATES: usize = 50_000;
/// The committed Δ whose chain `Auto` must run as length-sorted rows.
const ELL_GATE_DELTA: f64 = 300.0;
/// The committed Δ whose curve must not depend on the row-worker count.
const WORKER_GATE_DELTA: f64 = 50.0;

struct Report {
    checks: Vec<(String, bool, String)>,
}

impl Report {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        self.checks.push((name.to_owned(), ok, detail));
    }

    fn failures(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, ok, _)| !ok)
            .map(|(name, _, _)| name.as_str())
            .collect()
    }
}

fn load(dir: &Path, name: &str) -> Result<Json, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read committed baseline {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the gate.
///
/// # Errors
///
/// A summary of the failed checks (after writing the report artifact).
pub fn run(cfg: &Config) -> Result<(), String> {
    let against = Path::new(&cfg.against);
    let mut report = Report { checks: Vec::new() };

    // A missing/corrupt committed baseline — or an engine erroring out
    // mid-gate — is itself a gate failure that must still end up in the
    // report artifact, not an early abort that leaves CI without one.
    let uni = load(against, "BENCH_uniformisation.json")
        .and_then(|committed| uniformisation_gate(cfg, &committed, &mut report));
    if let Err(e) = uni {
        report.check("uniformisation gate execution", false, e);
    }
    let sweep = load(against, "BENCH_sweep.json")
        .and_then(|committed| sweep_gate(cfg, &committed, &mut report));
    if let Err(e) = sweep {
        report.check("sweep gate execution", false, e);
    }
    let mc = load(against, "BENCH_mc.json").and_then(|committed| mc_gate(&committed, &mut report));
    if let Err(e) = mc {
        report.check("mc gate execution", false, e);
    }
    let service = load(against, "BENCH_service.json")
        .and_then(|committed| service_gate(cfg, &committed, &mut report));
    if let Err(e) = service {
        report.check("service gate execution", false, e);
    }

    let rows: Vec<String> = report
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "    {{\"check\": \"{name}\", \"ok\": {ok}, \"detail\": \"{}\"}}",
                detail.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    let failures = report.failures();
    let body = format!(
        "{{\n  \"bench\": \"regress\",\n  \"generated_by\": \"bench-harness regress\",\n  \
         \"against\": \"{}\",\n  \"ok\": {},\n  \"checks\": [\n{}\n  ]\n}}\n",
        cfg.against.replace('\\', "\\\\").replace('"', "\\\""),
        failures.is_empty(),
        rows.join(",\n")
    );
    write_json(cfg, "REGRESS_report.json", &body)?;

    if failures.is_empty() {
        println!("regress: all {} checks passed", report.checks.len());
        Ok(())
    } else {
        Err(format!("regression gate failed: {}", failures.join(", ")))
    }
}

/// Re-runs the engine matrix at each committed Δ (small enough to gate)
/// and diffs structure, accuracy and touched-entry counters.
fn uniformisation_gate(cfg: &Config, committed: &Json, report: &mut Report) -> Result<(), String> {
    let configs = committed
        .get("configs")
        .and_then(Json::as_array)
        .ok_or("committed BENCH_uniformisation.json has no 'configs' array")?;
    let t_query = 8000.0;
    let tight_epsilon = cfg.epsilon.unwrap_or(1e-13);
    for config in configs {
        let delta = config
            .num("delta")
            .ok_or("committed config without 'delta'")?;
        let committed_states = config.num("states").unwrap_or(0.0) as usize;
        if committed_states > MAX_GATED_STATES {
            println!(
                "skip Δ={delta}: {committed_states} states exceeds the quick-gate \
                 budget ({MAX_GATED_STATES})"
            );
            continue;
        }
        let disc = discretise_fig8(delta)?;
        let stats = disc.stats();
        report.check(
            &format!("structure Δ={delta}"),
            stats.states == committed_states
                && stats.generator_nonzeros == config.num("nnz").unwrap_or(0.0) as usize,
            format!(
                "states {} vs committed {}, nnz {} vs {}",
                stats.states,
                committed_states,
                stats.generator_nonzeros,
                config.num("nnz").unwrap_or(0.0) as usize
            ),
        );

        // The committed counters were produced at the baseline ε; re-run
        // with the same settings so touched_entries are comparable.
        let base = TransientOptions {
            threads: cfg.threads.max(4),
            epsilon: 1e-10,
            ..TransientOptions::default()
        };
        let engines = engine_matrix(base);
        let committed_engines = config
            .get("engines")
            .and_then(Json::as_array)
            .ok_or("committed config without 'engines'")?;
        for (name, opts) in &engines {
            let curve = measure_curve(
                disc.chain(),
                disc.alpha(),
                &[t_query],
                disc.empty_measure(),
                opts,
            )
            .map_err(|e| e.to_string())?;
            let Some(row) = committed_engines
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            else {
                // Engines added after the baseline was committed have no
                // reference yet — regenerate the baseline to gate them.
                println!("skip engine {name} at Δ={delta}: not in the committed baseline");
                continue;
            };
            let committed_touched = row.num("touched_entries").unwrap_or(0.0);
            let fresh = curve.touched_entries as f64;
            let growth = if committed_touched > 0.0 {
                fresh / committed_touched - 1.0
            } else {
                0.0
            };
            report.check(
                &format!("touched {name} Δ={delta}"),
                growth <= TOUCHED_GROWTH_LIMIT,
                format!(
                    "{fresh:.0} vs committed {committed_touched:.0} ({:+.1}%)",
                    growth * 100.0
                ),
            );
        }

        if delta == ELL_GATE_DELTA {
            ell_check(&disc, t_query, &base, report)?;
        }
        if delta == WORKER_GATE_DELTA {
            worker_check(&disc, t_query, &base, report)?;
        }

        // Zero-overhead cancellation: with an unlimited budget the
        // cooperative check points must compile down to a never-taken
        // branch — the budgeted engine does *exactly* the same work
        // (touched_entries bit-equal, not merely within the growth
        // limit) and produces *exactly* the same curve as the plain one.
        {
            let opts = engines[0].1;
            let plain = measure_curve(
                disc.chain(),
                disc.alpha(),
                &[t_query],
                disc.empty_measure(),
                &opts,
            )
            .map_err(|e| e.to_string())?;
            let budgeted = measure_curve_budgeted(
                disc.chain(),
                disc.alpha(),
                &[t_query],
                disc.empty_measure(),
                &opts,
                &mut CurveCache::new(),
                &Budget::unlimited(),
            )
            .map_err(|e| e.to_string())?;
            report.check(
                &format!("budget zero-overhead Δ={delta}"),
                budgeted.touched_entries == plain.touched_entries
                    && budgeted.points == plain.points,
                format!(
                    "unlimited-budget engine touched {} vs plain {} \
                     (must be equal), curves bit-identical: {}",
                    budgeted.touched_entries,
                    plain.touched_entries,
                    budgeted.points == plain.points
                ),
            );
        }

        // Accuracy drift at a tightened ε: each engine is within ε of the
        // true curve, so at ε = 1e-13 any sup-distance beyond 1e-12 means
        // an engine broke, not that the budgets added up unluckily.
        let tight = TransientOptions {
            epsilon: tight_epsilon,
            ..base
        };
        let [csr, banded, windowed] = engine_matrix(tight).map(|(_, opts)| {
            measure_curve(
                disc.chain(),
                disc.alpha(),
                &[t_query],
                disc.empty_measure(),
                &opts,
            )
            .map_err(|e| e.to_string())
        });
        let (csr, banded, windowed) = (csr?, banded?, windowed?);
        let full_diff = (csr.points[0].1 - banded.points[0].1).abs();
        let window_diff = (csr.points[0].1 - windowed.points[0].1).abs();
        report.check(
            &format!("accuracy Δ={delta}"),
            full_diff <= DRIFT_BOUND && window_diff <= DRIFT_BOUND,
            format!(
                "banded-full {full_diff:e}, banded-windowed {window_diff:e} vs CSR \
                 at ε={tight_epsilon:e} (bound {DRIFT_BOUND:e})"
            ),
        );
    }
    Ok(())
}

/// `Auto` runs the chain's reachable sub-chain on length-sorted rows, with
/// the forced-CSR engine's bits and `iterations × nnz` touched slots.
fn ell_check(
    disc: &kibamrm::discretise::DiscretisedModel,
    t_query: f64,
    base: &TransientOptions,
    report: &mut Report,
) -> Result<(), String> {
    let chain = disc.chain();
    let reach = chain
        .reachable_from(disc.alpha())
        .map_err(|e| e.to_string())?;
    let (pt, _) = chain
        .uniformised_transposed_auto_on(base.uniformisation_factor, Some(&reach))
        .map_err(|e| e.to_string())?;
    let sorted = pt.as_ell().is_some();
    let nnz = pt.entries_per_product();
    let swept = pt.rows();
    let restricted = swept < chain.n_states();
    let solve = |representation| {
        measure_curve(
            chain,
            disc.alpha(),
            &[t_query],
            disc.empty_measure(),
            &TransientOptions {
                representation,
                ..*base
            },
        )
        .map_err(|e| e.to_string())
    };
    let auto = solve(Representation::Auto)?;
    let csr = solve(Representation::Csr)?;
    let same_bits = auto.points.len() == csr.points.len()
        && auto
            .points
            .iter()
            .zip(&csr.points)
            .all(|(a, c)| a.1.to_bits() == c.1.to_bits());
    let slots = (auto.iterations * nnz) as u64;
    report.check(
        &format!("ell Δ={ELL_GATE_DELTA}"),
        sorted && restricted && same_bits && auto.touched_entries == slots,
        format!(
            "Auto picked sorted rows: {sorted}, swept {swept} of {} states, curve \
             bit-identical to forced CSR: {same_bits}, touched {} vs iterations {} × \
             {nnz} swept nnz = {slots}",
            chain.n_states(),
            auto.touched_entries,
            auto.iterations,
        ),
    );
    Ok(())
}

/// 1 and 4 row workers give the same curve bits on a chain whose swept
/// rows make the row pool run.
fn worker_check(
    disc: &kibamrm::discretise::DiscretisedModel,
    t_query: f64,
    base: &TransientOptions,
    report: &mut Report,
) -> Result<(), String> {
    let chain = disc.chain();
    let swept = chain
        .reachable_from(disc.alpha())
        .map_err(|e| e.to_string())?
        .len();
    let solve = |threads| {
        measure_curve(
            chain,
            disc.alpha(),
            &[t_query / 4.0, t_query],
            disc.empty_measure(),
            &TransientOptions { threads, ..*base },
        )
        .map_err(|e| e.to_string())
    };
    let bits = |c: &CurveSolution| c.points.iter().map(|p| p.1.to_bits()).collect::<Vec<_>>();
    let (one, four) = (solve(1)?, solve(4)?);
    let pooled = swept >= PARALLEL_SPMV_MIN_ROWS;
    let same_bits = bits(&one) == bits(&four);
    report.check(
        &format!("workers Δ={WORKER_GATE_DELTA}"),
        pooled && same_bits,
        format!(
            "{swept} swept rows (pool runs from {PARALLEL_SPMV_MIN_ROWS}): {pooled}, curve \
             bits equal at 1 and 4 row workers: {same_bits}"
        ),
    );
    Ok(())
}

/// Re-runs the Monte Carlo gate configuration: the streaming engine must
/// stay bit-identical across worker-pool sizes and inside the Wilson
/// band of the exact curve, and the committed facts must have been
/// recorded passing (a baseline regenerated in a broken state fails the
/// gate rather than laundering the breakage).
fn mc_gate(committed: &Json, report: &mut Report) -> Result<(), String> {
    use super::mc;
    use crate::json::Json as J;

    let gate = committed
        .get("gate")
        .ok_or("committed BENCH_mc.json has no 'gate' object")?;
    let committed_runs = gate.num("runs").ok_or("gate without 'runs'")? as usize;
    let committed_seed = gate.num("seed").ok_or("gate without 'seed'")? as u64;
    report.check(
        "mc committed facts",
        gate.get("bit_identical_across_threads") == Some(&J::Bool(true))
            && gate.get("within_band") == Some(&J::Bool(true)),
        format!(
            "committed bit_identical {:?}, within_band {:?}",
            gate.get("bit_identical_across_threads"),
            gate.get("within_band")
        ),
    );

    // Validate the committed configuration against the in-code gate
    // constants BEFORE running anything: a stale/corrupt baseline must
    // not steer CI into re-deriving facts at a size or seed the code
    // does not certify (or into an unbounded amount of work).
    let config_ok = committed_runs == mc::GATE_RUNS && committed_seed == mc::GATE_SEED;
    report.check(
        "mc gate configuration",
        config_ok,
        format!(
            "committed runs {committed_runs} / seed {committed_seed} vs code \
             {} / {}",
            mc::GATE_RUNS,
            mc::GATE_SEED
        ),
    );
    if !config_ok {
        return Ok(()); // the failed check above already gates the run
    }

    let facts = mc::gate_facts(mc::GATE_RUNS, mc::GATE_SEED)?;
    report.check(
        "mc thread bit-identity",
        facts.bit_identical,
        format!(
            "streaming studies across worker pools 1/2/4/8 at {} runs",
            facts.runs
        ),
    );
    report.check(
        "mc CI-band agreement",
        facts.within_band(),
        format!(
            "sup-distance {:.4e} vs Wilson band {:.4e} (committed {:.4e})",
            facts.sup_distance,
            facts.wilson_band,
            gate.num("sup_distance_vs_exact").unwrap_or(f64::NAN)
        ),
    );
    Ok(())
}

/// Re-runs the quick fleet trace through a fresh resident service: the
/// served answers must be bit-identical to independent fresh solves
/// (sup-distance exactly 0) and the deterministic trace's hit rate must
/// clear the floor — a cache that silently stopped hitting (e.g. a
/// canonical-key change that no longer erases names) fails here, not in
/// production. The committed facts are gated too: a baseline regenerated
/// in a broken state fails rather than laundering the breakage.
fn service_gate(cfg: &Config, committed: &Json, report: &mut Report) -> Result<(), String> {
    use super::service;

    let trace = committed
        .get("trace")
        .ok_or("committed BENCH_service.json has no 'trace' object")?;
    let committed_sup = trace
        .num("max_abs_difference_vs_fresh")
        .ok_or("trace without 'max_abs_difference_vs_fresh'")?;
    let committed_hit_rate = trace.num("hit_rate").ok_or("trace without 'hit_rate'")?;
    report.check(
        "service committed facts",
        committed_sup == 0.0 && committed_hit_rate >= service::GATE_HIT_RATE_FLOOR,
        format!(
            "committed sup-distance {committed_sup:e} (must be exactly 0), \
             hit rate {committed_hit_rate:.3} (floor {})",
            service::GATE_HIT_RATE_FLOOR
        ),
    );

    let committed_deadline_rate = committed
        .get("deadline_leg")
        .and_then(|leg| leg.num("deadline_hit_rate"));
    let committed_degraded_fraction = committed
        .get("deadline_leg")
        .and_then(|leg| leg.num("degraded_fraction"));
    report.check(
        "service committed deadline facts",
        committed_deadline_rate == Some(service::GATE_DEADLINE_HIT_RATE)
            && committed_degraded_fraction == Some(service::GATE_DEGRADED_FRACTION),
        format!(
            "committed deadline-hit rate {committed_deadline_rate:?} and degraded \
             fraction {committed_degraded_fraction:?} vs the deterministic \
             {} / {}",
            service::GATE_DEADLINE_HIT_RATE,
            service::GATE_DEGRADED_FRACTION
        ),
    );

    let outcome = service::run_fleet_trace(true, 24, cfg.threads.clamp(1, 4))?;
    report.check(
        "service bit-identity (quick trace)",
        outcome.sup_vs_fresh == 0.0,
        format!(
            "served-vs-fresh sup-distance {:e} over {} configurations \
             (must be exactly 0)",
            outcome.sup_vs_fresh, outcome.distinct
        ),
    );
    let hit_rate = outcome.stats.hit_rate();
    report.check(
        "service hit rate (quick trace)",
        hit_rate >= service::GATE_HIT_RATE_FLOOR,
        format!(
            "{hit_rate:.3} over {} requests ({} hits, {} joined, {} misses) \
             vs floor {}",
            outcome.requests,
            outcome.stats.hits,
            outcome.stats.joined,
            outcome.stats.misses,
            service::GATE_HIT_RATE_FLOOR
        ),
    );
    // The deadline leg is deterministic: expired-deadline requests against
    // fresh variants must *all* expire and *all* degrade (with checked
    // bounds — run_fleet_trace errors out on a missing/invalid bound),
    // while resident targets serve exact; any drift in those exact rates
    // means the deadline or degradation path changed behaviour.
    report.check(
        "service deadline determinism (quick trace)",
        outcome.deadline_hit_rate() == service::GATE_DEADLINE_HIT_RATE
            && outcome.degraded_fraction() == service::GATE_DEGRADED_FRACTION
            && outcome.stats.deadline_expired == outcome.distinct as u64
            && outcome.stats.degraded_served == outcome.distinct as u64,
        format!(
            "deadline-hit rate {:.3} (expired {}), degraded fraction {:.3} \
             (served {}) over {} deadline requests vs exact {} / {}",
            outcome.deadline_hit_rate(),
            outcome.stats.deadline_expired,
            outcome.degraded_fraction(),
            outcome.stats.degraded_served,
            outcome.deadline_requests,
            service::GATE_DEADLINE_HIT_RATE,
            service::GATE_DEGRADED_FRACTION
        ),
    );

    // The snapshot-reload leg: the committed facts must describe a
    // lossless restart (every written entry revives, nothing rejected,
    // reload answers bit-identical), and a live re-derivation must
    // reproduce them — a format change that silently drops entries, or
    // a revive path that re-solves instead of hitting, fails here.
    let snap_committed = committed
        .get("snapshot")
        .ok_or("committed BENCH_service.json has no 'snapshot' object")?;
    let committed_written = snap_committed
        .num("entries_written")
        .ok_or("snapshot without 'entries_written'")?;
    let committed_loaded = snap_committed
        .num("loaded")
        .ok_or("snapshot without 'loaded'")?;
    let committed_rejected = snap_committed
        .num("rejected")
        .ok_or("snapshot without 'rejected'")?;
    let committed_reload_rate = snap_committed
        .num("reload_hit_rate")
        .ok_or("snapshot without 'reload_hit_rate'")?;
    let committed_reload_sup = snap_committed
        .num("max_abs_difference_vs_fresh_after_reload")
        .ok_or("snapshot without 'max_abs_difference_vs_fresh_after_reload'")?;
    report.check(
        "service committed snapshot facts",
        committed_loaded == committed_written
            && committed_written > 0.0
            && committed_rejected == 0.0
            && committed_reload_sup == 0.0
            && committed_reload_rate >= service::GATE_HIT_RATE_FLOOR,
        format!(
            "committed reload: {committed_loaded}/{committed_written} entries revived, \
             {committed_rejected} rejected, hit rate {committed_reload_rate:.3} \
             (floor {}), sup-distance {committed_reload_sup:e} (must be exactly 0)",
            service::GATE_HIT_RATE_FLOOR
        ),
    );

    let snap = service::run_snapshot_leg(true)?;
    report.check(
        "service snapshot reload (quick)",
        snap.loaded == snap.entries_written
            && snap.entries_written == snap.distinct
            && snap.rejected == 0
            && snap.sup_vs_fresh == 0.0
            && snap.reload_hit_rate >= service::GATE_HIT_RATE_FLOOR,
        format!(
            "reload revived {}/{} entries ({} rejected) over {} configurations, \
             hit rate {:.3} (floor {}), post-reload sup-distance {:e} \
             (must be exactly 0)",
            snap.loaded,
            snap.entries_written,
            snap.rejected,
            snap.distinct,
            snap.reload_hit_rate,
            service::GATE_HIT_RATE_FLOOR,
            snap.sup_vs_fresh
        ),
    );
    Ok(())
}

/// Re-runs the quick sweep grid: bit-identity planned-vs-naive, and the
/// plan still forms the committed number of groups.
fn sweep_gate(_cfg: &Config, committed: &Json, report: &mut Report) -> Result<(), String> {
    use kibamrm::solver::{SolverOptions, SolverRegistry};
    use kibamrm::sweep::SweepPlan;

    let registry = SolverRegistry::with_default_backends().with_options(SolverOptions {
        scenario_threads: 1,
        row_threads: 1,
        representation: Representation::Csr,
    });
    let base = sweep_experiment::base_scenario()?;
    let grid = sweep_experiment::build_grid(8, &base)?;
    let scenarios = grid.expand().map_err(|e| e.to_string())?;
    let plan = SweepPlan::build(&registry, &scenarios);
    let naive = registry.sweep_naive(&scenarios);
    let planned = registry.sweep(&scenarios);
    let sup = sweep_experiment::sup_distance(&planned, &naive)?;
    report.check(
        "sweep bit-identity (8-point grid)",
        sup == 0.0,
        format!("planned-vs-naive sup-distance {sup:e} (must be exactly 0)"),
    );

    let committed_row = committed
        .get("grids")
        .and_then(Json::as_array)
        .and_then(|grids| grids.iter().find(|g| g.num("points") == Some(8.0)));
    match committed_row {
        Some(row) => {
            let committed_groups = row.num("groups").unwrap_or(0.0) as usize;
            report.check(
                "sweep plan shape (8-point grid)",
                plan.groups().len() == committed_groups,
                format!(
                    "{} groups vs committed {committed_groups}",
                    plan.groups().len()
                ),
            );
        }
        None => report.check(
            "sweep plan shape (8-point grid)",
            false,
            "committed BENCH_sweep.json has no 8-point grid entry".into(),
        ),
    }
    Ok(())
}
