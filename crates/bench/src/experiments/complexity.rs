//! §5.3 / §6.1 complexity accounting: states, generator non-zeros and
//! uniformisation iteration counts of the derived CTMCs, compared against
//! every number the paper quotes:
//!
//! * on/off `c = 1`, `Δ = 5` → **2882 states**; `t = 17000 s` → **> 36000
//!   iterations**;
//! * on/off `c = 0.625`, `Δ = 5` → **≈ 3.2·10⁶ non-zeros**; `t = 10⁴ s` →
//!   **> 2.3·10⁴ iterations**, `t = 2·10⁴ s` → **> 4.6·10⁴**.
//!
//! Chains come from [`kibamrm::solver::DiscretisationSolver::discretise`] so the
//! accounting shares the solver facade's Δ/option plumbing.

use super::config::Config;
use super::save_table;
use kibamrm::scenario::Scenario;
use kibamrm::workload::Workload;
use units::{Charge, Current, Frequency, Rate, Time};

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>6} {:>9} {:>11} {:>8} {:>11}",
        "model", "Delta", "states", "gen-nnz", "t (s)", "iterations"
    );

    // Part 1: the c = 1 chain (cheap at every Δ).
    for &delta in &[100.0, 50.0, 25.0, 5.0] {
        run_one(cfg, &mut rows, "onoff_c1", 1.0, 0.0, delta, 17_000.0)?;
    }

    // Part 2: the two-well chain. Δ = 5 is the paper's heavyweight
    // (≈ 9.7·10⁵ states); skipped in fast mode.
    let two_well_deltas: &[f64] = if cfg.fast {
        &[100.0, 50.0, 25.0]
    } else {
        &[100.0, 50.0, 25.0, 10.0, 5.0]
    };
    for &delta in two_well_deltas {
        run_one(
            cfg,
            &mut rows,
            "onoff_2well",
            0.625,
            4.5e-5,
            delta,
            10_000.0,
        )?;
        if delta == 5.0 {
            run_one(
                cfg,
                &mut rows,
                "onoff_2well",
                0.625,
                4.5e-5,
                delta,
                20_000.0,
            )?;
        }
    }

    println!(
        "\npaper reference points: 2882 states (c=1, Δ=5); ≈3.2e6 non-zeros \
         (2-well, Δ=5); >36000 iterations @ t=17000 (c=1, Δ=5); \
         >2.3e4 @ t=1e4 and >4.6e4 @ t=2e4 (2-well, Δ=5)"
    );

    save_table(
        cfg,
        "complexity",
        &[
            "model",
            "delta_As",
            "states",
            "generator_nonzeros",
            "t_seconds",
            "iterations",
        ],
        &rows,
    )
}

fn run_one(
    cfg: &Config,
    rows: &mut Vec<Vec<String>>,
    name: &str,
    c: f64,
    k: f64,
    delta: f64,
    t_seconds: f64,
) -> Result<(), String> {
    let workload = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
        .map_err(|e| e.to_string())?;
    let scenario = Scenario::builder()
        .name(format!("{name}-d{delta}"))
        .workload(workload)
        .capacity(Charge::from_amp_seconds(7200.0))
        .kibam(c, Rate::per_second(k))
        .times(vec![Time::from_seconds(t_seconds)])
        .delta(Charge::from_amp_seconds(delta))
        .build()
        .map_err(|e| e.to_string())?;
    // ν = max exit rate and no steady-state early exit, as the paper's
    // iteration counts imply.
    let solver = cfg.accounting_discretisation_solver();
    let disc = solver.discretise(&scenario).map_err(|e| e.to_string())?;
    // The iteration count of the sweep is exactly the Fox–Glynn right
    // truncation point of Poisson(ν·t) — computed directly, so this
    // accounting experiment stays cheap even at Δ = 5 where the full
    // transient solve takes minutes.
    let nu = disc.chain().max_exit_rate();
    let mut window = markov::foxglynn::FoxGlynnCache::new();
    window
        .compute(nu * t_seconds, solver.transient().epsilon)
        .map_err(|e| e.to_string())?;
    let iterations = window.right();
    let stats = disc.stats();
    println!(
        "{name:<10} {delta:>6} {:>9} {:>11} {t_seconds:>8} {:>11}",
        stats.states, stats.generator_nonzeros, iterations
    );
    rows.push(vec![
        name.to_owned(),
        format!("{delta}"),
        format!("{}", stats.states),
        format!("{}", stats.generator_nonzeros),
        format!("{t_seconds}"),
        format!("{iterations}"),
    ]);
    Ok(())
}
