//! Active-window accounting: how much of the state space the windowed
//! banded engine actually touches, per `Δ`, on the paper's Fig. 8
//! two-well chain.
//!
//! For each `Δ` the experiment solves the same
//! `Pr[battery empty at t]` curve through the CSR engine (every product
//! sweeps all non-zeros) and through the banded engine with the active
//! window, and reports
//!
//! * the chain's lattice stencil (`band_offsets`, `bandwidth` — the
//!   per-product growth bound of the window),
//! * `touched_entries` of both engines and their ratio (the fraction of
//!   work the window skips),
//! * the trimmed-mass deficit (must stay within half the ε budget),
//! * the sup-distance between the two curves (must stay within ε).
//!
//! Results go to `window.csv`; the finest `Δ` rows are where the
//! savings matter (the paper's accuracy knob is exactly "make `Δ`
//! small").

use super::config::Config;
use super::save_table;
use kibamrm::discretise::{DiscretisationOptions, DiscretisedModel};
use kibamrm::model::KibamRm;
use kibamrm::workload::Workload;
use markov::transient::{measure_curve, Representation, TransientOptions};
use units::{Charge, Current, Frequency, Rate};

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    let deltas: &[f64] = if cfg.quick {
        &[300.0]
    } else if cfg.fast {
        &[300.0, 100.0]
    } else {
        &[300.0, 100.0, 50.0, 25.0, 10.0]
    };
    let times = [2000.0, 8000.0];
    let epsilon = 1e-10;

    let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
        .map_err(|e| e.to_string())?;
    let model = KibamRm::new(
        w,
        Charge::from_amp_seconds(7200.0),
        0.625,
        Rate::per_second(4.5e-5),
    )
    .map_err(|e| e.to_string())?;

    println!(
        "{:<7} {:>8} {:>5} {:>6} {:>11} {:>14} {:>14} {:>7} {:>10}",
        "Delta",
        "states",
        "offs",
        "bw",
        "iterations",
        "csr_touched",
        "win_touched",
        "saved",
        "deficit"
    );
    let mut rows = Vec::new();
    for &delta in deltas {
        let disc = DiscretisedModel::build(
            &model,
            &DiscretisationOptions::with_delta(Charge::from_amp_seconds(delta)),
        )
        .map_err(|e| e.to_string())?;
        let stats = disc.stats();
        let base = TransientOptions {
            threads: cfg.threads,
            epsilon,
            ..TransientOptions::default()
        };
        let solve = |representation, active_window| {
            measure_curve(
                disc.chain(),
                disc.alpha(),
                &times,
                disc.empty_measure(),
                &TransientOptions {
                    representation,
                    active_window,
                    ..base
                },
            )
            .map_err(|e| e.to_string())
        };
        let csr = solve(Representation::Csr, false)?;
        let win = solve(Representation::Banded, true)?;

        let sup: f64 = csr
            .points
            .iter()
            .zip(&win.points)
            .map(|(&(_, a), &(_, b))| (a - b).abs())
            .fold(0.0, f64::max);
        // Provable agreement bound is 2ε: each engine is within ε of
        // the true curve (CSR spends all of ε on Fox–Glynn, the
        // windowed engine ε/2 + ε/2 on truncation + trimming).
        if sup > 2.0 * epsilon {
            return Err(format!(
                "windowed curve disagrees with CSR at Δ = {delta}: sup-distance {sup:e}"
            ));
        }
        if win.window_deficit > epsilon / 2.0 {
            return Err(format!(
                "window deficit {:e} exceeds the ε/2 budget at Δ = {delta}",
                win.window_deficit
            ));
        }
        let saved = 1.0 - win.touched_entries as f64 / csr.touched_entries.max(1) as f64;
        println!(
            "{delta:<7} {:>8} {:>5} {:>6} {:>11} {:>14} {:>14} {:>6.1}% {:>10.2e}",
            stats.states,
            stats.band_offsets,
            stats.bandwidth,
            csr.iterations,
            csr.touched_entries,
            win.touched_entries,
            100.0 * saved,
            win.window_deficit
        );
        rows.push(vec![
            format!("{delta}"),
            format!("{}", stats.states),
            format!("{}", stats.band_offsets),
            format!("{}", stats.bandwidth),
            format!("{}", csr.iterations),
            format!("{}", win.iterations),
            format!("{}", csr.touched_entries),
            format!("{}", win.touched_entries),
            format!("{saved:.4}"),
            format!("{:e}", win.window_deficit),
            format!("{sup:e}"),
        ]);
    }
    save_table(
        cfg,
        "window",
        &[
            "delta",
            "states",
            "band_offsets",
            "bandwidth",
            "csr_iterations",
            "windowed_iterations",
            "csr_touched_entries",
            "windowed_touched_entries",
            "fraction_saved",
            "window_deficit",
            "sup_distance",
        ],
        &rows,
    )
}
