//! Figure 8: lifetime distribution of the on/off model with both wells
//! active (`c = 0.625`, `k = 4.5·10⁻⁵/s`) — the Markovian approximation
//! at `Δ ∈ {100, 50, 25, 10, 5}` against simulation, all through the
//! unified solver API.
//!
//! At `Δ = 5` the derived CTMC has ≈ 9.7·10⁵ states and ≈ 3.4·10⁶
//! generator non-zeros, and the `t = 20000 s` solution needs > 4.6·10⁴
//! matrix–vector products (§6.1) — the heaviest computation in the paper.

use super::config::Config;
use super::save_curves;
use kibamrm::scenario::Scenario;
use kibamrm::solver::{LifetimeSolver, SimulationSolver};
use kibamrm::workload::Workload;
use units::{Charge, Current, Frequency, Rate, Time};

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    let workload = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
        .map_err(|e| e.to_string())?;
    let times: Vec<Time> = (0..=140)
        .map(|i| Time::from_seconds(6000.0 + i as f64 * 100.0))
        .collect();
    let base = Scenario::builder()
        .name("fig8-onoff-two-wells")
        .workload(workload)
        .capacity(Charge::from_amp_seconds(7200.0))
        .kibam(0.625, Rate::per_second(4.5e-5))
        .times(times)
        .simulation(cfg.sim_runs(), 2008)
        .build()
        .map_err(|e| e.to_string())?;

    let solver = cfg.paper_discretisation_solver();
    let deltas: &[f64] = if cfg.fast {
        &[100.0, 50.0, 25.0]
    } else {
        &[100.0, 50.0, 25.0, 10.0, 5.0]
    };
    let mut curves = Vec::new();
    for &delta in deltas {
        let scenario = base.with_delta(Charge::from_amp_seconds(delta));
        let dist = solver.solve(&scenario).map_err(|e| e.to_string())?;
        let d = dist.diagnostics();
        println!(
            "Δ = {delta:>5}: {:>7} states, {:>9} generator non-zeros, {:>6} iterations",
            d.states.unwrap_or(0),
            d.generator_nonzeros.unwrap_or(0),
            d.iterations.unwrap_or(0),
        );
        curves.push(dist.to_curve(format!("Delta={delta}")));
    }

    let sim = SimulationSolver::new()
        .with_horizon(Time::from_seconds(25_000.0))
        .solve(&base)
        .map_err(|e| e.to_string())?;
    println!(
        "simulation ({} runs): mean lifetime {:.0} s",
        sim.diagnostics().runs.unwrap_or(0),
        sim.mean().as_seconds()
    );
    curves.push(sim.to_curve("simulation"));

    save_curves(cfg, "fig8_onoff_two_wells", "t_seconds", &curves)
}
