//! Figure 9: the on/off model with different initial capacities at
//! `Δ = 5 As`:
//!
//! * `C = 7200 As, c = 1` — everything available (longest life);
//! * `C = 7200 As, c = 0.625` — 37.5 % starts bound (middle);
//! * `C = 4500 As, c = 1` — only the available part exists (shortest).
//!
//! The three scenarios form a grid evaluated in one
//! [`kibamrm::solver::SolverRegistry::sweep`] call (discretisation
//! backend only: the paper's figure compares approximations, and
//! Sericola at νt ≈ 4·10⁴ would be pointlessly slow).

use super::config::Config;
use super::save_curves;
use kibamrm::scenario::Scenario;
use kibamrm::workload::Workload;
use units::{Charge, Current, Frequency, Rate, Time};

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    let delta = if cfg.fast { 25.0 } else { 5.0 };
    let times: Vec<Time> = (0..=140)
        .map(|i| Time::from_seconds(6000.0 + i as f64 * 100.0))
        .collect();
    let workload = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
        .map_err(|e| e.to_string())?;
    let base = Scenario::builder()
        .name("fig9")
        .workload(workload)
        .capacity(Charge::from_amp_seconds(7200.0))
        .linear()
        .times(times)
        .delta(Charge::from_amp_seconds(delta))
        .build()
        .map_err(|e| e.to_string())?;

    let variants: [(&str, f64, f64, f64); 3] = [
        ("C=7200_c=1", 7200.0, 1.0, 0.0),
        ("C=7200_c=0.625", 7200.0, 0.625, 4.5e-5),
        ("C=4500_c=1", 4500.0, 1.0, 0.0),
    ];
    let grid: Vec<Scenario> = variants
        .iter()
        .map(|&(name, capacity, c, k)| {
            base.with_name(name)
                .with_capacity(Charge::from_amp_seconds(capacity))
                .and_then(|s| s.with_kibam(c, Rate::per_second(k)))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;

    let results = cfg
        .sweep_registry(cfg.paper_discretisation_solver())
        .sweep(&grid);

    let mut curves = Vec::new();
    let mut p_at_14000 = Vec::new();
    for (scenario, result) in grid.iter().zip(results) {
        let dist = result.map_err(|e| e.to_string())?;
        let p = dist.cdf(Time::from_seconds(14_000.0));
        println!(
            "{:<16} Δ = {delta}: {:>7} states, P[empty @ 14000 s] = {p:.3}",
            scenario.name(),
            dist.diagnostics().states.unwrap_or(0)
        );
        p_at_14000.push(p);
        curves.push(dist.to_curve(scenario.name()));
    }

    println!(
        "\nshape check (paper): curves ordered shortest-lived first: \
         C=4500/c=1 ≥ C=7200/c=0.625 ≥ C=7200/c=1 → {} ",
        if p_at_14000[2] >= p_at_14000[1] && p_at_14000[1] >= p_at_14000[0] {
            "holds"
        } else {
            "VIOLATED"
        }
    );

    save_curves(cfg, "fig9_initial_capacities", "t_seconds", &curves)
}
