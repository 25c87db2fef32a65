//! Figure 11: simple vs burst model (`C = 800 mAh`, `c = 0.625`,
//! `Δ = 5 mAh`). Both models send a quarter of the time in steady state,
//! but the burst model condenses activity and sleeps more — its lifetime
//! curve lies to the right (paper: ≈ 95 % vs ≈ 89 % empty at `t = 20 h`).
//!
//! The two scenarios differ only in their workload and are evaluated as
//! a grid through one `sweep` call.

use super::config::Config;
use super::save_curves;
use kibamrm::scenario::Scenario;
use kibamrm::workload::Workload;
use units::{Charge, Rate, Time};

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    let delta = Charge::from_milliamp_hours(if cfg.fast { 25.0 } else { 5.0 });
    let times: Vec<Time> = (0..=120)
        .map(|i| Time::from_hours(i as f64 * 0.25))
        .collect();

    let base = Scenario::builder()
        .name("simple")
        .workload(Workload::simple_model().map_err(|e| e.to_string())?)
        .capacity(Charge::from_milliamp_hours(800.0))
        .kibam(0.625, Rate::per_second(4.5e-5))
        .times(times)
        .delta(delta)
        .build()
        .map_err(|e| e.to_string())?;
    let grid = [
        base.clone(),
        base.with_name("burst")
            .with_workload(Workload::burst_model().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?,
    ];

    let results = cfg.sweep_registry(cfg.discretisation_solver()).sweep(&grid);

    let mut curves = Vec::new();
    let mut at_20h = Vec::new();
    for (scenario, result) in grid.iter().zip(results) {
        let dist = result.map_err(|e| e.to_string())?;
        let p20 = dist.cdf(Time::from_hours(20.0));
        println!(
            "{:<7}: {:>6} states, {:>5} iterations, P[empty @ 20 h] = {p20:.4}",
            scenario.name(),
            dist.diagnostics().states.unwrap_or(0),
            dist.diagnostics().iterations.unwrap_or(0)
        );
        at_20h.push(p20);
        curves.push(dist.to_curve_hours(scenario.name()));
    }

    println!(
        "\npaper: simple ≈ 0.95, burst ≈ 0.89 at 20 h; measured gap {:.3} \
         (burst lives longer: {})",
        at_20h[0] - at_20h[1],
        if at_20h[1] < at_20h[0] {
            "holds"
        } else {
            "VIOLATED"
        }
    );

    save_curves(cfg, "fig11_simple_vs_burst", "t_hours", &curves)
}
