//! Designing and validating a custom workload end to end.
//!
//! Shows the full API surface a downstream user touches when modelling
//! their own device:
//!
//! 1. build a custom workload with [`kibamrm::builder::WorkloadBuilder`];
//! 2. sanity-check it with steady-state analysis and CSRL-style
//!    time-bounded reachability;
//! 3. compress time exactly to make the numerics cheap;
//! 4. describe the question once as a [`kibamrm::scenario::Scenario`],
//!    serialise it to its config text, and cross-validate every
//!    applicable solver with `SolverRegistry::cross_validate`;
//! 5. inspect expected well contents over time.
//!
//! Run with: `cargo run --release --example workload_designer`
//! (its unit tests run under `cargo test`).

use kibamrm::builder::WorkloadBuilder;
use kibamrm::scenario::Scenario;
use kibamrm::solver::{DiscretisationSolver, SolverRegistry};
use markov::ctmc::{Ctmc, CtmcBuilder};
use markov::steady_state::stationary_gth;
use markov::transient::{measure_curve, TransientOptions};
use markov::MarkovError;
use units::{Charge, Current, Rate, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A GPS tracker: deep sleep, periodic fixes, occasional uplink.
    let workload = WorkloadBuilder::new()
        .state("sleep", Current::from_milliamps(0.1))
        .state("fix", Current::from_milliamps(45.0))
        .state("uplink", Current::from_milliamps(220.0))
        .transition("sleep", "fix", Rate::per_hour(6.0)) // fix every 10 min
        .transition("fix", "sleep", Rate::per_hour(120.0)) // 30 s per fix
        .transition("fix", "uplink", Rate::per_hour(24.0)) // every 5th fix uplinks
        .transition("uplink", "sleep", Rate::per_hour(360.0)) // 10 s bursts
        .initial("sleep")
        .build()?;

    let pi = stationary_gth(workload.ctmc())?;
    println!(
        "steady state: sleep {:.4}, fix {:.4}, uplink {:.4}",
        pi[0], pi[1], pi[2]
    );
    let mean_ma = pi[0] * 0.1 + pi[1] * 45.0 + pi[2] * 220.0;
    println!("mean draw: {mean_ma:.2} mA");

    // 2. How quickly does the tracker first reach the uplink state?
    let reach = time_bounded_reachability(
        workload.ctmc(),
        &[false, false, true],
        workload.initial(),
        &[3600.0, 4.0 * 3600.0, 12.0 * 3600.0],
        &TransientOptions::default(),
    )?;
    for (t, p) in &reach {
        println!("Pr[first uplink within {:>4.0} h] = {p:.3}", t / 3600.0);
    }

    // 3. A 1200 mAh battery would last weeks — compress time 24× so an
    //    hour of compressed analysis equals a day of real operation.
    //    (Scenario validation happens in build(); the compression uses
    //    the model layer's exact rescaling.)
    let real = kibamrm::model::KibamRm::new(
        workload,
        Charge::from_milliamp_hours(1200.0),
        0.625,
        Rate::per_second(4.5e-5),
    )?;
    let compressed = real.time_compressed(24.0)?;
    println!(
        "\ncompressed battery: {:.1} mAh (exact rescaling, lifetimes ×1/24)",
        compressed.capacity().as_milliamp_hours()
    );

    // 4. One scenario, every applicable method. The config text is what
    //    you would store in a fleet-management database.
    let scenario = Scenario::builder()
        .name("gps-tracker-24x")
        .workload(compressed.workload().clone())
        .capacity(compressed.capacity())
        .kibam(compressed.c(), compressed.k())
        .time_grid(Time::from_hours(30.0), 60)
        .delta(Charge::from_milliamp_hours(1.25))
        .simulation(400, 99)
        .build()?;
    println!("\nscenario config:\n{}", scenario.to_config_string()?);

    let cv = SolverRegistry::with_default_backends().cross_validate(&scenario)?;
    for (a, b, d) in &cv.pairwise {
        println!("sup |{a} − {b}| = {d:.3}");
    }
    println!(
        "max disagreement across methods: {:.3}",
        cv.max_disagreement()
    );

    // 5. Expected well contents at a few checkpoints (the derived chain
    //    behind the discretisation backend answers more than the CDF).
    println!("\nt (compressed h)   E[available] mAh   E[bound] mAh");
    let disc = DiscretisationSolver::new().discretise(&scenario)?;
    let checkpoints = [4.0, 12.0, 20.0, 28.0];
    let curves = disc.expected_charge_curves(&checkpoints.map(Time::from_hours))?;
    for (t, y1, y2) in &curves {
        println!(
            "{:>16.0}   {:>16.1}   {:>12.1}",
            t.as_hours(),
            y1.as_milliamp_hours(),
            y2.as_milliamp_hours()
        );
    }
    println!(
        "\n(equivalent real-time horizon: {:.0} days)",
        30.0 * 24.0 / 24.0
    );
    Ok(())
}

/// `Pr[reach a target state within each t]` from initial distribution
/// `alpha`, for any grid of time bounds.
///
/// This is the workhorse query of CSRL model checking, the line of work
/// the paper's algorithm grew out of (its refs. \[15\], \[16\]); the
/// battery-lifetime distribution is such a query on the derived chain,
/// with the battery-empty states as targets. The standard reduction
/// makes the targets absorbing: the transient probability of sitting in
/// one at time `t` is then the probability of having reached one by `t`.
///
/// # Errors
///
/// [`MarkovError::InvalidArgument`] when `targets` has the wrong length
/// or selects no state; propagates transient-solver errors.
fn time_bounded_reachability(
    ctmc: &Ctmc,
    targets: &[bool],
    alpha: &[f64],
    times: &[f64],
    opts: &TransientOptions,
) -> Result<Vec<(f64, f64)>, MarkovError> {
    let n = ctmc.n_states();
    if targets.len() != n {
        return Err(MarkovError::InvalidArgument(format!(
            "target mask has {} entries for {} states",
            targets.len(),
            n
        )));
    }
    if !targets.iter().any(|&b| b) {
        return Err(MarkovError::InvalidArgument("empty target set".into()));
    }
    // Cut all outgoing transitions of target states.
    let mut builder = CtmcBuilder::new(n);
    for i in (0..n).filter(|&i| !targets[i]) {
        for (j, rate) in ctmc.rates().row(i) {
            builder.rate(i, j, rate)?;
        }
    }
    let absorbed = builder.build()?;
    let measure: Vec<f64> = targets.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
    let curve = measure_curve(&absorbed, alpha, times, &measure, opts)?;
    Ok(curve.points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_jump_at_rate_two() {
        // 0 → 1 at rate 2: Pr[reach 1 by t] = 1 − e^{−2t}.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 2.0).unwrap();
        let chain = b.build().unwrap();
        let ps = time_bounded_reachability(
            &chain,
            &[false, true],
            &[1.0, 0.0],
            &[1.0],
            &TransientOptions::default(),
        )
        .unwrap();
        assert!((ps[0].1 - (1.0 - (-2.0f64).exp())).abs() < 1e-10);
    }

    #[test]
    fn exponential_hitting_time() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 3.0).unwrap();
        b.rate(1, 0, 100.0).unwrap(); // would bounce back — must be cut
        let chain = b.build().unwrap();
        let ps = time_bounded_reachability(
            &chain,
            &[false, true],
            &[1.0, 0.0],
            &[0.1, 0.5, 2.0],
            &TransientOptions::default(),
        )
        .unwrap();
        for (t, p) in ps {
            let expect = 1.0 - (-3.0 * t).exp();
            assert!((p - expect).abs() < 1e-10, "t = {t}: {p} vs {expect}");
        }
    }

    #[test]
    fn two_hop_chain_erlang_cdf() {
        // 0 → 1 → 2 at equal rates λ: hitting time of 2 is Erlang-2.
        let lambda = 2.0;
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, lambda).unwrap();
        b.rate(1, 2, lambda).unwrap();
        let chain = b.build().unwrap();
        let ps = time_bounded_reachability(
            &chain,
            &[false, false, true],
            &[1.0, 0.0, 0.0],
            &[0.3, 1.0, 3.0],
            &TransientOptions::default(),
        )
        .unwrap();
        for (t, p) in ps {
            let x = lambda * t;
            let expect = 1.0 - (-x).exp() * (1.0 + x);
            assert!((p - expect).abs() < 1e-10, "t = {t}: {p} vs {expect}");
        }
    }

    #[test]
    fn starting_inside_target_is_immediate() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let chain = b.build().unwrap();
        let ps = time_bounded_reachability(
            &chain,
            &[true, false],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &TransientOptions::default(),
        )
        .unwrap();
        assert_eq!(ps[0].1, 1.0, "t = 0 is computed without a Poisson sum");
        assert!((ps[1].1 - 1.0).abs() < 1e-12, "p = {}", ps[1].1);
    }

    #[test]
    fn probability_monotone_in_time() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 0.5).unwrap();
        b.rate(1, 2, 0.25).unwrap();
        let chain = b.build().unwrap();
        let times: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ps = time_bounded_reachability(
            &chain,
            &[false, false, true],
            &[1.0, 0.0, 0.0],
            &times,
            &TransientOptions::default(),
        )
        .unwrap();
        let mut prev = 0.0;
        for (t, p) in ps {
            assert!(p >= prev - 1e-12, "not monotone at t = {t}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn validation() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        let chain = b.build().unwrap();
        let opts = TransientOptions::default();
        assert!(time_bounded_reachability(&chain, &[true], &[1.0, 0.0], &[1.0], &opts).is_err());
        assert!(
            time_bounded_reachability(&chain, &[false, false], &[1.0, 0.0], &[1.0], &opts).is_err()
        );
    }
}
