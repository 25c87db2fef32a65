//! Triple cross-validation: the paper's three computational methods —
//! Markovian approximation (§5), stochastic simulation (§6) and the exact
//! Sericola algorithm (`c = 1`) — must agree with each other wherever
//! more than one applies. All methods are reached through the unified
//! `Scenario` → `LifetimeSolver` → `LifetimeDistribution` pipeline.

use kibamrm::scenario::Scenario;
use kibamrm::simulate::simulate_lifetime;
use kibamrm::solver::{
    Budget, DiscretisationSolver, LifetimeSolver, SericolaSolver, SimulationSolver, SolverRegistry,
};
use kibamrm::workload::Workload;
use sim::rng::SimRng;
use units::{Charge, Current, Frequency, Rate, Time};

fn simple_linear() -> Scenario {
    Scenario::builder()
        .name("simple-linear")
        .workload(Workload::simple_model().unwrap())
        .capacity(Charge::from_milliamp_hours(500.0))
        .linear()
        .times((2..=28).map(|h| Time::from_hours(h as f64)).collect())
        .delta(Charge::from_milliamp_hours(2.0))
        .simulation(2000, 77)
        .build()
        .unwrap()
}

/// Simple model, c = 1 (Fig. 10 leftmost family): discretisation at a
/// fine Δ against the exact algorithm. The paper reports "good
/// approximations" for this model class.
#[test]
fn discretisation_matches_exact_simple_model() {
    let scenario = simple_linear();
    let exact = SericolaSolver::new().solve(&scenario).unwrap();
    let approx = DiscretisationSolver::new().solve(&scenario).unwrap();
    let diff = exact.max_difference(&approx).unwrap();
    assert!(diff < 0.03, "max |exact − approx| = {diff} at Δ = 2 mAh");
}

/// Same configuration against simulation (the grid starts later so every
/// sampled point has depletion mass).
#[test]
fn simulation_matches_exact_simple_model() {
    let scenario = simple_linear()
        .with_times((5..=28).map(|h| Time::from_hours(h as f64)).collect())
        .unwrap();
    let exact = SericolaSolver::new().solve(&scenario).unwrap();
    let sim = SimulationSolver::new()
        .with_horizon(Time::from_hours(30.0))
        .solve(&scenario)
        .unwrap();
    for ((t, p), (_, s)) in exact.points().iter().zip(sim.points()) {
        // 2000 runs ⇒ σ ≤ 0.011; allow 4σ.
        assert!((p - s).abs() < 0.045, "t = {t}: exact {p} vs sim {s}");
    }
}

/// Two-well simple model (no exact method): discretisation at Δ = 2 mAh
/// against simulation — the paper's Fig. 10 middle family, where it
/// reports the algorithm "gave good results".
#[test]
fn discretisation_matches_simulation_two_wells() {
    let scenario = Scenario::builder()
        .name("simple-two-wells")
        .workload(Workload::simple_model().unwrap())
        .capacity(Charge::from_milliamp_hours(800.0))
        .kibam(0.625, Rate::per_second(4.5e-5))
        .times((5..=28).map(|h| Time::from_hours(h as f64)).collect())
        .delta(Charge::from_milliamp_hours(2.0))
        .simulation(1500, 78)
        .build()
        .unwrap();
    // Sericola must rule itself out; cross_validate runs the other two.
    let registry = SolverRegistry::with_default_backends();
    let cv = registry.cross_validate(&scenario).unwrap();
    assert!(cv.result("sericola").is_none());
    let approx = cv.result("discretisation").unwrap();
    let sim = cv.result("simulation").unwrap();
    for ((t, p), (_, s)) in approx.points().iter().zip(sim.points()) {
        assert!(
            (p - s).abs() < 0.06,
            "t = {}: approx {p} vs sim {s}",
            t.as_hours()
        );
    }
    assert!(cv.max_disagreement() < 0.06, "{}", cv.max_disagreement());
}

/// The KiBaMRM simulator's special case c = 1, k = 0 must agree with the
/// plain accumulated-consumption view: mean consumed charge matches the
/// MRM expectation, and simulation agrees with the exact CDF point.
#[test]
fn simulator_consumption_consistency() {
    use markov::mrm::MarkovRewardModel;
    let scenario = simple_linear();
    let w = scenario.workload();
    let mrm = MarkovRewardModel::new(w.ctmc().clone(), w.currents_amps()).unwrap();
    // Mean consumed charge at t = 12 h.
    let t = Time::from_hours(12.0);
    let mean_consumed = mrm
        .expected_accumulated_reward(w.initial(), t.as_seconds(), 1e-10)
        .unwrap();
    // Steady-state mean current: 0.5·8 + 0.25·200 + 0.25·0 = 54 mA; the
    // transient mean differs only slightly after 12 h.
    let expected = 0.054 * t.as_seconds();
    assert!(
        (mean_consumed - expected).abs() < 0.03 * expected,
        "consumed {mean_consumed} As vs steady-state estimate {expected} As"
    );
    // And Monte Carlo agrees on the battery-empty probability at the
    // matching capacity threshold.
    let quick = scenario.with_simulation(1000, 79);
    let exact = SericolaSolver::new().solve(&quick).unwrap().cdf(t);
    let sim = SimulationSolver::new()
        .with_horizon(Time::from_hours(30.0))
        .solve(&quick)
        .unwrap()
        .cdf(t);
    assert!((exact - sim).abs() < 0.05, "exact {exact} vs sim {sim}");
}

/// The satellite statistical cross-validation (fixed seed, so the check
/// is deterministic): the sup distance between the simulated curve and
/// the discretisation stays within the study's own Wilson confidence
/// band (3× the largest half-width, plus the discretisation's certified
/// distance from the exact curve — the two error sources compose
/// additively).
#[test]
fn simulation_stays_within_its_wilson_band_of_the_discretisation() {
    let scenario = simple_linear().with_simulation(2000, 81);
    let solver = SimulationSolver::new();
    let sim = solver.solve(&scenario).unwrap();
    let study = solver
        .streaming_study(&scenario, &Budget::unlimited())
        .unwrap();
    assert_eq!(study.total_runs(), 2000);
    let disc = DiscretisationSolver::new().solve(&scenario).unwrap();
    let exact = SericolaSolver::new().solve(&scenario).unwrap();
    let disc_error = exact.max_difference(&disc).unwrap();

    // Pointwise: each simulated point sits within 3 Wilson half-widths
    // (≈ 3σ) of the discretised curve once its deterministic error is
    // granted.
    let mut sup = 0.0f64;
    for (i, ((t, p_sim), (_, p_disc))) in sim.points().iter().zip(disc.points()).enumerate() {
        let band = 3.0 * study.confidence_half_width(i) + disc_error;
        let gap = (p_sim - p_disc).abs();
        sup = sup.max(gap);
        assert!(
            gap <= band,
            "t = {t}: |sim − disc| = {gap} exceeds the band {band}"
        );
    }
    // And the sup distance respects the global band.
    let global_band = 3.0 * study.max_half_width() + disc_error;
    assert!(sup <= global_band, "sup {sup} vs band {global_band}");
    // The band is meaningful: it is not vacuously ≥ 1.
    assert!(global_band < 0.15, "band too loose to validate anything");
}

/// On/off model with two wells: simulation against a fine discretisation
/// (Fig. 8's message — the approximation approaches simulation from the
/// pessimistic side as Δ shrinks). Compare medians rather than pointwise
/// values: the approximation of a near-deterministic CDF is smeared
/// (paper's own observation on Figs. 7–8), but its centre must be right.
#[test]
fn on_off_two_wells_methods_agree_roughly() {
    let w =
        Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96)).unwrap();
    let scenario = Scenario::builder()
        .name("onoff-two-wells")
        .workload(w)
        .capacity(Charge::from_amp_seconds(7200.0))
        .kibam(0.625, Rate::per_second(4.5e-5))
        .times(
            (0..=100)
                .map(|i| Time::from_seconds(10_000.0 + i as f64 * 100.0))
                .collect(),
        )
        .delta(Charge::from_amp_seconds(25.0))
        .simulation(800, 80)
        .build()
        .unwrap();
    let approx = DiscretisationSolver::new().solve(&scenario).unwrap();
    let median_approx = approx.median().expect("median reached").as_seconds();
    // The simulated median is an order statistic: collect the 800
    // lifetimes the simulation backend would draw (replication `i` on
    // stream `i` of the scenario's seed) and take the left-continuous
    // inverse of their empirical CDF.
    let model = scenario.to_model().unwrap();
    let horizon = Time::from_seconds(25_000.0);
    let mut lifetimes: Vec<f64> = (0..scenario.sim_runs() as u64)
        .map(|i| {
            let mut rng = SimRng::stream(scenario.sim_seed(), i);
            simulate_lifetime(&model, horizon, &mut rng)
                .unwrap()
                .expect("every run depletes by 25 000 s")
                .as_seconds()
        })
        .collect();
    lifetimes.sort_by(f64::total_cmp);
    let median_sim = lifetimes[(0.5 * lifetimes.len() as f64).ceil() as usize - 1];
    let rel = (median_approx - median_sim).abs() / median_sim;
    assert!(
        rel < 0.05,
        "median: approx {median_approx} vs sim {median_sim} (rel {rel})"
    );
}
