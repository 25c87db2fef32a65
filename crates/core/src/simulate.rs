//! Stochastic simulation of the exact KiBaMRM dynamics.
//!
//! This is the validation baseline of the paper's §6 ("Simulation" curves,
//! 1000 independent runs): the workload CTMC is sampled jump by jump, and
//! within each sojourn — where the current is constant — the KiBaM wells
//! evolve by the *closed-form* solution, with exact depletion detection.
//! No discretisation error enters at all; the only error is statistical.
//!
//! [`simulate_lifetime`] runs one replication;
//! [`streaming_lifetime_study`] runs a fixed count of them on
//! [`sim::engine::run_study`]'s scoped workers and folds them into a
//! fixed-grid [`StreamingLifetimeStudy`] (O(threads · grid) memory plus
//! 24 B per 256-run batch, bit-identical for any thread count). A
//! replication's simulation error comes back through the engine as
//! itself. Replication `i` draws from
//! [`SimRng::stream`]`(seed, i)`, so a caller that needs every observed
//! lifetime (order statistics, say) gets the same replications by
//! calling [`simulate_lifetime`] on those streams itself.

use crate::model::KibamRm;
use crate::KibamRmError;
use markov::Budget;
use sim::engine::{run_study, EngineError};
use sim::rng::SimRng;
use sim::streaming::StreamingLifetimeStudy;
use sim::trajectory::{next_state, sample_initial};
use units::Time;

/// Simulates one battery lifetime, up to `horizon`.
///
/// Returns `Ok(None)` when the battery survives the whole horizon.
///
/// # Errors
///
/// [`KibamRmError::Markov`] for sampling failures (cannot happen for
/// validated workloads), [`KibamRmError::Battery`] for battery stepping
/// failures.
pub fn simulate_lifetime(
    model: &KibamRm,
    horizon: Time,
    rng: &mut SimRng,
) -> Result<Option<Time>, KibamRmError> {
    let workload = model.workload();
    let chain = workload.ctmc();
    let battery = model.battery();

    let mut state = sample_initial(chain, workload.initial(), rng)?;
    let mut charge = battery.full_state();
    let mut t = Time::ZERO;

    while t < horizon {
        let exit = chain.exit_rate(state);
        let sojourn = if exit > 0.0 {
            Time::from_seconds(rng.exponential(exit))
        } else {
            horizon - t // absorbing workload state: stay forever
        };
        let dt = sojourn.min(horizon - t);
        let current = workload.current(state);
        let end = battery.advance_state(&charge, current, dt)?;
        // `depletion_after` reports a crossing only when the step starts
        // or ends at or below zero; on every other event it would repeat
        // the advance above just to return `None`.
        if end.available.value() <= 0.0 || charge.available.value() <= 0.0 {
            if let Some(d) = battery.depletion_after(&charge, current, dt)? {
                return Ok(Some(t + d));
            }
        }
        charge = end;
        t += dt;
        if t < horizon && exit > 0.0 {
            state = next_state(chain, state, rng)?;
        }
    }
    Ok(None)
}

/// Runs `runs` independent lifetime simulations (the paper uses 1000)
/// as the parallel streaming study: replications on up to `threads`
/// workers, folded into a fixed-grid accumulator over `grid`
/// (O(threads · grid) memory plus 24 B per 256-run batch), under a
/// cooperative [`Budget`]. Results are bit-identical for any worker
/// count.
///
/// A study where no run depleted is returned as the valid all-zero curve
/// (`depleted_runs() == 0`), **not** an error — one long-lived scenario
/// must not abort a whole sweep.
///
/// The budget is checked once per claimed batch; an exhausted budget
/// stops the claiming (batches already running finish first) and
/// surfaces [`KibamRmError::DeadlineExceeded`] with the replications of
/// the completed batches.
///
/// # Errors
///
/// [`KibamRmError::InvalidWorkload`] on empty/unsorted grids, a horizon
/// short of the grid, or a zero replication count;
/// [`KibamRmError::DeadlineExceeded`] on budget exhaustion; otherwise
/// the simulation error of the lowest-index failing replication batch,
/// the same at every thread count.
pub fn streaming_lifetime_study(
    model: &KibamRm,
    grid: &[Time],
    horizon: Time,
    seed: u64,
    runs: u64,
    threads: usize,
    budget: &Budget,
) -> Result<StreamingLifetimeStudy, KibamRmError> {
    if runs == 0 {
        return Err(KibamRmError::InvalidWorkload(
            "a lifetime study needs at least one replication".into(),
        ));
    }
    let experiment = |rng: &mut SimRng| {
        simulate_lifetime(model, horizon, rng).map(|t| t.map(|t| t.as_seconds()))
    };
    let grid_seconds: Vec<f64> = grid.iter().map(|t| t.as_seconds()).collect();
    run_study(
        threads,
        grid_seconds,
        horizon.as_seconds(),
        seed,
        runs,
        &experiment,
        budget,
    )
    .map_err(|e| match e {
        EngineError::Experiment(e) => e,
        EngineError::DeadlineExceeded { completed_runs } => KibamRmError::DeadlineExceeded {
            completed: completed_runs as usize,
        },
        EngineError::Streaming(e) => {
            KibamRmError::InvalidWorkload(format!("simulation engine: {e}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use units::{Charge, Current, Frequency, Rate};

    fn on_off_linear() -> KibamRm {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            1.0,
            Rate::per_second(0.0),
        )
        .unwrap()
    }

    /// Every replication's outcome in seconds, replication `i` drawn
    /// from `SimRng::stream(seed, i)` as the streaming study draws it.
    fn outcomes(model: &KibamRm, horizon: Time, runs: u64, seed: u64) -> Vec<Option<f64>> {
        (0..runs)
            .map(|i| {
                simulate_lifetime(model, horizon, &mut SimRng::stream(seed, i))
                    .unwrap()
                    .map(|t| t.as_seconds())
            })
            .collect()
    }

    /// The order-statistics `q`-quantile of the lifetime (left-continuous
    /// inverse over all runs, censored ones included); `None` when fewer
    /// than a `q` fraction of runs depleted.
    fn quantile(outcomes: &[Option<f64>], q: f64) -> Option<f64> {
        let mut observed: Vec<f64> = outcomes.iter().flatten().copied().collect();
        observed.sort_by(f64::total_cmp);
        let depleted = observed.len() as f64 / outcomes.len() as f64;
        if observed.is_empty() || q > depleted {
            return None;
        }
        let k = (q / depleted * observed.len() as f64).ceil() as usize;
        Some(observed[k.clamp(1, observed.len()) - 1])
    }

    /// The streaming study with no deadline, on one worker.
    fn study(
        model: &KibamRm,
        grid: &[Time],
        horizon: Time,
        runs: u64,
        seed: u64,
    ) -> Result<StreamingLifetimeStudy, KibamRmError> {
        streaming_lifetime_study(model, grid, horizon, seed, runs, 1, &Budget::unlimited())
    }

    #[test]
    fn single_run_reproducible() {
        let m = on_off_linear();
        let horizon = Time::from_seconds(25_000.0);
        let a = simulate_lifetime(&m, horizon, &mut SimRng::seed_from(3)).unwrap();
        let b = simulate_lifetime(&m, horizon, &mut SimRng::seed_from(3)).unwrap();
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn on_off_mean_lifetime_near_15000() {
        // §6.1: the lifetime is nearly deterministic around 15 000 s
        // (7200 As at 0.96 A drawn half the time).
        let m = on_off_linear();
        let runs = outcomes(&m, Time::from_seconds(25_000.0), 300, 1234);
        assert_eq!(runs.len(), 300);
        assert_eq!(
            runs.iter().flatten().count(),
            300,
            "all runs must deplete by 25 000 s"
        );
        let mean = runs.iter().flatten().sum::<f64>() / 300.0;
        assert!((mean - 15_000.0).abs() < 300.0, "mean = {mean}");
        // The paper notes the distribution is close to deterministic: the
        // 5%—95% spread stays within ±10 % of the mean.
        let lo = quantile(&runs, 0.05).unwrap();
        let hi = quantile(&runs, 0.95).unwrap();
        assert!(hi - lo < 0.25 * mean, "spread [{lo}, {hi}]");
    }

    /// The event loop with a separate depletion check before every
    /// advance: the reference [`simulate_lifetime`] must match bit for bit.
    fn simulate_lifetime_two_calls(
        model: &KibamRm,
        horizon: Time,
        rng: &mut SimRng,
    ) -> Result<Option<Time>, KibamRmError> {
        let workload = model.workload();
        let chain = workload.ctmc();
        let battery = model.battery();
        let mut state = sample_initial(chain, workload.initial(), rng)?;
        let mut charge = battery.full_state();
        let mut t = Time::ZERO;
        while t < horizon {
            let exit = chain.exit_rate(state);
            let sojourn = if exit > 0.0 {
                Time::from_seconds(rng.exponential(exit))
            } else {
                horizon - t
            };
            let dt = sojourn.min(horizon - t);
            let current = workload.current(state);
            if let Some(d) = battery.depletion_after(&charge, current, dt)? {
                return Ok(Some(t + d));
            }
            charge = battery.advance_state(&charge, current, dt)?;
            t += dt;
            if t < horizon && exit > 0.0 {
                state = next_state(chain, state, rng)?;
            }
        }
        Ok(None)
    }

    #[test]
    fn one_advance_per_event_keeps_the_bits() {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let fig8 = KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        let horizon = Time::from_seconds(25_000.0);
        for model in [&fig8, &on_off_linear()] {
            for i in 0..32 {
                let got = simulate_lifetime(model, horizon, &mut SimRng::stream(2007, i)).unwrap();
                let want =
                    simulate_lifetime_two_calls(model, horizon, &mut SimRng::stream(2007, i))
                        .unwrap();
                assert!(got.is_some(), "run {i} must deplete");
                assert_eq!(
                    got.map(|t| t.as_seconds().to_bits()),
                    want.map(|t| t.as_seconds().to_bits()),
                    "run {i}"
                );
            }
        }
    }

    #[test]
    fn erlang_k_concentrates_lifetime() {
        // §6.1: larger K makes on/off times closer to deterministic and
        // the simulated lifetime distribution tighter.
        let spread_for = |k: u32| {
            let w =
                Workload::on_off_erlang(Frequency::from_hertz(1.0), k, Current::from_amps(0.96))
                    .unwrap();
            let m = KibamRm::new(
                w,
                Charge::from_amp_seconds(7200.0),
                1.0,
                Rate::per_second(0.0),
            )
            .unwrap();
            let runs = outcomes(&m, Time::from_seconds(25_000.0), 200, 99);
            quantile(&runs, 0.9).unwrap() - quantile(&runs, 0.1).unwrap()
        };
        let s1 = spread_for(1);
        let s8 = spread_for(8);
        assert!(s8 < s1, "K=1 spread {s1} vs K=8 spread {s8}");
    }

    #[test]
    fn two_well_battery_dies_earlier_than_linear() {
        // With c = 0.625 part of the charge is locked in the bound well:
        // lifetimes shorten (Fig. 9's message).
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let linear = on_off_linear();
        let two_well = KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        let horizon = Time::from_seconds(25_000.0);
        let mean = |model: &KibamRm| {
            study(model, &[horizon], horizon, 150, 5)
                .unwrap()
                .mean_observed_lifetime()
                .unwrap()
        };
        let (m_lin, m_two) = (mean(&linear), mean(&two_well));
        assert!(m_two < m_lin, "two-well {m_two} vs linear {m_lin}");
        // But longer than the available-charge-only battery (recovery
        // transfers bound charge): 4500 As / 0.48 A = 9375 s.
        assert!(m_two > 9375.0, "two-well {m_two}");
    }

    #[test]
    fn survives_short_horizon_as_a_zero_curve() {
        let m = on_off_linear();
        let out =
            simulate_lifetime(&m, Time::from_seconds(100.0), &mut SimRng::seed_from(1)).unwrap();
        assert_eq!(out, None);
        // Regression: an all-censored study used to abort with an error;
        // it is the valid all-zero curve.
        let horizon = Time::from_seconds(100.0);
        let zero = study(&m, &[horizon], horizon, 10, 1).unwrap();
        assert_eq!(zero.total_runs(), 10);
        assert_eq!(zero.depleted_runs(), 0);
        assert_eq!(zero.empty_probability(0), 0.0);
        assert_eq!(zero.mean_observed_lifetime(), None);
        assert_eq!(zero.lifetime_quantile(0.5), None);
        // Zero replications stay an error.
        assert!(study(&m, &[horizon], horizon, 0, 1).is_err());
    }

    #[test]
    fn streaming_study_matches_the_simulated_outcomes_at_grid_points() {
        let m = on_off_linear();
        let horizon = Time::from_seconds(25_000.0);
        let grid: Vec<Time> = (1..=10)
            .map(|i| Time::from_seconds(i as f64 * 2500.0))
            .collect();
        let streaming = study(&m, &grid, horizon, 300, 1234).unwrap();
        let runs = outcomes(&m, horizon, 300, 1234);
        assert_eq!(streaming.total_runs(), 300);
        for (i, t) in grid.iter().enumerate() {
            let depleted = runs.iter().flatten().filter(|&&x| x <= t.as_seconds());
            assert_eq!(
                streaming.depleted_at(i) as usize,
                depleted.count(),
                "same replications, same counts at t = {t}"
            );
        }
        let observed: Vec<f64> = runs.iter().flatten().copied().collect();
        let (a, b) = (
            streaming.mean_observed_lifetime().unwrap(),
            observed.iter().sum::<f64>() / observed.len() as f64,
        );
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn streaming_study_is_bit_identical_across_thread_counts() {
        let m = on_off_linear();
        let horizon = Time::from_seconds(25_000.0);
        let grid: Vec<Time> = (1..=5)
            .map(|i| Time::from_seconds(i as f64 * 5000.0))
            .collect();
        // Three batches, the last one short: the workers really split
        // the study.
        let study = |threads| {
            streaming_lifetime_study(&m, &grid, horizon, 7, 600, threads, &Budget::unlimited())
                .unwrap()
        };
        let reference = study(1);
        for threads in [2, 4] {
            let study = study(threads);
            assert_eq!(study, reference, "threads = {threads}");
        }
    }
}
