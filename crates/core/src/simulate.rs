//! Stochastic simulation of the exact KiBaMRM dynamics.
//!
//! This is the validation baseline of the paper's §6 ("Simulation" curves,
//! 1000 independent runs): the workload CTMC is sampled jump by jump, and
//! within each sojourn — where the current is constant — the KiBaM wells
//! evolve by the *closed-form* solution, with exact depletion detection.
//! No discretisation error enters at all; the only error is statistical.
//!
//! Two drivers share [`simulate_lifetime`]:
//!
//! * [`lifetime_study`] — the exact-order-statistics reference: every
//!   observed lifetime is kept (O(runs) memory);
//! * [`streaming_lifetime_study`] — the production path: replications
//!   run on a [`sim::engine::McPool`] worker pool and fold into a
//!   fixed-grid [`StreamingLifetimeStudy`] (O(grid) memory,
//!   bit-identical for any thread count), with an optional adaptive
//!   Wilson-half-width stopping rule.

use crate::model::KibamRm;
use crate::KibamRmError;
use markov::Budget;
use sim::engine::{EngineError, McOptions, McPool, Replication};
use sim::replication::{run_replications, LifetimeStudy};
use sim::rng::SimRng;
use sim::streaming::StreamingLifetimeStudy;
use sim::trajectory::{next_state, sample_initial};
use std::sync::Mutex;
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

/// Runs `runs` independent lifetime simulations (the paper uses 1000) and
/// returns the empirical study with every observed lifetime kept.
///
/// A study where no run depleted is returned as the valid all-zero curve
/// (`depleted_runs() == 0`), **not** an error — one long-lived scenario
/// must not abort a whole sweep.
///
/// # Errors
///
/// Propagates the first simulation error; [`KibamRmError::InvalidWorkload`]
/// for a zero replication count.
pub fn lifetime_study(
    model: &KibamRm,
    horizon: Time,
    runs: usize,
    seed: u64,
) -> Result<LifetimeStudy, KibamRmError> {
    if runs == 0 {
        return Err(KibamRmError::InvalidWorkload(
            "a lifetime study needs at least one replication".into(),
        ));
    }
    let outcomes: Vec<Result<Option<f64>, KibamRmError>> = run_replications(runs, seed, |rng| {
        simulate_lifetime(model, horizon, rng).map(|o| o.map(|t| t.as_seconds()))
    });
    let mut flat = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        flat.push(o?);
    }
    LifetimeStudy::new(&flat, horizon.as_seconds()).map_err(|e| {
        // Only NaN lifetimes reach this branch now (all-censored is a
        // valid study and `runs > 0` was checked above).
        KibamRmError::InvalidWorkload(format!("simulated lifetimes are malformed: {e}"))
    })
}

/// Runs the parallel streaming study: replications on `pool`'s workers,
/// folded into a fixed-grid accumulator over `grid` (O(grid) memory),
/// under `opts`' stopping rule. Results are bit-identical for any
/// worker count, and agree replication by replication with
/// [`lifetime_study`] on the same seed (both draw replication `i` from
/// [`SimRng::stream`]`(seed, i)`).
///
/// # Errors
///
/// [`KibamRmError::InvalidWorkload`] on empty/unsorted grids, a horizon
/// short of the grid, or inconsistent engine options; the first
/// per-replication simulation error otherwise.
pub fn streaming_lifetime_study(
    model: &KibamRm,
    grid: &[Time],
    horizon: Time,
    seed: u64,
    opts: &McOptions,
    pool: &McPool,
) -> Result<StreamingLifetimeStudy, KibamRmError> {
    streaming_lifetime_study_budgeted(model, grid, horizon, seed, opts, pool, &Budget::unlimited())
}

/// [`streaming_lifetime_study`] under a cooperative [`Budget`]: the
/// token is checked once per batch checkpoint, and an exhausted budget
/// stops dispatching (draining in-flight batches first) and surfaces
/// [`KibamRmError::DeadlineExceeded`] with the replications that merged
/// into the study. With [`Budget::unlimited`] this is exactly
/// [`streaming_lifetime_study`].
///
/// # Errors
///
/// As for [`streaming_lifetime_study`], plus
/// [`KibamRmError::DeadlineExceeded`] on budget exhaustion.
pub fn streaming_lifetime_study_budgeted(
    model: &KibamRm,
    grid: &[Time],
    horizon: Time,
    seed: u64,
    opts: &McOptions,
    pool: &McPool,
    budget: &Budget,
) -> Result<StreamingLifetimeStudy, KibamRmError> {
    // The engine sees a plain `Replication`; the actual error object
    // crosses back through this mutex (first writer wins).
    let first_error: Mutex<Option<KibamRmError>> = Mutex::new(None);
    let experiment = |rng: &mut SimRng| match simulate_lifetime(model, horizon, rng) {
        Ok(Some(t)) => Replication::Depleted(t.as_seconds()),
        Ok(None) => Replication::Censored,
        Err(e) => {
            let mut slot = first_error.lock().expect("error mutex poisoned");
            slot.get_or_insert(e);
            Replication::Abort
        }
    };
    let grid_seconds: Vec<f64> = grid.iter().map(|t| t.as_seconds()).collect();
    pool.run_study_budgeted(
        grid_seconds,
        horizon.as_seconds(),
        seed,
        opts,
        &experiment,
        budget,
    )
    .map_err(|e| match e {
        EngineError::Aborted => first_error
            .into_inner()
            .expect("error mutex poisoned")
            .unwrap_or_else(|| {
                KibamRmError::InvalidWorkload("simulation aborted without an error".into())
            }),
        EngineError::DeadlineExceeded { completed_runs } => KibamRmError::DeadlineExceeded {
            completed: completed_runs as usize,
        },
        other => KibamRmError::InvalidWorkload(format!("simulation engine: {other}")),
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
        let study = lifetime_study(&m, Time::from_seconds(25_000.0), 300, 1234).unwrap();
        assert_eq!(study.total_runs(), 300);
        assert_eq!(
            study.depleted_runs(),
            300,
            "all runs must deplete by 25 000 s"
        );
        let mean = study.mean_observed_lifetime().unwrap();
        assert!((mean - 15_000.0).abs() < 300.0, "mean = {mean}");
        // The paper notes the distribution is close to deterministic: the
        // 5%—95% spread stays within ±10 % of the mean.
        let lo = study.lifetime_quantile(0.05).unwrap();
        let hi = study.lifetime_quantile(0.95).unwrap();
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
            let study = lifetime_study(&m, Time::from_seconds(25_000.0), 200, 99).unwrap();
            study.lifetime_quantile(0.9).unwrap() - study.lifetime_quantile(0.1).unwrap()
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
        let m_lin = lifetime_study(&linear, horizon, 150, 5)
            .unwrap()
            .mean_observed_lifetime()
            .unwrap();
        let m_two = lifetime_study(&two_well, horizon, 150, 5)
            .unwrap()
            .mean_observed_lifetime()
            .unwrap();
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
        let study = lifetime_study(&m, Time::from_seconds(100.0), 10, 1).unwrap();
        assert_eq!(study.total_runs(), 10);
        assert_eq!(study.depleted_runs(), 0);
        assert_eq!(study.empty_probability(100.0), 0.0);
        assert_eq!(study.mean_observed_lifetime(), None);
        assert_eq!(study.lifetime_quantile(0.5), None);
        // Zero replications stay an error.
        assert!(lifetime_study(&m, Time::from_seconds(100.0), 0, 1).is_err());
    }

    #[test]
    fn streaming_study_matches_the_exact_study_at_grid_points() {
        let m = on_off_linear();
        let horizon = Time::from_seconds(25_000.0);
        let grid: Vec<Time> = (1..=10)
            .map(|i| Time::from_seconds(i as f64 * 2500.0))
            .collect();
        let opts = McOptions {
            runs: 300,
            ..McOptions::default()
        };
        let pool = McPool::with_exact_threads(1);
        let streaming = streaming_lifetime_study(&m, &grid, horizon, 1234, &opts, &pool).unwrap();
        let exact = lifetime_study(&m, horizon, 300, 1234).unwrap();
        assert_eq!(streaming.total_runs(), 300);
        for (i, t) in grid.iter().enumerate() {
            assert_eq!(
                streaming.depleted_at(i) as usize,
                exact.depleted_at(t.as_seconds()),
                "same replications, same counts at t = {t}"
            );
        }
        let (a, b) = (
            streaming.mean_observed_lifetime().unwrap(),
            exact.mean_observed_lifetime().unwrap(),
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
        let opts = McOptions {
            runs: 120,
            batch: 32,
            ..McOptions::default()
        };
        let reference =
            streaming_lifetime_study(&m, &grid, horizon, 7, &opts, &McPool::with_exact_threads(1))
                .unwrap();
        for threads in [2, 4] {
            let study = streaming_lifetime_study(
                &m,
                &grid,
                horizon,
                7,
                &opts,
                &McPool::with_exact_threads(threads),
            )
            .unwrap();
            assert_eq!(study, reference, "threads = {threads}");
        }
    }
}
