//! High-level analyses: the exact `c = 1` curve, the algebraic mean
//! lifetime and the equispaced figure grids.
//!
//! For `c = 1` every bit of charge is directly available, so the consumed
//! charge is a plain accumulated reward `Y(t) = ∫ I_{X(s)} ds` of a
//! *homogeneous* MRM, and since consumption is monotone,
//! `Pr[battery empty at t] = Pr{Y(t) ≥ C}` **exactly**. The paper uses
//! this (uniformisation-based algorithm of Sericola, its ref. \[25\]) for
//! the rightmost curve of Fig. 10; we bridge to the implementation in
//! [`markov::sericola`].

use crate::model::KibamRm;
use crate::KibamRmError;
use markov::mrm::MarkovRewardModel;
use markov::sericola::{reward_exceeds_curve, PerformabilityOptions};
use units::Time;

/// `Pr[battery empty at t]` for a **linear** (`c = 1`) model, exactly.
///
/// # Errors
///
/// [`KibamRmError::InvalidBattery`] when the model is not linear;
/// propagates Sericola-solver errors.
///
/// # Examples
///
/// ```
/// use kibamrm::analysis::exact_linear_curve;
/// use kibamrm::model::KibamRm;
/// use kibamrm::workload::Workload;
/// use units::{Charge, Rate, Time};
///
/// let model = KibamRm::new(
///     Workload::simple_model().unwrap(),
///     Charge::from_milliamp_hours(800.0),
///     1.0,
///     Rate::per_second(0.0),
/// ).unwrap();
/// let curve = exact_linear_curve(&model, &[Time::from_hours(30.0)]).unwrap();
/// assert!(curve[0].1 > 0.99); // surely empty after 30 h
/// ```
pub fn exact_linear_curve(
    model: &KibamRm,
    times: &[Time],
) -> Result<Vec<(f64, f64)>, KibamRmError> {
    if !model.is_linear() {
        return Err(KibamRmError::InvalidBattery(format!(
            "the exact algorithm requires c = 1 (all charge available), got c = {}",
            model.c()
        )));
    }
    let workload = model.workload();
    let mrm = MarkovRewardModel::new(workload.ctmc().clone(), workload.currents_amps())?;
    let opts = PerformabilityOptions::default();
    let capacity = model.capacity().as_coulombs();
    let secs: Vec<f64> = times.iter().map(|t| t.as_seconds()).collect();
    Ok(reward_exceeds_curve(
        &mrm,
        workload.initial(),
        &secs,
        capacity,
        &opts,
    )?)
}

/// Mean lifetime of a discretised model, computed *algebraically* from
/// the derived chain: the expected time to absorption solves
/// `m_i = 1/q_i + Σ_j (q_{ij}/q_i) m_j` (Gauss–Seidel in `O(nnz)` space).
///
/// Complements [`LifetimeDistribution::mean`](crate::distribution::LifetimeDistribution::mean),
/// which integrates a sampled curve: here no time grid or truncation
/// is involved, but the iteration count grows with the expected number of
/// jumps, so this is intended for small/medium chains (the guard rejects
/// chains above one million states).
///
/// # Errors
///
/// [`KibamRmError::InvalidDiscretisation`] for oversized chains;
/// [`KibamRmError::Markov`] when the solver does not converge.
pub fn mean_lifetime_absorbing(
    disc: &crate::discretise::DiscretisedModel,
) -> Result<Time, KibamRmError> {
    use markov::absorbing::{mean_time_to_absorption, AbsorbingOptions};
    if disc.stats().states > 1_000_000 {
        return Err(KibamRmError::InvalidDiscretisation(format!(
            "absorbing-solver path guards at 10^6 states, got {}; \
             integrate the curve instead",
            disc.stats().states
        )));
    }
    let opts = AbsorbingOptions {
        tolerance: 1e-10,
        ..Default::default()
    };
    let m = mean_time_to_absorption(disc.chain(), &opts)?;
    let mean = disc
        .alpha()
        .iter()
        .zip(&m)
        .map(|(a, mi)| a * mi)
        .sum::<f64>();
    Ok(Time::from_seconds(mean))
}

/// An equispaced time grid `0, …, t_max` with `points+1` samples — the
/// grids used by every figure-regeneration harness.
pub fn time_grid(t_max: Time, points: usize) -> Vec<Time> {
    (0..=points)
        .map(|i| Time::from_seconds(t_max.as_seconds() * i as f64 / points.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretise::{DiscretisationOptions, DiscretisedModel};
    use crate::distribution::{LifetimeDistribution, SolveDiagnostics};
    use crate::simulate::lifetime_study;
    use crate::workload::Workload;
    use units::{Charge, Current, Frequency, Rate};

    /// A 100×-downscaled Fig. 7 battery (C = 72 As, lifetime ≈ 150 s):
    /// identical structure but νt stays ≈ 500, where Sericola's O((νt)²)
    /// recursion is test-suite friendly.
    fn linear_on_off() -> KibamRm {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        KibamRm::new(
            w,
            Charge::from_amp_seconds(72.0),
            1.0,
            Rate::per_second(0.0),
        )
        .unwrap()
    }

    #[test]
    fn exact_requires_linear() {
        let w = Workload::simple_model().unwrap();
        let m = KibamRm::new(
            w,
            Charge::from_milliamp_hours(800.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        assert!(matches!(
            exact_linear_curve(&m, &[Time::from_hours(1.0)]),
            Err(KibamRmError::InvalidBattery(_))
        ));
    }

    #[test]
    fn exact_matches_simulation_on_off() {
        // Triple cross-validation, part 1: Sericola vs Monte Carlo.
        let m = linear_on_off();
        let horizon = Time::from_seconds(400.0);
        let study = lifetime_study(&m, horizon, 1500, 2024).unwrap();
        let times: Vec<Time> = (6..=24)
            .map(|i| Time::from_seconds(i as f64 * 10.0))
            .collect();
        let exact = exact_linear_curve(&m, &times).unwrap();
        for (t, p) in &exact {
            let sim = study.empty_probability(*t);
            // Binomial error at 1500 runs ≈ 0.013 (1σ); allow 4σ.
            assert!((p - sim).abs() < 0.05, "t = {t}: exact {p} vs sim {sim}");
        }
    }

    #[test]
    fn exact_matches_discretisation_on_off() {
        // Triple cross-validation, part 2: Sericola vs the paper's
        // Markovian approximation at a fine Δ.
        let m = linear_on_off();
        let opts = DiscretisationOptions::with_delta(Charge::from_amp_seconds(0.25));
        let disc = DiscretisedModel::build(&m, &opts).unwrap();
        let times: Vec<Time> = (8..=20)
            .map(|i| Time::from_seconds(i as f64 * 10.0))
            .collect();
        let exact = exact_linear_curve(&m, &times).unwrap();
        let approx = disc.empty_probability_curve(&times).unwrap();
        for ((t, pe), (_, pa)) in exact.iter().zip(&approx.points) {
            // The paper's own Fig. 7 shows the phase-type approximation of
            // a near-deterministic lifetime converging slowly in Δ; at
            // 288 levels the two curves agree except at the steep centre.
            assert!((pe - pa).abs() < 0.15, "t = {t}: exact {pe} vs approx {pa}");
        }
    }

    #[test]
    fn absorbing_mean_agrees_with_curve_integral() {
        // Full-size Fig. 7 battery (C = 7200 As): the absorbing solver
        // never touches Sericola, so the scale is fine here.
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let m = KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            1.0,
            Rate::per_second(0.0),
        )
        .unwrap();
        let disc = DiscretisedModel::build(
            &m,
            &DiscretisationOptions::with_delta(Charge::from_amp_seconds(100.0)),
        )
        .unwrap();
        let algebraic = mean_lifetime_absorbing(&disc).unwrap();
        let times: Vec<Time> = (0..=600)
            .map(|i| Time::from_seconds(i as f64 * 50.0))
            .collect();
        let curve = disc.empty_probability_curve(&times).unwrap();
        let integrated = LifetimeDistribution::new(
            "discretisation",
            curve
                .points
                .iter()
                .map(|&(t, p)| (Time::from_seconds(t), p))
                .collect(),
            SolveDiagnostics::default(),
        )
        .unwrap()
        .mean();
        let rel =
            (algebraic.as_seconds() - integrated.as_seconds()).abs() / integrated.as_seconds();
        assert!(
            rel < 0.01,
            "algebraic {algebraic} vs integrated {integrated}"
        );
        // Both near the deterministic 15000 s (phase-type smearing keeps
        // the mean almost exactly right even at coarse Δ).
        assert!(
            (algebraic.as_seconds() - 15_000.0).abs() < 400.0,
            "{algebraic}"
        );
    }

    #[test]
    fn grid_shape() {
        let g = time_grid(Time::from_seconds(10.0), 5);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0].as_seconds(), 0.0);
        assert_eq!(g[5].as_seconds(), 10.0);
        assert_eq!(g[1].as_seconds(), 2.0);
    }
}
