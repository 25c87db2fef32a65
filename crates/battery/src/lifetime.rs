//! The generic discharge driver: lifetimes and charge trajectories for any
//! battery model under any deterministic load.
//!
//! The driver walks the load profile segment by segment (every segment has
//! constant current), asks the model for the first depletion instant
//! within each segment (a method every model implements itself), and
//! otherwise advances the battery state exactly to the segment boundary.
//! This is how the paper computes Table 1 and the Fig. 2 trajectory.

use crate::load::LoadProfile;
use crate::BatteryError;
use units::{Charge, Current, Time};

/// A battery model that can be discharged with piecewise-constant
/// currents.
///
/// Implementors provide state evolution over a constant-current interval
/// and locate depletion within one
/// ([`DischargeModel::depletion_within`]). Every model here answers the
/// latter with its own closed form or bracketed root search, so the
/// trait carries no generic fallback.
pub trait DischargeModel {
    /// The battery state (e.g. the two KiBaM well contents).
    type State: Clone + std::fmt::Debug;

    /// The fully charged state.
    fn initial_state(&self) -> Self::State;

    /// Evolves `state` for `dt` under constant `current`.
    ///
    /// # Errors
    ///
    /// Implementations reject negative currents/steps and report solver
    /// failures.
    fn advance(
        &self,
        state: &Self::State,
        current: Current,
        dt: Time,
    ) -> Result<Self::State, BatteryError>;

    /// Charge available for immediate draw in `state` (the battery is
    /// empty when this reaches zero).
    fn available_charge(&self, state: &Self::State) -> Charge;

    /// `true` when the battery is empty in `state`.
    fn is_empty(&self, state: &Self::State) -> bool {
        self.available_charge(state).value() <= 0.0
    }

    /// First instant within `[0, dt]` at which the battery becomes empty
    /// under constant `current`, or `None` if it survives.
    ///
    /// # Errors
    ///
    /// Implementations reject invalid currents/steps and report solver
    /// failures.
    fn depletion_within(
        &self,
        state: &Self::State,
        current: Current,
        dt: Time,
    ) -> Result<Option<Time>, BatteryError>;
}

/// Computes the battery lifetime under `load`, searching up to `horizon`.
///
/// Returns `Ok(None)` when the battery survives the whole horizon.
///
/// # Errors
///
/// [`BatteryError::InvalidLoad`] when the profile yields non-advancing
/// segments; propagates model errors.
///
/// # Examples
///
/// ```
/// use battery::kibam::Kibam;
/// use battery::load::ConstantLoad;
/// use battery::lifetime::lifetime;
/// use units::{Charge, Current, Rate, Time};
///
/// let b = Kibam::new(Charge::from_coulombs(7200.0), 1.0, Rate::per_second(0.0)).unwrap();
/// let load = ConstantLoad::new(Current::from_amps(0.96)).unwrap();
/// let life = lifetime(&b, &load, Time::from_hours(10.0)).unwrap().unwrap();
/// assert!((life.as_seconds() - 7500.0).abs() < 1e-6);
/// ```
pub fn lifetime<M: DischargeModel, L: LoadProfile + ?Sized>(
    model: &M,
    load: &L,
    horizon: Time,
) -> Result<Option<Time>, BatteryError> {
    let mut state = model.initial_state();
    let mut t = Time::ZERO;
    while t < horizon {
        let seg_end = load.segment_end(t).unwrap_or(horizon).min(horizon);
        if !(seg_end > t) {
            return Err(BatteryError::InvalidLoad(format!(
                "segment end {seg_end} does not advance past {t}"
            )));
        }
        let dt = seg_end - t;
        let current = load.current(t);
        if let Some(d) = model.depletion_within(&state, current, dt)? {
            return Ok(Some(t + d));
        }
        state = model.advance(&state, current, dt)?;
        t = seg_end;
    }
    Ok(None)
}

/// One sample of a discharge trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySample<S> {
    /// Sample time.
    pub time: Time,
    /// Battery state at that time.
    pub state: S,
    /// Current drawn at that time.
    pub current: Current,
}

/// Records the battery state on a regular grid while discharging under
/// `load` — the data behind the paper's Fig. 2. Recording stops early if
/// the battery empties (the depletion sample is included, clamped to the
/// empty state's time).
///
/// # Errors
///
/// [`BatteryError::InvalidParameter`] for a non-positive `sample_dt`;
/// propagates model/profile errors.
pub fn discharge_trajectory<M: DischargeModel, L: LoadProfile + ?Sized>(
    model: &M,
    load: &L,
    until: Time,
    sample_dt: Time,
) -> Result<Vec<TrajectorySample<M::State>>, BatteryError> {
    if !(sample_dt.value() > 0.0) {
        return Err(BatteryError::InvalidParameter(format!(
            "sample step must be positive, got {sample_dt}"
        )));
    }
    let mut samples = Vec::new();
    let mut state = model.initial_state();
    let mut t = Time::ZERO;
    samples.push(TrajectorySample {
        time: t,
        state: state.clone(),
        current: load.current(t),
    });
    while t < until {
        // March to the next sample instant, honouring segment boundaries.
        let target = (t + sample_dt).min(until);
        while t < target {
            let seg_end = load.segment_end(t).unwrap_or(target).min(target);
            if !(seg_end > t) {
                return Err(BatteryError::InvalidLoad(format!(
                    "segment end {seg_end} does not advance past {t}"
                )));
            }
            let current = load.current(t);
            let dt = seg_end - t;
            if let Some(d) = model.depletion_within(&state, current, dt)? {
                let final_state = model.advance(&state, current, d)?;
                samples.push(TrajectorySample {
                    time: t + d,
                    state: final_state,
                    current,
                });
                return Ok(samples);
            }
            state = model.advance(&state, current, dt)?;
            t = seg_end;
        }
        samples.push(TrajectorySample {
            time: t,
            state: state.clone(),
            current: load.current(t),
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kibam::Kibam;
    use crate::load::{ConstantLoad, PiecewiseLoad, SquareWaveLoad};
    use units::{Charge, Frequency, Rate};

    fn ideal_7200() -> Kibam {
        Kibam::new(Charge::from_coulombs(7200.0), 1.0, Rate::per_second(0.0)).unwrap()
    }

    fn paper_battery() -> Kibam {
        Kibam::new(
            Charge::from_coulombs(7200.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap()
    }

    #[test]
    fn constant_load_ideal_battery() {
        let load = ConstantLoad::new(Current::from_amps(0.96)).unwrap();
        let l = lifetime(&ideal_7200(), &load, Time::from_hours(10.0))
            .unwrap()
            .unwrap();
        assert!((l.as_seconds() - 7500.0).abs() < 1e-6);
    }

    #[test]
    fn square_wave_ideal_battery_doubles_lifetime() {
        // On/off at 50% duty: lifetime = 2·(C/I) − off-phase alignment.
        // With period 1 s and C/I = 7500 s on-time, depletion happens
        // during the 15000th second's on-phase: exactly t = 14999.5+0.5.
        let wave = SquareWaveLoad::symmetric(Frequency::from_hertz(1.0), Current::from_amps(0.96))
            .unwrap();
        let l = lifetime(&ideal_7200(), &wave, Time::from_hours(10.0))
            .unwrap()
            .unwrap();
        assert!(
            (l.as_seconds() - 15000.0).abs() < 0.5 + 1e-6,
            "lifetime {l}"
        );
    }

    #[test]
    fn survives_horizon_returns_none() {
        let load = ConstantLoad::new(Current::from_milliamps(1.0)).unwrap();
        let l = lifetime(&ideal_7200(), &load, Time::from_seconds(100.0)).unwrap();
        assert_eq!(l, None);
    }

    #[test]
    fn zero_load_never_depletes() {
        let load = ConstantLoad::new(Current::ZERO).unwrap();
        let l = lifetime(&paper_battery(), &load, Time::from_hours(10.0)).unwrap();
        assert_eq!(l, None);
    }

    #[test]
    fn piecewise_profile_depletes_in_later_segment() {
        // 3600 s gentle, then heavy drain.
        let p = PiecewiseLoad::new(
            vec![
                (Time::from_seconds(3600.0), Current::from_amps(0.1)),
                (Time::from_seconds(1e9), Current::from_amps(2.0)),
            ],
            false,
        )
        .unwrap();
        let l = lifetime(&ideal_7200(), &p, Time::from_hours(100.0))
            .unwrap()
            .unwrap();
        // 360 As drained in phase 1; remaining 6840 As at 2 A = 3420 s.
        assert!((l.as_seconds() - (3600.0 + 3420.0)).abs() < 1e-6);
    }

    #[test]
    fn kibam_square_wave_outlives_continuous_at_same_peak() {
        let b = paper_battery();
        let continuous = ConstantLoad::new(Current::from_amps(0.96)).unwrap();
        let wave =
            SquareWaveLoad::symmetric(Frequency::from_hertz(0.001), Current::from_amps(0.96))
                .unwrap();
        let horizon = Time::from_hours(20.0);
        let l_cont = lifetime(&b, &continuous, horizon).unwrap().unwrap();
        let l_wave = lifetime(&b, &wave, horizon).unwrap().unwrap();
        // The idle phases allow recovery: strictly more than 2× continuous
        // is impossible, but more than 2×·(available-only fraction) holds.
        assert!(
            l_wave > l_cont * 2.0 * 0.99,
            "wave {l_wave} vs continuous {l_cont}"
        );
        assert!(l_wave.as_seconds() > 9000.0);
    }

    #[test]
    fn trajectory_matches_figure2_shape() {
        // Fig. 2: f = 0.001 Hz square wave, I = 0.96 A. The available
        // charge falls during on-phases, recovers during off-phases, and
        // the battery dies between 10000 s and 13000 s.
        let b = paper_battery();
        let wave =
            SquareWaveLoad::symmetric(Frequency::from_hertz(0.001), Current::from_amps(0.96))
                .unwrap();
        let traj = discharge_trajectory(
            &b,
            &wave,
            Time::from_seconds(14000.0),
            Time::from_seconds(100.0),
        )
        .unwrap();
        let last = traj.last().unwrap();
        assert!(
            last.time.as_seconds() > 10_000.0 && last.time.as_seconds() < 13_000.0,
            "depletion at {}",
            last.time
        );
        assert!(last.state.available.value().abs() < 1e-5);
        // Recovery visible: y1 at 600 s (off phase) above y1 at 500 s.
        let y1_at = |s: f64| {
            traj.iter()
                .find(|p| (p.time.as_seconds() - s).abs() < 1e-9)
                .expect("sample present")
                .state
                .available
                .value()
        };
        assert!(y1_at(600.0) > y1_at(500.0));
        // Bound charge decreases overall.
        assert!(traj.last().unwrap().state.bound.value() < 2700.0);
    }

    #[test]
    fn trajectory_sample_step_validation() {
        let b = paper_battery();
        let load = ConstantLoad::new(Current::from_amps(0.1)).unwrap();
        assert!(discharge_trajectory(&b, &load, Time::from_seconds(10.0), Time::ZERO).is_err());
    }
}
