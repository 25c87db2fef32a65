//! Battery models for `kibam-rs`.
//!
//! Implements every battery model that appears in Cloth, Jongerden &
//! Haverkort (DSN'07), bottom of the stack first:
//!
//! * [`ideal`] — the ideal battery (`L = C/I`), the paper's §2 baseline;
//! * [`peukert`] — Peukert's law (`L = a/I^b`) with log-space fitting;
//! * [`kibam`] — the Kinetic Battery Model of Manwell & McGowan: the
//!   two-well ODE system (paper eq. (1)), its closed-form constant-current
//!   solution, exact depletion detection and parameter calibration;
//! * [`modified`] — the modified KiBaM of Rao et al. (paper ref. \[9\]):
//!   recovery additionally scaled by the bound-charge height, evaluated
//!   both deterministically (adaptive ODE integration) and as a
//!   stochastic quantised-recovery process;
//! * [`load`] — deterministic load profiles (constant, square-wave as in
//!   Table 1/Fig. 2, arbitrary piecewise-constant);
//! * [`lifetime`] — the generic discharge driver computing lifetimes and
//!   charge trajectories for any [`lifetime::DischargeModel`] under any
//!   [`load::LoadProfile`].
//!
//! # Examples
//!
//! Lifetime of a KiBaM battery under the paper's square-wave workload:
//!
//! ```
//! use battery::kibam::Kibam;
//! use battery::load::SquareWaveLoad;
//! use battery::lifetime::lifetime;
//! use units::{Charge, Current, Frequency, Rate, Time};
//!
//! let battery = Kibam::new(Charge::from_amp_seconds(7200.0), 0.625,
//!                          Rate::per_second(4.5e-5)).unwrap();
//! let wave = SquareWaveLoad::symmetric(Frequency::from_hertz(0.001),
//!                                      Current::from_amps(0.96)).unwrap();
//! let life = lifetime(&battery, &wave, Time::from_hours(10.0)).unwrap();
//! assert!(life.is_some());
//! ```

#![forbid(unsafe_code)]

pub mod ideal;
pub mod kibam;
pub mod lifetime;
pub mod load;
pub mod modified;
pub mod peukert;

mod error;

pub use error::BatteryError;
