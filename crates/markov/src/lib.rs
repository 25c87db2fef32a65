//! Continuous-time Markov chain substrate for `kibam-rs`.
//!
//! The Markovian approximation of Cloth, Jongerden & Haverkort (DSN'07)
//! reduces battery-lifetime analysis to the **transient solution of a large
//! sparse CTMC**. This crate provides everything that reduction needs:
//!
//! * [`sparse`] — compressed-sparse-row matrices and their
//!   matrix–vector products;
//! * [`banded`] — DIA-style diagonal storage for the lattice-structured
//!   chains of the discretisation, with branch-free kernels and
//!   automatic conversion from CSR;
//! * [`ell`] — length-sorted rows without padding for every iteration
//!   matrix DIA does not pay for, bit-identical to the CSR kernel;
//! * [`ctmc`] — validated CTMC construction (generators, exit rates,
//!   uniformisation, Graphviz export);
//! * [`foxglynn`] — Poisson probability weights with left/right truncation
//!   for uniformisation sums up to `λt ≈ 10⁵`;
//! * [`transient`] — the uniformisation engine: one sweep of sparse
//!   matrix–vector products serves every time point of a curve
//!   `t ↦ m·π(t)` for a measure `m`, with steady-state detection, and a
//!   [`transient::CurveCache`] shares that sweep across a plan group;
//! * [`steady_state`] — the Grassmann–Taksar–Heyman stationary solver,
//!   used to calibrate the paper's burst workload (`λ_burst = 182/h`);
//! * [`absorbing`] — mean time to absorption, giving mean battery
//!   lifetimes directly from the discretised chain;
//! * [`budget`] — cooperative deadline tokens that the uniformisation
//!   sweep checks once per product, surfacing
//!   [`MarkovError::DeadlineExceeded`] with the work done;
//! * [`mrm`] — homogeneous Markov reward models, whose expected rewards
//!   are the transient sweep with the reward vector as the measure;
//! * [`sericola`] — Sericola's exact uniformisation-based algorithm for the
//!   performability distribution `Pr{Y(t) > y}`, the "exact" curve of the
//!   paper's Fig. 10.
//!
//! # Examples
//!
//! Transient analysis of a two-state on/off chain: the curve of the
//! measure `e₀` is the probability of being in state 0.
//!
//! ```
//! use markov::ctmc::CtmcBuilder;
//! use markov::transient::{measure_curve, TransientOptions};
//!
//! let mut b = CtmcBuilder::new(2);
//! b.rate(0, 1, 2.0).unwrap();
//! b.rate(1, 0, 2.0).unwrap();
//! let chain = b.build().unwrap();
//! let opts = TransientOptions { epsilon: 1e-12, ..Default::default() };
//! let curve = measure_curve(&chain, &[1.0, 0.0], &[0.25, 0.5], &[1.0, 0.0], &opts).unwrap();
//! // Closed form: π₀(t) = (1 + e^{-4t})/2.
//! for (t, p0) in curve.points {
//!     assert!((p0 - 0.5 * (1.0 + (-4.0 * t).exp())).abs() < 1e-10);
//! }
//! ```

pub mod absorbing;
pub mod banded;
pub mod budget;
pub mod ctmc;
pub mod ell;
pub mod foxglynn;
pub mod mrm;
pub mod pool;
pub mod sericola;
pub mod sparse;
pub mod steady_state;
pub mod transient;

mod error;

pub use budget::Budget;
pub use error::MarkovError;
