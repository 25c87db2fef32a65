//! Continuous-time Markov chain substrate for `kibam-rs`.
//!
//! The Markovian approximation of Cloth, Jongerden & Haverkort (DSN'07)
//! reduces battery-lifetime analysis to the **transient solution of a large
//! sparse CTMC**. This crate provides everything that reduction needs:
//!
//! * [`sparse`] — compressed-sparse-row matrices with sequential and
//!   multi-threaded matrix–vector products;
//! * [`banded`] — DIA-style diagonal storage for the lattice-structured
//!   chains of the discretisation, with branch-free kernels and
//!   automatic conversion from CSR;
//! * [`ell`] — length-sorted rows without padding for every iteration
//!   matrix DIA does not pay for, bit-identical to the CSR kernel;
//! * [`ctmc`] — validated CTMC construction (generators, exit rates,
//!   uniformisation, Graphviz export);
//! * [`foxglynn`] — Poisson probability weights with left/right truncation
//!   for uniformisation sums up to `λt ≈ 10⁵`;
//! * [`transient`] — the uniformisation engine, including a *curve* variant
//!   that reuses one sweep of sparse matrix–vector products for every time
//!   point of a lifetime-distribution curve, with steady-state detection;
//! * [`steady_state`] — Grassmann–Taksar–Heyman elimination (dense) and
//!   Gauss–Seidel (sparse) stationary solvers, used to calibrate the
//!   paper's burst workload (`λ_burst = 182/h`);
//! * [`absorbing`] — absorption probabilities and mean time to absorption,
//!   giving mean battery lifetimes directly from the discretised chain;
//! * [`budget`] — cooperative cancellation tokens (shared cancel flag +
//!   deadline) that the transient engines check once per iteration,
//!   surfacing [`MarkovError::DeadlineExceeded`] with the work done;
//! * [`dtmc`] — embedded jump chains;
//! * [`reachability`] — CSRL-style time-bounded reachability (the query
//!   class the battery-lifetime distribution instantiates);
//! * [`mrm`] — homogeneous Markov reward models;
//! * [`sericola`] — Sericola's exact uniformisation-based algorithm for the
//!   performability distribution `Pr{Y(t) > y}`, the "exact" curve of the
//!   paper's Fig. 10.
//!
//! # Examples
//!
//! Transient analysis of a two-state on/off chain:
//!
//! ```
//! use markov::ctmc::CtmcBuilder;
//! use markov::transient::transient_distribution;
//!
//! let mut b = CtmcBuilder::new(2);
//! b.rate(0, 1, 2.0).unwrap();
//! b.rate(1, 0, 2.0).unwrap();
//! let chain = b.build().unwrap();
//! let sol = transient_distribution(&chain, &[1.0, 0.0], 0.5, 1e-12).unwrap();
//! // Closed form: π₀(t) = (1 + e^{-4t})/2.
//! assert!((sol.distribution[0] - 0.5 * (1.0 + (-2.0f64).exp())).abs() < 1e-10);
//! ```

pub mod absorbing;
pub mod banded;
pub mod budget;
pub mod ctmc;
pub mod dtmc;
pub mod ell;
pub mod foxglynn;
pub mod mrm;
pub mod pool;
pub mod reachability;
pub mod sericola;
pub mod sparse;
pub mod steady_state;
pub mod transient;

mod error;

pub use budget::Budget;
pub use error::MarkovError;
