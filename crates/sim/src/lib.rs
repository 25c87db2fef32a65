//! Discrete-event stochastic simulation substrate for `kibam-rs`.
//!
//! The paper validates its Markovian approximation against stochastic
//! simulation: the workload CTMC is sampled trajectory by trajectory and
//! the analytic KiBaM is evolved along each trajectory (1000 independent
//! runs per curve in Figs. 7, 8 and 10). This crate provides the
//! model-independent pieces:
//!
//! * [`rng`] — seedable random streams with exponential and categorical
//!   sampling, plus the counter-derived per-replication streams
//!   ([`rng::SimRng::stream`]) the parallel engine's determinism rests
//!   on;
//! * [`trajectory`] — CTMC jump sampling: the start state from `α` and
//!   each successor from the embedded jump chain;
//! * [`streaming`] — O(grid)-memory lifetime studies: fixed-grid
//!   depletion counts plus a moment sketch;
//! * [`engine`] — the one Monte Carlo entry point: a fixed run count
//!   executed in 256-run batches that scoped workers claim from one
//!   atomic cursor (the calling thread among them), **bit-identical for
//!   any thread count**. Memory is O(threads · grid) plus 24 B per
//!   batch.
//!
//! # Examples
//!
//! Streaming a million exponential lifetimes through the parallel
//! engine, censored at 4.0, with no way to fail:
//!
//! ```
//! use markov::budget::Budget;
//! use sim::engine::run_study;
//! use std::convert::Infallible;
//!
//! let exponential = |rng: &mut sim::rng::SimRng| -> Result<_, Infallible> {
//!     let t = rng.exponential(1.0);
//!     Ok((t <= 4.0).then_some(t))
//! };
//! let study = run_study(4, vec![0.5, 1.0, 2.0], 4.0, 7, 1_000_000, &exponential, &Budget::unlimited())
//!     .unwrap();
//! assert_eq!(study.total_runs(), 1_000_000);
//! assert!((study.empty_probability(1) - (1.0 - (-1.0f64).exp())).abs() < 2e-3);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod rng;
pub mod streaming;
pub mod trajectory;

/// The sup-norm error band of a simulated lifetime curve, for callers
/// that reach the statistics through this crate.
pub use numerics::stats::dkw_half_width;
