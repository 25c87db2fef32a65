//! Numerical substrate for the `kibam-rs` workspace.
//!
//! The battery-lifetime algorithms of Cloth, Jongerden & Haverkort (DSN'07)
//! rest on a small set of classical numerical tools. This crate implements
//! all of them from scratch, with no external dependencies:
//!
//! * [`linalg`] — dense matrices, LU decomposition, and a scaling-and-squaring
//!   matrix exponential used to validate uniformisation on small chains;
//! * [`ode`] — explicit ODE solvers (Euler, RK4, adaptive RKF45) for the
//!   KiBaM and modified-KiBaM differential equations;
//! * [`roots`] — bracketing root finders (bisection, Brent) for battery
//!   depletion times;
//! * [`special`] — `ln Γ`, log-factorials, log-binomials and Poisson
//!   probabilities, the raw material of Fox–Glynn and Sericola;
//! * [`stats`] — empirical CDFs, moments, Kolmogorov–Smirnov distances and
//!   binomial confidence intervals for simulation output analysis.
//!
//! # Examples
//!
//! ```
//! use numerics::roots::brent;
//!
//! // Solve x² = 2 on [0, 2].
//! let root = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
//! assert!((root - 2f64.sqrt()).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]

pub mod linalg;
pub mod ode;
pub mod roots;
pub mod special;
pub mod stats;

/// Relative/absolute closeness test used throughout the test-suites.
///
/// Returns `true` when `|a-b| <= atol + rtol·max(|a|,|b|)`.
///
/// # Examples
///
/// ```
/// assert!(numerics::close(1.0, 1.0 + 1e-13, 1e-9, 1e-9));
/// assert!(!numerics::close(1.0, 1.1, 1e-9, 1e-9));
/// ```
#[inline]
pub fn close(a: f64, b: f64, rtol: f64, atol: f64) -> bool {
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    #[test]
    fn close_basics() {
        assert!(super::close(0.0, 0.0, 0.0, 0.0));
        assert!(super::close(1e6, 1e6 * (1.0 + 1e-12), 1e-9, 0.0));
        assert!(!super::close(1.0, 2.0, 1e-3, 1e-3));
    }
}
