//! Mean time to absorption.
//!
//! The discretised battery chain of the paper makes every `j₁ = 0` state
//! absorbing; the battery lifetime is the absorption time. Beyond the full
//! distribution (computed by uniformisation in [`crate::transient`]), this
//! module solves the classical linear system for the *mean* lifetime by
//! Gauss–Seidel, so that only `O(nnz)` memory is needed. It is the
//! independent oracle for `LifetimeDistribution::mean`.

use crate::ctmc::Ctmc;
use crate::MarkovError;

/// Options controlling the Gauss–Seidel solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsorbingOptions {
    /// Sup-norm change threshold for convergence.
    pub tolerance: f64,
    /// Maximum sweeps.
    pub max_sweeps: usize,
}

impl Default for AbsorbingOptions {
    fn default() -> Self {
        AbsorbingOptions {
            tolerance: 1e-12,
            max_sweeps: 1_000_000,
        }
    }
}

/// Mean time to absorption per start state.
///
/// Solves `m_i = 1/q_i + Σ_j (q_{ij}/q_i) m_j` for transient states
/// (`m = 0` on absorbing states) by Gauss–Seidel.
///
/// # Errors
///
/// [`MarkovError::InvalidArgument`] when the chain has no absorbing state
/// (the expectation is infinite); [`MarkovError::NoConvergence`] when the
/// sweep limit is exhausted — which also happens when some transient state
/// cannot reach an absorbing one.
pub fn mean_time_to_absorption(
    ctmc: &Ctmc,
    opts: &AbsorbingOptions,
) -> Result<Vec<f64>, MarkovError> {
    let n = ctmc.n_states();
    if !(0..n).any(|i| ctmc.is_absorbing(i)) {
        return Err(MarkovError::InvalidArgument(
            "mean time to absorption requires at least one absorbing state".into(),
        ));
    }
    let rates = ctmc.rates();
    let mut m = vec![0.0; n];
    for _ in 0..opts.max_sweeps {
        let mut delta: f64 = 0.0;
        for i in 0..n {
            let qi = ctmc.exit_rate(i);
            if qi == 0.0 {
                continue;
            }
            let mut acc = 0.0;
            for (j, rate) in rates.row(i) {
                acc += rate * m[j];
            }
            let new = (1.0 + acc) / qi;
            let diff = (new - m[i]).abs();
            delta = delta.max(diff / new.max(1.0));
            m[i] = new;
        }
        if delta < opts.tolerance {
            return Ok(m);
        }
    }
    Err(MarkovError::NoConvergence(format!(
        "mean absorption time did not converge in {} sweeps \
         (is absorption certain from every state?)",
        opts.max_sweeps
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    /// 0 → 1 → 2 with 2 absorbing.
    fn line() -> Ctmc {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 2, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn mean_time_series_chain() {
        // m_1 = 1/4, m_0 = 1/2 + m_1 = 3/4.
        let m = mean_time_to_absorption(&line(), &AbsorbingOptions::default()).unwrap();
        assert!((m[0] - 0.75).abs() < 1e-10);
        assert!((m[1] - 0.25).abs() < 1e-10);
        assert_eq!(m[2], 0.0);
    }

    #[test]
    fn mean_time_with_branching() {
        // 0 branches to absorbing 1 (rate 1) or loops through 2 (rate 1,
        // then back at rate 2). E[T_0] solves m0 = 1/2 + (1/2)m2,
        // m2 = 1/2 + m0 → m0 = 1/2 + 1/4 + m0/2 → m0 = 3/2, m2 = 2.
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(0, 2, 1.0).unwrap();
        b.rate(2, 0, 2.0).unwrap();
        let c = b.build().unwrap();
        let m = mean_time_to_absorption(&c, &AbsorbingOptions::default()).unwrap();
        assert!((m[0] - 1.5).abs() < 1e-9, "m0 = {}", m[0]);
        assert!((m[2] - 2.0).abs() < 1e-9, "m2 = {}", m[2]);
    }

    #[test]
    fn mean_time_requires_absorbing_state() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            mean_time_to_absorption(&c, &AbsorbingOptions::default()),
            Err(MarkovError::InvalidArgument(_))
        ));
    }

    #[test]
    fn no_convergence_reported() {
        let c = line();
        let opts = AbsorbingOptions {
            tolerance: 0.0,
            max_sweeps: 2,
        };
        assert!(matches!(
            mean_time_to_absorption(&c, &opts),
            Err(MarkovError::NoConvergence(_))
        ));
    }
}
