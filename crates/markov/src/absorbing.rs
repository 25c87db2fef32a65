//! Absorption analysis: hitting probabilities and mean time to absorption.
//!
//! The discretised battery chain of the paper makes every `j₁ = 0` state
//! absorbing; the battery lifetime is the absorption time. Beyond the full
//! distribution (computed by uniformisation in [`crate::transient`]), this
//! module provides the classical linear-system characterisations of the
//! *mean* lifetime and of absorption probabilities, solved by Gauss–Seidel
//! so that only `O(nnz)` memory is needed.

use crate::ctmc::Ctmc;
use crate::MarkovError;

/// Options controlling the Gauss–Seidel solves.
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

/// Probability, per start state, of eventually being absorbed in `target`
/// (which must be a subset of the absorbing states).
///
/// Solves `h_i = Σ_j (q_{ij}/q_i) h_j` for transient `i`, with `h = 1` on
/// `target` and `h = 0` on other absorbing states.
///
/// # Errors
///
/// [`MarkovError::InvalidArgument`] when `target` has the wrong length or
/// marks a non-absorbing state; [`MarkovError::NoConvergence`] when the
/// sweep limit is exhausted.
pub fn absorption_probabilities(
    ctmc: &Ctmc,
    target: &[bool],
    opts: &AbsorbingOptions,
) -> Result<Vec<f64>, MarkovError> {
    let n = ctmc.n_states();
    if target.len() != n {
        return Err(MarkovError::InvalidArgument(format!(
            "target mask has {} entries for {} states",
            target.len(),
            n
        )));
    }
    for (i, &is_target) in target.iter().enumerate() {
        if is_target && !ctmc.is_absorbing(i) {
            return Err(MarkovError::InvalidArgument(format!(
                "target state {i} is not absorbing"
            )));
        }
    }
    let mut h: Vec<f64> = target.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
    let rates = ctmc.rates();
    for _ in 0..opts.max_sweeps {
        let mut delta: f64 = 0.0;
        for i in 0..n {
            let qi = ctmc.exit_rate(i);
            if qi == 0.0 {
                continue; // absorbing: h fixed by the boundary condition
            }
            let mut acc = 0.0;
            for (j, rate) in rates.row(i) {
                acc += rate * h[j];
            }
            let new = acc / qi;
            delta = delta.max((new - h[i]).abs());
            h[i] = new;
        }
        if delta < opts.tolerance {
            return Ok(h);
        }
    }
    Err(MarkovError::NoConvergence(format!(
        "absorption probabilities did not converge in {} sweeps",
        opts.max_sweeps
    )))
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
    fn gambler_ruin_probabilities() {
        // States 0..=4; 0 and 4 absorbing; fair moves between neighbours.
        // Absorption in 4 from i has probability i/4.
        let mut b = CtmcBuilder::new(5);
        for i in 1..4 {
            b.rate(i, i - 1, 1.0).unwrap();
            b.rate(i, i + 1, 1.0).unwrap();
        }
        let c = b.build().unwrap();
        let mut target = vec![false; 5];
        target[4] = true;
        let h = absorption_probabilities(&c, &target, &AbsorbingOptions::default()).unwrap();
        for i in 0..5 {
            assert!((h[i] - i as f64 / 4.0).abs() < 1e-9, "state {i}: {}", h[i]);
        }
    }

    #[test]
    fn absorption_probability_validation() {
        let c = line();
        let opts = AbsorbingOptions::default();
        assert!(absorption_probabilities(&c, &[true, false], &opts).is_err());
        // Marking a transient state as target is rejected.
        assert!(absorption_probabilities(&c, &[true, false, false], &opts).is_err());
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

    #[test]
    fn two_absorbing_classes_split_mass() {
        // 1 → 0 (rate a), 1 → 2 (rate b): Pr[absorb in 2] = b/(a+b).
        let (a, b_rate) = (3.0, 1.0);
        let mut b = CtmcBuilder::new(3);
        b.rate(1, 0, a).unwrap();
        b.rate(1, 2, b_rate).unwrap();
        let c = b.build().unwrap();
        let mut target = vec![false; 3];
        target[2] = true;
        let h = absorption_probabilities(&c, &target, &AbsorbingOptions::default()).unwrap();
        assert!((h[1] - b_rate / (a + b_rate)).abs() < 1e-12);
        assert_eq!(h[0], 0.0);
        assert_eq!(h[2], 1.0);
    }
}
