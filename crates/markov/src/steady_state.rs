//! Stationary distributions by GTH elimination on the dense generator.
//!
//! The paper calibrates its burst workload so that the steady-state
//! probability of sending matches the simple model
//! (`λ_burst = 182/h ⇒ P[send] = ¼`); this solver reproduces that
//! calibration and backs the workload test-suite.

use crate::ctmc::Ctmc;
use crate::MarkovError;

/// Computes the stationary distribution of an irreducible CTMC by
/// Grassmann–Taksar–Heyman elimination on the dense generator.
///
/// GTH performs Gaussian elimination without any subtractions, which makes
/// it backward stable regardless of how stiff the rates are. Memory is
/// `O(n²)` — intended for workload-sized chains (`n ≲ 3000`).
///
/// # Errors
///
/// [`MarkovError::NoConvergence`] when the chain is reducible (a pivot row
/// has no outgoing probability inside the remaining block).
///
/// # Examples
///
/// ```
/// use markov::ctmc::CtmcBuilder;
/// use markov::steady_state::stationary_gth;
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 1.0).unwrap();
/// b.rate(1, 0, 3.0).unwrap();
/// let pi = stationary_gth(&b.build().unwrap()).unwrap();
/// assert!((pi[0] - 0.75).abs() < 1e-12);
/// ```
pub fn stationary_gth(ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
    let n = ctmc.n_states();
    if n == 1 {
        return Ok(vec![1.0]);
    }
    let mut q = ctmc.generator_dense();

    // Elimination from the last state down to state 1.
    for k in (1..n).rev() {
        let scale: f64 = (0..k).map(|j| q[(k, j)]).sum();
        if scale <= 0.0 {
            return Err(MarkovError::NoConvergence(format!(
                "GTH pivot {k} has no outgoing rate into the remaining block \
                 (chain reducible?)"
            )));
        }
        for i in 0..k {
            let w = q[(i, k)] / scale;
            q[(i, k)] = w;
        }
        for i in 0..k {
            let w = q[(i, k)];
            if w == 0.0 {
                continue;
            }
            for j in 0..k {
                if j != i {
                    let add = w * q[(k, j)];
                    q[(i, j)] += add;
                }
            }
        }
    }

    // Back substitution.
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for k in 1..n {
        let mut acc = 0.0;
        for i in 0..k {
            acc += pi[i] * q[(i, k)];
        }
        pi[k] = acc;
    }
    let total: f64 = pi.iter().sum();
    for p in &mut pi {
        *p /= total;
    }
    Ok(pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    fn birth_death(n: usize, up: f64, down: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, up).unwrap();
            b.rate(i + 1, i, down).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn two_state_closed_form() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 0, 3.0).unwrap();
        let chain = b.build().unwrap();
        let pi = stationary_gth(&chain).unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-14);
        assert!((pi[1] - 0.4).abs() < 1e-14);
    }

    #[test]
    fn birth_death_geometric() {
        // π_i ∝ (up/down)^i.
        let chain = birth_death(5, 1.0, 2.0);
        let pi = stationary_gth(&chain).unwrap();
        let rho: f64 = 0.5;
        let norm: f64 = (0..5).map(|i| rho.powi(i)).sum();
        for i in 0..5 {
            assert!(
                (pi[i] - rho.powi(i as i32) / norm).abs() < 1e-13,
                "state {i}"
            );
        }
    }

    #[test]
    fn simple_model_steady_state_is_half_quarter_quarter() {
        // The paper's Fig. 4 workload: idle→send (λ=2), send→idle (µ=6),
        // idle→sleep (τ=1), sleep→send (λ=2). π = (½, ¼, ¼).
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 0, 6.0).unwrap();
        b.rate(0, 2, 1.0).unwrap();
        b.rate(2, 1, 2.0).unwrap();
        let chain = b.build().unwrap();
        let pi = stationary_gth(&chain).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-12, "idle: {}", pi[0]);
        assert!((pi[1] - 0.25).abs() < 1e-12, "send: {}", pi[1]);
        assert!((pi[2] - 0.25).abs() < 1e-12, "sleep: {}", pi[2]);
    }

    #[test]
    fn gth_detects_reducible_chain() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        // State 2 unreachable and cannot leave.
        let chain = b.build().unwrap();
        assert!(matches!(
            stationary_gth(&chain),
            Err(MarkovError::NoConvergence(_))
        ));
    }

    #[test]
    fn singleton_chain() {
        let chain = CtmcBuilder::new(1).build().unwrap();
        assert_eq!(stationary_gth(&chain).unwrap(), vec![1.0]);
    }

    #[test]
    fn stationary_satisfies_balance_equations() {
        let chain = birth_death(8, 2.0, 1.5);
        let pi = stationary_gth(&chain).unwrap();
        // πQ = 0.
        let q = chain.generator_dense();
        let residual = q.vecmul(&pi).unwrap();
        for (j, r) in residual.iter().enumerate() {
            assert!(r.abs() < 1e-12, "column {j}: residual {r}");
        }
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-13);
    }
}
