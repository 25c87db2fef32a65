//! CTMC jump sampling.
//!
//! The simulator walks a workload chain by the standard
//! competing-exponentials construction: in state `i`, wait `Exp(q_i)`,
//! then jump to `j` with probability `q_{ij}/q_i`. This module samples
//! the start state from `α` and each jump; the caller draws the sojourns.

use crate::rng::SimRng;
use markov::ctmc::Ctmc;
use markov::MarkovError;

/// Samples the successor of `state` according to the embedded jump chain.
///
/// # Errors
///
/// [`MarkovError::InvalidArgument`] when `state` is absorbing (it has no
/// successor).
pub fn next_state(ctmc: &Ctmc, state: usize, rng: &mut SimRng) -> Result<usize, MarkovError> {
    let q = ctmc.exit_rate(state);
    if q == 0.0 {
        return Err(MarkovError::InvalidArgument(format!(
            "state {state} is absorbing; it has no successor"
        )));
    }
    let mut u = rng.uniform() * q;
    let mut last = None;
    for (j, rate) in ctmc.rates().row(state) {
        u -= rate;
        last = Some(j);
        if u < 0.0 {
            return Ok(j);
        }
    }
    Ok(last.expect("non-absorbing state has at least one transition"))
}

/// Samples an initial state from a distribution `alpha`.
///
/// # Errors
///
/// [`MarkovError::InvalidDistribution`] when `alpha` is not a valid
/// distribution over the chain's states.
pub fn sample_initial(ctmc: &Ctmc, alpha: &[f64], rng: &mut SimRng) -> Result<usize, MarkovError> {
    ctmc.check_distribution(alpha)?;
    rng.categorical(alpha)
        .ok_or_else(|| MarkovError::InvalidDistribution("all-zero distribution".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use markov::ctmc::CtmcBuilder;

    fn two_state(a: f64, b: f64) -> Ctmc {
        let mut builder = CtmcBuilder::new(2);
        builder.rate(0, 1, a).unwrap();
        builder.rate(1, 0, b).unwrap();
        builder.build().unwrap()
    }

    #[test]
    fn next_state_distribution() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(0, 2, 3.0).unwrap();
        let chain = b.build().unwrap();
        let mut rng = SimRng::seed_from(4);
        let n = 100_000;
        let mut count2 = 0;
        for _ in 0..n {
            if next_state(&chain, 0, &mut rng).unwrap() == 2 {
                count2 += 1;
            }
        }
        let frac = count2 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
        assert!(next_state(&chain, 1, &mut rng).is_err());
    }

    #[test]
    fn sample_initial_respects_alpha() {
        let chain = two_state(1.0, 1.0);
        let mut rng = SimRng::seed_from(5);
        let n = 50_000;
        let ones = (0..n)
            .filter(|_| sample_initial(&chain, &[0.3, 0.7], &mut rng).unwrap() == 1)
            .count();
        assert!((ones as f64 / n as f64 - 0.7).abs() < 0.01);
        assert!(sample_initial(&chain, &[0.5, 0.2], &mut rng).is_err());
    }

    #[test]
    fn input_validation() {
        let chain = two_state(1.0, 1.0);
        let mut rng = SimRng::seed_from(6);
        assert!(sample_initial(&chain, &[1.0], &mut rng).is_err());
        assert!(sample_initial(&chain, &[0.0, 0.0], &mut rng).is_err());
        assert!(sample_initial(&chain, &[f64::NAN, 1.0], &mut rng).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.3).unwrap();
        b.rate(0, 2, 0.7).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        b.rate(2, 0, 1.0).unwrap();
        let chain = b.build().unwrap();
        let walk = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let mut state = sample_initial(&chain, &[0.2, 0.5, 0.3], &mut rng).unwrap();
            let mut states = vec![state];
            for _ in 0..200 {
                state = next_state(&chain, state, &mut rng).unwrap();
                states.push(state);
            }
            states
        };
        assert_eq!(walk(9), walk(9));
        assert_ne!(walk(9), walk(10));
    }
}
