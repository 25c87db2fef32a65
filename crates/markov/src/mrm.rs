//! Homogeneous Markov reward models.
//!
//! A homogeneous MRM attaches a constant reward rate `r_i` to each CTMC
//! state; the accumulated reward is `Y(t) = ∫₀ᵗ r_{X(s)} ds` (paper §4.1).
//! For batteries with `c = 1` (every bit of charge directly available) the
//! consumed charge is exactly such an accumulated reward, which is why the
//! paper can use an exact algorithm ([`crate::sericola`]) for the
//! `C = 800 mAh, c = 1` curve of Fig. 10.

use crate::ctmc::Ctmc;
use crate::transient::accumulated_measure;
use crate::MarkovError;

/// A CTMC equipped with one reward rate per state.
///
/// # Examples
///
/// ```
/// use markov::ctmc::CtmcBuilder;
/// use markov::mrm::MarkovRewardModel;
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 1.0).unwrap();
/// b.rate(1, 0, 1.0).unwrap();
/// let mrm = MarkovRewardModel::new(b.build().unwrap(), vec![0.2, 0.0]).unwrap();
/// assert_eq!(mrm.reward(0), 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovRewardModel {
    ctmc: Ctmc,
    rewards: Vec<f64>,
}

impl MarkovRewardModel {
    /// Attaches `rewards` to `ctmc`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the lengths mismatch or a
    /// reward is non-finite.
    pub fn new(ctmc: Ctmc, rewards: Vec<f64>) -> Result<Self, MarkovError> {
        if rewards.len() != ctmc.n_states() {
            return Err(MarkovError::InvalidArgument(format!(
                "{} rewards for {} states",
                rewards.len(),
                ctmc.n_states()
            )));
        }
        if rewards.iter().any(|r| !r.is_finite()) {
            return Err(MarkovError::InvalidArgument(
                "non-finite reward rate".into(),
            ));
        }
        Ok(MarkovRewardModel { ctmc, rewards })
    }

    /// The underlying CTMC.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// Reward rate of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reward(&self, i: usize) -> f64 {
        self.rewards[i]
    }

    /// All reward rates.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Expected accumulated reward `E[Y(t)]` via the uniformisation
    /// identity `∫₀ᵗ ψ(n; νs) ds = (1/ν)·Pr{N(νt) > n}`:
    ///
    /// `E[Y(t)] = Σ_n (r·αPⁿ) · (1/ν) Pr{N(νt) > n}`,
    ///
    /// the scalars of the transient curve sweep with the reward vector as
    /// its measure, mixed with Poisson tail weights.
    ///
    /// For a battery this is the expected charge drawn by time `t`.
    ///
    /// # Errors
    ///
    /// Propagates validation and Fox–Glynn errors.
    pub fn expected_accumulated_reward(
        &self,
        alpha: &[f64],
        t: f64,
        epsilon: f64,
    ) -> Result<f64, MarkovError> {
        accumulated_measure(&self.ctmc, alpha, t, &self.rewards, epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    fn two_state(a: f64, b: f64) -> Ctmc {
        let mut builder = CtmcBuilder::new(2);
        builder.rate(0, 1, a).unwrap();
        builder.rate(1, 0, b).unwrap();
        builder.build().unwrap()
    }

    #[test]
    fn construction_validation() {
        let c = two_state(1.0, 1.0);
        assert!(MarkovRewardModel::new(c.clone(), vec![1.0]).is_err());
        assert!(MarkovRewardModel::new(c.clone(), vec![1.0, f64::NAN]).is_err());
        let m = MarkovRewardModel::new(c, vec![2.0, 0.5]).unwrap();
        assert_eq!(m.reward(1), 0.5);
        assert_eq!(m.rewards(), &[2.0, 0.5]);
        assert_eq!(m.ctmc().n_states(), 2);
    }

    #[test]
    fn constant_reward_accumulates_linearly() {
        let m = MarkovRewardModel::new(two_state(2.0, 3.0), vec![5.0, 5.0]).unwrap();
        for &t in &[0.1, 1.0, 7.5] {
            let y = m
                .expected_accumulated_reward(&[1.0, 0.0], t, 1e-12)
                .unwrap();
            assert!((y - 5.0 * t).abs() < 1e-8, "t = {t}: {y}");
        }
    }

    #[test]
    fn zero_time_zero_reward() {
        let m = MarkovRewardModel::new(two_state(1.0, 1.0), vec![1.0, 2.0]).unwrap();
        assert_eq!(
            m.expected_accumulated_reward(&[1.0, 0.0], 0.0, 1e-12)
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn absorbing_chain_closed_form() {
        // 0 → 1 at rate a, reward 1 in state 0, 0 in state 1:
        // Y(t) = min(T, t) with T ~ Exp(a) ⇒ E[Y(t)] = (1 − e^{-at})/a.
        let a = 2.0;
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, a).unwrap();
        let m = MarkovRewardModel::new(b.build().unwrap(), vec![1.0, 0.0]).unwrap();
        for &t in &[0.2, 1.0, 3.0, 10.0] {
            let y = m
                .expected_accumulated_reward(&[1.0, 0.0], t, 1e-12)
                .unwrap();
            let expect = (1.0 - (-a * t).exp()) / a;
            assert!((y - expect).abs() < 1e-9, "t = {t}: {y} vs {expect}");
        }
    }

    #[test]
    fn no_transition_chain_linear_reward() {
        let c = CtmcBuilder::new(2).build().unwrap();
        let m = MarkovRewardModel::new(c, vec![3.0, 7.0]).unwrap();
        let y = m
            .expected_accumulated_reward(&[0.5, 0.5], 2.0, 1e-12)
            .unwrap();
        assert!((y - (0.5 * 3.0 + 0.5 * 7.0) * 2.0).abs() < 1e-12);
    }

    #[test]
    fn accumulated_reward_monotone_in_t() {
        let m = MarkovRewardModel::new(two_state(2.0, 1.0), vec![1.0, 4.0]).unwrap();
        let mut prev = 0.0;
        for i in 1..=10 {
            let y = m
                .expected_accumulated_reward(&[1.0, 0.0], i as f64 * 0.5, 1e-11)
                .unwrap();
            assert!(y >= prev - 1e-10);
            prev = y;
        }
    }

    #[test]
    fn bad_time_rejected() {
        let m = MarkovRewardModel::new(two_state(1.0, 1.0), vec![1.0, 0.0]).unwrap();
        assert!(m
            .expected_accumulated_reward(&[1.0, 0.0], -1.0, 1e-12)
            .is_err());
    }
}
