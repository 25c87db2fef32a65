//! Poisson probability weights with left/right truncation for
//! uniformisation (Fox & Glynn, *CACM* 1988, in the numerically robust
//! mode-centred formulation used by probabilistic model checkers).
//!
//! Uniformisation evaluates `π(t) = Σ_n ψ(n; νt)·αPⁿ` where
//! `ψ(n; λ) = e^{-λ}λⁿ/n!`. For the paper's experiments `λ = νt` reaches
//! ≈ 4.6·10⁴, so the summation must be truncated to the `O(√λ)` window
//! around the mode that carries all but `ε` of the mass. [`FoxGlynnCache`]
//! is the one way to compute that window: [`FoxGlynnCache::compute`] fills
//! it in place, and [`FoxGlynnCache::weight`] and
//! [`FoxGlynnCache::right`] read it. A caller wanting one window makes a
//! fresh cache; a caller evaluating many keeps one and reuses its buffers.

use crate::MarkovError;
use numerics::special::poisson_ln_pmf;

/// The largest Poisson rate `λ = νt` a window is computed for. It bounds
/// everything a rate asks for downstream: the window (`O(√λ)`), the
/// scalar vector and the product count (both `≈ λ`, so about 80 MB and
/// 10⁷ products here). The paper's experiments stay below 5·10⁴ and the
/// workload designer's ×24 rate scale below 3·10⁵; a query time far past
/// any battery's lifetime is refused instead of aborting the process on
/// a failed allocation.
const MAX_LAMBDA: f64 = 1e7;

/// A reusable Fox–Glynn workspace for evaluating many Poisson windows
/// with **zero allocations after the first** — the curve engine's answer
/// to "don't recompute the weights from scratch per time point".
///
/// [`measure_curve`](crate::transient::measure_curve) computes the window
/// once at the largest rate `λ_max = ν·t_max` (which also bounds every
/// smaller window's right truncation point, sizing the sweep), then
/// derives each smaller-`t` window into the same buffers: the recurrence
/// is re-anchored at the new mode — the numerically robust formulation —
/// but the `O(√λ)` storage and the two tail scratch vectors are reused
/// across all time points.
///
/// # Examples
///
/// ```
/// use markov::foxglynn::FoxGlynnCache;
///
/// let mut cache = FoxGlynnCache::new();
/// cache.compute(4000.0, 1e-10).unwrap();
/// let right_max = cache.right();
/// cache.compute(400.0, 1e-10).unwrap(); // reuses the buffers
/// assert!(cache.right() <= right_max);
/// assert!((cache.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FoxGlynnCache {
    left: usize,
    right: usize,
    mass_covered: f64,
    weights: Vec<f64>,
    right_scratch: Vec<f64>,
}

impl FoxGlynnCache {
    /// An empty cache; buffers grow on the first [`compute`](Self::compute).
    pub fn new() -> Self {
        FoxGlynnCache::default()
    }

    /// First retained index of the last computed window.
    pub fn left(&self) -> usize {
        self.left
    }

    /// Last retained index (inclusive) of the last computed window.
    pub fn right(&self) -> usize {
        self.right
    }

    /// Probability mass captured before renormalisation (`≥ 1 − ε`).
    pub fn mass_covered(&self) -> f64 {
        self.mass_covered
    }

    /// The renormalised weights of the last computed window;
    /// `weights()[i] ≈ Pr{Poisson(λ) = left() + i}`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The weight of index `n`, zero outside the window.
    pub fn weight(&self, n: usize) -> f64 {
        if n < self.left || n > self.right {
            0.0
        } else {
            self.weights[n - self.left]
        }
    }

    /// Computes the truncated Poisson distribution for rate `lambda` into
    /// the cache's buffers, replacing the previous window: at most
    /// `epsilon` of the total mass is discarded (split between the two
    /// tails), then the window is renormalised.
    ///
    /// The evaluation starts from the exact log-pmf at the mode
    /// `m = ⌊λ⌋` and extends outward with the multiplicative recurrences
    /// `ψ(n+1) = ψ(n)·λ/(n+1)` and `ψ(n−1) = ψ(n)·n/λ`, entirely in the
    /// linear domain — the mode value anchors the scale so no overflow is
    /// possible.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `lambda` is negative/NaN or
    /// above 10⁷, or `epsilon ∉ (0, 1)`; nothing is allocated then.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut w = markov::foxglynn::FoxGlynnCache::new();
    /// w.compute(2.0, 1e-12).unwrap();
    /// assert!((w.weight(0) - (-2.0f64).exp()).abs() < 1e-12);
    /// assert!((w.weights().iter().sum::<f64>() - 1.0).abs() < 1e-14);
    /// ```
    pub fn compute(&mut self, lambda: f64, epsilon: f64) -> Result<(), MarkovError> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(MarkovError::InvalidArgument(format!(
                "Poisson rate must be finite and non-negative, got {lambda}"
            )));
        }
        if lambda > MAX_LAMBDA {
            return Err(MarkovError::InvalidArgument(format!(
                "Poisson rate λ = νt = {lambda:e} exceeds the cap {MAX_LAMBDA:e}; \
                 shorten the time horizon"
            )));
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(MarkovError::InvalidArgument(format!(
                "epsilon must lie in (0, 1), got {epsilon}"
            )));
        }
        if lambda == 0.0 {
            self.left = 0;
            self.right = 0;
            self.mass_covered = 1.0;
            self.weights.clear();
            self.weights.push(1.0);
            return Ok(());
        }

        let mode = lambda.floor() as usize;
        let p_mode = poisson_ln_pmf(lambda, mode as u64).exp();

        // Expand right from the mode until the right tail is provably
        // < ε/2: once past the mode the pmf decays at ratio
        // ρ = λ/(n+1) < 1, so the remaining tail is bounded by w·ρ/(1−ρ).
        let tail_bound = epsilon / 2.0;
        let right_weights = &mut self.right_scratch;
        right_weights.clear();
        let mut w = p_mode;
        let mut n = mode;
        loop {
            right_weights.push(w);
            let ratio = lambda / (n + 1) as f64;
            let next = w * ratio;
            if ratio < 1.0 {
                let tail = next / (1.0 - ratio);
                if tail < tail_bound || next < f64::MIN_POSITIVE {
                    break;
                }
            }
            n += 1;
            w = next;
        }
        let right = n;

        // Expand left similarly (ratio n/λ < 1 below the mode), directly
        // into the output buffer, then reverse it into index order.
        let left_buf = &mut self.weights;
        left_buf.clear();
        let mut w = p_mode;
        let mut m = mode;
        while m > 0 {
            let ratio = m as f64 / lambda;
            let prev = w * ratio;
            if ratio < 1.0 {
                let tail = prev / (1.0 - ratio);
                if tail < tail_bound || prev < f64::MIN_POSITIVE {
                    break;
                }
            }
            m -= 1;
            w = prev;
            left_buf.push(w);
        }
        let left = m;

        // Stitch: left_buf holds indices mode−1, mode−2, …; reverse in
        // place, then append the right expansion.
        left_buf.reverse();
        left_buf.extend_from_slice(right_weights);

        let mass: f64 = self.weights.iter().sum();
        debug_assert!(mass > 0.0);
        for w in &mut self.weights {
            *w /= mass;
        }
        self.left = left;
        self.right = right;
        self.mass_covered = mass;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::special::poisson_pmf;

    /// A fresh cache holding the one window for `lambda`.
    fn window(lambda: f64, epsilon: f64) -> FoxGlynnCache {
        let mut cache = FoxGlynnCache::new();
        cache.compute(lambda, epsilon).unwrap();
        cache
    }

    #[test]
    fn zero_lambda_degenerate() {
        let w = window(0.0, 1e-10);
        assert_eq!(w.left(), 0);
        assert_eq!(w.right(), 0);
        assert_eq!(w.weights(), &[1.0]);
        assert_eq!(w.weight(0), 1.0);
        assert_eq!(w.weight(1), 0.0);
    }

    #[test]
    fn small_lambda_matches_direct_pmf() {
        let w = window(3.5, 1e-14);
        assert_eq!(w.left(), 0, "small λ keeps the full left tail");
        for n in 0..w.right() {
            let direct = poisson_pmf(3.5, n as u64);
            assert!(
                (w.weight(n) - direct).abs() < 1e-12,
                "n = {n}: {} vs {direct}",
                w.weight(n)
            );
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for &lambda in &[0.1f64, 1.0, 17.3, 400.0, 46_000.0] {
            let w = window(lambda, 1e-10);
            let total: f64 = w.weights().iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "λ = {lambda}");
            assert!(
                w.mass_covered() > 1.0 - 1e-9,
                "λ = {lambda}: {}",
                w.mass_covered()
            );
        }
    }

    #[test]
    fn window_is_mode_centred_and_sqrt_sized() {
        let lambda = 40_000.0;
        let w = window(lambda, 1e-10);
        let mode = lambda as usize;
        assert!(w.left() < mode && mode < w.right());
        // Window should be O(√λ): ≈ ±7σ for ε = 1e-10 (σ = 200).
        let width = (w.right() - w.left()) as f64;
        assert!(width > 4.0 * lambda.sqrt(), "window too narrow: {width}");
        assert!(width < 20.0 * lambda.sqrt(), "window too wide: {width}");
        // The paper's regime: > 36 000 iterations needed at λ ≈ 38 000 means
        // R must exceed λ.
        assert!(w.right() as f64 > lambda);
    }

    #[test]
    fn truncated_mass_within_epsilon() {
        let lambda = 1000.0;
        let eps = 1e-8;
        let w = window(lambda, eps);
        // Mass outside the window, computed directly.
        let mut outside = 0.0;
        for n in 0..w.left() {
            outside += poisson_pmf(lambda, n as u64);
        }
        for n in (w.right() + 1)..(w.right() + 2000) {
            outside += poisson_pmf(lambda, n as u64);
        }
        assert!(outside <= eps * 1.01, "outside mass {outside} > ε = {eps}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut cache = FoxGlynnCache::new();
        assert!(cache.compute(-1.0, 1e-10).is_err());
        assert!(cache.compute(f64::NAN, 1e-10).is_err());
        assert!(cache.compute(1.0, 0.0).is_err());
        assert!(cache.compute(1.0, 1.0).is_err());
    }

    #[test]
    fn rates_above_the_cap_are_refused_before_allocating() {
        let mut cache = FoxGlynnCache::new();
        for lambda in [MAX_LAMBDA * 1.5, 2e9, 1e12, f64::MAX] {
            match cache.compute(lambda, 1e-10) {
                Err(MarkovError::InvalidArgument(msg)) => {
                    assert!(msg.contains(&format!("{lambda:e}")), "{msg}");
                    assert!(msg.contains("1e7"), "{msg}");
                }
                other => panic!("λ = {lambda}: {other:?}"),
            }
            assert!(cache.weights().is_empty(), "λ = {lambda}: nothing computed");
        }
        // The cap itself and normal rates keep their windows.
        let w = window(MAX_LAMBDA, 1e-10);
        assert_eq!((w.left(), w.right()), (9_979_546, 10_020_468));
        let w = window(46_000.0, 1e-10);
        assert_eq!((w.left(), w.right()), (44_619, 47_395));
    }

    #[test]
    fn cache_reuse_matches_fresh_computation() {
        // One workspace, many rates — the measure_curve usage pattern:
        // largest λ first, then smaller windows into the same buffers.
        let mut cache = FoxGlynnCache::new();
        cache.compute(46_000.0, 1e-10).unwrap();
        let right_max = cache.right();
        for &lambda in &[17.3, 400.0, 4_000.0, 46_000.0] {
            cache.compute(lambda, 1e-10).unwrap();
            let fresh = window(lambda, 1e-10);
            assert_eq!(cache.left(), fresh.left(), "λ = {lambda}");
            assert_eq!(cache.right(), fresh.right(), "λ = {lambda}");
            assert_eq!(cache.weights(), fresh.weights(), "λ = {lambda}");
            assert_eq!(cache.mass_covered(), fresh.mass_covered());
            assert!(cache.right() <= right_max, "λ_max bounds every window");
            assert_eq!(cache.weight(fresh.left()), fresh.weights()[0]);
            assert_eq!(cache.weight(fresh.right() + 1), 0.0);
        }
        // Degenerate and invalid inputs behave like a fresh cache.
        cache.compute(0.0, 1e-10).unwrap();
        assert_eq!(cache.weights(), &[1.0]);
        assert!(cache.compute(-1.0, 1e-10).is_err());
        assert!(cache.compute(1.0, 1.0).is_err());
    }

    #[test]
    fn weight_outside_window_is_zero() {
        let w = window(500.0, 1e-10);
        assert_eq!(w.weight(0), 0.0);
        assert_eq!(w.weight(10_000), 0.0);
    }
}
