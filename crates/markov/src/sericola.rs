//! Sericola's exact algorithm for the performability distribution
//! `Pr{Y(t) > y}` of a homogeneous Markov reward model.
//!
//! This is the uniformisation-based algorithm of B. Sericola ("Occupation
//! times in Markov processes", *Stochastic Models* 16(5), 2000; also
//! Nabli & Sericola, *IEEE Trans. Computers* 45(4), 1996), which the paper
//! cites as \[25\] and uses for the exact `C = 800 mAh, c = 1` lifetime
//! curve in Fig. 10.
//!
//! # How it works
//!
//! Condition on `N(t) = n` Poisson(ν) events. Given the uniformised jump
//! chain `P`, the accumulated reward is a mixture of linear combinations
//! of uniform order-statistic spacings, and for `y/t` inside the interval
//! `[r_{j+1}, r_j)` between two adjacent distinct reward rates the
//! conditional tail probability is a polynomial in the normalised position
//! `x_j = (y − r_{j+1}t)/((r_j − r_{j+1})t)` expressed in the Bernstein
//! basis:
//!
//! ```text
//! Pr{Y(t) > y} = Σ_n ψ(n; νt) Σ_{k=0}^n C(n,k) x_j^k (1−x_j)^{n−k} · α b⁽ʲ⁾(n,k)
//! ```
//!
//! The coefficient vectors obey convex-combination recursions that run
//! *upward* in `k` for states whose reward is at least `r_j` ("fast"
//! states) and *downward* in `k` for states with reward at most `r_{j+1}`
//! ("slow" states), with boundary conditions chaining adjacent intervals:
//! `b⁽ʲ⁾(n,0) = b⁽ʲ⁺¹⁾(n,n)` for fast states (with value 1 below the
//! lowest interval) and `b⁽ʲ⁾(n,n) = b⁽ʲ⁻¹⁾(n,0)` for slow states (with
//! value 0 above the highest interval). All quantities are probabilities,
//! so the computation is numerically stable; the Poisson series is
//! truncated by Fox–Glynn.
//!
//! Complexity: `O(R² · nnz(P))` time and `O(K · R · N)` memory, with `R`
//! the right truncation point of the Poisson window and `K` the number of
//! distinct reward rates.

use crate::foxglynn::FoxGlynnCache;
use crate::mrm::MarkovRewardModel;
use crate::sparse::CsrMatrix;
use crate::MarkovError;

/// Options for the Sericola solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformabilityOptions {
    /// Poisson truncation error.
    pub epsilon: f64,
    /// Uniformisation factor (≥ 1).
    pub uniformisation_factor: f64,
}

impl Default for PerformabilityOptions {
    fn default() -> Self {
        PerformabilityOptions {
            epsilon: 1e-10,
            uniformisation_factor: 1.02,
        }
    }
}

/// Computes `Pr{Y(t) > y}` exactly (up to Poisson truncation `ε`).
///
/// # Errors
///
/// [`MarkovError::InvalidArgument`] for negative rewards, non-finite
/// `t`/`y` or negative `t`; [`MarkovError::InvalidDistribution`] for a bad
/// `alpha`.
///
/// # Examples
///
/// ```
/// use markov::ctmc::CtmcBuilder;
/// use markov::mrm::MarkovRewardModel;
/// use markov::sericola::{reward_exceeds_probability, PerformabilityOptions};
///
/// // Single state, reward 2: Y(t) = 2t deterministically.
/// let chain = CtmcBuilder::new(1).build().unwrap();
/// let mrm = MarkovRewardModel::new(chain, vec![2.0]).unwrap();
/// let opts = PerformabilityOptions::default();
/// let p = reward_exceeds_probability(&mrm, &[1.0], 3.0, 5.9, &opts).unwrap();
/// assert_eq!(p, 1.0); // 2·3 = 6 > 5.9
/// ```
pub fn reward_exceeds_probability(
    mrm: &MarkovRewardModel,
    alpha: &[f64],
    t: f64,
    y: f64,
    opts: &PerformabilityOptions,
) -> Result<f64, MarkovError> {
    Ok(reward_exceeds_curve(mrm, alpha, &[t], y, opts)?[0].1)
}

/// Computes `t ↦ Pr{Y(t) > y}` for a whole grid of time points, sharing
/// one sweep of the `b⁽ʲ⁾(n,k)` recursion.
///
/// The coefficient vectors are independent of `t` — only the Poisson
/// weights and the Bernstein position `x_j(t)` vary — so evaluating a
/// lifetime curve costs one recursion up to the largest truncation point
/// instead of one per point (the same trick the uniformisation curve
/// engine uses).
///
/// # Errors
///
/// Same conditions as [`reward_exceeds_probability`].
pub fn reward_exceeds_curve(
    mrm: &MarkovRewardModel,
    alpha: &[f64],
    times: &[f64],
    y: f64,
    opts: &PerformabilityOptions,
) -> Result<Vec<(f64, f64)>, MarkovError> {
    let ctmc = mrm.ctmc();
    ctmc.check_distribution(alpha)?;
    if times.is_empty() {
        return Err(MarkovError::InvalidArgument(
            "no time points requested".into(),
        ));
    }
    if times.iter().any(|t| !t.is_finite() || *t < 0.0) || !y.is_finite() {
        return Err(MarkovError::InvalidArgument(format!(
            "need finite t ≥ 0 and finite y, got y = {y}"
        )));
    }
    if mrm.rewards().iter().any(|&r| r < 0.0) {
        return Err(MarkovError::InvalidArgument(
            "Sericola's algorithm requires non-negative reward rates".into(),
        ));
    }

    // Distinct reward values, descending: r[0] > r[1] > … > r[K-1].
    let mut classes: Vec<f64> = mrm.rewards().to_vec();
    classes.sort_by(|a, b| b.partial_cmp(a).expect("finite rewards"));
    classes.dedup();
    let k_classes = classes.len();
    let r_max = classes[0];
    let r_min = classes[k_classes - 1];
    let class_of: Vec<usize> = mrm
        .rewards()
        .iter()
        .map(|&r| {
            classes
                .iter()
                .position(|&c| c == r)
                .expect("reward present")
        })
        .collect();

    let (p, nu) = ctmc.uniformised(opts.uniformisation_factor)?;

    // Classify each time point: trivially 0/1, or active in interval j
    // at Bernstein position x with its own Poisson window.
    struct Active {
        /// Index into the output vector.
        out: usize,
        j_star: usize,
        ln_x: f64,
        ln_1mx: f64,
        window: FoxGlynnCache,
    }
    let mut results: Vec<(f64, f64)> = times.iter().map(|&t| (t, 0.0)).collect();
    let mut active: Vec<Active> = Vec::new();
    for (out, &t) in times.iter().enumerate() {
        if t == 0.0 {
            results[out].1 = if y < 0.0 { 1.0 } else { 0.0 };
            continue;
        }
        if y < r_min * t {
            results[out].1 = 1.0;
            continue;
        }
        if y >= r_max * t {
            results[out].1 = 0.0;
            continue;
        }
        if nu == 0.0 {
            // No transitions: Y(t) = r_{X(0)}·t exactly.
            results[out].1 = alpha
                .iter()
                .zip(mrm.rewards())
                .map(|(&a, &r)| if r * t > y { a } else { 0.0 })
                .sum();
            continue;
        }
        let ratio = y / t;
        let j_star = (0..k_classes - 1)
            .find(|&j| ratio >= classes[j + 1] && ratio < classes[j])
            .expect("ratio lies in [r_min, r_max) by the guards above");
        let x = (y - classes[j_star + 1] * t) / ((classes[j_star] - classes[j_star + 1]) * t);
        debug_assert!((0.0..1.0).contains(&x), "x = {x}");
        let mut window = FoxGlynnCache::new();
        window.compute(nu * t, opts.epsilon)?;
        active.push(Active {
            out,
            j_star,
            ln_x: if x > 0.0 { x.ln() } else { f64::NEG_INFINITY },
            ln_1mx: (1.0 - x).ln(),
            window,
        });
    }
    if active.is_empty() {
        return Ok(results);
    }

    let r_right = active
        .iter()
        .map(|a| a.window.right())
        .max()
        .expect("nonempty");
    let n_states = ctmc.n_states();
    let n_intervals = k_classes - 1;
    let ln_fact = ln_factorial_table(r_right + 1);

    // One shared sweep of the t-independent coefficient recursion.
    let mut b_prev: Vec<Vec<Vec<f64>>> = Vec::new();
    for n in 0..=r_right {
        let b_cur = if n == 0 {
            // b⁽ʲ⁾(0,0)_i = 1 iff state i is fast for interval j.
            (0..n_intervals)
                .map(|j| {
                    vec![(0..n_states)
                        .map(|i| if class_of[i] <= j { 1.0 } else { 0.0 })
                        .collect::<Vec<f64>>()]
                })
                .collect::<Vec<_>>()
        } else {
            advance_level(&p, &b_prev, n, n_intervals, n_states, &classes, &class_of)
        };

        // α·b⁽ʲ⁾(n,k) per interval, shared across the active points.
        let betas: Vec<Vec<f64>> = (0..n_intervals)
            .map(|j| {
                b_cur[j]
                    .iter()
                    .map(|b_vec| alpha.iter().zip(b_vec).map(|(a, b)| a * b).sum())
                    .collect()
            })
            .collect();

        for a in &active {
            let wn = a.window.weight(n);
            if wn == 0.0 {
                continue;
            }
            let mut inner = 0.0;
            for (k, &beta) in betas[a.j_star].iter().enumerate() {
                if beta == 0.0 {
                    continue;
                }
                let ln_binom = ln_fact[n] - ln_fact[k] - ln_fact[n - k];
                let ln_term = ln_binom
                    + if k == 0 { 0.0 } else { k as f64 * a.ln_x }
                    + if n == k {
                        0.0
                    } else {
                        (n - k) as f64 * a.ln_1mx
                    };
                inner += ln_term.exp() * beta;
            }
            results[a.out].1 += wn * inner;
        }
        b_prev = b_cur;
    }
    for r in &mut results {
        r.1 = r.1.clamp(0.0, 1.0);
    }
    Ok(results)
}

/// One level of the Sericola recursion: builds all `b⁽ʲ⁾(n,·)` from
/// `b⁽ʲ⁾(n−1,·)`.
fn advance_level(
    p: &CsrMatrix,
    b_prev: &[Vec<Vec<f64>>],
    n: usize,
    n_intervals: usize,
    n_states: usize,
    classes: &[f64],
    class_of: &[usize],
) -> Vec<Vec<Vec<f64>>> {
    // Precompute P·b⁽ʲ⁾(n−1,k) for every interval and k = 0..n-1.
    let products: Vec<Vec<Vec<f64>>> = b_prev
        .iter()
        .map(|per_k| {
            per_k
                .iter()
                .map(|b| p.mul_vec(b).expect("dimensions fixed at build time"))
                .collect()
        })
        .collect();

    let mut b_cur: Vec<Vec<Vec<f64>>> = (0..n_intervals)
        .map(|_| vec![vec![0.0; n_states]; n + 1])
        .collect();

    // FAST phase: intervals from the bottom (j = K−2) upward; k ascending.
    for j in (0..n_intervals).rev() {
        let r_top = classes[j];
        let r_bot = classes[j + 1];
        // Base k = 0: chain to interval j+1's k = n, or 1 below the bottom.
        for i in 0..n_states {
            if class_of[i] <= j {
                b_cur[j][0][i] = if j + 1 < n_intervals {
                    b_cur[j + 1][n][i]
                } else {
                    1.0
                };
            }
        }
        for k in 1..=n {
            for i in 0..n_states {
                let l = class_of[i];
                if l <= j {
                    let r_i = classes[l];
                    let a_coef = (r_i - r_top) / (r_i - r_bot);
                    let b_coef = (r_top - r_bot) / (r_i - r_bot);
                    b_cur[j][k][i] = a_coef * b_cur[j][k - 1][i] + b_coef * products[j][k - 1][i];
                }
            }
        }
    }

    // SLOW phase: intervals from the top (j = 0) downward; k descending.
    for j in 0..n_intervals {
        let r_top = classes[j];
        let r_bot = classes[j + 1];
        // Base k = n: chain to interval j−1's k = 0, or 0 above the top.
        for i in 0..n_states {
            if class_of[i] > j {
                b_cur[j][n][i] = if j > 0 { b_cur[j - 1][0][i] } else { 0.0 };
            }
        }
        for k in (0..n).rev() {
            for i in 0..n_states {
                let l = class_of[i];
                if l > j {
                    let r_i = classes[l];
                    let a_coef = (r_bot - r_i) / (r_top - r_i);
                    let b_coef = (r_top - r_bot) / (r_top - r_i);
                    b_cur[j][k][i] = a_coef * b_cur[j][k + 1][i] + b_coef * products[j][k][i];
                }
            }
        }
    }
    b_cur
}

/// `ln(k!)` for `k = 0..len` via a running sum.
fn ln_factorial_table(len: usize) -> Vec<f64> {
    let mut table = Vec::with_capacity(len + 1);
    table.push(0.0);
    let mut acc = 0.0;
    for k in 1..=len {
        acc += (k as f64).ln();
        table.push(acc);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::{Ctmc, CtmcBuilder};

    fn opts() -> PerformabilityOptions {
        PerformabilityOptions {
            epsilon: 1e-12,
            ..Default::default()
        }
    }

    fn on_off(a: f64, b: f64) -> Ctmc {
        let mut builder = CtmcBuilder::new(2);
        builder.rate(0, 1, a).unwrap();
        builder.rate(1, 0, b).unwrap();
        builder.build().unwrap()
    }

    #[test]
    fn degenerate_single_state() {
        let chain = CtmcBuilder::new(1).build().unwrap();
        let mrm = MarkovRewardModel::new(chain, vec![2.0]).unwrap();
        assert_eq!(
            reward_exceeds_probability(&mrm, &[1.0], 3.0, 5.0, &opts()).unwrap(),
            1.0
        );
        assert_eq!(
            reward_exceeds_probability(&mrm, &[1.0], 3.0, 6.0, &opts()).unwrap(),
            0.0
        );
        assert_eq!(
            reward_exceeds_probability(&mrm, &[1.0], 3.0, 7.0, &opts()).unwrap(),
            0.0
        );
    }

    #[test]
    fn no_transitions_two_rewards() {
        // Two absorbing states with rewards 1 and 3: mixture of points.
        let chain = CtmcBuilder::new(2).build().unwrap();
        let mrm = MarkovRewardModel::new(chain, vec![1.0, 3.0]).unwrap();
        let alpha = [0.4, 0.6];
        // t = 2: Y = 2 w.p. 0.4, Y = 6 w.p. 0.6.
        let p_gt_4 = reward_exceeds_probability(&mrm, &alpha, 2.0, 4.0, &opts()).unwrap();
        assert!((p_gt_4 - 0.6).abs() < 1e-12);
        let p_gt_1 = reward_exceeds_probability(&mrm, &alpha, 2.0, 1.0, &opts()).unwrap();
        assert!((p_gt_1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_edge() {
        let mrm = MarkovRewardModel::new(on_off(1.0, 1.0), vec![1.0, 0.0]).unwrap();
        assert_eq!(
            reward_exceeds_probability(&mrm, &[1.0, 0.0], 0.0, 0.5, &opts()).unwrap(),
            0.0
        );
        assert_eq!(
            reward_exceeds_probability(&mrm, &[1.0, 0.0], 0.0, -0.5, &opts()).unwrap(),
            1.0
        );
    }

    #[test]
    fn negative_rewards_rejected() {
        let mrm = MarkovRewardModel::new(on_off(1.0, 1.0), vec![1.0, -1.0]).unwrap();
        assert!(matches!(
            reward_exceeds_probability(&mrm, &[1.0, 0.0], 1.0, 0.5, &opts()),
            Err(MarkovError::InvalidArgument(_))
        ));
    }

    #[test]
    fn bounds_are_respected() {
        let mrm = MarkovRewardModel::new(on_off(2.0, 3.0), vec![5.0, 1.0]).unwrap();
        let alpha = [0.5, 0.5];
        let t = 2.0;
        // y below r_min·t ⇒ certain, y at/above r_max·t ⇒ impossible.
        assert_eq!(
            reward_exceeds_probability(&mrm, &alpha, t, 1.9, &opts()).unwrap(),
            1.0
        );
        assert_eq!(
            reward_exceeds_probability(&mrm, &alpha, t, 10.0, &opts()).unwrap(),
            0.0
        );
        // In between: strictly between 0 and 1, monotone decreasing in y.
        let mut prev = 1.0;
        for i in 1..10 {
            let y = 2.0 + i as f64 * 0.8;
            let p = reward_exceeds_probability(&mrm, &alpha, t, y, &opts()).unwrap();
            assert!((0.0..=1.0).contains(&p));
            assert!(p <= prev + 1e-9, "not monotone at y = {y}");
            prev = p;
        }
    }

    /// Occupation time of the on-state in an on/off chain starting "on":
    /// closed form for the n ≤ 1 jump terms dominates at small νt, so
    /// compare against a high-resolution numerical reference computed from
    /// an independent method (dense expm of the level-augmented operator is
    /// overkill; here we use a fine Monte Carlo driven by an LCG for
    /// determinism).
    #[test]
    fn occupation_time_matches_monte_carlo() {
        let (a, b) = (1.0, 0.7);
        let mrm = MarkovRewardModel::new(on_off(a, b), vec![1.0, 0.0]).unwrap();
        let t = 3.0;
        // Deterministic xorshift RNG.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next_f64 = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let runs = 200_000;
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let mut clock = 0.0;
            let mut on = true;
            let mut occupied = 0.0;
            loop {
                let rate = if on { a } else { b };
                let u: f64 = next_f64();
                let sojourn = -(1.0 - u).ln() / rate;
                if clock + sojourn >= t {
                    if on {
                        occupied += t - clock;
                    }
                    break;
                }
                if on {
                    occupied += sojourn;
                }
                clock += sojourn;
                on = !on;
            }
            samples.push(occupied);
        }
        samples.sort_by(|p, q| p.partial_cmp(q).unwrap());
        for &y in &[0.5, 1.0, 1.5, 2.0, 2.5] {
            let exact = reward_exceeds_probability(&mrm, &[1.0, 0.0], t, y, &opts()).unwrap();
            let mc = samples.iter().filter(|&&s| s > y).count() as f64 / runs as f64;
            // Monte Carlo error at 200k runs ≈ 3·10⁻³ (3σ).
            assert!(
                (exact - mc).abs() < 4e-3,
                "y = {y}: exact {exact} vs MC {mc}"
            );
        }
    }

    #[test]
    fn three_reward_classes_atom_at_interval_boundary() {
        // 3-state cyclic chain with rewards 4 > 2 > 0. Y(t) has an *atom*
        // at y = 2t: the event "X(s) = state 1 for all s ≤ t", with mass
        // α₁·e^{-q₁t}. The tail function must jump by exactly that mass at
        // the boundary (right-continuous), and be monotone elsewhere.
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 2, 1.5).unwrap();
        b.rate(2, 0, 0.7).unwrap();
        let mrm = MarkovRewardModel::new(b.build().unwrap(), vec![4.0, 2.0, 0.0]).unwrap();
        let alpha = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0];
        let t = 2.0;
        let boundary = 2.0 * t;
        let below = reward_exceeds_probability(&mrm, &alpha, t, boundary - 1e-9, &opts()).unwrap();
        let at = reward_exceeds_probability(&mrm, &alpha, t, boundary, &opts()).unwrap();
        let atom = alpha[1] * (-1.5 * t).exp();
        assert!(
            ((below - at) - atom).abs() < 1e-6,
            "jump {} vs atom mass {atom}",
            below - at
        );
        let mut prev = 1.0;
        for i in 0..=80 {
            let y = i as f64 * 0.1;
            let p = reward_exceeds_probability(&mrm, &alpha, t, y, &opts()).unwrap();
            assert!(p <= prev + 1e-9, "not monotone at y = {y}");
            prev = p;
        }
    }

    #[test]
    fn curve_matches_pointwise() {
        let mrm = MarkovRewardModel::new(on_off(1.3, 0.8), vec![2.0, 0.5]).unwrap();
        let alpha = [0.7, 0.3];
        let y = 1.9;
        let times = [0.0, 0.5, 1.0, 2.0, 5.0, 9.0];
        let curve = reward_exceeds_curve(&mrm, &alpha, &times, y, &opts()).unwrap();
        for (t, p) in &curve {
            let point = reward_exceeds_probability(&mrm, &alpha, *t, y, &opts()).unwrap();
            assert!((p - point).abs() < 1e-12, "t = {t}: {p} vs {point}");
        }
        // Curve across trivial and active regions stays in [0, 1].
        assert!(curve.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
        // Empty grids rejected.
        assert!(reward_exceeds_curve(&mrm, &alpha, &[], y, &opts()).is_err());
    }

    #[test]
    fn mean_from_distribution_matches_mrm_expectation() {
        // E[Y(t)] = ∫₀^{r_max t} Pr{Y > y} dy (non-negative rewards).
        let mrm = MarkovRewardModel::new(on_off(1.3, 0.9), vec![2.0, 0.5]).unwrap();
        let alpha = [0.6, 0.4];
        let t = 1.7;
        let expected = mrm.expected_accumulated_reward(&alpha, t, 1e-12).unwrap();
        // Trapezoidal integration of the tail function.
        let steps = 4000;
        let hi = 2.0 * t;
        let h = hi / steps as f64;
        let mut integral = 0.0;
        let mut prev = 1.0; // Pr{Y > 0} for strictly positive rewards
        for i in 1..=steps {
            let y = i as f64 * h;
            let p = reward_exceeds_probability(&mrm, &alpha, t, y, &opts()).unwrap();
            integral += 0.5 * (prev + p) * h;
            prev = p;
        }
        assert!(
            (integral - expected).abs() < 2e-3,
            "integral {integral} vs expectation {expected}"
        );
    }
}
