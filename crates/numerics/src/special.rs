//! Special functions: `ln Γ`, log-factorials, Poisson probabilities and
//! the error function.
//!
//! Uniformisation needs Poisson probabilities `e^{-λ}λ^n/n!` for `λ·t` up
//! to ≈ 5·10⁴ (the paper reports > 46 000 iterations for the Fig. 8 curve),
//! far beyond what naive evaluation survives. Everything here is computed
//! in log space.

/// Natural logarithm of the gamma function for `x > 0`, via the Lanczos
/// approximation (g = 7, n = 9), accurate to ~1e-13 relative error.
///
/// # Panics
///
/// Panics in debug builds when `x <= 0`.
///
/// # Examples
///
/// ```
/// // Γ(5) = 24
/// assert!((numerics::special::ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g = 7).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(n!)`, exact summation for `n < 256`, `ln Γ(n+1)` beyond.
pub fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n < 256 {
        let mut acc = 0.0;
        for k in 2..=n {
            acc += (k as f64).ln();
        }
        acc
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// `ln Pr{Poisson(λ) = n}` = `-λ + n ln λ - ln n!`, valid for `λ > 0`.
/// For `λ = 0` returns `0` at `n = 0` and `-∞` otherwise.
pub fn poisson_ln_pmf(lambda: f64, n: u64) -> f64 {
    debug_assert!(lambda >= 0.0, "poisson_ln_pmf requires λ ≥ 0, got {lambda}");
    if lambda == 0.0 {
        return if n == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    -lambda + n as f64 * lambda.ln() - ln_factorial(n)
}

/// `Pr{Poisson(λ) = n}` evaluated through log space.
pub fn poisson_pmf(lambda: f64, n: u64) -> f64 {
    poisson_ln_pmf(lambda, n).exp()
}

/// The error function, computed from the Maclaurin series for small
/// arguments and the Laplace continued fraction for `erfc` beyond `x = 2`;
/// absolute error below ~1e-12 on the real line.
pub fn erf(x: f64) -> f64 {
    let result = 1.0 - erfc_abs(x.abs());
    if x >= 0.0 {
        result
    } else {
        -result
    }
}

/// `erfc(x)` for `x ≥ 0` via series/continued fraction split at `x = 2`.
fn erfc_abs(x: f64) -> f64 {
    if x < 2.0 {
        // erf(x) = 2/√π Σ (-1)^n x^{2n+1} / (n! (2n+1))
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        for n in 1..200 {
            term *= -x2 / n as f64;
            let add = term / (2 * n + 1) as f64;
            sum += add;
            if add.abs() < 1e-17 * sum.abs() {
                break;
            }
        }
        1.0 - 2.0 / std::f64::consts::PI.sqrt() * sum
    } else {
        // Continued fraction: erfc(x) = e^{-x²}/(x√π) · 1/(1+ 1/(2x²)/(1+ 2/(2x²)/(1+ ...)))
        let x2 = x * x;
        let mut f = 0.0;
        for k in (1..60).rev() {
            f = 0.5 * k as f64 / x2 / (1.0 + f);
        }
        (-x2).exp() / (x * std::f64::consts::PI.sqrt() * (1.0 + f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((i + 1) as f64);
            assert!((lg - f64::ln(f)).abs() < 1e-11, "Γ({}) → {lg}", i + 1);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-11);
        // Γ(3/2) = √π/2.
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-11);
    }

    #[test]
    fn ln_factorial_agrees_with_gamma() {
        for n in [0u64, 1, 2, 10, 100, 255, 256, 1000, 50_000] {
            let a = ln_factorial(n);
            let b = ln_gamma(n as f64 + 1.0);
            assert!(
                (a - b).abs() < 1e-8 * a.abs().max(1.0),
                "n = {n}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn poisson_pmf_small_lambda() {
        // Direct evaluation is safe for λ = 2.
        let lambda = 2.0f64;
        let mut direct = (-lambda).exp();
        assert!((poisson_pmf(lambda, 0) - direct).abs() < 1e-15);
        for n in 1..20u64 {
            direct *= lambda / n as f64;
            assert!((poisson_pmf(lambda, n) - direct).abs() < 1e-14, "n = {n}");
        }
    }

    #[test]
    fn poisson_pmf_huge_lambda_stable() {
        // λ = 40 000 (the paper's uniformisation regime): mode probability
        // ≈ 1/√(2πλ), must not under/overflow.
        let lambda = 40_000.0;
        let mode = poisson_pmf(lambda, 40_000);
        let expected = 1.0 / (2.0 * std::f64::consts::PI * lambda).sqrt();
        assert!((mode - expected).abs() / expected < 1e-3);
        // Far tails underflow to zero gracefully.
        assert_eq!(poisson_pmf(lambda, 0), 0.0);
    }

    #[test]
    fn poisson_zero_lambda() {
        assert_eq!(poisson_pmf(0.0, 0), 1.0);
        assert_eq!(poisson_pmf(0.0, 3), 0.0);
    }

    #[test]
    fn poisson_mass_sums_to_one() {
        for &lambda in &[0.5f64, 5.0, 50.0, 500.0] {
            let hi = (lambda + 20.0 * lambda.sqrt() + 20.0) as u64;
            let total: f64 = (0..hi).map(|n| poisson_pmf(lambda, n)).sum();
            assert!((total - 1.0).abs() < 1e-10, "λ = {lambda}: {total}");
        }
    }

    #[test]
    fn erf_reference_values() {
        // Known values (Abramowitz & Stegun tables).
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
        ];
        for (x, e) in cases {
            assert!((erf(x) - e).abs() < 1e-9, "erf({x}) = {} vs {e}", erf(x));
            assert!((erf(-x) + e).abs() < 1e-9);
        }
    }

    proptest! {
        #[test]
        fn ln_gamma_recurrence(x in 0.1f64..50.0) {
            // Γ(x+1) = x Γ(x).
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
        }

        #[test]
        fn poisson_recurrence(lambda in 0.1f64..1000.0, n in 0u64..2000) {
            // p(n+1) = p(n) · λ/(n+1) in log space.
            let lhs = poisson_ln_pmf(lambda, n + 1);
            let rhs = poisson_ln_pmf(lambda, n) + lambda.ln() - ((n + 1) as f64).ln();
            prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
        }

        #[test]
        fn erf_is_odd_and_bounded(x in -6.0f64..6.0) {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
            prop_assert!(erf(x) <= 1.0 && erf(x) >= -1.0);
        }
    }
}
