//! Bracketing root finders.
//!
//! Battery depletion times are zeros of smooth scalar functions (the
//! available charge `y1(t)` within a constant-current segment), so a
//! bracketing method with guaranteed convergence is the right tool.

use std::fmt;

/// Errors from the root finders.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign, so `[a, b]` is not a bracket.
    NoBracket {
        /// Function value at the left endpoint.
        fa: f64,
        /// Function value at the right endpoint.
        fb: f64,
    },
    /// The iteration limit was reached before the tolerance was met.
    MaxIterations,
    /// The interval is malformed (`a >= b`) or a function value is NaN.
    BadInput(String),
}

impl fmt::Display for RootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RootError::NoBracket { fa, fb } => {
                write!(f, "no sign change over bracket: f(a) = {fa}, f(b) = {fb}")
            }
            RootError::MaxIterations => write!(f, "root finder hit the iteration limit"),
            RootError::BadInput(msg) => write!(f, "bad root-finder input: {msg}"),
        }
    }
}

impl std::error::Error for RootError {}

fn validate(a: f64, b: f64, fa: f64, fb: f64) -> Result<(), RootError> {
    if !(a < b) {
        return Err(RootError::BadInput(format!("need a < b, got [{a}, {b}]")));
    }
    if fa.is_nan() || fb.is_nan() {
        return Err(RootError::BadInput("NaN function value at bracket".into()));
    }
    if fa * fb > 0.0 {
        return Err(RootError::NoBracket { fa, fb });
    }
    Ok(())
}

/// Bisection on `[a, b]`, returning a root of `f` to absolute tolerance
/// `tol` in at most `max_iter` halvings.
///
/// # Errors
///
/// [`RootError::NoBracket`] when `f(a)·f(b) > 0`; [`RootError::BadInput`]
/// for malformed intervals; [`RootError::MaxIterations`] when `tol` is not
/// reached in `max_iter` steps.
pub fn bisect(
    f: impl Fn(f64) -> f64,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    let mut fa = f(a);
    let fb = f(b);
    validate(a, b, fa, fb)?;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (a + b);
        if b - a < tol {
            return Ok(mid);
        }
        let fm = f(mid);
        if fm == 0.0 {
            return Ok(mid);
        }
        if fa * fm < 0.0 {
            b = mid;
        } else {
            a = mid;
            fa = fm;
        }
    }
    Err(RootError::MaxIterations)
}

/// Brent's method on `[a, b]`: inverse quadratic interpolation guarded by
/// bisection. Converges superlinearly on smooth functions while never
/// leaving the bracket.
///
/// This is the Brent–Dekker scheme from *Algorithms for Minimization
/// without Derivatives* (1973), ch. 4.
///
/// # Errors
///
/// Same conditions as [`bisect`].
pub fn brent(
    f: impl Fn(f64) -> f64,
    a0: f64,
    b0: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    let (mut a, mut b) = (a0, b0);
    let (mut fa, mut fb) = (f(a), f(b));
    validate(a, b, fa, fb)?;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    // Ensure b is the best estimate (smallest |f|).
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let within = (lo.min(b)..=lo.max(b)).contains(&s);
        let cond_bisect = !within
            || (mflag && (s - b).abs() >= (b - c).abs() / 2.0)
            || (!mflag && (s - b).abs() >= d.abs() / 2.0)
            || (mflag && (b - c).abs() < tol)
            || (!mflag && d.abs() < tol);
        if cond_bisect {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        if fs.is_nan() {
            return Err(RootError::BadInput(format!("NaN at x = {s}")));
        }
        d = b - c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::MaxIterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 100).unwrap();
        assert!((r - 2f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn brent_sqrt2_faster_than_bisection() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-14, 100).unwrap();
        assert!((r - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn brent_transcendental() {
        // x e^x = 1 → x = W(1) ≈ 0.567143290409783...
        let r = brent(|x| x * x.exp() - 1.0, 0.0, 1.0, 1e-14, 100).unwrap();
        assert!((r - 0.5671432904097838).abs() < 1e-10);
    }

    #[test]
    fn exact_roots_at_endpoints() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12, 10).unwrap(), 1.0);
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-12, 10).unwrap(), 1.0);
    }

    #[test]
    fn no_bracket_detected() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(RootError::NoBracket { .. })
        ));
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(RootError::NoBracket { .. })
        ));
    }

    #[test]
    fn bad_interval_detected() {
        assert!(matches!(
            bisect(|x| x, 1.0, 0.0, 1e-12, 100),
            Err(RootError::BadInput(_))
        ));
        assert!(matches!(
            brent(|x| x, 1.0, 1.0, 1e-12, 100),
            Err(RootError::BadInput(_))
        ));
    }

    #[test]
    fn iteration_limit_reported() {
        assert_eq!(
            bisect(|x| x - 0.3, 0.0, 1.0, 1e-15, 3),
            Err(RootError::MaxIterations)
        );
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            RootError::NoBracket { fa: 1.0, fb: 2.0 },
            RootError::MaxIterations,
            RootError::BadInput("x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    proptest! {
        #[test]
        fn brent_finds_planted_cubic_root(root in -5.0f64..5.0, scale in 0.1f64..3.0) {
            let f = move |x: f64| scale * (x - root) * ((x - root).powi(2) + 1.0);
            let r = brent(f, root - 7.0, root + 9.0, 1e-12, 200).unwrap();
            prop_assert!((r - root).abs() < 1e-8);
        }

        #[test]
        fn bisect_and_brent_agree(root in -1.0f64..1.0) {
            let f = move |x: f64| (x - root).tanh();
            let r1 = bisect(f, -2.0, 2.0, 1e-12, 200).unwrap();
            let r2 = brent(f, -2.0, 2.0, 1e-12, 200).unwrap();
            prop_assert!((r1 - r2).abs() < 1e-9);
        }
    }
}
