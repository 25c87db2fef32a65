//! Explicit ODE solvers for small systems.
//!
//! The KiBaM differential equations (paper eq. (1)) have a closed-form
//! solution for constant current, but the *modified* KiBaM of Rao et al.
//! does not — its recovery term depends nonlinearly on the bound-charge
//! height. These integrators serve both to evaluate the modified model and
//! to cross-validate the closed form.
//!
//! Two schemes are provided: fixed-step classical Runge–Kutta [`rk4`], and
//! the adaptive Runge–Kutta–Fehlberg 4(5) pair [`rkf45`] with PI step
//! control.

use std::fmt;

/// Right-hand side of an autonomous-in-form ODE `y' = f(t, y)`.
///
/// Implementors write the derivative of `y` at `(t, y)` into `dydt`
/// (an out-buffer is used so the hot integration loop allocates nothing).
pub trait OdeSystem {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Evaluates `dydt = f(t, y)`.
    fn deriv(&self, t: f64, y: &[f64], dydt: &mut [f64]);
}

/// Blanket implementation so closures `(t, y, dydt)` can be used directly,
/// with the dimension supplied by [`FnSystem`].
pub struct FnSystem<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &mut [f64])> FnSystem<F> {
    /// Wraps a closure as an [`OdeSystem`] of dimension `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        FnSystem { dim, f }
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeSystem for FnSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn deriv(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (self.f)(t, y, dydt)
    }
}

/// Errors reported by the ODE drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum OdeError {
    /// Inconsistent dimensions or a non-positive step/span.
    BadInput(String),
    /// The adaptive driver shrank the step below `min_step` without meeting
    /// the tolerance.
    StepUnderflow {
        /// Time at which the underflow occurred.
        t: f64,
    },
}

impl fmt::Display for OdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdeError::BadInput(msg) => write!(f, "bad ODE input: {msg}"),
            OdeError::StepUnderflow { t } => {
                write!(f, "adaptive step underflow at t = {t}")
            }
        }
    }
}

impl std::error::Error for OdeError {}

/// A dense sequence of `(t, y)` samples produced by an integrator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// Sample times, strictly increasing.
    pub times: Vec<f64>,
    /// State at each sample time (same length as `times`).
    pub states: Vec<Vec<f64>>,
}

impl Trajectory {
    /// The final `(t, y)` pair.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty (drivers never return empty ones).
    pub fn last(&self) -> (f64, &[f64]) {
        (
            *self.times.last().expect("nonempty trajectory"),
            self.states.last().unwrap(),
        )
    }
}

fn check_input(
    system: &impl OdeSystem,
    y0: &[f64],
    t0: f64,
    t1: f64,
    step_like: f64,
) -> Result<(), OdeError> {
    if y0.len() != system.dim() {
        return Err(OdeError::BadInput(format!(
            "state length {} != system dim {}",
            y0.len(),
            system.dim()
        )));
    }
    if !(t1 > t0) {
        return Err(OdeError::BadInput(format!(
            "need t1 > t0, got [{t0}, {t1}]"
        )));
    }
    if !(step_like > 0.0) {
        return Err(OdeError::BadInput(format!(
            "step must be positive, got {step_like}"
        )));
    }
    Ok(())
}

/// Classical fourth-order Runge–Kutta with fixed step `h`.
///
/// # Errors
///
/// [`OdeError::BadInput`] on dimension mismatch or non-positive `h`/span.
pub fn rk4(
    system: &impl OdeSystem,
    y0: &[f64],
    t0: f64,
    t1: f64,
    h: f64,
) -> Result<Trajectory, OdeError> {
    check_input(system, y0, t0, t1, h)?;
    let dim = system.dim();
    let mut y = y0.to_vec();
    let (mut k1, mut k2, mut k3, mut k4) = (
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
    );
    let mut tmp = vec![0.0; dim];
    let mut t = t0;
    let mut traj = Trajectory {
        times: vec![t0],
        states: vec![y.clone()],
    };
    while t < t1 {
        let step = h.min(t1 - t);
        system.deriv(t, &y, &mut k1);
        for i in 0..dim {
            tmp[i] = y[i] + 0.5 * step * k1[i];
        }
        system.deriv(t + 0.5 * step, &tmp, &mut k2);
        for i in 0..dim {
            tmp[i] = y[i] + 0.5 * step * k2[i];
        }
        system.deriv(t + 0.5 * step, &tmp, &mut k3);
        for i in 0..dim {
            tmp[i] = y[i] + step * k3[i];
        }
        system.deriv(t + step, &tmp, &mut k4);
        for i in 0..dim {
            y[i] += step / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += step;
        traj.times.push(t);
        traj.states.push(y.clone());
    }
    Ok(traj)
}

/// Options for the adaptive [`rkf45`] driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative error tolerance per step.
    pub rtol: f64,
    /// Absolute error tolerance per step.
    pub atol: f64,
    /// Initial step size.
    pub h0: f64,
    /// Smallest permitted step before [`OdeError::StepUnderflow`].
    pub min_step: f64,
    /// Largest permitted step.
    pub max_step: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            rtol: 1e-8,
            atol: 1e-10,
            h0: 1e-3,
            min_step: 1e-12,
            max_step: f64::MAX,
        }
    }
}

/// Runge–Kutta–Fehlberg 4(5) adaptive integration from `t0` to `t1`.
///
/// The step is accepted when the embedded 4th/5th-order error estimate is
/// below `atol + rtol·|y|` component-wise, and the step size follows the
/// standard 0.2-exponent controller with a safety factor of 0.9.
///
/// # Errors
///
/// [`OdeError::BadInput`] on malformed input, [`OdeError::StepUnderflow`]
/// when the controller cannot meet the tolerance above `min_step`.
pub fn rkf45(
    system: &impl OdeSystem,
    y0: &[f64],
    t0: f64,
    t1: f64,
    opts: &AdaptiveOptions,
) -> Result<Trajectory, OdeError> {
    check_input(system, y0, t0, t1, opts.h0)?;
    const A: [[f64; 5]; 5] = [
        [1.0 / 4.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
        [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
        [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
        [
            -8.0 / 27.0,
            2.0,
            -3544.0 / 2565.0,
            1859.0 / 4104.0,
            -11.0 / 40.0,
        ],
    ];
    const C: [f64; 6] = [0.0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0];
    // 5th-order weights (solution) and 4th-order weights (error estimate).
    const B5: [f64; 6] = [
        16.0 / 135.0,
        0.0,
        6656.0 / 12825.0,
        28561.0 / 56430.0,
        -9.0 / 50.0,
        2.0 / 55.0,
    ];
    const B4: [f64; 6] = [
        25.0 / 216.0,
        0.0,
        1408.0 / 2565.0,
        2197.0 / 4104.0,
        -1.0 / 5.0,
        0.0,
    ];

    let dim = system.dim();
    let mut y = y0.to_vec();
    let mut t = t0;
    let mut h = opts.h0.min(t1 - t0);
    let mut k = vec![vec![0.0; dim]; 6];
    let mut tmp = vec![0.0; dim];
    let mut traj = Trajectory {
        times: vec![t0],
        states: vec![y.clone()],
    };

    while t < t1 {
        let remaining = t1 - t;
        // Floating-point accumulation can leave a sliver smaller than any
        // permissible step; snap to the endpoint instead of underflowing.
        let snap = opts.min_step.max(4.0 * f64::EPSILON * t1.abs().max(1.0));
        if remaining <= snap {
            if let Some(last) = traj.times.last_mut() {
                *last = t1;
            }
            break;
        }
        h = h.min(remaining).min(opts.max_step);
        if h < opts.min_step {
            return Err(OdeError::StepUnderflow { t });
        }
        // Evaluate the six stages.
        system.deriv(t, &y, &mut k[0]);
        for stage in 1..6 {
            for i in 0..dim {
                let mut acc = 0.0;
                for (j, kj) in k.iter().enumerate().take(stage) {
                    acc += A[stage - 1][j] * kj[i];
                }
                tmp[i] = y[i] + h * acc;
            }
            let ti = t + C[stage] * h;
            let (head, tail) = k.split_at_mut(stage);
            let _ = head;
            system.deriv(ti, &tmp, &mut tail[0]);
        }
        // Error estimate and tentative 5th-order solution.
        let mut err_ratio: f64 = 0.0;
        for i in 0..dim {
            let mut y5 = y[i];
            let mut y4 = y[i];
            for (j, kj) in k.iter().enumerate() {
                y5 += h * B5[j] * kj[i];
                y4 += h * B4[j] * kj[i];
            }
            let scale = opts.atol + opts.rtol * y[i].abs().max(y5.abs());
            err_ratio = err_ratio.max(((y5 - y4) / scale).abs());
            tmp[i] = y5;
        }
        if err_ratio <= 1.0 {
            // Accept.
            y.copy_from_slice(&tmp);
            t += h;
            traj.times.push(t);
            traj.states.push(y.clone());
        }
        // Standard step controller (applies to both accept and reject).
        let factor = if err_ratio > 0.0 {
            0.9 * err_ratio.powf(-0.2)
        } else {
            5.0
        };
        h *= factor.clamp(0.2, 5.0);
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// y' = -y, y(0) = 1 → y(t) = e^{-t}.
    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y, d| d[0] = -y[0])
    }

    /// Harmonic oscillator: y'' = -y as a 2-d system.
    fn oscillator() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        })
    }

    #[test]
    fn rk4_matches_exponential() {
        let sys = decay();
        let traj = rk4(&sys, &[1.0], 0.0, 2.0, 0.01).unwrap();
        assert!((traj.last().1[0] - (-2.0f64).exp()).abs() < 1e-9);
        // Every sample should match the closed form.
        for (t, y) in traj.times.iter().zip(&traj.states) {
            assert!((y[0] - (-t).exp()).abs() < 1e-8);
        }
    }

    #[test]
    fn rk4_oscillator_conserves_energy() {
        let sys = oscillator();
        let traj = rk4(&sys, &[1.0, 0.0], 0.0, 10.0, 0.005).unwrap();
        let (_, y) = traj.last();
        let energy = y[0] * y[0] + y[1] * y[1];
        assert!((energy - 1.0).abs() < 1e-8);
        assert!((y[0] - 10.0f64.cos()).abs() < 1e-6);
    }

    #[test]
    fn rkf45_adapts_and_matches() {
        let sys = oscillator();
        let opts = AdaptiveOptions {
            rtol: 1e-10,
            atol: 1e-12,
            ..Default::default()
        };
        let traj = rkf45(&sys, &[1.0, 0.0], 0.0, 10.0, &opts).unwrap();
        let (t, y) = traj.last();
        assert!((t - 10.0).abs() < 1e-12);
        assert!((y[0] - 10.0f64.cos()).abs() < 1e-7);
        // Adaptive solver should need far fewer steps than h=0.005 fixed.
        assert!(traj.times.len() < 2001);
    }

    #[test]
    fn rkf45_lands_exactly_on_t1() {
        let sys = decay();
        let traj = rkf45(&sys, &[1.0], 0.0, 0.37, &AdaptiveOptions::default()).unwrap();
        assert!((traj.last().0 - 0.37).abs() < 1e-12);
    }

    #[test]
    fn bad_inputs_rejected() {
        let sys = decay();
        assert!(matches!(
            rk4(&sys, &[1.0, 2.0], 0.0, 1.0, 0.1),
            Err(OdeError::BadInput(_))
        ));
        assert!(matches!(
            rk4(&sys, &[1.0], 1.0, 0.0, 0.1),
            Err(OdeError::BadInput(_))
        ));
        assert!(matches!(
            rk4(&sys, &[1.0], 0.0, 1.0, 0.0),
            Err(OdeError::BadInput(_))
        ));
        let opts = AdaptiveOptions {
            h0: -1.0,
            ..Default::default()
        };
        assert!(rkf45(&sys, &[1.0], 0.0, 1.0, &opts).is_err());
    }

    #[test]
    fn error_display() {
        assert!(OdeError::BadInput("x".into())
            .to_string()
            .contains("bad ODE input"));
        assert!(OdeError::StepUnderflow { t: 1.0 }
            .to_string()
            .contains("underflow"));
    }

    #[test]
    fn trajectory_last_returns_final_sample() {
        let traj = Trajectory {
            times: vec![0.0, 1.0],
            states: vec![vec![1.0], vec![2.0]],
        };
        let (t, y) = traj.last();
        assert_eq!(t, 1.0);
        assert_eq!(y, &[2.0]);
    }

    proptest! {
        #[test]
        fn rk4_and_rkf45_agree_on_linear_systems(a in 0.05f64..2.0, t1 in 0.1f64..3.0) {
            let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = -a * y[0]);
            let r1 = rk4(&sys, &[1.0], 0.0, t1, 1e-3).unwrap();
            let r2 = rkf45(&sys, &[1.0], 0.0, t1, &AdaptiveOptions::default()).unwrap();
            let exact = (-a * t1).exp();
            prop_assert!((r1.last().1[0] - exact).abs() < 1e-7);
            prop_assert!((r2.last().1[0] - exact).abs() < 1e-6);
        }
    }
}
