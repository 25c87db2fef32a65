//! The solver result type: a sampled battery-lifetime distribution with
//! first-class operations.
//!
//! Every backend of [`crate::solver`] returns a [`LifetimeDistribution`]:
//! the curve `t ↦ Pr[battery empty at t]` sampled on the scenario's query
//! grid, tagged with the method that produced it and its cost
//! diagnostics. The operations on a curve are methods here:
//! [`cdf`](LifetimeDistribution::cdf),
//! [`quantile`](LifetimeDistribution::quantile),
//! [`mean`](LifetimeDistribution::mean) and
//! [`max_difference`](LifetimeDistribution::max_difference).

use crate::KibamRmError;
use std::sync::Arc;
use units::{Charge, Time};

/// What a solve cost: filled in by each backend as applicable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveDiagnostics {
    /// States of the derived CTMC (discretisation only).
    pub states: Option<usize>,
    /// Non-zero generator entries (discretisation only).
    pub generator_nonzeros: Option<usize>,
    /// Matrix–vector products / uniformisation iterations.
    pub iterations: Option<usize>,
    /// The discretisation step that was used.
    pub delta: Option<Charge>,
    /// Simulation replications (simulation only).
    pub runs: Option<usize>,
    /// Largest 95% Wilson-score half-width over the query grid
    /// (simulation only). Each Wilson interval covers its own time point
    /// only, so this is a *pointwise* error bar, not a sup-norm bound on
    /// the curve; degraded service answers serve the DKW band over
    /// [`runs`](Self::runs) instead.
    pub half_width: Option<f64>,
    /// Wall-clock seconds spent inside the solver.
    pub wall_seconds: f64,
}

/// A battery-lifetime distribution `t ↦ Pr[battery empty at t]` sampled
/// on a strictly increasing time grid.
///
/// The sampled curve is stored behind an [`Arc`], so `Clone` is O(1) and
/// never copies the grid — a cache hit in
/// [`crate::service::LifetimeService`] hands out a shared view of the
/// solved curve, not a deep copy. Equality still compares the sampled
/// values, not the allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeDistribution {
    method: &'static str,
    points: Arc<[(Time, f64)]>,
    diagnostics: SolveDiagnostics,
}

impl LifetimeDistribution {
    /// Builds a distribution from raw samples. Probabilities are clamped
    /// into `[0, 1]` (uniformisation and Sericola can stray by ~10⁻¹²).
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidDiscretisation`] when the grid is empty or
    /// not strictly increasing, or a probability is non-finite or
    /// farther than 10⁻⁶ outside `[0, 1]`.
    pub fn new(
        method: &'static str,
        points: Vec<(Time, f64)>,
        diagnostics: SolveDiagnostics,
    ) -> Result<Self, KibamRmError> {
        if points.is_empty() {
            return Err(KibamRmError::InvalidDiscretisation(
                "a lifetime distribution needs at least one sample".into(),
            ));
        }
        for w in points.windows(2) {
            if !(w[1].0 > w[0].0) {
                return Err(KibamRmError::InvalidDiscretisation(format!(
                    "samples must be strictly increasing in t ({} then {})",
                    w[0].0, w[1].0
                )));
            }
        }
        let mut clamped = points;
        for (t, p) in &mut clamped {
            if !p.is_finite() || *p < -1e-6 || *p > 1.0 + 1e-6 {
                return Err(KibamRmError::InvalidDiscretisation(format!(
                    "Pr[empty at {t}] = {p} is not a probability"
                )));
            }
            *p = p.clamp(0.0, 1.0);
        }
        Ok(LifetimeDistribution {
            method,
            points: clamped.into(),
            diagnostics,
        })
    }

    /// Approximate resident size of this distribution in bytes: the
    /// shared curve storage plus the handle itself. This is what the
    /// [`crate::service::LifetimeService`] LRU budget charges per cached
    /// entry; cheap clones share the same curve allocation, so the
    /// service charges it once per cache slot, not once per handle.
    pub fn size_in_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val::<[(Time, f64)]>(&self.points)
    }

    /// The backend that produced this distribution.
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// Cost diagnostics.
    pub fn diagnostics(&self) -> &SolveDiagnostics {
        &self.diagnostics
    }

    /// The sampled `(t, Pr[empty at t])` points.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// The samples as `(t_seconds, p)` pairs (the CSV/report shape).
    pub fn points_seconds(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|(t, p)| (t.as_seconds(), *p))
            .collect()
    }

    /// The query grid.
    pub fn times(&self) -> impl Iterator<Item = Time> + '_ {
        self.points.iter().map(|(t, _)| *t)
    }

    /// `Pr[battery empty at t]`, linearly interpolated between samples
    /// and clamped to the first/last sample outside the grid.
    pub fn cdf(&self, t: Time) -> f64 {
        let s = t.as_seconds();
        let first = self.points.first().expect("validated non-empty");
        let last = self.points.last().expect("validated non-empty");
        if s <= first.0.as_seconds() {
            return first.1;
        }
        if s >= last.0.as_seconds() {
            return last.1;
        }
        let idx = self.points.partition_point(|(pt, _)| pt.as_seconds() <= s);
        let (t0, p0) = self.points[idx - 1];
        let (t1, p1) = self.points[idx];
        let (t0, t1) = (t0.as_seconds(), t1.as_seconds());
        p0 + (p1 - p0) * (s - t0) / (t1 - t0)
    }

    /// The first grid-interpolated time with `Pr[empty] ≥ q`, or `None`
    /// when the curve never reaches `q` on the grid.
    pub fn quantile(&self, q: f64) -> Option<Time> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let (mut prev_t, mut prev_p) = self.points[0];
        if prev_p >= q {
            return Some(prev_t);
        }
        for &(t, p) in &self.points[1..] {
            if p >= q {
                // Linear inverse interpolation inside the bracket
                // (p > prev_p here: every earlier point had prev_p < q).
                let f = (q - prev_p) / (p - prev_p);
                let s = prev_t.as_seconds() + f * (t.as_seconds() - prev_t.as_seconds());
                return Some(Time::from_seconds(s));
            }
            prev_t = t;
            prev_p = p;
        }
        None
    }

    /// The median lifetime (the 50 % crossing), when reached.
    pub fn median(&self) -> Option<Time> {
        self.quantile(0.5)
    }

    /// Mean lifetime by integrating the survival function,
    /// `E[L] = ∫₀^∞ (1 − F(t)) dt`, truncated at the last grid point —
    /// a lower bound when the curve has not reached 1.
    pub fn mean(&self) -> Time {
        let mut acc = 0.0;
        // The curve implicitly starts at (0, F(t₀)): charge for the
        // leading segment if the grid does not start at zero.
        let first = self.points[0];
        if first.0.as_seconds() > 0.0 {
            acc += (1.0 - first.1).max(0.0) * first.0.as_seconds();
        }
        for w in self.points.windows(2) {
            let dt = w[1].0.as_seconds() - w[0].0.as_seconds();
            let survival = 1.0 - 0.5 * (w[0].1 + w[1].1);
            acc += survival.max(0.0) * dt;
        }
        Time::from_seconds(acc)
    }

    /// The largest pointwise difference against another distribution on
    /// the **same** grid (the paper's Δ-refinement and cross-validation
    /// metric).
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidDiscretisation`] when the grids differ.
    pub fn max_difference(&self, other: &LifetimeDistribution) -> Result<f64, KibamRmError> {
        if self.points.len() != other.points.len()
            || self
                .points
                .iter()
                .zip(other.points.iter())
                .any(|((a, _), (b, _))| (a.as_seconds() - b.as_seconds()).abs() > 1e-9)
        {
            return Err(KibamRmError::InvalidDiscretisation(
                "distributions must share the same time grid".into(),
            ));
        }
        Ok(self
            .points
            .iter()
            .zip(other.points.iter())
            .map(|((_, a), (_, b))| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// Renders the distribution as a labelled report curve (x = seconds).
    pub fn to_curve(&self, label: impl Into<String>) -> crate::report::Curve {
        crate::report::Curve::new(label, self.points_seconds())
    }

    /// Renders the distribution with the x-axis in hours (the unit most
    /// of the paper's figures use).
    pub fn to_curve_hours(&self, label: impl Into<String>) -> crate::report::Curve {
        crate::report::Curve::new(
            label,
            self.points
                .iter()
                .map(|(t, p)| (t.as_hours(), *p))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(points: &[(f64, f64)]) -> LifetimeDistribution {
        LifetimeDistribution::new(
            "test",
            points
                .iter()
                .map(|&(t, p)| (Time::from_seconds(t), p))
                .collect(),
            SolveDiagnostics::default(),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(LifetimeDistribution::new("m", vec![], SolveDiagnostics::default()).is_err());
        // Non-increasing grid.
        assert!(LifetimeDistribution::new(
            "m",
            vec![
                (Time::from_seconds(1.0), 0.0),
                (Time::from_seconds(1.0), 0.5)
            ],
            SolveDiagnostics::default()
        )
        .is_err());
        // Out-of-range probability.
        assert!(LifetimeDistribution::new(
            "m",
            vec![(Time::from_seconds(1.0), 1.5)],
            SolveDiagnostics::default()
        )
        .is_err());
        assert!(LifetimeDistribution::new(
            "m",
            vec![(Time::from_seconds(1.0), f64::NAN)],
            SolveDiagnostics::default()
        )
        .is_err());
        // Tiny numerical overshoot is clamped, not rejected.
        let d = LifetimeDistribution::new(
            "m",
            vec![(Time::from_seconds(1.0), 1.0 + 1e-9)],
            SolveDiagnostics::default(),
        )
        .unwrap();
        assert_eq!(d.points()[0].1, 1.0);
    }

    #[test]
    fn cdf_interpolates_and_clamps() {
        let d = dist(&[(10.0, 0.0), (20.0, 0.5), (30.0, 1.0)]);
        assert_eq!(d.cdf(Time::from_seconds(0.0)), 0.0);
        assert_eq!(d.cdf(Time::from_seconds(10.0)), 0.0);
        assert!((d.cdf(Time::from_seconds(15.0)) - 0.25).abs() < 1e-12);
        assert!((d.cdf(Time::from_seconds(20.0)) - 0.5).abs() < 1e-12);
        assert!((d.cdf(Time::from_seconds(25.0)) - 0.75).abs() < 1e-12);
        assert_eq!(d.cdf(Time::from_seconds(99.0)), 1.0);
    }

    #[test]
    fn quantiles_invert_the_cdf() {
        let d = dist(&[(10.0, 0.0), (20.0, 0.5), (30.0, 1.0)]);
        assert!((d.quantile(0.25).unwrap().as_seconds() - 15.0).abs() < 1e-9);
        assert!((d.median().unwrap().as_seconds() - 20.0).abs() < 1e-9);
        assert!((d.quantile(1.0).unwrap().as_seconds() - 30.0).abs() < 1e-9);
        assert_eq!(d.quantile(0.0).unwrap(), Time::from_seconds(10.0));
        assert_eq!(d.quantile(1.5), None);
        let partial = dist(&[(10.0, 0.0), (20.0, 0.3)]);
        assert_eq!(partial.quantile(0.9), None);
    }

    #[test]
    fn quantile_handles_flat_segments() {
        let d = dist(&[(0.0, 0.0), (10.0, 0.5), (20.0, 0.5), (30.0, 1.0)]);
        let m = d.median().unwrap().as_seconds();
        assert!((10.0..=20.0).contains(&m), "median {m}");
    }

    #[test]
    fn mean_of_exponential_cdf() {
        // F(t) = 1 − e^{-t}: E[L] = 1.
        let points: Vec<(f64, f64)> = (0..=4000)
            .map(|i| (i as f64 * 0.005, 1.0 - (-(i as f64) * 0.005).exp()))
            .collect();
        let d = dist(&points);
        assert!((d.mean().as_seconds() - 1.0).abs() < 2e-3);
    }

    #[test]
    fn mean_accounts_for_grid_not_starting_at_zero() {
        // Step CDF that is 0 until t = 100 then jumps to 1: mean 100,
        // even when the first sample sits at t = 50.
        let d = dist(&[(50.0, 0.0), (100.0, 0.0), (100.0 + 1e-9, 1.0)]);
        assert!((d.mean().as_seconds() - 100.0).abs() < 1e-3);
    }

    #[test]
    fn max_difference_requires_shared_grid() {
        let a = dist(&[(0.0, 0.1), (1.0, 0.5)]);
        let b = dist(&[(0.0, 0.2), (1.0, 0.4)]);
        assert!((a.max_difference(&b).unwrap() - 0.1).abs() < 1e-12);
        let c = dist(&[(0.0, 0.1)]);
        assert!(a.max_difference(&c).is_err());
        let d = dist(&[(0.0, 0.1), (2.0, 0.5)]);
        assert!(a.max_difference(&d).is_err());
    }

    #[test]
    fn clones_share_curve_storage_and_size_counts_it_once() {
        let d = dist(&[(10.0, 0.0), (20.0, 0.5), (30.0, 1.0)]);
        let c = d.clone();
        // A clone is a shared view of the same allocation, not a copy —
        // the cache-hit contract of the resident service.
        assert!(std::ptr::eq(d.points().as_ptr(), c.points().as_ptr()));
        assert_eq!(d, c);
        // The size accessor charges the handle plus the curve samples.
        let expected =
            std::mem::size_of::<LifetimeDistribution>() + 3 * std::mem::size_of::<(Time, f64)>();
        assert_eq!(d.size_in_bytes(), expected);
        assert_eq!(c.size_in_bytes(), expected);
    }

    #[test]
    fn report_bridges() {
        let d = dist(&[(3600.0, 0.25), (7200.0, 0.75)]);
        let c = d.to_curve("p");
        assert_eq!(c.label, "p");
        assert_eq!(c.points, vec![(3600.0, 0.25), (7200.0, 0.75)]);
        let h = d.to_curve_hours("p");
        assert_eq!(h.points, vec![(1.0, 0.25), (2.0, 0.75)]);
        assert_eq!(d.points_seconds(), vec![(3600.0, 0.25), (7200.0, 0.75)]);
        assert_eq!(d.method(), "test");
        assert_eq!(d.times().count(), 2);
    }
}
