//! The KiBaMRM: a workload coupled to a KiBaM battery.
//!
//! Paper §4.2: the CTMC states are the device's operating modes; two
//! accumulated rewards track the available-charge well `Y₁(t)` and the
//! bound-charge well `Y₂(t)`, with reward rates
//!
//! ```text
//! r_{i,1}(y₁, y₂) = −I_i + k(h₂ − h₁)   (h₂ > h₁ > 0, else 0)
//! r_{i,2}(y₁, y₂) =      −k(h₂ − h₁)   (h₂ > h₁ > 0, else 0)
//! ```
//!
//! The battery is empty when `Y₁(t) = 0`; the lifetime is the first such
//! instant. This type holds the coupled model and hands it to the three
//! analysis backends (discretisation, simulation, exact `c = 1`).

use crate::workload::Workload;
use crate::KibamRmError;
use battery::kibam::Kibam;
use units::{Charge, Rate};

/// A KiBaM Markov reward model.
#[derive(Debug, Clone, PartialEq)]
pub struct KibamRm {
    workload: Workload,
    battery: Kibam,
}

impl KibamRm {
    /// Couples `workload` to a KiBaM battery with capacity `C`, available
    /// fraction `c` and flow constant `k`.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidBattery`] when the battery parameters are
    /// out of range.
    pub fn new(
        workload: Workload,
        capacity: Charge,
        c: f64,
        k: Rate,
    ) -> Result<Self, KibamRmError> {
        let battery =
            Kibam::new(capacity, c, k).map_err(|e| KibamRmError::InvalidBattery(e.to_string()))?;
        Ok(KibamRm { workload, battery })
    }

    /// The workload half.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The battery half.
    pub fn battery(&self) -> &Kibam {
        &self.battery
    }

    /// Battery capacity `C`.
    pub fn capacity(&self) -> Charge {
        self.battery.capacity()
    }

    /// Available-charge fraction `c`.
    pub fn c(&self) -> f64 {
        self.battery.c()
    }

    /// Well flow constant `k`.
    pub fn k(&self) -> Rate {
        self.battery.k()
    }

    /// `true` when the model degenerates to a single well (`c = 1`), in
    /// which case [`crate::analysis::exact_linear_curve`] applies.
    pub fn is_linear(&self) -> bool {
        self.battery.c() >= 1.0
    }

    /// An exactly time-compressed copy of the model: every workload rate
    /// and the flow constant `k` are multiplied by `factor` while the
    /// capacity is divided by it (currents unchanged). The KiBaM dynamics
    /// are invariant under this rescaling, so
    ///
    /// ```text
    /// Pr[compressed battery empty at t] = Pr[original empty at factor·t]
    /// ```
    ///
    /// **exactly** — useful to study slow workloads at a fraction of the
    /// numerical cost (uniformisation iterations scale with `νt`, and
    /// Sericola's algorithm with `(νt)²`).
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidBattery`] for a non-positive/non-finite
    /// factor, or propagated construction errors.
    pub fn time_compressed(&self, factor: f64) -> Result<KibamRm, KibamRmError> {
        if !(factor > 0.0) || !factor.is_finite() {
            return Err(KibamRmError::InvalidBattery(format!(
                "compression factor must be positive and finite, got {factor}"
            )));
        }
        let old = self.workload.ctmc();
        let mut b = markov::ctmc::CtmcBuilder::new(old.n_states());
        if old.has_custom_labels() {
            for i in 0..old.n_states() {
                b.label(i, old.state_label(i).as_ref());
            }
        }
        for (i, j, r) in old.rates().iter() {
            b.rate(i, j, r * factor)
                .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
        }
        let chain = b
            .build()
            .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
        let workload = Workload::new(
            chain,
            self.workload.currents().to_vec(),
            self.workload.initial().to_vec(),
        )?;
        KibamRm::new(
            workload,
            self.capacity() / factor,
            self.c(),
            self.k() * factor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KibamRm {
        KibamRm::new(
            Workload::simple_model().unwrap(),
            Charge::from_milliamp_hours(800.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = model();
        assert_eq!(m.capacity().as_milliamp_hours(), 800.0);
        assert_eq!(m.c(), 0.625);
        assert_eq!(m.k().value(), 4.5e-5);
        assert_eq!(m.workload().n_states(), 3);
        assert!(!m.is_linear());
        assert!(KibamRm::new(
            Workload::simple_model().unwrap(),
            Charge::ZERO,
            0.5,
            Rate::per_second(1e-5)
        )
        .is_err());
    }

    #[test]
    fn linear_degenerate_case() {
        let m = KibamRm::new(
            Workload::simple_model().unwrap(),
            Charge::from_milliamp_hours(800.0),
            1.0,
            Rate::per_second(0.0),
        )
        .unwrap();
        assert!(m.is_linear());
    }

    #[test]
    fn time_compression_invariance() {
        use crate::discretise::{DiscretisationOptions, DiscretisedModel};
        use units::Time;
        // C = 160 mAh, c = 0.625 → wells of 100 and 60 mAh; Δ = 10 mAh
        // divides both, and Δ/factor divides the compressed wells.
        let original = KibamRm::new(
            Workload::simple_model().unwrap(),
            Charge::from_milliamp_hours(160.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        let factor = 8.0;
        let fast = original.time_compressed(factor).unwrap();
        // Matching Δ keeps the two derived chains isomorphic (levels
        // identical, rates scaled), so the curves must agree exactly.
        let d_orig = DiscretisedModel::build(
            &original,
            &DiscretisationOptions::with_delta(Charge::from_milliamp_hours(10.0)),
        )
        .unwrap();
        let d_fast = DiscretisedModel::build(
            &fast,
            &DiscretisationOptions::with_delta(Charge::from_milliamp_hours(10.0 / factor)),
        )
        .unwrap();
        assert_eq!(d_orig.stats().states, d_fast.stats().states);
        for hours in [2.0, 5.0, 8.0] {
            let p_orig = d_orig
                .empty_probability_at(Time::from_hours(hours))
                .unwrap();
            let p_fast = d_fast
                .empty_probability_at(Time::from_hours(hours / factor))
                .unwrap();
            assert!(
                (p_orig - p_fast).abs() < 1e-9,
                "t = {hours} h: {p_orig} vs {p_fast}"
            );
        }
    }

    #[test]
    fn time_compression_validation() {
        let m = model();
        assert!(m.time_compressed(0.0).is_err());
        assert!(m.time_compressed(-2.0).is_err());
        assert!(m.time_compressed(f64::INFINITY).is_err());
    }
}
