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
        use crate::scenario::Scenario;
        use crate::solver::{DiscretisationSolver, LifetimeSolver};
        use units::Time;
        // C = 160 mAh, c = 0.625 → wells of 100 and 60 mAh; Δ = 10 mAh
        // divides both. Running the device 8× faster keeps the lattice
        // and scales the derived generator by exactly 8, so the fast
        // battery empties by t/8 exactly as the original does by t. With
        // a power-of-two factor `P = I + Q/ν` and `ν·t` are unchanged,
        // so the curves agree bit for bit.
        let original = Scenario::builder()
            .name("simple")
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(160.0))
            .kibam(0.625, Rate::per_second(4.5e-5))
            .times([2.0, 5.0, 8.0].map(Time::from_hours).to_vec())
            .delta(Charge::from_milliamp_hours(10.0))
            .build()
            .unwrap();
        let factor = 8.0;
        let fast = original
            .with_rate_scale(factor)
            .unwrap()
            .with_times(
                [2.0, 5.0, 8.0]
                    .map(|h| Time::from_hours(h / factor))
                    .to_vec(),
            )
            .unwrap();
        let solver = DiscretisationSolver::new();
        let slow = solver.solve(&original).unwrap();
        let quick = solver.solve(&fast).unwrap();
        assert_eq!(slow.diagnostics().states, quick.diagnostics().states);
        let bits = |d: &crate::LifetimeDistribution| -> Vec<u64> {
            d.points().iter().map(|p| p.1.to_bits()).collect()
        };
        assert_eq!(bits(&slow), bits(&quick));
    }
}
