//! Seeded inputs. Every workload derives its configurations and traces
//! from the seed alone, so the same seed gives the same inputs.

use kibamrm::scenario::Scenario;
use kibamrm::workload::Workload;
use units::{Charge, Current, Frequency, Rate, Time};

/// SplitMix64: small, fast, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// A hash of `(seed, index)`: the `index`-th draw of an unbounded trace.
pub fn draw(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The Fig. 8 configuration family: a 1 Hz on/off load drawing
/// `current_a` while on, on a 7200 A·s KiBaM cell, queried at 16 points
/// up to 8000 s. The seed perturbs the load current and the flow
/// constant by a few percent; neither changes the chain's size or the
/// uniformisation rate by more than that, so the work per solve stays
/// the same across seeds.
#[derive(Debug, Clone, Copy)]
pub struct Fig8 {
    pub current_a: f64,
    pub k_per_s: f64,
}

pub const CAPACITY_AS: f64 = 7200.0;
pub const HORIZON_S: f64 = 8000.0;
pub const TIME_POINTS: usize = 16;

impl Fig8 {
    pub fn seeded(rng: &mut Rng) -> Fig8 {
        Fig8 {
            current_a: 0.96 * rng.uniform(0.98, 1.02),
            k_per_s: 4.5e-5 * rng.uniform(0.9, 1.1),
        }
    }

    /// The on/off load with `stages` Erlang phases per period.
    pub fn workload(&self, stages: u32) -> Result<Workload, String> {
        Workload::on_off_erlang(
            Frequency::from_hertz(1.0),
            stages,
            Current::from_amps(self.current_a),
        )
        .map_err(|e| e.to_string())
    }

    /// One configuration: available-charge fraction `c`, flow constant
    /// `k_scale · k`, discretisation step `delta_as`.
    pub fn scenario(&self, c: f64, k_scale: f64, delta_as: f64) -> Result<Scenario, String> {
        Scenario::builder()
            .name("fig8")
            .workload(self.workload(1)?)
            .capacity(Charge::from_amp_seconds(CAPACITY_AS))
            .kibam(c, Rate::per_second(self.k_per_s * k_scale))
            .time_grid(Time::from_seconds(HORIZON_S), TIME_POINTS)
            .delta(Charge::from_amp_seconds(delta_as))
            .build()
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
        let x = Rng::new(1).uniform(2.0, 3.0);
        assert!((2.0..3.0).contains(&x));
    }
}
