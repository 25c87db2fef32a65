//! Seedable random streams for reproducible simulation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded random stream with the distributions simulation needs.
///
/// Wraps `rand`'s `StdRng` so that every replication is exactly
/// reproducible from its seed, independent of platform.
#[derive(Debug)]
pub struct SimRng {
    inner: StdRng,
}

/// SplitMix64's finaliser: a strong 64-bit bijective mixer used to derive
/// decorrelated stream seeds from `(master seed, stream index)` pairs.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The counter-derived replication stream `index` of the experiment
    /// seeded by `master_seed`.
    ///
    /// The stream seed is a pure function of `(master_seed, index)` —
    /// two rounds of SplitMix64's finaliser — so **any** worker can
    /// reproduce replication `index` without consuming randomness from a
    /// shared generator. This is what makes the parallel simulation
    /// engine bit-identical across thread counts: threads claim
    /// replication indices, not positions in one sequential stream.
    /// Consecutive indices land in decorrelated states (the mixer is a
    /// bijection with full avalanche), and distinct master seeds give
    /// disjoint families with overwhelming probability.
    pub fn stream(master_seed: u64, index: u64) -> SimRng {
        SimRng::seed_from(mix64(master_seed ^ mix64(index)))
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// An exponential draw with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential needs positive rate, got {rate}");
        // Inverse transform; 1-u keeps the argument strictly positive.
        -(1.0 - self.uniform()).ln() / rate
    }

    /// An Erlang-K draw: the sum of `k` exponentials with the given rate.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `rate <= 0` or `k == 0`.
    pub fn erlang(&mut self, k: u32, rate: f64) -> f64 {
        debug_assert!(k > 0, "Erlang needs k ≥ 1");
        (0..k).map(|_| self.exponential(rate)).sum()
    }

    /// Samples an index proportionally to the given non-negative weights.
    /// Returns `None` when every weight is zero.
    pub fn categorical(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut u = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= w;
            if u < 0.0 {
                return Some(i);
            }
        }
        // Floating-point slack: land on the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
        let mut c = SimRng::seed_from(8);
        assert_ne!(a.uniform(), c.uniform());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_moments() {
        let mut rng = SimRng::seed_from(2);
        let rate = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.exponential(rate)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((var - 0.25).abs() < 0.01, "var {var}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn erlang_mean_and_concentration() {
        let mut rng = SimRng::seed_from(3);
        // The paper's on/off model: Erlang-K with rate λ = 2fK keeps the
        // mean at 1/(2f) while concentrating towards deterministic.
        let f = 1.0;
        let n = 50_000;
        let mean_k = |k: u32, rng: &mut SimRng| {
            let rate = 2.0 * f * k as f64;
            (0..n).map(|_| rng.erlang(k, rate)).sum::<f64>() / n as f64
        };
        let m1 = mean_k(1, &mut rng);
        let m8 = mean_k(8, &mut rng);
        assert!((m1 - 0.5).abs() < 0.01, "K=1 mean {m1}");
        assert!((m8 - 0.5).abs() < 0.01, "K=8 mean {m8}");
        // Variance shrinks as 1/K.
        let rate8 = 16.0;
        let samples: Vec<f64> = (0..n).map(|_| rng.erlang(8, rate8)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((var - 0.5 * 0.5 / 8.0).abs() < 0.005, "K=8 var {var}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = SimRng::seed_from(4);
        let weights = [1.0, 3.0, 0.0, 6.0];
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.categorical(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[2], 0);
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((counts[3] as f64 / n as f64 - 0.6).abs() < 0.01);
    }

    #[test]
    fn categorical_zero_weights() {
        let mut rng = SimRng::seed_from(5);
        assert_eq!(rng.categorical(&[0.0, 0.0]), None);
        assert_eq!(rng.categorical(&[]), None);
        assert_eq!(rng.categorical(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn counter_streams_are_pure_and_decorrelated() {
        // Same (seed, index) → same stream, bit for bit.
        let a: Vec<u64> = {
            let mut r = SimRng::stream(7, 3);
            (0..16).map(|_| r.inner.random::<u64>()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::stream(7, 3);
            (0..16).map(|_| r.inner.random::<u64>()).collect()
        };
        assert_eq!(a, b);
        // Neighbouring indices and neighbouring seeds diverge.
        let mut c = SimRng::stream(7, 4);
        let mut d = SimRng::stream(8, 3);
        assert_ne!(a[0], c.inner.random::<u64>());
        assert_ne!(a[0], d.inner.random::<u64>());
        // Streams look independent enough for Monte Carlo: the mean of
        // first draws across many consecutive indices is ≈ 1/2.
        let n = 20_000u64;
        let sum: f64 = (0..n).map(|i| SimRng::stream(99, i).uniform()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);

        use super::mix64;
        // The mixer is a bijection finaliser: no short cycles at 0, and
        // single-bit input flips flip about half the output bits.
        assert_ne!(mix64(0), 0);
        let ones = (mix64(1) ^ mix64(2)).count_ones();
        assert!((20..=44).contains(&ones), "avalanche too weak: {ones}");
    }
}
