//! Simulation output analysis: binomial proportion confidence intervals,
//! the Dvoretzky–Kiefer–Wolfowitz band and streaming moments.
//!
//! The paper's "Simulation" curves (Figs. 7, 8, 10) are empirical lifetime
//! CDFs over 1000 independent runs; this module provides the error bars
//! and moment sketches the streaming Monte Carlo engine attaches to them.

/// Two-sided `(1−α)` **Wilson score** confidence half-width for a
/// binomial proportion estimated by `successes/trials` — the error bars
/// on every simulated `Pr[battery empty at t]` point.
///
/// Unlike the textbook Wald interval `z·√(p̂(1−p̂)/n)`, which collapses
/// to zero width at `p̂ ∈ {0, 1}`, the Wilson interval stays strictly
/// positive there (`half-width → z²/(2n)/(1 + z²/n)`), never leaves
/// `[0, 1]`, and keeps close-to-nominal coverage at small `n` — exactly
/// the regimes a lifetime curve hits at its head (`p̂ = 0` before the
/// first depletion) and tail (`p̂ = 1` once every run depleted).
///
/// The interval is centred at `(p̂ + z²/2n) / (1 + z²/n)`, not at `p̂`;
/// this function returns its half-width
/// `z/(1 + z²/n) · √(p̂(1−p̂)/n + z²/4n²)`. Returns 0 for `trials = 0`.
pub fn wilson_ci_half_width(successes: u64, trials: u64, z: f64) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    debug_assert!(successes <= trials, "{successes} successes of {trials}");
    let n = trials as f64;
    let p = (successes.min(trials)) as f64 / n;
    let z2 = z * z;
    z / (1.0 + z2 / n) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()
}

/// The `(1−α)` **Dvoretzky–Kiefer–Wolfowitz** band half-width
/// `min(1, √(ln(2/α)/(2n)))` for an empirical CDF of `n` samples.
///
/// With probability at least `1−α` the true CDF lies within this distance
/// of the empirical one *at every point at once* (Massart's tight
/// constant), so it is a sup-norm bound on a simulated lifetime curve.
/// The largest [`wilson_ci_half_width`] over a grid is not: each Wilson
/// interval covers its own point only. Returns 1 (no information) for
/// `samples = 0`.
pub fn dkw_half_width(samples: u64, alpha: f64) -> f64 {
    if samples == 0 {
        return 1.0;
    }
    ((2.0 / alpha).ln() / (2.0 * samples as f64))
        .sqrt()
        .min(1.0)
}

/// The 97.5 % standard-normal quantile, for 95 % two-sided intervals.
pub const Z_95: f64 = 1.959963984540054;

/// Streaming (single-pass) sample moments: count and mean, updated by
/// Welford's recurrence and mergeable by Chan's pairwise rule — the
/// `O(1)`-memory replacement for collecting samples into a `Vec` first.
///
/// Merging is **deterministic**: `a.merge(&b)` is a fixed sequence of
/// floating-point operations, so folding the same partition of a sample
/// in the same order always reproduces the same bits (the parallel
/// simulation engine relies on this for its thread-count-independence
/// guarantee). Merging is *not* bit-wise associative — reorder or
/// repartition the stream and last bits may move, like any other
/// floating-point summation.
///
/// # Examples
///
/// ```
/// use numerics::stats::StreamingMoments;
///
/// let mut m = StreamingMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert_eq!(m.mean(), Some(5.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingMoments::default()
    }

    /// Folds one sample in (Welford's recurrence).
    ///
    /// # Panics
    ///
    /// Panics in debug builds on NaN (a NaN would silently poison every
    /// later estimate).
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "streaming moments fed NaN");
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
    }

    /// Merges another accumulator in (Chan's parallel update). The
    /// result equals folding `other`'s samples after `self`'s, up to
    /// floating-point reassociation; the operation itself is
    /// deterministic bit for bit.
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n2 = other.count as f64;
        let n = self.count as f64 + n2;
        self.mean += (other.mean - self.mean) * (n2 / n);
        self.count += other.count;
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_ci_stays_positive_at_degenerate_proportions() {
        assert_eq!(wilson_ci_half_width(0, 0, Z_95), 0.0);
        // At p̂ ∈ {0, 1} the half-width is z²/(2n)/(1 + z²/n) > 0.
        let n = 100u64;
        let expect = Z_95 * Z_95 / (2.0 * n as f64) / (1.0 + Z_95 * Z_95 / n as f64);
        for successes in [0, n] {
            let hw = wilson_ci_half_width(successes, n, Z_95);
            assert!((hw - expect).abs() < 1e-12, "p̂ degenerate: {hw}");
            assert!(hw > 0.0);
        }
        // Mid-range it agrees with Wald to O(1/n).
        let wald = Z_95 * (0.5f64 * 0.5 / 1000.0).sqrt();
        let wilson = wilson_ci_half_width(500, 1000, Z_95);
        assert!((wald - wilson).abs() < 2e-4, "{wald} vs {wilson}");
        // The interval never leaves [0, 1]: centre ± hw fits.
        let n = 10u64;
        for s in 0..=n {
            let p = s as f64 / n as f64;
            let z2 = Z_95 * Z_95;
            let centre = (p + z2 / (2.0 * n as f64)) / (1.0 + z2 / n as f64);
            let hw = wilson_ci_half_width(s, n, Z_95);
            assert!(centre - hw >= -1e-12 && centre + hw <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn dkw_band_is_uniform_and_wider_than_wilson() {
        assert_eq!(dkw_half_width(0, 0.05), 1.0);
        assert_eq!(dkw_half_width(1, 0.05), 1.0, "capped at 1");
        assert!((dkw_half_width(256, 0.05) - 0.0849).abs() < 1e-4);
        assert!((dkw_half_width(2000, 0.05) - 0.0304).abs() < 1e-4);
        // It shrinks like 1/√n, and it is never tighter than the widest
        // pointwise Wilson interval at the same n.
        assert!((dkw_half_width(400, 0.05) / dkw_half_width(100, 0.05) - 0.5).abs() < 1e-12);
        for n in [10u64, 100, 256, 1000, 2000] {
            let widest = wilson_ci_half_width(n / 2, n, Z_95);
            assert!(dkw_half_width(n, 0.05) >= widest, "n = {n}");
        }
    }

    #[test]
    fn streaming_moments_match_batch_estimators() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = StreamingMoments::new();
        assert_eq!(m.mean(), None);
        for x in xs {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        // The batch estimator over the same sample.
        let mean = xs.iter().sum::<f64>() / 8.0;
        assert!((m.mean().unwrap() - mean).abs() < 1e-12);
    }

    #[test]
    fn streaming_moments_merge_is_deterministic_and_accurate() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
        let mut whole = StreamingMoments::new();
        for &x in &xs {
            whole.push(x);
        }
        // Merge a fixed partition twice: bit-identical both times.
        let merge_parts = |chunk: usize| {
            let mut acc = StreamingMoments::new();
            for part in xs.chunks(chunk) {
                let mut p = StreamingMoments::new();
                for &x in part {
                    p.push(x);
                }
                acc.merge(&p);
            }
            acc
        };
        assert_eq!(merge_parts(64), merge_parts(64));
        // And close to the un-partitioned fold.
        let merged = merge_parts(64);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        // Merging an empty accumulator is the identity.
        let mut m = merge_parts(128);
        let before = m.clone();
        m.merge(&StreamingMoments::new());
        assert_eq!(m, before);
    }
}
