//! Simulation output analysis: empirical CDFs, moments, Kolmogorov–Smirnov
//! distances and binomial proportion confidence intervals.
//!
//! The paper's "Simulation" curves (Figs. 7, 8, 10) are empirical lifetime
//! CDFs over 1000 independent runs; this module provides the estimators the
//! harness uses to draw and compare them.

use std::fmt;

/// Errors from the statistics constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// A sample set was empty.
    Empty,
    /// A sample contained NaN.
    NotANumber,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "empty sample set"),
            StatsError::NotANumber => write!(f, "sample contains NaN"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Mean of a sample slice.
///
/// # Errors
///
/// [`StatsError::Empty`] on empty input, [`StatsError::NotANumber`] on NaN.
pub fn mean(samples: &[f64]) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NotANumber);
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Unbiased sample variance (n−1 denominator); zero for singleton samples.
///
/// # Errors
///
/// Same conditions as [`mean`].
pub fn variance(samples: &[f64]) -> Result<f64, StatsError> {
    let m = mean(samples)?;
    if samples.len() < 2 {
        return Ok(0.0);
    }
    let ss: f64 = samples.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (samples.len() - 1) as f64)
}

/// Sample standard deviation.
///
/// # Errors
///
/// Same conditions as [`mean`].
pub fn std_dev(samples: &[f64]) -> Result<f64, StatsError> {
    variance(samples).map(f64::sqrt)
}

/// An empirical cumulative distribution function over a finite sample.
///
/// # Examples
///
/// ```
/// use numerics::stats::EmpiricalCdf;
///
/// let cdf = EmpiricalCdf::new(vec![3.0, 1.0, 2.0]).unwrap();
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(1.0), 1.0 / 3.0);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the empirical CDF of `samples` (takes ownership and sorts).
    ///
    /// # Errors
    ///
    /// [`StatsError::Empty`] on empty input, [`StatsError::NotANumber`]
    /// on NaN.
    pub fn new(mut samples: Vec<f64>) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        if samples.iter().any(|x| x.is_nan()) {
            return Err(StatsError::NotANumber);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Ok(EmpiricalCdf { sorted: samples })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` iff there are no samples (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x) = (#samples ≤ x) / n`.
    pub fn eval(&self, x: f64) -> f64 {
        self.count_le(x) as f64 / self.sorted.len() as f64
    }

    /// The exact number of samples `≤ x` — the binomial success count
    /// behind [`EmpiricalCdf::eval`]. Confidence intervals must be built
    /// from this integer, not from a rounded `p̂·n` reconstruction
    /// (which is lossy near ties).
    pub fn count_le(&self, x: f64) -> usize {
        self.sorted.partition_point(|&s| s <= x)
    }

    /// The `q`-quantile (inverse CDF) for `q ∈ [0, 1]`, using the
    /// left-continuous inverse: smallest sample `x` with `F(x) ≥ q`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!(
            (0.0..=1.0).contains(&q),
            "quantile needs q in [0,1], got {q}"
        );
        if q <= 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("nonempty")
    }

    /// The sorted samples (jump points of the CDF).
    pub fn support(&self) -> &[f64] {
        &self.sorted
    }

    /// The Kolmogorov–Smirnov distance `sup_x |F_n(x) − G(x)|` against an
    /// arbitrary reference CDF `g`, evaluated at the jump points (both
    /// one-sided limits are considered).
    pub fn ks_distance(&self, g: impl Fn(f64) -> f64) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let gx = g(x);
            let before = i as f64 / n;
            let after = (i + 1) as f64 / n;
            d = d.max((gx - before).abs()).max((after - gx).abs());
        }
        d
    }
}

/// Two-sided `(1−α)` Wald confidence half-width for a binomial proportion
/// estimated by `successes/trials`.
///
/// Returns 0 for `trials = 0`. **Degenerates to zero width at
/// `p̂ ∈ {0, 1}`** — a 0-out-of-n observation is reported as "exactly 0
/// with no uncertainty", which is wrong for every finite `n`. The
/// simulation error bars therefore use [`wilson_ci_half_width`]; the Wald
/// form is kept as the textbook reference (and for callers that need the
/// classical interval).
pub fn binomial_ci_half_width(successes: u64, trials: u64, z: f64) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    z * (p * (1.0 - p) / n).sqrt()
}

/// Two-sided `(1−α)` **Wilson score** confidence half-width for a
/// binomial proportion estimated by `successes/trials` — the error bars
/// on every simulated `Pr[battery empty at t]` point.
///
/// Unlike the Wald interval, the Wilson interval stays strictly positive
/// at `p̂ ∈ {0, 1}` (`half-width → z²/(2n)/(1 + z²/n)`), never leaves
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

/// Streaming (single-pass) sample moments: count, mean and the centred
/// sum of squares, updated by Welford's recurrence and mergeable
/// by Chan's pairwise rule — the `O(1)`-memory replacement for collecting
/// samples into a `Vec` first.
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
/// assert!((m.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    /// Centred sum of squares `Σ (x − mean)²` (a.k.a. Welford's `M2`).
    m2: f64,
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
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
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
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
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

    /// Unbiased sample variance (n−1 denominator; 0 for singletons,
    /// `None` when empty) — matches [`variance`] on the same samples.
    pub fn variance(&self) -> Option<f64> {
        match self.count {
            0 => None,
            1 => Some(0.0),
            n => Some(self.m2 / (n - 1) as f64),
        }
    }

    /// Sample standard deviation (`None` when empty).
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_nan_rejected() {
        assert_eq!(mean(&[]), Err(StatsError::Empty));
        assert_eq!(mean(&[f64::NAN]), Err(StatsError::NotANumber));
        assert_eq!(EmpiricalCdf::new(vec![]).unwrap_err(), StatsError::Empty);
        assert_eq!(
            EmpiricalCdf::new(vec![1.0, f64::NAN]).unwrap_err(),
            StatsError::NotANumber
        );
    }

    #[test]
    fn singleton_variance_zero() {
        assert_eq!(variance(&[3.0]).unwrap(), 0.0);
    }

    #[test]
    fn cdf_step_values() {
        let cdf = EmpiricalCdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(1.5), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(9.0), 1.0);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 4.0);
        assert_eq!(cdf.support(), &[1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn quantiles() {
        let cdf = EmpiricalCdf::new((1..=100).map(|i| i as f64).collect()).unwrap();
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 50.0);
        assert_eq!(cdf.quantile(0.95), 95.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert_eq!(cdf.mean(), 50.5);
    }

    #[test]
    fn ks_distance_against_self_is_small() {
        let cdf = EmpiricalCdf::new((1..=1000).map(|i| i as f64 / 1000.0).collect()).unwrap();
        // Against the uniform CDF on [0,1] the distance is ≤ 1/n.
        let d = cdf.ks_distance(|x| x.clamp(0.0, 1.0));
        assert!(d <= 1.0 / 1000.0 + 1e-12, "d = {d}");
    }

    #[test]
    fn ks_distance_detects_shift() {
        let cdf = EmpiricalCdf::new((1..=100).map(|i| i as f64 / 100.0).collect()).unwrap();
        let d = cdf.ks_distance(|x| (x - 0.3).clamp(0.0, 1.0));
        assert!(d > 0.25, "d = {d}");
    }

    #[test]
    fn binomial_ci() {
        assert_eq!(binomial_ci_half_width(0, 0, Z_95), 0.0);
        // p = 0.5, n = 100 → half width ≈ 1.96 · 0.05 = 0.098.
        let hw = binomial_ci_half_width(50, 100, Z_95);
        assert!((hw - 0.0979981992).abs() < 1e-6);
        // Degenerate proportions give zero width — the Wald failure mode
        // the Wilson interval exists to fix.
        assert_eq!(binomial_ci_half_width(100, 100, Z_95), 0.0);
    }

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
        let wald = binomial_ci_half_width(500, 1000, Z_95);
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
    fn count_le_is_the_exact_success_count() {
        let cdf = EmpiricalCdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(cdf.count_le(0.5), 0);
        assert_eq!(cdf.count_le(1.0), 1);
        assert_eq!(cdf.count_le(2.0), 3);
        assert_eq!(cdf.count_le(3.9), 3);
        assert_eq!(cdf.count_le(4.0), 4);
    }

    #[test]
    fn streaming_moments_match_batch_estimators() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = StreamingMoments::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.variance(), None);
        for x in xs {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((m.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-12);
        assert!((m.std_dev().unwrap() - std_dev(&xs).unwrap()).abs() < 1e-12);
        // Singletons have zero variance, matching `variance`.
        let mut one = StreamingMoments::new();
        one.push(3.0);
        assert_eq!(one.variance(), Some(0.0));
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
        assert!((merged.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        // Merging an empty accumulator is the identity.
        let mut m = merge_parts(128);
        let before = m.clone();
        m.merge(&StreamingMoments::new());
        assert_eq!(m, before);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone_and_bounded(mut xs in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
            let cdf = EmpiricalCdf::new(xs.clone()).unwrap();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for x in (-10..=10).map(|i| i as f64 * 100.0) {
                let v = cdf.eval(x);
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert!(v >= prev);
                prev = v;
            }
            prop_assert_eq!(cdf.eval(f64::INFINITY), 1.0);
        }

        #[test]
        fn quantile_inverts_cdf(xs in proptest::collection::vec(0.0f64..1e3, 1..100), q in 0.01f64..1.0) {
            let cdf = EmpiricalCdf::new(xs).unwrap();
            let x = cdf.quantile(q);
            // F(x) ≥ q by definition of the left-continuous inverse.
            prop_assert!(cdf.eval(x) + 1e-12 >= q);
        }

        #[test]
        fn mean_within_range(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let m = mean(&xs).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
