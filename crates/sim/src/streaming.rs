//! Streaming (O(grid)-memory) lifetime studies.
//!
//! The paper's simulation curves are empirical CDFs read on a query
//! grid. Keeping every observed lifetime to draw them would cost 80 MB
//! per 10⁷ replications before analysis starts, so
//! [`StreamingLifetimeStudy`] folds each replication outcome into
//! fixed-size state the moment it is produced:
//!
//! * **depletion counts on a fixed time grid** — bucket `i` counts
//!   lifetimes in `(t_{i−1}, t_i]`, an overflow bucket catches
//!   depletions between the last grid point and the censoring horizon —
//!   giving the exact integer `#{lifetimes ≤ t_i}` at every grid point
//!   (the empirical CDF of all outcomes, censored ones included, read
//!   at `t_i`);
//! * **a moment sketch** — count and mean of the observed lifetimes via
//!   [`numerics::stats::StreamingMoments`].
//!
//! Memory is `O(grid)`, independent of the replication count. The
//! parallel engine ([`crate::engine`]) gives each worker one study for
//! its depletion counts, which add exactly in any order, and keeps the
//! moment sketch of every batch apart, merging those **in batch order**
//! (Chan's rule) once the workers have joined — a reduction that
//! depends only on the batch schedule, never on which worker computed
//! what, which is what makes its results bit-identical across thread
//! counts.

use numerics::stats::{wilson_ci_half_width, StreamingMoments, Z_95};
use std::fmt;
use std::sync::Arc;

/// Errors from streaming-study construction and folding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingError {
    /// The time grid was empty, non-finite or not strictly increasing,
    /// or the horizon did not cover it.
    InvalidGrid(String),
    /// A folded lifetime was NaN or negative.
    InvalidLifetime(String),
}

impl fmt::Display for StreamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamingError::InvalidGrid(why) => write!(f, "invalid time grid: {why}"),
            StreamingError::InvalidLifetime(why) => write!(f, "invalid lifetime: {why}"),
        }
    }
}

impl std::error::Error for StreamingError {}

/// A lifetime study folded incrementally on a fixed time grid; see the
/// module docs. Cheap to clone structurally: the grid is shared behind
/// an [`Arc`], only the O(grid) counters are copied.
///
/// # Examples
///
/// ```
/// use sim::streaming::StreamingLifetimeStudy;
///
/// let mut s = StreamingLifetimeStudy::new(vec![10.0, 20.0, 30.0], 50.0).unwrap();
/// s.fold(Some(12.0)).unwrap();
/// s.fold(Some(45.0)).unwrap(); // past the grid, before the horizon
/// s.fold(None).unwrap();       // censored
/// assert_eq!(s.total_runs(), 3);
/// assert_eq!(s.depleted_runs(), 2);
/// assert_eq!(s.depleted_at(1), 1);             // one lifetime ≤ 20
/// assert_eq!(s.empty_probability(1), 1.0 / 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingLifetimeStudy {
    /// Strictly increasing query times (shared, never mutated).
    grid: Arc<[f64]>,
    /// Censoring horizon (`≥ grid.last()`).
    horizon: f64,
    /// `buckets[i]`, `i < grid.len()`: lifetimes in `(grid[i−1], grid[i]]`
    /// (with `grid[−1] = −∞`); `buckets[grid.len()]`: lifetimes in
    /// `(grid.last(), horizon]`.
    buckets: Vec<u64>,
    /// All replications, censored included.
    total: u64,
    /// Moment sketch over the observed (depleted) lifetimes. The engine
    /// takes it out after every batch and merges the per-batch sketches
    /// in batch order.
    pub(crate) moments: StreamingMoments,
}

impl StreamingLifetimeStudy {
    /// An empty study over `grid` with censoring `horizon`.
    ///
    /// # Errors
    ///
    /// [`StreamingError::InvalidGrid`] when the grid is empty, contains
    /// non-finite or negative values, is not strictly increasing, or
    /// extends past the horizon.
    pub fn new(grid: Vec<f64>, horizon: f64) -> Result<Self, StreamingError> {
        if grid.is_empty() {
            return Err(StreamingError::InvalidGrid("grid is empty".into()));
        }
        if grid.iter().any(|t| !t.is_finite() || *t < 0.0) {
            return Err(StreamingError::InvalidGrid(
                "grid times must be finite and non-negative".into(),
            ));
        }
        if grid.windows(2).any(|w| !(w[1] > w[0])) {
            return Err(StreamingError::InvalidGrid(
                "grid must be strictly increasing".into(),
            ));
        }
        let last = *grid.last().expect("non-empty");
        if !horizon.is_finite() || horizon < last {
            return Err(StreamingError::InvalidGrid(format!(
                "horizon {horizon} must be finite and cover the last grid time {last}"
            )));
        }
        let buckets = vec![0; grid.len() + 1];
        Ok(StreamingLifetimeStudy {
            grid: grid.into(),
            horizon,
            buckets,
            total: 0,
            moments: StreamingMoments::new(),
        })
    }

    /// Folds one replication outcome in: an observed lifetime
    /// (`Some(t)`) or censoring at the horizon (`None`). O(log grid).
    ///
    /// # Errors
    ///
    /// [`StreamingError::InvalidLifetime`] on NaN or negative lifetimes,
    /// which leave the study unchanged, run count included (a lifetime
    /// beyond the horizon is clamped into the overflow bucket only in
    /// release builds; debug builds assert, since the experiment's own
    /// censoring should have produced `None`).
    pub fn fold(&mut self, outcome: Option<f64>) -> Result<(), StreamingError> {
        if let Some(lifetime) = outcome {
            if lifetime.is_nan() || lifetime < 0.0 {
                return Err(StreamingError::InvalidLifetime(format!(
                    "observed lifetime {lifetime}"
                )));
            }
            debug_assert!(
                lifetime <= self.horizon * (1.0 + 1e-12),
                "lifetime {lifetime} beyond the censoring horizon {} — the experiment \
                 should have censored it",
                self.horizon
            );
            // First grid index with grid[i] ≥ lifetime ⇒ bucket i; beyond
            // the grid ⇒ overflow bucket grid.len().
            let bucket = self.grid.partition_point(|&g| g < lifetime);
            self.buckets[bucket] += 1;
            self.moments.push(lifetime);
        }
        self.total += 1;
        Ok(())
    }

    /// Adds the depletion counts of another study over the **same**
    /// grid and merges its moment sketch (Chan), in O(grid). Counts add
    /// exactly; the moment merge is a fixed operation sequence, so a
    /// fixed merge order reproduces fixed bits — see the module docs.
    pub(crate) fn merge(&mut self, other: &StreamingLifetimeStudy) {
        debug_assert!(
            self.grid == other.grid && self.horizon == other.horizon,
            "merged studies must share the grid and horizon"
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.total += other.total;
        self.moments.merge(&other.moments);
    }

    /// Number of replications folded in (censored included).
    pub fn total_runs(&self) -> u64 {
        self.total
    }

    /// Number of replications that saw the battery empty (before the
    /// horizon).
    pub fn depleted_runs(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The exact number of runs depleted by grid time `t_i` (the `i`-th
    /// grid time) — the binomial success count every estimate at that
    /// point derives from.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of grid range.
    pub fn depleted_at(&self, i: usize) -> u64 {
        assert!(i < self.grid.len(), "grid index {i} out of range");
        self.buckets[..=i].iter().sum()
    }

    /// The cumulative depletion counts at every grid point (one prefix
    /// pass; use this instead of repeated [`depleted_at`] calls when
    /// scanning the whole curve).
    ///
    /// [`depleted_at`]: StreamingLifetimeStudy::depleted_at
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.grid
            .iter()
            .enumerate()
            .map(|(i, _)| {
                acc += self.buckets[i];
                acc
            })
            .collect()
    }

    /// The estimate `P̂r[battery empty at t_i]` at the `i`-th grid time
    /// (0 when nothing has been folded yet).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of grid range.
    pub fn empty_probability(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.depleted_at(i) as f64 / self.total as f64
    }

    /// 95 % Wilson-score confidence half-width at grid point `i`, built
    /// from the exact depletion count.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of grid range.
    pub fn confidence_half_width(&self, i: usize) -> f64 {
        wilson_ci_half_width(self.depleted_at(i), self.total, Z_95)
    }

    /// The largest 95 % Wilson half-width over the grid (0 before any
    /// replication). Each interval covers its own grid point only; the
    /// sup-norm band is [`numerics::stats::dkw_half_width`].
    pub fn max_half_width(&self) -> f64 {
        self.cumulative_counts()
            .into_iter()
            .map(|c| wilson_ci_half_width(c, self.total, Z_95))
            .fold(0.0, f64::max)
    }

    /// Mean observed lifetime (conditional on depletion before the
    /// horizon); `None` when no run depleted.
    pub fn mean_observed_lifetime(&self) -> Option<f64> {
        self.moments.mean()
    }

    /// The `q`-quantile of the lifetime at **grid resolution**: the
    /// smallest grid time `t_i` with `P̂r[empty at t_i] ≥ q` (an upper
    /// bound within one grid cell of the order-statistics quantile).
    /// `None` when the curve never reaches `q` on the grid — including
    /// every `q > 0` of an all-censored study, and quantiles crossing
    /// between the last grid point and the horizon.
    pub fn lifetime_quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.total == 0 {
            return None;
        }
        let n = self.total as f64;
        self.cumulative_counts()
            .into_iter()
            .zip(self.grid.iter())
            .find(|&(c, _)| c as f64 / n >= q)
            .map(|(_, &t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<f64> {
        vec![10.0, 20.0, 30.0, 40.0]
    }

    #[test]
    fn validates_grid_and_horizon() {
        assert!(StreamingLifetimeStudy::new(vec![], 10.0).is_err());
        assert!(StreamingLifetimeStudy::new(vec![1.0, 1.0], 10.0).is_err());
        assert!(StreamingLifetimeStudy::new(vec![2.0, 1.0], 10.0).is_err());
        assert!(StreamingLifetimeStudy::new(vec![-1.0, 1.0], 10.0).is_err());
        assert!(StreamingLifetimeStudy::new(vec![1.0, f64::NAN], 10.0).is_err());
        // Horizon must cover the grid.
        assert!(StreamingLifetimeStudy::new(vec![1.0, 5.0], 4.0).is_err());
        assert!(StreamingLifetimeStudy::new(vec![1.0, 5.0], f64::INFINITY).is_err());
        assert!(StreamingLifetimeStudy::new(vec![1.0, 5.0], 5.0).is_ok());
    }

    #[test]
    fn counts_match_the_outcomes_at_grid_points() {
        let outcomes = [
            Some(5.0),
            Some(10.0), // exactly on a grid point: counts at that point
            Some(15.0),
            None,
            Some(35.0),
            Some(45.0), // between last grid point and horizon
            None,
        ];
        let mut s = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        for o in outcomes {
            s.fold(o).unwrap();
        }
        assert_eq!(s.total_runs(), 7);
        assert_eq!(s.depleted_runs(), 5);
        for (i, &t) in grid().iter().enumerate() {
            // The empirical CDF of the outcomes at t: censored runs
            // count in the denominator only.
            let depleted = outcomes.iter().flatten().filter(|&&x| x <= t).count() as u64;
            assert_eq!(s.depleted_at(i), depleted, "t = {t}");
            assert_eq!(s.empty_probability(i), depleted as f64 / 7.0);
            assert_eq!(
                s.confidence_half_width(i),
                wilson_ci_half_width(depleted, 7, Z_95)
            );
        }
        assert_eq!(
            s.cumulative_counts(),
            vec![2, 3, 3, 4],
            "prefix sums over buckets"
        );
        // Moments agree with the observed sample.
        let m = s.mean_observed_lifetime().unwrap();
        assert!((m - (5.0 + 10.0 + 15.0 + 35.0 + 45.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_all_censored_studies_are_zero_curves() {
        let mut s = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        assert_eq!(s.total_runs(), 0);
        assert_eq!(s.empty_probability(0), 0.0);
        assert_eq!(s.max_half_width(), 0.0);
        assert_eq!(s.lifetime_quantile(0.5), None);
        s.fold(None).unwrap();
        s.fold(None).unwrap();
        assert_eq!(s.total_runs(), 2);
        assert_eq!(s.depleted_runs(), 0);
        assert_eq!(s.cumulative_counts(), vec![0; 4]);
        assert!(s.max_half_width() > 0.0, "all-zero curve keeps Wilson CI");
        assert_eq!(s.mean_observed_lifetime(), None);
    }

    #[test]
    fn rejects_bad_lifetimes() {
        let mut s = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        assert!(matches!(
            s.fold(Some(f64::NAN)),
            Err(StreamingError::InvalidLifetime(_))
        ));
        assert!(s.fold(Some(-1.0)).is_err());
        // Errors display something readable.
        let err = s.fold(Some(-1.0)).unwrap_err();
        assert!(err.to_string().contains("invalid lifetime"), "{err}");
        // A rejected outcome is not a run.
        assert_eq!(s.total_runs(), 0);
        s.fold(None).unwrap();
        assert!(s.fold(Some(f64::NAN)).is_err());
        assert_eq!(s.total_runs(), 1);
    }

    #[test]
    fn merge_equals_sequential_fold_on_counts() {
        let outcomes: Vec<Option<f64>> = (0..200)
            .map(|i| {
                if i % 5 == 0 {
                    None
                } else {
                    Some((i % 47) as f64)
                }
            })
            .collect();
        let mut whole = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        for o in &outcomes {
            whole.fold(*o).unwrap();
        }
        // Fold in two halves through fresh partials, then merge.
        let mut merged = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        for half in outcomes.chunks(100) {
            let mut part = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
            for o in half {
                part.fold(*o).unwrap();
            }
            merged.merge(&part);
        }
        assert_eq!(merged.total_runs(), whole.total_runs());
        assert_eq!(merged.cumulative_counts(), whole.cumulative_counts());
        assert_eq!(merged.depleted_runs(), whole.depleted_runs());
        // Integer state is exactly equal; moments agree to tolerance.
        let (a, b) = (
            merged.mean_observed_lifetime().unwrap(),
            whole.mean_observed_lifetime().unwrap(),
        );
        assert!((a - b).abs() < 1e-9);
        // And the same partition merged again is bit-identical.
        let mut again = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        for half in outcomes.chunks(100) {
            let mut part = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
            for o in half {
                part.fold(*o).unwrap();
            }
            again.merge(&part);
        }
        assert_eq!(again, merged);
    }

    #[test]
    fn quantiles_at_grid_resolution() {
        let mut s = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        for lifetime in [5.0, 15.0, 25.0, 35.0] {
            s.fold(Some(lifetime)).unwrap();
        }
        s.fold(None).unwrap(); // 4 of 5 depleted
        assert_eq!(s.lifetime_quantile(0.2), Some(10.0));
        assert_eq!(s.lifetime_quantile(0.4), Some(20.0));
        assert_eq!(s.lifetime_quantile(0.8), Some(40.0));
        // Beyond the depleted fraction: unidentified.
        assert_eq!(s.lifetime_quantile(0.9), None);
        assert_eq!(s.lifetime_quantile(1.5), None);
    }

    proptest::proptest! {
        /// The documented quantile: the smallest grid time at or after
        /// the order-statistics quantile of the same outcomes (the
        /// smallest observed lifetime `x` with `#{lifetimes ≤ x}/n ≥ q`,
        /// censored runs counting in `n` only), or `None` when that
        /// quantile is unidentified or lies past the last grid point.
        #[test]
        fn quantile_is_the_first_grid_time_at_or_after_the_order_statistic(
            raw in proptest::collection::vec(-20.0f64..50.0, 1..80),
            q in 0.001f64..=1.0,
            k in 0usize..80,
        ) {
            use proptest::prelude::*;
            // Negative draws are censored runs; flooring the rest puts
            // ties and exact grid hits into the sample.
            let outcomes: Vec<Option<f64>> =
                raw.iter().map(|&x| (x >= 0.0).then(|| x.floor())).collect();
            // Every other case asks for a level k/n the empirical CDF
            // reaches exactly, where `≥` and `>` part ways.
            let n = outcomes.len();
            let q = if k % 2 == 0 { q } else { (k / 2).clamp(1, n) as f64 / n as f64 };
            let mut s = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
            for &o in &outcomes {
                s.fold(o).unwrap();
            }
            let mut observed: Vec<f64> = outcomes.iter().flatten().copied().collect();
            observed.sort_by(f64::total_cmp);
            let order_statistic = (1..=observed.len())
                .find(|&k| k as f64 / n as f64 >= q)
                .map(|k| observed[k - 1]);
            let expected =
                order_statistic.and_then(|x| grid().into_iter().find(|&t| t >= x));
            prop_assert_eq!(s.lifetime_quantile(q), expected);
        }
    }

    #[test]
    fn memory_is_grid_bound() {
        // The accumulator's state never grows with the replication
        // count: buckets + moments only.
        let mut s = StreamingLifetimeStudy::new(grid(), 50.0).unwrap();
        let before = s.buckets.len();
        for i in 0..100_000u64 {
            s.fold(Some((i % 50) as f64)).unwrap();
        }
        assert_eq!(s.buckets.len(), before);
        assert_eq!(s.total_runs(), 100_000);
    }
}
