//! The parallel streaming Monte Carlo engine.
//!
//! [`run_study`] executes replications in fixed batches on scoped
//! workers (spawned with [`std::thread::scope`] and joined before it
//! returns; the calling thread is one of them) and folds them into a
//! [`StreamingLifetimeStudy`], making 10⁶–10⁷ replications practical:
//! memory is O(threads · grid) for the depletion counts plus one
//! 24-byte moment partial per 256-run batch (about 0.9 MB at 10⁷ runs).
//!
//! # Determinism: bit-identical for any thread count
//!
//! Three choices make a study's result a pure function of
//! `(grid, horizon, seed, runs, experiment)` — independent of how
//! many workers computed it:
//!
//! 1. **Counter-derived streams.** The `r`-th replication always draws
//!    from [`SimRng::stream`]`(master_seed, r)`; workers claim replication
//!    *indices*, they never share a sequential generator.
//! 2. **Fixed batch schedule.** Every batch holds 256 consecutive
//!    replication indices (the last one may be short). The schedule depends only on the run
//!    count, never on the worker count.
//! 3. **Exact counts, ordered moments.** Integer depletion counts add
//!    exactly in any order, so each worker sums its own. The
//!    floating-point moment sketch is kept per batch, and the partials
//!    are merged in batch-index order once the workers have joined, so
//!    one worker and eight perform the same floating-point operations
//!    in the same order.
//!
//! The run count is fixed up front. For a target sup-norm band `ε` at
//! confidence `1−α`, the Dvoretzky–Kiefer–Wolfowitz count
//! `⌈ln(2/α)/(2ε²)⌉` ([`numerics::stats::dkw_half_width`]'s inverse)
//! is known before the first replication runs.

use crate::rng::SimRng;
use crate::streaming::{StreamingError, StreamingLifetimeStudy};
use markov::budget::Budget;
use numerics::stats::StreamingMoments;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Errors from the streaming engine; `E` is the experiment's own error.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError<E> {
    /// The experiment failed: the error of the lowest-index failing
    /// batch (its first failing replication), whatever the thread count.
    Experiment(E),
    /// A grid/lifetime error from the accumulator.
    Streaming(StreamingError),
    /// A cooperative [`Budget`] check failed when a batch was claimed:
    /// the study was cancelled or ran past its deadline. Carries the
    /// replications of the batches that completed.
    DeadlineExceeded {
        /// The number of replications folded into the study before the
        /// budget expired.
        completed_runs: u64,
    },
}

impl<E: fmt::Display> fmt::Display for EngineError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Experiment(e) => write!(f, "experiment failed: {e}"),
            EngineError::Streaming(e) => write!(f, "{e}"),
            EngineError::DeadlineExceeded { completed_runs } => {
                write!(f, "deadline exceeded after {completed_runs} replications")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for EngineError<E> {}

impl<E> From<StreamingError> for EngineError<E> {
    fn from(e: StreamingError) -> Self {
        EngineError::Streaming(e)
    }
}

/// The number of replications per batch — the scheduling, moment-merge
/// and budget-check quantum. Small enough for load balancing, large
/// enough that claiming a batch (one atomic add) is negligible against
/// simulating it.
const BATCH: u64 = 256;

/// What one worker hands back once the cursor runs dry or it fails: the
/// depletion counts of the replications it folded, the moment partial of
/// each batch it completed, and the batch it failed on (it claims no
/// batch after a failure).
struct Drained<E> {
    counts: StreamingLifetimeStudy,
    moments: Vec<(usize, StreamingMoments)>,
    failure: Option<(usize, EngineError<E>)>,
}

/// Raises the stop flag when its worker unwinds, so a panicking
/// worker stops the other workers claiming, as a refused item does.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs `work` over the items `0..items` on `min(workers, items)`
/// workers, but always on the calling thread (so `workers ≤ 1` spawns no
/// helper): each worker claims the next index from one atomic cursor
/// as soon as it is free and folds its claims into its own `init()`
/// state. Returns the workers' states, the caller's first.
///
/// Every worker checks one stop flag before each claim. `work`
/// returning `false` raises it, and so does a worker that panics, as it
/// unwinds; no item is claimed after that. This is the scheduler of
/// both [`run_study`] and the planned scenario sweep.
///
/// # Panics
///
/// Re-raises a worker's panic on the caller's thread, with its payload,
/// once the workers have joined.
pub fn claim_all<S: Send>(
    workers: usize,
    items: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> bool + Sync,
) -> Vec<S> {
    // The cursor only hands out indices and the flag only stops the
    // claiming (results come back through `join`), so `Relaxed`
    // suffices for both.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let drain = || {
        let _stop_on_panic = StopOnPanic(&stop);
        let mut state = init();
        while !stop.load(Ordering::Relaxed) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= items {
                break;
            }
            if !work(&mut state, index) {
                stop.store(true, Ordering::Relaxed);
            }
        }
        state
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(items))
            .map(|_| scope.spawn(drain))
            .collect();
        let mut states = vec![drain()];
        for helper in helpers {
            states.push(
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        states
    })
}

/// Runs a study of `runs` replications on up to `threads` workers:
/// replications drawn from counter-derived streams of `master_seed`,
/// folded into a [`StreamingLifetimeStudy`] over `grid` (censoring
/// `horizon`), under a cooperative [`Budget`]. The experiment returns
/// the replication's lifetime (`Some`), censoring (`None`) or its own
/// error. The result is **bit-identical for any thread count** — see
/// the module docs for why. Zero runs give the empty study.
///
/// `min(threads, batches)` workers claim batch indices through
/// [`claim_all`]; the calling thread is one of them, so `threads ≤ 1`
/// runs the same loop with no helper spawned. The count is taken as given
/// (callers clamp it to the machine), so the thread-count tests
/// exercise real workers anywhere.
///
/// The budget is checked once per claimed batch. An exhausted budget
/// stops the claiming; batches already running finish, and the study
/// reports [`EngineError::DeadlineExceeded`] with the replications of
/// the completed batches. With [`Budget::unlimited`] the check is a
/// single branch.
///
/// # Errors
///
/// Grid validation errors up front. Otherwise the failure of the
/// lowest-index failing batch: [`EngineError::Experiment`] with the
/// experiment's error, [`EngineError::Streaming`] on NaN/negative
/// lifetimes, or [`EngineError::DeadlineExceeded`] when the budget
/// expired at that claim. Every lower batch was claimed earlier and ran
/// to completion, so an experiment error is the same at every thread
/// count.
///
/// # Panics
///
/// Re-raises a panic of the experiment on the caller's thread, with its
/// payload.
///
/// # Examples
///
/// ```
/// use markov::budget::Budget;
/// use sim::engine::run_study;
/// use std::convert::Infallible;
///
/// // Lifetimes ~ Exp(1), censored at 4.0.
/// let experiment = |rng: &mut sim::rng::SimRng| -> Result<_, Infallible> {
///     let t = rng.exponential(1.0);
///     Ok((t <= 4.0).then_some(t))
/// };
/// let study = run_study(2, vec![0.5, 1.0, 2.0], 4.0, 7, 4000, &experiment, &Budget::unlimited())
///     .unwrap();
/// assert_eq!(study.total_runs(), 4000);
/// let p = study.empty_probability(1); // ≈ 1 − e⁻¹
/// assert!((p - 0.632).abs() < 0.03);
/// ```
pub fn run_study<E: Send>(
    threads: usize,
    grid: Vec<f64>,
    horizon: f64,
    master_seed: u64,
    runs: u64,
    experiment: &(dyn Fn(&mut SimRng) -> Result<Option<f64>, E> + Sync),
    budget: &Budget,
) -> Result<StreamingLifetimeStudy, EngineError<E>> {
    let mut study = StreamingLifetimeStudy::new(grid, horizon)?;
    let batches = runs.div_ceil(BATCH) as usize;
    let batch = |index: usize| {
        let start = index as u64 * BATCH;
        start..(start + BATCH).min(runs)
    };
    let mut drained = claim_all(
        threads,
        batches,
        || Drained {
            counts: study.clone(), // empty, sharing the grid
            moments: Vec::new(),
            failure: None,
        },
        |done, index| {
            let counts = &mut done.counts;
            let ran = budget
                .check(counts.total_runs() as usize)
                .map_err(|_| EngineError::DeadlineExceeded { completed_runs: 0 })
                .and_then(|()| {
                    batch(index).try_for_each(|r| {
                        let outcome = experiment(&mut SimRng::stream(master_seed, r))
                            .map_err(EngineError::Experiment)?;
                        Ok(counts.fold(outcome)?)
                    })
                });
            match ran {
                Ok(()) => {
                    done.moments
                        .push((index, std::mem::take(&mut done.counts.moments)));
                    true
                }
                Err(e) => {
                    done.failure = Some((index, e));
                    false
                }
            }
        },
    );

    let mut parts: Vec<(usize, StreamingMoments)> = drained
        .iter_mut()
        .flat_map(|d| std::mem::take(&mut d.moments))
        .collect();
    let failure = drained
        .iter_mut()
        .filter_map(|d| d.failure.take())
        .min_by_key(|&(index, _)| index);
    match failure {
        Some((_, EngineError::DeadlineExceeded { .. })) => Err(EngineError::DeadlineExceeded {
            completed_runs: parts
                .iter()
                .map(|&(index, _)| batch(index))
                .map(|reps| reps.end - reps.start)
                .sum(),
        }),
        Some((_, e)) => Err(e),
        None => {
            for d in &drained {
                study.merge(&d.counts);
            }
            parts.sort_unstable_by_key(|&(index, _)| index);
            for (_, m) in &parts {
                study.moments.merge(m);
            }
            Ok(study)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// Exp(rate) lifetimes censored at `horizon`.
    fn exponential_experiment(
        rate: f64,
        horizon: f64,
    ) -> impl Fn(&mut SimRng) -> Result<Option<f64>, Infallible> + Sync {
        move |rng: &mut SimRng| {
            let t = rng.exponential(rate);
            Ok((t <= horizon).then_some(t))
        }
    }

    /// [`run_study`] with no deadline.
    fn study<E: Send>(
        threads: usize,
        grid: Vec<f64>,
        horizon: f64,
        seed: u64,
        runs: u64,
        experiment: &(dyn Fn(&mut SimRng) -> Result<Option<f64>, E> + Sync),
    ) -> Result<StreamingLifetimeStudy, EngineError<E>> {
        run_study(
            threads,
            grid,
            horizon,
            seed,
            runs,
            experiment,
            &Budget::unlimited(),
        )
    }

    #[test]
    fn study_results_are_bit_identical_across_thread_counts() {
        let grid = vec![0.25, 0.5, 1.0, 2.0, 3.0];
        let experiment = exponential_experiment(1.0, 3.0);
        let reference = study(1, grid.clone(), 3.0, 2024, 5000, &experiment).unwrap();
        for threads in 2..=8 {
            let got = study(threads, grid.clone(), 3.0, 2024, 5000, &experiment).unwrap();
            // PartialEq covers counts AND the f64 moment state: this is
            // bit-identity, not statistical agreement.
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn studies_match_theory() {
        let experiment = exponential_experiment(1.0, 5.0);
        for seed in 0..5 {
            let got = study(4, vec![0.5, 1.0, 2.0], 5.0, seed, 20_000, &experiment).unwrap();
            assert_eq!(got.total_runs(), 20_000);
            for (i, &t) in [0.5f64, 1.0, 2.0].iter().enumerate() {
                let theory = 1.0 - (-t).exp();
                let p = got.empty_probability(i);
                assert!((p - theory).abs() < 0.02, "seed {seed}, t {t}: {p}");
            }
        }
    }

    #[test]
    fn experiment_errors_propagate() {
        // Every replication whose first draw falls under 0.01 fails,
        // reporting that draw; the study reports the first of them.
        let failing = |rng: &mut SimRng| {
            let u = rng.uniform();
            if u < 0.01 {
                Err(u)
            } else {
                Ok(None)
            }
        };
        let first = (0..1000)
            .map(|r| SimRng::stream(5, r).uniform())
            .find(|&u| u < 0.01)
            .expect("some replication fails");
        for threads in [1usize, 2] {
            let err = study(threads, vec![1.0], 2.0, 5, 1000, &failing).expect_err("must fail");
            assert_eq!(err, EngineError::Experiment(first), "threads = {threads}");
        }
    }

    #[test]
    fn the_lowest_failing_batch_reports_its_error_at_every_thread_count() {
        // Two failing replications: the last of batch 1 and the first of
        // batch 2. With several workers, batch 1's failure waits until
        // batch 2 has failed on another worker, so the higher batch
        // fails first in time; batch 1's error is reported all the same.
        let draw = |r: u64| SimRng::stream(11, r).uniform();
        let (low, high) = (draw(2 * BATCH - 1), draw(2 * BATCH));
        for threads in [1usize, 2, 4] {
            let high_failed = AtomicBool::new(false);
            let failing = |rng: &mut SimRng| {
                let u = rng.uniform();
                if u == high {
                    high_failed.store(true, Ordering::Relaxed);
                    return Err(u.to_bits());
                }
                if u == low {
                    while threads > 1 && !high_failed.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    return Err(u.to_bits());
                }
                Ok(Some(u))
            };
            let err =
                study(threads, vec![0.5], 1.0, 11, 5 * BATCH, &failing).expect_err("must fail");
            assert_eq!(
                err,
                EngineError::Experiment(low.to_bits()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn a_panicking_experiment_propagates_and_does_not_deadlock() {
        // A panic unwinding out of a worker's experiment must reach the
        // caller with its payload, like one on the calling thread.
        let panicking = |rng: &mut SimRng| -> Result<Option<f64>, Infallible> {
            if rng.uniform() < 0.05 {
                panic!("boom in replication");
            }
            Ok(None)
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            study(3, vec![1.0], 2.0, 9, 500, &panicking)
        }));
        let payload = result.expect_err("panic must propagate, not deadlock");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in replication"));
    }

    #[test]
    fn grid_is_validated_and_zero_runs_give_the_empty_study() {
        let experiment = exponential_experiment(1.0, 2.0);
        // Grid validation flows through from the accumulator.
        assert!(matches!(
            study(1, vec![2.0, 1.0], 2.0, 1, 1000, &experiment),
            Err(EngineError::Streaming(StreamingError::InvalidGrid(_)))
        ));
        // A run count of zero schedules no batch: the empty study.
        for threads in [1usize, 4] {
            let empty = study(threads, vec![1.0], 2.0, 1, 0, &experiment).unwrap();
            assert_eq!(empty.total_runs(), 0, "threads = {threads}");
            assert_eq!(empty.empty_probability(0), 0.0);
        }
        // Errors display.
        let err: EngineError<&str> = EngineError::Experiment("no charge");
        assert!(err.to_string().contains("no charge"));
    }

    #[test]
    fn expired_budget_aborts_without_running() {
        let experiment = exponential_experiment(1.0, 2.0);
        for threads in [1usize, 4] {
            let err = run_study(
                threads,
                vec![1.0],
                2.0,
                1,
                10_000,
                &experiment,
                &Budget::cancelled_after_checks(0),
            )
            .expect_err("expired budget must abort");
            assert_eq!(err, EngineError::DeadlineExceeded { completed_runs: 0 });
        }
    }

    #[test]
    fn inline_budget_cancels_at_an_exact_batch_boundary() {
        // One worker: one check per batch, so cancelled_after_checks(k)
        // completes exactly k full batches before stopping.
        let err = run_study(
            1,
            vec![1.0],
            2.0,
            5,
            1000,
            &exponential_experiment(1.0, 2.0),
            &Budget::cancelled_after_checks(3),
        )
        .expect_err("budget must expire");
        assert_eq!(
            err,
            EngineError::DeadlineExceeded {
                completed_runs: 3 * BATCH
            }
        );
    }

    #[test]
    fn cancelled_budget_reports_partial_work_from_the_pool() {
        let budget = Budget::cancelled_after_checks(20);
        let err = run_study(
            4,
            vec![1.0],
            2.0,
            5,
            50_000,
            &exponential_experiment(1.0, 2.0),
            &budget,
        )
        .expect_err("budget must expire");
        let EngineError::DeadlineExceeded { completed_runs } = err else {
            panic!("wrong error: {err}");
        };
        // Batches already running at the failed check still finish; the
        // reported work is what they completed.
        assert!(completed_runs < 50_000, "ran to completion");
        assert_eq!(completed_runs % BATCH, 0, "whole batches only");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The determinism property: across random seeds and replication
        /// counts, the study 2–8 worker threads produce is bit-identical
        /// to the single-threaded study — counts, totals AND the f64
        /// moment sketches.
        #[test]
        fn studies_are_bit_identical_across_thread_counts(
            threads in 2usize..=8,
            seed in 0u64..1000,
            runs in 1u64..2000,
        ) {
            use proptest::prelude::*;
            let grid = vec![0.25, 0.5, 1.0, 2.0];
            let experiment = exponential_experiment(1.0, 2.0);
            let reference = study(1, grid.clone(), 2.0, seed, runs, &experiment).unwrap();
            let got = study(threads, grid, 2.0, seed, runs, &experiment).unwrap();
            prop_assert!(got == reference,
                "threads {} differ from one worker: {:?} vs {:?}", threads, got, reference);
        }
    }

    #[test]
    fn short_final_batch_and_tiny_runs_work() {
        // A run count that is not a multiple of the batch, and fewer
        // batches (or runs) than workers.
        let experiment = exponential_experiment(2.0, 10.0);
        for runs in [7, 2 * BATCH + 7] {
            let a = study(8, vec![1.0, 2.0], 10.0, 3, runs, &experiment).unwrap();
            assert_eq!(a.total_runs(), runs);
            let b = study(1, vec![1.0, 2.0], 10.0, 3, runs, &experiment).unwrap();
            assert_eq!(a, b, "runs = {runs}");
        }
    }
}
