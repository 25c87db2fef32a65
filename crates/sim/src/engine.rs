//! The parallel streaming Monte Carlo engine.
//!
//! [`run_study`] executes replications in batches on scoped workers
//! (spawned with [`std::thread::scope`], joined before it
//! returns) and folds them into a [`StreamingLifetimeStudy`], making
//! 10⁶–10⁷ replications practical: memory stays O(time-grid + threads),
//! never O(runs).
//!
//! # Determinism: bit-identical for any thread count
//!
//! Three choices make a study's result a pure function of
//! `(grid, horizon, seed, runs, experiment)` — independent of how
//! many workers computed it:
//!
//! 1. **Counter-derived streams.** Replication `r` always draws from
//!    [`SimRng::stream`]`(master_seed, r)`; workers claim replication
//!    *indices*, they never share a sequential generator.
//! 2. **Fixed batch schedule.** Replications are grouped into batches of
//!    256 consecutive indices. The schedule depends only on the run
//!    count, never on the worker count.
//! 3. **In-order merging.** Batch partials are merged into the study in
//!    batch-index order (out-of-order completions wait in a bounded
//!    buffer). The sequential path uses the *same* batch-then-merge
//!    structure, so `threads = 1` and `threads = 8` perform the exact
//!    same floating-point operations in the same order.
//!
//! The run count is fixed up front. For a target sup-norm band `ε` at
//! confidence `1−α`, the Dvoretzky–Kiefer–Wolfowitz count
//! `⌈ln(2/α)/(2ε²)⌉` ([`numerics::stats::dkw_half_width`]'s inverse)
//! is known before the first replication runs.

use crate::rng::SimRng;
use crate::streaming::{StreamingError, StreamingLifetimeStudy};
use markov::budget::Budget;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// One replication's outcome, as reported by the experiment closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Replication {
    /// The battery emptied at the given time (`≤` horizon).
    Depleted(f64),
    /// The battery outlived the horizon.
    Censored,
    /// Abort the whole study (the caller records the underlying error
    /// itself — e.g. in a mutex the experiment closure captures — and
    /// the engine returns [`EngineError::Aborted`]).
    Abort,
}

/// Errors from the streaming engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The experiment returned [`Replication::Abort`].
    Aborted,
    /// A grid/lifetime/merge error from the accumulator.
    Streaming(StreamingError),
    /// A cooperative [`Budget`] check failed at a batch checkpoint: the
    /// study was cancelled or ran past its deadline. Carries the
    /// replications merged before the interruption.
    DeadlineExceeded {
        /// Replications folded into the study before the budget expired.
        completed_runs: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Aborted => write!(f, "experiment aborted the study"),
            EngineError::Streaming(e) => write!(f, "{e}"),
            EngineError::DeadlineExceeded { completed_runs } => {
                write!(f, "deadline exceeded after {completed_runs} replications")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StreamingError> for EngineError {
    fn from(e: StreamingError) -> Self {
        EngineError::Streaming(e)
    }
}

/// Replications per batch — the scheduling, merge and budget-check
/// quantum. Small enough for load balancing, large enough that claiming
/// a batch (one channel send/recv) is negligible against simulating it.
const BATCH: u64 = 256;

/// Why a batch produced no partial: an engine error, or a panic that
/// unwound out of the experiment closure (its payload is carried back so
/// the dispatcher can re-raise it on the caller's thread once every
/// worker has stopped).
enum BatchFailure {
    Error(EngineError),
    Panicked(Box<dyn std::any::Any + Send>),
}

type Completion = (usize, Result<StreamingLifetimeStudy, BatchFailure>);

/// Runs a study of `runs` replications on up to `threads` workers:
/// replications drawn from counter-derived streams of `master_seed`,
/// folded into a [`StreamingLifetimeStudy`] over `grid` (censoring
/// `horizon`), under a cooperative [`Budget`]. The result is
/// **bit-identical for any thread count** — see the module docs for
/// why. Zero runs give the empty study.
///
/// The workers are spawned inside [`std::thread::scope`] and joined
/// before it returns, so the experiment is an ordinary borrow.
/// `threads ≤ 1`, or a study of one batch, runs the same batches inline
/// on the caller's thread. The count is taken as given (callers clamp
/// it to the machine), so the thread-count tests exercise real workers
/// anywhere.
///
/// The budget is checked once per batch checkpoint (the scheduling and
/// merge quantum). An exhausted budget stops dispatching, lets the
/// batches in flight finish, and returns
/// [`EngineError::DeadlineExceeded`] with the replications merged so
/// far. With [`Budget::unlimited`] the check is a single branch.
///
/// # Errors
///
/// Grid validation errors up front; [`EngineError::Aborted`] when the
/// experiment returns [`Replication::Abort`] (the caller records the
/// underlying error itself); [`EngineError::Streaming`] on
/// NaN/negative lifetimes; [`EngineError::DeadlineExceeded`] when the
/// budget expires.
///
/// # Panics
///
/// Re-raises a panic of the experiment on the caller's thread.
///
/// # Examples
///
/// ```
/// use markov::budget::Budget;
/// use sim::engine::{run_study, Replication};
///
/// // Lifetimes ~ Exp(1), censored at 4.0.
/// let experiment = |rng: &mut sim::rng::SimRng| {
///     let t = rng.exponential(1.0);
///     if t <= 4.0 { Replication::Depleted(t) } else { Replication::Censored }
/// };
/// let study = run_study(2, vec![0.5, 1.0, 2.0], 4.0, 7, 4000, &experiment, &Budget::unlimited())
///     .unwrap();
/// assert_eq!(study.total_runs(), 4000);
/// let p = study.empty_probability(1); // ≈ 1 − e⁻¹
/// assert!((p - 0.632).abs() < 0.03);
/// ```
pub fn run_study(
    threads: usize,
    grid: Vec<f64>,
    horizon: f64,
    master_seed: u64,
    runs: u64,
    experiment: &(dyn Fn(&mut SimRng) -> Replication + Sync),
    budget: &Budget,
) -> Result<StreamingLifetimeStudy, EngineError> {
    let mut merged = StreamingLifetimeStudy::new(grid, horizon)?;
    let batches: Vec<Range<u64>> = (0..runs)
        .step_by(BATCH as usize)
        .map(|start| start..(start + BATCH).min(runs))
        .collect();
    let workers = threads.min(batches.len());
    if workers <= 1 {
        // Inline path: same batch-partial-then-merge structure as
        // the workers, so the floating-point operation sequence is
        // identical — this is the bit-identity anchor.
        for batch in batches {
            if budget.check(merged.total_runs() as usize).is_err() {
                return Err(EngineError::DeadlineExceeded {
                    completed_runs: merged.total_runs(),
                });
            }
            let partial = batch_partial(
                merged.shared_grid(),
                merged.horizon(),
                master_seed,
                batch,
                experiment,
            )?;
            merged.merge(&partial)?;
        }
        return Ok(merged);
    }

    // Workers claim batches from one queue; completions are merged in
    // batch order. Dispatch stays at most `cap` batches ahead of the
    // merge watermark, so out-of-order completions wait in a buffer of
    // at most `cap` partials — memory is O(threads · grid) regardless
    // of the replication count.
    let cap = 2 * workers;
    let (job_tx, job_rx) = channel::<(usize, Range<u64>)>();
    let job_rx = Mutex::new(job_rx);
    let (grid, horizon) = (merged.shared_grid(), merged.horizon());
    let failure = std::thread::scope(|scope| {
        // Owned by this closure: however it exits, dropping the sender
        // ends every worker loop before the scope joins them.
        let job_tx = job_tx;
        let (done_tx, done_rx) = channel::<Completion>();
        for _ in 0..workers {
            let (job_rx, grid, done_tx) = (&job_rx, &grid, done_tx.clone());
            scope.spawn(move || {
                worker_loop(job_rx, &done_tx, grid, horizon, master_seed, experiment);
            });
        }
        drop(done_tx);
        let mut next = 0usize; // next batch to dispatch
        let mut watermark = 0usize; // batches merged so far
        let mut in_flight = 0usize;
        let mut pending: BTreeMap<usize, StreamingLifetimeStudy> = BTreeMap::new();
        let mut failure: Option<BatchFailure> = None;
        loop {
            while failure.is_none() && next < batches.len() && next < watermark + cap {
                // Budget checkpoint per dispatched batch. An exhausted
                // budget stops dispatching; the batches in flight still
                // finish and are collected below.
                if budget.check(next.saturating_mul(BATCH as usize)).is_err() {
                    failure = Some(BatchFailure::Error(EngineError::DeadlineExceeded {
                        completed_runs: 0, // patched with the merged total below
                    }));
                    break;
                }
                job_tx
                    .send((next, batches[next].clone()))
                    .expect("mc worker hung up");
                next += 1;
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let (index, result) = done_rx.recv().expect("mc worker died");
            in_flight -= 1;
            match result {
                Err(f) => {
                    // First failure wins, except that a panic always
                    // displaces a plain error — swallowing a panic
                    // payload would hide the bug that caused it.
                    let panicked = matches!(f, BatchFailure::Panicked(_));
                    if failure.is_none()
                        || (panicked && !matches!(failure, Some(BatchFailure::Panicked(_))))
                    {
                        failure = Some(f);
                    }
                }
                Ok(partial) => {
                    pending.insert(index, partial);
                }
            }
            if failure.is_none() {
                while let Some(partial) = pending.remove(&watermark) {
                    if let Err(e) = merged.merge(&partial) {
                        failure.get_or_insert(BatchFailure::Error(e.into()));
                        break;
                    }
                    watermark += 1;
                }
            }
        }
        debug_assert!(
            failure.is_some() || watermark == batches.len(),
            "every batch merged"
        );
        failure
    });
    match failure {
        // Report what actually landed in the study, not what was
        // dispatched: merged replications are the usable work.
        Some(BatchFailure::Error(EngineError::DeadlineExceeded { .. })) => {
            Err(EngineError::DeadlineExceeded {
                completed_runs: merged.total_runs(),
            })
        }
        Some(BatchFailure::Error(e)) => Err(e),
        // The scope has joined every worker, so the panic resumes on
        // the caller's thread — the same observable behaviour as the
        // inline path.
        Some(BatchFailure::Panicked(payload)) => std::panic::resume_unwind(payload),
        None => Ok(merged),
    }
}

/// Folds the replications of one batch into a fresh partial. Shared by
/// the inline and worker paths — bit-identity across thread counts
/// reduces to "same batches, same merge order".
fn batch_partial(
    grid: Arc<[f64]>,
    horizon: f64,
    master_seed: u64,
    reps: Range<u64>,
    experiment: &(dyn Fn(&mut SimRng) -> Replication + Sync),
) -> Result<StreamingLifetimeStudy, EngineError> {
    let mut partial = StreamingLifetimeStudy::from_shared_grid(grid, horizon);
    for r in reps {
        let mut rng = SimRng::stream(master_seed, r);
        match experiment(&mut rng) {
            Replication::Depleted(t) => partial.fold(Some(t))?,
            Replication::Censored => partial.fold(None)?,
            Replication::Abort => return Err(EngineError::Aborted),
        }
    }
    Ok(partial)
}

fn worker_loop(
    jobs: &Mutex<Receiver<(usize, Range<u64>)>>,
    done: &Sender<Completion>,
    grid: &Arc<[f64]>,
    horizon: f64,
    master_seed: u64,
    experiment: &(dyn Fn(&mut SimRng) -> Replication + Sync),
) {
    loop {
        // Hold the queue lock only for the claim, not the computation.
        let claimed = { jobs.lock().expect("mc queue poisoned").recv() };
        let Ok((batch_index, reps)) = claimed else {
            return;
        };
        // A panicking experiment must still produce its completion
        // message — a swallowed unwind would leave the dispatcher
        // waiting forever — so the unwind is caught here and re-raised
        // on the caller's thread once every worker is joined.
        // (AssertUnwindSafe: the only state crossing the boundary is
        // the experiment's own captured state, which the panic already
        // exposes on the inline path too.)
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch_partial(Arc::clone(grid), horizon, master_seed, reps, experiment)
        }));
        let result = match result {
            Ok(Ok(partial)) => Ok(partial),
            Ok(Err(e)) => Err(BatchFailure::Error(e)),
            Err(payload) => Err(BatchFailure::Panicked(payload)),
        };
        if done.send((batch_index, result)).is_err() {
            return; // the dispatcher stopped listening
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exp(rate) lifetimes censored at `horizon`.
    fn exponential_experiment(
        rate: f64,
        horizon: f64,
    ) -> impl Fn(&mut SimRng) -> Replication + Sync {
        move |rng: &mut SimRng| {
            let t = rng.exponential(rate);
            if t <= horizon {
                Replication::Depleted(t)
            } else {
                Replication::Censored
            }
        }
    }

    /// [`run_study`] with no deadline.
    fn study(
        threads: usize,
        grid: Vec<f64>,
        horizon: f64,
        seed: u64,
        runs: u64,
        experiment: &(dyn Fn(&mut SimRng) -> Replication + Sync),
    ) -> Result<StreamingLifetimeStudy, EngineError> {
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
    fn abort_propagates() {
        let aborting = |rng: &mut SimRng| {
            if rng.uniform() < 0.01 {
                Replication::Abort
            } else {
                Replication::Censored
            }
        };
        for threads in [1usize, 2] {
            let err = study(threads, vec![1.0], 2.0, 5, 1000, &aborting).expect_err("must abort");
            assert_eq!(err, EngineError::Aborted, "threads = {threads}");
        }
    }

    #[test]
    fn a_panicking_experiment_propagates_and_does_not_deadlock() {
        // Regression: a panic unwinding out of a worker's experiment
        // used to swallow the worker's completion message, deadlocking
        // the dispatcher. It must propagate to the caller, with its
        // payload, like the inline path.
        let panicking = |rng: &mut SimRng| {
            if rng.uniform() < 0.05 {
                panic!("boom in replication");
            }
            Replication::Censored
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
        assert!(EngineError::Aborted.to_string().contains("aborted"));
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
        // Inline path: one check per batch, so cancelled_after_checks(k)
        // merges exactly k full batches before stopping.
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
        // Some batches may still have been in flight (unmerged) at the
        // checkpoint; the reported work is what landed in the study.
        assert!(completed_runs < 50_000, "ran to completion");
        assert_eq!(completed_runs % BATCH, 0, "whole batches only");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The determinism property: across random seeds and replication
        /// counts, the study 2–8 worker threads produce is bit-identical
        /// to the inline single-threaded study — counts, totals AND the
        /// f64 moment sketches.
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
                "threads {} differ from inline: {:?} vs {:?}", threads, got, reference);
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
