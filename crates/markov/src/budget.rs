//! Cooperative cancellation for the long-running engines.
//!
//! A [`Budget`] is a shared token carrying an optional wall-clock
//! deadline, which the iteration-granular hot loops check
//! cooperatively: the uniformisation sweep in [`crate::transient`] once
//! per matrix–vector product, and the Monte Carlo batch loop in the
//! `sim` crate once per batch checkpoint. When a check fails the engine
//! abandons the remaining work and surfaces
//! [`MarkovError::DeadlineExceeded`] carrying the work it completed, so
//! callers can report progress or fall back to a degraded answer.
//!
//! Cancellation is *cooperative*: an engine is interrupted only at its
//! check points, never mid-product, so a cancelled solve leaves every
//! shared structure (e.g. [`crate::transient::CurveCache`]) in the same
//! consistent state a shorter solve would have — re-running the same
//! solve to completion is bit-identical to never having cancelled.
//!
//! The default token is [`Budget::unlimited`], whose check compiles down
//! to a single branch on a `None` — the uncancelled hot path pays no
//! atomic load, no clock read, and performs exactly the same floating
//! point work in the same order as an unbudgeted engine.

use crate::MarkovError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared state behind an active budget.
#[derive(Debug)]
struct BudgetState {
    /// Wall-clock point after which every check fails.
    deadline: Option<Instant>,
    /// Deterministic test mode: number of further checks allowed to
    /// pass. `u64::MAX` disables the counter (the production setting).
    checks_left: AtomicU64,
}

/// A shared deadline token, checked at iteration granularity by the
/// long-running engines.
///
/// `Clone` is O(1) and shares the underlying state: a budget cloned into
/// a worker expires with the original, and the deterministic check
/// count of [`Budget::cancelled_after_checks`] is spent by all clones
/// together.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    state: Option<Arc<BudgetState>>,
}

impl Budget {
    /// A budget that never expires. Checks against it are a single
    /// branch — this is the token every non-budgeted entry point uses,
    /// keeping the uncancelled hot path overhead-free.
    pub fn unlimited() -> Self {
        Budget { state: None }
    }

    /// A budget that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Budget::with_deadline_at(Instant::now() + timeout)
    }

    /// A budget that expires at `deadline`, a fixed instant: a request
    /// that waits before its solve starts keeps the deadline it arrived
    /// with.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        Budget {
            state: Some(Arc::new(BudgetState {
                deadline: Some(deadline),
                checks_left: AtomicU64::new(u64::MAX),
            })),
        }
    }

    /// Deterministic test budget: the first `k` checks pass, every
    /// later one fails. This is how the cancellation-correctness tests
    /// interrupt a solve at exactly iteration `k` without racing a
    /// clock.
    pub fn cancelled_after_checks(k: u64) -> Self {
        Budget {
            state: Some(Arc::new(BudgetState {
                deadline: None,
                checks_left: AtomicU64::new(k),
            })),
        }
    }

    /// Whether the budget is already exhausted, without consuming a
    /// deterministic check. Callers use this to fail fast before
    /// starting any work at all.
    pub fn is_exhausted(&self) -> bool {
        let Some(state) = &self.state else {
            return false;
        };
        if state.checks_left.load(Ordering::Relaxed) == 0 {
            return true;
        }
        state.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// One cooperative check point. Returns
    /// [`MarkovError::DeadlineExceeded`] — reporting `completed` units
    /// of work done so far — when the budget is past its deadline or out
    /// of deterministic checks.
    ///
    /// # Errors
    ///
    /// [`MarkovError::DeadlineExceeded`] as described above.
    #[inline]
    pub fn check(&self, completed: usize) -> Result<(), MarkovError> {
        let Some(state) = &self.state else {
            return Ok(());
        };
        self.check_active(state, completed)
    }

    /// The slow path of [`check`](Budget::check), kept out of line so
    /// the unlimited fast path stays a single branch.
    #[cold]
    fn check_active(&self, state: &BudgetState, completed: usize) -> Result<(), MarkovError> {
        // Deterministic counter: decrement one permit per check; a
        // budget out of permits stays exhausted (saturating at zero).
        if state
            .checks_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(1)
            })
            .is_err()
        {
            return Err(MarkovError::DeadlineExceeded { completed });
        }
        if state.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(MarkovError::DeadlineExceeded { completed });
        }
        Ok(())
    }
}

// Budgets cross thread boundaries by design: a solve's row and
// replication workers check clones of the request's budget.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Budget>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails() {
        let b = Budget::unlimited();
        assert!(!b.is_exhausted());
        for i in 0..1000 {
            assert!(b.check(i).is_ok());
        }
    }

    #[test]
    fn deterministic_checks_expire_exactly_at_k() {
        let b = Budget::cancelled_after_checks(3);
        for i in 0..3 {
            assert!(b.check(i).is_ok(), "check {i} should pass");
        }
        assert!(b.is_exhausted());
        assert_eq!(
            b.check(3),
            Err(MarkovError::DeadlineExceeded { completed: 3 })
        );
        // Stays exhausted (no counter wrap-around).
        assert!(b.check(4).is_err());
    }

    #[test]
    fn expired_deadline_fails_immediately() {
        let b = Budget::with_deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(b.is_exhausted());
        assert_eq!(
            b.check(0),
            Err(MarkovError::DeadlineExceeded { completed: 0 })
        );
    }

    #[test]
    fn future_deadline_passes_until_reached() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert!(!b.is_exhausted());
        assert!(b.check(0).is_ok());
    }

    #[test]
    fn is_exhausted_does_not_consume_checks() {
        let b = Budget::cancelled_after_checks(1);
        for _ in 0..10 {
            assert!(!b.is_exhausted());
        }
        assert!(b.check(0).is_ok());
        assert!(b.is_exhausted());
    }
}
