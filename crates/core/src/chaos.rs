//! Deterministic fault injection for dependability testing.
//!
//! [`FaultInjectingSolver`] wraps any [`LifetimeSolver`] and injects a
//! seeded, reproducible mixture of faults at every solve entry point:
//!
//! * **errors** — a transient [`markov::MarkovError::NoConvergence`],
//!   the class the service's retry loop re-attempts and its circuit
//!   breaker counts;
//! * **panics** — an unwind out of the backend, exercising the
//!   service's poisoned-lock and flight-cleanup paths;
//! * **delays** — a bounded sleep before the real solve, widening race
//!   windows so concurrency bugs surface under test.
//!
//! The fault sequence is a pure function of the wrapper's seed and its
//! call counter — two wrappers with equal seeds and rates inject
//! identical fault sequences, so chaos tests are reproducible run to
//! run. The wrapper is a *test harness*, not a production feature: it
//! lives in the library (not `#[cfg(test)]`) so integration and
//! property tests can reach it, but nothing in the solving stack
//! depends on it.

use crate::distribution::LifetimeDistribution;
use crate::error::KibamRmError;
use crate::scenario::Scenario;
use crate::solver::{Capability, GroupState, LifetimeSolver, SolverOptions};
use markov::Budget;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault mixture and seed for a [`FaultInjectingSolver`].
///
/// The three rates are probabilities in `[0, 1]` evaluated in order
/// (error, then panic, then delay) against one uniform draw per solve
/// call, so their sum must not exceed 1. A delay is injected *before* a
/// successful pass-through solve; errors and panics replace it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the deterministic per-call fault sequence.
    pub seed: u64,
    /// Probability a call fails with a transient solve error.
    pub error_rate: f64,
    /// Probability a call panics.
    pub panic_rate: f64,
    /// Probability a call sleeps before solving.
    pub delay_rate: f64,
    /// Upper bound of an injected sleep (draws are uniform in
    /// `[0, max_delay]`).
    pub max_delay: Duration,
}

impl ChaosConfig {
    /// A configuration that injects nothing: pure pass-through.
    pub fn passthrough(seed: u64) -> Self {
        ChaosConfig {
            seed,
            error_rate: 0.0,
            panic_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_millis(1),
        }
    }

    /// Sets the transient-error rate.
    ///
    /// # Panics
    ///
    /// If the combined fault rates leave `[0, 1]` (NaN included).
    #[must_use]
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self.validated()
    }

    /// Sets the panic rate.
    ///
    /// # Panics
    ///
    /// If the combined fault rates leave `[0, 1]` (NaN included).
    #[must_use]
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self.validated()
    }

    /// Sets the delay rate and the sleep upper bound.
    ///
    /// # Panics
    ///
    /// If the combined fault rates leave `[0, 1]` (NaN included).
    #[must_use]
    pub fn with_delay(mut self, rate: f64, max_delay: Duration) -> Self {
        self.delay_rate = rate;
        self.max_delay = max_delay;
        self.validated()
    }

    fn validated(self) -> Self {
        let sum = self.error_rate + self.panic_rate + self.delay_rate;
        // NaN-rejecting: a NaN rate fails every comparison below.
        assert!(
            self.error_rate >= 0.0
                && self.panic_rate >= 0.0
                && self.delay_rate >= 0.0
                && sum <= 1.0,
            "chaos fault rates must be in [0, 1] and sum to at most 1, got \
             error={}, panic={}, delay={}",
            self.error_rate,
            self.panic_rate,
            self.delay_rate,
        );
        self
    }
}

/// Shared fault counters of one [`FaultInjectingSolver`] — clone the
/// handle before boxing the wrapper into a registry and read the tallies
/// after the dust settles.
#[derive(Debug, Clone, Default)]
pub struct ChaosLedger {
    inner: Arc<LedgerInner>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    calls: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    delays: AtomicU64,
}

impl ChaosLedger {
    /// Total solve calls that reached the wrapper.
    pub fn calls(&self) -> u64 {
        self.inner.calls.load(Ordering::SeqCst)
    }

    /// Transient errors injected.
    pub fn errors(&self) -> u64 {
        self.inner.errors.load(Ordering::SeqCst)
    }

    /// Panics injected.
    pub fn panics(&self) -> u64 {
        self.inner.panics.load(Ordering::SeqCst)
    }

    /// Delays injected.
    pub fn delays(&self) -> u64 {
        self.inner.delays.load(Ordering::SeqCst)
    }
}

/// What one call draw decided.
enum Fault {
    None,
    Error(u64),
    Panic(u64),
    Delay(Duration),
}

/// A [`LifetimeSolver`] wrapper that injects deterministic faults.
///
/// Everything observable about the backend — name, capability,
/// fingerprint, group state — is delegated unchanged, so a wrapped
/// solver is registry- and service-transparent: groups form the same
/// way, the breaker attributes failures to the *inner* backend's name,
/// and when no fault fires the answer is bit-identical to the unwrapped
/// solve.
pub struct FaultInjectingSolver {
    inner: Box<dyn LifetimeSolver>,
    config: ChaosConfig,
    ledger: ChaosLedger,
}

impl FaultInjectingSolver {
    /// Wraps `inner` with the given fault mixture.
    pub fn new(inner: Box<dyn LifetimeSolver>, config: ChaosConfig) -> Self {
        FaultInjectingSolver {
            inner,
            config: config.validated(),
            ledger: ChaosLedger::default(),
        }
    }

    /// A handle onto the wrapper's fault counters (clone it before
    /// boxing the wrapper away).
    pub fn ledger(&self) -> ChaosLedger {
        self.ledger.clone()
    }

    /// Draws the fault for the next call. Pure in `(seed, call index)`:
    /// the counter is the only mutable state, so concurrent callers
    /// partition one global fault sequence among themselves.
    fn draw(&self) -> Fault {
        let n = self.ledger.inner.calls.fetch_add(1, Ordering::SeqCst);
        let bits = splitmix64(self.config.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let u = uniform_unit(bits);
        let c = &self.config;
        if u < c.error_rate {
            self.ledger.inner.errors.fetch_add(1, Ordering::SeqCst);
            Fault::Error(n)
        } else if u < c.error_rate + c.panic_rate {
            self.ledger.inner.panics.fetch_add(1, Ordering::SeqCst);
            Fault::Panic(n)
        } else if u < c.error_rate + c.panic_rate + c.delay_rate {
            self.ledger.inner.delays.fetch_add(1, Ordering::SeqCst);
            let nanos = c.max_delay.as_nanos() as f64 * uniform_unit(splitmix64(bits));
            Fault::Delay(Duration::from_nanos(nanos as u64))
        } else {
            Fault::None
        }
    }

    /// Applies the drawn fault; `Ok(())` means "proceed with the real
    /// solve".
    fn inject(&self) -> Result<(), KibamRmError> {
        match self.draw() {
            Fault::None => Ok(()),
            Fault::Error(n) => Err(KibamRmError::Markov(markov::MarkovError::NoConvergence(
                format!("chaos: injected transient fault (call #{n})"),
            ))),
            Fault::Panic(n) => panic!("chaos: injected panic (call #{n})"),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }
}

impl std::fmt::Debug for FaultInjectingSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjectingSolver")
            .field("inner", &self.inner.name())
            .field("config", &self.config)
            .field("ledger", &self.ledger)
            .finish()
    }
}

impl LifetimeSolver for FaultInjectingSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capability(&self, scenario: &Scenario) -> Capability {
        self.inner.capability(scenario)
    }

    fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
        self.inject()?;
        self.inner.solve(scenario)
    }

    fn solve_with(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.inject()?;
        self.inner.solve_with(scenario, options)
    }

    fn solve_with_budget(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.inject()?;
        self.inner.solve_with_budget(scenario, options, budget)
    }

    fn sweep_fingerprint(&self, scenario: &Scenario) -> Option<u64> {
        self.inner.sweep_fingerprint(scenario)
    }

    fn sweep_cost(&self, scenario: &Scenario) -> Option<f64> {
        self.inner.sweep_cost(scenario)
    }

    fn new_group_state(&self, options: &SolverOptions) -> Option<Box<dyn GroupState>> {
        self.inner.new_group_state(options)
    }

    fn solve_in_group(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.inject()?;
        self.inner.solve_in_group(scenario, options, state)
    }

    fn solve_in_group_budgeted(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.inject()?;
        self.inner
            .solve_in_group_budgeted(scenario, options, state, budget)
    }
}

// The wrapper must be shareable across the service's worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FaultInjectingSolver>();
    assert_send_sync::<ChaosLedger>();
};

/// SplitMix64 — the standard 64-bit finaliser; a single pass is a good
/// enough bit mixer for fault scheduling.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The top 53 bits as a uniform draw in `[0, 1)`.
fn uniform_unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{DiscretisationSolver, SolverRegistry};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn scenario() -> Scenario {
        Scenario::paper_cell_phone()
            .unwrap()
            .with_delta(units::Charge::from_milliamp_hours(100.0))
    }

    fn wrapped(config: ChaosConfig) -> (FaultInjectingSolver, ChaosLedger) {
        let solver = FaultInjectingSolver::new(Box::new(DiscretisationSolver::new()), config);
        let ledger = solver.ledger();
        (solver, ledger)
    }

    #[test]
    fn passthrough_is_bit_identical_and_transparent() {
        let (chaos, ledger) = wrapped(ChaosConfig::passthrough(1));
        let s = scenario();
        let plain = DiscretisationSolver::new();
        let a = chaos.solve(&s).unwrap();
        let b = plain.solve(&s).unwrap();
        assert_eq!(a.points(), b.points());
        assert_eq!(chaos.name(), plain.name());
        assert_eq!(chaos.capability(&s), plain.capability(&s));
        assert_eq!(chaos.sweep_fingerprint(&s), plain.sweep_fingerprint(&s));
        assert_eq!(chaos.sweep_cost(&s), plain.sweep_cost(&s));
        assert_eq!(ledger.calls(), 1);
        assert_eq!(ledger.errors() + ledger.panics() + ledger.delays(), 0);
        assert!(format!("{chaos:?}").contains("FaultInjectingSolver"));
    }

    #[test]
    fn fault_sequence_is_deterministic_in_the_seed() {
        let observe = |seed: u64| -> Vec<u8> {
            let (chaos, _) = wrapped(
                ChaosConfig::passthrough(seed)
                    .with_error_rate(0.4)
                    .with_panic_rate(0.3),
            );
            (0..64)
                .map(
                    |_| match catch_unwind(AssertUnwindSafe(|| chaos.solve(&scenario()))) {
                        Ok(Ok(_)) => 0,
                        Ok(Err(_)) => 1,
                        Err(_) => 2,
                    },
                )
                .collect()
        };
        let a = observe(7);
        assert_eq!(a, observe(7), "same seed, same fault sequence");
        assert_ne!(a, observe(8), "different seed, different sequence");
        assert!(a.contains(&0) && a.contains(&1) && a.contains(&2));
    }

    #[test]
    fn injected_errors_are_transient_and_typed() {
        let (chaos, ledger) = wrapped(ChaosConfig::passthrough(3).with_error_rate(1.0));
        let err = chaos.solve(&scenario()).expect_err("always injects");
        assert!(matches!(
            err,
            KibamRmError::Markov(markov::MarkovError::NoConvergence(_))
        ));
        assert!(err.to_string().contains("chaos"));
        assert!(crate::service::ServiceError::Solve(err).retryable());
        assert_eq!((ledger.calls(), ledger.errors()), (1, 1));
    }

    #[test]
    fn injected_delays_still_answer_exactly() {
        let (chaos, ledger) =
            wrapped(ChaosConfig::passthrough(5).with_delay(1.0, Duration::from_millis(1)));
        let s = scenario();
        let a = chaos.solve(&s).unwrap();
        assert_eq!(
            a.points(),
            DiscretisationSolver::new().solve(&s).unwrap().points()
        );
        assert_eq!(ledger.delays(), 1);
    }

    #[test]
    fn wrapped_registry_still_groups_and_solves() {
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(FaultInjectingSolver::new(
            Box::new(DiscretisationSolver::new()),
            ChaosConfig::passthrough(11),
        )));
        let s = scenario();
        let viaregistry = registry.solve(&s).unwrap();
        let direct = DiscretisationSolver::new().solve(&s).unwrap();
        assert_eq!(viaregistry.points(), direct.points());
    }

    #[test]
    #[should_panic(expected = "fault rates")]
    fn invalid_rates_are_rejected() {
        let _ = ChaosConfig::passthrough(1)
            .with_error_rate(0.8)
            .with_panic_rate(0.8);
    }
}
