//! Chaos tests: the resident service under deterministic fault
//! injection. A [`kibamrm::chaos::FaultInjectingSolver`] wraps the
//! backend with seeded error / panic / delay faults while worker threads
//! hammer the service; the invariants under test are the dependability
//! claims of the service layer itself:
//!
//! * the service never wedges — every request returns an answer, a
//!   typed error, or propagates the injected panic (and the test run
//!   itself terminates);
//! * no flight leaks — after the storm drains, `in_flight` is zero and
//!   fresh queries are admitted normally;
//! * no poisoned results — anything the cache serves afterwards is
//!   bit-identical to the unwrapped backend's exact answer;
//! * the stats ledger stays consistent across thread counts 1–8.

use kibamrm::chaos::{ChaosConfig, FaultInjectingSolver};
use kibamrm::distribution::LifetimeDistribution;
use kibamrm::scenario::Scenario;
use kibamrm::service::{Answer, LifetimeService, QueryOptions, ServiceConfig, ServiceError};
use kibamrm::solver::{Budget, Capability, GroupState, LifetimeSolver, SolverRegistry};
use kibamrm::workload::Workload;
use kibamrm::KibamRmError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use units::{Charge, Current, Frequency, Time};

/// A cheap exact backend with scenario-distinguishable answers.
struct Inner {
    solves: Arc<AtomicUsize>,
}

impl LifetimeSolver for Inner {
    fn name(&self) -> &'static str {
        "inner"
    }
    fn capability(&self, _s: &Scenario) -> Capability {
        Capability::Exact
    }
    fn solve_in(
        &self,
        s: &Scenario,
        _state: Option<&mut GroupState>,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // No check points of its own, so it fails fast on a budget an
        // injected delay has already spent, as the trait asks.
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        self.solves.fetch_add(1, Ordering::SeqCst);
        let n = s.times().len() as f64;
        let bias = s.capacity().as_amp_seconds() % 1.0 / 10.0;
        let points = s
            .times()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, ((i as f64 + bias) / n).clamp(0.0, 1.0)))
            .collect();
        LifetimeDistribution::new("inner", points, Default::default())
    }
}

fn pool_scenario(i: usize) -> Scenario {
    let w =
        Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96)).unwrap();
    Scenario::builder()
        .name("chaos")
        .workload(w)
        .capacity(Charge::from_amp_seconds(60.0 + i as f64))
        .linear()
        .times(
            (1..=8)
                .map(|k| Time::from_seconds(k as f64 * 20.0))
                .collect(),
        )
        .delta(Charge::from_amp_seconds(0.5))
        .simulation(40, 11)
        .build()
        .unwrap()
}

/// Builds a service whose only backend injects the given fault mixture,
/// plus a handle onto the unwrapped backend's solve counter.
fn chaotic_service(config: ChaosConfig, service_config: ServiceConfig) -> Arc<LifetimeService> {
    let chaos = FaultInjectingSolver::new(
        Box::new(Inner {
            solves: Arc::new(AtomicUsize::new(0)),
        }),
        config,
    );
    let mut registry = SolverRegistry::empty();
    registry.register(Box::new(chaos));
    Arc::new(LifetimeService::with_config(registry, service_config))
}

/// One worker's tally of how its requests ended.
#[derive(Default, Debug, Clone, Copy)]
struct Tally {
    ok: usize,
    typed_errors: usize,
    panics: usize,
}

/// Runs `threads` workers, each issuing `per_thread` queries round-robin
/// over a small scenario pool, catching injected panics. Returns the
/// merged tally.
fn storm(
    service: &Arc<LifetimeService>,
    threads: usize,
    per_thread: usize,
    opts: QueryOptions,
    check: fn(&Answer),
) -> Tally {
    let barrier = Arc::new(Barrier::new(threads));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let (service, barrier, opts) = (Arc::clone(service), Arc::clone(&barrier), opts);
            std::thread::spawn(move || {
                barrier.wait();
                let mut tally = Tally::default();
                for i in 0..per_thread {
                    let s = pool_scenario((t + i) % 6);
                    match catch_unwind(AssertUnwindSafe(|| service.query_with(&s, &opts))) {
                        Ok(Ok(answer)) => {
                            check(&answer);
                            tally.ok += 1;
                        }
                        Ok(Err(e)) => {
                            // Every failure is a *typed* service error
                            // with a printable message.
                            assert!(!e.to_string().is_empty());
                            tally.typed_errors += 1;
                        }
                        Err(payload) => {
                            let msg = payload
                                .downcast_ref::<String>()
                                .cloned()
                                .unwrap_or_default();
                            assert!(
                                msg.contains("chaos"),
                                "only injected panics may escape, got {msg:?}"
                            );
                            tally.panics += 1;
                        }
                    }
                }
                tally
            })
        })
        .collect();
    let mut merged = Tally::default();
    for w in workers {
        let t = w.join().expect("worker threads never die unexpectedly");
        merged.ok += t.ok;
        merged.typed_errors += t.typed_errors;
        merged.panics += t.panics;
    }
    merged
}

/// After a storm the service must be fully drained and healthy: no
/// leaked flights, and every pool scenario answerable — with answers
/// bit-identical to the unwrapped backend (nothing poisoned was cached).
fn assert_drained_and_unpoisoned(service: &Arc<LifetimeService>, total_requests: usize) {
    let stats = service.stats();
    assert_eq!(stats.in_flight, 0, "a flight leaked: {stats:?}");
    assert!(
        stats.hits + stats.misses + stats.joined <= total_requests as u64,
        "admission ledger overcounts: {stats:?}"
    );
    let reference = Inner {
        solves: Arc::new(AtomicUsize::new(0)),
    };
    for i in 0..6 {
        let s = pool_scenario(i);
        let exact = reference.solve(&s).unwrap();
        // Chaos may still inject on a re-solve; retry until the answer
        // comes back (bounded — the fault sequence has gaps).
        let mut answer = None;
        for _ in 0..64 {
            if let Ok(Ok(a)) = catch_unwind(AssertUnwindSafe(|| service.query(&s))) {
                answer = Some(a);
                break;
            }
        }
        let answer = answer.expect("service must stay answerable after the storm");
        assert_eq!(
            answer.points(),
            exact.points(),
            "cached or fresh answer differs from the exact backend: poisoned result"
        );
    }
    assert_eq!(service.stats().in_flight, 0);
}

#[test]
fn chaos_storm_never_wedges_across_thread_counts() {
    for threads in 1..=8usize {
        let config = ChaosConfig::passthrough(0xC0FFEE ^ threads as u64)
            .with_error_rate(0.2)
            .with_panic_rate(0.1)
            .with_delay(0.2, Duration::from_millis(1));
        let service = chaotic_service(config, ServiceConfig::default().with_max_in_flight(64));
        let per_thread = 24;
        let tally = storm(
            &service,
            threads,
            per_thread,
            QueryOptions::new(),
            |answer| assert!(!answer.is_degraded(), "nothing asked for degradation"),
        );
        let total = threads * per_thread;
        assert_eq!(
            tally.ok + tally.typed_errors + tally.panics,
            total,
            "every request must be accounted for ({threads} threads)"
        );
        assert!(
            tally.ok > 0,
            "some requests must succeed ({threads} threads)"
        );
        assert_drained_and_unpoisoned(&service, total + 6 * 64);
    }
}

#[test]
fn chaos_deadlines_degrade_instead_of_failing() {
    // Heavy injected delay + a tight deadline: exact solves time out,
    // but degraded answers (fast Monte Carlo — the cache starts cold)
    // keep the service useful, each with an explicit bound.
    let config = ChaosConfig::passthrough(13).with_delay(1.0, Duration::from_millis(40));
    let service = chaotic_service(config, ServiceConfig::default());
    let opts = QueryOptions::new()
        .with_deadline(Duration::from_millis(4))
        .allow_degraded();
    let mut degraded = 0;
    for i in 0..12 {
        match service.query_with(&pool_scenario(i % 6), &opts) {
            Ok(answer) => {
                if answer.is_degraded() {
                    degraded += 1;
                    let bound = answer.bound().expect("degraded answers carry a bound");
                    assert!(
                        bound.is_finite() && (0.0..=1.0).contains(&bound),
                        "bound {bound} is not a probability error bound"
                    );
                }
            }
            Err(e) => assert!(
                matches!(
                    e,
                    ServiceError::DeadlineExceeded { .. } | ServiceError::Solve(_)
                ),
                "unexpected error under deadline chaos: {e}"
            ),
        }
    }
    let stats = service.stats();
    assert!(degraded > 0, "some requests must degrade: {stats:?}");
    assert_eq!(stats.degraded_served, degraded);
    assert!(stats.deadline_expired >= stats.degraded_served);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn degraded_answers_lie_within_their_bound_of_the_exact_curve() {
    // The pool scenarios are linear (c = 1), so Sericola's exact curve
    // is an independent reference for the fast Monte Carlo estimate an
    // expired request is served: the DKW bound it advertises must hold
    // against it in sup norm, at each scenario's own seed.
    let service = LifetimeService::new(SolverRegistry::with_default_backends());
    let exact = SolverRegistry::with_default_backends();
    let opts = QueryOptions::new()
        .with_deadline(Duration::ZERO)
        .allow_degraded();
    for i in 0..6 {
        let scenario = pool_scenario(i);
        let answer = service
            .query_with(&scenario, &opts)
            .expect("degraded answer");
        let Answer::Degraded { dist, bound } = answer else {
            panic!("an expired deadline cannot be answered exactly: {answer:?}");
        };
        assert!(
            bound.is_finite() && bound > 0.0 && bound < 1.0,
            "bound {bound} is not a probability error bound"
        );
        let reference = exact.solve(&scenario).unwrap();
        assert_eq!(reference.method(), "sericola");
        let error = dist.max_difference(&reference).unwrap();
        assert!(
            error <= bound,
            "scenario {i}: sup |MC - Sericola| = {error} exceeds the served bound {bound}"
        );
    }
    let stats = service.stats();
    assert_eq!((stats.deadline_expired, stats.degraded_served), (6, 6));
}
