//! Concurrency properties of the resident query service
//! (`kibamrm::service::LifetimeService`): N identical concurrent
//! requests cost exactly one solve and every caller sees bit-identical
//! points, across thread counts 1–8; and the service's answers are
//! bit-identical to independent `SolverRegistry::solve` calls — the
//! cross-request cache is an optimisation, never an approximation.

use kibamrm::distribution::LifetimeDistribution;
use kibamrm::scenario::Scenario;
use kibamrm::service::LifetimeService;
use kibamrm::solver::{Budget, Capability, GroupState, LifetimeSolver, SolverRegistry};
use kibamrm::workload::Workload;
use kibamrm::KibamRmError;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use units::{Charge, Current, Frequency, Rate, Time};

/// An exact backend that counts its solves and answers a deterministic
/// curve derived from the scenario (so different scenarios have
/// distinguishable answers).
struct CountingSolver {
    solves: Arc<AtomicUsize>,
}

impl LifetimeSolver for CountingSolver {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn capability(&self, _scenario: &Scenario) -> Capability {
        Capability::Exact
    }
    fn solve_in(
        &self,
        scenario: &Scenario,
        _state: Option<&mut GroupState>,
        _budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.solves.fetch_add(1, Ordering::SeqCst);
        let n = scenario.times().len() as f64;
        let bias = scenario.capacity().as_amp_seconds() % 1.0 / 10.0;
        let points = scenario
            .times()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, ((i as f64 + bias) / n).clamp(0.0, 1.0)))
            .collect();
        LifetimeDistribution::new("counting", points, Default::default())
    }
}

fn counting_service() -> (Arc<LifetimeService>, Arc<AtomicUsize>) {
    let solves = Arc::new(AtomicUsize::new(0));
    let mut registry = SolverRegistry::empty();
    registry.register(Box::new(CountingSolver {
        solves: Arc::clone(&solves),
    }));
    (Arc::new(LifetimeService::new(registry)), solves)
}

fn query_scenario(capacity_as: f64) -> Scenario {
    let w =
        Workload::on_off_erlang(Frequency::from_hertz(0.5), 1, Current::from_amps(0.5)).unwrap();
    Scenario::builder()
        .name("service-prop")
        .workload(w)
        .capacity(Charge::from_amp_seconds(capacity_as))
        .linear()
        .times(
            (1..=10)
                .map(|i| Time::from_seconds(i as f64 * 40.0))
                .collect(),
        )
        .delta(Charge::from_amp_seconds(1.0))
        .simulation(40, 11)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N concurrent identical requests (released together through a
    /// barrier) solve exactly once; every thread's answer is
    /// bit-identical; the admission counters account for every request.
    #[test]
    fn identical_concurrent_requests_solve_once(
        threads in 1usize..=8,
        capacity in 50.0f64..150.0,
    ) {
        let (service, solves) = counting_service();
        let scenario = query_scenario(capacity);
        let barrier = Arc::new(Barrier::new(threads));
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (service, scenario, barrier) =
                    (Arc::clone(&service), scenario.clone(), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    service.query(&scenario)
                })
            })
            .collect();
        let answers: Vec<LifetimeDistribution> = workers
            .into_iter()
            .map(|w| w.join().unwrap().expect("no query may fail"))
            .collect();

        prop_assert!(solves.load(Ordering::SeqCst) == 1,
            "{} identical requests must share one solve", threads);
        let reference = &answers[0];
        for a in &answers[1..] {
            prop_assert_eq!(a.points(), reference.points());
        }
        let stats = service.stats();
        prop_assert_eq!(stats.misses, 1);
        // Every request is a hit, a join or the one miss; none are shed.
        prop_assert_eq!(stats.hits + stats.joined + stats.misses, threads as u64);
        prop_assert_eq!(stats.shed, 0);
        prop_assert_eq!(stats.in_flight, 0);
    }

    /// Against the real backends: whatever mix of cached / fresh /
    /// rate-rescaled queries the service serves, every answer is
    /// bit-identical to an independent registry solve of the same
    /// scenario.
    #[test]
    fn service_answers_match_fresh_solves_bitwise(
        quanta in 4u32..=10,
        gamma_pow in 0u32..=2,
    ) {
        let registry = SolverRegistry::with_default_backends();
        let service = LifetimeService::new(SolverRegistry::with_default_backends());
        let base = Scenario::builder()
            .name("service-bits")
            .workload(Workload::on_off_erlang(
                Frequency::from_hertz(0.5), 1, Current::from_amps(0.5)).unwrap())
            .capacity(Charge::from_amp_seconds(60.0))
            .kibam(0.5, Rate::per_second(1e-4))
            .times((1..=6).map(|i| Time::from_seconds(i as f64 * 60.0)).collect())
            .delta(Charge::from_amp_seconds(30.0 / quanta as f64))
            .build()
            .unwrap();
        let rescaled = base.with_rate_scale(0.5f64.powi(gamma_pow as i32)).unwrap();
        // Query order exercises fresh → warm-group → cached paths.
        for s in [&base, &rescaled, &base] {
            let served = service.query(s).expect("service solve");
            let fresh = registry.solve(s).expect("fresh solve");
            prop_assert!(served.points() == fresh.points(),
                "served and fresh answers must be the same bits");
        }
        let sup = service.query(&rescaled).unwrap()
            .max_difference(&registry.solve(&rescaled).unwrap())
            .unwrap();
        prop_assert!(sup == 0.0, "sup-distance is {}, must be exactly 0", sup);
    }

    /// Under seeded fault injection (errors and panics from a
    /// `FaultInjectingSolver`-wrapped backend) and any thread count 1–8,
    /// the service stays dependable: every request ends in an answer, a
    /// typed error or the injected panic; no flight leaks; anything the
    /// cache serves afterwards is bit-identical to the exact backend.
    #[test]
    fn service_survives_fault_injection(
        threads in 1usize..=8,
        seed in 0u64..1024,
        error_pct in 0u32..=40,
        panic_pct in 0u32..=20,
    ) {
        use kibamrm::chaos::{ChaosConfig, FaultInjectingSolver};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let solves = Arc::new(AtomicUsize::new(0));
        let chaos = FaultInjectingSolver::new(
            Box::new(CountingSolver { solves: Arc::clone(&solves) }),
            ChaosConfig::passthrough(seed)
                .with_error_rate(error_pct as f64 / 100.0)
                .with_panic_rate(panic_pct as f64 / 100.0),
        );
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(chaos));
        let service = Arc::new(LifetimeService::new(registry));

        let per_thread = 8usize;
        let barrier = Arc::new(Barrier::new(threads));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (service, barrier) = (Arc::clone(&service), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut accounted = 0usize;
                    for i in 0..per_thread {
                        let s = query_scenario(50.0 + ((t + i) % 4) as f64);
                        match catch_unwind(AssertUnwindSafe(|| service.query(&s))) {
                            Ok(Ok(_)) | Ok(Err(_)) | Err(_) => accounted += 1,
                        }
                    }
                    accounted
                })
            })
            .collect();
        let accounted: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        prop_assert_eq!(accounted, threads * per_thread);

        let stats = service.stats();
        prop_assert_eq!(stats.in_flight, 0);
        // Nothing poisoned was cached: whatever the service now serves
        // for each scenario matches the exact backend bit for bit.
        let exact_backend = CountingSolver { solves: Arc::new(AtomicUsize::new(0)) };
        for cap in 0..4 {
            let s = query_scenario(50.0 + cap as f64);
            let exact = exact_backend.solve(&s).unwrap();
            let mut served = None;
            for _ in 0..64 {
                if let Ok(Ok(a)) = catch_unwind(AssertUnwindSafe(|| service.query(&s))) {
                    served = Some(a);
                    break;
                }
            }
            let served = served.expect("service stays answerable after the faults");
            prop_assert_eq!(served.points(), exact.points());
        }
    }
}

/// The single-flight guarantee holds repeatedly on one resident service:
/// wave after wave of concurrent identical queries (distinct per wave)
/// never cost more than one solve per wave.
#[test]
fn repeated_waves_keep_solving_once() {
    let (service, solves) = counting_service();
    for wave in 0..5u64 {
        let scenario = query_scenario(70.0 + wave as f64);
        let barrier = Arc::new(Barrier::new(4));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (service, scenario, barrier) =
                    (Arc::clone(&service), scenario.clone(), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    service.query(&scenario).expect("query succeeds")
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            solves.load(Ordering::SeqCst),
            wave as usize + 1,
            "wave {wave} must add exactly one solve"
        );
    }
    assert_eq!(service.stats().misses, 5);
}
