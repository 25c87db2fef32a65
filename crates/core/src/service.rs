//! The resident lifetime-distribution query service: one long-lived
//! process folding many concurrent [`Scenario`] queries into shared
//! work.
//!
//! Batch sweeps ([`crate::sweep::SweepPlan`]) already amortise a *known*
//! family of scenarios; [`LifetimeService`] does the same for traffic
//! that arrives online — the north-star's fleet shape of many devices,
//! few structural fingerprints, repeated re-queries. One query flows
//! through three layers, all guarded by one small mutex (never held
//! across a solve):
//!
//! 1. **Admission.** At most [`ServiceConfig::max_in_flight`] solves run
//!    at once. A query that would start a solve beyond that budget is
//!    shed with [`ServiceError::Overloaded`] — a typed, immediate
//!    refusal the caller can retry against, instead of an unbounded
//!    queue quietly eating the machine. Queries answered from cache, or
//!    joined onto an in-flight solve, are never shed: they cost no new
//!    work.
//! 2. **Incremental online planning.** Every request is keyed by
//!    [`Scenario::canonical_bytes`] (byte-identity, name erased).
//!    A key already being solved **joins** that flight — single-flight
//!    semantics: the second identical request blocks on the first solve
//!    and shares its result (errors included), it never re-solves. A
//!    new key is routed through
//!    [`SolverRegistry::auto`](crate::solver::SolverRegistry) selection
//!    and then joined into the *live group* for its
//!    `(backend, sweep_fingerprint)`: the same warm
//!    [`GroupState`] a batch sweep would
//!    thread through a plan group — one `DiscretisationTemplate` +
//!    `CurveCache` for a rate-rescale family — now kept resident across
//!    requests. Same-group solves serialise on the group state (exactly
//!    like a batch group's member order); different groups solve
//!    concurrently. Backends without a fingerprint (the simulation
//!    backend: each Monte Carlo query runs its own study) keep no warm
//!    state and never wait on one another.
//! 3. **Caching.** Solved distributions land in a bounded LRU keyed by
//!    the scenario bytes, budgeted in bytes via
//!    [`LifetimeDistribution::size_in_bytes`] (hits hand out `Arc`
//!    views, never deep copies). Warm group states live in a second,
//!    smaller LRU of 16 entries keyed by `(backend, fingerprint)`. Both
//!    caches evict explicitly (least-recently-used first) and export
//!    their counters through [`ServiceStats`].
//!
//! **Bit-identity invariant.** Every shared fast path — the result
//! cache, single-flight joins, warm group state — returns the same bits
//! an independent [`SolverRegistry::solve`] of the same scenario under
//! the same options would: caching is an optimisation, never an
//! approximation. The `bench-harness regress` service gate enforces
//! sup-distance *exactly 0* between cached and fresh answers.
//!
//! ```
//! use kibamrm::scenario::Scenario;
//! use kibamrm::service::LifetimeService;
//! use kibamrm::solver::SolverRegistry;
//!
//! let service = LifetimeService::new(SolverRegistry::with_default_backends());
//! let scenario = Scenario::paper_cell_phone().unwrap();
//! let first = service.query(&scenario).unwrap();   // solves
//! let second = service.query(&scenario).unwrap();  // cache hit: same bits
//! assert_eq!(first.points(), second.points());
//! let stats = service.stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1));
//! ```

use crate::distribution::LifetimeDistribution;
use crate::scenario::Scenario;
use crate::snapshot::{
    self, SnapshotEntry, SnapshotError, SnapshotLoadReport, SnapshotWriteReport,
};
use crate::solver::{GroupState, LifetimeSolver, SimulationSolver, SolverRegistry};
use crate::KibamRmError;
use markov::Budget;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use units::Time;

/// Errors from [`LifetimeService::query`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The query was shed: it would have started a new solve while
    /// [`ServiceConfig::max_in_flight`] solves were already running.
    /// Nothing was computed; retrying later is safe and cheap.
    Overloaded {
        /// Solves running when the query was refused.
        in_flight: usize,
        /// The configured admission bound.
        limit: usize,
    },
    /// The underlying solve failed (propagated verbatim, also to every
    /// request joined onto the failing flight).
    Solve(KibamRmError),
    /// The request's [`QueryOptions::deadline`] expired before the exact
    /// solve finished, and no degraded answer was allowed
    /// ([`QueryOptions::degraded_ok`] was false) or available.
    DeadlineExceeded {
        /// Units of work (backend-specific: uniformisation iterations or
        /// replications) the interrupted solve completed.
        completed: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { in_flight, limit } => write!(
                f,
                "service overloaded: {in_flight} solves in flight (limit {limit})"
            ),
            ServiceError::Solve(e) => write!(f, "{e}"),
            ServiceError::DeadlineExceeded { completed } => write!(
                f,
                "request deadline exceeded after {completed} units of completed work"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KibamRmError> for ServiceError {
    fn from(e: KibamRmError) -> Self {
        match e {
            KibamRmError::DeadlineExceeded { completed } => {
                ServiceError::DeadlineExceeded { completed }
            }
            other => ServiceError::Solve(other),
        }
    }
}

/// Per-request quality-of-service knobs for
/// [`LifetimeService::query_with`]. The default (no deadline, no
/// degradation) reproduces [`LifetimeService::query`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryOptions {
    /// Wall-clock budget for this request. The exact solve is cancelled
    /// cooperatively (at iteration granularity) when it expires. The
    /// deadline instant is fixed once per request. A degraded fallback
    /// runs after it, to completion: its cost is that of its simulation
    /// runs and no deadline bounds it.
    pub deadline: Option<Duration>,
    /// Allow a degraded answer when the exact solve cannot finish in
    /// time: a fast Monte Carlo estimate, tagged [`Answer::Degraded`]
    /// with its DKW sup-norm bound.
    pub degraded_ok: bool,
}

impl QueryOptions {
    /// The default options (no deadline, exact answers only).
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Sets the request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Permits degraded answers on deadline expiry.
    #[must_use]
    pub fn allow_degraded(mut self) -> Self {
        self.degraded_ok = true;
        self
    }
}

/// The outcome of a [`LifetimeService::query_with`] request.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The exact answer — bit-identical to an independent
    /// [`SolverRegistry::solve`] of the same scenario.
    Exact(LifetimeDistribution),
    /// A degraded answer served because the deadline expired before the
    /// exact solve finished: a fast Monte Carlo estimate of the same
    /// scenario (its run count is in
    /// [`SolveDiagnostics::runs`](crate::distribution::SolveDiagnostics::runs)).
    /// Never cached.
    Degraded {
        /// The Monte Carlo curve.
        dist: LifetimeDistribution,
        /// Sup-norm error bound of the curve: the 95 %
        /// Dvoretzky–Kiefer–Wolfowitz band over its runs (it holds at
        /// every time point at once, unlike the pointwise Wilson
        /// [`SolveDiagnostics::half_width`](crate::distribution::SolveDiagnostics::half_width)).
        bound: f64,
    },
}

impl Answer {
    /// The distribution, exact or degraded.
    pub fn distribution(&self) -> &LifetimeDistribution {
        match self {
            Answer::Exact(d) | Answer::Degraded { dist: d, .. } => d,
        }
    }

    /// Consumes the answer into its distribution.
    pub fn into_distribution(self) -> LifetimeDistribution {
        match self {
            Answer::Exact(d) | Answer::Degraded { dist: d, .. } => d,
        }
    }

    /// Whether this is a degraded answer.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Answer::Degraded { .. })
    }

    /// The explicit error bound of a degraded answer (`None` for exact).
    pub fn bound(&self) -> Option<f64> {
        match self {
            Answer::Exact(_) => None,
            Answer::Degraded { bound, .. } => Some(*bound),
        }
    }
}

/// Sizing knobs of a [`LifetimeService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission bound: at most this many solves run concurrently;
    /// further solve-starting queries are shed with
    /// [`ServiceError::Overloaded`]. Clamped to ≥ 1. Default: twice the
    /// available parallelism (some headroom for solves blocked on a
    /// shared group state).
    pub max_in_flight: usize,
    /// Byte budget of the solved-distribution LRU, accounted via
    /// [`LifetimeDistribution::size_in_bytes`]. `0` disables result
    /// caching (single-flight dedup still applies). Default: 32 MiB.
    pub cache_capacity_bytes: usize,
}

/// Entry budget of the warm group-state LRU (discretisation templates
/// and curve caches): one entry per live `(backend, fingerprint)` group.
const WARM_CAPACITY: usize = 16;

/// Replications of the fast Monte Carlo fallback (95 % DKW
/// sup-norm band ≈ 0.085).
const DEGRADED_RUNS: usize = 256;

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig {
            max_in_flight: 2 * cores,
            cache_capacity_bytes: 32 << 20,
        }
    }
}

impl ServiceConfig {
    /// Replaces the admission bound.
    #[must_use]
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Replaces the result-cache byte budget.
    #[must_use]
    pub fn with_cache_capacity_bytes(mut self, bytes: usize) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }
}

/// A point-in-time snapshot of the service's counters and occupancy
/// ([`LifetimeService::stats`]). Counters are cumulative since
/// construction. Every query is keyed, so each one that is not shed
/// counts in exactly one of `hits`, `joined` and `misses`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries answered from the result cache (no solve, no wait).
    pub hits: u64,
    /// Queries that started a fresh solve.
    pub misses: u64,
    /// Queries that joined an in-flight identical solve (single-flight).
    pub joined: u64,
    /// Queries shed with [`ServiceError::Overloaded`].
    pub shed: u64,
    /// Result-cache entries evicted to make room (LRU order).
    pub evictions: u64,
    /// Solves that found a resident warm group state for their
    /// `(backend, fingerprint)`.
    pub warm_hits: u64,
    /// Solves that had to create (or could not use) a warm group state.
    pub warm_misses: u64,
    /// Warm group states evicted to make room (LRU order).
    pub warm_evictions: u64,
    /// Solves that failed in the backend ([`ServiceError::Solve`];
    /// errors are never cached). Deadline expiries are not backend
    /// failures: they count in `deadline_expired` instead.
    pub errors: u64,
    /// Requests whose deadline expired before an exact answer arrived
    /// (whether or not a degraded answer was then served).
    pub deadline_expired: u64,
    /// Requests answered by a degraded Monte Carlo estimate instead of
    /// an exact solve.
    pub degraded_served: u64,
    /// Snapshot entries revived into the result cache by
    /// [`LifetimeService::load_snapshot`].
    pub snapshot_loaded: u64,
    /// Snapshot files or entries rejected on load (corruption, version
    /// skew, failed re-validation). Disjoint from `snapshot_loaded`:
    /// every snapshot entry counts in exactly one of the two.
    pub snapshot_rejected: u64,
    /// Snapshots written successfully by
    /// [`LifetimeService::save_snapshot`].
    pub snapshot_written: u64,
    /// Solves running right now.
    pub in_flight: usize,
    /// Result-cache entries currently resident.
    pub cached_entries: usize,
    /// Result-cache bytes currently resident.
    pub result_cache_bytes: usize,
    /// Warm group states currently resident.
    pub warm_entries: usize,
}

impl ServiceStats {
    /// Fraction of admitted queries served without starting a solve:
    /// `(hits + joined) / (hits + joined + misses)`. Every query is
    /// keyed, so these three count every admitted one. `0` when nothing
    /// was admitted yet.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.joined;
        let admitted = served + self.misses;
        if admitted == 0 {
            0.0
        } else {
            served as f64 / admitted as f64
        }
    }
}

/// An in-flight solve other requests can join: the first request for a
/// key publishes its outcome here and wakes every joiner.
struct Flight {
    done: Mutex<Option<Result<LifetimeDistribution, ServiceError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the flight completes, or until `deadline` (when one
    /// is set). `None` means the deadline passed first — the flight
    /// itself keeps running and completes normally for other waiters.
    fn wait_until(
        &self,
        deadline: Option<Instant>,
    ) -> Option<Result<LifetimeDistribution, ServiceError>> {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = done.as_ref() {
                return Some(result.clone());
            }
            match deadline {
                None => done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    done = self
                        .cv
                        .wait_timeout(done, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    fn complete(&self, result: Result<LifetimeDistribution, ServiceError>) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.cv.notify_all();
    }
}

/// One resident result-cache entry.
struct CacheEntry {
    dist: LifetimeDistribution,
    bytes: usize,
    last_used: u64,
}

/// One resident warm group state. The `Arc<Mutex<…>>` is the live-group
/// handle: every same-fingerprint solve locks it for the duration of its
/// member solve, which serialises the group exactly like a batch plan
/// group while leaving other groups fully concurrent. Evicting the entry
/// only unlists it — an in-progress solve keeps its state alive through
/// the `Arc` and finishes normally.
struct WarmEntry {
    state: Arc<Mutex<GroupState>>,
    last_used: u64,
}

/// Everything behind the service mutex. The lock is held only for map
/// lookups and counter bumps — never across a solve.
#[derive(Default)]
struct Inner {
    cache: HashMap<Vec<u8>, CacheEntry>,
    warm: HashMap<(usize, u64), WarmEntry>,
    flights: HashMap<Vec<u8>, Arc<Flight>>,
    /// Monotone LRU clock: bumped on every cache/warm touch.
    tick: u64,
    /// The ledger: every counter, plus `in_flight` and
    /// `result_cache_bytes`. Its `cached_entries` and `warm_entries`
    /// stay zero here; [`LifetimeService::stats`] reads them off the maps.
    stats: ServiceStats,
}

/// The least-recently-used key of `map` (`None` when it is empty): the
/// one eviction rule of the result cache and the warm-state table.
fn lru_victim<K: Ord + Clone, V>(map: &HashMap<K, V>, last_used: impl Fn(&V) -> u64) -> Option<K> {
    // DETERMINISM-OK: the minimum is taken over the total key
    // (last_used, key) — ticks are already unique, and the tie-break
    // pins the victim even if they were not, so hash order cannot pick it.
    map.iter()
        .min_by_key(|&(k, v)| (last_used(v), k))
        .map(|(k, _)| k.clone())
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Inserts a solved distribution, evicting least-recently-used
    /// entries until it fits, and reports whether it did. Oversized
    /// results (bigger than the whole budget) are simply not cached. A
    /// resident key keeps its entry: a snapshot can revive a key while
    /// that key's flight is still solving, the two curves carry the same
    /// bits, and replacing one with the other would charge the byte
    /// ledger twice.
    fn insert_cached(&mut self, key: Vec<u8>, dist: LifetimeDistribution, budget: usize) -> bool {
        let bytes = dist.size_in_bytes();
        if bytes > budget || self.cache.contains_key(&key) {
            return false;
        }
        while self.stats.result_cache_bytes + bytes > budget {
            let Some(victim) = lru_victim(&self.cache, |e| e.last_used) else {
                break;
            };
            if let Some(evicted) = self.cache.remove(&victim) {
                self.stats.result_cache_bytes -= evicted.bytes;
                self.stats.evictions += 1;
            }
        }
        let last_used = self.next_tick();
        self.stats.result_cache_bytes += bytes;
        self.cache.insert(
            key,
            CacheEntry {
                dist,
                bytes,
                last_used,
            },
        );
        true
    }
}

/// The cooperative budget of one request's solve: its deadline instant,
/// or none.
fn request_budget(deadline: Option<Instant>) -> Budget {
    deadline.map_or_else(Budget::unlimited, Budget::with_deadline_at)
}

/// The degraded answer: a Monte Carlo estimate with [`DEGRADED_RUNS`]
/// replications, bounded by their 95 % Dvoretzky–Kiefer–Wolfowitz band.
/// It runs all of them, with no budget: they are one engine batch, and
/// the engine checks a budget only before each batch, so no grace could
/// stop it once started. Bypasses the registry (and any chaos wrapping
/// of it): the fallback must stay dependable when backends are not.
fn fast_simulation(scenario: &Scenario) -> Result<Answer, KibamRmError> {
    let fallback = scenario.with_simulation(DEGRADED_RUNS, scenario.sim_seed());
    let dist = SimulationSolver::new().solve(&fallback)?;
    let bound = sim::dkw_half_width(DEGRADED_RUNS as u64, 0.05);
    Ok(Answer::Degraded { dist, bound })
}

/// The resident query service; see the module docs for the lifecycle.
///
/// The service is `Sync`: share one instance (e.g. behind an `Arc`)
/// between all request threads.
pub struct LifetimeService {
    registry: SolverRegistry,
    config: ServiceConfig,
    inner: Mutex<Inner>,
}

// One `LifetimeService` is shared by every request thread.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<LifetimeService>();
};

/// What the admission lock decided for one keyed query.
enum Admission {
    Hit(LifetimeDistribution),
    Join(Arc<Flight>),
    Solve(Arc<Flight>),
}

impl LifetimeService {
    /// A service over `registry` with the default [`ServiceConfig`].
    pub fn new(registry: SolverRegistry) -> Self {
        LifetimeService::with_config(registry, ServiceConfig::default())
    }

    /// A service over `registry` with explicit sizing.
    pub fn with_config(registry: SolverRegistry, config: ServiceConfig) -> Self {
        LifetimeService {
            registry,
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The registry queries are routed through.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking solver thread cannot corrupt the maps (the lock is
        // never held across backend code), so poisoning is not fatal.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answers one query: from the result cache when the scenario's
    /// canonical bytes are resident, by joining an identical in-flight
    /// solve, or by solving through the live group for its
    /// `(backend, fingerprint)` — whichever is cheapest. Blocks until
    /// the answer (or the flight it joined) is ready. Equivalent to
    /// [`query_with`](LifetimeService::query_with) under the default
    /// [`QueryOptions`] (no deadline, exact answers only).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the query would start a solve
    /// beyond the admission bound (nothing was computed);
    /// [`ServiceError::Solve`] for backend-selection and solve failures
    /// (shared verbatim with every joined request; never cached).
    pub fn query(&self, scenario: &Scenario) -> Result<LifetimeDistribution, ServiceError> {
        self.query_with(scenario, &QueryOptions::default())
            .map(Answer::into_distribution)
    }

    /// [`query`](LifetimeService::query) with per-request
    /// quality-of-service knobs: a wall-clock deadline (cancelling the
    /// exact solve cooperatively at iteration granularity) and graceful
    /// degradation on expiry. The request's deadline instant is fixed on
    /// entry; the degraded fallback runs its simulation to completion
    /// after it, so its cost is not bounded by the deadline.
    ///
    /// # Errors
    ///
    /// As for [`query`](LifetimeService::query), plus
    /// [`ServiceError::DeadlineExceeded`] when the deadline expired and
    /// no degraded answer was allowed or available.
    pub fn query_with(
        &self,
        scenario: &Scenario,
        opts: &QueryOptions,
    ) -> Result<Answer, ServiceError> {
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        let key = scenario.key();
        let admission = {
            let mut inner = self.lock();
            if inner.cache.contains_key(&key) {
                let tick = inner.next_tick();
                inner.stats.hits += 1;
                // PANIC-OK: the key was checked resident two lines up
                // and the same lock guard has been held throughout.
                let entry = inner.cache.get_mut(&key).expect("checked key");
                entry.last_used = tick;
                Admission::Hit(entry.dist.clone())
            } else if let Some(flight) = inner.flights.get(&key).map(Arc::clone) {
                inner.stats.joined += 1;
                Admission::Join(flight)
            } else {
                let limit = self.config.max_in_flight.max(1);
                if inner.stats.in_flight >= limit {
                    inner.stats.shed += 1;
                    return Err(ServiceError::Overloaded {
                        in_flight: inner.stats.in_flight,
                        limit,
                    });
                }
                inner.stats.in_flight += 1;
                inner.stats.misses += 1;
                let flight = Arc::new(Flight::new());
                inner.flights.insert(key.clone(), Arc::clone(&flight));
                Admission::Solve(flight)
            }
        };
        let outcome = match admission {
            // A cache hit is exact and instant: always serve it, even
            // past the deadline.
            Admission::Hit(dist) => return Ok(Answer::Exact(dist)),
            Admission::Join(flight) => match flight.wait_until(deadline) {
                Some(result) => result,
                // The joined flight outlived our deadline; it keeps
                // running for its owner and other joiners.
                None => Err(ServiceError::DeadlineExceeded { completed: 0 }),
            },
            Admission::Solve(flight) => {
                self.run_flight(scenario, key, &flight, &request_budget(deadline))
            }
        };
        match outcome {
            Ok(dist) => Ok(Answer::Exact(dist)),
            Err(ServiceError::DeadlineExceeded { completed }) => {
                self.handle_deadline(scenario, opts, completed)
            }
            Err(e) => Err(e),
        }
    }

    /// The owner path of a flight: solve, publish, cache. A guard keeps
    /// the bookkeeping (and the joiners) correct even if the backend
    /// panics.
    fn run_flight(
        &self,
        scenario: &Scenario,
        key: Vec<u8>,
        flight: &Arc<Flight>,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, ServiceError> {
        struct FlightGuard<'a> {
            service: &'a LifetimeService,
            key: Vec<u8>,
            flight: &'a Arc<Flight>,
            done: bool,
        }
        impl Drop for FlightGuard<'_> {
            fn drop(&mut self) {
                if self.done {
                    return;
                }
                // The solve unwound: unregister the flight and wake the
                // joiners with an error instead of leaving them parked
                // forever. The panic keeps propagating to the caller.
                let mut inner = self.service.lock();
                inner.flights.remove(&self.key);
                inner.stats.in_flight -= 1;
                inner.stats.errors += 1;
                drop(inner);
                self.flight
                    .complete(Err(ServiceError::Solve(KibamRmError::InvalidWorkload(
                        "solver panicked during a service query".into(),
                    ))));
            }
        }

        let mut guard = FlightGuard {
            service: self,
            key,
            flight,
            done: false,
        };
        let result = self.solve_in_group(scenario, budget);
        guard.done = true;
        let mut inner = self.lock();
        inner.flights.remove(&guard.key);
        inner.stats.in_flight -= 1;
        match &result {
            Ok(dist) => {
                let key = std::mem::take(&mut guard.key);
                inner.insert_cached(key, dist.clone(), self.config.cache_capacity_bytes);
            }
            // Only backend failures count as errors: deadline expiries
            // have their own ledger entry.
            Err(ServiceError::Solve(_)) => inner.stats.errors += 1,
            Err(_) => {}
        }
        drop(inner);
        flight.complete(result.clone());
        result
    }

    /// One solve through the live group for the scenario's
    /// `(backend, fingerprint)`: lock its warm state (creating or
    /// resurrecting it as needed) and run
    /// the same grouped member solve a batch sweep would — under the
    /// request's cooperative budget. Backends without a fingerprint
    /// solve independently.
    ///
    /// Requests arrive one at a time and each is solved against the
    /// group's warm state, so a rate-rescale family shares work here
    /// exactly as in a batch [`SolverRegistry::sweep`]: through the
    /// group's `CurveCache`. On the length-sorted-row engine that `Auto`
    /// picks for the served chains, its reuse-and-extend path collapses
    /// members with bitwise identical `Pᵀ` into one sweep (DESIGN.md
    /// §13).
    fn solve_in_group(
        &self,
        scenario: &Scenario,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, ServiceError> {
        let index = self.registry.auto_index(scenario)?;
        let solver = self.registry.solver_at(index);
        let fingerprint = solver.sweep_fingerprint(scenario);
        let slot = fingerprint.map(|fp| self.warm_slot(index, fp));
        // Serialises same-group solves, exactly like a batch group's
        // member order. A poisoned state (an earlier member panicked
        // mid-solve) is replaced wholesale: a half-updated cache could
        // violate bit-identity.
        let mut state = slot.as_ref().map(|slot| match slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = GroupState::default();
                guard
            }
        });
        // An expired request reaches no backend, whether or not it has
        // check points of its own.
        if budget.is_exhausted() {
            return Err(ServiceError::DeadlineExceeded { completed: 0 });
        }
        solver
            .solve_in(scenario, state.as_deref_mut(), budget)
            .map_err(ServiceError::from)
    }

    /// A request whose deadline expired before an exact answer: record
    /// it, then, when the request allows it, serve a fast Monte Carlo
    /// estimate with its DKW bound (never cached). When that fails too
    /// the original deadline error stands.
    fn handle_deadline(
        &self,
        scenario: &Scenario,
        opts: &QueryOptions,
        completed: usize,
    ) -> Result<Answer, ServiceError> {
        self.lock().stats.deadline_expired += 1;
        if !opts.degraded_ok {
            return Err(ServiceError::DeadlineExceeded { completed });
        }
        let answer =
            fast_simulation(scenario).map_err(|_| ServiceError::DeadlineExceeded { completed })?;
        self.lock().stats.degraded_served += 1;
        Ok(answer)
    }

    /// The live-group handle for `(backend index, fingerprint)`:
    /// resident state when there is one, a fresh (and LRU-inserted)
    /// state otherwise.
    fn warm_slot(&self, index: usize, fingerprint: u64) -> Arc<Mutex<GroupState>> {
        let mut inner = self.lock();
        let tick = inner.next_tick();
        if let Some(entry) = inner.warm.get_mut(&(index, fingerprint)) {
            entry.last_used = tick;
            let state = Arc::clone(&entry.state);
            inner.stats.warm_hits += 1;
            return state;
        }
        inner.stats.warm_misses += 1;
        // Create outside the lock? A fresh state is cheap (an empty
        // template and cache, filled by the first solve) — and creating
        // inside the lock guarantees at most one state per group ever
        // exists, which is the whole point of a live group.
        let state = Arc::new(Mutex::new(GroupState::default()));
        while inner.warm.len() >= WARM_CAPACITY {
            let Some(victim) = lru_victim(&inner.warm, |e| e.last_used) else {
                break;
            };
            inner.warm.remove(&victim);
            inner.stats.warm_evictions += 1;
        }
        inner.warm.insert(
            (index, fingerprint),
            WarmEntry {
                state: Arc::clone(&state),
                last_used: tick,
            },
        );
        state
    }

    /// A snapshot of the counters and current occupancy.
    pub fn stats(&self) -> ServiceStats {
        let inner = self.lock();
        ServiceStats {
            cached_entries: inner.cache.len(),
            warm_entries: inner.warm.len(),
            ..inner.stats
        }
    }

    /// Writes the current result cache to `path` as a crash-safe
    /// snapshot (see [`crate::snapshot`] for the format and the atomic
    /// write protocol). Entries are written least-recently-used first,
    /// so a later [`load_snapshot`](LifetimeService::load_snapshot)
    /// reproduces the recency order. Bumps
    /// [`ServiceStats::snapshot_written`] on success.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be written; the
    /// target is never left torn (the write goes to a temporary
    /// sibling first).
    pub fn save_snapshot(&self, path: &Path) -> Result<SnapshotWriteReport, SnapshotError> {
        let entries: Vec<SnapshotEntry> = {
            let inner = self.lock();
            // DETERMINISM-OK: the entries leave the hash map in
            // arbitrary order but are immediately sorted by the total
            // key (last_used, canonical bytes) — ticks are already
            // unique, and the tie-break makes the snapshot bytes a
            // pure function of the cache contents either way.
            let mut ordered: Vec<(&Vec<u8>, &CacheEntry)> = inner.cache.iter().collect();
            ordered.sort_by_key(|&(k, e)| (e.last_used, k.as_slice()));
            ordered
                .into_iter()
                .map(|(key, e)| SnapshotEntry {
                    scenario: key.clone(),
                    method: e.dist.method().to_string(),
                    diagnostics: *e.dist.diagnostics(),
                    points: e
                        .dist
                        .points()
                        .iter()
                        .map(|&(t, p)| (t.as_seconds(), p))
                        .collect(),
                })
                .collect()
        };
        let bytes = snapshot::encode(&entries)?;
        snapshot::write_atomic(path, &bytes)?;
        self.lock().stats.snapshot_written += 1;
        Ok(SnapshotWriteReport {
            entries: entries.len(),
            bytes: bytes.len(),
        })
    }

    /// Revives a snapshot written by
    /// [`save_snapshot`](LifetimeService::save_snapshot) into the
    /// result cache. Never fails and never panics, whatever the file
    /// contains:
    ///
    /// * a missing file is a clean cold start (no counters move);
    /// * a file that fails structural validation (bad magic,
    ///   truncation, checksum mismatch, version skew) is rejected
    ///   wholesale — [`ServiceStats::snapshot_rejected`] counts one;
    /// * each surviving entry is re-validated from scratch: its
    ///   scenario text is re-parsed, the cache key re-derived through
    ///   [`Scenario::canonical_bytes`], the backend name interned
    ///   against this service's registry, the curve re-checked by
    ///   [`LifetimeDistribution::new`], and the stored grid compared
    ///   bit-for-bit against the scenario's own query grid. Entries
    ///   that pass count in [`ServiceStats::snapshot_loaded`];
    ///   entries that fail (or whose key is already resident, or that
    ///   exceed the cache budget) count in `snapshot_rejected`.
    ///
    /// The revived bits are exactly the bits that were cached when the
    /// snapshot was written, so the service's bit-identity invariant
    /// holds across restarts.
    pub fn load_snapshot(&self, path: &Path) -> SnapshotLoadReport {
        let mut report = SnapshotLoadReport::default();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return report,
            Err(e) => {
                report.rejected = 1;
                report.error = Some(SnapshotError::Io(e));
                self.lock().stats.snapshot_rejected += 1;
                return report;
            }
        };
        let entries = match snapshot::decode(&bytes) {
            Ok(entries) => entries,
            Err(e) => {
                report.rejected = 1;
                report.error = Some(e);
                self.lock().stats.snapshot_rejected += 1;
                return report;
            }
        };
        for entry in entries {
            if self.revive(entry) {
                report.loaded += 1;
            } else {
                report.rejected += 1;
            }
        }
        let mut inner = self.lock();
        inner.stats.snapshot_loaded += report.loaded as u64;
        inner.stats.snapshot_rejected += report.rejected as u64;
        report
    }

    /// Re-validates one snapshot entry end to end and inserts it into
    /// the cache. Returns `false` (entry dropped, nothing cached) on
    /// any doubt — revival must never produce an answer a fresh solve
    /// would not.
    fn revive(&self, entry: SnapshotEntry) -> bool {
        let Ok(text) = std::str::from_utf8(&entry.scenario) else {
            return false;
        };
        let Ok(scenario) = Scenario::from_config_str(text) else {
            return false;
        };
        // Intern the backend name against this build's registry: a
        // name nothing registered cannot have produced the curve here
        // (and `LifetimeDistribution` wants the registry's `'static`
        // string, not a leaked copy of snapshot bytes).
        let Some(method) = self.registry.find(&entry.method).map(|s| s.name()) else {
            return false;
        };
        // The stored samples must sit exactly on the scenario's own
        // query grid — same length, same time bits.
        let times = scenario.times();
        if entry.points.len() != times.len()
            || entry
                .points
                .iter()
                .zip(times)
                .any(|(&(t, _), grid)| t.to_bits() != grid.as_seconds().to_bits())
        {
            return false;
        }
        let points: Vec<(Time, f64)> = entry
            .points
            .iter()
            .map(|&(t, p)| (Time::from_seconds(t), p))
            .collect();
        let Ok(dist) = LifetimeDistribution::new(method, points, entry.diagnostics) else {
            return false;
        };
        let key = scenario.key();
        self.lock()
            .insert_cached(key, dist, self.config.cache_capacity_bytes)
    }
}

impl fmt::Debug for LifetimeService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LifetimeService")
            .field("registry", &self.registry)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Capability, LifetimeSolver};
    use crate::workload::Workload;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use units::{Charge, Current, Frequency, Rate, Time};

    /// A cheap linear scenario (Sericola backend, no warm state).
    fn linear(seed: u64) -> Scenario {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        Scenario::builder()
            .name("svc-linear")
            .workload(w)
            .capacity(Charge::from_amp_seconds(72.0))
            .linear()
            .times(
                (1..=8)
                    .map(|i| Time::from_seconds(i as f64 * 20.0))
                    .collect(),
            )
            .delta(Charge::from_amp_seconds(0.5))
            .simulation(50, seed)
            .build()
            .unwrap()
    }

    /// A counting backend: exact, instant, records every solve.
    struct Counting {
        solves: Arc<AtomicUsize>,
    }
    impl LifetimeSolver for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn capability(&self, _s: &Scenario) -> Capability {
            Capability::Exact
        }
        fn solve_in(
            &self,
            s: &Scenario,
            _state: Option<&mut GroupState>,
            _budget: &Budget,
        ) -> Result<LifetimeDistribution, KibamRmError> {
            self.solves.fetch_add(1, Ordering::SeqCst);
            let points = s
                .times()
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, (i as f64 + 1.0) / (s.times().len() as f64 + 1.0)))
                .collect();
            LifetimeDistribution::new("counting", points, Default::default())
        }
    }

    /// A backend that parks inside solve() until released — the load
    /// generator for shedding and single-flight tests.
    struct Blocking {
        solves: Arc<AtomicUsize>,
        entered: mpsc::Sender<()>,
        release: Arc<(Mutex<bool>, Condvar)>,
    }
    impl Blocking {
        fn release(gate: &Arc<(Mutex<bool>, Condvar)>) {
            let (lock, cv) = &**gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
    }
    impl LifetimeSolver for Blocking {
        fn name(&self) -> &'static str {
            "blocking"
        }
        fn capability(&self, _s: &Scenario) -> Capability {
            Capability::Exact
        }
        fn solve_in(
            &self,
            s: &Scenario,
            _state: Option<&mut GroupState>,
            _budget: &Budget,
        ) -> Result<LifetimeDistribution, KibamRmError> {
            self.solves.fetch_add(1, Ordering::SeqCst);
            let _ = self.entered.send(());
            let (lock, cv) = &*self.release;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            let points = s.times().iter().map(|&t| (t, 0.5)).collect();
            LifetimeDistribution::new("blocking", points, Default::default())
        }
    }

    fn counting_service(budget_bytes: usize) -> (LifetimeService, Arc<AtomicUsize>) {
        let solves = Arc::new(AtomicUsize::new(0));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Counting {
            solves: Arc::clone(&solves),
        }));
        let service = LifetimeService::with_config(
            registry,
            ServiceConfig::default().with_cache_capacity_bytes(budget_bytes),
        );
        (service, solves)
    }

    #[test]
    fn cache_hits_share_bits_and_storage() {
        let (service, solves) = counting_service(32 << 20);
        let s = linear(1);
        let a = service.query(&s).unwrap();
        let b = service.query(&s).unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 1, "second query is a hit");
        assert_eq!(a.points(), b.points());
        // The hit is a shared view, not a copy.
        assert!(std::ptr::eq(a.points().as_ptr(), b.points().as_ptr()));
        // A name-only variant hits too: the canonical key erases names.
        let c = service.query(&s.with_name("other-label")).unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        assert_eq!(c.points(), a.points());
        let stats = service.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        assert_eq!(stats.cached_entries, 1);
        assert_eq!(stats.result_cache_bytes, a.size_in_bytes());
        assert!(stats.hit_rate() > 0.6);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let probe = {
            let (service, _) = counting_service(usize::MAX);
            service.query(&linear(1)).unwrap().size_in_bytes()
        };
        // Room for exactly two entries.
        let (service, solves) = counting_service(2 * probe);
        let (a, b, c) = (linear(1), linear(2), linear(3));
        service.query(&a).unwrap();
        service.query(&b).unwrap();
        service.query(&a).unwrap(); // touch a: b is now least recent
        service.query(&c).unwrap(); // evicts b
        assert_eq!(service.stats().evictions, 1);
        assert_eq!(service.stats().cached_entries, 2);
        let before = solves.load(Ordering::SeqCst);
        service.query(&a).unwrap(); // still resident
        assert_eq!(solves.load(Ordering::SeqCst), before, "a stayed cached");
        service.query(&b).unwrap(); // evicted: must re-solve
        assert_eq!(solves.load(Ordering::SeqCst), before + 1, "b was evicted");
        // Re-querying b evicted the next LRU victim (c after a's touch…
        // a was touched last, so c goes).
        assert_eq!(service.stats().evictions, 2);
    }

    #[test]
    fn zero_budget_disables_caching_but_not_dedup() {
        let (service, solves) = counting_service(0);
        let s = linear(1);
        service.query(&s).unwrap();
        service.query(&s).unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 2, "nothing cached");
        let stats = service.stats();
        assert_eq!(stats.cached_entries, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn shed_under_load_is_typed_and_harmless() {
        let solves = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Blocking {
            solves: Arc::clone(&solves),
            entered: entered_tx,
            release: Arc::clone(&gate),
        }));
        let service = Arc::new(LifetimeService::with_config(
            registry,
            ServiceConfig::default().with_max_in_flight(1),
        ));

        let occupant = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.query(&linear(1)))
        };
        entered_rx.recv().expect("first query reached the backend");
        // The budget is full: a *different* scenario is shed…
        let err = service.query(&linear(2)).expect_err("must shed");
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                in_flight: 1,
                limit: 1
            }
        ));
        assert!(err.to_string().contains("overloaded"));
        Blocking::release(&gate);
        let first = occupant.join().unwrap().expect("occupant succeeds");
        assert_eq!(first.points().len(), 8);
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(
            solves.load(Ordering::SeqCst),
            1,
            "shed query computed nothing"
        );
        // After the flight drains, the same scenario is admitted again.
        assert!(service.query(&linear(2)).is_ok());
    }

    #[test]
    fn identical_concurrent_queries_join_instead_of_shedding() {
        let solves = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Blocking {
            solves: Arc::clone(&solves),
            entered: entered_tx,
            release: Arc::clone(&gate),
        }));
        // max_in_flight = 1: joiners must not count against the budget.
        let service = Arc::new(LifetimeService::with_config(
            registry,
            ServiceConfig::default().with_max_in_flight(1),
        ));
        let s = linear(1);
        let owner = {
            let (service, s) = (Arc::clone(&service), s.clone());
            std::thread::spawn(move || service.query(&s))
        };
        entered_rx.recv().expect("owner reached the backend");
        let joiners: Vec<_> = (0..3)
            .map(|_| {
                let (service, s) = (Arc::clone(&service), s.clone());
                std::thread::spawn(move || service.query(&s))
            })
            .collect();
        // Joining is registration, not completion — give the threads a
        // moment to park, then release the one real solve.
        while service.stats().joined < 3 {
            std::thread::yield_now();
        }
        Blocking::release(&gate);
        let reference = owner.join().unwrap().unwrap();
        for j in joiners {
            let d = j.join().unwrap().expect("joiner shares the result");
            assert_eq!(d.points(), reference.points());
        }
        assert_eq!(solves.load(Ordering::SeqCst), 1, "one solve for 4 queries");
        let stats = service.stats();
        assert_eq!((stats.misses, stats.joined, stats.shed), (1, 3, 0));
    }

    #[test]
    fn errors_propagate_to_joiners_and_are_not_cached() {
        struct Failing {
            solves: Arc<AtomicUsize>,
        }
        impl LifetimeSolver for Failing {
            fn name(&self) -> &'static str {
                "failing"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve_in(
                &self,
                _s: &Scenario,
                _state: Option<&mut GroupState>,
                _budget: &Budget,
            ) -> Result<LifetimeDistribution, KibamRmError> {
                self.solves.fetch_add(1, Ordering::SeqCst);
                Err(KibamRmError::InvalidWorkload("synthetic failure".into()))
            }
        }
        let solves = Arc::new(AtomicUsize::new(0));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Failing {
            solves: Arc::clone(&solves),
        }));
        let service = LifetimeService::new(registry);
        let s = linear(1);
        let err = service.query(&s).expect_err("solve fails");
        assert!(matches!(err, ServiceError::Solve(_)));
        // Errors are not cached: the next query re-solves.
        let _ = service.query(&s).expect_err("still fails");
        assert_eq!(solves.load(Ordering::SeqCst), 2);
        let stats = service.stats();
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.cached_entries, 0);
    }

    #[test]
    fn real_registry_serves_bit_identical_answers_and_reuses_warm_state() {
        let registry = SolverRegistry::with_default_backends();
        let service = LifetimeService::new(SolverRegistry::with_default_backends());
        let base = Scenario::paper_cell_phone().unwrap();
        let family: Vec<Scenario> = [1.0, 0.5, 0.25]
            .iter()
            .map(|&g| base.with_rate_scale(g).unwrap())
            .collect();
        for s in &family {
            let served = service.query(s).unwrap();
            let fresh = registry.solve(s).unwrap();
            assert_eq!(
                served.points(),
                fresh.points(),
                "service answer differs from a fresh solve for {}",
                s.name()
            );
            // And the cached copy is the same bits again.
            assert_eq!(service.query(s).unwrap().points(), fresh.points());
        }
        let stats = service.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
        // The rescale family shares one live group: first member creates
        // the warm state, the rest find it resident.
        assert_eq!(stats.warm_misses, 1);
        assert_eq!(stats.warm_hits, 2);
        assert_eq!(stats.warm_entries, 1);
    }

    #[test]
    fn simulation_queries_share_no_warm_state() {
        // Regression: every Monte Carlo scenario used to share one
        // fingerprint and so one resident worker pool, whose mutex made
        // concurrent MC queries wait on each other. Each MC query now
        // solves on its own, with no warm state to create or find.
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(SimulationSolver::new()));
        let service = LifetimeService::new(registry);
        let (a, b) = (linear(1), linear(2));
        let fresh = |s: &Scenario| SimulationSolver::new().solve(s).unwrap();
        assert_eq!(service.query(&a).unwrap().points(), fresh(&a).points());
        assert_eq!(service.query(&b).unwrap().points(), fresh(&b).points());
        let stats = service.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!((stats.warm_hits, stats.warm_misses), (0, 0));
        assert_eq!(stats.warm_entries, 0);
    }

    #[test]
    fn warm_state_eviction() {
        let service = LifetimeService::new(SolverRegistry::with_default_backends());
        // One more fingerprint than the warm budget holds: tiny two-well
        // batteries whose lattices differ in size, so each is its own
        // group and each solve is cheap.
        let base = Scenario::paper_cell_phone()
            .unwrap()
            .with_kibam(0.5, Rate::per_second(4.5e-5))
            .unwrap()
            .with_delta(Charge::from_milliamp_hours(10.0));
        for levels in 1..=WARM_CAPACITY + 1 {
            let capacity = Charge::from_milliamp_hours(20.0 * levels as f64);
            service
                .query(&base.with_capacity(capacity).unwrap())
                .unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.warm_misses, WARM_CAPACITY as u64 + 1);
        assert_eq!(stats.warm_evictions, 1);
        assert_eq!(stats.warm_entries, WARM_CAPACITY);
    }

    #[test]
    fn config_knobs_and_display() {
        let cfg = ServiceConfig::default()
            .with_max_in_flight(3)
            .with_cache_capacity_bytes(1024);
        assert_eq!(cfg.max_in_flight, 3);
        assert_eq!(cfg.cache_capacity_bytes, 1024);
        let service = LifetimeService::with_config(SolverRegistry::with_default_backends(), cfg);
        assert!(service.registry().find("sericola").is_some());
        let debug = format!("{service:?}");
        assert!(debug.contains("LifetimeService"));
        assert!(debug.contains("max_in_flight: 3"), "{debug}");
        let err = ServiceError::Overloaded {
            in_flight: 9,
            limit: 8,
        };
        assert!(err.to_string().contains("9 solves in flight (limit 8)"));
        assert!(std::error::Error::source(&err).is_none());
        let err: ServiceError = KibamRmError::InvalidWorkload("x".into()).into();
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(ServiceStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn expired_deadline_fails_fast_without_solving() {
        let (service, solves) = counting_service(32 << 20);
        let opts = QueryOptions::new().with_deadline(Duration::ZERO);
        let err = service
            .query_with(&linear(1), &opts)
            .expect_err("deadline already expired");
        assert!(matches!(
            err,
            ServiceError::DeadlineExceeded { completed: 0 }
        ));
        assert!(err.to_string().contains("deadline exceeded"));
        assert_eq!(
            solves.load(Ordering::SeqCst),
            0,
            "an expired deadline must never run the solve"
        );
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.degraded_served, 0);
        assert_eq!(stats.in_flight, 0, "no flight leaked");
        // The failure was not cached; a plain query still works.
        assert!(service.query(&linear(1)).is_ok());
    }

    #[test]
    fn deadline_with_a_resident_delta_variant_still_simulates() {
        let (service, solves) = counting_service(32 << 20);
        let s = linear(1);
        let exact = service.query(&s).unwrap();
        // The same scenario at another Δ is resident, but a curve solved
        // at one Δ carries no checked bound for another: the expired
        // request gets the Monte Carlo estimate.
        let coarse = s.with_delta(Charge::from_amp_seconds(2.0));
        let opts = QueryOptions::new()
            .with_deadline(Duration::ZERO)
            .allow_degraded();
        let answer = service.query_with(&coarse, &opts).unwrap();
        let Answer::Degraded { ref dist, bound } = answer else {
            panic!("expected a degraded answer, got {answer:?}");
        };
        assert_eq!(dist.method(), "simulation");
        assert_ne!(dist.points(), exact.points());
        assert_eq!(bound, sim::dkw_half_width(DEGRADED_RUNS as u64, 0.05));
        assert_eq!(solves.load(Ordering::SeqCst), 1, "only the first solve ran");
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.degraded_served, 1);
        assert_eq!(stats.cached_entries, 1, "degraded answers are never cached");
    }

    #[test]
    fn deadline_without_family_falls_back_to_fast_simulation() {
        let (service, solves) = counting_service(32 << 20);
        let opts = QueryOptions::new()
            .with_deadline(Duration::ZERO)
            .allow_degraded();
        let answer = service.query_with(&linear(7), &opts).unwrap();
        match answer {
            Answer::Degraded { ref dist, bound } => {
                assert_eq!(dist.method(), "simulation");
                assert_eq!(dist.points().len(), 8);
                assert!(
                    bound > 0.0 && bound < 1.0,
                    "a Monte Carlo answer carries a real bound, got {bound}"
                );
                let runs = dist.diagnostics().runs.expect("a simulated curve");
                assert_eq!(runs, DEGRADED_RUNS);
                // The sup-norm band over its runs, never tighter
                // than the widest pointwise Wilson interval.
                assert_eq!(bound, sim::dkw_half_width(runs as u64, 0.05));
                let half_width = dist.diagnostics().half_width.expect("a simulated curve");
                assert!(bound >= half_width, "{bound} < {half_width}");
            }
            ref other => panic!("expected a fast-simulation answer, got {other:?}"),
        }
        assert_eq!(solves.load(Ordering::SeqCst), 0, "exact solve never ran");
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.degraded_served, 1);
        assert_eq!(stats.cached_entries, 0, "degraded answers are never cached");
    }

    #[test]
    fn joiner_deadline_expires_while_flight_completes_normally() {
        let solves = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Blocking {
            solves: Arc::clone(&solves),
            entered: entered_tx,
            release: Arc::clone(&gate),
        }));
        let service = Arc::new(LifetimeService::new(registry));
        let s = linear(1);
        let owner = {
            let (service, s) = (Arc::clone(&service), s.clone());
            std::thread::spawn(move || service.query(&s))
        };
        entered_rx.recv().expect("owner reached the backend");
        // The joiner's deadline expires while the owner still holds the
        // flight: it gets a typed timeout, the flight is unharmed.
        let opts = QueryOptions::new().with_deadline(Duration::from_millis(20));
        let err = service.query_with(&s, &opts).expect_err("joiner times out");
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
        Blocking::release(&gate);
        let owned = owner.join().unwrap().expect("owner still succeeds");
        assert_eq!(owned.points().len(), 8);
        let stats = service.stats();
        assert_eq!(stats.joined, 1);
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.in_flight, 0, "no flight leaked");
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        // The owner's answer was cached despite the joiner's timeout.
        assert_eq!(service.query(&s).unwrap().points(), owned.points());
        assert_eq!(service.stats().hits, 1);
    }

    #[test]
    fn service_deadline_cut_solve_then_full_solve_is_bit_identical() {
        let registry = SolverRegistry::with_default_backends();
        let service = LifetimeService::new(SolverRegistry::with_default_backends());
        let s = Scenario::paper_cell_phone().unwrap();
        // A 2 ms deadline lands mid-uniformisation on this model (it
        // takes much longer); on a pathologically fast machine the solve
        // finishes instead — both are legal, the invariant under test is
        // that an interrupted solve never corrupts later exact answers.
        let opts = QueryOptions::new().with_deadline(Duration::from_millis(2));
        match service.query_with(&s, &opts) {
            Err(ServiceError::DeadlineExceeded { .. }) => {}
            Ok(answer) => assert!(!answer.is_degraded()),
            Err(other) => panic!("unexpected error: {other}"),
        }
        let served = service.query(&s).expect("full solve succeeds");
        let fresh = registry.solve(&s).unwrap();
        assert_eq!(
            served.points(),
            fresh.points(),
            "an interrupted solve must not perturb the exact answer"
        );
        assert_eq!(service.stats().in_flight, 0);
    }

    #[test]
    fn error_display_and_source_span_every_variant() {
        let deadline = ServiceError::DeadlineExceeded { completed: 41 };
        assert!(deadline.to_string().contains("41"));
        assert!(std::error::Error::source(&deadline).is_none());
        // A solve error displays and chains the backend's error verbatim;
        // a backend's deadline lifts into the service's own variant.
        let solve: ServiceError = KibamRmError::InvalidWorkload("bad rate".into()).into();
        assert!(solve.to_string().contains("bad rate"));
        assert!(std::error::Error::source(&solve).is_some());
        let lifted: ServiceError = KibamRmError::DeadlineExceeded { completed: 3 }.into();
        assert_eq!(lifted, ServiceError::DeadlineExceeded { completed: 3 });
    }

    #[test]
    fn query_options_builders() {
        let opts = QueryOptions::new()
            .with_deadline(Duration::from_secs(1))
            .allow_degraded();
        assert_eq!(opts.deadline, Some(Duration::from_secs(1)));
        assert!(opts.degraded_ok);
        assert_eq!(QueryOptions::new(), QueryOptions::default());
    }

    #[test]
    fn deterministic_solve_failures_are_reported_verbatim_every_time() {
        // Every solve is a pure function of its scenario, so each query
        // must report the same backend error; none may be replaced by a
        // shed telling the client to retry a request that cannot succeed.
        let service = LifetimeService::new(SolverRegistry::with_default_backends());
        let bad = Scenario::paper_cell_phone()
            .unwrap()
            .with_delta(Charge::from_coulombs(7.3));
        let messages: Vec<String> = (0..6)
            .map(|_| match service.query(&bad) {
                Err(ServiceError::Solve(e @ KibamRmError::InvalidDiscretisation(_))) => {
                    e.to_string()
                }
                other => panic!("expected the discretisation error, got {other:?}"),
            })
            .collect();
        assert!(
            messages[0].contains("does not evenly divide"),
            "{}",
            messages[0]
        );
        assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
        let stats = service.stats();
        assert_eq!((stats.misses, stats.errors), (6, 6));
        assert_eq!(stats.cached_entries, 0);
    }

    /// A unique temp path for one snapshot test.
    fn snap_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kibamrm-svc-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.snap"))
    }

    #[test]
    fn snapshot_round_trip_revives_identical_bits() {
        let (service, solves) = counting_service(32 << 20);
        let scenarios: Vec<Scenario> = (1..=3).map(linear).collect();
        let originals: Vec<LifetimeDistribution> = scenarios
            .iter()
            .map(|s| service.query(s).unwrap())
            .collect();
        let path = snap_path("round-trip");
        let report = service.save_snapshot(&path).unwrap();
        assert_eq!(report.entries, 3);
        assert!(report.bytes > snapshot::HEADER_LEN);
        assert_eq!(service.stats().snapshot_written, 1);

        // A fresh process: same backends, empty cache.
        let (revived, revived_solves) = counting_service(32 << 20);
        let load = revived.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (3, 0));
        assert!(load.error.is_none());
        assert!(!load.is_cold());
        for (s, original) in scenarios.iter().zip(&originals) {
            let served = revived.query(s).unwrap();
            assert_eq!(served.points(), original.points(), "bits differ for {s:?}");
            assert_eq!(served.method(), original.method());
        }
        assert_eq!(
            revived_solves.load(Ordering::SeqCst),
            0,
            "every post-restart query was a warm hit"
        );
        let stats = revived.stats();
        assert_eq!(stats.snapshot_loaded, 3);
        assert_eq!(stats.snapshot_rejected, 0);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 0);
        assert_eq!(
            stats.result_cache_bytes,
            service.stats().result_cache_bytes,
            "the byte ledger survives the round trip"
        );
        drop(solves);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_load_preserves_lru_order() {
        let probe = {
            let (service, _) = counting_service(usize::MAX);
            service.query(&linear(1)).unwrap().size_in_bytes()
        };
        let (service, _) = counting_service(3 * probe);
        let (a, b, c) = (linear(1), linear(2), linear(3));
        service.query(&a).unwrap();
        service.query(&b).unwrap();
        service.query(&c).unwrap();
        service.query(&a).unwrap(); // a is most recent: LRU order b, c, a
        let path = snap_path("lru-order");
        service.save_snapshot(&path).unwrap();

        // Revive into a cache with room for the same three entries,
        // then insert a fourth: b must be the victim.
        let (revived, _) = counting_service(3 * probe);
        assert_eq!(revived.load_snapshot(&path).loaded, 3);
        revived.query(&linear(4)).unwrap();
        assert_eq!(revived.stats().evictions, 1);
        let before = revived.stats().misses;
        revived.query(&a).unwrap();
        revived.query(&c).unwrap();
        assert_eq!(revived.stats().misses, before, "a and c stayed resident");
        revived.query(&b).unwrap();
        assert_eq!(
            revived.stats().misses,
            before + 1,
            "b was the least-recently-used revived entry"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_missing_file_is_a_clean_cold_start() {
        let (service, _) = counting_service(32 << 20);
        let load = service.load_snapshot(Path::new("/nonexistent/kibamrm-nowhere.snap"));
        assert_eq!((load.loaded, load.rejected), (0, 0));
        assert!(load.error.is_none());
        assert!(load.is_cold());
        let stats = service.stats();
        assert_eq!((stats.snapshot_loaded, stats.snapshot_rejected), (0, 0));
    }

    #[test]
    fn snapshot_corruption_rejects_wholesale_and_counts_once() {
        let (service, _) = counting_service(32 << 20);
        service.query(&linear(1)).unwrap();
        let path = snap_path("corrupt");
        service.save_snapshot(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (revived, _) = counting_service(32 << 20);
        let load = revived.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (0, 1));
        assert!(matches!(load.error, Some(SnapshotError::Corrupt(_))));
        assert!(load.is_cold());
        let stats = revived.stats();
        assert_eq!(stats.snapshot_rejected, 1);
        assert_eq!(stats.cached_entries, 0, "nothing revived from a bad file");
        // The service still answers normally after the cold start.
        assert!(revived.query(&linear(1)).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_entries_skip_resident_keys_and_unknown_backends() {
        let (service, _) = counting_service(32 << 20);
        service.query(&linear(1)).unwrap();
        service.query(&linear(2)).unwrap();
        let path = snap_path("skips");
        service.save_snapshot(&path).unwrap();

        // One key already resident: only the other entry is revived.
        let (half_warm, _) = counting_service(32 << 20);
        half_warm.query(&linear(1)).unwrap();
        let load = half_warm.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (1, 1));
        assert_eq!(half_warm.stats().cached_entries, 2);
        assert_eq!(
            half_warm.stats().result_cache_bytes,
            service.stats().result_cache_bytes,
            "skipping the resident key keeps the byte ledger exact"
        );

        // A registry that never had the "counting" backend rejects
        // every entry: the method cannot be interned.
        let strangers = LifetimeService::new(SolverRegistry::with_default_backends());
        let load = strangers.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (0, 2));
        assert_eq!(strangers.stats().snapshot_rejected, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_revival_during_a_flight_charges_the_byte_ledger_once() {
        // The snapshot revives key K while K's own flight is still
        // solving; the flight then completes onto the resident entry.
        let blocking_service = |gate: &Arc<(Mutex<bool>, Condvar)>| {
            let (entered_tx, entered_rx) = mpsc::channel();
            let mut registry = SolverRegistry::empty();
            registry.register(Box::new(Blocking {
                solves: Arc::new(AtomicUsize::new(0)),
                entered: entered_tx,
                release: Arc::clone(gate),
            }));
            (Arc::new(LifetimeService::new(registry)), entered_rx)
        };
        let s = linear(1);
        let path = snap_path("revive-in-flight");
        let (writer, _) = blocking_service(&Arc::new((Mutex::new(true), Condvar::new())));
        let entry_bytes = writer.query(&s).unwrap().size_in_bytes();
        writer.save_snapshot(&path).unwrap();

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (service, entered) = blocking_service(&gate);
        let owner = {
            let (service, s) = (Arc::clone(&service), s.clone());
            std::thread::spawn(move || service.query(&s))
        };
        entered.recv().expect("K's flight reached the backend");
        assert_eq!(service.load_snapshot(&path).loaded, 1);
        Blocking::release(&gate);
        owner.join().unwrap().expect("the flight completes");
        let stats = service.stats();
        assert_eq!(stats.cached_entries, 1);
        assert_eq!(stats.result_cache_bytes, entry_bytes, "K is charged once");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_rejects_curves_off_the_scenario_grid() {
        let (service, _) = counting_service(32 << 20);
        service.query(&linear(1)).unwrap();
        let path = snap_path("grid");
        service.save_snapshot(&path).unwrap();

        // Re-encode the snapshot with one sample time nudged off the
        // scenario's grid: structurally valid, semantically wrong.
        let mut entries = snapshot::decode(&std::fs::read(&path).unwrap()).unwrap();
        entries[0].points[0].0 += 1.0;
        snapshot::write_atomic(&path, &snapshot::encode(&entries).unwrap()).unwrap();

        let (revived, revived_solves) = counting_service(32 << 20);
        let load = revived.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (0, 1));
        // The rejected entry costs a fresh solve — never a wrong answer.
        revived.query(&linear(1)).unwrap();
        assert_eq!(revived_solves.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_file(&path);
    }
}
