//! The resident query service under a synthetic device-fleet trace,
//! written as `BENCH_service.json`.
//!
//! The trace models the service's target shape: a fleet of devices that
//! are *configured alike* but *labelled apart* — every device re-queries
//! the same handful of physical configurations (power-of-two rate
//! rescales × Δ variants of the Fig. 8 two-well scenario) under its own
//! device name. Requests are drawn from a fixed-seed LCG, so the trace
//! (and therefore the hit-rate the regression gate checks) is fully
//! deterministic; `--quick` shrinks it to the CI gate size.
//!
//! Recorded per run (counters and exact facts; request latency is
//! measured by perfbench):
//!
//! * **hit rate** — the fraction of admitted requests served without a
//!   fresh solve (result-cache hits + single-flight joins). The name
//!   erasure in [`Scenario::canonical_bytes`] is what makes per-device
//!   labels free here.
//! * **bit-identity** — after the trace, every distinct configuration is
//!   re-queried and compared against an independent
//!   `SolverRegistry::solve` under the same engine configuration; the
//!   sup-distance must be **exactly 0** (the cross-request cache is an
//!   optimisation, never an approximation). The same check runs in
//!   `bench-harness regress` against the committed baseline.
//! * **degraded distance** — the largest sup-distance between a
//!   deadline-leg degraded answer and an independent 4000-run study of
//!   the same scenario, which must stay within the answer's bound plus
//!   the study's DKW half-width.
//!
//! Every service and every fresh solve it is compared with runs the
//! shipped engine, [`SolverRegistry::with_default_backends`], so the
//! gate checks what a deployed `kibamrm-serve` answers.

use super::config::Config;
use super::write_json;
use kibamrm::scenario::Scenario;
use kibamrm::service::{Answer, LifetimeService, QueryOptions, ServiceConfig, ServiceStats};
use kibamrm::solver::{LifetimeSolver, SimulationSolver, SolverRegistry};
use kibamrm::workload::Workload;
use std::time::Duration;
use units::{Charge, Current, Frequency, Rate, Time};

/// Hit-rate floor the regression gate enforces on the quick trace (the
/// trace is deterministic: 24 requests over 2 configurations leave at
/// most 2 misses, so the realised rate is ≥ 22/24 ≈ 0.92 — the floor
/// leaves slack only for trace-shape edits, not for cache regressions).
pub(crate) const GATE_HIT_RATE_FLOOR: f64 = 0.85;

/// The deadline leg is deterministic by construction (already-expired
/// deadlines, resident-vs-fresh targets alternating 1:1, every fresh
/// target served by the fast Monte Carlo estimate), so its rates are
/// exact machine-independent facts the regression gate compares against
/// bit for bit.
pub(crate) const GATE_DEADLINE_HIT_RATE: f64 = 0.5;
pub(crate) const GATE_DEGRADED_FRACTION: f64 = 0.5;

/// Replications of the independent Monte Carlo reference each degraded
/// answer is checked against.
const REFERENCE_RUNS: usize = 4000;

/// The Fig. 8 two-well base scenario the fleet's configurations vary.
fn base_scenario() -> Result<Scenario, String> {
    Scenario::builder()
        .name("fig8")
        .workload(
            Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
                .map_err(|e| e.to_string())?,
        )
        .capacity(Charge::from_amp_seconds(7200.0))
        .kibam(0.625, Rate::per_second(4.5e-5))
        .time_grid(Time::from_seconds(8000.0), 16)
        .delta(Charge::from_amp_seconds(300.0))
        .build()
        .map_err(|e| e.to_string())
}

/// The fleet's distinct physical configurations: power-of-two rate
/// rescales × Δ variants of the Fig. 8 base (2 in quick mode, 8 in
/// full mode), each with its rate scale γ.
fn fleet_configurations(quick: bool) -> Result<Vec<(f64, Scenario)>, String> {
    let base = base_scenario()?;
    let (scales, deltas): (&[f64], &[f64]) = if quick {
        (&[1.0, 0.5], &[300.0])
    } else {
        (&[1.0, 0.5, 0.25, 0.125], &[300.0, 150.0])
    };
    let mut configurations = Vec::new();
    for &delta in deltas {
        for &gamma in scales {
            configurations.push((
                gamma,
                base.with_delta(Charge::from_amp_seconds(delta))
                    .with_rate_scale(gamma)
                    .map_err(|e| e.to_string())?,
            ));
        }
    }
    Ok(configurations)
}

/// What one trace run produced.
pub(crate) struct TraceOutcome {
    pub requests: usize,
    pub distinct: usize,
    pub workers: usize,
    pub stats: ServiceStats,
    /// Sup-distance between the service's answers and independent fresh
    /// solves over every distinct configuration (must be exactly 0).
    pub sup_vs_fresh: f64,
    /// Requests in the deterministic deadline leg (half against resident
    /// configurations, half against fresh Δ-variants).
    pub deadline_requests: usize,
    /// The largest sup-distance between a degraded answer and its
    /// independent reference study.
    pub max_degraded_distance: f64,
    /// What that distance may reach: the degraded answer's own bound
    /// plus the reference study's 95 % DKW half-width.
    pub degraded_allowance: f64,
}

impl TraceOutcome {
    /// Fraction of deadline-carrying requests whose deadline expired.
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.deadline_requests == 0 {
            return 0.0;
        }
        self.stats.deadline_expired as f64 / self.deadline_requests as f64
    }

    /// Fraction of deadline-carrying requests served degraded.
    pub fn degraded_fraction(&self) -> f64 {
        if self.deadline_requests == 0 {
            return 0.0;
        }
        self.stats.degraded_served as f64 / self.deadline_requests as f64
    }
}

/// Runs the deterministic fleet trace through a fresh resident service:
/// `requests` queries drawn by a fixed-seed LCG over the distinct
/// configurations, each re-labelled with its requesting device's name,
/// driven by `workers` threads. Afterwards every distinct configuration
/// is diffed against an independent fresh solve.
pub(crate) fn run_fleet_trace(
    quick: bool,
    requests: usize,
    workers: usize,
) -> Result<TraceOutcome, String> {
    let (scales, configurations): (Vec<f64>, Vec<Scenario>) =
        fleet_configurations(quick)?.into_iter().unzip();
    let service = LifetimeService::with_config(
        SolverRegistry::with_default_backends(),
        // The bench measures caching, not shedding: admit everything.
        ServiceConfig::default().with_max_in_flight(requests.max(1)),
    );

    // Fixed-seed LCG (MMIX constants): the trace is part of the gate.
    let mut lcg_state = 2007u64;
    let trace: Vec<Scenario> = (0..requests)
        .map(|device| {
            lcg_state = lcg_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = ((lcg_state >> 33) as usize) % configurations.len();
            configurations[pick].with_name(format!("device-{device:03}"))
        })
        .collect();

    let workers = workers.clamp(1, requests.max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (service, trace) = (&service, &trace);
                scope.spawn(move || {
                    trace
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .try_for_each(|scenario| {
                            service
                                .query(scenario)
                                .map(|_| ())
                                .map_err(|e| e.to_string())
                        })
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("trace worker panicked"))
    })?;

    // Bit-identity: every distinct configuration, served (from cache or
    // freshly) vs an independent registry solve.
    let reference = SolverRegistry::with_default_backends();
    let mut sup_vs_fresh = 0.0f64;
    for scenario in &configurations {
        let served = service.query(scenario).map_err(|e| e.to_string())?;
        let fresh = reference.solve(scenario).map_err(|e| e.to_string())?;
        let sup = served.max_difference(&fresh).map_err(|e| e.to_string())?;
        sup_vs_fresh = sup_vs_fresh.max(sup);
    }

    // Deadline leg — deterministic by construction, so its ledger is
    // part of the gate. Per distinct configuration, two requests carry
    // an already-expired deadline with degradation allowed:
    //
    // * one against the (now guaranteed resident) configuration itself —
    //   a cache hit needs no solve, so it serves *exact* within any
    //   deadline;
    // * one against a fresh Δ-variant — the exact solve fails fast on
    //   the exhausted budget and the service serves a fast Monte Carlo
    //   estimate (256 runs of the variant's own seed, run to completion)
    //   with its DKW bound. The bound is then held to an independent
    //   4000-run study of the same variant at another seed: the two
    //   curves may differ by the bound plus the study's own DKW
    //   half-width.
    //
    // Realised rates: deadline-hit 1/2, degraded-served 1/2, exactly.
    let opts = QueryOptions::new()
        .with_deadline(Duration::ZERO)
        .allow_degraded();
    let reference_band = sim::dkw_half_width(REFERENCE_RUNS as u64, 0.05);
    let mut deadline_requests = 0usize;
    let mut max_degraded_distance = 0.0f64;
    let mut degraded_allowance = f64::INFINITY;
    let mut checked: Vec<Scenario> = Vec::new();
    for (gamma, scenario) in scales.iter().zip(&configurations) {
        let resident = service
            .query_with(scenario, &opts)
            .map_err(|e| e.to_string())?;
        deadline_requests += 1;
        if resident.is_degraded() {
            return Err("a resident configuration must serve exact within any deadline".into());
        }
        // The variant is asked where its lifetime curve rises: between
        // 11 125 s and 13 000 s at γ = 1, and 1/γ times later at rate
        // scale γ (the whole process runs at γ× speed).
        let variant = scenario
            .with_delta(Charge::from_amp_seconds(75.0))
            .with_times(
                (1..=16)
                    .map(|i| Time::from_seconds((11_000.0 + 125.0 * f64::from(i)) / gamma))
                    .collect(),
            )
            .map_err(|e| e.to_string())?;
        let answer = service
            .query_with(&variant, &opts)
            .map_err(|e| e.to_string())?;
        deadline_requests += 1;
        match answer {
            Answer::Degraded { dist, bound } => {
                if !(bound.is_finite() && bound > 0.0 && bound < 1.0) {
                    return Err(format!(
                        "degraded answer carries a non-probability error bound {bound}"
                    ));
                }
                // The Δ variants of one γ coincide, and so do their
                // (Δ-independent) simulated answers: check each once.
                if checked.contains(&variant) {
                    continue;
                }
                let study =
                    variant.with_simulation(REFERENCE_RUNS, variant.sim_seed().wrapping_add(1));
                let reference = SimulationSolver::new()
                    .solve(&study)
                    .map_err(|e| e.to_string())?;
                let distance = dist.max_difference(&reference).map_err(|e| e.to_string())?;
                let allowance = bound + reference_band;
                if !(distance <= allowance) {
                    return Err(format!(
                        "degraded answer lies {distance:.4} from a {REFERENCE_RUNS}-run \
                         reference, beyond its bound {bound:.4} plus the reference's \
                         {reference_band:.4}"
                    ));
                }
                max_degraded_distance = max_degraded_distance.max(distance);
                degraded_allowance = degraded_allowance.min(allowance);
                checked.push(variant);
            }
            Answer::Exact(_) => {
                return Err("an expired-deadline solve of a fresh variant cannot be exact".into())
            }
        }
    }

    Ok(TraceOutcome {
        requests,
        distinct: configurations.len(),
        workers,
        stats: service.stats(),
        sup_vs_fresh,
        deadline_requests,
        max_degraded_distance,
        degraded_allowance,
    })
}

/// What the snapshot-reload leg produced. Every field is a deterministic
/// machine-independent fact: the leg solves each distinct configuration
/// once, snapshots, revives into a fresh service, and re-queries — so
/// the written/loaded/rejected counts, the reload hit rate (1.0) and
/// the sup-distance after reload (exactly 0) are all part of the
/// regression gate.
pub(crate) struct SnapshotOutcome {
    pub distinct: usize,
    pub entries_written: usize,
    pub snapshot_bytes: usize,
    pub loaded: usize,
    pub rejected: usize,
    pub reload_hit_rate: f64,
    /// Sup-distance between post-reload served answers and independent
    /// fresh solves (must be exactly 0: revival is byte-exact).
    pub sup_vs_fresh: f64,
}

/// Runs the deterministic snapshot-reload leg: solve every distinct
/// configuration through a fresh service, write a snapshot, revive it
/// into a second fresh service (a simulated restart), and re-query
/// everything against independent fresh solves.
pub(crate) fn run_snapshot_leg(quick: bool) -> Result<SnapshotOutcome, String> {
    let configurations: Vec<Scenario> = fleet_configurations(quick)?
        .into_iter()
        .map(|(_, scenario)| scenario)
        .collect();
    let config = ServiceConfig::default().with_max_in_flight(configurations.len().max(1));
    let first_life = LifetimeService::with_config(SolverRegistry::with_default_backends(), config);
    for scenario in &configurations {
        first_life.query(scenario).map_err(|e| e.to_string())?;
    }
    let path = std::env::temp_dir().join(format!(
        "kibamrm-bench-snapshot-{}.snap",
        std::process::id()
    ));
    let written = first_life.save_snapshot(&path).map_err(|e| e.to_string())?;

    // The "restarted process": same backends, empty caches, then revive.
    let second_life = LifetimeService::with_config(SolverRegistry::with_default_backends(), config);
    let load = second_life.load_snapshot(&path);
    if let Some(e) = &load.error {
        let _ = std::fs::remove_file(&path);
        return Err(format!("snapshot rejected on reload: {e}"));
    }

    let reference = SolverRegistry::with_default_backends();
    let mut sup_vs_fresh = 0.0f64;
    for scenario in &configurations {
        let served = second_life.query(scenario).map_err(|e| e.to_string())?;
        let fresh = reference.solve(scenario).map_err(|e| e.to_string())?;
        let sup = served.max_difference(&fresh).map_err(|e| e.to_string())?;
        sup_vs_fresh = sup_vs_fresh.max(sup);
    }
    let _ = std::fs::remove_file(&path);
    let stats = second_life.stats();
    Ok(SnapshotOutcome {
        distinct: configurations.len(),
        entries_written: written.entries,
        snapshot_bytes: written.bytes,
        loaded: load.loaded,
        rejected: load.rejected,
        reload_hit_rate: stats.hit_rate(),
        sup_vs_fresh,
    })
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure — including any
/// non-zero served-vs-fresh sup-distance (bit-identity is part of the
/// service's contract, not a tolerance).
pub fn run(cfg: &Config) -> Result<(), String> {
    let quick = cfg.quick;
    let requests = if quick {
        24
    } else if cfg.fast {
        48
    } else {
        96
    };
    // One client: the trace's hit/join counters then depend on nothing
    // but the request order, so `BENCH_service.json` reproduces byte for
    // byte on any machine. `regress` drives its quick trace with
    // `--threads` clients to keep concurrency exercised.
    let outcome = run_fleet_trace(quick, requests, 1)?;
    if outcome.sup_vs_fresh != 0.0 {
        return Err(format!(
            "service answers differ from independent solves: sup-distance \
             {:e} (must be exactly 0)",
            outcome.sup_vs_fresh
        ));
    }
    let stats = outcome.stats;
    let hit_rate = stats.hit_rate();
    println!(
        "service trace: {} requests over {} configurations ({} workers) — \
         hit rate {:.3} ({} hits, {} joined, {} misses, {} shed), warm \
         {}h/{}m, sup-distance {:e}",
        outcome.requests,
        outcome.distinct,
        outcome.workers,
        hit_rate,
        stats.hits,
        stats.joined,
        stats.misses,
        stats.shed,
        stats.warm_hits,
        stats.warm_misses,
        outcome.sup_vs_fresh,
    );
    println!(
        "deadline leg: {} requests — deadline-hit rate {:.3} ({} expired), \
         degraded-serve fraction {:.3} ({} served), largest distance to the \
         reference {:.4} (allowed {:.4})",
        outcome.deadline_requests,
        outcome.deadline_hit_rate(),
        stats.deadline_expired,
        outcome.degraded_fraction(),
        stats.degraded_served,
        outcome.max_degraded_distance,
        outcome.degraded_allowance,
    );

    let snap = run_snapshot_leg(quick)?;
    if snap.loaded != snap.entries_written || snap.rejected != 0 {
        return Err(format!(
            "snapshot reload lost entries: {} written, {} loaded, {} rejected",
            snap.entries_written, snap.loaded, snap.rejected
        ));
    }
    if snap.sup_vs_fresh != 0.0 {
        return Err(format!(
            "post-reload answers differ from independent solves: sup-distance \
             {:e} (must be exactly 0)",
            snap.sup_vs_fresh
        ));
    }
    println!(
        "snapshot leg: {} configurations — {} entries / {} bytes written, \
         {} revived, {} rejected, reload hit rate {:.3}, sup-distance {:e}",
        snap.distinct,
        snap.entries_written,
        snap.snapshot_bytes,
        snap.loaded,
        snap.rejected,
        snap.reload_hit_rate,
        snap.sup_vs_fresh,
    );

    let body = format!(
        "{{\n  \"bench\": \"service\",\n  \"generated_by\": \"bench-harness service\",\n  \
         \"engine\": \"default backends (SolverRegistry::with_default_backends), as kibamrm-serve ships them\",\n  \
         \"note\": \"deterministic fixed-seed fleet trace of per-device relabelled \
         queries over power-of-two rate rescales and deltas of the Fig. 8 two-well \
         scenario; served answers are asserted bit-identical to independent fresh solves \
         on every run; the deadline leg is deterministic (already-expired deadlines, \
         resident vs fresh-variant targets 1:1) and every degraded answer is a fast \
         Monte Carlo estimate whose DKW error bound is checked; the snapshot leg \
         writes the solved configurations to a crash-safe snapshot, revives it into a \
         fresh service and asserts every \
         re-query is a warm hit bit-identical to an independent fresh solve\",\n  \
         \"trace\": {{\n    \"requests\": {},\n    \"distinct_configurations\": {},\n    \
         \"workers\": {},\n    \"hit_rate\": {:.4},\n    \"hits\": {},\n    \
         \"joined\": {},\n    \"misses\": {},\n    \"shed\": {},\n    \
         \"warm_hits\": {},\n    \"warm_misses\": {},\n    \"evictions\": {},\n    \
         \"result_cache_bytes\": {},\n    \
         \"max_abs_difference_vs_fresh\": {:e}\n  }},\n  \
         \"deadline_leg\": {{\n    \"requests\": {},\n    \"deadline_expired\": {},\n    \
         \"deadline_hit_rate\": {:.4},\n    \"degraded_served\": {},\n    \
         \"degraded_fraction\": {:.4},\n    \
         \"max_degraded_distance_vs_reference\": {:.6}\n  }},\n  \
         \"snapshot\": {{\n    \"distinct_configurations\": {},\n    \
         \"entries_written\": {},\n    \"snapshot_bytes\": {},\n    \
         \"loaded\": {},\n    \"rejected\": {},\n    \
         \"reload_hit_rate\": {:.4},\n    \
         \"max_abs_difference_vs_fresh_after_reload\": {:e}\n  }}\n}}\n",
        outcome.requests,
        outcome.distinct,
        outcome.workers,
        hit_rate,
        stats.hits,
        stats.joined,
        stats.misses,
        stats.shed,
        stats.warm_hits,
        stats.warm_misses,
        stats.evictions,
        stats.result_cache_bytes,
        outcome.sup_vs_fresh,
        outcome.deadline_requests,
        stats.deadline_expired,
        outcome.deadline_hit_rate(),
        stats.degraded_served,
        outcome.degraded_fraction(),
        outcome.max_degraded_distance,
        snap.distinct,
        snap.entries_written,
        snap.snapshot_bytes,
        snap.loaded,
        snap.rejected,
        snap.reload_hit_rate,
        snap.sup_vs_fresh,
    );
    write_json(cfg, "BENCH_service.json", &body)
}
