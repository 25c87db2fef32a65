//! The parallel streaming Monte Carlo engine, certified:
//! `BENCH_mc.json`.
//!
//! The scenario is a linear (`c = 1`) on/off model small enough that
//! Sericola's exact algorithm provides a zero-error reference curve, so
//! the simulation's disagreement with it is *purely* statistical and the
//! Wilson band is the whole story. Two machine-independent claims are
//! certified on every run (and re-checked by `bench-harness regress`):
//!
//! * **reproducibility** — the streaming study is bit-identical across
//!   1, 2, 4 and 8 worker threads (counter-derived replication streams +
//!   batch-ordered merging);
//! * **CI-band agreement** — the fixed-seed sup distance between the
//!   simulated and exact curves stays within 3× the study's largest
//!   Wilson half-width.

use super::config::Config;
use super::write_json;
use kibamrm::scenario::Scenario;
use kibamrm::solver::{Budget, LifetimeSolver, SericolaSolver};
use kibamrm::workload::Workload;
use units::{Charge, Current, Frequency, Time};

/// Fixed master seed of the committed study (the agreement check is a
/// fixed-seed statistical test: deterministic given the binary).
pub(crate) const GATE_SEED: u64 = 2007;
/// Replication count of the gate configuration (quick enough for CI).
pub(crate) const GATE_RUNS: usize = 4000;
/// The agreement band: 3× the largest Wilson half-width (≈ 3σ).
pub(crate) const BAND_FACTOR: f64 = 3.0;

/// The linear on/off gate scenario: 72 As at 0.96 A drawn half the
/// time (mean lifetime ≈ 150 s), queried every 10 s — cheap to
/// simulate, exactly solvable by Sericola.
pub(crate) fn gate_scenario(runs: usize, seed: u64) -> Result<Scenario, String> {
    Scenario::builder()
        .name("mc-gate-onoff-linear")
        .workload(
            Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
                .map_err(|e| e.to_string())?,
        )
        .capacity(Charge::from_amp_seconds(72.0))
        .linear()
        .times(
            (1..=24)
                .map(|i| Time::from_seconds(i as f64 * 10.0))
                .collect(),
        )
        .simulation(runs, seed)
        .build()
        .map_err(|e| e.to_string())
}

/// The machine-independent gate facts, shared with `regress`.
pub(crate) struct GateFacts {
    /// Bit-identity held across 1, 2, 4 and 8 worker threads.
    pub bit_identical: bool,
    /// Fixed-seed sup distance of the simulated curve from the exact one.
    pub sup_distance: f64,
    /// `BAND_FACTOR ×` the largest Wilson half-width over the grid.
    pub wilson_band: f64,
    /// Replications of the study behind the numbers above.
    pub runs: usize,
}

impl GateFacts {
    /// Agreement verdict.
    pub fn within_band(&self) -> bool {
        self.sup_distance <= self.wilson_band
    }
}

/// Runs the gate configuration and checks reproducibility + agreement.
pub(crate) fn gate_facts(runs: usize, seed: u64) -> Result<GateFacts, String> {
    use kibamrm::simulate::streaming_lifetime_study;

    let scenario = gate_scenario(runs, seed)?;
    let model = scenario.to_model().map_err(|e| e.to_string())?;
    // Thread-count bit-identity: the guarantee the engine rests on.
    // The engine takes the thread count as given (no clamp to the
    // machine), which keeps the check meaningful even on a single-core
    // CI box — real worker threads, claiming batches in any order.
    let run_with = |threads: usize| {
        streaming_lifetime_study(
            &model,
            scenario.times(),
            scenario.horizon(),
            scenario.sim_seed(),
            runs as u64,
            threads,
            &Budget::unlimited(),
        )
        .map_err(|e| e.to_string())
    };
    let reference = run_with(1)?;
    let mut bit_identical = true;
    for threads in [2usize, 4, 8] {
        if run_with(threads)? != reference {
            bit_identical = false;
        }
    }

    let exact = SericolaSolver::new()
        .solve(&scenario)
        .map_err(|e| e.to_string())?;
    let mut sup = 0.0f64;
    for (i, &(_, p_exact)) in exact.points().iter().enumerate() {
        sup = sup.max((reference.empty_probability(i) - p_exact).abs());
    }
    Ok(GateFacts {
        bit_identical,
        sup_distance: sup,
        wilson_band: BAND_FACTOR * reference.max_half_width(),
        runs: reference.total_runs() as usize,
    })
}

/// Runs the experiment.
///
/// # Errors
///
/// A human-readable message on any failure — including a failed
/// reproducibility or agreement check (these are contracts, not
/// tolerances).
pub fn run(cfg: &Config) -> Result<(), String> {
    // Gate section: always the quick configuration, so the committed
    // facts are exactly what `regress` re-derives in CI.
    let facts = gate_facts(GATE_RUNS, GATE_SEED)?;
    if !facts.bit_identical {
        return Err("streaming studies differ across thread counts".into());
    }
    if !facts.within_band() {
        return Err(format!(
            "simulation is {:.4} from the exact curve, outside the Wilson band {:.4}",
            facts.sup_distance, facts.wilson_band
        ));
    }
    println!(
        "gate: {} runs, bit-identical across threads 1/2/4/8, sup-distance {:.4} \
         within band {:.4}",
        facts.runs, facts.sup_distance, facts.wilson_band
    );

    let body = format!(
        "{{\n  \"bench\": \"mc\",\n  \"generated_by\": \"bench-harness mc\",\n  \
         \"scenario\": \"onoff-linear-72As, 24-point grid to 240 s\",\n  \
         \"note\": \"the gate facts (reproducibility, CI-band agreement) are \
         machine-independent and re-checked by `bench-harness regress`; streaming \
         memory is O(grid + threads) independent of the replication count\",\n  \
         \"gate\": {{\n    \"runs\": {},\n    \"seed\": {},\n    \
         \"band_factor\": {},\n    \"bit_identical_across_threads\": {},\n    \
         \"sup_distance_vs_exact\": {:.6e},\n    \"wilson_band\": {:.6e},\n    \
         \"within_band\": {}\n  }}\n}}\n",
        facts.runs,
        GATE_SEED,
        BAND_FACTOR,
        facts.bit_identical,
        facts.sup_distance,
        facts.wilson_band,
        facts.within_band(),
    );
    write_json(cfg, "BENCH_mc.json", &body)
}
