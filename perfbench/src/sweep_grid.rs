//! `sweep_grid`: one `ScenarioGrid` through `SolverRegistry::sweep` with
//! the default options — load shape × (c, k) × Δ × power-of-two rate
//! scales on the Fig. 8 base. The planner, template refill, Fox–Glynn
//! and the rate-rescale family amortisation do the work; the HTTP front
//! and the resident service do none.

use crate::calibrate::Calibration;
use crate::inputs::{Fig8, Rng, HORIZON_S, TIME_POINTS};
use crate::replay::{self, Tally};
use crate::trace::Tracer;
use crate::{json_num, json_nums, json_object, repeat_for, set_up_repeatedly, Outcome, Run};
use kibamrm::solver::SolverRegistry;
use kibamrm::sweep::ScenarioGrid;
use kibamrm::{KibamRmError, LifetimeDistribution, Scenario};
use std::time::Instant;
use units::{Charge, Rate};

const STAGES: [u32; 2] = [1, 2];
const CS: [f64; 2] = [0.625, 0.5];
const DELTAS_AS: [f64; 2] = [450.0, 300.0];
const RATE_SCALES: [f64; 2] = [0.5, 1.0];
/// Grid points re-solved on their own after set-up, drawn from the seed.
const SAMPLED_SLOTS: usize = 4;

type Answers = Vec<Result<LifetimeDistribution, KibamRmError>>;

fn grid(fig: &Fig8) -> Result<ScenarioGrid, String> {
    let base = fig.scenario(CS[0], 1.0, DELTAS_AS[0])?;
    let workloads = STAGES
        .iter()
        .map(|&k| Ok((format!("erlang{k}"), fig.workload(k)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ScenarioGrid::new(base)
        .workloads(workloads)
        .kibams(
            CS.iter()
                .map(|&c| (c, Rate::per_second(fig.k_per_s)))
                .collect(),
        )
        .deltas(
            DELTAS_AS
                .iter()
                .map(|&d| Charge::from_amp_seconds(d))
                .collect(),
        )
        .rate_scales(RATE_SCALES.to_vec()))
}

/// Expands the grid and runs the first (reference) sweep.
fn set_up(fig: &Fig8, registry: &SolverRegistry) -> Result<(Vec<Scenario>, Answers), String> {
    let scenarios = grid(fig)?.expand().map_err(|e| e.to_string())?;
    let answers = registry.sweep(&scenarios);
    Ok((scenarios, answers))
}

/// Every slot must be `Ok` and carry the reference's bits.
fn matches(answers: &Answers, reference: &Answers) -> Result<(), String> {
    for (i, (a, r)) in answers.iter().zip(reference).enumerate() {
        match (a, r) {
            (Ok(a), Ok(r)) if replay::same_points(a, r) => {}
            (Err(e), _) => return Err(format!("slot {i} failed: {e}")),
            _ => return Err(format!("slot {i} differs from the first sweep")),
        }
    }
    Ok(())
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut rng = Rng::new(run.seed);
    let fig = Fig8::seeded(&mut rng);
    let registry = SolverRegistry::with_default_backends();
    let mut cal = Calibration::new();
    let ((scenarios, reference), setups_s) =
        set_up_repeatedly(&mut cal, || set_up(&fig, &registry), |_| Ok(()))?;
    let mut out = Outcome::new(json_object(&[
        (
            "base",
            crate::json_str("Fig. 8: 1 Hz on/off load, 7200 A·s KiBaM cell"),
        ),
        ("points", scenarios.len().to_string()),
        ("erlang_stages", json_nums(&STAGES.map(f64::from))),
        ("c", json_nums(&CS)),
        ("k_per_s", json_num(fig.k_per_s)),
        ("current_a", json_num(fig.current_a)),
        ("deltas_as", json_nums(&DELTAS_AS)),
        ("rate_scales", json_nums(&RATE_SCALES)),
        ("horizon_s", json_num(HORIZON_S)),
        ("time_points", TIME_POINTS.to_string()),
    ]));

    // The first sweep: every slot answered, and a seeded sample of
    // slots bit-identical to solo solves.
    for (i, answer) in reference.iter().enumerate() {
        out.check(answer.is_ok(), || {
            format!("slot {i} of the first sweep failed")
        });
    }
    for _ in 0..SAMPLED_SLOTS {
        let i = (rng.next_u64() % scenarios.len() as u64) as usize;
        let solo = registry.solve(&scenarios[i]);
        let same = matches!((&solo, &reference[i]), (Ok(s), Ok(r)) if replay::same_points(s, r));
        out.check(same, || format!("slot {i} differs from its solo solve"));
    }

    let sweep = || registry.sweep(&scenarios);
    let check = |answers: &Answers| matches(answers, &reference);
    if !run.traced {
        let phase = repeat_for(
            run.seconds,
            &mut out,
            &mut Tracer::disabled(),
            &mut cal,
            "run.sweep",
            sweep,
            check,
        );
        out.end_to_end(&phase, &setups_s)?;
        return Ok(out);
    }

    let half = run.seconds / 2.0;
    let untraced = repeat_for(
        half,
        &mut out,
        &mut Tracer::disabled(),
        &mut cal,
        "run.sweep",
        sweep,
        check,
    );
    let epoch = Instant::now();
    let mut tr = Tracer::enabled(epoch);
    let traced = repeat_for(half, &mut out, &mut tr, &mut cal, "run.sweep", sweep, check);
    out.trace_overhead(&untraced, &traced);
    out.metric(
        "sweep_s",
        crate::stats::median(&untraced.latencies_ms) / 1e3,
        untraced.latencies_ms.len(),
    );

    // The layer replay, twice: its counts must repeat exactly.
    let mut replay_tr = Tracer::enabled(epoch);
    let mut tallies = Vec::new();
    let mut facts = None;
    for _ in 0..2 {
        let mut tally = Tally::default();
        let r = replay::replay_sweep(
            &mut replay_tr,
            &registry,
            &scenarios,
            &reference,
            &mut tally,
        )?;
        out.check(r.mismatches == 0, || {
            format!(
                "{} replayed slots differ from SolverRegistry::sweep",
                r.mismatches
            )
        });
        tallies.push(tally);
        facts = Some(r);
    }
    let replay_spans = replay_tr.into_spans();
    replay::report(&mut out, &replay_spans, &tallies);
    let plan_ms = crate::trace::durations_ns(&replay_spans, "sweep.plan");
    out.metric(
        "sweep.plan_ms",
        crate::stats::median(&plan_ms) / 1e6,
        plan_ms.len(),
    );
    let facts = facts.expect("two replays ran");
    out.exact("sweep.groups", facts.groups as f64);
    out.exact("sweep.duplicates", facts.duplicates as f64);

    // Useful work per product: what solo solves iterate, over what the
    // planned sweep reported iterating. Every slot's solo solve is also
    // checked against the sweep's bits.
    let (mut solo_iterations, mut planned_iterations) = (0usize, 0usize);
    for (i, (scenario, planned)) in scenarios.iter().zip(&reference).enumerate() {
        let solo = registry.solve(scenario);
        let same = matches!((&solo, planned), (Ok(s), Ok(p)) if replay::same_points(s, p));
        out.check(same, || format!("slot {i} differs from its solo solve"));
        if let (Ok(s), Ok(p)) = (&solo, planned) {
            solo_iterations += s.diagnostics().iterations.unwrap_or(0);
            planned_iterations += p.diagnostics().iterations.unwrap_or(0);
        }
    }
    out.exact(
        "sweep.share_ratio",
        solo_iterations as f64 / planned_iterations.max(1) as f64,
    );
    // The grid's chains are all below the SpMV pool's parallel threshold,
    // so the pool is probed on the base configuration at a finer step.
    let probe = fig.scenario(CS[0], 1.0, replay::POOL_PROBE_DELTA_AS)?;
    out.metric("pool.row_speedup", replay::pool_row_speedup(&probe)?, 1);
    out.spans = crate::trace::merge(vec![tr.into_spans(), replay_spans]);
    Ok(out)
}
