//! `cold_solve`: repeated fresh `SolverRegistry::solve` calls on one
//! large chain — the Fig. 8 base at Δ = 75 A·s (4,514 states, above the
//! SpMV pool's parallel threshold). Nothing is shared between calls and
//! the sweep planner is not involved, so the discretisation build, the
//! `Pᵀ` emission, the uniformisation window and the SpMV pool do all the
//! work, in one long window.
//!
//! Not a `BENCHMARK.json` workload: on a small shared host its solve
//! time drifts with the host's speed more than the calibration in
//! [`crate::calibrate`] corrects, so its figures are not steady enough to
//! gate on. It runs by hand with the same harness and output.

use crate::calibrate::Calibration;
use crate::inputs::{Fig8, Rng, HORIZON_S, TIME_POINTS};
use crate::replay::{self, Tally};
use crate::trace::Tracer;
use crate::{json_num, json_object, json_str, repeat_for, set_up_repeatedly, Outcome, Run};
use kibamrm::solver::SolverRegistry;
use kibamrm::{KibamRmError, LifetimeDistribution, Scenario};
use markov::transient::TransientOptions;
use std::time::Instant;

const C: f64 = 0.625;

struct Setup {
    registry: SolverRegistry,
    scenario: Scenario,
    /// The first solve's answer; every later solve must repeat its bits.
    reference: LifetimeDistribution,
}

/// Builds the inputs and runs the first (reference) solve.
fn set_up(fig: &Fig8) -> Result<Setup, String> {
    let scenario = fig.scenario(C, 1.0, replay::POOL_PROBE_DELTA_AS)?;
    let registry = SolverRegistry::with_default_backends();
    let reference = registry.solve(&scenario).map_err(|e| e.to_string())?;
    Ok(Setup {
        registry,
        scenario,
        reference,
    })
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let fig = Fig8::seeded(&mut Rng::new(run.seed));
    let mut cal = Calibration::new();
    let (setup, setups_s) = set_up_repeatedly(&mut cal, || set_up(&fig), |_| Ok(()))?;
    let Setup {
        registry,
        scenario,
        reference,
    } = setup;
    let states = reference.diagnostics().states.unwrap_or(0);
    let mut out = Outcome::new(json_object(&[
        (
            "chain",
            json_str("Fig. 8 base: 1 Hz on/off load, 7200 A·s KiBaM cell"),
        ),
        ("delta_as", json_num(replay::POOL_PROBE_DELTA_AS)),
        ("c", json_num(C)),
        ("k_per_s", json_num(fig.k_per_s)),
        ("current_a", json_num(fig.current_a)),
        ("horizon_s", json_num(HORIZON_S)),
        ("time_points", TIME_POINTS.to_string()),
        ("states", states.to_string()),
    ]));

    let solve = || registry.solve(&scenario);
    let check = |answer: &Result<LifetimeDistribution, KibamRmError>| match answer {
        Ok(d) if replay::same_points(d, &reference) => Ok(()),
        Ok(_) => Err("a repeated solve differs from the first solve's bits".to_string()),
        Err(e) => Err(format!("solve failed: {e}")),
    };

    if !run.traced {
        check_replay(&mut out, &mut Tracer::disabled(), &scenario, &reference)?;
        let phase = repeat_for(
            run.seconds,
            &mut out,
            &mut Tracer::disabled(),
            &mut cal,
            "run.solve",
            solve,
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
        "run.solve",
        solve,
        check,
    );
    let epoch = Instant::now();
    let mut tr = Tracer::enabled(epoch);
    let traced = repeat_for(half, &mut out, &mut tr, &mut cal, "run.solve", solve, check);
    out.trace_overhead(&untraced, &traced);
    out.metric(
        "solve_p50_s",
        crate::stats::median(&untraced.latencies_ms) / 1e3,
        untraced.latencies_ms.len(),
    );

    // The layer replay, twice: its counts must repeat exactly.
    let mut replay_tr = Tracer::enabled(epoch);
    let first = check_replay(&mut out, &mut replay_tr, &scenario, &reference)?;
    let second = check_replay(&mut out, &mut replay_tr, &scenario, &reference)?;
    let replay_spans = replay_tr.into_spans();
    replay::report(&mut out, &replay_spans, &[first, second]);

    out.metric("pool.row_speedup", replay::pool_row_speedup(&scenario)?, 1);

    out.spans = crate::trace::merge(vec![tr.into_spans(), replay_spans]);
    Ok(out)
}

/// Replays the solve through the layer calls and checks it: the curve
/// must carry the registry's bits, and the trimmed window mass must stay
/// within half the ε budget.
fn check_replay(
    out: &mut Outcome,
    tr: &mut Tracer,
    scenario: &Scenario,
    reference: &LifetimeDistribution,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let curve = tr.span("replay.solve", |tr| {
        replay::solve_member(tr, scenario, None, &mut tally)
    })?;
    out.check(replay::curve_matches(&curve, reference), || {
        "the layer replay differs from SolverRegistry::solve".to_string()
    });
    let half_epsilon = TransientOptions::default().epsilon / 2.0;
    out.check(tally.window_deficit <= half_epsilon, || {
        format!(
            "window deficit {} exceeds ε/2 = {half_epsilon}",
            tally.window_deficit
        )
    });
    Ok(tally)
}
