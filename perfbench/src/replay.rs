//! The solver pipeline replayed one layer call at a time, for the traced
//! run.
//!
//! `SolverRegistry::solve` and `::sweep` run every solver layer inside
//! one call, so the traced run repeats their work through each layer's
//! public entry point instead — `DiscretisedModel::build` /
//! `build_with_template`, `DiscretisedModel::empty_probability_curve`
//! (through a group's `CurveCache` inside a sweep group) — with a span
//! around each call, and checks that every replayed curve is
//! bit-identical to what the registry returned. The `Pᵀ` emission
//! (`Ctmc::uniformised_transposed_auto`) and Fox–Glynn
//! (`FoxGlynnCache::compute` over the member's grid) run inside the
//! curve call and cannot be timed there, so each is also called on its
//! own, as a probe; the transient layer's self time has the probes
//! subtracted.
//!
//! A sweep group's members are replayed one after another through the
//! group's `CurveCache`. With the default options the registry instead
//! advances a rate-rescale family as one column panel; both paths return
//! the same bits, so the check holds, but the replay's transient time is
//! that of the serial path. The replay calls no panel function, so it
//! keeps working if the panel is removed.

use crate::trace::{Span, Tracer};
use crate::Outcome;
use kibamrm::discretise::{DiscretisationOptions, DiscretisationTemplate, DiscretisedModel};
use kibamrm::solver::SolverRegistry;
use kibamrm::sweep::SweepPlan;
use kibamrm::{KibamRmError, LifetimeDistribution, Scenario};
use markov::foxglynn::FoxGlynnCache;
use markov::transient::{measure_curve, CurveCache, CurveSolution, TransientOptions};
use std::time::Instant;

/// Work counts of a replay; every field is machine-independent.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub builds: u64,
    pub refills: u64,
    pub states: u64,
    pub nnz: u64,
    pub iterations: u64,
    pub touched_entries: u64,
    pub right_max: u64,
    pub curves: u64,
    /// Largest trimmed window mass of any curve.
    pub window_deficit: f64,
}

impl Tally {
    /// Adds another replay's counts (maxima stay maxima).
    pub fn merge(&mut self, other: &Tally) {
        self.builds += other.builds;
        self.refills += other.refills;
        self.states += other.states;
        self.nnz += other.nnz;
        self.iterations += other.iterations;
        self.touched_entries += other.touched_entries;
        self.curves += other.curves;
        self.right_max = self.right_max.max(other.right_max);
        self.window_deficit = self.window_deficit.max(other.window_deficit);
    }
}

/// What the members of one sweep-plan group share.
#[derive(Debug, Default)]
pub struct Group {
    template: Option<DiscretisationTemplate>,
    cache: CurveCache,
}

fn err(e: KibamRmError) -> String {
    e.to_string()
}

/// One scenario through the discretisation layers: fresh when `group`
/// is `None` (what `SolverRegistry::solve` does), else through the
/// group's template and curve cache (what a sweep-plan group does).
pub fn solve_member(
    tr: &mut Tracer,
    scenario: &Scenario,
    mut group: Option<&mut Group>,
    tally: &mut Tally,
) -> Result<CurveSolution, String> {
    let model = tr
        .span("scenario.model", |_| scenario.to_model())
        .map_err(err)?;
    let opts = DiscretisationOptions::with_delta(scenario.effective_delta().map_err(err)?);
    let build = |tr: &mut Tracer, tally: &mut Tally| {
        tally.builds += 1;
        tr.span("discretise.build", |_| {
            DiscretisedModel::build(&model, &opts)
        })
    };
    let disc = match group.as_deref_mut() {
        None => build(tr, tally).map_err(err)?,
        Some(Group {
            template: Some(template),
            ..
        }) => {
            tally.refills += 1;
            match tr.span("discretise.refill", |_| {
                DiscretisedModel::build_with_template(&model, &opts, template)
            }) {
                Ok(disc) => disc,
                Err(_) => build(tr, tally).map_err(err)?,
            }
        }
        Some(g) => {
            let disc = build(tr, tally).map_err(err)?;
            g.template = tr.span("discretise.build", |_| disc.template(&model, &opts).ok());
            disc
        }
    };
    let stats = disc.stats();
    tally.states += stats.states as u64;
    tally.nnz += stats.generator_nonzeros as u64;

    // Probes: the emission and Fox–Glynn steps the curve call repeats.
    let transient = opts.transient;
    let (pt, nu) = tr
        .span("ctmc.emit", |_| {
            disc.chain()
                .uniformised_transposed_auto(transient.uniformisation_factor)
        })
        .map_err(|e| e.to_string())?;
    let windowed = transient.active_window && pt.as_banded().is_some();
    drop(pt);
    let fg_epsilon = if windowed {
        transient.epsilon / 2.0
    } else {
        transient.epsilon
    };
    let times = scenario.times();
    let t_max = times.iter().map(|t| t.as_seconds()).fold(0.0, f64::max);
    if nu > 0.0 && t_max > 0.0 {
        let right = tr
            .span("foxglynn.compute", |_| {
                let mut fg = FoxGlynnCache::new();
                fg.compute(nu * t_max, fg_epsilon)?;
                let right = fg.right();
                for t in times.iter().map(|t| t.as_seconds()).filter(|&t| t > 0.0) {
                    fg.compute(nu * t, fg_epsilon)?;
                }
                Ok::<usize, markov::MarkovError>(right)
            })
            .map_err(|e| e.to_string())?;
        tally.right_max = tally.right_max.max(right as u64);
    }

    let curve = tr
        .span("transient.curve", |_| match group {
            Some(g) => disc.empty_probability_curve_cached(times, &mut g.cache),
            None => disc.empty_probability_curve(times),
        })
        .map_err(err)?;
    tally.curves += 1;
    tally.iterations += curve.iterations as u64;
    tally.touched_entries += curve.touched_entries;
    tally.window_deficit = tally.window_deficit.max(curve.window_deficit);
    Ok(curve)
}

/// Whether a replayed curve carries exactly the bits of `dist`.
pub fn curve_matches(curve: &CurveSolution, dist: &LifetimeDistribution) -> bool {
    curve.points.len() == dist.points().len()
        && curve
            .points
            .iter()
            .zip(dist.points())
            .all(|(&(_, a), &(_, b))| a.to_bits() == b.to_bits())
}

/// Whether two distributions carry exactly the same points.
pub fn same_points(a: &LifetimeDistribution, b: &LifetimeDistribution) -> bool {
    a.points().len() == b.points().len()
        && a.points()
            .iter()
            .zip(b.points())
            .all(|(&(ta, pa), &(tb, pb))| {
                ta.as_seconds().to_bits() == tb.as_seconds().to_bits()
                    && pa.to_bits() == pb.to_bits()
            })
}

/// What a sweep replay found.
pub struct SweepReplay {
    pub groups: usize,
    pub duplicates: usize,
    /// Slots whose replayed curve differs from the registry's answer.
    pub mismatches: usize,
}

/// Replays `SolverRegistry::sweep`: the plan, then every group's
/// members in order through one shared template and curve cache,
/// checking each curve against `reference` (the registry's answers).
pub fn replay_sweep(
    tr: &mut Tracer,
    registry: &SolverRegistry,
    scenarios: &[Scenario],
    reference: &[Result<LifetimeDistribution, KibamRmError>],
    tally: &mut Tally,
) -> Result<SweepReplay, String> {
    let plan = tr.span("sweep.plan", |_| SweepPlan::build(registry, scenarios));
    let mut mismatches = 0;
    for group in plan.groups() {
        let backend = registry
            .solvers()
            .nth(group.solver_index())
            .map(|s| s.name());
        if backend != Some("discretisation") {
            return Err(format!(
                "the replay covers the discretisation backend only, not {backend:?}"
            ));
        }
        let mut state = Group::default();
        for &m in group.members() {
            tr.set_request(m as u64);
            let curve = tr.span("replay.member", |tr| {
                solve_member(tr, &scenarios[m], Some(&mut state), tally)
            })?;
            if !reference[m]
                .as_ref()
                .is_ok_and(|d| curve_matches(&curve, d))
            {
                mismatches += 1;
            }
        }
    }
    Ok(SweepReplay {
        groups: plan.groups().len(),
        duplicates: plan.n_duplicates(),
        mismatches,
    })
}

/// The Fig. 8 step whose chain (4,514 states) is the smallest in use
/// above the SpMV pool's parallel threshold of 4,096 rows.
pub const POOL_PROBE_DELTA_AS: f64 = 75.0;

/// Curve time at one row thread over curve time at one row thread per
/// core, on `scenario`'s chain.
pub fn pool_row_speedup(scenario: &Scenario) -> Result<f64, String> {
    let model = scenario.to_model().map_err(err)?;
    let opts = DiscretisationOptions::with_delta(scenario.effective_delta().map_err(err)?);
    let disc = DiscretisedModel::build(&model, &opts).map_err(err)?;
    let secs: Vec<f64> = scenario.times().iter().map(|t| t.as_seconds()).collect();
    let curve_seconds = |threads: usize| {
        let opts = TransientOptions {
            threads,
            ..TransientOptions::default()
        };
        let started = Instant::now();
        measure_curve(
            disc.chain(),
            disc.alpha(),
            &secs,
            disc.empty_measure(),
            &opts,
        )
        .map_err(|e| e.to_string())?;
        Ok::<f64, String>(started.elapsed().as_secs_f64())
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(curve_seconds(1)? / curve_seconds(cores)?)
}

/// Reports repeated replays of one operation: every replay must have
/// counted the same work (its counts become exact counts); timings are
/// mean milliseconds per layer call, and each layer's self time per
/// replay.
pub fn report(out: &mut Outcome, spans: &[Span], tallies: &[Tally]) {
    out.check(tallies.windows(2).all(|w| w[0] == w[1]), || {
        format!("replay counts drifted within one run: {tallies:?}")
    });
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    let n = tallies.len();
    let ops = n.max(1) as f64;
    let total_ms = |name: &str| crate::trace::durations_ns(spans, name).iter().sum::<f64>() / 1e6;
    let per_call = |name: &str, calls: u64| total_ms(name) / calls.max(1) as f64;
    let curve_ms = total_ms("transient.curve");
    let emit_ms = total_ms("ctmc.emit");
    let fg_ms = total_ms("foxglynn.compute");
    let self_ns = crate::trace::layer_self_ns(spans);
    let self_ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / ops;
    out.metric(
        "discretise.build_ms",
        per_call("discretise.build", all.builds),
        all.builds as usize,
    );
    out.metric(
        "discretise.refill_ms",
        per_call("discretise.refill", all.refills),
        all.refills as usize,
    );
    out.metric("ctmc.emit_ms", emit_ms / ops, n);
    out.metric("foxglynn.ms", fg_ms / ops, n);
    out.metric("transient.curve_ms", curve_ms / ops, n);
    out.metric("transient.window_deficit", all.window_deficit, n);
    out.metric(
        "transient.entries_per_s",
        all.touched_entries as f64 / (curve_ms / 1e3).max(f64::MIN_POSITIVE),
        n,
    );
    // A computed figure, not a measured one: each touched entry reads
    // one matrix value and one source-vector value (16 B), and each
    // product writes its destination rows and reads the measure over
    // them (16 B per state), spread over the entries of one product.
    out.metric(
        "transient.bytes_per_entry_computed",
        16.0 + 16.0 * all.states as f64 / all.nnz.max(1) as f64,
        n,
    );
    out.metric("self.scenario_ms", self_ms("scenario"), n);
    out.metric("self.sweep_ms", self_ms("sweep"), n);
    out.metric("self.discretise_ms", self_ms("discretise"), n);
    out.metric("self.ctmc_ms", self_ms("ctmc"), n);
    out.metric("self.foxglynn_ms", self_ms("foxglynn"), n);
    out.metric(
        "self.transient_ms",
        (self_ms("transient") - (emit_ms + fg_ms) / ops).max(0.0),
        n,
    );
    if let Some(one) = tallies.first() {
        out.exact("discretise.states", one.states as f64);
        out.exact("discretise.nnz", one.nnz as f64);
        out.exact("transient.iterations", one.iterations as f64);
        out.exact("transient.touched_entries", one.touched_entries as f64);
        out.exact("foxglynn.right_max", one.right_max as f64);
    }
}
