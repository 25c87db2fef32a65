//! Amortised batched scenario evaluation: the structure-sharing sweep
//! planner against the naive per-scenario sweep, written as
//! `BENCH_sweep.json`.
//!
//! The grids are the paper's headline use case — families of the Fig. 8
//! two-well scenario spanning workload shape (Erlang stages), battery
//! parameters `(c, k)`, discretisation step `Δ` and a rate-scale axis
//! (the device run at `γ×` speed). Grids of 8/64/256 points are solved
//! both ways:
//!
//! * **naive** — [`SolverRegistry::sweep_naive`], the pre-planner path:
//!   every scenario re-derives its model, assembles its lattice, and
//!   runs its own full uniformisation sweep;
//! * **planned** — [`SolverRegistry::sweep`]: scenarios grouped by
//!   structural fingerprint share the assembled pattern, the Fox–Glynn
//!   workspace and the worker pool, and the power-of-two rate-scale
//!   families share a single (extendable) uniformisation sweep, so each
//!   group costs roughly its most expensive member instead of the sum.
//!
//! Per group the ideal amortisation is `Σνᵢ / max νᵢ` over the rescale
//! family (≈ 1.9 for the geometric scale axes used here). The file
//! records the plan's shape — groups, duplicates and the members that
//! reused a shared sweep — not its wall time, which perfbench measures.
//!
//! Both paths run the same single-threaded CSR engine configuration so
//! the comparison isolates planning (the active-window engine's trim
//! schedule is horizon-dependent, which disables cross-ν sweep sharing
//! by design — see DESIGN.md §8). The planned results are asserted
//! **bit-identical** to the naive ones (sup-distance exactly 0) on every
//! run; `--quick` is the CI gate mode (8-point grid).

use super::config::Config;
use super::write_json;
use kibamrm::scenario::Scenario;
use kibamrm::solver::{DiscretisationSolver, SericolaSolver, SimulationSolver, SolverRegistry};
use kibamrm::sweep::{ScenarioGrid, SweepPlan};
use kibamrm::workload::Workload;
use kibamrm::KibamRmError;
use kibamrm::LifetimeDistribution;
use markov::transient::{Representation, TransientOptions};
use units::{Charge, Current, Frequency, Rate, Time};

/// The default backends with the discretisation backend pinned to the
/// CSR engine, run sequentially — the gated configuration of the sweep
/// and service benches. One thread isolates planning gains from
/// scenario/row parallelism, and CSR keeps the rescale fast path
/// available (the active window's trim schedule is ν·t-dependent).
pub(crate) fn csr_registry() -> SolverRegistry {
    let mut registry = SolverRegistry::empty().with_sweep_threads(1);
    registry.register(Box::new(SericolaSolver::new()));
    registry.register(Box::new(DiscretisationSolver::new().with_transient(
        TransientOptions {
            representation: Representation::Csr,
            ..TransientOptions::default()
        },
    )));
    registry.register(Box::new(SimulationSolver::new()));
    registry
}

/// The Fig. 8-style base scenario the grids vary.
pub(crate) fn base_scenario() -> Result<Scenario, String> {
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

/// The grid at `points` ∈ {8, 64, 256}.
pub(crate) fn build_grid(points: usize, base: &Scenario) -> Result<ScenarioGrid, String> {
    let delta = Charge::from_amp_seconds;
    let erlang = |k: u32| {
        Workload::on_off_erlang(Frequency::from_hertz(1.0), k, Current::from_amps(0.96))
            .map_err(|e| e.to_string())
    };
    // Power-of-two scales keep `P = I + Q/ν` bitwise identical across a
    // family, so the planner's rescale fast path fires deterministically.
    let scales4 = vec![0.125, 0.25, 0.5, 1.0];
    let scales8: Vec<f64> = (-7..=0).map(|e| 2f64.powi(e)).collect();
    let grid = match points {
        8 => ScenarioGrid::new(base.clone())
            .deltas(vec![delta(300.0), delta(150.0)])
            .rate_scales(scales4),
        64 => ScenarioGrid::new(base.clone())
            .workloads(vec![
                ("erlang1".into(), erlang(1)?),
                ("erlang2".into(), erlang(2)?),
            ])
            .kibams(vec![
                (0.625, Rate::per_second(4.5e-5)),
                (0.5, Rate::per_second(4.5e-5)),
            ])
            .deltas(vec![delta(300.0), delta(150.0), delta(100.0), delta(75.0)])
            .rate_scales(scales4),
        256 => ScenarioGrid::new(base.clone())
            .workloads(vec![
                ("erlang1".into(), erlang(1)?),
                ("erlang2".into(), erlang(2)?),
            ])
            .kibams(vec![
                (0.625, Rate::per_second(4.5e-5)),
                (0.625, Rate::per_second(9e-5)),
                (0.5, Rate::per_second(4.5e-5)),
                (0.5, Rate::per_second(9e-5)),
            ])
            .deltas(vec![delta(300.0), delta(150.0), delta(100.0), delta(75.0)])
            .rate_scales(scales8),
        other => return Err(format!("no grid defined for {other} points")),
    };
    if grid.len() != points {
        return Err(format!(
            "grid defines {} points, wanted {points}",
            grid.len()
        ));
    }
    Ok(grid)
}

pub(crate) type SweepResults = Vec<Result<LifetimeDistribution, KibamRmError>>;

/// The largest pointwise |a − b| across all slots, each slot through
/// [`LifetimeDistribution::max_difference`]; errors if the slot counts
/// differ, any slot failed, or a pair of slots has different time grids.
pub(crate) fn sup_distance(a: &SweepResults, b: &SweepResults) -> Result<f64, String> {
    if a.len() != b.len() {
        return Err(format!("{} slots against {}", a.len(), b.len()));
    }
    let mut sup = 0.0f64;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let (x, y) = match (x, y) {
            (Ok(x), Ok(y)) => (x, y),
            (Err(e), _) | (_, Err(e)) => return Err(format!("slot {i} failed: {e}")),
        };
        sup = sup.max(x.max_difference(y).map_err(|e| format!("slot {i}: {e}"))?);
    }
    Ok(sup)
}

/// One row of the committed JSON.
struct GridRow {
    points: usize,
    groups: usize,
    duplicates: usize,
    shared_solves: usize,
    sup: f64,
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure — including any
/// non-zero planned-vs-naive sup-distance (bit-identity is part of the
/// planner's contract, not a tolerance).
pub fn run(cfg: &Config) -> Result<(), String> {
    let sizes: &[usize] = if cfg.quick {
        &[8]
    } else if cfg.fast {
        &[8, 64]
    } else {
        &[8, 64, 256]
    };
    let registry = csr_registry();
    let base = base_scenario()?;

    let mut rows: Vec<GridRow> = Vec::new();
    for &points in sizes {
        let grid = build_grid(points, &base)?;
        let scenarios = grid.expand().map_err(|e| e.to_string())?;
        let plan = SweepPlan::build(&registry, &scenarios);

        let naive = registry.sweep_naive(&scenarios);
        let planned = registry.sweep(&scenarios);
        let sup = sup_distance(&planned, &naive)?;
        if sup != 0.0 {
            return Err(format!(
                "planned sweep differs from independent solves on the \
                 {points}-point grid: sup-distance {sup:e} (must be exactly 0)"
            ));
        }
        // Members whose planned solve reused (part of) a shared sweep
        // show fewer uniformisation products than their naive solve.
        let shared_solves = planned
            .iter()
            .zip(&naive)
            .filter(|(p, n)| {
                let (p, n) = (p.as_ref().expect("checked"), n.as_ref().expect("checked"));
                p.diagnostics().iterations < n.diagnostics().iterations
            })
            .count();

        println!(
            "sweep {points:>3} points: {} groups, {} dup, {} shared, sup-distance {sup:e}",
            plan.groups().len(),
            plan.n_duplicates(),
            shared_solves,
        );
        rows.push(GridRow {
            points,
            groups: plan.groups().len(),
            duplicates: plan.n_duplicates(),
            shared_solves,
            sup,
        });
    }

    let grids: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"points\": {},\n      \"groups\": {},\n      \
                 \"duplicates\": {},\n      \"shared_sweep_solves\": {},\n      \
                 \"max_abs_difference_vs_independent\": {:e}\n    }}",
                r.points, r.groups, r.duplicates, r.shared_solves, r.sup
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"generated_by\": \"bench-harness sweep\",\n  \
         \"engine\": \"csr, single-thread (sweep_threads 1, transient threads 1)\",\n  \
         \"note\": \"grids are workload × (c,k) × Δ × power-of-two rate-scale \
         families of the Fig. 8 two-well scenario, so the planner amortises one \
         uniformisation sweep per rescale family (ideal per-family gain Σν/maxν ≈ 1.9); \
         planned results are asserted bit-identical to naive per-scenario solves on \
         every run\",\n  \
         \"grids\": [\n{}\n  ]\n}}\n",
        grids.join(",\n")
    );
    write_json(cfg, "BENCH_sweep.json", &body)
}
