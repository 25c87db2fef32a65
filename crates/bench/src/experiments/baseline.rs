//! Machine-readable counter baseline for the uniformisation hot path,
//! written as `BENCH_uniformisation.json` under the output directory.
//!
//! On the paper's Fig. 8 two-well chain it solves a whole
//! `Pr[battery empty at t]` curve through the representation/window
//! engine matrix ([`engine_matrix`]) at several `Δ`: the CSR engine
//! (`persistent_pool_fused`), the banded engine over the full state
//! space (`banded_full`), and the banded engine with the active window
//! (`banded_windowed`). Each engine reports its `touched_entries` total
//! and window deficit, so the window savings are visible in the
//! committed trajectory, and the banded curves are asserted against the
//! CSR engine's. `regress` gates those counters against the committed
//! file. Wall-clock timings live in perfbench, not here.
//!
//! `--quick` is a smoke mode: one tiny `Δ` and a tightened ε so the
//! banded-windowed vs CSR agreement assertion at 1e-12 is backed by the
//! engines' error *bounds* rather than luck.
//!
//! The JSON is deliberately flat and stable so diffs of the committed
//! baseline stay readable: each config carries `states`, `nnz` and
//! `iterations`, each engine its counters.

use super::config::Config;
use super::{discretise_fig8 as discretise, write_json};
use markov::transient::{measure_curve, CurveSolution, Representation, TransientOptions};

/// The uniformisation engine matrix `baseline` records and `regress`
/// gates, by committed name, each over `base`: the CSR engine, the
/// banded engine over the full state space, and the banded engine with
/// the active window.
pub(crate) fn engine_matrix(base: TransientOptions) -> [(&'static str, TransientOptions); 3] {
    [
        (
            "persistent_pool_fused",
            TransientOptions {
                representation: Representation::Csr,
                active_window: false,
                ..base
            },
        ),
        (
            "banded_full",
            TransientOptions {
                representation: Representation::Banded,
                active_window: false,
                ..base
            },
        ),
        (
            "banded_windowed",
            TransientOptions {
                representation: Representation::Banded,
                active_window: true,
                ..base
            },
        ),
    ]
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    // Quick mode is a smoke run: correctness assertions at a tightened
    // ε (so the 1e-12 agreement bound follows from the engines' error
    // budgets, not chance) on a tiny chain.
    let deltas: &[f64] = if cfg.quick || cfg.fast {
        &[300.0]
    } else {
        &[300.0, 50.0, 10.0]
    };
    let epsilon = if cfg.quick { 1e-13 } else { 1e-10 };
    // Each engine is within ε of the true curve, so their distance is
    // provably ≤ 2ε; assert that bound (with 5× slack in quick mode)
    // rather than ε itself, so a run where both engines land near their
    // budgets on opposite sides cannot fail spuriously. The committed
    // JSON records the measured distance, which sits orders of
    // magnitude below this.
    let agreement_bound = if cfg.quick { 1e-12 } else { 2.0 * epsilon };
    let t_query = 8000.0;
    let mut configs = Vec::new();
    for &delta in deltas {
        let disc = discretise(delta)?;
        let states = disc.stats().states;
        let nnz = disc.stats().generator_nonzeros;
        // At least 4 row workers, as `regress` runs them; the curves and
        // counters do not depend on the count.
        let engines = engine_matrix(TransientOptions {
            threads: cfg.threads.max(4),
            epsilon,
            ..TransientOptions::default()
        });
        let curves = engines
            .iter()
            .map(|(_, opts)| {
                measure_curve(
                    disc.chain(),
                    disc.alpha(),
                    &[t_query],
                    disc.empty_measure(),
                    opts,
                )
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<CurveSolution>, String>>()?;
        let csr = &curves[0];
        let windowed = &curves[2];
        let max_diff = (csr.points[0].1 - windowed.points[0].1).abs();
        if max_diff > agreement_bound {
            return Err(format!(
                "banded-windowed engine disagrees with the CSR engine at Δ = {delta}: \
                 sup-distance {max_diff:e} > {agreement_bound:e}"
            ));
        }
        let banded_diff = (csr.points[0].1 - curves[1].points[0].1).abs();
        if banded_diff > 1e-12 {
            return Err(format!(
                "banded-full engine disagrees with the CSR engine at Δ = {delta}: \
                 sup-distance {banded_diff:e}"
            ));
        }

        println!(
            "uniformisation Δ={delta}: {states} states, {} iterations — touched csr {}, \
             banded {}, windowed {}, sup-distance {max_diff:.2e}",
            csr.iterations,
            csr.touched_entries,
            curves[1].touched_entries,
            windowed.touched_entries,
        );
        let engine_rows: Vec<String> = engines
            .iter()
            .zip(&curves)
            .map(|((name, _), curve)| {
                format!(
                    "        {{\"name\": \"{name}\", \"touched_entries\": {}, \
                     \"window_deficit\": {:e}}}",
                    curve.touched_entries, curve.window_deficit
                )
            })
            .collect();
        configs.push(format!(
            "    {{\n      \"delta\": {delta},\n      \"states\": {states},\n      \
             \"nnz\": {nnz},\n      \"t_seconds\": {t_query},\n      \
             \"iterations\": {},\n      \"engines\": [\n{}\n      ],\n      \
             \"max_abs_curve_difference\": {max_diff:e}\n    }}",
            csr.iterations,
            engine_rows.join(",\n")
        ));
    }
    let body = format!(
        "{{\n  \"bench\": \"uniformisation\",\n  \"generated_by\": \"bench-harness baseline\",\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        configs.join(",\n")
    );
    write_json(cfg, "BENCH_uniformisation.json", &body)
}
