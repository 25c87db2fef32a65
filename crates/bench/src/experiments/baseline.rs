//! Machine-readable performance baseline for the uniformisation hot
//! path, written as `BENCH_uniformisation.json` under the output
//! directory.
//!
//! On the paper's Fig. 8 two-well chain it records ns/op medians for a
//! whole `Pr[battery empty at t]` curve through the representation/window
//! engine matrix at several `Δ`: the CSR engine
//! (`persistent_pool_fused`), the banded engine over the full state
//! space (`banded_full`), and the banded engine with the active window
//! (`banded_windowed`). Each engine reports its `touched_entries` total,
//! so the window savings are visible in the committed trajectory, and
//! the windowed curve is asserted against the CSR engine's. `regress`
//! gates those counters against the committed file.
//!
//! `--quick` is a smoke mode: one tiny `Δ`, a single repetition, and a
//! tightened ε so the banded-windowed vs CSR agreement assertion at
//! 1e-12 is backed by the engines' error *bounds* rather than luck.
//!
//! The JSON is deliberately flat and stable so diffs of the committed
//! baseline stay readable: each engine carries `median_ns_per_op`, each
//! config carries `states` and `nnz`.

use super::config::Config;
use super::{discretise_fig8 as discretise, median_ns, write_json};
use markov::pool::SpmvPool;
use markov::transient::{measure_curve, CurveSolution, Representation, TransientOptions};

/// One engine configuration of the uniformisation matrix.
struct Engine {
    name: &'static str,
    opts: TransientOptions,
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    // The baseline requests ≥ 4 row workers. The pool clamps that to
    // the machine's cores (the clamp is part of its behaviour), so the
    // JSON records the effective worker count alongside the requested
    // one.
    let threads = cfg.threads.max(4);
    // Quick mode is a smoke run: correctness assertions at a tightened
    // ε (so the 1e-12 agreement bound follows from the engines' error
    // budgets, not chance), one repetition, tiny chain.
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
        let reps = match () {
            _ if cfg.quick => 1,
            _ if cfg.fast || delta < 50.0 => 3,
            _ => 7,
        };
        let disc = discretise(delta)?;
        let states = disc.stats().states;
        let nnz = disc.stats().generator_nonzeros;
        let base = TransientOptions {
            threads,
            epsilon,
            ..TransientOptions::default()
        };
        // What the engines actually run with: SpmvPool clamps to the
        // machine's cores, and chains below the small-matrix threshold
        // stay inline. On a single-core box every engine is therefore
        // sequential, and the JSON must say so rather than imply a
        // 4-worker pool ran.
        let engine_workers = if states < markov::sparse::PARALLEL_SPMV_MIN_ROWS {
            1
        } else {
            SpmvPool::clamped_threads(threads)
        };
        let engines = [
            Engine {
                name: "persistent_pool_fused",
                opts: TransientOptions {
                    representation: Representation::Csr,
                    active_window: false,
                    ..base
                },
            },
            Engine {
                name: "banded_full",
                opts: TransientOptions {
                    representation: Representation::Banded,
                    active_window: false,
                    ..base
                },
            },
            Engine {
                name: "banded_windowed",
                opts: TransientOptions {
                    representation: Representation::Banded,
                    active_window: true,
                    ..base
                },
            },
        ];
        let mut curves: Vec<CurveSolution> = Vec::new();
        let mut medians: Vec<f64> = Vec::new();
        for engine in &engines {
            let run = || {
                measure_curve(
                    disc.chain(),
                    disc.alpha(),
                    &[t_query],
                    disc.empty_measure(),
                    &engine.opts,
                )
                .expect("engine curve")
            };
            curves.push(run());
            medians.push(median_ns(reps, || {
                run();
            }));
        }
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

        let speedup_windowed = medians[0] / medians[2];
        println!(
            "uniformisation Δ={delta}: {states} states, {} iterations — csr {:.0} ns, \
             banded {:.0} ns, windowed {:.0} ns ({speedup_windowed:.2}x vs csr, touched \
             {} vs {}), sup-distance {max_diff:.2e}",
            csr.iterations,
            medians[0],
            medians[1],
            medians[2],
            windowed.touched_entries,
            csr.touched_entries,
        );
        let engine_rows: Vec<String> = engines
            .iter()
            .zip(medians.iter().zip(&curves))
            .map(|(engine, (median, curve))| {
                format!(
                    "        {{\"name\": \"{}\", \"requested_threads\": {threads}, \
                     \"effective_row_workers\": {engine_workers}, \
                     \"median_ns_per_op\": {median:.0}, \
                     \"touched_entries\": {}, \"window_deficit\": {:e}}}",
                    engine.name, curve.touched_entries, curve.window_deficit
                )
            })
            .collect();
        configs.push(format!(
            "    {{\n      \"delta\": {delta},\n      \"states\": {states},\n      \
             \"nnz\": {nnz},\n      \"t_seconds\": {t_query},\n      \
             \"iterations\": {},\n      \"engines\": [\n{}\n      ],\n      \
             \"speedup_windowed_vs_csr\": {speedup_windowed:.3},\n      \
             \"max_abs_curve_difference\": {max_diff:e}\n    }}",
            csr.iterations,
            engine_rows.join(",\n")
        ));
    }
    // The note describes the machine that actually generated the file,
    // so regenerating on real hardware cannot leave a stale 1-core
    // claim next to multi-worker engine rows.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let note = if cores == 1 {
        "generated on a 1-core machine: every engine runs its sequential kernel \
         (effective_row_workers 1), so the comparison isolates representation/window gains \
         and under-sells multi-core pool gains; regenerate with bench-harness baseline \
         --threads N --out . on real hardware"
            .to_owned()
    } else {
        format!(
            "generated on a {cores}-core machine with --threads {threads}; each engine row's \
             effective_row_workers records the worker count that engine actually ran with"
        )
    };
    let body = format!(
        "{{\n  \"bench\": \"uniformisation\",\n  \"generated_by\": \"bench-harness baseline\",\n  \
         \"threads\": {threads},\n  \"note\": \"{note}\",\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        configs.join(",\n")
    );
    write_json(cfg, "BENCH_uniformisation.json", &body)
}
