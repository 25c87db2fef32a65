//! Machine-readable performance baselines for the uniformisation hot
//! path, written as `BENCH_spmv.json` and `BENCH_uniformisation.json`
//! under the output directory.
//!
//! Two artefacts, both on the paper's Fig. 8 two-well chain:
//!
//! * **spmv** — ns/op medians for one `Pᵀ·v` product through each
//!   kernel: the sequential CSR reference, the sequential banded (DIA)
//!   kernel, the legacy spawn-per-call path
//!   ([`markov::sparse::CsrMatrix::mul_vec_parallel`]), the persistent worker pool
//!   ([`SpmvPool`]).
//! * **uniformisation** — ns/op medians for a whole
//!   `Pr[battery empty at t]` curve through the representation/window
//!   engine matrix at several `Δ`: the PR 2 CSR engine
//!   (`persistent_pool_fused`), the banded engine over the full state
//!   space (`banded_full`), and the banded engine with the active
//!   window (`banded_windowed`); the legacy spawn-per-call engine rides
//!   along on chains small enough to afford it. Each engine reports its
//!   `touched_entries` total, so the window savings are visible in the
//!   committed trajectory, and the windowed curve is asserted against
//!   the CSR engine's.
//!
//! `--quick` is the CI smoke mode: one tiny `Δ`, a single repetition,
//! and a tightened ε so the banded-windowed vs CSR agreement assertion
//! at 1e-12 is backed by the engines' error *bounds* rather than luck.
//!
//! The JSON is deliberately flat and stable so CI diffs of committed
//! baselines stay readable: each kernel/engine carries
//! `median_ns_per_op`, each config carries `states` and `nnz`.

use super::config::Config;
use super::{discretise_fig8 as discretise, median_ns, write_json};
use markov::pool::SpmvPool;
use markov::transient::{measure_curve, CurveSolution, Representation, TransientOptions};

/// Runs the experiment.
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run(cfg: &Config) -> Result<(), String> {
    // The per-call spawn cost only matters with real worker counts; the
    // baseline pins ≥ 4 so single-core CI boxes still exercise (and
    // time) the multi-worker code paths. The spmv kernels bypass the
    // pool's available-parallelism clamp for this; the end-to-end
    // engine cannot (the clamp is part of its behaviour), so the
    // uniformisation JSON records the effective worker count alongside
    // the requested one.
    let threads = cfg.threads.max(4);
    spmv_baseline(cfg, threads)?;
    uniformisation_baseline(cfg, threads)
}

fn spmv_baseline(cfg: &Config, threads: usize) -> Result<(), String> {
    let deltas: &[f64] = if cfg.quick {
        &[300.0]
    } else if cfg.fast {
        &[50.0]
    } else {
        // Δ = 5 is the paper's million-state configuration.
        &[50.0, 5.0]
    };
    let reps = if cfg.quick {
        1
    } else if cfg.fast {
        7
    } else {
        11
    };
    let mut configs = Vec::new();
    for &delta in deltas {
        let disc = discretise(delta)?;
        let (pt, _nu) = disc
            .chain()
            .uniformised_transposed(1.02)
            .map_err(|e| e.to_string())?;
        let (pt_banded, _nu) = disc
            .chain()
            .uniformised_transposed_banded(1.02)
            .map_err(|e| e.to_string())?;
        let states = pt.rows();
        let nnz = pt.nnz();
        let x = vec![1.0 / states as f64; states];
        let mut y = vec![0.0; states];

        let sequential = median_ns(reps, || {
            pt.mul_vec_into(&x, &mut y).expect("dims");
        });
        let banded_seq = median_ns(reps, || {
            pt_banded.mul_vec_range_into(&x, &mut y, 0..states);
        });
        let spawn = median_ns(reps, || {
            pt.mul_vec_parallel(&x, &mut y, threads).expect("dims");
        });
        let pool = SpmvPool::with_exact_threads(threads);
        let partition = pt.nnz_partition(pool.threads());
        let pooled = median_ns(reps, || {
            pool.mul_vec(&pt, &partition, &x, &mut y).expect("dims");
        });

        println!(
            "spmv Δ={delta}: {states} states, {nnz} nnz — seq {sequential:.0} ns, \
             banded_seq {banded_seq:.0} ns, spawn_x{threads} {spawn:.0} ns, \
             pool_x{threads} {pooled:.0} ns \
             (pool is {:.2}x vs spawn, banded is {:.2}x vs seq)",
            spawn / pooled,
            sequential / banded_seq
        );
        configs.push(format!(
            "    {{\n      \"delta\": {delta},\n      \"states\": {states},\n      \
             \"nnz\": {nnz},\n      \"kernels\": [\n        \
             {{\"name\": \"sequential\", \"median_ns_per_op\": {sequential:.0}}},\n        \
             {{\"name\": \"banded_sequential\", \"median_ns_per_op\": {banded_seq:.0}}},\n        \
             {{\"name\": \"spawn_x{threads}\", \"median_ns_per_op\": {spawn:.0}}},\n        \
             {{\"name\": \"pool_x{threads}\", \"median_ns_per_op\": {pooled:.0}}}\n      ],\n      \
             \"speedup_pool_vs_spawn\": {:.3},\n      \
             \"speedup_banded_vs_sequential\": {:.3}\n    }}",
            spawn / pooled,
            sequential / banded_seq
        ));
    }
    let body = format!(
        "{{\n  \"bench\": \"spmv\",\n  \"generated_by\": \"bench-harness baseline\",\n  \
         \"threads\": {threads},\n  \"configs\": [\n{}\n  ]\n}}\n",
        configs.join(",\n")
    );
    write_json(cfg, "BENCH_spmv.json", &body)
}

/// One engine configuration of the uniformisation matrix.
struct Engine {
    name: &'static str,
    opts: TransientOptions,
}

fn uniformisation_baseline(cfg: &Config, threads: usize) -> Result<(), String> {
    // Quick mode is the CI smoke: correctness assertions at a tightened
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
        // sequential while the legacy side still pays 4 spawned threads
        // per product — exactly the old engine's behaviour, but the
        // JSON must say so rather than imply a 4-worker pool ran.
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

        // The legacy spawn-per-call engine rides along where the chain
        // is small enough to afford its per-product spawn storm.
        let legacy = if !cfg.quick && states <= 50_000 {
            let legacy_curve = legacy_measure_curve(
                disc.chain(),
                disc.alpha(),
                &[t_query],
                disc.empty_measure(),
                &base,
            )?;
            let legacy_diff = (csr.points[0].1 - legacy_curve[0].1).abs();
            if legacy_diff > 1e-12 {
                return Err(format!(
                    "CSR engine disagrees with the legacy baseline: sup-distance {legacy_diff:e}"
                ));
            }
            Some(median_ns(reps, || {
                legacy_measure_curve(
                    disc.chain(),
                    disc.alpha(),
                    &[t_query],
                    disc.empty_measure(),
                    &base,
                )
                .expect("legacy curve");
            }))
        } else {
            None
        };

        let speedup_windowed = medians[0] / medians[2];
        println!(
            "uniformisation Δ={delta}: {states} states, {} iterations — csr {:.0} ns, \
             banded {:.0} ns, windowed {:.0} ns ({speedup_windowed:.2}x vs csr, touched \
             {} vs {}), sup-distance {max_diff:.2e}{}",
            csr.iterations,
            medians[0],
            medians[1],
            medians[2],
            windowed.touched_entries,
            csr.touched_entries,
            match legacy {
                Some(l) => format!(", legacy {l:.0} ns"),
                None => String::new(),
            }
        );
        let mut engine_rows: Vec<String> = Vec::new();
        if let Some(l) = legacy {
            engine_rows.push(format!(
                "        {{\"name\": \"legacy_spawn_per_call\", \"requested_threads\": {threads}, \
                 \"median_ns_per_op\": {l:.0}}}"
            ));
        }
        for (engine, (median, curve)) in engines.iter().zip(medians.iter().zip(&curves)) {
            engine_rows.push(format!(
                "        {{\"name\": \"{}\", \"requested_threads\": {threads}, \
                 \"effective_row_workers\": {engine_workers}, \
                 \"median_ns_per_op\": {median:.0}, \
                 \"touched_entries\": {}, \"window_deficit\": {:e}}}",
                engine.name, curve.touched_entries, curve.window_deficit
            ));
        }
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

/// The pre-pool curve engine, preserved verbatim-in-spirit as the
/// benchmark baseline: `uniformised()` + `transpose()` (two full-matrix
/// copies), `mul_vec_parallel` (spawn+join per product), a separate dot
/// pass per iteration, and a fresh Fox–Glynn computation per time point.
fn legacy_measure_curve(
    ctmc: &markov::ctmc::Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
    opts: &TransientOptions,
) -> Result<Vec<(f64, f64)>, String> {
    use markov::foxglynn::poisson_weights;
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
    fn sup_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }
    let (p, nu) = ctmc
        .uniformised(opts.uniformisation_factor)
        .map_err(|e| e.to_string())?;
    let t_max = times.iter().cloned().fold(0.0, f64::max);
    if nu == 0.0 || t_max == 0.0 {
        let value = dot(alpha, measure);
        return Ok(times.iter().map(|&t| (t, value)).collect());
    }
    let pt = p.transpose();
    let w_max = poisson_weights(nu * t_max, opts.epsilon).map_err(|e| e.to_string())?;
    let mut s = Vec::with_capacity(w_max.right + 1);
    let mut v = alpha.to_vec();
    let mut next = vec![0.0; ctmc.n_states()];
    s.push(dot(&v, measure));
    for _ in 1..=w_max.right {
        pt.mul_vec_parallel(&v, &mut next, opts.threads)
            .map_err(|e| e.to_string())?;
        std::mem::swap(&mut v, &mut next);
        s.push(dot(&v, measure));
        if opts.steady_state_tolerance > 0.0 && sup_diff(&v, &next) < opts.steady_state_tolerance {
            break;
        }
    }
    let s_last = *s.last().expect("nonempty");
    let mut points = Vec::with_capacity(times.len());
    for &t in times {
        if t == 0.0 {
            points.push((t, s[0]));
            continue;
        }
        let w = poisson_weights(nu * t, opts.epsilon).map_err(|e| e.to_string())?;
        let mut value = 0.0;
        for (i, &wi) in w.weights.iter().enumerate() {
            let n = w.left + i;
            value += wi * s.get(n).copied().unwrap_or(s_last);
        }
        points.push((t, value));
    }
    Ok(points)
}
