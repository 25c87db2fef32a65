//! `bench-harness` — regenerates every table and figure of
//! *Computing Battery Lifetime Distributions* (DSN'07).
//!
//! ```text
//! bench-harness <experiment> [--fast] [--quick] [--out DIR] [--threads N]
//!
//! experiments:
//!   fig2        KiBaM well trajectories under a slow square wave
//!   table1      lifetimes: experiment vs KiBaM vs modified KiBaM
//!   fig7        on/off model, c = 1: approximation vs simulation
//!   fig8        on/off model, two wells: approximation vs simulation
//!   fig9        initial-capacity comparison
//!   fig10       simple model: approximation, simulation, exact
//!   fig11       simple vs burst model
//!   complexity  state/non-zero/iteration counts of §5.3 & §6.1
//!   calibrate   re-derive λ_burst = 182/h from P[send] = ¼
//!   baseline    machine-readable BENCH_uniformisation.json
//!   window      active-window savings: touched entries & deficit per Δ
//!   sweep       planned vs naive batched sweeps → BENCH_sweep.json
//!   mc          streaming Monte Carlo engine certification → BENCH_mc.json
//!   service     resident query service under a fleet trace → BENCH_service.json
//!   regress     CI gate: diff quick engines against committed BENCH_*.json
//!   all         everything above except regress
//! ```
//!
//! `--fast` trades fidelity for runtime (coarser Δ, fewer simulation
//! runs); `--quick` is the CI smoke mode (tiny sizes, correctness
//! assertions only). `--against DIR` points `regress` at the committed
//! baselines (default `.`); `--epsilon X` loosens/tightens its accuracy
//! check. The default settings match the paper's parameters exactly.
//! Results are written as CSV under `--out` (default `results/`).

#![forbid(unsafe_code)]

mod experiments;
mod json;

use experiments::config::Config;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut experiment = None;
    let mut config = Config::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => config.fast = true,
            "--quick" => config.quick = true,
            "--out" => {
                config.out_dir = args
                    .next()
                    .unwrap_or_else(|| usage("missing DIR after --out"))
            }
            "--threads" => {
                config.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing/invalid N after --threads"))
            }
            "--against" => {
                config.against = args
                    .next()
                    .unwrap_or_else(|| usage("missing DIR after --against"))
            }
            "--epsilon" => {
                config.epsilon = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&e: &f64| e > 0.0 && e < 1.0)
                        .unwrap_or_else(|| usage("missing/invalid X after --epsilon")),
                )
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_owned())
            }
            other => usage(&format!("unrecognised argument: {other}")),
        }
    }
    let experiment = experiment.unwrap_or_else(|| usage("no experiment named"));

    let result = match experiment.as_str() {
        "fig2" => experiments::fig2::run(&config),
        "table1" => experiments::table1::run(&config),
        "fig7" => experiments::fig7::run(&config),
        "fig8" => experiments::fig8::run(&config),
        "fig9" => experiments::fig9::run(&config),
        "fig10" => experiments::fig10::run(&config),
        "fig11" => experiments::fig11::run(&config),
        "complexity" => experiments::complexity::run(&config),
        "calibrate" => experiments::calibrate::run(&config),
        "baseline" => experiments::baseline::run(&config),
        "window" => experiments::window::run(&config),
        "sweep" => experiments::sweep::run(&config),
        "mc" => experiments::mc::run(&config),
        "service" => experiments::service::run(&config),
        "regress" => experiments::regress::run(&config),
        "all" => {
            let runs: [(&str, fn(&Config) -> Result<(), String>); 14] = [
                ("fig2", experiments::fig2::run),
                ("table1", experiments::table1::run),
                ("fig7", experiments::fig7::run),
                ("fig8", experiments::fig8::run),
                ("fig9", experiments::fig9::run),
                ("fig10", experiments::fig10::run),
                ("fig11", experiments::fig11::run),
                ("complexity", experiments::complexity::run),
                ("calibrate", experiments::calibrate::run),
                ("baseline", experiments::baseline::run),
                ("window", experiments::window::run),
                ("sweep", experiments::sweep::run),
                ("mc", experiments::mc::run),
                ("service", experiments::service::run),
            ];
            let mut status = Ok(());
            for (name, f) in runs {
                println!("\n=== {name} ===");
                if let Err(e) = f(&config) {
                    eprintln!("{name} failed: {e}");
                    status = Err(format!("{name} failed"));
                }
            }
            status
        }
        other => usage(&format!("unknown experiment: {other}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: bench-harness <fig2|table1|fig7|fig8|fig9|fig10|fig11|complexity|calibrate|\
         baseline|window|sweep|mc|service|regress|all> [--fast] [--quick] [--out DIR] \
         [--threads N] [--against DIR] [--epsilon X]"
    );
    std::process::exit(2);
}
