//! Shared harness configuration.

use kibamrm::solver::DiscretisationSolver;
use markov::transient::TransientOptions;

/// Command-line configuration for every experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Trade fidelity for runtime (coarser Δ, fewer simulation runs).
    pub fast: bool,
    /// CI smoke mode: minimal sizes, correctness assertions only. The
    /// `baseline` experiment uses this to assert banded-windowed vs CSR
    /// engine agreement on every push without a multi-minute run.
    pub quick: bool,
    /// Output directory for CSV results.
    pub out_dir: String,
    /// Worker threads for sparse matrix–vector products.
    pub threads: usize,
    /// Directory holding the committed `BENCH_*.json` baselines the
    /// `regress` gate diffs against (default: the current directory,
    /// i.e. the repository root in CI).
    pub against: String,
    /// Override for the tightened ε of the `regress` accuracy check
    /// (default 1e-13). Loosening it (e.g. `--epsilon 1e-6`) makes the
    /// engines drift past the 1e-12 bound — the supported way to verify
    /// the gate actually fails.
    pub epsilon: Option<f64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            fast: false,
            quick: false,
            out_dir: "results".into(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            against: ".".into(),
            epsilon: None,
        }
    }
}

impl Config {
    /// Simulation replication count: the paper's 1000, or 200 in fast
    /// mode.
    pub fn sim_runs(&self) -> usize {
        if self.fast {
            200
        } else {
            1000
        }
    }

    /// A discretisation solver with this config's thread count and
    /// default numerics.
    pub fn discretisation_solver(&self) -> DiscretisationSolver {
        DiscretisationSolver::new().with_threads(self.threads)
    }

    /// A discretisation solver matching the paper's iteration
    /// accounting: uniformisation rate ν = max exit rate (factor 1.0).
    pub fn paper_discretisation_solver(&self) -> DiscretisationSolver {
        let transient = TransientOptions {
            uniformisation_factor: 1.0,
            threads: self.threads,
            ..TransientOptions::default()
        };
        DiscretisationSolver::new().with_transient(transient)
    }

    /// The paper-accounting solver with steady-state early exit also
    /// disabled, so iteration counts are true Fox–Glynn right
    /// truncation points.
    pub fn accounting_discretisation_solver(&self) -> DiscretisationSolver {
        let transient = TransientOptions {
            uniformisation_factor: 1.0,
            steady_state_tolerance: 0.0,
            threads: self.threads,
            ..TransientOptions::default()
        };
        DiscretisationSolver::new().with_transient(transient)
    }
}
