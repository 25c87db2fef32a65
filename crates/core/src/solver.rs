//! The unified solver facade: one [`Scenario`] in, one
//! [`LifetimeDistribution`] out, whichever method computes it.
//!
//! The paper answers `Pr[battery empty at t]` three ways — the §5
//! Markovian approximation, stochastic simulation, and Sericola's exact
//! algorithm for `c = 1`. Each is wrapped as a [`LifetimeSolver`]:
//!
//! * [`DiscretisationSolver`] — builds the derived CTMC at the
//!   scenario's `Δ` and solves it by uniformisation; applies to every
//!   scenario;
//! * [`SimulationSolver`] — parallel streaming Monte Carlo over the
//!   exact KiBaMRM dynamics; applies to every scenario, statistical
//!   error only;
//! * [`SericolaSolver`] — the exact algorithm; applies only to linear
//!   (`c = 1`) scenarios, where it is the gold standard.
//!
//! A [`SolverRegistry`] holds an ordered set of backends,
//! [`auto`](SolverRegistry::auto)-selects the best applicable one
//! (exact beats approximate; earlier registration wins ties), and
//! [`sweep`](SolverRegistry::sweep)s scenario grids across worker
//! threads — the hook batching and sharding layers build on.
//!
//! ```
//! use kibamrm::scenario::Scenario;
//! use kibamrm::solver::SolverRegistry;
//!
//! let scenario = Scenario::paper_cell_phone().unwrap();
//! let registry = SolverRegistry::with_default_backends();
//! // c = 0.625: auto picks the discretisation backend.
//! assert_eq!(registry.auto(&scenario).unwrap().name(), "discretisation");
//! let dist = registry.solve(&scenario).unwrap();
//! assert!(dist.cdf(units::Time::from_hours(30.0)) > 0.95);
//! ```

use crate::analysis::exact_linear_curve;
use crate::discretise::{DiscretisationOptions, DiscretisationTemplate, DiscretisedModel};
use crate::distribution::{LifetimeDistribution, SolveDiagnostics};
use crate::scenario::Scenario;
use crate::simulate::streaming_lifetime_study;
use crate::sweep::SweepPlan;
use crate::KibamRmError;
use markov::transient::{CurveCache, TransientOptions};
pub use markov::Budget;
use std::time::Instant;
use units::Time;

/// What a backend can do with a given scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// The method computes the distribution exactly (up to numerics).
    Exact,
    /// The method approximates it (discretisation / statistical error).
    Approximate,
    /// The method does not apply; the string says why.
    Unsupported(String),
}

impl Capability {
    /// Higher is better; `Unsupported` ranks zero.
    fn rank(&self) -> u8 {
        match self {
            Capability::Exact => 2,
            Capability::Approximate => 1,
            Capability::Unsupported(_) => 0,
        }
    }

    /// `true` unless the backend refuses the scenario.
    pub fn is_supported(&self) -> bool {
        !matches!(self, Capability::Unsupported(_))
    }
}

/// Warm per-group solver state: what one member solve of a group of
/// structurally identical scenarios (equal
/// [`LifetimeSolver::sweep_fingerprint`]) leaves for the next — the
/// shared [`DiscretisationTemplate`] (pattern, offsets, labels —
/// value-refilled per member) and the [`CurveCache`] (Fox–Glynn
/// workspace, SpMV pool, and the reusable uniformisation sweep of a
/// rate-rescale family). [`SolverRegistry::sweep`] threads one through
/// a batch group, and [`crate::service::LifetimeService`] keeps them
/// **resident** across requests, so an online burst of structurally
/// identical queries amortises exactly like a batch sweep.
///
/// The state is opaque to callers: create one with
/// [`GroupState::default`] and hand it to every member solve. Backends
/// without shareable work (simulation, Sericola) ignore it. A state is
/// `Send` (a resident service migrates it between request threads) but
/// not shared: the holder serialises access, mirroring how a batch group
/// solves its members in sequence.
#[derive(Debug, Default)]
pub struct GroupState {
    template: Option<DiscretisationTemplate>,
    cache: CurveCache,
}

/// A battery-lifetime computation backend.
pub trait LifetimeSolver: Send + Sync {
    /// Stable identifier (`"discretisation"`, `"simulation"`,
    /// `"sericola"`, …).
    fn name(&self) -> &'static str;

    /// Capability introspection: can this backend handle `scenario`,
    /// and how well?
    fn capability(&self, scenario: &Scenario) -> Capability;

    /// Convenience: does the backend apply at all?
    fn supports(&self, scenario: &Scenario) -> bool {
        self.capability(scenario).is_supported()
    }

    /// Computes `t ↦ Pr[battery empty at t]` on the scenario's grid with
    /// no group state and no deadline.
    ///
    /// # Errors
    ///
    /// As for [`LifetimeSolver::solve_in`].
    fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
        self.solve_in(scenario, None, &Budget::unlimited())
    }

    /// The one way into a backend: computes `t ↦ Pr[battery empty at t]`
    /// on the scenario's grid, through warm group state when the caller
    /// holds one (`state`, shared only by scenarios of equal
    /// [`LifetimeSolver::sweep_fingerprint`] on this same backend), and
    /// under a cooperative deadline (`budget`). A backend's worker count
    /// is its own configuration.
    ///
    /// Results are **bit-identical** whatever the state and the worker
    /// count: shared state is an optimisation, never an approximation.
    /// A budget-interrupted solve must leave the state consistent, so
    /// re-running the same member to completion is bit-identical to
    /// never having cancelled. Backends without check points of their
    /// own at least fail fast on a budget that is already exhausted.
    ///
    /// # Errors
    ///
    /// Backend-specific validation and numerical errors (solvers must
    /// refuse, not mis-answer, scenarios they report as unsupported),
    /// plus [`KibamRmError::DeadlineExceeded`] on budget exhaustion.
    fn solve_in(
        &self,
        scenario: &Scenario,
        state: Option<&mut GroupState>,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError>;

    /// A fingerprint of the solver-relevant **structure** of the
    /// scenario: two scenarios with equal fingerprints may share
    /// assembled artefacts (matrix patterns, workspaces, whole
    /// uniformisation sweeps) when solved through one [`GroupState`],
    /// and the sweep planner ([`crate::sweep::SweepPlan`]) groups a
    /// batch by this key. `None` (the default) opts the backend out of
    /// grouping — every scenario solves independently.
    fn sweep_fingerprint(&self, scenario: &Scenario) -> Option<u64> {
        let _ = scenario;
        None
    }

    /// A relative estimate of the work of solving `scenario`, in the
    /// backend's own units. A sweep starts its plan groups in falling
    /// summed estimate, so the longest groups go first and a short one
    /// finishes last. The estimate only orders work; it never changes
    /// what is computed. `None` (the default) gives no estimate: such
    /// groups start first, in plan order.
    fn sweep_cost(&self, scenario: &Scenario) -> Option<f64> {
        let _ = scenario;
        None
    }
}

// --------------------------------------------------------------------
// Discretisation backend (paper §5).
// --------------------------------------------------------------------

/// The paper's Markovian approximation as a solver.
#[derive(Debug, Clone, Default)]
pub struct DiscretisationSolver {
    transient: TransientOptions,
}

impl DiscretisationSolver {
    /// A solver with default numerics.
    pub fn new() -> Self {
        DiscretisationSolver::default()
    }

    /// Overrides the uniformisation options (ε, ν factor, storage
    /// format, and the row-worker count of the matrix–vector products,
    /// [`TransientOptions::threads`]).
    #[must_use]
    pub fn with_transient(mut self, transient: TransientOptions) -> Self {
        self.transient = transient;
        self
    }

    /// The uniformisation options this solver will use.
    pub fn transient(&self) -> &TransientOptions {
        &self.transient
    }

    /// The derived CTMC for `scenario` (for size/stats consumers like
    /// the complexity accounting harness).
    ///
    /// # Errors
    ///
    /// Propagates model and discretisation errors.
    pub fn discretise(&self, scenario: &Scenario) -> Result<DiscretisedModel, KibamRmError> {
        let model = scenario.to_model()?;
        let opts = self.discretisation_options(scenario)?;
        DiscretisedModel::build(&model, &opts)
    }

    fn discretisation_options(
        &self,
        scenario: &Scenario,
    ) -> Result<DiscretisationOptions, KibamRmError> {
        let mut opts = DiscretisationOptions::with_delta(scenario.effective_delta()?);
        opts.transient = self.transient;
        Ok(opts)
    }
}

impl LifetimeSolver for DiscretisationSolver {
    fn name(&self) -> &'static str {
        "discretisation"
    }

    fn capability(&self, _scenario: &Scenario) -> Capability {
        Capability::Approximate
    }

    fn solve_in(
        &self,
        scenario: &Scenario,
        state: Option<&mut GroupState>,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // Fail fast before building the derived CTMC (assembly has no
        // check points of its own). `is_exhausted` does not consume a
        // deterministic check, so iteration counting stays exact.
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        let started = Instant::now();
        let model = scenario.to_model()?;
        let opts = self.discretisation_options(scenario)?;

        let mut fresh = CurveCache::new();
        let (template, cache) = match state {
            Some(st) => (Some(&mut st.template), &mut st.cache),
            None => (None, &mut fresh),
        };
        let disc = match template {
            // Later group members refill the shared template's values. A
            // mismatch (planner grouped too eagerly, or a fingerprint
            // collision) falls back to a fresh build — the fallback also
            // reproduces genuine validation errors.
            Some(Some(t)) => DiscretisedModel::build_with_template(&model, &opts, t)
                .or_else(|_| DiscretisedModel::build(&model, &opts))?,
            // The group's first member builds the template.
            Some(slot) => {
                let d = DiscretisedModel::build(&model, &opts)?;
                *slot = d.template(&model, &opts).ok();
                d
            }
            None => DiscretisedModel::build(&model, &opts)?,
        };
        let curve = disc.empty_probability_curve_budgeted(scenario.times(), cache, budget)?;

        let stats = disc.stats();
        let points = scenario
            .times()
            .iter()
            .zip(&curve.points)
            .map(|(&t, &(_, p))| (t, p))
            .collect();
        LifetimeDistribution::new(
            self.name(),
            points,
            SolveDiagnostics {
                states: Some(stats.states),
                generator_nonzeros: Some(stats.generator_nonzeros),
                iterations: Some(curve.iterations),
                delta: Some(scenario.effective_delta()?),
                runs: None,
                half_width: None,
                wall_seconds: started.elapsed().as_secs_f64(),
            },
        )
    }

    fn sweep_fingerprint(&self, scenario: &Scenario) -> Option<u64> {
        let model = scenario.to_model().ok()?;
        let opts = self.discretisation_options(scenario).ok()?;
        crate::discretise::structural_fingerprint(&model, &opts).ok()
    }

    fn sweep_cost(&self, scenario: &Scenario) -> Option<f64> {
        let model = scenario.to_model().ok()?;
        let opts = self.discretisation_options(scenario).ok()?;
        let horizon = *scenario.times().last()?;
        crate::discretise::cost_estimate(&model, &opts, horizon).ok()
    }
}

// --------------------------------------------------------------------
// Simulation backend (paper §6's validation baseline).
// --------------------------------------------------------------------

/// Monte Carlo over the exact KiBaMRM dynamics as a solver — the
/// parallel streaming engine ([`sim::engine::run_study`]).
///
/// Scoped workers (the calling thread among them) claim fixed 256-run
/// batches from one atomic cursor and draw per-replication
/// counter-derived RNG streams; depletion counts add exactly and the
/// per-batch moment partials merge in batch order — so a solve's result
/// is **bit-identical for any thread count** (the same guarantee the
/// SpMV pool gives the uniformisation engine). Memory is
/// O(threads · time-grid) plus 24 B per batch (about 0.9 MB at 10⁷
/// replications), which makes 10⁶–10⁷ replications practical.
///
/// A solve runs exactly the scenario's [`sim_runs`](Scenario::sim_runs)
/// replications. For a target sup-norm band `ε` at confidence `1−α`,
/// `⌈ln(2/α)/(2ε²)⌉` runs suffice (the Dvoretzky–Kiefer–Wolfowitz
/// count, [`sim::dkw_half_width`]'s inverse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationSolver {
    horizon: Option<Time>,
    threads: usize,
}

impl Default for SimulationSolver {
    fn default() -> Self {
        SimulationSolver {
            horizon: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl SimulationSolver {
    /// A solver simulating up to the scenario's last query time, using
    /// every available core.
    pub fn new() -> Self {
        SimulationSolver::default()
    }

    /// Extends the simulation horizon beyond the scenario's last query
    /// time (useful when the tail of the *observed* lifetimes matters,
    /// e.g. for the [`SimulationSolver::streaming_study`] mean). A horizon
    /// shorter than the query grid is ignored: the empirical CDF is
    /// only valid up to the horizon, so shortening it would silently
    /// flatline the tail of the answer.
    #[must_use]
    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Sets the worker-thread count for replication batches, clamped to
    /// the machine's available parallelism (results do not depend on it
    /// — that is the engine's bit-identity guarantee).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The simulation horizon for `scenario`: never short of the query
    /// grid (empirical CDF values past the horizon would be silently
    /// wrong).
    fn effective_horizon(&self, scenario: &Scenario) -> Time {
        self.horizon
            .map_or(scenario.horizon(), |h| h.max(scenario.horizon()))
    }

    /// The scenario's replication count, refusing zero with a message
    /// that names the fix.
    fn runs(scenario: &Scenario) -> Result<u64, KibamRmError> {
        if scenario.sim_runs() == 0 {
            return Err(KibamRmError::InvalidWorkload(
                "scenario requests zero simulation replications; set a positive \
                 count with with_simulation(runs, seed)"
                    .into(),
            ));
        }
        Ok(scenario.sim_runs() as u64)
    }

    /// The streaming study behind a solve: fixed-grid depletion counts
    /// over the scenario's query times plus a moment sketch, produced by
    /// the parallel engine from the scenario's `sim_runs` replications
    /// under a cooperative [`Budget`] (bit-identical for any thread
    /// count), on this solver's
    /// [`with_threads`](SimulationSolver::with_threads) workers. An
    /// all-censored study is the valid all-zero curve.
    ///
    /// # Errors
    ///
    /// As for [`LifetimeSolver::solve_in`].
    pub fn streaming_study(
        &self,
        scenario: &Scenario,
        budget: &Budget,
    ) -> Result<sim::streaming::StreamingLifetimeStudy, KibamRmError> {
        let model = scenario.to_model()?;
        let runs = SimulationSolver::runs(scenario)?;
        streaming_lifetime_study(
            &model,
            scenario.times(),
            self.effective_horizon(scenario),
            scenario.sim_seed(),
            runs,
            self.capped_threads(),
            budget,
        )
    }

    /// This backend's worker count: the configured count, clamped to the
    /// machine's available parallelism (replication simulation is
    /// compute-bound, so more workers than cores only add switching).
    fn capped_threads(&self) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.threads.min(cores)
    }
}

impl LifetimeSolver for SimulationSolver {
    fn name(&self) -> &'static str {
        "simulation"
    }

    fn capability(&self, _scenario: &Scenario) -> Capability {
        Capability::Approximate
    }

    fn solve_in(
        &self,
        scenario: &Scenario,
        _state: Option<&mut GroupState>,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // Fail fast before building the model (`is_exhausted` does not
        // consume a deterministic check, keeping batch counting exact).
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        let started = Instant::now();
        // This backend keeps no group state: each solve runs its own
        // study, so concurrent MC solves never wait on each other.
        let study = self.streaming_study(scenario, budget)?;
        // One prefix pass over the buckets, not per-point re-summing.
        let n = study.total_runs() as f64;
        let points = scenario
            .times()
            .iter()
            .zip(study.cumulative_counts())
            .map(|(&t, count)| (t, if n > 0.0 { count as f64 / n } else { 0.0 }))
            .collect();
        LifetimeDistribution::new(
            self.name(),
            points,
            SolveDiagnostics {
                states: None,
                generator_nonzeros: None,
                iterations: None,
                delta: None,
                runs: Some(study.total_runs() as usize),
                // The statistical error bound of this answer — what a
                // degraded service response surfaces to the caller.
                half_width: Some(study.max_half_width()),
                wall_seconds: started.elapsed().as_secs_f64(),
            },
        )
    }
}

// --------------------------------------------------------------------
// Sericola backend (exact, c = 1 only).
// --------------------------------------------------------------------

/// Sericola's exact performability algorithm as a solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SericolaSolver;

impl SericolaSolver {
    /// A solver with default options.
    pub fn new() -> Self {
        SericolaSolver
    }
}

impl LifetimeSolver for SericolaSolver {
    fn name(&self) -> &'static str {
        "sericola"
    }

    fn capability(&self, scenario: &Scenario) -> Capability {
        if scenario.is_linear() {
            Capability::Exact
        } else {
            Capability::Unsupported(format!(
                "Sericola's algorithm requires c = 1 (all charge available), \
                 scenario has c = {}",
                scenario.c()
            ))
        }
    }

    fn solve_in(
        &self,
        scenario: &Scenario,
        _state: Option<&mut GroupState>,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // No check points inside the exact algorithm: fail fast only.
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        let started = Instant::now();
        let model = scenario.to_model()?;
        let curve = exact_linear_curve(&model, scenario.times())?;
        let points = scenario
            .times()
            .iter()
            .zip(&curve)
            .map(|(&t, &(_, p))| (t, p))
            .collect();
        LifetimeDistribution::new(
            self.name(),
            points,
            SolveDiagnostics {
                states: None,
                generator_nonzeros: None,
                iterations: None,
                delta: None,
                runs: None,
                half_width: None,
                wall_seconds: started.elapsed().as_secs_f64(),
            },
        )
    }
}

// --------------------------------------------------------------------
// Registry: selection, dispatch, batch sweeps.
// --------------------------------------------------------------------

/// An ordered collection of solver backends, and the worker count its
/// sweeps fan out over.
pub struct SolverRegistry {
    solvers: Vec<Box<dyn LifetimeSolver>>,
    sweep_threads: usize,
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field(
                "solvers",
                &self.solvers.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Default for SolverRegistry {
    fn default() -> Self {
        SolverRegistry::with_default_backends()
    }
}

impl SolverRegistry {
    /// An empty registry whose sweeps use every available core.
    pub fn empty() -> Self {
        SolverRegistry {
            solvers: Vec::new(),
            sweep_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Sets how many plan groups a [`SolverRegistry::sweep`] solves at
    /// once (at least one). This is the sweep layer's only thread knob:
    /// each backend keeps its own row or replication worker count, and
    /// the answers depend on neither.
    #[must_use]
    pub fn with_sweep_threads(mut self, threads: usize) -> Self {
        self.sweep_threads = threads.max(1);
        self
    }

    /// The standard set: Sericola (exact where it applies), then the
    /// Markovian approximation, then simulation.
    pub fn with_default_backends() -> Self {
        let mut r = SolverRegistry::empty();
        r.register(Box::new(SericolaSolver::new()));
        r.register(Box::new(DiscretisationSolver::new()));
        r.register(Box::new(SimulationSolver::new()));
        r
    }

    /// Appends a backend (later = lower priority among equal
    /// capabilities).
    pub fn register(&mut self, solver: Box<dyn LifetimeSolver>) {
        self.solvers.push(solver);
    }

    /// The registered backends, in priority order.
    pub fn solvers(&self) -> impl Iterator<Item = &dyn LifetimeSolver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// Looks a backend up by name.
    pub fn find(&self, name: &str) -> Option<&dyn LifetimeSolver> {
        self.solvers().find(|s| s.name() == name)
    }

    /// Picks the best applicable backend for `scenario`: exact beats
    /// approximate, earlier registration breaks ties. With the default
    /// backends this selects Sericola for `c = 1` scenarios and the
    /// discretisation solver otherwise.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when no backend supports the
    /// scenario; the message collects each backend's refusal reason.
    pub fn auto(&self, scenario: &Scenario) -> Result<&dyn LifetimeSolver, KibamRmError> {
        self.auto_index(scenario).map(|i| self.solvers[i].as_ref())
    }

    /// [`SolverRegistry::auto`] returning the backend's registry index —
    /// what the sweep planner keys its groups by.
    pub(crate) fn auto_index(&self, scenario: &Scenario) -> Result<usize, KibamRmError> {
        let mut best: Option<(usize, u8)> = None;
        let mut reasons = Vec::new();
        for (i, solver) in self.solvers().enumerate() {
            match solver.capability(scenario) {
                Capability::Unsupported(why) => reasons.push(format!("{}: {why}", solver.name())),
                cap => {
                    let rank = cap.rank();
                    if best.is_none_or(|(_, r)| rank > r) {
                        best = Some((i, rank));
                    }
                }
            }
        }
        best.map(|(i, _)| i).ok_or_else(|| {
            KibamRmError::InvalidWorkload(format!(
                "no registered solver supports scenario '{}': {}",
                scenario.name(),
                if reasons.is_empty() {
                    "registry is empty".to_owned()
                } else {
                    reasons.join("; ")
                }
            ))
        })
    }

    /// The backend at registry index `i` (sweep-plan execution).
    pub(crate) fn solver_at(&self, i: usize) -> &dyn LifetimeSolver {
        self.solvers[i].as_ref()
    }

    /// Auto-selects a backend and solves.
    ///
    /// # Errors
    ///
    /// Selection errors from [`SolverRegistry::auto`] plus the chosen
    /// backend's solve errors.
    pub fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
        self.auto(scenario)?.solve(scenario)
    }

    /// Solves a whole scenario grid through a structure-sharing
    /// [`SweepPlan`]: scenarios with equal [`Scenario::canonical_bytes`]
    /// (equal up to their names) are deduplicated (one solve, one result
    /// **per input slot**), structurally identical scenarios are grouped
    /// so each group assembles its lattice pattern and Fox–Glynn
    /// workspace once (and rate-rescaled families share a single
    /// uniformisation sweep), and the groups are solved by
    /// [`with_sweep_threads`](SolverRegistry::with_sweep_threads)
    /// workers taking them from one queue, longest estimated group first
    /// ([`SweepPlan::run_order`]). Results come back in input order,
    /// **bit-identical** to solving each scenario independently (the
    /// cached fast paths are exact, and the answers depend on no worker
    /// count); per-scenario failures do not abort the batch.
    ///
    /// # Panics
    ///
    /// Re-raises a backend's panic on the caller's thread, with its
    /// payload. No worker claims a group after one has panicked.
    pub fn sweep(&self, scenarios: &[Scenario]) -> Vec<Result<LifetimeDistribution, KibamRmError>> {
        let plan = SweepPlan::build(self, scenarios);
        let order = plan.run_order();
        let run_group =
            |group: &crate::sweep::PlanGroup| -> Vec<(usize, Result<LifetimeDistribution, KibamRmError>)> {
                let solver = self.solver_at(group.solver_index());
                // One warm state threads through the members in order, as
                // the resident service threads its live one through
                // requests. A singleton has nothing to share, so it solves
                // with no state rather than build one only to drop it.
                let mut state = (group.members().len() > 1).then(GroupState::default);
                let unlimited = Budget::unlimited();
                group
                    .members()
                    .iter()
                    .map(|&i| (i, solver.solve_in(&scenarios[i], state.as_mut(), &unlimited)))
                    .collect()
            };

        // One queue, longest group first: every worker, the calling
        // thread among them, takes the next group as soon as it is free.
        // A group's answers depend only on its members, never on the
        // thread that runs it, so scheduling cannot move a bit. No worker
        // claims a group once a backend has panicked, so the panic
        // reaches the caller without the rest of the grid being solved
        // first.
        let solved = sim::engine::claim_all(self.sweep_threads, order.len(), Vec::new, |out, k| {
            out.extend(run_group(order[k]));
            true
        });
        let mut results: Vec<Option<Result<LifetimeDistribution, KibamRmError>>> =
            (0..scenarios.len()).map(|_| None).collect();
        for (i, r) in solved.into_iter().flatten() {
            results[i] = Some(r);
        }
        // Duplicates copy their canonical slot's result; unsupported
        // scenarios report the selection error. Canonical slots always
        // precede their duplicates, so one ascending pass settles both.
        for i in 0..scenarios.len() {
            match plan.slot(i) {
                crate::sweep::PlanSlot::Grouped => {}
                crate::sweep::PlanSlot::Unsupported(e) => results[i] = Some(Err(e.clone())),
                crate::sweep::PlanSlot::DuplicateOf(j) => {
                    let r = results[*j].clone().expect("canonical slot filled first");
                    results[i] = Some(r);
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    /// Runs **every** applicable backend on the scenario and reports the
    /// pairwise sup-distances — the paper's §6 triple cross-check as an
    /// API, so users can validate their own models before trusting a
    /// coarse-`Δ` approximation.
    ///
    /// # Errors
    ///
    /// When no backend applies, or any applicable backend fails.
    pub fn cross_validate(&self, scenario: &Scenario) -> Result<CrossValidation, KibamRmError> {
        let mut results = Vec::new();
        for solver in self.solvers() {
            if solver.supports(scenario) {
                results.push(solver.solve(scenario)?);
            }
        }
        if results.is_empty() {
            return Err(KibamRmError::InvalidWorkload(format!(
                "no registered solver supports scenario '{}'",
                scenario.name()
            )));
        }
        let mut pairwise = Vec::new();
        for i in 0..results.len() {
            for j in i + 1..results.len() {
                pairwise.push((
                    results[i].method(),
                    results[j].method(),
                    results[i].max_difference(&results[j])?,
                ));
            }
        }
        Ok(CrossValidation { results, pairwise })
    }
}

/// Every applicable method's answer for one scenario, plus how far apart
/// they are.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    /// One distribution per applicable backend, in registry order.
    pub results: Vec<LifetimeDistribution>,
    /// `(method a, method b, sup |a − b|)` for every pair.
    pub pairwise: Vec<(&'static str, &'static str, f64)>,
}

impl CrossValidation {
    /// The result computed by `method`, if that backend ran.
    pub fn result(&self, method: &str) -> Option<&LifetimeDistribution> {
        self.results.iter().find(|d| d.method() == method)
    }

    /// The largest pairwise disagreement (0 for a single method).
    pub fn max_disagreement(&self) -> f64 {
        self.pairwise.iter().map(|&(_, _, d)| d).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use markov::transient::Representation;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use units::{Charge, Current, Frequency};

    /// Small linear scenario: Sericola stays cheap (νt ≈ 500).
    fn small_linear() -> Scenario {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        Scenario::builder()
            .name("small-linear")
            .workload(w)
            .capacity(Charge::from_amp_seconds(72.0))
            .linear()
            .times(
                (1..=24)
                    .map(|i| Time::from_seconds(i as f64 * 10.0))
                    .collect(),
            )
            .delta(Charge::from_amp_seconds(0.25))
            .simulation(400, 31)
            .build()
            .unwrap()
    }

    fn two_well() -> Scenario {
        Scenario::paper_cell_phone().unwrap()
    }

    /// The independent reference of every discretisation bit-identity
    /// check: the derived chain solved by the plain uniformisation
    /// curve, outside `solve_in` and its caches.
    fn reference_bits(solver: &DiscretisationSolver, s: &Scenario) -> Vec<u64> {
        let disc = solver.discretise(s).unwrap();
        let curve = disc.empty_probability_curve(s.times()).unwrap();
        curve.points.iter().map(|p| p.1.to_bits()).collect()
    }

    fn bits(d: &LifetimeDistribution) -> Vec<u64> {
        d.points().iter().map(|p| p.1.to_bits()).collect()
    }

    #[test]
    fn auto_picks_sericola_for_linear_scenarios() {
        let registry = SolverRegistry::with_default_backends();
        assert_eq!(registry.auto(&small_linear()).unwrap().name(), "sericola");
        assert_eq!(registry.auto(&two_well()).unwrap().name(), "discretisation");
    }

    #[test]
    fn capability_introspection() {
        let s = two_well();
        assert!(matches!(
            SericolaSolver::new().capability(&s),
            Capability::Unsupported(_)
        ));
        assert!(!SericolaSolver::new().supports(&s));
        assert!(DiscretisationSolver::new().supports(&s));
        assert!(SimulationSolver::new().supports(&s));
        assert!(SericolaSolver::new().supports(&small_linear()));
        assert!(Capability::Exact.rank() > Capability::Approximate.rank());
        assert!(!Capability::Unsupported("x".into()).is_supported());
    }

    #[test]
    fn sericola_refuses_unsupported_scenarios() {
        let err = SericolaSolver::new().solve(&two_well());
        assert!(matches!(err, Err(KibamRmError::InvalidBattery(_))));
    }

    #[test]
    fn all_three_backends_agree_on_the_small_linear_scenario() {
        let s = small_linear();
        let exact = SericolaSolver::new().solve(&s).unwrap();
        let approx = DiscretisationSolver::new().solve(&s).unwrap();
        let sim = SimulationSolver::new().solve(&s).unwrap();
        assert_eq!(exact.method(), "sericola");
        assert_eq!(approx.method(), "discretisation");
        assert_eq!(sim.method(), "simulation");
        // The paper's own Fig. 7 message: the phase-type approximation of
        // a near-deterministic CDF converges slowly in Δ, so the centre
        // still smears at 288 levels; simulation only carries binomial
        // noise (400 runs ⇒ σ ≈ 0.025).
        assert!(exact.max_difference(&approx).unwrap() < 0.15);
        assert!(exact.max_difference(&sim).unwrap() < 0.1);
        // Diagnostics reflect the method.
        assert!(approx.diagnostics().states.unwrap() > 100);
        assert!(approx.diagnostics().iterations.unwrap() > 0);
        assert_eq!(sim.diagnostics().runs, Some(400));
        assert_eq!(exact.diagnostics().states, None);
    }

    #[test]
    fn zero_replications_report_a_precise_error() {
        let s = small_linear().with_simulation(0, 1);
        let err = SimulationSolver::new().solve(&s).expect_err("zero runs");
        assert!(
            err.to_string().contains("zero simulation replications"),
            "{err}"
        );
    }

    #[test]
    fn simulation_horizon_never_shrinks_below_the_query_grid() {
        // A horizon shorter than the grid would flatline the CDF tail
        // (empirical CDFs are only valid up to the horizon); the solver
        // must clamp it to the last query time instead.
        let s = small_linear();
        let clamped = SimulationSolver::new()
            .with_horizon(Time::from_seconds(50.0)) // grid runs to 240 s
            .solve(&s)
            .unwrap();
        let default = SimulationSolver::new().solve(&s).unwrap();
        assert!(
            clamped.max_difference(&default).unwrap() < 1e-12,
            "short horizon must be ignored"
        );
        assert!(
            clamped.points().last().unwrap().1 > 0.9,
            "tail must keep rising past the bogus horizon"
        );
    }

    #[test]
    fn answers_do_not_depend_on_the_row_worker_count() {
        // Fig. 8 at Δ = 50 A·s sweeps more rows than the parallel-SpMV
        // threshold, so the row pool runs (given more than one core) and
        // splits the rows between its workers. Every row-worker count
        // gives the single-thread bits, solo and through one- and
        // two-worker sweeps of two groups: a rate-rescale pair, whose
        // second member extends the shared sweep, and a coarser Δ.
        let fig8 = Scenario::builder()
            .name("fig8")
            .workload(
                Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
                    .unwrap(),
            )
            .capacity(Charge::from_amp_seconds(7200.0))
            .kibam(0.625, units::Rate::per_second(4.5e-5))
            .time_grid(Time::from_seconds(8000.0), 16)
            .delta(Charge::from_amp_seconds(50.0))
            .build()
            .unwrap();
        let disc = DiscretisationSolver::new().discretise(&fig8).unwrap();
        let swept = disc.chain().reachable_from(disc.alpha()).unwrap().len();
        assert!(
            swept >= markov::sparse::PARALLEL_SPMV_MIN_ROWS,
            "{swept} rows"
        );
        let batch = [
            fig8.with_rate_scale(0.5).unwrap(),
            fig8.clone(),
            fig8.with_delta(Charge::from_amp_seconds(100.0)),
        ];
        let reference: Vec<_> = batch
            .iter()
            .map(|s| reference_bits(&DiscretisationSolver::new(), s))
            .collect();
        for threads in 1..=4 {
            let solver = DiscretisationSolver::new().with_transient(TransientOptions {
                threads,
                ..TransientOptions::default()
            });
            let solo = solver.solve(&fig8).unwrap();
            assert_eq!(bits(&solo), reference[1], "{threads} row threads, solo");
            for sweep_threads in [1, 2] {
                let mut registry = SolverRegistry::empty().with_sweep_threads(sweep_threads);
                registry.register(Box::new(solver.clone()));
                for (slot, result) in registry.sweep(&batch).iter().enumerate() {
                    assert_eq!(
                        bits(result.as_ref().unwrap()),
                        reference[slot],
                        "{threads} row threads, {sweep_threads} sweep threads, slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn registry_solve_dispatches_and_matches_direct_calls() {
        let registry = SolverRegistry::with_default_backends();
        let s = small_linear();
        let via_registry = registry.solve(&s).unwrap();
        let direct = SericolaSolver::new().solve(&s).unwrap();
        assert_eq!(via_registry.method(), "sericola");
        assert!(via_registry.max_difference(&direct).unwrap() < 1e-12);
    }

    #[test]
    fn sweep_preserves_order_and_isolates_failures() {
        let registry = SolverRegistry::with_default_backends().with_sweep_threads(3);
        let base = two_well().with_simulation(50, 1);
        // A grid over Δ, including the classic failure mode: a Δ that
        // divides neither well.
        let grid = [
            base.with_delta(Charge::from_milliamp_hours(25.0)),
            base.with_delta(Charge::from_milliamp_hours(7.0)),
            base.with_delta(Charge::from_milliamp_hours(50.0)),
        ];
        let results = registry.sweep(&grid);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(KibamRmError::InvalidDiscretisation(_))
        ));
        assert!(results[2].is_ok());
        // Finer Δ means more derived states.
        let fine = results[0].as_ref().unwrap().diagnostics().states.unwrap();
        let coarse = results[2].as_ref().unwrap().diagnostics().states.unwrap();
        assert!(fine > coarse);
        // Single-threaded path gives identical answers.
        let serial = registry.with_sweep_threads(1).sweep(&grid);
        assert!(
            results[0]
                .as_ref()
                .unwrap()
                .max_difference(serial[0].as_ref().unwrap())
                .unwrap()
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn stacked_worker_layers_keep_the_sequential_bits() {
        // Each layer keeps its own worker count; stacking them never
        // divides one by the other and only moves wall time. Eight row
        // workers per solve inside a four-worker sweep answer with the
        // bits of the plain uniformisation curve…
        let s = two_well().with_delta(Charge::from_milliamp_hours(50.0));
        let solver = DiscretisationSolver::new().with_transient(TransientOptions {
            threads: 8,
            ..TransientOptions::default()
        });
        let mut registry = SolverRegistry::empty().with_sweep_threads(4);
        registry.register(Box::new(solver.clone()));
        let swept = registry.sweep(std::slice::from_ref(&s));
        assert_eq!(
            bits(swept[0].as_ref().unwrap()),
            reference_bits(&solver, &s)
        );

        // …and an MC family run on three replication workers (clamped to
        // the machine) inside a two-worker sweep carries, slot for slot,
        // the bits of sequential solvers solving one scenario at a time.
        let base = small_linear();
        let family = [
            base.with_simulation(300, 1),
            base.with_simulation(300, 2),
            base.with_simulation(500, 3),
        ];
        let mc = |threads| {
            let mut registry = SolverRegistry::empty().with_sweep_threads(2);
            let solver = SimulationSolver::new().with_threads(threads);
            registry.register(Box::new(solver));
            registry
        };
        let sequential = mc(1);
        for (slot, (got, s)) in mc(3).sweep(&family).iter().zip(&family).enumerate() {
            let want = sequential.solve(s).unwrap();
            assert_eq!(bits(got.as_ref().unwrap()), bits(&want), "slot {slot}");
        }
    }

    #[test]
    fn representation_choice_flows_through_with_transient() {
        // The backend's uniformisation options pin the storage format;
        // the curve must not depend on which representation computed it
        // (within ε).
        let s = two_well()
            .with_delta(Charge::from_milliamp_hours(50.0))
            .with_simulation(10, 1);
        let pinned = |representation| {
            DiscretisationSolver::new().with_transient(TransientOptions {
                representation,
                ..TransientOptions::default()
            })
        };
        let auto = DiscretisationSolver::new().solve(&s).unwrap();
        let forced_csr = pinned(Representation::Csr).solve(&s).unwrap();
        let forced_banded = pinned(Representation::Banded).solve(&s).unwrap();
        // Auto and forced-banded both run the active window (ε split),
        // so the provable bound against the full-ε CSR engine is 2ε
        // with the default ε = 1e-10.
        assert!(auto.max_difference(&forced_csr).unwrap() < 2e-10);
        assert!(forced_banded.max_difference(&forced_csr).unwrap() < 2e-10);
        assert_eq!(
            pinned(Representation::Csr).transient().representation,
            Representation::Csr
        );
    }

    #[test]
    fn duplicate_time_grids_fail_cleanly_through_sweep() {
        // Scenario validation (the first line of defence) rejects
        // duplicate/unsorted grids at every construction path…
        let s = small_linear();
        let t = Time::from_seconds(10.0);
        assert!(s.with_times(vec![t, t]).is_err(), "with_times duplicates");
        assert!(
            s.with_times(vec![Time::from_seconds(20.0), t]).is_err(),
            "with_times unsorted"
        );
        // …including the config round-trip.
        let cfg: String = s
            .to_config_string()
            .unwrap()
            .lines()
            .map(|l| {
                if l.starts_with("times_s") {
                    "times_s 10 10 20\n".to_owned()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(
            Scenario::from_config_str(&cfg).is_err(),
            "config duplicates"
        );

        // And the second line: a backend that hands the facade a
        // duplicated grid gets a per-scenario error out of sweep(),
        // without poisoning the neighbouring scenarios (regression for
        // LifetimeDistribution construction from bad grids).
        struct DuplicateGrid;
        impl LifetimeSolver for DuplicateGrid {
            fn name(&self) -> &'static str {
                "duplicate-grid"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve_in(
                &self,
                _s: &Scenario,
                _state: Option<&mut GroupState>,
                _budget: &Budget,
            ) -> Result<LifetimeDistribution, KibamRmError> {
                let t = Time::from_seconds(5.0);
                LifetimeDistribution::new(
                    "duplicate-grid",
                    vec![(t, 0.1), (t, 0.2)],
                    SolveDiagnostics::default(),
                )
            }
        }
        let mut registry = SolverRegistry::empty().with_sweep_threads(2);
        registry.register(Box::new(DuplicateGrid));
        let results = registry.sweep(&[s.clone(), s]);
        assert_eq!(results.len(), 2);
        for r in &results {
            let err = r.as_ref().expect_err("duplicated grid must fail");
            assert!(
                err.to_string().contains("strictly increasing"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn all_censored_scenario_yields_zero_curve_through_sweep() {
        // Regression: a scenario whose battery outlives every simulated
        // run used to abort with StatsError::Empty, poisoning its sweep
        // slot. It must come back as the valid all-zero curve.
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let long_lived = Scenario::builder()
            .name("long-lived")
            .workload(w)
            .capacity(Charge::from_amp_seconds(7200.0)) // ~15 000 s life
            .linear()
            .times(
                (1..=8)
                    .map(|i| Time::from_seconds(i as f64 * 10.0))
                    .collect(), // grid ends at 80 s: nothing depletes
            )
            .simulation(25, 3)
            .build()
            .unwrap();
        let normal = small_linear().with_simulation(50, 2);

        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(SimulationSolver::new()));
        let results = registry.sweep(&[long_lived.clone(), normal]);
        assert_eq!(results.len(), 2);
        let zero = results[0].as_ref().expect("all-censored must not fail");
        assert!(zero.points().iter().all(|&(_, p)| p == 0.0));
        assert_eq!(zero.diagnostics().runs, Some(25));
        assert!(results[1].as_ref().unwrap().points().last().unwrap().1 > 0.5);

        // The study view agrees: zero depletions, unidentified
        // quantiles, but a real (positive) confidence band.
        let streaming = SimulationSolver::new()
            .streaming_study(&long_lived, &Budget::unlimited())
            .unwrap();
        assert_eq!(streaming.depleted_runs(), 0);
        assert_eq!(streaming.lifetime_quantile(0.5), None);
        assert!(streaming.max_half_width() > 0.0);
    }

    #[test]
    fn simulation_scenarios_are_singleton_groups_and_match_independent_solves() {
        // The simulation backend keeps no group state, so the sweep
        // planner gives every simulation-backed scenario its own group;
        // results must be bit-identical to independent solves
        // (per-scenario counter-derived streams).
        let mut registry = SolverRegistry::empty().with_sweep_threads(2);
        registry.register(Box::new(SimulationSolver::new()));
        let base = small_linear();
        let batch = vec![
            base.with_simulation(60, 1),
            base.with_simulation(60, 2), // same runs, different stream family
            base.with_simulation(90, 1),
            base.clone(),
        ];
        let plan = crate::sweep::SweepPlan::build(&registry, &batch);
        assert_eq!(plan.groups().len(), 4, "one group per scenario");
        assert!(plan.groups().iter().all(|g| g.members().len() == 1));

        let swept = registry.sweep(&batch);
        for (s, r) in batch.iter().zip(&swept) {
            let independent = SimulationSolver::new()
                .solve_in(s, None, &Budget::unlimited())
                .unwrap();
            let r = r.as_ref().unwrap();
            assert_eq!(
                r.points(),
                independent.points(),
                "scenario {} differs from its independent solve",
                s.name()
            );
        }
        // Different seeds really gave different curves (streams are
        // per-scenario).
        assert_ne!(
            swept[0].as_ref().unwrap().points(),
            swept[1].as_ref().unwrap().points()
        );
    }

    #[test]
    fn cross_validation_runs_every_applicable_method() {
        let registry = SolverRegistry::with_default_backends();
        let cv = registry.cross_validate(&small_linear()).unwrap();
        assert_eq!(cv.results.len(), 3);
        assert_eq!(cv.pairwise.len(), 3);
        assert!(cv.result("sericola").is_some());
        assert!(cv.result("nope").is_none());
        assert!(cv.max_disagreement() < 0.2, "{}", cv.max_disagreement());

        // Two-well scenario: Sericola drops out.
        let quick = two_well()
            .with_delta(Charge::from_milliamp_hours(50.0))
            .with_simulation(60, 3);
        let cv = registry.cross_validate(&quick).unwrap();
        assert_eq!(cv.results.len(), 2);
        assert!(cv.result("sericola").is_none());
    }

    #[test]
    fn custom_backends_and_empty_registries() {
        struct Refuser;
        impl LifetimeSolver for Refuser {
            fn name(&self) -> &'static str {
                "refuser"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Unsupported("always refuses".into())
            }
            fn solve_in(
                &self,
                _s: &Scenario,
                _state: Option<&mut GroupState>,
                _budget: &Budget,
            ) -> Result<LifetimeDistribution, KibamRmError> {
                unreachable!("never selected")
            }
        }
        let mut registry = SolverRegistry::empty();
        let err = registry
            .auto(&small_linear())
            .err()
            .expect("empty registry refuses");
        assert!(err.to_string().contains("registry is empty"), "{err}");
        registry.register(Box::new(Refuser));
        let err = registry
            .auto(&small_linear())
            .err()
            .expect("refuser refuses");
        assert!(err.to_string().contains("always refuses"), "{err}");
        assert!(registry.find("refuser").is_some());
        assert!(registry.find("sericola").is_none());
        assert!(registry.cross_validate(&small_linear()).is_err());
        // Debug formatting lists backend names.
        assert!(format!("{registry:?}").contains("refuser"));
    }

    #[test]
    fn sweep_reraises_a_helper_panic_with_its_message() {
        // The backend panics only off the calling thread, and the calling
        // thread's first solve waits until a helper has started one, so a
        // helper claims a group and panics.
        struct PanicsOffCaller {
            caller: std::thread::ThreadId,
            rendezvous: std::sync::Barrier,
            met: std::sync::atomic::AtomicBool,
        }
        impl LifetimeSolver for PanicsOffCaller {
            fn name(&self) -> &'static str {
                "panics-off-caller"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve_in(
                &self,
                s: &Scenario,
                _state: Option<&mut GroupState>,
                _budget: &Budget,
            ) -> Result<LifetimeDistribution, KibamRmError> {
                if std::thread::current().id() != self.caller {
                    self.rendezvous.wait();
                    panic!("backend failed off the calling thread");
                }
                if !self.met.swap(true, Ordering::Relaxed) {
                    self.rendezvous.wait();
                }
                LifetimeDistribution::new(
                    "panics-off-caller",
                    s.times().iter().map(|&t| (t, 0.5)).collect(),
                    SolveDiagnostics::default(),
                )
            }
        }
        // Distinct seeds keep the eight inputs distinct for the planner;
        // the backend ignores them.
        let batch: Vec<Scenario> = (0..8)
            .map(|i| {
                small_linear()
                    .with_name(format!("s{i}"))
                    .with_simulation(400, i)
            })
            .collect();
        let mut registry = SolverRegistry::empty().with_sweep_threads(2);
        registry.register(Box::new(PanicsOffCaller {
            caller: std::thread::current().id(),
            rendezvous: std::sync::Barrier::new(2),
            met: Default::default(),
        }));
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| registry.sweep(&batch)))
                .expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"backend failed off the calling thread")
        );
    }

    #[test]
    fn sweep_workers_claim_no_group_after_a_helper_panics() {
        // The helper panics on the first group it claims. The calling
        // thread's first solve returns only once the helper thread has
        // exited: the helper parks the only sender of a channel in a
        // thread-local, which drops with the thread, after the unwind
        // has passed the stop guard. So when the caller next looks at
        // the cursor, the flag is already up.
        use std::cell::RefCell;
        use std::sync::mpsc;
        thread_local! {
            static PARKED: RefCell<Option<mpsc::Sender<()>>> = const { RefCell::new(None) };
        }
        struct PanicsOffCaller {
            caller: std::thread::ThreadId,
            sender: std::sync::Mutex<Option<mpsc::Sender<()>>>,
            helper_exited: std::sync::Mutex<mpsc::Receiver<()>>,
            caller_solves: std::sync::Arc<AtomicUsize>,
        }
        impl LifetimeSolver for PanicsOffCaller {
            fn name(&self) -> &'static str {
                "panics-off-caller"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve_in(
                &self,
                s: &Scenario,
                _state: Option<&mut GroupState>,
                _budget: &Budget,
            ) -> Result<LifetimeDistribution, KibamRmError> {
                if std::thread::current().id() != self.caller {
                    let sender = self.sender.lock().unwrap().take();
                    PARKED.with(|parked| *parked.borrow_mut() = sender);
                    panic!("backend failed off the calling thread");
                }
                if self.caller_solves.fetch_add(1, Ordering::Relaxed) == 0 {
                    // Disconnected once the helper thread has exited.
                    let _ = self.helper_exited.lock().unwrap().recv();
                }
                LifetimeDistribution::new(
                    "panics-off-caller",
                    s.times().iter().map(|&t| (t, 0.5)).collect(),
                    SolveDiagnostics::default(),
                )
            }
        }
        // Distinct seeds keep the eight inputs distinct for the planner;
        // the backend ignores them.
        let batch: Vec<Scenario> = (0..8)
            .map(|i| {
                small_linear()
                    .with_name(format!("s{i}"))
                    .with_simulation(400, i)
            })
            .collect();
        let (sender, helper_exited) = mpsc::channel();
        let caller_solves = std::sync::Arc::new(AtomicUsize::new(0));
        let mut registry = SolverRegistry::empty().with_sweep_threads(2);
        registry.register(Box::new(PanicsOffCaller {
            caller: std::thread::current().id(),
            sender: std::sync::Mutex::new(Some(sender)),
            helper_exited: std::sync::Mutex::new(helper_exited),
            caller_solves: std::sync::Arc::clone(&caller_solves),
        }));
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| registry.sweep(&batch)))
                .expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"backend failed off the calling thread")
        );
        assert_eq!(
            caller_solves.load(Ordering::Relaxed),
            1,
            "the caller claimed a group after the helper had panicked"
        );
    }

    #[test]
    fn sweep_starts_groups_in_falling_cost_then_plan_order() {
        // Scenario names read `group:cost[:member]`; the backend groups by
        // the first field, prices by the second, and records the order in
        // which member solves start.
        type Log = std::sync::Arc<std::sync::Mutex<Vec<String>>>;
        struct Recording {
            priced: bool,
            started: Log,
            // Member solves handed a group state.
            stateful: Log,
        }
        impl LifetimeSolver for Recording {
            fn name(&self) -> &'static str {
                "recording"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve_in(
                &self,
                s: &Scenario,
                state: Option<&mut GroupState>,
                _budget: &Budget,
            ) -> Result<LifetimeDistribution, KibamRmError> {
                self.started.lock().unwrap().push(s.name().to_owned());
                if state.is_some() {
                    self.stateful.lock().unwrap().push(s.name().to_owned());
                }
                // A value per group, so a slot mix-up shows in the bits.
                let cost: f64 = s.name().split(':').nth(1).unwrap().parse().unwrap();
                LifetimeDistribution::new(
                    "recording",
                    s.times().iter().map(|&t| (t, 1.0 / (1.0 + cost))).collect(),
                    SolveDiagnostics::default(),
                )
            }
            fn sweep_fingerprint(&self, s: &Scenario) -> Option<u64> {
                Some(u64::from(s.name().as_bytes()[0]))
            }
            fn sweep_cost(&self, s: &Scenario) -> Option<f64> {
                let cost = s.name().split(':').nth(1)?.parse().ok()?;
                self.priced.then_some(cost)
            }
        }
        let names = ["A:1", "B:5", "C:3", "D:5", "E:2:x", "E:2:y"];
        // Distinct seeds keep the inputs distinct for the planner; the
        // backend ignores them.
        let batch: Vec<Scenario> = (0..)
            .zip(names)
            .map(|(i, n)| small_linear().with_name(n).with_simulation(400, i))
            .collect();
        let started = |priced: bool| {
            let (log, stateful) = (Log::default(), Log::default());
            let mut registry = SolverRegistry::empty().with_sweep_threads(1);
            registry.register(Box::new(Recording {
                priced,
                started: log.clone(),
                stateful: stateful.clone(),
            }));
            let plan = SweepPlan::build(&registry, &batch);
            assert_eq!(plan.groups().len(), 5);
            let results = registry.sweep(&batch);
            let started = log.lock().unwrap().clone();
            // Only the one multi-member group (E) solves through a state,
            // both of its members; the four singletons solve with none.
            assert_eq!(*stateful.lock().unwrap(), ["E:2:x", "E:2:y"]);
            // The state never moves a bit: every slot matches stateless
            // independent solves.
            for (got, s) in results.iter().zip(&batch) {
                let want = registry.solve(s).unwrap();
                assert_eq!(bits(got.as_ref().unwrap()), bits(&want));
            }
            started
        };
        // Falling group cost (E's members sum to 4); B and D tie at 5 and
        // keep plan order.
        assert_eq!(
            started(true),
            ["B:5", "D:5", "E:2:x", "E:2:y", "C:3", "A:1"]
        );
        // Without estimates the groups run in plan order.
        assert_eq!(started(false), names);
    }

    #[test]
    fn discretisation_cost_estimate_ranks_groups_like_measured_work() {
        let fig8 = |stages: u32, c: f64, delta: f64| {
            Scenario::builder()
                .name("fig8")
                .workload(
                    Workload::on_off_erlang(
                        Frequency::from_hertz(1.0),
                        stages,
                        Current::from_amps(0.96),
                    )
                    .unwrap(),
                )
                .capacity(Charge::from_amp_seconds(7200.0))
                .kibam(c, units::Rate::per_second(4.5e-5))
                .time_grid(Time::from_seconds(8000.0), 16)
                .delta(Charge::from_amp_seconds(delta))
                .build()
                .unwrap()
        };
        let solver = DiscretisationSolver::new();
        let cost = |s: &Scenario| solver.sweep_cost(s).unwrap();
        let base = fig8(1, 0.625, 450.0);
        assert!(cost(&fig8(1, 0.625, 300.0)) > cost(&base), "rises with 1/Δ");
        assert!(
            cost(&fig8(2, 0.625, 450.0)) > cost(&base),
            "rises with stages"
        );
        assert!(
            cost(&base.with_rate_scale(2.0).unwrap()) > cost(&base),
            "rises with γ"
        );
        let longer = base
            .with_times(vec![
                Time::from_seconds(1000.0),
                Time::from_seconds(16000.0),
            ])
            .unwrap();
        assert!(cost(&longer) > cost(&base), "rises with the horizon");
        assert!(
            solver
                .sweep_cost(&base.with_delta(Charge::from_amp_seconds(7.0)))
                .is_none(),
            "a Δ that divides neither well has no estimate"
        );

        // The benchmark grid's shape: stages × c × Δ groups, each holding
        // a γ ∈ {0.5, 1} pair. The estimate must order the groups exactly
        // as the work they measure: Σ iterations × generator non-zeros.
        let mut batch = Vec::new();
        for stages in [1, 2] {
            for c in [0.625, 0.5] {
                for delta in [450.0, 300.0] {
                    let s = fig8(stages, c, delta);
                    batch.push(s.with_rate_scale(0.5).unwrap());
                    batch.push(s);
                }
            }
        }
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(DiscretisationSolver::new()));
        let plan = SweepPlan::build(&registry, &batch);
        assert_eq!(plan.groups().len(), 8);
        let results = registry.sweep(&batch);
        let measured = |members: &[usize]| -> usize {
            members
                .iter()
                .map(|&i| {
                    let d = results[i].as_ref().unwrap().diagnostics();
                    d.iterations.unwrap() * d.generator_nonzeros.unwrap()
                })
                .sum()
        };
        let by_measure = {
            let mut groups: Vec<_> = plan.groups().iter().collect();
            groups.sort_by_key(|g| std::cmp::Reverse(measured(g.members())));
            groups.iter().map(|g| g.members()[0]).collect::<Vec<_>>()
        };
        let by_estimate: Vec<_> = plan.run_order().iter().map(|g| g.members()[0]).collect();
        assert_eq!(by_estimate, by_measure);
    }

    #[test]
    fn discretisation_cancelled_in_group_then_rerun_is_bit_identical() {
        // The tentpole cancellation contract at the solver layer: a
        // budget-interrupted member solve leaves the warm group state
        // consistent, so re-running the same member to completion gives
        // exactly the bits an uninterrupted solve would have.
        let solver = DiscretisationSolver::new();
        let s = two_well();
        let reference = reference_bits(&solver, &s);
        for k in [0, 1, 7] {
            let mut state = GroupState::default();
            let err = solver
                .solve_in(&s, Some(&mut state), &Budget::cancelled_after_checks(k))
                .expect_err("budget must interrupt the sweep");
            assert_eq!(
                err,
                KibamRmError::DeadlineExceeded {
                    completed: k as usize
                },
                "k = {k}"
            );
            let rerun = solver
                .solve_in(&s, Some(&mut state), &Budget::unlimited())
                .unwrap();
            assert_eq!(bits(&rerun), reference, "k = {k}");
        }
    }

    #[test]
    fn simulation_cancelled_in_group_then_rerun_is_bit_identical() {
        // One worker runs the batches inline, so the budget's k-th check
        // stops at an exact batch boundary.
        let solver = SimulationSolver::new().with_threads(1);
        let s = small_linear(); // 400 replications: batches of 256 and 144
        let reference = solver.solve(&s).unwrap();
        let err = solver
            .solve_in(&s, None, &Budget::cancelled_after_checks(1))
            .expect_err("budget must stop the batch loop");
        assert_eq!(err, KibamRmError::DeadlineExceeded { completed: 256 });
        let rerun = solver.solve_in(&s, None, &Budget::unlimited()).unwrap();
        assert_eq!(rerun.points(), reference.points());
        assert_eq!(rerun.diagnostics().runs, Some(400));
        let hw = rerun.diagnostics().half_width.unwrap();
        assert!(hw > 0.0 && hw < 0.2, "Wilson half-width {hw}");
    }

    #[test]
    fn exhausted_budget_fails_fast_for_every_backend() {
        let s = small_linear();
        let expired = Budget::cancelled_after_checks(0);
        for solver in [
            Box::new(DiscretisationSolver::new()) as Box<dyn LifetimeSolver>,
            Box::new(SimulationSolver::new()),
            Box::new(SericolaSolver::new()),
        ] {
            let err = solver
                .solve_in(&s, None, &expired)
                .expect_err("expired budget must refuse");
            assert_eq!(
                err,
                KibamRmError::DeadlineExceeded { completed: 0 },
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn budgeted_solo_solves_match_the_plain_paths_bit_for_bit() {
        let s = two_well();
        let solver = DiscretisationSolver::new();
        let solved = solver.solve_in(&s, None, &Budget::unlimited()).unwrap();
        assert_eq!(bits(&solved), reference_bits(&solver, &s));
        // The simulation backend's plain path: the streaming study the
        // solve summarises.
        let s = small_linear();
        let solver = SimulationSolver::new();
        let solved = solver.solve_in(&s, None, &Budget::unlimited()).unwrap();
        let study = solver.streaming_study(&s, &Budget::unlimited()).unwrap();
        let n = study.total_runs() as f64;
        let plain: Vec<u64> = study
            .cumulative_counts()
            .into_iter()
            .map(|count| (count as f64 / n).to_bits())
            .collect();
        assert_eq!(bits(&solved), plain);
    }

    #[test]
    fn another_backends_group_state_solves_like_none() {
        // The simulation backend has nothing to share: handed a group
        // state, it answers with the bits of a stateless solve and leaves
        // the state untouched (it still holds no template).
        let unlimited = Budget::unlimited();
        let s = small_linear();
        let sim = SimulationSolver::new();
        let mut state = GroupState::default();
        let stated = sim.solve_in(&s, Some(&mut state), &unlimited).unwrap();
        let stateless = sim.solve_in(&s, None, &unlimited).unwrap();
        assert_eq!(bits(&stated), bits(&stateless));
        assert!(state.template.is_none());
    }

    #[test]
    fn group_rescale_family_is_bit_identical_to_independent_solves() {
        // A rate-rescale family swept as one plan group shares its
        // template and `CurveCache`, and must return exactly the curves
        // of k independent solves on every representation — grouping is
        // an optimisation, never an approximation. The banded leg runs
        // the active-window engine, whose members each sweep on their
        // own; the CSR leg collapses the family into one extended sweep.
        let base = two_well().with_delta(Charge::from_milliamp_hours(50.0));
        let family: Vec<Scenario> = [0.25, 0.5, 1.0, 2.0]
            .iter()
            .map(|&g| base.with_rate_scale(g).unwrap())
            .collect();
        for representation in [
            Representation::Auto,
            Representation::Banded,
            Representation::Csr,
        ] {
            let solver = DiscretisationSolver::new().with_transient(TransientOptions {
                representation,
                ..TransientOptions::default()
            });
            let mut registry = SolverRegistry::empty();
            registry.register(Box::new(solver.clone()));
            let plan = SweepPlan::build(&registry, &family);
            assert_eq!(plan.groups().len(), 1, "one family, one group");
            let swept = registry.sweep(&family);
            for (s, got) in family.iter().zip(&swept) {
                assert_eq!(
                    bits(got.as_ref().unwrap()),
                    reference_bits(&solver, s),
                    "{representation:?}"
                );
            }
        }
    }
}
