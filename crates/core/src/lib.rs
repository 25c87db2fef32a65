//! # kibamrm — battery lifetime distributions for stochastic workloads
//!
//! This crate is the primary contribution of *"Computing Battery Lifetime
//! Distributions"* (L. Cloth, M. R. Jongerden, B. R. Haverkort, DSN 2007):
//! the **KiBaMRM**, a reward-inhomogeneous Markov reward model that couples
//! the Kinetic Battery Model to a CTMC workload, and the algorithms that
//! compute the battery lifetime distribution `Pr[battery empty at t]`
//! from it.
//!
//! ## The pipeline: Scenario → Solver → Distribution
//!
//! Everything revolves around one question asked of one value type:
//!
//! 1. **Describe the scenario once.** A [`scenario::Scenario`] bundles
//!    the workload (a CTMC whose states draw current — build your own
//!    with [`builder::WorkloadBuilder`] or use the paper's models from
//!    [`workload::Workload`]), the battery parameters (capacity `C`,
//!    available fraction `c`, flow constant `k`) and the query time
//!    grid. Scenarios are data: clone-and-vary them into grids, or
//!    round-trip them through a plain-text config
//!    ([`scenario::Scenario::to_config_string`]).
//! 2. **Pick a solver — or let the registry pick.** Each of the paper's
//!    three methods implements [`solver::LifetimeSolver`]:
//!    [`solver::DiscretisationSolver`] (§5 discretisation +
//!    uniformisation), [`solver::SimulationSolver`] (stochastic
//!    simulation of the exact dynamics) and [`solver::SericolaSolver`]
//!    (Sericola's exact algorithm, `c = 1` only).
//!    [`solver::SolverRegistry::auto`] selects the best applicable
//!    backend; [`solver::SolverRegistry::sweep`] batch-solves scenario
//!    grids through a structure-sharing [`sweep::SweepPlan`]
//!    (deduplication, per-group pattern reuse, shared uniformisation
//!    sweeps for rate-rescaled families — bit-identical to independent
//!    solves under a matching thread budget);
//!    [`sweep::ScenarioGrid`] builds labelled cartesian
//!    families for it, and
//!    [`solver::SolverRegistry::cross_validate`] runs every applicable
//!    method and reports how far apart they are.
//! 3. **Work with the distribution.** Solvers return a
//!    [`distribution::LifetimeDistribution`] with first-class operations:
//!    CDF evaluation, quantiles, mean lifetime, sup-distance between
//!    curves, and CSV bridging via [`report`].
//!
//! The lower layers remain public for power users: [`model::KibamRm`]
//! couples a workload to a battery, [`discretise::DiscretisedModel`] is
//! the §5 derived CTMC, [`simulate`] the raw Monte Carlo engine and
//! [`analysis`] the exact `c = 1` curve plus the algebraic mean lifetime.
//!
//! # Examples
//!
//! ```
//! use kibamrm::scenario::Scenario;
//! use kibamrm::solver::SolverRegistry;
//! use kibamrm::workload::Workload;
//! use units::{Charge, Rate, Time};
//!
//! // The paper's simple cell-phone workload on an 800 mAh battery,
//! // queried every hour for 30 h. Coarse Δ keeps the doctest fast.
//! let scenario = Scenario::builder()
//!     .workload(Workload::simple_model().unwrap())
//!     .capacity(Charge::from_milliamp_hours(800.0))
//!     .kibam(0.625, Rate::per_second(4.5e-5))
//!     .time_grid(Time::from_hours(30.0), 30)
//!     .delta(Charge::from_milliamp_hours(50.0))
//!     .build()
//!     .unwrap();
//!
//! let registry = SolverRegistry::with_default_backends();
//! let dist = registry.solve(&scenario).unwrap();   // picks discretisation
//! assert!(dist.cdf(Time::from_hours(5.0)) < 0.05); // alive early...
//! assert!(dist.cdf(Time::from_hours(30.0)) > 0.95); // ...dead by 30 h
//! assert!(dist.median().unwrap() > Time::from_hours(10.0));
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod chaos;
pub mod discretise;
pub mod distribution;
pub mod model;
pub mod report;
pub mod scenario;
pub mod service;
pub mod simulate;
pub mod snapshot;
pub mod solver;
pub mod sweep;
pub mod workload;

mod error;

pub use chaos::{ChaosConfig, ChaosLedger, FaultInjectingSolver};
pub use distribution::{LifetimeDistribution, SolveDiagnostics, SweepEntry, SweepResultSet};
pub use error::KibamRmError;
pub use scenario::{Scenario, ScenarioBuilder};
pub use service::{
    Answer, DegradedSource, LifetimeService, QueryOptions, RetryPolicy, ServiceConfig,
    ServiceError, ServiceStats,
};
pub use snapshot::{SnapshotError, SnapshotLoadReport, SnapshotWriteReport};
pub use solver::{
    Capability, CrossValidation, DiscretisationSolver, GroupState, LifetimeSolver, SericolaSolver,
    SimulationSolver, SolverRegistry,
};
pub use sweep::{ScenarioGrid, SweepPlan};
