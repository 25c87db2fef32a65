//! Sweep planning: batched scenario evaluation that stops re-deriving
//! shared structure.
//!
//! The paper's headline use case — and the north-star's huge sweep
//! traffic — is comparing lifetime distributions across *families* of
//! scenarios: workload rates, capacities, discretisation steps. A
//! [`ScenarioGrid`] builds such a family as a labelled cartesian product
//! over axes; a [`SweepPlan`] groups the expanded scenarios by **shared
//! structure** so that [`crate::solver::SolverRegistry::sweep`] can
//! amortise everything the group has in common:
//!
//! * **scenarios equal up to their names** (equal
//!   [`Scenario::canonical_bytes`], the key the resident service caches
//!   under) are deduplicated — one solve, one result per input slot,
//!   order preserved;
//! * **structurally identical scenarios** (equal
//!   [`LifetimeSolver::sweep_fingerprint`](crate::solver::LifetimeSolver::sweep_fingerprint)
//!   — same workload CTMC pattern, same lattice dimensions) share one
//!   assembled pattern: the banded generator layout, the DIA offsets,
//!   the state labels and the Fox–Glynn workspace are built once per
//!   group and only the numeric rate values are refilled per member;
//! * **rate-rescaled members** (`Q' = γQ`, e.g. a
//!   [`Scenario::with_rate_scale`] family) additionally share the whole
//!   uniformisation sweep: `P = I + Q/ν` is unchanged, so only the
//!   per-time Poisson mixes are recomputed.
//!
//! Sharing is an optimisation, never an approximation: every reuse
//! condition is checked at the bit level, so a planned sweep returns
//! results **bit-identical** to solving each scenario independently,
//! whatever the row-worker counts of either.
//!
//! ```
//! use kibamrm::scenario::Scenario;
//! use kibamrm::solver::SolverRegistry;
//! use kibamrm::sweep::ScenarioGrid;
//! use units::Charge;
//!
//! let base = Scenario::paper_cell_phone().unwrap();
//! let grid = ScenarioGrid::new(base)
//!     .deltas(vec![
//!         Charge::from_milliamp_hours(25.0),
//!         Charge::from_milliamp_hours(10.0),
//!     ])
//!     .rate_scales(vec![0.5, 1.0, 2.0]);
//! assert_eq!(grid.len(), 6);
//! let scenarios = grid.expand().unwrap();
//! let results = SolverRegistry::with_default_backends().sweep(&scenarios);
//! assert_eq!(results.len(), 6);
//! for (scenario, result) in scenarios.iter().zip(&results) {
//!     let median = result.as_ref().unwrap().quantile(0.5);
//!     println!("{}: median {median:?}", scenario.name());
//! }
//! ```

use crate::scenario::Scenario;
use crate::solver::SolverRegistry;
use crate::workload::Workload;
use crate::KibamRmError;
use std::collections::hash_map::{Entry, HashMap};
use units::{Charge, Rate};

/// A labelled cartesian product of scenario variations — the input shape
/// of a planned sweep.
///
/// Axes left empty keep the base scenario's value. Each expanded point is
/// named `base[/w=…][/C=…][/ck=…][/d=…][/x=…]` (only the active axes
/// appear), so sweep results stay attributable: [`ScenarioGrid::expand`]
/// and [`SolverRegistry::sweep`] both keep grid order, so the `i`-th result
/// belongs to the `i`-th expanded scenario's name.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    base: Scenario,
    workloads: Vec<(String, Workload)>,
    capacities: Vec<Charge>,
    kibams: Vec<(f64, Rate)>,
    deltas: Vec<Charge>,
    rate_scales: Vec<f64>,
}

impl ScenarioGrid {
    /// A grid over `base` with no axes yet (expands to just `base`).
    pub fn new(base: Scenario) -> Self {
        ScenarioGrid {
            base,
            workloads: Vec::new(),
            capacities: Vec::new(),
            kibams: Vec::new(),
            deltas: Vec::new(),
            rate_scales: Vec::new(),
        }
    }

    /// Adds a workload axis: named workload variants (the name feeds the
    /// point label).
    #[must_use]
    pub fn workloads(mut self, workloads: Vec<(String, Workload)>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Adds a capacity axis.
    #[must_use]
    pub fn capacities(mut self, capacities: Vec<Charge>) -> Self {
        self.capacities = capacities;
        self
    }

    /// Adds a battery-parameter axis of `(c, k)` pairs.
    #[must_use]
    pub fn kibams(mut self, kibams: Vec<(f64, Rate)>) -> Self {
        self.kibams = kibams;
        self
    }

    /// Adds a discretisation-step axis. Steps are not validated here
    /// (matching [`Scenario::with_delta`]); a step dividing neither well
    /// fails per point at solve time.
    #[must_use]
    pub fn deltas(mut self, deltas: Vec<Charge>) -> Self {
        self.deltas = deltas;
        self
    }

    /// Adds a rate-scale axis: each point runs the device at `γ×` speed
    /// ([`Scenario::with_rate_scale`]). All members of this axis share
    /// one derived-generator structure, and for power-of-two `γ` the
    /// planner collapses their uniformisation sweeps into one.
    #[must_use]
    pub fn rate_scales(mut self, rate_scales: Vec<f64>) -> Self {
        self.rate_scales = rate_scales;
        self
    }

    /// Number of points the grid expands to.
    pub fn len(&self) -> usize {
        [
            self.workloads.len(),
            self.capacities.len(),
            self.kibams.len(),
            self.deltas.len(),
            self.rate_scales.len(),
        ]
        .iter()
        .map(|&n| n.max(1))
        .product()
    }

    /// `true` when some axis is explicitly empty… which cannot happen:
    /// empty axes fall back to the base value, so a grid always expands
    /// to at least the base scenario.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Expands the cartesian product into labelled scenarios, the
    /// rate-scale axis innermost (so a plan group's members arrive in
    /// ascending-ν order and extend one shared sweep).
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the axis modifiers (bad
    /// capacity, workload or scale); per-point *solve* failures are
    /// instead reported per slot by the sweep.
    pub fn expand(&self) -> Result<Vec<Scenario>, KibamRmError> {
        fn axis<T>(values: &[T]) -> Vec<Option<&T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().map(Some).collect()
            }
        }
        let base_name = if self.base.name().is_empty() {
            "grid".to_owned()
        } else {
            self.base.name().to_owned()
        };
        let mut out = Vec::with_capacity(self.len());
        for workload in axis(&self.workloads) {
            for capacity in axis(&self.capacities) {
                for kibam in axis(&self.kibams) {
                    for delta in axis(&self.deltas) {
                        for scale in axis(&self.rate_scales) {
                            let mut label = base_name.clone();
                            let mut s = self.base.clone();
                            if let Some((name, w)) = workload {
                                s = s.with_workload(w.clone())?;
                                label.push_str(&format!("/w={name}"));
                            }
                            if let Some(&cap) = capacity {
                                s = s.with_capacity(cap)?;
                                label.push_str(&format!("/C={}C", cap.as_coulombs()));
                            }
                            if let Some(&(c, k)) = kibam {
                                s = s.with_kibam(c, k)?;
                                label.push_str(&format!("/c={c},k={}", k.as_per_second()));
                            }
                            if let Some(&d) = delta {
                                s = s.with_delta(d);
                                label.push_str(&format!("/d={}C", d.as_coulombs()));
                            }
                            if let Some(&gamma) = scale {
                                s = s.with_rate_scale(gamma)?;
                                label.push_str(&format!("/x={gamma}"));
                            }
                            out.push(s.with_name(label));
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// How one input slot of a planned sweep is handled.
#[derive(Debug, Clone)]
pub enum PlanSlot {
    /// Solved inside some plan group.
    Grouped,
    /// Equal to an earlier scenario up to its name (equal
    /// [`Scenario::canonical_bytes`]): its result is cloned from the
    /// canonical slot, which is never itself a duplicate.
    DuplicateOf(usize),
    /// No registered backend supports the scenario; the selection error
    /// is reported in this slot.
    Unsupported(KibamRmError),
}

/// One work item of a plan: a backend plus the input indices of the
/// (deduplicated) scenarios it solves together.
#[derive(Debug, Clone)]
pub struct PlanGroup {
    solver_index: usize,
    fingerprint: Option<u64>,
    /// The backend's
    /// [`sweep_cost`](crate::solver::LifetimeSolver::sweep_cost) summed
    /// over the members; `None` when any member has no estimate.
    cost: Option<f64>,
    members: Vec<usize>,
}

impl PlanGroup {
    /// Registry index of the backend solving this group.
    pub fn solver_index(&self) -> usize {
        self.solver_index
    }

    /// The structural fingerprint shared by the members (`None` for a
    /// backend that opted out of grouping — such groups are singletons).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Input indices of the member scenarios, in input order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }
}

/// A structure-sharing execution plan for a scenario batch: scenarios
/// equal up to their names collapsed, the rest grouped by
/// `(backend, structural fingerprint)`. Built by [`SweepPlan::build`]
/// and executed by [`SolverRegistry::sweep`]; the accessors exist so
/// benchmarks and tests can inspect how much sharing a grid admits.
#[derive(Debug)]
pub struct SweepPlan {
    slots: Vec<PlanSlot>,
    groups: Vec<PlanGroup>,
}

impl SweepPlan {
    /// Plans `scenarios` against `registry`: auto-selects a backend per
    /// scenario, deduplicates scenarios with equal
    /// [`Scenario::canonical_bytes`] (the first occurrence is canonical),
    /// and groups the unique scenarios whose selected backend reports
    /// equal
    /// [`sweep_fingerprint`](crate::solver::LifetimeSolver::sweep_fingerprint)s.
    /// Backends returning `None` yield singleton groups. Selection comes
    /// first, so every unsupported slot reports its own scenario's name.
    pub fn build(registry: &SolverRegistry, scenarios: &[Scenario]) -> SweepPlan {
        let mut slots: Vec<PlanSlot> = Vec::with_capacity(scenarios.len());
        let mut canonical: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut groups: Vec<PlanGroup> = Vec::new();
        for (i, scenario) in scenarios.iter().enumerate() {
            let solver_index = match registry.auto_index(scenario) {
                Ok(index) => index,
                Err(e) => {
                    slots.push(PlanSlot::Unsupported(e));
                    continue;
                }
            };
            match canonical.entry(scenario.key()) {
                Entry::Occupied(first) => {
                    slots.push(PlanSlot::DuplicateOf(*first.get()));
                    continue;
                }
                Entry::Vacant(slot) => slot.insert(i),
            };
            slots.push(PlanSlot::Grouped);
            let solver = registry.solver_at(solver_index);
            let fingerprint = solver.sweep_fingerprint(scenario);
            let cost = solver.sweep_cost(scenario);
            let existing = fingerprint.and_then(|fp| {
                groups
                    .iter_mut()
                    .find(|g| g.solver_index == solver_index && g.fingerprint == Some(fp))
            });
            match existing {
                Some(group) => {
                    group.members.push(i);
                    group.cost = group.cost.zip(cost).map(|(a, b)| a + b);
                }
                None => groups.push(PlanGroup {
                    solver_index,
                    fingerprint,
                    cost,
                    members: vec![i],
                }),
            }
        }
        SweepPlan { slots, groups }
    }

    /// Per-input-slot dispositions (same length as the planned batch).
    pub fn slots(&self) -> &[PlanSlot] {
        &self.slots
    }

    /// The disposition of input slot `i`.
    pub fn slot(&self, i: usize) -> &PlanSlot {
        &self.slots[i]
    }

    /// The work items, in first-member order.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }

    /// The work items in the order the sweep starts them: falling summed
    /// [`sweep_cost`](crate::solver::LifetimeSolver::sweep_cost), so the
    /// longest groups go first and a short one finishes last. Groups
    /// without an estimate count as longest; the sort is stable, so ties
    /// keep plan order.
    pub fn run_order(&self) -> Vec<&PlanGroup> {
        let cost = |g: &PlanGroup| g.cost.unwrap_or(f64::INFINITY);
        let mut order: Vec<&PlanGroup> = self.groups.iter().collect();
        order.sort_by(|a, b| cost(b).total_cmp(&cost(a)));
        order
    }

    /// Number of input slots that duplicate an earlier slot up to its
    /// name.
    pub fn n_duplicates(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, PlanSlot::DuplicateOf(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Budget, Capability, DiscretisationSolver, GroupState, LifetimeSolver};
    use crate::{LifetimeDistribution, SolveDiagnostics};
    use markov::transient::{Representation, TransientOptions};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use units::{Current, Frequency, Time};

    fn base() -> Scenario {
        Scenario::builder()
            .name("base")
            .workload(
                Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
                    .unwrap(),
            )
            .capacity(Charge::from_amp_seconds(7200.0))
            .kibam(0.625, Rate::per_second(4.5e-5))
            .times(
                (1..=4)
                    .map(|i| Time::from_seconds(i as f64 * 1500.0))
                    .collect(),
            )
            .delta(Charge::from_amp_seconds(300.0))
            .simulation(40, 7)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_expands_the_cartesian_product_with_labels() {
        let grid = ScenarioGrid::new(base())
            .deltas(vec![
                Charge::from_amp_seconds(300.0),
                Charge::from_amp_seconds(150.0),
            ])
            .rate_scales(vec![0.5, 1.0, 2.0]);
        assert_eq!(grid.len(), 6);
        assert!(!grid.is_empty());
        let scenarios = grid.expand().unwrap();
        assert_eq!(scenarios.len(), 6);
        assert_eq!(scenarios[0].name(), "base/d=300C/x=0.5");
        assert_eq!(scenarios[5].name(), "base/d=150C/x=2");
        // The scale axis is innermost: consecutive points share structure.
        assert_eq!(scenarios[1].delta(), scenarios[0].delta());
        assert_ne!(scenarios[3].delta(), scenarios[0].delta());
        // Scaling is real: ×2 doubles the workload rates and k.
        let s2 = &scenarios[5];
        assert_eq!(s2.k().as_per_second(), 9e-5);
        assert_eq!(s2.workload().ctmc().rates().get(0, 1), 4.0);
        assert_eq!(s2.workload().current(0).as_amps(), 1.92);

        // An axis with an invalid value aborts expansion with the
        // validation error.
        let bad = ScenarioGrid::new(base()).capacities(vec![Charge::ZERO]);
        assert!(bad.expand().is_err());
        let bad = ScenarioGrid::new(base()).rate_scales(vec![-1.0]);
        assert!(bad.expand().is_err());
        // A bare grid expands to the base scenario.
        let bare = ScenarioGrid::new(base());
        assert_eq!(bare.len(), 1);
        assert_eq!(bare.expand().unwrap()[0].name(), "base");
    }

    #[test]
    fn plan_groups_by_structure_and_dedups_exact_repeats() {
        let registry = SolverRegistry::with_default_backends();
        let s = base();
        let scaled = s.with_rate_scale(2.0).unwrap();
        let finer = s.with_delta(Charge::from_amp_seconds(150.0));
        let linear = s.with_kibam(1.0, Rate::ZERO).unwrap(); // → Sericola
        let scenarios = vec![s.clone(), scaled, s.clone(), finer, linear];
        let plan = SweepPlan::build(&registry, &scenarios);
        // Slot 2 duplicates slot 0.
        assert!(matches!(plan.slot(2), PlanSlot::DuplicateOf(0)));
        assert_eq!(plan.n_duplicates(), 1);
        // base + ×2 share a group (same pattern); finer Δ does not;
        // the linear scenario goes to Sericola which opts out of
        // grouping (singleton).
        assert_eq!(plan.groups().len(), 3);
        assert_eq!(plan.groups()[0].members(), &[0, 1]);
        assert!(plan.groups()[0].fingerprint().is_some());
        assert_eq!(plan.groups()[1].members(), &[3]);
        assert_eq!(plan.groups()[2].members(), &[4]);
        assert!(plan.groups()[2].fingerprint().is_none());
        // Sericola gives no cost estimate, so its group starts first;
        // then the finer (dearer) Δ, then the two-member base group.
        let order: Vec<&[usize]> = plan.run_order().iter().map(|g| g.members()).collect();
        assert_eq!(order, [&[4][..], &[3], &[0, 1]]);
    }

    #[test]
    fn planned_sweep_matches_independent_solves_bitwise() {
        let registry = SolverRegistry::with_default_backends();
        let grid = ScenarioGrid::new(base())
            .deltas(vec![
                Charge::from_amp_seconds(300.0),
                Charge::from_amp_seconds(150.0),
            ])
            .rate_scales(vec![0.25, 0.5, 1.0, 2.0]);
        let scenarios = grid.expand().unwrap();
        let planned = registry.sweep(&scenarios);
        assert_eq!(planned.len(), scenarios.len());
        for (i, (p, s)) in planned.iter().zip(&scenarios).enumerate() {
            let (p, n) = (p.as_ref().unwrap(), registry.solve(s).unwrap());
            assert_eq!(p.points(), n.points(), "slot {i} must be bit-identical");
            assert_eq!(p.method(), n.method());
        }
        // The plan really shared work: 8 scenarios, 2 groups.
        let plan = SweepPlan::build(&registry, &scenarios);
        assert_eq!(plan.groups().len(), 2);
        assert_eq!(plan.groups()[0].members().len(), 4);
    }

    #[test]
    fn duplicates_get_one_solve_but_one_result_slot_each() {
        // The regression the planner fixes: sweep() used to re-solve
        // repeated scenarios. Count actual solves with a custom backend.
        static SOLVES: AtomicUsize = AtomicUsize::new(0);
        struct Counting;
        impl LifetimeSolver for Counting {
            fn name(&self) -> &'static str {
                "counting"
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
                SOLVES.fetch_add(1, Ordering::SeqCst);
                LifetimeDistribution::new(
                    "counting",
                    s.times().iter().map(|&t| (t, 0.5)).collect(),
                    SolveDiagnostics::default(),
                )
            }
        }
        let mut registry = SolverRegistry::empty().with_sweep_threads(2);
        registry.register(Box::new(Counting));
        let s = base();
        // A different question, and a name-only variant of `s`, which
        // asks the same one.
        let other = s.with_simulation(400, 8).with_name("other");
        let renamed = s.with_name("renamed");
        let batch = vec![s.clone(), other.clone(), s.clone(), renamed, s, other];
        let plan = SweepPlan::build(&registry, &batch);
        assert!(matches!(plan.slot(3), PlanSlot::DuplicateOf(0)));
        assert_eq!(plan.n_duplicates(), 4);
        let results = registry.sweep(&batch);
        // Order preserved, one result slot per input.
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            let d = r.as_ref().unwrap();
            assert_eq!(d.method(), "counting", "slot {i}");
            assert_eq!(d.points().len(), batch[i].times().len());
        }
        // …but only the two distinct scenarios were solved.
        assert_eq!(SOLVES.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn planned_sweep_isolates_failures_and_unsupported_slots() {
        // An empty registry reports the selection error per slot,
        // including for duplicates of an unsupported scenario; a
        // name-only variant's error names the variant.
        let registry = SolverRegistry::empty();
        let s = base();
        let batch = [s.clone(), s.clone(), s.with_name("renamed")];
        let results = registry.sweep(&batch);
        assert_eq!(results.len(), 3);
        for (r, input) in results.iter().zip(&batch) {
            let e = r.as_ref().expect_err("no backend").to_string();
            assert!(e.contains("registry is empty"), "{e}");
            assert!(e.contains(&format!("'{}'", input.name())), "{e}");
        }
        // A non-dividing Δ fails its own slots (duplicated too) without
        // poisoning the rest of the batch.
        let registry = SolverRegistry::with_default_backends();
        let good = base();
        let bad = good.with_delta(Charge::from_amp_seconds(7.0));
        let results = registry.sweep(&[bad.clone(), good.clone(), bad]);
        assert!(matches!(
            results[0],
            Err(KibamRmError::InvalidDiscretisation(_))
        ));
        assert!(results[1].is_ok());
        assert!(matches!(
            results[2],
            Err(KibamRmError::InvalidDiscretisation(_))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The satellite property: grid-sweep results are bit-identical
        /// to solving each expanded scenario independently through the
        /// same backend, across worker counts 1–8 and both the CSR and
        /// banded-windowed engine paths. The Δ axis gives the plan groups
        /// of unequal cost, so the queue reorders them and threads race
        /// for them.
        #[test]
        fn grid_sweep_bit_identical_to_independent_solves(
            threads in 1usize..=8,
            windowed_sel in 0usize..2,
            scale_exp in -4i32..0,
        ) {
            use proptest::prelude::*;
            let representation = if windowed_sel == 1 {
                Representation::Banded // + active window (backend default)
            } else {
                Representation::Csr
            };
            let solver = DiscretisationSolver::new().with_transient(TransientOptions {
                representation,
                ..TransientOptions::default()
            });
            let mut registry = SolverRegistry::empty().with_sweep_threads(threads);
            registry.register(Box::new(solver.clone()));
            let grid = ScenarioGrid::new(base())
                .deltas(vec![
                    Charge::from_amp_seconds(300.0),
                    Charge::from_amp_seconds(180.0),
                ])
                .rate_scales(vec![
                    2f64.powi(scale_exp),
                    2f64.powi(scale_exp + 1),
                    2f64.powi(scale_exp + 2),
                ]);
            let scenarios = grid.expand().unwrap();
            let planned = registry.sweep(&scenarios);
            for (s, p) in scenarios.iter().zip(&planned) {
                // The independent reference: the derived chain solved by
                // the plain uniformisation curve, outside every cache.
                let independent = solver
                    .discretise(s)
                    .unwrap()
                    .empty_probability_curve(s.times())
                    .unwrap();
                let planned_bits: Vec<u64> =
                    p.as_ref().unwrap().points().iter().map(|x| x.1.to_bits()).collect();
                let independent_bits: Vec<u64> =
                    independent.points.iter().map(|x| x.1.to_bits()).collect();
                prop_assert!(
                    planned_bits == independent_bits,
                    "scenario {} differs from its independent solve",
                    s.name()
                );
            }
        }
    }
}
