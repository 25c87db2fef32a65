//! Scenarios: the single value type every solver consumes.
//!
//! A [`Scenario`] bundles the three things the paper's question
//! `Pr[battery empty at t]` depends on — the battery parameters, the
//! CTMC workload and the query time grid — plus the method tuning knobs
//! (`Δ`, replication count, seed) that a batch runner wants to sweep.
//! Scenarios are **data**: they can be built fluently with
//! [`ScenarioBuilder`], cloned and varied with the `with_*` modifiers to
//! form grids for [`crate::solver::SolverRegistry::sweep`], and
//! round-tripped through a plain-text config with
//! [`Scenario::to_config_string`] / [`Scenario::from_config_str`], so a
//! scenario can live in a file, a queue message or a request body.
//!
//! ```
//! use kibamrm::scenario::Scenario;
//! use kibamrm::workload::Workload;
//! use units::{Charge, Rate, Time};
//!
//! let scenario = Scenario::builder()
//!     .name("cell-phone")
//!     .workload(Workload::simple_model().unwrap())
//!     .capacity(Charge::from_milliamp_hours(800.0))
//!     .kibam(0.625, Rate::per_second(4.5e-5))
//!     .time_grid(Time::from_hours(30.0), 60)
//!     .delta(Charge::from_milliamp_hours(10.0))
//!     .build()
//!     .unwrap();
//!
//! // Scenarios are data: serialise, ship, parse back.
//! let text = scenario.to_config_string().unwrap();
//! let parsed = Scenario::from_config_str(&text).unwrap();
//! assert_eq!(parsed.capacity(), scenario.capacity());
//! assert_eq!(parsed.times().len(), scenario.times().len());
//! ```

use crate::builder::WorkloadBuilder;
use crate::discretise::whole_levels;
use crate::model::KibamRm;
use crate::workload::Workload;
use crate::KibamRmError;
use units::{Charge, Current, Rate, Time};

/// Default simulation replication count (the paper's 1000).
pub const DEFAULT_SIM_RUNS: usize = 1000;
/// Default simulation seed (stable results across runs unless varied).
pub const DEFAULT_SIM_SEED: u64 = 2007;

/// A complete, validated battery-lifetime question.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    workload: Workload,
    capacity: Charge,
    c: f64,
    k: Rate,
    times: Vec<Time>,
    delta: Option<Charge>,
    sim_runs: usize,
    sim_seed: u64,
}

impl Scenario {
    /// Starts a fluent builder.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The paper's cell-phone reference scenario (§4.3 / Fig. 10 middle
    /// family): simple workload, 800 mAh, `c = 0.625`,
    /// `k = 4.5·10⁻⁵ /s`, queried hourly over 30 h.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for uniformity.
    pub fn paper_cell_phone() -> Result<Scenario, KibamRmError> {
        Scenario::builder()
            .name("paper-cell-phone")
            .workload(Workload::simple_model()?)
            .capacity(Charge::from_milliamp_hours(800.0))
            .kibam(0.625, Rate::per_second(4.5e-5))
            .time_grid(Time::from_hours(30.0), 30)
            .delta(Charge::from_milliamp_hours(10.0))
            .build()
    }

    /// Scenario name (free-form label; appears in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload half.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Battery capacity `C`.
    pub fn capacity(&self) -> Charge {
        self.capacity
    }

    /// Available-charge fraction `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Well flow constant `k`.
    pub fn k(&self) -> Rate {
        self.k
    }

    /// `true` when the model degenerates to a single well (`c = 1`).
    pub fn is_linear(&self) -> bool {
        self.c >= 1.0
    }

    /// The query time grid (strictly increasing).
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// The largest query time (simulation horizon default).
    pub fn horizon(&self) -> Time {
        *self.times.last().expect("validated non-empty")
    }

    /// The requested discretisation step, if pinned.
    pub fn delta(&self) -> Option<Charge> {
        self.delta
    }

    /// The discretisation step to use: the pinned one, or a default that
    /// splits the capacity into ~`2⁷`–`2¹³` quanta such that both wells
    /// divide evenly.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidDiscretisation`] when no default divides
    /// both wells (an irrational `c`); pin `Δ` explicitly then.
    pub fn effective_delta(&self) -> Result<Charge, KibamRmError> {
        if let Some(d) = self.delta {
            return Ok(d);
        }
        default_delta(self.capacity, self.c)
    }

    /// Simulation replication count.
    pub fn sim_runs(&self) -> usize {
        self.sim_runs
    }

    /// Simulation seed.
    pub fn sim_seed(&self) -> u64 {
        self.sim_seed
    }

    /// The coupled KiBaM Markov reward model for this scenario.
    ///
    /// # Errors
    ///
    /// Never fails after validation; kept fallible to avoid a panic path.
    pub fn to_model(&self) -> Result<KibamRm, KibamRmError> {
        KibamRm::new(self.workload.clone(), self.capacity, self.c, self.k)
    }

    // --- grid-building modifiers (cheap clones for sweep()) -------------

    /// A copy with a different name.
    #[must_use]
    pub fn with_name(&self, name: impl Into<String>) -> Scenario {
        Scenario {
            name: name.into(),
            ..self.clone()
        }
    }

    /// A copy with a pinned discretisation step. Unlike the builder,
    /// this modifier does not validate `delta` (grids are often built
    /// in tight loops); a non-positive or non-dividing step fails at
    /// solve time with the discretisation error instead.
    #[must_use]
    pub fn with_delta(&self, delta: Charge) -> Scenario {
        Scenario {
            delta: Some(delta),
            ..self.clone()
        }
    }

    /// A copy with a different capacity.
    ///
    /// # Errors
    ///
    /// Propagates battery validation errors.
    pub fn with_capacity(&self, capacity: Charge) -> Result<Scenario, KibamRmError> {
        let s = Scenario {
            capacity,
            ..self.clone()
        };
        s.to_model()?;
        Ok(s)
    }

    /// A copy with different battery parameters `(c, k)`.
    ///
    /// # Errors
    ///
    /// Propagates battery validation errors.
    pub fn with_kibam(&self, c: f64, k: Rate) -> Result<Scenario, KibamRmError> {
        let s = Scenario {
            c,
            k,
            ..self.clone()
        };
        s.to_model()?;
        Ok(s)
    }

    /// A copy with a different workload.
    ///
    /// # Errors
    ///
    /// Propagates workload validation errors.
    pub fn with_workload(&self, workload: Workload) -> Result<Scenario, KibamRmError> {
        let s = Scenario {
            workload,
            ..self.clone()
        };
        s.to_model()?;
        Ok(s)
    }

    /// A copy with a different query grid.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] for an empty/non-increasing grid.
    pub fn with_times(&self, times: Vec<Time>) -> Result<Scenario, KibamRmError> {
        validate_times(&times)?;
        Ok(Scenario {
            times,
            ..self.clone()
        })
    }

    /// A copy describing the same device run at `gamma×` speed: every
    /// workload transition rate, every current and the flow constant `k`
    /// are scaled by `gamma` (the query grid is untouched). The coupled
    /// process is the base process on a rescaled clock, so the lifetime
    /// CDF of the copy at `t` equals the base CDF at `γt` — and the
    /// derived generator is exactly `γ·Q`, which is the family the sweep
    /// planner's rate-rescale fast path collapses to a single
    /// uniformisation sweep (bit-exactly so when `gamma` is a power of
    /// two, since `P = I + Q/ν` is then unchanged).
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when `gamma` is not positive and
    /// finite; battery validation errors otherwise.
    pub fn with_rate_scale(&self, gamma: f64) -> Result<Scenario, KibamRmError> {
        let s = Scenario {
            workload: self.workload.with_rate_scale(gamma)?,
            k: Rate::per_second(self.k.as_per_second() * gamma),
            ..self.clone()
        };
        s.to_model()?;
        Ok(s)
    }

    /// A copy with different simulation settings. Not validated here
    /// (see [`Scenario::with_delta`]); `runs = 0` fails at solve time
    /// with a precise error.
    #[must_use]
    pub fn with_simulation(&self, runs: usize, seed: u64) -> Scenario {
        Scenario {
            sim_runs: runs,
            sim_seed: seed,
            ..self.clone()
        }
    }

    // --- plain-text config round-trip -----------------------------------

    /// Serialises the scenario as a plain-text config (one `key value…`
    /// pair per line, `#` comments). The format is stable and parsed
    /// back by [`Scenario::from_config_str`]; all quantities are written
    /// in SI units (coulombs, amperes, seconds).
    ///
    /// State labels need no check here: [`Workload::new`] refuses any
    /// the line format cannot carry.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when the scenario name contains
    /// whitespace or `#`, or is the literal `-` (all unrepresentable in
    /// the line format).
    pub fn to_config_string(&self) -> Result<String, KibamRmError> {
        // The name rides on a whitespace-separated line too, and "-" is
        // the empty-name sentinel.
        if self.name.contains(char::is_whitespace) || self.name.contains('#') || self.name == "-" {
            return Err(KibamRmError::InvalidWorkload(format!(
                "scenario name {:?} cannot be serialised (whitespace/'#'/'-'); \
                 rename it with with_name before serialising",
                self.name
            )));
        }
        let name = if self.name.is_empty() {
            "-"
        } else {
            &self.name
        };
        Ok(self.write_config(name))
    }

    /// The one config writer: [`Scenario::to_config_string`] passes the
    /// checked display name, [`Scenario::key`] the `-` sentinel.
    fn write_config(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let ctmc = self.workload.ctmc();
        let mut out = String::new();
        let _ = writeln!(out, "# kibamrm scenario v1");
        let _ = writeln!(out, "name {name}");
        let _ = writeln!(out, "capacity_c {}", self.capacity.as_coulombs());
        let _ = writeln!(out, "c {}", self.c);
        let _ = writeln!(out, "k_per_s {}", self.k.as_per_second());
        if let Some(d) = self.delta {
            let _ = writeln!(out, "delta_c {}", d.as_coulombs());
        }
        let _ = writeln!(out, "sim_runs {}", self.sim_runs);
        let _ = writeln!(out, "sim_seed {}", self.sim_seed);
        for i in 0..ctmc.n_states() {
            let _ = writeln!(
                out,
                "state {} {}",
                ctmc.state_label(i),
                self.workload.current(i).as_amps()
            );
        }
        for (i, j, rate) in ctmc.rates().iter() {
            let _ = writeln!(
                out,
                "transition {} {} {rate}",
                ctmc.state_label(i),
                ctmc.state_label(j)
            );
        }
        for (i, &p) in self.workload.initial().iter().enumerate() {
            if p != 0.0 {
                let _ = writeln!(out, "initial {} {p}", ctmc.state_label(i));
            }
        }
        let _ = write!(out, "times_s");
        for t in &self.times {
            let _ = write!(out, " {}", t.as_seconds());
        }
        let _ = writeln!(out);
        out
    }

    /// The canonical byte encoding of this scenario — the byte-identity
    /// key under which [`crate::service::LifetimeService`] deduplicates
    /// and caches queries.
    ///
    /// The encoding reuses the config round-trip
    /// ([`Scenario::to_config_string`]) with the display name erased:
    /// the name labels a scenario but never changes the answer, so two
    /// scenarios differing only in name share one key (and one cached
    /// solve). Every field that *does* shape the answer — workload
    /// states/rates/initial distribution, battery parameters, `Δ`, the
    /// query grid and the simulation budget/seed — rides on the config
    /// lines, so equal scenarios produce equal keys no matter which
    /// builder path assembled them.
    ///
    /// # Errors
    ///
    /// None for a built scenario: the erased name is written as the `-`
    /// sentinel, and [`Workload::new`] has already refused every state
    /// label the line format cannot carry. The `Result` is kept for
    /// source compatibility.
    pub fn canonical_bytes(&self) -> Result<Vec<u8>, KibamRmError> {
        Ok(self.key())
    }

    /// The canonical key ([`Scenario::canonical_bytes`]) without the
    /// `Result`: writing it cannot fail, so the sweep planner and the
    /// service carry no error arm for it.
    pub(crate) fn key(&self) -> Vec<u8> {
        self.write_config("-").into_bytes()
    }

    /// Parses a scenario from the config format written by
    /// [`Scenario::to_config_string`].
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] for syntax errors or missing
    /// sections; the workload lines build through [`WorkloadBuilder`],
    /// so unknown state references and a repeated state name or
    /// `(from, to)` transition are refused as the builder refuses them;
    /// plus the usual validation errors of [`ScenarioBuilder::build`].
    pub fn from_config_str(text: &str) -> Result<Scenario, KibamRmError> {
        let bad = |msg: String| KibamRmError::InvalidWorkload(msg);
        let parse_f64 = |tok: &str, what: &str| -> Result<f64, KibamRmError> {
            tok.parse::<f64>()
                .map_err(|_| bad(format!("cannot parse {what} from {tok:?}")))
        };

        let mut name = String::new();
        let mut capacity = None;
        let mut c = None;
        let mut k = None;
        let mut delta = None;
        let mut sim_runs = DEFAULT_SIM_RUNS;
        let mut sim_seed = DEFAULT_SIM_SEED;
        let mut workload = WorkloadBuilder::new();
        let mut times: Vec<Time> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let key = tok.next().expect("non-empty line");
            let mut next = |what: &str| -> Result<&str, KibamRmError> {
                tok.next().ok_or_else(|| {
                    bad(format!("line {}: missing {what} after '{key}'", lineno + 1))
                })
            };
            match key {
                "name" => {
                    let v = next("value")?;
                    name = if v == "-" {
                        String::new()
                    } else {
                        v.to_owned()
                    };
                }
                "capacity_c" => capacity = Some(parse_f64(next("value")?, "capacity")?),
                "c" => c = Some(parse_f64(next("value")?, "c")?),
                "k_per_s" => k = Some(parse_f64(next("value")?, "k")?),
                "delta_c" => delta = Some(parse_f64(next("value")?, "delta")?),
                "sim_runs" => {
                    sim_runs = next("value")?
                        .parse()
                        .map_err(|_| bad(format!("line {}: bad sim_runs", lineno + 1)))?;
                }
                "sim_seed" => {
                    sim_seed = next("value")?
                        .parse()
                        .map_err(|_| bad(format!("line {}: bad sim_seed", lineno + 1)))?;
                }
                "state" => {
                    let label = next("state name")?;
                    let amps = parse_f64(next("current")?, "current")?;
                    workload = workload.state(label, Current::from_amps(amps));
                }
                "transition" => {
                    let from = next("source state")?;
                    let to = next("target state")?;
                    let rate = parse_f64(next("rate")?, "rate")?;
                    workload = workload.transition(from, to, Rate::per_second(rate));
                }
                "initial" => {
                    let label = next("state name")?;
                    let p = parse_f64(next("probability")?, "probability")?;
                    workload = workload.initial_probability(label, p);
                }
                "times_s" => {
                    for t in tok.by_ref() {
                        times.push(Time::from_seconds(parse_f64(t, "time")?));
                    }
                }
                other => return Err(bad(format!("line {}: unknown key '{other}'", lineno + 1))),
            }
        }

        let mut builder = Scenario::builder()
            .name(name)
            .workload(workload.build()?)
            .capacity(Charge::from_coulombs(
                capacity.ok_or_else(|| bad("config is missing 'capacity_c'".into()))?,
            ))
            .kibam(
                c.ok_or_else(|| bad("config is missing 'c'".into()))?,
                Rate::per_second(k.ok_or_else(|| bad("config is missing 'k_per_s'".into()))?),
            )
            .times(times)
            .simulation(sim_runs, sim_seed);
        if let Some(d) = delta {
            builder = builder.delta(Charge::from_coulombs(d));
        }
        builder.build()
    }
}

/// Fluent, validating construction of a [`Scenario`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    name: String,
    workload: Option<Workload>,
    capacity: Option<Charge>,
    c: Option<f64>,
    k: Option<Rate>,
    times: Vec<Time>,
    delta: Option<Charge>,
    sim_runs: Option<usize>,
    sim_seed: Option<u64>,
}

impl ScenarioBuilder {
    /// Names the scenario.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the workload.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the battery capacity `C`.
    #[must_use]
    pub fn capacity(mut self, capacity: Charge) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the KiBaM parameters `(c, k)`.
    #[must_use]
    pub fn kibam(mut self, c: f64, k: Rate) -> Self {
        self.c = Some(c);
        self.k = Some(k);
        self
    }

    /// Degenerate single-well battery: `c = 1`, `k = 0` (the exact
    /// Sericola method applies).
    #[must_use]
    pub fn linear(self) -> Self {
        self.kibam(1.0, Rate::per_second(0.0))
    }

    /// Sets the query times directly (must be strictly increasing).
    #[must_use]
    pub fn times(mut self, times: Vec<Time>) -> Self {
        self.times = times;
        self
    }

    /// Sets an equispaced grid `0, …, t_max` with `points + 1` samples.
    #[must_use]
    pub fn time_grid(mut self, t_max: Time, points: usize) -> Self {
        self.times = crate::analysis::time_grid(t_max, points);
        self
    }

    /// Pins the discretisation step `Δ`.
    #[must_use]
    pub fn delta(mut self, delta: Charge) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Sets the simulation replication count and seed.
    #[must_use]
    pub fn simulation(mut self, runs: usize, seed: u64) -> Self {
        self.sim_runs = Some(runs);
        self.sim_seed = Some(seed);
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when the workload or time grid
    /// is missing/invalid; [`KibamRmError::InvalidBattery`] for bad
    /// battery parameters.
    pub fn build(self) -> Result<Scenario, KibamRmError> {
        let workload = self
            .workload
            .ok_or_else(|| KibamRmError::InvalidWorkload("scenario needs a workload".into()))?;
        let capacity = self
            .capacity
            .ok_or_else(|| KibamRmError::InvalidBattery("scenario needs a capacity".into()))?;
        let c = self.c.ok_or_else(|| {
            KibamRmError::InvalidBattery(
                "scenario needs battery parameters: call .kibam(c, k) or .linear()".into(),
            )
        })?;
        let k = self.k.unwrap_or(Rate::ZERO);
        validate_times(&self.times)?;
        if let Some(d) = self.delta {
            if !(d.value() > 0.0) || !d.is_finite() {
                return Err(KibamRmError::InvalidDiscretisation(format!(
                    "Δ must be positive and finite, got {d}"
                )));
            }
        }
        let sim_runs = self.sim_runs.unwrap_or(DEFAULT_SIM_RUNS);
        if sim_runs == 0 {
            return Err(KibamRmError::InvalidWorkload(
                "simulation needs at least one replication".into(),
            ));
        }
        let scenario = Scenario {
            name: self.name,
            workload,
            capacity,
            c,
            k,
            times: self.times,
            delta: self.delta,
            sim_runs,
            sim_seed: self.sim_seed.unwrap_or(DEFAULT_SIM_SEED),
        };
        // One throwaway construction validates battery + workload
        // coupling so every later `to_model()` is infallible in practice.
        scenario.to_model()?;
        Ok(scenario)
    }
}

fn validate_times(times: &[Time]) -> Result<(), KibamRmError> {
    if times.is_empty() {
        return Err(KibamRmError::InvalidWorkload(
            "scenario needs a non-empty query time grid".into(),
        ));
    }
    for w in times.windows(2) {
        if !(w[1] > w[0]) {
            return Err(KibamRmError::InvalidWorkload(format!(
                "query times must be strictly increasing ({} then {})",
                w[0], w[1]
            )));
        }
    }
    let first = times[0];
    if !(first.as_seconds() >= 0.0) || times.iter().any(|t| !t.is_finite()) {
        return Err(KibamRmError::InvalidWorkload(
            "query times must be finite and non-negative".into(),
        ));
    }
    Ok(())
}

/// Finds a default `Δ = C/n` whose quanta divide both wells evenly (the
/// lattice builder's own test, so it never picks a Δ the build refuses),
/// preferring finer grids (n from 1024 up, then coarser fallbacks).
fn default_delta(capacity: Charge, c: f64) -> Result<Charge, KibamRmError> {
    let cap = capacity.value();
    let divides = |n: usize| {
        let d = cap / n as f64;
        whole_levels(c * cap, d).is_some() && whole_levels((1.0 - c) * cap, d).is_some()
    };
    // Scan a window of quanta counts: fine enough for a good
    // approximation, coarse enough to stay cheap.
    for n in 1024..=8192 {
        if divides(n) {
            return Ok(Charge::from_coulombs(cap / n as f64));
        }
    }
    for n in (128..1024).rev() {
        if divides(n) {
            return Ok(Charge::from_coulombs(cap / n as f64));
        }
    }
    Err(KibamRmError::InvalidDiscretisation(format!(
        "no default Δ divides both wells for c = {c}; pin Δ explicitly \
         on the scenario"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Frequency;

    fn base() -> Scenario {
        Scenario::paper_cell_phone().unwrap()
    }

    #[test]
    fn builder_validates() {
        // Missing workload.
        assert!(Scenario::builder()
            .capacity(Charge::from_milliamp_hours(800.0))
            .linear()
            .time_grid(Time::from_hours(1.0), 4)
            .build()
            .is_err());
        // Missing capacity.
        assert!(Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .linear()
            .time_grid(Time::from_hours(1.0), 4)
            .build()
            .is_err());
        // Missing battery parameters.
        assert!(Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .time_grid(Time::from_hours(1.0), 4)
            .build()
            .is_err());
        // Empty grid.
        assert!(Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .linear()
            .build()
            .is_err());
        // Non-increasing grid.
        assert!(Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .linear()
            .times(vec![Time::from_hours(2.0), Time::from_hours(1.0)])
            .build()
            .is_err());
        // Bad battery.
        assert!(Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::ZERO)
            .linear()
            .time_grid(Time::from_hours(1.0), 4)
            .build()
            .is_err());
        // Bad delta / zero runs.
        assert!(Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .linear()
            .time_grid(Time::from_hours(1.0), 4)
            .delta(Charge::ZERO)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .linear()
            .time_grid(Time::from_hours(1.0), 4)
            .simulation(0, 1)
            .build()
            .is_err());
    }

    #[test]
    fn accessors_and_model() {
        let s = base();
        assert_eq!(s.name(), "paper-cell-phone");
        assert_eq!(s.capacity().as_milliamp_hours(), 800.0);
        assert_eq!(s.c(), 0.625);
        assert!(!s.is_linear());
        assert_eq!(s.times().len(), 31);
        assert_eq!(s.horizon(), Time::from_hours(30.0));
        assert_eq!(s.sim_runs(), DEFAULT_SIM_RUNS);
        let m = s.to_model().unwrap();
        assert_eq!(m.capacity(), s.capacity());
    }

    #[test]
    fn modifiers_produce_variants() {
        let s = base();
        assert_eq!(s.with_name("x").name(), "x");
        let fine = s.with_delta(Charge::from_milliamp_hours(2.0));
        assert_eq!(fine.delta().unwrap().as_milliamp_hours(), 2.0);
        let bigger = s
            .with_capacity(Charge::from_milliamp_hours(1600.0))
            .unwrap();
        assert_eq!(bigger.capacity().as_milliamp_hours(), 1600.0);
        assert!(s.with_capacity(Charge::ZERO).is_err());
        let linear = s.with_kibam(1.0, Rate::ZERO).unwrap();
        assert!(linear.is_linear());
        assert!(s.with_kibam(2.0, Rate::ZERO).is_err());
        let other = s
            .with_workload(
                Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(other.workload().n_states(), 2);
        let sim = s.with_simulation(50, 9);
        assert_eq!((sim.sim_runs(), sim.sim_seed()), (50, 9));
        assert!(s.with_times(vec![]).is_err());
    }

    #[test]
    fn effective_delta_defaults_divide_both_wells() {
        let s = base(); // pinned at 10 mAh
        assert_eq!(s.effective_delta().unwrap().as_milliamp_hours(), 10.0);
        let unpinned = Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .kibam(0.625, Rate::per_second(4.5e-5))
            .time_grid(Time::from_hours(30.0), 30)
            .build()
            .unwrap();
        let d = unpinned.effective_delta().unwrap().value();
        let u1 = 0.625 * unpinned.capacity().value();
        let u2 = 0.375 * unpinned.capacity().value();
        for u in [u1, u2] {
            let levels = u / d;
            assert!(
                (levels - levels.round()).abs() < 1e-6,
                "Δ = {d} vs well {u}"
            );
        }
        // A bound well under one quantum for every candidate Δ: the
        // lattice builder refuses such a Δ, so the default search must
        // refuse too rather than hand one out.
        let tiny_bound_well = Scenario::builder()
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .kibam(1.0 - 1e-12, Rate::per_second(4.5e-5))
            .time_grid(Time::from_hours(30.0), 30)
            .build()
            .unwrap();
        let refused = tiny_bound_well.effective_delta();
        assert!(refused.is_err(), "{refused:?}");
    }

    #[test]
    fn config_roundtrip_preserves_everything() {
        let s = base().with_simulation(123, 77);
        let text = s.to_config_string().unwrap();
        let p = Scenario::from_config_str(&text).unwrap();
        assert_eq!(p.name(), s.name());
        assert_eq!(p.capacity(), s.capacity());
        assert_eq!(p.c(), s.c());
        assert_eq!(p.k(), s.k());
        assert_eq!(p.delta(), s.delta());
        assert_eq!(p.sim_runs(), 123);
        assert_eq!(p.sim_seed(), 77);
        assert_eq!(p.times(), s.times());
        assert_eq!(p.workload().n_states(), s.workload().n_states());
        assert_eq!(p.workload().initial(), s.workload().initial());
        assert_eq!(p.workload().currents(), s.workload().currents());
        // The CTMC survives label-for-label and rate-for-rate.
        let (a, b) = (s.workload().ctmc(), p.workload().ctmc());
        for i in 0..a.n_states() {
            assert_eq!(a.state_label(i), b.state_label(i));
            for j in 0..a.n_states() {
                assert_eq!(a.rates().get(i, j), b.rates().get(i, j));
            }
        }
    }

    #[test]
    fn canonical_bytes_agree_across_builder_paths() {
        // Path 1: the builder, field by field.
        let built = Scenario::builder()
            .name("path-one")
            .workload(Workload::simple_model().unwrap())
            .capacity(Charge::from_milliamp_hours(800.0))
            .kibam(0.625, Rate::per_second(4.5e-5))
            .time_grid(Time::from_hours(30.0), 30)
            .delta(Charge::from_milliamp_hours(10.0))
            .simulation(DEFAULT_SIM_RUNS, DEFAULT_SIM_SEED)
            .build()
            .unwrap();
        // Path 2: the named constructor plus modifiers — an equal
        // scenario assembled through a completely different call chain.
        let modified = Scenario::paper_cell_phone()
            .unwrap()
            .with_delta(Charge::from_milliamp_hours(10.0));
        assert_eq!(
            built.canonical_bytes().unwrap(),
            modified.canonical_bytes().unwrap()
        );
        // Path 3: the config round-trip itself.
        let reparsed = Scenario::from_config_str(&built.to_config_string().unwrap()).unwrap();
        assert_eq!(
            built.canonical_bytes().unwrap(),
            reparsed.canonical_bytes().unwrap()
        );
        // The key is the config text with the name line written as the
        // `-` sentinel, and it parses back to itself: snapshot revival
        // rebuilds scenarios from stored keys.
        let text = built.to_config_string().unwrap();
        assert!(text.contains("\nname path-one\n"));
        assert_eq!(
            built.key(),
            text.replace("\nname path-one\n", "\nname -\n").into_bytes()
        );
        let revived =
            Scenario::from_config_str(std::str::from_utf8(&built.key()).unwrap()).unwrap();
        assert_eq!(revived.key(), built.key());

        // The display name is erased from the key (it never changes the
        // answer) — even names the config line format cannot carry.
        for name in ["other", "has space", "-"] {
            assert_eq!(
                built.with_name(name).canonical_bytes().unwrap(),
                built.canonical_bytes().unwrap(),
                "name {name:?} must not perturb the key"
            );
        }
        // Fields that do shape the answer move the key.
        assert_ne!(
            built.with_simulation(7, 7).canonical_bytes().unwrap(),
            built.canonical_bytes().unwrap()
        );
        assert_ne!(
            built
                .with_delta(Charge::from_milliamp_hours(20.0))
                .canonical_bytes()
                .unwrap(),
            built.canonical_bytes().unwrap()
        );
    }

    #[test]
    fn canonical_bytes_succeed_for_paper_and_grid_scenarios() {
        // Every built workload's labels ride a config line, so every
        // built scenario has a key: the paper workloads with their named
        // states, and each point a grid expands (workload, capacity,
        // battery, Δ and rate-scale axes, names with '/', '=' and ',').
        let paper = [
            Workload::on_off_erlang(Frequency::from_hertz(1.0), 3, Current::from_amps(0.96))
                .unwrap(),
            Workload::simple_model().unwrap(),
            Workload::burst_model().unwrap(),
        ];
        for w in &paper {
            assert!(base()
                .with_workload(w.clone())
                .unwrap()
                .canonical_bytes()
                .is_ok());
        }
        let grid = crate::sweep::ScenarioGrid::new(base())
            .workloads(
                ["erlang", "simple", "burst"]
                    .into_iter()
                    .map(String::from)
                    .zip(paper)
                    .collect(),
            )
            .capacities(vec![
                Charge::from_milliamp_hours(400.0),
                Charge::from_milliamp_hours(800.0),
            ])
            .kibams(vec![(0.625, Rate::per_second(4.5e-5)), (1.0, Rate::ZERO)])
            .deltas(vec![Charge::from_milliamp_hours(25.0)])
            .rate_scales(vec![0.5, 1.0, 2.0]);
        let points = grid.expand().unwrap();
        assert_eq!(points.len(), 36);
        for s in &points {
            assert!(s.canonical_bytes().is_ok(), "{} has no key", s.name());
        }
    }

    #[test]
    fn config_parser_rejects_malformed_input() {
        assert!(Scenario::from_config_str("").is_err());
        assert!(Scenario::from_config_str("nonsense 1").is_err());
        assert!(Scenario::from_config_str("state a 0.1\ncapacity_c x").is_err());
        // Transition to an unknown state.
        let text = "capacity_c 100\nc 1\nk_per_s 0\nstate a 0.1\n\
                    transition a b 0.5\ntimes_s 0 10";
        assert!(Scenario::from_config_str(text).is_err());
        // Missing capacity.
        let text = "c 1\nk_per_s 0\nstate a 0.1\ntimes_s 0 10";
        assert!(Scenario::from_config_str(text).is_err());
        // Missing value after key.
        assert!(Scenario::from_config_str("name").is_err());
    }

    #[test]
    fn config_accepts_comments_and_defaults() {
        let text = "# hand-written\ncapacity_c 720 # one-fifth\nc 1\nk_per_s 0\n\
                    state on 0.5\nstate off 0\ntransition on off 1\n\
                    transition off on 1\ntimes_s 0 600 1200 1800";
        let s = Scenario::from_config_str(text).unwrap();
        assert_eq!(s.workload().n_states(), 2);
        // Defaults: first state initial, paper sim settings.
        assert_eq!(s.workload().initial(), &[1.0, 0.0]);
        assert_eq!(s.sim_runs(), DEFAULT_SIM_RUNS);
        assert!(s.is_linear());
    }

    #[test]
    fn unserialisable_names_are_rejected() {
        // A state name the line format cannot carry never reaches a
        // scenario: the workload is refused when it is built.
        let err = crate::builder::WorkloadBuilder::new()
            .state("has space", Current::ZERO)
            .build()
            .expect_err("unserialisable state name");
        assert!(matches!(err, KibamRmError::InvalidWorkload(_)));
        assert!(err.to_string().contains("\"has space\""), "{err}");
        // The scenario *name* is line-encoded too: whitespace, '#' and
        // the empty-name sentinel '-' are all unrepresentable.
        let base = Scenario::paper_cell_phone().unwrap();
        for bad in ["cell phone", "pr#7", "-"] {
            assert!(
                base.with_name(bad).to_config_string().is_err(),
                "name {bad:?} must be rejected"
            );
        }
        // A plain name still round-trips.
        assert!(base.with_name("cell-phone_7").to_config_string().is_ok());
    }

    #[test]
    fn config_parser_rejects_duplicate_transitions() {
        let text = "capacity_c 100\nc 1\nk_per_s 0\nstate a 0.5\nstate b 0\n\
                    transition a b 1\ntransition a b 0.5\ntimes_s 0 10";
        let err = Scenario::from_config_str(text).expect_err("duplicate transition");
        assert!(
            err.to_string().contains("duplicate transition 'a b'"),
            "{err}"
        );
        // Distinct directions are of course fine.
        let text = "capacity_c 100\nc 1\nk_per_s 0\nstate a 0.5\nstate b 0\n\
                    transition a b 1\ntransition b a 0.5\ntimes_s 0 10";
        assert!(Scenario::from_config_str(text).is_ok());
    }

    #[test]
    fn config_parser_rejects_duplicate_states() {
        let text = "capacity_c 100\nc 1\nk_per_s 0\nstate a 0.5\nstate a 0.1\n\
                    state b 0\ntransition a b 1\ntimes_s 0 10";
        let err = Scenario::from_config_str(text).expect_err("duplicate state");
        assert!(err.to_string().contains("duplicate state 'a'"), "{err}");
    }
}
