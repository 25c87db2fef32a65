//! The Markovian approximation (paper §5): discretising the KiBaMRM into
//! a pure CTMC whose transient solution yields the lifetime distribution.
//!
//! The uncountable state space `S × [0, u₁] × [0, u₂]` (workload state ×
//! well contents) is collapsed to the finite grid
//! `S × {0..J₁} × {0..J₂}` with `J_d = u_d/Δ`, `u₁ = cC`, `u₂ = (1−c)C`.
//! Three kinds of transitions arise (paper §5.2):
//!
//! 1. **workload** — `(i,j₁,j₂) → (i',j₁,j₂)` at the CTMC rate `Q_{ii'}`;
//! 2. **consumption** — `(i,j₁,j₂) → (i,j₁−1,j₂)` at rate `I_i/Δ`
//!    (the mean drain of one charge quantum);
//! 3. **recovery** — `(i,j₁,j₂) → (i,j₁+1,j₂−1)` at rate
//!    `k(j₂/(1−c) − j₁/c)` when the bound well is higher (`h₂ > h₁`).
//!
//! States with `j₁ = 0` are **absorbing** (the paper defines lifetime as
//! the *first* time the battery empties, so no recovery from empty), and
//!
//! ```text
//! Pr[battery empty at t] ≈ Σ_i Σ_{j₂} π_{(i,0,j₂)}(t),
//! ```
//!
//! computed by the uniformisation curve engine of the `markov` crate.

use crate::model::KibamRm;
use crate::KibamRmError;
use markov::ctmc::Ctmc;
use markov::sparse::CsrAssembler;
use markov::transient::{measure_curve, CurveSolution, TransientOptions};
use units::{Charge, Time};

/// Options for building the discretised chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscretisationOptions {
    /// The charge quantum `Δ`. Must evenly divide both `cC` and `(1−c)C`.
    pub delta: Charge,
    /// Options handed to the uniformisation engine.
    pub transient: TransientOptions,
    /// Include bound→available recovery transitions *out of* the
    /// battery-empty (`j₁ = 0`) states. The paper keeps those states
    /// absorbing — lifetime is the *first* emptying — but notes the
    /// recovery transitions "could easily be included"; with this flag
    /// the computed measure becomes `Pr[battery empty **at** time t]`
    /// (the battery may come back), which is no longer monotone in `t`.
    pub recovery_from_empty: bool,
}

impl DiscretisationOptions {
    /// Options with the given `Δ` and default numerics.
    pub fn with_delta(delta: Charge) -> Self {
        DiscretisationOptions {
            delta,
            transient: TransientOptions::default(),
            recovery_from_empty: false,
        }
    }
}

/// Size statistics of a discretised chain (the quantities the paper
/// reports in §5.3/§6: state count, generator non-zeros, uniformisation
/// iterations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtmcStats {
    /// Number of states of the derived CTMC.
    pub states: usize,
    /// Number of off-diagonal non-zero rates.
    pub off_diagonal_nonzeros: usize,
    /// Number of non-zero generator entries including the diagonal.
    pub generator_nonzeros: usize,
    /// Number of distinct diagonals the off-diagonal rate matrix
    /// occupies. The lattice structure makes this a small constant
    /// (workload hops, consumption, recovery — each a fixed index
    /// delta). Whether banded (DIA) storage pays also depends on how
    /// full those diagonals are: the Fig. 8 chains' five are too sparse,
    /// and `Auto` runs them as length-sorted rows instead.
    pub band_offsets: usize,
    /// Largest `|column − row|` over the stored rates — how far one
    /// uniformisation product can move probability mass, i.e. the
    /// per-iteration growth bound of the active window.
    pub bandwidth: usize,
}

/// The paper's derived CTMC for one KiBaMRM and one `Δ`.
#[derive(Debug, Clone)]
pub struct DiscretisedModel {
    chain: Ctmc,
    alpha: Vec<f64>,
    empty_measure: Vec<f64>,
    stats: CtmcStats,
    transient: TransientOptions,
    n_workload: usize,
    j1_levels: usize,
    j2_levels: usize,
    delta: f64,
}

/// The value-free description of one discretisation: dimensions, rates
/// inputs and the transition enumeration. Both the from-scratch build and
/// the template-based refill speak through this, so the emitted entries —
/// and therefore the assembled values — are identical bit for bit.
struct LatticeSpec {
    n_workload: usize,
    j1_levels: usize,
    j2_levels: usize,
    delta: f64,
    c: f64,
    k: f64,
    currents: Vec<f64>,
    workload_rates: Vec<Vec<(usize, f64)>>,
    recovery_from_empty: bool,
}

impl LatticeSpec {
    fn new(model: &KibamRm, opts: &DiscretisationOptions) -> Result<Self, KibamRmError> {
        let delta = opts.delta.value();
        if !(delta > 0.0) || !opts.delta.is_finite() {
            return Err(KibamRmError::InvalidDiscretisation(format!(
                "Δ must be positive, got {}",
                opts.delta
            )));
        }
        let c = model.c();
        let capacity = model.capacity().value();
        let j1_levels = level_count(c * capacity, delta, "available well (c·C)")?;
        let j2_levels = level_count((1.0 - c) * capacity, delta, "bound well ((1−c)·C)")?;
        let n_workload = model.workload().n_states();
        Ok(LatticeSpec {
            n_workload,
            j1_levels,
            j2_levels,
            delta,
            c,
            k: model.k().value(),
            currents: model.workload().currents_amps(),
            workload_rates: (0..n_workload)
                .map(|i| model.workload().ctmc().rates().row(i).collect())
                .collect(),
            recovery_from_empty: opts.recovery_from_empty,
        })
    }

    fn n_states(&self) -> usize {
        self.n_workload * self.j1_levels * self.j2_levels
    }

    /// An upper bound on the derived chain's largest exit rate (the
    /// uniformisation rate up to the engine's constant factor), read off
    /// the rate inputs without enumerating a transition: the largest
    /// workload exit rate plus consumption `I_i/Δ`, plus the steepest
    /// transfer rate `k·J₂/(1−c)` the lattice admits.
    fn exit_rate_bound(&self) -> f64 {
        let workload = self
            .workload_rates
            .iter()
            .zip(&self.currents)
            .map(|(row, &current)| {
                row.iter().map(|&(_, rate)| rate).sum::<f64>() + current.max(0.0) / self.delta
            })
            .fold(0.0, f64::max);
        let transfer = if self.k > 0.0 && self.j2_levels > 1 {
            self.k * (self.j2_levels - 1) as f64 / (1.0 - self.c)
        } else {
            0.0
        };
        workload + transfer
    }

    #[inline]
    fn index(&self, i: usize, j1: usize, j2: usize) -> usize {
        (j1 * self.j2_levels + j2) * self.n_workload + i
    }

    /// Enumerates every transition of the derived chain, in a fixed
    /// deterministic order. The transition structure is pure arithmetic
    /// on the state index, so the generator can be enumerated repeatedly:
    /// twice for two-pass counted CSR assembly (no triplet temporary —
    /// the Fig. 8 chain at Δ = 5 has ≈ 3.2·10⁶ entries — and no global
    /// sort), and once more per sweep-group member to refill values
    /// through a recorded slot permutation.
    fn emit_all(&self, emit: &mut dyn FnMut(usize, usize, f64)) {
        let (c, k, delta) = (self.c, self.k, self.delta);
        // Optional paper extension (§5.2): recovery transitions out of
        // the empty states. The device is dead there — no workload
        // moves, no consumption — but bound charge keeps equalising.
        if self.recovery_from_empty && k > 0.0 && self.j1_levels > 1 {
            for j2 in 1..self.j2_levels {
                let rate = k * (j2 as f64 / (1.0 - c));
                for i in 0..self.n_workload {
                    emit(self.index(i, 0, j2), self.index(i, 1, j2 - 1), rate);
                }
            }
        }
        for j1 in 1..self.j1_levels {
            // j1 = 0 rows stay absorbing (unless recovery_from_empty).
            for j2 in 0..self.j2_levels {
                for i in 0..self.n_workload {
                    let from = self.index(i, j1, j2);
                    // 1. Workload transitions.
                    for &(to_state, rate) in &self.workload_rates[i] {
                        emit(from, self.index(to_state, j1, j2), rate);
                    }
                    // 2. Consumption of one charge quantum.
                    if self.currents[i] > 0.0 {
                        emit(from, self.index(i, j1 - 1, j2), self.currents[i] / delta);
                    }
                    // 3. Bound → available transfer.
                    if k > 0.0 && j2 > 0 && j1 + 1 < self.j1_levels {
                        let rate = k * (j2 as f64 / (1.0 - c) - j1 as f64 / c);
                        if rate > 0.0 {
                            emit(from, self.index(i, j1 + 1, j2 - 1), rate);
                        }
                    }
                }
            }
        }
    }

    /// A 64-bit FNV-1a fingerprint of everything that determines the
    /// derived chain's **sparsity pattern** (not its values): lattice
    /// dimensions, the workload CTMC's transition pattern, which states
    /// draw current, whether transfer happens at all, the
    /// available-charge fraction `c` (whose exact value decides which
    /// lattice cells have a positive transfer rate), and the
    /// recovery-from-empty flag. Equal fingerprints ⇒ identical pattern,
    /// which is what sweep plans group scenarios by.
    fn fingerprint(&self, workload_ctmc: &Ctmc) -> u64 {
        markov::sparse::fnv1a_u64(
            [
                workload_ctmc.structural_fingerprint(),
                self.n_workload as u64,
                self.j1_levels as u64,
                self.j2_levels as u64,
                self.c.to_bits(),
                u64::from(self.k > 0.0),
                u64::from(self.recovery_from_empty),
            ]
            .into_iter()
            .chain(self.currents.iter().map(|&cur| u64::from(cur > 0.0))),
        )
    }
}

/// The structural fingerprint of the chain [`DiscretisedModel::build`]
/// would derive for `model` at `opts`, computable without building it.
/// Scenarios with equal fingerprints share their lattice sparsity pattern
/// — the grouping key of the sweep planner.
///
/// # Errors
///
/// The same validation errors as [`DiscretisedModel::build`] (bad `Δ`).
pub fn structural_fingerprint(
    model: &KibamRm,
    opts: &DiscretisationOptions,
) -> Result<u64, KibamRmError> {
    let spec = LatticeSpec::new(model, opts)?;
    Ok(spec.fingerprint(model.workload().ctmc()))
}

/// A relative estimate of the work of solving `model` at `opts` up to
/// `horizon`: states × (upper bound on the exit rate) × horizon, i.e. the
/// state updates of one uniformisation sweep up to constant factors.
/// Read off the lattice dimensions and rate inputs without assembling the
/// chain; the sweep executor only compares these numbers to decide which
/// group to start first.
///
/// # Errors
///
/// The same validation errors as [`DiscretisedModel::build`] (bad `Δ`).
pub(crate) fn cost_estimate(
    model: &KibamRm,
    opts: &DiscretisationOptions,
    horizon: Time,
) -> Result<f64, KibamRmError> {
    let spec = LatticeSpec::new(model, opts)?;
    Ok(spec.n_states() as f64 * spec.exit_rate_bound() * horizon.as_seconds())
}

/// The reusable structural skeleton of a derived chain: the CSR pattern
/// (carried by the representative chain), the emit-order → CSR-slot
/// permutation, the DIA/bandwidth metadata and the lattice dimensions.
/// Built once per sweep-plan group from its first member
/// ([`DiscretisedModel::template`]); every later member refills only the
/// numeric rate values ([`DiscretisedModel::build_with_template`]) — no
/// counting pass, no per-row sorts, no offset detection.
#[derive(Debug, Clone)]
pub struct DiscretisationTemplate {
    fingerprint: u64,
    chain: Ctmc,
    /// For each emitted transition (in [`LatticeSpec::emit_all`] order),
    /// the CSR slot its rate lands in.
    slots: Vec<u32>,
    stats: CtmcStats,
    n_workload: usize,
    j1_levels: usize,
    j2_levels: usize,
}

impl DiscretisationTemplate {
    /// The grouping key this template serves
    /// (see [`structural_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl DiscretisedModel {
    /// Builds the derived CTMC.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidDiscretisation`] when `Δ` is non-positive
    /// or does not evenly divide the well capacities `cC` and `(1−c)C`
    /// (within 10⁻⁶ relative); [`KibamRmError::Markov`] if assembly
    /// fails.
    pub fn build(model: &KibamRm, opts: &DiscretisationOptions) -> Result<Self, KibamRmError> {
        let spec = LatticeSpec::new(model, opts)?;
        let n_states = spec.n_states();
        let mut assembler = CsrAssembler::new(n_states, n_states).map_err(KibamRmError::Markov)?;
        spec.emit_all(&mut |from, _to, _rate| assembler.count(from));
        let off_diagonal = assembler.counted();
        let mut filler = assembler.into_filler();
        let mut fill_err = None;
        spec.emit_all(&mut |from, to, rate| {
            if fill_err.is_none() {
                fill_err = filler.entry(from, to, rate).err();
            }
        });
        if let Some(e) = fill_err {
            return Err(KibamRmError::Markov(e));
        }
        let rates = filler.finish().map_err(KibamRmError::Markov)?;
        let chain = Ctmc::from_rate_matrix(rates).map_err(KibamRmError::Markov)?;

        // Diagonal entries exist for every state with outgoing rate plus
        // nothing for absorbing rows (their diagonal is zero).
        let diagonal_nonzeros = (0..n_states).filter(|&s| chain.exit_rate(s) > 0.0).count();
        let offsets = markov::banded::BandedMatrix::detect_offsets(chain.rates());
        let stats = CtmcStats {
            states: n_states,
            off_diagonal_nonzeros: off_diagonal,
            generator_nonzeros: chain.n_transitions() + diagonal_nonzeros,
            band_offsets: offsets.len(),
            bandwidth: offsets.iter().map(|o| o.unsigned_abs()).max().unwrap_or(0),
        };
        Ok(DiscretisedModel::assemble(chain, stats, &spec, model, opts))
    }

    /// Shared tail of the build paths: initial distribution, empty
    /// measure and the value struct.
    fn assemble(
        chain: Ctmc,
        stats: CtmcStats,
        spec: &LatticeSpec,
        model: &KibamRm,
        opts: &DiscretisationOptions,
    ) -> Self {
        let n_states = spec.n_states();
        // Initial distribution: workload initial × full battery (top
        // levels of both wells).
        let mut alpha = vec![0.0; n_states];
        for (i, &a) in model.workload().initial().iter().enumerate() {
            alpha[spec.index(i, spec.j1_levels - 1, spec.j2_levels - 1)] = a;
        }
        // The battery is empty in every state with j1 = 0.
        let mut empty_measure = vec![0.0; n_states];
        for j2 in 0..spec.j2_levels {
            for i in 0..spec.n_workload {
                empty_measure[spec.index(i, 0, j2)] = 1.0;
            }
        }
        DiscretisedModel {
            chain,
            alpha,
            empty_measure,
            stats,
            transient: opts.transient,
            n_workload: spec.n_workload,
            j1_levels: spec.j1_levels,
            j2_levels: spec.j2_levels,
            delta: spec.delta,
        }
    }

    /// Extracts this model's reusable structural skeleton. `model` and
    /// `opts` must be the pair the model was built from; the emitted
    /// transitions are re-enumerated once to record where each rate lives
    /// in the CSR value array.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidDiscretisation`] when `model`/`opts` do not
    /// reproduce this model's structure.
    pub fn template(
        &self,
        model: &KibamRm,
        opts: &DiscretisationOptions,
    ) -> Result<DiscretisationTemplate, KibamRmError> {
        let spec = LatticeSpec::new(model, opts)?;
        let mut slots = Vec::with_capacity(self.chain.n_transitions());
        let mut missing = None;
        spec.emit_all(
            &mut |from, to, _rate| match self.chain.rates().value_index(from, to) {
                Some(slot) => slots.push(slot as u32),
                None => missing = Some((from, to)),
            },
        );
        if let Some((from, to)) = missing {
            return Err(KibamRmError::InvalidDiscretisation(format!(
                "template extraction: emitted transition ({from}, {to}) is not \
                 stored in the built chain — model/opts do not match this model"
            )));
        }
        if slots.len() != self.chain.n_transitions() {
            return Err(KibamRmError::InvalidDiscretisation(format!(
                "template extraction: {} emitted transitions but the chain \
                 stores {}",
                slots.len(),
                self.chain.n_transitions()
            )));
        }
        Ok(DiscretisationTemplate {
            fingerprint: spec.fingerprint(model.workload().ctmc()),
            chain: self.chain.clone(),
            slots,
            stats: self.stats,
            n_workload: self.n_workload,
            j1_levels: self.j1_levels,
            j2_levels: self.j2_levels,
        })
    }

    /// Builds the derived CTMC for a model that shares `template`'s
    /// structure ([`structural_fingerprint`] equality): only the numeric
    /// rate values are recomputed — one enumeration pass scattered
    /// through the recorded slot permutation into the pattern-reuse
    /// constructor [`Ctmc::with_rate_values`]. The result is bit-identical
    /// to [`DiscretisedModel::build`] on the same inputs (same emitted
    /// values, same CSR layout).
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidDiscretisation`] when the model's structure
    /// does not match the template (callers fall back to
    /// [`DiscretisedModel::build`]); plus the usual validation errors.
    pub fn build_with_template(
        model: &KibamRm,
        opts: &DiscretisationOptions,
        template: &DiscretisationTemplate,
    ) -> Result<Self, KibamRmError> {
        let spec = LatticeSpec::new(model, opts)?;
        if spec.fingerprint(model.workload().ctmc()) != template.fingerprint
            || spec.n_states() != template.stats.states
            || spec.n_workload != template.n_workload
            || spec.j1_levels != template.j1_levels
            || spec.j2_levels != template.j2_levels
        {
            return Err(KibamRmError::InvalidDiscretisation(
                "scenario structure does not match the sweep-group template".into(),
            ));
        }
        let mut values = vec![0.0; template.slots.len()];
        let mut emitted = 0usize;
        let mut mismatch = None;
        let pattern = template.chain.rates();
        spec.emit_all(&mut |from, to, rate| {
            match template.slots.get(emitted) {
                // The fingerprint is a 64-bit hash, not a proof: verify
                // every emitted cell really owns its recorded slot, so a
                // collision errors out instead of silently scattering
                // rates into the wrong cells.
                Some(&slot) if pattern.value_index(from, to) == Some(slot as usize) => {
                    values[slot as usize] = rate;
                }
                _ => {
                    if mismatch.is_none() {
                        mismatch = Some((from, to));
                    }
                }
            }
            emitted += 1;
        });
        if let Some((from, to)) = mismatch {
            return Err(KibamRmError::InvalidDiscretisation(format!(
                "template refill: emitted transition ({from}, {to}) does not \
                 match the template's pattern (fingerprint collision)"
            )));
        }
        if emitted != template.slots.len() {
            return Err(KibamRmError::InvalidDiscretisation(format!(
                "template refill: {emitted} emitted transitions for a template \
                 of {} slots",
                template.slots.len()
            )));
        }
        let chain = template
            .chain
            .with_rate_values(values)
            .map_err(KibamRmError::Markov)?;
        Ok(DiscretisedModel::assemble(
            chain,
            template.stats,
            &spec,
            model,
            opts,
        ))
    }

    /// The derived CTMC.
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// Size statistics (paper §5.3/§6.1).
    pub fn stats(&self) -> CtmcStats {
        self.stats
    }

    /// Number of `j₁` levels (`cC/Δ + 1`).
    pub fn j1_levels(&self) -> usize {
        self.j1_levels
    }

    /// Number of `j₂` levels (`(1−c)C/Δ + 1`; 1 when `c = 1`).
    pub fn j2_levels(&self) -> usize {
        self.j2_levels
    }

    /// The initial distribution over the derived chain.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// The 0/1 measure vector selecting the battery-empty states.
    pub fn empty_measure(&self) -> &[f64] {
        &self.empty_measure
    }

    /// `Pr[battery empty at t]` for every requested time, sharing one
    /// sweep of matrix–vector products (plus the iteration count, the
    /// paper's §6.1 cost metric).
    ///
    /// # Errors
    ///
    /// Propagates uniformisation errors (bad times, Fox–Glynn failure).
    pub fn empty_probability_curve(&self, times: &[Time]) -> Result<CurveSolution, KibamRmError> {
        let secs: Vec<f64> = times.iter().map(|t| t.as_seconds()).collect();
        Ok(measure_curve(
            &self.chain,
            &self.alpha,
            &secs,
            &self.empty_measure,
            &self.transient,
        )?)
    }

    /// [`DiscretisedModel::empty_probability_curve`] with an explicit
    /// cross-solve cache — bit-identical results, but structurally
    /// identical solves in a sweep-plan group share the worker pool, the
    /// Fox–Glynn workspace and (for rate-rescaled families) the whole
    /// uniformisation sweep. See [`markov::transient::CurveCache`].
    ///
    /// # Errors
    ///
    /// Propagates uniformisation errors (bad times, Fox–Glynn failure).
    pub fn empty_probability_curve_cached(
        &self,
        times: &[Time],
        cache: &mut markov::transient::CurveCache,
    ) -> Result<CurveSolution, KibamRmError> {
        self.empty_probability_curve_budgeted(times, cache, &markov::Budget::unlimited())
    }

    /// [`DiscretisedModel::empty_probability_curve_cached`] under a
    /// cooperative [`markov::Budget`], checked once per uniformisation
    /// iteration. An exhausted budget aborts the sweep with
    /// [`KibamRmError::DeadlineExceeded`], leaving `cache` in the same
    /// consistent state a shorter solve would have — re-running the same
    /// solve to completion is bit-identical to never having cancelled.
    ///
    /// # Errors
    ///
    /// As for [`DiscretisedModel::empty_probability_curve_cached`], plus
    /// [`KibamRmError::DeadlineExceeded`] on budget exhaustion.
    pub fn empty_probability_curve_budgeted(
        &self,
        times: &[Time],
        cache: &mut markov::transient::CurveCache,
        budget: &markov::Budget,
    ) -> Result<CurveSolution, KibamRmError> {
        let secs: Vec<f64> = times.iter().map(|t| t.as_seconds()).collect();
        Ok(markov::transient::measure_curve_budgeted(
            &self.chain,
            &self.alpha,
            &secs,
            &self.empty_measure,
            &self.transient,
            cache,
            budget,
        )?)
    }

    /// `Pr[battery empty at t]` for one time point.
    ///
    /// # Errors
    ///
    /// Propagates uniformisation errors.
    pub fn empty_probability_at(&self, t: Time) -> Result<f64, KibamRmError> {
        Ok(self.empty_probability_curve(&[t])?.points[0].1)
    }

    /// The expected well contents `(E[Y₁(t)], E[Y₂(t)])` over a time
    /// grid, read off the derived chain with the level-valued measures
    /// `j_d·Δ`. Shares one matrix–vector sweep for both wells and all
    /// time points.
    ///
    /// # Errors
    ///
    /// Propagates uniformisation errors.
    pub fn expected_charge_curves(
        &self,
        times: &[Time],
    ) -> Result<Vec<(Time, Charge, Charge)>, KibamRmError> {
        let secs: Vec<f64> = times.iter().map(|t| t.as_seconds()).collect();
        let n = self.stats.states;
        let mut y1_measure = vec![0.0; n];
        let mut y2_measure = vec![0.0; n];
        for j1 in 0..self.j1_levels {
            for j2 in 0..self.j2_levels {
                for i in 0..self.n_workload {
                    let idx = (j1 * self.j2_levels + j2) * self.n_workload + i;
                    y1_measure[idx] = j1 as f64 * self.delta;
                    y2_measure[idx] = j2 as f64 * self.delta;
                }
            }
        }
        let c1 = measure_curve(
            &self.chain,
            &self.alpha,
            &secs,
            &y1_measure,
            &self.transient,
        )?;
        let c2 = measure_curve(
            &self.chain,
            &self.alpha,
            &secs,
            &y2_measure,
            &self.transient,
        )?;
        Ok(times
            .iter()
            .zip(c1.points.iter().zip(&c2.points))
            .map(|(&t, ((_, y1), (_, y2)))| {
                (t, Charge::from_coulombs(*y1), Charge::from_coulombs(*y2))
            })
            .collect())
    }

    /// Flat index of the derived state `(workload i, j₁, j₂)`.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidDiscretisation`] when any coordinate is out
    /// of range.
    pub fn state_index(&self, i: usize, j1: usize, j2: usize) -> Result<usize, KibamRmError> {
        if i >= self.n_workload || j1 >= self.j1_levels || j2 >= self.j2_levels {
            return Err(KibamRmError::InvalidDiscretisation(format!(
                "state ({i}, {j1}, {j2}) out of range ({}, {}, {})",
                self.n_workload, self.j1_levels, self.j2_levels
            )));
        }
        Ok((j1 * self.j2_levels + j2) * self.n_workload + i)
    }
}

/// The level count `u/Δ + 1` of a well holding `u` when `Δ` splits it
/// into whole quanta, at least one; a zero well (c = 1) is the single
/// level j = 0. `None` when `Δ` does not divide the well. The lattice
/// builder and the default-Δ search share this one test.
pub(crate) fn whole_levels(u: f64, delta: f64) -> Option<usize> {
    if u == 0.0 {
        return Some(1);
    }
    let levels = u / delta;
    let rounded = levels.round();
    ((levels - rounded).abs() <= 1e-6 * levels.max(1.0) && rounded >= 1.0)
        .then_some(rounded as usize + 1)
}

fn level_count(u: f64, delta: f64, what: &str) -> Result<usize, KibamRmError> {
    whole_levels(u, delta).ok_or_else(|| {
        KibamRmError::InvalidDiscretisation(format!(
            "Δ = {delta} does not evenly divide the {what} = {u} \
             (u/Δ = {}); choose Δ so that both wells split into whole quanta",
            u / delta
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use units::{Current, Frequency, Rate};

    /// The paper's Fig. 7 configuration: on/off, c = 1, C = 7200 As.
    fn on_off_linear(delta: f64) -> DiscretisedModel {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let m = KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            1.0,
            Rate::per_second(0.0),
        )
        .unwrap();
        DiscretisedModel::build(
            &m,
            &DiscretisationOptions::with_delta(Charge::from_amp_seconds(delta)),
        )
        .unwrap()
    }

    /// The paper's Fig. 8 configuration: c = 0.625, k = 4.5e-5.
    fn on_off_two_well(delta: f64) -> DiscretisedModel {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let m = KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        DiscretisedModel::build(
            &m,
            &DiscretisationOptions::with_delta(Charge::from_amp_seconds(delta)),
        )
        .unwrap()
    }

    #[test]
    fn paper_state_count_2882() {
        // §6.1: "the CTMC for ∆ = 5 has 2882 states".
        let d = on_off_linear(5.0);
        assert_eq!(d.stats().states, 2882);
        assert_eq!(d.j1_levels(), 1441);
        assert_eq!(d.j2_levels(), 1);
    }

    #[test]
    fn two_well_state_count() {
        // c = 0.625: u1 = 4500, u2 = 2700; Δ = 100 → 46 × 28 levels.
        let d = on_off_two_well(100.0);
        assert_eq!(d.j1_levels(), 46);
        assert_eq!(d.j2_levels(), 28);
        assert_eq!(d.stats().states, 2 * 46 * 28);
        // Δ = 5 would give 901 × 541 × 2 = 974 882 states and ≈ 3.2·10⁶
        // non-zeros (checked in the bench harness, too slow for a unit
        // test build).
    }

    #[test]
    fn bandwidth_metadata_reflects_the_lattice_stencil() {
        // Two-well on/off at Δ = 300: j2_levels = 10, 2 workload states.
        // Offsets: workload hop ±1, consumption −(10·2), recovery +(9·2).
        let d = on_off_two_well(300.0);
        assert_eq!(d.stats().band_offsets, 4);
        assert_eq!(d.stats().bandwidth, 20);
        // Linear chain: no recovery, consumption hops one j1 level
        // (j2_levels = 1, so offset −2); workload hop ±1.
        let lin = on_off_linear(300.0);
        assert_eq!(lin.stats().band_offsets, 3);
        assert_eq!(lin.stats().bandwidth, 2);
        // The stencil is Δ-independent even though the state count grows.
        let fine = on_off_two_well(100.0);
        assert_eq!(fine.stats().band_offsets, 4);
        assert_eq!(fine.stats().bandwidth, 2 * fine.j2_levels());
    }

    #[test]
    fn template_refill_is_bit_identical_to_a_direct_build() {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let model = |current_scale: f64, k: f64| {
            let w2 = Workload::new(
                w.ctmc().clone(),
                w.currents()
                    .iter()
                    .map(|c| Current::from_amps(c.as_amps() * current_scale))
                    .collect(),
                w.initial().to_vec(),
            )
            .unwrap();
            KibamRm::new(
                w2,
                Charge::from_amp_seconds(7200.0),
                0.625,
                Rate::per_second(k),
            )
            .unwrap()
        };
        let opts = DiscretisationOptions::with_delta(Charge::from_amp_seconds(300.0));
        let base = model(1.0, 4.5e-5);
        let built = DiscretisedModel::build(&base, &opts).unwrap();
        let template = built.template(&base, &opts).unwrap();
        assert_eq!(
            template.fingerprint(),
            structural_fingerprint(&base, &opts).unwrap()
        );

        // Same structure, different values (scaled currents and k): the
        // refilled chain equals the direct build bit for bit.
        for (scale, k) in [(1.0, 4.5e-5), (0.5, 4.5e-5), (2.0, 9e-5)] {
            let member = model(scale, k);
            let direct = DiscretisedModel::build(&member, &opts).unwrap();
            let refilled =
                DiscretisedModel::build_with_template(&member, &opts, &template).unwrap();
            assert_eq!(
                refilled.chain().rates(),
                direct.chain().rates(),
                "{scale}/{k}"
            );
            assert_eq!(refilled.alpha(), direct.alpha());
            assert_eq!(refilled.empty_measure(), direct.empty_measure());
            assert_eq!(refilled.stats(), direct.stats());
            assert!(refilled
                .chain()
                .rates()
                .same_pattern(template.chain.rates()));
        }

        // Structural mismatches are rejected (callers fall back to a
        // fresh build): a different Δ changes the lattice dimensions…
        let finer = DiscretisationOptions::with_delta(Charge::from_amp_seconds(100.0));
        assert!(DiscretisedModel::build_with_template(&base, &finer, &template).is_err());
        // …k = 0 removes the transfer band…
        let no_transfer = model(1.0, 0.0);
        assert!(DiscretisedModel::build_with_template(&no_transfer, &opts, &template).is_err());
        // …and a zeroed current removes its consumption band.
        let idle = model(0.0, 4.5e-5);
        assert!(DiscretisedModel::build_with_template(&idle, &opts, &template).is_err());
        // The fingerprints say so up front.
        assert_ne!(
            structural_fingerprint(&base, &opts).unwrap(),
            structural_fingerprint(&no_transfer, &opts).unwrap()
        );
        assert_ne!(
            structural_fingerprint(&base, &opts).unwrap(),
            structural_fingerprint(&base, &finer).unwrap()
        );
        // Value-only variation keeps the fingerprint.
        assert_eq!(
            structural_fingerprint(&base, &opts).unwrap(),
            structural_fingerprint(&model(2.0, 9e-5), &opts).unwrap()
        );
    }

    #[test]
    fn delta_must_divide_wells() {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let m = KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        // Δ = 7 divides neither 4500 nor 2700.
        let err = DiscretisedModel::build(
            &m,
            &DiscretisationOptions::with_delta(Charge::from_amp_seconds(7.0)),
        );
        assert!(matches!(err, Err(KibamRmError::InvalidDiscretisation(_))));
        let err = DiscretisedModel::build(&m, &DiscretisationOptions::with_delta(Charge::ZERO));
        assert!(matches!(err, Err(KibamRmError::InvalidDiscretisation(_))));
    }

    #[test]
    fn empty_states_are_absorbing() {
        let d = on_off_two_well(300.0);
        for j2 in 0..d.j2_levels() {
            for i in 0..2 {
                let s = d.state_index(i, 0, j2).unwrap();
                assert!(d.chain().is_absorbing(s), "state ({i}, 0, {j2})");
            }
        }
        // Non-empty states are not absorbing.
        let s = d.state_index(0, 1, 0).unwrap();
        assert!(!d.chain().is_absorbing(s));
    }

    #[test]
    fn transition_rates_match_paper_formulas() {
        let d = on_off_two_well(300.0);
        // u1 = 4500 → 15 quanta; u2 = 2700 → 9 quanta.
        assert_eq!(d.j1_levels(), 16);
        assert_eq!(d.j2_levels(), 10);
        let rates = d.chain().rates();
        // Consumption from the on-state: I/Δ = 0.96/300.
        let from = d.state_index(0, 10, 5).unwrap();
        let to = d.state_index(0, 9, 5).unwrap();
        assert!((rates.get(from, to) - 0.96 / 300.0).abs() < 1e-15);
        // No consumption from the off-state (current 0).
        let from_off = d.state_index(1, 10, 5).unwrap();
        let to_off = d.state_index(1, 9, 5).unwrap();
        assert_eq!(rates.get(from_off, to_off), 0.0);
        // Workload rate λ = 2 between on and off at equal levels.
        assert_eq!(rates.get(from, d.state_index(1, 10, 5).unwrap()), 2.0);
        // Transfer: k(j2/(1−c) − j1/c) when positive.
        let (j1, j2) = (3usize, 5usize);
        let expect = 4.5e-5 * (j2 as f64 / 0.375 - j1 as f64 / 0.625);
        let from = d.state_index(0, j1, j2).unwrap();
        let to = d.state_index(0, j1 + 1, j2 - 1).unwrap();
        assert!((rates.get(from, to) - expect).abs() < 1e-15);
        // No transfer when h1 > h2: j1 = 10, j2 = 2 → negative rate.
        let from = d.state_index(0, 10, 2).unwrap();
        let to = d.state_index(0, 11, 1).unwrap();
        assert_eq!(rates.get(from, to), 0.0);
    }

    #[test]
    fn initial_mass_on_full_battery() {
        let d = on_off_two_well(300.0);
        let top = d.state_index(0, 15, 9).unwrap();
        assert_eq!(d.alpha()[top], 1.0);
        assert!((d.alpha().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_probability_monotone_and_bounded() {
        let d = on_off_linear(300.0);
        let times: Vec<Time> = (0..=10)
            .map(|i| Time::from_seconds(i as f64 * 2000.0))
            .collect();
        let curve = d.empty_probability_curve(&times).unwrap();
        let mut prev = -1e-12;
        for (t, p) in &curve.points {
            assert!((0.0..=1.0 + 1e-9).contains(p), "t = {t}: p = {p}");
            assert!(*p >= prev - 1e-9, "not monotone at t = {t}");
            prev = *p;
        }
        // At t = 0 the battery is full; far beyond the deterministic
        // lifetime (15000 s) it is almost surely empty. Δ = 300 gives a
        // heavily smeared phase-type CDF (only 24 levels), so the bound
        // is loose; the refinement tests tighten it at smaller Δ.
        assert!(curve.points[0].1 < 1e-9);
        assert!(
            curve.points[10].1 > 0.9,
            "p(20000) = {}",
            curve.points[10].1
        );
    }

    #[test]
    fn linear_case_mean_lifetime_anchor() {
        // Coarse Δ already puts the CDF's centre near 15000 s (§6.1).
        let d = on_off_linear(100.0);
        let p_below = d
            .empty_probability_at(Time::from_seconds(12_000.0))
            .unwrap();
        let p_above = d
            .empty_probability_at(Time::from_seconds(18_000.0))
            .unwrap();
        assert!(p_below < 0.5, "p(12000) = {p_below}");
        assert!(p_above > 0.5, "p(18000) = {p_above}");
    }

    #[test]
    fn state_index_bounds() {
        let d = on_off_linear(300.0);
        assert!(d.state_index(2, 0, 0).is_err());
        assert!(d.state_index(0, 99, 0).is_err());
        assert!(d.state_index(0, 0, 1).is_err());
        assert_eq!(d.empty_measure().len(), d.stats().states);
    }

    #[test]
    fn expected_charge_curves_track_mean_drain() {
        // On/off c = 1: mean current is 0.48 A, so E[Y1(t)] ≈ u1 − 0.48 t
        // well before depletion.
        let d = on_off_linear(100.0);
        let times: Vec<Time> = (0..=5)
            .map(|i| Time::from_seconds(i as f64 * 1000.0))
            .collect();
        let curves = d.expected_charge_curves(&times).unwrap();
        assert!((curves[0].1.as_coulombs() - 7200.0).abs() < 1e-9);
        assert_eq!(curves[0].2, Charge::ZERO);
        for (t, y1, _) in &curves {
            let expect = 7200.0 - 0.48 * t.as_seconds();
            // Δ-quantisation + randomness of the on/off phase allow a few
            // hundred As of slack.
            assert!(
                (y1.as_coulombs() - expect).abs() < 0.05 * 7200.0,
                "t = {t}: E[Y1] = {y1} vs {expect}"
            );
        }
        // Monotone decreasing.
        for w in curves.windows(2) {
            assert!(w[1].1 <= w[0].1 + Charge::from_coulombs(1e-9));
        }
    }

    #[test]
    fn expected_charge_curves_two_wells_conserve_early() {
        // Before any absorption, E[Y1 + Y2 + consumed] = C: check that
        // total expected charge decreases by roughly the mean drain.
        let d = on_off_two_well(300.0);
        let times = [Time::from_seconds(0.0), Time::from_seconds(2000.0)];
        let curves = d.expected_charge_curves(&times).unwrap();
        let total0 = curves[0].1 + curves[0].2;
        let total1 = curves[1].1 + curves[1].2;
        assert!((total0.as_coulombs() - 7200.0).abs() < 1e-9);
        let drained = total0 - total1;
        let expect = 0.48 * 2000.0;
        assert!(
            (drained.as_coulombs() - expect).abs() < 0.15 * expect,
            "drained {drained} vs {expect}"
        );
    }

    #[test]
    fn recovery_from_empty_extension() {
        // Paper §5.2: "the recovery transitions could easily be included".
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let m = KibamRm::new(
            w,
            Charge::from_amp_seconds(7200.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        let opts = DiscretisationOptions {
            recovery_from_empty: true,
            ..DiscretisationOptions::with_delta(Charge::from_amp_seconds(300.0))
        };
        let d = DiscretisedModel::build(&m, &opts).unwrap();
        // Empty states with bound charge left are *not* absorbing any more…
        let s = d.state_index(0, 0, 5).unwrap();
        assert!(!d.chain().is_absorbing(s));
        let rate = d.chain().rates().get(s, d.state_index(0, 1, 4).unwrap());
        assert!((rate - 4.5e-5 * (5.0 / 0.375)).abs() < 1e-15);
        // …but the fully drained corner still is.
        let corner = d.state_index(0, 0, 0).unwrap();
        assert!(d.chain().is_absorbing(corner));

        // With recovery allowed, "empty at t" sits below the absorbing
        // first-passage probability at late times.
        let absorbing = DiscretisedModel::build(
            &m,
            &DiscretisationOptions::with_delta(Charge::from_amp_seconds(300.0)),
        )
        .unwrap();
        let t = Time::from_seconds(16_000.0);
        let p_at = d.empty_probability_at(t).unwrap();
        let p_by = absorbing.empty_probability_at(t).unwrap();
        assert!(p_at <= p_by + 1e-12, "at {p_at} vs by {p_by}");
        assert!(
            p_at < p_by - 0.01,
            "recovery should visibly drain the empty states"
        );
    }

    #[test]
    fn c1_has_no_transfer_transitions() {
        let d = on_off_linear(100.0);
        // Every transition is workload or consumption: target j2 = 0.
        for (from, to, _) in d.chain().rates().iter() {
            let _ = from;
            assert!(to < d.stats().states);
        }
        assert_eq!(d.j2_levels(), 1);
    }
}
