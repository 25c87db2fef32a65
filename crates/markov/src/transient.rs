//! Transient analysis by uniformisation.
//!
//! The paper's algorithm (§5) reduces the battery-lifetime distribution to
//! transient state probabilities of a derived CTMC:
//! `π(t) = Σ_n ψ(n; νt) · α Pⁿ` with `P = I + Q/ν`. Every number the
//! system derives from `π(t)` is a linear functional of it, so one engine
//! serves them all: [`measure_curve`] computes a whole curve `t ↦ m·π(t)`
//! for a fixed measure `m` — the indicator of the battery-empty states, a
//! reward vector, or the unit vector `e_i` for the probability of state
//! `i`.
//!
//! The engine exploits that the iterates `v_n = α Pⁿ` do **not** depend
//! on `t`: one sweep of sparse matrix–vector products up to the largest
//! right truncation point yields the scalars `s_n = m·v_n`, and each time
//! point only needs its own Poisson mix of them. The same scalars mixed
//! with the tail weights `Pr{N(νt) > n}/ν` give the accumulated measure
//! `∫₀ᵗ m·π(s) ds` ([`crate::mrm::MarkovRewardModel::expected_accumulated_reward`]).
//! The sweep also detects stationarity of the iterate sequence (all
//! interesting chains here are absorbing) and stops multiplying once
//! `v_n` has converged.
//!
//! The sweep runs on the zero-respawn hot path: `Pᵀ` is emitted directly
//! from the generator — in **banded (DIA) form** when its diagonals are
//! densely populated, as **length-sorted rows** otherwise
//! ([`Ctmc::uniformised_transposed_auto`]) — the worker pool is spawned
//! once per [`CurveCache`], so once per plan group, and fed row blocks
//! ([`crate::pool::SpmvPool`], which dispatches on the matrix
//! representation), and Poisson windows for the individual time points
//! reuse one Fox–Glynn workspace ([`crate::foxglynn::FoxGlynnCache`]),
//! recomputed only when the time point actually changes (the requested
//! times are visited in sorted order, so duplicates are free).
//!
//! One loop computes every product: a fresh sweep, the extension of a
//! cached one, and the active-window sweep differ only in the row range
//! each product covers (see [`CurveCache`] and "The active window").
//!
//! # Products that only multiply
//!
//! A product computes `v_{n+1} = Pᵀ·v_n` and nothing else. The sweep
//! loop then takes, on the calling thread:
//!
//! * **the measure dot** `s_{n+1} = Σ m[i]·v_{n+1}[i]` over the measure's
//!   non-zero entries only, in state order. The battery-empty measure is
//!   non-zero on a few dozen of a chain's hundreds of rows. The skipped
//!   terms are `±0.0`: `v` is finite (`Pᵀ ≥ 0` and α is a checked
//!   distribution) and non-finite measures are rejected. Adding `±0.0`
//!   to the running sum, which starts at `+0.0` and so is never `−0.0`,
//!   changes no bit.
//! * **the steady-state test** `max_r |v_{n+1}[r] − v_n[r]| < tol`. A
//!   probe row whose change alone reaches `tol` proves the sup does too,
//!   so most products need no pass at all; otherwise the full max is
//!   taken and the probe moves to its argmax. The decision, and hence
//!   `converged_at` and the iteration count, is the one the full max
//!   gives every product.
//!
//! Every row is computed whole by one worker and the dot is summed once,
//! so a pooled sweep carries the single-thread bits at every worker count.
//!
//! # The swept rows
//!
//! The sorted-row and CSR engines sweep only the states reachable from
//! α's support ([`Ctmc::reachable_from`]). On the discretised battery
//! chain that drops the lattice points where the available well stands
//! above the bound well, 34–44 % of the states. `Pᵀ` is emitted on that
//! subset with the full chain's ν and self-loops
//! ([`Ctmc::uniformised_transposed_on`]), and the sorted-row form then
//! reorders the kept rows by length. One state map composes the two: swept
//! row `k` stands for full state `map[k]`. α is gathered through it and
//! the measure's terms are taken through it. [`CurveCache`] keeps the set
//! next to the cached sweep, so a plan group searches once.
//!
//! The iterates are product buffers of
//! [`MatrixRef::buffer_lens`](crate::banded::MatrixRef::buffer_lens)
//! slots. For sorted rows that is the row count rounded up to a power of
//! two, so the kernel's gathers need no bounds check
//! ([`crate::ell`]). The slots past the rows start at `+0.0` and stay
//! there: no product reads or writes them, the steady-state test covers
//! the rows only, and the stored iterate a cache extension continues
//! from keeps the padded length.
//!
//! The curves are bit-identical to a sweep of the full chain. `Pᵀ ≥ 0`
//! and α ≥ 0, so a dropped state's iterate entry is exactly `+0.0` from
//! the first product on, and each term the restricted sweep skips (in a
//! row accumulator, the measure dot or the sup-norm) is a signed zero
//! added to a value that is not `−0.0`. Reordering rows changes no row's
//! sum. Two details keep that exact: `m·α` at `n = 0` is taken over the
//! full vectors (a float `Sum` starts at `−0.0`), and non-finite measure
//! entries are rejected (in the full sweep `0·NaN` would poison every
//! value).
//!
//! DIA and the active window stay on the full lattice: a DIA diagonal is
//! a fixed index delta and the window a contiguous index interval, and
//! renumbering the kept states breaks both.
//!
//! # The active window
//!
//! On banded chains the sweep additionally tracks the contiguous
//! support interval of the iterate. `v_0 = α` is a point mass at the
//! full-charge state; each product can widen the support by at most the
//! extreme diagonal offsets ([`crate::banded::BandedMatrix::grow_window`]), and the
//! tiny probabilities at the window edges are trimmed with **explicit
//! deficit accounting**: the total trimmed mass is capped so that,
//! together with the Fox–Glynn truncation (which gets the other half of
//! the ε budget), the result stays within the requested tolerance.
//! Early iterations therefore touch `O(bandwidth · |support|)` entries
//! instead of all of them — for fine-`Δ` grids the overwhelming
//! majority of the state space is never visited. Both buffers are exactly
//! zero outside their windows, so the dot over the measure's terms and the
//! steady-state test over the window equal their full-space values.

use crate::banded::TransitionMatrix;
use crate::budget::Budget;
use crate::ctmc::Ctmc;
use crate::foxglynn::FoxGlynnCache;
use crate::pool::SpmvPool;
use crate::sparse::Subset;
use crate::MarkovError;
use std::ops::Range;

/// Which storage format the uniformisation sweep iterates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Representation {
    /// Probe the chain's structure and pick banded when its diagonals
    /// are densely populated, length-sorted rows otherwise (the default;
    /// see [`Ctmc::uniformised_transposed_auto`]).
    #[default]
    Auto,
    /// Force generic CSR (the pre-banded engine, kept as the reference
    /// and for benchmark baselines).
    Csr,
    /// Force banded storage even when the profitability heuristic says
    /// otherwise (benchmarks; dense/unstructured chains pay for it).
    Banded,
}

/// Options for the uniformisation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Total truncation error bound: covers the Poisson tails, and —
    /// when the active window is on — the trimmed window mass too (the
    /// budget is split evenly between the two sources).
    pub epsilon: f64,
    /// Uniformisation rate is `factor · max_i q_i`; must be ≥ 1. Values
    /// slightly above 1 keep self-loop probability on the fastest states,
    /// damping periodicity.
    pub uniformisation_factor: f64,
    /// Consecutive-iterate sup-norm threshold for steady-state detection;
    /// set to 0 to disable.
    pub steady_state_tolerance: f64,
    /// Worker threads for the sparse matrix–vector products. The workers
    /// are spawned once per [`CurveCache`] (persistent pool), not per
    /// product; `<= 1` keeps everything on the calling thread. The
    /// answer's bits do not depend on it.
    pub threads: usize,
    /// Storage format selection for the iteration matrix.
    pub representation: Representation,
    /// Restrict each product to the live support interval of the iterate
    /// (banded representation only; ignored for CSR). Costs half the ε
    /// budget, saves the untouched bulk of the state space.
    pub active_window: bool,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            epsilon: 1e-10,
            uniformisation_factor: 1.02,
            steady_state_tolerance: 1e-14,
            threads: 1,
            representation: Representation::Auto,
            active_window: true,
        }
    }
}

/// A computed curve `t ↦ m·π(t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSolution {
    /// `(t, value)` pairs in the caller's requested order.
    pub points: Vec<(f64, f64)>,
    /// Number of matrix–vector products performed (the paper's
    /// "iterations").
    pub iterations: usize,
    /// Iteration at which the iterate sequence was detected stationary,
    /// when steady-state detection fired.
    pub converged_at: Option<usize>,
    /// The uniformisation rate ν.
    pub nu: f64,
    /// Matrix slots touched across all products (the work metric the
    /// active window shrinks).
    pub touched_entries: u64,
    /// Probability mass trimmed at the window edges (0 without the
    /// active window); bounded so the curve error stays within ε.
    pub window_deficit: f64,
}

/// Builds the iteration matrix `Pᵀ` in the representation the options
/// ask for: sorted rows and CSR on the reachable states `reach`, DIA on
/// the full lattice (see [`state_map`]).
fn build_transposed(
    ctmc: &Ctmc,
    opts: &TransientOptions,
    reach: &Subset,
) -> Result<(TransitionMatrix, f64), MarkovError> {
    let keep = Some(reach).filter(|r| !r.is_full());
    match opts.representation {
        Representation::Auto => {
            ctmc.uniformised_transposed_auto_on(opts.uniformisation_factor, keep)
        }
        Representation::Csr => {
            let (pt, nu) = ctmc.uniformised_transposed_on(opts.uniformisation_factor, keep)?;
            Ok((TransitionMatrix::Csr(pt), nu))
        }
        Representation::Banded => {
            let (pt, nu) = ctmc.uniformised_transposed_banded(opts.uniformisation_factor)?;
            Ok((TransitionMatrix::Banded(pt), nu))
        }
    }
}

/// Where the swept rows of `pt` live in the full chain: swept row `k` is
/// state `map[k]`, the reachable set `reach` composed with the sorted
/// rows' order. `None` when row `k` is state `k`: `pt` is banded (DIA
/// diagonals and the active window are laid out on the full state
/// index), or CSR on a chain the start reaches everywhere.
fn state_map(reach: &Subset, pt: &TransitionMatrix) -> Option<Vec<u32>> {
    let kept = Some(reach).filter(|r| !r.is_full() && pt.as_banded().is_none());
    let full = |k: u32| kept.map_or(k, |r| r.indices()[k as usize]);
    match pt.as_ell() {
        Some(ell) => Some(ell.order().iter().map(|&k| full(k)).collect()),
        None => kept.map(|r| r.indices().to_vec()),
    }
}

/// `full` on the swept rows, in a product buffer of `len` slots whose
/// slots past the rows hold `+0.0` (see [`MatrixRef::buffer_lens`]).
///
/// [`MatrixRef::buffer_lens`]: crate::banded::MatrixRef::buffer_lens
fn gather(map: Option<&[u32]>, full: &[f64], len: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(len);
    match map {
        Some(map) => v.extend(map.iter().map(|&i| full[i as usize])),
        None => v.extend_from_slice(full),
    }
    v.resize(len, 0.0);
    v
}

/// The measure's non-zero entries as `(swept row, value)`, in state
/// order: the only terms of `m·v` that are not exact zeros (see the
/// module docs). States that are not swept hold `+0.0` and drop out too.
fn measure_terms(map: Option<&[u32]>, measure: &[f64]) -> Vec<(u32, f64)> {
    let state = |k: u32| map.map_or(k, |map| map[k as usize]) as usize;
    let rows = map.map_or(measure.len(), <[u32]>::len) as u32;
    let mut terms: Vec<(u32, f64)> = (0..rows)
        .map(|k| (k, measure[state(k)]))
        .filter(|&(_, m)| m != 0.0)
        .collect();
    terms.sort_unstable_by_key(|&(k, _)| state(k));
    terms
}

/// `m·v` over the measure's terms, added in state order from `+0.0`,
/// exactly as a full dot adds them.
fn measure_dot(terms: &[(u32, f64)], v: &[f64]) -> f64 {
    terms
        .iter()
        .fold(0.0, |dot, &(k, m)| dot + m * v[k as usize])
}

/// The steady-state test `max_{r ∈ rows} |y[r] − x[r]| < tol` (never true
/// for `tol ≤ 0`, which disables it), with `x` and `y` zero outside
/// `rows`.
///
/// `probe` is a row whose change alone may rule convergence out: when
/// `|y[probe] − x[probe]| ≥ tol` the max reaches `tol` too, so no pass is
/// needed. Otherwise the max is taken in full and `probe` moves to its
/// argmax, the row most likely to rule the next product out. The max
/// skips NaN differences exactly as `f64::max` does, so the answer is the
/// full max's every time.
fn is_steady(x: &[f64], y: &[f64], rows: Range<usize>, tol: f64, probe: &mut usize) -> bool {
    if tol <= 0.0 || (y[*probe] - x[*probe]).abs() >= tol {
        return false;
    }
    let mut sup = 0.0;
    for (r, (a, b)) in rows.clone().zip(x[rows.clone()].iter().zip(&y[rows])) {
        let d = (b - a).abs();
        if d > sup {
            sup = d;
            *probe = r;
        }
    }
    sup < tol
}

/// How the ε budget is split: the Fox–Glynn share and the total mass the
/// window trimming may discard. Without an active window the Poisson
/// tails keep the whole budget, exactly as before.
fn split_epsilon(epsilon: f64, windowed: bool) -> (f64, f64) {
    if windowed {
        (epsilon / 2.0, epsilon / 2.0)
    } else {
        (epsilon, 0.0)
    }
}

/// Computes the curve `t ↦ Σ_i measure[i]·π_i(t)` over all `times` with a
/// single sweep of matrix–vector products.
///
/// `measure` is any linear functional on the state space: the indicator of
/// the battery-empty states yields `Pr[battery empty at t]`, a reward
/// vector yields expected instantaneous reward, etc.
///
/// The requested times may be unsorted and may repeat; they are visited
/// in sorted order internally (one Fox–Glynn window per **distinct**
/// time, duplicates reuse the previous mix) and reported back in the
/// caller's order.
///
/// # Errors
///
/// [`MarkovError::InvalidDistribution`] for a bad `alpha`;
/// [`MarkovError::InvalidArgument`] for an empty/mismatched `measure`, a
/// non-finite `measure` entry, or negative times.
pub fn measure_curve(
    ctmc: &Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
    opts: &TransientOptions,
) -> Result<CurveSolution, MarkovError> {
    measure_curve_cached(ctmc, alpha, times, measure, opts, &mut CurveCache::new())
}

/// Cross-solve cache for [`measure_curve_cached`]: what a sweep-plan
/// group shares between structurally identical solves.
///
/// Two layers, reused under progressively stronger conditions:
///
/// 1. **Workspaces** — the Fox–Glynn buffers and the SpMV worker pool
///    survive across solves whenever the thread budget matches (always
///    true within a plan group), so a group spawns its workers once, not
///    once per member.
/// 2. **The iterate scalars** `s_n = m·(αPⁿ)` — the expensive part, and
///    reused only when bitwise identity with an independent solve is
///    provable: the member's `Pᵀ` must equal the cached one bit for bit
///    (true across rate-rescaled scenario families, `Q' = γQ` with `γ` a
///    power of two, since `P = I + Q/ν` is then unchanged), `α`, the
///    measure, the reachable set and the [`TransientOptions`] must
///    match, and either the
///    active window is off (the iterates never depend on the horizon) or
///    ν and the largest time agree too (the window's per-iteration trim
///    allowance is horizon-dependent). A member needing a larger Poisson
///    right point **extends** the cached sweep from the stored last
///    iterate instead of restarting it, so a whole rescale family costs
///    one sweep to the family's largest `ν·t` plus a Poisson remix per
///    member.
///
/// Every member emits its own `Pᵀ`; on a banded chain the structure
/// probe finds the same offsets for every member of a pattern, so the
/// bitwise comparison of layer 2 still holds across the group. Every
/// member also searches its own reachable set: the search costs what a
/// hash of the pattern would, and the reuse test compares the sets
/// exactly.
///
/// Reused members report only the matrix products *this call* performed
/// in `iterations`/`touched_entries` (zero for a pure remix) and inherit
/// the group sweep's `window_deficit`.
#[derive(Debug, Default)]
pub struct CurveCache {
    state: Option<CacheState>,
    fg: FoxGlynnCache,
    pool: Option<SpmvPool>,
    last_shared: bool,
}

/// The cached sweep itself (everything keyed by the reuse conditions).
#[derive(Debug)]
struct CacheState {
    opts: TransientOptions,
    pt: TransitionMatrix,
    nu: f64,
    t_max: f64,
    alpha: Vec<f64>,
    measure: Vec<f64>,
    /// The states reachable from `alpha`: the rows `pt` keeps.
    reach: Subset,
    /// The measure's terms on the swept rows ([`measure_terms`]).
    terms: Vec<(u32, f64)>,
    /// `s[n] = measure · (alpha Pⁿ)` for `n = 0..=iterations`.
    s: Vec<f64>,
    /// The iterate `alpha P^{iterations}` on the swept rows, kept so a
    /// later member with a larger right truncation point can continue
    /// the sweep. It is a product buffer ([`gather`]): the slots past
    /// the rows stay `+0.0`.
    v: Vec<f64>,
    converged_at: Option<usize>,
    window_deficit: f64,
}

impl CurveCache {
    /// An empty cache; everything is built on the first solve.
    pub fn new() -> Self {
        CurveCache::default()
    }

    /// Whether the last [`measure_curve_cached`] call reused the cached
    /// iterate scalars (possibly extending them) instead of running its
    /// own sweep from scratch — the sweep planner's fast-path telemetry.
    pub fn last_solve_shared(&self) -> bool {
        self.last_shared
    }
}

// A `CurveCache` moves between request threads when it is held as
// resident warm state (`kibamrm::service`); everything inside — the
// cached sweep, the Fox–Glynn workspace, the SpMV pool's channel
// endpoints and join handles — is `Send`, and this assertion keeps it
// that way.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<CurveCache>();
};

/// [`measure_curve`] with an explicit cross-solve [`CurveCache`] — the
/// engine entry point of the sweep planner. Results are **bit-identical**
/// to [`measure_curve`] on the same inputs: the cache only short-circuits
/// work whose outcome is provably the same bits (see [`CurveCache`]).
///
/// # Errors
///
/// As for [`measure_curve`].
pub fn measure_curve_cached(
    ctmc: &Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
    opts: &TransientOptions,
    cache: &mut CurveCache,
) -> Result<CurveSolution, MarkovError> {
    measure_curve_budgeted(
        ctmc,
        alpha,
        times,
        measure,
        opts,
        cache,
        &Budget::unlimited(),
    )
}

/// [`measure_curve_cached`] under a cooperative [`Budget`], checked once
/// per matrix–vector product (fresh sweeps and cache extensions alike).
///
/// A budget-aborted sweep leaves the cache exactly as consistent as a
/// shorter completed solve would: a fresh sweep commits nothing, and an
/// extension keeps only fully computed iterates — so re-running the
/// same solve with an unlimited budget is **bit-identical** to never
/// having been cancelled. With [`Budget::unlimited`] the check is a
/// single branch and the solve is identical to
/// [`measure_curve_cached`].
///
/// # Errors
///
/// As for [`measure_curve`], plus [`MarkovError::DeadlineExceeded`]
/// (carrying the products performed this call) when the budget expires.
pub fn measure_curve_budgeted(
    ctmc: &Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
    opts: &TransientOptions,
    cache: &mut CurveCache,
    budget: &Budget,
) -> Result<CurveSolution, MarkovError> {
    check_inputs(ctmc, alpha, times, measure)?;
    let t_max = times.iter().cloned().fold(0.0, f64::max);
    let (nu, sweep) = sweep_scalars(ctmc, alpha, t_max, measure, opts, cache, budget)?;
    let Some(sweep) = sweep else {
        let value = dot(alpha, measure);
        return Ok(CurveSolution {
            points: times.iter().map(|&t| (t, value)).collect(),
            iterations: 0,
            converged_at: None,
            nu,
            touched_entries: 0,
            window_deficit: 0.0,
        });
    };
    let state = cache.state.as_ref().expect("sweep just ran or was reused");
    let points = remix_curve(times, nu, &state.s, &mut cache.fg, sweep.fg_epsilon)?;
    Ok(CurveSolution {
        points,
        iterations: sweep.iterations,
        converged_at: state.converged_at,
        nu,
        touched_entries: sweep.touched,
        window_deficit: state.window_deficit,
    })
}

/// The accumulated measure `∫₀ᵗ m·π(s) ds` from the curve sweep's
/// scalars: `Σ_n s_n · Pr{N(νt) > n}/ν`, since
/// `∫₀ᵗ ψ(n; νs) ds = Pr{N(νt) > n}/ν`. For a reward vector this is the
/// expected accumulated reward; for a battery, the expected charge drawn
/// by `t`.
///
/// The active window stays off: the tail weights sum to `t`, so mass
/// trimmed off the iterates would enter the answer up to `t` times over
/// and the window's ε/2 share would no longer bound it. The Poisson tails
/// keep the whole ε.
pub(crate) fn accumulated_measure(
    ctmc: &Ctmc,
    alpha: &[f64],
    t: f64,
    measure: &[f64],
    epsilon: f64,
) -> Result<f64, MarkovError> {
    check_inputs(ctmc, alpha, &[t], measure)?;
    let opts = TransientOptions {
        epsilon,
        active_window: false,
        ..TransientOptions::default()
    };
    let mut cache = CurveCache::new();
    let (nu, sweep) = sweep_scalars(
        ctmc,
        alpha,
        t,
        measure,
        &opts,
        &mut cache,
        &Budget::unlimited(),
    )?;
    if sweep.is_none() {
        // No transitions (ν = 0) or no time: Y(t) = (m·α)·t.
        return Ok(dot(alpha, measure) * t);
    }
    let s = &cache.state.as_ref().expect("sweep just ran").s;
    let s_last = *s.last().expect("at least one cached value");
    // The sweep left the Fox–Glynn workspace on the window of ν·t.
    let fg = &cache.fg;
    let mut cdf = 0.0;
    let mut acc = 0.0;
    for n in 0..=fg.right() {
        cdf += fg.weight(n);
        acc += s.get(n).copied().unwrap_or(s_last) * (1.0 - cdf);
    }
    Ok(acc / nu)
}

/// Checks a solve's inputs: `alpha` is a distribution on the chain,
/// `measure` holds one finite value per state, and `times` holds at least
/// one time, each finite and ≥ 0.
fn check_inputs(
    ctmc: &Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
) -> Result<(), MarkovError> {
    ctmc.check_distribution(alpha)?;
    if measure.len() != ctmc.n_states() {
        return Err(MarkovError::InvalidArgument(format!(
            "measure has {} entries but chain has {} states",
            measure.len(),
            ctmc.n_states()
        )));
    }
    // A NaN or ∞ would poison every curve value through 0·NaN in the
    // full sweep, but not in the swept rows or the measure's terms:
    // reject it outright.
    if measure.iter().any(|m| !m.is_finite()) {
        return Err(MarkovError::InvalidArgument(
            "measure entries must be finite".into(),
        ));
    }
    if times.is_empty() {
        return Err(MarkovError::InvalidArgument(
            "no time points requested".into(),
        ));
    }
    if times.iter().any(|&t| !t.is_finite() || t < 0.0) {
        return Err(MarkovError::InvalidArgument(
            "times must be finite and ≥ 0".into(),
        ));
    }
    Ok(())
}

/// What [`sweep_scalars`] did for one solve.
struct Sweep {
    /// The Fox–Glynn share of ε, for the Poisson mixes.
    fg_epsilon: f64,
    /// Matrix–vector products this call performed.
    iterations: usize,
    /// Matrix slots those products touched.
    touched: u64,
}

/// Makes `cache` hold the scalars `s_n = m·(αPⁿ)` of a validated solve
/// up to the Poisson right point of `ν·t_max` or the first stationary
/// iterate — reusing, extending or re-running its sweep (see
/// [`CurveCache`]) — and leaves `cache.fg` on the window of `ν·t_max`.
/// Returns ν and what the call did, or `None` when no product is needed
/// (`ν = 0` or `t_max = 0`: `π(t) = α` throughout).
fn sweep_scalars(
    ctmc: &Ctmc,
    alpha: &[f64],
    t_max: f64,
    measure: &[f64],
    opts: &TransientOptions,
    cache: &mut CurveCache,
    budget: &Budget,
) -> Result<(f64, Option<Sweep>), MarkovError> {
    cache.last_shared = false;

    // Pᵀ straight from the generator in the representation Auto picks
    // (banded or sorted rows) — never a P temporary, never a transpose
    // copy — on the states reachable from α.
    let reach = ctmc.reachable_from(alpha)?;
    let (pt, nu) = build_transposed(ctmc, opts, &reach)?;
    if nu == 0.0 || t_max == 0.0 {
        return Ok((nu, None));
    }
    let windowed = opts.active_window && pt.as_banded().is_some();
    // The trimmed window mass propagates into the curve through the
    // measure, so its budget is scaled by ‖measure‖_∞: total curve error
    // stays ≤ fg share + trim share ≤ ε even for reward-valued measures.
    let m_inf = measure.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let (fg_epsilon, trim_mass) = split_epsilon(opts.epsilon, windowed);
    // One Fox–Glynn workspace serves every window: sized once at
    // λ_max = ν·t_max (whose right point bounds all smaller windows),
    // then re-filled per distinct time point with no further allocation.
    cache.fg.compute(nu * t_max, fg_epsilon)?;
    let n_max = cache.fg.right();
    // The window trims at most its share of the budget, spread evenly
    // over the products.
    let allowance = windowed.then(|| trim_mass / m_inf.max(1.0) / (n_max as f64 + 1.0));

    // One pool per group: workers spawn on the first member — not once
    // per product, not once per member — and each owns a row block.
    let threads = effective_threads(opts.threads, pt.rows());
    if cache
        .pool
        .as_ref()
        .is_none_or(|p| p.threads() != SpmvPool::clamped_threads(threads))
    {
        cache.pool = Some(SpmvPool::new(threads));
    }
    let pool = cache.pool.as_ref().expect("pool just ensured");

    // Can the cached sweep stand in for this member's? Only when the
    // iterates are provably the same bits an independent solve would
    // produce: identical P (bitwise), α, measure and options — and, for
    // the active-window engine, identical ν and horizon too, because the
    // per-iteration trim allowance depends on the Poisson right point.
    let reusable = cache.state.as_ref().is_some_and(|st| {
        st.opts == *opts
            && st.pt == pt
            && st.alpha == alpha
            && st.measure == measure
            && st.reach == reach
            && (!windowed || (st.nu == nu && st.t_max == t_max))
    });

    let (iterations, touched) = if !reusable {
        // A fresh sweep: s_n = measure·v_n for n = 0..=n_max, or until
        // the iterates converge. s_0 is taken over the full vectors: a
        // float sum starts at −0.0, so without a dropped state's +0.0
        // product it could stay −0.0 where the full sum is +0.0, and
        // t = 0 reports s_0 as is.
        let map = state_map(&reach, &pt);
        let mut s = Vec::with_capacity(n_max + 1);
        s.push(dot(alpha, measure));
        let mut state = CacheState {
            opts: *opts,
            nu,
            t_max,
            alpha: alpha.to_vec(),
            measure: measure.to_vec(),
            reach,
            terms: measure_terms(map.as_deref(), measure),
            s,
            v: gather(map.as_deref(), alpha, pt.as_ref().buffer_lens().0),
            converged_at: None,
            window_deficit: 0.0,
            pt,
        };
        let work = run_products(&mut state, pool, n_max, allowance, budget)?;
        cache.state = Some(state);
        work
    } else {
        cache.last_shared = true;
        let state = cache.state.as_mut().expect("reusable implies cached");
        // Extend the cached sweep when this member's Poisson window
        // reaches past it (a windowed sweep is only reused at its own
        // horizon, so only the horizon-independent engines get here and
        // the continued iterates are exactly the ones an independent
        // solve would have computed at those n).
        if state.converged_at.is_none() && state.s.len() <= n_max {
            run_products(state, pool, n_max, allowance, budget)?
        } else {
            (0, 0)
        }
    };
    Ok((
        nu,
        Some(Sweep {
            fg_epsilon,
            iterations,
            touched,
        }),
    ))
}

/// The uniformisation product loop: continues `state`'s sweep from its
/// last iterate up to `n = n_max` or the first stationary iterate, one
/// product `v ← Pᵀ·v` per `n`, each followed by the measure dot and the
/// steady-state test. Returns the products performed and the slots they
/// touched. A budget abort leaves `state` holding only completed
/// products.
///
/// Each product covers a tracked row range outside which both buffers
/// are exactly zero:
///
/// * without a trim `allowance`, every row: each product touches
///   `entries_per_product()` slots, and pooled runs keep the matrix's nnz
///   partition;
/// * with one (banded `Pᵀ` only), the active window: grown by the extreme
///   diagonal offsets before each product, split evenly across the
///   workers, and trimmed at its edges within `allowance` after it.
fn run_products(
    state: &mut CacheState,
    pool: &SpmvPool,
    n_max: usize,
    allowance: Option<f64>,
    budget: &Budget,
) -> Result<(usize, u64), MarkovError> {
    let pt = &state.pt;
    let band = allowance.map(|_| pt.as_banded().expect("windowed sweeps are banded"));
    let partition = pt.as_ref().partition(pool.threads());
    let per_product = pt.entries_per_product() as u64;
    let tol = state.opts.steady_state_tolerance;
    let v = &mut state.v;
    let mut next = vec![0.0; v.len()];
    let mut rows = match band {
        Some(_) => support_range(v),
        None => 0..pt.rows(),
    };
    let mut next_rows = 0..0;
    let mut probe = 0;
    let mut iterations = 0;
    let mut touched: u64 = 0;
    for n in state.s.len()..=n_max {
        budget.check(iterations)?;
        let grown = match band {
            Some(band) => {
                let grown = band.grow_window(&rows);
                zero_outside(&mut next, &next_rows, &grown);
                pool.mul_vec_window(band, v, &mut next, grown.clone())?;
                touched += band.entries_in(&grown) as u64;
                grown
            }
            None => {
                pool.mul_vec(pt, &partition, v, &mut next)?;
                touched += per_product;
                rows.clone()
            }
        };
        let steady = is_steady(v, &next, grown.clone(), tol, &mut probe);
        std::mem::swap(v, &mut next);
        next_rows = std::mem::replace(&mut rows, grown);
        iterations += 1;
        state.s.push(measure_dot(&state.terms, v));
        if steady {
            state.converged_at = Some(n);
            break;
        }
        if let Some(allowance) = allowance {
            state.window_deficit += trim_window(v, &mut rows, allowance);
        }
    }
    Ok((iterations, touched))
}

/// Mixes the cached iterate scalars `s[n] = m·(αPⁿ)` into curve values:
/// each time point gets its own Poisson window over the shared scalars.
/// Times are visited in sorted order so equal (duplicate) time points
/// share one window computation, and the result vector is filled back in
/// the caller's original order. Iterate indices past the end of `s`
/// reuse the last scalar (the sweep stopped there because the iterates
/// had converged).
fn remix_curve(
    times: &[f64],
    nu: f64,
    s: &[f64],
    fg: &mut FoxGlynnCache,
    fg_epsilon: f64,
) -> Result<Vec<(f64, f64)>, MarkovError> {
    let s_last = *s.last().expect("at least one cached value");
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("validated finite"));
    let mut points = vec![(0.0, 0.0); times.len()];
    let mut prev: Option<(f64, f64)> = None;
    for &idx in &order {
        let t = times[idx];
        let value = match prev {
            Some((pt_t, pt_v)) if pt_t == t => pt_v,
            _ => {
                if t == 0.0 {
                    s[0]
                } else {
                    fg.compute(nu * t, fg_epsilon)?;
                    let mut value = 0.0;
                    for (i, &wi) in fg.weights().iter().enumerate() {
                        let n = fg.left() + i;
                        value += wi * s.get(n).copied().unwrap_or(s_last);
                    }
                    value
                }
            }
        };
        points[idx] = (t, value);
        prev = Some((t, value));
    }
    Ok(points)
}

/// Caps the worker count at something useful for the matrix: tiny chains
/// never leave the calling thread (pool setup would dominate), below
/// [`crate::sparse::PARALLEL_SPMV_MIN_ROWS`] rows.
fn effective_threads(threads: usize, rows: usize) -> usize {
    if rows < crate::sparse::PARALLEL_SPMV_MIN_ROWS {
        1
    } else {
        threads
    }
}

/// The contiguous hull of the non-zero entries (`0..0` when all zero).
fn support_range(v: &[f64]) -> Range<usize> {
    let first = v.iter().position(|&x| x != 0.0);
    match first {
        None => 0..0,
        Some(lo) => {
            let hi = v.iter().rposition(|&x| x != 0.0).expect("some non-zero");
            lo..hi + 1
        }
    }
}

/// Zeros the part of `buf`'s stale window that the upcoming product will
/// not overwrite, maintaining the invariant that every buffer is exactly
/// zero outside its tracked window.
fn zero_outside(buf: &mut [f64], stale: &Range<usize>, keep: &Range<usize>) {
    let left = stale.start..stale.end.min(keep.start);
    if left.start < left.end {
        buf[left].fill(0.0);
    }
    let right = stale.start.max(keep.end)..stale.end;
    if right.start < right.end {
        buf[right].fill(0.0);
    }
}

/// Trims near-zero mass off both edges of the window, spending at most
/// `allowance` of (absolute) mass, zeroing what it removes. Returns the
/// mass actually trimmed — the caller's deficit accounting.
fn trim_window(v: &mut [f64], window: &mut Range<usize>, allowance: f64) -> f64 {
    if allowance <= 0.0 {
        return 0.0;
    }
    let mut spent = 0.0;
    while window.start < window.end {
        let x = v[window.start].abs();
        if spent + x > allowance {
            break;
        }
        spent += x;
        v[window.start] = 0.0;
        window.start += 1;
    }
    while window.end > window.start {
        let x = v[window.end - 1].abs();
        if spent + x > allowance {
            break;
        }
        spent += x;
        v[window.end - 1] = 0.0;
        window.end -= 1;
    }
    spent
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    /// Two-state chain with closed-form transient solution.
    fn two_state(a: f64, b: f64) -> Ctmc {
        let mut builder = CtmcBuilder::new(2);
        builder.rate(0, 1, a).unwrap();
        builder.rate(1, 0, b).unwrap();
        builder.build().unwrap()
    }

    fn closed_form_p00(a: f64, b: f64, t: f64) -> f64 {
        (b + a * (-(a + b) * t).exp()) / (a + b)
    }

    /// `π(t)` from the curve engine, one curve per unit measure `e_i`:
    /// the curve of `e_i` is `π_i(t)`. Also returns the `e_0` solve, for
    /// its counters.
    fn distribution(
        chain: &Ctmc,
        alpha: &[f64],
        t: f64,
        opts: &TransientOptions,
    ) -> (Vec<f64>, CurveSolution) {
        let n = chain.n_states();
        let solves: Vec<CurveSolution> = (0..n)
            .map(|i| measure_curve(chain, alpha, &[t], &point_mass(n, i), opts).unwrap())
            .collect();
        let pi = solves.iter().map(|c| c.points[0].1).collect();
        (pi, solves.into_iter().next().expect("a state"))
    }

    fn with_epsilon(epsilon: f64) -> TransientOptions {
        TransientOptions {
            epsilon,
            ..Default::default()
        }
    }

    #[test]
    fn matches_two_state_closed_form() {
        let (a, b) = (2.0, 3.0);
        let chain = two_state(a, b);
        for &t in &[0.0, 0.1, 0.5, 1.0, 5.0] {
            let (pi, _) = distribution(&chain, &[1.0, 0.0], t, &with_epsilon(1e-13));
            let expect = closed_form_p00(a, b, t);
            assert!(
                (pi[0] - expect).abs() < 1e-10,
                "t = {t}: {} vs {expect}",
                pi[0]
            );
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn matches_dense_matrix_exponential() {
        // 4-state random-ish generator vs e^{Qt}.
        let mut b = CtmcBuilder::new(4);
        let rates = [
            (0, 1, 1.2),
            (0, 3, 0.4),
            (1, 2, 2.3),
            (1, 0, 0.3),
            (2, 3, 1.7),
            (2, 1, 0.5),
            (3, 0, 0.9),
        ];
        for (f, t, r) in rates {
            b.rate(f, t, r).unwrap();
        }
        let chain = b.build().unwrap();
        let t = 0.8;
        let expm = chain.generator_dense().scale(t).expm().unwrap();
        let alpha = [0.25, 0.25, 0.25, 0.25];
        let (pi, _) = distribution(&chain, &alpha, t, &with_epsilon(1e-13));
        let expect = expm.vecmul(&alpha).unwrap();
        for i in 0..4 {
            assert!((pi[i] - expect[i]).abs() < 1e-9, "state {i}");
        }
    }

    #[test]
    fn absorbing_chain_accumulates_mass() {
        // 0 → 1 (absorbing) at rate 1: π₁(t) = 1 − e^{-t}.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        let chain = b.build().unwrap();
        for &t in &[0.5, 1.0, 3.0, 10.0] {
            let (pi, _) = distribution(&chain, &[1.0, 0.0], t, &with_epsilon(1e-13));
            assert!((pi[1] - (1.0 - (-t).exp())).abs() < 1e-10);
        }
    }

    #[test]
    fn all_absorbing_chain_is_constant() {
        let chain = CtmcBuilder::new(3).build().unwrap();
        let (pi, sol) = distribution(&chain, &[0.2, 0.3, 0.5], 7.0, &with_epsilon(1e-12));
        assert_eq!(pi, vec![0.2, 0.3, 0.5]);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.nu, 0.0);
        assert_eq!(sol.touched_entries, 0);
    }

    #[test]
    fn zero_time_returns_alpha() {
        let chain = two_state(1.0, 1.0);
        let (pi, _) = distribution(&chain, &[0.4, 0.6], 0.0, &with_epsilon(1e-12));
        assert_eq!(pi, vec![0.4, 0.6]);
    }

    #[test]
    fn input_validation() {
        let chain = two_state(1.0, 1.0);
        let opts = with_epsilon(1e-12);
        let e0 = [1.0, 0.0];
        assert!(measure_curve(&chain, &[0.4, 0.4], &[1.0], &e0, &opts).is_err());
        assert!(measure_curve(&chain, &[1.0, 0.0], &[-1.0], &e0, &opts).is_err());
        assert!(measure_curve(&chain, &[1.0, 0.0], &[f64::NAN], &e0, &opts).is_err());
    }

    #[test]
    fn curve_matches_pointwise_solutions() {
        let chain = two_state(2.0, 3.0);
        let times = [0.0, 0.2, 0.5, 1.3, 4.0];
        let measure = [1.0, 0.0]; // Pr[in state 0]
        let curve = measure_curve(
            &chain,
            &[1.0, 0.0],
            &times,
            &measure,
            &TransientOptions::default(),
        )
        .unwrap();
        for (t, value) in &curve.points {
            let expect = closed_form_p00(2.0, 3.0, *t);
            assert!(
                (value - expect).abs() < 1e-9,
                "t = {t}: {value} vs {expect}"
            );
        }
    }

    #[test]
    fn curve_validation_errors() {
        let chain = two_state(1.0, 1.0);
        let opts = TransientOptions::default();
        assert!(measure_curve(&chain, &[1.0, 0.0], &[], &[1.0, 0.0], &opts).is_err());
        assert!(measure_curve(&chain, &[1.0, 0.0], &[1.0], &[1.0], &opts).is_err());
        assert!(measure_curve(&chain, &[1.0, 0.0], &[-1.0], &[1.0, 0.0], &opts).is_err());
        assert!(measure_curve(&chain, &[0.9, 0.0], &[1.0], &[1.0, 0.0], &opts).is_err());
    }

    #[test]
    fn steady_state_detection_saves_iterations() {
        // Strongly absorbing chain: everything is absorbed long before
        // t = 1000, so the sweep should stop early.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 5.0).unwrap();
        let chain = b.build().unwrap();
        let opts = TransientOptions {
            steady_state_tolerance: 1e-13,
            ..Default::default()
        };
        let curve = measure_curve(&chain, &[1.0, 0.0], &[1000.0], &[0.0, 1.0], &opts).unwrap();
        assert!(curve.converged_at.is_some());
        // νt ≈ 5100, but convergence must kick in within a few dozen steps.
        assert!(curve.iterations < 200, "iterations = {}", curve.iterations);
        assert!((curve.points[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn curve_handles_unsorted_times() {
        let chain = two_state(2.0, 3.0);
        let times = [1.0, 0.1, 0.5];
        let curve = measure_curve(
            &chain,
            &[1.0, 0.0],
            &times,
            &[1.0, 0.0],
            &TransientOptions::default(),
        )
        .unwrap();
        assert_eq!(curve.points.len(), 3);
        for (i, (t, v)) in curve.points.iter().enumerate() {
            assert_eq!(*t, times[i]);
            assert!((v - closed_form_p00(2.0, 3.0, *t)).abs() < 1e-9);
        }
    }

    #[test]
    fn curve_handles_duplicate_times_without_recomputing() {
        // Duplicates (and a duplicated zero) are served from the
        // previous mix; the values must match the de-duplicated curve
        // exactly, in the caller's order.
        let chain = two_state(2.0, 3.0);
        let times = [0.5, 0.5, 0.0, 1.0, 0.0, 1.0, 0.5];
        let opts = TransientOptions::default();
        let curve = measure_curve(&chain, &[1.0, 0.0], &times, &[1.0, 0.0], &opts).unwrap();
        let reference = measure_curve(&chain, &[1.0, 0.0], &[0.0, 0.5, 1.0], &[1.0, 0.0], &opts)
            .unwrap()
            .points;
        let lookup = |t: f64| {
            reference
                .iter()
                .find(|&&(rt, _)| rt == t)
                .expect("reference covers t")
                .1
        };
        for (i, &(t, v)) in curve.points.iter().enumerate() {
            assert_eq!(t, times[i], "order preserved");
            assert_eq!(v, lookup(t), "duplicate t = {t} must reuse the mix");
        }
    }

    #[test]
    fn distribution_stays_stochastic_under_uniformisation_factor_one() {
        let chain = two_state(1.0, 1.0);
        let opts = TransientOptions {
            uniformisation_factor: 1.0,
            ..Default::default()
        };
        let (pi, _) = distribution(&chain, &[1.0, 0.0], 2.5, &opts);
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!((pi[0] - closed_form_p00(1.0, 1.0, 2.5)).abs() < 1e-9);
    }

    /// A birth–death lattice chain with an absorbing floor — the 1-D
    /// archetype of the discretised battery chain.
    fn lattice_chain(n: usize, down: f64, up: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(n);
        for i in 1..n {
            b.rate(i, i - 1, down).unwrap(); // consumption
            if i + 1 < n {
                b.rate(i, i + 1, up).unwrap(); // recovery
            }
        }
        b.build().unwrap()
    }

    fn point_mass(n: usize, at: usize) -> Vec<f64> {
        let mut alpha = vec![0.0; n];
        alpha[at] = 1.0;
        alpha
    }

    #[test]
    fn representations_agree_on_lattice_curves() {
        // The tentpole cross-check: CSR-full, banded-full and
        // banded-windowed engines produce the same curve within ε.
        let n = 400;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0; // Pr[absorbed]
        let times = [5.0, 40.0, 120.0, 300.0];
        let base = TransientOptions::default();
        let csr = measure_curve(
            &chain,
            &alpha,
            &times,
            &measure,
            &TransientOptions {
                representation: Representation::Csr,
                ..base
            },
        )
        .unwrap();
        let banded_full = measure_curve(
            &chain,
            &alpha,
            &times,
            &measure,
            &TransientOptions {
                representation: Representation::Banded,
                active_window: false,
                ..base
            },
        )
        .unwrap();
        let banded_window = measure_curve(
            &chain,
            &alpha,
            &times,
            &measure,
            &TransientOptions {
                representation: Representation::Banded,
                active_window: true,
                ..base
            },
        )
        .unwrap();
        for i in 0..times.len() {
            let a = csr.points[i].1;
            let b = banded_full.points[i].1;
            let c = banded_window.points[i].1;
            assert!((a - b).abs() < 1e-12, "full: {a} vs {b}");
            // Provable bound is 2ε (each engine within ε of truth).
            assert!((a - c).abs() < 2.0 * base.epsilon, "windowed: {a} vs {c}");
        }
        // The windowed engine must actually skip work on this chain
        // (early iterations touch a handful of rows, not all 400).
        assert!(
            banded_window.touched_entries < banded_full.touched_entries,
            "windowed {} vs full {}",
            banded_window.touched_entries,
            banded_full.touched_entries
        );
        assert!(banded_window.window_deficit <= base.epsilon / 2.0);
        assert_eq!(banded_full.window_deficit, 0.0);
        // Auto picks banded for this lattice.
        let auto = measure_curve(&chain, &alpha, &times, &measure, &base).unwrap();
        assert!(auto.touched_entries <= banded_full.touched_entries);
    }

    /// The chain scaled by `gamma` (a power of two keeps `P = I + Q/ν`
    /// bitwise identical, which is what the cache's rescale fast path
    /// detects).
    fn scaled_chain(chain: &Ctmc, gamma: f64) -> Ctmc {
        chain
            .with_rate_values(chain.rates().values().iter().map(|v| v * gamma).collect())
            .unwrap()
    }

    #[test]
    fn cached_remix_is_bit_identical_across_rescaled_chains() {
        let n = 200;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [10.0, 60.0, 150.0];
        // Non-windowed engines: the iterate scalars are horizon-free, so
        // the whole rescale family shares one (extendable) sweep.
        for repr in [Representation::Csr, Representation::Banded] {
            let opts = TransientOptions {
                representation: repr,
                active_window: false,
                ..Default::default()
            };
            let mut cache = CurveCache::new();
            // Ascending ν: each member extends the previous sweep.
            for gamma in [0.25, 0.5, 1.0, 2.0] {
                let member = scaled_chain(&chain, gamma);
                let cached =
                    measure_curve_cached(&member, &alpha, &times, &measure, &opts, &mut cache)
                        .unwrap();
                let independent = measure_curve(&member, &alpha, &times, &measure, &opts).unwrap();
                assert_eq!(
                    cached.points, independent.points,
                    "γ = {gamma} ({repr:?}) must be bit-identical"
                );
                if gamma > 0.25 {
                    assert!(cache.last_solve_shared(), "γ = {gamma} should share");
                    // Extension only runs the *extra* iterations.
                    assert!(
                        cached.iterations < independent.iterations,
                        "γ = {gamma}: {} vs {}",
                        cached.iterations,
                        independent.iterations
                    );
                }
            }
            // Descending after the family maximum: pure remix, zero products.
            let half = scaled_chain(&chain, 0.5);
            let remixed =
                measure_curve_cached(&half, &alpha, &times, &measure, &opts, &mut cache).unwrap();
            assert_eq!(remixed.iterations, 0, "{repr:?}");
            assert_eq!(remixed.touched_entries, 0);
            assert_eq!(
                remixed.points,
                measure_curve(&half, &alpha, &times, &measure, &opts)
                    .unwrap()
                    .points
            );
        }
    }

    #[test]
    fn cached_windowed_engine_only_shares_exact_repeats() {
        let n = 200;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [10.0, 60.0];
        let opts = TransientOptions {
            representation: Representation::Banded,
            active_window: true,
            ..Default::default()
        };
        let mut cache = CurveCache::new();
        let first =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        // An exact repeat (same ν, same horizon) reuses the whole sweep…
        let repeat =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(cache.last_solve_shared());
        assert_eq!(repeat.iterations, 0);
        assert_eq!(repeat.points, first.points);
        assert_eq!(repeat.window_deficit, first.window_deficit);
        // …but a rescaled member must NOT reuse it: the window's trim
        // allowance depends on the horizon's Poisson right point, so only
        // a fresh sweep is bit-identical to an independent solve.
        let double = scaled_chain(&chain, 2.0);
        let cached =
            measure_curve_cached(&double, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        let independent = measure_curve(&double, &alpha, &times, &measure, &opts).unwrap();
        assert_eq!(cached.points, independent.points);
        assert_eq!(cached.iterations, independent.iterations);
    }

    #[test]
    fn cache_misses_on_changed_alpha_measure_or_options() {
        let n = 80;
        let chain = lattice_chain(n, 0.8, 0.2);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [20.0];
        let opts = TransientOptions {
            representation: Representation::Csr,
            ..Default::default()
        };
        let mut cache = CurveCache::new();
        measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        // Different initial distribution: full solve, correct answer.
        let alpha2 = point_mass(n, n / 2);
        let fresh =
            measure_curve_cached(&chain, &alpha2, &times, &measure, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        assert_eq!(
            fresh.points,
            measure_curve(&chain, &alpha2, &times, &measure, &opts)
                .unwrap()
                .points
        );
        // Different measure: miss again.
        let mut measure2 = vec![0.0; n];
        measure2[1] = 1.0;
        measure_curve_cached(&chain, &alpha2, &times, &measure2, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        // Different ε: miss (the Fox–Glynn share changes the mix).
        let tighter = TransientOptions {
            epsilon: 1e-12,
            ..opts
        };
        let t =
            measure_curve_cached(&chain, &alpha2, &times, &measure2, &tighter, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        assert_eq!(
            t.points,
            measure_curve(&chain, &alpha2, &times, &measure2, &tighter)
                .unwrap()
                .points
        );
    }

    #[test]
    fn cache_shares_its_sweep_on_a_repeat() {
        let n = 80;
        let chain = lattice_chain(n, 0.8, 0.2);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [20.0];
        let opts = TransientOptions::default();
        let mut cache = CurveCache::new();
        let first =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared(), "an empty cache sweeps itself");
        // An immediate repeat shares the sweep, bit-identically.
        let repeat =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(cache.last_solve_shared());
        assert_eq!(repeat.points, first.points);
    }

    #[test]
    fn budget_cancels_sweep_and_rerun_is_bit_identical() {
        // The tentpole cancellation contract: a solve cancelled at
        // iteration k reports k completed products, and re-running it
        // to completion — through the same cache — yields exactly the
        // bits an uninterrupted solve produces.
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [10.0, 40.0];
        for repr in [Representation::Csr, Representation::Banded] {
            let opts = TransientOptions {
                representation: repr,
                ..Default::default()
            };
            let uninterrupted = measure_curve(&chain, &alpha, &times, &measure, &opts).unwrap();
            assert!(uninterrupted.iterations > 8, "need room to cancel");
            for k in [0u64, 1, 5, 8] {
                let mut cache = CurveCache::new();
                let err = measure_curve_budgeted(
                    &chain,
                    &alpha,
                    &times,
                    &measure,
                    &opts,
                    &mut cache,
                    &Budget::cancelled_after_checks(k),
                )
                .unwrap_err();
                assert_eq!(
                    err,
                    MarkovError::DeadlineExceeded {
                        completed: k as usize
                    },
                    "{repr:?} k = {k}"
                );
                // A cancelled fresh sweep commits nothing; the re-run
                // behaves like a first solve and matches bit for bit.
                assert!(!cache.last_solve_shared());
                let rerun =
                    measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache)
                        .unwrap();
                assert_eq!(rerun.points, uninterrupted.points, "{repr:?} k = {k}");
                assert_eq!(rerun.iterations, uninterrupted.iterations);
            }
        }
    }

    #[test]
    fn budget_cancels_cache_extension_and_rerun_completes() {
        // Cancel mid-*extension*: the cache keeps only fully computed
        // iterates, so finishing the extension later is bit-identical.
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let opts = TransientOptions {
            representation: Representation::Csr,
            ..Default::default()
        };
        let mut cache = CurveCache::new();
        measure_curve_cached(&chain, &alpha, &[5.0], &measure, &opts, &mut cache).unwrap();
        // The doubled chain needs a larger Poisson window → extension.
        let double = scaled_chain(&chain, 2.0);
        let err = measure_curve_budgeted(
            &double,
            &alpha,
            &[5.0],
            &measure,
            &opts,
            &mut cache,
            &Budget::cancelled_after_checks(2),
        )
        .unwrap_err();
        assert_eq!(err, MarkovError::DeadlineExceeded { completed: 2 });
        let finished =
            measure_curve_cached(&double, &alpha, &[5.0], &measure, &opts, &mut cache).unwrap();
        let independent = measure_curve(&double, &alpha, &[5.0], &measure, &opts).unwrap();
        assert_eq!(finished.points, independent.points);
    }

    #[test]
    fn expired_budget_fails_before_any_product() {
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let err = measure_curve_budgeted(
            &chain,
            &alpha,
            &[40.0],
            &measure,
            &TransientOptions::default(),
            &mut CurveCache::new(),
            &Budget::cancelled_after_checks(0),
        )
        .unwrap_err();
        assert_eq!(err, MarkovError::DeadlineExceeded { completed: 0 });
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        // The zero-overhead claim's semantic half: the budgeted entry
        // point with an unlimited token is the same computation.
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let opts = TransientOptions::default();
        let plain = measure_curve(&chain, &alpha, &[10.0, 40.0], &measure, &opts).unwrap();
        let budgeted = measure_curve_budgeted(
            &chain,
            &alpha,
            &[10.0, 40.0],
            &measure,
            &opts,
            &mut CurveCache::new(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(plain.points, budgeted.points);
        assert_eq!(plain.iterations, budgeted.iterations);
        assert_eq!(plain.touched_entries, budgeted.touched_entries);
    }

    /// A chain shaped like the discretised Fig. 8 battery at Δ = 300 A·s
    /// (the `kibamrm` discretiser's layout): a 1 Hz on/off load with
    /// `stages` Erlang phases each way, drawing 0.96 A while on, over a
    /// 7200 A·s KiBaM lattice with available fraction `c`. Workload hops,
    /// consumption and bound → available transfer move the flat index by
    /// fixed deltas, and the all-empty level `j₁ = 0` absorbs.
    fn fig8_shaped(stages: usize, c: f64) -> (Ctmc, Vec<f64>, Vec<f64>) {
        let (capacity, delta, current, k) = (7200.0, 300.0, 0.96, 4.5e-5);
        let n_w = 2 * stages;
        let j1_levels = (c * capacity / delta) as usize + 1;
        let j2_levels = ((1.0 - c) * capacity / delta) as usize + 1;
        let idx = |i: usize, j1: usize, j2: usize| (j1 * j2_levels + j2) * n_w + i;
        let n = n_w * j1_levels * j2_levels;
        let mut b = CtmcBuilder::new(n);
        for j1 in 1..j1_levels {
            for j2 in 0..j2_levels {
                for i in 0..n_w {
                    let from = idx(i, j1, j2);
                    b.rate(from, idx((i + 1) % n_w, j1, j2), n_w as f64)
                        .unwrap();
                    if i < stages {
                        b.rate(from, idx(i, j1 - 1, j2), current / delta).unwrap();
                    }
                    let transfer = k * (j2 as f64 / (1.0 - c) - j1 as f64 / c);
                    if j2 > 0 && j1 + 1 < j1_levels && transfer > 0.0 {
                        b.rate(from, idx(i, j1 + 1, j2 - 1), transfer).unwrap();
                    }
                }
            }
        }
        let alpha = point_mass(n, idx(0, j1_levels - 1, j2_levels - 1));
        let empty = (0..n)
            .map(|s| if s < j2_levels * n_w { 1.0 } else { 0.0 })
            .collect();
        (b.build().unwrap(), alpha, empty)
    }

    #[test]
    fn auto_runs_fig8_shaped_chains_on_ell_with_csr_bits() {
        // The sweep_grid shapes: Erlang-1/2 loads, c ∈ {0.625, 0.5}. Their
        // five diagonals are too sparse for DIA, so Auto sorts the rows
        // of the reachable sub-chain by length — and must reproduce the
        // CSR engine bit for bit, touching exactly its non-zeros.
        let times = [250.0, 1000.0, 2000.0];
        for (stages, c) in [(1, 0.625), (1, 0.5), (2, 0.625), (2, 0.5)] {
            let (chain, alpha, empty) = fig8_shaped(stages, c);
            let reach = chain.reachable_from(&alpha).unwrap();
            // The lattice points with the available well above the bound
            // one are never entered from the full-charge start.
            assert!(reach.len() < chain.n_states(), "stages {stages}, c {c}");
            let (pt, _) = chain
                .uniformised_transposed_auto_on(1.02, Some(&reach))
                .unwrap();
            let ell = pt.as_ell().expect("Fig. 8 shapes go to sorted rows");
            let (swept, _) = chain.uniformised_transposed_on(1.02, Some(&reach)).unwrap();
            assert_eq!(ell.rows(), reach.len());
            assert_eq!(pt.entries_per_product(), swept.nnz(), "no padding");
            let auto = TransientOptions::default();
            let csr = TransientOptions {
                representation: Representation::Csr,
                ..auto
            };
            let a = measure_curve(&chain, &alpha, &times, &empty, &auto).unwrap();
            let b = measure_curve(&chain, &alpha, &times, &empty, &csr).unwrap();
            let bits =
                |c: &CurveSolution| c.points.iter().map(|p| p.1.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "stages {stages}, c {c}");
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(
                a.touched_entries,
                a.iterations as u64 * pt.entries_per_product() as u64
            );
        }
    }

    #[test]
    fn ell_rescale_family_shares_one_sweep_with_csr_bits() {
        // A γ ∈ {½, 1} family through one CurveCache per representation:
        // γ = ½ runs the restricted sweep, γ = 1 extends it. Every member
        // equals the forced-CSR engine, its own independent solve and the
        // unrestricted full-chain sweep bit for bit.
        let (chain, alpha, empty) = fig8_shaped(2, 0.625);
        let times = [500.0, 1500.0];
        let auto = TransientOptions::default();
        let csr = TransientOptions {
            representation: Representation::Csr,
            ..auto
        };
        let (mut auto_cache, mut csr_cache) = (CurveCache::new(), CurveCache::new());
        for gamma in [0.5, 1.0] {
            let member = scaled_chain(&chain, gamma);
            let a = measure_curve_cached(&member, &alpha, &times, &empty, &auto, &mut auto_cache)
                .unwrap();
            let shared = auto_cache.last_solve_shared();
            let b = measure_curve_cached(&member, &alpha, &times, &empty, &csr, &mut csr_cache)
                .unwrap();
            let independent = measure_curve(&member, &alpha, &times, &empty, &auto).unwrap();
            let bits =
                |c: &CurveSolution| c.points.iter().map(|p| p.1.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "γ = {gamma}: sorted rows vs CSR");
            assert_eq!(bits(&a), bits(&independent), "γ = {gamma}: cached vs fresh");
            let full = full_chain_curve(&member, &alpha, &times, &empty, &auto);
            assert_eq!(curve_bits(&a.points), curve_bits(&full), "γ = {gamma}");
            let state = auto_cache.state.as_ref().expect("sweep cached");
            assert!(
                state.pt.rows() < member.n_states(),
                "the sweep is restricted"
            );
            if gamma == 1.0 {
                assert!(shared, "γ = 1 extends the γ = ½ sweep");
                assert!(a.iterations < independent.iterations);
                assert_eq!(a.iterations, b.iterations);
            }
        }
    }

    #[test]
    fn extended_family_sweep_continues_from_the_padded_iterate() {
        // γ = ½ caches a sorted-row sweep whose iterate is a padded
        // product buffer; γ = 1 reaches further and extends it from that
        // buffer. The extension must carry the bits of a fresh sweep at
        // the larger horizon, down to the stored iterate, with the pad
        // still +0.0.
        let (chain, alpha, empty) = fig8_shaped(1, 0.5);
        let times = [800.0, 2500.0];
        let opts = TransientOptions::default();
        let padded = |cache: &CurveCache| {
            let state = cache.state.as_ref().expect("sweep cached");
            let rows = state.pt.rows();
            let pad_is_zero = state.v[rows..].iter().all(|v| v.to_bits() == 0);
            assert!(
                state.pt.as_ell().is_some(),
                "Fig. 8 shapes go to sorted rows"
            );
            assert_eq!(state.v.len(), rows.next_power_of_two());
            assert!(state.v.len() > rows, "this chain's buffer has a pad");
            assert!(pad_is_zero, "the pad stays +0.0");
            (
                state.s.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                state.v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        let mut family = CurveCache::new();
        let half = scaled_chain(&chain, 0.5);
        measure_curve_cached(&half, &alpha, &times, &empty, &opts, &mut family).unwrap();
        padded(&family);
        let extended =
            measure_curve_cached(&chain, &alpha, &times, &empty, &opts, &mut family).unwrap();
        assert!(family.last_solve_shared(), "γ = 1 extends the γ = ½ sweep");
        let mut alone = CurveCache::new();
        let fresh =
            measure_curve_cached(&chain, &alpha, &times, &empty, &opts, &mut alone).unwrap();
        assert!(!alone.last_solve_shared());
        assert!(extended.iterations > 0 && extended.iterations < fresh.iterations);
        assert_eq!(curve_bits(&extended.points), curve_bits(&fresh.points));
        assert_eq!(padded(&family), padded(&alone), "same scalars and iterate");
    }

    fn curve_bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits()))
            .collect()
    }

    /// The curve of the unrestricted sequential CSR sweep over the
    /// **full** chain, taking the full dot and the full sup-norm after
    /// every product: the parent engine's non-windowed path.
    fn full_chain_curve(
        chain: &Ctmc,
        alpha: &[f64],
        times: &[f64],
        measure: &[f64],
        opts: &TransientOptions,
    ) -> Vec<(f64, f64)> {
        let (pt, nu) = chain
            .uniformised_transposed(opts.uniformisation_factor)
            .unwrap();
        let t_max = times.iter().cloned().fold(0.0, f64::max);
        let mut fg = FoxGlynnCache::new();
        fg.compute(nu * t_max, opts.epsilon).unwrap();
        let (s, _) = reference_scalars(&pt, alpha, measure, fg.right(), opts);
        remix_curve(times, nu, &s, &mut fg, opts.epsilon).unwrap()
    }

    /// `s_n = m·(αPⁿ)` for `n ≤ n_max` by the reference loop: each product
    /// followed by the full dot over every row and the full sup-norm,
    /// stopping at the first `n` whose sup is below the tolerance
    /// (returned with the scalars).
    fn reference_scalars(
        pt: &crate::sparse::CsrMatrix,
        alpha: &[f64],
        measure: &[f64],
        n_max: usize,
        opts: &TransientOptions,
    ) -> (Vec<f64>, Option<usize>) {
        let mut s = vec![dot(alpha, measure)];
        let mut v = alpha.to_vec();
        let mut next = vec![0.0; v.len()];
        for n in 1..=n_max {
            pt.mul_vec_into(&v, &mut next).unwrap();
            let mut s_n = 0.0;
            let mut sup = 0.0f64;
            for r in 0..v.len() {
                s_n += measure[r] * next[r];
                sup = sup.max((next[r] - v[r]).abs());
            }
            std::mem::swap(&mut v, &mut next);
            s.push(s_n);
            if opts.steady_state_tolerance > 0.0 && sup < opts.steady_state_tolerance {
                return (s, Some(n));
            }
        }
        (s, None)
    }

    /// A tiny xorshift generator for the planted-block chains.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random `n`-state chain with a planted block `U` (about one state
    /// in eight, scattered over the index range) that no edge enters from
    /// the rest. Every state is entered from one or two sources, so the
    /// rows of `Pᵀ` are short and even; an outside state whose only
    /// source lies in `U` is unreachable too. α is a point mass or a
    /// three-point mix outside `U`; the measure is signed and holds `±0.0`
    /// entries. Returns the chain, α, the measure and the `U` mask.
    fn planted_chain(n: usize, seed: u64) -> (Ctmc, Vec<f64>, Vec<f64>, Vec<bool>) {
        let mut rng = Xorshift(seed | 1);
        let mut in_u: Vec<bool> = (0..n).map(|_| rng.below(8) == 0).collect();
        in_u[0] = false;
        in_u[n - 1] = true;
        let outside: Vec<usize> = (0..n).filter(|&i| !in_u[i]).collect();
        let planted: Vec<usize> = (0..n).filter(|&i| in_u[i]).collect();
        let mut b = CtmcBuilder::new(n);
        let edge = |b: &mut CtmcBuilder, from: usize, to: usize, rng: &mut Xorshift| {
            if from != to {
                b.rate(from, to, 0.1 + 2.0 * rng.unit()).unwrap();
            }
        };
        for (k, &to) in outside.iter().enumerate().skip(1) {
            let from = if rng.below(16) == 0 {
                planted[rng.below(planted.len())]
            } else {
                outside[k - 1 - rng.below(k.min(3))]
            };
            edge(&mut b, from, to, &mut rng);
            if rng.below(2) == 0 {
                let from = outside[rng.below(outside.len())];
                edge(&mut b, from, to, &mut rng);
            }
        }
        for &to in &planted {
            let from = planted[rng.below(planted.len())];
            edge(&mut b, from, to, &mut rng);
        }
        let mut alpha = vec![0.0; n];
        if rng.below(2) == 0 {
            alpha[outside[0]] = 1.0;
        } else {
            alpha[outside[0]] += 0.5;
            alpha[outside[rng.below(outside.len())]] += 0.25;
            alpha[outside[rng.below(outside.len())]] += 0.25;
        }
        let measure = (0..n)
            .map(|_| match rng.below(4) {
                0 => 0.0,
                1 => -0.0,
                _ => 4.0 * rng.unit() - 2.0,
            })
            .collect();
        (b.build().unwrap(), alpha, measure, in_u)
    }

    #[test]
    fn all_reachable_chain_touches_what_the_full_sweep_touches() {
        // A one-well (c = 1) lattice: every level is reachable from the
        // full one, so the sweep is the full chain's, slot for slot.
        let n = 200;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut empty = vec![0.0; n];
        empty[0] = 1.0;
        assert!(chain.reachable_from(&alpha).unwrap().is_full());
        let times = [25.0, 100.0];
        for representation in [Representation::Auto, Representation::Csr] {
            let opts = TransientOptions {
                representation,
                active_window: false,
                ..Default::default()
            };
            let full = match representation {
                Representation::Csr => {
                    TransitionMatrix::Csr(chain.uniformised_transposed(1.02).unwrap().0)
                }
                _ => chain.uniformised_transposed_auto(1.02).unwrap().0,
            };
            let curve = measure_curve(&chain, &alpha, &times, &empty, &opts).unwrap();
            assert_eq!(
                curve.touched_entries,
                curve.iterations as u64 * full.entries_per_product() as u64,
                "{representation:?}"
            );
        }
        let csr = TransientOptions {
            representation: Representation::Csr,
            ..Default::default()
        };
        let curve = measure_curve(&chain, &alpha, &times, &empty, &csr).unwrap();
        let full = full_chain_curve(&chain, &alpha, &times, &empty, &csr);
        assert_eq!(curve_bits(&curve.points), curve_bits(&full));
    }

    #[test]
    fn zero_time_value_keeps_the_full_chain_sign_of_zero() {
        // 0 → 1, and an unreachable 2 → 0. Over the reachable states the
        // measure products are all −0.0, which a float sum keeps; the
        // unreachable state's +0.0 product turns the full sum into +0.0.
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(2, 0, 1.0).unwrap();
        let chain = b.build().unwrap();
        let (alpha, measure) = ([1.0, 0.0, 0.0], [-0.0, -1.0, 5.0]);
        let times = [0.0, 0.5];
        for representation in [Representation::Auto, Representation::Csr] {
            let opts = TransientOptions {
                representation,
                ..Default::default()
            };
            let curve = measure_curve(&chain, &alpha, &times, &measure, &opts).unwrap();
            let full = full_chain_curve(&chain, &alpha, &times, &measure, &opts);
            assert_eq!(full[0].1.to_bits(), 0.0f64.to_bits());
            assert_eq!(
                curve_bits(&curve.points),
                curve_bits(&full),
                "{representation:?}"
            );
        }
    }

    #[test]
    fn non_finite_measure_entries_are_rejected() {
        let chain = two_state(1.0, 1.0);
        let opts = TransientOptions::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // On the state α starts in, and on one it never reaches.
            for measure in [[bad, 0.0], [0.0, bad]] {
                let err = measure_curve(&chain, &[1.0, 0.0], &[1.0], &measure, &opts).unwrap_err();
                assert!(
                    matches!(err, MarkovError::InvalidArgument(_)),
                    "{measure:?}: {err:?}"
                );
            }
        }
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        let one_way = b.build().unwrap();
        let err = measure_curve(&one_way, &[0.0, 1.0], &[1.0], &[f64::NAN, 1.0], &opts);
        assert!(matches!(err, Err(MarkovError::InvalidArgument(_))));
    }

    #[test]
    fn steady_state_probe_rules_out_then_falls_back_to_the_full_max() {
        let tol = 1e-3;
        let x = [0.0; 4];
        let mut probe = 0;
        // The probe row alone reaches tol: no pass, the probe stays.
        assert!(!is_steady(&x, &[0.5, 0.0, 0.9, 0.0], 0..4, tol, &mut probe));
        assert_eq!(probe, 0);
        // The probe row has settled, row 2 has not: the full max runs and
        // the probe moves to its argmax.
        assert!(!is_steady(
            &x,
            &[1e-4, 0.0, 0.9, -0.95],
            0..4,
            tol,
            &mut probe
        ));
        assert_eq!(probe, 3);
        // Everything below tol: steady, the probe on the largest change.
        assert!(is_steady(
            &x,
            &[1e-4, 5e-4, 0.0, 0.0],
            0..4,
            tol,
            &mut probe
        ));
        assert_eq!(probe, 1);
        // A NaN difference is skipped as f64::max skips it, and a
        // disabled test is never steady.
        assert!(is_steady(
            &x,
            &[0.0, f64::NAN, 0.0, 0.0],
            0..4,
            tol,
            &mut probe
        ));
        assert!(!is_steady(&x, &x, 0..4, 0.0, &mut probe));
        // A probe outside the window (where both vectors are zero) falls
        // back to the max over the window.
        let mut probe = 3;
        assert!(!is_steady(&x, &[0.0, 0.0, 0.9, 0.0], 0..3, tol, &mut probe));
        assert_eq!(probe, 2);
    }

    /// Two independent two-state chains: `0 → 1` fast and `2 → 3` slow,
    /// half the mass in each. The first product's probe (row 0) settles
    /// long before row 2 does.
    fn fast_and_slow() -> (Ctmc, Vec<f64>, Vec<f64>) {
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 4.0).unwrap();
        b.rate(2, 3, 0.5).unwrap();
        (
            b.build().unwrap(),
            vec![0.5, 0.0, 0.5, 0.0],
            vec![0.0, 1.0, 0.0, 1.0],
        )
    }

    #[test]
    fn steady_state_probe_matches_the_full_sup_every_product() {
        // Along a real sweep the probe's decision is the full max's at
        // every product, and the fallback runs when row 0 settles first.
        let (chain, alpha, measure) = fast_and_slow();
        let (pt, _) = chain.uniformised_transposed(1.02).unwrap();
        let tol = TransientOptions::default().steady_state_tolerance;
        let (mut v, mut next) = (alpha.clone(), vec![0.0; 4]);
        let mut probe = 0;
        let mut moved_at = None;
        for n in 1..10_000 {
            pt.mul_vec_into(&v, &mut next).unwrap();
            let sup = (0..4).fold(0.0f64, |a, r| a.max((next[r] - v[r]).abs()));
            let steady = is_steady(&v, &next, 0..4, tol, &mut probe);
            assert_eq!(steady, sup < tol, "n = {n}");
            if probe != 0 && moved_at.is_none() {
                moved_at = Some(n);
            }
            std::mem::swap(&mut v, &mut next);
            if steady {
                let moved = moved_at.expect("the fallback ran");
                assert!(1 < moved && moved < n, "moved at {moved}, steady at {n}");
                break;
            }
        }
        assert!(moved_at.is_some());

        // Through the engines: converged_at, the iteration count and the
        // curve bits equal the reference loop that takes the full sup
        // (and the full dot) after every product.
        let n = 60;
        let lattice = lattice_chain(n, 1.0, 0.3);
        let mut floor = vec![0.0; n];
        floor[0] = 1.0;
        let mut absorbing = CtmcBuilder::new(2);
        absorbing.rate(0, 1, 5.0).unwrap();
        let cases = [
            (chain, alpha, measure, 400.0),
            (lattice, point_mass(n, n - 1), floor, 20_000.0),
            (
                absorbing.build().unwrap(),
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                1000.0,
            ),
        ];
        for (chain, alpha, measure, t) in cases {
            let times = [t / 7.0, t];
            for representation in [Representation::Auto, Representation::Csr] {
                let opts = TransientOptions {
                    representation,
                    active_window: false,
                    ..Default::default()
                };
                let curve = measure_curve(&chain, &alpha, &times, &measure, &opts).unwrap();
                let (pt, nu) = chain.uniformised_transposed(1.02).unwrap();
                let mut fg = FoxGlynnCache::new();
                fg.compute(nu * t, opts.epsilon).unwrap();
                let (s, converged_at) = reference_scalars(&pt, &alpha, &measure, fg.right(), &opts);
                let n_states = chain.n_states();
                assert!(
                    converged_at.is_some(),
                    "{n_states} states converge by t = {t}"
                );
                assert_eq!(
                    curve.converged_at, converged_at,
                    "{n_states} states, {representation:?}"
                );
                assert_eq!(curve.iterations, s.len() - 1);
                let reference = remix_curve(&times, nu, &s, &mut fg, opts.epsilon).unwrap();
                assert_eq!(curve_bits(&curve.points), curve_bits(&reference));
            }
        }
    }

    #[test]
    fn accumulated_reward_matches_the_van_loan_block_exponential() {
        // E[Y(t)] = α·∫₀ᵗ e^{Qs}·r ds, the last column of
        // exp([[Q, r], [0, 0]]·t) (Van Loan). Auto stores the lattice as
        // DIA, so this runs the banded sweep with the window off.
        let n = 40;
        let chain = lattice_chain(n, 1.0, 0.3);
        let (pt, _) = chain.uniformised_transposed_auto(1.02).unwrap();
        assert!(pt.as_banded().is_some(), "the lattice goes banded");
        let rewards: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
        let alpha = point_mass(n, n - 1);
        let q = chain.generator_dense();
        let mut block = numerics::linalg::DenseMatrix::zeros(n + 1, n + 1);
        for (i, &r) in rewards.iter().enumerate() {
            block.row_mut(i)[..n].copy_from_slice(q.row(i));
            block.row_mut(i)[n] = r;
        }
        let mrm = crate::mrm::MarkovRewardModel::new(chain, rewards).unwrap();
        for t in [0.5, 5.0, 30.0, 120.0] {
            let exp = block.scale(t).expm().unwrap();
            let expect: f64 = (0..n).map(|i| alpha[i] * exp.row(i)[n]).sum();
            let got = mrm.expected_accumulated_reward(&alpha, t, 1e-12).unwrap();
            assert!(
                (got - expect).abs() < 1e-9 * expect.max(1.0),
                "t = {t}: {got} vs {expect}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Restricting the sweep to the reachable states, sorting its rows
        /// and moving the dot and the steady-state test out of the
        /// kernels moves no bit: on random chains with a planted
        /// unreachable block, random α supports outside it, signed
        /// measures with ±0.0 entries and times including 0, the
        /// restricted CSR and sorted-row curves at pool threads 1–4 equal
        /// the sequential full-chain sweep bit for bit. The large chains
        /// keep more than `PARALLEL_SPMV_MIN_ROWS` rows after the
        /// restriction, so their sweeps run pooled.
        #[test]
        fn restricted_sweeps_match_the_full_chain_bitwise(
            large in 0usize..2,
            seed in 1u64..u64::MAX,
            threads in 1usize..=4,
            t in 0.5f64..4.0,
        ) {
            use proptest::prelude::*;
            let n = if large == 1 { 6000 + (seed % 800) as usize } else { 8 + (seed % 200) as usize };
            let (chain, alpha, measure, planted) = planted_chain(n, seed);
            let reach = chain.reachable_from(&alpha).unwrap();
            for i in (0..n).filter(|&i| planted[i]) {
                prop_assert!(reach.position(i).is_none(), "planted state {} reached", i);
            }
            let times = [t, 0.0, t / 3.0, t];
            let csr = TransientOptions {
                representation: Representation::Csr,
                threads,
                ..Default::default()
            };
            let reference = curve_bits(&full_chain_curve(&chain, &alpha, &times, &measure, &csr));
            let restricted = measure_curve(&chain, &alpha, &times, &measure, &csr).unwrap();
            prop_assert_eq!(curve_bits(&restricted.points), reference.clone());
            let (swept, _) = chain.uniformised_transposed_on(1.02, Some(&reach)).unwrap();
            prop_assert_eq!(
                restricted.touched_entries,
                restricted.iterations as u64 * swept.nnz() as u64
            );
            let auto = TransientOptions { representation: Representation::Auto, ..csr };
            let (pt, _) = chain.uniformised_transposed_auto_on(1.02, Some(&reach)).unwrap();
            prop_assert!(pt.as_ell().is_some(), "Auto sorts the rows");
            let ell = measure_curve(&chain, &alpha, &times, &measure, &auto).unwrap();
            prop_assert_eq!(curve_bits(&ell.points), reference);
        }

        /// An oracle independent of uniformisation: on random small
        /// chains, the unit-measure curves `π_i(t)` equal `α·e^{Qt}`
        /// under forced CSR, Auto and forced banded storage, with the
        /// active window on. The chains are birth–death lattices with
        /// random rates plus a few random jumps, started from a point
        /// mass, so the window grows and trims on the banded runs.
        #[test]
        fn unit_measure_curves_match_the_dense_exponential(
            n in 2usize..24,
            seed in 1u64..u64::MAX,
            t in 0.05f64..3.0,
        ) {
            use proptest::prelude::*;
            let mut rng = Xorshift(seed | 1);
            let mut b = CtmcBuilder::new(n);
            for i in 0..n - 1 {
                b.rate(i + 1, i, 0.1 + 3.0 * rng.unit()).unwrap();
                b.rate(i, i + 1, 2.0 * rng.unit()).unwrap();
            }
            for _ in 0..n / 4 {
                let (from, to) = (rng.below(n), rng.below(n));
                if from != to {
                    b.rate(from, to, rng.unit()).unwrap();
                }
            }
            let chain = b.build().unwrap();
            let alpha = point_mass(n, rng.below(n));
            let expect = chain.generator_dense().scale(t).expm().unwrap().vecmul(&alpha).unwrap();
            for representation in [Representation::Csr, Representation::Auto, Representation::Banded] {
                let opts = TransientOptions {
                    epsilon: 1e-12,
                    representation,
                    active_window: true,
                    ..Default::default()
                };
                let (pi, _) = distribution(&chain, &alpha, t, &opts);
                for i in 0..n {
                    prop_assert!((pi[i] - expect[i]).abs() < 1e-9,
                        "{:?}, state {}: {} vs {}", representation, i, pi[i], expect[i]);
                }
            }
        }

        /// The satellite property: across random lattice chains, time
        /// horizons and thread counts 1–8, window trimming never loses
        /// more than the documented ε mass and the curve stays within ε
        /// of the sequential CSR engine.
        #[test]
        fn window_trimming_bounded_by_epsilon(
            n in 32usize..160,
            down in 0.3f64..2.0,
            up in 0.0f64..1.0,
            t in 5.0f64..80.0,
            threads in 1usize..=8,
        ) {
            use proptest::prelude::*;
            let chain = lattice_chain(n, down, up);
            let alpha = point_mass(n, n - 1);
            let mut measure = vec![0.0; n];
            measure[0] = 1.0;
            let eps = 1e-10;
            let times = [t / 4.0, t];
            let csr = measure_curve(&chain, &alpha, &times, &measure, &TransientOptions {
                epsilon: eps,
                representation: Representation::Csr,
                threads: 1,
                ..Default::default()
            }).unwrap();
            let windowed = measure_curve(&chain, &alpha, &times, &measure, &TransientOptions {
                epsilon: eps,
                representation: Representation::Banded,
                active_window: true,
                threads,
                ..Default::default()
            }).unwrap();
            // Documented deficit bound: half the ε budget (measure is an
            // indicator, so no ‖m‖∞ scaling).
            prop_assert!(windowed.window_deficit <= eps / 2.0,
                "deficit {} > {}", windowed.window_deficit, eps / 2.0);
            // Each engine is within ε of the true curve (CSR: full ε to
            // Fox–Glynn; windowed: ε/2 + ε/2), so their distance is
            // provably ≤ 2ε — assert the provable bound, not ε, so a
            // run where both engines land near-budget on opposite sides
            // cannot fail spuriously.
            for (a, w) in csr.points.iter().zip(&windowed.points) {
                prop_assert!((a.1 - w.1).abs() <= 2.0 * eps,
                    "t = {}: csr {} vs windowed {}", a.0, a.1, w.1);
            }
        }
    }
}
