//! Continuous-time Markov chains: validated construction, exit rates,
//! uniformisation and export.
//!
//! A CTMC here is stored as its off-diagonal rate matrix in CSR form plus
//! the per-state exit rates; the diagonal of the generator is implicit
//! (`q_{ii} = −q_i`). This matches the workload models of the paper
//! (Figs. 3–5) as well as the huge derived chains of Section 5.

use crate::banded::{BandedMatrix, TransitionMatrix};
use crate::ell::EllMatrix;
use crate::sparse::{CsrMatrix, Subset};
use crate::MarkovError;

/// Incremental builder for a [`Ctmc`].
///
/// # Examples
///
/// Building the paper's simple cell-phone workload (Fig. 4, rates per
/// hour):
///
/// ```
/// use markov::ctmc::CtmcBuilder;
///
/// let mut b = CtmcBuilder::new(3);
/// b.label(0, "idle").label(1, "send").label(2, "sleep");
/// b.rate(0, 1, 2.0).unwrap(); // λ: data arrives
/// b.rate(1, 0, 6.0).unwrap(); // µ: sending completes
/// b.rate(0, 2, 1.0).unwrap(); // τ: timeout to sleep
/// b.rate(2, 1, 2.0).unwrap(); // λ: data arrival wakes the device
/// let chain = b.build().unwrap();
/// assert_eq!(chain.n_states(), 3);
/// assert_eq!(chain.exit_rate(0), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct CtmcBuilder {
    n: usize,
    triplets: Vec<(usize, usize, f64)>,
    /// Materialised lazily on the first `label()` call: huge derived
    /// chains never pay for `n` default label strings.
    labels: Option<Vec<String>>,
}

impl CtmcBuilder {
    /// Starts a builder for a chain with `n` states (indexed `0..n`).
    pub fn new(n: usize) -> Self {
        CtmcBuilder {
            n,
            triplets: Vec::new(),
            labels: None,
        }
    }

    /// Adds (accumulates) transition rate `rate` from `from` to `to`.
    ///
    /// Zero rates are accepted and ignored, which lets callers write
    /// uniform model-generation loops.
    ///
    /// # Errors
    ///
    /// [`MarkovError::StateOutOfRange`] for bad indices,
    /// [`MarkovError::SelfLoop`] when `from == to`, and
    /// [`MarkovError::InvalidRate`] for negative or non-finite rates.
    pub fn rate(&mut self, from: usize, to: usize, rate: f64) -> Result<&mut Self, MarkovError> {
        if from >= self.n {
            return Err(MarkovError::StateOutOfRange {
                state: from,
                n_states: self.n,
            });
        }
        if to >= self.n {
            return Err(MarkovError::StateOutOfRange {
                state: to,
                n_states: self.n,
            });
        }
        if from == to {
            return Err(MarkovError::SelfLoop { state: from });
        }
        if !rate.is_finite() || rate < 0.0 {
            return Err(MarkovError::InvalidRate { from, to, rate });
        }
        if rate > 0.0 {
            self.triplets.push((from, to, rate));
        }
        Ok(self)
    }

    /// Sets a human-readable label on state `i` (ignored when out of
    /// range, so chained label calls never fail).
    pub fn label(&mut self, i: usize, name: &str) -> &mut Self {
        if i < self.n {
            let labels = self
                .labels
                .get_or_insert_with(|| (0..self.n).map(|i| format!("s{i}")).collect());
            labels[i] = name.to_owned();
        }
        self
    }

    /// Finalises the chain.
    ///
    /// # Errors
    ///
    /// [`MarkovError::EmptyChain`] when `n == 0`, or an error propagated
    /// from sparse-matrix assembly.
    pub fn build(self) -> Result<Ctmc, MarkovError> {
        if self.n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        let rates = CsrMatrix::from_triplets(self.n, self.n, self.triplets)?;
        let exit = rates.row_sums();
        Ok(Ctmc {
            n: self.n,
            rates,
            exit,
            labels: match self.labels {
                Some(v) => Labels::Named(v),
                None => Labels::Default,
            },
        })
    }
}

/// State labels: either lazily-derived defaults (`s0`, `s1`, …; zero
/// storage, the choice for million-state derived chains) or an explicit
/// per-state vector.
#[derive(Debug, Clone, PartialEq)]
enum Labels {
    Default,
    Named(Vec<String>),
}

/// A validated continuous-time Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    n: usize,
    rates: CsrMatrix,
    exit: Vec<f64>,
    labels: Labels,
}

impl Ctmc {
    /// Wraps an already-assembled off-diagonal rate matrix as a CTMC,
    /// validating the generator invariants in one `O(nnz)` pass. This is
    /// the bulk-construction path for huge derived chains (the paper's
    /// §5 discretisation) whose rate matrices are built by two-pass
    /// counted CSR assembly ([`crate::sparse::CsrAssembler`]) — no
    /// triplet temporary, no per-rate builder call.
    ///
    /// States get default labels (`s0`, `s1`, …).
    ///
    /// # Errors
    ///
    /// [`MarkovError::EmptyChain`] for a 0×0 matrix,
    /// [`MarkovError::InvalidArgument`] for a non-square matrix,
    /// [`MarkovError::SelfLoop`] when a diagonal entry is stored, and
    /// [`MarkovError::InvalidRate`] for a negative rate (non-finite
    /// values are already rejected by CSR assembly).
    pub fn from_rate_matrix(rates: CsrMatrix) -> Result<Ctmc, MarkovError> {
        if rates.rows() == 0 {
            return Err(MarkovError::EmptyChain);
        }
        if rates.rows() != rates.cols() {
            return Err(MarkovError::InvalidArgument(format!(
                "rate matrix must be square, got {}x{}",
                rates.rows(),
                rates.cols()
            )));
        }
        for (i, j, r) in rates.iter() {
            if i == j {
                return Err(MarkovError::SelfLoop { state: i });
            }
            if !r.is_finite() || r < 0.0 {
                return Err(MarkovError::InvalidRate {
                    from: i,
                    to: j,
                    rate: r,
                });
            }
        }
        let n = rates.rows();
        let exit = rates.row_sums();
        Ok(Ctmc {
            n,
            rates,
            exit,
            labels: Labels::Default,
        })
    }

    /// Pattern-reuse constructor: a chain with this chain's transition
    /// **pattern** (same state count, same `(from, to)` pairs in the same
    /// CSR order) and new rate `values`. Exit rates are recomputed in one
    /// `O(nnz)` pass; labels carry over; the structural arrays are shared
    /// by clone — no assembly, no sort, no self-loop re-scan (the pattern
    /// was validated when this chain was built). Sweep planners key calls
    /// to this on [`Ctmc::structural_fingerprint`].
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `values.len()` differs from
    /// [`Ctmc::n_transitions`] or a value is non-finite;
    /// [`MarkovError::InvalidRate`] for a negative rate.
    pub fn with_rate_values(&self, values: Vec<f64>) -> Result<Ctmc, MarkovError> {
        let rates = self.rates.with_values(values)?;
        for (i, j, r) in rates.iter() {
            if r < 0.0 {
                return Err(MarkovError::InvalidRate {
                    from: i,
                    to: j,
                    rate: r,
                });
            }
        }
        let exit = rates.row_sums();
        Ok(Ctmc {
            n: self.n,
            rates,
            exit,
            labels: self.labels.clone(),
        })
    }

    /// A 64-bit fingerprint of the chain's transition **structure** (the
    /// rate matrix's sparsity pattern; values excluded). Chains with equal
    /// fingerprints can share every pattern-derived artefact — CSR
    /// layout, DIA offsets, active-window growth bounds — which is what
    /// the sweep planner groups scenarios by.
    pub fn structural_fingerprint(&self) -> u64 {
        self.rates.pattern_fingerprint()
    }

    /// Number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// The off-diagonal rate matrix in CSR form.
    #[inline]
    pub fn rates(&self) -> &CsrMatrix {
        &self.rates
    }

    /// Total number of (off-diagonal) transitions.
    #[inline]
    pub fn n_transitions(&self) -> usize {
        self.rates.nnz()
    }

    /// Exit rate `q_i = Σ_{j≠i} q_{ij}` of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_states()`.
    #[inline]
    pub fn exit_rate(&self, i: usize) -> f64 {
        self.exit[i]
    }

    /// The largest exit rate, i.e. the minimal uniformisation rate.
    pub fn max_exit_rate(&self) -> f64 {
        self.exit.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// `true` when state `i` is absorbing (no outgoing rate).
    pub fn is_absorbing(&self, i: usize) -> bool {
        self.exit[i] == 0.0
    }

    /// Label of state `i` (borrowed when explicitly named, derived on the
    /// fly for default-labelled chains).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_states()`.
    pub fn state_label(&self, i: usize) -> std::borrow::Cow<'_, str> {
        match &self.labels {
            Labels::Named(v) => std::borrow::Cow::Borrowed(v[i].as_str()),
            Labels::Default => {
                assert!(i < self.n, "state {i} out of range for {} states", self.n);
                std::borrow::Cow::Owned(format!("s{i}"))
            }
        }
    }

    /// `true` when the chain carries explicitly assigned labels (as
    /// opposed to the lazily-derived `s0`, `s1`, … defaults). Chain
    /// transformations use this to skip copying labels that the rebuilt
    /// chain would derive identically for free — keeping million-state
    /// derived chains label-storage-free end to end.
    pub fn has_custom_labels(&self) -> bool {
        matches!(self.labels, Labels::Named(_))
    }

    /// Index of the first state carrying `label`, if any.
    pub fn find_state(&self, label: &str) -> Option<usize> {
        match &self.labels {
            Labels::Named(v) => v.iter().position(|l| l == label),
            Labels::Default => label
                .strip_prefix('s')
                .and_then(|digits| digits.parse::<usize>().ok())
                // Round-trip to reject non-canonical spellings ("s007").
                .filter(|&i| i < self.n && format!("s{i}") == label),
        }
    }

    /// The dense generator matrix `Q` (diagonal filled in). Intended for
    /// small chains only — memory is `O(n²)`.
    pub fn generator_dense(&self) -> numerics::linalg::DenseMatrix {
        let mut q = numerics::linalg::DenseMatrix::zeros(self.n, self.n);
        for (i, j, r) in self.rates.iter() {
            q[(i, j)] = r;
        }
        for i in 0..self.n {
            q[(i, i)] = -self.exit[i];
        }
        q
    }

    /// The uniformised DTMC `P = I + Q/ν` with `ν = factor · max_i q_i`,
    /// returned together with ν. `factor > 1` leaves strictly positive
    /// self-loop probability on the fastest states, which damps the
    /// periodicity artefacts of uniformisation.
    ///
    /// For a chain whose states are all absorbing, `ν = 0` and `P = I` is
    /// returned with `ν` set to 0; callers special-case this (the
    /// transient distribution is constant).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `factor < 1`.
    pub fn uniformised(&self, factor: f64) -> Result<(CsrMatrix, f64), MarkovError> {
        let (nu, stay) = self.uniformisation_diagonal(factor)?;
        if nu == 0.0 {
            let eye: Vec<_> = (0..self.n).map(|i| (i, i, 1.0)).collect();
            return Ok((CsrMatrix::from_triplets(self.n, self.n, eye)?, 0.0));
        }
        // Direct CSR assembly: rows stay sorted, the diagonal is spliced
        // in place — no triplet temporary, no O(nnz log nnz) sort.
        Ok((self.rates.scaled_add_diag(1.0 / nu, &stay)?, nu))
    }

    /// The **transposed** uniformised DTMC `Pᵀ = (I + Q/ν)ᵀ`, built
    /// directly from the rate matrix in one `O(nnz)` counting pass —
    /// no intermediate `P`, no transpose copy.
    ///
    /// The transient engines iterate `vₙ₊₁ᵀ = vₙᵀ P`, i.e. repeated
    /// `Pᵀ·v` products, so this is the matrix the hot path actually
    /// wants. Semantics of ν and the all-absorbing case match
    /// [`Ctmc::uniformised`] (the identity is its own transpose).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `factor < 1`.
    pub fn uniformised_transposed(&self, factor: f64) -> Result<(CsrMatrix, f64), MarkovError> {
        self.uniformised_transposed_on(factor, None)
    }

    /// [`Ctmc::uniformised_transposed`] on the states in `keep` only: the
    /// principal submatrix of the full `Pᵀ`, rows and columns renumbered
    /// in kept order. ν and every self-loop probability are the **full**
    /// chain's, so the kept entries are bit-identical to the full
    /// emission's. `keep` must be closed under the chain's transitions,
    /// e.g. [`Ctmc::reachable_from`]; `None` emits the whole chain.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `factor < 1`, `keep` is drawn
    /// from another state count, or a kept state has a transition out of
    /// the set.
    pub fn uniformised_transposed_on(
        &self,
        factor: f64,
        keep: Option<&Subset>,
    ) -> Result<(CsrMatrix, f64), MarkovError> {
        let (nu, stay) = self.uniformisation_diagonal(factor)?;
        if nu == 0.0 {
            let n = keep.map_or(self.n, Subset::len);
            let eye: Vec<_> = (0..n).map(|i| (i, i, 1.0)).collect();
            return Ok((CsrMatrix::from_triplets(n, n, eye)?, 0.0));
        }
        Ok((
            self.rates
                .transpose_scaled_add_diag(1.0 / nu, &stay, keep)?,
            nu,
        ))
    }

    /// [`Ctmc::uniformised_transposed`] with automatic representation
    /// selection:
    ///
    /// 1. **banded (DIA)** when the rate matrix occupies a few densely
    ///    populated diagonals ([`BandedMatrix::is_profitable`]); `Pᵀ` is
    ///    then emitted directly in DIA form, never as a CSR matrix;
    /// 2. **length-sorted rows** ([`EllMatrix`]) otherwise, like the
    ///    discretised Fig. 8 chains whose five diagonals are too sparse
    ///    for DIA. The layout stores no padding, so it never touches
    ///    more slots than CSR.
    ///
    /// The sorted form is built from the CSR emission, so there is one
    /// emission path, and its rows carry CSR's bits. An all-absorbing
    /// chain (`ν = 0`) gets the CSR identity.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `factor < 1`.
    pub fn uniformised_transposed_auto(
        &self,
        factor: f64,
    ) -> Result<(TransitionMatrix, f64), MarkovError> {
        self.uniformised_transposed_auto_on(factor, None)
    }

    /// [`Ctmc::uniformised_transposed_auto`] with the sorted-row form
    /// emitted on `keep` only ([`Ctmc::uniformised_transposed_on`]). The
    /// banded probe and a banded result always cover the full chain:
    /// DIA diagonals and the active window are laid out on the full
    /// state index, so a `Banded` result has `n_states()` rows whatever
    /// `keep` says.
    ///
    /// # Errors
    ///
    /// As for [`Ctmc::uniformised_transposed_on`].
    pub fn uniformised_transposed_auto_on(
        &self,
        factor: f64,
        keep: Option<&Subset>,
    ) -> Result<(TransitionMatrix, f64), MarkovError> {
        let (nu, stay) = self.uniformisation_diagonal(factor)?;
        if nu == 0.0 {
            let (eye, _) = self.uniformised_transposed_on(factor, keep)?;
            return Ok((TransitionMatrix::Csr(eye), 0.0));
        }
        if let Some(banded) =
            BandedMatrix::transposed_scaled_add_diag(&self.rates, 1.0 / nu, &stay)?
        {
            return Ok((TransitionMatrix::Banded(banded), nu));
        }
        let pt = self
            .rates
            .transpose_scaled_add_diag(1.0 / nu, &stay, keep)?;
        Ok((TransitionMatrix::Ell(EllMatrix::from_csr(&pt)?), nu))
    }

    /// [`Ctmc::uniformised_transposed_auto`] forced to banded storage,
    /// regardless of profitability (benchmark baselines compare the
    /// representations; production code should use the auto variant).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `factor < 1`.
    pub fn uniformised_transposed_banded(
        &self,
        factor: f64,
    ) -> Result<(BandedMatrix, f64), MarkovError> {
        let (nu, stay) = self.uniformisation_diagonal(factor)?;
        if nu == 0.0 {
            let (eye, _) = self.uniformised_transposed(factor)?;
            return Ok((BandedMatrix::from_csr(&eye)?, 0.0));
        }
        match BandedMatrix::transposed_scaled_add_diag(&self.rates, 1.0 / nu, &stay)? {
            Some(banded) => Ok((banded, nu)),
            None => {
                let pt = self
                    .rates
                    .transpose_scaled_add_diag(1.0 / nu, &stay, None)?;
                Ok((BandedMatrix::from_csr(&pt)?, nu))
            }
        }
    }

    /// Shared uniformisation setup: validates `factor`, computes ν and
    /// the self-loop probabilities `1 − qᵢ/ν` (empty when ν = 0).
    fn uniformisation_diagonal(&self, factor: f64) -> Result<(f64, Vec<f64>), MarkovError> {
        if !(factor >= 1.0) {
            return Err(MarkovError::InvalidArgument(format!(
                "uniformisation factor must be ≥ 1, got {factor}"
            )));
        }
        let nu = self.max_exit_rate() * factor;
        if nu == 0.0 {
            return Ok((0.0, Vec::new()));
        }
        let stay: Vec<f64> = self.exit.iter().map(|&q| 1.0 - q / nu).collect();
        // Pᵀ ≥ 0 (qᵢ ≤ max q ≤ ν): the restricted sweep's exact zeros rely on it.
        debug_assert!(stay.iter().all(|&p| p >= 0.0), "negative self-loop");
        Ok((nu, stay))
    }

    /// The states reachable from the support of `alpha` (its non-zero
    /// entries) along the chain's transitions, by one graph search over
    /// the rate pattern in `O(n + nnz)`. The set is closed under the
    /// chain's transitions, and depends only on the pattern and the
    /// support, never on rate values: a stored zero rate still counts as
    /// an edge.
    ///
    /// Starting from a non-negative `alpha`, every state outside the set
    /// has probability exactly `+0.0` at every time, which is what lets
    /// the transient engines sweep only the set.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidDistribution`] when `alpha` has the wrong
    /// length.
    pub fn reachable_from(&self, alpha: &[f64]) -> Result<Subset, MarkovError> {
        if alpha.len() != self.n {
            return Err(MarkovError::InvalidDistribution(format!(
                "length {} but chain has {} states",
                alpha.len(),
                self.n
            )));
        }
        let mut seen: Vec<bool> = alpha.iter().map(|&p| p != 0.0).collect();
        let mut stack: Vec<usize> = (0..self.n).filter(|&i| seen[i]).collect();
        while let Some(i) = stack.pop() {
            for (j, _) in self.rates.row(i) {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        Subset::from_mask(&seen)
    }

    /// Validates that `alpha` is a probability distribution over the state
    /// space (length `n`, entries in `[0,1]`, sum ≈ 1).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidDistribution`] describing the violation.
    pub fn check_distribution(&self, alpha: &[f64]) -> Result<(), MarkovError> {
        if alpha.len() != self.n {
            return Err(MarkovError::InvalidDistribution(format!(
                "length {} but chain has {} states",
                alpha.len(),
                self.n
            )));
        }
        if alpha.iter().any(|&p| !(0.0..=1.0 + 1e-9).contains(&p)) {
            return Err(MarkovError::InvalidDistribution(
                "entry outside [0, 1]".into(),
            ));
        }
        let total: f64 = alpha.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(MarkovError::InvalidDistribution(format!("sums to {total}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 0, 3.0).unwrap();
        b.label(0, "on").label(1, "off");
        b.build().unwrap()
    }

    #[test]
    fn builder_validation() {
        let mut b = CtmcBuilder::new(2);
        assert!(matches!(
            b.rate(2, 0, 1.0),
            Err(MarkovError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            b.rate(0, 5, 1.0),
            Err(MarkovError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            b.rate(0, 0, 1.0),
            Err(MarkovError::SelfLoop { .. })
        ));
        assert!(matches!(
            b.rate(0, 1, -1.0),
            Err(MarkovError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.rate(0, 1, f64::NAN),
            Err(MarkovError::InvalidRate { .. })
        ));
        b.rate(0, 1, 0.0).unwrap(); // zero rates allowed, ignored
        assert!(matches!(
            CtmcBuilder::new(0).build(),
            Err(MarkovError::EmptyChain)
        ));
    }

    #[test]
    fn rates_accumulate() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.5).unwrap();
        b.rate(0, 1, 0.5).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.rates().get(0, 1), 2.0);
        assert_eq!(c.exit_rate(0), 2.0);
    }

    #[test]
    fn exit_rates_and_absorbing() {
        let c = two_state();
        assert_eq!(c.exit_rate(0), 2.0);
        assert_eq!(c.exit_rate(1), 3.0);
        assert_eq!(c.max_exit_rate(), 3.0);
        assert!(!c.is_absorbing(0));

        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(c.is_absorbing(1));
    }

    #[test]
    fn labels_and_lookup() {
        let c = two_state();
        assert_eq!(c.state_label(0), "on");
        assert_eq!(c.find_state("off"), Some(1));
        assert_eq!(c.find_state("missing"), None);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let c = two_state();
        let q = c.generator_dense();
        for i in 0..2 {
            let s: f64 = q.row(i).iter().sum();
            assert!(s.abs() < 1e-15);
        }
        assert_eq!(q[(0, 0)], -2.0);
        assert_eq!(q[(0, 1)], 2.0);
    }

    #[test]
    fn uniformised_is_stochastic() {
        let c = two_state();
        let (p, nu) = c.uniformised(1.02).unwrap();
        assert!((nu - 3.06).abs() < 1e-12);
        for i in 0..2 {
            let total: f64 = p.row(i).map(|(_, v)| v).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
        // Fastest state keeps positive self-loop thanks to factor > 1.
        assert!(p.get(1, 1) > 0.0);
        assert!(c.uniformised(0.5).is_err());
    }

    #[test]
    fn uniformised_transposed_is_transpose_of_uniformised() {
        let mut b = CtmcBuilder::new(4);
        for (f, t, r) in [
            (0usize, 1usize, 1.2),
            (0, 3, 0.4),
            (1, 2, 2.3),
            (2, 3, 1.7),
            (3, 0, 0.9),
        ] {
            b.rate(f, t, r).unwrap();
        }
        let c = b.build().unwrap();
        let (p, nu) = c.uniformised(1.02).unwrap();
        let (pt, nu_t) = c.uniformised_transposed(1.02).unwrap();
        assert_eq!(nu, nu_t);
        assert_eq!(pt, p.transpose());
        // Columns of Pᵀ sum to 1 (rows of the stochastic P).
        let col_sums = pt.vec_mul(&[1.0; 4]).unwrap();
        for s in col_sums {
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!(c.uniformised_transposed(0.5).is_err());
        // All-absorbing: Pᵀ = I with ν = 0.
        let absorbing = CtmcBuilder::new(2).build().unwrap();
        let (pt, nu) = absorbing.uniformised_transposed(1.0).unwrap();
        assert_eq!(nu, 0.0);
        assert_eq!(pt.get(0, 0), 1.0);
        assert_eq!(pt.get(1, 1), 1.0);
    }

    #[test]
    fn auto_representation_picks_banded_for_lattices_only() {
        // A birth–death lattice: 2 offsets on many states → banded.
        let n = 64;
        let mut b = CtmcBuilder::new(n);
        for i in 1..n {
            b.rate(i, i - 1, 1.0).unwrap();
            if i + 1 < n {
                b.rate(i, i + 1, 0.5).unwrap();
            }
        }
        let lattice = b.build().unwrap();
        let (auto, nu) = lattice.uniformised_transposed_auto(1.02).unwrap();
        let (csr, nu_csr) = lattice.uniformised_transposed(1.02).unwrap();
        assert_eq!(nu, nu_csr);
        let banded = auto.as_banded().expect("lattice goes banded");
        assert_eq!(banded.to_csr(), csr, "same matrix either way");
        // The forced-banded variant agrees too.
        let (forced, nu_b) = lattice.uniformised_transposed_banded(1.02).unwrap();
        assert_eq!(nu_b, nu);
        assert_eq!(&forced, banded);

        // Short uneven rows scattered over many diagonals: DIA does not
        // pay → sorted rows, touching exactly Pᵀ's non-zeros.
        let n = 64;
        let mut b = CtmcBuilder::new(n);
        for i in 0..n {
            b.rate(i, (i * 7 + 1) % n, 1.0 + (i % 3) as f64).unwrap();
            if i % 2 == 0 {
                b.rate(i, (i * 13 + 5) % n, 0.5).unwrap();
            }
        }
        let scattered = b.build().unwrap();
        let (auto, nu) = scattered.uniformised_transposed_auto(1.02).unwrap();
        let (pt_csr, nu_csr) = scattered.uniformised_transposed(1.02).unwrap();
        assert_eq!(nu, nu_csr);
        let ell = auto.as_ell().expect("short uneven rows go to sorted rows");
        assert!(auto.as_banded().is_none());
        assert_eq!(ell.to_csr(), pt_csr, "same matrix either way");
        assert_eq!(auto.entries_per_product(), pt_csr.nnz(), "no padding");
        let (forced, _) = scattered.uniformised_transposed_banded(1.02).unwrap();
        assert_eq!(forced.to_csr(), pt_csr);

        // One hub row: every state also feeds state 0, so Pᵀ's row 0
        // holds n entries. Without padding that costs nothing extra: the
        // hub row is a block of its own, and a product still touches
        // exactly the non-zeros.
        let mut b = CtmcBuilder::new(n);
        for i in 1..n {
            b.rate(i, 0, 0.3).unwrap();
            b.rate(i, (i * 7 + 1) % n, 1.0).unwrap();
        }
        b.rate(0, 1, 1.0).unwrap();
        let hub = b.build().unwrap();
        let (auto, _) = hub.uniformised_transposed_auto(1.02).unwrap();
        let (pt_csr, _) = hub.uniformised_transposed(1.02).unwrap();
        let ell = auto.as_ell().expect("hub chain goes to sorted rows");
        assert_eq!(ell.order().last(), Some(&0), "the hub row sorts last");
        assert_eq!(auto.entries_per_product(), pt_csr.nnz());

        // A tiny chain scatters over too many diagonals for its size: not
        // banded; forced banded still works.
        let mut b = CtmcBuilder::new(4);
        for (f, t, r) in [(0usize, 1usize, 1.2), (0, 3, 0.4), (1, 2, 2.3), (3, 0, 0.9)] {
            b.rate(f, t, r).unwrap();
        }
        let dense = b.build().unwrap();
        let (auto, _) = dense.uniformised_transposed_auto(1.02).unwrap();
        assert!(
            auto.as_banded().is_none(),
            "unstructured chain is not banded"
        );
        let (pt_csr, _) = dense.uniformised_transposed(1.02).unwrap();
        assert_eq!(auto.as_ell().map(EllMatrix::to_csr), Some(pt_csr.clone()));
        let (forced, _) = dense.uniformised_transposed_banded(1.02).unwrap();
        assert_eq!(forced.to_csr(), pt_csr);

        // All-absorbing: identity at ν = 0, in both variants.
        let absorbing = CtmcBuilder::new(3).build().unwrap();
        let (eye, nu) = absorbing.uniformised_transposed_auto(1.0).unwrap();
        assert_eq!(nu, 0.0);
        assert_eq!(eye.rows(), 3);
        assert_eq!(eye.entries_per_product(), 3);
        let (eye_b, nu_b) = absorbing.uniformised_transposed_banded(1.0).unwrap();
        assert_eq!(nu_b, 0.0);
        assert_eq!(eye_b.offsets(), &[0]);
        assert!(absorbing.uniformised_transposed_auto(0.5).is_err());
        assert!(absorbing.uniformised_transposed_banded(0.5).is_err());
    }

    #[test]
    fn from_rate_matrix_validates_generator_invariants() {
        let rates = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let c = Ctmc::from_rate_matrix(rates).unwrap();
        assert_eq!(c.n_states(), 2);
        assert_eq!(c.exit_rate(0), 2.0);
        assert_eq!(c.state_label(1), "s1");

        let self_loop = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            Ctmc::from_rate_matrix(self_loop),
            Err(MarkovError::SelfLoop { state: 0 })
        ));
        let negative = CsrMatrix::from_triplets(2, 2, vec![(0, 1, -1.0)]).unwrap();
        assert!(matches!(
            Ctmc::from_rate_matrix(negative),
            Err(MarkovError::InvalidRate { .. })
        ));
        let rect = CsrMatrix::zeros(2, 3);
        assert!(Ctmc::from_rate_matrix(rect).is_err());
        assert!(matches!(
            Ctmc::from_rate_matrix(CsrMatrix::zeros(0, 0)),
            Err(MarkovError::EmptyChain)
        ));
    }

    #[test]
    fn reachable_from_follows_the_pattern_from_the_support() {
        // 0 → 1 → 2, 3 → 1 (3 is entered from nowhere), 4 → 3 with a
        // stored zero rate refilled in.
        let mut b = CtmcBuilder::new(5);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 2, 1.0).unwrap();
        b.rate(3, 1, 1.0).unwrap();
        b.rate(2, 4, 1.0).unwrap();
        b.rate(4, 3, 1.0).unwrap();
        let chain = b.build().unwrap();
        let from_0 = chain.reachable_from(&[1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(from_0.is_full());
        let from_3 = chain.reachable_from(&[0.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(from_3.indices(), &[1, 2, 3, 4]);
        // −0.0 is not support; a stored zero rate is still an edge.
        let from_2 = chain.reachable_from(&[-0.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        assert_eq!(from_2.indices(), &[1, 2, 3, 4]);
        let zeroed = chain
            .with_rate_values(vec![1.0, 1.0, 1.0, 1.0, 0.0])
            .unwrap();
        assert_eq!(
            zeroed.reachable_from(&[0.0, 0.0, 1.0, 0.0, 0.0]),
            Ok(from_2)
        );
        assert!(chain.reachable_from(&[1.0]).is_err());
    }

    #[test]
    fn uniformised_transposed_on_is_the_principal_submatrix() {
        // 0 ⇄ 1 → 2, and 3 → 0, 3 → 2 unreachable from 0: the kept block
        // keeps the full chain's ν (set by state 3) and self-loops.
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 0.5).unwrap();
        b.rate(1, 2, 2.0).unwrap();
        b.rate(3, 0, 4.0).unwrap();
        b.rate(3, 2, 3.0).unwrap();
        let chain = b.build().unwrap();
        let keep = chain.reachable_from(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(keep.indices(), &[0, 1, 2]);
        let (full, nu) = chain.uniformised_transposed(1.02).unwrap();
        let (sub, nu_sub) = chain.uniformised_transposed_on(1.02, Some(&keep)).unwrap();
        assert_eq!(nu_sub.to_bits(), nu.to_bits());
        assert_eq!(sub.rows(), 3);
        for (p, &i) in keep.indices().iter().enumerate() {
            for (q, &j) in keep.indices().iter().enumerate() {
                let (i, j) = (i as usize, j as usize);
                assert_eq!(sub.get(p, q).to_bits(), full.get(i, j).to_bits());
            }
        }
        assert_eq!(
            sub.nnz(),
            6,
            "3 self-loops and 3 rates; state 3's column dropped"
        );
        // A set that is not closed is refused.
        let open = Subset::from_mask(&[true, false, true, true]).unwrap();
        assert!(chain.uniformised_transposed_on(1.02, Some(&open)).is_err());
        let short = Subset::from_mask(&[true, true]).unwrap();
        assert!(chain.uniformised_transposed_on(1.02, Some(&short)).is_err());
        // Auto emits its sorted rows on the set.
        let (auto, _) = chain
            .uniformised_transposed_auto_on(1.02, Some(&keep))
            .unwrap();
        assert_eq!(auto.rows(), 3);
    }

    #[test]
    fn with_rate_values_reuses_the_pattern() {
        let c = two_state();
        let scaled = c.with_rate_values(vec![4.0, 6.0]).unwrap();
        assert_eq!(scaled.rates().get(0, 1), 4.0);
        assert_eq!(scaled.rates().get(1, 0), 6.0);
        assert_eq!(scaled.exit_rate(0), 4.0);
        assert_eq!(scaled.exit_rate(1), 6.0);
        // Labels and the structural fingerprint carry over.
        assert_eq!(scaled.state_label(0), "on");
        assert_eq!(c.structural_fingerprint(), scaled.structural_fingerprint());
        assert!(c.rates().same_pattern(scaled.rates()));
        // Validation still applies to the new values.
        assert!(c.with_rate_values(vec![1.0]).is_err());
        assert!(c.with_rate_values(vec![-1.0, 2.0]).is_err());
        assert!(c.with_rate_values(vec![f64::INFINITY, 2.0]).is_err());
        // A structurally different chain fingerprints differently.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 2.0).unwrap();
        let one_way = b.build().unwrap();
        assert_ne!(c.structural_fingerprint(), one_way.structural_fingerprint());
    }

    #[test]
    fn default_labels_are_lazy_but_searchable() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.state_label(0), "s0");
        assert_eq!(c.state_label(2), "s2");
        assert_eq!(c.find_state("s1"), Some(1));
        assert_eq!(c.find_state("s3"), None, "out of range");
        assert_eq!(c.find_state("s01"), None, "non-canonical spelling");
        assert_eq!(c.find_state("x0"), None);
    }

    #[test]
    fn uniformised_all_absorbing() {
        let c = CtmcBuilder::new(3).build().unwrap();
        let (p, nu) = c.uniformised(1.0).unwrap();
        assert_eq!(nu, 0.0);
        for i in 0..3 {
            assert_eq!(p.get(i, i), 1.0);
        }
    }

    #[test]
    fn distribution_checks() {
        let c = two_state();
        assert!(c.check_distribution(&[0.5, 0.5]).is_ok());
        assert!(c.check_distribution(&[0.5]).is_err());
        assert!(c.check_distribution(&[0.7, 0.7]).is_err());
        assert!(c.check_distribution(&[-0.1, 1.1]).is_err());
    }
}
