//! Banded (DIA-style) matrices for the discretised battery lattice.
//!
//! The paper's §5 chain lives on a regular 2-D lattice over
//! `(available, bound)` charge levels: every transition moves the state
//! index by one of a handful of fixed deltas (workload hop `±1`,
//! consumption `−J₂·|S|`, recovery `+(J₂−1)·|S|`), so the uniformised
//! matrix `Pᵀ` is **banded** — a few diagonals carry every non-zero.
//! [`BandedMatrix`] stores exactly those diagonals: no column indices
//! (CSR spends 4 bytes of index per 8-byte value), and the inner loops
//! are branch-free over a fixed offset list, so a product streams
//! roughly half the memory per non-zero.
//!
//! The format also makes *support growth* predictable: one product can
//! widen the support of a vector by at most the extreme offsets, which
//! is what the active-window iteration in [`crate::transient`] exploits
//! to skip the untouched part of the state space entirely.
//!
//! Conversion from [`CsrMatrix`] is automatic ([`BandedMatrix::from_csr`]
//! detects the occupied diagonals); [`BandedMatrix::is_profitable`] is
//! the storage heuristic callers use to decide between representations,
//! and [`TransitionMatrix`] / [`MatrixRef`] let the transient engines and
//! the [`SpmvPool`](crate::pool::SpmvPool) dispatch on whichever
//! representation a chain ended up with.

use crate::ell::EllMatrix;
use crate::sparse::{padding_pays, CsrMatrix};
use crate::MarkovError;
use std::ops::Range;

/// Interior rows processed per cache block of the banded kernel: the
/// output slice (8 bytes/row) stays L1-resident across the per-diagonal
/// axpy passes, so diagonal-major vectorisation costs no extra memory
/// traffic over a single row-major sweep.
const INTERIOR_BLOCK_ROWS: usize = 2048;

/// Cap on the number of distinct diagonals a matrix may occupy before
/// the DIA representation is considered degenerate regardless of its
/// storage footprint (the per-row offset loop stops being "a handful of
/// fixed stencil offsets" and CSR's indexed rows win).
pub const MAX_PROFITABLE_OFFSETS: usize = 64;

/// A square sparse matrix stored by diagonals (DIA format).
///
/// `values[d·n + r]` holds `A[r][r + offsets[d]]`; slots whose column
/// would fall outside the matrix are stored as `0.0` and never read by
/// the kernels. Offsets are strictly increasing and deduplicated.
///
/// # Examples
///
/// ```
/// use markov::banded::BandedMatrix;
/// use markov::sparse::CsrMatrix;
///
/// let csr = CsrMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (1, 2, 2.0), (2, 1, 5.0)]).unwrap();
/// let band = BandedMatrix::from_csr(&csr).unwrap();
/// assert_eq!(band.offsets(), &[-1, 1]);
/// assert_eq!(band.mul_vec(&[1.0, 1.0, 1.0]).unwrap(), vec![2.0, 2.0, 5.0]);
/// assert_eq!(band.to_csr(), csr);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    offsets: Vec<isize>,
    /// Row-aligned diagonal storage, `offsets.len() × n`.
    values: Vec<f64>,
}

impl BandedMatrix {
    /// The sorted distinct diagonal offsets `col − row` occupied by a
    /// square CSR matrix (empty for an all-zero matrix). This is the
    /// structure probe behind automatic representation selection and the
    /// discretiser's bandwidth metadata.
    pub fn detect_offsets(m: &CsrMatrix) -> Vec<isize> {
        let mut seen = std::collections::BTreeSet::new();
        for (r, c, _) in m.iter() {
            seen.insert(c as isize - r as isize);
        }
        seen.into_iter().collect()
    }

    /// Whether DIA storage pays off for a square matrix occupying
    /// `offsets` diagonals: the `offsets·n` diagonal slots must pass the
    /// shared [`padding_pays`] break-even against the `nnz + n` entries
    /// of `Pᵀ` (empty diagonals beyond it waste bandwidth) and the offset
    /// list must stay a small fixed stencil ([`MAX_PROFITABLE_OFFSETS`]).
    pub fn is_profitable(n: usize, nnz: usize, offsets: usize) -> bool {
        offsets > 0
            && offsets <= MAX_PROFITABLE_OFFSETS
            && padding_pays(offsets.saturating_mul(n), nnz + n)
    }

    /// Converts a square CSR matrix to banded storage, detecting the
    /// occupied diagonals automatically. The conversion is exact for
    /// every square matrix (a dense matrix simply occupies `2n − 1`
    /// diagonals); use [`BandedMatrix::is_profitable`] to decide whether
    /// it is worth doing.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the matrix is not square.
    pub fn from_csr(m: &CsrMatrix) -> Result<BandedMatrix, MarkovError> {
        if m.rows() != m.cols() {
            return Err(MarkovError::InvalidArgument(format!(
                "banded storage needs a square matrix, got {}x{}",
                m.rows(),
                m.cols()
            )));
        }
        let offsets = BandedMatrix::detect_offsets(m);
        let n = m.rows();
        let mut values = vec![0.0; offsets.len() * n];
        for (r, c, v) in m.iter() {
            let off = c as isize - r as isize;
            let d = offsets.binary_search(&off).expect("detected offset");
            values[d * n + r] = v;
        }
        Ok(BandedMatrix { n, offsets, values })
    }

    /// Builds `(scale·A + diag(d))ᵀ` in banded form straight from a
    /// square CSR matrix — the uniformisation hot-path primitive
    /// ([`crate::ctmc::Ctmc::uniformised_transposed`] emits CSR; this is
    /// its banded twin, so lattice chains never materialise a generic
    /// CSR `Pᵀ`). One pass over the CSR entries scatters each value onto
    /// the mirrored diagonal: `Aᵀ[c][c + (r − c)] = A[r][c]`.
    ///
    /// Returns `None` when the occupied diagonals fail
    /// [`BandedMatrix::is_profitable`] — the caller falls back to CSR.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the matrix is not square or
    /// `diag.len()` differs from the dimension.
    pub fn transposed_scaled_add_diag(
        m: &CsrMatrix,
        scale: f64,
        diag: &[f64],
    ) -> Result<Option<BandedMatrix>, MarkovError> {
        if m.rows() != m.cols() || diag.len() != m.rows() {
            return Err(MarkovError::InvalidArgument(format!(
                "transposed_scaled_add_diag: matrix is {}x{}, diagonal has {} entries",
                m.rows(),
                m.cols(),
                diag.len()
            )));
        }
        let n = m.rows();
        // Offsets of the transpose are the negated source offsets, plus
        // the main diagonal for `diag`.
        let mut offsets: Vec<isize> = BandedMatrix::detect_offsets(m)
            .into_iter()
            .map(|o| -o)
            .collect();
        offsets.reverse(); // negation reverses the sort order
        if let Err(pos) = offsets.binary_search(&0) {
            offsets.insert(pos, 0);
        }
        if !BandedMatrix::is_profitable(n, m.nnz(), offsets.len()) {
            return Ok(None);
        }
        let d0 = offsets.binary_search(&0).expect("main diagonal inserted");
        let mut values = vec![0.0; offsets.len() * n];
        for (r, c, v) in m.iter() {
            let off = r as isize - c as isize; // offset in the transpose
            let d = offsets.binary_search(&off).expect("detected offset");
            values[d * n + c] = scale * v;
        }
        for (r, &dv) in diag.iter().enumerate() {
            values[d0 * n + r] += dv;
        }
        Ok(Some(BandedMatrix { n, offsets, values }))
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The occupied diagonal offsets, strictly increasing.
    #[inline]
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// The largest `|offset|` — how far one product can move support.
    pub fn bandwidth(&self) -> usize {
        self.offsets
            .iter()
            .map(|o| o.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Number of stored non-zero values (zero slots inside a stored
    /// diagonal do not count; they are padding, not entries).
    pub fn nnz(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0.0).count()
    }

    /// Number of in-range slots the kernels touch per full product
    /// (Σ over diagonals of their valid length) — the denominator of the
    /// active-window savings metric.
    pub fn stored_entries(&self) -> usize {
        self.offsets
            .iter()
            .map(|&off| self.valid_rows(off).len())
            .sum()
    }

    /// In-range slots touched by a product restricted to `rows` (the
    /// per-iteration cost of a windowed product).
    pub fn entries_in(&self, rows: &Range<usize>) -> usize {
        self.offsets
            .iter()
            .map(|&off| {
                let valid = self.valid_rows(off);
                valid
                    .end
                    .min(rows.end)
                    .saturating_sub(valid.start.max(rows.start))
            })
            .sum()
    }

    /// Looks up entry `(r, c)` (zero when absent).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        if r >= self.n || c >= self.n {
            return 0.0;
        }
        match self.offsets.binary_search(&(c as isize - r as isize)) {
            Ok(d) => self.values[d * self.n + r],
            Err(_) => 0.0,
        }
    }

    /// The same matrix in CSR form (round-trip partner of
    /// [`BandedMatrix::from_csr`]; padding zeros are dropped).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.values.len());
        for (d, &off) in self.offsets.iter().enumerate() {
            for r in self.valid_rows(off) {
                let v = self.values[d * self.n + r];
                if v != 0.0 {
                    triplets.push((r, (r as isize + off) as usize, v));
                }
            }
        }
        CsrMatrix::from_triplets(self.n, self.n, triplets).expect("in-range by construction")
    }

    /// The rows for which diagonal `off` has an in-range column.
    #[inline]
    fn valid_rows(&self, off: isize) -> Range<usize> {
        let lo = if off < 0 { (-off) as usize } else { 0 };
        let hi = if off > 0 {
            self.n - (off as usize).min(self.n)
        } else {
            self.n
        };
        lo..hi.max(lo)
    }

    /// Grows a support window by one product: if `x` is zero outside
    /// `window`, then `A·x` is zero outside the returned range. The
    /// result always contains the input window (so steady-state
    /// comparisons of `y` against `x` over the grown window see every
    /// non-zero of either), clamped to `0..n`.
    pub fn grow_window(&self, window: &Range<usize>) -> Range<usize> {
        if window.is_empty() || self.offsets.is_empty() {
            return window.clone();
        }
        let min_off = *self.offsets.first().expect("non-empty");
        let max_off = *self.offsets.last().expect("non-empty");
        // Row r reads x[r + off]: r can be non-zero for
        // r ∈ [window.start − max_off, window.end − min_off).
        let lo = (window.start as isize - max_off).max(0) as usize;
        let hi = ((window.end as isize - min_off).max(0) as usize).min(self.n);
        lo.min(window.start)..hi.max(window.end)
    }

    /// Dense matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, MarkovError> {
        if x.len() != self.n {
            return Err(MarkovError::InvalidArgument(format!(
                "mul_vec: x has {} entries, need {}",
                x.len(),
                self.n
            )));
        }
        let mut y = vec![0.0; self.n];
        self.mul_vec_range_into(x, &mut y, 0..self.n);
        Ok(y)
    }

    /// The shared row-block kernel, mirroring
    /// [`CsrMatrix::mul_vec_range_into`]: `y_block[i] = (A·x)[rows.start + i]`.
    ///
    /// The requested row range is split into at most `bandwidth` edge
    /// rows at each end (bounds-checked, row-major) and the interior,
    /// where every diagonal is in range by construction. The interior
    /// runs **diagonal-major**: one zero fill of the output segment,
    /// then one elementwise multiply–accumulate per diagonal through
    /// `axpy_diagonal`, a 4-lane unrolled portable loop.
    /// Per row the contributions still arrive in increasing column
    /// order (diagonals are processed in offset order), matching the
    /// CSR kernel's accumulation order, so the output is bit-compatible
    /// with [`CsrMatrix::mul_vec_range_into`].
    pub fn mul_vec_range_into(&self, x: &[f64], y_block: &mut [f64], rows: Range<usize>) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y_block.len(), rows.len());
        debug_assert!(rows.end <= self.n);
        let start = rows.start;
        // Rows where every diagonal is in range: the vectorisable bulk.
        let mut interior_lo = 0usize;
        let mut interior_hi = self.n;
        for &off in &self.offsets {
            let valid = self.valid_rows(off);
            interior_lo = interior_lo.max(valid.start);
            interior_hi = interior_hi.min(valid.end);
        }
        let interior_hi = interior_hi.max(interior_lo);
        let ilo = rows.start.max(interior_lo).min(rows.end);
        let ihi = rows.end.min(interior_hi).max(ilo);

        // Edge rows (≤ bandwidth at each end): row-major with checks.
        let edge = |r: usize, out: &mut f64| {
            let mut acc = 0.0;
            for (d, &off) in self.offsets.iter().enumerate() {
                let c = r as isize + off;
                if c >= 0 && (c as usize) < self.n {
                    acc += self.values[d * self.n + r] * x[c as usize];
                }
            }
            *out = acc;
        };
        let (head, rest) = y_block.split_at_mut(ilo - start);
        let (mid, tail) = rest.split_at_mut(ihi - ilo);
        for (i, out) in head.iter_mut().enumerate() {
            edge(start + i, out);
        }
        // Interior, diagonal-major within cache-sized row blocks:
        // y[blk] = Σ_d diag_d ⊙ x≫off, one slice-zip axpy per diagonal
        // (auto-vectorised, no bounds checks), with the block's output
        // staying in L1 across the axpys. The emptiness guard matters: a
        // row range that lies wholly inside the edge region clamps to an
        // empty interior whose shifted x-slice bounds would underflow.
        let mut blk_lo = ilo;
        while blk_lo < ihi {
            let blk_hi = (blk_lo + INTERIOR_BLOCK_ROWS).min(ihi);
            let yb = &mut mid[blk_lo - ilo..blk_hi - ilo];
            yb.fill(0.0);
            for (d, &off) in self.offsets.iter().enumerate() {
                let vals = &self.values[d * self.n + blk_lo..d * self.n + blk_hi];
                let xs = &x[(blk_lo as isize + off) as usize..(blk_hi as isize + off) as usize];
                axpy_diagonal(yb, vals, xs);
            }
            blk_lo = blk_hi;
        }
        for (i, out) in tail.iter_mut().enumerate() {
            edge(ihi + i, out);
        }
    }
}

/// `y[i] += v[i] * x[i]` over three equal-length slices: the DIA
/// interior's per-diagonal pass, unrolled four lanes wide so the
/// compiler emits straight-line code it reliably auto-vectorises.
///
/// Each element is updated independently (no horizontal reduction)
/// with an exact multiply then add, never a fused multiply–add, so any
/// lane width or unroll factor gives bits identical to the naive loop.
#[inline]
fn axpy_diagonal(y: &mut [f64], v: &[f64], x: &[f64]) {
    debug_assert_eq!(y.len(), v.len());
    debug_assert_eq!(y.len(), x.len());
    let mut yq = y.chunks_exact_mut(4);
    let mut vq = v.chunks_exact(4);
    let mut xq = x.chunks_exact(4);
    for ((yc, vc), xc) in (&mut yq).zip(&mut vq).zip(&mut xq) {
        yc[0] += vc[0] * xc[0];
        yc[1] += vc[1] * xc[1];
        yc[2] += vc[2] * xc[2];
        yc[3] += vc[3] * xc[3];
    }
    for ((yr, &vr), &xr) in yq
        .into_remainder()
        .iter_mut()
        .zip(vq.remainder())
        .zip(xq.remainder())
    {
        *yr += vr * xr;
    }
}

/// A borrowed matrix in whichever representation the chain ended up
/// with; the [`SpmvPool`](crate::pool::SpmvPool) kernels dispatch on
/// this, so one engine serves every format. `&CsrMatrix`,
/// `&BandedMatrix` and `&EllMatrix` convert with `.into()`.
#[derive(Debug, Clone, Copy)]
pub enum MatrixRef<'a> {
    /// Generic compressed-sparse-row storage.
    Csr(&'a CsrMatrix),
    /// Diagonal (DIA) storage for banded lattices.
    Banded(&'a BandedMatrix),
    /// Length-sorted rows in 4-row interleaved slices.
    Ell(&'a EllMatrix),
}

impl<'a> From<&'a CsrMatrix> for MatrixRef<'a> {
    fn from(m: &'a CsrMatrix) -> Self {
        MatrixRef::Csr(m)
    }
}

impl<'a> From<&'a BandedMatrix> for MatrixRef<'a> {
    fn from(m: &'a BandedMatrix) -> Self {
        MatrixRef::Banded(m)
    }
}

impl<'a> From<&'a EllMatrix> for MatrixRef<'a> {
    fn from(m: &'a EllMatrix) -> Self {
        MatrixRef::Ell(m)
    }
}

impl<'a> From<&'a TransitionMatrix> for MatrixRef<'a> {
    fn from(m: &'a TransitionMatrix) -> Self {
        m.as_ref()
    }
}

impl MatrixRef<'_> {
    /// Row count.
    pub fn rows(&self) -> usize {
        match self {
            MatrixRef::Csr(m) => m.rows(),
            MatrixRef::Banded(m) => m.rows(),
            MatrixRef::Ell(m) => m.rows(),
        }
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        match self {
            MatrixRef::Csr(m) => m.cols(),
            MatrixRef::Banded(m) => m.cols(),
            MatrixRef::Ell(m) => m.cols(),
        }
    }

    /// The lengths `(x, y)` of the buffers a product takes: the column
    /// and row counts, or for sorted rows [`EllMatrix::buffer_len`] for
    /// both (a power of two, so the kernel's gathers need no bounds
    /// check). A row range is always within `0..rows()`; the slots past
    /// it are never written.
    pub fn buffer_lens(&self) -> (usize, usize) {
        match self {
            MatrixRef::Ell(m) => (m.buffer_len(), m.buffer_len()),
            MatrixRef::Csr(_) | MatrixRef::Banded(_) => (self.cols(), self.rows()),
        }
    }

    /// Splits the rows into `parts` contiguous work ranges: nnz-balanced
    /// for CSR and sorted rows, evenly by row for banded (diagonal storage
    /// carries the same work per interior row by construction). Every
    /// row is computed whole by one worker, so the split never moves a
    /// bit.
    pub fn partition(&self, parts: usize) -> Vec<Range<usize>> {
        match self {
            MatrixRef::Csr(m) => m.nnz_partition(parts),
            MatrixRef::Banded(m) => split_evenly(0..m.rows(), parts),
            MatrixRef::Ell(m) => m.nnz_partition(parts),
        }
    }

    /// Row-block product; see [`CsrMatrix::mul_vec_range_into`].
    #[inline]
    pub fn mul_vec_range_into(&self, x: &[f64], y_block: &mut [f64], rows: Range<usize>) {
        match self {
            MatrixRef::Csr(m) => m.mul_vec_range_into(x, y_block, rows),
            MatrixRef::Banded(m) => m.mul_vec_range_into(x, y_block, rows),
            MatrixRef::Ell(m) => m.mul_vec_range_into(x, y_block, rows),
        }
    }
}

/// An owned transition matrix in whichever representation
/// [`Ctmc::uniformised_transposed_auto`](crate::ctmc::Ctmc::uniformised_transposed_auto)
/// selected.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionMatrix {
    /// Generic CSR (the forced reference engine, and the identity of an
    /// all-absorbing chain).
    Csr(CsrMatrix),
    /// Banded storage (lattices whose diagonals are densely populated).
    Banded(BandedMatrix),
    /// Length-sorted rows (every chain DIA does not pay for).
    Ell(EllMatrix),
}

impl TransitionMatrix {
    /// Borrows the matrix for kernel dispatch.
    pub fn as_ref(&self) -> MatrixRef<'_> {
        match self {
            TransitionMatrix::Csr(m) => MatrixRef::Csr(m),
            TransitionMatrix::Banded(m) => MatrixRef::Banded(m),
            TransitionMatrix::Ell(m) => MatrixRef::Ell(m),
        }
    }

    /// Dimension of the (square) matrix.
    pub fn rows(&self) -> usize {
        self.as_ref().rows()
    }

    /// The banded matrix, when that representation was selected.
    pub fn as_banded(&self) -> Option<&BandedMatrix> {
        match self {
            TransitionMatrix::Banded(m) => Some(m),
            TransitionMatrix::Csr(_) | TransitionMatrix::Ell(_) => None,
        }
    }

    /// The length-sorted rows, when that representation was selected.
    pub fn as_ell(&self) -> Option<&EllMatrix> {
        match self {
            TransitionMatrix::Ell(m) => Some(m),
            TransitionMatrix::Csr(_) | TransitionMatrix::Banded(_) => None,
        }
    }

    /// Slots a full product touches: CSR and sorted rows touch every
    /// stored non-zero, banded every in-range diagonal slot.
    pub fn entries_per_product(&self) -> usize {
        match self {
            TransitionMatrix::Csr(m) => m.nnz(),
            TransitionMatrix::Banded(m) => m.stored_entries(),
            TransitionMatrix::Ell(m) => m.nnz(),
        }
    }
}

/// Splits `range` into `parts` contiguous near-equal subranges (some may
/// be empty when the range is shorter than `parts`). Used for banded
/// partitions and for per-iteration active-window dispatch.
pub(crate) fn split_evenly(range: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let len = range.len();
    let mut out = Vec::with_capacity(parts);
    let mut start = range.start;
    for p in 1..=parts {
        let end = range.start + len * p / parts;
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lattice_like(n: usize) -> CsrMatrix {
        // Offsets {−3, −1, 0, +1}: a toy version of the battery lattice.
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, i, 1.0 + (i % 7) as f64 * 0.1));
            if i + 1 < n {
                trip.push((i, i + 1, 0.5));
            }
            if i >= 1 {
                trip.push((i, i - 1, 0.25 + (i % 3) as f64 * 0.05));
            }
            if i >= 3 {
                trip.push((i, i - 3, 0.125));
            }
        }
        CsrMatrix::from_triplets(n, n, trip).unwrap()
    }

    #[test]
    fn offsets_detected_and_round_trip() {
        let csr = lattice_like(64);
        let band = BandedMatrix::from_csr(&csr).unwrap();
        assert_eq!(band.offsets(), &[-3, -1, 0, 1]);
        assert_eq!(band.bandwidth(), 3);
        assert_eq!(band.to_csr(), csr);
        assert_eq!(band.nnz(), csr.nnz());
        // Every entry individually.
        for r in 0..64 {
            for c in 0..64 {
                assert_eq!(band.get(r, c), csr.get(r, c), "({r}, {c})");
            }
        }
        assert_eq!(band.get(99, 0), 0.0);
    }

    #[test]
    fn degenerate_shapes_round_trip() {
        // All-zero matrix: no offsets at all.
        let zero = CsrMatrix::zeros(5, 5);
        let band = BandedMatrix::from_csr(&zero).unwrap();
        assert!(band.offsets().is_empty());
        assert_eq!(band.to_csr(), zero);
        assert_eq!(band.stored_entries(), 0);
        assert_eq!(band.bandwidth(), 0);

        // Empty rows inside a single diagonal.
        let gaps = CsrMatrix::from_triplets(6, 6, vec![(0, 1, 2.0), (4, 5, 3.0)]).unwrap();
        let band = BandedMatrix::from_csr(&gaps).unwrap();
        assert_eq!(band.offsets(), &[1]);
        assert_eq!(band.to_csr(), gaps);
        assert_eq!(band.nnz(), 2);
        assert_eq!(band.stored_entries(), 5, "valid slots of offset +1");

        // Bandwidth ≥ n: the extreme corner diagonals.
        let corners =
            CsrMatrix::from_triplets(4, 4, vec![(0, 3, 1.0), (3, 0, 2.0), (1, 1, 4.0)]).unwrap();
        let band = BandedMatrix::from_csr(&corners).unwrap();
        assert_eq!(band.offsets(), &[-3, 0, 3]);
        assert_eq!(band.bandwidth(), 3);
        assert_eq!(band.to_csr(), corners);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(band.mul_vec(&x).unwrap(), corners.mul_vec(&x).unwrap());

        // 1×1 matrices: the only diagonal is the main one.
        let one = CsrMatrix::from_triplets(1, 1, vec![(0, 0, 7.0)]).unwrap();
        let band = BandedMatrix::from_csr(&one).unwrap();
        assert_eq!(band.offsets(), &[0]);
        assert_eq!(band.mul_vec(&[2.0]).unwrap(), vec![14.0]);

        // Rectangular matrices are refused.
        assert!(BandedMatrix::from_csr(&CsrMatrix::zeros(2, 3)).is_err());
        assert!(BandedMatrix::from_csr(&lattice_like(8)).is_ok());
    }

    #[test]
    fn kernels_match_csr_on_all_ranges() {
        // Interior blocks are laid from the start of a range's interior.
        // n = 97 fits one block; 4193 = 2·INTERIOR_BLOCK_ROWS + 97 spans
        // three on the full range, and `edge − 8..n` spans two. The short
        // range around `edge` straddles the full range's first block edge,
        // where a pooled split may cut.
        for n in [97, 2 * INTERIOR_BLOCK_ROWS + 97] {
            let csr = lattice_like(n);
            let band = BandedMatrix::from_csr(&csr).unwrap();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
            let edge = INTERIOR_BLOCK_ROWS.min(n / 2);
            for rows in [
                0..n,
                0..1,
                5..17,
                n - 7..n,
                40..40,
                1..n - 1,
                edge - 8..edge + 12,
                edge - 8..n,
            ] {
                let mut yc = vec![0.0; rows.len()];
                let mut yb = vec![0.0; rows.len()];
                csr.mul_vec_range_into(&x, &mut yc, rows.clone());
                band.mul_vec_range_into(&x, &mut yb, rows.clone());
                let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&yc), bits(&yb), "n {n}, rows {rows:?}");
            }
            assert!(band.mul_vec(&x[..5]).is_err());
        }
    }

    #[test]
    fn axpy_diagonal_is_bit_identical_to_the_naive_loop() {
        // Every length through several unroll remainders, with values
        // chosen to exercise rounding (irrational-ish magnitudes).
        for n in 0..33 {
            let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7311).sin() * 3.0).collect();
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 1.133).cos() / 7.0).collect();
            let base: Vec<f64> = (0..n).map(|i| (i as f64) * 0.01 - 0.1).collect();
            let mut expect = base.clone();
            for ((out, &a), &b) in expect.iter_mut().zip(&v).zip(&x) {
                *out += a * b;
            }
            let mut got = base;
            axpy_diagonal(&mut got, &v, &x);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn transposed_scaled_add_diag_matches_csr_reference() {
        let csr = lattice_like(40);
        let diag: Vec<f64> = (0..40).map(|i| 0.3 + (i % 4) as f64 * 0.2).collect();
        let band = BandedMatrix::transposed_scaled_add_diag(&csr, 0.7, &diag)
            .unwrap()
            .expect("profitable");
        let reference = csr.transpose_scaled_add_diag(0.7, &diag, None).unwrap();
        assert_eq!(band.to_csr(), reference);
        // Offsets are the mirrored source offsets plus the main diagonal.
        assert_eq!(band.offsets(), &[-1, 0, 1, 3]);
        assert!(BandedMatrix::transposed_scaled_add_diag(&csr, 1.0, &[1.0]).is_err());
        let rect = CsrMatrix::zeros(2, 3);
        assert!(BandedMatrix::transposed_scaled_add_diag(&rect, 1.0, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn profitability_heuristic() {
        // A 4-offset lattice on 1000 rows: clearly profitable.
        assert!(BandedMatrix::is_profitable(1000, 3500, 4));
        // A matrix scattering over hundreds of diagonals is not.
        assert!(!BandedMatrix::is_profitable(1000, 3500, 200));
        // Nor one whose few diagonals are nearly empty.
        assert!(!BandedMatrix::is_profitable(1000, 40, 10));
        // Zero offsets (all-zero matrix): nothing to gain.
        assert!(!BandedMatrix::is_profitable(1000, 0, 0));
    }

    #[test]
    fn grow_window_contains_reachable_support() {
        let csr = lattice_like(50);
        let band = BandedMatrix::from_csr(&csr).unwrap();
        // x supported on [10, 12): products can reach [9, 15).
        let window = 10..12;
        let grown = band.grow_window(&window);
        assert_eq!(grown, 9..15);
        // The grown window really covers the product's support.
        let mut x = vec![0.0; 50];
        x[10] = 1.0;
        x[11] = 2.0;
        let y = band.mul_vec(&x).unwrap();
        for (r, &v) in y.iter().enumerate() {
            if !(grown.contains(&r)) {
                assert_eq!(v, 0.0, "row {r} outside grown window");
            }
        }
        // Clamped at the boundaries, and never shrinks the input window.
        assert_eq!(band.grow_window(&(0..2)), 0..5);
        assert_eq!(band.grow_window(&(48..50)), 47..50);
        assert_eq!(band.grow_window(&(3..3)), 3..3);
    }

    #[test]
    fn split_evenly_covers_and_balances() {
        let parts = split_evenly(10..50, 4);
        assert_eq!(parts, vec![10..20, 20..30, 30..40, 40..50]);
        let tiny = split_evenly(5..7, 4);
        assert_eq!(tiny.iter().map(Range::len).sum::<usize>(), 2);
        assert_eq!(tiny.first().map(|r| r.start), Some(5));
        assert_eq!(tiny.last().map(|r| r.end), Some(7));
        assert!(tiny.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(split_evenly(3..3, 2), vec![3..3, 3..3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// CSR → banded → CSR is the identity, and the banded kernel
        /// agrees with the CSR kernel, across random sparsity
        /// patterns including empty rows and full-corner offsets.
        #[test]
        fn random_round_trip_and_kernel_agreement(
            n in 1usize..24,
            trip in proptest::collection::vec((0usize..24, 0usize..24, -3.0f64..3.0), 0..60),
            seed in 0.0f64..10.0,
        ) {
            let trip: Vec<_> = trip
                .into_iter()
                .filter(|&(r, c, _)| r < n && c < n)
                .collect();
            let csr = CsrMatrix::from_triplets(n, n, trip).unwrap();
            let band = BandedMatrix::from_csr(&csr).unwrap();
            prop_assert_eq!(band.to_csr(), csr.clone());
            prop_assert_eq!(band.nnz(), csr.nnz());
            let x: Vec<f64> = (0..n).map(|i| ((i as f64 + seed) * 0.37).sin()).collect();
            let mut yc = vec![0.0; n];
            let mut yb = vec![0.0; n];
            csr.mul_vec_range_into(&x, &mut yc, 0..n);
            band.mul_vec_range_into(&x, &mut yb, 0..n);
            prop_assert_eq!(&yc, &yb);
        }
    }
}
