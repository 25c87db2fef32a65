//! Compressed-sparse-row matrices sized for the discretised battery chains.
//!
//! The paper's Fig. 8 experiment discretises a two-well battery at `Δ = 5`,
//! producing a CTMC with ≈ 10⁶ states and ≈ 3.2·10⁶ non-zero rates whose
//! transient solution takes > 4.6·10⁴ matrix–vector products. The format
//! here is plain CSR with `u32` column indices (halving index memory) and
//! row-range products that the persistent worker pool
//! ([`crate::pool::SpmvPool`]) splits across its workers.

use crate::MarkovError;
use std::ops::Range;

/// Row count below which parallel SpMV never pays for itself: the
/// persistent-pool engines fall back to the sequential kernel for
/// smaller matrices. One shared constant so the engines and the
/// benchmark metadata cannot drift apart.
pub const PARALLEL_SPMV_MIN_ROWS: usize = 4096;

/// The slot break-even of diagonal (DIA) storage: storing `entries`
/// values in `slots` uniform slots pays while `slots ≤ 1.5·entries`, the
/// memory break-even of 8 bytes per slot against CSR's 12 per entry.
/// Beyond it the padding streams more than the uniform loop saves.
pub fn padding_pays(slots: usize, entries: usize) -> bool {
    slots <= entries.saturating_mul(3) / 2
}

/// 64-bit FNV-1a over a sequence of `u64` words — the one hash fold
/// behind every structural fingerprint in the workspace
/// ([`CsrMatrix::pattern_fingerprint`], the discretiser's lattice
/// fingerprint), so widening or swapping the hash is a single change.
pub fn fnv1a_u64(words: impl IntoIterator<Item = u64>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// An increasing subset of the indices `0..n`: the rows and columns a
/// restricted square matrix keeps
/// ([`CsrMatrix::transpose_scaled_add_diag`]), with the maps between
/// full and kept positions in both directions.
///
/// # Examples
///
/// ```
/// use markov::sparse::Subset;
///
/// let s = Subset::from_mask(&[true, false, true]).unwrap();
/// assert_eq!(s.indices(), &[0, 2]);
/// assert_eq!(s.position(2), Some(1));
/// assert_eq!(s.position(1), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subset {
    /// The kept indices, increasing.
    kept: Vec<u32>,
    /// `position[i]` is `i`'s place in `kept`, [`Subset::DROPPED`] when
    /// `i` is not kept.
    position: Vec<u32>,
}

impl Subset {
    const DROPPED: u32 = u32::MAX;

    /// The indices whose `mask` entry is `true`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `mask` is longer than the
    /// `u32` index range CSR assembly allows.
    pub fn from_mask(mask: &[bool]) -> Result<Subset, MarkovError> {
        if u32::try_from(mask.len()).is_err() {
            return Err(MarkovError::InvalidArgument(format!(
                "subset of {} indices exceeds u32 range",
                mask.len()
            )));
        }
        let mut kept = Vec::new();
        let position = mask
            .iter()
            .enumerate()
            .map(|(i, &keep)| {
                if !keep {
                    return Subset::DROPPED;
                }
                kept.push(i as u32);
                (kept.len() - 1) as u32
            })
            .collect();
        Ok(Subset { kept, position })
    }

    /// Size of the full index range `0..n` the subset is drawn from.
    pub fn universe(&self) -> usize {
        self.position.len()
    }

    /// Number of kept indices.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// `true` when no index is kept.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// `true` when every index of `0..n` is kept.
    pub fn is_full(&self) -> bool {
        self.kept.len() == self.position.len()
    }

    /// The kept indices, increasing.
    pub fn indices(&self) -> &[u32] {
        &self.kept
    }

    /// Where full index `i` sits among the kept ones, if kept.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe()`.
    #[inline]
    pub fn position(&self, i: usize) -> Option<usize> {
        match self.position[i] {
            Subset::DROPPED => None,
            p => Some(p as usize),
        }
    }

    /// Heap bytes held by the two index maps.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.kept.len() + self.position.len()) * std::mem::size_of::<u32>()
    }
}

/// A sparse `rows × cols` matrix in compressed-sparse-row format.
///
/// Built from `(row, col, value)` triplets; duplicate entries are summed
/// and any cell whose merged sum is exactly zero is dropped.
///
/// # Examples
///
/// ```
/// use markov::sparse::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 2.0), (1, 0, 3.0), (0, 1, 1.0)]).unwrap();
/// assert_eq!(m.nnz(), 2); // duplicates merged
/// assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a matrix from already-validated CSR arrays. Callers must
    /// guarantee the CSR invariants: `row_ptr` has `rows + 1` monotone
    /// entries ending at `col_idx.len()`, every row's columns are strictly
    /// increasing and `< cols`, and `col_idx.len() == values.len()`.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().expect("row_ptr nonempty"), col_idx.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..rows).all(|r| {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&c| (c as usize) < cols)
        }));
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from triplets, merging duplicates by summation
    /// and dropping cells whose merged value is exactly zero (including
    /// duplicates that cancel, e.g. `+1.0` then `−1.0` at the same cell).
    ///
    /// Assembly is two-pass counted scatter — `O(nnz)` up to the sort of
    /// each (small) row — rather than a global `O(nnz log nnz)` sort.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when an index is out of range,
    /// `cols` exceeds `u32` range, or a value is not finite.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: Vec<(usize, usize, f64)>,
    ) -> Result<Self, MarkovError> {
        let mut assembler = CsrAssembler::new(rows, cols)?;
        for &(r, _, _) in &triplets {
            if r >= rows {
                return Err(MarkovError::InvalidArgument(format!(
                    "triplet row {r} out of bounds for {rows}x{cols}"
                )));
            }
            assembler.count(r);
        }
        let mut filler = assembler.into_filler();
        for (r, c, v) in triplets {
            filler.entry(r, c, v)?;
        }
        filler.finish()
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row extents: row `r` occupies `row_ptr[r]..row_ptr[r + 1]` of the
    /// value and column arrays.
    #[inline]
    pub(crate) fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Iterates over `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// The position of entry `(r, c)` within [`CsrMatrix::values`], when
    /// stored. This is the slot a pattern-reuse refill
    /// ([`CsrMatrix::with_values`]) writes the cell's new value to.
    pub fn value_index(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .binary_search(&(c as u32))
            .ok()
            .map(|pos| lo + pos)
    }

    /// Looks up entry `(r, c)` (zero when absent).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        if r >= self.rows || c >= self.cols {
            return 0.0;
        }
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&(c as u32)) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Dense matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, MarkovError> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// Allocation-free `y = A·x` into a caller buffer.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), MarkovError> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(MarkovError::InvalidArgument(format!(
                "mul_vec: x has {} (need {}), y has {} (need {})",
                x.len(),
                self.cols,
                y.len(),
                self.rows
            )));
        }
        self.mul_vec_range_into(x, y, 0..self.rows);
        Ok(())
    }

    /// The shared row-block kernel: computes `y_block[i] = (A·x)[rows.start + i]`
    /// for the given row range. `y_block.len()` must equal `rows.len()` and
    /// `x.len()` must equal `cols`. Every row is accumulated left-to-right by
    /// exactly one caller, so any disjoint partition of the rows produces
    /// output bit-identical to the sequential kernel.
    #[inline]
    pub fn mul_vec_range_into(&self, x: &[f64], y_block: &mut [f64], rows: Range<usize>) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y_block.len(), rows.len());
        debug_assert!(rows.end <= self.rows);
        let start = rows.start;
        for (offset, out) in y_block.iter_mut().enumerate() {
            let r = start + offset;
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *out = acc;
        }
    }

    /// Splits the row space into `parts` contiguous ranges balanced by
    /// **non-zero count** rather than row count, so each range carries
    /// roughly `nnz / parts` of the multiply work even when the sparsity
    /// is skewed (e.g. absorbing rows are empty). Ranges are disjoint, in
    /// order, cover `0..rows`, and may be empty when the matrix has fewer
    /// populated rows than `parts`.
    pub fn nnz_partition(&self, parts: usize) -> Vec<Range<usize>> {
        nnz_partition(&self.row_ptr, parts)
    }

    /// Row-vector × matrix product `y = x·A`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, MarkovError> {
        if x.len() != self.rows {
            return Err(MarkovError::InvalidArgument(format!(
                "vec_mul: x has {} entries, need {}",
                x.len(),
                self.rows
            )));
        }
        let mut y = vec![0.0; self.cols];
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for k in lo..hi {
                y[self.col_idx[k] as usize] += xr * self.values[k];
            }
        }
        Ok(y)
    }

    /// The transposed matrix, built with a counting sort in `O(nnz)`.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for k in lo..hi {
                let c = self.col_idx[k] as usize;
                let pos = cursor[c];
                cursor[c] += 1;
                col_idx[pos] = r as u32;
                values[pos] = self.values[k];
            }
        }
        CsrMatrix::from_parts(self.cols, self.rows, row_ptr, col_idx, values)
    }

    /// Builds `scale·A + diag(d)` directly in CSR form, in `O(nnz + n)`
    /// with no triplet temporary or sort: each row of `A` is already
    /// column-sorted, so the diagonal entry is spliced in at its ordered
    /// position (merged if the row already stores the diagonal). Entries
    /// whose merged value is exactly zero are dropped.
    ///
    /// This is the uniformisation assembly primitive: `P = I + Q/ν` is
    /// `scaled_add_diag(1/ν, stay)` over the off-diagonal rate matrix.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the matrix is not square or
    /// `d.len()` differs from the dimension.
    pub fn scaled_add_diag(&self, scale: f64, d: &[f64]) -> Result<CsrMatrix, MarkovError> {
        if self.rows != self.cols || d.len() != self.rows {
            return Err(MarkovError::InvalidArgument(format!(
                "scaled_add_diag: matrix is {}x{}, diagonal has {} entries",
                self.rows,
                self.cols,
                d.len()
            )));
        }
        let n = self.rows;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz() + n);
        let mut values = Vec::with_capacity(self.nnz() + n);
        row_ptr.push(0);
        for r in 0..n {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let rc = r as u32;
            let mut diag_pending = d[r] != 0.0;
            for k in lo..hi {
                let c = self.col_idx[k];
                let mut v = scale * self.values[k];
                if c == rc {
                    // The row stores an explicit diagonal: merge.
                    v += d[r];
                    diag_pending = false;
                } else if diag_pending && c > rc {
                    col_idx.push(rc);
                    values.push(d[r]);
                    diag_pending = false;
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            if diag_pending {
                col_idx.push(rc);
                values.push(d[r]);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix::from_parts(n, n, row_ptr, col_idx, values))
    }

    /// Builds `(scale·A + diag(d))ᵀ` directly in CSR form, in `O(nnz + n)`
    /// with a single counting-scatter pass — no intermediate untransposed
    /// matrix, no triplet temporary, no sort.
    ///
    /// This is the uniformisation hot-path primitive: the transient engines
    /// iterate `vᵀP`, i.e. repeated products with `Pᵀ`, and this emits `Pᵀ`
    /// straight from the off-diagonal rate matrix, eliminating both
    /// full-matrix copies of the old `uniformised()` → `transpose()`
    /// round-trip.
    ///
    /// With `keep`, only the kept rows and columns are emitted, renumbered
    /// in kept order: the result is the principal submatrix of the full
    /// emission on `keep`, entry for entry and in the same per-row order.
    /// `None` keeps every index. The kept set must be closed under `A`'s
    /// entries: a kept row may have non-zero entries only in kept columns
    /// (for a rate matrix: no kept state leads out of the set).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the matrix is not square,
    /// `d.len()` differs from the dimension, `keep` is drawn from another
    /// dimension, or a kept row has a non-zero entry in a dropped column.
    pub fn transpose_scaled_add_diag(
        &self,
        scale: f64,
        d: &[f64],
        keep: Option<&Subset>,
    ) -> Result<CsrMatrix, MarkovError> {
        if self.rows != self.cols
            || d.len() != self.rows
            || keep.is_some_and(|k| k.universe() != self.rows)
        {
            return Err(MarkovError::InvalidArgument(format!(
                "transpose_scaled_add_diag: matrix is {}x{}, diagonal has {} entries, \
                 kept subset is drawn from {} indices",
                self.rows,
                self.cols,
                d.len(),
                keep.map_or(self.rows, Subset::universe)
            )));
        }
        let n = keep.map_or(self.rows, Subset::len);
        // Source row of output position `p`, and output position of
        // source index `i` (identity when everything is kept).
        let source = |p: usize| keep.map_or(p, |k| k.indices()[p] as usize);
        let target = |i: usize| keep.map_or(Some(i), |k| k.position(i));
        // Output row j holds {scale·A[i][j] : i} ∪ {d[j] if non-zero}.
        // The counting and scatter passes share one predicate per entry:
        // a stored entry (i, c) survives iff its *final* value
        // scale·v (+ d[i] when c == i, the merged diagonal) is non-zero,
        // and d[r] is emitted separately iff non-zero and not merged —
        // so exact cancellations are dropped, matching
        // [`CsrMatrix::scaled_add_diag`].
        let final_value = |i: usize, c: usize, v: f64| {
            let scaled = scale * v;
            if c == i {
                scaled + d[i]
            } else {
                scaled
            }
        };
        let mut counts = vec![0usize; n + 1];
        for p in 0..n {
            let r = source(p);
            if d[r] != 0.0 && self.get(r, r) == 0.0 {
                counts[p + 1] += 1;
            }
        }
        for p in 0..n {
            let r = source(p);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                if final_value(r, c, self.values[k]) != 0.0 {
                    let Some(q) = target(c) else {
                        return Err(MarkovError::InvalidArgument(format!(
                            "transpose_scaled_add_diag: kept row {r} has an entry in \
                             dropped column {c}"
                        )));
                    };
                    counts[q + 1] += 1;
                }
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let nnz_out = row_ptr[n];
        let mut col_idx = vec![0u32; nnz_out];
        let mut values = vec![0.0; nnz_out];
        let mut cursor = counts;
        // Scatter in increasing source-row order; within each output row
        // the entries then arrive with strictly increasing column (source
        // row) index. The diagonal d[i] belongs to output row i with
        // column i, so it is emitted at step i, before row i's own
        // entries are scattered (those go to output rows ≠ i only when A
        // has an empty diagonal; an explicit A[i][i] is merged instead).
        // Kept positions increase with the source index, so renumbering
        // keeps that order.
        for p in 0..n {
            let i = source(p);
            if d[i] != 0.0 && self.get(i, i) == 0.0 {
                let pos = cursor[p];
                cursor[p] += 1;
                col_idx[pos] = p as u32;
                values[pos] = d[i];
            }
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[k] as usize;
                let v = final_value(i, c, self.values[k]);
                if v != 0.0 {
                    let q = target(c).expect("closure checked by the counting pass");
                    let pos = cursor[q];
                    cursor[q] += 1;
                    col_idx[pos] = p as u32;
                    values[pos] = v;
                }
            }
        }
        Ok(CsrMatrix::from_parts(n, n, row_ptr, col_idx, values))
    }

    /// Sum of each row (e.g. exit rates when the matrix stores off-diagonal
    /// generator entries).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| {
                let lo = self.row_ptr[r];
                let hi = self.row_ptr[r + 1];
                self.values[lo..hi].iter().sum()
            })
            .collect()
    }

    /// Applies `f` to every stored value (used to build `P = I + Q/ν`).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// The stored values in CSR order (row-major, columns increasing
    /// within each row) — the numeric half that pattern-sharing sweep
    /// plans re-solve per member while the structure stays fixed.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A 64-bit FNV-1a fingerprint of the **sparsity pattern** only:
    /// dimensions, row extents and column indices — not the values. Two
    /// matrices with different fingerprints never share a pattern; equal
    /// fingerprints make [`CsrMatrix::same_pattern`] worth the exact
    /// check. Sweep planners key their pattern-reuse caches on this.
    pub fn pattern_fingerprint(&self) -> u64 {
        fnv1a_u64(
            [self.rows as u64, self.cols as u64]
                .into_iter()
                .chain(self.row_ptr.iter().map(|&p| p as u64))
                .chain(self.col_idx.iter().map(|&c| u64::from(c))),
        )
    }

    /// Whether `other` stores exactly the same sparsity pattern
    /// (dimensions, row extents, column indices) — the certain companion
    /// of [`CsrMatrix::pattern_fingerprint`].
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// Pattern-reuse constructor: a matrix with this matrix's sparsity
    /// pattern and new `values` (in CSR order, as laid out by
    /// [`CsrMatrix::values`]). The structural arrays are shared by clone;
    /// no counting pass, no per-row sort, no column validation is
    /// repeated.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `values.len() != nnz()` or a
    /// value is not finite.
    pub fn with_values(&self, values: Vec<f64>) -> Result<CsrMatrix, MarkovError> {
        if values.len() != self.values.len() {
            return Err(MarkovError::InvalidArgument(format!(
                "with_values: {} values for a pattern of {} entries",
                values.len(),
                self.values.len()
            )));
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(MarkovError::InvalidArgument(format!(
                "with_values: value {bad} is not finite"
            )));
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
        })
    }

    /// Iterates over all `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }
}

/// [`CsrMatrix::nnz_partition`] over bare row extents (`rows + 1`
/// monotone offsets), so a format built from a CSR matrix can keep its
/// source's row extents and split its rows at exactly the same
/// boundaries.
pub(crate) fn nnz_partition(row_ptr: &[usize], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let rows = row_ptr.len() - 1;
    let total = row_ptr[rows];
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 1..=parts {
        let end = if p == parts {
            rows
        } else {
            // First row boundary whose cumulative nnz reaches the
            // ideal p-th cut. row_ptr is monotone, so binary search.
            let target = (total as u128 * p as u128 / parts as u128) as usize;
            row_ptr.partition_point(|&v| v < target).clamp(start, rows)
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// First pass of two-pass counted CSR assembly: tally how many entries
/// each row will receive, with no per-entry storage at all.
///
/// Generators that can enumerate their entries twice (like the paper's
/// discretised battery chain, whose transitions are pure arithmetic on
/// the state index) build matrices through this instead of a triplet
/// vector: pass 1 [`count`](CsrAssembler::count)s each emission, pass 2
/// [`entry`](CsrFiller::entry)s the same emissions, and
/// [`finish`](CsrFiller::finish) merges duplicates per row. Total cost is
/// `O(nnz)` (rows are sorted individually and are short in practice) and
/// the peak memory is the final matrix plus one small per-row scratch —
/// no `O(nnz)` triplet temporary, no global sort.
///
/// # Examples
///
/// ```
/// use markov::sparse::CsrAssembler;
///
/// let mut a = CsrAssembler::new(2, 2).unwrap();
/// a.count(0);
/// a.count(1);
/// let mut f = a.into_filler();
/// f.entry(0, 1, 2.0).unwrap();
/// f.entry(1, 0, 3.0).unwrap();
/// let m = f.finish().unwrap();
/// assert_eq!(m.get(0, 1), 2.0);
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct CsrAssembler {
    rows: usize,
    cols: usize,
    /// `counts[r + 1]` = number of entries counted for row `r` (offset by
    /// one so the prefix sum can run in place).
    counts: Vec<usize>,
}

impl CsrAssembler {
    /// Starts counting for a `rows × cols` matrix.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when `cols` exceeds `u32` range.
    pub fn new(rows: usize, cols: usize) -> Result<Self, MarkovError> {
        if cols > u32::MAX as usize {
            return Err(MarkovError::InvalidArgument(format!(
                "column count {cols} exceeds u32 index range"
            )));
        }
        Ok(CsrAssembler {
            rows,
            cols,
            counts: vec![0; rows + 1],
        })
    }

    /// Registers one future entry in row `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row >= rows`; the filling pass re-validates the full
    /// `(row, col, value)` triple with a proper error.
    #[inline]
    pub fn count(&mut self, row: usize) {
        self.counts[row + 1] += 1;
    }

    /// Total entries counted so far.
    pub fn counted(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Seals the counts: prefix-sums them into row offsets and allocates
    /// the value storage for the filling pass.
    pub fn into_filler(mut self) -> CsrFiller {
        for i in 0..self.rows {
            self.counts[i + 1] += self.counts[i];
        }
        let nnz = self.counts[self.rows];
        CsrFiller {
            rows: self.rows,
            cols: self.cols,
            cursor: self.counts[..self.rows].to_vec(),
            row_ptr: self.counts,
            col_idx: vec![0; nnz],
            values: vec![0.0; nnz],
        }
    }
}

/// Second pass of two-pass counted CSR assembly; see [`CsrAssembler`].
#[derive(Debug, Clone)]
pub struct CsrFiller {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    cursor: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrFiller {
    /// Scatters one entry into its counted slot. Entries may arrive in any
    /// order; duplicates of a cell are merged (summed) by
    /// [`finish`](CsrFiller::finish).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the index is out of bounds,
    /// the value is not finite, or row `row` receives more entries than
    /// were counted for it.
    #[inline]
    pub fn entry(&mut self, row: usize, col: usize, value: f64) -> Result<(), MarkovError> {
        if row >= self.rows || col >= self.cols {
            return Err(MarkovError::InvalidArgument(format!(
                "entry ({row}, {col}) out of bounds for {}x{}",
                self.rows, self.cols
            )));
        }
        if !value.is_finite() {
            return Err(MarkovError::InvalidArgument(format!(
                "non-finite value {value} at ({row}, {col})"
            )));
        }
        let pos = self.cursor[row];
        if pos >= self.row_ptr[row + 1] {
            return Err(MarkovError::InvalidArgument(format!(
                "row {row} received more entries than counted ({})",
                self.row_ptr[row + 1] - self.row_ptr[row]
            )));
        }
        self.cursor[row] = pos + 1;
        self.col_idx[pos] = col as u32;
        self.values[pos] = value;
        Ok(())
    }

    /// Sorts each row by column, merges duplicate cells by summation,
    /// drops cells whose merged value is exactly zero, and returns the
    /// finished matrix.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when any row received fewer
    /// entries than were counted for it.
    pub fn finish(mut self) -> Result<CsrMatrix, MarkovError> {
        for r in 0..self.rows {
            if self.cursor[r] != self.row_ptr[r + 1] {
                return Err(MarkovError::InvalidArgument(format!(
                    "row {r} received {} entries but {} were counted",
                    self.cursor[r] - self.row_ptr[r],
                    self.row_ptr[r + 1] - self.row_ptr[r]
                )));
            }
        }
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        let mut write = 0usize;
        let mut out_row_ptr = vec![0usize; self.rows + 1];
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            scratch.clear();
            scratch.extend(
                self.col_idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(self.values[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|e| e.0);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut acc = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    acc += scratch[i].1;
                    i += 1;
                }
                if acc != 0.0 {
                    // Compaction only moves entries left, so the write
                    // cursor never overtakes the read window.
                    self.col_idx[write] = c;
                    self.values[write] = acc;
                    write += 1;
                }
            }
            out_row_ptr[r + 1] = write;
        }
        self.col_idx.truncate(write);
        self.values.truncate(write);
        self.col_idx.shrink_to_fit();
        self.values.shrink_to_fit();
        Ok(CsrMatrix::from_parts(
            self.rows,
            self.cols,
            out_row_ptr,
            self.col_idx,
            self.values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn build_and_query() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(9, 9), 0.0);
        let row2: Vec<_> = m.row(2).collect();
        assert_eq!(row2, vec![(0, 3.0), (1, 4.0)]);
    }

    #[test]
    fn duplicates_merge_and_zeros_drop() {
        let m =
            CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5), (1, 1, 0.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn cancelling_duplicates_drop_the_entry() {
        // Regression: +1.0 then −1.0 at the same cell used to leave a
        // stored 0.0 behind.
        let m = CsrMatrix::from_triplets(
            2,
            2,
            vec![(0, 1, 1.0), (0, 1, -1.0), (1, 0, 2.0), (1, 0, -0.5)],
        )
        .unwrap();
        assert_eq!(m.nnz(), 1, "cancelled cell must not be stored");
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 0), 1.5);
        // A zero entry followed by a real one still merges correctly.
        let m = CsrMatrix::from_triplets(1, 2, vec![(0, 0, 0.0), (0, 0, 4.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 4.0);
    }

    #[test]
    fn assembler_two_pass_matches_from_triplets() {
        let trip = vec![
            (2, 1, 4.0),
            (0, 0, 1.0),
            (0, 2, 2.0),
            (2, 0, 3.0),
            (0, 2, 1.5), // duplicate, merged
            (1, 1, 0.0), // explicit zero, dropped
        ];
        let mut a = CsrAssembler::new(3, 3).unwrap();
        for &(r, _, _) in &trip {
            a.count(r);
        }
        assert_eq!(a.counted(), 6);
        let mut f = a.into_filler();
        for &(r, c, v) in &trip {
            f.entry(r, c, v).unwrap();
        }
        let m = f.finish().unwrap();
        assert_eq!(m, CsrMatrix::from_triplets(3, 3, trip).unwrap());
        assert_eq!(m.get(0, 2), 3.5);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn assembler_validates_bounds_counts_and_values() {
        assert!(CsrAssembler::new(1, u32::MAX as usize + 1).is_err());
        let mut a = CsrAssembler::new(2, 2).unwrap();
        a.count(0);
        let mut f = a.into_filler();
        assert!(f.entry(5, 0, 1.0).is_err(), "row out of bounds");
        assert!(f.entry(0, 5, 1.0).is_err(), "col out of bounds");
        assert!(f.entry(0, 0, f64::NAN).is_err(), "non-finite value");
        f.entry(0, 0, 1.0).unwrap();
        assert!(f.entry(0, 1, 1.0).is_err(), "row over-filled");
        // Under-filled rows are caught at finish().
        let mut a = CsrAssembler::new(2, 2).unwrap();
        a.count(1);
        assert!(a.clone().into_filler().finish().is_err());
        let mut f = a.into_filler();
        f.entry(1, 0, 2.0).unwrap();
        assert_eq!(f.finish().unwrap().get(1, 0), 2.0);
    }

    #[test]
    fn scaled_add_diag_splices_diagonal_in_order() {
        let m = sample(); // diag entry only at (0,0)
        let p = m.scaled_add_diag(2.0, &[10.0, 20.0, 30.0]).unwrap();
        // (0,0) merges 2·1 + 10; rows 1 and 2 gain fresh diagonals.
        assert_eq!(p.get(0, 0), 12.0);
        assert_eq!(p.get(0, 2), 4.0);
        assert_eq!(p.get(1, 1), 20.0);
        assert_eq!(p.get(2, 2), 30.0);
        assert_eq!(p.get(2, 0), 6.0);
        assert_eq!(p.nnz(), m.nnz() + 2);
        // Zero diagonal entries are not stored; exact cancellation drops
        // the merged cell.
        let q = m.scaled_add_diag(1.0, &[-1.0, 0.0, 5.0]).unwrap();
        assert_eq!(q.get(0, 0), 0.0);
        assert_eq!(q.nnz(), m.nnz()); // −1 cancels (0,0), row 2 gains (2,2)
        assert!(m.scaled_add_diag(1.0, &[1.0]).is_err());
        let rect = CsrMatrix::zeros(2, 3);
        assert!(rect.scaled_add_diag(1.0, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn transpose_scaled_add_diag_is_transpose_of_scaled_add_diag() {
        let m = sample();
        let d = [0.5, -2.0, 7.0];
        let direct = m.transpose_scaled_add_diag(3.0, &d, None).unwrap();
        let reference = m.scaled_add_diag(3.0, &d).unwrap().transpose();
        // Full structural equality, not just get(): stored zeros or
        // miscounted rows would differ in nnz/row_ptr.
        assert_eq!(direct, reference);
        assert!(m.transpose_scaled_add_diag(1.0, &[1.0], None).is_err());
        // Exact cancellation of a merged diagonal drops the cell on both
        // paths (regression: the scatter pass used to store a 0.0).
        let one = CsrMatrix::from_triplets(1, 1, vec![(0, 0, 1.0)]).unwrap();
        let cancelled = one.transpose_scaled_add_diag(1.0, &[-1.0], None).unwrap();
        assert_eq!(cancelled.nnz(), 0);
        assert_eq!(
            cancelled,
            one.scaled_add_diag(1.0, &[-1.0]).unwrap().transpose()
        );
        // scale = 0 zeroes every off-diagonal entry; only diagonals stay.
        let zeroed = m.transpose_scaled_add_diag(0.0, &d, None).unwrap();
        assert_eq!(zeroed, m.scaled_add_diag(0.0, &d).unwrap().transpose());
        assert_eq!(zeroed.nnz(), 3);
    }

    #[test]
    fn same_column_adjacent_rows_not_merged() {
        // Regression: (0,3) and (1,3) share a column and are adjacent in the
        // sorted triplet order; they must stay separate entries.
        let m = CsrMatrix::from_triplets(2, 4, vec![(0, 3, 1.0), (1, 3, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 3), 1.0);
        assert_eq!(m.get(1, 3), 2.0);
    }

    #[test]
    fn unsorted_triplets_ok() {
        let m = CsrMatrix::from_triplets(
            2,
            3,
            vec![(1, 2, 6.0), (0, 1, 2.0), (1, 0, 4.0), (0, 0, 1.0)],
        )
        .unwrap();
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 10.0]);
    }

    #[test]
    fn out_of_bounds_and_nonfinite_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, vec![(0, 2, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, vec![(0, 0, f64::NAN)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, vec![(0, 0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn mul_vec_known() {
        let m = sample();
        assert_eq!(m.mul_vec(&[1.0, 2.0, 3.0]).unwrap(), vec![7.0, 0.0, 11.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn vec_mul_is_transpose_mul() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let a = m.vec_mul(&x).unwrap();
        let b = m.transpose().mul_vec(&x).unwrap();
        assert_eq!(a, b);
        assert!(m.vec_mul(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_sums_and_map() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        let d = m.map_values(|v| 2.0 * v);
        assert_eq!(d.get(2, 1), 8.0);
        assert_eq!(d.nnz(), m.nnz());
    }

    #[test]
    fn zeros_matrix() {
        let z = CsrMatrix::zeros(4, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.mul_vec(&[1.0, 1.0]).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn pattern_reuse_constructor_validates_and_shares_structure() {
        let m =
            CsrMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]).unwrap();
        assert_eq!(m.values(), &[2.0, 3.0, 4.0]);
        let swapped = m.with_values(vec![5.0, 6.0, 7.0]).unwrap();
        assert!(m.same_pattern(&swapped));
        assert_eq!(m.pattern_fingerprint(), swapped.pattern_fingerprint());
        assert_eq!(swapped.get(0, 1), 5.0);
        assert_eq!(swapped.get(2, 0), 7.0);
        // Wrong length and non-finite values are rejected.
        assert!(m.with_values(vec![1.0]).is_err());
        assert!(m.with_values(vec![1.0, f64::NAN, 2.0]).is_err());
        // A different pattern fingerprints differently and fails the
        // exact check, even at equal nnz.
        let other =
            CsrMatrix::from_triplets(3, 3, vec![(0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0)]).unwrap();
        assert!(!m.same_pattern(&other));
        assert_ne!(m.pattern_fingerprint(), other.pattern_fingerprint());
        // Dimensions are part of the pattern.
        let wide = CsrMatrix::zeros(3, 4);
        assert!(!CsrMatrix::zeros(3, 3).same_pattern(&wide));
        assert_ne!(
            CsrMatrix::zeros(3, 3).pattern_fingerprint(),
            wide.pattern_fingerprint()
        );
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    proptest! {
        #[test]
        fn mul_vec_linear(
            trip in proptest::collection::vec((0usize..8, 0usize..8, -5.0f64..5.0), 0..30),
            x in proptest::collection::vec(-3.0f64..3.0, 8),
            s in -2.0f64..2.0,
        ) {
            let m = CsrMatrix::from_triplets(8, 8, trip).unwrap();
            // A(s·x) = s·(Ax)
            let ax = m.mul_vec(&x).unwrap();
            let sx: Vec<f64> = x.iter().map(|v| s * v).collect();
            let asx = m.mul_vec(&sx).unwrap();
            for i in 0..8 {
                prop_assert!((asx[i] - s * ax[i]).abs() < 1e-9);
            }
        }

        #[test]
        fn with_values_round_trips_under_any_pattern(
            trip in proptest::collection::vec((0usize..6, 0usize..6, 0.1f64..5.0), 1..20),
        ) {
            let mut seen = std::collections::HashSet::new();
            let trip: Vec<_> = trip.into_iter().filter(|&(r, c, _)| seen.insert((r, c))).collect();
            let m = CsrMatrix::from_triplets(6, 6, trip).unwrap();
            let doubled = m.with_values(m.values().iter().map(|v| v * 2.0).collect()).unwrap();
            prop_assert!(m.same_pattern(&doubled));
            prop_assert_eq!(m.pattern_fingerprint(), doubled.pattern_fingerprint());
            for (r, c, v) in m.iter() {
                prop_assert_eq!(doubled.get(r, c), 2.0 * v);
            }
        }

        #[test]
        fn transpose_preserves_entries(
            trip in proptest::collection::vec((0usize..6, 0usize..6, 0.1f64..5.0), 1..20),
        ) {
            // Use distinct cells to avoid merge ambiguity: dedupe by position.
            let mut seen = std::collections::HashSet::new();
            let trip: Vec<_> = trip.into_iter().filter(|&(r, c, _)| seen.insert((r, c))).collect();
            let m = CsrMatrix::from_triplets(6, 6, trip.clone()).unwrap();
            let t = m.transpose();
            for (r, c, v) in trip {
                prop_assert_eq!(t.get(c, r), v);
            }
        }
    }
}
