//! Padded fixed-width rows (ELL) for iteration matrices whose rows are
//! short and nearly equal in length.
//!
//! The discretised Fig. 8 chains at `Δ ≥ 25 A·s` occupy five diagonals
//! but carry only 2.8–3.0 entries per row of `Pᵀ`, too few for DIA's
//! slot break-even, so their products used to run the CSR kernel: rows of
//! one to four entries whose variable inner trip count costs more than
//! the multiply–adds. [`EllMatrix`] pads every row to the longest row's
//! width `w`, so each row is a fixed-length loop the compiler unrolls
//! (the kernels are monomorphised for `w = 1..=8`, with one dynamic
//! fallback above).
//!
//! The format is bit-compatible with CSR by construction. Each row keeps
//! CSR's entry order and is padded at its **end** with value `0.0` and
//! the row's own index as the column. A row's accumulator starts at
//! `+0.0` and so is never `−0.0`; a padding term `0.0·x[r]` is `±0.0` for
//! finite `x`, and adding `±0.0` to anything but `−0.0` returns it
//! unchanged. The kernels walk rows in pairs; the one reordering that
//! makes is exact: the sup-norm runs in one lane per row of the pair
//! (max is order-free), while the measure dot still adds rows in order.

use crate::sparse::{nnz_partition, padding_pays, CsrMatrix};
use crate::MarkovError;
use std::ops::Range;

/// A square sparse matrix stored as padded fixed-width rows (ELL).
///
/// Row `r` occupies slots `r·w .. (r + 1)·w` of the value and column
/// arrays: its CSR entries in CSR order, then padding (value `0.0`,
/// column `r`). The source CSR row extents are kept, so the pool splits
/// ELL rows at the same non-zero-balanced boundaries as the source.
///
/// # Examples
///
/// ```
/// use markov::ell::EllMatrix;
/// use markov::sparse::CsrMatrix;
///
/// let csr = CsrMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (0, 2, 1.0), (2, 1, 5.0)]).unwrap();
/// let ell = EllMatrix::from_csr(&csr).unwrap();
/// assert_eq!(ell.width(), 2);
/// assert_eq!(ell.stored_entries(), 6); // 3 rows × 2 slots, padding included
/// let mut y = vec![0.0; 3];
/// ell.mul_vec_range_into(&[1.0, 1.0, 1.0], &mut y, 0..3);
/// assert_eq!(y, vec![3.0, 0.0, 5.0]);
/// assert_eq!(ell.to_csr(), csr);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    n: usize,
    width: usize,
    /// The source CSR row extents (`n + 1` monotone offsets).
    row_ptr: Vec<usize>,
    /// `n·width` columns, row-major.
    col_idx: Vec<u32>,
    /// `n·width` values, row-major.
    values: Vec<f64>,
}

impl EllMatrix {
    /// Whether padding `n` rows to `width` slots pays against CSR for a
    /// matrix of `nnz` entries: the `width·n` slots must pass the
    /// [`padding_pays`] break-even that DIA uses too.
    pub fn is_profitable(n: usize, nnz: usize, width: usize) -> bool {
        padding_pays(width.saturating_mul(n), nnz)
    }

    /// Pads a square CSR matrix's rows to its longest row. An all-zero
    /// matrix still gets one padding slot per row, so every row has a
    /// slot to accumulate.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the matrix is not square
    /// (padding points each row at its own diagonal column).
    pub fn from_csr(m: &CsrMatrix) -> Result<EllMatrix, MarkovError> {
        if m.rows() != m.cols() {
            return Err(MarkovError::InvalidArgument(format!(
                "ELL storage needs a square matrix, got {}x{}",
                m.rows(),
                m.cols()
            )));
        }
        let n = m.rows();
        let width = m.max_row_len().max(1);
        let row_ptr = m.row_ptr();
        let mut col_idx = Vec::with_capacity(n * width);
        let mut values = Vec::with_capacity(n * width);
        for r in 0..n {
            let pad = width - (row_ptr[r + 1] - row_ptr[r]);
            for (c, v) in m.row(r) {
                col_idx.push(c as u32);
                values.push(v);
            }
            // CSR assembly caps the dimension at u32 range.
            col_idx.extend(std::iter::repeat_n(r as u32, pad));
            values.extend(std::iter::repeat_n(0.0, pad));
        }
        Ok(EllMatrix {
            n,
            width,
            row_ptr: row_ptr.to_vec(),
            col_idx,
            values,
        })
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

    /// Slots per row: the longest source row (at least 1).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored entries, padding excluded.
    pub fn nnz(&self) -> usize {
        self.row_ptr[self.n]
    }

    /// Slots a full product touches, padding included: `width·n`.
    pub fn stored_entries(&self) -> usize {
        self.values.len()
    }

    /// The source CSR's [`CsrMatrix::nnz_partition`], row for row.
    pub fn nnz_partition(&self, parts: usize) -> Vec<Range<usize>> {
        nnz_partition(&self.row_ptr, parts)
    }

    /// The same matrix in CSR form (padding dropped by position).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.n {
            let len = self.row_ptr[r + 1] - self.row_ptr[r];
            let slots = r * self.width..r * self.width + len;
            col_idx.extend_from_slice(&self.col_idx[slots.clone()]);
            values.extend_from_slice(&self.values[slots]);
        }
        CsrMatrix::from_parts(self.n, self.n, self.row_ptr.clone(), col_idx, values)
    }

    /// The shared row-block kernel, bit-identical to
    /// [`CsrMatrix::mul_vec_range_into`] on the source matrix.
    #[inline]
    pub fn mul_vec_range_into(&self, x: &[f64], y_block: &mut [f64], rows: Range<usize>) {
        self.dispatch::<false, false>(x, y_block, &[], rows);
    }

    /// Fused product + measure dot over a row block, bit-identical to
    /// [`CsrMatrix::mul_vec_dot_range`].
    #[inline]
    pub fn mul_vec_dot_range(
        &self,
        x: &[f64],
        y_block: &mut [f64],
        measure_block: &[f64],
        rows: Range<usize>,
    ) -> f64 {
        self.dispatch::<true, false>(x, y_block, measure_block, rows)
            .0
    }

    /// Fused product + steady-state sup-norm over a row block,
    /// bit-identical to [`CsrMatrix::mul_vec_sup_range`].
    #[inline]
    pub fn mul_vec_sup_range(&self, x: &[f64], y_block: &mut [f64], rows: Range<usize>) -> f64 {
        self.dispatch::<false, true>(x, y_block, &[], rows).1
    }

    /// Fully fused product + dot + sup over a row block, bit-identical
    /// to [`CsrMatrix::mul_vec_dot_sup_range`].
    #[inline]
    pub fn mul_vec_dot_sup_range(
        &self,
        x: &[f64],
        y_block: &mut [f64],
        measure_block: &[f64],
        rows: Range<usize>,
    ) -> (f64, f64) {
        self.dispatch::<true, true>(x, y_block, measure_block, rows)
    }

    /// Picks the kernel monomorphised for this matrix's width.
    fn dispatch<const DOT: bool, const SUP: bool>(
        &self,
        x: &[f64],
        y_block: &mut [f64],
        measure_block: &[f64],
        rows: Range<usize>,
    ) -> (f64, f64) {
        let args = (x, y_block, measure_block, rows);
        match self.width {
            1 => self.kernel::<1, DOT, SUP>(args),
            2 => self.kernel::<2, DOT, SUP>(args),
            3 => self.kernel::<3, DOT, SUP>(args),
            4 => self.kernel::<4, DOT, SUP>(args),
            5 => self.kernel::<5, DOT, SUP>(args),
            6 => self.kernel::<6, DOT, SUP>(args),
            7 => self.kernel::<7, DOT, SUP>(args),
            8 => self.kernel::<8, DOT, SUP>(args),
            _ => self.kernel::<0, DOT, SUP>(args),
        }
    }

    /// The one kernel behind the four public variants. `W` is the row
    /// width, or 0 for the dynamic fallback that reads it from `self`.
    /// `DOT` folds `Σ measure[r]·y[r]` into the pass, `SUP` folds
    /// `max |y[r] − x[r]|` in; both compile away when unused.
    ///
    /// Rows go two at a time: the pair's slots are one exact-size chunk
    /// (no per-slot bounds checks for a constant `W`), its two
    /// accumulators are independent, and each row of the pair keeps its
    /// own sup-norm lane. The dot still adds rows in order, exactly as
    /// the CSR kernel does.
    #[inline(always)]
    fn kernel<const W: usize, const DOT: bool, const SUP: bool>(
        &self,
        (x, y_block, measure_block, rows): (&[f64], &mut [f64], &[f64], Range<usize>),
    ) -> (f64, f64) {
        let w = if W == 0 { self.width } else { W };
        debug_assert_eq!(w, self.width);
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y_block.len(), rows.len());
        debug_assert!(rows.end <= self.n);
        let slots = rows.start * w..rows.end * w;
        let x_rows = &x[rows];
        // Without DOT the measure is never read; any row-length slice
        // keeps the zips below in step.
        let measure = if DOT { measure_block } else { x_rows };
        debug_assert_eq!(measure.len(), x_rows.len());
        let mut dot = 0.0;
        let mut sup = [0.0f64; 2];
        let mut finish = |out: &mut f64, acc: f64, m: f64, x_r: f64, lane: &mut f64| {
            *out = acc;
            if DOT {
                dot += m * acc;
            }
            // `f64::max` without its NaN fix-up: a lane starts at 0.0
            // and only ever takes a larger, hence non-NaN, value, so a
            // NaN difference is skipped exactly as `f64::max` skips it.
            let d = (acc - x_r).abs();
            if SUP && d > *lane {
                *lane = d;
            }
        };
        let mut y_pairs = y_block.chunks_exact_mut(2);
        let mut v_pairs = self.values[slots.clone()].chunks_exact(2 * w);
        let mut c_pairs = self.col_idx[slots].chunks_exact(2 * w);
        let mut m_pairs = measure.chunks_exact(2);
        let mut x_pairs = x_rows.chunks_exact(2);
        for ((((out, v), c), m), x_r) in (&mut y_pairs)
            .zip(&mut v_pairs)
            .zip(&mut c_pairs)
            .zip(&mut m_pairs)
            .zip(&mut x_pairs)
        {
            let (mut a0, mut a1) = (0.0, 0.0);
            for k in 0..w {
                a0 += v[k] * x[c[k] as usize];
                a1 += v[w + k] * x[c[w + k] as usize];
            }
            let [lane0, lane1] = &mut sup;
            finish(&mut out[0], a0, m[0], x_r[0], lane0);
            finish(&mut out[1], a1, m[1], x_r[1], lane1);
        }
        if let [out] = y_pairs.into_remainder() {
            let (v, c) = (v_pairs.remainder(), c_pairs.remainder());
            let acc = v
                .iter()
                .zip(c)
                .fold(0.0, |acc, (&v, &c)| acc + v * x[c as usize]);
            finish(
                out,
                acc,
                m_pairs.remainder()[0],
                x_pairs.remainder()[0],
                &mut sup[0],
            );
        }
        (dot, sup[0].max(sup[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pads_rows_at_the_end_with_their_own_index() {
        let csr =
            CsrMatrix::from_triplets(3, 3, vec![(0, 2, 1.5), (0, 0, 2.0), (2, 1, -1.0)]).unwrap();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        assert_eq!(ell.width(), 2);
        assert_eq!(ell.col_idx, vec![0, 2, 1, 1, 1, 2]);
        assert_eq!(ell.values, vec![2.0, 1.5, 0.0, 0.0, -1.0, 0.0]);
        assert_eq!(ell.nnz(), 3);
        assert_eq!(ell.stored_entries(), 6);
        assert_eq!(ell.to_csr(), csr);
        // An all-zero matrix keeps one padding slot per row.
        let zero = EllMatrix::from_csr(&CsrMatrix::zeros(4, 4)).unwrap();
        assert_eq!(zero.width(), 1);
        let mut y = vec![7.0; 4];
        zero.mul_vec_range_into(&[1.0, -0.0, 2.0, 3.0], &mut y, 0..4);
        assert!(y.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        assert!(EllMatrix::from_csr(&CsrMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rows_wider_than_eight_take_the_dynamic_kernel() {
        let n = 12;
        let mut trip: Vec<_> = (0..n).map(|c| (0, c, 0.25 + c as f64)).collect();
        trip.extend((1..n).map(|r| (r, r - 1, -1.5)));
        let csr = CsrMatrix::from_triplets(n, n, trip).unwrap();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        assert_eq!(ell.width(), n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let measure: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let (mut yc, mut ye) = (vec![0.0; n], vec![0.0; n]);
        let (dc, sc) = csr.mul_vec_dot_sup_range(&x, &mut yc, &measure, 0..n);
        let (de, se) = ell.mul_vec_dot_sup_range(&x, &mut ye, &measure, 0..n);
        assert_eq!(bits(&yc), bits(&ye));
        assert_eq!((dc.to_bits(), sc.to_bits()), (de.to_bits(), se.to_bits()));
    }

    #[test]
    fn profitability_is_the_shared_slot_break_even() {
        // Rows of 2–3 entries padded to 3: 300 slots for 250 entries.
        assert!(EllMatrix::is_profitable(100, 250, 3));
        // One hub row of 100 entries pads every row to 100.
        assert!(!EllMatrix::is_profitable(100, 300, 100));
        assert!(EllMatrix::is_profitable(100, 200, 3));
        assert!(!EllMatrix::is_profitable(100, 199, 3));
    }

    /// A square matrix with every row's length drawn from `lens` (0–8)
    /// and random columns and signed values.
    fn random_rows(lens: &[usize], seed: u64) -> CsrMatrix {
        let n = lens.len();
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut trip = Vec::new();
        for (r, &len) in lens.iter().enumerate() {
            let mut cols: Vec<usize> = (0..n).collect();
            for k in 0..len.min(n) {
                let pick = k + (next() as usize) % (n - k);
                cols.swap(k, pick);
                let v = (next() % 2001) as f64 / 250.0 - 4.0;
                trip.push((r, cols[k], if v == 0.0 { 0.5 } else { v }));
            }
        }
        CsrMatrix::from_triplets(n, n, trip).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// All four ELL kernels equal the CSR kernels bit for bit: the
        /// product, the dot and the sup-norm, on random matrices with
        /// row widths 0–8 (empty rows included), any sub-range of rows,
        /// and signed finite `x` and measures with `−0.0` and exact zeros.
        #[test]
        fn kernels_match_csr_bitwise(
            lens in proptest::collection::vec(0usize..=8, 1..40),
            seed in 0u64..u64::MAX,
            a in 0usize..40,
            b in 0usize..40,
            xs in proptest::collection::vec(-3.0f64..3.0, 40),
            zeros in proptest::collection::vec(0usize..4, 40),
        ) {
            let n = lens.len();
            let csr = random_rows(&lens, seed);
            let ell = EllMatrix::from_csr(&csr).unwrap();
            prop_assert_eq!(ell.to_csr(), csr.clone());
            // About a quarter of the entries of x and of the measure are
            // −0.0, another quarter 0.0.
            let x: Vec<f64> = (0..n)
                .map(|i| match zeros[i] {
                    0 => -0.0,
                    1 => 0.0,
                    _ => xs[i],
                })
                .collect();
            let measure: Vec<f64> = (0..n)
                .map(|i| match zeros[(i + 1) % 40] {
                    0 => -0.0,
                    1 => 0.0,
                    _ => xs[(i + 7) % 40],
                })
                .collect();
            let (lo, hi) = (a.min(b) % (n + 1), a.max(b).min(n));
            let rows = lo.min(hi)..hi;
            let m = &measure[rows.clone()];
            let len = rows.len();

            let (mut yc, mut ye) = (vec![1.0; len], vec![1.0; len]);
            csr.mul_vec_range_into(&x, &mut yc, rows.clone());
            ell.mul_vec_range_into(&x, &mut ye, rows.clone());
            prop_assert_eq!(bits(&yc), bits(&ye));

            let (mut yc, mut ye) = (vec![1.0; len], vec![1.0; len]);
            let dc = csr.mul_vec_dot_range(&x, &mut yc, m, rows.clone());
            let de = ell.mul_vec_dot_range(&x, &mut ye, m, rows.clone());
            prop_assert_eq!(bits(&yc), bits(&ye));
            prop_assert_eq!(dc.to_bits(), de.to_bits());

            let (mut yc, mut ye) = (vec![1.0; len], vec![1.0; len]);
            let sc = csr.mul_vec_sup_range(&x, &mut yc, rows.clone());
            let se = ell.mul_vec_sup_range(&x, &mut ye, rows.clone());
            prop_assert_eq!(bits(&yc), bits(&ye));
            prop_assert_eq!(sc.to_bits(), se.to_bits());

            let (mut yc, mut ye) = (vec![1.0; len], vec![1.0; len]);
            let (dc, sc) = csr.mul_vec_dot_sup_range(&x, &mut yc, m, rows.clone());
            let (de, se) = ell.mul_vec_dot_sup_range(&x, &mut ye, m, rows.clone());
            prop_assert_eq!(bits(&yc), bits(&ye));
            prop_assert_eq!(dc.to_bits(), de.to_bits());
            prop_assert_eq!(sc.to_bits(), se.to_bits());

            // The source's nnz partition, row for row.
            for parts in 1..=5 {
                prop_assert_eq!(ell.nnz_partition(parts), csr.nnz_partition(parts));
            }
        }
    }
}
