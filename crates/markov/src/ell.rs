//! Length-sorted rows for iteration matrices whose rows are short.
//!
//! The discretised Fig. 8 chains at `Δ ≥ 25 A·s` occupy five diagonals
//! but carry only 2.8–3.0 entries per row of `Pᵀ`, too few for DIA's
//! slot break-even. In CSR their rows of one to four entries have a
//! variable inner trip count that costs more than the multiply–adds.
//! [`EllMatrix`] stores the rows stably sorted by entry count, so every
//! run of equal-length rows is one fixed-width block: each row is a
//! fixed-length loop the compiler unrolls (the kernels are monomorphised
//! for `w = 1..=8`, with one dynamic fallback above and a plain zero fill
//! for empty rows). No row is padded, so a product touches exactly the
//! `nnz` slots CSR touches.
//!
//! The matrix lives in the sorted index space: stored row `k` is source
//! row [`EllMatrix::order`]`[k]`, and columns are renumbered the same
//! way, so `x` and `y` are both indexed by stored position. The caller
//! gathers its vectors through that order and scatters the result back.
//!
//! The format is bit-compatible with CSR by construction: each stored
//! row holds its source row's entries in CSR order, and its accumulator
//! starts at `+0.0` exactly as CSR's does. Reordering rows changes no
//! row's sum. The kernels walk rows in pairs, whose two accumulators are
//! independent.
//!
//! The kernels compute the product and nothing else. The uniformisation
//! engines take the measure dot and the steady-state test after each
//! product ([`crate::transient`]), so the work does not depend on how the
//! rows are split across workers.

use crate::sparse::{nnz_partition, CsrMatrix};
use crate::MarkovError;
use std::ops::Range;

/// A square sparse matrix stored as length-sorted rows.
///
/// Stored row `k` is source row `order()[k]`; it occupies slots
/// `row_ptr[k]..row_ptr[k + 1]` of the value and column arrays, and its
/// columns are stored positions too. Rows of equal length are
/// contiguous, and each such run is one fixed-width block.
///
/// # Examples
///
/// ```
/// use markov::ell::EllMatrix;
/// use markov::sparse::CsrMatrix;
///
/// let csr = CsrMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (0, 2, 1.0), (2, 1, 5.0)]).unwrap();
/// let ell = EllMatrix::from_csr(&csr).unwrap();
/// // Row 1 is empty, row 2 holds one entry, row 0 two.
/// assert_eq!(ell.order(), &[1, 2, 0]);
/// assert_eq!(ell.nnz(), 3); // no padding
/// // x in stored order: x[order[k]].
/// let x = [2.0, 3.0, 4.0];
/// let x_stored: Vec<f64> = ell.order().iter().map(|&r| x[r as usize]).collect();
/// let mut y = vec![0.0; 3];
/// ell.mul_vec_range_into(&x_stored, &mut y, 0..3);
/// assert_eq!(y, vec![0.0, 15.0, 10.0]); // rows 1, 2, 0 of csr·x
/// assert_eq!(ell.to_csr(), csr);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    /// `order[k]` is the source row stored at position `k`.
    order: Vec<u32>,
    /// Row extents in stored order (`n + 1` monotone offsets).
    row_ptr: Vec<usize>,
    /// The runs of equal-length rows: `(stored rows, width)`, in order.
    blocks: Vec<(Range<usize>, usize)>,
    /// Stored-position columns, row after row.
    col_idx: Vec<u32>,
    /// Values, row after row.
    values: Vec<f64>,
}

impl EllMatrix {
    /// Sorts a square CSR matrix's rows stably by entry count and
    /// renumbers its columns to match.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] when the matrix is not square (a
    /// row order is also a column order).
    pub fn from_csr(m: &CsrMatrix) -> Result<EllMatrix, MarkovError> {
        if m.rows() != m.cols() {
            return Err(MarkovError::InvalidArgument(format!(
                "row-sorted storage needs a square matrix, got {}x{}",
                m.rows(),
                m.cols()
            )));
        }
        let n = m.rows();
        let len = |r: usize| m.row_ptr()[r + 1] - m.row_ptr()[r];
        // CSR assembly caps the dimension at u32 range.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&r| len(r as usize));
        let mut position = vec![0u32; n];
        for (k, &r) in order.iter().enumerate() {
            position[r as usize] = k as u32;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut blocks: Vec<(Range<usize>, usize)> = Vec::new();
        let mut col_idx = Vec::with_capacity(m.nnz());
        let mut values = Vec::with_capacity(m.nnz());
        row_ptr.push(0);
        for (k, &r) in order.iter().enumerate() {
            let width = len(r as usize);
            match blocks.last_mut() {
                Some((rows, w)) if *w == width => rows.end = k + 1,
                _ => blocks.push((k..k + 1, width)),
            }
            for (c, v) in m.row(r as usize) {
                col_idx.push(position[c]);
                values.push(v);
            }
            row_ptr.push(values.len());
        }
        Ok(EllMatrix {
            order,
            row_ptr,
            blocks,
            col_idx,
            values,
        })
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.order.len()
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.order.len()
    }

    /// Number of stored entries: the slots a full product touches.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The source row stored at each position.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Splits the stored rows into `parts` contiguous ranges balanced by
    /// entry count; see [`CsrMatrix::nnz_partition`].
    pub fn nnz_partition(&self, parts: usize) -> Vec<Range<usize>> {
        nnz_partition(&self.row_ptr, parts)
    }

    /// The same matrix in CSR form, in source order.
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.rows();
        let mut position = vec![0usize; n];
        for (k, &r) in self.order.iter().enumerate() {
            position[r as usize] = k;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for &k in &position {
            let slots = self.row_ptr[k]..self.row_ptr[k + 1];
            col_idx.extend(
                self.col_idx[slots.clone()]
                    .iter()
                    .map(|&c| self.order[c as usize]),
            );
            values.extend_from_slice(&self.values[slots]);
            row_ptr.push(values.len());
        }
        CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
    }

    /// `y_block[i] = (A·x)[rows.start + i]` over stored rows, with `x` in
    /// stored order. Each row's value has the bits
    /// [`CsrMatrix::mul_vec_range_into`] gives its source row.
    pub fn mul_vec_range_into(&self, x: &[f64], y_block: &mut [f64], rows: Range<usize>) {
        debug_assert_eq!(x.len(), self.cols());
        debug_assert_eq!(y_block.len(), rows.len());
        debug_assert!(rows.end <= self.rows());
        for (block, width) in &self.blocks {
            let lo = block.start.max(rows.start);
            let hi = block.end.min(rows.end);
            if lo >= hi {
                continue;
            }
            let y = &mut y_block[lo - rows.start..hi - rows.start];
            let slots = self.row_ptr[lo]..self.row_ptr[hi];
            let (v, c) = (&self.values[slots.clone()], &self.col_idx[slots]);
            match *width {
                0 => y.fill(0.0),
                1 => rows_of_width::<1>(1, v, c, x, y),
                2 => rows_of_width::<2>(2, v, c, x, y),
                3 => rows_of_width::<3>(3, v, c, x, y),
                4 => rows_of_width::<4>(4, v, c, x, y),
                5 => rows_of_width::<5>(5, v, c, x, y),
                6 => rows_of_width::<6>(6, v, c, x, y),
                7 => rows_of_width::<7>(7, v, c, x, y),
                8 => rows_of_width::<8>(8, v, c, x, y),
                w => rows_of_width::<0>(w, v, c, x, y),
            }
        }
    }
}

/// The kernel of one fixed-width block: `y[i]` is row `i` of the block,
/// whose `w` entries are `values[i·w..(i + 1)·w]`. `W` is the width, or
/// 0 for the dynamic fallback that uses `w`.
///
/// Rows go two at a time: the pair's slots are one exact-size chunk (no
/// per-slot bounds checks for a constant `W`) and its two accumulators
/// are independent. Each accumulator starts at `+0.0` and adds the row's
/// entries in order, as the CSR kernel does.
#[inline(always)]
fn rows_of_width<const W: usize>(w: usize, values: &[f64], cols: &[u32], x: &[f64], y: &mut [f64]) {
    let w = if W == 0 { w } else { W };
    debug_assert_eq!(values.len(), w * y.len());
    let mut y_pairs = y.chunks_exact_mut(2);
    let mut v_pairs = values.chunks_exact(2 * w);
    let mut c_pairs = cols.chunks_exact(2 * w);
    for ((out, v), c) in (&mut y_pairs).zip(&mut v_pairs).zip(&mut c_pairs) {
        let (mut a0, mut a1) = (0.0, 0.0);
        for k in 0..w {
            a0 += v[k] * x[c[k] as usize];
            a1 += v[w + k] * x[c[w + k] as usize];
        }
        out[0] = a0;
        out[1] = a1;
    }
    if let [out] = y_pairs.into_remainder() {
        *out = v_pairs
            .remainder()
            .iter()
            .zip(c_pairs.remainder())
            .fold(0.0, |acc, (&v, &c)| acc + v * x[c as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `x` permuted into the matrix's stored order.
    fn stored(ell: &EllMatrix, x: &[f64]) -> Vec<f64> {
        ell.order().iter().map(|&r| x[r as usize]).collect()
    }

    #[test]
    fn sorts_rows_by_length_without_padding() {
        let csr = CsrMatrix::from_triplets(
            4,
            4,
            vec![(0, 2, 1.5), (0, 0, 2.0), (2, 1, -1.0), (3, 3, 4.0)],
        )
        .unwrap();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        // Stable: the one-entry rows 2 and 3 keep their relative order.
        assert_eq!(ell.order(), &[1, 2, 3, 0]);
        assert_eq!(ell.blocks, vec![(0..1, 0), (1..3, 1), (3..4, 2)]);
        assert_eq!(ell.row_ptr, vec![0, 0, 1, 2, 4]);
        // Columns are stored positions: source 0 → 3, 1 → 0, 2 → 1, 3 → 2.
        assert_eq!(ell.col_idx, vec![0, 2, 3, 1]);
        assert_eq!(ell.values, vec![-1.0, 4.0, 2.0, 1.5]);
        assert_eq!(ell.nnz(), 4);
        assert_eq!(ell.to_csr(), csr);
        // An all-zero matrix is one block of empty rows that writes +0.0.
        let zero = EllMatrix::from_csr(&CsrMatrix::zeros(4, 4)).unwrap();
        assert_eq!(zero.nnz(), 0);
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
        assert_eq!(ell.blocks.last(), Some(&(n - 1..n, n)));
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let (mut yc, mut ye) = (vec![0.0; n], vec![0.0; n]);
        csr.mul_vec_range_into(&x, &mut yc, 0..n);
        ell.mul_vec_range_into(&stored(&ell, &x), &mut ye, 0..n);
        assert_eq!(bits(&stored(&ell, &yc)), bits(&ye));
    }

    /// A square matrix with every row's length drawn from `lens` and
    /// random columns and signed values.
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

        /// The sorted-row product equals the CSR product bit for bit: on
        /// random matrices with row lengths 0–12 (empty rows and the
        /// dynamic kernel included), any range of stored rows, and signed
        /// finite `x` with `−0.0` and exact zeros. Stored row `k` carries
        /// the bits of source row `order[k]`.
        #[test]
        fn kernels_match_csr_bitwise(
            lens in proptest::collection::vec(0usize..=12, 1..40),
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
            prop_assert_eq!(ell.nnz(), csr.nnz());
            let order = ell.order();
            prop_assert!(order.windows(2).all(|p| {
                let len = |r: u32| csr.row(r as usize).count();
                len(p[0]) < len(p[1]) || (len(p[0]) == len(p[1]) && p[0] < p[1])
            }), "rows sorted stably by length");
            // About a quarter of the entries of x are −0.0, another
            // quarter 0.0.
            let x: Vec<f64> = (0..n)
                .map(|i| match zeros[i] {
                    0 => -0.0,
                    1 => 0.0,
                    _ => xs[i],
                })
                .collect();
            let (lo, hi) = (a.min(b) % (n + 1), a.max(b).min(n));
            let rows = lo.min(hi)..hi;

            let mut yc = vec![1.0; n];
            csr.mul_vec_range_into(&x, &mut yc, 0..n);
            let mut ye = vec![1.0; rows.len()];
            ell.mul_vec_range_into(&stored(&ell, &x), &mut ye, rows.clone());
            prop_assert_eq!(bits(&ye), bits(&stored(&ell, &yc)[rows]));

            // The partition balances stored entries and covers the rows.
            for parts in 1..=5 {
                let p = ell.nnz_partition(parts);
                prop_assert_eq!(p.len(), parts);
                prop_assert_eq!(p[0].start, 0);
                prop_assert_eq!(p[parts - 1].end, n);
                prop_assert!(p.windows(2).all(|w| w[0].end == w[1].start));
            }
        }
    }
}
