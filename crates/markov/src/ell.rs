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
//! # Layout and the product buffers
//!
//! A block of width `w` is stored as 4-row interleaved slices: entry `k`
//! of the block's row `4s + l` sits at slot `s·4w + 4k + l` of the
//! block. The one to three rows left over after the last whole slice are
//! stored row after row. The kernel multiply–adds a slice's four rows in
//! lock step, one lane per row, and the compiler packs the four
//! independent accumulators into vector registers.
//!
//! The `x` and `y` buffers of a product have
//! [`EllMatrix::buffer_len`] slots: the row count rounded up to a power
//! of two. Every column is below the row count, so a gather
//! `x[c & (len − 1)]` reads the same slot as `x[c]`, and the compiler
//! can see that it is in bounds; no gather carries a bounds check. The
//! slots past the rows are never read, and a product writes only the
//! rows it computes.
//!
//! # Bits
//!
//! The format is bit-compatible with CSR by construction: each stored
//! row holds its source row's entries in CSR order, and its lane (or,
//! for a leftover row or a row range cut inside a slice, its scalar
//! loop) starts at `+0.0` and adds them in that order with a separate
//! multiply and add, exactly as CSR's kernel does. Reordering rows
//! changes no row's sum, and a row range may start or end inside a slice
//! without moving a bit.
//!
//! The kernels compute the product and nothing else. The uniformisation
//! engines take the measure dot and the steady-state test after each
//! product ([`crate::transient`]), so the work does not depend on how the
//! rows are split across workers.

use crate::sparse::{nnz_partition, CsrMatrix};
use crate::MarkovError;
use std::ops::Range;

/// Rows per interleaved slice.
const LANES: usize = 4;

/// A square sparse matrix stored as length-sorted rows.
///
/// Stored row `k` is source row `order()[k]`, and its columns are stored
/// positions too. Rows of equal length are contiguous, and each such run
/// is one fixed-width block stored as 4-row interleaved slices (see the
/// module docs). Products take `x` and `y` buffers of
/// [`EllMatrix::buffer_len`] slots.
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
/// // x in stored order, x[order[k]], in a buffer of 4 slots.
/// assert_eq!(ell.buffer_len(), 4);
/// let x = [2.0, 3.0, 4.0];
/// let mut x_stored: Vec<f64> = ell.order().iter().map(|&r| x[r as usize]).collect();
/// x_stored.resize(ell.buffer_len(), 0.0);
/// let mut y = vec![0.0; 3];
/// ell.mul_vec_range_into(&x_stored, &mut y, 0..3);
/// assert_eq!(y, vec![0.0, 15.0, 10.0]); // rows 1, 2, 0 of csr·x
/// assert_eq!(ell.to_csr(), csr);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    /// `order[k]` is the source row stored at position `k`.
    order: Vec<u32>,
    /// Cumulative entry counts: stored rows `0..k` hold `row_ptr[k]`
    /// entries, and a block's slots start at `row_ptr` of its first row.
    row_ptr: Vec<usize>,
    /// The runs of equal-length rows: `(stored rows, width)`, in order.
    blocks: Vec<(Range<usize>, usize)>,
    /// Stored-position columns, block after block.
    col_idx: Vec<u32>,
    /// Values, block after block.
    values: Vec<f64>,
}

impl EllMatrix {
    /// Sorts a square CSR matrix's rows stably by entry count, renumbers
    /// its columns to match and interleaves each block's rows.
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
        row_ptr.push(0);
        for (k, &r) in order.iter().enumerate() {
            let width = len(r as usize);
            match blocks.last_mut() {
                Some((rows, w)) if *w == width => rows.end = k + 1,
                _ => blocks.push((k..k + 1, width)),
            }
            row_ptr.push(row_ptr[k] + width);
        }
        let mut ell = EllMatrix {
            order,
            row_ptr,
            blocks,
            col_idx: vec![0; m.nnz()],
            values: vec![0.0; m.nnz()],
        };
        for (rows, _) in ell.blocks.clone() {
            for k in rows.clone() {
                let (first, stride) = ell.row_slots(&rows, k);
                for (j, (c, v)) in m.row(ell.order[k] as usize).enumerate() {
                    let slot = first + j * stride;
                    ell.col_idx[slot] = position[c];
                    ell.values[slot] = v;
                }
            }
        }
        Ok(ell)
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

    /// The length of the `x` and `y` buffers of a product: the row count
    /// rounded up to a power of two (see the module docs).
    #[inline]
    pub fn buffer_len(&self) -> usize {
        self.rows().next_power_of_two()
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
    /// entry count; see [`CsrMatrix::nnz_partition`]. A range may start
    /// or end inside a slice; every row stays whole.
    pub fn nnz_partition(&self, parts: usize) -> Vec<Range<usize>> {
        nnz_partition(&self.row_ptr, parts)
    }

    /// The first slot and the stride of stored row `k`'s entries, in the
    /// block whose rows are `block`: stride 4 inside a whole slice, 1 for
    /// a leftover row.
    fn row_slots(&self, block: &Range<usize>, k: usize) -> (usize, usize) {
        let i = k - block.start;
        if i < block.len() / LANES * LANES {
            let lane = i % LANES;
            (self.row_ptr[k - lane] + lane, LANES)
        } else {
            (self.row_ptr[k], 1)
        }
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
            let (block, width) = &self.blocks[self.blocks.partition_point(|(b, _)| b.end <= k)];
            let (first, stride) = self.row_slots(block, k);
            for slot in (0..*width).map(|j| first + j * stride) {
                col_idx.push(self.order[self.col_idx[slot] as usize]);
                values.push(self.values[slot]);
            }
            row_ptr.push(values.len());
        }
        CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
    }

    /// `y_block[i] = (A·x)[rows.start + i]` over stored rows, with `x` in
    /// stored order in a buffer of [`EllMatrix::buffer_len`] slots. Each
    /// row's value has the bits [`CsrMatrix::mul_vec_range_into`] gives
    /// its source row.
    ///
    /// # Panics
    ///
    /// When `x` holds fewer than [`EllMatrix::buffer_len`] slots.
    pub fn mul_vec_range_into(&self, x: &[f64], y_block: &mut [f64], rows: Range<usize>) {
        debug_assert_eq!(x.len(), self.buffer_len());
        debug_assert_eq!(y_block.len(), rows.len());
        debug_assert!(rows.end <= self.rows());
        let mask = self.buffer_len() - 1;
        let x = &x[..mask + 1];
        for (block, width) in &self.blocks {
            let lo = block.start.max(rows.start);
            let hi = block.end.min(rows.end);
            if lo >= hi {
                continue;
            }
            let (y, w) = (&mut y_block[lo - rows.start..hi - rows.start], *width);
            if w == 0 {
                y.fill(0.0);
                continue;
            }
            // The block's rows up to `sliced_end` lie in whole slices, the
            // rest are leftover rows stored one after the other.
            let sliced_end = block.start + block.len() / LANES * LANES;
            let whole = if lo == block.start && hi == block.end {
                block.start..sliced_end
            } else {
                // The range cuts the block: the slices it covers whole go
                // through the lane kernel, the rows of a cut slice one at
                // a time.
                let sliced = lo..hi.min(sliced_end).max(lo);
                let first = block.start + (lo - block.start).next_multiple_of(LANES);
                let last = block.start + (sliced.end - block.start) / LANES * LANES;
                let whole = if first < last {
                    first..last
                } else {
                    sliced.end..sliced.end
                };
                for k in (sliced.start..whole.start).chain(whole.end..sliced.end) {
                    let (first, stride) = self.row_slots(block, k);
                    y[k - lo] = self.row_dot(first, stride, w, x, mask);
                }
                whole
            };
            let slots = self.row_ptr[whole.start]..self.row_ptr[whole.end];
            let (v, c) = (&self.values[slots.clone()], &self.col_idx[slots]);
            let y_whole = &mut y[whole.start - lo..whole.end - lo];
            match w {
                1 => slices::<1>(1, v, c, x, mask, y_whole),
                2 => slices::<2>(2, v, c, x, mask, y_whole),
                3 => slices::<3>(3, v, c, x, mask, y_whole),
                4 => slices::<4>(4, v, c, x, mask, y_whole),
                5 => slices::<5>(5, v, c, x, mask, y_whole),
                6 => slices::<6>(6, v, c, x, mask, y_whole),
                7 => slices::<7>(7, v, c, x, mask, y_whole),
                8 => slices::<8>(8, v, c, x, mask, y_whole),
                w => slices::<0>(w, v, c, x, mask, y_whole),
            }
            for k in sliced_end.max(lo)..hi {
                y[k - lo] = self.row_dot(self.row_ptr[k], 1, w, x, mask);
            }
        }
    }

    /// One row's value from its `w` entries at slots `first + j·stride`:
    /// added in order from `+0.0`, as the CSR kernel does.
    #[inline(always)]
    fn row_dot(&self, first: usize, stride: usize, w: usize, x: &[f64], mask: usize) -> f64 {
        (0..w).fold(0.0, |acc, j| {
            let slot = first + j * stride;
            acc + self.values[slot] * x[self.col_idx[slot] as usize & mask]
        })
    }
}

/// The kernel of whole 4-row slices of one fixed-width block: `y[4s + l]`
/// is lane `l` of slice `s`, whose entry `k` sits at
/// `values[s·4w + 4k + l]`. `W` is the width, or 0 for the dynamic
/// fallback that uses `w`.
///
/// Every access is provably in bounds: the slices are exact-size chunks,
/// and a gather `x[c & mask]` on `x.len() == mask + 1` cannot overshoot.
/// Each lane starts at `+0.0` and adds its row's entries in order, as
/// the CSR kernel does.
#[inline(always)]
fn slices<const W: usize>(
    w: usize,
    values: &[f64],
    cols: &[u32],
    x: &[f64],
    mask: usize,
    y: &mut [f64],
) {
    let w = if W == 0 { w } else { W };
    debug_assert_eq!(values.len(), w * y.len());
    debug_assert_eq!(x.len(), mask + 1);
    let slices = values
        .chunks_exact(LANES * w)
        .zip(cols.chunks_exact(LANES * w));
    for (out, (v, c)) in y.chunks_exact_mut(LANES).zip(slices) {
        let mut acc = [0.0; LANES];
        for k in 0..w {
            for lane in 0..LANES {
                let slot = LANES * k + lane;
                acc[lane] += v[slot] * x[c[slot] as usize & mask];
            }
        }
        out.copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::SpmvPool;
    use proptest::prelude::*;

    /// `x` permuted into the matrix's stored order, in a product buffer
    /// whose slots past the rows hold `pad`.
    fn stored(ell: &EllMatrix, x: &[f64], pad: f64) -> Vec<f64> {
        let mut s: Vec<f64> = ell.order().iter().map(|&r| x[r as usize]).collect();
        s.resize(ell.buffer_len(), pad);
        s
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
        // No block reaches a whole slice, so every row is row-major.
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
    fn interleaves_whole_slices_and_keeps_leftover_rows_row_major() {
        // Seven rows of width 2: rows 0–3 form one slice, rows 4–6 are
        // left over. Row r holds (r, r) = r + 1 and (r, r + 1 mod 7) =
        // −(r + 1).
        let n = 7;
        let trip = (0..n)
            .flat_map(|r| [(r, r, r as f64 + 1.0), (r, (r + 1) % n, -(r as f64 + 1.0))])
            .collect();
        let csr = CsrMatrix::from_triplets(n, n, trip).unwrap();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        assert_eq!(ell.blocks, vec![(0..7, 2)]);
        assert_eq!(ell.buffer_len(), 8);
        // Entry k of slice row l at 4k + l, then rows 4–6 one after the
        // other, each in CSR column order.
        assert_eq!(
            ell.values,
            vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0, 5.0, -5.0, 6.0, -6.0, -7.0, 7.0]
        );
        assert_eq!(ell.col_idx, vec![0, 1, 2, 3, 1, 2, 3, 4, 4, 5, 5, 6, 0, 6]);
        assert_eq!(ell.to_csr(), csr);
        // Every row range, cut anywhere, gives the CSR bits; the NaN pad
        // of x is never read.
        let x: Vec<f64> = (0..n).map(|i| 0.3 + i as f64 * 0.7).collect();
        let mut yc = vec![0.0; n];
        csr.mul_vec_range_into(&x, &mut yc, 0..n);
        for lo in 0..=n {
            for hi in lo..=n {
                let mut y = vec![f64::NAN; hi - lo];
                ell.mul_vec_range_into(&stored(&ell, &x, f64::NAN), &mut y, lo..hi);
                assert_eq!(bits(&y), bits(&yc[lo..hi]), "rows {lo}..{hi}");
            }
        }
    }

    #[test]
    fn rows_wider_than_eight_take_the_dynamic_kernel() {
        // Rows 1–11 hold one entry (two whole slices and three leftover
        // rows), row 0 twelve.
        let n = 12;
        let mut trip: Vec<_> = (0..n).map(|c| (0, c, 0.25 + c as f64)).collect();
        trip.extend((1..n).map(|r| (r, r - 1, -1.5)));
        let csr = CsrMatrix::from_triplets(n, n, trip).unwrap();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        assert_eq!(ell.blocks.last(), Some(&(n - 1..n, n)));
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let (mut yc, mut ye) = (vec![0.0; n], vec![0.0; n]);
        csr.mul_vec_range_into(&x, &mut yc, 0..n);
        ell.mul_vec_range_into(&stored(&ell, &x, f64::NAN), &mut ye, 0..n);
        assert_eq!(bits(&stored(&ell, &yc, 0.0)[..n]), bits(&ye));
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
        /// dynamic kernel included), any range of stored rows (so ranges
        /// that start or end inside a slice), signed finite `x` with
        /// `−0.0` and exact zeros, and a NaN pad past the rows that is
        /// never read. Stored row `k` carries the bits of source row
        /// `order[k]`. A two-worker pool whose partition cuts a slice
        /// gives the sequential product and leaves `y`'s pad unwritten.
        #[test]
        fn kernels_match_csr_bitwise(
            lens in proptest::collection::vec(0usize..=12, 1..80),
            seed in 0u64..u64::MAX,
            a in 0usize..80,
            b in 0usize..80,
            xs in proptest::collection::vec(-3.0f64..3.0, 80),
            zeros in proptest::collection::vec(0usize..4, 80),
        ) {
            let n = lens.len();
            let csr = random_rows(&lens, seed);
            let ell = EllMatrix::from_csr(&csr).unwrap();
            prop_assert_eq!(ell.to_csr(), csr.clone());
            prop_assert_eq!(ell.nnz(), csr.nnz());
            prop_assert!(ell.buffer_len().is_power_of_two() && ell.buffer_len() >= n);
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
            let x_buf = stored(&ell, &x, f64::NAN);
            let (lo, hi) = (a.min(b) % (n + 1), a.max(b).min(n));
            let rows = lo.min(hi)..hi;

            let mut yc = vec![1.0; n];
            csr.mul_vec_range_into(&x, &mut yc, 0..n);
            let expect = stored(&ell, &yc, f64::NAN);
            let mut ye = vec![1.0; rows.len()];
            ell.mul_vec_range_into(&x_buf, &mut ye, rows.clone());
            prop_assert_eq!(bits(&ye), bits(&expect[rows]));

            // Two workers, cut inside the first whole slice when there
            // is one.
            let cut = ell
                .blocks
                .iter()
                .find(|(rows, _)| rows.len() >= LANES)
                .map_or(a % (n + 1), |(rows, _)| rows.start + 1 + a % (LANES - 1));
            let pool = SpmvPool::with_exact_threads(2);
            let mut yp = vec![f64::NAN; ell.buffer_len()];
            pool.mul_vec(&ell, &[0..cut, cut..n], &x_buf, &mut yp).unwrap();
            prop_assert_eq!(bits(&yp), bits(&expect));

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
