//! Persistent worker pool for repeated sparse matrix–vector products.
//!
//! The paper's headline experiment (Fig. 8, `Δ = 5`) performs > 4.6·10⁴
//! products with the same ~10⁶-state matrix. Spawning and joining
//! threads on **every** product would cost ~46k×threads spawns per
//! curve, and splitting rows by count would leave some workers idle on
//! the empty absorbing rows of the battery chain. [`SpmvPool`] avoids
//! both: workers are spawned **once** per solve, fed per-iteration jobs
//! over channels, and each worker owns a contiguous row range balanced
//! by non-zeros ([`CsrMatrix::nnz_partition`]).
//!
//! The pool dispatches on matrix **representation**: every kernel takes
//! anything convertible to a [`MatrixRef`], so generic CSR chains,
//! banded lattice chains ([`crate::banded::BandedMatrix`]) and
//! length-sorted rows ([`crate::ell::EllMatrix`]) run through the same
//! engine.
//!
//! The pool computes products and nothing else: every row is
//! accumulated left-to-right by exactly one worker, so the output is
//! bit-identical to the sequential kernel for every worker count and
//! partition. The uniformisation engines take the measure dot and the
//! steady-state test on the calling thread after each product
//! ([`crate::transient`]). [`SpmvPool::mul_vec_window`] restricts a
//! product to the active row range of the windowed transient engine,
//! partitioning just those rows across the workers per call.
//!
//! With zero workers (`threads <= 1`) every method runs the sequential
//! kernel inline.

use crate::banded::{split_evenly, MatrixRef};
use crate::sparse::CsrMatrix;
use crate::MarkovError;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// The matrix pointer a [`Job`] carries: the raw-pointer twin of
/// [`MatrixRef`] (a borrowed enum cannot cross the channel, the referent
/// outlives the job by the dispatch contract).
#[derive(Clone, Copy)]
enum JobMatrix {
    Csr(*const CsrMatrix),
    Banded(*const crate::banded::BandedMatrix),
    Ell(*const crate::ell::EllMatrix),
}

impl JobMatrix {
    fn of(matrix: MatrixRef<'_>) -> JobMatrix {
        match matrix {
            MatrixRef::Csr(m) => JobMatrix::Csr(m),
            MatrixRef::Banded(m) => JobMatrix::Banded(m),
            MatrixRef::Ell(m) => JobMatrix::Ell(m),
        }
    }

    /// # Safety
    ///
    /// The referent must outlive the returned borrow (guaranteed by the
    /// dispatch handshake: the caller blocks until the worker is done).
    unsafe fn as_ref<'a>(self) -> MatrixRef<'a> {
        match self {
            JobMatrix::Csr(m) => MatrixRef::Csr(&*m),
            JobMatrix::Banded(m) => MatrixRef::Banded(&*m),
            // SAFETY: as for the other arms — `m` came from a live
            // `&EllMatrix` in `JobMatrix::of`, and the dispatcher holds
            // that borrow until this job's completion message arrives.
            // The sorted-row kernel reads only `x` and writes only
            // `y[rows]`, the same footprint as the CSR kernel on the same
            // rows.
            JobMatrix::Ell(m) => MatrixRef::Ell(&*m),
        }
    }
}

/// One unit of work: compute `y[rows] = (A·x)[rows]`.
///
/// The pointers are raw because the pool outlives any single borrow: the
/// *caller* guarantees the referents stay alive and untouched until the
/// completion message for this job arrives (all dispatch methods block
/// on exactly that). Each job writes only `y[rows]`, and in-flight jobs
/// carry disjoint ranges, so no two workers alias the same output
/// memory.
struct Job {
    matrix: JobMatrix,
    x: *const f64,
    x_len: usize,
    y: *mut f64,
    rows: Range<usize>,
}

// SAFETY: the raw pointers refer to caller-owned buffers that outlive the
// job (the dispatching call blocks until the worker acknowledges), and
// disjoint row ranges guarantee exclusive access to the written slice.
unsafe impl Send for Job {}

/// A persistent pool of SpMV workers; see the module docs.
///
/// # Examples
///
/// ```
/// use markov::pool::SpmvPool;
/// use markov::sparse::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 0, 1.0)]).unwrap();
/// let pool = SpmvPool::with_exact_threads(2);
/// let partition = m.nnz_partition(pool.threads());
/// let mut y = vec![0.0; 2];
/// pool.mul_vec(&m, &partition, &[3.0, 0.0], &mut y).unwrap();
/// assert_eq!(y, vec![6.0, 3.0]);
/// ```
#[derive(Debug)]
pub struct SpmvPool {
    /// One dedicated channel per worker, so job `i` always lands on the
    /// worker owning partition range `i`.
    job_txs: Vec<Sender<Job>>,
    /// Completion stream: one message per finished job.
    done_rx: Receiver<()>,
    handles: Vec<JoinHandle<()>>,
}

impl SpmvPool {
    /// Spawns up to `threads` workers; none when the effective count is
    /// ≤ 1 (the caller's thread then runs the sequential kernel inline).
    ///
    /// The worker count is clamped to the machine's available
    /// parallelism: SpMV is compute-bound, so workers beyond the core
    /// count only add scheduling overhead. Use
    /// [`SpmvPool::with_exact_threads`] to bypass the clamp (the tests
    /// that pin multi-worker partitions on any machine do).
    pub fn new(threads: usize) -> SpmvPool {
        SpmvPool::with_exact_threads(SpmvPool::clamped_threads(threads))
    }

    /// The worker count [`SpmvPool::new`] would actually use for a
    /// request of `threads`: clamped to the machine's available
    /// parallelism. Exposed so metadata consumers (e.g. the benchmark
    /// baselines) report the same number the pool runs with instead of
    /// re-implementing the clamp.
    pub fn clamped_threads(threads: usize) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        threads.min(cores)
    }

    /// [`SpmvPool::new`] without the available-parallelism clamp.
    pub fn with_exact_threads(threads: usize) -> SpmvPool {
        let workers = if threads > 1 { threads } else { 0 };
        let (done_tx, done_rx) = channel::<()>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Job>();
            let done = done_tx.clone();
            job_txs.push(tx);
            handles.push(std::thread::spawn(move || worker_loop(&rx, &done)));
        }
        SpmvPool {
            job_txs,
            done_rx,
            handles,
        }
    }

    /// Number of row ranges to partition work into: the worker count, or
    /// 1 when the pool is inline-sequential.
    pub fn threads(&self) -> usize {
        self.job_txs.len().max(1)
    }

    /// `true` when the pool runs everything inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.job_txs.is_empty()
    }

    fn check_dims(
        &self,
        matrix: MatrixRef<'_>,
        partition: &[Range<usize>],
        x: &[f64],
        y: &[f64],
    ) -> Result<(), MarkovError> {
        if x.len() != matrix.cols() || y.len() != matrix.rows() {
            return Err(MarkovError::InvalidArgument(format!(
                "pool mul_vec: x has {} (need {}), y has {} (need {})",
                x.len(),
                matrix.cols(),
                y.len(),
                matrix.rows()
            )));
        }
        if self.is_sequential() {
            return Ok(());
        }
        // Every range must be well-formed and in-bounds on its own —
        // workers turn these into raw-pointer slices, so a single
        // overshooting range (e.g. `[0..10, 10..5]` on a 5-row matrix,
        // which is "contiguous" pairwise) must be rejected here, not
        // caught by a debug assert in the kernel.
        let well_formed = partition
            .iter()
            .all(|r| r.start <= r.end && r.end <= matrix.rows());
        let contiguous = partition.windows(2).all(|w| w[0].end == w[1].start);
        if partition.len() != self.job_txs.len()
            || partition.first().map(|r| r.start) != Some(0)
            || partition.last().map(|r| r.end) != Some(matrix.rows())
            || !well_formed
            || !contiguous
        {
            return Err(MarkovError::InvalidArgument(format!(
                "pool mul_vec: partition must be {} contiguous ranges covering 0..{} \
                 (use matrix.partition(pool.threads()))",
                self.job_txs.len(),
                matrix.rows()
            )));
        }
        Ok(())
    }

    /// Dispatches one SpMV across the workers and blocks until all row
    /// ranges are done.
    fn dispatch(
        &self,
        matrix: MatrixRef<'_>,
        partition: &[Range<usize>],
        x: &[f64],
        y: &mut [f64],
    ) {
        let y_ptr = y.as_mut_ptr();
        for (tx, rows) in self.job_txs.iter().zip(partition) {
            let job = Job {
                matrix: JobMatrix::of(matrix),
                x: x.as_ptr(),
                x_len: x.len(),
                y: y_ptr,
                rows: rows.clone(),
            };
            tx.send(job).expect("spmv worker hung up");
        }
        // Collect every acknowledgement before letting the borrows of
        // matrix/x/y go — this is what makes the raw pointers in Job
        // sound.
        for _ in 0..self.job_txs.len() {
            self.done_rx.recv().expect("spmv worker died");
        }
    }

    /// `y = A·x` over the pool. `partition` must come from
    /// [`MatrixRef::partition`]`(pool.threads())` for this matrix (or
    /// any contiguous disjoint cover of the rows with one range per
    /// worker). Bit-identical to the sequential kernel.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension or partition
    /// mismatch.
    pub fn mul_vec<'a>(
        &self,
        matrix: impl Into<MatrixRef<'a>>,
        partition: &[Range<usize>],
        x: &[f64],
        y: &mut [f64],
    ) -> Result<(), MarkovError> {
        let matrix = matrix.into();
        self.check_dims(matrix, partition, x, y)?;
        if self.is_sequential() {
            matrix.mul_vec_range_into(x, y, 0..matrix.rows());
        } else {
            self.dispatch(matrix, partition, x, y);
        }
        Ok(())
    }

    /// [`SpmvPool::mul_vec`] restricted to the row range `window`: only
    /// `y[window]` is written, everything else is left untouched. The
    /// window is split evenly across the workers per call (it changes
    /// every iteration in the active-window engine, so there is no
    /// static partition to reuse).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension mismatch or a window
    /// beyond the rows.
    pub fn mul_vec_window<'a>(
        &self,
        matrix: impl Into<MatrixRef<'a>>,
        x: &[f64],
        y: &mut [f64],
        window: Range<usize>,
    ) -> Result<(), MarkovError> {
        let matrix = matrix.into();
        check_window(matrix, x, y, &window)?;
        if self.is_sequential() || window.len() < self.threads() {
            matrix.mul_vec_range_into(x, &mut y[window.clone()], window);
        } else {
            self.dispatch(matrix, &split_evenly(window, self.threads()), x, y);
        }
        Ok(())
    }
}

fn check_window(
    matrix: MatrixRef<'_>,
    x: &[f64],
    y: &[f64],
    window: &Range<usize>,
) -> Result<(), MarkovError> {
    if x.len() != matrix.cols() || y.len() != matrix.rows() {
        return Err(MarkovError::InvalidArgument(format!(
            "windowed mul_vec: x has {} (need {}), y has {} (need {})",
            x.len(),
            matrix.cols(),
            y.len(),
            matrix.rows()
        )));
    }
    if window.start > window.end || window.end > matrix.rows() {
        return Err(MarkovError::InvalidArgument(format!(
            "window {}..{} out of range for {} rows",
            window.start,
            window.end,
            matrix.rows()
        )));
    }
    Ok(())
}

impl Drop for SpmvPool {
    fn drop(&mut self) {
        // Closing the job channels ends every worker loop.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(jobs: &Receiver<Job>, done: &Sender<()>) {
    while let Ok(job) = jobs.recv() {
        // SAFETY: the dispatcher blocks until our completion message, so
        // the matrix, input and output referents are alive and unaliased
        // for the whole computation; `rows` is disjoint from every other
        // in-flight job's range, giving exclusive access to that part of
        // `y` (an empty range yields a zero-length slice, which is fine).
        unsafe {
            let matrix = job.matrix.as_ref();
            let x = std::slice::from_raw_parts(job.x, job.x_len);
            let y_block = std::slice::from_raw_parts_mut(job.y.add(job.rows.start), job.rows.len());
            matrix.mul_vec_range_into(x, y_block, job.rows);
        }
        if done.send(()).is_err() {
            return; // pool dropped mid-flight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::BandedMatrix;
    use crate::ell::EllMatrix;

    fn banded(n: usize) -> CsrMatrix {
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, i, 1.0 + (i % 7) as f64));
            if i + 1 < n {
                trip.push((i, i + 1, 0.5));
            }
            if i >= 3 {
                trip.push((i, i - 3, 0.25));
            }
        }
        CsrMatrix::from_triplets(n, n, trip).unwrap()
    }

    #[test]
    fn pool_matches_sequential_bitwise() {
        let n = 1000;
        let m = banded(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut seq = vec![0.0; n];
        m.mul_vec_into(&x, &mut seq).unwrap();
        for threads in [1, 2, 3, 5, 8] {
            let pool = SpmvPool::with_exact_threads(threads);
            let partition = m.nnz_partition(pool.threads());
            let mut par = vec![0.0; n];
            pool.mul_vec(&m, &partition, &x, &mut par).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn pool_survives_many_rounds() {
        // The zero-respawn claim: one pool, many products.
        let n = 257;
        let m = banded(n);
        let pool = SpmvPool::with_exact_threads(4);
        let partition = m.nnz_partition(pool.threads());
        let mut v: Vec<f64> = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for _ in 0..200 {
            pool.mul_vec(&m, &partition, &v, &mut next).unwrap();
            std::mem::swap(&mut v, &mut next);
        }
        let mut seq_v: Vec<f64> = vec![1.0 / n as f64; n];
        let mut seq_next = vec![0.0; n];
        for _ in 0..200 {
            m.mul_vec_into(&seq_v, &mut seq_next).unwrap();
            std::mem::swap(&mut seq_v, &mut seq_next);
        }
        assert_eq!(v, seq_v);
    }

    #[test]
    fn banded_representation_matches_csr_through_the_pool() {
        // Representation dispatch: the same products through MatrixRef
        // views of both formats give the same output.
        let n = 700;
        let csr = banded(n);
        let dia = BandedMatrix::from_csr(&csr).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.021).sin()).collect();
        for threads in [1, 3, 6] {
            let pool = SpmvPool::with_exact_threads(threads);
            let pc = MatrixRef::from(&csr).partition(pool.threads());
            let pb = MatrixRef::from(&dia).partition(pool.threads());
            let mut yc = vec![0.0; n];
            let mut yb = vec![0.0; n];
            pool.mul_vec(&csr, &pc, &x, &mut yc).unwrap();
            pool.mul_vec(&dia, &pb, &x, &mut yb).unwrap();
            assert_eq!(bits(&yc), bits(&yb), "threads = {threads}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|a| a.to_bits()).collect()
    }

    #[test]
    fn pooled_ell_matches_pooled_csr_bitwise() {
        // Uneven short rows (0–5 entries at scattered columns), sorted by
        // length. Stored row k carries the bits of source row order[k] at
        // every thread count, however the sorted rows are split.
        let n = 301;
        let mut trip = Vec::new();
        for r in 0..n {
            for k in 0..(r * 7 % 6) {
                trip.push((
                    r,
                    (r * 31 + k * 97 + 5) % n,
                    0.125 + ((r + k) % 9) as f64 * 0.1,
                ));
            }
        }
        let csr = CsrMatrix::from_triplets(n, n, trip).unwrap();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.029).sin()).collect();
        let stored =
            |v: &[f64]| -> Vec<f64> { ell.order().iter().map(|&r| v[r as usize]).collect() };
        let mut expect = vec![0.0; n];
        csr.mul_vec_into(&x, &mut expect).unwrap();
        for threads in 1..=8 {
            let pool = SpmvPool::with_exact_threads(threads);
            let pc = MatrixRef::from(&csr).partition(pool.threads());
            let pe = MatrixRef::from(&ell).partition(pool.threads());
            let (mut yc, mut ye) = (vec![0.0; n], vec![0.0; n]);
            pool.mul_vec(&csr, &pc, &x, &mut yc).unwrap();
            pool.mul_vec(&ell, &pe, &stored(&x), &mut ye).unwrap();
            assert_eq!(bits(&yc), bits(&expect), "threads = {threads}");
            assert_eq!(bits(&ye), bits(&stored(&expect)), "threads = {threads}");
        }
    }

    #[test]
    fn windowed_products_touch_only_the_window() {
        let n = 600;
        let csr = banded(n);
        let dia = BandedMatrix::from_csr(&csr).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).cos()).collect();
        let mut full = vec![0.0; n];
        csr.mul_vec_into(&x, &mut full).unwrap();
        for threads in [1, 2, 5] {
            let pool = SpmvPool::with_exact_threads(threads);
            for window in [0..n, 100..400, 0..3, 595..600, 50..50] {
                let sentinel = -7.5;
                let mut y = vec![sentinel; n];
                pool.mul_vec_window(&dia, &x, &mut y, window.clone())
                    .unwrap();
                for r in 0..n {
                    if window.contains(&r) {
                        assert_eq!(
                            y[r], full[r],
                            "threads {threads}, window {window:?}, row {r}"
                        );
                    } else {
                        assert_eq!(y[r], sentinel, "row {r} outside window must be untouched");
                    }
                }
            }
            // Bad windows are rejected.
            let mut y = vec![0.0; n];
            assert!(pool.mul_vec_window(&dia, &x, &mut y, 0..n + 1).is_err());
            #[allow(clippy::reversed_empty_ranges)]
            let backwards = 10..5;
            assert!(pool.mul_vec_window(&dia, &x, &mut y, backwards).is_err());
            assert!(pool.mul_vec_window(&dia, &x[..5], &mut y, 0..n).is_err());
        }
    }

    #[test]
    // Malformed (reversed/overshooting) ranges are the point of this test.
    #[allow(clippy::reversed_empty_ranges)]
    fn dimension_and_partition_validation() {
        let m = banded(64);
        let pool = SpmvPool::with_exact_threads(2);
        let partition = m.nnz_partition(pool.threads());
        let x = vec![0.0; 64];
        let mut y = vec![0.0; 64];
        assert!(pool.mul_vec(&m, &partition, &x[..5], &mut y).is_err());
        assert!(pool.mul_vec(&m, &partition, &x, &mut y[..5]).is_err());
        // Wrong partition arity.
        let bad = m.nnz_partition(3);
        assert!(pool.mul_vec(&m, &bad, &x, &mut y).is_err());
        // Gap in the cover.
        let gap = vec![0..10, 20..64];
        assert!(pool.mul_vec(&m, &gap, &x, &mut y).is_err());
        // Pairwise-"contiguous" but overshooting range: accepted ranges
        // become raw-pointer slices in workers, so this must be rejected
        // up front (regression for an out-of-bounds hole).
        let overshoot = vec![0..80, 80..64];
        assert!(pool.mul_vec(&m, &overshoot, &x, &mut y).is_err());
        let backwards = vec![0..64, 64..32];
        assert!(pool.mul_vec(&m, &backwards, &x, &mut y).is_err());
        // Sequential pools ignore the partition entirely.
        let seq = SpmvPool::new(1);
        assert!(seq.is_sequential());
        assert!(seq.mul_vec(&m, &[], &x, &mut y).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Across random banded matrices and thread counts 1–8, the
        /// nnz-partitioned pool product is bit-identical to the
        /// sequential kernel, through the CSR and the DIA representation
        /// and through the windowed product over the full window.
        #[test]
        fn pooled_products_match_sequential(
            n in 64usize..320,
            diag in 0.5f64..4.0,
            upper in -2.0f64..2.0,
            lower in -2.0f64..2.0,
            bandwidth in 1usize..6,
            seed in 0.0f64..100.0,
        ) {
            use proptest::prelude::*;
            let mut trip = Vec::new();
            for i in 0..n {
                trip.push((i, i, diag + (i % 5) as f64 * 0.1));
                if i + bandwidth < n && upper != 0.0 {
                    trip.push((i, i + bandwidth, upper));
                }
                if i >= bandwidth && lower != 0.0 {
                    trip.push((i, i - bandwidth, lower));
                }
            }
            let m = CsrMatrix::from_triplets(n, n, trip).unwrap();
            let dia = BandedMatrix::from_csr(&m).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i as f64 + seed) * 0.37).sin()).collect();
            let mut seq = vec![0.0; n];
            m.mul_vec_into(&x, &mut seq).unwrap();
            for threads in 1..=8usize {
                let pool = SpmvPool::with_exact_threads(threads);
                let partition = m.nnz_partition(pool.threads());
                let mut y = vec![0.0; n];
                pool.mul_vec(&m, &partition, &x, &mut y).unwrap();
                prop_assert_eq!(bits(&seq), bits(&y));
                let pb = MatrixRef::from(&dia).partition(pool.threads());
                let mut y_dia = vec![0.0; n];
                pool.mul_vec(&dia, &pb, &x, &mut y_dia).unwrap();
                prop_assert_eq!(bits(&seq), bits(&y_dia));
                let mut y_win = vec![0.0; n];
                pool.mul_vec_window(&dia, &x, &mut y_win, 0..n).unwrap();
                prop_assert_eq!(bits(&seq), bits(&y_win));
            }
        }
    }

    #[test]
    fn nnz_partition_balances_skewed_matrices() {
        // Front-loaded matrix: all mass in the first rows. A row-count
        // split would give worker 0 everything; the nnz split must not.
        let n = 1024;
        let mut trip = Vec::new();
        for i in 0..n / 8 {
            for j in 0..8 {
                trip.push((i, (i + j) % n, 1.0));
            }
        }
        let m = CsrMatrix::from_triplets(n, n, trip).unwrap();
        let parts = m.nnz_partition(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[3].end, n);
        let nnz_of = |r: &Range<usize>| -> usize { r.clone().map(|row| m.row(row).count()).sum() };
        let total = m.nnz();
        for r in &parts {
            assert!(
                nnz_of(r) <= total / 2,
                "range {r:?} carries {} of {total} nnz",
                nnz_of(r)
            );
        }
        // The four ranges still cover the work.
        assert_eq!(parts.iter().map(nnz_of).sum::<usize>(), total);
    }
}
