//! Persistent worker pool for repeated sparse matrix–vector products.
//!
//! The paper's headline experiment (Fig. 8, `Δ = 5`) performs > 4.6·10⁴
//! products with the same ~10⁶-state matrix. The old
//! [`CsrMatrix::mul_vec_parallel`] spawned and joined `threads` OS
//! threads on **every** product — ~46k×threads spawns per curve — and
//! split rows by count, so the empty absorbing rows of the battery chain
//! left some workers idle. [`SpmvPool`] fixes both: workers are spawned
//! **once** per solve, fed per-iteration jobs over channels, and each
//! worker owns a contiguous row range balanced by non-zeros
//! ([`CsrMatrix::nnz_partition`]).
//!
//! The pool dispatches on matrix **representation**: every kernel takes
//! anything convertible to a [`MatrixRef`], so generic CSR chains,
//! banded lattice chains ([`crate::banded::BandedMatrix`]) and padded
//! fixed-width rows ([`crate::ell::EllMatrix`]) run through the same
//! engine.
//!
//! The pool also exposes the fused SpMV+dot kernel
//! ([`SpmvPool::mul_vec_dot`]): each worker returns the partial dot of
//! its output block with a measure vector, so evaluating
//! `sₙ = measure·vₙ` costs no extra pass over the iterate. Partial dots
//! are reduced in worker order, making the result deterministic for a
//! fixed thread count. The `*_window` variants restrict a product to the
//! active row range of the windowed transient engine, partitioning just
//! those rows across the workers per call.
//!
//! With zero workers (`threads <= 1`) every method runs the sequential
//! kernel inline, bit-compatible with [`CsrMatrix::mul_vec_into`]. The
//! plain (non-fused) parallel product is *also* bit-compatible with the
//! sequential kernel, because every row is accumulated left-to-right by
//! exactly one worker; only the fused dot reduction depends on the
//! partition (each partial is summed in row order, partials are combined
//! in range order).

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
            // The ELL kernels read only `x` and write only `y[rows]`,
            // the same footprint as the CSR kernel on the same rows.
            JobMatrix::Ell(m) => MatrixRef::Ell(&*m),
        }
    }
}

/// One unit of work: compute `y[rows] = (A·x)[rows]` and (optionally) the
/// partial dot with `measure[rows]`.
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
    measure: *const f64, // null ⇒ plain SpMV, no dot
    /// Also fold the steady-state sup-norm `max |y[r] − x[r]|` into the
    /// pass (square matrices only; composes with or without `measure`).
    sup: bool,
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
    /// Completion stream: `(worker index, partial dot, partial sup)`
    /// per job.
    done_rx: Receiver<(usize, f64, f64)>,
    handles: Vec<JoinHandle<()>>,
}

impl SpmvPool {
    /// Spawns up to `threads` workers; none when the effective count is
    /// ≤ 1 (the caller's thread then runs the sequential kernel inline).
    ///
    /// The worker count is clamped to the machine's available
    /// parallelism: SpMV is compute-bound, so workers beyond the core
    /// count only add scheduling overhead. Use
    /// [`SpmvPool::with_exact_threads`] to bypass the clamp (benchmarks
    /// measuring oversubscription do).
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
        let (done_tx, done_rx) = channel::<(usize, f64, f64)>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = channel::<Job>();
            let done = done_tx.clone();
            job_txs.push(tx);
            handles.push(std::thread::spawn(move || worker_loop(index, &rx, &done)));
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
        measure: Option<&[f64]>,
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
        if let Some(m) = measure {
            if m.len() != matrix.rows() {
                return Err(MarkovError::InvalidArgument(format!(
                    "pool mul_vec: measure has {} entries, need {}",
                    m.len(),
                    matrix.rows()
                )));
            }
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

    /// Dispatches one SpMV (optionally fused with a dot) across the
    /// workers and blocks until all row ranges are done. Returns the dot
    /// (0.0 for plain products), reduced in partition order.
    fn dispatch(
        &self,
        matrix: MatrixRef<'_>,
        partition: &[Range<usize>],
        x: &[f64],
        y: &mut [f64],
        measure: Option<&[f64]>,
        sup: bool,
    ) -> (f64, f64) {
        let measure_ptr = measure.map_or(std::ptr::null(), <[f64]>::as_ptr);
        let y_ptr = y.as_mut_ptr();
        for (tx, rows) in self.job_txs.iter().zip(partition) {
            let job = Job {
                matrix: JobMatrix::of(matrix),
                x: x.as_ptr(),
                x_len: x.len(),
                y: y_ptr,
                measure: measure_ptr,
                sup,
                rows: rows.clone(),
            };
            tx.send(job).expect("spmv worker hung up");
        }
        // Collect every acknowledgement before letting the borrows of
        // matrix/x/y go — this is what makes the raw pointers in Job
        // sound. Reduce dot partials in worker (= row-range) order so the
        // fused dot is deterministic for a fixed thread count; max is
        // order-independent.
        let mut partials = vec![0.0; self.job_txs.len()];
        let mut sup_norm = 0.0f64;
        for _ in 0..self.job_txs.len() {
            let (index, partial_dot, partial_sup) = self.done_rx.recv().expect("spmv worker died");
            partials[index] = partial_dot;
            sup_norm = sup_norm.max(partial_sup);
        }
        (partials.iter().sum(), sup_norm)
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
        self.check_dims(matrix, partition, x, y, None)?;
        if self.is_sequential() {
            matrix.mul_vec_range_into(x, y, 0..matrix.rows());
            return Ok(());
        }
        self.dispatch(matrix, partition, x, y, None, false);
        Ok(())
    }

    /// Fused `y = A·x` returning `measure·y`, with the dot accumulated
    /// per row range and reduced in range order (deterministic for a
    /// fixed thread count; agrees with the sequential fused kernel to
    /// floating-point reassociation, ≲ 1e-15 relative).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension or partition
    /// mismatch.
    pub fn mul_vec_dot<'a>(
        &self,
        matrix: impl Into<MatrixRef<'a>>,
        partition: &[Range<usize>],
        x: &[f64],
        y: &mut [f64],
        measure: &[f64],
    ) -> Result<f64, MarkovError> {
        let matrix = matrix.into();
        self.check_dims(matrix, partition, x, y, Some(measure))?;
        if self.is_sequential() {
            return Ok(matrix.mul_vec_dot_range(x, y, measure, 0..matrix.rows()));
        }
        Ok(self
            .dispatch(matrix, partition, x, y, Some(measure), false)
            .0)
    }

    /// `y = A·x` for square iteration matrices, returning the
    /// steady-state sup-norm `max_r |y[r] − x[r]|` from the same pass
    /// (no measure dot; the max reduction is exact and
    /// order-independent, so the result matches the sequential kernel
    /// bitwise for every partition).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension or partition
    /// mismatch, or when the matrix is not square.
    pub fn mul_vec_sup<'a>(
        &self,
        matrix: impl Into<MatrixRef<'a>>,
        partition: &[Range<usize>],
        x: &[f64],
        y: &mut [f64],
    ) -> Result<f64, MarkovError> {
        let matrix = matrix.into();
        require_square(matrix, "mul_vec_sup")?;
        self.check_dims(matrix, partition, x, y, None)?;
        if self.is_sequential() {
            return Ok(matrix.mul_vec_sup_range(x, y, 0..matrix.rows()));
        }
        Ok(self.dispatch(matrix, partition, x, y, None, true).1)
    }

    /// Fully fused `y = A·x` for square iteration matrices: returns
    /// `(measure·y, max_r |y[r] − x[r]|)` from the same pass — the curve
    /// engine's per-iteration measure **and** steady-state detector with
    /// zero extra sweeps over the iterate. Dot determinism is as for
    /// [`SpmvPool::mul_vec_dot`]; the sup-norm reduction (max) is exact
    /// and order-independent.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension or partition
    /// mismatch, or when the matrix is not square.
    pub fn mul_vec_dot_sup<'a>(
        &self,
        matrix: impl Into<MatrixRef<'a>>,
        partition: &[Range<usize>],
        x: &[f64],
        y: &mut [f64],
        measure: &[f64],
    ) -> Result<(f64, f64), MarkovError> {
        let matrix = matrix.into();
        require_square(matrix, "mul_vec_dot_sup")?;
        self.check_dims(matrix, partition, x, y, Some(measure))?;
        if self.is_sequential() {
            return Ok(matrix.mul_vec_dot_sup_range(x, y, measure, 0..matrix.rows()));
        }
        Ok(self.dispatch(matrix, partition, x, y, Some(measure), true))
    }

    /// [`SpmvPool::mul_vec_sup`] restricted to the row range `window`:
    /// only `y[window]` is written, everything else is left untouched,
    /// and the sup-norm covers the window rows only. The window is
    /// split evenly across the workers per call (it changes every
    /// iteration in the active-window engine, so there is no static
    /// partition to reuse).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension mismatch, a window
    /// beyond the rows, or a non-square matrix.
    pub fn mul_vec_sup_window<'a>(
        &self,
        matrix: impl Into<MatrixRef<'a>>,
        x: &[f64],
        y: &mut [f64],
        window: Range<usize>,
    ) -> Result<f64, MarkovError> {
        let matrix = matrix.into();
        require_square(matrix, "mul_vec_sup_window")?;
        check_window(matrix, x, y, None, &window)?;
        if self.is_sequential() || window.len() < self.threads() {
            return Ok(matrix.mul_vec_sup_range(x, &mut y[window.clone()], window));
        }
        let partition = split_evenly(window, self.threads());
        Ok(self.dispatch(matrix, &partition, x, y, None, true).1)
    }

    /// [`SpmvPool::mul_vec_dot_sup`] restricted to the row range
    /// `window`; see [`SpmvPool::mul_vec_sup_window`] for the window
    /// contract.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidArgument`] on dimension mismatch, a window
    /// beyond the rows, or a non-square matrix.
    pub fn mul_vec_dot_sup_window<'a>(
        &self,
        matrix: impl Into<MatrixRef<'a>>,
        x: &[f64],
        y: &mut [f64],
        measure: &[f64],
        window: Range<usize>,
    ) -> Result<(f64, f64), MarkovError> {
        let matrix = matrix.into();
        require_square(matrix, "mul_vec_dot_sup_window")?;
        check_window(matrix, x, y, Some(measure), &window)?;
        if self.is_sequential() || window.len() < self.threads() {
            return Ok(matrix.mul_vec_dot_sup_range(
                x,
                &mut y[window.clone()],
                &measure[window.clone()],
                window,
            ));
        }
        let partition = split_evenly(window, self.threads());
        Ok(self.dispatch(matrix, &partition, x, y, Some(measure), true))
    }
}

fn require_square(matrix: MatrixRef<'_>, what: &str) -> Result<(), MarkovError> {
    if matrix.rows() != matrix.cols() {
        return Err(MarkovError::InvalidArgument(format!(
            "{what} needs a square matrix, got {}x{}",
            matrix.rows(),
            matrix.cols()
        )));
    }
    Ok(())
}

fn check_window(
    matrix: MatrixRef<'_>,
    x: &[f64],
    y: &[f64],
    measure: Option<&[f64]>,
    window: &Range<usize>,
) -> Result<(), MarkovError> {
    if x.len() != matrix.cols()
        || y.len() != matrix.rows()
        || measure.is_some_and(|m| m.len() != matrix.rows())
    {
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

fn worker_loop(index: usize, jobs: &Receiver<Job>, done: &Sender<(usize, f64, f64)>) {
    while let Ok(job) = jobs.recv() {
        // SAFETY: the dispatcher blocks until our completion message, so
        // the matrix, input and output referents are alive and unaliased
        // for the whole computation; `rows` is disjoint from every other
        // in-flight job's range, giving exclusive access to that part of
        // `y` (an empty range yields a zero-length slice, which is fine).
        let (partial_dot, partial_sup) = unsafe {
            let matrix = job.matrix.as_ref();
            let x = std::slice::from_raw_parts(job.x, job.x_len);
            let y_block = std::slice::from_raw_parts_mut(job.y.add(job.rows.start), job.rows.len());
            if job.measure.is_null() {
                if job.sup {
                    let sup = matrix.mul_vec_sup_range(x, y_block, job.rows.clone());
                    (0.0, sup)
                } else {
                    matrix.mul_vec_range_into(x, y_block, job.rows.clone());
                    (0.0, 0.0)
                }
            } else {
                let measure_block =
                    std::slice::from_raw_parts(job.measure.add(job.rows.start), job.rows.len());
                if job.sup {
                    matrix.mul_vec_dot_sup_range(x, y_block, measure_block, job.rows.clone())
                } else {
                    let dot = matrix.mul_vec_dot_range(x, y_block, measure_block, job.rows.clone());
                    (dot, 0.0)
                }
            }
        };
        if done.send((index, partial_dot, partial_sup)).is_err() {
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
    fn fused_dot_matches_separate_passes() {
        let n = 513;
        let m = banded(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.03).cos()).collect();
        let measure: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.2).collect();
        let mut seq = vec![0.0; n];
        m.mul_vec_into(&x, &mut seq).unwrap();
        let expect: f64 = seq.iter().zip(&measure).map(|(a, b)| a * b).sum();
        for threads in [1, 2, 4, 7] {
            let pool = SpmvPool::with_exact_threads(threads);
            let partition = m.nnz_partition(pool.threads());
            let mut y = vec![0.0; n];
            let dot = pool
                .mul_vec_dot(&m, &partition, &x, &mut y, &measure)
                .unwrap();
            assert_eq!(y, seq, "threads = {threads}");
            assert!(
                (dot - expect).abs() <= 1e-12 * expect.abs().max(1.0),
                "threads = {threads}: {dot} vs {expect}"
            );
        }
    }

    #[test]
    fn banded_representation_matches_csr_through_the_pool() {
        // Representation dispatch: the same products through MatrixRef
        // views of both formats give the same output.
        let n = 700;
        let csr = banded(n);
        let dia = BandedMatrix::from_csr(&csr).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.021).sin()).collect();
        let measure: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.1).collect();
        for threads in [1, 3, 6] {
            let pool = SpmvPool::with_exact_threads(threads);
            let pc = MatrixRef::from(&csr).partition(pool.threads());
            let pb = MatrixRef::from(&dia).partition(pool.threads());
            let mut yc = vec![0.0; n];
            let mut yb = vec![0.0; n];
            let (dc, sc) = pool
                .mul_vec_dot_sup(&csr, &pc, &x, &mut yc, &measure)
                .unwrap();
            let (db, sb) = pool
                .mul_vec_dot_sup(&dia, &pb, &x, &mut yb, &measure)
                .unwrap();
            assert_eq!(yc, yb, "threads = {threads}");
            assert!((dc - db).abs() <= 1e-12 * dc.abs().max(1.0));
            assert_eq!(sc, sb);
        }
    }

    #[test]
    fn pooled_ell_matches_pooled_csr_bitwise() {
        // Uneven short rows (0–5 entries at scattered columns): the ELL
        // pads them to width 5. Both formats split at the same nnz
        // boundaries, so every product, partial-dot reduction and
        // sup-norm carries the same bits at every thread count.
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
        assert_eq!(ell.width(), 5);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.029).sin()).collect();
        let measure: Vec<f64> = (0..n).map(|i| ((i % 4) as f64) * 0.5).collect();
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        for threads in 1..=8 {
            let pool = SpmvPool::with_exact_threads(threads);
            let pc = MatrixRef::from(&csr).partition(pool.threads());
            let pe = MatrixRef::from(&ell).partition(pool.threads());
            assert_eq!(pc, pe, "threads = {threads}");
            let (mut yc, mut ye) = (vec![0.0; n], vec![0.0; n]);
            pool.mul_vec(&csr, &pc, &x, &mut yc).unwrap();
            pool.mul_vec(&ell, &pe, &x, &mut ye).unwrap();
            assert_eq!(bits(&yc), bits(&ye), "threads = {threads}");
            let dc = pool.mul_vec_dot(&csr, &pc, &x, &mut yc, &measure).unwrap();
            let de = pool.mul_vec_dot(&ell, &pe, &x, &mut ye, &measure).unwrap();
            assert_eq!(dc.to_bits(), de.to_bits(), "threads = {threads}");
            let sc = pool.mul_vec_sup(&csr, &pc, &x, &mut yc).unwrap();
            let se = pool.mul_vec_sup(&ell, &pe, &x, &mut ye).unwrap();
            assert_eq!(sc.to_bits(), se.to_bits(), "threads = {threads}");
            let (dc, sc) = pool
                .mul_vec_dot_sup(&csr, &pc, &x, &mut yc, &measure)
                .unwrap();
            let (de, se) = pool
                .mul_vec_dot_sup(&ell, &pe, &x, &mut ye, &measure)
                .unwrap();
            assert_eq!(bits(&yc), bits(&ye), "threads = {threads}");
            assert_eq!((dc.to_bits(), sc.to_bits()), (de.to_bits(), se.to_bits()));
        }
    }

    #[test]
    fn windowed_products_touch_only_the_window() {
        let n = 600;
        let csr = banded(n);
        let dia = BandedMatrix::from_csr(&csr).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).cos()).collect();
        let measure: Vec<f64> = (0..n).map(|i| ((i % 4) as f64) * 0.3).collect();
        let mut full = vec![0.0; n];
        csr.mul_vec_into(&x, &mut full).unwrap();
        for threads in [1, 2, 5] {
            let pool = SpmvPool::with_exact_threads(threads);
            for window in [0..n, 100..400, 0..3, 595..600, 50..50] {
                let sentinel = -7.5;
                let mut y = vec![sentinel; n];
                let (dot, sup) = pool
                    .mul_vec_dot_sup_window(&dia, &x, &mut y, &measure, window.clone())
                    .unwrap();
                let mut expect_dot = 0.0;
                let mut expect_sup = 0.0f64;
                for r in 0..n {
                    if window.contains(&r) {
                        assert_eq!(
                            y[r], full[r],
                            "threads {threads}, window {window:?}, row {r}"
                        );
                        expect_dot += measure[r] * full[r];
                        expect_sup = expect_sup.max((full[r] - x[r]).abs());
                    } else {
                        assert_eq!(y[r], sentinel, "row {r} outside window must be untouched");
                    }
                }
                assert!((dot - expect_dot).abs() <= 1e-12 * expect_dot.abs().max(1.0));
                assert_eq!(sup, expect_sup);
                // Sup-only variant agrees.
                let mut y2 = vec![sentinel; n];
                let sup2 = pool
                    .mul_vec_sup_window(&dia, &x, &mut y2, window.clone())
                    .unwrap();
                assert_eq!(sup2, expect_sup);
            }
            // Bad windows are rejected.
            let mut y = vec![0.0; n];
            assert!(pool.mul_vec_sup_window(&dia, &x, &mut y, 0..n + 1).is_err());
            #[allow(clippy::reversed_empty_ranges)]
            let backwards = 10..5;
            assert!(pool
                .mul_vec_dot_sup_window(&dia, &x, &mut y, &measure, backwards)
                .is_err());
            assert!(pool
                .mul_vec_dot_sup_window(&dia, &x[..5], &mut y, &measure, 0..n)
                .is_err());
            let rect = CsrMatrix::zeros(4, 8);
            let xr = vec![0.0; 8];
            let mut yr = vec![0.0; 4];
            assert!(pool.mul_vec_sup_window(&rect, &xr, &mut yr, 0..4).is_err());
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
        assert!(pool.mul_vec_dot(&m, &backwards, &x, &mut y, &x).is_err());
        // Fused measure length.
        assert!(pool
            .mul_vec_dot(&m, &partition, &x, &mut y, &x[..5])
            .is_err());
        // Sequential pools ignore the partition entirely.
        let seq = SpmvPool::new(1);
        assert!(seq.is_sequential());
        assert!(seq.mul_vec(&m, &[], &x, &mut y).is_ok());
        // The fully fused kernel refuses rectangular matrices.
        let rect = CsrMatrix::zeros(4, 8);
        let xr = vec![0.0; 8];
        let mut yr = vec![0.0; 4];
        let mr = vec![0.0; 4];
        let pr = rect.nnz_partition(pool.threads());
        assert!(pool.mul_vec_dot_sup(&rect, &pr, &xr, &mut yr, &mr).is_err());
        assert!(seq.mul_vec_dot_sup(&rect, &[], &xr, &mut yr, &mr).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The satellite property: across random banded matrices and
        /// thread counts 1–8, the nnz-partitioned pool product is
        /// bit-identical to the sequential kernel and the fused SpMV+dot
        /// agrees with the two-pass reference to 1e-12 — through both
        /// the CSR and the DIA representation.
        #[test]
        fn pooled_and_fused_match_sequential(
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
            let measure: Vec<f64> = (0..n).map(|i| ((i as f64 - seed) * 0.11).cos()).collect();

            let mut seq = vec![0.0; n];
            m.mul_vec_into(&x, &mut seq).unwrap();
            let seq_dot: f64 = seq.iter().zip(&measure).map(|(a, b)| a * b).sum();
            // The fused sequential kernel agrees with the two-pass
            // reference exactly (same accumulation order).
            let mut fused_seq = vec![0.0; n];
            let fused_dot = m.mul_vec_dot_into(&x, &mut fused_seq, &measure).unwrap();
            prop_assert_eq!(&seq, &fused_seq);
            prop_assert_eq!(fused_dot, seq_dot);

            for threads in 1..=8usize {
                let pool = SpmvPool::with_exact_threads(threads);
                let partition = m.nnz_partition(pool.threads());
                let mut y = vec![0.0; n];
                pool.mul_vec(&m, &partition, &x, &mut y).unwrap();
                prop_assert_eq!(&seq, &y);
                let mut y_fused = vec![0.0; n];
                let dot = pool
                    .mul_vec_dot(&m, &partition, &x, &mut y_fused, &measure)
                    .unwrap();
                prop_assert_eq!(&seq, &y_fused);
                prop_assert!(
                    (dot - seq_dot).abs() <= 1e-12 * seq_dot.abs().max(1.0),
                    "fused dot {} vs {} at {} threads", dot, seq_dot, threads
                );
                // Fully fused variant: same y and dot plus the exact
                // steady-state sup-norm (max reduction is exact, so
                // bitwise equality holds for every partition).
                let seq_sup = seq
                    .iter()
                    .zip(&x)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                let mut y_sup = vec![0.0; n];
                let (dot_s, sup) = pool
                    .mul_vec_dot_sup(&m, &partition, &x, &mut y_sup, &measure)
                    .unwrap();
                prop_assert_eq!(&seq, &y_sup);
                prop_assert_eq!(sup, seq_sup);
                // Sup-only variant (used by transient_distribution_with).
                let mut y_so = vec![0.0; n];
                let sup_only = pool.mul_vec_sup(&m, &partition, &x, &mut y_so).unwrap();
                prop_assert_eq!(&seq, &y_so);
                prop_assert_eq!(sup_only, seq_sup);
                prop_assert!(
                    (dot_s - seq_dot).abs() <= 1e-12 * seq_dot.abs().max(1.0),
                    "fused dot+sup {} vs {} at {} threads", dot_s, seq_dot, threads
                );
                // The DIA representation through the same pool: identical
                // output vector, dot within reassociation tolerance, and
                // the windowed kernel over the full window agrees too.
                let pb = MatrixRef::from(&dia).partition(pool.threads());
                let mut y_dia = vec![0.0; n];
                let (dot_b, sup_b) = pool
                    .mul_vec_dot_sup(&dia, &pb, &x, &mut y_dia, &measure)
                    .unwrap();
                prop_assert_eq!(&seq, &y_dia);
                prop_assert_eq!(sup_b, seq_sup);
                prop_assert!(
                    (dot_b - seq_dot).abs() <= 1e-12 * seq_dot.abs().max(1.0),
                    "dia dot {} vs {} at {} threads", dot_b, seq_dot, threads
                );
                let mut y_win = vec![0.0; n];
                let (dot_w, sup_w) = pool
                    .mul_vec_dot_sup_window(&dia, &x, &mut y_win, &measure, 0..n)
                    .unwrap();
                prop_assert_eq!(&seq, &y_win);
                prop_assert_eq!(sup_w, seq_sup);
                prop_assert!((dot_w - seq_dot).abs() <= 1e-12 * seq_dot.abs().max(1.0));
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
