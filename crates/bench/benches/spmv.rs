//! Sparse matrix–vector product throughput — the inner loop of the whole
//! paper (§5.3: each uniformisation iteration is one SpMV on `Pᵀ`).
//!
//! Three kernels per matrix size: the sequential reference, the legacy
//! spawn-per-call parallel path (the baseline the persistent pool
//! replaces), and the persistent [`SpmvPool`] with nnz-balanced row
//! blocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kibamrm::discretise::{DiscretisationOptions, DiscretisedModel};
use kibamrm::model::KibamRm;
use kibamrm::workload::Workload;
use markov::pool::SpmvPool;
use markov::sparse::CsrMatrix;
use units::{Charge, Current, Frequency, Rate};

fn fig8_matrix(delta: f64) -> CsrMatrix {
    let w =
        Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96)).unwrap();
    let m = KibamRm::new(
        w,
        Charge::from_amp_seconds(7200.0),
        0.625,
        Rate::per_second(4.5e-5),
    )
    .unwrap();
    let opts = DiscretisationOptions::with_delta(Charge::from_amp_seconds(delta));
    let disc = DiscretisedModel::build(&m, &opts).unwrap();
    // Pᵀ straight from the generator, as the transient engines use it.
    let (pt, _nu) = disc.chain().uniformised_transposed(1.0).unwrap();
    pt
}

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4);
    for delta in [100.0, 50.0, 25.0] {
        let m = fig8_matrix(delta);
        let x = vec![1.0 / m.cols() as f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let param = format!("delta{delta}_nnz{}", m.nnz());
        group.throughput(Throughput::Elements(m.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("sequential", &param), &m, |b, m| {
            b.iter(|| m.mul_vec_into(&x, &mut y).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new(format!("spawn_x{threads}"), &param),
            &m,
            |b, m| b.iter(|| m.mul_vec_parallel(&x, &mut y, threads).unwrap()),
        );
        let pool = SpmvPool::with_exact_threads(threads);
        let partition = m.nnz_partition(pool.threads());
        group.bench_with_input(
            BenchmarkId::new(format!("pool_x{threads}"), &param),
            &m,
            |b, m| b.iter(|| pool.mul_vec(m, &partition, &x, &mut y).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_spmv);
criterion_main!(benches);
