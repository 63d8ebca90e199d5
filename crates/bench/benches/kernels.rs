//! Criterion benches over the CPU reference kernels (Figure 6/7 CPU-side
//! sanity check: quantized and sparse kernels must move fewer bytes and
//! grouped SBMM must beat the per-request loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dz_compress::obs::{compress_matrix, ObsConfig};
use dz_compress::pack::CompressedMatrix;
use dz_compress::quant::QuantSpec;
use dz_kernels::{quant_gemm, sbmm_grouped, sbmm_naive};
use dz_tensor::{Matrix, Rng};

/// A packed delta at group size 16, the starred configs' group.
fn packed(d_in: usize, d_out: usize, bits: u32, sparse: bool, seed: u64) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let w = Matrix::randn(d_in, d_out, 0.02, &mut rng);
    let cfg = ObsConfig {
        spec: QuantSpec::new(bits, 16),
        sparse24: sparse,
        damp: 0.05,
    };
    compress_matrix(&w, &Matrix::identity(d_in), &cfg).packed
}

fn bench_gemm_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_formats");
    let (d_in, d_out) = (256, 256);
    let mut rng = Rng::seeded(1);
    let w = Matrix::randn(d_in, d_out, 0.02, &mut rng);
    let dense4 = packed(d_in, d_out, 4, false, 2);
    let sparse4 = packed(d_in, d_out, 4, true, 3);
    for m in [1usize, 8, 64] {
        let x = Matrix::randn(m, d_in, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("fp16_dense", m), &x, |b, x| {
            b.iter(|| x.matmul(&w))
        });
        group.bench_with_input(BenchmarkId::new("int4_dense", m), &x, |b, x| {
            b.iter(|| quant_gemm(x, &dense4))
        });
        group.bench_with_input(BenchmarkId::new("int4_sparse24", m), &x, |b, x| {
            b.iter(|| quant_gemm(x, &sparse4))
        });
    }
    group.finish();
}

/// `quant_gemm` on the served `llama-tiny-l` projection shapes (d=96,
/// d_ff=192) with the starred sparsegpt configs the server runs
/// (`DeltaCompressConfig::starred`): int4 and int2, 2:4, group size 16,
/// at batch 1 (prefill and a one-request decode step) and 8 (a full
/// decode batch).
fn bench_served_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_gemm_served");
    let mut rng = Rng::seeded(20);
    for (d_in, d_out) in [(96usize, 96usize), (96, 192), (192, 96)] {
        for bits in [4u32, 2] {
            let cm = packed(d_in, d_out, bits, true, 21);
            for m in [1usize, 8] {
                let x = Matrix::randn(m, d_in, 1.0, &mut rng);
                let id = format!("int{bits}_sparse24_{d_in}x{d_out}");
                group.bench_with_input(BenchmarkId::new(id, m), &x, |b, x| {
                    b.iter(|| quant_gemm(x, &cm))
                });
            }
        }
    }
    group.finish();
}

fn bench_sbmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sbmm");
    let (d_in, d_out) = (128, 128);
    let mut rng = Rng::seeded(4);
    for n_models in [4usize, 16] {
        let deltas: Vec<CompressedMatrix> = (0..n_models)
            .map(|i| packed(d_in, d_out, 4, true, 10 + i as u64))
            .collect();
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let batch = 32usize;
        let x = Matrix::randn(batch, d_in, 1.0, &mut rng);
        let idx: Vec<usize> = (0..batch).map(|i| i % n_models).collect();
        group.bench_with_input(BenchmarkId::new("naive", n_models), &x, |b, x| {
            b.iter(|| sbmm_naive(x, &idx, &refs))
        });
        group.bench_with_input(BenchmarkId::new("grouped", n_models), &x, |b, x| {
            b.iter(|| sbmm_grouped(x, &idx, &refs))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_formats, bench_served_shapes, bench_sbmm);
criterion_main!(benches);
