//! Criterion benchmarks of the GEMM engines on a transformer-shaped
//! workload (one FFN down-projection tile), comparing the modelled
//! designs' software throughput.

use axcore::engines::{
    AxCoreConfig, AxCoreEngine, ExactEngine, FignaEngine, FpmaEngine, GemmEngine, TenderEngine,
};
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::FP16;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let (m, k, n) = (16usize, 256usize, 64usize);
    let w: Vec<f32> = (0..k * n)
        .map(|i| ((i * 2654435761usize % 997) as f32 / 498.5 - 1.0) * 0.3)
        .collect();
    let a: Vec<f32> = (0..m * k)
        .map(|i| (i * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    let q_fp4 = GroupQuantizer::adaptive_fp4(64, 16, None).quantize(&w, k, n);
    let q_e2m1 = GroupQuantizer::fixed(QuantFormat::E2M1, 64).quantize(&w, k, n);
    let q_int4 = GroupQuantizer::fixed(QuantFormat::INT4, 64).quantize(&w, k, n);
    let q_int8 = GroupQuantizer::fixed(QuantFormat::INT8, 64).quantize(&w, k, n);
    let mut out = vec![0f32; m * n];

    let mut g = c.benchmark_group("gemm_16x256x64");
    g.bench_function("axcore_full", |b| {
        let e = AxCoreEngine::new(FP16);
        b.iter(|| {
            e.try_gemm(&a, m, &q_fp4, &mut out).expect("gemm");
            black_box(out[0])
        })
    });
    g.bench_function("axcore_mpfpma_base", |b| {
        let e = AxCoreEngine::with_config(FP16, AxCoreConfig::mp_fpma_base());
        b.iter(|| {
            e.try_gemm(&a, m, &q_e2m1, &mut out).expect("gemm");
            black_box(out[0])
        })
    });
    g.bench_function("fpc_exact", |b| {
        let e = ExactEngine::new(FP16);
        b.iter(|| {
            e.try_gemm(&a, m, &q_e2m1, &mut out).expect("gemm");
            black_box(out[0])
        })
    });
    g.bench_function("fpma_uniform", |b| {
        let e = FpmaEngine::new(FP16);
        b.iter(|| {
            e.try_gemm(&a, m, &q_e2m1, &mut out).expect("gemm");
            black_box(out[0])
        })
    });
    g.bench_function("figna_int4", |b| {
        let e = FignaEngine::new(FP16);
        b.iter(|| {
            e.try_gemm(&a, m, &q_int4, &mut out).expect("gemm");
            black_box(out[0])
        })
    });
    g.bench_function("tender_w8a8", |b| {
        let e = TenderEngine::new(8, 8);
        b.iter(|| {
            e.try_gemm(&a, m, &q_int8, &mut out).expect("gemm");
            black_box(out[0])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
