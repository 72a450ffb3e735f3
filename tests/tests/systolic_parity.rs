//! Cross-crate integration: the clocked structural systolic array must be
//! bit-identical with the functional engine over formats, configurations,
//! and shapes — pinning down the dataflow semantics end to end.

use axcore::engines::{AxCoreConfig, AxCoreEngine, GemmEngine};
use axcore::systolic::systolic_gemm;
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::{BF16, FP16};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn rand_weights(rng: &mut StdRng, k: usize, n: usize, scale: f32) -> Vec<f32> {
    (0..k * n).map(|_| rng.random_range(-1.0..1.0f32) * scale).collect()
}

#[test]
fn parity_across_formats_and_shapes() {
    let mut rng = StdRng::seed_from_u64(99);
    for fmt in [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0] {
        for (m, k, n, rows, cols) in [(3usize, 16usize, 8usize, 16usize, 4usize), (7, 32, 8, 8, 8)] {
            let w = rand_weights(&mut rng, k, n, 0.8);
            let q = GroupQuantizer::fixed(fmt, rows).quantize(&w, k, n);
            let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-2.0..2.0f32)).collect();
            let cfg = AxCoreConfig::default();
            let mut s = vec![0f32; m * n];
            systolic_gemm(FP16, rows, cols, &a, m, &q, cfg, &mut s);
            let mut f = vec![0f32; m * n];
            AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut f).expect("gemm");
            assert_eq!(s, f, "{fmt} shape ({m},{k},{n}) array {rows}x{cols}");
        }
    }
}

#[test]
fn parity_holds_for_bf16_activations() {
    let mut rng = StdRng::seed_from_u64(5);
    let (m, k, n, rows, cols) = (4, 16, 4, 16, 4);
    let w = rand_weights(&mut rng, k, n, 0.5);
    let q = GroupQuantizer::fixed(QuantFormat::E2M1, rows).quantize(&w, k, n);
    let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0f32)).collect();
    let cfg = AxCoreConfig::default();
    let mut s = vec![0f32; m * n];
    systolic_gemm(BF16, rows, cols, &a, m, &q, cfg, &mut s);
    let mut f = vec![0f32; m * n];
    AxCoreEngine::with_config(BF16, cfg).try_gemm(&a, m, &q, &mut f).expect("gemm");
    assert_eq!(s, f);
}

#[test]
fn parity_with_zero_rich_inputs() {
    // Zero activations and zero weights exercise the Guard/bubble paths.
    let (m, k, n, rows, cols) = (5, 16, 4, 16, 4);
    let mut w = vec![0f32; k * n];
    for (i, v) in w.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = ((i % 7) as f32 - 3.0) * 0.2;
        }
    }
    let q = GroupQuantizer::fixed(QuantFormat::E1M2, rows).quantize(&w, k, n);
    let mut a = vec![0f32; m * k];
    for (i, v) in a.iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = (i % 5) as f32 * 0.3 - 0.6;
        }
    }
    let cfg = AxCoreConfig::default();
    let mut s = vec![0f32; m * n];
    systolic_gemm(FP16, rows, cols, &a, m, &q, cfg, &mut s);
    let mut f = vec![0f32; m * n];
    AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut f).expect("gemm");
    assert_eq!(s, f);
}

#[test]
fn cycle_count_scales_with_work() {
    let (k, n, rows, cols) = (16usize, 8usize, 16usize, 4usize);
    let w: Vec<f32> = (0..k * n).map(|i| (i as f32).sin() * 0.3).collect();
    let q = GroupQuantizer::fixed(QuantFormat::E2M1, rows).quantize(&w, k, n);
    let cfg = AxCoreConfig::default();
    let cycles_for = |m: usize| {
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut out = vec![0f32; m * n];
        systolic_gemm(FP16, rows, cols, &a, m, &q, cfg, &mut out)
    };
    let c2 = cycles_for(2);
    let c16 = cycles_for(16);
    assert!(c16 > c2, "more activation rows must take more cycles");
}
