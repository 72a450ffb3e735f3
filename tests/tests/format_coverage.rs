//! Coverage of the full format matrix the paper's hardware sections
//! evaluate: every engine on BF16/FP32 activations and FP8 weights, not
//! just the W4-FP16 defaults the accuracy sections focus on.

use axcore::engines::{reference_gemm, AxCoreEngine, ExactEngine, FpmaEngine, GemmEngine};
use axcore_fpma::error::snr_db;
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::{BF16, FP16, FP32};

fn fixture(k: usize, n: usize, m: usize) -> (Vec<f32>, Vec<f32>) {
    let w: Vec<f32> = (0..k * n)
        .map(|i| ((i * 2654435761usize % 997) as f32 / 498.5 - 1.0) * 0.4)
        .collect();
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 48271 % 65521) as f32 / 32760.5 - 1.0) * 1.2)
        .collect();
    (w, a)
}

#[test]
fn axcore_runs_all_activation_formats() {
    let (m, k, n) = (4, 128, 8);
    let (w, a) = fixture(k, n, m);
    let q = GroupQuantizer::fixed(QuantFormat::E2M1, 64).quantize(&w, k, n);
    let wq = q.dequant_all();
    let mut reference = vec![0f64; m * n];
    reference_gemm(&a, m, &wq, k, n, &mut reference);
    for act in [FP16, BF16, FP32] {
        let mut out = vec![0f32; m * n];
        AxCoreEngine::new(act).try_gemm(&a, m, &q, &mut out).expect("gemm");
        let o: Vec<f64> = out.iter().map(|&x| x as f64).collect();
        let snr = snr_db(&reference, &o);
        assert!(snr > 15.0, "{}: SNR {snr:.1} dB", act.name);
    }
}

#[test]
fn wider_activation_mantissas_raise_snr() {
    // BF16 (7 mantissa bits) is noisier than FP16 (10), FP32 (23) best —
    // the compute-density/accuracy trade-off behind the paper's BF16
    // columns.
    let (m, k, n) = (8, 256, 16);
    let (w, a) = fixture(k, n, m);
    let q = GroupQuantizer::fixed(QuantFormat::E3M0, 64).quantize(&w, k, n);
    // E3M0 weights make the mpFPMA product exact, isolating the
    // accumulation precision effect.
    let wq = q.dequant_all();
    let mut reference = vec![0f64; m * n];
    reference_gemm(&a, m, &wq, k, n, &mut reference);
    let snr_of = |act| {
        let mut out = vec![0f32; m * n];
        AxCoreEngine::new(act).try_gemm(&a, m, &q, &mut out).expect("gemm");
        let o: Vec<f64> = out.iter().map(|&x| x as f64).collect();
        snr_db(&reference, &o)
    };
    let (s_bf, s_fp16, s_fp32) = (snr_of(BF16), snr_of(FP16), snr_of(FP32));
    assert!(s_bf < s_fp16, "BF16 {s_bf:.1} vs FP16 {s_fp16:.1}");
    assert!(s_fp16 < s_fp32, "FP16 {s_fp16:.1} vs FP32 {s_fp32:.1}");
}

#[test]
fn fp8_weights_through_all_engines() {
    // The paper's W8 scenarios: FP8 E4M3 weights with FP16 activations.
    let (m, k, n) = (4, 128, 8);
    let (w, a) = fixture(k, n, m);
    let q = GroupQuantizer::fixed(QuantFormat::E4M3, 64).quantize(&w, k, n);
    let wq = q.dequant_all();
    let mut reference = vec![0f64; m * n];
    reference_gemm(&a, m, &wq, k, n, &mut reference);
    let engines: Vec<Box<dyn GemmEngine>> = vec![
        Box::new(AxCoreEngine::new(FP16)),
        Box::new(ExactEngine::new(FP16)),
        Box::new(FpmaEngine::new(FP16)),
    ];
    for e in engines {
        let mut out = vec![0f32; m * n];
        e.try_gemm(&a, m, &q, &mut out).expect("gemm");
        let o: Vec<f64> = out.iter().map(|&x| x as f64).collect();
        let snr = snr_db(&reference, &o);
        assert!(snr > 18.0, "{}: SNR {snr:.1} dB", e.name());
    }
}

#[test]
fn fp8_quantization_beats_fp4_in_fidelity() {
    // 8-bit codes reconstruct better than any 4-bit format — the storage/
    // accuracy axis of the W4 vs W8 scenarios.
    let (k, n) = (128, 8);
    let (w, _) = fixture(k, n, 1);
    let q8 = GroupQuantizer::fixed(QuantFormat::E4M3, 64).quantize(&w, k, n);
    let q4 = GroupQuantizer::adaptive_fp4(64, 8, None).quantize(&w, k, n);
    assert!(q8.mse(&w) < q4.mse(&w) / 4.0);
}

#[test]
fn mixed_format_blocks_in_one_gemm() {
    // A matrix whose blocks select different FP4 formats must flow
    // through one GEMM call with per-block PreAdd constants (the
    // "multiple FP formats concurrently across the array" feature).
    let (m, k, n) = (2, 64, 16);
    let mut w = vec![0f32; k * n];
    for kk in 0..k {
        for c in 0..n {
            w[kk * n + c] = if c < 8 {
                [0.25, 0.5, 1.0, 2.0][(kk + c) % 4] // power-of-two block
            } else {
                ((kk * 13 + c * 7) % 100) as f32 / 50.0 - 1.0 // uniform block
            };
        }
    }
    let q = GroupQuantizer::adaptive_fp4(64, 8, None).quantize(&w, k, n);
    let fmts: std::collections::HashSet<String> =
        q.formats.iter().map(|f| f.name()).collect();
    assert!(fmts.len() >= 2, "fixture must mix formats: {fmts:?}");
    let a = vec![0.5f32; m * k];
    let mut out = vec![0f32; m * n];
    AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
    let wq = q.dequant_all();
    let mut reference = vec![0f64; m * n];
    reference_gemm(&a, m, &wq, k, n, &mut reference);
    for (o, r) in out.iter().zip(&reference) {
        assert!((*o as f64 - r).abs() <= r.abs() * 0.15 + 0.05);
    }
}
