//! Cross-crate tests of the MX (shared-microexponent) extension — the
//! paper's §7 future-work direction — running through the full AxCore
//! engine.

use axcore::axscale::AxScale;
use axcore::engines::{reference_gemm, AxCoreEngine, GemmEngine};
use axcore_quant::mx::{scales_are_power_of_two, MxQuantizer};
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::FP16;

fn weights(k: usize, n: usize) -> Vec<f32> {
    (0..k * n)
        .map(|i| ((i * 2654435761usize % 997) as f32 / 498.5 - 1.0) * 0.4)
        .collect()
}

#[test]
fn engines_run_mx_blocks_unchanged() {
    let (m, k, n) = (2, 64, 4);
    let w = weights(k, n);
    let q = MxQuantizer::mxfp4().quantize(&w, k, n);
    assert!(scales_are_power_of_two(&q));
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.1).collect();
    let mut out = vec![0f32; m * n];
    AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
    assert!(out.iter().all(|o| o.is_finite()));
    let wq = q.dequant_all();
    let mut reference = vec![0f64; m * n];
    reference_gemm(&a, m, &wq, k, n, &mut reference);
    for (o, r) in out.iter().zip(&reference) {
        assert!((*o as f64 - r).abs() < r.abs().max(0.5) * 0.25);
    }
}

#[test]
fn axscale_is_exact_on_mx_scales() {
    // Power-of-two scale + zero-mantissa output: the *uncompensated* FPMA
    // scaling is exact — MX removes the need for C₂ entirely.
    let ax = AxScale::new(FP16).without_compensation();
    for e in -4..4 {
        let s = 2f64.powi(e);
        assert_eq!(ax.apply_f64(4.0, s), 4.0 * s);
        assert_eq!(ax.apply_f64(-1.5, s), -1.5 * s);
    }
}

#[test]
fn mx_accuracy_cost_through_engine_is_bounded() {
    // End-to-end GEMM SNR: MX blocks (coarser scales) trail FP16-scaled
    // groups by a bounded margin while saving storage.
    let (m, k, n) = (8, 128, 16);
    let w = weights(k, n);
    let a: Vec<f32> = (0..m * k)
        .map(|i| (i * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    let snr_of = |q: &axcore_quant::QuantizedMatrix| {
        let mut out = vec![0f32; m * n];
        AxCoreEngine::new(FP16).try_gemm(&a, m, q, &mut out).expect("gemm");
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &w, k, n, &mut reference); // vs *unquantized* weights
        let o: Vec<f64> = out.iter().map(|&x| x as f64).collect();
        axcore_fpma::error::snr_db(&reference, &o)
    };
    let mx = MxQuantizer::mxfp4().quantize(&w, k, n);
    let base = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n);
    let (s_mx, s_base) = (snr_of(&mx), snr_of(&base));
    assert!(s_mx > 8.0, "MX SNR {s_mx:.1} dB");
    assert!(s_base - s_mx < 6.0, "MX penalty too large: {s_base:.1} vs {s_mx:.1} dB");
}
