//! Cross-crate property tests over the GEMM engines and the quantization
//! stack (proptest).

use axcore::engines::{
    reference_gemm, AxCoreConfig, AxCoreEngine, ExactEngine, FignaEngine, GemmEngine,
};
use axcore_fpma::error::snr_db;
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::FP16;
use proptest::prelude::*;

fn quantized(
    w: &[f32],
    k: usize,
    n: usize,
    fmt: QuantFormat,
    group: usize,
) -> axcore_quant::QuantizedMatrix {
    GroupQuantizer::fixed(fmt, group).quantize(w, k, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn axcore_outputs_finite_and_bounded(
        seed in 0u64..1000,
        scale in 0.01f32..4.0,
    ) {
        let (m, k, n) = (2usize, 64usize, 4usize);
        let w: Vec<f32> = (0..k * n)
            .map(|i| (((i as u64 + seed) * 2654435761 % 997) as f32 / 498.5 - 1.0) * scale)
            .collect();
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
            .collect();
        let q = quantized(&w, k, n, QuantFormat::E2M1, 32);
        let mut out = vec![0f32; m * n];
        AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
        let bound = (k as f32) * 2.0 * scale * 1.3; // |a|≤1, |w|≤scale, +31% slack
        for &o in &out {
            prop_assert!(o.is_finite());
            prop_assert!(o.abs() <= bound, "output {o} exceeds bound {bound}");
        }
    }

    #[test]
    fn axcore_snr_floor_on_random_data(seed in 0u64..500) {
        let (m, k, n) = (2usize, 128usize, 4usize);
        let w: Vec<f32> = (0..k * n)
            .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.5)
            .collect();
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i as u64 * 13 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
            .collect();
        let q = quantized(&w, k, n, QuantFormat::E2M1, 64);
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        // Skip degenerate instances where the reference nearly cancels.
        let rms = (reference.iter().map(|x| x * x).sum::<f64>() / reference.len() as f64).sqrt();
        prop_assume!(rms > 0.3);
        let mut out = vec![0f32; m * n];
        AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
        let o: Vec<f64> = out.iter().map(|&x| x as f64).collect();
        prop_assert!(snr_db(&reference, &o) > 12.0);
    }

    #[test]
    fn exact_engines_agree_with_reference(seed in 0u64..500) {
        let (m, k, n) = (2usize, 64usize, 4usize);
        let w: Vec<f32> = (0..k * n)
            .map(|i| (((i as u64 + seed * 3) * 2654435761 % 997) as f32 / 498.5 - 1.0) * 0.4)
            .collect();
        let a: Vec<f32> = (0..m * k)
            .map(|i| FP16.quantize(((((i as u64 + seed) * 48271) % 65521) as f32 / 32760.5 - 1.0) as f64) as f32)
            .collect();
        let q_int = quantized(&w, k, n, QuantFormat::INT4, 32);
        let wq = q_int.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let mut out = vec![0f32; m * n];
        FignaEngine::new(FP16).try_gemm(&a, m, &q_int, &mut out).expect("gemm");
        for (o, r) in out.iter().zip(&reference) {
            prop_assert!((*o as f64 - r).abs() <= r.abs().max(1.0) * 1e-4);
        }
    }

    #[test]
    fn engines_are_deterministic(seed in 0u64..200) {
        let (m, k, n) = (2usize, 64usize, 4usize);
        let w: Vec<f32> = (0..k * n)
            .map(|i| (((i as u64 + seed) * 97) % 233) as f32 / 116.5 - 1.0)
            .collect();
        let a: Vec<f32> = (0..m * k)
            .map(|i| (((i as u64 * 3 + seed) * 89) % 251) as f32 / 125.5 - 1.0)
            .collect();
        let q = quantized(&w, k, n, QuantFormat::E1M2, 32);
        let engine = AxCoreEngine::new(FP16);
        let (mut o1, mut o2) = (vec![0f32; m * n], vec![0f32; m * n]);
        engine.try_gemm(&a, m, &q, &mut o1).expect("gemm");
        engine.try_gemm(&a, m, &q, &mut o2).expect("gemm");
        prop_assert_eq!(o1, o2);
    }

    #[test]
    fn ablation_configs_all_run(snc in any::<bool>(), comp in any::<bool>(), fd in any::<bool>()) {
        let cfg = AxCoreConfig {
            snc,
            compensation: comp,
            fpma_dequant: fd,
            ..AxCoreConfig::default()
        };
        let (m, k, n) = (1usize, 32usize, 2usize);
        let w = vec![0.25f32; k * n];
        let a = vec![1.0f32; m * k];
        let q = quantized(&w, k, n, QuantFormat::E2M1, 32);
        let mut out = vec![0f32; m * n];
        AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut out).expect("gemm");
        // All-equal inputs: output ≈ k · 0.25 within approximation error.
        for &o in &out {
            prop_assert!((o - 8.0).abs() < 1.5, "cfg {cfg:?}: {o}");
        }
    }

    #[test]
    fn quant_dequant_error_bounded_by_format(
        seed in 0u64..300,
        fmt_idx in 0usize..4,
    ) {
        let fmt = [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0, QuantFormat::INT4][fmt_idx];
        let (k, n) = (32usize, 4usize);
        let w: Vec<f32> = (0..k * n)
            .map(|i| ((i as u64 + seed * 11) * 2654435761 % 997) as f32 / 498.5 - 1.0)
            .collect();
        let q = quantized(&w, k, n, fmt, 32);
        // Worst-case relative-to-group-max error per format.
        let worst = match fmt {
            QuantFormat::Fp(f) => 0.5 * f.ulp_at(f.max_finite()) / f.max_finite(),
            QuantFormat::Int { .. } => 0.5 / 7.0,
        };
        for kk in 0..k {
            for c in 0..n {
                let e = (q.dequant(kk, c) - w[kk * n + c] as f64).abs();
                let gmax = (0..k)
                    .filter(|r| r / 32 == kk / 32)
                    .map(|r| w[r * n + c].abs())
                    .fold(0f32, f32::max) as f64;
                prop_assert!(e <= worst * gmax + 1e-6, "{fmt} err {e} gmax {gmax}");
            }
        }
    }
}

#[test]
fn exact_vs_axcore_on_llm_shaped_gemm() {
    // One transformer-FFN-shaped GEMM: AxCore within a few percent RMS of
    // the exact core, far from the f64 reference's precision but usable.
    // Positive activations keep the dot products from self-cancelling, so
    // relative RMS is a meaningful scale (zero-mean data makes even small
    // absolute noise look huge next to a near-zero exact output).
    let (m, k, n) = (16usize, 192usize, 48usize);
    let w: Vec<f32> = (0..k * n)
        .map(|i| {
            (0..6)
                .map(|j| (((i * 17 + j * 7919) * 2654435761) % 1000) as f32 / 1000.0 - 0.5)
                .sum::<f32>()
                .abs()
                * 0.15
                + 0.01
        })
        .collect();
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 40503 % 65536) as f32 / 32768.0) * 1.2 + 0.05)
        .collect();
    let q = GroupQuantizer::adaptive_fp4(64, 16, None).quantize(&w, k, n);
    let (mut o_ax, mut o_ex) = (vec![0f32; m * n], vec![0f32; m * n]);
    AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut o_ax).expect("gemm");
    ExactEngine::new(FP16).try_gemm(&a, m, &q, &mut o_ex).expect("gemm");
    let num: f64 = o_ax.iter().zip(&o_ex).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
    let den: f64 = o_ex.iter().map(|y| (*y as f64).powi(2)).sum();
    let rel_rms = (num / den).sqrt();
    assert!(rel_rms < 0.12, "relative RMS divergence {rel_rms:.4}");
}
