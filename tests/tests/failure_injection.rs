//! Failure injection: hostile inputs through every layer of the stack —
//! non-finite activations, extreme magnitudes, degenerate shapes, and
//! adversarial weight patterns. The datapath's contract is *saturating,
//! finite, deterministic* behaviour, never NaN propagation or panics on
//! valid shapes.

use axcore::engines::{
    AxCoreEngine, ExactEngine, FpmaEngine, GemmEngine, TenderEngine,
};
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::{FP16, FP4_E2M1};

fn fp4_weights(k: usize, n: usize) -> axcore_quant::QuantizedMatrix {
    let w: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
    GroupQuantizer::fixed(QuantFormat::E2M1, k.min(32)).quantize(&w, k, n)
}

fn int_weights(k: usize, n: usize, bits: QuantFormat) -> axcore_quant::QuantizedMatrix {
    let w: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
    GroupQuantizer::fixed(bits, k.min(32)).quantize(&w, k, n)
}

#[test]
fn infinite_activations_saturate_not_nan() {
    let (m, k, n) = (1, 32, 4);
    let q = fp4_weights(k, n);
    let mut a = vec![0.5f32; m * k];
    a[3] = f32::INFINITY;
    a[7] = f32::NEG_INFINITY;
    let mut out = vec![0f32; m * n];
    AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
    // Saturating encode maps ±inf to ±max-finite; outputs stay finite.
    assert!(out.iter().all(|o| o.is_finite()), "{out:?}");
}

#[test]
fn huge_activations_clamp_to_fp16_range() {
    let (m, k, n) = (1, 32, 2);
    let q = fp4_weights(k, n);
    let a = vec![1e30f32; m * k];
    let mut out = vec![0f32; m * n];
    for engine in engines() {
        engine.try_gemm(&a, m, &q, &mut out).expect("gemm");
        assert!(
            out.iter().all(|o| o.is_finite()),
            "{}: {out:?}",
            engine.name()
        );
    }
}

#[test]
fn denormal_activations_flush_cleanly() {
    let (m, k, n) = (1, 32, 2);
    let q = fp4_weights(k, n);
    let a = vec![1e-30f32; m * k]; // far below FP16 subnormal range
    let mut out = vec![0f32; m * n];
    AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
    assert!(out.iter().all(|&o| o == 0.0), "{out:?}");
}

#[test]
fn single_element_dimensions() {
    // m = k-group = n = 1: the smallest legal GEMM.
    let q = GroupQuantizer::fixed(QuantFormat::E2M1, 1).quantize(&[0.5f32], 1, 1);
    let mut out = vec![0f32; 1];
    AxCoreEngine::new(FP16).try_gemm(&[2.0], 1, &q, &mut out).expect("gemm");
    assert!((out[0] - 1.0).abs() < 0.2, "{}", out[0]);
}

#[test]
fn adversarial_weights_all_max_magnitude() {
    // Every weight at ±F_max with alternating signs: maximal per-group
    // scales and heavy cancellation.
    let (m, k, n) = (2, 64, 4);
    // Alternate sign along the accumulation dimension (row index i / n).
    let w: Vec<f32> = (0..k * n)
        .map(|i| if (i / n) % 2 == 0 { 6.0 } else { -6.0 })
        .collect();
    let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n);
    let a = vec![1.0f32; m * k];
    let mut out = vec![0f32; m * n];
    AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
    // Exact cancellation per group: output must be (near) zero, not a
    // saturated garbage value.
    for &o in &out {
        assert!(o.abs() < 1.0, "{out:?}");
    }
}

#[test]
fn nan_activation_does_not_poison_other_outputs() {
    let (m, k, n) = (2, 32, 4);
    let q = fp4_weights(k, n);
    let mut a = vec![0.25f32; m * k];
    a[0] = f32::NAN; // poisons row 0 only
    let mut out = vec![0f32; m * n];
    AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
    // Row 1 saw no NaN and must be unaffected and finite.
    assert!(out[n..].iter().all(|o| o.is_finite()));
    // Row 0: the saturating encoder maps NaN to max-finite — still finite.
    assert!(out[..n].iter().all(|o| o.is_finite()));
}

#[test]
fn all_engines_handle_zero_matrices() {
    let (m, k, n) = (2, 32, 4);
    let q0 = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&vec![0f32; k * n], k, n);
    let qi = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&vec![0f32; k * n], k, n);
    let a = vec![0f32; m * k];
    let mut out = vec![7f32; m * n];
    for engine in engines() {
        let q = if engine.name().contains("FIGNA")
            || engine.name().contains("FIGLUT")
            || engine.name().contains("Tender")
        {
            &qi
        } else {
            &q0
        };
        engine.try_gemm(&a, m, q, &mut out).expect("gemm");
        assert!(out.iter().all(|&o| o == 0.0), "{}", engine.name());
        out.fill(7.0);
    }
}

#[test]
fn tender_survives_constant_rows() {
    // A constant activation row makes every chunk's max equal its values;
    // scales must not divide by zero or produce NaN.
    let (m, k, n) = (1, 32, 2);
    let q = int_weights(k, n, QuantFormat::INT8);
    let a = vec![0.0f32; m * k]; // all-zero row → scale fallback path
    let mut out = vec![1f32; m * n];
    TenderEngine::new(8, 4).try_gemm(&a, m, &q, &mut out).expect("gemm");
    assert!(out.iter().all(|&o| o == 0.0));
}

#[test]
fn snc_handles_every_bit_pattern_without_panic() {
    use axcore_fpma::snc::{SncPolicy, SncUnit};
    for fmt in axcore_softfloat::all_fp4_formats() {
        for policy in [SncPolicy::RoundDown, SncPolicy::RoundUp, SncPolicy::Stochastic] {
            let unit = SncUnit::new(fmt, policy);
            for bits in fmt.all_patterns() {
                for coin in [false, true] {
                    let out = unit.convert(bits, coin);
                    assert!(out.value().is_finite());
                }
            }
        }
    }
    // IEEE weight formats: inf/NaN patterns saturate instead of panicking.
    let unit = SncUnit::new(axcore_softfloat::FP8_E5M2, SncPolicy::RoundUp);
    let inf = axcore_softfloat::FP8_E5M2.compose(false, 31, 0);
    assert!(unit.convert(inf, false).value().is_finite());
}

#[test]
fn shape_validation_panics_are_clean() {
    // A wrong K is a typed error, not a panic.
    let q = fp4_weights(32, 4);
    let mut out = vec![0f32; 4];
    let result = AxCoreEngine::new(FP16).try_gemm(&[1.0f32; 31], 1, &q, &mut out);
    assert!(
        matches!(result, Err(axcore::GemmError::DimMismatch { .. })),
        "shape mismatch must be rejected: {result:?}"
    );
}

#[test]
fn weight_lane_total_domain() {
    // Every FP4 code builds a valid lane (no panic, finite addends).
    use axcore::pe::WeightLane;
    use axcore_fpma::MpFpma;
    let unit = MpFpma::new(FP16, FP4_E2M1);
    for code in 0u16..16 {
        let lane = WeightLane::new(&unit, code as u8);
        assert!(lane.addend_down.abs() < 1 << 20);
        assert!(lane.addend_up.abs() < 1 << 20);
    }
}

fn engines() -> Vec<Box<dyn GemmEngine>> {
    vec![
        Box::new(AxCoreEngine::new(FP16)),
        Box::new(ExactEngine::new(FP16)),
        Box::new(FpmaEngine::new(FP16)),
    ]
}
