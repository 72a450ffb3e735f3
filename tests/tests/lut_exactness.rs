//! Bit-exactness of the LUT execution tier (proptest).
//!
//! The LUT tier replaces the prepared engines' inner column loops with
//! per-activation-element product tables gathered by weight code. Every
//! entry is produced by the same datapath as the direct kernel and the
//! gather folds entries in the direct kernel's exact accumulation order,
//! so pinning `LutPolicy::Always` against `LutPolicy::Never` must give
//! byte-identical `f32` outputs — for every engine, weight format, mixed
//! format block layout, and worker count.
//!
//! Tie coverage: the SNC tie codes only occur for specific (activation,
//! weight-code) pairs, so alongside quantizer-produced matrices these
//! properties run *all-codes* matrices — codes cycling the full code
//! space with unit FP16 scales — guaranteeing every table row (both tie
//! variants, zero codes, saturating codes) is gathered. Activations
//! include exact zeros, an FP16 subnormal, and a value that underflows
//! FP16 entirely (the PreAdd Guard-zero path).

use axcore::engines::{
    AxCoreEngine, ExactEngine, FignaEngine, FiglutEngine, FpmaEngine, GemmEngine, LutPolicy,
    TenderEngine,
};
use axcore_parallel::{current_exec, with_exec, ExecConfig};
use axcore_quant::{GroupQuantizer, QuantFormat, QuantizedMatrix};
use axcore_softfloat::FP16;
use proptest::prelude::*;

/// Defaults chosen so `m·k·n` clears the 32Ki-MAC parallel cut-off: the
/// 2- and 4-worker runs genuinely split work instead of degenerating to
/// the serial path.
const M: usize = 8;
const K: usize = 192;
const N: usize = 32;

/// Pseudo-random activations with the LUT edge cases injected: an exact
/// zero, an FP16 subnormal (just under the 2⁻¹⁴ normal threshold), and a
/// magnitude below even FP16's subnormal range (encodes to zero — the
/// Guard-zero table row).
fn activations(len: usize, seed: u64) -> Vec<f32> {
    let mut a: Vec<f32> = (0..len)
        .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    a[len / 3] = 0.0;
    a[len / 2] = 6.05e-5;
    a[2 * len / 3] = 1.0e-7;
    a
}

fn weights(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * scale)
        .collect()
}

/// A hand-built matrix whose codes cycle each block's *entire* code
/// space (offset by `seed` so proptest shifts the phase), with unit FP16
/// scales (`0x3C00`): every LUT table row — both SNC tie variants, the
/// zero codes, the saturating codes — is guaranteed to be gathered.
fn all_codes_matrix(
    k: usize,
    n: usize,
    gs: usize,
    bc: usize,
    formats: &[QuantFormat],
    seed: u64,
) -> QuantizedMatrix {
    let groups = k / gs;
    let nbc = n / bc;
    let fmts: Vec<QuantFormat> =
        (0..groups * nbc).map(|i| formats[i % formats.len()]).collect();
    let mut codes = vec![0u8; k * n];
    for kk in 0..k {
        for col in 0..n {
            let f = fmts[(kk / gs) * nbc + col / bc];
            let space = 1u64 << f.code_bits();
            codes[kk * n + col] = ((kk as u64 + col as u64 + seed) % space) as u8;
        }
    }
    QuantizedMatrix {
        k,
        n,
        group_size: gs,
        block_cols: bc,
        codes,
        scales: vec![0x3C00; groups * n],
        formats: fmts,
    }
}

/// Prepare once, take the direct kernel (`LutPolicy::Never`, one worker)
/// as the reference, then demand byte identity from the LUT tier at 1, 2
/// and 4 workers and from the `Auto` heuristic.
fn assert_lut_bit_exact(engine: &dyn GemmEngine, a: &[f32], m: usize, q: &QuantizedMatrix) {
    let prepared = engine.prepare(q);
    let mut reference = vec![0f32; m * q.n];
    let direct = ExecConfig { threads: 1, lut: LutPolicy::Never, ..current_exec() };
    with_exec(direct, || engine.try_gemm_prepared(&*prepared, a, m, &mut reference).expect("gemm"));
    let mut got = vec![0f32; m * q.n];
    for threads in [1usize, 2, 4] {
        got.fill(f32::NAN);
        let lut = ExecConfig { threads, lut: LutPolicy::Always, ..direct };
        with_exec(lut, || engine.try_gemm_prepared(&*prepared, a, m, &mut got).expect("gemm"));
        for (j, (r, l)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                r.to_bits(),
                l.to_bits(),
                "engine {} threads {threads} elem {j}: direct {r} != lut {l}",
                engine.name()
            );
        }
    }
    // Whatever tier the Auto heuristic picks for this shape must agree.
    got.fill(f32::NAN);
    let auto = ExecConfig { threads: 4, lut: LutPolicy::Auto, ..direct };
    with_exec(auto, || engine.try_gemm_prepared(&*prepared, a, m, &mut got).expect("gemm"));
    for (j, (r, l)) in reference.iter().zip(&got).enumerate() {
        assert_eq!(
            r.to_bits(),
            l.to_bits(),
            "engine {} auto elem {j}: direct {r} != auto {l}",
            engine.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// AxCore over block-adaptive FP4: mixed E1M2/E2M1/E3M0 blocks, so
    /// the per-unit table segments and the group unit masks are
    /// exercised together.
    #[test]
    fn axcore_adaptive_lut_bit_exact(seed in 0u64..500, scale in 0.05f32..2.0) {
        let q = GroupQuantizer::adaptive_fp4(32, 4, None)
            .quantize(&weights(K * N, seed, scale), K, N);
        let fmts: std::collections::HashSet<_> =
            q.formats.iter().map(|f| format!("{f}")).collect();
        prop_assume!(fmts.len() > 1); // genuinely mixed-format matrix
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &activations(M * K, seed), M, &q);
    }

    /// AxCore over an all-codes matrix cycling every FP4 format: every
    /// (tie variant, code) table entry of all three units is gathered.
    #[test]
    fn axcore_all_codes_lut_bit_exact(seed in 0u64..500) {
        let q = all_codes_matrix(
            K, N, 32, 4,
            &[QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0],
            seed,
        );
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &activations(M * K, seed), M, &q);
    }

    /// AxCore over FP8 E4M3 weights: the 256-code table layout.
    #[test]
    fn axcore_fp8_lut_bit_exact(seed in 0u64..200) {
        let q = all_codes_matrix(K, N, 32, 4, &[QuantFormat::E4M3], seed);
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &activations(M * K, seed), M, &q);
    }

    /// Uniform-FPMA: the palette-keyed LUT (scales baked into the
    /// dequantized patterns), over both quantizer output and all-codes
    /// matrices in each FP4 format.
    #[test]
    fn fpma_lut_bit_exact(seed in 0u64..500) {
        let a = activations(M * K, seed);
        let engine = FpmaEngine::new(FP16);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32)
            .quantize(&weights(K * N, seed, 0.4), K, N);
        assert_lut_bit_exact(&engine, &a, M, &q);
        for f in [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0] {
            assert_lut_bit_exact(&engine, &a, M, &all_codes_matrix(K, N, 32, 4, &[f], seed));
        }
    }

    /// FIGNA (INT4) and FIGLUT (INT8): the value-keyed integer LUT,
    /// including mixed INT4/INT8 blocks in one matrix.
    #[test]
    fn int_fp_lut_bit_exact(seed in 0u64..500) {
        let a = activations(M * K, seed);
        let q4 = all_codes_matrix(K, N, 32, 4, &[QuantFormat::INT4], seed);
        assert_lut_bit_exact(&FignaEngine::new(FP16), &a, M, &q4);
        let q8 = all_codes_matrix(K, N, 32, 4, &[QuantFormat::INT8], seed);
        assert_lut_bit_exact(&FiglutEngine::new(FP16), &a, M, &q8);
        let mixed = all_codes_matrix(K, N, 32, 4, &[QuantFormat::INT4, QuantFormat::INT8], seed);
        assert_lut_bit_exact(&FiglutEngine::new(FP16), &a, M, &mixed);
    }

    /// Decode shape (m = 1, wide n): the shared-table column-tile split
    /// in `drive_lut` — one build on the calling thread, read-only
    /// gathers across workers.
    #[test]
    fn decode_shape_lut_bit_exact(seed in 0u64..200) {
        let (k, n) = (512usize, 128usize);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None)
            .quantize(&weights(k * n, seed, 0.4), k, n);
        let a = activations(k, seed);
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &a, 1, &q);
    }
}

/// Activation rows built to stress the encode/Guard/normalize paths:
/// NaN, ±∞, a row of negative zeros, a row of f32 subnormals (below
/// even FP16's subnormal range — the Guard-zero path), and a row of
/// FP16-subnormal magnitudes. One pathological value or row each, the
/// rest pseudo-random.
fn pathological_activations() -> Vec<f32> {
    let mut a = activations(M * K, 97);
    a[0] = f32::NAN;
    a[K + 1] = f32::INFINITY;
    a[2 * K + 2] = f32::NEG_INFINITY;
    for v in a[3 * K..4 * K].iter_mut() {
        *v = -0.0;
    }
    for (i, v) in a[4 * K..5 * K].iter_mut().enumerate() {
        *v = f32::from_bits(1 + (i as u32 % 127)); // f32 subnormals
    }
    for (i, v) in a[5 * K..6 * K].iter_mut().enumerate() {
        *v = 3.0e-5 + i as f32 * 1.0e-7; // FP16 subnormal magnitudes
    }
    a
}

/// Pathological rows through every engine: no panics on any tier, and
/// the LUT tiers stay byte-identical to the direct kernel even when the
/// outputs are NaN/∞ (compared as bits, so NaN payloads count too).
#[test]
fn pathological_activations_bit_identical_across_tiers() {
    let a = pathological_activations();
    let q_ax = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&weights(K * N, 3, 0.4), K, N);
    assert_lut_bit_exact(&AxCoreEngine::new(FP16), &a, M, &q_ax);
    let q_fp4 = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&weights(K * N, 3, 0.4), K, N);
    assert_lut_bit_exact(&ExactEngine::new(FP16), &a, M, &q_fp4);
    assert_lut_bit_exact(&FpmaEngine::new(FP16), &a, M, &q_fp4);
    let q_i4 = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&weights(K * N, 3, 0.3), K, N);
    assert_lut_bit_exact(&FignaEngine::new(FP16), &a, M, &q_i4);
    let q_i8 = GroupQuantizer::fixed(QuantFormat::INT8, 32).quantize(&weights(K * N, 3, 0.3), K, N);
    assert_lut_bit_exact(&FiglutEngine::new(FP16), &a, M, &q_i8);
    assert_lut_bit_exact(&TenderEngine::new(8, 4), &a, M, &q_i8);
}

/// The same pathological rows must also survive `Full` verification
/// without spurious degradation: the ABFT row check is NaN/∞-tolerant
/// (a non-finite checksum discrepancy never *exceeds* the tolerance
/// comparison), so a healthy engine must not downgrade or recover.
#[test]
fn pathological_activations_survive_full_verification() {
    use axcore::VerifyPolicy;
    let a = pathological_activations();
    let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&weights(K * N, 3, 0.4), K, N);
    let engine = AxCoreEngine::new(FP16);
    let prepared = engine.prepare(&q);
    let mut reference = vec![0f32; M * N];
    let direct = ExecConfig { threads: 1, lut: LutPolicy::Never, ..current_exec() };
    with_exec(direct, || prepared.try_gemm(&a, M, &mut reference).expect("gemm"));
    for policy in [LutPolicy::Never, LutPolicy::Always] {
        let mut out = vec![f32::NAN; M * N];
        let verified = ExecConfig { lut: policy, verify: VerifyPolicy::Full, ..direct };
        with_exec(verified, || prepared.try_gemm(&a, M, &mut out).expect("gemm"));
        let report = axcore_parallel::health::take_report();
        if let Some(r) = report {
            assert_eq!(r.n_downgrades(), 0, "healthy call must not degrade: {r:?}");
            assert!(!r.recovered, "healthy call must not recover: {r:?}");
        }
        for (j, (r, o)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(r.to_bits(), o.to_bits(), "policy {policy:?} elem {j}");
        }
    }
}
