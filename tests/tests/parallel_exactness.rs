//! Bit-exactness of the parallel execution layer (proptest).
//!
//! Every engine's `gemm`/`gemm_prepared` splits work over disjoint output
//! regions; each output element's accumulation order is identical at any
//! thread count (the AxCore SNC tie-break bit is deterministic — it comes
//! from the activation mantissa MSB, §5.2.2 — so even the "stochastic"
//! rounding path is schedule-independent). These properties pin that down:
//! running the same prepared GEMM on the worker pool with 1 worker and
//! with 2 or 4 workers must produce byte-identical `f32` outputs — on
//! prefill and decode shapes and on pathological activation rows.
//!
//! Sizes are chosen so `m·n·k` exceeds the engines' `MIN_PARALLEL_MACS`
//! work threshold (32·1024); below it both runs would be serial and the
//! property would be vacuous.

use axcore::engines::{
    AxCoreEngine, ExactEngine, FignaEngine, FiglutEngine, FpmaEngine, GemmEngine, TenderEngine,
};
use axcore_quant::{GroupQuantizer, QuantFormat, QuantizedMatrix};
use axcore_softfloat::FP16;
use proptest::prelude::*;

/// `m×k` activations and a `k×n` weight matrix big enough to clear the
/// parallel-work threshold (8·32·192 = 49 152 MACs > 32 768).
const M: usize = 8;
const K: usize = 192;
const N: usize = 32;

fn activations(seed: u64) -> Vec<f32> {
    (0..M * K)
        .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect()
}

fn weights(seed: u64, scale: f32) -> Vec<f32> {
    (0..K * N)
        .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * scale)
        .collect()
}

/// Run `engine.prepare(w)` once, then execute the prepared GEMM under 1
/// worker and under 2 and 4 workers and assert byte identity (NaN
/// payloads included: outputs are compared as bits).
fn assert_parallel_bit_exact(engine: &dyn GemmEngine, a: &[f32], w: &QuantizedMatrix) {
    let prepared = engine.prepare(w);
    let mut serial = vec![0f32; M * N];
    axcore_parallel::with_threads(1, || {
        engine.gemm_prepared(&*prepared, a, M, &mut serial);
    });
    for threads in [2usize, 4] {
        let mut parallel = vec![f32::NAN; M * N];
        axcore_parallel::with_threads(threads, || {
            engine.gemm_prepared(&*prepared, a, M, &mut parallel);
        });
        for (j, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "engine {} elem {j} at {threads} workers: serial {s} != parallel {p}",
                engine.name()
            );
        }
    }
    // The plain gemm path drives the same prepared kernel; it must match too.
    let mut direct = vec![0f32; M * N];
    axcore_parallel::with_threads(4, || {
        engine.gemm(a, M, w, &mut direct);
    });
    for (j, (s, d)) in serial.iter().zip(&direct).enumerate() {
        assert_eq!(
            s.to_bits(),
            d.to_bits(),
            "engine {} elem {j}: gemm diverged from gemm_prepared",
            engine.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// AxCore over block-adaptive FP4 weights: the quantizer mixes E1M2,
    /// E2M1 and E3M0 blocks, so the per-format unit dispatch in the
    /// prepared path is exercised alongside the SNC/Guard datapath.
    #[test]
    fn axcore_parallel_bit_exact(seed in 0u64..500, scale in 0.05f32..2.0) {
        let w = weights(seed, scale);
        let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, K, N);
        let fmts: std::collections::HashSet<_> =
            q.formats.iter().map(|f| format!("{f}")).collect();
        prop_assume!(fmts.len() > 1); // genuinely mixed-format matrix
        assert_parallel_bit_exact(&AxCoreEngine::new(FP16), &activations(seed), &q);
    }

    /// Exact FPC engine over fixed E2M1 weights.
    #[test]
    fn exact_parallel_bit_exact(seed in 0u64..500) {
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32)
            .quantize(&weights(seed, 0.4), K, N);
        assert_parallel_bit_exact(&ExactEngine::new(FP16), &activations(seed), &q);
    }

    /// Uniform-FPMA engine: the approximate mantissa-add product path.
    #[test]
    fn fpma_parallel_bit_exact(seed in 0u64..500) {
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32)
            .quantize(&weights(seed, 0.4), K, N);
        assert_parallel_bit_exact(&FpmaEngine::new(FP16), &activations(seed), &q);
    }

    /// FIGNA and FIGLUT over INT4/INT8 weights.
    #[test]
    fn int_fp_parallel_bit_exact(seed in 0u64..500) {
        let a = activations(seed);
        let q4 = GroupQuantizer::fixed(QuantFormat::INT4, 32)
            .quantize(&weights(seed, 0.3), K, N);
        assert_parallel_bit_exact(&FignaEngine::new(FP16), &a, &q4);
        let q8 = GroupQuantizer::fixed(QuantFormat::INT8, 32)
            .quantize(&weights(seed.wrapping_add(1), 0.3), K, N);
        assert_parallel_bit_exact(&FiglutEngine::new(FP16), &a, &q8);
    }

    /// Tender: activation quantization lives in per-worker scratch, so this
    /// checks the chunked per-row requantization is schedule-independent.
    #[test]
    fn tender_parallel_bit_exact(seed in 0u64..500) {
        let a = activations(seed);
        let q8 = GroupQuantizer::fixed(QuantFormat::INT8, 32)
            .quantize(&weights(seed, 0.3), K, N);
        assert_parallel_bit_exact(&TenderEngine::new(8, 4), &a, &q8);
        assert_parallel_bit_exact(&TenderEngine::new(4, 8), &a, &q8);
    }

    /// Decode shape (m = 1, wide n): the shared-table column-shard path,
    /// including the packed-plane LUT gather, at 2 and 4 workers.
    #[test]
    fn decode_shape_column_split_bit_exact(seed in 0u64..200) {
        // One row, wide n, k large enough to clear the threshold:
        // 1 · 128 · 512 = 65 536 MACs.
        let (k, n) = (512usize, 128usize);
        let w: Vec<f32> = (0..k * n)
            .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.4)
            .collect();
        let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, k, n);
        let a: Vec<f32> = (0..k)
            .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
            .collect();
        let engine = AxCoreEngine::new(FP16);
        let prepared = engine.prepare(&q);
        let mut serial = vec![0f32; n];
        axcore_parallel::with_threads(1, || prepared.gemm(&a, 1, &mut serial));
        for threads in [2usize, 4] {
            let mut parallel = vec![f32::NAN; n];
            axcore_parallel::with_threads(threads, || prepared.gemm(&a, 1, &mut parallel));
            for (j, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                prop_assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "col {} at {} workers: {} != {}",
                    j,
                    threads,
                    s,
                    p
                );
            }
        }
    }
}

/// Pathological activation rows — NaN, ±∞, negative zeros, f32
/// subnormals, FP16-subnormal magnitudes — through every engine at
/// 1/2/4 workers: no panics, and the parallel output stays
/// byte-identical to the serial one.
#[test]
fn pathological_activations_parallel_bit_exact() {
    let mut a = activations(41);
    a[0] = f32::NAN;
    a[K + 1] = f32::INFINITY;
    a[2 * K + 2] = f32::NEG_INFINITY;
    for v in a[3 * K..4 * K].iter_mut() {
        *v = -0.0;
    }
    for (i, v) in a[4 * K..5 * K].iter_mut().enumerate() {
        *v = f32::from_bits(1 + (i as u32 % 127));
    }
    for (i, v) in a[5 * K..6 * K].iter_mut().enumerate() {
        *v = 3.0e-5 + i as f32 * 1.0e-7;
    }
    let q_fp4 = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&weights(41, 0.4), K, N);
    assert_parallel_bit_exact(&AxCoreEngine::new(FP16), &a, &q_fp4);
    let q_e2m1 = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&weights(41, 0.4), K, N);
    assert_parallel_bit_exact(&ExactEngine::new(FP16), &a, &q_e2m1);
    assert_parallel_bit_exact(&FpmaEngine::new(FP16), &a, &q_e2m1);
    let q_i4 = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&weights(41, 0.3), K, N);
    assert_parallel_bit_exact(&FignaEngine::new(FP16), &a, &q_i4);
    let q_i8 = GroupQuantizer::fixed(QuantFormat::INT8, 32).quantize(&weights(41, 0.3), K, N);
    assert_parallel_bit_exact(&FiglutEngine::new(FP16), &a, &q_i8);
    assert_parallel_bit_exact(&TenderEngine::new(8, 4), &a, &q_i8);
}
