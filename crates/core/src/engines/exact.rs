//! The FPC baseline: a conventional floating-point GEMM core with exact
//! fused-multiply-add PEs and FP32 accumulators (§6.1.3).
//!
//! With quantized weights the FPC executes *indirect* GEMM (Fig. 3b): codes
//! are dequantized to the activation format first, then multiplied exactly.

use crate::engines::prepared::{drive, run_ladder, Ladder};
use crate::engines::{check_shapes, GemmEngine, PreparedGemm};
use crate::error::GemmError;
use crate::reliability::{self, Verifier};
use axcore_parallel::{arena, Tier};
use axcore_quant::QuantizedMatrix;
use axcore_softfloat::FpFormat;

/// ABFT relative tolerance: activation/weight quantization to the core's
/// input format dominates (≈ 2⁻¹⁰ per product for FP16, wider for FP8
/// activation formats).
const ABFT_REL: f64 = 0.1;

/// Exact FMA GEMM core ("FPC" in the paper's figures).
#[derive(Debug, Clone, Copy)]
pub struct ExactEngine {
    act: FpFormat,
}

impl ExactEngine {
    /// An exact GEMM core for the given activation format.
    pub fn new(act: FpFormat) -> Self {
        ExactEngine { act }
    }

    /// The activation format.
    pub fn act_format(&self) -> FpFormat {
        self.act
    }
}

impl GemmEngine for ExactEngine {
    fn name(&self) -> String {
        format!("FPC-{}", self.act.name)
    }

    fn try_gemm(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        check_shapes(a, m, w, out)?;
        self.preload(w).try_gemm(a, m, out)
    }

    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError> {
        Ok(Box::new(self.preload(w)))
    }
}

impl ExactEngine {
    /// Dequantize once into the activation format (indirect GEMM). The
    /// result is stored column-major so the MAC loop walks contiguously.
    fn preload(&self, w: &QuantizedMatrix) -> ExactPrepared {
        let mut wr = vec![0f64; w.k * w.n];
        for c in 0..w.n {
            for k in 0..w.k {
                wr[c * w.k + k] = self.act.quantize(w.dequant(k, c));
            }
        }
        let state_sum = state_checksum(&wr);
        ExactPrepared {
            act: self.act,
            wr,
            k: w.k,
            n: w.n,
            state_sum,
            verifier: Verifier::new(w, ABFT_REL),
        }
    }
}

/// Integrity checksum over the dequantized weight image.
fn state_checksum(wr: &[f64]) -> u64 {
    reliability::fold(reliability::CHECKSUM_SEED, wr, f64::to_bits)
}

/// Exact-engine prepared weights: the matrix dequantized to the
/// activation format, ready for exact FMA streaming.
#[derive(Debug)]
pub struct ExactPrepared {
    act: FpFormat,
    wr: Vec<f64>,
    k: usize,
    n: usize,
    /// Integrity checksum of `wr`, recorded at preload.
    state_sum: u64,
    verifier: Verifier,
}

struct ExactScratch {
    row: usize,
    /// Stale-safe: every element is rewritten when `row` changes, before
    /// any read.
    arow: arena::ArenaVec<f64>,
}

impl PreparedGemm for ExactPrepared {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn try_gemm(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        run_ladder(self, a, m, out)
    }

    fn fault_sites(&self) -> &'static [&'static str] {
        &["weights"]
    }

    fn fault_surface(&self, site: &str) -> (usize, u32) {
        match site {
            "weights" => (self.wr.len(), 64),
            _ => (0, 0),
        }
    }

    fn inject_fault(&mut self, site: &str, word: usize, bit: u32) -> bool {
        match site {
            "weights" => {
                self.wr[word] = f64::from_bits(self.wr[word].to_bits() ^ (1 << (bit % 64)));
                true
            }
            _ => false,
        }
    }
}

impl Ladder for ExactPrepared {
    const CONTEXT: &'static str = "exact prepared gemm";

    fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    fn state_ok(&self, _tier: Tier) -> bool {
        state_checksum(&self.wr) == self.state_sum
    }

    fn run(&self, _tier: Tier, a: &[f32], m: usize, out: &mut [f32]) {
        self.gemm_direct(a, m, out);
    }

    fn recover(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        ExactEngine::new(self.act).preload(self.verifier.pristine()).gemm_direct(a, m, out);
        Ok(())
    }
}

impl ExactPrepared {
    /// The direct path, the engine's only rung.
    fn gemm_direct(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let mk = || ExactScratch { row: usize::MAX, arow: arena::take(k, 0f64) };
        drive(m, k, n, 1, out, mk, |s: &mut ExactScratch, i, col0, cols| {
            if s.row != i {
                // Quantize the activation row to the core's input format,
                // once per row per worker.
                for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                    s.arow[kk] = self.act.quantize(av as f64);
                }
                s.row = i;
            }
            for (j, o) in cols.iter_mut().enumerate() {
                let c = col0 + j;
                let wcol = &self.wr[c * k..(c + 1) * k];
                // Exact product (both operands ≤ 24 significand bits →
                // exact in f64), FP32 accumulation per add.
                let mut acc = 0f32;
                for (av, wv) in s.arow.iter().zip(wcol) {
                    acc += (av * wv) as f32;
                }
                *o = acc;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcore_quant::{GroupQuantizer, QuantFormat};
    use axcore_softfloat::{FP16, FP32};

    #[test]
    fn exact_on_representable_data() {
        let (m, k, n) = (2, 32, 2);
        let w: Vec<f32> = (0..k * n).map(|i| [0.5f32, -1.0, 2.0, 1.5][i % 4]).collect();
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n);
        let a: Vec<f32> = (0..m * k).map(|i| [1.0f32, -0.5][i % 2]).collect();
        let mut out = vec![0f32; m * n];
        ExactEngine::new(FP16).gemm(&a, m, &q, &mut out);
        // Reference in f64.
        for i in 0..m {
            for c in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] as f64 * w[kk * n + c] as f64;
                }
                assert_eq!(out[i * n + c] as f64, acc);
            }
        }
    }

    #[test]
    fn works_with_int_weights() {
        let (k, n) = (32, 2);
        let w: Vec<f32> = (0..k * n).map(|i| (i as f32 - 30.0) * 0.01).collect();
        let q = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&w, k, n);
        let mut out = vec![0f32; n];
        ExactEngine::new(FP32).gemm(&vec![1.0f32; k], 1, &q, &mut out);
        let col0: f64 = (0..k).map(|kk| q.dequant(kk, 0)).sum();
        assert!((out[0] as f64 - col0).abs() < 1e-3);
    }
}
