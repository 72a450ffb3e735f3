//! Tender-style baseline (§6.6): an integer-only, *non*-mixed-precision
//! GEMM that quantizes activations too.
//!
//! Tender decomposes activation tensors into chunks with per-chunk
//! power-of-two-related scales to tame outliers before INT GEMM. We model
//! the scheme's essential numerics: symmetric per-token (row) activation
//! quantization with per-chunk scale refinement, exact integer MACs, and
//! scale reconstruction. The accuracy gap the paper reports (Table 2:
//! Tender's perplexity far above the weight-only designs) comes from
//! quantizing the *activations*, which this model reproduces.

use crate::engines::prepared::{drive, run_ladder, Ladder};
use crate::engines::{check_shapes, GemmEngine, PreparedGemm};
use crate::error::GemmError;
use crate::reliability::{self, Verifier};
use axcore_parallel::{arena, Tier};
use axcore_quant::{QuantFormat, QuantizedMatrix};

/// ABFT relative tolerance: activation quantization dominates — A4
/// per-chunk codes carry up to ~1/7 relative error each.
const ABFT_REL: f64 = 0.75;

/// Integer-only GEMM with activation quantization (Tender-like).
#[derive(Debug, Clone, Copy)]
pub struct TenderEngine {
    /// Activation integer bit width (8 for W8A8, 4 for W4A4).
    pub act_bits: u32,
    /// Number of chunks the activation row is split into (per-chunk scales;
    /// Tender's decomposition). 1 = plain per-token quantization.
    pub chunks: usize,
}

impl TenderEngine {
    /// A Tender-style engine with the given activation width and chunking.
    pub fn new(act_bits: u32, chunks: usize) -> Self {
        assert!(chunks >= 1);
        TenderEngine { act_bits, chunks }
    }
}

impl GemmEngine for TenderEngine {
    fn name(&self) -> String {
        format!("Tender-A{}", self.act_bits)
    }

    fn try_gemm(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        check_shapes(a, m, w, out)?;
        self.try_preload(w)?.try_gemm(a, m, out)
    }

    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError> {
        Ok(Box::new(self.try_preload(w)?))
    }
}

/// Integrity checksum over the decoded codes and scales.
fn state_checksum(dec: &[i32], wscales: &[f64]) -> u64 {
    let h = reliability::fold(reliability::CHECKSUM_SEED, dec, |v| v as u32 as u64);
    reliability::fold(h, wscales, f64::to_bits)
}

impl TenderEngine {
    /// Decode the integer weight codes and scales once.
    fn try_preload(&self, w: &QuantizedMatrix) -> Result<TenderPrepared, GemmError> {
        for f in &w.formats {
            if !matches!(f, QuantFormat::Int { .. }) {
                return Err(GemmError::FormatOverflow {
                    engine: "TenderEngine",
                    requirement: "requires INT-quantized weights",
                    got: f.to_string(),
                });
            }
        }
        // Column-major (`col * k + k`) so the chunked MAC loop is contiguous.
        let mut dec = vec![0i32; w.k * w.n];
        for c in 0..w.n {
            for k in 0..w.k {
                dec[c * w.k + k] = w.format(k, c).decode_int(w.code(k, c));
            }
        }
        let groups = w.num_groups();
        let mut wscales = vec![0f64; groups * w.n];
        for g in 0..groups {
            for c in 0..w.n {
                wscales[g * w.n + c] = w.scale(g * w.group_size, c);
            }
        }
        let state_sum = state_checksum(&dec, &wscales);
        Ok(TenderPrepared {
            engine: *self,
            qmax: ((1i64 << (self.act_bits - 1)) - 1) as f64,
            chunks: self.chunks,
            dec,
            wscales,
            k: w.k,
            n: w.n,
            group_size: w.group_size,
            state_sum,
            verifier: Verifier::new(w, ABFT_REL),
        })
    }
}

/// Tender prepared weights: decoded integer codes plus per-group scales.
#[derive(Debug)]
pub struct TenderPrepared {
    /// Owning engine configuration (recovery re-preparation source).
    engine: TenderEngine,
    qmax: f64,
    chunks: usize,
    dec: Vec<i32>,
    wscales: Vec<f64>,
    k: usize,
    n: usize,
    group_size: usize,
    /// Integrity checksum of `dec` + `wscales` at preload.
    state_sum: u64,
    verifier: Verifier,
}

/// Per-worker scratch: the current row's activation codes and chunk scales.
/// Stale-safe: both buffers are fully rewritten when `row` changes (the
/// chunk loop covers `0..k` and every chunk scale), before any read.
struct TenderScratch {
    row: usize,
    acodes: arena::ArenaVec<i32>,
    ascales: arena::ArenaVec<f64>,
}

impl PreparedGemm for TenderPrepared {
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
        &["dec", "wscales"]
    }

    fn fault_surface(&self, site: &str) -> (usize, u32) {
        match site {
            "dec" => (self.dec.len(), 32),
            "wscales" => (self.wscales.len(), 64),
            _ => (0, 0),
        }
    }

    fn inject_fault(&mut self, site: &str, word: usize, bit: u32) -> bool {
        match site {
            "dec" => {
                self.dec[word] ^= 1 << (bit % 32);
                true
            }
            "wscales" => {
                self.wscales[word] =
                    f64::from_bits(self.wscales[word].to_bits() ^ (1 << (bit % 64)));
                true
            }
            _ => false,
        }
    }
}

impl Ladder for TenderPrepared {
    const CONTEXT: &'static str = "tender prepared gemm";

    fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    fn state_ok(&self, _tier: Tier) -> bool {
        state_checksum(&self.dec, &self.wscales) == self.state_sum
    }

    fn run(&self, _tier: Tier, a: &[f32], m: usize, out: &mut [f32]) {
        self.gemm_direct(a, m, out);
    }

    fn recover(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        self.engine.try_preload(self.verifier.pristine())?.gemm_direct(a, m, out);
        Ok(())
    }
}

impl TenderPrepared {
    /// The direct path, the engine's only rung.
    fn gemm_direct(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let chunk_len = k.div_ceil(self.chunks);
        let mk = || TenderScratch {
            row: usize::MAX,
            acodes: arena::take(k, 0i32),
            ascales: arena::take(self.chunks, 0f64),
        };
        drive(m, k, n, 1, out, mk, |s: &mut TenderScratch, i, col0, cols| {
            if s.row != i {
                // Per-token, per-chunk symmetric activation quantization.
                for ch in 0..self.chunks {
                    let lo = ch * chunk_len;
                    let hi = ((ch + 1) * chunk_len).min(k);
                    let mut max_abs = 0f64;
                    for kk in lo..hi {
                        max_abs = max_abs.max((a[i * k + kk] as f64).abs());
                    }
                    let sc = if max_abs == 0.0 { 1.0 } else { max_abs / self.qmax };
                    s.ascales[ch] = sc;
                    for kk in lo..hi {
                        s.acodes[kk] = (a[i * k + kk] as f64 / sc)
                            .round_ties_even()
                            .clamp(-self.qmax, self.qmax) as i32;
                    }
                }
                s.row = i;
            }
            for (j, o) in cols.iter_mut().enumerate() {
                let c = col0 + j;
                let wcol = &self.dec[c * k..(c + 1) * k];
                let mut acc = 0f64;
                for g in 0..groups {
                    let wscale = self.wscales[g * n + c];
                    // Integer MACs are exact; requantization applies the
                    // combined activation×weight scale per (chunk, group).
                    let mut kk = g * gs;
                    while kk < (g + 1) * gs {
                        let ch = kk / chunk_len;
                        let ch_end = (((ch + 1) * chunk_len).min((g + 1) * gs)).min(k);
                        let mut int_acc = 0i64;
                        for (&ac, &wv) in s.acodes[kk..ch_end].iter().zip(&wcol[kk..ch_end]) {
                            int_acc += ac as i64 * wv as i64;
                        }
                        acc += int_acc as f64 * s.ascales[ch] * wscale;
                        kk = ch_end;
                    }
                }
                *o = acc as f32;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::reference_gemm;
    use axcore_quant::GroupQuantizer;

    fn setup(m: usize, k: usize, n: usize) -> (Vec<f32>, QuantizedMatrix, Vec<f64>) {
        let w: Vec<f32> = (0..k * n).map(|i| ((i * 137 % 211) as f32 / 105.0 - 1.0) * 0.25).collect();
        let q = GroupQuantizer::fixed(QuantFormat::INT8, 32).quantize(&w, k, n);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 89 % 311) as f32 / 155.0 - 1.0) * 2.0).collect();
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        (a, q, reference)
    }

    #[test]
    fn a8_close_to_reference() {
        let (m, k, n) = (2, 64, 4);
        let (a, q, reference) = setup(m, k, n);
        let mut out = vec![0f32; m * n];
        TenderEngine::new(8, 4).gemm(&a, m, &q, &mut out);
        for j in 0..m * n {
            let rel = (out[j] as f64 - reference[j]).abs() / reference[j].abs().max(0.5);
            assert!(rel < 0.05, "elem {j}: {} vs {}", out[j], reference[j]);
        }
    }

    #[test]
    fn a4_noisier_than_a8() {
        let (m, k, n) = (4, 128, 8);
        let (a, q, reference) = setup(m, k, n);
        let err_of = |bits: u32| {
            let mut out = vec![0f32; m * n];
            TenderEngine::new(bits, 4).gemm(&a, m, &q, &mut out);
            reference
                .iter()
                .zip(&out)
                .map(|(r, o)| (r - *o as f64).powi(2))
                .sum::<f64>()
        };
        let e8 = err_of(8);
        let e4 = err_of(4);
        assert!(e4 > e8 * 10.0, "A4 err {e4} vs A8 err {e8}");
    }

    #[test]
    fn outlier_hurts_unchunked_more() {
        // One huge activation inflates the per-token scale; chunking
        // contains the damage to its own chunk (Tender's core idea).
        let (m, k, n) = (1, 128, 4);
        let (mut a, q, _) = setup(m, k, n);
        a[5] = 80.0;
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let err_of = |chunks: usize| {
            let mut out = vec![0f32; m * n];
            TenderEngine::new(4, chunks).gemm(&a, m, &q, &mut out);
            reference
                .iter()
                .zip(&out)
                .map(|(r, o)| (r - *o as f64).powi(2))
                .sum::<f64>()
        };
        assert!(err_of(8) < err_of(1), "chunking must help with outliers");
    }
}
