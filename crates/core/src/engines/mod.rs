//! GEMM engines: AxCore and every baseline the paper compares against
//! (§6.1.3) behind one [`GemmEngine`] trait, so the accuracy-evaluation
//! stack and the figure harnesses are generic over designs.
//!
//! | Engine | Paper baseline | Arithmetic |
//! |---|---|---|
//! | [`ExactEngine`] | FPC | FP act × dequantized FP weight, exact FMA, FP32 accumulate |
//! | [`FpmaEngine`] | FPMA | indirect GEMM: dequantize, then uniform FPMA multiply, act-format accumulate |
//! | [`AxCoreEngine`] | mpFPMA / +S / +S+C / AxCore | direct mpGEMM on compressed FP weights (this paper) |
//! | [`FignaEngine`] | FIGNA | exact INT-FP mpGEMM (integer-unit, accuracy-preserving) |
//! | [`FiglutEngine`] | FIGLUT | LUT-based exact INT-FP mpGEMM (numerically = FIGNA) |
//! | [`TenderEngine`] | Tender | integer-only GEMM with per-token activation quantization |

mod act;
mod axcore;
mod exact;
mod fpma;
mod int_fp;
mod lut;
mod prepared;
mod tender;
mod w4a8;

pub use act::{auto_engages, with_act_policy, ActPolicy};
pub use axcore::{AxCoreConfig, AxCoreEngine};
pub use exact::ExactEngine;
pub use fpma::FpmaEngine;
pub use int_fp::{FignaEngine, FiglutEngine};
pub use lut::LutPolicy;
pub use prepared::PreparedGemm;
pub use tender::TenderEngine;

use crate::error::GemmError;
use axcore_quant::QuantizedMatrix;

/// A matrix-multiply engine computing `O = A · W` with `A` an `m × k`
/// row-major `f32` activation matrix and `W` a quantized `k × n` weight
/// matrix. Results overwrite `out` (`m × n`, row-major).
///
/// Callers that reuse a weight matrix across calls (every linear layer
/// during inference) should [`try_prepare`](GemmEngine::try_prepare) it
/// once and run [`PreparedGemm::try_gemm`] per activation tile;
/// [`try_gemm`](GemmEngine::try_gemm) rebuilds the prepared state on
/// every call.
pub trait GemmEngine: std::fmt::Debug + Send + Sync {
    /// Human-readable engine name (used in reports and figures).
    fn name(&self) -> String;

    /// Preload a weight matrix into this engine's stationary form — the
    /// systolic weight-preload phase — reporting weight-format problems
    /// as a [`GemmError`].
    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError>;

    /// Perform the multiplication, reporting shape and weight-format
    /// problems as a [`GemmError`] instead of panicking: the shapes are
    /// checked, then `w` is prepared and run once.
    fn try_gemm(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        prepared::check_prepared_shapes(a, m, w.k, w.n, out)?;
        self.try_prepare(w)?.try_gemm(a, m, out)
    }

    /// Preload a weight matrix into this engine's stationary form.
    ///
    /// # Panics
    ///
    /// Panics if the weight format kind is unsupported by this engine
    /// (shim over [`try_prepare`](GemmEngine::try_prepare)).
    fn prepare(&self, w: &QuantizedMatrix) -> Box<dyn PreparedGemm> {
        self.try_prepare(w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Multiply against prepared weights, reporting shape problems and
    /// pool failures as a [`GemmError`]. Equivalent to
    /// `p.try_gemm(a, m, out)`; provided for callers generic over the
    /// engine.
    fn try_gemm_prepared(
        &self,
        p: &dyn PreparedGemm,
        a: &[f32],
        m: usize,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        p.try_gemm(a, m, out)
    }
}

/// Reference double-precision GEMM against a dense `f32` weight matrix
/// (used by tests and the SNR harness).
pub fn reference_gemm(a: &[f32], m: usize, w: &[f32], k: usize, n: usize, out: &mut [f64]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(w.len(), k * n);
    assert_eq!(out.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += a[i * k + kk] as f64 * w[kk * n + j] as f64;
            }
            out[i * n + j] = acc;
        }
    }
}
