//! # axcore
//!
//! A functional, bit-accurate model of **AxCore** — the quantization-aware,
//! multiplier-free approximate GEMM unit of the MICRO 2025 paper — together
//! with every baseline GEMM design the paper evaluates against.
//!
//! The modelled datapath follows Fig. 8 of the paper:
//!
//! ```text
//!            weights (FP4, preloaded, stationary)
//!                 │
//!  A ──► PreAdd ──► PE: SNC → align → 7-bit add → Guard → partial FP add
//!  (T = A−B₁+C₁)        │   (per column, weight-stationary)
//!                       ▼
//!                     Norm (shared: Abs → LZD → shift → round)
//!                       ▼
//!                    AxScale (FPMA dequantization: O_q + S − B + C₂)
//!                       ▼
//!                  Accumulator (FP32, across groups)
//! ```
//!
//! * [`preadd::PreAdd`] — correction advancing (§5.3.1),
//! * [`pe::Pe`] / [`pe::WeightLane`] — the mpFPMA processing element (§5.2),
//! * [`accum::PartialAcc`] / [`accum::NormUnit`] — normalization postponing
//!   (§5.3.2),
//! * [`axscale::AxScale`] — FPMA-based dequantization (§5.3.3),
//! * [`engines`] — the [`engines::GemmEngine`] trait with AxCore and all
//!   baselines (FPC, FPMA, FIGNA, FIGLUT, Tender),
//! * [`systolic`] — a cycle-stepped structural model of the weight-
//!   stationary array, validated bit-for-bit against the functional engine.
//!
//! ## Quick start
//!
//! ```
//! use axcore::engines::{AxCoreEngine, GemmEngine};
//! use axcore_quant::GroupQuantizer;
//! use axcore_softfloat::FP16;
//!
//! // Quantize a weight matrix with adaptive format-aware FP4 selection.
//! let w: Vec<f32> = (0..128 * 8).map(|i| ((i % 29) as f32 - 14.0) * 0.05).collect();
//! let q = GroupQuantizer::adaptive_fp4(64, 8, None).quantize(&w, 128, 8);
//!
//! // Multiply through the bit-accurate AxCore datapath.
//! let a = vec![0.25f32; 2 * 128];
//! let mut out = vec![0f32; 2 * 8];
//! AxCoreEngine::new(FP16).try_gemm(&a, 2, &q, &mut out).expect("shapes match");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod axscale;
pub mod engines;
pub mod error;
pub mod kmetrics;
pub mod pe;
pub mod preadd;
pub mod reliability;
pub mod systolic;
pub mod tile;

pub use engines::{
    AxCoreConfig, AxCoreEngine, ExactEngine, FignaEngine, FiglutEngine, FpmaEngine, GemmEngine,
    PreparedGemm, TenderEngine,
};
pub use error::GemmError;
pub use reliability::VerifyPolicy;
