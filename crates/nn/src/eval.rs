//! Quantized-inference evaluation: run a trained [`TransformerLm`] through
//! any compute scheme the paper compares (Table 2's rows) and measure
//! perplexity / task accuracy.
//!
//! Scheme construction mirrors the paper's setup (§6.1.1, §6.5):
//! * linear-layer weights are quantized group-wise (the attention
//!   projections and FFN matrices; the vocabulary head and LayerNorms stay
//!   in high precision, as the baselines do);
//! * activations stay FP16 (each engine re-encodes them bit-exactly);
//! * `AxCore-KV` additionally quantizes the K/V caches to 4 bits grouped
//!   along the accumulation dimension;
//! * Tender quantizes activations too (integer-only GEMM).

use crate::attention::causal_softmax;
use crate::kvcache::{KvArena, KvError, KvPageConfig, SeqId};
use crate::layers::apply_act;
use crate::model::TransformerLm;
use crate::ops::softmax_rows;
use axcore::engines::{
    AxCoreConfig, AxCoreEngine, ExactEngine, FignaEngine, FiglutEngine, FpmaEngine, GemmEngine,
    PreparedGemm, TenderEngine,
};
use axcore::GemmError;
use axcore_quant::{CalibrationStats, GroupQuantizer, KvQuantConfig, QuantFormat};
use axcore_softfloat::FP16;

/// Typed failure of a paged forward pass, split by layer of origin:
/// dense-stage GEMM failures and KV-arena failures take different
/// recovery paths in the [`DecodeScheduler`](crate::scheduler) — a
/// [`GemmError`] fails the request, while a [`KvError`] is backpressure
/// ([`KvError::CapacityExhausted`]) or triggers repair-by-recomputation
/// ([`KvError::CorruptPage`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PagedError {
    /// A dense stage (prepared GEMM / head projection) failed.
    Gemm(GemmError),
    /// The paged KV arena refused or failed the cache operation.
    Kv(KvError),
}

impl std::fmt::Display for PagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagedError::Gemm(e) => write!(f, "{e}"),
            PagedError::Kv(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PagedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PagedError::Gemm(e) => Some(e),
            PagedError::Kv(e) => Some(e),
        }
    }
}

impl From<GemmError> for PagedError {
    fn from(e: GemmError) -> Self {
        PagedError::Gemm(e)
    }
}

impl From<KvError> for PagedError {
    fn from(e: KvError) -> Self {
        PagedError::Kv(e)
    }
}

impl From<PagedError> for crate::generate::GenerateError {
    fn from(e: PagedError) -> Self {
        match e {
            PagedError::Gemm(g) => crate::generate::GenerateError::Gemm(g),
            PagedError::Kv(k) => crate::generate::GenerateError::Kv(k),
        }
    }
}

/// A compute scheme from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Unquantized FP16 inference on an exact core.
    Fp16,
    /// INT4 RTN weights on an exact INT-FP core (the "INT4" row).
    Int4,
    /// FP4 (E2M1) RTN weights on an exact core (the "FP4" row).
    Fp4,
    /// FP4 weights, dequantize-then-uniform-FPMA (the "FPMA" row).
    Fpma,
    /// Direct mpFPMA, no SNC, no compensation (the "mpFPMA" row).
    MpFpma,
    /// mpFPMA + subnormal conversion ("mpFPMA+S").
    MpFpmaS,
    /// mpFPMA + SNC + constant compensation ("mpFPMA+S+C").
    MpFpmaSC,
    /// FIGNA: INT4 weights, exact integer-unit mpGEMM.
    Figna,
    /// FIGLUT: INT4 weights, exact LUT-based mpGEMM.
    Figlut,
    /// Full AxCore: SNC + compensation + adaptive format-aware FP4.
    AxCore,
    /// AxCore plus 4-bit KV-cache quantization ("AxCore-KV").
    AxCoreKv,
    /// Tender with W8A8 and 4-bit KV cache.
    TenderW8A8Kv4,
    /// Tender with W4A4 and 4-bit KV cache.
    TenderW4A4Kv4,
}

impl Scheme {
    /// All Table-2 rows in paper order.
    pub fn table2_rows() -> [Scheme; 13] {
        [
            Scheme::Fp16,
            Scheme::Int4,
            Scheme::Fp4,
            Scheme::Fpma,
            Scheme::MpFpma,
            Scheme::MpFpmaS,
            Scheme::MpFpmaSC,
            Scheme::Figna,
            Scheme::Figlut,
            Scheme::AxCore,
            Scheme::AxCoreKv,
            Scheme::TenderW8A8Kv4,
            Scheme::TenderW4A4Kv4,
        ]
    }

    /// Display name matching the paper's Table 2.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Fp16 => "FP16",
            Scheme::Int4 => "INT4",
            Scheme::Fp4 => "FP4",
            Scheme::Fpma => "FPMA",
            Scheme::MpFpma => "mpFPMA",
            Scheme::MpFpmaS => "mpFPMA+S",
            Scheme::MpFpmaSC => "mpFPMA+S+C",
            Scheme::Figna => "FIGNA",
            Scheme::Figlut => "FIGLUT",
            Scheme::AxCore => "AxCore",
            Scheme::AxCoreKv => "AxCore-KV",
            Scheme::TenderW8A8Kv4 => "Tender W8A8KV4",
            Scheme::TenderW4A4Kv4 => "Tender W4A4KV4",
        }
    }

    /// Weight quantizer for this scheme (`group` = paper group size).
    fn quantizer(&self, group: usize, block_cols: usize, calib: Option<CalibrationStats>) -> Option<GroupQuantizer> {
        match self {
            Scheme::Fp16 => None,
            Scheme::Int4 | Scheme::Figna | Scheme::Figlut => {
                Some(GroupQuantizer::fixed(QuantFormat::INT4, group))
            }
            Scheme::TenderW8A8Kv4 => Some(GroupQuantizer::fixed(QuantFormat::INT8, group)),
            Scheme::TenderW4A4Kv4 => Some(GroupQuantizer::fixed(QuantFormat::INT4, group)),
            Scheme::Fp4 | Scheme::Fpma | Scheme::MpFpma | Scheme::MpFpmaS | Scheme::MpFpmaSC => {
                Some(GroupQuantizer::fixed(QuantFormat::E2M1, group))
            }
            Scheme::AxCore | Scheme::AxCoreKv => {
                Some(GroupQuantizer::adaptive_fp4(group, block_cols, calib))
            }
        }
    }

    /// The GEMM engine executing this scheme's linear layers.
    fn engine(&self) -> Box<dyn GemmEngine> {
        match self {
            Scheme::Fp16 | Scheme::Int4 | Scheme::Fp4 => Box::new(ExactEngine::new(FP16)),
            Scheme::Fpma => Box::new(FpmaEngine::new(FP16)),
            Scheme::MpFpma => {
                Box::new(AxCoreEngine::with_config(FP16, AxCoreConfig::mp_fpma_base()))
            }
            Scheme::MpFpmaS => {
                Box::new(AxCoreEngine::with_config(FP16, AxCoreConfig::with_snc_only()))
            }
            Scheme::MpFpmaSC | Scheme::AxCore | Scheme::AxCoreKv => {
                Box::new(AxCoreEngine::new(FP16))
            }
            Scheme::Figna => Box::new(FignaEngine::new(FP16)),
            Scheme::Figlut => Box::new(FiglutEngine::new(FP16)),
            Scheme::TenderW8A8Kv4 => Box::new(TenderEngine::new(8, 8)),
            Scheme::TenderW4A4Kv4 => Box::new(TenderEngine::new(4, 8)),
        }
    }

    /// Whether this scheme quantizes the KV cache, and how. AxCore-KV uses
    /// the paper's per-cache FP4 formats; Tender's integer-only datapath
    /// stores KV4 as INT4.
    fn kv_config(&self) -> Option<KvQuantConfig> {
        match self {
            Scheme::AxCoreKv => Some(KvQuantConfig::opt()),
            Scheme::TenderW8A8Kv4 | Scheme::TenderW4A4Kv4 => Some(KvQuantConfig {
                k_format: QuantFormat::INT4,
                v_format: QuantFormat::INT4,
                group_size: 64,
            }),
            _ => None,
        }
    }
}

/// A linear layer prepared for a scheme: either weights preloaded into
/// the engine's stationary form (quantize once, [`GemmEngine::prepare`]
/// once — every subsequent forward pass streams activations against the
/// cached [`PreparedGemm`]), or FP16-rounded dense weights for the
/// unquantized baseline.
#[derive(Debug)]
enum PreparedWeights {
    Dense(Vec<f32>),
    Quantized(Box<dyn PreparedGemm>),
}

/// A prepared (weights, bias) pair.
#[derive(Debug)]
struct QuantLinear {
    w: PreparedWeights,
    b: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

/// Aggregated reliability telemetry from the verified GEMM layer (see
/// `axcore::reliability`): a snapshot of what the model's linear layers
/// observed since the last [`QuantizedLm::take_exec_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Prepared-GEMM calls on which verification (ABFT or integrity) ran.
    pub verified_calls: u64,
    /// Total tier-downgrade steps across those calls.
    pub downgrades: u64,
    /// Calls whose output came from a pristine-weight recovery
    /// re-execution.
    pub recoveries: u64,
}

/// Interior-mutable accumulator behind [`ExecStats`] (`linear` takes
/// `&self`).
#[derive(Debug, Default)]
struct ExecCounters {
    verified: std::sync::atomic::AtomicU64,
    downgrades: std::sync::atomic::AtomicU64,
    recoveries: std::sync::atomic::AtomicU64,
    /// Most recent report that recorded a downgrade or recovery.
    last_degraded: std::sync::Mutex<Option<axcore_parallel::ExecReport>>,
}

impl ExecCounters {
    fn absorb(&self, r: axcore_parallel::ExecReport) {
        use std::sync::atomic::Ordering::Relaxed;
        self.verified.fetch_add(r.verified as u64, Relaxed);
        self.downgrades.fetch_add(r.n_downgrades() as u64, Relaxed);
        self.recoveries.fetch_add(r.recovered as u64, Relaxed);
        if r.n_downgrades() > 0 || r.recovered {
            if let Ok(mut slot) = self.last_degraded.lock() {
                *slot = Some(r);
            }
        }
    }
}

/// A model lowered onto one compute scheme.
pub struct QuantizedLm {
    /// The scheme this model executes.
    pub scheme: Scheme,
    src: TransformerLm,
    engine: Box<dyn GemmEngine>,
    /// Engine for KV-cache GEMMs, built once (KV matrices change every
    /// forward pass, so they are quantized per call but the engine is
    /// cached).
    kv_engine: Box<dyn GemmEngine>,
    blocks: Vec<QuantBlock>,
    kv: Option<KvQuantConfig>,
    exec: ExecCounters,
}

struct QuantBlock {
    wq: QuantLinear,
    wk: QuantLinear,
    wv: QuantLinear,
    wo: QuantLinear,
    fc1: QuantLinear,
    fc2: QuantLinear,
}

impl std::fmt::Debug for QuantizedLm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedLm")
            .field("scheme", &self.scheme)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

/// Round a dense weight matrix to FP16 (the unquantized baseline's storage).
fn to_fp16_dense(w: &[f32]) -> Vec<f32> {
    w.iter().map(|&x| FP16.quantize(x as f64) as f32).collect()
}

/// Largest group size ≤ `group` that divides `dim` (layer widths are not
/// always multiples of the nominal group size on small proxies).
fn fit_group(dim: usize, group: usize) -> usize {
    (1..=group.min(dim)).rev().find(|g| dim.is_multiple_of(*g)).unwrap_or(1)
}

fn prepare_linear(
    lin: &crate::layers::Linear,
    engine: &dyn GemmEngine,
    scheme: Scheme,
    group: usize,
    block_cols: usize,
    calib: Option<CalibrationStats>,
) -> QuantLinear {
    let w = match scheme.quantizer(
        fit_group(lin.in_dim, group),
        fit_group(lin.out_dim, block_cols),
        calib,
    ) {
        None => PreparedWeights::Dense(to_fp16_dense(&lin.w)),
        Some(q) => PreparedWeights::Quantized(
            engine.prepare(&q.quantize(&lin.w, lin.in_dim, lin.out_dim)),
        ),
    };
    QuantLinear {
        w,
        b: lin.b.clone(),
        in_dim: lin.in_dim,
        out_dim: lin.out_dim,
    }
}

/// Lower a trained model onto a compute scheme.
///
/// `group` is the weight-group size (128 for the OPT proxies, 64 for the
/// LLaMA proxies in the paper); `calib_tokens` supplies calibration text
/// for AxCore's format-aware selection (per-layer activation statistics
/// are collected with an exact forward pass, mirroring the paper's use of
/// a small Pile calibration set).
pub fn quantize_model(
    model: &TransformerLm,
    scheme: Scheme,
    group: usize,
    calib_tokens: Option<&[usize]>,
) -> QuantizedLm {
    let block_cols = 64usize;
    // Calibration: per-layer input-channel energies from an exact forward
    // pass over the calibration stream.
    let calib = calib_tokens.map(|toks| collect_calibration(model, toks));
    let engine = scheme.engine();
    let mut blocks = Vec::new();
    for (li, b) in model.blocks.iter().enumerate() {
        let stats = |tag: usize| -> Option<CalibrationStats> {
            calib.as_ref().map(|c| c[li * 3 + tag].clone())
        };
        let e = &*engine;
        blocks.push(QuantBlock {
            wq: prepare_linear(&b.attn.wq, e, scheme, group, block_cols, stats(0)),
            wk: prepare_linear(&b.attn.wk, e, scheme, group, block_cols, stats(0)),
            wv: prepare_linear(&b.attn.wv, e, scheme, group, block_cols, stats(0)),
            wo: prepare_linear(&b.attn.wo, e, scheme, group, block_cols, None),
            fc1: prepare_linear(&b.fc1, e, scheme, group, block_cols, stats(1)),
            fc2: prepare_linear(&b.fc2, e, scheme, group, block_cols, stats(2)),
        });
    }
    QuantizedLm {
        scheme,
        src: model.clone(),
        // KV caches are re-quantized per forward pass, so the KV engine is
        // cached here rather than rebuilt per attention head.
        kv_engine: match scheme {
            Scheme::TenderW8A8Kv4 | Scheme::TenderW4A4Kv4 => scheme.engine(),
            _ => Box::new(AxCoreEngine::new(FP16)),
        },
        engine,
        blocks,
        kv: scheme.kv_config(),
        exec: ExecCounters::default(),
    }
}

/// Per-layer calibration statistics: for each block, the input-channel
/// energies of (attention input, FFN input, FFN hidden).
fn collect_calibration(model: &TransformerLm, tokens: &[usize]) -> Vec<CalibrationStats> {
    let s = tokens.len().min(model.cfg.max_seq);
    let tokens = &tokens[..s];
    let pos: Vec<usize> = (0..s).collect();
    let te = model.tok_emb.forward_infer(tokens);
    let pe = model.pos_emb.forward_infer(&pos);
    let mut x: Vec<f32> = te.iter().zip(&pe).map(|(a, b)| a + b).collect();
    let mut stats = Vec::new();
    for b in &model.blocks {
        let h = b.ln1.forward_infer(&x, s);
        stats.push(CalibrationStats::from_activations(&h, model.cfg.d_model));
        let a = b.attn.forward_infer(&h, s);
        let x1: Vec<f32> = x.iter().zip(&a).map(|(p, q)| p + q).collect();
        let h2 = b.ln2.forward_infer(&x1, s);
        stats.push(CalibrationStats::from_activations(&h2, model.cfg.d_model));
        let f = b.fc1.forward_infer(&h2, s);
        let g: Vec<f32> = f.iter().map(|&v| apply_act(model.cfg.act, v)).collect();
        stats.push(CalibrationStats::from_activations(&g, model.cfg.d_ff));
        let o = b.fc2.forward_infer(&g, s);
        x = x1.iter().zip(&o).map(|(p, q)| p + q).collect();
    }
    stats
}

impl QuantizedLm {
    /// Vocabulary size of the underlying model.
    pub fn vocab(&self) -> usize {
        self.src.cfg.vocab
    }

    /// Maximum context length of the underlying model.
    pub fn max_seq(&self) -> usize {
        self.src.cfg.max_seq
    }

    /// Snapshot and reset the reliability telemetry accumulated by this
    /// model's linear layers (verified calls, tier downgrades, pristine
    /// recoveries).
    pub fn take_exec_stats(&self) -> ExecStats {
        use std::sync::atomic::Ordering::Relaxed;
        ExecStats {
            verified_calls: self.exec.verified.swap(0, Relaxed),
            downgrades: self.exec.downgrades.swap(0, Relaxed),
            recoveries: self.exec.recoveries.swap(0, Relaxed),
        }
    }

    /// The most recent execution report that recorded a downgrade or a
    /// recovery, if any linear layer degraded since quantization.
    pub fn last_degraded_report(&self) -> Option<axcore_parallel::ExecReport> {
        self.exec.last_degraded.lock().ok().and_then(|s| *s)
    }

    fn try_linear(&self, ql: &QuantLinear, x: &[f32], rows: usize) -> Result<Vec<f32>, GemmError> {
        let mut y = vec![0f32; rows * ql.out_dim];
        match &ql.w {
            PreparedWeights::Dense(w) => {
                if x.len() != rows * ql.in_dim {
                    return Err(GemmError::DimMismatch {
                        what: "activation shape mismatch",
                        expected: rows * ql.in_dim,
                        got: x.len(),
                    });
                }
                // FP16 storage, exact arithmetic with FP16-rounded
                // activations (the FPC-FP16 baseline path).
                for r in 0..rows {
                    for kk in 0..ql.in_dim {
                        let av = FP16.quantize(x[r * ql.in_dim + kk] as f64) as f32;
                        if av == 0.0 {
                            continue;
                        }
                        let wrow = &w[kk * ql.out_dim..(kk + 1) * ql.out_dim];
                        let yrow = &mut y[r * ql.out_dim..(r + 1) * ql.out_dim];
                        for j in 0..ql.out_dim {
                            yrow[j] += av * wrow[j];
                        }
                    }
                }
            }
            PreparedWeights::Quantized(prep) => {
                // Capture the verified layer's per-call report in a
                // scoped slot: with back-to-back linear calls (or
                // engine-internal nesting) the bare publish/take pair is
                // last-writer-wins and reports can be swallowed or
                // misattributed across calls.
                let (result, report) = axcore_parallel::health::capture_report(|| {
                    self.engine.try_gemm_prepared(&**prep, x, rows, &mut y)
                });
                if let Some(r) = report {
                    self.exec.absorb(r);
                }
                result?;
            }
        }
        for r in 0..rows {
            for j in 0..ql.out_dim {
                y[r * ql.out_dim + j] += ql.b[j];
            }
        }
        Ok(y)
    }

    /// The one transformer block loop behind every forward entry point:
    /// embeds the stacked rows (`tokens[r]` at absolute position
    /// `pos[r]`), runs every block over them, and returns the
    /// `tokens.len() × vocab` logits rows. Each dense stage — embeddings,
    /// LayerNorm, the prepared GEMMs, bias adds, residuals — computes
    /// every output row from its own activation row only (see
    /// `axcore::engines::prepared`). The one step that varies between
    /// callers is `context(layer, q, k, v)`, which turns a layer's
    /// stacked Q/K/V rows into its attention-context rows.
    fn try_forward_rows<E: From<GemmError>>(
        &self,
        tokens: &[usize],
        pos: &[usize],
        mut context: impl FnMut(usize, &[f32], &[f32], &[f32]) -> Result<Vec<f32>, E>,
    ) -> Result<Vec<f32>, E> {
        let act = self.src.cfg.act;
        let m = tokens.len();
        let te = self.src.tok_emb.forward_infer(tokens);
        let pe = self.src.pos_emb.forward_infer(pos);
        let mut x: Vec<f32> = te.iter().zip(&pe).map(|(a, b)| a + b).collect();
        for (li, (b, qb)) in self.src.blocks.iter().zip(&self.blocks).enumerate() {
            let h = b.ln1.forward_infer(&x, m);
            let q = self.try_linear(&qb.wq, &h, m)?;
            let k = self.try_linear(&qb.wk, &h, m)?;
            let v = self.try_linear(&qb.wv, &h, m)?;
            let ctx = context(li, &q, &k, &v)?;
            let a = self.try_linear(&qb.wo, &ctx, m)?;
            let x1: Vec<f32> = x.iter().zip(&a).map(|(p, q)| p + q).collect();
            let h2 = b.ln2.forward_infer(&x1, m);
            let f = self.try_linear(&qb.fc1, &h2, m)?;
            let g: Vec<f32> = f.iter().map(|&v| apply_act(act, v)).collect();
            let o = self.try_linear(&qb.fc2, &g, m)?;
            x = x1.iter().zip(&o).map(|(p, q)| p + q).collect();
        }
        let h = self.src.ln_f.forward_infer(&x, m);
        Ok(self.src.head.try_forward_infer(&h, m)?)
    }

    /// Whole-window causal attention context over rows `0..s`, with the
    /// scheme's whole-matrix KV re-quantization (`Scheme::AxCoreKv`,
    /// Tender): each head's K/V caches are quantized per call and
    /// multiplied on the cached KV engine — the Table-2 measurement
    /// path.
    fn try_window_context(&self, q: &[f32], k: &[f32], v: &[f32]) -> Result<Vec<f32>, GemmError> {
        let cfg = &self.src.cfg;
        let d = cfg.d_model;
        let nh = cfg.n_heads;
        let dh = d / nh;
        let s = q.len() / d;
        let Some(kvcfg) = &self.kv else {
            return Ok(crate::attention::attention_context(q, k, v, s, d, nh, dh));
        };
        let kv_engine = &*self.kv_engine;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = vec![0f32; s * d];
        for hd in 0..nh {
            // K cache for this head: dh × s (accumulate over dh).
            let mut kc = vec![0f32; dh * s];
            let mut vc = vec![0f32; s * dh];
            let mut qh = vec![0f32; s * dh];
            for i in 0..s {
                for e in 0..dh {
                    kc[e * s + i] = k[i * d + hd * dh + e];
                    vc[i * dh + e] = v[i * d + hd * dh + e];
                    qh[i * dh + e] = q[i * d + hd * dh + e];
                }
            }
            let kq = kvcfg.quantize_k(&kc, dh, s);
            let vq = kvcfg.quantize_v(&vc, s, dh);
            let mut scores = vec![0f32; s * s];
            kv_engine.try_gemm(&qh, s, &kq, &mut scores)?;
            for sc in scores.iter_mut() {
                *sc *= scale;
            }
            causal_softmax(&mut scores, s);
            let mut hctx = vec![0f32; s * dh];
            kv_engine.try_gemm(&scores, s, &vq, &mut hctx)?;
            for i in 0..s {
                for e in 0..dh {
                    ctx[i * d + hd * dh + e] = hctx[i * dh + e];
                }
            }
        }
        Ok(ctx)
    }

    /// Forward one window to logits under the scheme.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or an unrecoverable engine failure
    /// (shim over [`QuantizedLm::try_forward`]).
    pub fn forward(&self, tokens: &[usize]) -> Vec<f32> {
        self.try_forward(tokens).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Forward one window to logits under the scheme, with every GEMM
    /// routed through the fallible layer: shape mismatches and
    /// unrecoverable engine failures (e.g. a pool panic that exhausted
    /// the whole degradation ladder) surface as a typed [`GemmError`]
    /// instead of unwinding through the serving stack.
    pub fn try_forward(&self, tokens: &[usize]) -> Result<Vec<f32>, GemmError> {
        let pos: Vec<usize> = (0..tokens.len()).collect();
        self.try_forward_rows(tokens, &pos, |_, q, k, v| self.try_window_context(q, k, v))
    }

    /// A paged KV arena sized for this model — the companion cache of
    /// [`QuantizedLm::try_forward_paged`].
    pub fn kv_arena(&self, cfg: KvPageConfig) -> KvArena {
        let c = &self.src.cfg;
        KvArena::new(c.n_layers, c.d_model, c.n_heads, cfg)
    }

    /// Forward only the `m` newest tokens of a sequence (absolute
    /// positions `start..start + m`) against its paged KV cache,
    /// returning the `m × vocab` logits rows — one run of
    /// [`QuantizedLm::try_forward_paged_batch`]. Appends the new K/V rows
    /// to `arena` as a **hot FP tail**; the caller commits the advance
    /// with [`KvArena::try_commit`] after the pass succeeds (which is when a
    /// quantized arena seals newly filled pages).
    ///
    /// With FP pages this is byte-identical to the matching rows of
    /// [`QuantizedLm::try_forward`] over the full sequence: every dense
    /// stage is row-independent, and the causal attention over gathered
    /// K/V reproduces the full-sequence score rows bit-for-bit
    /// (`crate::attention::attention_context_rows`). The scheme's
    /// whole-matrix KV re-quantization (`Scheme::AxCoreKv` / Tender) is
    /// a per-window measurement path and is **not** applied here; paged
    /// KV quantization is the arena's own page-sealing, selected by
    /// [`KvPageConfig`].
    ///
    /// Failures are typed by layer: a dense-stage failure surfaces as
    /// [`PagedError::Gemm`], a KV-arena failure — capacity exhaustion or
    /// a checksum mismatch detected on gather — as [`PagedError::Kv`],
    /// which the scheduler turns into backpressure or
    /// repair-by-recomputation rather than a failed request.
    pub fn try_forward_paged(
        &self,
        new_tokens: &[usize],
        start: usize,
        arena: &mut KvArena,
        seq: SeqId,
    ) -> Result<Vec<f32>, PagedError> {
        let items: Vec<(SeqId, usize, usize)> =
            new_tokens.iter().enumerate().map(|(i, &t)| (seq, start + i, t)).collect();
        self.try_forward_paged_batch(&items, arena)
    }

    /// The paged forward: stacked rows `items[r] = (seq, pos, token)`,
    /// each token at absolute position `pos` of sequence `seq`, forwarded
    /// against the sequences' paged KV caches, returning
    /// `items.len() × vocab` logits rows in item order.
    ///
    /// The dense stages run once over all stacked rows, amortising
    /// per-call dispatch and verification across the batch; only
    /// attention walks each sequence's own block table. It does so per
    /// *run* — a maximal group of adjacent items of one sequence at
    /// consecutive positions — with one append, one gather and one
    /// attention call per run and layer, so a run of `m` rows does
    /// exactly what [`QuantizedLm::try_forward_paged`] does for those
    /// `m` tokens, and its rows are byte-identical to that call's (the
    /// row-independence above). As there, the caller commits each
    /// sequence's advance with [`KvArena::try_commit`] after the pass
    /// succeeds; on failure the whole stacked pass fails (a
    /// [`PagedError::Kv`] names the one offending sequence so the
    /// scheduler can heal it and retry the rest individually within the
    /// same step).
    pub fn try_forward_paged_batch(
        &self,
        items: &[(SeqId, usize, usize)],
        arena: &mut KvArena,
    ) -> Result<Vec<f32>, PagedError> {
        let cfg = &self.src.cfg;
        let d = cfg.d_model;
        let nh = cfg.n_heads;
        let dh = d / nh;
        // (seq, first position, item rows) of each run.
        let mut runs: Vec<(SeqId, usize, std::ops::Range<usize>)> = Vec::new();
        for (r, &(seq, pos, _)) in items.iter().enumerate() {
            match runs.last_mut() {
                Some((s, start, rows)) if *s == seq && *start + rows.len() == pos => rows.end = r + 1,
                _ => runs.push((seq, pos, r..r + 1)),
            }
        }
        let tokens: Vec<usize> = items.iter().map(|&(_, _, t)| t).collect();
        let pos: Vec<usize> = items.iter().map(|&(_, p, _)| p).collect();
        let (mut kf, mut vf) = (Vec::new(), Vec::new());
        self.try_forward_rows(&tokens, &pos, |li, q, k, v| {
            let mut ctx = Vec::with_capacity(q.len());
            for &(seq, start, ref rows) in &runs {
                let m = rows.len();
                let span = rows.start * d..rows.end * d;
                arena.try_append(seq, li, start, &k[span.clone()], &v[span.clone()])?;
                arena.try_gather(seq, li, start + m, &mut kf, &mut vf)?;
                ctx.extend_from_slice(&crate::attention::attention_context_rows_sharded(
                    &q[span], &kf, &vf, start, m, d, nh, dh,
                ));
            }
            Ok(ctx)
        })
    }

    /// Top-1 next-token accuracy over a token stream (Table-3 metric).
    pub fn accuracy(&self, tokens: &[usize], seq_len: usize) -> f64 {
        let v = self.src.cfg.vocab;
        let (mut hits, mut count) = (0usize, 0usize);
        let mut start = 0;
        while start + seq_len < tokens.len() {
            let window = &tokens[start..start + seq_len + 1];
            let logits = self.forward(&window[..seq_len]);
            for i in 0..seq_len {
                let row = &logits[i * v..(i + 1) * v];
                let argmax = row
                    .iter()
                    .enumerate()
                    .fold(
                        (0usize, f32::NEG_INFINITY),
                        |best, (j, &x)| if x > best.1 { (j, x) } else { best },
                    )
                    .0;
                hits += (argmax == window[i + 1]) as usize;
                count += 1;
            }
            start += seq_len;
        }
        hits as f64 / count as f64
    }
}

/// Perplexity (e^NLL) of a quantized model over a token stream, evaluated
/// in non-overlapping windows of `seq_len` (the paper's protocol with
/// sequence length 2048, scaled to the proxy's context).
pub fn eval_perplexity(qlm: &QuantizedLm, tokens: &[usize], seq_len: usize) -> f64 {
    let v = qlm.src.cfg.vocab;
    let mut total = 0f64;
    let mut count = 0usize;
    let mut start = 0;
    while start + seq_len < tokens.len() {
        let window = &tokens[start..start + seq_len + 1];
        let logits = qlm.forward(&window[..seq_len]);
        let mut probs = logits;
        softmax_rows(&mut probs, seq_len, v);
        for i in 0..seq_len {
            total -= (probs[i * v + window[i + 1]].max(1e-12) as f64).ln();
            count += 1;
        }
        start += seq_len;
    }
    (total / count as f64).exp()
}

/// Perplexity through the **paged** decode path: each non-overlapping
/// window is fed one token at a time against a paged KV cache, the way a
/// serving decode runs, so filled pages get sealed (quantized) and later
/// positions attend to the resident 4-bit KV — the accuracy consequence
/// [`KvPageConfig::quant`] models. With FP pages this matches
/// [`eval_perplexity`] bit-for-bit (each incremental logits row equals
/// the full-window row), making the quantized delta attributable to the
/// page format alone.
pub fn eval_perplexity_paged(
    qlm: &QuantizedLm,
    tokens: &[usize],
    seq_len: usize,
    kv: KvPageConfig,
) -> f64 {
    let v = qlm.src.cfg.vocab;
    let mut arena = qlm.kv_arena(kv);
    let mut total = 0f64;
    let mut count = 0usize;
    let mut start = 0;
    while start + seq_len < tokens.len() {
        let window = &tokens[start..start + seq_len + 1];
        let seq = arena.try_join().unwrap_or_else(|e| panic!("{e}"));
        for i in 0..seq_len {
            let logits = qlm
                .try_forward_paged(&window[i..i + 1], i, &mut arena, seq)
                .unwrap_or_else(|e| panic!("{e}"));
            arena.try_commit(seq, i + 1).unwrap_or_else(|e| panic!("{e}"));
            let mut probs = logits;
            softmax_rows(&mut probs, 1, v);
            total -= (probs[window[i + 1]].max(1e-12) as f64).ln();
            count += 1;
        }
        arena.leave(seq);
        start += seq_len;
    }
    (total / count as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, MarkovSpec};
    use crate::model::LmConfig;
    use crate::train::{train, TrainConfig};
    use std::sync::OnceLock;

    struct Fixture {
        model: TransformerLm,
        corpus: Corpus,
    }

    fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let cfg = LmConfig {
                vocab: 32,
                d_model: 32,
                n_layers: 1,
                n_heads: 2,
                d_ff: 64,
                max_seq: 32,
                act: Default::default(),
            };
            let corpus = Corpus::generate(MarkovSpec { vocab: 32, branching: 3, seed: 7 }, 8000, 800);
            let mut model = TransformerLm::new(cfg, 42);
            let tc = TrainConfig { steps: 200, batch: 4, seq_len: 24, ..Default::default() };
            train(&mut model, &corpus, &tc);
            // LLM-realism: a few high-magnitude FFN hidden channels
            // (function-preserving under ReLU; see the method's docs).
            model.induce_outlier_channels(3, 64.0);
            Fixture { model, corpus }
        })
    }

    #[test]
    fn fp16_matches_exact_inference_closely() {
        let f = fixture();
        let q = quantize_model(&f.model, Scheme::Fp16, 32, None);
        let ppl16 = eval_perplexity(&q, &f.corpus.val, 24);
        let exact = f.model.nll_exact(&f.corpus.val, 24).exp();
        assert!(
            (ppl16 - exact).abs() / exact < 0.01,
            "FP16 {ppl16:.4} vs exact {exact:.4}"
        );
    }

    #[test]
    fn quantized_schemes_degrade_gracefully() {
        let f = fixture();
        let base = eval_perplexity(&quantize_model(&f.model, Scheme::Fp16, 32, None), &f.corpus.val, 24);
        for scheme in [Scheme::Fp4, Scheme::Int4, Scheme::AxCore] {
            let q = quantize_model(&f.model, scheme, 32, Some(&f.corpus.train[..64]));
            let ppl = eval_perplexity(&q, &f.corpus.val, 24);
            assert!(ppl >= base * 0.99, "{}: {ppl:.3} vs FP16 {base:.3}", scheme.name());
            assert!(ppl < base * 1.6, "{}: {ppl:.3} blew up vs {base:.3}", scheme.name());
        }
    }

    #[test]
    fn ablation_ladder_ordering() {
        // Table 2 §6.5.3: mpFPMA > mpFPMA+S > mpFPMA+S+C ≥ AxCore (lower
        // perplexity is better).
        let f = fixture();
        let ppl = |s: Scheme| {
            let q = quantize_model(&f.model, s, 32, Some(&f.corpus.train[..64]));
            eval_perplexity(&q, &f.corpus.val, 24)
        };
        let base = ppl(Scheme::MpFpma);
        let s = ppl(Scheme::MpFpmaS);
        let sc = ppl(Scheme::MpFpmaSC);
        let ax = ppl(Scheme::AxCore);
        assert!(s < base, "+S must improve: {base:.3} -> {s:.3}");
        assert!(sc <= s * 1.02, "+C must not hurt: {s:.3} -> {sc:.3}");
        assert!(ax <= sc * 1.02, "AxCore best-or-equal: {sc:.3} vs {ax:.3}");
    }

    #[test]
    fn tender_a4_much_worse_than_weight_only() {
        let f = fixture();
        let ax = eval_perplexity(
            &quantize_model(&f.model, Scheme::AxCore, 32, None),
            &f.corpus.val,
            24,
        );
        let t4 = eval_perplexity(
            &quantize_model(&f.model, Scheme::TenderW4A4Kv4, 32, None),
            &f.corpus.val,
            24,
        );
        assert!(t4 > ax, "Tender W4A4 {t4:.3} must trail AxCore {ax:.3}");
    }

    #[test]
    fn kv_quantization_costs_little() {
        let f = fixture();
        let ax = eval_perplexity(
            &quantize_model(&f.model, Scheme::AxCore, 32, None),
            &f.corpus.val,
            24,
        );
        let kv = eval_perplexity(
            &quantize_model(&f.model, Scheme::AxCoreKv, 32, None),
            &f.corpus.val,
            24,
        );
        assert!(kv >= ax * 0.98);
        assert!(kv < ax * 1.35, "KV quant blew up: {ax:.3} -> {kv:.3}");
    }

    #[test]
    fn verified_inference_is_bit_identical_and_reports() {
        let f = fixture();
        let q = quantize_model(&f.model, Scheme::AxCore, 32, None);
        let tokens: Vec<usize> = f.corpus.val[..8].to_vec();
        let base = q.forward(&tokens);
        let _ = q.take_exec_stats();
        let full = axcore_parallel::ExecConfig {
            verify: axcore::VerifyPolicy::Full,
            ..axcore_parallel::current_exec()
        };
        let verified = axcore_parallel::with_exec(full, || q.forward(&tokens));
        let stats = q.take_exec_stats();
        assert!(stats.verified_calls > 0, "verification must have run: {stats:?}");
        assert_eq!(stats.recoveries, 0, "healthy run must not recover: {stats:?}");
        assert_eq!(
            base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            verified.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "verification must not change output bits"
        );
    }

    #[test]
    fn accuracy_metric_sane() {
        let f = fixture();
        let q = quantize_model(&f.model, Scheme::Fp16, 32, None);
        let acc = q.accuracy(&f.corpus.val, 24);
        // Trained model beats the uniform baseline by a wide margin.
        assert!(acc > 2.0 / 32.0, "accuracy {acc}");
        assert!(acc <= 1.0);
    }
}
