//! Layer replays: the lower layers' public functions, timed from
//! outside at the step shapes a traced run actually ran.
//!
//! Each replay reports seconds for one forward-pass shape, so the layer
//! sums can be set against the forward time of the same shape and the
//! gap read as a number (`eval.unattributed_frac`).

use crate::drive::Shapes;
use crate::stats::{mean, median};
use crate::workload::Rng;
use axcore::engines::{with_act_policy, ActPolicy, AxCoreEngine, GemmEngine, PreparedGemm};
use axcore::kmetrics::with_kernel_timing;
use axcore_nn::attention::{attention_context, attention_context_rows_sharded};
use axcore_nn::layers::{apply_act, Linear};
use axcore_nn::model::Block;
use axcore_nn::{KvArena, KvPageConfig, LmConfig, QuantizedLm, TransformerLm};
use axcore_quant::GroupQuantizer;
use axcore_softfloat::FP16;
use std::time::Instant;

/// Timed repetitions per replayed call (after one untimed warm call).
const REPS: usize = 7;
/// Contexts sampled from the run for the KV and attention replays.
const CONTEXTS: usize = 4;
/// Decode positions walked per sampled context in the KV replay.
const KV_WALK: usize = 16;

/// Median seconds of `REPS` calls of `f`, after one warm call.
fn time_med<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let t: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&t)
}

fn random_rows(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.next_u64() % 2001) as f32 / 1000.0 - 1.0)
        .collect()
}

/// The representative shapes of a run: median decode stack, contexts
/// spread over the run's decode contexts, median prompt.
#[derive(Debug, Clone)]
pub struct Summary {
    pub decode_m: usize,
    /// `decode_m` contexts at evenly spaced quantiles of the run's.
    pub decode_ctx: Vec<usize>,
    pub prefill_len: usize,
    /// How many decode steps and prefills the run made.
    pub decode_steps: usize,
    pub prefills: usize,
    /// Mean context over every row the run forwarded.
    pub mean_ctx: f64,
}

fn spread(sorted: &[usize], k: usize) -> Vec<usize> {
    (0..k)
        .map(|i| sorted[((2 * i + 1) * sorted.len()) / (2 * k)])
        .collect()
}

pub fn summarize(s: &Shapes) -> Option<Summary> {
    if s.decode_rows.is_empty() || s.prefill_lens.is_empty() {
        return None;
    }
    let rows: Vec<f64> = s.decode_rows.iter().map(|&r| r as f64).collect();
    let decode_m = (median(&rows).round() as usize).max(1);
    let mut ctx = s.decode_ctx.clone();
    ctx.sort_unstable();
    let lens: Vec<f64> = s.prefill_lens.iter().map(|&p| p as f64).collect();
    let prefill_ctx: f64 = s
        .prefill_lens
        .iter()
        .map(|&p| (p * (p + 1)) as f64 / 2.0)
        .sum();
    let rows_total = s.decode_ctx.len() + s.prefill_lens.iter().sum::<usize>();
    let ctx_total = s.decode_ctx.iter().sum::<usize>() as f64 + prefill_ctx;
    Some(Summary {
        decode_m,
        decode_ctx: spread(&ctx, decode_m),
        prefill_len: median(&lens).round() as usize,
        decode_steps: s.decode_rows.len(),
        prefills: s.prefill_lens.len(),
        mean_ctx: ctx_total / rows_total as f64,
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Median seconds of `a` and of `b` over `REPS` rounds, after one warm
/// round. Every round runs both, so a slow spell of the host lands on
/// both alike and their ratio stays meaningful.
fn time_pair(
    mut a: impl FnMut() -> Result<(), String>,
    mut b: impl FnMut() -> Result<(), String>,
) -> Result<(f64, f64), String> {
    a()?;
    b()?;
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        a()?;
        ta.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b()?;
        tb.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&ta), median(&tb)))
}

/// Forward and GEMM time of one forward pass, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub forward: f64,
    pub gemm: f64,
}

/// `eval` beside `gemm`: the stacked decode forward
/// (`try_forward_paged_batch`) at the summary's shape, and the prefill
/// (`try_forward_paged`) of the median prompt, each timed in turn with
/// the model's linears over the same rows. Returns (decode, prefill).
pub fn forward_and_gemm(
    qlm: &QuantizedLm,
    gemms: &Gemms,
    kv: KvPageConfig,
    sum: &Summary,
    seed: u64,
) -> Result<(Pass, Pass), String> {
    let mut rng = Rng::new(seed);
    let v = qlm.vocab();
    let mut arena = qlm.kv_arena(kv);
    let mut items = Vec::new();
    for &ctx in &sum.decode_ctx {
        let toks: Vec<usize> = (0..ctx).map(|_| rng.range(0, v - 1)).collect();
        let id = arena.try_join().map_err(err)?;
        qlm.try_forward_paged(&toks[..ctx - 1], 0, &mut arena, id)
            .map_err(err)?;
        arena.try_commit(id, ctx - 1).map_err(err)?;
        items.push((id, ctx - 1, toks[ctx - 1]));
    }
    // Uncommitted appends are idempotent, so the same step can repeat.
    let rows = gemms.inputs(sum.decode_m, seed);
    let (forward, gemm) = time_pair(
        || {
            qlm.try_forward_paged_batch(&items, &mut arena)
                .map(drop)
                .map_err(err)
        },
        || gemms.run(&rows, sum.decode_m),
    )?;
    let decode = Pass { forward, gemm };
    for &(id, _, _) in &items {
        arena.leave(id);
    }
    let toks: Vec<usize> = (0..sum.prefill_len).map(|_| rng.range(0, v - 1)).collect();
    let id = arena.try_join().map_err(err)?;
    let rows = gemms.inputs(sum.prefill_len, seed);
    let (forward, gemm) = time_pair(
        || {
            arena.reset(id);
            qlm.try_forward_paged(&toks, 0, &mut arena, id)
                .map(drop)
                .map_err(err)
        },
        || gemms.run(&rows, sum.prefill_len),
    )?;
    Ok((decode, Pass { forward, gemm }))
}

/// `gemm`: the model's own linears, quantized and prepared as
/// `quantize_model` does for `Scheme::AxCore`, run under the process's
/// tier policy on the rows each linear sees in an fp32 forward pass.
pub struct Gemms<'a> {
    model: &'a TransformerLm,
    engine: AxCoreEngine,
    /// Every linear of one forward pass, in order, with its `(k, n)`.
    prepared: Vec<(usize, usize, Box<dyn PreparedGemm>)>,
}

/// Weight-group size along `k`, as the benchmark's model is quantized.
pub const GROUP: usize = 128;
/// Output-column block of the adaptive format choice (`quantize_model`'s).
const BLOCK_COLS: usize = 64;

/// Largest group at most `group` that divides `dim`, as `quantize_model`
/// fits groups to layer widths.
fn fit_group(dim: usize, group: usize) -> usize {
    (1..=group.min(dim))
        .rev()
        .find(|g| dim.is_multiple_of(*g))
        .unwrap_or(1)
}

/// The linears of each block in forward order: Q, K, V, O, FFN up, down.
fn linears(b: &Block) -> [&Linear; 6] {
    [
        &b.attn.wq, &b.attn.wk, &b.attn.wv, &b.attn.wo, &b.fc1, &b.fc2,
    ]
}

impl<'a> Gemms<'a> {
    pub fn new(model: &'a TransformerLm) -> Self {
        let engine = AxCoreEngine::new(FP16);
        let prepared = model
            .blocks
            .iter()
            .flat_map(linears)
            .map(|l| {
                let (k, n) = (l.in_dim, l.out_dim);
                let q = GroupQuantizer::adaptive_fp4(
                    fit_group(k, GROUP),
                    fit_group(n, BLOCK_COLS),
                    None,
                );
                (k, n, engine.prepare(&q.quantize(&l.w, k, n)))
            })
            .collect();
        Gemms {
            model,
            engine,
            prepared,
        }
    }

    /// Each linear's input rows for `m` tokens, from an fp32 forward pass
    /// of the source model: LayerNorm outputs, attention context and the
    /// FFN's ReLU output, sparsity included.
    pub fn inputs(&self, m: usize, seed: u64) -> Vec<Vec<f32>> {
        let model = self.model;
        let c = &model.cfg;
        let (d, nh) = (c.d_model, c.n_heads);
        let mut rng = Rng::new(seed);
        let tokens: Vec<usize> = (0..m).map(|_| rng.range(0, c.vocab - 1)).collect();
        let pos: Vec<usize> = (0..m).collect();
        let te = model.tok_emb.forward_infer(&tokens);
        let pe = model.pos_emb.forward_infer(&pos);
        let mut x: Vec<f32> = te.iter().zip(&pe).map(|(a, b)| a + b).collect();
        let mut rows = Vec::new();
        for b in &model.blocks {
            let h = b.ln1.forward_infer(&x, m);
            let q = b.attn.wq.forward_infer(&h, m);
            let k = b.attn.wk.forward_infer(&h, m);
            let v = b.attn.wv.forward_infer(&h, m);
            let ctx = attention_context(&q, &k, &v, m, d, nh, d / nh);
            let a = b.attn.wo.forward_infer(&ctx, m);
            let x1: Vec<f32> = x.iter().zip(&a).map(|(p, q)| p + q).collect();
            let h2 = b.ln2.forward_infer(&x1, m);
            let f = b.fc1.forward_infer(&h2, m);
            let g: Vec<f32> = f.iter().map(|&v| apply_act(c.act, v)).collect();
            let o = b.fc2.forward_infer(&g, m);
            x = x1.iter().zip(&o).map(|(p, q)| p + q).collect();
            rows.extend([h.clone(), h.clone(), h, ctx, h2, g]);
        }
        rows
    }

    /// Run every linear of one forward pass over `m` rows of `inputs`.
    pub fn run(&self, inputs: &[Vec<f32>], m: usize) -> Result<(), String> {
        let nmax = self.prepared.iter().map(|p| p.1).max().unwrap_or(0);
        let mut y = vec![0f32; m * nmax];
        for ((_, n, prep), x) in self.prepared.iter().zip(inputs) {
            self.engine
                .try_gemm_prepared(&**prep, x, m, &mut y[..m * n])
                .map_err(err)?;
        }
        Ok(())
    }

    /// Kernel-phase microseconds per forward pass over `m` rows with the
    /// W4A8 tier pinned to `policy`: (LUT build, activation quantize).
    pub fn kernel_us(&self, m: usize, policy: ActPolicy, seed: u64) -> Result<(f64, f64), String> {
        let rows = self.inputs(m, seed);
        let (r, t) = with_act_policy(policy, || {
            with_kernel_timing(|| (0..REPS).try_for_each(|_| self.run(&rows, m)))
        });
        r?;
        let per_pass = |ns: u64| ns as f64 / 1e3 / REPS as f64;
        Ok((per_pass(t.lut_build_ns), per_pass(t.act_quant_ns)))
    }

    /// Multiply-accumulates of one forward pass over `m` rows.
    pub fn macs(&self, m: usize) -> f64 {
        self.prepared
            .iter()
            .map(|&(k, n, _)| (m * k * n) as f64)
            .sum()
    }

    /// Bytes one forward pass over `m` rows moves, computed from tensor
    /// sizes: 4-bit weight codes, one FP16 scale per group and column,
    /// f32 activations read and f32 outputs written.
    pub fn bytes(&self, m: usize) -> f64 {
        self.prepared
            .iter()
            .map(|&(k, n, _)| {
                (k * n / 2 + (k / fit_group(k, GROUP)) * n * 2 + m * k * 4 + m * n * 4) as f64
            })
            .sum()
    }
}

/// `kv`: seconds per token, summed over layers, to append a token's
/// K/V rows, to commit it (sealing and parity folding when a page
/// fills), and to gather its sequence's context — walked from each
/// sampled context.
pub fn kv_decode(
    cfg: &LmConfig,
    kv: KvPageConfig,
    contexts: &[usize],
    seed: u64,
) -> Result<(f64, f64, f64), String> {
    let (d, layers) = (cfg.d_model, cfg.n_layers);
    let mut rng = Rng::new(seed);
    let mut arena = KvArena::new(layers, d, cfg.n_heads, kv);
    let (mut kf, mut vf) = (Vec::new(), Vec::new());
    let (mut append, mut commit, mut gather) = (Vec::new(), Vec::new(), Vec::new());
    let row = random_rows(&mut rng, d);
    for &ctx in contexts.iter().take(CONTEXTS) {
        let id = arena.try_join().map_err(err)?;
        let prefix = random_rows(&mut rng, (ctx - 1) * d);
        for li in 0..layers {
            arena.try_append(id, li, 0, &prefix, &prefix).map_err(err)?;
        }
        arena.try_commit(id, ctx - 1).map_err(err)?;
        for pos in ctx - 1..ctx - 1 + KV_WALK {
            let t = Instant::now();
            for li in 0..layers {
                arena.try_append(id, li, pos, &row, &row).map_err(err)?;
            }
            append.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            arena.try_commit(id, pos + 1).map_err(err)?;
            commit.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for li in 0..layers {
                arena
                    .try_gather(id, li, pos + 1, &mut kf, &mut vf)
                    .map_err(err)?;
            }
            gather.push(t.elapsed().as_secs_f64());
        }
        arena.leave(id);
    }
    // Means, not medians: a page seal lands on one token in `block`.
    Ok((mean(&append), mean(&commit), mean(&gather)))
}

/// `kv` for a prefill of `len` tokens, in seconds over all layers:
/// (append and gather the whole prompt, commit it).
pub fn kv_prefill(
    cfg: &LmConfig,
    kv: KvPageConfig,
    len: usize,
    seed: u64,
) -> Result<(f64, f64), String> {
    let (d, layers) = (cfg.d_model, cfg.n_layers);
    let mut rng = Rng::new(seed);
    let mut arena = KvArena::new(layers, d, cfg.n_heads, kv);
    let rows = random_rows(&mut rng, len * d);
    let id = arena.try_join().map_err(err)?;
    let (mut kf, mut vf) = (Vec::new(), Vec::new());
    let (mut fill, mut commit) = (Vec::new(), Vec::new());
    for _ in 0..=REPS {
        arena.reset(id);
        let t = Instant::now();
        for li in 0..layers {
            arena.try_append(id, li, 0, &rows, &rows).map_err(err)?;
            arena
                .try_gather(id, li, len, &mut kf, &mut vf)
                .map_err(err)?;
        }
        fill.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        arena.try_commit(id, len).map_err(err)?;
        commit.push(t.elapsed().as_secs_f64());
    }
    // The first pass warms the arena's pages and is not counted.
    Ok((median(&fill[1..]), median(&commit[1..])))
}

/// `attn`: seconds of `attention_context_rows_sharded` for `m` query
/// rows starting at `start`, one layer.
pub fn attention(cfg: &LmConfig, start: usize, m: usize, seed: u64) -> f64 {
    let d = cfg.d_model;
    let mut rng = Rng::new(seed);
    let q = random_rows(&mut rng, m * d);
    let k = random_rows(&mut rng, (start + m) * d);
    let v = random_rows(&mut rng, (start + m) * d);
    time_med(|| {
        attention_context_rows_sharded(&q, &k, &v, start, m, d, cfg.n_heads, d / cfg.n_heads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_takes_medians_and_spreads_contexts() {
        let s = Shapes {
            decode_rows: vec![1, 2, 3, 3, 3],
            decode_ctx: (10..20).collect(),
            prefill_lens: vec![8, 12, 30],
        };
        let sum = summarize(&s).expect("shapes present");
        assert_eq!(sum.decode_m, 3);
        assert_eq!(sum.decode_ctx, vec![11, 15, 18]);
        assert_eq!(sum.prefill_len, 12);
        assert_eq!((sum.decode_steps, sum.prefills), (5, 3));
        assert!(summarize(&Shapes::default()).is_none());
    }
}
