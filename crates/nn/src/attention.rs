//! Multi-head causal self-attention with a hand-written backward pass.

use crate::layers::Linear;
use crate::ops::softmax_rows;
use axcore::GemmError;
use rand::rngs::StdRng;

/// Multi-head causal self-attention over a single sequence of length `s`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Model width.
    pub d_model: usize,
    /// Number of heads.
    pub n_heads: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    probs: Vec<f32>, // per head: s×s
    s: usize,
}

impl MultiHeadAttention {
    /// Build with the given width and head count.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut StdRng) -> Self {
        assert!(d_model.is_multiple_of(n_heads), "d_model must divide into heads");
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            d_model,
            n_heads,
            cache: None,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Forward over one sequence (`s × d_model`), caching for backward.
    pub fn forward(&mut self, x: &[f32], s: usize) -> Vec<f32> {
        let d = self.d_model;
        let dh = self.head_dim();
        let q = self.wq.forward(x, s);
        let k = self.wk.forward(x, s);
        let v = self.wv.forward(x, s);
        let scale = 1.0 / (dh as f32).sqrt();

        let mut ctx = vec![0f32; s * d];
        let mut probs_all = vec![0f32; self.n_heads * s * s];
        for h in 0..self.n_heads {
            // scores[i][j] = q_i · k_j for j ≤ i.
            let mut scores = vec![f32::NEG_INFINITY; s * s];
            for i in 0..s {
                for j in 0..=i {
                    let mut acc = 0f32;
                    for e in 0..dh {
                        acc += q[i * d + h * dh + e] * k[j * d + h * dh + e];
                    }
                    scores[i * s + j] = acc * scale;
                }
            }
            softmax_rows(&mut scores, s, s);
            probs_all[h * s * s..(h + 1) * s * s].copy_from_slice(&scores);
            for i in 0..s {
                for j in 0..=i {
                    let p = scores[i * s + j];
                    if p == 0.0 {
                        continue;
                    }
                    for e in 0..dh {
                        ctx[i * d + h * dh + e] += p * v[j * d + h * dh + e];
                    }
                }
            }
        }
        self.cache = Some(AttnCache {
            q,
            k,
            v,
            probs: probs_all,
            s,
        });
        self.wo.forward(&ctx, s)
    }

    /// Backward: propagate through the output projection, attention
    /// weights, and the Q/K/V projections; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        let Some(cache) = self.cache.take() else { panic!("backward before forward") };
        let AttnCache { q, k, v, probs, s } = cache;
        let d = self.d_model;
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        let dctx = self.wo.backward(dy);
        let mut dq = vec![0f32; s * d];
        let mut dk = vec![0f32; s * d];
        let mut dv = vec![0f32; s * d];
        for h in 0..self.n_heads {
            let p = &probs[h * s * s..(h + 1) * s * s];
            // dV = Pᵀ · dctx ; dP = dctx · Vᵀ.
            let mut dp = vec![0f32; s * s];
            for i in 0..s {
                for j in 0..=i {
                    let mut acc = 0f32;
                    for e in 0..dh {
                        acc += dctx[i * d + h * dh + e] * v[j * d + h * dh + e];
                    }
                    dp[i * s + j] = acc;
                    let pij = p[i * s + j];
                    if pij != 0.0 {
                        for e in 0..dh {
                            dv[j * d + h * dh + e] += pij * dctx[i * d + h * dh + e];
                        }
                    }
                }
            }
            // Softmax backward per row: ds = p ⊙ (dp − Σ p·dp).
            for i in 0..s {
                let row_p = &p[i * s..i * s + s];
                let row_dp = &dp[i * s..i * s + s];
                let dot: f32 = row_p.iter().zip(row_dp).map(|(a, b)| a * b).sum();
                for j in 0..=i {
                    let ds = row_p[j] * (row_dp[j] - dot) * scale;
                    if ds == 0.0 {
                        continue;
                    }
                    for e in 0..dh {
                        dq[i * d + h * dh + e] += ds * k[j * d + h * dh + e];
                        dk[j * d + h * dh + e] += ds * q[i * d + h * dh + e];
                    }
                }
            }
        }
        let dx_q = self.wq.backward(&dq);
        let dx_k = self.wk.backward(&dk);
        let dx_v = self.wv.backward(&dv);
        dx_q.iter()
            .zip(&dx_k)
            .zip(&dx_v)
            .map(|((a, b), c)| a + b + c)
            .collect()
    }

    /// Inference-only forward returning `(output, q, k, v)` — the eval
    /// stack reuses the projections it computed through its own engine, so
    /// this exact-path variant exists for parity testing.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (shim over
    /// [`MultiHeadAttention::try_forward_infer`]).
    pub fn forward_infer(&self, x: &[f32], s: usize) -> Vec<f32> {
        self.try_forward_infer(x, s).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Inference-only forward; shape mismatches in the four projection
    /// GEMMs surface as a typed [`GemmError`].
    pub fn try_forward_infer(&self, x: &[f32], s: usize) -> Result<Vec<f32>, GemmError> {
        let d = self.d_model;
        let dh = self.head_dim();
        let q = self.wq.try_forward_infer(x, s)?;
        let k = self.wk.try_forward_infer(x, s)?;
        let v = self.wv.try_forward_infer(x, s)?;
        let ctx = attention_context(&q, &k, &v, s, d, self.n_heads, dh);
        self.wo.try_forward_infer(&ctx, s)
    }

    /// Visit (param, grad) pairs.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Vec<f32>, &mut Vec<f32>)) {
        self.wq.for_each_param(f);
        self.wk.for_each_param(f);
        self.wv.for_each_param(f);
        self.wo.for_each_param(f);
    }
}

/// Pure-function causal attention context (shared by the exact inference
/// path and the eval stack): per head, softmax(QKᵀ/√dh with causal mask)·V.
pub fn attention_context(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    s: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
) -> Vec<f32> {
    attention_context_rows(q, k, v, 0, s, d, n_heads, dh)
}

/// One head's causal attention over the `m` query rows at absolute
/// positions `start..start + m`, against `start + m` cached K/V rows.
/// `scores` is an `m × (start + m)` scratch, `hctx` the head's `m × dh`
/// output. Every FP operation matches [`attention_context`]'s order, so
/// incremental decode (`m = 1` against cached K/V) is bit-identical to
/// the full-sequence recompute: a score row with width `start + m` and
/// entries `0..=p` populated softmaxes to the same bits as row `p` of
/// the full `s × s` score matrix (trailing `-inf` contributes exactly
/// `+0.0` through `exp`), and the probability-weighted V accumulation
/// touches the same terms in the same order.
#[allow(clippy::too_many_arguments)] // bare geometry of the kernel: q/k/v + 5 dims + 2 scratch
fn head_context_rows(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    start: usize,
    m: usize,
    d: usize,
    h: usize,
    dh: usize,
    scores: &mut [f32],
    hctx: &mut [f32],
) {
    let s = start + m;
    let scale = 1.0 / (dh as f32).sqrt();
    scores.fill(f32::NEG_INFINITY);
    for i in 0..m {
        for j in 0..=(start + i) {
            let mut acc = 0f32;
            for e in 0..dh {
                acc += q[i * d + h * dh + e] * k[j * d + h * dh + e];
            }
            scores[i * s + j] = acc * scale;
        }
    }
    softmax_rows(scores, m, s);
    hctx.fill(0.0);
    for i in 0..m {
        for j in 0..=(start + i) {
            let p = scores[i * s + j];
            if p == 0.0 {
                continue;
            }
            for e in 0..dh {
                hctx[i * dh + e] += p * v[j * d + h * dh + e];
            }
        }
    }
}

/// Causal attention for the `m` newest query rows (absolute positions
/// `start..start + m`) against `start + m` cached K/V rows — the paged
/// decode path: `q` is `m × d`, `k`/`v` are `(start + m) × d`, and the
/// returned context is `m × d`. With `start = 0` this is exactly
/// [`attention_context`].
#[allow(clippy::too_many_arguments)] // bare geometry of the kernel: q/k/v + 5 dims
pub fn attention_context_rows(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    start: usize,
    m: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
) -> Vec<f32> {
    let s = start + m;
    let mut ctx = vec![0f32; m * d];
    let mut scores = vec![0f32; m * s];
    let mut hctx = vec![0f32; m * dh];
    for h in 0..n_heads {
        head_context_rows(q, k, v, start, m, d, h, dh, &mut scores, &mut hctx);
        for i in 0..m {
            ctx[i * d + h * dh..i * d + (h + 1) * dh].copy_from_slice(&hctx[i * dh..(i + 1) * dh]);
        }
    }
    ctx
}

/// [`attention_context_rows`] sharded across heads over the worker pool
/// (the PR 6 `ShardPlan` dispatch): each shard owns whole heads — shard
/// boundaries align to `dh` — and writes only its own context columns.
/// Per-head work is fully independent, so the result is bit-identical
/// to the serial path at every worker count; small calls stay serial.
#[allow(clippy::too_many_arguments)] // bare geometry of the kernel: q/k/v + 5 dims
pub fn attention_context_rows_sharded(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    start: usize,
    m: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
) -> Vec<f32> {
    let s = start + m;
    // The GEMM layer's parallel cut-off: below it the dispatch overhead
    // dominates the head loop.
    let threads = axcore_parallel::current_threads();
    let workers = axcore_parallel::threads_for(threads, m * s * d).min(n_heads).max(1);
    let plan = axcore_parallel::ShardPlan::new(d, workers, dh);
    let mut ctx = vec![0f32; m * d];
    axcore_parallel::par_shards_with(
        &mut ctx,
        m,
        &plan,
        || (vec![0f32; m * s], vec![0f32; m * dh]),
        |(scores, hctx), shard, slice| {
            for h in (shard.col0 / dh)..((shard.col0 + shard.cols) / dh) {
                head_context_rows(q, k, v, start, m, d, h, dh, scores, hctx);
                let off = h * dh - shard.col0;
                for i in 0..m {
                    slice.row(i)[off..off + dh].copy_from_slice(&hctx[i * dh..(i + 1) * dh]);
                }
            }
        },
    );
    ctx
}

/// Exact attention probabilities for one head (used by the KV-quantized
/// eval path, which recomputes scores through a GEMM engine).
pub fn causal_softmax(scores: &mut [f32], s: usize) {
    for i in 0..s {
        for j in (i + 1)..s {
            scores[i * s + j] = f32::NEG_INFINITY;
        }
    }
    softmax_rows(scores, s, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn causality_holds() {
        // Changing a future token must not change earlier outputs.
        let mut rng = StdRng::seed_from_u64(3);
        let (s, d, h) = (6, 8, 2);
        let mut attn = MultiHeadAttention::new(d, h, &mut rng);
        let x: Vec<f32> = (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let y1 = attn.forward(&x, s);
        let mut x2 = x.clone();
        for e in 0..d {
            x2[(s - 1) * d + e] += 1.0; // perturb the last position
        }
        let y2 = attn.forward(&x2, s);
        for i in 0..(s - 1) * d {
            assert!((y1[i] - y2[i]).abs() < 1e-6, "position {}", i / d);
        }
        assert!((0..d).any(|e| (y1[(s - 1) * d + e] - y2[(s - 1) * d + e]).abs() > 1e-6));
    }

    #[test]
    fn forward_infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let (s, d, h) = (5, 12, 3);
        let mut attn = MultiHeadAttention::new(d, h, &mut rng);
        let x: Vec<f32> = (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let y1 = attn.forward(&x, s);
        let y2 = attn.forward_infer(&x, s);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let (s, d, h) = (4, 6, 2);
        let mut attn = MultiHeadAttention::new(d, h, &mut rng);
        let x: Vec<f32> = (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let y = attn.forward(&x, s);
        let dx = attn.backward(&y); // loss = Σ y²/2
        let h_step = 1e-3;
        for idx in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp[idx] += h_step;
            let lp: f32 = attn.forward_infer(&xp, s).iter().map(|v| v * v).sum::<f32>() / 2.0;
            xp[idx] -= 2.0 * h_step;
            let lm: f32 = attn.forward_infer(&xp, s).iter().map(|v| v * v).sum::<f32>() / 2.0;
            let num = (lp - lm) / (2.0 * h_step);
            assert!(
                (num - dx[idx]).abs() < 3e-2 * (1.0 + num.abs()),
                "idx {idx}: numeric {num} vs analytic {}",
                dx[idx]
            );
        }
    }

    #[test]
    fn incremental_rows_match_full_recompute_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        let (s, d, nh, dh) = (9, 16, 4, 4);
        let gen = |rng: &mut StdRng| -> Vec<f32> {
            (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect()
        };
        let (q, k, v) = (gen(&mut rng), gen(&mut rng), gen(&mut rng));
        let full = attention_context(&q, &k, &v, s, d, nh, dh);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // One token at a time against the growing cache — the decode
        // shape: row p computed with width p+1 must equal row p of the
        // full s-wide recompute (trailing -inf softmaxes to +0.0).
        for p in 0..s {
            let row = attention_context_rows(
                &q[p * d..(p + 1) * d],
                &k[..(p + 1) * d],
                &v[..(p + 1) * d],
                p,
                1,
                d,
                nh,
                dh,
            );
            assert_eq!(bits(&row), bits(&full[p * d..(p + 1) * d]), "decode row {p}");
        }
        // Every prefill/decode split, serial and sharded at 1/2/4 workers.
        for start in 0..s {
            let m = s - start;
            let rows = attention_context_rows(&q[start * d..], &k, &v, start, m, d, nh, dh);
            assert_eq!(bits(&rows), bits(&full[start * d..]), "split at {start}");
            for workers in [1, 2, 4] {
                let sharded = axcore_parallel::with_threads(workers, || {
                    attention_context_rows_sharded(&q[start * d..], &k, &v, start, m, d, nh, dh)
                });
                assert_eq!(bits(&sharded), bits(&rows), "split {start}, {workers} workers");
            }
        }
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With V = identity-ish rows, outputs stay within the convex hull.
        let (s, d, h, dh) = (4, 4, 1, 4);
        let q = vec![0f32; s * d]; // uniform attention
        let k = vec![0f32; s * d];
        let mut v = vec![0f32; s * d];
        for i in 0..s {
            v[i * d + i % d] = 1.0;
        }
        let ctx = attention_context(&q, &k, &v, s, d, h, dh);
        // Row i is the average of v rows 0..=i.
        assert_eq!(ctx[0], 1.0);
        assert!((ctx[1] - 0.0).abs() < 1e-6);
        assert!((ctx[d] - 0.5).abs() < 1e-6);
        assert!((ctx[d + 1] - 0.5).abs() < 1e-6);
    }
}
