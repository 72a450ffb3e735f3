//! GEMM execution-layer benchmark: prepared-weight caching and row/tile
//! parallelism vs the naive per-call path.
//!
//! Measures the two LLM inference shapes on an AxCore adaptive-FP4 matrix:
//!
//! * **prefill** — one `m = 128` GEMM (row-parallel split);
//! * **decode** — `m = 1` repeated 64× against the *same* quantized matrix
//!   (the shape where per-call weight preload dominates and prepared
//!   weights pay off; wide rows use the column-tile split).
//!
//! Each shape runs in these configurations:
//!
//! * `seed_per_call` — a faithful reproduction of the engine *before* the
//!   execution layer existed: weight lanes rebuilt every call, per-MAC
//!   `PreAdd::term` recomputation, per-(column, group) format lookup
//!   through a `HashMap`, and a fresh activation `Vec` per row;
//! * `serial_per_call` — today's `gemm` on one worker (prepares internally
//!   per call, but with cached PreAdd terms and flat format indices);
//! * `parallel_prepared` — `prepare()` once, `gemm_prepared` with the
//!   direct per-MAC kernel pinned (`LutPolicy::Never`);
//! * `lut` (prefill) / `pooled` (decode) — `prepare()` once, the LUT
//!   tier pinned (`LutPolicy::Always`): arena-recycled tables and
//!   nibble-packed SWAR code-plane gathers;
//! * `w4a8` (decode only) — the integer-activation tier
//!   (`ActPolicy::Always`): the activation row Q8-quantized once
//!   per call, weight blocks folded in as integer dots of 4-bit codes
//!   against 8-bit activation codes. `pooled / w4a8` at equal thread
//!   count is the integer tier's win over FP-activation LUT decode.
//!   Two more W4A8 entries run the same tier at the serving runtime's
//!   other shapes: `decode_m8x64_w4a8` (64 calls of an 8-row stacked
//!   decode) and `prefill_m64x8_w4a8` (8 calls of a 64-row prefill
//!   panel); their rows/s count activation rows.
//!
//! Every configuration runs on the persistent worker pool. A
//! `spawn_overhead_us` entry reports the pool's per-dispatch cost of one
//! trivial two-chunk fan-out at two workers.
//!
//! The prepared/LUT configurations are swept over
//! [`axcore_parallel::thread_sweep`] worker counts — always 1, 2, 4 and
//! 8, plus the hardware count when it is higher. Every sweep entry
//! records rows/s, the worker count used, and its `scaling_efficiency`
//! (rows/s at `t` workers divided by `t ×` the one-worker rows/s of the
//! same configuration). The top-level entries are the one-worker sweep
//! row, so the strict regression gate compares like with like on any
//! host: this run's one-worker rows/s against the committed file's
//! one-worker sweep row. The JSON also
//! records `available_parallelism` and the effective `AXCORE_THREADS`
//! setting so a sweep is interpretable away from the machine it ran on.
//!
//! A `kernel_us_per_call` block reports where the decode entries spend
//! their per-call setup time: `lut_build_us` (per-activation LUT builds,
//! FP tiers) and `act_quant_us` (Q8 activation quantization, W4A8 tier),
//! measured through `axcore::kmetrics` on a separate instrumented pass.
//!
//! A `w4a8_accuracy` block reports the end-to-end cost of the lossy
//! integer tier: validation perplexity of a trained proxy LM quantized
//! under `Scheme::AxCore`, evaluated with FP activations
//! (`ActPolicy::Never`) and with Q8 activations (`ActPolicy::Always`),
//! plus the relative delta.
//!
//! With `AXCORE_BENCH_STRICT=1`, the binary exits non-zero if
//! `decode_m1x64_pooled` or `decode_m1x64_w4a8` rows/s at one worker
//! regresses more than 20% against the committed `BENCH_gemm.json`
//! baseline, if the best prefill configuration's
//! speedup over the seed falls under 3×, if W4A8 decode is not at least
//! 1.5× the pooled FP-activation LUT decode at one worker, if the W4A8
//! perplexity delta exceeds the DESIGN.md §10 bound, or — on hosts with
//! at least 4 cores — if pooled decode scaling efficiency at 4 workers
//! falls under 0.7 (the CI regression gates).

use axcore::accum::{NormUnit, PartialAcc};
use axcore::axscale::AxScale;
use axcore::engines::{with_act_policy, ActPolicy, AxCoreEngine, GemmEngine, LutPolicy};
use axcore::pe::{Pe, WeightLane};
use axcore::preadd::PreAdd;
use axcore_fpma::snc::SncPolicy;
use axcore_fpma::MpFpma;
use axcore_parallel::{current_exec, with_exec, ExecConfig};
use axcore_quant::{GroupQuantizer, QuantFormat, QuantizedMatrix};
use axcore_softfloat::{FpFormat, FP16};
use std::collections::HashMap;
use std::time::Instant;

/// The AxCore GEMM exactly as the seed implemented it (commit 9779f77):
/// per-call lane preload, `HashMap` unit dispatch keyed by format name,
/// and `PreAdd::term` recomputed for every MAC. Numerically identical to
/// today's engine — this is the performance baseline the execution layer
/// replaced.
fn seed_gemm(act: FpFormat, a: &[f32], m: usize, w: &QuantizedMatrix, out: &mut [f32]) {
    let pe = Pe::new(act);
    let norm = NormUnit::new(act);
    let axscale = AxScale::new(act);
    let mut units: HashMap<&'static str, (MpFpma, PreAdd)> = HashMap::new();
    for f in &w.formats {
        let QuantFormat::Fp(wf) = f else { panic!("FP weights required") };
        units.entry(wf.name).or_insert_with(|| {
            let u = MpFpma::new(act, *wf).with_compensation(true).with_snc(SncPolicy::Stochastic);
            let p = PreAdd::for_unit(&u);
            (u, p)
        });
    }
    let mut lanes = vec![
        WeightLane { zero_down: true, zero_up: true, sign: false, addend_down: 0, addend_up: 0 };
        w.k * w.n
    ];
    for k in 0..w.k {
        for col in 0..w.n {
            let QuantFormat::Fp(wf) = w.format(k, col) else { unreachable!() };
            let (unit, _) = &units[wf.name];
            lanes[k * w.n + col] = WeightLane::new(unit, w.code(k, col));
        }
    }
    let gs = w.group_size;
    let groups = w.num_groups();
    let nbc = w.num_block_cols();
    for i in 0..m {
        let a_row: Vec<u32> = (0..w.k).map(|k| act.encode(a[i * w.k + k] as f64)).collect();
        for col in 0..w.n {
            let mut acc_out = 0f32;
            for g in 0..groups {
                let QuantFormat::Fp(wf) = w.formats[g * nbc + col / w.block_cols] else {
                    unreachable!()
                };
                let (_, preadd) = &units[wf.name];
                let mut pacc = PartialAcc::new(act);
                for k in g * gs..(g + 1) * gs {
                    let term = preadd.term(a_row[k]);
                    pe.mac(
                        &mut pacc,
                        term.t,
                        term.sign,
                        term.zero,
                        term.stochastic_bit,
                        &lanes[k * w.n + col],
                    );
                }
                let o_bits = norm.normalize(&pacc);
                let scale_bits = w.scales[g * w.n + col];
                acc_out += act.decode(axscale.apply(o_bits, scale_bits)) as f32;
            }
            out[i * w.n + col] = acc_out;
        }
    }
}

const K: usize = 512;
const N: usize = 512;
const PREFILL_M: usize = 128;
const DECODE_CALLS: usize = 64;
/// Rows of the stacked-decode W4A8 entry (one row per batched sequence).
const STACKED_M: usize = 8;
/// Rows and call count of the prefill-panel W4A8 entry.
const PANEL_M: usize = 64;
const PANEL_CALLS: usize = 8;

/// Strict-mode ceiling on the W4A8-vs-FP-activation perplexity delta, in
/// percent — the accuracy bound documented in DESIGN.md §10.
const W4A8_PPL_BOUND_PCT: f64 = 5.0;

/// The current execution config with the LUT policy pinned.
fn lut(lut: LutPolicy) -> ExecConfig {
    ExecConfig { lut, ..current_exec() }
}

/// Best-of-reps wall time for `f`, in seconds. The minimum is the
/// closest observable to the noise-free runtime on a shared machine
/// (every perturbation only adds time), and every configuration is
/// measured the same way, so ratios stay fair.
fn time_it(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// Pull `"rows_per_s": <v>` out of the entry named `key` in the first
/// (one-worker) `thread_sweep` row of a previously committed
/// `BENCH_gemm.json` (no JSON dependency in this workspace, so this is a
/// plain substring scan over the known layout).
fn baseline_rows_per_s(text: &str, key: &str) -> Option<f64> {
    let sweep = &text[text.find("\"thread_sweep\"")?..];
    let entry = &sweep[sweep.find(&format!("\"{key}\""))?..];
    let after = &entry[entry.find("\"rows_per_s\":")? + "\"rows_per_s\":".len()..];
    let end = after.find([',', '}'])?;
    after[..end].trim().parse().ok()
}

/// Per-dispatch overhead of one `par_chunks_mut` fan-out over two chunks
/// of trivial work at two workers, in microseconds: the cost of waking
/// the parked pool workers and waiting for them to finish.
fn spawn_overhead_us() -> f64 {
    let mut buf = [0f32; 8];
    let dispatch = |buf: &mut [f32]| {
        axcore_parallel::par_chunks_mut(buf, 4, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += ci as f32 + 1.0;
            }
        });
    };
    axcore_parallel::with_threads(2, || {
        dispatch(&mut buf); // warm the pool / fault in the machinery
        let iters = 500;
        let secs = time_it(3, || {
            for _ in 0..iters {
                dispatch(&mut buf);
            }
        });
        secs * 1e6 / iters as f64
    })
}

/// One swept configuration's measurement.
struct Entry {
    rows_per_s: f64,
    seconds: f64,
    threads: usize,
}

impl Entry {
    /// Scaling efficiency against the one-worker measurement of the same
    /// configuration: 1.0 means perfect linear scaling at this count.
    fn efficiency(&self, base: &Entry) -> f64 {
        self.rows_per_s / (self.threads as f64 * base.rows_per_s)
    }

    fn json(&self, base: &Entry) -> String {
        format!(
            "{{ \"rows_per_s\": {:.1}, \"seconds\": {:.6}, \"threads\": {}, \"scaling_efficiency\": {:.3} }}",
            self.rows_per_s,
            self.seconds,
            self.threads,
            self.efficiency(base)
        )
    }
}

fn main() {
    let w: Vec<f32> = (0..K * N)
        .map(|i| (((i as u64 * 7 + 11) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.3)
        .collect();
    let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&w, K, N);
    let engine = AxCoreEngine::new(FP16);
    // The worker count actually available to the sweep, including any
    // `AXCORE_THREADS` cap — what every entry below reports.
    let max_threads = axcore_parallel::max_threads();
    let sweep = axcore_parallel::thread_sweep();

    // Committed one-worker baselines for the strict regression gate,
    // read before the file is overwritten.
    let baseline_text = std::fs::read_to_string("BENCH_gemm.json").ok();
    let baseline_decode_pooled =
        baseline_text.as_deref().and_then(|t| baseline_rows_per_s(t, "decode_m1x64_pooled"));
    let baseline_decode_w4a8 =
        baseline_text.as_deref().and_then(|t| baseline_rows_per_s(t, "decode_m1x64_w4a8"));

    let a_prefill: Vec<f32> = (0..PREFILL_M * K)
        .map(|i| ((i as u64 * 31 + 3) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    let a_decode = &a_prefill[..K];

    let mut out = vec![0f32; PREFILL_M * N];

    // Sanity: the seed reproduction must be bit-identical to today's
    // engine on both kernel tiers.
    let mut seed_out = vec![0f32; N];
    seed_gemm(FP16, a_decode, 1, &q, &mut seed_out);
    let seed_bits: Vec<u32> = seed_out.iter().map(|v| v.to_bits()).collect();
    for policy in [LutPolicy::Never, LutPolicy::Always] {
        with_exec(lut(policy), || engine.try_gemm(a_decode, 1, &q, &mut out[..N]).expect("gemm"));
        assert_eq!(
            seed_bits,
            out[..N].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "seed baseline diverged from current engine ({policy:?})"
        );
    }

    // Serial-by-construction configurations, measured once.
    let prefill_rows = PREFILL_M as f64;
    let decode_rows = DECODE_CALLS as f64;
    let prefill_seed = time_it(3, || {
        seed_gemm(FP16, &a_prefill, PREFILL_M, &q, &mut out);
    });
    let prefill_serial = time_it(5, || {
        axcore_parallel::with_threads(1, || {
            with_exec(lut(LutPolicy::Never), || engine.try_gemm(&a_prefill, PREFILL_M, &q, &mut out).expect("gemm"))
        });
    });
    let decode_seed = time_it(3, || {
        for _ in 0..DECODE_CALLS {
            seed_gemm(FP16, a_decode, 1, &q, &mut seed_out);
        }
    });
    let decode_serial = time_it(3, || {
        axcore_parallel::with_threads(1, || {
            with_exec(lut(LutPolicy::Never), || {
                for _ in 0..DECODE_CALLS {
                    engine.try_gemm(a_decode, 1, &q, &mut out[..N]).expect("gemm");
                }
            })
        });
    });

    // Prepared-weight configurations, swept over worker counts. The LUT
    // policy is pinned per entry so `parallel_prepared` keeps measuring
    // the direct kernel now that the Auto heuristic prefers the LUT tier
    // on these shapes.
    let prepared = engine.prepare(&q);
    let stacked_rows = (STACKED_M * DECODE_CALLS) as f64;
    let panel_rows = (PANEL_M * PANEL_CALLS) as f64;
    let a_stacked = &a_prefill[..STACKED_M * K];
    let a_panel = &a_prefill[..PANEL_M * K];
    #[allow(clippy::type_complexity)]
    let mut rows: Vec<(usize, Entry, Entry, Entry, Entry, Entry, Entry, Entry)> = Vec::new();
    for &t in &sweep {
        axcore_parallel::with_threads(t, || {
            // The configurations are measured in alternating rounds
            // (one rep of each per round, minima kept) so slow drift —
            // thermal throttling, a co-tenant waking up — lands on
            // every configuration equally instead of biasing whichever
            // one happens to run later.
            let [mut pp, mut pl, mut dp, mut dpo, mut dw, mut dw8, mut pw64] = [f64::MAX; 7];
            for _ in 0..5 {
                pp = pp.min(time_it(1, || {
                    with_exec(lut(LutPolicy::Never), || {
                        engine.try_gemm_prepared(&*prepared, &a_prefill, PREFILL_M, &mut out).expect("gemm")
                    })
                }));
                pl = pl.min(time_it(1, || {
                    with_exec(lut(LutPolicy::Always), || {
                        engine.try_gemm_prepared(&*prepared, &a_prefill, PREFILL_M, &mut out).expect("gemm")
                    })
                }));
                dp = dp.min(time_it(1, || {
                    with_exec(lut(LutPolicy::Never), || {
                        for _ in 0..DECODE_CALLS {
                            engine.try_gemm_prepared(&*prepared, a_decode, 1, &mut out[..N]).expect("gemm");
                        }
                    })
                }));
                dpo = dpo.min(time_it(1, || {
                    with_exec(lut(LutPolicy::Always), || {
                        for _ in 0..DECODE_CALLS {
                            engine.try_gemm_prepared(&*prepared, a_decode, 1, &mut out[..N]).expect("gemm");
                        }
                    })
                }));
                dw = dw.min(time_it(1, || {
                    with_act_policy(ActPolicy::Always, || {
                        for _ in 0..DECODE_CALLS {
                            engine.try_gemm_prepared(&*prepared, a_decode, 1, &mut out[..N]).expect("gemm");
                        }
                    })
                }));
                dw8 = dw8.min(time_it(1, || {
                    with_act_policy(ActPolicy::Always, || {
                        for _ in 0..DECODE_CALLS {
                            engine.try_gemm_prepared(
                                &*prepared,
                                a_stacked,
                                STACKED_M,
                                &mut out[..STACKED_M * N],
                            ).expect("gemm");
                        }
                    })
                }));
                pw64 = pw64.min(time_it(1, || {
                    with_act_policy(ActPolicy::Always, || {
                        for _ in 0..PANEL_CALLS {
                            engine.try_gemm_prepared(&*prepared, a_panel, PANEL_M, &mut out[..PANEL_M * N]).expect("gemm");
                        }
                    })
                }));
            }
            rows.push((
                t,
                Entry { rows_per_s: prefill_rows / pp, seconds: pp, threads: t },
                Entry { rows_per_s: prefill_rows / pl, seconds: pl, threads: t },
                Entry { rows_per_s: decode_rows / dp, seconds: dp, threads: t },
                Entry { rows_per_s: decode_rows / dpo, seconds: dpo, threads: t },
                Entry { rows_per_s: decode_rows / dw, seconds: dw, threads: t },
                Entry { rows_per_s: stacked_rows / dw8, seconds: dw8, threads: t },
                Entry { rows_per_s: panel_rows / pw64, seconds: pw64, threads: t },
            ));
        });
    }
    // One-worker row: the top-level (and strict-gated) entries, and the
    // scaling-efficiency denominator for every sweep entry. Pinning the
    // gate to one worker keeps it comparable across hosts with different
    // core counts; the sweep carries the multi-worker numbers.
    let base = rows.first().expect("thread sweep is never empty");
    assert_eq!(base.0, 1, "thread sweep must start at one worker");
    let (_, base_pp, base_pl, base_dp, base_dpo, base_dw, base_dw8, base_pw64) = base;

    let spawn_pooled_us = spawn_overhead_us();

    // Verification overhead on the steady-state decode path: the same
    // pooled decode loop under `Sample(16)` (the ABFT row check on one
    // call in 16) vs `Off`. Alternating-round minima like the sweep;
    // `verify_overhead_pct` is the relative cost the sampling mode adds,
    // gated < 10% in strict mode.
    let (mut dv_off, mut dv_sample) = (f64::MAX, f64::MAX);
    axcore_parallel::with_threads(max_threads, || {
        for _ in 0..5 {
            for (slot, policy) in [
                (&mut dv_off, axcore::VerifyPolicy::Off),
                (&mut dv_sample, axcore::VerifyPolicy::Sample(16)),
            ] {
                *slot = slot.min(time_it(1, || {
                    let cfg = ExecConfig { lut: LutPolicy::Always, verify: policy, ..current_exec() };
                    with_exec(cfg, || {
                        for _ in 0..DECODE_CALLS {
                            engine.try_gemm_prepared(&*prepared, a_decode, 1, &mut out[..N]).expect("gemm");
                        }
                    })
                }));
            }
        }
    });
    let verify_overhead_pct = (dv_sample / dv_off - 1.0) * 100.0;

    // Per-call kernel setup breakdown on the decode entries, measured on
    // a separate instrumented pass so the timed sweep above runs with the
    // kmetrics counters disabled (one relaxed load per section).
    let (pooled_lut_timing, w4a8_timing) = axcore_parallel::with_threads(1, || {
        let ((), lut_t) = axcore::kmetrics::with_kernel_timing(|| {
            with_exec(lut(LutPolicy::Always), || {
                for _ in 0..DECODE_CALLS {
                    engine.try_gemm_prepared(&*prepared, a_decode, 1, &mut out[..N]).expect("gemm");
                }
            })
        });
        let ((), w_t) = axcore::kmetrics::with_kernel_timing(|| {
            with_act_policy(ActPolicy::Always, || {
                for _ in 0..DECODE_CALLS {
                    engine.try_gemm_prepared(&*prepared, a_decode, 1, &mut out[..N]).expect("gemm");
                }
            })
        });
        (lut_t, w_t)
    });
    let per_call_us = |ns: u64| ns as f64 / 1e3 / DECODE_CALLS as f64;

    // End-to-end accuracy of the lossy integer tier: a trained proxy LM
    // quantized under `Scheme::AxCore`, validation perplexity with FP
    // activations vs Q8 activations through the same prepared weights.
    // Training is seeded, so the numbers reproduce across runs.
    let (ppl_fp, ppl_w4a8) = {
        use axcore_nn::corpus::{Corpus, MarkovSpec};
        use axcore_nn::model::{LmConfig, TransformerLm};
        use axcore_nn::train::{train, TrainConfig};
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
        model.induce_outlier_channels(3, 64.0);
        let qlm = axcore_nn::quantize_model(&model, axcore_nn::Scheme::AxCore, 32, Some(&corpus.train[..64]));
        let fp = with_act_policy(ActPolicy::Never, || {
            axcore_nn::eval_perplexity(&qlm, &corpus.val, 24)
        });
        let w48 = with_act_policy(ActPolicy::Always, || {
            axcore_nn::eval_perplexity(&qlm, &corpus.val, 24)
        });
        (fp, w48)
    };
    let w4a8_ppl_delta_pct = (ppl_w4a8 / ppl_fp - 1.0) * 100.0;

    let available_parallelism =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads_env = std::env::var("AXCORE_THREADS")
        .map(|v| format!("\"{v}\""))
        .unwrap_or_else(|_| "null".into());

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"k\": {K},\n  \"n\": {N},\n  \"threads\": {max_threads},\n"));
    json.push_str(&format!(
        "  \"available_parallelism\": {available_parallelism},\n  \"axcore_threads_env\": {threads_env},\n"
    ));
    for (name, rows_per_s, secs) in [
        ("prefill_m128_seed_per_call", prefill_rows / prefill_seed, prefill_seed),
        ("prefill_m128_serial_per_call", prefill_rows / prefill_serial, prefill_serial),
        ("decode_m1x64_seed_per_call", decode_rows / decode_seed, decode_seed),
        ("decode_m1x64_serial_per_call", decode_rows / decode_serial, decode_serial),
    ] {
        json.push_str(&format!(
            "  \"{name}\": {{ \"rows_per_s\": {rows_per_s:.1}, \"seconds\": {secs:.6}, \"threads\": 1 }},\n"
        ));
    }
    for (name, e) in [
        ("prefill_m128_parallel_prepared", base_pp),
        ("prefill_m128_lut", base_pl),
        ("decode_m1x64_parallel_prepared", base_dp),
        ("decode_m1x64_pooled", base_dpo),
        ("decode_m1x64_w4a8", base_dw),
        ("decode_m8x64_w4a8", base_dw8),
        ("prefill_m64x8_w4a8", base_pw64),
    ] {
        json.push_str(&format!("  \"{name}\": {},\n", e.json(e)));
    }
    json.push_str(&format!("  \"spawn_overhead_us\": {{ \"pooled\": {spawn_pooled_us:.2} }},\n"));
    json.push_str(&format!(
        "  \"verify_overhead_pct\": {{ \"decode_m1x64_sample16_vs_off\": {verify_overhead_pct:.2}, \"threads\": {max_threads} }},\n"
    ));
    json.push_str(&format!(
        "  \"kernel_us_per_call\": {{ \"decode_m1x64_pooled\": {{ \"lut_build_us\": {:.2}, \"act_quant_us\": {:.2} }}, \"decode_m1x64_w4a8\": {{ \"lut_build_us\": {:.2}, \"act_quant_us\": {:.2} }} }},\n",
        per_call_us(pooled_lut_timing.lut_build_ns),
        per_call_us(pooled_lut_timing.act_quant_ns),
        per_call_us(w4a8_timing.lut_build_ns),
        per_call_us(w4a8_timing.act_quant_ns),
    ));
    json.push_str(&format!(
        "  \"w4a8_accuracy\": {{ \"ppl_fp_act\": {ppl_fp:.4}, \"ppl_w4a8\": {ppl_w4a8:.4}, \"delta_pct\": {w4a8_ppl_delta_pct:.3}, \"bound_pct\": {W4A8_PPL_BOUND_PCT} }},\n"
    ));
    json.push_str("  \"thread_sweep\": [\n");
    for (i, (t, pp, pl, dp, dpo, dw, dw8, pw64)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"threads\": {t}, \"prefill_m128_parallel_prepared\": {}, \"prefill_m128_lut\": {}, \"decode_m1x64_parallel_prepared\": {}, \"decode_m1x64_pooled\": {}, \"decode_m1x64_w4a8\": {}, \"decode_m8x64_w4a8\": {}, \"prefill_m64x8_w4a8\": {} }}{}\n",
            pp.json(base_pp),
            pl.json(base_pl),
            dp.json(base_dp),
            dpo.json(base_dpo),
            dw.json(base_dw),
            dw8.json(base_dw8),
            pw64.json(base_pw64),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    // Prefill speedup over the seed is the best prefill configuration
    // anywhere in the sweep (either kernel tier, any worker count): the
    // number answers "how much faster is a prefill on this box than
    // before the execution layer existed".
    let best_prefill_secs = rows
        .iter()
        .flat_map(|(_, pp, pl, ..)| [pp.seconds, pl.seconds])
        .fold(f64::MAX, f64::min);
    let prefill_speedup_vs_seed = prefill_seed / best_prefill_secs;
    // The integer-tier headline ratio, pinned to the one-worker sweep row
    // so the strict gate measures the kernels, not the host's scheduler.
    let w4a8_speedup_1t = base_dpo.seconds / base_dw.seconds;
    let decode_speedup_vs_seed = decode_seed / base_dp.seconds;
    let decode_lut_speedup = base_dp.seconds / base_dpo.seconds;
    json.push_str(&format!(
        "  \"prefill_speedup_vs_seed\": {prefill_speedup_vs_seed:.2},\n  \"decode_speedup_vs_seed\": {decode_speedup_vs_seed:.2},\n  \"decode_lut_speedup_vs_prepared\": {decode_lut_speedup:.2},\n  \"decode_w4a8_speedup_vs_pooled_lut\": {w4a8_speedup_1t:.2}\n}}\n",
    ));
    std::fs::write("BENCH_gemm.json", &json).expect("write BENCH_gemm.json");
    print!("{json}");
    println!(
        "prefill {prefill_speedup_vs_seed:.1}x (best in sweep), decode {decode_speedup_vs_seed:.1}x (1 worker) vs the seed per-call gemm; LUT tier {decode_lut_speedup:.1}x over direct prepared decode; W4A8 tier {w4a8_speedup_1t:.2}x over pooled LUT decode, ppl delta {w4a8_ppl_delta_pct:.2}% (1 worker; {max_threads} threads max, {available_parallelism} cores)"
    );

    // CI regression gate: compare against the committed baselines (read
    // before this run overwrote the file), only when explicitly armed.
    if std::env::var("AXCORE_BENCH_STRICT").as_deref() == Ok("1") {
        for (key, base, now) in [
            ("decode_m1x64_pooled", baseline_decode_pooled, base_dpo.rows_per_s),
            ("decode_m1x64_w4a8", baseline_decode_w4a8, base_dw.rows_per_s),
        ] {
            let Some(base) = base else {
                println!("strict gate skipped: no committed {key} baseline");
                continue;
            };
            if now < 0.8 * base {
                eprintln!(
                    "FAIL: {key} regressed more than 20% at 1 worker: {now:.1} rows/s vs baseline {base:.1}"
                );
                std::process::exit(1);
            }
            println!("strict gate ok: {key} {now:.1} rows/s vs baseline {base:.1} at 1 worker");
        }
        if verify_overhead_pct >= 10.0 {
            eprintln!(
                "FAIL: Sample(16) verification overhead {verify_overhead_pct:.2}% exceeds the 10% budget"
            );
            std::process::exit(1);
        }
        println!("strict gate ok: verify overhead {verify_overhead_pct:.2}% < 10%");

        if prefill_speedup_vs_seed < 3.0 {
            eprintln!(
                "FAIL: best prefill speedup vs seed {prefill_speedup_vs_seed:.2}x under the 3.0x floor"
            );
            std::process::exit(1);
        }
        println!("strict gate ok: prefill speedup vs seed {prefill_speedup_vs_seed:.2}x >= 3.0x");

        // Integer-tier gates: the W4A8 path must earn its accuracy loss
        // with at least 1.5x over the FP-activation pooled LUT decode at
        // one worker, and the perplexity delta must stay inside the
        // DESIGN.md §10 bound.
        if w4a8_speedup_1t < 1.5 {
            eprintln!(
                "FAIL: W4A8 decode speedup {w4a8_speedup_1t:.2}x over pooled LUT at 1 worker under the 1.5x floor"
            );
            std::process::exit(1);
        }
        println!("strict gate ok: W4A8 decode speedup {w4a8_speedup_1t:.2}x over pooled LUT at 1 worker >= 1.5x");
        if w4a8_ppl_delta_pct.abs() > W4A8_PPL_BOUND_PCT {
            eprintln!(
                "FAIL: W4A8 perplexity delta {w4a8_ppl_delta_pct:.3}% outside the {W4A8_PPL_BOUND_PCT}% bound ({ppl_fp:.4} -> {ppl_w4a8:.4})"
            );
            std::process::exit(1);
        }
        println!(
            "strict gate ok: W4A8 perplexity delta {w4a8_ppl_delta_pct:.3}% within {W4A8_PPL_BOUND_PCT}% ({ppl_fp:.4} -> {ppl_w4a8:.4})"
        );

        // Multi-core scaling gate: pooled decode must keep at least 0.7
        // efficiency at 4 workers. Only enforceable when the host really
        // has 4 cores — with fewer, extra workers time-share one core and
        // the "efficiency" would measure the scheduler, not the shards.
        if available_parallelism >= 4 {
            let row4 = rows
                .iter()
                .find(|r| r.0 == 4)
                .expect("thread sweep always includes a 4-worker row");
            let eff = row4.4.efficiency(base_dpo);
            if eff < 0.7 {
                eprintln!(
                    "FAIL: pooled decode scaling efficiency {eff:.3} at 4 threads under the 0.7 floor"
                );
                std::process::exit(1);
            }
            println!("strict gate ok: pooled decode scaling efficiency {eff:.3} at 4 threads >= 0.7");
        } else {
            println!(
                "strict gate skipped: scaling-efficiency floor needs >= 4 cores (available_parallelism = {available_parallelism})"
            );
        }
    }
}
