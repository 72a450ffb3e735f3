//! Cross-crate integration for continuous batching over the paged KV
//! arena (`axcore_nn::scheduler` + `axcore_nn::kvcache`).
//!
//! Three claims are pinned here:
//!
//! 1. **Byte-identity** — with FP pages, every sequence decoded through
//!    the continuous scheduler is bit-for-bit the serial `try_generate`
//!    result, under proptested ragged schedules: staggered admissions,
//!    mixed budgets, mid-stream cancellation, forced evictions, and
//!    worker counts 1/2/4/8. This is the serving tentpole's correctness
//!    contract: batching must never change answer bits.
//! 2. **Quantized-page accuracy** — 4-bit KV pages (the OPT and LLaMA
//!    `KvQuantConfig`s from the paper's §4.4) are an accuracy-gated
//!    tier: paged perplexity with quantized pages stays within 5% of FP
//!    pages, and FP-paged perplexity equals the full-forward
//!    `eval_perplexity` exactly.
//! 3. **The stacked-item contract** — one `try_forward_paged_batch` call
//!    over items that mix multi-row prefill runs with single decode rows
//!    of several sequences returns each row byte-identical to that
//!    sequence's own `try_forward_paged` call.

use axcore_nn::corpus::{Corpus, MarkovSpec};
use axcore_nn::generate::{try_generate, Decoding};
use axcore_nn::kvcache::{KvPageConfig, SeqId};
use axcore_nn::layers::ActKind;
use axcore_nn::model::{LmConfig, TransformerLm};
use axcore_nn::scheduler::{DecodeScheduler, SeqHandle, StepEvent};
use axcore_nn::train::{train, TrainConfig};
use axcore_nn::{eval_perplexity, eval_perplexity_paged, quantize_model, QuantizedLm, Scheme};
use axcore_quant::KvQuantConfig;
use proptest::prelude::*;
use std::collections::HashMap;
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
            n_layers: 2,
            n_heads: 2,
            d_ff: 64,
            max_seq: 48,
            act: ActKind::Relu,
        };
        let corpus = Corpus::generate(MarkovSpec { vocab: 32, branching: 2, seed: 23 }, 9000, 1200);
        let mut model = TransformerLm::new(cfg, 4242);
        train(
            &mut model,
            &corpus,
            &TrainConfig { steps: 160, seq_len: 32, ..Default::default() },
        );
        Fixture { model, corpus }
    })
}

fn qlm() -> &'static QuantizedLm {
    static QLM: OnceLock<QuantizedLm> = OnceLock::new();
    QLM.get_or_init(|| {
        let f = fixture();
        quantize_model(&f.model, Scheme::AxCore, 16, None)
    })
}

/// One request of a ragged schedule.
#[derive(Debug, Clone)]
struct Req {
    /// Offset into the validation stream the prompt is cut from.
    at: usize,
    prompt_len: usize,
    budget: usize,
    /// Scheduler round at which this request is admitted.
    admit_round: usize,
    /// Scheduler round at which the request is cancelled mid-stream, if
    /// it is still running then (None = run to budget).
    cancel_round: Option<usize>,
}

/// Derive a ragged schedule from a seed (the vendored proptest shim has
/// scalar strategies only, so structure is built with a seeded RNG).
fn gen_schedule(seed: u64, n_reqs: usize) -> Vec<Req> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_reqs)
        .map(|_| Req {
            at: rng.random_range(0..600usize),
            prompt_len: rng.random_range(1..7usize),
            budget: rng.random_range(1..8usize),
            admit_round: rng.random_range(0..6usize),
            cancel_round: if rng.random_bool(0.3) {
                Some(rng.random_range(1..9usize))
            } else {
                None
            },
        })
        .collect()
}

/// Drive a ragged schedule through the scheduler (FP pages, `block`
/// positions per page, optionally evicting the longest-idle sequence
/// every `evict_every` rounds) and check every retired sequence
/// byte-for-byte against serial `try_generate`.
fn check_schedule(reqs: &[Req], mode: Decoding, block: usize, evict_every: Option<usize>) {
    let q = qlm();
    let f = fixture();
    let mut sched =
        DecodeScheduler::new(q, mode, KvPageConfig { quant: None, block, ..Default::default() });
    let mut handles: HashMap<SeqHandle, usize> = HashMap::new();
    let mut was_admitted = vec![false; reqs.len()];
    let mut cancelled: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut finished: HashMap<usize, Vec<usize>> = HashMap::new();
    for round in 0..64 {
        for (i, r) in reqs.iter().enumerate() {
            if r.admit_round == round && !was_admitted[i] {
                let prompt = &f.corpus.val[r.at..r.at + r.prompt_len];
                let h = sched.admit(prompt, r.budget).expect("valid request");
                handles.insert(h, i);
                was_admitted[i] = true;
            }
        }
        // Mid-stream cancellation at this round, whatever the sequence
        // has generated so far (possibly less than round - admit_round
        // when evictions paused it).
        let to_cancel: Vec<(SeqHandle, usize)> = handles
            .iter()
            .filter(|&(_, &i)| reqs[i].cancel_round == Some(round))
            .map(|(&h, &i)| (h, i))
            .collect();
        for (h, i) in to_cancel {
            let out = sched.cancel(h).expect("live handle");
            assert!(!out.completed);
            handles.remove(&h);
            cancelled.insert(i, out.tokens);
        }
        if let Some(every) = evict_every {
            if every > 0 && round % every == 0 {
                sched.evict_longest_idle();
                sched.resume_one();
            }
        }
        for ev in sched.step(|_| true) {
            match ev {
                StepEvent::Finished { handle, outcome } => {
                    let i = handles.remove(&handle).expect("known handle");
                    assert!(outcome.completed);
                    finished.insert(i, outcome.tokens);
                }
                StepEvent::Failed { handle, error } => {
                    panic!("schedule {handle:?} failed: {error}");
                }
            }
        }
        if was_admitted.iter().all(|&a| a) && sched.live() == 0 {
            break;
        }
    }
    assert_eq!(sched.kv_pages_live(), 0, "all pages freed at drain");
    for (i, r) in reqs.iter().enumerate() {
        let prompt = &f.corpus.val[r.at..r.at + r.prompt_len];
        let serial = try_generate(q, prompt, r.budget, mode).expect("serial reference");
        if let Some(tokens) = finished.get(&i) {
            assert_eq!(tokens, &serial, "continuous == serial for request {i}");
        } else if let Some(tokens) = cancelled.get(&i) {
            assert_eq!(
                tokens[..],
                serial[..tokens.len()],
                "cancelled request {i} is a byte-exact prefix of serial"
            );
        } else {
            panic!("request {i} neither finished nor cancelled");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant, proptested: ragged join/leave schedules
    /// (staggered admissions, mixed budgets, mid-stream cancellations,
    /// periodic evictions) through FP pages are byte-identical to serial
    /// decoding at every attention worker count.
    #[test]
    fn ragged_schedules_are_bit_exact_at_every_worker_count(
        seed in any::<u64>(),
        n_reqs in 1usize..6,
        block in prop_oneof![Just(4usize), Just(16usize)],
        evict in any::<bool>(),
        greedy in any::<bool>(),
    ) {
        let reqs = gen_schedule(seed, n_reqs);
        let evict_every = if evict { Some(3) } else { None };
        let mode = if greedy {
            Decoding::Greedy
        } else {
            Decoding::Sample { temperature: 0.8, seed: 99 }
        };
        for workers in [1usize, 2, 4, 8] {
            axcore_parallel::with_threads(workers, || {
                check_schedule(&reqs, mode, block, evict_every);
            });
        }
    }
}

/// One `try_forward_paged_batch` call whose items mix multi-row prefill
/// runs (fresh sequences) with single decode rows (sequences with a
/// cached prefix) for `n_seqs` sequences, checked row for row against
/// per-sequence `try_forward_paged` calls in a second arena. A
/// sequence's rows may be split into two chunks with other sequences'
/// rows between them, so one sequence can form two runs in one call.
fn check_mixed_items(seed: u64, n_seqs: usize, block: usize) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let q = qlm();
    let f = fixture();
    let pages = KvPageConfig { quant: None, block, ..Default::default() };
    let (mut stacked, mut reference) = (q.kv_arena(pages), q.kv_arena(pages));
    let mut rng = StdRng::seed_from_u64(seed);
    // (stacked id, reference id, tokens, cached prefix length) per sequence.
    let mut seqs: Vec<(SeqId, SeqId, Vec<usize>, usize)> = Vec::new();
    for _ in 0..n_seqs {
        let (cached, new) = if rng.random_bool(0.5) {
            (0, rng.random_range(2..9usize))
        } else {
            (rng.random_range(1..13usize), 1)
        };
        let at = rng.random_range(0..600usize);
        let toks = f.corpus.val[at..at + cached + new].to_vec();
        let (a, b) = (stacked.try_join().expect("join"), reference.try_join().expect("join"));
        if cached > 0 {
            for (arena, id) in [(&mut stacked, a), (&mut reference, b)] {
                q.try_forward_paged(&toks[..cached], 0, arena, id).expect("prefix");
                arena.try_commit(id, cached).expect("commit prefix");
            }
        }
        seqs.push((a, b, toks, cached));
    }
    // Chunk queues: each sequence's uncached positions in one or two
    // chunks, drained in random sequence order (chunk order kept).
    let mut queues: Vec<Vec<(usize, usize)>> = seqs
        .iter()
        .map(|(_, _, toks, cached)| {
            let n = toks.len();
            if n - cached > 1 && rng.random_bool(0.5) {
                let cut = rng.random_range(cached + 1..n);
                vec![(cut, n), (*cached, cut)]
            } else {
                vec![(*cached, n)]
            }
        })
        .collect();
    let mut items: Vec<(SeqId, usize, usize)> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    while queues.iter().any(|qs| !qs.is_empty()) {
        let live: Vec<usize> = (0..n_seqs).filter(|&i| !queues[i].is_empty()).collect();
        let i = live[rng.random_range(0..live.len())];
        let (lo, hi) = queues[i].pop().expect("non-empty queue");
        for p in lo..hi {
            items.push((seqs[i].0, p, seqs[i].2[p]));
            owner.push(i);
        }
    }
    let v = q.vocab();
    let got = q.try_forward_paged_batch(&items, &mut stacked).expect("stacked forward");
    assert_eq!(got.len(), items.len() * v);
    for (i, (_, b, toks, cached)) in seqs.iter().enumerate() {
        let want = q
            .try_forward_paged(&toks[*cached..], *cached, &mut reference, *b)
            .expect("per-sequence forward");
        for (r, &(_, p, _)) in items.iter().enumerate().filter(|&(r, _)| owner[r] == i) {
            let row = &want[(p - cached) * v..(p - cached + 1) * v];
            assert_eq!(
                got[r * v..(r + 1) * v].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                row.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "item {r} (sequence {i}, position {p}) differs from its own forward"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The generalized item contract, proptested: prefill runs and
    /// decode rows of up to 4 sequences stacked into one call are
    /// byte-identical to per-sequence forwards, at 1 and 4 workers. The
    /// scheduler never issues such a mixed call, so nothing else covers
    /// it.
    #[test]
    fn mixed_prefill_and_decode_items_match_per_sequence_forwards(
        seed in any::<u64>(),
        n_seqs in 1usize..5,
        block in prop_oneof![Just(4usize), Just(16usize)],
    ) {
        for workers in [1usize, 4] {
            axcore_parallel::with_threads(workers, || check_mixed_items(seed, n_seqs, block));
        }
    }
}

/// Deterministic spot-check of the same invariant (fast path for CI
/// grepping; the proptest above covers the space).
#[test]
fn staggered_admissions_and_cancellation_bit_exact() {
    let reqs = vec![
        Req { at: 0, prompt_len: 4, budget: 6, admit_round: 0, cancel_round: None },
        Req { at: 40, prompt_len: 2, budget: 7, admit_round: 2, cancel_round: Some(5) },
        Req { at: 80, prompt_len: 6, budget: 2, admit_round: 1, cancel_round: None },
        Req { at: 120, prompt_len: 3, budget: 5, admit_round: 4, cancel_round: None },
    ];
    check_schedule(&reqs, Decoding::Greedy, 4, Some(2));
}

/// FP pages change nothing: paged, token-at-a-time perplexity equals the
/// full-forward evaluation exactly.
#[test]
fn fp_paged_perplexity_matches_full_forward_exactly() {
    let q = qlm();
    let f = fixture();
    let stream = &f.corpus.val[..400];
    let full = eval_perplexity(q, stream, 24);
    let paged = eval_perplexity_paged(q, stream, 24, KvPageConfig::default());
    assert_eq!(paged.to_bits(), full.to_bits(), "FP pages are bit-transparent");
}

/// Quantized KV pages are an accuracy-gated tier: both paper configs
/// (OPT: K=E1M2 / V=E3M0; LLaMA: K=E2M1 / V=E3M0, group 64) stay within
/// 5% of FP-paged perplexity under `Scheme::AxCore` compute.
#[test]
fn quantized_kv_pages_hold_the_accuracy_gate() {
    let q = qlm();
    let f = fixture();
    let stream = &f.corpus.val[..400];
    let fp = eval_perplexity_paged(q, stream, 24, KvPageConfig::default());
    for (name, cfg) in [("opt", KvQuantConfig::opt()), ("llama", KvQuantConfig::llama())] {
        let quant = eval_perplexity_paged(
            q,
            stream,
            24,
            KvPageConfig { quant: Some(cfg), block: 16, ..Default::default() },
        );
        let delta = (quant - fp) / fp;
        assert!(
            delta.abs() <= 0.05,
            "{name} 4-bit KV pages ppl {quant:.4} vs FP {fp:.4} (delta {delta:+.2}%)",
            delta = delta * 100.0,
        );
    }
}
