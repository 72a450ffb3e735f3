//! Golden output fingerprints of `QuantizedLm`'s forward entry points.
//!
//! `paged_decode.rs` checks paged decode against serial `try_generate`,
//! but both run through the same block loop, so a defect in that loop
//! would cancel out of the comparison. These tests pin the logits bits
//! themselves: each constant is a 64-bit fold of every logits bit a
//! fixed-seed model produces over a fixed run. The constants were
//! recorded from an implementation with a separate block loop per entry
//! point, so they check the shared loop against independent code.
//! Prepared tiers and column shards are bit-identical by design, so the
//! constants hold at any worker count and on hosts with or without
//! AVX2.

use axcore_nn::kvcache::{KvPageConfig, SeqId};
use axcore_nn::layers::ActKind;
use axcore_nn::model::{LmConfig, TransformerLm};
use axcore_nn::{quantize_model, QuantizedLm, Scheme};
use axcore_quant::KvQuantConfig;
use std::sync::OnceLock;

fn model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = LmConfig {
            vocab: 32,
            d_model: 32,
            n_layers: 2,
            n_heads: 2,
            d_ff: 64,
            max_seq: 48,
            act: ActKind::Relu,
        };
        TransformerLm::new(cfg, 2024)
    })
}

fn axcore() -> &'static QuantizedLm {
    static QLM: OnceLock<QuantizedLm> = OnceLock::new();
    QLM.get_or_init(|| quantize_model(model(), Scheme::AxCore, 16, None))
}

/// Deterministic token stream over the model's vocabulary.
fn tokens(n: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + salt * 13 + 3) % 32).collect()
}

/// FNV-1a-style fold of every value's bit pattern into `h`.
fn fold(h: u64, xs: &[f32]) -> u64 {
    xs.iter().fold(h, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Whole-window forward over 20 tokens under `scheme`.
fn window_fingerprint(scheme: Scheme) -> u64 {
    let q = quantize_model(model(), scheme, 16, None);
    let logits = q.try_forward(&tokens(20, 0)).expect("healthy forward");
    fold(SEED, &logits)
}

/// A 12-token paged prefill followed by 3 committed decode steps.
fn paged_fingerprint(pages: KvPageConfig) -> u64 {
    let q = axcore();
    let mut arena = q.kv_arena(pages);
    let seq = arena.try_join().expect("join");
    let toks = tokens(15, 1);
    let mut h = fold(
        SEED,
        &q.try_forward_paged(&toks[..12], 0, &mut arena, seq)
            .expect("prefill"),
    );
    arena.try_commit(seq, 12).expect("commit prefill");
    for p in 12..15 {
        h = fold(
            h,
            &q.try_forward_paged(&toks[p..p + 1], p, &mut arena, seq)
                .expect("decode"),
        );
        arena.try_commit(seq, p + 1).expect("commit decode");
    }
    h
}

/// Three sequences of different prompt lengths, prefilled separately,
/// then one stacked decode row each.
fn batch_fingerprint() -> u64 {
    let q = axcore();
    let mut arena = q.kv_arena(fp32_pages());
    let mut items: Vec<(SeqId, usize, usize)> = Vec::new();
    for (salt, len) in [(2usize, 5usize), (3, 9), (4, 3)] {
        let seq = arena.try_join().expect("join");
        let toks = tokens(len + 1, salt);
        q.try_forward_paged(&toks[..len], 0, &mut arena, seq)
            .expect("prefill");
        arena.try_commit(seq, len).expect("commit prefill");
        items.push((seq, len, toks[len]));
    }
    fold(
        SEED,
        &q.try_forward_paged_batch(&items, &mut arena)
            .expect("stacked decode"),
    )
}

fn fp32_pages() -> KvPageConfig {
    KvPageConfig {
        block: 4,
        ..Default::default()
    }
}

fn q4_opt_pages() -> KvPageConfig {
    KvPageConfig {
        quant: Some(KvQuantConfig::opt()),
        block: 4,
        ..Default::default()
    }
}

#[test]
fn whole_window_forward_bits_are_pinned() {
    for (scheme, want) in [
        (Scheme::AxCore, 0xb849_1e3b_96a4_9efa),
        (Scheme::AxCoreKv, 0x0390_8a49_914c_703f),
        (Scheme::TenderW4A4Kv4, 0x0c44_2cd0_9362_af8f),
    ] {
        let got = window_fingerprint(scheme);
        assert_eq!(
            got,
            want,
            "{}: try_forward fingerprint {got:#018x}",
            scheme.name()
        );
    }
}

#[test]
fn paged_prefill_and_decode_bits_are_pinned() {
    for (name, pages, want) in [
        ("fp32", fp32_pages(), 0x8a25_be5a_58c3_563f_u64),
        ("q4-opt", q4_opt_pages(), 0xbfec_3e03_5e5d_fb5d),
    ] {
        let got = paged_fingerprint(pages);
        assert_eq!(
            got, want,
            "{name} pages: try_forward_paged fingerprint {got:#018x}"
        );
    }
}

#[test]
fn stacked_decode_bits_are_pinned() {
    let got = batch_fingerprint();
    assert_eq!(
        got, 0x7300_11fc_689c_f98c,
        "try_forward_paged_batch fingerprint {got:#018x}"
    );
}
