//! Q8 activation block quantization for the W4A8 integer-activation tier.
//!
//! Mirrors llama.cpp's `block_q8_1` layout: the activation row is split
//! into fixed blocks of [`Q8_BLOCK`] elements, each carrying
//!
//! * 8-bit signed codes `qa ∈ [−127, 127]` (symmetric, so the integer dot
//!   against offset-encoded 4-bit weight codes stays within `i16` pair
//!   bounds for `maddubs`-style kernels),
//! * one `f32` scale `d = max|a| / 127` (so `a ≈ qa · d`),
//! * one `i32` **compensation sum** `Σ qa` — what lets a consumer that
//!   stores weight codes with a `+64` offset (`wu = wint + 64 ∈ [0, 128]`)
//!   recover the true dot as `Σ qa·wu − 64·Σ qa` without a signed 8×8
//!   multiply, playing the role `block_q8_1`'s per-block sum plays for
//!   `block_q4_1`'s offset term.
//!
//! Quantization is round-to-nearest-even on `a / d`, exactly matching the
//! weight quantizers' integer rounding ([`crate::formats`]), and an
//! all-zero block yields `d = 0` with all-zero codes so the reconstruction
//! is exact rather than `0/0`.

/// Elements per Q8 activation block.
pub const Q8_BLOCK: usize = 32;

/// Quantize one activation row into caller-provided (typically
/// arena-recycled) buffers: per-element codes, per-block scales, and
/// per-block code sums.
///
/// `a.len()` must be a multiple of [`Q8_BLOCK`]; `codes` must match
/// `a.len()` and `scales`/`sums` must hold one entry per block. Every
/// element of all three outputs is overwritten, so stale recycled
/// contents are harmless.
///
/// # Panics
/// If the slice lengths disagree with the block layout.
pub fn quantize_row_into(a: &[f32], codes: &mut [i8], scales: &mut [f32], sums: &mut [i32]) {
    let blocks = a.len() / Q8_BLOCK;
    assert!(a.len().is_multiple_of(Q8_BLOCK), "row length {} not a multiple of {Q8_BLOCK}", a.len());
    assert_eq!(codes.len(), a.len(), "codes length");
    assert_eq!(scales.len(), blocks, "scales length");
    assert_eq!(sums.len(), blocks, "sums length");
    for b in 0..blocks {
        let ab = &a[b * Q8_BLOCK..(b + 1) * Q8_BLOCK];
        let cb = &mut codes[b * Q8_BLOCK..(b + 1) * Q8_BLOCK];
        // Non-finite activations saturate through the clamp below (NaN
        // compares false everywhere, so a NaN max leaves 0.0 → zero
        // block; a NaN element under a finite max becomes 0 via the
        // `as` cast's NaN→0 semantics). The engines' FP paths already
        // tolerate pathological rows; this path must not panic on them.
        let max_abs = ab.iter().fold(0f32, |m, &v| {
            let av = v.abs();
            if av > m { av } else { m }
        });
        if max_abs == 0.0 || !max_abs.is_finite() {
            cb.fill(0);
            scales[b] = 0.0;
            sums[b] = 0;
            continue;
        }
        let d = max_abs / 127.0;
        let inv = 127.0 / max_abs;
        let mut sum = 0i32;
        for (slot, &v) in cb.iter_mut().zip(ab) {
            let q = round_clamp_q8(v * inv);
            sum += q;
            *slot = q as i8;
        }
        scales[b] = d;
        sums[b] = sum;
    }
}

/// `x.round_ties_even().clamp(-127.0, 127.0) as i32`, bit for bit, in
/// a form that compiles to plain vector adds on the baseline x86-64
/// target (where `round_ties_even` lowers to a `rintf` call per
/// element).
///
/// Adding and then subtracting `1.5 · 2^23` rounds `x` to an integer
/// with the FPU's round-to-nearest-even: for `|x| < 2^22` the sum lies
/// in `[2^23, 2^24)`, where the f32 spacing is exactly 1, and the
/// shift is even, so ties land on the even integer just as
/// `round_ties_even` puts them. Outside that range rounding is still
/// monotone and keeps the sign, so every `|x| ≥ 128` clamps to the
/// same `±127`. NaN stays NaN through both adds and the clamp, and the
/// saturating `as` cast maps it to 0.
#[inline]
fn round_clamp_q8(x: f32) -> i32 {
    const SHIFT: f32 = 12_582_912.0; // 1.5 · 2^23
    ((x + SHIFT) - SHIFT).clamp(-127.0, 127.0) as i32
}

/// One quantized activation row in owned buffers — the convenience form
/// for tests and offline tooling (the engines quantize into arena
/// buffers via [`quantize_row_into`]).
#[derive(Debug, Clone)]
pub struct Q8Row {
    /// Per-element signed 8-bit codes.
    pub codes: Vec<i8>,
    /// Per-block scales (`a ≈ code · d`).
    pub scales: Vec<f32>,
    /// Per-block compensation sums `Σ code`.
    pub sums: Vec<i32>,
}

impl Q8Row {
    /// Quantize `a` (length a multiple of [`Q8_BLOCK`]).
    pub fn quantize(a: &[f32]) -> Q8Row {
        let blocks = a.len() / Q8_BLOCK;
        let mut row = Q8Row {
            codes: vec![0i8; a.len()],
            scales: vec![0f32; blocks],
            sums: vec![0i32; blocks],
        };
        quantize_row_into(a, &mut row.codes, &mut row.scales, &mut row.sums);
        row
    }

    /// Reconstruct element `i`.
    pub fn dequant(&self, i: usize) -> f32 {
        self.codes[i] as f32 * self.scales[i / Q8_BLOCK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let a: Vec<f32> = (0..64).map(|i| ((i * 37 % 61) as f32 - 30.0) * 0.11).collect();
        let q = Q8Row::quantize(&a);
        for (i, &v) in a.iter().enumerate() {
            let d = q.scales[i / Q8_BLOCK];
            assert!((q.dequant(i) - v).abs() <= d * 0.5 + 1e-7, "elem {i}");
        }
    }

    #[test]
    fn sums_match_codes_and_zero_blocks_are_exact() {
        let mut a = vec![0f32; 96];
        for (i, v) in a.iter_mut().enumerate().skip(32).take(32) {
            *v = (i as f32 - 48.0) * 0.25;
        }
        let q = Q8Row::quantize(&a);
        for b in 0..3 {
            let s: i32 = q.codes[b * 32..(b + 1) * 32].iter().map(|&c| c as i32).sum();
            assert_eq!(s, q.sums[b], "block {b}");
        }
        assert_eq!(q.scales[0], 0.0);
        assert!(q.codes[..32].iter().all(|&c| c == 0));
        assert_eq!(q.scales[2], 0.0);
    }

    #[test]
    fn block_max_hits_full_scale() {
        let mut a = vec![0.5f32; 32];
        a[7] = -2.0;
        let q = Q8Row::quantize(&a);
        assert_eq!(q.codes[7], -127);
        assert_eq!(q.dequant(7), -2.0);
    }

    /// The rounding the branch-free form must reproduce.
    fn reference(x: f32) -> i32 {
        x.round_ties_even().clamp(-127.0, 127.0) as i32
    }

    #[test]
    fn branch_free_rounding_matches_ties_even_on_every_tie() {
        // Every representable ±k.5 tie (f32 spacing is 0.5 up to 2^23)
        // and its immediate f32 neighbours on both sides. Below 2^22 the
        // shifted sum rounds exactly as `round_ties_even`; from 2^22 on
        // it need not, and both forms agree through the ±127 clamp.
        for k in 0..(1u32 << 23) {
            let tie = k as f32 + 0.5;
            for x in [tie, tie.next_up(), tie.next_down()] {
                for v in [x, -x] {
                    assert_eq!(round_clamp_q8(v), reference(v), "{v:e}");
                }
            }
        }
    }

    #[test]
    fn branch_free_rounding_matches_ties_even_on_a_random_sweep() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..2_000_000u32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Half the draws are arbitrary bit patterns (every exponent,
            // NaN payloads included), half land in the Q8 working range.
            let v = if i % 2 == 0 {
                f32::from_bits(s as u32)
            } else {
                ((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 300.0
            };
            assert_eq!(round_clamp_q8(v), reference(v), "{v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    fn branch_free_rounding_handles_special_values() {
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE.next_down(),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            127.5,
            -127.5,
            12_582_912.0,
            -12_582_912.0,
        ];
        for v in specials {
            assert_eq!(round_clamp_q8(v), reference(v), "{v:e}");
        }
        assert_eq!(round_clamp_q8(f32::NAN), 0);
        assert_eq!(round_clamp_q8(-f32::NAN), 0);
        assert_eq!(round_clamp_q8(f32::INFINITY), 127);
        assert_eq!(round_clamp_q8(f32::NEG_INFINITY), -127);
    }

    #[test]
    fn nonfinite_blocks_quantize_to_zero_without_panicking() {
        let mut a = vec![1.0f32; 32];
        a[3] = f32::NAN;
        a[9] = f32::INFINITY;
        let q = Q8Row::quantize(&a);
        assert_eq!(q.scales[0], 0.0);
        assert!(q.codes.iter().all(|&c| c == 0));
    }
}
