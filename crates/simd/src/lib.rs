//! The one unsafe corner of the workspace: the vector kernels for the
//! prepared decode hot loops in `axcore::engines` — the exact LUT fold
//! (a register-permute table lookup in AVX-512 or AVX2) and the W4A8
//! eight-column integer tile (`vpmaddubsw` + a `vphaddd`
//! transpose-reduce).
//!
//! Everything else in the workspace builds under
//! `#![forbid(unsafe_code)]`; quarantining the vector kernels here keeps
//! that guarantee intact. Each kernel is semantically tiny and this
//! crate carries its own scalar reference implementation plus
//! exhaustive-ish randomized tests pinning the paths bit-equal, so the
//! unsafe surface is auditable in isolation from the engines it
//! accelerates.
//!
//! # Table entry layout
//!
//! Each i32 entry is `(exp << 16) | (inc as u16)`: a biased exponent in
//! the high half (≤ 255 by the caller's format gate) and a signed
//! significand increment in the low half (`|inc| < 2^15`). A zero entry
//! (`exp == 0`, `inc == 0`) is a no-op of the fold. One k-step's table
//! row is the 16 entries of one 4-bit weight code space: one zmm, or two
//! ymm.
//!
//! # The fold
//!
//! The accumulator is the max-anchor form of AxCore's partial FP adder
//! (`PartialAcc::add_prepared_unclamped`): align the smaller-exponent
//! operand by shifting its significand right, add, and keep the larger
//! anchor; a zero significand re-anchors on the incoming entry.
//! Fixed-width alignment *drops* the shifted-out bits, exactly like the
//! hardware adder — that's the approximation being modeled, so
//! bit-identity with the scalar reference ([`scalar_fold`]) is the
//! correctness bar, not closeness to an exact dot product.
//!
//! # The LUT kernel
//!
//! [`lut_fold`] and [`lut_fold_fp16`] fold one weight group of a tile of
//! up to [`LUT_LANES`] output columns for up to [`LUT_MAX_ROWS`] stacked
//! activation rows. Each 16-step code word is decoded once — as u32
//! halves, one `srli` per step — and drives one table-row permute per
//! row: `vpermd` over a zmm in the AVX-512 body, two `vpermd` and a blend
//! on nibble bit 3 in the AVX2 body. Nothing is gathered from memory.
//! [`lut_fold_fp16`] also finishes each group partial in the lanes
//! (normalize → FPMA scale → FP16 → f32) and adds it to the caller's
//! output rows.

#![warn(missing_docs)]
// Safety posture: `unsafe` appears only in the `avx512_*` and `avx2_*`
// LUT bodies with their `code_words` loads, and in `avx2_w4a8_tile8`
// (the `target_feature` declarations and their raw loads), with the
// obligations documented on each function and discharged by
// `check_group`'s bounds checks and `check_w4a8_shapes`.

use std::sync::OnceLock;

/// True when the running CPU has AVX2 (the W4A8 tile's vector path).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Output columns per LUT tile: the AVX-512 body's lane count (the AVX2
/// body runs a tile as two eight-lane halves).
pub const LUT_LANES: usize = 16;

/// The most stacked activation rows one LUT kernel call folds.
pub const LUT_MAX_ROWS: usize = 8;

/// The anchor exponent of an empty (`sig == 0`) vector lane: far enough
/// below every biased exponent that the next add shifts the old
/// significand out entirely and anchors on the entry, with no blend.
const DEAD: i32 = -(1 << 30);

/// One body of the LUT kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LutBody {
    /// 16 lanes per pass: `vpermd` over a zmm table row (AVX-512F and
    /// AVX-512BW).
    Avx512,
    /// Two 8-lane passes: two `vpermd` plus a blend per table row (AVX2
    /// and F16C).
    Avx2,
    /// The per-lane scalar reference.
    Scalar,
}

impl LutBody {
    /// Every body, fastest first.
    pub const ALL: [LutBody; 3] = [LutBody::Avx512, LutBody::Avx2, LutBody::Scalar];

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LutBody::Avx512 => "avx512",
            LutBody::Avx2 => "avx2",
            LutBody::Scalar => "scalar",
        }
    }

    /// Whether the running CPU can execute this body.
    pub fn runnable(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                LutBody::Avx512 => {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                }
                LutBody::Avx2 => {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("f16c")
                }
                LutBody::Scalar => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == LutBody::Scalar
        }
    }
}

/// The body [`lut_fold`] and [`lut_fold_fp16`] run on this host: the
/// fastest runnable one when [`self_test`] passed, the scalar reference
/// otherwise. Cached after the first call.
pub fn lut_body() -> LutBody {
    static BODY: OnceLock<LutBody> = OnceLock::new();
    *BODY.get_or_init(|| {
        let fastest = LutBody::ALL.into_iter().find(|b| b.runnable());
        match fastest {
            Some(b) if self_test() => b,
            _ => LutBody::Scalar,
        }
    })
}

/// One-shot power-on self test of the LUT kernel: fold a fixed pattern
/// (FP16-range exponents, signed increments, periodic zero entries, two
/// units in one tile, three stacked rows) through every vector body the
/// CPU can run and through the scalar reference, both as raw state and
/// through the FP16 finish. Returns `true` when every body agrees
/// bit-for-bit (trivially, when no vector body can run). Cached after
/// the first call; the reliability ladder consults it before trusting
/// the vector tier, so a machine with a faulty vector unit degrades
/// instead of silently corrupting.
pub fn self_test() -> bool {
    static RESULT: OnceLock<bool> = OnceLock::new();
    *RESULT.get_or_init(|| {
        let depth = 32usize;
        let unit = depth * 16;
        let table = |salt: usize| -> Vec<i32> {
            (0..2 * unit)
                .map(|i| {
                    let i = i + salt;
                    if i.is_multiple_of(7) {
                        return 0;
                    }
                    let exp = (i * 11 % 31) as i32;
                    let inc = ((i * 2654435761usize % 8191) as i32) - 4095;
                    (exp << 16) | (inc & 0xffff)
                })
                .collect()
        };
        let store: Vec<Vec<i32>> = (0..3).map(|r| table(r * 5)).collect();
        let tables: [&[i32]; 3] = std::array::from_fn(|r| &store[r][..]);
        let stride = depth / 2;
        let codes: Vec<u8> = (0..LUT_LANES * stride).map(|i| (i * 37 + i / 5 * 101) as u8).collect();
        let grp = LutGroup {
            codes: &codes,
            stride,
            lanes: LUT_LANES,
            depth,
            bases: std::array::from_fn(|l| (l / 4 % 2) * unit),
        };
        let scales: Vec<u16> = (0..LUT_LANES).map(|l| 0x2c00 + (l as u16) * 0x111).collect();
        let fin = Fp16Finish { scales: &scales, c2: -3 };
        let segs = check_group(&tables, &grp);
        let run = |b: LutBody| {
            let mut out = [1.5f32; 3 * LUT_LANES];
            // SAFETY: only runnable bodies reach here, and `segs` came
            // from `check_group` on these arguments.
            let acc = unsafe {
                finish_on(b, &tables, &grp, &segs, &fin, &mut out, LUT_LANES);
                fold_on(b, &tables, &grp, &segs)
            };
            (acc, out.map(f32::to_bits))
        };
        let (want, want_out) = run(LutBody::Scalar);
        LutBody::ALL.into_iter().filter(|b| *b != LutBody::Scalar && b.runnable()).all(|b| {
            let (got, out) = run(b);
            got.iter().zip(&want).all(|(g, w)| same_state(g, w, LUT_LANES)) && out == want_out
        })
    })
}

/// Whether two accumulator states agree on every observable field of
/// their first `lanes` lanes: the significand, and the exponent of every
/// live (`sig != 0`) lane.
fn same_state(a: &LutAcc, b: &LutAcc, lanes: usize) -> bool {
    (0..lanes).all(|l| a.sig[l] == b.sig[l] && (a.sig[l] == 0 || a.exp[l] == b.exp[l]))
}

/// One weight group of one tile: the code side of a LUT kernel call.
#[derive(Debug, Clone, Copy)]
pub struct LutGroup<'a> {
    /// Nibble-packed codes (low nibble = even k-step): lane `l`'s
    /// `depth / 2` bytes for this group start at `codes[l * stride]`.
    pub codes: &'a [u8],
    /// Bytes between consecutive lanes' code segments (the plane stride).
    pub stride: usize,
    /// Live lanes, `1..=LUT_LANES`; the rest of a tile is padding.
    pub lanes: usize,
    /// k-steps in the group: a positive multiple of 16 (whole u64 code
    /// words).
    pub depth: usize,
    /// Lane `l`'s table segment in every row's table: k-step `s` of the
    /// group reads the 16 entries at `bases[l] + 16 · s`. Lanes of one
    /// format unit share a base.
    pub bases: [usize; LUT_LANES],
}

/// Raw per-lane accumulator state after one group's fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutAcc {
    /// Signed fixed-point significands.
    pub sig: [i32; LUT_LANES],
    /// Biased anchor exponents; meaningful only where `sig != 0`.
    pub exp: [i32; LUT_LANES],
}

impl LutAcc {
    const ZERO: LutAcc = LutAcc { sig: [0; LUT_LANES], exp: [0; LUT_LANES] };
}

/// The per-lane FP16 finish of [`lut_fold_fp16`].
#[derive(Debug, Clone, Copy)]
pub struct Fp16Finish<'a> {
    /// FP16 scale bits of each live lane's (group, column).
    pub scales: &'a [u16],
    /// The AxScale compensation constant `C₂` (result-LSB units).
    pub c2: i32,
}

/// The distinct table segments of one tile: lanes of one format unit
/// share a base and take one (masked) permute per row and k-step.
#[derive(Debug, Clone, Copy)]
struct Segs {
    base: [usize; LUT_LANES],
    mask: [u16; LUT_LANES],
    n: usize,
}

/// Validate one kernel call and group its lanes into segments. Every
/// bound the vector bodies' raw loads rely on is asserted here.
fn check_group<const R: usize>(tables: &[&[i32]; R], grp: &LutGroup<'_>) -> Segs {
    assert!((1..=LUT_MAX_ROWS).contains(&R), "row block of {R} is outside 1..={LUT_MAX_ROWS}");
    assert!(
        (1..=LUT_LANES).contains(&grp.lanes),
        "tile of {} lanes is outside 1..={LUT_LANES}",
        grp.lanes
    );
    assert!(
        grp.depth > 0 && grp.depth.is_multiple_of(16),
        "group depth {} is not whole 16-step code words",
        grp.depth
    );
    let need = (grp.lanes - 1).checked_mul(grp.stride).and_then(|v| v.checked_add(grp.depth / 2));
    assert!(
        need.is_some_and(|e| e <= grp.codes.len()),
        "ragged code planes: {} lanes at stride {} need {need:?} bytes, got {}",
        grp.lanes,
        grp.stride,
        grp.codes.len()
    );
    let len = tables[0].len();
    for t in tables {
        assert_eq!(t.len(), len, "ragged row tables");
    }
    let mut segs = Segs { base: [0; LUT_LANES], mask: [0; LUT_LANES], n: 0 };
    for (l, &b) in grp.bases[..grp.lanes].iter().enumerate() {
        let end = grp.depth.checked_mul(16).and_then(|d| d.checked_add(b));
        assert!(
            end.is_some_and(|e| e <= len),
            "lane {l} segment [{b}, {end:?}) escapes table of {len}"
        );
        match segs.base[..segs.n].iter().position(|&x| x == b) {
            Some(s) => segs.mask[s] |= 1 << l,
            None => {
                segs.base[segs.n] = b;
                segs.mask[segs.n] = 1 << l;
                segs.n += 1;
            }
        }
    }
    // Padding lanes ride on the first segment: their code words are zero
    // and their results are never read.
    segs.mask[0] |= !(((1u32 << grp.lanes) - 1) as u16);
    segs
}

/// Lanes `lane0 .. lane0 + W` of code block `blk` (k-steps `16·blk ..
/// 16·blk + 16`) as u32 halves: `lo` holds k-steps 0–7 of each lane's
/// u64 code word, `hi` k-steps 8–15. Padding lanes read as zero.
///
/// # Safety
///
/// `grp` must have passed [`check_group`] and `blk < grp.depth / 16`:
/// then every live lane's eight bytes lie inside its checked segment.
#[inline(always)]
unsafe fn code_words<const W: usize>(grp: &LutGroup<'_>, lane0: usize, blk: usize) -> ([u32; W], [u32; W]) {
    let mut lo = [0u32; W];
    let mut hi = [0u32; W];
    let live = grp.lanes.saturating_sub(lane0).min(W);
    let p = grp.codes.as_ptr();
    for i in 0..live {
        let w = u64::from_le(p.add((lane0 + i) * grp.stride + blk * 8).cast::<u64>().read_unaligned());
        lo[i] = w as u32;
        hi[i] = (w >> 32) as u32;
    }
    (lo, hi)
}

/// Fold one group of a tile for `R` stacked rows (`tables[r]` is row
/// `r`'s table) and return each row's raw per-lane accumulator state.
/// Lanes past `grp.lanes` are unspecified.
///
/// For live lane `l` and row `r` the result equals
/// [`scalar_fold`]`(tables[r], grp.bases[l], codes of lane l)` on every
/// observable field: the significand, and the exponent wherever the
/// significand is non-zero (an empty lane reports exponent 0 or its last
/// anchor, which nothing reads).
///
/// Runs on [`lut_body`]; every body gives the same bits.
///
/// # Panics
///
/// Panics unless `R` is in `1..=LUT_MAX_ROWS`, `grp.lanes` in
/// `1..=LUT_LANES`, `grp.depth` a positive multiple of 16, every live
/// lane's code segment inside `grp.codes` ("ragged code planes"), every
/// table of equal length ("ragged row tables"), and every live lane's
/// segment `[bases[l], bases[l] + 16 · depth)` inside the tables
/// ("escapes table").
pub fn lut_fold<const R: usize>(tables: &[&[i32]; R], grp: &LutGroup<'_>) -> [LutAcc; R] {
    let segs = check_group(tables, grp);
    // SAFETY: `lut_body` only returns runnable bodies; `segs` is fresh.
    unsafe { fold_on(lut_body(), tables, grp, &segs) }
}

/// [`lut_fold`] followed by the FP16 finish in the lanes: for live lane
/// `l` and row `r`, `out[r · out_stride + l] += `[`scalar_finish_fp16`]`(sig,
/// exp, fin.scales[l], fin.c2)` — the same f32 add, in the same order,
/// as a scalar finish of the group. Calling it per group in ascending
/// order accumulates a column exactly like the engine's scalar loop.
///
/// # Panics
///
/// Panics on [`lut_fold`]'s conditions, if `fin.scales` holds fewer
/// than `grp.lanes` scales, or if `out` is shorter than
/// `(R − 1) · out_stride + grp.lanes`.
pub fn lut_fold_fp16<const R: usize>(
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    fin: &Fp16Finish<'_>,
    out: &mut [f32],
    out_stride: usize,
) {
    let segs = check_group(tables, grp);
    // SAFETY: `lut_body` only returns runnable bodies; `segs` is fresh.
    unsafe { finish_on(lut_body(), tables, grp, &segs, fin, out, out_stride) }
}

/// The scale and output shapes [`lut_fold_fp16`] documents; panics on
/// a violation.
fn check_finish<const R: usize>(grp: &LutGroup<'_>, fin: &Fp16Finish<'_>, out: &[f32], out_stride: usize) {
    assert!(
        fin.scales.len() >= grp.lanes,
        "{} scales for {} lanes",
        fin.scales.len(),
        grp.lanes
    );
    let need = (R - 1).checked_mul(out_stride).and_then(|v| v.checked_add(grp.lanes));
    assert!(
        need.is_some_and(|e| e <= out.len()),
        "output of {} too short for {R} rows at stride {out_stride}",
        out.len()
    );
}

/// [`lut_fold`] on an explicit body.
///
/// # Safety
///
/// `body` must be runnable and `segs` must come from [`check_group`] on
/// `(tables, grp)`.
unsafe fn fold_on<const R: usize>(
    body: LutBody,
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    segs: &Segs,
) -> [LutAcc; R] {
    match body {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees the body's features and that
        // `check_group` proved every load in bounds.
        LutBody::Avx512 => unsafe { avx512_fold(tables, grp, segs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        LutBody::Avx2 => unsafe { avx2_fold(tables, grp, segs) },
        _ => std::array::from_fn(|r| scalar_group(tables[r], grp)),
    }
}

/// [`lut_fold_fp16`] on an explicit body.
///
/// # Safety
///
/// As [`fold_on`]. The scale and output shapes are checked here
/// ([`check_finish`] panics before any body runs).
unsafe fn finish_on<const R: usize>(
    body: LutBody,
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    segs: &Segs,
    fin: &Fp16Finish<'_>,
    out: &mut [f32],
    out_stride: usize,
) {
    check_finish::<R>(grp, fin, out, out_stride);
    let mut scales = [0u16; LUT_LANES];
    scales[..grp.lanes].copy_from_slice(&fin.scales[..grp.lanes]);
    let mut part = [[0f32; LUT_LANES]; R];
    match body {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fold_on`.
        LutBody::Avx512 => unsafe { avx512_fold_fp16(tables, grp, segs, &scales, fin.c2, &mut part) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fold_on`.
        LutBody::Avx2 => unsafe { avx2_fold_fp16(tables, grp, segs, &scales, fin.c2, &mut part) },
        _ => {
            for (r, p) in part.iter_mut().enumerate() {
                let acc = scalar_group(tables[r], grp);
                for l in 0..grp.lanes {
                    p[l] = scalar_finish_fp16(acc.sig[l], acc.exp[l], scales[l], fin.c2);
                }
            }
        }
    }
    for (r, p) in part.iter().enumerate() {
        for (o, v) in out[r * out_stride..r * out_stride + grp.lanes].iter_mut().zip(p) {
            *o += v;
        }
    }
}

/// Every live lane of one row through [`scalar_fold`].
fn scalar_group(table: &[i32], grp: &LutGroup<'_>) -> LutAcc {
    let mut acc = LutAcc::ZERO;
    for l in 0..grp.lanes {
        let codes = &grp.codes[l * grp.stride..l * grp.stride + grp.depth / 2];
        (acc.sig[l], acc.exp[l]) = scalar_fold(table, grp.bases[l], codes);
    }
    acc
}

/// The scalar reference fold of one lane: the sequential-branch form of
/// the partial adder over `codes` byte by byte (low nibble = even
/// k-step), looking up k-step `s`, nibble `c` at `table[base + 16 s + c]`.
/// Returns `(sig, exp)`.
///
/// # Panics
///
/// Panics if `base + 32 · codes.len()` reaches past `table.len()`.
pub fn scalar_fold(table: &[i32], base: usize, codes: &[u8]) -> (i32, i32) {
    let (mut sig, mut exp) = (0i32, 0i32);
    for (bi, &byte) in codes.iter().enumerate() {
        for (half, c) in [(0, byte as usize & 0xf), (1, byte as usize >> 4)] {
            let e = table[base + (2 * bi + half) * 16 + c];
            let (pexp, pinc) = (e >> 16, (e as i16) as i32);
            if sig == 0 {
                if pinc != 0 {
                    exp = pexp;
                    sig = pinc;
                }
                continue;
            }
            if pexp <= exp {
                // Entry exponents are < 256, so gaps fit a u32 shift
                // only after clamping like the wide fold.
                sig += pinc >> (exp - pexp).min(31);
            } else {
                sig = (sig >> (pexp - exp).min(31)) + pinc;
                exp = pexp;
            }
        }
    }
    (sig, exp)
}

/// The scalar reference of the FP16 finish: `NormUnit::normalize` of the
/// partial `(sig, exp)` into FP16 (round to nearest even, saturate, flush
/// below the normal range), AxScale's `fpma_mul` by the FP16 scale with
/// compensation `c2`, and the exact FP16 → f32 widening of the result
/// (always zero or a finite normal).
pub fn scalar_finish_fp16(sig: i32, exp: i32, scale: u16, c2: i32) -> f32 {
    let o = if sig == 0 {
        0
    } else {
        let sign = if sig < 0 { 0x8000 } else { 0 };
        let a = sig.unsigned_abs();
        let p = 31 - a.leading_zeros() as i32;
        let drop = p - FP16_MAN;
        let (r, carried) = if drop > 0 {
            let floor = a >> drop;
            let rem = a & ((1 << drop) - 1);
            let half = 1 << (drop - 1);
            let r = floor + (rem > half || (rem == half && floor & 1 == 1)) as u32;
            (r, r >> (FP16_MAN + 1) != 0)
        } else {
            (a << -drop, false)
        };
        let e = exp + p - FP16_FRAC + carried as i32;
        if e <= 0 {
            sign
        } else if e > FP16_MAX_EXP {
            sign | FP16_MAX_MAG
        } else {
            sign | (e as u32) << FP16_MAN | ((r >> carried as u32) & 0x3ff)
        }
    };
    let s = scale as u32;
    let sign = (o ^ s) & 0x8000;
    let h = if o & 0x7fff == 0 || s & 0x7fff == 0 {
        sign
    } else {
        let r = (o & 0x7fff) as i32 + (s & 0x7fff) as i32 - FP16_BIAS_UNITS + c2;
        sign | if r < 1 << FP16_MAN { 0 } else { r.min(FP16_MAX_MAG as i32) as u32 }
    };
    let mag = h & 0x7fff;
    let bits = if mag == 0 { 0 } else { ((mag >> 10) + 112) << 23 | (mag & 0x3ff) << 13 };
    f32::from_bits((h & 0x8000) << 16 | bits)
}

/// FP16 mantissa bits.
const FP16_MAN: i32 = 10;
/// Fraction bits of the partial accumulator for FP16 (`man_bits + 2`).
const FP16_FRAC: i32 = 12;
/// Largest finite FP16 exponent field.
const FP16_MAX_EXP: i32 = 30;
/// Largest finite FP16 magnitude pattern.
const FP16_MAX_MAG: u32 = 0x7bff;
/// The FP16 bias in magnitude-pattern units (`15 << 10`).
const FP16_BIAS_UNITS: i32 = 15 << 10;

/// AVX-512 fold of one group for `R` rows, accumulator lanes left in
/// registers: per 16-step code block, the tile's code words are decoded
/// once into two u32 vectors; per k-step and row, the row's 16-entry
/// table row (one zmm per segment) is permuted by the nibbles — one
/// `vpermd` for a single-unit tile, one masked `vpermd` per further unit
/// — and folded into the row's `(sig, exp)` lanes. The permute reads only
/// the low four index bits, so each step costs one `srli`.
///
/// Bit-identity with [`scalar_fold`]: `vpsravd` fills with sign bits for
/// shift counts ≥ 32, the `.min(31)` clamp's result for i32 values (the
/// engine bounds the running sum below 2^31). An empty lane carries
/// exponent [`DEAD`], so the next add shifts its zero significand out and
/// anchors on the entry (`max(DEAD, pexp) = pexp`) exactly like the
/// scalar re-anchor; a sum of zero (cancellation, or a zero entry on an
/// empty lane) resets the exponent to `DEAD`, which only differs from
/// the scalar state in a field nothing reads while `sig == 0`.
///
/// # Safety
///
/// AVX-512F and AVX-512BW must be available and `segs` must come from
/// [`check_group`] on `(tables, grp)`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_fold_regs<const R: usize, const MULTI: bool>(
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    segs: &Segs,
) -> ([std::arch::x86_64::__m512i; R], [std::arch::x86_64::__m512i; R]) {
    use std::arch::x86_64::*;
    let dead = _mm512_set1_epi32(DEAD);
    let zero = _mm512_setzero_si512();
    // Entry split without the shift port: `vpshufb` moves the exponent
    // half down (zero-extended; exponents are ≤ 255), and `vpmaddwd`
    // against (1, 0) word pairs sign-extends the increment half.
    let hi_half = _mm512_set4_epi32(
        0x8080_0f0eu32 as i32,
        0x8080_0b0au32 as i32,
        0x8080_0706u32 as i32,
        0x8080_0302u32 as i32,
    );
    let lo_one = _mm512_set1_epi32(1);
    let mut sig = [zero; R];
    let mut exp = [dead; R];
    for blk in 0..grp.depth / 16 {
        let (lo, hi) = code_words::<LUT_LANES>(grp, 0, blk);
        for (half, words) in [lo, hi].iter().enumerate() {
            let mut w = _mm512_loadu_si512(words.as_ptr().cast());
            for step in 0..8 {
                let row = (blk * 16 + half * 8 + step) * 16;
                for r in 0..R {
                    let t = tables[r].as_ptr().add(row);
                    let mut e = _mm512_permutexvar_epi32(w, _mm512_loadu_si512(t.add(segs.base[0]).cast()));
                    if MULTI {
                        for j in 1..segs.n {
                            let tr = _mm512_loadu_si512(t.add(segs.base[j]).cast());
                            e = _mm512_mask_permutexvar_epi32(e, segs.mask[j], w, tr);
                        }
                    }
                    let pexp = _mm512_shuffle_epi8(e, hi_half);
                    let pinc = _mm512_madd_epi16(e, lo_one);
                    let anchor = _mm512_max_epi32(exp[r], pexp);
                    let sum = _mm512_add_epi32(
                        _mm512_srav_epi32(sig[r], _mm512_sub_epi32(anchor, exp[r])),
                        _mm512_srav_epi32(pinc, _mm512_sub_epi32(anchor, pexp)),
                    );
                    exp[r] = _mm512_mask_blend_epi32(_mm512_cmpeq_epi32_mask(sum, zero), anchor, dead);
                    sig[r] = sum;
                }
                w = _mm512_srli_epi32::<4>(w);
            }
        }
    }
    (sig, exp)
}

/// [`avx512_fold_regs`] with the single-unit specialization chosen from
/// `segs`.
///
/// # Safety
///
/// As [`avx512_fold_regs`].
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_fold_any<const R: usize>(
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    segs: &Segs,
) -> ([std::arch::x86_64::__m512i; R], [std::arch::x86_64::__m512i; R]) {
    if segs.n == 1 {
        avx512_fold_regs::<R, false>(tables, grp, segs)
    } else {
        avx512_fold_regs::<R, true>(tables, grp, segs)
    }
}

/// [`lut_fold`]'s AVX-512 body.
///
/// # Safety
///
/// As [`avx512_fold_regs`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_fold<const R: usize>(tables: &[&[i32]; R], grp: &LutGroup<'_>, segs: &Segs) -> [LutAcc; R] {
    use std::arch::x86_64::*;
    let (sig, exp) = avx512_fold_any(tables, grp, segs);
    let mut out = [LutAcc::ZERO; R];
    for (o, (s, e)) in out.iter_mut().zip(sig.iter().zip(&exp)) {
        _mm512_storeu_si512(o.sig.as_mut_ptr().cast(), *s);
        let e = _mm512_max_epi32(*e, _mm512_setzero_si512());
        _mm512_storeu_si512(o.exp.as_mut_ptr().cast(), e);
    }
    out
}

/// [`scalar_finish_fp16`] in 16 lanes: normalize `(sig, exp)` to FP16,
/// FPMA-multiply by the lane's FP16 scale and widen to f32 with
/// `vcvtph2ps`.
///
/// Normalization: the leading-one position `p` comes from the exact
/// `|sig| → f32` exponent, stepped back when the conversion rounded up
/// to the next power of two; shifting `|sig|` left by `30 − p` puts that
/// one at bit 30, so rounding to the 11-bit significand is a fixed
/// round-half-even shift by 20 whose carry (a result of 2^11) bumps the
/// exponent. Every intermediate fits u32.
///
/// # Safety
///
/// AVX-512F and AVX-512BW must be available.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_finish_fp16(
    sig: std::arch::x86_64::__m512i,
    exp: std::arch::x86_64::__m512i,
    scale: std::arch::x86_64::__m512i,
    c2: i32,
) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi32(1);
    let neg = _mm512_cmplt_epi32_mask(sig, zero);
    let a = _mm512_abs_epi32(sig);
    let p0 = _mm512_sub_epi32(
        _mm512_srli_epi32::<23>(_mm512_castps_si512(_mm512_cvtepi32_ps(a))),
        _mm512_set1_epi32(127),
    );
    let over = _mm512_cmpeq_epi32_mask(_mm512_srlv_epi32(a, p0), zero);
    let p = _mm512_mask_sub_epi32(p0, over, p0, one);
    let an = _mm512_sllv_epi32(a, _mm512_sub_epi32(_mm512_set1_epi32(30), p));
    let odd = _mm512_and_si512(_mm512_srli_epi32::<20>(an), one);
    let r = _mm512_srli_epi32::<20>(_mm512_add_epi32(an, _mm512_add_epi32(_mm512_set1_epi32((1 << 19) - 1), odd)));
    let carry = _mm512_srli_epi32::<11>(r);
    let man = _mm512_and_si512(r, _mm512_set1_epi32(0x3ff));
    let e = _mm512_add_epi32(_mm512_add_epi32(exp, p), _mm512_sub_epi32(carry, _mm512_set1_epi32(FP16_FRAC)));
    let sign16 = _mm512_maskz_mov_epi32(neg, _mm512_set1_epi32(0x8000));
    let bits = _mm512_or_si512(sign16, _mm512_or_si512(_mm512_slli_epi32::<10>(e), man));
    let sat = _mm512_or_si512(sign16, _mm512_set1_epi32(FP16_MAX_MAG as i32));
    let bits = _mm512_mask_blend_epi32(_mm512_cmpgt_epi32_mask(e, _mm512_set1_epi32(FP16_MAX_EXP)), bits, sat);
    let bits = _mm512_mask_blend_epi32(_mm512_cmple_epi32_mask(e, zero), bits, sign16);
    let bits = _mm512_maskz_mov_epi32(_mm512_cmpneq_epi32_mask(sig, zero), bits);
    let mag_mask = _mm512_set1_epi32(0x7fff);
    let sgn = _mm512_and_si512(_mm512_xor_si512(bits, scale), _mm512_set1_epi32(0x8000));
    let om = _mm512_and_si512(bits, mag_mask);
    let sm = _mm512_and_si512(scale, mag_mask);
    let rr = _mm512_min_epi32(
        _mm512_add_epi32(_mm512_add_epi32(om, sm), _mm512_set1_epi32(c2 - FP16_BIAS_UNITS)),
        _mm512_set1_epi32(FP16_MAX_MAG as i32),
    );
    let live = _mm512_cmpge_epi32_mask(rr, _mm512_set1_epi32(1 << FP16_MAN))
        & _mm512_cmpneq_epi32_mask(om, zero)
        & _mm512_cmpneq_epi32_mask(sm, zero);
    let h = _mm512_or_si512(_mm512_maskz_mov_epi32(live, rr), sgn);
    _mm512_cvtph_ps(_mm512_cvtepi32_epi16(h))
}

/// [`lut_fold_fp16`]'s AVX-512 body: the fold, then the in-lane finish
/// per row into `part[r]`.
///
/// # Safety
///
/// As [`avx512_fold_regs`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_fold_fp16<const R: usize>(
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    segs: &Segs,
    scales: &[u16; LUT_LANES],
    c2: i32,
    part: &mut [[f32; LUT_LANES]; R],
) {
    use std::arch::x86_64::*;
    let (sig, exp) = avx512_fold_any(tables, grp, segs);
    let scale = _mm512_cvtepu16_epi32(_mm256_loadu_si256(scales.as_ptr().cast()));
    for (p, (s, e)) in part.iter_mut().zip(sig.iter().zip(&exp)) {
        _mm512_storeu_ps(p.as_mut_ptr(), avx512_finish_fp16(*s, *e, scale, c2));
    }
}

/// AVX2 fold of one eight-lane half (`lanes 8·half ..`) of a group for
/// `R` rows. The same fold as [`avx512_fold_regs`], with the lookup done
/// on the two ymm halves of each 16-entry table row: `vpermd` reads the
/// low three index bits of each, and a blend on nibble bit 3 (moved to
/// the sign by `slli 28`) picks the half. Segments present in this half
/// after the first are blended over it by lane mask.
///
/// # Safety
///
/// AVX2 must be available and `segs` must come from [`check_group`] on
/// `(tables, grp)`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn avx2_fold_regs<const R: usize>(
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    segs: &Segs,
    half: usize,
) -> ([std::arch::x86_64::__m256i; R], [std::arch::x86_64::__m256i; R]) {
    use std::arch::x86_64::*;
    let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let mut base = [0usize; LUT_LANES];
    let mut mask = [_mm256_setzero_si256(); LUT_LANES];
    let mut n = 0;
    for j in 0..segs.n {
        let bits = (segs.mask[j] >> (8 * half)) & 0xff;
        if bits != 0 {
            base[n] = segs.base[j];
            let b = _mm256_set1_epi32(bits as i32);
            mask[n] = _mm256_cmpeq_epi32(_mm256_and_si256(b, lane_bits), lane_bits);
            n += 1;
        }
    }
    let dead = _mm256_set1_epi32(DEAD);
    let zero = _mm256_setzero_si256();
    // `vpmaddwd` against (1, 0) word pairs sign-extends the increment.
    let lo_one = _mm256_set1_epi32(1);
    let mut sig = [zero; R];
    let mut exp = [dead; R];
    for blk in 0..grp.depth / 16 {
        let (lo, hi) = code_words::<8>(grp, 8 * half, blk);
        for (h, words) in [lo, hi].iter().enumerate() {
            let mut w = _mm256_loadu_si256(words.as_ptr().cast());
            for step in 0..8 {
                let row = (blk * 16 + h * 8 + step) * 16;
                let sel = _mm256_castsi256_ps(_mm256_slli_epi32::<28>(w));
                for r in 0..R {
                    let t = tables[r].as_ptr().add(row);
                    let mut e = avx2_lookup(t.add(base[0]), w, sel);
                    for j in 1..n {
                        e = _mm256_blendv_epi8(e, avx2_lookup(t.add(base[j]), w, sel), mask[j]);
                    }
                    let pexp = _mm256_srai_epi32::<16>(e);
                    let pinc = _mm256_madd_epi16(e, lo_one);
                    let anchor = _mm256_max_epi32(exp[r], pexp);
                    let sum = _mm256_add_epi32(
                        _mm256_srav_epi32(sig[r], _mm256_sub_epi32(anchor, exp[r])),
                        _mm256_srav_epi32(pinc, _mm256_sub_epi32(anchor, pexp)),
                    );
                    exp[r] = _mm256_blendv_epi8(anchor, dead, _mm256_cmpeq_epi32(sum, zero));
                    sig[r] = sum;
                }
                w = _mm256_srli_epi32::<4>(w);
            }
        }
    }
    (sig, exp)
}

/// One 16-entry table row at `t` looked up by the eight nibbles in the
/// low bits of `w`: `vpermd` on each ymm half of the row, and `sel`
/// (nibble bit 3 in each lane's sign) picks the half.
///
/// # Safety
///
/// AVX2 must be available and `t .. t + 16` must be readable.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn avx2_lookup(
    t: *const i32,
    w: std::arch::x86_64::__m256i,
    sel: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let lo = _mm256_permutevar8x32_epi32(_mm256_loadu_si256(t.cast()), w);
    let hi = _mm256_permutevar8x32_epi32(_mm256_loadu_si256(t.add(8).cast()), w);
    _mm256_castps_si256(_mm256_blendv_ps(_mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi), sel))
}

/// The eight-lane halves a tile of `lanes` live lanes needs.
fn halves(lanes: usize) -> usize {
    lanes.div_ceil(8)
}

/// [`lut_fold`]'s AVX2 body.
///
/// # Safety
///
/// As [`avx2_fold_regs`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_fold<const R: usize>(tables: &[&[i32]; R], grp: &LutGroup<'_>, segs: &Segs) -> [LutAcc; R] {
    use std::arch::x86_64::*;
    let mut out = [LutAcc::ZERO; R];
    for half in 0..halves(grp.lanes) {
        let (sig, exp) = avx2_fold_regs(tables, grp, segs, half);
        for (o, (s, e)) in out.iter_mut().zip(sig.iter().zip(&exp)) {
            _mm256_storeu_si256(o.sig.as_mut_ptr().add(8 * half).cast(), *s);
            let e = _mm256_max_epi32(*e, _mm256_setzero_si256());
            _mm256_storeu_si256(o.exp.as_mut_ptr().add(8 * half).cast(), e);
        }
    }
    out
}

/// [`avx512_finish_fp16`] in eight AVX2 lanes; masks are lane vectors
/// and the FP16 narrowing is `vpackusdw` ahead of F16C's `vcvtph2ps`.
///
/// # Safety
///
/// AVX2 and F16C must be available.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,f16c")]
unsafe fn avx2_finish_fp16(
    sig: std::arch::x86_64::__m256i,
    exp: std::arch::x86_64::__m256i,
    scale: std::arch::x86_64::__m256i,
    c2: i32,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_si256();
    let one = _mm256_set1_epi32(1);
    let neg = _mm256_cmpgt_epi32(zero, sig);
    let a = _mm256_abs_epi32(sig);
    let p0 = _mm256_sub_epi32(
        _mm256_srli_epi32::<23>(_mm256_castps_si256(_mm256_cvtepi32_ps(a))),
        _mm256_set1_epi32(127),
    );
    // All-ones (−1) where the conversion rounded up a power of two.
    let over = _mm256_cmpeq_epi32(_mm256_srlv_epi32(a, p0), zero);
    let p = _mm256_add_epi32(p0, over);
    let an = _mm256_sllv_epi32(a, _mm256_sub_epi32(_mm256_set1_epi32(30), p));
    let odd = _mm256_and_si256(_mm256_srli_epi32::<20>(an), one);
    let r = _mm256_srli_epi32::<20>(_mm256_add_epi32(an, _mm256_add_epi32(_mm256_set1_epi32((1 << 19) - 1), odd)));
    let carry = _mm256_srli_epi32::<11>(r);
    let man = _mm256_and_si256(r, _mm256_set1_epi32(0x3ff));
    let e = _mm256_add_epi32(_mm256_add_epi32(exp, p), _mm256_sub_epi32(carry, _mm256_set1_epi32(FP16_FRAC)));
    let sign16 = _mm256_and_si256(neg, _mm256_set1_epi32(0x8000));
    let bits = _mm256_or_si256(sign16, _mm256_or_si256(_mm256_slli_epi32::<10>(e), man));
    let sat = _mm256_or_si256(sign16, _mm256_set1_epi32(FP16_MAX_MAG as i32));
    let bits = _mm256_blendv_epi8(bits, sat, _mm256_cmpgt_epi32(e, _mm256_set1_epi32(FP16_MAX_EXP)));
    let bits = _mm256_blendv_epi8(bits, sign16, _mm256_cmpgt_epi32(one, e));
    let bits = _mm256_andnot_si256(_mm256_cmpeq_epi32(sig, zero), bits);
    let mag_mask = _mm256_set1_epi32(0x7fff);
    let sgn = _mm256_and_si256(_mm256_xor_si256(bits, scale), _mm256_set1_epi32(0x8000));
    let om = _mm256_and_si256(bits, mag_mask);
    let sm = _mm256_and_si256(scale, mag_mask);
    let rr = _mm256_min_epi32(
        _mm256_add_epi32(_mm256_add_epi32(om, sm), _mm256_set1_epi32(c2 - FP16_BIAS_UNITS)),
        _mm256_set1_epi32(FP16_MAX_MAG as i32),
    );
    let flush = _mm256_or_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(1 << FP16_MAN), rr),
        _mm256_or_si256(_mm256_cmpeq_epi32(om, zero), _mm256_cmpeq_epi32(sm, zero)),
    );
    let h = _mm256_or_si256(_mm256_andnot_si256(flush, rr), sgn);
    let h16 = _mm_packus_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
    _mm256_cvtph_ps(h16)
}

/// [`lut_fold_fp16`]'s AVX2 body.
///
/// # Safety
///
/// As [`avx2_fold_regs`], with F16C available too.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn avx2_fold_fp16<const R: usize>(
    tables: &[&[i32]; R],
    grp: &LutGroup<'_>,
    segs: &Segs,
    scales: &[u16; LUT_LANES],
    c2: i32,
    part: &mut [[f32; LUT_LANES]; R],
) {
    use std::arch::x86_64::*;
    for half in 0..halves(grp.lanes) {
        let (sig, exp) = avx2_fold_regs(tables, grp, segs, half);
        let scale = _mm256_cvtepu16_epi32(_mm_loadu_si128(scales.as_ptr().add(8 * half).cast()));
        for (p, (s, e)) in part.iter_mut().zip(sig.iter().zip(&exp)) {
            _mm256_storeu_ps(p.as_mut_ptr().add(8 * half), avx2_finish_fp16(*s, *e, scale, c2));
        }
    }
}


/// The offset the W4A8 weight plane stores codes at: `wu = wint +
/// WU_OFFSET ∈ [0, 128]` keeps every `|wint| ≤ 64` unsigned for
/// `vpmaddubsw` and under its no-saturation bound.
pub const WU_OFFSET: i32 = 64;

/// One activation row in the Q8 form the W4A8 tile kernel reads,
/// quantized once per GEMM call by the engine.
#[derive(Debug, Clone, Copy)]
pub struct Q8Act<'a> {
    /// Signed 8-bit codes `qa ∈ [-127, 127]`, `k` of them (a whole
    /// number of 32-blocks).
    pub codes: &'a [i8],
    /// Per-block scales `d`, widened from f32 to f64 once per row.
    pub scales: &'a [f64],
    /// Per-block compensation sums `Σ qa`.
    pub sums: &'a [i32],
}

/// Adjacent output columns of a W4A8 weight matrix: offset codes plus
/// the folded per-group weight scales.
#[derive(Debug, Clone, Copy)]
pub struct W4Cols<'a> {
    /// Offset integer codes `wu = wint + 64 ∈ [0, 128]`, column-major:
    /// column `l`'s `k` codes are `wu[l·k .. (l+1)·k]`.
    pub wu: &'a [u8],
    /// Folded weight scales: column `l` of group `g` is
    /// `wscale[g · wscale_stride + l]`.
    pub wscale: &'a [f64],
    /// Distance between consecutive groups' entries in `wscale`.
    pub wscale_stride: usize,
    /// 32-blocks per weight group.
    pub blocks_per_group: usize,
}

/// The W4A8 fold-order contract for one output column, shared by every
/// rung: for each group in ascending order, `gacc` starts at `0.0_f64`
/// and takes, per block in ascending order, `dot(b) as f64 · scales[b]`
/// as an f64 multiply followed by a separate f64 add (never an FMA);
/// the group total is multiplied by `wscale(g)`, cast to f32, and added
/// to an f32 accumulator that starts at `0.0`. `dot(b)` is the block's
/// exact integer dot `Σ wint · qa`.
#[inline]
pub fn w4a8_fold(
    scales: &[f64],
    blocks_per_group: usize,
    mut wscale: impl FnMut(usize) -> f64,
    mut dot: impl FnMut(usize) -> i32,
) -> f32 {
    let mut acc = 0f32;
    for (g, ds) in scales.chunks_exact(blocks_per_group).enumerate() {
        let mut gacc = 0f64;
        for (j, &d) in ds.iter().enumerate() {
            gacc += dot(g * blocks_per_group + j) as f64 * d;
        }
        acc += (gacc * wscale(g)) as f32;
    }
    acc
}

/// Shape contract shared by the W4A8 tile entry points; panics on any
/// violation (the AVX2 kernel's raw loads rely on it).
fn check_w4a8_shapes(act: &Q8Act<'_>, w: &W4Cols<'_>, cols: usize) {
    let k = act.codes.len();
    assert!(k.is_multiple_of(32), "activation row of {k} is not whole 32-blocks");
    let blocks = k / 32;
    assert_eq!(act.scales.len(), blocks, "one Q8 scale per block");
    assert_eq!(act.sums.len(), blocks, "one Q8 sum per block");
    assert_eq!(w.wu.len(), cols * k, "weight codes must be {cols} columns of {k}");
    assert!(
        w.blocks_per_group > 0 && blocks.is_multiple_of(w.blocks_per_group),
        "{blocks} blocks are not whole groups of {}",
        w.blocks_per_group
    );
    let groups = blocks / w.blocks_per_group;
    if groups > 0 {
        let end = (groups - 1)
            .checked_mul(w.wscale_stride)
            .and_then(|v| v.checked_add(cols));
        assert!(
            end.is_some_and(|e| e <= w.wscale.len()),
            "weight scales of {} too short for {groups} groups at stride {}",
            w.wscale.len(),
            w.wscale_stride
        );
    }
}

/// One-shot self test of the W4A8 tile kernel: fold a deterministic
/// pattern (saturation-bound codes, a zero block, mixed scales) through
/// both the AVX2 tile and the scalar reference. `true` when every
/// output bit agrees (or when the CPU has no AVX2). Cached; the W4A8
/// tier consults it before trusting the vector rung, mirroring
/// [`self_test`] for the LUT kernel.
pub fn w4a8_tile_self_test() -> bool {
    use std::sync::OnceLock;
    static RESULT: OnceLock<bool> = OnceLock::new();
    *RESULT.get_or_init(|| {
        if !avx2_available() {
            return true;
        }
        let (k, bpg) = (4 * 32, 2);
        let wu: Vec<u8> = (0..8 * k).map(|i| ((i * 37 + 11) % 129) as u8).collect();
        let mut codes: Vec<i8> = (0..k)
            .map(|i| (((i * 2654435761usize) % 255) as i32 - 127) as i8)
            .collect();
        codes[32..64].fill(0);
        let sums: Vec<i32> = codes.chunks(32).map(|b| b.iter().map(|&q| q as i32).sum()).collect();
        let scales = [0.0123f32 as f64, 0.0, 1.75e-3f32 as f64, 3.5f32 as f64];
        let wscale: Vec<f64> = (0..16).map(|i| 0.03125 * (i as f64 + 1.0) - 0.2).collect();
        let act = Q8Act { codes: &codes, scales: &scales, sums: &sums };
        let w = W4Cols { wu: &wu, wscale: &wscale, wscale_stride: 8, blocks_per_group: bpg };
        let mut want = [0f32; 8];
        w4a8_cols_scalar(act, w, &mut want);
        // SAFETY: AVX2 confirmed above; `check_w4a8_shapes` holds for
        // this fixed 8-column, 4-block, 2-group pattern.
        let got = unsafe { avx2_w4a8_tile8(act, w) };
        want.map(f32::to_bits) == got.map(f32::to_bits)
    })
}

/// Eight adjacent output columns of one activation row on the W4A8
/// tier: per 32-block, the exact integer dot of each column's offset
/// codes against the row's Q8 codes, with the `+64` offset folded back
/// out through the block's compensation sum
/// (`Σ wint·qa = Σ wu·qa − 64·Σ qa`), then [`w4a8_fold`]'s scale fold.
///
/// Dispatches to the AVX2 kernel when the CPU supports it and
/// [`w4a8_tile_self_test`] passed, and to [`w4a8_cols_scalar`]
/// otherwise; both give the same bits (the in-crate tests pin this).
///
/// # Panics
///
/// Panics unless `act.codes` is whole 32-blocks with one scale and sum
/// per block, `w.wu` holds eight columns of `k` codes, the groups tile
/// the blocks, and `w.wscale` covers every group's eight entries.
/// Debug builds also assert the `wu ≤ 128` no-saturation bound.
pub fn w4a8_tile8(act: Q8Act<'_>, w: W4Cols<'_>) -> [f32; 8] {
    check_w4a8_shapes(&act, &w, 8);
    debug_assert!(
        w.wu.iter().all(|&x| x <= 128),
        "offset weight codes must stay ≤ 128 (maddubs saturation bound)"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && w4a8_tile_self_test() {
        // SAFETY: AVX2 confirmed at runtime; shapes asserted above.
        return unsafe { avx2_w4a8_tile8(act, w) };
    }
    let mut out = [0f32; 8];
    w4a8_cols_scalar(act, w, &mut out);
    out
}

/// Scalar reference for [`w4a8_tile8`] over any number of columns
/// (`out.len()`): one column at a time, each block's integer dot
/// summed element by element, folded by [`w4a8_fold`]. Serves non-AVX2
/// hosts, column remainders and the self test.
///
/// # Panics
///
/// Panics on the shape violations [`w4a8_tile8`] lists, with
/// `out.len()` columns in place of eight.
pub fn w4a8_cols_scalar(act: Q8Act<'_>, w: W4Cols<'_>, out: &mut [f32]) {
    check_w4a8_shapes(&act, &w, out.len());
    let k = act.codes.len();
    for (l, o) in out.iter_mut().enumerate() {
        let col = &w.wu[l * k..(l + 1) * k];
        *o = w4a8_fold(
            act.scales,
            w.blocks_per_group,
            |g| w.wscale[g * w.wscale_stride + l],
            |b| {
                let r = b * 32..(b + 1) * 32;
                let dot: i32 = col[r.clone()]
                    .iter()
                    .zip(&act.codes[r])
                    .map(|(&wu, &qa)| wu as i32 * qa as i32)
                    .sum();
                dot - WU_OFFSET * act.sums[b]
            },
        );
    }
}

/// [`w4a8_tile8`] in AVX2. Per 32-block: one load of the row's codes,
/// then per column a load of its codes, `vpmaddubsw` (u8 × i8 →
/// adjacent-pair i16 sums) and `vpmaddwd` against ones (→ eight i32
/// partials). A `vphaddd` transpose-reduce (two levels within each
/// 128-bit half, then a cross-half add) leaves one vector holding the
/// eight columns' block dots; the `64·Σ qa` offset comes off, and the
/// dots convert to two f64×4 halves that fold exactly like
/// [`w4a8_fold`]: `mul` then a separate `add` per block, `× wscale` per
/// group, `cvtpd2ps`, and an f32 add.
///
/// Exactness: the caller keeps `wu ≤ 128`, so each adjacent pair is
/// bounded by `2 · 128 · 127 = 32512 < 2^15` and `vpmaddubsw` never
/// saturates; every integer step after it is exact i32 addition
/// (block dots stay under `32 · 128 · 127`), so the reduction order
/// cannot change a dot. The float steps are the same IEEE operations,
/// in the same order, as the scalar fold of each lane.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and that
/// [`check_w4a8_shapes`] holds for `(act, w, 8)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_w4a8_tile8(act: Q8Act<'_>, w: W4Cols<'_>) -> [f32; 8] {
    use std::arch::x86_64::*;
    let k = act.codes.len();
    let bpg = w.blocks_per_group;
    let ones = _mm256_set1_epi16(1);
    let ap = act.codes.as_ptr();
    let wp = w.wu.as_ptr();
    let mut acc = _mm256_setzero_ps();
    for g in 0..act.scales.len() / bpg {
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        for b in g * bpg..(g + 1) * bpg {
            let av = _mm256_loadu_si256(ap.add(b * 32) as *const __m256i);
            let part = |l: usize| {
                let wv = _mm256_loadu_si256(wp.add(l * k + b * 32) as *const __m256i);
                _mm256_madd_epi16(_mm256_maddubs_epi16(wv, av), ones)
            };
            let h01 = _mm256_hadd_epi32(part(0), part(1));
            let h23 = _mm256_hadd_epi32(part(2), part(3));
            let h45 = _mm256_hadd_epi32(part(4), part(5));
            let h67 = _mm256_hadd_epi32(part(6), part(7));
            // Per 128-bit half: [c0, c1, c2, c3] partial dots over that
            // half's 16 bytes (and [c4..c7] for the second pair).
            let h0123 = _mm256_hadd_epi32(h01, h23);
            let h4567 = _mm256_hadd_epi32(h45, h67);
            let dots = _mm256_add_epi32(
                _mm256_permute2x128_si256::<0x20>(h0123, h4567),
                _mm256_permute2x128_si256::<0x31>(h0123, h4567),
            );
            let dots = _mm256_sub_epi32(dots, _mm256_set1_epi32(WU_OFFSET * act.sums[b]));
            let d = _mm256_set1_pd(act.scales[b]);
            let dlo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(dots));
            let dhi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(dots));
            lo = _mm256_add_pd(lo, _mm256_mul_pd(dlo, d));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(dhi, d));
        }
        let ws = w.wscale.as_ptr().add(g * w.wscale_stride);
        let flo = _mm256_cvtpd_ps(_mm256_mul_pd(lo, _mm256_loadu_pd(ws)));
        let fhi = _mm256_cvtpd_ps(_mm256_mul_pd(hi, _mm256_loadu_pd(ws.add(4))));
        acc = _mm256_add_ps(acc, _mm256_set_m128(fhi, flo));
    }
    let mut out = [0f32; 8];
    _mm256_storeu_ps(out.as_mut_ptr(), acc);
    out
}


#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the tests need no external RNG crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Build a table whose entries look like real prepared products:
    /// FP16-ish exponents (0..=30), increments that fit 13 bits, with a
    /// sprinkling (20%) of exact-zero entries to exercise the re-anchor
    /// path.
    fn random_table(rng: &mut Rng, len: usize) -> Vec<i32> {
        (0..len)
            .map(|_| {
                let r = rng.next();
                if r.is_multiple_of(5) {
                    return 0;
                }
                let exp = (r >> 8) % 31;
                let inc = ((r >> 16) % 8191) as i32 - 4095;
                ((exp as i32) << 16) | (inc & 0xffff)
            })
            .collect()
    }

    /// The bodies this host can run, scalar reference last.
    fn bodies() -> Vec<LutBody> {
        LutBody::ALL.into_iter().filter(|b| b.runnable()).collect()
    }

    /// One random kernel call at row block `R`: every runnable body, the
    /// dispatching entry points and the per-lane scalar reference must
    /// agree on the raw state and on the finished output bits.
    fn check_random_call<const R: usize>(rng: &mut Rng, what: &str) {
        let depth = 16 << (rng.next() % 5); // 16..=256 k-steps
        let units = 1 + (rng.next() % 3) as usize;
        let lanes = 1 + (rng.next() % LUT_LANES as u64) as usize;
        let unit_len = depth * 16;
        let store: Vec<Vec<i32>> = (0..R).map(|_| random_table(rng, units * unit_len)).collect();
        let tables: [&[i32]; R] = std::array::from_fn(|r| &store[r][..]);
        // Lanes sit in runs of one unit, like block columns of 1..=8.
        let run = 1 << (rng.next() % 4);
        let first = rng.next() as usize;
        let bases = std::array::from_fn(|l| (first + l / run) % units * unit_len);
        let stride = depth / 2 + (rng.next() % 3) as usize;
        let codes: Vec<u8> = (0..lanes * stride).map(|_| rng.next() as u8).collect();
        let grp = LutGroup { codes: &codes, stride, lanes, depth, bases };
        let scales: Vec<u16> = (0..lanes)
            .map(|_| match rng.next() % 8 {
                0 => 0,
                1 => 0x8000,
                _ => (0x1c00 + (rng.next() % 0x2800) as u16) | (rng.next() as u16 & 0x8000),
            })
            .collect();
        let fin = Fp16Finish { scales: &scales, c2: (rng.next() % 64) as i32 - 32 };
        let what = format!("{what}: R {R}, depth {depth}, units {units}, lanes {lanes}, run {run}");

        let want: [LutAcc; R] = std::array::from_fn(|r| {
            let mut acc = LutAcc::ZERO;
            for l in 0..lanes {
                let seg = &codes[l * stride..l * stride + depth / 2];
                (acc.sig[l], acc.exp[l]) = scalar_fold(tables[r], bases[l], seg);
            }
            acc
        });
        let stride_out = lanes + 3;
        let mut want_out: Vec<f32> = (0..R * stride_out).map(|i| i as f32 * 0.25 - 3.0).collect();
        for r in 0..R {
            for l in 0..lanes {
                want_out[r * stride_out + l] +=
                    scalar_finish_fp16(want[r].sig[l], want[r].exp[l], scales[l], fin.c2);
            }
        }
        let init: Vec<f32> = (0..R * stride_out).map(|i| i as f32 * 0.25 - 3.0).collect();

        let segs = check_group(&tables, &grp);
        let mut runs: Vec<(String, [LutAcc; R], Vec<f32>)> = Vec::new();
        for b in bodies() {
            let mut out = init.clone();
            // SAFETY: `bodies` yields runnable bodies only; `segs` came
            // from `check_group` on these arguments.
            let acc = unsafe {
                finish_on(b, &tables, &grp, &segs, &fin, &mut out, stride_out);
                fold_on(b, &tables, &grp, &segs)
            };
            runs.push((b.name().into(), acc, out));
        }
        let mut out = init.clone();
        lut_fold_fp16(&tables, &grp, &fin, &mut out, stride_out);
        runs.push(("dispatch".into(), lut_fold(&tables, &grp), out));
        for (name, acc, out) in &runs {
            for r in 0..R {
                assert!(same_state(&acc[r], &want[r], lanes), "{name} raw state, row {r}, {what}");
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out), bits(&want_out), "{name} finished output, {what}");
        }
    }

    /// Three-way bit identity (AVX-512 body, AVX2 body, scalar
    /// reference — each where the host can run it) over random tables
    /// with 20% zero entries, 1–3 units per tile, 1–16 lanes, row blocks
    /// of 1–8 and group depths of 16–256.
    #[test]
    fn vector_and_scalar_folds_are_bit_identical() {
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for trial in 0..40 {
            let what = format!("trial {trial}");
            check_random_call::<1>(&mut rng, &what);
            check_random_call::<2>(&mut rng, &what);
            check_random_call::<3>(&mut rng, &what);
            check_random_call::<4>(&mut rng, &what);
            check_random_call::<5>(&mut rng, &what);
            check_random_call::<6>(&mut rng, &what);
            check_random_call::<7>(&mut rng, &what);
            check_random_call::<8>(&mut rng, &what);
        }
    }

    /// A fold whose running sum cancels to exactly zero mid-group must
    /// re-anchor on the next non-zero entry, and zero entries on an
    /// empty lane must leave it empty — on every body.
    #[test]
    fn mid_fold_cancellation_reanchors_like_the_reference() {
        let depth = 32;
        // Row s of the table: code 1 is +inc at exponent 20 and code 2
        // its exact negation (inc is shared by rows 2j and 2j + 1), code
        // 3 a small entry at exponent 5, code 0 zero.
        let mut table = vec![0i32; depth * 16];
        for s in 0..depth {
            let inc = 0x400 + (s / 2) as i32;
            table[s * 16 + 1] = (20 << 16) | (inc & 0xffff);
            table[s * 16 + 2] = (20 << 16) | (-inc & 0xffff);
            table[s * 16 + 3] = (5 << 16) | 0x7ff;
        }
        // Lane patterns (nibble per k-step, low nibble first):
        //  lane 0: +a −a (cancel to zero at k = 1), then small entries;
        //  lane 1: zero entries only (stays empty);
        //  lane 2: zeros, then one small entry (anchors on it);
        //  lane 3: +a −a pairs, cancelling to zero at every odd k.
        let pat: [&dyn Fn(usize) -> u8; 4] = [
            &|s| match s {
                0 => 1,
                1 => 2,
                _ => 3,
            },
            &|_| 0,
            &|s| if s == depth - 1 { 3 } else { 0 },
            &|s| if s % 2 == 0 { 1 } else { 2 },
        ];
        let stride = depth / 2;
        let mut codes = vec![0u8; 4 * stride];
        for (l, f) in pat.iter().enumerate() {
            for s in 0..depth {
                codes[l * stride + s / 2] |= f(s) << (4 * (s % 2));
            }
        }
        let grp = LutGroup { codes: &codes, stride, lanes: 4, depth, bases: [0; LUT_LANES] };
        let tables = [&table[..]];
        let segs = check_group(&tables, &grp);
        // SAFETY (both calls): `bodies` yields runnable bodies only, and
        // `segs` came from `check_group` on these arguments.
        let want = unsafe { fold_on(LutBody::Scalar, &tables, &grp, &segs) }[0];
        assert_eq!(want.sig[1], 0, "zero entries leave an empty lane empty");
        assert_ne!(want.sig[0], 0, "lane 0 re-anchored after cancelling");
        assert_eq!(want.exp[0], 5, "lane 0 re-anchored on the small entries");
        assert_eq!((want.sig[2], want.exp[2]), (0x7ff, 5), "lane 2 anchors on its one entry");
        for b in bodies() {
            // SAFETY: as above.
            let got = unsafe { fold_on(b, &tables, &grp, &segs) }[0];
            assert!(same_state(&got, &want, 4), "{}: {got:?} vs {want:?}", b.name());
        }
    }

    /// A tile carved out of one contiguous plane shard (lane `l` at
    /// `l · stride`, the group segment at a common offset) equals
    /// per-lane scalar folds over pre-sliced code segments.
    #[test]
    fn sharded_plane_entry_matches_presliced_codes() {
        let mut rng = Rng(0x1234_5678_9abc_def1);
        let depth = 32usize;
        let table = random_table(&mut rng, 2 * depth * 16);
        let stride = 3 * depth / 2;
        let seg0 = depth / 2; // the group's segment within each plane
        let planes: Vec<u8> = (0..LUT_LANES * stride).map(|_| rng.next() as u8).collect();
        let bases = std::array::from_fn(|l| (l % 2) * depth * 16);
        let grp = LutGroup { codes: &planes[seg0..], stride, lanes: LUT_LANES, depth, bases };
        let got = lut_fold(&[&table[..]], &grp)[0];
        for l in 0..LUT_LANES {
            let seg = &planes[l * stride + seg0..l * stride + seg0 + depth / 2];
            let (sig, exp) = scalar_fold(&table, bases[l], seg);
            assert_eq!(got.sig[l], sig, "sig lane {l}");
            if sig != 0 {
                assert_eq!(got.exp[l], exp, "exp lane {l}");
            }
        }
    }

    #[test]
    fn zero_codes_on_zero_table_stay_zero() {
        let table = vec![0i32; 16 * 16];
        let codes = [0u8; LUT_LANES * 8];
        let grp = LutGroup { codes: &codes, stride: 8, lanes: LUT_LANES, depth: 16, bases: [0; LUT_LANES] };
        let tables = [&table[..], &table[..]];
        for acc in lut_fold(&tables, &grp) {
            assert_eq!(acc.sig, [0; LUT_LANES]);
        }
        let mut out = [-0.0f32; 2 * LUT_LANES];
        let fin = Fp16Finish { scales: &[0x3c00; LUT_LANES], c2: 0 };
        lut_fold_fp16(&tables, &grp, &fin, &mut out, LUT_LANES);
        assert!(out.iter().all(|v| v.to_bits() == 0), "an empty group adds +0.0");
    }

    /// The vector finishes against [`scalar_finish_fp16`] lane by lane,
    /// on the edges of normalization and of the FPMA scale: rounding
    /// ties and carries, saturation, flush to zero, zero and negative
    /// scales, and `|sig|` near 2^31.
    #[test]
    fn finish_bodies_match_scalar_reference_on_edges() {
        let mut rng = Rng(0xF15E_CAFE);
        let mut sigs = vec![0, 1, -1, 0x7ff, 0x800, 0xfff, 0x1fff, 0x2001, 0x2003, -0x2003, i32::MAX, -i32::MAX];
        for p in 11..31 {
            // Ties, ties-to-odd and the all-ones carry just under 2^(p+1).
            let half = 1i32 << (p - 11);
            for v in [(1 << p) | half, (1 << p) | (3 * half), ((1i64 << (p + 1)) - 1) as i32] {
                sigs.extend([v, -v]);
            }
        }
        while sigs.len() % LUT_LANES != 0 || sigs.len() < 512 {
            sigs.push((rng.next() as i32) >> (rng.next() % 31));
        }
        for (c, chunk) in sigs.chunks(LUT_LANES).enumerate() {
            let sig: [i32; LUT_LANES] = std::array::from_fn(|l| chunk[l]);
            let exp: [i32; LUT_LANES] = std::array::from_fn(|_| (rng.next() % 48) as i32 - 8);
            let scale: [u16; LUT_LANES] = std::array::from_fn(|l| match (c + l) % 6 {
                0 => 0,
                1 => 0x8000,
                2 => 0x7bff,
                _ => rng.next() as u16 & 0xfbff,
            });
            let c2 = (rng.next() % 200) as i32 - 100;
            let want: [u32; LUT_LANES] =
                std::array::from_fn(|l| scalar_finish_fp16(sig[l], exp[l], scale[l], c2).to_bits());
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::x86_64::*;
                if LutBody::Avx512.runnable() {
                    let mut got = [0f32; LUT_LANES];
                    // SAFETY: AVX-512F and BW confirmed; every load and store
                    // is of a 16-lane array.
                    unsafe {
                        let f = avx512_finish_fp16(
                            _mm512_loadu_si512(sig.as_ptr().cast()),
                            _mm512_loadu_si512(exp.as_ptr().cast()),
                            _mm512_cvtepu16_epi32(_mm256_loadu_si256(scale.as_ptr().cast())),
                            c2,
                        );
                        _mm512_storeu_ps(got.as_mut_ptr(), f);
                    }
                    assert_eq!(got.map(f32::to_bits), want, "avx512 chunk {c}: {sig:?} {exp:?}");
                }
                if LutBody::Avx2.runnable() {
                    for half in 0..2 {
                        let mut got = [0f32; 8];
                        // SAFETY: AVX2 and F16C confirmed; every load and
                        // store is of an 8-lane half of a 16-lane array.
                        unsafe {
                            let f = avx2_finish_fp16(
                                _mm256_loadu_si256(sig.as_ptr().add(8 * half).cast()),
                                _mm256_loadu_si256(exp.as_ptr().add(8 * half).cast()),
                                _mm256_cvtepu16_epi32(_mm_loadu_si128(scale.as_ptr().add(8 * half).cast())),
                                c2,
                            );
                            _mm256_storeu_ps(got.as_mut_ptr(), f);
                        }
                        assert_eq!(
                            got.map(f32::to_bits)[..],
                            want[8 * half..8 * half + 8],
                            "avx2 chunk {c} half {half}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn self_test_passes_on_healthy_hardware() {
        assert!(self_test());
        assert!(self_test(), "cached result stays true");
        let body = lut_body();
        assert!(body.runnable(), "dispatch picks a runnable body, got {}", body.name());
        assert_eq!(Some(body), LutBody::ALL.into_iter().find(|b| b.runnable()), "fastest body");
    }

    #[test]
    #[should_panic(expected = "escapes table")]
    fn out_of_bounds_base_panics() {
        let table = vec![0i32; 64 * 16];
        let mut bases = [0usize; LUT_LANES];
        bases[3] = 64 * 16 - 8 * 16;
        let codes = [0u8; LUT_LANES * 8];
        let grp = LutGroup { codes: &codes, stride: 8, lanes: LUT_LANES, depth: 16, bases };
        lut_fold(&[&table[..]], &grp);
    }

    #[test]
    #[should_panic(expected = "ragged code planes")]
    fn short_code_planes_panic() {
        let table = vec![0i32; 16 * 16];
        let codes = [0u8; LUT_LANES * 8 - 1];
        let grp = LutGroup { codes: &codes, stride: 8, lanes: LUT_LANES, depth: 16, bases: [0; LUT_LANES] };
        lut_fold(&[&table[..]], &grp);
    }

    #[test]
    #[should_panic(expected = "ragged row tables")]
    fn ragged_row_tables_panic() {
        let (a, b) = (vec![0i32; 16 * 16], vec![0i32; 16 * 16 + 1]);
        let codes = [0u8; 8];
        let grp = LutGroup { codes: &codes, stride: 8, lanes: 1, depth: 16, bases: [0; LUT_LANES] };
        lut_fold(&[&a[..], &b[..]], &grp);
    }

    /// Q8 sums consistent with `codes`, one per 32-block.
    fn block_sums(codes: &[i8]) -> Vec<i32> {
        codes.chunks(32).map(|b| b.iter().map(|&q| q as i32).sum()).collect()
    }

    /// AVX2 tile, dispatching tile and scalar reference on one input:
    /// all three must agree to the bit.
    fn assert_tile_paths_agree(act: Q8Act<'_>, w: W4Cols<'_>, what: &str) {
        let mut want = [0f32; 8];
        w4a8_cols_scalar(act, w, &mut want);
        let want = want.map(f32::to_bits);
        assert_eq!(w4a8_tile8(act, w).map(f32::to_bits), want, "dispatch, {what}");
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: AVX2 confirmed; the scalar call above already
            // checked the shapes.
            let got = unsafe { avx2_w4a8_tile8(act, w) };
            assert_eq!(got.map(f32::to_bits), want, "avx2, {what}");
        }
    }

    #[test]
    fn tile_paths_are_bit_identical() {
        let mut rng = Rng(0xD1CE_BA5E_0F0F_1234);
        for trial in 0..300 {
            let bpg = [1, 2, 4][trial % 3]; // group sizes 32 / 64 / 128
            let groups = 1 + (rng.next() % 32) as usize; // k up to 4096
            let blocks = groups * bpg;
            let k = blocks * 32;
            // A stride wider than eight exercises the interleaved
            // (group, column) layout the engine hands in.
            let stride = 8 + (rng.next() % 5) as usize;
            let wu: Vec<u8> = (0..8 * k).map(|_| (rng.next() % 129) as u8).collect();
            let mut codes: Vec<i8> =
                (0..k).map(|_| ((rng.next() % 255) as i32 - 127) as i8).collect();
            let mut scales: Vec<f64> =
                (0..blocks).map(|_| ((rng.next() % 100_000) as f32 * 1e-6) as f64).collect();
            // An all-zero block quantizes to d = 0 with zero codes.
            let zb = (rng.next() as usize) % blocks;
            codes[zb * 32..(zb + 1) * 32].fill(0);
            scales[zb] = 0.0;
            let sums = block_sums(&codes);
            let wscale: Vec<f64> = (0..groups * stride)
                .map(|_| ((rng.next() % 2001) as f64 - 1000.0) * 1.3e-4)
                .collect();
            let act = Q8Act { codes: &codes, scales: &scales, sums: &sums };
            let w = W4Cols { wu: &wu, wscale: &wscale, wscale_stride: stride, blocks_per_group: bpg };
            assert_tile_paths_agree(act, w, &format!("trial {trial}, k {k}, bpg {bpg}"));
        }
    }

    #[test]
    fn tile_extremes_are_exact() {
        // The no-saturation bound at both signs: wu = 128 against
        // qa = ±127 in every lane, then the offset-free zero point.
        let k = 4 * 32;
        for (wv, qv) in [(128u8, 127i8), (128, -127), (0, 127), (0, -127), (64, 127)] {
            let wu = vec![wv; 8 * k];
            let codes = vec![qv; k];
            let sums = block_sums(&codes);
            let scales = vec![1.0f64; 4];
            let wscale = vec![1.0f64; 8 * 2];
            let act = Q8Act { codes: &codes, scales: &scales, sums: &sums };
            let w = W4Cols { wu: &wu, wscale: &wscale, wscale_stride: 8, blocks_per_group: 2 };
            let wint = wv as i32 - 64;
            let want = (k as i32 * wint * qv as i32) as f32;
            assert_eq!(w4a8_tile8(act, w), [want; 8], "wu {wv}, qa {qv}");
            assert_tile_paths_agree(act, w, &format!("wu {wv}, qa {qv}"));
        }
    }

    #[test]
    fn all_zero_blocks_fold_to_zero() {
        let k = 3 * 32;
        let mut rng = Rng(7);
        let wu: Vec<u8> = (0..8 * k).map(|_| (rng.next() % 129) as u8).collect();
        let codes = vec![0i8; k];
        let sums = vec![0i32; 3];
        let scales = vec![0f64; 3];
        let wscale = vec![0.5f64; 3 * 8];
        let act = Q8Act { codes: &codes, scales: &scales, sums: &sums };
        let w = W4Cols { wu: &wu, wscale: &wscale, wscale_stride: 8, blocks_per_group: 1 };
        assert_eq!(w4a8_tile8(act, w).map(f32::to_bits), [0f32.to_bits(); 8]);
        assert_tile_paths_agree(act, w, "zero row");
    }

    #[test]
    fn scalar_reference_serves_column_remainders() {
        // Any column count through the scalar path equals the matching
        // lanes of the eight-column tile.
        let k = 2 * 32;
        let mut rng = Rng(0xABCD);
        let wu: Vec<u8> = (0..8 * k).map(|_| (rng.next() % 129) as u8).collect();
        let codes: Vec<i8> = (0..k).map(|_| ((rng.next() % 255) as i32 - 127) as i8).collect();
        let sums = block_sums(&codes);
        let scales = vec![0.01f64, 0.02];
        let wscale: Vec<f64> = (0..8).map(|i| 0.1 * i as f64).collect();
        let act = Q8Act { codes: &codes, scales: &scales, sums: &sums };
        let full = w4a8_tile8(
            act,
            W4Cols { wu: &wu, wscale: &wscale, wscale_stride: 8, blocks_per_group: 2 },
        );
        for cols in 1..8 {
            let mut part = vec![0f32; cols];
            let w = W4Cols {
                wu: &wu[..cols * k],
                wscale: &wscale[..cols],
                wscale_stride: 8,
                blocks_per_group: 2,
            };
            w4a8_cols_scalar(act, w, &mut part);
            assert_eq!(part, full[..cols], "{cols} columns");
        }
    }

    #[test]
    fn tile_self_test_passes_on_healthy_hardware() {
        assert!(w4a8_tile_self_test());
        assert!(w4a8_tile_self_test(), "cached result stays true");
    }

    #[test]
    #[should_panic(expected = "whole 32-blocks")]
    fn tile_rejects_ragged_rows() {
        let codes = vec![0i8; 33];
        let act = Q8Act { codes: &codes, scales: &[0.0], sums: &[0] };
        let w = W4Cols { wu: &[0; 8 * 33], wscale: &[0.0; 8], wscale_stride: 8, blocks_per_group: 1 };
        w4a8_tile8(act, w);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn tile_rejects_short_weight_scales() {
        let codes = vec![0i8; 64];
        let act = Q8Act { codes: &codes, scales: &[0.0; 2], sums: &[0; 2] };
        let w = W4Cols { wu: &[0; 8 * 64], wscale: &[0.0; 15], wscale_stride: 8, blocks_per_group: 1 };
        w4a8_tile8(act, w);
    }
}
