//! The one unsafe corner of the workspace: the AVX2 kernels for the
//! prepared decode hot loops in `axcore::engines` — the packed-plane
//! LUT gather (`vpgatherdd`) and the W4A8 eight-column integer tile
//! (`vpmaddubsw` + a `vphaddd` transpose-reduce).
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
//! (`exp == 0`, `inc == 0`) is a no-op of the fold.
//!
//! # The fold
//!
//! The accumulator is the branchless max-anchor form of AxCore's
//! partial FP adder (`PartialAcc::add_prepared_unclamped`): align the
//! smaller-exponent operand by shifting its significand right, add, and
//! keep the larger anchor; a zero significand re-anchors on the
//! incoming entry. Fixed-width alignment *drops* the shifted-out bits,
//! exactly like the hardware adder — that's the approximation being
//! modeled, so bit-identity with the scalar engine is the correctness
//! bar, not closeness to an exact dot product.

#![warn(missing_docs)]
// Safety posture: `unsafe` appears only in `avx2_gather_group` and
// `avx2_w4a8_tile8` (the `target_feature` declarations and their raw
// loads), with the obligations documented on each function and
// discharged by `gather_group`'s bounds checks and `check_w4a8_shapes`.

/// True when the running CPU can execute [`gather_group`]'s vector path.
///
/// Callers may use this to predict which path runs (benchmark labels),
/// but they don't have to gate on it: [`gather_group`] dispatches
/// internally and always produces the same bits either way.
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

/// One-shot power-on self test of the vector kernel: fold a small
/// deterministic code pattern through both the AVX2 path and the scalar
/// reference and compare the observable `(sig, exp)` state. Returns
/// `true` when they agree bit-for-bit (or when the CPU has no AVX2, in
/// which case the vector path can never run). Cached after the first
/// call; the reliability ladder consults it before trusting the AVX2
/// tier, so a machine with a faulty vector unit degrades instead of
/// silently corrupting.
pub fn self_test() -> bool {
    use std::sync::OnceLock;
    static RESULT: OnceLock<bool> = OnceLock::new();
    *RESULT.get_or_init(|| {
        if !avx2_available() {
            return true;
        }
        // 2 "units" × 16 k-steps × 32 entries, filled with a fixed
        // mixed pattern: FP16-range exponents, signed increments, and
        // periodic zero entries to exercise the re-anchor blend.
        let nb = 8usize;
        let table: Vec<i32> = (0..2 * nb * 32)
            .map(|i| {
                if i % 7 == 0 {
                    return 0;
                }
                let exp = (i * 11 % 31) as i32;
                let inc = ((i * 2654435761usize % 8191) as i32) - 4095;
                (exp << 16) | (inc & 0xffff)
            })
            .collect();
        let mut bases = [0i32; 8];
        let mut store = [[0u8; 8]; 8];
        for l in 0..8 {
            bases[l] = ((l % 2) * nb * 32) as i32;
            for (b, slot) in store[l].iter_mut().enumerate() {
                *slot = (l * 37 + b * 101) as u8;
            }
        }
        let codes: [&[u8]; 8] = std::array::from_fn(|l| &store[l][..]);
        let scalar = scalar_gather_group(&table, &bases, &codes);
        let vector = gather_group(&table, &bases, &codes);
        (0..8).all(|l| {
            scalar.0[l] == vector.0[l] && (scalar.0[l] == 0 || scalar.1[l] == vector.1[l])
        })
    })
}

/// Fold one group × eight columns of packed 4-bit codes through the
/// entry table into eight `(sig, exp)` accumulator lanes.
///
/// For lane `l`, the fold visits `codes[l]` byte by byte (low nibble =
/// even k-step, high nibble = odd, matching the packed plane layout)
/// and for byte `bi` with nibble `c` looks up
/// `table[bases[l] + (2 * bi + half) * 16 + c]`, folding entries in
/// ascending k order. Lanes are independent columns; `bases[l]` points
/// at the lane's unit segment, laid out as 16-entry rows.
///
/// Dispatches to the AVX2 kernel when the CPU supports it and every
/// lane's code slice fills whole u64 words, and to the scalar reference
/// otherwise — results are bit-identical (the in-crate tests pin this).
///
/// # Panics
///
/// Panics if some `codes[l].len()` differs from `codes[0].len()`, or if
/// any lane's highest index (`bases[l] + codes[l].len() * 32 - 1`)
/// reaches past `table.len()` — the bounds that make the vector path's
/// raw gather sound.
pub fn gather_group(
    table: &[i32],
    bases: &[i32; 8],
    codes: &[&[u8]; 8],
) -> ([i32; 8], [i32; 8]) {
    let nb = codes[0].len();
    for l in 0..8 {
        assert_eq!(codes[l].len(), nb, "ragged code slices");
        let end = bases[l] as usize + nb * 32;
        assert!(
            bases[l] >= 0 && end <= table.len(),
            "lane {l} segment [{}, {end}) escapes table of {}",
            bases[l],
            table.len()
        );
    }
    #[cfg(target_arch = "x86_64")]
    if nb.is_multiple_of(8) && avx2_available() {
        // SAFETY: AVX2 confirmed at runtime; index bounds asserted above.
        return unsafe { avx2_gather_group(table, bases, codes) };
    }
    scalar_gather_group(table, bases, codes)
}

/// Shard-local form of [`gather_group`]: the eight lanes' code slices
/// are carved out of **one contiguous plane shard** (`planes`, a
/// `PlaneShard`'s raw bytes) by per-lane byte offsets, instead of being
/// pre-sliced by the caller. `offsets[l]` is the start of lane `l`'s
/// group segment within `planes` and `seg_len` its length in packed
/// bytes (`group_size / 2`). This is the entry point the sharded GEMM
/// dispatch uses: handing the kernel the shard slice (rather than views
/// of the whole plane storage) makes "a worker only reads its own
/// shard's planes" a bounds-checked property, not a convention.
///
/// # Panics
///
/// Panics if any `offsets[l] + seg_len` reaches past `planes.len()`, in
/// addition to [`gather_group`]'s own table-bounds checks.
pub fn gather_group_planes(
    table: &[i32],
    bases: &[i32; 8],
    planes: &[u8],
    offsets: &[usize; 8],
    seg_len: usize,
) -> ([i32; 8], [i32; 8]) {
    let codes: [&[u8]; 8] = std::array::from_fn(|l| &planes[offsets[l]..offsets[l] + seg_len]);
    gather_group(table, bases, &codes)
}

/// Scalar reference for [`gather_group`]: the sequential-branch form of
/// the fold, one lane at a time. Public so the engine's non-AVX2 tests
/// and this crate's equivalence tests can call it directly.
pub fn scalar_gather_group(
    table: &[i32],
    bases: &[i32; 8],
    codes: &[&[u8]; 8],
) -> ([i32; 8], [i32; 8]) {
    let mut sig = [0i32; 8];
    let mut exp = [0i32; 8];
    for l in 0..8 {
        let base = bases[l] as usize;
        for (bi, &byte) in codes[l].iter().enumerate() {
            for (half, c) in [(0, byte as usize & 0xf), (1, byte as usize >> 4)] {
                let e = table[base + (2 * bi + half) * 16 + c];
                let (pexp, pinc) = (e >> 16, (e as i16) as i32);
                if sig[l] == 0 {
                    if pinc != 0 {
                        exp[l] = pexp;
                        sig[l] = pinc;
                    }
                    continue;
                }
                if pexp <= exp[l] {
                    // Entry exponents are < 256, so gaps fit a u32
                    // shift only after clamping like the wide fold.
                    sig[l] += pinc >> (exp[l] - pexp).min(31);
                } else {
                    sig[l] = (sig[l] >> (pexp - exp[l]).min(31)) + pinc;
                    exp[l] = pexp;
                }
            }
        }
    }
    (sig, exp)
}

/// One group × eight columns in AVX2: per k-step, extract each lane's
/// nibble code from its u64 code word, gather the eight combined i32
/// entries with `vpgatherdd`, and fold them into eight `(exp, sig)`
/// accumulator lanes held in vector registers.
///
/// Bit-identity with [`scalar_gather_group`]: the fold is the
/// branchless max-anchor form of the same adder, with the `sig == 0`
/// re-anchor expressed as a lane blend. i32 significand lanes are exact
/// because the engine bounds the running sum below 2^31
/// (`gs · 2^(man_bits+3)` gate), and `vpsravd` fills with sign bits for
/// shift counts ≥ 32 — the same result the `.min(31)` clamp gives for
/// i32 values. Blending `exp = pexp` on zero-significand lanes can
/// leave a different anchor than the scalar path's untouched `exp`, but
/// only while `sig == 0`, a state whose anchor the engine never
/// observes: the next non-zero add re-anchors, and normalization
/// returns 0 without reading it.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `codes[l].len()` is equal
/// across lanes and a multiple of 8, and for every lane
/// `bases[l] >= 0 && bases[l] as usize + codes[l].len() * 32 <=
/// table.len()` (each code byte addresses two 16-entry rows).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_gather_group(
    table: &[i32],
    bases: &[i32; 8],
    codes: &[&[u8]; 8],
) -> ([i32; 8], [i32; 8]) {
    use std::arch::x86_64::*;
    let mut sig = _mm256_setzero_si256();
    let mut exp = _mm256_setzero_si256();
    let base_v = _mm256_loadu_si256(bases.as_ptr() as *const __m256i);
    let mask0f = _mm256_set1_epi64x(0xf);
    // Lane compaction: nibbles live in the low dword of each u64 lane;
    // this picks dwords 0,2,4,6 of each half into its low 128 bits.
    let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let sixteen = _mm256_set1_epi32(16);
    let tp = table.as_ptr();
    let nb = codes[0].len();
    for blk in 0..nb / 8 {
        let b = blk * 8;
        let mut w = [0u64; 8];
        for (l, wl) in w.iter_mut().enumerate() {
            // The slice is exactly 8 bytes, so the array conversion
            // cannot fail.
            #[allow(clippy::unwrap_used)]
            {
                *wl = u64::from_le_bytes(codes[l][b..b + 8].try_into().unwrap());
            }
        }
        let mut wlo = _mm256_loadu_si256(w.as_ptr() as *const __m256i);
        let mut whi = _mm256_loadu_si256(w.as_ptr().add(4) as *const __m256i);
        let mut row = _mm256_add_epi32(base_v, _mm256_set1_epi32((blk * 256) as i32));
        for _step in 0..16 {
            let nlo = _mm256_and_si256(wlo, mask0f);
            let nhi = _mm256_and_si256(whi, mask0f);
            wlo = _mm256_srli_epi64::<4>(wlo);
            whi = _mm256_srli_epi64::<4>(whi);
            let clo = _mm256_permutevar8x32_epi32(nlo, even);
            let chi = _mm256_permutevar8x32_epi32(nhi, even);
            let nib = _mm256_permute2x128_si256::<0x20>(clo, chi);
            let idx = _mm256_add_epi32(row, nib);
            row = _mm256_add_epi32(row, sixteen);
            let e = _mm256_i32gather_epi32::<4>(tp, idx);
            // Entry split: high half = biased exponent (≤ 255, so the
            // arithmetic shift is exact), low half = signed increment.
            let pexp = _mm256_srai_epi32::<16>(e);
            let pinc = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(e));
            let z = _mm256_cmpeq_epi32(sig, _mm256_setzero_si256());
            let anchor = _mm256_max_epi32(exp, pexp);
            let ssh = _mm256_srav_epi32(sig, _mm256_sub_epi32(anchor, exp));
            let ish = _mm256_srav_epi32(pinc, _mm256_sub_epi32(anchor, pexp));
            let sum = _mm256_add_epi32(ssh, ish);
            sig = _mm256_blendv_epi8(sum, pinc, z);
            exp = _mm256_blendv_epi8(anchor, pexp, z);
        }
    }
    let mut so = [0i32; 8];
    let mut eo = [0i32; 8];
    _mm256_storeu_si256(so.as_mut_ptr() as *mut __m256i, sig);
    _mm256_storeu_si256(eo.as_mut_ptr() as *mut __m256i, exp);
    (so, eo)
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
/// [`self_test`] for the LUT gather.
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
    /// sprinkling of exact-zero entries to exercise the re-anchor path.
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

    #[test]
    fn vector_and_scalar_folds_are_bit_identical() {
        if !avx2_available() {
            return;
        }
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for trial in 0..50 {
            let nb = 8 * (1 + trial % 4); // 16..64 k-steps per lane
            let units = 1 + (trial % 3) as i32;
            let table = random_table(&mut rng, (units as usize) * nb * 32);
            let mut bases = [0i32; 8];
            let mut code_store = [[0u8; 64]; 8];
            for l in 0..8 {
                bases[l] = (rng.next() as i32).rem_euclid(units) * (nb as i32) * 32;
                for b in code_store[l].iter_mut().take(nb) {
                    *b = rng.next() as u8;
                }
            }
            let codes: [&[u8]; 8] = std::array::from_fn(|l| &code_store[l][..nb]);
            let scalar = scalar_gather_group(&table, &bases, &codes);
            let vector = gather_group(&table, &bases, &codes);
            // Compare observable state: (sig, exp) pairs, except exp on
            // dead (sig == 0) lanes, which nothing downstream reads.
            for l in 0..8 {
                assert_eq!(scalar.0[l], vector.0[l], "sig lane {l} trial {trial}");
                if scalar.0[l] != 0 {
                    assert_eq!(scalar.1[l], vector.1[l], "exp lane {l} trial {trial}");
                }
            }
        }
    }

    #[test]
    fn sharded_plane_entry_matches_presliced_codes() {
        let mut rng = Rng(0x1234_5678_9abc_def1);
        let nb = 16usize; // 32 k-steps per lane
        let table = random_table(&mut rng, 2 * nb * 32);
        // One contiguous "shard" of 8 column planes, each `stride` bytes,
        // with the group segment at a common per-plane offset.
        let stride = 3 * nb;
        let seg0 = nb; // segment start within each plane
        let planes: Vec<u8> = (0..8 * stride).map(|_| rng.next() as u8).collect();
        let mut bases = [0i32; 8];
        let mut offsets = [0usize; 8];
        for l in 0..8 {
            bases[l] = ((l % 2) * nb * 32) as i32;
            offsets[l] = l * stride + seg0;
        }
        let codes: [&[u8]; 8] =
            std::array::from_fn(|l| &planes[offsets[l]..offsets[l] + nb]);
        let direct = gather_group(&table, &bases, &codes);
        let sharded = gather_group_planes(&table, &bases, &planes, &offsets, nb);
        assert_eq!(direct, sharded);
    }

    #[test]
    fn zero_codes_on_zero_table_stay_zero() {
        let table = vec![0i32; 32 * 8];
        let bases = [0i32; 8];
        let store = [[0u8; 8]; 8];
        let codes: [&[u8]; 8] = std::array::from_fn(|l| &store[l][..]);
        let (sig, _) = gather_group(&table, &bases, &codes);
        assert_eq!(sig, [0; 8]);
    }

    #[test]
    fn self_test_passes_on_healthy_hardware() {
        assert!(self_test());
        assert!(self_test(), "cached result stays true");
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

    #[test]
    #[should_panic(expected = "escapes table")]
    fn out_of_bounds_base_panics() {
        let table = vec![0i32; 64];
        let mut bases = [0i32; 8];
        bases[3] = 64;
        let store = [[0u8; 8]; 8];
        let codes: [&[u8]; 8] = std::array::from_fn(|l| &store[l][..]);
        gather_group(&table, &bases, &codes);
    }
}
