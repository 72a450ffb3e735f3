//! The W4A8 integer-activation execution tier: per-block integer dots
//! over Q8-quantized activations.
//!
//! # Key-space collapse
//!
//! The FP LUT tier builds, per activation **element**, a table of that
//! element's product against every weight code — the table depends on
//! the activation value, so it must be rebuilt every row. Quantizing
//! the activation row to Q8 (per-32-element blocks, scale + compensation
//! sum — see [`axcore_quant::act`]) collapses the key space: a product
//! is now determined by `(weight code, activation code)` alone, a
//! 16 × 256 grid **independent of the data**, so the tables can be
//! precomputed once at `prepare()` and the per-row cost drops to the
//! `O(k)` quantization itself.
//!
//! The collapse leans on every 4-bit weight format decoding onto an
//! exact integer grid: with `unit` the smallest positive decoded
//! magnitude, each code's value is `wint · unit` for an integer
//! `|wint| ≤ 64` (INT4: `unit = 1`, `|wint| ≤ 8`; E2M1: `0.5 / 12`;
//! E1M2: `0.5 / 7`; E3M0: `0.25 / 64`). A weight block's contribution
//! to column `c` is then
//!
//! ```text
//! Σ_j w_j · a_j ≈ scale · unit · d_b · Σ_j wint_j · qa_j
//! ```
//!
//! with the inner sum exact **integer** arithmetic. 8-bit formats (INT8,
//! FP8 E4M3) exceed the grid bound and are ineligible; engines fall back
//! to their FP paths (see [`super::act::ActPolicy`]).
//!
//! # Execution
//!
//! [`W4a8Prep::gemm`] first Q8-quantizes all `m` activation rows, once,
//! on the calling thread, into arena buffers (codes, block scales
//! widened to f64, compensation sums). The column-sharded walk
//! ([`drive`]) only reads them, so no shard re-quantizes a row and the
//! kmetrics row counter advances by exactly `m` per call.
//!
//! Each column range then runs on one of two bit-identical rungs:
//!
//! * **multiply** — [`axcore_simd::w4a8_tile8`], one row × eight
//!   adjacent columns per call, over offset codes
//!   `wu = wint + 64 ∈ [0, 128]`. Per 32-block, AVX2 `vpmaddubsw` /
//!   `vpmaddwd` per column and a `vphaddd` transpose-reduce leave the
//!   eight columns' exact dots in one vector; the offset comes back out
//!   via the block's Q8 compensation sum (`Σ wint·qa = Σ wu·qa −
//!   64·Σ qa`) and the scale fold runs in f64×4 lanes. Column
//!   remainders, non-AVX2 hosts and the kernel's self test use the
//!   scalar reference [`axcore_simd::w4a8_cols_scalar`];
//! * **table** — gathers from the precomputed 16 × 256 per-format
//!   product tables, indexed by raw weight code and activation code.
//!
//! Both produce the same exact `i32` per-block dots and fold them
//! through one operation sequence ([`axcore_simd::w4a8_fold`]): per
//! block in ascending order `dot × d_b` as an f64 multiply then a
//! separate add (no FMA), `× (scale · unit)` per group, cast to f32,
//! f32 adds in ascending group order. So the choice is pure scheduling
//! and the output is the same at any shard count: the multiply rung is
//! the default, and the table rung takes over when the vector unit
//! fails its power-on self test (and pins the equality in tests).

use super::prepared::drive;
use crate::kmetrics;
use crate::reliability::{fold, CHECKSUM_SEED};
use axcore_parallel::arena;
use axcore_quant::{quantize_row_into, QuantFormat, QuantizedMatrix, Q8_BLOCK};
use axcore_simd::{Q8Act, W4Cols};
use std::cell::Cell;

/// Largest `|wint|` the offset-code plane can carry: `wu = wint + 64`
/// must stay in `[0, 128]` for the `vpmaddubsw` no-saturation bound.
const MAX_WINT: i32 = axcore_simd::WU_OFFSET;

/// The per-format integer grid: `(unit, wint per code)` such that
/// `decode(code) == wint[code] · unit` exactly. `None` when the format
/// has no 16-code integer grid within the [`MAX_WINT`] bound.
fn integer_grid(fmt: QuantFormat) -> Option<(f64, [i32; 16])> {
    if fmt.code_bits() != 4 {
        return None;
    }
    let vals: [f64; 16] = std::array::from_fn(|c| fmt.decode(c as u8));
    let unit = vals
        .iter()
        .map(|v| v.abs())
        .filter(|v| *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    if !unit.is_finite() || unit <= 0.0 {
        return None;
    }
    let mut ints = [0i32; 16];
    for (c, v) in vals.iter().enumerate() {
        let w = v / unit;
        let r = w.round();
        if !r.is_finite() || (w - r).abs() > 1e-9 || r.abs() > MAX_WINT as f64 {
            return None;
        }
        ints[c] = r as i32;
    }
    Some((unit, ints))
}

thread_local! {
    /// Test/diagnostic override: force the table rung on this thread.
    static FORCE_TABLES: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the table rung forced on this thread (restored on exit,
/// including on panic). The rung is resolved at `gemm` entry on the
/// calling thread, so this governs the whole call at any shard count.
#[cfg(test)]
pub(crate) fn with_table_rung<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_TABLES.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(FORCE_TABLES.with(|t| t.replace(true)));
    f()
}

/// A weight matrix preloaded into W4A8 form. Built (when eligible) at
/// `prepare()` alongside the engine's FP state; [`W4a8Prep::gemm`] is
/// the tier's whole execution path.
#[derive(Debug, Clone)]
pub(crate) struct W4a8Prep {
    k: usize,
    n: usize,
    group_size: usize,
    block_cols: usize,
    /// Offset integer codes `wint + 64 ∈ [0, 128]`, column-major
    /// (`wu[c·k + kk]`) so one column's dot reads one contiguous run.
    wu: Vec<u8>,
    /// Raw 4-bit weight codes, column-major — the table rung's index
    /// plane.
    codes4: Vec<u8>,
    /// Folded per-(group, column) weight scale `scale · unit`.
    wscale: Vec<f64>,
    /// Per-(group, block-column) index into [`W4a8Prep::tables`].
    fmt_of_block: Vec<u8>,
    /// Per distinct format: the 16 × 256 exact product table
    /// `tbl[code · 256 + (qa + 128)] = wint(code) · qa`.
    tables: Vec<Vec<i32>>,
    /// At-rest integrity checksum over every plane above.
    checksum: u64,
}

impl W4a8Prep {
    /// Preload `w` into W4A8 form, or `None` when the matrix is
    /// ineligible (some block's format has no 16-code integer grid, or
    /// the group size is not whole Q8 blocks).
    pub(crate) fn try_new(w: &QuantizedMatrix) -> Option<W4a8Prep> {
        if w.k == 0 || w.n == 0 || !w.group_size.is_multiple_of(Q8_BLOCK) {
            return None;
        }
        let nbc = w.num_block_cols();
        let mut fmts: Vec<QuantFormat> = Vec::new();
        let mut grids: Vec<(f64, [i32; 16])> = Vec::new();
        let mut fmt_of_block = vec![0u8; w.formats.len()];
        for (i, f) in w.formats.iter().enumerate() {
            let idx = match fmts.iter().position(|g| g == f) {
                Some(idx) => idx,
                None => {
                    grids.push(integer_grid(*f)?);
                    fmts.push(*f);
                    fmts.len() - 1
                }
            };
            fmt_of_block[i] = u8::try_from(idx).ok()?;
        }
        let mut wu = vec![0u8; w.k * w.n];
        let mut codes4 = vec![0u8; w.k * w.n];
        for c in 0..w.n {
            for kk in 0..w.k {
                let code = w.code(kk, c);
                if code >= 16 {
                    return None;
                }
                let g = kk / w.group_size;
                let fi = fmt_of_block[g * nbc + c / w.block_cols] as usize;
                wu[c * w.k + kk] = (grids[fi].1[code as usize] + MAX_WINT) as u8;
                codes4[c * w.k + kk] = code;
            }
        }
        let mut wscale = vec![0f64; w.num_groups() * w.n];
        for g in 0..w.num_groups() {
            for c in 0..w.n {
                let fi = fmt_of_block[g * nbc + c / w.block_cols] as usize;
                wscale[g * w.n + c] = w.scale(g * w.group_size, c) * grids[fi].0;
            }
        }
        let tables: Vec<Vec<i32>> = grids
            .iter()
            .map(|(_, ints)| {
                let mut t = vec![0i32; 16 * 256];
                for (code, &wint) in ints.iter().enumerate() {
                    for qa in -128i32..128 {
                        t[code * 256 + (qa + 128) as usize] = wint * qa;
                    }
                }
                t
            })
            .collect();
        let mut prep = W4a8Prep {
            k: w.k,
            n: w.n,
            group_size: w.group_size,
            block_cols: w.block_cols,
            wu,
            codes4,
            wscale,
            fmt_of_block,
            tables,
            checksum: 0,
        };
        prep.checksum = prep.compute_checksum();
        Some(prep)
    }

    /// Fold every at-rest plane into one checksum word.
    fn compute_checksum(&self) -> u64 {
        let mut h = fold(CHECKSUM_SEED, &self.wu, |b| b as u64);
        h = fold(h, &self.codes4, |b| b as u64);
        h = fold(h, &self.wscale, f64::to_bits);
        h = fold(h, &self.fmt_of_block, |b| b as u64);
        for t in &self.tables {
            h = fold(h, t, |v| v as u32 as u64);
        }
        h
    }

    /// Whether the at-rest planes still match the checksum recorded at
    /// `prepare()` time.
    pub(crate) fn checksum_ok(&self) -> bool {
        self.compute_checksum() == self.checksum
    }

    /// Test hook: flip one offset-code bit, leaving the checksum stale.
    #[cfg(test)]
    pub(crate) fn corrupt(&mut self) {
        self.wu[0] ^= 0x10;
    }

    /// Columns `c0 .. c0 + cols` in the tile kernel's view: their
    /// offset codes and their per-group weight scales.
    fn cols(&self, c0: usize, cols: usize) -> W4Cols<'_> {
        W4Cols {
            wu: &self.wu[c0 * self.k..(c0 + cols) * self.k],
            wscale: &self.wscale[c0..],
            wscale_stride: self.n,
            blocks_per_group: self.group_size / Q8_BLOCK,
        }
    }

    /// The table rung for columns `c0 .. c0 + out.len()` of one row:
    /// exact block dots gathered from the precomputed product tables,
    /// folded in the same order as the multiply rung.
    fn table_cols(&self, act: Q8Act<'_>, c0: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let nbc = n / self.block_cols;
        let bpg = self.group_size / Q8_BLOCK;
        for (j, o) in out.iter_mut().enumerate() {
            let c = c0 + j;
            let col = &self.codes4[c * k..(c + 1) * k];
            *o = axcore_simd::w4a8_fold(
                act.scales,
                bpg,
                |g| self.wscale[g * n + c],
                |b| {
                    let g = b / bpg;
                    let tbl = &self.tables[self.fmt_of_block[g * nbc + c / self.block_cols] as usize];
                    let r = b * Q8_BLOCK..(b + 1) * Q8_BLOCK;
                    col[r.clone()]
                        .iter()
                        .zip(&act.codes[r])
                        .map(|(&code, &qa)| tbl[code as usize * 256 + (qa as i32 + 128) as usize])
                        .sum()
                },
            );
        }
    }

    /// Multiply an `m × k` activation tile against the W4A8 planes,
    /// overwriting `out` (`m × n`).
    ///
    /// All `m` rows are Q8-quantized once, up front, on the calling
    /// thread into arena buffers (codes, block scales widened to f64,
    /// compensation sums); the column-sharded walk ([`drive`]) then only
    /// reads them. Each column range runs eight-column tiles
    /// ([`axcore_simd::w4a8_tile8`]) with the scalar reference taking
    /// any remainder, so steady-state calls allocate nothing and every
    /// output element folds its own exact integer dots in one fixed
    /// order — bit-identical at any shard count.
    pub(crate) fn gemm(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let k = self.k;
        let blocks = k / Q8_BLOCK;
        // Rung choice, resolved once on the calling thread: the multiply
        // rung unless the vector unit failed its self test (or a test
        // pinned the table rung).
        let use_tables = FORCE_TABLES.with(|t| t.get()) || !axcore_simd::w4a8_tile_self_test();
        let mut codes = arena::take(m * k, 0i8);
        let mut scales = arena::take(m * blocks, 0f64);
        let mut sums = arena::take(m * blocks, 0i32);
        kmetrics::record_act_quant(m, || {
            let mut d = arena::take(blocks, 0f32);
            for row in 0..m {
                let rb = row * blocks..(row + 1) * blocks;
                quantize_row_into(
                    &a[row * k..(row + 1) * k],
                    &mut codes[row * k..(row + 1) * k],
                    &mut d,
                    &mut sums[rb.clone()],
                );
                for (wide, &narrow) in scales[rb].iter_mut().zip(d.iter()) {
                    *wide = narrow as f64;
                }
            }
        });
        let (codes, scales, sums) = (&codes[..], &scales[..], &sums[..]);
        drive(m, k, self.n, 8, out, || (), |_, row, col0, cols| {
            let rb = row * blocks..(row + 1) * blocks;
            let act = Q8Act {
                codes: &codes[row * k..(row + 1) * k],
                scales: &scales[rb.clone()],
                sums: &sums[rb],
            };
            if use_tables {
                self.table_cols(act, col0, cols);
                return;
            }
            let mut tiles = cols.chunks_exact_mut(8);
            let mut c = col0;
            for tile in &mut tiles {
                tile.copy_from_slice(&axcore_simd::w4a8_tile8(act, self.cols(c, 8)));
                c += 8;
            }
            let rest = tiles.into_remainder();
            if !rest.is_empty() {
                axcore_simd::w4a8_cols_scalar(act, self.cols(c, rest.len()), rest);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcore_quant::{GroupQuantizer, Q8Row};
    use proptest::prelude::*;

    fn weights(seed: u64, k: usize, n: usize) -> Vec<f32> {
        let mut x = seed;
        (0..k * n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 16) % 2048) as f32 / 1024.0 - 1.0
            })
            .collect()
    }

    fn activations(seed: u64, len: usize) -> Vec<f32> {
        weights(seed, len, 1)
    }

    #[test]
    fn integer_grids_match_the_documented_bounds() {
        let (u, ints) = integer_grid(QuantFormat::INT4).expect("INT4 grid");
        assert_eq!(u, 1.0);
        assert_eq!(ints.iter().map(|w| w.abs()).max(), Some(8));
        let (u, ints) = integer_grid(QuantFormat::E2M1).expect("E2M1 grid");
        assert_eq!(u, 0.5);
        assert_eq!(ints.iter().map(|w| w.abs()).max(), Some(12));
        let (u, ints) = integer_grid(QuantFormat::E1M2).expect("E1M2 grid");
        assert_eq!(u, 0.5);
        assert_eq!(ints.iter().map(|w| w.abs()).max(), Some(7));
        let (u, ints) = integer_grid(QuantFormat::E3M0).expect("E3M0 grid");
        assert_eq!(u, 0.25);
        assert_eq!(ints.iter().map(|w| w.abs()).max(), Some(64));
        assert!(integer_grid(QuantFormat::INT8).is_none(), "8-bit codes");
        assert!(integer_grid(QuantFormat::E4M3).is_none(), "8-bit codes");
    }

    #[test]
    fn grid_reconstruction_is_exact() {
        for fmt in [
            QuantFormat::INT4,
            QuantFormat::E2M1,
            QuantFormat::E1M2,
            QuantFormat::E3M0,
        ] {
            let (unit, ints) = integer_grid(fmt).expect("grid");
            for c in 0..16u8 {
                assert_eq!(
                    ints[c as usize] as f64 * unit,
                    fmt.decode(c),
                    "{} code {c}",
                    fmt.name()
                );
            }
        }
    }

    #[test]
    fn gemm_tracks_the_dequantized_reference() {
        let (k, n, m) = (128, 48, 3);
        let q = GroupQuantizer::adaptive_fp4(32, 16, None).quantize(&weights(7, k, n), k, n);
        let prep = W4a8Prep::try_new(&q).expect("adaptive FP4 is eligible");
        let a = activations(11, m * k);
        let mut got = vec![0f32; m * n];
        prep.gemm(&a, m, &mut got);
        // Reference: FP dot against the dequantized weights. The W4A8
        // output differs only by the Q8 activation rounding, bounded per
        // element by the block-scale half-ulp.
        for i in 0..m {
            for c in 0..n {
                let mut want = 0f64;
                let mut mag = 0f64;
                for kk in 0..k {
                    let wv = q.dequant(kk, c);
                    want += a[i * k + kk] as f64 * wv;
                    mag += (a[i * k + kk] as f64 * wv).abs();
                }
                let tol = mag / 127.0 + 1e-6;
                let got = got[i * n + c] as f64;
                assert!(
                    (got - want).abs() <= tol,
                    "({i},{c}): got {got}, want {want}, tol {tol}"
                );
            }
        }
    }

    #[test]
    fn multiply_and_table_rungs_are_bit_identical() {
        let (k, n) = (96, 40);
        let q = GroupQuantizer::adaptive_fp4(32, 8, None).quantize(&weights(3, k, n), k, n);
        let prep = W4a8Prep::try_new(&q).expect("eligible");
        let a = activations(5, k);
        let mut mul = vec![0f32; n];
        let mut tbl = vec![0f32; n];
        prep.gemm(&a, 1, &mut mul);
        with_table_rung(|| prep.gemm(&a, 1, &mut tbl));
        assert_eq!(
            mul.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            tbl.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The pre-tile W4A8 GEMM, kept as an independent reference: rows
    /// Q8-quantized one at a time, one column's per-block integer dots
    /// `Σ (wint + 64)·qa − 64·Σ qa` at a time, then the fixed fold — per
    /// block an f64 multiply then a separate add, per group
    /// `× (scale · unit)`, cast to f32, f32 adds in group order.
    fn per_column_reference(q: &QuantizedMatrix, a: &[f32], m: usize) -> Vec<f32> {
        let (k, n, gs) = (q.k, q.n, q.group_size);
        let blocks = k / Q8_BLOCK;
        let bpg = gs / Q8_BLOCK;
        let grid = |kk: usize, c: usize| integer_grid(q.format(kk, c)).expect("eligible");
        let mut out = vec![0f32; m * n];
        for i in 0..m {
            let row = Q8Row::quantize(&a[i * k..(i + 1) * k]);
            for c in 0..n {
                let dots: Vec<i32> = (0..blocks)
                    .map(|b| {
                        let ints = grid(b * Q8_BLOCK, c).1;
                        let wu_dot: i32 = (b * Q8_BLOCK..(b + 1) * Q8_BLOCK)
                            .map(|kk| {
                                (ints[q.code(kk, c) as usize] + 64) * row.codes[kk] as i32
                            })
                            .sum();
                        wu_dot - 64 * row.sums[b]
                    })
                    .collect();
                let mut acc = 0f32;
                for g in 0..k / gs {
                    let wscale = q.scale(g * gs, c) * grid(g * gs, c).0;
                    let mut gacc = 0f64;
                    let r = g * bpg..(g + 1) * bpg;
                    for (&dot, &d) in dots[r.clone()].iter().zip(&row.scales[r]) {
                        gacc += dot as f64 * d as f64;
                    }
                    acc += (gacc * wscale) as f32;
                }
                out[i * n + c] = acc;
            }
        }
        out
    }

    const WIDTHS: [usize; 6] = [8, 13, 24, 40, 67, 96];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The tile kernel is byte-identical to the per-column path it
        /// replaced, for m in 1..=70, widths that are and are not
        /// multiples of 8 and 16, group sizes 32/64/128, at 1/2/4
        /// workers, on both rungs.
        #[test]
        fn tile_gemm_matches_the_per_column_path(
            seed in 0u64..10_000,
            m in 1usize..=70,
            width in 0usize..WIDTHS.len(),
            bpg_log in 0u32..3,
            groups in 1usize..=3,
            int4 in 0u8..2,
        ) {
            let n = WIDTHS[width];
            let gs = Q8_BLOCK << bpg_log;
            let k = gs * groups;
            let w = weights(seed, k, n);
            // Per-column adaptive FP4 mixes E1M2/E2M1/E3M0 across
            // columns, so the table rung's per-block format lookup is
            // exercised too.
            let q = if int4 == 1 {
                GroupQuantizer::fixed(QuantFormat::INT4, gs).quantize(&w, k, n)
            } else {
                GroupQuantizer::adaptive_fp4(gs, 1, None).quantize(&w, k, n)
            };
            let prep = W4a8Prep::try_new(&q).expect("eligible");
            let mut a = activations(seed ^ 0xA5A5, m * k);
            // One all-zero Q8 block (d = 0) in the first row.
            a[..Q8_BLOCK].fill(0.0);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want = bits(&per_column_reference(&q, &a, m));
            for workers in [1usize, 2, 4] {
                let run = || {
                    let mut out = vec![f32::NAN; m * n];
                    axcore_parallel::with_threads(workers, || prep.gemm(&a, m, &mut out));
                    out
                };
                let mul = run();
                let tbl = with_table_rung(run);
                for (rung, got) in [("multiply", mul), ("table", tbl)] {
                    prop_assert!(
                        bits(&got) == want,
                        "{} rung diverged at m {}, n {}, k {}, gs {}, {} workers",
                        rung, m, n, k, gs, workers
                    );
                }
            }
        }
    }

    #[test]
    fn ineligible_matrices_are_rejected() {
        let (k, n) = (64, 8);
        let w = weights(9, k, n);
        let int8 = GroupQuantizer::fixed(QuantFormat::INT8, 32).quantize(&w, k, n);
        assert!(W4a8Prep::try_new(&int8).is_none(), "INT8 exceeds the grid");
        let fp8 = GroupQuantizer::fixed(QuantFormat::E4M3, 32).quantize(&w, k, n);
        assert!(W4a8Prep::try_new(&fp8).is_none(), "FP8 exceeds the grid");
        let odd_group = GroupQuantizer::fixed(QuantFormat::INT4, 16).quantize(&w, k, n);
        assert!(
            W4a8Prep::try_new(&odd_group).is_none(),
            "group must be whole Q8 blocks"
        );
    }

    #[test]
    fn checksum_detects_plane_corruption() {
        let (k, n) = (64, 16);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&weights(13, k, n), k, n);
        let mut prep = W4a8Prep::try_new(&q).expect("eligible");
        assert!(prep.checksum_ok());
        prep.wu[17] ^= 0x10;
        assert!(!prep.checksum_ok());
    }
}
