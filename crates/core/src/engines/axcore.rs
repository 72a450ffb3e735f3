//! The AxCore GEMM engine: direct mixed-precision GEMM on compressed FP
//! weights through the full modelled datapath — PreAdd → PE (SNC + integer
//! add + Guard + partial FP adder) → shared Norm → AxScale → FP32
//! accumulator (Fig. 8).

use crate::accum::{NormUnit, PartialAcc, PreparedProduct};
use crate::axscale::AxScale;
use crate::engines::prepared::{drive, drive_lut, run_ladder, Ladder};
use crate::engines::w4a8::W4a8Prep;
use crate::engines::{lut, GemmEngine, LutPolicy, PreparedGemm};
use crate::error::GemmError;
use crate::pe::{Pe, WeightLane};
use crate::preadd::{PreAdd, PreAddTerm};
use crate::reliability::{self, Verifier};
use axcore_fpma::snc::SncPolicy;
use axcore_fpma::MpFpma;
use axcore_parallel::{arena, Tier};
use axcore_quant::{CodePlanes, QuantFormat, QuantizedMatrix};
use axcore_softfloat::FpFormat;

/// Stand-in addend for a [`WeightLane`] variant whose product is zero
/// (Guard zero / SNC tie rounding a subnormal away): so negative that
/// `t + addend` always lands below the clamp's first normal binade, which
/// flushes the magnitude — and with it the table entry — to zero without
/// a per-code branch in the LUT build. PreAdd terms are at most a few
/// magnitude-mask widths (≪ 2⁶⁰), so the sum can neither overflow nor
/// come back positive.
const ZERO_ADDEND: i64 = i64::MIN / 4;

/// ABFT relative tolerance: the approximate datapath (Mitchell products,
/// partial FP adds, AxScale dequantization) carries a few percent of
/// relative error per group partial; the row sum is looser still.
const ABFT_REL: f64 = 0.5;

/// Datapath configuration, covering the paper's ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxCoreConfig {
    /// Subnormal number conversion on weight ingestion (§4.2). Off = the
    /// paper's naive *mpFPMA* baseline row.
    pub snc: bool,
    /// Tie policy when SNC is on (`Stochastic` = AxCore; `RoundUp` = the
    /// paper's “-SR” ablation).
    pub snc_policy: SncPolicy,
    /// Mean-based constant compensation `C₁`/`C₂` (§4.3).
    pub compensation: bool,
    /// Dequantize group partial sums with the AxScale FPMA adder (true,
    /// the paper's design) or an exact multiplier (ablation).
    pub fpma_dequant: bool,
}

impl Default for AxCoreConfig {
    fn default() -> Self {
        AxCoreConfig {
            snc: true,
            snc_policy: SncPolicy::Stochastic,
            compensation: true,
            fpma_dequant: true,
        }
    }
}

impl AxCoreConfig {
    /// The paper's base `mpFPMA` row: no SNC, no compensation.
    pub fn mp_fpma_base() -> Self {
        AxCoreConfig {
            snc: false,
            snc_policy: SncPolicy::RoundUp,
            compensation: false,
            fpma_dequant: true,
        }
    }

    /// `mpFPMA+S`: SNC only.
    pub fn with_snc_only() -> Self {
        AxCoreConfig {
            snc: true,
            snc_policy: SncPolicy::Stochastic,
            compensation: false,
            fpma_dequant: true,
        }
    }

    /// `mpFPMA+S+C`: SNC + compensation (= AxCore minus format-aware
    /// quantization, which lives on the quantizer side).
    pub fn with_snc_and_compensation() -> Self {
        AxCoreConfig::default()
    }

    /// `mpFPMA+S(−SR)+C`: deterministic tie rounding (Fig. 18 ablation).
    pub fn without_stochastic_rounding() -> Self {
        AxCoreConfig {
            snc_policy: SncPolicy::RoundUp,
            ..AxCoreConfig::default()
        }
    }
}

/// The AxCore systolic GEMM unit (functional model).
///
/// ```
/// use axcore::engines::{AxCoreEngine, GemmEngine};
/// use axcore_quant::{GroupQuantizer, QuantFormat};
/// use axcore_softfloat::FP16;
///
/// let w: Vec<f32> = (0..64 * 4).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
/// let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, 64, 4);
/// let a = vec![0.5f32; 2 * 64];
/// let mut out = vec![0f32; 2 * 4];
/// AxCoreEngine::new(FP16).try_gemm(&a, 2, &q, &mut out).expect("shapes match");
/// ```
#[derive(Debug, Clone)]
pub struct AxCoreEngine {
    act: FpFormat,
    cfg: AxCoreConfig,
    packed_planes: bool,
}

impl AxCoreEngine {
    /// AxCore with the full default datapath (SNC + stochastic ties +
    /// compensation + AxScale).
    pub fn new(act: FpFormat) -> Self {
        AxCoreEngine {
            act,
            cfg: AxCoreConfig::default(),
            packed_planes: true,
        }
    }

    /// AxCore with an explicit configuration (ablation rows).
    pub fn with_config(act: FpFormat, cfg: AxCoreConfig) -> Self {
        AxCoreEngine {
            act,
            cfg,
            packed_planes: true,
        }
    }

    /// Control nibble-packing of the LUT gather's code planes (on by
    /// default; FP8 matrices fall back to byte planes regardless).
    /// `false` forces byte planes — the pre-SWAR layout, kept for A/B
    /// benchmarking and plane-equivalence tests.
    pub fn with_packed_planes(mut self, on: bool) -> Self {
        self.packed_planes = on;
        self
    }

    /// The activation/result format.
    pub fn act_format(&self) -> FpFormat {
        self.act
    }

    /// The active configuration.
    pub fn config(&self) -> AxCoreConfig {
        self.cfg
    }

    /// Build the per-format mpFPMA unit for a block format.
    fn unit_for(&self, wf: FpFormat) -> MpFpma {
        let mut u = MpFpma::new(self.act, wf).with_compensation(self.cfg.compensation);
        if self.cfg.snc {
            u = u.with_snc(self.cfg.snc_policy);
        } else {
            u = u.without_snc();
        }
        u
    }
}

impl GemmEngine for AxCoreEngine {
    fn name(&self) -> String {
        let c = &self.cfg;
        match (c.snc, c.compensation) {
            (false, false) => "mpFPMA".into(),
            (true, false) => "mpFPMA+S".into(),
            (false, true) => "mpFPMA+C".into(),
            (true, true) => {
                if c.snc_policy == SncPolicy::Stochastic {
                    "AxCore".into()
                } else {
                    "mpFPMA+S(-SR)+C".into()
                }
            }
        }
    }

    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError> {
        Ok(Box::new(self.try_preload(w)?))
    }
}

impl AxCoreEngine {
    /// Panicking shim over [`AxCoreEngine::try_preload`] (exercised by
    /// the in-module tier-equivalence tests).
    #[cfg_attr(not(test), allow(dead_code))]
    fn preload(&self, w: &QuantizedMatrix) -> AxCorePrepared {
        self.try_preload(w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the prepared (weight-stationary) form of a matrix: per-format
    /// mpFPMA units, the flat block→unit index, and all decoded weight
    /// lanes — the weight preload phase of the systolic schedule.
    fn try_preload(&self, w: &QuantizedMatrix) -> Result<AxCorePrepared, GemmError> {
        let act = self.act;
        // Per distinct block format: an mpFPMA unit and its PreAdd,
        // referenced by a flat per-block index (formats repeat heavily, so
        // `units` stays tiny — at most the number of distinct FP4 formats).
        let mut unit_fmts: Vec<&'static str> = Vec::new();
        let mut units: Vec<(MpFpma, PreAdd)> = Vec::new();
        let mut block_unit = Vec::with_capacity(w.formats.len());
        for f in &w.formats {
            let QuantFormat::Fp(wf) = f else {
                return Err(GemmError::FormatOverflow {
                    engine: "AxCoreEngine",
                    requirement: "requires FP-quantized weights",
                    got: f.to_string(),
                });
            };
            let idx = unit_fmts.iter().position(|n| *n == wf.name).unwrap_or_else(|| {
                let u = self.unit_for(*wf);
                let p = PreAdd::for_unit(&u);
                unit_fmts.push(wf.name);
                units.push((u, p));
                units.len() - 1
            });
            block_unit.push(idx as u16);
        }

        // Stationary weight lanes, decoded once per prepared matrix.
        // Stored column-major (`col * k + k`) so the MAC loop over `k`
        // walks contiguous memory.
        let nbc = w.num_block_cols();
        let mut lanes = Vec::with_capacity(w.k * w.n);
        for col in 0..w.n {
            let bc = col / w.block_cols;
            for k in 0..w.k {
                let unit_idx = block_unit[(k / w.group_size) * nbc + bc] as usize;
                lanes.push(WeightLane::new(&units[unit_idx].0, w.code(k, col)));
            }
        }

        // LUT-tier state (§: Execution model / LUT tier): per-unit code
        // spaces, flattened SNC lane constants over each unit's whole
        // code space, the per-column code planes the gather walks, and a
        // per-group bitmask of the units its blocks select (also used by
        // the direct path's term fill).
        //
        // The lane constants are stored as straight-line-math operands so
        // the table build needs no per-code branches: `code_addends`
        // holds each [`WeightLane`] tie variant's integer addend
        // (`[unit][variant][code]`), with zero variants replaced by
        // [`ZERO_ADDEND`] — so negative the clamp is guaranteed to flush
        // the product; `code_signs` holds the weight sign as an all-ones
        // XOR/subtract mask.
        let unit_cs: Vec<usize> = units.iter().map(|(u, _)| u.code_space()).collect();
        let code_space = unit_cs.iter().copied().max().unwrap_or(0);
        let mut code_addends = Vec::with_capacity(units.len() * 2 * code_space);
        let mut code_signs = Vec::with_capacity(units.len() * code_space);
        for ((u, _), &ucs) in units.iter().zip(&unit_cs) {
            // Codes at or above a unit's own space are never emitted for
            // its blocks; pad those slots with the zero code.
            let lanes: Vec<WeightLane> = (0..code_space)
                .map(|code| WeightLane::new(u, if code < ucs { code as u8 } else { 0 }))
                .collect();
            for lane in &lanes {
                code_addends.push(if lane.zero_down { ZERO_ADDEND } else { lane.addend_down });
            }
            for lane in &lanes {
                code_addends.push(if lane.zero_up { ZERO_ADDEND } else { lane.addend_up });
            }
            code_signs.extend(lanes.iter().map(|lane| -(lane.sign as i64)));
        }
        assert!(units.len() <= 32, "group unit mask is a u32");
        let groups = w.num_groups();
        let mut group_unit_masks = vec![0u32; groups];
        for g in 0..groups {
            for bc in 0..nbc {
                group_unit_masks[g] |= 1 << block_unit[g * nbc + bc];
            }
        }

        // Decoded scale values for the exact-dequant ablation path.
        let scale_vals = w
            .scales
            .iter()
            .map(|&s| axcore_softfloat::FP16.decode(s as u32))
            .collect();

        let mut p = AxCorePrepared {
            src_engine: self.clone(),
            act,
            fpma_dequant: self.cfg.fpma_dequant,
            pe: Pe::new(act),
            norm: NormUnit::new(act),
            axscale: if self.cfg.compensation {
                AxScale::new(act)
            } else {
                AxScale::new(act).without_compensation()
            },
            units,
            block_unit,
            lanes,
            code_addends,
            code_signs,
            unit_cs,
            code_space,
            // Packed planes additionally require the activation format
            // to fit the combined i32 LUT entry: exponent field ≤ 255
            // and `man_bits ≤ 12` so the increment fits i16 — true for
            // FP16 (30, 10) and BF16 (254, 7); wider formats (FP32
            // activations, hypothetical >8-exp-bit formats) take byte
            // planes instead.
            planes: if self.packed_planes && act.max_exp_field() <= 0xff && act.man_bits <= 12 {
                CodePlanes::new(w)
            } else {
                CodePlanes::with_width(w, 8)
            },
            group_unit_masks,
            scales: w.scales.clone(),
            scale_vals,
            k: w.k,
            n: w.n,
            group_size: w.group_size,
            block_cols: w.block_cols,
            lut_sum: 0,
            direct_sum: 0,
            w4a8: W4a8Prep::try_new(w),
            verifier: Verifier::new(w, ABFT_REL),
        };
        p.lut_sum = p.lut_region_checksum();
        p.direct_sum = p.direct_region_checksum();
        Ok(p)
    }
}

/// AxCore weights preloaded into the array: per-format mpFPMA/PreAdd
/// units, the flat `(group, block-column) → unit` index, and every
/// element's decoded [`WeightLane`].
#[derive(Debug)]
pub struct AxCorePrepared {
    /// Owning engine configuration — the recovery path re-prepares from
    /// it after an unrecoverable state corruption.
    src_engine: AxCoreEngine,
    act: FpFormat,
    fpma_dequant: bool,
    pe: Pe,
    norm: NormUnit,
    axscale: AxScale,
    units: Vec<(MpFpma, PreAdd)>,
    /// Unit index per (group, block-column), replacing the per-element
    /// format-name hash lookup of the unprepared path.
    block_unit: Vec<u16>,
    /// Decoded weight lanes, column-major (`col * k + k`).
    lanes: Vec<WeightLane>,
    /// Lane addends flattened for the LUT build, laid out
    /// `(unit * 2 + variant) * code_space + code` with variant 0 = SNC
    /// ties down, 1 = ties up; zero variants hold [`ZERO_ADDEND`].
    code_addends: Vec<i64>,
    /// Weight sign per (unit, code) as a 0 / −1 mask.
    code_signs: Vec<i64>,
    /// Each unit's own code space (`2^code_bits` of its weight format).
    unit_cs: Vec<usize>,
    /// Table stride per activation element: the widest unit code space.
    code_space: usize,
    /// Per-column contiguous code planes for the LUT gather.
    planes: CodePlanes,
    /// Bit `u` set ⇔ some block column of group `g` uses unit `u`.
    group_unit_masks: Vec<u32>,
    /// Raw FP16 scale bits per (group, column).
    scales: Vec<u16>,
    /// Decoded scales (exact-dequant ablation path only).
    scale_vals: Vec<f64>,
    k: usize,
    n: usize,
    group_size: usize,
    block_cols: usize,
    /// Integrity checksum over the LUT tiers' prepared state, recorded at
    /// preload (planes + lane constants + scales).
    lut_sum: u64,
    /// Integrity checksum over the direct tier's prepared state, recorded
    /// at preload (weight lanes + scales).
    direct_sum: u64,
    /// W4A8 integer-activation planes, present when every block format
    /// decodes onto the tier's integer grid (see [`super::w4a8`]). Dark
    /// unless the per-call [`super::act::ActPolicy`] engages the tier.
    w4a8: Option<W4a8Prep>,
    verifier: Verifier,
}

/// Per-worker scratch for the direct path: the current row's encoded
/// activation bits and its precomputed PreAdd terms, one run per unit.
/// Buffers come from the worker's recycled arena: `bits` is fully
/// rewritten per row, and stale `terms` are never read (a term is only
/// read for groups whose unit mask selected it, after being written for
/// the current row), so recycled contents are harmless.
struct AxScratch {
    row: usize,
    bits: arena::ArenaVec<u32>,
    terms: arena::ArenaVec<PreAddTerm>,
}

/// Per-worker LUT-tier table: encoded activation bits plus one pre-split
/// product per (unit, activation element, weight code), laid out
/// `(unit * k + kk) * code_space + code`. Each entry packs
/// [`PreparedProduct`] into a single word — `exp` in the high 32 bits,
/// `inc` in the low 32 (it fits: `|inc| < 2^(man_bits + 3)` and every
/// activation format has `man_bits ≤ 28`) — so the gather issues one
/// 8-byte load per MAC and a group's live segments stay L1-resident.
///
/// Arena-recycled like [`AxScratch`]: the build rewrites, per element,
/// the first `unit_cs[u]` codes of every (group-selected unit, element)
/// row, and the gather reads only those slots (codes are validated
/// against each unit's space at quantization/plane-build time), so stale
/// entries from a previous call are never observed. The one exception —
/// units with a narrower code space than the table stride — is handled
/// at take time with an explicit zero fill.
struct AxLutTable {
    bits: arena::ArenaVec<u32>,
    /// Byte-plane gather entries, `(exp << 32) | inc` packed — empty for
    /// packed-plane engines.
    tbl: arena::ArenaVec<i64>,
    /// Packed-plane gather entries, `(exp << 16) | (inc as u16)` in one
    /// i32 — packed planes are only selected when the activation format
    /// guarantees both fields fit (exponent field ≤ 255, `man_bits ≤ 12`
    /// so `|inc| < 2^15`). Quarter the bytes of the i64 layout: a unit's
    /// per-group segment drops to 4 KB (L1-resident), and the 8-lane
    /// AVX2 gather reads whole entries with one `vpgatherdd`. Empty for
    /// byte-plane engines.
    tcomb: arena::ArenaVec<i32>,
}

/// Unpack one packed LUT entry back into the partial adder's operands.
#[inline(always)]
fn unpack_entry(e: i64) -> PreparedProduct {
    PreparedProduct { exp: (e >> 32) as i32, inc: e as i32 as i64 }
}

/// Rebuild the partial adder's operands from one combined i32 entry.
#[inline(always)]
fn split_entry(e: i32) -> PreparedProduct {
    PreparedProduct { exp: e >> 16, inc: (e as i16) as i64 }
}

impl PreparedGemm for AxCorePrepared {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn try_gemm(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        run_ladder(self, a, m, out)
    }

    fn fault_sites(&self) -> &'static [&'static str] {
        &["lanes", "lut-addends", "planes", "scales"]
    }

    fn fault_surface(&self, site: &str) -> (usize, u32) {
        match site {
            "lanes" => (self.lanes.len(), 64),
            "lut-addends" => (self.code_addends.len(), 64),
            "planes" => (self.planes.raw_bytes(), 8),
            "scales" => (self.scales.len(), 16),
            _ => (0, 0),
        }
    }

    fn inject_fault(&mut self, site: &str, word: usize, bit: u32) -> bool {
        match site {
            "lanes" => {
                self.lanes[word].addend_down ^= 1 << (bit % 64);
                true
            }
            "lut-addends" => {
                self.code_addends[word] ^= 1 << (bit % 64);
                true
            }
            "planes" => {
                self.planes.flip_bit(word, bit);
                true
            }
            "scales" => {
                self.scales[word] ^= 1 << (bit % 16);
                true
            }
            _ => false,
        }
    }
}

/// One checksum word per stationary [`WeightLane`]; any single-bit change
/// to any field changes the word (the fields occupy disjoint ranges).
fn lane_word(l: WeightLane) -> u64 {
    (l.addend_down as u64)
        ^ (l.addend_up as u64).rotate_left(21)
        ^ ((l.sign as u64) | (l.zero_down as u64) << 1 | (l.zero_up as u64) << 2).rotate_left(42)
}

impl Ladder for AxCorePrepared {
    const CONTEXT: &'static str = "axcore prepared gemm";

    fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    fn w4a8(&self) -> Option<&W4a8Prep> {
        self.w4a8.as_ref()
    }

    fn lut_rungs(&self, policy: LutPolicy) -> &'static [Tier] {
        // Per-element table width: every unit × its padded code space.
        if !lut::use_lut(policy, self.n, self.units.len() * self.code_space) {
            &[]
        } else if self.planes.is_packed() && self.avx2_gather_eligible() {
            &[Tier::Avx2Lut, Tier::SwarLut]
        } else {
            &[Tier::SwarLut]
        }
    }

    fn state_ok(&self, tier: Tier) -> bool {
        match tier {
            Tier::Direct => self.direct_region_checksum() == self.direct_sum,
            _ => self.lut_region_checksum() == self.lut_sum,
        }
    }

    fn run(&self, tier: Tier, a: &[f32], m: usize, out: &mut [f32], threads: usize) {
        match tier {
            Tier::Avx2Lut => self.gemm_lut(a, m, out, threads, true),
            Tier::SwarLut => self.gemm_lut(a, m, out, threads, false),
            _ => self.gemm_direct(a, m, out, threads),
        }
    }

    fn recover(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        let fresh = self.src_engine.try_preload(self.verifier.pristine())?;
        fresh.gemm_direct(a, m, out, 1);
        Ok(())
    }
}

impl AxCorePrepared {
    /// Integrity checksum over the state the LUT tiers read: the code
    /// planes, the flattened lane constants, and the shared scales.
    fn lut_region_checksum(&self) -> u64 {
        let h = reliability::mix(reliability::CHECKSUM_SEED, self.planes.checksum());
        let h = reliability::fold(h, &self.code_addends, |v| v as u64);
        let h = reliability::fold(h, &self.code_signs, |v| v as u64);
        self.shared_state_checksum(h)
    }

    /// Integrity checksum over the state the direct tier reads: the
    /// stationary weight lanes and the shared scales.
    fn direct_region_checksum(&self) -> u64 {
        let h = reliability::fold(reliability::CHECKSUM_SEED, &self.lanes, lane_word);
        self.shared_state_checksum(h)
    }

    /// Fold the state every tier shares (scales, block→unit index, group
    /// unit masks) into a running checksum.
    fn shared_state_checksum(&self, h: u64) -> u64 {
        let h = reliability::fold(h, &self.scales, |v| v as u64);
        let h = reliability::fold(h, &self.scale_vals, f64::to_bits);
        let h = reliability::fold(h, &self.block_unit, |v| v as u64);
        reliability::fold(h, &self.group_unit_masks, |v| v as u64)
    }

    /// Direct per-MAC path: every (element, column) product runs the
    /// PreAdd → PE pipeline against the element's stationary lane.
    fn gemm_direct(&self, a: &[f32], m: usize, out: &mut [f32], threads: usize) {
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let zero_term = PreAddTerm { t: 0, sign: false, zero: true, stochastic_bit: false };
        let mk_scratch = || AxScratch {
            row: usize::MAX,
            bits: arena::take(k, 0u32),
            terms: arena::take(self.units.len() * k, zero_term),
        };
        drive(m, k, n, self.block_cols, threads, out, mk_scratch, |s: &mut AxScratch, i, col0, cols| {
            if s.row != i {
                // Encode the activation row once, then advance each group
                // slice through the PreAdds of only the units that group's
                // block columns select (the per-group unit mask) — not
                // every unit per element. Terms for units a group never
                // uses stay stale and are never read below.
                for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                    s.bits[kk] = self.act.encode(av as f64);
                }
                for g in 0..groups {
                    let mut mask = self.group_unit_masks[g];
                    while mask != 0 {
                        let u = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let preadd = &self.units[u].1;
                        for kk in g * gs..(g + 1) * gs {
                            s.terms[u * k + kk] = preadd.term(s.bits[kk]);
                        }
                    }
                }
                s.row = i;
            }
            for (j, o) in cols.iter_mut().enumerate() {
                let col = col0 + j;
                let bc = col / self.block_cols;
                let col_lanes = &self.lanes[col * k..(col + 1) * k];
                let mut acc_out = 0f32;
                for g in 0..groups {
                    let u = self.block_unit[g * nbc + bc] as usize;
                    let terms = &s.terms[u * k..(u + 1) * k];
                    let mut pacc = PartialAcc::new(self.act);
                    for kk in g * gs..(g + 1) * gs {
                        let term = terms[kk];
                        self.pe.mac(
                            &mut pacc,
                            term.t,
                            term.sign,
                            term.zero,
                            term.stochastic_bit,
                            &col_lanes[kk],
                        );
                    }
                    let o_bits = self.norm.normalize(&pacc);
                    let scaled = if self.fpma_dequant {
                        self.act.decode(self.axscale.apply(o_bits, self.scales[g * n + col]))
                    } else {
                        self.act.decode(o_bits) * self.scale_vals[g * n + col]
                    };
                    // FP32 final accumulator (Fig. 8, bottom).
                    acc_out += scaled as f32;
                }
                *o = acc_out;
            }
        });
    }

    /// LUT-tier path: per activation element, push the product against
    /// *every* weight code through the PreAdd → PE pipeline once, store
    /// it pre-split for the partial adder, and turn the column loop into
    /// a code-plane gather. Entries come from the same units and lane
    /// constants as the direct path and the gather accumulates in the
    /// same ascending-k order per group, so results are bit-identical by
    /// construction.
    ///
    /// `allow_avx2` gates the AVX2 gather kernel so the tier ladder can
    /// address the SWAR fallback explicitly (a quarantined AVX2 tier must
    /// not be re-entered through the generic dispatch).
    fn gemm_lut(&self, a: &[f32], m: usize, out: &mut [f32], threads: usize, allow_avx2: bool) {
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let cs = self.code_space;
        let nu = self.units.len();
        // The PE's clamp bounds in the activation's integer domain.
        let min_normal = 1i64 << self.act.man_bits;
        let max_mag =
            ((self.act.max_exp_field() as i64) << self.act.man_bits) | self.act.man_mask() as i64;
        let man_bits = self.act.man_bits;
        let man_mask = self.act.man_mask() as i64;
        // Stale recycled entries are only reachable when a unit's code
        // space is narrower than the table stride (mixed-width matrices,
        // which the quantizer never produces); zero-fill in that case.
        let needs_zero_fill = self.unit_cs.iter().any(|&ucs| ucs < cs);
        let packed = self.planes.is_packed();
        let mk_table = || AxLutTable {
            bits: arena::take(k, 0u32),
            tbl: match (packed, needs_zero_fill) {
                (true, _) => arena::take(0, 0i64),
                (false, true) => arena::take_filled(nu * k * cs, 0i64),
                (false, false) => arena::take(nu * k * cs, 0i64),
            },
            tcomb: match (packed, needs_zero_fill) {
                (false, _) => arena::take(0, 0i32),
                (true, true) => arena::take_filled(nu * k * cs, 0i32),
                (true, false) => arena::take(nu * k * cs, 0i32),
            },
        };
        let build = |t: &mut AxLutTable, i: usize, col0: usize, ncols: usize| {
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                t.bits[kk] = self.act.encode(av as f64);
            }
            for g in 0..groups {
                // Shard-restricted build: only the units referenced by
                // the columns this worker will gather. Segments of other
                // units stay stale in this worker's table slot and are
                // never read by its gather.
                let mut mask = self.shard_unit_mask(g, col0, ncols);
                while mask != 0 {
                    let u = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let preadd = &self.units[u].1;
                    let ucs = self.unit_cs[u];
                    let signs = &self.code_signs[u * cs..u * cs + ucs];
                    for kk in g * gs..(g + 1) * gs {
                        let term = preadd.term(t.bits[kk]);
                        let base = (u * k + kk) * cs;
                        if packed {
                            // Combined i32 entries: `(exp << 16) | inc`
                            // as u16 halves — both fit by the packed-
                            // plane selection gate (exp field ≤ 255,
                            // `|inc| < 2^15` for `man_bits ≤ 12`).
                            let crow = &mut t.tcomb[base..base + ucs];
                            if term.zero {
                                // Guard zero: every code's product is zero.
                                crow.fill(0);
                                continue;
                            }
                            let v = (u * 2 + term.stochastic_bit as usize) * cs;
                            let addends = &self.code_addends[v..v + ucs];
                            let tsign = -(term.sign as i64);
                            for ((slot, &addend), &wsign) in
                                crow.iter_mut().zip(addends).zip(signs)
                            {
                                let r = (term.t + addend).min(max_mag);
                                let mag = if r < min_normal { 0 } else { r };
                                let nz = -((mag != 0) as i64);
                                let s = tsign ^ wsign;
                                let val = ((mag & man_mask) | min_normal) << 2;
                                let inc = ((val ^ s) - s) & nz;
                                *slot = (((mag >> man_bits) as i32) << 16)
                                    | ((inc as i32) & 0xffff);
                            }
                            continue;
                        }
                        let row = &mut t.tbl[base..base + ucs];
                        if term.zero {
                            // Guard zero: every code's product is zero.
                            row.fill(0);
                            continue;
                        }
                        // Tie variant selected once per element by the
                        // activation's stochastic bit, as in the PE.
                        let v = (u * 2 + term.stochastic_bit as usize) * cs;
                        let addends = &self.code_addends[v..v + ucs];
                        let tsign = -(term.sign as i64);
                        // Straight-line clamp + split per code: exactly
                        // `Pe::multiply` + `PreparedProduct::new`, with
                        // zero products falling out of the clamp (the
                        // `nz` mask) instead of branching.
                        for ((slot, &addend), &wsign) in
                            row.iter_mut().zip(addends).zip(signs)
                        {
                            let r = (term.t + addend).min(max_mag);
                            let mag = if r < min_normal { 0 } else { r };
                            let nz = -((mag != 0) as i64);
                            let s = tsign ^ wsign;
                            let val = ((mag & man_mask) | min_normal) << 2;
                            let inc = ((val ^ s) - s) & nz;
                            *slot = ((mag >> man_bits) << 32) | (inc & 0xFFFF_FFFF);
                        }
                    }
                }
            }
        };
        // The gather is instantiated with the unclamped partial adder
        // whenever the activation format's exponent gaps are provably
        // under 64 (FP16 and narrower), and with the saturating one
        // otherwise — bit-identical either way. The packed path takes
        // the sequential-shift unclamped form (one data-dependent shift
        // per MAC instead of two); `add_prepared_unclamped_seq` is
        // bit-identical by construction and the packed-vs-byte gather
        // test pins it.
        if self.act.max_exp_field() < 64 {
            let gather = |t: &AxLutTable, _i: usize, col0: usize, cols: &mut [f32]| {
                if self.planes.is_packed() {
                    if allow_avx2 && self.avx2_gather_eligible() {
                        self.lut_gather_cols_packed_avx2(t, col0, cols);
                        return;
                    }
                    self.lut_gather_cols_packed(t, col0, cols, |acc, e| {
                        acc.add_prepared_unclamped_seq(split_entry(e))
                    });
                } else {
                    self.lut_gather_cols_bytes(t, col0, cols, |acc, e| {
                        acc.add_prepared_unclamped(unpack_entry(e))
                    });
                }
            };
            drive_lut(m, k, n, self.block_cols, threads, out, mk_table, build, gather);
        } else {
            let gather = |t: &AxLutTable, _i: usize, col0: usize, cols: &mut [f32]| {
                if self.planes.is_packed() {
                    self.lut_gather_cols_packed(t, col0, cols, |acc, e| {
                        acc.add_prepared(split_entry(e))
                    });
                } else {
                    self.lut_gather_cols_bytes(t, col0, cols, |acc, e| {
                        acc.add_prepared(unpack_entry(e))
                    });
                }
            };
            drive_lut(m, k, n, self.block_cols, threads, out, mk_table, build, gather);
        }
    }

    /// The format units referenced by output columns
    /// `[col0, col0 + ncols)` in group `g`: the precomputed whole-row
    /// mask when the range covers every column, otherwise the OR over
    /// just the range's block columns — what lets a shard build only the
    /// table segments its own gather will read.
    fn shard_unit_mask(&self, g: usize, col0: usize, ncols: usize) -> u32 {
        if col0 == 0 && ncols == self.n {
            return self.group_unit_masks[g];
        }
        let nbc = self.n / self.block_cols;
        let bc0 = col0 / self.block_cols;
        let bc1 = (col0 + ncols - 1) / self.block_cols;
        let mut mask = 0u32;
        for bc in bc0..=bc1 {
            mask |= 1 << self.block_unit[g * nbc + bc];
        }
        mask
    }

    /// Byte-plane gather: fold every group's table segments into `cols`,
    /// in the direct path's exact accumulation order.
    ///
    /// Group-major sweep: for one group at a time, only that group's
    /// table segments (one per unit its blocks use) are live, so they
    /// stay cache-hot across the whole column pass. Column outputs
    /// accumulate group partials in ascending-g order, same as the
    /// direct path's inner loop.
    ///
    /// Columns are walked four at a time: the partial adder is a short
    /// serial dependency chain, so interleaving independent per-column
    /// accumulators lets the core overlap the chains. Each column still
    /// folds its group's entries in ascending-k order, so the interleave
    /// does not change any result bit.
    fn lut_gather_cols_bytes(
        &self,
        t: &AxLutTable,
        col0: usize,
        cols: &mut [f32],
        add: impl Fn(&mut PartialAcc, i64) + Copy,
    ) {
        const LANES: usize = 4;
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let cs = self.code_space;
        let finish = |pacc: &PartialAcc, g: usize, col: usize| -> f32 {
            let o_bits = self.norm.normalize(pacc);
            let scaled = if self.fpma_dequant {
                self.act.decode(self.axscale.apply(o_bits, self.scales[g * n + col]))
            } else {
                self.act.decode(o_bits) * self.scale_vals[g * n + col]
            };
            scaled as f32
        };
        // This worker's contiguous slice of the code planes: all plane
        // reads below stay provably inside the shard's columns.
        let planes = self.planes.shard(col0, cols.len());
        let seg_of = |g: usize, col: usize| {
            let u = self.block_unit[g * nbc + col / self.block_cols] as usize;
            let r = (u * k + g * gs) * cs..(u * k + (g + 1) * gs) * cs;
            (&t.tbl[r], &planes.plane(col)[g * gs..(g + 1) * gs])
        };
        cols.fill(0.0);
        for g in 0..groups {
            let mut j = 0;
            while j + LANES <= cols.len() {
                let (es0, cd0) = seg_of(g, col0 + j);
                let (es1, cd1) = seg_of(g, col0 + j + 1);
                let (es2, cd2) = seg_of(g, col0 + j + 2);
                let (es3, cd3) = seg_of(g, col0 + j + 3);
                // Named accumulators (not an array) so each lane's
                // `(sig, exp)` pair stays in registers across the whole
                // k-loop; `chunks_exact` rows indexed by the masked code
                // keep every access provably in bounds.
                let mut a0 = PartialAcc::new(self.act);
                let mut a1 = PartialAcc::new(self.act);
                let mut a2 = PartialAcc::new(self.act);
                let mut a3 = PartialAcc::new(self.act);
                // Two k-steps per iteration: per-lane order is still
                // ascending k, the unroll just halves the iterator
                // bookkeeping per MAC.
                let pair = 2 * cs;
                let it01 = es0
                    .chunks_exact(pair)
                    .zip(cd0.chunks_exact(2))
                    .zip(es1.chunks_exact(pair).zip(cd1.chunks_exact(2)));
                let it23 = es2
                    .chunks_exact(pair)
                    .zip(cd2.chunks_exact(2))
                    .zip(es3.chunks_exact(pair).zip(cd3.chunks_exact(2)));
                for (((r0, c0), (r1, c1)), ((r2, c2), (r3, c3))) in it01.zip(it23) {
                    add(&mut a0, r0[c0[0] as usize & (cs - 1)]);
                    add(&mut a1, r1[c1[0] as usize & (cs - 1)]);
                    add(&mut a2, r2[c2[0] as usize & (cs - 1)]);
                    add(&mut a3, r3[c3[0] as usize & (cs - 1)]);
                    add(&mut a0, r0[cs + (c0[1] as usize & (cs - 1))]);
                    add(&mut a1, r1[cs + (c1[1] as usize & (cs - 1))]);
                    add(&mut a2, r2[cs + (c2[1] as usize & (cs - 1))]);
                    add(&mut a3, r3[cs + (c3[1] as usize & (cs - 1))]);
                }
                if gs % 2 == 1 {
                    // Odd group depth: one trailing k-step per lane.
                    let off = (gs - 1) * cs;
                    add(&mut a0, es0[off + (cd0[gs - 1] as usize & (cs - 1))]);
                    add(&mut a1, es1[off + (cd1[gs - 1] as usize & (cs - 1))]);
                    add(&mut a2, es2[off + (cd2[gs - 1] as usize & (cs - 1))]);
                    add(&mut a3, es3[off + (cd3[gs - 1] as usize & (cs - 1))]);
                }
                for (l, acc) in [a0, a1, a2, a3].iter().enumerate() {
                    cols[j + l] += finish(acc, g, col0 + j + l);
                }
                j += LANES;
            }
            // Remainder columns (< LANES) run the scalar chain.
            for (jj, o) in cols.iter_mut().enumerate().skip(j) {
                let (es, cd) = seg_of(g, col0 + jj);
                let mut pacc = PartialAcc::new(self.act);
                for (row, &c) in es.chunks_exact(cs).zip(cd) {
                    add(&mut pacc, row[c as usize & (cs - 1)]);
                }
                *o += finish(&pacc, g, col0 + jj);
            }
        }
    }

    /// Nibble-packed gather: same group-major, 4-column-interleaved
    /// sweep as [`Self::lut_gather_cols_bytes`], but the code stream
    /// carries two 4-bit codes per byte, so each lane expands **16
    /// codes from one u64 SWAR load** (low nibble = even k, matching the
    /// plane layout), and the table is read from the combined i32 entry
    /// plane (4 bytes per entry instead of 8 — a unit's per-group
    /// segment drops to 4 KB and stays L1-resident). Weight-side
    /// traffic halves; per-lane accumulation order is still ascending
    /// k, so results are bit-identical to the byte-plane gather.
    ///
    /// This is the portable scalar form; on x86-64 with AVX2 the decode
    /// hot path takes [`Self::lut_gather_cols_packed_avx2`] instead.
    fn lut_gather_cols_packed(
        &self,
        t: &AxLutTable,
        col0: usize,
        cols: &mut [f32],
        add: impl Fn(&mut PartialAcc, i32) + Copy,
    ) {
        const LANES: usize = 4;
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let cs = self.code_space;
        let cmask = cs - 1;
        // Packed planes exist only for ≤ 4-bit formats, whose mpFPMA
        // code space is exactly 16 — so a nibble can never index past a
        // table row.
        debug_assert!(cs >= 16, "packed planes imply a 16-entry code space");
        let finish = |pacc: &PartialAcc, g: usize, col: usize| -> f32 {
            let o_bits = self.norm.normalize(pacc);
            let scaled = if self.fpma_dequant {
                self.act.decode(self.axscale.apply(o_bits, self.scales[g * n + col]))
            } else {
                self.act.decode(o_bits) * self.scale_vals[g * n + col]
            };
            scaled as f32
        };
        // This worker's contiguous slice of the nibble-packed planes.
        let planes = self.planes.shard(col0, cols.len());
        // A group's table segment (gs rows of cs entries) and its packed
        // code bytes (gs/2: plane construction guarantees gs is even).
        let seg_of = |g: usize, col: usize| {
            let u = self.block_unit[g * nbc + col / self.block_cols] as usize;
            let r = (u * k + g * gs) * cs..(u * k + (g + 1) * gs) * cs;
            (&t.tcomb[r], &planes.plane(col)[g * gs / 2..(g + 1) * gs / 2])
        };
        // One 4-lane tile of one group: 16 k-steps per u64 code load.
        // Every `try_into().unwrap()` below converts a slice whose length
        // is fixed by the enclosing loop bounds (8 bytes / 256 entries),
        // so the conversions cannot fail.
        #[allow(clippy::unwrap_used)]
        let do_tile = |g: usize, j: usize, cols: &mut [f32]| {
            let (es0, cd0) = seg_of(g, col0 + j);
            let (es1, cd1) = seg_of(g, col0 + j + 1);
            let (es2, cd2) = seg_of(g, col0 + j + 2);
            let (es3, cd3) = seg_of(g, col0 + j + 3);
            let mut a0 = PartialAcc::new(self.act);
            let mut a1 = PartialAcc::new(self.act);
            let mut a2 = PartialAcc::new(self.act);
            let mut a3 = PartialAcc::new(self.act);
            let full = cd0.len() / 8;
            if cs == 16 {
                // The only width packed planes produce in practice.
                // Fixed-size block refs let the compiler prove every
                // index in bounds (`step * 16 + nibble ≤ 255`), so the
                // unrolled chain carries no bounds checks.
                for blk in 0..full {
                    let b = blk * 8;
                    let w0 = u64::from_le_bytes(cd0[b..b + 8].try_into().unwrap());
                    let w1 = u64::from_le_bytes(cd1[b..b + 8].try_into().unwrap());
                    let w2 = u64::from_le_bytes(cd2[b..b + 8].try_into().unwrap());
                    let w3 = u64::from_le_bytes(cd3[b..b + 8].try_into().unwrap());
                    let e = blk * 256;
                    let t0: &[i32; 256] = es0[e..e + 256].try_into().unwrap();
                    let t1: &[i32; 256] = es1[e..e + 256].try_into().unwrap();
                    let t2: &[i32; 256] = es2[e..e + 256].try_into().unwrap();
                    let t3: &[i32; 256] = es3[e..e + 256].try_into().unwrap();
                    for step in 0..16 {
                        let row = step * 16;
                        let sh = 4 * step;
                        add(&mut a0, t0[row + ((w0 >> sh) as usize & 0xf)]);
                        add(&mut a1, t1[row + ((w1 >> sh) as usize & 0xf)]);
                        add(&mut a2, t2[row + ((w2 >> sh) as usize & 0xf)]);
                        add(&mut a3, t3[row + ((w3 >> sh) as usize & 0xf)]);
                    }
                }
            } else {
                for blk in 0..full {
                    let b = blk * 8;
                    let w0 = u64::from_le_bytes(cd0[b..b + 8].try_into().unwrap());
                    let w1 = u64::from_le_bytes(cd1[b..b + 8].try_into().unwrap());
                    let w2 = u64::from_le_bytes(cd2[b..b + 8].try_into().unwrap());
                    let w3 = u64::from_le_bytes(cd3[b..b + 8].try_into().unwrap());
                    let ebase = blk * 16 * cs;
                    for step in 0..16 {
                        let row = ebase + step * cs;
                        let sh = 4 * step;
                        add(&mut a0, es0[row + ((w0 >> sh) as usize & 0xf & cmask)]);
                        add(&mut a1, es1[row + ((w1 >> sh) as usize & 0xf & cmask)]);
                        add(&mut a2, es2[row + ((w2 >> sh) as usize & 0xf & cmask)]);
                        add(&mut a3, es3[row + ((w3 >> sh) as usize & 0xf & cmask)]);
                    }
                }
            }
            // Leftover packed bytes (gs % 16 != 0): two k-steps each.
            for bi in full * 8..cd0.len() {
                let row = 2 * bi * cs;
                let (b0, b1) = (cd0[bi] as usize, cd1[bi] as usize);
                let (b2, b3) = (cd2[bi] as usize, cd3[bi] as usize);
                add(&mut a0, es0[row + (b0 & 0xf & cmask)]);
                add(&mut a1, es1[row + (b1 & 0xf & cmask)]);
                add(&mut a2, es2[row + (b2 & 0xf & cmask)]);
                add(&mut a3, es3[row + (b3 & 0xf & cmask)]);
                add(&mut a0, es0[row + cs + ((b0 >> 4) & cmask)]);
                add(&mut a1, es1[row + cs + ((b1 >> 4) & cmask)]);
                add(&mut a2, es2[row + cs + ((b2 >> 4) & cmask)]);
                add(&mut a3, es3[row + cs + ((b3 >> 4) & cmask)]);
            }
            for (l, acc) in [a0, a1, a2, a3].iter().enumerate() {
                cols[j + l] += finish(acc, g, col0 + j + l);
            }
        };
        cols.fill(0.0);
        let full_tiles = cols.len() / LANES;
        for g in 0..groups {
            // Tile visit order: grouped by the unit of each tile's first
            // column, so one unit's table segment (`gs × cs` entries —
            // 8 KB for FP4) stays L1-hot across every column that reads
            // it, instead of ping-ponging between units as adjacent
            // blocks alternate formats. Column order within a group is
            // free: each column gets exactly one `+=` per group, still
            // in ascending-g order, so the reorder changes no result
            // bit (the gather loads are latency-bound, making this the
            // dominant lever on wide decode rows).
            if self.units.len() > 1 {
                for u_pass in 0..self.units.len() {
                    for tile in 0..full_tiles {
                        let j = tile * LANES;
                        let u0 =
                            self.block_unit[g * nbc + (col0 + j) / self.block_cols] as usize;
                        if u0 == u_pass {
                            do_tile(g, j, cols);
                        }
                    }
                }
            } else {
                for tile in 0..full_tiles {
                    do_tile(g, tile * LANES, cols);
                }
            }
            // Remainder columns (< LANES) run the scalar chain.
            for (jj, col) in cols.iter_mut().enumerate().skip(full_tiles * LANES) {
                let (es, cd) = seg_of(g, col0 + jj);
                let mut pacc = PartialAcc::new(self.act);
                for (bi, &byte) in cd.iter().enumerate() {
                    let row = 2 * bi * cs;
                    add(&mut pacc, es[row + (byte as usize & 0xf & cmask)]);
                    add(&mut pacc, es[row + cs + ((byte as usize >> 4) & cmask)]);
                }
                *col += finish(&pacc, g, col0 + jj);
            }
        }
    }

    /// Whether the decode hot path can take the 8-lane AVX2 gather in
    /// [`axcore_simd`]: requires the standard 16-entry code space, a
    /// group depth that fills whole u64 code words, accumulator
    /// significands that provably fit the kernel's i32 lanes
    /// (`gs · 2^(man_bits+3)` bounds the running sum), runtime AVX2
    /// support, and a passing one-shot kernel self-test (a faulty vector
    /// unit demotes the tier instead of corrupting silently).
    fn avx2_gather_eligible(&self) -> bool {
        self.code_space == 16
            && self.group_size.is_multiple_of(16)
            && (self.group_size as u64) << (self.act.man_bits + 3) <= 1 << 31
            && axcore_simd::avx2_available()
            && axcore_simd::self_test()
    }

    /// AVX2 form of [`Self::lut_gather_cols_packed`]: eight columns per
    /// tile, with the per-step table lookups fused into one
    /// `vpgatherdd` over the combined i32 entry plane and the partial
    /// adder run branchlessly in 8 × i32 vector lanes (see
    /// [`axcore_simd::gather_group`] for the bit-identity argument).
    /// Tiles sweep in plain ascending order: at 4 bytes per entry all
    /// units' segments for one group fit L1 together, so the scalar
    /// path's unit-ordered visit is unnecessary here.
    fn lut_gather_cols_packed_avx2(&self, t: &AxLutTable, col0: usize, cols: &mut [f32]) {
        const LANES: usize = 8;
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let cs = self.code_space;
        debug_assert!(cs == 16 && gs.is_multiple_of(16));
        let finish = |pacc: &PartialAcc, g: usize, col: usize| -> f32 {
            let o_bits = self.norm.normalize(pacc);
            let scaled = if self.fpma_dequant {
                self.act.decode(self.axscale.apply(o_bits, self.scales[g * n + col]))
            } else {
                self.act.decode(o_bits) * self.scale_vals[g * n + col]
            };
            scaled as f32
        };
        // This worker's contiguous slice of the nibble-packed planes:
        // the vector kernel receives only these bytes, so a lane can
        // never gather codes from another shard's columns.
        let planes = self.planes.shard(col0, cols.len());
        cols.fill(0.0);
        let full_tiles = cols.len() / LANES;
        for g in 0..groups {
            let seg0 = g * gs / 2;
            let seg_len = gs / 2;
            for tile in 0..full_tiles {
                let j = tile * LANES;
                let mut bases = [0i32; LANES];
                let mut offsets = [0usize; LANES];
                for (l, base) in bases.iter_mut().enumerate() {
                    let col = col0 + j + l;
                    let u = self.block_unit[g * nbc + col / self.block_cols] as usize;
                    *base = ((u * k + g * gs) * cs) as i32;
                    offsets[l] = planes.offset_of(col) + seg0;
                }
                let (sig, exp) = axcore_simd::gather_group_planes(
                    &t.tcomb,
                    &bases,
                    planes.bytes(),
                    &offsets,
                    seg_len,
                );
                for l in 0..LANES {
                    let acc = PartialAcc::from_parts(exp[l], sig[l] as i64, self.act);
                    cols[j + l] += finish(&acc, g, col0 + j + l);
                }
            }
            // Remainder columns (< LANES) run the scalar seq chain on
            // the same entries.
            for (jj, col) in cols.iter_mut().enumerate().skip(full_tiles * LANES) {
                let u = self.block_unit[g * nbc + (col0 + jj) / self.block_cols] as usize;
                let es = &t.tcomb[(u * k + g * gs) * cs..(u * k + (g + 1) * gs) * cs];
                let cd = &planes.plane(col0 + jj)[g * gs / 2..(g + 1) * gs / 2];
                let mut pacc = PartialAcc::new(self.act);
                for (bi, &byte) in cd.iter().enumerate() {
                    let row = 2 * bi * cs;
                    pacc.add_prepared_unclamped_seq(split_entry(es[row + (byte as usize & 0xf)]));
                    pacc.add_prepared_unclamped_seq(split_entry(es[row + cs + (byte as usize >> 4)]));
                }
                *col += finish(&pacc, g, col0 + jj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::reference_gemm;
    use axcore_quant::GroupQuantizer;
    use axcore_softfloat::FP16;

    fn toy_weights(k: usize, n: usize) -> Vec<f32> {
        (0..k * n)
            .map(|i| ((i * 2654435761usize % 997) as f32 / 498.5 - 1.0) * 0.4)
            .collect()
    }

    fn toy_acts(m: usize, k: usize) -> Vec<f32> {
        (0..m * k)
            .map(|i| ((i * 40503 % 65536) as f32 / 32768.0 - 1.0) * 1.3)
            .collect()
    }

    #[test]
    fn close_to_reference_on_random_gemm() {
        let (m, k, n) = (4, 128, 8);
        let wf = toy_weights(k, n);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&wf, k, n);
        let a = toy_acts(m, k);
        let mut out = vec![0f32; m * n];
        AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");

        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let sig: f64 = reference.iter().map(|x| x * x).sum();
        let noise: f64 = reference
            .iter()
            .zip(&out)
            .map(|(r, o)| (r - *o as f64).powi(2))
            .sum();
        let snr = 10.0 * (sig / noise).log10();
        assert!(snr > 20.0, "SNR only {snr:.1} dB");
    }

    #[test]
    fn ablation_ladder_on_e1m2() {
        // The paper's Fig. 18 ordering — mpFPMA < mpFPMA+S < mpFPMA+S+C —
        // on E1M2-quantized weights (the format with the most subnormal
        // codes) and zero-mean data, at a sample size where the ordering is
        // statistically stable.
        let (m, k, n) = (16, 512, 32);
        let wf: Vec<f32> = (0..k * n)
            .map(|i| ((i * 2654435761usize % 9973) as f32 / 4986.5 - 1.0) * 0.4)
            .collect();
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 48271 % 65521) as f32 / 32760.5 - 1.0) * 1.3)
            .collect();
        let q = GroupQuantizer::fixed(QuantFormat::E1M2, 64).quantize(&wf, k, n);
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let sig: f64 = reference.iter().map(|x| x * x).sum();
        let snr_of = |cfg: AxCoreConfig| {
            let mut out = vec![0f32; m * n];
            AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut out).expect("gemm");
            let noise: f64 = reference
                .iter()
                .zip(&out)
                .map(|(r, o)| (r - *o as f64).powi(2))
                .sum();
            10.0 * (sig / noise).log10()
        };
        let base = snr_of(AxCoreConfig::mp_fpma_base());
        let s = snr_of(AxCoreConfig::with_snc_only());
        let sc = snr_of(AxCoreConfig::default());
        assert!(s > base + 0.5, "SNC gain: {base:.2} → {s:.2} dB");
        assert!(sc > s + 0.5, "compensation gain: {s:.2} → {sc:.2} dB");
    }

    #[test]
    fn compensation_removes_coherent_bias() {
        // Positive (uniform) data, as in the paper's Fig. 18: systematic
        // per-product errors accumulate *coherently* across the fan-in.
        // Uncompensated mpFPMA carries the Mitchell bias in both the PE
        // products and the AxScale dequantization; the C₁/C₂ constants
        // cancel it, collapsing both the bias and the total error.
        let (m, k, n) = (4, 256, 8);
        let wf: Vec<f32> = toy_weights(k, n).iter().map(|w| w.abs() + 0.01).collect();
        let q = GroupQuantizer::fixed(QuantFormat::E1M2, 64).quantize(&wf, k, n);
        let a: Vec<f32> = toy_acts(m, k).iter().map(|a| a.abs()).collect();
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let stats_of = |cfg: AxCoreConfig| {
            let mut out = vec![0f32; m * n];
            AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut out).expect("gemm");
            let rels: Vec<f64> = reference
                .iter()
                .zip(&out)
                .map(|(r, o)| (*o as f64 - r) / r)
                .collect();
            let bias = rels.iter().sum::<f64>() / rels.len() as f64;
            let rms = (rels.iter().map(|x| x * x).sum::<f64>() / rels.len() as f64).sqrt();
            (bias, rms)
        };
        let (bias_s, rms_s) = stats_of(AxCoreConfig::with_snc_only());
        let (bias_sc, rms_sc) = stats_of(AxCoreConfig::default());
        assert!(bias_s < -0.04, "uncompensated bias should be clearly negative: {bias_s}");
        assert!(
            bias_sc.abs() < bias_s.abs() / 3.0,
            "compensation must collapse the bias: {bias_s:+.4} → {bias_sc:+.4}"
        );
        assert!(rms_sc < rms_s * 0.5, "total error: {rms_s:.4} → {rms_sc:.4}");
    }

    #[test]
    fn zero_activations_give_zero_output() {
        let (m, k, n) = (2, 64, 4);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&toy_weights(k, n), k, n);
        let a = vec![0f32; m * k];
        let mut out = vec![1f32; m * n];
        AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_weights_give_zero_output() {
        let (m, k, n) = (2, 64, 4);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&vec![0f32; k * n], k, n);
        let a = toy_acts(m, k);
        let mut out = vec![1f32; m * n];
        AxCoreEngine::new(FP16).try_gemm(&a, m, &q, &mut out).expect("gemm");
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn linearity_in_activations() {
        // Doubling A doubles O (the datapath is exponent-linear and the
        // doubling is exact in FP16).
        let (m, k, n) = (1, 64, 4);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 64).quantize(&toy_weights(k, n), k, n);
        let a = toy_acts(m, k);
        let a2: Vec<f32> = a.iter().map(|x| x * 2.0).collect();
        let (mut o1, mut o2) = (vec![0f32; n], vec![0f32; n]);
        let eng = AxCoreEngine::with_config(FP16, AxCoreConfig::without_stochastic_rounding());
        eng.try_gemm(&a, m, &q, &mut o1).expect("gemm");
        eng.try_gemm(&a2, m, &q, &mut o2).expect("gemm");
        for j in 0..n {
            let rel = (o2[j] - 2.0 * o1[j]).abs() / o1[j].abs().max(1e-6);
            assert!(rel < 1e-3, "col {j}: {} vs 2×{}", o2[j], o1[j]);
        }
    }

    #[test]
    fn lut_tier_is_bit_identical_to_direct() {
        use axcore_parallel::{current_exec, with_exec, ExecConfig};
        // Adaptive FP4 mixes per-block formats, so the LUT table spans
        // several units with distinct code spaces and tie behaviour.
        let (m, k, n) = (3, 128, 16);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&toy_weights(k, n), k, n);
        let mut a = toy_acts(m, k);
        a[5] = 0.0; // Guard-zero activations must hit the table fill path
        a[k + 9] = 6.1e-5; // FP16 subnormal range
        let p = AxCoreEngine::new(FP16).preload(&q);
        let (mut direct, mut via_lut) = (vec![0f32; m * n], vec![0f32; m * n]);
        let pin = |lut| ExecConfig { lut, ..current_exec() };
        with_exec(pin(LutPolicy::Never), || p.try_gemm(&a, m, &mut direct).expect("gemm"));
        with_exec(pin(LutPolicy::Always), || p.try_gemm(&a, m, &mut via_lut).expect("gemm"));
        assert_eq!(
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_lut.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn packed_and_byte_plane_gathers_are_bit_identical() {
        use axcore_parallel::{current_exec, with_exec, ExecConfig};
        let (m, k, n) = (2, 128, 16);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&toy_weights(k, n), k, n);
        let a = toy_acts(m, k);
        let packed = AxCoreEngine::new(FP16).preload(&q);
        let bytes = AxCoreEngine::new(FP16).with_packed_planes(false).preload(&q);
        assert!(packed.planes.is_packed());
        assert!(!bytes.planes.is_packed());
        let (mut o1, mut o2) = (vec![0f32; m * n], vec![0f32; m * n]);
        with_exec(ExecConfig { lut: LutPolicy::Always, ..current_exec() }, || {
            packed.try_gemm(&a, m, &mut o1).expect("gemm");
            bytes.try_gemm(&a, m, &mut o2).expect("gemm");
        });
        assert_eq!(
            o1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            o2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    #[should_panic(expected = "requires FP-quantized weights")]
    fn rejects_int_weights() {
        let (k, n) = (32, 2);
        let q = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&toy_weights(k, n), k, n);
        let mut out = vec![0f32; n];
        AxCoreEngine::new(FP16).try_gemm(&vec![1.0; k], 1, &q, &mut out).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn names_follow_ablation_ladder() {
        assert_eq!(AxCoreEngine::new(FP16).name(), "AxCore");
        assert_eq!(
            AxCoreEngine::with_config(FP16, AxCoreConfig::mp_fpma_base()).name(),
            "mpFPMA"
        );
        assert_eq!(
            AxCoreEngine::with_config(FP16, AxCoreConfig::with_snc_only()).name(),
            "mpFPMA+S"
        );
        assert_eq!(
            AxCoreEngine::with_config(FP16, AxCoreConfig::without_stochastic_rounding()).name(),
            "mpFPMA+S(-SR)+C"
        );
    }
}
