//! A cycle-stepped structural model of the AxCore weight-stationary
//! systolic array (Fig. 8).
//!
//! Where [`crate::engines::AxCoreEngine`] computes the same arithmetic with
//! plain loops, this module moves data the way the silicon does: quantized
//! weights are preloaded and held stationary in the PEs, PreAdd terms enter
//! each row from the left with the classic one-cycle-per-row skew and hop
//! one PE per cycle to the right, and partial sums hop one PE per cycle
//! downward, emerging at the column bottoms after `rows` cycles.
//!
//! Its purpose is validation: the tests (and the cross-crate integration
//! suite) assert that streaming a GEMM through this clocked structure
//! produces **bit-identical** results to the functional engine, which pins
//! down the dataflow semantics (accumulation order, guard behaviour,
//! per-activation stochastic bits) rather than just the arithmetic.

use crate::accum::{NormUnit, PartialAcc};
use crate::axscale::AxScale;
use crate::pe::{Pe, WeightLane};
use crate::preadd::{PreAdd, PreAddTerm};
use axcore_fpma::MpFpma;
use axcore_softfloat::FpFormat;

/// The clocked PE array. One instance models a single tile of
/// `rows × cols` PEs with its weights loaded.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
    pe: Pe,
    lanes: Vec<WeightLane>,
    /// Horizontal pipeline registers: the T term held by each PE.
    t_regs: Vec<Option<PreAddTerm>>,
    /// Vertical pipeline registers: the partial sum held by each PE.
    psum_regs: Vec<Option<PartialAcc>>,
    act: FpFormat,
    cycle: u64,
}

impl SystolicArray {
    /// Build an array with all-zero weights.
    pub fn new(act: FpFormat, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "empty array");
        SystolicArray {
            rows,
            cols,
            pe: Pe::new(act),
            lanes: vec![
                WeightLane {
                    zero_down: true,
                    zero_up: true,
                    sign: false,
                    addend_down: 0,
                    addend_up: 0
                };
                rows * cols
            ],
            t_regs: vec![None; rows * cols],
            psum_regs: vec![None; rows * cols],
            act,
            cycle: 0,
        }
    }

    /// Array height (K direction).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width (N direction).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cycles elapsed since construction / the last reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Preload stationary weights: `codes[r][c]` for `r < rows`, `c < cols`,
    /// preprocessed through the given mpFPMA unit (this is the weight-load
    /// phase; in hardware it takes `rows` cycles, which the performance
    /// model in `axcore-sim` accounts for).
    pub fn load_weights(&mut self, unit: &MpFpma, codes: &[u8]) {
        assert_eq!(codes.len(), self.rows * self.cols, "weight tile shape");
        for (lane, &code) in self.lanes.iter_mut().zip(codes) {
            *lane = WeightLane::new(unit, code);
        }
    }

    /// Clear all pipeline registers (between passes).
    pub fn flush(&mut self) {
        self.t_regs.fill(None);
        self.psum_regs.fill(None);
    }

    /// Advance one clock. `row_inputs[r]` is the PreAdd term entering row
    /// `r` from the left this cycle (if any). Returns the partial sums
    /// that fell out of the bottom of each column this cycle.
    pub fn step(&mut self, row_inputs: &[Option<PreAddTerm>]) -> Vec<Option<PartialAcc>> {
        let no_top = vec![None; self.cols];
        self.step_with_top(row_inputs, &no_top)
    }

    /// Advance one clock with partial sums injected at the top of each
    /// column (`top_inputs[c]`). This is how vertically-adjacent tiles
    /// chain in the Fig.-13 grid: the lower tile's column tops consume the
    /// upper tile's raw (non-normalized) outputs, exactly as if the column
    /// were one continuous chain of PEs.
    pub fn step_with_top(
        &mut self,
        row_inputs: &[Option<PreAddTerm>],
        top_inputs: &[Option<PartialAcc>],
    ) -> Vec<Option<PartialAcc>> {
        assert_eq!(row_inputs.len(), self.rows, "one input lane per row");
        assert_eq!(top_inputs.len(), self.cols, "one top lane per column");
        let idx = |r: usize, c: usize| r * self.cols + c;

        // Collect the values falling out of the bottom row *before* the
        // registers advance.
        let outputs: Vec<Option<PartialAcc>> =
            (0..self.cols).map(|c| self.psum_regs[idx(self.rows - 1, c)]).collect();

        // Compute next-state registers from current-state registers.
        let mut t_next = vec![None; self.rows * self.cols];
        let mut p_next = vec![None; self.rows * self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                // T input: from the left neighbour's register, or the
                // row port at column 0.
                let t_in = if c == 0 {
                    row_inputs[r]
                } else {
                    self.t_regs[idx(r, c - 1)]
                };
                t_next[idx(r, c)] = t_in;
                // Partial-sum input: from the PE above; at the top row,
                // an injected chain value (tile stacking) or a fresh
                // accumulator.
                let p_in = if r == 0 {
                    top_inputs[c].or_else(|| t_in.map(|_| PartialAcc::new(self.act)))
                } else {
                    self.psum_regs[idx(r - 1, c)]
                };
                p_next[idx(r, c)] = match (t_in, p_in) {
                    (Some(term), Some(mut acc)) => {
                        self.pe.mac(
                            &mut acc,
                            term.t,
                            term.sign,
                            term.zero,
                            term.stochastic_bit,
                            &self.lanes[idx(r, c)],
                        );
                        Some(acc)
                    }
                    // A T term with no incoming psum cannot happen on a
                    // well-formed schedule (row 0 always mints one), but a
                    // lone psum passes through (bubble in the T stream).
                    (Some(_), None) => None,
                    (None, p) => p,
                };
            }
        }
        self.t_regs = t_next;
        self.psum_regs = p_next;
        self.cycle += 1;
        outputs
    }
}

/// Drive a full `M × rows × cols` GEMM tile through the array with the
/// standard input skew, returning the raw partial sums per `(m, col)` and
/// the cycle count consumed. `terms[m][r]` is the PreAdd term of activation
/// row `m`, channel `r`.
pub fn run_tile(
    array: &mut SystolicArray,
    terms: &[Vec<PreAddTerm>],
) -> (Vec<Vec<PartialAcc>>, u64) {
    run_tile_chained(array, terms, None)
}

/// Like [`run_tile`], but with partial sums injected at the top of each
/// column per activation row (`init[m][c]`) — the vertical tile-chaining
/// path of the Fig.-13 grid.
pub fn run_tile_chained(
    array: &mut SystolicArray,
    terms: &[Vec<PreAddTerm>],
    init: Option<&[Vec<PartialAcc>]>,
) -> (Vec<Vec<PartialAcc>>, u64) {
    let m = terms.len();
    let (rows, cols) = (array.rows(), array.cols());
    for t in terms {
        assert_eq!(t.len(), rows, "terms must cover every row");
    }
    if let Some(init) = init {
        assert_eq!(init.len(), m, "one init row per activation");
    }
    array.flush();
    let start = array.cycle();
    let mut results: Vec<Vec<Option<PartialAcc>>> = vec![vec![None; cols]; m];
    // Row r of activation m is injected at cycle m + r; the result for
    // (m, col) appears at the bottom at cycle m + rows + col.
    let total = m + rows + cols;
    for tau in 0..total {
        let inputs: Vec<Option<PreAddTerm>> = (0..rows)
            .map(|r| {
                let mi = tau as i64 - r as i64;
                if mi >= 0 && (mi as usize) < m {
                    Some(terms[mi as usize][r])
                } else {
                    None
                }
            })
            .collect();
        // The chain value for (m, c) must reach PE(0, c) together with the
        // activation, i.e. at cycle m + c.
        let tops: Vec<Option<PartialAcc>> = (0..cols)
            .map(|c| {
                let mi = tau as i64 - c as i64;
                match init {
                    Some(init) if mi >= 0 && (mi as usize) < m => Some(init[mi as usize][c]),
                    _ => None,
                }
            })
            .collect();
        let outs = array.step_with_top(&inputs, &tops);
        for (c, o) in outs.into_iter().enumerate() {
            if let Some(acc) = o {
                let mi = tau as i64 - rows as i64 - c as i64;
                if mi >= 0 && (mi as usize) < m {
                    results[mi as usize][c] = Some(acc);
                }
            }
        }
    }
    let done: Vec<Vec<PartialAcc>> = results
        .into_iter()
        .map(|row| {
            row.into_iter()
                // The drain loop above runs the full output schedule, so
                // every slot is filled; an empty one is a model bug.
                .map(|o| {
                    #[allow(clippy::expect_used)]
                    o.expect("every output must emerge on schedule")
                })
                .collect()
        })
        .collect();
    (done, array.cycle() - start)
}

/// Full structural GEMM over a quantized matrix: tiles the array over the
/// groups/columns, normalizes, applies AxScale, and accumulates in FP32 —
/// the complete Fig. 8 pipeline on the clocked array.
///
/// Requirements (structural model only; the functional engine is general):
/// the weight group size must equal the array height, every block must use
/// one FP format, and `n` must be a multiple of the array width.
#[allow(clippy::too_many_arguments)]
pub fn systolic_gemm(
    act: FpFormat,
    array_rows: usize,
    array_cols: usize,
    a: &[f32],
    m: usize,
    w: &axcore_quant::QuantizedMatrix,
    engine_cfg: crate::engines::AxCoreConfig,
    out: &mut [f32],
) -> u64 {
    use axcore_quant::QuantFormat;
    assert_eq!(w.group_size, array_rows, "group size must match array height");
    assert_eq!(w.n % array_cols, 0, "n must tile the array width");
    assert_eq!(a.len(), m * w.k);
    assert_eq!(out.len(), m * w.n);

    let mut array = SystolicArray::new(act, array_rows, array_cols);
    let norm = NormUnit::new(act);
    let axscale = if engine_cfg.compensation {
        AxScale::new(act)
    } else {
        AxScale::new(act).without_compensation()
    };
    out.fill(0.0);
    let mut cycles = 0u64;

    for g in 0..w.num_groups() {
        for tile_c in 0..w.n / array_cols {
            let col0 = tile_c * array_cols;
            let QuantFormat::Fp(wf) = w.format(g * array_rows, col0) else {
                panic!("structural model requires FP weights");
            };
            let mut unit = MpFpma::new(act, wf).with_compensation(engine_cfg.compensation);
            if engine_cfg.snc {
                unit = unit.with_snc(engine_cfg.snc_policy);
            } else {
                unit = unit.without_snc();
            }
            let preadd = PreAdd::for_unit(&unit);
            // Weight preload (codes for this tile).
            let mut codes = vec![0u8; array_rows * array_cols];
            for r in 0..array_rows {
                for c in 0..array_cols {
                    codes[r * array_cols + c] = w.code(g * array_rows + r, col0 + c);
                }
            }
            array.load_weights(&unit, &codes);
            cycles += array_rows as u64; // preload cost
            // Stream activations.
            let terms: Vec<Vec<PreAddTerm>> = (0..m)
                .map(|i| {
                    (0..array_rows)
                        .map(|r| preadd.term(act.encode(a[i * w.k + g * array_rows + r] as f64)))
                        .collect()
                })
                .collect();
            let (results, tile_cycles) = run_tile(&mut array, &terms);
            cycles += tile_cycles;
            for (i, row) in results.iter().enumerate() {
                for (c, acc) in row.iter().enumerate() {
                    // SEU tap on the array's normalized output bits (no-op
                    // unless a fault plan is armed).
                    let o_bits = crate::reliability::faults::tap_systolic(norm.normalize(acc));
                    let scale_bits = w.scales[g * w.n + col0 + c];
                    let scaled = if engine_cfg.fpma_dequant {
                        act.decode(axscale.apply(o_bits, scale_bits))
                    } else {
                        act.decode(o_bits) * w.scale(g * array_rows, col0 + c)
                    };
                    out[i * w.n + col0 + c] += scaled as f32;
                }
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{AxCoreConfig, AxCoreEngine, GemmEngine};
    use axcore_quant::{GroupQuantizer, QuantFormat};
    use axcore_softfloat::FP16;

    fn weights(k: usize, n: usize) -> Vec<f32> {
        (0..k * n)
            .map(|i| ((i * 2654435761usize % 613) as f32 / 306.5 - 1.0) * 0.7)
            .collect()
    }

    fn acts(m: usize, k: usize) -> Vec<f32> {
        (0..m * k)
            .map(|i| ((i * 48271 % 1217) as f32 / 608.5 - 1.0) * 1.1)
            .collect()
    }

    #[test]
    fn structural_matches_functional_bitwise() {
        let (m, k, n) = (5, 16, 8);
        let (rows, cols) = (16, 4);
        let wf = weights(k, n);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, rows).quantize(&wf, k, n);
        let a = acts(m, k);
        let cfg = AxCoreConfig::default();

        let mut out_struct = vec![0f32; m * n];
        systolic_gemm(FP16, rows, cols, &a, m, &q, cfg, &mut out_struct);

        let mut out_func = vec![0f32; m * n];
        AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut out_func).expect("gemm");

        assert_eq!(out_struct, out_func, "dataflow must be bit-identical");
    }

    #[test]
    fn structural_matches_functional_multi_group() {
        let (m, k, n) = (3, 32, 4);
        let (rows, cols) = (16, 4);
        let wf = weights(k, n);
        let q = GroupQuantizer::fixed(QuantFormat::E1M2, rows).quantize(&wf, k, n);
        let a = acts(m, k);
        for cfg in [
            AxCoreConfig::default(),
            AxCoreConfig::mp_fpma_base(),
            AxCoreConfig::with_snc_only(),
            AxCoreConfig::without_stochastic_rounding(),
        ] {
            let mut out_struct = vec![0f32; m * n];
            systolic_gemm(FP16, rows, cols, &a, m, &q, cfg, &mut out_struct);
            let mut out_func = vec![0f32; m * n];
            AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut out_func).expect("gemm");
            assert_eq!(out_struct, out_func, "cfg {cfg:?}");
        }
    }

    #[test]
    fn pipeline_latency_is_m_plus_rows_plus_cols() {
        let (rows, cols) = (8, 4);
        let mut array = SystolicArray::new(FP16, rows, cols);
        let unit = MpFpma::new(FP16, axcore_softfloat::FP4_E2M1);
        array.load_weights(&unit, &vec![FP4_CODE_ONE; rows * cols]);
        let preadd = PreAdd::for_unit(&unit);
        let terms: Vec<Vec<PreAddTerm>> = (0..3)
            .map(|_| (0..rows).map(|_| preadd.term(FP16.encode(1.0))).collect())
            .collect();
        let (_, cycles) = run_tile(&mut array, &terms);
        assert_eq!(cycles, (3 + rows + cols) as u64);
    }

    /// E2M1 code for 1.0 ("0_01_0").
    const FP4_CODE_ONE: u8 = 0b0010;

    #[test]
    fn all_ones_times_ones_counts_fanin() {
        // a = 1⃗, w = 1⃗: output = group size, exactly (powers of two).
        let rows = 16;
        let mut array = SystolicArray::new(FP16, rows, 1);
        let unit = MpFpma::new(FP16, axcore_softfloat::FP4_E2M1).with_compensation(false);
        array.load_weights(&unit, &vec![FP4_CODE_ONE; rows]);
        let preadd = PreAdd::for_unit(&unit);
        let terms = vec![(0..rows).map(|_| preadd.term(FP16.encode(1.0))).collect()];
        let (res, _) = run_tile(&mut array, &terms);
        assert_eq!(res[0][0].value(FP16), rows as f64);
    }

    #[test]
    #[should_panic(expected = "group size must match array height")]
    fn rejects_mismatched_group() {
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 8).quantize(&weights(16, 4), 16, 4);
        let mut out = vec![0f32; 4];
        systolic_gemm(FP16, 16, 4, &acts(1, 16), 1, &q, AxCoreConfig::default(), &mut out);
    }
}
