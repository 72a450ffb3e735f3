//! Tile-level organization of the GEMM unit (Fig. 13): the 64×64 array is
//! built as a grid of tiles (4×4 in the paper's configuration), each a
//! smaller systolic array; the shared Norm / AxScale / Accumulator chain
//! sits at the grid's column outputs.
//!
//! The tile grid matters for two reasons the paper calls out: the PreAdd
//! stream is shared within tile rows (correction advancing amortized), and
//! normalization is shared at tile granularity (normalization postponing).
//! Functionally, vertical tile neighbours chain their *non-normalized*
//! partial sums — this module verifies that chaining tiles reproduces the
//! monolithic array bit-for-bit, which is the property that makes the
//! tiling free.

use crate::accum::{NormUnit, PartialAcc};
use crate::axscale::AxScale;
use crate::engines::AxCoreConfig;
use crate::error::GemmError;
use crate::preadd::{PreAdd, PreAddTerm};
use crate::systolic::{run_tile_chained, SystolicArray};
use axcore_fpma::MpFpma;
use axcore_quant::{QuantFormat, QuantizedMatrix};
use axcore_softfloat::FpFormat;

/// A grid of systolic tiles covering `rows × cols` PEs with
/// `tile_rows × tile_cols` PEs per tile.
#[derive(Debug)]
pub struct TileGrid {
    act: FpFormat,
    rows: usize,
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
}

impl TileGrid {
    /// Build a grid description.
    ///
    /// # Panics
    ///
    /// Panics unless tiles evenly cover the array (shim over
    /// [`TileGrid::try_new`]).
    pub fn new(act: FpFormat, rows: usize, cols: usize, tile_rows: usize, tile_cols: usize) -> Self {
        Self::try_new(act, rows, cols, tile_rows, tile_cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a grid description, reporting non-covering tilings as a
    /// [`GemmError::DimMismatch`].
    pub fn try_new(
        act: FpFormat,
        rows: usize,
        cols: usize,
        tile_rows: usize,
        tile_cols: usize,
    ) -> Result<Self, GemmError> {
        if !rows.is_multiple_of(tile_rows) || !cols.is_multiple_of(tile_cols) {
            return Err(GemmError::DimMismatch {
                what: "tiles must cover the array",
                expected: rows * cols,
                got: tile_rows * tile_cols,
            });
        }
        Ok(TileGrid { act, rows, cols, tile_rows, tile_cols })
    }

    /// Number of tiles in each direction `(vertical, horizontal)`.
    pub fn tile_counts(&self) -> (usize, usize) {
        (self.rows / self.tile_rows, self.cols / self.tile_cols)
    }

    /// Run one full `m × rows × cols` GEMM pass over a weight group that
    /// spans the grid height, chaining the non-normalized partial sums of
    /// vertically-adjacent tiles, then normalizing/scaling once per
    /// column (the Fig.-13 post-processing chain). Returns the scaled f64
    /// outputs per `(m, col)`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_group(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        group: usize,
        col0: usize,
        cfg: AxCoreConfig,
    ) -> Vec<f64> {
        let act = self.act;
        let QuantFormat::Fp(wf) = w.format(group * self.rows, col0) else {
            panic!("tile grid requires FP weights");
        };
        let mut unit = MpFpma::new(act, wf).with_compensation(cfg.compensation);
        unit = if cfg.snc {
            unit.with_snc(cfg.snc_policy)
        } else {
            unit.without_snc()
        };
        let preadd = PreAdd::for_unit(&unit);
        let norm = NormUnit::new(act);
        let axscale = if cfg.compensation {
            AxScale::new(act)
        } else {
            AxScale::new(act).without_compensation()
        };

        let (vtiles, htiles) = self.tile_counts();
        let mut out = vec![0f64; m * self.cols];
        for ht in 0..htiles {
            // Chain this tile-column's partial sums down the grid: each
            // tile's raw column outputs feed the next tile's column tops,
            // exactly as one continuous column of PEs.
            let mut chain: Option<Vec<Vec<PartialAcc>>> = None;
            for vt in 0..vtiles {
                let mut array = SystolicArray::new(act, self.tile_rows, self.tile_cols);
                let mut codes = vec![0u8; self.tile_rows * self.tile_cols];
                for r in 0..self.tile_rows {
                    for c in 0..self.tile_cols {
                        codes[r * self.tile_cols + c] = w.code(
                            group * self.rows + vt * self.tile_rows + r,
                            col0 + ht * self.tile_cols + c,
                        );
                    }
                }
                array.load_weights(&unit, &codes);
                let terms: Vec<Vec<PreAddTerm>> = (0..m)
                    .map(|i| {
                        (0..self.tile_rows)
                            .map(|r| {
                                let kk = group * self.rows + vt * self.tile_rows + r;
                                preadd.term(act.encode(a[i * w.k + kk] as f64))
                            })
                            .collect()
                    })
                    .collect();
                let (results, _) = run_tile_chained(&mut array, &terms, chain.as_deref());
                chain = Some(results);
            }
            // The vertical-tile loop runs at least once (`groups >= 1`),
            // so the chain is always populated here.
            #[allow(clippy::expect_used)]
            let col_accs = chain.expect("at least one tile row");
            for (i, accs) in col_accs.iter().enumerate() {
                for (c, acc) in accs.iter().enumerate() {
                    let col = col0 + ht * self.tile_cols + c;
                    let o_bits = norm.normalize(acc);
                    let scale_bits = w.scales[group * w.n + col];
                    let scaled = if cfg.fpma_dequant {
                        act.decode(axscale.apply(o_bits, scale_bits))
                    } else {
                        act.decode(o_bits) * w.scale(group * self.rows, col)
                    };
                    out[i * self.cols + (col - col0)] = scaled;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{AxCoreEngine, GemmEngine};
    use axcore_quant::GroupQuantizer;
    use axcore_softfloat::FP16;

    fn setup(k: usize, n: usize) -> (Vec<f32>, QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..k * n)
            .map(|i| ((i * 2654435761usize % 613) as f32 / 306.5 - 1.0) * 0.5)
            .collect();
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, k).quantize(&w, k, n);
        let a: Vec<f32> = (0..3 * k)
            .map(|i| (i * 48271 % 1217) as f32 / 608.5 - 1.0)
            .collect();
        (a, q, w)
    }

    #[test]
    fn tiled_grid_matches_functional_engine() {
        // One weight group spanning the grid: 16×8 PEs as 2×2 tiles of 8×4.
        let (k, n, m) = (16usize, 8usize, 3usize);
        let (a, q, _) = setup(k, n);
        let cfg = AxCoreConfig::default();
        let grid = TileGrid::new(FP16, k, n, 8, 4);
        let tiled = grid.run_group(&a, m, &q, 0, 0, cfg);

        let mut func = vec![0f32; m * n];
        AxCoreEngine::with_config(FP16, cfg).try_gemm(&a, m, &q, &mut func).expect("gemm");
        for i in 0..m * n {
            assert_eq!(tiled[i] as f32, func[i], "elem {i}");
        }
    }

    #[test]
    fn tiling_granularity_is_free() {
        // 1×1 tiling vs 4×2 tiling vs monolithic: all bit-identical,
        // because the inter-tile chain carries non-normalized sums.
        let (k, n, m) = (8usize, 4usize, 2usize);
        let (a, q, _) = setup(k, n);
        let cfg = AxCoreConfig::without_stochastic_rounding();
        let base = TileGrid::new(FP16, k, n, k, n).run_group(&a, m, &q, 0, 0, cfg);
        for (tr, tc) in [(1usize, 1usize), (4, 2), (2, 4), (8, 1)] {
            let t = TileGrid::new(FP16, k, n, tr, tc).run_group(&a, m, &q, 0, 0, cfg);
            assert_eq!(t, base, "tiling {tr}x{tc}");
        }
    }

    #[test]
    #[should_panic(expected = "tiles must cover the array")]
    fn rejects_non_covering_tiles() {
        TileGrid::new(FP16, 16, 8, 5, 4);
    }
}
