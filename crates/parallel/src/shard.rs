//! Column-shard planning for prepared-weight GEMMs.
//!
//! A [`ShardPlan`] partitions the `n` output columns of one GEMM into at
//! most `workers` contiguous shards. Shard boundaries are aligned to a
//! multiple of the engine's column blocking (`col_align`) that is also
//! at least 16 columns — one 64-byte cache line of `f32` output — so no
//! two shards ever write the same output cache line (no false sharing)
//! and a weight block's format unit never straddles a shard boundary.
//!
//! The plan is pure arithmetic: it holds three `usize`s, never
//! allocates, and [`ShardPlan::shard`] computes a shard's column range
//! on demand. That keeps steady-state shard dispatch allocation-free
//! (proved by `tests/zero_alloc_decode.rs`) and lets the same plan be
//! rebuilt per call for pennies.
//!
//! Shard index ↔ pool-slot index is the affinity contract: shard `s` is
//! always executed by pool slot `s` (slot 0 = the submitting thread, see
//! [`crate::pool`]), i.e. by the same OS thread on every call, so that
//! thread's scratch arena keeps the shard's LUT table hot.

/// One contiguous column range of a sharded GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index, equal to the pool slot that executes it.
    pub index: usize,
    /// First output column owned by this shard.
    pub col0: usize,
    /// Number of columns owned (may be 0 for trailing shards of tiny
    /// matrices; such shards do no work).
    pub cols: usize,
}

/// A column partition of an `n`-wide GEMM output. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    n: usize,
    align: usize,
    nshards: usize,
}

/// Smallest shard-boundary alignment: a multiple of `col_align` that
/// covers at least one 64-byte output cache line (16 `f32` columns).
fn boundary_align(col_align: usize) -> usize {
    let col_align = col_align.max(1);
    col_align * 16usize.div_ceil(col_align)
}

impl ShardPlan {
    /// Plan shards for `n` output columns over `workers` participants —
    /// one shard per worker, capped at the number of aligned column
    /// blocks — with shard boundaries aligned to `col_align` columns (the
    /// engine's column blocking; 1 when there is none).
    pub fn new(n: usize, workers: usize, col_align: usize) -> ShardPlan {
        let align = boundary_align(col_align);
        let blocks = n.div_ceil(align).max(1);
        let nshards = workers.clamp(1, blocks);
        ShardPlan { n, align, nshards }
    }

    /// Number of shards (= participants the dispatch will use).
    pub fn num_shards(&self) -> usize {
        self.nshards
    }

    /// Total output columns being partitioned.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `s`-th shard's column range. Shards tile `0..n` contiguously
    /// in index order; earlier shards get the remainder blocks.
    pub fn shard(&self, s: usize) -> Shard {
        debug_assert!(s < self.nshards);
        let blocks = self.n.div_ceil(self.align).max(1);
        let per = blocks / self.nshards;
        let rem = blocks % self.nshards;
        let b0 = s * per + s.min(rem);
        let b1 = b0 + per + usize::from(s < rem);
        let col0 = (b0 * self.align).min(self.n);
        let col1 = (b1 * self.align).min(self.n);
        Shard { index: s, col0, cols: col1 - col0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every plan must tile `0..n` exactly, in order, with aligned
    /// interior boundaries.
    fn check_tiling(plan: &ShardPlan, n: usize, col_align: usize) {
        let mut next = 0usize;
        for s in 0..plan.num_shards() {
            let sh = plan.shard(s);
            assert_eq!(sh.index, s);
            assert_eq!(sh.col0, next, "shards must be contiguous");
            if s + 1 < plan.num_shards() && sh.col0 + sh.cols < n {
                assert_eq!(
                    (sh.col0 + sh.cols) % boundary_align(col_align),
                    0,
                    "interior boundary must be aligned"
                );
            }
            next += sh.cols;
        }
        assert_eq!(next, n, "shards must cover every column");
    }

    #[test]
    fn plans_tile_exactly_for_many_shapes() {
        for n in [1usize, 7, 15, 16, 17, 63, 64, 100, 512, 513, 4096] {
            for workers in [1usize, 2, 3, 4, 8, 64] {
                for col_align in [1usize, 2, 4, 8, 16, 32, 40] {
                    let plan = ShardPlan::new(n, workers, col_align);
                    assert!(plan.num_shards() >= 1);
                    assert!(plan.num_shards() <= workers.max(1));
                    check_tiling(&plan, n, col_align);
                }
            }
        }
    }

    #[test]
    fn single_worker_is_one_shard() {
        let plan = ShardPlan::new(4096, 1, 4);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.shard(0), Shard { index: 0, col0: 0, cols: 4096 });
    }

    #[test]
    fn tiny_n_caps_shard_count() {
        // 20 columns at alignment 16 is two blocks: at most two shards
        // regardless of worker count, and no empty interior shard.
        let plan = ShardPlan::new(20, 8, 1);
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.shard(0).cols, 16);
        assert_eq!(plan.shard(1).cols, 4);
    }

    #[test]
    fn boundary_respects_cache_line_and_block() {
        assert_eq!(boundary_align(1), 16);
        assert_eq!(boundary_align(4), 16);
        assert_eq!(boundary_align(16), 16);
        assert_eq!(boundary_align(24), 24);
        assert_eq!(boundary_align(40), 40);
        assert_eq!(boundary_align(5), 20);
    }
}
