//! Prepared-weight GEMM execution: the weight-preload phase of the
//! systolic schedule, factored out of [`GemmEngine::try_gemm`] so it
//! runs once per weight matrix instead of once per call.
//!
//! In the hardware, weights are loaded into the array once and stay
//! stationary while many activation tiles stream past (prefill batches,
//! or thousands of single-row decode steps). The functional engines
//! previously rebuilt all weight-derived state — mpFPMA units, decoded
//! [`WeightLane`]s, dequantized weight copies — inside every `gemm`
//! call, which dominates the cost of decode-shaped (`m = 1`) GEMMs.
//! [`GemmEngine::try_prepare`] returns a [`PreparedGemm`] object holding
//! exactly that state; callers that reuse a weight matrix hold on to it
//! and call [`PreparedGemm::try_gemm`] per activation tile.
//!
//! # Parallel execution and determinism
//!
//! Prepared GEMMs execute on the persistent worker pool (see
//! [`axcore_parallel`]), partitioned into **column shards**: every
//! shape — prefill and decode alike — splits
//! the `n` output columns into one contiguous, cache-line-aligned shard
//! per worker with stable shard→thread affinity
//! ([`axcore_parallel::ShardPlan`]), so each worker owns its slice of
//! the code planes, builds its LUT table in its own arena slot, and
//! writes disjoint output columns with no barrier and no false sharing.
//! Prefill additionally blocks each shard into row panels × column
//! tiles so weight state is re-read from L2, not DRAM. Per-worker
//! scratch (activation encodes, LUT tables) is drawn from the
//! thread-local [`axcore_parallel::arena`], so
//! steady-state decode calls allocate nothing. Every engine in
//! this crate computes each output element `(i, col)` independently —
//! including AxCore's stochastic SNC tie bit, which is a deterministic
//! function of the activation mantissa MSB (§5.2.2), not of any shared
//! RNG state — and each chunk's placement in the output buffer is a
//! function of its chunk index alone. Results are therefore
//! **bit-identical at any thread count**, which
//! `tests/parallel_exactness.rs` locks in property-tests.
//!
//! # Verified execution
//!
//! Every prepared engine runs its calls through one driver,
//! [`run_ladder`]: the engine declares its rungs through [`Ladder`]
//! (which LUT rungs a call may use, a per-rung integrity check, how to
//! run a rung, how to recover from the pristine matrix) and the driver
//! walks the tier ladder W4A8 → AVX2-LUT → SWAR-LUT → direct with
//! quarantine, panic containment, ABFT and a published
//! [`axcore_parallel::ExecReport`] (DESIGN.md §7). The driver reads the
//! call's [`ExecConfig`](axcore_parallel::ExecConfig) once and passes
//! its fields down: the LUT and W4A8 policies pick the rungs, the verify
//! policy the checks, the thread count the shard plan.
//!
//! [`WeightLane`]: crate::pe::WeightLane
//! [`GemmEngine::try_gemm`]: crate::engines::GemmEngine::try_gemm
//! [`GemmEngine::try_prepare`]: crate::engines::GemmEngine::try_prepare

use crate::engines::w4a8::W4a8Prep;
use crate::engines::{act, LutPolicy};
use crate::error::GemmError;
use crate::reliability::Verifier;
use axcore_parallel::{arena, health, FailReason, Tier};

/// A weight matrix preloaded into one engine's stationary form.
///
/// Created by [`GemmEngine::try_prepare`]; all weight-only preprocessing
/// (format-unit construction, lane decoding, dequantization) happened at
/// creation time, so [`PreparedGemm::try_gemm`] only streams activations.
///
/// [`GemmEngine::try_prepare`]: crate::engines::GemmEngine::try_prepare
pub trait PreparedGemm: std::fmt::Debug + Send + Sync {
    /// Input-channel (accumulation) dimension of the prepared weights.
    fn k(&self) -> usize;

    /// Output-channel dimension of the prepared weights.
    fn n(&self) -> usize;

    /// Multiply an `m × k` activation tile against the prepared weights,
    /// overwriting `out` (`m × n`, row-major), reporting shape problems
    /// (and unrecoverable execution failures) as a [`GemmError`]. The
    /// output is bit-identical to the owning engine's
    /// [`GemmEngine::try_gemm`] on the same matrix, and stays so when
    /// verification is active (see [`crate::reliability::VerifyPolicy`]).
    ///
    /// [`GemmEngine::try_gemm`]: crate::engines::GemmEngine::try_gemm
    fn try_gemm(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError>;

    /// Named at-rest fault-injection surfaces of this prepared state
    /// (empty when the engine exposes none).
    fn fault_sites(&self) -> &'static [&'static str] {
        &[]
    }

    /// Size of one fault surface as `(words, bits_per_word)`; `(0, 0)`
    /// for unknown sites.
    fn fault_surface(&self, _site: &str) -> (usize, u32) {
        (0, 0)
    }

    /// Flip one bit of one word of an at-rest fault surface (stored
    /// integrity checksums deliberately go stale). Returns whether the
    /// site exists and the flip was applied.
    fn inject_fault(&mut self, _site: &str, _word: usize, _bit: u32) -> bool {
        false
    }

    /// Test hook: corrupt the W4A8 planes (their stored checksum goes
    /// stale). Returns whether this prepared state has W4A8 planes. Not
    /// a fault site, so the fault campaign's sweep does not see it.
    #[cfg(test)]
    fn corrupt_w4a8(&mut self) -> bool {
        false
    }
}

/// Shape check shared by the prepared implementations.
pub(super) fn check_prepared_shapes(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &[f32],
) -> Result<(), GemmError> {
    if a.len() != m * k {
        return Err(GemmError::DimMismatch {
            what: "activation shape mismatch",
            expected: m * k,
            got: a.len(),
        });
    }
    if out.len() != m * n {
        return Err(GemmError::DimMismatch {
            what: "output shape mismatch",
            expected: m * n,
            got: out.len(),
        });
    }
    Ok(())
}

/// Rows per activation panel in the sharded prefill loop: 32 rows of a
/// `k ≤ 4096` activation keep the panel within ~512 KiB, so it stays
/// cache-resident while a shard's weight tiles stream past it.
const PANEL_ROWS: usize = 32;

/// Columns per weight tile inside a shard: small enough that one tile's
/// weight-derived state (lanes / planes over the full depth) stays
/// L2-resident across a whole row panel, so prefill re-reads weights
/// from cache instead of DRAM once per panel rather than once per row.
const TILE_COLS: usize = 64;

/// How many worker shards a GEMM of this size should use under a
/// budget of `threads`: 1 (serial) below the parallel cut-off
/// ([`axcore_parallel::threads_for`]) or when the budget is 1, otherwise
/// a [`ShardPlan`](axcore_parallel::ShardPlan) over `threads`.
fn shard_plan(
    m: usize,
    k: usize,
    n: usize,
    col_align: usize,
    threads: usize,
) -> axcore_parallel::ShardPlan {
    let macs = (m * n).saturating_mul(k);
    axcore_parallel::ShardPlan::new(n, axcore_parallel::threads_for(threads, macs), col_align)
}

/// Drive a per-element GEMM kernel over the output, sharded by columns.
///
/// `kernel(scratch, row, col0, cols)` fills `cols` with output columns
/// `col0 .. col0 + cols.len()` of activation row `row`; `mk_scratch`
/// builds one per-worker scratch (activation-encode buffers) that is
/// reused across every tile the worker processes.
///
/// Parallel execution partitions the `n` output columns into contiguous
/// shards (one per worker, boundaries aligned to `col_align` columns and
/// a full output cache line — see [`axcore_parallel::ShardPlan`]), with
/// stable shard→thread affinity and a single barrier-free writeback into
/// disjoint columns. Inside a shard the loop is L2-blocked: row panels
/// of [`PANEL_ROWS`] × column tiles of [`TILE_COLS`], rows innermost, so
/// a tile's weight state is re-read from cache across the whole panel
/// and the activation panel stays hot across the shard's tiles. Every
/// output element is computed independently, so the shard/tile walk is
/// bit-identical to the serial loop at any thread count.
///
/// `k` is the accumulation depth, used only to size the work estimate:
/// GEMMs too small to amortize a pool dispatch run serially
/// (bit-identical either way, so the cutover is purely scheduling).
/// `threads` is the call's worker budget.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<S, MkS, F>(
    m: usize,
    k: usize,
    n: usize,
    col_align: usize,
    threads: usize,
    out: &mut [f32],
    mk_scratch: MkS,
    kernel: F,
) where
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize, &mut [f32]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    let plan = shard_plan(m, k, n, col_align, threads);
    if plan.num_shards() <= 1 {
        let mut s = mk_scratch();
        for (i, row_out) in out.chunks_mut(n).enumerate() {
            kernel(&mut s, i, 0, row_out);
        }
        return;
    }
    axcore_parallel::par_shards_with(out, m, &plan, &mk_scratch, |s, sh, view| {
        for row0 in (0..m).step_by(PANEL_ROWS) {
            let rows = PANEL_ROWS.min(m - row0);
            let mut c0 = sh.col0;
            while c0 < sh.col0 + sh.cols {
                // Cooperative cancellation between tiles (partial output;
                // only discarded results are ever cancelled).
                if axcore_parallel::cancel_requested() {
                    return;
                }
                let tc = TILE_COLS.min(sh.col0 + sh.cols - c0);
                let local = c0 - sh.col0;
                for r in row0..row0 + rows {
                    let row_out = view.row(r);
                    kernel(s, r, c0, &mut row_out[local..local + tc]);
                }
                c0 += tc;
            }
        }
    });
}

/// Drive a LUT-tier GEMM kernel over the output, sharded by columns.
///
/// Like [`drive`], but rows are walked in blocks of up to `block_rows`
/// and each block's work is split into table **builds**
/// (`build(tables, slot, row, col0, cols)` — one row's
/// per-activation-element product tables into table slot `slot`,
/// amortized over the columns `col0 .. col0 + cols` the worker will
/// gather) and one column **gather** over the whole block
/// (`gather(tables, rows, col0, block)` — pure table lookups +
/// accumulate into `block`, the block's `rows × cols` outputs
/// row-major, row `r` built in slot `r`). A kernel that folds several
/// rows per decoded weight code gets them together; engines whose
/// gather shares nothing across rows pass `block_rows = 1`.
/// `mk_table(rows)` makes tables for up to `rows` slots.
///
/// Each shard builds its tables **in its own arena slot** restricted to
/// its column range (engines whose table segments are per-format-unit
/// build only the units their columns reference; engines with global
/// tables ignore the range). That keeps the build on the parallel
/// region, and the stable shard→thread affinity keeps each shard's
/// tables (and its block buffer) in the same thread-local arena call
/// after call, so steady-state decode still allocates nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_lut<T, MkT, B, G>(
    m: usize,
    k: usize,
    n: usize,
    col_align: usize,
    threads: usize,
    block_rows: usize,
    out: &mut [f32],
    mk_table: MkT,
    build: B,
    gather: G,
) where
    T: Send + Sync,
    MkT: Fn(usize) -> T + Sync,
    B: Fn(&mut T, usize, usize, usize, usize) + Sync,
    G: Fn(&T, usize, usize, &mut [f32]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    let block_rows = block_rows.clamp(1, m);
    let plan = shard_plan(m, k, n, col_align, threads);
    if plan.num_shards() <= 1 {
        let mut tables = mk_table(block_rows);
        for row0 in (0..m).step_by(block_rows) {
            let rows = block_rows.min(m - row0);
            for slot in 0..rows {
                crate::kmetrics::record_lut_build(|| build(&mut tables, slot, row0 + slot, 0, n));
            }
            // Serial rows are contiguous: the block is a slice of `out`.
            gather(&tables, rows, 0, &mut out[row0 * n..(row0 + rows) * n]);
        }
        return;
    }
    let mk_scratch = || {
        let buf = arena::take(if block_rows > 1 { block_rows * n } else { 0 }, 0f32);
        (mk_table(block_rows), buf)
    };
    axcore_parallel::par_shards_with(out, m, &plan, mk_scratch, |(tables, buf), sh, view| {
        for row0 in (0..m).step_by(block_rows) {
            if axcore_parallel::cancel_requested() {
                return;
            }
            let rows = block_rows.min(m - row0);
            for slot in 0..rows {
                crate::kmetrics::record_lut_build(|| build(tables, slot, row0 + slot, sh.col0, sh.cols));
            }
            if rows == 1 {
                gather(tables, 1, sh.col0, view.row(row0));
                continue;
            }
            // A shard's rows are strided in `out`: gather the block into
            // the worker's buffer, then write each row back.
            let block = &mut buf[..rows * sh.cols];
            gather(tables, rows, sh.col0, block);
            for (r, src) in block.chunks_exact(sh.cols).enumerate() {
                view.row(row0 + r).copy_from_slice(src);
            }
        }
    });
}

/// One prepared engine's rungs on the tier ladder (DESIGN.md §7): the
/// engine-specific half of verified execution. [`run_ladder`] owns the
/// rest — the W4A8 rung, quarantine, panic containment, ABFT, pristine
/// recovery and the published report.
pub(crate) trait Ladder: PreparedGemm {
    /// Names the engine in the [`GemmError::PoolPanicked`] returned when
    /// even the pristine recovery panics.
    const CONTEXT: &'static str;

    /// The ABFT verifier and pristine weight copy captured at prepare
    /// time.
    fn verifier(&self) -> &Verifier;

    /// The W4A8 planes, when the weights are eligible for that rung.
    fn w4a8(&self) -> Option<&W4a8Prep> {
        None
    }

    /// The bit-exact LUT rungs (`Avx2Lut`, `SwarLut`) a call under
    /// `policy` may use above `Direct`, fastest first: the engine's
    /// `lut::use_lut` decision and kernel eligibility, before quarantine.
    fn lut_rungs(&self, _policy: LutPolicy) -> &'static [Tier] {
        &[]
    }

    /// Whether the at-rest state bit-exact rung `tier` reads still
    /// matches its prepare-time checksum.
    fn state_ok(&self, tier: Tier) -> bool;

    /// Execute bit-exact rung `tier` (a LUT rung or `Direct`) on up to
    /// `threads` workers.
    fn run(&self, tier: Tier, a: &[f32], m: usize, out: &mut [f32], threads: usize);

    /// Re-prepare from the pristine quantized matrix and run the direct
    /// path serially.
    fn recover(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError>;
}

/// The verified-execution driver every prepared engine's `try_gemm`
/// runs: the graceful-degradation ladder of DESIGN.md §7.
///
/// The call's [`ExecConfig`](axcore_parallel::ExecConfig) is read once,
/// here. The ladder is W4A8 (when `act::use_w4a8` engages it on
/// eligible weights) → the engine's [`Ladder::lut_rungs`] → `Direct`, minus
/// quarantined rungs; `Direct` is always last and never skipped. Each
/// rung is tried in turn: at `Full` its at-rest state is proven before
/// the GEMM runs, the GEMM runs under a panic guard (free on the success
/// path, at every policy — a corrupted code plane can drive a gather out
/// of bounds), and the ABFT check runs per the active [`VerifyPlan`]. A
/// failed rung is recorded as a downgrade; checksum failures and panics
/// quarantine it, an ABFT miss only when the rung's state is provably
/// corrupt (a miss alone may be transient). If every rung fails, the
/// call re-prepares from the pristine matrix and runs the direct path
/// serially (`recovered`). At `Off` a healthy call does no checksum work
/// and publishes nothing, so it stays bit-identical and allocation-free.
///
/// [`VerifyPlan`]: crate::reliability::VerifyPlan
pub(crate) fn run_ladder<L: Ladder>(
    p: &L,
    a: &[f32],
    m: usize,
    out: &mut [f32],
) -> Result<(), GemmError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let n = p.n();
    check_prepared_shapes(a, m, p.k(), n, out)?;
    let exec = axcore_parallel::current_exec();
    let verifier = p.verifier();
    let plan = verifier.plan(exec.verify);
    let w4a8 = p.w4a8();
    let engage_w4a8 = act::use_w4a8(exec.act, w4a8.is_some(), m, n).then_some(Tier::W4a8);
    let mut rungs = [Tier::Direct; 4];
    let mut len = 0;
    for tier in engage_w4a8.into_iter().chain(p.lut_rungs(exec.lut).iter().copied()) {
        if !health::is_quarantined(tier) {
            rungs[len] = tier;
            len += 1;
        }
    }
    // `rungs[len]` still holds the `Direct` it was filled with.
    let rungs = &rungs[..=len];

    let mut report = health::ExecReport::new(rungs[0]);
    for (i, &tier) in rungs.iter().enumerate() {
        let next = rungs.get(i + 1).copied().unwrap_or(Tier::Direct);
        let state_ok = || match (tier, w4a8) {
            (Tier::W4a8, Some(w)) => w.checksum_ok(),
            _ => p.state_ok(tier),
        };
        let mut ran_ok = || {
            catch_unwind(AssertUnwindSafe(|| match (tier, w4a8) {
                (Tier::W4a8, Some(w)) => w.gemm(a, m, out, exec.threads),
                _ => p.run(tier, a, m, out, exec.threads),
            }))
            .is_ok()
        };
        let reason = if plan.integrity && !state_ok() {
            health::quarantine(tier);
            FailReason::ChecksumMismatch
        } else if !ran_ok() {
            health::quarantine(tier);
            FailReason::Panic
        } else if plan.abft && !verifier.abft_ok(a, m, n, out) {
            if !state_ok() {
                health::quarantine(tier);
            }
            FailReason::AbftMismatch
        } else {
            report.tier = tier;
            report.verified = plan.any();
            if plan.any() || report.n_downgrades() > 0 {
                health::publish_report(report);
            }
            return Ok(());
        };
        report.push_downgrade(tier, next, reason);
    }

    // Every rung failed: the prepared state itself is suspect.
    let rerun = catch_unwind(AssertUnwindSafe(|| p.recover(a, m, out)));
    match rerun {
        Ok(Ok(())) => {
            report.tier = Tier::Direct;
            report.verified = plan.any();
            report.recovered = true;
            health::publish_report(report);
            Ok(())
        }
        Ok(Err(e)) => Err(e),
        Err(_) => Err(GemmError::PoolPanicked { context: L::CONTEXT }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{ActPolicy, FiglutEngine, FignaEngine, FpmaEngine, GemmEngine, LutPolicy};
    use crate::reliability::VerifyPolicy;
    use axcore_parallel::{with_exec, ExecConfig};
    use axcore_quant::{GroupQuantizer, QuantFormat, QuantizedMatrix};
    use axcore_softfloat::FP16;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Tier quarantine is process-global: serialize these tests and
    /// start each from clean health state.
    static HEALTH_LOCK: Mutex<()> = Mutex::new(());

    fn health_guard() -> MutexGuard<'static, ()> {
        let g = HEALTH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        health::reset();
        g
    }

    const M: usize = 2;
    const K: usize = 64;
    const N: usize = 32;

    fn quantized(fmt: QuantFormat) -> QuantizedMatrix {
        let w: Vec<f32> =
            (0..K * N).map(|i| ((i * 2654435761usize % 997) as f32 / 498.5 - 1.0) * 0.4).collect();
        GroupQuantizer::fixed(fmt, 32).quantize(&w, K, N)
    }

    fn acts() -> Vec<f32> {
        (0..M * K).map(|i| ((i * 40503 % 65536) as f32 / 32768.0 - 1.0) * 1.3).collect()
    }

    /// One serial call under `Full` verification and the given pins;
    /// returns the output bits and the published report.
    fn run(
        p: &dyn PreparedGemm,
        act: ActPolicy,
        lut: LutPolicy,
    ) -> (Vec<u32>, Option<health::ExecReport>) {
        let a = acts();
        let mut out = vec![f32::NAN; M * N];
        let cfg = ExecConfig { threads: 1, lut, act, verify: VerifyPolicy::Full };
        let ((), report) = health::capture_report(|| {
            with_exec(cfg, || p.try_gemm(&a, M, &mut out).unwrap_or_else(|e| panic!("{e}")))
        });
        (out.iter().map(|v| v.to_bits()).collect(), report)
    }

    /// A corrupt W4A8 rung on the engines whose only other rungs are
    /// SWAR-LUT and direct is quarantined like AxCore's, and the call
    /// walks on to the bit-exact FP ladder.
    #[test]
    fn corrupt_w4a8_rung_is_quarantined_on_fpma_and_figna() {
        let _g = health_guard();
        let cases: [(Box<dyn GemmEngine>, QuantFormat); 2] = [
            (Box::new(FpmaEngine::new(FP16)), QuantFormat::E2M1),
            (Box::new(FignaEngine::new(FP16)), QuantFormat::INT4),
        ];
        for (engine, fmt) in cases {
            health::reset();
            let mut p = engine.prepare(&quantized(fmt));
            let (fp, _) = run(p.as_ref(), ActPolicy::Never, LutPolicy::Auto);
            assert!(p.corrupt_w4a8(), "{}: weights must be W4A8-eligible", engine.name());
            let (out, report) = run(p.as_ref(), ActPolicy::Always, LutPolicy::Auto);
            let report = report.expect("a verified call publishes a report");
            let first = report.downgrades().next().expect("the W4A8 rung must fail");
            assert_eq!(first.from, Tier::W4a8, "{}", engine.name());
            assert_eq!(first.reason, FailReason::ChecksumMismatch, "{}", engine.name());
            assert!(health::is_quarantined(Tier::W4a8), "{}", engine.name());
            assert_eq!(out, fp, "{}: fallback must equal the FP path", engine.name());
        }
        health::reset();
    }

    /// A quarantined SWAR-LUT rung sends every LUT engine to the direct
    /// rung, with the same bits.
    #[test]
    fn lut_quarantine_is_honoured_by_every_engine() {
        let _g = health_guard();
        let cases: [(Box<dyn GemmEngine>, QuantFormat); 3] = [
            (Box::new(FpmaEngine::new(FP16)), QuantFormat::E2M1),
            (Box::new(FignaEngine::new(FP16)), QuantFormat::INT4),
            (Box::new(FiglutEngine::new(FP16)), QuantFormat::INT4),
        ];
        for (engine, fmt) in cases {
            health::reset();
            let p = engine.prepare(&quantized(fmt));
            let (via_lut, report) = run(p.as_ref(), ActPolicy::Never, LutPolicy::Always);
            assert_eq!(report.map(|r| r.tier), Some(Tier::SwarLut), "{}", engine.name());
            health::quarantine(Tier::SwarLut);
            let (out, report) = run(p.as_ref(), ActPolicy::Never, LutPolicy::Always);
            let report = report.expect("a verified call publishes a report");
            assert_eq!(report.tier, Tier::Direct, "{}", engine.name());
            assert_eq!(report.n_downgrades(), 0, "{}: a quarantined rung is skipped", engine.name());
            assert_eq!(out, via_lut, "{}: direct must equal the LUT run", engine.name());
        }
        health::reset();
    }
}
