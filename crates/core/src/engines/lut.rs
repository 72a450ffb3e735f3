//! LUT-tier dispatch: per-call policy and the amortization heuristic.
//!
//! AxCore's weights are group-quantized into a tiny code space (16 FP4
//! codes, 256 FP8 codes), so each activation element's product against
//! *every possible weight code* can be computed once per row and the inner
//! column loop becomes a table gather — the execution style of FIGLUT and
//! LUT Tensor Core (see PAPERS.md). The table entries come from the exact
//! same per-MAC pipeline the direct path runs, so the tier is bit-exact by
//! construction; choosing it is purely a performance decision.
//!
//! The decision is made **once per `gemm` call on the calling thread**,
//! from the call's [`LutPolicy`] (the `lut` field of the
//! [`ExecConfig`](axcore_parallel::ExecConfig) the ladder driver reads),
//! the output shape and the per-element table width alone — never from
//! the thread count — so the chosen path (and therefore all observed
//! behaviour) is reproducible at any parallelism. Pool workers only see
//! the already-chosen kernel.
//!
//! The tables themselves live in [`axcore_parallel::arena`] buffers, so in
//! pooled steady state a decode call pays only the table *build* cost —
//! the (re)allocation and zeroing of the table storage happen once per
//! thread per shape, not once per call.

pub use axcore_parallel::LutPolicy;

/// How many gather columns each table entry must serve before the build
/// cost amortizes. A table entry costs roughly one direct MAC to build
/// and each gather saves well under one direct MAC, so the break-even
/// sits near `n == entries_per_k`; 4× leaves margin so the tier only
/// engages where it clearly wins (decode `n = 512` against FP4's
/// `≤ 3 units × 16 codes = 48` entries qualifies; tiny-`n` layer calls
/// and FP8's 256-wide tables fall back to the direct path).
const AMORTIZE_FACTOR: usize = 4;

/// Decide LUT vs direct for one prepared-GEMM call under `policy`.
/// `entries_per_k` is the per-activation-element table width: `units ×
/// code space` for AxCore, the dequantized-weight palette size for FPMA,
/// the code space for the INT-FP engines.
pub(crate) fn use_lut(policy: LutPolicy, n: usize, entries_per_k: usize) -> bool {
    match policy {
        LutPolicy::Always => true,
        LutPolicy::Never => false,
        LutPolicy::Auto => entries_per_k > 0 && n >= AMORTIZE_FACTOR * entries_per_k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_requires_amortization() {
        assert!(use_lut(LutPolicy::Auto, 512, 48)); // decode shape, FP4 tables
        assert!(!use_lut(LutPolicy::Auto, 512, 256)); // FP8 table too wide for n
        assert!(!use_lut(LutPolicy::Auto, 8, 16)); // tiny-n layer call
        assert!(!use_lut(LutPolicy::Auto, 512, 0)); // degenerate table
        // The forces ignore the shape.
        assert!(use_lut(LutPolicy::Always, 1, 1 << 20));
        assert!(!use_lut(LutPolicy::Never, 1 << 20, 1));
    }

    /// A `with_exec` scope pins the LUT field, nests, and restores; the
    /// call decision follows the pinned policy.
    #[test]
    fn overrides_pin_and_restore() {
        use axcore_parallel::{current_exec, with_exec, ExecConfig};
        let outer = current_exec();
        with_exec(ExecConfig { lut: LutPolicy::Always, ..outer }, || {
            assert!(use_lut(current_exec().lut, 1, 1 << 20));
            with_exec(ExecConfig { lut: LutPolicy::Never, ..current_exec() }, || {
                assert!(!use_lut(current_exec().lut, 1 << 20, 1));
                assert_eq!(current_exec().lut, LutPolicy::Never);
            });
            assert_eq!(current_exec().lut, LutPolicy::Always);
        });
        assert_eq!(current_exec(), outer);
    }
}
