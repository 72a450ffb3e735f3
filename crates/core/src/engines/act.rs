//! W4A8 activation-tier dispatch policy.
//!
//! The integer-activation tier (see [`super::w4a8`]) is the one
//! execution tier that is **not bit-exact** with its engine's reference
//! path: activations are quantized to Q8 before the dot, trading a
//! bounded accuracy delta for integer arithmetic. It is therefore
//! strictly **opt-in** — with `AXCORE_ACT` unset every engine behaves
//! exactly as before — and the policy is resolved once per `gemm` call
//! on the calling thread, mirroring [`super::lut`]'s discipline: the
//! ladder driver reads the call's [`ActPolicy`] and passes it to
//! `use_w4a8`, so the chosen path is reproducible at any parallelism.

use axcore_parallel::{current_exec, with_exec, ExecConfig};

pub use axcore_parallel::ActPolicy;

/// [`with_exec`] with only the W4A8 policy changed.
pub fn with_act_policy<R>(act: ActPolicy, f: impl FnOnce() -> R) -> R {
    with_exec(ExecConfig { act, ..current_exec() }, f)
}

/// Below this output width the per-call Q8 activation quantization
/// (`act_quant_us`, an `O(m·k)` cost amortized across `n` columns) is
/// not repaid by the integer dot's savings: the tier's win per column
/// is a few percent of the dot, so at least ~8 columns must share one
/// quantization pass before it breaks even.
const AUTO_MIN_N: usize = 8;

/// At or above this activation height the FP LUT tiers win instead:
/// one per-activation-panel LUT build (`lut_build_us`, ~an order of
/// magnitude above `act_quant_us`) is amortized across a full
/// `PANEL_ROWS` panel, and the LUT dot is the fastest path the engines
/// have for wide prefill panels. `Auto` therefore reserves the W4A8
/// tier for decode-shaped calls (`m` below one panel).
const AUTO_MAX_M: usize = 32;

/// The `Auto` cost model: does shape `(m, n)` repay the W4A8 tier's
/// per-call setup? True for decode-shaped calls (`m <` one LUT panel)
/// over enough output columns (`n >=` 8) to amortize the
/// activation quantization.
pub fn auto_engages(m: usize, n: usize) -> bool {
    n >= AUTO_MIN_N && m < AUTO_MAX_M
}

/// Decide whether this call runs on the W4A8 tier under `policy`, given
/// whether the prepared weights are structurally `eligible` for it and
/// the call shape (`m` activation rows against `n` output columns).
pub(crate) fn use_w4a8(policy: ActPolicy, eligible: bool, m: usize, n: usize) -> bool {
    match policy {
        ActPolicy::Never => false,
        ActPolicy::Always => eligible,
        ActPolicy::Auto => eligible && auto_engages(m, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_never() {
        // AXCORE_ACT is unset in the test environment; the lossy tier
        // must stay dark unless explicitly requested.
        assert_eq!(current_exec().act, ActPolicy::Never);
        assert!(!use_w4a8(current_exec().act, true, 1, 64));
    }

    /// `with_act_policy` pins only the W4A8 field, nests, and restores;
    /// the call decision follows the pinned policy.
    #[test]
    fn overrides_pin_and_restore() {
        let outer = current_exec();
        with_act_policy(ActPolicy::Always, || {
            assert_eq!(current_exec(), ExecConfig { act: ActPolicy::Always, ..outer });
            assert!(use_w4a8(current_exec().act, true, 1, 64));
            with_act_policy(ActPolicy::Never, || {
                assert!(!use_w4a8(current_exec().act, true, 1, 64));
            });
            assert_eq!(current_exec().act, ActPolicy::Always);
        });
        assert_eq!(current_exec(), outer);
        with_act_policy(ActPolicy::Auto, || assert!(use_w4a8(current_exec().act, true, 1, 64)));
    }

    #[test]
    fn auto_cost_model_pins_both_crossovers() {
        let auto = |eligible, m, n| use_w4a8(ActPolicy::Auto, eligible, m, n);
        // Decode-shaped over a real weight width: setup repaid.
        assert!(auto(true, 1, 64));
        assert!(auto(true, 31, 8), "just under both thresholds");
        // Prefill panels: the amortized FP LUT path wins.
        assert!(!auto(true, 32, 64), "m crossover engages at PANEL_ROWS");
        assert!(!auto(true, 64, 64));
        // Too few columns to amortize the Q8 activation pass.
        assert!(!auto(true, 1, 4), "n crossover engages below 8 columns");
        assert!(auto(true, 1, 8));
        // Structural eligibility still gates everything.
        assert!(!auto(false, 1, 64));
        // Always stays shape-blind on both sides of each crossover, and
        // ineligible weights always fall back.
        assert!(use_w4a8(ActPolicy::Always, true, 64, 4));
        assert!(use_w4a8(ActPolicy::Always, true, 1, 64));
        assert!(!use_w4a8(ActPolicy::Always, false, 1, 64));
        assert!(!use_w4a8(ActPolicy::Never, true, 1, 64));
    }
}
