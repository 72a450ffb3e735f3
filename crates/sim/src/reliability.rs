//! First-order hardware-cost model of the runtime verification layer:
//! what the ABFT row check and the at-rest integrity sweep would cost on
//! the accelerator, in cycles relative to the base GEMM schedule.
//!
//! Mirrors the functional layer's `VerifyPolicy` tiers (`Off` /
//! `Sample(p)` / `Full`) with the same semantics: sampling runs only the
//! ABFT check on one call in `p`, `Full` adds a checksum re-read of the
//! stationary weight state on every call. The estimate is deliberately
//! coarse — post-processing-lane throughput for the check arithmetic,
//! weight-buffer port width for the integrity sweep — but it reproduces
//! the software observation that sampled ABFT is effectively free on
//! decode shapes while `Full` integrity is the expensive mode, and it
//! gives the Fig.-17 style experiments a knob to price reliability in.
//!
//! `VerifyPolicy`: the functional twin lives in `axcore`'s reliability
//! module; this crate redefines the three tiers locally so the simulator
//! stays independent of the execution stack.

use crate::accel::gemm_cycles;
use crate::workload::Workload;
use axcore_hwmodel::{ARRAY_COLS, ARRAY_ROWS};

/// Verification tier being priced (the simulator-side mirror of the
/// execution layer's policy knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// No checks.
    Off,
    /// ABFT row check on one call in `p`; no integrity sweep.
    Sample(u32),
    /// ABFT row check and a full integrity re-read of the stationary
    /// weight state on every call.
    Full,
}

/// Estimated verification cost over one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityEstimate {
    /// Base GEMM schedule cycles (no verification).
    pub base_cycles: u64,
    /// Extra cycles for the ABFT row checks.
    pub abft_cycles: u64,
    /// Extra cycles for the at-rest integrity sweeps (`Full` only).
    pub integrity_cycles: u64,
}

impl ReliabilityEstimate {
    /// Total extra cycles added by verification.
    pub fn extra_cycles(&self) -> u64 {
        self.abft_cycles + self.integrity_cycles
    }

    /// Verification overhead relative to the base schedule, in percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.base_cycles == 0 {
            return 0.0;
        }
        self.extra_cycles() as f64 / self.base_cycles as f64 * 100.0
    }
}

/// Price `mode` over `workload` with `weight_bits`-wide stored weight
/// codes.
///
/// Cost model per `m × k × n` GEMM call:
///
/// - **ABFT row check** — per output row: fold the `n` outputs, and fold
///   the activation row twice against the precomputed column-sum /
///   absolute-sum vectors (`2k` MACs), so `m · (n + 2k)` lane-ops run on
///   the shared post-processing chain at [`ARRAY_COLS`] lanes per cycle.
///   The reference sums themselves are computed once at prepare time and
///   are not charged per call.
/// - **Integrity sweep** (`Full` only) — re-read and fold the `k · n`
///   stationary codes through the weight-buffer port
///   ([`ARRAY_ROWS`] codes per cycle, the preload width), plus the
///   per-group scale words (`k·n/128` at 16 bits).
pub fn estimate(mode: VerifyMode, workload: &Workload, weight_bits: u32) -> ReliabilityEstimate {
    let lanes = ARRAY_COLS as u64;
    let port = ARRAY_ROWS as u64;
    let mut base = 0u64;
    let mut abft = 0u64;
    let mut integrity = 0u64;
    for op in &workload.ops {
        let calls = op.count as u64;
        base += gemm_cycles(op.m, op.k, op.n) * calls;
        let (abft_calls, full) = match mode {
            VerifyMode::Off => (0, false),
            VerifyMode::Sample(p) => (calls / u64::from(p.max(1)), false),
            VerifyMode::Full => (calls, true),
        };
        let check_ops = (op.m * (op.n + 2 * op.k)) as u64;
        abft += check_ops.div_ceil(lanes) * abft_calls;
        if full {
            let codes = (op.k * op.n) as u64;
            // Scale words ride along at one per 128 codes; weight_bits
            // only matters through the port packing of sub-byte codes.
            let code_cycles = codes.div_ceil(port * (8 / u64::from(weight_bits.clamp(1, 8))));
            let scale_cycles = (codes / 128).div_ceil(port);
            integrity += (code_cycles + scale_cycles) * calls;
        }
    }
    ReliabilityEstimate { base_cycles: base, abft_cycles: abft, integrity_cycles: integrity }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::decode_workload;
    use axcore_nn::profile::LlmArch;

    fn wl() -> Workload {
        decode_workload(&LlmArch::opt_13b(), 32)
    }

    #[test]
    fn off_costs_nothing() {
        let e = estimate(VerifyMode::Off, &wl(), 4);
        assert_eq!(e.extra_cycles(), 0);
        assert_eq!(e.overhead_pct(), 0.0);
    }

    #[test]
    fn tiers_order_and_sampling_scales() {
        let w = wl();
        let s16 = estimate(VerifyMode::Sample(16), &w, 4);
        let s4 = estimate(VerifyMode::Sample(4), &w, 4);
        let full = estimate(VerifyMode::Full, &w, 4);
        assert!(s16.extra_cycles() <= s4.extra_cycles());
        assert!(s4.extra_cycles() < full.extra_cycles());
        assert_eq!(s16.integrity_cycles, 0, "sampling never sweeps integrity");
        assert!(full.integrity_cycles > 0);
    }

    #[test]
    fn sampled_decode_overhead_is_under_the_budget() {
        // The simulator-side twin of the bench gate: Sample(16) on the
        // decode workload must price below the 10% overhead budget.
        let e = estimate(VerifyMode::Sample(16), &wl(), 4);
        assert!(
            e.overhead_pct() < 10.0,
            "sampled ABFT priced at {:.2}%",
            e.overhead_pct()
        );
    }
}
