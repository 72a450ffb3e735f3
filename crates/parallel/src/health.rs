//! Tier-health bookkeeping for the reliability layer: which execution
//! tiers are quarantined, and what happened during the last verified
//! GEMM call.
//!
//! The engines in `axcore` run a prepared GEMM on one rung of a four-tier
//! ladder (W4A8, AVX2-LUT, SWAR-LUT, scalar direct; each engine uses the
//! rungs its weights support), walked by one driver in `axcore`'s
//! `engines/prepared.rs`. When a tier fails — a worker panic caught
//! mid-dispatch, or an integrity/ABFT checksum mismatch — the driver
//! downgrades to the next tier and records the event here so the caller
//! can observe it. Two kinds of state live in this module:
//!
//! * **Quarantine flags** (process-global atomics): a tier that failed
//!   an *integrity* check (bit-flip in its private state, or a panic)
//!   is quarantined so later calls skip it immediately instead of
//!   re-failing. [`reset`] clears the flags — fault-injection campaigns
//!   call it between injections.
//! * **The last [`ExecReport`]** (thread-local, `Copy`, fixed-size): a
//!   structured record of the tier that ultimately produced the output,
//!   any downgrades along the way, and whether verification ran. It is
//!   published with plain `Cell` stores so the steady-state decode path
//!   stays allocation-free.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// An execution tier of the prepared-GEMM path, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Integer W4A8 path over Q8-quantized activations (per-block scale
    /// fold-in; opt-in via `AXCORE_ACT` — the only *lossy* tier, so it
    /// sits above the bit-exact ladder and degrades into it).
    W4a8,
    /// Packed-plane LUT gather via the AVX2 `vpgatherdd` kernel.
    Avx2Lut,
    /// Packed-plane LUT gather via the scalar SWAR fold.
    SwarLut,
    /// The scalar direct datapath (PreAdd → PE → NormUnit → AxScale).
    Direct,
}

impl Tier {
    /// Stable index used for the quarantine flag array.
    fn idx(self) -> usize {
        match self {
            Tier::Avx2Lut => 0,
            Tier::SwarLut => 1,
            Tier::Direct => 2,
            Tier::W4a8 => 3,
        }
    }

    /// Short lowercase name for logs and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::W4a8 => "w4a8",
            Tier::Avx2Lut => "avx2-lut",
            Tier::SwarLut => "swar-lut",
            Tier::Direct => "direct",
        }
    }
}

/// Why a tier was abandoned during a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The tier's kernel panicked; the panic was caught at the tier
    /// boundary and the pool stayed usable.
    Panic,
    /// An at-rest integrity checksum over the tier's prepared state did
    /// not match the value recorded at `prepare()` time.
    ChecksumMismatch,
    /// The ABFT row-sum check on the tier's output exceeded tolerance.
    AbftMismatch,
}

impl FailReason {
    /// Short lowercase name for logs and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            FailReason::Panic => "panic",
            FailReason::ChecksumMismatch => "checksum-mismatch",
            FailReason::AbftMismatch => "abft-mismatch",
        }
    }
}

/// One downgrade step taken during a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Downgrade {
    /// Tier that failed.
    pub from: Tier,
    /// Tier tried next (or re-executed on, for the last rung).
    pub to: Tier,
    /// What went wrong on `from`.
    pub reason: FailReason,
}

/// Structured record of what one verified GEMM call actually did.
///
/// `Copy` with a fixed-size downgrade list so publishing it costs no
/// allocation (the zero-alloc decode invariant covers the verify path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Tier that produced the returned output.
    pub tier: Tier,
    /// Downgrade steps taken, in order (at most the ladder depth).
    downgrades: [Option<Downgrade>; 4],
    /// Number of valid entries in `downgrades`.
    n_downgrades: u8,
    /// Whether any verification (ABFT or integrity) ran on this call.
    pub verified: bool,
    /// Whether the output was produced by a recovery re-execution
    /// (re-prepare from pristine weights) rather than a healthy tier.
    pub recovered: bool,
}

impl ExecReport {
    /// A fresh report for a call that starts on `tier`.
    pub fn new(tier: Tier) -> Self {
        ExecReport {
            tier,
            downgrades: [None; 4],
            n_downgrades: 0,
            verified: false,
            recovered: false,
        }
    }

    /// Record a downgrade step and move the report to the target tier.
    /// Steps beyond the fixed capacity are counted but not stored.
    pub fn push_downgrade(&mut self, from: Tier, to: Tier, reason: FailReason) {
        let i = self.n_downgrades as usize;
        if i < self.downgrades.len() {
            self.downgrades[i] = Some(Downgrade { from, to, reason });
        }
        self.n_downgrades = self.n_downgrades.saturating_add(1);
        self.tier = to;
    }

    /// The downgrade steps recorded during the call, in order.
    pub fn downgrades(&self) -> impl Iterator<Item = Downgrade> + '_ {
        self.downgrades.iter().flatten().copied()
    }

    /// Number of downgrade steps taken (may exceed the stored capacity).
    pub fn n_downgrades(&self) -> usize {
        self.n_downgrades as usize
    }
}

impl Default for ExecReport {
    fn default() -> Self {
        ExecReport::new(Tier::Direct)
    }
}

/// Process-global quarantine flags, one per tier.
static QUARANTINED: [AtomicBool; 4] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

/// Total downgrades recorded since process start (or the last [`reset`]);
/// a cheap health signal for long-running services.
static DOWNGRADE_COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Report of the most recent verified call on this thread.
    static LAST_REPORT: Cell<Option<ExecReport>> = const { Cell::new(None) };
}

/// Quarantine `tier`: later ladder walks skip it until [`reset`].
pub fn quarantine(tier: Tier) {
    QUARANTINED[tier.idx()].store(true, Ordering::Relaxed);
}

/// Whether `tier` is currently quarantined.
pub fn is_quarantined(tier: Tier) -> bool {
    QUARANTINED[tier.idx()].load(Ordering::Relaxed)
}

/// Clear all quarantine flags and the downgrade counter. Intended for
/// fault-injection campaigns and tests; a production process would
/// normally leave a genuinely bad tier quarantined.
pub fn reset() {
    for q in &QUARANTINED {
        q.store(false, Ordering::Relaxed);
    }
    DOWNGRADE_COUNT.store(0, Ordering::Relaxed);
    LAST_REPORT.with(|r| r.set(None));
}

/// Publish `report` as this thread's most recent call record.
pub fn publish_report(report: ExecReport) {
    DOWNGRADE_COUNT.fetch_add(report.n_downgrades() as u64, Ordering::Relaxed);
    LAST_REPORT.with(|r| r.set(Some(report)));
}

/// Take (and clear) the report of the most recent verified call on this
/// thread. `None` when no verified call has run since the last take.
pub fn take_report() -> Option<ExecReport> {
    LAST_REPORT.with(|r| r.take())
}

/// Total downgrade steps recorded since process start or the last
/// [`reset`].
pub fn downgrades_recorded() -> u64 {
    DOWNGRADE_COUNT.load(Ordering::Relaxed)
}

/// Run `f` and return its result together with the [`ExecReport`] (if
/// any) that `f` published, scoped to this call.
///
/// The bare [`publish_report`]/[`take_report`] pair is a thread-local
/// *last-writer-wins* slot: back-to-back or nested GEMM calls on one
/// thread can swallow or overwrite each other's reports, and a report
/// published inside call A can be taken by the bookkeeping of call B.
/// This wrapper removes the race for its extent: the slot is saved and
/// cleared on entry and restored on exit, so the report returned here is
/// exactly the one published by `f` — not a predecessor's leftovers —
/// and `f` cannot disturb reports belonging to an enclosing scope. The
/// aggregate [`downgrades_recorded`] counter is unaffected.
pub fn capture_report<R>(f: impl FnOnce() -> R) -> (R, Option<ExecReport>) {
    let saved = LAST_REPORT.with(|r| r.take());
    // Restore on unwind too, so a panicking call cannot leak its report
    // into the enclosing scope's slot.
    struct Restore(Option<ExecReport>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LAST_REPORT.with(|r| r.set(self.0));
        }
    }
    let restore = Restore(saved);
    let out = f();
    let captured = LAST_REPORT.with(|r| r.take());
    drop(restore);
    (out, captured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_flags_round_trip() {
        reset();
        assert!(!is_quarantined(Tier::Avx2Lut));
        quarantine(Tier::Avx2Lut);
        assert!(is_quarantined(Tier::Avx2Lut));
        assert!(!is_quarantined(Tier::SwarLut));
        reset();
        assert!(!is_quarantined(Tier::Avx2Lut));
    }

    #[test]
    fn report_records_downgrade_chain() {
        let mut r = ExecReport::new(Tier::Avx2Lut);
        r.push_downgrade(Tier::Avx2Lut, Tier::SwarLut, FailReason::ChecksumMismatch);
        r.push_downgrade(Tier::SwarLut, Tier::Direct, FailReason::ChecksumMismatch);
        assert_eq!(r.tier, Tier::Direct);
        assert_eq!(r.n_downgrades(), 2);
        let steps: Vec<_> = r.downgrades().collect();
        assert_eq!(steps[0].from, Tier::Avx2Lut);
        assert_eq!(steps[1].to, Tier::Direct);
    }

    #[test]
    fn capture_report_is_scoped_per_call() {
        // An enclosing call's report survives a nested captured call,
        // and the nested capture sees only its own report.
        let mut outer = ExecReport::new(Tier::Avx2Lut);
        outer.verified = true;
        publish_report(outer);
        let ((), inner) = capture_report(|| {
            assert!(
                take_report().is_none(),
                "capture starts with a clean slot"
            );
            publish_report(ExecReport::new(Tier::Direct));
        });
        assert_eq!(inner.expect("inner report captured").tier, Tier::Direct);
        let restored = take_report().expect("outer report restored");
        assert_eq!(restored.tier, Tier::Avx2Lut);
    }

    #[test]
    fn publish_and_take_report() {
        let mut r = ExecReport::new(Tier::SwarLut);
        r.verified = true;
        publish_report(r);
        let got = take_report().expect("report published");
        assert_eq!(got.tier, Tier::SwarLut);
        assert!(got.verified);
        assert!(take_report().is_none(), "take clears the slot");
    }
}
