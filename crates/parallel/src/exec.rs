//! The per-call execution configuration: worker count, LUT tier, W4A8
//! tier and verification, resolved as one [`ExecConfig`].
//!
//! A prepared GEMM's execution choice is one decision with four parts.
//! It has one process default, read once from the `AXCORE_THREADS`,
//! `AXCORE_LUT`, `AXCORE_ACT` and `AXCORE_VERIFY` environment variables
//! (through [`crate::env::parse`], so an unrecognized value warns and
//! falls back to the default), and one thread-local scope,
//! [`with_exec`], which pins all four fields for the extent of a
//! closure and restores the previous scope on exit, panics included.
//! [`current_exec`] is the only reader.
//!
//! The GEMM driver reads the config **once per call, on the calling
//! thread**, and hands the fields down as plain values: the kernels and
//! pool workers never read a policy, so the chosen path is reproducible
//! at any parallelism.

use std::cell::Cell;
use std::sync::OnceLock;

/// Choice of the bit-exact LUT execution tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LutPolicy {
    /// The shape heuristic decides (the default).
    #[default]
    Auto,
    /// Force the LUT tier regardless of shape (exactness tests, benches).
    Always,
    /// Force the direct per-MAC path.
    Never,
}

/// Choice of the lossy W4A8 integer-activation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActPolicy {
    /// Engage the tier when the prepared weights are eligible (every
    /// 4-bit format decodes onto an integer grid and the group size is
    /// a multiple of the Q8 block) **and** the call shape repays the
    /// tier's per-call setup (`axcore::engines::auto_engages`).
    Auto,
    /// Force the tier; calls on ineligible weights (8-bit formats,
    /// off-grid values) fall back to the engine's FP path rather than
    /// erroring, since eligibility is a property of the weights fixed
    /// at `prepare()` time.
    Always,
    /// Keep the bit-exact FP-activation paths (the default).
    #[default]
    Never,
}

/// How much verification a prepared-GEMM call performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// No checks (the default). The tier-degradation ladder still
    /// catches panics.
    #[default]
    Off,
    /// Run the ABFT row check on one call in `p` (per prepared matrix).
    /// Integrity checksums are skipped — sampling is the cheap
    /// steady-state mode, bounded by the bench gate.
    Sample(u32),
    /// Every call: integrity checksums over the executing tier's prepared
    /// state *and* the ABFT row check. Detection of single-bit at-rest
    /// faults in checksummed regions is deterministic in this mode.
    Full,
}

/// One GEMM call's execution choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads a parallel call may use; 1 is the serial path.
    pub threads: usize,
    /// The LUT tier policy.
    pub lut: LutPolicy,
    /// The W4A8 tier policy.
    pub act: ActPolicy,
    /// The verification policy.
    pub verify: VerifyPolicy,
}

/// `AXCORE_THREADS`: a worker count, 0 clamped to 1.
fn parse_threads(s: &str) -> Option<usize> {
    s.parse::<usize>().ok().map(|n| n.max(1))
}

/// `AXCORE_LUT`: `auto` (or empty) / `always` / `never`, any case.
fn parse_lut(s: &str) -> Option<LutPolicy> {
    match s.to_ascii_lowercase().as_str() {
        "always" => Some(LutPolicy::Always),
        "never" => Some(LutPolicy::Never),
        "auto" | "" => Some(LutPolicy::Auto),
        _ => None,
    }
}

/// `AXCORE_ACT`: `auto` / `always` / `never` (or empty), any case.
fn parse_act(s: &str) -> Option<ActPolicy> {
    match s.to_ascii_lowercase().as_str() {
        "auto" => Some(ActPolicy::Auto),
        "always" => Some(ActPolicy::Always),
        "never" | "" => Some(ActPolicy::Never),
        _ => None,
    }
}

/// `AXCORE_VERIFY`: `off` / `0` / empty, `full` / `1`, `sample` (one
/// call in 16) or `sample:<p>` (`p` clamped to at least 1), any case.
fn parse_verify(s: &str) -> Option<VerifyPolicy> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "" => Some(VerifyPolicy::Off),
        "full" | "1" => Some(VerifyPolicy::Full),
        "sample" => Some(VerifyPolicy::Sample(16)),
        other => {
            let p = other.strip_prefix("sample:")?;
            p.parse::<u32>().ok().map(|p| VerifyPolicy::Sample(p.max(1)))
        }
    }
}

/// The process default, read from the environment once.
pub(crate) fn default_exec() -> ExecConfig {
    static DEFAULT: OnceLock<ExecConfig> = OnceLock::new();
    *DEFAULT.get_or_init(|| ExecConfig {
        threads: crate::env::parse("AXCORE_THREADS", "an unsigned integer", parse_threads)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }),
        lut: crate::env::parse("AXCORE_LUT", "auto|always|never", parse_lut).unwrap_or_default(),
        act: crate::env::parse("AXCORE_ACT", "auto|always|never", parse_act).unwrap_or_default(),
        verify: crate::env::parse(
            "AXCORE_VERIFY",
            "off|full|sample|sample:<period>",
            parse_verify,
        )
        .unwrap_or_default(),
    })
}

thread_local! {
    /// The scope installed by [`with_exec`] on this thread.
    static SCOPE: Cell<Option<ExecConfig>> = const { Cell::new(None) };
    /// Set inside pool workers: nested parallel calls run serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The execution config in effect on this thread: the innermost
/// [`with_exec`] scope, else the process default. Inside a pool worker
/// `threads` is 1, so nested parallel calls run serially.
pub fn current_exec() -> ExecConfig {
    let cfg = SCOPE.with(Cell::get).unwrap_or_else(default_exec);
    if IN_WORKER.with(Cell::get) {
        ExecConfig { threads: 1, ..cfg }
    } else {
        cfg
    }
}

/// Run `f` with `cfg` in effect on this thread (`threads` clamped to at
/// least 1). The previous scope is restored on exit, including on panic.
pub fn with_exec<R>(cfg: ExecConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ExecConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| s.set(self.0));
        }
    }
    let pinned = ExecConfig { threads: cfg.threads.max(1), ..cfg };
    let _restore = Restore(SCOPE.with(|s| s.replace(Some(pinned))));
    f()
}

/// Work below this many multiply-accumulates runs serially: a pool
/// dispatch would cost more than it saves. Purely a scheduling choice;
/// results are bit-identical either way.
const MIN_PARALLEL_MACS: usize = 32 * 1024;

/// Workers a call of `macs` multiply-accumulates should use under a
/// budget of `threads`: 1 below the parallel cut-off, else `threads`.
pub fn threads_for(threads: usize, macs: usize) -> usize {
    if macs < MIN_PARALLEL_MACS {
        1
    } else {
        threads
    }
}

/// Mark the current thread as a pool worker for its whole lifetime.
pub(crate) fn mark_worker_thread() {
    IN_WORKER.with(|w| w.set(true));
}

/// Run `f` with this thread temporarily marked as a worker (nested
/// parallel calls inside `f` take the serial path), restoring the
/// previous state afterwards — used when the submitting thread
/// participates in its own pooled job.
pub(crate) fn enter_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field is pinned by a scope, nested scopes shadow and
    /// restore, and a panicking scope restores too.
    #[test]
    fn with_exec_pins_nests_and_restores_on_panic() {
        let outer = current_exec();
        let table = [
            ExecConfig {
                threads: 3,
                lut: LutPolicy::Always,
                act: ActPolicy::Always,
                verify: VerifyPolicy::Full,
            },
            ExecConfig {
                threads: 1,
                lut: LutPolicy::Never,
                act: ActPolicy::Auto,
                verify: VerifyPolicy::Sample(4),
            },
            ExecConfig {
                threads: 2,
                lut: LutPolicy::Auto,
                act: ActPolicy::Never,
                verify: VerifyPolicy::Off,
            },
        ];
        for a in table {
            with_exec(a, || {
                assert_eq!(current_exec(), a);
                for b in table {
                    with_exec(b, || assert_eq!(current_exec(), b));
                    assert_eq!(current_exec(), a, "inner scope restored");
                }
                let r = std::panic::catch_unwind(|| with_exec(table[1], || panic!("boom")));
                assert!(r.is_err());
                assert_eq!(current_exec(), a, "restored on unwind");
            });
            assert_eq!(current_exec(), outer);
        }
        with_exec(ExecConfig { threads: 0, ..outer }, || {
            assert_eq!(current_exec().threads, 1, "0 workers clamps to serial");
        });
    }

    /// Each knob's parser accepts its documented forms and rejects
    /// garbage (the caller then warns and keeps the default).
    #[test]
    fn knob_parsers_accept_documented_forms_and_reject_garbage() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("0"), Some(1), "0 clamps to 1");
        for bad in ["four", "-1", "1.5"] {
            assert_eq!(parse_threads(bad), None, "{bad}");
        }
        for (s, want) in [
            ("auto", LutPolicy::Auto),
            ("", LutPolicy::Auto),
            ("Always", LutPolicy::Always),
            ("NEVER", LutPolicy::Never),
        ] {
            assert_eq!(parse_lut(s), Some(want), "{s}");
        }
        assert_eq!(parse_lut("alway"), None);
        for (s, want) in [
            ("auto", ActPolicy::Auto),
            ("ALWAYS", ActPolicy::Always),
            ("never", ActPolicy::Never),
            ("", ActPolicy::Never),
        ] {
            assert_eq!(parse_act(s), Some(want), "{s}");
        }
        assert_eq!(parse_act("on"), None);
        for (s, want) in [
            ("off", VerifyPolicy::Off),
            ("0", VerifyPolicy::Off),
            ("", VerifyPolicy::Off),
            ("full", VerifyPolicy::Full),
            ("1", VerifyPolicy::Full),
            ("sample", VerifyPolicy::Sample(16)),
            ("sample:4", VerifyPolicy::Sample(4)),
            ("sample:0", VerifyPolicy::Sample(1)),
        ] {
            assert_eq!(parse_verify(s), Some(want), "{s}");
        }
        for bad in ["nonsense", "sample:x", "sample:-1"] {
            assert_eq!(parse_verify(bad), None, "{bad}");
        }
    }

    #[test]
    fn parallel_cut_off_is_32ki_macs() {
        assert_eq!(threads_for(8, 32 * 1024 - 1), 1);
        assert_eq!(threads_for(8, 32 * 1024), 8);
    }
}
