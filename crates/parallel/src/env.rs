//! Consolidated environment-knob parsing.
//!
//! Every `AXCORE_*` runtime knob (`AXCORE_THREADS`, `AXCORE_LUT`,
//! `AXCORE_ACT`, `AXCORE_VERIFY`, the serving-runtime tunables, …)
//! resolves through [`parse`]: one place
//! that reads the variable, trims it, applies the knob's own parser, and
//! — the part the old per-site `match`es silently skipped — prints a
//! **loud warning to stderr when the value is unrecognized**, naming the
//! variable, the offending value, and the accepted forms. A typo like
//! `AXCORE_LUT=alway` or `AXCORE_THREADS=four` no longer silently means
//! "default"; it means "default, and the operator is told why".
//!
//! Call sites keep their own `OnceLock` caching (the knobs are
//! read-once by design), so the warning fires at most once per process
//! per variable.

/// Read `name` from the environment and run `parser` over the trimmed
/// value. Returns `None` when the variable is unset **or** unrecognized;
/// the unrecognized case additionally prints a warning naming the
/// accepted forms (`expected`).
pub fn parse<T>(
    name: &str,
    expected: &str,
    parser: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let parsed = parser(raw.trim());
    if parsed.is_none() {
        eprintln!("axcore: ignoring unrecognized {name}={raw:?} (expected {expected})");
    }
    parsed
}

/// [`parse`] for plain unsigned-integer knobs.
pub fn parse_usize(name: &str) -> Option<usize> {
    parse(name, "an unsigned integer", |s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    // `set_var` mutates process state shared with other tests, so each
    // scenario uses its own variable name and they all live in one test.
    #[test]
    fn recognized_unset_and_garbage_values() {
        std::env::set_var("AXCORE_ENVTEST_OK", " 7 ");
        assert_eq!(parse_usize("AXCORE_ENVTEST_OK"), Some(7));
        assert_eq!(parse_usize("AXCORE_ENVTEST_UNSET"), None);
        std::env::set_var("AXCORE_ENVTEST_BAD", "four");
        assert_eq!(parse_usize("AXCORE_ENVTEST_BAD"), None, "garbage maps to None (plus a warning)");
        std::env::set_var("AXCORE_ENVTEST_CHOICE", "off");
        let mode = parse("AXCORE_ENVTEST_CHOICE", "on|off", |s| match s {
            "on" => Some(1),
            "off" => Some(2),
            _ => None,
        });
        assert_eq!(mode, Some(2));
    }
}
