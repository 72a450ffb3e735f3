//! Every runtime knob the library reads is documented, and every
//! documented knob is still read.
//!
//! The library crates resolve each `AXCORE_*` environment variable
//! through `axcore_parallel::env::parse` / `parse_usize`. This test
//! collects the variable names passed to those two functions anywhere
//! under `crates/` and checks that they are exactly the rows of the
//! "Runtime knobs" table in `README.md`: a new knob without a row, or a
//! row left behind by a deleted knob, fails here. The `AXCORE_ENVTEST_*`
//! names of the parser's own unit test and the bench-only
//! `AXCORE_BENCH_STRICT` are not runtime knobs and are left out.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate lives one level below the repo root")
        .to_path_buf()
}

/// All `.rs` files under `dir`, skipping the vendored stand-in crates.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "vendored" || n == "target")
            {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_runtime_knob(name: &str) -> bool {
    !name.starts_with("AXCORE_ENVTEST_") && name != "AXCORE_BENCH_STRICT"
}

/// Names passed as the first argument of a `parse(` or `parse_usize(`
/// call — the argument may sit on the next line.
fn knobs_read_in(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("\"AXCORE_") {
        let before = rest[..at].trim_end();
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if before.ends_with("parse(") || before.ends_with("parse_usize(") {
            names.push(tail[..len].to_string());
        }
        rest = &tail[len..];
    }
    names
}

fn knobs_read_by_crates() -> BTreeSet<String> {
    let mut files = Vec::new();
    rust_sources(&repo_root().join("crates"), &mut files);
    files
        .iter()
        .flat_map(|f| knobs_read_in(&std::fs::read_to_string(f).expect("readable source")))
        .filter(|n| is_runtime_knob(n))
        .collect()
}

/// The first-column names of the README's "Runtime knobs" table.
fn knobs_in_readme() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    let section = &readme[readme
        .find("### Runtime knobs")
        .expect("Runtime knobs section")..];
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.strip_prefix("| `AXCORE_"))
        .map(|l| format!("AXCORE_{}", &l[..l.find('`').expect("closing backtick")]))
        .collect()
}

#[test]
fn scanner_sees_split_and_single_line_calls() {
    let src = r#"
        env::parse_usize("AXCORE_A");
        axcore_parallel::env::parse(
            "AXCORE_B_2",
            "x",
            f,
        );
        std::env::var("AXCORE_C");
    "#;
    assert_eq!(knobs_read_in(src), ["AXCORE_A", "AXCORE_B_2"]);
}

#[test]
fn readme_knob_table_matches_knobs_read() {
    let read = knobs_read_by_crates();
    let documented = knobs_in_readme();
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README runtime-knob table out of sync: read but undocumented {undocumented:?}, \
         documented but never read {stale:?}"
    );
    assert!(!read.is_empty(), "the source scan found no knobs at all");
}
