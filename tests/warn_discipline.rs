//! Lint tests over the program's sources.
//!
//! Library code never writes to stderr with a bare `eprintln!`. Every
//! stderr line goes through `memnet_simcore`'s `memnet_warn!` (problems)
//! or `memnet_log!` (progress) so the output stays uniformly greppable —
//! `[memnet:warn]` finds every warning in a CI log regardless of which
//! subsystem emitted it. Scope is `crates/*/src`: the thin `memnet`
//! binary (`src/`) may still print fatal usage errors directly, and test
//! code is free to print whatever it likes.
//!
//! The environment is read in one place: behaviour depends on explicit
//! configuration, so no library reads an environment variable that a
//! flag or a manifest field could carry instead.

use std::path::{Path, PathBuf};

/// The one file allowed to contain `eprintln!`: the macro definitions
/// themselves.
const ALLOWED: &str = "crates/simcore/src/warn.rs";

/// The only files of `crates/*/src` and `src/` allowed to read the
/// environment (`env::var` also matches `var_os`, `vars` and `vars_os`).
const ENV_READERS: [&str; 3] = [
    // The binary's harness settings: `memnet figures` and `memnet sweep`.
    "src/env.rs",
    // `MEMNET_AUDIT` and `MEMNET_AUDIT_PANIC`. The audit level reaches a
    // run only through `SimConfigBuilder::new`, and membench checks that
    // level on every report of its traced sweeps, so it stays here until
    // membench itself changes.
    "crates/simcore/src/audit.rs",
    // `PROPTEST_SEED`, the stand-in's documented seed override.
    "crates/proptest/src/lib.rs",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`.
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = entry.expect("readable crates/ entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 10, "source scan found only {} files", sources.len());
    sources
}

/// The lines of `sources` (outside the `allowed` files) that contain
/// `needle`, as `path:line: text` relative to `root`.
fn offending_lines(
    root: &Path,
    sources: &[PathBuf],
    allowed: &[&str],
    needle: &str,
) -> Vec<String> {
    let mut offenders = Vec::new();
    for path in sources {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        if allowed.contains(&rel.as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(path).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            if line.contains(needle) {
                offenders.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    offenders
}

#[test]
fn no_bare_eprintln_in_library_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let offenders = offending_lines(root, &library_sources(root), &[ALLOWED], "eprintln!");
    assert!(
        offenders.is_empty(),
        "bare eprintln! in library code — route through memnet_warn!/memnet_log!:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_environment_is_read_in_one_place() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = library_sources(root);
    rust_sources(&root.join("src"), &mut sources);
    let offenders = offending_lines(root, &sources, &ENV_READERS, "env::var");
    assert!(
        offenders.is_empty(),
        "environment read outside {ENV_READERS:?} — take the value as a flag, a manifest \
         field or a `Settings` field instead:\n{}",
        offenders.join("\n")
    );
}
