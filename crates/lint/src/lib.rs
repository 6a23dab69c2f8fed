//! # snaple-lint — repo-specific static analysis for the SNAPLE workspace
//!
//! A std-only, token-level linter (the vendor tree carries no
//! syn/dylint, so there is no parser) that enforces the invariants the
//! serving stack's tests can only check *after* a bug ships: panic-free
//! hot paths, allocation-bounded wire decoding, NaN-safe float
//! ordering, reproducible runs, and print-free libraries.
//!
//! ## Rules
//!
//! | id | zone | forbids |
//! |----|------|---------|
//! | `panic` | panic-free zone | `unwrap()`, `.expect(`, `panic!`, `unreachable!` |
//! | `index` | panic-free zone | postfix `[..]` slice/array indexing |
//! | `wire-length` | `wire.rs` decode fns | `as usize` widening feeding an alloc/index on the same line |
//! | `wire-alloc` | `wire.rs` decode fns | `with_capacity(arg)` unless `arg` is a literal or a `let arg = get_count(..)` binding |
//! | `float-order` | everywhere but `topk.rs` | `partial_cmp` (NaN-unsafe ordering; PR 3 regression guard) |
//! | `determinism` | everywhere | `SystemTime::now`, `thread_rng`, `from_entropy`, `OsRng`, `rand::random` |
//! | `print` | libraries (not bench, `src/bin/`, `main.rs`) | `println!`/`print!`/`eprintln!`/`eprint!`/`dbg!`/`todo!`/`unimplemented!` |
//! | `forbid-unsafe` | everywhere | the `unsafe` keyword |
//! | `suppression` | everywhere | malformed `snaple-lint: allow(..)` comments |
//!
//! The **panic-free zone** is [`rules::PANIC_FREE_ZONE`]: the serving
//! core every serving runtime runs through, the one prepared-predictor
//! lifecycle every apply and fork runs through, the GAS deployment every epoch fork
//! and in-place apply folds its delta through, the shard wire codec, shard runtime,
//! scatter-gather router, the concurrent server, and the GAS engine — the paths a panic turns into a hung
//! client or a dead shard instead of a typed `ShardFailed` error.
//!
//! Test regions (`#[cfg(test)]` items and `mod tests` blocks) are
//! exempt from every rule; `#![forbid(unsafe_code)]` covers them at the
//! compiler level.
//!
//! ## Suppressions
//!
//! ```text
//! // snaple-lint: allow(<rule>[, <rule>]) — <justification>
//! ```
//!
//! The justification is **required** (separators `—`, `--`, `-`, `:`).
//! A suppression on a code line covers that line; on a comment-only
//! line it covers the next line. A malformed suppression (unknown rule,
//! missing justification) is itself a `suppression` violation and
//! silences nothing.
//!
//! ## Adding a rule
//!
//! 1. Add a variant to [`rules::Rule`], its `id()`, and its zone logic
//!    in [`rules::checks_for`].
//! 2. Implement the per-line check in `rules::check_line` — it sees
//!    masked code ([`lexer`] blanks comments/strings), the raw line,
//!    and the enclosing fn name.
//! 3. Add one positive + one negative fixture under
//!    `tests/fixtures/<rule>/` and wire them into `tests/fixtures.rs`.
//! 4. Document the rule here and in `README.md`.
//!
//! ## Running
//!
//! ```text
//! cargo run -p snaple-lint -- --check            # exit 1 on violations
//! cargo run -p snaple-lint -- --fix-report       # rule-by-crate counts
//! cargo run -p snaple-lint -- --root /path/to/ws # lint another tree
//! ```
//!
//! `--check` also writes `LINT_REPORT.json` (override with
//! `--report <path>`), which CI uploads as an artifact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;

pub use rules::{analyze_source, Analysis, Rule, Violation};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Workspace-relative paths of every first-party `.rs` file under
/// `root`: `crates/<name>/src/**` for all non-vendor crates plus the
/// umbrella crate's `src/**`. Sorted for deterministic output.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if name == "vendor" || !entry.path().is_dir() {
                continue;
            }
            collect_rs(&entry.path().join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes every first-party source file under `root` and merges the
/// per-file results.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut total = Analysis::default();
    for rel in workspace_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        let a = analyze_source(&rel, &source);
        total.violations.extend(a.violations);
        total.suppressed += a.suppressed;
        total.files_scanned += a.files_scanned;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_files_skips_vendor_and_sorts() {
        // The crate's own workspace root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).expect("workspace scan");
        assert!(files.iter().any(|f| f == "crates/lint/src/lib.rs"));
        assert!(files.iter().any(|f| f == "crates/core/src/shard/wire.rs"));
        assert!(!files.iter().any(|f| f.contains("vendor")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
