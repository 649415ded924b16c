//! `ppep-lint`: a workspace static analyzer enforcing PPEP's domain
//! invariants — rules the compiler and clippy cannot express.
//!
//! | Group | Rule(s) | Invariant |
//! |-------|---------|-----------|
//! | L1 | `unwrap`, `expect`, `panic`, `index-arith`, `index-nonliteral` | the runtime crates (`ppep-core`, `ppep-dvfs`, `ppep-models`, `ppep-obs`, `ppep-pmc`, `ppep-rig`, `ppep-serve`, `ppep-sim`, `ppep-telemetry` — including the v2 binary trace codec and the session layer) never panic in non-test code; failures propagate as `ppep_types::Error`, and every non-literal index survives only with a recorded bounds invariant |
//! | L2 | `raw-f64` | public signatures of `ppep-models` / `ppep-core` use unit newtypes, never bare `f64` (dimensionless ratios are allowlisted with reasons) |
//! | L3 | `wildcard-match` | matches on domain enums are exhaustive with no wildcard arm |
//! | L4 | `unguarded-output` | public model outputs route through `ppep_types::units::finite` so NaN/∞ cannot enter projections |
//! | L5 | `stale-projection` | a `PpeProjection` is never read after an `apply(..)`/`set_vf(..)`/`set_enforced_cap(..)` boundary without re-projection — every DVFS decision prices off a fresh model of the *current* VF state (dataflow rule) |
//! | L6 | `unbound-span` | tracing span guards are bound to live bindings (`let _g = rec.span(..)`), never dropped on the spot by a bare statement or `let _ =` |
//! | L7 | `lock-across-boundary` | a `MutexGuard` is never live across `handle_frame`, the v2 frame codec (including `read_frame_bytes`) or trace reader (`parse`), or socket/file I/O calls — lock hold times stay bounded so the sharded serve-path p99 does, with no allowlisted exceptions (dataflow rule) |
//! | L8 | `dropped-transient` | a `Result` from `sample()`/`resample()`/platform apply paths is never discarded via `let _ =` / `.ok()` without an `is_transient()` triage branch — faults either retry or surface, preserving the energy-accounting identity (dataflow rule) |
//!
//! Violations print as rustc-style diagnostics and make the binary
//! exit nonzero, so `cargo run -p ppep-lint` slots directly into CI.
//! Two escape hatches exist, both auditable:
//!
//! * a per-line `// ppep-lint: allow(rule)` suppression (trailing, or
//!   on the line above);
//! * the workspace allowlist `ppep-lint.allow`, whose entries require
//!   a recorded reason.
//!
//! The analyzer lexes Rust itself (see [`lexer`]) instead of using
//! `syn`, so it — like the rest of the workspace — builds with zero
//! registry access. L1–L4/L6 pattern-match the token stream; the
//! temporal rules (L5/L7/L8) parse each fn body into an AST
//! ([`ast`]), lower it to a statement-granularity CFG ([`cfg`]), and
//! run forward dataflow ([`dataflow`]) to track facts across
//! branches and loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod ast;
pub mod cfg;
pub mod context;
pub mod dataflow;
pub mod diag;
pub mod lexer;
pub mod rules;

pub use allow::Allowlist;
pub use diag::Diagnostic;

use context::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the workspace allowlist file, resolved against the root.
pub const ALLOWLIST_FILE: &str = "ppep-lint.allow";

/// Maps a workspace-relative `.rs` path to the Cargo package it
/// belongs to, or `None` when the file is out of scope (fixtures,
/// integration tests, examples, build output).
pub fn crate_name_for(rel_path: &str) -> Option<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        ["src", ..] => Some("ppep-repro".to_string()),
        ["crates", dir, "src", ..] => Some(match *dir {
            // The offline shims re-export under the real crates' names.
            "randshim" => "rand".to_string(),
            "proptestshim" => "proptest".to_string(),
            _ => format!("ppep-{dir}"),
        }),
        _ => None,
    }
}

/// Lints one in-memory source file under a given crate identity.
/// This is the entry point the fixture tests drive.
pub fn lint_source(path: &str, crate_name: &str, src: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, crate_name, src);
    rules::check_file(&file, allow)
}

/// Result of a workspace run.
pub struct WorkspaceReport {
    /// All violations, sorted by path and position.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files analyzed.
    pub files: usize,
    /// Allowlist entries that matched nothing across the whole run —
    /// stale exemptions the binary turns into a nonzero exit.
    pub unused_allow: Vec<allow::AllowEntry>,
}

/// Walks the workspace at `root` and runs every rule. Reads the
/// allowlist from `<root>/ppep-lint.allow` when present.
///
/// # Errors
///
/// Returns `io::Error` for unreadable files, and
/// `io::ErrorKind::InvalidData` for a malformed allowlist.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let allow = match fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => {
            Allowlist::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(e),
    };
    let mut files_to_lint: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root.join("src"), &mut files_to_lint)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs_files(&dir.join("src"), &mut files_to_lint)?;
        }
    }
    files_to_lint.sort();

    let mut diagnostics = Vec::new();
    let mut files = 0usize;
    for path in files_to_lint {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(crate_name) = crate_name_for(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        diagnostics.extend(lint_source(&rel, &crate_name, &src, &allow));
        files += 1;
    }
    diag::sort(&mut diagnostics);
    let unused_allow = allow.unused();
    Ok(WorkspaceReport {
        diagnostics,
        files,
        unused_allow,
    })
}

/// Recursively collects `.rs` files under `dir` (no-op when absent).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_name_mapping() {
        assert_eq!(
            crate_name_for("crates/core/src/daemon.rs").as_deref(),
            Some("ppep-core")
        );
        assert_eq!(crate_name_for("src/lib.rs").as_deref(), Some("ppep-repro"));
        assert_eq!(
            crate_name_for("crates/randshim/src/lib.rs").as_deref(),
            Some("rand")
        );
        assert_eq!(crate_name_for("tests/integration.rs"), None);
        assert_eq!(crate_name_for("crates/lint/tests/fixtures/bad.rs"), None);
    }

    /// The v2 binary trace codec must stay under L1 (panic-free)
    /// coverage: its path maps to `ppep-telemetry`, and that crate is
    /// in the runtime set. If either side of this pairing breaks, the
    /// codec silently drops out of the analyzer's scope.
    #[test]
    fn v2_codec_is_l1_covered() {
        let name = crate_name_for("crates/telemetry/src/binary.rs");
        assert_eq!(name.as_deref(), Some("ppep-telemetry"));
        assert!(rules::RUNTIME_CRATES.contains(&"ppep-telemetry"));
    }
}
