//! Source-level sync-discipline lints: the textual half of the
//! concurrency certification story (DESIGN.md §10).
//!
//! The jgi-model checker can only certify code that *routes through* the
//! jgi-sync facade — a direct `std::sync::atomic` call site is invisible
//! to the scheduler and silently escapes every explored interleaving.
//! This pass walks the workspace sources and flags:
//!
//! * **R1** — direct `std::sync::atomic` paths (imports or inline) outside
//!   the facade and the checker runtime;
//! * **R2** — named atomic `Ordering::` variants (`Relaxed`, `Acquire`,
//!   `Release`, `AcqRel`, `SeqCst`) at call sites: the facade pins one
//!   ordering per method name precisely so orderings never appear inline
//!   (`std::cmp::Ordering` match arms are not flagged);
//! * **R3** — a `_relaxed(` facade call without a `// relaxed:` audit
//!   comment in the three lines above it: every Relaxed site must carry
//!   its justification next to the code (the DESIGN.md §10 table indexes
//!   these comments).
//!
//! Exempt: `crates/sync` (the facade is the one place allowed to name
//! `std::sync` types), `crates/model` (the checker runtime *implements*
//! the scheduler on top of real `std::sync`), the dependency shims,
//! `benchmark/` (a package outside the workspace: the measuring harness,
//! not the code the checker certifies), and anything under `target/`.
//! Enforced in CI by the `lint-sync` binary;
//! `clippy.toml`'s `disallowed-types` backs R1 at the type level.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncRule {
    /// R1: direct `std::sync::atomic` path outside the facade.
    DirectAtomic,
    /// R2: inline atomic `Ordering::` variant at a call site.
    InlineOrdering,
    /// R3: `_relaxed(` call without a `// relaxed:` audit comment nearby.
    UnauditedRelaxed,
}

impl SyncRule {
    /// Stable short code for diagnostics (`SYNC1`..`SYNC3`).
    pub fn code(self) -> &'static str {
        match self {
            SyncRule::DirectAtomic => "SYNC1",
            SyncRule::InlineOrdering => "SYNC2",
            SyncRule::UnauditedRelaxed => "SYNC3",
        }
    }
}

/// One sync-discipline diagnostic.
#[derive(Debug, Clone)]
pub struct SyncDiag {
    pub rule: SyncRule,
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    pub message: String,
}

impl fmt::Display for SyncDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.rule.code(),
            self.message,
            self.snippet
        )
    }
}

/// Paths (relative to the workspace root) whose sources may name
/// `std::sync` directly. This module is exempt too: its test fixtures
/// spell the forbidden patterns out as string literals.
const EXEMPT: &[&str] = &[
    "crates/sync",
    "crates/model",
    "crates/check/src/sync_lint.rs",
    "shims",
    "benchmark",
    "target",
];

fn is_exempt(rel: &Path) -> bool {
    EXEMPT.iter().any(|e| rel.starts_with(e))
}

/// The atomic `Ordering` variants R2 looks for. `std::cmp::Ordering`'s
/// variants (`Less`/`Equal`/`Greater`) don't collide with any of these,
/// so a plain substring match is precise enough for this codebase.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Scan one file's contents. `rel` is the workspace-relative path used in
/// diagnostics and exemption checks.
pub fn scan_source(rel: &Path, src: &str) -> Vec<SyncDiag> {
    if is_exempt(rel) {
        return Vec::new();
    }
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        // Don't lint comments or doc text — prose may legitimately
        // discuss `std::sync::atomic` (this module does).
        let code = match line.find("//") {
            Some(pos) => line[..pos].trim_end(),
            None => line,
        };
        if code.is_empty() {
            continue;
        }
        if code.contains("std::sync::atomic") {
            out.push(SyncDiag {
                rule: SyncRule::DirectAtomic,
                file: rel.to_path_buf(),
                line: i + 1,
                snippet: line.to_string(),
                message: "direct std::sync::atomic use outside the jgi-sync facade \
                          (invisible to the jgi-model checker)"
                    .to_string(),
            });
        }
        if let Some(ord) = ATOMIC_ORDERINGS.iter().find(|o| code.contains(**o)) {
            out.push(SyncDiag {
                rule: SyncRule::InlineOrdering,
                file: rel.to_path_buf(),
                line: i + 1,
                snippet: line.to_string(),
                message: format!(
                    "inline `{ord}` at a call site — use the facade method that pins \
                     this ordering in its name"
                ),
            });
        }
        if code.contains("_relaxed(") {
            let audited = lines[i.saturating_sub(3)..i]
                .iter()
                .any(|l| l.trim_start().starts_with("//") && l.contains("relaxed:"));
            if !audited {
                out.push(SyncDiag {
                    rule: SyncRule::UnauditedRelaxed,
                    file: rel.to_path_buf(),
                    line: i + 1,
                    snippet: line.to_string(),
                    message: "Relaxed facade call without a `// relaxed:` audit comment \
                              in the 3 lines above (see DESIGN.md §10 ordering audit)"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// Recursively collect `.rs` files under `dir`, skipping exempt prefixes.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if is_exempt(rel) || rel.file_name().is_some_and(|n| n == ".git") {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Scan every non-exempt `.rs` file under `root` (the workspace
/// directory). Returns all diagnostics, file order stable.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<SyncDiag>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files);
    let mut out = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        out.extend(scan_source(&rel, &src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<SyncDiag> {
        scan_source(Path::new(rel), src)
    }

    #[test]
    fn direct_atomic_import_is_flagged() {
        let d = scan(
            "crates/serve/src/x.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\n",
        );
        assert!(d.iter().any(|d| d.rule == SyncRule::DirectAtomic));
    }

    #[test]
    fn inline_atomic_ordering_is_flagged_but_cmp_is_not() {
        let d = scan("crates/a/src/x.rs", "x.load(Ordering::Relaxed);\n");
        assert!(d.iter().any(|d| d.rule == SyncRule::InlineOrdering));
        let ok = scan("crates/a/src/x.rs", "Ordering::Equal => continue,\n");
        assert!(ok.is_empty(), "std::cmp::Ordering variants are not atomic orderings");
    }

    #[test]
    fn relaxed_call_requires_audit_comment() {
        let bad = scan("crates/a/src/x.rs", "n.fetch_add_relaxed(1);\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, SyncRule::UnauditedRelaxed);
        let good = scan(
            "crates/a/src/x.rs",
            "// relaxed: monotone tally, read after join.\nn.fetch_add_relaxed(1);\n",
        );
        assert!(good.is_empty());
    }

    #[test]
    fn audit_comment_window_is_three_lines() {
        let far = "// relaxed: too far away\n\n\n\nn.fetch_add_relaxed(1);\n";
        let d = scan("crates/a/src/x.rs", far);
        assert_eq!(d.len(), 1, "comment 4 lines up is out of the window");
    }

    #[test]
    fn facade_and_model_and_shims_are_exempt() {
        for rel in
            ["crates/sync/src/std_impl.rs", "crates/model/src/rt.rs", "shims/rand/src/lib.rs"]
        {
            let d = scan(rel, "use std::sync::atomic::Ordering;\nx.load(Ordering::SeqCst);\n");
            assert!(d.is_empty(), "{rel} should be exempt");
        }
    }

    #[test]
    fn comments_and_docs_are_not_linted() {
        let d = scan(
            "crates/a/src/x.rs",
            "//! discusses std::sync::atomic and Ordering::Relaxed freely\n\
             // std::sync::atomic in a comment\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn whole_workspace_is_clean() {
        // The real repo must pass its own lint — this is the same scan CI
        // runs via the lint-sync binary.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let diags = scan_workspace(root).expect("workspace scan");
        assert!(
            diags.is_empty(),
            "sync-discipline violations:\n{}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
