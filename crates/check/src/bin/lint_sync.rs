//! `lint-sync` — CI gate for the sync discipline (DESIGN.md §10).
//!
//! Scans the workspace for direct `std::sync::atomic` use, inline atomic
//! `Ordering::` variants, and unaudited `_relaxed(` facade calls, then
//! exits non-zero if anything fired. Run from anywhere inside the repo:
//!
//! ```text
//! cargo run -p jgi-check --bin lint-sync
//! ```

use jgi_check::sync_lint::scan_workspace;
use std::path::PathBuf;

fn main() {
    // Workspace root: two levels up from this crate's manifest dir, or
    // the first CLI argument if given.
    let root = std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
    });
    let diags = match scan_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lint-sync: scan failed under {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    if diags.is_empty() {
        println!("lint-sync: clean ({} exempt: crates/sync, crates/model, shims, benchmark)", root.display());
        return;
    }
    for d in &diags {
        eprintln!("{d}");
    }
    eprintln!("lint-sync: {} violation(s)", diags.len());
    std::process::exit(1);
}
