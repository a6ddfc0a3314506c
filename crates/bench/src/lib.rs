//! # jgi-bench — regenerating the paper's evaluation
//!
//! Binaries (see DESIGN.md's per-experiment index):
//!
//! * `table9` — the headline experiment: wall-clock times for Q1–Q6 across
//!   the four back-ends, paper numbers alongside;
//! * `table6` — the index advisor's recommendations for the Q2 workload;
//! * `figures` — textual renditions of Figs. 2, 4, 7, 8, 9, 10 and 11;
//! * `ablation` — Q1–Q4 against full / pre-only / no index catalogs,
//!   isolating what the Table 6 index family buys over the planner alone;
//! * `lint-plans` — golden plan-lint run over the Q1–Q8 corpus;
//! * `backend-oracle` — Q1–Q8 through `jgi-engine` *and* through the
//!   emitted join-graph SQL on a real backend (SQLite via the CLI shell),
//!   results compared after pre-rank recovery, zero divergence required;
//!   also checks/blesses the per-dialect golden SQL fixtures; emits
//!   `BENCH_sql.json` (schema in EXPERIMENTS.md, dialect spec in SQL.md).
//!
//! End-to-end and per-layer performance is measured by the repository
//! benchmark in `benchmark/`, not here.

use jgi_core::Session;
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};

/// Benchmark workload scales, settable from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// XMark scale factor (paper: 1.0 ≙ 110 MB).
    pub xmark_scale: f64,
    /// DBLP publication count (paper: ~1M ≙ 400 MB).
    pub dblp_pubs: usize,
    /// Runs per measurement (paper: 10).
    pub runs: usize,
}

impl Default for Workload {
    fn default() -> Self {
        Workload { xmark_scale: 0.02, dblp_pubs: 10_000, runs: 3 }
    }
}

impl Workload {
    /// Parse `[xmark_scale] [dblp_pubs] [runs]` from argv.
    pub fn from_args() -> Workload {
        let mut w = Workload::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        if let Some(s) = args.first().and_then(|s| s.parse().ok()) {
            w.xmark_scale = s;
        }
        if let Some(p) = args.get(1).and_then(|s| s.parse().ok()) {
            w.dblp_pubs = p;
        }
        if let Some(r) = args.get(2).and_then(|s| s.parse().ok()) {
            w.runs = r;
        }
        w
    }

    /// Session with the XMark instance loaded.
    pub fn xmark_session(&self) -> Session {
        let mut s = Session::new();
        s.add_tree(generate_xmark(XmarkConfig { scale: self.xmark_scale, seed: 42 }));
        s
    }

    /// Session with the DBLP instance loaded.
    pub fn dblp_session(&self) -> Session {
        let mut s = Session::new();
        s.add_tree(generate_dblp(DblpConfig { publications: self.dblp_pubs, seed: 42 }));
        s
    }
}
