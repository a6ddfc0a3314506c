//! `lint-plans` — run the jgi-check plan lints over the Q1–Q8 corpus.
//!
//! For each paper query the stacked (pre-rewrite) and isolated
//! (post-rewrite) plans are linted. The stacked plans are *expected* to
//! lint — the compiler's loop-lifting output is full of dead rank columns,
//! identity projections and stranded δ/ϱ operators; that is precisely what
//! join graph isolation cleans up. The isolated plans must be lint-free.
//!
//! Queries that reach the join-graph back-end are additionally linted for
//! join-strategy regressions: a value-join core executing as NLJOIN when
//! the planner estimates a hash join materially cheaper is a finding (it
//! means strategy selection is misconfigured or the cost model regressed).
//! So is an access that binds the parent of a bound alias without an
//! equality probe on `pre` (a reversed child step left as a one-sided
//! containment scan).
//!
//! Exit status: 0 when every isolated plan is clean, 1 otherwise — CI runs
//! this as a golden check. Usage: `lint-plans [xmark_scale] [dblp_pubs]`.

use jgi_bench::Workload;
use jgi_check::lint::{lint, lint_codes};
use jgi_engine::optimizer::{self, PlanOptions};
use std::collections::BTreeSet;
use std::process::ExitCode;

fn main() -> ExitCode {
    let w = Workload::from_args();
    let mut xmark = w.xmark_session();
    let mut dblp = w.dblp_session();

    let mut stacked_classes: BTreeSet<&'static str> = BTreeSet::new();
    let mut isolated_dirty = 0usize;

    println!("{:<4} {:>14} {:>15}  stacked lint classes", "", "stacked lints", "isolated lints");
    for (name, text, ctx) in jgi_core::queries::paper_corpus() {
        let session = if matches!(name, "Q5" | "Q6") { &mut dblp } else { &mut xmark };
        let prepared = match session.prepare(text, ctx) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{name}: prepare failed: {e}");
                return ExitCode::FAILURE;
            }
        };

        let stacked = lint(&prepared.plan, prepared.stacked_root);
        let isolated = lint(&prepared.plan, prepared.isolated_root);
        let codes = lint_codes(&stacked);
        stacked_classes.extend(codes.iter().copied());

        println!(
            "{:<4} {:>14} {:>15}  {}",
            name,
            stacked.len(),
            isolated.len(),
            codes.join(",")
        );
        if !isolated.is_empty() {
            isolated_dirty += 1;
            for d in &isolated {
                eprintln!("  {name} isolated: {d}");
            }
        }

        // Join-strategy lint over the physical plan the session would run.
        if let Some(cq) = &prepared.cq {
            let popts = PlanOptions { join: session.budgets.join, ..PlanOptions::default() };
            let db = session.database();
            let plan = optimizer::plan_opts(db, cq, &popts);
            let findings = optimizer::lint_join_strategies(db, cq, &plan);
            if !findings.is_empty() {
                isolated_dirty += 1;
                for f in &findings {
                    eprintln!("  {name} join-strategy: {f}");
                }
            }
            let findings = optimizer::lint_parent_probes(db, cq, &plan);
            if !findings.is_empty() {
                isolated_dirty += 1;
                for f in &findings {
                    eprintln!("  {name} parent-probe: {f}");
                }
            }
        }
    }

    println!(
        "\n{} lint classes across stacked plans: {}",
        stacked_classes.len(),
        stacked_classes.iter().copied().collect::<Vec<_>>().join(", ")
    );

    if isolated_dirty > 0 {
        eprintln!("FAIL: {isolated_dirty} isolated plan(s) lint");
        return ExitCode::FAILURE;
    }
    println!("OK: all isolated plans are lint-free");
    ExitCode::SUCCESS
}
