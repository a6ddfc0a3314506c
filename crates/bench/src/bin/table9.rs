//! Regenerate paper Table 9: result sizes and wall-clock execution times
//! for Q1–Q6 on the four back-ends.
//!
//! ```sh
//! cargo run --release -p jgi-bench --bin table9 -- [xmark_scale] [dblp_pubs] [runs]
//! ```
//!
//! Each navigational time is followed by the steps (node visits) it
//! charged; a dnf cell spent the whole budget.
//!
//! Absolute numbers differ from the paper (synthetic instances at laptop
//! scale, a different machine, a from-scratch engine); the *shape* — who
//! wins, by roughly what factor, where dnf strikes — is the reproduction
//! target. The paper's own numbers print alongside for comparison.

use jgi_bench::Workload;
use jgi_core::queries::{context_doc, Q1, Q2, Q3, Q4, Q5, Q6_BINDING, Q6_COLUMNS, Q6_SEQ};
use jgi_core::xmltable::{flatten_tuples, xmltable};
use jgi_core::{Engine, Session};
use jgi_engine::logical_exec::ExecBudget;
use jgi_obs::{Json, ObsMode};
use std::time::{Duration, Instant};

/// One paper row: (query, #nodes, stacked, join graph, pureXML whole,
/// pureXML segmented); `None` = dnf.
type PaperRow = (&'static str, u64, Option<f64>, Option<f64>, Option<f64>, Option<f64>);

/// Paper Table 9 (seconds) for reference printing.
const PAPER: &[PaperRow] = &[
    ("Q1", 1_625_157, Some(63.011), Some(11.788), Some(10.073), Some(9.661)),
    ("Q2", 318, None, Some(0.544), None, None),
    ("Q3", 1, Some(60.582), Some(0.017), Some(0.891), Some(0.001)),
    ("Q4", 9_750, Some(32.246), Some(0.309), Some(6.455), Some(7.438)),
    ("Q5", 1, Some(442.745), Some(0.391), Some(48.066), Some(0.001)),
    ("Q6", 59, Some(0.026), Some(0.004), Some(1.292), Some(0.017)),
];

fn fmt(t: Option<Duration>) -> String {
    match t {
        Some(d) => format!("{:>10.4}", d.as_secs_f64()),
        None => format!("{:>10}", "dnf"),
    }
}

fn fmt_paper(t: Option<f64>) -> String {
    match t {
        Some(s) => format!("{s:>9.3}"),
        None => format!("{:>9}", "dnf"),
    }
}

struct Row {
    name: &'static str,
    nodes: u64,
    times: [Option<Duration>; 4], // stacked, join graph, nav whole, nav segmented
    nav_steps: [u64; 2],          // nav whole, nav segmented
}

fn measure(session: &mut Session, name: &'static str, text: &str, runs: usize) -> Row {
    let ctx = context_doc(name);
    let prepared = session.prepare(text, ctx).expect("paper query compiles");
    let mut times: [Option<Duration>; 4] = [None; 4];
    let mut nav_steps = [0u64; 2];
    let mut nodes = 0u64;
    // Index construction and buffer warm-up happen outside the measurement
    // (the paper averages warm runs).
    let _ = session.database();
    for (slot, engine) in
        [Engine::Stacked, Engine::JoinGraph, Engine::NavWhole, Engine::NavSegmented]
            .into_iter()
            .enumerate()
    {
        let mut total = Duration::ZERO;
        let mut finished = true;
        for _ in 0..runs {
            let outcome = session.execute(&prepared, engine).expect("plan executes");
            if let Some(nav) = outcome.report.nav {
                nav_steps[slot - 2] = nav.steps;
            }
            match outcome.nodes {
                Some(result) => {
                    total += outcome.wall;
                    nodes = session.node_count(&result);
                }
                None => {
                    finished = false;
                    break;
                }
            }
        }
        times[slot] = finished.then(|| total / runs as u32);
    }
    Row { name, nodes, times, nav_steps }
}

/// Q6 goes through the XMLTABLE substitution on the join-graph back-end
/// (exactly as the paper did) and the sequence form elsewhere.
fn measure_q6(session: &mut Session, runs: usize) -> Row {
    let mut row = measure(session, "Q6", Q6_SEQ, runs);
    let binding = session.prepare(Q6_BINDING, context_doc("Q6")).expect("Q6 binding compiles");
    let cq = binding.cq.as_ref().expect("Q6 binding extractable");
    let width_before = cq.select.len();
    let tuple_cq = xmltable(cq, &Q6_COLUMNS);
    let db = session.database();
    let mut total = Duration::ZERO;
    let mut flat_len = 0u64;
    for _ in 0..runs {
        let start = Instant::now();
        let plan = jgi_engine::optimizer::plan(db, &tuple_cq);
        let rows = jgi_engine::physical::execute_rows(db, &plan);
        let flat = flatten_tuples(width_before, &rows, Q6_COLUMNS.len());
        total += start.elapsed();
        flat_len = flat.iter().map(|&p| 1 + db.store.size[p as usize] as u64).sum();
    }
    row.times[1] = Some(total / runs as u32);
    row.nodes = row.nodes.max(flat_len);
    row
}

fn main() {
    let w = Workload::from_args();
    println!(
        "Table 9 reproduction — XMark scale {} ({} runs/cell), DBLP {} publications",
        w.xmark_scale, w.runs, w.dblp_pubs
    );
    println!("dnf cutoffs: stacked interpreter row budget / navigational step budget\n");

    let mut rows: Vec<Row> = Vec::new();

    let mut xm = w.xmark_session();
    // dnf cutoffs tuned to the instance size: generous but finite.
    let n = xm.store().len() as u64;
    xm.budgets.stacked = ExecBudget { max_rows: n.saturating_mul(2_000) };
    xm.budgets.nav = n.saturating_mul(2_000);
    println!("XMark instance: {} nodes", xm.store().len());
    rows.push(measure(&mut xm, "Q1", Q1, w.runs));
    rows.push(measure(&mut xm, "Q2", Q2, w.runs));
    rows.push(measure(&mut xm, "Q3", Q3, w.runs));
    rows.push(measure(&mut xm, "Q4", Q4, w.runs));
    drop(xm);

    let mut db = w.dblp_session();
    let n = db.store().len() as u64;
    db.budgets.stacked = ExecBudget { max_rows: n.saturating_mul(2_000) };
    db.budgets.nav = n.saturating_mul(2_000);
    println!("DBLP instance:  {} nodes\n", db.store().len());
    rows.push(measure(&mut db, "Q5", Q5, w.runs));
    rows.push(measure_q6(&mut db, w.runs));

    println!(
        "{:<4} {:>10} | {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} | paper(s): {:>9} {:>9} {:>9} {:>9}",
        "", "# nodes", "stacked", "joingraph", "nav-whole", "steps", "nav-segm", "steps",
        "stacked", "joingr", "pureXML-w", "pureXML-s"
    );
    for (row, paper) in rows.iter().zip(PAPER) {
        println!(
            "{:<4} {:>10} | {} {} {} {:>10} {} {:>10} | {:>18} {} {} {} {}",
            row.name,
            row.nodes,
            fmt(row.times[0]),
            fmt(row.times[1]),
            fmt(row.times[2]),
            row.nav_steps[0],
            fmt(row.times[3]),
            row.nav_steps[1],
            paper.1,
            fmt_paper(paper.2),
            fmt_paper(paper.3),
            fmt_paper(paper.4),
            fmt_paper(paper.5),
        );
    }

    // Shape assertions (the claims of §4.2).
    println!("\nshape checks:");
    let speedup = |r: &Row| match (r.times[0], r.times[1]) {
        (Some(s), Some(j)) => Some(s.as_secs_f64() / j.as_secs_f64()),
        (None, Some(_)) => Some(f64::INFINITY),
        _ => None,
    };
    for row in &rows {
        if let Some(f) = speedup(row) {
            println!("  {}: join graph is {f:.1}x faster than stacked", row.name);
        }
    }
    let q2 = &rows[1];
    println!(
        "  Q2: navigational value join {} (paper: dnf for pureXML)",
        if q2.times[2].is_none() && q2.times[3].is_none() {
            "dnf on both modes ✓"
        } else {
            "finished (instance below the dnf threshold — raise the scale)"
        }
    );
    for (i, name) in [(2usize, "Q3"), (4, "Q5")] {
        let r = &rows[i];
        if let (Some(whole), Some(seg)) = (r.times[2], r.times[3]) {
            println!(
                "  {name}: segmented is {:.0}x faster than whole-document navigation \
                 (paper's best case for XMLPATTERN)",
                whole.as_secs_f64() / seg.as_secs_f64().max(1e-9)
            );
        }
    }

    // Machine-readable report: one JSON line per row (stdout), keyed by
    // engine label; `null` marks dnf. Active under `JGI_OBS=json`.
    if ObsMode::from_env() == ObsMode::Json {
        let us = |t: Option<Duration>| {
            t.map_or(Json::Null, |d| Json::UInt(d.as_micros() as u64))
        };
        for row in &rows {
            let obj = Json::obj([
                ("bench", Json::str("table9")),
                ("query", Json::str(row.name)),
                ("xmark_scale", Json::Num(w.xmark_scale)),
                ("runs", Json::UInt(w.runs as u64)),
                ("nodes", Json::UInt(row.nodes)),
                ("stacked_us", us(row.times[0])),
                ("join_graph_us", us(row.times[1])),
                ("nav_whole_us", us(row.times[2])),
                ("nav_segmented_us", us(row.times[3])),
                ("nav_whole_steps", Json::UInt(row.nav_steps[0])),
                ("nav_segmented_steps", Json::UInt(row.nav_steps[1])),
            ]);
            println!("{}", obj.render());
        }
    }
}
