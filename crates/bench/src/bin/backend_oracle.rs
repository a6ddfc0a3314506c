//! `backend-oracle` — the divergence oracle: Q1–Q8 through `jgi-engine`
//! *and* through the emitted join-graph SQL on a real backend, with a hard
//! zero-divergence requirement.
//!
//! ```sh
//! cargo run --release -p jgi-bench --bin backend-oracle -- \
//!     [--backend sqlite|fixture|all] [--bless] [--fixtures DIR] \
//!     [--scale F] [--dblp-pubs N] [--runs N] [--out BENCH_sql.json]
//! ```
//!
//! This reproduces the shape of the paper's experiment (join graphs shipped
//! to DB2 §4, here SQLite): the XMark + DBLP corpus is exported as the
//! `doc(pre,size,level,kind,name,value,data,parent)` table, each query's
//! isolated join graph is emitted as SQL and executed by the backend, and
//! the row set is mapped back to a node sequence via pre-rank recovery
//! (`jgi_sql::recover_items`). Any difference from the engine's sequence —
//! cardinality or content — makes the binary exit non-zero. Because the two
//! sides share only the `doc` export and the emitted SQL text, agreement
//! certifies compiler, rewriter, optimizer, and executor against an
//! independent SQL implementation in one check.
//!
//! The fixture tier runs in the same harness: per-dialect emitted SQL is
//! diffed against the golden files under `tests/fixtures/sql/` (`--bless`
//! rewrites them). When no `sqlite3` binary is on `PATH` the live tier is
//! skipped with a notice and `"available": false` in the report — the
//! fixture tier still gates.
//!
//! Output: one `BENCH_sql.json` object (schema in EXPERIMENTS.md) with
//! per-query emit and execute latencies per backend and the total
//! divergence count, which must be 0.

use jgi_core::queries::paper_corpus;
use jgi_core::{Engine, Prepared, Session};
use jgi_obs::Json;
use jgi_sql::{
    divergence, emit_join_graph, recover_items, Backend, Dialect, EmitOptions, FixtureBackend,
    FixtureOutcome, SqliteBackend,
};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use std::time::{Duration, Instant};

const HELP: &str = "\
backend-oracle - BENCH_sql.json: engine vs SQL-backend divergence oracle over Q1-Q8

usage: cargo run --release -p jgi-bench --bin backend-oracle -- [OPTIONS]

options:
  --backend WHICH  sqlite | fixture | all (default: all)
  --bless          rewrite the golden SQL fixtures instead of diffing
  --fixtures DIR   fixture root (default: <repo>/tests/fixtures/sql)
  --scale F        XMark scale factor (default: 0.01)
  --dblp-pubs N    DBLP publication count for Q5/Q6 (default: 1000)
  --runs N         executions per (query, backend); min is reported (default: 3)
  --out PATH       output path (default: BENCH_sql.json)
  -h, --help       print this help and exit";

/// Fixture root when `--fixtures` is not given: resolved relative to this
/// crate's manifest so the binary works from any working directory.
const DEFAULT_FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/sql");

fn usage() -> ! {
    eprintln!("{HELP}");
    std::process::exit(2)
}

struct Opts {
    backend: String,
    bless: bool,
    fixtures: String,
    scale: f64,
    dblp_pubs: usize,
    runs: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        backend: "all".to_string(),
        bless: false,
        fixtures: DEFAULT_FIXTURES.to_string(),
        scale: 0.01,
        dblp_pubs: 1000,
        runs: 3,
        out: "BENCH_sql.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => o.backend = value(&mut i),
            "--bless" => o.bless = true,
            "--fixtures" => o.fixtures = value(&mut i),
            "--scale" => o.scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--dblp-pubs" => o.dblp_pubs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--runs" => o.runs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => o.out = value(&mut i),
            "-h" | "--help" => {
                println!("{HELP}");
                std::process::exit(0)
            }
            _ => usage(),
        }
        i += 1;
    }
    if !matches!(o.backend.as_str(), "sqlite" | "fixture" | "all") {
        usage()
    }
    o
}

/// Minimum engine wall-clock over `runs` executions, plus the node
/// sequence (which must be identical across runs — the engine is
/// deterministic, but the oracle re-checks rather than assumes).
fn engine_leg(session: &mut Session, prepared: &Prepared, runs: usize) -> (Duration, Vec<u32>) {
    let mut best = Duration::MAX;
    let mut nodes: Option<Vec<u32>> = None;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let out = session.execute(prepared, Engine::JoinGraph).expect("engine leg");
        let wall = t.elapsed();
        best = best.min(wall);
        let n = out.nodes.expect("engine leg finished");
        if let Some(prev) = &nodes {
            assert_eq!(prev, &n, "engine nondeterminism across runs");
        }
        nodes = Some(n);
    }
    (best, nodes.expect("at least one run"))
}

fn main() {
    let o = parse_opts();
    let run_fixture = o.backend == "fixture" || o.backend == "all";
    let run_sqlite = o.backend == "sqlite" || o.backend == "all";

    // One session holding both corpus documents: auction.xml and dblp.xml
    // share the store, so engine pre ranks and exported `doc.pre` agree
    // globally.
    let mut session = Session::new();
    session.add_tree(generate_xmark(XmarkConfig { scale: o.scale, seed: 42 }));
    session.add_tree(generate_dblp(DblpConfig { publications: o.dblp_pubs, seed: 42 }));
    let _ = session.database(); // build engine-side indexes outside timings
    let doc_rows = session.export_doc_rows();
    eprintln!(
        "backend-oracle: XMark scale {} + DBLP {} pubs = {} doc rows, {} run(s)/cell",
        o.scale,
        o.dblp_pubs,
        doc_rows.len(),
        o.runs
    );

    // Prepare the corpus once; every query must be extractable — a join
    // graph that stopped extracting is itself a regression this binary
    // should catch.
    let corpus: Vec<(&str, Prepared)> = paper_corpus()
        .into_iter()
        .map(|(name, text, ctx)| {
            let p = session.prepare(text, ctx).expect("corpus compiles");
            assert!(p.cq.is_some(), "{name}: join graph not extractable — oracle cannot run");
            (name, p)
        })
        .collect();

    let mut total_divergence = 0u64;
    let mut fixture_failures = 0u64;
    let mut backend_reports: Vec<Json> = Vec::new();

    // ── Fixture tier: per-dialect golden SQL diffs ──────────────────────
    if run_fixture {
        for dialect in Dialect::all() {
            let fx = FixtureBackend::new(&o.fixtures, dialect).bless(o.bless);
            let mut rows: Vec<Json> = Vec::new();
            eprintln!("\nfixture:{dialect} ({}):", o.fixtures);
            for (name, prepared) in &corpus {
                let cq = prepared.cq.as_ref().expect("checked above");
                let t = Instant::now();
                let sql = emit_join_graph(cq, &EmitOptions::for_dialect(dialect));
                let emit_us = t.elapsed().as_micros() as u64;
                let outcome = match fx.check(name, &sql) {
                    Ok(FixtureOutcome::Match) => "match",
                    Ok(FixtureOutcome::Blessed) => "blessed",
                    Err(e) => {
                        eprintln!("{e}");
                        fixture_failures += 1;
                        "mismatch"
                    }
                };
                eprintln!("  {name:<4} emit {emit_us:>5}us  {outcome}");
                rows.push(Json::obj([
                    ("query", Json::str(*name)),
                    ("emit_us", Json::UInt(emit_us)),
                    ("fixture", Json::str(outcome)),
                ]));
            }
            backend_reports.push(Json::obj([
                ("backend", Json::str(format!("fixture:{dialect}"))),
                ("dialect", Json::str(dialect.name())),
                ("available", Json::Bool(true)),
                ("queries", Json::Arr(rows)),
            ]));
        }
    }

    // ── Live tier: SQLite divergence oracle ─────────────────────────────
    if run_sqlite {
        if !SqliteBackend::available() {
            eprintln!(
                "\nnotice: no `sqlite3` binary on PATH — skipping the live SQLite \
                 divergence oracle (fixture tier still gates)"
            );
            backend_reports.push(Json::obj([
                ("backend", Json::str("sqlite")),
                ("dialect", Json::str("sqlite")),
                ("available", Json::Bool(false)),
                ("queries", Json::Arr(vec![])),
            ]));
        } else {
            let mut be = SqliteBackend::new().expect("sqlite3 probed available");
            let t = Instant::now();
            be.load_doc(&doc_rows).expect("corpus load");
            let load_ms = t.elapsed().as_millis() as u64;
            eprintln!("\nsqlite: loaded {} rows in {load_ms} ms", doc_rows.len());
            eprintln!(
                "{:<6} {:>8} {:>10} {:>9} {:>12} {:>8}",
                "query", "nodes", "engine_us", "emit_us", "execute_us", "verdict"
            );
            let mut rows: Vec<Json> = Vec::new();
            for (name, prepared) in &corpus {
                let cq = prepared.cq.as_ref().expect("checked above");
                let (engine_t, engine_nodes) = engine_leg(&mut session, prepared, o.runs);
                let t = Instant::now();
                let sql = emit_join_graph(cq, &EmitOptions::for_dialect(be.dialect()));
                let emit_us = t.elapsed().as_micros() as u64;
                let mut exec_best = Duration::MAX;
                let mut recovered: Option<Vec<u32>> = None;
                for _ in 0..o.runs.max(1) {
                    let t = Instant::now();
                    let result = be.execute(&sql).expect("backend executes emitted SQL");
                    exec_best = exec_best.min(t.elapsed());
                    recovered = Some(recover_items(&result, cq).unwrap_or_else(|e| {
                        panic!("{name}: pre-rank recovery failed: {e}")
                    }));
                }
                let recovered = recovered.expect("at least one run");
                let verdict = divergence(&engine_nodes, &recovered);
                if let Some(d) = &verdict {
                    eprintln!("{name}: DIVERGENCE: {d}\n  sql: {sql}");
                    total_divergence += 1;
                }
                eprintln!(
                    "{:<6} {:>8} {:>10} {:>9} {:>12} {:>8}",
                    name,
                    engine_nodes.len(),
                    engine_t.as_micros(),
                    emit_us,
                    exec_best.as_micros(),
                    if verdict.is_some() { "DIVERGE" } else { "ok" }
                );
                rows.push(Json::obj([
                    ("query", Json::str(*name)),
                    ("nodes", Json::UInt(engine_nodes.len() as u64)),
                    ("engine_us", Json::UInt(engine_t.as_micros() as u64)),
                    ("emit_us", Json::UInt(emit_us)),
                    ("execute_us", Json::UInt(exec_best.as_micros() as u64)),
                    ("divergence", Json::UInt(u64::from(verdict.is_some()))),
                ]));
            }
            backend_reports.push(Json::obj([
                ("backend", Json::str("sqlite")),
                ("dialect", Json::str("sqlite")),
                ("available", Json::Bool(true)),
                ("load_ms", Json::UInt(load_ms)),
                ("queries", Json::Arr(rows)),
            ]));
        }
    }

    let report = Json::obj([
        ("bench", Json::str("sql")),
        ("xmark_scale", Json::Num(o.scale)),
        ("dblp_pubs", Json::UInt(o.dblp_pubs as u64)),
        ("runs", Json::UInt(o.runs as u64)),
        ("doc_rows", Json::UInt(doc_rows.len() as u64)),
        ("divergence", Json::UInt(total_divergence)),
        ("fixture_failures", Json::UInt(fixture_failures)),
        ("backends", Json::Arr(backend_reports)),
    ]);
    let rendered = report.render();
    if let Err(e) = std::fs::write(&o.out, format!("{rendered}\n")) {
        eprintln!("cannot write {}: {e}", o.out);
        std::process::exit(1);
    }
    println!("{rendered}");
    eprintln!("\nwrote {}", o.out);
    if total_divergence > 0 || fixture_failures > 0 {
        eprintln!(
            "FAIL: {total_divergence} divergent queries, {fixture_failures} fixture mismatches"
        );
        std::process::exit(1);
    }
}
