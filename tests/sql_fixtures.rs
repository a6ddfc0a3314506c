//! Golden SQL fixtures: the per-dialect Q1–Q8 emitted blocks, committed
//! under `tests/fixtures/sql/<dialect>/` so every emitter change shows up
//! as a reviewable diff instead of a silent behavior change.
//!
//! Regenerate after an intentional emit change with either
//!
//! ```sh
//! JGI_BLESS=1 cargo test --test sql_fixtures
//! cargo run -p jgi-bench --bin backend-oracle -- --backend fixture --bless
//! ```
//!
//! (both write the same files — the test and the oracle share
//! `jgi_sql::fixture`). Execution semantics of these blocks are certified
//! separately by the live divergence oracle; this suite only pins the
//! *text*, which is what reviewers and SQL.md readers see.

use jgi_core::queries::paper_corpus;
use jgi_core::Session;
use jgi_rewrite::canonicalize;
use jgi_sql::fixture::check_fixture;
use jgi_sql::{emit_join_graph, parse_join_graph, Dialect, EmitOptions, FixtureOutcome};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use std::path::Path;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/sql");

/// Emitted SQL for the whole corpus at `dialect`.
fn corpus_sql(dialect: Dialect) -> Vec<(&'static str, String)> {
    // Tiny instances: the emitted SQL depends only on the query text, not
    // on the corpus contents — the generators are here just so `prepare`
    // has documents to resolve `doc()` against.
    let mut session = Session::new();
    session.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
    session.add_tree(generate_dblp(DblpConfig { publications: 100, seed: 1 }));
    paper_corpus()
        .into_iter()
        .map(|(name, text, ctx)| {
            let p = session.prepare(text, ctx).expect("corpus compiles");
            let cq = p.cq.expect("corpus queries stay extractable");
            (name, emit_join_graph(&cq, &EmitOptions::for_dialect(dialect)))
        })
        .collect()
}

#[test]
fn emitted_sql_matches_committed_fixtures() {
    let root = Path::new(FIXTURES);
    let mut failures = Vec::new();
    for dialect in Dialect::all() {
        for (name, sql) in corpus_sql(dialect) {
            match check_fixture(root, dialect, name, &sql) {
                Ok(FixtureOutcome::Match) => {}
                Ok(FixtureOutcome::Blessed) => {
                    eprintln!("blessed {}/{name}.sql", dialect.name());
                }
                Err(e) => failures.push(format!("[{dialect}] {e}")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "emitted SQL diverged from the golden fixtures (JGI_BLESS=1 to accept):\n{}",
        failures.join("\n\n")
    );
}

/// The committed fixtures themselves parse back into the restricted
/// dialect — both renderings of each query to the *same* join graph. This
/// keeps the goldens inside the fragment `parse_join_graph` accepts (a
/// fixture that stopped parsing would break the SQL-driven execution path
/// even if the engine never noticed).
#[test]
fn committed_fixtures_stay_inside_the_parse_fragment() {
    let root = Path::new(FIXTURES);
    for (name, _, _) in paper_corpus() {
        let read = |d: Dialect| {
            std::fs::read_to_string(root.join(d.name()).join(format!("{name}.sql")))
                .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); bless first"))
        };
        let ansi = parse_join_graph(&read(Dialect::Ansi))
            .unwrap_or_else(|e| panic!("{name} ansi fixture does not parse: {e}"));
        let sqlite = parse_join_graph(&read(Dialect::Sqlite))
            .unwrap_or_else(|e| panic!("{name} sqlite fixture does not parse: {e}"));
        assert_eq!(ansi, sqlite, "{name}: dialect renderings parse to different join graphs");
    }
}

/// The committed fixtures are fixpoints of canonical numbering: parsing a
/// fixture, canonicalising the join graph and emitting it again gives the
/// same bytes, so the fixtures pin a text that depends on the join graph
/// alone.
#[test]
fn committed_fixtures_are_canonical() {
    let root = Path::new(FIXTURES);
    for dialect in Dialect::all() {
        for (name, _, _) in paper_corpus() {
            let path = root.join(dialect.name()).join(format!("{name}.sql"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); bless first"));
            let mut cq = parse_join_graph(&text)
                .unwrap_or_else(|e| panic!("{name} {dialect} fixture does not parse: {e}"));
            canonicalize(&mut cq);
            let again = emit_join_graph(&cq, &EmitOptions::for_dialect(dialect)) + "\n";
            assert_eq!(again, text, "[{dialect}] {name}: the fixture is not in canonical form");
        }
    }
}
