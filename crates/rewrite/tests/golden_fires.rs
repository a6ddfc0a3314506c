//! Golden fire sequences: for the 11 fixed benchmark texts, the number of
//! rewrite steps, the per-rule fire counts, the size of the isolated DAG and
//! the emitted join-graph SQL are pinned under `tests/golden/`. The rewrite
//! driver may get faster; it may not fire different rules or arrive at a
//! different plan without the diff showing up here.
//!
//! A deliberate change of fire order is re-pinned by copying the "actual"
//! block the failing assertion prints into the golden file.

use jgi_compiler::compile;
use jgi_rewrite::{extract_cq, isolate, IsolateStats};
use jgi_xquery::{normalize, parse_query, ParserOptions};

mod texts;

use texts::TEXTS;

/// The golden report of each text, in [`TEXTS`] order.
const GOLDEN: [&str; 11] = [
    include_str!("golden/Q1.txt"),
    include_str!("golden/Q2.txt"),
    include_str!("golden/Q3.txt"),
    include_str!("golden/Q4.txt"),
    include_str!("golden/Q5.txt"),
    include_str!("golden/Q6.txt"),
    include_str!("golden/Q7.txt"),
    include_str!("golden/Q8.txt"),
    include_str!("golden/JB.txt"),
    include_str!("golden/JC.txt"),
    include_str!("golden/JD.txt"),
];

/// Compile and isolate `text`; render what the golden file pins.
fn report(text: &str, ctx: Option<&str>) -> (String, IsolateStats) {
    let opts = ParserOptions { context_doc: ctx.map(str::to_string) };
    let core = normalize(&parse_query(text, &opts).unwrap()).unwrap();
    let compiled = compile(&core).unwrap();
    let mut plan = compiled.plan;
    let (root, stats) = isolate(&mut plan, compiled.root);
    let cq = extract_cq(&plan, root).expect("benchmark texts stay extractable");
    let mut applied: Vec<(&str, usize)> = stats.applied.iter().map(|(k, v)| (*k, *v)).collect();
    applied.sort();
    let applied: Vec<String> = applied.iter().map(|(k, v)| format!("{k}×{v}")).collect();
    let out = format!(
        "steps {}\nnodes {} -> {}\napplied {}\n{}\n",
        stats.steps,
        stats.nodes_before,
        stats.nodes_after,
        applied.join(" "),
        jgi_sql::join_graph_sql(&cq)
    );
    (out, stats)
}

#[test]
fn fire_sequences_and_sql_match_golden() {
    let mut total_steps = 0;
    for ((name, text, ctx), golden) in TEXTS.into_iter().zip(GOLDEN) {
        let (actual, stats) = report(text, ctx);
        assert!(!stats.fuel_exhausted, "{name}: {}", stats.summary());
        assert_eq!(
            actual, golden,
            "{name} diverged from tests/golden/{name}.txt; actual:\n{actual}"
        );
        total_steps += stats.steps;
    }
    // The benchmark's `rewrite.steps` per-layer count, 170.7 per op over
    // the 11 texts (194.5 while the house sweep stopped before a rewrite
    // that could revisit a state, 351 while house-cleaning took one fire
    // per rewrite, 1 052 while a join descent took one fire per level).
    assert_eq!(total_steps, 1_878);
}
