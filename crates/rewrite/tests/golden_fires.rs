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

const AUCTION: &str = "auction.xml";
const DBLP: &str = "dblp.xml";

// Q1–Q8 are `jgi_core::queries` (jgi-core depends on this crate, so the
// texts are repeated here); JB/JC/JD are copied from
// `benchmark/src/queries.rs`, which is not to be edited.
const Q1: &str = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
const Q2: &str = r#"
    let $a := doc("auction.xml")
    for $ca in $a//closed_auction[price > 500],
        $i in $a//item,
        $c in $a//category
    where $ca/itemref/@item = $i/@id
      and $i/incategory/@category = $c/@id
    return $c/name"#;
const Q3: &str = r#"/site/people/person[@id = "person0"]/name/text()"#;
const Q4: &str = r#"//closed_auction/price/text()"#;
const Q5: &str = r#"/dblp/*[@key = "conf/vldb2001" and editor and title]/title"#;
const Q6: &str = r#"
    for $thesis in /dblp/phdthesis[year < "1994" and author and title]
    return $thesis"#;
const Q7: &str = r#"
    let $a := doc("auction.xml")
    for $p in $a//person,
        $b in $a//open_auction/bidder
    where $b/personref/@person = $p/@id
    return $p/name"#;
const Q8: &str = r#"doc("auction.xml")//bidder[increase > 20]/preceding-sibling::bidder/increase"#;
const JB: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person
    where $ca/buyer/@person = $p/@id
    return $p/name"#;
const JC: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person, $i in $a//item
    where $ca/buyer/@person = $p/@id and $ca/itemref/@item = $i/@id
    return $i/name"#;
const JD: &str = r#"let $a := doc("auction.xml")
    for $p in $a//person, $o in $a//open_auction
    where $o/seller/@person = $p/@id and $o/bidder/personref/@person = $p/@id
    return $o/initial"#;

/// `(name, text, context document, golden report)`.
const TEXTS: [(&str, &str, Option<&str>, &str); 11] = [
    ("Q1", Q1, None, include_str!("golden/Q1.txt")),
    ("Q2", Q2, None, include_str!("golden/Q2.txt")),
    ("Q3", Q3, Some(AUCTION), include_str!("golden/Q3.txt")),
    ("Q4", Q4, Some(AUCTION), include_str!("golden/Q4.txt")),
    ("Q5", Q5, Some(DBLP), include_str!("golden/Q5.txt")),
    ("Q6", Q6, Some(DBLP), include_str!("golden/Q6.txt")),
    ("Q7", Q7, None, include_str!("golden/Q7.txt")),
    ("Q8", Q8, None, include_str!("golden/Q8.txt")),
    ("JB", JB, None, include_str!("golden/JB.txt")),
    ("JC", JC, None, include_str!("golden/JC.txt")),
    ("JD", JD, None, include_str!("golden/JD.txt")),
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
    for (name, text, ctx, golden) in TEXTS {
        let (actual, stats) = report(text, ctx);
        assert!(!stats.fuel_exhausted, "{name}: {}", stats.summary());
        assert_eq!(
            actual, golden,
            "{name} diverged from tests/golden/{name}.txt; actual:\n{actual}"
        );
        total_steps += stats.steps;
    }
    // The benchmark's `rewrite.steps` per-layer count, 351 per op over
    // the 11 texts (1 052 while a join descent took one fire per level).
    assert_eq!(total_steps, 3_863);
}
