//! The navigational evaluator's cost model, pinned.
//!
//! `NavStats.steps` and `exhausted` are the paper's *dnf* accounting (a
//! query that runs out of node visits did not finish), so a change to how
//! the evaluator stores documents must leave them exactly where they were.
//! Every cell below — result count, a hash of the result's `pre` ranks,
//! steps charged and whether the budget ran out — is pinned for both
//! storage modes on XMark 0.005 + DBLP 1 000 under three fixed budgets: a
//! large one that only the value joins exhaust, and two tight ones that
//! stop most walks part-way, so the pins also fix where a walk runs out.

use jgi_core::queries::{Q1, Q2, Q3, Q4, Q5, Q6_SEQ, Q7, Q8};
use jgi_nav::{NavDb, NavMode, NavOptions};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use jgi_xquery::{normalize, parse_query, ParserOptions};

/// Node visits per query: enough for the path queries, too few for the
/// nested-loop value joins.
const BUDGET: u64 = 2_000_000;

/// A budget most queries run out of part-way.
const TIGHT: u64 = 3_001;

/// A budget smaller than the value-index probe's charge, so that charge is
/// the one that fails and leaves budget unspent.
const TINY: u64 = 5;

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

const FOLLOWING: &str = r#"doc("auction.xml")//person[@id = "person3"]/following::node()"#;
const PRECEDING: &str = r#"doc("dblp.xml")//phdthesis[year < "1994"]/preceding::phdthesis"#;
const SIBLING: &str = r#"doc("auction.xml")//bidder[increase > 20]/following-sibling::*"#;
const ANCESTOR: &str = r#"doc("auction.xml")//increase[. > 40]/ancestor::open_auction"#;

/// `(name, text, context document)`.
const QUERIES: [(&str, &str, Option<&str>); 15] = [
    ("Q1", Q1, None),
    ("Q2", Q2, None),
    ("Q3", Q3, Some("auction.xml")),
    ("Q4", Q4, Some("auction.xml")),
    ("Q5", Q5, Some("dblp.xml")),
    ("Q6_SEQ", Q6_SEQ, Some("dblp.xml")),
    ("Q7", Q7, None),
    ("Q8", Q8, None),
    ("JB", JB, None),
    ("JC", JC, None),
    ("JD", JD, None),
    ("FOLLOWING", FOLLOWING, None),
    ("PRECEDING", PRECEDING, None),
    ("SIBLING", SIBLING, None),
    ("ANCESTOR", ANCESTOR, None),
];

/// One evaluation: `(query, mode, budget, results, pre hash, steps,
/// exhausted)`. An exhausted cell has no results (count 0, the empty
/// sequence's hash).
type Cell = (&'static str, &'static str, u64, usize, u64, u64, bool);

#[rustfmt::skip]
const PINNED: [Cell; 90] = [
    ("Q1", "whole", 2000000, 40, 0x537a8837c5baf651, 8165, false),
    ("Q1", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q1", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q1", "segmented", 2000000, 40, 0x537a8837c5baf651, 8165, false),
    ("Q1", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q1", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q2", "whole", 2000000, 0, 0xcbf29ce484222325, 2000000, true),
    ("Q2", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q2", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q2", "segmented", 2000000, 0, 0xcbf29ce484222325, 2000000, true),
    ("Q2", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q2", "segmented", 5, 0, 0xcbf29ce484222325, 0, true),
    ("Q3", "whole", 2000000, 1, 0xafc0ba905dd987c3, 397, false),
    ("Q3", "whole", 3001, 1, 0xafc0ba905dd987c3, 397, false),
    ("Q3", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q3", "segmented", 2000000, 1, 0xafc0ba905dd987c3, 156, false),
    ("Q3", "segmented", 3001, 1, 0xafc0ba905dd987c3, 156, false),
    ("Q3", "segmented", 5, 0, 0xcbf29ce484222325, 0, true),
    ("Q4", "whole", 2000000, 49, 0xe1963eeb0fb0f3f2, 8068, false),
    ("Q4", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q4", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q4", "segmented", 2000000, 49, 0xe1963eeb0fb0f3f2, 8068, false),
    ("Q4", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q4", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q5", "whole", 2000000, 1, 0xa6a464a1cf46c7da, 4023, false),
    ("Q5", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q5", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q5", "segmented", 2000000, 1, 0xa6a464a1cf46c7da, 4023, false),
    ("Q5", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q5", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q6_SEQ", "whole", 2000000, 69, 0x119d2744066662b2, 1682, false),
    ("Q6_SEQ", "whole", 3001, 69, 0x119d2744066662b2, 1682, false),
    ("Q6_SEQ", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q6_SEQ", "segmented", 2000000, 69, 0x119d2744066662b2, 4033, false),
    ("Q6_SEQ", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q6_SEQ", "segmented", 5, 0, 0xcbf29ce484222325, 0, true),
    ("Q7", "whole", 2000000, 118, 0x2f5eb43781bbb8dc, 1158998, false),
    ("Q7", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q7", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q7", "segmented", 2000000, 118, 0x2f5eb43781bbb8dc, 1158998, false),
    ("Q7", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q7", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q8", "whole", 2000000, 66, 0xc30cefe18ce7d0ad, 8662, false),
    ("Q8", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q8", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("Q8", "segmented", 2000000, 66, 0xc30cefe18ce7d0ad, 9076, false),
    ("Q8", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("Q8", "segmented", 5, 0, 0xcbf29ce484222325, 0, true),
    ("JB", "whole", 2000000, 49, 0x8dc1dfe37a6aad71, 450566, false),
    ("JB", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("JB", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("JB", "segmented", 2000000, 49, 0x8dc1dfe37a6aad71, 450566, false),
    ("JB", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("JB", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
    ("JC", "whole", 2000000, 0, 0xcbf29ce484222325, 2000000, true),
    ("JC", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("JC", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("JC", "segmented", 2000000, 0, 0xcbf29ce484222325, 2000000, true),
    ("JC", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("JC", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
    ("JD", "whole", 2000000, 2, 0xbdaf25ae0a12602f, 1077109, false),
    ("JD", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("JD", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("JD", "segmented", 2000000, 2, 0xbdaf25ae0a12602f, 1077109, false),
    ("JD", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("JD", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
    ("FOLLOWING", "whole", 2000000, 4827, 0x1a3300b207cde36a, 16707, false),
    ("FOLLOWING", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("FOLLOWING", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("FOLLOWING", "segmented", 2000000, 4827, 0x1a3300b207cde36a, 16466, false),
    ("FOLLOWING", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("FOLLOWING", "segmented", 5, 0, 0xcbf29ce484222325, 0, true),
    ("PRECEDING", "whole", 2000000, 39, 0x644fbc6551787d6e, 433217, false),
    ("PRECEDING", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("PRECEDING", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("PRECEDING", "segmented", 2000000, 39, 0x644fbc6551787d6e, 435568, false),
    ("PRECEDING", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("PRECEDING", "segmented", 5, 0, 0xcbf29ce484222325, 0, true),
    ("SIBLING", "whole", 2000000, 283, 0xa2190d9781acb368, 8809, false),
    ("SIBLING", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("SIBLING", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("SIBLING", "segmented", 2000000, 283, 0xa2190d9781acb368, 9223, false),
    ("SIBLING", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("SIBLING", "segmented", 5, 0, 0xcbf29ce484222325, 0, true),
    ("ANCESTOR", "whole", 2000000, 29, 0xd61d32a3d3d0ad54, 7975, false),
    ("ANCESTOR", "whole", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("ANCESTOR", "whole", 5, 0, 0xcbf29ce484222325, 5, true),
    ("ANCESTOR", "segmented", 2000000, 29, 0xd61d32a3d3d0ad54, 7975, false),
    ("ANCESTOR", "segmented", 3001, 0, 0xcbf29ce484222325, 3001, true),
    ("ANCESTOR", "segmented", 5, 0, 0xcbf29ce484222325, 5, true),
];

/// FNV-1a over the little-endian bytes of each `pre` rank.
fn hash(pres: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in pres.iter().flat_map(|p| p.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn measure() -> Vec<Cell> {
    let xmark = generate_xmark(XmarkConfig { scale: 0.005, seed: 3 });
    let dblp = generate_dblp(DblpConfig { publications: 1000, seed: 3 });
    let bases = [0, xmark.reachable_len() as u32];
    let mut nav = NavDb::new();
    nav.add_tree(xmark);
    nav.add_tree(dblp);
    let mut cells = Vec::new();
    for (name, text, context) in QUERIES {
        let opts = ParserOptions { context_doc: context.map(str::to_string) };
        let core = normalize(&parse_query(text, &opts).unwrap()).unwrap();
        for (mode_name, mode) in [("whole", NavMode::Whole), ("segmented", NavMode::Segmented)] {
            for budget in [BUDGET, TIGHT, TINY] {
                let (result, stats) = nav.eval_with_stats(&core, NavOptions { mode, budget });
                let pres = result.map(|refs| nav.to_pre(&refs, &bases)).unwrap_or_default();
                assert_eq!(stats.budget, budget);
                let (n, h) = (pres.len(), hash(&pres));
                cells.push((name, mode_name, budget, n, h, stats.steps, stats.exhausted));
            }
        }
    }
    cells
}

#[test]
fn results_and_steps_are_pinned() {
    let cells = measure();
    let listing: String = cells
        .iter()
        .map(|(q, m, b, n, h, s, x)| {
            format!("    ({q:?}, {m:?}, {b}, {n}, {h:#018x}, {s}, {x}),\n")
        })
        .collect();
    assert_eq!(cells, PINNED, "actual cells:\n{listing}");
}

#[test]
fn pins_cover_a_budget_exhaustion_and_every_answer() {
    assert!(PINNED.iter().any(|c| c.2 == BUDGET && c.6), "a value join must run out");
    assert!(PINNED.iter().any(|c| c.2 == TINY && c.6 && c.5 < TINY), "a probe must fail");
    for q in ["FOLLOWING", "PRECEDING", "SIBLING", "ANCESTOR", "Q8"] {
        assert!(PINNED.iter().any(|c| c.0 == q && c.3 > 0), "{q} must return nodes");
        assert!(PINNED.iter().any(|c| c.0 == q && c.6), "{q} must run out at the tight budget");
    }
}
