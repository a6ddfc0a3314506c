//! Axis reversal by key (paper §4.1): a child step resolved upward — an
//! access EXPLAIN labels `⟨parent of dN⟩` — probes `pre` by equality with
//! the bound child's `parent`, so it reads one row per probe instead of
//! scanning every same-name node before the child.

use jgi_core::queries::paper_corpus;
use jgi_core::{Engine, Session};
use jgi_xml::generate::{generate_xmark, XmarkConfig};

/// Binary value join: names of the persons who bought something.
const JB: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person
    where $ca/buyer/@person = $p/@id
    return $p/name"#;

/// Three-way chain: names of items sold to a known buyer.
const JC: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person, $i in $a//item
    where $ca/buyer/@person = $p/@id and $ca/itemref/@item = $i/@id
    return $i/name"#;

/// Cyclic: persons bidding in an auction they sell in.
const JD: &str = r#"let $a := doc("auction.xml")
    for $p in $a//person, $o in $a//open_auction
    where $o/seller/@person = $p/@id and $o/bidder/personref/@person = $p/@id
    return $o/initial"#;

/// `(probes, comparisons)` of an EXPLAIN ANALYZE access line.
fn work(line: &str) -> (u64, u64) {
    let num = |key: &str| -> u64 {
        let (_, rest) = line
            .split_once(key)
            .unwrap_or_else(|| panic!("no {key:?} in {line}"));
        rest.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    (num("probes "), num("comparisons "))
}

/// Does the access on `line` (with the operator line `above` it) probe
/// `pre` by equality? An index scan does when `pre` is among the key
/// columns its equality prefix binds; a hash join when it keys on `pre`.
fn probes_pre_by_equality(above: &str, line: &str) -> bool {
    if let Some(keys) = above.trim().strip_prefix("HSJOIN (on ") {
        return keys.trim_end_matches(')').split(',').any(|k| k == "pre");
    }
    let Some(rest) = line.trim().strip_prefix("IXSCAN ") else {
        return false;
    };
    let (name, rest) = rest.split_once(' ').unwrap();
    let eq: usize = rest
        .trim_start_matches('[')
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let key = name.split('|').next().unwrap();
    key.chars().take(eq).any(|c| c == 'p')
}

#[test]
fn reversed_child_steps_probe_pre_by_equality() {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig {
        scale: 0.005,
        seed: 11,
    }));
    let mut texts: Vec<(&str, &str, Option<&str>)> = paper_corpus()
        .into_iter()
        .filter(|(name, _, _)| matches!(*name, "Q2" | "Q7" | "Q8"))
        .collect();
    texts.extend([("JB", JB, None), ("JC", JC, None), ("JD", JD, None)]);
    assert_eq!(texts.len(), 6);

    let mut parent_steps = 0;
    for (name, text, ctx) in texts {
        let prepared = s.prepare(text, ctx).unwrap();
        s.execute(&prepared, Engine::JoinGraph).unwrap();
        let analyze = s.explain_analyze(&prepared).expect("a join graph");
        let lines: Vec<&str> = analyze.lines().collect();
        for (i, line) in lines.iter().enumerate().skip(1) {
            if !line.contains("resume ⟨parent of") {
                continue;
            }
            parent_steps += 1;
            assert!(
                probes_pre_by_equality(lines[i - 1], line),
                "{name}: parent access without an equality probe on pre: {line}\n{analyze}"
            );
            let (probes, comparisons) = work(line);
            assert!(
                comparisons <= 4 * probes,
                "{name}: {comparisons} comparisons for {probes} probes: {line}\n{analyze}"
            );
        }
    }
    assert!(
        parent_steps >= 6,
        "only {parent_steps} reversed child steps across the six texts"
    );
}
