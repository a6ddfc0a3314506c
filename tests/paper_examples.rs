//! Pinning tests for the paper's worked examples: the exact artifacts shown
//! in the text must come out of the pipeline.

use jgi_core::{Engine, Session};

fn fig2_session() -> Session {
    let mut s = Session::new();
    s.load_xml(
        "auction.xml",
        r#"<open_auction id="1"><initial>15</initial><bidder>
            <time>18:43</time><increase>4.20</increase></bidder></open_auction>"#,
    )
    .unwrap();
    s
}

/// §2.2: "the query yields the pre ranks of the two resulting text nodes"
/// — {7, 9} for Q0 on the Fig. 2 document, on every back-end.
#[test]
fn section_2_2_worked_example() {
    let mut s = fig2_session();
    let p = s
        .prepare(r#"doc("auction.xml")/descendant::bidder/child::*/child::text()"#, None)
        .unwrap();
    for engine in Engine::all() {
        assert_eq!(s.execute(&p, engine).unwrap().nodes.unwrap(), vec![7, 9], "{engine:?}");
    }
}

/// Fig. 8's SQL block: three doc aliases, DISTINCT, the document-node
/// test, both containment BETWEENs, the child-level predicate, and the
/// ORDER BY on the open_auction's pre.
#[test]
fn fig8_sql_block() {
    let s = fig2_session();
    let p = s.prepare(r#"doc("auction.xml")/descendant::open_auction[bidder]"#, None).unwrap();
    let sql = p.sql.expect("extractable");
    let expect_fragments = [
        "SELECT DISTINCT",
        "doc AS d1, doc AS d2, doc AS d3",
        "= 'DOC'",
        "= 'auction.xml'",
        "= 'open_auction'",
        "= 'bidder'",
        "BETWEEN",
        ".level + 1 =",
        "ORDER BY",
    ];
    for f in expect_fragments {
        assert!(sql.contains(f), "missing `{f}` in:\n{sql}");
    }
    assert_eq!(sql.matches("BETWEEN").count(), 2);
    // No iter/pos/inner bookkeeping columns leak into the SQL.
    for forbidden in ["iter", "inner", "sort", "pos"] {
        assert!(
            !sql.to_lowercase().contains(&format!(".{forbidden}")),
            "bookkeeping column `{forbidden}` leaked:\n{sql}"
        );
    }
}

/// §2.4/Fig. 4: the initial stacked plan for Q1 — tall, single shared doc
/// leaf, joins and blocking operators scattered; §3/Fig. 7: after
/// isolation, a δ/π tail over a 3-fold self-join (5× fewer operators).
#[test]
fn fig4_to_fig7_plan_shapes() {
    let s = fig2_session();
    let p = s.prepare(r#"doc("auction.xml")/descendant::open_auction[bidder]"#, None).unwrap();
    assert!(
        p.report.rewrite.nodes_before >= 35 && p.report.rewrite.nodes_after <= 20,
        "expected a Fig.4-sized plan shrinking to Fig.7 size: {}",
        p.report.rewrite.summary()
    );
    let cq = p.cq.as_ref().unwrap();
    assert_eq!(cq.aliases, 3);
    // Fig. 7's caption: "three-fold self-join of table doc"; the tail
    // orders by the open_auction pre itself (no extra row ranking).
    assert_eq!(cq.order_by.len(), 1);
}

/// §4's serialization-point convention: adding the explicit
/// `descendant-or-self::node()` step yields the full subtree node set.
#[test]
fn serialization_step() {
    let mut s = fig2_session();
    let p = s
        .prepare(
            r#"for $x in doc("auction.xml")/descendant::open_auction[bidder]
               return $x/descendant-or-self::node()"#,
            None,
        )
        .unwrap();
    let nodes = s.execute(&p, Engine::JoinGraph).unwrap().nodes.unwrap();
    // Subtree of open_auction (pre 1, size 8) minus the attribute node
    // (descendant-or-self excludes attributes per the data model).
    assert_eq!(nodes, vec![1, 3, 4, 5, 6, 7, 8, 9]);
    for engine in Engine::all() {
        assert_eq!(s.execute(&p, engine).unwrap().nodes.unwrap(), nodes, "{engine:?}");
    }
}

/// Q2's plan tail (§3.3, Fig. 9): order reflects the for-loop nesting —
/// the DISTINCT list keeps the loop keys, duplicates within a step are
/// removed.
#[test]
fn q2_tail_semantics() {
    let mut s = Session::new();
    s.add_tree(jgi_xml::generate::generate_xmark(jgi_xml::generate::XmarkConfig {
        scale: 0.003,
        seed: 11,
    }));
    let p = s.prepare(jgi_core::queries::Q2, None).unwrap();
    let cq = p.cq.as_ref().unwrap();
    assert_eq!(cq.aliases, 12, "Fig. 9: 12-fold self-join");
    assert!(cq.distinct);
    assert_eq!(cq.order_by.len(), 4, "ORDER BY d_ca, d_i, d_c, d_name");
    // All four order columns are pre columns (document-order ranks).
    for c in &cq.order_by {
        assert_eq!(c.col, jgi_algebra::cq::DocCol::Pre);
    }
    // And the result really is ordered by closed_auction nesting: run it
    // and check the result is name elements.
    let nodes = s.execute(&p, Engine::JoinGraph).unwrap().nodes.unwrap();
    assert!(!nodes.is_empty());
    for &n in &nodes {
        assert_eq!(s.store().name_str(n), Some("name"));
    }
}

/// The paper's claim that the emitted dialect avoids SQL/XML entirely: the
/// stacked CTE SQL and join-graph SQL both mention only the doc relation.
#[test]
fn no_sqlxml_anywhere() {
    let s = fig2_session();
    let p = s.prepare(r#"doc("auction.xml")/descendant::open_auction[bidder]"#, None).unwrap();
    for text in [p.sql.as_ref().unwrap(), &jgi_sql::stacked_sql(&p.plan, p.stacked_root)] {
        let lower = text.to_lowercase();
        for forbidden in ["xmltable", "xmlquery", "xmlexists", "xpath"] {
            assert!(!lower.contains(forbidden), "SQL/XML construct leaked: {forbidden}");
        }
        assert!(lower.contains("doc"));
    }
}
