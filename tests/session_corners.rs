//! Session-level corner cases: multiple documents, rank-tie semantics,
//! segmented range predicates, and the stacked SQL artifact.

use jgi_core::{Engine, Session};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};

/// Two documents in one session: doc() routing, and pre ranks offset by the
/// first document's size.
#[test]
fn two_documents_in_one_session() {
    let mut s = Session::new();
    s.load_xml("a.xml", "<r><x>1</x></r>").unwrap();
    s.load_xml("b.xml", "<r><x>2</x></r>").unwrap();
    let pa = s.prepare(r#"doc("a.xml")/descendant::x"#, None).unwrap();
    let pb = s.prepare(r#"doc("b.xml")/descendant::x"#, None).unwrap();
    for e in Engine::all() {
        let ra = s.execute(&pa, e).unwrap().nodes.unwrap();
        let rb = s.execute(&pb, e).unwrap().nodes.unwrap();
        assert_eq!(ra.len(), 1, "{e:?}");
        assert_eq!(rb.len(), 1, "{e:?}");
        assert_ne!(ra, rb, "{e:?}: results must come from different documents");
        assert_eq!(s.serialize(&ra), "<x>1</x>", "{e:?}");
        assert_eq!(s.serialize(&rb), "<x>2</x>", "{e:?}");
    }
    // Queries across both documents in one expression.
    let pboth = s
        .prepare(
            r#"for $a in doc("a.xml")/descendant::x
               where $a = "1"
               return doc("b.xml")/descendant::x"#,
            None,
        )
        .unwrap();
    for e in [Engine::Stacked, Engine::NavWhole] {
        let r = s.execute(&pboth, e).unwrap().nodes.unwrap();
        assert_eq!(s.serialize(&r), "<x>2</x>", "{e:?}");
    }
}

/// XMark and DBLP coexisting (the Table 9 setting uses separate sessions;
/// the engine must not care).
#[test]
fn mixed_corpora() {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.001, seed: 1 }));
    s.add_tree(generate_dblp(DblpConfig { publications: 50, seed: 1 }));
    let p1 = s.prepare(r#"doc("auction.xml")/descendant::bidder"#, None).unwrap();
    let p2 = s.prepare(r#"doc("dblp.xml")/child::dblp/child::phdthesis"#, None).unwrap();
    let r1 = s.execute(&p1, Engine::JoinGraph).unwrap().nodes.unwrap();
    let r2 = s.execute(&p2, Engine::JoinGraph).unwrap().nodes.unwrap();
    for &n in &r1 {
        assert_eq!(s.store().name_str(n), Some("bidder"));
    }
    for &n in &r2 {
        assert_eq!(s.store().name_str(n), Some("phdthesis"));
    }
    for e in Engine::all() {
        assert_eq!(s.execute(&p1, e).unwrap().nodes.unwrap(), r1, "{e:?}");
        assert_eq!(s.execute(&p2, e).unwrap().nodes.unwrap(), r2, "{e:?}");
    }
}

/// Duplicate result nodes across iterations tie on the rank criteria; the
/// sequence must keep both occurrences adjacent and the order stable across
/// engines.
#[test]
fn rank_ties_keep_duplicates() {
    let mut s = Session::new();
    s.load_xml("t.xml", "<r><p><c/><c/></p></r>").unwrap();
    let p = s
        .prepare(
            r#"for $c in doc("t.xml")/descendant::c return $c/parent::p"#,
            None,
        )
        .unwrap();
    let reference = s.execute(&p, Engine::Stacked).unwrap().nodes.unwrap();
    assert_eq!(reference.len(), 2, "one <p> per iteration");
    assert_eq!(reference[0], reference[1]);
    for e in Engine::all() {
        assert_eq!(s.execute(&p, e).unwrap().nodes.unwrap(), reference, "{e:?}");
    }
}

/// Segmented navigation answers *range* value predicates through the index
/// scan path (not just equality).
#[test]
fn segmented_range_predicate() {
    let mut s = Session::new();
    s.add_tree(generate_dblp(DblpConfig { publications: 400, seed: 9 }));
    let p = s
        .prepare(
            r#"for $t in doc("dblp.xml")/descendant::phdthesis[year < "1994"] return $t"#,
            None,
        )
        .unwrap();
    let whole = s.execute(&p, Engine::NavWhole).unwrap().nodes.unwrap();
    let seg = s.execute(&p, Engine::NavSegmented).unwrap().nodes.unwrap();
    assert_eq!(whole, seg);
    assert!(!whole.is_empty());
    assert_eq!(s.execute(&p, Engine::JoinGraph).unwrap().nodes.unwrap(), whole);
}

/// The stacked CTE SQL for Q2 carries the paper's signature clutter: many
/// CTE stages, multiple RANK() and DISTINCT occurrences.
#[test]
fn q2_stacked_sql_shape() {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.001, seed: 1 }));
    let p = s.prepare(jgi_core::queries::Q2, None).unwrap();
    let sql = &jgi_sql::stacked_sql(&p.plan, p.stacked_root);
    assert!(sql.matches(" AS (").count() > 100, "tall stacked CTE chain");
    assert!(sql.matches("RANK() OVER").count() >= 10, "scattered rank operators");
    assert!(sql.matches("SELECT DISTINCT").count() >= 10, "scattered distincts");
    // While the join-graph SQL is a single compact block.
    let jg = p.sql.as_ref().unwrap();
    assert_eq!(jg.matches("SELECT").count(), 1);
}

/// Compiling a query is deterministic: every corpus query prints one
/// stacked SQL text (its CTE names are the plan's node ids, so they must
/// not follow hash-map iteration order). Two prepares, then eighteen more
/// compiles of the prepared Core — the stage the text comes from — all
/// agree with the first prepare's stacked plan.
#[test]
fn stacked_sql_is_deterministic() {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.001, seed: 1 }));
    s.add_tree(generate_dblp(DblpConfig { publications: 50, seed: 1 }));
    for (name, query, ctx) in jgi_core::queries::paper_corpus() {
        let p = s.prepare(query, ctx).unwrap();
        let first = jgi_sql::stacked_sql(&p.plan, p.stacked_root);
        let q = s.prepare(query, ctx).unwrap();
        let again = jgi_sql::stacked_sql(&q.plan, q.stacked_root);
        assert!(again == first, "{name}: stacked SQL changed between prepares");
        for _ in 2..20 {
            let c = jgi_compiler::compile(&p.core).unwrap();
            let text = jgi_sql::stacked_sql(&c.plan, c.root);
            assert!(text == first, "{name}: stacked SQL changed between compiles");
        }
    }
}

/// Empty documents and queries over absent names behave.
#[test]
fn degenerate_inputs() {
    let mut s = Session::new();
    s.load_xml("e.xml", "<empty/>").unwrap();
    let p = s.prepare(r#"doc("e.xml")/descendant::anything"#, None).unwrap();
    for e in Engine::all() {
        let out = s.execute(&p, e).unwrap();
        assert!(out.finished());
        assert!(out.is_empty(), "{e:?}");
    }
    assert_eq!(s.serialize(&[]), "");
    assert_eq!(s.node_count(&[]), 0);
}
