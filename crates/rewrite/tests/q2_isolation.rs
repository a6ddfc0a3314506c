//! Q2 (paper Fig. 9): the three-loop value-join query must isolate into a
//! pure join graph over the doc table.

use jgi_compiler::compile;
use jgi_rewrite::isolate;
use jgi_xquery::compile_to_core;

const Q2: &str = r#"
    let $a := doc("auction.xml")
    for $ca in $a//closed_auction[price > 500],
        $i in $a//item,
        $c in $a//category
    where $ca/itemref/@item = $i/@id
      and $i/incategory/@category = $c/@id
    return $c/name"#;

#[test]
fn q2_isolates_to_join_graph() {
    let core = compile_to_core(Q2).unwrap();
    let c = compile(&core).unwrap();
    let mut plan = c.plan;
    let before = plan.reachable_count(c.root);
    let (root, stats) = isolate(&mut plan, c.root);
    assert!(!stats.fuel_exhausted, "{}", stats.summary());
    assert_eq!(jgi_algebra::validate::validate(&plan, root), Ok(()));
    eprintln!("{}", stats.summary());
    eprintln!("{}", jgi_algebra::pretty::render_text(&plan, root));
    let mut rowids = 0;
    let mut distincts = 0;
    let mut ranks = 0;
    for id in plan.topo_order(root) {
        match plan.node(id).op {
            jgi_algebra::Op::RowId(_) => rowids += 1,
            jgi_algebra::Op::Distinct => distincts += 1,
            jgi_algebra::Op::Rank { .. } => ranks += 1,
            _ => {}
        }
    }
    assert_eq!(rowids, 0, "leftover #; before={before}");
    assert!(distincts <= 1, "tail must hold at most one δ");
    assert!(ranks <= 1, "tail must hold at most one ϱ");
}

/// A complexity guard that holds on any box. A fire of Q2 derives the
/// properties of what it touched — the replacement, its rebuilt ancestors
/// and the nodes whose consumers changed — not of the whole DAG, and a
/// join descent is one fire, not one per level. Per-level fires came to
/// 314 111 derivations and 253 263 rebuilt ancestors. A descent builds
/// each level's wrapper once: copying the path again at every level left
/// 61 421 nodes in the arena.
#[test]
fn q2_steps_cost_what_they_touch() {
    let core = compile_to_core(Q2).unwrap();
    let c = compile(&core).unwrap();
    let mut plan = c.plan;
    let (_, stats) = isolate(&mut plan, c.root);
    assert!(stats.props_derived < 314_111 / 2, "{} property derivations", stats.props_derived);
    assert!(stats.nodes_rebuilt < 253_263 / 2, "{} rebuilt ancestors", stats.nodes_rebuilt);
    assert!(plan.len() < 50_000, "{} arena nodes", plan.len());
    // Substitution rebuilds ancestors only: however far a fire moves a
    // join, it rebuilds fewer nodes than the DAG holds.
    let rebuilt_per_step = stats.nodes_rebuilt as f64 / stats.steps as f64;
    assert!(rebuilt_per_step < stats.nodes_before as f64, "{rebuilt_per_step:.1}");
}

/// Each distinct argument of a transfer function is evaluated once per
/// run: nearly every one of Q2's derivations is a memo hit. The number of
/// derivations itself is what the carried table asks for, memo or not.
#[test]
fn q2_derivations_are_mostly_memo_hits() {
    let core = compile_to_core(Q2).unwrap();
    let c = compile(&core).unwrap();
    let mut plan = c.plan;
    let (_, stats) = isolate(&mut plan, c.root);
    assert_eq!(stats.props_derived, 64_245);
    assert!(
        stats.props_computed * 10 <= stats.props_derived,
        "{} evaluations for {} derivations",
        stats.props_computed,
        stats.props_derived
    );
}

/// The arena's allocation order, pinned beyond what the golden files see:
/// every node Q2's isolation creates, and every ancestor it rebuilds, in
/// exactly the numbers the operator-keyed memo produced. Interning
/// operators and schemas must not move either count — `name@id` columns
/// and with them the SQL text are spelled from these ids.
#[test]
fn q2_arena_length_and_rebuilds_are_pinned() {
    let core = compile_to_core(Q2).unwrap();
    let c = compile(&core).unwrap();
    let mut plan = c.plan;
    let (_, stats) = isolate(&mut plan, c.root);
    assert_eq!((plan.len(), stats.nodes_rebuilt), (48_685, 51_089));
}

/// Differential check on a small synthetic XMark instance: the isolated Q2
/// computes the same node sequence as the stacked plan.
#[test]
fn q2_isolation_preserves_semantics() {
    use jgi_engine::{execute_serialized, ExecBudget};
    let tree = jgi_xml::generate::generate_xmark(jgi_xml::generate::XmarkConfig {
        scale: 0.002,
        seed: 11,
    });
    let mut store = jgi_xml::DocStore::new();
    store.add_tree(&tree);

    let core = compile_to_core(Q2).unwrap();
    let c = compile(&core).unwrap();
    let mut plan = c.plan;
    let before = execute_serialized(&plan, c.root, &store, ExecBudget::default()).unwrap();
    let (root, _) = isolate(&mut plan, c.root);
    let after = execute_serialized(&plan, root, &store, ExecBudget::default()).unwrap();
    assert!(!before.is_empty(), "Q2 should produce results on the test instance");
    assert_eq!(before, after);
}
