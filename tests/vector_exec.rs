//! Batch-size equivalence suite for the vectorized batch executor.
//!
//! The batch size must be invisible in results: at any batch size the
//! join-graph engine has to produce the byte-identical node sequence
//! (order and duplicates included). For a *fixed* plan, only the
//! batch-size-dependent counters — `vector_*`, `btree_descents`/
//! `btree_skips`, `join_*` — may differ. Batch size 1 (one row per batch)
//! is the baseline. Three layers of evidence:
//!
//! * the Q1–Q8 paper corpus, plus the contract that the inert
//!   `Budgets::parallelism` changes nothing observable,
//! * a vacuity guard: the corpus runs actually batch,
//! * property tests over random documents × random workhorse queries,
//!   driving `execute_rows_opts` directly with batch sizes 2 and 1024
//!   against batch 1, so flush boundaries land everywhere.

use jgi_compiler::compile;
use jgi_core::queries::paper_corpus;
use jgi_core::{Budgets, Engine, Parallelism, Session};
use jgi_engine::physical::{execute_rows_opts, ExecOptions, ExecStats};
use jgi_engine::{optimizer, Database};
use jgi_rewrite::{extract_cq, isolate};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use jgi_xml::{DocStore, Tree};
use jgi_xquery::compile_to_core;
use proptest::prelude::*;

fn corpus_session(scale: f64, pubs: usize) -> Session {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale, seed: 42 }));
    s.add_tree(generate_dblp(DblpConfig { publications: pubs, seed: 42 }));
    s
}

/// Every counter that must not depend on the batch size. The
/// batch-size-dependent ones (`vector_*`, `btree_*`) are checked separately
/// where a specific shape is expected.
fn assert_invariant_stats(name: &str, mode: &str, base: &ExecStats, run: &ExecStats) {
    assert_eq!(base.raw_rows, run.raw_rows, "{name}: raw_rows changed ({mode})");
    assert_eq!(base.sort_rows, run.sort_rows, "{name}: sort_rows changed ({mode})");
    assert_eq!(
        base.dedup_removed, run.dedup_removed,
        "{name}: dedup_removed changed ({mode})"
    );
    assert_eq!(base.rows_scanned, run.rows_scanned, "{name}: rows_scanned changed ({mode})");
    assert_eq!(base.per_op, run.per_op, "{name}: per-operator actuals changed ({mode})");
}

/// Q1–Q8 on the join-graph engine: `Budgets::parallelism` is inert —
/// `Fixed(8)` and the default give identical nodes, identical `ExecStats`
/// and an identical EXPLAIN ANALYZE text. Batch-size equivalence on a
/// *fixed* plan is covered by the property tests below.
#[test]
fn corpus_identical_across_modes_and_degrees() {
    let mut session = corpus_session(0.005, 1000);
    for &(name, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        session.budgets = Budgets::default();
        let out = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        let analyze = session.explain_analyze(&prepared).ok();

        session.budgets.parallelism = Parallelism::Fixed(8);
        let wide = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        let mode = "parallelism=Fixed(8)";
        assert_eq!(wide.nodes, out.nodes, "{name}: result diverged ({mode})");
        assert_eq!(wide.report.exec, out.report.exec, "{name}: exec stats diverged ({mode})");
        assert_eq!(
            session.explain_analyze(&prepared).ok(),
            analyze,
            "{name}: EXPLAIN ANALYZE diverged ({mode})"
        );
    }
}

/// The corpus runs must actually batch, and at least one query must take
/// the sorted-probe B-tree path — otherwise the equivalence suite is
/// vacuous.
#[test]
fn corpus_vectorization_is_not_vacuous() {
    let mut session = corpus_session(0.005, 1000);
    let mut batched = 0usize;
    let mut descended = 0usize;
    for &(name, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        let out = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        let exec = out.report.exec.as_ref().expect("join-graph reports exec stats");
        assert!(exec.vector_batch_size > 0, "{name}: run reported no batch size");
        if exec.vector_batches > 0 {
            batched += 1;
        }
        if exec.btree_descents > 0 {
            let logical: u64 = exec.per_op.iter().map(|o| o.index_probes).sum();
            assert!(
                exec.btree_descents <= logical,
                "{name}: more descents than logical probes"
            );
            descended += 1;
        }
    }
    assert!(batched > 0, "no corpus query pushed a batch through the pipeline");
    assert!(descended > 0, "no corpus query exercised the batched B-tree cursor");
}

/// The independent back-ends agree with the vectorized join-graph engine:
/// stacked plan interpretation and both navigational modes never see
/// batches, so they pin down the expected answer.
#[test]
fn corpus_agrees_across_engines_vectorized() {
    let mut session = corpus_session(0.002, 300);
    for &(name, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        let jg = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        for engine in [Engine::Stacked, Engine::NavWhole, Engine::NavSegmented] {
            let other = session.execute(&prepared, engine).expect("corpus executes");
            assert_eq!(
                other.nodes, jg.nodes,
                "{name}: {engine:?} disagrees with the vectorized join-graph engine"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Random documents × random queries (compact variant of the differential
// suite's generators; see tests/differential.rs)
// ---------------------------------------------------------------------------

const TAGS: &[&str] = &["a", "b", "c"];
const TEXTS: &[&str] = &["1", "2", "15", "alpha"];

#[derive(Debug, Clone)]
enum GenNode {
    Elem { tag: usize, children: Vec<GenNode> },
    Text(usize),
}

fn gen_node(depth: u32) -> impl Strategy<Value = GenNode> {
    let leaf = prop_oneof![
        (0..TAGS.len()).prop_map(|tag| GenNode::Elem { tag, children: vec![] }),
        (0..TEXTS.len()).prop_map(GenNode::Text),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (0..TAGS.len(), proptest::collection::vec(inner, 0..4))
            .prop_map(|(tag, children)| GenNode::Elem { tag, children })
    })
}

fn build(tree: &mut Tree, parent: jgi_xml::NodeId, node: &GenNode) {
    match node {
        GenNode::Elem { tag, children } => {
            let e = tree.add_element(parent, TAGS[*tag]);
            for c in children {
                build(tree, e, c);
            }
        }
        GenNode::Text(t) => {
            tree.add_text(parent, TEXTS[*t]);
        }
    }
}

fn gen_tree() -> impl Strategy<Value = Tree> {
    proptest::collection::vec(gen_node(3), 1..5).prop_map(|roots| {
        let mut t = Tree::new("t.xml");
        let top = t.add_element(t.root(), "root");
        for r in &roots {
            build(&mut t, top, r);
        }
        t
    })
}

const AXES: &[&str] = &["child", "descendant", "descendant-or-self", "following", "ancestor"];

fn gen_step() -> impl Strategy<Value = String> {
    (0..AXES.len(), prop_oneof![(0..TAGS.len()).prop_map(|t| TAGS[t].to_string()), Just("node()".to_string())])
        .prop_map(|(a, t)| format!("{}::{}", AXES[a], t))
}

fn gen_query() -> impl Strategy<Value = String> {
    let path = proptest::collection::vec(gen_step(), 1..4)
        .prop_map(|steps| format!(r#"doc("t.xml")/{}"#, steps.join("/")));
    let with_pred = (path.clone(), gen_step(), proptest::option::of(0..TEXTS.len())).prop_map(
        |(p, cond, cmp)| match cmp {
            Some(v) => format!(r#"{p}[{cond} = "{}"]"#, TEXTS[v]),
            None => format!("{p}[{cond}]"),
        },
    );
    let with_for = (path.clone(), proptest::collection::vec(gen_step(), 1..3))
        .prop_map(|(p, steps)| format!("for $v in {p} return $v/{}", steps.join("/")));
    prop_oneof![path, with_pred, with_for]
}

/// Compile a random query down to a conjunctive query, plan it, and check
/// batch sizes 2 and 1024 against batch size 1 row-for-row and
/// counter-for-counter.
fn check_batch_sizes_on(tree: &Tree, query: &str) {
    let Ok(core) = compile_to_core(query) else { return };
    let compiled = compile(&core).expect("compilation succeeds");
    let mut store = DocStore::new();
    store.add_tree(tree);
    let mut plan = compiled.plan;
    let (iso_root, _stats) = isolate(&mut plan, compiled.root);
    let Ok(cq) = extract_cq(&plan, iso_root) else { return };
    let db = Database::with_default_indexes(store);

    let phys = optimizer::plan(&db, &cq);
    let batch = |batch_size| ExecOptions { batch_size, ..ExecOptions::default() };
    let (base_rows, base_stats) = execute_rows_opts(&db, &phys, &batch(1));
    for batch_size in [2usize, 1024] {
        let (rows, stats) = execute_rows_opts(&db, &phys, &batch(batch_size));
        let mode = format!("batch={batch_size}");
        assert_eq!(base_rows, rows, "rows diverged on {query} ({mode})");
        assert_invariant_stats(query, &mode, &base_stats, &stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Random workhorse queries over random documents: no batch size is
    /// distinguishable from one row per batch.
    #[test]
    fn batch_sizes_agree_on_random_queries(tree in gen_tree(), query in gen_query()) {
        check_batch_sizes_on(&tree, &query);
    }
}
