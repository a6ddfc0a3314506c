//! Cross-strategy equivalence suite for physical join selection.
//!
//! The join strategy is a pure execution detail: forcing `nl` or `hash`
//! via `Budgets::join` (or picking `auto`) must never change a result —
//! only how fast it arrives. Three layers of evidence:
//!
//! * the Q1–Q8 paper corpus × {nl, hash, auto}, all byte-identical to the
//!   nested-loop baseline,
//! * a vacuity guard: under `auto` Q1, Q4 and Q7 build hash tables on an
//!   auction-only document, and Q2's value-join core gallops through
//!   sorted probe batches,
//! * property tests over random documents × random workhorse queries
//!   (including generated value joins), planning each strategy forcing
//!   explicitly and driving `execute_rows_opts` at two batch sizes, and
//!   over SQL-written joins on column pairs the XQuery compiler never
//!   writes.

use jgi_compiler::compile;
use jgi_core::queries::{context_doc, paper_corpus, Q1, Q4, Q7};
use jgi_core::{Engine, Session};
use jgi_engine::optimizer::{self, JoinStrategy, PlanOptions};
use jgi_engine::physical::{execute_rows_opts, ExecOptions, ExecStats};
use jgi_engine::Database;
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

/// Counters that may not depend on the batch size for a fixed plan.
/// (Across *strategies* the plans differ, so only results compare.)
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

/// Q1–Q8: every strategy forcing produces the byte-identical node
/// sequence the nested-loop baseline produces.
#[test]
fn corpus_identical_across_strategies_modes_and_degrees() {
    let mut session = corpus_session(0.005, 1000);
    for &(name, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        session.budgets.join = JoinStrategy::Nl;
        let base = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        for join in JoinStrategy::ALL {
            session.budgets.join = join;
            let cell = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
            assert_eq!(cell.nodes, base.nodes, "{name}: result diverged (join={join})");
        }
    }
}

/// Under `auto` the corpus must actually run both kinds of join work: Q2's
/// value joins gallop through sorted probe batches, and on an auction-only
/// document Q1, Q4 and Q7 each build a hash table. Otherwise the
/// equivalence suite above proves nothing about either path.
#[test]
fn corpus_strategy_selection_is_not_vacuous() {
    let mut session = corpus_session(0.005, 1000);
    session.budgets.join = JoinStrategy::Auto;
    for &(name, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        let out = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        let exec = out.report.exec.as_ref().expect("exec stats");
        assert_eq!(
            exec.join_probe_batches > 0,
            exec.join_seeks > 0,
            "{name}: seeks and probe batches must fire together"
        );
        assert!(exec.join_seeks > 0 || name != "Q2", "Q2 must gallop its value joins");
    }
    let mut auction = Session::new();
    auction.add_tree(generate_xmark(XmarkConfig { scale: 0.005, seed: 42 }));
    for (name, query) in [("Q1", Q1), ("Q4", Q4), ("Q7", Q7)] {
        let prepared = auction.prepare(query, context_doc(name)).expect("corpus compiles");
        let out = auction.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        let exec = out.report.exec.as_ref().expect("exec stats");
        assert!(exec.join_build_rows > 0, "{name} built no hash table under auto");
    }
}

// ---------------------------------------------------------------------------
// Random documents × random queries (differential-suite generators, plus a
// value-join form so the hash and galloping machinery is actually reachable)
// ---------------------------------------------------------------------------

const TAGS: &[&str] = &["a", "b", "c"];
const ATTRS: &[&str] = &["x", "y"];
const TEXTS: &[&str] = &["1", "2", "15", "alpha"];

#[derive(Debug, Clone)]
enum GenNode {
    Elem { tag: usize, attrs: Vec<(usize, usize)>, children: Vec<GenNode> },
    Text(usize),
}

fn gen_node(depth: u32) -> impl Strategy<Value = GenNode> {
    let leaf = prop_oneof![
        (0..TAGS.len(), proptest::collection::vec((0..ATTRS.len(), 0..TEXTS.len()), 0..2))
            .prop_map(|(tag, attrs)| GenNode::Elem { tag, attrs, children: vec![] }),
        (0..TEXTS.len()).prop_map(GenNode::Text),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (
            0..TAGS.len(),
            proptest::collection::vec((0..ATTRS.len(), 0..TEXTS.len()), 0..2),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, attrs, children)| GenNode::Elem { tag, attrs, children })
    })
}

fn build(tree: &mut Tree, parent: jgi_xml::NodeId, node: &GenNode) {
    match node {
        GenNode::Elem { tag, attrs, children } => {
            let e = tree.add_element(parent, TAGS[*tag]);
            let mut seen = Vec::new();
            for (a, v) in attrs {
                if !seen.contains(a) {
                    seen.push(*a);
                    tree.add_attr(e, ATTRS[*a], TEXTS[*v]);
                }
            }
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
    (
        0..AXES.len(),
        prop_oneof![(0..TAGS.len()).prop_map(|t| TAGS[t].to_string()), Just("node()".to_string())],
    )
        .prop_map(|(a, t)| format!("{}::{}", AXES[a], t))
}

fn gen_path() -> impl Strategy<Value = String> {
    proptest::collection::vec(gen_step(), 1..4)
        .prop_map(|steps| format!(r#"doc("t.xml")/{}"#, steps.join("/")))
}

fn gen_query() -> impl Strategy<Value = String> {
    let with_pred = (gen_path(), gen_step(), proptest::option::of(0..TEXTS.len())).prop_map(
        |(p, cond, cmp)| match cmp {
            Some(v) => format!(r#"{p}[{cond} = "{}"]"#, TEXTS[v]),
            None => format!("{p}[{cond}]"),
        },
    );
    // A two-variable value join on attributes — the shape the hash join
    // and galloping probe batches exist for.
    let with_join = (gen_path(), gen_path(), 0..ATTRS.len(), 0..ATTRS.len()).prop_map(
        |(p1, p2, a1, a2)| {
            format!(
                "for $i in {p1}, $j in {p2} where $i/@{} = $j/@{} return $j",
                ATTRS[a1], ATTRS[a2]
            )
        },
    );
    prop_oneof![gen_path(), with_pred, with_join]
}

/// Compile a random query to a conjunctive query, plan it under every
/// strategy forcing, and check each plan against the nested-loop baseline
/// row-for-row. For a fixed plan, batch size 1 must also leave the results
/// and the row-count statistics untouched.
fn check_strategies_on(tree: &Tree, query: &str) {
    let Ok(core) = compile_to_core(query) else { return };
    let compiled = compile(&core).expect("compilation succeeds");
    let mut store = DocStore::new();
    store.add_tree(tree);
    let mut plan = compiled.plan;
    let (iso_root, _stats) = isolate(&mut plan, compiled.root);
    let Ok(cq) = extract_cq(&plan, iso_root) else { return };
    let db = Database::with_default_indexes(store);

    let plan_of =
        |join| optimizer::plan_opts(&db, &cq, &PlanOptions { join, ..PlanOptions::default() });
    let nl_plan = plan_of(JoinStrategy::Nl);
    let (base_rows, _) = execute_rows_opts(&db, &nl_plan, &ExecOptions::default());

    let one = ExecOptions { batch_size: 1, ..ExecOptions::default() };
    for join in JoinStrategy::ALL {
        let phys = plan_of(join);
        let mode = format!("join={join}");
        let (rows, stats) = execute_rows_opts(&db, &phys, &ExecOptions::default());
        assert_eq!(base_rows, rows, "rows diverged on {query} ({mode})");
        // Same plan at batch size 1: results and row-count statistics
        // must both hold still.
        let (rows1, stats1) = execute_rows_opts(&db, &phys, &one);
        assert_eq!(base_rows, rows1, "rows diverged on {query} ({mode}, batch 1)");
        assert_invariant_stats(query, &mode, &stats1, &stats);
    }
}

/// SQL-written join graphs whose equality edges join column pairs the
/// hash join accepts but the XQuery compiler never writes: `value = name`,
/// `data = data`, `level = level + 1`, `pre = parent`, and a two-column
/// key. Each has a hash step under forced `hash`.
const SQL_JOINS: &[&str] = &[
    "SELECT DISTINCT d1.pre AS item, d2.pre FROM doc AS d1, doc AS d2 \
     WHERE d2.value = d1.name ORDER BY d1.pre",
    "SELECT DISTINCT d1.pre AS item, d2.pre FROM doc AS d1, doc AS d2 \
     WHERE d2.data = d1.data ORDER BY d1.pre",
    "SELECT DISTINCT d1.pre AS item, d2.pre FROM doc AS d1, doc AS d2 \
     WHERE d1.kind = 'ELEM' AND d2.level = d1.level + 1 ORDER BY d1.pre",
    "SELECT DISTINCT d1.pre AS item, d2.pre FROM doc AS d1, doc AS d2 \
     WHERE d2.pre = d1.parent ORDER BY d1.pre",
    "SELECT DISTINCT d1.pre AS item, d2.pre FROM doc AS d1, doc AS d2 \
     WHERE d2.parent = d1.parent AND d2.value = d1.value ORDER BY d1.pre",
];

/// A random document with leaves appended whose `data` is a decimal, or an
/// integer written as a decimal (`2.0` has the `data` of `2` but another
/// `value`), and whose `value` is a tag name.
fn with_decimal_leaves(mut tree: Tree) -> Tree {
    let top = tree.content_children(tree.root())[0];
    for (tag, text) in [("b", "2.0"), ("c", "1.5"), ("a", "15"), ("c", "a")] {
        tree.add_text_element(top, tag, text);
    }
    tree
}

/// Plan each [`SQL_JOINS`] text under every strategy forcing and check the
/// plans against the nested-loop baseline row for row.
fn check_sql_joins_on(tree: &Tree) {
    let mut store = DocStore::new();
    store.add_tree(tree);
    let db = Database::with_default_indexes(store);
    for sql in SQL_JOINS {
        let cq = jgi_sql::parse_join_graph(sql).expect("SQL join graph parses");
        let plan_of =
            |join| optimizer::plan_opts(&db, &cq, &PlanOptions { join, ..PlanOptions::default() });
        let (base, _) = execute_rows_opts(&db, &plan_of(JoinStrategy::Nl), &ExecOptions::default());
        let hashed = plan_of(JoinStrategy::Hash);
        assert!(hashed.steps.iter().any(|s| s.strategy() == "hash"), "no hash step: {sql}");
        for join in JoinStrategy::ALL {
            let (rows, _) = execute_rows_opts(&db, &plan_of(join), &ExecOptions::default());
            assert_eq!(base, rows, "rows diverged on {sql} (join={join})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Random workhorse queries over random documents: no join-strategy
    /// forcing, at either batch size, can change a result.
    #[test]
    fn strategies_agree_on_random_queries(tree in gen_tree(), query in gen_query()) {
        check_strategies_on(&tree, &query);
    }

    /// Hash keys are catalog codes of the build columns, whatever column
    /// the probe reads: joins across column pairs agree under `hash`,
    /// `nl` and `auto`.
    #[test]
    fn strategies_agree_on_sql_joins_across_columns(tree in gen_tree()) {
        check_sql_joins_on(&with_decimal_leaves(tree));
    }
}
