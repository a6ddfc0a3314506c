//! Cross-strategy equivalence suite for physical join selection.
//!
//! The join strategy is a pure execution detail: forcing `nl`, `hash` or
//! `leapfrog` via `Budgets::join` (or picking `auto`) must never change a
//! result — only how fast it arrives. Three layers of evidence:
//!
//! * the Q1–Q8 paper corpus × {nl, hash, leapfrog, auto} × {scalar,
//!   vectorized}, all byte-identical to the nested-loop scalar baseline,
//! * a vacuity guard: under `auto` the vectorized corpus actually plans
//!   and executes non-NL join steps, Q2's value-join core among them,
//! * property tests over random documents × random workhorse queries
//!   (including generated value joins), planning each strategy forcing
//!   explicitly and driving `execute_rows_opts` in both executor modes.

use jgi_compiler::compile;
use jgi_core::queries::paper_corpus;
use jgi_core::{Engine, Session};
use jgi_engine::optimizer::{self, JoinStrategy, PlanOptions};
use jgi_engine::physical::{execute_rows_opts, ExecOptions, ExecStats, Step};
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

/// Counters that may not depend on the executor mode for a fixed plan.
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

/// Q1–Q8: every strategy forcing, in both executor modes, produces the
/// byte-identical node sequence the nested-loop scalar baseline produces.
#[test]
fn corpus_identical_across_strategies_modes_and_degrees() {
    let mut session = corpus_session(0.005, 1000);
    for &(name, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        session.budgets.join = JoinStrategy::Nl;
        session.budgets.vectorized = false;
        let base = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        for join in JoinStrategy::ALL {
            for vectorized in [false, true] {
                session.budgets.join = join;
                session.budgets.vectorized = vectorized;
                let cell =
                    session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
                let mode = format!("join={join}, vectorized={vectorized}");
                assert_eq!(cell.nodes, base.nodes, "{name}: result diverged ({mode})");
            }
        }
    }
}

/// Under `auto` the vectorized corpus must actually choose non-NL join
/// steps somewhere — on Q2's value joins at least — and the executor must
/// actually run them; otherwise the equivalence suite above proves nothing
/// about hash or leapfrog.
#[test]
fn corpus_strategy_selection_is_not_vacuous() {
    let mut session = corpus_session(0.005, 1000);
    session.budgets.join = JoinStrategy::Auto;
    session.budgets.vectorized = true;
    let mut non_nl_plans = 0usize;
    let mut exercised = 0usize;
    for &(name, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        let out = session.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        if let Some(cq) = &prepared.cq {
            let popts = PlanOptions { join: JoinStrategy::Auto, vectorized: true };
            let plan = optimizer::plan_opts(session.database(), cq, &popts);
            let non_nl = plan.steps.iter().any(|s| !matches!(s, Step::Nl(_)));
            if non_nl {
                non_nl_plans += 1;
            }
            assert!(non_nl || name != "Q2", "Q2 must cost-select a non-NL strategy: {plan:?}");
        }
        let exec = out.report.exec.as_ref().expect("exec stats");
        if exec.join_seeks > 0 || exec.join_build_rows > 0 || exec.join_probe_batches > 0 {
            exercised += 1;
            assert!(
                exec.join_probe_batches > 0,
                "{name}: join counters fired without a probed batch"
            );
        }
    }
    assert!(non_nl_plans > 0, "auto never chose a non-NL strategy on the corpus");
    assert!(exercised > 0, "no corpus query drove the non-NL join executor paths");
}

// ---------------------------------------------------------------------------
// Random documents × random queries (differential-suite generators, plus a
// value-join form so the hash/leapfrog machinery is actually reachable)
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
    // A two-variable value join on attributes — the shape the hash and
    // leapfrog strategies exist for.
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
/// strategy forcing in both executor modes, and check each plan against
/// the nested-loop scalar baseline row-for-row. For a fixed plan, the
/// executor mode must also leave the row-count statistics untouched.
fn check_strategies_on(tree: &Tree, query: &str) {
    let Ok(core) = compile_to_core(query) else { return };
    let compiled = compile(&core).expect("compilation succeeds");
    let mut store = DocStore::new();
    store.add_tree(tree);
    let mut plan = compiled.plan;
    let (iso_root, _stats) = isolate(&mut plan, compiled.root);
    let Ok(cq) = extract_cq(&plan, iso_root) else { return };
    let db = Database::with_default_indexes(store);

    let nl_plan = optimizer::plan_opts(&db, &cq, &PlanOptions {
        join: JoinStrategy::Nl,
        vectorized: false,
    });
    let scalar = ExecOptions { vectorized: false, ..ExecOptions::default() };
    let (base_rows, _) = execute_rows_opts(&db, &nl_plan, &scalar);

    for join in JoinStrategy::ALL {
        for vectorized in [false, true] {
            let phys = optimizer::plan_opts(&db, &cq, &PlanOptions { join, vectorized });
            let mode = format!("join={join}, vectorized={vectorized}");
            let opts = ExecOptions { vectorized, ..ExecOptions::default() };
            let (rows, stats) = execute_rows_opts(&db, &phys, &opts);
            assert_eq!(base_rows, rows, "rows diverged on {query} ({mode})");
            // Same plan, other executor mode: results and row-count
            // statistics must both hold still.
            let flipped = ExecOptions { vectorized: !vectorized, ..ExecOptions::default() };
            let (rows2, stats2) = execute_rows_opts(&db, &phys, &flipped);
            assert_eq!(base_rows, rows2, "rows diverged on {query} ({mode}, mode flipped)");
            assert_invariant_stats(query, &mode, &stats, &stats2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Random workhorse queries over random documents: no join-strategy
    /// forcing, in either executor mode, can change a result.
    #[test]
    fn strategies_agree_on_random_queries(tree in gen_tree(), query in gen_query()) {
        check_strategies_on(&tree, &query);
    }
}
