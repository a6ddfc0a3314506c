//! Property-based exercise of the plan checker (`jgi-check`): random
//! workhorse queries over random documents run through *fully checked*
//! isolation — static property certification (Tables 2–5 re-derived
//! naively and cross-checked), the dynamic falsification oracle, the
//! per-rewrite rule audit, and the structural validator that `JGI_CHECK=1`
//! arms inside the rewrite driver. Any violation anywhere is a test
//! failure naming the rule and node.
//!
//! A second property drives the rules in a *random* order — not the
//! driver's goal order — and checks after every fire (a house-cleaning
//! fire being one batch) that the property table carried over by
//! `Props::advance` equals a from-scratch `infer`.

use jgi_compiler::compile;
use jgi_rewrite::rules::{
    find_rewrite, house_batch, is_pushable_equijoin, substitute, try_eliminate_join,
    try_push_join, Phase,
};
use jgi_rewrite::infer;
use jgi_xml::{DocStore, Tree};
use jgi_xquery::compile_to_core;
use proptest::prelude::*;

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
    leaf.prop_recursive(depth, 16, 3, |inner| {
        (
            0..TAGS.len(),
            proptest::collection::vec((0..ATTRS.len(), 0..TEXTS.len()), 0..2),
            proptest::collection::vec(inner, 0..3),
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
    proptest::collection::vec(gen_node(3), 1..3).prop_map(|roots| {
        let mut t = Tree::new("t.xml");
        let top = t.add_element(t.root(), "root");
        for r in &roots {
            build(&mut t, top, r);
        }
        t
    })
}

const AXES: &[&str] =
    &["child", "descendant", "descendant-or-self", "parent", "ancestor", "following-sibling"];

fn gen_step() -> impl Strategy<Value = String> {
    (0..AXES.len(), 0..TAGS.len() + 2).prop_map(|(a, t)| {
        let test = match t {
            i if i < TAGS.len() => TAGS[i],
            i if i == TAGS.len() => "*",
            _ => "node()",
        };
        format!("{}::{}", AXES[a], test)
    })
}

/// Random workhorse queries: paths, existential/value predicates, and
/// nested `for` loops — the fragment the compiler's loop-lifting covers.
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

fn check_query(tree: &Tree, query: &str) {
    // Arm the driver's own env-gated structural validation too, so the
    // whole checked pipeline runs exactly as `JGI_CHECK=1` ships it.
    std::env::set_var("JGI_CHECK", "1");

    let Ok(core) = compile_to_core(query) else { return };
    let compiled = compile(&core).expect("compilation succeeds");
    let mut store = DocStore::new();
    store.add_tree(tree);

    let mut plan = compiled.plan;
    let (iso_root, stats, report) = jgi_check::checked_isolate(&mut plan, compiled.root, &store)
        .unwrap_or_else(|e| panic!("checker violation on {query}: {e}"));
    assert_eq!(report.unaudited(&stats), vec![], "audit saw every rewrite of {query}");

    // The isolated plan must also come out structurally valid.
    jgi_algebra::validate::validate(&plan, iso_root)
        .unwrap_or_else(|e| panic!("isolated plan of {query} invalid: {e}"));
}

/// Fire rules as `choices` dictates — each entry picks a rule family and
/// how many of its candidates to pass over first — and compare the carried
/// table with the reference inference after every fire.
fn check_random_fires(query: &str, choices: &[(usize, usize)]) {
    let Ok(core) = compile_to_core(query) else { return };
    let compiled = compile(&core).expect("compilation succeeds");
    let mut plan = compiled.plan;
    let mut props = infer(&plan, compiled.root);
    for (step, &(family, skip)) in choices.iter().enumerate() {
        let fire = match [Phase::House, Phase::RankGoal, Phase::JoinGoal].get(family) {
            // A house-cleaning fire is a whole batch; passing over a batch
            // bans its first rewrite.
            Some(&Phase::House) => {
                let mut passed_over = std::collections::HashSet::new();
                let mut found = house_batch(&mut plan, &mut props, &passed_over, usize::MAX);
                for _ in 0..skip {
                    let Ok(Some(batch)) = &found else { break };
                    passed_over.insert((batch.rewrites[0].old, batch.rewrites[0].new));
                    found = house_batch(&mut plan, &mut props, &passed_over, usize::MAX);
                }
                match found {
                    Ok(batch) => batch.map(|b| (b.root, b.rewrites[b.rewrites.len() - 1].rule)),
                    Err(k) => panic!("{query}: rewrite {k} of a sweep at fire {step} is reused"),
                }
            }
            Some(&phase) => {
                let mut passed_over = std::collections::HashSet::new();
                let mut found = find_rewrite(&mut plan, &mut props, phase, &passed_over);
                for _ in 0..skip {
                    let Some(rw) = found else { break };
                    passed_over.insert((rw.old, rw.new));
                    found = find_rewrite(&mut plan, &mut props, phase, &passed_over);
                }
                found.map(|rw| (substitute(&mut plan, &props, rw.old, rw.new).0, rw.rule))
            }
            None => {
                let joins: Vec<_> = props
                    .order()
                    .iter()
                    .copied()
                    .filter(|&id| is_pushable_equijoin(&plan, id))
                    .collect();
                // A push is one level of the driver's descent, which stays
                // put below a ∪.
                let rw = joins.get(skip % joins.len().max(1)).and_then(|&j| {
                    try_eliminate_join(&mut plan, &props, j).or_else(|| {
                        if props.below_union(j) {
                            return None;
                        }
                        try_push_join(&mut plan, j, None).map(|(rw, ..)| rw)
                    })
                });
                rw.map(|rw| (substitute(&mut plan, &props, rw.old, rw.new).0, rw.rule))
            }
        };
        let Some((new_root, rule)) = fire else { continue };
        jgi_algebra::validate::validate(&plan, new_root)
            .unwrap_or_else(|e| panic!("{query}: rule {rule} at fire {step}: {e}"));
        props.advance(&plan, new_root);
        let mismatch = props.first_mismatch(&infer(&plan, new_root));
        assert_eq!(mismatch, None, "{query}: after rule {rule} at fire {step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Zero checker violations across random queries and documents.
    #[test]
    fn checker_finds_no_violations_on_random_queries(tree in gen_tree(), query in gen_query()) {
        check_query(&tree, &query);
    }

    /// Carry-over equals fresh inference along random fire sequences.
    #[test]
    fn carried_properties_survive_random_fire_sequences(
        query in gen_query(),
        choices in proptest::collection::vec((0..4usize, 0..3usize), 1..60),
    ) {
        check_random_fires(&query, &choices);
    }
}
