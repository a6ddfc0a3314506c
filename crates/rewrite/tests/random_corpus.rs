//! A pinned random corpus for isolation: 600 distinct queries drawn by a
//! fixed-seed generator from the grammar of the workspace's
//! `tests/check_proptest.rs` — 1–3 steps over its six axes and five node
//! tests, existential and value predicates, one `for` level. Every query
//! must isolate within the fuel, extract to a conjunctive query, and
//! compute on a set of generated documents exactly what its stacked plan
//! computes. The corpus's total fires and isolated DAG size are pinned, so
//! that a driver change that fires differently shows on more than the 11
//! benchmark texts of `golden_fires`; a deliberate change is re-pinned
//! from the values the failing assertion prints.

use jgi_compiler::compile;
use jgi_engine::{execute_serialized, ExecBudget};
use jgi_rewrite::{extract_cq, isolate};
use jgi_xml::{DocStore, NodeId, Tree};
use jgi_xquery::compile_to_core;
use std::collections::BTreeSet;

const TAGS: &[&str] = &["a", "b", "c"];
const ATTRS: &[&str] = &["x", "y"];
const TEXTS: &[&str] = &["1", "2", "15", "alpha"];
const AXES: &[&str] =
    &["child", "descendant", "descendant-or-self", "parent", "ancestor", "following-sibling"];

const QUERIES: usize = 600;
const DOCS: usize = 8;

/// Knuth's MMIX linear congruential generator.
struct Lcg(u64);

impl Lcg {
    /// A number in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6_364_136_223_846_793_005);
        self.0 = self.0.wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn step(&mut self) -> String {
        let test = match self.below(TAGS.len() + 2) {
            i if i < TAGS.len() => TAGS[i],
            i if i == TAGS.len() => "*",
            _ => "node()",
        };
        format!("{}::{}", AXES[self.below(AXES.len())], test)
    }

    fn steps(&mut self, max: usize) -> String {
        let n = 1 + self.below(max);
        (0..n).map(|_| self.step()).collect::<Vec<_>>().join("/")
    }

    /// A path, a path with a predicate, or a `for` over a path.
    fn query(&mut self) -> String {
        let path = format!(r#"doc("t.xml")/{}"#, self.steps(3));
        match self.below(3) {
            0 => path,
            1 => {
                let cond = self.step();
                match self.below(2) {
                    0 => format!("{path}[{cond}]"),
                    _ => format!(r#"{path}[{cond} = "{}"]"#, TEXTS[self.below(TEXTS.len())]),
                }
            }
            _ => format!("for $v in {path} return $v/{}", self.steps(2)),
        }
    }

    /// An element with up to one attribute and, above depth 0, up to two
    /// children; or a text node.
    fn node(&mut self, tree: &mut Tree, parent: NodeId, depth: u32) {
        if self.below(5) == 0 {
            tree.add_text(parent, TEXTS[self.below(TEXTS.len())]);
            return;
        }
        let e = tree.add_element(parent, TAGS[self.below(TAGS.len())]);
        if self.below(2) == 0 {
            tree.add_attr(e, ATTRS[self.below(ATTRS.len())], TEXTS[self.below(TEXTS.len())]);
        }
        let children = if depth == 0 { 0 } else { self.below(3) };
        for _ in 0..children {
            self.node(tree, e, depth - 1);
        }
    }

    fn document(&mut self) -> DocStore {
        let mut tree = Tree::new("t.xml");
        let top = tree.add_element(tree.root(), "root");
        for _ in 0..2 + self.below(2) {
            self.node(&mut tree, top, 3);
        }
        let mut store = DocStore::new();
        store.add_tree(&tree);
        store
    }
}

#[test]
fn random_corpus_isolates_extracts_and_agrees() {
    let mut rng = Lcg(41);
    let docs: Vec<DocStore> = (0..DOCS).map(|_| rng.document()).collect();
    let mut queries = BTreeSet::new();
    while queries.len() < QUERIES {
        queries.insert(rng.query());
    }
    let (mut steps, mut nodes_after, mut compared, mut non_empty) = (0, 0, 0, 0);
    for q in &queries {
        let core = compile_to_core(q).unwrap_or_else(|e| panic!("{q}: {e:?}"));
        let compiled = compile(&core).unwrap_or_else(|e| panic!("{q}: {e:?}"));
        let mut plan = compiled.plan;
        let (root, stats) = isolate(&mut plan, compiled.root);
        assert!(!stats.fuel_exhausted, "{q}: {}", stats.summary());
        extract_cq(&plan, root).unwrap_or_else(|e| panic!("{q}: not extracted: {e:?}"));
        for store in &docs {
            let run = |root| execute_serialized(&plan, root, store, ExecBudget::default()).unwrap();
            let stacked = run(compiled.root);
            assert_eq!(run(root), stacked, "{q}: isolation changed the result");
            compared += 1;
            non_empty += usize::from(!stacked.is_empty());
        }
        steps += stats.steps;
        nodes_after += stats.nodes_after;
    }
    // The comparisons are not vacuous: 701 of the 4 800 results are
    // non-empty.
    assert!(non_empty * 10 > compared, "{non_empty} of {compared} results non-empty");
    assert_eq!((steps, nodes_after), (15_591, 11_225), "corpus fires and isolated DAG size");
}
