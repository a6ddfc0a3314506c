//! A pinned random corpus for isolation: 600 distinct queries drawn by a
//! fixed-seed generator from the grammar of the workspace's
//! `tests/check_proptest.rs` — 1–3 steps over its six axes and five node
//! tests, existential and value predicates, one `for` level. Every query
//! must isolate within the fuel, extract to a conjunctive query, and
//! compute on a set of generated documents exactly what its stacked plan
//! computes, both as the isolated plan and as the extracted join graph on
//! the engine. The corpus's total fires, isolated DAG size and join-graph
//! aliases are pinned, so that a driver or extraction change shows on more
//! than the 11 benchmark texts of `golden_fires`; a deliberate change is
//! re-pinned from the values the failing assertion prints.
//!
//! The extracted SQL must also be a function of the join graph alone: any
//! renumbering of a query's aliases and any order of its atoms
//! canonicalise to the same text, for the corpus and the 11 texts.

use jgi_algebra::cq::{ColRef, CqAtom, CqScalar};
use jgi_algebra::ConjunctiveQuery;
use jgi_compiler::compile;
use jgi_engine::{execute_serialized, run_cq, Database, ExecBudget};
use jgi_rewrite::{canonicalize, extract_cq, isolate};
use jgi_sql::join_graph_sql;
use jgi_xml::{DocStore, NodeId, Tree};
use jgi_xquery::{compile_to_core, normalize, parse_query, ParserOptions};
use std::collections::BTreeSet;
use std::sync::Arc;

mod texts;

const TAGS: &[&str] = &["a", "b", "c"];
const ATTRS: &[&str] = &["x", "y"];
const TEXTS: &[&str] = &["1", "2", "15", "alpha"];
const AXES: &[&str] =
    &["child", "descendant", "descendant-or-self", "parent", "ancestor", "following-sibling"];

const QUERIES: usize = 600;
const DOCS: usize = 8;

/// Corpus queries whose core the extraction must reach, with its aliases.
const CORES: [(&str, usize); 2] = [
    (r#"for $v in doc("t.xml")/parent::node()/child::*/child::c return $v/parent::c"#, 5),
    (
        r#"for $v in doc("t.xml")/parent::a/descendant-or-self::a/descendant::c return $v/parent::c/descendant-or-self::b"#,
        6,
    ),
];

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

/// The corpus's documents and its queries, in text order.
fn corpus() -> (Vec<DocStore>, BTreeSet<String>) {
    let mut rng = Lcg(41);
    let docs: Vec<DocStore> = (0..DOCS).map(|_| rng.document()).collect();
    let mut queries = BTreeSet::new();
    while queries.len() < QUERIES {
        queries.insert(rng.query());
    }
    (docs, queries)
}

#[test]
fn random_corpus_isolates_extracts_and_agrees() {
    let (docs, queries) = corpus();
    let docs: Vec<(Arc<DocStore>, Database)> = docs
        .into_iter()
        .map(|store| {
            let store = Arc::new(store);
            (Arc::clone(&store), Database::with_default_indexes(store))
        })
        .collect();
    let (mut steps, mut nodes_after, mut aliases, mut cores) = (0, 0, 0, 0);
    let (mut compared, mut non_empty) = (0, 0);
    for q in &queries {
        let core = compile_to_core(q).unwrap_or_else(|e| panic!("{q}: {e:?}"));
        let compiled = compile(&core).unwrap_or_else(|e| panic!("{q}: {e:?}"));
        let mut plan = compiled.plan;
        let (root, stats) = isolate(&mut plan, compiled.root);
        assert!(!stats.fuel_exhausted, "{q}: {}", stats.summary());
        let cq = extract_cq(&plan, root).unwrap_or_else(|e| panic!("{q}: not extracted: {e:?}"));
        for (store, db) in &docs {
            let run = |root| execute_serialized(&plan, root, store, ExecBudget::default()).unwrap();
            let stacked = run(compiled.root);
            assert_eq!(run(root), stacked, "{q}: isolation changed the result");
            assert_eq!(run_cq(db, &cq), stacked, "{q}: the join graph computes another result");
            compared += 1;
            non_empty += usize::from(!stacked.is_empty());
        }
        if let Some((_, want)) = CORES.iter().find(|(text, _)| text == q) {
            assert_eq!(cq.aliases, *want, "{q}: not folded to its core\n{}", join_graph_sql(&cq));
            cores += 1;
        }
        steps += stats.steps;
        nodes_after += stats.nodes_after;
        aliases += cq.aliases;
    }
    assert_eq!(cores, CORES.len(), "every pinned core query is in the corpus");
    // The comparisons are not vacuous: 701 of the 4 800 results are
    // non-empty.
    assert!(non_empty * 10 > compared, "{non_empty} of {compared} results non-empty");
    assert_eq!((steps, nodes_after), (15_591, 11_225), "corpus fires and isolated DAG size");
    assert_eq!(aliases, 2_398, "corpus join-graph aliases");
}

/// `cq` with alias `a` renamed `perm[a]` and its atoms in another order.
fn renamed(cq: &ConjunctiveQuery, perm: &[usize], rng: &mut Lcg) -> ConjunctiveQuery {
    let col = |c: &ColRef| ColRef { alias: perm[c.alias], col: c.col };
    let scalar = |s: &CqScalar| match s {
        CqScalar::Col(c) => CqScalar::Col(col(c)),
        CqScalar::ColPlusInt(c, i) => CqScalar::ColPlusInt(col(c), *i),
        CqScalar::ColPlusCol(x, y) => CqScalar::ColPlusCol(col(x), col(y)),
        CqScalar::Const(v) => CqScalar::Const(v.clone()),
    };
    let mut out = cq.clone();
    out.predicates = cq
        .predicates
        .iter()
        .map(|p| CqAtom { lhs: scalar(&p.lhs), op: p.op, rhs: scalar(&p.rhs) })
        .collect();
    shuffle(&mut out.predicates, rng);
    for o in &mut out.select {
        o.col = col(&o.col);
    }
    for c in &mut out.order_by {
        *c = col(c);
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut Lcg) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[test]
fn canonical_sql_ignores_alias_numbering_and_atom_order() {
    let (_, queries) = corpus();
    let mut cqs: Vec<(String, ConjunctiveQuery)> = Vec::new();
    for (name, text, ctx) in texts::TEXTS {
        let opts = ParserOptions { context_doc: ctx.map(str::to_string) };
        let core = normalize(&parse_query(text, &opts).unwrap()).unwrap();
        cqs.push((name.to_string(), extract(&core)));
    }
    for q in queries {
        let core = compile_to_core(&q).unwrap();
        cqs.push((q, extract(&core)));
    }
    let mut rng = Lcg(44);
    for (name, cq) in &cqs {
        let sql = join_graph_sql(cq);
        for _ in 0..20 {
            let mut perm: Vec<usize> = (0..cq.aliases).collect();
            shuffle(&mut perm, &mut rng);
            let mut other = renamed(cq, &perm, &mut rng);
            canonicalize(&mut other);
            assert_eq!(join_graph_sql(&other), sql, "{name}: renumbered as {perm:?}");
        }
    }
    assert_eq!(cqs.len(), 611);
}

fn extract(core: &jgi_xquery::Core) -> ConjunctiveQuery {
    let compiled = compile(core).unwrap();
    let mut plan = compiled.plan;
    let (root, _) = isolate(&mut plan, compiled.root);
    extract_cq(&plan, root).unwrap()
}
