//! Property test: index-key codes order exactly as `Value::cmp` orders the
//! values they stand for.
//!
//! Random small documents, every default index plus one keyed on `data`,
//! `size` and `parent`, and random `(lo, lo_strict, hi, hi_strict)` range probes
//! over non-NULL values of every class — stored values, absent strings,
//! kinds and numbers probing string columns, `Int`s probing `data`,
//! `-0.0`, negative integers, decimals between integers, infinities. The
//! `pre` sequence a scan over coded bounds returns must equal a
//! brute-force filter over `Database::col_value` under the `Value` prefix
//! comparator the B-tree used before keys were coded, sorted by
//! `(key, pre)`.

use jgi_algebra::Value;
use jgi_engine::{Database, IndexCol};
use jgi_xml::{DocStore, NodeKind, Tree};
use proptest::prelude::*;
use std::cmp::Ordering;

// ---------------------------------------------------------------------------
// Random documents
// ---------------------------------------------------------------------------

const TAGS: &[&str] = &["a", "b", "c", "d"];
const ATTRS: &[&str] = &["x", "y"];
const TEXTS: &[&str] = &["1", "2", "15", "500.5", "-0", "0", "-3.5", "alpha", "beta"];

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
    proptest::collection::vec(gen_node(3), 1..4).prop_map(|roots| {
        let mut t = Tree::new("t.xml");
        let top = t.add_element(t.root(), "root");
        for r in &roots {
            build(&mut t, top, r);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Random probe values
// ---------------------------------------------------------------------------

/// Stored strings and strings no document holds.
const STRINGS: &[&str] = &[
    "a", "b", "d", "x", "root", "t.xml", "1", "15", "500.5", "-0", "alpha", "beta", "", " ", "0",
    "aa", "alph", "alphaa", "b\u{0}", "zzz", "~",
];

const DECS: &[f64] = &[
    -0.0,
    0.0,
    0.5,
    1.5,
    2.0,
    14.999,
    15.0,
    500.5,
    501.0,
    -3.5,
    -1.0,
    1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

const KINDS: &[NodeKind] = &[
    NodeKind::Doc,
    NodeKind::Elem,
    NodeKind::Attr,
    NodeKind::Text,
    NodeKind::Comment,
    NodeKind::Pi,
];

fn gen_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..STRINGS.len()).prop_map(|i| Value::Str(STRINGS[i].to_string())),
        (0..KINDS.len()).prop_map(|i| Value::Kind(KINDS[i])),
        (-3i64..40).prop_map(Value::Int),
        (0..DECS.len()).prop_map(|i| Value::Dec(DECS[i])),
        (-20i64..80).prop_map(|q| Value::Dec(q as f64 / 4.0)),
    ]
}

/// One bound component: a stored value of a random row (when `from_row`
/// and that row's value is not NULL) or a drawn value.
fn gen_component() -> impl Strategy<Value = (bool, u32, Value)> {
    (any::<bool>(), any::<u32>(), gen_value())
}

/// The `Value` prefix comparator: missing trailing probe components
/// compare as "matches anything".
fn cmp_prefix(probe: &[Value], key: &[Value]) -> Ordering {
    for (p, k) in probe.iter().zip(key) {
        match p.cmp(k) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

fn bound(db: &Database, key: &[IndexCol], comps: &[(bool, u32, Value)], len: usize) -> Vec<Value> {
    let n = db.store.len() as u32;
    comps
        .iter()
        .zip(key)
        .take(len)
        .map(|((from_row, row, v), &col)| match db.col_value(row % n, col) {
            stored if *from_row && !stored.is_null() => stored,
            _ => v.clone(),
        })
        .collect()
}

type ProbeSpec =
    (usize, (usize, usize), Vec<(bool, u32, Value)>, Vec<(bool, u32, Value)>, (bool, bool, u8));

fn gen_probe() -> impl Strategy<Value = ProbeSpec> {
    (
        any::<usize>(),
        (1usize..6, 1usize..6),
        proptest::collection::vec(gen_component(), 5..6),
        proptest::collection::vec(gen_component(), 5..6),
        (any::<bool>(), any::<bool>(), 0u8..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn coded_scans_match_value_filter(
        tree in gen_tree(),
        probes in proptest::collection::vec(gen_probe(), 1..16),
    ) {
        let mut store = DocStore::new();
        store.add_tree(&tree);
        let mut db = Database::with_default_indexes(store);
        db.create_index_by_name("dzqp").unwrap();
        let n = db.store.len() as u32;
        for (which, (lo_len, hi_len), lo_c, hi_c, (lo_strict, hi_strict, mode)) in probes {
            let idx = &db.indexes[which % db.indexes.len()];
            let w = idx.key.len();
            let lo = bound(&db, &idx.key, &lo_c, lo_len.min(w));
            let mut hi = bound(&db, &idx.key, &hi_c, hi_len.min(w));
            // Modes: 0 a range, 1 lower bound only, 2 upper bound only,
            // 3 an equality prefix.
            let (lo, hi, lo_strict, hi_strict) = match mode {
                1 => (lo, Vec::new(), lo_strict, false),
                2 => (Vec::new(), hi, false, hi_strict),
                3 => {
                    hi.clone_from(&lo);
                    (lo, hi, false, false)
                }
                _ => (lo, hi, lo_strict, hi_strict),
            };
            let code = |b: &[Value]| -> Vec<u64> {
                b.iter().zip(&idx.key).map(|(v, &c)| db.value_code(c, v)).collect()
            };
            let got: Vec<u32> = idx
                .btree
                .scan(&code(&lo), lo_strict, &code(&hi), hi_strict)
                .map(|(_, pre)| pre)
                .collect();
            let mut want: Vec<(Vec<Value>, u32)> = (0..n)
                .map(|pre| (idx.key.iter().map(|&c| db.col_value(pre, c)).collect::<Vec<_>>(), pre))
                .filter(|(k, _)| {
                    let lo_ok = lo.is_empty() || match cmp_prefix(&lo, k) {
                        Ordering::Less => true,
                        Ordering::Equal => !lo_strict,
                        Ordering::Greater => false,
                    };
                    let hi_ok = hi.is_empty() || match cmp_prefix(&hi, k) {
                        Ordering::Greater => true,
                        Ordering::Equal => !hi_strict,
                        Ordering::Less => false,
                    };
                    lo_ok && hi_ok
                })
                .collect();
            want.sort();
            let want: Vec<u32> = want.into_iter().map(|(_, pre)| pre).collect();
            prop_assert_eq!(got, want, "index {} lo {:?} {} hi {:?} {}", idx.name, lo, lo_strict, hi, hi_strict);

            // Codes never invert the order of two probe values, so sorting
            // probes by code is sorting them by value.
            for (j, &col) in idx.key.iter().enumerate().take(lo.len().min(hi.len())) {
                let (a, b) = (&lo[j], &hi[j]);
                let (ca, cb) = (db.value_code(col, a), db.value_code(col, b));
                match a.cmp(b) {
                    Ordering::Less => prop_assert!(ca <= cb, "{} {:?} < {:?}", idx.name, a, b),
                    Ordering::Equal => prop_assert_eq!(ca, cb),
                    Ordering::Greater => prop_assert!(ca >= cb, "{} {:?} > {:?}", idx.name, a, b),
                }
            }
        }
    }
}
