//! Full-reparse oracle for in-place mutation.
//!
//! A shadow [`Tree`] receives exactly the same Insert/Delete/Replace
//! sequence as the [`OverlayDoc`]; after every operation the columns
//! `apply` leaves must be byte-identical to a from-scratch encoding of the
//! shadow — sizes, levels, kinds, parents raw, names and values resolved
//! through the interners (interner *ids* may differ: an edit appends to
//! the document's interner, a reparse starts fresh). The shadow is edited
//! through the `Tree` API (`graft`/`detach`/`replace_subtree`), which the
//! code under test does not use.
//!
//! One fixed case additionally routes the shadow through XML *text*
//! (serialize → parse → encode), the literal full-reparse pipeline. The
//! property tests use the tree-encode oracle because serialization merges
//! adjacent text nodes (legal after deleting an element between two text
//! siblings), which reparse cannot distinguish — the encoder itself is
//! text-roundtrip-tested in `tests/encoding_proptest.rs` at the workspace
//! root.

use jgi_mutate::{parse_fragment, Op, OverlayDoc};
use jgi_xml::serialize::tree_to_xml;
use jgi_xml::{parse, DocStore, NodeKind, Tree};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const TAGS: &[&str] = &["item", "name", "bidder", "price", "note"];
const TEXTS: &[&str] = &["x", "42", "4.20", "hello world", ""];

/// Build a random document tree of roughly `budget` nodes.
fn random_tree(rng: &mut SmallRng, budget: usize) -> Tree {
    let mut t = Tree::new("doc.xml");
    let root = t.add_element(t.root(), "root");
    let mut open = vec![root];
    let mut n = 2;
    while n < budget {
        let parent = open[rng.gen_range(0..open.len())];
        match rng.gen_range(0..10) {
            0..=4 => {
                let e = t.add_element(parent, TAGS[rng.gen_range(0..TAGS.len())]);
                if rng.gen_bool(0.3) && t.all_children(e).is_empty() {
                    t.add_attr(e, "k", TEXTS[rng.gen_range(0..TEXTS.len())]);
                    n += 1;
                }
                open.push(e);
            }
            5..=7 => {
                t.add_text(parent, TEXTS[rng.gen_range(0..TEXTS.len())]);
            }
            8 => {
                t.add_comment(parent, "c");
            }
            _ => {
                t.add_pi(parent, "pi", "d");
            }
        }
        n += 1;
    }
    t
}

/// A random single-element fragment, as wire XML.
fn random_fragment(rng: &mut SmallRng) -> String {
    let tag = TAGS[rng.gen_range(0..TAGS.len())];
    let mut xml = format!("<{tag}");
    if rng.gen_bool(0.4) {
        xml.push_str(" a=\"v\"");
    }
    match rng.gen_range(0..3) {
        0 => xml.push_str("/>"),
        1 => {
            let txt = TEXTS[rng.gen_range(0..TEXTS.len())];
            xml.push('>');
            xml.push_str(txt);
            xml.push_str(&format!("</{tag}>"));
        }
        _ => {
            let inner = TAGS[rng.gen_range(0..TAGS.len())];
            xml.push('>');
            xml.push_str(&format!("<{inner}>7</{inner}>"));
            xml.push_str(&format!("</{tag}>"));
        }
    }
    xml
}

/// Pick one applicable random op against the shadow's current shape, in
/// preorder numbering. Returns `None` when the op kind drawn has
/// no legal target (e.g. no element left to insert under).
fn random_op(rng: &mut SmallRng, shadow: &Tree) -> Option<Op> {
    let order = shadow.preorder();
    match rng.gen_range(0..4) {
        // Bias toward inserts so documents do not wither away.
        0 | 1 => {
            let elems: Vec<u32> = order
                .iter()
                .enumerate()
                .filter(|(_, &id)| shadow.node(id).kind == NodeKind::Elem)
                .map(|(pre, _)| pre as u32)
                .collect();
            if elems.is_empty() {
                return None;
            }
            let parent = elems[rng.gen_range(0..elems.len())];
            let kids = shadow.content_children(order[parent as usize]).len() as u32;
            Some(Op::Insert {
                parent,
                pos: rng.gen_range(0..=kids),
                xml: random_fragment(rng),
            })
        }
        2 => {
            let victims: Vec<u32> = order
                .iter()
                .enumerate()
                .filter(|(_, &id)| shadow.node(id).kind != NodeKind::Doc)
                .map(|(pre, _)| pre as u32)
                .collect();
            if victims.is_empty() {
                return None;
            }
            Some(Op::Delete { pre: victims[rng.gen_range(0..victims.len())] })
        }
        _ => {
            let victims: Vec<u32> = order
                .iter()
                .enumerate()
                .filter(|(_, &id)| {
                    !matches!(shadow.node(id).kind, NodeKind::Doc | NodeKind::Attr)
                })
                .map(|(pre, _)| pre as u32)
                .collect();
            if victims.is_empty() {
                return None;
            }
            Some(Op::Replace {
                pre: victims[rng.gen_range(0..victims.len())],
                xml: random_fragment(rng),
            })
        }
    }
}

/// Apply `op` to the shadow tree, addressing nodes by preorder rank.
fn apply_to_shadow(shadow: &mut Tree, op: &Op) {
    let order = shadow.preorder();
    match op {
        Op::Insert { parent, pos, xml } => {
            let (ftree, froot) = parse_fragment(xml).expect("oracle fragments parse");
            let target = order[*parent as usize];
            shadow.graft(target, *pos as usize, &ftree, froot);
        }
        Op::Delete { pre } => shadow.detach(order[*pre as usize]),
        Op::Replace { pre, xml } => {
            let (ftree, froot) = parse_fragment(xml).expect("oracle fragments parse");
            shadow.replace_subtree(order[*pre as usize], &ftree, froot);
        }
    }
}

/// Assert the document's columns equal a fresh encoding of the shadow:
/// numeric columns raw, name/value columns resolved.
fn assert_oracle(doc: &OverlayDoc, shadow: &Tree, ctx: &str) {
    let got = doc.store();
    let mut expect = DocStore::new();
    expect.add_tree(shadow);
    assert_eq!(got.len(), expect.len(), "{ctx}: row count");
    assert_eq!(got.size, expect.size, "{ctx}: size column");
    assert_eq!(got.level, expect.level, "{ctx}: level column");
    assert_eq!(got.kind, expect.kind, "{ctx}: kind column");
    assert_eq!(got.parent, expect.parent, "{ctx}: parent column");
    for pre in 0..got.len() as u32 {
        assert_eq!(got.name_str(pre), expect.name_str(pre), "{ctx}: name at {pre}");
        assert_eq!(got.value_str(pre), expect.value_str(pre), "{ctx}: value at {pre}");
        let (gd, ed) = (got.data_val(pre), expect.data_val(pre));
        assert!(gd == ed, "{ctx}: data at {pre}: {gd:?} vs {ed:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random op sequences against the full-reparse oracle, checked after
    /// every single operation (not just at the end).
    #[test]
    fn edits_match_full_reparse(seed in 0u64..1_000_000, nops in 1usize..30) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let budget = rng.gen_range(4..40);
        let base_tree = random_tree(&mut rng, budget);
        let mut store = DocStore::new();
        store.add_tree(&base_tree);
        let mut doc = OverlayDoc::new(Arc::new(store));
        let mut shadow = base_tree;
        for step in 0..nops {
            let Some(op) = random_op(&mut rng, &shadow) else { continue };
            apply_to_shadow(&mut shadow, &op);
            let delta = doc.apply(&op).expect("oracle ops are valid");
            prop_assert_eq!(
                doc.store().len(),
                shadow.reachable_len(),
                "row count after step {} (delta {})", step, delta
            );
            assert_oracle(&doc, &shadow, &format!("seed {seed} step {step}"));
        }
    }
}

/// The literal reparse pipeline: serialize the mutated shadow to XML text,
/// parse it back, encode, and compare with the edited columns. Ops are
/// chosen so no adjacent text nodes arise (reparse merges those).
#[test]
fn text_roundtrip_oracle() {
    let xml = "<site><people><person id=\"p0\"><name>alice</name></person>\
               <person id=\"p1\"><name>bob</name></person></people>\
               <regions><item>lamp</item></regions></site>";
    let base = parse("site.xml", xml).expect("base parses");
    let mut store = DocStore::new();
    store.add_tree(&base);
    let mut doc = OverlayDoc::new(Arc::new(store));
    let mut shadow = base;
    let ops = [
        Op::Insert { parent: 3, pos: 1, xml: "<age>30</age>".into() },
        Op::Delete { pre: 9 }, // <person id="p1"> subtree
        Op::Replace { pre: 10, xml: "<item kind=\"new\">rug</item>".into() },
        Op::Insert { parent: 1, pos: 2, xml: "<closed/>".into() },
    ];
    for op in &ops {
        apply_to_shadow(&mut shadow, op);
        doc.apply(op).expect("fixed ops are valid");
    }
    let text = tree_to_xml(&shadow);
    let reparsed = parse("site.xml", &text).expect("mutated text parses");
    let mut expect = DocStore::new();
    expect.add_tree(&reparsed);
    let got = doc.store();
    assert_eq!(got.size, expect.size, "size vs reparse");
    assert_eq!(got.level, expect.level, "level vs reparse");
    assert_eq!(got.kind, expect.kind, "kind vs reparse");
    assert_eq!(got.parent, expect.parent, "parent vs reparse");
    for pre in 0..got.len() as u32 {
        assert_eq!(got.name_str(pre), expect.name_str(pre), "name at {pre}");
        assert_eq!(got.value_str(pre), expect.value_str(pre), "value at {pre}");
    }
}

/// A storm of 100 inserts at one slot (always in front): each lands at
/// the same row and pushes the earlier ones down.
#[test]
fn same_slot_insert_storm() {
    let base = parse("t.xml", "<r><z/></r>").expect("parses");
    let mut store = DocStore::new();
    store.add_tree(&base);
    let mut doc = OverlayDoc::new(Arc::new(store));
    let mut shadow = base;
    for i in 0..100 {
        let op = Op::Insert { parent: 1, pos: 0, xml: format!("<n i=\"{i}\"/>") };
        apply_to_shadow(&mut shadow, &op);
        doc.apply(&op).expect("insert at front");
        assert_eq!(doc.store().len(), shadow.reachable_len(), "step {i}");
    }
    assert_eq!(doc.overlay_rows(), 200, "100 inserts of two rows each");
    assert_oracle(&doc, &shadow, "front-insert storm");
}
