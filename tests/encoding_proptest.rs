//! Property tests for the pre/size/level encoding and serialization:
//! structural invariants (paper §2.1), a row-by-row check of every column
//! against the document tree, and full round trips
//! tree → XML text → parse → encode.
//!
//! The navigational evaluator reads the encoding too, so the row-by-row
//! check is what keeps that oracle tied to the tree rather than to the
//! encoder it is meant to check the engine against.

use jgi_xml::encode::{parse_decimal, NO_PARENT};
use jgi_xml::serialize::{serialize_subtree, tree_to_xml};
use jgi_xml::{parse, DocStore, NodeKind, Tree};
use proptest::prelude::*;

const TAGS: &[&str] = &["a", "bb", "c-c", "d.d", "e_e"];
const TEXTS: &[&str] = &["t", "1", "4.20", "a<b&c", "  ", "ünïcode"];

#[derive(Debug, Clone)]
enum GenNode {
    Elem(usize, Vec<(usize, usize)>, Vec<GenNode>),
    Text(usize),
    Comment,
}

fn gen_node() -> impl Strategy<Value = GenNode> {
    let leaf = prop_oneof![
        (0..TAGS.len()).prop_map(|t| GenNode::Elem(t, vec![], vec![])),
        (0..TEXTS.len()).prop_map(GenNode::Text),
        Just(GenNode::Comment),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        (
            0..TAGS.len(),
            proptest::collection::vec((0..TAGS.len(), 0..TEXTS.len()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(t, a, c)| GenNode::Elem(t, a, c))
    })
}

fn build(tree: &mut Tree, parent: jgi_xml::NodeId, n: &GenNode) {
    match n {
        GenNode::Elem(t, attrs, children) => {
            let e = tree.add_element(parent, TAGS[*t]);
            let mut seen = Vec::new();
            for (a, v) in attrs {
                if !seen.contains(a) {
                    seen.push(*a);
                    tree.add_attr(e, TAGS[*a], TEXTS[*v]);
                }
            }
            for c in children {
                build(tree, e, c);
            }
        }
        GenNode::Text(t) => {
            tree.add_text(parent, TEXTS[*t]);
        }
        GenNode::Comment => {
            tree.add_comment(parent, "note");
        }
    }
}

fn gen_tree() -> impl Strategy<Value = Tree> {
    gen_node().prop_map(|root| {
        let mut t = Tree::new("t.xml");
        // Ensure a single document element wrapping whatever we generated.
        let top = t.add_element(t.root(), "top");
        build(&mut t, top, &root);
        t
    })
}

/// The structural invariants every pre/size/level encoding must satisfy.
fn check_invariants(store: &DocStore) {
    let n = store.len() as u32;
    for pre in 0..n {
        let p = pre as usize;
        let size = store.size[p];
        // Subtree ranges stay in bounds and nest.
        assert!(pre + size < n + 1);
        for q in pre + 1..=pre + size {
            let qq = q as usize;
            assert!(store.level[qq] > store.level[p], "levels increase inside subtrees");
            // Parent pointers stay within the enclosing subtree.
            let par = store.parent[qq];
            assert!(par != NO_PARENT && par >= pre && par < q);
        }
        // The node after the subtree (if any) has level <= ours.
        if pre + size + 1 < n {
            let next = (pre + size + 1) as usize;
            assert!(store.level[next] <= store.level[p]);
        }
        // parent/level consistency.
        match store.parent[p] {
            NO_PARENT => assert_eq!(store.level[p], 0),
            par => {
                assert_eq!(store.level[par as usize] + 1, store.level[p]);
                // And we lie inside the parent's range.
                let ps = store.size[par as usize];
                assert!(par < pre && pre <= par + ps);
            }
        }
        // value column extent: exactly the size <= 1 rows (for value-bearing
        // kinds).
        if size <= 1 && matches!(store.kind[p], NodeKind::Elem | NodeKind::Text | NodeKind::Attr)
        {
            assert!(store.value_str(pre).is_some());
        }
        if size > 1 {
            assert!(store.value_str(pre).is_none());
        }
    }
}

/// Every row of `store` (which holds `tree` alone) against the tree node
/// of the same document-order rank: `kind`, `name`, the parent's rank,
/// `size`, the string value exactly for subtrees of size ≤ 1, and `data`
/// as that value's decimal cast.
fn check_rows_against_tree(store: &DocStore, tree: &Tree) {
    let order = tree.preorder();
    assert_eq!(store.len(), order.len());
    let mut rank = vec![NO_PARENT; tree.len()];
    for (r, id) in order.iter().enumerate() {
        rank[id.0 as usize] = r as u32;
    }
    for (r, &id) in order.iter().enumerate() {
        let pre = r as u32;
        let node = tree.node(id);
        assert_eq!(store.kind[r], node.kind, "kind of pre {pre}");
        assert_eq!(store.name_str(pre), tree.name(id), "name of pre {pre}");
        let parent = node.parent.map_or(NO_PARENT, |p| rank[p.0 as usize]);
        assert_eq!(store.parent[r], parent, "parent of pre {pre}");
        let size = tree.subtree_size(id);
        assert_eq!(store.size[r], size, "size of pre {pre}");
        let value = (size <= 1).then(|| tree.string_value(id));
        assert_eq!(store.value_str(pre), value.as_deref(), "value of pre {pre}");
        let data = value.as_deref().and_then(parse_decimal);
        assert_eq!(store.data_val(pre), data, "data of pre {pre}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Invariants hold on random trees, and every row matches the tree.
    #[test]
    fn encoding_invariants(tree in gen_tree()) {
        let mut store = DocStore::new();
        store.add_tree(&tree);
        prop_assert_eq!(store.len(), tree.len());
        check_invariants(&store);
        check_rows_against_tree(&store, &tree);
    }

    /// tree → text → parse → tree' → text' is a fixpoint, and both trees
    /// encode identically.
    #[test]
    fn serialize_parse_round_trip(tree in gen_tree()) {
        let text = tree_to_xml(&tree);
        let reparsed = parse("t.xml", &text).expect("serializer output parses");
        // Whitespace-only text nodes are dropped by the parser (benchmark
        // convention), so the serialize∘parse fixpoint is reached after at
        // most one round; with no such nodes it is immediate.
        let text2 = tree_to_xml(&reparsed);
        let reparsed2 = parse("t.xml", &text2).expect("round 2 parses");
        prop_assert_eq!(tree_to_xml(&reparsed2), text2);
        let has_ws_text = tree.ids().any(|id| {
            tree.node(id).kind == NodeKind::Text
                && tree.node(id).text.as_deref().map(|t| t.trim().is_empty()).unwrap_or(false)
        });
        // Adjacent text siblings merge on reparse (the XML data model has
        // no adjacent text nodes), so node-exact comparison needs neither.
        let has_adjacent_text = tree.ids().any(|id| {
            tree.content_children(id)
                .windows(2)
                .any(|w| tree.node(w[0]).kind == NodeKind::Text
                    && tree.node(w[1]).kind == NodeKind::Text)
        });
        if !has_ws_text && !has_adjacent_text {
            prop_assert_eq!(tree_to_xml(&reparsed), text.clone());
            let mut s1 = DocStore::new();
            s1.add_tree(&tree);
            let mut s2 = DocStore::new();
            s2.add_tree(&reparsed);
            prop_assert_eq!(s1.len(), s2.len());
            for pre in 0..s1.len() as u32 {
                let p = pre as usize;
                prop_assert_eq!(s1.size[p], s2.size[p]);
                prop_assert_eq!(s1.level[p], s2.level[p]);
                prop_assert_eq!(s1.kind[p], s2.kind[p]);
                prop_assert_eq!(s1.name_str(pre), s2.name_str(pre));
                prop_assert_eq!(s1.value_str(pre), s2.value_str(pre));
            }
        }
    }

    /// Store-based and tree-based serialization agree on every subtree.
    #[test]
    fn store_serializer_agrees_with_tree_serializer(tree in gen_tree()) {
        let mut store = DocStore::new();
        store.add_tree(&tree);
        let mut out = String::new();
        serialize_subtree(&store, 0, &mut out);
        prop_assert_eq!(out, tree_to_xml(&tree));
    }

    /// Generated XMark documents satisfy the invariants too, and their
    /// rows (whose node ids are not in document order) match the tree.
    #[test]
    fn xmark_invariants(seed in 0u64..1000) {
        let tree = jgi_xml::generate::generate_xmark(jgi_xml::generate::XmarkConfig {
            scale: 0.001,
            seed,
        });
        let mut store = DocStore::new();
        store.add_tree(&tree);
        check_invariants(&store);
        check_rows_against_tree(&store, &tree);
    }
}

/// Shapes the random trees do not produce: processing instructions, a
/// size-1 element whose one child is an attribute, a comment or a PI, and
/// a DBLP document.
#[test]
fn rows_match_tree_on_edge_shapes() {
    let mut t = Tree::new("edge.xml");
    let top = t.add_element(t.root(), "top");
    let a = t.add_element(top, "a");
    t.add_attr(a, "x", "7");
    let c = t.add_element(top, "c");
    t.add_comment(c, "12");
    let p = t.add_element(top, "p");
    t.add_pi(p, "target", "3.5");
    let e = t.add_element(top, "e");
    t.add_element(e, "empty");
    t.add_text_element(top, "n", " -4.25 ");
    t.add_pi(top, "lone", "");
    let mut store = DocStore::new();
    store.add_tree(&t);
    check_invariants(&store);
    check_rows_against_tree(&store, &t);

    let dblp = jgi_xml::generate::generate_dblp(jgi_xml::generate::DblpConfig {
        publications: 200,
        seed: 4,
    });
    let mut store = DocStore::new();
    store.add_tree(&dblp);
    check_rows_against_tree(&store, &dblp);
}
