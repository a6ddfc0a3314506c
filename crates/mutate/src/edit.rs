//! In-place edits of one document's `pre/size/level` columns.
//!
//! `pre` is the row index, so an edit is a splice: an insert moves every
//! following row down by the fragment's row count, a delete moves them up.
//! Two columns point at rows and are repaired on the way — `parent` of
//! every following row whose parent follows the edit, and `size` of every
//! ancestor. `level` needs no repair outside the fragment: an edit moves
//! no surviving node to another depth. Ancestors whose `size` crosses the
//! `<= 1` boundary get `value`/`data` recomputed, the encoder's rule for
//! which rows carry a string value (DESIGN.md §11).

use crate::{MutateError, Op};
use jgi_xml::encode::{parse_decimal, NO_NAME, NO_PARENT, NO_VALUE};
use jgi_xml::{DocStore, Interner, NodeKind, MAX_DEPTH};
use std::sync::Arc;

/// A single document under mutation: one dense, copy-on-write
/// [`DocStore`]. The first edit after the store was shared (published)
/// copies it via [`Arc::make_mut`], so a published snapshot is never
/// written. (The name predates the in-place design.)
#[derive(Debug, Clone)]
pub struct OverlayDoc {
    /// The current columns — exactly one document, root at `pre` 0.
    store: Arc<DocStore>,
    /// Rows inserted plus rows removed since [`OverlayDoc::new`].
    rows_changed: u32,
}

impl OverlayDoc {
    /// Wrap a single-document store (document root at `pre` 0).
    pub fn new(store: Arc<DocStore>) -> OverlayDoc {
        assert_eq!(store.doc_roots, vec![0], "OverlayDoc wraps exactly one document");
        OverlayDoc { store, rows_changed: 0 }
    }

    /// The current columns. Cloning the `Arc` is how they are published.
    pub fn store(&self) -> &Arc<DocStore> {
        &self.store
    }

    /// Rows inserted plus rows removed since [`OverlayDoc::new`].
    pub fn overlay_rows(&self) -> u32 {
        self.rows_changed
    }

    /// Apply one operation. On success returns the signed row-count delta;
    /// on failure the document is untouched (and not copied).
    pub fn apply(&mut self, op: &Op) -> Result<i64, MutateError> {
        let (removed, added) = match op {
            Op::Insert { parent, pos, xml } => {
                let frag = encode_fragment(xml)?;
                let p = self.row(*parent)?;
                let kind = self.store.kind[p];
                if kind != NodeKind::Elem {
                    return Err(MutateError::BadTarget(format!(
                        "insert parent at pre {parent} is {}, not an element",
                        kind.tag()
                    )));
                }
                self.check_depth(p, &frag)?;
                let slot = self.content_slot(p, *pos);
                (0, splice_in(Arc::make_mut(&mut self.store), p, slot, &frag))
            }
            Op::Delete { pre } => {
                let p = self.row(*pre)?;
                if self.store.kind[p] == NodeKind::Doc {
                    return Err(bad_target("cannot delete a document root"));
                }
                (cut(Arc::make_mut(&mut self.store), p), 0)
            }
            Op::Replace { pre, xml } => {
                let frag = encode_fragment(xml)?;
                let p = self.row(*pre)?;
                match self.store.kind[p] {
                    NodeKind::Doc => return Err(bad_target("cannot replace a document root")),
                    NodeKind::Attr => {
                        return Err(bad_target("cannot replace an attribute with an element"))
                    }
                    _ => {}
                }
                let parent = self.store.parent[p] as usize;
                self.check_depth(parent, &frag)?;
                // Once the old subtree is cut, the rows that followed it
                // start at `p`: the replacement goes exactly there.
                let s = Arc::make_mut(&mut self.store);
                let removed = cut(s, p);
                (removed, splice_in(s, parent, p, &frag))
            }
        };
        self.rows_changed = self.rows_changed.saturating_add(removed + added);
        Ok(i64::from(added) - i64::from(removed))
    }

    /// `pre` as a row index, if the row exists.
    fn row(&self, pre: u32) -> Result<usize, MutateError> {
        let p = pre as usize;
        if p < self.store.len() {
            Ok(p)
        } else {
            Err(MutateError::BadTarget(format!("no node at pre {pre}")))
        }
    }

    /// Refuse a fragment whose elements would nest deeper under `parent`
    /// than the parser admits in a document.
    fn check_depth(&self, parent: usize, frag: &DocStore) -> Result<(), MutateError> {
        let deepest = (0..frag.len())
            .filter(|&r| frag.kind[r] == NodeKind::Elem)
            .map(|r| usize::from(frag.level[r]))
            .max()
            .unwrap_or(0);
        if usize::from(self.store.level[parent]) + deepest > MAX_DEPTH {
            return Err(MutateError::BadFragment(format!(
                "the fragment would nest elements deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// The row a new `pos`-th content child of element `p` takes: that of
    /// the current `pos`-th content child, or the end of `p`'s subtree when
    /// there is none (`pos` clamps; attributes stay before position 0).
    fn content_slot(&self, p: usize, pos: u32) -> usize {
        let s = &*self.store;
        let end = p + s.size[p] as usize;
        let mut q = p + 1;
        let mut seen = 0;
        while q <= end {
            if s.kind[q] != NodeKind::Attr {
                if seen == pos {
                    return q;
                }
                seen += 1;
            }
            q += s.size[q] as usize + 1;
        }
        end + 1
    }
}

fn bad_target(msg: &str) -> MutateError {
    MutateError::BadTarget(msg.to_string())
}

/// Encode a fragment with the loader's own encoder: row 0 is the
/// fragment's document row, rows `1..` its one element subtree.
fn encode_fragment(xml: &str) -> Result<DocStore, MutateError> {
    let (tree, _) = crate::parse_fragment(xml)?;
    let mut frag = DocStore::new();
    frag.add_tree(&tree);
    Ok(frag)
}

/// Splice `frag`'s element subtree in at row `slot` as a child of row
/// `parent`, and return its row count.
fn splice_in(s: &mut DocStore, parent: usize, slot: usize, frag: &DocStore) -> u32 {
    let k = frag.len() as u32 - 1;
    // Only row 0 has no parent, and it precedes every slot.
    for p in &mut s.parent[slot..] {
        if *p as usize >= slot {
            *p += k;
        }
    }
    let at = slot..slot;
    let base_level = s.level[parent];
    let names = reintern(&mut s.names, &frag.names, &frag.name[1..], NO_NAME);
    let values = reintern(&mut s.values, &frag.values, &frag.value[1..], NO_VALUE);
    s.size.splice(at.clone(), frag.size[1..].iter().copied());
    s.level.splice(at.clone(), frag.level[1..].iter().map(|l| l + base_level));
    s.kind.splice(at.clone(), frag.kind[1..].iter().copied());
    s.name.splice(at.clone(), names);
    s.value.splice(at.clone(), values);
    s.data.splice(at.clone(), frag.data[1..].iter().copied());
    // Fragment row r lands at slot + r - 1; its root's parent (row 0) is
    // `parent`.
    let to_row = |p: u32| if p == 0 { parent as u32 } else { slot as u32 + p - 1 };
    s.parent.splice(at, frag.parent[1..].iter().map(|&p| to_row(p)));
    resize_ancestors(s, parent, i64::from(k));
    k
}

/// Remove the subtree at row `p`, and return its row count.
fn cut(s: &mut DocStore, p: usize) -> u32 {
    let k = s.size[p] + 1;
    let end = p + k as usize;
    let parent = s.parent[p] as usize;
    for q in &mut s.parent[end..] {
        if *q as usize >= end {
            *q -= k;
        }
    }
    s.size.drain(p..end);
    s.level.drain(p..end);
    s.kind.drain(p..end);
    s.name.drain(p..end);
    s.value.drain(p..end);
    s.data.drain(p..end);
    s.parent.drain(p..end);
    resize_ancestors(s, parent, -i64::from(k));
    k
}

/// Ids from `from` re-interned into `into`; `none` stays `none`.
fn reintern(into: &mut Interner, from: &Interner, ids: &[u32], none: u32) -> Vec<u32> {
    ids.iter().map(|&id| if id == none { none } else { into.intern(from.resolve(id)) }).collect()
}

/// Add `delta` to the size of row `a` and of every ancestor above it.
fn resize_ancestors(s: &mut DocStore, mut a: usize, delta: i64) {
    loop {
        let old = s.size[a];
        let new = (i64::from(old) + delta) as u32;
        s.size[a] = new;
        if old <= 1 || new <= 1 {
            refresh_value(s, a);
        }
        match s.parent[a] {
            NO_PARENT => return,
            up => a = up as usize,
        }
    }
}

/// Recompute `value`/`data` of element or document row `a` the way the
/// encoder sets them: the concatenated text descendants for `size <= 1`,
/// nothing above.
fn refresh_value(s: &mut DocStore, a: usize) {
    let size = s.size[a] as usize;
    if size > 1 {
        s.value[a] = NO_VALUE;
        s.data[a] = f64::NAN;
        return;
    }
    let text: String = (a + 1..=a + size)
        .filter(|&q| s.kind[q] == NodeKind::Text)
        .map(|q| s.values.resolve(s.value[q]))
        .collect();
    s.data[a] = parse_decimal(&text).unwrap_or(f64::NAN);
    s.value[a] = s.values.intern(&text);
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_xml::Tree;

    fn fig2_tree() -> Tree {
        let mut t = Tree::new("auction.xml");
        let oa = t.add_element(t.root(), "open_auction");
        t.add_attr(oa, "id", "1");
        t.add_text_element(oa, "initial", "15");
        let bidder = t.add_element(oa, "bidder");
        t.add_text_element(bidder, "time", "18:43");
        t.add_text_element(bidder, "increase", "4.20");
        t
    }

    fn fig2_store() -> Arc<DocStore> {
        let mut s = DocStore::new();
        s.add_tree(&fig2_tree());
        Arc::new(s)
    }

    /// One node's encoded row: (size, level, kind tag, name, value, data).
    type Row = (u32, u16, &'static str, Option<String>, Option<String>, Option<f64>);

    fn rows(s: &DocStore) -> Vec<Row> {
        (0..s.len() as u32)
            .map(|p| {
                (
                    s.size[p as usize],
                    s.level[p as usize],
                    s.kind[p as usize].tag(),
                    s.name_str(p).map(str::to_string),
                    s.value_str(p).map(str::to_string),
                    s.data_val(p),
                )
            })
            .collect()
    }

    /// Re-encode oracle: the edited columns equal a fresh encoding of the
    /// equivalently-edited tree.
    fn assert_matches_reencode(doc: &OverlayDoc, tree: &Tree) {
        let mut expect = DocStore::new();
        expect.add_tree(tree);
        assert_eq!(rows(doc.store()), rows(&expect));
        assert_eq!(doc.store().parent, expect.parent);
    }

    /// Fig. 2 with `edit` applied to its `<open_auction>` element.
    fn fig2_with(edit: impl FnOnce(&mut Tree, jgi_xml::NodeId)) -> Tree {
        let mut t = fig2_tree();
        let oa = t.content_children(t.root())[0];
        edit(&mut t, oa);
        t
    }

    #[test]
    fn insert_between_siblings() {
        let mut doc = OverlayDoc::new(fig2_store());
        // <open_auction> is pre 1; insert between <initial> and <bidder>.
        let d = doc
            .apply(&Op::Insert { parent: 1, pos: 1, xml: "<extra>9</extra>".into() })
            .unwrap();
        assert_eq!(d, 2);
        assert_eq!(doc.overlay_rows(), 2);
        let mut extra = Tree::new("f");
        extra.add_text_element(extra.root(), "extra", "9");
        let frag_root = extra.content_children(extra.root())[0];
        assert_matches_reencode(&doc, &fig2_with(|t, oa| {
            t.graft(oa, 1, &extra, frag_root);
        }));
    }

    #[test]
    fn delete_removes_subtree_and_fixes_sizes() {
        let mut doc = OverlayDoc::new(fig2_store());
        // Delete <bidder> (pre 5, subtree of 5 rows).
        assert_eq!(doc.apply(&Op::Delete { pre: 5 }).unwrap(), -5);
        assert_eq!(doc.overlay_rows(), 5);
        assert_matches_reencode(&doc, &fig2_with(|t, oa| t.detach(t.content_children(oa)[1])));
        // The deleted ranks are gone.
        assert_eq!(doc.store().len(), 5);
    }

    #[test]
    fn replace_keeps_position() {
        let mut doc = OverlayDoc::new(fig2_store());
        // Replace <initial> (pre 3) in place.
        let d = doc.apply(&Op::Replace { pre: 3, xml: "<revised>99</revised>".into() }).unwrap();
        assert_eq!(d, 0);
        assert_eq!(doc.overlay_rows(), 4, "two rows out, two in");
        let (frag, root) = crate::parse_fragment("<revised>99</revised>").unwrap();
        assert_matches_reencode(&doc, &fig2_with(|t, oa| {
            t.replace_subtree(t.content_children(oa)[0], &frag, root);
        }));
    }

    #[test]
    fn insert_under_an_inserted_node() {
        let mut doc = OverlayDoc::new(fig2_store());
        doc.apply(&Op::Insert { parent: 1, pos: 0, xml: "<wrap/>".into() }).unwrap();
        // The new <wrap/> lands right after the id attribute, at pre 3.
        assert_eq!(doc.store().name_str(3), Some("wrap"));
        doc.apply(&Op::Insert { parent: 3, pos: 0, xml: "<inner>x</inner>".into() }).unwrap();
        let mut shadow = Tree::new("auction.xml");
        let oa = shadow.add_element(shadow.root(), "open_auction");
        shadow.add_attr(oa, "id", "1");
        let wrap = shadow.add_element(oa, "wrap");
        shadow.add_text_element(wrap, "inner", "x");
        shadow.add_text_element(oa, "initial", "15");
        let bidder = shadow.add_element(oa, "bidder");
        shadow.add_text_element(bidder, "time", "18:43");
        shadow.add_text_element(bidder, "increase", "4.20");
        assert_matches_reencode(&doc, &shadow);
    }

    #[test]
    fn value_column_follows_size_across_the_leaf_boundary() {
        let mut doc = OverlayDoc::new(fig2_store());
        // <initial> has size 1 and value "15"; growing it past size 1 must
        // clear the value, deleting back down must restore one.
        doc.apply(&Op::Insert { parent: 3, pos: 1, xml: "<pad/>".into() }).unwrap();
        let mut shadow = Tree::new("auction.xml");
        let oa = shadow.add_element(shadow.root(), "open_auction");
        shadow.add_attr(oa, "id", "1");
        let initial = shadow.add_text_element(oa, "initial", "15");
        shadow.add_element(initial, "pad");
        let bidder = shadow.add_element(oa, "bidder");
        shadow.add_text_element(bidder, "time", "18:43");
        shadow.add_text_element(bidder, "increase", "4.20");
        assert_matches_reencode(&doc, &shadow);
        // Now delete the text child "15" (pre 4): initial holds only <pad/>.
        doc.apply(&Op::Delete { pre: 4 }).unwrap();
        let t = shadow.content_children(initial)[0];
        shadow.detach(t);
        assert_matches_reencode(&doc, &shadow);
    }

    #[test]
    fn rejections_leave_state_untouched() {
        let store = fig2_store();
        let mut doc = OverlayDoc::new(Arc::clone(&store));
        let rejected = [
            (Op::Delete { pre: 0 }, "mutate_target"),
            (Op::Delete { pre: 999 }, "mutate_target"),
            // Attribute parent, then attribute target.
            (Op::Insert { parent: 2, pos: 0, xml: "<x/>".into() }, "mutate_target"),
            (Op::Replace { pre: 2, xml: "<x/>".into() }, "mutate_target"),
            (Op::Insert { parent: 1, pos: 0, xml: "<a><b></a>".into() }, "mutate_fragment"),
            (Op::Insert { parent: 1, pos: 0, xml: "no element".into() }, "mutate_fragment"),
        ];
        for (op, code) in &rejected {
            assert_eq!(doc.apply(op).map_err(|e| e.code()), Err(*code), "{op:?}");
        }
        // Not even copied: the document still shares the caller's store.
        assert!(Arc::ptr_eq(doc.store(), &store));
        assert_eq!(doc.overlay_rows(), 0);
    }

    #[test]
    fn fragments_may_not_nest_past_the_parser_limit() {
        let mut doc = OverlayDoc::new(fig2_store());
        let nest = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        // <bidder> (pre 5) is level 2: a fragment adds its own depth to that.
        let fits = Op::Insert { parent: 5, pos: 0, xml: nest(MAX_DEPTH - 2) };
        let too_deep = Op::Insert { parent: 5, pos: 0, xml: nest(MAX_DEPTH - 1) };
        assert_eq!(doc.apply(&too_deep).map_err(|e| e.code()), Err("mutate_fragment"));
        assert_eq!(doc.apply(&fits), Ok(MAX_DEPTH as i64 - 2));
        let replace = Op::Replace { pre: 3, xml: nest(MAX_DEPTH) };
        assert_eq!(doc.apply(&replace).map_err(|e| e.code()), Err("mutate_fragment"));
    }

    #[test]
    fn append_at_document_end() {
        let mut doc = OverlayDoc::new(fig2_store());
        // Append as last child of <open_auction>: lands after <bidder>.
        doc.apply(&Op::Insert { parent: 1, pos: 99, xml: "<tail/>".into() }).unwrap();
        assert_matches_reencode(&doc, &fig2_with(|t, oa| {
            t.add_element(oa, "tail");
        }));
    }
}
