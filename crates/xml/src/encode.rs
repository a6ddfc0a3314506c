//! The tabular XML infoset encoding (paper §2.1, Fig. 2).
//!
//! A [`DocStore`] is the relational `doc` table: one row per XML node across
//! *all* loaded documents, columnar, in document (`pre`) order. The columns:
//!
//! | column | meaning |
//! |---|---|
//! | `pre`   | document-order rank = row index (key) |
//! | `size`  | number of nodes in the subtree below the node |
//! | `level` | distance from the node's document root |
//! | `kind`  | `DOC`/`ELEM`/`ATTR`/`TEXT`/`COMM`/`PI` |
//! | `name`  | interned tag/attribute/PI name; the document URI for `DOC` rows |
//! | `value` | untyped string value — only for nodes with `size <= 1` |
//! | `data`  | the value cast to `xs:decimal`, if the cast succeeds |
//!
//! Multiple trees may be appended; their rows are distinguishable by the
//! `DOC` rows (paper: "multiple occurrences of value DOC in column kind
//! indicate that table doc hosts several trees").

use crate::interner::Interner;
use crate::tree::{NodeKind, Tree};

/// Interned name id within a [`DocStore`]. `NO_NAME` marks absence.
pub type NameId = u32;
/// Interned string-value id within a [`DocStore`]. `NO_VALUE` marks absence.
pub type ValId = u32;

/// Sentinel for "no name" (text/comment rows).
pub const NO_NAME: NameId = u32::MAX;
/// Sentinel for "no string value" (nodes with `size > 1`).
pub const NO_VALUE: ValId = u32::MAX;
/// Sentinel for "no parent" (document root rows).
pub const NO_PARENT: u32 = u32::MAX;

/// The columnar `doc` table.
#[derive(Debug, Default, Clone)]
pub struct DocStore {
    /// `size` column: subtree node count below each node.
    pub size: Vec<u32>,
    /// `level` column: path length to the owning document root.
    pub level: Vec<u16>,
    /// `kind` column.
    pub kind: Vec<NodeKind>,
    /// `name` column (interned; `NO_NAME` if absent).
    pub name: Vec<NameId>,
    /// `value` column (interned; `NO_VALUE` if absent).
    pub value: Vec<ValId>,
    /// `data` column: `value` cast to decimal; `NaN` if absent/uncastable.
    pub data: Vec<f64>,
    /// `parent` column: `pre` rank of the parent node (`NO_PARENT` for
    /// document roots). Not part of the paper's Fig. 2 but present in many
    /// variants of the encoding; we use it solely to express the two sibling
    /// axes as conjunctive equality predicates (see `jgi-algebra::pred`).
    pub parent: Vec<u32>,
    /// Name interner shared by `name`.
    pub names: Interner,
    /// Value interner shared by `value`.
    pub values: Interner,
    /// `pre` ranks of the `DOC` rows, in insertion order.
    pub doc_roots: Vec<u32>,
}

impl DocStore {
    /// Empty store.
    pub fn new() -> Self {
        DocStore::default()
    }

    /// Number of rows (nodes) in the table.
    pub fn len(&self) -> usize {
        self.size.len()
    }

    /// True if no document has been loaded.
    pub fn is_empty(&self) -> bool {
        self.size.is_empty()
    }

    /// Append the encoding of `tree`, returning the `pre` rank of its
    /// document root. Runs in a single pass over the tree.
    pub fn add_tree(&mut self, tree: &Tree) -> u32 {
        let base = self.len() as u32;
        let n = tree.len();
        self.size.reserve(n);
        self.level.reserve(n);
        self.kind.reserve(n);
        self.name.reserve(n);
        self.value.reserve(n);
        self.data.reserve(n);
        self.parent.reserve(n);

        // Emit rows in document (pre-)order; sizes come from a single
        // bottom-up pass, levels and parent `pre` ranks from the DFS itself.
        let sizes = tree.compute_sizes();
        let mut stack: Vec<(crate::tree::NodeId, u16, u32)> =
            vec![(tree.root(), 0, NO_PARENT)];
        while let Some((id, level, parent_pre)) = stack.pop() {
            let pre = self.len() as u32;
            for &c in tree.all_children(id).iter().rev() {
                stack.push((c, level + 1, pre));
            }
            let node = tree.node(id);
            let size = sizes[id.0 as usize];
            let name = match node.name {
                Some(nm) => self.names.intern(tree.names.resolve(nm)),
                None => NO_NAME,
            };
            let (value, data) = if size <= 1 {
                // The string value of a subtree this small is a leaf's own
                // text, or an element's single text child's; borrow it.
                let sv = match node.kind {
                    NodeKind::Elem | NodeKind::Doc => match tree.all_children(id) {
                        &[c] if tree.node(c).kind == NodeKind::Text => tree.node(c).text.as_deref(),
                        _ => None,
                    },
                    _ => node.text.as_deref(),
                }
                .unwrap_or("");
                (self.values.intern(sv), parse_decimal(sv).unwrap_or(f64::NAN))
            } else {
                (NO_VALUE, f64::NAN)
            };
            self.size.push(size);
            self.level.push(level);
            self.kind.push(node.kind);
            self.name.push(name);
            self.value.push(value);
            self.data.push(data);
            self.parent.push(parent_pre);
        }
        self.doc_roots.push(base);
        base
    }

    /// Heap bytes held by the columns and both interners.
    pub fn heap_bytes(&self) -> usize {
        self.size.capacity() * size_of::<u32>()
            + self.level.capacity() * size_of::<u16>()
            + self.kind.capacity() * size_of::<NodeKind>()
            + self.name.capacity() * size_of::<NameId>()
            + self.value.capacity() * size_of::<ValId>()
            + self.data.capacity() * size_of::<f64>()
            + self.parent.capacity() * size_of::<u32>()
            + self.doc_roots.capacity() * size_of::<u32>()
            + self.names.heap_bytes()
            + self.values.heap_bytes()
    }

    /// `pre` rank of the document root whose URI is `uri`, if loaded.
    pub fn find_doc(&self, uri: &str) -> Option<u32> {
        let want = self.names.get(uri)?;
        self.doc_roots.iter().copied().find(|&pre| self.name[pre as usize] == want)
    }

    /// Resolved name of row `pre`, if any.
    pub fn name_str(&self, pre: u32) -> Option<&str> {
        let id = self.name[pre as usize];
        (id != NO_NAME).then(|| self.names.resolve(id))
    }

    /// Resolved string value of row `pre`, if present (`size <= 1`).
    pub fn value_str(&self, pre: u32) -> Option<&str> {
        let id = self.value[pre as usize];
        (id != NO_VALUE).then(|| self.values.resolve(id))
    }

    /// Typed decimal value of row `pre`, if the cast succeeded.
    pub fn data_val(&self, pre: u32) -> Option<f64> {
        let d = self.data[pre as usize];
        (!d.is_nan()).then_some(d)
    }

    /// The document root `pre` owning row `pre` (largest `DOC` row <= `pre`).
    pub fn owner_doc(&self, pre: u32) -> u32 {
        match self.doc_roots.binary_search(&pre) {
            Ok(i) => self.doc_roots[i],
            Err(i) => self.doc_roots[i - 1],
        }
    }

    /// Rebuild the in-memory [`Tree`] of the document rooted at `doc_root`
    /// (a `DOC` row). Inverse of [`DocStore::add_tree`] up to interner ids:
    /// re-encoding the returned tree reproduces the same rows. The serving
    /// layer uses it to concatenate separately-stored (and possibly
    /// mutated) documents into one combined store, where there is no parsed
    /// tree to go back to.
    pub fn extract_tree(&self, doc_root: u32) -> Tree {
        let d = doc_root as usize;
        assert_eq!(self.kind[d], NodeKind::Doc, "extract_tree starts at a DOC row");
        let mut tree = Tree::new(self.names.resolve(self.name[d]));
        let size = self.size[d];
        // Map each row's pre rank (relative to doc_root) to its tree node.
        let mut ids = vec![tree.root(); size as usize + 1];
        for pre in doc_root + 1..=doc_root + size {
            let i = pre as usize;
            let parent = ids[(self.parent[i] - doc_root) as usize];
            let id = match self.kind[i] {
                NodeKind::Elem => tree.add_element(parent, self.names.resolve(self.name[i])),
                NodeKind::Attr => tree.add_attr(
                    parent,
                    self.names.resolve(self.name[i]),
                    self.value_str(pre).unwrap_or(""),
                ),
                NodeKind::Text => tree.add_text(parent, self.value_str(pre).unwrap_or("")),
                NodeKind::Comment => tree.add_comment(parent, self.value_str(pre).unwrap_or("")),
                NodeKind::Pi => tree.add_pi(
                    parent,
                    self.names.resolve(self.name[i]),
                    self.value_str(pre).unwrap_or(""),
                ),
                NodeKind::Doc => unreachable!("nested DOC row at pre {pre}"),
            };
            ids[(pre - doc_root) as usize] = id;
        }
        tree
    }

    /// Render rows `[from, to)` as an aligned text table (Fig. 2 style), for
    /// examples and debugging.
    pub fn render(&self, from: u32, to: u32) -> String {
        let mut out = String::new();
        out.push_str("pre  size level kind name            value           data\n");
        for pre in from..to.min(self.len() as u32) {
            let p = pre as usize;
            let name = self.name_str(pre).unwrap_or("");
            let value = self.value_str(pre).unwrap_or("");
            let data = self
                .data_val(pre)
                .map(|d| format!("{d}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "{:<4} {:<4} {:<5} {:<4} {:<15} {:<15} {}\n",
                pre,
                self.size[p],
                self.level[p],
                self.kind[p].tag(),
                truncate(name, 15),
                truncate(value, 15),
                data
            ));
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let mut t: String = s.chars().take(n - 1).collect();
        t.push('\u{2026}');
        t
    }
}

/// Cast an untyped string value to `xs:decimal` (here: `f64`), per the
/// XQuery cast rules restricted to plain decimal literals: optional sign,
/// digits, optional fraction. Scientific notation is *not* a valid decimal.
pub fn parse_decimal(s: &str) -> Option<f64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    let body = t.strip_prefix(['+', '-']).unwrap_or(t);
    if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit() || b == b'.') {
        return None;
    }
    if body.bytes().filter(|&b| b == b'.').count() > 1 || body == "." {
        return None;
    }
    t.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;

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

    /// Reproduces the exact table of paper Fig. 2.
    #[test]
    fn fig2_encoding() {
        let mut store = DocStore::new();
        store.add_tree(&fig2_tree());
        assert_eq!(store.len(), 10);
        type Row<'a> =
            (u32, u32, u16, &'a str, Option<&'a str>, Option<&'a str>, Option<f64>);
        let expect: Vec<Row> = vec![
            (0, 9, 0, "DOC", Some("auction.xml"), None, None),
            (1, 8, 1, "ELEM", Some("open_auction"), None, None),
            (2, 0, 2, "ATTR", Some("id"), Some("1"), Some(1.0)),
            (3, 1, 2, "ELEM", Some("initial"), Some("15"), Some(15.0)),
            (4, 0, 3, "TEXT", None, Some("15"), Some(15.0)),
            (5, 4, 2, "ELEM", Some("bidder"), None, None),
            (6, 1, 3, "ELEM", Some("time"), Some("18:43"), None),
            (7, 0, 4, "TEXT", None, Some("18:43"), None),
            (8, 1, 3, "ELEM", Some("increase"), Some("4.20"), Some(4.2)),
            (9, 0, 4, "TEXT", None, Some("4.20"), Some(4.2)),
        ];
        for (pre, size, level, kind, name, value, data) in expect {
            let p = pre as usize;
            assert_eq!(store.size[p], size, "size of pre {pre}");
            assert_eq!(store.level[p], level, "level of pre {pre}");
            assert_eq!(store.kind[p].tag(), kind, "kind of pre {pre}");
            assert_eq!(store.name_str(pre), name, "name of pre {pre}");
            assert_eq!(store.value_str(pre), value, "value of pre {pre}");
            assert_eq!(store.data_val(pre), data, "data of pre {pre}");
        }
    }

    #[test]
    fn parent_column() {
        let mut store = DocStore::new();
        store.add_tree(&fig2_tree());
        assert_eq!(store.parent, vec![NO_PARENT, 0, 1, 1, 3, 1, 5, 6, 5, 8]);
    }

    #[test]
    fn multiple_documents() {
        let mut store = DocStore::new();
        let a = store.add_tree(&Tree::new("a.xml"));
        let mut t2 = Tree::new("b.xml");
        t2.add_element(t2.root(), "x");
        let b = store.add_tree(&t2);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(store.find_doc("a.xml"), Some(0));
        assert_eq!(store.find_doc("b.xml"), Some(1));
        assert_eq!(store.find_doc("c.xml"), None);
        assert_eq!(store.owner_doc(2), 1);
        assert_eq!(store.owner_doc(0), 0);
    }

    #[test]
    fn decimal_casts() {
        assert_eq!(parse_decimal("15"), Some(15.0));
        assert_eq!(parse_decimal(" 4.20 "), Some(4.2));
        assert_eq!(parse_decimal("-3.5"), Some(-3.5));
        assert_eq!(parse_decimal("+7"), Some(7.0));
        assert_eq!(parse_decimal("18:43"), None);
        assert_eq!(parse_decimal(""), None);
        assert_eq!(parse_decimal("1e3"), None); // not a decimal literal
        assert_eq!(parse_decimal("1.2.3"), None);
        assert_eq!(parse_decimal("."), None);
        assert_eq!(parse_decimal("-"), None);
    }

    #[test]
    fn render_is_stable() {
        let mut store = DocStore::new();
        store.add_tree(&fig2_tree());
        let text = store.render(0, 10);
        assert!(text.contains("open_auction"));
        assert!(text.lines().count() == 11);
    }

    /// `extract_tree` inverts `add_tree`: re-encoding the extracted tree
    /// reproduces every column byte-for-byte.
    #[test]
    fn extract_tree_roundtrips() {
        let mut store = DocStore::new();
        let mut t2 = fig2_tree();
        let oa = t2.content_children(t2.root())[0];
        t2.add_comment(oa, " note ");
        t2.add_pi(oa, "target", "data");
        store.add_tree(&t2);
        let rebuilt = store.extract_tree(0);
        let mut store2 = DocStore::new();
        store2.add_tree(&rebuilt);
        assert_eq!(store.size, store2.size);
        assert_eq!(store.level, store2.level);
        assert_eq!(store.kind, store2.kind);
        assert_eq!(store.parent, store2.parent);
        for pre in 0..store.len() as u32 {
            assert_eq!(store.name_str(pre), store2.name_str(pre), "name of pre {pre}");
            assert_eq!(store.value_str(pre), store2.value_str(pre), "value of pre {pre}");
        }
    }

    /// Invariants of the pre/size/level encoding, checked on the Fig. 2 doc:
    /// subtree ranges nest properly and levels change by at most one step.
    #[test]
    fn structural_invariants() {
        let mut store = DocStore::new();
        store.add_tree(&fig2_tree());
        let n = store.len() as u32;
        for pre in 0..n {
            let p = pre as usize;
            assert!(pre + store.size[p] < n + 1);
            // Every node inside (pre, pre+size] has strictly greater level.
            for q in pre + 1..=pre + store.size[p] {
                assert!(store.level[q as usize] > store.level[p]);
            }
        }
    }
}
