//! In-memory XML document tree.
//!
//! [`Tree`] is the common currency between the parser, the synthetic
//! generators and the tabular encoder (every evaluator, the navigational
//! one included, reads the encoding). It is a plain arena of nodes;
//! attribute nodes are ordinary children that precede all other children
//! of their owner element — this matches the pre/size/level encoding of
//! the paper (Fig. 2), where the attribute `id` of `open_auction` occupies
//! the `pre` rank right after its owner.

use crate::interner::Interner;

/// Node kind, mirroring the `kind` column of the `doc` encoding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum NodeKind {
    /// Document root (one per tree; `name` carries the document URI).
    Doc = 0,
    /// Element node.
    Elem = 1,
    /// Attribute node.
    Attr = 2,
    /// Text node.
    Text = 3,
    /// Comment node.
    Comment = 4,
    /// Processing instruction.
    Pi = 5,
}

impl NodeKind {
    /// Stable short name used by plan printers and SQL emission
    /// (`DOC`, `ELEM`, `ATTR`, `TEXT`, `COMM`, `PI`).
    pub fn tag(self) -> &'static str {
        match self {
            NodeKind::Doc => "DOC",
            NodeKind::Elem => "ELEM",
            NodeKind::Attr => "ATTR",
            NodeKind::Text => "TEXT",
            NodeKind::Comment => "COMM",
            NodeKind::Pi => "PI",
        }
    }

    /// Inverse of [`NodeKind::tag`].
    pub fn from_tag(s: &str) -> Option<NodeKind> {
        Some(match s {
            "DOC" => NodeKind::Doc,
            "ELEM" => NodeKind::Elem,
            "ATTR" => NodeKind::Attr,
            "TEXT" => NodeKind::Text,
            "COMM" => NodeKind::Comment,
            "PI" => NodeKind::Pi,
            _ => return None,
        })
    }
}

/// Index of a node within its [`Tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A single node of the tree arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node kind.
    pub kind: NodeKind,
    /// Interned name: tag for elements, attribute name, PI target, document
    /// URI for the root. `None` for text and comment nodes.
    pub name: Option<u32>,
    /// Character content: text/comment content, attribute value, PI data.
    pub text: Option<String>,
    /// Parent node (`None` only for the document root).
    pub parent: Option<NodeId>,
    /// Children in document order. For elements, the first
    /// [`Node::n_attrs`] entries are attribute nodes.
    pub children: Vec<NodeId>,
    /// Number of leading attribute children.
    pub n_attrs: u32,
}

/// An XML document as a node arena.
///
/// `NodeId`s are allocation order, which need *not* be document order (the
/// synthetic generators interleave sections). Document order is defined by
/// [`Tree::preorder`]; the tabular encoder derives `pre` ranks from it.
/// Trees built by the streaming parser do allocate in document order
/// ([`Tree::assert_preorder`] checks this).
#[derive(Debug, Clone)]
pub struct Tree {
    /// Interned element/attribute/PI names (plus the document URI).
    pub names: Interner,
    nodes: Vec<Node>,
    /// Arena entries orphaned by [`Tree::detach`]. Unreachable entries are
    /// harmless — document order and the encoder walk from the root — but
    /// the count keeps [`Tree::preorder`]'s coverage check meaningful.
    unreachable: u32,
}

impl Tree {
    /// Create a tree containing only a document root with the given URI.
    pub fn new(uri: &str) -> Self {
        let mut names = Interner::new();
        let uri_id = names.intern(uri);
        Tree {
            names,
            nodes: vec![Node {
                kind: NodeKind::Doc,
                name: Some(uri_id),
                text: None,
                parent: None,
                children: Vec::new(),
                n_attrs: 0,
            }],
            unreachable: 0,
        }
    }

    /// The document root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The document URI (the root's name).
    pub fn uri(&self) -> &str {
        self.names.resolve(self.nodes[0].name.expect("root has a URI"))
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Total number of nodes (including the document root and attributes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree holds only the document root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Append an element child to `parent`.
    pub fn add_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let name_id = self.names.intern(name);
        let id = self.push(Node {
            kind: NodeKind::Elem,
            name: Some(name_id),
            text: None,
            parent: Some(parent),
            children: Vec::new(),
            n_attrs: 0,
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Append an attribute to element `owner`.
    ///
    /// # Panics
    /// Panics if `owner` already has non-attribute children (attributes must
    /// come first so that `NodeId` order stays document order).
    pub fn add_attr(&mut self, owner: NodeId, name: &str, value: &str) -> NodeId {
        {
            let o = &self.nodes[owner.0 as usize];
            assert_eq!(
                o.children.len(),
                o.n_attrs as usize,
                "attributes must be added before other children"
            );
        }
        let name_id = self.names.intern(name);
        let id = self.push(Node {
            kind: NodeKind::Attr,
            name: Some(name_id),
            text: Some(value.to_string()),
            parent: Some(owner),
            children: Vec::new(),
            n_attrs: 0,
        });
        let o = &mut self.nodes[owner.0 as usize];
        o.children.push(id);
        o.n_attrs += 1;
        id
    }

    /// Append a text child to `parent`.
    pub fn add_text(&mut self, parent: NodeId, content: &str) -> NodeId {
        let id = self.push(Node {
            kind: NodeKind::Text,
            name: None,
            text: Some(content.to_string()),
            parent: Some(parent),
            children: Vec::new(),
            n_attrs: 0,
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Append a comment child to `parent`.
    pub fn add_comment(&mut self, parent: NodeId, content: &str) -> NodeId {
        let id = self.push(Node {
            kind: NodeKind::Comment,
            name: None,
            text: Some(content.to_string()),
            parent: Some(parent),
            children: Vec::new(),
            n_attrs: 0,
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Append a processing-instruction child to `parent`.
    pub fn add_pi(&mut self, parent: NodeId, target: &str, data: &str) -> NodeId {
        let name_id = self.names.intern(target);
        let id = self.push(Node {
            kind: NodeKind::Pi,
            name: Some(name_id),
            text: Some(data.to_string()),
            parent: Some(parent),
            children: Vec::new(),
            n_attrs: 0,
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Convenience: element with a single text child (`<name>text</name>`).
    pub fn add_text_element(&mut self, parent: NodeId, name: &str, text: &str) -> NodeId {
        let e = self.add_element(parent, name);
        self.add_text(e, text);
        e
    }

    /// Resolved name of a node, if any.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.node(id).name.map(|n| self.names.resolve(n))
    }

    /// Attribute children of `id`.
    pub fn attrs(&self, id: NodeId) -> &[NodeId] {
        let n = self.node(id);
        &n.children[..n.n_attrs as usize]
    }

    /// Non-attribute children of `id` (elements, text, comments, PIs).
    pub fn content_children(&self, id: NodeId) -> &[NodeId] {
        let n = self.node(id);
        &n.children[n.n_attrs as usize..]
    }

    /// All children, attributes first.
    pub fn all_children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// XPath string value: for text/comment/PI/attribute nodes their content,
    /// for elements and the document root the concatenation of all descendant
    /// text nodes.
    pub fn string_value(&self, id: NodeId) -> String {
        let n = self.node(id);
        match n.kind {
            NodeKind::Text | NodeKind::Comment | NodeKind::Pi | NodeKind::Attr => {
                n.text.clone().unwrap_or_default()
            }
            NodeKind::Elem | NodeKind::Doc => {
                let mut out = String::new();
                self.collect_text(id, &mut out);
                out
            }
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        for &c in self.content_children(id) {
            let n = self.node(c);
            match n.kind {
                NodeKind::Text => out.push_str(n.text.as_deref().unwrap_or("")),
                NodeKind::Elem => self.collect_text(c, out),
                _ => {}
            }
        }
    }

    /// Number of nodes in the subtree rooted at `id`, *excluding* `id`
    /// itself but including attributes — i.e. the `size` column value.
    pub fn subtree_size(&self, id: NodeId) -> u32 {
        let mut total = 0;
        for &c in self.all_children(id) {
            total += 1 + self.subtree_size(c);
        }
        total
    }

    /// Depth of `id` (the document root has level 0) — the `level` column.
    pub fn level(&self, id: NodeId) -> u16 {
        let mut l = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            l += 1;
            cur = p;
        }
        l
    }

    /// Iterate over all node ids in arena (allocation) order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Number of nodes reachable from the root (arena length minus entries
    /// orphaned by [`Tree::detach`]).
    pub fn reachable_len(&self) -> usize {
        self.nodes.len() - self.unreachable as usize
    }

    /// All node ids in document (pre-)order, starting at the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.reachable_len());
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            order.push(id);
            for &c in self.all_children(id).iter().rev() {
                stack.push(c);
            }
        }
        debug_assert_eq!(order.len(), self.reachable_len(), "unreachable nodes in tree arena");
        order
    }

    /// Subtree sizes (`size` column values) for every node, indexed by
    /// `NodeId`, computed in one pass.
    pub fn compute_sizes(&self) -> Vec<u32> {
        fn rec(t: &Tree, id: NodeId, sizes: &mut [u32]) -> u32 {
            let mut s = 0;
            for &c in t.all_children(id) {
                s += 1 + rec(t, c, sizes);
            }
            sizes[id.0 as usize] = s;
            s
        }
        let mut sizes = vec![0u32; self.len()];
        rec(self, self.root(), &mut sizes);
        sizes
    }

    /// Check the pre-order invariant: a depth-first walk from the root visits
    /// node ids in strictly increasing order and covers every node.
    ///
    /// # Panics
    /// Panics (with a description) if the invariant is violated.
    pub fn assert_preorder(&self) {
        let mut expected = 0u32;
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            assert_eq!(id.0, expected, "tree nodes are not in document pre-order");
            expected += 1;
            // Push children in reverse so they pop in document order.
            for &c in self.all_children(id).iter().rev() {
                stack.push(c);
            }
        }
        assert_eq!(expected as usize, self.nodes.len(), "unreachable nodes in tree arena");
    }

    // --- Subtree mutation --------------------------------------------------
    //
    // The live-mutation subsystem (`jgi-mutate`) and its full-reparse oracle
    // both edit documents as trees: a fragment is grafted in, a subtree is
    // detached, or one replaces the other in place. Detached arena entries
    // are left behind rather than compacted — `NodeId` order was never
    // required to be document order, and every consumer walks from the root.

    /// Position of `id` among its parent's *content* children, or `None` for
    /// attribute children and the document root.
    pub fn content_position(&self, id: NodeId) -> Option<usize> {
        let parent = self.node(id).parent?;
        let p = self.node(parent);
        let idx = p.children.iter().position(|&c| c == id)?;
        (idx >= p.n_attrs as usize).then(|| idx - p.n_attrs as usize)
    }

    /// Detach the subtree rooted at `id` from its parent, removing it from
    /// document order. The arena entries remain, unreachable.
    ///
    /// # Panics
    /// Panics if `id` is the document root.
    pub fn detach(&mut self, id: NodeId) {
        let parent = self.node(id).parent.expect("cannot detach the document root");
        let p = &mut self.nodes[parent.0 as usize];
        let idx = p.children.iter().position(|&c| c == id).expect("child links are consistent");
        p.children.remove(idx);
        if (idx as u32) < p.n_attrs {
            p.n_attrs -= 1;
        }
        self.nodes[id.0 as usize].parent = None;
        self.unreachable += 1 + self.subtree_size(id);
    }

    /// Deep-copy the subtree rooted at `src_root` of `src` and insert the
    /// copy as the `pos`-th *content* child of `parent` (clamped to the
    /// current child count; attributes stay pinned before `pos` 0). Names
    /// are re-interned into this tree. Returns the id of the new root.
    ///
    /// # Panics
    /// Panics if the grafted root is a document root or an attribute —
    /// grafts are content subtrees (attributes *inside* the fragment are
    /// copied as usual).
    pub fn graft(&mut self, parent: NodeId, pos: usize, src: &Tree, src_root: NodeId) -> NodeId {
        let kind = src.node(src_root).kind;
        assert!(
            kind != NodeKind::Doc && kind != NodeKind::Attr,
            "graft roots must be content nodes, got {}",
            kind.tag()
        );
        let new_root = self.copy_subtree(src, src_root);
        self.nodes[new_root.0 as usize].parent = Some(parent);
        let p = &mut self.nodes[parent.0 as usize];
        let idx = p.n_attrs as usize + pos.min(p.children.len() - p.n_attrs as usize);
        p.children.insert(idx, new_root);
        new_root
    }

    /// Replace the subtree at `id` with a copy of `src_root` from `src`,
    /// keeping its position among the parent's content children. Returns the
    /// id of the replacement root.
    ///
    /// # Panics
    /// Panics if `id` is the document root or an attribute child.
    pub fn replace_subtree(&mut self, id: NodeId, src: &Tree, src_root: NodeId) -> NodeId {
        let parent = self.node(id).parent.expect("cannot replace the document root");
        let pos = self.content_position(id).expect("cannot replace an attribute");
        self.detach(id);
        self.graft(parent, pos, src, src_root)
    }

    fn copy_subtree(&mut self, src: &Tree, id: NodeId) -> NodeId {
        let n = src.node(id);
        let name = n.name.map(|nm| self.names.intern(src.names.resolve(nm)));
        let new_id = self.push(Node {
            kind: n.kind,
            name,
            text: n.text.clone(),
            parent: None,
            children: Vec::new(),
            n_attrs: n.n_attrs,
        });
        for &c in src.all_children(id) {
            let cc = self.copy_subtree(src, c);
            self.nodes[cc.0 as usize].parent = Some(new_id);
            self.nodes[new_id.0 as usize].children.push(cc);
        }
        new_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Fig. 2 document:
    /// `<open_auction id="1"><initial>15</initial><bidder><time>18:43</time>
    ///  <increase>4.20</increase></bidder></open_auction>`.
    pub fn fig2_tree() -> Tree {
        let mut t = Tree::new("auction.xml");
        let oa = t.add_element(t.root(), "open_auction");
        t.add_attr(oa, "id", "1");
        t.add_text_element(oa, "initial", "15");
        let bidder = t.add_element(oa, "bidder");
        t.add_text_element(bidder, "time", "18:43");
        t.add_text_element(bidder, "increase", "4.20");
        t
    }

    #[test]
    fn fig2_shape() {
        let t = fig2_tree();
        t.assert_preorder();
        assert_eq!(t.len(), 10);
        assert_eq!(t.subtree_size(t.root()), 9);
        let oa = t.content_children(t.root())[0];
        assert_eq!(t.name(oa), Some("open_auction"));
        assert_eq!(t.subtree_size(oa), 8);
        assert_eq!(t.level(oa), 1);
        assert_eq!(t.attrs(oa).len(), 1);
        assert_eq!(t.content_children(oa).len(), 2);
    }

    #[test]
    fn string_values() {
        let t = fig2_tree();
        let oa = t.content_children(t.root())[0];
        let id_attr = t.attrs(oa)[0];
        assert_eq!(t.string_value(id_attr), "1");
        let initial = t.content_children(oa)[0];
        assert_eq!(t.string_value(initial), "15");
        let bidder = t.content_children(oa)[1];
        assert_eq!(t.string_value(bidder), "18:434.20");
        assert_eq!(t.string_value(t.root()), "1518:434.20");
    }

    #[test]
    fn levels_match_fig2() {
        let t = fig2_tree();
        let levels: Vec<u16> = t.ids().map(|id| t.level(id)).collect();
        assert_eq!(levels, vec![0, 1, 2, 2, 3, 2, 3, 4, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "attributes must be added before other children")]
    fn attrs_must_come_first() {
        let mut t = Tree::new("x");
        let e = t.add_element(t.root(), "e");
        t.add_text(e, "body");
        t.add_attr(e, "late", "nope");
    }

    #[test]
    fn graft_detach_replace() {
        let mut t = fig2_tree();
        let oa = t.content_children(t.root())[0];
        // Fragment: <extra note="n"><v>7</v></extra>
        let mut frag = Tree::new("frag");
        let extra = frag.add_element(frag.root(), "extra");
        frag.add_attr(extra, "note", "n");
        frag.add_text_element(extra, "v", "7");
        // Graft between <initial> and <bidder>.
        let grafted = t.graft(oa, 1, &frag, extra);
        assert_eq!(t.name(grafted), Some("extra"));
        assert_eq!(t.content_position(grafted), Some(1));
        assert_eq!(t.content_children(oa).len(), 3);
        assert_eq!(t.string_value(grafted), "7");
        assert_eq!(t.node(grafted).n_attrs, 1);
        // Detach the bidder subtree (5 nodes).
        let bidder = t.content_children(oa)[2];
        let before = t.reachable_len();
        t.detach(bidder);
        assert_eq!(t.reachable_len(), before - 5);
        assert_eq!(t.content_children(oa).len(), 2);
        assert_eq!(t.preorder().len(), t.reachable_len());
        // Replace <initial> in place.
        let initial = t.content_children(oa)[0];
        let mut frag2 = Tree::new("frag2");
        let repl = frag2.add_text_element(frag2.root(), "revised", "99");
        let new_root = t.replace_subtree(initial, &frag2, repl);
        assert_eq!(t.content_position(new_root), Some(0));
        assert_eq!(t.name(t.content_children(oa)[0]), Some("revised"));
        // Attributes survive all of the above, pinned first.
        assert_eq!(t.attrs(oa).len(), 1);
    }

    #[test]
    fn graft_positions_clamp() {
        let mut t = Tree::new("x");
        let e = t.add_element(t.root(), "e");
        let mut frag = Tree::new("f");
        let a = frag.add_element(frag.root(), "a");
        let b = frag.add_element(frag.root(), "b");
        t.graft(e, 0, &frag, a);
        t.graft(e, 99, &frag, b); // clamped to append
        let names: Vec<_> =
            t.content_children(e).iter().map(|&c| t.name(c).unwrap().to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn detach_attribute_updates_count() {
        let mut t = Tree::new("x");
        let e = t.add_element(t.root(), "e");
        let attr = t.add_attr(e, "id", "1");
        t.add_text(e, "body");
        t.detach(attr);
        assert_eq!(t.attrs(e).len(), 0);
        assert_eq!(t.content_children(e).len(), 1);
    }

    #[test]
    fn comments_and_pis() {
        let mut t = Tree::new("x");
        let e = t.add_element(t.root(), "e");
        t.add_comment(e, " note ");
        t.add_pi(e, "target", "data");
        t.assert_preorder();
        assert_eq!(t.len(), 4);
        // Comments/PIs contribute nothing to element string values.
        assert_eq!(t.string_value(e), "");
    }
}
