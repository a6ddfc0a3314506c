//! The tree-walking evaluator.

use jgi_xml::{NodeId, NodeKind, Tree};
use jgi_xquery::{Axis, BoolCore, CompOp, Core, Literal, NodeTest};
use std::collections::HashMap;
use std::fmt;

/// Whole-document vs segmented storage mode (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NavMode {
    /// One monolithic document; all navigation starts at the root.
    Whole,
    /// XMLPATTERN-like value indexes point straight into small segments.
    Segmented,
}

/// Evaluation options.
#[derive(Debug, Clone, Copy)]
pub struct NavOptions {
    /// Storage mode.
    pub mode: NavMode,
    /// Node-visit budget; exceeding it aborts with [`NavError::Budget`]
    /// (the paper's "did not finish within 20 hours").
    pub budget: u64,
}

impl Default for NavOptions {
    fn default() -> Self {
        NavOptions { mode: NavMode::Whole, budget: 500_000_000 }
    }
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NavError {
    /// Budget exhausted — report as *dnf*.
    Budget,
    /// Unbound variable or unknown document.
    Bad(String),
}

impl fmt::Display for NavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavError::Budget => write!(f, "navigation budget exceeded (dnf)"),
            NavError::Bad(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for NavError {}

/// A node reference: document slot plus node id.
pub type NodeRef = (usize, NodeId);

/// The navigational database: loaded documents plus (in segmented mode)
/// the value indexes.
///
/// `Clone` supports the serving layer's snapshot publishing: the mutable
/// master copy stays behind a lock while immutable clones are shared with
/// reader threads (evaluation takes `&self` throughout).
#[derive(Clone)]
pub struct NavDb {
    trees: Vec<Tree>,
    uris: Vec<String>,
    /// Document-order rank per node, per tree.
    order: Vec<Vec<u32>>,
    /// Value index: (name, string value) → nodes with that name whose
    /// string value matches (elements with simple content, attributes).
    value_index: HashMap<(String, String), Vec<NodeRef>>,
}

impl NavDb {
    /// Empty database.
    pub fn new() -> NavDb {
        NavDb { trees: Vec::new(), uris: Vec::new(), order: Vec::new(), value_index: HashMap::new() }
    }

    /// Load a document; builds document-order ranks and the value index.
    pub fn add_tree(&mut self, tree: Tree) {
        let slot = self.trees.len();
        let mut order = vec![0u32; tree.len()];
        for (rank, id) in tree.preorder().into_iter().enumerate() {
            order[id.0 as usize] = rank as u32;
        }
        // Value index entries: attributes and simple-content elements (the
        // XMLPATTERN //name / //@name family); the indexable set mirrors
        // the tabular encoding's value column (subtree size ≤ 1).
        for id in tree.ids() {
            let node = tree.node(id);
            let indexable = node.kind == NodeKind::Attr
                || (node.kind == NodeKind::Elem && comparable_value(&tree, id).is_some());
            if indexable {
                if let Some(name) = tree.name(id) {
                    let key = (name.to_string(), tree.string_value(id));
                    self.value_index.entry(key).or_default().push((slot, id));
                }
            }
        }
        self.uris.push(tree.uri().to_string());
        self.order.push(order);
        self.trees.push(tree);
    }

    /// Borrow a loaded tree.
    pub fn tree(&self, slot: usize) -> &Tree {
        &self.trees[slot]
    }

    /// Document-order rank of a node within its tree — equals the `pre`
    /// rank the tabular encoding assigns (same DFS).
    pub fn order_rank(&self, r: NodeRef) -> u32 {
        self.order[r.0][r.1 .0 as usize]
    }

    /// Convert a result to global `pre` ranks given each document's base
    /// offset in a [`jgi_xml::DocStore`] (its `doc_roots` entry).
    pub fn to_pre(&self, result: &[NodeRef], bases: &[u32]) -> Vec<u32> {
        result.iter().map(|&r| bases[r.0] + self.order_rank(r)).collect()
    }

    /// Evaluate a normalized query.
    pub fn eval(&self, core: &Core, opts: NavOptions) -> Result<Vec<NodeRef>, NavError> {
        self.eval_with_stats(core, opts).0
    }

    /// Evaluate and report navigation statistics (steps actually taken vs
    /// the configured budget — the paper's dnf accounting). Stats are
    /// returned even when evaluation fails, so a budget abort still shows
    /// how far the walk got.
    pub fn eval_with_stats(
        &self,
        core: &Core,
        opts: NavOptions,
    ) -> (Result<Vec<NodeRef>, NavError>, NavStats) {
        let mut cx = Cx { db: self, opts, budget: opts.budget };
        let env = HashMap::new();
        let result = cx.eval_seq(core, &env);
        let stats = NavStats {
            steps: opts.budget - cx.budget,
            budget: opts.budget,
            exhausted: matches!(result, Err(NavError::Budget)),
        };
        (result, stats)
    }
}

/// Work accounting for one navigational evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NavStats {
    /// Node visits actually charged.
    pub steps: u64,
    /// The configured visit budget.
    pub budget: u64,
    /// Whether the walk aborted on budget exhaustion (dnf).
    pub exhausted: bool,
}

impl Default for NavDb {
    fn default() -> Self {
        NavDb::new()
    }
}

struct Cx<'a> {
    db: &'a NavDb,
    opts: NavOptions,
    budget: u64,
}

type Env = HashMap<String, Vec<NodeRef>>;

impl<'a> Cx<'a> {
    fn charge(&mut self, n: u64) -> Result<(), NavError> {
        if self.budget < n {
            return Err(NavError::Budget);
        }
        self.budget -= n;
        Ok(())
    }

    fn eval_seq(&mut self, e: &Core, env: &Env) -> Result<Vec<NodeRef>, NavError> {
        match e {
            Core::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| NavError::Bad(format!("unbound variable ${v}"))),
            Core::Doc(uri) => {
                let slot = self
                    .db
                    .uris
                    .iter()
                    .position(|u| u == uri)
                    .ok_or_else(|| NavError::Bad(format!("document {uri} not loaded")))?;
                Ok(vec![(slot, self.db.trees[slot].root())])
            }
            Core::Ddo(inner) => {
                let mut v = self.eval_seq(inner, env)?;
                v.sort_by_key(|&r| (r.0, self.db.order_rank(r)));
                v.dedup();
                Ok(v)
            }
            Core::Step { input, axis, test } => {
                let ctx = self.eval_seq(input, env)?;
                let mut out = Vec::new();
                for c in ctx {
                    self.step(c, *axis, test, &mut out)?;
                }
                Ok(out)
            }
            Core::Let { var, value, body } => {
                let v = self.eval_seq(value, env)?;
                let mut env2 = env.clone();
                env2.insert(var.clone(), v);
                self.eval_seq(body, &env2)
            }
            Core::For { var, seq, body } => {
                // Segmented mode: try the XMLPATTERN shortcut first.
                if self.opts.mode == NavMode::Segmented {
                    if let Some(result) = self.try_indexed_filter(var, seq, body, env)? {
                        return Ok(result);
                    }
                }
                let items = self.eval_seq(seq, env)?;
                let mut out = Vec::new();
                for item in items {
                    let mut env2 = env.clone();
                    env2.insert(var.clone(), vec![item]);
                    out.extend(self.eval_seq(body, &env2)?);
                }
                Ok(out)
            }
            Core::If { cond, then } => {
                if self.eval_bool(cond, env)? {
                    self.eval_seq(then, env)
                } else {
                    Ok(vec![])
                }
            }
            Core::Empty => Ok(vec![]),
            Core::Seq(items) => {
                let mut out = Vec::new();
                for i in items {
                    out.extend(self.eval_seq(i, env)?);
                }
                Ok(out)
            }
        }
    }

    fn eval_bool(&mut self, b: &BoolCore, env: &Env) -> Result<bool, NavError> {
        match b {
            BoolCore::Ebv(e) => Ok(!self.eval_seq(e, env)?.is_empty()),
            BoolCore::ValCmp { lhs, op, rhs } => {
                let nodes = self.eval_seq(lhs, env)?;
                for n in nodes {
                    self.charge(1)?;
                    // Atomization convention of the tabular encoding (paper
                    // §2.1): only nodes with subtree size ≤ 1 carry a value.
                    let Some(sv) = comparable_value(&self.db.trees[n.0], n.1) else {
                        continue;
                    };
                    let holds = match rhs {
                        Literal::String(s) => op.test(sv.as_str().cmp(s.as_str())),
                        Literal::Number(num) => match jgi_xml::encode::parse_decimal(&sv) {
                            Some(d) => op.test(d.total_cmp(num)),
                            None => false,
                        },
                    };
                    if holds {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            BoolCore::Cmp { lhs, op, rhs } => {
                // Existential nested-loop comparison on string values: this
                // is exactly what makes value joins hopeless for XSCAN.
                let l = self.eval_seq(lhs, env)?;
                let r = self.eval_seq(rhs, env)?;
                for a in &l {
                    let Some(sa) = comparable_value(&self.db.trees[a.0], a.1) else {
                        continue;
                    };
                    for b in &r {
                        self.charge(1)?;
                        let Some(sb) = comparable_value(&self.db.trees[b.0], b.1) else {
                            continue;
                        };
                        if op.test(sa.as_str().cmp(sb.as_str())) {
                            return Ok(true);
                        }
                    }
                }
                Ok(false)
            }
        }
    }

    /// Segmented-mode shortcut: a `for $x in ddo(path) return if
    /// (fn:boolean(path'($x) cmp literal)) then body` pattern is answered
    /// through the value index — look the value up, climb to the `$x`-level
    /// ancestor segment, and continue with only those bindings
    /// (XMLPATTERN → RID → segment, paper §4.2). Equality uses the index
    /// directly; other comparisons scan the index entries.
    fn try_indexed_filter(
        &mut self,
        var: &str,
        seq: &Core,
        body: &Core,
        env: &Env,
    ) -> Result<Option<Vec<NodeRef>>, NavError> {
        // The body must be a conditional with a literal value comparison.
        let Core::If { cond, then } = body else { return Ok(None) };
        let BoolCore::ValCmp { lhs, op, rhs } = cond.as_ref() else {
            return Ok(None);
        };
        // The comparison path must start at $var and end in a name/attr
        // test (that final name keys the index).
        let Some(probe_name) = path_final_name(lhs, var) else { return Ok(None) };
        // The binding sequence must end in a name test, so we know which
        // ancestor to climb to.
        let Some(bind_name) = seq_final_name(seq) else { return Ok(None) };

        // Index lookup.
        self.charge(8)?; // the index probe
        let mut hits: Vec<NodeRef> = Vec::new();
        match (op, rhs) {
            (CompOp::Eq, Literal::String(s)) => {
                if let Some(v) = self.db.value_index.get(&(probe_name.clone(), s.clone())) {
                    hits.extend(v.iter().copied());
                }
            }
            _ => {
                // Range/inequality: scan the index entries for this name.
                for ((n, sv), nodes) in &self.db.value_index {
                    if n != &probe_name {
                        continue;
                    }
                    self.charge(1)?;
                    let holds = match rhs {
                        Literal::String(s) => op.test(sv.as_str().cmp(s.as_str())),
                        Literal::Number(num) => match jgi_xml::encode::parse_decimal(sv) {
                            Some(d) => op.test(d.total_cmp(num)),
                            None => false,
                        },
                    };
                    if holds {
                        hits.extend(nodes.iter().copied());
                    }
                }
            }
        }
        // Climb from each hit through *every* `bind_name` ancestor: with
        // descendant steps in the comparison path, nested same-named
        // elements can all be valid bindings for one hit.
        let mut bindings: Vec<NodeRef> = Vec::new();
        for (slot, mut node) in hits {
            loop {
                self.charge(1)?;
                let t = &self.db.trees[slot];
                if t.node(node).kind == NodeKind::Elem && t.name(node) == Some(bind_name.as_str())
                {
                    bindings.push((slot, node));
                }
                match t.node(node).parent {
                    Some(p) => node = p,
                    None => break,
                }
            }
        }
        bindings.sort_by_key(|&r| (r.0, self.db.order_rank(r)));
        bindings.dedup();
        // Verify each candidate against the *full* binding sequence and
        // condition (the index may over-approximate), then run the body.
        let candidates = self.eval_seq(seq, env)?; // still needed for containment
        let mut out = Vec::new();
        for b in bindings {
            if !candidates.contains(&b) {
                continue;
            }
            let mut env2 = env.clone();
            env2.insert(var.to_string(), vec![b]);
            if self.eval_bool(cond, &env2)? {
                out.extend(self.eval_seq(then, &env2)?);
            }
        }
        Ok(Some(out))
    }

    /// One axis step from one context node.
    fn step(
        &mut self,
        (slot, node): NodeRef,
        axis: Axis,
        test: &NodeTest,
        out: &mut Vec<NodeRef>,
    ) -> Result<(), NavError> {
        let tree = &self.db.trees[slot];
        let push = |cx: &mut Self, id: NodeId, out: &mut Vec<NodeRef>| -> Result<(), NavError> {
            cx.charge(1)?;
            if matches(tree, id, axis, test) {
                out.push((slot, id));
            }
            Ok(())
        };
        match axis {
            Axis::Child => {
                for &c in tree.content_children(node) {
                    push(self, c, out)?;
                }
            }
            Axis::Attribute => {
                for &a in tree.attrs(node) {
                    push(self, a, out)?;
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf {
                    push(self, node, out)?;
                }
                let mut stack: Vec<NodeId> =
                    tree.content_children(node).iter().rev().copied().collect();
                while let Some(id) = stack.pop() {
                    push(self, id, out)?;
                    for &c in tree.content_children(id).iter().rev() {
                        stack.push(c);
                    }
                }
            }
            Axis::SelfAxis => push(self, node, out)?,
            Axis::Parent => {
                if let Some(p) = tree.node(node).parent {
                    push(self, p, out)?;
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf {
                    push(self, node, out)?;
                }
                let mut cur = node;
                let mut chain = Vec::new();
                while let Some(p) = tree.node(cur).parent {
                    chain.push(p);
                    cur = p;
                }
                // Document order: outermost first.
                for &p in chain.iter().rev() {
                    push(self, p, out)?;
                }
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                if tree.node(node).kind == NodeKind::Attr {
                    return Ok(()); // attributes have no siblings
                }
                let Some(p) = tree.node(node).parent else { return Ok(()) };
                let sibs = tree.content_children(p);
                let pos = sibs.iter().position(|&s| s == node);
                if let Some(pos) = pos {
                    if axis == Axis::FollowingSibling {
                        for &s in &sibs[pos + 1..] {
                            push(self, s, out)?;
                        }
                    } else {
                        for &s in &sibs[..pos] {
                            push(self, s, out)?;
                        }
                    }
                }
            }
            Axis::Following | Axis::Preceding => {
                // Walk the whole document in order, comparing ranks; this
                // is exactly the navigational cost profile.
                let my = self.db.order_rank((slot, node));
                let my_end = my + subtree_span(tree, node);
                for id in tree.preorder() {
                    let r = self.db.order_rank((slot, id));
                    let keep = if axis == Axis::Following {
                        r > my_end
                    } else {
                        // preceding: ends before we start, not an ancestor.
                        r < my && r + subtree_span(tree, id) < my
                    };
                    self.charge(1)?;
                    if keep
                        && tree.node(id).kind != NodeKind::Attr
                        && matches(tree, id, axis, test)
                    {
                        out.push((slot, id));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The comparable (atomizable) string value of a node under the fragment's
/// encoding convention: nodes with subtree size ≤ 1 only (paper §2.1 — "for
/// nodes with size ≤ 1, table doc supports value-based node access").
fn comparable_value(tree: &Tree, id: NodeId) -> Option<String> {
    if subtree_span(tree, id) <= 1 {
        Some(tree.string_value(id))
    } else {
        None
    }
}

/// Number of nodes in the subtree below `id` (attributes included).
fn subtree_span(tree: &Tree, id: NodeId) -> u32 {
    let mut n = 0;
    let mut stack: Vec<NodeId> = tree.all_children(id).to_vec();
    while let Some(c) = stack.pop() {
        n += 1;
        stack.extend_from_slice(tree.all_children(c));
    }
    n
}

/// XPath node-test semantics (principal node kind per axis).
fn matches(tree: &Tree, id: NodeId, axis: Axis, test: &NodeTest) -> bool {
    let kind = tree.node(id).kind;
    let principal = if axis == Axis::Attribute { NodeKind::Attr } else { NodeKind::Elem };
    match test {
        NodeTest::Name(n) => kind == principal && tree.name(id) == Some(n.as_str()),
        NodeTest::Wildcard => kind == principal,
        NodeTest::AnyKind => {
            if axis == Axis::Attribute {
                kind == NodeKind::Attr
            } else if matches!(
                axis,
                Axis::Child
                    | Axis::Descendant
                    | Axis::DescendantOrSelf
                    | Axis::Following
                    | Axis::Preceding
                    | Axis::FollowingSibling
                    | Axis::PrecedingSibling
            ) {
                kind != NodeKind::Attr
            } else {
                true
            }
        }
        NodeTest::Text => kind == NodeKind::Text,
        NodeTest::Comment => kind == NodeKind::Comment,
        NodeTest::Pi(t) => {
            kind == NodeKind::Pi
                && t.as_ref().map(|x| tree.name(id) == Some(x.as_str())).unwrap_or(true)
        }
        NodeTest::Element(n) => {
            kind == NodeKind::Elem
                && n.as_ref().map(|x| tree.name(id) == Some(x.as_str())).unwrap_or(true)
        }
        NodeTest::AttributeTest(n) => {
            kind == NodeKind::Attr
                && n.as_ref().map(|x| tree.name(id) == Some(x.as_str())).unwrap_or(true)
        }
        NodeTest::Document => kind == NodeKind::Doc,
    }
}

/// If `e` is a step path rooted at `$var`, return the final step's name
/// (attribute or element) for index probing.
fn path_final_name(e: &Core, var: &str) -> Option<String> {
    fn rooted_at(e: &Core, var: &str) -> bool {
        match e {
            Core::Var(v) => v == var,
            Core::Step { input, .. } => rooted_at(input, var),
            Core::Ddo(i) => rooted_at(i, var),
            _ => false,
        }
    }
    fn last_name(e: &Core) -> Option<String> {
        match e {
            Core::Ddo(i) => last_name(i),
            Core::Step { test, .. } => match test {
                NodeTest::Name(n) => Some(n.clone()),
                NodeTest::AttributeTest(Some(n)) | NodeTest::Element(Some(n)) => Some(n.clone()),
                _ => None,
            },
            _ => None,
        }
    }
    if rooted_at(e, var) {
        last_name(e)
    } else {
        None
    }
}

/// Final name test of a binding sequence (`…/descendant::person` ⇒ person).
fn seq_final_name(e: &Core) -> Option<String> {
    match e {
        Core::Ddo(i) => seq_final_name(i),
        Core::Step { test: NodeTest::Name(n), .. } => Some(n.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_xquery::compile_to_core;

    fn fig2_db() -> NavDb {
        let mut t = Tree::new("auction.xml");
        let oa = t.add_element(t.root(), "open_auction");
        t.add_attr(oa, "id", "1");
        t.add_text_element(oa, "initial", "15");
        let bidder = t.add_element(oa, "bidder");
        t.add_text_element(bidder, "time", "18:43");
        t.add_text_element(bidder, "increase", "4.20");
        let mut db = NavDb::new();
        db.add_tree(t);
        db
    }

    fn run(db: &NavDb, q: &str, opts: NavOptions) -> Vec<u32> {
        let core = compile_to_core(q).unwrap();
        let r = db.eval(&core, opts).unwrap();
        db.to_pre(&r, &[0])
    }

    #[test]
    fn q0_matches_paper() {
        let db = fig2_db();
        let r = run(
            &db,
            r#"doc("auction.xml")/descendant::bidder/child::*/child::text()"#,
            NavOptions::default(),
        );
        assert_eq!(r, vec![7, 9]);
    }

    #[test]
    fn axes_and_predicates() {
        let db = fig2_db();
        let o = NavOptions::default();
        assert_eq!(run(&db, r#"doc("auction.xml")/descendant::open_auction[bidder]"#, o), vec![1]);
        assert_eq!(run(&db, r#"doc("auction.xml")/descendant::time/parent::node()"#, o), vec![5]);
        assert_eq!(
            run(&db, r#"doc("auction.xml")/descendant::increase/ancestor::node()"#, o),
            vec![0, 1, 5]
        );
        assert_eq!(
            run(&db, r#"doc("auction.xml")/descendant::time/following-sibling::node()"#, o),
            vec![8]
        );
        assert_eq!(
            run(&db, r#"doc("auction.xml")/descendant::initial/following::node()"#, o),
            vec![5, 6, 7, 8, 9]
        );
        assert_eq!(
            run(&db, r#"doc("auction.xml")/descendant::increase/preceding::node()"#, o),
            vec![3, 4, 6, 7]
        );
        assert_eq!(
            run(&db, r#"doc("auction.xml")/descendant::open_auction/attribute::id"#, o),
            vec![2]
        );
    }

    #[test]
    fn value_comparisons() {
        let db = fig2_db();
        let o = NavOptions::default();
        assert_eq!(run(&db, r#"doc("auction.xml")/descendant::increase[. > 4]"#, o), vec![8]);
        assert!(run(&db, r#"doc("auction.xml")/descendant::increase[. > 5]"#, o).is_empty());
        assert_eq!(
            run(&db, r#"doc("auction.xml")/descendant::time[. = "18:43"]"#, o),
            vec![6]
        );
    }

    #[test]
    fn budget_aborts() {
        let db = fig2_db();
        let core = compile_to_core(
            r#"doc("auction.xml")/descendant::node()/descendant::node()"#,
        )
        .unwrap();
        let err = db.eval(&core, NavOptions { mode: NavMode::Whole, budget: 5 }).unwrap_err();
        assert_eq!(err, NavError::Budget);
    }

    #[test]
    fn segmented_mode_uses_fewer_steps_for_point_queries() {
        // A larger instance: many open_auctions, find one by @id.
        let mut t = Tree::new("auction.xml");
        let root = t.add_element(t.root(), "site");
        let oas = t.add_element(root, "open_auctions");
        for i in 0..500 {
            let oa = t.add_element(oas, "open_auction");
            t.add_attr(oa, "id", &format!("oa{i}"));
            t.add_text_element(oa, "initial", &format!("{i}"));
        }
        let mut db = NavDb::new();
        db.add_tree(t);
        let q = r#"doc("auction.xml")/descendant::open_auction[@id = "oa250"]"#;
        let core = compile_to_core(q).unwrap();
        // Count budget consumption in both modes.
        let budget = 1_000_000u64;
        let spent = |mode| {
            let mut cx = Cx { db: &db, opts: NavOptions { mode, budget }, budget };
            let env = HashMap::new();
            let r = cx.eval_seq(&core, &env).unwrap();
            assert_eq!(r.len(), 1);
            budget - cx.budget
        };
        let whole = spent(NavMode::Whole);
        let seg = spent(NavMode::Segmented);
        assert!(
            seg < whole,
            "segmented should do less navigation: {seg} vs {whole}"
        );
    }

    /// Regression: with descendant steps in the predicate path, *every*
    /// same-named ancestor of an index hit is a valid binding, not just
    /// the innermost one.
    #[test]
    fn segmented_climb_collects_all_matching_ancestors() {
        let mut t = Tree::new("t.xml");
        let r = t.add_element(t.root(), "r");
        let a1 = t.add_element(r, "a");
        let a2 = t.add_element(a1, "a");
        t.add_text_element(a2, "b", "x");
        let mut db = NavDb::new();
        db.add_tree(t);
        let core = jgi_xquery::compile_to_core(
            r#"doc("t.xml")/descendant::a[descendant::b = "x"]"#,
        )
        .unwrap();
        let whole =
            db.eval(&core, NavOptions { mode: NavMode::Whole, budget: u64::MAX }).unwrap();
        let seg = db
            .eval(&core, NavOptions { mode: NavMode::Segmented, budget: u64::MAX })
            .unwrap();
        assert_eq!(whole.len(), 2);
        assert_eq!(whole, seg);
    }

    #[test]
    fn multiple_documents() {
        let mut db = NavDb::new();
        let mut t1 = Tree::new("a.xml");
        t1.add_text_element(t1.root(), "x", "1");
        let mut t2 = Tree::new("b.xml");
        t2.add_text_element(t2.root(), "y", "2");
        db.add_tree(t1);
        db.add_tree(t2);
        let core = compile_to_core(r#"doc("b.xml")/child::y"#).unwrap();
        let r = db.eval(&core, NavOptions::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(db.to_pre(&r, &[0, 10]), vec![11]);
        let core = compile_to_core(r#"doc("c.xml")/child::y"#).unwrap();
        assert!(db.eval(&core, NavOptions::default()).is_err());
    }
}
