//! The navigating evaluator: each axis step walks the `pre`/`size`/
//! `parent` columns of the document's tabular encoding.

use jgi_xml::encode::{NameId, ValId, NO_NAME, NO_PARENT, NO_VALUE};
use jgi_xml::{DocStore, NodeId, NodeKind, Tree};
use jgi_xquery::{Axis, BoolCore, CompOp, Core, Literal, NodeTest};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// A node reference: document slot (its position in the store's
/// `doc_roots`) plus the node's rank inside its document.
pub type NodeRef = (usize, NodeId);

/// The navigational database: the documents' tabular encoding plus (in
/// segmented mode) the value index.
///
/// Cloning shares the encoding; evaluation takes `&self` throughout.
#[derive(Clone, Default)]
pub struct NavDb {
    store: Arc<DocStore>,
    /// Value index, sorted: `(name, value, pre)` for every attribute and
    /// simple-content element (the XMLPATTERN `//name` / `//@name`
    /// family; the encoding's value column has exactly these values).
    /// Built by the first segmented evaluation: whole-document mode never
    /// reads it.
    value_index: OnceLock<Vec<(NameId, ValId, u32)>>,
}

impl From<Arc<DocStore>> for NavDb {
    /// Navigate an existing encoding, sharing it (no copy).
    fn from(store: Arc<DocStore>) -> NavDb {
        NavDb { store, value_index: OnceLock::new() }
    }
}

impl NavDb {
    /// Empty database.
    pub fn new() -> NavDb {
        NavDb::default()
    }

    /// Load a document: encode it and drop the tree.
    pub fn add_tree(&mut self, tree: Tree) {
        Arc::make_mut(&mut self.store).add_tree(&tree);
        self.value_index = OnceLock::new();
    }

    /// Document-order rank of a node within its document — the `pre`
    /// rank relative to the document's root row.
    pub fn order_rank(&self, r: NodeRef) -> u32 {
        r.1 .0
    }

    /// Convert a result to global `pre` ranks given each document's base
    /// offset in a [`jgi_xml::DocStore`] (its `doc_roots` entry).
    pub fn to_pre(&self, result: &[NodeRef], bases: &[u32]) -> Vec<u32> {
        result.iter().map(|&r| bases[r.0] + self.order_rank(r)).collect()
    }

    /// Heap bytes held: the encoding (shared or not) and the value index.
    pub fn heap_bytes(&self) -> usize {
        let entry = size_of::<(NameId, ValId, u32)>();
        self.store.heap_bytes() + self.value_index.get().map_or(0, |v| v.capacity() * entry)
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
        let mut cx = Cx { db: self, s: &self.store, opts, budget: opts.budget };
        let env = HashMap::new();
        let result = cx.eval_seq(core, &env);
        let stats = NavStats {
            steps: opts.budget - cx.budget,
            budget: opts.budget,
            exhausted: matches!(result, Err(NavError::Budget)),
        };
        (result, stats)
    }

    fn value_index(&self) -> &[(NameId, ValId, u32)] {
        self.value_index.get_or_init(|| {
            let s = &*self.store;
            let mut index: Vec<_> = (0..s.len())
                .filter(|&p| {
                    matches!(s.kind[p], NodeKind::Attr | NodeKind::Elem)
                        && s.name[p] != NO_NAME
                        && s.value[p] != NO_VALUE
                })
                .map(|p| (s.name[p], s.value[p], p as u32))
                .collect();
            index.sort_unstable();
            index.shrink_to_fit();
            index
        })
    }

    /// Global `pre` rank of a node.
    fn pre(&self, (slot, id): NodeRef) -> u32 {
        self.store.doc_roots[slot] + id.0
    }

    /// The node at global `pre` rank `pre`.
    fn node_ref(&self, pre: u32) -> NodeRef {
        let slot = self.store.doc_roots.partition_point(|&r| r <= pre) - 1;
        (slot, NodeId(pre - self.store.doc_roots[slot]))
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

struct Cx<'a> {
    db: &'a NavDb,
    s: &'a DocStore,
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
                let s = self.s;
                let slot = s
                    .names
                    .get(uri)
                    .and_then(|id| s.doc_roots.iter().position(|&r| s.name[r as usize] == id))
                    .ok_or_else(|| NavError::Bad(format!("document {uri} not loaded")))?;
                Ok(vec![(slot, NodeId(0))])
            }
            Core::Ddo(inner) => {
                let mut v = self.eval_seq(inner, env)?;
                v.sort_unstable();
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
                    if literal_holds(self.s, self.db.pre(n), *op, rhs) {
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
                for &a in &l {
                    // Atomization convention of the tabular encoding (paper
                    // §2.1): only nodes with subtree size ≤ 1 carry a value.
                    let Some(sa) = self.s.value_str(self.db.pre(a)) else { continue };
                    for &b in &r {
                        self.charge(1)?;
                        let Some(sb) = self.s.value_str(self.db.pre(b)) else { continue };
                        if op.test(sa.cmp(sb)) {
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
        let s = self.s;
        let index = self.db.value_index();
        let mut hits: Vec<u32> = Vec::new();
        if let Some(name) = s.names.get(&probe_name) {
            let entries = &index[index.partition_point(|e| e.0 < name)..];
            let entries = &entries[..entries.partition_point(|e| e.0 == name)];
            match (op, rhs) {
                (CompOp::Eq, Literal::String(lit)) => {
                    if let Some(value) = s.values.get(lit) {
                        let from = entries.partition_point(|e| e.1 < value);
                        let to = entries.partition_point(|e| e.1 <= value);
                        hits.extend(entries[from..to].iter().map(|e| e.2));
                    }
                }
                // Range/inequality: scan the index entries for this name,
                // one per distinct value.
                _ => {
                    for group in entries.chunk_by(|a, b| a.1 == b.1) {
                        self.charge(1)?;
                        if literal_holds(s, group[0].2, *op, rhs) {
                            hits.extend(group.iter().map(|e| e.2));
                        }
                    }
                }
            }
        }
        // Climb from each hit through *every* `bind_name` ancestor: with
        // descendant steps in the comparison path, nested same-named
        // elements can all be valid bindings for one hit.
        let mut bindings: Vec<NodeRef> = Vec::new();
        for mut pre in hits {
            loop {
                self.charge(1)?;
                if s.kind[pre as usize] == NodeKind::Elem
                    && s.name_str(pre) == Some(bind_name.as_str())
                {
                    bindings.push(self.db.node_ref(pre));
                }
                match s.parent[pre as usize] {
                    NO_PARENT => break,
                    p => pre = p,
                }
            }
        }
        bindings.sort_unstable();
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
        node: NodeRef,
        axis: Axis,
        test: &NodeTest,
        out: &mut Vec<NodeRef>,
    ) -> Result<(), NavError> {
        let s = self.s;
        let (slot, base) = (node.0, s.doc_roots[node.0]);
        let p = base + node.1 .0;
        let push = |cx: &mut Self, pre: u32, out: &mut Vec<NodeRef>| -> Result<(), NavError> {
            cx.charge(1)?;
            if matches(s, pre, axis, test) {
                out.push((slot, NodeId(pre - base)));
            }
            Ok(())
        };
        let kind = |pre: u32| s.kind[pre as usize];
        let size = |pre: u32| s.size[pre as usize];
        match axis {
            Axis::Child => {
                for c in children(s, p).filter(|&c| kind(c) != NodeKind::Attr) {
                    push(self, c, out)?;
                }
            }
            Axis::Attribute => {
                for a in children(s, p).take_while(|&a| kind(a) == NodeKind::Attr) {
                    push(self, a, out)?;
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf {
                    push(self, p, out)?;
                }
                for d in (p + 1..=p + size(p)).filter(|&d| kind(d) != NodeKind::Attr) {
                    push(self, d, out)?;
                }
            }
            Axis::SelfAxis => push(self, p, out)?,
            Axis::Parent => {
                if s.parent[p as usize] != NO_PARENT {
                    push(self, s.parent[p as usize], out)?;
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf {
                    push(self, p, out)?;
                }
                let mut chain = Vec::new();
                let mut cur = p;
                while s.parent[cur as usize] != NO_PARENT {
                    cur = s.parent[cur as usize];
                    chain.push(cur);
                }
                // Document order: outermost first.
                for &a in chain.iter().rev() {
                    push(self, a, out)?;
                }
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                let parent = s.parent[p as usize];
                if kind(p) == NodeKind::Attr || parent == NO_PARENT {
                    return Ok(()); // attributes and roots have no siblings
                }
                let content = children(s, parent).filter(|&c| kind(c) != NodeKind::Attr);
                if axis == Axis::FollowingSibling {
                    for c in content.skip_while(|&c| c <= p) {
                        push(self, c, out)?;
                    }
                } else {
                    for c in content.take_while(|&c| c < p) {
                        push(self, c, out)?;
                    }
                }
            }
            Axis::Following | Axis::Preceding => {
                // Visit every row of the document, comparing ranges; this
                // is exactly the navigational cost profile.
                for q in base..=base + size(base) {
                    let keep = if axis == Axis::Following {
                        q > p + size(p)
                    } else {
                        // preceding: ends before we start, not an ancestor.
                        q < p && q + size(q) < p
                    };
                    self.charge(1)?;
                    if keep && kind(q) != NodeKind::Attr && matches(s, q, axis, test) {
                        out.push((slot, NodeId(q - base)));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The children of row `p` in document order, attributes first: each
/// child's subtree is skipped to reach the next.
fn children(s: &DocStore, p: u32) -> impl Iterator<Item = u32> + '_ {
    let end = p + s.size[p as usize];
    let within = move |c: u32| (c <= end).then_some(c);
    std::iter::successors(within(p + 1), move |&c| within(c + s.size[c as usize] + 1))
}

/// Whether row `pre` carries a value satisfying `op literal`: a string
/// literal compares with the `value` column, a number with `data` (the
/// value's decimal cast).
fn literal_holds(s: &DocStore, pre: u32, op: CompOp, literal: &Literal) -> bool {
    match literal {
        Literal::String(lit) => s.value_str(pre).is_some_and(|v| op.test(v.cmp(lit.as_str()))),
        Literal::Number(num) => s.data_val(pre).is_some_and(|d| op.test(d.total_cmp(num))),
    }
}

/// XPath node-test semantics (principal node kind per axis).
fn matches(s: &DocStore, pre: u32, axis: Axis, test: &NodeTest) -> bool {
    let kind = s.kind[pre as usize];
    let name = || s.name_str(pre);
    let principal = if axis == Axis::Attribute { NodeKind::Attr } else { NodeKind::Elem };
    match test {
        NodeTest::Name(n) => kind == principal && name() == Some(n.as_str()),
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
            kind == NodeKind::Pi && t.as_ref().is_none_or(|x| name() == Some(x.as_str()))
        }
        NodeTest::Element(n) => {
            kind == NodeKind::Elem && n.as_ref().is_none_or(|x| name() == Some(x.as_str()))
        }
        NodeTest::AttributeTest(n) => {
            kind == NodeKind::Attr && n.as_ref().is_none_or(|x| name() == Some(x.as_str()))
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
            let (r, stats) = db.eval_with_stats(&core, NavOptions { mode, budget });
            assert_eq!(r.unwrap().len(), 1);
            stats.steps
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

    /// The navigational database is the tabular encoding: 27 bytes of
    /// columns per node plus the interned names and values, no tree and no
    /// `String` per value (the tree it replaced held ≈ 197 B per node).
    /// Whole mode builds no value index; the index adds 12 B per entry.
    #[test]
    fn heap_bytes_per_node_are_the_encodings() {
        use jgi_xml::generate::{generate_xmark, XmarkConfig};
        let mut db = NavDb::new();
        db.add_tree(generate_xmark(XmarkConfig { scale: 0.005, seed: 3 }));
        let nodes = db.store.len() as f64;
        let per_node = db.heap_bytes() as f64 / nodes;
        assert!(per_node <= 45.0, "{per_node:.1} B per node");
        let core = compile_to_core(r#"doc("auction.xml")/descendant::person[@id = "person0"]"#)
            .unwrap();
        db.eval(&core, NavOptions::default()).unwrap();
        assert!(db.value_index.get().is_none(), "whole mode reads no value index");
        db.eval(&core, NavOptions { mode: NavMode::Segmented, ..NavOptions::default() }).unwrap();
        let per_node = db.heap_bytes() as f64 / nodes;
        assert!(per_node <= 52.0, "{per_node:.1} B per node with the value index");
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
