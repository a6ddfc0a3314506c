//! Plan property inference (paper §3.1, Tables 2–5), carried across fires.
//!
//! Properties are inferred over the *shared DAG*: `icols` of a node is the
//! union of what every consumer needs; `set` holds only if *every* consumer
//! path performs duplicate elimination (∧ over parents).
//!
//! A [`Props`] table holds the properties of exactly the nodes reachable
//! from one root; [`Props::advance`] moves it to another root of the same
//! arena at a cost proportional to what differs. `const`, `key` and the
//! column equivalence are **bottom-up** — functions of a node's sub-DAG,
//! which the append-only arena never changes — so a node that stays in the
//! DAG keeps them and only entering nodes (a replacement and its rebuilt
//! ancestors) are derived. `icols`, `set`, below-∪ and the consumer lists
//! are **top-down** — functions of a node's consumers — so they are
//! recomputed, consumers first, for the entering nodes and the nodes that
//! gained or lost a consumer, stopping wherever a value did not change.
//! [`infer`] is the same code advancing an empty table: the transfer
//! functions below are the only statement of Tables 2–5.

use jgi_algebra::pred::pred_cols;
use jgi_algebra::{Col, ColSet, NodeId, Op, Plan, Value};
use std::collections::BinaryHeap;

const NO_SLOT: u32 = u32::MAX;

/// The top-down properties of one node: what its consumers make of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Context {
    /// Table 2: columns strictly required to evaluate the node's upstream
    /// plan.
    pub icols: ColSet,
    /// Table 5: will the node's output undergo duplicate elimination
    /// upstream on every consumer path?
    pub set: bool,
    /// Does the node lie below some ∪? Schema-changing rules are blocked
    /// there, since ∪ requires its inputs' schemas to stay equal.
    pub below_union: bool,
    /// Is some consumer a ∪?
    pub union_parent: bool,
}

/// The inferred properties of one node.
#[derive(Debug, Clone, Default)]
pub struct NodeProps {
    /// Tables 2 and 5, below-∪ (top-down).
    pub ctx: Context,
    /// Table 3: constant columns with their values (bottom-up).
    pub consts: Vec<(Col, Value)>,
    /// Table 4: candidate keys (bottom-up).
    pub keys: Vec<ColSet>,
    /// Column equivalence (engineering extension, see crate docs): the
    /// columns that are *not* the canonical representative of their
    /// equal-in-every-row class, each with that representative. Derived
    /// from duplicating projections and `col = col` predicates; used to
    /// canonicalize references so that the order-isomorphic copies made by
    /// rule (9) stay visible to rule (19).
    pub eq: Vec<(Col, Col)>,
    /// Consumers in the current DAG, one entry per input edge.
    parents: Vec<NodeId>,
    /// Position in [`Props::order`].
    pos: u32,
    /// Rule phases (one bit each) known to have no rewrite for this node
    /// under its current top-down properties.
    settled: u8,
    /// Entered the DAG in the current `advance`; top-down values pending.
    fresh: bool,
    /// Visit mark of the last `order` walk.
    stamp: u32,
}

/// Inferred properties for every node reachable from one root.
#[derive(Debug, Clone, Default)]
pub struct Props {
    root: Option<NodeId>,
    /// `NodeId` → index into `nodes`, `NO_SLOT` for ids outside the DAG.
    slot: Vec<u32>,
    nodes: Vec<NodeProps>,
    free: Vec<u32>,
    /// The DAG in `Plan::topo_order(root)` order.
    order: Vec<NodeId>,
    epoch: u32,
    derived: usize,
    /// What accessors hand out for a node outside the DAG.
    unseen: NodeProps,
}

impl Props {
    /// The root the table currently describes.
    ///
    /// # Panics
    /// Panics on a table that was never advanced to a root.
    pub fn root(&self) -> NodeId {
        self.root.expect("property table has a root")
    }

    /// The DAG under [`Props::root`], in `Plan::topo_order` order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Per-node property derivations performed so far: one per node entering
    /// the DAG (bottom-up) and one per top-down recomputation.
    pub fn derived(&self) -> usize {
        self.derived
    }

    /// All properties of a node (`None` outside the DAG).
    pub fn get(&self, id: NodeId) -> Option<&NodeProps> {
        let s = *self.slot.get(id.0 as usize)?;
        (s != NO_SLOT).then(|| &self.nodes[s as usize])
    }

    /// Mutable properties of a node — for checkers planting false claims.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut NodeProps> {
        let s = *self.slot.get(id.0 as usize)?;
        (s != NO_SLOT).then(|| &mut self.nodes[s as usize])
    }

    fn entry(&self, id: NodeId) -> &NodeProps {
        self.get(id).unwrap_or(&self.unseen)
    }

    fn entry_mut(&mut self, id: NodeId) -> &mut NodeProps {
        self.get_mut(id).expect("node is in the property table")
    }

    /// `icols` of a node (empty if unseen).
    pub fn icols(&self, id: NodeId) -> &ColSet {
        &self.entry(id).ctx.icols
    }

    /// Constant columns of a node.
    pub fn consts(&self, id: NodeId) -> &[(Col, Value)] {
        &self.entry(id).consts
    }

    /// The set of constant column names of a node.
    pub fn const_cols(&self, id: NodeId) -> ColSet {
        ColSet::from_iter(self.consts(id).iter().map(|(c, _)| *c))
    }

    /// Constant value of column `c` at node `id`, if any.
    pub fn const_of(&self, id: NodeId, c: Col) -> Option<&Value> {
        self.consts(id).iter().find(|(cc, _)| *cc == c).map(|(_, v)| v)
    }

    /// Candidate keys of a node.
    pub fn keys(&self, id: NodeId) -> &[ColSet] {
        &self.entry(id).keys
    }

    /// Is `{c}` a key of node `id`?
    pub fn is_single_key(&self, id: NodeId, c: Col) -> bool {
        self.keys(id).iter().any(|k| k.len() == 1 && k.contains(c))
    }

    /// `set` property of a node.
    pub fn set(&self, id: NodeId) -> bool {
        self.entry(id).ctx.set
    }

    /// Does the node have a ∪ ancestor?
    pub fn below_union(&self, id: NodeId) -> bool {
        self.entry(id).ctx.below_union
    }

    /// Is some consumer of the node a ∪?
    pub fn union_parent(&self, id: NodeId) -> bool {
        self.entry(id).ctx.union_parent
    }

    /// Consumers of a node in the current DAG, one entry per input edge.
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        &self.entry(id).parents
    }

    /// Position of a node in [`Props::order`].
    pub(crate) fn pos(&self, id: NodeId) -> u32 {
        self.entry(id).pos
    }

    /// Canonical representative of `c`'s equal-columns class at node `id`.
    pub fn canon(&self, id: NodeId, c: Col) -> Col {
        canon_in(&self.entry(id).eq, c)
    }

    /// Is the node known to have no rewrite in the phase with bit `phase`?
    pub(crate) fn is_settled(&self, id: NodeId, phase: u8) -> bool {
        self.entry(id).settled & phase != 0
    }

    /// Record that the phase with bit `phase` has no rewrite for the node;
    /// forgotten as soon as its top-down properties change.
    pub(crate) fn settle(&mut self, id: NodeId, phase: u8) {
        self.entry_mut(id).settled |= phase;
    }

    /// Move the table to the DAG under `root` (a node of the same arena the
    /// table was built over): derive the nodes that enter, drop the nodes
    /// that leave, re-propagate the top-down properties from both.
    pub fn advance(&mut self, plan: &Plan, root: NodeId) {
        let old_root = self.root.replace(root);
        if self.slot.len() <= root.0 as usize {
            self.slot.resize(root.0 as usize + 1, NO_SLOT);
        }
        // Node ids are topological (inputs precede consumers), so popping
        // the largest id first visits consumers before their inputs.
        let mut dirty: BinaryHeap<NodeId> = BinaryHeap::new();

        // Enter: post-order over the nodes not yet in the table. A node in
        // the table has its whole sub-DAG there, so the walk stops at it.
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                let (consts, keys) = derive_const_key(plan, self, id);
                let eq = derive_eq(plan, self, id);
                let e = self.entry_mut(id);
                (e.consts, e.keys, e.eq) = (consts, keys, eq);
                for &i in plan.node(id).inputs {
                    self.entry_mut(i).parents.push(id);
                    dirty.push(i);
                }
                dirty.push(id);
                self.derived += 1;
            } else if self.slot[id.0 as usize] == NO_SLOT {
                let s = self.free.pop().unwrap_or_else(|| {
                    self.nodes.push(NodeProps::default());
                    self.nodes.len() as u32 - 1
                });
                self.nodes[s as usize] = NodeProps { fresh: true, ..NodeProps::default() };
                self.slot[id.0 as usize] = s;
                stack.push((id, true));
                stack.extend(plan.node(id).inputs.iter().map(|&i| (i, false)));
            }
        }

        // Leave: the old root is unreachable unless an entering node
        // consumes it; a node that loses its last consumer follows.
        let mut dead: Vec<NodeId> = old_root
            .filter(|&old| old != root && self.entry(old).parents.is_empty())
            .into_iter()
            .collect();
        while let Some(d) = dead.pop() {
            for &i in plan.node(d).inputs {
                let parents = &mut self.entry_mut(i).parents;
                let k = parents.iter().position(|&p| p == d).expect("consumer edge is recorded");
                parents.swap_remove(k);
                if parents.is_empty() && i != root {
                    dead.push(i);
                } else {
                    dirty.push(i);
                }
            }
            let s = std::mem::replace(&mut self.slot[d.0 as usize], NO_SLOT);
            self.free.push(s);
        }

        // Top-down, consumers first; stop where nothing changed.
        while let Some(id) = dirty.pop() {
            while dirty.peek() == Some(&id) {
                dirty.pop();
            }
            if self.get(id).is_none() {
                continue; // left the DAG after it was marked
            }
            let ctx = self.context(plan, id);
            let e = self.entry_mut(id);
            let was_fresh = std::mem::take(&mut e.fresh);
            if was_fresh || ctx != e.ctx {
                e.ctx = ctx;
                e.settled = 0;
                if !was_fresh {
                    // (An entering node marked its inputs already.)
                    dirty.extend(plan.node(id).inputs.iter().copied());
                }
            }
            // An entering node was counted when it was derived bottom-up.
            self.derived += usize::from(!was_fresh);
        }

        // The scan order of the rules: exactly `plan.topo_order(root)`.
        self.epoch += 1;
        self.order.clear();
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            let s = self.slot[id.0 as usize] as usize;
            if expanded {
                self.nodes[s].pos = self.order.len() as u32;
                self.order.push(id);
            } else if self.nodes[s].stamp != self.epoch {
                self.nodes[s].stamp = self.epoch;
                stack.push((id, true));
                stack.extend(plan.node(id).inputs.iter().map(|&i| (i, false)));
            }
        }
    }

    /// Tables 2 and 5 plus below-∪ for one node: what its consumers, whose
    /// own top-down properties are final, ask of it. The root seeds the
    /// lattices (nothing required, no duplicate elimination upstream).
    fn context(&self, plan: &Plan, id: NodeId) -> Context {
        let mut ctx = Context { set: self.root != Some(id), ..Context::default() };
        let mut need: Vec<Col> = Vec::new();
        let schema = plan.schema(id);
        for &p in &self.entry(id).parents {
            let (node, mine) = (plan.node(p), self.entry(p));
            let is_union = matches!(node.op, Op::Union);
            ctx.union_parent |= is_union;
            ctx.below_union |= is_union || mine.ctx.below_union;
            // Table 5. Row ids observe multiplicity, so duplicates may never
            // be removed below a #; a bag union preserves them on both sides.
            ctx.set &= match node.op {
                Op::Serialize { .. } | Op::RowId(_) => false,
                Op::Distinct => true,
                _ => mine.ctx.set,
            };
            // Table 2.
            let icols = mine.ctx.icols.iter();
            match &node.op {
                Op::Serialize { item, pos } => need.extend(icols.chain([*item, *pos])),
                Op::Project(mapping) => need.extend(
                    mapping
                        .iter()
                        .filter(|(out, _)| mine.ctx.icols.contains(*out))
                        .map(|(_, src)| *src),
                ),
                Op::Select(p) => need.extend(icols.chain(pred_cols(p).iter())),
                Op::Join(p) => {
                    need.extend(icols.chain(pred_cols(p).iter()).filter(|c| schema.contains(*c)))
                }
                Op::Cross => need.extend(icols.filter(|c| schema.contains(*c))),
                Op::Distinct | Op::Union => need.extend(icols),
                Op::Attach(c, _) | Op::RowId(c) => need.extend(icols.filter(|x| x != c)),
                Op::Rank { out, by } => {
                    need.extend(icols.filter(|x| x != out).chain(by.iter().copied()))
                }
                Op::Doc | Op::Lit { .. } => {}
            }
        }
        ctx.icols = ColSet::from_iter(need);
        ctx
    }

    /// First node (in scan order) on which this table and `reference`
    /// disagree, with the name of the property — `None` when both describe
    /// the same DAG identically.
    pub fn first_mismatch(&self, reference: &Props) -> Option<(NodeId, &'static str)> {
        if self.root != reference.root || self.order != reference.order {
            return Some((reference.root(), "reachable nodes"));
        }
        let sorted = |v: &[NodeId]| {
            let mut v = v.to_vec();
            v.sort();
            v
        };
        self.order.iter().find_map(|&id| {
            let (a, b) = (self.entry(id), reference.entry(id));
            let differs = [
                ("icols", a.ctx.icols != b.ctx.icols),
                ("const", a.consts != b.consts),
                ("key", a.keys != b.keys),
                ("set", a.ctx.set != b.ctx.set),
                ("eq", a.eq != b.eq),
                ("below-union", a.ctx != b.ctx),
                ("consumers", sorted(&a.parents) != sorted(&b.parents)),
            ];
            differs.into_iter().find(|(_, d)| *d).map(|(what, _)| (id, what))
        })
    }
}

/// Infer all properties for the DAG under `root`: a table carried over
/// from nothing.
pub fn infer(plan: &Plan, root: NodeId) -> Props {
    let mut props = Props::default();
    props.advance(plan, root);
    props
}

fn canon_in(eq: &[(Col, Col)], c: Col) -> Col {
    eq.iter().find(|(x, _)| *x == c).map_or(c, |(_, rep)| *rep)
}

/// The representative of the class named `key`, `member` founding the class
/// if it is the first of it.
fn class_rep<K: PartialEq>(first: &mut Vec<(K, Col)>, key: K, member: Col) -> Col {
    match first.iter().find(|(k, _)| *k == key) {
        Some((_, rep)) => *rep,
        None => {
            first.push((key, member));
            member
        }
    }
}

/// The equal-columns classes of one node from those of its inputs
/// (bottom-up): every column that is not its class's representative, with
/// the representative.
fn derive_eq(plan: &Plan, props: &Props, id: NodeId) -> Vec<(Col, Col)> {
    let node = plan.node(id);
    let input_eq = |k: usize| props.entry(node.inputs[k]).eq.as_slice();
    let mut eq: Vec<(Col, Col)> = match &node.op {
        Op::Project(m) => {
            // Outputs whose sources are equal in the input are equal; the
            // first output of a class represents it.
            let inp = input_eq(0);
            let mut first = Vec::new();
            m.iter()
                .filter_map(|(out, src)| {
                    let rep = class_rep(&mut first, canon_in(inp, *src), *out);
                    (rep != *out).then_some((*out, rep))
                })
                .collect()
        }
        Op::Select(_)
        | Op::Distinct
        | Op::Serialize { .. }
        | Op::Attach(..)
        | Op::RowId(_)
        | Op::Rank { .. } => input_eq(0).to_vec(),
        Op::Join(_) | Op::Cross => [input_eq(0), input_eq(1)].concat(),
        Op::Doc | Op::Lit { .. } => Vec::new(),
        Op::Union => {
            // c ~ d in the union iff c ~ d in both branches; the smallest
            // column of a class represents it.
            let (e1, e2) = (input_eq(0), input_eq(1));
            let mut first = Vec::new();
            plan.schema(id)
                .iter()
                .filter_map(|c| {
                    let rep = class_rep(&mut first, (canon_in(e1, c), canon_in(e2, c)), c);
                    (rep != c).then_some((c, rep))
                })
                .collect()
        }
    };
    // Merge classes connected by col=col equality predicates.
    if let Op::Select(p) | Op::Join(p) = &node.op {
        for (a, b) in p.iter().filter_map(|atom| atom.as_col_eq()) {
            let (ra, rb) = (canon_in(&eq, a), canon_in(&eq, b));
            if ra != rb {
                let (keep, gone) = if ra < rb { (ra, rb) } else { (rb, ra) };
                for (_, rep) in &mut eq {
                    if *rep == gone {
                        *rep = keep;
                    }
                }
                eq.push((gone, keep));
            }
        }
    }
    eq
}

/// Tables 3 and 4 for one node from its inputs (bottom-up).
fn derive_const_key(plan: &Plan, props: &Props, id: NodeId) -> (Vec<(Col, Value)>, Vec<ColSet>) {
    let (consts, mut keys) = infer_up(plan, props, plan.node(id));
    // Constant columns discriminate nothing: a key stays a key when its
    // constant members are dropped (engineering refinement of Table 4).
    let const_set = ColSet::from_iter(consts.iter().map(|(c, _)| *c));
    let extra: Vec<ColSet> = keys
        .iter()
        .filter(|k| !k.intersect(&const_set).is_empty())
        .map(|k| k.minus(&const_set))
        .filter(|k| !k.is_empty() && !keys.contains(k))
        .collect();
    keys.extend(extra);
    keys.sort_by_key(|k| k.len());
    keys.dedup();
    (consts, keys)
}

/// Table 3/4 transfer function of one operator.
fn infer_up(
    plan: &Plan,
    props: &Props,
    node: jgi_algebra::Node,
) -> (Vec<(Col, Value)>, Vec<ColSet>) {
    let input_consts = |k: usize| props.consts(node.inputs[k]);
    let input_keys = |k: usize| props.keys(node.inputs[k]);
    match node.op {
        Op::Serialize { .. } | Op::Select(_) | Op::Distinct => {
            let mut keys = input_keys(0).to_vec();
            if matches!(node.op, Op::Distinct) {
                // After δ the full schema is a key (Table 4).
                let schema = plan.schema(node.inputs[0]).clone();
                if !keys.contains(&schema) {
                    keys.push(schema);
                }
            }
            (input_consts(0).to_vec(), keys)
        }
        Op::Project(mapping) => {
            let ic = input_consts(0);
            let mut consts = Vec::new();
            for (out, src) in mapping {
                if let Some((_, v)) = ic.iter().find(|(c, _)| c == src) {
                    consts.push((*out, v.clone()));
                }
            }
            // A key survives if all its columns are projected; pick the
            // first output alias per source column.
            let mut keys = Vec::new();
            for k in input_keys(0) {
                let mut renamed = ColSet::new();
                let mut ok = true;
                for c in k.iter() {
                    match mapping.iter().find(|(_, src)| *src == c) {
                        Some((out, _)) => renamed.insert(*out),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && !keys.contains(&renamed) {
                    keys.push(renamed);
                }
            }
            (consts, keys)
        }
        Op::Join(p) => {
            let consts = [input_consts(0), input_consts(1)].concat();
            let k1 = input_keys(0);
            let k2 = input_keys(1);
            let mut keys = Vec::new();
            // Table 4's refined inference applies to single-atom equi-joins.
            let eq = if p.len() == 1 { p[0].as_col_eq() } else { None };
            if let Some((a, b)) = eq {
                // Orient: a on the left input, b on the right.
                let (a, b) = if plan.schema(node.inputs[0]).contains(a) { (a, b) } else { (b, a) };
                let a_key = k1.iter().any(|k| k.len() == 1 && k.contains(a));
                let b_key = k2.iter().any(|k| k.len() == 1 && k.contains(b));
                if b_key {
                    keys.extend(k1.iter().cloned()); // {k1 | {b} ∈ e2.key}
                }
                if a_key {
                    keys.extend(k2.iter().cloned()); // {k2 | {a} ∈ e1.key}
                }
                if b_key {
                    for ka in k1 {
                        for kb in k2 {
                            let mut k = ka.clone();
                            k.remove(a);
                            let k = k.union(kb);
                            keys.push(k);
                        }
                    }
                }
                if a_key {
                    for ka in k1 {
                        for kb in k2 {
                            let mut k = kb.clone();
                            k.remove(b);
                            let k = ka.union(&k);
                            keys.push(k);
                        }
                    }
                }
            }
            for ka in k1 {
                for kb in k2 {
                    keys.push(ka.union(kb));
                }
            }
            keys.sort_by_key(|k| k.len());
            keys.dedup();
            keys.truncate(16); // cap combinatorial growth
            (consts, keys)
        }
        Op::Cross => {
            let consts = [input_consts(0), input_consts(1)].concat();
            let mut keys = Vec::new();
            for ka in input_keys(0) {
                for kb in input_keys(1) {
                    keys.push(ka.union(kb));
                }
            }
            keys.truncate(16);
            (consts, keys)
        }
        Op::Attach(c, v) => {
            let mut consts = input_consts(0).to_vec();
            consts.push((*c, v.clone()));
            (consts, input_keys(0).to_vec())
        }
        Op::RowId(c) => {
            let mut keys = input_keys(0).to_vec();
            keys.push(ColSet::single(*c));
            (input_consts(0).to_vec(), keys)
        }
        Op::Rank { out, by } => {
            let mut keys = input_keys(0).to_vec();
            let by_set = ColSet::from_iter(by.iter().copied());
            let extra: Vec<ColSet> = keys
                .iter()
                .filter(|k| !k.intersect(&by_set).is_empty())
                .map(|k| {
                    let mut nk = k.minus(&by_set);
                    nk.insert(*out);
                    nk
                })
                .collect();
            keys.extend(extra);
            keys.sort_by_key(|k| k.len());
            keys.dedup();
            keys.truncate(16);
            (input_consts(0).to_vec(), keys)
        }
        Op::Doc => {
            let pre = Col(plan.cols.get("pre").expect("doc plan has pre"));
            (Vec::new(), vec![ColSet::single(pre)])
        }
        Op::Lit { cols, rows } => {
            let mut consts = Vec::new();
            let mut keys = Vec::new();
            for (i, &c) in cols.iter().enumerate() {
                if let Some(first) = rows.first() {
                    if rows.iter().all(|r| r[i] == first[i]) {
                        consts.push((c, first[i].clone()));
                    }
                }
                let mut vals: Vec<&Value> = rows.iter().map(|r| &r[i]).collect();
                vals.sort();
                vals.dedup();
                if vals.len() == rows.len() {
                    keys.push(ColSet::single(c));
                }
            }
            if rows.len() <= 1 {
                // Every column set keys a 0/1-row table; singles suffice.
                for &c in cols {
                    let s = ColSet::single(c);
                    if !keys.contains(&s) {
                        keys.push(s);
                    }
                }
            }
            (consts, keys)
        }
        Op::Union => {
            // Constants must agree across both branches; keys don't survive.
            let c1 = input_consts(0);
            let c2 = input_consts(1);
            let consts = c1
                .iter()
                .filter(|(c, v)| c2.iter().any(|(c2, v2)| c2 == c && v2 == v))
                .cloned()
                .collect();
            (consts, Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::pred::{Atom, CmpOp, Scalar};

    /// Build:  serialize(rank(distinct(project(attach(lit)))))
    #[test]
    fn end_to_end_property_flow() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let item = p.col("item");
        let pos = p.col("pos");
        let lit = p.lit(
            vec![iter, item],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
            ],
        );
        let att = p.attach(lit, pos, Value::Int(1));
        let root = p.serialize(att, item, pos);
        let props = infer(&p, root);

        // iter is constant 1 in the literal; pos constant from attach.
        assert_eq!(props.const_of(lit, iter), Some(&Value::Int(1)));
        assert_eq!(props.const_of(att, pos), Some(&Value::Int(1)));
        // item is unique -> single-column key.
        assert!(props.is_single_key(lit, item));
        assert!(!props.is_single_key(lit, iter));
        // serialize needs item and pos from its input.
        let icols = props.icols(att);
        assert!(icols.contains(item) && icols.contains(pos));
        // No duplicate elimination upstream of the root.
        assert!(!props.set(att));
    }

    #[test]
    fn icols_through_select_and_project() {
        let mut p = Plan::new();
        let d = p.doc();
        let kind = p.col("kind");
        let pre = p.col("pre");
        let item = p.col("item");
        let pos = p.col("pos");
        let sel = p.select(
            d,
            vec![Atom::col_eq_const(kind, Value::Kind(jgi_xml::NodeKind::Elem))],
        );
        let proj = p.project(sel, vec![(item, pre), (pos, pre)]);
        let root = p.serialize(proj, item, pos);
        let props = infer(&p, root);
        // The selection needs kind (its predicate) plus pre (for the π).
        let icols = props.icols(d);
        assert!(icols.contains(kind));
        assert!(icols.contains(pre));
        assert!(!icols.contains(p.cols.get("value").map(Col).unwrap()));
        // doc's key is pre; the π transfers it to item/pos.
        assert!(props.is_single_key(d, pre));
        assert!(props.is_single_key(proj, item));
    }

    #[test]
    fn set_property_under_distinct_and_rowid() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let item = p.col("item");
        let pos = p.col("pos");
        let lit = p.lit(vec![iter, item], vec![vec![Value::Int(1), Value::Int(5)]]);
        let dd = p.distinct(lit);
        let att = p.attach(dd, pos, Value::Int(1));
        let root = p.serialize(att, item, pos);
        let props = infer(&p, root);
        assert!(props.set(lit), "below δ duplicates don't matter");
        assert!(!props.set(dd), "above δ they do (root serializes)");

        // With a rowid in between, set is false below it.
        let mut p2 = Plan::new();
        let iter = p2.col("iter");
        let item = p2.col("item");
        let pos = p2.col("pos");
        let inner = p2.col("inner");
        let lit = p2.lit(vec![iter, item, pos], vec![]);
        let rid = p2.row_id(lit, inner);
        let dd = p2.distinct(rid);
        let root = p2.serialize(dd, item, pos);
        let props2 = infer(&p2, root);
        assert!(!props2.set(lit), "# observes multiplicity");
    }

    #[test]
    fn set_is_conjunctive_over_consumers() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let item = p.col("item");
        let pos = p.col("pos");
        let iter2 = p.col("iter2");
        let lit = p.lit(vec![iter, item, pos], vec![]);
        // Consumer 1: distinct (would set true); consumer 2: plain project
        // into the root (sets false). Conjunction: false.
        let dd = p.distinct(lit);
        let renamed = p.project(dd, vec![(iter2, iter)]);
        let joined = p.join(lit, renamed, vec![Atom::col_eq(iter, iter2)]);
        let root = p.serialize(joined, item, pos);
        let props = infer(&p, root);
        assert!(!props.set(lit));
    }

    /// serialize(∪(rank(distinct(lit)), π(lit′))) with a shared literal.
    fn union_plan() -> (Plan, NodeId, NodeId) {
        let mut p = Plan::new();
        let [item, pos, junk] = ["item", "pos", "junk"].map(|n| p.col(n));
        let lit = p.lit(vec![item], vec![vec![Value::Int(3)], vec![Value::Int(3)]]);
        let att = p.attach(lit, junk, Value::Int(0));
        let dd = p.distinct(att);
        let rk = p.rank(dd, pos, vec![item]);
        let other = p.project(rk, vec![(item, item), (junk, junk), (pos, item)]);
        let u = p.union(rk, other);
        let root = p.serialize(u, item, pos);
        (p, root, att)
    }

    #[test]
    fn advancing_equals_inferring_afresh() {
        let (mut p, root, att) = union_plan();
        let mut props = infer(&p, root);
        assert!(props.below_union(att) && !props.union_parent(att));
        let derived = props.derived();
        assert_eq!(derived, props.order().len(), "one derivation per node from nothing");

        // Replace the attach below the ∪; every ancestor is rebuilt.
        let junk = p.col("junk");
        let lit = p.node(att).inputs[0];
        let new = p.attach(lit, junk, Value::Int(1));
        let (new_root, rebuilt) = crate::rules::substitute(&mut p, &props, att, new);
        assert_eq!(rebuilt, 5);
        props.advance(&p, new_root);
        assert_eq!(props.first_mismatch(&infer(&p, new_root)), None);
        assert!(props.get(att).is_none(), "the table holds the current DAG only");
        // Rebuilt nodes below the rebuilt ∪ know where they are.
        let rebuilt_distinct = props.parents(new)[0];
        assert!(matches!(p.node(rebuilt_distinct).op, Op::Distinct));
        assert!(props.below_union(rebuilt_distinct));
        // The shared literal kept its bottom-up values and was not re-derived:
        // the fire cost the replacement, its ancestors and the literal's
        // top-down refresh.
        assert_eq!(props.derived() - derived, 1 + 5 + 1);

        // Going back revives the old nodes and drops the new ones.
        props.advance(&p, root);
        assert_eq!(props.first_mismatch(&infer(&p, root)), None);
        assert!(props.get(new).is_none());
    }

    #[test]
    fn first_mismatch_names_node_and_property() {
        let (p, root, att) = union_plan();
        let reference = infer(&p, root);
        let mut props = infer(&p, root);
        props.get_mut(att).unwrap().ctx.below_union = false;
        assert_eq!(props.first_mismatch(&reference), Some((att, "below-union")));
        let mut props = infer(&p, root);
        props.get_mut(att).unwrap().consts.clear();
        assert_eq!(props.first_mismatch(&reference), Some((att, "const")));
    }

    #[test]
    fn join_key_inference_single_atom() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let iter = p.col("iter");
        let lit = p.lit(
            vec![iter, item],
            vec![vec![Value::Int(1), Value::Int(3)], vec![Value::Int(2), Value::Int(3)]],
        );
        // iter unique; item not. Join doc.pre = lit.item: doc side key {pre}
        // is an equi-key, so lit keys survive.
        let j = p.join(d, lit, vec![Atom::col_eq(pre, item)]);
        let pos = p.col("pos");
        let att = p.attach(j, pos, Value::Int(1));
        let root = p.serialize(att, item, pos);
        let props = infer(&p, root);
        assert!(props.is_single_key(j, iter), "keys: {:?}", props.keys(j));
    }

    #[test]
    fn rank_key_extension() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let item = p.col("item");
        let pos = p.col("pos");
        let lit = p.lit(
            vec![iter, item],
            vec![vec![Value::Int(1), Value::Int(9)], vec![Value::Int(2), Value::Int(8)]],
        );
        let r = p.rank(lit, pos, vec![item]);
        let root = p.serialize(r, item, pos);
        let props = infer(&p, root);
        // {item} was a key and item ∈ by ⇒ {pos} becomes a key.
        assert!(props.is_single_key(r, pos), "keys: {:?}", props.keys(r));
    }

    #[test]
    fn non_equi_join_unions_keys() {
        let mut p = Plan::new();
        let a = p.col("a");
        let b = p.col("b");
        let l1 = p.lit(vec![a], vec![vec![Value::Int(1)]]);
        let l2 = p.lit(vec![b], vec![vec![Value::Int(2)]]);
        let j = p.join(
            l1,
            l2,
            vec![Atom::new(Scalar::col(a), CmpOp::Lt, Scalar::col(b))],
        );
        let pos = p.col("pos");
        let att = p.attach(j, pos, Value::Int(1));
        let root = p.serialize(att, a, pos);
        let props = infer(&p, root);
        assert!(props.keys(j).iter().any(|k| k.contains(a) && k.contains(b))
            || props.is_single_key(j, a));
    }
}
