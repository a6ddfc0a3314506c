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
//! A rebuilt ancestor — its old node's operator over changed inputs, with
//! every consumer rebuilt too — is not entered but *renamed*: it takes its
//! old node's entry, consumers (renamed) and context included, and
//! re-derives only what its changed inputs can change.
//! [`infer`] is the same code advancing an empty table: the transfer
//! functions below are the only statement of Tables 2–5.
//!
//! A table interns its property values: a node holds one id for its
//! bottom-up values and one for its [`Context`], and each transfer function
//! is evaluated once per distinct argument — `(operator, input schemas,
//! input bottom-up ids)` bottom-up; top-down, `(node schema, consumer
//! operator, consumer context id)` per consumer edge and `(context id,
//! context id)` per lattice join of two edges. Everything else is integer
//! lookups, and "did the value change" is an id comparison.

use jgi_algebra::pred::pred_cols;
use jgi_algebra::{Col, ColSet, IdMap, NodeId, Op, OpId, Plan, SchemaId, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

const NO_SLOT: u32 = u32::MAX;
const NO_NODE: NodeId = NodeId(u32::MAX);

/// Does `new`, built from `old` under the same operator, have `old`'s
/// bottom-up memo key — inputs of the same schemas and bottom-up values?
/// `same_up(w, i)` compares the values of `old`'s input `w` and `new`'s
/// input `i` in the same slot (called only where the two differ).
pub(crate) fn same_up_key(
    plan: &Plan,
    old: NodeId,
    new: NodeId,
    mut same_up: impl FnMut(NodeId, NodeId) -> bool,
) -> bool {
    let (was, is) = (plan.node(old).inputs, plan.node(new).inputs);
    plan.op_id(old) == plan.op_id(new)
        && was.iter().zip(is).all(|(&w, &i)| {
            w == i || plan.schema_id(w) == plan.schema_id(i) && same_up(w, i)
        })
}

/// Does a node built with its old node's bottom-up memo key
/// ([`same_up_key`]), under its old node's top-down properties, keep its
/// old node's house-cleaning verdict? Yes, unless its house rules read the
/// structure below its inputs: (1) and (2c), at × and #. ((2b) and (7) at
/// a π read only its input's schema and its `icols`.)
pub(crate) fn keeps_house_verdict(op: &Op) -> bool {
    !matches!(op, Op::Cross | Op::RowId(_))
}

/// The top-down properties of one node: what its consumers make of it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
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

/// The bottom-up properties of one node: functions of its sub-DAG.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BottomUp {
    /// Table 3: constant columns with their values.
    pub consts: Vec<(Col, Value)>,
    /// Table 4: candidate keys.
    pub keys: Vec<ColSet>,
    /// Column equivalence (engineering extension, see crate docs): the
    /// columns that are *not* the canonical representative of their
    /// equal-in-every-row class, each with that representative. Derived
    /// from duplicating projections and `col = col` predicates; used to
    /// canonicalize references so that the order-isomorphic copies made by
    /// rule (9) stay visible to rule (19).
    pub eq: Vec<(Col, Col)>,
}

/// Everything a table claims about one node, as [`Props::plant`] hands it
/// out for editing.
#[derive(Debug, Clone)]
pub struct Claims {
    /// Tables 2 and 5, below-∪.
    pub ctx: Context,
    /// Tables 3 and 4, column equivalence.
    pub up: BottomUp,
}

// Id 0 of either pool is the default value: what a node outside the DAG
// reads, and the context the root is seeded with.
const CTX_ROOT: u32 = 0;
/// The context id of a node nobody consumes below the root: the identity
/// of the join over consumer edges.
const CTX_TOP: u32 = 1;

/// One node's entry: interned property ids and the DAG bookkeeping.
#[derive(Debug, Clone, Default)]
struct NodeProps {
    /// Interned [`BottomUp`] value.
    up: u32,
    /// Interned [`Context`] value.
    ctx: u32,
    /// Consumers in the current DAG, one entry per input edge.
    parents: Vec<NodeId>,
    /// Position in [`Props::order`].
    pos: u32,
    /// House-cleaning found no rewrite for this node under its current
    /// top-down properties.
    settled: bool,
    /// Entered the DAG in the current `advance`; top-down values pending.
    fresh: bool,
    /// Visit mark of the last `order` walk.
    stamp: u32,
}

/// Values interned once, each stored once: `by_hash` maps a hash to the
/// newest id with that hash, and `older` chains the ids sharing it. Values
/// equal under `Eq` are one value (so a constant `1` and `1.0` are one
/// claim, as they are one operator in the plan's own memo).
#[derive(Debug, Clone)]
struct Pool<T> {
    values: Vec<T>,
    by_hash: IdMap<u64, u32>,
    older: Vec<u32>,
}

impl<T: Hash + Eq> Pool<T> {
    fn new(first: impl IntoIterator<Item = T>) -> Self {
        let mut pool = Pool { values: Vec::new(), by_hash: IdMap::default(), older: Vec::new() };
        for value in first {
            pool.intern(value);
        }
        pool
    }

    fn get(&self, id: u32) -> &T {
        &self.values[id as usize]
    }

    fn intern(&mut self, value: T) -> u32 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        let h = h.finish();
        let newest = self.by_hash.get(&h).copied().unwrap_or(NO_SLOT);
        let mut id = newest;
        while id != NO_SLOT {
            if self.values[id as usize] == value {
                return id;
            }
            id = self.older[id as usize];
        }
        let id = self.values.len() as u32;
        self.values.push(value);
        self.older.push(newest);
        self.by_hash.insert(h, id);
        id
    }
}

/// The id of `key`'s value: the memo's, or `compute`d from the pool and
/// interned — a transfer-function evaluation, counted in `computed`.
fn memoised<K: Hash + Eq, T: Hash + Eq>(
    memo: &mut IdMap<K, u32>,
    pool: &mut Pool<T>,
    computed: &mut usize,
    lookup: bool,
    key: K,
    compute: impl FnOnce(&Pool<T>) -> T,
) -> u32 {
    if lookup {
        if let Some(&hit) = memo.get(&key) {
            return hit;
        }
    }
    *computed += 1;
    let id = pool.intern(compute(pool));
    memo.insert(key, id);
    id
}

/// A table's interned values and the memos of its transfer functions.
#[derive(Debug, Clone)]
struct Memo {
    ups: Pool<BottomUp>,
    ctxs: Pool<Context>,
    /// Tables 3/4 and column equivalence: `(operator, input schemas where
    /// the operator reads them, input bottom-up ids)` → bottom-up id.
    up: IdMap<(OpId, [SchemaId; 2], [u32; 2]), u32>,
    /// One consumer edge of Tables 2/5 and below-∪: `(node schema if the
    /// consumer reads it, consumer operator, consumer context id)` →
    /// context id.
    edge: IdMap<(SchemaId, OpId, u32), u32>,
    /// The join of two context ids, the smaller first.
    join: IdMap<(u32, u32), u32>,
    /// Consult the memos; `false` evaluates every transfer function (the
    /// reference of [`Props::cross_check`]).
    lookup: bool,
    /// Transfer-function evaluations: memo misses.
    computed: usize,
}

impl Default for Memo {
    fn default() -> Self {
        Memo {
            ups: Pool::new([BottomUp::default()]),
            ctxs: Pool::new([Context::default(), Context { set: true, ..Context::default() }]),
            up: IdMap::default(),
            edge: IdMap::default(),
            join: IdMap::default(),
            lookup: true,
            computed: 0,
        }
    }
}

/// The work lists of [`Props::advance`], empty between calls and kept for
/// their capacity.
#[derive(Debug, Clone, Default)]
struct Scratch {
    dirty: BinaryHeap<NodeId>,
    stack: Vec<(NodeId, bool)>,
    dead: Vec<NodeId>,
    /// The nodes not in the table that the new root reaches, inputs first.
    enter: Vec<NodeId>,
    /// Renamed nodes whose bottom-up value changed, with the old one.
    up_was: IdMap<NodeId, u32>,
}

/// Inferred properties for every node reachable from one root.
#[derive(Debug, Clone, Default)]
pub struct Props {
    root: Option<NodeId>,
    /// `NodeId` → index into `nodes`, `NO_SLOT` for ids outside the DAG.
    slot: Vec<u32>,
    /// During [`Props::advance`], `NodeId` → the other node of a rename:
    /// an old node offered for renaming or renamed away, and a renamed new
    /// node; `NO_NODE` for every other id, and between calls.
    partner: Vec<NodeId>,
    nodes: Vec<NodeProps>,
    free: Vec<u32>,
    /// The DAG in `Plan::topo_order(root)` order.
    order: Vec<NodeId>,
    epoch: u32,
    derived: usize,
    memo: Memo,
    scratch: Scratch,
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

    /// Transfer-function evaluations performed so far: the memo misses
    /// among the bottom-up values, consumer edges and context joins the
    /// derivations asked for.
    pub fn computed(&self) -> usize {
        self.memo.computed
    }

    /// Is the node in the DAG the table describes?
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    fn get(&self, id: NodeId) -> Option<&NodeProps> {
        let s = *self.slot.get(id.0 as usize)?;
        (s != NO_SLOT).then(|| &self.nodes[s as usize])
    }

    fn entry(&self, id: NodeId) -> &NodeProps {
        self.get(id).unwrap_or(&self.unseen)
    }

    fn entry_mut(&mut self, id: NodeId) -> &mut NodeProps {
        let s = self.slot.get(id.0 as usize).copied().unwrap_or(NO_SLOT);
        assert_ne!(s, NO_SLOT, "node is in the property table");
        &mut self.nodes[s as usize]
    }

    fn up(&self, id: NodeId) -> &BottomUp {
        self.memo.ups.get(self.entry(id).up)
    }

    fn ctx(&self, id: NodeId) -> &Context {
        self.memo.ctxs.get(self.entry(id).ctx)
    }

    /// Replace the claims of one node in the DAG by `edit` applied to a
    /// copy of them — for checkers planting false claims. The node alone
    /// changes; nodes that shared its interned values keep theirs.
    pub fn plant(&mut self, id: NodeId, edit: impl FnOnce(&mut Claims)) {
        let mut claims = Claims { ctx: self.ctx(id).clone(), up: self.up(id).clone() };
        edit(&mut claims);
        let (up, ctx) = (self.memo.ups.intern(claims.up), self.memo.ctxs.intern(claims.ctx));
        let e = self.entry_mut(id);
        (e.up, e.ctx) = (up, ctx);
    }

    /// `icols` of a node (empty if unseen).
    pub fn icols(&self, id: NodeId) -> &ColSet {
        &self.ctx(id).icols
    }

    /// Constant columns of a node.
    pub fn consts(&self, id: NodeId) -> &[(Col, Value)] {
        &self.up(id).consts
    }

    /// Constant value of column `c` at node `id`, if any.
    pub fn const_of(&self, id: NodeId, c: Col) -> Option<&Value> {
        self.consts(id).iter().find(|(cc, _)| *cc == c).map(|(_, v)| v)
    }

    /// Candidate keys of a node.
    pub fn keys(&self, id: NodeId) -> &[ColSet] {
        &self.up(id).keys
    }

    /// Is `{c}` a key of node `id`?
    pub fn is_single_key(&self, id: NodeId, c: Col) -> bool {
        self.keys(id).iter().any(|k| k.len() == 1 && k.contains(c))
    }

    /// `set` property of a node.
    pub fn set(&self, id: NodeId) -> bool {
        self.ctx(id).set
    }

    /// Does the node have a ∪ ancestor?
    pub fn below_union(&self, id: NodeId) -> bool {
        self.ctx(id).below_union
    }

    /// Is some consumer of the node a ∪?
    pub fn union_parent(&self, id: NodeId) -> bool {
        self.ctx(id).union_parent
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
        canon_in(&self.up(id).eq, c)
    }

    /// Is the node known to have no house-cleaning rewrite?
    pub(crate) fn is_settled(&self, id: NodeId) -> bool {
        self.entry(id).settled
    }

    /// Record that house-cleaning has no rewrite for the node; forgotten as
    /// soon as its top-down properties change.
    pub(crate) fn settle(&mut self, id: NodeId) {
        self.entry_mut(id).settled = true;
    }

    /// Move the table to the DAG under `root` (a node of the same arena the
    /// table was built over): derive the nodes that enter, drop the nodes
    /// that leave, re-propagate the top-down properties from both.
    ///
    /// `rebuilt` lists `(old, new)` pairs, consumers after their inputs,
    /// where `new` stands in the new DAG where `old` stood in the old one:
    /// an ancestor that substitution rebuilt over changed inputs, or a
    /// position a house-cleaning sweep changed. Such a `new` is not entered
    /// but renamed: it takes `old`'s entry — its consumer list, with the
    /// consumers renamed, and its context, recomputed only if a consumer
    /// edge or its schema changed — and derives its bottom-up value. A
    /// pair is taken only where that is exact: `new` enters the DAG, `old`
    /// leaves it, and every consumer of `old` is renamed; any other pair,
    /// like an empty list, enters and drops nodes one by one.
    pub fn advance(&mut self, plan: &Plan, root: NodeId, rebuilt: &[(NodeId, NodeId)]) {
        let old_root = self.root.replace(root);
        if self.slot.len() <= root.0 as usize {
            self.slot.resize(root.0 as usize + 1, NO_SLOT);
            self.partner.resize(root.0 as usize + 1, NO_NODE);
        }
        // Node ids are topological (inputs precede consumers), so popping
        // the largest id first visits consumers before their inputs.
        let Scratch { mut dirty, mut stack, mut dead, mut enter, mut up_was } =
            std::mem::take(&mut self.scratch);
        for &(old, new) in rebuilt.iter().filter(|(old, new)| old != new) {
            self.partner[old.0 as usize] = new;
        }

        // Enter: post-order over the nodes not yet in the table. A node in
        // the table has its whole sub-DAG there, so the walk stops at it;
        // one the new DAG still reaches stays and is not renamed.
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                enter.push(id);
            } else if self.slot[id.0 as usize] == NO_SLOT {
                let s = self.free.pop().unwrap_or_else(|| {
                    self.nodes.push(NodeProps::default());
                    self.nodes.len() as u32 - 1
                });
                // A reused slot keeps its consumer list's buffer.
                let e = &mut self.nodes[s as usize];
                let mut parents = std::mem::take(&mut e.parents);
                parents.clear();
                *e = NodeProps { fresh: true, parents, ..NodeProps::default() };
                self.slot[id.0 as usize] = s;
                stack.push((id, true));
                stack.extend(plan.node(id).inputs.iter().map(|&i| (i, false)));
            } else if !self.entry(id).fresh {
                self.partner[id.0 as usize] = NO_NODE;
            }
        }

        // Rename, consumers first: a rebuilt node takes its old node's
        // entry. (Only renaming takes slots away here, so a consumer
        // without one was renamed.)
        for &(old, new) in rebuilt.iter().rev() {
            if self.partner[old.0 as usize] != new {
                continue;
            }
            let exact = self.get(old).is_some_and(|e| !e.fresh)
                && self.get(new).is_some_and(|e| e.fresh)
                && self.entry(old).parents.iter().all(|p| self.slot[p.0 as usize] == NO_SLOT);
            if !exact {
                self.partner[old.0 as usize] = NO_NODE;
                continue;
            }
            let s = std::mem::replace(&mut self.slot[new.0 as usize], NO_SLOT);
            self.free.push(s);
            let s = std::mem::replace(&mut self.slot[old.0 as usize], NO_SLOT);
            self.slot[new.0 as usize] = s;
            self.partner[new.0 as usize] = old;
        }

        // Bottom-up, inputs first, and the consumer edges: an entering node
        // adds its own, a renamed one renames or moves its old node's. A
        // renamed node whose memo key is its old node's keeps the value —
        // the memo's answer, found without hashing the key — and its
        // house-cleaning verdict unless that reads the structure below its
        // inputs (a changed context resets it below); any other renamed
        // node forgets the verdict. An entering node counts one
        // derivation for both of its values, a renamed one for its
        // bottom-up value; the top-down pass counts its context only if it
        // recomputes it.
        for &id in &enter {
            let old = Some(self.partner[id.0 as usize]).filter(|&old| old != NO_NODE);
            let kept = old.is_some_and(|old| {
                same_up_key(plan, old, id, |w, i| {
                    let w = self.now(w);
                    up_was.get(&w).copied().unwrap_or(self.entry(w).up) == self.entry(i).up
                })
            });
            if !kept {
                let (was, up) = (self.entry(id).up, self.bottom_up(plan, id));
                self.entry_mut(id).up = up;
                if old.is_some() && up != was {
                    up_was.insert(id, was);
                }
            }
            self.derived += 1;
            if old.is_some() {
                self.entry_mut(id).settled &= kept && keeps_house_verdict(plan.node(id).op);
            }
            match old {
                Some(old) => self.relink(plan, old, id, &mut dirty, &mut dead),
                None => {
                    for &i in plan.node(id).inputs {
                        self.entry_mut(i).parents.push(id);
                        dirty.push(i);
                    }
                    dirty.push(id);
                }
            }
        }

        // Leave: the old root is unreachable unless an entering node
        // consumes it; a node that loses its last consumer follows.
        dead.extend(old_root.filter(|&old| old != root));
        while let Some(d) = dead.pop() {
            if self.get(d).is_none_or(|e| !e.parents.is_empty()) || d == root {
                continue;
            }
            for &i in plan.node(d).inputs {
                let i = self.now(i);
                let parents = &mut self.entry_mut(i).parents;
                let k = parents.iter().position(|&p| p == d).expect("consumer edge is recorded");
                parents.swap_remove(k);
                dead.push(i);
                dirty.push(i);
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
                e.settled = false;
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
        for &(old, new) in rebuilt {
            self.partner[old.0 as usize] = NO_NODE;
            self.partner[new.0 as usize] = NO_NODE;
        }
        enter.clear();
        up_was.clear();
        self.scratch = Scratch { dirty, stack, dead, enter, up_was };
    }

    /// The node that holds the entry of `id` during [`Props::advance`]: its
    /// new node if it was renamed away, else itself.
    fn now(&self, id: NodeId) -> NodeId {
        match self.partner[id.0 as usize] {
            new if new != NO_NODE && self.slot[id.0 as usize] == NO_SLOT => new,
            _ => id,
        }
    }

    /// The consumer edges of `new`, renamed from `old`: an edge into an
    /// input that `new` reads in the same slot as `old` did (under the same
    /// operator) is renamed in place; every other edge of `old` is dropped
    /// and every other edge of `new` added, marking the inputs for the
    /// top-down pass and the dropped ones as possibly dead.
    fn relink(
        &mut self,
        plan: &Plan,
        old: NodeId,
        new: NodeId,
        dirty: &mut BinaryHeap<NodeId>,
        dead: &mut Vec<NodeId>,
    ) {
        let (was, is) = (plan.node(old).inputs, plan.node(new).inputs);
        let same_op = plan.op_id(old) == plan.op_id(new);
        let kept: [bool; 2] =
            std::array::from_fn(|k| same_op && k < is.len() && is[k] == self.now(was[k]));
        let kept = |k: usize| kept[k];
        for (k, &i) in was.iter().enumerate() {
            let i = self.now(i);
            let parents = &mut self.entry_mut(i).parents;
            let at = parents.iter().position(|&p| p == old).expect("consumer edge is recorded");
            if kept(k) {
                parents[at] = new;
            } else {
                parents.swap_remove(at);
                dead.push(i);
                dirty.push(i);
            }
        }
        for (k, &i) in is.iter().enumerate() {
            if !kept(k) {
                self.entry_mut(i).parents.push(new);
                dirty.push(i);
            }
        }
        // A schema change reaches the context through the ⋈ and × edges
        // only, which keep the needed columns the node still has: lost
        // columns it did not need leave the context as it was.
        let (had, has) = (plan.schema(old), plan.schema(new));
        if plan.schema_id(old) != plan.schema_id(new)
            && !(has.is_subset(had) && self.ctx(new).icols.is_subset(has))
        {
            dirty.push(new);
        }
    }

    /// Tables 3/4 and column equivalence for an entering node whose inputs
    /// are in the table.
    fn bottom_up(&mut self, plan: &Plan, id: NodeId) -> u32 {
        let mut ups = [NO_SLOT; 2];
        for (k, &i) in plan.node(id).inputs.iter().enumerate() {
            ups[k] = self.entry(i).up;
        }
        self.derive_up(plan, id, ups)
    }

    /// The interned bottom-up value of node `id` whose inputs have the
    /// values `ups` — a node of the table or not. The memo key is
    /// complete: the transfer functions read the operator, the input
    /// schemas (which fix the node's own) and the inputs' bottom-up values
    /// — besides the arena's fixed `pre`.
    pub(crate) fn derive_up(&mut self, plan: &Plan, id: NodeId, ups: [u32; 2]) -> u32 {
        // Of the input schemas, only the first one's is read: by δ (its
        // key), ⋈ (the orientation of its predicate) and ∪ (its classes).
        let mut schemas = [SchemaId::MAX; 2];
        if matches!(plan.node(id).op, Op::Distinct | Op::Join(_) | Op::Union) {
            schemas[0] = plan.schema_id(plan.node(id).inputs[0]);
        }
        let Memo { ups: pool, up, computed, lookup, .. } = &mut self.memo;
        memoised(up, pool, computed, *lookup, (plan.op_id(id), schemas, ups), |pool| {
            transfer_up(plan, id, &|k| pool.get(ups[k]))
        })
    }

    /// The interned bottom-up value of a node of the table.
    pub(crate) fn up_id(&self, id: NodeId) -> Option<u32> {
        self.get(id).map(|e| e.up)
    }

    /// The interned bottom-up value `up`.
    pub(crate) fn up_value(&self, up: u32) -> &BottomUp {
        self.memo.ups.get(up)
    }

    /// Canonical representative of `c`'s class in the bottom-up value `up`.
    pub(crate) fn canon_up(&self, up: u32, c: Col) -> Col {
        canon_in(&self.memo.ups.get(up).eq, c)
    }

    /// Tables 2 and 5 plus below-∪ for one node: the join, over its
    /// consumer edges, of what each consumer — whose own top-down
    /// properties are final — asks of it. The root seeds the lattices
    /// (nothing required, no duplicate elimination upstream).
    fn context(&mut self, plan: &Plan, id: NodeId) -> u32 {
        let mut acc = (self.root == Some(id)).then_some(CTX_ROOT);
        for k in 0..self.entry(id).parents.len() {
            let p = self.entry(id).parents[k];
            acc = Some(self.join_edge(plan, id, acc, p, self.entry(p).ctx));
        }
        acc.unwrap_or(CTX_TOP)
    }

    /// `acc` joined with what a consumer with node `consumer`'s operator and
    /// the context `mine` asks of node `id`.
    pub(crate) fn join_edge(
        &mut self,
        plan: &Plan,
        id: NodeId,
        acc: Option<u32>,
        consumer: NodeId,
        mine: u32,
    ) -> u32 {
        let Memo { ctxs, edge, join, computed, lookup, .. } = &mut self.memo;
        // Only a ⋈ or × consumer reads the input's schema (Table 2).
        let reads_schema = matches!(plan.node(consumer).op, Op::Join(_) | Op::Cross);
        let schema = if reads_schema { plan.schema_id(id) } else { SchemaId::MAX };
        let e = memoised(edge, ctxs, computed, *lookup, (schema, plan.op_id(consumer), mine), |ctxs| {
            edge_context(plan.node(consumer).op, ctxs.get(mine), plan.schema(id))
        });
        match acc {
            None => e,
            Some(a) if a == e => e,
            Some(a) => {
                let key = (a.min(e), a.max(e));
                memoised(join, ctxs, computed, *lookup, key, |ctxs| {
                    join_contexts(ctxs.get(a), ctxs.get(e))
                })
            }
        }
    }

    /// The interned context of a node of the table.
    pub(crate) fn ctx_id(&self, id: NodeId) -> u32 {
        self.entry(id).ctx
    }

    /// The `icols` of an interned context.
    pub(crate) fn ctx_icols(&self, ctx: u32) -> &ColSet {
        &self.memo.ctxs.get(ctx).icols
    }

    /// Count a derivation made outside [`Props::advance`]: a house-cleaning
    /// sweep derives nodes it builds before they enter the table.
    pub(crate) fn count_derivation(&mut self) {
        self.derived += 1;
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
            let (a, b) = (self.ctx(id), reference.ctx(id));
            let (x, y) = (self.up(id), reference.up(id));
            let differs = [
                ("icols", a.icols != b.icols),
                ("const", x.consts != y.consts),
                ("key", x.keys != y.keys),
                ("set", a.set != b.set),
                ("eq", x.eq != y.eq),
                ("below-union", a.below_union != b.below_union),
                ("union-parent", a.union_parent != b.union_parent),
                ("consumers", sorted(self.parents(id)) != sorted(reference.parents(id))),
            ];
            differs.into_iter().find(|(_, d)| *d).map(|(what, _)| (id, what))
        })
    }

    /// [`Props::first_mismatch`] against a table of the same root whose
    /// every value comes from evaluating the transfer functions, no memo
    /// consulted: what checked mode runs after each fire, so that a memo
    /// entry that differs from direct evaluation is caught where it is used.
    pub fn cross_check(&self, plan: &Plan) -> Option<(NodeId, &'static str)> {
        self.first_mismatch(&infer_direct(plan, self.root()))
    }
}

/// [`infer`] with every value evaluated, no memo consulted.
fn infer_direct(plan: &Plan, root: NodeId) -> Props {
    let mut props = Props::default();
    props.memo.lookup = false;
    props.advance(plan, root, &[]);
    props
}

/// Infer all properties for the DAG under `root`: a table carried over
/// from nothing.
pub fn infer(plan: &Plan, root: NodeId) -> Props {
    let mut props = Props::default();
    props.advance(plan, root, &[]);
    props
}

/// What one consumer edge asks of a node with schema `schema` (Tables 2
/// and 5, below-∪), from the consumer's operator and its own context.
fn edge_context(op: &Op, mine: &Context, schema: &ColSet) -> Context {
    let is_union = matches!(op, Op::Union);
    // Table 5. Row ids observe multiplicity, so duplicates may never be
    // removed below a #; a bag union preserves them on both sides.
    let set = match op {
        Op::Serialize { .. } | Op::RowId(_) => false,
        Op::Distinct => true,
        _ => mine.set,
    };
    // Table 2.
    let icols = mine.icols.iter();
    let icols = match op {
        Op::Serialize { item, pos } => ColSet::from_iter(icols.chain([*item, *pos])),
        Op::Project(mapping) => ColSet::from_iter(
            mapping.iter().filter(|(out, _)| mine.icols.contains(*out)).map(|(_, src)| *src),
        ),
        Op::Select(p) => ColSet::from_iter(icols.chain(pred_cols(p).iter())),
        Op::Join(p) => {
            ColSet::from_iter(icols.chain(pred_cols(p).iter()).filter(|c| schema.contains(*c)))
        }
        Op::Cross => ColSet::from_iter(icols.filter(|c| schema.contains(*c))),
        Op::Distinct | Op::Union => mine.icols.clone(),
        Op::Attach(c, _) | Op::RowId(c) => ColSet::from_iter(icols.filter(|x| x != c)),
        Op::Rank { out, by } => {
            ColSet::from_iter(icols.filter(|x| x != out).chain(by.iter().copied()))
        }
        Op::Doc | Op::Lit { .. } => ColSet::new(),
    };
    Context { icols, set, below_union: is_union || mine.below_union, union_parent: is_union }
}

/// The lattice join of two consumers' demands: `icols` ∪, `set` ∧,
/// below-∪ and ∪-consumer ∨.
fn join_contexts(a: &Context, b: &Context) -> Context {
    Context {
        icols: a.icols.union(&b.icols),
        set: a.set && b.set,
        below_union: a.below_union || b.below_union,
        union_parent: a.union_parent || b.union_parent,
    }
}

/// Tables 3/4 and column equivalence of one node from its inputs'.
fn transfer_up<'a>(plan: &Plan, id: NodeId, input: &dyn Fn(usize) -> &'a BottomUp) -> BottomUp {
    let (consts, keys) = derive_const_key(plan, id, input);
    BottomUp { consts, keys, eq: derive_eq(plan, id, input) }
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
fn derive_eq<'a>(
    plan: &Plan,
    id: NodeId,
    input: &dyn Fn(usize) -> &'a BottomUp,
) -> Vec<(Col, Col)> {
    let node = plan.node(id);
    let input_eq = |k: usize| input(k).eq.as_slice();
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
fn derive_const_key<'a>(
    plan: &Plan,
    id: NodeId,
    input: &dyn Fn(usize) -> &'a BottomUp,
) -> (Vec<(Col, Value)>, Vec<ColSet>) {
    let (consts, mut keys) = infer_up(plan, input, plan.node(id));
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
fn infer_up<'a>(
    plan: &Plan,
    input: &dyn Fn(usize) -> &'a BottomUp,
    node: jgi_algebra::Node,
) -> (Vec<(Col, Value)>, Vec<ColSet>) {
    let input_consts = |k: usize| input(k).consts.as_slice();
    let input_keys = |k: usize| input(k).keys.as_slice();
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
        assert_eq!(rebuilt.len(), 5);
        let root_slot = props.slot[root.0 as usize];
        props.advance(&p, new_root, &rebuilt);
        assert_eq!(props.first_mismatch(&infer(&p, new_root)), None);
        assert_eq!(props.order(), p.topo_order(new_root));
        assert!(!props.contains(att), "the table holds the current DAG only");
        // The rebuilt ancestors were renamed: the root kept its entry.
        assert_eq!(props.slot[new_root.0 as usize], root_slot);
        assert!(!props.contains(root));
        // Rebuilt nodes below the rebuilt ∪ know where they are.
        let rebuilt_distinct = props.parents(new)[0];
        assert!(matches!(p.node(rebuilt_distinct).op, Op::Distinct));
        assert!(props.below_union(rebuilt_distinct));
        // The shared literal kept its bottom-up values and was not re-derived:
        // the fire cost the replacement, the bottom-up value of each renamed
        // ancestor (each kept its context) and the literal's top-down
        // refresh.
        assert_eq!(props.derived() - derived, 1 + 5 + 1);

        // Going back revives the old nodes and drops the new ones.
        props.advance(&p, root, &[]);
        assert_eq!(props.first_mismatch(&infer(&p, root)), None);
        assert!(!props.contains(new));
    }

    /// A sequence of fires that rebuild ancestors, each renamed: a literal
    /// that two operators share is replaced, then by one with fewer
    /// columns (every ancestor up to the π changes schema), then by the
    /// first one again, whose ancestors the table dropped.
    #[test]
    fn renaming_equals_inferring_afresh_over_a_sequence() {
        let mut p = Plan::new();
        let [item, extra, pos, item2] = ["item", "extra", "pos", "item2"].map(|n| p.col(n));
        let rows = |a: i64, b: i64| vec![vec![Value::Int(a), Value::Int(b)]; 2];
        let lit = p.lit(vec![item, extra], rows(1, 2));
        let a = p.attach(lit, pos, Value::Int(1));
        let d = p.distinct(lit);
        let r = p.project(d, vec![(item2, item)]);
        let j = p.join(a, r, vec![Atom::col_eq(item, item2)]);
        let top = p.project(j, vec![(item, item), (pos, pos)]);
        let root = p.serialize(top, item, pos);
        let mut props = infer(&p, root);
        let same_schema = p.lit(vec![item, extra], rows(3, 4));
        let narrower = p.lit(vec![item], vec![vec![Value::Int(5)]]);
        let fires = [(lit, same_schema), (same_schema, narrower), (narrower, lit)];
        for (k, (old, new)) in fires.into_iter().enumerate() {
            let (new_root, rebuilt) = crate::rules::substitute(&mut p, &props, old, new);
            assert_eq!(rebuilt.len(), 6, "fire {k} rebuilds every ancestor");
            let root_slot = props.slot[props.root().0 as usize];
            props.advance(&p, new_root, &rebuilt);
            assert_eq!(props.slot[new_root.0 as usize], root_slot, "fire {k} renames");
            assert_eq!(props.first_mismatch(&infer(&p, new_root)), None, "fire {k}");
            assert_eq!(props.order(), p.topo_order(new_root), "fire {k}");
        }
        assert_eq!(props.root(), root, "the last fire went back to the first plan");
    }

    /// Two pairs renaming cannot take: a rebuild that hash-consing finds in
    /// the DAG already (the old node leaves, its consumers join the held
    /// node), and a π rebuilt over a π, which composes past the
    /// replacement so that the replacement never enters.
    #[test]
    fn renaming_leaves_merges_and_compositions_exact() {
        let mut p = Plan::new();
        let [item, pos, c] = ["item", "pos", "c"].map(|n| p.col(n));
        let lits = [1, 2].map(|v| p.lit(vec![item], vec![vec![Value::Int(v)]]));
        let [a, b] = lits.map(|l| p.attach(l, c, Value::Int(0)));
        let u = p.union(a, b);
        let sel = p.select(u, vec![Atom::col_eq_const(c, Value::Int(0))]);
        let top = p.project(sel, vec![(item, item), (pos, item)]);
        let root = p.serialize(top, item, pos);
        let mut props = infer(&p, root);
        // `a` rebuilt over the second literal is `b`, which the DAG holds.
        let (merged, rebuilt) = crate::rules::substitute(&mut p, &props, lits[0], lits[1]);
        assert_eq!(rebuilt[0], (a, b));
        props.advance(&p, merged, &rebuilt);
        assert_eq!(props.first_mismatch(&infer(&p, merged)), None);
        assert_eq!(props.order(), p.topo_order(merged));
        assert_eq!(props.parents(b).len(), 2, "both ∪ inputs are `b` now");
        // The σ replaced by a π: the π above composes with it.
        let u2 = p.node(props.parents(b)[0]).inputs[0];
        let narrow = p.project(u2, vec![(item, item), (c, c)]);
        let sel2 = props.order()[props.order().len() - 3];
        let (composed, rebuilt) = crate::rules::substitute(&mut p, &props, sel2, narrow);
        assert!(!p.topo_order(composed).contains(&narrow), "the π composed past it");
        props.advance(&p, composed, &rebuilt);
        assert_eq!(props.first_mismatch(&infer(&p, composed)), None);
        assert_eq!(props.order(), p.topo_order(composed));
    }

    #[test]
    fn first_mismatch_names_node_and_property() {
        let (p, root, att) = union_plan();
        let reference = infer(&p, root);
        assert!(!reference.icols(att).is_empty());
        type Edit = fn(&mut Claims);
        let plants: [(&str, Edit); 5] = [
            ("icols", |c| c.ctx.icols = ColSet::new()),
            ("set", |c| c.ctx.set = !c.ctx.set),
            ("below-union", |c| c.ctx.below_union = false),
            ("union-parent", |c| c.ctx.union_parent = true),
            ("const", |c| c.up.consts.clear()),
        ];
        for (what, edit) in plants {
            let mut props = infer(&p, root);
            props.plant(att, edit);
            assert_eq!(props.first_mismatch(&reference), Some((att, what)));
        }
    }

    /// Two one-column literals whose claims coincide (no constant, the
    /// column a key), under a ∪.
    fn twin_literals() -> (Plan, NodeId, [NodeId; 2]) {
        let mut p = Plan::new();
        let [item, pos] = ["item", "pos"].map(|n| p.col(n));
        let lits = [[1, 2], [3, 4]]
            .map(|[a, b]| p.lit(vec![item], vec![vec![Value::Int(a)], vec![Value::Int(b)]]));
        let u = p.union(lits[0], lits[1]);
        let att = p.attach(u, pos, Value::Int(1));
        let root = p.serialize(att, item, pos);
        (p, root, lits)
    }

    #[test]
    fn planting_changes_one_node_of_a_shared_value() {
        let (p, root, [a, b]) = twin_literals();
        let mut props = infer(&p, root);
        assert_eq!(props.entry(a).up, props.entry(b).up, "the twins share one interned value");
        let (keys, consts) = (props.keys(b).to_vec(), props.consts(b).to_vec());
        let item = p.cols.get("item").map(Col).unwrap();
        props.plant(a, |c| {
            c.up.consts.push((item, Value::Int(7)));
            c.up.keys.clear();
            c.ctx.set = true;
        });
        assert_eq!(props.const_of(a, item), Some(&Value::Int(7)));
        assert!(props.keys(a).is_empty() && props.set(a));
        assert_eq!((props.keys(b), props.consts(b), props.set(b)), (&keys[..], &consts[..], false));
    }

    #[test]
    fn cross_check_names_a_wrong_memo_entry() {
        let (mut p, _, [a, b]) = twin_literals();
        let [item, pos] = ["item", "pos"].map(|n| p.col(n));
        let over_a = p.attach(a, pos, Value::Int(1));
        let root_a = p.serialize(over_a, item, pos);
        let mut props = infer(&p, root_a);
        assert_eq!(props.cross_check(&p), None);
        // Plant: the attach's memo entry forgets its constant.
        // An attach reads no input schema, so its key leaves them out.
        let key = (p.op_id(over_a), [SchemaId::MAX; 2], [props.entry(a).up, NO_SLOT]);
        let wrong = props.entry(a).up;
        *props.memo.up.get_mut(&key).expect("the attach was memoised") = wrong;
        // The same attach over the twin hits the entry.
        let over_b = p.attach(b, pos, Value::Int(1));
        let root_b = p.serialize(over_b, item, pos);
        props.advance(&p, root_b, &[]);
        assert_eq!(props.const_of(over_b, pos), None, "the planted entry was used");
        assert_eq!(props.cross_check(&p), Some((over_b, "const")));
    }

    #[test]
    fn each_distinct_argument_is_evaluated_once() {
        let (p, root, _) = twin_literals();
        let (props, direct) = (infer(&p, root), infer_direct(&p, root));
        assert_eq!(props.derived(), direct.derived());
        // The ∪'s edges into the twins have one argument (same schema, same
        // consumer, same consumer context): the second is a memo hit.
        assert_eq!((props.computed(), direct.computed()), (8, 9));
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
