//! Plan DAGs with structural sharing.
//!
//! A [`Plan`] is an append-only arena of operator nodes. Node creation
//! hash-conses: structurally identical `(op, inputs)` pairs yield the same
//! [`NodeId`]. This gives the DAG sharing of paper Fig. 4 (one `doc` leaf
//! serves every node reference) for free, and it makes rewrite rule (19) —
//! which requires a self-join's two inputs to be *the same* plan — fire
//! reliably (`#a` is deterministic, so unifying equal subplans is sound).
//!
//! A node owns no heap memory. Operators and output schemas are interned
//! once per plan, and a node is a 16-byte record of an operator id, a
//! schema id and its (at most two) inputs inline; the memo is keyed by
//! `(operator id, inputs)`. Two interned operators are equal exactly when
//! the [`Op`]s are, so this is the same hash-consing as keying by the
//! operator itself: the same nodes, allocated in the same order, get the
//! same ids. [`Plan::with_inputs`] — the rewriter's rebuild of an ancestor
//! over new inputs — reuses the operator id, so it hashes a few integers
//! and allocates nothing. A schema is computed, and its constraints
//! asserted, once per `(operator id, input schema ids)`.
//! [`Plan::node`] hands out a borrowed [`Node`] view.
//!
//! No builder call makes a π directly over a π: [`Plan::project`] and
//! [`Plan::with_inputs`] compose the two renamings (Fig. 5 rule (2)), and
//! `validate` rejects the shape a raw [`Plan::add`] can still build.
//!
//! The interning maps serve only construction. [`Plan::freeze`] drops them
//! once a plan is done (a prepared query keeps its plan for as long as it
//! is cached); a later builder call rebuilds them from the tables first.
//!
//! Column names are interned per plan; [`Plan::fresh`] generates new unique
//! names for the compiler's renamed columns (`pre°`, `item1`, …).

use crate::col::{Col, ColSet};
use crate::op::Op;
use crate::pred::{pred_cols, DocCols};
use jgi_xml::Interner;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a node in its [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A borrowed view of an operator node.
#[derive(Debug, Clone, Copy)]
pub struct Node<'a> {
    /// The operator.
    pub op: &'a Op,
    /// Plan inputs (length = `op.arity()`).
    pub inputs: &'a [NodeId],
    /// Output schema, computed at construction.
    pub schema: &'a ColSet,
}

/// Index into a plan's operator table: two nodes have the same operator
/// exactly when they have the same `OpId`.
pub type OpId = u32;
/// Index into a plan's schema table: two nodes have the same output schema
/// exactly when they have the same `SchemaId`.
pub type SchemaId = u32;

/// Hasher for keys made of a few `u32` ids: one multiply per word. The
/// product's high bits depend on every input bit and its low bits on few,
/// while `HashMap` picks buckets from the low bits, so `finish` folds the
/// high half down.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u32(u32::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u32(n as u32);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by tuples of `u32` ids (node, operator, schema or property
/// ids), hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Fill for the input slots a node's arity leaves unused.
const NO_INPUT: NodeId = NodeId(u32::MAX);

/// The stored form of a node.
#[derive(Debug, Clone, Copy)]
struct Rec {
    op: OpId,
    schema: SchemaId,
    inputs: [NodeId; 2],
}

/// A DAG-shaped logical plan.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Column-name interner.
    pub cols: Interner,
    nodes: Vec<Rec>,
    memo: IdMap<(OpId, [NodeId; 2]), NodeId>,
    ops: Vec<Op>,
    op_ids: HashMap<Op, OpId>,
    schemas: Vec<ColSet>,
    schema_ids: HashMap<ColSet, SchemaId>,
    /// Output schema of an operator over input schemas (unused slots
    /// `SchemaId::MAX`).
    schema_memo: IdMap<(OpId, [SchemaId; 2]), SchemaId>,
    fresh: u32,
}

/// The fixed column names of the `doc` table, in row order.
pub const DOC_COL_NAMES: [&str; 8] =
    ["pre", "size", "level", "kind", "name", "value", "data", "parent"];

impl Plan {
    /// Empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Intern a column name.
    pub fn col(&mut self, name: &str) -> Col {
        Col(self.cols.intern(name))
    }

    /// Resolve a column back to its name.
    pub fn col_name(&self, c: Col) -> &str {
        self.cols.resolve(c.0)
    }

    /// Generate a fresh column name derived from `base` (`base'N`).
    pub fn fresh(&mut self, base: &str) -> Col {
        loop {
            self.fresh += 1;
            let name = format!("{base}'{}", self.fresh);
            if self.cols.get(&name).is_none() {
                return Col(self.cols.intern(&name));
            }
        }
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let rec = &self.nodes[id.0 as usize];
        let op = &self.ops[rec.op as usize];
        Node { op, inputs: &rec.inputs[..op.arity()], schema: &self.schemas[rec.schema as usize] }
    }

    /// Output schema of a node.
    pub fn schema(&self, id: NodeId) -> &ColSet {
        &self.schemas[self.nodes[id.0 as usize].schema as usize]
    }

    /// The interned operator of a node.
    pub fn op_id(&self, id: NodeId) -> OpId {
        self.nodes[id.0 as usize].op
    }

    /// The interned output schema of a node.
    pub fn schema_id(&self, id: NodeId) -> SchemaId {
        self.nodes[id.0 as usize].schema
    }

    /// Number of distinct nodes allocated (shared nodes count once).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drop the interning maps and the tables' spare capacity: what a
    /// finished plan keeps only to build more nodes. Reading is unaffected;
    /// the next [`Plan::add`] or [`Plan::with_inputs`] rebuilds the maps, so
    /// it finds every existing node as before.
    pub fn freeze(&mut self) {
        self.memo = IdMap::default();
        self.op_ids = HashMap::new();
        self.schema_ids = HashMap::new();
        self.schema_memo = IdMap::default();
        self.nodes.shrink_to_fit();
        self.ops.shrink_to_fit();
        self.schemas.shrink_to_fit();
    }

    /// Drop every node allocated at or after `len`, a length the arena had
    /// before: their ids are handed out again. Nothing may refer to them —
    /// the caller discards what it built past `len`, as the rewriter's
    /// checked replay of a batched fire does. Interned operators and
    /// schemas stay.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.nodes.len() {
            return;
        }
        self.thaw();
        let Plan { nodes, memo, .. } = self;
        for rec in nodes.drain(len..) {
            memo.remove(&(rec.op, rec.inputs));
        }
    }

    /// Rebuild the maps [`Plan::freeze`] dropped. Every node enters the
    /// memo when it is created, so the memo is short of the node table
    /// exactly when the plan is frozen.
    fn thaw(&mut self) {
        if self.memo.len() == self.nodes.len() {
            return;
        }
        self.op_ids = self.ops.iter().enumerate().map(|(i, op)| (op.clone(), i as OpId)).collect();
        self.schema_ids =
            self.schemas.iter().enumerate().map(|(i, s)| (s.clone(), i as SchemaId)).collect();
        for (i, rec) in self.nodes.iter().enumerate() {
            self.memo.insert((rec.op, rec.inputs), NodeId(i as u32));
            let mut in_schemas = [SchemaId::MAX; 2];
            let arity = self.ops[rec.op as usize].arity();
            for (s, input) in in_schemas.iter_mut().zip(&rec.inputs[..arity]) {
                *s = self.nodes[input.0 as usize].schema;
            }
            self.schema_memo.insert((rec.op, in_schemas), rec.schema);
        }
    }

    /// Core constructor: add (or find) a node.
    ///
    /// # Panics
    /// Panics if arity or schema constraints are violated — plans are built
    /// by the compiler/rewriter, where such violations are bugs.
    pub fn add(&mut self, op: Op, inputs: &[NodeId]) -> NodeId {
        assert_eq!(op.arity(), inputs.len(), "operator arity mismatch for {}", op.name());
        self.thaw();
        let op = match self.op_ids.entry(op) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(miss) => {
                self.ops.push(miss.key().clone());
                *miss.insert(self.ops.len() as OpId - 1)
            }
        };
        self.add_interned(op, inputs)
    }

    /// Re-add node `id`'s operator over different inputs (used by the
    /// rewriter). The operator is not cloned or hashed: this is the
    /// allocation-free path every rebuilt ancestor takes — except a π
    /// rebuilt over a π, which [`Plan::project`] composes.
    pub fn with_inputs(&mut self, id: NodeId, inputs: &[NodeId]) -> NodeId {
        let Node { op, inputs: old, .. } = self.node(id);
        assert_eq!(old.len(), inputs.len(), "operator arity mismatch for {}", op.name());
        if let Op::Project(m) = op {
            if matches!(self.node(inputs[0]).op, Op::Project(_)) {
                return self.project(inputs[0], m.clone());
            }
        }
        self.thaw();
        self.add_interned(self.nodes[id.0 as usize].op, inputs)
    }

    /// Add (or find) the node of interned operator `op` over `inputs`.
    fn add_interned(&mut self, op: OpId, inputs: &[NodeId]) -> NodeId {
        let mut slots = [NO_INPUT; 2];
        slots[..inputs.len()].copy_from_slice(inputs);
        let Plan { cols, nodes, memo, ops, schemas, schema_ids, schema_memo, .. } = self;
        match memo.entry((op, slots)) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(miss) => {
                let mut in_schemas = [SchemaId::MAX; 2];
                for (s, i) in in_schemas.iter_mut().zip(inputs) {
                    *s = nodes[i.0 as usize].schema;
                }
                let schema = match schema_memo.entry((op, in_schemas)) {
                    Entry::Occupied(hit) => *hit.get(),
                    Entry::Vacant(new_combination) => {
                        let s = Plan::compute_schema(cols, &ops[op as usize], |k| {
                            &schemas[in_schemas[k] as usize]
                        });
                        let id = *schema_ids.entry(s).or_insert_with_key(|s| {
                            schemas.push(s.clone());
                            schemas.len() as SchemaId - 1
                        });
                        *new_combination.insert(id)
                    }
                };
                let id = NodeId(nodes.len() as u32);
                nodes.push(Rec { op, schema, inputs: slots });
                *miss.insert(id)
            }
        }
    }

    /// Output schema of `op` over the input schemas `schema(k)`, checking
    /// the operator's constraints.
    fn compute_schema<'s>(
        cols: &mut Interner,
        op: &Op,
        schema: impl Fn(usize) -> &'s ColSet,
    ) -> ColSet {
        match op {
            Op::Serialize { item, pos } => {
                let s = schema(0);
                assert!(s.contains(*item) && s.contains(*pos), "serialize columns missing");
                s.clone()
            }
            Op::Project(mapping) => {
                let s = schema(0);
                for (_, src) in mapping {
                    assert!(
                        s.contains(*src),
                        "projection source column `{}` missing from input schema",
                        cols.resolve(src.0)
                    );
                }
                let outs = ColSet::from_iter(mapping.iter().map(|(out, _)| *out));
                assert_eq!(
                    outs.len(),
                    mapping.len(),
                    "projection output names must be unique"
                );
                outs
            }
            Op::Select(p) => {
                let s = schema(0);
                assert!(
                    pred_cols(p).is_subset(s),
                    "selection predicate references columns outside the input schema"
                );
                s.clone()
            }
            Op::Join(p) => {
                let l = schema(0);
                let r = schema(1);
                assert!(l.is_disjoint(r), "join input schemas must be disjoint");
                let joined = l.union(r);
                assert!(
                    pred_cols(p).is_subset(&joined),
                    "join predicate references columns outside the input schemas"
                );
                joined
            }
            Op::Cross => {
                let l = schema(0);
                let r = schema(1);
                assert!(l.is_disjoint(r), "cross input schemas must be disjoint");
                l.union(r)
            }
            Op::Distinct => schema(0).clone(),
            Op::Attach(c, _) | Op::RowId(c) => {
                let s = schema(0);
                assert!(!s.contains(*c), "attached column `{}` already exists", cols.resolve(c.0));
                let mut s = s.clone();
                s.insert(*c);
                s
            }
            Op::Rank { out, by } => {
                let s = schema(0);
                assert!(!s.contains(*out), "rank column already exists");
                for b in by {
                    assert!(s.contains(*b), "rank criterion column missing");
                }
                let mut s = s.clone();
                s.insert(*out);
                s
            }
            Op::Doc => ColSet::from_iter(DOC_COL_NAMES.iter().map(|n| Col(cols.intern(n)))),
            Op::Lit { cols, rows } => {
                for row in rows {
                    assert_eq!(row.len(), cols.len(), "literal row width mismatch");
                }
                ColSet::from_iter(cols.iter().copied())
            }
            Op::Union => {
                let l = schema(0).clone();
                let r = schema(1);
                assert_eq!(&l, r, "union input schemas must match");
                l
            }
        }
    }

    // ---- convenience constructors ------------------------------------------

    /// The `doc` leaf.
    pub fn doc(&mut self) -> NodeId {
        self.add(Op::Doc, &[])
    }

    /// The standard `doc` column handles.
    pub fn doc_cols(&mut self) -> DocCols {
        DocCols {
            pre: self.col("pre"),
            size: self.col("size"),
            level: self.col("level"),
            kind: self.col("kind"),
            name: self.col("name"),
            parent: self.col("parent"),
        }
    }

    /// π — projection with rename pairs `(out, in)`. Over a π it composes
    /// the two renamings into one π over the inner input (Fig. 5 rule (2)
    /// as a constructor property): no builder call makes a π over a π.
    pub fn project(&mut self, input: NodeId, mapping: Vec<(Col, Col)>) -> NodeId {
        let (mapping, input) = self.compose(input, mapping);
        self.add(Op::Project(mapping), &[input])
    }

    /// The mapping and input of π `mapping` over `input` once a π below
    /// is composed into it (see [`Plan::project`]).
    fn compose(&self, input: NodeId, mapping: Vec<(Col, Col)>) -> (Vec<(Col, Col)>, NodeId) {
        if let Op::Project(inner) = self.node(input).op {
            let composed: Option<Vec<(Col, Col)>> = mapping
                .iter()
                .map(|&(out, mid)| {
                    inner.iter().find(|(o, _)| *o == mid).map(|&(_, src)| (out, src))
                })
                .collect();
            // A source the inner π lacks falls through to the schema check.
            if let Some(composed) = composed {
                return (composed, self.node(input).inputs[0]);
            }
        }
        (mapping, input)
    }

    /// The node [`Plan::project`] would return, if the arena holds it
    /// already; a frozen plan finds nothing.
    pub fn find_project(&self, input: NodeId, mapping: Vec<(Col, Col)>) -> Option<NodeId> {
        let (mapping, input) = self.compose(input, mapping);
        let op = *self.op_ids.get(&Op::Project(mapping))?;
        self.memo.get(&(op, [input, NO_INPUT])).copied()
    }

    /// The node [`Plan::with_inputs`] would return, if the arena holds it
    /// already; a frozen plan finds nothing.
    pub fn find_with_inputs(&self, id: NodeId, inputs: &[NodeId]) -> Option<NodeId> {
        if let Op::Project(m) = self.node(id).op {
            return self.find_project(inputs[0], m.clone());
        }
        let mut slots = [NO_INPUT; 2];
        slots[..inputs.len()].copy_from_slice(inputs);
        self.memo.get(&(self.nodes[id.0 as usize].op, slots)).copied()
    }

    /// π — identity projection onto `cols`.
    pub fn project_same(&mut self, input: NodeId, cols: &[Col]) -> NodeId {
        self.project(input, cols.iter().map(|&c| (c, c)).collect())
    }

    /// σ.
    pub fn select(&mut self, input: NodeId, pred: crate::pred::Pred) -> NodeId {
        if pred.is_empty() {
            return input;
        }
        self.add(Op::Select(pred), &[input])
    }

    /// ⋈ₚ.
    pub fn join(&mut self, l: NodeId, r: NodeId, pred: crate::pred::Pred) -> NodeId {
        self.add(Op::Join(pred), &[l, r])
    }

    /// ×.
    pub fn cross(&mut self, l: NodeId, r: NodeId) -> NodeId {
        self.add(Op::Cross, &[l, r])
    }

    /// δ.
    pub fn distinct(&mut self, input: NodeId) -> NodeId {
        self.add(Op::Distinct, &[input])
    }

    /// @a:c.
    pub fn attach(&mut self, input: NodeId, c: Col, v: crate::value::Value) -> NodeId {
        self.add(Op::Attach(c, v), &[input])
    }

    /// #a.
    pub fn row_id(&mut self, input: NodeId, c: Col) -> NodeId {
        self.add(Op::RowId(c), &[input])
    }

    /// ϱ.
    pub fn rank(&mut self, input: NodeId, out: Col, by: Vec<Col>) -> NodeId {
        self.add(Op::Rank { out, by }, &[input])
    }

    /// Literal table.
    pub fn lit(&mut self, cols: Vec<Col>, rows: Vec<Vec<crate::value::Value>>) -> NodeId {
        self.add(Op::Lit { cols, rows }, &[])
    }

    /// ∪.
    pub fn union(&mut self, l: NodeId, r: NodeId) -> NodeId {
        self.add(Op::Union, &[l, r])
    }

    /// ⊚ — plan root.
    pub fn serialize(&mut self, input: NodeId, item: Col, pos: Col) -> NodeId {
        self.add(Op::Serialize { item, pos }, &[input])
    }

    /// Node ids reachable from `root` (including it), in topological order
    /// (inputs before consumers).
    pub fn topo_order(&self, root: NodeId) -> Vec<NodeId> {
        // Inputs are allocated before their consumers, so nothing reachable
        // from `root` has a larger id: one bit per id up to `root` is all
        // the bookkeeping the walk needs, however large the arena has grown.
        let mut visited = vec![0u64; root.0 as usize / 64 + 1];
        let mut order = Vec::new();
        // Iterative post-order.
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            let (word, bit) = (id.0 as usize / 64, 1u64 << (id.0 % 64));
            if visited[word] & bit != 0 {
                continue;
            }
            visited[word] |= bit;
            stack.push((id, true));
            for &i in self.node(id).inputs {
                stack.push((i, false));
            }
        }
        order
    }

    /// Count of nodes reachable from `root`.
    pub fn reachable_count(&self, root: NodeId) -> usize {
        self.topo_order(root).len()
    }

    /// Parent (consumer) lists for all nodes reachable from `root`.
    pub fn parents(&self, root: NodeId) -> HashMap<NodeId, Vec<NodeId>> {
        let mut map: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for id in self.topo_order(root) {
            map.entry(id).or_default();
            for &i in self.node(id).inputs {
                map.entry(i).or_default().push(id);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Atom, CmpOp, Scalar};
    use crate::value::Value;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut p = Plan::new();
        let d1 = p.doc();
        let d2 = p.doc();
        assert_eq!(d1, d2);
        let iter = p.col("iter");
        let a1 = p.attach(d1, iter, Value::Int(1));
        let a2 = p.attach(d2, iter, Value::Int(1));
        assert_eq!(a1, a2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn frozen_plan_keeps_hash_consing() {
        let mut p = Plan::new();
        let d = p.doc();
        let iter = p.col("iter");
        let pos = p.col("pos");
        let a = p.attach(d, iter, Value::Int(1));
        let b = p.attach(a, pos, Value::Int(2));
        p.freeze();
        assert_eq!(p.node(b).inputs, &[a]);
        // Re-adding an existing (op, inputs) finds the existing node.
        assert_eq!(p.attach(d, iter, Value::Int(1)), a);
        assert_eq!(p.with_inputs(b, &[a]), b);
        assert_eq!(p.len(), 3);
        // A new node after freezing is new, and hash-conses from then on.
        p.freeze();
        let c = p.attach(d, pos, Value::Int(3));
        assert_eq!(p.len(), 4);
        assert_eq!(p.attach(d, pos, Value::Int(3)), c);
        assert!(p.schema(c).contains(pos) && !p.schema(c).contains(iter));
    }

    #[test]
    fn doc_schema() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let parent = p.col("parent");
        assert!(p.schema(d).contains(pre));
        assert!(p.schema(d).contains(parent));
        assert_eq!(p.schema(d).len(), 8);
    }

    #[test]
    fn project_renames() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let proj = p.project(d, vec![(item, pre)]);
        assert!(p.schema(proj).contains(item));
        assert!(!p.schema(proj).contains(pre));
        assert_eq!(p.schema(proj).len(), 1);
    }

    /// Fig. 5 rule (2), π(π(q)) → π(q), holds by construction.
    #[test]
    fn project_over_project_composes() {
        let mut p = Plan::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| p.col(n));
        let q = p.lit(vec![a, b], vec![vec![Value::Int(1), Value::Int(2)]]);
        let n = p.project(q, vec![(c, a), (d, b)]);
        let m = p.project(n, vec![(a, d), (b, c), (c, c)]);
        // m∘n, spelled out: a←d←b, b←c←a, c←c←a.
        assert_eq!(m, p.project(q, vec![(a, b), (b, a), (c, a)]));
        assert_eq!(p.node(m).inputs, &[q]);
        // Rebuilding a π over a π composes too.
        let other = p.lit(vec![c, d], vec![]);
        let over = p.project(other, vec![(a, c)]);
        let rebuilt = p.with_inputs(over, &[n]);
        assert_eq!(rebuilt, p.project(q, vec![(a, a)]));
        assert_eq!(p.node(rebuilt).inputs, &[q]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn join_rejects_overlapping_schemas() {
        let mut p = Plan::new();
        let d = p.doc();
        p.join(d, d, vec![]);
    }

    #[test]
    fn join_schema_unions() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let iter = p.col("iter");
        let lit = p.lit(vec![iter, item], vec![vec![Value::Int(1), Value::Int(3)]]);
        let j = p.join(d, lit, vec![Atom::col_eq(pre, item)]);
        assert_eq!(p.schema(j).len(), 10);
    }

    #[test]
    fn select_empty_pred_is_identity() {
        let mut p = Plan::new();
        let d = p.doc();
        assert_eq!(p.select(d, vec![]), d);
    }

    #[test]
    #[should_panic(expected = "outside the input schema")]
    fn select_checks_columns() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let lit = p.lit(vec![iter], vec![]);
        let ghost = p.col("ghost");
        p.select(lit, vec![Atom::new(Scalar::col(ghost), CmpOp::Eq, Scalar::int(1))]);
    }

    #[test]
    fn topo_order_inputs_first() {
        let mut p = Plan::new();
        let d = p.doc();
        let iter = p.col("iter");
        let lit = p.lit(vec![iter], vec![vec![Value::Int(1)]]);
        let c = p.cross(d, lit);
        let dd = p.distinct(c);
        let order = p.topo_order(dd);
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(d) < pos(c));
        assert!(pos(lit) < pos(c));
        assert!(pos(c) < pos(dd));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn parents_map() {
        let mut p = Plan::new();
        let d = p.doc();
        let s1 = p.distinct(d);
        let pre = p.col("pre");
        let item = p.col("item");
        let s2 = p.project(d, vec![(item, pre)]);
        // Tie both into one root so everything is reachable.
        let root = p.cross(s1, s2);
        let _ = root;
        let parents = p.parents(root);
        let dp = &parents[&d];
        assert!(dp.contains(&s1) && dp.contains(&s2));
        assert!(parents[&root].is_empty());
    }

    #[test]
    fn fresh_names_unique() {
        let mut p = Plan::new();
        let a = p.fresh("pre");
        let b = p.fresh("pre");
        assert_ne!(a, b);
        assert_ne!(p.col_name(a), p.col_name(b));
    }

    #[test]
    fn union_schema_checked() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let l1 = p.lit(vec![iter], vec![]);
        let l2 = p.lit(vec![iter], vec![vec![Value::Int(2)]]);
        let u = p.union(l1, l2);
        assert_eq!(p.schema(u).len(), 1);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn union_rejects_mismatched_schemas() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let pos = p.col("pos");
        let l1 = p.lit(vec![iter], vec![]);
        let l2 = p.lit(vec![pos], vec![]);
        p.union(l1, l2);
    }

    #[test]
    fn rank_and_rowid_extend_schema() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let pos = p.col("pos");
        let l = p.lit(vec![iter], vec![]);
        let r = p.rank(l, pos, vec![iter]);
        assert_eq!(p.schema(r).len(), 2);
        let inner = p.col("inner");
        let ri = p.row_id(r, inner);
        assert_eq!(p.schema(ri).len(), 3);
    }

    /// Two one-row literals with the same schema and a δ over the first.
    fn two_lits_and_a_distinct(p: &mut Plan) -> (NodeId, NodeId, NodeId) {
        let iter = p.col("iter");
        let l1 = p.lit(vec![iter], vec![vec![Value::Int(1)]]);
        let l2 = p.lit(vec![iter], vec![vec![Value::Int(2)]]);
        let d = p.distinct(l1);
        (l1, l2, d)
    }

    #[test]
    fn with_inputs_over_the_same_inputs_is_the_node_itself() {
        let mut p = Plan::new();
        let (l1, _, d) = two_lits_and_a_distinct(&mut p);
        let len = p.len();
        assert_eq!(p.with_inputs(d, &[l1]), d);
        assert_eq!(p.len(), len);
    }

    #[test]
    fn with_inputs_adds_a_node_but_no_operator_and_no_schema() {
        let mut p = Plan::new();
        let (_, l2, d) = two_lits_and_a_distinct(&mut p);
        let tables = |p: &Plan| (p.ops.len(), p.schemas.len(), p.schema_memo.len());
        let before = (p.len(), tables(&p));
        let d2 = p.with_inputs(d, &[l2]);
        assert_ne!(d2, d);
        assert_eq!((p.len(), tables(&p)), (before.0 + 1, before.1));
        assert_eq!(p.node(d2).inputs, &[l2]);
        assert_eq!(p.node(d2).op, &Op::Distinct);
    }

    #[test]
    fn add_and_with_inputs_agree_on_the_id() {
        let mut p = Plan::new();
        let (_, l2, d) = two_lits_and_a_distinct(&mut p);
        let op = p.node(d).op.clone();
        let added = p.add(op, &[l2]);
        assert_eq!(p.with_inputs(d, &[l2]), added);
        let again = p.add(Op::Distinct, &[l2]);
        assert_eq!(again, added);
    }

    #[test]
    fn id_hasher_spreads_neighbouring_keys_over_the_low_bits() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        // 4 096 memo keys that differ in one input's high bits only; a
        // 4 096-bucket table reads the low 12 bits of each hash.
        let buckets: std::collections::HashSet<u64> = (0..4096u32)
            .map(|k| build.hash_one((7u32, [NodeId(k << 16), NO_INPUT])) & 0xfff)
            .collect();
        assert!(buckets.len() > 2_500, "{} of 4096 buckets used", buckets.len());
    }

    #[test]
    fn a_node_record_owns_no_heap_memory() {
        assert!(std::mem::size_of::<Rec>() <= 24);
    }
}
