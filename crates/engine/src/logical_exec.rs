//! Operator-at-a-time interpreter for the logical algebra.
//!
//! This is the "stacked plan" execution path: every DAG node is evaluated
//! once and fully materialized, exactly how a SQL back-end executes the
//! common-table-expression translation of the unrewritten compiler output
//! (paper §4: "read and then again materialize temporary tables"). It also
//! serves as the *reference semantics* against which the join-graph path is
//! differentially tested.
//!
//! Joins pick, in order: a hash strategy when an equality atom spans the
//! two inputs; an interval strategy (binary search on a sorted column —
//! the moral equivalent of the index range scan a back-end would use for
//! the axis range predicates); and a nested loop as last resort. A row
//! budget makes runaway plans report "did not finish" like the paper's
//! 20-hour cutoff.

use jgi_algebra::pred::{Atom, CmpOp, Pred, Scalar};
use jgi_algebra::{Col, NodeId, Op, Plan, Value};
use jgi_xml::DocStore;
use std::collections::HashMap;
use std::fmt;

use crate::docrel::materialize_doc;
use crate::table::Table;

/// Execution budget: the interpreter aborts once it has materialized more
/// than `max_rows` rows in total.
#[derive(Debug, Clone, Copy)]
pub struct ExecBudget {
    /// Total rows the execution may materialize.
    pub max_rows: u64,
}

impl Default for ExecBudget {
    fn default() -> Self {
        ExecBudget { max_rows: 200_000_000 }
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The row budget was exhausted — report as *dnf* (did not finish).
    BudgetExceeded,
    /// Malformed plan (should be caught by `jgi_algebra::validate`).
    BadPlan(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BudgetExceeded => write!(f, "execution budget exceeded (dnf)"),
            ExecError::BadPlan(m) => write!(f, "bad plan: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Evaluate the DAG under `root` and return the per-node result of `root`.
pub fn execute(
    plan: &Plan,
    root: NodeId,
    store: &DocStore,
    budget: ExecBudget,
) -> Result<Table, ExecError> {
    let mut cx = Cx { plan, store, budget, spent: 0, memo: HashMap::new() };
    cx.eval(root)
}

/// Evaluate the DAG under `root` and return the materialized table of
/// *every* reachable node in one pass over a shared memo — what the
/// `jgi-check` dynamic oracle uses to test per-node `const`/`key` claims
/// without re-evaluating each sub-plan from scratch.
pub fn execute_each(
    plan: &Plan,
    root: NodeId,
    store: &DocStore,
    budget: ExecBudget,
) -> Result<HashMap<NodeId, Table>, ExecError> {
    let mut cx = Cx { plan, store, budget, spent: 0, memo: HashMap::new() };
    cx.eval(root)?;
    Ok(cx.memo)
}

/// Evaluate a plan whose root is a serialize operator; returns the result
/// node sequence as `pre` ranks, in sequence order.
pub fn execute_serialized(
    plan: &Plan,
    root: NodeId,
    store: &DocStore,
    budget: ExecBudget,
) -> Result<Vec<u32>, ExecError> {
    let node = plan.node(root);
    let &Op::Serialize { item, pos } = node.op else {
        return Err(ExecError::BadPlan("root is not a serialize operator".into()));
    };
    let mut cx = Cx { plan, store, budget, spent: 0, memo: HashMap::new() };
    let mut t = cx.eval(node.inputs[0])?;
    t.sort_by_cols(&[pos, item]);
    let item_idx = t.col_index_or_panic(item);
    let mut out = Vec::with_capacity(t.len());
    for row in &t.rows {
        match &row[item_idx] {
            Value::Int(i) => out.push(*i as u32),
            other => {
                return Err(ExecError::BadPlan(format!(
                    "serialize item column holds non-node value {other}"
                )))
            }
        }
    }
    Ok(out)
}

struct Cx<'a> {
    plan: &'a Plan,
    store: &'a DocStore,
    budget: ExecBudget,
    spent: u64,
    memo: HashMap<NodeId, Table>,
}

impl<'a> Cx<'a> {
    fn charge(&mut self, rows: usize) -> Result<(), ExecError> {
        self.spent += rows as u64;
        if self.spent > self.budget.max_rows {
            Err(ExecError::BudgetExceeded)
        } else {
            Ok(())
        }
    }

    fn eval(&mut self, id: NodeId) -> Result<Table, ExecError> {
        if let Some(t) = self.memo.get(&id) {
            return Ok(t.clone());
        }
        // Evaluate in topological order to keep recursion shallow.
        for nid in self.plan.topo_order(id) {
            if self.memo.contains_key(&nid) {
                continue;
            }
            let t = self.eval_node(nid)?;
            self.charge(t.len())?;
            self.memo.insert(nid, t);
        }
        Ok(self.memo[&id].clone())
    }

    fn eval_node(&mut self, id: NodeId) -> Result<Table, ExecError> {
        let node = self.plan.node(id);
        let input = |cx: &Self, k: usize| cx.memo[&node.inputs[k]].clone();
        Ok(match &node.op {
            Op::Doc => {
                let names = jgi_algebra::plan::DOC_COL_NAMES;
                let cols: [Col; 8] = core::array::from_fn(|i| {
                    Col(self
                        .plan
                        .cols
                        .get(names[i])
                        .expect("doc column names are interned on plan creation"))
                });
                materialize_doc(self.store, cols)
            }
            Op::Lit { cols, rows } => {
                Table { cols: cols.clone(), rows: rows.clone(), ordered_by: None }
            }
            Op::Serialize { pos, item } => {
                let mut t = input(self, 0);
                t.sort_by_cols(&[*pos, *item]);
                t
            }
            Op::Project(mapping) => {
                let t = input(self, 0);
                let idxs: Vec<usize> =
                    mapping.iter().map(|(_, src)| t.col_index_or_panic(*src)).collect();
                let cols: Vec<Col> = mapping.iter().map(|(out, _)| *out).collect();
                let rows: Vec<Vec<Value>> = t
                    .rows
                    .iter()
                    .map(|row| idxs.iter().map(|&i| row[i].clone()).collect())
                    .collect();
                // Order survives if the old order column is among the sources.
                let ordered_by = t.ordered_by.and_then(|oc| {
                    mapping.iter().find(|(_, src)| *src == oc).map(|(out, _)| *out)
                });
                Table { cols, rows, ordered_by }
            }
            Op::Select(p) => {
                let t = input(self, 0);
                let rows: Vec<Vec<Value>> = t
                    .rows
                    .iter()
                    .filter(|row| eval_pred_row(p, &t.cols, row))
                    .cloned()
                    .collect();
                Table { cols: t.cols.clone(), rows, ordered_by: t.ordered_by }
            }
            Op::Distinct => {
                let mut t = input(self, 0);
                t.distinct();
                t
            }
            Op::Attach(c, v) => {
                let mut t = input(self, 0);
                for row in &mut t.rows {
                    row.push(v.clone());
                }
                t.cols.push(*c);
                t
            }
            Op::RowId(c) => {
                let mut t = input(self, 0);
                for (i, row) in t.rows.iter_mut().enumerate() {
                    row.push(Value::Int(i as i64 + 1));
                }
                t.cols.push(*c);
                t
            }
            Op::Rank { out, by } => {
                let mut t = input(self, 0);
                t.sort_by_cols(by);
                let idxs: Vec<usize> = by.iter().map(|&c| t.col_index_or_panic(c)).collect();
                let mut rank = 0i64;
                let mut prev: Option<Vec<Value>> = None;
                let mut ranks = Vec::with_capacity(t.len());
                for (i, row) in t.rows.iter().enumerate() {
                    let key: Vec<Value> = idxs.iter().map(|&k| row[k].clone()).collect();
                    if prev.as_ref() != Some(&key) {
                        rank = i as i64 + 1; // RANK() semantics: 1,1,3,…
                        prev = Some(key);
                    }
                    ranks.push(rank);
                }
                for (row, r) in t.rows.iter_mut().zip(ranks) {
                    row.push(Value::Int(r));
                }
                t.cols.push(*out);
                t
            }
            Op::Cross => {
                let l = input(self, 0);
                let r = input(self, 1);
                self.charge(l.len().saturating_mul(r.len()))?;
                let mut cols = l.cols.clone();
                cols.extend_from_slice(&r.cols);
                let mut rows = Vec::with_capacity(l.len() * r.len());
                for lr in &l.rows {
                    for rr in &r.rows {
                        let mut row = lr.clone();
                        row.extend_from_slice(rr);
                        rows.push(row);
                    }
                }
                Table { cols, rows, ordered_by: None }
            }
            Op::Join(p) => {
                let l = input(self, 0);
                let r = input(self, 1);
                self.join(&l, &r, p)?
            }
            Op::Union => {
                let l = input(self, 0);
                let r = input(self, 1);
                let map: Vec<usize> =
                    l.cols.iter().map(|&c| r.col_index_or_panic(c)).collect();
                let mut rows = l.rows.clone();
                rows.extend(
                    r.rows.iter().map(|row| map.iter().map(|&i| row[i].clone()).collect()),
                );
                Table { cols: l.cols.clone(), rows, ordered_by: None }
            }
        })
    }

    /// Join two materialized tables on a conjunctive predicate.
    fn join(&mut self, l: &Table, r: &Table, p: &Pred) -> Result<Table, ExecError> {
        let mut cols = l.cols.clone();
        cols.extend_from_slice(&r.cols);

        // 1. Hash strategy: equality atoms with one side per input.
        let mut eq_l: Vec<&Scalar> = Vec::new();
        let mut eq_r: Vec<&Scalar> = Vec::new();
        for a in p {
            if a.op == CmpOp::Eq {
                let lc = scalar_side(&a.lhs, l, r);
                let rc = scalar_side(&a.rhs, l, r);
                match (lc, rc) {
                    (Side::Left, Side::Right) => {
                        eq_l.push(&a.lhs);
                        eq_r.push(&a.rhs);
                    }
                    (Side::Right, Side::Left) => {
                        eq_l.push(&a.rhs);
                        eq_r.push(&a.lhs);
                    }
                    _ => {}
                }
            }
        }
        if !eq_l.is_empty() {
            let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, row) in l.rows.iter().enumerate() {
                let key: Option<Vec<Value>> =
                    eq_l.iter().map(|s| non_null(eval_scalar(s, &l.cols, row))).collect();
                if let Some(key) = key {
                    map.entry(key).or_default().push(i);
                }
            }
            let mut rows = Vec::new();
            for rr in &r.rows {
                let key: Option<Vec<Value>> =
                    eq_r.iter().map(|s| non_null(eval_scalar(s, &r.cols, rr))).collect();
                let Some(key) = key else { continue };
                if let Some(matches) = map.get(&key) {
                    for &i in matches {
                        let mut row = l.rows[i].clone();
                        row.extend_from_slice(rr);
                        if eval_pred_row(p, &cols, &row) {
                            rows.push(row);
                        }
                    }
                }
            }
            return Ok(Table { cols, rows, ordered_by: None });
        }

        // 2. Interval strategy on a sorted column.
        if let Some(t) = self.try_interval_join(l, r, p, &cols)? {
            return Ok(t);
        }

        // 3. Nested loop.
        self.charge(l.len().saturating_mul(r.len()) / 16)?;
        let mut rows = Vec::new();
        for lr in &l.rows {
            for rr in &r.rows {
                let mut row = lr.clone();
                row.extend_from_slice(rr);
                if eval_pred_row(p, &cols, &row) {
                    rows.push(row);
                } else {
                    drop(row);
                }
            }
        }
        Ok(Table { cols, rows, ordered_by: None })
    }

    /// Binary-search range join: requires one input sorted by a column `X`
    /// that the predicate bounds from below and above by scalars over the
    /// other input.
    fn try_interval_join(
        &mut self,
        l: &Table,
        r: &Table,
        p: &Pred,
        out_cols: &[Col],
    ) -> Result<Option<Table>, ExecError> {
        for (sorted_is_left, sorted, probe) in [(true, l, r), (false, r, l)] {
            let Some(x) = sorted.ordered_by else { continue };
            let Some(x_idx) = sorted.col_index(x) else { continue };
            // Find a lower and an upper bound on X over the probe side.
            let mut lower: Option<(&Scalar, bool)> = None; // (expr, strict)
            let mut upper: Option<(&Scalar, bool)> = None;
            for a in p {
                let (xside, other, op) = if a.lhs == Scalar::Col(x) {
                    (true, &a.rhs, a.op)
                } else if a.rhs == Scalar::Col(x) {
                    (true, &a.lhs, a.op.flipped())
                } else {
                    (false, &a.lhs, a.op)
                };
                if !xside {
                    continue;
                }
                // `other` must be computable from the probe side alone.
                if scalar_side(other, probe, probe) != Side::Left {
                    continue;
                }
                match op {
                    CmpOp::Gt => lower = Some((other, true)),
                    CmpOp::Ge => lower = Some((other, false)),
                    CmpOp::Lt => upper = Some((other, true)),
                    CmpOp::Le => upper = Some((other, false)),
                    CmpOp::Eq => {
                        lower = Some((other, false));
                        upper = Some((other, false));
                    }
                    CmpOp::Ne => {}
                }
            }
            if lower.is_none() && upper.is_none() {
                continue;
            }
            let mut rows = Vec::new();
            for pr in &probe.rows {
                let lo = match lower {
                    Some((s, strict)) => {
                        let v = eval_scalar(s, &probe.cols, pr);
                        if v.is_null() {
                            continue;
                        }
                        sorted.lower_bound(x_idx, &v, strict)
                    }
                    None => 0,
                };
                let hi = match upper {
                    Some((s, strict)) => {
                        let v = eval_scalar(s, &probe.cols, pr);
                        if v.is_null() {
                            continue;
                        }
                        sorted.lower_bound(x_idx, &v, !strict)
                    }
                    None => sorted.len(),
                };
                for sr in &sorted.rows[lo..hi] {
                    let row: Vec<Value> = if sorted_is_left {
                        sr.iter().chain(pr.iter()).cloned().collect()
                    } else {
                        pr.iter().chain(sr.iter()).cloned().collect()
                    };
                    if eval_pred_row(p, out_cols, &row) {
                        rows.push(row);
                    }
                }
                self.charge(hi.saturating_sub(lo) / 4)?;
            }
            return Ok(Some(Table { cols: out_cols.to_vec(), rows, ordered_by: None }));
        }
        Ok(None)
    }
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Side {
    Left,
    Right,
    Mixed,
    Neither,
}

/// Which input's columns a scalar references (constants count as `Left` so
/// that pure-constant scalars are computable anywhere).
fn scalar_side(s: &Scalar, l: &Table, r: &Table) -> Side {
    let mut cols = jgi_algebra::ColSet::new();
    s.cols_into(&mut cols);
    if cols.is_empty() {
        return Side::Left;
    }
    let in_l = cols.iter().all(|c| l.col_index(c).is_some());
    let in_r = cols.iter().all(|c| r.col_index(c).is_some());
    match (in_l, in_r) {
        (true, _) => Side::Left,
        (false, true) => Side::Right,
        (false, false) => {
            if cols.iter().any(|c| l.col_index(c).is_some()) {
                Side::Mixed
            } else {
                Side::Neither
            }
        }
    }
}

fn non_null(v: Value) -> Option<Value> {
    if v.is_null() {
        None
    } else {
        Some(v)
    }
}

/// Evaluate a scalar over a row (Null propagates through `+`).
pub fn eval_scalar(s: &Scalar, cols: &[Col], row: &[Value]) -> Value {
    match s {
        Scalar::Const(v) => v.clone(),
        Scalar::Col(c) => {
            let idx = cols
                .iter()
                .position(|x| x == c)
                .unwrap_or_else(|| panic!("column Col({}) missing at eval", c.0));
            row[idx].clone()
        }
        Scalar::Add(a, b) => {
            let va = eval_scalar(a, cols, row);
            let vb = eval_scalar(b, cols, row);
            match (va, vb) {
                (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
                (x, y) => match (x.as_f64(), y.as_f64()) {
                    (Some(x), Some(y)) => Value::Dec(x + y),
                    _ => Value::Null,
                },
            }
        }
    }
}

/// Evaluate one atom over a row; comparisons involving Null are false.
pub fn eval_atom_row(a: &Atom, cols: &[Col], row: &[Value]) -> bool {
    let l = eval_scalar(&a.lhs, cols, row);
    let r = eval_scalar(&a.rhs, cols, row);
    if l.is_null() || r.is_null() {
        return false;
    }
    a.op.test(l.cmp(&r))
}

/// Evaluate a conjunctive predicate over a row.
pub fn eval_pred_row(p: &Pred, cols: &[Col], row: &[Value]) -> bool {
    p.iter().all(|a| eval_atom_row(a, cols, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_compiler::compile;
    use jgi_xquery::compile_to_core;
    use jgi_xml::Tree;

    fn fig2_store() -> DocStore {
        let mut t = Tree::new("auction.xml");
        let oa = t.add_element(t.root(), "open_auction");
        t.add_attr(oa, "id", "1");
        t.add_text_element(oa, "initial", "15");
        let bidder = t.add_element(oa, "bidder");
        t.add_text_element(bidder, "time", "18:43");
        t.add_text_element(bidder, "increase", "4.20");
        let mut store = DocStore::new();
        store.add_tree(&t);
        store
    }

    fn run(q: &str, store: &DocStore) -> Vec<u32> {
        let core = compile_to_core(q).unwrap();
        let c = compile(&core).unwrap();
        execute_serialized(&c.plan, c.root, store, ExecBudget::default()).unwrap()
    }

    #[test]
    fn q0_three_step_path_from_paper() {
        // §2.2: doc(...)/descendant::bidder/child::*/child::text() ⇒ {7, 9}.
        let store = fig2_store();
        let result = run(
            r#"doc("auction.xml")/descendant::bidder/child::*/child::text()"#,
            &store,
        );
        assert_eq!(result, vec![7, 9]);
    }

    #[test]
    fn q1_predicate_filters() {
        let store = fig2_store();
        // open_auction has a bidder -> survives the predicate.
        let r = run(r#"doc("auction.xml")/descendant::open_auction[bidder]"#, &store);
        assert_eq!(r, vec![1]);
        // No such element: empty.
        let r = run(r#"doc("auction.xml")/descendant::open_auction[zzz]"#, &store);
        assert!(r.is_empty());
    }

    #[test]
    fn value_comparison() {
        let store = fig2_store();
        let r = run(r#"doc("auction.xml")/descendant::increase[. > 4]"#, &store);
        assert_eq!(r, vec![8]);
        let r = run(r#"doc("auction.xml")/descendant::increase[. > 5]"#, &store);
        assert!(r.is_empty());
        // String comparison on time.
        let r = run(r#"doc("auction.xml")/descendant::time[. = "18:43"]"#, &store);
        assert_eq!(r, vec![6]);
    }

    #[test]
    fn attribute_axis_and_reverse_axes() {
        let store = fig2_store();
        let r = run(r#"doc("auction.xml")/descendant::open_auction/attribute::id"#, &store);
        assert_eq!(r, vec![2]);
        let r = run(r#"doc("auction.xml")/descendant::time/parent::node()"#, &store);
        assert_eq!(r, vec![5]);
        let r = run(r#"doc("auction.xml")/descendant::increase/ancestor::node()"#, &store);
        assert_eq!(r, vec![0, 1, 5]);
    }

    #[test]
    fn sibling_axes() {
        let store = fig2_store();
        let r = run(r#"doc("auction.xml")/descendant::time/following-sibling::node()"#, &store);
        assert_eq!(r, vec![8]);
        let r = run(r#"doc("auction.xml")/descendant::increase/preceding-sibling::node()"#, &store);
        assert_eq!(r, vec![6]);
        // Attributes are not siblings.
        let r = run(r#"doc("auction.xml")/descendant::initial/preceding-sibling::node()"#, &store);
        assert!(r.is_empty());
    }

    #[test]
    fn following_and_preceding() {
        let store = fig2_store();
        let r = run(r#"doc("auction.xml")/descendant::initial/following::node()"#, &store);
        assert_eq!(r, vec![5, 6, 7, 8, 9]);
        let r = run(r#"doc("auction.xml")/descendant::increase/preceding::node()"#, &store);
        // Everything that ends before increase starts, excluding ancestors:
        // initial(3), its text(4), time(6), its text(7). Attribute id(2) is
        // excluded per the XPath data model.
        assert_eq!(r, vec![3, 4, 6, 7]);
    }

    #[test]
    fn for_loop_order_is_iteration_major() {
        let store = fig2_store();
        // For each bidder child (time, increase) emit its text: document
        // order within each iteration, iterations in sequence order.
        let r = run(
            r#"for $c in doc("auction.xml")/descendant::bidder/child::*
               return $c/child::text()"#,
            &store,
        );
        assert_eq!(r, vec![7, 9]);
    }

    #[test]
    fn sequence_order_across_branches() {
        let store = fig2_store();
        // (increase, time) per bidder: branch order wins over doc order.
        let r = run(
            r#"for $b in doc("auction.xml")/descendant::bidder
               return ($b/child::increase, $b/child::time)"#,
            &store,
        );
        assert_eq!(r, vec![8, 6]);
    }

    #[test]
    fn let_and_nested_for() {
        let store = fig2_store();
        let r = run(
            r#"let $d := doc("auction.xml")
               for $b in $d/descendant::bidder
               for $t in $b/child::time
               return $t"#,
            &store,
        );
        assert_eq!(r, vec![6]);
    }

    #[test]
    fn node_node_comparison_q2_style() {
        let store = fig2_store();
        // initial value "15" equals nothing else; compare initial = time.
        let r = run(
            r#"for $x in doc("auction.xml")/descendant::open_auction
               where $x/child::initial = $x/descendant::time
               return $x"#,
            &store,
        );
        assert!(r.is_empty());
        let r = run(
            r#"for $x in doc("auction.xml")/descendant::open_auction
               where $x/child::initial = $x/child::initial
               return $x"#,
            &store,
        );
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn budget_aborts() {
        let store = fig2_store();
        let core =
            compile_to_core(r#"doc("auction.xml")/descendant::node()/descendant::node()"#)
                .unwrap();
        let c = compile(&core).unwrap();
        let err = execute_serialized(&c.plan, c.root, &store, ExecBudget { max_rows: 10 })
            .unwrap_err();
        assert_eq!(err, ExecError::BudgetExceeded);
    }

    #[test]
    fn duplicate_semantics_of_ddo() {
        let store = fig2_store();
        // Two bidder children lead to the same parent; ddo dedupes within
        // the iteration.
        let r = run(
            r#"doc("auction.xml")/descendant::bidder/child::*/parent::node()"#,
            &store,
        );
        assert_eq!(r, vec![5]);
    }

    #[test]
    fn duplicates_preserved_across_for_iterations() {
        let store = fig2_store();
        // Each of the two bidder children contributes its bidder parent —
        // one iteration each, so the result keeps both occurrences.
        let r = run(
            r#"for $c in doc("auction.xml")/descendant::bidder/child::*
               return $c/parent::node()"#,
            &store,
        );
        assert_eq!(r, vec![5, 5]);
    }
}
