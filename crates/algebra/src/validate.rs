//! Whole-plan validation.
//!
//! Node construction already asserts local schema constraints; this module
//! re-checks them over a complete DAG and adds global checks (acyclicity,
//! schema name uniqueness), catching rewriter bugs early. Used by tests and
//! by the rewrite driver — as a `debug_assert!` in debug builds, and in
//! *any* build when `JGI_CHECK=1` promotes it to a structured error.
//!
//! The per-operator match is deliberately exhaustive (no catch-all arm):
//! adding an `Op` variant without deciding its validation rule is a compile
//! error, not a silent pass.

use crate::col::ColSet;
use crate::op::Op;
use crate::plan::{NodeId, Plan};
use crate::pred::pred_cols;
use std::collections::HashMap;

/// Validate the DAG under `root`; returns a description of the first
/// violation found.
pub fn validate(plan: &Plan, root: NodeId) -> Result<(), String> {
    for id in plan.topo_order(root) {
        let node = plan.node(id);
        if node.inputs.len() != node.op.arity() {
            return Err(format!("node {}: arity mismatch", id.0));
        }
        // Acyclicity: the arena is append-only and hash-consed, so every
        // input must have been allocated before its consumer. An input id
        // >= the node id would mean a back-edge (impossible to build
        // through `Plan::add`, but cheap to certify here).
        for &i in node.inputs {
            if i.0 >= id.0 {
                return Err(format!(
                    "node {}: input {} violates topological (acyclic) ordering",
                    id.0, i.0
                ));
            }
        }
        // Column-name uniqueness: distinct interned columns of one schema
        // must resolve to distinct names (guards against interner misuse).
        let mut names: HashMap<&str, u32> = HashMap::new();
        for c in node.schema.iter() {
            if let Some(prev) = names.insert(plan.col_name(c), c.0) {
                return Err(format!(
                    "node {}: schema columns {} and {} share the name `{}`",
                    id.0,
                    prev,
                    c.0,
                    plan.col_name(c)
                ));
            }
        }
        let input = |k: usize| plan.schema(node.inputs[k]);
        match &node.op {
            Op::Serialize { item, pos } => {
                let s = input(0);
                if !s.contains(*item) || !s.contains(*pos) {
                    return Err(format!("node {}: serialize columns missing", id.0));
                }
            }
            Op::Project(mapping) => {
                // `Plan::project` composes π∘π; only a raw `Plan::add`
                // builds one, and no rewriter path may.
                if matches!(plan.node(node.inputs[0]).op, Op::Project(_)) {
                    return Err(format!("node {}: projection directly over a projection", id.0));
                }
                let s = input(0);
                for (_, src) in mapping {
                    if !s.contains(*src) {
                        return Err(format!(
                            "node {}: projection source `{}` missing",
                            id.0,
                            plan.col_name(*src)
                        ));
                    }
                }
                if mapping.is_empty() {
                    return Err(format!("node {}: empty projection", id.0));
                }
                let outs = ColSet::from_iter(mapping.iter().map(|(out, _)| *out));
                if outs.len() != mapping.len() {
                    return Err(format!("node {}: duplicate projection outputs", id.0));
                }
            }
            Op::Select(p) => {
                if !pred_cols(p).is_subset(input(0)) {
                    return Err(format!("node {}: selection references missing columns", id.0));
                }
            }
            Op::Join(p) => {
                let l = input(0);
                let r = input(1);
                if !l.is_disjoint(r) {
                    return Err(format!("node {}: join schemas overlap", id.0));
                }
                if !pred_cols(p).is_subset(&l.union(r)) {
                    return Err(format!("node {}: join predicate references missing columns", id.0));
                }
            }
            Op::Cross => {
                if !input(0).is_disjoint(input(1)) {
                    return Err(format!("node {}: cross schemas overlap", id.0));
                }
            }
            Op::Distinct => {}
            Op::Attach(c, _) | Op::RowId(c) => {
                if input(0).contains(*c) {
                    return Err(format!(
                        "node {}: attach/rowid column `{}` already present",
                        id.0,
                        plan.col_name(*c)
                    ));
                }
            }
            Op::Rank { out, by } => {
                let s = input(0);
                if s.contains(*out) {
                    return Err(format!("node {}: rank output column already present", id.0));
                }
                if by.is_empty() {
                    return Err(format!("node {}: rank with empty criteria", id.0));
                }
                if !ColSet::from_iter(by.iter().copied()).is_subset(s) {
                    return Err(format!("node {}: rank criteria missing from input", id.0));
                }
            }
            Op::Doc => {}
            Op::Lit { cols, rows } => {
                if cols.is_empty() {
                    return Err(format!("node {}: literal table without columns", id.0));
                }
                for row in rows {
                    if row.len() != cols.len() {
                        return Err(format!("node {}: literal row width mismatch", id.0));
                    }
                }
            }
            Op::Union => {
                if input(0) != input(1) {
                    return Err(format!("node {}: union schemas differ", id.0));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn valid_plan_passes() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let proj = p.project(d, vec![(item, pre)]);
        let dd = p.distinct(proj);
        let pos = p.col("pos");
        let ranked = p.rank(dd, pos, vec![item]);
        let root = p.serialize(ranked, item, pos);
        assert_eq!(validate(&p, root), Ok(()));
    }

    #[test]
    fn catches_empty_rank() {
        // Construct an invalid op by hand via add() — the convenience
        // constructor would panic, so we go through Op directly with a
        // plan that skips the assertion path (rank with empty `by` passes
        // construction since all-of-nothing is a subset).
        let mut p = Plan::new();
        let iter = p.col("iter");
        let l = p.lit(vec![iter], vec![vec![Value::Int(1)]]);
        let pos = p.col("pos");
        let r = p.add(Op::Rank { out: pos, by: vec![] }, &[l]);
        let err = validate(&p, r).unwrap_err();
        assert!(err.contains("empty criteria"), "{err}");
    }

    #[test]
    fn catches_projection_over_projection() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let l = p.lit(vec![iter], vec![]);
        let inner = p.project_same(l, &[iter]);
        let outer = p.add(Op::Project(vec![(iter, iter)]), &[inner]);
        let err = validate(&p, outer).unwrap_err();
        assert!(err.contains("over a projection"), "{err}");
        // The constructor composes the same pair: into the inner π itself.
        assert_eq!(p.project_same(inner, &[iter]), inner);
    }

    #[test]
    fn catches_empty_projection() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let l = p.lit(vec![iter], vec![]);
        let pr = p.add(Op::Project(vec![]), &[l]);
        assert!(validate(&p, pr).is_err());
    }
}
