//! Plan lints: structural smells with structured diagnostics.
//!
//! Each lint names a shape the rewriter is supposed to eliminate; on a
//! fully isolated plan the whole registry is expected to stay silent,
//! while the stacked (pre-rewrite) plans of the paper corpus light up
//! several classes. The `lint-plans` binary in `jgi-bench` runs the
//! registry over Q1–Q8 and CI keeps the isolated side at zero.

use jgi_algebra::{NodeId, Op, Plan};
use jgi_rewrite::{infer, Props};
use std::collections::HashSet;

/// One diagnostic: which lint, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    /// Registry code (stable identifier, e.g. `"stranded-blocking"`).
    pub code: &'static str,
    /// The offending node.
    pub node: NodeId,
    /// Operator name of the offending node.
    pub op: &'static str,
    /// Explanation with column/rule context.
    pub message: String,
}

impl std::fmt::Display for LintDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: node {} ({}): {}", self.code, self.node.0, self.op, self.message)
    }
}

type LintFn = fn(&Plan, NodeId, &Props, &mut Vec<LintDiag>);

/// A registered lint.
pub struct LintDef {
    /// Stable code used in diagnostics and golden tests.
    pub code: &'static str,
    /// One-line description of what the lint flags.
    pub summary: &'static str,
    run: LintFn,
}

/// The lint registry, in reporting order.
pub const LINTS: &[LintDef] = &[
    LintDef {
        code: "dead-column",
        summary: "attach/#/ϱ produces a column no consumer needs (rules (3)/(4) residue)",
        run: lint_dead_column,
    },
    LintDef {
        code: "redundant-projection",
        summary: "identity projection (rule (2b) residue)",
        run: lint_redundant_projection,
    },
    LintDef {
        code: "stranded-blocking",
        summary: "δ/ϱ/# outside the plan tail — the join bundle is not pure",
        run: lint_stranded_blocking,
    },
    LintDef {
        code: "unpushed-equijoin",
        summary: "equi-join with blocking operators still below it (not pushed to the base)",
        run: lint_unpushed_equijoin,
    },
    LintDef {
        code: "redundant-self-join",
        summary: "self-join on a key — an unused doc occurrence rule (19) should remove",
        run: lint_redundant_self_join,
    },
];

/// Run every registered lint over the DAG under `root`.
pub fn lint(plan: &Plan, root: NodeId) -> Vec<LintDiag> {
    let props = infer(plan, root);
    let mut out = Vec::new();
    for def in LINTS {
        (def.run)(plan, root, &props, &mut out);
    }
    out
}

/// Distinct lint codes present in `diags`, in registry order.
pub fn lint_codes(diags: &[LintDiag]) -> Vec<&'static str> {
    LINTS
        .iter()
        .map(|d| d.code)
        .filter(|code| diags.iter().any(|d| d.code == *code))
        .collect()
}

fn lint_dead_column(plan: &Plan, root: NodeId, props: &Props, out: &mut Vec<LintDiag>) {
    for id in plan.topo_order(root) {
        let node = plan.node(id);
        let produced = match &node.op {
            Op::Attach(c, _) => *c,
            Op::RowId(c) => *c,
            Op::Rank { out, .. } => *out,
            _ => continue,
        };
        if !props.icols(id).contains(produced) {
            out.push(LintDiag {
                code: "dead-column",
                node: id,
                op: node.op.name(),
                message: format!(
                    "produced column `{}` is required by no consumer",
                    plan.col_name(produced)
                ),
            });
        }
    }
}

fn lint_redundant_projection(plan: &Plan, root: NodeId, _props: &Props, out: &mut Vec<LintDiag>) {
    for id in plan.topo_order(root) {
        let node = plan.node(id);
        let Op::Project(m) = &node.op else { continue };
        let input = node.inputs[0];
        let identity = m.iter().all(|(o, s)| o == s) && m.len() == plan.schema(input).len();
        if identity {
            out.push(LintDiag {
                code: "redundant-projection",
                node: id,
                op: "project",
                message: "identity projection — rule (2b) removes it".into(),
            });
        }
    }
}

/// The *plan tail* is the spine of order/duplicate bookkeeping the paper
/// leaves above the join bundle: serialize, π, δ, ϱ, attach, and ∪
/// (per-branch tails of a sequence query). Blocking operators anywhere
/// else keep the bundle from being a pure join graph.
fn tail_spine(plan: &Plan, root: NodeId) -> HashSet<NodeId> {
    let mut spine = HashSet::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if !spine.insert(id) {
            continue;
        }
        let node = plan.node(id);
        if matches!(
            node.op,
            Op::Serialize { .. }
                | Op::Project(_)
                | Op::Distinct
                | Op::Rank { .. }
                | Op::Attach(..)
                | Op::Union
        ) {
            stack.extend(node.inputs.iter().copied());
        }
    }
    spine
}

fn lint_stranded_blocking(plan: &Plan, root: NodeId, _props: &Props, out: &mut Vec<LintDiag>) {
    let spine = tail_spine(plan, root);
    for id in plan.topo_order(root) {
        let node = plan.node(id);
        if matches!(node.op, Op::Distinct | Op::Rank { .. } | Op::RowId(_))
            && !spine.contains(&id)
        {
            out.push(LintDiag {
                code: "stranded-blocking",
                node: id,
                op: node.op.name(),
                message: "blocking operator below the join bundle, outside the plan tail"
                    .into(),
            });
        }
    }
}

fn lint_unpushed_equijoin(plan: &Plan, root: NodeId, _props: &Props, out: &mut Vec<LintDiag>) {
    for id in plan.topo_order(root) {
        let node = plan.node(id);
        let Op::Join(p) = &node.op else { continue };
        let [atom] = p.as_slice() else { continue };
        if atom.as_col_eq().is_none() {
            continue;
        }
        let blocked = plan
            .topo_order(id)
            .into_iter()
            .filter(|&b| b != id)
            .find(|&b| plan.node(b).op.is_blocking() || matches!(plan.node(b).op, Op::RowId(_)));
        if let Some(b) = blocked {
            out.push(LintDiag {
                code: "unpushed-equijoin",
                node: id,
                op: "join",
                message: format!(
                    "equi-join not pushed to the base: blocking {} (node {}) below it",
                    plan.node(b).op.name(),
                    b.0
                ),
            });
        }
    }
}

/// Follow a column through a chain of projections to the node that
/// actually computes it.
fn unwrap_projections(plan: &Plan, mut id: NodeId, mut col: jgi_algebra::Col) -> (NodeId, jgi_algebra::Col) {
    loop {
        let node = plan.node(id);
        let Op::Project(m) = &node.op else { return (id, col) };
        let Some((_, src)) = m.iter().find(|(out, _)| *out == col) else {
            return (id, col);
        };
        col = *src;
        id = node.inputs[0];
    }
}

fn lint_redundant_self_join(plan: &Plan, root: NodeId, props: &Props, out: &mut Vec<LintDiag>) {
    for id in plan.topo_order(root) {
        let node = plan.node(id);
        let Op::Join(p) = &node.op else { continue };
        let [atom] = p.as_slice() else { continue };
        let Some((a, b)) = atom.as_col_eq() else { continue };
        let (a, b) = if plan.schema(node.inputs[0]).contains(a) { (a, b) } else { (b, a) };
        let (base_l, col_l) = unwrap_projections(plan, node.inputs[0], a);
        let (base_r, col_r) = unwrap_projections(plan, node.inputs[1], b);
        if base_l == base_r && col_l == col_r && props.is_single_key(base_l, col_l) {
            out.push(LintDiag {
                code: "redundant-self-join",
                node: id,
                op: "join",
                message: format!(
                    "both sides are node {} joined on its key `{}` — rule (19) \
                     eliminates this unused occurrence",
                    base_l.0,
                    plan.col_name(col_l)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::Value;

    #[test]
    fn clean_tail_plan_has_no_lints() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let pos = p.col("pos");
        let proj = p.project(d, vec![(item, pre)]);
        let dd = p.distinct(proj);
        let r = p.rank(dd, pos, vec![item]);
        let root = p.serialize(r, item, pos);
        let diags = lint(&p, root);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_dead_attach_and_identity_projection() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let pos = p.col("pos");
        let junk = p.col("junk");
        let proj = p.project(d, vec![(item, pre), (pos, pre)]);
        let att = p.attach(proj, junk, Value::Int(7));
        let schema: Vec<_> = p.schema(att).iter().collect();
        let ident = p.project_same(att, &schema);
        let root = p.serialize(ident, item, pos);
        let diags = lint(&p, root);
        let codes = lint_codes(&diags);
        assert!(codes.contains(&"dead-column"), "{diags:?}");
        let ident_diag = diags.iter().find(|d| d.code == "redundant-projection");
        assert_eq!(ident_diag.map(|d| d.node), Some(ident), "{diags:?}");
    }

    #[test]
    fn flags_stranded_blocking_and_unpushed_join() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let iter = p.col("iter");
        let pos = p.col("pos");
        // δ below a join: stranded, and the equi-join sees blocking input.
        let proj = p.project(d, vec![(item, pre)]);
        let dd = p.distinct(proj);
        let lit = p.lit(vec![iter], vec![vec![Value::Int(1)]]);
        let j = p.join(dd, lit, vec![jgi_algebra::pred::Atom::col_eq(item, iter)]);
        let r = p.rank(j, pos, vec![item]);
        let root = p.serialize(r, item, pos);
        let diags = lint(&p, root);
        let codes = lint_codes(&diags);
        assert!(codes.contains(&"stranded-blocking"), "{diags:?}");
        assert!(codes.contains(&"unpushed-equijoin"), "{diags:?}");
    }

    #[test]
    fn flags_self_join_on_key() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let pre2 = p.col("pre2");
        let pos = p.col("pos");
        let renamed = p.project(d, vec![(pre2, pre)]);
        let j = p.join(d, renamed, vec![jgi_algebra::pred::Atom::col_eq(pre, pre2)]);
        let proj = p.project(j, vec![(item, pre), (pos, pre)]);
        let root = p.serialize(proj, item, pos);
        let diags = lint(&p, root);
        assert!(lint_codes(&diags).contains(&"redundant-self-join"), "{diags:?}");
    }
}
