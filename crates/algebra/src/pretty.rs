//! Plan rendering: indented text (for terminals/tests) and Graphviz DOT
//! (regenerating the shape of paper Figs. 4 and 7).

use crate::col::Col;
use crate::op::Op;
use crate::plan::{NodeId, Plan};
use crate::pred::{Atom, Scalar};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Render one operator with its parameters (paper-style notation).
pub fn op_label(plan: &Plan, op: &Op) -> String {
    let col = |c: Col| plan.col_name(c).to_string();
    match op {
        Op::Serialize { item, pos } => format!("serialize[{}, {}]", col(*item), col(*pos)),
        Op::Project(mapping) => {
            let parts: Vec<String> = mapping
                .iter()
                .map(|(out, src)| {
                    if out == src {
                        col(*out)
                    } else {
                        format!("{}:{}", col(*out), col(*src))
                    }
                })
                .collect();
            format!("π[{}]", parts.join(","))
        }
        Op::Select(p) => format!("σ[{}]", pred_label(plan, p)),
        Op::Join(p) => format!("⋈[{}]", pred_label(plan, p)),
        Op::Cross => "×".to_string(),
        Op::Distinct => "δ".to_string(),
        Op::Attach(c, v) => format!("@[{}:{}]", col(*c), v),
        Op::RowId(c) => format!("#[{}]", col(*c)),
        Op::Rank { out, by } => {
            let bys: Vec<String> = by.iter().map(|&b| col(b)).collect();
            format!("ϱ[{}:⟨{}⟩]", col(*out), bys.join(","))
        }
        Op::Doc => "doc".to_string(),
        Op::Lit { cols, rows } => {
            let names: Vec<String> = cols.iter().map(|&c| col(c)).collect();
            format!("lit[{}]({} rows)", names.join(","), rows.len())
        }
        Op::Union => "∪".to_string(),
    }
}

/// Render a conjunctive predicate.
pub fn pred_label(plan: &Plan, p: &[Atom]) -> String {
    let atoms: Vec<String> = p.iter().map(|a| atom_label(plan, a)).collect();
    atoms.join(" ∧ ")
}

/// Render one atom.
pub fn atom_label(plan: &Plan, a: &Atom) -> String {
    format!("{} {} {}", scalar_label(plan, &a.lhs), a.op.sql(), scalar_label(plan, &a.rhs))
}

/// Render a scalar expression.
pub fn scalar_label(plan: &Plan, s: &Scalar) -> String {
    match s {
        Scalar::Col(c) => plan.col_name(*c).to_string(),
        Scalar::Const(v) => v.to_string(),
        Scalar::Add(a, b) => {
            format!("{} + {}", scalar_label(plan, a), scalar_label(plan, b))
        }
    }
}

/// Render the DAG under `root` as an indented tree. Shared nodes are printed
/// once and referenced as `^N` afterwards (mirroring the single shared `doc`
/// node of Fig. 4).
pub fn render_text(plan: &Plan, root: NodeId) -> String {
    let parents = plan.parents(root);
    let mut printed: HashMap<NodeId, usize> = HashMap::new();
    let mut next_ref = 0usize;
    let mut out = String::new();
    render_node(plan, root, 0, &parents, &mut printed, &mut next_ref, &mut out);
    out
}

fn render_node(
    plan: &Plan,
    id: NodeId,
    indent: usize,
    parents: &HashMap<NodeId, Vec<NodeId>>,
    printed: &mut HashMap<NodeId, usize>,
    next_ref: &mut usize,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    if let Some(&r) = printed.get(&id) {
        let _ = writeln!(out, "{pad}^{r}");
        return;
    }
    let shared = parents.get(&id).map(|p| p.len()).unwrap_or(0) > 1;
    let label = op_label(plan, plan.node(id).op);
    if shared {
        *next_ref += 1;
        printed.insert(id, *next_ref);
        let _ = writeln!(out, "{pad}[{r}] {label}", r = *next_ref);
    } else {
        let _ = writeln!(out, "{pad}{label}");
    }
    for &i in plan.node(id).inputs {
        render_node(plan, i, indent + 1, parents, printed, next_ref, out);
    }
}

/// Render as Graphviz DOT.
pub fn render_dot(plan: &Plan, root: NodeId, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph plan {{");
    let _ = writeln!(out, "  label=\"{title}\"; node [shape=box, fontname=\"monospace\"];");
    for id in plan.topo_order(root) {
        let label = op_label(plan, plan.node(id).op).replace('"', "\\\"");
        let _ = writeln!(out, "  n{} [label=\"{}\"];", id.0, label);
        for &i in plan.node(id).inputs {
            let _ = writeln!(out, "  n{} -> n{};", id.0, i.0);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;
    use crate::value::Value;

    fn small_plan() -> (Plan, NodeId) {
        let mut p = Plan::new();
        let d = p.doc();
        let kind = p.col("kind");
        let sel = p.select(
            d,
            vec![Atom::col_eq_const(kind, Value::Kind(jgi_xml::NodeKind::Doc))],
        );
        let pre = p.col("pre");
        let item = p.col("item");
        let proj = p.project(sel, vec![(item, pre)]);
        // Join back to the shared doc leaf so sharing is visible.
        let j = p.join(proj, d, vec![Atom::new(Scalar::col(item), CmpOp::Eq, Scalar::col(pre))]);
        (p, j)
    }

    #[test]
    fn text_render_marks_sharing() {
        let (p, root) = small_plan();
        let text = render_text(&p, root);
        assert!(text.contains("⋈"), "{text}");
        assert!(text.contains("[1] doc"), "shared doc should get a ref: {text}");
        assert!(text.contains("^1"), "second occurrence should be a backref: {text}");
    }

    #[test]
    fn dot_render_contains_edges() {
        let (p, root) = small_plan();
        let dot = render_dot(&p, root, "test");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains("doc"));
    }

    #[test]
    fn labels() {
        let mut p = Plan::new();
        let item = p.col("item");
        let pos = p.col("pos");
        assert_eq!(op_label(&p, &Op::Rank { out: pos, by: vec![item] }), "ϱ[pos:⟨item⟩]");
        assert_eq!(op_label(&p, &Op::Attach(item, Value::Int(1))), "@[item:1]");
        let a = Atom::new(
            Scalar::add(Scalar::col(item), Scalar::int(1)),
            CmpOp::Le,
            Scalar::col(pos),
        );
        assert_eq!(atom_label(&p, &a), "item + 1 <= pos");
    }
}
