//! The compilation rules (paper Fig. 13).

use jgi_algebra::pred::{axis_pred, test_pred, CtxCols, StepAxis, StepTest};
use jgi_algebra::{Atom, Col, NodeId, Plan, Value};
use jgi_xquery::{Axis, BoolCore, CompOp, Core, Literal, NodeTest};
use std::collections::BTreeMap;
use std::fmt;

/// Compilation error (unbound variables are the only static failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Result of compiling a query: the plan DAG and its serialize root.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The plan arena.
    pub plan: Plan,
    /// The ⊚ root node.
    pub root: NodeId,
    /// The `item` column at the root.
    pub item: Col,
    /// The `pos` column at the root.
    pub pos: Col,
    /// The `iter` column at the root.
    pub iter: Col,
}

/// Compile a normalized XQuery Core expression into an algebraic plan.
///
/// This evaluates the judgment `∅; [1] ⊢ e ⇒ q` (a singleton `loop` table
/// represents the pseudo loop wrapped around the top-level expression) and
/// places a serialize operator at the root.
pub fn compile(core: &Core) -> Result<Compiled, CompileError> {
    let mut c = Compiler::new();
    let loop0 = c.plan.lit(vec![c.iter], vec![vec![Value::Int(1)]]);
    let q = c.seq(core, &Env::new(), loop0)?;
    let root = c.plan.serialize(q, c.item, c.pos);
    Ok(Compiled { plan: c.plan, root, item: c.item, pos: c.pos, iter: c.iter })
}

/// Variable environment Γ. Ordered: (For) and (If) rebind every visible
/// variable, allocating plan nodes as they go, so iteration order decides
/// the node ids — and with them the stacked SQL's CTE names.
type Env = BTreeMap<String, NodeId>;

struct Compiler {
    plan: Plan,
    iter: Col,
    pos: Col,
    item: Col,
}

impl Compiler {
    fn new() -> Self {
        let mut plan = Plan::new();
        let iter = plan.col("iter");
        let pos = plan.col("pos");
        let item = plan.col("item");
        Compiler { plan, iter, pos, item }
    }

    /// Γ; loop ⊢ e ⇒ q for node-sequence expressions.
    fn seq(&mut self, e: &Core, env: &Env, loop_: NodeId) -> Result<NodeId, CompileError> {
        match e {
            // (Var)
            Core::Var(v) => env
                .get(v)
                .copied()
                .ok_or_else(|| CompileError(format!("unbound variable ${v}"))),

            // (Doc):  π_{iter,pos,item:pre}(σ_{kind=DOC ∧ name=uri}(doc) × @pos:1(loop))
            Core::Doc(uri) => {
                let doc = self.plan.doc();
                let dc = self.plan.doc_cols();
                let sel = self.plan.select(
                    doc,
                    vec![
                        Atom::col_eq_const(dc.kind, Value::Kind(jgi_xml::NodeKind::Doc)),
                        Atom::col_eq_const(dc.name, Value::Str(uri.clone())),
                    ],
                );
                let looped = self.plan.attach(loop_, self.pos, Value::Int(1));
                let crossed = self.plan.cross(sel, looped);
                Ok(self.plan.project(
                    crossed,
                    vec![(self.iter, self.iter), (self.pos, self.pos), (self.item, dc.pre)],
                ))
            }

            // (Ddo):  ϱ_{pos:⟨item⟩}(δ(π_{iter,item}(q)))
            Core::Ddo(inner) => {
                let q = self.seq(inner, env, loop_)?;
                let proj =
                    self.plan.project(q, vec![(self.iter, self.iter), (self.item, self.item)]);
                let dd = self.plan.distinct(proj);
                Ok(self.plan.rank(dd, self.pos, vec![self.item]))
            }

            // (Step)
            Core::Step { input, axis, test } => {
                let q = self.seq(input, env, loop_)?;
                Ok(self.step(q, *axis, test))
            }

            // (Let)
            Core::Let { var, value, body } => {
                let qv = self.seq(value, env, loop_)?;
                let mut env2 = env.clone();
                env2.insert(var.clone(), qv);
                self.seq(body, &env2, loop_)
            }

            // (For)
            Core::For { var, seq, body } => {
                let q_in = self.seq(seq, env, loop_)?;
                let inner = self.plan.fresh("inner");
                let outer = self.plan.fresh("outer");
                let sort = self.plan.fresh("sort");
                // q_$x ≡ #inner(q_in)
                let q_x = self.plan.row_id(q_in, inner);
                // map ≡ π_{outer:iter, inner, sort:pos}(q_$x)
                let map = self.plan.project(
                    q_x,
                    vec![(outer, self.iter), (inner, inner), (sort, self.pos)],
                );
                // Rebind every visible variable through map.
                let mut env2 = Env::new();
                for (v, &qv) in env.iter() {
                    let joined = self.plan.join(map, qv, vec![Atom::col_eq(outer, self.iter)]);
                    let rebound = self.plan.project(
                        joined,
                        vec![(self.iter, inner), (self.pos, self.pos), (self.item, self.item)],
                    );
                    env2.insert(v.clone(), rebound);
                }
                // $x ↦ @pos:1(π_{iter:inner, item}(q_$x))
                let x_proj =
                    self.plan.project(q_x, vec![(self.iter, inner), (self.item, self.item)]);
                let x_bound = self.plan.attach(x_proj, self.pos, Value::Int(1));
                env2.insert(var.clone(), x_bound);
                // loop' = π_{iter:inner}(map)
                let loop2 = self.plan.project(map, vec![(self.iter, inner)]);
                let q = self.seq(body, &env2, loop2)?;
                // π_{iter:outer, pos:pos1, item}(ϱ_{pos1:⟨sort,pos⟩}(q ⋈_{iter=inner} map))
                let joined = self.plan.join(q, map, vec![Atom::col_eq(self.iter, inner)]);
                let pos1 = self.plan.fresh("pos1");
                let ranked = self.plan.rank(joined, pos1, vec![sort, self.pos]);
                Ok(self.plan.project(
                    ranked,
                    vec![(self.iter, outer), (self.pos, pos1), (self.item, self.item)],
                ))
            }

            // (If)
            Core::If { cond, then } => {
                let q_if = self.boolean(cond, env, loop_)?;
                // loop_if ≡ δ(π_iter(q_if))
                let proj = self.plan.project(q_if, vec![(self.iter, self.iter)]);
                let loop_if = self.plan.distinct(proj);
                // Rebind every visible variable to the restricted loop.
                let iter1 = self.plan.fresh("iter1");
                let loop_r = self.plan.project(loop_if, vec![(iter1, self.iter)]);
                let mut env2 = Env::new();
                for (v, &qv) in env.iter() {
                    let joined =
                        self.plan.join(loop_r, qv, vec![Atom::col_eq(iter1, self.iter)]);
                    let rebound = self.plan.project_same(joined, &[self.iter, self.pos, self.item]);
                    env2.insert(v.clone(), rebound);
                }
                self.seq(then, &env2, loop_if)
            }

            // Empty sequence: the empty literal table.
            Core::Empty => Ok(self.plan.lit(vec![self.iter, self.pos, self.item], vec![])),

            // (Seq) — extension: tag each branch with an `ord` constant,
            // union, and splice `ord` into the order criteria.
            Core::Seq(items) => {
                let ord = self.plan.fresh("ord");
                let mut tagged = Vec::with_capacity(items.len());
                for (i, item_e) in items.iter().enumerate() {
                    let q = self.seq(item_e, env, loop_)?;
                    let proj = self.plan.project_same(q, &[self.iter, self.pos, self.item]);
                    tagged.push(self.plan.attach(proj, ord, Value::Int(i as i64)));
                }
                let mut u = tagged[0];
                for &t in &tagged[1..] {
                    u = self.plan.union(u, t);
                }
                let pos1 = self.plan.fresh("pos1");
                let ranked = self.plan.rank(u, pos1, vec![ord, self.pos]);
                Ok(self.plan.project(
                    ranked,
                    vec![(self.iter, self.iter), (self.pos, pos1), (self.item, self.item)],
                ))
            }
        }
    }

    /// (Step): ϱ_{pos:⟨item⟩}(π_{iter,item:pre}(σ_{test}(doc) ⋈_{axis(α)} ctx))
    /// with ctx = π_{iter, °-cols}(doc ⋈_{pre=item} q).
    fn step(&mut self, q: NodeId, axis: Axis, test: &NodeTest) -> NodeId {
        let axis = map_axis(axis);
        let test = map_test(test);
        let doc = self.plan.doc();
        let dc = self.plan.doc_cols();
        // Context side: resolve the context nodes' infoset properties.
        let resolve = self.plan.join(doc, q, vec![Atom::col_eq(dc.pre, self.item)]);
        let cpre = self.plan.fresh("pre°");
        let mut mapping = vec![(self.iter, self.iter), (cpre, dc.pre)];
        let mut ctx = CtxCols { pre: cpre, size: None, level: None, parent: None, kind: None };
        if axis.needs_size() {
            let c = self.plan.fresh("size°");
            mapping.push((c, dc.size));
            ctx.size = Some(c);
        }
        if axis.needs_level() {
            let c = self.plan.fresh("level°");
            mapping.push((c, dc.level));
            ctx.level = Some(c);
        }
        if axis.needs_parent() {
            let cp = self.plan.fresh("parent°");
            mapping.push((cp, dc.parent));
            ctx.parent = Some(cp);
        }
        if matches!(axis, StepAxis::FollowingSibling | StepAxis::PrecedingSibling) {
            let ck = self.plan.fresh("kind°");
            mapping.push((ck, dc.kind));
            ctx.kind = Some(ck);
        }
        let ctx_plan = self.plan.project(resolve, mapping);
        // Candidate side: kind/name test over doc.
        let tested = self.plan.select(doc, test_pred(axis, &test, dc.kind, dc.name));
        // The axis range join.
        let joined = self.plan.join(tested, ctx_plan, axis_pred(axis, ctx, dc));
        let proj =
            self.plan.project(joined, vec![(self.iter, self.iter), (self.item, dc.pre)]);
        self.plan.rank(proj, self.pos, vec![self.item])
    }

    /// Boolean condition compilation: ValComp, Comp, and the Ebv extension.
    fn boolean(&mut self, b: &BoolCore, env: &Env, loop_: NodeId) -> Result<NodeId, CompileError> {
        match b {
            // fn:boolean(node sequence): true iff non-empty in the iteration.
            BoolCore::Ebv(e) => {
                let q = self.seq(e, env, loop_)?;
                Ok(self.existential(q))
            }

            // (ValComp): @item:1(@pos:1(δ(π_iter(σ_{value△val}(doc ⋈_{pre=item} q)))))
            BoolCore::ValCmp { lhs, op, rhs } => {
                let q = self.seq(lhs, env, loop_)?;
                let doc = self.plan.doc();
                let dc = self.plan.doc_cols();
                let joined = self.plan.join(doc, q, vec![Atom::col_eq(dc.pre, self.item)]);
                // Numeric literals compare against the typed `data` column,
                // string literals against the untyped `value` column (§4.1:
                // index nkdlp serves `price > 500`, vnlkp serves string
                // comparisons).
                let value_col = self.plan.col("value");
                let data_col = self.plan.col("data");
                let atom = match rhs {
                    Literal::Number(n) => Atom::new(
                        jgi_algebra::Scalar::col(data_col),
                        map_op(*op),
                        jgi_algebra::Scalar::Const(Value::Dec(*n)),
                    ),
                    Literal::String(s) => Atom::new(
                        jgi_algebra::Scalar::col(value_col),
                        map_op(*op),
                        jgi_algebra::Scalar::Const(Value::Str(s.clone())),
                    ),
                };
                let sel = self.plan.select(joined, vec![atom]);
                Ok(self.existential(sel))
            }

            // (Comp): existential comparison of two node sequences on their
            // untyped string values.
            BoolCore::Cmp { lhs, op, rhs } => {
                let q1 = self.seq(lhs, env, loop_)?;
                let q2 = self.seq(rhs, env, loop_)?;
                let doc = self.plan.doc();
                let dc = self.plan.doc_cols();
                let value_col = self.plan.col("value");
                let l = self.plan.join(doc, q1, vec![Atom::col_eq(dc.pre, self.item)]);
                let r0 = self.plan.join(doc, q2, vec![Atom::col_eq(dc.pre, self.item)]);
                let iter1 = self.plan.fresh("iter1");
                let value1 = self.plan.fresh("value1");
                let r = self.plan.project(r0, vec![(iter1, self.iter), (value1, value_col)]);
                let j = self.plan.join(l, r, vec![Atom::col_eq(self.iter, iter1)]);
                let sel = self.plan.select(
                    j,
                    vec![Atom::new(
                        jgi_algebra::Scalar::col(value_col),
                        map_op(*op),
                        jgi_algebra::Scalar::col(value1),
                    )],
                );
                Ok(self.existential(sel))
            }
        }
    }

    /// `@item:1(@pos:1(δ(π_iter(q))))` — the boolean/existential encoding.
    fn existential(&mut self, q: NodeId) -> NodeId {
        let proj = self.plan.project(q, vec![(self.iter, self.iter)]);
        let dd = self.plan.distinct(proj);
        let with_pos = self.plan.attach(dd, self.pos, Value::Int(1));
        self.plan.attach(with_pos, self.item, Value::Int(1))
    }
}

fn map_axis(a: Axis) -> StepAxis {
    match a {
        Axis::Child => StepAxis::Child,
        Axis::Descendant => StepAxis::Descendant,
        Axis::DescendantOrSelf => StepAxis::DescendantOrSelf,
        Axis::SelfAxis => StepAxis::SelfAxis,
        Axis::Attribute => StepAxis::Attribute,
        Axis::FollowingSibling => StepAxis::FollowingSibling,
        Axis::Following => StepAxis::Following,
        Axis::Parent => StepAxis::Parent,
        Axis::Ancestor => StepAxis::Ancestor,
        Axis::AncestorOrSelf => StepAxis::AncestorOrSelf,
        Axis::PrecedingSibling => StepAxis::PrecedingSibling,
        Axis::Preceding => StepAxis::Preceding,
    }
}

fn map_test(t: &NodeTest) -> StepTest {
    match t {
        NodeTest::Name(n) => StepTest::Name(n.clone()),
        NodeTest::Wildcard => StepTest::Wildcard,
        NodeTest::AnyKind => StepTest::AnyKind,
        NodeTest::Text => StepTest::Text,
        NodeTest::Comment => StepTest::Comment,
        NodeTest::Pi(t) => StepTest::Pi(t.clone()),
        NodeTest::Element(n) => StepTest::Element(n.clone()),
        NodeTest::AttributeTest(n) => StepTest::AttributeTest(n.clone()),
        NodeTest::Document => StepTest::Document,
    }
}

fn map_op(op: CompOp) -> jgi_algebra::pred::CmpOp {
    use jgi_algebra::pred::CmpOp as A;
    match op {
        CompOp::Eq => A::Eq,
        CompOp::Ne => A::Ne,
        CompOp::Lt => A::Lt,
        CompOp::Le => A::Le,
        CompOp::Gt => A::Gt,
        CompOp::Ge => A::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::validate::validate;
    use jgi_algebra::Op;
    use jgi_xquery::compile_to_core;

    fn compile_str(q: &str) -> Compiled {
        let core = compile_to_core(q).unwrap();
        compile(&core).unwrap()
    }

    #[test]
    fn q1_compiles_to_valid_dag() {
        let c = compile_str(r#"doc("auction.xml")/descendant::open_auction[bidder]"#);
        assert_eq!(validate(&c.plan, c.root), Ok(()));
        // The DAG shares a single doc leaf (paper Fig. 4).
        let docs = c
            .plan
            .topo_order(c.root)
            .into_iter()
            .filter(|&id| matches!(c.plan.node(id).op, Op::Doc))
            .count();
        assert_eq!(docs, 1, "doc leaf must be shared");
    }

    #[test]
    fn q1_plan_has_paper_operator_mix() {
        let c = compile_str(r#"doc("auction.xml")/descendant::open_auction[bidder]"#);
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for id in c.plan.topo_order(c.root) {
            *counts.entry(c.plan.node(id).op.name()).or_default() += 1;
        }
        // Fig. 4: several joins, several distincts, several ranks, a cross,
        // a rowid, attaches, and one serialize root.
        assert!(counts["join"] >= 4, "{counts:?}");
        assert!(counts["distinct"] >= 3, "{counts:?}");
        assert!(counts["rank"] >= 3, "{counts:?}");
        assert_eq!(counts["rowid"], 1, "{counts:?}");
        assert_eq!(counts["serialize"], 1, "{counts:?}");
        assert!(counts.contains_key("cross"), "{counts:?}");
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let core = compile_to_core("$nope/child::a").unwrap();
        let err = compile(&core).unwrap_err();
        assert!(err.0.contains("$nope"), "{err}");
    }

    #[test]
    fn let_binds_and_for_rebinding_works() {
        let c = compile_str(
            r#"let $a := doc("d.xml")
               for $x in $a/descendant::item
               return $x/child::name"#,
        );
        assert_eq!(validate(&c.plan, c.root), Ok(()));
    }

    #[test]
    fn nested_for_loops_compile() {
        let c = compile_str(
            r#"for $x in doc("d")/descendant::a
               return for $y in $x/child::b return $y/child::c"#,
        );
        assert_eq!(validate(&c.plan, c.root), Ok(()));
    }

    #[test]
    fn q2_compiles() {
        let q2 = r#"
            let $a := doc("auction.xml")
            for $ca in $a//closed_auction[price > 500],
                $i in $a//item,
                $c in $a//category
            where $ca/itemref/@item = $i/@id
              and $i/incategory/@category = $c/@id
            return $c/name"#;
        let c = compile_str(q2);
        assert_eq!(validate(&c.plan, c.root), Ok(()));
        // Big stacked plan, single shared doc.
        assert!(c.plan.reachable_count(c.root) > 60);
    }

    #[test]
    fn every_axis_compiles() {
        for axis in [
            "child", "descendant", "descendant-or-self", "self", "attribute",
            "following-sibling", "following", "parent", "ancestor", "ancestor-or-self",
            "preceding-sibling", "preceding",
        ] {
            let q = format!(r#"doc("d")/{axis}::node()"#);
            let c = compile_str(&q);
            assert_eq!(validate(&c.plan, c.root), Ok(()), "axis {axis}");
        }
    }

    #[test]
    fn sequence_expression_unions() {
        let c = compile_str(r#"for $x in doc("d")/child::a return ($x/child::b, $x/child::c)"#);
        assert_eq!(validate(&c.plan, c.root), Ok(()));
        let unions = c
            .plan
            .topo_order(c.root)
            .into_iter()
            .filter(|&id| matches!(c.plan.node(id).op, Op::Union))
            .count();
        assert_eq!(unions, 1);
    }

    #[test]
    fn empty_sequence_compiles() {
        let core = compile_to_core("()").unwrap();
        let c = compile(&core).unwrap();
        assert_eq!(validate(&c.plan, c.root), Ok(()));
    }

    #[test]
    fn numeric_comparison_uses_data_column() {
        let c = compile_str(r#"doc("d")/descendant::price[. > 500]"#);
        let mut saw_data_atom = false;
        for id in c.plan.topo_order(c.root) {
            if let Op::Select(p) = &c.plan.node(id).op {
                for atom in p {
                    let rendered = jgi_algebra::pretty::atom_label(&c.plan, atom);
                    if rendered.contains("data") && rendered.contains("500") {
                        saw_data_atom = true;
                    }
                }
            }
        }
        assert!(saw_data_atom, "expected a data > 500 selection");
    }

    #[test]
    fn string_comparison_uses_value_column() {
        let c = compile_str(r#"doc("d")/descendant::person[@id = "person0"]"#);
        let mut saw = false;
        for id in c.plan.topo_order(c.root) {
            if let Op::Select(p) = &c.plan.node(id).op {
                for atom in p {
                    let rendered = jgi_algebra::pretty::atom_label(&c.plan, atom);
                    if rendered.contains("value") && rendered.contains("person0") {
                        saw = true;
                    }
                }
            }
        }
        assert!(saw);
    }
}
