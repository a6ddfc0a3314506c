//! Predicate language for σ and ⋈ operators.
//!
//! All predicates are conjunctions of comparison atoms over scalar
//! expressions (columns, constants, and the `col + col` / `col + const`
//! sums the axis predicates of paper Fig. 3 need). This is exactly the class
//! that maps onto a conjunctive SQL `WHERE` clause.

use crate::col::{Col, ColSet};
use crate::value::Value;
use jgi_xml::NodeKind;
use std::fmt;

/// Comparison operator of a predicate atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Operator with swapped operands.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Apply to an ordering.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Scalar expression within an atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// Column reference.
    Col(Col),
    /// Constant.
    Const(Value),
    /// Sum of two scalars (`pre + size`, `level + 1`).
    Add(Box<Scalar>, Box<Scalar>),
}

impl Scalar {
    /// Shorthand: column.
    pub fn col(c: Col) -> Scalar {
        Scalar::Col(c)
    }

    /// Shorthand: integer constant.
    pub fn int(i: i64) -> Scalar {
        Scalar::Const(Value::Int(i))
    }

    /// Shorthand: `a + b` for columns.
    #[allow(clippy::should_implement_trait)] // constructor, not arithmetic on self
    pub fn add(a: Scalar, b: Scalar) -> Scalar {
        Scalar::Add(Box::new(a), Box::new(b))
    }

    /// Columns referenced by this scalar (the `cols(·)` helper of §3.1).
    pub fn cols_into(&self, out: &mut ColSet) {
        match self {
            Scalar::Col(c) => out.insert(*c),
            Scalar::Const(_) => {}
            Scalar::Add(a, b) => {
                a.cols_into(out);
                b.cols_into(out);
            }
        }
    }

    /// Rewrite column references through `f`.
    pub fn map_cols(&self, f: &mut impl FnMut(Col) -> Col) -> Scalar {
        match self {
            Scalar::Col(c) => Scalar::Col(f(*c)),
            Scalar::Const(v) => Scalar::Const(v.clone()),
            Scalar::Add(a, b) => Scalar::Add(Box::new(a.map_cols(f)), Box::new(b.map_cols(f))),
        }
    }
}

/// One comparison atom `lhs op rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left scalar.
    pub lhs: Scalar,
    /// Operator.
    pub op: CmpOp,
    /// Right scalar.
    pub rhs: Scalar,
}

impl Atom {
    /// Construct an atom.
    pub fn new(lhs: Scalar, op: CmpOp, rhs: Scalar) -> Atom {
        Atom { lhs, op, rhs }
    }

    /// `col = col` equality shorthand.
    pub fn col_eq(a: Col, b: Col) -> Atom {
        Atom::new(Scalar::col(a), CmpOp::Eq, Scalar::col(b))
    }

    /// `col = const` shorthand.
    pub fn col_eq_const(c: Col, v: Value) -> Atom {
        Atom::new(Scalar::col(c), CmpOp::Eq, Scalar::Const(v))
    }

    /// Columns mentioned in the atom.
    pub fn cols(&self) -> ColSet {
        let mut out = ColSet::new();
        self.lhs.cols_into(&mut out);
        self.rhs.cols_into(&mut out);
        out
    }

    /// Is this a plain `a = b` column equality (the join class rules (17)–
    /// (19) push down)?
    pub fn as_col_eq(&self) -> Option<(Col, Col)> {
        if self.op != CmpOp::Eq {
            return None;
        }
        match (&self.lhs, &self.rhs) {
            (Scalar::Col(a), Scalar::Col(b)) => Some((*a, *b)),
            _ => None,
        }
    }

    /// Rewrite column references through `f`.
    pub fn map_cols(&self, f: &mut impl FnMut(Col) -> Col) -> Atom {
        Atom { lhs: self.lhs.map_cols(f), op: self.op, rhs: self.rhs.map_cols(f) }
    }
}

/// A conjunctive predicate.
pub type Pred = Vec<Atom>;

/// Columns mentioned anywhere in a predicate — the paper's `cols(p)`.
pub fn pred_cols(p: &[Atom]) -> ColSet {
    let mut out = ColSet::new();
    for a in p {
        a.lhs.cols_into(&mut out);
        a.rhs.cols_into(&mut out);
    }
    out
}

/// Column roles a location step needs from the *context* side. The caller
/// (compiler rule Step) projects exactly these columns, renamed apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxCols {
    /// `pre°` — always required.
    pub pre: Col,
    /// `size°` — required by containment axes.
    pub size: Option<Col>,
    /// `level°` — required by `child`/`parent`/`attribute`.
    pub level: Option<Col>,
    /// `parent°` — required by the sibling axes.
    pub parent: Option<Col>,
    /// `kind°` — required by the sibling axes (attributes have no siblings).
    pub kind: Option<Col>,
}

/// Columns of the candidate (result) side of a step: the base `doc` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocCols {
    /// `pre`.
    pub pre: Col,
    /// `size`.
    pub size: Col,
    /// `level`.
    pub level: Col,
    /// `kind`.
    pub kind: Col,
    /// `name`.
    pub name: Col,
    /// `parent`.
    pub parent: Col,
}

/// The XPath axes, re-exported notion for predicate construction. This is a
/// plain copy of `jgi_xquery::Axis` kept here so the algebra crate does not
/// depend on the frontend (the compiler maps between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepAxis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `self::`
    SelfAxis,
    /// `attribute::`
    Attribute,
    /// `following-sibling::`
    FollowingSibling,
    /// `following::`
    Following,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `preceding::`
    Preceding,
}

impl StepAxis {
    /// Which context columns the axis predicate references.
    pub fn needs_size(self) -> bool {
        matches!(
            self,
            StepAxis::Child
                | StepAxis::Descendant
                | StepAxis::DescendantOrSelf
                | StepAxis::Attribute
                | StepAxis::Following
        )
    }

    /// Does the axis predicate reference `level°`?
    pub fn needs_level(self) -> bool {
        matches!(self, StepAxis::Child | StepAxis::Attribute)
    }

    /// Does the axis predicate reference `parent°` (and, for the sibling
    /// axes, `kind°`)?
    pub fn needs_parent(self) -> bool {
        matches!(
            self,
            StepAxis::FollowingSibling | StepAxis::PrecedingSibling | StepAxis::Parent
        )
    }

    /// Axis keyword.
    pub fn name(self) -> &'static str {
        match self {
            StepAxis::Child => "child",
            StepAxis::Descendant => "descendant",
            StepAxis::DescendantOrSelf => "descendant-or-self",
            StepAxis::SelfAxis => "self",
            StepAxis::Attribute => "attribute",
            StepAxis::FollowingSibling => "following-sibling",
            StepAxis::Following => "following",
            StepAxis::Parent => "parent",
            StepAxis::Ancestor => "ancestor",
            StepAxis::AncestorOrSelf => "ancestor-or-self",
            StepAxis::PrecedingSibling => "preceding-sibling",
            StepAxis::Preceding => "preceding",
        }
    }
}

/// Build the axis predicate `axis(α)` of paper Fig. 3 between the context
/// columns (`°`-marked) and the candidate `doc` columns.
///
/// * `child`: `pre° < pre ≤ pre° + size° ∧ level° + 1 = level`
/// * `descendant`: `pre° < pre ≤ pre° + size°`
/// * `ancestor`: `pre < pre° ≤ pre + size`
/// * `following`: `pre° + size° < pre`
/// * the sibling axes use the `parent` column (see crate docs of `jgi-xml`).
pub fn axis_pred(axis: StepAxis, ctx: CtxCols, doc: DocCols) -> Pred {
    use CmpOp::*;
    use Scalar as S;
    let cpre = S::col(ctx.pre);
    let pre = S::col(doc.pre);
    let csize = || S::col(ctx.size.expect("axis needs size°"));
    let clevel = || S::col(ctx.level.expect("axis needs level°"));
    let cend = || S::add(S::col(ctx.pre), csize()); // pre° + size°
    let end = S::add(S::col(doc.pre), S::col(doc.size)); // pre + size
    let level = S::col(doc.level);
    match axis {
        StepAxis::Child => vec![
            Atom::new(cpre.clone(), Lt, pre.clone()),
            Atom::new(pre, Le, cend()),
            Atom::new(S::add(clevel(), S::int(1)), Eq, level),
        ],
        StepAxis::Attribute => vec![
            // Attributes are encoded as children; the `kind = ATTR` part
            // comes from the node-test predicate (principal node kind).
            Atom::new(cpre.clone(), Lt, pre.clone()),
            Atom::new(pre, Le, cend()),
            Atom::new(S::add(clevel(), S::int(1)), Eq, level),
        ],
        StepAxis::Descendant => vec![
            Atom::new(cpre.clone(), Lt, pre.clone()),
            Atom::new(pre, Le, cend()),
        ],
        StepAxis::DescendantOrSelf => vec![
            Atom::new(cpre.clone(), Le, pre.clone()),
            Atom::new(pre, Le, cend()),
        ],
        StepAxis::SelfAxis => vec![Atom::new(pre, Eq, cpre)],
        StepAxis::Following => vec![Atom::new(cend(), Lt, pre)],
        StepAxis::Preceding => vec![Atom::new(end, Lt, cpre)],
        // Fig. 3's range form for `parent` (`pre < pre° ≤ pre + size ∧
        // level + 1 = level°`) is correct but never sargable without a name
        // test; with the `parent` column at hand the axis is one equality,
        // answered by any pre-keyed B-tree in a single probe.
        StepAxis::Parent => vec![Atom::new(
            pre,
            Eq,
            S::col(ctx.parent.expect("parent axis needs parent°")),
        )],
        StepAxis::Ancestor => vec![
            Atom::new(pre, Lt, cpre.clone()),
            Atom::new(cpre, Le, end),
        ],
        StepAxis::AncestorOrSelf => vec![
            Atom::new(pre, Le, cpre.clone()),
            Atom::new(cpre, Le, end),
        ],
        StepAxis::FollowingSibling => vec![
            Atom::col_eq(ctx.parent.expect("sibling axis needs parent°"), doc.parent),
            Atom::new(cpre, Lt, pre),
            Atom::new(
                S::col(ctx.kind.expect("sibling axis needs kind°")),
                Ne,
                S::Const(Value::Kind(NodeKind::Attr)),
            ),
        ],
        StepAxis::PrecedingSibling => vec![
            Atom::col_eq(ctx.parent.expect("sibling axis needs parent°"), doc.parent),
            Atom::new(pre, Lt, cpre),
            Atom::new(
                S::col(ctx.kind.expect("sibling axis needs kind°")),
                Ne,
                S::Const(Value::Kind(NodeKind::Attr)),
            ),
        ],
    }
}

/// Node test carried by the algebra (mirror of the frontend's `NodeTest`,
/// kept string-based).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StepTest {
    /// Name test (principal node kind of the axis).
    Name(String),
    /// `*`.
    Wildcard,
    /// `node()`.
    AnyKind,
    /// `text()`.
    Text,
    /// `comment()`.
    Comment,
    /// `processing-instruction([target])`.
    Pi(Option<String>),
    /// `element([name])`.
    Element(Option<String>),
    /// `attribute([name])`.
    AttributeTest(Option<String>),
    /// `document-node()`.
    Document,
}

impl fmt::Display for StepTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepTest::Name(n) => write!(f, "{n}"),
            StepTest::Wildcard => write!(f, "*"),
            StepTest::AnyKind => write!(f, "node()"),
            StepTest::Text => write!(f, "text()"),
            StepTest::Comment => write!(f, "comment()"),
            StepTest::Pi(None) => write!(f, "processing-instruction()"),
            StepTest::Pi(Some(t)) => write!(f, "processing-instruction({t})"),
            StepTest::Element(None) => write!(f, "element()"),
            StepTest::Element(Some(n)) => write!(f, "element({n})"),
            StepTest::AttributeTest(None) => write!(f, "attribute()"),
            StepTest::AttributeTest(Some(n)) => write!(f, "attribute({n})"),
            StepTest::Document => write!(f, "document-node()"),
        }
    }
}

/// Build the kind/name-test predicate `kindt(n) ∧ namet(n)` of paper Fig. 3
/// over the candidate side's `kind`/`name` columns.
///
/// The *principal node kind* of `axis` decides what a name test or `*`
/// selects (`ATTR` on the attribute axis, `ELEM` elsewhere). On axes that
/// range over subtree/document regions (`child`, `descendant`, …) a bare
/// `node()` additionally excludes attribute nodes, per the XPath data model.
pub fn test_pred(axis: StepAxis, test: &StepTest, kind: Col, name: Col) -> Pred {
    use CmpOp::*;
    let kindv = |k: NodeKind| Scalar::Const(Value::Kind(k));
    let principal = if axis == StepAxis::Attribute { NodeKind::Attr } else { NodeKind::Elem };
    let kc = Scalar::col(kind);
    let nc = Scalar::col(name);
    match test {
        StepTest::Name(t) => vec![
            Atom::new(kc, Eq, kindv(principal)),
            Atom::new(nc, Eq, Scalar::Const(Value::Str(t.clone()))),
        ],
        StepTest::Wildcard => vec![Atom::new(kc, Eq, kindv(principal))],
        StepTest::AnyKind => {
            if axis == StepAxis::Attribute {
                vec![Atom::new(kc, Eq, kindv(NodeKind::Attr))]
            } else if axis_excludes_attributes(axis) {
                vec![Atom::new(kc, Ne, kindv(NodeKind::Attr))]
            } else {
                vec![]
            }
        }
        StepTest::Text => vec![Atom::new(kc, Eq, kindv(NodeKind::Text))],
        StepTest::Comment => vec![Atom::new(kc, Eq, kindv(NodeKind::Comment))],
        StepTest::Pi(target) => {
            let mut p = vec![Atom::new(kc, Eq, kindv(NodeKind::Pi))];
            if let Some(t) = target {
                p.push(Atom::new(nc, Eq, Scalar::Const(Value::Str(t.clone()))));
            }
            p
        }
        StepTest::Element(n) => {
            let mut p = vec![Atom::new(kc, Eq, kindv(NodeKind::Elem))];
            if let Some(t) = n {
                p.push(Atom::new(nc, Eq, Scalar::Const(Value::Str(t.clone()))));
            }
            p
        }
        StepTest::AttributeTest(n) => {
            let mut p = vec![Atom::new(kc, Eq, kindv(NodeKind::Attr))];
            if let Some(t) = n {
                p.push(Atom::new(nc, Eq, Scalar::Const(Value::Str(t.clone()))));
            }
            p
        }
        StepTest::Document => vec![Atom::new(kc, Eq, kindv(NodeKind::Doc))],
    }
}

/// Axes over whose region attribute nodes lie but are *not* selected by
/// `node()` (the XPath child/descendant/sibling/following/preceding
/// sequences never contain attributes).
fn axis_excludes_attributes(axis: StepAxis) -> bool {
    matches!(
        axis,
        StepAxis::Child
            | StepAxis::Descendant
            | StepAxis::DescendantOrSelf
            | StepAxis::Following
            | StepAxis::Preceding
            | StepAxis::FollowingSibling
            | StepAxis::PrecedingSibling
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_cols() -> DocCols {
        DocCols { pre: Col(0), size: Col(1), level: Col(2), kind: Col(3), name: Col(4), parent: Col(5) }
    }

    fn ctx_cols() -> CtxCols {
        CtxCols { pre: Col(10), size: Some(Col(11)), level: Some(Col(12)), parent: Some(Col(13)), kind: Some(Col(14)) }
    }

    #[test]
    fn child_axis_matches_fig3() {
        let p = axis_pred(StepAxis::Child, ctx_cols(), doc_cols());
        assert_eq!(p.len(), 3);
        // pre° < pre
        assert_eq!(p[0], Atom::new(Scalar::col(Col(10)), CmpOp::Lt, Scalar::col(Col(0))));
        // pre <= pre° + size°
        assert_eq!(
            p[1],
            Atom::new(
                Scalar::col(Col(0)),
                CmpOp::Le,
                Scalar::add(Scalar::col(Col(10)), Scalar::col(Col(11)))
            )
        );
        // level° + 1 = level
        assert_eq!(
            p[2],
            Atom::new(
                Scalar::add(Scalar::col(Col(12)), Scalar::int(1)),
                CmpOp::Eq,
                Scalar::col(Col(2))
            )
        );
    }

    #[test]
    fn descendant_and_ancestor_are_dual() {
        let d = axis_pred(StepAxis::Descendant, ctx_cols(), doc_cols());
        let a = axis_pred(StepAxis::Ancestor, ctx_cols(), doc_cols());
        assert_eq!(d.len(), 2);
        assert_eq!(a.len(), 2);
        // descendant references size°, ancestor references size (duality
        // pre ↔ pre°, size ↔ size° of §4.1).
        assert!(pred_cols(&d).contains(Col(11)));
        assert!(pred_cols(&a).contains(Col(1)));
    }

    #[test]
    fn following_preceding() {
        let f = axis_pred(StepAxis::Following, ctx_cols(), doc_cols());
        assert_eq!(f.len(), 1);
        let p = axis_pred(StepAxis::Preceding, ctx_cols(), doc_cols());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn sibling_axes_use_parent() {
        let p = axis_pred(StepAxis::FollowingSibling, ctx_cols(), doc_cols());
        assert_eq!(p[0].as_col_eq(), Some((Col(13), Col(5))));
    }

    #[test]
    #[should_panic(expected = "axis needs size")]
    fn missing_context_columns_panic() {
        let ctx = CtxCols { pre: Col(10), size: None, level: None, parent: None, kind: None };
        axis_pred(StepAxis::Child, ctx, doc_cols());
    }

    #[test]
    fn name_test_principal_kinds() {
        let e = test_pred(StepAxis::Child, &StepTest::Name("bidder".into()), Col(3), Col(4));
        assert_eq!(e[0].rhs, Scalar::Const(Value::Kind(NodeKind::Elem)));
        let a = test_pred(StepAxis::Attribute, &StepTest::Name("id".into()), Col(3), Col(4));
        assert_eq!(a[0].rhs, Scalar::Const(Value::Kind(NodeKind::Attr)));
    }

    #[test]
    fn node_test_attribute_exclusion() {
        let c = test_pred(StepAxis::Child, &StepTest::AnyKind, Col(3), Col(4));
        assert_eq!(c, vec![Atom::new(Scalar::col(Col(3)), CmpOp::Ne, Scalar::Const(Value::Kind(NodeKind::Attr)))]);
        let s = test_pred(StepAxis::SelfAxis, &StepTest::AnyKind, Col(3), Col(4));
        assert!(s.is_empty());
        let anc = test_pred(StepAxis::Ancestor, &StepTest::AnyKind, Col(3), Col(4));
        assert!(anc.is_empty());
    }

    #[test]
    fn atom_cols_and_mapping() {
        let a = Atom::new(
            Scalar::add(Scalar::col(Col(1)), Scalar::col(Col(2))),
            CmpOp::Lt,
            Scalar::col(Col(3)),
        );
        let cols = a.cols();
        assert_eq!(cols.len(), 3);
        let mapped = a.map_cols(&mut |Col(c)| Col(c + 100));
        assert!(mapped.cols().contains(Col(101)));
        assert_eq!(a.as_col_eq(), None);
        assert_eq!(Atom::col_eq(Col(7), Col(8)).as_col_eq(), Some((Col(7), Col(8))));
    }
}
