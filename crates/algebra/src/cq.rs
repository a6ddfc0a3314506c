//! Conjunctive queries — the *join graph* normal form.
//!
//! After isolation (crate `jgi-rewrite`), a plan collapses into a bundle of
//! `doc` self-joins plus a plan tail, i.e. a single
//! `SELECT DISTINCT … FROM doc AS d1,…,dN WHERE … ORDER BY …` block
//! (paper §3, Figs. 7–9). [`ConjunctiveQuery`] is that block as data: it is
//! produced by the rewriter's extractor, executed by the engine's cost-based
//! optimizer, and printed/parsed as SQL text by `jgi-sql`.

use crate::pred::CmpOp;
use crate::value::Value;
use std::fmt;

/// A column of the `doc` encoding relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DocCol {
    /// Document-order rank (key).
    Pre,
    /// Subtree size.
    Size,
    /// Depth.
    Level,
    /// Node kind.
    Kind,
    /// Tag/attribute name (or URI for `DOC` rows).
    Name,
    /// Untyped string value.
    Value,
    /// Typed decimal value.
    Data,
    /// Parent's `pre` rank.
    Parent,
}

impl DocCol {
    /// SQL column name.
    pub fn sql(self) -> &'static str {
        match self {
            DocCol::Pre => "pre",
            DocCol::Size => "size",
            DocCol::Level => "level",
            DocCol::Kind => "kind",
            DocCol::Name => "name",
            DocCol::Value => "value",
            DocCol::Data => "data",
            DocCol::Parent => "parent",
        }
    }

    /// Parse a SQL column name.
    pub fn from_sql(s: &str) -> Option<DocCol> {
        Some(match s {
            "pre" => DocCol::Pre,
            "size" => DocCol::Size,
            "level" => DocCol::Level,
            "kind" => DocCol::Kind,
            "name" => DocCol::Name,
            "value" => DocCol::Value,
            "data" => DocCol::Data,
            "parent" => DocCol::Parent,
            _ => return None,
        })
    }

    /// One-letter key used in index names (paper Table 6: `p`, `s`, `l`,
    /// `k`, `n`, `v`, `d`; we add `q` for `parent`).
    pub fn letter(self) -> char {
        match self {
            DocCol::Pre => 'p',
            DocCol::Size => 's',
            DocCol::Level => 'l',
            DocCol::Kind => 'k',
            DocCol::Name => 'n',
            DocCol::Value => 'v',
            DocCol::Data => 'd',
            DocCol::Parent => 'q',
        }
    }

    /// All columns.
    pub fn all() -> [DocCol; 8] {
        [
            DocCol::Pre,
            DocCol::Size,
            DocCol::Level,
            DocCol::Kind,
            DocCol::Name,
            DocCol::Value,
            DocCol::Data,
            DocCol::Parent,
        ]
    }
}

/// Reference to a column of one `doc` alias (`d3.pre`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Alias index (0-based; prints as `d1`, `d2`, …).
    pub alias: usize,
    /// The column.
    pub col: DocCol,
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}.{}", self.alias + 1, self.col.sql())
    }
}

/// Scalar term of a conjunctive-query predicate: `d3.pre`,
/// `d3.pre + d3.size`, `d2.level + 1`, or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CqScalar {
    /// Plain column.
    Col(ColRef),
    /// Column plus integer offset (`level + 1`).
    ColPlusInt(ColRef, i64),
    /// Column plus column — both of the *same* alias (`pre + size`).
    ColPlusCol(ColRef, ColRef),
    /// Constant.
    Const(Value),
}

impl CqScalar {
    /// Aliases referenced by this scalar.
    pub fn aliases(&self) -> Vec<usize> {
        match self {
            CqScalar::Col(c) | CqScalar::ColPlusInt(c, _) => vec![c.alias],
            CqScalar::ColPlusCol(a, b) => {
                if a.alias == b.alias {
                    vec![a.alias]
                } else {
                    vec![a.alias, b.alias]
                }
            }
            CqScalar::Const(_) => vec![],
        }
    }
}

impl fmt::Display for CqScalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqScalar::Col(c) => write!(f, "{c}"),
            CqScalar::ColPlusInt(c, i) => write!(f, "{c} + {i}"),
            CqScalar::ColPlusCol(a, b) => write!(f, "{a} + {b}"),
            CqScalar::Const(v) => write!(f, "{v}"),
        }
    }
}

/// One predicate atom `lhs op rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CqAtom {
    /// Left term.
    pub lhs: CqScalar,
    /// Operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: CqScalar,
}

impl CqAtom {
    /// Aliases referenced by the atom.
    pub fn aliases(&self) -> Vec<usize> {
        let mut v = self.lhs.aliases();
        for a in self.rhs.aliases() {
            if !v.contains(&a) {
                v.push(a);
            }
        }
        v
    }

    /// Is this a single-alias (local) predicate?
    pub fn is_local(&self) -> bool {
        self.aliases().len() <= 1
    }
}

impl fmt::Display for CqAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.sql(), self.rhs)
    }
}

/// Output column of the block's `SELECT DISTINCT` list.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputCol {
    /// The referenced column.
    pub col: ColRef,
    /// Optional `AS` name (Fig. 9 uses `item1`, `item2`, …).
    pub name: Option<String>,
}

/// A complete join-graph block:
/// `SELECT DISTINCT <select> FROM doc AS d1,…,dN WHERE <preds> ORDER BY <order>`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConjunctiveQuery {
    /// Number of `doc` instances (aliases `d1`…`dN`).
    pub aliases: usize,
    /// All predicate atoms (local and join predicates together, as in the
    /// `WHERE` clause).
    pub predicates: Vec<CqAtom>,
    /// `SELECT DISTINCT` output columns.
    pub select: Vec<OutputCol>,
    /// Whether `DISTINCT` applies (always true for isolated plans).
    pub distinct: bool,
    /// `ORDER BY` columns, significant first.
    pub order_by: Vec<ColRef>,
    /// Index into `select` of the column holding the result node reference
    /// (the serialize `item`).
    pub item_output: usize,
}

impl ConjunctiveQuery {
    /// Local predicates of alias `a` (single-alias atoms).
    pub fn local_preds(&self, a: usize) -> Vec<&CqAtom> {
        self.predicates
            .iter()
            .filter(|p| p.is_local() && p.aliases() == vec![a])
            .collect()
    }

    /// Join predicates (atoms spanning two aliases).
    pub fn join_preds(&self) -> Vec<&CqAtom> {
        self.predicates.iter().filter(|p| !p.is_local()).collect()
    }

    /// Aliases connected to `a` by some join predicate.
    pub fn neighbors(&self, a: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for p in self.join_preds() {
            let aliases = p.aliases();
            if aliases.contains(&a) {
                for &other in &aliases {
                    if other != a && !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cr(alias: usize, col: DocCol) -> ColRef {
        ColRef { alias, col }
    }

    #[test]
    fn doccol_round_trip() {
        for c in DocCol::all() {
            assert_eq!(DocCol::from_sql(c.sql()), Some(c));
        }
        assert_eq!(DocCol::from_sql("bogus"), None);
    }

    #[test]
    fn atom_locality() {
        let local = CqAtom {
            lhs: CqScalar::Col(cr(0, DocCol::Kind)),
            op: CmpOp::Eq,
            rhs: CqScalar::Const(Value::Str("x".into())),
        };
        assert!(local.is_local());
        let join = CqAtom {
            lhs: CqScalar::Col(cr(0, DocCol::Pre)),
            op: CmpOp::Lt,
            rhs: CqScalar::ColPlusCol(cr(1, DocCol::Pre), cr(1, DocCol::Size)),
        };
        assert!(!join.is_local());
        assert_eq!(join.aliases(), vec![0, 1]);
    }

    #[test]
    fn neighbors() {
        let q = ConjunctiveQuery {
            aliases: 3,
            predicates: vec![
                CqAtom {
                    lhs: CqScalar::Col(cr(0, DocCol::Pre)),
                    op: CmpOp::Lt,
                    rhs: CqScalar::Col(cr(1, DocCol::Pre)),
                },
                CqAtom {
                    lhs: CqScalar::Col(cr(1, DocCol::Value)),
                    op: CmpOp::Eq,
                    rhs: CqScalar::Col(cr(2, DocCol::Value)),
                },
            ],
            ..Default::default()
        };
        assert_eq!(q.neighbors(1), vec![0, 2]);
        assert_eq!(q.neighbors(0), vec![1]);
        assert_eq!(q.local_preds(0).len(), 0);
        assert_eq!(q.join_preds().len(), 2);
    }

    #[test]
    fn display_forms() {
        let a = CqAtom {
            lhs: CqScalar::Col(cr(1, DocCol::Pre)),
            op: CmpOp::Le,
            rhs: CqScalar::ColPlusCol(cr(0, DocCol::Pre), cr(0, DocCol::Size)),
        };
        assert_eq!(a.to_string(), "d2.pre <= d1.pre + d1.size");
        let b = CqScalar::ColPlusInt(cr(2, DocCol::Level), 1);
        assert_eq!(b.to_string(), "d3.level + 1");
    }
}
