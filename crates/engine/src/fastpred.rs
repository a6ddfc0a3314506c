//! Compiled predicate atoms for the inner loops.
//!
//! The generic [`CqAtom`] evaluator materializes [`Value`]s — including a
//! `String` per `name`/`value` column access — which is far too expensive
//! for the per-row residual checks of index nested-loop joins. At plan time
//! (the [`crate::optimizer`] has the [`Database`] at hand) every residual
//! atom is compiled into a [`FastAtom`]: structural comparisons run on
//! plain integers, name/kind/value equality compares interned ids, and
//! string-*ordered* comparisons compare lexicographic ranks from
//! [`crate::catalog::Symbols`] — so no fast form touches string data at
//! evaluation time.
//!
//! Every form also has a columnar kernel ([`FastAtom::eval_batch`])
//! filtering a selection vector over a struct-of-arrays binding batch in
//! one pass; only [`FastAtom::Generic`] falls back to per-row evaluation.

use crate::catalog::{Database, RankOf};
use jgi_algebra::cq::{CqAtom, CqScalar, DocCol};
use jgi_algebra::pred::CmpOp;
use jgi_algebra::Value;
use jgi_xml::encode::{NO_NAME, NO_PARENT, NO_VALUE};
use jgi_xml::NodeKind;

/// Integer-valued column expression (`NULL` ⇒ `None`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntExpr {
    /// `pre` of an alias.
    Pre(usize),
    /// `size`.
    Size(usize),
    /// `level`.
    Level(usize),
    /// `parent`.
    Parent(usize),
    /// `pre + size` (subtree end).
    PreEnd(usize),
    /// Expression plus constant.
    Plus(DocCol, usize, i64),
    /// Constant.
    Const(i64),
}

impl IntExpr {
    /// Evaluate against the binding tuple.
    #[inline]
    pub fn eval(self, db: &Database, bindings: &[u32]) -> Option<i64> {
        self.eval_at(db, |a| bindings[a])
    }

    /// Evaluate with an arbitrary alias → `pre` accessor — the same code
    /// serves per-row residual checks (slice indexing) and the batch
    /// kernels (column indexing).
    #[inline]
    pub fn eval_at(self, db: &Database, get: impl Fn(usize) -> u32) -> Option<i64> {
        let pre = |a: usize| get(a) as usize;
        Some(match self {
            IntExpr::Pre(a) => get(a) as i64,
            IntExpr::Size(a) => db.store.size[pre(a)] as i64,
            IntExpr::Level(a) => db.store.level[pre(a)] as i64,
            IntExpr::Parent(a) => {
                let p = db.store.parent[pre(a)];
                if p == NO_PARENT {
                    return None;
                }
                p as i64
            }
            IntExpr::PreEnd(a) => get(a) as i64 + db.store.size[pre(a)] as i64,
            IntExpr::Plus(col, a, d) => {
                let base = match col {
                    DocCol::Pre => get(a) as i64,
                    DocCol::Size => db.store.size[pre(a)] as i64,
                    DocCol::Level => db.store.level[pre(a)] as i64,
                    DocCol::Parent => {
                        let p = db.store.parent[pre(a)];
                        if p == NO_PARENT {
                            return None;
                        }
                        p as i64
                    }
                    _ => return None,
                };
                base + d
            }
            IntExpr::Const(c) => c,
        })
    }
}

/// A compiled predicate atom.
#[derive(Debug, Clone, PartialEq)]
pub enum FastAtom {
    /// Integer comparison over structural columns.
    Int(IntExpr, CmpOp, IntExpr),
    /// `kind op constant`.
    Kind(usize, CmpOp, NodeKind),
    /// `name = constant` (id-compared; an unseen name matches nothing).
    NameEq(usize, Option<u32>),
    /// `value = constant` (id-compared).
    ValueEqConst(usize, Option<u32>),
    /// `value op constant` for non-equality string comparisons, compiled
    /// to an integer compare of the row's lexicographic *rank* against a
    /// threshold (see [`crate::catalog::Symbols`]); `op` is pre-adjusted
    /// at compile time when the constant is not interned.
    ValueRankCmp(usize, CmpOp, u32),
    /// `data op constant`.
    DataCmp(usize, CmpOp, f64),
    /// `value op value` between two aliases (interned ids for =/≠,
    /// lexicographic ranks for the ordered operators).
    ValueValue(usize, CmpOp, usize),
    /// Anything else: fall back to the generic evaluator.
    Generic(CqAtom),
}

impl FastAtom {
    /// Evaluate against the binding tuple (NULL ⇒ false, like SQL).
    #[inline]
    pub fn eval(&self, db: &Database, bindings: &[u32]) -> bool {
        match self {
            FastAtom::Int(l, op, r) => match (l.eval(db, bindings), r.eval(db, bindings)) {
                (Some(a), Some(b)) => op.test(a.cmp(&b)),
                _ => false,
            },
            FastAtom::Kind(a, op, k) => {
                let actual = db.store.kind[bindings[*a] as usize];
                op.test((actual as u8).cmp(&(*k as u8)))
            }
            FastAtom::NameEq(a, id) => match id {
                Some(id) => db.store.name[bindings[*a] as usize] == *id,
                None => false,
            },
            FastAtom::ValueEqConst(a, id) => match id {
                Some(id) => db.store.value[bindings[*a] as usize] == *id,
                None => false,
            },
            FastAtom::ValueRankCmp(a, op, t) => {
                let vid = db.store.value[bindings[*a] as usize];
                if vid == NO_VALUE {
                    return false;
                }
                op.test(db.symbols.value_rank[vid as usize].cmp(t))
            }
            FastAtom::DataCmp(a, op, c) => {
                let d = db.store.data[bindings[*a] as usize];
                if d.is_nan() {
                    return false;
                }
                op.test(d.total_cmp(c))
            }
            FastAtom::ValueValue(a, op, b) => {
                let va = db.store.value[bindings[*a] as usize];
                let vb = db.store.value[bindings[*b] as usize];
                if va == NO_VALUE || vb == NO_VALUE {
                    return false;
                }
                match op {
                    CmpOp::Eq => va == vb,
                    CmpOp::Ne => va != vb,
                    _ => op.test(
                        db.symbols.value_rank[va as usize]
                            .cmp(&db.symbols.value_rank[vb as usize]),
                    ),
                }
            }
            FastAtom::Generic(atom) => crate::physical::eval_cq_atom(db, atom, bindings),
        }
    }

    /// Columnar kernel: filter the selection vector `sel` (row indices into
    /// a struct-of-arrays batch) down to the rows satisfying the atom, in
    /// one pass and in place. `cols[alias]` holds the `pre` rank column of
    /// each alias bound in the batch (unbound aliases may be empty).
    /// `scratch` is a reusable bindings buffer used only by the
    /// [`FastAtom::Generic`] per-row fallback.
    ///
    /// Evaluating atom-by-atom over a shrinking selection performs exactly
    /// the same predicate evaluations as the scalar short-circuit `all()`
    /// per row, so comparison counters stay bit-identical between modes.
    pub fn eval_batch(
        &self,
        db: &Database,
        cols: &[Vec<u32>],
        sel: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) {
        match self {
            FastAtom::Int(l, op, r) => retain(sel, |i| {
                match (l.eval_at(db, |a| cols[a][i]), r.eval_at(db, |a| cols[a][i])) {
                    (Some(x), Some(y)) => op.test(x.cmp(&y)),
                    _ => false,
                }
            }),
            FastAtom::Kind(a, op, k) => {
                let col = &cols[*a];
                let kind = &db.store.kind;
                let k = *k as u8;
                retain(sel, |i| op.test((kind[col[i] as usize] as u8).cmp(&k)));
            }
            FastAtom::NameEq(a, id) => match id {
                Some(id) => {
                    let col = &cols[*a];
                    let name = &db.store.name;
                    retain(sel, |i| name[col[i] as usize] == *id);
                }
                None => sel.clear(),
            },
            FastAtom::ValueEqConst(a, id) => match id {
                Some(id) => {
                    let col = &cols[*a];
                    let value = &db.store.value;
                    retain(sel, |i| value[col[i] as usize] == *id);
                }
                None => sel.clear(),
            },
            FastAtom::ValueRankCmp(a, op, t) => {
                let col = &cols[*a];
                let value = &db.store.value;
                let rank = &db.symbols.value_rank;
                retain(sel, |i| {
                    let vid = value[col[i] as usize];
                    vid != NO_VALUE && op.test(rank[vid as usize].cmp(t))
                });
            }
            FastAtom::DataCmp(a, op, c) => {
                let col = &cols[*a];
                let data = &db.store.data;
                retain(sel, |i| {
                    let d = data[col[i] as usize];
                    !d.is_nan() && op.test(d.total_cmp(c))
                });
            }
            FastAtom::ValueValue(a, op, b) => {
                let ca = &cols[*a];
                let cb = &cols[*b];
                let value = &db.store.value;
                let rank = &db.symbols.value_rank;
                retain(sel, |i| {
                    let va = value[ca[i] as usize];
                    let vb = value[cb[i] as usize];
                    if va == NO_VALUE || vb == NO_VALUE {
                        return false;
                    }
                    match op {
                        CmpOp::Eq => va == vb,
                        CmpOp::Ne => va != vb,
                        _ => op.test(rank[va as usize].cmp(&rank[vb as usize])),
                    }
                });
            }
            FastAtom::Generic(atom) => {
                scratch.resize(cols.len(), u32::MAX);
                retain(sel, |i| {
                    for (slot, col) in scratch.iter_mut().zip(cols) {
                        *slot = col.get(i).copied().unwrap_or(u32::MAX);
                    }
                    crate::physical::eval_cq_atom(db, atom, scratch)
                });
            }
        }
    }

    /// True for the form whose batch kernel is the per-row fallback.
    pub fn is_generic(&self) -> bool {
        matches!(self, FastAtom::Generic(_))
    }
}

/// In-place selection-vector filter: keep the indices `keep` approves,
/// preserving order.
#[inline]
fn retain(sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
    let mut kept = 0;
    for s in 0..sel.len() {
        let i = sel[s];
        if keep(i as usize) {
            sel[kept] = i;
            kept += 1;
        }
    }
    sel.truncate(kept);
}

/// Compile one atom. Interned-id lookups happen here, once.
pub fn compile_atom(db: &Database, atom: &CqAtom) -> FastAtom {
    // Structural integer expressions.
    let int_expr = |s: &CqScalar| -> Option<IntExpr> {
        match s {
            CqScalar::Col(c) => Some(match c.col {
                DocCol::Pre => IntExpr::Pre(c.alias),
                DocCol::Size => IntExpr::Size(c.alias),
                DocCol::Level => IntExpr::Level(c.alias),
                DocCol::Parent => IntExpr::Parent(c.alias),
                _ => return None,
            }),
            CqScalar::ColPlusInt(c, d) => match c.col {
                DocCol::Pre | DocCol::Size | DocCol::Level | DocCol::Parent => {
                    Some(IntExpr::Plus(c.col, c.alias, *d))
                }
                _ => None,
            },
            CqScalar::ColPlusCol(a, b)
                if a.alias == b.alias && a.col == DocCol::Pre && b.col == DocCol::Size =>
            {
                Some(IntExpr::PreEnd(a.alias))
            }
            CqScalar::Const(Value::Int(i)) => Some(IntExpr::Const(*i)),
            _ => None,
        }
    };
    if let (Some(l), Some(r)) = (int_expr(&atom.lhs), int_expr(&atom.rhs)) {
        return FastAtom::Int(l, atom.op, r);
    }
    // Column-vs-constant forms (both orientations).
    let oriented = match (&atom.lhs, &atom.rhs) {
        (CqScalar::Col(c), CqScalar::Const(v)) => Some((c, atom.op, v)),
        (CqScalar::Const(v), CqScalar::Col(c)) => Some((c, atom.op.flipped(), v)),
        _ => None,
    };
    if let Some((c, op, v)) = oriented {
        match (c.col, v) {
            (DocCol::Kind, Value::Kind(k)) => return FastAtom::Kind(c.alias, op, *k),
            (DocCol::Name, Value::Str(s)) if op == CmpOp::Eq => {
                let id = db.store.names.get(s).filter(|&i| i != NO_NAME);
                return FastAtom::NameEq(c.alias, id);
            }
            (DocCol::Value, Value::Str(s)) => {
                if op == CmpOp::Eq {
                    let id = db.store.values.get(s).filter(|&i| i != NO_VALUE);
                    return FastAtom::ValueEqConst(c.alias, id);
                }
                // Ordered/≠ compares become rank-threshold compares. For an
                // absent constant the threshold is its insertion rank: every
                // interned value with a smaller rank is `<` it, every other
                // is `>` it, and none equals it.
                return match db.symbols.value_rank_of(&db.store, s) {
                    RankOf::Present(t) => FastAtom::ValueRankCmp(c.alias, op, t),
                    RankOf::Absent(t) => match op {
                        CmpOp::Lt | CmpOp::Le => {
                            FastAtom::ValueRankCmp(c.alias, CmpOp::Lt, t)
                        }
                        CmpOp::Gt | CmpOp::Ge => {
                            FastAtom::ValueRankCmp(c.alias, CmpOp::Ge, t)
                        }
                        // `value ≠ s` holds for every non-NULL value.
                        CmpOp::Ne => FastAtom::ValueRankCmp(c.alias, CmpOp::Ne, u32::MAX),
                        CmpOp::Eq => FastAtom::ValueEqConst(c.alias, None),
                    },
                };
            }
            (DocCol::Data, Value::Dec(d)) => return FastAtom::DataCmp(c.alias, op, *d),
            (DocCol::Data, Value::Int(i)) => {
                return FastAtom::DataCmp(c.alias, op, *i as f64)
            }
            _ => {}
        }
    }
    // value = value joins.
    if let (CqScalar::Col(a), CqScalar::Col(b)) = (&atom.lhs, &atom.rhs) {
        if a.col == DocCol::Value && b.col == DocCol::Value {
            return FastAtom::ValueValue(a.alias, atom.op, b.alias);
        }
    }
    FastAtom::Generic(atom.clone())
}

/// Compile a conjunction.
pub fn compile_atoms(db: &Database, atoms: &[CqAtom]) -> Vec<FastAtom> {
    atoms.iter().map(|a| compile_atom(db, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::cq::ColRef;
    use jgi_xml::{DocStore, Tree};

    fn db() -> Database {
        let mut t = Tree::new("u.xml");
        let a = t.add_element(t.root(), "a");
        t.add_attr(a, "id", "7");
        t.add_text_element(a, "b", "x");
        let mut store = DocStore::new();
        store.add_tree(&t);
        Database::new(store)
    }

    fn col(alias: usize, col: DocCol) -> CqScalar {
        CqScalar::Col(ColRef { alias, col })
    }

    #[test]
    fn fast_atoms_match_generic_evaluation() {
        let db = db();
        let atoms = vec![
            CqAtom { lhs: col(0, DocCol::Kind), op: CmpOp::Eq, rhs: CqScalar::Const(Value::Kind(NodeKind::Elem)) },
            CqAtom { lhs: col(0, DocCol::Name), op: CmpOp::Eq, rhs: CqScalar::Const(Value::Str("a".into())) },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Eq, rhs: CqScalar::Const(Value::Str("7".into())) },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Lt, rhs: CqScalar::Const(Value::Str("z".into())) },
            CqAtom { lhs: col(0, DocCol::Data), op: CmpOp::Gt, rhs: CqScalar::Const(Value::Dec(5.0)) },
            CqAtom { lhs: col(0, DocCol::Pre), op: CmpOp::Lt, rhs: col(1, DocCol::Pre) },
            CqAtom {
                lhs: col(0, DocCol::Pre),
                op: CmpOp::Le,
                rhs: CqScalar::ColPlusCol(
                    ColRef { alias: 1, col: DocCol::Pre },
                    ColRef { alias: 1, col: DocCol::Size },
                ),
            },
            CqAtom {
                lhs: CqScalar::ColPlusInt(ColRef { alias: 0, col: DocCol::Level }, 1),
                op: CmpOp::Eq,
                rhs: col(1, DocCol::Level),
            },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Eq, rhs: col(1, DocCol::Value) },
            CqAtom { lhs: col(0, DocCol::Parent), op: CmpOp::Eq, rhs: col(1, DocCol::Parent) },
        ];
        let n = db.store.len() as u32;
        for atom in &atoms {
            let fast = compile_atom(&db, atom);
            assert!(
                !matches!(fast, FastAtom::Generic(_)),
                "atom should compile to a fast form: {atom}"
            );
            for a in 0..n {
                for b in 0..n {
                    let bindings = vec![a, b];
                    assert_eq!(
                        fast.eval(&db, &bindings),
                        crate::physical::eval_cq_atom(&db, atom, &bindings),
                        "mismatch for {atom} at bindings {bindings:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_kernels_match_scalar_evaluation() {
        let db = db();
        let n = db.store.len() as u32;
        let atoms = vec![
            CqAtom { lhs: col(0, DocCol::Kind), op: CmpOp::Eq, rhs: CqScalar::Const(Value::Kind(NodeKind::Elem)) },
            CqAtom { lhs: col(0, DocCol::Name), op: CmpOp::Eq, rhs: CqScalar::Const(Value::Str("a".into())) },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Eq, rhs: CqScalar::Const(Value::Str("7".into())) },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Lt, rhs: CqScalar::Const(Value::Str("z".into())) },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Ge, rhs: CqScalar::Const(Value::Str("absent!".into())) },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Ne, rhs: CqScalar::Const(Value::Str("absent!".into())) },
            CqAtom { lhs: col(0, DocCol::Data), op: CmpOp::Gt, rhs: CqScalar::Const(Value::Dec(5.0)) },
            CqAtom { lhs: col(0, DocCol::Pre), op: CmpOp::Lt, rhs: col(1, DocCol::Pre) },
            CqAtom { lhs: col(0, DocCol::Value), op: CmpOp::Le, rhs: col(1, DocCol::Value) },
            CqAtom { lhs: col(0, DocCol::Parent), op: CmpOp::Eq, rhs: col(1, DocCol::Parent) },
        ];
        // Batch = the full cross product of (a, b) pre pairs.
        let mut cols = vec![Vec::new(), Vec::new()];
        for a in 0..n {
            for b in 0..n {
                cols[0].push(a);
                cols[1].push(b);
            }
        }
        let rows = cols[0].len();
        let mut scratch = Vec::new();
        for atom in &atoms {
            let fast = compile_atom(&db, atom);
            let mut sel: Vec<u32> = (0..rows as u32).collect();
            fast.eval_batch(&db, &cols, &mut sel, &mut scratch);
            let expect: Vec<u32> = (0..rows as u32)
                .filter(|&i| {
                    let bindings = vec![cols[0][i as usize], cols[1][i as usize]];
                    fast.eval(&db, &bindings)
                })
                .collect();
            assert_eq!(sel, expect, "kernel disagrees with scalar for {atom}");
        }
    }

    #[test]
    fn unknown_names_match_nothing() {
        let db = db();
        let atom = CqAtom {
            lhs: col(0, DocCol::Name),
            op: CmpOp::Eq,
            rhs: CqScalar::Const(Value::Str("nonexistent".into())),
        };
        let fast = compile_atom(&db, &atom);
        assert_eq!(fast, FastAtom::NameEq(0, None));
        assert!(!fast.eval(&db, &[1]));
    }
}
