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
//!
//! Index probes compile the same way: each per-tuple key slot of a
//! nested-loop step, and each slot of a hash step's probe key, becomes a
//! `ProbeSlot`, which codes a structural probe key with integer
//! arithmetic alone. Every other scalar is read through one borrowed
//! evaluator, `scalar_cell`.

use crate::catalog::{int_code, Cell, Database, IndexCol, RankOf, NULL_CODE};
use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol};
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

/// The structural integer expression a scalar computes, if it is one:
/// `pre`, `size`, `level` or `parent` of an alias, one of those plus a
/// constant, `pre + size` of one alias, or an integer constant.
fn int_expr(s: &CqScalar) -> Option<IntExpr> {
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
}

/// The value a scalar computes over the tuple `get` (alias → `pre`) binds,
/// borrowed from the store: no `name`/`value` read copies its string.
/// `None` when a referenced value is NULL (the scalar then equals nothing).
pub(crate) fn scalar_cell<'a>(
    db: &'a Database,
    s: &'a CqScalar,
    get: impl Fn(usize) -> u32,
) -> Option<Cell<'a>> {
    let col = |cr: &ColRef| -> Option<Cell<'a>> {
        let pre = get(cr.alias);
        debug_assert_ne!(pre, u32::MAX, "scalar references an unbound alias");
        match db.cell(pre, IndexCol::Col(cr.col)) {
            Cell::Null => None,
            c => Some(c),
        }
    };
    match s {
        CqScalar::Const(v) => match Cell::of(v) {
            Cell::Null => None,
            c => Some(c),
        },
        CqScalar::Col(cr) => col(cr),
        CqScalar::ColPlusInt(cr, i) => match col(cr)? {
            Cell::Int(x) => Some(Cell::Int(x + i)),
            Cell::Dec(x) => Some(Cell::Dec(x + *i as f64)),
            _ => None,
        },
        CqScalar::ColPlusCol(a, b) => match (col(a)?, col(b)?) {
            (Cell::Int(x), Cell::Int(y)) => Some(Cell::Int(x + y)),
            (x, y) => Some(Cell::Dec(x.as_f64()? + y.as_f64()?)),
        },
    }
}

/// The scalar's index-key code against key column `col`
/// ([`Database::value_code`]) for the tuple `get` binds; `None` when a
/// referenced value is NULL. A bare column probing its own key column reads
/// the row's stored code; any other scalar codes its [`scalar_cell`].
pub(crate) fn scalar_code(
    db: &Database,
    s: &CqScalar,
    col: IndexCol,
    get: impl Fn(usize) -> u32,
) -> Option<u64> {
    match s {
        CqScalar::Col(cr) if IndexCol::Col(cr.col) == col => match db.code(get(cr.alias), col) {
            NULL_CODE => None,
            c => Some(c),
        },
        _ => scalar_cell(db, s, get).map(|c| db.cell_code(col, c)),
    }
}

/// One per-tuple key slot of an index probe or a hash probe key, compiled
/// once per execution the way a residual atom becomes a [`FastAtom`]. A
/// structural scalar (`pre`, `size`, `level`, `parent`, `pre + size`,
/// column + constant) against an integer key column (`pre`, `size`,
/// `level`, `parent`, `pre + size`) becomes an [`IntExpr`] coded by the
/// catalog's integer rule ([`int_code`]); any other slot (`name`, `value`,
/// `data`) codes through [`scalar_code`]. Checked builds compare every
/// compiled code with `scalar_code`.
#[derive(Debug, Clone)]
pub(crate) struct ProbeSlot {
    scalar: CqScalar,
    col: IndexCol,
    int: Option<IntExpr>,
}

impl ProbeSlot {
    /// Compile `scalar` against key column `col`.
    pub(crate) fn compile(scalar: &CqScalar, col: IndexCol) -> ProbeSlot {
        let int = match col {
            IndexCol::PreSize
            | IndexCol::Col(DocCol::Pre | DocCol::Size | DocCol::Level | DocCol::Parent) => {
                int_expr(scalar)
            }
            IndexCol::Col(_) => None,
        };
        ProbeSlot { scalar: scalar.clone(), col, int }
    }

    /// The slot's key code for the tuple `get` (alias → `pre`) binds;
    /// `None` when a referenced value is NULL.
    #[inline]
    pub(crate) fn code_at(&self, db: &Database, get: impl Fn(usize) -> u32) -> Option<u64> {
        let code = match self.int {
            Some(e) => e.eval_at(db, &get).map(int_code),
            None => scalar_code(db, &self.scalar, self.col, &get),
        };
        debug_assert_eq!(
            code,
            scalar_code(db, &self.scalar, self.col, &get),
            "compiled probe slot {:?} on {:?} codes unlike scalar_code",
            self.scalar,
            self.col
        );
        code
    }
}

/// Compile one atom. Interned-id lookups happen here, once.
pub fn compile_atom(db: &Database, atom: &CqAtom) -> FastAtom {
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

    /// Every structural probe form codes through its compiled slot exactly
    /// as through `scalar_code`, against every integer key column, on
    /// every node of an XMark store; the edges code as the catalog's
    /// integer rule says.
    #[test]
    fn compiled_probe_slots_code_as_probes_do() {
        use crate::catalog::{between, BELOW, INT_DOMAIN};
        use jgi_xml::generate::{generate_xmark, XmarkConfig};
        let mut store = DocStore::new();
        store.add_tree(&generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
        let db = Database::new(store);
        let cr = |col| ColRef { alias: 0, col };
        let structural = [DocCol::Pre, DocCol::Size, DocCol::Level, DocCol::Parent];
        let mut probes: Vec<CqScalar> =
            structural.iter().map(|&c| CqScalar::Col(cr(c))).collect();
        for &c in &structural {
            for d in [-1, 0, 1, INT_DOMAIN as i64, 1 << 60] {
                probes.push(CqScalar::ColPlusInt(cr(c), d));
            }
        }
        probes.push(CqScalar::ColPlusCol(cr(DocCol::Pre), cr(DocCol::Size)));
        let int_cols = structural.map(IndexCol::Col).into_iter().chain([IndexCol::PreSize]);
        for col in int_cols {
            for probe in &probes {
                let slot = ProbeSlot::compile(probe, col);
                assert!(slot.int.is_some(), "{probe:?} on {col:?} compiles to an IntExpr");
                for pre in 0..db.store.len() as u32 {
                    let get = |_| pre;
                    assert_eq!(
                        slot.code_at(&db, get),
                        scalar_code(&db, probe, col, get),
                        "{probe:?} on {col:?} at {pre}"
                    );
                }
            }
            let doc = |p: CqScalar| ProbeSlot::compile(&p, col).code_at(&db, |_| 0);
            assert_eq!(doc(CqScalar::Col(cr(DocCol::Parent))), None, "NO_PARENT is NULL");
            assert_eq!(doc(CqScalar::ColPlusInt(cr(DocCol::Pre), -1)), Some(BELOW));
            let top = CqScalar::ColPlusInt(cr(DocCol::Pre), INT_DOMAIN as i64);
            assert_eq!(doc(top), Some(between(INT_DOMAIN)));
        }
        // A `value` slot keeps the generic coding.
        let value = CqScalar::Col(cr(DocCol::Value));
        let slot = ProbeSlot::compile(&value, IndexCol::Col(DocCol::Value));
        assert!(slot.int.is_none());
        for pre in 0..db.store.len() as u32 {
            let code = scalar_code(&db, &value, IndexCol::Col(DocCol::Value), |_| pre);
            assert_eq!(slot.code_at(&db, |_| pre), code);
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
