//! Join-graph extraction: collapse an isolated plan into a
//! [`ConjunctiveQuery`] — the single `SELECT DISTINCT … FROM doc AS d1,…
//! WHERE … ORDER BY …` block of paper §3 (Figs. 7–9).
//!
//! The isolated plan is a *plan tail* (serialize, at most one ϱ, at most one
//! δ, projections/attaches) over a *bundle* of ⋈/×/σ/π/@ operators whose
//! only leaves are occurrences of the `doc` table. Extraction symbolically
//! evaluates the bundle — every bundle column resolves to "column `c` of the
//! `k`-th doc occurrence" or to a constant — and reads the tail off the
//! wrapper chain. Aliases connected by a `pre = pre` equality (an artifact
//! of conditions referring to the same variable) are merged afterwards, so
//! e.g. Q2 yields exactly the 12-fold self-join of Fig. 9.

use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol, OutputCol};
use jgi_algebra::pred::{Atom, CmpOp, Scalar};
use jgi_algebra::{Col, ConjunctiveQuery, NodeId, Op, Plan, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Why a plan could not be read as a join graph (the caller then falls back
/// to stacked execution — the plan is still correct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The root is not a serialize operator.
    NoSerializeRoot,
    /// An operator of this kind appears inside the join bundle.
    ForeignOperator(&'static str),
    /// More than one ϱ/δ in the tail.
    TailNotNormal(&'static str),
    /// A column did not resolve to a doc column or constant.
    Unresolved(String),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::NoSerializeRoot => write!(f, "plan root is not a serialize operator"),
            ExtractError::ForeignOperator(op) => {
                write!(f, "operator `{op}` inside the join bundle — plan is not isolated")
            }
            ExtractError::TailNotNormal(what) => write!(f, "plan tail not in normal form: {what}"),
            ExtractError::Unresolved(c) => write!(f, "column `{c}` did not resolve"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Symbolic value of a plan column within the bundle.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    /// Column of the k-th doc occurrence.
    Doc(ColRef),
    /// Constant attached by `@`.
    Const(Value),
}

/// Extract the conjunctive query from the isolated plan under `root`.
pub fn extract_cq(plan: &Plan, root: NodeId) -> Result<ConjunctiveQuery, ExtractError> {
    let node = plan.node(root);
    let &Op::Serialize { item, pos } = node.op else {
        return Err(ExtractError::NoSerializeRoot);
    };

    // ---- split tail wrappers from the bundle --------------------------------
    // Wrappers, outermost first.
    let mut wrappers: Vec<NodeId> = Vec::new();
    let mut cur = node.inputs[0];
    while matches!(
        plan.node(cur).op,
        Op::Project(_) | Op::Attach(_, _) | Op::Rank { .. } | Op::Distinct
    ) {
        wrappers.push(cur);
        cur = plan.node(cur).inputs[0];
    }
    let bundle_top = cur;
    let ranks =
        wrappers.iter().filter(|&&w| matches!(plan.node(w).op, Op::Rank { .. })).count();
    let distincts =
        wrappers.iter().filter(|&&w| matches!(plan.node(w).op, Op::Distinct)).count();
    if ranks > 1 {
        return Err(ExtractError::TailNotNormal("more than one ϱ"));
    }
    if distincts > 1 {
        return Err(ExtractError::TailNotNormal("more than one δ"));
    }

    // ---- symbolically evaluate the bundle ------------------------------------
    let mut builder = Builder { plan, aliases: 0, predicates: Vec::new() };
    let bundle_map = builder.eval(bundle_top)?;

    // ---- resolve tail columns --------------------------------------------------
    // Walk the wrapper chain from the bundle upward, maintaining col → Sym
    // plus the ordering criteria of the (single) rank.
    let mut map = bundle_map;
    let mut order_by: Vec<ColRef> = Vec::new();
    let mut rank_col: Option<Col> = None;
    let mut select: Option<Vec<(Col, Sym)>> = None;
    for &w in wrappers.iter().rev() {
        match &plan.node(w).op {
            Op::Project(m) => {
                let mut nm = HashMap::new();
                let mut new_rank = None;
                for (out, src) in m {
                    if Some(*src) == rank_col {
                        new_rank = Some(*out);
                        continue;
                    }
                    let sym = map
                        .get(src)
                        .cloned()
                        .ok_or_else(|| ExtractError::Unresolved(plan.col_name(*src).into()))?;
                    nm.insert(*out, sym);
                }
                map = nm;
                if new_rank.is_some() {
                    rank_col = new_rank;
                }
            }
            Op::Attach(c, v) => {
                map.insert(*c, Sym::Const(v.clone()));
            }
            Op::Rank { out, by } => {
                for b in by {
                    match map.get(b) {
                        Some(Sym::Doc(cr)) => order_by.push(*cr),
                        Some(Sym::Const(_)) => {} // constants don't order
                        None => {
                            return Err(ExtractError::Unresolved(plan.col_name(*b).into()))
                        }
                    }
                }
                rank_col = Some(*out);
            }
            Op::Distinct => {
                // The DISTINCT column set is the schema at this point.
                let mut cols: Vec<(Col, Sym)> = Vec::new();
                let mut names: Vec<Col> = plan.schema(w).iter().collect();
                names.sort();
                for c in names {
                    if Some(c) == rank_col {
                        continue;
                    }
                    let sym = map
                        .get(&c)
                        .cloned()
                        .ok_or_else(|| ExtractError::Unresolved(plan.col_name(c).into()))?;
                    cols.push((c, sym));
                }
                select = Some(cols);
            }
            _ => unreachable!("wrapper ops are filtered above"),
        }
    }

    // Resolve the serialize columns.
    let item_ref = match map.get(&item) {
        Some(Sym::Doc(cr)) => *cr,
        _ => return Err(ExtractError::Unresolved(plan.col_name(item).into())),
    };
    if rank_col != Some(pos) {
        match map.get(&pos) {
            Some(Sym::Doc(cr)) => order_by.push(*cr),
            Some(Sym::Const(_)) => {}
            None => return Err(ExtractError::Unresolved(plan.col_name(pos).into())),
        }
    }

    // ---- assemble ------------------------------------------------------------------
    let distinct = select.is_some();
    let select_syms: Vec<(Col, Sym)> = match select {
        Some(s) => s,
        // No δ in the tail: project the item (plus order columns below).
        None => vec![(item, Sym::Doc(item_ref))],
    };
    let mut out_select: Vec<OutputCol> = Vec::new();
    let mut item_output = None;
    for (c, sym) in &select_syms {
        let Sym::Doc(cr) = sym else { continue }; // constants add nothing
        if out_select.iter().any(|o| o.col == *cr) {
            continue;
        }
        if *cr == item_ref && item_output.is_none() {
            item_output = Some(out_select.len());
        }
        out_select.push(OutputCol { col: *cr, name: Some(plan.col_name(*c).to_string()) });
    }
    // Order columns must be available in the output for DISTINCT + ORDER BY.
    for cr in &order_by {
        if !out_select.iter().any(|o| o.col == *cr) {
            out_select.push(OutputCol { col: *cr, name: None });
        }
    }
    let item_output = match item_output {
        Some(i) => i,
        None => match out_select.iter().position(|o| o.col == item_ref) {
            Some(i) => i,
            None => {
                out_select.push(OutputCol { col: item_ref, name: None });
                out_select.len() - 1
            }
        },
    };
    // The item itself is the final order criterion (the serialize operator
    // breaks position ties by item).
    if !order_by.contains(&item_ref) {
        order_by.push(item_ref);
    }

    let mut cq = ConjunctiveQuery {
        aliases: builder.aliases,
        predicates: builder.predicates,
        select: out_select,
        distinct,
        order_by,
        item_output,
    };
    merge_equal_aliases(&mut cq);
    merge_document_aliases(&mut cq);
    if cq.distinct {
        minimize(&mut cq);
    }
    Ok(cq)
}

/// Merge aliases that select a document node by URI (`kind = DOC ∧
/// name = 'uri'`): the `doc` table holds exactly one `DOC` row per URI, so
/// all such aliases bind the same row and one occurrence suffices (Fig. 8
/// keeps a single `d1` for `doc("auction.xml")`).
fn merge_document_aliases(cq: &mut ConjunctiveQuery) {
    use std::collections::HashMap as Map;
    let mut uri_of: Map<usize, String> = Map::new();
    for a in 0..cq.aliases {
        let locals = cq.local_preds(a);
        let is_doc = locals.iter().any(|p| {
            matches!((&p.lhs, &p.rhs), (CqScalar::Col(c), CqScalar::Const(Value::Kind(k)))
                if c.col == DocCol::Kind && *k == jgi_xml::NodeKind::Doc)
        });
        if !is_doc {
            continue;
        }
        let uri = locals.iter().find_map(|p| match (&p.lhs, &p.rhs) {
            (CqScalar::Col(c), CqScalar::Const(Value::Str(u))) if c.col == DocCol::Name => {
                Some(u.clone())
            }
            _ => None,
        });
        if let Some(u) = uri {
            uri_of.insert(a, u);
        }
    }
    let mut first: Map<String, usize> = Map::new();
    let mut theta: Vec<usize> = (0..cq.aliases).collect();
    let mut changed = false;
    for (a, slot) in theta.iter_mut().enumerate() {
        if let Some(u) = uri_of.get(&a) {
            match first.get(u) {
                Some(&f) => {
                    *slot = f;
                    changed = true;
                }
                None => {
                    first.insert(u.clone(), a);
                }
            }
        }
    }
    if changed {
        apply_fold(cq, &theta);
    }
}

/// Classical conjunctive-query minimization under set semantics: find a
/// fold — a homomorphism θ from the query to itself that fixes the output
/// columns and maps some alias onto another — and keep only θ's image.
/// The rename-apart join descent duplicates condition legs (each `where`
/// conjunct re-derives its variable's step chain); folding removes them, so
/// Q1 lands on the 3 aliases of Fig. 8 and Q2 on the 12 of Fig. 9. Sound
/// because the block is `SELECT DISTINCT` (set semantics).
fn minimize(cq: &mut ConjunctiveQuery) {
    while let Some(theta) = find_fold(cq) {
        apply_fold(cq, &theta);
    }
}

/// Aliases that must stay fixed: those visible in SELECT or ORDER BY.
fn output_aliases(cq: &ConjunctiveQuery) -> Vec<usize> {
    let mut out: Vec<usize> = cq.select.iter().map(|o| o.col.alias).collect();
    out.extend(cq.order_by.iter().map(|c| c.alias));
    out.sort_unstable();
    out.dedup();
    out
}

/// Substitute aliases in a scalar.
fn subst_scalar(s: &CqScalar, theta: impl Fn(usize) -> usize) -> CqScalar {
    let m = |c: &ColRef| ColRef { alias: theta(c.alias), col: c.col };
    match s {
        CqScalar::Col(c) => CqScalar::Col(m(c)),
        CqScalar::ColPlusInt(c, i) => CqScalar::ColPlusInt(m(c), *i),
        CqScalar::ColPlusCol(a, b) => CqScalar::ColPlusCol(m(a), m(b)),
        CqScalar::Const(v) => CqScalar::Const(v.clone()),
    }
}

fn subst_atom(a: &CqAtom, theta: &[usize]) -> CqAtom {
    let theta = |x: usize| theta[x];
    CqAtom { lhs: subst_scalar(&a.lhs, theta), op: a.op, rhs: subst_scalar(&a.rhs, theta) }
}

/// The one alias a local atom references (`None` for a join atom or a
/// constant-only one), without collecting the aliases.
fn local_alias(a: &CqAtom) -> Option<usize> {
    let mut only = None;
    for s in [&a.lhs, &a.rhs] {
        let cols = match s {
            CqScalar::Col(c) | CqScalar::ColPlusInt(c, _) => [Some(c), None],
            CqScalar::ColPlusCol(x, y) => [Some(x), Some(y)],
            CqScalar::Const(_) => [None, None],
        };
        for c in cols.into_iter().flatten() {
            match only {
                None => only = Some(c.alias),
                Some(x) if x != c.alias => return None,
                Some(_) => {}
            }
        }
    }
    only
}

/// Each alias's local-predicate signature: the multiset of its local atoms
/// with the alias erased, as an id that is equal for two aliases exactly
/// when their multisets are. Built in one pass over the predicates.
fn signatures(cq: &ConjunctiveQuery) -> Vec<usize> {
    let mut atom_ids: HashMap<CqAtom, usize> = HashMap::new();
    let mut local: Vec<Vec<usize>> = vec![Vec::new(); cq.aliases];
    for p in &cq.predicates {
        if let Some(a) = local_alias(p) {
            let erased = CqAtom {
                lhs: subst_scalar(&p.lhs, |_| 0),
                op: p.op,
                rhs: subst_scalar(&p.rhs, |_| 0),
            };
            let next = atom_ids.len();
            local[a].push(*atom_ids.entry(erased).or_insert(next));
        }
    }
    let mut sig_ids: HashMap<Vec<usize>, usize> = HashMap::new();
    local
        .into_iter()
        .map(|mut atoms| {
            atoms.sort_unstable();
            let next = sig_ids.len();
            *sig_ids.entry(atoms).or_insert(next)
        })
        .collect()
}

/// Try to find a non-trivial fold θ. Strategy: seed θ with `b ↦ a` for some
/// pair of aliases with equal local-predicate signatures, then repair: any
/// atom whose image is missing and involves exactly one not-yet-forced
/// alias forces that alias onto the unique choice making the image present.
fn find_fold(cq: &ConjunctiveQuery) -> Option<Vec<usize>> {
    let outputs = output_aliases(cq);
    let n = cq.aliases;
    let sigs = signatures(cq);
    let present: HashSet<&CqAtom> = cq.predicates.iter().collect();
    for b in (0..n).rev() {
        if outputs.contains(&b) {
            continue;
        }
        for a in 0..n {
            if a == b || sigs[a] != sigs[b] {
                continue;
            }
            if let Some(theta) = try_fold(cq, &present, b, a, &outputs, &sigs) {
                return Some(theta);
            }
        }
    }
    None
}

fn try_fold(
    cq: &ConjunctiveQuery,
    present: &HashSet<&CqAtom>,
    b: usize,
    a: usize,
    outputs: &[usize],
    sigs: &[usize],
) -> Option<Vec<usize>> {
    let n = cq.aliases;
    let mut theta: Vec<usize> = (0..n).collect();
    let mut forced = vec![false; n];
    for &o in outputs {
        forced[o] = true;
    }
    theta[b] = a;
    forced[b] = true;
    forced[a] = true;
    // Repair loop: force unmapped aliases until the image closes or fails.
    for _round in 0..n * 4 {
        let mut all_ok = true;
        for atom in &cq.predicates {
            let img = subst_atom(atom, &theta);
            if present.contains(&img) {
                continue;
            }
            if img.op == CmpOp::Eq && img.lhs == img.rhs {
                continue; // tautology after folding
            }
            all_ok = false;
            // Which aliases of the image are still free to move?
            let free: Vec<usize> = img
                .aliases()
                .into_iter()
                .filter(|&x| !forced[x] && theta[x] == x)
                .collect();
            if free.len() != 1 {
                return None; // over- or under-constrained: give up
            }
            let c = free[0];
            // Find the unique target d making the image present.
            let mut target = None;
            for d in 0..n {
                if d == c || sigs[d] != sigs[c] {
                    continue;
                }
                let mut t2 = theta.clone();
                t2[c] = d;
                if present.contains(&subst_atom(atom, &t2)) {
                    if target.is_some() {
                        return None; // ambiguous
                    }
                    target = Some(d);
                }
            }
            let d = target?;
            theta[c] = d;
            forced[c] = true;
            break; // re-scan from the top with the extended θ
        }
        if all_ok {
            return Some(theta);
        }
    }
    None
}

/// Apply a fold: substitute, drop unused aliases, renumber, dedupe.
fn apply_fold(cq: &mut ConjunctiveQuery, theta: &[usize]) {
    let n = cq.aliases;
    let image: Vec<bool> = {
        let mut v = vec![false; n];
        for &t in theta {
            v[t] = true;
        }
        v
    };
    let mut renum: Vec<usize> = vec![usize::MAX; n];
    let mut next = 0;
    for a in 0..n {
        if image[a] {
            renum[a] = next;
            next += 1;
        }
    }
    let full: Vec<usize> = (0..n).map(|a| renum[theta[a]]).collect();
    let mut seen = HashSet::new();
    cq.predicates = cq
        .predicates
        .iter()
        .map(|p| subst_atom(p, &full))
        .filter(|img| !(img.op == CmpOp::Eq && img.lhs == img.rhs) && seen.insert(img.clone()))
        .collect();
    for o in &mut cq.select {
        o.col.alias = full[o.col.alias];
    }
    for c in &mut cq.order_by {
        c.alias = full[c.alias];
    }
    cq.aliases = next;
}

struct Builder<'a> {
    plan: &'a Plan,
    aliases: usize,
    predicates: Vec<CqAtom>,
}

impl<'a> Builder<'a> {
    /// Symbolic evaluation of a bundle node. DAG sharing below joins is
    /// expanded: every *path* to the doc leaf is its own alias, exactly as
    /// in the FROM clause.
    fn eval(&mut self, id: NodeId) -> Result<HashMap<Col, Sym>, ExtractError> {
        let node = self.plan.node(id);
        match &node.op {
            Op::Doc => {
                let alias = self.aliases;
                self.aliases += 1;
                let mut map = HashMap::new();
                for dc in DocCol::all() {
                    let col = Col(self
                        .plan
                        .cols
                        .get(dc.sql())
                        .expect("doc column names are interned"));
                    map.insert(col, Sym::Doc(ColRef { alias, col: dc }));
                }
                Ok(map)
            }
            Op::Select(p) => {
                let map = self.eval(node.inputs[0])?;
                for atom in p {
                    let a = translate_atom(self.plan, atom, &map)?;
                    self.predicates.push(a);
                }
                Ok(map)
            }
            Op::Join(p) => {
                let mut map = self.eval(node.inputs[0])?;
                let rmap = self.eval(node.inputs[1])?;
                map.extend(rmap);
                for atom in p {
                    let a = translate_atom(self.plan, atom, &map)?;
                    self.predicates.push(a);
                }
                Ok(map)
            }
            Op::Cross => {
                let mut map = self.eval(node.inputs[0])?;
                let rmap = self.eval(node.inputs[1])?;
                map.extend(rmap);
                Ok(map)
            }
            Op::Project(m) => {
                let inner = self.eval(node.inputs[0])?;
                let mut map = HashMap::new();
                for (out, src) in m {
                    let sym = inner.get(src).cloned().ok_or_else(|| {
                        ExtractError::Unresolved(self.plan.col_name(*src).into())
                    })?;
                    map.insert(*out, sym);
                }
                Ok(map)
            }
            Op::Attach(c, v) => {
                let mut map = self.eval(node.inputs[0])?;
                map.insert(*c, Sym::Const(v.clone()));
                Ok(map)
            }
            other => Err(ExtractError::ForeignOperator(other.name())),
        }
    }
}

fn translate_atom(
    plan: &Plan,
    atom: &Atom,
    map: &HashMap<Col, Sym>,
) -> Result<CqAtom, ExtractError> {
    Ok(CqAtom {
        lhs: translate_scalar(plan, &atom.lhs, map)?,
        op: atom.op,
        rhs: translate_scalar(plan, &atom.rhs, map)?,
    })
}

fn translate_scalar(
    plan: &Plan,
    s: &Scalar,
    map: &HashMap<Col, Sym>,
) -> Result<CqScalar, ExtractError> {
    let resolve = |c: Col| -> Result<Sym, ExtractError> {
        map.get(&c).cloned().ok_or_else(|| ExtractError::Unresolved(plan.col_name(c).into()))
    };
    match s {
        Scalar::Const(v) => Ok(CqScalar::Const(v.clone())),
        Scalar::Col(c) => match resolve(*c)? {
            Sym::Doc(cr) => Ok(CqScalar::Col(cr)),
            Sym::Const(v) => Ok(CqScalar::Const(v)),
        },
        Scalar::Add(a, b) => {
            let left = translate_scalar(plan, a, map)?;
            let right = translate_scalar(plan, b, map)?;
            match (left, right) {
                (CqScalar::Col(x), CqScalar::Col(y)) => Ok(CqScalar::ColPlusCol(x, y)),
                (CqScalar::Col(x), CqScalar::Const(Value::Int(i)))
                | (CqScalar::Const(Value::Int(i)), CqScalar::Col(x)) => {
                    Ok(CqScalar::ColPlusInt(x, i))
                }
                _ => Err(ExtractError::Unresolved("nested arithmetic".into())),
            }
        }
    }
}

/// Merge aliases connected by `dA.pre = dB.pre`: they denote the same node
/// (pre is the key of doc), so one occurrence suffices. Keeps the query in
/// the paper's minimal-alias form (Q2 ⇒ the 12-fold self-join of Fig. 9).
fn merge_equal_aliases(cq: &mut ConjunctiveQuery) {
    // Union-find over aliases.
    let mut rep: Vec<usize> = (0..cq.aliases).collect();
    fn find(rep: &mut Vec<usize>, a: usize) -> usize {
        if rep[a] != a {
            let r = find(rep, rep[a]);
            rep[a] = r;
        }
        rep[a]
    }
    for p in &cq.predicates {
        if p.op == CmpOp::Eq {
            if let (CqScalar::Col(x), CqScalar::Col(y)) = (&p.lhs, &p.rhs) {
                if x.col == DocCol::Pre && y.col == DocCol::Pre {
                    let (ra, rb) = (find(&mut rep, x.alias), find(&mut rep, y.alias));
                    if ra != rb {
                        let (lo, hi) = (ra.min(rb), ra.max(rb));
                        rep[hi] = lo;
                    }
                }
            }
        }
    }
    // Renumber surviving representatives contiguously, in alias order.
    let mut renum: HashMap<usize, usize> = HashMap::new();
    for a in 0..cq.aliases {
        let r = find(&mut rep, a);
        let next = renum.len();
        renum.entry(r).or_insert(next);
    }
    let mut remap = |cr: ColRef, rep: &mut Vec<usize>| ColRef {
        alias: renum[&find(rep, cr.alias)],
        col: cr.col,
    };
    let mut preds: Vec<CqAtom> = Vec::new();
    let mut seen: HashSet<CqAtom> = HashSet::new();
    for p in std::mem::take(&mut cq.predicates) {
        let map_s = |s: CqScalar, rep: &mut Vec<usize>, remap: &mut dyn FnMut(ColRef, &mut Vec<usize>) -> ColRef| match s {
            CqScalar::Col(c) => CqScalar::Col(remap(c, rep)),
            CqScalar::ColPlusInt(c, i) => CqScalar::ColPlusInt(remap(c, rep), i),
            CqScalar::ColPlusCol(a, b) => CqScalar::ColPlusCol(remap(a, rep), remap(b, rep)),
            CqScalar::Const(v) => CqScalar::Const(v),
        };
        let a = CqAtom {
            lhs: map_s(p.lhs, &mut rep, &mut remap),
            op: p.op,
            rhs: map_s(p.rhs, &mut rep, &mut remap),
        };
        // Drop tautologies (x = x) and duplicates.
        if a.op == CmpOp::Eq && a.lhs == a.rhs {
            continue;
        }
        if seen.insert(a.clone()) {
            preds.push(a);
        }
    }
    cq.predicates = preds;
    let item_col = remap(cq.select[cq.item_output].col, &mut rep);
    let mut select: Vec<OutputCol> = Vec::new();
    for o in cq.select.clone() {
        let col = remap(o.col, &mut rep);
        if !select.iter().any(|s| s.col == col) {
            select.push(OutputCol { col, name: o.name });
        }
    }
    cq.item_output =
        select.iter().position(|s| s.col == item_col).expect("item column survives the merge");
    cq.select = select;
    let mut order: Vec<ColRef> = Vec::new();
    for cr in cq.order_by.clone() {
        let c = remap(cr, &mut rep);
        if !order.contains(&c) {
            order.push(c);
        }
    }
    cq.order_by = order;
    cq.aliases = renum.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::isolate;
    use jgi_compiler::compile;
    use jgi_xquery::compile_to_core;

    fn extract(q: &str) -> ConjunctiveQuery {
        let core = compile_to_core(q).unwrap();
        let c = compile(&core).unwrap();
        let mut plan = c.plan;
        let (root, stats) = isolate(&mut plan, c.root);
        extract_cq(&plan, root)
            .unwrap_or_else(|e| panic!("extraction failed: {e}\n{}", stats.summary()))
    }

    /// Q1 must become the three-fold self-join of paper Fig. 8.
    #[test]
    fn q1_is_a_threefold_self_join() {
        let cq = extract(r#"doc("auction.xml")/descendant::open_auction[bidder]"#);
        assert_eq!(cq.aliases, 3, "{cq:?}");
        assert!(cq.distinct);
        // Document-node test on one alias, element tests on the others.
        let mut kinds = 0;
        for p in &cq.predicates {
            if let (CqScalar::Col(c), CqScalar::Const(Value::Kind(_))) = (&p.lhs, &p.rhs) {
                assert_eq!(c.col, DocCol::Kind);
                kinds += 1;
            }
        }
        assert_eq!(kinds, 3);
        // The result is ordered by the open_auction's pre (item last).
        assert_eq!(cq.order_by.len(), 1, "{:?}", cq.order_by);
        assert_eq!(cq.order_by[0].col, DocCol::Pre);
        assert_eq!(cq.select[cq.item_output].col.col, DocCol::Pre);
    }

    /// The paper's Q0 (§2.2): three steps ⇒ four-fold self-join.
    #[test]
    fn q0_path_extracts() {
        let cq = extract(r#"doc("auction.xml")/descendant::bidder/child::*/child::text()"#);
        assert_eq!(cq.aliases, 4, "{cq:?}");
        // Exactly one kind=TEXT test.
        let texts = cq
            .predicates
            .iter()
            .filter(|p| {
                matches!(&p.rhs, CqScalar::Const(Value::Kind(jgi_xml::NodeKind::Text)))
            })
            .count();
        assert_eq!(texts, 1);
    }

    /// Q2 must reach the 12-fold self-join of paper Fig. 9.
    #[test]
    fn q2_is_a_twelvefold_self_join() {
        let cq = extract(
            r#"let $a := doc("auction.xml")
               for $ca in $a//closed_auction[price > 500],
                   $i in $a//item,
                   $c in $a//category
               where $ca/itemref/@item = $i/@id
                 and $i/incategory/@category = $c/@id
               return $c/name"#,
        );
        assert_eq!(cq.aliases, 12, "{cq:?}");
        assert!(cq.distinct);
        // A data > 500 predicate must be present.
        let has_price = cq.predicates.iter().any(|p| {
            matches!((&p.lhs, &p.rhs), (CqScalar::Col(c), CqScalar::Const(Value::Dec(v)))
                if c.col == DocCol::Data && *v == 500.0)
        });
        assert!(has_price, "{cq:?}");
        // Two value = value join edges (the @item = @id comparisons).
        let value_joins = cq
            .predicates
            .iter()
            .filter(|p| {
                matches!((&p.lhs, &p.rhs), (CqScalar::Col(a), CqScalar::Col(b))
                    if a.col == DocCol::Value && b.col == DocCol::Value)
            })
            .count();
        assert_eq!(value_joins, 2, "{cq:?}");
        // ORDER BY: loop nesting order, then the name element itself
        // (Fig. 9: ORDER BY d2.pre, d4.pre, d5.pre, d12.pre).
        assert_eq!(cq.order_by.len(), 4, "{:?}", cq.order_by);
    }

    #[test]
    fn attribute_step_extracts() {
        let cq = extract(r#"doc("d.xml")/descendant::person/attribute::id"#);
        assert_eq!(cq.aliases, 3);
        let attr_tests = cq
            .predicates
            .iter()
            .filter(|p| {
                matches!(&p.rhs, CqScalar::Const(Value::Kind(jgi_xml::NodeKind::Attr)))
            })
            .count();
        assert_eq!(attr_tests, 1);
    }

    #[test]
    fn non_isolated_plan_reports_foreign_operator() {
        let core = compile_to_core(r#"doc("d")/child::a"#).unwrap();
        let c = compile(&core).unwrap();
        // Extract without isolating: the stacked plan contains ranks and
        // joins in non-tail positions.
        let err = extract_cq(&c.plan, c.root).unwrap_err();
        match err {
            ExtractError::ForeignOperator(_) | ExtractError::TailNotNormal(_) => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

}
