//! Join-graph extraction: collapse an isolated plan into a
//! [`ConjunctiveQuery`] — the single `SELECT DISTINCT … FROM doc AS d1,…
//! WHERE … ORDER BY …` block of paper §3 (Figs. 7–9).
//!
//! The isolated plan is a *plan tail* (serialize, at most one ϱ, at most one
//! δ, projections/attaches) over a *bundle* of ⋈/×/σ/π/@ operators whose
//! only leaves are occurrences of the `doc` table. Extraction symbolically
//! evaluates the bundle — every bundle column resolves to "column `c` of the
//! `k`-th doc occurrence" or to a constant — and reads the tail off the
//! wrapper chain. Three passes follow: aliases that must bind the same row
//! merge, the query is folded to its core (so e.g. Q2 yields exactly the
//! 12-fold self-join of Fig. 9), and the aliases are numbered from the
//! query alone, so that one join graph prints one SQL text.

use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol, OutputCol};
use jgi_algebra::pred::{CmpOp, Scalar};
use jgi_algebra::{Col, ConjunctiveQuery, NodeId, Op, Plan, Value};
use jgi_xml::NodeKind;
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
    let count = |f: fn(&Op) -> bool| wrappers.iter().filter(|&&w| f(plan.node(w).op)).count();
    if count(|op| matches!(op, Op::Rank { .. })) > 1 {
        return Err(ExtractError::TailNotNormal("more than one ϱ"));
    }
    if count(|op| matches!(op, Op::Distinct)) > 1 {
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
                    nm.insert(*out, lookup(plan, &map, *src)?);
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
                    // Constants don't order.
                    if let Sym::Doc(cr) = lookup(plan, &map, *b)? {
                        order_by.push(cr);
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
                    cols.push((c, lookup(plan, &map, c)?));
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
        if let Sym::Doc(cr) = lookup(plan, &map, pos)? {
            order_by.push(cr);
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
    for (c, sym) in &select_syms {
        let Sym::Doc(cr) = sym else { continue }; // constants add nothing
        if !out_select.iter().any(|o| o.col == *cr) {
            out_select.push(OutputCol { col: *cr, name: Some(plan.col_name(*c).to_string()) });
        }
    }
    // Order columns must be available in the output for DISTINCT + ORDER BY,
    // and so must the item.
    for cr in order_by.iter().chain([&item_ref]) {
        if !out_select.iter().any(|o| o.col == *cr) {
            out_select.push(OutputCol { col: *cr, name: None });
        }
    }
    let item_output = out_select.iter().position(|o| o.col == item_ref).expect("pushed above");
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
    merge_aliases(&mut cq);
    if cq.distinct {
        minimize(&mut cq);
    }
    canonicalize(&mut cq);
    debug_assert!(
        {
            let mut again = cq.clone();
            canonicalize(&mut again);
            again == cq
        },
        "canonical numbering is not a fixpoint: {cq:?}"
    );
    Ok(cq)
}

/// Merge the aliases that must bind the same row, in one union-find pass:
/// those connected by `dA.pre = dB.pre` (pre is the key of doc), then those
/// that select the document node of one URI (`kind = DOC ∧ name = 'uri'`,
/// read from all members of a class), since the `doc` table holds exactly
/// one `DOC` row per URI. Each class keeps its least member: Fig. 8 keeps a
/// single alias for `doc("auction.xml")`.
fn merge_aliases(cq: &mut ConjunctiveQuery) {
    fn find(rep: &[usize], a: usize) -> usize {
        if rep[a] == a {
            a
        } else {
            find(rep, rep[a])
        }
    }
    fn union(rep: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(rep, a), find(rep, b));
        rep[ra.max(rb)] = ra.min(rb);
    }
    let n = cq.aliases;
    let mut rep: Vec<usize> = (0..n).collect();
    for p in &cq.predicates {
        if let (CqScalar::Col(x), CmpOp::Eq, CqScalar::Col(y)) = (&p.lhs, p.op, &p.rhs) {
            if x.col == DocCol::Pre && y.col == DocCol::Pre {
                union(&mut rep, x.alias, y.alias);
            }
        }
    }
    let mut is_doc = vec![false; n];
    let mut uris: Vec<(usize, &str)> = Vec::new();
    for p in &cq.predicates {
        if let (CqScalar::Col(c), CmpOp::Eq, CqScalar::Const(v)) = (&p.lhs, p.op, &p.rhs) {
            match (c.col, v) {
                (DocCol::Kind, Value::Kind(NodeKind::Doc)) => is_doc[find(&rep, c.alias)] = true,
                (DocCol::Name, Value::Str(u)) => uris.push((find(&rep, c.alias), u)),
                _ => {}
            }
        }
    }
    let mut first: HashMap<&str, usize> = HashMap::new();
    for (class, uri) in uris.into_iter().filter(|&(class, _)| is_doc[class]) {
        let f = *first.entry(uri).or_insert(class);
        union(&mut rep, f, class);
    }
    let theta: Vec<usize> = (0..n).map(|a| find(&rep, a)).collect();
    apply_fold(cq, &theta);
}

/// Step budget of the core search, as the rewrite driver's `FUEL` bounds
/// its fires: one step binds one alias to one candidate image.
const FOLD_FUEL: usize = 10_000;

/// Classical conjunctive-query minimization under set semantics: replace
/// the query by its core. A fold is a homomorphism from the query to itself
/// that fixes the output aliases and misses some alias; keeping only its
/// image gives an equivalent query, and a query that no fold shrinks is its
/// core, unique up to renaming (Chandra–Merlin). Folding removes the
/// condition legs that the rename-apart join descent duplicates, so Q1
/// lands on the 3 aliases of Fig. 8 and Q2 on the 12 of Fig. 9. The search
/// is complete; when [`FOLD_FUEL`] runs out, the query keeps the aliases it
/// has, which is still correct.
fn minimize(cq: &mut ConjunctiveQuery) {
    let mut fuel = FOLD_FUEL;
    while let Some(theta) = find_fold(cq, &mut fuel) {
        apply_fold(cq, &theta);
    }
}

/// A fold that misses some non-output alias `b`, found by backtracking:
/// the outputs stay fixed, the other aliases are bound breadth-first over
/// the atoms from `b` (so that a dead end shows next to it), each to an
/// image whose local atoms include its own, and an atom is checked when
/// its last alias is bound. `None` when the query is its core, or when
/// `fuel` ran out.
fn find_fold(cq: &ConjunctiveQuery, fuel: &mut usize) -> Option<Vec<usize>> {
    let n = cq.aliases;
    let outputs = output_aliases(cq);
    let adj = adjacency(cq);
    let local = local_atoms(cq);
    let includes = |d: usize, x: usize| local[x].iter().all(|p| local[d].binary_search(p).is_ok());
    // The alias itself first: most of a fold is the identity.
    let cands: Vec<Vec<usize>> = (0..n)
        .map(|x| std::iter::once(x).chain((0..n).filter(|&d| d != x && includes(d, x))).collect())
        .collect();
    let joins: Vec<(&CqAtom, Vec<usize>)> =
        cq.predicates.iter().map(|p| (p, p.aliases())).filter(|(_, a)| a.len() > 1).collect();
    let present: HashSet<&CqAtom> = cq.predicates.iter().collect();
    let mut theta: Vec<usize> = (0..n).collect();
    for b in (0..n).rev().filter(|b| !outputs.contains(b)) {
        let order: Vec<usize> = breadth_first(&adj, &[b], |_| ())
            .into_iter()
            .filter(|a| !outputs.contains(a))
            .collect();
        let mut pos = vec![None; n];
        for (k, &a) in order.iter().enumerate() {
            pos[a] = Some(k);
        }
        let mut checks = vec![Vec::new(); order.len()];
        for (p, aliases) in &joins {
            if let Some(last) = aliases.iter().filter_map(|&a| pos[a]).max() {
                checks[last].push(*p);
            }
        }
        let search = FoldSearch { order, cands: &cands, checks, present: &present };
        if search.extend(0, b, &mut theta, fuel) {
            return Some(theta);
        }
        if *fuel == 0 {
            return None;
        }
    }
    None
}

struct FoldSearch<'a> {
    /// The aliases to bind, in order; the outputs are not among them.
    order: Vec<usize>,
    /// Candidate images of each alias.
    cands: &'a [Vec<usize>],
    /// The atoms whose last alias binds at each position of `order`.
    checks: Vec<Vec<&'a CqAtom>>,
    present: &'a HashSet<&'a CqAtom>,
}

impl FoldSearch<'_> {
    /// Bind `order[k..]` so that no alias maps to `b` and every atom's image
    /// is an atom of the query (or a tautology `x = x`).
    fn extend(&self, k: usize, b: usize, theta: &mut [usize], fuel: &mut usize) -> bool {
        let Some(&x) = self.order.get(k) else { return true };
        for &d in self.cands[x].iter().filter(|&&d| d != b) {
            if *fuel == 0 {
                return false;
            }
            *fuel -= 1;
            theta[x] = d;
            let holds = |p: &&CqAtom| {
                let img = subst_atom(p, |a| theta[a]);
                (img.op == CmpOp::Eq && img.lhs == img.rhs) || self.present.contains(&img)
            };
            if self.checks[k].iter().all(holds) && self.extend(k + 1, b, theta, fuel) {
                return true;
            }
        }
        false
    }
}

/// Number the aliases and order the WHERE atoms from the query alone, so
/// that one join graph prints one SQL text and gets one plan (the DP
/// planner breaks exact cost ties by alias number). The item alias comes
/// first, then the other SELECT and ORDER BY aliases in column order, then
/// the rest breadth-first over the join atoms, ties broken by colour
/// refinement. WHERE atoms are sorted by their aliases, local atoms first,
/// then by text.
pub fn canonicalize(cq: &mut ConjunctiveQuery) {
    let n = cq.aliases;
    // Each join atom as an edge x → y for each ordered pair of its aliases,
    // labelled with its shape: the atom with x, y and any third alias erased.
    let mut edges: Vec<(CqAtom, usize, usize)> = Vec::new();
    for p in &cq.predicates {
        let aliases = p.aliases();
        for &x in &aliases {
            for &y in aliases.iter().filter(|&&y| y != x) {
                let shape = subst_atom(p, |a| if a == x { 0 } else { 1 + usize::from(a != y) });
                edges.push((shape, x, y));
            }
        }
    }
    let mut around: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for ((_, x, y), shape) in edges.iter().zip(ranks(edges.iter().map(|e| &e.0))) {
        around[*x].push((shape, *y));
    }
    // Colour refinement: a colour starts as the alias's local atoms and is
    // refined by the multiset of (edge shape, neighbour colour) until no
    // class splits.
    let mut colour = ranks(local_atoms(cq).into_iter());
    loop {
        let refined = ranks((0..n).map(|a| {
            let mut seen: Vec<_> = around[a].iter().map(|&(shape, b)| (shape, colour[b])).collect();
            seen.sort_unstable();
            (colour[a], seen)
        }));
        if refined.iter().max() == colour.iter().max() {
            break;
        }
        colour = refined;
    }
    let order = breadth_first(&adjacency(cq), &output_aliases(cq), |v| colour[v]);
    let mut theta = vec![0; n];
    for (k, &a) in order.iter().enumerate() {
        theta[a] = k;
    }
    apply_fold(cq, &theta);
    cq.predicates.sort_by_cached_key(|p| {
        let mut aliases = p.aliases();
        aliases.sort_unstable();
        (aliases.len(), aliases, p.to_string())
    });
}

/// The aliases visible in SELECT or ORDER BY: the item first, then the
/// SELECT and ORDER BY columns in order.
fn output_aliases(cq: &ConjunctiveQuery) -> Vec<usize> {
    let mut out = vec![cq.select[cq.item_output].col.alias];
    for c in cq.select.iter().map(|o| &o.col).chain(&cq.order_by) {
        if !out.contains(&c.alias) {
            out.push(c.alias);
        }
    }
    out
}

/// Each alias's local atoms with the alias erased, sorted.
fn local_atoms(cq: &ConjunctiveQuery) -> Vec<Vec<CqAtom>> {
    let mut local = vec![Vec::new(); cq.aliases];
    for p in &cq.predicates {
        if let [a] = p.aliases()[..] {
            local[a].push(subst_atom(p, |_| 0));
        }
    }
    for atoms in &mut local {
        atoms.sort_unstable();
    }
    local
}

/// Each alias's neighbours over the join atoms (with repeats).
fn adjacency(cq: &ConjunctiveQuery) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); cq.aliases];
    for p in &cq.predicates {
        let aliases = p.aliases();
        for &x in &aliases {
            adj[x].extend(aliases.iter().filter(|&&y| y != x));
        }
    }
    adj
}

/// Breadth-first order of all aliases over `adj` from `start`: the
/// unvisited neighbours of each alias follow in the order of `key`, then of
/// alias number; an alias no atom reaches starts a new search.
fn breadth_first<K: Ord>(
    adj: &[Vec<usize>],
    start: &[usize],
    key: impl Fn(usize) -> K,
) -> Vec<usize> {
    let n = adj.len();
    let mut seen = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut head = 0;
    let mut next = start.to_vec();
    loop {
        for v in next {
            seen[v] = true;
            order.push(v);
        }
        if order.len() == n {
            return order;
        }
        let fresh = |v: &usize| !seen[*v];
        let unreached = head == order.len();
        next = match order.get(head) {
            Some(&u) => adj[u].iter().copied().filter(fresh).collect(),
            None => (0..n).filter(fresh).collect(),
        };
        head += usize::from(!unreached);
        next.sort_by_key(|&v| (key(v), v));
        next.dedup();
        next.truncate(if unreached { 1 } else { n });
    }
}

/// Each item's rank among the distinct items: equal items get equal ranks,
/// whatever order they come in.
fn ranks<T: Ord>(items: impl Iterator<Item = T>) -> Vec<usize> {
    let items: Vec<T> = items.collect();
    let mut distinct: Vec<&T> = items.iter().collect();
    distinct.sort_unstable();
    distinct.dedup();
    items.iter().map(|t| distinct.binary_search(&t).expect("an item ranks")).collect()
}

fn subst_scalar(s: &CqScalar, theta: impl Fn(usize) -> usize) -> CqScalar {
    let m = |c: &ColRef| ColRef { alias: theta(c.alias), col: c.col };
    match s {
        CqScalar::Col(c) => CqScalar::Col(m(c)),
        CqScalar::ColPlusInt(c, i) => CqScalar::ColPlusInt(m(c), *i),
        CqScalar::ColPlusCol(a, b) => CqScalar::ColPlusCol(m(a), m(b)),
        CqScalar::Const(v) => CqScalar::Const(v.clone()),
    }
}

/// Substitute aliases in an atom.
fn subst_atom(a: &CqAtom, theta: impl Fn(usize) -> usize + Copy) -> CqAtom {
    CqAtom { lhs: subst_scalar(&a.lhs, theta), op: a.op, rhs: subst_scalar(&a.rhs, theta) }
}

/// Apply a substitution of aliases: drop the aliases outside its image,
/// renumber the rest in order, and drop the tautologies and duplicates it
/// leaves in WHERE, SELECT and ORDER BY.
fn apply_fold(cq: &mut ConjunctiveQuery, theta: &[usize]) {
    let mut renum = vec![usize::MAX; cq.aliases];
    for &t in theta {
        renum[t] = 0;
    }
    cq.aliases = 0;
    for r in renum.iter_mut().filter(|r| **r == 0) {
        *r = cq.aliases;
        cq.aliases += 1;
    }
    let full: Vec<usize> = theta.iter().map(|&t| renum[t]).collect();
    let mut seen = HashSet::new();
    cq.predicates = cq
        .predicates
        .iter()
        .map(|p| subst_atom(p, |a| full[a]))
        .filter(|img| !(img.op == CmpOp::Eq && img.lhs == img.rhs) && seen.insert(img.clone()))
        .collect();
    let remap = |c: &mut ColRef| c.alias = full[c.alias];
    let mut item = cq.select[cq.item_output].col;
    remap(&mut item);
    cq.select.iter_mut().for_each(|o| remap(&mut o.col));
    cq.order_by.iter_mut().for_each(remap);
    let mut cols = HashSet::new();
    cq.select.retain(|o| cols.insert(o.col));
    cols.clear();
    cq.order_by.retain(|&c| cols.insert(c));
    cq.item_output =
        cq.select.iter().position(|o| o.col == item).expect("the item column survives a fold");
}

/// The symbolic value of column `c`.
fn lookup(plan: &Plan, map: &HashMap<Col, Sym>, c: Col) -> Result<Sym, ExtractError> {
    map.get(&c).cloned().ok_or_else(|| ExtractError::Unresolved(plan.col_name(c).into()))
}

struct Builder<'a> {
    plan: &'a Plan,
    aliases: usize,
    predicates: Vec<CqAtom>,
}

impl Builder<'_> {
    /// Symbolic evaluation of a bundle node. DAG sharing below joins is
    /// expanded: every *path* to the doc leaf is its own alias, exactly as
    /// in the FROM clause.
    fn eval(&mut self, id: NodeId) -> Result<HashMap<Col, Sym>, ExtractError> {
        let node = self.plan.node(id);
        match &node.op {
            Op::Doc => {
                let alias = self.aliases;
                self.aliases += 1;
                let col = |dc: DocCol| {
                    Col(self.plan.cols.get(dc.sql()).expect("doc column names are interned"))
                };
                Ok(DocCol::all()
                    .into_iter()
                    .map(|dc| (col(dc), Sym::Doc(ColRef { alias, col: dc })))
                    .collect())
            }
            Op::Select(_) | Op::Join(_) | Op::Cross => {
                let mut map = self.eval(node.inputs[0])?;
                if let Some(&right) = node.inputs.get(1) {
                    let right = self.eval(right)?;
                    map.extend(right);
                }
                if let Op::Select(p) | Op::Join(p) = node.op {
                    for atom in p {
                        let atom = CqAtom {
                            lhs: translate_scalar(self.plan, &atom.lhs, &map)?,
                            op: atom.op,
                            rhs: translate_scalar(self.plan, &atom.rhs, &map)?,
                        };
                        self.predicates.push(atom);
                    }
                }
                Ok(map)
            }
            Op::Project(m) => {
                let inner = self.eval(node.inputs[0])?;
                m.iter().map(|(out, src)| Ok((*out, lookup(self.plan, &inner, *src)?))).collect()
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

fn translate_scalar(
    plan: &Plan,
    s: &Scalar,
    map: &HashMap<Col, Sym>,
) -> Result<CqScalar, ExtractError> {
    match s {
        Scalar::Const(v) => Ok(CqScalar::Const(v.clone())),
        Scalar::Col(c) => match lookup(plan, map, *c)? {
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

    /// A `pre = pre` atom merges two aliases that SELECT and ORDER BY both
    /// name: one output column stays, the item points at it, and ORDER BY
    /// names it once.
    #[test]
    fn merging_equal_aliases_dedupes_outputs() {
        let col = |alias, col| ColRef { alias, col };
        let out = |alias, c, name: &str| OutputCol { col: col(alias, c), name: Some(name.into()) };
        let mut cq = ConjunctiveQuery {
            aliases: 3,
            predicates: vec![
                CqAtom {
                    lhs: CqScalar::Col(col(0, DocCol::Pre)),
                    op: CmpOp::Eq,
                    rhs: CqScalar::Col(col(1, DocCol::Pre)),
                },
                CqAtom {
                    lhs: CqScalar::Col(col(2, DocCol::Size)),
                    op: CmpOp::Gt,
                    rhs: CqScalar::Col(col(1, DocCol::Pre)),
                },
            ],
            select: vec![
                out(0, DocCol::Pre, "a"),
                out(1, DocCol::Pre, "b"),
                out(2, DocCol::Value, "v"),
            ],
            distinct: true,
            order_by: vec![col(1, DocCol::Pre), col(0, DocCol::Pre), col(2, DocCol::Pre)],
            item_output: 1,
        };
        merge_aliases(&mut cq);
        assert_eq!(cq.aliases, 2, "{cq:?}");
        assert_eq!(cq.select, vec![out(0, DocCol::Pre, "a"), out(1, DocCol::Value, "v")]);
        assert_eq!(cq.item_output, 0);
        assert_eq!(cq.order_by, vec![col(0, DocCol::Pre), col(1, DocCol::Pre)]);
        assert_eq!(
            cq.predicates,
            vec![CqAtom {
                lhs: CqScalar::Col(col(1, DocCol::Size)),
                op: CmpOp::Gt,
                rhs: CqScalar::Col(col(0, DocCol::Pre)),
            }]
        );
    }

    /// `d{a+1}` is an element, named `name` unless it is empty.
    fn element(a: usize, name: &str) -> Vec<CqAtom> {
        let test = |col, v| CqAtom {
            lhs: CqScalar::Col(ColRef { alias: a, col }),
            op: CmpOp::Eq,
            rhs: CqScalar::Const(v),
        };
        let mut atoms = vec![test(DocCol::Kind, Value::Kind(jgi_xml::NodeKind::Elem))];
        if !name.is_empty() {
            atoms.push(test(DocCol::Name, Value::Str(name.into())));
        }
        atoms
    }

    /// `d{y+1}` is a descendant of `d{x+1}`.
    fn descendant(x: usize, y: usize) -> Vec<CqAtom> {
        let pre = |alias| ColRef { alias, col: DocCol::Pre };
        let size = ColRef { alias: x, col: DocCol::Size };
        vec![
            CqAtom { lhs: CqScalar::Col(pre(x)), op: CmpOp::Lt, rhs: CqScalar::Col(pre(y)) },
            CqAtom {
                lhs: CqScalar::Col(pre(y)),
                op: CmpOp::Le,
                rhs: CqScalar::ColPlusCol(pre(x), size),
            },
        ]
    }

    /// `SELECT DISTINCT d1.pre AS item … ORDER BY d1.pre` over `atoms`.
    fn item_query(aliases: usize, atoms: Vec<Vec<CqAtom>>) -> ConjunctiveQuery {
        let item = ColRef { alias: 0, col: DocCol::Pre };
        ConjunctiveQuery {
            aliases,
            predicates: atoms.into_iter().flatten().collect(),
            select: vec![OutputCol { col: item, name: Some("item".into()) }],
            distinct: true,
            order_by: vec![item],
            item_output: 0,
        }
    }

    /// `d1[.//a][.//*]`: the unnamed descendant folds onto the named one,
    /// whose local atoms are a strict superset of its own (a fold that
    /// seeding only between equal local atoms misses).
    #[test]
    fn fold_onto_an_alias_with_more_local_atoms() {
        let mut cq = item_query(
            3,
            vec![
                element(0, "c"),
                element(1, "a"),
                element(2, ""),
                descendant(0, 1),
                descendant(0, 2),
            ],
        );
        minimize(&mut cq);
        assert_eq!(cq.aliases, 2, "{cq:?}");
        assert_eq!(cq.local_preds(1).len(), 2, "the named alias stays: {cq:?}");
    }

    /// `d1` has the `c` descendants `d2` and `d3` and the element `d4`
    /// below both `d1` and `d3`; `d2//d5//a` folds onto `d3//d4//a`. A
    /// repair that meets `d5 ↦ d4` first must pick `d2`'s image among the
    /// two `c` ancestors of `d4`, `d1` and `d3`: only backtracking tells
    /// them apart.
    #[test]
    fn fold_through_an_ambiguous_image() {
        let mut cq = item_query(
            7,
            vec![
                element(0, "c"),
                element(1, "c"),
                element(2, "c"),
                element(3, ""),
                element(4, ""),
                element(5, "a"),
                element(6, "a"),
                descendant(0, 1),
                descendant(0, 2),
                descendant(0, 3),
                descendant(1, 4),
                descendant(3, 5),
                descendant(4, 6),
                descendant(2, 3),
            ],
        );
        minimize(&mut cq);
        assert_eq!(cq.aliases, 4, "{cq:?}");
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
