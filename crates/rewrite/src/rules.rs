//! The rewrite rules of paper Fig. 5.
//!
//! Each function inspects one node (plus its close neighborhood) and the
//! inferred properties, and — if its rule applies — returns the replacement
//! node. The driver substitutes and advances the property table. A rule
//! that does not apply allocates nothing, and whether it applies is a
//! function of the node's immutable sub-DAG and its top-down properties —
//! which is what lets [`find_rewrite`] skip nodes it has already turned
//! down for as long as those properties stand. Rule numbers follow Fig. 5;
//! the few engineering deviations (guards that keep schemas disjoint under
//! hash-consing, the generalized singleton-literal detection of rule (1),
//! the projection-based formulation of rule (19)) are noted inline and in
//! DESIGN.md.

use crate::props::Props;
use jgi_algebra::pred::{Atom, Pred};
use jgi_algebra::{Col, ColSet, NodeId, Op, Plan, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A single applicable rewrite: replace `old` by `new`.
#[derive(Debug, Clone, Copy)]
pub struct Rewrite {
    /// Node to replace.
    pub old: NodeId,
    /// Replacement.
    pub new: NodeId,
    /// Fig. 5 rule label (for statistics/tracing).
    pub rule: &'static str,
}

/// Rewrite goal phases (paper §3.2). The discriminants are the bits of the
/// per-node "settled" mask kept with the properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// House-cleaning rules (1)–(8), (14), (15).
    House = 1,
    /// Subgoal ϱ: establish a single rank in the plan tail — rules (9)–(13).
    RankGoal = 2,
    /// Subgoals δ and ⋈: distinct relocation, join push-down and removal —
    /// rules (16)–(19) plus (6).
    JoinGoal = 4,
}

/// Find the first applicable rewrite of the given phase in the DAG that
/// `props` describes, skipping candidates in `banned` — the driver bans
/// rewrites that would revisit an already-seen plan state (the paper's
/// footnote 5: adjacent equi-joins can otherwise trade places forever under
/// rule (18); "our implementation avoids such repetition by taking operator
/// argument plan sizes into account" — we use state identity, which
/// hash-consing makes exact).
///
/// House/rank rules scan bottom-up; rule (16) scans top-down so the new
/// tail δ lands as high as possible (Fig. 6 staging). A node found without
/// a rewrite is settled for the phase and not tested again until its
/// top-down properties change; a node with a banned rewrite is re-tested
/// on every scan, exactly as a scan without the shortcut would.
pub fn find_rewrite(
    plan: &mut Plan,
    props: &mut Props,
    phase: Phase,
    banned: &HashSet<(NodeId, NodeId)>,
) -> Option<Rewrite> {
    let n = props.order().len();
    for k in 0..n {
        // Rule (16): topmost eligible node. (Join push-down/removal is
        // orchestrated by the driver's descent loop, not here.)
        let id = props.order()[if phase == Phase::JoinGoal { n - 1 - k } else { k }];
        // Debug builds re-test settled nodes too, to assert the shortcut.
        let settled = props.is_settled(id, phase as u8);
        if settled && !cfg!(debug_assertions) {
            continue;
        }
        let found = match phase {
            Phase::House => house_rules(plan, props, id),
            Phase::RankGoal => rank_rules(plan, props, id),
            Phase::JoinGoal => rule_16(plan, props, id),
        };
        debug_assert!(!settled || found.is_none(), "settled node {} has a rewrite", id.0);
        match found {
            Some(rw) if !banned.contains(&(rw.old, rw.new)) => return Some(rw),
            Some(_) => {}
            None => props.settle(id, phase as u8),
        }
    }
    None
}

// ===========================================================================
// House-cleaning: rules (1)-(8), (14), (15)
// ===========================================================================

fn house_rules(plan: &mut Plan, props: &Props, id: NodeId) -> Option<Rewrite> {
    if let Some(rw) = canonicalize_columns(plan, props, id) {
        return Some(rw);
    }
    // Schema-shrinking rules are disabled below a ∪, which requires its
    // two inputs' schemas to stay exactly equal.
    let schema_locked = props.below_union(id);
    // The operator stays borrowed from the arena; every arm copies what it
    // needs out of it before building nodes, so an attempt that is turned
    // down clones nothing.
    let node = plan.node(id);
    match node.op {
        // (1)  q × [singleton constant table] → @…(q)
        // Generalized: the literal side may be wrapped in attaches and
        // projections (the compiler's `@pos:1(loop)` pattern).
        Op::Cross => {
            for (lit_side, other) in
                [(node.inputs[1], node.inputs[0]), (node.inputs[0], node.inputs[1])]
            {
                if let Some(consts) = singleton_consts(plan, lit_side) {
                    let mut cur = other;
                    for (c, v) in consts {
                        cur = plan.attach(cur, c, v);
                    }
                    return Some(Rewrite { old: id, new: cur, rule: "(1)" });
                }
            }
            None
        }

        // (2)  π(π(q)) → π(q) is no rule here: `Plan::project` composes
        // the renamings whenever it builds a π over a π.
        Op::Project(outer) => {
            let input = node.inputs[0];
            // (7)  π with outputs nobody needs → π onto icols.
            let icols = props.icols(id);
            if !schema_locked && !icols.is_empty() {
                let keep: Vec<(Col, Col)> = outer
                    .iter()
                    .filter(|(out, _)| icols.contains(*out))
                    .cloned()
                    .collect();
                if keep.len() < outer.len() && !keep.is_empty() {
                    let new = plan.project(input, keep);
                    return Some(Rewrite { old: id, new, rule: "(7)" });
                }
            }
            // (2b) identity projection → input (engineering: keeps chains
            // short; the paper subsumes this under "ignoring renaming").
            if outer.iter().all(|(o, s)| o == s)
                && ColSet::from_iter(outer.iter().map(|(o, _)| *o)) == *plan.schema(input)
            {
                return Some(Rewrite { old: id, new: input, rule: "(2b)" });
            }
            None
        }

        // (3)  q1 ⋈_{a=b} q2 → q1 × q2 when both join columns carry the same
        // constant.
        Op::Join(p) => {
            if p.len() == 1 {
                if let Some((a, b)) = p[0].as_col_eq() {
                    if let (Some(va), Some(vb)) = (props.const_of(id, a), props.const_of(id, b)) {
                        if va == vb {
                            let new = plan.cross(node.inputs[0], node.inputs[1]);
                            return Some(Rewrite { old: id, new, rule: "(3)" });
                        }
                    }
                }
            }
            None
        }

        // (4)  @a:c(q) → q when a is not needed upstream.
        Op::Attach(c, _) => {
            if !schema_locked && !props.icols(id).contains(*c) {
                return Some(Rewrite { old: id, new: node.inputs[0], rule: "(4)" });
            }
            None
        }

        Op::Rank { out, by } => {
            // (5)  unused rank → input.
            if !schema_locked && !props.icols(id).contains(*out) {
                return Some(Rewrite { old: id, new: node.inputs[0], rule: "(5)" });
            }
            // (8)  constant ranking criteria are irrelevant.
            let is_const = |b: Col| props.const_of(node.inputs[0], b).is_some();
            if by.iter().any(|&b| is_const(b)) {
                let new_by: Vec<Col> = by.iter().copied().filter(|&b| !is_const(b)).collect();
                let new = if new_by.is_empty() {
                    // Rank over nothing: every row ties at rank 1.
                    plan.attach(node.inputs[0], *out, Value::Int(1))
                } else {
                    plan.rank(node.inputs[0], *out, new_by)
                };
                return Some(Rewrite { old: id, new, rule: "(8)" });
            }
            None
        }

        // (6)  #a(q) → q when a is not needed upstream. Blocked when a δ
        // consumes the row ids directly (multiplicities would change).
        Op::RowId(c) => {
            if !schema_locked && !props.icols(id).contains(*c) {
                return Some(Rewrite { old: id, new: node.inputs[0], rule: "(6)" });
            }
            // (6c)  #a(q) → π_{…,a:k}(q) when q has a single-column key k:
            // the row ids are "arbitrary unique" values, and a key column
            // provides such values for free — after which the loop-identity
            // joins collapse via rule (19). (Engineering rule; in the
            // paper this situation resolves through rule (19) reaching the
            // literally shared # instance.)
            if !schema_locked {
                if let Some(k) = props
                    .keys(node.inputs[0])
                    .iter()
                    .filter(|k| k.len() == 1)
                    .map(|k| k.as_slice()[0])
                    .min()
                {
                    let q = node.inputs[0];
                    let mut mapping: Vec<(Col, Col)> =
                        plan.schema(q).iter().map(|x| (x, x)).collect();
                    mapping.push((*c, k));
                    let new = plan.project(q, mapping);
                    return Some(Rewrite { old: id, new, rule: "(6c)" });
                }
            }
            // (2c)  #a(π(q)) → π'(#a(q)) — row ids are arbitrary unique
            // values, so a pure renaming below the # can float above it,
            // where it composes with a π above the # (rule (2)) and lets
            // rule (19) see through row-id operators. (Engineering
            // rule; the paper's name-free treatment doesn't need it.)
            if let Op::Project(m) = plan.node(node.inputs[0]).op {
                let q = plan.node(node.inputs[0]).inputs[0];
                // Guard: the projection must keep rows 1:1 — true for any
                // π (projection is per-row) — and must not capture `c`.
                if !m.iter().any(|(out, _)| out == c) {
                    let (c, mut mm) = (*c, m.clone());
                    let rid = plan.row_id(q, c);
                    mm.push((c, c));
                    let new = plan.project(rid, mm);
                    return Some(Rewrite { old: id, new, rule: "(2c)" });
                }
            }
            None
        }

        Op::Distinct => {
            // (14)  δ(q) → q when duplicates are eliminated upstream anyway.
            if props.set(id) {
                return Some(Rewrite { old: id, new: node.inputs[0], rule: "(14)" });
            }
            // (15)  project away constant columns nobody needs before δ.
            let input = node.inputs[0];
            let drops = |c: Col| props.const_of(input, c).is_some() && !props.icols(id).contains(c);
            if !schema_locked && props.consts(input).iter().any(|&(c, _)| drops(c)) {
                let keep: Vec<Col> = plan.schema(input).iter().filter(|&c| !drops(c)).collect();
                if !keep.is_empty() {
                    let proj = plan.project_same(input, &keep);
                    if proj != input {
                        let new = plan.distinct(proj);
                        return Some(Rewrite { old: id, new, rule: "(15)" });
                    }
                }
            }
            None
        }
        _ => None,
    }
}

/// Rule (eq) — engineering: rewrite every column reference in an operator's
/// parameters to the canonical representative of its equal-in-every-row
/// class (inferred by [`Props::canon`]). This keeps the order-isomorphic
/// *copies* introduced by rule (9) transparent: a projection source
/// `sort:pos` where `pos` duplicates `item` becomes `sort:item`, which lets
/// rule (19) see through the loop bookkeeping. Values are equal
/// row-by-row, so the rewrite is an identity on the table level.
fn canonicalize_columns(plan: &mut Plan, props: &Props, id: NodeId) -> Option<Rewrite> {
    let node = plan.node(id);
    let canon = |c: Col| -> Col {
        for &i in node.inputs {
            if plan.schema(i).contains(c) {
                return props.canon(i, c);
            }
        }
        c
    };
    // Cheap pre-check with borrows only: most nodes are already canonical,
    // and building their new parameters per scan pass would dominate
    // isolation time. Past it, some parameter is known to change.
    let clean = match node.op {
        Op::Project(m) => m.iter().all(|(_, src)| canon(*src) == *src),
        Op::Select(p) | Op::Join(p) => p
            .iter()
            .all(|a| a.cols().iter().all(|c| canon(c) == c)),
        Op::Rank { by, .. } => by.iter().all(|&b| canon(b) == b),
        Op::Serialize { item, pos } => canon(*item) == *item && canon(*pos) == *pos,
        _ => true,
    };
    if clean {
        return None;
    }
    let new = match node.op {
        Op::Project(m) => {
            let nm: Vec<(Col, Col)> = m.iter().map(|(out, src)| (*out, canon(*src))).collect();
            plan.project(node.inputs[0], nm)
        }
        Op::Select(p) => {
            let np: Pred = p.iter().map(|a| a.map_cols(&mut |c| canon(c))).collect();
            plan.select(node.inputs[0], np)
        }
        Op::Join(p) => {
            let np: Pred = p.iter().map(|a| a.map_cols(&mut |c| canon(c))).collect();
            plan.join(node.inputs[0], node.inputs[1], np)
        }
        Op::Rank { out, by } => {
            let nb: Vec<Col> = by.iter().map(|&b| canon(b)).collect();
            plan.rank(node.inputs[0], *out, nb)
        }
        Op::Serialize { item, pos } => plan.serialize(node.inputs[0], canon(*item), canon(*pos)),
        _ => return None,
    };
    if new == id {
        return None;
    }
    Some(Rewrite { old: id, new, rule: "(eq)" })
}

/// Detect a plan that statically produces exactly one, all-constant row
/// (a literal singleton possibly wrapped in @/π/δ) and return its columns.
fn singleton_consts(plan: &Plan, id: NodeId) -> Option<Vec<(Col, Value)>> {
    match &plan.node(id).op {
        Op::Lit { cols, rows } if rows.len() == 1 => {
            Some(cols.iter().cloned().zip(rows[0].iter().cloned()).collect())
        }
        Op::Attach(c, v) => {
            let mut inner = singleton_consts(plan, plan.node(id).inputs[0])?;
            inner.push((*c, v.clone()));
            Some(inner)
        }
        Op::Project(m) => {
            let inner = singleton_consts(plan, plan.node(id).inputs[0])?;
            m.iter()
                .map(|(out, src)| {
                    inner.iter().find(|(c, _)| c == src).map(|(_, v)| (*out, v.clone()))
                })
                .collect()
        }
        Op::Distinct => singleton_consts(plan, plan.node(id).inputs[0]),
        _ => None,
    }
}

// ===========================================================================
// Subgoal ϱ: rules (9)-(13)
// ===========================================================================

fn rank_rules(plan: &mut Plan, props: &Props, id: NodeId) -> Option<Rewrite> {
    let node = plan.node(id);
    // Pull-ups must not change the schema seen by a ∪ (which requires both
    // inputs to agree exactly), so any rule that would alter `id`'s schema
    // is blocked under a Union parent.
    let union_parent = props.union_parent(id);

    match node.op {
        Op::Rank { out, by } => {
            // (9)  single-criterion rank ⇒ order-isomorphic column copy.
            if by.len() == 1 && !union_parent {
                let src = by[0];
                let input = node.inputs[0];
                let mut mapping: Vec<(Col, Col)> =
                    plan.schema(input).iter().map(|c| (c, c)).collect();
                mapping.push((*out, src));
                let new = plan.project(input, mapping);
                return Some(Rewrite { old: id, new, rule: "(9)" });
            }
            // (13)  splice adjacent rank criteria.
            let input = node.inputs[0];
            if let Op::Rank { out: b_i, by: inner_by } = plan.node(input).op {
                if by.contains(b_i) {
                    let mut new_by = Vec::new();
                    for &b in by {
                        if b == *b_i {
                            new_by.extend(inner_by.iter().copied());
                        } else {
                            new_by.push(b);
                        }
                    }
                    let new = plan.rank(input, *out, new_by);
                    return Some(Rewrite { old: id, new, rule: "(13)" });
                }
            }
            None
        }

        // (10)  (ϱ(q)) → ϱ((q)) for  ∈ {σ, δ, @, #}.
        Op::Select(_) | Op::Distinct | Op::Attach(_, _) | Op::RowId(_) => {
            let input = node.inputs[0];
            let Op::Rank { out, by } = plan.node(input).op else {
                return None;
            };
            if let Op::Select(p) = node.op {
                if jgi_algebra::pred::pred_cols(p).contains(*out) {
                    return None; // a ∈ cols(p) blocks the pull-up
                }
            }
            if union_parent {
                return None;
            }
            let (out, by) = (*out, by.clone());
            let q = plan.node(input).inputs[0];
            let moved = plan.with_inputs(id, &[q]);
            let new = plan.rank(moved, out, by);
            Some(Rewrite { old: id, new, rule: "(10)" })
        }

        // (11)  π(ϱ(q)) → ϱ(π(q)); the by-columns ride along under fresh
        // names when the projection would drop them.
        Op::Project(m) => {
            let input = node.inputs[0];
            let Op::Rank { out, by } = plan.node(input).op else {
                return None;
            };
            if union_parent || props.below_union(id) {
                return None;
            }
            let a_outs: Vec<(Col, Col)> =
                m.iter().filter(|(_, src)| src == out).cloned().collect();
            if a_outs.len() != 1 {
                return None; // rank output must be projected exactly once
            }
            let (a_out, out, by) = (a_outs[0].0, *out, by.clone());
            let q = plan.node(input).inputs[0];
            let mut new_map: Vec<(Col, Col)> =
                m.iter().filter(|(_, src)| *src != out).cloned().collect();
            // Resolve each criterion below the projection.
            let mut new_by = Vec::new();
            for &b in &by {
                if let Some((o, _)) = new_map.iter().find(|(_, src)| *src == b) {
                    new_by.push(*o);
                } else {
                    let base = plan.col_name(b).to_string();
                    let fresh = plan.fresh(&base);
                    new_map.push((fresh, b));
                    new_by.push(fresh);
                }
            }
            let proj = plan.project(q, new_map);
            let new = plan.rank(proj, a_out, new_by);
            Some(Rewrite { old: id, new, rule: "(11)" })
        }

        // (12)  ϱ(q1) ⊗ q2 → ϱ(q1 ⊗ q2) for ⊗ ∈ {⋈, ×} (both sides).
        Op::Join(_) | Op::Cross => {
            if union_parent {
                return None;
            }
            for k in 0..2 {
                let side = node.inputs[k];
                let Op::Rank { out, by } = plan.node(side).op else {
                    continue;
                };
                if let Op::Join(p) = node.op {
                    if jgi_algebra::pred::pred_cols(p).contains(*out) {
                        continue;
                    }
                }
                let (out, by) = (*out, by.clone());
                let mut inputs = [node.inputs[0], node.inputs[1]];
                inputs[k] = plan.node(side).inputs[0];
                let moved = plan.with_inputs(id, &inputs);
                let new = plan.rank(moved, out, by);
                return Some(Rewrite { old: id, new, rule: "(12)" });
            }
            None
        }
        _ => None,
    }
}

// ===========================================================================
// Subgoals δ and ⋈: rules (16)-(19) plus (6)
// ===========================================================================

/// (16)  (q) → δ(π_icols((q))) when  is keyed within icols and no
/// duplicate elimination happens upstream. Restricted to ⋈/× nodes — the
/// fragments rule (16) targets are the equi-join tops of Fig. 6.
fn rule_16(plan: &mut Plan, props: &Props, id: NodeId) -> Option<Rewrite> {
    if !matches!(plan.node(id).op, Op::Join(_) | Op::Cross) {
        return None;
    }
    if id == props.root() || props.set(id) || props.below_union(id) {
        return None;
    }
    let icols = props.icols(id);
    if icols.is_empty() {
        return None;
    }
    if !props.keys(id).iter().any(|k| k.is_subset(icols)) {
        return None;
    }
    let proj = plan.project_same(id, icols.as_slice());
    let new = plan.distinct(proj);
    if new == id {
        return None;
    }
    Some(Rewrite { old: id, new, rule: "(16)" })
}

/// Try to *eliminate* the equi-join `id` via rule (19). The join itself
/// need not be in `props`' DAG: the rule reads bottom-up properties of
/// the nodes under its inputs' projections, and a join that a descent
/// pushed has inputs that are in the DAG or projections over such nodes.
pub fn try_eliminate_join(plan: &mut Plan, props: &Props, id: NodeId) -> Option<Rewrite> {
    let (l, r, a, b) = as_pushable(plan, id)?;
    rule_19(plan, props, id, l, r, a, b)
}

/// Try to push the equi-join `id` one operator deeper (rules (17)/(18)).
/// Returns the rewrite plus the id of the join's new position, so the
/// driver's descent loop can follow it. A join below a ∪ stays put: the
/// driver reads below-∪ once, for the join a descent starts from, since a
/// push only rebuilds the pushed join's ancestors.
pub fn try_push_join(
    plan: &mut Plan,
    id: NodeId,
    dir: Option<bool>,
) -> Option<(Rewrite, NodeId, bool)> {
    let (l, r, a, b) = as_pushable(plan, id)?;
    // The paper's footnote 5: take operator argument plan sizes into
    // account. A descent picks its direction once — the *larger* input,
    // the deep body side where the join's partner occurrence lives — and
    // sticks to it (`dir`), so it never tumbles back and forth through the
    // thin renaming projections it leaves on the other side.
    let prefer_left = dir.unwrap_or_else(|| {
        plan.reachable_count(l) >= plan.reachable_count(r)
    });
    let ordered = if prefer_left {
        [(l, a, r, true), (r, b, l, false)]
    } else {
        [(r, b, l, false), (l, a, r, true)]
    };
    for (side, col, other, side_is_left) in ordered {
        if dir.is_some() && side_is_left != prefer_left {
            break; // sticky direction: never bounce to the other side
        }
        if let Some((rw, moved)) = push_join_down(plan, id, side, col, other, side_is_left) {
            return Some((rw, moved, side_is_left));
        }
    }
    None
}

/// Decompose a single-atom column-equality join, orienting the predicate so
/// that `a` lives on the left input and `b` on the right.
fn as_pushable(plan: &Plan, id: NodeId) -> Option<(NodeId, NodeId, Col, Col)> {
    let node = plan.node(id);
    let Op::Join(p) = &node.op else { return None };
    if p.len() != 1 {
        return None;
    }
    let (a0, b0) = p[0].as_col_eq()?;
    let (l, r) = (node.inputs[0], node.inputs[1]);
    let (a, b) = if plan.schema(l).contains(a0) { (a0, b0) } else { (b0, a0) };
    Some((l, r, a, b))
}

/// Is this node a single-atom column-equality join (the class rules
/// (17)–(19) move around)?
pub fn is_pushable_equijoin(plan: &Plan, id: NodeId) -> bool {
    as_pushable(plan, id).is_some()
}

/// Rename the columns of `other` that clash with `avoid` to deterministic
/// fresh names (`name@nodeid`), via a projection. Determinism matters: the
/// driver's seen-state termination check relies on identical rewrites
/// producing identical plans. Returns the (possibly unchanged) node and the
/// original→renamed map.
fn rename_apart(
    plan: &mut Plan,
    other: NodeId,
    avoid: &ColSet,
) -> (NodeId, HashMap<Col, Col>) {
    let conflict = plan.schema(other).intersect(avoid);
    if conflict.is_empty() {
        return (other, HashMap::new());
    }
    let mut ren = HashMap::new();
    let mut mapping = Vec::new();
    for c in plan.schema(other).clone().iter() {
        if conflict.contains(c) {
            // Deterministic fresh name; extend the suffix until it clashes
            // with neither `avoid` nor `other`'s own schema (a shared node
            // may have been renamed apart before, under the same suffix).
            let mut name = format!("{}@{}", plan.col_name(c), other.0);
            loop {
                let nc = plan.col(&name);
                if !avoid.contains(nc) && !plan.schema(other).contains(nc) {
                    ren.insert(c, nc);
                    mapping.push((nc, c));
                    break;
                }
                name = format!("{}@{}", name, other.0);
            }
        } else {
            mapping.push((c, c));
        }
    }
    (plan.project(other, mapping), ren)
}

/// Rules (17)/(18): move the equi-join `side ⋈_{col=oc} other` below the
/// operator at `side`. When the descent would violate the disjoint-schema
/// discipline (both legs expose columns of shared subplans), `other` is
/// renamed apart first and a restoring projection re-establishes the
/// original output schema — the paper's "we ignore column renaming",
/// made explicit.
fn push_join_down(
    plan: &mut Plan,
    id: NodeId,
    side: NodeId,
    col: Col,
    other: NodeId,
    side_is_left: bool,
) -> Option<(Rewrite, NodeId)> {
    let Op::Join(pred) = plan.node(id).op else { return None };
    let oc = other_col(&pred[0], col);
    let side_node = plan.node(side);
    let out_schema = plan.schema(id).clone();

    // Build `q ⋈ other'` with `other` renamed apart from `avoid`, and
    // remember how to restore the original names on top.
    let build = |plan: &mut Plan,
                     q: NodeId,
                     scol: Col,
                     avoid: &ColSet|
     -> (NodeId, HashMap<Col, Col>) {
        let (other_r, ren) = rename_apart(plan, other, avoid);
        let ocr = *ren.get(&oc).unwrap_or(&oc);
        let p = vec![Atom::col_eq(scol, ocr)];
        let j = if side_is_left { plan.join(q, other_r, p) } else { plan.join(other_r, q, p) };
        (j, ren)
    };
    // Restore projection: identity on the original output schema, mapping
    // renamed columns back. Skipped when no renaming happened.
    let restore = |plan: &mut Plan, top: NodeId, ren: &HashMap<Col, Col>| -> NodeId {
        if ren.is_empty() {
            return top;
        }
        let mapping: Vec<(Col, Col)> = out_schema
            .iter()
            .map(|c| (c, *ren.get(&c).unwrap_or(&c)))
            .collect();
        plan.project(top, mapping)
    };

    // σ, @ and ⋈/× move as they are: `with_inputs(side, …)` rebuilds them
    // over the pushed join without touching their parameters.
    match side_node.op {
        // (17) with  = σ.
        Op::Select(_) => {
            let q = side_node.inputs[0];
            let avoid = plan.schema(q).clone();
            let (inner, ren) = build(plan, q, col, &avoid);
            let sel = plan.with_inputs(side, &[inner]);
            let new = restore(plan, sel, &ren);
            if new == id {
                return None;
            }
            Some((Rewrite { old: id, new, rule: "(17)" }, inner))
        }
        // (17) with  = @ (the attached column cannot be the join column:
        // `col ∈ cols(q1)` requires it to come from below).
        Op::Attach(c, _) => {
            if *c == col {
                return None;
            }
            let q = side_node.inputs[0];
            let mut avoid = plan.schema(q).clone();
            avoid.insert(*c);
            let (inner, ren) = build(plan, q, col, &avoid);
            let att = plan.with_inputs(side, &[inner]);
            let new = restore(plan, att, &ren);
            if new == id {
                return None;
            }
            Some((Rewrite { old: id, new, rule: "(17)" }, inner))
        }
        // (17) with  = π (rename-aware; the other side's columns pass
        // through the hoisted projection).
        Op::Project(m) => {
            let (_, src) = *m.iter().find(|(out, _)| *out == col)?;
            let q = side_node.inputs[0];
            let mut avoid = plan.schema(q).clone();
            for (out, _) in m {
                avoid.insert(*out);
            }
            let mut mm = m.clone();
            let (inner, ren) = build(plan, q, src, &avoid);
            for c in plan.schema(other).clone().iter() {
                mm.push((*ren.get(&c).unwrap_or(&c), *ren.get(&c).unwrap_or(&c)));
            }
            let proj = plan.project(inner, mm);
            let new = restore(plan, proj, &ren);
            if new == id {
                return None;
            }
            Some((Rewrite { old: id, new, rule: "(17)" }, inner))
        }
        // (18)  (q1 ⊗ q2) ⋈ q3 → push into whichever factor holds `col`.
        Op::Join(_) | Op::Cross => {
            let mut inputs = [side_node.inputs[0], side_node.inputs[1]];
            for k in 0..2 {
                let qk = inputs[k];
                if !plan.schema(qk).contains(col) {
                    continue;
                }
                // Avoid every column visible anywhere in the rebuilt side.
                let avoid = plan.schema(side).clone();
                let (pushed, ren) = build(plan, qk, col, &avoid);
                inputs[k] = pushed;
                let moved = plan.with_inputs(side, &inputs);
                let new = restore(plan, moved, &ren);
                if new == id {
                    return None;
                }
                return Some((Rewrite { old: id, new, rule: "(18)" }, pushed));
            }
            None
        }
        _ => None,
    }
}

/// The join column of `atom` that is *not* `this_side`.
fn other_col(atom: &Atom, this_side: Col) -> Col {
    let (a, b) = atom.as_col_eq().expect("caller checked col-eq");
    if a == this_side {
        b
    } else {
        a
    }
}

/// Rule (19), generalized: `L ⋈_{a=b} R → π(L-base)` when `R` resolves to a
/// relation `X` that is already a *factor* of `L`'s base plan, the join
/// columns trace (through renames) to the same key column of `X`, and that
/// column is a single-column key of `X`. Every `L` row then joins exactly
/// the `X` row it was built from, so the join degenerates to a projection
/// laying `R`'s renaming out over `L`'s base — provided every column `R`
/// exports is still *bound* (available under some name) in `L`'s base. The
/// paper states the rule for literally identical inputs `q1 V q2 ∧ q2 V q1`;
/// the factor-binding view is the same situation as it presents itself
/// under the strict disjoint-schema discipline.
fn rule_19(
    plan: &mut Plan,
    props: &Props,
    id: NodeId,
    l: NodeId,
    r: NodeId,
    a: Col,
    b: Col,
) -> Option<Rewrite> {
    // Try both orientations: the "factor" side may be left or right.
    for (outer, fac, oc, fc) in [(l, r, a, b), (r, l, b, a)] {
        let (base_o, map_o) = unwrap_proj(plan, outer);
        let (x, map_f) = unwrap_proj(plan, fac);
        debug_assert!(props.contains(base_o) && props.contains(x), "rule (19) reads known nodes");
        let Some(src_f) = map_f.iter().find(|(out, _)| *out == fc).map(|(_, s)| *s) else {
            continue;
        };
        let Some(src_o) = map_o.iter().find(|(out, _)| *out == oc).map(|(_, s)| *s) else {
            continue;
        };
        if !props.is_single_key(x, src_f) {
            continue;
        }
        let Some(binding) = factor_binding(plan, base_o, x) else { continue };
        // The outer join column must carry the factor's key value (modulo
        // the equal-columns classes of the base).
        let Some(&bound_key) = binding.get(&src_f) else { continue };
        if props.canon(base_o, src_o) != props.canon(base_o, bound_key) {
            continue;
        }
        // Every column R exports must be expressible over the base.
        let Some(fac_map): Option<Vec<(Col, Col)>> = map_f
            .iter()
            .map(|(out, src)| binding.get(src).map(|&bc| (*out, bc)))
            .collect()
        else {
            continue;
        };
        let mut mapping = map_o;
        mapping.extend(fac_map);
        let new = plan.project(base_o, mapping);
        if new == id {
            continue;
        }
        return Some(Rewrite { old: id, new, rule: "(19)" });
    }
    None
}

/// View a node as a projection over a base (identity if it is not a π).
fn unwrap_proj(plan: &Plan, side: NodeId) -> (NodeId, Vec<(Col, Col)>) {
    match &plan.node(side).op {
        Op::Project(m) => (plan.node(side).inputs[0], m.clone()),
        _ => (side, plan.schema(side).iter().map(|c| (c, c)).collect()),
    }
}

/// If `x` is a factor of `base` (reached through joins, crosses, selections,
/// attaches, row-ids, distincts, ranks, and renaming projections), return
/// for each surviving column of `x` the name under which it appears in
/// `base`'s schema. Each `base` row then embeds a reference to exactly one
/// `x` row, readable off those columns — the precondition of rule (19).
/// (δ in between is fine: deduplication never invalidates the reference.)
fn factor_binding(plan: &Plan, base: NodeId, x: NodeId) -> Option<HashMap<Col, Col>> {
    if base == x {
        return Some(plan.schema(x).iter().map(|c| (c, c)).collect());
    }
    let node = plan.node(base);
    match &node.op {
        Op::Join(_) | Op::Cross => {
            node.inputs.iter().find_map(|&i| factor_binding(plan, i, x))
        }
        Op::Select(_)
        | Op::Attach(_, _)
        | Op::RowId(_)
        | Op::Distinct
        | Op::Rank { .. }
        | Op::Serialize { .. } => factor_binding(plan, node.inputs[0], x),
        Op::Project(m) => {
            let inner = factor_binding(plan, node.inputs[0], x)?;
            let mut out_map = HashMap::new();
            for (xcol, bcol) in inner {
                if let Some((out, _)) = m.iter().find(|(_, src)| *src == bcol) {
                    out_map.insert(xcol, *out);
                }
            }
            if out_map.is_empty() {
                None
            } else {
                Some(out_map)
            }
        }
        _ => None,
    }
}

/// Substitute `old` → `new` in the DAG that `props` describes, rebuilding
/// the ancestors of `old` — and nothing else: they are found through the
/// consumer lists kept with the properties and rebuilt in scan order
/// (inputs first), which is the order a walk over the whole DAG would
/// rebuild them in. Returns the new root and the number of nodes rebuilt;
/// `props` still describes the old root afterwards.
///
/// Rebuilding *repairs* projections along the way: when a column-removing
/// rule (4)/(5)/(6) strips a column that an ancestor π still mentions, that
/// mention is — by the icols reasoning that licensed the removal — feeding
/// an output nobody needs, so the pair is dropped.
pub fn substitute(plan: &mut Plan, props: &Props, old: NodeId, new: NodeId) -> (NodeId, usize) {
    // Replaced → replacement, in rebuild order. An ancestor's rebuilt input
    // is almost always the latest entry, so a scan from the back beats
    // hashing for the few dozen entries a fire produces.
    let mut map: Vec<(NodeId, NodeId)> = vec![(old, new)];
    let by_pos = |id: NodeId| Reverse((props.pos(id), id));
    let mut pending: BinaryHeap<_> = props.parents(old).iter().map(|&p| by_pos(p)).collect();
    while let Some(Reverse((_, id))) = pending.pop() {
        if map.last().is_some_and(|(done, _)| *done == id) {
            continue; // reached over more than one consumer edge
        }
        let node = plan.node(id);
        let mut mapped = [NodeId(0); 2];
        for (slot, i) in mapped.iter_mut().zip(node.inputs) {
            *slot = map.iter().rev().find(|(from, _)| from == i).map_or(*i, |(_, to)| *to);
        }
        let mapped = &mapped[..node.inputs.len()];
        let avail = plan.schema(mapped[0]);
        let nid = match node.op {
            Op::Project(m) if m.iter().any(|(_, src)| !avail.contains(*src)) => {
                let m: Vec<(Col, Col)> =
                    m.iter().filter(|(_, src)| avail.contains(*src)).copied().collect();
                assert!(!m.is_empty(), "projection lost all sources during substitution");
                plan.project(mapped[0], m)
            }
            // Every other ancestor keeps its operator: no clone, no hash of it.
            _ => plan.with_inputs(id, mapped),
        };
        map.push((id, nid));
        pending.extend(props.parents(id).iter().map(|&p| by_pos(p)));
    }
    // The root is rebuilt last (or is `old` itself).
    (map[map.len() - 1].1, map.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::infer;

    fn apply_house(plan: &mut Plan, root: NodeId) -> NodeId {
        let mut props = infer(plan, root);
        for _ in 0..200 {
            match find_rewrite(plan, &mut props, Phase::House, &HashSet::new()) {
                Some(rw) => {
                    let (root, _) = substitute(plan, &props, rw.old, rw.new);
                    props.advance(plan, root);
                }
                None => break,
            }
        }
        props.root()
    }

    #[test]
    fn rule1_cross_with_singleton_literal() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let pos = p.col("pos");
        let item = p.col("item");
        let d = p.doc();
        let pre = p.col("pre");
        let lit = p.lit(vec![iter], vec![vec![Value::Int(1)]]);
        let att = p.attach(lit, pos, Value::Int(1));
        let crossed = p.cross(d, att);
        let proj = p.project(crossed, vec![(item, pre), (iter, iter), (pos, pos)]);
        let root = p.serialize(proj, item, pos);
        let new_root = apply_house(&mut p, root);
        // The cross is gone; attaches replace it.
        let has_cross =
            p.topo_order(new_root).iter().any(|&id| matches!(p.node(id).op, Op::Cross));
        assert!(!has_cross);
        assert_eq!(jgi_algebra::validate::validate(&p, new_root), Ok(()));
    }

    #[test]
    fn rule4_5_6_remove_unused_operators() {
        let mut p = Plan::new();
        let item = p.col("item");
        let pos = p.col("pos");
        let junk = p.col("junk");
        let rid = p.col("rid");
        let rk = p.col("rk");
        let lit = p.lit(vec![item, pos], vec![vec![Value::Int(1), Value::Int(1)]]);
        let a = p.attach(lit, junk, Value::Int(9));
        let b = p.row_id(a, rid);
        let c = p.rank(b, rk, vec![item]);
        let proj = p.project_same(c, &[item, pos]);
        let root = p.serialize(proj, item, pos);
        let new_root = apply_house(&mut p, root);
        let ops: Vec<&'static str> =
            p.topo_order(new_root).iter().map(|&id| p.node(id).op.name()).collect();
        assert!(!ops.contains(&"attach"), "{ops:?}");
        assert!(!ops.contains(&"rowid"), "{ops:?}");
        assert!(!ops.contains(&"rank"), "{ops:?}");
    }

    #[test]
    fn rule14_removes_distinct_under_distinct() {
        let mut p = Plan::new();
        let item = p.col("item");
        let pos = p.col("pos");
        let lit = p.lit(vec![item], vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        let d1 = p.distinct(lit);
        let d2 = p.distinct(d1);
        let att = p.attach(d2, pos, Value::Int(1));
        let root = p.serialize(att, item, pos);
        let new_root = apply_house(&mut p, root);
        let dd = p
            .topo_order(new_root)
            .iter()
            .filter(|&&id| matches!(p.node(id).op, Op::Distinct))
            .count();
        assert_eq!(dd, 1, "inner distinct is redundant");
    }

    #[test]
    fn rule9_turns_single_column_rank_into_copy() {
        let mut p = Plan::new();
        let item = p.col("item");
        let pos = p.col("pos");
        let lit = p.lit(vec![item], vec![vec![Value::Int(4)], vec![Value::Int(2)]]);
        let rk = p.rank(lit, pos, vec![item]);
        let root = p.serialize(rk, item, pos);
        let props = infer(&p, root);
        let rw = rank_rules(&mut p, &props, rk).expect("rule 9 applies");
        assert_eq!(rw.rule, "(9)");
        assert!(matches!(p.node(rw.new).op, Op::Project(_)));
    }

    #[test]
    fn rule13_splices_rank_criteria() {
        let mut p = Plan::new();
        let a = p.col("a");
        let b = p.col("b");
        let c0 = p.col("c0");
        let r1c = p.col("r1");
        let r2c = p.col("r2");
        let lit = p.lit(vec![a, b, c0], vec![]);
        let r1 = p.rank(lit, r1c, vec![a, b]);
        // Two-criterion outer rank (a single criterion would be claimed by
        // rule (9) first): ⟨c0, r1⟩ splices to ⟨c0, a, b⟩.
        let r2 = p.rank(r1, r2c, vec![c0, r1c]);
        let pos = p.col("pos");
        let att = p.attach(r2, pos, Value::Int(1));
        let root = p.serialize(att, r2c, pos);
        let props = infer(&p, root);
        let rw = rank_rules(&mut p, &props, r2).expect("rule 13 applies");
        assert_eq!(rw.rule, "(13)");
        if let Op::Rank { by, .. } = &p.node(rw.new).op {
            assert_eq!(by, &vec![c0, a, b]);
        } else {
            panic!("expected rank");
        }
    }

    #[test]
    fn substitution_rebuilds_ancestors() {
        let mut p = Plan::new();
        let a = p.col("a");
        let lit1 = p.lit(vec![a], vec![vec![Value::Int(1)]]);
        let lit2 = p.lit(vec![a], vec![vec![Value::Int(2)]]);
        let d = p.distinct(lit1);
        let pos = p.col("pos");
        let att = p.attach(d, pos, Value::Int(1));
        let root = p.serialize(att, a, pos);
        let props = infer(&p, root);
        let (new_root, rebuilt) = substitute(&mut p, &props, lit1, lit2);
        assert_ne!(new_root, root);
        assert_eq!(rebuilt, 3, "δ, @ and the serialize root");
        let leaves: Vec<NodeId> = p
            .topo_order(new_root)
            .into_iter()
            .filter(|&id| p.node(id).inputs.is_empty())
            .collect();
        assert_eq!(leaves, vec![lit2]);
    }
}
