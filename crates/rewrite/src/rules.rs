//! The rewrite rules of paper Fig. 5.
//!
//! Each function inspects one node (plus its close neighborhood) and the
//! inferred properties, and — if its rule applies — returns the replacement
//! node. The driver substitutes and advances the property table. A rule
//! that does not apply allocates nothing, and whether it applies is a
//! function of the node's immutable sub-DAG and its top-down properties —
//! which is what lets [`house_batch`] skip a node it has turned down for as
//! long as those properties stand. Rule numbers follow Fig. 5;
//! the few engineering deviations (guards that keep schemas disjoint under
//! hash-consing, the generalized singleton-literal detection of rule (1),
//! the projection-based formulation of rule (19)) are noted inline and in
//! DESIGN.md.

use crate::props::{keeps_house_verdict, same_up_key, BottomUp, Props};
use jgi_algebra::pred::{Atom, Pred};
use jgi_algebra::{Col, ColSet, IdMap, NodeId, Op, Plan, Value};
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

/// The goal phases (paper §3.2) that [`find_rewrite`] scans for.
/// House-cleaning, rules (1)–(8), (14) and (15), runs as one sweep per
/// fire ([`house_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Subgoal ϱ: establish a single rank in the plan tail — rules (9)–(13).
    RankGoal,
    /// Subgoals δ and ⋈: distinct relocation, join push-down and removal —
    /// rules (16)–(19) plus (6).
    JoinGoal,
}

/// Find the first applicable rewrite of the given goal phase in the DAG
/// that `props` describes, skipping candidates in `banned` — the driver bans
/// rewrites that would revisit an already-seen plan state (the paper's
/// footnote 5: adjacent equi-joins can otherwise trade places forever under
/// rule (18); "our implementation avoids such repetition by taking operator
/// argument plan sizes into account" — we use state identity, which
/// hash-consing makes exact). House-cleaning is not found one rewrite at a
/// time: [`house_batch`] applies a whole sweep of it.
///
/// Rank rules scan bottom-up; rule (16) scans top-down so the new tail δ
/// lands as high as possible (Fig. 6 staging).
pub fn find_rewrite(
    plan: &mut Plan,
    props: &Props,
    phase: Phase,
    banned: &HashSet<(NodeId, NodeId)>,
) -> Option<Rewrite> {
    let n = props.order().len();
    (0..n).find_map(|k| {
        // Rule (16): topmost eligible node. (Join push-down/removal is
        // orchestrated by the driver's descent loop, not here.)
        let found = match phase {
            Phase::RankGoal => rank_rules(plan, props, props.order()[k]),
            Phase::JoinGoal => rule_16(plan, props, props.order()[n - 1 - k]),
        };
        found.filter(|rw| !banned.contains(&(rw.old, rw.new)))
    })
}

/// One house-cleaning fire: the rewrites it applies, in the order that
/// replays them one substitution at a time, and the root they lead to.
#[derive(Debug, Clone)]
pub struct HouseBatch {
    /// The rewrites, in the order the sweep made them. A rewrite's `old`
    /// is the node as the earlier ones left it.
    pub rewrites: Vec<Rewrite>,
    /// The plan root with every rewrite substituted.
    pub root: NodeId,
    /// Ancestors rebuilt on the way (one per node whose inputs changed).
    pub rebuilt: usize,
    /// Each node of the DAG the batch replaced or rebuilt, with the node
    /// that stands in its place, in scan order — what [`Props::advance`]
    /// renames.
    pub moved: Vec<(NodeId, NodeId)>,
}

/// Every house-cleaning rewrite (rules (1)–(8), (14), (15) and (eq)) that
/// the table `props` licenses, applied in one sweep of the DAG it
/// describes — at most `limit` of them, none in `banned`.
///
/// The sweep visits the nodes in the table's scan order, as a sequence of
/// single fires would find them, and applies at each the first house rule
/// that applies there — at a node rebuilt over changed inputs too, whose
/// consumers, and so its top-down properties, are the old node's and whose
/// bottom-up values it derives. After a rewrite the new node gets the
/// other rules. When the rewrite is an (eq), the nodes below it are first
/// narrowed by (4)–(7) and (15) against the `icols` that the canonicalised
/// consumer induces — never against the table's: the (eq) can require a
/// column that was not required before. What the sweep does not reach
/// waits for the next fire.
///
/// The sweep does not ask whether its result was seen before: the driver
/// checks the batch's root against the states it has seen and, on a
/// revisit, bans the batch's first rewrite.
///
/// The batch is the sequence of single rewrites that reaches its root:
/// substituting them one at a time, in order, into the plan that `props`
/// describes ends at the same node. A rewrite is therefore only made at a
/// node that no other position of the DAG holds when the sequence reaches
/// it. When a node that the sweep replaced turns out to stand at a second
/// position as well, where only a table-level identity ((eq)) is valid
/// for it too, the sweep fails with the index of that rewrite; a sweep
/// limited to fewer rewrites does not reach it.
///
/// A node of the DAG the sweep finds without a house rewrite is settled
/// in `props` and not tested again until its top-down properties change
/// (debug builds re-test it, to assert the shortcut).
///
/// Returns `Ok(None)` when no house rule applies.
pub fn house_batch(
    plan: &mut Plan,
    props: &mut Props,
    banned: &HashSet<(NodeId, NodeId)>,
    limit: usize,
) -> Result<Option<HouseBatch>, usize> {
    let mut sweep = Sweep::new(props, limit);
    sweep.run(plan, banned)?;
    let Sweep { order, img, rewrites, rebuilt, .. } = sweep;
    let root = img[img.len() - 1];
    let moved = order.iter().zip(&img).filter(|(old, new)| old != new).map(|(&o, &n)| (o, n));
    let moved = moved.collect();
    Ok((!rewrites.is_empty()).then_some(HouseBatch { rewrites, root, rebuilt, moved }))
}

/// The state of one [`house_batch`] sweep. Positions are indices into the
/// table's scan order; every position holds one node, the old one until
/// the sweep rebuilds or rewrites it.
struct Sweep<'a> {
    props: &'a mut Props,
    /// The table's scan order.
    order: Vec<NodeId>,
    limit: usize,
    /// The node each position holds now.
    img: Vec<NodeId>,
    /// How many rewrites a replay has applied when the position's node
    /// came to stand there (0: it always stood there).
    since: Vec<usize>,
    /// Has an input's position changed since the position was rebuilt?
    stale: Vec<bool>,
    /// Does the position's node still read the nodes of its old node's
    /// inputs, slot by slot, so that it can be rebuilt over new ones?
    kept: Vec<bool>,
    /// Interned bottom-up values of nodes the sweep built.
    ups: IdMap<NodeId, u32>,
    /// Contexts (Tables 2 and 5) that a canonicalised consumer induced
    /// (`None`: the table's).
    ctx: Vec<Option<u32>>,
    rewrites: Vec<Rewrite>,
    /// Nodes the sweep replaced, with the index of the rewrite.
    replaced: IdMap<NodeId, usize>,
    /// Positions and rewrite structures holding a node, less its own
    /// position in the old DAG.
    holders: IdMap<NodeId, i32>,
    rebuilt: usize,
}

impl<'a> Sweep<'a> {
    fn new(props: &'a mut Props, limit: usize) -> Self {
        let order = props.order().to_vec();
        let n = order.len();
        Sweep {
            props,
            img: order.clone(),
            order,
            limit,
            since: vec![0; n],
            stale: vec![false; n],
            kept: vec![true; n],
            ups: IdMap::default(),
            ctx: vec![None; n],
            rewrites: Vec::new(),
            replaced: IdMap::default(),
            holders: IdMap::default(),
            rebuilt: 0,
        }
    }

    fn pos(&self, id: NodeId) -> usize {
        self.props.pos(id) as usize
    }

    fn holders(&self, id: NodeId) -> i32 {
        i32::from(self.props.contains(id)) + self.holders.get(&id).copied().unwrap_or(0)
    }

    /// Let position `k` hold `id`, since the replay applied `since` rewrites.
    fn hold(&mut self, k: usize, id: NodeId, since: usize) {
        if self.img[k] != id {
            *self.holders.entry(self.img[k]).or_default() -= 1;
            *self.holders.entry(id).or_default() += 1;
            for &p in self.props.parents(self.order[k]) {
                self.stale[self.props.pos(p) as usize] = true;
            }
        }
        (self.img[k], self.since[k]) = (id, since);
    }

    /// Rebuild position `k`'s node over what its inputs' positions hold
    /// now. A position that held a node a rewrite replaced gets the
    /// replacement, as the replay's substitution gives it; `Err` is the
    /// index of a replacement that is not valid for it.
    fn rebuild(&mut self, plan: &mut Plan, k: usize) -> Result<(), usize> {
        if !std::mem::take(&mut self.stale[k]) {
            return Ok(());
        }
        let id = self.order[k];
        let mut inputs = [NodeId(0); 2];
        let inputs = &mut inputs[..plan.node(id).inputs.len()];
        let mut since = self.since[k];
        for (slot, &i) in inputs.iter_mut().zip(plan.node(id).inputs) {
            let p = self.pos(i);
            *slot = self.img[p];
            since = since.max(self.since[p]);
        }
        let cur = self.img[k];
        if plan.node(cur).inputs == inputs {
            return Ok(());
        }
        self.rebuilt += 1;
        let node = rebuild(plan, cur, inputs);
        // A π rebuilt over a π composes with it and reads other nodes.
        self.kept[k] &= plan.node(node).inputs == inputs;
        match self.replaced.get(&node) {
            // The position held the node when the replay replaced it.
            Some(&m) if since <= m => {
                if self.rewrites[m].rule != "(eq)" {
                    return Err(m);
                }
                self.hold(k, self.rewrites[m].new, m + 1);
            }
            _ => self.hold(k, node, since),
        }
        Ok(())
    }

    /// Record `rw` at position `k`: the replacement and the nodes built
    /// for it down to the node's inputs are held from now on.
    fn record(&mut self, plan: &Plan, k: usize, rw: Rewrite) {
        let old = plan.node(rw.old);
        let stop: Vec<NodeId> = old
            .inputs
            .iter()
            .flat_map(|&i| std::iter::once(i).chain(plan.node(i).inputs.iter().copied()))
            .collect();
        let mut stack = plan.node(rw.new).inputs.to_vec();
        while let Some(x) = stack.pop() {
            if !stop.contains(&x) {
                *self.holders.entry(x).or_default() += 1;
                stack.extend(plan.node(x).inputs);
            }
        }
        self.replaced.insert(rw.old, self.rewrites.len());
        self.rewrites.push(rw);
        self.kept[k] &= plan.node(rw.new).inputs == old.inputs;
        self.hold(k, rw.new, self.rewrites.len());
    }

    /// May the sweep rewrite the node position `k` holds?
    fn may_rewrite(&self, k: usize) -> bool {
        let id = self.img[k];
        self.rewrites.is_empty()
            || self.rewrites.len() < self.limit
                && self.holders(id) == 1
                && !self.replaced.contains_key(&id)
    }

    /// The table's bottom-up values of node `id` of the DAG and its first
    /// input.
    fn table_facts(&self, plan: &Plan, id: NodeId) -> Facts {
        let up = |i: NodeId| self.props.up_id(i).expect("a node of the table");
        Facts { own: up(id), input: plan.node(id).inputs.first().map_or(u32::MAX, |&i| up(i)) }
    }

    /// Does position `k` hold its old node?
    fn unchanged(&self, k: usize) -> bool {
        self.img[k] == self.order[k]
    }

    /// The interned bottom-up value of `id`, a node of the table or one
    /// the sweep built over such nodes.
    fn up(&mut self, plan: &Plan, id: NodeId) -> u32 {
        if let Some(up) = self.props.up_id(id).or_else(|| self.ups.get(&id).copied()) {
            return up;
        }
        let mut ups = [u32::MAX; 2];
        for (k, &i) in plan.node(id).inputs.iter().enumerate() {
            ups[k] = self.up(plan, i);
        }
        self.props.count_derivation();
        let up = self.props.derive_up(plan, id, ups);
        self.ups.insert(id, up);
        up
    }

    /// The sweep in scan order.
    fn run(&mut self, plan: &mut Plan, banned: &HashSet<(NodeId, NodeId)>) -> Result<(), usize> {
        for k in 0..self.img.len() {
            self.rebuild(plan, k)?;
            // A node rebuilt over changed inputs has the old node's
            // consumers and with them its top-down properties; what it and
            // its inputs are bottom-up is derived.
            let (id, cur) = (self.order[k], self.img[k]);
            // Debug builds re-test settled nodes too, to assert the shortcut.
            let was_settled = cur == id && self.props.is_settled(id);
            if was_settled && !cfg!(debug_assertions) {
                continue;
            }
            if !self.kept[k] || !self.may_rewrite(k) {
                continue;
            }
            // The bottom-up values of the node and its first input: the
            // table's for a node of the DAG, derived for a rebuilt one. Of
            // the rules, only (3) reads the node's own, and (8), (6c) and
            // (15) its input's.
            let op = plan.node(cur).op;
            let reads_own = matches!(op, Op::Join(_));
            let reads_input = matches!(op, Op::Rank { .. } | Op::RowId(_) | Op::Distinct);
            let facts = if cur == id {
                let up = |i: NodeId, reads: bool| {
                    if reads { self.props.up_id(i).expect("a node of the table") } else { u32::MAX }
                };
                Facts {
                    own: up(id, reads_own),
                    input: plan.node(id).inputs.first().map_or(u32::MAX, |&i| up(i, reads_input)),
                }
            } else {
                let input = plan.node(cur).inputs.first().copied();
                Facts {
                    own: if reads_own { self.up(plan, cur) } else { u32::MAX },
                    input: input.map_or(u32::MAX, |i| self.up(plan, i)),
                }
            };
            // A rebuilt node whose operator reads inputs with its old
            // node's input values and schemas has its old node's values
            // too (they are the memo key). If its old node had no house
            // rewrite under the same top-down properties, it has no (eq)
            // either, and can only have gained a rule that reads structure:
            // (1) or (2c).
            let same_facts = cur != id
                && self.props.is_settled(id)
                && same_up_key(plan, id, cur, |old, now| {
                    self.props.up_id(old) == Some(self.up(plan, now))
                });
            // Only these operators reference columns (eq) could rename.
            let refers = matches!(
                plan.node(cur).op,
                Op::Project(_) | Op::Select(_) | Op::Join(_) | Op::Rank { .. } | Op::Serialize { .. }
            ) && !same_facts;
            let mut ups = [u32::MAX; 2];
            let mut inputs = [NodeId(0); 2];
            let inputs = &mut inputs[..plan.node(cur).inputs.len()];
            inputs.copy_from_slice(plan.node(cur).inputs);
            for (up, &i) in ups.iter_mut().zip(inputs.iter()).filter(|_| refers) {
                *up = self.up(plan, i);
            }
            let canonical = if refers { canonicalize_columns(plan, self.props, cur, ups) } else { None };
            let found = match canonical {
                Some(new) => Some(Rewrite { old: cur, new, rule: "(eq)" }),
                None if same_facts && keeps_house_verdict(plan.node(cur).op) => None,
                None => house_rules(plan, self.props, cur, id, facts, self.props.icols(id)),
            };
            debug_assert!(!was_settled || found.is_none(), "settled node {} has a rewrite", id.0);
            match found {
                Some(rw) if !banned.contains(&(rw.old, rw.new)) => {
                    self.record(plan, k, rw);
                    if rw.rule == "(eq)" {
                        self.narrow_below(plan, k, banned)?;
                    }
                    self.rewrite_again(plan, k, banned);
                }
                None if cur == id => self.props.settle(id),
                _ => {}
            }
        }
        Ok(())
    }

    /// After an (eq) at position `c`: the `icols` it induces below it, the
    /// narrowing rewrites they license at nodes the sweep has not changed,
    /// and the rebuild of what lies between those nodes and `c`.
    fn narrow_below(
        &mut self,
        plan: &mut Plan,
        c: usize,
        banned: &HashSet<(NodeId, NodeId)>,
    ) -> Result<(), usize> {
        let changed = self.induce_contexts(plan, c);
        let Some(&lowest) = changed.first() else { return Ok(()) };
        for q in changed {
            if !self.unchanged(q) || !self.may_rewrite(q) || !self.kept_up_to(q, c) {
                continue;
            }
            let id = self.order[q];
            let needed = self.ctx[q].expect("a changed context is induced");
            let needed = self.props.ctx_icols(needed).clone();
            let facts = self.table_facts(plan, id);
            let found = house_rules(plan, self.props, id, id, facts, &needed);
            if let Some(rw) = found.filter(|rw| !banned.contains(&(rw.old, rw.new))) {
                self.record(plan, q, rw);
            }
        }
        for k in lowest + 1..=c {
            if self.kept[k] {
                self.rebuild(plan, k)?;
            }
        }
        Ok(())
    }

    /// After a rewrite at position `c` (and the narrowing below an (eq)):
    /// the house rules at the new node, for as long as it reads the nodes
    /// of the old node's inputs. Its consumers are the old node's. An (eq)
    /// found here waits for the next fire, which derives what it induces.
    fn rewrite_again(&mut self, plan: &mut Plan, c: usize, banned: &HashSet<(NodeId, NodeId)>) {
        let at = self.order[c];
        while self.may_rewrite(c) && self.kept[c] {
            let cur = self.img[c];
            let mut ups = [u32::MAX; 2];
            let mut inputs = [NodeId(0); 2];
            let inputs = &mut inputs[..plan.node(cur).inputs.len()];
            inputs.copy_from_slice(plan.node(cur).inputs);
            for (up, &i) in ups.iter_mut().zip(inputs.iter()) {
                *up = self.up(plan, i);
            }
            if canonicalize_columns(plan, self.props, cur, ups).is_some() {
                return;
            }
            let facts = Facts { own: self.up(plan, cur), input: ups[0] };
            let found = house_rules(plan, self.props, cur, at, facts, self.props.icols(at));
            let Some(rw) = found.filter(|rw| !banned.contains(&(rw.old, rw.new))) else { return };
            self.record(plan, c, rw);
        }
    }

    /// Tables 2 and 5 top-down from position `c`, whose operator changed:
    /// the positions below it whose context differs from what it was,
    /// ascending. A consumer edge is read off the node a position holds
    /// now when that node still consumes the input's, and off the old
    /// node otherwise — whose demand is never smaller.
    fn induce_contexts(&mut self, plan: &Plan, c: usize) -> Vec<usize> {
        let mut pending: BinaryHeap<usize> =
            plan.node(self.order[c]).inputs.iter().map(|&i| self.pos(i)).collect();
        let mut changed = Vec::new();
        while let Some(q) = pending.pop() {
            while pending.peek() == Some(&q) {
                pending.pop();
            }
            let id = self.order[q];
            let mut acc = None;
            for k in 0..self.props.parents(id).len() {
                let p = self.props.parents(id)[k];
                let pp = self.pos(p);
                let now = self.img[pp];
                let consumer = if plan.node(now).inputs.contains(&self.img[q]) { now } else { p };
                let mine = self.ctx[pp].unwrap_or_else(|| self.props.ctx_id(p));
                acc = Some(self.props.join_edge(plan, id, acc, consumer, mine));
            }
            self.props.count_derivation();
            let ctx = acc.expect("a position below `c` has a consumer");
            if ctx != self.ctx[q].unwrap_or_else(|| self.props.ctx_id(id)) {
                self.ctx[q] = Some(ctx);
                changed.push(q);
                pending.extend(plan.node(id).inputs.iter().map(|&i| self.pos(i)));
            }
        }
        changed.sort_unstable();
        changed
    }

    /// Do all ancestors of position `q` below position `c` keep their
    /// operators, so that rebuilding them over a narrowed `q` is what
    /// substitution would do?
    fn kept_up_to(&self, q: usize, c: usize) -> bool {
        let mut stack = vec![q];
        let mut seen = HashSet::new();
        while let Some(x) = stack.pop() {
            for &p in self.props.parents(self.order[x]) {
                let pp = self.pos(p);
                if pp < c && seen.insert(pp) {
                    if !self.kept[pp] {
                        return false;
                    }
                    stack.push(pp);
                }
            }
        }
        true
    }
}

// ===========================================================================
// House-cleaning: rules (1)-(8), (14), (15)
// ===========================================================================

/// The interned bottom-up values (Tables 3/4, column classes) of a node a
/// house rule inspects and of its first input (`u32::MAX` for a leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Facts {
    own: u32,
    input: u32,
}

/// The constant value of `c` in a bottom-up value.
fn const_in(up: &BottomUp, c: Col) -> Option<&Value> {
    up.consts.iter().find(|(x, _)| *x == c).map(|(_, v)| v)
}

/// The house rules other than (eq) at node `id`, which its consumers need
/// `icols` of: its top-down properties are those of node `at` of the table
/// (`id` itself, or the node `id` stands in for), its bottom-up values and
/// its first input's are `facts`.
fn house_rules(
    plan: &mut Plan,
    props: &Props,
    id: NodeId,
    at: NodeId,
    facts: Facts,
    icols: &ColSet,
) -> Option<Rewrite> {
    // Schema-shrinking rules are disabled below a ∪, which requires its
    // two inputs' schemas to stay exactly equal.
    let schema_locked = props.below_union(at);
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
                    let own = props.up_value(facts.own);
                    if let (Some(va), Some(vb)) = (const_in(own, a), const_in(own, b)) {
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
            if !schema_locked && !icols.contains(*c) {
                return Some(Rewrite { old: id, new: node.inputs[0], rule: "(4)" });
            }
            None
        }

        Op::Rank { out, by } => {
            // (5)  unused rank → input.
            if !schema_locked && !icols.contains(*out) {
                return Some(Rewrite { old: id, new: node.inputs[0], rule: "(5)" });
            }
            // (8)  constant ranking criteria are irrelevant.
            let is_const = |b: Col| const_in(props.up_value(facts.input), b).is_some();
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
            if !schema_locked && !icols.contains(*c) {
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
                    .up_value(facts.input)
                    .keys
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
            if props.set(at) {
                return Some(Rewrite { old: id, new: node.inputs[0], rule: "(14)" });
            }
            // (15)  project away constant columns nobody needs before δ.
            let input = node.inputs[0];
            let input_facts = props.up_value(facts.input);
            let drops = |c: Col| const_in(input_facts, c).is_some() && !icols.contains(c);
            if !schema_locked && input_facts.consts.iter().any(|&(c, _)| drops(c)) {
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
///
/// `ups` are the interned bottom-up values of `id`'s inputs, which need
/// not be in the table.
fn canonicalize_columns(plan: &mut Plan, props: &Props, id: NodeId, ups: [u32; 2]) -> Option<NodeId> {
    let node = plan.node(id);
    let canon = |c: Col| -> Col {
        for (k, &i) in node.inputs.iter().enumerate() {
            if plan.schema(i).contains(c) {
                return props.canon_up(ups[k], c);
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
    (new != id).then_some(new)
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
/// rebuild them in. Returns the new root and the rebuilt ancestors, each
/// with its rebuild, in that order — what [`Props::advance`] renames;
/// `props` still describes the old root afterwards.
///
/// Rebuilding *repairs* projections along the way: when a column-removing
/// rule (4)/(5)/(6) strips a column that an ancestor π still mentions, that
/// mention is — by the icols reasoning that licensed the removal — feeding
/// an output nobody needs, so the pair is dropped.
pub fn substitute(
    plan: &mut Plan,
    props: &Props,
    old: NodeId,
    new: NodeId,
) -> (NodeId, Vec<(NodeId, NodeId)>) {
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
        let nid = rebuild(plan, id, &mapped[..node.inputs.len()]);
        map.push((id, nid));
        pending.extend(props.parents(id).iter().map(|&p| by_pos(p)));
    }
    // The root is rebuilt last (or is `old` itself).
    let root = map[map.len() - 1].1;
    map.remove(0);
    (root, map)
}

/// Node `id`'s operator over `inputs`, repairing a projection whose sources
/// the new input lacks (see [`substitute`]).
fn rebuild(plan: &mut Plan, id: NodeId, inputs: &[NodeId]) -> NodeId {
    let avail = plan.schema(inputs[0]);
    match plan.node(id).op {
        Op::Project(m) if m.iter().any(|(_, src)| !avail.contains(*src)) => {
            let m: Vec<(Col, Col)> =
                m.iter().filter(|(_, src)| avail.contains(*src)).copied().collect();
            assert!(!m.is_empty(), "projection lost all sources during substitution");
            plan.project(inputs[0], m)
        }
        // Every other ancestor keeps its operator: no clone, no hash of it.
        _ => plan.with_inputs(id, inputs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::infer;

    fn apply_house(plan: &mut Plan, root: NodeId) -> NodeId {
        let mut props = infer(plan, root);
        for _ in 0..200 {
            match house_batch(plan, &mut props, &HashSet::new(), usize::MAX) {
                Ok(Some(batch)) => props.advance(plan, batch.root, &batch.moved),
                Ok(None) => break,
                Err(k) => panic!("rewrite {k} of the sweep is reused where it is not valid"),
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
        assert_eq!(rebuilt.len(), 3, "δ, @ and the serialize root");
        assert_eq!(rebuilt.iter().map(|&(old, _)| old).collect::<Vec<_>>(), vec![d, att, root]);
        let leaves: Vec<NodeId> = p
            .topo_order(new_root)
            .into_iter()
            .filter(|&id| p.node(id).inputs.is_empty())
            .collect();
        assert_eq!(leaves, vec![lit2]);
    }
}
