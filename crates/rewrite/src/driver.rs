//! The goal-directed rewrite driver (paper §3.2).
//!
//! Applies the Fig. 5 rules with the paper's goal order: house-cleaning
//! whenever necessary, subgoal ϱ before the δ/⋈ subgoals. Each step (a
//! *fire*) rewrites the plan, rebuilds the ancestors of what it replaced
//! and advances one [`Props`] table to the new root — both at a cost
//! proportional to what the fire touched, not to the DAG (see
//! [`crate::props`] for why carrying the table over is sound). The table
//! renames each rebuilt ancestor in place rather than entering it anew,
//! so only the replacement's new nodes enter and a rebuilt node keeps its
//! context, and its house-cleaning verdict, where nothing it reads moved.
//! A ϱ fire is a single rewrite. A house-cleaning fire is one sweep:
//! every house rule the table licenses, (eq) first and the narrowing it
//! enables after it ([`house_batch`]). A join fire is one §3.2 goal,
//! "push this equi-join down until rule (19) removes it": each level's
//! replacement is built once, and the levels are linked when the descent
//! ends. Either is substituted into the plan once. The ϱ and (16) scans
//! test every node on every fire; only the house-cleaning sweep skips a
//! node it turned down under the same top-down properties, a verdict the
//! table keeps across fires.
//!
//! Checked mode (`JGI_CHECK=1`) and a [`RewriteObserver`] see every rewrite
//! of a fire: the driver replays a house-cleaning batch one substitution at
//! a time, observes and checks each, and requires the replay to reach the
//! batch's root — a `NodeId` comparison under hash-consing. What only the
//! replay built is then dropped from the arena again, so that checking
//! does not change which ids, and with them which `name@id` columns, the
//! run allocates.
//!
//! Termination. House-cleaning shrinks the plan, ϱ rules only move ranks
//! rootward and join push-down descends, but adjacent equi-joins can trade
//! places forever under rule (18) (the paper's footnote 5). Hash-consing
//! makes plan states comparable by root id, so the driver keeps three
//! sets; each of them decides which rewrite fires next, so all three stay:
//! `visited`, every root seen so far — a rewrite whose substitution lands
//! on one is not applied; `banned`, the `(old, new)` pairs turned down that
//! way, so that the scan proposes the next candidate — cleared when a phase
//! rule or a join elimination changes the state, not by a descent that only
//! pushes; `stuck`, the positions of equi-joins whose descent ended without
//! an applied elimination — retried only after one, since a changed
//! neighbourhood rebuilds them under new ids anyway. A fuel constant bounds
//! pathological inputs defensively; all rewrites preserve semantics, so
//! running out of it still yields a *correct* (merely less isolated) plan.

use crate::props::{infer, Props};
use crate::rules::{
    find_rewrite, house_batch, is_pushable_equijoin, substitute, try_eliminate_join,
    try_push_join, Phase, Rewrite,
};
use jgi_algebra::{NodeId, Plan};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Steps after which isolation gives up (the benchmark's longest run: 782).
const FUEL: usize = 20_000;

/// Is checked-mode rewriting enabled (`JGI_CHECK=1`)?
///
/// Checked mode promotes the driver's pass-level `debug_assert!` whole-plan
/// validation to a real check that also runs in release builds, replays
/// every house-cleaning batch one rewrite at a time, and makes
/// [`isolate_with_observer`] return a structured [`IsolateError`] naming
/// the offending rule and node ([`isolate`] panics with it). Read per call
/// (not cached) so tests can toggle it.
pub fn check_enabled() -> bool {
    matches!(std::env::var("JGI_CHECK").as_deref(), Ok("1") | Ok("true"))
}

/// Structured failure from a checked isolation run: the rule whose fire was
/// rejected, the step number, the replacement node, and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolateError {
    /// Label of the rule that fired (e.g. `"(12)"`), or `"(final)"` for a
    /// violation detected after the driver loop finished.
    pub rule: &'static str,
    /// 1-based rewrite step at which the violation was detected.
    pub step: usize,
    /// The replacement node produced by the fire (the focus of the check).
    pub node: NodeId,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for IsolateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule {} at step {} (node {}): {}",
            self.rule, self.step, self.node.0, self.message
        )
    }
}

impl std::error::Error for IsolateError {}

/// One rewrite of a fire, as seen by a [`RewriteObserver`]: a join descent
/// is one rewrite, a house-cleaning batch is replayed as one per rule
/// application.
pub struct FireInfo<'a> {
    /// The plan arena *after* the rewrite (old nodes stay valid for the
    /// observation — rewrites are non-destructive, so the pre-rewrite
    /// sub-DAG is still readable; only the nodes that exist solely inside
    /// a batch's replay are dropped once the fire is over).
    pub plan: &'a Plan,
    /// Label of the rule that fired; for a join descent, the rule of its
    /// last level.
    pub rule: &'static str,
    /// 1-based step (fire) count; the rewrites of one batch share it.
    pub step: usize,
    /// Node the rule replaced.
    pub old: NodeId,
    /// Replacement node.
    pub new: NodeId,
    /// Plan root before the rewrite.
    pub root_before: NodeId,
    /// Plan root after ancestor substitution.
    pub root_after: NodeId,
}

/// Hook into the rewrite driver: called after every rewrite and once at
/// the end of the run. Returning `Err` aborts isolation with an
/// [`IsolateError`] naming the rule and node — this is how the `jgi-check`
/// audit pass pinpoints a bad rewrite.
pub trait RewriteObserver {
    /// Inspect a rule fire. The plan is immutable during observation.
    fn after_fire(&mut self, info: &FireInfo<'_>) -> Result<(), String>;
    /// Inspect the final plan once the driver loop has finished.
    fn finish(&mut self, _plan: &Plan, _root: NodeId) -> Result<(), String> {
        Ok(())
    }
}

/// Statistics of one isolation run.
#[derive(Debug, Clone, Default)]
pub struct IsolateStats {
    /// Rule applications per rule label: one per level, so a join descent
    /// that passes three operators and is then eliminated counts three
    /// (17)/(18) and one (19) in a single step, and one per rewrite of a
    /// house-cleaning batch.
    pub applied: HashMap<&'static str, usize>,
    /// Fires: substitutions into the plan, one per step — a ϱ rewrite, a
    /// join descent, or a house-cleaning sweep however many rewrites it
    /// batches.
    pub steps: usize,
    /// Reachable node count before isolation.
    pub nodes_before: usize,
    /// Reachable node count after isolation.
    pub nodes_after: usize,
    /// Per-node property derivations, the initial whole-DAG pass included:
    /// one per node entering the DAG, a rebuilt node renamed in place
    /// included (its bottom-up value, derived through the memo or kept
    /// under its old node's memo key), one per top-down recomputation of
    /// a node already in it, and one per node a house-cleaning sweep
    /// derives before it enters. A context that renaming keeps is not a
    /// derivation.
    pub props_derived: usize,
    /// Transfer-function evaluations behind those derivations: the memo
    /// misses (see [`crate::props`]).
    pub props_computed: usize,
    /// Ancestors rebuilt by substitution, rejected attempts included.
    pub nodes_rebuilt: usize,
    /// Whether the fuel limit was hit (plan still valid, possibly not
    /// fully isolated).
    pub fuel_exhausted: bool,
}

impl IsolateStats {
    /// Render a short per-rule application summary.
    pub fn summary(&self) -> String {
        let mut entries: Vec<(&str, usize)> =
            self.applied.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort();
        let parts: Vec<String> =
            entries.iter().map(|(k, v)| format!("{k}×{v}")).collect();
        format!(
            "{} steps ({}), {} → {} nodes",
            self.steps,
            parts.join(", "),
            self.nodes_before,
            self.nodes_after
        )
    }
}

/// Isolate the join graph buried in the plan under `root`.
///
/// Returns the new root and statistics. The plan arena is extended in
/// place; the original nodes stay valid (rewrites are non-destructive).
///
/// Panics if checked mode (`JGI_CHECK=1`) detects a violation — callers
/// that want the structured error use [`isolate_with_observer`] instead.
pub fn isolate(plan: &mut Plan, root: NodeId) -> (NodeId, IsolateStats) {
    isolate_with_fuel(plan, root, None, FUEL)
        .unwrap_or_else(|e| panic!("checked isolation failed: {e}"))
}

/// The general driver entry point: run isolation with a caller-supplied
/// [`RewriteObserver`] auditing every rewrite, house-cleaning batches
/// replayed one rewrite at a time. Independently of the observer, when
/// `JGI_CHECK=1` the whole plan is re-validated after every rewrite
/// (release builds included) and the carried-over property table is
/// compared with a from-scratch inference that consults no memo
/// ([`Props::cross_check`]).
pub fn isolate_with_observer(
    plan: &mut Plan,
    root: NodeId,
    observer: &mut dyn RewriteObserver,
) -> Result<(NodeId, IsolateStats), IsolateError> {
    isolate_with_fuel(plan, root, Some(observer), FUEL)
}

/// One run: the plan, the table following its root, the module docs' sets.
struct Run<'a> {
    plan: &'a mut Plan,
    props: Props,
    visited: HashSet<NodeId>,
    banned: HashSet<(NodeId, NodeId)>,
    stats: IsolateStats,
    checked: bool,
    observer: Option<&'a mut (dyn RewriteObserver + 'a)>,
}

/// One equi-join's way down: the replacement built for the join it started
/// from, and the levels it passed.
struct Descent {
    /// The replacement: the join pushed to its last position, or eliminated.
    to: NodeId,
    /// The positions of the join, the starting one first.
    path: Vec<NodeId>,
    /// The rule of each level, in descent order.
    levels: Vec<&'static str>,
    /// Did rule (19) end the descent?
    eliminated: bool,
}

impl Run<'_> {
    /// Make `root`, reached by `rewrites` from the current state, the
    /// current state, unless it was seen before (`Ok(false)`); `moved`
    /// pairs each node the fire rebuilt or replaced with the node standing
    /// in its place, for the table to rename. The fire counts one step and
    /// one application of each rule in `levels`.
    fn apply(
        &mut self,
        rewrites: &[Rewrite],
        root: NodeId,
        moved: &[(NodeId, NodeId)],
        levels: &[&'static str],
    ) -> Result<bool, IsolateError> {
        if root == self.props.root() || !self.visited.insert(root) {
            return Ok(false);
        }
        for &rule in levels {
            *self.stats.applied.entry(rule).or_default() += 1;
        }
        self.stats.steps += 1;
        // A fire of one rewrite is its own replay.
        let single = rewrites.len() == 1;
        if (self.checked || self.observer.is_some()) && !single {
            self.replay(rewrites, root)?;
        }
        let root_before = self.props.root();
        self.props.advance(self.plan, root, moved);
        let rule = rewrites[rewrites.len() - 1].rule;
        if self.checked {
            // The promoted debug_assert!, and the carried-over, memoised
            // properties against direct evaluation of the transfer functions.
            let fail = |node: NodeId, message: String| IsolateError {
                rule,
                step: self.stats.steps,
                node,
                message,
            };
            jgi_algebra::validate::validate(self.plan, root)
                .map_err(|msg| fail(root, format!("fire produced an invalid plan: {msg}")))?;
            if let Some((node, what)) = self.props.cross_check(self.plan) {
                return Err(fail(node, format!("carried-over `{what}` differs from direct evaluation")));
            }
        } else {
            debug_assert_eq!(
                jgi_algebra::validate::validate(self.plan, root),
                Ok(()),
                "rule {rule} produced an invalid plan"
            );
        }
        if let Some(observer) = self.observer.as_deref_mut().filter(|_| single) {
            let rw = rewrites[0];
            let info = FireInfo {
                plan: self.plan,
                rule,
                step: self.stats.steps,
                old: rw.old,
                new: rw.new,
                root_before,
                root_after: root,
            };
            observer.after_fire(&info).map_err(|message| IsolateError {
                rule,
                step: self.stats.steps,
                node: rw.new,
                message,
            })?;
        }
        Ok(true)
    }

    /// Substitute `rewrites` one at a time into a copy of the table,
    /// validating (in checked mode) and observing each, and require the
    /// last to reach `root`. Nodes that only the replay built are dropped
    /// from the arena afterwards, and the run's own table never sees the
    /// replay: checking leaves the run's arena and statistics as they are
    /// unchecked. The run's table is cross-checked after the fire.
    fn replay(&mut self, rewrites: &[Rewrite], root: NodeId) -> Result<(), IsolateError> {
        let built = self.plan.len();
        let mut table = self.props.clone();
        for rw in rewrites {
            let fail = |message: String| IsolateError {
                rule: rw.rule,
                step: self.stats.steps,
                node: rw.new,
                message,
            };
            if !table.contains(rw.old) {
                return Err(fail(format!("replaced node {} is not in the plan", rw.old.0)));
            }
            let root_before = table.root();
            let (new_root, rebuilt) = substitute(self.plan, &table, rw.old, rw.new);
            table.advance(self.plan, new_root, &rebuilt);
            if self.checked {
                // Every rewrite of a batch is validated on its own, so
                // that an invalid plan names its rule.
                jgi_algebra::validate::validate(self.plan, new_root)
                    .map_err(|msg| fail(format!("rewrite produced an invalid plan: {msg}")))?;
            }
            if let Some(observer) = self.observer.as_deref_mut() {
                let info = FireInfo {
                    plan: self.plan,
                    rule: rw.rule,
                    step: self.stats.steps,
                    old: rw.old,
                    new: rw.new,
                    root_before,
                    root_after: new_root,
                };
                observer.after_fire(&info).map_err(fail)?;
            }
        }
        let reached = table.root();
        if reached != root {
            let last = rewrites[rewrites.len() - 1];
            return Err(IsolateError {
                rule: last.rule,
                step: self.stats.steps,
                node: reached,
                message: format!(
                    "replaying the fire's {} rewrites reached node {}, not the batched root {}",
                    rewrites.len(),
                    reached.0,
                    root.0
                ),
            });
        }
        self.plan.truncate(built);
        Ok(())
    }

    /// Drive the equi-join `j0` downward until rule (19) eliminates it or
    /// no push applies; the direction is chosen on the first push and then
    /// kept. Each level replaces the join at its position by a node that
    /// holds the join of the next level; once the descent ends, the levels
    /// are linked bottom-up, so every wrapper is rebuilt once and the
    /// descent allocates in proportion to its levels. Every node between a
    /// level's replacement and the next level's join was built by this
    /// descent, so the link substitutes inside the nodes allocated since it
    /// began (no older node contains a newer one). The DAG and the property
    /// table are left as they were: the caller applies the result.
    fn descend(&mut self, j0: NodeId) -> Descent {
        let start = self.plan.len();
        let below_union = self.props.below_union(j0);
        let mut d = Descent { to: j0, path: vec![j0], levels: Vec::new(), eliminated: false };
        // The replacement of the join at each position of `d.path`.
        let mut built = Vec::new();
        let mut j = j0;
        let mut dir: Option<bool> = None;
        loop {
            if let Some(rw) = try_eliminate_join(self.plan, &self.props, j) {
                built.push(rw.new);
                d.levels.push(rw.rule);
                d.eliminated = true;
                break;
            }
            if below_union {
                break;
            }
            let Some((rw, moved, used_dir)) = try_push_join(self.plan, j, dir) else {
                break;
            };
            built.push(rw.new);
            d.levels.push(rw.rule);
            j = moved;
            dir = Some(used_dir);
            d.path.push(j);
        }
        if let Some(mut to) = built.pop() {
            for (k, &level) in built.iter().enumerate().rev() {
                to = replace_within(self.plan, level, d.path[k + 1], to, start);
            }
            d.to = to;
        }
        d
    }
}

/// Replace `old` by `new` inside `top`, rebuilding only the nodes of `top`
/// allocated at or after `start`. Node ids are topological, so nothing
/// older than `old` contains it.
fn replace_within(plan: &mut Plan, top: NodeId, old: NodeId, new: NodeId, start: usize) -> NodeId {
    if top == old {
        return new;
    }
    if (top.0 as usize) < start || top < old {
        return top;
    }
    let mut inputs = [NodeId(0); 2];
    let inputs = &mut inputs[..plan.node(top).inputs.len()];
    inputs.copy_from_slice(plan.node(top).inputs);
    for i in inputs.iter_mut() {
        *i = replace_within(plan, *i, old, new, start);
    }
    plan.with_inputs(top, inputs)
}

/// [`isolate_with_observer`] with an explicit step budget.
pub(crate) fn isolate_with_fuel<'a>(
    plan: &'a mut Plan,
    root: NodeId,
    observer: Option<&'a mut (dyn RewriteObserver + 'a)>,
    fuel: usize,
) -> Result<(NodeId, IsolateStats), IsolateError> {
    let props = infer(plan, root);
    let mut run = Run {
        stats: IsolateStats { nodes_before: props.order().len(), ..Default::default() },
        plan,
        props,
        visited: HashSet::from([root]),
        banned: HashSet::new(),
        checked: check_enabled(),
        observer,
    };
    let mut stuck: HashSet<NodeId> = HashSet::new();

    'outer: loop {
        if run.stats.steps >= fuel {
            run.stats.fuel_exhausted = true;
            break;
        }
        // House-cleaning to fixpoint, one sweep per fire. A sweep that
        // would reuse a replacement where it is not valid is cut short
        // before that rewrite.
        let mut limit = usize::MAX;
        loop {
            let batch = match house_batch(run.plan, &mut run.props, &run.banned, limit) {
                Ok(Some(batch)) => batch,
                Ok(None) => break,
                Err(conflict) => {
                    limit = conflict.max(1);
                    continue;
                }
            };
            run.stats.nodes_rebuilt += batch.rebuilt;
            let rules: Vec<&'static str> = batch.rewrites.iter().map(|rw| rw.rule).collect();
            if run.apply(&batch.rewrites, batch.root, &batch.moved, &rules)? {
                run.banned.clear();
                continue 'outer;
            }
            let first = batch.rewrites[0];
            run.banned.insert((first.old, first.new));
        }
        // The ϱ subgoal, one rewrite per fire.
        for phase in [Phase::RankGoal, Phase::JoinGoal] {
            while let Some(rw) = find_rewrite(run.plan, &run.props, phase, &run.banned) {
                let (new_root, rebuilt) = substitute(run.plan, &run.props, rw.old, rw.new);
                run.stats.nodes_rebuilt += rebuilt.len();
                if run.apply(&[rw], new_root, &rebuilt, &[rw.rule])? {
                    run.banned.clear();
                    continue 'outer;
                }
                run.banned.insert((rw.old, rw.new));
            }
        }

        // Join descent: deepest pushable equi-join not known to be stuck.
        // Each equi-join is driven to its destination in one fire, so
        // adjacent equi-joins never tumble.
        let candidates: Vec<NodeId> = run
            .props
            .order()
            .iter()
            .copied()
            .filter(|&id| is_pushable_equijoin(run.plan, id) && !stuck.contains(&id))
            .collect();
        for j in candidates {
            let descent = run.descend(j);
            // One fire for the whole descent, labelled by its last level.
            let fired = match descent.levels.last() {
                Some(&rule) => {
                    let rw = Rewrite { old: j, new: descent.to, rule };
                    let (new_root, rebuilt) = substitute(run.plan, &run.props, j, descent.to);
                    run.stats.nodes_rebuilt += rebuilt.len();
                    run.apply(&[rw], new_root, &rebuilt, &descent.levels)?
                }
                None => false,
            };
            // If the descent ends without elimination, every position along
            // the way is marked stuck — including the starting one, which
            // house-cleaning may resurrect by hash-consing.
            if fired && descent.eliminated {
                run.banned.clear();
                stuck.clear(); // elimination may unstick others
            } else {
                stuck.extend(&descent.path);
            }
            if fired {
                // Re-run the cheap phases before the next join.
                continue 'outer;
            }
        }
        break;
    }

    let Run { plan, props, mut stats, checked, observer, .. } = run;
    let root = props.root();
    stats.nodes_after = props.order().len();
    stats.props_derived = props.derived();
    stats.props_computed = props.computed();
    let fail =
        |message: String| IsolateError { rule: "(final)", step: stats.steps, node: root, message };
    if checked {
        jgi_algebra::validate::validate(plan, root)
            .map_err(|msg| fail(format!("final plan is invalid: {msg}")))?;
    }
    if let Some(observer) = observer {
        observer.finish(plan, root).map_err(fail)?;
    }
    Ok((root, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::Op;
    use jgi_compiler::compile;
    use jgi_engine::{execute_serialized, ExecBudget};
    use jgi_xml::{DocStore, Tree};
    use jgi_xquery::compile_to_core;

    fn fig2_store() -> DocStore {
        let mut t = Tree::new("auction.xml");
        let oa = t.add_element(t.root(), "open_auction");
        t.add_attr(oa, "id", "1");
        t.add_text_element(oa, "initial", "15");
        let bidder = t.add_element(oa, "bidder");
        t.add_text_element(bidder, "time", "18:43");
        t.add_text_element(bidder, "increase", "4.20");
        let mut store = DocStore::new();
        store.add_tree(&t);
        store
    }

    /// Compile, isolate, and check that the rewritten plan computes the
    /// same node sequence as the original (order and duplicates included).
    fn check_preserves(q: &str, store: &DocStore) -> (Plan, jgi_algebra::NodeId, IsolateStats) {
        let core = compile_to_core(q).unwrap();
        let c = compile(&core).unwrap();
        let mut plan = c.plan;
        let before =
            execute_serialized(&plan, c.root, store, ExecBudget::default()).unwrap();
        let (new_root, stats) = isolate(&mut plan, c.root);
        assert_eq!(jgi_algebra::validate::validate(&plan, new_root), Ok(()));
        let after =
            execute_serialized(&plan, new_root, store, ExecBudget::default()).unwrap();
        assert_eq!(before, after, "isolation changed semantics of {q}\n{}", stats.summary());
        (plan, new_root, stats)
    }

    #[test]
    fn q0_path_isolates_and_preserves() {
        let store = fig2_store();
        let (plan, root, stats) = check_preserves(
            r#"doc("auction.xml")/descendant::bidder/child::*/child::text()"#,
            &store,
        );
        assert!(stats.steps > 0);
        // Pure path: every rank must be gone or reduced; no # remains.
        let ops: Vec<&str> =
            plan.topo_order(root).iter().map(|&id| plan.node(id).op.name()).collect();
        assert!(!ops.contains(&"rowid"), "{ops:?}");
    }

    #[test]
    fn q1_isolates_shrinks_and_preserves() {
        let store = fig2_store();
        let (plan, root, stats) = check_preserves(
            r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
            &store,
        );
        assert!(
            stats.nodes_after < stats.nodes_before,
            "expected shrinkage: {}",
            stats.summary()
        );
        // The For/If equi-join machinery must be gone: no rowid left.
        let ops: Vec<&str> =
            plan.topo_order(root).iter().map(|&id| plan.node(id).op.name()).collect();
        assert!(!ops.contains(&"rowid"), "leftover #: {ops:?}\n{}", stats.summary());
    }

    #[test]
    fn isolation_is_idempotent() {
        let store = fig2_store();
        let core = compile_to_core(r#"doc("auction.xml")/descendant::open_auction[bidder]"#)
            .unwrap();
        let c = compile(&core).unwrap();
        let mut plan = c.plan;
        let (root1, _) = isolate(&mut plan, c.root);
        let (root2, stats2) = isolate(&mut plan, root1);
        assert_eq!(root1, root2, "second run must be a no-op: {}", stats2.summary());
        let _ = store;
    }

    #[test]
    fn value_predicates_preserved() {
        let store = fig2_store();
        check_preserves(r#"doc("auction.xml")/descendant::increase[. > 4]"#, &store);
        check_preserves(r#"doc("auction.xml")/descendant::increase[. > 5]"#, &store);
        check_preserves(r#"doc("auction.xml")/descendant::time[. = "18:43"]"#, &store);
    }

    #[test]
    fn nested_loops_preserved() {
        let store = fig2_store();
        check_preserves(
            r#"for $b in doc("auction.xml")/descendant::bidder
               for $c in $b/child::*
               return $c/child::text()"#,
            &store,
        );
    }

    #[test]
    fn reverse_axes_preserved() {
        let store = fig2_store();
        check_preserves(
            r#"doc("auction.xml")/descendant::increase/ancestor::node()"#,
            &store,
        );
        check_preserves(
            r#"doc("auction.xml")/descendant::time/following-sibling::node()"#,
            &store,
        );
    }

    #[test]
    fn duplicates_across_iterations_preserved() {
        let store = fig2_store();
        check_preserves(
            r#"for $c in doc("auction.xml")/descendant::bidder/child::*
               return $c/parent::node()"#,
            &store,
        );
    }

    /// Every query text of this module.
    const TEXTS: [&str; 10] = [
        r#"doc("auction.xml")/descendant::bidder/child::*/child::text()"#,
        r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
        r#"doc("auction.xml")/descendant::increase[. > 4]"#,
        r#"doc("auction.xml")/descendant::increase[. > 5]"#,
        r#"doc("auction.xml")/descendant::time[. = "18:43"]"#,
        r#"for $b in doc("auction.xml")/descendant::bidder
           for $c in $b/child::*
           return $c/child::text()"#,
        r#"doc("auction.xml")/descendant::increase/ancestor::node()"#,
        r#"doc("auction.xml")/descendant::time/following-sibling::node()"#,
        r#"for $c in doc("auction.xml")/descendant::bidder/child::*
           return $c/parent::node()"#,
        r#"doc("auction.xml")//bidder[increase > 20]/preceding-sibling::bidder/increase"#,
    ];

    /// Counts the rewrites it sees.
    struct Count(usize);

    impl RewriteObserver for Count {
        fn after_fire(&mut self, _info: &FireInfo<'_>) -> Result<(), String> {
            self.0 += 1;
            Ok(())
        }
    }

    #[test]
    fn replaying_batches_reaches_the_batched_roots() {
        for q in TEXTS {
            let c = compile(&compile_to_core(q).unwrap()).unwrap();
            let (mut plain, mut observed) = (c.plan.clone(), c.plan);
            let (root, stats) = isolate(&mut plain, c.root);
            // An observer makes the driver replay every batch one rewrite at
            // a time and fail unless the replay reaches the batched root.
            let mut count = Count(0);
            let (replayed, replayed_stats) =
                isolate_with_observer(&mut observed, c.root, &mut count)
                    .unwrap_or_else(|e| panic!("{q}: {e}"));
            assert!(count.0 > stats.steps, "{q}: some fire batches several rewrites");
            // The replay leaves the arena, and with it every id, as it was.
            assert_eq!((replayed, observed.len()), (root, plain.len()), "{q}");
            assert_eq!(replayed_stats.steps, stats.steps, "{q}");
        }
    }

    /// Paper Fig. 9: three loops, two value joins.
    const Q2: &str = r#"
        let $a := doc("auction.xml")
        for $ca in $a//closed_auction[price > 500],
            $i in $a//item,
            $c in $a//category
        where $ca/itemref/@item = $i/@id
          and $i/incategory/@category = $c/@id
        return $c/name"#;

    /// Records every join descent: its step, the root it starts from, its
    /// join, and how many nodes of its replacement that root lacks.
    struct Descents(Vec<(usize, NodeId, NodeId, usize)>);

    impl RewriteObserver for Descents {
        fn after_fire(&mut self, info: &FireInfo<'_>) -> Result<(), String> {
            if matches!(info.rule, "(17)" | "(18)" | "(19)") {
                let before: HashSet<NodeId> =
                    info.plan.topo_order(info.root_before).into_iter().collect();
                let replacement = info.plan.topo_order(info.new);
                let fresh = replacement.iter().filter(|id| !before.contains(id)).count();
                self.0.push((info.step, info.root_before, info.old, fresh));
            }
            Ok(())
        }
    }

    /// A descent of L levels allocates O(L) arena nodes: each level's
    /// wrapper is built once, when the levels are linked, instead of the
    /// whole path being copied again at every deeper level (O(L²): 13 265
    /// of Q2's 61 421 arena nodes were such copies). Checked on Q2's
    /// longest descents, replayed from the state each starts in.
    #[test]
    fn a_descent_allocates_in_proportion_to_its_levels() {
        let c = compile(&compile_to_core(Q2).unwrap()).unwrap();
        let mut descents = Descents(Vec::new());
        isolate_with_observer(&mut c.plan.clone(), c.root, &mut descents).unwrap();
        descents.0.sort_by_key(|&(.., fresh)| std::cmp::Reverse(fresh));
        for &(step, root_before, j, _) in &descents.0[..3] {
            let mut plan = c.plan.clone();
            let (root, _) = isolate_with_fuel(&mut plan, c.root, None, step - 1).unwrap();
            assert_eq!(root, root_before, "the run before step {step} is replayed");
            let props = infer(&plan, root);
            let start = plan.len();
            let mut run = Run {
                plan: &mut plan,
                props,
                visited: HashSet::new(),
                banned: HashSet::new(),
                stats: IsolateStats::default(),
                checked: false,
                observer: None,
            };
            let levels = run.descend(j).levels.len();
            let allocated = run.plan.len() - start;
            assert!(levels >= 40, "step {step}: a long descent, {levels} levels");
            assert!(allocated <= 8 * levels, "step {step}: {allocated} nodes for {levels} levels");
        }
    }

    #[test]
    fn fuel_bounds_the_run_and_leaves_a_correct_plan() {
        let store = fig2_store();
        let core = compile_to_core(r#"doc("auction.xml")/descendant::open_auction[bidder]"#)
            .unwrap();
        let c = compile(&core).unwrap();
        let mut plan = c.plan;
        let before = execute_serialized(&plan, c.root, &store, ExecBudget::default()).unwrap();
        let (root, stats) = isolate_with_fuel(&mut plan, c.root, None, 5).unwrap();
        assert!(stats.fuel_exhausted);
        assert_eq!(stats.steps, 5);
        let after = execute_serialized(&plan, root, &store, ExecBudget::default()).unwrap();
        assert_eq!(before, after);
    }

    /// `value`-equality self-join of the doc table over a selection — the
    /// shape rule (17) pushes below the σ — serialized directly, or as one
    /// branch of a ∪ with `other` as the second branch.
    fn value_join(under_union: bool) -> (Plan, NodeId) {
        let mut p = Plan::new();
        let d = p.doc();
        let dc = p.doc_cols();
        let value = p.col("value");
        let [a, k, b, item, pos] = ["a", "k", "b", "item", "pos"].map(|n| p.col(n));
        let left = p.project(d, vec![(a, value), (k, dc.kind), (item, dc.pre)]);
        let elem = jgi_algebra::Value::Kind(jgi_xml::NodeKind::Elem);
        let sel = p.select(left, vec![jgi_algebra::pred::Atom::col_eq_const(k, elem)]);
        let right = p.project(d, vec![(b, value)]);
        let j = p.join(sel, right, vec![jgi_algebra::pred::Atom::col_eq(a, b)]);
        let mut body = p.project(j, vec![(item, item), (pos, item)]);
        if under_union {
            let other = p.project(d, vec![(item, dc.pre), (pos, dc.pre)]);
            body = p.union(body, other);
        }
        let root = p.serialize(body, item, pos);
        (p, root)
    }

    /// Equi-joins left directly above a σ, i.e. not pushed through it.
    fn joins_over_select(plan: &Plan, root: NodeId) -> usize {
        let over_select = |id: NodeId| {
            matches!(plan.node(id).op, Op::Join(_))
                && plan.node(id).inputs.iter().any(|&i| matches!(plan.node(i).op, Op::Select(_)))
        };
        plan.topo_order(root).into_iter().filter(|&id| over_select(id)).count()
    }

    #[test]
    fn equijoin_below_a_union_stays_put_throughout_its_descent() {
        let store = fig2_store();
        // Control: without the ∪ the join descends through the σ.
        let (mut plan, root) = value_join(false);
        let (new_root, stats) = isolate(&mut plan, root);
        assert!(stats.applied.contains_key("(17)"), "{}", stats.summary());
        assert_eq!(joins_over_select(&plan, new_root), 0);

        // Below the ∪ the join may not be pushed: below-∪ is read once, for
        // the join the descent starts from, and a push keeps it below the ∪.
        let (mut plan, root) = value_join(true);
        let before = execute_serialized(&plan, root, &store, ExecBudget::default()).unwrap();
        let (new_root, stats) = isolate(&mut plan, root);
        assert!(!stats.applied.contains_key("(17)"), "{}", stats.summary());
        assert!(!stats.applied.contains_key("(18)"), "{}", stats.summary());
        assert_eq!(joins_over_select(&plan, new_root), 1);
        let after = execute_serialized(&plan, new_root, &store, ExecBudget::default()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn q1_reaches_join_graph_shape() {
        // The headline structural claim: after isolation Q1 is a plan tail
        // (serialize/δ/π) over a pure bundle of joins/selects/projections
        // of the single doc leaf — no ϱ, δ, or # inside the bundle
        // (paper Fig. 7).
        let store = fig2_store();
        let (plan, root, stats) = check_preserves(
            r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
            &store,
        );
        let mut distinct_count = 0;
        let mut rank_count = 0;
        for id in plan.topo_order(root) {
            match plan.node(id).op {
                Op::Distinct => distinct_count += 1,
                Op::Rank { .. } => rank_count += 1,
                _ => {}
            }
        }
        assert!(distinct_count <= 1, "tail must hold at most one δ: {}", stats.summary());
        assert!(rank_count <= 1, "tail must hold at most one ϱ: {}", stats.summary());
    }
}
