//! Rule-fire auditing.
//!
//! [`AuditObserver`] plugs into the rewrite driver's observer hook and
//! checks, after every Fig. 5 rule fire:
//!
//! 1. **schema preservation** — the replacement node must still provide
//!    every column the old node's consumers need (`icols(old) ⊆
//!    schema(new)`; `substitute` silently drops dead projection sources,
//!    so this is the precise obligation a rule must discharge);
//! 2. **constant monotonicity** — a constant fact `(c,v)` established at
//!    the old node survives to the replacement whenever column `c` does
//!    (rewrites may rename columns away, but must not change the value of
//!    one they keep);
//! 3. **result equivalence** (sampled) — the serialized result of the
//!    whole plan, executed on the audit corpus, must match the pre-rewrite
//!    result exactly (order and duplicates included).
//!
//! A violation aborts isolation with an error naming the rule and node.
//! Per-rule fire/audit tallies are kept in the [`AuditReport`]. The driver
//! replays a batched house-cleaning fire one rewrite at a time for an
//! observer, so the audit checks — and tallies — every rewrite, not every
//! batch ([`AuditReport::unaudited`]).

use crate::cert::certify;
use crate::oracle::{falsify, OracleConfig};
use crate::CheckError;
use jgi_algebra::{NodeId, Plan};
use jgi_engine::{execute_serialized, ExecBudget, ExecError};
use jgi_rewrite::driver::{isolate_with_observer, FireInfo, IsolateStats, RewriteObserver};
use jgi_rewrite::infer;
use jgi_xml::DocStore;
use std::collections::BTreeMap;

/// Sampling knobs for one audit run.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Row budget per equivalence execution (exceeding it skips that
    /// sample rather than failing the audit).
    pub budget: ExecBudget,
    /// Always audit result equivalence for this many leading fires.
    pub equiv_head: usize,
    /// After the head, audit every Nth fire.
    pub equiv_interval: usize,
    /// Hard cap on equivalence executions per run.
    pub equiv_max: usize,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            budget: ExecBudget { max_rows: 100_000 },
            equiv_head: 2,
            equiv_interval: 32,
            equiv_max: 12,
        }
    }
}

/// Per-rule audit tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleAudit {
    /// Rewrites observed.
    pub fires: usize,
    /// Fires whose result equivalence was executed.
    pub equiv_checked: usize,
}

/// Summary of one audited isolation run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Tallies keyed by rule label.
    pub per_rule: BTreeMap<&'static str, RuleAudit>,
    /// Total rewrites observed: one per rule application, except that a
    /// join descent is observed once.
    pub fires: usize,
    /// Total equivalence executions.
    pub equiv_checked: usize,
    /// Equivalence samples skipped because execution went over budget.
    pub equiv_skipped: usize,
}

impl AuditReport {
    /// The rules whose applications the audit did not observe one by one,
    /// as `(rule, observed, applied)`; empty when it checked every rewrite.
    /// A join descent is observed once, by the rule of its last level, so
    /// the descent rules (17)–(19) are left out.
    pub fn unaudited(&self, stats: &IsolateStats) -> Vec<(&'static str, usize, usize)> {
        let descent = |rule: &str| matches!(rule, "(17)" | "(18)" | "(19)");
        let mut rules: Vec<&'static str> =
            stats.applied.keys().chain(self.per_rule.keys()).copied().collect();
        rules.sort_unstable();
        rules.dedup();
        rules
            .into_iter()
            .filter(|rule| !descent(rule))
            .map(|rule| {
                let observed = self.per_rule.get(rule).map_or(0, |a| a.fires);
                (rule, observed, stats.applied.get(rule).copied().unwrap_or(0))
            })
            .filter(|(_, observed, applied)| observed != applied)
            .collect()
    }

    /// Render a short `rule×fires(audited)` summary.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .per_rule
            .iter()
            .map(|(rule, a)| format!("{rule}×{}({})", a.fires, a.equiv_checked))
            .collect();
        format!(
            "{} fires, {} equivalence checks ({} skipped): {}",
            self.fires,
            self.equiv_checked,
            self.equiv_skipped,
            parts.join(", ")
        )
    }
}

/// The auditing [`RewriteObserver`]. Borrows the document corpus the
/// equivalence samples execute against.
pub struct AuditObserver<'a> {
    store: &'a DocStore,
    cfg: AuditConfig,
    /// Serialized result of the original plan; `Some(None)` when it could
    /// not be computed (over budget / non-serialize root) — equivalence
    /// checks are then skipped.
    expected: Option<Option<Vec<u32>>>,
    /// Properties of the previous fire's `root_after` — which is exactly
    /// the next fire's `root_before`, so each fire costs one inference,
    /// not two.
    props_cache: Option<(NodeId, jgi_rewrite::Props)>,
    /// Audit tallies, readable after the run.
    pub report: AuditReport,
}

impl<'a> AuditObserver<'a> {
    /// Audit against `store` with default sampling.
    pub fn new(store: &'a DocStore) -> AuditObserver<'a> {
        AuditObserver::with_config(store, AuditConfig::default())
    }

    /// Audit with explicit sampling knobs.
    pub fn with_config(store: &'a DocStore, cfg: AuditConfig) -> AuditObserver<'a> {
        AuditObserver {
            store,
            cfg,
            expected: None,
            props_cache: None,
            report: AuditReport::default(),
        }
    }

    fn expected_result(&mut self, plan: &Plan, original_root: NodeId) -> Option<&Vec<u32>> {
        if self.expected.is_none() {
            let r = execute_serialized(plan, original_root, self.store, self.cfg.budget).ok();
            self.expected = Some(r);
        }
        self.expected.as_ref().unwrap().as_ref()
    }

    fn check_equivalence(&mut self, plan: &Plan, root: NodeId) -> Result<(), String> {
        let Some(expected) = self.expected.as_ref().and_then(|e| e.clone()) else {
            return Ok(());
        };
        match execute_serialized(plan, root, self.store, self.cfg.budget) {
            Ok(actual) => {
                self.report.equiv_checked += 1;
                if actual != expected {
                    return Err(format!(
                        "result equivalence violated on the audit corpus: \
                         {} items before vs {} after (first divergence at {:?})",
                        expected.len(),
                        actual.len(),
                        expected
                            .iter()
                            .zip(actual.iter())
                            .position(|(a, b)| a != b)
                            .unwrap_or_else(|| expected.len().min(actual.len()))
                    ));
                }
                Ok(())
            }
            Err(ExecError::BudgetExceeded) => {
                self.report.equiv_skipped += 1;
                Ok(())
            }
            Err(e) => Err(format!("rewritten plan no longer executes: {e}")),
        }
    }
}

impl RewriteObserver for AuditObserver<'_> {
    fn after_fire(&mut self, info: &FireInfo<'_>) -> Result<(), String> {
        self.report.fires += 1;
        let tally = self.report.per_rule.entry(info.rule).or_default();
        tally.fires += 1;

        // The first fire sees the pristine root: snapshot the reference
        // result before any further rewriting.
        if info.step == 1 {
            self.expected_result(info.plan, info.root_before);
        }

        let sampled = info.step <= self.cfg.equiv_head
            || info.step.is_multiple_of(self.cfg.equiv_interval.max(1));

        // 1. Schema preservation, every fire. Fast path: `icols ⊆ schema`,
        // so `schema(old) ⊆ schema(new)` discharges the obligation without
        // property inference — only column-pruning rules (the minority)
        // pay for a full `infer` over the plan.
        let provided = info.plan.schema(info.new);
        let prunes = !info.plan.schema(info.old).is_subset(provided);
        let before = if prunes || sampled {
            Some(match self.props_cache.take() {
                Some((root, props)) if root == info.root_before => props,
                _ => infer(info.plan, info.root_before),
            })
        } else {
            self.props_cache = None;
            None
        };
        if prunes {
            let before = before.as_ref().expect("inferred above");
            let needed = before.icols(info.old);
            if !needed.is_subset(provided) {
                let missing: Vec<&str> = needed
                    .minus(provided)
                    .iter()
                    .map(|c| info.plan.col_name(c))
                    .collect();
                return Err(format!(
                    "schema preservation violated: replacement drops required column(s) {}",
                    missing.join(",")
                ));
            }
        }

        // 2. Constant monotonicity on surviving columns — on the same
        // sampling schedule as equivalence (plus whenever before-props were
        // already paid for), since it needs a second inference.
        if let Some(before) = &before {
            let after = infer(info.plan, info.root_after);
            // Constants are bottom-up: a replacement that a consumer's π
            // composed away (rule (2c) floats a π up to meet one) has them
            // in its own sub-DAG.
            let own;
            let facts = if after.contains(info.new) {
                &after
            } else {
                own = infer(info.plan, info.new);
                &own
            };
            for (c, v) in before.consts(info.old) {
                if provided.contains(*c) && facts.const_of(info.new, *c) != Some(v) {
                    return Err(format!(
                        "constant fact lost: {} = {v} held before the fire but not after",
                        info.plan.col_name(*c)
                    ));
                }
            }
            self.props_cache = Some((info.root_after, after));
        }

        // 3. Sampled result equivalence.
        if sampled && self.report.equiv_checked < self.cfg.equiv_max {
            let prev = self.report.equiv_checked;
            self.check_equivalence(info.plan, info.root_after)?;
            if self.report.equiv_checked > prev {
                if let Some(t) = self.report.per_rule.get_mut(info.rule) {
                    t.equiv_checked += 1;
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, plan: &Plan, root: NodeId) -> Result<(), String> {
        // The final plan is always checked end to end (when the reference
        // result was computable).
        self.check_equivalence(plan, root)
    }
}

/// Fully-checked isolation: certify the stacked plan's properties, run the
/// driver under an [`AuditObserver`], then certify and dynamically falsify
/// the isolated plan. This is what `Session::prepare` runs under
/// `JGI_CHECK=1`.
pub fn checked_isolate(
    plan: &mut Plan,
    root: NodeId,
    store: &DocStore,
) -> Result<(NodeId, IsolateStats, AuditReport), CheckError> {
    let cfg = OracleConfig::default();
    let props = infer(plan, root);
    let mut violations = certify(plan, root, &props);
    violations.extend(falsify(plan, root, &props, store, &cfg));
    if !violations.is_empty() {
        return Err(CheckError::Cert(violations));
    }

    let mut observer = AuditObserver::new(store);
    let (new_root, stats) = isolate_with_observer(plan, root, &mut observer)?;

    let props = infer(plan, new_root);
    let mut violations = certify(plan, new_root, &props);
    violations.extend(falsify(plan, new_root, &props, store, &cfg));
    if !violations.is_empty() {
        return Err(CheckError::Cert(violations));
    }
    Ok((new_root, stats, observer.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::tiny_store;
    use jgi_compiler::compile;
    use jgi_xquery::compile_to_core;

    #[test]
    fn q1_shape_passes_full_audit() {
        let store = tiny_store();
        let core = compile_to_core(r#"doc("auction.xml")/descendant::open_auction[bidder]"#)
            .unwrap();
        let c = compile(&core).unwrap();
        let mut plan = c.plan;
        let (new_root, stats, report) =
            checked_isolate(&mut plan, c.root, &store).expect("audit must pass");
        assert!(stats.steps > 0);
        assert_eq!(report.unaudited(&stats), vec![], "the audit saw every rewrite");
        assert!(report.fires > stats.steps, "some fire batches several rewrites");
        assert!(report.equiv_checked > 0, "{}", report.summary());
        let _ = new_root;
    }
}
