//! Dynamic property falsification.
//!
//! The static cross-check in [`crate::cert`] catches divergence between two
//! derivations, but both could share a blind spot. This oracle goes after
//! the claims themselves: it executes sub-plans on a document corpus and
//! looks for rows that *refute* a claimed fact —
//!
//! * `const (c,v)` — some row where column `c` ≠ `v`;
//! * `key K` — two rows agreeing on all columns of `K`;
//! * `set` — a node where inserting `δ` changes the serialized result of
//!   the whole plan (if duplicates below really were invisible upstream,
//!   eliminating them must be unobservable).
//!
//! A refutation is a *proof* of unsoundness; absence of refutations is
//! merely evidence, so the oracle complements (not replaces) the static
//! pass.

use crate::Violation;
use jgi_algebra::{NodeId, Op, Plan, Value};
use jgi_engine::logical_exec::execute_each;
use jgi_engine::{execute_serialized, ExecBudget};
use jgi_rewrite::rules::substitute;
use jgi_rewrite::Props;
use jgi_xml::DocStore;

/// Budgets for one oracle run.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Row budget for each sub-plan execution (exceeding it skips the
    /// check for that node rather than failing).
    pub budget: ExecBudget,
    /// At most this many `set` claims are tested per plan — each one costs
    /// a full plan execution.
    pub max_set_checks: usize,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig { budget: ExecBudget { max_rows: 100_000 }, max_set_checks: 8 }
    }
}

/// Execute sub-plans of the DAG under `root` against `store`, attempting
/// to refute the `const`/`key`/`set` facts claimed in `props`.
pub fn falsify(
    plan: &Plan,
    root: NodeId,
    props: &Props,
    store: &DocStore,
    cfg: &OracleConfig,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let topo = plan.topo_order(root);

    // One shared-memo pass materializes every node's table; over budget,
    // the oracle is best-effort and skips the per-node checks entirely.
    let tables = execute_each(plan, root, store, cfg.budget).unwrap_or_default();

    for &id in &topo {
        if matches!(plan.node(id).op, Op::Serialize { .. }) {
            continue;
        }
        let Some(table) = tables.get(&id) else { continue };

        for (c, v) in props.consts(id) {
            let Some(idx) = table.col_index(*c) else { continue };
            if let Some(row) = table.rows.iter().find(|r| &r[idx] != v) {
                out.push(Violation {
                    kind: "const",
                    node: id,
                    message: format!(
                        "claimed {} = {v} refuted by row value {}",
                        plan.col_name(*c),
                        row[idx]
                    ),
                });
            }
        }

        for key in props.keys(id) {
            let idxs: Vec<usize> =
                key.iter().filter_map(|c| table.col_index(c)).collect();
            if idxs.len() != key.len() {
                continue;
            }
            let mut projections: Vec<Vec<&Value>> = table
                .rows
                .iter()
                .map(|r| idxs.iter().map(|&i| &r[i]).collect())
                .collect();
            projections.sort();
            if projections.windows(2).any(|w| w[0] == w[1]) {
                out.push(Violation {
                    kind: "key",
                    node: id,
                    message: format!(
                        "claimed key {} refuted: duplicate projection over {} rows",
                        key.iter().map(|c| plan.col_name(c)).collect::<Vec<_>>().join(","),
                        table.rows.len()
                    ),
                });
            }
        }
    }

    // set claims: each test re-executes the whole plan, so sample evenly.
    if matches!(plan.node(root).op, Op::Serialize { .. }) {
        if let Ok(expected) = execute_serialized(plan, root, store, cfg.budget) {
            let candidates: Vec<NodeId> =
                topo.iter().copied().filter(|&id| id != root && props.set(id)).collect();
            let stride = candidates.len().div_ceil(cfg.max_set_checks.max(1)).max(1);
            for &id in candidates.iter().step_by(stride) {
                let mut probe = plan.clone();
                let dd = probe.distinct(id);
                let (new_root, _) = substitute(&mut probe, props, id, dd);
                match execute_serialized(&probe, new_root, store, cfg.budget) {
                    Ok(actual) if actual != expected => out.push(Violation {
                        kind: "set",
                        node: id,
                        message: format!(
                            "claimed set=true refuted: inserting δ changed the result \
                             ({} vs {} items)",
                            actual.len(),
                            expected.len()
                        ),
                    }),
                    _ => {}
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::tiny_store;
    use jgi_algebra::ColSet;
    use jgi_rewrite::infer;

    fn doc_scan_plan() -> (Plan, NodeId, NodeId) {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let item = p.col("item");
        let pos = p.col("pos");
        let proj = p.project(d, vec![(item, pre), (pos, pre)]);
        let root = p.serialize(proj, item, pos);
        (p, root, d)
    }

    #[test]
    fn honest_props_survive_the_oracle() {
        let (p, root, _) = doc_scan_plan();
        let props = infer(&p, root);
        let violations = falsify(&p, root, &props, &tiny_store(), &OracleConfig::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn refutes_a_planted_bad_key_and_const() {
        let (p, root, d) = doc_scan_plan();
        let mut props = infer(&p, root);
        let kind = jgi_algebra::Col(p.cols.get("kind").unwrap());
        // `kind` is certainly not unique across the doc table, nor constant.
        props.plant(d, |claims| {
            claims.up.keys.push(ColSet::single(kind));
            claims.up.consts.push((kind, Value::Int(99)));
        });
        let violations = falsify(&p, root, &props, &tiny_store(), &OracleConfig::default());
        assert!(violations.iter().any(|v| v.kind == "key" && v.node == d), "{violations:?}");
        assert!(violations.iter().any(|v| v.kind == "const" && v.node == d), "{violations:?}");
    }

    #[test]
    fn refutes_a_planted_bad_set_claim() {
        // serialize(rank(lit with duplicate rows)): duplicates are visible
        // in the output, so set=true at the literal is unsound.
        let mut p = Plan::new();
        let item = p.col("item");
        let pos = p.col("pos");
        let lit = p.lit(
            vec![item],
            vec![vec![Value::Int(3)], vec![Value::Int(3)]],
        );
        let r = p.rank(lit, pos, vec![item]);
        let root = p.serialize(r, item, pos);
        let mut props = infer(&p, root);
        assert!(!props.set(lit), "inference knows duplicates matter here");
        props.plant(lit, |c| c.ctx.set = true);
        let violations = falsify(&p, root, &props, &tiny_store(), &OracleConfig::default());
        assert!(violations.iter().any(|v| v.kind == "set" && v.node == lit), "{violations:?}");
    }
}
