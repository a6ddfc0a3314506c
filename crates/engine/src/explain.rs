//! DB2-visual-explain-style plan rendering with XPath *continuation*
//! annotations (paper §4.1, Figs. 10/11).
//!
//! The physical plan is a left-deep pipeline; rendered as the paper draws
//! it — `RETURN` on top, then `SORT`, then a chain of `NLJOIN`/`HSJOIN`
//! whose right legs are `IXSCAN`/`TBSCAN` leaves. Each access is annotated
//! with the node test it performs and the axis relationship it *resumes*
//! against an earlier alias (e.g. `resume ⟨descendant of d1⟩ :: open_auction`),
//! which is exactly the "half-cooked step" reading of the paper.

use crate::catalog::Database;
use crate::optimizer::{node_test, pair_shape, PairShape, PlanStats};
use crate::physical::{Access, ExecStats, Method, OpActuals, PhysPlan, Step};
use std::fmt::Write as _;

/// Render the plan as indented text.
pub fn render(db: &Database, plan: &PhysPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "RETURN");
    let order: Vec<String> =
        plan.order_by.iter().map(|c| format!("d{}.{}", c.alias + 1, c.col.sql())).collect();
    let _ = writeln!(
        out,
        " SORT ({}ORDER BY {})",
        if plan.distinct { "DISTINCT, " } else { "" },
        order.join(", ")
    );
    // The join chain, outermost last in the text (paper draws RETURN on
    // top, driver at the bottom-left). We print top-down: deepest join
    // first equals last step.
    let mut depth = 1;
    for step in plan.steps.iter().rev() {
        depth += 1;
        let pad = " ".repeat(depth);
        match step {
            Step::Nl(a) => {
                let flag = if a.early_out { " (early-out ⋉)" } else { "" };
                let _ = writeln!(out, "{pad}NLJOIN{flag}");
                let _ = writeln!(out, "{pad} {}", describe_access(db, a));
            }
            Step::Hash { access, build_key, .. } => {
                let keys: Vec<&str> = build_key.iter().map(|c| c.sql()).collect();
                let _ = writeln!(out, "{pad}HSJOIN (on {})", keys.join(","));
                let _ = writeln!(out, "{pad} {}", describe_access(db, access));
            }
        }
    }
    let pad = " ".repeat(depth + 1);
    let _ = writeln!(out, "{pad}{}", describe_access(db, &plan.driver));
    let _ = writeln!(
        out,
        "(estimated cost {:.0}, estimated rows {:.1})",
        plan.est_cost, plan.est_rows
    );
    out
}

/// Render the plan annotated with per-operator *actuals* from an execution
/// — EXPLAIN ANALYZE. Each access line carries estimated vs actual row
/// counts plus probe/comparison work; the `PLAN` line says whether the
/// execution planned (`planning` is then its own search effort) or reused
/// a memoised plan (`planning` is the effort that built it). The output is
/// deterministic (no timings), so it can be golden-tested.
pub fn render_analyze(
    db: &Database,
    plan: &PhysPlan,
    planning: &PlanStats,
    plan_cached: bool,
    stats: &ExecStats,
) -> String {
    let result_rows = stats.sort_rows - stats.dedup_removed;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "RETURN (est_rows {:.1}, act_rows {result_rows})",
        plan.est_rows
    );
    let order: Vec<String> =
        plan.order_by.iter().map(|c| format!("d{}.{}", c.alias + 1, c.col.sql())).collect();
    let _ = writeln!(
        out,
        " SORT ({}ORDER BY {}) (rows_in {}, dedup_removed {})",
        if plan.distinct { "DISTINCT, " } else { "" },
        order.join(", "),
        stats.sort_rows,
        stats.dedup_removed
    );
    let _ = writeln!(
        out,
        " PLAN ({}, states={})",
        if plan_cached { "cached" } else { "planned" },
        planning.states_considered
    );
    // Batch geometry plus the physical-vs-logical probe gap the batched
    // B-tree cursors opened up.
    let _ = writeln!(
        out,
        " VECTORIZED (batch={}, batches={}, kernels={}, fallbacks={}, descents={}, skips={})",
        stats.vector_batch_size,
        stats.vector_batches,
        stats.vector_kernels,
        stats.vector_fallbacks,
        stats.btree_descents,
        stats.btree_skips
    );
    // Annotated whenever join work ran: a hash table was built, or sorted
    // probe batches were served by galloping seeks.
    if stats.join_build_rows + stats.join_probe_batches + stats.join_seeks > 0 {
        let mut strategies: Vec<&str> = Vec::new();
        for s in &plan.steps {
            if !strategies.contains(&s.strategy()) {
                strategies.push(s.strategy());
            }
        }
        let _ = writeln!(
            out,
            " JOIN (strategy {}, build_rows {}, probe_batches {}, seeks {})",
            strategies.join("+"),
            stats.join_build_rows,
            stats.join_probe_batches,
            stats.join_seeks
        );
    }
    let mut depth = 1;
    for (i, step) in plan.steps.iter().enumerate().rev() {
        depth += 1;
        let pad = " ".repeat(depth);
        let op = actuals(stats, i + 1);
        match step {
            Step::Nl(a) => {
                let flag = if a.early_out { " (early-out ⋉)" } else { "" };
                let _ = writeln!(out, "{pad}NLJOIN{flag}");
                let _ = writeln!(out, "{pad} {}{}", describe_access(db, a), annotate(a, &op));
            }
            Step::Hash { access, build_key, .. } => {
                let keys: Vec<&str> = build_key.iter().map(|c| c.sql()).collect();
                let _ = writeln!(out, "{pad}HSJOIN (on {})", keys.join(","));
                let _ = writeln!(
                    out,
                    "{pad} {}{}",
                    describe_access(db, access),
                    annotate(access, &op)
                );
            }
        }
    }
    let pad = " ".repeat(depth + 1);
    let driver_op = actuals(stats, 0);
    let _ = writeln!(
        out,
        "{pad}{}{}",
        describe_access(db, &plan.driver),
        annotate(&plan.driver, &driver_op)
    );
    let _ = writeln!(out, "(estimated cost {:.0})", plan.est_cost);
    out
}

fn actuals(stats: &ExecStats, i: usize) -> OpActuals {
    stats.per_op.get(i).copied().unwrap_or_default()
}

fn annotate(a: &Access, op: &OpActuals) -> String {
    format!(
        " (est_rows {:.1}, act_rows {}, probes {}, comparisons {})",
        a.est_rows, op.rows_out, op.index_probes, op.comparisons
    )
}

/// One-line description of an access: operator, index, node test,
/// continuation annotation.
pub fn describe_access(db: &Database, a: &Access) -> String {
    let d = a.alias + 1;
    let head = match &a.method {
        Method::TbScan => "TBSCAN doc".to_string(),
        Method::IxScan { index, eq, range } => {
            let idx = &db.indexes[*index];
            let mut parts = format!("IXSCAN {} ", idx.name);
            let _ = write!(parts, "[{} eq-col(s)", eq.len());
            if range.is_some() {
                parts.push_str(" + range");
            }
            parts.push(']');
            parts
        }
    };
    let mut notes: Vec<String> = Vec::new();
    if let Some(t) = node_label(a) {
        notes.push(format!("d{d} = {t}"));
    }
    for (other, axis) in continuations(a) {
        notes.push(format!("resume ⟨{axis} of d{}⟩", other + 1));
    }
    if notes.is_empty() {
        format!("{head} (d{d})")
    } else {
        format!("{head} ({})", notes.join("; "))
    }
}

/// The node test an access performs, read off its name/kind predicates
/// ([`node_test`]).
fn node_label(a: &Access) -> Option<String> {
    match node_test(&a.all_atoms, a.alias) {
        (Some(n), Some(jgi_xml::NodeKind::Attr)) => Some(format!("@{n}")),
        (Some(n), _) => Some(format!("::{n}")),
        (None, Some(k)) => Some(format!("::{}()", k.tag().to_lowercase())),
        (None, None) => None,
    }
}

/// Axis relationships this access resumes against earlier aliases.
fn continuations(a: &Access) -> Vec<(usize, &'static str)> {
    let mut partners: Vec<usize> = Vec::new();
    for p in &a.all_atoms {
        for x in p.aliases() {
            if x != a.alias && !partners.contains(&x) {
                partners.push(x);
            }
        }
    }
    partners.into_iter().map(|b| (b, axis(&pair_shape(&a.all_atoms, a.alias, b)))).collect()
}

/// Name the axis a [`PairShape`] spells out, reading order terms as written
/// with `<`/`<=` and starts only (a `pre + size` end form is no
/// following/preceding here).
fn axis(s: &PairShape) -> &'static str {
    let down = s.after.written() && s.inside.written();
    let up = s.before.written() && s.contains.written();
    match (down, up, s.level_link, s.parent_eq, s.a_value_eq) {
        (true, _, true, _, _) => "child",
        (true, _, false, _, _) => "descendant",
        (_, true, true, _, _) => "parent",
        (_, true, false, _, _) => "ancestor",
        (_, _, _, true, _) => "sibling",
        (_, _, _, _, true) => "value join",
        _ if s.after.written() => "following",
        _ if s.before.written() => "preceding",
        _ => "join",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer;
    use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol, OutputCol};
    use jgi_algebra::pred::CmpOp;
    use jgi_algebra::{ConjunctiveQuery, Value};
    use jgi_xml::generate::{generate_xmark, XmarkConfig};
    use jgi_xml::DocStore;

    fn simple_cq() -> ConjunctiveQuery {
        // d1 = doc node, d2 = descendant open_auction of d1.
        let d1 = 0usize;
        let d2 = 1usize;
        let pre = |a| ColRef { alias: a, col: DocCol::Pre };
        ConjunctiveQuery {
            aliases: 2,
            predicates: vec![
                CqAtom {
                    lhs: CqScalar::Col(ColRef { alias: d1, col: DocCol::Kind }),
                    op: CmpOp::Eq,
                    rhs: CqScalar::Const(Value::Kind(jgi_xml::NodeKind::Doc)),
                },
                CqAtom {
                    lhs: CqScalar::Col(ColRef { alias: d1, col: DocCol::Name }),
                    op: CmpOp::Eq,
                    rhs: CqScalar::Const(Value::Str("auction.xml".into())),
                },
                CqAtom {
                    lhs: CqScalar::Col(ColRef { alias: d2, col: DocCol::Kind }),
                    op: CmpOp::Eq,
                    rhs: CqScalar::Const(Value::Kind(jgi_xml::NodeKind::Elem)),
                },
                CqAtom {
                    lhs: CqScalar::Col(ColRef { alias: d2, col: DocCol::Name }),
                    op: CmpOp::Eq,
                    rhs: CqScalar::Const(Value::Str("open_auction".into())),
                },
                CqAtom {
                    lhs: CqScalar::Col(pre(d1)),
                    op: CmpOp::Lt,
                    rhs: CqScalar::Col(pre(d2)),
                },
                CqAtom {
                    lhs: CqScalar::Col(pre(d2)),
                    op: CmpOp::Le,
                    rhs: CqScalar::ColPlusCol(pre(d1), ColRef { alias: d1, col: DocCol::Size }),
                },
            ],
            select: vec![OutputCol { col: pre(d2), name: None }],
            distinct: true,
            order_by: vec![pre(d2)],
            item_output: 0,
        }
    }

    #[test]
    fn renders_the_operator_tree() {
        let t = generate_xmark(XmarkConfig { scale: 0.002, seed: 5 });
        let mut store = DocStore::new();
        store.add_tree(&t);
        let db = Database::with_default_indexes(store);
        let plan = optimizer::plan(&db, &simple_cq());
        let text = render(&db, &plan);
        assert!(text.contains("RETURN"), "{text}");
        assert!(text.contains("SORT (DISTINCT"), "{text}");
        assert!(text.contains("NLJOIN"), "{text}");
        assert!(text.contains("IXSCAN"), "{text}");
        assert!(text.contains("open_auction"), "{text}");
        // Continuation annotation present.
        assert!(text.contains("resume ⟨descendant of d1⟩") || text.contains("resume ⟨ancestor of d2⟩"), "{text}");
    }
}
