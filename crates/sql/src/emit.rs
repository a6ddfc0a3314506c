//! SQL emission — the join-graph block and the stacked CTE chain.
//!
//! Two printers live here, one per plan shape:
//!
//! * [`emit_join_graph`] (and its fixed-default wrapper [`join_graph_sql`])
//!   prints an isolated [`ConjunctiveQuery`] as the single
//!   `SELECT DISTINCT … FROM doc AS d1,… WHERE … ORDER BY …` block of paper
//!   Figs. 8/9, parameterized by [`Dialect`] for identifier quoting and the
//!   optional row-limit form;
//! * [`stacked_sql`] prints the *unrewritten* compiler DAG as a `WITH …`
//!   common-table-expression chain — one CTE per operator — which is the
//!   "stacked" configuration paper §4 shows overwhelming the optimizer.
//!
//! The emitted text is not just documentation: `jgi_sql::parse` reads the
//! join-graph block back, and `jgi_sql::backend` ships it to a real RDBMS
//! and divergence-checks the row sets against `jgi-engine`. Every construct
//! either printer can produce is specified in `SQL.md` at the repository
//! root.

use crate::dialect::Dialect;
use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol};
use jgi_algebra::pred::{Atom, CmpOp, Scalar};
use jgi_algebra::{Col, ConjunctiveQuery, NodeId, Op, Plan, Value};
use std::fmt::Write as _;

/// Options controlling join-graph emission.
///
/// The default (`Dialect::Sqlite`, no limit) reproduces the paper's
/// figure rendering byte-for-byte — SQLite needs no identifier quoting,
/// so its output *is* the portable bare-identifier text.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitOptions {
    /// Target dialect (identifier quoting, limit syntax).
    pub dialect: Dialect,
    /// Optional row cap appended in the dialect's limit form
    /// (`LIMIT n` / `FETCH FIRST n ROWS ONLY`). The cap is emission-only
    /// sugar: it lies outside the restricted fragment
    /// [`crate::parse_join_graph`] accepts.
    pub limit: Option<u64>,
}

impl EmitOptions {
    /// Options for a dialect with no row cap.
    pub fn for_dialect(dialect: Dialect) -> EmitOptions {
        EmitOptions { dialect, limit: None }
    }
}

/// Print a constant as a SQL literal: strings single-quoted with `''`
/// escaping, numbers bare, node-kind constants as their `'ELEM'`-style
/// tags. Identical across dialects.
fn sql_value(v: &Value) -> String {
    match v {
        Value::Kind(k) => format!("'{}'", k.tag()),
        other => other.to_string(),
    }
}

/// Render a `dN.col` reference under the dialect's quoting rules.
fn colref_sql(c: &ColRef, d: Dialect) -> String {
    format!("d{}.{}", c.alias + 1, d.ident(c.col.sql()))
}

/// Render a conjunctive-query scalar term (`d3.pre`, `d3.pre + d3.size`,
/// `d2.level + 1`, or a constant) under the dialect's quoting rules.
fn sql_scalar(s: &CqScalar, d: Dialect) -> String {
    match s {
        CqScalar::Col(c) => colref_sql(c, d),
        CqScalar::ColPlusInt(c, i) => {
            if *i >= 0 {
                format!("{} + {i}", colref_sql(c, d))
            } else {
                format!("{} - {}", colref_sql(c, d), -i)
            }
        }
        CqScalar::ColPlusCol(a, b) => {
            format!("{} + {}", colref_sql(a, d), colref_sql(b, d))
        }
        CqScalar::Const(v) => sql_value(v),
    }
}

/// Emit the join-graph block (paper Figs. 8/9) with the default options —
/// bare identifiers, no row cap. This is the text the paper prints and the
/// text [`crate::parse_join_graph`] round-trips.
///
/// Containment pairs `dB.pre < dA.pre ∧ dA.pre <= dB.pre + dB.size` are
/// printed with the paper's `BETWEEN` sugar:
/// `dA.pre BETWEEN dB.pre + 1 AND dB.pre + dB.size`.
pub fn join_graph_sql(cq: &ConjunctiveQuery) -> String {
    emit_join_graph(cq, &EmitOptions::default())
}

/// Emit the join-graph block for a specific dialect and optional row cap.
///
/// The block's *shape* is dialect-independent — `SELECT DISTINCT` list,
/// flat `doc` self-join `FROM` clause, conjunctive `WHERE` with `BETWEEN`
/// folding for containment pairs, `ORDER BY` — only identifier quoting and
/// the limit clause fork on [`EmitOptions::dialect`]. See `SQL.md` for the
/// full construct inventory with a worked Q2 example.
pub fn emit_join_graph(cq: &ConjunctiveQuery, opts: &EmitOptions) -> String {
    let d = opts.dialect;
    let mut out = String::new();
    // SELECT list.
    out.push_str("SELECT DISTINCT ");
    let sel: Vec<String> = cq
        .select
        .iter()
        .enumerate()
        .map(|(i, o)| {
            if i == cq.item_output {
                format!("{} AS item", colref_sql(&o.col, d))
            } else {
                colref_sql(&o.col, d)
            }
        })
        .collect();
    out.push_str(&sel.join(", "));
    // FROM.
    out.push_str("\nFROM   ");
    let from: Vec<String> = (0..cq.aliases).map(|a| format!("doc AS d{}", a + 1)).collect();
    out.push_str(&from.join(", "));
    // WHERE with BETWEEN folding: the two halves of a containment pair,
    // in either order, print as one clause where the first one stood.
    let mut printed = vec![false; cq.predicates.len()];
    let mut clauses: Vec<String> = Vec::new();
    for (i, p) in cq.predicates.iter().enumerate() {
        if printed[i] {
            continue;
        }
        printed[i] = true;
        if let Some((a, b, lower)) = containment_half(p) {
            let partner = (0..cq.predicates.len()).find(|&j| {
                !printed[j] && containment_half(&cq.predicates[j]) == Some((a, b, !lower))
            });
            if let Some(j) = partner {
                printed[j] = true;
                clauses.push(format!(
                    "{a} BETWEEN {b} + 1 AND {b} + d{n}.{size}",
                    a = colref_sql(&a, d),
                    b = colref_sql(&b, d),
                    n = b.alias + 1,
                    size = d.ident("size"),
                ));
                continue;
            }
        }
        clauses.push(format!(
            "{} {} {}",
            sql_scalar(&p.lhs, d),
            p.op.sql(),
            sql_scalar(&p.rhs, d)
        ));
    }
    if !clauses.is_empty() {
        out.push_str("\nWHERE  ");
        out.push_str(&clauses.join("\nAND    "));
    }
    // ORDER BY.
    if !cq.order_by.is_empty() {
        out.push_str("\nORDER BY ");
        let ord: Vec<String> = cq.order_by.iter().map(|c| colref_sql(c, d)).collect();
        out.push_str(&ord.join(", "));
    }
    if let Some(n) = opts.limit {
        out.push_str(&d.limit_clause(n));
    }
    out
}

/// `(a, b, true)` for the lower half `b.pre < a.pre` of a containment
/// pair, `(a, b, false)` for its upper half `a.pre <= b.pre + b.size`.
fn containment_half(p: &CqAtom) -> Option<(ColRef, ColRef, bool)> {
    let pre = |c: &ColRef| c.col == DocCol::Pre;
    match (&p.lhs, p.op, &p.rhs) {
        (CqScalar::Col(b), CmpOp::Lt, CqScalar::Col(a)) if pre(a) && pre(b) => Some((*a, *b, true)),
        (CqScalar::Col(a), CmpOp::Le, CqScalar::ColPlusCol(b, s))
            if pre(a) && pre(b) && s.alias == b.alias && s.col == DocCol::Size =>
        {
            Some((*a, *b, false))
        }
        _ => None,
    }
}

/// Emit the *stacked* plan as a `WITH …` CTE chain — the translation of the
/// unrewritten compiler output that paper §4 benchmarks as the "stacked"
/// configuration. Every DAG node becomes one CTE; δ becomes `DISTINCT`, ϱ
/// becomes `RANK() OVER (ORDER BY …)`, # becomes `ROW_NUMBER() OVER ()`.
///
/// The stacked rendering is informational: it exists so the tall operator
/// stack the paper blames for optimizer blindness can be *seen* as SQL
/// (`jgi-bench`'s `figures` binary prints it, the `SQL` wire command
/// serves it). It is not divergence-checked against a live backend — that
/// oracle runs on the join-graph block, which subsumes it (DESIGN.md §12).
pub fn stacked_sql(plan: &Plan, root: NodeId) -> String {
    let topo = plan.topo_order(root);
    let mut out = String::new();
    out.push_str("WITH\n");
    let cte = |id: NodeId| format!("t{}", id.0);
    let cols_of = |id: NodeId| -> Vec<Col> {
        let mut v: Vec<Col> = plan.schema(id).iter().collect();
        v.sort();
        v
    };
    let name = |c: Col| plan.col_name(c).replace('\'', "_").replace('°', "o").replace('@', "_");
    let mut parts: Vec<String> = Vec::new();
    for &id in &topo {
        let node = plan.node(id);
        let mut q = String::new();
        match &node.op {
            Op::Doc => {
                q.push_str("SELECT pre, size, level, kind, name, value, data, parent FROM doc");
            }
            Op::Lit { cols, rows } => {
                if rows.is_empty() {
                    let sel: Vec<String> =
                        cols.iter().map(|&c| format!("NULL AS {}", name(c))).collect();
                    let _ = write!(q, "SELECT {} WHERE 1 = 0", sel.join(", "));
                } else {
                    let mut unions = Vec::new();
                    for row in rows {
                        let sel: Vec<String> = cols
                            .iter()
                            .zip(row)
                            .map(|(&c, v)| format!("{} AS {}", sql_value(v), name(c)))
                            .collect();
                        unions.push(format!("SELECT {}", sel.join(", ")));
                    }
                    q.push_str(&unions.join(" UNION ALL "));
                }
            }
            Op::Project(m) => {
                let sel: Vec<String> = m
                    .iter()
                    .map(|(o, s)| {
                        if o == s {
                            name(*o)
                        } else {
                            format!("{} AS {}", name(*s), name(*o))
                        }
                    })
                    .collect();
                let _ = write!(q, "SELECT {} FROM {}", sel.join(", "), cte(node.inputs[0]));
            }
            Op::Select(p) => {
                let preds: Vec<String> =
                    p.iter().map(|a| atom_sql(plan, a, None, None)).collect();
                let _ = write!(
                    q,
                    "SELECT * FROM {} WHERE {}",
                    cte(node.inputs[0]),
                    preds.join(" AND ")
                );
            }
            Op::Join(p) => {
                let preds: Vec<String> = p
                    .iter()
                    .map(|a| atom_sql(plan, a, Some(node.inputs[0]), Some(node.inputs[1])))
                    .collect();
                let _ = write!(
                    q,
                    "SELECT * FROM {} AS l, {} AS r WHERE {}",
                    cte(node.inputs[0]),
                    cte(node.inputs[1]),
                    preds.join(" AND ")
                );
            }
            Op::Cross => {
                let _ = write!(
                    q,
                    "SELECT * FROM {} AS l, {} AS r",
                    cte(node.inputs[0]),
                    cte(node.inputs[1])
                );
            }
            Op::Distinct => {
                let _ = write!(q, "SELECT DISTINCT * FROM {}", cte(node.inputs[0]));
            }
            Op::Attach(c, v) => {
                let _ = write!(
                    q,
                    "SELECT *, {} AS {} FROM {}",
                    sql_value(v),
                    name(*c),
                    cte(node.inputs[0])
                );
            }
            Op::RowId(c) => {
                let _ = write!(
                    q,
                    "SELECT *, ROW_NUMBER() OVER () AS {} FROM {}",
                    name(*c),
                    cte(node.inputs[0])
                );
            }
            Op::Rank { out: o, by } => {
                let ord: Vec<String> = by.iter().map(|&b| name(b)).collect();
                let _ = write!(
                    q,
                    "SELECT *, RANK() OVER (ORDER BY {}) AS {} FROM {}",
                    ord.join(", "),
                    name(*o),
                    cte(node.inputs[0])
                );
            }
            Op::Union => {
                let cols: Vec<String> = cols_of(id).iter().map(|&c| name(c)).collect();
                let _ = write!(
                    q,
                    "SELECT {c} FROM {} UNION ALL SELECT {c} FROM {}",
                    cte(node.inputs[0]),
                    cte(node.inputs[1]),
                    c = cols.join(", ")
                );
            }
            Op::Serialize { item, pos } => {
                // Final SELECT, not a CTE.
                let _ = write!(
                    out,
                    "{}\nSELECT {} AS item FROM {} ORDER BY {}, {}",
                    parts.join(",\n"),
                    name(*item),
                    cte(node.inputs[0]),
                    name(*pos),
                    name(*item)
                );
                return out;
            }
        }
        parts.push(format!("{} AS ({q})", cte(id)));
    }
    // No serialize root: just select everything from the last CTE.
    let last = *topo.last().expect("non-empty plan");
    let _ = write!(out, "{}\nSELECT * FROM {}", parts.join(",\n"), cte(last));
    out
}

/// Render one stacked-plan predicate atom (`lhs op rhs`), qualifying
/// columns with the `l`/`r` join sides when the atom sits on a join.
fn atom_sql(plan: &Plan, a: &Atom, left: Option<NodeId>, right: Option<NodeId>) -> String {
    format!(
        "{} {} {}",
        scalar_rec(plan, &a.lhs, left, right),
        a.op.sql(),
        scalar_rec(plan, &a.rhs, left, right)
    )
}

/// Render a stacked-plan scalar, resolving plan column names and deciding
/// the `l.`/`r.` qualifier by which join input's schema holds the column.
fn scalar_rec(plan: &Plan, s: &Scalar, left: Option<NodeId>, right: Option<NodeId>) -> String {
    match s {
        Scalar::Col(c) => {
            let base =
                plan.col_name(*c).replace('\'', "_").replace('°', "o").replace('@', "_");
            match (left, right) {
                (Some(l), Some(_)) => {
                    if plan.schema(l).contains(*c) {
                        format!("l.{base}")
                    } else {
                        format!("r.{base}")
                    }
                }
                _ => base,
            }
        }
        Scalar::Const(v) => sql_value(v),
        Scalar::Add(x, y) => {
            format!("{} + {}", scalar_rec(plan, x, left, right), scalar_rec(plan, y, left, right))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_compiler::compile;
    use jgi_rewrite::{extract_cq, isolate};
    use jgi_xquery::compile_to_core;

    fn q1_cq() -> ConjunctiveQuery {
        let core =
            compile_to_core(r#"doc("auction.xml")/descendant::open_auction[bidder]"#).unwrap();
        let c = compile(&core).unwrap();
        let mut plan = c.plan;
        let (root, _) = isolate(&mut plan, c.root);
        extract_cq(&plan, root).unwrap()
    }

    /// The emitted SQL for Q1 must carry the Fig. 8 ingredients.
    #[test]
    fn q1_sql_matches_fig8_shape() {
        let sql = join_graph_sql(&q1_cq());
        assert!(sql.starts_with("SELECT DISTINCT"), "{sql}");
        assert!(sql.contains("FROM   doc AS d1, doc AS d2, doc AS d3"), "{sql}");
        assert!(sql.contains("= 'DOC'"), "{sql}");
        assert!(sql.contains("= 'auction.xml'"), "{sql}");
        assert!(sql.contains("= 'open_auction'"), "{sql}");
        assert!(sql.contains("= 'bidder'"), "{sql}");
        assert!(sql.contains("BETWEEN"), "{sql}");
        assert!(sql.contains("ORDER BY"), "{sql}");
        // The child step's level predicate.
        assert!(sql.contains(".level + 1 ="), "{sql}");
    }

    /// The default emission is the SQLite rendering: bare identifiers,
    /// no limit clause.
    #[test]
    fn default_emission_is_sqlite() {
        let cq = q1_cq();
        assert_eq!(
            join_graph_sql(&cq),
            emit_join_graph(&cq, &EmitOptions::for_dialect(Dialect::Sqlite))
        );
    }

    /// The ANSI rendering quotes exactly the reserved column names and
    /// nothing else; the SQLite rendering never quotes.
    #[test]
    fn ansi_quotes_reserved_columns() {
        let cq = q1_cq();
        let ansi = emit_join_graph(&cq, &EmitOptions::for_dialect(Dialect::Ansi));
        let sqlite = emit_join_graph(&cq, &EmitOptions::for_dialect(Dialect::Sqlite));
        assert!(ansi.contains("\"size\""), "{ansi}");
        assert!(ansi.contains("\"level\""), "{ansi}");
        assert!(!ansi.contains(".size"), "bare `size` must not survive: {ansi}");
        assert!(!sqlite.contains('"'), "{sqlite}");
        // Quoting aside, both renderings are the same text.
        assert_eq!(ansi.replace('"', ""), sqlite);
    }

    #[test]
    fn limit_clause_forks_per_dialect() {
        let cq = q1_cq();
        let s = emit_join_graph(
            &cq,
            &EmitOptions { dialect: Dialect::Sqlite, limit: Some(5) },
        );
        assert!(s.ends_with("\nLIMIT 5"), "{s}");
        let a = emit_join_graph(&cq, &EmitOptions { dialect: Dialect::Ansi, limit: Some(5) });
        assert!(a.ends_with("\nFETCH FIRST 5 ROWS ONLY"), "{a}");
    }

    #[test]
    fn stacked_sql_has_rank_and_distinct_clauses() {
        let core =
            compile_to_core(r#"doc("auction.xml")/descendant::open_auction[bidder]"#).unwrap();
        let c = compile(&core).unwrap();
        let sql = stacked_sql(&c.plan, c.root);
        assert!(sql.starts_with("WITH"), "{sql}");
        assert!(sql.contains("RANK() OVER"), "{sql}");
        assert!(sql.contains("SELECT DISTINCT"), "{sql}");
        assert!(sql.contains("ROW_NUMBER() OVER ()"), "{sql}");
        assert!(sql.trim_end().ends_with("ORDER BY pos, item") || sql.contains("ORDER BY"), "{sql}");
        // Many CTE stages — the tall stacked shape.
        assert!(sql.matches(" AS (").count() >= 20, "{sql}");
    }
}
