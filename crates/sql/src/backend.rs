//! Pluggable SQL backends — actually *let SQL drive*.
//!
//! The paper ships the isolated join graph to DB2 and lets its optimizer do
//! the heavy lifting. This module is that hand-off as an interface: a
//! [`Backend`] owns a `doc` table (the paper's
//! `doc(pre,size,level,kind,name,value,data,parent)` encoding, see Fig. 2),
//! accepts the emitted SQL block, and returns typed rows. Two
//! implementations ship:
//!
//! * [`crate::sqlite::SqliteBackend`] — a live in-process database driven
//!   through the `sqlite3` CLI (std-only, no FFI), used by the
//!   `backend-oracle` divergence check;
//! * [`crate::fixture::FixtureBackend`] — no database at all: it diffs
//!   emitted SQL against committed per-dialect golden fixtures, so CI
//!   exercises the emitter without requiring `sqlite3`.
//!
//! [`recover_items`] performs the *pre-rank recovery*: it reproduces the
//! engine's SORT tail (full-row `DISTINCT`, `ORDER BY` keys with the whole
//! row as tiebreak, then projection of the `item` column) over the
//! backend's row set, so a backend result and a `jgi-engine` result are
//! comparable as plain `Vec<u32>` node sequences. Zero divergence between
//! the two is the strongest correctness oracle the system has — it
//! certifies compiler, rewriter, optimizer, and executor against an
//! independent SQL implementation in one shot (DESIGN.md §12).

use crate::dialect::Dialect;
use jgi_algebra::ConjunctiveQuery;
use jgi_xml::encode::NO_PARENT;
use jgi_xml::DocStore;
use std::fmt;

/// One typed SQL value coming back from a backend.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// SQL `NULL`.
    Null,
    /// An integer.
    Int(i64),
    /// A floating-point value.
    Real(f64),
    /// A text value.
    Text(String),
}

impl SqlValue {
    /// Integer view, if this value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SqlValue::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for SqlValue {
    /// Render as a SQL literal (`NULL`, bare numbers, `'…'` text with
    /// doubled quotes) — the same surface `sqlite3 .mode quote` prints,
    /// which keeps round-trip debugging output copy-pasteable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => f.write_str("NULL"),
            SqlValue::Int(i) => write!(f, "{i}"),
            SqlValue::Real(r) => write!(f, "{r:?}"),
            SqlValue::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// A backend result set: column names plus typed rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rows {
    /// Column names, in `SELECT`-list order.
    pub columns: Vec<String>,
    /// Row values, one `Vec` per row, in `columns` order.
    pub rows: Vec<Vec<SqlValue>>,
}

/// Why a backend interaction failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The backend is not usable in this environment (e.g. no `sqlite3`
    /// binary on `PATH`). Callers typically *skip with notice* rather than
    /// fail — CI does exactly that.
    Unavailable(String),
    /// Process/file-level I/O failure talking to the backend.
    Io(String),
    /// The backend rejected the SQL statement.
    Sql(String),
    /// The backend's reply could not be parsed into typed rows.
    Parse(String),
    /// The operation is not supported by this backend (e.g. `execute` on
    /// the fixture backend, which has no database behind it).
    Unsupported(String),
    /// A fixture comparison failed: the emitted SQL differs from the
    /// committed golden file (the diff is line-oriented, `-expected`
    /// / `+actual`).
    Fixture {
        /// Fixture name (e.g. `Q2`).
        name: String,
        /// Human-readable line diff.
        diff: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unavailable(m) => write!(f, "backend unavailable: {m}"),
            BackendError::Io(m) => write!(f, "backend I/O error: {m}"),
            BackendError::Sql(m) => write!(f, "backend rejected SQL: {m}"),
            BackendError::Parse(m) => write!(f, "unparseable backend reply: {m}"),
            BackendError::Unsupported(m) => write!(f, "unsupported backend operation: {m}"),
            BackendError::Fixture { name, diff } => {
                write!(f, "fixture mismatch for {name}:\n{diff}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// A SQL backend: something that can hold the `doc` encoding and execute
/// emitted join-graph blocks against it.
///
/// Implementations decide *how* — in-process database, subprocess, or no
/// database at all (the fixture backend answers `execute` with
/// [`BackendError::Unsupported`] and checks SQL text instead). The oracle
/// and bench harnesses program against this trait only.
pub trait Backend {
    /// Short backend name (`sqlite`, `fixture:ansi`, …) for reports and
    /// `BENCH_sql.json`.
    fn name(&self) -> String;

    /// The dialect this backend expects its SQL in. Emit with
    /// [`crate::emit_join_graph`] at this dialect before calling
    /// [`Backend::execute`].
    fn dialect(&self) -> Dialect;

    /// (Re)create the `doc` table and load `rows` into it, replacing any
    /// previous contents. Row order must be `pre` order (callers get that
    /// for free from [`doc_rows`]).
    fn load_doc(&mut self, rows: &[DocRow]) -> Result<(), BackendError>;

    /// Execute one SQL statement and return its typed result rows.
    fn execute(&mut self, sql: &str) -> Result<Rows, BackendError>;
}

/// One row of the relational `doc` table, ready for export: resolved
/// strings instead of interner ids, SQL `NULL`s instead of sentinel values.
#[derive(Debug, Clone, PartialEq)]
pub struct DocRow {
    /// Document-order rank (table key).
    pub pre: u32,
    /// Subtree size.
    pub size: u32,
    /// Depth below the owning document root.
    pub level: u16,
    /// Node kind tag (`DOC`, `ELEM`, `ATTR`, `TEXT`, `COMM`, `PI`).
    pub kind: &'static str,
    /// Tag/attribute name; the document URI for `DOC` rows; `NULL` for
    /// text and comment nodes.
    pub name: Option<String>,
    /// Untyped string value — only nodes with `size <= 1` carry one.
    pub value: Option<String>,
    /// The value cast to `xs:decimal`, when the cast succeeds.
    pub data: Option<f64>,
    /// Parent's `pre` rank; `NULL` for document roots.
    pub parent: Option<u32>,
}

/// Export a [`DocStore`] as `doc` rows — the corpus-export path the
/// backends load. Row `i` of the result is `pre` rank `i`; multiple loaded
/// documents appear exactly as they do in the engine's store (their `DOC`
/// rows delimit them), so global `pre` ranks agree between the engine and
/// the backend by construction.
pub fn doc_rows(store: &DocStore) -> Vec<DocRow> {
    (0..store.len() as u32)
        .map(|pre| {
            let p = pre as usize;
            DocRow {
                pre,
                size: store.size[p],
                level: store.level[p],
                kind: store.kind[p].tag(),
                name: store.name_str(pre).map(str::to_string),
                value: store.value_str(pre).map(str::to_string),
                data: store.data_val(pre),
                parent: (store.parent[p] != NO_PARENT).then(|| store.parent[p]),
            }
        })
        .collect()
}

/// The `CREATE TABLE doc (…)` statement for a dialect, using its type
/// names and quoting rules. `pre` is the primary key, mirroring the
/// encoding invariant that `pre` is the row index.
pub fn create_table_sql(d: Dialect) -> String {
    format!(
        "CREATE TABLE doc (\n  pre {int} NOT NULL PRIMARY KEY,\n  {size} {int} NOT NULL,\n  \
         {level} {int} NOT NULL,\n  kind {text} NOT NULL,\n  name {text},\n  {value} {text},\n  \
         data {real},\n  parent {int}\n)",
        int = d.int_type(),
        real = d.real_type(),
        text = d.text_type(),
        size = d.ident("size"),
        level = d.ident("level"),
        value = d.ident("value"),
    )
}

/// Secondary-index DDL for a dialect — the columns paper Table 6's advisor
/// keeps recommending (`name`, `value`, and the composite `(kind, name)`),
/// so the backend's optimizer has the same access paths the engine's DP
/// planner enumerates.
pub fn create_index_sql(d: Dialect) -> Vec<String> {
    vec![
        "CREATE INDEX doc_name ON doc (name)".to_string(),
        format!("CREATE INDEX doc_value ON doc ({})", d.ident("value")),
        "CREATE INDEX doc_kind_name ON doc (kind, name)".to_string(),
        "CREATE INDEX doc_data ON doc (data)".to_string(),
    ]
}

/// Render a SQL string literal with `''` escaping.
fn text_literal(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Render one [`DocRow`] as a `VALUES` tuple.
fn row_tuple(r: &DocRow) -> String {
    let opt_text = |o: &Option<String>| match o {
        Some(s) => text_literal(s),
        None => "NULL".to_string(),
    };
    let data = match r.data {
        Some(d) => format!("{d:?}"), // `{:?}` keeps a decimal point: `500.0`
        None => "NULL".to_string(),
    };
    let parent = match r.parent {
        Some(p) => p.to_string(),
        None => "NULL".to_string(),
    };
    format!(
        "({},{},{},{},{},{},{},{})",
        r.pre,
        r.size,
        r.level,
        text_literal(r.kind),
        opt_text(&r.name),
        opt_text(&r.value),
        data,
        parent
    )
}

/// Multi-row `INSERT` statements loading `rows`, chunked so no single
/// statement exceeds a portable `VALUES`-list length (SQLite's historic
/// 500-tuple compound limit is the binding constraint).
pub fn insert_sql(rows: &[DocRow], d: Dialect) -> Vec<String> {
    let cols = format!(
        "pre, {size}, {level}, kind, name, {value}, data, parent",
        size = d.ident("size"),
        level = d.ident("level"),
        value = d.ident("value"),
    );
    rows.chunks(400)
        .map(|chunk| {
            let tuples: Vec<String> = chunk.iter().map(row_tuple).collect();
            format!("INSERT INTO doc ({cols}) VALUES\n{}", tuples.join(",\n"))
        })
        .collect()
}

/// A full load script for `rows`: drop/create the table, insert inside one
/// transaction, then build the secondary indexes.
pub fn load_script(rows: &[DocRow], d: Dialect) -> String {
    let mut out = String::from("DROP TABLE IF EXISTS doc;\n");
    out.push_str(&create_table_sql(d));
    out.push_str(";\nBEGIN;\n");
    for stmt in insert_sql(rows, d) {
        out.push_str(&stmt);
        out.push_str(";\n");
    }
    out.push_str("COMMIT;\n");
    for stmt in create_index_sql(d) {
        out.push_str(&stmt);
        out.push_str(";\n");
    }
    out
}

/// Pre-rank recovery (paper §3.3): turn a backend's row set for an emitted
/// join-graph block back into the engine's node sequence.
///
/// Reproduces `jgi-engine::physical`'s SORT tail exactly:
///
/// 1. `DISTINCT` over whole rows (the backend already applied
///    `SELECT DISTINCT`; re-applying is idempotent and shields against
///    backends configured without it);
/// 2. sort by the `ORDER BY` key positions, tie-broken by the whole row —
///    the same total order that makes the engine's output independent of
///    the batch size and of its probe order;
/// 3. project the `item` output column as `pre` ranks.
///
/// All select columns of an extractable join graph hold node references
/// (`pre` ranks), so every value must come back as a non-negative integer;
/// anything else is a [`BackendError::Parse`].
pub fn recover_items(rows: &Rows, cq: &ConjunctiveQuery) -> Result<Vec<u32>, BackendError> {
    let width = cq.select.len();
    let mut mat: Vec<Vec<i64>> = Vec::with_capacity(rows.rows.len());
    for (i, row) in rows.rows.iter().enumerate() {
        if row.len() != width {
            return Err(BackendError::Parse(format!(
                "row {i} has {} columns, expected {width}",
                row.len()
            )));
        }
        let mut out = Vec::with_capacity(width);
        for (j, v) in row.iter().enumerate() {
            match v.as_int() {
                Some(n) if n >= 0 && n <= u32::MAX as i64 => out.push(n),
                _ => {
                    return Err(BackendError::Parse(format!(
                        "row {i} column {j} is not a node reference: {v:?}"
                    )))
                }
            }
        }
        mat.push(out);
    }
    if cq.distinct {
        mat.sort();
        mat.dedup();
    }
    // ORDER BY key positions within the select list; keys that do not
    // appear in the select are dropped, mirroring the executor.
    let order_idx: Vec<usize> = cq
        .order_by
        .iter()
        .filter_map(|cr| cq.select.iter().position(|o| o.col == *cr))
        .collect();
    mat.sort_by(|a, b| {
        for &i in &order_idx {
            match a[i].cmp(&b[i]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        a.cmp(b)
    });
    Ok(mat.into_iter().map(|r| r[cq.item_output] as u32).collect())
}

/// Compare an engine node sequence against a backend-recovered one,
/// returning a human-readable divergence description (`None` = identical).
pub fn divergence(engine: &[u32], backend: &[u32]) -> Option<String> {
    if engine == backend {
        return None;
    }
    if engine.len() != backend.len() {
        return Some(format!(
            "cardinality mismatch: engine {} rows, backend {} rows",
            engine.len(),
            backend.len()
        ));
    }
    let at = engine.iter().zip(backend).position(|(a, b)| a != b).unwrap_or(0);
    Some(format!(
        "row {at} differs: engine pre {} vs backend pre {}",
        engine[at], backend[at]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol, OutputCol};
    use jgi_algebra::pred::CmpOp;
    use jgi_algebra::Value;
    use jgi_xml::Tree;

    fn store() -> DocStore {
        let mut t = Tree::new("auction.xml");
        let oa = t.add_element(t.root(), "open_auction");
        t.add_attr(oa, "id", "1");
        t.add_text_element(oa, "initial", "15");
        let mut s = DocStore::new();
        s.add_tree(&t);
        s
    }

    #[test]
    fn doc_rows_resolve_sentinels_to_null() {
        let rows = doc_rows(&store());
        assert_eq!(rows.len(), 5);
        // DOC row: name is the URI, no value, no parent.
        assert_eq!(rows[0].kind, "DOC");
        assert_eq!(rows[0].name.as_deref(), Some("auction.xml"));
        assert_eq!(rows[0].parent, None);
        // open_auction: size > 1 ⇒ no value, data NULL.
        assert_eq!(rows[1].value, None);
        assert_eq!(rows[1].data, None);
        // The attribute has value and a successful decimal cast.
        assert_eq!(rows[2].value.as_deref(), Some("1"));
        assert_eq!(rows[2].data, Some(1.0));
        assert_eq!(rows[2].parent, Some(1));
    }

    #[test]
    fn ddl_uses_dialect_types_and_quoting() {
        let sqlite = create_table_sql(Dialect::Sqlite);
        assert!(sqlite.contains("value TEXT"), "{sqlite}");
        assert!(sqlite.contains("data REAL"), "{sqlite}");
        let ansi = create_table_sql(Dialect::Ansi);
        assert!(ansi.contains("\"value\" VARCHAR(32672)"), "{ansi}");
        assert!(ansi.contains("data DOUBLE PRECISION"), "{ansi}");
    }

    #[test]
    fn insert_chunks_and_escapes() {
        let mut rows = doc_rows(&store());
        rows[2].value = Some("o'hara".into());
        let stmts = insert_sql(&rows, Dialect::Sqlite);
        assert_eq!(stmts.len(), 1);
        assert!(stmts[0].contains("'o''hara'"), "{}", stmts[0]);
        assert!(stmts[0].contains("NULL"), "{}", stmts[0]);
        // Chunking: 401 copies force a second statement.
        let many: Vec<DocRow> = (0..401)
            .map(|i| DocRow { pre: i, ..rows[0].clone() })
            .collect();
        assert_eq!(insert_sql(&many, Dialect::Sqlite).len(), 2);
    }

    #[test]
    fn load_script_is_one_transaction_with_indexes() {
        let s = load_script(&doc_rows(&store()), Dialect::Sqlite);
        assert!(s.starts_with("DROP TABLE IF EXISTS doc;"), "{s}");
        assert!(s.contains("BEGIN;") && s.contains("COMMIT;"), "{s}");
        assert!(s.contains("CREATE INDEX doc_kind_name"), "{s}");
    }

    fn cq_two_cols() -> ConjunctiveQuery {
        // SELECT DISTINCT d1.pre, d2.pre AS item … ORDER BY d1.pre
        ConjunctiveQuery {
            aliases: 2,
            predicates: vec![CqAtom {
                lhs: CqScalar::Col(ColRef { alias: 0, col: DocCol::Kind }),
                op: CmpOp::Eq,
                rhs: CqScalar::Const(Value::Str("x".into())),
            }],
            select: vec![
                OutputCol { col: ColRef { alias: 0, col: DocCol::Pre }, name: None },
                OutputCol {
                    col: ColRef { alias: 1, col: DocCol::Pre },
                    name: Some("item".into()),
                },
            ],
            distinct: true,
            order_by: vec![ColRef { alias: 0, col: DocCol::Pre }],
            item_output: 1,
        }
    }

    #[test]
    fn recovery_reproduces_the_sort_tail() {
        let cq = cq_two_cols();
        // Backend returns rows unordered, with a duplicate.
        let rows = Rows {
            columns: vec!["pre".into(), "item".into()],
            rows: vec![
                vec![SqlValue::Int(7), SqlValue::Int(3)],
                vec![SqlValue::Int(2), SqlValue::Int(9)],
                vec![SqlValue::Int(7), SqlValue::Int(3)],
                vec![SqlValue::Int(2), SqlValue::Int(4)],
            ],
        };
        // Sorted by d1.pre then whole row: (2,4), (2,9), (7,3); item col.
        assert_eq!(recover_items(&rows, &cq).unwrap(), vec![4, 9, 3]);
    }

    #[test]
    fn recovery_rejects_non_node_values() {
        let cq = cq_two_cols();
        let bad = Rows {
            columns: vec![],
            rows: vec![vec![SqlValue::Int(1), SqlValue::Text("x".into())]],
        };
        assert!(matches!(recover_items(&bad, &cq), Err(BackendError::Parse(_))));
        let short = Rows { columns: vec![], rows: vec![vec![SqlValue::Int(1)]] };
        assert!(matches!(recover_items(&short, &cq), Err(BackendError::Parse(_))));
        let neg = Rows {
            columns: vec![],
            rows: vec![vec![SqlValue::Int(-1), SqlValue::Int(2)]],
        };
        assert!(matches!(recover_items(&neg, &cq), Err(BackendError::Parse(_))));
    }

    #[test]
    fn divergence_reporting() {
        assert_eq!(divergence(&[1, 2], &[1, 2]), None);
        assert!(divergence(&[1], &[1, 2]).unwrap().contains("cardinality"));
        assert!(divergence(&[1, 5], &[1, 6]).unwrap().contains("row 1"));
    }
}
