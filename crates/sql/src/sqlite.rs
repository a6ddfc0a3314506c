//! Live SQLite backend over the `sqlite3` command-line shell.
//!
//! Std-only by design: no FFI, no linked library — the backend drives the
//! ubiquitous `sqlite3` binary as a subprocess, one invocation per
//! statement batch, with the database persisted in a temporary file
//! between invocations. That is plenty for the divergence oracle (load
//! once, run eight queries) and keeps the workspace free of native
//! dependencies.
//!
//! ## Wire format
//!
//! Scripts are fed via a temp file redirected to stdin (no pipe-writer
//! thread, no deadlock risk) and prefixed with `.bail on` so the first
//! error aborts with a non-zero exit and a diagnostic on stderr. Queries
//! additionally set `.mode quote` + `.headers on`, which makes the shell
//! print rows as SQL literals:
//!
//! ```text
//! 'pre','item'
//! 15,NULL
//! 23,'o''hara'
//! 2.5,7
//! ```
//!
//! — integers bare, reals with a decimal point, text single-quoted with
//! `''` doubling (newlines embedded raw), `NULL` bare. [`parse_quote_mode`]
//! decodes that stream back into typed [`Rows`], scanning character-wise
//! so embedded newlines and commas in text values cannot confuse it.

use crate::backend::{doc_rows, load_script, Backend, BackendError, DocRow, Rows, SqlValue};
use crate::dialect::Dialect;
use jgi_xml::DocStore;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A SQLite database driven through the `sqlite3` CLI.
///
/// Creating one claims a fresh temp-file database; dropping it removes the
/// file. See the module docs for the subprocess protocol.
pub struct SqliteBackend {
    /// Database file (temp dir, process-unique name).
    db: PathBuf,
    /// Script scratch file fed to the shell's stdin.
    script: PathBuf,
}

impl SqliteBackend {
    /// Is a usable `sqlite3` binary on `PATH`? Callers that can degrade
    /// (CI, benches) check this first and *skip with notice* instead of
    /// failing.
    pub fn available() -> bool {
        Command::new("sqlite3")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    }

    /// Claim a fresh temporary database. Fails with
    /// [`BackendError::Unavailable`] when no `sqlite3` binary is on `PATH`.
    pub fn new() -> Result<SqliteBackend, BackendError> {
        if !Self::available() {
            return Err(BackendError::Unavailable(
                "no `sqlite3` binary on PATH".to_string(),
            ));
        }
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        // `create_new` is atomic, so probing indices needs no global
        // counter (and therefore no atomics — see DESIGN.md §10 on why
        // this crate stays off the sync facade entirely).
        for n in 0..10_000u32 {
            let db = dir.join(format!("jgi-sql-{pid}-{n}.db"));
            match fs::OpenOptions::new().write(true).create_new(true).open(&db) {
                Ok(_) => {
                    let script = dir.join(format!("jgi-sql-{pid}-{n}.sql"));
                    return Ok(SqliteBackend { db, script });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(BackendError::Io(e.to_string())),
            }
        }
        Err(BackendError::Io("could not claim a temp database file".to_string()))
    }

    /// Convenience: fresh backend pre-loaded with `store`'s `doc` rows.
    pub fn with_store(store: &DocStore) -> Result<SqliteBackend, BackendError> {
        let mut b = SqliteBackend::new()?;
        b.load_doc(&doc_rows(store))?;
        Ok(b)
    }

    /// Run `script` through the shell against this database and return raw
    /// stdout. Non-zero exit becomes [`BackendError::Sql`] carrying stderr.
    fn run_script(&self, script: &str) -> Result<String, BackendError> {
        let io_err = |e: std::io::Error| BackendError::Io(e.to_string());
        let mut f = fs::File::create(&self.script).map_err(io_err)?;
        f.write_all(script.as_bytes()).map_err(io_err)?;
        drop(f);
        let stdin = fs::File::open(&self.script).map_err(io_err)?;
        let out = Command::new("sqlite3")
            .arg(&self.db)
            .stdin(Stdio::from(stdin))
            .output()
            .map_err(io_err)?;
        if !out.status.success() {
            return Err(BackendError::Sql(
                String::from_utf8_lossy(&out.stderr).trim().to_string(),
            ));
        }
        String::from_utf8(out.stdout)
            .map_err(|e| BackendError::Parse(format!("non-UTF-8 backend output: {e}")))
    }
}

impl Backend for SqliteBackend {
    fn name(&self) -> String {
        "sqlite".to_string()
    }

    fn dialect(&self) -> Dialect {
        Dialect::Sqlite
    }

    fn load_doc(&mut self, rows: &[DocRow]) -> Result<(), BackendError> {
        let script = format!(".bail on\n{}", load_script(rows, self.dialect()));
        self.run_script(&script)?;
        Ok(())
    }

    fn execute(&mut self, sql: &str) -> Result<Rows, BackendError> {
        let script = format!(".bail on\n.mode quote\n.headers on\n{sql};\n");
        let stdout = self.run_script(&script)?;
        parse_quote_mode(&stdout)
    }
}

impl Drop for SqliteBackend {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.db);
        let _ = fs::remove_file(&self.script);
    }
}

/// Decode `sqlite3 .mode quote` + `.headers on` output into typed rows.
///
/// The first record is the header (quoted column names); every subsequent
/// record is one row of SQL literals. Parsing is a character scan with a
/// quote-state flag, so text values containing `,` or newlines survive.
pub fn parse_quote_mode(out: &str) -> Result<Rows, BackendError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quote = false;
    let mut any = false; // saw any char in the current record
    let mut chars = out.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' if !in_quote => {
                in_quote = true;
                any = true;
                field.push(c);
            }
            '\'' if in_quote => {
                field.push(c);
                if chars.peek() == Some(&'\'') {
                    field.push(chars.next().unwrap()); // escaped ''
                } else {
                    in_quote = false;
                }
            }
            ',' if !in_quote => {
                record.push(std::mem::take(&mut field));
                any = true;
            }
            '\n' if !in_quote => {
                if any || !field.is_empty() {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                any = false;
            }
            '\r' if !in_quote => {} // tolerate CRLF output
            _ => {
                field.push(c);
                any = true;
            }
        }
    }
    if in_quote {
        return Err(BackendError::Parse("unterminated quoted value".to_string()));
    }
    if any || !field.is_empty() {
        record.push(field);
        records.push(record);
    }
    if records.is_empty() {
        return Ok(Rows::default());
    }
    let header = records.remove(0);
    let columns: Vec<String> = header.iter().map(|h| unquote(h)).collect();
    let mut rows = Vec::with_capacity(records.len());
    for rec in records {
        if rec.len() != columns.len() {
            return Err(BackendError::Parse(format!(
                "row has {} fields, header has {}",
                rec.len(),
                columns.len()
            )));
        }
        rows.push(rec.iter().map(|f| parse_value(f)).collect::<Result<_, _>>()?);
    }
    Ok(Rows { columns, rows })
}

/// Strip one level of SQL quoting from a header field, if present.
fn unquote(s: &str) -> String {
    let t = s.trim();
    if t.len() >= 2 && t.starts_with('\'') && t.ends_with('\'') {
        t[1..t.len() - 1].replace("''", "'")
    } else {
        t.to_string()
    }
}

/// Decode one `.mode quote` field into a typed value.
fn parse_value(f: &str) -> Result<SqlValue, BackendError> {
    let t = f.trim();
    if t.eq_ignore_ascii_case("NULL") {
        return Ok(SqlValue::Null);
    }
    if t.starts_with('\'') {
        if t.len() >= 2 && t.ends_with('\'') {
            return Ok(SqlValue::Text(t[1..t.len() - 1].replace("''", "'")));
        }
        return Err(BackendError::Parse(format!("malformed text literal: {t}")));
    }
    if let Ok(i) = t.parse::<i64>() {
        return Ok(SqlValue::Int(i));
    }
    if let Ok(r) = t.parse::<f64>() {
        return Ok(SqlValue::Real(r));
    }
    // SQLite prints blobs as X'…' — nothing in the doc encoding produces
    // one, so any appearance is a protocol error worth surfacing.
    Err(BackendError::Parse(format!("unrecognized field: {t}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_mode_parsing_types_and_escapes() {
        let out = "'pre','name','data'\n15,NULL,2.5\n23,'o''hara',7\n";
        let rows = parse_quote_mode(out).unwrap();
        assert_eq!(rows.columns, vec!["pre", "name", "data"]);
        assert_eq!(
            rows.rows[0],
            vec![SqlValue::Int(15), SqlValue::Null, SqlValue::Real(2.5)]
        );
        assert_eq!(
            rows.rows[1],
            vec![
                SqlValue::Int(23),
                SqlValue::Text("o'hara".to_string()),
                SqlValue::Int(7)
            ]
        );
    }

    #[test]
    fn quote_mode_survives_embedded_separators() {
        let out = "'v'\n'a,b\nc'\n";
        let rows = parse_quote_mode(out).unwrap();
        assert_eq!(rows.rows, vec![vec![SqlValue::Text("a,b\nc".to_string())]]);
    }

    #[test]
    fn empty_result_sets() {
        // No output at all (statement with no rows, headers suppressed).
        assert_eq!(parse_quote_mode("").unwrap(), Rows::default());
        // Header only: zero rows.
        let rows = parse_quote_mode("'pre'\n").unwrap();
        assert_eq!(rows.columns, vec!["pre"]);
        assert!(rows.rows.is_empty());
    }

    #[test]
    fn malformed_output_is_rejected() {
        assert!(matches!(
            parse_quote_mode("'unterminated\n"),
            Err(BackendError::Parse(_))
        ));
        assert!(matches!(
            parse_quote_mode("'a','b'\n1\n"),
            Err(BackendError::Parse(_))
        ));
    }

    // Live subprocess round-trip; self-skips where sqlite3 is missing so
    // the suite stays hermetic.
    #[test]
    fn live_roundtrip_if_available() {
        if !SqliteBackend::available() {
            eprintln!("skipping live_roundtrip_if_available: no sqlite3 on PATH");
            return;
        }
        let mut t = jgi_xml::Tree::new("mini.xml");
        let e = t.add_element(t.root(), "person");
        t.add_text_element(e, "name", "O'Hara");
        let mut store = DocStore::new();
        store.add_tree(&t);
        let mut b = SqliteBackend::with_store(&store).unwrap();
        let rows = b
            .execute("SELECT pre, name, value FROM doc ORDER BY pre")
            .unwrap();
        assert_eq!(rows.columns, vec!["pre", "name", "value"]);
        assert_eq!(rows.rows.len(), store.len());
        // The text node carries the apostrophe value intact.
        assert!(rows
            .rows
            .iter()
            .any(|r| r[2] == SqlValue::Text("O'Hara".to_string())));
        // Errors surface as BackendError::Sql with the shell diagnostic.
        let err = b.execute("SELECT nope FROM doc").unwrap_err();
        assert!(matches!(err, BackendError::Sql(m) if m.contains("nope")));
    }
}
