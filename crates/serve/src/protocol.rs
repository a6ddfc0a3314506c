//! The `jgi-served` line protocol: one command per line in, one JSON
//! object per line out.
//!
//! ```text
//! LOAD XMARK <scale> <seed>          load a synthetic XMark instance
//! LOAD DBLP <pubs> <seed>            load a synthetic DBLP instance
//! LOAD DOC <uri> <xml…>              load a document from inline XML
//! PREPARE [ctx=<doc>] <query…>       compile (or cache-hit) a query
//! EXEC [engine=<e>] [timeout_ms=<n>] [ctx=<doc>] <query…>
//!                                    execute on a back-end (default joingraph)
//! EXPLAIN [ctx=<doc>] <query…>       render the join-graph physical plan
//! SQL [ctx=<doc>] [dialect=<d>] <query…>
//!                                    emit the isolated join graph as SQL
//!                                    (dialect ansi|sqlite, default sqlite)
//! INSERT parent=<pre> pos=<k> <xml…> insert a subtree as child k of the
//!                                    node at global pre rank <pre>
//! DELETE pre=<n>                     delete the subtree rooted at <n>
//! REPLACE pre=<n> <xml…>             replace the subtree rooted at <n>
//! STATS                              service statistics (one JSON object)
//! METRICS                            Prometheus text exposition (multi-line,
//!                                    terminated by a `# EOF` comment line)
//! TRACE [n]                          flight-recorder dump: header JSON line,
//!                                    then up to n records (default 16), one
//!                                    JSON object per line, slowest first
//! QUIT                               close the connection
//! ```
//!
//! `engine=` accepts `joingraph`, `stacked`, `navwhole`, `navsegmented`.
//! `SQL` surfaces the block a foreign RDBMS would execute (see SQL.md for
//! the dialect spec and the `doc` table the block runs against) — paired
//! with `Session::export_sql` it is everything an external backend needs.
//! JSON replies always carry `"ok"`; failures add `"error"` (message) and
//! `"code"` (stable short code, see [`ServeError::code`]). `METRICS` is
//! the one non-JSON reply: raw exposition text whose final line is the
//! comment `# EOF` (a legal 0.0.4 comment), so line-oriented clients know
//! where the block ends.
//!
//! The three mutation commands address nodes by **global** `pre` rank
//! (what `EXEC` returns) and apply atomically: a rejected mutation
//! changes nothing and replies with a stable code (`mutate_target`,
//! `mutate_fragment`, `mutate_doc`). The full wire contract, including
//! reply shapes and error codes, is PROTOCOL.md at the repository root.

use crate::error::ServeError;
use crate::server::Server;
use jgi_core::Engine;
use jgi_mutate::Op;
use jgi_obs::Json;
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use std::time::{Duration, Instant};

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `LOAD XMARK <scale> <seed>`
    LoadXmark { scale: f64, seed: u64 },
    /// `LOAD DBLP <pubs> <seed>`
    LoadDblp { publications: usize, seed: u64 },
    /// `LOAD DOC <uri> <xml…>`
    LoadDoc { uri: String, xml: String },
    /// `PREPARE [ctx=<doc>] <query…>`
    Prepare { context_doc: Option<String>, query: String },
    /// `EXEC [engine=<e>] [timeout_ms=<n>] [ctx=<doc>] <query…>`
    Exec { engine: Engine, timeout_ms: Option<u64>, context_doc: Option<String>, query: String },
    /// `EXPLAIN [ctx=<doc>] <query…>`
    Explain { context_doc: Option<String>, query: String },
    /// `SQL [ctx=<doc>] [dialect=<d>] <query…>`
    Sql { context_doc: Option<String>, dialect: jgi_sql::Dialect, query: String },
    /// `INSERT parent=<pre> pos=<k> <xml…>`
    Insert {
        /// Global `pre` rank of the parent node.
        parent: u32,
        /// Content-child position (clamped to the child count).
        pos: u32,
        /// Fragment XML (exactly one element).
        xml: String,
    },
    /// `DELETE pre=<n>`
    Delete {
        /// Global `pre` rank of the subtree root to delete.
        pre: u32,
    },
    /// `REPLACE pre=<n> <xml…>`
    Replace {
        /// Global `pre` rank of the subtree root to replace.
        pre: u32,
        /// Fragment XML (exactly one element).
        xml: String,
    },
    /// `STATS`
    Stats,
    /// `METRICS`
    Metrics,
    /// `TRACE [n]`
    Trace { n: usize },
    /// `QUIT`
    Quit,
}

/// One protocol reply: a single JSON object (the normal case) or a raw
/// pre-rendered block (`METRICS` exposition text, `TRACE` JSON lines).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// One JSON object; the transport renders it as one line.
    Json(Json),
    /// Raw text written verbatim (already newline-terminated).
    Raw(String),
}

impl Reply {
    /// Render to the exact bytes the transport writes (newline included).
    pub fn render(&self) -> String {
        match self {
            Reply::Json(j) => format!("{}\n", j.render()),
            Reply::Raw(s) => s.clone(),
        }
    }
}

fn protocol_err(m: impl Into<String>) -> ServeError {
    ServeError::Protocol(m.into())
}

/// Largest `LOAD XMARK` scale (≈ 1.83 M nodes).
pub const MAX_XMARK_SCALE: f64 = 1.0;

/// Largest `LOAD DBLP` publication count (≈ 1.8 M nodes).
pub const MAX_DBLP_PUBS: usize = 100_000;

/// Hold a synthetic load to the fixed size bounds of PROTOCOL.md
/// *Limits*: an XMark scale must be finite and in `(0, 1]`, a DBLP
/// publication count at most [`MAX_DBLP_PUBS`]. The generators allocate in
/// proportion to the size, so an unchecked size on one wire line could
/// exhaust the process. Shared by `LOAD` and `jgi-served --preload`.
pub fn check_load(cmd: &Command) -> Result<(), ServeError> {
    match *cmd {
        // Written so that NaN fails the test too.
        Command::LoadXmark { scale, .. } if !(scale > 0.0 && scale <= MAX_XMARK_SCALE) => {
            Err(protocol_err(format!(
                "LOAD XMARK scale must be in (0, {MAX_XMARK_SCALE}], got {scale}"
            )))
        }
        Command::LoadDblp { publications, .. } if publications > MAX_DBLP_PUBS => {
            Err(protocol_err(format!(
                "LOAD DBLP pubs must be at most {MAX_DBLP_PUBS}, got {publications}"
            )))
        }
        _ => Ok(()),
    }
}

/// Leading `key=value` options split off a query tail.
struct Options {
    engine: Option<Engine>,
    timeout_ms: Option<u64>,
    ctx: Option<String>,
    dialect: Option<jgi_sql::Dialect>,
    query: String,
}

fn parse_options(rest: &str) -> Result<Options, ServeError> {
    let mut engine = None;
    let mut timeout_ms = None;
    let mut ctx = None;
    let mut dialect = None;
    let mut tail = rest.trim_start();
    loop {
        let (head, after) = match tail.split_once(char::is_whitespace) {
            Some((h, a)) => (h, a.trim_start()),
            None => (tail, ""),
        };
        // A leading `key=value` token with a known key is an option; the
        // first token that isn't one starts the query text.
        let Some((k, v)) = head.split_once('=') else { break };
        match k {
            "engine" => {
                engine = Some(v.parse::<Engine>().map_err(protocol_err)?);
            }
            "timeout_ms" => {
                timeout_ms =
                    Some(v.parse::<u64>().map_err(|_| protocol_err("bad timeout_ms"))?);
            }
            "ctx" => ctx = Some(v.to_string()),
            "dialect" => {
                dialect = Some(v.parse::<jgi_sql::Dialect>().map_err(protocol_err)?);
            }
            _ => break,
        }
        tail = after;
        if tail.is_empty() {
            break;
        }
    }
    if tail.is_empty() {
        return Err(protocol_err("missing query text"));
    }
    Ok(Options { engine, timeout_ms, ctx, dialect, query: tail.to_string() })
}

/// Parse one protocol line. Blank lines and `#` comments yield `None`.
pub fn parse_command(line: &str) -> Result<Option<Command>, ServeError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim_start()),
        None => (line, ""),
    };
    let cmd = match verb.to_ascii_uppercase().as_str() {
        "LOAD" => {
            let (kind, args) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| protocol_err("LOAD needs a source (XMARK|DBLP|DOC)"))?;
            let load = match kind.to_ascii_uppercase().as_str() {
                "XMARK" => {
                    let mut it = args.split_whitespace();
                    let scale = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| protocol_err("LOAD XMARK <scale> <seed>"))?;
                    let seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| protocol_err("LOAD XMARK <scale> <seed>"))?;
                    Command::LoadXmark { scale, seed }
                }
                "DBLP" => {
                    let mut it = args.split_whitespace();
                    let publications = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| protocol_err("LOAD DBLP <pubs> <seed>"))?;
                    let seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| protocol_err("LOAD DBLP <pubs> <seed>"))?;
                    Command::LoadDblp { publications, seed }
                }
                "DOC" => {
                    let (uri, xml) = args
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| protocol_err("LOAD DOC <uri> <xml…>"))?;
                    Command::LoadDoc { uri: uri.to_string(), xml: xml.trim().to_string() }
                }
                other => return Err(protocol_err(format!("unknown LOAD source `{other}`"))),
            };
            check_load(&load)?;
            load
        }
        "PREPARE" => {
            let o = parse_options(rest)?;
            if o.engine.is_some() || o.timeout_ms.is_some() || o.dialect.is_some() {
                return Err(protocol_err("PREPARE takes only ctx="));
            }
            Command::Prepare { context_doc: o.ctx, query: o.query }
        }
        "EXEC" => {
            let o = parse_options(rest)?;
            if o.dialect.is_some() {
                return Err(protocol_err("EXEC does not take dialect= (use SQL)"));
            }
            Command::Exec {
                engine: o.engine.unwrap_or(Engine::JoinGraph),
                timeout_ms: o.timeout_ms,
                context_doc: o.ctx,
                query: o.query,
            }
        }
        "EXPLAIN" => {
            let o = parse_options(rest)?;
            if o.engine.is_some() || o.timeout_ms.is_some() || o.dialect.is_some() {
                return Err(protocol_err("EXPLAIN takes only ctx="));
            }
            Command::Explain { context_doc: o.ctx, query: o.query }
        }
        "SQL" => {
            let o = parse_options(rest)?;
            if o.engine.is_some() || o.timeout_ms.is_some() {
                return Err(protocol_err("SQL takes only ctx= and dialect="));
            }
            Command::Sql {
                context_doc: o.ctx,
                dialect: o.dialect.unwrap_or_default(),
                query: o.query,
            }
        }
        "INSERT" => {
            // INSERT parent=<pre> pos=<k> <xml…>
            let (parent, rest) = parse_u32_kv(rest, "parent", "INSERT parent=<pre> pos=<k> <xml…>")?;
            let (pos, xml) = parse_u32_kv(rest, "pos", "INSERT parent=<pre> pos=<k> <xml…>")?;
            if xml.is_empty() {
                return Err(protocol_err("INSERT needs a fragment"));
            }
            Command::Insert { parent, pos, xml: xml.to_string() }
        }
        "DELETE" => {
            let (pre, tail) = parse_u32_kv(rest, "pre", "DELETE pre=<n>")?;
            if !tail.is_empty() {
                return Err(protocol_err("DELETE takes only pre=<n>"));
            }
            Command::Delete { pre }
        }
        "REPLACE" => {
            let (pre, xml) = parse_u32_kv(rest, "pre", "REPLACE pre=<n> <xml…>")?;
            if xml.is_empty() {
                return Err(protocol_err("REPLACE needs a fragment"));
            }
            Command::Replace { pre, xml: xml.to_string() }
        }
        "STATS" => Command::Stats,
        "METRICS" => Command::Metrics,
        "TRACE" => {
            let n = match rest.split_whitespace().next() {
                None => 16,
                Some(s) => s
                    .parse::<usize>()
                    .map_err(|_| protocol_err("TRACE [n]: n must be a non-negative integer"))?,
            };
            Command::Trace { n }
        }
        "QUIT" | "EXIT" => Command::Quit,
        other => return Err(protocol_err(format!("unknown command `{other}`"))),
    };
    Ok(Some(cmd))
}

/// Split a leading `key=<u32>` token off `rest`; `usage` is the error
/// message when the token is missing or malformed.
fn parse_u32_kv<'a>(
    rest: &'a str,
    key: &str,
    usage: &str,
) -> Result<(u32, &'a str), ServeError> {
    let (head, tail) = match rest.split_once(char::is_whitespace) {
        Some((h, t)) => (h, t.trim_start()),
        None => (rest, ""),
    };
    match head.split_once('=') {
        Some((k, v)) if k == key => {
            let n = v.parse::<u32>().map_err(|_| protocol_err(usage))?;
            Ok((n, tail))
        }
        _ => Err(protocol_err(usage)),
    }
}

fn err_json(e: &ServeError) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str(e.to_string())),
        ("code", Json::str(e.code())),
    ])
}

/// Run one command against a server and produce its reply. `QUIT`
/// replies `{"ok":true,"bye":true}`; the transport layer closes.
pub fn handle_command(server: &Server, cmd: &Command) -> Reply {
    match run_command(server, cmd) {
        Ok(reply) => reply,
        Err(e) => Reply::Json(err_json(&e)),
    }
}

fn run_command(server: &Server, cmd: &Command) -> Result<Reply, ServeError> {
    Ok(Reply::Json(match cmd {
        Command::LoadXmark { scale, seed } => {
            let g = server
                .add_tree(generate_xmark(XmarkConfig { scale: *scale, seed: *seed }));
            load_reply(server, g)
        }
        Command::LoadDblp { publications, seed } => {
            let g = server.add_tree(generate_dblp(DblpConfig {
                publications: *publications,
                seed: *seed,
            }));
            load_reply(server, g)
        }
        Command::LoadDoc { uri, xml } => {
            let g = server.load_xml(uri, xml)?;
            load_reply(server, g)
        }
        Command::Prepare { context_doc, query } => {
            let (plan, cached) = server.prepare(query, context_doc.as_deref())?;
            Json::obj([
                ("ok", Json::Bool(true)),
                ("cached", Json::Bool(cached)),
                ("extractable", Json::Bool(plan.cq.is_some())),
                ("rewrite_steps", Json::UInt(plan.report.rewrite.steps as u64)),
                ("generation", Json::UInt(server.snapshot().generation)),
            ])
        }
        Command::Exec { engine, timeout_ms, context_doc, query } => {
            let deadline = timeout_ms.map(Duration::from_millis);
            let reply = server.execute(query, context_doc.as_deref(), *engine, deadline)?;
            // The reply is rendered here (not in the transport) so the
            // serialize phase lands in the telemetry with the other
            // phases: queue / prepare / execute / serialize.
            let t0 = Instant::now();
            let json = Json::obj([
                ("ok", Json::Bool(true)),
                ("engine", Json::str(reply.engine.name())),
                (
                    "rows",
                    reply
                        .nodes
                        .as_ref()
                        .map_or(Json::Null, |n| Json::UInt(n.len() as u64)),
                ),
                ("dnf", Json::Bool(reply.nodes.is_none())),
                ("trace_id", Json::str(format!("{:016x}", reply.trace_id))),
                ("wall_us", Json::UInt(reply.wall.as_micros() as u64)),
                ("queue_us", Json::UInt(reply.queue_wait.as_micros() as u64)),
                ("prepare_us", Json::UInt(reply.prepare.as_micros() as u64)),
                ("cached", Json::Bool(reply.cached_plan)),
                ("plan_cached", Json::Bool(reply.report.plan_cached)),
                ("deadline_exceeded", Json::Bool(reply.deadline_exceeded)),
                ("generation", Json::UInt(reply.generation)),
            ]);
            let rendered = format!("{}\n", json.render());
            server.registry().observe_us("serve.serialize_us", t0.elapsed());
            return Ok(Reply::Raw(rendered));
        }
        Command::Explain { context_doc, query } => {
            let (plan, cached) = server.prepare(query, context_doc.as_deref())?;
            let snapshot = server.snapshot();
            let cq = plan.plannable_cq().ok_or_else(|| {
                protocol_err("plan is outside the plannable join-graph fragment")
            })?;
            // Explain against the same segment the plan would execute on.
            let (segment, _) = snapshot.resolve(&plan.docs);
            let physical = jgi_engine::optimizer::plan(&segment.db, cq);
            Json::obj([
                ("ok", Json::Bool(true)),
                ("cached", Json::Bool(cached)),
                ("plan", Json::str(jgi_engine::explain::render(&segment.db, &physical))),
                (
                    "sql",
                    plan.sql.as_ref().map_or(Json::Null, |s| Json::str(s.clone())),
                ),
            ])
        }
        Command::Sql { context_doc, dialect, query } => {
            // Same prepare path (and plan cache) as EXEC; the reply is the
            // block a foreign RDBMS would run against the exported `doc`
            // table — SQL.md specifies the dialect, `Session::export_sql`
            // produces the table.
            let (plan, cached) = server.prepare(query, context_doc.as_deref())?;
            let cq = plan.cq.as_ref().ok_or_else(|| {
                protocol_err("plan is outside the extractable join-graph fragment")
            })?;
            let sql =
                jgi_sql::emit_join_graph(cq, &jgi_sql::EmitOptions::for_dialect(*dialect));
            server.registry().counter("sql.backend.emit", 1);
            Json::obj([
                ("ok", Json::Bool(true)),
                ("cached", Json::Bool(cached)),
                ("dialect", Json::str(dialect.name())),
                ("sql", Json::str(sql)),
                ("generation", Json::UInt(server.snapshot().generation)),
            ])
        }
        Command::Insert { parent, pos, xml } => {
            let out = server.commit(&[Op::Insert {
                parent: *parent,
                pos: *pos,
                xml: xml.clone(),
            }])?;
            mutate_reply(server, &out)
        }
        Command::Delete { pre } => {
            let out = server.commit(&[Op::Delete { pre: *pre }])?;
            mutate_reply(server, &out)
        }
        Command::Replace { pre, xml } => {
            let out = server.commit(&[Op::Replace { pre: *pre, xml: xml.clone() }])?;
            mutate_reply(server, &out)
        }
        Command::Stats => server.stats_json(),
        Command::Metrics => {
            // Raw exposition block; the trailing `# EOF` comment is legal
            // 0.0.4 and doubles as the line-protocol terminator.
            let mut text = server.metrics_prometheus();
            text.push_str("# EOF\n");
            return Ok(Reply::Raw(text));
        }
        Command::Trace { n } => {
            let records = server.trace_dump(*n);
            let mut out = format!(
                "{}\n",
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("count", Json::UInt(records.len() as u64)),
                ])
                .render()
            );
            for r in records {
                out.push_str(&r.render());
                out.push('\n');
            }
            return Ok(Reply::Raw(out));
        }
        Command::Quit => Json::obj([("ok", Json::Bool(true)), ("bye", Json::Bool(true))]),
    }))
}

fn load_reply(server: &Server, generation: u64) -> Json {
    let snapshot = server.snapshot();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("generation", Json::UInt(generation)),
        ("documents", Json::UInt(snapshot.documents() as u64)),
        ("nodes", Json::UInt(snapshot.node_count())),
    ])
}

/// Reply for a committed mutation: the new generation, the touched
/// documents with their new versions, and the post-commit node count.
fn mutate_reply(server: &Server, out: &crate::snapshot::CommitOutcome) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("generation", Json::UInt(out.generation)),
        (
            "docs",
            Json::Arr(
                out.touched
                    .iter()
                    .map(|(uri, version)| {
                        Json::obj([
                            ("uri", Json::str(uri.clone())),
                            ("version", Json::UInt(*version)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rows_delta", Json::Int(out.rows_delta)),
        ("nodes", Json::UInt(server.snapshot().node_count())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("# comment").unwrap(), None);
        assert_eq!(
            parse_command("LOAD XMARK 0.002 5").unwrap(),
            Some(Command::LoadXmark { scale: 0.002, seed: 5 })
        );
        assert_eq!(
            parse_command("load dblp 300 1").unwrap(),
            Some(Command::LoadDblp { publications: 300, seed: 1 })
        );
        assert_eq!(
            parse_command("LOAD DOC t.xml <a><b/></a>").unwrap(),
            Some(Command::LoadDoc { uri: "t.xml".into(), xml: "<a><b/></a>".into() })
        );
        assert_eq!(
            parse_command(r#"PREPARE ctx=auction.xml /site/people/person"#).unwrap(),
            Some(Command::Prepare {
                context_doc: Some("auction.xml".into()),
                query: "/site/people/person".into()
            })
        );
        assert_eq!(
            parse_command(r#"EXEC engine=stacked timeout_ms=250 doc("a.xml")//b"#).unwrap(),
            Some(Command::Exec {
                engine: Engine::Stacked,
                timeout_ms: Some(250),
                context_doc: None,
                query: r#"doc("a.xml")//b"#.into()
            })
        );
        assert_eq!(
            parse_command("INSERT parent=12 pos=0 <bid>7</bid>").unwrap(),
            Some(Command::Insert { parent: 12, pos: 0, xml: "<bid>7</bid>".into() })
        );
        assert_eq!(
            parse_command("DELETE pre=9").unwrap(),
            Some(Command::Delete { pre: 9 })
        );
        assert_eq!(
            parse_command("replace pre=4 <item kind=\"new\">rug</item>").unwrap(),
            Some(Command::Replace { pre: 4, xml: "<item kind=\"new\">rug</item>".into() })
        );
        assert_eq!(
            parse_command(r#"SQL dialect=ansi doc("a.xml")//b"#).unwrap(),
            Some(Command::Sql {
                context_doc: None,
                dialect: jgi_sql::Dialect::Ansi,
                query: r#"doc("a.xml")//b"#.into()
            })
        );
        assert_eq!(
            parse_command(r#"SQL ctx=auction.xml //person"#).unwrap(),
            Some(Command::Sql {
                context_doc: Some("auction.xml".into()),
                dialect: jgi_sql::Dialect::Sqlite,
                query: "//person".into()
            })
        );
        assert_eq!(parse_command("STATS").unwrap(), Some(Command::Stats));
        assert_eq!(parse_command("METRICS").unwrap(), Some(Command::Metrics));
        assert_eq!(parse_command("TRACE").unwrap(), Some(Command::Trace { n: 16 }));
        assert_eq!(parse_command("trace 5").unwrap(), Some(Command::Trace { n: 5 }));
        assert_eq!(parse_command("quit").unwrap(), Some(Command::Quit));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "LOAD",
            "LOAD XMARK",
            "LOAD NOPE 1 2",
            "EXEC engine=warp9 //a",
            "EXEC timeout_ms=soon //a",
            "EXEC engine=stacked", // no query
            "EXEC dialect=sqlite //a",     // dialect belongs to SQL
            "SQL dialect=db2 //a",         // unknown dialect
            "SQL engine=stacked //a",      // engine belongs to EXEC
            "SQL dialect=ansi",            // no query
            "TRACE many",
            "TRACE -3",
            "FROBNICATE //a",
            "INSERT <a/>",                  // missing parent=/pos=
            "INSERT parent=1 <a/>",         // missing pos=
            "INSERT parent=1 pos=0",        // missing fragment
            "DELETE 9",                     // bare rank, needs pre=
            "DELETE pre=9 extra",           // trailing junk
            "REPLACE pre=x <a/>",           // non-numeric rank
            "REPLACE pre=4",                // missing fragment
        ] {
            assert!(
                matches!(parse_command(bad), Err(ServeError::Protocol(_))),
                "{bad:?} should be a protocol error"
            );
        }
    }

    #[test]
    fn synthetic_loads_are_bounded() {
        for bad in [
            "LOAD XMARK inf 1",
            "LOAD XMARK NaN 1",
            "LOAD XMARK -1 1",
            "LOAD XMARK 0 1",
            "LOAD XMARK 1e9 1",
            "LOAD DBLP 100001 1",
            "LOAD DBLP 18446744073709551615 1",
        ] {
            assert!(
                matches!(parse_command(bad), Err(ServeError::Protocol(_))),
                "{bad:?} should be a protocol error"
            );
        }
        assert!(parse_command("LOAD XMARK 1 1").unwrap().is_some());
        assert!(parse_command("LOAD DBLP 100000 1").unwrap().is_some());
    }

    #[test]
    fn exec_defaults_to_joingraph() {
        match parse_command("EXEC //open_auction").unwrap().unwrap() {
            Command::Exec { engine, timeout_ms, context_doc, query } => {
                assert_eq!(engine, Engine::JoinGraph);
                assert_eq!(timeout_ms, None);
                assert_eq!(context_doc, None);
                assert_eq!(query, "//open_auction");
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn metrics_and_trace_replies_over_a_live_server() {
        let server = crate::Server::new(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        });
        let run = |line: &str| {
            handle_command(&server, &parse_command(line).unwrap().unwrap()).render()
        };
        assert!(run("LOAD XMARK 0.002 5").contains("\"generation\":1"));
        let exec = run(r#"EXEC doc("auction.xml")/descendant::open_auction[bidder]"#);
        assert!(exec.contains("\"trace_id\":\""), "EXEC echoes the trace id: {exec}");
        assert!(exec.contains("\"prepare_us\":"), "EXEC reports prepare time: {exec}");
        assert!(exec.ends_with('\n') && !exec.trim_end().contains('\n'), "one line");

        // METRICS: valid exposition, `# EOF`-terminated.
        let metrics = run("METRICS");
        assert!(metrics.ends_with("# EOF\n"), "terminator present");
        jgi_obs::expo::validate_exposition(&metrics).expect("valid Prometheus text");
        assert!(metrics.contains("jgi_serve_requests_total 1"));
        assert!(metrics.contains("jgi_serve_serialize_us"), "serialize phase recorded");

        // TRACE: header JSON + one record line per retained request.
        let trace = run("TRACE 8");
        let mut lines = trace.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("{\"ok\":true,\"count\":"), "header: {header}");
        let records: Vec<&str> = lines.collect();
        assert!(!records.is_empty(), "the request was retained");
        assert!(records[0].contains("\"trace_id\":\""));
        assert!(records[0].contains("\"phases\":{"));

        // STATS carries the new breakdown fields.
        let stats = run("STATS");
        for needle in [
            "\"queue_len\":",
            "\"generations\":[",
            "\"flight\":{",
            "\"docs\":[",
            "\"invalidated_docs\":",
        ] {
            assert!(stats.contains(needle), "missing {needle} in {stats}");
        }
        assert!(!stats.contains("\"telemetry\""), "telemetry has no switch: {stats}");
    }

    #[test]
    fn stats_reports_bytes_per_structure() {
        let server =
            crate::Server::new(crate::ServeConfig { workers: 1, ..crate::ServeConfig::default() });
        let load = parse_command("LOAD XMARK 0.002 42").unwrap().unwrap();
        assert!(handle_command(&server, &load).render().contains("\"ok\":true"));
        let Reply::Json(Json::Obj(stats)) = handle_command(&server, &Command::Stats) else {
            panic!("STATS is one object")
        };
        let field = |obj: &[(String, Json)], key: &str| -> Json {
            obj.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).expect(key)
        };
        let Json::Arr(docs) = field(&stats, "docs") else { panic!("docs is an array") };
        let Json::Obj(doc) = &docs[0] else { panic!("a doc is an object") };
        let Json::UInt(nodes) = field(doc, "nodes") else { panic!("nodes is a count") };
        let Json::UInt(store_bytes) = field(doc, "store_bytes") else { panic!("store_bytes") };
        assert!(store_bytes > 0);
        let Json::Obj(trees) = field(doc, "index_bytes") else { panic!("index_bytes") };
        let names: Vec<&str> = trees.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, jgi_engine::catalog::DEFAULT_INDEXES);
        let index_bytes: u64 = trees
            .iter()
            .map(|(name, b)| match b {
                Json::UInt(b) => *b,
                other => panic!("{name}: {other:?}"),
            })
            .sum();
        assert!(index_bytes <= 80 * nodes, "{index_bytes} B over {nodes} nodes");
    }

    #[test]
    fn sql_command_over_a_live_server() {
        let server = crate::Server::new(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        });
        let run = |line: &str| {
            handle_command(&server, &parse_command(line).unwrap().unwrap()).render()
        };
        run("LOAD XMARK 0.002 5");
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        let sqlite = run(&format!("SQL {q}"));
        assert!(sqlite.contains("\"ok\":true"), "{sqlite}");
        assert!(sqlite.contains("\"dialect\":\"sqlite\""), "{sqlite}");
        assert!(sqlite.contains("SELECT DISTINCT"), "{sqlite}");
        assert!(sqlite.ends_with('\n') && !sqlite.trim_end().contains('\n'), "one line");
        // Same query, ANSI rendering: reserved columns come back quoted
        // (\" inside the JSON string).
        let ansi = run(&format!("SQL dialect=ansi {q}"));
        assert!(ansi.contains("\"dialect\":\"ansi\""), "{ansi}");
        assert!(ansi.contains("\\\"size\\\""), "{ansi}");
        // Second emit hits the plan cache.
        let again = run(&format!("SQL {q}"));
        assert!(again.contains("\"cached\":true"), "{again}");
        // Outside the extractable fragment → stable protocol error.
        let err = run("SQL 1 + 1");
        assert!(err.contains("\"ok\":false"), "{err}");
    }

    #[test]
    fn mutation_commands_over_a_live_server() {
        let server = crate::Server::new(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        });
        let run = |line: &str| {
            handle_command(&server, &parse_command(line).unwrap().unwrap()).render()
        };
        assert!(run("LOAD DOC t.xml <a><b>1</b></a>").contains("\"nodes\":4"));
        // Insert a sibling after <b>: root element <a> is global pre 1.
        let ins = run("INSERT parent=1 pos=1 <b>2</b>");
        assert!(ins.contains("\"ok\":true"), "insert applies: {ins}");
        assert!(ins.contains("\"version\":2"), "t.xml bumps to v2: {ins}");
        assert!(ins.contains("\"rows_delta\":2"), "element+text rows: {ins}");
        let exec = run(r#"EXEC doc("t.xml")/child::a/child::b"#);
        assert!(exec.contains("\"rows\":2"), "insert visible to queries: {exec}");
        // Replace the first <b>, then delete the second (doc=0, a=1,
        // c=2, text=3, b=4, text=5 after the replace).
        assert!(run("REPLACE pre=2 <c>9</c>").contains("\"version\":3"));
        let del = run("DELETE pre=4");
        assert!(del.contains("\"rows_delta\":-2"), "delete drops 2 rows: {del}");
        let after = run(r#"EXEC doc("t.xml")/child::a/child::c"#);
        assert!(after.contains("\"rows\":1"), "final shape <a><c>9</c></a>: {after}");
        // A bad target is a structured reply, not a dead server.
        let bad = run("DELETE pre=9999");
        assert!(bad.contains("\"ok\":false") && bad.contains("\"code\":\"mutate_target\""));
        assert!(run("STATS").contains("\"ok\":true"));
    }

    #[test]
    fn deep_xml_is_an_error_reply_not_a_stack_overflow() {
        let server = crate::Server::new(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        });
        let run = |line: &str| {
            handle_command(&server, &parse_command(line).unwrap().unwrap()).render()
        };
        // 100 000 levels: the parser's recursion would overflow this
        // thread's stack (and abort the process) without a depth limit.
        let deep = format!("{}{}", "<a>".repeat(100_000), "</a>".repeat(100_000));
        let load = run(&format!("LOAD DOC deep.xml {deep}"));
        assert!(load.contains("\"code\":\"frontend\""), "{}", &load[..load.len().min(200)]);
        assert!(run("LOAD DOC t.xml <a/>").contains("\"ok\":true"));
        for line in [format!("INSERT parent=1 pos=0 {deep}"), format!("REPLACE pre=1 {deep}")] {
            let reply = run(&line);
            assert!(reply.contains("\"code\":\"mutate_fragment\""), "{}", &reply[..reply.len().min(200)]);
        }
        assert!(run("STATS").contains("\"ok\":true"));
    }

    #[test]
    fn deep_xquery_is_an_error_reply_not_a_stack_overflow() {
        let server = crate::Server::new(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        });
        let run = |line: &str| {
            handle_command(&server, &parse_command(line).unwrap().unwrap()).render()
        };
        // 100 000 levels: the XQuery parser's recursion would overflow
        // this thread's stack (and abort the process) without a limit.
        let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        let exec = run(&format!("EXEC {deep}"));
        assert!(exec.contains("\"code\":\"frontend\""), "{}", &exec[..exec.len().min(200)]);
        assert!(run("STATS").contains("\"ok\":true"));
    }
}
