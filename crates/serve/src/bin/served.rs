//! `jgi-served` — the line-protocol query server.
//!
//! ```text
//! jgi-served [--listen ADDR] [--workers N] [--queue N] [--cache N]
//!            [--scalar] [--join nl|hash|auto]
//!            [--preload xmark:SCALE:SEED] [--preload dblp:PUBS:SEED]
//! ```
//!
//! Without `--listen`, speaks the protocol on stdin/stdout (one command
//! per line, one JSON reply per line — scriptable with a heredoc). With
//! `--listen HOST:PORT`, accepts TCP connections, one protocol session
//! per connection, one thread per connection; all connections share the
//! same snapshot, plan cache, and worker pool.
//!
//! The wire protocol is specified in `PROTOCOL.md` at the repository
//! root.

use jgi_serve::protocol::{check_load, handle_command, parse_command, Command, Reply};
use jgi_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;

const HELP: &str = "\
jgi-served - join-graph query service speaking the PROTOCOL.md line protocol

usage: jgi-served [OPTIONS]

options:
  --listen ADDR         accept TCP connections on ADDR (host:port); without
                        this flag the protocol runs on stdin/stdout
  --workers N           executor worker threads (default: available cores)
  --queue N             bounded admission-queue depth; a full queue sheds
                        requests with an `overloaded` error (default: 64)
  --cache N             prepared-plan cache capacity, in plans (default: 256)
  --scalar              disable the vectorized batch pipeline (row-at-a-time
                        execution)
  --join STRATEGY       physical join strategy for the join-graph planner:
                        nl, hash, or auto (cost-based; default)
  --preload SPEC        load a synthetic document before serving; SPEC is
                        xmark:SCALE:SEED (0 < SCALE <= 1) or dblp:PUBS:SEED
                        (PUBS <= 100000); repeatable
  -h, --help            print this help and exit

Commands (one per line): LOAD, PREPARE, EXEC, EXPLAIN, INSERT, DELETE,
REPLACE, STATS, METRICS, TRACE, QUIT. One JSON reply per line, except
METRICS (a Prometheus text block terminated by `# EOF`) and TRACE (a JSON
header line followed by one JSON line per retained flight record); the
mutation commands address nodes by the global pre ranks EXEC returns and
apply atomically; see PROTOCOL.md.";

fn usage() -> ! {
    eprintln!(
        "usage: jgi-served [--listen ADDR] [--workers N] [--queue N] [--cache N] \
         [--scalar] \
         [--join nl|hash|auto] \
         [--preload xmark:SCALE:SEED|dblp:PUBS:SEED]... \
         (--help for details)"
    );
    std::process::exit(2)
}

fn main() {
    let mut listen: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut preloads: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match a.as_str() {
            "--listen" => listen = Some(val("--listen")),
            "--workers" => config.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => config.queue_depth = val("--queue").parse().unwrap_or_else(|_| usage()),
            "--cache" => {
                config.cache_capacity = val("--cache").parse().unwrap_or_else(|_| usage())
            }
            "--scalar" => config.budgets.vectorized = false,
            "--join" => {
                config.budgets.join = val("--join").parse().unwrap_or_else(|e| {
                    eprintln!("--join: {e}");
                    usage()
                })
            }
            "--preload" => preloads.push(val("--preload")),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0)
            }
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }

    let server = Arc::new(Server::new(config));
    for spec in &preloads {
        preload(&server, spec);
    }

    match listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_stream(&server, stdin.lock(), stdout.lock());
        }
        Some(addr) => {
            let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(1)
            });
            eprintln!("jgi-served listening on {addr}");
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let peer = conn.peer_addr().ok();
                    let reader = BufReader::new(conn.try_clone().expect("clone socket"));
                    serve_stream(&server, reader, conn);
                    if let Some(p) = peer {
                        eprintln!("connection {p} closed");
                    }
                });
            }
        }
    }
}

fn preload(server: &Server, spec: &str) {
    let seed = |s: &str| -> u64 { s.parse().unwrap_or_else(|_| usage()) };
    let cmd = match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["xmark", scale, s] => Command::LoadXmark {
            scale: scale.parse().unwrap_or_else(|_| usage()),
            seed: seed(s),
        },
        ["dblp", pubs, s] => Command::LoadDblp {
            publications: pubs.parse().unwrap_or_else(|_| usage()),
            seed: seed(s),
        },
        _ => {
            eprintln!("bad --preload spec {spec} (want xmark:SCALE:SEED or dblp:PUBS:SEED)");
            usage()
        }
    };
    if let Err(e) = check_load(&cmd) {
        eprintln!("bad --preload spec {spec}: {e}");
        usage()
    }
    let reply = handle_command(server, &cmd);
    eprint!("preloaded {spec}: {}", reply.render());
}

/// One protocol session: read lines, write one reply per command — a
/// single JSON line for most commands, a multi-line block for METRICS
/// and TRACE ([`Reply::render`] carries its own framing either way).
fn serve_stream(server: &Server, reader: impl BufRead, mut writer: impl Write) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let rendered = match parse_command(&line) {
            Ok(None) => continue, // blank/comment
            Ok(Some(cmd)) => {
                let reply = handle_command(server, &cmd);
                let quit = cmd == Command::Quit;
                if writer
                    .write_all(reply.render().as_bytes())
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return;
                }
                if quit {
                    return;
                }
                continue;
            }
            Err(e) => Reply::Json(jgi_obs::Json::obj([
                ("ok", jgi_obs::Json::Bool(false)),
                ("error", jgi_obs::Json::str(e.to_string())),
                ("code", jgi_obs::Json::str(e.code())),
            ]))
            .render(),
        };
        if writer.write_all(rendered.as_bytes()).and_then(|()| writer.flush()).is_err() {
            return;
        }
    }
}
