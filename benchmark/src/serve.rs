//! The served workloads: `serve_read` and `serve_write_mix`.
//!
//! A `Server` with as many workers as closed-loop clients (threads ≤ cores)
//! serves the `PATH` mix from a warm plan cache. Every op goes the way a
//! connection's line would: `parse_command → handle_command → Reply::render`,
//! with `timeout_ms=1000`. In `serve_write_mix` client 0 replaces every 25th
//! of its ops by a write, cycling INSERT bidder (auction.xml), INSERT article
//! (dblp.xml), REPLACE price (auction.xml), DELETE the inserted article
//! (dblp.xml).
//!
//! An untraced run lasts the window. A traced run is count-boxed on client 0
//! — the first [`traced_quota`] ops of its seeded stream, so the number of
//! commits is fixed — while the other clients keep it company. It spends the
//! first [`UNTRACED_SHARE`] of the quota untraced — the baseline its tracing
//! overhead is measured against — and the rest under spans. The queue-wait,
//! prepare and execute spans hang from the durations in the reply line; a
//! commit is split by replaying each write on a harness-owned `Master` and
//! overlay.

use crate::docs::{DocText, SessionDocs};
use crate::oracle::{fingerprint, Fingerprint, Oracle, Verdict, LIVE_BUDGET};
use crate::queries::{self, OpStream, QueryText, QueryType, Rng};
use crate::report::{field_is, field_u64, MetricSet, RunResult};
use crate::run::{self, RunConfig, TypeTable, Workload, SETUPS};
use crate::stats;
use crate::trace::{self, Recorder, Span};
use jgi_core::Engine;
use jgi_mutate::{Op, OverlayDoc};
use jgi_obs::Metrics;
use jgi_serve::protocol::{handle_command, parse_command};
use jgi_serve::snapshot::Master;
use jgi_serve::{CacheStats, ServeConfig, Server};
use jgi_sync::AtomicBool;
use jgi_xml::serialize::tree_to_xml;
use jgi_xml::{DocStore, NodeKind};
use std::time::{Duration, Instant};

/// Client 0 writes once per this many of its ops.
const WRITE_EVERY: u64 = 25;
/// Share of a traced run's ops that run untraced first.
const UNTRACED_SHARE: f64 = 0.3;

/// Ops client 0 performs in a traced run: enough reads for a p99 on
/// `serve_read`, 24 commits on `serve_write_mix`.
fn traced_quota(cfg: &RunConfig) -> u64 {
    match (cfg.workload, cfg.smoke) {
        (Workload::ServeWriteMix, false) => 24 * WRITE_EVERY,
        (Workload::ServeWriteMix, true) => 4 * WRITE_EVERY,
        (_, false) => 5_000,
        (_, true) => 1_000,
    }
}

/// Executions per text in the quiesced engine probe of a traced run.
const PROBE_REPS: usize = 5;

fn serve_config(clients: usize) -> ServeConfig {
    ServeConfig { workers: clients, ..ServeConfig::default() }
}

fn start_server(text: &DocText, clients: usize) -> Server {
    let server = Server::new(serve_config(clients));
    for (uri, xml) in text.docs() {
        server.load_xml(uri, xml).expect("generated XML loads");
    }
    server
}

/// The protocol line of a read.
fn exec_line(q: &QueryText) -> String {
    match q.ctx {
        Some(ctx) => format!("EXEC timeout_ms=1000 ctx={ctx} {}", q.text),
        None => format!("EXEC timeout_ms=1000 {}", q.text),
    }
}

/// The protocol line of a write.
fn write_line(op: &Op) -> String {
    match op {
        Op::Insert { parent, pos, xml } => format!("INSERT parent={parent} pos={pos} {xml}"),
        Op::Delete { pre } => format!("DELETE pre={pre}"),
        Op::Replace { pre, xml } => format!("REPLACE pre={pre} {xml}"),
    }
}

/// What the window produced: one per client, then summed.
struct Window {
    /// Latencies of the reads answered from a cached plan, per type.
    reads: TypeTable,
    /// Traced runs: latency of every read of the untraced and of the traced
    /// leg, ms.
    baseline_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Reads whose plan was not in the cache.
    misses: u64,
    /// Traced leg: worker execution time, prepare time of each miss.
    exec_us: u64,
    recompile_ms: Vec<f64>,
    /// Replay: commits replayed, their net rows, overlay rows at the end.
    replayed: u64,
    rows_delta: i64,
    overlay_rows: u64,
    /// Time the clients spent in the traced leg, summed.
    traced_wall: Duration,
    spans: Vec<Vec<Span>>,
}

impl Window {
    fn new(types: &[QueryType]) -> Window {
        Window {
            reads: TypeTable::new(types),
            baseline_ms: Vec::new(),
            traced_ms: Vec::new(),
            commit_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            misses: 0,
            exec_us: 0,
            recompile_ms: Vec::new(),
            replayed: 0,
            rows_delta: 0,
            overlay_rows: 0,
            traced_wall: Duration::ZERO,
            spans: Vec::new(),
        }
    }

    fn absorb(&mut self, o: Window) {
        self.reads.absorb(o.reads);
        self.baseline_ms.extend(o.baseline_ms);
        self.traced_ms.extend(o.traced_ms);
        self.commit_ms.extend(o.commit_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.misses += o.misses;
        self.exec_us += o.exec_us;
        self.recompile_ms.extend(o.recompile_ms);
        self.replayed += o.replayed;
        self.rows_delta += o.rows_delta;
        self.overlay_rows += o.overlay_rows;
        self.traced_wall += o.traced_wall;
        self.spans.extend(o.spans);
    }
}

/// Client 0's write side in `serve_write_mix`.
struct Writer {
    writes: u64,
    /// Traced runs replay each write here to split the commit.
    replay: Option<Replay>,
}

struct Replay {
    master: Master,
    overlays: [OverlayDoc; 2],
}

/// Local `pre` ranks of the elements named `name`.
fn elements_named(store: &DocStore, name: &str) -> Vec<u32> {
    let Some(id) = store.names.get(name) else {
        return Vec::new();
    };
    (0..store.len() as u32)
        .filter(|&p| store.kind[p as usize] == NodeKind::Elem && store.name[p as usize] == id)
        .collect()
}

/// The next write: `(document index, op in that document's local ranks)`.
/// Targets are read off the current snapshot — client 0 is the only writer,
/// so the snapshot it reads is the one its commit applies to.
fn next_write(server: &Server, n: u64, rng: &mut Rng) -> (usize, Op) {
    let snap = server.snapshot();
    let store_of = |doc: usize| &snap.docs[doc].snap.store;
    match n % 4 {
        0 => {
            let auctions = elements_named(store_of(0), "open_auction");
            let parent = auctions[rng.below(auctions.len())];
            let xml = format!(
                "<bidder><date>03/22/2010</date><time>12:{:02}</time><personref person=\"person{}\"/><increase>{}.50</increase></bidder>",
                rng.below(60),
                rng.below(50),
                2 + rng.below(58)
            );
            // Position 1: right after <initial>, in front of the bidders.
            (0, Op::Insert { parent, pos: 1, xml })
        }
        1 => {
            let xml = format!(
                "<article key=\"journals/bench/{n}\" mdate=\"2010-03-22\"><author>Benchmark Writer</author><title>On write {n}</title><year>2010</year></article>"
            );
            // Local rank 1 is the <dblp> element; the article becomes its
            // first child, local rank 2.
            (1, Op::Insert { parent: 1, pos: 0, xml })
        }
        2 => {
            let prices = elements_named(store_of(0), "price");
            let pre = prices[rng.below(prices.len())];
            (0, Op::Replace { pre, xml: format!("<price>{}.25</price>", rng.below(600)) })
        }
        _ => {
            let store = store_of(1);
            assert_eq!(
                store.name_str(2),
                Some("article"),
                "the article inserted two writes ago leads dblp.xml"
            );
            (1, Op::Delete { pre: 2 })
        }
    }
}

/// Lift a document-local op into the global numbering the protocol speaks.
fn globalize(op: &Op, base: u32) -> Op {
    match op {
        Op::Insert { parent, pos, xml } => {
            Op::Insert { parent: parent + base, pos: *pos, xml: xml.clone() }
        }
        Op::Delete { pre } => Op::Delete { pre: pre + base },
        Op::Replace { pre, xml } => Op::Replace { pre: pre + base, xml: xml.clone() },
    }
}

/// One op through the protocol, under spans when recording is on. Returns
/// the rendered reply and the client-observed latency.
fn protocol_op(
    server: &Server,
    line: &str,
    write: bool,
    rec: &mut Recorder,
) -> (String, Duration, trace::SpanId) {
    rec.next_op();
    let t0 = Instant::now();
    let op = rec.open("bench.op");
    let cmd = rec
        .time("serve.parse_command", || parse_command(line))
        .expect("harness lines parse")
        .expect("harness lines are commands");
    let handle = rec.open(if write { "serve.commit" } else { "serve.handle_command" });
    let reply = handle_command(server, &cmd);
    rec.close(handle);
    let rendered = rec.time("serve.render", || reply.render());
    rec.close(op);
    (rendered, t0.elapsed(), handle)
}

#[derive(Clone, Copy)]
struct ClientArgs<'a> {
    cfg: &'a RunConfig,
    server: &'a Server,
    types: &'a [QueryType],
    lines: &'a [Vec<String>],
    /// Expected row count per text; `None` while writes change the answers.
    rows: Option<&'a [Vec<u64>]>,
    epoch: Instant,
    start: Instant,
    /// Traced runs: raised by client 0 when it starts its traced leg, and
    /// when it has used up its quota. Relaxed suffices: they publish nothing.
    tracing: &'a AtomicBool,
    stop: &'a AtomicBool,
}

fn client(args: &ClientArgs<'_>, id: usize, mut writer: Option<Writer>) -> Window {
    let ClientArgs { cfg, server, types, lines, rows, epoch, start, tracing, stop } = *args;
    let mut rec = Recorder::new(epoch, id as u16, false);
    let mut stream = OpStream::new(cfg.seed, id);
    let quota = traced_quota(cfg);
    let mut out = Window::new(types);
    let mut traced_since = None;
    let mut n = 0u64;
    loop {
        if cfg.trace && id == 0 {
            if n >= quota {
                stop.store_relaxed(true);
            } else if n as f64 >= UNTRACED_SHARE * quota as f64 {
                tracing.store_relaxed(true);
            }
        }
        let done = if cfg.trace { stop.load_relaxed() } else { start.elapsed() >= cfg.window() };
        if done {
            break;
        }
        let traced = tracing.load_relaxed();
        if traced && traced_since.is_none() {
            rec.set_on(true);
            traced_since = Some(Instant::now());
        }
        n += 1;
        out.attempted += 1;
        if let Some(w) = writer.as_mut().filter(|_| n.is_multiple_of(WRITE_EVERY)) {
            let (doc, local) = next_write(server, w.writes, stream.rng());
            w.writes += 1;
            let global = globalize(&local, server.snapshot().docs[doc].base_pre);
            let (reply, latency, _) = protocol_op(server, &write_line(&global), true, &mut rec);
            if !field_is(&reply, "ok", "true") {
                out.failed += 1;
            }
            out.commit_ms.push(latency.as_secs_f64() * 1e3);
            if let Some(r) = w.replay.as_mut() {
                // The harness-owned copies see the same ops in the same
                // order, so their numbering agrees with the server's.
                let span = rec.open("bench.replay");
                let outcome = rec
                    .time("mutate.apply", || r.master.commit(&[global]))
                    .expect("replay commits");
                rec.time("serve.publish", || r.master.publish(serve_config(1).budgets));
                rec.close(span);
                out.replayed += 1;
                out.rows_delta += outcome.rows_delta;
                r.overlays[doc].apply(&local).expect("replay applies");
                out.overlay_rows = r.overlays.iter().map(|o| o.overlay_rows() as u64).sum();
            }
            continue;
        }
        let (ti, vi) = stream.next(types);
        let (reply, latency, handle) = protocol_op(server, &lines[ti][vi], false, &mut rec);
        let ok = field_is(&reply, "ok", "true")
            && field_is(&reply, "dnf", "false")
            && field_is(&reply, "deadline_exceeded", "false")
            && rows.is_none_or(|r| field_u64(&reply, "rows") == Some(r[ti][vi]));
        if !ok {
            out.failed += 1;
        }
        // A read that had to compile its plan first is not a sample of the
        // query's latency: it counts as an op, and its prepare time goes to
        // `serve.recompile_ms`.
        let miss = field_is(&reply, "cached", "false");
        if miss {
            out.misses += 1;
        } else {
            out.reads.record(ti, latency);
        }
        if !cfg.trace {
            continue;
        }
        let ms = latency.as_secs_f64() * 1e3;
        if !traced {
            out.baseline_ms.push(ms);
            continue;
        }
        out.traced_ms.push(ms);
        let us = |key| field_u64(&reply, key).unwrap_or(0);
        let (prepare, queue, exec) = (us("prepare_us"), us("queue_us"), us("wall_us"));
        let t = rec.start_of(handle);
        let t = rec.child_of(handle, "serve.prepare", t, prepare * 1000);
        let t = rec.child_of(handle, "serve.queue_wait", t, queue * 1000);
        rec.child_of(handle, "serve.exec", t, exec * 1000);
        out.exec_us += exec;
        if miss {
            out.recompile_ms.push(prepare as f64 / 1e3);
        }
    }
    out.traced_wall = traced_since.map_or(Duration::ZERO, |t| t.elapsed());
    out.spans.push(rec.into_spans());
    out
}

/// Fingerprint of what the server answers for `q`, serialized from the
/// segment the plan ran against.
fn served_fingerprint(server: &Server, q: &QueryText) -> Option<Fingerprint> {
    let reply = server.execute(&q.text, q.ctx, Engine::JoinGraph, None).ok()?;
    let (prepared, _) = server.prepare(&q.text, q.ctx).ok()?;
    let (segment, base) = server.snapshot().resolve(&prepared.docs);
    let local: Vec<u32> = reply.nodes?.iter().map(|p| p - base).collect();
    Some(fingerprint(&segment.store, &local))
}

/// The quiesced end-state check of `serve_write_mix`: serialize the final
/// snapshot, reparse it into fresh session documents, and compare every
/// text — navigational evaluation there against the served answer here.
fn end_state_divergence(server: &Server, types: &[QueryType]) -> u64 {
    let snap = server.snapshot();
    let xml: Vec<(String, String)> = snap
        .docs
        .iter()
        .map(|d| (d.snap.uri.clone(), tree_to_xml(&d.snap.store.extract_tree(0))))
        .collect();
    let xml: Vec<(&str, &str)> =
        xml.iter().map(|(uri, text)| (uri.as_str(), text.as_str())).collect();
    let fresh = SessionDocs::from_xml(&xml, &mut Recorder::new(Instant::now(), 0, false));
    let end_state = Oracle::live(&fresh, types, LIVE_BUDGET);
    queries::texts(types)
        .filter(|q| {
            served_fingerprint(server, q).map(|f| end_state.check(&q.key, f))
                != Some(Verdict::Match)
        })
        .count() as u64
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let write_mix = cfg.workload == Workload::ServeWriteMix;
    let clients = cfg.clients();
    let text = DocText::generate(cfg.workload.docs(cfg.smoke));
    let types = queries::path_population(&text, cfg.seed);
    let epoch = Instant::now();

    // Reference documents for the oracle; in a traced run also the place
    // the set-up layers (which `Server::load_xml` hides) get their spans.
    let mut rec = Recorder::new(epoch, clients as u16, cfg.trace);
    let (rss_before, _) = crate::docs::rss_bytes();
    let reference = SessionDocs::build(&text, &mut rec);
    let (rss_after, _) = crate::docs::rss_bytes();
    let oracle = Oracle::build(&cfg.dir, &text, &reference, &types, LIVE_BUDGET);
    let nodes = reference.store.len();
    drop(reference);

    let (server, setup_secs) =
        run::set_up_repeatedly(if cfg.trace { 1 } else { SETUPS }, || start_server(&text, clients));
    let threads = format!("clients {clients} workers {clients}");
    let mut notes = run::head_notes(cfg, &text, nodes, &threads, &oracle);
    let mut metrics = if cfg.trace { MetricSet::per_layer() } else { MetricSet::end_to_end() };

    // Warm the plan cache and verify every text once. Untimed.
    let mut diverged = 0u64;
    let mut attempted = 0u64;
    for q in queries::texts(&types) {
        attempted += 1;
        let verdict =
            served_fingerprint(&server, q).map_or(Verdict::Diverged, |f| oracle.check(&q.key, f));
        if verdict == Verdict::Diverged {
            diverged += 1;
        }
    }
    let rows: Vec<Vec<u64>> = types
        .iter()
        .map(|t| {
            t.variants.iter().map(|q| oracle.reference(&q.key).map_or(0, |f| f.rows)).collect()
        })
        .collect();
    let lines: Vec<Vec<String>> =
        types.iter().map(|t| t.variants.iter().map(exec_line).collect()).collect();

    if !cfg.trace {
        run::set_rss_loaded(&mut metrics);
    }

    let cache_warm = server.cache_stats();
    let counters_warm = server.metrics();
    let generation_warm = server.snapshot().generation;
    let replay = (write_mix && cfg.trace).then(|| {
        let mut master = Master::new();
        for (uri, xml) in text.docs() {
            master.add_tree(jgi_xml::parse(uri, xml).expect("generated XML parses"));
        }
        let snap = server.snapshot();
        Replay {
            master,
            overlays: [0, 1].map(|i| OverlayDoc::new(snap.docs[i].snap.store.clone())),
        }
    });

    let args = ClientArgs {
        cfg,
        server: &server,
        types: &types,
        lines: &lines,
        rows: (!write_mix && oracle.unverified() == 0).then_some(&rows[..]),
        epoch,
        start: Instant::now(),
        tracing: &AtomicBool::new(false),
        stop: &AtomicBool::new(false),
    };
    let mut writer = write_mix.then_some(Writer { writes: 0, replay });
    let mut window = Window::new(&types);
    window.spans.push(rec.into_spans());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let writer = if id == 0 { writer.take() } else { None };
                let args = &args;
                s.spawn(move || client(args, id, writer))
            })
            .collect();
        for h in handles {
            window.absorb(h.join().expect("client thread"));
        }
    });
    let wall = args.start.elapsed();

    // Freeze the service's own accounting before the checks below probe it.
    let service = Service {
        cache: server.cache_stats(),
        cache_warm,
        counters: server.metrics(),
        counters_warm,
        generations: server.snapshot().generation - generation_warm,
    };

    window.attempted += attempted;
    if write_mix {
        let d = end_state_divergence(&server, &types);
        window.attempted += queries::texts(&types).count() as u64;
        diverged += d;
        notes.push(format!(
            "end-state check: {d} of {} texts diverge after {} commits",
            queries::texts(&types).count(),
            window.commit_ms.len()
        ));
    }
    window.failed += diverged;

    if cfg.trace {
        let spans = trace::merge(std::mem::take(&mut window.spans));
        set_traced_metrics(&mut metrics, &window, &service, write_mix);
        engine_probe(&server, &types, &mut metrics);
        let facts = run::TracedFacts {
            nodes,
            setup_rss_growth: rss_after.saturating_sub(rss_before),
            oracle: &oracle,
            failed: window.failed,
            attempted: window.attempted,
        };
        run::finish_traced(cfg, &mut metrics, &mut notes, &spans, facts);
    } else {
        window.reads.set_end_to_end(&mut metrics);
        let ops = window.reads.ops() + window.misses + window.commit_ms.len() as u64;
        metrics.set("ops_per_s", ops as f64 / wall.as_secs_f64(), ops);
        run::finish_untraced(&mut metrics, &setup_secs);
    }
    drop(server);
    RunResult {
        correct: diverged == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        notes,
    }
}

/// The service's own accounting over the window: plan cache and registry
/// counters, as deltas against their state after warm-up.
struct Service {
    cache: CacheStats,
    cache_warm: CacheStats,
    counters: Metrics,
    counters_warm: Metrics,
    generations: u64,
}

/// The per-layer metrics of a traced serve run that come from the window.
fn set_traced_metrics(m: &mut MetricSet, w: &Window, service: &Service, write_mix: bool) {
    w.reads.set_per_type(m);

    // Percentiles are over every read of both legs, misses included: the
    // tail of a read beside writes *is* the recompile.
    let read_ms: Vec<f64> = w.baseline_ms.iter().chain(&w.traced_ms).copied().collect();
    let n_reads = read_ms.len() as u64;
    let commits = w.commit_ms.len() as u64;
    m.set_floored("op_ms_p50", stats::percentile(&read_ms, 0.5), n_reads);
    let p99 = stats::percentile(&read_ms, 0.99);
    let Service { cache, cache_warm, counters, counters_warm, generations } = service;
    let invalidations = cache.invalidations - cache_warm.invalidations;
    if write_mix {
        // How many reads fit beside the fixed 24 commits depends on the
        // box; a slow one may not support a p99.
        m.set("serve.read_ms_p99", p99.unwrap_or(0.0), if p99.is_some() { n_reads } else { 0 });
        m.set_floored("commit_ms_p50", stats::percentile(&w.commit_ms, 0.5), commits);
        m.set("mutate.overlay_rows", w.overlay_rows as f64, w.replayed);
        m.set("mutate.rows_delta", w.rows_delta as f64 / w.replayed.max(1) as f64, w.replayed);
        m.set("serve.plans_lost_per_commit", invalidations as f64 / commits.max(1) as f64, commits);
    } else {
        m.set_floored("op_ms_p99", p99, n_reads);
    }
    if let Some(mean) = stats::mean(&w.recompile_ms) {
        m.set("serve.recompile_ms", mean, w.recompile_ms.len() as u64);
    }
    if let (Some(base), Some(traced)) = (stats::median(&w.baseline_ms), stats::median(&w.traced_ms))
    {
        m.set("trace.overhead_pct", 100.0 * (traced / base - 1.0), n_reads);
    }
    // Workers equal clients in number, so the clients' traced time is also
    // the workers' capacity.
    m.set(
        "serve.worker_busy_share",
        w.exec_us as f64 / 1e6 / w.traced_wall.as_secs_f64().max(1e-9),
        w.traced_ms.len() as u64,
    );

    let (hits, misses) = (cache.hits - cache_warm.hits, cache.misses - cache_warm.misses);
    let probes = hits + misses;
    m.set("serve.cache_hit_rate", hits as f64 / probes.max(1) as f64, probes);
    m.set("serve.cache_misses", misses as f64, probes);
    m.set("serve.cache_evictions", (cache.evictions - cache_warm.evictions) as f64, probes);
    m.set("serve.cache_invalidations", invalidations as f64, probes);
    m.set("serve.generations", *generations as f64, 1);

    let delta = |name: &str| counters.counter_value(name) - counters_warm.counter_value(name);
    let requests = delta("serve.requests").max(1);
    m.set("serve.shed", delta("serve.admission.shed") as f64, requests);
    m.set("serve.deadline_missed", delta("serve.deadline.missed") as f64, requests);
    // Engine work per request, from the counters every request's report is
    // folded into.
    for (name, counter) in [
        ("engine.plan_states", "opt.states_considered"),
        ("engine.plan_access_paths", "opt.access_paths_considered"),
        ("engine.rows_scanned", "exec.rows_out"),
        ("engine.btree_descents", "btree.descents"),
        ("engine.btree_skips", "btree.skip"),
        ("engine.vector_batches", "exec.vector.batches"),
        ("engine.vector_fallbacks", "exec.vector.fallbacks"),
        ("engine.sort_rows", "exec.sort_rows"),
        ("engine.dedup_removed", "exec.dedup_removed"),
        ("engine.join_seeks", "exec.join.seeks"),
        ("engine.join_probe_batches", "exec.join.probe_batches"),
        ("engine.join_build_rows", "exec.join.build_rows"),
    ] {
        m.set(name, delta(counter) as f64 / requests as f64, requests);
    }
}

/// Where the engine's time goes on the served documents: the reply line
/// carries only the worker's wall time, so after the window — quiesced — each
/// text is executed a few times through `Server::execute`, whose reply
/// carries the facade's own plan/execute split.
fn engine_probe(server: &Server, types: &[QueryType], metrics: &mut MetricSet) {
    let (mut plan, mut exec, mut wall) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut n = 0u64;
    for q in queries::texts(types) {
        for _ in 0..PROBE_REPS {
            let Ok(reply) = server.execute(&q.text, q.ctx, Engine::JoinGraph, None) else {
                continue;
            };
            plan += reply.report.phase("plan").unwrap_or_default();
            exec += reply.report.phase("execute").unwrap_or_default();
            wall += reply.wall;
            n += 1;
        }
    }
    if n == 0 {
        return;
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / n as f64;
    metrics.set("engine.plan_ms", ms(plan), n);
    metrics.set("engine.exec_ms", ms(exec), n);
    metrics.set("engine.plan_share", plan.as_secs_f64() / (plan + exec).as_secs_f64(), n);
    metrics.set("engine.exec_share", exec.as_secs_f64() / wall.as_secs_f64(), n);
    metrics.set("core.execute_self_ms", ms(wall.saturating_sub(plan + exec)), n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_lines_round_trip_through_the_protocol() {
        use jgi_serve::Command;
        let xml = "<bidder><date>1</date></bidder>".to_string();
        let parsed = |op: &Op| parse_command(&write_line(&globalize(op, 100))).unwrap().unwrap();
        assert_eq!(
            parsed(&Op::Insert { parent: 12, pos: 1, xml: xml.clone() }),
            Command::Insert { parent: 112, pos: 1, xml: xml.clone() }
        );
        assert_eq!(parsed(&Op::Delete { pre: 9 }), Command::Delete { pre: 109 });
        assert_eq!(
            parsed(&Op::Replace { pre: 4, xml: xml.clone() }),
            Command::Replace { pre: 104, xml }
        );
    }

    #[test]
    fn read_lines_carry_timeout_and_context() {
        let q = |ctx| QueryText { key: "k".into(), text: "//a".into(), ctx };
        assert_eq!(exec_line(&q(None)), "EXEC timeout_ms=1000 //a");
        assert_eq!(exec_line(&q(Some("dblp.xml"))), "EXEC timeout_ms=1000 ctx=dblp.xml //a");
        assert!(parse_command(&exec_line(&q(Some("dblp.xml")))).unwrap().is_some());
    }
}
