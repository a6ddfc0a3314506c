//! The concurrent query service: shared snapshots, plan cache, worker
//! pool, admission control, and always-on telemetry.
//!
//! Request path: the calling thread mints a trace id, resolves the
//! current [`Snapshot`] and the prepared query (cache probe, compile on
//! miss — a commit or load costs no entry), then submits an execution
//! job to a bounded queue served by N OS worker threads. The queue is
//! the admission controller — when it is full the request is shed
//! immediately with [`ServeError::Overloaded`] instead of growing an
//! unbounded backlog. Workers check per-request deadlines at dequeue
//! time and refuse work that can no longer meet them.
//!
//! Telemetry is two-layered:
//!
//! * every request threads its trace id through admission → cache lookup
//!   → prepare → execute → reply, and the [`ExecReply`] carries the full
//!   per-query [`QueryReport`] (per-phase timings, the layers' own stats)
//!   back to the caller;
//! * service-wide accounting — request / shed / deadline counters, cache
//!   hit/miss/eviction counters, queue-wait and latency sliding-window
//!   histograms — lives in a per-server [`Registry`]. Each finished
//!   request folds in its [`QueryReport::exec_counters`] and each compile
//!   its [`rewrite_counters`], so registry totals always equal the
//!   sum of per-request counters plus one set of rewrite counters per
//!   compile. The slowest and every anomalous (shed / deadline / errored
//!   / dnf) request is retained in a [`FlightRecorder`] with its plan
//!   fingerprint, full report, and EXPLAIN ANALYZE, dumpable live over
//!   `TRACE`.

use crate::cache::{CacheKey, CacheStats, PlanCache};
use crate::error::ServeError;
use crate::snapshot::{CommitOutcome, Master, Snapshot};
use jgi_core::{
    execute_prepared, prepare_on, rewrite_counters, Budgets, Engine, Prepared, QueryReport,
};
use jgi_engine::optimizer::PlanOptions;
use jgi_engine::Database;
use jgi_mutate::Op;
use jgi_obs::expo::render_prometheus;
use jgi_obs::{
    next_trace_id, FlightOutcome, FlightRecord, FlightRecorder, Json, Metrics, Registry,
};
use jgi_xml::Tree;
use jgi_sync::thread::JoinHandle;
use jgi_sync::{AtomicUsize, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (executor) OS threads.
    pub workers: usize,
    /// Bounded admission queue depth; a full queue sheds new requests.
    /// At least 1: a depth of 0 is served as 1, since a zero-capacity
    /// channel would shed whenever the worker is not parked in `recv`.
    pub queue_depth: usize,
    /// Prepared-plan cache capacity (plans, not bytes).
    pub cache_capacity: usize,
    /// Execution budgets baked into every published snapshot. Each
    /// request runs on one worker thread; the service's parallelism is
    /// across requests (`workers`).
    pub budgets: Budgets,
}

/// Flight-recorder capacity (records, split 3:1 slow:anomaly).
const FLIGHT_CAPACITY: usize = 64;

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            queue_depth: 64,
            cache_capacity: 256,
            budgets: Budgets::default(),
        }
    }
}

/// One successful execution, as seen by the client.
#[derive(Debug, Clone)]
pub struct ExecReply {
    /// Result node sequence (`pre` ranks); `None` = the engine's budget
    /// cut the run (the paper's *dnf*), not an error.
    pub nodes: Option<Vec<u32>>,
    /// Execution wall-clock on the worker.
    pub wall: Duration,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Time spent resolving the plan (near-zero on a cache hit).
    pub prepare: Duration,
    /// The deadline passed while the job ran (the result is still
    /// returned; the flag lets closed-loop clients account the miss).
    pub deadline_exceeded: bool,
    /// The plan came from the cache (false = compiled for this request).
    pub cached_plan: bool,
    /// Back-end that ran.
    pub engine: Engine,
    /// Snapshot generation the request executed against.
    pub generation: u64,
    /// Trace id minted at request entry, echoed in replies and `TRACE`.
    pub trace_id: u64,
    /// The full per-query report (phases, spans, metric deltas) — the
    /// request-scoped half of the telemetry story.
    pub report: QueryReport,
}

struct Job {
    prepared: Arc<Prepared>,
    snapshot: Arc<Snapshot>,
    engine: Engine,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: SyncSender<Result<ExecReply, ServeError>>,
}

struct State {
    snapshot: RwLock<Arc<Snapshot>>,
    master: Mutex<Master>,
    cache: Mutex<PlanCache>,
    /// Single-flight table: one lock per cache key currently being
    /// compiled. A miss acquires (or creates) its key's lock before
    /// compiling; concurrent misses on the same key block on it and
    /// re-probe the cache once the leader's insert lands. Lock order:
    /// the per-key lock is only ever taken with no other lock held, and
    /// `cache`/`flights` are leaf locks taken (one at a time) under it.
    flights: Mutex<HashMap<CacheKey, Arc<Mutex<()>>>>,
    registry: Registry,
    flight: Mutex<FlightRecorder<Option<FlightPayload>>>,
    queue_len: AtomicUsize,
    config: ServeConfig,
}

/// The query service. Cloneable handles are not needed — share it behind
/// an `Arc` (everything takes `&self`).
pub struct Server {
    state: Arc<State>,
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a service with no documents loaded (generation 0).
    pub fn new(config: ServeConfig) -> Server {
        let mut master = Master::new();
        let snapshot = master.publish(config.budgets);
        let registry = Registry::new();
        // Pre-register the core series so a scrape of an idle server
        // already exposes them at zero (absent-vs-zero is a real
        // distinction to Prometheus alerting).
        for name in [
            "serve.requests",
            "serve.errors",
            "serve.cache.hit",
            "serve.cache.miss",
            "serve.plan_memo.hit",
            "serve.plan_memo.miss",
            "serve.admission.shed",
            "serve.deadline.missed",
            "serve.commits",
            "exec.join.build_rows",
            "exec.join.probe_batches",
            "exec.join.seeks",
        ] {
            registry.counter(name, 0);
        }
        let state = Arc::new(State {
            snapshot: RwLock::named("snapshot", snapshot),
            master: Mutex::named("master", master),
            cache: Mutex::named("plan_cache", PlanCache::new(config.cache_capacity)),
            flights: Mutex::named("plan_flights", HashMap::new()),
            registry,
            flight: Mutex::named("flight", FlightRecorder::new(FLIGHT_CAPACITY)),
            queue_len: AtomicUsize::named("queue_len", 0),
            config: ServeConfig { queue_depth: config.queue_depth.max(1), ..config.clone() },
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(state.config.queue_depth);
        let rx = Arc::new(Mutex::named("worker_rx", rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                jgi_sync::thread::spawn_named(&format!("jgi-serve-worker-{i}"), move || {
                    worker_loop(&rx, &state)
                })
            })
            .collect();
        Server { state, queue: Some(tx), workers }
    }

    /// The current snapshot (cheap: one `RwLock` read + `Arc` clone).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.state.snapshot.read())
    }

    /// Load a document from XML text; returns the new generation.
    pub fn load_xml(&self, uri: &str, xml: &str) -> Result<u64, ServeError> {
        let tree = jgi_xml::parse(uri, xml)
            .map_err(|e| ServeError::Session(jgi_core::SessionError::Frontend(e.to_string())))?;
        Ok(self.add_tree(tree))
    }

    /// Load an already-built tree (e.g. from the synthetic generators);
    /// returns the new generation. Publishes a fresh snapshot (index
    /// build happens here, never on the request path). The prepared-query
    /// cache is untouched: queries over the loaded document re-plan on
    /// their next execution, nothing recompiles.
    pub fn add_tree(&self, tree: Tree) -> u64 {
        let snapshot = {
            let mut master = self.state.master.lock();
            master.add_tree(tree);
            master.publish(self.state.config.budgets)
        };
        let generation = snapshot.generation;
        *self.state.snapshot.write() = snapshot;
        self.state.registry.counter("serve.loads", 1);
        generation
    }

    /// Apply a mutation batch (global `pre` addressing) atomically and
    /// publish the resulting snapshot. Either every op in the batch
    /// validates and the new generation becomes visible in one pointer
    /// swap, or the document state is untouched and the error names the
    /// offending op. Every cached query stays warm; those over a touched
    /// document re-plan once against its new database.
    pub fn commit(&self, ops: &[Op]) -> Result<CommitOutcome, ServeError> {
        let (outcome, snapshot) = {
            let mut master = self.state.master.lock();
            let outcome = master.commit(ops)?;
            (outcome, master.publish(self.state.config.budgets))
        };
        *self.state.snapshot.write() = snapshot;
        self.state.registry.counter("serve.commits", 1);
        Ok(outcome)
    }

    /// Resolve a prepared plan through the cache. Returns the plan and
    /// whether it was a cache hit. Misses are **single-flight**: one
    /// thread compiles a given `(query, context)` while concurrent misses
    /// on the same key wait for its insert and reuse it (counted as hits
    /// — they were served from the cache, just after a wait). Compilation
    /// itself runs outside the cache and flight-table locks, so hits on
    /// *other* keys proceed undisturbed while a compile is in flight.
    pub fn prepare(
        &self,
        query: &str,
        context_doc: Option<&str>,
    ) -> Result<(Arc<Prepared>, bool), ServeError> {
        let snapshot = self.snapshot();
        self.prepare_on_snapshot(&snapshot, query, context_doc)
    }

    fn prepare_on_snapshot(
        &self,
        snapshot: &Snapshot,
        query: &str,
        context_doc: Option<&str>,
    ) -> Result<(Arc<Prepared>, bool), ServeError> {
        let key = CacheKey {
            query: query.to_string(),
            context_doc: context_doc.map(|s| s.to_string()),
        };
        let t0 = Instant::now();
        if let Some(plan) = self.state.cache.lock().get(&key, snapshot.generation) {
            self.state.registry.counter("serve.cache.hit", 1);
            return Ok((plan, true));
        }
        // Miss. Take the key's flight lock: the first misser leads and
        // compiles; followers block here until the leader's insert lands,
        // then re-probe instead of duplicating an expensive compile.
        let flight = {
            let mut flights = self.state.flights.lock();
            Arc::clone(
                flights
                    .entry(key.clone())
                    .or_insert_with(|| Arc::new(Mutex::named("plan_flight", ()))),
            )
        };
        let _leader = flight.lock();
        if let Some(plan) = self.state.cache.lock().get_after_wait(&key, snapshot.generation) {
            self.state.registry.counter("serve.cache.hit", 1);
            return Ok((plan, true));
        }
        let compiled = prepare_on(&snapshot.prepare_store(), query, context_doc);
        let plan = match compiled {
            Ok(p) => Arc::new(p),
            Err(e) => {
                // Unblock followers; whoever re-probes next leads the
                // retry (and reports its own error to its own client).
                self.state.flights.lock().remove(&key);
                return Err(e.into());
            }
        };
        let evicted = {
            let mut cache = self.state.cache.lock();
            let before = cache.stats().evictions;
            cache.insert(key.clone(), Arc::clone(&plan), snapshot.generation);
            cache.stats().evictions - before
        };
        // The insert is visible: retire the flight entry so later misses
        // (after an eviction) start a fresh flight.
        self.state.flights.lock().remove(&key);
        let mut reg = self.state.registry.batch();
        reg.merge_counters(rewrite_counters(&plan.report.rewrite));
        reg.counter("serve.cache.miss", 1);
        reg.counter("serve.cache.eviction", evicted);
        reg.observe_us("serve.prepare_us", t0.elapsed());
        Ok((plan, false))
    }

    /// Serve one query end-to-end: trace id mint, cache-resolved prepare,
    /// admission, worker execution, reply. `deadline` counts from
    /// admission; `None` waits as long as it takes. Every terminal state —
    /// success, dnf, shed, deadline refusal, error — is offered to the
    /// flight recorder.
    pub fn execute(
        &self,
        query: &str,
        context_doc: Option<&str>,
        engine: Engine,
        deadline: Option<Duration>,
    ) -> Result<ExecReply, ServeError> {
        let trace_id = next_trace_id();
        let t_start = Instant::now();
        let snapshot = self.snapshot();
        let generation = snapshot.generation;

        let prep0 = Instant::now();
        let (prepared, cached) = match self.prepare_on_snapshot(&snapshot, query, context_doc) {
            Ok(v) => v,
            Err(e) => {
                self.offer_anomaly(
                    trace_id,
                    query,
                    engine,
                    generation,
                    FlightOutcome::Error { code: e.code(), message: e.to_string() },
                    t_start.elapsed(),
                    vec![("prepare", prep0.elapsed().as_micros() as u64)],
                    None,
                );
                return Err(e);
            }
        };
        let prepare = prep0.elapsed();
        let fingerprint = plan_fingerprint(&prepared, generation);

        match self.execute_prepared(Arc::clone(&snapshot), Arc::clone(&prepared), engine, deadline)
        {
            Ok(mut reply) => {
                reply.cached_plan = cached;
                reply.trace_id = trace_id;
                reply.prepare = prepare;
                let slack = deadline.map(|d| {
                    d.as_micros() as i64 - (prepare + reply.queue_wait + reply.wall).as_micros() as i64
                });
                self.offer_result(&snapshot, &prepared, &reply, fingerprint, slack);
                Ok(reply)
            }
            Err(e) => {
                let outcome = match &e {
                    ServeError::Overloaded { .. } => FlightOutcome::Shed,
                    ServeError::DeadlineExceeded => FlightOutcome::Deadline,
                    other => {
                        FlightOutcome::Error { code: other.code(), message: other.to_string() }
                    }
                };
                let total = t_start.elapsed();
                let slack = deadline.map(|d| d.as_micros() as i64 - total.as_micros() as i64);
                self.offer_anomaly(
                    trace_id,
                    query,
                    engine,
                    generation,
                    outcome,
                    total,
                    vec![("prepare", prepare.as_micros() as u64)],
                    Some((fingerprint, slack)),
                );
                Err(e)
            }
        }
    }

    /// Submit an already-prepared plan against a pinned snapshot and wait
    /// for the worker's reply; [`Server::execute`] adds the trace id and
    /// the flight recording around it.
    fn execute_prepared(
        &self,
        snapshot: Arc<Snapshot>,
        prepared: Arc<Prepared>,
        engine: Engine,
        deadline: Option<Duration>,
    ) -> Result<ExecReply, ServeError> {
        let deadline = deadline.map(|d| Instant::now() + d);
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            prepared,
            snapshot,
            engine,
            deadline,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        let queue = self.queue.as_ref().ok_or(ServeError::Shutdown)?;
        // Count the job in *before* sending: a worker can dequeue (and
        // decrement) the instant `try_send` returns, so incrementing
        // afterwards would race the counter below zero. The jgi-model
        // `queue-accounting` model certifies this order and refutes the
        // old one (`regression-queue-pre-pr6`).
        // relaxed: depth counter next to the channel; the channel's own
        // synchronization orders the job hand-off, the counter only feeds
        // metrics and tolerates lag (audit: DESIGN.md §10).
        let len = self.state.queue_len.fetch_add_relaxed(1) + 1;
        match queue.try_send(job) {
            Ok(()) => {
                self.state.registry.gauge("serve.queue.depth", len as i64);
            }
            Err(TrySendError::Full(_)) => {
                // relaxed: rollback of the increment above, same argument.
                self.state.queue_len.fetch_sub_relaxed(1);
                self.state.registry.counter("serve.admission.shed", 1);
                return Err(ServeError::Overloaded {
                    queue_depth: self.state.config.queue_depth,
                });
            }
            Err(TrySendError::Disconnected(_)) => {
                // relaxed: rollback of the increment above, same argument.
                self.state.queue_len.fetch_sub_relaxed(1);
                return Err(ServeError::Shutdown);
            }
        }
        reply_rx.recv().map_err(|_| ServeError::Shutdown)?
    }

    /// The service registry (always-on counters, gauges, window
    /// histograms). The protocol layer deposits its serialize timings
    /// here.
    pub fn registry(&self) -> &Registry {
        &self.state.registry
    }

    /// A flattened copy of the service metrics (lifetime histograms) —
    /// the pre-registry shape, kept for `STATS` and the repo benchmark.
    pub fn metrics(&self) -> Metrics {
        self.state.registry.snapshot().to_metrics()
    }

    /// Cache accounting.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.lock().stats()
    }

    /// The `METRICS` reply: this server's registry rendered as Prometheus
    /// text exposition (prefix `jgi_`).
    pub fn metrics_prometheus(&self) -> String {
        render_prometheus(&self.state.registry.snapshot(), "jgi_")
    }

    /// The `TRACE n` payload: the n most interesting retained requests,
    /// slowest first, one JSON object each. The expensive diagnostics —
    /// EXPLAIN ANALYZE re-derivation, report JSON — are rendered *here*,
    /// from the cheap handles the record kept, so dumping is where the
    /// cost lands, never the serving path. `explain` is `null` once a
    /// commit has retired the database the request ran on (the record
    /// does not keep it alive); the report is always there. Records are
    /// cloned out of the lock first (clones are `Arc` bumps plus a report
    /// copy), so a slow render never blocks admission.
    pub fn trace_dump(&self, n: usize) -> Vec<Json> {
        let records: Vec<FlightRecord<Option<FlightPayload>>> = {
            let flight = self.state.flight.lock();
            flight.dump(n).into_iter().cloned().collect()
        };
        records
            .into_iter()
            .map(|r| {
                let mut json = r.to_json();
                if let (Json::Obj(fields), Some(p)) = (&mut json, &r.payload) {
                    // EXPLAIN ANALYZE from the run's own ExecStats:
                    // re-deriving the physical plan is deterministic given
                    // (db, cq) and the join strategy the run planned under,
                    // so the recorded actuals line up operator-for-operator
                    // without re-executing.
                    if let (Some(cq), Some(planning), Some(exec)) =
                        (p.prepared.plannable_cq(), &p.report.optimizer, &p.report.exec)
                    {
                        let explain = p.db.upgrade().map_or(Json::Null, |db| {
                            let opts = PlanOptions {
                                join: self.state.config.budgets.join,
                                ..PlanOptions::default()
                            };
                            let plan = jgi_engine::optimizer::plan_opts(&db, cq, &opts);
                            Json::Str(jgi_engine::explain::render_analyze(
                                &db,
                                &plan,
                                planning,
                                p.report.plan_cached,
                                exec,
                            ))
                        });
                        fields.push(("explain".into(), explain));
                    }
                    fields.push(("plan_cached".into(), Json::Bool(p.report.plan_cached)));
                    fields.push(("report".into(), p.report.to_json()));
                }
                json
            })
            .collect()
    }

    /// Flight-recorder accounting: `(retained, offered, admitted)`.
    pub fn flight_stats(&self) -> (usize, u64, u64) {
        let flight = self.state.flight.lock();
        let (offered, admitted) = flight.stats();
        (flight.len(), offered, admitted)
    }

    /// One JSON object describing the live service (the `STATS` reply).
    pub fn stats_json(&self) -> Json {
        let snapshot = self.snapshot();
        let (cache_len, cs, gens) = {
            let cache = self.state.cache.lock();
            (cache.len(), cache.stats(), cache.generation_stats().collect::<Vec<_>>())
        };
        let (flight_len, flight_offered, flight_admitted) = self.flight_stats();
        let metrics = self.metrics();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("generation".into(), Json::UInt(snapshot.generation)),
            ("documents".into(), Json::UInt(snapshot.documents() as u64)),
            ("nodes".into(), Json::UInt(snapshot.node_count())),
            (
                "docs".into(),
                Json::Arr(
                    snapshot
                        .docs
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("uri", Json::Str(d.snap.uri.clone())),
                                ("version", Json::UInt(d.snap.version)),
                                ("nodes", Json::UInt(d.snap.store.len() as u64)),
                                ("base_pre", Json::UInt(d.base_pre as u64)),
                                ("store_bytes", Json::UInt(d.snap.store.heap_bytes() as u64)),
                                (
                                    "index_bytes",
                                    Json::obj(d.snap.db.indexes.iter().map(|i| {
                                        (i.name.clone(), Json::UInt(i.btree.heap_bytes() as u64))
                                    })),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("workers".into(), Json::UInt(self.workers.len() as u64)),
            ("queue_depth".into(), Json::UInt(self.state.config.queue_depth as u64)),
            (
                "queue_len".into(),
                // relaxed: point-in-time stats read of a metrics counter.
                Json::UInt(self.state.queue_len.load_relaxed() as u64),
            ),
            (
                "cache".into(),
                Json::obj([
                    ("len", Json::UInt(cache_len as u64)),
                    ("capacity", Json::UInt(self.state.config.cache_capacity as u64)),
                    ("hits", Json::UInt(cs.hits)),
                    ("misses", Json::UInt(cs.misses)),
                    ("evictions", Json::UInt(cs.evictions)),
                    ("invalidations", Json::UInt(cs.invalidations)),
                    ("invalidated_docs", Json::UInt(cs.invalidated_docs)),
                    ("hit_rate", Json::Num(cs.hit_rate())),
                    (
                        "generations",
                        Json::Arr(
                            gens.into_iter()
                                .map(|(g, s)| {
                                    Json::obj([
                                        ("generation", Json::UInt(g)),
                                        ("hits", Json::UInt(s.hits)),
                                        ("misses", Json::UInt(s.misses)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "flight".into(),
                Json::obj([
                    ("capacity", Json::UInt(FLIGHT_CAPACITY as u64)),
                    ("retained", Json::UInt(flight_len as u64)),
                    ("offered", Json::UInt(flight_offered)),
                    ("admitted", Json::UInt(flight_admitted)),
                ]),
            ),
            ("metrics".into(), metrics.to_json()),
        ])
    }

    /// Offer a completed (ok / dnf) request to the flight recorder. The
    /// record is only assembled when it would actually be admitted, and
    /// even then it carries only cheap handles ([`FlightPayload`]) — the
    /// EXPLAIN ANALYZE re-derivation and report JSON render are deferred
    /// to [`Server::trace_dump`], off the serving path.
    fn offer_result(
        &self,
        snapshot: &Arc<Snapshot>,
        prepared: &Arc<Prepared>,
        reply: &ExecReply,
        fingerprint: String,
        deadline_slack_us: Option<i64>,
    ) {
        let total_us = (reply.prepare + reply.queue_wait + reply.wall).as_micros() as u64;
        let outcome = match &reply.nodes {
            Some(n) => FlightOutcome::Ok { rows: n.len() as u64 },
            None => FlightOutcome::Dnf,
        };
        if !outcome.is_anomaly()
            && !self.state.flight.lock().would_admit_slow(total_us)
        {
            return;
        }
        let mut phases = vec![
            ("queue", reply.queue_wait.as_micros() as u64),
            ("prepare", reply.prepare.as_micros() as u64),
        ];
        for name in jgi_core::PHASES {
            if let Some(d) = reply.report.phase(name) {
                phases.push((name, d.as_micros() as u64));
            }
        }
        let record = FlightRecord {
            trace_id: reply.trace_id,
            query: prepared.text.clone(),
            engine: reply.engine.label().to_string(),
            outcome,
            total_us,
            phases,
            cached_plan: reply.cached_plan,
            generation: reply.generation,
            deadline_slack_us,
            plan_fingerprint: fingerprint,
            payload: Some(FlightPayload {
                // Re-resolve the segment the worker executed against (same
                // snapshot, same dependency set → same segment).
                db: Arc::downgrade(&snapshot.resolve(&prepared.docs).0.db),
                prepared: Arc::clone(prepared),
                report: reply.report.clone(),
            }),
        };
        // Offer-time re-check inside `offer` keeps the pre-check gap
        // benign (jgi-model `flight-ring-admission` certifies the TOCTOU).
        self.state.flight.lock().offer(record);
    }

    /// Offer a failed request (shed / deadline / error) to the flight
    /// recorder. Anomalies always admit, so no pre-check.
    #[allow(clippy::too_many_arguments)]
    fn offer_anomaly(
        &self,
        trace_id: u64,
        query: &str,
        engine: Engine,
        generation: u64,
        outcome: FlightOutcome,
        total: Duration,
        phases: Vec<(&'static str, u64)>,
        fingerprint_slack: Option<(String, Option<i64>)>,
    ) {
        let (plan_fingerprint, deadline_slack_us) = match fingerprint_slack {
            Some((f, s)) => (f, s),
            None => (String::new(), None),
        };
        let record = FlightRecord {
            trace_id,
            query: query.to_string(),
            engine: engine.label().to_string(),
            outcome,
            total_us: total.as_micros() as u64,
            phases,
            cached_plan: false,
            generation,
            deadline_slack_us,
            plan_fingerprint,
            payload: None,
        };
        self.state.flight.lock().offer(record);
    }
}

/// Lazy flight-record payload: cheap handles captured at offer time. The
/// database is the exact segment (document + version) the request
/// executed against, held **weakly**: a retained record must not keep a
/// retired document version (indexes and all) resident, or a full
/// recorder pins one dead version per slot while commits land.
#[derive(Clone)]
struct FlightPayload {
    db: Weak<Database>,
    prepared: Arc<Prepared>,
    report: QueryReport,
}

impl std::fmt::Debug for FlightPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightPayload")
            .field("query", &self.prepared.text)
            .finish_non_exhaustive()
    }
}

/// Hash the join-graph SQL (the query text when the plan has none) plus
/// the snapshot generation: requests with equal fingerprints ran the same
/// plan shape against the same document set.
fn plan_fingerprint(prepared: &Prepared, generation: u64) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    prepared.sql.as_deref().unwrap_or(&prepared.text).hash(&mut h);
    generation.hash(&mut h);
    format!("{:016x}", h.finish())
}

impl Drop for Server {
    /// Graceful shutdown: close the queue, let every worker drain and
    /// exit, join them all.
    fn drop(&mut self) {
        drop(self.queue.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, state: &State) {
    loop {
        // Hold the receiver lock only for the blocking recv: exactly one
        // idle worker waits in recv, the rest wait on the lock; a finished
        // worker re-queues for the lock, so dispatch stays fair enough and
        // execution itself is fully parallel.
        let job = match rx.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed: graceful shutdown
        };
        // relaxed: paired with the producer's increment-before-enqueue;
        // see `execute_prepared` (audit: DESIGN.md §10).
        let len = state.queue_len.fetch_sub_relaxed(1).saturating_sub(1);
        let queue_wait = job.enqueued.elapsed();
        if job.deadline.is_some_and(|d| Instant::now() > d) {
            let mut reg = state.registry.batch();
            reg.gauge("serve.queue.depth", len as i64);
            reg.counter("serve.requests", 1);
            reg.counter("serve.deadline.missed", 1);
            reg.observe_us("serve.queue_us", queue_wait);
            drop(reg);
            let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
            continue;
        }
        // Route the plan to its document's segment (the whole corpus is
        // single-document) or the combined view, then lift result ranks
        // back into the global numbering.
        let (segment, base_pre) = job.snapshot.resolve(&job.prepared.docs);
        let ctx = segment.ctx(job.snapshot.budgets);
        let result = execute_prepared(&ctx, &job.prepared, job.engine);
        // One lock acquisition records the whole request.
        let mut reg = state.registry.batch();
        reg.gauge("serve.queue.depth", len as i64);
        reg.counter("serve.requests", 1);
        reg.observe_us("serve.queue_us", queue_wait);
        let reply = match result {
            Ok(outcome) => {
                reg.observe_us("serve.latency_us", outcome.wall);
                reg.observe_us("serve.total_us", queue_wait + outcome.wall);
                // Fold this execution's counters into the service totals;
                // the compile's rewrite counters were folded on the miss.
                reg.merge_counters(outcome.report.exec_counters());
                if outcome.report.optimizer.is_some() {
                    let hit = outcome.report.plan_cached;
                    reg.counter(if hit { "serve.plan_memo.hit" } else { "serve.plan_memo.miss" }, 1);
                }
                drop(reg);
                Ok(ExecReply {
                    deadline_exceeded: job.deadline.is_some_and(|d| Instant::now() > d),
                    nodes: outcome
                        .nodes
                        .map(|v| v.into_iter().map(|p| p + base_pre).collect()),
                    wall: outcome.wall,
                    queue_wait,
                    prepare: Duration::ZERO, // caller fills in
                    cached_plan: false,      // caller fills in
                    engine: job.engine,
                    generation: job.snapshot.generation,
                    trace_id: 0, // caller fills in
                    report: outcome.report,
                })
            }
            Err(e) => {
                reg.counter("serve.errors", 1);
                drop(reg);
                Err(ServeError::Session(e))
            }
        };
        // A vanished client (closed reply channel) is not a worker error.
        let _ = job.reply.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_engine::optimizer::JoinStrategy;
    use jgi_xml::generate::{generate_xmark, XmarkConfig};

    fn server() -> Server {
        let s = Server::new(ServeConfig {
            workers: 2,
            queue_depth: 8,
            cache_capacity: 16,
            ..ServeConfig::default()
        });
        s.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
        s
    }

    /// Concurrent misses on one key compile exactly once: the leader's
    /// compile is the only miss, every other thread is served from its
    /// insert (first-probe hit or reclassified wait-hit — either way the
    /// counts are deterministic).
    #[test]
    fn concurrent_misses_single_flight() {
        let s = Arc::new(server());
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let s = Arc::clone(&s);
                jgi_sync::thread::spawn_named(&format!("sf-client-{i}"), move || {
                    s.execute(q, None, Engine::JoinGraph, None).expect("executes").nodes
                })
            })
            .collect();
        let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| w[0] == w[1]), "all clients agree");
        let stats = s.cache_stats();
        assert_eq!(stats.misses, 1, "one compile for four concurrent requests");
        assert_eq!(stats.hits, 3);
        // The flight table drains once the insert lands.
        assert!(s.state.flights.lock().is_empty());
    }

    #[test]
    fn executes_and_caches() {
        let s = server();
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        let first = s.execute(q, None, Engine::JoinGraph, None).unwrap();
        assert!(!first.cached_plan);
        assert!(first.nodes.as_ref().is_some_and(|n| !n.is_empty()));
        let second = s.execute(q, None, Engine::JoinGraph, None).unwrap();
        assert!(second.cached_plan, "second request hits the plan cache");
        assert_eq!(first.nodes, second.nodes);
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 1));
        // Tracing: distinct ids, report riding on the reply.
        assert_ne!(first.trace_id, 0);
        assert_ne!(first.trace_id, second.trace_id);
        assert_eq!(first.report.rows, first.nodes.as_ref().map(|n| n.len()));
    }

    #[test]
    fn frontend_errors_do_not_kill_workers() {
        let s = server();
        let err = s.execute("for $x in", None, Engine::JoinGraph, None);
        assert!(matches!(err, Err(ServeError::Session(_))));
        // The pool is still alive and serving.
        let ok = s
            .execute(r#"doc("auction.xml")/descendant::bidder"#, None, Engine::Stacked, None)
            .unwrap();
        assert!(ok.nodes.is_some());
    }

    /// A join graph wider than the planner's alias bound runs on the
    /// isolated-plan interpreter instead of panicking a worker: more such
    /// requests than the pool has workers all answer, agree with the
    /// navigational evaluator, and the pool serves on.
    #[test]
    fn oversized_join_graphs_do_not_kill_workers() {
        let s = server();
        // doc + open_auction + 19 nested bidder steps: 21 aliases.
        let q = format!(
            r#"doc("auction.xml")/descendant::open_auction{}{}"#,
            "[bidder".repeat(19),
            "]".repeat(19)
        );
        let (prepared, _) = s.prepare(&q, None).unwrap();
        let aliases = prepared.cq.as_ref().map(|cq| cq.aliases);
        assert!(aliases > Some(jgi_engine::optimizer::MAX_ALIASES), "{aliases:?} aliases");
        let expected = s.execute(&q, None, Engine::NavWhole, None).unwrap().nodes;
        for _ in 0..3 {
            let reply = s.execute(&q, None, Engine::JoinGraph, None).expect("answers");
            assert_eq!(reply.nodes, expected);
        }
        let q1 = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        assert!(s.execute(q1, None, Engine::JoinGraph, None).is_ok());
    }

    #[test]
    fn document_load_keeps_unrelated_plans_cached() {
        let s = server();
        let q = r#"doc("auction.xml")/descendant::bidder"#;
        let before = s.execute(q, None, Engine::JoinGraph, None).unwrap();
        let g = s.load_xml("extra.xml", "<a><b>1</b></a>").unwrap();
        assert_eq!(g, 2);
        let after = s.execute(q, None, Engine::JoinGraph, None).unwrap();
        assert!(after.cached_plan && after.report.plan_cached, "an unrelated load costs nothing");
        assert_eq!(after.generation, 2);
        assert_eq!(before.nodes, after.nodes, "old document unchanged");
        let extra = s
            .execute(r#"doc("extra.xml")/child::a/child::b"#, None, Engine::JoinGraph, None)
            .unwrap();
        assert_eq!(extra.nodes.map(|n| n.len()), Some(1));
        // Reloading the document the query reads keeps the compiled query
        // too: only the physical plan is rebuilt, and the answer is the
        // new document's.
        let misses = s.cache_stats().misses;
        let reload = generate_xmark(XmarkConfig { scale: 0.003, seed: 7 });
        let mut fresh = jgi_core::Session::new();
        fresh.add_tree(reload.clone());
        let p = fresh.prepare(q, None).unwrap();
        let expected = fresh.execute(&p, Engine::NavWhole).unwrap().nodes;
        s.add_tree(reload);
        let reloaded = s.execute(q, None, Engine::JoinGraph, None).unwrap();
        assert!(reloaded.cached_plan, "a reload of auction.xml recompiles nothing");
        assert!(!reloaded.report.plan_cached, "but re-plans against the new database");
        assert_eq!(reloaded.nodes, expected, "and answers from the reloaded document");
        assert_ne!(reloaded.nodes, before.nodes);
        let cs = s.cache_stats();
        assert_eq!(cs.misses, misses, "no compile since the reload");
        assert_eq!((cs.invalidations, cs.invalidated_docs), (0, 0));
    }

    #[test]
    fn commit_mutates_queries_and_purges_only_dependents() {
        let s = server();
        s.load_xml("extra.xml", "<a><b>1</b></a>").unwrap();
        let qa = r#"doc("auction.xml")/descendant::bidder"#;
        let qe = r#"doc("extra.xml")/child::a/child::b"#;
        let bidders = s.execute(qa, None, Engine::JoinGraph, None).unwrap();
        let before = s.execute(qe, None, Engine::JoinGraph, None).unwrap();
        assert_eq!(before.nodes.as_ref().map(|n| n.len()), Some(1));
        let warm = s.cache_stats();
        // Insert a second <b> under extra.xml's root element. extra.xml
        // loads after auction.xml, so its root element sits at global
        // base_pre + 1.
        let base = s.snapshot().docs[1].base_pre;
        let out = s
            .commit(&[Op::Insert { parent: base + 1, pos: 1, xml: "<b>2</b>".into() }])
            .expect("commit applies");
        assert_eq!(out.touched, vec![("extra.xml".to_string(), 2)]);
        let after = s.execute(qe, None, Engine::JoinGraph, None).unwrap();
        assert!(after.cached_plan, "a commit recompiles nothing");
        assert!(!after.report.plan_cached, "the touched document's query re-plans once");
        assert_eq!(after.nodes.map(|n| n.len()), Some(2), "insert is visible");
        let again = s.execute(qa, None, Engine::JoinGraph, None).unwrap();
        assert!(again.cached_plan && again.report.plan_cached, "auction.xml was not touched");
        assert_eq!(again.nodes, bidders.nodes, "auction results untouched");
        let cs = s.cache_stats();
        assert_eq!(cs.misses, warm.misses, "the commit cost no compile");
        assert_eq!((cs.invalidations, cs.invalidated_docs), (0, 0));
        // A bad batch is rejected atomically and leaves state alone.
        let err = s.commit(&[
            Op::Insert { parent: base + 1, pos: 0, xml: "<c/>".into() },
            Op::Delete { pre: 1_000_000 },
        ]);
        assert!(matches!(err, Err(ServeError::Mutate(_))));
        let still = s.execute(qe, None, Engine::JoinGraph, None).unwrap();
        assert!(still.report.plan_cached, "same database as the previous execution");
        assert_eq!(still.nodes.map(|n| n.len()), Some(2), "failed batch applied nothing");
        let m = s.metrics();
        assert_eq!(m.counter_value("serve.plan_memo.miss"), 3, "qa, qe, qe after the commit");
        assert_eq!(m.counter_value("serve.plan_memo.hit"), 2);
    }

    #[test]
    fn elapsed_deadline_is_refused() {
        let s = server();
        let err = s.execute(
            r#"doc("auction.xml")/descendant::bidder"#,
            None,
            Engine::JoinGraph,
            Some(Duration::ZERO),
        );
        assert!(matches!(err, Err(ServeError::DeadlineExceeded)));
        let m = s.metrics();
        assert_eq!(m.counter_value("serve.deadline.missed"), 1);
    }

    #[test]
    fn flight_recorder_retains_successes_and_anomalies() {
        let s = server();
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        s.execute(q, None, Engine::JoinGraph, None).unwrap();
        let _ = s.execute("for $x in", None, Engine::JoinGraph, None);
        let _ = s.execute(q, None, Engine::JoinGraph, Some(Duration::ZERO));
        let dump = s.trace_dump(16);
        assert!(dump.len() >= 3, "got {} records", dump.len());
        let rendered: Vec<String> = dump.iter().map(|j| j.render()).collect();
        let ok = rendered
            .iter()
            .find(|r| r.contains("\"status\":\"ok\""))
            .expect("successful request retained");
        assert!(ok.contains("\"explain\":\""), "success carries EXPLAIN ANALYZE: {ok}");
        assert!(ok.contains(" PLAN (planned, states="), "the first execution planned: {ok}");
        assert!(ok.contains("\"plan_cached\":false"), "{ok}");
        assert!(ok.contains("\"report\":{"), "success carries the full report");
        assert!(ok.contains("\"queue\":"), "per-phase breakdown present");
        assert!(ok.contains("\"execute\":"), "pipeline phases present");
        assert!(rendered.iter().any(|r| r.contains("\"status\":\"error\"")));
        let deadline = rendered
            .iter()
            .find(|r| r.contains("\"status\":\"deadline\""))
            .expect("deadline refusal retained");
        assert!(deadline.contains("\"deadline_slack_us\":-"), "negative slack: {deadline}");
        // All trace ids distinct.
        let (retained, offered, admitted) = s.flight_stats();
        assert_eq!(retained as u64, admitted);
        assert_eq!(offered, 3);
    }

    /// `TRACE` renders the plan the request ran: under a forced join
    /// strategy, not the plan `auto` would pick.
    #[test]
    fn trace_explains_the_plan_of_the_forced_strategy() {
        let q7 = r#"let $a := doc("auction.xml")
            for $p in $a//person, $b in $a//open_auction/bidder
            where $b/personref/@person = $p/@id return $p/name"#;
        for (join, hsjoin) in [(JoinStrategy::Nl, false), (JoinStrategy::Hash, true)] {
            let mut config = ServeConfig::default();
            config.budgets.join = join;
            let s = Server::new(config);
            s.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
            s.execute(q7, None, Engine::JoinGraph, None).unwrap();
            let dump: Vec<String> = s.trace_dump(16).iter().map(|j| j.render()).collect();
            let explain = dump.iter().find(|r| r.contains("\"explain\":\"")).expect("explained");
            assert_eq!(explain.contains("HSJOIN"), hsjoin, "join={join}: {explain}");
        }
    }

    /// `STATS` reports the worker threads that run, not the configured
    /// count: a pool configured with 0 workers still starts one.
    #[test]
    fn stats_report_the_running_worker_count() {
        let s = Server::new(ServeConfig { workers: 0, ..ServeConfig::default() });
        let Json::Obj(fields) = s.stats_json() else { panic!("STATS is an object") };
        let workers = fields.iter().find(|(k, _)| k == "workers").map(|(_, v)| v.render());
        assert_eq!(workers.as_deref(), Some("1"));
    }

    #[test]
    fn a_zero_queue_depth_admits_sequential_requests() {
        let s = Server::new(ServeConfig { queue_depth: 0, workers: 1, ..ServeConfig::default() });
        s.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        for _ in 0..2 {
            s.execute(q, None, Engine::JoinGraph, None).expect("an idle server admits the request");
        }
        let Json::Obj(fields) = s.stats_json() else { panic!("STATS is an object") };
        let depth = fields.iter().find(|(k, _)| k == "queue_depth").map(|(_, v)| v.render());
        assert_eq!(depth.as_deref(), Some("1"), "STATS reports the depth in force");
    }

    #[test]
    fn prometheus_exposition_is_valid_and_complete() {
        let s = server();
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        s.execute(q, None, Engine::JoinGraph, None).unwrap();
        s.execute(q, None, Engine::JoinGraph, None).unwrap();
        let text = s.metrics_prometheus();
        jgi_obs::expo::validate_exposition(&text).expect("valid exposition");
        for needle in [
            "jgi_serve_requests_total 2",
            "jgi_serve_cache_hit_total 1",
            "jgi_serve_cache_miss_total 1",
            // Pre-registered at startup: present (at zero) without events.
            "jgi_serve_admission_shed_total 0",
            "jgi_serve_deadline_missed_total 0",
            "jgi_serve_errors_total 0",
            "jgi_serve_plan_memo_miss_total 1",
            "jgi_serve_plan_memo_hit_total 1",
            "# TYPE jgi_serve_total_us summary",
            "jgi_serve_total_us{quantile=\"0.99\"}",
            "jgi_serve_total_us_count 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
