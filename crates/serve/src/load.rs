//! Closed-loop load generation over the Q1–Q8 paper corpus.
//!
//! `loadgen` answers the serving-layer question the paper's Table 9
//! cannot: not *how fast is one query*, but *how many queries per second
//! does the shared workhorse sustain* once compilation is cached and
//! execution is spread over a worker pool. The harness:
//!
//! 1. measures a **baseline**: one thread, a fresh [`Session`] per query
//!    (documents re-added, indexes rebuilt, plan recompiled — the
//!    pre-serving cost model), recording reference results;
//! 2. starts a [`Server`], loads the same documents, warms the plan
//!    cache with one `PREPARE` per corpus entry;
//! 3. runs N closed-loop client threads for a fixed duration, each
//!    cycling the corpus and checking every result against the baseline
//!    (zero divergence is an acceptance criterion, not a sample);
//! 4. renders the summary from the service's own `jgi-obs` histograms —
//!    the same stats code path the per-query reports use — as one
//!    `BENCH_serve.json` row.

use crate::cache::CacheStats;
use crate::server::{ServeConfig, Server};
use jgi_core::queries::paper_corpus;
use jgi_core::{Budgets, Engine, Parallelism, Session};
use jgi_mutate::Op;
use jgi_obs::{Json, Metrics};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use jgi_xml::Tree;
use jgi_sync::{AtomicU64, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Closed-loop client threads.
    pub threads: usize,
    /// Measured duration of the concurrent phase.
    pub duration: Duration,
    /// Server worker threads.
    pub workers: usize,
    /// Plan-cache capacity.
    pub cache_capacity: usize,
    /// XMark scale (documents match the bench harness: seed 42).
    pub xmark_scale: f64,
    /// DBLP publication count (seed 42).
    pub dblp_pubs: usize,
    /// Back-end every request runs on.
    pub engine: Engine,
    /// Full corpus passes in the baseline measurement.
    pub baseline_passes: usize,
    /// Intra-query parallelism for every execution (baseline and served).
    /// Defaults to `Fixed(1)`: a loaded service gets its parallelism from
    /// concurrent requests, so per-query fan-out is opt-in here.
    pub parallelism: Parallelism,
    /// Morsel-size override for the parallel partitioner (baseline and
    /// served alike); `None` keeps the engine default.
    pub morsel_size: Option<usize>,
    /// Physical join strategy for the join-graph planner (baseline and
    /// served alike). Defaults to cost-based selection.
    pub join: jgi_engine::optimizer::JoinStrategy,
    /// Always-on service telemetry (registry + flight recorder). The
    /// overhead benchmark runs one leg with this off.
    pub telemetry: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            threads: 8,
            duration: Duration::from_secs(2),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            cache_capacity: 64,
            xmark_scale: 0.002,
            dblp_pubs: 300,
            engine: Engine::JoinGraph,
            baseline_passes: 1,
            parallelism: Parallelism::Fixed(1),
            morsel_size: None,
            join: jgi_engine::optimizer::JoinStrategy::from_env(),
            telemetry: true,
        }
    }
}

/// One request's client-side phase breakdown, µs. `serialize_us` times
/// rendering the EXEC-shape JSON reply (what the protocol layer does);
/// `total_us` is the client-visible end-to-end time including it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSample {
    /// End-to-end client-visible latency.
    pub total_us: u64,
    /// Queue wait before a worker dequeued the job.
    pub queue_us: u64,
    /// Plan resolution (cache probe, compile on miss).
    pub prepare_us: u64,
    /// Execution wall-clock on the worker.
    pub exec_us: u64,
    /// Reply rendering.
    pub serialize_us: u64,
}

/// Everything one load run produced.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Configuration echo.
    pub config: LoadConfig,
    /// Wall-clock of the concurrent phase.
    pub elapsed: Duration,
    /// Completed requests (successful replies, dnf included).
    pub requests: u64,
    /// Requests that returned a structured error.
    pub errors: u64,
    /// Results that differed from the sequential baseline (must be 0).
    pub divergence: u64,
    /// Concurrent throughput, requests per second.
    pub qps: f64,
    /// Baseline throughput: single thread, fresh session per query.
    pub baseline_qps: f64,
    /// Client-visible latency percentiles (queue + execution), µs.
    pub p50_us: u64,
    /// 95th percentile latency, µs.
    pub p95_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Worst observed latency, µs.
    pub max_us: u64,
    /// Plan-cache accounting over the whole run.
    pub cache: CacheStats,
    /// Admission-control sheds (closed loop: expected 0).
    pub shed: u64,
    /// Deadline misses (no deadlines set here: expected 0).
    pub deadline_missed: u64,
    /// Full service metrics (for JGI_OBS-style inspection).
    pub metrics: Metrics,
    /// Per-request phase samples (client-side), for tail attribution.
    pub samples: Vec<PhaseSample>,
}

impl LoadSummary {
    /// Concurrent-over-baseline speedup.
    pub fn speedup(&self) -> f64 {
        if self.baseline_qps == 0.0 {
            0.0
        } else {
            self.qps / self.baseline_qps
        }
    }

    /// The `BENCH_serve.json` row. Key set is golden-tested — extend it,
    /// don't rename.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str("serve")),
            ("threads", Json::UInt(self.config.threads as u64)),
            ("workers", Json::UInt(self.config.workers as u64)),
            ("parallelism", Json::str(self.config.parallelism.to_string())),
            ("engine", Json::str(self.config.engine.name())),
            ("xmark_scale", Json::Num(self.config.xmark_scale)),
            ("dblp_pubs", Json::UInt(self.config.dblp_pubs as u64)),
            ("duration_ms", Json::UInt(self.elapsed.as_millis() as u64)),
            ("requests", Json::UInt(self.requests)),
            ("errors", Json::UInt(self.errors)),
            ("divergence", Json::UInt(self.divergence)),
            ("qps", Json::Num(self.qps)),
            ("baseline_qps", Json::Num(self.baseline_qps)),
            ("speedup_vs_fresh_session", Json::Num(self.speedup())),
            ("p50_us", Json::UInt(self.p50_us)),
            ("p95_us", Json::UInt(self.p95_us)),
            ("p99_us", Json::UInt(self.p99_us)),
            ("mean_us", Json::Num(self.mean_us)),
            ("max_us", Json::UInt(self.max_us)),
            ("cache_hits", Json::UInt(self.cache.hits)),
            ("cache_misses", Json::UInt(self.cache.misses)),
            ("cache_evictions", Json::UInt(self.cache.evictions)),
            ("cache_hit_rate", Json::Num(self.cache.hit_rate())),
            ("shed", Json::UInt(self.shed)),
            ("deadline_missed", Json::UInt(self.deadline_missed)),
        ])
    }

    /// Human-readable rendering for the terminal.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve load: {} threads x {:?} over Q1-Q8 ({} workers, engine {}, parallelism {})",
            self.config.threads,
            self.elapsed,
            self.config.workers,
            self.config.engine.name(),
            self.config.parallelism
        );
        let _ = writeln!(
            out,
            "  {} requests, {:.0} qps ({:.1}x the {:.0} qps fresh-session baseline)",
            self.requests,
            self.qps,
            self.speedup(),
            self.baseline_qps
        );
        let _ = writeln!(
            out,
            "  latency p50 {}us  p95 {}us  p99 {}us  mean {:.0}us  max {}us",
            self.p50_us, self.p95_us, self.p99_us, self.mean_us, self.max_us
        );
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses ({:.1}% hit rate), {} evictions",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache.evictions
        );
        let _ = writeln!(
            out,
            "  errors {}  divergence {}  shed {}  deadline misses {}",
            self.errors, self.divergence, self.shed, self.deadline_missed
        );
        out
    }
}

fn corpus_trees(cfg: &LoadConfig) -> (Tree, Tree) {
    (
        generate_xmark(XmarkConfig { scale: cfg.xmark_scale, seed: 42 }),
        generate_dblp(DblpConfig { publications: cfg.dblp_pubs, seed: 42 }),
    )
}

/// The baseline leg: one thread, a *fresh* `Session` per query — document
/// re-add, index rebuild, recompile, execute. Returns (qps, reference
/// results by query name).
fn baseline(
    cfg: &LoadConfig,
    xmark: &Tree,
    dblp: &Tree,
) -> (f64, HashMap<&'static str, Option<Vec<u32>>>) {
    let corpus = paper_corpus();
    let mut reference: HashMap<&'static str, Option<Vec<u32>>> = HashMap::new();
    let passes = cfg.baseline_passes.max(1);
    let t0 = Instant::now();
    for _ in 0..passes {
        for &(name, query, ctx) in &corpus {
            let mut session = Session::new();
            session.budgets.parallelism = cfg.parallelism;
            session.budgets.morsel_size = cfg.morsel_size;
            session.budgets.join = cfg.join;
            session.add_tree(xmark.clone());
            session.add_tree(dblp.clone());
            let prepared = session.prepare(query, ctx).expect("corpus compiles");
            let outcome = session.execute(&prepared, cfg.engine).expect("corpus executes");
            reference.insert(name, outcome.nodes);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let total = (passes * corpus.len()) as f64;
    (total / elapsed.max(1e-9), reference)
}

/// Run one full load measurement (baseline + concurrent phase).
pub fn run_load(cfg: &LoadConfig) -> LoadSummary {
    let (xmark, dblp) = corpus_trees(cfg);
    let (baseline_qps, reference) = baseline(cfg, &xmark, &dblp);
    let reference = Arc::new(reference);

    let server = Arc::new(Server::new(ServeConfig {
        workers: cfg.workers,
        // Closed loop: at most `threads` requests in flight, so a queue at
        // least that deep never sheds; sizing it exactly there keeps the
        // admission path honest if a client misbehaves.
        queue_depth: cfg.threads.max(4) * 2,
        cache_capacity: cfg.cache_capacity,
        default_deadline: None,
        budgets: Budgets {
            parallelism: cfg.parallelism,
            morsel_size: cfg.morsel_size,
            join: cfg.join,
            ..Budgets::default()
        },
        telemetry: cfg.telemetry,
        ..ServeConfig::default()
    }));
    server.add_tree(xmark);
    server.add_tree(dblp);

    // Cache warm-up: one compile per corpus entry.
    for &(_, query, ctx) in &paper_corpus() {
        server.prepare(query, ctx).expect("corpus compiles on server");
    }

    let requests = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let divergence = Arc::new(AtomicU64::new(0));
    let all_samples = Arc::new(Mutex::new(Vec::<PhaseSample>::new()));
    let deadline = Instant::now() + cfg.duration;
    let t0 = Instant::now();
    let clients: Vec<_> = (0..cfg.threads.max(1))
        .map(|i| {
            let server = Arc::clone(&server);
            let reference = Arc::clone(&reference);
            let requests = Arc::clone(&requests);
            let errors = Arc::clone(&errors);
            let divergence = Arc::clone(&divergence);
            let all_samples = Arc::clone(&all_samples);
            let engine = cfg.engine;
            jgi_sync::thread::spawn_named(&format!("loadgen-client-{i}"), move || {
                    let corpus = paper_corpus();
                    let mut samples = Vec::new();
                    // Stagger starting offsets so threads don't convoy on
                    // the same query.
                    let mut at = i % corpus.len();
                    while Instant::now() < deadline {
                        let (name, query, ctx) = corpus[at];
                        at = (at + 1) % corpus.len();
                        let t_req = Instant::now();
                        match server.execute(query, ctx, engine, None) {
                            Ok(reply) => {
                                // relaxed: monotone load-harness tallies; only
                                // read after every client thread is joined, so
                                // the joins order the final loads.
                                requests.fetch_add_relaxed(1);
                                if reference.get(name) != Some(&reply.nodes) {
                                    // relaxed: same tally discipline.
                                    divergence.fetch_add_relaxed(1);
                                }
                                // Time the serialize phase exactly as the
                                // protocol layer would render this reply.
                                let t_ser = Instant::now();
                                let line = Json::obj([
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
                                    (
                                        "trace_id",
                                        Json::str(format!("{:016x}", reply.trace_id)),
                                    ),
                                    ("wall_us", Json::UInt(reply.wall.as_micros() as u64)),
                                    (
                                        "queue_us",
                                        Json::UInt(reply.queue_wait.as_micros() as u64),
                                    ),
                                    ("cached", Json::Bool(reply.cached_plan)),
                                    ("generation", Json::UInt(reply.generation)),
                                ])
                                .render();
                                std::hint::black_box(line.len());
                                let serialize = t_ser.elapsed();
                                samples.push(PhaseSample {
                                    total_us: (t_req.elapsed()).as_micros() as u64,
                                    queue_us: reply.queue_wait.as_micros() as u64,
                                    prepare_us: reply.prepare.as_micros() as u64,
                                    exec_us: reply.wall.as_micros() as u64,
                                    serialize_us: serialize.as_micros() as u64,
                                });
                            }
                            Err(_) => {
                                // relaxed: same tally discipline as `requests`.
                                errors.fetch_add_relaxed(1);
                            }
                        }
                    }
                    all_samples.lock().extend(samples);
                })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let elapsed = t0.elapsed();
    let samples = Arc::try_unwrap(all_samples).map(Mutex::into_inner).unwrap_or_default();

    let metrics = server.metrics();
    let lat = metrics.histogram("serve.total_us").cloned().unwrap_or_default();
    // relaxed: all clients are joined above; the loads race with nothing.
    let requests = requests.load_relaxed();
    LoadSummary {
        config: cfg.clone(),
        elapsed,
        requests,
        // relaxed: post-join reads, same as `requests` above.
        errors: errors.load_relaxed(),
        divergence: divergence.load_relaxed(),
        qps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        baseline_qps,
        p50_us: lat.percentile(0.50).unwrap_or(0),
        p95_us: lat.percentile(0.95).unwrap_or(0),
        p99_us: lat.percentile(0.99).unwrap_or(0),
        mean_us: lat.mean().unwrap_or(0.0),
        max_us: lat.max().unwrap_or(0),
        cache: server.cache_stats(),
        shed: metrics.counter_value("serve.admission.shed"),
        deadline_missed: metrics.counter_value("serve.deadline.missed"),
        metrics,
        samples,
    }
}

/// Mean of one phase across a sample slice, µs.
fn phase_mean(samples: &[PhaseSample], f: impl Fn(&PhaseSample) -> u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| f(s) as f64).sum::<f64>() / samples.len() as f64
}

/// Exact percentile over client-side samples (sorted copy).
fn sample_percentile(sorted_totals: &[u64], q: f64) -> u64 {
    if sorted_totals.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_totals.len() as f64).ceil() as usize).clamp(1, sorted_totals.len());
    sorted_totals[rank - 1]
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite qps"));
    values[values.len() / 2]
}

/// Per-phase attribution of the p99 latency tail: where does a slow
/// request actually spend its time?
#[derive(Debug, Clone, Default)]
pub struct TailAttribution {
    /// The p99 threshold (exact, over client-side samples), µs.
    pub p99_us: u64,
    /// Requests at or above the threshold.
    pub samples: usize,
    /// Mean time per phase within the tail, µs.
    pub queue_us: f64,
    /// Mean prepare time within the tail, µs.
    pub prepare_us: f64,
    /// Mean execution time within the tail, µs.
    pub exec_us: f64,
    /// Mean serialization time within the tail, µs.
    pub serialize_us: f64,
    /// Mean end-to-end time within the tail, µs.
    pub total_us: f64,
}

impl TailAttribution {
    fn from_samples(samples: &[PhaseSample]) -> TailAttribution {
        let mut totals: Vec<u64> = samples.iter().map(|s| s.total_us).collect();
        totals.sort_unstable();
        let p99 = sample_percentile(&totals, 0.99);
        let tail: Vec<PhaseSample> =
            samples.iter().filter(|s| s.total_us >= p99).copied().collect();
        TailAttribution {
            p99_us: p99,
            samples: tail.len(),
            queue_us: phase_mean(&tail, |s| s.queue_us),
            prepare_us: phase_mean(&tail, |s| s.prepare_us),
            exec_us: phase_mean(&tail, |s| s.exec_us),
            serialize_us: phase_mean(&tail, |s| s.serialize_us),
            total_us: phase_mean(&tail, |s| s.total_us),
        }
    }

    /// One phase's share of the tail's end-to-end time, percent.
    pub fn pct(&self, phase_us: f64) -> f64 {
        if self.total_us == 0.0 {
            0.0
        } else {
            100.0 * phase_us / self.total_us
        }
    }
}

/// The telemetry benchmark: interleaved on/off legs measuring what the
/// always-on registry + flight recorder cost, plus p99 tail attribution.
#[derive(Debug, Clone)]
pub struct ObsBenchSummary {
    /// Configuration echo (the telemetry-on leg's config).
    pub config: LoadConfig,
    /// Interleaved (on, off) run pairs.
    pub runs: usize,
    /// Median throughput with telemetry on, requests/s.
    pub qps_on: f64,
    /// Median throughput with telemetry off, requests/s.
    pub qps_off: f64,
    /// Median client-side p50 latency with telemetry on, µs.
    pub p50_on_us: u64,
    /// Median client-side p50 latency with telemetry off, µs.
    pub p50_off_us: u64,
    /// Errors across every leg (expected 0).
    pub errors: u64,
    /// Baseline divergence across every leg (must be 0).
    pub divergence: u64,
    /// Requests completed across the telemetry-on legs.
    pub requests_on: u64,
    /// Requests completed across the telemetry-off legs.
    pub requests_off: u64,
    /// p99 tail attribution, over every telemetry-on sample.
    pub tail: TailAttribution,
}

impl ObsBenchSummary {
    /// Throughput cost of always-on telemetry, percent of the off leg
    /// (negative = on was faster, i.e. the difference is inside noise).
    pub fn overhead_pct(&self) -> f64 {
        if self.qps_off == 0.0 {
            0.0
        } else {
            100.0 * (self.qps_off - self.qps_on) / self.qps_off
        }
    }

    /// The `BENCH_obs.json` row. Key set is golden-tested — extend it,
    /// don't rename.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str("obs")),
            ("threads", Json::UInt(self.config.threads as u64)),
            ("workers", Json::UInt(self.config.workers as u64)),
            ("engine", Json::str(self.config.engine.name())),
            ("xmark_scale", Json::Num(self.config.xmark_scale)),
            ("dblp_pubs", Json::UInt(self.config.dblp_pubs as u64)),
            ("duration_ms", Json::UInt(self.config.duration.as_millis() as u64)),
            ("runs", Json::UInt(self.runs as u64)),
            ("requests_on", Json::UInt(self.requests_on)),
            ("requests_off", Json::UInt(self.requests_off)),
            ("errors", Json::UInt(self.errors)),
            ("divergence", Json::UInt(self.divergence)),
            ("qps_on", Json::Num(self.qps_on)),
            ("qps_off", Json::Num(self.qps_off)),
            ("overhead_pct", Json::Num(self.overhead_pct())),
            ("p50_on_us", Json::UInt(self.p50_on_us)),
            ("p50_off_us", Json::UInt(self.p50_off_us)),
            (
                "tail",
                Json::obj([
                    ("p99_us", Json::UInt(self.tail.p99_us)),
                    ("samples", Json::UInt(self.tail.samples as u64)),
                    ("total_us", Json::Num(self.tail.total_us)),
                    ("queue_us", Json::Num(self.tail.queue_us)),
                    ("prepare_us", Json::Num(self.tail.prepare_us)),
                    ("exec_us", Json::Num(self.tail.exec_us)),
                    ("serialize_us", Json::Num(self.tail.serialize_us)),
                    ("queue_pct", Json::Num(self.tail.pct(self.tail.queue_us))),
                    ("prepare_pct", Json::Num(self.tail.pct(self.tail.prepare_us))),
                    ("exec_pct", Json::Num(self.tail.pct(self.tail.exec_us))),
                    ("serialize_pct", Json::Num(self.tail.pct(self.tail.serialize_us))),
                ]),
            ),
        ])
    }

    /// Human-readable rendering for the terminal.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "obs bench: {} interleaved on/off runs, {} threads x {:?} over Q1-Q8",
            self.runs, self.config.threads, self.config.duration
        );
        let _ = writeln!(
            out,
            "  qps on {:.0} / off {:.0} -> telemetry overhead {:.2}% (p50 {}us on / {}us off)",
            self.qps_on,
            self.qps_off,
            self.overhead_pct(),
            self.p50_on_us,
            self.p50_off_us
        );
        let _ = writeln!(
            out,
            "  p99 tail ({} samples >= {}us): queue {:.0}us ({:.0}%)  prepare {:.0}us \
             ({:.0}%)  exec {:.0}us ({:.0}%)  serialize {:.0}us ({:.0}%)",
            self.tail.samples,
            self.tail.p99_us,
            self.tail.queue_us,
            self.tail.pct(self.tail.queue_us),
            self.tail.prepare_us,
            self.tail.pct(self.tail.prepare_us),
            self.tail.exec_us,
            self.tail.pct(self.tail.exec_us),
            self.tail.serialize_us,
            self.tail.pct(self.tail.serialize_us),
        );
        let _ = writeln!(
            out,
            "  errors {}  divergence {}",
            self.errors, self.divergence
        );
        out
    }
}

/// Run the telemetry overhead benchmark: `runs` interleaved pairs of
/// (telemetry on, telemetry off) load runs — interleaving cancels thermal
/// and cache drift — reporting median throughput per leg and the p99
/// tail attribution from the on-leg samples. The process-wide engine
/// registry is disabled for the off legs too, so the off leg is the true
/// zero-telemetry cost.
pub fn run_obs_bench(cfg: &LoadConfig, runs: usize) -> ObsBenchSummary {
    let runs = runs.max(1);
    let global = jgi_obs::Registry::global();
    let mut qps_on = Vec::new();
    let mut qps_off = Vec::new();
    let mut p50_on = Vec::new();
    let mut p50_off = Vec::new();
    let (mut errors, mut divergence) = (0u64, 0u64);
    let (mut requests_on, mut requests_off) = (0u64, 0u64);
    let mut on_samples: Vec<PhaseSample> = Vec::new();
    let sample_p50 = |samples: &[PhaseSample]| {
        let mut totals: Vec<u64> = samples.iter().map(|s| s.total_us).collect();
        totals.sort_unstable();
        sample_percentile(&totals, 0.50) as f64
    };
    for _ in 0..runs {
        let on_cfg = LoadConfig { telemetry: true, ..cfg.clone() };
        global.set_enabled(true);
        let on = run_load(&on_cfg);
        qps_on.push(on.qps);
        p50_on.push(sample_p50(&on.samples));
        errors += on.errors;
        divergence += on.divergence;
        requests_on += on.requests;
        on_samples.extend(on.samples.iter().copied());

        let off_cfg = LoadConfig { telemetry: false, ..cfg.clone() };
        global.set_enabled(false);
        let off = run_load(&off_cfg);
        global.set_enabled(true);
        qps_off.push(off.qps);
        p50_off.push(sample_p50(&off.samples));
        errors += off.errors;
        divergence += off.divergence;
        requests_off += off.requests;
    }
    ObsBenchSummary {
        config: LoadConfig { telemetry: true, ..cfg.clone() },
        runs,
        qps_on: median(&mut qps_on),
        qps_off: median(&mut qps_off),
        p50_on_us: median(&mut p50_on) as u64,
        p50_off_us: median(&mut p50_off) as u64,
        errors,
        divergence,
        requests_on,
        requests_off,
        tail: TailAttribution::from_samples(&on_samples),
    }
}

/// One write-mix leg of the mutation benchmark.
#[derive(Debug, Clone)]
pub struct MutateLeg {
    /// Write fraction of this leg, percent (0, 1, 10 in the standard run).
    pub mix_pct: f64,
    /// Queries completed.
    pub requests: u64,
    /// Mutation batches committed.
    pub mutations: u64,
    /// Failed queries or rejected commits (expected 0).
    pub errors: u64,
    /// End-state oracle mismatches across Q1–Q8 (must be 0).
    pub divergence: u64,
    /// Completed operations (queries + commits) per second.
    pub qps: f64,
    /// Plan-cache accounting over the measured window only: the warm-up
    /// `PREPARE` pass is subtracted out, and the snapshot is taken before
    /// the oracle pass, so neither skews the steady-state hit rate.
    pub cache: CacheStats,
}

/// The `--mutate-mix` benchmark: the Q1–Q8 closed loop at several write
/// mixes, quantifying what live mutation costs the plan-cache economics.
#[derive(Debug, Clone)]
pub struct MutateBenchSummary {
    /// Configuration echo.
    pub config: LoadConfig,
    /// One leg per requested write mix, in request order.
    pub legs: Vec<MutateLeg>,
}

impl MutateBenchSummary {
    /// Total divergence across every leg.
    pub fn divergence(&self) -> u64 {
        self.legs.iter().map(|l| l.divergence).sum()
    }

    /// Total errors across every leg.
    pub fn errors(&self) -> u64 {
        self.legs.iter().map(|l| l.errors).sum()
    }

    /// The `BENCH_mutate.json` row. Key set is golden-tested — extend it,
    /// don't rename.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str("mutate")),
            ("threads", Json::UInt(self.config.threads as u64)),
            ("workers", Json::UInt(self.config.workers as u64)),
            ("engine", Json::str(self.config.engine.name())),
            ("xmark_scale", Json::Num(self.config.xmark_scale)),
            ("dblp_pubs", Json::UInt(self.config.dblp_pubs as u64)),
            ("duration_ms", Json::UInt(self.config.duration.as_millis() as u64)),
            (
                "legs",
                Json::Arr(
                    self.legs
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("mix_pct", Json::Num(l.mix_pct)),
                                ("requests", Json::UInt(l.requests)),
                                ("mutations", Json::UInt(l.mutations)),
                                ("errors", Json::UInt(l.errors)),
                                ("divergence", Json::UInt(l.divergence)),
                                ("qps", Json::Num(l.qps)),
                                ("cache_hits", Json::UInt(l.cache.hits)),
                                ("cache_misses", Json::UInt(l.cache.misses)),
                                ("cache_hit_rate", Json::Num(l.cache.hit_rate())),
                                ("invalidations", Json::UInt(l.cache.invalidations)),
                                ("invalidated_docs", Json::UInt(l.cache.invalidated_docs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable rendering for the terminal.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mutate bench: {} threads x {:?} over Q1-Q8 + INSERT probes ({} workers)",
            self.config.threads, self.config.duration, self.config.workers
        );
        for l in &self.legs {
            let _ = writeln!(
                out,
                "  {:>4.0}% writes: {:.0} qps ({} queries, {} commits), cache hit rate \
                 {:.1}% ({} compiles), errors {}, divergence {}",
                l.mix_pct,
                l.qps,
                l.requests,
                l.mutations,
                100.0 * l.cache.hit_rate(),
                l.cache.misses,
                l.errors,
                l.divergence
            );
        }
        out
    }
}

/// The mutation probe every write commits: a fresh empty element inserted
/// as the first content child of the XMark root element (global `pre` 1 —
/// the document node is 0). The target is position-stable under its own
/// repetition and the probes commute, so the end state depends only on
/// *how many* committed — which is what makes the shadow-tree oracle
/// exact under arbitrary thread interleaving.
const MUTATE_PROBE: &str = "<mutprobe/>";

fn run_mutate_leg(cfg: &LoadConfig, frac: f64) -> MutateLeg {
    let (xmark, dblp) = corpus_trees(cfg);
    let server = Arc::new(Server::new(ServeConfig {
        workers: cfg.workers,
        queue_depth: cfg.threads.max(4) * 2,
        cache_capacity: cfg.cache_capacity,
        default_deadline: None,
        budgets: Budgets {
            parallelism: cfg.parallelism,
            morsel_size: cfg.morsel_size,
            join: cfg.join,
            ..Budgets::default()
        },
        telemetry: cfg.telemetry,
        ..ServeConfig::default()
    }));
    server.add_tree(xmark.clone());
    server.add_tree(dblp.clone());
    for &(_, query, ctx) in &paper_corpus() {
        server.prepare(query, ctx).expect("corpus compiles on server");
    }
    // Baseline after the warm-up pass: the leg reports window deltas, so
    // the 8 cold compiles (and the 2 load events) don't dilute short runs.
    let warm = server.cache_stats();

    // A write every `every`-th operation per client approximates the
    // requested fraction deterministically (no RNG in the hot loop).
    let every = if frac > 0.0 { (1.0 / frac).round().max(1.0) as u64 } else { 0 };
    let requests = Arc::new(AtomicU64::new(0));
    let mutations = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + cfg.duration;
    let t0 = Instant::now();
    let clients: Vec<_> = (0..cfg.threads.max(1))
        .map(|i| {
            let server = Arc::clone(&server);
            let requests = Arc::clone(&requests);
            let mutations = Arc::clone(&mutations);
            let errors = Arc::clone(&errors);
            let engine = cfg.engine;
            jgi_sync::thread::spawn_named(&format!("mutate-client-{i}"), move || {
                let corpus = paper_corpus();
                let mut at = i % corpus.len();
                let mut n = 0u64;
                while Instant::now() < deadline {
                    // Phase-shift the write cadence by thread index so
                    // commits spread over the run (and short smoke runs
                    // still reach one).
                    let mutate = every != 0 && (n + i as u64).is_multiple_of(every);
                    n += 1;
                    if mutate {
                        match server.commit(&[Op::Insert {
                            parent: 1,
                            pos: 0,
                            xml: MUTATE_PROBE.to_string(),
                        }]) {
                            // relaxed: monotone tallies, read only after the
                            // client joins order the final loads.
                            Ok(_) => {
                                mutations.fetch_add_relaxed(1);
                            }
                            Err(_) => {
                                // relaxed: same tally discipline.
                                errors.fetch_add_relaxed(1);
                            }
                        }
                        continue;
                    }
                    let (_, query, ctx) = corpus[at];
                    at = (at + 1) % corpus.len();
                    match server.execute(query, ctx, engine, None) {
                        // relaxed: same tally discipline.
                        Ok(_) => {
                            requests.fetch_add_relaxed(1);
                        }
                        Err(_) => {
                            // relaxed: same tally discipline.
                            errors.fetch_add_relaxed(1);
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("mutate client thread");
    }
    let elapsed = t0.elapsed();
    // relaxed: every client is joined; nothing races these loads.
    let requests = requests.load_relaxed();
    let mutations = mutations.load_relaxed();
    let mut leg_errors = errors.load_relaxed();
    // Freeze the cache accounting before the oracle pass below adds its
    // own probes, and subtract the warm-up baseline.
    let end = server.cache_stats();
    let cache = CacheStats {
        hits: end.hits - warm.hits,
        misses: end.misses - warm.misses,
        evictions: end.evictions - warm.evictions,
        invalidations: end.invalidations - warm.invalidations,
        invalidated_docs: end.invalidated_docs - warm.invalidated_docs,
    };

    // End-state oracle: graft the same number of probes into a shadow
    // tree, reparse-from-scratch in a fresh Session, and demand the
    // server's post-run answers match exactly. The probes commute, so
    // thread interleaving cannot change the end state — only the count
    // matters.
    let mut shadow = xmark;
    let frag = jgi_xml::parse("mutprobe.xml", MUTATE_PROBE).expect("probe parses");
    let frag_root = frag.content_children(frag.root())[0];
    let site = shadow.content_children(shadow.root())[0];
    for _ in 0..mutations {
        shadow.graft(site, 0, &frag, frag_root);
    }
    let mut session = Session::new();
    session.budgets.parallelism = cfg.parallelism;
    session.budgets.morsel_size = cfg.morsel_size;
    session.budgets.join = cfg.join;
    session.add_tree(shadow);
    session.add_tree(dblp);
    let mut divergence = 0u64;
    for &(_, query, ctx) in &paper_corpus() {
        let prepared = session.prepare(query, ctx).expect("corpus compiles");
        let expect = session.execute(&prepared, cfg.engine).expect("oracle executes").nodes;
        match server.execute(query, ctx, cfg.engine, None) {
            Ok(reply) if reply.nodes == expect => {}
            Ok(_) => divergence += 1,
            Err(_) => leg_errors += 1,
        }
    }

    MutateLeg {
        mix_pct: 100.0 * frac,
        requests,
        mutations,
        errors: leg_errors,
        divergence,
        qps: (requests + mutations) as f64 / elapsed.as_secs_f64().max(1e-9),
        cache,
    }
}

/// Run the mutation benchmark: one fresh server per write mix, each leg a
/// closed loop interleaving `INSERT` commits into the Q1–Q8 corpus at the
/// given fraction, checked against a full-reparse end-state oracle. The
/// standard mixes are `[0.0, 0.01, 0.10]`.
pub fn run_mutate_bench(cfg: &LoadConfig, mixes: &[f64]) -> MutateBenchSummary {
    let legs = mixes.iter().map(|&frac| run_mutate_leg(cfg, frac)).collect();
    MutateBenchSummary { config: cfg.clone(), legs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden test on the bench-row schema: the exact key set (and the
    /// stable-value fields) of the `BENCH_serve.json` row.
    #[test]
    fn bench_row_schema_is_stable() {
        let cfg = LoadConfig {
            threads: 2,
            duration: Duration::from_millis(150),
            workers: 2,
            ..LoadConfig::default()
        };
        let summary = run_load(&cfg);
        let row = summary.to_json();
        let rendered = row.render();
        let Json::Obj(pairs) = row else { panic!("bench row must be an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "bench",
                "threads",
                "workers",
                "parallelism",
                "engine",
                "xmark_scale",
                "dblp_pubs",
                "duration_ms",
                "requests",
                "errors",
                "divergence",
                "qps",
                "baseline_qps",
                "speedup_vs_fresh_session",
                "p50_us",
                "p95_us",
                "p99_us",
                "mean_us",
                "max_us",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "cache_hit_rate",
                "shed",
                "deadline_missed",
            ],
            "BENCH_serve.json key set changed — update the golden test and DESIGN.md deliberately"
        );
        assert!(rendered.starts_with(r#"{"bench":"serve""#), "{rendered}");
        assert!(summary.requests > 0, "a 150ms run completes requests");
        assert_eq!(summary.divergence, 0, "results must match the sequential baseline");
        assert_eq!(summary.errors, 0);
    }

    /// Smoke + golden test for the telemetry overhead bench: both legs
    /// run, divergence stays zero, and the `BENCH_obs.json` key set is
    /// stable. The <5% overhead acceptance number comes from the release
    /// `loadgen --obs-out` run, not from this debug-build smoke.
    #[test]
    fn obs_bench_runs_both_legs_and_keeps_schema() {
        let cfg = LoadConfig {
            threads: 2,
            duration: Duration::from_millis(120),
            workers: 2,
            ..LoadConfig::default()
        };
        let summary = run_obs_bench(&cfg, 1);
        assert!(summary.requests_on > 0, "telemetry-on leg completes requests");
        assert!(summary.requests_off > 0, "telemetry-off leg completes requests");
        assert_eq!(summary.divergence, 0, "telemetry must never change results");
        assert_eq!(summary.errors, 0);
        assert!(summary.qps_on > 0.0 && summary.qps_off > 0.0);
        assert!(summary.tail.samples > 0, "p99 tail is non-empty by construction");
        let row = summary.to_json();
        let rendered = row.render();
        let Json::Obj(pairs) = row else { panic!("obs row must be an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "bench",
                "threads",
                "workers",
                "engine",
                "xmark_scale",
                "dblp_pubs",
                "duration_ms",
                "runs",
                "requests_on",
                "requests_off",
                "errors",
                "divergence",
                "qps_on",
                "qps_off",
                "overhead_pct",
                "p50_on_us",
                "p50_off_us",
                "tail",
            ],
            "BENCH_obs.json key set changed — update the golden test and EXPERIMENTS.md deliberately"
        );
        assert!(rendered.starts_with(r#"{"bench":"obs""#), "{rendered}");
        let tail = pairs.iter().find(|(k, _)| k == "tail").map(|(_, v)| v).unwrap();
        let Json::Obj(tail_pairs) = tail else { panic!("tail must be an object") };
        let tail_keys: Vec<&str> = tail_pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            tail_keys,
            vec![
                "p99_us",
                "samples",
                "total_us",
                "queue_us",
                "prepare_us",
                "exec_us",
                "serialize_us",
                "queue_pct",
                "prepare_pct",
                "exec_pct",
                "serialize_pct",
            ]
        );
        // The registry the off leg disabled is process-global: make sure
        // the bench restored it for everyone running after us.
        assert!(jgi_obs::Registry::global().is_enabled());
    }

    /// Smoke + golden test for the mutation bench: a read-only leg and a
    /// write-heavy leg both run, the end-state oracle holds, and the
    /// `BENCH_mutate.json` key set is stable (`invalidations` /
    /// `invalidated_docs` stay in it, at 0: a commit drops no cached query).
    #[test]
    fn mutate_bench_runs_legs_and_keeps_schema() {
        let cfg = LoadConfig {
            threads: 2,
            duration: Duration::from_millis(150),
            workers: 2,
            ..LoadConfig::default()
        };
        let summary = run_mutate_bench(&cfg, &[0.0, 0.10]);
        assert_eq!(summary.legs.len(), 2);
        assert_eq!(summary.divergence(), 0, "end-state oracle must hold on every leg");
        assert_eq!(summary.errors(), 0);
        let read_only = &summary.legs[0];
        assert_eq!(read_only.mutations, 0, "the 0% leg commits nothing");
        assert!(read_only.requests > 0, "a 150ms leg completes requests");
        let writes = &summary.legs[1];
        assert!(writes.mutations > 0, "the 10% leg commits mutations");
        assert_eq!(writes.cache.misses, 0, "no commit costs a warm query its compile");
        assert_eq!(writes.cache.invalidations, 0);

        let row = summary.to_json();
        let rendered = row.render();
        let Json::Obj(pairs) = row else { panic!("mutate row must be an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "bench",
                "threads",
                "workers",
                "engine",
                "xmark_scale",
                "dblp_pubs",
                "duration_ms",
                "legs",
            ],
            "BENCH_mutate.json key set changed — update the golden test and EXPERIMENTS.md \
             deliberately"
        );
        assert!(rendered.starts_with(r#"{"bench":"mutate""#), "{rendered}");
        let legs = pairs.iter().find(|(k, _)| k == "legs").map(|(_, v)| v).unwrap();
        let Json::Arr(legs) = legs else { panic!("legs must be an array") };
        for leg in legs {
            let Json::Obj(leg_pairs) = leg else { panic!("each leg must be an object") };
            let leg_keys: Vec<&str> = leg_pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                leg_keys,
                vec![
                    "mix_pct",
                    "requests",
                    "mutations",
                    "errors",
                    "divergence",
                    "qps",
                    "cache_hits",
                    "cache_misses",
                    "cache_hit_rate",
                    "invalidations",
                    "invalidated_docs",
                ]
            );
        }
    }
}
