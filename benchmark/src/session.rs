//! The single-threaded workloads: `compile_cold`, `exec_path`, `exec_join`.
//!
//! Untraced, an op goes through the facade (`prepare_on`,
//! `execute_prepared`) exactly as a caller would. Traced, every op runs
//! twice: once through the facade, untraced — which gives the baseline the
//! tracing overhead is measured against and, from the durations the facade
//! reports about itself, its own overhead — and once layer by layer, each
//! call into a crate wrapped in a span. The traced run is count-boxed (the
//! first rounds of the seeded stream), so every count it reports repeats
//! exactly.

use crate::docs::{rss_bytes, DocText, SessionDocs};
use crate::oracle::{fingerprint, Oracle, Verdict, LIVE_BUDGET};
use crate::queries::{self, OpStream, QueryText, QueryType};
use crate::report::{MetricSet, RunResult};
use crate::run::{self, RunConfig, TypeTable, Workload, SETUPS};
use crate::trace::Recorder;
use jgi_core::{execute_prepared, prepare_on, Budgets, Engine, ExecCtx, Parallelism, Prepared};
use jgi_engine::optimizer::{self, PlanOptions, PlanStats};
use jgi_engine::physical::{self, ExecOptions, ExecStats};
use jgi_xquery::{normalize, parse_query, ParserOptions};
use std::time::{Duration, Instant};

/// Rounds over the population in a traced run, per workload.
fn trace_rounds(cfg: &RunConfig) -> usize {
    match (cfg.workload, cfg.smoke) {
        (Workload::CompileCold, _) => 1,
        (_, true) => 5,
        (Workload::ExecPath, false) => 100,
        (_, false) => 30,
    }
}

fn budgets() -> Budgets {
    Budgets { parallelism: Parallelism::Fixed(1), ..Budgets::default() }
}

fn ctx(docs: &SessionDocs) -> ExecCtx<'_> {
    ExecCtx { store: &docs.store, db: Some(&docs.db), nav: Some(&docs.nav), budgets: budgets() }
}

/// Correctness tally of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    diverged: u64,
}

impl Tally {
    fn judge(&mut self, verdict: Verdict) {
        if verdict == Verdict::Diverged {
            self.failed += 1;
            self.diverged += 1;
        }
    }
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let text = DocText::generate(cfg.workload.docs(cfg.smoke));
    let types = match cfg.workload {
        Workload::CompileCold => queries::compile_population(cfg.smoke),
        Workload::ExecPath => queries::path_population(&text, cfg.seed),
        Workload::ExecJoin => queries::join_population(cfg.smoke),
        other => unreachable!("{} is not a session workload", other.name()),
    };

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0, cfg.trace);
    let (rss_before, _) = rss_bytes();
    // A traced run sets up once, under spans; an untraced one repeats the
    // set-up and reports the median.
    let (docs, setup_secs) = run::set_up_repeatedly(if cfg.trace { 1 } else { SETUPS }, || {
        SessionDocs::build(&text, &mut rec)
    });
    let (rss_after, _) = rss_bytes();

    let oracle = Oracle::build(&cfg.dir, &text, &docs, &types, LIVE_BUDGET);
    let mut notes = run::head_notes(cfg, &text, docs.store.len(), "threads 1", &oracle);

    let mut tally = Tally::default();
    let mut metrics = if cfg.trace { MetricSet::per_layer() } else { MetricSet::end_to_end() };

    // `exec_*` prepare their plans and verify each text against the oracle
    // once, before the window: the window compares node sequences.
    let warm = (cfg.workload != Workload::CompileCold)
        .then(|| warm_up(&docs, &types, &oracle, &mut tally));
    if !cfg.trace {
        run::set_rss_loaded(&mut metrics);
    }
    match (&warm, cfg.trace) {
        (None, false) => compile_untraced(cfg, &docs, &types, &oracle, &mut tally, &mut metrics),
        (None, true) => compile_traced(&docs, &types, &oracle, &mut rec, &mut tally, &mut metrics),
        (Some(warm), false) => exec_untraced(cfg, &docs, &types, warm, &mut tally, &mut metrics),
        (Some(warm), true) => {
            exec_traced(cfg, &docs, &types, warm, &mut rec, &mut tally, &mut metrics)
        }
    }

    if cfg.trace {
        let facts = run::TracedFacts {
            nodes: docs.store.len(),
            setup_rss_growth: rss_after.saturating_sub(rss_before),
            oracle: &oracle,
            failed: tally.failed,
            attempted: tally.attempted,
        };
        run::finish_traced(cfg, &mut metrics, &mut notes, &rec.into_spans(), facts);
    } else {
        run::finish_untraced(&mut metrics, &setup_secs);
    }
    RunResult {
        correct: tally.diverged == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// One cold op through the facade: compile, then execute for the first time.
fn cold_op(docs: &SessionDocs, q: &QueryText) -> (Prepared, Option<Vec<u32>>, Duration, Duration) {
    let t0 = Instant::now();
    let prepared =
        prepare_on(&docs.store, &q.text, q.ctx).unwrap_or_else(|e| panic!("{}: {e}", q.key));
    let prepare = t0.elapsed();
    let outcome = execute_prepared(&ctx(docs), &prepared, Engine::JoinGraph)
        .unwrap_or_else(|e| panic!("{}: {e}", q.key));
    (prepared, outcome.nodes, prepare, t0.elapsed())
}

fn judge_nodes(
    oracle: &Oracle,
    docs: &SessionDocs,
    q: &QueryText,
    nodes: Option<&[u32]>,
) -> Verdict {
    match nodes {
        Some(nodes) => oracle.check(&q.key, fingerprint(&docs.store, nodes)),
        None => Verdict::Diverged, // the join-graph engine has no budget to exhaust
    }
}

fn compile_untraced(
    cfg: &RunConfig,
    docs: &SessionDocs,
    types: &[QueryType],
    oracle: &Oracle,
    tally: &mut Tally,
    metrics: &mut MetricSet,
) {
    let mut table = TypeTable::new(types);
    let t_window = Instant::now();
    // Whole rounds only, so every type has the same number of samples.
    loop {
        for (ti, ty) in types.iter().enumerate() {
            let q = &ty.variants[0];
            let (_, nodes, _, latency) = cold_op(docs, q);
            table.record(ti, latency);
            tally.attempted += 1;
            tally.judge(judge_nodes(oracle, docs, q, nodes.as_deref()));
        }
        if t_window.elapsed() >= cfg.window() {
            break;
        }
    }
    table.set_end_to_end(metrics);
    metrics.set("ops_per_s", table.ops() as f64 / t_window.elapsed().as_secs_f64(), table.ops());
}

fn compile_traced(
    docs: &SessionDocs,
    types: &[QueryType],
    oracle: &Oracle,
    rec: &mut Recorder,
    tally: &mut Tally,
    metrics: &mut MetricSet,
) {
    let mut table = TypeTable::new(types);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut overhead_ms = Vec::new();
    let mut counts = Counts::default();
    for (ti, ty) in types.iter().enumerate() {
        let q = &ty.variants[0];
        // Untraced leg: the facade, and what it reports about itself.
        let (prepared, _, prepare, latency) = cold_op(docs, q);
        untraced_ms.push(latency.as_secs_f64() * 1e3);
        let phases: Duration = prepared.report.phases.iter().map(|&(_, d)| d).sum();
        overhead_ms.push(prepare.saturating_sub(phases).as_secs_f64() * 1e3);
        drop(prepared);

        // Traced leg: the same pipeline, layer by layer.
        rec.next_op();
        let t0 = Instant::now();
        let op = rec.open("bench.op");
        let opts = ParserOptions { context_doc: q.ctx.map(str::to_string) };
        let ast = rec.time("xquery.parse", || parse_query(&q.text, &opts)).expect("corpus parses");
        let core = rec.time("xquery.normalize", || normalize(&ast)).expect("corpus normalizes");
        let compiled =
            rec.time("compiler.compile", || jgi_compiler::compile(&core)).expect("corpus compiles");
        let mut plan = compiled.plan;
        let (root, stats) =
            rec.time("rewrite.isolate", || jgi_rewrite::isolate(&mut plan, compiled.root));
        let cq = rec
            .time("rewrite.extract", || jgi_rewrite::extract_cq(&plan, root))
            .expect("population is extractable");
        let sql = rec.time("sql.emit", || {
            (jgi_sql::join_graph_sql(&cq), jgi_sql::stacked_sql(&plan, compiled.root))
        });
        let (nodes, plan_stats, exec_stats) = plan_and_execute(docs, &cq, rec);
        rec.close(op);
        let latency = t0.elapsed();
        traced_ms.push(latency.as_secs_f64() * 1e3);
        table.record(ti, latency);

        counts.ops += 1;
        counts.compiler_nodes += plan.reachable_count(compiled.root) as u64;
        counts.rewrite_steps += stats.steps as u64;
        counts.rewrite_nodes_after += stats.nodes_after as u64;
        counts.sql_bytes += (sql.0.len() + sql.1.len()) as u64;
        counts.add_engine(&plan_stats, &exec_stats, nodes.len());
        tally.attempted += 1;
        let verdict = rec.time("bench.verify", || judge_nodes(oracle, docs, q, Some(&nodes)));
        tally.judge(verdict);
    }
    table.set_per_type(metrics);
    counts.set(metrics);
    metrics.set("compiler.nodes", counts.compiler_nodes as f64 / counts.ops as f64, counts.ops);
    metrics.set("rewrite.steps", counts.rewrite_steps as f64 / counts.ops as f64, counts.ops);
    metrics.set(
        "rewrite.nodes_after",
        counts.rewrite_nodes_after as f64 / counts.ops as f64,
        counts.ops,
    );
    metrics.set("sql.bytes", counts.sql_bytes as f64 / counts.ops as f64, counts.ops);
    metrics.set(
        "core.prepare_overhead_ms",
        crate::stats::mean(&overhead_ms).expect("ops ran"),
        counts.ops,
    );
    metrics.set(
        "trace.overhead_pct",
        run::overhead_pct(&untraced_ms, &traced_ms).expect("ops ran"),
        counts.ops,
    );
}

/// The two engine calls `execute_prepared` makes for an extractable plan,
/// each under its span.
fn plan_and_execute(
    docs: &SessionDocs,
    cq: &jgi_algebra::ConjunctiveQuery,
    rec: &mut Recorder,
) -> (Vec<u32>, PlanStats, ExecStats) {
    let b = budgets();
    let plan_opts = PlanOptions { join: b.join, vectorized: b.vectorized };
    let exec_opts = ExecOptions { vectorized: b.vectorized, ..ExecOptions::with_parallelism(1) };
    let (plan, plan_stats) =
        rec.time("engine.plan", || optimizer::plan_with_stats_opts(&docs.db, cq, &plan_opts));
    let (nodes, exec_stats) =
        rec.time("engine.exec", || physical::execute_with_stats_opts(&docs.db, &plan, &exec_opts));
    (nodes, plan_stats, exec_stats)
}

/// A warmed text: its plan and the node sequence every execution must
/// return.
struct Warm {
    prepared: Prepared,
    nodes: Vec<u32>,
}

/// Prepare every text, execute it once, and check the serialized result
/// against the oracle. Untimed.
fn warm_up(
    docs: &SessionDocs,
    types: &[QueryType],
    oracle: &Oracle,
    tally: &mut Tally,
) -> Vec<Vec<Warm>> {
    types
        .iter()
        .map(|ty| {
            ty.variants
                .iter()
                .map(|q| {
                    let (prepared, nodes, _, _) = cold_op(docs, q);
                    assert!(prepared.cq.is_some(), "{} must be extractable", q.key);
                    tally.attempted += 1;
                    tally.judge(judge_nodes(oracle, docs, q, nodes.as_deref()));
                    Warm { prepared, nodes: nodes.unwrap_or_default() }
                })
                .collect()
        })
        .collect()
}

fn exec_untraced(
    cfg: &RunConfig,
    docs: &SessionDocs,
    types: &[QueryType],
    warm: &[Vec<Warm>],
    tally: &mut Tally,
    metrics: &mut MetricSet,
) {
    let ctx = ctx(docs);
    let mut table = TypeTable::new(types);
    let mut stream = OpStream::new(cfg.seed, 0);
    let t_window = Instant::now();
    while t_window.elapsed() < cfg.window() {
        let (ti, vi) = stream.next(types);
        let w = &warm[ti][vi];
        let t0 = Instant::now();
        let outcome = execute_prepared(&ctx, &w.prepared, Engine::JoinGraph);
        table.record(ti, t0.elapsed());
        tally.attempted += 1;
        if !matches!(&outcome, Ok(o) if o.nodes.as_deref() == Some(&w.nodes[..])) {
            tally.failed += 1;
        }
    }
    let elapsed = t_window.elapsed().as_secs_f64();
    table.set_end_to_end(metrics);
    metrics.set("ops_per_s", table.ops() as f64 / elapsed, table.ops());
}

fn exec_traced(
    cfg: &RunConfig,
    docs: &SessionDocs,
    types: &[QueryType],
    warm: &[Vec<Warm>],
    rec: &mut Recorder,
    tally: &mut Tally,
    metrics: &mut MetricSet,
) {
    let ctx = ctx(docs);
    let mut table = TypeTable::new(types);
    let mut stream = OpStream::new(cfg.seed, 0);
    let (mut untraced_ms, mut traced_ms, mut facade_self_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Counts::default();
    for _ in 0..trace_rounds(cfg) * types.len() {
        let (ti, vi) = stream.next(types);
        let w = &warm[ti][vi];
        let cq = w.prepared.cq.as_ref().expect("checked at warm-up");

        // Untraced leg: the facade; its own share is what it does not
        // attribute to planning or execution.
        let t0 = Instant::now();
        let outcome =
            execute_prepared(&ctx, &w.prepared, Engine::JoinGraph).expect("warm plan executes");
        let latency = t0.elapsed();
        untraced_ms.push(latency.as_secs_f64() * 1e3);
        let inner = outcome.report.phase("plan").unwrap_or_default()
            + outcome.report.phase("execute").unwrap_or_default();
        facade_self_ms.push(latency.saturating_sub(inner).as_secs_f64() * 1e3);

        // Traced leg.
        rec.next_op();
        let t0 = Instant::now();
        let op = rec.open("bench.op");
        let (nodes, plan_stats, exec_stats) = plan_and_execute(docs, cq, rec);
        rec.close(op);
        let latency = t0.elapsed();
        traced_ms.push(latency.as_secs_f64() * 1e3);
        table.record(ti, latency);

        counts.ops += 1;
        counts.add_engine(&plan_stats, &exec_stats, nodes.len());
        tally.attempted += 1;
        if nodes != w.nodes || outcome.nodes.as_deref() != Some(&w.nodes[..]) {
            tally.failed += 1;
        }
    }
    table.set_per_type(metrics);
    counts.set(metrics);
    metrics.set(
        "core.execute_self_ms",
        crate::stats::mean(&facade_self_ms).expect("ops ran"),
        counts.ops,
    );
    metrics.set(
        "trace.overhead_pct",
        run::overhead_pct(&untraced_ms, &traced_ms).expect("ops ran"),
        counts.ops,
    );
}

/// Counter totals over the traced ops; reported as means per op, so they
/// repeat exactly whenever the op stream does.
#[derive(Default)]
struct Counts {
    ops: u64,
    compiler_nodes: u64,
    rewrite_steps: u64,
    rewrite_nodes_after: u64,
    sql_bytes: u64,
    plan_states: u64,
    plan_access_paths: u64,
    rows_scanned: u64,
    result_rows: u64,
    exec: ExecStats,
}

impl Counts {
    fn add_engine(&mut self, plan: &PlanStats, exec: &ExecStats, result_rows: usize) {
        self.plan_states += plan.states_considered as u64;
        self.plan_access_paths += plan.access_paths_considered as u64;
        self.rows_scanned += exec.rows_scanned.iter().sum::<u64>();
        self.result_rows += result_rows as u64;
        let t = &mut self.exec;
        t.btree_descents += exec.btree_descents;
        t.btree_skips += exec.btree_skips;
        t.vector_batches += exec.vector_batches;
        t.vector_fallbacks += exec.vector_fallbacks;
        t.sort_rows += exec.sort_rows;
        t.dedup_removed += exec.dedup_removed;
        t.join_seeks += exec.join_seeks;
        t.join_probe_batches += exec.join_probe_batches;
        t.join_build_rows += exec.join_build_rows;
    }

    fn set(&self, m: &mut MetricSet) {
        let per_op = |v: u64| v as f64 / self.ops as f64;
        m.set("engine.plan_states", per_op(self.plan_states), self.ops);
        m.set("engine.plan_access_paths", per_op(self.plan_access_paths), self.ops);
        m.set("engine.rows_scanned", per_op(self.rows_scanned), self.ops);
        m.set(
            "engine.rows_per_result",
            self.rows_scanned as f64 / self.result_rows.max(1) as f64,
            self.result_rows,
        );
        let e = &self.exec;
        for (name, v) in [
            ("engine.btree_descents", e.btree_descents),
            ("engine.btree_skips", e.btree_skips),
            ("engine.vector_batches", e.vector_batches),
            ("engine.vector_fallbacks", e.vector_fallbacks),
            ("engine.sort_rows", e.sort_rows),
            ("engine.dedup_removed", e.dedup_removed),
            ("engine.join_seeks", e.join_seeks),
            ("engine.join_probe_batches", e.join_probe_batches),
            ("engine.join_build_rows", e.join_build_rows),
        ] {
            m.set(name, per_op(v), self.ops);
        }
    }
}
