//! Sessions: documents + prepared queries + the four back-ends.

use jgi_algebra::{ConjunctiveQuery, NodeId, Plan};
use jgi_engine::logical_exec::{execute_serialized, ExecBudget, ExecError};
use jgi_engine::optimizer::{PlanMemo, PlanStats};
use jgi_engine::physical::{ExecStats, OpActuals};
use jgi_engine::{optimizer, physical, Database};
use jgi_nav::{NavDb, NavError, NavMode, NavOptions, NavStats};
use jgi_obs::Json;
use jgi_rewrite::{extract_cq, isolate, ExtractError, IsolateStats};
use jgi_xml::serialize::{serialize_nodes, serialized_node_count};
use jgi_xml::{DocStore, Tree};
use jgi_xquery::{normalize, parse_query, Core, ParserOptions};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four execution back-ends of paper Table 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Isolated join graph through the cost-based relational engine
    /// ("DB2 + Pathfinder, join graph").
    JoinGraph,
    /// The unrewritten compiler output, executed operator-at-a-time
    /// ("DB2 + Pathfinder, stacked").
    Stacked,
    /// Navigational evaluation over the monolithic document
    /// ("pureXML, whole").
    NavWhole,
    /// Navigational evaluation with XMLPATTERN-like value indexes
    /// ("pureXML, segmented").
    NavSegmented,
}

impl Engine {
    /// All four, in Table 9 column order.
    pub fn all() -> [Engine; 4] {
        [Engine::JoinGraph, Engine::Stacked, Engine::NavWhole, Engine::NavSegmented]
    }

    /// Column label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            Engine::JoinGraph => "join graph",
            Engine::Stacked => "stacked",
            Engine::NavWhole => "nav (whole)",
            Engine::NavSegmented => "nav (segmented)",
        }
    }

    /// Protocol name (the `engine=` values of the `jgi-served` line
    /// protocol; also accepted by `Engine::from_str`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::JoinGraph => "joingraph",
            Engine::Stacked => "stacked",
            Engine::NavWhole => "navwhole",
            Engine::NavSegmented => "navsegmented",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    /// Parse a protocol engine name (`joingraph`, `stacked`, `navwhole`,
    /// `navsegmented`; hyphenated forms accepted).
    fn from_str(s: &str) -> Result<Engine, String> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "joingraph" | "jg" => Ok(Engine::JoinGraph),
            "stacked" => Ok(Engine::Stacked),
            "navwhole" => Ok(Engine::NavWhole),
            "navsegmented" => Ok(Engine::NavSegmented),
            other => Err(format!("unknown engine `{other}`")),
        }
    }
}

/// Session-level error.
#[derive(Debug)]
pub enum SessionError {
    /// Parse/normalization/compilation failure.
    Frontend(String),
    /// The join-graph back-end needs an extractable plan.
    Extract(ExtractError),
    /// Unknown document.
    Document(String),
    /// Checked-mode (`JGI_CHECK=1`) isolation found a certification or
    /// rule-audit violation.
    Check(String),
    /// Plan execution failed (malformed plan, internal executor error).
    /// Structured instead of a panic so a bad plan can never take down a
    /// serving worker.
    Exec(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Frontend(m) => write!(f, "{m}"),
            SessionError::Extract(e) => write!(f, "join graph extraction failed: {e}"),
            SessionError::Document(u) => write!(f, "document not loaded: {u}"),
            SessionError::Check(m) => write!(f, "plan check failed: {m}"),
            SessionError::Exec(m) => write!(f, "plan execution failed: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The pipeline phases a [`QueryReport`] times, in pipeline order. The
/// first five are filled by [`Session::prepare`], the last two by
/// [`Session::execute`].
pub const PHASES: [&str; 7] =
    ["parse", "normalize", "compile", "isolate", "emit-sql", "plan", "execute"];

/// Everything observed about one query: per-phase wall-clock timings,
/// rewrite statistics, optimizer search effort, executor per-operator
/// actuals, and navigation accounting — whichever of those the chosen
/// back-end produced.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// `(phase, duration)` pairs in pipeline order (see [`PHASES`]).
    pub phases: Vec<(&'static str, Duration)>,
    /// Rewrite-driver statistics (per-rule fire counts, fuel).
    pub rewrite: IsolateStats,
    /// DP search effort (join-graph back-end only). On a plan-memo hit
    /// these are the counters of the run that built the memoised plan.
    pub optimizer: Option<PlanStats>,
    /// The physical plan came from the [`Prepared`]'s memo: this execution
    /// did no planning, its `plan` phase is the lookup, and
    /// [`QueryReport::exec_counters`] yields no `opt.*` counters.
    pub plan_cached: bool,
    /// Per-operator actuals (join-graph back-end only).
    pub exec: Option<ExecStats>,
    /// Navigation accounting (nav back-ends only).
    pub nav: Option<NavStats>,
    /// Label of the back-end that ran (None before execution).
    pub engine: Option<&'static str>,
    /// Result cardinality (None for dnf or before execution).
    pub rows: Option<usize>,
}

impl QueryReport {
    /// Duration of a named phase, if it was recorded.
    pub fn phase(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
    }

    fn record_phase(&mut self, name: &'static str, d: Duration) {
        self.phases.push((name, d));
    }

    /// This execution's counters under the names the serve registry and
    /// the report's `metrics` use: `opt.*` only when this execution
    /// planned (not on a plan-memo hit), `exec.*`/`btree.*` from the
    /// executor's actuals (per-operator counts summed), `nav.steps` from
    /// the navigational evaluator. The compile's counters are
    /// [`rewrite_counters`].
    pub fn exec_counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let opt = self.optimizer.as_ref().filter(|_| !self.plan_cached).map(|o| {
            [
                ("opt.states_considered", o.states_considered as u64),
                ("opt.states_pruned", o.states_pruned as u64),
                ("opt.access_paths_considered", o.access_paths_considered as u64),
                ("opt.hash_options_considered", o.hash_options_considered as u64),
            ]
        });
        let exec = self.exec.as_ref().map(|e| {
            let sum = |f: fn(&OpActuals) -> u64| e.per_op.iter().map(f).sum::<u64>();
            [
                ("exec.raw_rows", e.raw_rows),
                ("exec.sort_rows", e.sort_rows),
                ("exec.dedup_removed", e.dedup_removed),
                ("exec.rows_in", sum(|o| o.rows_in)),
                ("exec.rows_out", sum(|o| o.rows_out)),
                ("exec.index_probes", sum(|o| o.index_probes)),
                ("exec.comparisons", sum(|o| o.comparisons)),
                ("exec.vector.batch_size", e.vector_batch_size),
                ("exec.vector.batches", e.vector_batches),
                ("exec.vector.kernels", e.vector_kernels),
                ("exec.vector.fallbacks", e.vector_fallbacks),
                ("btree.descents", e.btree_descents),
                ("btree.skip", e.btree_skips),
                ("exec.join.build_rows", e.join_build_rows),
                ("exec.join.probe_batches", e.join_probe_batches),
                ("exec.join.seeks", e.join_seeks),
            ]
        });
        let nav = self.nav.map(|n| ("nav.steps", n.steps));
        opt.into_iter().flatten().chain(exec.into_iter().flatten()).chain(nav)
    }

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query report{}{}",
            self.engine.map(|e| format!(" [{e}]")).unwrap_or_default(),
            self.rows.map(|r| format!(" ({r} rows)")).unwrap_or_default()
        );
        for (name, d) in &self.phases {
            let _ = writeln!(out, "  {name:<10} {d:?}");
        }
        if self.rewrite.steps > 0 {
            let _ = writeln!(out, "  rewrite: {}", self.rewrite.summary());
        }
        if let Some(o) = &self.optimizer {
            let _ = writeln!(
                out,
                "  optimizer ({}): {} states considered, {} pruned, {} access paths, {} hash options",
                if self.plan_cached { "cached" } else { "planned" },
                o.states_considered,
                o.states_pruned,
                o.access_paths_considered,
                o.hash_options_considered
            );
        }
        if let Some(e) = &self.exec {
            let _ = writeln!(
                out,
                "  exec: {} raw rows, {} sorted, {} deduped; per-op rows_out {:?}",
                e.raw_rows,
                e.sort_rows,
                e.dedup_removed,
                e.per_op.iter().map(|o| o.rows_out).collect::<Vec<_>>()
            );
        }
        if let Some(n) = &self.nav {
            let _ = writeln!(
                out,
                "  nav: {} steps of {} budget{}",
                n.steps,
                n.budget,
                if n.exhausted { " (dnf)" } else { "" }
            );
        }
        out
    }

    /// Line-oriented JSON rendering (one object).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        if let Some(e) = self.engine {
            pairs.push(("engine".into(), Json::str(e)));
        }
        if let Some(r) = self.rows {
            pairs.push(("rows".into(), Json::UInt(r as u64)));
        }
        pairs.push((
            "phases_us".into(),
            Json::Obj(
                self.phases
                    .iter()
                    .map(|(n, d)| (n.to_string(), Json::UInt(d.as_micros() as u64)))
                    .collect(),
            ),
        ));
        let mut fires: Vec<(&str, usize)> =
            self.rewrite.applied.iter().map(|(&k, &v)| (k, v)).collect();
        fires.sort();
        pairs.push((
            "rewrite".into(),
            Json::obj([
                (
                    "rule_fires",
                    Json::Obj(
                        fires
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), Json::UInt(v as u64)))
                            .collect(),
                    ),
                ),
                ("steps", Json::UInt(self.rewrite.steps as u64)),
                ("nodes_before", Json::UInt(self.rewrite.nodes_before as u64)),
                ("nodes_after", Json::UInt(self.rewrite.nodes_after as u64)),
                ("fuel_exhausted", Json::Bool(self.rewrite.fuel_exhausted)),
            ]),
        ));
        if let Some(o) = &self.optimizer {
            pairs.push((
                "optimizer".into(),
                Json::obj([
                    ("plan_cached", Json::Bool(self.plan_cached)),
                    ("states_considered", Json::UInt(o.states_considered as u64)),
                    ("states_pruned", Json::UInt(o.states_pruned as u64)),
                    ("access_paths_considered", Json::UInt(o.access_paths_considered as u64)),
                    ("hash_options_considered", Json::UInt(o.hash_options_considered as u64)),
                ]),
            ));
        }
        if let Some(e) = &self.exec {
            pairs.push((
                "exec".into(),
                Json::obj([
                    ("raw_rows", Json::UInt(e.raw_rows)),
                    ("sort_rows", Json::UInt(e.sort_rows)),
                    ("dedup_removed", Json::UInt(e.dedup_removed)),
                    (
                        "per_op",
                        Json::Arr(
                            e.per_op
                                .iter()
                                .map(|o| {
                                    Json::obj([
                                        ("invocations", Json::UInt(o.invocations)),
                                        ("rows_in", Json::UInt(o.rows_in)),
                                        ("rows_out", Json::UInt(o.rows_out)),
                                        ("index_probes", Json::UInt(o.index_probes)),
                                        ("comparisons", Json::UInt(o.comparisons)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(n) = &self.nav {
            pairs.push((
                "nav".into(),
                Json::obj([
                    ("steps", Json::UInt(n.steps)),
                    ("budget", Json::UInt(n.budget)),
                    ("exhausted", Json::Bool(n.exhausted)),
                ]),
            ));
        }
        let mut metrics = jgi_obs::Metrics::default();
        for (name, v) in rewrite_counters(&self.rewrite).chain(self.exec_counters()) {
            metrics.counter(name, v);
        }
        pairs.push(("metrics".into(), metrics.to_json()));
        Json::Obj(pairs)
    }

    /// Emit to stderr per the `JGI_OBS` env switch (`text` | `json` | off),
    /// one record per call (see [`jgi_obs::emit_to`]).
    pub fn emit(&self, label: &str) {
        let mode = jgi_obs::ObsMode::from_env();
        if mode != jgi_obs::ObsMode::Off {
            self.emit_to(mode, &mut std::io::stderr().lock(), label);
        }
    }

    fn emit_to(&self, mode: jgi_obs::ObsMode, out: &mut dyn std::io::Write, label: &str) {
        jgi_obs::emit_to(mode, out, label, || self.render_text(), || self.to_json());
    }
}

/// An isolation run's counters under the names the serve registry and the
/// report's `metrics` use: one per rule label that fired (`(12)`, …) and
/// `rewrite.{steps,props_derived,props_computed,nodes_rebuilt}`. They
/// belong to the compile, not to any one execution of it.
pub fn rewrite_counters(stats: &IsolateStats) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    let fires = stats.applied.iter().map(|(&rule, &n)| (rule, n as u64));
    fires.chain([
        ("rewrite.steps", stats.steps as u64),
        ("rewrite.props_derived", stats.props_derived as u64),
        ("rewrite.props_computed", stats.props_computed as u64),
        ("rewrite.nodes_rebuilt", stats.nodes_rebuilt as u64),
    ])
}

/// Outcome of one execution: the node sequence, or a *dnf* marker, plus
/// wall-clock time and the full observability report.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Result node sequence (`pre` ranks), `None` when the engine did not
    /// finish within its budget.
    pub nodes: Option<Vec<u32>>,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Phase timings and engine statistics for this run.
    pub report: QueryReport,
}

impl QueryOutcome {
    /// Did the engine finish?
    pub fn finished(&self) -> bool {
        self.nodes.is_some()
    }

    /// Result length (0 for dnf).
    pub fn len(&self) -> usize {
        self.nodes.as_ref().map(|n| n.len()).unwrap_or(0)
    }

    /// True if the (finished) result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A compiled query with all artifacts the paper talks about.
pub struct Prepared {
    /// The query text.
    pub text: String,
    /// Normalized XQuery Core.
    pub core: Core,
    /// The plan arena (holds both the stacked and the isolated DAG).
    pub plan: Plan,
    /// Root of the unrewritten (stacked) plan.
    pub stacked_root: NodeId,
    /// Root after join graph isolation.
    pub isolated_root: NodeId,
    /// The extracted join graph (None when the plan shape falls outside the
    /// extractable fragment — execution then falls back to `Stacked`).
    pub cq: Option<ConjunctiveQuery>,
    /// The join-graph SQL block (paper Figs. 8/9), if extractable.
    pub sql: Option<String>,
    /// Report holding the prepare-side phase timings (parse through
    /// emit-SQL); [`Session::execute`] extends a copy with plan/execute.
    pub report: QueryReport,
    /// Documents the query references via `doc("uri")`, deduplicated in
    /// first-occurrence order. The serve layer routes the execution by
    /// it: a single listed document runs on that document's own segment.
    pub docs: Vec<String>,
    /// The physical plan of `cq` for the database it last ran against.
    /// Nothing else here depends on a document; this does, so it is keyed
    /// on the database's identity and re-planned when that changes.
    plan_memo: PlanMemo,
}

impl Prepared {
    /// The extracted join graph if the cost-based planner accepts it:
    /// `None` outside the extractable fragment and above
    /// [`optimizer::MAX_ALIASES`] aliases. Every join-graph path reads the
    /// query through this, so an oversized join graph runs on the
    /// isolated-plan interpreter instead of tripping the planner's bound.
    pub fn plannable_cq(&self) -> Option<&ConjunctiveQuery> {
        self.cq.as_ref().filter(|cq| cq.aliases <= optimizer::MAX_ALIASES)
    }
}

/// A thread count for the join-graph executor. Inert: every query runs
/// on the calling thread whatever the count. Kept only because the frozen
/// benchmark harness still names it (through [`Budgets::parallelism`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// A thread count the executor does not read.
    Fixed(usize),
}

/// Execution budgets — the per-query state of an execution, separate from
/// the shared document/engine state in [`ExecCtx`].
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Budget for the stacked interpreter (rows) — the dnf cutoff.
    pub stacked: ExecBudget,
    /// Budget for the navigational evaluator (node visits).
    pub nav: u64,
    /// Inert: nothing reads it (see [`Parallelism`]).
    pub parallelism: Parallelism,
    /// Inert: the join-graph executor has one mode, the batch pipeline,
    /// whatever this says. Kept only because the frozen benchmark harness
    /// still names it.
    pub vectorized: bool,
    /// Physical join-strategy selection for the join-graph planner
    /// (default: cost-based `auto`; `jgi-served --join` forces one).
    pub join: optimizer::JoinStrategy,
}

impl Default for Budgets {
    fn default() -> Budgets {
        Budgets {
            stacked: ExecBudget::default(),
            nav: 500_000_000,
            parallelism: Parallelism::Fixed(1),
            vectorized: true,
            join: optimizer::JoinStrategy::Auto,
        }
    }
}

/// Translate budgets into planner options: honor strategy forcing.
fn plan_options(budgets: &Budgets) -> optimizer::PlanOptions {
    optimizer::PlanOptions { join: budgets.join, ..optimizer::PlanOptions::default() }
}

/// The *shared, immutable* state one execution reads: the tabular
/// encoding, the relational database (when the join-graph back-end is
/// wanted), and the navigational database (when a nav back-end is wanted).
///
/// This is the seam the serving layer builds on: a snapshot can hand the
/// same `ExecCtx` to many worker threads at once, because
/// [`execute_prepared`] takes everything by shared reference and never
/// mutates. [`Session`] assembles one from its own fields.
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    /// The tabular encoding (always required: interpreter input,
    /// serialization, pre-rank mapping).
    pub store: &'a DocStore,
    /// The relational database. Required by [`Engine::JoinGraph`] when the
    /// plan is extractable; unused otherwise.
    pub db: Option<&'a Database>,
    /// The navigational database. Required by the nav back-ends.
    pub nav: Option<&'a NavDb>,
    /// Execution budgets.
    pub budgets: Budgets,
}

/// Parse, normalize, compile, isolate, and extract a query against a
/// document store. Free function over shared state — [`Session::prepare`]
/// and the serving layer's plan cache both call this.
///
/// `context_doc` names the document a rooted path (`/site/…`) refers to.
pub fn prepare_on(
    store: &DocStore,
    query: &str,
    context_doc: Option<&str>,
) -> Result<Prepared, SessionError> {
    let opts = ParserOptions { context_doc: context_doc.map(|s| s.to_string()) };
    let mut report = QueryReport::default();

    let t0 = Instant::now();
    let ast = parse_query(query, &opts).map_err(|e| SessionError::Frontend(e.to_string()))?;
    report.record_phase("parse", t0.elapsed());

    let t0 = Instant::now();
    let core = normalize(&ast).map_err(|e| SessionError::Frontend(e.to_string()))?;
    report.record_phase("normalize", t0.elapsed());

    let t0 = Instant::now();
    let compiled = jgi_compiler::compile(&core).map_err(|e| SessionError::Frontend(e.to_string()))?;
    report.record_phase("compile", t0.elapsed());

    let mut plan = compiled.plan;
    let stacked_root = compiled.root;

    let t0 = Instant::now();
    // Under JGI_CHECK=1 the prepare runs the full jgi-check pipeline:
    // property certification of the stacked plan, per-fire rule auditing
    // against the caller's own documents, then certification plus dynamic
    // falsification of the isolated plan. Violations fail the prepare with
    // a structured error instead of panicking.
    let (isolated_root, stats) = if jgi_rewrite::driver::check_enabled() {
        match jgi_check::checked_isolate(&mut plan, stacked_root, store) {
            Ok((root, stats, _audit)) => (root, stats),
            Err(e) => return Err(SessionError::Check(e.to_string())),
        }
    } else {
        isolate(&mut plan, stacked_root)
    };
    report.record_phase("isolate", t0.elapsed());

    let t0 = Instant::now();
    let cq = extract_cq(&plan, isolated_root).ok();
    let sql = cq.as_ref().map(jgi_sql::join_graph_sql);
    report.record_phase("emit-sql", t0.elapsed());

    report.rewrite = stats;
    let docs = core.doc_uris();
    plan.freeze();
    Ok(Prepared {
        text: query.to_string(),
        core,
        plan,
        stacked_root,
        isolated_root,
        cq,
        sql,
        report,
        docs,
        plan_memo: PlanMemo::new(),
    })
}

/// Execute a prepared query on the chosen back-end against shared state.
///
/// Never panics on executor failure: malformed plans and evaluator errors
/// surface as [`SessionError::Exec`] so one bad plan cannot take down a
/// serving worker. Budget exhaustion is *not* an error — it returns a
/// finished [`QueryOutcome`] whose `nodes` is `None` (the paper's *dnf*).
pub fn execute_prepared(
    ctx: &ExecCtx<'_>,
    prepared: &Prepared,
    engine: Engine,
) -> Result<QueryOutcome, SessionError> {
    let mut report = prepared.report.clone();
    report.engine = Some(engine.label());
    let start = Instant::now();
    let nodes: Option<Vec<u32>> = match engine {
        Engine::JoinGraph => match prepared.plannable_cq() {
            Some(cq) => {
                let Some(db) = ctx.db else {
                    return Err(SessionError::Exec("join-graph back-end needs a database".into()));
                };
                let t0 = Instant::now();
                let (plan, plan_stats, plan_cached) =
                    prepared.plan_memo.plan(db, cq, &plan_options(&ctx.budgets));
                report.record_phase("plan", t0.elapsed());
                report.optimizer = Some(plan_stats);
                report.plan_cached = plan_cached;
                let t0 = Instant::now();
                let (result, exec_stats) = physical::execute_with_stats(db, &plan);
                report.record_phase("execute", t0.elapsed());
                report.exec = Some(exec_stats);
                Some(result)
            }
            // Plan outside the extractable fragment, or a join graph too
            // wide for the planner: execute the *isolated* plan with the
            // interpreter (still faster than stacked, but honest about the
            // missing SQL hand-off).
            None => {
                report.record_phase("plan", Duration::ZERO);
                let t0 = Instant::now();
                let r = match execute_serialized(
                    &prepared.plan,
                    prepared.isolated_root,
                    ctx.store,
                    ctx.budgets.stacked,
                ) {
                    Ok(v) => Some(v),
                    Err(ExecError::BudgetExceeded) => None,
                    Err(e) => return Err(SessionError::Exec(format!("isolated plan: {e}"))),
                };
                report.record_phase("execute", t0.elapsed());
                r
            }
        },
        Engine::Stacked => {
            report.record_phase("plan", Duration::ZERO);
            let t0 = Instant::now();
            let r = match execute_serialized(
                &prepared.plan,
                prepared.stacked_root,
                ctx.store,
                ctx.budgets.stacked,
            ) {
                Ok(v) => Some(v),
                Err(ExecError::BudgetExceeded) => None,
                Err(e) => return Err(SessionError::Exec(format!("stacked plan: {e}"))),
            };
            report.record_phase("execute", t0.elapsed());
            r
        }
        Engine::NavWhole | Engine::NavSegmented => {
            let Some(nav) = ctx.nav else {
                return Err(SessionError::Exec("navigational back-end needs a nav database".into()));
            };
            let mode =
                if engine == Engine::NavWhole { NavMode::Whole } else { NavMode::Segmented };
            report.record_phase("plan", Duration::ZERO);
            let t0 = Instant::now();
            let (result, nav_stats) = nav
                .eval_with_stats(&prepared.core, NavOptions { mode, budget: ctx.budgets.nav });
            report.record_phase("execute", t0.elapsed());
            report.nav = Some(nav_stats);
            match result {
                Ok(refs) => Some(nav.to_pre(&refs, &ctx.store.doc_roots)),
                Err(NavError::Budget) => None,
                Err(e) => return Err(SessionError::Exec(format!("navigational evaluation: {e}"))),
            }
        }
    };
    let wall = start.elapsed();
    report.rows = nodes.as_ref().map(|n| n.len());
    report.emit(&prepared.text);
    Ok(QueryOutcome { nodes, wall, report })
}

/// A session: loaded documents plus engines.
///
/// The single-user, single-thread façade over the shared-state functions
/// [`prepare_on`] / [`execute_prepared`]. The document store is held behind
/// an [`Arc`] so handing it to the relational database (or to a serving
/// snapshot) shares rather than copies the encoding; session-side mutation
/// (`load_xml` / `add_tree`) goes through [`Arc::make_mut`], which is free
/// while the session is the only owner.
pub struct Session {
    store: Arc<DocStore>,
    nav: NavDb,
    db: Option<Database>,
    /// Execution budgets (stacked-interpreter rows, nav node visits).
    pub budgets: Budgets,
    /// Report of the most recent [`Session::execute`] call.
    last_report: Option<QueryReport>,
}

impl Session {
    /// Empty session.
    pub fn new() -> Session {
        Session {
            store: Arc::new(DocStore::new()),
            nav: NavDb::new(),
            db: None,
            budgets: Budgets::default(),
            last_report: None,
        }
    }

    /// Load a document from XML text.
    pub fn load_xml(&mut self, uri: &str, xml: &str) -> Result<(), SessionError> {
        let tree = jgi_xml::parse(uri, xml)
            .map_err(|e| SessionError::Frontend(e.to_string()))?;
        self.add_tree(tree);
        Ok(())
    }

    /// Load an already-built tree (e.g. from the synthetic generators).
    pub fn add_tree(&mut self, tree: Tree) {
        Arc::make_mut(&mut self.store).add_tree(&tree);
        self.nav.add_tree(tree);
        self.db = None; // indexes must be rebuilt
    }

    /// The tabular encoding (for inspection/serialization).
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    /// The tabular encoding, shareable (no copy).
    pub fn store_arc(&self) -> Arc<DocStore> {
        Arc::clone(&self.store)
    }

    /// The navigational database.
    pub fn nav(&self) -> &NavDb {
        &self.nav
    }

    /// Export the session's documents as relational `doc` rows — the
    /// paper's `doc(pre,size,level,kind,name,value,data,parent)` encoding
    /// with interner ids resolved to strings and sentinels to SQL `NULL`s.
    /// Row `i` is `pre` rank `i`, so a backend loaded from this export
    /// agrees with the engine on node identity by construction; that
    /// agreement is what lets the `backend-oracle` compare raw `pre`
    /// sequences instead of serialized trees.
    pub fn export_doc_rows(&self) -> Vec<jgi_sql::DocRow> {
        jgi_sql::doc_rows(&self.store)
    }

    /// Full SQL load script for this session's documents in the given
    /// dialect: `doc` DDL, chunked `INSERT`s inside one transaction, and
    /// the Table 6 secondary indexes. Suitable for piping straight into
    /// `sqlite3` (or any engine speaking the ANSI rendering); the
    /// `backend-oracle` and the `SQL` wire command both build on it.
    pub fn export_sql(&self, dialect: jgi_sql::Dialect) -> String {
        jgi_sql::load_script(&self.export_doc_rows(), dialect)
    }

    /// The relational database (builds the Table 6 index set on first use;
    /// shares the session's store, no copy).
    pub fn database(&mut self) -> &Database {
        if self.db.is_none() {
            self.db = Some(Database::with_default_indexes(Arc::clone(&self.store)));
        }
        self.db.as_ref().expect("just built")
    }

    /// Parse, normalize, compile, isolate, and extract a query.
    ///
    /// `context_doc` names the document a rooted path (`/site/…`) refers to.
    pub fn prepare(
        &self,
        query: &str,
        context_doc: Option<&str>,
    ) -> Result<Prepared, SessionError> {
        prepare_on(&self.store, query, context_doc)
    }

    /// Execute a prepared query on the chosen back-end. The returned
    /// outcome carries a [`QueryReport`] with the prepare-side phase
    /// timings extended by this run's `plan` and `execute` phases and the
    /// back-end's statistics; the same report is kept for
    /// [`Session::report`] and emitted to stderr per `JGI_OBS`.
    ///
    /// Executor failures surface as [`SessionError::Exec`] (they no longer
    /// panic); budget exhaustion still reports as *dnf* via
    /// [`QueryOutcome::finished`].
    pub fn execute(
        &mut self,
        prepared: &Prepared,
        engine: Engine,
    ) -> Result<QueryOutcome, SessionError> {
        // Lazily build the relational database only when the join-graph
        // back-end will actually consult it.
        if engine == Engine::JoinGraph && prepared.plannable_cq().is_some() {
            self.database();
        }
        let ctx = ExecCtx {
            store: &self.store,
            db: self.db.as_ref(),
            nav: Some(&self.nav),
            budgets: self.budgets,
        };
        let outcome = execute_prepared(&ctx, prepared, engine)?;
        self.last_report = Some(outcome.report.clone());
        Ok(outcome)
    }

    /// The report of the most recent [`Session::execute`] call.
    pub fn report(&self) -> Option<&QueryReport> {
        self.last_report.as_ref()
    }

    /// Explain the join-graph physical plan (paper Figs. 10/11 style).
    pub fn explain(&mut self, prepared: &Prepared) -> Result<String, SessionError> {
        let cq = prepared
            .plannable_cq()
            .ok_or(SessionError::Extract(ExtractError::NoSerializeRoot))?
            .clone();
        let opts = plan_options(&self.budgets);
        let db = self.database();
        let plan = optimizer::plan_opts(db, &cq, &opts);
        Ok(jgi_engine::explain::render(db, &plan))
    }

    /// EXPLAIN ANALYZE: plan (through the prepared query's memo, like an
    /// execution), execute, and render the operator tree with estimated vs
    /// actual row counts per operator (deterministic — no timings — so the
    /// output shape can be golden-tested).
    pub fn explain_analyze(&mut self, prepared: &Prepared) -> Result<String, SessionError> {
        let cq = prepared
            .plannable_cq()
            .ok_or(SessionError::Extract(ExtractError::NoSerializeRoot))?;
        let popts = plan_options(&self.budgets);
        let db = self.database();
        let (plan, plan_stats, cached) = prepared.plan_memo.plan(db, cq, &popts);
        let (_, stats) = physical::execute_with_stats(db, &plan);
        Ok(jgi_engine::explain::render_analyze(db, &plan, &plan_stats, cached, &stats))
    }

    /// Serialize a node sequence to XML text.
    pub fn serialize(&self, nodes: &[u32]) -> String {
        serialize_nodes(&self.store, nodes)
    }

    /// Total serialized node count (the "# nodes" of paper Table 9).
    pub fn node_count(&self, nodes: &[u32]) -> u64 {
        serialized_node_count(&self.store, nodes)
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_xml::generate::{generate_xmark, XmarkConfig};

    fn xmark_session() -> Session {
        let mut s = Session::new();
        s.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
        s
    }

    #[test]
    fn all_engines_agree_on_q1() {
        let mut s = xmark_session();
        let p = s
            .prepare(r#"doc("auction.xml")/descendant::open_auction[bidder]"#, None)
            .unwrap();
        assert!(p.cq.is_some(), "Q1 must be extractable");
        assert!(p.sql.as_ref().unwrap().contains("SELECT DISTINCT"));
        let results: Vec<Vec<u32>> = Engine::all()
            .into_iter()
            .map(|e| s.execute(&p, e).unwrap().nodes.expect("all engines finish"))
            .collect();
        assert!(!results[0].is_empty());
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn serialization_round_trip() {
        let mut s = xmark_session();
        let p = s
            .prepare(r#"doc("auction.xml")/descendant::bidder"#, None)
            .unwrap();
        let out = s.execute(&p, Engine::JoinGraph).unwrap();
        let nodes = out.nodes.unwrap();
        let xml = s.serialize(&nodes);
        assert!(xml.starts_with("<bidder>"));
        assert_eq!(xml.matches("<bidder>").count(), nodes.len());
        assert!(s.node_count(&nodes) > nodes.len() as u64);
    }

    #[test]
    fn rooted_paths_use_the_context_document() {
        let mut s = xmark_session();
        let p = s.prepare("/site/open_auctions/open_auction", Some("auction.xml")).unwrap();
        let out = s.execute(&p, Engine::JoinGraph).unwrap();
        assert!(!out.nodes.unwrap().is_empty());
    }

    #[test]
    fn explain_renders() {
        let mut s = xmark_session();
        let p = s
            .prepare(r#"doc("auction.xml")/descendant::open_auction[bidder]"#, None)
            .unwrap();
        let text = s.explain(&p).unwrap();
        assert!(text.contains("RETURN") && text.contains("IXSCAN"), "{text}");
    }

    #[test]
    fn load_from_xml_text() {
        let mut s = Session::new();
        s.load_xml("t.xml", "<a><b>1</b><b>2</b></a>").unwrap();
        let p = s.prepare(r#"doc("t.xml")/child::a/child::b"#, None).unwrap();
        let out = s.execute(&p, Engine::JoinGraph).unwrap();
        assert_eq!(out.len(), 2);
        assert!(s.load_xml("bad.xml", "<a>").is_err());
    }

    /// One document as the serving layer holds it: store, database (its
    /// indexes created in the order given), navigational oracle.
    struct Doc {
        db: Database,
        nav: NavDb,
    }

    impl Doc {
        fn build(tree: Tree, index_order: &[&str]) -> Doc {
            let mut store = DocStore::new();
            store.add_tree(&tree);
            let mut db = Database::new(store);
            for spec in index_order {
                db.create_index_by_name(spec).unwrap();
            }
            let mut nav = NavDb::new();
            nav.add_tree(tree);
            Doc { db, nav }
        }

        fn run(&self, p: &Prepared, engine: Engine, budgets: Budgets) -> QueryOutcome {
            let ctx =
                ExecCtx { store: &self.db.store, db: Some(&self.db), nav: Some(&self.nav), budgets };
            execute_prepared(&ctx, p, engine).unwrap()
        }
    }

    const EXPENSIVE: &str = r#"doc("auction.xml")//closed_auction[price > 500]"#;

    /// The auction document before and after a `REPLACE` of one cheap
    /// closed auction's price by an expensive one. The new price string
    /// shifts every later value id; the second database also creates its
    /// indexes in reverse, so the two disagree on index slots as well.
    fn before_and_after_replace() -> (Doc, Doc) {
        let before = generate_xmark(XmarkConfig { scale: 0.002, seed: 5 });
        let mut after = before.clone();
        let cheap_price = after
            .preorder()
            .into_iter()
            .filter(|&n| after.name(n) == Some("closed_auction"))
            .flat_map(|ca| after.content_children(ca).to_vec())
            .find(|&c| {
                after.name(c) == Some("price")
                    && after.string_value(c).parse::<f64>().is_ok_and(|v| v <= 500.0)
            })
            .expect("some closed auction went for 500 or less");
        let mut frag = Tree::new("frag.xml");
        let root = frag.root();
        let price = frag.add_text_element(root, "price", "99999.5");
        after.replace_subtree(cheap_price, &frag, price);
        let in_order = jgi_engine::catalog::DEFAULT_INDEXES;
        let reversed: Vec<&str> = in_order.iter().rev().copied().collect();
        (Doc::build(before, in_order), Doc::build(after, &reversed))
    }

    #[test]
    fn same_database_plans_once() {
        let (doc, _) = before_and_after_replace();
        let p = prepare_on(&doc.db.store, EXPENSIVE, None).unwrap();
        let budgets = Budgets::default();
        let first = doc.run(&p, Engine::JoinGraph, budgets);
        let second = doc.run(&p, Engine::JoinGraph, budgets);
        assert!(!first.report.plan_cached, "the first execution plans");
        assert!(second.report.plan_cached, "the second does not");
        assert_eq!(first.nodes, second.nodes);
        assert_eq!(first.report.optimizer, second.report.optimizer, "memoised search effort");
        let opt = |o: &QueryOutcome| {
            o.report.exec_counters().filter(|(k, _)| k.starts_with("opt.")).collect::<Vec<_>>()
        };
        let states = first.report.optimizer.as_ref().expect("planned").states_considered as u64;
        assert!(states > 0);
        assert!(opt(&first).contains(&("opt.states_considered", states)), "{:?}", opt(&first));
        assert_eq!(opt(&second), [], "a memo hit re-emits no optimizer counters");
    }

    #[test]
    fn alternating_databases_each_get_their_own_plan_and_answer() {
        let (before, after) = before_and_after_replace();
        let p = prepare_on(&before.db.store, EXPENSIVE, None).unwrap();
        let budgets = Budgets::default();
        let expect_before = before.run(&p, Engine::NavWhole, budgets).nodes;
        let expect_after = after.run(&p, Engine::NavWhole, budgets).nodes;
        assert_eq!(
            expect_after.as_ref().map(Vec::len),
            expect_before.as_ref().map(|n| n.len() + 1),
            "the replaced price moved one auction over the bar"
        );
        for round in 0..3 {
            for (doc, expected) in [(&before, &expect_before), (&after, &expect_after)] {
                let out = doc.run(&p, Engine::JoinGraph, budgets);
                assert_eq!(&out.nodes, expected, "round {round}: this database's own answer");
                assert!(!out.report.plan_cached, "round {round}: other database, other plan");
                let again = doc.run(&p, Engine::JoinGraph, budgets);
                assert!(again.report.plan_cached, "round {round}: same database, same plan");
                assert_eq!(&again.nodes, expected);
            }
        }
    }

    #[test]
    fn plan_options_are_part_of_the_memo_key() {
        let (doc, _) = before_and_after_replace();
        let p = prepare_on(&doc.db.store, EXPENSIVE, None).unwrap();
        let base = Budgets { join: optimizer::JoinStrategy::Auto, ..Budgets::default() };
        let expected = doc.run(&p, Engine::JoinGraph, base).nodes;
        assert!(doc.run(&p, Engine::JoinGraph, base).report.plan_cached);
        let changed = Budgets { join: optimizer::JoinStrategy::Nl, ..base };
        let out = doc.run(&p, Engine::JoinGraph, changed);
        assert!(!out.report.plan_cached, "a planner option changed: re-plan");
        assert_eq!(out.nodes, expected);
        assert!(doc.run(&p, Engine::JoinGraph, changed).report.plan_cached);
        assert!(!doc.run(&p, Engine::JoinGraph, base).report.plan_cached, "and back");
        // Budgets the planner does not read leave the plan alone.
        let more_threads = Budgets { parallelism: Parallelism::Fixed(2), ..base };
        assert!(doc.run(&p, Engine::JoinGraph, more_threads).report.plan_cached);
    }

    #[test]
    fn creating_an_index_changes_the_database_identity() {
        let (mut doc, other) = before_and_after_replace();
        assert_ne!(doc.db.id(), other.db.id());
        assert_eq!(doc.db.id(), doc.db.clone().id(), "a clone reads the same statistics");
        let p = prepare_on(&doc.db.store, EXPENSIVE, None).unwrap();
        let budgets = Budgets::default();
        let expected = doc.run(&p, Engine::JoinGraph, budgets).nodes;
        let id = doc.db.id();
        doc.db.create_index_by_name("nksp").unwrap();
        assert_eq!(doc.db.id(), id, "an index that already exists changes nothing");
        doc.db.create_index_by_name("dnkp").unwrap();
        assert_ne!(doc.db.id(), id, "a new index is something the optimizer reads");
        let out = doc.run(&p, Engine::JoinGraph, budgets);
        assert!(!out.report.plan_cached);
        assert_eq!(out.nodes, expected);
        assert_ne!(doc.db.hypothetical().id(), doc.db.id());
    }

    #[test]
    fn dnf_reporting() {
        let mut s = xmark_session();
        s.budgets.stacked = ExecBudget { max_rows: 100 };
        let p = s
            .prepare(r#"doc("auction.xml")/descendant::node()/descendant::node()"#, None)
            .unwrap();
        let out = s.execute(&p, Engine::Stacked).unwrap();
        assert!(!out.finished());
    }

    /// A writer that forwards every individual `write` call as a separate
    /// chunk, modelling the worst-case interleaving a shared stream could
    /// exhibit between two `write` calls from different threads.
    #[derive(Clone)]
    struct ChunkSink(std::sync::mpsc::Sender<Vec<u8>>);

    impl std::io::Write for ChunkSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Concurrent JSON emitters never tear lines: every `write` call
    /// carries exactly one complete, parseable report. With several writes
    /// per report, chunks from different threads could interleave on a
    /// shared stderr. `off` writes nothing.
    #[test]
    fn concurrent_json_emission_never_tears_lines() {
        let mut s = xmark_session();
        let p = s.prepare(r#"doc("auction.xml")/descendant::open_auction[bidder]"#, None).unwrap();
        let report = s.execute(&p, Engine::JoinGraph).unwrap().report;
        let (tx, rx) = std::sync::mpsc::channel();
        report.emit_to(jgi_obs::ObsMode::Off, &mut ChunkSink(tx.clone()), "off");
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (mut sink, report) = (ChunkSink(tx.clone()), &report);
                scope.spawn(move || {
                    for i in 0..50 {
                        report.emit_to(jgi_obs::ObsMode::Json, &mut sink, &format!("t{t}q{i}"));
                    }
                });
            }
        });
        drop(tx);
        let chunks: Vec<Vec<u8>> = rx.iter().collect();
        assert_eq!(chunks.len(), 400, "one write call per JSON report, none when off");
        for chunk in &chunks {
            let s = std::str::from_utf8(chunk).expect("utf8");
            let line = s.strip_suffix('\n').unwrap_or_else(|| panic!("no trailing newline: {s:?}"));
            assert!(!line.contains('\n'), "report spans lines: {line:?}");
            assert!(
                line.starts_with("{\"report\":\"t") && line.ends_with('}'),
                "torn or malformed JSON line: {line:?}"
            );
            assert!(line.contains("\"metrics\":{\"counters\":{"), "{line}");
            // Balanced braces outside strings ⇒ structurally complete.
            let (mut depth, mut in_str, mut esc) = (0i64, false, false);
            for c in line.chars() {
                match (in_str, esc, c) {
                    (true, true, _) => esc = false,
                    (true, false, '\\') => esc = true,
                    (true, false, '"') => in_str = false,
                    (true, false, _) => {}
                    (false, _, '"') => in_str = true,
                    (false, _, '{') => depth += 1,
                    (false, _, '}') => depth -= 1,
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "unbalanced braces: {line:?}");
            assert!(!in_str, "unterminated string: {line:?}");
        }
    }
}
