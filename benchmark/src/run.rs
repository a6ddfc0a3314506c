//! What every workload shares: the run configuration, repeated set-up, and
//! the per-type latency table the end-to-end metrics are computed from.

use crate::docs::{rss_bytes, DocSpec, DocText, LARGE, SMALL, TINY};
use crate::oracle::Oracle;
use crate::queries::QueryType;
use crate::report::{type_metric, MetricSet};
use crate::stats;
use crate::trace::{self, Span};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCold,
    ExecPath,
    ExecJoin,
    ServeRead,
    ServeWriteMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CompileCold,
        Workload::ExecPath,
        Workload::ExecJoin,
        Workload::ServeRead,
        Workload::ServeWriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile_cold",
            Workload::ExecPath => "exec_path",
            Workload::ExecJoin => "exec_join",
            Workload::ServeRead => "serve_read",
            Workload::ServeWriteMix => "serve_write_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists — the one line `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CompileCold => "cold prepare+first execute on small docs: xquery/compiler/rewrite/sql do the work, the engine almost none",
            Workload::ExecPath => "warm path queries on large docs, 1 thread: scan/semijoin/B-tree pipelines dominate, value joins and the 12-way DP are bypassed",
            Workload::ExecJoin => "warm value joins on large docs, 1 thread: hash/leapfrog/NL join steps and the DP planner on 6-12-way self-joins dominate",
            Workload::ServeRead => "served path mix, 100% warm plan cache: queue wait, cache probe, protocol and per-execute re-planning are most of the latency",
            Workload::ServeWriteMix => "serve_read plus one write per 25 ops of one client: commit, publish, per-document invalidation and recompile beside reads",
        }
    }

    /// The document set the workload runs on.
    pub fn docs(self, smoke: bool) -> DocSpec {
        match (smoke, self) {
            (true, _) => TINY,
            (false, Workload::ExecPath | Workload::ExecJoin) => LARGE,
            (false, _) => SMALL,
        }
    }
}

/// Default seed: the paper's conference date.
pub const DEFAULT_SEED: u64 = 20_100_322;

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The benchmark's own directory (`expected/`, `out/`).
    pub dir: PathBuf,
}

impl RunConfig {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Client (and server worker) threads of the serve workloads.
    pub fn clients(&self) -> usize {
        available_threads().min(4)
    }
}

pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Build the workload's state `times` times, dropping each before the next
/// is built so the peak RSS is that of one; returns the last state and the
/// seconds each build took.
pub fn set_up_repeatedly<T>(times: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), secs)
}

/// Latency samples per query type, in milliseconds.
pub struct TypeTable {
    ids: Vec<&'static str>,
    samples: Vec<Vec<f64>>,
}

impl TypeTable {
    pub fn new(types: &[QueryType]) -> TypeTable {
        TypeTable {
            ids: types.iter().map(|t| t.id).collect(),
            samples: vec![Vec::new(); types.len()],
        }
    }

    pub fn record(&mut self, type_idx: usize, latency: Duration) {
        self.samples[type_idx].push(latency.as_secs_f64() * 1e3);
    }

    pub fn absorb(&mut self, other: TypeTable) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
    }

    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// `(type id, median ms, n)` for every type that ran.
    pub fn medians(&self) -> Vec<(&'static str, f64, u64)> {
        self.ids
            .iter()
            .zip(&self.samples)
            .filter_map(|(id, s)| stats::median(s).map(|m| (*id, m, s.len() as u64)))
            .collect()
    }

    /// The end-to-end latency metrics: geometric mean over the types of the
    /// per-type median, and the slowest type's median.
    pub fn set_end_to_end(&self, m: &mut MetricSet) {
        let medians = self.medians();
        let values: Vec<f64> = medians.iter().map(|&(_, v, _)| v).collect();
        let n = self.ops();
        m.set("query_ms_geomean", stats::geomean(&values).expect("every type ran"), n);
        let (_, worst, worst_n) =
            medians.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).expect("every type ran");
        m.set("query_ms_worst", worst, worst_n);
    }

    /// The per-type medians of the traced run.
    pub fn set_per_type(&self, m: &mut MetricSet) {
        for (id, median, n) in self.medians() {
            m.set(&type_metric(id), median, n);
        }
    }
}

/// The metrics every traced run derives from its spans alone: one `_ms`
/// metric per layer span (mean self time per span), the engine's shares,
/// coverage, and span count.
pub fn set_trace_metrics(m: &mut MetricSet, spans: &[Span]) {
    let agg = trace::self_times(spans);
    for (span, t) in &agg {
        // `handle_command`'s self time is what is left of it once prepare,
        // queue wait and execution are taken out.
        let name = match *span {
            "serve.handle_command" => "serve.handle_self_ms".to_string(),
            span => format!("{span}_ms"),
        };
        if crate::report::PER_LAYER.iter().any(|(n, _)| *n == name) {
            m.set(&name, t.self_ns as f64 / t.spans as f64 / 1e6, t.spans);
        }
    }
    // Where the engine's time goes, and how much of an op is execution.
    if let (Some(plan), Some(exec), Some(op)) =
        (agg.get("engine.plan"), agg.get("engine.exec"), agg.get("bench.op"))
    {
        m.set(
            "engine.plan_share",
            plan.self_ns as f64 / (plan.self_ns + exec.self_ns) as f64,
            plan.spans,
        );
        m.set("engine.exec_share", exec.self_ns as f64 / op.total_ns as f64, exec.spans);
    }
    let accounted = trace::accounted_ns(spans);
    let layers: u64 =
        agg.iter().filter(|(n, _)| !n.starts_with("bench.")).map(|(_, t)| t.self_ns).sum();
    if accounted > 0 {
        m.set("trace.coverage_pct", 100.0 * layers as f64 / accounted as f64, spans.len() as u64);
    }
    m.set("trace.spans", spans.len() as f64, spans.len() as u64);
    m.set("bench.threads", available_threads() as f64, 1);
}

/// Tracing overhead: the median over ops of how much longer the traced leg
/// of an op took than its untraced leg, in percent.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> Option<f64> {
    let ratios: Vec<f64> = untraced_ms
        .iter()
        .zip(traced_ms)
        .filter(|(u, _)| **u > 0.0)
        .map(|(u, t)| 100.0 * (t / u - 1.0))
        .collect();
    stats::median(&ratios)
}

/// `rss_loaded_mb`: the resident set once the documents are loaded and the
/// plans warm — call it right before the window. Unlike the peak it leaves
/// out what the window itself allocates, so it holds a 5 % bound.
pub fn set_rss_loaded(m: &mut MetricSet) {
    let (now, _) = rss_bytes();
    m.set("rss_loaded_mb", now as f64 / (1024.0 * 1024.0), 1);
}

/// The notes every run opens with: what ran on what, and where the
/// references came from.
pub fn head_notes(
    cfg: &RunConfig,
    text: &DocText,
    nodes: usize,
    threads: &str,
    oracle: &Oracle,
) -> Vec<String> {
    vec![
        format!(
            "{} seed {} docs {} ({nodes} nodes) {threads} of {} threads",
            cfg.workload.name(),
            cfg.seed,
            text.spec.name,
            available_threads()
        ),
        format!(
            "oracle: {}; {} of {} texts unverified",
            oracle.source,
            oracle.unverified(),
            oracle.texts()
        ),
    ]
}

/// What an untraced run reports besides its window: `setup_s`, the median
/// of its set-ups, and `rss_mb`, the process's peak resident set at the end.
pub fn finish_untraced(m: &mut MetricSet, setup_secs: &[f64]) {
    let n = setup_secs.len() as u64;
    m.set("setup_s", stats::median(setup_secs).expect("set up at least once"), n);
    let (_, peak) = rss_bytes();
    m.set("rss_mb", peak as f64 / (1024.0 * 1024.0), 1);
}

/// What a traced run knows besides its spans.
pub struct TracedFacts<'a> {
    pub nodes: usize,
    /// Growth of the resident set over the (single) set-up, bytes.
    pub setup_rss_growth: u64,
    pub oracle: &'a Oracle,
    pub failed: u64,
    pub attempted: u64,
}

/// What a traced run reports besides its window: the span-derived metrics,
/// the set-up's size, the outcome — and the trace file
/// `out/trace-<workload>.json`.
pub fn finish_traced(
    cfg: &RunConfig,
    m: &mut MetricSet,
    notes: &mut Vec<String>,
    spans: &[Span],
    f: TracedFacts<'_>,
) {
    set_trace_metrics(m, spans);
    m.set("xml.nodes", f.nodes as f64, 1);
    m.set("engine.rss_bytes_per_node", f.setup_rss_growth as f64 / f.nodes as f64, 1);
    m.set("oracle.unverified", f.oracle.unverified() as f64, f.oracle.texts() as u64);
    m.set("failed_share", f.failed as f64 / f.attempted.max(1) as f64, f.attempted);
    let out = cfg.dir.join("out");
    let json = trace::to_json(cfg.workload.name(), cfg.seed, spans);
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        std::fs::write(
            out.join(format!("trace-{}.json", cfg.workload.name())),
            json.render() + "\n",
        )
    });
    if let Err(e) = written {
        notes.push(format!("trace file not written: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_the_median_paired_ratio() {
        let o = overhead_pct(&[1.0, 2.0, 4.0], &[1.1, 2.0, 4.8]).unwrap();
        assert!((o - 10.0).abs() < 1e-9, "{o}");
        assert_eq!(overhead_pct(&[], &[]), None);
    }

    #[test]
    fn repeated_set_up_keeps_the_last_state() {
        let mut built = 0;
        let (state, secs) = set_up_repeatedly(3, || {
            built += 1;
            built
        });
        assert_eq!((state, secs.len()), (3, 3));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
