//! Metric names, units, and the output of one run.
//!
//! The names here are the benchmark's interface: `BENCHMARK.json` lists
//! exactly these, later issues cite them, and a unit test keeps the two in
//! step. An untraced run reports every end-to-end metric, a traced run every
//! per-layer metric — a metric that does not apply to a workload is 0 there.

use crate::queries::TYPE_IDS;
use jgi_obs::Json;
use std::collections::BTreeMap;

/// An end-to-end metric: every workload reports it, and it is never 0.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// Bounds come from the spreads measured on the builder's box (README,
/// *Repeatability*): timings spread 4–14 % across seeds there, so nothing
/// under the contract's 25 % ceiling would hold three spreads.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "query_ms_geomean", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "query_ms_worst", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "rss_loaded_mb", unit: "MB", higher_is_better: false, bound: 0.05 },
    EndToEnd { name: "rss_mb", unit: "MB", higher_is_better: false, bound: 0.25 },
];

/// Per-layer metrics other than the per-type medians: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 66] = [
    // Set-up: move setup_s and rss_mb.
    ("xml.parse_ms", "ms"),
    ("xml.encode_ms", "ms"),
    ("xml.nodes", "count"),
    ("engine.index_build_ms", "ms"),
    ("nav.build_ms", "ms"),
    ("engine.rss_bytes_per_node", "bytes"),
    // Compile: move query_ms_* on compile_cold.
    ("xquery.parse_ms", "ms"),
    ("xquery.normalize_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("compiler.nodes", "count"),
    ("rewrite.isolate_ms", "ms"),
    ("rewrite.steps", "count"),
    ("rewrite.nodes_after", "count"),
    ("rewrite.extract_ms", "ms"),
    ("sql.emit_ms", "ms"),
    ("sql.bytes", "bytes"),
    ("core.prepare_overhead_ms", "ms"),
    // Plan.
    ("engine.plan_ms", "ms"),
    ("engine.plan_states", "count"),
    ("engine.plan_access_paths", "count"),
    ("engine.plan_share", "share"),
    // Execute.
    ("engine.exec_ms", "ms"),
    ("engine.exec_share", "share"),
    ("engine.rows_scanned", "rows"),
    ("engine.rows_per_result", "rows"),
    ("engine.btree_descents", "count"),
    ("engine.btree_skips", "count"),
    ("engine.vector_batches", "count"),
    ("engine.vector_fallbacks", "rows"),
    ("engine.sort_rows", "rows"),
    ("engine.dedup_removed", "rows"),
    ("engine.join_seeks", "count"),
    ("engine.join_probe_batches", "count"),
    ("engine.join_build_rows", "rows"),
    ("core.execute_self_ms", "ms"),
    // Serve, read side.
    ("serve.parse_command_ms", "ms"),
    ("serve.handle_self_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.prepare_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.worker_busy_share", "share"),
    ("serve.cache_hit_rate", "share"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_missed", "count"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    // Serve, write side.
    ("commit_ms_p50", "ms"),
    ("serve.commit_ms", "ms"),
    ("mutate.apply_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("mutate.overlay_rows", "rows"),
    ("mutate.rows_delta", "rows"),
    ("serve.generations", "count"),
    ("serve.cache_invalidations", "count"),
    ("serve.plans_lost_per_commit", "count"),
    ("serve.recompile_ms", "ms"),
    ("serve.read_ms_p99", "ms"),
    // Outcome and the trace itself.
    ("failed_share", "share"),
    ("oracle.unverified", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.spans", "count"),
    ("bench.threads", "count"),
];

/// The content of `BENCHMARK.json`, generated from the tables above so the
/// file cannot drift from the names a run reports (a unit test compares).
pub fn describe() -> String {
    use crate::run::Workload;
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.higher_is_better { "higher" } else { "lower" },
                m.bound
            )
        })
        .collect();
    let per_layer = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            // Times, waits and failures are better lower; work counts too
            // (less work for the same answers); hit rates and coverage higher.
            let higher = matches!(
                name.as_str(),
                "serve.cache_hit_rate" | "trace.coverage_pct" | "engine.exec_share"
            );
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if higher { "higher" } else { "lower" }
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// An unsigned field of a rendered JSON line (a reply of the line protocol,
/// or the result line of a run).
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Whether field `key` of a rendered JSON line has the literal `value`.
pub fn field_is(line: &str, key: &str, value: &str) -> bool {
    line.contains(&format!("\"{key}\":{value}"))
}

/// `type.<id>.ms_p50`.
pub fn type_metric(id: &str) -> String {
    format!("type.{id}.ms_p50")
}

/// Every per-layer metric name with its unit, per-type medians included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.extend(TYPE_IDS.iter().map(|id| (type_metric(id), "ms")));
    names
}

/// One reported number with its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub n: u64,
}

/// The metrics of one run, keyed by name. Built over a fixed name list so a
/// run can neither invent a metric nor forget one.
pub struct MetricSet {
    names: Vec<(String, &'static str)>,
    values: BTreeMap<String, Metric>,
    /// Metrics that needed more samples than the run produced.
    pub low_n: Vec<String>,
}

impl MetricSet {
    pub fn end_to_end() -> MetricSet {
        MetricSet::over(END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect())
    }

    pub fn per_layer() -> MetricSet {
        MetricSet::over(per_layer_names())
    }

    fn over(names: Vec<(String, &'static str)>) -> MetricSet {
        MetricSet { names, values: BTreeMap::new(), low_n: Vec::new() }
    }

    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        assert!(self.names.iter().any(|(k, _)| k == name), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name.to_string(), Metric { value, n });
    }

    /// Set a metric whose sample may be too small to report (`None`).
    pub fn set_floored(&mut self, name: &str, value: Option<f64>, n: u64) {
        match value {
            Some(v) => self.set(name, v, n),
            None => {
                self.low_n.push(name.to_string());
                self.set(name, 0.0, n);
            }
        }
    }

    /// `(name, unit, metric)` in declaration order; unset metrics are 0 with
    /// n = 0 (they do not apply to this workload).
    pub fn rows(&self) -> Vec<(&str, &'static str, Metric)> {
        self.names
            .iter()
            .map(|(name, unit)| {
                let m = self.values.get(name).cloned().unwrap_or(Metric { value: 0.0, n: 0 });
                (name.as_str(), *unit, m)
            })
            .collect()
    }
}

/// Everything one run produced.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// Human-readable remarks printed before the metrics (`# …` lines).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Print `name value unit n` per metric, then — as the last line — the
    /// result object the driver reads.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, unit, m) in self.metrics.rows() {
            if self.metrics.low_n.iter().any(|l| l == name) {
                println!("{name} low_n {unit} {}", m.n);
            } else {
                println!("{name} {} {unit} {}", m.value, m.n);
            }
        }
        println!("{}", self.to_json().render());
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .rows()
            .into_iter()
            .map(|(name, unit, m)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// A run succeeded when nothing diverged, nothing failed, and every
    /// percentile had its samples. A smoke run checks plumbing and results,
    /// not numbers, and is too short for sample floors.
    pub fn ok(&self, smoke: bool) -> bool {
        self.correct && self.failed == 0 && (smoke || self.metrics.low_n.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_parse() {
        let reply = r#"{"ok":true,"engine":"joingraph","rows":49,"dnf":false,"trace_id":"00000000000000a1","wall_us":212,"queue_us":7,"prepare_us":3,"cached":true,"deadline_exceeded":false,"generation":2}"#;
        assert_eq!(field_u64(reply, "rows"), Some(49));
        assert_eq!(field_u64(reply, "wall_us"), Some(212));
        assert_eq!(field_u64(reply, "prepare_us"), Some(3));
        assert_eq!(field_u64(reply, "missing"), None);
        assert!(field_is(reply, "ok", "true") && field_is(reply, "cached", "true"));
        assert!(!field_is(reply, "dnf", "true"));
    }

    #[test]
    fn benchmark_json_is_the_described_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            describe(),
            "regenerate it: benchmark/run.sh --describe > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut all: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        all.extend(per_layer_names().into_iter().map(|(n, _)| n));
        let total = all.len();
        assert!(per_layer_names().len() <= 128);
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a metric name is used twice");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = MetricSet::end_to_end();
        metrics.set("setup_s", 0.8127, 3);
        let r = RunResult { correct: true, attempted: 10, failed: 0, metrics, notes: Vec::new() };
        let line = r.to_json().render();
        assert!(line.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}"#), "{line}");
        assert!(line.contains(r#""rss_mb":{"value":0,"unit":"MB"}"#), "{line}");
    }

    #[test]
    fn low_n_fails_the_run() {
        let mut metrics = MetricSet::per_layer();
        metrics.set_floored("op_ms_p99", None, 12);
        let r = RunResult { correct: true, attempted: 12, failed: 0, metrics, notes: Vec::new() };
        assert!(!r.ok(false) && r.ok(true));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metrics_are_refused() {
        MetricSet::end_to_end().set("latency", 1.0, 1);
    }
}
