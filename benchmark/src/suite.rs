//! The suite: every workload untraced, then traced, each run in a process of
//! its own (so `rss_mb` is that run's peak and nothing else's), plus the
//! repeatability gate and `--bless`.

use crate::docs::{DocText, SessionDocs, LARGE, SMALL};
use crate::oracle;
use crate::queries;
use crate::report::{field_is, field_u64, per_layer_names, END_TO_END};
use crate::run::Workload;
use crate::trace::Recorder;
use jgi_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

pub struct SuiteConfig {
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Sets of runs; two or more switch the repeatability gate on.
    pub repeat: usize,
    pub only: Option<Workload>,
}

/// One metric line of a run: `name value unit n`, value `None` for `low_n`.
struct Line {
    name: String,
    value: Option<f64>,
    unit: String,
    n: u64,
}

/// What one child run printed.
struct Record {
    workload: Workload,
    trace: bool,
    exit_ok: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    lines: Vec<Line>,
}

impl Record {
    fn value(&self, name: &str) -> Option<f64> {
        self.lines.iter().find(|l| l.name == name).and_then(|l| l.value)
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .lines
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    Json::obj([
                        ("value", l.value.map_or(Json::Null, Json::Num)),
                        ("unit", Json::str(l.unit.as_str())),
                        ("n", Json::UInt(l.n)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("trace", Json::Bool(self.trace)),
            ("ok", Json::Bool(self.exit_ok)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

fn parse_line(line: &str) -> Option<Line> {
    let mut it = line.split_whitespace();
    let (name, value, unit, n) = (it.next()?, it.next()?, it.next()?, it.next()?);
    if it.next().is_some() || name.starts_with('#') {
        return None;
    }
    let value = if value == "low_n" { None } else { Some(value.parse().ok()?) };
    Some(Line { name: name.to_string(), value, unit: unit.to_string(), n: n.parse().ok()? })
}

/// Run one workload once in a child process, echoing what it prints.
fn run_child(cfg: &SuiteConfig, workload: Workload, trace: bool) -> std::io::Result<Record> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--dir").arg(&cfg.dir);
    cmd.args(["--workload", workload.name(), "--seed", &cfg.seed.to_string()]);
    cmd.args(["--seconds", &cfg.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().unwrap_or_default();
    for line in stdout.lines().filter(|&l| l != result) {
        println!("{line}");
    }
    Ok(Record {
        workload,
        trace,
        exit_ok: out.status.success(),
        correct: field_is(result, "correct", "true"),
        attempted: field_u64(result, "attempted").unwrap_or(0),
        failed: field_u64(result, "failed").unwrap_or(0),
        lines: stdout.lines().filter_map(parse_line).collect(),
    })
}

/// Traced metrics that are counts of work done: with one thread and a
/// count-boxed op stream they must repeat exactly.
fn count_metrics() -> Vec<String> {
    per_layer_names()
        .into_iter()
        .filter(|(name, unit)| {
            matches!(*unit, "count" | "rows" | "bytes") && name != "engine.rss_bytes_per_node"
        })
        .map(|(name, _)| name)
        .collect()
}

/// The repeatability gate over `sets` of runs of the same code: for every
/// end-to-end metric the best and the worst set must lie within the metric's
/// bound of each other (as a share of the median), and the single-threaded
/// workloads' traced counts must be identical.
fn gate(sets: &[Vec<Record>]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &sets[0];
    for (i, base) in first.iter().enumerate() {
        let peers: Vec<&Record> = sets.iter().map(|s| &s[i]).collect();
        let w = base.workload.name();
        if !base.trace {
            for m in &END_TO_END {
                let values: Vec<f64> = peers.iter().filter_map(|r| r.value(m.name)).collect();
                // A metric missing from a set has no spread and fails too.
                let spread = crate::stats::range_share(&values).unwrap_or(f64::INFINITY);
                let within = spread <= m.bound;
                println!(
                    "gate {w} {} spread {:.4} bound {} {}",
                    m.name,
                    spread,
                    m.bound,
                    if within { "ok" } else { "EXCEEDS" }
                );
                if !within {
                    problems.push(format!(
                        "{w}: {} spreads {:.1}% over {} sets (bound {:.0}%)",
                        m.name,
                        100.0 * spread,
                        sets.len(),
                        100.0 * m.bound
                    ));
                }
            }
        } else if !matches!(base.workload, Workload::ServeRead | Workload::ServeWriteMix) {
            for name in count_metrics() {
                let values: Vec<Option<f64>> = peers.iter().map(|r| r.value(&name)).collect();
                if values.iter().any(|v| *v != values[0]) {
                    problems
                        .push(format!("{w}: traced count {name} differs between sets: {values:?}"));
                }
            }
        }
    }
    problems
}

pub fn run(cfg: &SuiteConfig) -> ExitCode {
    let workloads: Vec<Workload> = cfg.only.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let t0 = Instant::now();
    let mut sets: Vec<Vec<Record>> = Vec::new();
    let mut problems = Vec::new();
    for set in 0..cfg.repeat {
        let mut records = Vec::new();
        for &w in &workloads {
            for trace in [false, true] {
                println!(
                    "## set {} of {}: {} {}",
                    set + 1,
                    cfg.repeat,
                    w.name(),
                    if trace { "traced" } else { "untraced" }
                );
                match run_child(cfg, w, trace) {
                    Ok(r) => {
                        if !r.exit_ok || !r.correct || r.failed > 0 {
                            problems.push(format!(
                                "{} ({}): exit ok {}, correct {}, failed {} of {}",
                                w.name(),
                                if trace { "traced" } else { "untraced" },
                                r.exit_ok,
                                r.correct,
                                r.failed,
                                r.attempted
                            ));
                        }
                        records.push(r);
                    }
                    Err(e) => {
                        eprintln!("jgi-benchmark: cannot run {}: {e}", w.name());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        sets.push(records);
    }
    if cfg.repeat >= 2 {
        problems.extend(gate(&sets));
    }

    let summary = Json::obj([
        ("seed", Json::UInt(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("threads", Json::UInt(crate::run::available_threads() as u64)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        ("problems", Json::Arr(problems.iter().map(|p| Json::str(p.as_str())).collect())),
        (
            "sets",
            Json::Arr(
                sets.iter().map(|s| Json::Arr(s.iter().map(Record::to_json).collect())).collect(),
            ),
        ),
    ]);
    let out = cfg.dir.join("out");
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("summary.json"), summary.render() + "\n"));
    if let Err(e) = written {
        problems.push(format!("summary.json not written: {e}"));
    }
    println!(
        "## {} set(s) of {} workload(s) in {:.1} s",
        cfg.repeat,
        workloads.len(),
        t0.elapsed().as_secs_f64()
    );
    for p in &problems {
        println!("PROBLEM {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--bless`: write `expected/<docs>-<doc seed>.json` for both document
/// sizes from the navigational evaluator with its budget lifted. It lists
/// the eleven fixed texts; family literals change with the seed and are
/// cheap enough to verify live.
pub fn bless(dir: &Path) -> std::io::Result<()> {
    for spec in [SMALL, LARGE] {
        let text = DocText::generate(spec);
        let docs = SessionDocs::build(&text, &mut Recorder::new(Instant::now(), 0, false));
        let types = queries::compile_population(false);
        let t0 = Instant::now();
        let path = oracle::bless(dir, &text, &docs, &types)?;
        println!("wrote {} in {:.1} s", path.display(), t0.elapsed().as_secs_f64());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: Workload, trace: bool, lines: &[(&str, f64)]) -> Record {
        Record {
            workload,
            trace,
            exit_ok: true,
            correct: true,
            attempted: 1,
            failed: 0,
            lines: lines
                .iter()
                .map(|&(n, v)| Line {
                    name: n.to_string(),
                    value: Some(v),
                    unit: "ms".into(),
                    n: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn metric_lines_parse() {
        let l = parse_line("query_ms_geomean 1.2034 ms 4180").unwrap();
        assert_eq!(
            (l.name.as_str(), l.value, l.unit.as_str(), l.n),
            ("query_ms_geomean", Some(1.2034), "ms", 4180)
        );
        assert_eq!(parse_line("op_ms_p99 low_n ms 12").unwrap().value, None);
        assert!(parse_line("# a note with four words").is_none());
        assert!(parse_line(r#"{"correct":true}"#).is_none());
    }

    #[test]
    fn gate_flags_spread_and_count_drift() {
        let e2e = |geomean: f64| {
            let mut lines: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 10.0)).collect();
            lines[1].1 = geomean;
            record(Workload::ExecPath, false, &lines)
        };
        let steady = vec![vec![e2e(10.0)], vec![e2e(10.5)]];
        assert!(gate(&steady).is_empty(), "{:?}", gate(&steady));
        let shaky = vec![vec![e2e(10.0)], vec![e2e(14.0)]];
        let problems = gate(&shaky);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("query_ms_geomean"));

        let traced = |seeks: f64| record(Workload::ExecJoin, true, &[("engine.join_seeks", seeks)]);
        assert!(gate(&[vec![traced(7.0)], vec![traced(7.0)]]).is_empty());
        assert_eq!(gate(&[vec![traced(7.0)], vec![traced(8.0)]]).len(), 1);
        // Served counts come from concurrent clients and may differ.
        let served = |v: f64| record(Workload::ServeRead, true, &[("engine.join_seeks", v)]);
        assert!(gate(&[vec![served(7.0)], vec![served(8.0)]]).is_empty());
    }
}
