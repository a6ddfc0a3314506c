//! Run the full invariant-model catalog and enforce expectations.
//!
//! ```text
//! model-suite [--min-schedules N] [--preemption-bound P] [--verbose]
//! ```
//!
//! Exit code 0 only if every model matches its expectation (certified
//! protocols certify, regression models are refuted) AND every certified
//! model explored at least `--min-schedules` schedules — the vacuity
//! guard CI relies on: a suite that certifies after one schedule proves
//! nothing.

use jgi_model::models::{catalog, Expectation};
use jgi_model::{Config, Outcome};

fn main() {
    let mut min_schedules: u64 = 30;
    let mut config = Config::default();
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-schedules" => {
                min_schedules = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--min-schedules needs a number"));
            }
            "--preemption-bound" => {
                config.preemption_bound = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--preemption-bound needs a number"));
            }
            "--verbose" => verbose = true,
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    let mut failures = 0u32;
    let mut total_schedules = 0u64;
    let mut total_pruned = 0u64;
    let started = std::time::Instant::now();
    println!(
        "model-suite: preemption bound {}, vacuity floor {} schedules",
        config.preemption_bound, min_schedules
    );
    println!();
    for spec in catalog() {
        let t0 = std::time::Instant::now();
        let report = (spec.run)(&config);
        let elapsed = t0.elapsed();
        total_schedules += report.schedules;
        total_pruned += report.pruned;
        let mut problems: Vec<String> = Vec::new();
        match (&report.outcome, spec.expect) {
            (Outcome::Certified, Expectation::Certify) => {
                if report.capped {
                    problems.push(format!(
                        "exploration capped at {} schedules — certification incomplete",
                        report.schedules + report.pruned
                    ));
                }
                if report.schedules < min_schedules {
                    problems.push(format!(
                        "vacuity: only {} schedules explored (floor {})",
                        report.schedules, min_schedules
                    ));
                }
            }
            (Outcome::Refuted { .. }, Expectation::Refute) => {}
            (Outcome::Certified, Expectation::Refute) => {
                problems.push("expected a refutation but every schedule passed".to_string());
            }
            (Outcome::Refuted { message, .. }, Expectation::Certify) => {
                problems.push(format!("unexpected refutation: {message}"));
            }
        }
        let status = if problems.is_empty() { "ok" } else { "FAIL" };
        let verdict = match &report.outcome {
            Outcome::Certified => "certified".to_string(),
            Outcome::Refuted { preemptions, .. } => {
                format!("refuted ({preemptions} preemption(s))")
            }
        };
        println!(
            "[{status}] {:<32} {verdict:<26} {:>6} schedules, {:>5} pruned, depth {:>3}, {:>7.1?}",
            spec.name, report.schedules, report.pruned, report.max_depth, elapsed
        );
        if verbose || !problems.is_empty() {
            println!("       {}", spec.about);
        }
        for p in &problems {
            println!("       !! {p}");
            failures += 1;
        }
        if let Outcome::Refuted { message, trace, preemptions } = &report.outcome {
            let expected = spec.expect == Expectation::Refute;
            if verbose || !expected {
                println!("       minimal failing schedule ({preemptions} preemption(s)):");
                for line in trace {
                    println!("         {line}");
                }
                println!("       violation: {message}");
            }
        }
    }
    println!();
    println!(
        "model-suite: {} model(s), {} schedules explored, {} pruned, {:.1?} total",
        catalog().len(),
        total_schedules,
        total_pruned,
        started.elapsed()
    );
    if failures > 0 {
        println!("model-suite: {failures} FAILURE(S)");
        std::process::exit(1);
    }
    println!("model-suite: all expectations met");
}

fn usage(msg: &str) -> ! {
    eprintln!("model-suite: {msg}");
    eprintln!("usage: model-suite [--min-schedules N] [--preemption-bound P] [--verbose]");
    std::process::exit(2);
}
