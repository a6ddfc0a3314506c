//! The repo benchmark.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last
//!                                                        stdout line is the
//!                                                        result object
//! run.sh [--seed N] [--workload W] [--smoke] [--repeat K]
//!                                                        the suite: every
//!                                                        workload untraced,
//!                                                        then traced
//! run.sh --bless                                         write expected/
//! run.sh --describe                                      print BENCHMARK.json
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metric glossary
//! and the table of which layer metric should move which end-to-end metric.

mod docs;
mod oracle;
mod queries;
mod report;
mod run;
mod serve;
mod session;
mod stats;
mod suite;
mod trace;

use run::{RunConfig, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

/// The measured window when none is given: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 10;
/// The window of a `--smoke` run.
pub const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    dir: PathBuf,
    seed: u64,
    workload: Option<Workload>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    bless: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: PathBuf::from("benchmark"),
        seed: DEFAULT_SEED,
        workload: None,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        bless: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", known.join(", "))
                })?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--repeat" => {
                args.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or("--repeat takes a count of at least 1")?
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jgi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", report::describe());
        return ExitCode::SUCCESS;
    }
    let seconds =
        args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { RUN_SECONDS as f64 });
    if args.bless {
        return match suite::bless(&args.dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("jgi-benchmark: bless failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match (args.trace, args.workload) {
        (Some(trace), Some(workload)) => {
            let cfg = RunConfig {
                workload,
                seed: args.seed,
                seconds,
                trace,
                smoke: args.smoke,
                dir: args.dir,
            };
            let result = match workload {
                Workload::ServeRead | Workload::ServeWriteMix => serve::run(&cfg),
                _ => session::run(&cfg),
            };
            result.print();
            if result.ok(cfg.smoke) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Some(_), None) => {
            eprintln!("jgi-benchmark: --trace selects a single run and needs --workload");
            ExitCode::from(2)
        }
        (None, workload) => suite::run(&suite::SuiteConfig {
            dir: args.dir,
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            repeat: args.repeat,
            only: workload,
        }),
    }
}
