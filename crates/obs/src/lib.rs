//! # jgi-obs — observability for the join-graph-isolation pipeline
//!
//! The service-side half of the paper's evidence (§5). Per-query
//! telemetry is not kept here: each layer returns its own structured
//! statistics (`IsolateStats`, `PlanStats`, `ExecStats`, `NavStats`),
//! `jgi_core::QueryReport` carries them, and that report maps them to the
//! counter names this crate stores and renders. What lives here, all
//! std-only (no external dependencies):
//!
//! * [`Metrics`] — named counters, gauges, and power-of-two bucketed
//!   [`Histogram`]s, and their hand-rolled [`Json`] rendering (no serde);
//! * the concurrent [`Registry`], one lock over counters, gauges and
//!   sliding-window [`WindowHistogram`]s ([`registry`], [`window`]) — one
//!   per server, fed each request's counters in one [`Registry::batch`];
//! * Prometheus text exposition and a format validator ([`expo`]);
//! * the [`FlightRecorder`] retaining full diagnostics for the slowest /
//!   shed / errored requests ([`flight`]);
//! * [`emit_to`], the single stderr emitter for rendered reports.
//!
//! The executor hot path stays allocation-free: instrumented loops use
//! plain local `u64` counters that the layer returns once per call.
//!
//! Output routing is controlled by the `JGI_OBS` environment variable:
//! `off` (default) records nothing externally, `text` prints a readable
//! report to stderr, `json` prints one JSON object per report line. Any
//! other value is rejected with a one-time warning and treated as `off`.

pub mod expo;
pub mod flight;
mod json;
mod metrics;
pub mod registry;
pub mod window;

pub use flight::{next_trace_id, FlightOutcome, FlightRecord, FlightRecorder};
pub use json::Json;
pub use metrics::{Histogram, Metrics};
pub use registry::{Registry, RegistrySnapshot};
pub use window::WindowHistogram;

/// Where rendered reports go, per the `JGI_OBS` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No external emission (reports still available via the API).
    #[default]
    Off,
    /// Human-readable text on stderr.
    Text,
    /// Line-oriented JSON on stderr.
    Json,
}

impl ObsMode {
    /// Parse a `JGI_OBS` value. Accepts `text`, `json`, and the explicit
    /// off spellings (empty, `off`, `0`, `false`); anything else is an
    /// error carrying the rejected value.
    pub fn parse(s: &str) -> Result<ObsMode, String> {
        match s {
            "text" => Ok(ObsMode::Text),
            "json" => Ok(ObsMode::Json),
            "" | "off" | "0" | "false" => Ok(ObsMode::Off),
            other => Err(other.to_string()),
        }
    }

    /// Read the mode from `JGI_OBS`. Looked up at emit time, not cached,
    /// so tests can flip it per case. An unrecognized value is reported
    /// once to stderr (it used to be silently treated as off, which made
    /// `JGI_OBS=jsonl` typos invisible) and then behaves as `off`.
    pub fn from_env() -> ObsMode {
        match std::env::var("JGI_OBS") {
            Ok(v) => ObsMode::parse(&v).unwrap_or_else(|bad| {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "[jgi-obs] warning: unrecognized JGI_OBS value {bad:?} \
                         (expected \"text\", \"json\", or \"off\"); observability is off"
                    );
                });
                ObsMode::Off
            }),
            Err(_) => ObsMode::Off,
        }
    }
}

/// Write one report to `out` according to `mode`: `text` renders the body
/// for [`ObsMode::Text`], `json` for [`ObsMode::Json`], and only the one
/// `mode` asks for is called. The whole report is rendered into one buffer
/// and written with a single `write_all`, so concurrent emitters (the serve
/// worker pool) interleave at record granularity — no torn lines. Errors
/// are swallowed: telemetry must never fail the query.
pub fn emit_to(
    mode: ObsMode,
    out: &mut dyn std::io::Write,
    label: &str,
    text: impl FnOnce() -> String,
    json: impl FnOnce() -> Json,
) {
    let buf = match mode {
        ObsMode::Off => return,
        ObsMode::Text => format!("[jgi-obs] {label}\n{}", text()),
        ObsMode::Json => {
            let mut obj = vec![("report".to_string(), Json::str(label))];
            if let Json::Obj(pairs) = json() {
                obj.extend(pairs);
            }
            format!("{}\n", Json::Obj(obj).render())
        }
    };
    let _ = out.write_all(buf.as_bytes());
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_env_values() {
        // Default with no/unknown value.
        std::env::remove_var("JGI_OBS");
        assert_eq!(ObsMode::from_env(), ObsMode::Off);
        std::env::set_var("JGI_OBS", "verbose");
        assert_eq!(ObsMode::from_env(), ObsMode::Off);
        std::env::set_var("JGI_OBS", "text");
        assert_eq!(ObsMode::from_env(), ObsMode::Text);
        std::env::set_var("JGI_OBS", "json");
        assert_eq!(ObsMode::from_env(), ObsMode::Json);
        std::env::remove_var("JGI_OBS");
    }

    #[test]
    fn mode_parse_accepts_and_rejects() {
        assert_eq!(ObsMode::parse("text"), Ok(ObsMode::Text));
        assert_eq!(ObsMode::parse("json"), Ok(ObsMode::Json));
        for off in ["", "off", "0", "false"] {
            assert_eq!(ObsMode::parse(off), Ok(ObsMode::Off), "{off:?}");
        }
        for bad in ["jsonl", "TEXT", "on", "1", "Json"] {
            assert_eq!(ObsMode::parse(bad), Err(bad.to_string()), "{bad:?}");
        }
    }
}
