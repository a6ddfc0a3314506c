//! Prometheus text exposition (format 0.0.4) for a [`RegistrySnapshot`],
//! plus a line-shape validator so tests and CI can check `METRICS` output
//! without a real Prometheus parser.
//!
//! Mapping:
//!
//! * counters → `# TYPE <name>_total counter` + one sample;
//! * gauges → `# TYPE <name> gauge`;
//! * windowed histograms → `# TYPE <name> summary` with
//!   `quantile="0.5|0.9|0.99|0.999"` samples taken from the **sliding
//!   window** (recent traffic; falls back to the lifetime distribution
//!   when the window is empty, e.g. an idle server) and monotone
//!   `_sum`/`_count` taken from the **lifetime** histogram, as Prometheus
//!   requires for `rate()` to work.
//!
//! Metric names are sanitized (`serve.cache.hit` → `serve_cache_hit`) and
//! prefixed by the caller (`jgi_` for a server's registry).

use std::fmt::Write as _;

use crate::registry::RegistrySnapshot;

/// Sanitize a dotted metric name into `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render a snapshot as Prometheus text exposition format 0.0.4.
/// Every metric name gets `prefix` prepended after sanitization.
pub fn render_prometheus(snap: &RegistrySnapshot, prefix: &str) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = format!("{prefix}{}_total", sanitize(name));
        let _ = writeln!(out, "# HELP {n} Monotonic counter {name}");
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = format!("{prefix}{}", sanitize(name));
        let _ = writeln!(out, "# HELP {n} Gauge {name}");
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, view) in &snap.windows {
        let n = format!("{prefix}{}", sanitize(name));
        let _ = writeln!(out, "# HELP {n} Sliding-window summary {name}");
        let _ = writeln!(out, "# TYPE {n} summary");
        let dist = if view.window.count() > 0 { &view.window } else { &view.lifetime };
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
            match dist.percentile(q) {
                Some(v) => {
                    let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {v}");
                }
                None => {
                    let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} NaN");
                }
            }
        }
        let _ = writeln!(out, "{n}_sum {}", view.lifetime.sum());
        let _ = writeln!(out, "{n}_count {}", view.lifetime.count());
    }
    out
}

/// Check that `text` is plausible Prometheus 0.0.4 exposition: every line
/// is a comment (`# HELP` / `# TYPE` / free comment) or a sample of shape
/// `name[{labels}] value`, with legal metric names, balanced quoted label
/// values, and a numeric (or `NaN`/`±Inf`) value. Returns the first
/// offending line on failure.
///
/// This is deliberately a *shape* checker, not a full parser — it is what
/// the CI job runs instead of curl + promtool.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_value(s: &str) -> bool {
        matches!(s, "NaN" | "+Inf" | "-Inf" | "Inf") || s.parse::<f64>().is_ok()
    }
    fn valid_labels(s: &str) -> bool {
        // `name="value",name="value"` — values are quoted, quotes escaped
        // with backslash. Walk character-wise.
        let mut rest = s;
        loop {
            let eq = match rest.find('=') {
                Some(i) => i,
                None => return false,
            };
            if !valid_name(&rest[..eq]) {
                return false;
            }
            rest = &rest[eq + 1..];
            if !rest.starts_with('"') {
                return false;
            }
            let mut escaped = false;
            let mut end = None;
            for (i, c) in rest.char_indices().skip(1) {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = match end {
                Some(i) => i,
                None => return false,
            };
            rest = &rest[end + 1..];
            if rest.is_empty() {
                return true;
            }
            if let Some(r) = rest.strip_prefix(',') {
                rest = r;
            } else {
                return false;
            }
        }
    }

    for (lineno, line) in text.lines().enumerate() {
        let err = |why: &str| Err(format!("line {}: {why}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            for kw in ["HELP", "TYPE"] {
                if let Some(body) = rest.strip_prefix(kw) {
                    let mut parts = body.trim_start().splitn(2, ' ');
                    let name = parts.next().unwrap_or("");
                    if !valid_name(name) {
                        return err("bad metric name in comment");
                    }
                    if kw == "TYPE" {
                        let ty = parts.next().unwrap_or("").trim();
                        if !matches!(
                            ty,
                            "counter" | "gauge" | "summary" | "histogram" | "untyped"
                        ) {
                            return err("bad TYPE");
                        }
                    }
                }
            }
            continue; // free-form comments are legal
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return err("sample line has no value"),
        };
        if !valid_name(name_part) {
            return err("bad metric name");
        }
        let rest = if let Some(body) = rest.strip_prefix('{') {
            let close = match body.find('}') {
                Some(i) => i,
                None => return err("unclosed label braces"),
            };
            if !valid_labels(&body[..close]) {
                return err("bad label syntax");
            }
            &body[close + 1..]
        } else {
            rest
        };
        let mut fields = rest.split_whitespace();
        let value = match fields.next() {
            Some(v) => v,
            None => return err("missing sample value"),
        };
        if !valid_value(value) {
            return err("non-numeric sample value");
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return err("bad timestamp");
            }
        }
        if fields.next().is_some() {
            return err("trailing garbage after sample");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::time::Duration;

    #[test]
    fn renders_and_validates_a_real_snapshot() {
        let r = Registry::with_config(4, Duration::from_secs(60));
        r.counter("serve.cache.hit", 41);
        r.counter("serve.admission.shed", 2);
        r.gauge("serve.queue.depth", 7);
        for v in [100, 250, 4_000, 90_000] {
            r.observe("serve.latency_us", v);
        }
        let text = render_prometheus(&r.snapshot(), "jgi_");
        validate_exposition(&text).expect("own output must validate");
        assert!(text.contains("# TYPE jgi_serve_cache_hit_total counter"));
        assert!(text.contains("jgi_serve_cache_hit_total 41"));
        assert!(text.contains("# TYPE jgi_serve_queue_depth gauge"));
        assert!(text.contains("jgi_serve_queue_depth 7"));
        assert!(text.contains("# TYPE jgi_serve_latency_us summary"));
        assert!(text.contains("jgi_serve_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("jgi_serve_latency_us_count 4"));
        assert!(text.contains("jgi_serve_latency_us_sum 94350"));
    }

    #[test]
    fn sanitizes_dotted_and_leading_digit_names() {
        assert_eq!(sanitize("serve.cache.hit"), "serve_cache_hit");
        assert_eq!(sanitize("rule(14)"), "rule_14_");
        assert_eq!(sanitize("9lives"), "_lives");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn validator_accepts_the_format_zoo() {
        let ok = "\
# HELP x_total help text with spaces
# TYPE x_total counter
x_total 3
# a free comment
g{a=\"b\",c=\"d\\\"e\"} 1.5
s{quantile=\"0.5\"} NaN
s_sum 10
s_count 2
withts 4 1700000000
";
        validate_exposition(ok).unwrap();
    }

    #[test]
    fn validator_rejects_torn_lines() {
        for bad in [
            "9name 3",                 // leading digit
            "x",                       // no value
            "x{a=b} 1",                // unquoted label value
            "x{a=\"b\"",               // unclosed braces
            "x notanumber",            // bad value
            "x 1 2 3",                 // trailing garbage
            "# TYPE x wrongtype",      // unknown TYPE
            "x{a=\"b\" 1",             // unclosed quote run-on
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn empty_window_falls_back_to_lifetime_quantiles() {
        let r = Registry::with_config(2, Duration::from_millis(1));
        r.observe("lat", 500);
        // Sleep past the window so the sliding view empties.
        std::thread::sleep(Duration::from_millis(10));
        let text = render_prometheus(&r.snapshot(), "t_");
        validate_exposition(&text).unwrap();
        assert!(text.contains("t_lat{quantile=\"0.5\"} 500"), "fell back to lifetime:\n{text}");
        assert!(text.contains("t_lat_count 1"));
    }
}
