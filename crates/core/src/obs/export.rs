//! Exporters: metrics as JSONL, spans as Chrome-trace JSON.
//!
//! Both formats are produced by hand (no serde — the workspace builds with
//! zero registry dependencies) and are deterministic: name-ordered metric
//! lines, close-ordered span events, and integer-nanosecond timestamps
//! formatted without any float round-trip.

use super::metrics::{MetricClass, MetricValue, Metrics};
use super::span::{Span, Tracer};

/// Schema tag stamped into every export (and grepped by `scripts/ci.sh`
/// against the committed golden trace). Alias of
/// [`crate::obs::schema::OBS_V1`] — the tag literals live in one module.
pub const SCHEMA_VERSION: &str = super::schema::OBS_V1;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number (Rust's `Display` for floats never
/// emits exponents; non-finite values become `null`).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Nanoseconds → Chrome-trace microseconds, exactly (`1234` ns → `1.234`).
fn ns_to_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// The JSONL header line opening a metrics stream.
pub fn metrics_jsonl_header() -> String {
    format!("{{\"schemaVersion\":\"{SCHEMA_VERSION}\",\"kind\":\"metrics\"}}\n")
}

/// One JSONL line per metric in `m`, tagged with `section` (the run or
/// system the metrics belong to). `Measured`-class metrics are skipped
/// unless `include_measured`, so the default stream is deterministic.
pub fn metrics_jsonl(section: &str, m: &Metrics, include_measured: bool) -> String {
    let mut out = String::new();
    let sec = json_escape(section);
    for (name, class, value) in m.iter() {
        if class == MetricClass::Measured && !include_measured {
            continue;
        }
        let head = format!(
            "{{\"section\":\"{sec}\",\"name\":\"{}\",\"class\":\"{}\"",
            json_escape(name),
            class.name()
        );
        match value {
            MetricValue::Counter(c) => {
                out.push_str(&format!("{head},\"type\":\"counter\",\"value\":{c}}}\n"));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!(
                    "{head},\"type\":\"gauge\",\"value\":{}}}\n",
                    json_f64(*g)
                ));
            }
            MetricValue::Histogram(h) => {
                let bounds: Vec<String> = h.bounds().iter().map(|&b| json_f64(b)).collect();
                let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "{head},\"type\":\"histogram\",\"bounds\":[{}],\"counts\":[{}],\"count\":{},\"sum\":{}}}\n",
                    bounds.join(","),
                    counts.join(","),
                    h.count(),
                    json_f64(h.sum())
                ));
            }
        }
    }
    out
}

/// One span as a `kind:"span"` JSONL line (the serving trace stream's
/// span shape; DESIGN.md §12).
pub(crate) fn span_jsonl_line(section: &str, span: &Span) -> String {
    let mut args = String::new();
    for (i, (k, v)) in span.args.iter().enumerate() {
        if i > 0 {
            args.push(',');
        }
        args.push_str(&format!("\"{k}\":{v}"));
    }
    format!(
        "{{\"section\":\"{}\",\"kind\":\"span\",\"name\":\"{}\",\"cat\":\"{}\",\"startNs\":{},\"durNs\":{},\"depth\":{},\"args\":{{{args}}}}}\n",
        json_escape(section),
        json_escape(&span.name),
        span.cat,
        span.start_ns,
        span.dur_ns,
        span.depth,
    )
}

/// Render one or more tracers as a single Chrome-trace JSON document
/// (`chrome://tracing` / Perfetto). Each `(label, tracer)` section becomes
/// its own thread (`tid`), named by a metadata event; spans become `ph:"X"`
/// complete events with microsecond timestamps off the sim clock. Stamped
/// with [`SCHEMA_VERSION`].
pub fn chrome_trace(sections: &[(&str, &Tracer)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schemaVersion\":\"{SCHEMA_VERSION}\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    ));
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"freshgnn\"}}".to_string(),
        &mut first,
    );
    for (tid, (label, tracer)) in sections.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(label)
            ),
            &mut first,
        );
        for span in tracer.spans() {
            let mut args = String::new();
            for (i, (k, v)) in span.args.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                args.push_str(&format!("\"{k}\":{v}"));
            }
            push(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                    json_escape(&span.name),
                    span.cat,
                    ns_to_us(span.start_ns),
                    ns_to_us(span.dur_ns)
                ),
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_us_is_exact() {
        assert_eq!(ns_to_us(0), "0.000");
        assert_eq!(ns_to_us(1234), "1.234");
        assert_eq!(ns_to_us(1_000_000_007), "1000000.007");
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn metrics_jsonl_filters_measured() {
        let mut m = Metrics::new();
        m.counter_add("a", MetricClass::Exact, 1);
        m.counter_add("b", MetricClass::Measured, 2);
        let exact = metrics_jsonl("s", &m, false);
        assert!(exact.contains("\"name\":\"a\""));
        assert!(!exact.contains("\"name\":\"b\""));
        let all = metrics_jsonl("s", &m, true);
        assert!(all.contains("\"name\":\"b\""));
        for line in all.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn span_jsonl_line_is_object_shaped() {
        let mut t = Tracer::default();
        t.begin("request", "serve_req", 100);
        t.end_with(250, vec![("id", 7), ("hit", 1)]);
        let line = span_jsonl_line("serve", &t.spans()[0]);
        assert!(line.starts_with('{') && line.ends_with("}\n"));
        assert!(line.contains("\"kind\":\"span\""));
        assert!(line.contains("\"name\":\"request\""));
        assert!(line.contains("\"startNs\":100,\"durNs\":150"));
        assert!(line.contains("\"args\":{\"id\":7,\"hit\":1}"));
    }

    #[test]
    fn chrome_trace_has_schema_and_thread_names() {
        let mut t = Tracer::default();
        t.begin("epoch", "pipeline", 0);
        t.end_with(1500, vec![("batches", 2)]);
        let doc = chrome_trace(&[("sys", &t)]);
        assert!(doc.starts_with(&format!("{{\"schemaVersion\":\"{SCHEMA_VERSION}\"")));
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("\"ts\":0.000,\"dur\":1.500"));
        assert!(doc.contains("\"batches\":2"));
        assert!(doc.trim_end().ends_with("]}"));
    }
}
