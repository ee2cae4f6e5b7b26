//! Schema-tagged serving exports: the `fgnn-serve-v1` JSONL stream and the
//! `fgnn-serve-trace-v1` request trace.
//!
//! Like the obs exporters (DESIGN.md §8), everything is hand-rolled JSON
//! — no serde, zero registry dependencies — and deterministic: the stream
//! is built from `Exact`-class quantities only, so two same-seed runs
//! export byte-identical documents. `scripts/ci.sh` greps the schema tag
//! out of a live `exp_serve` run.

use super::engine::ServeReport;
use crate::obs::export::{json_escape, json_f64, metrics_jsonl, span_jsonl_line};
use crate::obs::window::AlertEvent;
use crate::obs::{Obs, Tracer};

/// Schema tag stamped on every serving export line.
pub const SERVE_SCHEMA_VERSION: &str = crate::obs::schema::SERVE_V1;

/// Schema tag stamped on the request-trace export (span trees + alerts).
pub const SERVE_TRACE_SCHEMA_VERSION: &str = crate::obs::schema::SERVE_TRACE_V1;

/// Render the request-level trace of one serving run as a JSONL document:
///
/// 1. a header line carrying the `fgnn-serve-trace-v1` schema tag;
/// 2. one `span` line per closed request-tracer span, in close order
///    (children before parents — each exemplar request's `admission →
///    queue_wait → batch_assembly → embed_lookup → recompute → respond`
///    children immediately precede their `request` parent);
/// 3. one `alert` line per SLO fire/resolve edge, in sim-time order.
///
/// Everything is `Exact`-class, so same-seed runs export byte-identical
/// documents.
pub fn serve_trace_jsonl(section: &str, req_tracer: &Tracer, alerts: &[AlertEvent]) -> String {
    let sec = json_escape(section);
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schemaVersion\":\"{SERVE_TRACE_SCHEMA_VERSION}\",\"kind\":\"serve_trace\",\"section\":\"{sec}\"}}\n"
    ));
    for span in req_tracer.spans() {
        out.push_str(&span_jsonl_line(section, span));
    }
    for a in alerts {
        out.push_str(&format!(
            concat!(
                "{{\"section\":\"{sec}\",\"kind\":\"alert\",\"rule\":\"{rule}\"",
                ",\"fired\":{fired},\"atNs\":{at},\"burnLong\":{bl},\"burnShort\":{bs}",
                ",\"windowedP99Ns\":{p99}}}\n"
            ),
            sec = sec,
            rule = json_escape(a.rule),
            fired = a.fired,
            at = a.at_ns,
            bl = json_f64(a.burn_long),
            bs = json_f64(a.burn_short),
            p99 = a.windowed_p99_ns,
        ));
    }
    out
}

/// Render one serving run as a JSONL document:
///
/// 1. a header line carrying the schema tag;
/// 2. a `summary` line with the run's headline numbers;
/// 3. a `shed_log` line with the full `(id, reason)` shed ledger;
/// 4. one `metrics` line per `Exact` metric in `obs` (the standard
///    obs stream, re-tagged under `section`).
pub fn serve_jsonl(section: &str, report: &ServeReport, obs: &Obs) -> String {
    let sec = json_escape(section);
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schemaVersion\":\"{SERVE_SCHEMA_VERSION}\",\"kind\":\"serve\",\"section\":\"{sec}\"}}\n"
    ));
    out.push_str(&format!(
        concat!(
            "{{\"section\":\"{sec}\",\"kind\":\"summary\"",
            ",\"offered\":{offered},\"admitted\":{admitted},\"served\":{served}",
            ",\"shedRateLimited\":{srl},\"shedQueueFull\":{sqf},\"shedDeadline\":{sd}",
            ",\"degradedServed\":{deg},\"cacheHits\":{ch},\"cacheMisses\":{cm}",
            ",\"slaViolations\":{sla},\"deadlineMisses\":{dm}",
            ",\"p50Ms\":{p50},\"p95Ms\":{p95},\"p99Ms\":{p99}",
            ",\"maxQueueDepth\":{mqd},\"durationSecs\":{dur}",
            ",\"throughputRps\":{thr},\"shedFraction\":{sf}}}\n"
        ),
        sec = sec,
        offered = report.offered,
        admitted = report.admitted,
        served = report.served,
        srl = report.shed_rate_limited,
        sqf = report.shed_queue_full,
        sd = report.shed_deadline,
        deg = report.degraded_served,
        ch = report.cache_hits,
        cm = report.cache_misses,
        sla = report.sla_violations,
        dm = report.deadline_misses,
        p50 = json_f64(report.p50_ms),
        p95 = json_f64(report.p95_ms),
        p99 = json_f64(report.p99_ms),
        mqd = report.max_queue_depth,
        dur = json_f64(report.duration_secs),
        thr = json_f64(report.throughput_rps),
        sf = json_f64(report.shed_fraction),
    ));
    let decisions: Vec<String> = report
        .shed_log
        .iter()
        .map(|(id, reason)| format!("{{\"id\":{id},\"reason\":\"{}\"}}", reason.name()))
        .collect();
    out.push_str(&format!(
        "{{\"section\":\"{sec}\",\"kind\":\"shed_log\",\"decisions\":[{}]}}\n",
        decisions.join(",")
    ));
    out.push_str(&metrics_jsonl(section, &obs.metrics, false));
    out
}

#[cfg(test)]
mod tests {
    use super::super::admission::ShedReason;
    use super::*;

    fn report() -> ServeReport {
        ServeReport {
            offered: 10,
            admitted: 8,
            served: 7,
            shed_rate_limited: 1,
            shed_queue_full: 1,
            shed_deadline: 1,
            degraded_served: 2,
            cache_hits: 5,
            cache_misses: 2,
            sla_violations: 0,
            deadline_misses: 0,
            p50_ms: 1.5,
            p95_ms: 3.0,
            p99_ms: 4.25,
            max_queue_depth: 6,
            duration_secs: 0.5,
            throughput_rps: 14.0,
            shed_fraction: 0.3,
            shed_log: vec![
                (3, ShedReason::RateLimited),
                (9, ShedReason::DeadlineExpired),
            ],
        }
    }

    #[test]
    fn jsonl_is_schema_tagged_and_line_shaped() {
        let doc = serve_jsonl("serve", &report(), &Obs::new());
        let mut lines = doc.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"schemaVersion\":\"fgnn-serve-v1\""));
        assert!(header.contains("\"kind\":\"serve\""));
        for line in doc.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(doc.contains("\"kind\":\"summary\""));
        assert!(doc.contains("\"p99Ms\":4.25"));
        assert!(doc.contains("\"reason\":\"rate_limited\""));
        assert!(doc.contains("\"reason\":\"deadline_expired\""));
    }

    #[test]
    fn trace_jsonl_carries_spans_then_alerts() {
        let mut t = Tracer::new();
        t.begin("request", "serve_req", 100);
        t.begin("queue_wait", "serve_req", 100);
        t.end(250);
        t.end_with(400, vec![("id", 7)]);
        let alerts = vec![AlertEvent {
            at_ns: 500,
            rule: "fast-burn",
            fired: true,
            burn_long: 8.5,
            burn_short: 12.0,
            windowed_p99_ns: 300_000,
        }];
        let doc = serve_trace_jsonl("serve", &t, &alerts);
        let lines: Vec<&str> = doc.lines().collect();
        assert!(lines[0].contains("\"schemaVersion\":\"fgnn-serve-trace-v1\""));
        assert!(lines[0].contains("\"kind\":\"serve_trace\""));
        assert!(lines[1].contains("\"name\":\"queue_wait\""));
        assert!(lines[2].contains("\"name\":\"request\""));
        assert!(lines[2].contains("\"id\":7"));
        assert!(lines[3].contains("\"kind\":\"alert\""));
        assert!(lines[3].contains("\"rule\":\"fast-burn\""));
        assert!(lines[3].contains("\"fired\":true"));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
