//! Observability exporters — the serialization boundary.
//!
//! This is the **only** module in `xanadu-platform` where observability
//! data may meet `serde_json::Value`: everything upstream (bus, observers,
//! traces, metrics) is typed, and CI rejects diffs that introduce
//! `serde_json::Value` anywhere else under `crates/platform/src`.
//!
//! Two formats are produced:
//!
//! * [`chrome_trace`] — the Chrome `trace_event` JSON format (complete
//!   `"X"` events + instant `"i"` events), loadable in `chrome://tracing`
//!   or Perfetto. One process (`pid`) per request, one thread lane
//!   (`tid`) per function.
//! * [`metrics_json`] — a flat snapshot of a [`MetricsRegistry`]:
//!   counters plus histogram buckets, means and interpolated
//!   p50/p95/p99/p99.9 quantiles.
//! * [`alert_json_line`] / [`service_metrics_text`] — the service tier's
//!   live surfaces: one compact JSONL line per SLO breach
//!   (`docs/schemas/alerts.schema.json`) and a Prometheus-style text
//!   exposition snapshot.
//! * [`audit_json`] — the speculation [`Audit`] produced by the analysis
//!   tier, serialized losslessly (the document round-trips back into an
//!   `Audit` for `xanadu diff`).
//!
//! Both are deterministic functions of their typed inputs: spans are
//! ordered by the [`SpanTree`] contract, map
//! keys are `BTreeMap`-ordered, and timestamps come from `SimTime` in
//! integer microseconds — so the same seed yields byte-identical files
//! regardless of harness thread count.

use crate::analysis::Audit;
use crate::obs::{Histogram, MetricsRegistry};
use crate::stream::{SloAlert, SloReport, StreamingAudit, StreamingSummary};
use crate::timeline::{SpanKind, SpanTree, Trace};
use serde_json::{json, Map, Value};

/// Builds a Chrome `trace_event` document from per-request traces.
///
/// `traces` is a `(request id, trace)` list; requests are emitted in the
/// given order (callers pass them sorted by id). Empty traces are
/// skipped.
pub fn chrome_trace(traces: &[(u64, Trace)]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (request, trace) in traces {
        let Some(tree) = SpanTree::from_trace(*request, trace) else {
            continue;
        };
        let lanes = tree.functions();
        let lane = |function: &str| -> u64 {
            if function.is_empty() {
                0
            } else {
                1 + lanes.iter().position(|f| *f == function).unwrap_or(0) as u64
            }
        };
        events.push(complete_event(
            &tree.root.name,
            "request",
            *request,
            0,
            tree.root.start.as_micros(),
            tree.root.duration().as_micros(),
        ));
        for span in &tree.children {
            let cat = match span.kind {
                SpanKind::Request => "request",
                SpanKind::Deploy => "deploy",
                SpanKind::Wait => "wait",
                SpanKind::Exec => "exec",
            };
            events.push(complete_event(
                &span.name,
                cat,
                *request,
                lane(&span.function),
                span.start.as_micros(),
                span.duration().as_micros(),
            ));
        }
        for marker in &tree.markers {
            events.push(json!({
                "name": marker.label.clone(),
                "cat": "marker",
                "ph": "i",
                "s": "p",
                "ts": marker.at.as_micros(),
                "pid": *request,
                "tid": lane(&marker.function),
            }));
        }
    }
    json!({
        "displayTimeUnit": "ms",
        "traceEvents": events,
    })
}

/// Renders [`chrome_trace`] as pretty JSON text with a trailing newline.
pub fn chrome_trace_string(traces: &[(u64, Trace)]) -> String {
    let mut out = chrome_trace(traces).to_json_string_pretty();
    out.push('\n');
    out
}

fn complete_event(name: &str, cat: &str, pid: u64, tid: u64, ts: u64, dur: u64) -> Value {
    json!({
        "name": name.to_string(),
        "cat": cat.to_string(),
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": tid,
    })
}

/// Builds the flat metrics document: `{"counters": {...},
/// "histograms": {name: {bounds, counts, count, sum_ms, mean_ms,
/// p50_ms, p95_ms, p99_ms}}}`. The quantiles are the bucket-interpolated
/// [`Histogram::quantile_ms`](crate::obs::Histogram::quantile_ms) values.
pub fn metrics_json(registry: &MetricsRegistry) -> Value {
    let mut counters = Map::new();
    for (name, value) in &registry.counters {
        counters.insert(name.clone(), json!(*value));
    }
    let mut histograms = Map::new();
    for (name, h) in &registry.histograms {
        histograms.insert(name.clone(), histogram_json(h));
    }
    json!({
        "counters": Value::Object(counters),
        "histograms": Value::Object(histograms),
    })
}

/// The shared histogram document: buckets plus derived mean and
/// bucket-interpolated quantiles.
fn histogram_json(h: &Histogram) -> Value {
    json!({
        "bounds": h.bounds.clone(),
        "counts": h.counts.clone(),
        "count": h.count,
        "sum_ms": h.sum_ms,
        "mean_ms": h.mean_ms(),
        "p50_ms": h.quantile_ms(0.50),
        "p95_ms": h.quantile_ms(0.95),
        "p99_ms": h.quantile_ms(0.99),
        "p99_9_ms": h.quantile_ms(0.999),
    })
}

/// Renders [`metrics_json`] as pretty JSON text with a trailing newline.
pub fn metrics_json_string(registry: &MetricsRegistry) -> String {
    let mut out = metrics_json(registry).to_json_string_pretty();
    out.push('\n');
    out
}

/// Serializes an [`Audit`] to its JSON document. The document matches
/// `docs/schemas/audit.schema.json` and deserializes back into an equal
/// `Audit` — `xanadu diff` relies on that round trip.
pub fn audit_json(audit: &Audit) -> Value {
    serde_json::to_value(audit).expect("Audit serializes infallibly: string keys, finite floats")
}

/// Renders [`audit_json`] as pretty JSON text with a trailing newline.
pub fn audit_json_string(audit: &Audit) -> String {
    let mut out = audit_json(audit).to_json_string_pretty();
    out.push('\n');
    out
}

/// Builds the bounded-memory audit document of a [`StreamingAudit`]:
/// the run-level [`StreamingSummary`]
/// rendered with derived quantiles, plus the worst-request exemplar
/// span trees.
///
/// Counts and totals match the exact `--audit-out` document; latency
/// quantiles are bucket-interpolated (see the [`crate::stream`] module
/// docs for the tolerance contract).
pub fn streaming_json(audit: &StreamingAudit) -> Value {
    let s = audit.summary();
    let exemplars: Vec<Value> = audit
        .exemplars()
        .iter()
        .map(|e| {
            json!({
                "request": e.request,
                "end_to_end_ms": e.end_to_end_us as f64 / 1000.0,
                "spans": e.span_tree().map(|t| {
                    serde_json::to_value(t)
                        .expect("SpanTree serializes infallibly: strings and integer micros")
                }),
            })
        })
        .collect();
    json!({
        "requests": s.requests,
        "end_to_end_ms": histogram_json(&s.end_to_end),
        "components": {
            "exec": {"total_ms": s.exec_ms, "hist": histogram_json(&s.exec)},
            "cold_start_wait": {
                "total_ms": s.cold_start_wait_ms,
                "hist": histogram_json(&s.cold_start_wait),
            },
            "queue_wait": {"total_ms": s.queue_wait_ms, "hist": histogram_json(&s.queue_wait)},
            "stall": {"total_ms": s.stall_ms, "hist": histogram_json(&s.stall)},
        },
        "mlp": serde_json::to_value(&s.mlp)
            .expect("MlpStats serializes infallibly: string keys, finite floats"),
        "waste": serde_json::to_value(&s.waste).expect("WasteStats serializes infallibly"),
        "jit": {
            "planned": s.jit.planned,
            "late": s.jit.late,
            "on_time": s.jit.on_time,
            "late_ms": histogram_json(&s.jit.late_ms),
            "slack_ms": histogram_json(&s.jit.slack_ms),
        },
        "exemplars": exemplars,
    })
}

/// Renders [`streaming_json`] as pretty JSON text with a trailing
/// newline.
pub fn streaming_json_string(audit: &StreamingAudit) -> String {
    let mut out = streaming_json(audit).to_json_string_pretty();
    out.push('\n');
    out
}

/// Serializes a windowed [`SloReport`] to the document described by
/// `docs/schemas/slo.schema.json`.
pub fn slo_json(report: &SloReport) -> Value {
    serde_json::to_value(report)
        .expect("SloReport serializes infallibly: string keys, finite floats")
}

/// Renders [`slo_json`] as pretty JSON text with a trailing newline.
pub fn slo_json_string(report: &SloReport) -> String {
    let mut out = slo_json(report).to_json_string_pretty();
    out.push('\n');
    out
}

/// Renders one [`SloAlert`] as a compact JSONL record (no trailing
/// newline) matching `docs/schemas/alerts.schema.json`. The service tier
/// appends one line per breach to `--alerts-out`; because the rendering
/// is a pure function of the alert, an interrupted-and-resumed serve
/// reproduces the log byte-identically.
pub fn alert_json_line(alert: &SloAlert) -> String {
    serde_json::to_value(alert)
        .expect("SloAlert serializes infallibly: strings and finite floats")
        .to_json_string()
}

/// Live counters of the service tier, paired with a
/// [`StreamingSummary`] to render the text exposition.
#[derive(Debug, Clone, Default)]
pub struct ServiceStatus {
    /// Stream time covered so far, milliseconds.
    pub uptime_ms: f64,
    /// Stream events ingested.
    pub events: u64,
    /// Requests completed.
    pub requests: u64,
    /// Checkpoint epochs committed.
    pub checkpoints: u64,
    /// SLO alerts raised.
    pub alerts: u64,
    /// Events ingested since the last durable checkpoint.
    pub checkpoint_lag_events: u64,
    /// Wall-clock ingest throughput, events per second.
    pub events_per_sec: f64,
}

/// Renders the service tier's Prometheus-style text exposition: `# HELP`
/// / `# TYPE` headers plus one sample per metric, latency quantiles as
/// `xanadu_end_to_end_ms{quantile="..."}` gauges. The service rewrites
/// the `--metrics-text` file atomically with this snapshot each flush.
pub fn service_metrics_text(status: &ServiceStatus, summary: &StreamingSummary) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, value: f64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    };
    counter(
        "xanadu_stream_events_total",
        "Stream events ingested.",
        status.events as f64,
    );
    counter(
        "xanadu_requests_completed_total",
        "Requests completed.",
        status.requests as f64,
    );
    counter(
        "xanadu_checkpoints_total",
        "Checkpoint epochs committed.",
        status.checkpoints as f64,
    );
    counter(
        "xanadu_slo_alerts_total",
        "SLO window breaches raised.",
        status.alerts as f64,
    );
    counter(
        "xanadu_wasted_deploys_total",
        "Speculative deployments that served no invocation.",
        summary.waste.deploys as f64,
    );
    let mut gauge = |name: &str, help: &str, value: f64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    gauge(
        "xanadu_uptime_stream_ms",
        "Stream time covered, milliseconds.",
        status.uptime_ms,
    );
    gauge(
        "xanadu_events_per_second",
        "Wall-clock ingest throughput.",
        status.events_per_sec,
    );
    gauge(
        "xanadu_checkpoint_lag_events",
        "Events ingested since the last durable checkpoint.",
        status.checkpoint_lag_events as f64,
    );
    gauge(
        "xanadu_mlp_recall",
        "Plan coverage over the whole stream.",
        summary.mlp.recall,
    );
    out.push_str(concat!(
        "# HELP xanadu_end_to_end_ms End-to-end latency, bucket-interpolated quantiles.\n",
        "# TYPE xanadu_end_to_end_ms summary\n",
    ));
    for (label, q) in [
        ("0.5", 0.50),
        ("0.95", 0.95),
        ("0.99", 0.99),
        ("0.999", 0.999),
    ] {
        out.push_str(&format!(
            "xanadu_end_to_end_ms{{quantile=\"{label}\"}} {}\n",
            summary.end_to_end.quantile_ms(q)
        ));
    }
    out.push_str(&format!(
        "xanadu_end_to_end_ms_sum {}\nxanadu_end_to_end_ms_count {}\n",
        summary.end_to_end.sum_ms, summary.end_to_end.count
    ));
    out
}

/// Validates `value` against a minimal JSON-Schema subset: `type`
/// (`object`/`array`/`string`/`number`/`integer`/`boolean`/`null`),
/// `required`, `properties`, `additionalProperties` (boolean or schema),
/// and `items`. Enough for the checked-in export schemas under
/// `docs/schemas/`; unknown keywords are ignored.
pub fn validate_schema(value: &Value, schema: &Value) -> Result<(), String> {
    validate_at(value, schema, "$")
}

fn validate_at(value: &Value, schema: &Value, path: &str) -> Result<(), String> {
    let Some(schema) = schema.as_object() else {
        return Err(format!("{path}: schema node is not an object"));
    };
    if let Some(ty) = schema.get("type").and_then(Value::as_str) {
        let ok = match ty {
            "object" => value.as_object().is_some(),
            "array" => value.as_array().is_some(),
            "string" => value.as_str().is_some(),
            "number" => value.as_f64().is_some(),
            "integer" => value.as_i64().is_some() || value.as_u64().is_some(),
            "boolean" => value.as_bool().is_some(),
            "null" => value.is_null(),
            other => return Err(format!("{path}: unsupported schema type {other:?}")),
        };
        if !ok {
            return Err(format!("{path}: expected {ty}, got {value:?}"));
        }
    }
    if let Some(obj) = value.as_object() {
        if let Some(required) = schema.get("required").and_then(Value::as_array) {
            for key in required {
                let key = key
                    .as_str()
                    .ok_or_else(|| format!("{path}: non-string entry in required"))?;
                if !obj.contains_key(key) {
                    return Err(format!("{path}: missing required property {key:?}"));
                }
            }
        }
        let properties = schema.get("properties").and_then(Value::as_object);
        for (key, child) in obj {
            let child_path = format!("{path}.{key}");
            if let Some(prop_schema) = properties.and_then(|p| p.get(key)) {
                validate_at(child, prop_schema, &child_path)?;
            } else {
                match schema.get("additionalProperties") {
                    Some(Value::Bool(false)) => {
                        return Err(format!("{path}: unexpected property {key:?}"));
                    }
                    Some(extra @ Value::Object(_)) => validate_at(child, extra, &child_path)?,
                    _ => {}
                }
            }
        }
    }
    if let (Some(items), Some(arr)) = (schema.get("items"), value.as_array()) {
        for (i, item) in arr.iter().enumerate() {
            validate_at(item, items, &format!("{path}[{i}]"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TraceEventKind;
    use xanadu_simcore::SimTime;

    fn demo_trace() -> Trace {
        let mut t = Trace::default();
        let ms = SimTime::from_millis;
        t.record(ms(0), TraceEventKind::Triggered);
        t.record(ms(0), TraceEventKind::PlanComputed { planned: 1 });
        t.record(
            ms(0),
            TraceEventKind::DeployStarted {
                function: "f".into(),
                on_demand: false,
                ready_at: ms(800),
            },
        );
        t.record(
            ms(5),
            TraceEventKind::Invoked {
                function: "f".into(),
            },
        );
        t.record(
            ms(800),
            TraceEventKind::ExecStarted {
                function: "f".into(),
                warm: false,
            },
        );
        t.record(
            ms(950),
            TraceEventKind::ExecEnded {
                function: "f".into(),
            },
        );
        t.record(ms(950), TraceEventKind::Completed);
        t
    }

    #[test]
    fn chrome_trace_emits_complete_and_instant_events() {
        let doc = chrome_trace(&[(7, demo_trace())]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // request root + deploy + wait + exec + plan marker.
        assert_eq!(events.len(), 5);
        let root = &events[0];
        assert_eq!(root.get("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(root.get("pid").unwrap().as_u64().unwrap(), 7);
        assert_eq!(root.get("tid").unwrap().as_u64().unwrap(), 0);
        assert_eq!(root.get("dur").unwrap().as_u64().unwrap(), 950_000);
        let marker = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str().unwrap() == "i")
            .expect("instant marker");
        assert_eq!(marker.get("cat").unwrap().as_str().unwrap(), "marker");
        // All function spans share the function's lane.
        for e in events.iter().skip(1) {
            if e.get("ph").unwrap().as_str().unwrap() == "X" {
                assert_eq!(e.get("tid").unwrap().as_u64().unwrap(), 1);
            }
        }
    }

    #[test]
    fn chrome_trace_is_deterministic_text() {
        let traces = vec![(0, demo_trace()), (1, demo_trace())];
        assert_eq!(chrome_trace_string(&traces), chrome_trace_string(&traces));
    }

    #[test]
    fn metrics_json_is_flat_and_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.incr("starts.cold", 2);
        reg.incr("retries", 1);
        reg.observe_ms("exec_ms", 100.0);
        let doc = metrics_json(&reg);
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("starts.cold")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        let hist = doc.get("histograms").unwrap().get("exec_ms").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("mean_ms").unwrap().as_f64(), Some(100.0));
        // BTreeMap ordering ⇒ "retries" precedes "starts.cold" in text.
        let text = metrics_json_string(&reg);
        assert!(text.find("retries").unwrap() < text.find("starts.cold").unwrap());
    }

    #[test]
    fn metrics_json_exports_interpolated_quantiles() {
        let mut reg = MetricsRegistry::new();
        for _ in 0..10 {
            reg.observe_ms("end_to_end_ms", 200.0);
        }
        let doc = metrics_json(&reg);
        let hist = doc.get("histograms").unwrap().get("end_to_end_ms").unwrap();
        for key in ["p50_ms", "p95_ms", "p99_ms", "p99_9_ms"] {
            let q = hist.get(key).unwrap().as_f64().unwrap();
            // All samples landed in the (100, 250] bucket.
            assert!((100.0..=250.0).contains(&q), "{key} = {q}");
        }
    }

    #[test]
    fn audit_json_round_trips_through_text() {
        let audit = Audit::from_traces(&[(0, demo_trace()), (1, demo_trace())]);
        let text = audit_json_string(&audit);
        let parsed: Audit = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, audit);
        // Byte-determinism of the rendered document.
        assert_eq!(text, audit_json_string(&audit));
    }

    #[test]
    fn validator_accepts_matching_documents() {
        let schema = json!({
            "type": "object",
            "required": ["a"],
            "properties": {
                "a": {"type": "integer"},
                "b": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": false,
        });
        let doc = json!({"a": 3, "b": [1.5, 2.0]});
        validate_schema(&doc, &schema).unwrap();
    }

    #[test]
    fn validator_rejects_type_missing_and_extra_keys() {
        let schema = json!({
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": false,
        });
        assert!(validate_schema(&json!({"a": "nope"}), &schema)
            .unwrap_err()
            .contains("expected integer"));
        assert!(validate_schema(&json!({}), &schema)
            .unwrap_err()
            .contains("missing required"));
        assert!(validate_schema(&json!({"a": 1, "z": 2}), &schema)
            .unwrap_err()
            .contains("unexpected property"));
    }

    #[test]
    fn alert_lines_are_compact_and_deterministic() {
        let alert = SloAlert {
            window: 3,
            path: "$.windows[3].end_to_end_ms.p95".into(),
            baseline: 400.0,
            candidate: 1300.0,
            allowed: "+225.0% > allowed +10.0%".into(),
        };
        let line = alert_json_line(&alert);
        assert!(!line.contains('\n'), "JSONL records are single-line");
        assert_eq!(line, alert_json_line(&alert));
        let parsed: SloAlert = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed, alert);
    }

    #[test]
    fn service_metrics_text_is_prometheus_shaped() {
        let mut summary = StreamingSummary::default();
        summary.end_to_end.observe(120.0);
        let status = ServiceStatus {
            uptime_ms: 60_000.0,
            events: 500,
            requests: 480,
            checkpoints: 5,
            alerts: 1,
            checkpoint_lag_events: 0,
            events_per_sec: 1234.5,
        };
        let text = service_metrics_text(&status, &summary);
        assert!(text.contains("# TYPE xanadu_stream_events_total counter"));
        assert!(text.contains("xanadu_stream_events_total 500"));
        assert!(text.contains("xanadu_checkpoint_lag_events 0"));
        assert!(text.contains("xanadu_end_to_end_ms{quantile=\"0.999\"}"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }

    #[test]
    fn validator_applies_additional_properties_schema_to_map_values() {
        let schema = json!({
            "type": "object",
            "additionalProperties": {"type": "integer"},
        });
        validate_schema(&json!({"x": 1, "y": 2}), &schema).unwrap();
        assert!(validate_schema(&json!({"x": 1.5}), &schema).is_err());
    }
}
