//! Exporters: JSONL event stream and Prometheus text exposition.
//!
//! Both formats are rendered from already-deterministic inputs (sorted
//! [`Sample`]s, plan-ordered [`SpanRecord`]s), so the output bytes are a
//! pure function of `(seed, plan)`. Serialisation is hand-rolled — the
//! workspace vendors no serde — and floats use `{:?}` (shortest
//! round-trip), matching the CSV payload convention in `core::report`.

use crate::metrics::{Sample, SampleValue};
use crate::span::{AttrValue, SpanRecord};
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` prints integral floats as e.g. `5.0`, already valid JSON.
        s
    } else {
        // JSON has no Inf/NaN; encode as string to stay parseable.
        format!("\"{v:?}\"")
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

/// Renders one typed attribute value as a JSON value. Strings are
/// quoted-and-escaped (byte-identical to the historical all-string attr
/// format); integers, floats and booleans render bare.
pub fn json_attr_value(value: &AttrValue) -> String {
    match value {
        AttrValue::Str(s) => format!("\"{}\"", json_escape(s)),
        AttrValue::U64(v) => v.to_string(),
        AttrValue::I64(v) => v.to_string(),
        AttrValue::F64(v) => json_f64(*v),
        AttrValue::Bool(v) => v.to_string(),
    }
}

/// Renders a typed attribute list as a JSON object, sorted by key.
pub fn json_attrs(attrs: &[(String, AttrValue)]) -> String {
    let mut attrs: Vec<&(String, AttrValue)> = attrs.iter().collect();
    attrs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), json_attr_value(v));
    }
    out.push('}');
    out
}

/// Renders one span as a JSONL event line (no trailing newline).
pub fn span_to_json(span: &SpanRecord) -> String {
    let mut line = format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_cycle\":{},\"end_cycle\":{},\"attrs\":{}}}",
        span.id,
        match span.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        },
        json_escape(&span.name),
        span.start_cycle,
        span.end_cycle,
        json_attrs(&span.attrs),
    );
    line.shrink_to_fit();
    line
}

/// Renders one metric sample as a JSONL event line (no trailing newline).
pub fn sample_to_json(sample: &Sample) -> String {
    let labels = json_labels(&sample.id.labels);
    match &sample.value {
        SampleValue::Counter(v) => format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            json_escape(&sample.id.name),
            labels,
            v
        ),
        SampleValue::Gauge(v) => format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            json_escape(&sample.id.name),
            labels,
            json_f64(*v)
        ),
        SampleValue::Histogram {
            bounds,
            buckets,
            count,
            sum,
        } => {
            let bounds_json: Vec<String> = bounds.iter().map(|b| json_f64(*b)).collect();
            let buckets_json: Vec<String> = buckets.iter().map(|b| b.to_string()).collect();
            format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"labels\":{},\"bounds\":[{}],\"buckets\":[{}],\"count\":{},\"sum\":{}}}",
                json_escape(&sample.id.name),
                labels,
                bounds_json.join(","),
                buckets_json.join(","),
                count,
                json_f64(*sum)
            )
        }
    }
}

/// Renders the full JSONL event stream: a schema header line, every span
/// in order, then every metric sample. Ends with a trailing newline.
pub fn export_jsonl(spans: &[SpanRecord], samples: &[Sample]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"format\":\"redvolt-telemetry\",\"version\":1,\"spans\":{},\"metrics\":{}}}",
        spans.len(),
        samples.len()
    );
    for span in spans {
        out.push_str(&span_to_json(span));
        out.push('\n');
    }
    for sample in samples {
        out.push_str(&sample_to_json(sample));
        out.push('\n');
    }
    out
}

fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{}=\"{}\"", k, prom_escape(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Renders samples in Prometheus text exposition format.
///
/// `# TYPE` comments are emitted once per metric family (samples sharing
/// a name), histogram buckets are cumulated with `le` labels including
/// the implicit `+Inf`, and `_sum`/`_count` series follow. Ends with a
/// trailing newline.
pub fn export_prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for sample in samples {
        let name = sample.id.name.as_str();
        let kind = match &sample.value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram { .. } => "histogram",
        };
        if last_family != Some(name) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_family = Some(name);
        }
        match &sample.value {
            SampleValue::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    name,
                    prom_labels(&sample.id.labels, None),
                    v
                );
            }
            SampleValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    name,
                    prom_labels(&sample.id.labels, None),
                    prom_f64(*v)
                );
            }
            SampleValue::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                let mut cumulative = 0u64;
                for (i, bucket) in buckets.iter().enumerate() {
                    cumulative += bucket;
                    let le = bounds
                        .get(i)
                        .map(|b| prom_f64(*b))
                        .unwrap_or_else(|| "+Inf".to_string());
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        name,
                        prom_labels(&sample.id.labels, Some(("le", &le))),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    name,
                    prom_labels(&sample.id.labels, None),
                    prom_f64(*sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    name,
                    prom_labels(&sample.id.labels, None),
                    count
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::SpanRing;

    fn sample_fixture() -> Vec<Sample> {
        let reg = Registry::new();
        reg.counter("redvolt_attempts_total", &[("board", "0")])
            .add(3);
        reg.gauge("redvolt_rail_mv", &[("rail", "vccint")])
            .set(597.5);
        let h = reg.histogram("redvolt_cell_cycles", &[], &[100.0, 1000.0]);
        h.observe(50.0);
        h.observe(500.0);
        h.observe(5000.0);
        reg.samples()
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn typed_attrs_render_natively_and_sorted() {
        let mut ring = SpanRing::new();
        let id = ring.begin("route", None, 7);
        ring.attr(id, "score", 1.5f64);
        ring.attr(id, "board", 2u64);
        ring.attr(id, "degraded", true);
        ring.attr(id, "policy", "vmin");
        ring.end(id, 7);
        let line = span_to_json(ring.spans().last().unwrap());
        assert!(
            line.contains(
                "\"attrs\":{\"board\":2,\"degraded\":true,\"policy\":\"vmin\",\"score\":1.5}"
            ),
            "{line}"
        );
    }

    #[test]
    fn jsonl_has_meta_then_events() {
        let mut ring = SpanRing::new();
        let id = ring.begin("cell", None, 0);
        ring.attr(id, "label", "vgg/b0");
        ring.end(id, 42);
        let spans: Vec<_> = ring.spans().cloned().collect();
        let out = export_jsonl(&spans, &sample_fixture());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[0].contains("\"spans\":1"));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"end_cycle\":42"));
        assert!(lines[2].contains("\"redvolt_attempts_total\""));
        assert!(lines[3].contains("\"redvolt_cell_cycles\""));
        assert!(lines[3].contains("\"buckets\":[1,1,1]"));
        assert!(lines[4].contains("\"value\":597.5"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn prometheus_cumulates_buckets() {
        let out = export_prometheus(&sample_fixture());
        let expected = "\
# TYPE redvolt_attempts_total counter
redvolt_attempts_total{board=\"0\"} 3
# TYPE redvolt_cell_cycles histogram
redvolt_cell_cycles_bucket{le=\"100.0\"} 1
redvolt_cell_cycles_bucket{le=\"1000.0\"} 2
redvolt_cell_cycles_bucket{le=\"+Inf\"} 3
redvolt_cell_cycles_sum 5550.0
redvolt_cell_cycles_count 3
# TYPE redvolt_rail_mv gauge
redvolt_rail_mv{rail=\"vccint\"} 597.5
";
        assert_eq!(out, expected);
    }
}
