//! Chrome trace-event (`trace.json`) exporter.
//!
//! Renders a span stream in the [Trace Event Format] consumed by
//! `chrome://tracing` and [Perfetto], so a fleet-serving timeline opens
//! directly in a real trace viewer: one track (`tid`) per board plus
//! router and governor tracks, complete events for timed spans, instant
//! events for zero-duration markers, and span attributes as `args`.
//!
//! Timestamps map **reference cycles → microseconds** through exact
//! integer arithmetic: `ns = cycles * 1000 / f_mhz`, rendered as a
//! fixed-point microsecond value with three decimals. No float
//! formatting is involved, so the exported bytes are a pure function of
//! the span stream — the same determinism contract as the JSONL and
//! Prometheus exporters.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::export::json_attrs;
use crate::span::SpanRecord;

/// One named track (thread row) in the rendered trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTrack {
    /// Thread id the track renders under (rows sort by tid).
    pub tid: u64,
    /// Human-readable track name (`thread_name` metadata).
    pub name: String,
}

impl TraceTrack {
    /// A track.
    pub fn new(tid: u64, name: &str) -> Self {
        TraceTrack {
            tid,
            name: name.to_string(),
        }
    }
}

/// Converts a cycle count at `f_mhz` to a fixed-point microsecond string
/// with three decimals, via exact integer math (`ns = cycles * 1000 /
/// f_mhz`, truncating).
pub fn cycles_to_us(cycles: u64, f_mhz: u64) -> String {
    let ns = u128::from(cycles) * 1000 / u128::from(f_mhz.max(1));
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders `spans` as a Chrome trace-event JSON document.
///
/// * `process` names the single rendered process (pid 0).
/// * `tracks` declares the thread rows; each emits `thread_name` and
///   `thread_sort_index` metadata so viewers order them by tid.
/// * `tid_of` assigns each span to a track.
/// * `f_mhz` is the reference-clock frequency used to map cycles to
///   trace microseconds.
///
/// Spans with `start_cycle == end_cycle` render as thread-scoped instant
/// events (`"ph":"i"`); all others as complete events (`"ph":"X"`). Span
/// id and parent id ride in `args` (keys `"id"` / `"parent"`) next to
/// the span's own attributes, preserving the tree for post-processing.
/// One event per line; ends with a trailing newline.
pub fn export_chrome_trace(
    spans: &[SpanRecord],
    process: &str,
    tracks: &[TraceTrack],
    tid_of: &dyn Fn(&SpanRecord) -> u64,
    f_mhz: u64,
) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() + tracks.len() * 2 + 1);
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
        crate::export::json_escape(process)
    ));
    for track in tracks {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            track.tid,
            crate::export::json_escape(&track.name)
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{}}}}}",
            track.tid, track.tid
        ));
    }
    for span in spans {
        let tid = tid_of(span);
        let ts = cycles_to_us(span.start_cycle, f_mhz);
        let mut args = vec![("id".to_string(), crate::span::AttrValue::U64(span.id))];
        if let Some(parent) = span.parent {
            args.push(("parent".to_string(), crate::span::AttrValue::U64(parent)));
        }
        args.extend(span.attrs.iter().cloned());
        let args = json_attrs(&args);
        if span.is_instant() {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"args\":{args}}}",
                crate::export::json_escape(&span.name)
            ));
        } else {
            let dur = cycles_to_us(span.cycles(), f_mhz);
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{args}}}",
                crate::export::json_escape(&span.name)
            ));
        }
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        out.push_str(event);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{AttrValue, SpanRing};

    #[test]
    fn cycle_mapping_is_exact_integer_math() {
        assert_eq!(cycles_to_us(0, 333), "0.000");
        assert_eq!(cycles_to_us(333, 333), "1.000");
        // 100 cycles at 333 MHz = 300.3 ns, truncating to 0.300 us.
        assert_eq!(cycles_to_us(100, 333), "0.300");
        assert_eq!(cycles_to_us(1, 333), "0.003");
        // Large counts do not overflow (u128 intermediate).
        assert_eq!(cycles_to_us(u64::MAX, 333), {
            let ns = u128::from(u64::MAX) * 1000 / 333;
            format!("{}.{:03}", ns / 1000, ns % 1000)
        });
    }

    #[test]
    fn trace_has_metadata_then_events_and_valid_framing() {
        let mut ring = SpanRing::new();
        let req = ring.begin_root("request", 0);
        ring.instant(
            "route",
            Some(req),
            0,
            vec![("board".to_string(), AttrValue::U64(1))],
        );
        ring.end(req, 666);
        let spans: Vec<SpanRecord> = ring.take();

        let tracks = [TraceTrack::new(0, "router"), TraceTrack::new(2, "board 0")];
        let out = export_chrome_trace(&spans, "redvolt-serve", &tracks, &|_| 0, 333);
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(out.ends_with("]}\n"));
        assert!(out.contains("\"process_name\""));
        assert!(out.contains("\"thread_name\",\"args\":{\"name\":\"board 0\"}"));
        // The instant event renders with ph:i, the timed span with ph:X.
        assert!(out.contains("\"name\":\"route\",\"ph\":\"i\""));
        assert!(out.contains("\"name\":\"request\",\"ph\":\"X\""));
        assert!(out.contains("\"ts\":0.000,\"dur\":2.000"), "{out}");
        // Parent linkage rides in args.
        assert!(out.contains("\"args\":{\"board\":1,\"id\":2,\"parent\":1}"));
        // Every line in the events array is comma-terminated except the last.
        let body: Vec<&str> = out.lines().collect();
        assert_eq!(body.last(), Some(&"]}"));
    }

    #[test]
    fn export_is_deterministic() {
        let mut ring = SpanRing::new();
        let id = ring.begin_root("batch", 10);
        ring.attr(id, "events", 3u64);
        ring.end(id, 500);
        let spans: Vec<SpanRecord> = ring.take();
        let tracks = [TraceTrack::new(2, "board 0")];
        let a = export_chrome_trace(&spans, "p", &tracks, &|_| 2, 333);
        let b = export_chrome_trace(&spans, "p", &tracks, &|_| 2, 333);
        assert_eq!(a, b);
    }
}
