//! Bounded flight recorder with post-mortem dumps.
//!
//! The paper's experimenters reconstructed fault chronology from logs
//! taken *around* an incident — what the board was doing in the seconds
//! before a crash or an SDC matters more than the steady state. This
//! module is that black box for the simulated stack: producers stream
//! periodic health [`Snapshot`]s into a bounded ring, and when something
//! notable happens (a board crash, an audited SDC, a governor
//! escalation) the recorder freezes the last [`SPAN_WINDOW`] completed
//! spans of the trace ring it is handed, plus its snapshots, into a
//! [`PostMortem`] blob. The trace is the one record of the spans: a dump
//! copies what the trace holds, so a trace bounded below
//! [`SPAN_WINDOW`] spans gives dumps of that many.
//!
//! Everything is bounded — recent snapshots and the dump list itself —
//! so a pathological run cannot grow the recorder without limit;
//! overflow is *counted*, never silent. All timestamps are virtual
//! cycles, so recorder output obeys the crate's determinism contract:
//! byte-identical across reruns and worker counts.

use crate::export::{json_attrs, span_to_json};
use crate::span::{AttrValue, SpanRecord, SpanRing};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Most recent completed trace spans a dump copies.
pub const SPAN_WINDOW: usize = 64;
/// Most recent health snapshots a dump copies.
pub const SNAPSHOT_WINDOW: usize = 32;
/// Post-mortem dumps kept (later triggers are counted but suppressed).
pub const MAX_DUMPS: usize = 32;

/// A point-in-time health reading of one tracked component (typically a
/// board), attached to post-mortems for causal context.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Virtual timestamp of the reading.
    pub cycle: u64,
    /// What was sampled, e.g. `"board0"`.
    pub source: String,
    /// Typed reading attributes (voltage, clock, rungs, queue depth...).
    pub attrs: Vec<(String, AttrValue)>,
}

/// One frozen post-mortem blob.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// Dump sequence number (0-based, in trigger order).
    pub seq: u64,
    /// What fired the dump, e.g. `"board_crash"`, `"sdc_audit"`,
    /// `"governor_escalation"`.
    pub trigger: String,
    /// Virtual timestamp of the trigger.
    pub cycle: u64,
    /// Typed trigger attributes (board index, silent flag...).
    pub attrs: Vec<(String, AttrValue)>,
    /// The spans that completed most recently before the trigger,
    /// oldest first.
    pub spans: Vec<SpanRecord>,
    /// The most recent health snapshots, oldest first.
    pub snapshots: Vec<Snapshot>,
}

/// Bounded ring of recent health snapshots plus the dumps frozen from it
/// and the trace.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    snapshots: VecDeque<Snapshot>,
    dumps: Vec<PostMortem>,
    suppressed: u64,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams one health snapshot into the ring.
    pub fn snapshot(&mut self, snapshot: Snapshot) {
        if self.snapshots.len() == SNAPSHOT_WINDOW {
            self.snapshots.pop_front();
        }
        self.snapshots.push_back(snapshot);
    }

    /// Freezes the last [`SPAN_WINDOW`] completed spans of `trace` and
    /// the snapshot ring into a [`PostMortem`]. Returns the dump sequence
    /// number, or `None` when the dump bound is reached (the trigger is
    /// still counted in [`FlightRecorder::suppressed`]).
    pub fn dump(
        &mut self,
        trigger: &str,
        cycle: u64,
        attrs: Vec<(String, AttrValue)>,
        trace: &SpanRing,
    ) -> Option<u64> {
        if self.dumps.len() >= MAX_DUMPS {
            self.suppressed += 1;
            return None;
        }
        let seq = self.dumps.len() as u64;
        self.dumps.push(PostMortem {
            seq,
            trigger: trigger.to_string(),
            cycle,
            attrs,
            spans: trace
                .spans()
                .skip(trace.len().saturating_sub(SPAN_WINDOW))
                .cloned()
                .collect(),
            snapshots: self.snapshots.iter().cloned().collect(),
        });
        Some(seq)
    }

    /// The frozen dumps, in trigger order.
    pub fn dumps(&self) -> &[PostMortem] {
        &self.dumps
    }

    /// Drains the frozen dumps, leaving the snapshot ring intact.
    pub fn take_dumps(&mut self) -> Vec<PostMortem> {
        std::mem::take(&mut self.dumps)
    }

    /// Triggers that arrived after the dump bound was hit.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

/// Renders post-mortems as a JSONL stream: one meta line, then per dump
/// a `postmortem` header line followed by its span and snapshot lines.
/// Ends with a trailing newline.
pub fn export_flight_jsonl(dumps: &[PostMortem], suppressed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"format\":\"redvolt-flight\",\"version\":1,\"postmortems\":{},\"suppressed\":{}}}",
        dumps.len(),
        suppressed
    );
    for dump in dumps {
        let _ = writeln!(
            out,
            "{{\"type\":\"postmortem\",\"seq\":{},\"trigger\":\"{}\",\"cycle\":{},\"attrs\":{},\"spans\":{},\"snapshots\":{}}}",
            dump.seq,
            crate::export::json_escape(&dump.trigger),
            dump.cycle,
            json_attrs(&dump.attrs),
            dump.spans.len(),
            dump.snapshots.len(),
        );
        for span in &dump.spans {
            out.push_str(&span_to_json(span));
            out.push('\n');
        }
        for snap in &dump.snapshots {
            let _ = writeln!(
                out,
                "{{\"type\":\"snapshot\",\"cycle\":{},\"source\":\"{}\",\"attrs\":{}}}",
                snap.cycle,
                crate::export::json_escape(&snap.source),
                json_attrs(&snap.attrs),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(cycle: u64) -> Snapshot {
        Snapshot {
            cycle,
            source: "board0".to_string(),
            attrs: vec![("rungs".to_string(), AttrValue::U64(cycle))],
        }
    }

    #[test]
    fn dumps_copy_the_last_spans_of_the_trace_and_the_recent_snapshots() {
        let mut trace = SpanRing::new();
        for i in 0..70 {
            let id = trace.begin("batch", None, i * 100);
            trace.end(id, i * 100 + 10);
        }
        let mut rec = FlightRecorder::new();
        for i in 0..40 {
            rec.snapshot(snapshot(i));
        }
        let seq = rec.dump("board_crash", 7_000, vec![], &trace).unwrap();
        assert_eq!(seq, 0);
        let dump = &rec.dumps()[0];
        // Only the most recent spans and snapshots survive, oldest first.
        assert_eq!(
            dump.spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            (7..=70).collect::<Vec<u64>>()
        );
        assert_eq!(
            dump.snapshots.iter().map(|s| s.cycle).collect::<Vec<_>>(),
            (8..40).collect::<Vec<u64>>()
        );
        // A trace holding fewer spans than the window gives all of them.
        let mut short = SpanRing::with_capacity(16);
        for span in trace.spans() {
            short.record(span.clone());
        }
        rec.dump("sdc_audit", 7_000, vec![], &short);
        assert_eq!(rec.dumps()[1].spans.len(), 16);
        assert_eq!(rec.dumps()[1].spans[15].start_cycle, 6_900);
    }

    #[test]
    fn dump_bound_suppresses_but_counts() {
        let mut rec = FlightRecorder::new();
        let trace = SpanRing::new();
        for i in 0..MAX_DUMPS as u64 {
            assert_eq!(rec.dump("a", i, vec![], &trace), Some(i));
        }
        assert!(rec.dump("b", 40, vec![], &trace).is_none());
        assert!(rec.dump("c", 41, vec![], &trace).is_none());
        assert_eq!(rec.dumps().len(), MAX_DUMPS);
        assert_eq!(rec.suppressed(), 2);
    }

    #[test]
    fn flight_jsonl_is_framed_and_deterministic() {
        let mut ring = SpanRing::new();
        let id = ring.begin_root("execute", 50);
        ring.attr(id, "board", 1u64);
        ring.end(id, 80);

        let mut rec = FlightRecorder::new();
        rec.snapshot(Snapshot {
            cycle: 80,
            source: "board1".to_string(),
            attrs: vec![("vccint_mv".to_string(), AttrValue::F64(585.0))],
        });
        rec.dump(
            "sdc_audit",
            90,
            vec![("silent".to_string(), AttrValue::Bool(false))],
            &ring,
        );
        let out = export_flight_jsonl(rec.dumps(), rec.suppressed());
        assert_eq!(out, export_flight_jsonl(rec.dumps(), rec.suppressed()));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"format\":\"redvolt-flight\""));
        assert!(lines[1].contains("\"trigger\":\"sdc_audit\""));
        assert!(lines[1].contains("\"attrs\":{\"silent\":false}"));
        assert!(lines[2].contains("\"name\":\"execute\""));
        assert!(lines[3].contains("\"vccint_mv\":585.0"));
        assert!(out.ends_with('\n'));
    }
}
