//! Structured spans with simulated-cycle timestamps.
//!
//! A span is one bracketed unit of campaign work — the whole campaign, a
//! cell, one supervised attempt, a PMBus voltage step, or a DPU batch
//! run — with parent/child links forming the tree
//! `campaign → cell → attempt → {bus op, dpu run}`.
//!
//! Timestamps are **simulated DPU cycles**, not wall clock, so a span
//! stream is a pure function of `(seed, plan)`. Producers record into a
//! ring that is *local to one cell attempt*; the campaign layer re-bases
//! cycle offsets and re-parents roots when merging rings in plan order
//! ([`SpanRing::absorb`]), which is what keeps ids and ordering identical
//! across `--jobs 1/2/8`.
//!
//! The ring is bounded: once `capacity` spans are held, the oldest
//! completed spans are evicted and counted in [`SpanRing::dropped`] —
//! a multi-hour campaign cannot grow telemetry without bound.
//!
//! A completed span never changes: attributes attach to open spans, and
//! an instant event takes all of its attributes when it is recorded. A
//! reader of the ring — an exporter, or the flight recorder copying its
//! most recent spans into a post-mortem — therefore sees each span as it
//! was when it completed.

use std::collections::VecDeque;

/// Default ring capacity; enough for a full quick-profile campaign.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// A typed span-attribute value.
///
/// Producers attach what they actually measured — a count, a voltage, a
/// flag — instead of stringifying everything at the call site; the JSONL
/// and Chrome-trace exporters render each kind natively (strings quoted,
/// numbers and booleans bare). String attributes render byte-identically
/// to the pre-typed format, so existing golden streams are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute (rendered as a JSON string).
    Str(String),
    /// An unsigned integer attribute.
    U64(u64),
    /// A signed integer attribute.
    I64(i64),
    /// A float attribute (rendered in shortest-round-trip form).
    F64(f64),
    /// A boolean attribute.
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<&String> for AttrValue {
    fn from(v: &String) -> Self {
        AttrValue::Str(v.clone())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Ring-assigned id, unique within one merged stream (1-based).
    pub id: u64,
    /// Parent span id, or `None` for a root.
    pub parent: Option<u64>,
    /// Span kind, e.g. `"campaign"`, `"cell"`, `"attempt"`,
    /// `"bus_set_vout"`, `"dpu_run"`.
    pub name: String,
    /// Start timestamp in simulated DPU cycles.
    pub start_cycle: u64,
    /// End timestamp in simulated DPU cycles (`>= start_cycle`).
    pub end_cycle: u64,
    /// Attribute pairs, sorted by key at export time.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Whether the span is an instant (zero-duration) event.
    pub fn is_instant(&self) -> bool {
        self.start_cycle == self.end_cycle
    }

    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of attribute `key` as a `u64`, if present and unsigned.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of attribute `key` as a `&str`, if present and a string.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key) {
            Some(AttrValue::Str(v)) => Some(v.as_str()),
            _ => None,
        }
    }
}

/// A bounded buffer of completed spans plus a stack of open ones.
#[derive(Debug, Default)]
pub struct SpanRing {
    done: VecDeque<SpanRecord>,
    open: Vec<SpanRecord>,
    capacity: usize,
    next_id: u64,
    dropped: u64,
}

impl SpanRing {
    /// A ring with the [`DEFAULT_SPAN_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A ring bounded to `capacity` completed spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRing {
            done: VecDeque::new(),
            open: Vec::new(),
            capacity: capacity.max(1),
            next_id: 0,
            dropped: 0,
        }
    }

    /// Opens a span at `start_cycle`; returns its id. If `parent` is
    /// `None` the span parents onto the innermost open span, if any.
    pub fn begin(&mut self, name: &str, parent: Option<u64>, start_cycle: u64) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let parent = parent.or_else(|| self.open.last().map(|s| s.id));
        self.open.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_cycle,
            end_cycle: start_cycle,
            attrs: Vec::new(),
        });
        id
    }

    /// Opens a *root* span at `start_cycle` — never auto-parented onto
    /// an open span, unlike [`SpanRing::begin`] with `parent: None`.
    /// Needed when many unrelated spans are open concurrently (e.g. one
    /// per in-flight serving request).
    pub fn begin_root(&mut self, name: &str, start_cycle: u64) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.open.push(SpanRecord {
            id,
            parent: None,
            name: name.to_string(),
            start_cycle,
            end_cycle: start_cycle,
            attrs: Vec::new(),
        });
        id
    }

    /// Records an instant (zero-duration) event span with its `attrs`
    /// under `parent`. The event completes at once, so it takes every
    /// attribute here.
    pub fn instant(
        &mut self,
        name: &str,
        parent: Option<u64>,
        cycle: u64,
        attrs: Vec<(String, AttrValue)>,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_cycle: cycle,
            end_cycle: cycle,
            attrs,
        });
        id
    }

    /// Attaches an attribute to the open span `id` (no-op if closed).
    pub fn attr(&mut self, id: u64, key: &str, value: impl Into<AttrValue>) {
        if let Some(span) = self.open.iter_mut().find(|s| s.id == id) {
            span.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Closes the open span `id` at `end_cycle`, moving it to the
    /// completed buffer. Unknown ids are ignored.
    pub fn end(&mut self, id: u64, end_cycle: u64) {
        if let Some(pos) = self.open.iter().position(|s| s.id == id) {
            let mut span = self.open.remove(pos);
            span.end_cycle = span.start_cycle.max(end_cycle);
            self.push(span);
        }
    }

    /// Inserts an already-completed span (id is reassigned by the ring).
    pub fn record(&mut self, mut span: SpanRecord) -> u64 {
        self.next_id += 1;
        span.id = self.next_id;
        let id = span.id;
        self.push(span);
        id
    }

    fn push(&mut self, span: SpanRecord) {
        if self.done.len() == self.capacity {
            self.done.pop_front();
            self.dropped += 1;
        }
        self.done.push_back(span);
    }

    /// Completed spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.done.iter()
    }

    /// Number of completed spans currently held.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no completed span is held.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Merges a cell-local ring into this one in plan order.
    ///
    /// Every absorbed span has its cycle timestamps shifted by
    /// `cycle_base`, its id remapped into this ring's id space, parent
    /// links rewritten to the remapped ids, and orphan roots re-parented
    /// under `parent` (typically the cell or attempt span). Called once
    /// per cell *in plan order*, this yields a stream independent of
    /// which worker ran which cell.
    pub fn absorb(&mut self, other: &SpanRing, parent: Option<u64>, cycle_base: u64) {
        self.absorb_records_with_id_span(other.spans(), other.next_id, parent, cycle_base);
        self.dropped += other.dropped;
    }

    /// [`SpanRing::absorb`] over a drained span list (e.g. a
    /// `SpanRing::take` result carried across a thread boundary). Ids in
    /// `records` must be self-consistent, as produced by one ring.
    pub fn absorb_records(&mut self, records: &[SpanRecord], parent: Option<u64>, cycle_base: u64) {
        let id_span = records.iter().map(|s| s.id).max().unwrap_or(0);
        self.absorb_records_with_id_span(records.iter(), id_span, parent, cycle_base);
    }

    fn absorb_records_with_id_span<'a>(
        &mut self,
        records: impl Iterator<Item = &'a SpanRecord>,
        id_span: u64,
        parent: Option<u64>,
        cycle_base: u64,
    ) {
        let base_id = self.next_id;
        for span in records {
            let mut span = span.clone();
            span.id += base_id;
            span.parent = match span.parent {
                Some(p) => Some(p + base_id),
                None => parent,
            };
            span.start_cycle += cycle_base;
            span.end_cycle += cycle_base;
            self.push(span);
        }
        self.next_id += id_span;
    }

    /// Drains all completed spans, oldest first, resetting the ring
    /// (dropped count and id counter are preserved).
    pub fn take(&mut self) -> Vec<SpanRecord> {
        self.done.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_links_parents() {
        let mut ring = SpanRing::new();
        let cell = ring.begin("cell", None, 0);
        let attempt = ring.begin("attempt", None, 10);
        let run = ring.begin("dpu_run", None, 20);
        ring.end(run, 120);
        ring.end(attempt, 130);
        ring.end(cell, 140);

        let spans: Vec<_> = ring.spans().cloned().collect();
        assert_eq!(spans.len(), 3);
        // Completed innermost-first.
        assert_eq!(spans[0].name, "dpu_run");
        assert_eq!(spans[0].parent, Some(attempt));
        assert_eq!(spans[1].parent, Some(cell));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[0].cycles(), 100);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts() {
        let mut ring = SpanRing::with_capacity(2);
        for i in 0..4u64 {
            let id = ring.begin("s", None, i);
            ring.end(id, i + 1);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 2);
        let starts: Vec<u64> = ring.spans().map(|s| s.start_cycle).collect();
        assert_eq!(starts, vec![2, 3]);
    }

    #[test]
    fn absorb_rebases_cycles_and_remaps_ids() {
        let mut cell_a = SpanRing::new();
        let a1 = cell_a.begin("attempt", None, 0);
        let r1 = cell_a.begin("dpu_run", None, 5);
        cell_a.end(r1, 50);
        cell_a.end(a1, 60);

        let mut cell_b = SpanRing::new();
        let b1 = cell_b.begin("attempt", None, 0);
        cell_b.end(b1, 40);

        let mut merged = SpanRing::new();
        let campaign = merged.begin("campaign", None, 0);
        merged.absorb(&cell_a, Some(campaign), 0);
        merged.absorb(&cell_b, Some(campaign), 60);

        let spans: Vec<_> = merged.spans().cloned().collect();
        merged.end(campaign, 100);
        assert_eq!(spans.len(), 3);
        // cell_a's spans keep internal parentage; roots hang off campaign.
        assert_eq!(spans[0].name, "dpu_run");
        assert_eq!(spans[1].name, "attempt");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, Some(campaign));
        // cell_b rebased by 60 cycles.
        assert_eq!(spans[2].start_cycle, 60);
        assert_eq!(spans[2].end_cycle, 100);
        assert_eq!(spans[2].parent, Some(campaign));
        // Ids are unique.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.push(campaign);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn attrs_attach_to_open_spans() {
        let mut ring = SpanRing::new();
        let id = ring.begin("cell", None, 0);
        ring.attr(id, "label", "vgg/b0");
        ring.end(id, 10);
        ring.attr(id, "late", "ignored");
        let span = ring.spans().next().unwrap();
        assert_eq!(
            span.attrs,
            vec![("label".into(), AttrValue::from("vgg/b0"))]
        );
    }

    #[test]
    fn typed_attrs_round_trip() {
        let mut ring = SpanRing::new();
        let id = ring.begin("route", None, 5);
        ring.attr(id, "board", 2u64);
        ring.attr(id, "degraded", false);
        ring.attr(id, "score", 1.5f64);
        ring.end(id, 5);
        let span = ring.spans().last().unwrap();
        assert!(span.is_instant());
        assert_eq!(span.attr_u64("board"), Some(2));
        assert_eq!(span.attr("degraded"), Some(&AttrValue::Bool(false)));
        assert_eq!(span.attr("score"), Some(&AttrValue::F64(1.5)));
        assert_eq!(span.attr_str("board"), None, "board is not a string");
        assert_eq!(span.attr("missing"), None);
    }

    #[test]
    fn begin_root_ignores_the_open_stack_and_instants_complete_at_once() {
        let mut ring = SpanRing::new();
        let outer = ring.begin("request", None, 0);
        let root = ring.begin_root("request", 3);
        let hit = ring.instant(
            "route",
            Some(root),
            3,
            vec![("board".to_string(), AttrValue::U64(1))],
        );
        assert_eq!(ring.len(), 1, "instant completes immediately");
        let route = ring.spans().last().unwrap();
        assert_eq!((route.id, route.parent), (hit, Some(root)));
        assert_eq!(route.attr_u64("board"), Some(1));
        ring.end(root, 9);
        ring.end(outer, 10);
        let spans: Vec<_> = ring.spans().cloned().collect();
        assert_eq!(spans[1].parent, None, "begin_root never auto-parents");
        assert_eq!(spans[2].parent, None);
    }
}
