//! In-memory host-time spans recorded around the benchmark's calls into
//! each crate, reduced to per-layer self times and written out as a
//! Chrome trace-event file (open it in `chrome://tracing` or Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

/// Layers measured per operation, with the per-layer metric each feeds.
/// A layer is the crate whose public call a span brackets.
pub const LAYERS: [(&str, &str); 5] = [
    ("core", "core_ms"),
    ("pmbus", "pmbus_ms"),
    ("dpu", "dpu_ms"),
    ("serve", "serve_ms"),
    ("telemetry", "telemetry_ms"),
];

struct Span {
    name: &'static str,
    layer: &'static str,
    op: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. Spans nest by call order: a span begun while another
/// is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags the spans recorded from now on with operation `op`, closing
    /// any span a failed operation left open.
    pub fn set_op(&mut self, op: usize) {
        if let Some(&outermost) = self.open.first() {
            self.end(outermost);
        }
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Time one pass spends in `layer`'s spans minus the part their child
    /// spans cover, in ms: per input (operation `op` runs input `op %
    /// inputs`), the median over its operations, summed over inputs.
    /// Operations that never entered the layer count as 0.
    pub fn pass_self_ms(&self, layer: &str, inputs: usize) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_op: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.op == usize::MAX {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *per_op.entry(s.op).or_default() += if s.layer == layer { own } else { 0 };
        }
        let mut per_input = vec![Vec::new(); inputs];
        for (op, ns) in per_op {
            per_input[op % inputs].push(ns as f64 / 1e6);
        }
        per_input
            .into_iter()
            .filter(|v| !v.is_empty())
            .map(crate::median)
            .sum()
    }

    /// Writes every span as a Chrome trace "complete" event, one track
    /// per layer.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            let next = tids.len() + 1;
            tids.entry(s.layer).or_insert(next);
        }
        let mut events: Vec<String> = tids
            .iter()
            .map(|(layer, tid)| {
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{layer}\"}}}}"
                )
            })
            .collect();
        for s in &self.spans {
            let op = if s.op == usize::MAX {
                "\"probe\"".to_string()
            } else {
                s.op.to_string()
            };
            events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{op}}}}}",
                s.name,
                s.layer,
                tids[s.layer],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        let out = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
