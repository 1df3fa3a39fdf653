//! Deterministic observability for undervolting campaigns.
//!
//! The paper's multi-day campaigns were babysat by hand: the experimenters
//! watched rail voltages, fault counts and reboot tallies to catch the
//! Vmin/Vcrash transition as it happened. This crate is that dashboard for
//! the simulated stack — with one extra, load-bearing constraint: **every
//! exported byte is a pure function of `(seed, plan)`**. Campaign results
//! are pinned byte-for-byte across worker counts and reruns
//! (`tests/determinism.rs`), and the telemetry must not be the side
//! channel that breaks the pin. Concretely:
//!
//! * Timestamps are **simulated DPU cycles**, never wall clock.
//! * Metric values come from seeded simulation state (retry counts, fault
//!   counts, rail voltages), never from timing or addresses.
//! * Producers record into *per-cell* collectors that the campaign layer
//!   merges in plan order, so scheduling cannot reorder anything.
//!
//! The one deliberately non-deterministic component is the
//! [`progress::ProgressReporter`], which writes wall-clock-paced status
//! lines to stderr — stderr is explicitly outside the determinism
//! contract (the `repro` binary already sends timing there).
//!
//! # Modules
//!
//! * [`metrics`] — lock-cheap registry of counters, gauges and fixed-bin
//!   histograms (atomics after registration; a lock only to register).
//! * [`span`] — structured spans (campaign → cell → attempt → bus
//!   transaction / DPU run; request → queue → execute when serving) in a
//!   bounded ring with parent/child links and typed attributes.
//! * [`export`] — JSONL event stream and Prometheus text exporters.
//! * [`trace`] — Chrome trace-event (`trace.json`) exporter; fleet
//!   timelines open directly in `chrome://tracing` / Perfetto.
//! * [`recorder`] — bounded flight recorder freezing the trace's most
//!   recent spans and health snapshots into post-mortem blobs on notable
//!   triggers.
//! * [`progress`] — live campaign progress lines with a cycle-cost ETA.

pub mod export;
pub mod metrics;
pub mod progress;
pub mod recorder;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry, Sample, SampleValue};
pub use recorder::{FlightRecorder, PostMortem, Snapshot};
pub use span::{AttrValue, SpanRecord, SpanRing};
pub use trace::TraceTrack;
