//! # redvolt-serve — deterministic inference serving over an undervolted fleet
//!
//! The paper measures one board at a time; this crate asks the systems
//! question that follows from it: *if reduced-voltage operation saves
//! 2-3x power, what does a serving cluster built on undervolted FPGAs
//! look like?* It simulates a fleet of [`Zcu102Board`]-backed
//! accelerators behind a front door with admission control, bounded
//! per-board queues, dynamic batching, and a router that understands
//! each board's calibrated Vmin and current mitigation state.
//!
//! The whole subsystem is a **discrete-event simulation in virtual
//! time**: timestamps are cycles of the nominal DPU clock, arrivals come
//! from seeded streams, and every observable output — the report, the
//! JSONL metrics, the Prometheus export — is byte-identical across
//! reruns and worker counts for a fixed `(seed, config)`. Virtual time
//! saturates at `u64::MAX` instead of wrapping, and [`sim::run`] refuses
//! an offered rate that is not a finite number above zero before any
//! board is brought up.
//!
//! Module map:
//!
//! * [`event`] — the virtual-time event queue (`(cycle, seq)`-ordered).
//! * [`traffic`] — seeded open-loop Poisson/burst arrival streams.
//! * [`fleet`] — per-board bring-up, Vmin calibration, batch execution,
//!   energy accounting, ladder escalation and crash recovery.
//! * [`router`] — admission control (shed/degrade) and the Vmin-aware
//!   vs round-robin routing policies.
//! * [`sim`] — the event loop tying it all together, threading one
//!   request-lifecycle trace (admission → queue → batch → execute →
//!   complete/shed/degraded) through every decision; on a board crash,
//!   an audited SDC or a governor escalation the flight recorder freezes
//!   the trace's most recent spans with per-board health snapshots.
//! * [`report`] — text/JSONL/Prometheus/Chrome-trace/flight-recorder
//!   renderings of a finished run.
//! * [`obs`] — a std-only blocking HTTP endpoint serving the final
//!   snapshot (`/metrics`, `/healthz`, `/trace`).
//!
//! ```
//! use redvolt_serve::report::ServeReport;
//! use redvolt_serve::sim::{self, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ServeConfig {
//!     requests: 24,
//!     ..ServeConfig::default()
//! };
//! let outcome = sim::run(&cfg)?;
//! assert_eq!(outcome.counters.offered, 24);
//! let report = ServeReport::build(&cfg, outcome);
//! assert!(report.to_text().contains("== redvolt-serve run =="));
//! # Ok(())
//! # }
//! ```
//!
//! [`Zcu102Board`]: redvolt_fpga::board::Zcu102Board

pub mod event;
pub mod fleet;
pub mod obs;
pub mod report;
pub mod router;
pub mod sim;
pub mod traffic;
