//! The DSN-2020 undervolting measurement methodology as a library.
//!
//! Every experiment of the paper is a campaign in this crate, driven
//! against the simulated ZCU102 + DPU stack:
//!
//! * [`bench_suite`] — the five Table-1 benchmarks packaged as workloads.
//! * [`experiment`] — [`experiment::Accelerator`], the accelerator under
//!   test: PMBus voltage control, averaged telemetry measurements.
//! * [`sweep`] — downward voltage sweeps (Figs. 4–6) and the shared
//!   descent behind every undervolting campaign.
//! * [`guardband`] — Vmin / Vcrash regions of a sweep and their sizes
//!   (Fig. 3).
//! * [`executor`] — the parallel campaign executor: deterministic
//!   sharding of independent (board × benchmark × config) cells across
//!   workers with per-cell derived seeds, through the same
//!   `redvolt_num::par::run_indexed` fork/join that shards each cell's
//!   images.
//! * [`supervisor`] — the crash-resilient layer over the executor: panic
//!   isolation, wall-clock/cycle-budget watchdogs, reboot-and-retry.
//! * [`journal`] — the write-ahead journal behind `--resume`.
//! * [`efficiency`] — GOPs/W gain analysis (Fig. 5 headline numbers).
//! * [`freqscale`] — the Table-2 frequency-underscaling flow (§5).
//! * [`quantexp`] — undervolting × quantization (Fig. 7, §6.1).
//! * [`mitigation`] — Razor-style detect-and-retry below the guardband
//!   (the paper's §9 future-work item i).
//! * [`governor`] — a closed-loop minimum-voltage tracker and the
//!   adaptive rescue of one operating point (§9 item ii).
//! * [`bramexp`] — the BRAM-rail separation study (§4.1 discussion).
//! * [`pruneexp`] — undervolting × pruning (Fig. 8, §6.2).
//! * [`tempexp`] — temperature effects (Figs. 9 & 10, §7).
//! * [`report`] — plain-text / CSV emitters used by the `repro` binary.
//! * [`telemetry`] — the deterministic observability layer: per-cell
//!   collection, plan-order aggregation into `redvolt-telemetry`
//!   metrics/spans and exporter plumbing.
//! * [`workload_cache`] — process-wide memoization of prepared
//!   (quantized + calibrated) workloads keyed on the full
//!   `WorkloadConfig`, with deterministic hit/miss counters.
//!
//! # Examples
//!
//! ```
//! use redvolt_core::bench_suite::BenchmarkId;
//! use redvolt_core::experiment::{Accelerator, AcceleratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut acc = Accelerator::bring_up(&AcceleratorConfig::tiny(
//!     BenchmarkId::GoogleNet,
//! ))?;
//!
//! let nominal = acc.measure(16)?;
//! acc.set_vccint_mv(600.0)?; // inside the guardband
//! let undervolted = acc.measure(16)?;
//!
//! assert!(undervolted.power_w < nominal.power_w);
//! assert_eq!(undervolted.accuracy, nominal.accuracy);
//! # Ok(())
//! # }
//! ```

pub mod bench_suite;
pub mod bramexp;
pub mod efficiency;
pub mod executor;
pub mod experiment;
pub mod freqscale;
pub mod governor;
pub mod guardband;
pub mod journal;
pub mod mitigation;
pub mod pruneexp;
pub mod quantexp;
pub mod report;
pub mod supervisor;
pub mod sweep;
pub mod telemetry;
pub mod tempexp;
pub mod workload_cache;
