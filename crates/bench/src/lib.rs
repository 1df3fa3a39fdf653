//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each function in [`harness`] reproduces one table or figure of the
//! DSN-2020 study and returns it as a printable [`redvolt_core::report::Table`].
//! The `repro` binary prints them (`cargo run --release -p redvolt-bench
//! --bin repro -- all`); EXPERIMENTS.md records paper-vs-measured for a
//! full run. Host-time benchmarking lives in `perfbench/`, which builds
//! its sweep workload from [`harness::sweep_plan`]. The three binaries
//! read their command lines with [`cli::CommandLine`].

pub mod cli;
pub mod harness;

pub use harness::Settings;
