//! B4096-style DPU accelerator simulator with a DNNDK-like runtime.
//!
//! The paper maps its CNNs onto three B4096 Deep-learning Processing Units
//! via the Xilinx DNNDK toolchain (§3.1). This crate rebuilds that stack:
//!
//! * [`isa`] — the coarse-grained kernel instruction stream.
//! * [`compiler`] — graph → kernel mapping with utilization-adjusted MAC
//!   cycles and DDR traffic accounting.
//! * [`memory`] — DDR roofline and BRAM weight-buffer residency.
//! * [`engine`] — per-image timing (compute + memory), cluster throughput
//!   and the GOPs metric; calibrated so Table 2's sub-linear GOPs-vs-clock
//!   column emerges from the roofline.
//! * [`runtime`] — DNNDK-style tasks bound to a simulated ZCU102: runs
//!   batches through the quantized datapath with slack-derived fault
//!   injection, publishes the live load to the board's power model, and
//!   hangs past the crash boundary exactly like the real system.
//!
//! # Examples
//!
//! ```
//! use redvolt_dpu::runtime::{DpuRuntime, DpuTask};
//! use redvolt_fpga::board::Zcu102Board;
//! use redvolt_nn::dataset::SyntheticDataset;
//! use redvolt_nn::models::{ModelKind, ModelScale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = ModelKind::VggNet.build(ModelScale::Tiny).fold_batch_norms();
//! let data = SyntheticDataset::new(32, 32, 3, 10, 42);
//! let task = DpuTask::create("vgg", &graph, 8, &data.images(4))?;
//!
//! let mut rt = DpuRuntime::open(Zcu102Board::new(0));
//! let result = rt.run_batch(&task, &data.images(8), 1, 0)?;
//! assert_eq!(result.predictions.len(), 8);
//! # Ok(())
//! # }
//! ```

pub mod compiler;
pub mod engine;
pub mod isa;
pub mod memory;
pub mod runtime;
