//! CNN inference library for the redvolt undervolting study.
//!
//! Implements the software side of the paper's benchmark stack:
//!
//! * [`tensor`] — HWC float and quantized tensors.
//! * [`graph`] — the layer DAG (conv / pool / dense / batch-norm /
//!   residual / inception-concat / softmax) and the float reference
//!   executor.
//! * [`kernels`] — the optimized blocked-GEMM conv/dense kernels both
//!   executors run on (the integer ones read a zero-bordered copy of the
//!   input in place, with no im2col copy), the fused requantize and
//!   rounding passes that make activation codes, a reusable
//!   [`kernels::Scratch`] arena, and the two batched float products the
//!   readout trainer runs.
//! * [`train`] — softmax-regression readout training, one pair of
//!   batched products per epoch.
//! * [`mod@reference`] — the retained naive kernels and readout trainer:
//!   the semantic ground truth the differential test suite diffs
//!   [`kernels`] and [`train`] against.
//! * [`quant`] — DECENT-style symmetric INT8..INT4 post-training
//!   quantization and the integer executor with transient-fault hooks
//!   (this is the datapath the DPU simulator drives, and where
//!   undervolting bit-flips land).
//! * [`models`] — structurally faithful, channel-scaled builders for the
//!   five Table-1 benchmarks (VGGNet, GoogleNet, AlexNet, ResNet50,
//!   Inception).
//! * [`dataset`] — synthetic class-conditional images with Table-1
//!   accuracy calibration.
//! * [`prune`] — structured channel pruning (§6.2).
//! * [`abft`] — algorithm-based fault tolerance: dual integer checksums
//!   over the conv/dense accumulators and activations, armed per
//!   execution by an [`abft::DefenseMode`], the detection layer of the
//!   undervolt SDC defense.
//!
//! # Examples
//!
//! ```
//! use redvolt_nn::dataset::{EvalSet, SyntheticDataset};
//! use redvolt_nn::models::{ModelKind, ModelScale};
//! use redvolt_nn::quant::QuantizedGraph;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = ModelKind::VggNet.build(ModelScale::Tiny).fold_batch_norms();
//! let data = SyntheticDataset::new(32, 32, 3, 10, 42);
//! let mut int8 = QuantizedGraph::quantize(&graph, 8, &data.images(4))?;
//!
//! let eval = EvalSet::calibrated(&mut int8, &data, 20, 0.86, 7)?;
//! let preds: Vec<usize> = eval
//!     .images
//!     .iter()
//!     .map(|img| int8.predict(img))
//!     .collect::<Result<_, _>>()?;
//! assert!(eval.accuracy(&preds) > 0.8);
//! # Ok(())
//! # }
//! ```

pub mod abft;
pub mod dataset;
pub mod graph;
pub mod kernels;
pub mod models;
pub mod prune;
pub mod quant;
pub mod reference;
pub mod tensor;
pub mod train;
