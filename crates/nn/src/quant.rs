//! Post-training quantization and the integer (DPU-style) executor.
//!
//! Mirrors the DECENT quantizer of the Xilinx DNNDK toolchain (§3.1):
//! symmetric per-tensor linear quantization of weights and activations to
//! `INTk` (k = 8 baseline; the Fig. 7 study sweeps k down to 4), 32-bit
//! accumulators, and a requantization step between layers.
//!
//! The quantized executor is the *faultable* datapath: undervolting timing
//! faults manifest as transient bit flips in weight fetches, MAC
//! accumulators and activation buffers. The executor asks a
//! [`FaultInjector`] for a fault plan per layer execution and applies it
//! transiently (weights are restored afterwards — faults in the paper's
//! setup are timing errors on reads, not permanent storage corruption).
//! Weight and activation plans list single [`BitFlip`]s; an accumulator
//! plan lists [`FlipRun`]s, each XORed over its slice of accumulators.

use crate::abft::{DefenseMode, DefenseStats, IntChecksum};
use crate::graph::{pool_windows, ConvParams, Graph, GraphError, Op, Shape};
use crate::kernels;
use crate::reference;
use crate::tensor::{QTensor, Tensor};
use redvolt_num::fixed::{IntFormat, QuantScale};

/// A planned transient bit flip: element index and bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Index of the affected element in the target buffer.
    pub index: usize,
    /// Bit position within the element's storage.
    pub bit: u32,
}

/// A planned run of transient bit flips: the `len` consecutive elements
/// from `start`, each flipped at the same bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipRun {
    /// Index of the run's first element in the target buffer.
    pub start: usize,
    /// Number of consecutive elements flipped.
    pub len: usize,
    /// Bit position within each element's storage.
    pub bit: u32,
}

/// Source of per-layer fault plans.
///
/// Implemented by `redvolt-faults` (rates derived from the board's timing
/// slack) and by [`NoFaults`] for clean execution.
///
/// Weight and activation plans are lists of single flips, which an ECC
/// wrapper can regroup by storage word. An accumulator plan is a list of
/// runs: a datapath timing fault corrupts consecutive outputs of one MAC
/// lane at one bit, and the executor XORs each run's slice at once
/// (accumulators carry no ECC).
pub trait FaultInjector {
    /// Plans transient flips in the `len` weight codes (of `bits` width)
    /// fetched for this layer execution.
    fn plan_weight_faults(&mut self, layer: &str, len: usize, bits: u32) -> Vec<BitFlip>;

    /// Plans runs of flips in the `len` output accumulators of this
    /// layer, where each accumulator is produced by `macs_per_out` MAC
    /// operations. Every run lies inside `0..len`.
    fn plan_accumulator_faults(
        &mut self,
        layer: &str,
        len: usize,
        macs_per_out: usize,
    ) -> Vec<FlipRun>;

    /// Plans flips in the `len` activation codes written by this layer.
    fn plan_activation_faults(&mut self, layer: &str, len: usize, bits: u32) -> Vec<BitFlip>;
}

/// The always-clean injector.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn plan_weight_faults(&mut self, _layer: &str, _len: usize, _bits: u32) -> Vec<BitFlip> {
        Vec::new()
    }

    fn plan_accumulator_faults(
        &mut self,
        _layer: &str,
        _len: usize,
        _macs_per_out: usize,
    ) -> Vec<FlipRun> {
        Vec::new()
    }

    fn plan_activation_faults(&mut self, _layer: &str, _len: usize, _bits: u32) -> Vec<BitFlip> {
        Vec::new()
    }
}

/// A quantized layer.
#[derive(Debug, Clone)]
enum QOp {
    Input,
    Conv {
        params: ConvParams,
        weights: kernels::PackedQ,
        /// Per-output-channel weight scales (DECENT-style per-channel
        /// symmetric quantization, which keeps narrow formats usable).
        wscales: Vec<f32>,
        bias_q: Vec<i32>,
        /// Precomputed requantization factors
        /// `input_scale · wscale / out_scale` — static after calibration,
        /// so the executor never materializes them per inference.
        rescales: Vec<f32>,
    },
    Dense {
        in_len: usize,
        out_len: usize,
        relu: bool,
        weights: kernels::PackedQ,
        /// Per-output-unit weight scales.
        wscales: Vec<f32>,
        bias_q: Vec<i32>,
        /// Precomputed requantization factors (see [`QOp::Conv`]).
        rescales: Vec<f32>,
    },
    MaxPool {
        k: usize,
        stride: usize,
    },
    AvgPool {
        k: usize,
        stride: usize,
    },
    GlobalAvgPool,
    Add {
        relu: bool,
    },
    Concat,
    Softmax,
}

#[derive(Debug, Clone)]
struct QNode {
    name: String,
    op: QOp,
    inputs: Vec<usize>,
    shape: Shape,
    /// Activation scale of this node's output codes.
    out_scale: f32,
}

/// Weight-scale granularity of the quantizer.
///
/// Per-channel is the production default (what DECENT-class tools use —
/// it keeps INT4..INT7 usable); per-tensor exists for the ablation bench
/// that demonstrates *why* per-channel matters on narrow formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One weight scale per output channel / output unit.
    #[default]
    PerChannel,
    /// A single weight scale per layer.
    PerTensor,
}

/// A graph quantized to `INTk`, executable on the integer datapath.
///
/// # Examples
///
/// ```
/// use redvolt_nn::graph::{ConvParams, GraphBuilder};
/// use redvolt_nn::quant::QuantizedGraph;
/// use redvolt_nn::tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// let x = b.input(4, 4, 1);
/// let p = ConvParams { in_ch: 1, out_ch: 1, k: 1, stride: 1, pad: 0, relu: false };
/// let y = b.conv("c", x, p, vec![0.5], vec![0.0]);
/// let g = b.finish(y);
///
/// let calib = [Tensor::from_vec(4, 4, 1, (0..16).map(|i| i as f32 / 16.0).collect())];
/// let mut q = QuantizedGraph::quantize(&g, 8, &calib)?;
/// let out = q.forward(&calib[0])?;
/// assert!((out.data()[0] - 0.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedGraph {
    nodes: Vec<QNode>,
    input: usize,
    output: usize,
    format: IntFormat,
    num_classes: usize,
    /// Per-inference buffers, reused across calls (see [`ExecScratch`]).
    scratch: ExecScratch,
    /// When set, conv/dense run the naive [`mod@reference`] kernels
    /// instead of the optimized ones, so `tests/kernels.rs` can compare
    /// whole models on both.
    use_reference: bool,
}

/// The executor's buffer arena: activation tensors, raw accumulators and
/// kernel panels, all sized on first use and reused afterwards so a
/// warmed-up inference performs no heap allocation.
///
/// Every [`QuantizedGraph`] owns one arena for its `&mut self` entry
/// points, but arenas are also first-class: [`QuantizedGraph::predict_shared`]
/// runs a *shared* graph against any externally-owned arena, which is how
/// the two-level campaign executor gives each image-shard worker its own
/// scratch while all workers read one immutable graph.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    kernels: kernels::Scratch,
    acts: Vec<QTensor>,
    acc: Vec<i32>,
    /// Copy-on-fault weight staging: shared-graph execution cannot flip
    /// weight bits in place, so a faulted layer's packed codes are copied
    /// here, flipped, and the kernel runs on the copy.
    wstage: kernels::PackedQ,
    /// Float staging buffer: an element-wise stage's output values, in
    /// output order, before [`kernels::round_codes_into`] turns them into
    /// codes (and the softmax probabilities). Conv and dense outputs skip
    /// it: [`kernels::requantize_into`] writes their codes directly.
    fbuf: Vec<f32>,
    /// Float logits of the output node, valid after a forward pass.
    final_float: Vec<f32>,
    /// Shape of `final_float`.
    final_shape: Shape,
}

impl ExecScratch {
    /// An empty arena; buffers size themselves on first use.
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// Float logits of the output node, valid after a shared-graph run.
    pub fn final_logits(&self) -> &[f32] {
        &self.final_float
    }

    /// Every node's activation, indexed by node id, valid after a
    /// shared-graph run (a [`NoFaults`] run's are a [`CleanPrefix`]'s
    /// source).
    pub fn activations(&self) -> &[QTensor] {
        &self.acts
    }
}

/// The fault-free prefix of an execution: every node before `node` takes
/// its activation from `acts` instead of computing it. `acts` are the
/// [`ExecScratch::activations`] of a [`NoFaults`] execution of the same
/// image on the same graph, and no conv/dense layer before `node` may
/// draw a fault (see [`QuantizedGraph::first_faulted_node`]). The default
/// prefix is empty: the execution starts at the input.
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanPrefix<'a> {
    /// The first node the execution computes.
    pub node: usize,
    /// The clean run's activations, at least `node` of them.
    pub acts: &'a [QTensor],
}

impl QuantizedGraph {
    /// Quantizes `graph` to `bits` precision, calibrating activation scales
    /// on `calib_images` (at least one image required).
    ///
    /// Batch-norm layers must be folded first (see
    /// [`Graph::fold_batch_norms`]), as in the DPU toolchain.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if a calibration image has the wrong shape or
    /// the graph still contains batch-norm nodes.
    ///
    /// # Panics
    ///
    /// Panics if `calib_images` is empty or `bits` is not in `1..=8`.
    pub fn quantize(graph: &Graph, bits: u32, calib_images: &[Tensor]) -> Result<Self, GraphError> {
        QuantizedGraph::quantize_with(graph, bits, calib_images, Granularity::PerChannel)
    }

    /// Like [`QuantizedGraph::quantize`] with an explicit weight-scale
    /// granularity.
    ///
    /// # Errors
    ///
    /// See [`QuantizedGraph::quantize`].
    ///
    /// # Panics
    ///
    /// See [`QuantizedGraph::quantize`].
    pub fn quantize_with(
        graph: &Graph,
        bits: u32,
        calib_images: &[Tensor],
        granularity: Granularity,
    ) -> Result<Self, GraphError> {
        assert!(!calib_images.is_empty(), "need calibration images");
        let format = IntFormat::new(bits).expect("bits in 1..=8");

        // Per-node activation ranges from the float reference path. The
        // output buffers and kernel scratch are reused across calibration
        // images — only the first image pays for allocation.
        let mut max_abs = vec![0.0f32; graph.nodes().len()];
        let mut outs: Vec<Tensor> = Vec::new();
        let mut calib_scratch = kernels::Scratch::new();
        for img in calib_images {
            graph.forward_all_into(img, &mut outs, &mut calib_scratch)?;
            for (m, t) in max_abs.iter_mut().zip(&outs) {
                *m = m.max(t.max_abs());
            }
        }

        let max_code = format.max_value() as f32;
        let mut nodes = Vec::with_capacity(graph.nodes().len());
        for (id, node) in graph.nodes().iter().enumerate() {
            let out_scale = if max_abs[id] > 0.0 {
                max_abs[id] / max_code
            } else {
                1.0
            };
            let op = match &node.op {
                Op::Input { .. } => QOp::Input,
                Op::Conv {
                    params,
                    weights,
                    bias,
                } => {
                    let in_scale = scale_of(&nodes, node.inputs[0]);
                    let k2ic = params.k * params.k * params.in_ch;
                    let tensor_max = f64::from(weights.iter().fold(0.0f32, |m, &w| m.max(w.abs())));
                    let mut wcodes = Vec::with_capacity(weights.len());
                    let mut wscales = Vec::with_capacity(params.out_ch);
                    let mut bias_q = Vec::with_capacity(params.out_ch);
                    for oc in 0..params.out_ch {
                        let block = &weights[oc * k2ic..(oc + 1) * k2ic];
                        let max_abs = match granularity {
                            Granularity::PerChannel => {
                                f64::from(block.iter().fold(0.0f32, |m, &w| m.max(w.abs())))
                            }
                            Granularity::PerTensor => tensor_max,
                        };
                        let wq = QuantScale::for_max_abs(max_abs, format);
                        wcodes.extend(block.iter().map(|&w| wq.quantize(f64::from(w)) as i8));
                        let wscale = wq.scale as f32;
                        wscales.push(wscale);
                        bias_q.push((bias[oc] / (in_scale * wscale)).round() as i32);
                    }
                    let act_scale = runtime_scale_of(&nodes, node.inputs[0]);
                    let rescales = wscales
                        .iter()
                        .map(|&ws| act_scale * ws / out_scale)
                        .collect();
                    QOp::Conv {
                        params: *params,
                        weights: kernels::PackedQ::pack(
                            &wcodes,
                            params.out_ch,
                            params.k,
                            params.k * params.in_ch,
                        ),
                        wscales,
                        bias_q,
                        rescales,
                    }
                }
                Op::Dense {
                    in_len,
                    out_len,
                    relu,
                    weights,
                    bias,
                } => {
                    let in_scale = scale_of(&nodes, node.inputs[0]);
                    let tensor_max = f64::from(weights.iter().fold(0.0f32, |m, &w| m.max(w.abs())));
                    let mut wcodes = Vec::with_capacity(weights.len());
                    let mut wscales = Vec::with_capacity(*out_len);
                    let mut bias_q = Vec::with_capacity(*out_len);
                    for o in 0..*out_len {
                        let row = &weights[o * in_len..(o + 1) * in_len];
                        let max_abs = match granularity {
                            Granularity::PerChannel => {
                                f64::from(row.iter().fold(0.0f32, |m, &w| m.max(w.abs())))
                            }
                            Granularity::PerTensor => tensor_max,
                        };
                        let wq = QuantScale::for_max_abs(max_abs, format);
                        wcodes.extend(row.iter().map(|&w| wq.quantize(f64::from(w)) as i8));
                        let wscale = wq.scale as f32;
                        wscales.push(wscale);
                        bias_q.push((bias[o] / (in_scale * wscale)).round() as i32);
                    }
                    let act_scale = runtime_scale_of(&nodes, node.inputs[0]);
                    let rescales = wscales
                        .iter()
                        .map(|&ws| act_scale * ws / out_scale)
                        .collect();
                    QOp::Dense {
                        in_len: *in_len,
                        out_len: *out_len,
                        relu: *relu,
                        weights: kernels::PackedQ::pack(&wcodes, *out_len, 1, *in_len),
                        wscales,
                        bias_q,
                        rescales,
                    }
                }
                Op::MaxPool { k, stride } => QOp::MaxPool {
                    k: *k,
                    stride: *stride,
                },
                Op::AvgPool { k, stride } => QOp::AvgPool {
                    k: *k,
                    stride: *stride,
                },
                Op::GlobalAvgPool => QOp::GlobalAvgPool,
                Op::Add { relu } => QOp::Add { relu: *relu },
                Op::Concat => QOp::Concat,
                Op::Softmax => QOp::Softmax,
                Op::BatchNorm { .. } => {
                    return Err(GraphError::ShapeMismatch {
                        node: node.name.clone(),
                        why: "fold batch norms before quantization".to_string(),
                    })
                }
            };
            nodes.push(QNode {
                name: node.name.clone(),
                op,
                inputs: node.inputs.clone(),
                shape: graph.shape(id),
                out_scale,
            });
        }
        Ok(QuantizedGraph {
            nodes,
            input: graph.input_id(),
            output: graph.output_id(),
            format,
            num_classes: graph.num_classes(),
            scratch: ExecScratch::default(),
            use_reference: false,
        })
    }

    /// Switches conv/dense layers between the optimized [`kernels`] and
    /// the naive [`mod@reference`] implementations. Output is bit-identical
    /// either way; the reference path is what `tests/kernels.rs` compares
    /// whole models against.
    pub fn set_reference_kernels(&mut self, on: bool) {
        self.use_reference = on;
    }

    /// Operand precision in bits.
    pub fn bits(&self) -> u32 {
        self.format.bits()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Root-mean-square error between this graph's dequantized weights
    /// and the float `reference` weights (a quantization-fidelity
    /// diagnostic; the ablation bench uses it to compare scale
    /// granularities).
    ///
    /// # Panics
    ///
    /// Panics if `reference` does not have the same topology.
    pub fn weight_rms_error(&self, reference: &Graph) -> f64 {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for (qn, rn) in self.nodes.iter().zip(reference.nodes()) {
            match (&qn.op, &rn.op) {
                (
                    QOp::Conv {
                        weights: packed,
                        wscales,
                        ..
                    }
                    | QOp::Dense {
                        weights: packed,
                        wscales,
                        ..
                    },
                    Op::Conv { weights, .. } | Op::Dense { weights, .. },
                ) => {
                    let depth = packed.depth();
                    for (i, (&w, code)) in weights.iter().zip(packed.unpack()).enumerate() {
                        let deq = f32::from(code) * wscales[i / depth];
                        sum += f64::from((deq - w) * (deq - w));
                    }
                    count += weights.len();
                }
                (QOp::Input, Op::Input { .. }) => {}
                (_, Op::BatchNorm { .. }) => panic!("reference has unfolded batch norm"),
                _ => {}
            }
        }
        if count == 0 {
            0.0
        } else {
            (sum / count as f64).sqrt()
        }
    }

    /// Runs the quantized path without faults, returning float logits.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] on input-shape mismatch.
    pub fn forward(&mut self, image: &Tensor) -> Result<Tensor, GraphError> {
        self.forward_with(image, &mut NoFaults)
    }

    /// Predicted class without faults.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] on input-shape mismatch.
    pub fn predict(&mut self, image: &Tensor) -> Result<usize, GraphError> {
        self.predict_with(image, &mut NoFaults)
    }

    /// Predicted class with a fault injector, undefended (ABFT runs only
    /// through [`QuantizedGraph::predict_shared`]).
    ///
    /// Runs entirely inside the executor's arena — after the first call,
    /// prediction allocates nothing (the inner loop of every campaign
    /// cell).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] on input-shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the graph output is empty.
    pub fn predict_with(
        &mut self,
        image: &Tensor,
        injector: &mut dyn FaultInjector,
    ) -> Result<usize, GraphError> {
        self.run_internal(image, injector)?;
        let logits = &self.scratch.final_float;
        assert!(!logits.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Runs the quantized path with fault injection, undefended, returning
    /// float logits (dequantized output of the final node).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] on input-shape mismatch.
    pub fn forward_with(
        &mut self,
        image: &Tensor,
        injector: &mut dyn FaultInjector,
    ) -> Result<Tensor, GraphError> {
        self.run_internal(image, injector)?;
        let s = self.scratch.final_shape;
        Ok(Tensor::from_vec(
            s.h,
            s.w,
            s.c,
            self.scratch.final_float.clone(),
        ))
    }

    /// Index of the final dense (readout) layer.
    fn readout_id(&self) -> usize {
        self.nodes
            .iter()
            .rposition(|n| matches!(n.op, QOp::Dense { .. }))
            .expect("quantized graph has a dense readout")
    }

    /// Dequantized *quantized-domain* features feeding the readout layer
    /// for `image` (clean execution).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] on input-shape mismatch.
    pub fn readout_features(&mut self, image: &Tensor) -> Result<Vec<f32>, GraphError> {
        let readout = self.readout_id();
        let src = self.nodes[readout].inputs[0];
        self.run_internal(image, &mut NoFaults)?;
        Ok(self.scratch.acts[src].dequantize().data().to_vec())
    }

    /// Refits the readout layer on labelled images using the *quantized*
    /// backbone's features — the DECENT-style quantize-then-finetune step
    /// that keeps narrow precisions usable. The new float readout is
    /// requantized (per-output scales) and its output activation scale is
    /// recalibrated on the same images.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError::BadImage`] from feature extraction.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a label is out of range.
    pub fn refit_readout(
        &mut self,
        images: &[Tensor],
        labels: &[usize],
        epochs: usize,
        learning_rate: f32,
    ) -> Result<(), GraphError> {
        assert_eq!(images.len(), labels.len(), "images/labels mismatch");
        let mut features = Vec::with_capacity(images.len());
        for img in images {
            features.push(self.readout_features(img)?);
        }
        let readout = self.readout_id();
        let in_scale = self.nodes[self.nodes[readout].inputs[0]].out_scale;
        let format = self.format;
        let QOp::Dense {
            in_len,
            out_len,
            weights: packed,
            wscales,
            bias_q,
            ..
        } = &mut self.nodes[readout].op
        else {
            unreachable!("readout is dense");
        };
        let (dim, classes) = (*in_len, *out_len);
        // Dequantize the current readout into float space.
        let mut wcodes = packed.unpack();
        let mut weights = vec![0.0f32; wcodes.len()];
        for o in 0..classes {
            for i in 0..dim {
                weights[o * dim + i] = f32::from(wcodes[o * dim + i]) * wscales[o];
            }
        }
        let mut bias = vec![0.0f32; classes];
        for o in 0..classes {
            bias[o] = bias_q[o] as f32 * in_scale * wscales[o];
        }
        crate::train::fit_softmax_regression(
            &features,
            labels,
            dim,
            classes,
            &mut weights,
            &mut bias,
            epochs,
            learning_rate,
        );
        // Requantize the new readout per output unit.
        for o in 0..classes {
            let row = &weights[o * dim..(o + 1) * dim];
            let wq = QuantScale::for_max_abs(
                f64::from(row.iter().fold(0.0f32, |m, &w| m.max(w.abs()))),
                format,
            );
            for (i, &w) in row.iter().enumerate() {
                wcodes[o * dim + i] = wq.quantize(f64::from(w)) as i8;
            }
            let ws = wq.scale as f32;
            wscales[o] = ws;
            bias_q[o] = (bias[o] / (in_scale * ws)).round() as i32;
        }
        *packed = kernels::PackedQ::pack(&wcodes, classes, 1, dim);
        // Recalibrate the readout's output activation scale on the new
        // logits (float estimate: features x new weights).
        let batch = features.len();
        let mut logits = vec![0.0f32; batch * classes];
        kernels::dense_f32_batch_into(
            &crate::train::feature_major(&features),
            dim,
            batch,
            &weights,
            &bias,
            &mut logits,
        );
        let max_abs = logits.iter().fold(0.0f32, |m, &z| m.max(z.abs()));
        if max_abs > 0.0 {
            self.nodes[readout].out_scale = max_abs / self.format.max_value() as f32;
        }
        // The readout's precomputed requantization factors depend on its
        // weight scales and output scale, both just rewritten — refresh.
        let act_scale = runtime_scale_of(&self.nodes, self.nodes[readout].inputs[0]);
        let out_scale = self.nodes[readout].out_scale;
        let QOp::Dense {
            wscales, rescales, ..
        } = &mut self.nodes[readout].op
        else {
            unreachable!("readout is dense");
        };
        for (r, &ws) in rescales.iter_mut().zip(wscales.iter()) {
            *r = act_scale * ws / out_scale;
        }
        Ok(())
    }

    /// Predicted class with a fault injector under the ABFT defense
    /// `mode`, against an external arena, adding the execution's ABFT
    /// events to `stats`. The nodes before `prefix.node` take their
    /// activations from the clean run (see [`CleanPrefix`]); the result,
    /// the injector's draws and `stats` are the full execution's either
    /// way.
    ///
    /// Unlike [`QuantizedGraph::predict_with`] this takes `&self`: the
    /// graph is never mutated (transient weight faults run on a
    /// copy-on-fault staging buffer inside `scratch`), so one prepared
    /// graph can serve many image-shard workers concurrently, each with
    /// its own [`ExecScratch`] and [`DefenseStats`] accumulator. Under
    /// [`DefenseMode::Off`] it is bit-for-bit identical to `predict_with`
    /// for the same injector state: same outputs, same injector draws.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] on input-shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the graph output is empty, or if a conv/dense layer
    /// before `prefix.node` draws a fault.
    pub fn predict_shared(
        &self,
        image: &Tensor,
        prefix: CleanPrefix<'_>,
        injector: &mut dyn FaultInjector,
        mode: DefenseMode,
        scratch: &mut ExecScratch,
        stats: &mut DefenseStats,
    ) -> Result<usize, GraphError> {
        self.run_shared(image, prefix, injector, mode, scratch, stats)?;
        let logits = &scratch.final_float;
        assert!(!logits.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Executes the graph into the owned scratch arena — the `&mut self`
    /// entry point behind [`QuantizedGraph::predict_with`] /
    /// [`QuantizedGraph::forward_with`]. Delegates to
    /// [`QuantizedGraph::run_shared`], undefended, with the graph's own
    /// arena.
    fn run_internal(
        &mut self,
        image: &Tensor,
        injector: &mut dyn FaultInjector,
    ) -> Result<(), GraphError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut stats = DefenseStats::default();
        let result = self.run_shared(
            image,
            CleanPrefix::default(),
            injector,
            DefenseMode::Off,
            &mut scratch,
            &mut stats,
        );
        self.scratch = scratch;
        result
    }

    /// Executes the graph into `scratch`: `scratch.acts[id]` holds every
    /// node's activation and `scratch.final_float` the output node's
    /// float logits. No allocation once the arena is warm, and no graph
    /// mutation ever — weight faults stage through `scratch.wstage`.
    ///
    /// The nodes before `prefix.node` copy their activation from the
    /// clean run. A conv/dense layer among them still requests its three
    /// fault plans in order, so the injector's stream stays where a full
    /// execution would leave it, and counts the two checks a fault-free
    /// defended pass counts. Faults cannot reach a node before the first
    /// one that draws, so the execution equals the full one. The output
    /// node always computes, so a softmax output sets its float logits.
    fn run_shared(
        &self,
        image: &Tensor,
        prefix: CleanPrefix<'_>,
        injector: &mut dyn FaultInjector,
        mode: DefenseMode,
        scratch: &mut ExecScratch,
        stats: &mut DefenseStats,
    ) -> Result<(), GraphError> {
        let in_shape = self.nodes[self.input].shape;
        if image.h() != in_shape.h || image.w() != in_shape.w || image.c() != in_shape.c {
            return Err(GraphError::BadImage {
                why: format!(
                    "expected {}x{}x{}, got {}x{}x{}",
                    in_shape.h,
                    in_shape.w,
                    in_shape.c,
                    image.h(),
                    image.w(),
                    image.c()
                ),
            });
        }
        let format = self.format;
        let output_id = self.output;
        let use_reference = self.use_reference;
        let nodes = &self.nodes;
        let ExecScratch {
            kernels: ks,
            acts,
            acc,
            wstage,
            fbuf,
            final_float,
            final_shape,
        } = scratch;
        acts.resize_with(nodes.len(), || QTensor::zeros(0, 0, 0, 1.0));
        let resume = prefix.node.min(output_id);
        for (id, (out, clean)) in acts.iter_mut().zip(&prefix.acts[..resume]).enumerate() {
            out.reset(clean.h(), clean.w(), clean.c(), clean.scale);
            out.codes.copy_from_slice(&clean.codes);
            if let Some(sites) = self.fault_sites(&nodes[id]) {
                assert!(
                    plans_empty(injector, &sites, format.bits()),
                    "layer {} draws a fault inside the clean prefix",
                    sites.name
                );
                if mode.is_on() {
                    stats.checks += 2;
                }
            }
        }
        let mut softmax_output = false;
        // An index loop, not an iterator: `id` is also the split point of
        // the activation list (`split_at_mut` below), which an enumerated
        // mutable borrow of `nodes` could not express.
        #[allow(clippy::needless_range_loop)]
        for id in resume..nodes.len() {
            // The graph is read-only here — transient weight faults stage
            // through `wstage` — and the activation list splits at `id`;
            // inputs always precede.
            let node = &nodes[id];
            let inputs = &node.inputs;
            let shape = node.shape;
            let out_scale = node.out_scale;
            let (before, rest) = acts.split_at_mut(id);
            let out = &mut rest[0];
            match &node.op {
                QOp::Input => quantize_image_into(image, out_scale, format, fbuf, out),
                QOp::Conv {
                    params: ConvParams { relu, .. },
                    rescales,
                    ..
                }
                | QOp::Dense { relu, rescales, .. } => {
                    let input = &before[inputs[0]];
                    let sites = self
                        .fault_sites(node)
                        .expect("conv and dense layers have fault sites");
                    // Accumulator stage.
                    checked_stage(mode, stats, || {
                        let flips = weight_flips(injector, &sites, format);
                        accumulate(
                            &node.op,
                            input,
                            &flips,
                            format,
                            use_reference,
                            ks,
                            wstage,
                            acc,
                            sites.acc_len,
                        );
                        let clean = mode.is_on().then(|| IntChecksum::of(acc));
                        for run in injector.plan_accumulator_faults(
                            sites.name,
                            sites.acc_len,
                            sites.weights.depth(),
                        ) {
                            let mask = 1i32 << (run.bit % 31);
                            for a in &mut acc[run.start..run.start + run.len] {
                                *a ^= mask;
                            }
                        }
                        flips.is_empty() && clean.is_some_and(|c| IntChecksum::of(acc) == c)
                    });
                    // Activation stage.
                    checked_stage(mode, stats, || {
                        out.reset(shape.h, shape.w, shape.c, out_scale);
                        kernels::requantize_into(acc, rescales, *relu, format, &mut out.codes);
                        let clean = mode.is_on().then(|| IntChecksum::of(&out.codes));
                        for f in injector.plan_activation_faults(
                            sites.name,
                            sites.out_len,
                            format.bits(),
                        ) {
                            flip_code(&mut out.codes[f.index], f.bit, format);
                        }
                        clean.is_some_and(|c| IntChecksum::of(&out.codes) == c)
                    });
                }
                QOp::MaxPool { k, stride } => max_pool_q_into(&before[inputs[0]], *k, *stride, out),
                QOp::AvgPool { k, stride } => avg_pool_q_into(
                    &before[inputs[0]],
                    *k,
                    *stride,
                    out_scale,
                    format,
                    fbuf,
                    out,
                ),
                QOp::GlobalAvgPool => {
                    global_avg_pool_q_into(&before[inputs[0]], out_scale, format, fbuf, out)
                }
                QOp::Add { relu } => add_q_into(
                    &before[inputs[0]],
                    &before[inputs[1]],
                    out_scale,
                    *relu,
                    format,
                    fbuf,
                    out,
                ),
                QOp::Concat => concat_q_into(inputs, before, shape, out_scale, format, fbuf, out),
                QOp::Softmax => {
                    // Dequantize the logits into the float staging buffer
                    // and apply a numerically-stable softmax in place.
                    let input = &before[inputs[0]];
                    fbuf.clear();
                    fbuf.extend(input.codes.iter().map(|&q| f32::from(q) * input.scale));
                    let m = fbuf.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                    for v in fbuf.iter_mut() {
                        *v = (*v - m).exp();
                    }
                    let sum: f32 = fbuf.iter().sum();
                    for v in fbuf.iter_mut() {
                        *v /= sum;
                    }
                    if id == output_id {
                        softmax_output = true;
                        final_float.clear();
                        final_float.extend(fbuf.iter());
                        *final_shape = Shape {
                            h: 1,
                            w: 1,
                            c: final_float.len(),
                        };
                    }
                    // Store probabilities quantized on the out scale.
                    for v in fbuf.iter_mut() {
                        *v /= out_scale;
                    }
                    out.reset(1, 1, fbuf.len(), out_scale);
                    kernels::round_codes_into(fbuf, format, &mut out.codes);
                }
            }
        }
        if !softmax_output {
            let out = &acts[output_id];
            final_float.clear();
            final_float.extend(out.codes.iter().map(|&q| f32::from(q) * out.scale));
            *final_shape = Shape {
                h: out.h(),
                w: out.w(),
                c: out.c(),
            };
        }
        Ok(())
    }

    /// The dry run of one execution: replays its fault-plan requests
    /// against `injector`, in the defended stage's order, without running
    /// a kernel — weights, accumulators, then activations of each
    /// conv/dense layer, at the sizes `run_shared` asks for. Returns the
    /// first node whose plans draw, stopping at its first non-empty plan,
    /// or `None` when every plan comes back empty.
    ///
    /// Until a plan is non-empty the requests depend only on the static
    /// layer shapes (a defended stage that sees no fault verifies once
    /// and moves on), so an identically seeded execution draws nothing
    /// before that node either. With `None` its output is a [`NoFaults`]
    /// execution's and its ABFT counters are
    /// [`QuantizedGraph::fault_free_defense_stats`]; otherwise it can
    /// resume at the returned node from a clean run ([`CleanPrefix`]).
    pub fn first_faulted_node(&self, injector: &mut dyn FaultInjector) -> Option<usize> {
        let bits = self.format.bits();
        self.nodes.iter().enumerate().find_map(|(id, node)| {
            let sites = self.fault_sites(node)?;
            (!plans_empty(injector, &sites, bits)).then_some(id)
        })
    }

    /// The ABFT counters of one execution that draws no fault under
    /// `mode`: two checks (accumulator and activation stage) per conv/dense
    /// layer when armed, nothing when off.
    pub fn fault_free_defense_stats(&self, mode: DefenseMode) -> DefenseStats {
        if !mode.is_on() {
            return DefenseStats::default();
        }
        let layers = self
            .nodes
            .iter()
            .filter_map(|node| self.fault_sites(node))
            .count();
        DefenseStats {
            checks: 2 * layers as u64,
            ..DefenseStats::default()
        }
    }

    /// The fault sites of `node`, `None` for a layer without weights.
    fn fault_sites<'a>(&self, node: &'a QNode) -> Option<FaultSites<'a>> {
        let (weights, acc_len) = match &node.op {
            QOp::Conv {
                params, weights, ..
            } => {
                let input = self.nodes[node.inputs[0]].shape;
                let (oh, ow) = params.out_hw(input.h, input.w);
                (weights, oh * ow * params.out_ch)
            }
            QOp::Dense {
                out_len, weights, ..
            } => (weights, *out_len),
            _ => return None,
        };
        let shape = node.shape;
        Some(FaultSites {
            name: &node.name,
            weights,
            acc_len,
            out_len: shape.h * shape.w * shape.c,
        })
    }
}

/// Requests a conv/dense layer's weight, accumulator and activation plans
/// from `injector`, in that order, stopping at the first non-empty one;
/// `true` when all three come back empty.
fn plans_empty(injector: &mut dyn FaultInjector, sites: &FaultSites<'_>, bits: u32) -> bool {
    injector
        .plan_weight_faults(sites.name, sites.weights.len(), bits)
        .is_empty()
        && injector
            .plan_accumulator_faults(sites.name, sites.acc_len, sites.weights.depth())
            .is_empty()
        && injector
            .plan_activation_faults(sites.name, sites.out_len, bits)
            .is_empty()
}

/// Where one execution of a conv/dense layer can be faulted: the layer
/// name and sizes its defended stage asks the injector about. `run_shared`
/// and `first_faulted_node` both read them from `fault_sites`.
struct FaultSites<'a> {
    name: &'a str,
    /// The weight codes one kernel pass fetches; fault plans index them
    /// in natural order, `weights.len()` of them. Each accumulator takes
    /// `weights.depth()` MACs.
    weights: &'a kernels::PackedQ,
    acc_len: usize,
    out_len: usize,
}

/// Runs one checksum stage of a conv/dense layer under `mode`. `pass`
/// executes the stage once and says whether its checksum verified; it
/// skips the checksum when `mode` is off, so an `Off` stage runs once
/// with no checksum work and exactly the undefended injector draws. A
/// mismatch re-executes the stage within `mode`'s budget and, under
/// [`DefenseMode::Correct`], counts as unresolved once the budget is
/// spent.
fn checked_stage(mode: DefenseMode, stats: &mut DefenseStats, mut pass: impl FnMut() -> bool) {
    let mut attempt = 0;
    loop {
        let verified = pass();
        if !mode.is_on() {
            return;
        }
        stats.checks += 1;
        if verified {
            return;
        }
        stats.mismatches += 1;
        if attempt >= mode.reexec_budget() {
            if mode == DefenseMode::Correct {
                stats.unresolved += 1;
            }
            return;
        }
        attempt += 1;
        stats.reexecutions += 1;
    }
}

/// Runs a conv or dense layer's kernel with the weight `flips` applied
/// transiently, leaving its `len` raw accumulators in `acc`. Neither path
/// touches the graph. The optimized kernels run on a copy of the packed
/// codes staged in `wstage`, each flip at its natural index's packed
/// position. The reference kernels flip their own natural-order copy at
/// the natural index, so the whole-model differential tests check that
/// every flip reaches the same weight on both sides.
#[allow(clippy::too_many_arguments)]
fn accumulate(
    op: &QOp,
    input: &QTensor,
    flips: &[BitFlip],
    format: IntFormat,
    use_reference: bool,
    ks: &mut kernels::Scratch,
    wstage: &mut kernels::PackedQ,
    acc: &mut Vec<i32>,
    len: usize,
) {
    let (QOp::Conv {
        weights, bias_q, ..
    }
    | QOp::Dense {
        weights, bias_q, ..
    }) = op
    else {
        unreachable!("only conv and dense layers accumulate");
    };
    acc.clear();
    if use_reference {
        let mut codes = weights.unpack();
        for f in flips {
            flip_code(&mut codes[f.index], f.bit, format);
        }
        acc.extend(match op {
            QOp::Conv { params, .. } => reference::conv2d_q(input, params, &codes, bias_q),
            _ => reference::dense_q(input, weights.depth(), weights.out_ch(), &codes, bias_q),
        });
        return;
    }
    let weights = if flips.is_empty() {
        weights
    } else {
        wstage.clone_from(weights);
        for f in flips {
            flip_code(wstage.code_mut(f.index), f.bit, format);
        }
        wstage
    };
    acc.resize(len, 0);
    match op {
        QOp::Conv { params, .. } => kernels::conv2d_q_into(input, params, weights, bias_q, ks, acc),
        _ => kernels::dense_q_into(input, weights, bias_q, ks, acc),
    }
}

fn scale_of(nodes: &[QNode], id: usize) -> f32 {
    nodes[id].out_scale
}

/// Scale of the activation tensor node `id` produces at *runtime*. Equal
/// to the node's calibrated `out_scale` everywhere except max-pool, which
/// forwards its input's codes (and therefore its input's scale) verbatim.
fn runtime_scale_of(nodes: &[QNode], mut id: usize) -> f32 {
    loop {
        match &nodes[id].op {
            QOp::MaxPool { .. } => id = nodes[id].inputs[0],
            _ => return nodes[id].out_scale,
        }
    }
}

fn quantize_image_into(
    image: &Tensor,
    scale: f32,
    format: IntFormat,
    fbuf: &mut Vec<f32>,
    out: &mut QTensor,
) {
    fbuf.clear();
    fbuf.extend(image.data().iter().map(|&v| v / scale));
    out.reset(image.h(), image.w(), image.c(), scale);
    kernels::round_codes_into(fbuf, format, &mut out.codes);
}

/// The weight flips the injector plans for one kernel pass, in natural
/// indices over the layer's `out_ch·K` codes. Flips past the end are
/// dropped. A non-empty result means a faulted weight, which the ABFT
/// checksum stage reports as a mismatch.
fn weight_flips(
    injector: &mut dyn FaultInjector,
    sites: &FaultSites<'_>,
    format: IntFormat,
) -> Vec<BitFlip> {
    let len = sites.weights.len();
    let mut flips = injector.plan_weight_faults(sites.name, len, format.bits());
    flips.retain(|f| f.index < len);
    flips
}

fn flip_code(code: &mut i8, bit: u32, format: IntFormat) {
    let b = bit % format.bits();
    let raw = format.to_raw(i32::from(*code)) ^ (1u32 << b);
    *code = format.sign_extend(raw) as i8;
}

/// Max pooling over channel runs: each output pixel's codes start at
/// `i8::MIN` and take the element-wise max with every window tap's run.
fn max_pool_q_into(input: &QTensor, k: usize, stride: usize, out: &mut QTensor) {
    let oh = (input.h() - k) / stride + 1;
    let ow = (input.w() - k) / stride + 1;
    let shape = Shape {
        h: input.h(),
        w: input.w(),
        c: input.c(),
    };
    out.reset(oh, ow, shape.c, input.scale);
    pool_windows(
        &input.codes,
        shape,
        k,
        stride,
        &mut out.codes,
        i8::MIN,
        Ord::max,
    );
}

/// Average pooling with the DPU's wide internal accumulator: sums in i32
/// and requantizes to the node's calibrated output scale, so the averaged
/// values keep their resolution instead of being crushed to the input's
/// integer grid.
fn avg_pool_q_into(
    input: &QTensor,
    k: usize,
    stride: usize,
    out_scale: f32,
    format: IntFormat,
    fbuf: &mut Vec<f32>,
    out: &mut QTensor,
) {
    let oh = (input.h() - k) / stride + 1;
    let ow = (input.w() - k) / stride + 1;
    let c = input.c();
    let rescale = input.scale / ((k * k) as f32 * out_scale);
    fbuf.clear();
    for oy in 0..oh {
        for ox in 0..ow {
            for ch in 0..c {
                let mut s = 0i32;
                for ky in 0..k {
                    for kx in 0..k {
                        let idx = ((oy * stride + ky) * input.w() + ox * stride + kx) * c + ch;
                        s += i32::from(input.codes[idx]);
                    }
                }
                fbuf.push(s as f32 * rescale);
            }
        }
    }
    out.reset(oh, ow, c, out_scale);
    kernels::round_codes_into(fbuf, format, &mut out.codes);
}

/// Global average pooling; see [`avg_pool_q_into`] for the precision model.
fn global_avg_pool_q_into(
    input: &QTensor,
    out_scale: f32,
    format: IntFormat,
    fbuf: &mut Vec<f32>,
    out: &mut QTensor,
) {
    let c = input.c();
    let n = (input.h() * input.w()) as f32;
    let rescale = input.scale / (n * out_scale);
    fbuf.clear();
    for ch in 0..c {
        let mut s = 0i32;
        for y in 0..input.h() {
            for x in 0..input.w() {
                s += i32::from(input.codes[(y * input.w() + x) * c + ch]);
            }
        }
        fbuf.push(s as f32 * rescale);
    }
    out.reset(1, 1, c, out_scale);
    kernels::round_codes_into(fbuf, format, &mut out.codes);
}

fn add_q_into(
    a: &QTensor,
    b: &QTensor,
    out_scale: f32,
    relu: bool,
    format: IntFormat,
    fbuf: &mut Vec<f32>,
    out: &mut QTensor,
) {
    fbuf.clear();
    fbuf.extend(a.codes.iter().zip(&b.codes).map(|(&qa, &qb)| {
        let v = (f32::from(qa) * a.scale + f32::from(qb) * b.scale) / out_scale;
        if relu && v < 0.0 {
            0.0
        } else {
            v
        }
    }));
    out.reset(a.h(), a.w(), a.c(), out_scale);
    kernels::round_codes_into(fbuf, format, &mut out.codes);
}

/// Concatenates along channels: per output pixel, each input's channel
/// run in input order, rescaled to the output scale.
fn concat_q_into(
    input_ids: &[usize],
    acts: &[QTensor],
    shape: Shape,
    out_scale: f32,
    format: IntFormat,
    fbuf: &mut Vec<f32>,
    out: &mut QTensor,
) {
    fbuf.clear();
    for pixel in 0..shape.h * shape.w {
        for &ti in input_ids {
            let t = &acts[ti];
            let run = &t.codes[pixel * t.c()..][..t.c()];
            fbuf.extend(run.iter().map(|&q| f32::from(q) * t.scale / out_scale));
        }
    }
    out.reset(shape.h, shape.w, shape.c, out_scale);
    kernels::round_codes_into(fbuf, format, &mut out.codes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input(4, 4, 2);
        let p = ConvParams {
            in_ch: 2,
            out_ch: 3,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let w: Vec<f32> = (0..p.weight_count())
            .map(|i| ((i as f32) * 0.37).sin() * 0.5)
            .collect();
        let y = b.conv("c1", x, p, w, vec![0.05, -0.05, 0.0]);
        let m = b.max_pool("mp", y, 2, 2);
        let wfc: Vec<f32> = (0..2 * 2 * 3 * 4)
            .map(|i| ((i as f32) * 0.73).cos() * 0.4)
            .collect();
        let z = b.dense("fc", m, 4, false, wfc, vec![0.0; 4]);
        let s = b.softmax("sm", z);
        b.finish(s)
    }

    fn calib_images() -> Vec<Tensor> {
        (0..4)
            .map(|k| {
                Tensor::from_vec(
                    4,
                    4,
                    2,
                    (0..32).map(|i| ((i + k * 7) as f32 * 0.21).sin()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn int8_tracks_float_closely() {
        let g = small_graph();
        let imgs = calib_images();
        let mut q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        for img in &imgs {
            let f = g.forward(img).unwrap();
            let qi = q.forward(img).unwrap();
            for (a, b) in f.data().iter().zip(qi.data()) {
                assert!((a - b).abs() < 0.08, "float {a} vs int8 {b}");
            }
            assert_eq!(f.argmax(), qi.argmax());
        }
    }

    #[test]
    fn lower_precision_increases_error() {
        let g = small_graph();
        let imgs = calib_images();
        let err_at = |bits: u32| -> f32 {
            let mut q = QuantizedGraph::quantize(&g, bits, &imgs).unwrap();
            let mut worst = 0.0f32;
            for img in &imgs {
                let f = g.forward(img).unwrap();
                let qi = q.forward(img).unwrap();
                for (a, b) in f.data().iter().zip(qi.data()) {
                    worst = worst.max((a - b).abs());
                }
            }
            worst
        };
        let e8 = err_at(8);
        let e4 = err_at(4);
        assert!(e4 > e8, "INT4 error {e4} should exceed INT8 error {e8}");
    }

    #[test]
    fn weight_faults_are_transient() {
        struct OneFlip;
        impl FaultInjector for OneFlip {
            fn plan_weight_faults(&mut self, layer: &str, _len: usize, bits: u32) -> Vec<BitFlip> {
                if layer == "c1" {
                    vec![BitFlip {
                        index: 0,
                        bit: bits - 1,
                    }]
                } else {
                    Vec::new()
                }
            }
            fn plan_accumulator_faults(&mut self, _: &str, _: usize, _: usize) -> Vec<FlipRun> {
                Vec::new()
            }
            fn plan_activation_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
                Vec::new()
            }
        }
        let g = small_graph();
        let imgs = calib_images();
        let mut q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        let clean_before = q.forward(&imgs[0]).unwrap();
        let faulty = q.forward_with(&imgs[0], &mut OneFlip).unwrap();
        let clean_after = q.forward(&imgs[0]).unwrap();
        assert_eq!(
            clean_before.data(),
            clean_after.data(),
            "faults must not persist"
        );
        assert_ne!(clean_before.data(), faulty.data(), "fault must perturb");
    }

    #[test]
    fn accumulator_fault_in_high_bit_is_catastrophic_but_saturated() {
        struct AccFlip;
        impl FaultInjector for AccFlip {
            fn plan_weight_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
                Vec::new()
            }
            fn plan_accumulator_faults(
                &mut self,
                layer: &str,
                _len: usize,
                _m: usize,
            ) -> Vec<FlipRun> {
                if layer == "fc" {
                    vec![FlipRun {
                        start: 0,
                        len: 1,
                        bit: 29,
                    }]
                } else {
                    Vec::new()
                }
            }
            fn plan_activation_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
                Vec::new()
            }
        }
        let g = small_graph();
        let imgs = calib_images();
        let mut q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        let out = q.forward_with(&imgs[0], &mut AccFlip).unwrap();
        // Output is still a valid probability vector (saturation contained it).
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn rejects_unfolded_batch_norm() {
        let mut b = GraphBuilder::new();
        let x = b.input(1, 1, 2);
        let y = b.batch_norm(
            "bn",
            x,
            vec![1.0; 2],
            vec![0.0; 2],
            vec![0.0; 2],
            vec![1.0; 2],
        );
        let g = b.finish(y);
        let img = Tensor::vector(vec![0.1, 0.2]);
        assert!(QuantizedGraph::quantize(&g, 8, &[img]).is_err());
    }

    #[test]
    fn narrow_formats_respect_code_range() {
        let g = small_graph();
        let imgs = calib_images();
        let mut q = QuantizedGraph::quantize(&g, 4, &imgs).unwrap();
        let _ = q.forward(&imgs[0]).unwrap();
        for n in &q.nodes {
            if let QOp::Conv { weights, .. } | QOp::Dense { weights, .. } = &n.op {
                for c in weights.unpack() {
                    assert!((-8..=7).contains(&i32::from(c)), "INT4 code {c}");
                }
            }
        }
    }

    #[test]
    fn per_channel_beats_per_tensor_at_narrow_widths() {
        // Channels with disparate weight magnitudes lose resolution under
        // a shared per-tensor scale; per-channel scales keep every
        // channel's weights representable. Measured as aggregate logit
        // error of an INT4 model vs the float reference over a batch.
        let g = {
            let mut b = GraphBuilder::new();
            let x = b.input(6, 6, 2);
            let p = ConvParams {
                in_ch: 2,
                out_ch: 6,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            };
            // Per-output-channel magnitude spread of ~6x.
            let w: Vec<f32> = (0..p.weight_count())
                .map(|i| {
                    let oc = i / (9 * 2);
                    let mag = 0.15 + 0.15 * oc as f32;
                    ((i as f32 * 0.37).sin()) * mag
                })
                .collect();
            let y = b.conv("c", x, p, w, vec![0.0; 6]);
            let gpool = b.global_avg_pool("gap", y);
            let wfc: Vec<f32> = (0..6 * 4)
                .map(|i| ((i as f32) * 0.73).cos() * 0.5)
                .collect();
            let d = b.dense("fc", gpool, 4, false, wfc, vec![0.0; 4]);
            b.finish(d)
        };
        let images: Vec<Tensor> = (0..12)
            .map(|k| {
                Tensor::from_vec(
                    6,
                    6,
                    2,
                    (0..72).map(|i| ((i + k * 5) as f32 * 0.21).sin()).collect(),
                )
            })
            .collect();
        let err = |granularity: Granularity| {
            QuantizedGraph::quantize_with(&g, 4, &images, granularity)
                .unwrap()
                .weight_rms_error(&g)
        };
        let per_channel = err(Granularity::PerChannel);
        let per_tensor = err(Granularity::PerTensor);
        assert!(
            per_channel < per_tensor * 0.75,
            "per-channel {per_channel} vs per-tensor {per_tensor}"
        );
    }

    #[test]
    fn max_pool_q_matches_an_indexed_spelling() {
        let mut rng = redvolt_num::rng::Xoshiro256StarStar::seed_from(31);
        for k in 1..=3 {
            for stride in 1..=3 {
                for c in [1, 3, 16, 17, 33] {
                    for (h, w) in [(k, k), (5, 7), (8, 6)] {
                        let mut input = QTensor::zeros(h, w, c, 0.25);
                        for q in &mut input.codes {
                            let r = rng.next_u64();
                            *q = match r % 16 {
                                0 => i8::MIN,
                                1 => i8::MAX,
                                _ => (r >> 8) as i8,
                            };
                        }
                        let (oh, ow) = ((h - k) / stride + 1, (w - k) / stride + 1);
                        let mut want = vec![0i8; oh * ow * c];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                for ch in 0..c {
                                    let mut m = i8::MIN;
                                    for ky in 0..k {
                                        for kx in 0..k {
                                            let y = oy * stride + ky;
                                            let x = ox * stride + kx;
                                            m = m.max(input.codes[(y * w + x) * c + ch]);
                                        }
                                    }
                                    want[(oy * ow + ox) * c + ch] = m;
                                }
                            }
                        }
                        let mut out = QTensor::zeros(2, 2, 2, 1.0);
                        max_pool_q_into(&input, k, stride, &mut out);
                        let case = format!("k={k} stride={stride} c={c} input {h}x{w}");
                        assert_eq!((out.h(), out.w(), out.c()), (oh, ow, c), "{case}");
                        assert_eq!(out.scale, input.scale, "{case}");
                        assert_eq!(out.codes, want, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn residual_and_concat_quantized_paths() {
        let mut b = GraphBuilder::new();
        let x = b.input(2, 2, 2);
        let p = ConvParams {
            in_ch: 2,
            out_ch: 2,
            k: 1,
            stride: 1,
            pad: 0,
            relu: false,
        };
        let y = b.conv("c", x, p, vec![0.8, 0.0, 0.0, 0.8], vec![0.0, 0.0]);
        let r = b.add("res", x, y, true);
        let cat = b.concat("cat", &[r, x]);
        let g = b.finish(cat);
        let img = Tensor::from_vec(2, 2, 2, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, 0.8]);
        let f = g.forward(&img).unwrap();
        let mut q = QuantizedGraph::quantize(&g, 8, std::slice::from_ref(&img)).unwrap();
        let qo = q.forward(&img).unwrap();
        for (a, b) in f.data().iter().zip(qo.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    /// Faults accumulators of `layer` for the first `remaining` acc plans,
    /// then goes quiet — a transient upset that a re-execution outruns.
    struct TransientAccFault {
        layer: &'static str,
        remaining: u32,
    }

    impl FaultInjector for TransientAccFault {
        fn plan_weight_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
            Vec::new()
        }
        fn plan_accumulator_faults(&mut self, layer: &str, _: usize, _: usize) -> Vec<FlipRun> {
            if layer == self.layer && self.remaining > 0 {
                self.remaining -= 1;
                vec![FlipRun {
                    start: 1,
                    len: 1,
                    bit: 20,
                }]
            } else {
                Vec::new()
            }
        }
        fn plan_activation_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
            Vec::new()
        }
    }

    /// The ABFT tests script their faults into each defended layer: the
    /// conv `c1` and the dense `fc`.
    const DEFENDED_LAYERS: [&str; 2] = ["c1", "fc"];

    /// Runs `image` under `mode` on a fresh arena, returning the output
    /// logits and the ABFT counters.
    fn run(
        q: &QuantizedGraph,
        image: &Tensor,
        injector: &mut dyn FaultInjector,
        mode: DefenseMode,
    ) -> (Vec<f32>, DefenseStats) {
        let mut scratch = ExecScratch::new();
        let mut stats = DefenseStats::default();
        q.predict_shared(
            image,
            CleanPrefix::default(),
            injector,
            mode,
            &mut scratch,
            &mut stats,
        )
        .unwrap();
        (scratch.final_logits().to_vec(), stats)
    }

    #[test]
    fn a_resumed_execution_equals_the_full_one() {
        // `fc` is node 3; `c1` (node 1) draws nothing, so the execution
        // may resume at the max pool or at `fc` from the clean run.
        let g = small_graph();
        let imgs = calib_images();
        let q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        let mut clean = ExecScratch::new();
        q.predict_shared(
            &imgs[0],
            CleanPrefix::default(),
            &mut NoFaults,
            DefenseMode::Off,
            &mut clean,
            &mut DefenseStats::default(),
        )
        .unwrap();
        let fault = || TransientAccFault {
            layer: "fc",
            remaining: 1,
        };
        assert_eq!(q.first_faulted_node(&mut fault()), Some(3));
        assert_eq!(q.first_faulted_node(&mut NoFaults), None);
        for mode in [DefenseMode::Off, DefenseMode::Detect, DefenseMode::Correct] {
            let full = run(&q, &imgs[0], &mut fault(), mode);
            for node in [0, 2, 3] {
                let prefix = CleanPrefix {
                    node,
                    acts: clean.activations(),
                };
                let mut scratch = ExecScratch::new();
                let mut stats = DefenseStats::default();
                q.predict_shared(
                    &imgs[0],
                    prefix,
                    &mut fault(),
                    mode,
                    &mut scratch,
                    &mut stats,
                )
                .unwrap();
                let resumed = (scratch.final_logits().to_vec(), stats);
                assert_eq!(resumed, full, "{mode:?} from node {node}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "layer fc draws a fault inside the clean prefix")]
    fn a_clean_prefix_past_the_first_fault_panics() {
        let g = small_graph();
        let imgs = calib_images();
        let q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        let mut clean = ExecScratch::new();
        let mut stats = DefenseStats::default();
        q.predict_shared(
            &imgs[0],
            CleanPrefix::default(),
            &mut NoFaults,
            DefenseMode::Off,
            &mut clean,
            &mut stats,
        )
        .unwrap();
        let prefix = CleanPrefix {
            node: 4,
            acts: clean.activations(),
        };
        let mut fault = TransientAccFault {
            layer: "fc",
            remaining: 1,
        };
        q.predict_shared(
            &imgs[0],
            prefix,
            &mut fault,
            DefenseMode::Off,
            &mut ExecScratch::new(),
            &mut stats,
        )
        .unwrap();
    }

    #[test]
    fn defense_off_runs_no_checks_and_keeps_faulty_output() {
        let g = small_graph();
        let imgs = calib_images();
        let mut q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        for layer in DEFENDED_LAYERS {
            let fault = || TransientAccFault {
                layer,
                remaining: 1,
            };
            let (faulty, stats) = run(&q, &imgs[0], &mut fault(), DefenseMode::Off);
            assert_eq!(stats, DefenseStats::default(), "{layer}");
            // The `&mut self` entry points are the same undefended path.
            let undefended = q.forward_with(&imgs[0], &mut fault()).unwrap();
            assert_eq!(faulty, undefended.data(), "{layer}");
        }
    }

    #[test]
    fn defense_detect_counts_mismatch_without_altering_output() {
        let g = small_graph();
        let imgs = calib_images();
        let q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        for layer in DEFENDED_LAYERS {
            let fault = || TransientAccFault {
                layer,
                remaining: 1,
            };
            let (faulty_off, _) = run(&q, &imgs[0], &mut fault(), DefenseMode::Off);
            let (faulty_detect, stats) = run(&q, &imgs[0], &mut fault(), DefenseMode::Detect);
            assert_eq!(faulty_detect, faulty_off, "{layer}");
            assert_eq!(stats.checks, 4, "{layer}: two stages per layer");
            assert_eq!(stats.mismatches, 1, "{layer}");
            assert_eq!(stats.reexecutions, 0, "{layer}");
            assert_eq!(stats.unresolved, 0, "{layer}: detect mode never resolves");
        }
    }

    #[test]
    fn defense_correct_reexecutes_transient_fault_to_clean_output() {
        let g = small_graph();
        let imgs = calib_images();
        let q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        let (clean, _) = run(&q, &imgs[0], &mut NoFaults, DefenseMode::Off);
        for layer in DEFENDED_LAYERS {
            let mut fault = TransientAccFault {
                layer,
                remaining: 1,
            };
            let (defended, stats) = run(&q, &imgs[0], &mut fault, DefenseMode::Correct);
            assert_eq!(defended, clean, "{layer}: re-execution must rescue");
            assert_eq!(stats.mismatches, 1, "{layer}");
            assert_eq!(stats.reexecutions, 1, "{layer}");
            assert!(stats.clean(), "{layer}");
        }
    }

    #[test]
    fn defense_correct_reports_unresolved_after_budget() {
        let g = small_graph();
        let imgs = calib_images();
        let q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        for layer in DEFENDED_LAYERS {
            // More consecutive upsets than the retry budget allows.
            let mut fault = TransientAccFault {
                layer,
                remaining: 100,
            };
            let (_, stats) = run(&q, &imgs[0], &mut fault, DefenseMode::Correct);
            let budget = DefenseMode::Correct.reexec_budget();
            assert_eq!(stats.reexecutions, u64::from(budget), "{layer}");
            assert_eq!(stats.unresolved, 1, "{layer}");
            assert!(!stats.clean(), "{layer}");
        }
    }

    #[test]
    fn defense_correct_rescues_activation_flips_too() {
        struct OneActFlip {
            layer: &'static str,
            remaining: u32,
        }
        impl FaultInjector for OneActFlip {
            fn plan_weight_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
                Vec::new()
            }
            fn plan_accumulator_faults(&mut self, _: &str, _: usize, _: usize) -> Vec<FlipRun> {
                Vec::new()
            }
            fn plan_activation_faults(&mut self, layer: &str, _: usize, bits: u32) -> Vec<BitFlip> {
                if layer == self.layer && self.remaining > 0 {
                    self.remaining -= 1;
                    vec![BitFlip {
                        index: 3,
                        bit: bits - 1,
                    }]
                } else {
                    Vec::new()
                }
            }
        }
        let g = small_graph();
        let imgs = calib_images();
        let q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        let (clean, _) = run(&q, &imgs[0], &mut NoFaults, DefenseMode::Off);
        for layer in DEFENDED_LAYERS {
            let mut fault = OneActFlip {
                layer,
                remaining: 1,
            };
            let (defended, stats) = run(&q, &imgs[0], &mut fault, DefenseMode::Correct);
            assert_eq!(defended, clean, "{layer}");
            assert_eq!(stats.mismatches, 1, "{layer}");
            assert_eq!(stats.reexecutions, 1, "{layer}");
        }
    }

    #[test]
    fn defense_correct_flags_persistent_weight_faults() {
        struct StuckWeight(&'static str);
        impl FaultInjector for StuckWeight {
            fn plan_weight_faults(&mut self, layer: &str, _: usize, bits: u32) -> Vec<BitFlip> {
                if layer == self.0 {
                    vec![BitFlip {
                        index: 0,
                        bit: bits - 1,
                    }]
                } else {
                    Vec::new()
                }
            }
            fn plan_accumulator_faults(&mut self, _: &str, _: usize, _: usize) -> Vec<FlipRun> {
                Vec::new()
            }
            fn plan_activation_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
                Vec::new()
            }
        }
        let g = small_graph();
        let imgs = calib_images();
        let q = QuantizedGraph::quantize(&g, 8, &imgs).unwrap();
        for layer in DEFENDED_LAYERS {
            let (_, stats) = run(&q, &imgs[0], &mut StuckWeight(layer), DefenseMode::Correct);
            // The weight-checksum column flags every attempt; the budget
            // runs out and the corruption is reported, not silently
            // returned.
            assert_eq!(stats.unresolved, 1, "{layer}");
        }
    }
}
