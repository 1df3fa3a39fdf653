//! CNN computation graphs and the float reference executor.
//!
//! Models are DAGs of [`Node`]s (convolutions, pooling, dense layers,
//! batch-norm, residual adds, inception concats, softmax — the layer
//! vocabulary of §2.1.2). The float path is the *reference semantics*; the
//! quantized path in [`crate::quant`] mirrors the DPU's integer datapath
//! and is where undervolting faults are injected.

use crate::tensor::Tensor;
use std::fmt;

/// Identifier of a node within its graph.
pub type NodeId = usize;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Square kernel size.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Fused ReLU on the output.
    pub relu: bool,
}

impl ConvParams {
    /// Number of weights.
    pub fn weight_count(&self) -> usize {
        self.out_ch * self.k * self.k * self.in_ch
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }
}

/// A graph operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Graph input of shape `(h, w, c)`.
    Input {
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Input channels.
        c: usize,
    },
    /// 2-D convolution with optional fused ReLU.
    Conv {
        /// Hyper-parameters.
        params: ConvParams,
        /// Weights in `[out_ch][kh][kw][in_ch]` order.
        weights: Vec<f32>,
        /// Per-output-channel bias.
        bias: Vec<f32>,
    },
    /// Fully-connected layer with optional fused ReLU.
    Dense {
        /// Input length (flattened).
        in_len: usize,
        /// Output length.
        out_len: usize,
        /// Fused ReLU.
        relu: bool,
        /// Weights in `[out][in]` order.
        weights: Vec<f32>,
        /// Per-output bias.
        bias: Vec<f32>,
    },
    /// Max pooling with square window.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling with square window.
    AvgPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to a `(1, 1, c)` vector.
    GlobalAvgPool,
    /// Batch normalization (inference form).
    BatchNorm {
        /// Learned scale per channel.
        gamma: Vec<f32>,
        /// Learned shift per channel.
        beta: Vec<f32>,
        /// Running mean per channel.
        mean: Vec<f32>,
        /// Running variance per channel.
        var: Vec<f32>,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Element-wise sum of two equal-shape inputs (residual shortcut),
    /// with optional fused ReLU.
    Add {
        /// Fused ReLU.
        relu: bool,
    },
    /// Channel concatenation of the inputs (inception module join).
    Concat,
    /// Softmax over the flattened input.
    Softmax,
}

impl Op {
    /// Whether this op carries trainable weights.
    pub fn has_weights(&self) -> bool {
        matches!(self, Op::Conv { .. } | Op::Dense { .. })
    }

    /// Number of trainable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        match self {
            Op::Conv { weights, bias, .. } | Op::Dense { weights, bias, .. } => {
                weights.len() + bias.len()
            }
            Op::BatchNorm { gamma, beta, .. } => gamma.len() + beta.len(),
            _ => 0,
        }
    }
}

/// A node: an op plus its input edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable layer name (unique within the graph).
    pub name: String,
    /// Operation.
    pub op: Op,
    /// Input node ids (topological order guaranteed by the builder).
    pub inputs: Vec<NodeId>,
}

/// Shape of a node output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Shape {
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Channels.
    pub c: usize,
}

impl Shape {
    /// Element count.
    pub fn len(&self) -> usize {
        self.h * self.w * self.c
    }

    /// Whether the shape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Errors from graph construction or execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node references an undefined input.
    BadInput {
        /// Offending node name.
        node: String,
    },
    /// Shapes are inconsistent with the op.
    ShapeMismatch {
        /// Offending node name.
        node: String,
        /// Explanation.
        why: String,
    },
    /// The supplied image does not match the graph input shape.
    BadImage {
        /// Explanation.
        why: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadInput { node } => write!(f, "node {node} references undefined input"),
            GraphError::ShapeMismatch { node, why } => {
                write!(f, "shape mismatch at {node}: {why}")
            }
            GraphError::BadImage { why } => write!(f, "bad input image: {why}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated CNN computation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
    input: NodeId,
    output: NodeId,
}

/// Incremental graph builder. Nodes must be added in topological order
/// (inputs before consumers), which the returned [`NodeId`]s enforce
/// naturally.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
    input: Option<NodeId>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    fn push(&mut self, node: Node, shape: Shape) -> NodeId {
        self.nodes.push(node);
        self.shapes.push(shape);
        self.nodes.len() - 1
    }

    /// Shape of an already-added node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.shapes[id]
    }

    /// Adds the graph input.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn input(&mut self, h: usize, w: usize, c: usize) -> NodeId {
        assert!(self.input.is_none(), "graph already has an input");
        let id = self.push(
            Node {
                name: "input".to_string(),
                op: Op::Input { h, w, c },
                inputs: vec![],
            },
            Shape { h, w, c },
        );
        self.input = Some(id);
        id
    }

    /// Adds a convolution.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not match the input shape or the weight
    /// buffers have the wrong length.
    pub fn conv(
        &mut self,
        name: &str,
        input: NodeId,
        params: ConvParams,
        weights: Vec<f32>,
        bias: Vec<f32>,
    ) -> NodeId {
        let s = self.shape(input);
        assert_eq!(s.c, params.in_ch, "{name}: in_ch mismatch");
        assert_eq!(weights.len(), params.weight_count(), "{name}: weights len");
        assert_eq!(bias.len(), params.out_ch, "{name}: bias len");
        let (h, w) = params.out_hw(s.h, s.w);
        assert!(h > 0 && w > 0, "{name}: empty output");
        self.push(
            Node {
                name: name.to_string(),
                op: Op::Conv {
                    params,
                    weights,
                    bias,
                },
                inputs: vec![input],
            },
            Shape {
                h,
                w,
                c: params.out_ch,
            },
        )
    }

    /// Adds a dense (fully-connected) layer over the flattened input.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn dense(
        &mut self,
        name: &str,
        input: NodeId,
        out_len: usize,
        relu: bool,
        weights: Vec<f32>,
        bias: Vec<f32>,
    ) -> NodeId {
        let in_len = self.shape(input).len();
        assert_eq!(weights.len(), in_len * out_len, "{name}: weights len");
        assert_eq!(bias.len(), out_len, "{name}: bias len");
        self.push(
            Node {
                name: name.to_string(),
                op: Op::Dense {
                    in_len,
                    out_len,
                    relu,
                    weights,
                    bias,
                },
                inputs: vec![input],
            },
            Shape {
                h: 1,
                w: 1,
                c: out_len,
            },
        )
    }

    /// Adds max pooling.
    ///
    /// # Panics
    ///
    /// Panics if the window is degenerate or larger than the input (see
    /// [`GraphBuilder::try_max_pool`] for the fallible form).
    pub fn max_pool(&mut self, name: &str, input: NodeId, k: usize, stride: usize) -> NodeId {
        match self.try_max_pool(name, input, k, stride) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds max pooling, rejecting invalid windows.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ShapeMismatch`] if `k` or `stride` is zero,
    /// or the window exceeds the input spatial size (which would
    /// underflow the output-shape arithmetic).
    pub fn try_max_pool(
        &mut self,
        name: &str,
        input: NodeId,
        k: usize,
        stride: usize,
    ) -> Result<NodeId, GraphError> {
        let s = self.shape(input);
        let (h, w) = pool_out_hw(name, s, k, stride)?;
        Ok(self.push(
            Node {
                name: name.to_string(),
                op: Op::MaxPool { k, stride },
                inputs: vec![input],
            },
            Shape { h, w, c: s.c },
        ))
    }

    /// Adds average pooling.
    ///
    /// # Panics
    ///
    /// Panics if the window is degenerate or larger than the input (see
    /// [`GraphBuilder::try_avg_pool`] for the fallible form).
    pub fn avg_pool(&mut self, name: &str, input: NodeId, k: usize, stride: usize) -> NodeId {
        match self.try_avg_pool(name, input, k, stride) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds average pooling, rejecting invalid windows.
    ///
    /// # Errors
    ///
    /// See [`GraphBuilder::try_max_pool`].
    pub fn try_avg_pool(
        &mut self,
        name: &str,
        input: NodeId,
        k: usize,
        stride: usize,
    ) -> Result<NodeId, GraphError> {
        let s = self.shape(input);
        let (h, w) = pool_out_hw(name, s, k, stride)?;
        Ok(self.push(
            Node {
                name: name.to_string(),
                op: Op::AvgPool { k, stride },
                inputs: vec![input],
            },
            Shape { h, w, c: s.c },
        ))
    }

    /// Adds global average pooling.
    pub fn global_avg_pool(&mut self, name: &str, input: NodeId) -> NodeId {
        let s = self.shape(input);
        self.push(
            Node {
                name: name.to_string(),
                op: Op::GlobalAvgPool,
                inputs: vec![input],
            },
            Shape { h: 1, w: 1, c: s.c },
        )
    }

    /// Adds batch normalization.
    ///
    /// # Panics
    ///
    /// Panics if the per-channel vectors do not match the input channels.
    pub fn batch_norm(
        &mut self,
        name: &str,
        input: NodeId,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        mean: Vec<f32>,
        var: Vec<f32>,
    ) -> NodeId {
        let s = self.shape(input);
        assert!(
            gamma.len() == s.c && beta.len() == s.c && mean.len() == s.c && var.len() == s.c,
            "{name}: per-channel vector length mismatch"
        );
        self.push(
            Node {
                name: name.to_string(),
                op: Op::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                    eps: 1e-5,
                },
                inputs: vec![input],
            },
            s,
        )
    }

    /// Adds a residual addition of two equal-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, name: &str, a: NodeId, b: NodeId, relu: bool) -> NodeId {
        let sa = self.shape(a);
        let sb = self.shape(b);
        assert_eq!(sa, sb, "{name}: add shape mismatch");
        self.push(
            Node {
                name: name.to_string(),
                op: Op::Add { relu },
                inputs: vec![a, b],
            },
            sa,
        )
    }

    /// Adds a channel concatenation.
    ///
    /// # Panics
    ///
    /// Panics if inputs differ in spatial shape or fewer than two are given.
    pub fn concat(&mut self, name: &str, inputs: &[NodeId]) -> NodeId {
        assert!(inputs.len() >= 2, "{name}: concat needs ≥2 inputs");
        let s0 = self.shape(inputs[0]);
        let mut c = 0;
        for &i in inputs {
            let s = self.shape(i);
            assert!(s.h == s0.h && s.w == s0.w, "{name}: spatial mismatch");
            c += s.c;
        }
        self.push(
            Node {
                name: name.to_string(),
                op: Op::Concat,
                inputs: inputs.to_vec(),
            },
            Shape {
                h: s0.h,
                w: s0.w,
                c,
            },
        )
    }

    /// Adds a softmax over the flattened input.
    pub fn softmax(&mut self, name: &str, input: NodeId) -> NodeId {
        let s = self.shape(input);
        self.push(
            Node {
                name: name.to_string(),
                op: Op::Softmax,
                inputs: vec![input],
            },
            Shape {
                h: 1,
                w: 1,
                c: s.len(),
            },
        )
    }

    /// Finalizes the graph with `output` as the result node.
    ///
    /// # Panics
    ///
    /// Panics if no input was declared or `output` is out of range.
    pub fn finish(self, output: NodeId) -> Graph {
        let input = self.input.expect("graph needs an input");
        assert!(output < self.nodes.len(), "output node out of range");
        Graph {
            nodes: self.nodes,
            shapes: self.shapes,
            input,
            output,
        }
    }
}

/// Pooling output shape, validated so the `usize` subtraction can never
/// underflow (the historical panic when a window exceeded the input
/// spatial size).
fn pool_out_hw(
    name: &str,
    s: Shape,
    k: usize,
    stride: usize,
) -> Result<(usize, usize), GraphError> {
    if k == 0 || stride == 0 {
        return Err(GraphError::ShapeMismatch {
            node: name.to_string(),
            why: format!("pool needs k >= 1 and stride >= 1, got k={k} stride={stride}"),
        });
    }
    if k > s.h || k > s.w {
        return Err(GraphError::ShapeMismatch {
            node: name.to_string(),
            why: format!("pool window {k} exceeds input {}x{}", s.h, s.w),
        });
    }
    Ok(((s.h - k) / stride + 1, (s.w - k) / stride + 1))
}

impl Graph {
    /// The nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Output shape of a node.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.shapes[id]
    }

    /// The input node id.
    pub fn input_id(&self) -> NodeId {
        self.input
    }

    /// The output node id.
    pub fn output_id(&self) -> NodeId {
        self.output
    }

    /// The input shape.
    pub fn input_shape(&self) -> Shape {
        self.shapes[self.input]
    }

    /// Number of output classes (length of the output node).
    pub fn num_classes(&self) -> usize {
        self.shapes[self.output].len()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(|n| n.op.param_count()).sum()
    }

    /// Number of weight-carrying layers (the paper's "#Layers" column).
    pub fn weight_layer_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.has_weights()).count()
    }

    /// Total multiply-accumulate operations per inference.
    pub fn mac_count(&self) -> u64 {
        let mut total = 0u64;
        for (id, node) in self.nodes.iter().enumerate() {
            total += match &node.op {
                Op::Conv { params, .. } => {
                    let s = self.shapes[id];
                    (s.h * s.w * s.c * params.k * params.k * params.in_ch) as u64
                }
                Op::Dense {
                    in_len, out_len, ..
                } => (in_len * out_len) as u64,
                _ => 0,
            };
        }
        total
    }

    /// Runs the float reference path, returning every node's output.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] if `image` does not match the
    /// declared input shape.
    pub fn forward_all(&self, image: &Tensor) -> Result<Vec<Tensor>, GraphError> {
        let mut outs = Vec::new();
        let mut scratch = crate::kernels::Scratch::new();
        self.forward_all_into(image, &mut outs, &mut scratch)?;
        Ok(outs)
    }

    /// Runs the float reference path into reusable per-node buffers.
    ///
    /// `outs` is resized to one tensor per node and each tensor's
    /// allocation is reused across calls; `scratch` holds the kernels'
    /// im2col panels. After the first call on a given graph, repeated
    /// forward passes perform no heap allocation — the hot loop of the
    /// quantizer's calibration pass.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadImage`] if `image` does not match the
    /// declared input shape.
    pub fn forward_all_into(
        &self,
        image: &Tensor,
        outs: &mut Vec<Tensor>,
        scratch: &mut crate::kernels::Scratch,
    ) -> Result<(), GraphError> {
        let in_shape = self.input_shape();
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
        outs.resize_with(self.nodes.len(), || Tensor::zeros(0, 0, 0));
        for (id, node) in self.nodes.iter().enumerate() {
            let shape = self.shapes[id];
            // Inputs always precede consumers, so split the buffer list
            // at `id`: everything before is readable, slot `id` writable.
            let (before, rest) = outs.split_at_mut(id);
            let out = &mut rest[0];
            out.reset(shape.h, shape.w, shape.c);
            match &node.op {
                Op::Input { .. } => out.data_mut().copy_from_slice(image.data()),
                Op::Conv {
                    params,
                    weights,
                    bias,
                } => crate::kernels::conv2d_f32_into(
                    &before[node.inputs[0]],
                    params,
                    weights,
                    bias,
                    scratch,
                    out.data_mut(),
                ),
                Op::Dense {
                    out_len,
                    relu,
                    weights,
                    bias,
                    ..
                } => crate::kernels::dense_f32_into(
                    before[node.inputs[0]].data(),
                    *out_len,
                    *relu,
                    weights,
                    bias,
                    out.data_mut(),
                ),
                Op::MaxPool { k, stride } => {
                    max_pool_into(&before[node.inputs[0]], *k, *stride, out)
                }
                Op::AvgPool { k, stride } => {
                    avg_pool_into(&before[node.inputs[0]], *k, *stride, out)
                }
                Op::GlobalAvgPool => global_avg_pool_into(&before[node.inputs[0]], out),
                Op::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                    eps,
                } => batch_norm_into(&before[node.inputs[0]], gamma, beta, mean, var, *eps, out),
                Op::Add { relu } => {
                    add_into(&before[node.inputs[0]], &before[node.inputs[1]], *relu, out)
                }
                Op::Concat => concat_into(
                    &node.inputs.iter().map(|&i| &before[i]).collect::<Vec<_>>(),
                    out,
                ),
                Op::Softmax => softmax_into(&before[node.inputs[0]], out),
            }
        }
        Ok(())
    }

    /// Runs the float reference path and returns the output tensor.
    ///
    /// # Errors
    ///
    /// See [`Graph::forward_all`].
    pub fn forward(&self, image: &Tensor) -> Result<Tensor, GraphError> {
        let mut outs = self.forward_all(image)?;
        Ok(outs.swap_remove(self.output))
    }

    /// Predicted class for an image (argmax of the output).
    ///
    /// # Errors
    ///
    /// See [`Graph::forward_all`].
    pub fn predict(&self, image: &Tensor) -> Result<usize, GraphError> {
        Ok(self.forward(image)?.argmax())
    }

    /// Centers the biases of every dense layer so that pre-activation
    /// outputs have zero mean over `images`.
    ///
    /// Untrained (seeded-random) ReLU networks accumulate a large positive
    /// mean activation, which makes one logit dominate for *every* input —
    /// a collapsed classifier. Training removes this offset; for the
    /// synthetic benchmark models we remove it explicitly, which restores
    /// input-dependent, diverse predictions (the property the paper's
    /// fault-sensitivity results rely on). Layers are processed in
    /// topological order, re-running the forward pass after each
    /// adjustment so downstream statistics see the centered values.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError::BadImage`] from the forward passes.
    pub fn center_dense_biases(&mut self, images: &[Tensor]) -> Result<(), GraphError> {
        if images.is_empty() {
            return Ok(());
        }
        let dense_ids: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Dense { .. }))
            .map(|(id, _)| id)
            .collect();
        for id in dense_ids {
            // Mean pre-activation per output unit over the image set.
            let src = self.nodes[id].inputs[0];
            let mut means: Vec<f64> = Vec::new();
            for img in images {
                let outs = self.forward_all(img)?;
                let x = outs[src].data();
                let Op::Dense {
                    in_len,
                    out_len,
                    weights,
                    bias,
                    ..
                } = &self.nodes[id].op
                else {
                    unreachable!("id selected as dense");
                };
                if means.is_empty() {
                    means = vec![0.0; *out_len];
                }
                for (o, m) in means.iter_mut().enumerate() {
                    let ws = &weights[o * in_len..(o + 1) * in_len];
                    let z: f32 = bias[o] + x.iter().zip(ws).map(|(a, b)| a * b).sum::<f32>();
                    *m += f64::from(z);
                }
            }
            let n = images.len() as f64;
            if let Op::Dense { bias, .. } = &mut self.nodes[id].op {
                for (b, m) in bias.iter_mut().zip(&means) {
                    *b -= (m / n) as f32;
                }
            }
        }
        Ok(())
    }

    /// Trains the final dense layer (a linear readout) on labelled images
    /// by softmax regression, leaving every other layer fixed.
    ///
    /// The benchmark models use seeded-random convolutional features (the
    /// study measures inference under faults, not learning), but an
    /// *untrained* readout has near-zero decision margins, which makes the
    /// classifier pathologically sensitive to quantization noise — unlike
    /// the trained networks of the paper, which tolerate INT4..INT7
    /// (Fig. 7). Fitting the readout restores realistic margins: features
    /// are extracted once with the frozen backbone, then the last dense
    /// layer is optimized with gradient descent and L2 decay.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError::BadImage`] from feature extraction.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no dense layer, the slices differ in
    /// length, or a label is out of range.
    pub fn fit_readout(
        &mut self,
        images: &[Tensor],
        labels: &[usize],
        epochs: usize,
        learning_rate: f32,
    ) -> Result<(), GraphError> {
        assert_eq!(images.len(), labels.len(), "images/labels mismatch");
        let readout = self
            .nodes
            .iter()
            .rposition(|n| matches!(n.op, Op::Dense { .. }))
            .expect("graph has a dense readout layer");
        let src = self.nodes[readout].inputs[0];
        // Frozen-backbone features, extracted once.
        let mut features: Vec<Vec<f32>> = Vec::with_capacity(images.len());
        for img in images {
            let outs = self.forward_all(img)?;
            features.push(outs[src].data().to_vec());
        }
        let Op::Dense {
            in_len,
            out_len,
            weights,
            bias,
            ..
        } = &mut self.nodes[readout].op
        else {
            unreachable!("readout selected as dense");
        };
        crate::train::fit_softmax_regression(
            &features,
            labels,
            *in_len,
            *out_len,
            weights,
            bias,
            epochs,
            learning_rate,
        );
        Ok(())
    }

    /// Folds every `Conv → BatchNorm` pair into the convolution and removes
    /// the BN nodes, as DPU toolchains do before deployment. Standalone BN
    /// nodes (not directly after a conv) are left untouched.
    pub fn fold_batch_norms(&self) -> Graph {
        let mut nodes = self.nodes.clone();
        // For each BN whose single input is a conv consumed only by it,
        // rewrite the conv and replace BN with identity rewiring.
        let mut replace: Vec<Option<NodeId>> = vec![None; nodes.len()];
        let mut consumers = vec![0usize; nodes.len()];
        for n in &nodes {
            for &i in &n.inputs {
                consumers[i] += 1;
            }
        }
        for id in 0..nodes.len() {
            let Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                eps,
            } = nodes[id].op.clone()
            else {
                continue;
            };
            let src = nodes[id].inputs[0];
            if consumers[src] != 1 {
                continue;
            }
            let Op::Conv {
                params,
                weights,
                bias,
            } = &mut nodes[src].op
            else {
                continue;
            };
            // BN(conv(x)) = gamma*(conv(x)-mean)/sqrt(var+eps) + beta
            //            = conv'(x) with w' = w*g/s, b' = (b-mean)*g/s + beta
            let k2ic = params.k * params.k * params.in_ch;
            for oc in 0..params.out_ch {
                let s = (var[oc] + eps).sqrt();
                let g = gamma[oc] / s;
                for w in &mut weights[oc * k2ic..(oc + 1) * k2ic] {
                    *w *= g;
                }
                bias[oc] = (bias[oc] - mean[oc]) * g + beta[oc];
            }
            replace[id] = Some(src);
        }
        // Rewire consumers of folded BN nodes, then drop them.
        let resolve = |mut id: NodeId| -> NodeId {
            while let Some(src) = replace[id] {
                id = src;
            }
            id
        };
        let mut keep_map: Vec<Option<NodeId>> = vec![None; nodes.len()];
        let mut new_nodes = Vec::new();
        let mut new_shapes = Vec::new();
        for (id, mut node) in nodes.into_iter().enumerate() {
            if replace[id].is_some() {
                continue;
            }
            for input in &mut node.inputs {
                let target = resolve(*input);
                *input = keep_map[target].expect("inputs precede consumers");
            }
            keep_map[id] = Some(new_nodes.len());
            new_nodes.push(node);
            new_shapes.push(self.shapes[id]);
        }
        Graph {
            nodes: new_nodes,
            shapes: new_shapes,
            input: keep_map[resolve(self.input)].expect("input kept"),
            output: keep_map[resolve(self.output)].expect("output kept"),
        }
    }
}

fn max_pool_into(input: &Tensor, k: usize, stride: usize, out: &mut Tensor) {
    let (oh, ow) = (out.h(), out.w());
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..input.c() {
                let mut m = f32::NEG_INFINITY;
                for ky in 0..k {
                    for kx in 0..k {
                        m = m.max(input.at(oy * stride + ky, ox * stride + kx, c));
                    }
                }
                out.set(oy, ox, c, m);
            }
        }
    }
}

fn avg_pool_into(input: &Tensor, k: usize, stride: usize, out: &mut Tensor) {
    let (oh, ow) = (out.h(), out.w());
    let norm = 1.0 / (k * k) as f32;
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..input.c() {
                let mut s = 0.0;
                for ky in 0..k {
                    for kx in 0..k {
                        s += input.at(oy * stride + ky, ox * stride + kx, c);
                    }
                }
                out.set(oy, ox, c, s * norm);
            }
        }
    }
}

fn global_avg_pool_into(input: &Tensor, out: &mut Tensor) {
    let n = (input.h() * input.w()) as f32;
    let acc = out.data_mut();
    for y in 0..input.h() {
        for x in 0..input.w() {
            for (c, a) in acc.iter_mut().enumerate() {
                *a += input.at(y, x, c);
            }
        }
    }
    for v in acc {
        *v /= n;
    }
}

fn batch_norm_into(
    input: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    eps: f32,
    out: &mut Tensor,
) {
    let c = input.c();
    for (i, (v, &x)) in out.data_mut().iter_mut().zip(input.data()).enumerate() {
        let ch = i % c;
        *v = gamma[ch] * (x - mean[ch]) / (var[ch] + eps).sqrt() + beta[ch];
    }
}

fn add_into(a: &Tensor, b: &Tensor, relu: bool, out: &mut Tensor) {
    for ((o, &av), &bv) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = av + bv;
        if relu {
            *o = o.max(0.0);
        }
    }
}

fn concat_into(inputs: &[&Tensor], out: &mut Tensor) {
    let h = inputs[0].h();
    let w = inputs[0].w();
    for y in 0..h {
        for x in 0..w {
            let mut off = 0;
            for t in inputs {
                for ch in 0..t.c() {
                    out.set(y, x, off + ch, t.at(y, x, ch));
                }
                off += t.c();
            }
        }
    }
}

fn softmax_into(input: &Tensor, out: &mut Tensor) {
    let x = input.data();
    let m = x.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps = out.data_mut();
    for (e, &v) in exps.iter_mut().zip(x) {
        *e = (v - m).exp();
    }
    let sum: f32 = exps.iter().sum();
    for e in exps {
        *e /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_conv(relu: bool) -> (ConvParams, Vec<f32>, Vec<f32>) {
        // 1x1 conv, 1 channel, weight 1, bias 0: identity map.
        (
            ConvParams {
                in_ch: 1,
                out_ch: 1,
                k: 1,
                stride: 1,
                pad: 0,
                relu,
            },
            vec![1.0],
            vec![0.0],
        )
    }

    #[test]
    fn conv_identity_preserves_input() {
        let mut b = GraphBuilder::new();
        let x = b.input(3, 3, 1);
        let (p, w, bias) = identity_conv(false);
        let y = b.conv("c", x, p, w, bias);
        let g = b.finish(y);
        let img = Tensor::from_vec(3, 3, 1, (0..9).map(|i| i as f32 - 4.0).collect());
        let out = g.forward(&img).unwrap();
        assert_eq!(out.data(), img.data());
    }

    #[test]
    fn conv_relu_clamps_negatives() {
        let mut b = GraphBuilder::new();
        let x = b.input(2, 2, 1);
        let (p, w, bias) = identity_conv(true);
        let y = b.conv("c", x, p, w, bias);
        let g = b.finish(y);
        let img = Tensor::from_vec(2, 2, 1, vec![-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(g.forward(&img).unwrap().data(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn conv_3x3_known_answer() {
        // All-ones 3x3 kernel over an all-ones 3x3 image, pad 1:
        // center sees 9 ones, edges 6, corners 4.
        let mut b = GraphBuilder::new();
        let x = b.input(3, 3, 1);
        let p = ConvParams {
            in_ch: 1,
            out_ch: 1,
            k: 3,
            stride: 1,
            pad: 1,
            relu: false,
        };
        let y = b.conv("c", x, p, vec![1.0; 9], vec![0.0]);
        let g = b.finish(y);
        let img = Tensor::from_vec(3, 3, 1, vec![1.0; 9]);
        let out = g.forward(&img).unwrap();
        assert_eq!(out.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn conv_stride_two_downsamples() {
        let mut b = GraphBuilder::new();
        let x = b.input(4, 4, 1);
        let p = ConvParams {
            in_ch: 1,
            out_ch: 1,
            k: 1,
            stride: 2,
            pad: 0,
            relu: false,
        };
        let y = b.conv("c", x, p, vec![1.0], vec![0.0]);
        let g = b.finish(y);
        assert_eq!(g.shape(y), Shape { h: 2, w: 2, c: 1 });
    }

    #[test]
    fn dense_known_answer() {
        let mut b = GraphBuilder::new();
        let x = b.input(1, 1, 3);
        let y = b.dense(
            "fc",
            x,
            2,
            false,
            vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5],
            vec![10.0, 0.0],
        );
        let g = b.finish(y);
        let out = g.forward(&Tensor::vector(vec![1.0, 2.0, 3.0])).unwrap();
        assert_eq!(out.data(), &[10.0 + 1.0 - 3.0, 3.0]);
    }

    #[test]
    fn max_and_avg_pool() {
        let mut b = GraphBuilder::new();
        let x = b.input(2, 2, 1);
        let m = b.max_pool("mp", x, 2, 2);
        let g = b.finish(m);
        let img = Tensor::from_vec(2, 2, 1, vec![1.0, 5.0, 3.0, 2.0]);
        assert_eq!(g.forward(&img).unwrap().data(), &[5.0]);

        let mut b = GraphBuilder::new();
        let x = b.input(2, 2, 1);
        let a = b.avg_pool("ap", x, 2, 2);
        let g = b.finish(a);
        assert_eq!(g.forward(&img).unwrap().data(), &[2.75]);
    }

    /// Regression: a pooling window larger than the input used to
    /// underflow the `usize` output-shape subtraction and panic inside
    /// the builder. It now reports a structured error.
    #[test]
    fn oversized_pool_window_is_an_error_not_a_panic() {
        let mut b = GraphBuilder::new();
        let x = b.input(2, 3, 1);
        let err = b.try_max_pool("mp", x, 4, 1).unwrap_err();
        assert!(
            matches!(&err, GraphError::ShapeMismatch { node, .. } if node == "mp"),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("exceeds input 2x3"), "{err}");
        // Same guard on the width-only overflow and on avg pooling.
        assert!(b.try_max_pool("mp2", x, 3, 1).is_err(), "k > w only");
        assert!(b.try_avg_pool("ap", x, 4, 2).is_err());
        // A window of exactly the input size is the degenerate-but-valid
        // boundary: 1x1 output.
        let ok = b.try_max_pool("fit", x, 2, 1).unwrap();
        assert_eq!(b.shape(ok), Shape { h: 1, w: 2, c: 1 });
    }

    #[test]
    fn degenerate_pool_parameters_are_errors() {
        let mut b = GraphBuilder::new();
        let x = b.input(4, 4, 1);
        assert!(b.try_max_pool("k0", x, 0, 1).is_err());
        assert!(b.try_max_pool("s0", x, 2, 0).is_err());
        assert!(b.try_avg_pool("k0", x, 0, 1).is_err());
        assert!(b.try_avg_pool("s0", x, 2, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "pool window 5 exceeds input 2x2")]
    fn infallible_pool_builder_panics_with_the_error_message() {
        let mut b = GraphBuilder::new();
        let x = b.input(2, 2, 1);
        b.max_pool("mp", x, 5, 1);
    }

    #[test]
    fn global_avg_pool_per_channel() {
        let mut b = GraphBuilder::new();
        let x = b.input(2, 2, 2);
        let p = b.global_avg_pool("gap", x);
        let g = b.finish(p);
        let img = Tensor::from_vec(2, 2, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        assert_eq!(g.forward(&img).unwrap().data(), &[2.5, 25.0]);
    }

    #[test]
    fn residual_add_and_relu() {
        let mut b = GraphBuilder::new();
        let x = b.input(1, 1, 2);
        let (_, _, _) = identity_conv(false);
        let y = b.add("res", x, x, true);
        let g = b.finish(y);
        let out = g.forward(&Tensor::vector(vec![1.0, -2.0])).unwrap();
        assert_eq!(out.data(), &[2.0, 0.0]);
    }

    #[test]
    fn concat_stacks_channels() {
        let mut b = GraphBuilder::new();
        let x = b.input(1, 1, 2);
        let y = b.concat("cat", &[x, x]);
        let g = b.finish(y);
        let out = g.forward(&Tensor::vector(vec![1.0, 2.0])).unwrap();
        assert_eq!(out.data(), &[1.0, 2.0, 1.0, 2.0]);
        assert_eq!(out.c(), 4);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut b = GraphBuilder::new();
        let x = b.input(1, 1, 3);
        let s = b.softmax("sm", x);
        let g = b.finish(s);
        let out = g.forward(&Tensor::vector(vec![1.0, 3.0, 2.0])).unwrap();
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert_eq!(out.argmax(), 1);
    }

    #[test]
    fn batch_norm_normalizes() {
        let mut b = GraphBuilder::new();
        let x = b.input(1, 1, 2);
        let y = b.batch_norm(
            "bn",
            x,
            vec![2.0, 1.0],
            vec![1.0, 0.0],
            vec![5.0, 0.0],
            vec![4.0, 1.0],
        );
        let g = b.finish(y);
        let out = g.forward(&Tensor::vector(vec![7.0, 3.0])).unwrap();
        // ch0: 2*(7-5)/2 + 1 = 3; ch1: (3-0)/1 = 3.
        assert!((out.data()[0] - 3.0).abs() < 1e-4);
        assert!((out.data()[1] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn fold_batch_norm_matches_unfolded() {
        let mut b = GraphBuilder::new();
        let x = b.input(3, 3, 2);
        let p = ConvParams {
            in_ch: 2,
            out_ch: 2,
            k: 3,
            stride: 1,
            pad: 1,
            relu: false,
        };
        let w: Vec<f32> = (0..p.weight_count())
            .map(|i| (i as f32 * 0.7).sin())
            .collect();
        let y = b.conv("c", x, p, w, vec![0.1, -0.2]);
        let z = b.batch_norm(
            "bn",
            y,
            vec![1.5, 0.5],
            vec![0.3, -0.1],
            vec![0.2, 0.4],
            vec![2.0, 0.5],
        );
        let g = b.finish(z);
        let folded = g.fold_batch_norms();
        assert_eq!(folded.nodes().len(), g.nodes().len() - 1);
        let img = Tensor::from_vec(3, 3, 2, (0..18).map(|i| (i as f32 * 0.3).cos()).collect());
        let a = g.forward(&img).unwrap();
        let b2 = folded.forward(&img).unwrap();
        for (u, v) in a.data().iter().zip(b2.data()) {
            assert!((u - v).abs() < 1e-4, "{u} vs {v}");
        }
    }

    #[test]
    fn counts_params_layers_and_macs() {
        let mut b = GraphBuilder::new();
        let x = b.input(4, 4, 1);
        let p = ConvParams {
            in_ch: 1,
            out_ch: 2,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let y = b.conv("c", x, p, vec![0.0; 18], vec![0.0; 2]);
        let z = b.dense("fc", y, 3, false, vec![0.0; 32 * 3], vec![0.0; 3]);
        let g = b.finish(z);
        assert_eq!(g.weight_layer_count(), 2);
        assert_eq!(g.param_count(), 18 + 2 + 96 + 3);
        // conv: 4*4*2 outputs * 9 macs = 288; dense: 96.
        assert_eq!(g.mac_count(), 288 + 96);
    }

    #[test]
    fn rejects_wrong_image_shape() {
        let mut b = GraphBuilder::new();
        let x = b.input(2, 2, 1);
        let g = b.finish(x);
        assert!(matches!(
            g.forward(&Tensor::zeros(3, 3, 1)),
            Err(GraphError::BadImage { .. })
        ));
    }
}
