//! Model pruning (the paper's §6.2 study, mirroring the DECENT pruner).
//!
//! [`channel_prune`] is structured channel pruning for sequential models
//! (the paper evaluates pruning on VGGNet): it removes the lowest-L1
//! output channels of every convolution and rewires downstream consumers,
//! so the pruned model genuinely performs *fewer operations* — the
//! paper's source of the pruned model's higher power-efficiency (Fig. 8b).

use crate::graph::{ConvParams, Graph, GraphBuilder, Op};
use std::fmt;

/// Errors from structured pruning.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PruneError {
    /// The graph is not a sequential chain (channel pruning of DAGs with
    /// residual/concat joins is out of scope, as in the paper's study).
    NotSequential {
        /// Offending node name.
        node: String,
    },
    /// The requested fraction is outside `[0, 0.95]`.
    BadFraction {
        /// Requested value.
        fraction: f64,
    },
}

impl fmt::Display for PruneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneError::NotSequential { node } => {
                write!(f, "channel pruning requires a sequential graph (at {node})")
            }
            PruneError::BadFraction { fraction } => {
                write!(f, "prune fraction {fraction} outside [0, 0.95]")
            }
        }
    }
}

impl std::error::Error for PruneError {}

/// Structured channel pruning of a sequential model: removes the
/// `fraction` lowest-L1 output channels from every convolution (keeping at
/// least one) and rewires pools / dense layers; the final classifier layer
/// keeps all outputs. The pruned graph performs fewer MACs.
///
/// # Errors
///
/// Returns [`PruneError::NotSequential`] if the graph has joins (Add /
/// Concat) and [`PruneError::BadFraction`] for fractions outside
/// `[0, 0.95]`.
pub fn channel_prune(graph: &Graph, fraction: f64) -> Result<Graph, PruneError> {
    if !(0.0..=0.95).contains(&fraction) {
        return Err(PruneError::BadFraction { fraction });
    }
    let mut b = GraphBuilder::new();
    let mut id_map = vec![0usize; graph.nodes().len()];
    // Channels of each (old) node's output that survive, in order.
    let mut kept: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes().len()];
    let last_dense = graph
        .nodes()
        .iter()
        .rposition(|n| matches!(n.op, Op::Dense { .. }));

    for (id, node) in graph.nodes().iter().enumerate() {
        match &node.op {
            Op::Add { .. } | Op::Concat => {
                return Err(PruneError::NotSequential {
                    node: node.name.clone(),
                })
            }
            _ => {}
        }
        let new_id = match &node.op {
            Op::Input { h, w, c } => {
                kept[id] = (0..*c).collect();
                b.input(*h, *w, *c)
            }
            Op::Conv {
                params,
                weights,
                bias,
            } => {
                let src = node.inputs[0];
                let in_kept = kept[src].clone();
                // Rank output channels by L1 norm.
                let k2ic = params.k * params.k * params.in_ch;
                let mut norms: Vec<(usize, f32)> = (0..params.out_ch)
                    .map(|oc| {
                        (
                            oc,
                            weights[oc * k2ic..(oc + 1) * k2ic]
                                .iter()
                                .map(|w| w.abs())
                                .sum(),
                        )
                    })
                    .collect();
                norms.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                let keep_n = ((params.out_ch as f64) * (1.0 - fraction)).round() as usize;
                let keep_n = keep_n.clamp(1, params.out_ch);
                let mut keep_oc: Vec<usize> = norms[..keep_n].iter().map(|(oc, _)| *oc).collect();
                keep_oc.sort_unstable();
                // Slice weights down to kept output and input channels.
                let new_in = in_kept.len();
                let mut new_w = Vec::with_capacity(keep_oc.len() * params.k * params.k * new_in);
                for &oc in &keep_oc {
                    for ky in 0..params.k {
                        for kx in 0..params.k {
                            let base = oc * k2ic + (ky * params.k + kx) * params.in_ch;
                            for &ic in &in_kept {
                                new_w.push(weights[base + ic]);
                            }
                        }
                    }
                }
                let new_bias: Vec<f32> = keep_oc.iter().map(|&oc| bias[oc]).collect();
                let new_params = ConvParams {
                    in_ch: new_in,
                    out_ch: keep_oc.len(),
                    ..*params
                };
                kept[id] = keep_oc;
                b.conv(&node.name, id_map[src], new_params, new_w, new_bias)
            }
            Op::Dense {
                out_len,
                relu,
                weights,
                bias,
                in_len,
            } => {
                let src = node.inputs[0];
                let src_shape = graph.shape(src);
                let in_kept = kept[src].clone();
                // Column mapping: old flattened index (y*w+x)*c_old + ch.
                let c_old = src_shape.c;
                let mut cols: Vec<usize> = Vec::new();
                for y in 0..src_shape.h {
                    for x in 0..src_shape.w {
                        for &ch in &in_kept {
                            cols.push((y * src_shape.w + x) * c_old + ch);
                        }
                    }
                }
                debug_assert!(cols.len() <= *in_len);
                // Output-unit pruning (skip the classifier).
                let prune_outputs = Some(id) != last_dense;
                let keep_out: Vec<usize> = if prune_outputs {
                    let mut norms: Vec<(usize, f32)> = (0..*out_len)
                        .map(|o| {
                            (
                                o,
                                weights[o * in_len..(o + 1) * in_len]
                                    .iter()
                                    .map(|w| w.abs())
                                    .sum(),
                            )
                        })
                        .collect();
                    norms.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                    let n = (((*out_len) as f64) * (1.0 - fraction)).round() as usize;
                    let mut ks: Vec<usize> = norms[..n.clamp(1, *out_len)]
                        .iter()
                        .map(|(o, _)| *o)
                        .collect();
                    ks.sort_unstable();
                    ks
                } else {
                    (0..*out_len).collect()
                };
                let mut new_w = Vec::with_capacity(keep_out.len() * cols.len());
                for &o in &keep_out {
                    let row = &weights[o * in_len..(o + 1) * in_len];
                    for &c in &cols {
                        new_w.push(row[c]);
                    }
                }
                let new_bias: Vec<f32> = keep_out.iter().map(|&o| bias[o]).collect();
                kept[id] = (0..keep_out.len()).collect();
                let out_n = keep_out.len();
                b.dense(&node.name, id_map[src], out_n, *relu, new_w, new_bias)
            }
            Op::MaxPool { k, stride } => {
                kept[id] = kept[node.inputs[0]].clone();
                b.max_pool(&node.name, id_map[node.inputs[0]], *k, *stride)
            }
            Op::AvgPool { k, stride } => {
                kept[id] = kept[node.inputs[0]].clone();
                b.avg_pool(&node.name, id_map[node.inputs[0]], *k, *stride)
            }
            Op::GlobalAvgPool => {
                kept[id] = (0..kept[node.inputs[0]].len()).collect();
                b.global_avg_pool(&node.name, id_map[node.inputs[0]])
            }
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                ..
            } => {
                let ks = kept[node.inputs[0]].clone();
                let pick = |v: &[f32]| ks.iter().map(|&c| v[c]).collect::<Vec<f32>>();
                let (g, be, m, vv) = (pick(gamma), pick(beta), pick(mean), pick(var));
                kept[id] = (0..ks.len()).collect();
                b.batch_norm(&node.name, id_map[node.inputs[0]], g, be, m, vv)
            }
            Op::Softmax => {
                kept[id] = kept[node.inputs[0]].clone();
                b.softmax(&node.name, id_map[node.inputs[0]])
            }
            Op::Add { .. } | Op::Concat => unreachable!("rejected above"),
        };
        id_map[id] = new_id;
    }
    Ok(b.finish(id_map[graph.output_id()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ModelKind, ModelScale};
    use crate::tensor::Tensor;

    fn vgg() -> Graph {
        ModelKind::VggNet.build(ModelScale::Tiny)
    }

    fn img() -> Tensor {
        Tensor::from_vec(
            32,
            32,
            3,
            (0..3072).map(|i| ((i as f32) * 0.01).sin()).collect(),
        )
    }

    #[test]
    fn channel_prune_reduces_macs_and_params() {
        let g = vgg();
        let p = channel_prune(&g, 0.5).unwrap();
        assert!(
            p.mac_count() < g.mac_count() / 2,
            "{} vs {}",
            p.mac_count(),
            g.mac_count()
        );
        assert!(p.param_count() < g.param_count() / 2);
        // Classifier outputs preserved.
        assert_eq!(p.num_classes(), 10);
        let out = p.forward(&img()).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn channel_prune_zero_fraction_preserves_function() {
        let g = vgg();
        let p = channel_prune(&g, 0.0).unwrap();
        let a = g.forward(&img()).unwrap();
        let b = p.forward(&img()).unwrap();
        for (u, v) in a.data().iter().zip(b.data()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn channel_prune_rejects_dag_models() {
        let g = ModelKind::ResNet50.build(ModelScale::Tiny);
        assert!(matches!(
            channel_prune(&g, 0.3),
            Err(PruneError::NotSequential { .. })
        ));
    }

    #[test]
    fn channel_prune_rejects_bad_fraction() {
        let g = vgg();
        assert!(matches!(
            channel_prune(&g, 0.99),
            Err(PruneError::BadFraction { .. })
        ));
    }

    #[test]
    fn pruned_alexnet_also_works() {
        // AlexNet is the other sequential model.
        let g = ModelKind::AlexNet.build(ModelScale::Tiny);
        let p = channel_prune(&g, 0.4).unwrap();
        assert!(p.mac_count() < g.mac_count());
        assert_eq!(p.num_classes(), 2);
    }
}
