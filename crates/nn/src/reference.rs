//! The naive reference kernels and readout trainer.
//!
//! These are the original triple-loop implementations the float and
//! quantized executors shipped with before the im2col + blocked-GEMM
//! rework in [`crate::kernels`], plus the per-sample softmax-regression
//! trainer [`crate::train`] shipped with before its epochs became two
//! batched products. They are kept as the *semantic ground truth*: the
//! differential test suite (`crates/nn/tests/kernels.rs`) asserts the
//! optimized kernels are bit-identical to these across randomized shapes,
//! that the optimized trainer leaves bit-identical weights and biases,
//! and that whole quantized models give the same logits on either set
//! (`QuantizedGraph::set_reference_kernels`).
//!
//! Bit-identity is a strong contract for the float kernels: `f32`
//! addition is not associative, so the optimized implementations must
//! reproduce this module's exact accumulation order (per `(ky, kx)` row:
//! a partial sum folded from `+0.0` over the channel chunk, then added to
//! the bias-initialized accumulator, skipping out-of-bounds rows). The
//! folds are spelled out because `Iterator::sum` for `f32` starts at
//! `-0.0`, which keeps the sign of an all-`-0.0` sum that a `+0.0` start
//! drops. The integer kernels accumulate in `i32`, which *is*
//! associative, so the optimized variants are free to reorder and block
//! those sums.

use crate::graph::ConvParams;
use crate::tensor::{QTensor, Tensor};

/// Naive direct convolution, float path.
pub fn conv2d_f32(input: &Tensor, p: &ConvParams, weights: &[f32], bias: &[f32]) -> Tensor {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    let mut out = Tensor::zeros(oh, ow, p.out_ch);
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let data = input.data();
    let k2ic = p.k * p.k * ic;
    for oy in 0..oh {
        for ox in 0..ow {
            let base_y = (oy * p.stride) as isize - p.pad as isize;
            let base_x = (ox * p.stride) as isize - p.pad as isize;
            #[allow(clippy::needless_range_loop)] // oc also strides the weight base
            for oc in 0..p.out_ch {
                let wbase = oc * k2ic;
                let mut acc = bias[oc];
                for ky in 0..p.k {
                    let y = base_y + ky as isize;
                    if y < 0 || y >= ih as isize {
                        continue;
                    }
                    for kx in 0..p.k {
                        let x = base_x + kx as isize;
                        if x < 0 || x >= iw as isize {
                            continue;
                        }
                        let in_off = ((y as usize) * iw + x as usize) * ic;
                        let w_off = wbase + (ky * p.k + kx) * ic;
                        let xs = &data[in_off..in_off + ic];
                        let ws = &weights[w_off..w_off + ic];
                        acc += xs.iter().zip(ws).fold(0.0, |s, (a, b)| s + a * b);
                    }
                }
                out.set(oy, ox, oc, if p.relu { acc.max(0.0) } else { acc });
            }
        }
    }
    out
}

/// Naive dense layer, float path.
pub fn dense_f32(
    input: &Tensor,
    out_len: usize,
    relu: bool,
    weights: &[f32],
    bias: &[f32],
) -> Tensor {
    let x = input.data();
    let n = x.len();
    let mut out = vec![0.0f32; out_len];
    for (o, out_v) in out.iter_mut().enumerate() {
        let ws = &weights[o * n..(o + 1) * n];
        let mut acc = bias[o];
        acc += x.iter().zip(ws).fold(0.0, |s, (a, b)| s + a * b);
        *out_v = if relu { acc.max(0.0) } else { acc };
    }
    Tensor::vector(out)
}

/// Naive direct convolution, quantized path (`i8` operands, `i32`
/// accumulators).
pub fn conv2d_q(input: &QTensor, p: &ConvParams, wcodes: &[i8], bias_q: &[i32]) -> Vec<i32> {
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    let mut acc = vec![0i32; oh * ow * p.out_ch];
    let k2ic = p.k * p.k * ic;
    for oy in 0..oh {
        for ox in 0..ow {
            let base_y = (oy * p.stride) as isize - p.pad as isize;
            let base_x = (ox * p.stride) as isize - p.pad as isize;
            let out_off = (oy * ow + ox) * p.out_ch;
            for oc in 0..p.out_ch {
                let wbase = oc * k2ic;
                let mut sum = bias_q[oc];
                for ky in 0..p.k {
                    let y = base_y + ky as isize;
                    if y < 0 || y >= ih as isize {
                        continue;
                    }
                    for kx in 0..p.k {
                        let x = base_x + kx as isize;
                        if x < 0 || x >= iw as isize {
                            continue;
                        }
                        let in_off = ((y as usize) * iw + x as usize) * ic;
                        let w_off = wbase + (ky * p.k + kx) * ic;
                        let xs = &input.codes[in_off..in_off + ic];
                        let ws = &wcodes[w_off..w_off + ic];
                        sum += xs
                            .iter()
                            .zip(ws)
                            .map(|(&a, &b)| i32::from(a) * i32::from(b))
                            .sum::<i32>();
                    }
                }
                acc[out_off + oc] = sum;
            }
        }
    }
    acc
}

/// Naive dense layer, quantized path.
pub fn dense_q(
    input: &QTensor,
    in_len: usize,
    out_len: usize,
    wcodes: &[i8],
    bias_q: &[i32],
) -> Vec<i32> {
    debug_assert_eq!(input.codes.len(), in_len);
    let mut acc = vec![0i32; out_len];
    for (o, a) in acc.iter_mut().enumerate() {
        let ws = &wcodes[o * in_len..(o + 1) * in_len];
        *a = bias_q[o]
            + input
                .codes
                .iter()
                .zip(ws)
                .map(|(&x, &w)| i32::from(x) * i32::from(w))
                .sum::<i32>();
    }
    acc
}

/// Naive softmax-regression trainer: the per-sample loop whose weights
/// and biases [`crate::train::fit_softmax_regression`] must match bit
/// for bit.
///
/// Each logit's dot product is an `Iterator::sum`, which folds from
/// `-0.0`; the optimized trainer folds from `+0.0`. That can flip the
/// sign of a zero logit, but `exp(z - m)` is the same for either zero,
/// so the sign never reaches the parameters.
///
/// # Panics
///
/// Panics if buffer sizes disagree or a label is out of range.
#[allow(clippy::too_many_arguments)] // full training-problem description
pub fn fit_softmax_regression(
    features: &[Vec<f32>],
    labels: &[usize],
    dim: usize,
    classes: usize,
    weights: &mut [f32],
    bias: &mut [f32],
    epochs: usize,
    learning_rate: f32,
) {
    assert_eq!(features.len(), labels.len(), "features/labels mismatch");
    assert_eq!(weights.len(), dim * classes, "weight buffer size");
    assert_eq!(bias.len(), classes, "bias buffer size");
    for f in features {
        assert_eq!(f.len(), dim, "feature dimension");
    }
    for &label in labels {
        assert!(label < classes, "label {label} out of range");
    }
    if features.is_empty() {
        return;
    }
    let n = features.len() as f32;
    let decay = 1e-5f32;
    for _ in 0..epochs {
        let mut grad_w = vec![0.0f32; weights.len()];
        let mut grad_b = vec![0.0f32; classes];
        for (f, &label) in features.iter().zip(labels) {
            let mut logits = vec![0.0f32; classes];
            for (k, l) in logits.iter_mut().enumerate() {
                let row = &weights[k * dim..(k + 1) * dim];
                *l = bias[k] + f.iter().zip(row).map(|(a, b)| a * b).sum::<f32>();
            }
            let m = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let exps: Vec<f32> = logits.iter().map(|&z| (z - m).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for k in 0..classes {
                let p = exps[k] / sum;
                let err = p - if k == label { 1.0 } else { 0.0 };
                grad_b[k] += err;
                let gw = &mut grad_w[k * dim..(k + 1) * dim];
                for (g, &x) in gw.iter_mut().zip(f) {
                    *g += err * x;
                }
            }
        }
        for (w, g) in weights.iter_mut().zip(&grad_w) {
            *w -= learning_rate * (g / n + decay * *w);
        }
        for (b, g) in bias.iter_mut().zip(&grad_b) {
            *b -= learning_rate * g / n;
        }
    }
}
