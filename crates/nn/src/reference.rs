//! The naive reference kernels.
//!
//! These are the original triple-loop implementations the float and
//! quantized executors shipped with before the im2col + blocked-GEMM
//! rework in [`crate::kernels`]. They are kept — unchanged — as the
//! *semantic ground truth*: the differential test suite
//! (`crates/nn/tests/kernels.rs`) asserts the optimized kernels are
//! bit-identical to these across randomized shapes, and that whole
//! quantized models give the same logits on either set
//! (`QuantizedGraph::set_reference_kernels`).
//!
//! Bit-identity is a strong contract for the float kernels: `f32`
//! addition is not associative, so the optimized implementations must
//! reproduce this module's exact accumulation order (per `(ky, kx)` row:
//! a partial sum folded from `0.0` over the channel chunk, then added to
//! the bias-initialized accumulator, skipping out-of-bounds rows). The
//! integer kernels accumulate in `i32`, which *is* associative, so the
//! optimized variants are free to reorder and block those sums.

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
                        acc += xs.iter().zip(ws).map(|(a, b)| a * b).sum::<f32>();
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
        acc += x.iter().zip(ws).map(|(a, b)| a * b).sum::<f32>();
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
