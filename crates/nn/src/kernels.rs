//! Optimized inference kernels: im2col + register/cache-blocked GEMM.
//!
//! Two regimes, two contracts:
//!
//! * **Float kernels** must be *bit-identical* to
//!   [`crate::reference::conv2d_f32`] / [`crate::reference::dense_f32`].
//!   `f32` addition is non-associative, so the optimized code reproduces
//!   the reference accumulation order exactly — per `(ky, kx)` kernel row
//!   a partial sum is folded sequentially from `0.0` over the channel
//!   chunk and then added to the bias-initialized accumulator, with
//!   out-of-bounds rows skipped (never zero-padded: `-0.0 + 0.0`
//!   normalizes the sign bit, which a skip does not). Speed comes from
//!   hoisting bounds checks out of the hot loops, gathering each output
//!   pixel's valid chunks into a contiguous im2col panel once, and
//!   running four output channels as independent accumulation chains so
//!   the sequential floating-point folds overlap in the pipeline.
//!
//! * **Integer kernels** accumulate `i8 × i8` products in `i32`, which is
//!   associative (wrapping arithmetic forms a group), so they are free to
//!   reorder: a zero-padded im2col panel is built for a tile of output
//!   pixels and multiplied as a cache-blocked GEMM — four output channels
//!   advance together so every panel load is reused across four weight
//!   rows, and the full `k·k·ic` dot product vectorizes cleanly. On
//!   x86-64 the GEMM microkernel is additionally compiled for AVX2 and
//!   selected by runtime feature detection; integer arithmetic is exact,
//!   so both code paths produce identical accumulators.
//!
//! * **Batched float kernels** serve the readout trainer
//!   ([`crate::train`]), whose fit set stays the same for every epoch.
//!   [`dense_f32_batch_into`] computes the logits `Z = X·Wᵀ + b` of the
//!   whole set and [`dense_weight_grad_f32_into`] the weight gradient
//!   `G = Eᵀ·X`. Both keep the float contract: each logit folds from
//!   `0.0` over the features and adds the bias last, exactly as
//!   [`crate::reference::dense_f32`] does, and each gradient element
//!   folds from `0.0` over the samples in order. Speed comes from
//!   batching, not reordering: sixteen samples' logits advance as
//!   independent chains over a feature-major copy of the set, and a
//!   four-output × eight-feature gradient tile stays in registers for
//!   the whole pass over the samples. Rust never contracts `a * b + c`
//!   into a fused multiply-add, so the vectorized folds round exactly
//!   as the scalar ones.
//!
//! * **The rounding pass** [`round_codes_into`] turns every staged
//!   activation value of the quantized executor into a code,
//!   `v.round().clamp(lo, hi) as i8`. It is exact by construction: the
//!   body spells `f32::round`, and like the GEMM it is compiled a second
//!   time with AVX2, where the rounding vectorizes, and picked at run time.
//!
//! All inference `_into` variants write into caller-provided buffers and
//! borrow their temporaries from a [`Scratch`] arena, so a warmed-up
//! executor performs no per-inference allocations.

use crate::graph::ConvParams;
use crate::tensor::{QTensor, Tensor};
use redvolt_num::fixed::IntFormat;

/// Output-pixel tile width of the integer GEMM: the weight row fetched
/// for an output channel is reused across this many im2col panel rows
/// while hot in L1.
const QTILE: usize = 8;

/// Reusable kernel workspace (im2col panels and chunk tables). Create
/// once, thread through every kernel call; buffers grow to the largest
/// layer seen and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// f32 im2col panel: the valid input chunks of one output pixel.
    panel_f: Vec<f32>,
    /// Weight-row offsets of the valid chunks in `panel_f`.
    chunk_offs: Vec<usize>,
    /// i8 im2col panel: `QTILE` zero-padded rows of `k·k·ic` codes.
    panel_q: Vec<i8>,
}

impl Scratch {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Optimized float convolution writing into `out` (length `oh·ow·out_ch`).
///
/// Bit-identical to [`crate::reference::conv2d_f32`].
///
/// # Panics
///
/// Panics if a buffer length does not match the parameters.
pub fn conv2d_f32_into(
    input: &Tensor,
    p: &ConvParams,
    weights: &[f32],
    bias: &[f32],
    scratch: &mut Scratch,
    out: &mut [f32],
) {
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    assert_eq!(out.len(), oh * ow * p.out_ch, "output buffer length");
    assert_eq!(weights.len(), p.weight_count(), "weights length");
    assert_eq!(bias.len(), p.out_ch, "bias length");
    let data = input.data();
    let k2ic = p.k * p.k * ic;
    scratch.panel_f.resize(k2ic, 0.0);
    for oy in 0..oh {
        let base_y = (oy * p.stride) as isize - p.pad as isize;
        for ox in 0..ow {
            let base_x = (ox * p.stride) as isize - p.pad as isize;
            // im2col gather: copy this pixel's in-bounds chunks into one
            // contiguous panel row, remembering each chunk's offset into
            // the weight row. Chunks keep the reference's (ky, kx) order.
            scratch.chunk_offs.clear();
            let mut filled = 0usize;
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
                    scratch.panel_f[filled..filled + ic]
                        .copy_from_slice(&data[in_off..in_off + ic]);
                    scratch.chunk_offs.push((ky * p.k + kx) * ic);
                    filled += ic;
                }
            }
            let panel = &scratch.panel_f[..filled];
            let chunks = &scratch.chunk_offs[..];
            let outs = &mut out[(oy * ow + ox) * p.out_ch..][..p.out_ch];
            // Register-blocked GEMV: four output channels advance four
            // independent accumulation chains over the shared panel, each
            // chain replaying the reference op sequence exactly.
            let mut oc = 0;
            while oc + 4 <= p.out_ch {
                let w0 = &weights[oc * k2ic..][..k2ic];
                let w1 = &weights[(oc + 1) * k2ic..][..k2ic];
                let w2 = &weights[(oc + 2) * k2ic..][..k2ic];
                let w3 = &weights[(oc + 3) * k2ic..][..k2ic];
                let (mut a0, mut a1, mut a2, mut a3) =
                    (bias[oc], bias[oc + 1], bias[oc + 2], bias[oc + 3]);
                for (ci, &woff) in chunks.iter().enumerate() {
                    let xs = &panel[ci * ic..][..ic];
                    let (mut p0, mut p1, mut p2, mut p3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                    let ws0 = &w0[woff..][..ic];
                    let ws1 = &w1[woff..][..ic];
                    let ws2 = &w2[woff..][..ic];
                    let ws3 = &w3[woff..][..ic];
                    for ((((&x, &v0), &v1), &v2), &v3) in
                        xs.iter().zip(ws0).zip(ws1).zip(ws2).zip(ws3)
                    {
                        p0 += x * v0;
                        p1 += x * v1;
                        p2 += x * v2;
                        p3 += x * v3;
                    }
                    a0 += p0;
                    a1 += p1;
                    a2 += p2;
                    a3 += p3;
                }
                if p.relu {
                    a0 = a0.max(0.0);
                    a1 = a1.max(0.0);
                    a2 = a2.max(0.0);
                    a3 = a3.max(0.0);
                }
                outs[oc] = a0;
                outs[oc + 1] = a1;
                outs[oc + 2] = a2;
                outs[oc + 3] = a3;
                oc += 4;
            }
            while oc < p.out_ch {
                let w0 = &weights[oc * k2ic..][..k2ic];
                let mut a0 = bias[oc];
                for (ci, &woff) in chunks.iter().enumerate() {
                    let xs = &panel[ci * ic..][..ic];
                    let ws0 = &w0[woff..][..ic];
                    let mut p0 = 0.0f32;
                    for (&x, &v0) in xs.iter().zip(ws0) {
                        p0 += x * v0;
                    }
                    a0 += p0;
                }
                outs[oc] = if p.relu { a0.max(0.0) } else { a0 };
                oc += 1;
            }
        }
    }
}

/// Optimized float convolution returning a fresh tensor (convenience
/// wrapper over [`conv2d_f32_into`], signature-compatible with
/// [`crate::reference::conv2d_f32`]).
pub fn conv2d_f32(input: &Tensor, p: &ConvParams, weights: &[f32], bias: &[f32]) -> Tensor {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    let mut out = Tensor::zeros(oh, ow, p.out_ch);
    let mut scratch = Scratch::new();
    conv2d_f32_into(input, p, weights, bias, &mut scratch, out.data_mut());
    out
}

/// Optimized float dense layer writing into `out` (length `out_len`).
///
/// Bit-identical to [`crate::reference::dense_f32`]: each output's dot
/// product folds sequentially from `0.0` and is added to the bias, with
/// four outputs advancing as independent chains.
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn dense_f32_into(
    input: &[f32],
    out_len: usize,
    relu: bool,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let n = input.len();
    assert_eq!(weights.len(), n * out_len, "weights length");
    assert_eq!(bias.len(), out_len, "bias length");
    assert_eq!(out.len(), out_len, "output buffer length");
    let mut o = 0;
    while o + 4 <= out_len {
        let w0 = &weights[o * n..][..n];
        let w1 = &weights[(o + 1) * n..][..n];
        let w2 = &weights[(o + 2) * n..][..n];
        let w3 = &weights[(o + 3) * n..][..n];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for ((((&x, &v0), &v1), &v2), &v3) in input.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
            s0 += x * v0;
            s1 += x * v1;
            s2 += x * v2;
            s3 += x * v3;
        }
        let (mut a0, mut a1, mut a2, mut a3) = (
            bias[o] + s0,
            bias[o + 1] + s1,
            bias[o + 2] + s2,
            bias[o + 3] + s3,
        );
        if relu {
            a0 = a0.max(0.0);
            a1 = a1.max(0.0);
            a2 = a2.max(0.0);
            a3 = a3.max(0.0);
        }
        out[o] = a0;
        out[o + 1] = a1;
        out[o + 2] = a2;
        out[o + 3] = a3;
        o += 4;
    }
    while o < out_len {
        let ws = &weights[o * n..][..n];
        let mut s = 0.0f32;
        for (&x, &w) in input.iter().zip(ws) {
            s += x * w;
        }
        let a = bias[o] + s;
        out[o] = if relu { a.max(0.0) } else { a };
        o += 1;
    }
}

/// Optimized float dense layer returning a fresh tensor.
pub fn dense_f32(
    input: &Tensor,
    out_len: usize,
    relu: bool,
    weights: &[f32],
    bias: &[f32],
) -> Tensor {
    let mut out = vec![0.0f32; out_len];
    dense_f32_into(input.data(), out_len, relu, weights, bias, &mut out);
    Tensor::vector(out)
}

/// Inputs per lane block of [`dense_f32_batch_into`].
const LANES: usize = 16;

/// Optimized batched float dense layer (no ReLU) over `batch` inputs
/// stored feature-major: `inputs_t[i * batch + s]` is feature `i` of
/// input `s`. Writes output `o` of input `s` to `out[s * out_len + o]`,
/// where `out_len = bias.len()`.
///
/// Row `s` of `out` is bit-identical to [`crate::reference::dense_f32`]
/// on input `s`: every output folds from `0.0` over the features in
/// order and adds the bias last. The kernel runs sixteen inputs as
/// independent chains, so the fold vectorizes across inputs rather than
/// along one dot product. Transposing the inputs is the caller's job,
/// done once for a batch that is reused (the trainer's fit set stays
/// the same for every epoch).
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn dense_f32_batch_into(
    inputs_t: &[f32],
    in_len: usize,
    batch: usize,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let out_len = bias.len();
    assert_eq!(inputs_t.len(), in_len * batch, "inputs length");
    assert_eq!(weights.len(), in_len * out_len, "weights length");
    assert_eq!(out.len(), batch * out_len, "output buffer length");
    let mut s0 = 0;
    while s0 + LANES <= batch {
        dense_lane_block(
            &inputs_t[s0..],
            batch,
            in_len,
            weights,
            bias,
            &mut out[s0 * out_len..][..LANES * out_len],
        );
        s0 += LANES;
    }
    if s0 < batch {
        // Zero-pad the ragged tail into one full lane block; the padded
        // lanes' outputs are computed and dropped.
        let rows = batch - s0;
        let mut panel = vec![0.0f32; in_len * LANES];
        for (i, lanes) in panel.chunks_exact_mut(LANES).enumerate() {
            lanes[..rows].copy_from_slice(&inputs_t[i * batch + s0..][..rows]);
        }
        dense_lane_block(
            &panel,
            LANES,
            in_len,
            weights,
            bias,
            &mut out[s0 * out_len..],
        );
    }
}

/// One lane block: up to [`LANES`] inputs whose feature `i` sits at
/// `inputs_t[i * stride..][..LANES]`; writes `out.len() / out_len` rows.
/// One output at a time: its [`LANES`] chains are enough independent
/// adds to hide the add latency.
#[inline(always)]
fn dense_lane_block(
    inputs_t: &[f32],
    stride: usize,
    in_len: usize,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let out_len = bias.len();
    for o in 0..out_len {
        let row = &weights[o * in_len..][..in_len];
        let mut acc = [0.0f32; LANES];
        for (i, &w) in row.iter().enumerate() {
            let xs = &inputs_t[i * stride..][..LANES];
            for (a, &x) in acc.iter_mut().zip(xs) {
                *a += x * w;
            }
        }
        for (outs, &a) in out.chunks_exact_mut(out_len).zip(&acc) {
            outs[o] = bias[o] + a;
        }
    }
}

/// Outputs per register tile of [`dense_weight_grad_f32_into`].
const GRAD_TILE_OUT: usize = 4;

/// Features per register tile of [`dense_weight_grad_f32_into`].
const GRAD_TILE_IN: usize = 8;

/// Weight gradient of a batched dense layer:
/// `grad[o * in_len + i] = Σ_s err[s * out_len + o] · inputs[s * in_len + i]`
/// over `batch` sample-major inputs and output errors.
///
/// Each element folds from `0.0` over the inputs in order, exactly as
/// accumulating `err · x` one input at a time would. Tiles of four
/// outputs × eight features keep their accumulators in registers for
/// the whole pass over the inputs.
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn dense_weight_grad_f32_into(
    inputs: &[f32],
    in_len: usize,
    err: &[f32],
    out_len: usize,
    batch: usize,
    grad: &mut [f32],
) {
    assert_eq!(inputs.len(), batch * in_len, "inputs length");
    assert_eq!(err.len(), batch * out_len, "error length");
    assert_eq!(grad.len(), out_len * in_len, "gradient buffer length");
    let mut o = 0;
    while o + GRAD_TILE_OUT <= out_len {
        grad_rows::<GRAD_TILE_OUT>(inputs, in_len, err, out_len, o, grad);
        o += GRAD_TILE_OUT;
    }
    while o < out_len {
        grad_rows::<1>(inputs, in_len, err, out_len, o, grad);
        o += 1;
    }
}

/// Gradient rows `o..o + C`, tile by tile along the features.
#[inline(always)]
fn grad_rows<const C: usize>(
    inputs: &[f32],
    in_len: usize,
    err: &[f32],
    out_len: usize,
    o: usize,
    grad: &mut [f32],
) {
    let mut i = 0;
    while i + GRAD_TILE_IN <= in_len {
        grad_tile::<C, GRAD_TILE_IN>(inputs, in_len, err, out_len, o, i, grad);
        i += GRAD_TILE_IN;
    }
    while i < in_len {
        grad_tile::<C, 1>(inputs, in_len, err, out_len, o, i, grad);
        i += 1;
    }
}

/// One `C × F` gradient tile at output `o`, feature `i`.
#[inline(always)]
fn grad_tile<const C: usize, const F: usize>(
    inputs: &[f32],
    in_len: usize,
    err: &[f32],
    out_len: usize,
    o: usize,
    i: usize,
    grad: &mut [f32],
) {
    let mut acc = [[0.0f32; F]; C];
    for (x, e) in inputs.chunks_exact(in_len).zip(err.chunks_exact(out_len)) {
        let xs = &x[i..][..F];
        for (row, &e) in acc.iter_mut().zip(&e[o..][..C]) {
            for (a, &x) in row.iter_mut().zip(xs) {
                *a += e * x;
            }
        }
    }
    for (c, row) in acc.iter().enumerate() {
        grad[(o + c) * in_len + i..][..F].copy_from_slice(row);
    }
}

/// Optimized integer convolution writing raw accumulators into `acc`
/// (length `oh·ow·out_ch`). Produces values identical to
/// [`crate::reference::conv2d_q`] — integer accumulation is associative,
/// so the blocked GEMM reorder is exact.
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn conv2d_q_into(
    input: &QTensor,
    p: &ConvParams,
    wcodes: &[i8],
    bias_q: &[i32],
    scratch: &mut Scratch,
    acc: &mut [i32],
) {
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    assert_eq!(acc.len(), oh * ow * p.out_ch, "accumulator buffer length");
    assert_eq!(wcodes.len(), p.weight_count(), "weights length");
    assert_eq!(bias_q.len(), p.out_ch, "bias length");
    let k2ic = p.k * p.k * ic;
    let pixels = oh * ow;
    scratch.panel_q.resize(QTILE * k2ic, 0);
    let mut tile_start = 0usize;
    while tile_start < pixels {
        let tile = QTILE.min(pixels - tile_start);
        // Zero-padded im2col: out-of-bounds taps contribute exact zeros
        // in integer arithmetic, so every panel row has the full k·k·ic
        // layout of a weight row.
        for row in 0..tile {
            let pixel = tile_start + row;
            let (oy, ox) = (pixel / ow, pixel % ow);
            let base_y = (oy * p.stride) as isize - p.pad as isize;
            let base_x = (ox * p.stride) as isize - p.pad as isize;
            let prow = &mut scratch.panel_q[row * k2ic..][..k2ic];
            prow.fill(0);
            for ky in 0..p.k {
                let y = base_y + ky as isize;
                if y < 0 || y >= ih as isize {
                    continue;
                }
                let x_lo = (-base_x).clamp(0, p.k as isize) as usize;
                let x_hi = (iw as isize - base_x).clamp(0, p.k as isize) as usize;
                if x_lo >= x_hi {
                    continue;
                }
                let in_off = ((y as usize) * iw + (base_x + x_lo as isize) as usize) * ic;
                let w_off = (ky * p.k + x_lo) * ic;
                let len = (x_hi - x_lo) * ic;
                prow[w_off..w_off + len].copy_from_slice(&input.codes[in_off..in_off + len]);
            }
        }
        // Cache-blocked GEMM over the tile: weight rows stay hot in L1
        // across the tile's panel rows, four output channels per pass.
        gemm_q_dispatch(
            &scratch.panel_q[..QTILE * k2ic],
            tile,
            k2ic,
            wcodes,
            p.out_ch,
            bias_q,
            &mut acc[tile_start * p.out_ch..][..tile * p.out_ch],
        );
        tile_start += tile;
    }
}

/// The integer GEMM microkernel: `tile` panel rows × `out_ch` weight
/// rows, `acc[row * out_ch + oc] = bias[oc] + panel_row · weight_row`.
///
/// Four output channels advance as interleaved reductions so each panel
/// element is loaded once per four weight rows; integer accumulation is
/// associative, so the autovectorizer is free to widen the chains.
///
/// `#[inline(always)]` so the body inlines into both the baseline and
/// the [`gemm_q_avx2`] wrapper and is compiled at each feature level.
#[inline(always)]
fn gemm_q(
    panel: &[i8],
    tile: usize,
    k2ic: usize,
    wcodes: &[i8],
    out_ch: usize,
    bias_q: &[i32],
    acc: &mut [i32],
) {
    for row in 0..tile {
        let prow = &panel[row * k2ic..][..k2ic];
        let outs = &mut acc[row * out_ch..][..out_ch];
        let mut oc = 0;
        while oc + 4 <= out_ch {
            let w0 = &wcodes[oc * k2ic..][..k2ic];
            let w1 = &wcodes[(oc + 1) * k2ic..][..k2ic];
            let w2 = &wcodes[(oc + 2) * k2ic..][..k2ic];
            let w3 = &wcodes[(oc + 3) * k2ic..][..k2ic];
            let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
            for ((((&x, &v0), &v1), &v2), &v3) in prow.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
                let xw = i32::from(x);
                s0 += xw * i32::from(v0);
                s1 += xw * i32::from(v1);
                s2 += xw * i32::from(v2);
                s3 += xw * i32::from(v3);
            }
            outs[oc] = bias_q[oc] + s0;
            outs[oc + 1] = bias_q[oc + 1] + s1;
            outs[oc + 2] = bias_q[oc + 2] + s2;
            outs[oc + 3] = bias_q[oc + 3] + s3;
            oc += 4;
        }
        while oc < out_ch {
            let ws = &wcodes[oc * k2ic..][..k2ic];
            let mut sum = 0i32;
            for (&x, &w) in prow.iter().zip(ws) {
                sum += i32::from(x) * i32::from(w);
            }
            outs[oc] = bias_q[oc] + sum;
            oc += 1;
        }
    }
}

/// [`gemm_q`] recompiled with AVX2 enabled (256-bit widening multiplies).
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_q_avx2(
    panel: &[i8],
    tile: usize,
    k2ic: usize,
    wcodes: &[i8],
    out_ch: usize,
    bias_q: &[i32],
    acc: &mut [i32],
) {
    gemm_q(panel, tile, k2ic, wcodes, out_ch, bias_q, acc)
}

/// Picks the widest microkernel the CPU supports. The feature probe is a
/// cached atomic load in `std`, so dispatching per tile is free.
fn gemm_q_dispatch(
    panel: &[i8],
    tile: usize,
    k2ic: usize,
    wcodes: &[i8],
    out_ch: usize,
    bias_q: &[i32],
    acc: &mut [i32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { gemm_q_avx2(panel, tile, k2ic, wcodes, out_ch, bias_q, acc) };
    }
    gemm_q(panel, tile, k2ic, wcodes, out_ch, bias_q, acc)
}

/// Rounds staged values to activation codes of `format`:
/// `codes[i] = vals[i].round().clamp(lo, hi) as i8` over the format's
/// code range `lo..=hi`, with halfway cases away from zero and NaN to 0.
///
/// Every activation code of the quantized executor comes from this one
/// pass. Its body spells `f32::round`, so it is exact by construction
/// in both builds: on x86-64's SSE2 baseline that is a call to libm
/// `roundf` per element, while the AVX2 build (chosen by the same
/// runtime detection as the GEMM) lowers it inline to `vroundps` and
/// vectorizes the loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn round_codes_into(vals: &[f32], format: IntFormat, codes: &mut [i8]) {
    assert_eq!(vals.len(), codes.len(), "code buffer length");
    let lo = format.min_value() as f32;
    let hi = format.max_value() as f32;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { round_codes_avx2(vals, lo, hi, codes) };
    }
    round_codes(vals, lo, hi, codes)
}

/// The body of [`round_codes_into`], inlined into both builds.
#[inline(always)]
fn round_codes(vals: &[f32], lo: f32, hi: f32, codes: &mut [i8]) {
    for (code, &v) in codes.iter_mut().zip(vals) {
        *code = v.round().clamp(lo, hi) as i8;
    }
}

/// [`round_codes`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn round_codes_avx2(vals: &[f32], lo: f32, hi: f32, codes: &mut [i8]) {
    round_codes(vals, lo, hi, codes)
}

/// Optimized integer convolution returning fresh accumulators.
pub fn conv2d_q(input: &QTensor, p: &ConvParams, wcodes: &[i8], bias_q: &[i32]) -> Vec<i32> {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    let mut acc = vec![0i32; oh * ow * p.out_ch];
    let mut scratch = Scratch::new();
    conv2d_q_into(input, p, wcodes, bias_q, &mut scratch, &mut acc);
    acc
}

/// Optimized integer dense layer writing raw accumulators into `acc`.
/// Identical values to [`crate::reference::dense_q`].
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn dense_q_into(
    input: &QTensor,
    in_len: usize,
    out_len: usize,
    wcodes: &[i8],
    bias_q: &[i32],
    acc: &mut [i32],
) {
    debug_assert_eq!(input.codes.len(), in_len);
    assert_eq!(wcodes.len(), in_len * out_len, "weights length");
    assert_eq!(bias_q.len(), out_len, "bias length");
    assert_eq!(acc.len(), out_len, "accumulator buffer length");
    // A dense layer is a one-row GEMM: the input vector is the panel.
    gemm_q_dispatch(&input.codes, 1, in_len, wcodes, out_len, bias_q, acc);
}

/// Optimized integer dense layer returning fresh accumulators.
pub fn dense_q(
    input: &QTensor,
    in_len: usize,
    out_len: usize,
    wcodes: &[i8],
    bias_q: &[i32],
) -> Vec<i32> {
    let mut acc = vec![0i32; out_len];
    dense_q_into(input, in_len, out_len, wcodes, bias_q, &mut acc);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use redvolt_num::rng::Xoshiro256StarStar;

    fn tensor(h: usize, w: usize, c: usize, seed: f32) -> Tensor {
        Tensor::from_vec(
            h,
            w,
            c,
            (0..h * w * c)
                .map(|i| ((i as f32 + seed) * 0.37).sin())
                .collect(),
        )
    }

    fn qtensor(h: usize, w: usize, c: usize, seed: i32) -> QTensor {
        let mut q = QTensor::zeros(h, w, c, 0.05);
        for (i, code) in q.codes.iter_mut().enumerate() {
            *code = (((i as i32 * 37 + seed * 11) % 255) - 127) as i8;
        }
        q
    }

    #[test]
    fn conv_f32_matches_reference_bitwise() {
        for (k, stride, pad, in_ch, out_ch) in [
            (3, 1, 1, 3, 7),
            (1, 1, 0, 4, 4),
            (5, 2, 2, 2, 6),
            (3, 2, 0, 1, 5),
        ] {
            let p = ConvParams {
                in_ch,
                out_ch,
                k,
                stride,
                pad,
                relu: k % 2 == 1,
            };
            let input = tensor(7, 6, in_ch, k as f32);
            let weights: Vec<f32> = (0..p.weight_count())
                .map(|i| ((i as f32) * 0.73).cos())
                .collect();
            let bias: Vec<f32> = (0..out_ch).map(|i| (i as f32) * 0.11 - 0.3).collect();
            let want = reference::conv2d_f32(&input, &p, &weights, &bias);
            let got = conv2d_f32(&input, &p, &weights, &bias);
            assert_eq!(
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "k={k} stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn dense_f32_matches_reference_bitwise() {
        for out_len in [1, 3, 4, 9] {
            let input = tensor(1, 1, 17, 0.5);
            let weights: Vec<f32> = (0..17 * out_len)
                .map(|i| ((i as f32) * 0.31).sin())
                .collect();
            let bias: Vec<f32> = (0..out_len).map(|i| (i as f32) * 0.2 - 0.4).collect();
            let want = reference::dense_f32(&input, out_len, out_len % 2 == 0, &weights, &bias);
            let got = dense_f32(&input, out_len, out_len % 2 == 0, &weights, &bias);
            assert_eq!(
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn conv_q_matches_reference() {
        for (k, stride, pad, in_ch, out_ch) in [
            (3, 1, 1, 3, 7),
            (1, 1, 0, 4, 4),
            (5, 2, 2, 2, 6),
            (3, 3, 0, 1, 5),
        ] {
            let p = ConvParams {
                in_ch,
                out_ch,
                k,
                stride,
                pad,
                relu: false,
            };
            let input = qtensor(7, 9, in_ch, k as i32);
            let wcodes: Vec<i8> = (0..p.weight_count())
                .map(|i| (((i * 29) % 255) as i32 - 127) as i8)
                .collect();
            let bias_q: Vec<i32> = (0..out_ch).map(|i| i as i32 * 100 - 250).collect();
            assert_eq!(
                reference::conv2d_q(&input, &p, &wcodes, &bias_q),
                conv2d_q(&input, &p, &wcodes, &bias_q),
                "k={k} stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn dense_q_matches_reference() {
        let input = qtensor(1, 1, 23, 3);
        let wcodes: Vec<i8> = (0..23 * 5)
            .map(|i| (((i * 17) % 255) - 127) as i8)
            .collect();
        let bias_q: Vec<i32> = vec![5, -7, 0, 999, -12345];
        assert_eq!(
            reference::dense_q(&input, 23, 5, &wcodes, &bias_q),
            dense_q(&input, 23, 5, &wcodes, &bias_q)
        );
    }

    /// Runs each build of the rounding pass the CPU supports over `vals`
    /// and checks every code against the scalar spelling
    /// `v.round().clamp(lo, hi) as i8`.
    fn check_round_codes(vals: &[f32], format: IntFormat) {
        let (lo, hi) = (format.min_value() as f32, format.max_value() as f32);
        let want: Vec<i8> = vals.iter().map(|v| v.round().clamp(lo, hi) as i8).collect();
        let check = |build: &str, codes: &[i8]| {
            if let Some(i) = (0..vals.len()).find(|&i| codes[i] != want[i]) {
                panic!(
                    "{build} build, INT{}: input {:e} (bits {:#010x}) gave {}, want {}",
                    format.bits(),
                    vals[i],
                    vals[i].to_bits(),
                    codes[i],
                    want[i]
                );
            }
        };
        let mut codes = vec![0i8; vals.len()];
        round_codes(vals, lo, hi, &mut codes);
        check("plain", &codes);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            codes.fill(0);
            // SAFETY: AVX2 support was just verified.
            unsafe { round_codes_avx2(vals, lo, hi, &mut codes) };
            check("AVX2", &codes);
        }
    }

    #[test]
    fn round_codes_is_exact_at_ties_edges_and_specials() {
        let mut rng = Xoshiro256StarStar::seed_from(17);
        let random_bits: Vec<f32> = (0..1 << 16)
            .map(|_| f32::from_bits(rng.next_u64() as u32))
            .collect();
        let specials = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for bits in 4..=8 {
            let format = IntFormat::new(bits).expect("bits in 1..=8");
            let mut vals = specials.to_vec();
            for k in format.min_value() - 2..=format.max_value() + 2 {
                for half in [k as f32 - 0.5, k as f32 + 0.5] {
                    vals.extend([half.next_down(), half, half.next_up()]);
                }
            }
            vals.extend(&random_bits);
            check_round_codes(&vals, format);
            // One value at a time runs only the loops' scalar tails.
            for v in &vals[..vals.len() - random_bits.len()] {
                check_round_codes(std::slice::from_ref(v), format);
            }
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns; run in release with --ignored"]
    fn round_codes_is_exact_on_every_f32() {
        const CHUNK: u64 = 1 << 16;
        let chunks = (1u64 << 32) / CHUNK;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        std::thread::scope(|scope| {
            for first in 0..threads {
                scope.spawn(move || {
                    let mut vals = vec![0.0f32; CHUNK as usize];
                    for chunk in (first..chunks).step_by(threads as usize) {
                        for (j, v) in (chunk * CHUNK..).zip(vals.iter_mut()) {
                            *v = f32::from_bits(j as u32);
                        }
                        for bits in [8, 4] {
                            check_round_codes(&vals, IntFormat::new(bits).expect("valid width"));
                        }
                    }
                });
            }
        });
    }
}
