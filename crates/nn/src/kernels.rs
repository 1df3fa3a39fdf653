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
//!   reorder. A conv or dense layer's weights are packed once, at quantize
//!   time, into a [`PackedQ`]: blocks of 16 output channels in which each
//!   reduction pair `(2p, 2p + 1)` holds the block's 16 channels' two codes
//!   interleaved, with zeros past `out_ch` and past the reduction length
//!   K. A tile of output pixels becomes a zero-padded im2col panel of
//!   sign-extended `i16` codes, K padded to even, and the GEMM microkernel
//!   vectorizes across output channels rather than along K: per pair it
//!   broadcasts each panel row's two codes and multiply-adds them against
//!   a whole block, so even ResNet50's short 1×1 reductions (K = 8) fill
//!   every lane. There are two builds over the one layout, picked by
//!   runtime feature detection: AVX2 `std::arch` intrinsics (`vpmovsxbw`,
//!   `vpbroadcastd`, `vpmaddwd`, `vpaddd`; 4 rows × 16 channels of
//!   accumulators) and a plain-Rust body elsewhere. Both are exact: a pair
//!   sum of two sign-extended `i8` products is at most 2·128·128 = 32768
//!   in magnitude, which fits `i32`, so `vpmaddwd`'s one wrapping case
//!   (−32768 × −32768 in both halves) cannot occur, and `vpaddd` wraps like
//!   the release-mode scalar `+`. The accumulators are identical for any
//!   codes, fault-flipped ones included.
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
//!   body spells `f32::round`, and it is compiled a second time with AVX2,
//!   where the rounding vectorizes, and picked at run time like the GEMM.
//!
//! All inference `_into` variants write into caller-provided buffers and
//! borrow their temporaries from a [`Scratch`] arena, so a warmed-up
//! executor performs no per-inference allocations.

use crate::graph::ConvParams;
use crate::tensor::{QTensor, Tensor};
use redvolt_num::fixed::IntFormat;

/// Output-pixel tile width of the integer GEMM: a block of packed weights
/// is reused across this many im2col panel rows while hot in L1.
const QTILE: usize = 8;

/// Output channels per block of [`PackedQ`], the lanes one microkernel
/// pass fills: two AVX2 vectors of eight `i32` accumulators.
const OC_BLOCK: usize = 16;

/// Codes per reduction pair of a [`PackedQ`] block: every channel's two.
const PAIR_CODES: usize = 2 * OC_BLOCK;

/// Reusable kernel workspace (im2col panels and chunk tables). Create
/// once, thread through every kernel call; buffers grow to the largest
/// layer seen and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// f32 im2col panel: the valid input chunks of one output pixel.
    panel_f: Vec<f32>,
    /// Weight-row offsets of the valid chunks in `panel_f`.
    chunk_offs: Vec<usize>,
    /// Integer im2col panel: up to `QTILE` rows of `k·k·ic` sign-extended
    /// codes, zero-padded to the packed weights' even width.
    panel_q: Vec<i16>,
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

/// The integer weights of a conv or dense layer, packed for the GEMM
/// microkernel.
///
/// Logically they are `out_ch` rows of `depth` codes (the reduction
/// length K), in the natural order `oc · depth + i` of
/// [`crate::reference::conv2d_q`] and [`crate::reference::dense_q`].
/// Stored, the rows are grouped into blocks of 16 output channels, and
/// within a block each reduction pair `(2p, 2p + 1)` holds the 16
/// channels' two codes interleaved, so one 32-byte load feeds the whole
/// block for one pair. Codes past `out_ch` and past `depth` are zero.
/// The layout stays private: callers address codes by natural index.
#[derive(Debug, Default)]
pub struct PackedQ {
    out_ch: usize,
    depth: usize,
    codes: Vec<i8>,
}

impl Clone for PackedQ {
    fn clone(&self) -> Self {
        PackedQ {
            out_ch: self.out_ch,
            depth: self.depth,
            codes: self.codes.clone(),
        }
    }

    /// Reuses `self`'s buffer, so staging a faulted copy into a warm
    /// arena allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.out_ch = source.out_ch;
        self.depth = source.depth;
        self.codes.clone_from(&source.codes);
    }
}

impl PackedQ {
    /// Packs `out_ch` rows of `depth` codes given in natural order.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out_ch · depth`.
    pub fn pack(codes: &[i8], out_ch: usize, depth: usize) -> PackedQ {
        assert_eq!(codes.len(), out_ch * depth, "weight codes length");
        let mut packed = PackedQ {
            out_ch,
            depth,
            codes: vec![0; out_ch.div_ceil(OC_BLOCK) * depth.div_ceil(2) * PAIR_CODES],
        };
        for (index, &code) in codes.iter().enumerate() {
            let at = packed.position(index);
            packed.codes[at] = code;
        }
        packed
    }

    /// Output channels: the rows.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Reduction length K: the codes per row.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Logical code count `out_ch · depth`, the length fault plans index.
    pub fn len(&self) -> usize {
        self.out_ch * self.depth
    }

    /// Whether there are no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The code at natural index `oc · depth + i`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn code_mut(&mut self, index: usize) -> &mut i8 {
        let at = self.position(index);
        &mut self.codes[at]
    }

    /// Every code, in natural order.
    pub fn unpack(&self) -> Vec<i8> {
        (0..self.len())
            .map(|i| self.codes[self.position(i)])
            .collect()
    }

    /// Reduction pairs per block: `depth` rounded up to even, halved.
    fn pairs(&self) -> usize {
        self.depth.div_ceil(2)
    }

    /// Codes per row of an im2col panel this layer multiplies: `depth`
    /// rounded up to even.
    fn panel_width(&self) -> usize {
        2 * self.pairs()
    }

    /// The packed position of natural index `oc · depth + i`.
    fn position(&self, index: usize) -> usize {
        assert!(
            index < self.len(),
            "weight index {index} out of range for {} codes",
            self.len()
        );
        let (oc, i) = (index / self.depth, index % self.depth);
        ((oc / OC_BLOCK) * self.pairs() + i / 2) * PAIR_CODES + (oc % OC_BLOCK) * 2 + i % 2
    }
}

/// Optimized integer convolution writing raw accumulators into `acc`
/// (length `oh·ow·out_ch`). Produces values identical to
/// [`crate::reference::conv2d_q`] — integer accumulation is associative,
/// so the blocked GEMM reorder is exact.
///
/// # Panics
///
/// Panics if a buffer length or the packed weights' shape does not match
/// the parameters.
pub fn conv2d_q_into(
    input: &QTensor,
    p: &ConvParams,
    weights: &PackedQ,
    bias_q: &[i32],
    scratch: &mut Scratch,
    acc: &mut [i32],
) {
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    let k2ic = p.k * p.k * ic;
    assert_eq!(acc.len(), oh * ow * p.out_ch, "accumulator buffer length");
    assert_eq!(
        (weights.out_ch, weights.depth),
        (p.out_ch, k2ic),
        "packed weights shape"
    );
    assert_eq!(bias_q.len(), p.out_ch, "bias length");
    let width = weights.panel_width();
    let pixels = oh * ow;
    scratch.panel_q.resize(QTILE * width, 0);
    let mut tile_start = 0usize;
    while tile_start < pixels {
        let tile = QTILE.min(pixels - tile_start);
        // Zero-padded im2col of sign-extended codes: out-of-bounds taps
        // and the pad that makes K even contribute exact zeros, so every
        // panel row has the packed weights' layout.
        for row in 0..tile {
            let pixel = tile_start + row;
            let (oy, ox) = (pixel / ow, pixel % ow);
            let base_y = (oy * p.stride) as isize - p.pad as isize;
            let base_x = (ox * p.stride) as isize - p.pad as isize;
            let prow = &mut scratch.panel_q[row * width..][..width];
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
                for (d, &s) in prow[w_off..][..len]
                    .iter_mut()
                    .zip(&input.codes[in_off..][..len])
                {
                    *d = i16::from(s);
                }
            }
        }
        gemm_packed_dispatch(
            &scratch.panel_q[..tile * width],
            tile,
            weights,
            bias_q,
            &mut acc[tile_start * p.out_ch..][..tile * p.out_ch],
        );
        tile_start += tile;
    }
}

/// Optimized integer convolution returning fresh accumulators, with the
/// weights in natural order like [`crate::reference::conv2d_q`]; packs
/// them on every call.
pub fn conv2d_q(input: &QTensor, p: &ConvParams, wcodes: &[i8], bias_q: &[i32]) -> Vec<i32> {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    let weights = PackedQ::pack(wcodes, p.out_ch, p.k * p.k * input.c());
    let mut acc = vec![0i32; oh * ow * p.out_ch];
    conv2d_q_into(input, p, &weights, bias_q, &mut Scratch::new(), &mut acc);
    acc
}

/// Optimized integer dense layer writing raw accumulators into `acc`.
/// The input length and output count are the packed weights' `depth`
/// and `out_ch`. Identical values to [`crate::reference::dense_q`].
///
/// # Panics
///
/// Panics if a buffer length does not match the packed weights.
pub fn dense_q_into(
    input: &QTensor,
    weights: &PackedQ,
    bias_q: &[i32],
    scratch: &mut Scratch,
    acc: &mut [i32],
) {
    assert_eq!(input.codes.len(), weights.depth, "dense input length");
    assert_eq!(bias_q.len(), weights.out_ch, "bias length");
    assert_eq!(acc.len(), weights.out_ch, "accumulator buffer length");
    // A dense layer is a one-row GEMM: the input vector is the panel.
    scratch.panel_q.clear();
    scratch
        .panel_q
        .extend(input.codes.iter().map(|&c| i16::from(c)));
    scratch.panel_q.resize(weights.panel_width(), 0);
    gemm_packed_dispatch(&scratch.panel_q, 1, weights, bias_q, acc);
}

/// Optimized integer dense layer returning fresh accumulators, with the
/// weights in natural order like [`crate::reference::dense_q`]; packs
/// them on every call.
pub fn dense_q(
    input: &QTensor,
    in_len: usize,
    out_len: usize,
    wcodes: &[i8],
    bias_q: &[i32],
) -> Vec<i32> {
    let weights = PackedQ::pack(wcodes, out_len, in_len);
    let mut acc = vec![0i32; out_len];
    dense_q_into(input, &weights, bias_q, &mut Scratch::new(), &mut acc);
    acc
}

/// The integer GEMM microkernel over `rows` panel rows of
/// `w.panel_width()` sign-extended codes each:
/// `acc[row · out_ch + oc] = bias_q[oc] + Σᵢ panel[row][i] · w(oc, i)`.
///
/// This is the plain-Rust build, for CPUs without AVX2. It walks the
/// packed layout like [`gemm_packed_avx2`]: per row and block, sixteen
/// accumulators start from the bias and add each reduction pair's two
/// products.
fn gemm_packed(panel: &[i16], rows: usize, w: &PackedQ, bias_q: &[i32], acc: &mut [i32]) {
    let (out_ch, pairs) = (w.out_ch, w.pairs());
    let width = w.panel_width();
    assert_eq!(panel.len(), rows * width, "panel length");
    assert_eq!(bias_q.len(), out_ch, "bias length");
    assert_eq!(acc.len(), rows * out_ch, "accumulator buffer length");
    for row in 0..rows {
        let prow = &panel[row * width..][..width];
        for oc0 in (0..out_ch).step_by(OC_BLOCK) {
            let lanes = OC_BLOCK.min(out_ch - oc0);
            let block = &w.codes[oc0 / OC_BLOCK * pairs * PAIR_CODES..][..pairs * PAIR_CODES];
            let mut sums = [0i32; OC_BLOCK];
            sums[..lanes].copy_from_slice(&bias_q[oc0..][..lanes]);
            for (pair, x) in block.chunks_exact(PAIR_CODES).zip(prow.chunks_exact(2)) {
                let (x0, x1) = (i32::from(x[0]), i32::from(x[1]));
                for (s, wp) in sums.iter_mut().zip(pair.chunks_exact(2)) {
                    *s += i32::from(wp[0]) * x0 + i32::from(wp[1]) * x1;
                }
            }
            acc[row * out_ch + oc0..][..lanes].copy_from_slice(&sums[..lanes]);
        }
    }
}

/// The AVX2 build of [`gemm_packed`], in `std::arch` intrinsics over the
/// same packed layout (LLVM does not find `vpmaddwd` in the plain loop).
///
/// Per block and reduction pair, `vpmovsxbw` widens the pair's 32 weight
/// codes into two vectors of 8 channels × 2 codes. Each of up to four
/// panel rows broadcasts its two codes (`vpbroadcastd`), and `vpmaddwd`
/// plus `vpaddd` add both products into that row's two accumulators,
/// which start from the bias. Leftover rows run one at a time, and a
/// block narrower than 16 channels stores only its valid lanes. A pair
/// sum is at most 2·128·128 = 32768 in magnitude, so `vpmaddwd` never
/// wraps, and `vpaddd` wraps like the release-mode `+`: the accumulators
/// equal [`gemm_packed`]'s for any codes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_packed_avx2(panel: &[i16], rows: usize, w: &PackedQ, bias_q: &[i32], acc: &mut [i32]) {
    use std::arch::x86_64::*;
    let (out_ch, pairs) = (w.out_ch, w.pairs());
    let width = w.panel_width();
    // SAFETY: the raw-pointer reads below rely on these lengths. A panel
    // read takes codes `row · width + 2p` and `+ 1` with `row < rows` and
    // `p < pairs`, so below `rows · width`. A weight read takes 32 codes
    // at `(block · pairs + p) · PAIR_CODES` with `block < out_ch / 16`
    // rounded up and `p < pairs`, so within the packed codes.
    assert_eq!(panel.len(), rows * width, "panel length");
    assert_eq!(
        w.codes.len(),
        out_ch.div_ceil(OC_BLOCK) * pairs * PAIR_CODES,
        "packed weights length"
    );
    assert_eq!(bias_q.len(), out_ch, "bias length");
    assert_eq!(acc.len(), rows * out_ch, "accumulator buffer length");
    for oc0 in (0..out_ch).step_by(OC_BLOCK) {
        let lanes = OC_BLOCK.min(out_ch - oc0);
        let mut edge = [0i32; OC_BLOCK];
        edge[..lanes].copy_from_slice(&bias_q[oc0..][..lanes]);
        // SAFETY: `edge` holds 16 `i32`, two 8-lane vectors.
        let bias = unsafe {
            [
                _mm256_loadu_si256(edge.as_ptr().cast()),
                _mm256_loadu_si256(edge.as_ptr().add(8).cast()),
            ]
        };
        let block = oc0 / OC_BLOCK * pairs * PAIR_CODES;
        // One register tile: `$rows` panel rows from `$row` against this
        // block, two accumulators per row.
        macro_rules! tile {
            ($row:expr, $rows:literal) => {{
                let row0 = $row;
                let mut sums = [bias; $rows];
                for p in 0..pairs {
                    // SAFETY: pair `p` of this block is within the packed
                    // codes (asserted length above).
                    let (w0, w1) = unsafe {
                        let at = w.codes.as_ptr().add(block + p * PAIR_CODES);
                        (
                            _mm256_cvtepi8_epi16(_mm_loadu_si128(at.cast())),
                            _mm256_cvtepi8_epi16(_mm_loadu_si128(at.add(16).cast())),
                        )
                    };
                    for (r, s) in sums.iter_mut().enumerate() {
                        // SAFETY: row `row0 + r < rows` and pair `p` are
                        // within the panel (asserted length above).
                        let x = unsafe {
                            panel
                                .as_ptr()
                                .add((row0 + r) * width + 2 * p)
                                .cast::<i32>()
                                .read_unaligned()
                        };
                        let x = _mm256_set1_epi32(x);
                        s[0] = _mm256_add_epi32(s[0], _mm256_madd_epi16(w0, x));
                        s[1] = _mm256_add_epi32(s[1], _mm256_madd_epi16(w1, x));
                    }
                }
                for (r, s) in sums.iter().enumerate() {
                    let dst = &mut acc[(row0 + r) * out_ch + oc0..][..lanes];
                    let mut tail = [0i32; OC_BLOCK];
                    let out = if lanes == OC_BLOCK {
                        dst.as_mut_ptr()
                    } else {
                        tail.as_mut_ptr()
                    };
                    // SAFETY: `out` points at 16 `i32`, two 8-lane
                    // vectors: all of `dst` for a full block, else `tail`.
                    unsafe {
                        _mm256_storeu_si256(out.cast(), s[0]);
                        _mm256_storeu_si256(out.add(8).cast(), s[1]);
                    }
                    if lanes < OC_BLOCK {
                        dst.copy_from_slice(&tail[..lanes]);
                    }
                }
            }};
        }
        let mut row = 0;
        while row + 4 <= rows {
            tile!(row, 4);
            row += 4;
        }
        while row < rows {
            tile!(row, 1);
            row += 1;
        }
    }
}

/// Runs the widest build of the integer GEMM the CPU supports. The
/// feature probe is a cached atomic load in `std`, so dispatching per
/// tile is free.
fn gemm_packed_dispatch(panel: &[i16], rows: usize, w: &PackedQ, bias_q: &[i32], acc: &mut [i32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { gemm_packed_avx2(panel, rows, w, bias_q, acc) };
    }
    gemm_packed(panel, rows, w, bias_q, acc)
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

    #[test]
    #[should_panic(expected = "dense input length")]
    fn dense_q_rejects_an_input_longer_than_the_weights() {
        let weights = PackedQ::pack(&[1; 8], 2, 4);
        let mut acc = [0i32; 2];
        dense_q_into(
            &qtensor(1, 1, 5, 0),
            &weights,
            &[0; 2],
            &mut Scratch::new(),
            &mut acc,
        );
    }

    #[test]
    fn packed_weights_read_back_in_natural_order() {
        for (out_ch, depth) in [(0, 3), (5, 0), (1, 1), (17, 7), (33, 10)] {
            let natural: Vec<i8> = (0..out_ch * depth).map(|i| (i * 37 % 251) as i8).collect();
            let mut packed = PackedQ::pack(&natural, out_ch, depth);
            assert_eq!(packed.len(), natural.len());
            assert_eq!(packed.unpack(), natural, "out_ch={out_ch} depth={depth}");
            for i in 0..natural.len() {
                *packed.code_mut(i) ^= 0x55;
            }
            let flipped: Vec<i8> = natural.iter().map(|&c| c ^ 0x55).collect();
            assert_eq!(packed.unpack(), flipped, "out_ch={out_ch} depth={depth}");
        }
    }

    /// Runs each build of the integer GEMM the CPU supports on `rows`
    /// panel rows of `depth` codes `x(i)` against `out_ch` channels of
    /// weights `w(i)`, and checks the accumulators against the reference
    /// 1×1 convolution over the same codes (and, for one row, the
    /// reference dense layer).
    fn check_gemm(
        rows: usize,
        depth: usize,
        out_ch: usize,
        x: impl Fn(usize) -> i8,
        w: impl Fn(usize) -> i8,
    ) {
        let mut input = QTensor::zeros(1, rows, depth, 1.0);
        for (i, code) in input.codes.iter_mut().enumerate() {
            *code = x(i);
        }
        let wcodes: Vec<i8> = (0..out_ch * depth).map(w).collect();
        let bias_q: Vec<i32> = (0..out_ch).map(|oc| oc as i32 * 1013 - 7777).collect();
        let p = ConvParams {
            in_ch: depth,
            out_ch,
            k: 1,
            stride: 1,
            pad: 0,
            relu: false,
        };
        let want = reference::conv2d_q(&input, &p, &wcodes, &bias_q);
        if rows == 1 {
            assert_eq!(
                want,
                reference::dense_q(&input, depth, out_ch, &wcodes, &bias_q)
            );
        }
        let packed = PackedQ::pack(&wcodes, out_ch, depth);
        let width = packed.panel_width();
        let mut panel = vec![0i16; rows * width];
        for (prow, codes) in panel
            .chunks_mut(width.max(1))
            .zip(input.codes.chunks(depth.max(1)))
        {
            for (d, &c) in prow.iter_mut().zip(codes) {
                *d = i16::from(c);
            }
        }
        let check = |build: &str, acc: &[i32]| {
            assert_eq!(
                acc, want,
                "{build} build: rows={rows} depth={depth} out_ch={out_ch}"
            );
        };
        let mut acc = vec![0i32; rows * out_ch];
        gemm_packed(&panel, rows, &packed, &bias_q, &mut acc);
        check("plain", &acc);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            acc.fill(0);
            // SAFETY: AVX2 support was just verified.
            unsafe { gemm_packed_avx2(&panel, rows, &packed, &bias_q, &mut acc) };
            check("AVX2", &acc);
        }
    }

    #[test]
    fn both_gemm_builds_match_the_reference_kernels() {
        let mut rng = Xoshiro256StarStar::seed_from(29);
        let random: Vec<i8> = (0..4099).map(|_| rng.next_u64() as i8).collect();
        let at = |i: usize| random[i % random.len()];
        // Every block tail width, full blocks and the zero-channel layer;
        // odd and even K, including K = 0 and K = 1; every tile height
        // from one leftover row to two 4-row tiles and a leftover.
        for out_ch in 0..=40 {
            for depth in [0, 1, 2, 3, 8, 16, 27] {
                for rows in 1..=9 {
                    check_gemm(rows, depth, out_ch, at, |i| at(i * 7 + 1000));
                }
            }
        }
        // Extreme operands: all −128 × −128 gives the largest pair sums,
        // and mixed 127 / −128 both signs of the extremes.
        let mixed = |i: usize| if i.is_multiple_of(3) { 127 } else { -128 };
        for (rows, depth, out_ch) in [(9, 64, 16), (5, 33, 40), (4, 1, 17), (1, 255, 3)] {
            check_gemm(rows, depth, out_ch, |_| -128, |_| -128);
            check_gemm(rows, depth, out_ch, mixed, |i| mixed(i + 1));
        }
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
