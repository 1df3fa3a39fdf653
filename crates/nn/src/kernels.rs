//! Optimized inference kernels: blocked GEMMs over packed or staged
//! operands, with no im2col copy on the integer path.
//!
//! Two regimes, two contracts:
//!
//! * **Float kernels** must be *bit-identical* to
//!   [`crate::reference::conv2d_f32`] / [`crate::reference::dense_f32`].
//!   `f32` addition is non-associative, so the optimized code reproduces
//!   the reference accumulation order exactly: per in-bounds `(ky, kx)`
//!   tap a partial sum is folded sequentially from `+0.0` over the input
//!   channels and then added to the bias-initialized accumulator. The
//!   conv therefore never vectorizes along K. It vectorizes across output
//!   pixels instead: a tile of 16 consecutive pixels, crossing output rows,
//!   becomes a feature-major im2col tile (per tap and channel, the 16
//!   pixels' inputs, zero where the tap falls out of bounds) with a lane
//!   mask per tap, and each lane replays its own pixel's fold while four
//!   output channels share each load of the tile. A lane whose tap is out
//!   of bounds keeps its accumulator by a *select*, never by adding its
//!   zero partial: `-0.0 + 0.0` is `+0.0`, which would flip a `-0.0` bias
//!   the reference keeps. Taps no lane of a tile reaches are skipped. The
//!   conv body is compiled twice, plain and with AVX2 (never FMA), and
//!   runtime detection picks the build. The single-row dense layer runs
//!   four outputs as independent chains.
//!
//! * **Integer kernels** accumulate `i8 × i8` products in `i32`, which is
//!   associative (wrapping arithmetic forms a group), so they are free to
//!   reorder. There is no im2col copy. A conv widens its input once into
//!   a zero-bordered `i16` source (the pad on every side, then one
//!   trailing zero), in which each output pixel's `k` kernel rows are
//!   runs of `k·in_ch` consecutive codes, one padded row stride apart. A
//!   dense layer is the one-pixel, one-run case. The layer's weights are
//!   packed once, at quantize time, into a [`PackedQ`]: blocks of 16
//!   output channels in which each run's reduction pairs `(2p, 2p + 1)`
//!   hold the block's 16 channels' two codes interleaved. An odd run
//!   ends in a zero weight, so its last pair may read the code after the
//!   run (the trailing zero, at the source's last pixel) and add nothing.
//!   The GEMM microkernel takes one base offset per output pixel and
//!   vectorizes across output channels rather than along K: per pair it
//!   broadcasts each pixel's two source codes and multiply-adds them
//!   against a whole block, so even ResNet50's short 1×1 reductions
//!   (K = 8) fill every lane. There are two builds over the one layout,
//!   picked by runtime feature detection: AVX2 `std::arch` intrinsics
//!   (`vpmovsxbw`, `vpbroadcastd`, `vpmaddwd`, `vpaddd`; 4 pixels × 16
//!   channels of accumulators) and a plain-Rust body elsewhere. Both are
//!   exact: a weight code is an `i8`, so a pair sum fits `i32` for any
//!   `i16` source code and `vpmaddwd`'s one wrapping case (−32768 ×
//!   −32768 in both halves) cannot occur, and `vpaddd` wraps like the
//!   release-mode scalar `+`. The accumulators are identical for any
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
//!   independent chains over a feature-major copy of the set, four outputs
//!   sharing each load of it, and a four-output × eight-feature gradient
//!   tile stays in registers for the whole pass over the samples. Both
//!   bodies are compiled a second time with AVX2, like the conv, where
//!   the gradient tile widens to sixteen features.
//!
//!   Rust never contracts `a * b + c` into a fused multiply-add, and the
//!   AVX2 builds enable `avx2` only, not `fma`, so the backend cannot
//!   either: every vectorized fold rounds exactly as the scalar one.
//!
//! * **Activation codes** come from one per-element step,
//!   `v.round().clamp(lo, hi) as i8` over the format's code range. It is
//!   exact by construction: it spells `f32::round`, maps NaN to 0, and
//!   converts the clamped integer with `to_int_unchecked`, which is exact
//!   because the clamp keeps it inside `i8`'s range. Two passes run it.
//!   [`requantize_into`] turns a conv or dense layer's accumulators
//!   straight into codes (multiply by the channel's rescale factor, ReLU,
//!   round), and [`round_codes_into`] rounds the values the other
//!   element-wise stages of the quantized executor stage. Each is
//!   compiled a second time with AVX2, where the multiply, the rounding
//!   and the convert vectorize, and picked at run time like the GEMM.
//!
//! All inference `_into` variants write into caller-provided buffers and
//! borrow their temporaries from a [`Scratch`] arena, so a warmed-up
//! executor performs no per-inference allocations.

use crate::graph::ConvParams;
use crate::tensor::{QTensor, Tensor};
use redvolt_num::fixed::IntFormat;

/// Output-pixel tile width of the integer GEMM: a block of packed weights
/// is reused across this many output pixels while hot in L1.
const QTILE: usize = 8;

/// Output channels per block of [`PackedQ`], the lanes one microkernel
/// pass fills: two AVX2 vectors of eight `i32` accumulators.
const OC_BLOCK: usize = 16;

/// Codes per reduction pair of a [`PackedQ`] block: every channel's two.
const PAIR_CODES: usize = 2 * OC_BLOCK;

/// Output pixels per tile of the float convolution: the SIMD lanes that
/// advance together, two AVX2 vectors of eight `f32`.
const PIX: usize = 16;

/// Output channels that share one pass over a float conv tile.
const OC_GROUP: usize = 4;

/// A kernel tap that at least one pixel of a float conv tile reaches.
#[derive(Debug, Clone, Copy)]
struct TileTap {
    /// Tap index `ky · k + kx`.
    t: usize,
    /// Per lane: whether the tap falls inside the input for that pixel.
    inside: [bool; PIX],
}

/// Reusable kernel workspace (staged inputs and float im2col tiles).
/// Create once, thread through every kernel call; buffers grow to the
/// largest layer seen and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Float conv input, channel-major and zero-padded: one
    /// `(h + 2·pad) × (w + 2·pad)` plane per input channel.
    planes_f: Vec<f32>,
    /// Feature-major float im2col tile: for each tap in `taps` and each
    /// input channel, the [`PIX`] lanes' inputs, zero where the tap falls
    /// out of bounds or past the last pixel.
    tile_f: Vec<f32>,
    /// The taps the current float tile reaches, in `(ky, kx)` order, with
    /// their lane masks.
    taps: Vec<TileTap>,
    /// Integer layer input, sign-extended to `i16`: a conv's
    /// `(h + 2·pad) × (w + 2·pad)` pixels of `in_ch` codes in HWC order,
    /// zero on the border, or a dense layer's input codes; then one
    /// trailing zero, which the last pair of an odd run at the last
    /// pixel reads against a zero weight. The GEMM reads it in place.
    src_q: Vec<i16>,
}

impl Scratch {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Optimized float convolution writing into `out` (length `oh·ow·out_ch`).
///
/// Bit-identical to [`crate::reference::conv2d_f32`]. Runs the AVX2 build
/// when the CPU has it.
///
/// # Panics
///
/// Panics if the kernel does not fit the input (see
/// [`ConvParams::out_hw`]), or if a buffer length does not match the
/// parameters.
pub fn conv2d_f32_into(
    input: &Tensor,
    p: &ConvParams,
    weights: &[f32],
    bias: &[f32],
    scratch: &mut Scratch,
    out: &mut [f32],
) {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    assert_eq!(out.len(), oh * ow * p.out_ch, "output buffer length");
    assert_eq!(weights.len(), p.weight_count(), "weights length");
    assert_eq!(bias.len(), p.out_ch, "bias length");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { conv_f32_avx2(input, p, weights, bias, scratch, out) };
    }
    conv_f32(input, p, weights, bias, scratch, out)
}

/// The body of [`conv2d_f32_into`], inlined into both builds: tiles of
/// [`PIX`] consecutive output pixels, crossing output rows, each lane
/// replaying the reference fold for its pixel (see the module docs).
#[inline(always)]
fn conv_f32(
    input: &Tensor,
    p: &ConvParams,
    weights: &[f32],
    bias: &[f32],
    scratch: &mut Scratch,
    out: &mut [f32],
) {
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    let pixels = oh * ow;
    if pixels == 0 || p.out_ch == 0 {
        return;
    }
    let (k, stride, pad) = (p.k, p.stride, p.pad);
    // Stage the input channel-major with its zero padding, so each tap of
    // a run of pixels in one output row reads one strided row segment.
    let (ph, pw) = (ih + 2 * pad, iw + 2 * pad);
    let plane = ph * pw;
    let planes = &mut scratch.planes_f;
    planes.clear();
    planes.resize(ic * plane, 0.0);
    let data = input.data();
    for y in 0..ih {
        for x in 0..iw {
            let at = (y + pad) * pw + x + pad;
            for (i, &v) in data[(y * iw + x) * ic..][..ic].iter().enumerate() {
                planes[i * plane + at] = v;
            }
        }
    }
    let tile = &mut scratch.tile_f;
    tile.resize(k * k * ic * PIX, 0.0);
    let taps = &mut scratch.taps;
    let mut start = 0;
    while start < pixels {
        let n = PIX.min(pixels - start);
        // Each lane's window origin in padded coordinates.
        let mut origin = [(0usize, 0usize); PIX];
        for (l, o) in origin[..n].iter_mut().enumerate() {
            let q = start + l;
            *o = (q / ow * stride, q % ow * stride);
        }
        // The taps some lane reaches, each with its lane mask.
        taps.clear();
        for ky in 0..k {
            for kx in 0..k {
                let mut inside = [false; PIX];
                for (m, &(y0, x0)) in inside[..n].iter_mut().zip(&origin[..n]) {
                    *m = (pad..pad + ih).contains(&(y0 + ky))
                        && (pad..pad + iw).contains(&(x0 + kx));
                }
                if inside.contains(&true) {
                    taps.push(TileTap {
                        t: ky * k + kx,
                        inside,
                    });
                }
            }
        }
        // Gather the tile run by run: the pixels of one output row read
        // each tap's row segment of every channel plane. A stride-1 1×1
        // conv reads consecutive plane positions across rows too, so its
        // whole tile is one run.
        let mut l = 0;
        while l < n {
            let (oy, ox) = ((start + l) / ow, (start + l) % ow);
            let len = if k == 1 && stride == 1 {
                n
            } else {
                (ow - ox).min(n - l)
            };
            for (j, tap) in taps.iter().enumerate() {
                let (ky, kx) = (tap.t / k, tap.t % k);
                let at = (oy * stride + ky) * pw + ox * stride + kx;
                for (i, src) in planes.chunks_exact(plane).enumerate() {
                    let dst = &mut tile[(j * ic + i) * PIX + l..][..len];
                    if stride == 1 {
                        dst.copy_from_slice(&src[at..][..len]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src[at..].iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
            }
            l += len;
        }
        if n < PIX {
            for lanes in tile[..taps.len() * ic * PIX].chunks_exact_mut(PIX) {
                lanes[n..].fill(0.0);
            }
        }
        let tile = &tile[..taps.len() * ic * PIX];
        let outs = &mut out[start * p.out_ch..][..n * p.out_ch];
        let mut oc = 0;
        while oc + OC_GROUP <= p.out_ch {
            conv_tile::<OC_GROUP>(tile, taps, p, ic, weights, bias, oc, outs);
            oc += OC_GROUP;
        }
        while oc < p.out_ch {
            conv_tile::<1>(tile, taps, p, ic, weights, bias, oc, outs);
            oc += 1;
        }
        start += n;
    }
}

/// Output channels `oc..oc + C` of one float conv tile, written to the
/// tile's pixel rows `outs` (HWC order, `out_ch` values per pixel).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one tile's whole description
fn conv_tile<const C: usize>(
    tile: &[f32],
    taps: &[TileTap],
    p: &ConvParams,
    ic: usize,
    weights: &[f32],
    bias: &[f32],
    oc: usize,
    outs: &mut [f32],
) {
    let k2ic = p.k * p.k * ic;
    let mut acc = [[0.0f32; PIX]; C];
    for (a, &b) in acc.iter_mut().zip(&bias[oc..][..C]) {
        *a = [b; PIX];
    }
    for (j, tap) in taps.iter().enumerate() {
        let xs_tap = &tile[j * ic * PIX..][..ic * PIX];
        let w: [&[f32]; C] =
            std::array::from_fn(|c| &weights[(oc + c) * k2ic + tap.t * ic..][..ic]);
        let mut part = [[0.0f32; PIX]; C];
        for (i, xs) in xs_tap.chunks_exact(PIX).enumerate() {
            for (pc, wc) in part.iter_mut().zip(&w) {
                let wv = wc[i];
                for (pl, &x) in pc.iter_mut().zip(xs) {
                    *pl += x * wv;
                }
            }
        }
        // A lane whose tap is out of bounds keeps its accumulator by a
        // select: adding its zero partial would turn `-0.0` into `+0.0`.
        for (a, pc) in acc.iter_mut().zip(&part) {
            *a = std::array::from_fn(|l| {
                let sum = a[l] + pc[l];
                if tap.inside[l] {
                    sum
                } else {
                    a[l]
                }
            });
        }
    }
    for (l, row) in outs.chunks_exact_mut(p.out_ch).enumerate() {
        for (o, a) in row[oc..][..C].iter_mut().zip(&acc) {
            *o = if p.relu { a[l].max(0.0) } else { a[l] };
        }
    }
}

/// [`conv_f32`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_f32_avx2(
    input: &Tensor,
    p: &ConvParams,
    weights: &[f32],
    bias: &[f32],
    scratch: &mut Scratch,
    out: &mut [f32],
) {
    conv_f32(input, p, weights, bias, scratch, out)
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

/// Outputs per pass of a [`dense_f32_batch_into`] lane block.
const OUT_GROUP: usize = 4;

/// Optimized batched float dense layer (no ReLU) over `batch` inputs
/// stored feature-major: `inputs_t[i * batch + s]` is feature `i` of
/// input `s`. Writes output `o` of input `s` to `out[s * out_len + o]`,
/// where `out_len = bias.len()`.
///
/// Row `s` of `out` is bit-identical to [`crate::reference::dense_f32`]
/// on input `s`: every output folds from `0.0` over the features in
/// order and adds the bias last. The kernel runs sixteen inputs as
/// independent chains, so the fold vectorizes across inputs rather than
/// along one dot product, and four outputs share each pass over the
/// features. Transposing the inputs is the caller's job, done once for a
/// batch that is reused (the trainer's fit set stays the same for every
/// epoch). Runs the AVX2 build when the CPU has it.
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
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { dense_batch_avx2(inputs_t, in_len, batch, weights, bias, out) };
    }
    dense_batch(inputs_t, in_len, batch, weights, bias, out)
}

/// The body of [`dense_f32_batch_into`], inlined into both builds.
#[inline(always)]
fn dense_batch(
    inputs_t: &[f32],
    in_len: usize,
    batch: usize,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let out_len = bias.len();
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
    let mut o = 0;
    while o + OUT_GROUP <= out_len {
        dense_lane_outputs::<OUT_GROUP>(inputs_t, stride, in_len, weights, bias, o, out);
        o += OUT_GROUP;
    }
    while o < out_len {
        dense_lane_outputs::<1>(inputs_t, stride, in_len, weights, bias, o, out);
        o += 1;
    }
}

/// Outputs `o..o + C` of one lane block: each load of a feature's
/// [`LANES`] inputs feeds `C` outputs' chains.
#[inline(always)]
fn dense_lane_outputs<const C: usize>(
    inputs_t: &[f32],
    stride: usize,
    in_len: usize,
    weights: &[f32],
    bias: &[f32],
    o: usize,
    out: &mut [f32],
) {
    let out_len = bias.len();
    let rows: [&[f32]; C] = std::array::from_fn(|c| &weights[(o + c) * in_len..][..in_len]);
    let mut acc = [[0.0f32; LANES]; C];
    for i in 0..in_len {
        let xs = &inputs_t[i * stride..][..LANES];
        for (a, row) in acc.iter_mut().zip(&rows) {
            let w = row[i];
            for (al, &x) in a.iter_mut().zip(xs) {
                *al += x * w;
            }
        }
    }
    for (l, outs) in out.chunks_exact_mut(out_len).enumerate() {
        for (c, a) in acc.iter().enumerate() {
            outs[o + c] = bias[o + c] + a[l];
        }
    }
}

/// [`dense_batch`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_batch_avx2(
    inputs_t: &[f32],
    in_len: usize,
    batch: usize,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    dense_batch(inputs_t, in_len, batch, weights, bias, out)
}

/// Outputs per register tile of [`dense_weight_grad_f32_into`].
const GRAD_TILE_OUT: usize = 4;

/// Features per register tile of [`dense_weight_grad_f32_into`]'s plain
/// build: two SSE2 vectors per output row, so a four-output tile runs
/// eight independent chains.
const GRAD_TILE_IN: usize = 8;

/// Features per register tile of the AVX2 build: two AVX2 vectors per
/// output row, again eight chains. (The plain build at this width
/// spills its sixteen accumulators out of SSE2's sixteen registers.)
const GRAD_TILE_IN_AVX2: usize = 16;

/// Weight gradient of a batched dense layer:
/// `grad[o * in_len + i] = Σ_s err[s * out_len + o] · inputs[s * in_len + i]`
/// over `batch` sample-major inputs and output errors.
///
/// Each element folds from `0.0` over the inputs in order, exactly as
/// accumulating `err · x` one input at a time would. Tiles of four
/// outputs × eight features (sixteen in the AVX2 build) keep their
/// accumulators in registers for the whole pass over the inputs. Runs
/// the AVX2 build when the CPU has it.
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
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { weight_grad_avx2(inputs, in_len, err, out_len, grad) };
    }
    weight_grad::<GRAD_TILE_IN>(inputs, in_len, err, out_len, grad)
}

/// The body of [`dense_weight_grad_f32_into`], inlined into both builds
/// with tiles `F` features wide.
#[inline(always)]
fn weight_grad<const F: usize>(
    inputs: &[f32],
    in_len: usize,
    err: &[f32],
    out_len: usize,
    grad: &mut [f32],
) {
    let mut o = 0;
    while o + GRAD_TILE_OUT <= out_len {
        grad_rows::<GRAD_TILE_OUT, F>(inputs, in_len, err, out_len, o, grad);
        o += GRAD_TILE_OUT;
    }
    while o < out_len {
        grad_rows::<1, F>(inputs, in_len, err, out_len, o, grad);
        o += 1;
    }
}

/// Gradient rows `o..o + C`, tile by tile along the features.
#[inline(always)]
fn grad_rows<const C: usize, const F: usize>(
    inputs: &[f32],
    in_len: usize,
    err: &[f32],
    out_len: usize,
    o: usize,
    grad: &mut [f32],
) {
    let mut i = 0;
    while i + F <= in_len {
        grad_tile::<C, F>(inputs, in_len, err, out_len, o, i, grad);
        i += F;
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

/// [`weight_grad`] recompiled with AVX2 enabled, on wider tiles.
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weight_grad_avx2(
    inputs: &[f32],
    in_len: usize,
    err: &[f32],
    out_len: usize,
    grad: &mut [f32],
) {
    weight_grad::<GRAD_TILE_IN_AVX2>(inputs, in_len, err, out_len, grad)
}

/// The integer weights of a conv or dense layer, packed for the GEMM
/// microkernel.
///
/// Logically they are `out_ch` rows of `depth` codes (the reduction
/// length K), in the natural order `oc · depth + i` of
/// [`crate::reference::conv2d_q`] and [`crate::reference::dense_q`].
/// Each row is `runs` runs of `run_len` codes that the microkernel reads
/// from consecutive input codes: a conv's `k` kernel rows of `k · in_ch`
/// codes, or a dense layer's one run over its whole input. Stored, the
/// rows are grouped into blocks of 16 output channels, and within a
/// block each run's reduction pairs `(2p, 2p + 1)` hold the 16 channels'
/// two codes interleaved, so one 32-byte load feeds the whole block for
/// one pair. An odd run's last pair ends in a zero weight, and codes
/// past `out_ch` are zero. The layout stays private: callers address
/// codes by natural index.
#[derive(Debug, Default)]
pub struct PackedQ {
    out_ch: usize,
    runs: usize,
    run_len: usize,
    codes: Vec<i8>,
}

impl Clone for PackedQ {
    fn clone(&self) -> Self {
        PackedQ {
            out_ch: self.out_ch,
            runs: self.runs,
            run_len: self.run_len,
            codes: self.codes.clone(),
        }
    }

    /// Reuses `self`'s buffer, so staging a faulted copy into a warm
    /// arena allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.out_ch = source.out_ch;
        self.runs = source.runs;
        self.run_len = source.run_len;
        self.codes.clone_from(&source.codes);
    }
}

impl PackedQ {
    /// Packs `out_ch` rows of `runs · run_len` codes given in natural
    /// order, each row read as `runs` runs of `run_len` codes.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out_ch · runs · run_len`.
    pub fn pack(codes: &[i8], out_ch: usize, runs: usize, run_len: usize) -> PackedQ {
        assert_eq!(codes.len(), out_ch * runs * run_len, "weight codes length");
        let mut packed = PackedQ {
            out_ch,
            runs,
            run_len,
            codes: Vec::new(),
        };
        let mut stored = vec![0; out_ch.div_ceil(OC_BLOCK) * packed.pairs() * PAIR_CODES];
        packed.for_each_position(|i, at| stored[at] = codes[i]);
        packed.codes = stored;
        packed
    }

    /// Output channels: the rows.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Reduction length K: the codes per row.
    pub fn depth(&self) -> usize {
        self.runs * self.run_len
    }

    /// Logical code count `out_ch · depth`, the length fault plans index.
    pub fn len(&self) -> usize {
        self.out_ch * self.depth()
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
        assert!(
            index < self.len(),
            "weight index {index} out of range for {} codes",
            self.len()
        );
        let (oc, i) = (index / self.depth(), index % self.depth());
        let at = self.position(oc, i / self.run_len, i % self.run_len);
        &mut self.codes[at]
    }

    /// Every code, in natural order.
    pub fn unpack(&self) -> Vec<i8> {
        let mut codes = vec![0; self.len()];
        self.for_each_position(|i, at| codes[i] = self.codes[at]);
        codes
    }

    /// Reduction pairs per run: `run_len` rounded up to even, halved.
    fn run_pairs(&self) -> usize {
        self.run_len.div_ceil(2)
    }

    /// Reduction pairs per block: every run's.
    fn pairs(&self) -> usize {
        self.runs * self.run_pairs()
    }

    /// The packed position of code `j` of run `r` in row `oc`.
    fn position(&self, oc: usize, r: usize, j: usize) -> usize {
        let pair = (oc / OC_BLOCK) * self.pairs() + r * self.run_pairs() + j / 2;
        pair * PAIR_CODES + (oc % OC_BLOCK) * 2 + j % 2
    }

    /// Calls `f(index, position)` for every natural index in order, with
    /// its packed position: no division per code, so packing a layer
    /// costs about one pass over its codes.
    fn for_each_position(&self, mut f: impl FnMut(usize, usize)) {
        let mut index = 0;
        for oc in 0..self.out_ch {
            for r in 0..self.runs {
                let run = self.position(oc, r, 0);
                for j in 0..self.run_len {
                    f(index, run + j / 2 * PAIR_CODES + j % 2);
                    index += 1;
                }
            }
        }
    }
}

/// Writes the `h × w × c` codes `codes` (HWC order) to `dst` sign-extended
/// to `i16`, inside a zero border `pad` pixels wide, then one trailing
/// zero: the source the integer GEMM reads.
fn widen_bordered(codes: &[i8], h: usize, w: usize, c: usize, pad: usize, dst: &mut Vec<i16>) {
    let pw = w + 2 * pad;
    let row = w * c;
    dst.clear();
    dst.resize((h + 2 * pad) * pw * c + 1, 0);
    for y in 0..h {
        let at = ((y + pad) * pw + pad) * c;
        for (d, &s) in dst[at..][..row].iter_mut().zip(&codes[y * row..][..row]) {
            *d = i16::from(s);
        }
    }
}

/// Optimized integer convolution writing raw accumulators into `acc`
/// (length `oh·ow·out_ch`). Produces values identical to
/// [`crate::reference::conv2d_q`] — integer accumulation is associative,
/// so the blocked GEMM reorder is exact.
///
/// There is no im2col copy: the input is widened once into a
/// zero-bordered `i16` source, and each output pixel's `k` kernel rows
/// are runs of `k · in_ch` consecutive codes in it, one padded row
/// stride apart, which the GEMM reads in place.
///
/// # Panics
///
/// Panics if the kernel does not fit the input (see
/// [`ConvParams::out_hw`]), or if a buffer length or the packed weights'
/// shape does not match the parameters.
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
    assert_eq!(acc.len(), oh * ow * p.out_ch, "accumulator buffer length");
    assert_eq!(
        (weights.out_ch, weights.runs, weights.run_len),
        (p.out_ch, p.k, p.k * ic),
        "packed weights shape"
    );
    assert_eq!(bias_q.len(), p.out_ch, "bias length");
    widen_bordered(&input.codes, ih, iw, ic, p.pad, &mut scratch.src_q);
    let row_stride = (iw + 2 * p.pad) * ic;
    let pixels = oh * ow;
    let mut bases = [0usize; QTILE];
    let mut start = 0;
    while start < pixels {
        let tile = QTILE.min(pixels - start);
        for (n, base) in bases[..tile].iter_mut().enumerate() {
            let (oy, ox) = ((start + n) / ow, (start + n) % ow);
            *base = oy * p.stride * row_stride + ox * p.stride * ic;
        }
        gemm_packed_dispatch(
            &scratch.src_q,
            &bases[..tile],
            row_stride,
            weights,
            bias_q,
            &mut acc[start * p.out_ch..][..tile * p.out_ch],
        );
        start += tile;
    }
}

/// Optimized integer convolution returning fresh accumulators, with the
/// weights in natural order like [`crate::reference::conv2d_q`]; packs
/// them on every call.
pub fn conv2d_q(input: &QTensor, p: &ConvParams, wcodes: &[i8], bias_q: &[i32]) -> Vec<i32> {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    let weights = PackedQ::pack(wcodes, p.out_ch, p.k, p.k * input.c());
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
    assert_eq!(input.codes.len(), weights.depth(), "dense input length");
    assert_eq!(bias_q.len(), weights.out_ch, "bias length");
    assert_eq!(acc.len(), weights.out_ch, "accumulator buffer length");
    // A dense layer is the conv GEMM's one-pixel case: its input is one
    // unbordered row whose runs lie back to back.
    let n = input.codes.len();
    widen_bordered(&input.codes, 1, 1, n, 0, &mut scratch.src_q);
    gemm_packed_dispatch(&scratch.src_q, &[0], weights.run_len, weights, bias_q, acc);
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
    let weights = PackedQ::pack(wcodes, out_len, 1, in_len);
    let mut acc = vec![0i32; out_len];
    dense_q_into(input, &weights, bias_q, &mut Scratch::new(), &mut acc);
    acc
}

/// How far past a pixel's base offset the GEMM reads from its source:
/// the last run starts `(runs − 1) · row_stride` codes in, and its pairs
/// take `2 · run_pairs` codes, one past an odd run.
///
/// # Panics
///
/// Panics if the offset does not fit `usize`.
fn source_reach(w: &PackedQ, row_stride: usize) -> usize {
    w.runs
        .saturating_sub(1)
        .checked_mul(row_stride)
        .and_then(|last| last.checked_add(2 * w.run_pairs()))
        .expect("source reach fits usize")
}

/// The integer GEMM microkernel over one tile of output pixels. Pixel `n`
/// reads run `r` of its reduction from `src[bases[n] + r · row_stride..]`,
/// so `acc[n · out_ch + oc]` is `bias_q[oc]` plus the sum over `r` and `j`
/// of `src[bases[n] + r · row_stride + j] · w(oc, r · run_len + j)`. An
/// odd run's last pair also reads the code after the run, against the
/// zero weight that ends it.
///
/// This is the plain-Rust build, for CPUs without AVX2. It walks the
/// packed layout like [`gemm_packed_avx2`]: per pixel and block, sixteen
/// accumulators start from the bias and add each reduction pair's two
/// products.
fn gemm_packed(
    src: &[i16],
    bases: &[usize],
    row_stride: usize,
    w: &PackedQ,
    bias_q: &[i32],
    acc: &mut [i32],
) {
    let (out_ch, run_pairs, pairs) = (w.out_ch, w.run_pairs(), w.pairs());
    assert_eq!(bias_q.len(), out_ch, "bias length");
    assert_eq!(acc.len(), bases.len() * out_ch, "accumulator buffer length");
    for (n, &base) in bases.iter().enumerate() {
        for oc0 in (0..out_ch).step_by(OC_BLOCK) {
            let lanes = OC_BLOCK.min(out_ch - oc0);
            let block = &w.codes[oc0 / OC_BLOCK * pairs * PAIR_CODES..][..pairs * PAIR_CODES];
            let mut sums = [0i32; OC_BLOCK];
            sums[..lanes].copy_from_slice(&bias_q[oc0..][..lanes]);
            for r in 0..w.runs {
                let run_w = &block[r * run_pairs * PAIR_CODES..][..run_pairs * PAIR_CODES];
                let run_x = &src[base + r * row_stride..][..2 * run_pairs];
                for (pair, x) in run_w.chunks_exact(PAIR_CODES).zip(run_x.chunks_exact(2)) {
                    let (x0, x1) = (i32::from(x[0]), i32::from(x[1]));
                    for (s, wp) in sums.iter_mut().zip(pair.chunks_exact(2)) {
                        *s += i32::from(wp[0]) * x0 + i32::from(wp[1]) * x1;
                    }
                }
            }
            acc[n * out_ch + oc0..][..lanes].copy_from_slice(&sums[..lanes]);
        }
    }
}

/// The AVX2 build of [`gemm_packed`], in `std::arch` intrinsics over the
/// same packed layout (LLVM does not find `vpmaddwd` in the plain loop).
///
/// Per block and reduction pair, `vpmovsxbw` widens the pair's 32 weight
/// codes into two vectors of 8 channels × 2 codes. Each of up to four
/// pixels broadcasts its two source codes (`vpbroadcastd`), and
/// `vpmaddwd` plus `vpaddd` add both products into that pixel's two
/// accumulators, which start from the bias. Leftover pixels run one at a
/// time, and a block narrower than 16 channels stores only its valid
/// lanes. A weight code is an `i8`, so a pair sum is at most 2·128·32768
/// in magnitude for any `i16` source code: `vpmaddwd` never wraps, and
/// `vpaddd` wraps like the release-mode `+`. The accumulators equal
/// [`gemm_packed`]'s for any codes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_packed_avx2(
    src: &[i16],
    bases: &[usize],
    row_stride: usize,
    w: &PackedQ,
    bias_q: &[i32],
    acc: &mut [i32],
) {
    use std::arch::x86_64::*;
    let (out_ch, runs, run_pairs, pairs) = (w.out_ch, w.runs, w.run_pairs(), w.pairs());
    // SAFETY: the raw-pointer reads below rely on these two asserts. A
    // source read takes codes `base + r · row_stride + 2p` and `+ 1` with
    // `r < runs` and `p < run_pairs`, so below `base + reach`, which the
    // first assert bounds by `src.len()` for every base. A weight read
    // takes 32 codes at `(block · pairs + r · run_pairs + p) · PAIR_CODES`
    // with `block < out_ch / 16` rounded up, so within the packed codes.
    let reach = source_reach(w, row_stride);
    assert!(
        reach <= src.len() && bases.iter().all(|&base| base <= src.len() - reach),
        "source reads past the bordered input"
    );
    assert_eq!(
        w.codes.len(),
        out_ch.div_ceil(OC_BLOCK) * pairs * PAIR_CODES,
        "packed weights length"
    );
    assert_eq!(bias_q.len(), out_ch, "bias length");
    assert_eq!(acc.len(), bases.len() * out_ch, "accumulator buffer length");
    let pixels = bases.len();
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
        let block = oc0 / OC_BLOCK * pairs;
        // One register tile: `$rows` pixels from `$n` against this block,
        // two accumulators per pixel.
        macro_rules! tile {
            ($n:expr, $rows:literal) => {{
                let n0 = $n;
                let mut sums = [bias; $rows];
                for r in 0..runs {
                    let run: [usize; $rows] =
                        std::array::from_fn(|i| bases[n0 + i] + r * row_stride);
                    let run_w = block + r * run_pairs;
                    for p in 0..run_pairs {
                        // SAFETY: pair `run_w + p` of this block is within
                        // the packed codes (asserted length above).
                        let (w0, w1) = unsafe {
                            let at = w.codes.as_ptr().add((run_w + p) * PAIR_CODES);
                            (
                                _mm256_cvtepi8_epi16(_mm_loadu_si128(at.cast())),
                                _mm256_cvtepi8_epi16(_mm_loadu_si128(at.add(16).cast())),
                            )
                        };
                        for (s, &at) in sums.iter_mut().zip(&run) {
                            // SAFETY: codes `at + 2p` and `+ 1` lie below
                            // the pixel's `base + reach` (asserted above).
                            let x = unsafe {
                                src.as_ptr().add(at + 2 * p).cast::<i32>().read_unaligned()
                            };
                            let x = _mm256_set1_epi32(x);
                            s[0] = _mm256_add_epi32(s[0], _mm256_madd_epi16(w0, x));
                            s[1] = _mm256_add_epi32(s[1], _mm256_madd_epi16(w1, x));
                        }
                    }
                }
                for (i, s) in sums.iter().enumerate() {
                    let dst = &mut acc[(n0 + i) * out_ch + oc0..][..lanes];
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
        let mut n = 0;
        while n + 4 <= pixels {
            tile!(n, 4);
            n += 4;
        }
        while n < pixels {
            tile!(n, 1);
            n += 1;
        }
    }
}

/// Runs the widest build of the integer GEMM the CPU supports. The
/// feature probe is a cached atomic load in `std`, so dispatching per
/// tile is free.
fn gemm_packed_dispatch(
    src: &[i16],
    bases: &[usize],
    row_stride: usize,
    w: &PackedQ,
    bias_q: &[i32],
    acc: &mut [i32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { gemm_packed_avx2(src, bases, row_stride, w, bias_q, acc) };
    }
    gemm_packed(src, bases, row_stride, w, bias_q, acc)
}

/// A format's code range `lo..=hi` as floats, inside `i8`'s range by
/// construction, with the one step that turns a value into a code.
#[derive(Debug, Clone, Copy)]
struct CodeRange {
    lo: f32,
    hi: f32,
}

impl CodeRange {
    fn of(format: IntFormat) -> CodeRange {
        let (lo, hi) = (format.min_value() as f32, format.max_value() as f32);
        let i8_range = -128.0..=127.0;
        assert!(
            i8_range.contains(&lo) && i8_range.contains(&hi),
            "code range"
        );
        CodeRange { lo, hi }
    }

    /// `v.round().clamp(lo, hi) as i8`, with NaN to 0.
    #[inline(always)]
    fn code(self, v: f32) -> i8 {
        let r = v.round();
        if r.is_nan() {
            0
        } else {
            // SAFETY: a non-NaN value clamped to `lo..=hi` is finite and
            // inside `i8`'s range (asserted in `of`), so `i32` holds it.
            // It is also an integer, since `round` and the bounds are, so
            // the convert is exact.
            (unsafe { r.clamp(self.lo, self.hi).to_int_unchecked::<i32>() }) as i8
        }
    }
}

/// Rounds staged values to activation codes of `format`:
/// `codes[i] = vals[i].round().clamp(lo, hi) as i8` over the format's
/// code range `lo..=hi`, with halfway cases away from zero and NaN to 0.
///
/// Every activation code of the quantized executor comes from this
/// pass's per-element step, here or fused into [`requantize_into`]. Its
/// body spells `f32::round`, so it is exact by construction in both
/// builds: on x86-64's SSE2 baseline that is a call to libm `roundf` per
/// element, while the AVX2 build (chosen by the same runtime detection
/// as the GEMM) lowers it inline to `vroundps` and vectorizes the loop.
/// The step maps NaN to 0 itself and converts the clamped value without
/// the saturating cast's range checks, which LLVM would keep as one
/// scalar `vcvttss2si` per lane; the AVX2 build converts whole vectors
/// instead.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn round_codes_into(vals: &[f32], format: IntFormat, codes: &mut [i8]) {
    assert_eq!(vals.len(), codes.len(), "code buffer length");
    let range = CodeRange::of(format);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { round_codes_avx2(vals, range, codes) };
    }
    round_codes(vals, range, codes)
}

/// The body of [`round_codes_into`], inlined into both builds.
#[inline(always)]
fn round_codes(vals: &[f32], range: CodeRange, codes: &mut [i8]) {
    for (code, &v) in codes.iter_mut().zip(vals) {
        *code = range.code(v);
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
unsafe fn round_codes_avx2(vals: &[f32], range: CodeRange, codes: &mut [i8]) {
    round_codes(vals, range, codes)
}

/// Requantizes a conv or dense layer's raw accumulators (HWC, one pixel
/// per `rescales.len()` channels) straight to activation codes of
/// `format`, in one pass: `v = a as f32 · r` with the channel's rescale
/// factor `r`, ReLU'd to `0.0` when `relu` and `v < 0.0`, then rounded by
/// [`round_codes_into`]'s step. The codes equal that two-step spelling's
/// for any accumulators: the multiply and the compare are the same IEEE
/// operations in both builds, and the rounding step is shared. Runs the
/// AVX2 build when the CPU has it.
///
/// # Panics
///
/// Panics if the slices differ in length, or the accumulators are not
/// whole pixels.
pub fn requantize_into(
    acc: &[i32],
    rescales: &[f32],
    relu: bool,
    format: IntFormat,
    codes: &mut [i8],
) {
    assert_eq!(acc.len(), codes.len(), "code buffer length");
    assert!(
        acc.len().is_multiple_of(rescales.len()),
        "accumulators are whole pixels of {} channels",
        rescales.len()
    );
    let range = CodeRange::of(format);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { requantize_avx2(acc, rescales, relu, range, codes) };
    }
    requantize(acc, rescales, relu, range, codes)
}

/// The body of [`requantize_into`], inlined into both builds.
#[inline(always)]
fn requantize(acc: &[i32], rescales: &[f32], relu: bool, range: CodeRange, codes: &mut [i8]) {
    if rescales.is_empty() {
        return;
    }
    let c = rescales.len();
    for (codes, acc) in codes.chunks_exact_mut(c).zip(acc.chunks_exact(c)) {
        for ((code, &a), &r) in codes.iter_mut().zip(acc).zip(rescales) {
            let v = a as f32 * r;
            *code = range.code(if relu && v < 0.0 { 0.0 } else { v });
        }
    }
}

/// [`requantize`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requantize_avx2(
    acc: &[i32],
    rescales: &[f32],
    relu: bool,
    range: CodeRange,
    codes: &mut [i8],
) {
    requantize(acc, rescales, relu, range, codes)
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// A value at `i` in roughly [-0.6, 0.6] from `seed`, with exact `+0.0`
    /// and `-0.0` mixed in.
    fn signed_zeros_at(seed: u64, i: usize) -> f32 {
        let h = (seed ^ 0x9e37_79b9)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(i as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        match (h >> 33) % 11 {
            0 => 0.0,
            1 => -0.0,
            m => (m as f32 / 11.0 - 0.5) * 1.2 + (h % 97) as f32 * 1e-3,
        }
    }

    /// Runs each build of the float conv the CPU supports, through one
    /// scratch, and checks every output's bits against the reference.
    fn check_conv_f32(input: &Tensor, p: &ConvParams, weights: &[f32], bias: &[f32]) -> Vec<u32> {
        let want = bits(reference::conv2d_f32(input, p, weights, bias).data());
        let (oh, ow) = p.out_hw(input.h(), input.w());
        let shape = format!("{}x{}x{} {p:?}", input.h(), input.w(), input.c());
        let mut scratch = Scratch::new();
        let mut out = vec![f32::NAN; oh * ow * p.out_ch];
        conv_f32(input, p, weights, bias, &mut scratch, &mut out);
        assert_eq!(bits(&out), want, "plain build: {shape}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            out.fill(f32::NAN);
            // SAFETY: AVX2 support was just verified.
            unsafe { conv_f32_avx2(input, p, weights, bias, &mut scratch, &mut out) };
            assert_eq!(bits(&out), want, "AVX2 build: {shape}");
        }
        want
    }

    /// A seeded conv case with signed zeros in the input, weights and
    /// bias.
    fn conv_case(ih: usize, iw: usize, p: &ConvParams, seed: u64) -> Vec<u32> {
        let input = Tensor::from_vec(
            ih,
            iw,
            p.in_ch,
            (0..ih * iw * p.in_ch)
                .map(|i| signed_zeros_at(seed, i))
                .collect(),
        );
        let weights: Vec<f32> = (0..p.weight_count())
            .map(|i| signed_zeros_at(seed ^ 0x3e1, i))
            .collect();
        let bias: Vec<f32> = (0..p.out_ch)
            .map(|i| signed_zeros_at(seed ^ 0xb1a5, i))
            .collect();
        check_conv_f32(&input, p, &weights, &bias)
    }

    #[test]
    fn both_float_conv_builds_match_the_reference() {
        let conv = |in_ch, out_ch, k, stride, pad, relu| ConvParams {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            relu,
        };
        // Output pixels 1…49 in rows 1…7 wide: ragged last tiles, and
        // tiles that cross rows.
        for h in 1..=7 {
            for w in 1..=7 {
                for out_ch in [1, 5, 9] {
                    let relu = (h + w) % 2 == 0;
                    conv_case(h, w, &conv(3, out_ch, 3, 1, 1, relu), (h * 8 + w) as u64);
                }
            }
        }
        conv_case(1, 40, &conv(2, 6, 1, 1, 0, true), 1);
        conv_case(40, 1, &conv(2, 6, 3, 1, 1, false), 2);
        // Every stride and pad, kernels up to larger than the input, and
        // every channel-group remainder including no channels at all.
        for k in 1..=5 {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for (ih, iw) in [(1, 1), (2, 3), (5, 4), (7, 7)] {
                        if ih + 2 * pad < k || iw + 2 * pad < k {
                            continue;
                        }
                        for out_ch in 0..=9 {
                            let seed = (k * 1000 + stride * 100 + pad * 10 + out_ch) as u64;
                            let p = conv(1 + out_ch % 3, out_ch, k, stride, pad, out_ch % 2 == 0);
                            conv_case(ih, iw, &p, seed);
                        }
                    }
                }
            }
        }
        // A pixel whose only tap falls out of bounds keeps a `-0.0` bias
        // (adding its zero partial would give `+0.0`), and ReLU sees that
        // `-0.0` accumulator.
        let neg_zero = (-0.0f32).to_bits();
        for relu in [false, true] {
            let p = conv(2, 5, 1, 1, 1, relu);
            let input =
                Tensor::from_vec(2, 2, 2, vec![0.5, -0.25, 0.0, -0.0, 1.0, 2.0, -3.0, 0.75]);
            let weights: Vec<f32> = (0..p.weight_count())
                .map(|i| i as f32 * 0.5 - 1.0)
                .collect();
            let out = check_conv_f32(&input, &p, &weights, &[-0.0; 5]);
            if !relu {
                assert_eq!(out[..5], [neg_zero; 5], "corner pixel keeps the bias");
            }
        }
    }

    #[test]
    fn both_batched_dense_builds_match_the_reference() {
        for in_len in [1, 2, 7, 33] {
            for out_len in 0..=9 {
                for batch in 1..=40 {
                    let seed = (in_len * 10_000 + out_len * 100 + batch) as u64;
                    let rows: Vec<Vec<f32>> = (0..batch)
                        .map(|s| {
                            (0..in_len)
                                .map(|i| signed_zeros_at(seed, s * in_len + i))
                                .collect()
                        })
                        .collect();
                    let weights: Vec<f32> = (0..in_len * out_len)
                        .map(|i| signed_zeros_at(seed ^ 0xdead, i))
                        .collect();
                    let bias: Vec<f32> = (0..out_len)
                        .map(|i| signed_zeros_at(seed ^ 0xb1a5, i))
                        .collect();
                    let want: Vec<u32> = rows
                        .iter()
                        .flat_map(|r| {
                            let x = Tensor::vector(r.clone());
                            bits(reference::dense_f32(&x, out_len, false, &weights, &bias).data())
                        })
                        .collect();
                    let mut inputs_t = vec![0.0f32; in_len * batch];
                    for (s, r) in rows.iter().enumerate() {
                        for (i, &v) in r.iter().enumerate() {
                            inputs_t[i * batch + s] = v;
                        }
                    }
                    let case = format!("in_len={in_len} out_len={out_len} batch={batch}");
                    let mut out = vec![f32::NAN; batch * out_len];
                    dense_batch(&inputs_t, in_len, batch, &weights, &bias, &mut out);
                    assert_eq!(bits(&out), want, "plain build: {case}");
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        out.fill(f32::NAN);
                        // SAFETY: AVX2 support was just verified.
                        unsafe {
                            dense_batch_avx2(&inputs_t, in_len, batch, &weights, &bias, &mut out)
                        };
                        assert_eq!(bits(&out), want, "AVX2 build: {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn both_weight_gradient_builds_match_an_in_order_fold() {
        // Features past two tiles of either build, with every remainder.
        for in_len in 1..=40 {
            for out_len in 0..=9 {
                for batch in [1, 2, 5] {
                    let seed = (in_len * 10_000 + out_len * 100 + batch) as u64;
                    let inputs: Vec<f32> = (0..batch * in_len)
                        .map(|i| signed_zeros_at(seed, i))
                        .collect();
                    let err: Vec<f32> = (0..batch * out_len)
                        .map(|i| signed_zeros_at(seed ^ 0xe77, i))
                        .collect();
                    let mut want = vec![0u32; out_len * in_len];
                    for o in 0..out_len {
                        for i in 0..in_len {
                            let mut g = 0.0f32;
                            for s in 0..batch {
                                g += err[s * out_len + o] * inputs[s * in_len + i];
                            }
                            want[o * in_len + i] = g.to_bits();
                        }
                    }
                    let case = format!("in_len={in_len} out_len={out_len} batch={batch}");
                    let mut grad = vec![f32::NAN; out_len * in_len];
                    weight_grad::<GRAD_TILE_IN>(&inputs, in_len, &err, out_len, &mut grad);
                    assert_eq!(bits(&grad), want, "plain build: {case}");
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        grad.fill(f32::NAN);
                        // SAFETY: AVX2 support was just verified.
                        unsafe { weight_grad_avx2(&inputs, in_len, &err, out_len, &mut grad) };
                        assert_eq!(bits(&grad), want, "AVX2 build: {case}");
                    }
                }
            }
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
        let weights = PackedQ::pack(&[1; 8], 2, 1, 4);
        let mut acc = [0i32; 2];
        dense_q_into(
            &qtensor(1, 1, 5, 0),
            &weights,
            &[0; 2],
            &mut Scratch::new(),
            &mut acc,
        );
    }

    fn conv_params(in_ch: usize, k: usize, stride: usize, pad: usize) -> ConvParams {
        ConvParams {
            in_ch,
            out_ch: 2,
            k,
            stride,
            pad,
            relu: false,
        }
    }

    #[test]
    #[should_panic(expected = "conv kernel 5 exceeds padded input 2x2")]
    fn conv_q_rejects_a_kernel_larger_than_the_padded_input() {
        let p = conv_params(1, 5, 1, 0);
        let weights = PackedQ::pack(&[1; 50], 2, 5, 5);
        conv2d_q_into(
            &qtensor(2, 2, 1, 0),
            &p,
            &weights,
            &[0; 2],
            &mut Scratch::new(),
            &mut [0; 2],
        );
    }

    #[test]
    #[should_panic(expected = "conv needs k >= 1 and stride >= 1, got k=1 stride=0")]
    fn conv_q_rejects_a_zero_stride() {
        let p = conv_params(1, 1, 0, 0);
        let weights = PackedQ::pack(&[1; 2], 2, 1, 1);
        conv2d_q_into(
            &qtensor(2, 2, 1, 0),
            &p,
            &weights,
            &[0; 2],
            &mut Scratch::new(),
            &mut [0; 8],
        );
    }

    #[test]
    #[should_panic(expected = "conv kernel 4 exceeds padded input 5x3")]
    fn conv_f32_rejects_a_kernel_larger_than_the_padded_input() {
        let p = conv_params(1, 4, 1, 1);
        conv2d_f32_into(
            &tensor(3, 1, 1, 0.0),
            &p,
            &[0.5; 32],
            &[0.0; 2],
            &mut Scratch::new(),
            &mut [0.0; 2],
        );
    }

    #[test]
    fn packed_weights_read_back_in_natural_order() {
        // One run (dense layers, 1×1 convs) and several, with odd and
        // even run lengths, empty rows and ragged channel blocks.
        for (out_ch, runs, run_len) in [
            (0, 1, 3),
            (5, 1, 0),
            (5, 3, 0),
            (1, 1, 1),
            (17, 1, 7),
            (33, 1, 10),
            (2, 4, 1),
            (17, 3, 7),
            (33, 5, 3),
            (16, 2, 9),
            (40, 3, 6),
        ] {
            let shape = format!("out_ch={out_ch} runs={runs} run_len={run_len}");
            let natural: Vec<i8> = (0..out_ch * runs * run_len)
                .map(|i| (i * 37 % 251) as i8)
                .collect();
            let mut packed = PackedQ::pack(&natural, out_ch, runs, run_len);
            assert_eq!(packed.len(), natural.len());
            assert_eq!(packed.depth(), runs * run_len);
            assert_eq!(packed.unpack(), natural, "{shape}");
            for i in 0..natural.len() {
                *packed.code_mut(i) ^= 0x55;
            }
            let flipped: Vec<i8> = natural.iter().map(|&c| c ^ 0x55).collect();
            assert_eq!(packed.unpack(), flipped, "{shape}");
            // Every stored code that is not a weight (an odd run's last
            // pair, channels past `out_ch`) stays zero.
            let stored = packed.codes.iter().filter(|&&c| c != 0).count();
            let weights = flipped.iter().filter(|&&c| c != 0).count();
            assert_eq!(stored, weights, "{shape}");
        }
    }

    /// Runs each build of the integer GEMM the CPU supports over the conv
    /// `p` on an `ih × iw` input of codes `x(i)` with weights `w(i)`, and
    /// checks the accumulators against the reference conv (and, for a
    /// one-pixel 1×1 conv, the reference dense layer). Every output
    /// pixel goes to one call, so the AVX2 build runs all its 4-pixel
    /// tiles and leftovers. The source's trailing zero is poisoned: only
    /// an odd run's zero weight may meet it. Returns whether the last
    /// pixel's last pair reads it.
    fn check_gemm(
        (ih, iw): (usize, usize),
        p: &ConvParams,
        x: impl Fn(usize) -> i8,
        w: impl Fn(usize) -> i8,
    ) -> bool {
        let ic = p.in_ch;
        let mut input = QTensor::zeros(ih, iw, ic, 1.0);
        for (i, code) in input.codes.iter_mut().enumerate() {
            *code = x(i);
        }
        let wcodes: Vec<i8> = (0..p.weight_count()).map(w).collect();
        let bias_q: Vec<i32> = (0..p.out_ch).map(|oc| oc as i32 * 1013 - 7777).collect();
        let want = reference::conv2d_q(&input, p, &wcodes, &bias_q);
        if (ih, iw) == (1, 1) && p.k == 1 && p.pad == 0 {
            assert_eq!(
                want,
                reference::dense_q(&input, ic, p.out_ch, &wcodes, &bias_q)
            );
        }
        let packed = PackedQ::pack(&wcodes, p.out_ch, p.k, p.k * ic);
        let (oh, ow) = p.out_hw(ih, iw);
        let row_stride = (iw + 2 * p.pad) * ic;
        let bases: Vec<usize> = (0..oh * ow)
            .map(|q| (q / ow * row_stride + q % ow * ic) * p.stride)
            .collect();
        let mut src = Vec::new();
        widen_bordered(&input.codes, ih, iw, ic, p.pad, &mut src);
        *src.last_mut().expect("trailing code") = i16::MIN;
        let last = bases.last().expect("a pixel") + source_reach(&packed, row_stride);
        assert!(last <= src.len(), "reach past the source");
        let check = |build: &str, acc: &[i32]| {
            assert_eq!(acc, want, "{build} build: {ih}x{iw} {p:?}");
        };
        let mut acc = vec![0i32; want.len()];
        gemm_packed(&src, &bases, row_stride, &packed, &bias_q, &mut acc);
        check("plain", &acc);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            acc.fill(0);
            // SAFETY: AVX2 support was just verified.
            unsafe { gemm_packed_avx2(&src, &bases, row_stride, &packed, &bias_q, &mut acc) };
            check("AVX2", &acc);
        }
        p.k * ic % 2 == 1 && last == src.len()
    }

    #[test]
    fn both_gemm_builds_match_the_reference_kernels() {
        let mut rng = Xoshiro256StarStar::seed_from(29);
        let random: Vec<i8> = (0..4099).map(|_| rng.next_u64() as i8).collect();
        let at = |i: usize| random[i % random.len()];
        let wt = |i: usize| at(i * 7 + 1000);
        let conv = |in_ch, out_ch, k, stride, pad| ConvParams {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            relu: false,
        };
        // One run per pixel (1×1 convs; one pixel is a dense layer's
        // call): every block tail width, full blocks and the zero-channel
        // layer; odd and even K, including K = 0 and K = 1; every tile
        // height from one leftover pixel to two 4-pixel tiles and a
        // leftover.
        for out_ch in 0..=40 {
            for depth in [0, 1, 2, 3, 8, 16, 27] {
                for pixels in 1..=9 {
                    check_gemm((1, pixels), &conv(depth, out_ch, 1, 1, 0), at, wt);
                }
            }
        }
        // Kernel rows 1…5, odd and even runs, every stride and pad, and
        // inputs the padding alone makes large enough.
        let mut trailing = 0;
        for k in 1..=5 {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for in_ch in 1..=4 {
                        for hw in [(1, 1), (2, 3), (5, 6)] {
                            if hw.0 + 2 * pad < k || hw.1 + 2 * pad < k {
                                continue;
                            }
                            for out_ch in [1, 16, 17] {
                                let p = conv(in_ch, out_ch, k, stride, pad);
                                trailing += usize::from(check_gemm(hw, &p, at, wt));
                            }
                        }
                    }
                }
            }
        }
        assert!(trailing > 0, "no odd run read the trailing code");
        // Multi-run layers across every block tail width.
        for out_ch in 0..=40 {
            check_gemm((4, 5), &conv(3, out_ch, 3, 1, 1), at, wt);
            check_gemm((6, 5), &conv(2, out_ch, 2, 2, 0), at, wt);
        }
        // Extreme operands: all −128 × −128 gives the largest pair sums,
        // and mixed 127 / −128 both signs of the extremes.
        let mixed = |i: usize| if i.is_multiple_of(3) { 127 } else { -128 };
        for (hw, p) in [
            ((1, 9), conv(64, 16, 1, 1, 0)),
            ((1, 5), conv(33, 40, 1, 1, 0)),
            ((1, 4), conv(1, 17, 1, 1, 0)),
            ((1, 1), conv(255, 3, 1, 1, 0)),
            ((5, 5), conv(7, 20, 3, 1, 1)),
        ] {
            check_gemm(hw, &p, |_| -128, |_| -128);
            check_gemm(hw, &p, mixed, |i| mixed(i + 1));
        }
    }

    /// Runs each build of the fused requantize the CPU supports and
    /// checks every code against the two-step spelling it replaces: the
    /// rescaled value, ReLU'd to `0.0` when negative, staged as a float
    /// and then rounded by [`round_codes_into`].
    fn check_requantize(acc: &[i32], rescales: &[f32], relu: bool, format: IntFormat) {
        let staged: Vec<f32> = acc
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let v = a as f32 * rescales[i % rescales.len()];
                if relu && v < 0.0 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        let mut want = vec![0i8; acc.len()];
        round_codes_into(&staged, format, &mut want);
        let check = |build: &str, codes: &[i8]| {
            if let Some(i) = (0..acc.len()).find(|&i| codes[i] != want[i]) {
                panic!(
                    "{build} build, INT{} relu={relu} channels={}: accumulator {} × {:e} \
                     gave {}, want {}",
                    format.bits(),
                    rescales.len(),
                    acc[i],
                    rescales[i % rescales.len()],
                    codes[i],
                    want[i]
                );
            }
        };
        let range = CodeRange::of(format);
        let mut codes = vec![0i8; acc.len()];
        requantize(acc, rescales, relu, range, &mut codes);
        check("plain", &codes);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            codes.fill(0);
            // SAFETY: AVX2 support was just verified.
            unsafe { requantize_avx2(acc, rescales, relu, range, &mut codes) };
            check("AVX2", &codes);
        }
    }

    #[test]
    fn both_requantize_builds_match_staging_then_rounding() {
        let mut rng = Xoshiro256StarStar::seed_from(43);
        let extremes = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        for bits in 4..=8 {
            let format = IntFormat::new(bits).expect("bits in 1..=8");
            // Accumulators that land on every code, its halves and past
            // the range under a rescale of ±0.5 or ±0.25.
            let near = 4 * (format.max_value() + 3);
            // Every channel count up to 40, so the vector body and the
            // scalar tail of each pixel meet at every remainder.
            for channels in 0..=40 {
                // ±0.5 puts every odd accumulator exactly on a tie, ±0.25
                // every one ≡ 2 (mod 4); `-0.0` and `+0.0` make signed
                // zero products; 1e-9 brings `i32::MAX` into the range;
                // the specials saturate or give NaN.
                let rescales: Vec<f32> = (0..channels)
                    .map(|c| match c % 11 {
                        0 => 0.5,
                        1 => -0.5,
                        2 => 0.25,
                        3 => -0.25,
                        4 => -0.0,
                        5 => 0.0,
                        6 => 1e-9,
                        7 => [f32::INFINITY, f32::NAN, 1e30][c / 11 % 3],
                        _ => (rng.next_f64() * 3.0 - 1.5) as f32,
                    })
                    .collect();
                let acc: Vec<i32> = (0..7 * channels)
                    .map(|i| match rng.next_index(4) {
                        0 => extremes[i % extremes.len()],
                        1 => rng.next_u64() as i32,
                        _ => rng.next_index(2 * near as usize + 1) as i32 - near,
                    })
                    .collect();
                for relu in [false, true] {
                    check_requantize(&acc, &rescales, relu, format);
                    // One pixel at a time runs only each pixel's loop.
                    for pixel in acc.chunks(channels.max(1)) {
                        check_requantize(pixel, &rescales, relu, format);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "accumulators are whole pixels of 3 channels")]
    fn requantize_rejects_a_partial_pixel() {
        let format = IntFormat::new(8).expect("valid width");
        requantize_into(&[1; 4], &[0.5; 3], false, format, &mut [0; 4]);
    }

    /// Runs each build of the rounding pass the CPU supports over `vals`
    /// and checks every code against the scalar spelling
    /// `v.round().clamp(lo, hi) as i8`.
    fn check_round_codes(vals: &[f32], format: IntFormat) {
        let (lo, hi) = (format.min_value() as f32, format.max_value() as f32);
        let want: Vec<i8> = vals.iter().map(|v| v.round().clamp(lo, hi) as i8).collect();
        let range = CodeRange::of(format);
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
        round_codes(vals, range, &mut codes);
        check("plain", &codes);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            codes.fill(0);
            // SAFETY: AVX2 support was just verified.
            unsafe { round_codes_avx2(vals, range, &mut codes) };
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
        // Sixteenths around and past every code range, halves (ties)
        // included, interleaved with random bit patterns.
        let mixed: Vec<f32> = (0..41 * 41)
            .map(|i| match i % 3 {
                0 => random_bits[i],
                _ => (rng.next_u64() % 4800) as f32 / 16.0 - 150.0,
            })
            .collect();
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
            // Every length up to 40, so the vector body and the scalar
            // tail meet at every remainder.
            for len in 0..=40 {
                check_round_codes(&mixed[len * 41..][..len], format);
            }
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns; run in release with --include-ignored"]
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
