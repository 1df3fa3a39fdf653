//! Differential tests: optimized kernels vs the naive references.
//!
//! The contract under test (see `redvolt_nn::kernels` module docs):
//!
//! * float kernels are **bit-identical** to `redvolt_nn::reference` —
//!   compared on `f32::to_bits`, not approximate equality, because the
//!   optimized code must replay the reference accumulation order exactly;
//! * integer kernels produce identical `i32` accumulators (associative
//!   arithmetic, so any blocking/reordering must still be exact);
//! * a whole quantized model gives bit-identical logits on either set of
//!   kernels (`QuantizedGraph::set_reference_kernels`), clean and under a
//!   seeded stream of weight, accumulator and activation flips. The
//!   switch swaps only the conv and dense accumulators: the reference
//!   side reads weights in natural order and the optimized side packed
//!   (`kernels::PackedQ`), so the faulted run checks that every weight
//!   flip lands on the same weight. Both sides turn values into
//!   activation codes with the same passes (`kernels::requantize_into`
//!   and `kernels::round_codes_into`), so their ground truth is not here
//!   but in the exactness tests beside them in `redvolt_nn::kernels`;
//! * the batched readout trainer leaves bit-identical weights and biases
//!   to `reference::fit_softmax_regression`. Parameters are compared, not
//!   logits: the reference's `Iterator::sum` folds from `-0.0` and the
//!   kernels from `+0.0`, which can flip the sign of a zero logit but
//!   never reaches the parameters.
//!
//! Shapes are randomized across strides, padding, channel counts and the
//! ReLU flag, including the 1×1-kernel fast case and kernels larger than
//! the input (where padding keeps the output non-empty and most taps fall
//! out of bounds — the regime that distinguishes skip-based from
//! zero-fill-based handling).

use proptest::prelude::*;
use redvolt_nn::dataset::SyntheticDataset;
use redvolt_nn::graph::{ConvParams, Op};
use redvolt_nn::kernels::{self, PackedQ, Scratch};
use redvolt_nn::models::{ModelKind, ModelScale};
use redvolt_nn::quant::{BitFlip, FaultInjector, FlipRun, QuantizedGraph};
use redvolt_nn::reference;
use redvolt_nn::tensor::{QTensor, Tensor};
use redvolt_nn::train;
use redvolt_num::rng::Xoshiro256StarStar;

/// Deterministic pseudo-random f32 in roughly [-0.6, 0.6], with the
/// occasional exact zero and negative zero so sign-of-zero handling in
/// the float kernels is actually exercised.
fn f32_at(seed: u64, i: usize) -> f32 {
    let h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    match h % 23 {
        0 => 0.0,
        1 => -0.0,
        m => (m as f32 / 23.0 - 0.5) * 1.2,
    }
}

fn i8_at(seed: u64, i: usize) -> i8 {
    let h = seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((h % 255) as i32 - 127) as i8
}

fn bits(t: &Tensor) -> Vec<u32> {
    slice_bits(t.data())
}

fn slice_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// `rows` stored feature-major, the layout `dense_f32_batch_into` reads.
fn transpose(rows: &[Vec<f32>], in_len: usize) -> Vec<f32> {
    (0..in_len)
        .flat_map(|i| rows.iter().map(move |r| r[i]))
        .collect()
}

/// Trains the same seeded readout with the batched trainer and the
/// reference one and asserts bit-identical weights and biases.
fn assert_trainers_agree(
    seed: u64,
    batch: usize,
    dim: usize,
    classes: usize,
    epochs: usize,
    lr: f32,
) {
    let features: Vec<Vec<f32>> = (0..batch)
        .map(|s| (0..dim).map(|i| f32_at(seed, s * dim + i)).collect())
        .collect();
    let labels: Vec<usize> = (0..batch)
        .map(|s| usize::from(i8_at(seed ^ 0x1abe1, s).unsigned_abs()) % classes)
        .collect();
    let w0: Vec<f32> = (0..dim * classes)
        .map(|i| f32_at(seed ^ 0x3e1, i))
        .collect();
    let b0: Vec<f32> = (0..classes).map(|i| f32_at(seed ^ 0xb1a5, i)).collect();
    let (mut want_w, mut want_b) = (w0.clone(), b0.clone());
    reference::fit_softmax_regression(
        &features,
        &labels,
        dim,
        classes,
        &mut want_w,
        &mut want_b,
        epochs,
        lr,
    );
    let (mut w, mut b) = (w0, b0);
    train::fit_softmax_regression(&features, &labels, dim, classes, &mut w, &mut b, epochs, lr);
    assert_eq!(
        slice_bits(&want_w),
        slice_bits(&w),
        "weights: seed={seed} batch={batch} dim={dim} classes={classes} epochs={epochs}"
    );
    assert_eq!(
        slice_bits(&want_b),
        slice_bits(&b),
        "bias: seed={seed} batch={batch} dim={dim} classes={classes} epochs={epochs}"
    );
}

proptest! {
    #[test]
    fn conv_f32_bit_identical_across_shapes(
        seed in 0u64..1000,
        ih in 1usize..20,
        iw in 1usize..20,
        ic in 1usize..6,
        out_ch in 1usize..40,
        k in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
        relu in any::<bool>(),
    ) {
        // Output must be non-empty; k > ih/iw is allowed when padding
        // makes up the difference.
        prop_assume!(ih + 2 * pad >= k && iw + 2 * pad >= k);
        let p = ConvParams { in_ch: ic, out_ch, k, stride, pad, relu };
        let input = Tensor::from_vec(
            ih, iw, ic,
            (0..ih * iw * ic).map(|i| f32_at(seed, i)).collect(),
        );
        let weights: Vec<f32> =
            (0..p.weight_count()).map(|i| f32_at(seed ^ 0x0e1, i)).collect();
        let bias: Vec<f32> = (0..out_ch).map(|i| f32_at(seed ^ 0xb1a5, i)).collect();
        let want = reference::conv2d_f32(&input, &p, &weights, &bias);
        let got = kernels::conv2d_f32(&input, &p, &weights, &bias);
        prop_assert_eq!(bits(&want), bits(&got), "k={} s={} p={}", k, stride, pad);
    }

    #[test]
    fn dense_f32_bit_identical_across_widths(
        seed in 0u64..1000,
        n in 1usize..40,
        out_len in 1usize..12,
        relu in any::<bool>(),
        batch in 1usize..40,
    ) {
        let rows: Vec<Vec<f32>> = (0..batch)
            .map(|s| (0..n).map(|i| f32_at(seed, s * n + i)).collect())
            .collect();
        let weights: Vec<f32> = (0..n * out_len).map(|i| f32_at(seed ^ 0xdead, i)).collect();
        let bias: Vec<f32> = (0..out_len).map(|i| f32_at(seed ^ 0xb1a5, i)).collect();
        let mut batched = vec![0.0f32; batch * out_len];
        kernels::dense_f32_batch_into(
            &transpose(&rows, n), n, batch, &weights, &bias, &mut batched,
        );
        for (s, row) in rows.iter().enumerate() {
            let input = Tensor::vector(row.clone());
            let want = reference::dense_f32(&input, out_len, relu, &weights, &bias);
            let got = kernels::dense_f32(&input, out_len, relu, &weights, &bias);
            prop_assert_eq!(bits(&want), bits(&got));
            let want = reference::dense_f32(&input, out_len, false, &weights, &bias);
            prop_assert_eq!(
                bits(&want),
                slice_bits(&batched[s * out_len..][..out_len]),
                "row {} of {}", s, batch
            );
        }
    }

    #[test]
    fn trainer_bit_identical_to_reference(
        seed in 0u64..1000,
        batch in 1usize..40,
        dim in 1usize..40,
        classes in 1usize..12,
        epochs in 1usize..4,
    ) {
        assert_trainers_agree(seed, batch, dim, classes, epochs, 0.5);
    }

    #[test]
    fn conv_q_exact_across_shapes(
        seed in 0u64..1000,
        ih in 1usize..8,
        iw in 1usize..8,
        ic in 1usize..6,
        out_ch in 1usize..40,
        k in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
    ) {
        prop_assume!(ih + 2 * pad >= k && iw + 2 * pad >= k);
        let p = ConvParams { in_ch: ic, out_ch, k, stride, pad, relu: false };
        let mut input = QTensor::zeros(ih, iw, ic, 0.05);
        for (i, code) in input.codes.iter_mut().enumerate() {
            *code = i8_at(seed, i);
        }
        let wcodes: Vec<i8> = (0..p.weight_count()).map(|i| i8_at(seed ^ 0x77, i)).collect();
        let bias_q: Vec<i32> =
            (0..out_ch).map(|i| i32::from(i8_at(seed ^ 0xb, i)) * 100).collect();
        prop_assert_eq!(
            reference::conv2d_q(&input, &p, &wcodes, &bias_q),
            kernels::conv2d_q(&input, &p, &wcodes, &bias_q),
            "k={} s={} p={}", k, stride, pad
        );
    }

    #[test]
    fn dense_q_exact_across_widths(
        seed in 0u64..1000,
        n in 1usize..60,
        out_len in 1usize..40,
    ) {
        let mut input = QTensor::zeros(1, 1, n, 0.05);
        for (i, code) in input.codes.iter_mut().enumerate() {
            *code = i8_at(seed, i);
        }
        let wcodes: Vec<i8> = (0..n * out_len).map(|i| i8_at(seed ^ 0x42, i)).collect();
        let bias_q: Vec<i32> =
            (0..out_len).map(|i| i32::from(i8_at(seed ^ 0x9, i)) * 7).collect();
        prop_assert_eq!(
            reference::dense_q(&input, n, out_len, &wcodes, &bias_q),
            kernels::dense_q(&input, n, out_len, &wcodes, &bias_q)
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_shapes(
        seed in 0u64..200,
        big_first in any::<bool>(),
    ) {
        // One Scratch instance threaded through very different layers,
        // in both orders — buffer reuse must not leak a larger layer's
        // staged input into a smaller layer's result. In either order a
        // large padded layer is followed by a smaller odd-channel one,
        // whose bordered input would show a stale border.
        let mut scratch = Scratch::new();
        let mut shapes = vec![
            (6usize, 6usize, ConvParams { in_ch: 4, out_ch: 8, k: 3, stride: 1, pad: 1, relu: true }),
            (3, 2, ConvParams { in_ch: 1, out_ch: 3, k: 3, stride: 1, pad: 2, relu: false }),
            (9, 8, ConvParams { in_ch: 6, out_ch: 20, k: 5, stride: 1, pad: 2, relu: false }),
            (4, 3, ConvParams { in_ch: 3, out_ch: 5, k: 3, stride: 2, pad: 1, relu: true }),
        ];
        if big_first {
            shapes.reverse();
        }
        for (n, (h, w, p)) in shapes.into_iter().enumerate() {
            let input = Tensor::from_vec(
                h, w, p.in_ch,
                (0..h * w * p.in_ch).map(|i| f32_at(seed + n as u64, i)).collect(),
            );
            let weights: Vec<f32> =
                (0..p.weight_count()).map(|i| f32_at(seed ^ 0x3, i)).collect();
            let bias: Vec<f32> = vec![0.1; p.out_ch];
            let (oh, ow) = p.out_hw(h, w);
            let mut out = vec![0.0f32; oh * ow * p.out_ch];
            kernels::conv2d_f32_into(&input, &p, &weights, &bias, &mut scratch, &mut out);
            let want = reference::conv2d_f32(&input, &p, &weights, &bias);
            prop_assert_eq!(bits(&want), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

            let mut qin = QTensor::zeros(h, w, p.in_ch, 0.1);
            for (i, code) in qin.codes.iter_mut().enumerate() {
                *code = i8_at(seed + n as u64, i);
            }
            let wq: Vec<i8> = (0..p.weight_count()).map(|i| i8_at(seed ^ 0x5, i)).collect();
            let bq: Vec<i32> = vec![11; p.out_ch];
            let packed = PackedQ::pack(&wq, p.out_ch, p.k, p.k * p.in_ch);
            let mut acc = vec![0i32; oh * ow * p.out_ch];
            kernels::conv2d_q_into(&qin, &p, &packed, &bq, &mut scratch, &mut acc);
            prop_assert_eq!(reference::conv2d_q(&qin, &p, &wq, &bq), acc);
        }
    }
}

/// The 1×1-kernel case hit by GoogleNet/ResNet bottlenecks, pinned
/// explicitly (stride 2 as well, which skips input pixels entirely).
#[test]
fn one_by_one_kernels_match() {
    for stride in [1usize, 2] {
        let p = ConvParams {
            in_ch: 8,
            out_ch: 16,
            k: 1,
            stride,
            pad: 0,
            relu: true,
        };
        let input = Tensor::from_vec(5, 7, 8, (0..5 * 7 * 8).map(|i| f32_at(3, i)).collect());
        let weights: Vec<f32> = (0..p.weight_count()).map(|i| f32_at(19, i)).collect();
        let bias: Vec<f32> = (0..16).map(|i| f32_at(23, i)).collect();
        let want = reference::conv2d_f32(&input, &p, &weights, &bias);
        let got = kernels::conv2d_f32(&input, &p, &weights, &bias);
        assert_eq!(bits(&want), bits(&got), "stride={stride}");
    }
}

/// Kernel strictly larger than the input in both dimensions: every
/// output pixel sees mostly out-of-bounds taps.
#[test]
fn kernel_larger_than_input_matches() {
    let p = ConvParams {
        in_ch: 2,
        out_ch: 3,
        k: 5,
        stride: 1,
        pad: 2,
        relu: false,
    };
    let input = Tensor::from_vec(2, 3, 2, (0..12).map(|i| f32_at(7, i)).collect());
    let weights: Vec<f32> = (0..p.weight_count()).map(|i| f32_at(11, i)).collect();
    let bias = vec![0.5, -0.5, 0.0];
    let want = reference::conv2d_f32(&input, &p, &weights, &bias);
    let got = kernels::conv2d_f32(&input, &p, &weights, &bias);
    assert_eq!(bits(&want), bits(&got));

    let mut qin = QTensor::zeros(2, 3, 2, 0.05);
    for (i, code) in qin.codes.iter_mut().enumerate() {
        *code = i8_at(13, i);
    }
    let wq: Vec<i8> = (0..p.weight_count()).map(|i| i8_at(17, i)).collect();
    let bq = vec![1, -2, 3];
    assert_eq!(
        reference::conv2d_q(&qin, &p, &wq, &bq),
        kernels::conv2d_q(&qin, &p, &wq, &bq)
    );
}

/// Every term `-0.0` and a `-0.0` bias: a fold from `+0.0` gives `+0.0`
/// where `Iterator::sum`, which folds from `-0.0`, would keep the sign.
/// References and kernels must agree on the `+0.0` start.
#[test]
fn all_negative_zero_terms_fold_from_positive_zero() {
    let row = vec![0.0f32, -0.0];
    let weights = [-0.5f32, 0.25];
    let bias = [-0.0f32];
    let want = reference::dense_f32(&Tensor::vector(row.clone()), 1, false, &weights, &bias);
    assert_eq!(bits(&want), [0.0f32.to_bits()]);
    let got = kernels::dense_f32(&Tensor::vector(row.clone()), 1, false, &weights, &bias);
    assert_eq!(bits(&want), bits(&got));
    let mut batched = [1.0f32];
    kernels::dense_f32_batch_into(&row, 2, 1, &weights, &bias, &mut batched);
    assert_eq!(bits(&want), slice_bits(&batched));

    let p = ConvParams {
        in_ch: 2,
        out_ch: 1,
        k: 1,
        stride: 1,
        pad: 0,
        relu: false,
    };
    let input = Tensor::from_vec(1, 1, 2, row);
    let want = reference::conv2d_f32(&input, &p, &weights, &bias);
    assert_eq!(bits(&want), [0.0f32.to_bits()]);
    assert_eq!(
        bits(&want),
        bits(&kernels::conv2d_f32(&input, &p, &weights, &bias))
    );
}

/// Every conv layer of every benchmark CNN at paper scale, on the inputs
/// the float forward pass actually feeds it, against the reference conv.
/// These shapes include ones no proptest draws, such as ResNet50's 2×2
/// layers and its stride-2 1×1 projections.
#[test]
fn paper_scale_conv_layers_match_the_reference() {
    for kind in ModelKind::ALL {
        let graph = kind.build(ModelScale::Paper);
        let shape = graph.input_shape();
        let ds = SyntheticDataset::new(shape.h, shape.w, shape.c, graph.num_classes(), 42);
        let (mut outs, mut scratch) = (Vec::new(), Scratch::new());
        for i in 0..3 {
            graph
                .forward_all_into(&ds.image(i).0, &mut outs, &mut scratch)
                .unwrap();
            let mut convs = 0;
            for (id, node) in graph.nodes().iter().enumerate() {
                if let Op::Conv {
                    params,
                    weights,
                    bias,
                } = &node.op
                {
                    let want = reference::conv2d_f32(&outs[node.inputs[0]], params, weights, bias);
                    assert_eq!(
                        bits(&want),
                        bits(&outs[id]),
                        "{kind:?} {} image {i}",
                        node.name
                    );
                    convs += 1;
                }
            }
            assert!(convs > 0, "{kind:?} has conv layers");
        }
    }
}

/// The trainer at Inception's readout shape (200 fit images, 896
/// features, 50 classes), where every tile edge of the batched products
/// is ragged except the feature one.
#[test]
fn trainer_matches_the_reference_at_inception_shape() {
    assert_trainers_agree(7, 200, 896, 50, 2, 1.0);
}

/// Every benchmark CNN (plus VGGNet at paper scale), quantized to the
/// widest and the narrowest precision Fig 7 sweeps, run end to end on
/// the reference kernels and on the optimized ones.
#[test]
fn whole_quantized_models_match_the_reference_kernels() {
    let cases = ModelKind::ALL
        .iter()
        .map(|&kind| (kind, ModelScale::Tiny))
        .chain([(ModelKind::VggNet, ModelScale::Paper)]);
    for (kind, scale) in cases {
        let graph = kind.build(scale).fold_batch_norms();
        let shape = graph.input_shape();
        let ds = SyntheticDataset::new(shape.h, shape.w, shape.c, graph.num_classes(), 42);
        for precision in [8, 4] {
            let mut optimized = QuantizedGraph::quantize(&graph, precision, &ds.images(4)).unwrap();
            let mut naive = optimized.clone();
            naive.set_reference_kernels(true);
            for i in 4..8 {
                let image = ds.image(i).0;
                assert_eq!(
                    bits(&naive.forward(&image).unwrap()),
                    bits(&optimized.forward(&image).unwrap()),
                    "{kind:?} {scale:?} INT{precision} image {i}"
                );
            }
        }
    }
}

/// A seeded fault stream: each conv/dense layer execution draws 0–3
/// weight flips, some at indices past the end that the executor must
/// drop, 0–2 accumulator runs of 1–40 elements and 0–2 activation flips.
#[derive(Clone)]
struct SeededFlips(Xoshiro256StarStar);

impl SeededFlips {
    /// Up to `max` flips at indices below `bound`, bits below `bits`.
    fn plan(&mut self, max: usize, bound: usize, bits: u32) -> Vec<BitFlip> {
        if bound == 0 {
            return Vec::new();
        }
        let n = self.0.next_index(max + 1);
        (0..n)
            .map(|_| BitFlip {
                index: self.0.next_index(bound),
                bit: self.0.next_bounded_u32(bits),
            })
            .collect()
    }
}

impl FaultInjector for SeededFlips {
    fn plan_weight_faults(&mut self, _: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        self.plan(3, len + len / 4 + 1, bits)
    }

    fn plan_accumulator_faults(&mut self, _: &str, len: usize, _: usize) -> Vec<FlipRun> {
        self.plan(2, len, 31)
            .into_iter()
            .map(|f| FlipRun {
                start: f.index,
                len: 1 + self.0.next_index((len - f.index).min(40)),
                bit: f.bit,
            })
            .collect()
    }

    fn plan_activation_faults(&mut self, _: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        self.plan(2, len, bits)
    }
}

/// The whole-model comparison under faults, for every benchmark CNN at
/// tiny and at paper scale: identically seeded fault streams must give
/// bit-identical logits on the reference and the optimized kernels.
#[test]
fn faulted_quantized_models_match_the_reference_kernels() {
    let cases = ModelKind::ALL
        .iter()
        .flat_map(|&kind| [(kind, ModelScale::Tiny), (kind, ModelScale::Paper)]);
    let mut perturbed = 0;
    for (case, (kind, scale)) in cases.enumerate() {
        let graph = kind.build(scale).fold_batch_norms();
        let shape = graph.input_shape();
        let ds = SyntheticDataset::new(shape.h, shape.w, shape.c, graph.num_classes(), 42);
        for precision in [8, 4] {
            let mut optimized = QuantizedGraph::quantize(&graph, precision, &ds.images(4)).unwrap();
            let mut naive = optimized.clone();
            naive.set_reference_kernels(true);
            for i in 4..7 {
                let image = ds.image(i).0;
                let seed = (case * 100 + precision as usize * 10 + i) as u64;
                let faults = SeededFlips(Xoshiro256StarStar::seed_from(seed));
                let got = bits(&optimized.forward_with(&image, &mut faults.clone()).unwrap());
                assert_eq!(
                    bits(&naive.forward_with(&image, &mut faults.clone()).unwrap()),
                    got,
                    "{kind:?} {scale:?} INT{precision} image {i}"
                );
                if got != bits(&optimized.forward(&image).unwrap()) {
                    perturbed += 1;
                }
            }
        }
    }
    // The fault stream must actually reach the logits.
    assert!(perturbed > 0, "no faulted run changed its logits");
}
