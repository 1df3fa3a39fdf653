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
//!   kernels (`QuantizedGraph::set_reference_kernels`).
//!
//! Shapes are randomized across strides, padding, channel counts and the
//! ReLU flag, including the 1×1-kernel fast case and kernels larger than
//! the input (where padding keeps the output non-empty and most taps fall
//! out of bounds — the regime that distinguishes skip-based from
//! zero-fill-based handling).

use proptest::prelude::*;
use redvolt_nn::dataset::SyntheticDataset;
use redvolt_nn::graph::ConvParams;
use redvolt_nn::kernels::{self, Scratch};
use redvolt_nn::models::{ModelKind, ModelScale};
use redvolt_nn::quant::QuantizedGraph;
use redvolt_nn::reference;
use redvolt_nn::tensor::{QTensor, Tensor};

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
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn conv_f32_bit_identical_across_shapes(
        seed in 0u64..1000,
        ih in 1usize..8,
        iw in 1usize..8,
        ic in 1usize..6,
        out_ch in 1usize..10,
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
    ) {
        let input = Tensor::vector((0..n).map(|i| f32_at(seed, i)).collect());
        let weights: Vec<f32> = (0..n * out_len).map(|i| f32_at(seed ^ 0xdead, i)).collect();
        let bias: Vec<f32> = (0..out_len).map(|i| f32_at(seed ^ 0xb1a5, i)).collect();
        let want = reference::dense_f32(&input, out_len, relu, &weights, &bias);
        let got = kernels::dense_f32(&input, out_len, relu, &weights, &bias);
        prop_assert_eq!(bits(&want), bits(&got));
    }

    #[test]
    fn conv_q_exact_across_shapes(
        seed in 0u64..1000,
        ih in 1usize..8,
        iw in 1usize..8,
        ic in 1usize..6,
        out_ch in 1usize..10,
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
        out_len in 1usize..12,
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
        // One Scratch instance threaded through two very different
        // layers, in both orders — buffer reuse must not leak a larger
        // layer's panel contents into a smaller layer's result.
        let mut scratch = Scratch::new();
        let mut shapes = vec![
            (6usize, 6usize, ConvParams { in_ch: 4, out_ch: 8, k: 3, stride: 1, pad: 1, relu: true }),
            (3, 2, ConvParams { in_ch: 1, out_ch: 3, k: 3, stride: 1, pad: 2, relu: false }),
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
            let mut acc = vec![0i32; oh * ow * p.out_ch];
            kernels::conv2d_q_into(&qin, &p, &wq, &bq, &mut scratch, &mut acc);
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
