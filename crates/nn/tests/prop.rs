//! Property-based tests for the CNN inference stack.

use proptest::prelude::*;
use redvolt_nn::graph::{ConvParams, Graph, GraphBuilder};
use redvolt_nn::prune;
use redvolt_nn::quant::QuantizedGraph;
use redvolt_nn::tensor::Tensor;

/// A small random conv→pool→dense→softmax graph plus a matching image.
fn small_net(seed: u64, relu: bool) -> (Graph, Tensor) {
    let mut b = GraphBuilder::new();
    let x = b.input(6, 6, 2);
    let p = ConvParams {
        in_ch: 2,
        out_ch: 3,
        k: 3,
        stride: 1,
        pad: 1,
        relu,
    };
    let w: Vec<f32> = (0..p.weight_count())
        .map(|i| (((i as u64 + seed) % 17) as f32 / 17.0 - 0.5) * 0.8)
        .collect();
    let y = b.conv("c", x, p, w, vec![0.01, -0.02, 0.0]);
    let m = b.max_pool("p", y, 2, 2);
    let wfc: Vec<f32> = (0..3 * 3 * 3 * 4)
        .map(|i| (((i as u64 * 7 + seed) % 23) as f32 / 23.0 - 0.5) * 0.6)
        .collect();
    let d = b.dense("fc", m, 4, false, wfc, vec![0.0; 4]);
    let s = b.softmax("sm", d);
    let g = b.finish(s);
    let img = Tensor::from_vec(
        6,
        6,
        2,
        (0..72)
            .map(|i| ((i as u64 + seed * 3) % 19) as f32 / 19.0 - 0.5)
            .collect(),
    );
    (g, img)
}

proptest! {
    #[test]
    fn softmax_output_is_a_distribution(seed in 0u64..500, relu in any::<bool>()) {
        let (g, img) = small_net(seed, relu);
        let out = g.forward(&img).unwrap();
        let sum: f32 = out.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
        prop_assert!(out.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn int8_tracks_float_within_tolerance(seed in 0u64..200) {
        let (g, img) = small_net(seed, true);
        let float = g.forward(&img).unwrap();
        let mut q = QuantizedGraph::quantize(&g, 8, std::slice::from_ref(&img)).unwrap();
        let quant = q.forward(&img).unwrap();
        for (a, b) in float.data().iter().zip(quant.data()) {
            prop_assert!((a - b).abs() < 0.12, "float {a} vs int8 {b}");
        }
    }

    #[test]
    fn quantization_error_is_monotone_in_bits(seed in 0u64..100) {
        let (g, img) = small_net(seed, true);
        let float = g.forward(&img).unwrap();
        let err_at = |bits: u32| {
            let mut q = QuantizedGraph::quantize(&g, bits, std::slice::from_ref(&img)).unwrap();
            let out = q.forward(&img).unwrap();
            float
                .data()
                .iter()
                .zip(out.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        // Coarse monotonicity: INT3 must be at least as bad as INT8.
        prop_assert!(err_at(3) >= err_at(8) - 1e-6);
    }

    #[test]
    fn channel_prune_preserves_classifier_width(
        seed in 0u64..100,
        fraction in 0.0f64..0.7,
    ) {
        let (g, img) = small_net(seed, true);
        let p = prune::channel_prune(&g, fraction).unwrap();
        prop_assert_eq!(p.num_classes(), g.num_classes());
        prop_assert!(p.mac_count() <= g.mac_count());
        let out = p.forward(&img).unwrap();
        prop_assert_eq!(out.len(), 4);
    }

    #[test]
    fn bias_centering_preserves_shapes(seed in 0u64..50) {
        let (mut g, img) = small_net(seed, true);
        let before = g.forward(&img).unwrap().len();
        g.center_dense_biases(std::slice::from_ref(&img)).unwrap();
        prop_assert_eq!(g.forward(&img).unwrap().len(), before);
    }
}
