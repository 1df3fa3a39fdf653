//! Property-based tests for the numeric substrates.

use proptest::prelude::*;
use redvolt_num::fixed::{IntFormat, QuantScale};
use redvolt_num::pchip::Pchip;
use redvolt_num::rng::Xoshiro256StarStar;
use redvolt_num::stats::Summary;

fn monotone_knots() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (3usize..10).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.01f64..10.0, n),
            proptest::collection::vec(0.01f64..5.0, n),
        )
            .prop_map(|(dx, dy)| {
                let xs: Vec<f64> = dx
                    .iter()
                    .scan(0.0, |acc, d| {
                        *acc += d;
                        Some(*acc)
                    })
                    .collect();
                let ys: Vec<f64> = dy
                    .iter()
                    .scan(0.0, |acc, d| {
                        *acc += d;
                        Some(*acc)
                    })
                    .collect();
                (xs, ys)
            })
    })
}

proptest! {
    #[test]
    fn pchip_preserves_monotonicity((xs, ys) in monotone_knots()) {
        let p = Pchip::new(&xs, &ys).unwrap();
        let lo = xs[0];
        let hi = *xs.last().unwrap();
        let mut prev = p.eval(lo);
        for i in 1..=200 {
            let x = lo + (hi - lo) * i as f64 / 200.0;
            let y = p.eval(x);
            prop_assert!(y >= prev - 1e-9, "non-monotone at {x}: {y} < {prev}");
            prev = y;
        }
    }

    #[test]
    fn pchip_interpolates_all_knots((xs, ys) in monotone_knots()) {
        let p = Pchip::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!((p.eval(*x) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn quantize_round_trip_error_bounded(
        max_abs in 0.01f64..100.0,
        value in -150.0f64..150.0,
        bits in 2u32..=8,
    ) {
        let q = QuantScale::for_max_abs(max_abs, IntFormat::new(bits).unwrap());
        let clamped = value.clamp(-max_abs, max_abs);
        let err = (q.dequantize(q.quantize(clamped)) - clamped).abs();
        prop_assert!(err <= q.scale / 2.0 + 1e-12, "err {err} > half step {}", q.scale / 2.0);
    }

    #[test]
    fn sign_extend_round_trips_all_codes(bits in 1u32..=8) {
        let f = IntFormat::new(bits).unwrap();
        for v in f.min_value()..=f.max_value() {
            prop_assert_eq!(f.sign_extend(f.to_raw(v)), v);
        }
    }

    #[test]
    fn summary_mean_is_between_min_and_max(samples in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert!(s.mean >= s.min - 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    #[test]
    fn rng_bounded_draws_stay_in_bounds(seed in any::<u64>(), bound in 1u32..1000) {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_bounded_u32(bound) < bound);
        }
    }

    #[test]
    fn rng_substreams_are_independent_of_draw_order(seed in any::<u64>()) {
        let root = Xoshiro256StarStar::seed_from(seed);
        let mut a1 = root.substream(1);
        let first = a1.next_u64();
        // Drawing from substream 2 must not perturb substream 1's sequence.
        let mut b = root.substream(2);
        let _ = b.next_u64();
        let mut a2 = root.substream(1);
        prop_assert_eq!(a2.next_u64(), first);
    }
}
