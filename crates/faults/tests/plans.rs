//! Pins `SlackFaultInjector`'s plans to a per-flip planner.
//!
//! The injector plans an accumulator burst as at most two runs and an
//! activation burst as two index ranges. `PerFlipPlanner` below plans
//! both one flip at a time, `(start + i) % len`, with the same seed
//! derivation and the same random draws in the same order. Over random
//! rates, seeds, buffer lengths (below the 16-output minimum burst, where
//! every event wraps, and up to 2000) and sequences of weight,
//! accumulator and activation plans, the expanded runs must equal the
//! flips, and the flip and event counters must agree after every call.

use proptest::prelude::*;
use redvolt_faults::injector::SlackFaultInjector;
use redvolt_faults::model::FaultRates;
use redvolt_nn::quant::{BitFlip, FaultInjector, FlipRun};
use redvolt_num::rng::Xoshiro256StarStar;

/// One flip per element of each run, in plan order.
fn expand(runs: &[FlipRun]) -> Vec<BitFlip> {
    runs.iter()
        .flat_map(|r| (r.start..r.start + r.len).map(|index| BitFlip { index, bit: r.bit }))
        .collect()
}

/// The injector's planner spelled one flip at a time.
struct PerFlipPlanner {
    rates: FaultRates,
    rng: Xoshiro256StarStar,
    injected: u64,
    events: u64,
}

impl PerFlipPlanner {
    fn new(rates: FaultRates, seed: u64) -> Self {
        PerFlipPlanner {
            rates,
            rng: Xoshiro256StarStar::seed_from(seed ^ 0xFA017),
            injected: 0,
            events: 0,
        }
    }

    fn sample_events(&mut self, expected: f64) -> u64 {
        if expected <= 0.0 {
            return 0;
        }
        // At most 2000 expected events per layer call.
        let n = self.rng.next_poisson(expected.min(2000.0));
        self.events += n;
        n
    }

    fn push_burst(&mut self, start: usize, burst: usize, len: usize, bit: u32) -> Vec<BitFlip> {
        let flips: Vec<BitFlip> = (0..burst.min(len))
            .map(|i| BitFlip {
                index: (start + i) % len,
                bit,
            })
            .collect();
        self.injected += flips.len() as u64;
        flips
    }

    fn weight(&mut self, len: usize, bits: u32) -> Vec<BitFlip> {
        if len == 0 {
            return Vec::new();
        }
        let n = self.sample_events(self.rates.per_weight * len as f64);
        let flips: Vec<BitFlip> = (0..n)
            .map(|_| BitFlip {
                index: self.rng.next_index(len),
                bit: self.rng.next_bounded_u32(bits),
            })
            .collect();
        self.injected += flips.len() as u64;
        flips
    }

    fn accumulator(&mut self, len: usize, macs_per_out: usize) -> Vec<BitFlip> {
        if len == 0 {
            return Vec::new();
        }
        let n = self.sample_events(self.rates.per_mac * (len * macs_per_out) as f64);
        let mut flips = Vec::new();
        for _ in 0..n {
            let start = self.rng.next_index(len);
            // Bursts of 2^4 to 2^9 outputs at a bit in 12..25.
            let burst = 1usize << self.rng.next_bounded_u32(6).saturating_add(4);
            let bit = 12 + self.rng.next_bounded_u32(13);
            flips.extend(self.push_burst(start, burst, len, bit));
        }
        flips
    }

    fn activation(&mut self, len: usize, bits: u32) -> Vec<BitFlip> {
        if len == 0 {
            return Vec::new();
        }
        let n = self.sample_events(self.rates.per_activation * len as f64);
        let mut flips = Vec::new();
        for _ in 0..n {
            let start = self.rng.next_index(len);
            let bit = self.rng.next_bounded_u32(bits);
            // Activation bursts are 32 codes long.
            flips.extend(self.push_burst(start, 32, len, bit));
        }
        flips
    }
}

/// A rate `10^exponent`, or zero for exponents below -9.
fn rate(exponent: f64) -> f64 {
    if exponent < -9.0 {
        0.0
    } else {
        10f64.powf(exponent)
    }
}

proptest! {
    #[test]
    fn plans_match_the_per_flip_planner(
        seed in any::<u64>(),
        exponents in (-10.0f64..-4.5, -10.0f64..-2.0, -10.0f64..-2.0),
        calls in proptest::collection::vec(
            (0u8..3, any::<bool>(), 1usize..16, 1usize..2001, 1usize..600, 1u32..9),
            1..8,
        ),
    ) {
        let rates = FaultRates {
            per_mac: rate(exponents.0),
            per_weight: rate(exponents.1),
            per_activation: rate(exponents.2),
        };
        let mut injector = SlackFaultInjector::new(rates, seed);
        let mut planner = PerFlipPlanner::new(rates, seed);
        for (call, &(kind, short, short_len, long_len, macs, bits)) in calls.iter().enumerate() {
            let len = if short { short_len } else { long_len };
            let at = format!("seed {seed} rates {rates:?} call {call}: kind {kind} len {len}");
            match kind {
                0 => prop_assert_eq!(
                    injector.plan_weight_faults("l", len, bits),
                    planner.weight(len, bits),
                    "{}", at
                ),
                1 => {
                    let events = planner.events;
                    let runs = injector.plan_accumulator_faults("l", len, macs);
                    prop_assert_eq!(expand(&runs), planner.accumulator(len, macs), "{}", at);
                    prop_assert!(
                        runs.iter().all(|r| r.len > 0 && r.start + r.len <= len),
                        "{}: runs {:?}", at, runs
                    );
                    prop_assert!(runs.len() as u64 <= 2 * (planner.events - events), "{}", at);
                }
                _ => prop_assert_eq!(
                    injector.plan_activation_faults("l", len, bits),
                    planner.activation(len, bits),
                    "{}", at
                ),
            }
            prop_assert_eq!(injector.injected_count(), planner.injected, "{}", at);
            prop_assert_eq!(injector.event_count(), planner.events, "{}", at);
        }
    }
}

/// Saturated rates hit the 2000-event cap on short buffers, where every
/// burst covers the whole buffer and wraps.
#[test]
fn capped_plans_on_short_buffers_match_the_per_flip_planner() {
    let rates = FaultRates {
        per_mac: 1.0,
        per_weight: 0.0,
        per_activation: 1.0,
    };
    for seed in 0..8 {
        let mut injector = SlackFaultInjector::new(rates, seed);
        let mut planner = PerFlipPlanner::new(rates, seed);
        for len in [1, 2, 15, 16, 17, 40] {
            let runs = injector.plan_accumulator_faults("l", len, 4000);
            assert_eq!(
                expand(&runs),
                planner.accumulator(len, 4000),
                "seed {seed} len {len}"
            );
            assert_eq!(
                injector.plan_activation_faults("l", len, 8),
                planner.activation(len, 8),
                "seed {seed} len {len}"
            );
        }
        assert_eq!(injector.injected_count(), planner.injected, "seed {seed}");
        assert_eq!(injector.event_count(), planner.events, "seed {seed}");
    }
}
