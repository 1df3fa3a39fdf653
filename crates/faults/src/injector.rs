//! Deterministic burst bit-flip injector.
//!
//! Implements [`redvolt_nn::quant::FaultInjector`] by sampling, for each
//! layer execution, a Poisson-distributed number of *fault events* at the
//! rates of a [`FaultRates`] operating point.
//!
//! A timing-fault event is **correlated**, not an isolated upset: a
//! physical path that misses timing fails for the whole tile it is
//! streaming, so one datapath event corrupts a *burst* of consecutive
//! outputs in one MAC lane, all at the same bit position. And because the
//! most-significant accumulator bits arrive last through the carry chain,
//! the bits that miss timing first are the *high* bits — which is why
//! undervolting faults are so damaging to CNN accuracy (§4.4) compared to
//! random soft errors. Weight-fetch faults (BRAM read upsets) remain
//! independent single-bit flips.
//!
//! An accumulator burst is planned as a run ([`FlipRun`]), not as one
//! flip per output: the burst's start, length and bit, split in two where
//! it wraps past the buffer end. Activation bursts stay lists of single
//! flips, which the ECC wrapper regroups by storage word. Either way the
//! injector's random draws, their order and `injected_count` are those of
//! one flip per corrupted element.

use crate::model::FaultRates;
use redvolt_nn::quant::{BitFlip, FaultInjector, FlipRun};
use redvolt_num::rng::Xoshiro256StarStar;
use std::ops::Range;

/// Accumulator bit range hit by datapath fault events: the late-arriving
/// carry-chain bits of the 32-bit MAC accumulator.
pub const ACC_FAULT_BIT_LO: u32 = 12;
/// Exclusive upper end of the accumulator fault-bit range.
pub const ACC_FAULT_BIT_HI: u32 = 25;

/// Log2 of the minimum datapath burst length (16 outputs).
const BURST_LOG2_MIN: u32 = 4;
/// Log2 of the maximum datapath burst length (512 outputs).
const BURST_LOG2_MAX: u32 = 9;

/// Burst length of activation-buffer write events.
const ACT_BURST: usize = 32;

/// Cap on expected events per layer call: past this everything is
/// corrupted anyway and larger plans only waste memory (reachable only
/// below the crash boundary, where the board hangs first).
const MAX_EXPECTED_EVENTS: f64 = 2000.0;

/// A seeded injector bound to one operating point's fault rates.
///
/// # Examples
///
/// ```
/// use redvolt_faults::injector::SlackFaultInjector;
/// use redvolt_faults::model::FaultRates;
/// use redvolt_nn::quant::FaultInjector;
///
/// let rates = FaultRates::for_deficit(0.3);
/// let mut inj = SlackFaultInjector::new(rates, 42);
/// let plan = inj.plan_accumulator_faults("conv1", 4096, 288);
/// // Deterministic given the seed.
/// let mut inj2 = SlackFaultInjector::new(rates, 42);
/// assert_eq!(plan, inj2.plan_accumulator_faults("conv1", 4096, 288));
/// ```
#[derive(Debug, Clone)]
pub struct SlackFaultInjector {
    rates: FaultRates,
    rng: Xoshiro256StarStar,
    injected: u64,
    events: u64,
}

impl SlackFaultInjector {
    /// Creates an injector for the given rates and seed.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        SlackFaultInjector {
            rates,
            rng: Xoshiro256StarStar::seed_from(seed ^ 0xFA017),
            injected: 0,
            events: 0,
        }
    }

    /// The operating point's rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Total bit flips injected so far (across all site classes).
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// Total fault events so far (each event may flip many bits).
    pub fn event_count(&self) -> u64 {
        self.events
    }

    fn sample_events(&mut self, expected: f64) -> u64 {
        if expected <= 0.0 {
            return 0;
        }
        let n = self.rng.next_poisson(expected.min(MAX_EXPECTED_EVENTS));
        self.events += n;
        n
    }

    /// One correlated datapath burst in a `len`-element accumulator
    /// buffer: consecutive indices, one high bit, as at most two runs.
    fn accumulator_burst(&mut self, len: usize, out: &mut Vec<FlipRun>) {
        let start = self.rng.next_index(len);
        let burst_len = 1usize
            << self
                .rng
                .next_bounded_u32(BURST_LOG2_MAX - BURST_LOG2_MIN + 1)
                .saturating_add(BURST_LOG2_MIN);
        let bit = ACC_FAULT_BIT_LO
            + self
                .rng
                .next_bounded_u32(ACC_FAULT_BIT_HI - ACC_FAULT_BIT_LO);
        for run in wrapped_burst(start, burst_len, len) {
            if !run.is_empty() {
                out.push(FlipRun {
                    start: run.start,
                    len: run.len(),
                    bit,
                });
            }
        }
    }
}

impl FaultInjector for SlackFaultInjector {
    fn plan_weight_faults(&mut self, _layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        if len == 0 {
            return Vec::new();
        }
        let n = self.sample_events(self.rates.per_weight * len as f64);
        let mut flips = Vec::with_capacity(n as usize);
        for _ in 0..n {
            flips.push(BitFlip {
                index: self.rng.next_index(len),
                bit: self.rng.next_bounded_u32(bits),
            });
        }
        self.injected += flips.len() as u64;
        flips
    }

    fn plan_accumulator_faults(
        &mut self,
        _layer: &str,
        len: usize,
        macs_per_out: usize,
    ) -> Vec<FlipRun> {
        if len == 0 {
            return Vec::new();
        }
        let expected = self.rates.per_mac * (len * macs_per_out) as f64;
        let n = self.sample_events(expected);
        let mut runs = Vec::new();
        for _ in 0..n {
            self.accumulator_burst(len, &mut runs);
        }
        self.injected += runs.iter().map(|r| r.len as u64).sum::<u64>();
        runs
    }

    fn plan_activation_faults(&mut self, _layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        if len == 0 {
            return Vec::new();
        }
        let n = self.sample_events(self.rates.per_activation * len as f64);
        let mut flips = Vec::new();
        for _ in 0..n {
            let start = self.rng.next_index(len);
            let bit = self.rng.next_bounded_u32(bits);
            for run in wrapped_burst(start, ACT_BURST, len) {
                flips.extend(run.map(|index| BitFlip { index, bit }));
            }
        }
        self.injected += flips.len() as u64;
        flips
    }
}

/// The indices one burst of `burst_len` from `start` (below `len`) covers
/// in a `len`-element buffer, as two ranges: from `start` towards the
/// buffer end, then the wrapped tail from index 0, empty when the burst
/// fits. The failing lane keeps streaming from the start of the buffer,
/// so the overflow lands there instead of being dropped. The burst is
/// capped at `len` distinct indices (a longer burst would revisit sites,
/// and XOR-applied revisits cancel, which would make `injected_count`
/// overstate the corrupted sites).
fn wrapped_burst(start: usize, burst_len: usize, len: usize) -> [Range<usize>; 2] {
    let n = burst_len.min(len);
    let head = n.min(len - start);
    [start..start + head, 0..n - head]
}

/// An *ablation* injector: same event rates as [`SlackFaultInjector`] but
/// every event is a single independent uniform bit flip (the naive
/// soft-error-style model). Exists to demonstrate why the correlated
/// burst model is necessary: CNNs absorb independent single-bit upsets
/// almost entirely, which would contradict the paper's measured accuracy
/// collapse below Vmin.
#[derive(Debug, Clone)]
pub struct SingleBitFaultInjector {
    rates: FaultRates,
    rng: Xoshiro256StarStar,
    injected: u64,
}

impl SingleBitFaultInjector {
    /// Creates the ablation injector for the given rates and seed.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        SingleBitFaultInjector {
            rates,
            rng: Xoshiro256StarStar::seed_from(seed ^ 0x51B17),
            injected: 0,
        }
    }

    /// Total bit flips injected so far.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    fn plan(&mut self, expected: f64, len: usize, bits: u32) -> Vec<BitFlip> {
        if expected <= 0.0 || len == 0 {
            return Vec::new();
        }
        let n = self.rng.next_poisson(expected.min(MAX_EXPECTED_EVENTS));
        let mut flips = Vec::with_capacity(n as usize);
        for _ in 0..n {
            flips.push(BitFlip {
                index: self.rng.next_index(len),
                bit: self.rng.next_bounded_u32(bits),
            });
        }
        self.injected += n;
        flips
    }
}

impl FaultInjector for SingleBitFaultInjector {
    fn plan_weight_faults(&mut self, _layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        let expected = self.rates.per_weight * len as f64;
        self.plan(expected, len, bits)
    }

    fn plan_accumulator_faults(
        &mut self,
        _layer: &str,
        len: usize,
        macs_per_out: usize,
    ) -> Vec<FlipRun> {
        let expected = self.rates.per_mac * (len * macs_per_out) as f64;
        self.plan(expected, len, 31)
            .into_iter()
            .map(|f| FlipRun {
                start: f.index,
                len: 1,
                bit: f.bit,
            })
            .collect()
    }

    fn plan_activation_faults(&mut self, _layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        let expected = self.rates.per_activation * len as f64;
        self.plan(expected, len, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One flip per element of each run, in plan order.
    fn flips(runs: &[FlipRun]) -> Vec<BitFlip> {
        runs.iter()
            .flat_map(|r| (r.start..r.start + r.len).map(|index| BitFlip { index, bit: r.bit }))
            .collect()
    }

    #[test]
    fn zero_rates_plan_nothing() {
        let mut inj = SlackFaultInjector::new(FaultRates::default(), 1);
        assert!(inj.plan_weight_faults("l", 1000, 8).is_empty());
        assert!(inj.plan_accumulator_faults("l", 1000, 100).is_empty());
        assert!(inj.plan_activation_faults("l", 1000, 8).is_empty());
        assert_eq!(inj.injected_count(), 0);
        assert_eq!(inj.event_count(), 0);
    }

    #[test]
    fn event_counts_follow_expectation() {
        let rates = FaultRates {
            per_mac: 1e-4,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 7);
        let trials = 3000;
        for _ in 0..trials {
            inj.plan_accumulator_faults("l", 100, 100); // expected 1 event
        }
        let mean = inj.event_count() as f64 / trials as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn datapath_bursts_are_correlated_high_bit_runs() {
        let rates = FaultRates {
            per_mac: 5e-5,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 3);
        let mut saw_burst = false;
        for _ in 0..200 {
            let plan = flips(&inj.plan_accumulator_faults("l", 10_000, 100));
            if plan.len() >= 2 {
                saw_burst = true;
                // Same bit, consecutive indices within an event's run.
                let bit = plan[0].bit;
                assert!((ACC_FAULT_BIT_LO..ACC_FAULT_BIT_HI).contains(&bit));
                // Consecutive within the run, modulo the buffer length
                // (a burst starting at the last index wraps to 0).
                assert_eq!(plan[1].index, (plan[0].index + 1) % 10_000);
            }
            for f in &plan {
                assert!(f.index < 10_000);
            }
        }
        assert!(saw_burst, "expected at least one multi-flip burst");
    }

    #[test]
    fn bursts_clip_at_buffer_end() {
        // Historically flips past the buffer end were silently dropped,
        // which made `injected_count` overstate the corruption the model
        // actually applied. Bursts now wrap deterministically: every flip
        // stays in bounds, an event's flips are distinct sites, and the
        // count matches the emitted plan exactly.
        let rates = FaultRates {
            per_mac: 1.0, // guarantee events
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 5);
        let mut total = 0u64;
        let mut saw_wrap = false;
        for _ in 0..50 {
            // A 10-element buffer is smaller than the minimum burst, so
            // every event wraps into exactly one full cover of the buffer
            // — which also means plan chunks align with events.
            let plan = flips(&inj.plan_accumulator_faults("l", 10, 1));
            total += plan.len() as u64;
            assert_eq!(plan.len() % 10, 0, "events must cover the buffer");
            for event in plan.chunks(10) {
                let mut seen = [false; 10];
                for f in event {
                    assert!(f.index < 10);
                    if f.index < event[0].index {
                        saw_wrap = true;
                    }
                    assert!(!seen[f.index], "event revisits index {}", f.index);
                    seen[f.index] = true;
                }
            }
        }
        assert_eq!(inj.injected_count(), total, "count must match the plan");
        assert!(saw_wrap, "expected at least one wrapped burst");
    }

    #[test]
    fn weight_faults_are_single_flips_within_width() {
        let rates = FaultRates {
            per_mac: 0.0,
            per_weight: 1e-2,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 9);
        for _ in 0..100 {
            for f in inj.plan_weight_faults("l", 500, 4) {
                assert!(f.index < 500);
                assert!(f.bit < 4);
            }
        }
        assert!(inj.injected_count() > 0);
        assert_eq!(inj.injected_count(), inj.event_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let rates = FaultRates::for_deficit(0.4);
        let mut a = SlackFaultInjector::new(rates, 11);
        let mut b = SlackFaultInjector::new(rates, 11);
        for _ in 0..10 {
            assert_eq!(
                flips(&a.plan_accumulator_faults("x", 256, 512)),
                flips(&b.plan_accumulator_faults("x", 256, 512))
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let rates = FaultRates::for_deficit(0.5);
        let mut a = SlackFaultInjector::new(rates, 1);
        let mut b = SlackFaultInjector::new(rates, 2);
        let pa: Vec<_> = (0..20)
            .flat_map(|_| flips(&a.plan_accumulator_faults("x", 1024, 512)))
            .collect();
        let pb: Vec<_> = (0..20)
            .flat_map(|_| flips(&b.plan_accumulator_faults("x", 1024, 512)))
            .collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn single_bit_injector_spreads_flips() {
        let rates = FaultRates {
            per_mac: 1e-4,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SingleBitFaultInjector::new(rates, 7);
        let mut total = 0usize;
        for _ in 0..2000 {
            let plan = inj.plan_accumulator_faults("l", 100, 100);
            // One flip per event, never bursts.
            assert!(plan.iter().all(|r| r.len == 1 && r.start < 100));
            total += flips(&plan).len();
        }
        assert_eq!(total as u64, inj.injected_count());
        let mean = total as f64 / 2000.0;
        assert!((mean - 1.0).abs() < 0.12, "mean = {mean}");
    }

    #[test]
    fn expected_events_are_capped() {
        // Absurd rates (reachable only past crash) must not blow memory.
        let rates = FaultRates {
            per_mac: 1e6,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 13);
        let plan = flips(&inj.plan_accumulator_faults("l", 1000, 1000));
        assert!(plan.len() < 3000 * 512, "plan len = {}", plan.len());
    }
}
