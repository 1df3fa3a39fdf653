//! SECDED filtering of BRAM-resident fault plans.
//!
//! Weight and activation buffers live in block RAM, which ships the
//! built-in SECDED(72,64) code modeled in [`redvolt_fpga::ecc`]; MAC
//! accumulators live in DSP slices and carry no ECC. [`EccInjector`]
//! wraps any [`FaultInjector`] and pushes every planned weight/activation
//! flip through the real codec: flips are grouped into the 64-bit ECC
//! word their storage falls in (eight 8-bit codes per word), the word's
//! error pattern is encoded and decoded, and the decode outcome decides
//! the flip's fate:
//!
//! * `Corrected` — a single-bit upset; under [`DefenseMode::Correct`] the
//!   flip is dropped (the hardware fixed the read) and recorded as a
//!   latent stored upset for the scrubber; under `Detect` it is counted
//!   but still delivered (monitoring without correction).
//! * `Uncorrectable` — a multi-bit pattern; the flips are delivered and
//!   the event is counted, feeding the governor's escalation signal.
//!
//! Accumulator plans pass through untouched — defending those is ABFT's
//! job (`redvolt_nn::abft`). With [`DefenseMode::Off`] the wrapper is
//! fully transparent.

use redvolt_fpga::ecc::{self, Decode};
use redvolt_nn::abft::DefenseMode;
use redvolt_nn::quant::{BitFlip, FaultInjector, FlipRun};

/// Quantized weight/activation codes stored per 64-bit ECC word.
pub const CODES_PER_WORD: usize = 8;

/// ECC event counters for one injector lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Words whose single-bit upset the code corrected.
    pub corrected_words: u64,
    /// Words with a multi-bit (detectable, uncorrectable) pattern.
    pub uncorrectable_words: u64,
    /// Individual flips dropped by correction.
    pub dropped_flips: u64,
    /// Individual flips delivered despite ECC (uncorrectable words, or
    /// all flips when not correcting).
    pub delivered_flips: u64,
}

impl EccStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &EccStats) {
        self.corrected_words += other.corrected_words;
        self.uncorrectable_words += other.uncorrectable_words;
        self.dropped_flips += other.dropped_flips;
        self.delivered_flips += other.delivered_flips;
    }
}

/// A [`FaultInjector`] adapter applying SECDED(72,64) to weight and
/// activation fault plans.
#[derive(Debug)]
pub struct EccInjector<I> {
    inner: I,
    mode: DefenseMode,
    stats: EccStats,
    /// Corrected-on-read upsets not yet retired by a scrub pass; drained
    /// by the runtime into its [`redvolt_fpga::ecc::Scrubber`].
    latent: u64,
}

impl<I: FaultInjector> EccInjector<I> {
    /// Wraps `inner`, filtering per `mode`.
    pub fn new(inner: I, mode: DefenseMode) -> Self {
        EccInjector {
            inner,
            mode,
            stats: EccStats::default(),
            latent: 0,
        }
    }

    /// Accumulated ECC event counters.
    pub fn stats(&self) -> EccStats {
        self.stats
    }

    /// Drains the corrected-upset count destined for the scrubber.
    pub fn take_latent(&mut self) -> u64 {
        std::mem::take(&mut self.latent)
    }

    /// The wrapped injector.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Consumes the adapter, returning the wrapped injector.
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// Runs one plan through the codec. Flips are grouped by the ECC word
    /// containing their target code; each faulted word's error pattern is
    /// decoded with the real SECDED implementation.
    fn filter(&mut self, mut flips: Vec<BitFlip>) -> Vec<BitFlip> {
        if self.mode == DefenseMode::Off || flips.is_empty() {
            return flips;
        }
        // Group flips by word without allocating a map: sort by word
        // index (stable on the original order within a word).
        flips.sort_by_key(|f| f.index / CODES_PER_WORD);
        let mut out = Vec::with_capacity(flips.len());
        let mut i = 0;
        while i < flips.len() {
            let word = flips[i].index / CODES_PER_WORD;
            let mut j = i;
            // Build the word's error pattern: code k, bit b lands on data
            // bit (k mod 8)*8 + b of the 64-bit ECC word.
            let mut pattern = 0u64;
            while j < flips.len() && flips[j].index / CODES_PER_WORD == word {
                let data_bit = (flips[j].index % CODES_PER_WORD) as u32 * 8 + (flips[j].bit % 8);
                pattern ^= 1u64 << data_bit;
                j += 1;
            }
            // The decode outcome depends only on the error pattern, never
            // on the stored value — encode any word and corrupt it.
            let clean = ecc::encode(0);
            let read = ecc::Codeword {
                data: clean.data ^ pattern,
                check: clean.check,
            };
            match ecc::decode(read) {
                Decode::Clean(_) => {
                    // Paired flips cancelled (same code, same bit twice):
                    // nothing to deliver and nothing stored.
                    self.stats.dropped_flips += (j - i) as u64;
                }
                Decode::Corrected(_) => {
                    self.stats.corrected_words += 1;
                    if self.mode == DefenseMode::Correct {
                        self.stats.dropped_flips += (j - i) as u64;
                        self.latent += 1;
                    } else {
                        self.stats.delivered_flips += (j - i) as u64;
                        out.extend_from_slice(&flips[i..j]);
                    }
                }
                Decode::Uncorrectable(_) => {
                    self.stats.uncorrectable_words += 1;
                    self.stats.delivered_flips += (j - i) as u64;
                    out.extend_from_slice(&flips[i..j]);
                }
            }
            i = j;
        }
        out
    }
}

impl<I: FaultInjector> FaultInjector for EccInjector<I> {
    fn plan_weight_faults(&mut self, layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        let flips = self.inner.plan_weight_faults(layer, len, bits);
        self.filter(flips)
    }

    fn plan_accumulator_faults(&mut self, layer: &str, len: usize, macs: usize) -> Vec<FlipRun> {
        // DSP accumulators carry no ECC: their runs pass through.
        self.inner.plan_accumulator_faults(layer, len, macs)
    }

    fn plan_activation_faults(&mut self, layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        let flips = self.inner.plan_activation_faults(layer, len, bits);
        self.filter(flips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted injector: returns the queued plans in order.
    struct Scripted {
        weight: Vec<Vec<BitFlip>>,
        activation: Vec<Vec<BitFlip>>,
    }

    impl FaultInjector for Scripted {
        fn plan_weight_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
            if self.weight.is_empty() {
                Vec::new()
            } else {
                self.weight.remove(0)
            }
        }
        fn plan_accumulator_faults(&mut self, _: &str, _: usize, _: usize) -> Vec<FlipRun> {
            vec![
                FlipRun {
                    start: 9,
                    len: 3,
                    bit: 20,
                },
                FlipRun {
                    start: 0,
                    len: 5,
                    bit: 20,
                },
            ]
        }
        fn plan_activation_faults(&mut self, _: &str, _: usize, _: u32) -> Vec<BitFlip> {
            if self.activation.is_empty() {
                Vec::new()
            } else {
                self.activation.remove(0)
            }
        }
    }

    fn single() -> Vec<BitFlip> {
        vec![BitFlip { index: 3, bit: 6 }]
    }

    fn double_same_word() -> Vec<BitFlip> {
        // Codes 16 and 19 share ECC word 2.
        vec![BitFlip { index: 16, bit: 1 }, BitFlip { index: 19, bit: 7 }]
    }

    #[test]
    fn correct_mode_drops_single_bit_upsets_and_records_latency() {
        let mut ecc = EccInjector::new(
            Scripted {
                weight: vec![single()],
                activation: vec![],
            },
            DefenseMode::Correct,
        );
        assert!(ecc.plan_weight_faults("l", 64, 8).is_empty());
        let stats = ecc.stats();
        assert_eq!(stats.corrected_words, 1);
        assert_eq!(stats.dropped_flips, 1);
        assert_eq!(stats.delivered_flips, 0);
        assert_eq!(ecc.take_latent(), 1);
        assert_eq!(ecc.take_latent(), 0, "latent drains once");
    }

    #[test]
    fn double_flips_in_one_word_pass_through_as_uncorrectable() {
        let mut ecc = EccInjector::new(
            Scripted {
                weight: vec![double_same_word()],
                activation: vec![],
            },
            DefenseMode::Correct,
        );
        let delivered = ecc.plan_weight_faults("l", 64, 8);
        assert_eq!(delivered, double_same_word());
        let stats = ecc.stats();
        assert_eq!(stats.uncorrectable_words, 1);
        assert_eq!(stats.delivered_flips, 2);
        assert_eq!(ecc.take_latent(), 0);
    }

    #[test]
    fn singles_in_different_words_are_each_corrected() {
        let plan = vec![
            BitFlip { index: 0, bit: 0 },
            BitFlip { index: 8, bit: 3 },
            BitFlip { index: 100, bit: 5 },
        ];
        let mut ecc = EccInjector::new(
            Scripted {
                weight: vec![plan],
                activation: vec![],
            },
            DefenseMode::Correct,
        );
        assert!(ecc.plan_weight_faults("l", 128, 8).is_empty());
        assert_eq!(ecc.stats().corrected_words, 3);
        assert_eq!(ecc.take_latent(), 3);
    }

    #[test]
    fn detect_mode_counts_but_delivers_everything() {
        let mut ecc = EccInjector::new(
            Scripted {
                weight: vec![single()],
                activation: vec![double_same_word()],
            },
            DefenseMode::Detect,
        );
        assert_eq!(ecc.plan_weight_faults("l", 64, 8), single());
        assert_eq!(ecc.plan_activation_faults("l", 64, 8), double_same_word());
        let stats = ecc.stats();
        assert_eq!(stats.corrected_words, 1);
        assert_eq!(stats.uncorrectable_words, 1);
        assert_eq!(stats.dropped_flips, 0);
        assert_eq!(stats.delivered_flips, 3);
        assert_eq!(ecc.take_latent(), 0, "detect mode fixes nothing");
    }

    #[test]
    fn off_mode_is_transparent() {
        let mut ecc = EccInjector::new(
            Scripted {
                weight: vec![double_same_word()],
                activation: vec![single()],
            },
            DefenseMode::Off,
        );
        assert_eq!(ecc.plan_weight_faults("l", 64, 8), double_same_word());
        assert_eq!(ecc.plan_activation_faults("l", 64, 8), single());
        assert_eq!(ecc.stats(), EccStats::default());
    }

    #[test]
    fn accumulator_plans_bypass_ecc() {
        let mut ecc = EccInjector::new(
            Scripted {
                weight: vec![],
                activation: vec![],
            },
            DefenseMode::Correct,
        );
        // A multi-element run in one word would be uncorrectable, and
        // runs in different words corrected, if they went through ECC.
        assert_eq!(
            ecc.plan_accumulator_faults("l", 64, 9),
            vec![
                FlipRun {
                    start: 9,
                    len: 3,
                    bit: 20,
                },
                FlipRun {
                    start: 0,
                    len: 5,
                    bit: 20,
                },
            ]
        );
        assert_eq!(ecc.stats(), EccStats::default());
        assert_eq!(ecc.take_latent(), 0);
    }

    #[test]
    fn cancelled_flip_pairs_are_dropped_silently() {
        // The same (index, bit) twice XOR-cancels: the stored word is
        // untouched and the decode is Clean.
        let plan = vec![BitFlip { index: 5, bit: 2 }, BitFlip { index: 5, bit: 2 }];
        let mut ecc = EccInjector::new(
            Scripted {
                weight: vec![plan],
                activation: vec![],
            },
            DefenseMode::Correct,
        );
        assert!(ecc.plan_weight_faults("l", 64, 8).is_empty());
        let stats = ecc.stats();
        assert_eq!(stats.corrected_words, 0);
        assert_eq!(stats.dropped_flips, 2);
    }
}
