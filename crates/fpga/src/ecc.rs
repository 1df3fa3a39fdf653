//! SECDED(72,64) BRAM error correction.
//!
//! UltraScale+ block RAMs ship a built-in 64-bit-data / 8-check-bit
//! Hamming SECDED code (single-error-correct, double-error-detect) — the
//! mechanism the paper names as the reason BRAM contents survive far
//! deeper undervolting than the logic rail tolerates (§4.1), and the one
//! its BRAM companion study leans on directly. This module models that
//! code exactly: a 72-bit codeword over each 64-bit data word, with a
//! syndrome decoder that corrects any single flipped bit (data *or*
//! check) and flags any double flip as uncorrectable.
//!
//! The layout is the classic extended-Hamming arrangement: check bits
//! `c0..c6` cover the codeword positions whose 1-based index has the
//! corresponding bit set, and `c7` is an overall parity bit that
//! disambiguates single (correctable) from double (detectable-only)
//! errors.
//!
//! ECC correction repairs the *read*, not the stored word; the stored
//! upset stays latent until a scrub pass rewrites it. [`Scrubber`] models
//! that periodic task with deterministic counters.

/// Number of data bits per codeword.
pub const DATA_BITS: u32 = 64;

/// A 72-bit SECDED codeword: 64 data bits plus 8 check bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codeword {
    /// The data word.
    pub data: u64,
    /// The check byte (`c0..c6` Hamming, `c7` overall parity).
    pub check: u8,
}

/// Outcome of decoding a (possibly corrupted) codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// No error detected; data returned as stored.
    Clean(u64),
    /// A single-bit error was corrected (in data or check bits).
    Corrected(u64),
    /// A double-bit error: detected, not correctable. The raw (corrupt)
    /// data bits are returned so callers can model the failed read.
    Uncorrectable(u64),
}

/// Maps a 0-based data-bit index to its 1-based codeword position
/// (positions that are powers of two hold check bits).
fn data_position(bit: u32) -> u32 {
    // Skip positions 1, 2, 4, 8, 16, 32, 64 (the 7 Hamming check slots).
    let mut pos = bit + 1;
    // Each power of two at or below `pos` shifts the data bit one slot up;
    // iterate to a fixed point (at most 7 rounds).
    loop {
        let skipped = 32 - pos.leading_zeros();
        let next = bit + 1 + skipped;
        if next == pos {
            return pos;
        }
        pos = next;
    }
}

/// Syndrome contribution of the data word: XOR of the 1-based codeword
/// positions of every set data bit.
fn data_syndrome(data: u64) -> u32 {
    let mut syn = 0u32;
    let mut rest = data;
    while rest != 0 {
        let bit = rest.trailing_zeros();
        syn ^= data_position(bit);
        rest &= rest - 1;
    }
    syn
}

/// Encodes a data word into its SECDED codeword.
pub fn encode(data: u64) -> Codeword {
    let syn = data_syndrome(data);
    let mut check = 0u8;
    for c in 0..7 {
        if syn & (1 << c) != 0 {
            check |= 1 << c;
        }
    }
    // Overall parity over data and the 7 Hamming bits.
    let ones = data.count_ones() + check.count_ones();
    if ones % 2 == 1 {
        check |= 0x80;
    }
    Codeword { data, check }
}

/// Decodes a codeword, correcting a single-bit error and detecting a
/// double-bit error.
pub fn decode(word: Codeword) -> Decode {
    let syn = data_syndrome(word.data) ^ u32::from(word.check & 0x7f);
    let parity = (word.data.count_ones() + word.check.count_ones()) % 2;
    match (syn, parity) {
        (0, 0) => Decode::Clean(word.data),
        (0, 1) => Decode::Corrected(word.data), // overall-parity bit flipped
        (_, 1) => {
            // Single-bit error at 1-based codeword position `syn`. A
            // power-of-two position is a Hamming check bit (data intact);
            // otherwise locate and repair the matching data bit. A
            // position outside the 71-slot layout is not a single-flip
            // syndrome at all — report it rather than miscorrect.
            if syn.is_power_of_two() {
                return Decode::Corrected(word.data);
            }
            for bit in 0..DATA_BITS {
                if data_position(bit) == syn {
                    return Decode::Corrected(word.data ^ (1u64 << bit));
                }
            }
            Decode::Uncorrectable(word.data)
        }
        _ => Decode::Uncorrectable(word.data),
    }
}

/// The periodic BRAM scrubbing task.
///
/// A corrected read leaves the stored bit still flipped; only a scrub
/// pass — read, correct, write back — clears it. Accumulated latent
/// upsets are dangerous because a second flip in the same word upgrades a
/// correctable error to an uncorrectable one. The scrubber walks the
/// weight store every `interval_cycles` simulated DPU cycles and retires
/// every latent upset recorded since the previous pass. All counters are
/// deterministic functions of the injected-fault schedule.
#[derive(Debug, Clone)]
pub struct Scrubber {
    /// Scrub period in simulated DPU cycles.
    pub interval_cycles: u64,
    cycles_since_scrub: u64,
    latent: u64,
    passes: u64,
    scrubbed: u64,
}

/// Default scrub period: ~30 ms of DPU time at the nominal 333 MHz clock,
/// the order of magnitude of real BRAM scrub controllers.
pub const DEFAULT_SCRUB_INTERVAL_CYCLES: u64 = 10_000_000;

impl Scrubber {
    /// Creates a scrubber with the given period in simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn new(interval_cycles: u64) -> Self {
        assert!(interval_cycles > 0, "scrub interval must be positive");
        Scrubber {
            interval_cycles,
            cycles_since_scrub: 0,
            latent: 0,
            passes: 0,
            scrubbed: 0,
        }
    }

    /// Records `count` corrected-on-read upsets whose stored bits remain
    /// latent until the next pass.
    pub fn record_latent(&mut self, count: u64) {
        self.latent = self.latent.saturating_add(count);
    }

    /// Advances simulated time; every elapsed interval triggers one scrub
    /// pass, which retires all latent upsets recorded so far.
    pub fn tick(&mut self, cycles: u64) {
        self.cycles_since_scrub += cycles;
        while self.cycles_since_scrub >= self.interval_cycles {
            self.cycles_since_scrub -= self.interval_cycles;
            self.passes += 1;
            self.scrubbed += self.latent;
            self.latent = 0;
        }
    }

    /// Latent (corrected-but-not-yet-rewritten) upsets outstanding.
    pub fn latent(&self) -> u64 {
        self.latent
    }

    /// Completed scrub passes.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Total upsets retired by scrub passes.
    pub fn scrubbed(&self) -> u64 {
        self.scrubbed
    }
}

impl Default for Scrubber {
    fn default() -> Self {
        Scrubber::new(DEFAULT_SCRUB_INTERVAL_CYCLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<u64> {
        vec![
            0,
            1,
            u64::MAX,
            0xdead_beef_cafe_f00d,
            0x8000_0000_0000_0001,
            0x5555_5555_5555_5555,
            0xaaaa_aaaa_aaaa_aaaa,
        ]
    }

    #[test]
    fn clean_words_decode_clean() {
        for w in words() {
            assert_eq!(decode(encode(w)), Decode::Clean(w), "word {w:#x}");
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        for w in words() {
            let cw = encode(w);
            for bit in 0..DATA_BITS {
                let corrupt = Codeword {
                    data: cw.data ^ (1u64 << bit),
                    check: cw.check,
                };
                assert_eq!(
                    decode(corrupt),
                    Decode::Corrected(w),
                    "word {w:#x}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn every_single_check_bit_flip_is_corrected() {
        for w in words() {
            let cw = encode(w);
            for bit in 0..u8::BITS {
                let corrupt = Codeword {
                    data: cw.data,
                    check: cw.check ^ (1 << bit),
                };
                assert_eq!(
                    decode(corrupt),
                    Decode::Corrected(w),
                    "word {w:#x}, check bit {bit}"
                );
            }
        }
    }

    #[test]
    fn every_double_data_bit_flip_is_detected_not_miscorrected() {
        // Exhaustive over a few words: all C(64,2) data-bit pairs.
        for w in [0u64, 0xdead_beef_cafe_f00d] {
            let cw = encode(w);
            for a in 0..DATA_BITS {
                for b in (a + 1)..DATA_BITS {
                    let corrupt = Codeword {
                        data: cw.data ^ (1u64 << a) ^ (1u64 << b),
                        check: cw.check,
                    };
                    assert!(
                        matches!(decode(corrupt), Decode::Uncorrectable(_)),
                        "word {w:#x}, bits {a},{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_data_check_double_flips_are_detected() {
        let cw = encode(0x0123_4567_89ab_cdef);
        for a in 0..DATA_BITS {
            for b in 0..u8::BITS {
                let corrupt = Codeword {
                    data: cw.data ^ (1u64 << a),
                    check: cw.check ^ (1 << b),
                };
                assert!(
                    matches!(decode(corrupt), Decode::Uncorrectable(_)),
                    "data bit {a}, check bit {b}"
                );
            }
        }
    }

    #[test]
    fn data_positions_are_unique_and_skip_check_slots() {
        let mut seen = std::collections::BTreeSet::new();
        for bit in 0..DATA_BITS {
            let pos = data_position(bit);
            assert!(!pos.is_power_of_two(), "bit {bit} landed on a check slot");
            assert!((3..=71).contains(&pos), "bit {bit} -> position {pos}");
            assert!(seen.insert(pos), "duplicate position {pos}");
        }
    }

    #[test]
    fn scrubber_retires_latent_upsets_on_schedule() {
        let mut s = Scrubber::new(1000);
        s.record_latent(3);
        s.tick(999);
        assert_eq!(s.passes(), 0);
        assert_eq!(s.latent(), 3);
        s.tick(1);
        assert_eq!(s.passes(), 1);
        assert_eq!(s.latent(), 0);
        assert_eq!(s.scrubbed(), 3);
        // Multiple intervals in one tick run multiple passes.
        s.record_latent(2);
        s.tick(2500);
        assert_eq!(s.passes(), 3);
        assert_eq!(s.scrubbed(), 5);
        assert_eq!(s.latent(), 0);
    }
}
