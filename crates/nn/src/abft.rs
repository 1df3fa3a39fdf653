//! Algorithm-based fault tolerance (ABFT) for the inference kernels.
//!
//! Below Vmin the DPU keeps answering but silently corrupts results — the
//! paper's central hazard. This module supplies the detection layer of the
//! SDC defense stack:
//!
//! * [`DefenseMode`] — the knob the `--defense` flag maps onto, passed to
//!   each execution. `Off` leaves every execution path bit-identical to
//!   the undefended kernels; `Detect` computes checksums and counts
//!   mismatches; `Correct` additionally re-executes a corrupted layer (a
//!   bounded number of times) before giving up.
//! * [`IntChecksum`] — dual row/column-style checksums over the integer
//!   path: a plain wrapping sum plus a position-weighted sum. A single
//!   high-bit accumulator flip perturbs both; a pair of flips that cancels
//!   in the plain sum (one `0→1`, one `1→0` of the same bit — exactly
//!   what a correlated same-bit burst produces) still perturbs the
//!   weighted sum, because the two sites carry different weights.
//!
//! The integer checksums are *temporal* (before/after the fault-injection
//! points inside one execution); weight-read corruption is detected by the
//! precomputed-checksum-column model: any surviving weight flip is
//! reported by construction, since a real ABFT weight checksum row is
//! computed offline from clean weights. Checksum aliasing (a fault
//! pattern that preserves both sums) is possible in principle, as in real
//! ABFT, but requires simultaneous cancellation in two differently
//! weighted sums.

/// How aggressively the inference path defends against silent data
/// corruption. Maps 1:1 onto the `--defense` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefenseMode {
    /// No checksums at all; the execution path is bit-identical to the
    /// undefended kernels.
    #[default]
    Off,
    /// Compute and verify checksums, count mismatches, but deliver the
    /// (possibly corrupt) result unchanged — monitoring mode.
    Detect,
    /// Detect and re-execute corrupted layers (bounded retries); ECC
    /// drops correctable weight/activation upsets upstream.
    Correct,
}

impl DefenseMode {
    /// Parses the CLI spelling (`off` / `detect` / `correct`).
    pub fn parse(s: &str) -> Option<DefenseMode> {
        match s {
            "off" => Some(DefenseMode::Off),
            "detect" => Some(DefenseMode::Detect),
            "correct" => Some(DefenseMode::Correct),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            DefenseMode::Off => "off",
            DefenseMode::Detect => "detect",
            DefenseMode::Correct => "correct",
        }
    }

    /// Whether any checksum work happens at all.
    pub fn is_on(self) -> bool {
        self != DefenseMode::Off
    }

    /// Re-executions allowed per checksum stage per layer before a
    /// mismatch is declared unresolved: two under [`DefenseMode::Correct`],
    /// which covers the overwhelming majority of transient upsets without
    /// letting a persistently faulting operating point spin; none
    /// otherwise.
    pub fn reexec_budget(self) -> u32 {
        if self == DefenseMode::Correct {
            2
        } else {
            0
        }
    }
}

/// ABFT event counters, accumulated across inferences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Checksum verifications performed.
    pub checks: u64,
    /// Verifications that flagged a corrupted tile.
    pub mismatches: u64,
    /// Layer re-executions triggered by mismatches.
    pub reexecutions: u64,
    /// Mismatches still present after the re-execution budget — the
    /// corruption the governor must escalate on.
    pub unresolved: u64,
}

impl DefenseStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &DefenseStats) {
        self.checks += other.checks;
        self.mismatches += other.mismatches;
        self.reexecutions += other.reexecutions;
        self.unresolved += other.unresolved;
    }

    /// True when every detected mismatch was resolved.
    pub fn clean(&self) -> bool {
        self.unresolved == 0
    }
}

/// Dual checksum over an integer buffer: plain sum and position-weighted
/// sum, both wrapping. See the module docs for why one sum is not enough
/// under correlated same-bit bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntChecksum {
    /// Wrapping sum of elements.
    pub sum: i64,
    /// Wrapping sum of `(index + 1) * element`.
    pub weighted: i64,
}

impl IntChecksum {
    /// Checksums raw 32-bit accumulators or quantized activation codes.
    pub fn of<T: Copy + Into<i64>>(values: &[T]) -> IntChecksum {
        let mut sum = 0i64;
        let mut weighted = 0i64;
        for (i, &v) in values.iter().enumerate() {
            let v = v.into();
            sum = sum.wrapping_add(v);
            weighted = weighted.wrapping_add(v.wrapping_mul(i as i64 + 1));
        }
        IntChecksum { sum, weighted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_mode_parses_cli_spellings() {
        for mode in [DefenseMode::Off, DefenseMode::Detect, DefenseMode::Correct] {
            assert_eq!(DefenseMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(DefenseMode::parse("banana"), None);
        assert!(!DefenseMode::Off.is_on());
        assert!(DefenseMode::Detect.is_on());
        assert_eq!(DefenseMode::Off.reexec_budget(), 0);
        assert_eq!(DefenseMode::Detect.reexec_budget(), 0);
        assert_eq!(DefenseMode::Correct.reexec_budget(), 2);
    }

    #[test]
    fn int_checksum_catches_single_high_bit_flip() {
        let mut acc: Vec<i32> = (0..64).map(|i| i * 3 - 17).collect();
        let clean = IntChecksum::of(&acc);
        acc[13] ^= 1 << 20;
        assert_ne!(IntChecksum::of(&acc), clean);
    }

    #[test]
    fn weighted_sum_catches_sum_cancelling_burst_pair() {
        // A same-bit burst that flips 0→1 at one site and 1→0 at another
        // leaves the plain sum unchanged; the weighted sum still moves.
        let mut acc = vec![0i32; 32];
        acc[7] = 1 << 20; // 1→0 under XOR
        let clean = IntChecksum::of(&acc);
        acc[6] ^= 1 << 20; // +2^20
        acc[7] ^= 1 << 20; // -2^20
        let faulty = IntChecksum::of(&acc);
        assert_eq!(faulty.sum, clean.sum, "plain sum aliases by construction");
        assert_ne!(faulty.weighted, clean.weighted);
    }

    #[test]
    fn code_checksum_detects_activation_flip() {
        let mut codes: Vec<i8> = (0..100).map(|i| (i % 13 - 6) as i8).collect();
        let clean = IntChecksum::of(&codes);
        codes[42] ^= 0x40;
        assert_ne!(IntChecksum::of(&codes), clean);
    }
}
