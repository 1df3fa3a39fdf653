//! PMBus transient-transaction fault model.
//!
//! The paper's campaigns run the control plane over a physical I²C/PMBus
//! link whose reliability degrades exactly when the experiment gets
//! interesting: near and below `Vcrash`, the board browns out
//! mid-transaction, the dongle times out, and read data picks up bit
//! flips. [`PmbusFaultModel`] reproduces those three transient failure
//! modes against the host adapter's [`BusFaultInjector`] hook, so the
//! retry/verify policy can be exercised — and campaigns proven
//! byte-reproducible — under a nonzero fault rate.
//!
//! Determinism: the model draws from a [`Xoshiro256StarStar`] stream
//! seeded per cell (`derive_stream_seed(master_seed, cell)`), so a given
//! cell sees the same fault schedule whether it runs alone, in a parallel
//! campaign, or in a resumed one.

use redvolt_num::rng::Xoshiro256StarStar;
use redvolt_pmbus::adapter::{BusFaultInjector, Direction, TransientFault};
use redvolt_pmbus::command::CommandCode;

/// Seed-domain separator for bus-fault streams (distinct from the slack
/// injector's `0xFA017`).
const BUS_SEED_SALT: u64 = 0xB0_55ED;

/// Per-transaction fault probabilities for the simulated bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusFaultProfile {
    /// Probability a transaction is NACKed before reaching the device.
    pub nack_rate: f64,
    /// Probability a transaction times out before reaching the device.
    pub timeout_rate: f64,
    /// Probability a completed read has one mantissa bit flipped in
    /// flight (detected by the adapter's packet error check).
    pub read_flip_rate: f64,
}

impl BusFaultProfile {
    /// A clean bus: no injected faults.
    pub fn none() -> Self {
        BusFaultProfile {
            nack_rate: 0.0,
            timeout_rate: 0.0,
            read_flip_rate: 0.0,
        }
    }

    /// A mildly marginal bus (~3% of transactions disturbed) — the CI
    /// smoke profile.
    pub fn light() -> Self {
        BusFaultProfile {
            nack_rate: 0.01,
            timeout_rate: 0.005,
            read_flip_rate: 0.015,
        }
    }

    /// A badly marginal bus (~15% of transactions disturbed) — stresses
    /// the retry budget without exhausting `RetryPolicy::resilient()`.
    pub fn heavy() -> Self {
        BusFaultProfile {
            nack_rate: 0.05,
            timeout_rate: 0.03,
            read_flip_rate: 0.07,
        }
    }

    /// Whether the profile injects no faults at all.
    pub fn is_zero(&self) -> bool {
        self.nack_rate == 0.0 && self.timeout_rate == 0.0 && self.read_flip_rate == 0.0
    }

    /// Parses a named profile (`none`, `light`, `heavy`), as accepted by
    /// the bench binaries' `--fault-profile` flag.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "none" => Some(BusFaultProfile::none()),
            "light" => Some(BusFaultProfile::light()),
            "heavy" => Some(BusFaultProfile::heavy()),
            _ => None,
        }
    }

    /// The preset's name (`none`, `light`, `heavy`), or `custom` for
    /// hand-built rate combinations — the inverse of [`parse`].
    ///
    /// [`parse`]: BusFaultProfile::parse
    pub fn name(&self) -> &'static str {
        if *self == BusFaultProfile::none() {
            "none"
        } else if *self == BusFaultProfile::light() {
            "light"
        } else if *self == BusFaultProfile::heavy() {
            "heavy"
        } else {
            "custom"
        }
    }
}

impl Default for BusFaultProfile {
    fn default() -> Self {
        BusFaultProfile::none()
    }
}

/// Deterministic transient-fault injector for the PMBus control plane.
#[derive(Debug, Clone)]
pub struct PmbusFaultModel {
    profile: BusFaultProfile,
    rng: Xoshiro256StarStar,
}

impl PmbusFaultModel {
    /// A model drawing from a dedicated stream of `seed`. Pass the cell's
    /// derived seed so the fault schedule is a pure function of
    /// `(master_seed, cell_index)`.
    pub fn new(profile: BusFaultProfile, seed: u64) -> Self {
        PmbusFaultModel {
            profile,
            rng: Xoshiro256StarStar::seed_from(seed ^ BUS_SEED_SALT),
        }
    }

    /// The profile this model draws from.
    pub fn profile(&self) -> BusFaultProfile {
        self.profile
    }
}

impl BusFaultInjector for PmbusFaultModel {
    fn pre_transaction(
        &mut self,
        _address: u8,
        _command: CommandCode,
        _direction: Direction,
    ) -> Option<TransientFault> {
        if self.profile.is_zero() {
            return None;
        }
        // One draw per transaction keeps the stream's consumption
        // independent of the profile's rates.
        let u = self.rng.next_f64();
        if u < self.profile.nack_rate {
            Some(TransientFault::Nack)
        } else if u < self.profile.nack_rate + self.profile.timeout_rate {
            Some(TransientFault::Timeout)
        } else {
            None
        }
    }

    fn corrupt_read(&mut self, _address: u8, _command: CommandCode, word: u16) -> Option<u16> {
        if self.profile.read_flip_rate == 0.0 {
            return None;
        }
        if self.rng.next_f64() < self.profile.read_flip_rate {
            // Flip a mantissa bit (LINEAR11 keeps its 11-bit mantissa in
            // bits 0..11; LINEAR16 is all mantissa) — a plausible data-line
            // glitch that perturbs the value without touching the exponent.
            let bit = self.rng.next_bounded_u32(11);
            Some(word ^ (1u16 << bit))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redvolt_pmbus::adapter::{PmbusAdapter, RetryPolicy};
    use redvolt_pmbus::device::SimpleRegulator;

    fn drive(model: PmbusFaultModel, reads: usize) -> Vec<u16> {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new()
            .with_retry_policy(RetryPolicy::resilient())
            .with_fault_model(Box::new(model));
        (0..reads)
            .map(|_| {
                host.read_word(&mut reg, 0x13, CommandCode::ReadPout)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let a = drive(PmbusFaultModel::new(BusFaultProfile::heavy(), 7), 200);
        let b = drive(PmbusFaultModel::new(BusFaultProfile::heavy(), 7), 200);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_profile_injects_nothing() {
        let mut model = PmbusFaultModel::new(BusFaultProfile::none(), 3);
        for _ in 0..100 {
            assert!(model
                .pre_transaction(0x13, CommandCode::ReadPout, Direction::Read)
                .is_none());
            assert!(model
                .corrupt_read(0x13, CommandCode::ReadPout, 0x1234)
                .is_none());
        }
    }

    #[test]
    fn heavy_profile_actually_faults() {
        let mut model = PmbusFaultModel::new(BusFaultProfile::heavy(), 11);
        let mut pre = 0;
        let mut flips = 0;
        for _ in 0..1000 {
            if model
                .pre_transaction(0x13, CommandCode::ReadPout, Direction::Read)
                .is_some()
            {
                pre += 1;
            }
            if model
                .corrupt_read(0x13, CommandCode::ReadPout, 0x0400)
                .is_some()
            {
                flips += 1;
            }
        }
        assert!(pre > 20, "expected ~80 pre-transaction faults, saw {pre}");
        assert!(flips > 20, "expected ~70 read flips, saw {flips}");
    }

    #[test]
    fn flips_stay_in_the_mantissa() {
        let mut model = PmbusFaultModel::new(BusFaultProfile::heavy(), 13);
        for _ in 0..1000 {
            if let Some(corrupted) = model.corrupt_read(0x13, CommandCode::ReadPout, 0) {
                assert!(corrupted.trailing_zeros() < 11, "bit 0..11 only");
            }
        }
    }

    #[test]
    fn parse_named_profiles() {
        assert_eq!(
            BusFaultProfile::parse("none"),
            Some(BusFaultProfile::none())
        );
        assert_eq!(
            BusFaultProfile::parse("light"),
            Some(BusFaultProfile::light())
        );
        assert_eq!(
            BusFaultProfile::parse("heavy"),
            Some(BusFaultProfile::heavy())
        );
        assert_eq!(BusFaultProfile::parse("sideways"), None);
        assert!(BusFaultProfile::none().is_zero());
        assert!(!BusFaultProfile::light().is_zero());
    }

    #[test]
    fn faulted_reads_converge_to_clean_values() {
        // The acceptance property at the adapter level: with retry+PEC the
        // *returned* values under a heavy fault profile equal the fault-free
        // ones (telemetry noise aside — SimpleRegulator is noiseless).
        let clean = drive(PmbusFaultModel::new(BusFaultProfile::none(), 5), 50);
        let faulty = drive(PmbusFaultModel::new(BusFaultProfile::heavy(), 5), 50);
        assert_eq!(clean, faulty);
    }
}
