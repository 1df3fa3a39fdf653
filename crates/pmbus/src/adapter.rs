//! Host-side PMBus adapter.
//!
//! Mirrors the role of the USB-to-PMBus dongle plus vendor API the paper
//! used: typed get/set operations that handle wire encodings (querying
//! `VOUT_MODE` for the LINEAR16 exponent), with a transaction log for
//! auditability — each experiment's recent bus traffic can be inspected.
//!
//! # Fault tolerance
//!
//! Real campaigns in the paper's critical voltage region live with a
//! flaky bus: the board browns out mid-transaction, the dongle times out,
//! reads come back corrupted. The adapter therefore supports:
//!
//! * a pluggable [`BusFaultInjector`] that models transient transaction
//!   faults (NACK, timeout, bit flips on read data) — the simulation's
//!   stand-in for a marginal physical bus;
//! * a [`RetryPolicy`]: transient failures are retried with exponential
//!   backoff up to a per-transaction attempt budget, surfacing the *last*
//!   error when the budget is exhausted;
//! * read-verify via SMBus packet error checking ([`crate::pec`]): the
//!   device-side PEC is computed over the words it actually holds, the
//!   host recomputes it over the bytes it received, and a mismatch turns
//!   a silent corruption into a retryable [`PmbusError::CorruptedRead`].
//!
//! Backoff is *accounted, not slept*: the adapter accumulates the backoff
//! schedule into [`BusStats::backoff`] so campaigns stay fast and
//! deterministic while the policy remains observable.
//!
//! The transaction log is a bounded ring ([`TransactionLog`]): long
//! campaigns keep the most recent `capacity` transactions plus a
//! monotonic total counter instead of growing without bound.

use crate::command::CommandCode;
use crate::device::PmbusTarget;
use crate::linear;
use crate::pec;
use crate::PmbusError;
use std::time::Duration;

/// Direction of a logged transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host wrote to a device.
    Write,
    /// Host read from a device.
    Read,
}

/// One logged bus transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Monotone sequence number.
    pub seq: u64,
    /// 7-bit device address.
    pub address: u8,
    /// Command code.
    pub command: CommandCode,
    /// Transfer direction.
    pub direction: Direction,
    /// Raw wire word (the value written, or the value read back).
    pub word: u16,
    /// Whether the transaction succeeded (acknowledged, PEC clean).
    pub ok: bool,
}

/// Default transaction-log depth.
pub const DEFAULT_LOG_CAPACITY: usize = 1024;

/// A bounded ring buffer of the most recent bus transactions.
///
/// Appending past `capacity` evicts the oldest entry; [`TransactionLog::total`]
/// keeps counting monotonically, so `total - len` transactions have been
/// evicted. Iteration order is always chronological.
#[derive(Debug, Clone)]
pub struct TransactionLog {
    entries: Vec<Transaction>,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    capacity: usize,
    total: u64,
}

impl TransactionLog {
    /// An empty log keeping at most `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TransactionLog {
            entries: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// Number of retained transactions (`<= capacity`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log retains no transactions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotonic count of all transactions ever recorded, including
    /// evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Maximum number of retained transactions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained transactions in chronological order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.entries[self.head..]
            .iter()
            .chain(self.entries[..self.head].iter())
    }

    fn push(&mut self, mut t: Transaction) {
        t.seq = self.total;
        self.total += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(t);
        } else {
            self.entries[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

impl Default for TransactionLog {
    fn default() -> Self {
        TransactionLog::with_capacity(DEFAULT_LOG_CAPACITY)
    }
}

/// A transient fault injected before a transaction reaches the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientFault {
    /// The device failed to acknowledge a byte.
    Nack,
    /// The transaction timed out.
    Timeout,
}

impl TransientFault {
    /// The [`PmbusError`] this fault surfaces as.
    pub fn into_error(self, address: u8) -> PmbusError {
        match self {
            TransientFault::Nack => PmbusError::Nack { address },
            TransientFault::Timeout => PmbusError::Timeout { address },
        }
    }
}

/// A model of transient bus faults, consulted on every transaction.
///
/// Implemented by `redvolt_faults::bus::PmbusFaultModel`; the trait lives
/// here so the protocol crate stays dependency-free.
pub trait BusFaultInjector: std::fmt::Debug + Send {
    /// Fault to inject *before* the transaction touches the device
    /// (the device never sees the transaction), or `None` to let it
    /// proceed.
    fn pre_transaction(
        &mut self,
        address: u8,
        command: CommandCode,
        direction: Direction,
    ) -> Option<TransientFault>;

    /// Corruption of read data in flight: given the word the device
    /// actually returned, yields the corrupted word the host receives,
    /// or `None` for a clean transfer.
    fn corrupt_read(&mut self, address: u8, command: CommandCode, word: u16) -> Option<u16>;
}

/// Retry/backoff/verify policy for bus transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per transaction (min 1). Only transient errors
    /// ([`PmbusError::is_transient`]) are retried.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Cap on a single backoff interval.
    pub max_backoff: Duration,
    /// Read back `VOUT_COMMAND` after [`PmbusAdapter::set_vout`] and
    /// retry the write if the readback disagrees with what was written.
    pub verify_writes: bool,
}

impl RetryPolicy {
    /// No retries, no write verification — the adapter's historical
    /// behaviour, appropriate for a clean simulated bus.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            verify_writes: false,
        }
    }

    /// The campaign-supervisor policy: 8 attempts, 50 µs base backoff
    /// doubling to a 5 ms cap, write verification on.
    pub fn resilient() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            verify_writes: true,
        }
    }

    /// Backoff scheduled before retry number `retry` (1-based).
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Counters describing the adapter's fault-handling activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transaction retries performed (attempts beyond the first).
    pub retries: u64,
    /// Faults the injector introduced (NACKs, timeouts, corrupted reads).
    pub injected_faults: u64,
    /// Reads whose PEC mismatched (detected corruptions).
    pub pec_failures: u64,
    /// Total scheduled backoff (accounted, not slept).
    pub backoff: Duration,
    /// Transactions that exhausted the retry budget.
    pub exhausted: u64,
}

impl BusStats {
    /// Adds another adapter's counters into this one. Campaign telemetry
    /// folds per-cell stats together in plan order with this, so the
    /// totals are independent of which worker ran which cell.
    pub fn accumulate(&mut self, other: BusStats) {
        self.retries += other.retries;
        self.injected_faults += other.injected_faults;
        self.pec_failures += other.pec_failures;
        self.backoff = self.backoff.saturating_add(other.backoff);
        self.exhausted += other.exhausted;
    }
}

/// Typed host adapter with a bounded transaction log and a retry policy.
///
/// # Examples
///
/// ```
/// use redvolt_pmbus::adapter::PmbusAdapter;
/// use redvolt_pmbus::device::SimpleRegulator;
///
/// # fn main() -> Result<(), redvolt_pmbus::PmbusError> {
/// let mut rail = SimpleRegulator::new(0x13, 0.85);
/// let mut host = PmbusAdapter::new();
/// host.set_vout(&mut rail, 0x13, 0.6)?;
/// assert_eq!(host.log().len(), 2); // VOUT_MODE read + VOUT_COMMAND write
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct PmbusAdapter {
    log: TransactionLog,
    policy: RetryPolicy,
    faults: Option<Box<dyn BusFaultInjector>>,
    stats: BusStats,
}

impl PmbusAdapter {
    /// Creates an adapter with an empty log, no fault model and no
    /// retries.
    pub fn new() -> Self {
        PmbusAdapter::default()
    }

    /// Installs a retry/backoff/verify policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a transient-fault model (simulating a marginal bus).
    pub fn with_fault_model(mut self, model: Box<dyn BusFaultInjector>) -> Self {
        self.faults = Some(model);
        self
    }

    /// Fault-handling counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// The transaction log (bounded ring, chronological iteration).
    pub fn log(&self) -> &TransactionLog {
        &self.log
    }

    fn record(&mut self, address: u8, command: CommandCode, dir: Direction, word: u16, ok: bool) {
        self.log.push(Transaction {
            seq: 0, // stamped by the log
            address,
            command,
            direction: dir,
            word,
            ok,
        });
    }

    fn account_retry(&mut self, retry: u32) {
        self.stats.retries += 1;
        self.stats.backoff += self.policy.backoff_for(retry);
    }

    /// Raw word write with fault injection, retry and logging.
    ///
    /// # Errors
    ///
    /// Propagates hard [`PmbusError`]s immediately; transient faults are
    /// retried per the policy, and the last transient error is returned
    /// once the attempt budget is exhausted.
    pub fn write_word<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
        command: CommandCode,
        word: u16,
    ) -> Result<(), PmbusError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.account_retry(attempt - 1);
            }
            if let Some(fault) = self
                .faults
                .as_mut()
                .and_then(|m| m.pre_transaction(address, command, Direction::Write))
            {
                self.stats.injected_faults += 1;
                self.record(address, command, Direction::Write, word, false);
                last_err = Some(fault.into_error(address));
                continue;
            }
            let result = target.write_word(address, command, word);
            self.record(address, command, Direction::Write, word, result.is_ok());
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        self.stats.exhausted += 1;
        Err(last_err.expect("at least one attempt ran"))
    }

    /// Raw word read with fault injection, PEC read-verify, retry and
    /// logging.
    ///
    /// # Errors
    ///
    /// See [`PmbusAdapter::write_word`]; additionally surfaces
    /// [`PmbusError::CorruptedRead`] when every attempt failed its packet
    /// error check.
    pub fn read_word<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
        command: CommandCode,
    ) -> Result<u16, PmbusError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.account_retry(attempt - 1);
            }
            if let Some(fault) = self
                .faults
                .as_mut()
                .and_then(|m| m.pre_transaction(address, command, Direction::Read))
            {
                self.stats.injected_faults += 1;
                self.record(address, command, Direction::Read, 0, false);
                last_err = Some(fault.into_error(address));
                continue;
            }
            match target.read_word(address, command) {
                Ok(word) => {
                    // Read-verify: the device computes the PEC over the
                    // word it holds; the host recomputes it over the word
                    // it received. Any in-flight corruption mismatches.
                    let device_pec = pec::read_word_pec(address, command.raw(), word);
                    let received = self
                        .faults
                        .as_mut()
                        .and_then(|m| m.corrupt_read(address, command, word));
                    match received {
                        None => {
                            self.record(address, command, Direction::Read, word, true);
                            return Ok(word);
                        }
                        Some(corrupted) => {
                            self.stats.injected_faults += 1;
                            let host_pec = pec::read_word_pec(address, command.raw(), corrupted);
                            self.record(address, command, Direction::Read, corrupted, false);
                            if host_pec == device_pec {
                                // Undetectable corruption (cannot happen
                                // for the single-bit flips the models
                                // inject; CRC-8 catches those).
                                return Ok(corrupted);
                            }
                            self.stats.pec_failures += 1;
                            last_err = Some(PmbusError::CorruptedRead { address });
                        }
                    }
                }
                Err(e) => {
                    self.record(address, command, Direction::Read, 0, false);
                    if e.is_transient() {
                        last_err = Some(e);
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        self.stats.exhausted += 1;
        Err(last_err.expect("at least one attempt ran"))
    }

    fn vout_exponent<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
    ) -> Result<i8, PmbusError> {
        let mode = self.read_word(target, address, CommandCode::VoutMode)?;
        Ok(linear::vout_mode_exponent(mode as u8))
    }

    /// Commands the output voltage of the rail at `address`, in volts.
    ///
    /// With [`RetryPolicy::verify_writes`] set, the commanded word is read
    /// back and the write repeated (within the attempt budget) until the
    /// readback agrees — the adapter-level analogue of the paper's
    /// set-then-confirm scripting.
    ///
    /// # Errors
    ///
    /// Fails if the device is absent/hung, the value is unencodable, or the
    /// device rejects it (outside its UV/OV window).
    pub fn set_vout<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
        volts: f64,
    ) -> Result<(), PmbusError> {
        let exp = self.vout_exponent(target, address)?;
        let word = linear::linear16_encode(volts, exp)?;
        let verify_rounds = if self.policy.verify_writes {
            self.policy.max_attempts.max(1)
        } else {
            1
        };
        let mut last_err = PmbusError::Timeout { address };
        for round in 1..=verify_rounds {
            if round > 1 {
                self.account_retry(round - 1);
            }
            self.write_word(target, address, CommandCode::VoutCommand, word)?;
            if !self.policy.verify_writes {
                return Ok(());
            }
            let readback = self.read_word(target, address, CommandCode::VoutCommand)?;
            if readback == word {
                return Ok(());
            }
            last_err = PmbusError::CorruptedRead { address };
        }
        self.stats.exhausted += 1;
        Err(last_err)
    }

    /// Reads the measured output voltage of the rail at `address`, in volts.
    ///
    /// # Errors
    ///
    /// Fails if the device is absent or hung.
    pub fn read_vout<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
    ) -> Result<f64, PmbusError> {
        let exp = self.vout_exponent(target, address)?;
        let word = self.read_word(target, address, CommandCode::ReadVout)?;
        Ok(linear::linear16_decode(word, exp))
    }

    /// Reads measured output power in watts.
    ///
    /// # Errors
    ///
    /// Fails if the device is absent or hung.
    pub fn read_pout<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
    ) -> Result<f64, PmbusError> {
        let word = self.read_word(target, address, CommandCode::ReadPout)?;
        Ok(linear::linear11_decode(word))
    }

    /// Reads measured output current in amps.
    ///
    /// # Errors
    ///
    /// Fails if the device is absent or hung.
    pub fn read_iout<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
    ) -> Result<f64, PmbusError> {
        let word = self.read_word(target, address, CommandCode::ReadIout)?;
        Ok(linear::linear11_decode(word))
    }

    /// Reads the device temperature sensor in °C.
    ///
    /// # Errors
    ///
    /// Fails if the device is absent or hung.
    pub fn read_temperature<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
    ) -> Result<f64, PmbusError> {
        let word = self.read_word(target, address, CommandCode::ReadTemperature1)?;
        Ok(linear::linear11_decode(word))
    }

    /// Commands the fan duty cycle in percent (the paper's temperature
    /// regulation knob).
    ///
    /// # Errors
    ///
    /// Fails if the device is absent/hung or does not control a fan.
    pub fn set_fan_percent<T: PmbusTarget>(
        &mut self,
        target: &mut T,
        address: u8,
        percent: f64,
    ) -> Result<(), PmbusError> {
        if !(0.0..=100.0).contains(&percent) {
            return Err(PmbusError::Unencodable {
                reason: format!("fan duty {percent}% outside 0..=100"),
            });
        }
        let word = linear::linear11_encode(percent)?;
        self.write_word(target, address, CommandCode::FanCommand1, word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimpleRegulator;

    /// Scripted injector: plays back a fixed fault schedule, then stays
    /// clean.
    #[derive(Debug, Default)]
    struct Script {
        pre: Vec<Option<TransientFault>>,
        flips: Vec<Option<u16>>, // XOR masks applied to read words
    }

    impl BusFaultInjector for Script {
        fn pre_transaction(
            &mut self,
            _address: u8,
            _command: CommandCode,
            _direction: Direction,
        ) -> Option<TransientFault> {
            if self.pre.is_empty() {
                None
            } else {
                self.pre.remove(0)
            }
        }

        fn corrupt_read(&mut self, _address: u8, _command: CommandCode, word: u16) -> Option<u16> {
            if self.flips.is_empty() {
                None
            } else {
                self.flips.remove(0).map(|mask| word ^ mask)
            }
        }
    }

    #[test]
    fn set_and_read_vout_round_trip() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new();
        host.set_vout(&mut reg, 0x13, 0.570).unwrap();
        let v = host.read_vout(&mut reg, 0x13).unwrap();
        assert!((v - 0.570).abs() < 1e-3);
    }

    #[test]
    fn log_records_failures_too() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new();
        assert!(host.read_vout(&mut reg, 0x42).is_err());
        assert!(host.log().iter().any(|t| !t.ok && t.address == 0x42));
    }

    #[test]
    fn log_sequence_is_monotone() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new();
        for _ in 0..5 {
            host.read_pout(&mut reg, 0x13).unwrap();
        }
        let seqs: Vec<u64> = host.log().iter().map(|t| t.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn fan_duty_validation() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new();
        assert!(matches!(
            host.set_fan_percent(&mut reg, 0x13, 150.0),
            Err(PmbusError::Unencodable { .. })
        ));
    }

    #[test]
    fn ring_log_evicts_oldest_and_keeps_total() {
        let mut log = TransactionLog::with_capacity(4);
        for word in 0..5 {
            log.push(Transaction {
                seq: 99, // overwritten by the log's own count
                address: 0x13,
                command: CommandCode::ReadPout,
                direction: Direction::Read,
                word,
                ok: true,
            });
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.total(), 5);
        assert_eq!(log.capacity(), 4);
        let seqs: Vec<u64> = log.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "oldest entry (seq 0) evicted");
        let words: Vec<u16> = log.iter().map(|t| t.word).collect();
        assert_eq!(words, vec![1, 2, 3, 4], "chronological after the wrap");
    }

    #[test]
    fn transient_nack_is_retried_to_success() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new()
            .with_retry_policy(RetryPolicy::resilient())
            .with_fault_model(Box::new(Script {
                pre: vec![Some(TransientFault::Nack), Some(TransientFault::Timeout)],
                flips: vec![],
            }));
        let p = host.read_pout(&mut reg, 0x13).unwrap();
        assert!(p > 0.0);
        let stats = host.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.injected_faults, 2);
        assert!(stats.backoff > Duration::ZERO);
        assert_eq!(stats.exhausted, 0);
        // Failed attempts are in the log alongside the clean one.
        assert_eq!(host.log().iter().filter(|t| !t.ok).count(), 2);
    }

    #[test]
    fn corrupted_read_fails_pec_and_converges_on_retry() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut clean_host = PmbusAdapter::new();
        let want = clean_host.read_vout(&mut reg, 0x13).unwrap();
        let mut host = PmbusAdapter::new()
            .with_retry_policy(RetryPolicy::resilient())
            .with_fault_model(Box::new(Script {
                pre: vec![],
                // VOUT_MODE read corrupted once, then clean.
                flips: vec![Some(1 << 3)],
            }));
        let got = host.read_vout(&mut reg, 0x13).unwrap();
        assert_eq!(got, want, "retry must converge to the true value");
        assert_eq!(host.stats().pec_failures, 1);
    }

    #[test]
    fn retry_exhaustion_surfaces_the_last_error() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::resilient()
        };
        // Two NACKs then a timeout: three attempts, all transient.
        let mut host = PmbusAdapter::new()
            .with_retry_policy(policy)
            .with_fault_model(Box::new(Script {
                pre: vec![
                    Some(TransientFault::Nack),
                    Some(TransientFault::Nack),
                    Some(TransientFault::Timeout),
                ],
                flips: vec![],
            }));
        let err = host.read_pout(&mut reg, 0x13).unwrap_err();
        assert!(
            matches!(err, PmbusError::Timeout { address: 0x13 }),
            "last error must win: {err:?}"
        );
        assert_eq!(host.stats().exhausted, 1);
        assert_eq!(host.stats().retries, 2);
    }

    #[test]
    fn hard_errors_are_not_retried() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new().with_retry_policy(RetryPolicy::resilient());
        assert!(matches!(
            host.read_pout(&mut reg, 0x42),
            Err(PmbusError::NoDevice { address: 0x42 })
        ));
        assert_eq!(host.stats().retries, 0, "NoDevice must fail fast");
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let p = RetryPolicy::resilient();
        assert_eq!(p.backoff_for(1), Duration::from_micros(50));
        assert_eq!(p.backoff_for(2), Duration::from_micros(100));
        assert_eq!(p.backoff_for(3), Duration::from_micros(200));
        assert_eq!(p.backoff_for(30), Duration::from_millis(5), "capped");
    }

    #[test]
    fn verified_set_vout_reads_back_the_commanded_word() {
        let mut reg = SimpleRegulator::new(0x13, 0.85);
        let mut host = PmbusAdapter::new().with_retry_policy(RetryPolicy::resilient());
        host.set_vout(&mut reg, 0x13, 0.6).unwrap();
        // VOUT_MODE read + write + verification readback.
        assert_eq!(host.log().total(), 3);
        assert!((reg.vout() - 0.6).abs() < 1e-3);
    }

    #[test]
    fn bus_stats_accumulate_sums_fieldwise() {
        let mut total = BusStats {
            retries: 1,
            injected_faults: 2,
            pec_failures: 3,
            backoff: Duration::from_micros(10),
            exhausted: 0,
        };
        total.accumulate(BusStats {
            retries: 4,
            injected_faults: 5,
            pec_failures: 6,
            backoff: Duration::from_micros(40),
            exhausted: 1,
        });
        assert_eq!(
            total,
            BusStats {
                retries: 5,
                injected_faults: 7,
                pec_failures: 9,
                backoff: Duration::from_micros(50),
                exhausted: 1,
            }
        );
    }
}
