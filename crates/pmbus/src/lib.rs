//! PMBus protocol simulation.
//!
//! The DSN-2020 undervolting study controls and observes the ZCU102 board
//! exclusively through the Power Management Bus: rail voltages are written
//! to the on-board regulators (`VCCINT` at address `0x13`, `VCCBRAM` at
//! `0x14`), and power, current, temperature and fan speed are read back
//! through the same interface. This crate implements that control plane:
//!
//! * [`linear`] — the LINEAR11 and LINEAR16 floating-point encodings that
//!   PMBus uses on the wire.
//! * [`command`] — the command-code registry with per-command access
//!   classes.
//! * [`device`] — the [`device::PmbusTarget`] trait implemented by anything
//!   addressable on the bus (the board simulator implements it), plus a
//!   standalone [`device::SimpleRegulator`] reference device.
//! * [`adapter`] — a typed host-side adapter (mirroring the Maxim PMBus
//!   dongle + API the paper used) that encodes/decodes values and keeps a
//!   transaction log.
//! * [`pec`] — the SMBus packet error check (CRC-8) the adapter verifies
//!   reads with.
//!
//! # Examples
//!
//! ```
//! use redvolt_pmbus::adapter::PmbusAdapter;
//! use redvolt_pmbus::device::SimpleRegulator;
//!
//! # fn main() -> Result<(), redvolt_pmbus::PmbusError> {
//! let mut rail = SimpleRegulator::new(0x13, 0.85);
//! let mut adapter = PmbusAdapter::new();
//!
//! adapter.set_vout(&mut rail, 0x13, 0.570)?;
//! let readback = adapter.read_vout(&mut rail, 0x13)?;
//! assert!((readback - 0.570).abs() < 0.001);
//! # Ok(())
//! # }
//! ```

pub mod adapter;
pub mod command;
pub mod device;
pub mod linear;
pub mod pec;

use std::error::Error;
use std::fmt;

/// Errors surfaced by PMBus transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PmbusError {
    /// No device acknowledged the given address.
    NoDevice {
        /// 7-bit bus address that went unanswered.
        address: u8,
    },
    /// The device does not implement the command.
    UnsupportedCommand {
        /// 7-bit bus address of the device.
        address: u8,
        /// Raw command code.
        command: u8,
    },
    /// A value could not be encoded in the command's wire format.
    Unencodable {
        /// Human-readable reason.
        reason: String,
    },
    /// The device rejected a write (e.g. voltage outside its output range).
    Rejected {
        /// Human-readable reason from the device.
        reason: String,
    },
    /// The device has latched a fault and no longer responds (the board has
    /// crashed — the paper's behaviour below `Vcrash`).
    DeviceHung {
        /// 7-bit bus address of the hung device.
        address: u8,
    },
    /// The device did not acknowledge a byte mid-transaction (transient
    /// bus glitch — retry is expected to succeed).
    Nack {
        /// 7-bit bus address of the transaction.
        address: u8,
    },
    /// The transaction timed out (e.g. clock stretching past the host's
    /// limit — transient, retry is expected to succeed).
    Timeout {
        /// 7-bit bus address of the transaction.
        address: u8,
    },
    /// A read completed but its packet-error-check (PEC, CRC-8) did not
    /// match — the wire data was corrupted in flight (transient).
    CorruptedRead {
        /// 7-bit bus address of the transaction.
        address: u8,
    },
}

impl PmbusError {
    /// Whether the error is transient — a retry of the same transaction
    /// can succeed (NACK, timeout, corrupted read). Hard errors (no
    /// device, unsupported command, rejected write, hung device) are not
    /// transient: retrying without an external intervention cannot help.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            PmbusError::Nack { .. } | PmbusError::Timeout { .. } | PmbusError::CorruptedRead { .. }
        )
    }
}

impl fmt::Display for PmbusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmbusError::NoDevice { address } => {
                write!(f, "no PMBus device at address {address:#04x}")
            }
            PmbusError::UnsupportedCommand { address, command } => write!(
                f,
                "device {address:#04x} does not support command {command:#04x}"
            ),
            PmbusError::Unencodable { reason } => write!(f, "unencodable value: {reason}"),
            PmbusError::Rejected { reason } => write!(f, "write rejected: {reason}"),
            PmbusError::DeviceHung { address } => {
                write!(f, "device {address:#04x} is hung (board crash)")
            }
            PmbusError::Nack { address } => {
                write!(f, "device {address:#04x} NACKed mid-transaction")
            }
            PmbusError::Timeout { address } => {
                write!(f, "transaction to {address:#04x} timed out")
            }
            PmbusError::CorruptedRead { address } => {
                write!(f, "read from {address:#04x} failed packet error check")
            }
        }
    }
}

impl Error for PmbusError {}
