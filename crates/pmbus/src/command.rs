//! PMBus command-code registry.
//!
//! Only the subset of the PMBus 1.3 command space that the study's
//! methodology exercises is modelled: voltage regulation, telemetry
//! (voltage / current / power / temperature) and fan control.

use std::fmt;

/// PMBus commands used by the measurement methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CommandCode {
    /// Select a page (rail) on multi-rail devices.
    Page = 0x00,
    /// On/off and margining behaviour.
    Operation = 0x01,
    /// Output voltage encoding mode (exponent for LINEAR16).
    VoutMode = 0x20,
    /// Commanded output voltage (LINEAR16).
    VoutCommand = 0x21,
    /// Output over-voltage fault threshold (LINEAR16).
    VoutOvFaultLimit = 0x40,
    /// Output under-voltage fault threshold (LINEAR16).
    VoutUvFaultLimit = 0x44,
    /// Fan configuration for fan 1.
    FanConfig12 = 0x3A,
    /// Commanded fan speed (LINEAR11, here in percent duty).
    FanCommand1 = 0x3B,
    /// Latched status summary byte.
    StatusByte = 0x78,
    /// Measured input voltage (LINEAR11).
    ReadVin = 0x88,
    /// Measured input current (LINEAR11).
    ReadIin = 0x89,
    /// Measured output voltage (LINEAR16).
    ReadVout = 0x8B,
    /// Measured output current (LINEAR11).
    ReadIout = 0x8C,
    /// Measured temperature sensor 1 (LINEAR11).
    ReadTemperature1 = 0x8D,
    /// Measured fan speed 1 (LINEAR11).
    ReadFanSpeed1 = 0x90,
    /// Measured output power (LINEAR11).
    ReadPout = 0x96,
    /// Measured input power (LINEAR11).
    ReadPin = 0x97,
}

/// Access class of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Host may only read.
    ReadOnly,
    /// Host may read and write.
    ReadWrite,
}

impl CommandCode {
    /// All commands in this registry.
    pub const ALL: [CommandCode; 17] = [
        CommandCode::Page,
        CommandCode::Operation,
        CommandCode::VoutMode,
        CommandCode::VoutCommand,
        CommandCode::VoutOvFaultLimit,
        CommandCode::VoutUvFaultLimit,
        CommandCode::FanConfig12,
        CommandCode::FanCommand1,
        CommandCode::StatusByte,
        CommandCode::ReadVin,
        CommandCode::ReadIin,
        CommandCode::ReadVout,
        CommandCode::ReadIout,
        CommandCode::ReadTemperature1,
        CommandCode::ReadFanSpeed1,
        CommandCode::ReadPout,
        CommandCode::ReadPin,
    ];

    /// Looks a command up by raw code.
    pub fn from_raw(code: u8) -> Option<CommandCode> {
        CommandCode::ALL.iter().copied().find(|c| *c as u8 == code)
    }

    /// Raw wire code.
    pub fn raw(self) -> u8 {
        self as u8
    }

    /// Access class of this command.
    pub fn access(self) -> Access {
        match self {
            CommandCode::StatusByte
            | CommandCode::ReadVin
            | CommandCode::ReadIin
            | CommandCode::ReadVout
            | CommandCode::ReadIout
            | CommandCode::ReadTemperature1
            | CommandCode::ReadFanSpeed1
            | CommandCode::ReadPout
            | CommandCode::ReadPin => Access::ReadOnly,
            _ => Access::ReadWrite,
        }
    }
}

impl fmt::Display for CommandCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}({:#04x})", self.raw())
    }
}

/// Status-byte bit flags (subset of the PMBus STATUS_BYTE definition).
pub mod status {
    /// Output over-voltage fault latched.
    pub const VOUT_OV: u8 = 1 << 5;
    /// Output under-voltage / output fault latched.
    pub const VOUT_UV: u8 = 1 << 4;
    /// Communication/memory/logic fault (we latch this on board crash).
    pub const CML: u8 = 1 << 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_codes_match_pmbus_spec() {
        assert_eq!(CommandCode::VoutCommand.raw(), 0x21);
        assert_eq!(CommandCode::ReadVout.raw(), 0x8B);
        assert_eq!(CommandCode::ReadPout.raw(), 0x96);
        assert_eq!(CommandCode::ReadTemperature1.raw(), 0x8D);
        assert_eq!(CommandCode::FanCommand1.raw(), 0x3B);
    }

    #[test]
    fn from_raw_round_trips_all() {
        for cmd in CommandCode::ALL {
            assert_eq!(CommandCode::from_raw(cmd.raw()), Some(cmd));
        }
    }

    #[test]
    fn from_raw_unknown_is_none() {
        assert_eq!(CommandCode::from_raw(0xFF), None);
        assert_eq!(CommandCode::from_raw(0x02), None);
    }

    #[test]
    fn read_commands_are_read_only() {
        for cmd in CommandCode::ALL {
            let name = format!("{cmd:?}");
            if name.starts_with("Read") || name.starts_with("Status") {
                assert_eq!(cmd.access(), Access::ReadOnly, "{cmd}");
            }
        }
    }
}
