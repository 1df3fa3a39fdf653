//! Calibrated Xilinx ZCU102 board simulator.
//!
//! The DSN-2020 undervolting study measures three real ZCU102 boards; this
//! crate replaces them with a physics-based, measurement-calibrated model
//! so the paper's entire methodology can run in software:
//!
//! * [`rails`] — the PMBus-addressable voltage-rail tree (`VCCINT` at
//!   `0x13`, `VCCBRAM` at `0x14`, fixed off-focus rails).
//! * [`variation`] — per-board process corners reproducing the paper's
//!   ΔVmin ≈ 31 mV / ΔVcrash ≈ 18 mV spread across samples.
//! * [`timing`] — the multi-path `Fmax(V, T)` surface with inverse thermal
//!   dependence; source of slack deficits and crash behaviour.
//! * [`power`] — activity/clock/fixed/leakage power components anchored to
//!   the paper's 12.59 W nominal, ×2.6 guardband gain and Table-2 column.
//! * [`thermal`] — fan-duty → junction-temperature model (34–52 °C span).
//! * [`board`] — [`board::Zcu102Board`], the stateful board with PMBus
//!   front-end and crash latch.
//! * [`calib`] — every calibration constant, with provenance.
//! * [`ecc`] — the built-in SECDED(72,64) BRAM code (§4.1's reason BRAM
//!   survives deep undervolting) and the periodic scrubbing task.
//!
//! # Examples
//!
//! ```
//! use redvolt_fpga::board::Zcu102Board;
//! use redvolt_fpga::power::LoadProfile;
//! use redvolt_pmbus::adapter::PmbusAdapter;
//!
//! # fn main() -> Result<(), redvolt_pmbus::PmbusError> {
//! let mut board = Zcu102Board::new(0);
//! board.set_load(LoadProfile::nominal());
//!
//! let mut host = PmbusAdapter::new();
//! host.set_vout(&mut board, 0x13, 0.570)?; // eliminate the guardband
//! let power = host.read_pout(&mut board, 0x13)?;
//! assert!(power < 5.5); // ≈12.6 W / 2.6
//! # Ok(())
//! # }
//! ```

pub mod board;
pub mod calib;
pub mod ecc;
pub mod power;
pub mod rails;
pub mod thermal;
pub mod timing;
pub mod variation;
