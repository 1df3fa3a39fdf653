//! Numeric substrates for the `redvolt` FPGA undervolting study.
//!
//! This crate collects the small, dependency-free numeric building blocks the
//! rest of the workspace relies on:
//!
//! * [`rng`] — deterministic, seedable random number generation
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`]) so that every
//!   "measurement" in the simulated study is exactly reproducible.
//! * [`pchip`] — monotone piecewise-cubic Hermite interpolation, used to
//!   anchor calibrated hardware models (power, delay) to the paper's
//!   published measurement points without introducing spurious oscillation.
//! * [`stats`] — summary statistics for repeated experiments (the paper
//!   averages 10 repetitions per data point).
//! * [`fit`] — golden-section minimization, used by the calibration audit
//!   to re-derive fitted constants.
//! * [`fixed`] — Q-format fixed-point arithmetic mirroring the INT8..INT4
//!   quantized datapaths of the DPU.
//!
//! # Examples
//!
//! ```
//! use redvolt_num::pchip::Pchip;
//!
//! # fn main() -> Result<(), redvolt_num::NumError> {
//! // Anchor a monotone curve at measured points and query between them.
//! let curve = Pchip::new(&[0.0, 1.0, 2.0], &[0.0, 10.0, 12.0])?;
//! let mid = curve.eval(0.5);
//! assert!(mid > 0.0 && mid < 10.0);
//! # Ok(())
//! # }
//! ```

pub mod fit;
pub mod fixed;
pub mod pchip;
pub mod rng;
pub mod stats;

use std::error::Error;
use std::fmt;

/// Error type for numeric routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumError {
    /// Interpolation knots were empty, mismatched in length, or not strictly
    /// increasing in `x`.
    InvalidKnots(String),
    /// A statistics routine was asked to summarize an empty sample.
    EmptySample,
    /// A fixed-point conversion overflowed the representable range.
    FixedOverflow {
        /// The out-of-range value that triggered the overflow.
        value: f64,
        /// Total bit width of the target format.
        bits: u32,
    },
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::InvalidKnots(why) => write!(f, "invalid interpolation knots: {why}"),
            NumError::EmptySample => write!(f, "empty sample"),
            NumError::FixedOverflow { value, bits } => {
                write!(f, "value {value} overflows {bits}-bit fixed-point range")
            }
        }
    }
}

impl Error for NumError {}
