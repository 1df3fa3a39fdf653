//! Narrow fixed-point formats for quantized CNN datapaths.
//!
//! The DPU executes CNN layers in integer arithmetic: weights and
//! activations in `INTk` (k = 8 in the paper's baseline, down to 4 in the
//! quantization study of Fig. 7) with 32-bit accumulators. This module
//! defines the value formats and the saturating conversions used by
//! `redvolt-nn`'s quantizer and by the DPU engine.

use crate::NumError;

/// A signed integer format of `bits` total bits (two's complement), as used
/// for DPU weights and activations.
///
/// # Examples
///
/// ```
/// use redvolt_num::fixed::IntFormat;
///
/// let int8 = IntFormat::new(8).unwrap();
/// assert_eq!(int8.max_value(), 127);
/// assert_eq!(int8.min_value(), -128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntFormat {
    bits: u32,
}

impl IntFormat {
    /// Creates a format of the given width.
    ///
    /// Widths 1..=8 correspond to the DECENT quantizer's INT1..INT8 output
    /// precisions (the paper evaluates INT8 down to INT4 and notes INT3 and
    /// below lose accuracy even at nominal voltage).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::FixedOverflow`] if `bits` is 0 or exceeds 8.
    pub fn new(bits: u32) -> Result<Self, NumError> {
        if bits == 0 || bits > 8 {
            return Err(NumError::FixedOverflow {
                value: f64::from(bits),
                bits,
            });
        }
        Ok(IntFormat { bits })
    }

    /// The INT8 baseline format.
    pub const INT8: IntFormat = IntFormat { bits: 8 };

    /// Total bit width.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Largest representable value, `2^(bits-1) - 1`.
    pub fn max_value(self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Smallest representable value, `-2^(bits-1)`.
    pub fn min_value(self) -> i32 {
        -(1i32 << (self.bits - 1))
    }

    /// Number of representable codes, `2^bits`.
    pub fn code_count(self) -> u32 {
        1u32 << self.bits
    }

    /// Returns `true` if `v` is representable without saturation.
    pub fn contains(self, v: i32) -> bool {
        v >= self.min_value() && v <= self.max_value()
    }

    /// Reinterprets the low `bits` of `raw` as a sign-extended value.
    ///
    /// This is what a hardware bit-flip does to a stored code: the flipped
    /// pattern is read back as a two's-complement number of the same width.
    pub fn sign_extend(self, raw: u32) -> i32 {
        let shift = 32 - self.bits;
        ((raw << shift) as i32) >> shift
    }

    /// The raw (unsigned) bit pattern of a representable value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is out of range; release builds mask.
    pub fn to_raw(self, v: i32) -> u32 {
        debug_assert!(self.contains(v), "{v} out of range for INT{}", self.bits);
        (v as u32) & (self.code_count() - 1)
    }
}

/// Symmetric linear quantization parameters: `real ≈ code · scale`.
///
/// Mirrors DECENT's symmetric per-tensor quantization (zero point fixed at
/// 0), which is what the DPU's integer MACs assume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantScale {
    /// Real value represented by code 1.
    pub scale: f64,
    /// Code format.
    pub format: IntFormat,
}

impl QuantScale {
    /// Chooses a scale so that `max_abs` maps to the largest positive code.
    ///
    /// A `max_abs` of zero yields a unit scale (all-zero tensor).
    pub fn for_max_abs(max_abs: f64, format: IntFormat) -> Self {
        let scale = if max_abs > 0.0 {
            max_abs / f64::from(format.max_value())
        } else {
            1.0
        };
        QuantScale { scale, format }
    }

    /// Quantizes a real value to the nearest representable code, saturating.
    pub fn quantize(&self, real: f64) -> i32 {
        let code = (real / self.scale).round();
        // Saturate in f64 space first to avoid i32 overflow on huge inputs.
        let hi = f64::from(self.format.max_value());
        let lo = f64::from(self.format.min_value());
        code.clamp(lo, hi) as i32
    }

    /// Reconstructs the real value of a code.
    pub fn dequantize(&self, code: i32) -> f64 {
        f64::from(code) * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_ranges() {
        let f8 = IntFormat::new(8).unwrap();
        assert_eq!((f8.min_value(), f8.max_value()), (-128, 127));
        let f4 = IntFormat::new(4).unwrap();
        assert_eq!((f4.min_value(), f4.max_value()), (-8, 7));
        let f1 = IntFormat::new(1).unwrap();
        assert_eq!((f1.min_value(), f1.max_value()), (-1, 0));
    }

    #[test]
    fn rejects_bad_widths() {
        assert!(IntFormat::new(0).is_err());
        assert!(IntFormat::new(9).is_err());
    }

    #[test]
    fn sign_extend_round_trips() {
        let f5 = IntFormat::new(5).unwrap();
        for v in f5.min_value()..=f5.max_value() {
            assert_eq!(f5.sign_extend(f5.to_raw(v)), v);
        }
    }

    #[test]
    fn sign_extend_interprets_flipped_msb() {
        let f8 = IntFormat::INT8;
        // Flipping the sign bit of +1 (0x01) gives 0x81 = -127.
        assert_eq!(f8.sign_extend(0x81), -127);
    }

    #[test]
    fn quant_scale_maps_max_abs_to_max_code() {
        let q = QuantScale::for_max_abs(2.54, IntFormat::INT8);
        assert_eq!(q.quantize(2.54), 127);
        assert_eq!(q.quantize(-2.54), -127);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn quant_saturates_beyond_range() {
        let q = QuantScale::for_max_abs(1.0, IntFormat::INT8);
        assert_eq!(q.quantize(10.0), 127);
        assert_eq!(q.quantize(-10.0), -128);
        assert_eq!(q.quantize(1e300), 127);
    }

    #[test]
    fn dequantize_error_bounded_by_half_step() {
        let q = QuantScale::for_max_abs(1.0, IntFormat::INT8);
        let mut x = -1.0;
        while x <= 1.0 {
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.scale / 2.0 + 1e-12, "err {err} at {x}");
            x += 0.001;
        }
    }

    #[test]
    fn zero_tensor_scale_is_unit() {
        let q = QuantScale::for_max_abs(0.0, IntFormat::INT8);
        assert_eq!(q.scale, 1.0);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn lower_precision_has_larger_step() {
        let q8 = QuantScale::for_max_abs(1.0, IntFormat::new(8).unwrap());
        let q4 = QuantScale::for_max_abs(1.0, IntFormat::new(4).unwrap());
        assert!(q4.scale > q8.scale);
    }
}
