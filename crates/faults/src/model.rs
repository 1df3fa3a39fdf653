//! Slack-deficit → fault-rate model.
//!
//! Below the guardband, the binding critical paths of the design no longer
//! fit the clock period and timing faults appear (§2.2, §4.4). The paper
//! observes an *exponential* growth of CNN accuracy loss with decreasing
//! voltage across the ≈30 mV critical region, ending in near-random
//! classification at Vcrash. We model the per-operation fault probability
//! as an exponential function of the relative slack deficit
//! `δ = f / Fmax(V, T) − 1` produced by [`redvolt_fpga::timing`]:
//!
//! ```text
//! λ(δ) = λ0 · (e^{β·δ} − 1),   δ > 0      (zero at or above Vmin)
//! ```
//!
//! Three fault-site classes share the exponent but have separate base
//! rates: MAC-datapath faults (per multiply-accumulate), weight-fetch
//! faults (per weight code read from BRAM/DDR per layer execution), and
//! activation-buffer faults (per activation code written).
//!
//! A fault *event* is not an independent single-bit upset: a physical path
//! that misses timing fails *systematically* for the tile it is processing,
//! corrupting a correlated burst of outputs in one MAC lane (see
//! [`crate::injector`]). Rates below are therefore *event* rates.
//!
//! Calibration: with the benchmarks' ≈5 M MACs per inference, the Fig. 6
//! anchors give ≈0.01 expected datapath fault events per inference at
//! 565 mV (δ ≈ 0.074: accuracy barely dips), ≈0.4 at 560 mV (clearly
//! degraded), and hundreds at 540 mV (δ ≈ 0.55: near-random
//! classification). Solving the anchor equations yields β = 22 and
//! λ0 ≈ 4.6 × 10⁻¹⁰.

/// Exponent of the slack-deficit fault law (fitted; see module docs).
pub const FAULT_EXPONENT: f64 = 22.0;

/// Base rate of MAC-datapath fault events, per MAC operation.
pub const MAC_BASE_RATE: f64 = 4.6e-10;

/// Base rate of weight-fetch faults, per weight code per layer execution.
pub const WEIGHT_BASE_RATE: f64 = 4.6e-10;

/// Base rate of activation-buffer fault events, per activation code written.
pub const ACTIVATION_BASE_RATE: f64 = 4.6e-10;

/// Crash margin of the dense (regular dataflow) DPU designs: the board
/// hangs when `Fmax/f` falls below this (see `redvolt_fpga::calib`).
pub const DENSE_CRASH_SLACK_RATIO: f64 = 0.64;

/// Crash margin of the channel-pruned designs. Pruned networks produce a
/// more irregular, less pipeline-friendly dataflow; the paper measures the
/// pruned VGGNet hanging at 555 mV instead of 540 mV (Fig. 8), which this
/// margin reproduces on the calibrated Fmax surface: at 555 mV the margin
/// holds (Fmax(555)/333 = 0.799 ≥ 0.79) and at 550 mV it does not
/// (0.778 < 0.79), so the last responsive 5 mV step is 555 mV.
pub const PRUNED_CRASH_SLACK_RATIO: f64 = 0.79;

/// BRAM read-margin fault rate per weight code per layer execution, for a
/// `VCCBRAM` level of `vccbram_mv`.
///
/// Zero at or above [`redvolt_fpga::calib::BRAM_VMIN_MV`]; below it, read
/// failures grow exponentially with the droop (see
/// `redvolt_fpga::calib::BRAM_FAULT_EXPONENT`). This mechanism is
/// independent of the logic rail's timing slack: it models the authors'
/// prior BRAM-undervolting characterization and only matters when
/// `VCCBRAM` is driven below the logic rail (the §4.1 scenario where BRAM
/// undervolting buys almost no power on UltraScale+ but still risks
/// weight corruption).
pub fn bram_weight_rate(vccbram_mv: f64) -> f64 {
    use redvolt_fpga::calib::{BRAM_BASE_RATE, BRAM_FAULT_EXPONENT, BRAM_VMIN_MV, VNOM_MV};
    if vccbram_mv >= BRAM_VMIN_MV {
        return 0.0;
    }
    let droop = (BRAM_VMIN_MV - vccbram_mv) / VNOM_MV;
    BRAM_BASE_RATE * ((BRAM_FAULT_EXPONENT * droop.min(0.25)).exp() - 1.0)
}

/// Per-site-class fault rates at one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability of a datapath fault per MAC operation.
    pub per_mac: f64,
    /// Probability of a fetch fault per weight code per layer execution.
    pub per_weight: f64,
    /// Probability of a write fault per activation code.
    pub per_activation: f64,
}

impl FaultRates {
    /// Rates for a relative slack deficit `δ` (0 ⇒ all rates 0).
    pub fn for_deficit(deficit: f64) -> Self {
        if deficit <= 0.0 {
            return FaultRates::default();
        }
        // Saturate the exponent: far past crash the board hangs anyway and
        // unbounded rates would only overflow the Poisson sampler.
        let growth = (FAULT_EXPONENT * deficit.min(0.8)).exp() - 1.0;
        FaultRates {
            per_mac: MAC_BASE_RATE * growth,
            per_weight: WEIGHT_BASE_RATE * growth,
            per_activation: ACTIVATION_BASE_RATE * growth,
        }
    }

    /// Whether all rates are zero (fault-free operating point).
    pub fn is_zero(&self) -> bool {
        self.per_mac == 0.0 && self.per_weight == 0.0 && self.per_activation == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_deficit_is_fault_free() {
        let r = FaultRates::for_deficit(0.0);
        assert!(r.is_zero());
        assert!(FaultRates::for_deficit(-1.0).is_zero());
    }

    #[test]
    fn rates_grow_exponentially() {
        let small = FaultRates::for_deficit(0.074);
        let large = FaultRates::for_deficit(0.549);
        assert!(large.per_mac / small.per_mac > 100.0);
    }

    #[test]
    fn calibration_anchor_565mv() {
        // δ(565 mV) = 333/310 − 1 ≈ 0.074: ≈0.1 faults per 5M-MAC inference.
        let r = FaultRates::for_deficit(333.0 / 310.0 - 1.0);
        let expected = r.per_mac * 5_000_000.0;
        assert!((0.003..0.04).contains(&expected), "expected = {expected}");
    }

    #[test]
    fn calibration_anchor_540mv() {
        // δ(540 mV) = 333/215 − 1 ≈ 0.549: hundreds of fault events per
        // inference — near-random classification.
        let r = FaultRates::for_deficit(333.0 / 215.0 - 1.0);
        let expected = r.per_mac * 5_000_000.0;
        assert!((100.0..1500.0).contains(&expected), "expected = {expected}");
    }

    #[test]
    fn rates_saturate_far_past_crash() {
        let a = FaultRates::for_deficit(2.0);
        let b = FaultRates::for_deficit(10.0);
        assert_eq!(a.per_mac, b.per_mac, "exponent must saturate");
        assert!(a.per_mac.is_finite());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // pins compile-time calibration
    fn pruned_crash_margin_is_tighter() {
        assert!(PRUNED_CRASH_SLACK_RATIO > DENSE_CRASH_SLACK_RATIO);
    }

    #[test]
    fn rates_are_monotone_in_deficit() {
        let mut prev = 0.0;
        for i in 1..40 {
            let d = i as f64 * 0.02;
            let r = FaultRates::for_deficit(d);
            assert!(r.per_mac > prev, "rate must grow at δ={d}");
            prev = r.per_mac;
        }
    }
}
