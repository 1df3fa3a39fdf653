//! BRAM-rail separation study (§4.1 discussion + the authors' prior
//! BRAM-undervolting work).
//!
//! The paper tracks `VCCBRAM` together with `VCCINT` and notes that BRAMs
//! draw under 0.1 % of on-chip power on UltraScale+ (dynamic power
//! gating), so BRAM undervolting — the subject of the authors' earlier
//! 7-series studies — no longer buys meaningful power. This campaign
//! reproduces that conclusion by driving `VCCBRAM` *alone*: power stays
//! flat to within telemetry noise while weight-fetch faults appear once
//! the rail drops below the BRAM read-margin floor (≈520 mV), far below
//! the logic rail's 570 mV Vmin.

use crate::experiment::{Accelerator, MeasureError, Measurement};
use crate::sweep::{descend, SweepConfig};
use redvolt_fpga::rails::RailId;
use std::ops::ControlFlow;

/// One point of the BRAM-rail sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BramPoint {
    /// Commanded `VCCBRAM`, mV.
    pub vccbram_mv: f64,
    /// The measurement at that point (`VCCINT` stays at nominal).
    pub measurement: Measurement,
}

/// Result of the BRAM-rail sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BramStudy {
    /// Points, highest voltage first.
    pub points: Vec<BramPoint>,
    /// Voltage at which the BRAM contents collapsed and the board hung.
    pub crashed_at_mv: Option<f64>,
}

/// Sweeps `VCCBRAM` downward with `VCCINT` held at nominal.
///
/// # Errors
///
/// Propagates non-crash errors; ends at the BRAM collapse. The
/// accelerator is power-cycled on return.
pub fn bram_rail_study(
    acc: &mut Accelerator,
    start_mv: f64,
    stop_mv: f64,
    step_mv: f64,
    images: usize,
) -> Result<BramStudy, MeasureError> {
    acc.power_cycle();
    let cfg = SweepConfig {
        start_mv,
        stop_mv,
        step_mv,
        images,
    };
    let (points, crashed_at_mv) = descend(acc, &cfg, RailId::Vccbram, |acc, vccbram_mv| {
        let measurement = acc.measure(images)?;
        Ok(ControlFlow::Continue(BramPoint {
            vccbram_mv,
            measurement,
        }))
    })?;
    Ok(BramStudy {
        points,
        crashed_at_mv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;
    use crate::experiment::AcceleratorConfig;
    use redvolt_nn::models::ModelScale;

    fn study() -> &'static BramStudy {
        // The sweep is expensive at paper scale; share it across tests.
        static STUDY: std::sync::OnceLock<BramStudy> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| {
            let mut acc = Accelerator::bring_up(&AcceleratorConfig {
                eval_images: 32,
                repetitions: 2,
                scale: ModelScale::Paper,
                ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
            })
            .unwrap();
            bram_rail_study(&mut acc, 850.0, 430.0, 10.0, 32).unwrap()
        })
    }

    #[test]
    fn bram_rail_alone_saves_almost_no_power() {
        // §4.1: BRAMs draw <0.1% of on-chip power on UltraScale+.
        let powers: Vec<f64> = study()
            .points
            .iter()
            .filter(|p| p.measurement.injected_faults == 0)
            .map(|p| p.measurement.power_w)
            .collect();
        assert!(!powers.is_empty());
        let spread = powers.iter().cloned().fold(f64::MIN, f64::max)
            - powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.2, "spread = {spread} W");
    }

    #[test]
    fn bram_faults_appear_far_below_logic_vmin() {
        let vmin = study()
            .points
            .iter()
            .take_while(|p| p.measurement.injected_faults == 0)
            .last()
            .map(|p| p.vccbram_mv)
            .expect("some fault-free points");
        assert!(
            (480.0..=530.0).contains(&vmin),
            "BRAM Vmin = {vmin} (expected ≈520, well below the logic 570)"
        );
    }

    #[test]
    fn bram_collapse_hangs_the_board() {
        let s = study();
        let crash = s.crashed_at_mv.expect("sweep reaches BRAM collapse");
        assert!(crash < 460.0, "collapse at {crash}");
    }

    #[test]
    fn accuracy_degrades_only_below_bram_vmin() {
        let s = study();
        let nominal = s.points.first().unwrap().measurement.accuracy;
        for p in &s.points {
            if p.vccbram_mv >= 530.0 {
                assert_eq!(p.measurement.accuracy, nominal, "at {}", p.vccbram_mv);
            }
        }
        let deepest = s.points.last().unwrap();
        assert!(
            deepest.measurement.injected_faults > 0,
            "deepest point should fault: {deepest:?}"
        );
    }
}
