//! Voltage sweep campaigns (the backbone of Figs. 4–6) and the downward
//! descent every undervolting campaign walks.

use crate::experiment::{Accelerator, MeasureError, Measurement};
use redvolt_fpga::rails::RailId;
use std::ops::ControlFlow;

/// Configuration of a downward voltage sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// First (highest) `VCCINT` in mV.
    pub start_mv: f64,
    /// Lowest voltage to attempt, mV.
    pub stop_mv: f64,
    /// Step size, mV (the paper scans in 5 mV steps near the critical
    /// region and coarser above the guardband).
    pub step_mv: f64,
    /// Evaluation images per point.
    pub images: usize,
}

impl SweepConfig {
    /// The paper's full sweep: nominal down to past Vcrash in 5 mV steps.
    pub fn full() -> Self {
        SweepConfig {
            start_mv: 850.0,
            stop_mv: 500.0,
            step_mv: 5.0,
            images: 100,
        }
    }

    /// The voltages this sweep commands, highest first: `start_mv`,
    /// `start_mv - step_mv`, … down to the last value `>= stop_mv` (with a
    /// 1 nV slack so accumulated float error cannot drop the final point).
    ///
    /// This enumeration is the unit the campaign executor shards over, so
    /// its edge cases are pinned by tests: a stop above the start yields an
    /// empty sweep, `start == stop` yields exactly one point, and a step
    /// that does not divide the span still includes the last in-range
    /// voltage rather than overshooting below `stop_mv`.
    ///
    /// # Panics
    ///
    /// Panics if `step_mv` is not a positive finite number.
    pub fn voltages_mv(&self) -> Vec<f64> {
        assert!(
            self.step_mv > 0.0 && self.step_mv.is_finite(),
            "step_mv must be positive and finite: {}",
            self.step_mv
        );
        let mut voltages = Vec::new();
        let mut mv = self.start_mv;
        while mv >= self.stop_mv - 1e-9 {
            voltages.push(mv);
            mv -= self.step_mv;
        }
        voltages
    }
}

/// Result of a downward voltage sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSweep {
    /// Successful measurements, highest voltage first.
    pub points: Vec<Measurement>,
    /// Voltage at which the board hung, if the sweep reached it.
    pub crashed_at_mv: Option<f64>,
}

impl VoltageSweep {
    /// The measurement at (or nearest below) a commanded voltage.
    pub fn at_mv(&self, mv: f64) -> Option<&Measurement> {
        self.points.iter().find(|m| (m.vccint_mv - mv).abs() < 1e-6)
    }

    /// The nominal (first) point.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    pub fn nominal(&self) -> &Measurement {
        self.points.first().expect("sweep has at least one point")
    }

    /// The last responsive voltage of the sweep (the measured `Vcrash` in
    /// the paper's terminology: the lowest voltage at which the FPGA is
    /// still functional).
    pub fn last_alive_mv(&self) -> Option<f64> {
        self.points.last().map(|m| m.vccint_mv)
    }
}

/// Walks `cfg`'s schedule down `rail`, the loop every undervolting
/// campaign shares (§4.2: lower the rail in fixed steps, probe at each
/// step). At each voltage it commands the rail over PMBus and runs
/// `probe`, which returns the point to record and continue with, or
/// [`ControlFlow::Break`] to end the descent there. The first hang,
/// during the write or the probe, ends the descent and is returned as
/// the commanded voltage. The accelerator is power-cycled, back at
/// nominal, when this returns.
///
/// # Errors
///
/// Power-cycles, then propagates non-crash errors
/// ([`MeasureError::Pmbus`] etc.).
///
/// # Panics
///
/// Panics if `rail` is not `VCCINT` or `VCCBRAM`, the two rails the
/// accelerator regulates.
pub fn descend<T>(
    acc: &mut Accelerator,
    cfg: &SweepConfig,
    rail: RailId,
    mut probe: impl FnMut(&mut Accelerator, f64) -> Result<ControlFlow<(), T>, MeasureError>,
) -> Result<(Vec<T>, Option<f64>), MeasureError> {
    let mut points = Vec::new();
    let mut crashed_at_mv = None;
    for mv in cfg.voltages_mv() {
        let set = match rail {
            RailId::Vccint => acc.set_vccint_mv(mv),
            RailId::Vccbram => acc.set_vccbram_mv(mv),
            other => panic!("{} is not an undervolted rail", other.name()),
        };
        match set.and_then(|()| probe(acc, mv)) {
            Ok(ControlFlow::Continue(point)) => points.push(point),
            Ok(ControlFlow::Break(())) => break,
            Err(MeasureError::Crashed { .. }) => {
                crashed_at_mv = Some(mv);
                break;
            }
            Err(e) => {
                acc.power_cycle();
                return Err(e);
            }
        }
    }
    acc.power_cycle();
    Ok((points, crashed_at_mv))
}

/// Runs a downward `VCCINT` sweep, measuring `cfg.images` images at
/// every step: [`descend`] with a probe that never stops early.
///
/// # Errors
///
/// Propagates non-crash errors ([`MeasureError::Pmbus`] etc.).
pub fn voltage_sweep(
    acc: &mut Accelerator,
    cfg: &SweepConfig,
) -> Result<VoltageSweep, MeasureError> {
    let (points, crashed_at_mv) = descend(acc, cfg, RailId::Vccint, |acc, _| {
        acc.measure(cfg.images).map(ControlFlow::Continue)
    })?;
    Ok(VoltageSweep {
        points,
        crashed_at_mv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;
    use crate::experiment::AcceleratorConfig;

    fn sweep() -> VoltageSweep {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig::tiny(BenchmarkId::VggNet)).unwrap();
        voltage_sweep(
            &mut acc,
            &SweepConfig {
                start_mv: 850.0,
                stop_mv: 520.0,
                step_mv: 10.0,
                images: 16,
            },
        )
        .unwrap()
    }

    fn steps(start_mv: f64, stop_mv: f64, step_mv: f64) -> SweepConfig {
        SweepConfig {
            start_mv,
            stop_mv,
            step_mv,
            images: 1,
        }
    }

    #[test]
    fn enumeration_counts_divisible_span() {
        // 850 → 520 in 5s: 67 points, both endpoints included.
        let cfg = steps(850.0, 520.0, 5.0);
        let v = cfg.voltages_mv();
        assert_eq!(v.len(), 67);
        assert_eq!(v[0], 850.0);
        assert_eq!(*v.last().unwrap(), 520.0);
    }

    #[test]
    fn enumeration_stop_below_start_is_empty() {
        let cfg = steps(520.0, 850.0, 5.0);
        assert!(cfg.voltages_mv().is_empty());
    }

    #[test]
    fn enumeration_single_point_when_start_equals_stop() {
        let cfg = steps(850.0, 850.0, 5.0);
        assert_eq!(cfg.voltages_mv(), vec![850.0]);
    }

    #[test]
    fn enumeration_non_divisible_step_keeps_last_in_range_point() {
        // 850 → 520 in 7s: the last in-range point is 850 - 47·7 = 521;
        // the next step (514) would overshoot below stop and is excluded.
        let cfg = steps(850.0, 520.0, 7.0);
        let v = cfg.voltages_mv();
        assert_eq!(v.len(), 48);
        assert_eq!(*v.last().unwrap(), 521.0);
        assert!(v.iter().all(|&mv| mv >= 520.0));
    }

    #[test]
    fn enumeration_sub_unit_step_accumulates_no_float_drift() {
        // 0.1 is inexact in binary; 3301 accumulated subtractions must not
        // lose the final 520.0 point to rounding.
        let cfg = steps(850.0, 520.0, 0.1);
        let v = cfg.voltages_mv();
        assert_eq!(v.len(), 3301);
        assert!((v.last().unwrap() - 520.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "step_mv must be positive")]
    fn enumeration_rejects_non_positive_step() {
        steps(850.0, 520.0, 0.0).voltages_mv();
    }

    #[test]
    fn sweep_descends_and_ends_in_crash() {
        let s = sweep();
        assert!(s.points.len() > 10);
        assert!(s.crashed_at_mv.is_some(), "10 mV steps must reach Vcrash");
        let mvs: Vec<f64> = s.points.iter().map(|m| m.vccint_mv).collect();
        assert!(mvs.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(s.nominal().vccint_mv, 850.0);
    }

    #[test]
    fn power_decreases_monotonically_with_voltage() {
        let s = sweep();
        for w in s.points.windows(2) {
            assert!(
                w[1].power_w < w[0].power_w + 0.08,
                "power should fall: {} -> {} at {}",
                w[0].power_w,
                w[1].power_w,
                w[1].vccint_mv
            );
        }
    }

    #[test]
    fn accuracy_flat_above_570() {
        let s = sweep();
        let nominal_acc = s.nominal().accuracy;
        for m in s.points.iter().filter(|m| m.vccint_mv >= 570.0) {
            assert_eq!(m.accuracy, nominal_acc, "at {}", m.vccint_mv);
            assert_eq!(m.injected_faults, 0);
        }
    }

    #[test]
    fn accelerator_is_restored_after_sweep() {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig::tiny(BenchmarkId::VggNet)).unwrap();
        voltage_sweep(
            &mut acc,
            &SweepConfig {
                start_mv: 850.0,
                stop_mv: 520.0,
                step_mv: 20.0,
                images: 8,
            },
        )
        .unwrap();
        assert!(!acc.board().is_crashed());
        assert_eq!(acc.vccint_mv(), 850.0);
    }
}
