//! Razor-style fault mitigation below the guardband (§9 future work i).
//!
//! The paper's §5 rescue (frequency underscaling) trades throughput for
//! correctness *statically*. This extension evaluates the alternative the
//! paper proposes as future work: keep the full clock and *detect-and-
//! retry* timing faults (Razor shadow latches detect violations; the
//! affected inference re-executes). In the upper critical region faults
//! are rare enough that retries are cheap and accuracy returns to nominal;
//! approaching Vcrash the per-inference fault probability saturates and
//! the scheme collapses — retries stop converging.

use crate::experiment::{Accelerator, MeasureError};
use crate::sweep::{descend, SweepConfig};
use redvolt_dpu::runtime::RunError;
use redvolt_fpga::rails::RailId;
use redvolt_num::stats::Summary;
use std::ops::ControlFlow;

/// One voltage point of the mitigation study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationPoint {
    /// `VCCINT` in mV.
    pub vccint_mv: f64,
    /// Accuracy with mitigation enabled.
    pub accuracy: f64,
    /// Accuracy without mitigation (same operating point).
    pub unmitigated_accuracy: f64,
    /// Mean executions per image (the redundancy cost).
    pub attempts_per_image: f64,
    /// Effective GOPs/W after paying the redundancy.
    pub effective_gops_per_w: f64,
    /// Fraction of images still faulty after the retry budget.
    pub unresolved_fraction: f64,
}

/// Result of the mitigation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationStudy {
    /// Points from the guardband edge down to the last responsive voltage.
    pub points: Vec<MitigationPoint>,
}

/// Sweeps the critical region with Razor mitigation at the full clock.
///
/// # Errors
///
/// Propagates non-crash measurement errors; the sweep ends at the first
/// hang. The accelerator is power-cycled on return.
pub fn mitigation_study(
    acc: &mut Accelerator,
    start_mv: f64,
    stop_mv: f64,
    step_mv: f64,
    images: usize,
    max_retries: u32,
) -> Result<MitigationStudy, MeasureError> {
    acc.power_cycle();
    let cfg = SweepConfig {
        start_mv,
        stop_mv,
        step_mv,
        images,
    };
    let (points, _) = descend(acc, &cfg, RailId::Vccint, |acc, mv| {
        // Unmitigated reference at the same point.
        let plain = acc.measure(images)?;
        let reps = acc.config().repetitions.max(1);
        let n = images.min(acc.workload().eval.len()).max(1);
        let mut accs = Vec::with_capacity(reps);
        let mut attempts = Vec::with_capacity(reps);
        let mut unresolved = 0u64;
        let mut eff_gops_per_w = 0.0;
        for rep in 0..reps {
            let seed = acc.config().seed ^ ((rep as u64 + 1) << 32) ^ mv.to_bits();
            let (runtime, workload) = acc.runtime_and_workload_mut();
            let eval = &workload.eval;
            let r = runtime
                .run_batch(&workload.task, &eval.images[..n], seed, max_retries)
                .map_err(|e| match e {
                    RunError::BoardCrashed => MeasureError::Crashed { vccint_mv: mv },
                    e => MeasureError::Run(e),
                })?;
            let hits = r
                .predictions
                .iter()
                .zip(&eval.labels[..n])
                .filter(|(p, l)| p == l)
                .count();
            accs.push(hits as f64 / n as f64);
            attempts.push(r.attempts as f64 / n as f64);
            unresolved += r.unresolved_images;
            eff_gops_per_w = r.timing.gops / r.on_chip_power_w;
        }
        Ok(ControlFlow::Continue(MitigationPoint {
            vccint_mv: mv,
            accuracy: Summary::of(&accs).expect("reps >= 1").mean,
            unmitigated_accuracy: plain.accuracy,
            attempts_per_image: Summary::of(&attempts).expect("reps >= 1").mean,
            effective_gops_per_w: eff_gops_per_w,
            unresolved_fraction: unresolved as f64 / (reps * n) as f64,
        }))
    })?;
    Ok(MitigationStudy { points })
}

/// The escalation policy of the adaptive governor: where to move the
/// operating point when the current one keeps producing SDC/ECC events.
///
/// The order follows the paper's mitigation axes. Frequency underscaling
/// comes first (§5: a lower clock restores timing slack at the same
/// voltage, and Table 2 shows 250 MHz rescuing every measured sub-Vmin
/// point while keeping ≥ 75 % of nominal throughput — more in practice,
/// since the DDR roofline caps the full-clock rate anyway). Only when the
/// clock floor is reached does the governor back the voltage off toward
/// the guardband, where fault rates vanish by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationLadder {
    /// Voltage ceiling, mV (Vmin plus margin): reaching it means the
    /// undervolting experiment has been fully backed out.
    pub v_ceiling_mv: f64,
}
impl Default for MitigationLadder {
    fn default() -> Self {
        MitigationLadder {
            v_ceiling_mv: 580.0,
        }
    }
}

/// The next rung of a [`MitigationLadder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LadderMove {
    /// Underscale the clock to this frequency, MHz.
    Underscale(f64),
    /// Back the voltage off to this level, mV.
    Backoff(f64),
    /// Both axes exhausted: the point cannot be rescued within policy.
    Exhausted,
}

impl MitigationLadder {
    /// Clock decrement, MHz (the paper's 25 MHz reconfiguration grid).
    pub const F_STEP_MHZ: f64 = 25.0;
    /// Clock floor, MHz — below this the throughput band is violated.
    pub const F_FLOOR_MHZ: f64 = 250.0;
    /// Voltage increment, mV, once the clock floor is reached.
    pub const V_STEP_MV: f64 = 10.0;

    /// The move to try from the operating point `(f_mhz, vccint_mv)`.
    /// Pure and total, so the escalation path is a deterministic function
    /// of the starting point alone.
    pub fn next(&self, f_mhz: f64, vccint_mv: f64) -> LadderMove {
        let f_next = f_mhz - Self::F_STEP_MHZ;
        if f_next >= Self::F_FLOOR_MHZ - 1e-9 {
            return LadderMove::Underscale(f_next);
        }
        let v_next = vccint_mv + Self::V_STEP_MV;
        if v_next <= self.v_ceiling_mv + 1e-9 {
            return LadderMove::Backoff(v_next);
        }
        LadderMove::Exhausted
    }

    /// Takes the next rung from the accelerator's operating point: the
    /// move [`MitigationLadder::next`] picks, applied over PMBus or the
    /// clock. Returns the move taken.
    ///
    /// # Errors
    ///
    /// Propagates a failed voltage backoff.
    pub fn step(&self, acc: &mut Accelerator) -> Result<LadderMove, MeasureError> {
        let next = self.next(acc.clock_mhz(), acc.vccint_mv());
        match next {
            LadderMove::Underscale(f_mhz) => acc.set_clock_mhz(f_mhz),
            LadderMove::Backoff(mv) => acc.set_vccint_mv(mv)?,
            LadderMove::Exhausted => {}
        }
        Ok(next)
    }

    /// How many rungs separate the operating point `(f_mhz, vccint_mv)`
    /// from the commanded baseline `(base_f_mhz, base_mv)`: frequency
    /// underscaling steps plus voltage backoff steps. The serving
    /// router uses this as its "how degraded is this board" distance —
    /// zero means the governor never had to intervene.
    pub fn rungs_walked(base_f_mhz: f64, base_mv: f64, f_mhz: f64, vccint_mv: f64) -> u32 {
        let f_steps = ((base_f_mhz - f_mhz).max(0.0) / Self::F_STEP_MHZ).round() as u32;
        let v_steps = ((vccint_mv - base_mv).max(0.0) / Self::V_STEP_MV).round() as u32;
        f_steps + v_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;
    use crate::experiment::AcceleratorConfig;
    use redvolt_nn::models::ModelScale;

    fn study() -> MitigationStudy {
        // Paper scale so the critical region actually faults.
        let mut acc = Accelerator::bring_up(&AcceleratorConfig {
            eval_images: 40,
            repetitions: 2,
            scale: ModelScale::Paper,
            ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
        })
        .unwrap();
        mitigation_study(&mut acc, 570.0, 540.0, 10.0, 40, 6).unwrap()
    }

    #[test]
    fn mitigation_recovers_accuracy_in_upper_critical_region() {
        let s = study();
        let p560 = s
            .points
            .iter()
            .find(|p| (p.vccint_mv - 560.0).abs() < 1e-6)
            .expect("560 mV measured");
        assert!(p560.accuracy > p560.unmitigated_accuracy + 0.05, "{p560:?}");
        assert!(p560.attempts_per_image > 1.0);
    }

    #[test]
    fn rejected_start_voltage_is_an_error_not_an_empty_study() {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig::tiny(BenchmarkId::VggNet)).unwrap();
        let r = mitigation_study(&mut acc, 1200.0, 1100.0, 50.0, 8, 2);
        assert!(matches!(r, Err(MeasureError::Pmbus(_))), "{r:?}");
        assert_eq!(acc.vccint_mv(), 850.0, "power-cycled back to nominal");
    }

    #[test]
    fn mitigation_cost_grows_toward_vcrash() {
        let s = study();
        let first = s.points.first().unwrap();
        let last = s.points.last().unwrap();
        assert!(last.attempts_per_image > first.attempts_per_image);
    }

    #[test]
    fn ladder_underscales_to_the_floor_then_backs_voltage_off() {
        let ladder = MitigationLadder::default();
        // From nominal clock the grid descends 333 -> 308 -> ... -> 258.
        let mut f = 333.0;
        let mut moves = 0;
        while let LadderMove::Underscale(next) = ladder.next(f, 545.0) {
            assert!(next >= MitigationLadder::F_FLOOR_MHZ);
            assert!(next < f);
            f = next;
            moves += 1;
        }
        assert_eq!(moves, 3);
        assert!((f - 258.0).abs() < 1e-9);
        // Floor reached: voltage escalates toward the ceiling.
        assert_eq!(ladder.next(f, 545.0), LadderMove::Backoff(555.0));
        assert_eq!(ladder.next(f, 575.0), LadderMove::Exhausted);
    }

    #[test]
    fn rungs_walked_counts_both_axes() {
        let walked = MitigationLadder::rungs_walked;
        assert_eq!(walked(333.0, 545.0, 333.0, 545.0), 0);
        assert_eq!(walked(333.0, 545.0, 283.0, 545.0), 2);
        assert_eq!(walked(333.0, 545.0, 258.0, 565.0), 5);
        // Moves in the healthy direction never count as rungs.
        assert_eq!(walked(333.0, 545.0, 333.0, 540.0), 0);
    }
}
