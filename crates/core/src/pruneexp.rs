//! Undervolting × pruning study (Fig. 8, §6.2).
//!
//! Compares the dense baseline against a structured channel-pruned model:
//! the pruned design performs fewer operations per image (higher
//! work-equivalent GOPs/W — Fig. 8b) but is more fragile: its irregular
//! dataflow hangs the board earlier (the paper measures Vcrash = 555 mV
//! pruned vs 540 mV dense) and it is more vulnerable to undervolting
//! faults below Vmin (Fig. 8a).

use crate::experiment::{Accelerator, AcceleratorConfig, MeasureError};
use crate::sweep::{voltage_sweep, SweepConfig, VoltageSweep};

/// One arm of the Fig. 8 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneArm {
    /// Channel-pruning fraction (0 for the dense baseline).
    pub prune_fraction: f64,
    /// The voltage sweep.
    pub sweep: VoltageSweep,
    /// Work-equivalent efficiency multiplier: dense-equivalent ops per
    /// image divided by actually executed ops. The pruned model's Fig. 8b
    /// GOPs/W is `gops_per_w × this`.
    pub work_equivalence: f64,
}

/// The Fig. 8 study: dense vs pruned.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneStudy {
    /// Dense baseline arm.
    pub dense: PruneArm,
    /// Pruned arm.
    pub pruned: PruneArm,
}

/// Runs the Fig. 8 campaign on one board.
///
/// # Errors
///
/// Propagates preparation and non-crash errors.
pub fn pruning_study(
    base: &AcceleratorConfig,
    prune_fraction: f64,
    sweep_cfg: &SweepConfig,
) -> Result<PruneStudy, MeasureError> {
    let run_arm = |fraction: f64| -> Result<PruneArm, MeasureError> {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig {
            prune_fraction: fraction,
            ..*base
        })?;
        let work_equivalence = acc.workload().dense_equivalent_ops as f64
            / acc.workload().task.kernel.total_ops() as f64;
        let sweep = voltage_sweep(&mut acc, sweep_cfg)?;
        Ok(PruneArm {
            prune_fraction: fraction,
            sweep,
            work_equivalence,
        })
    };
    Ok(PruneStudy {
        dense: run_arm(0.0)?,
        pruned: run_arm(prune_fraction)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;

    fn study() -> PruneStudy {
        pruning_study(
            &AcceleratorConfig::tiny(BenchmarkId::VggNet),
            0.5,
            &SweepConfig {
                start_mv: 850.0,
                stop_mv: 530.0,
                step_mv: 10.0,
                images: 16,
            },
        )
        .unwrap()
    }

    #[test]
    fn pruned_model_crashes_earlier() {
        // Fig. 8: pruned Vcrash ≈ 555 mV vs dense ≈ 540 mV.
        let s = study();
        let dense_alive = s.dense.sweep.last_alive_mv().unwrap();
        let pruned_alive = s.pruned.sweep.last_alive_mv().unwrap();
        assert!(
            pruned_alive > dense_alive,
            "pruned should hang earlier: {pruned_alive} vs {dense_alive}"
        );
    }

    #[test]
    fn pruned_model_is_more_work_efficient() {
        let s = study();
        assert!(s.pruned.work_equivalence > 1.5);
        assert!((s.dense.work_equivalence - 1.0).abs() < 1e-9);
        let equivalent = |arm: &PruneArm| arm.sweep.nominal().gops_per_w * arm.work_equivalence;
        let dense_eff = equivalent(&s.dense);
        let pruned_eff = equivalent(&s.pruned);
        assert!(
            pruned_eff > dense_eff,
            "work-equivalent efficiency: pruned {pruned_eff} vs dense {dense_eff}"
        );
    }

    #[test]
    fn both_arms_keep_nominal_accuracy_in_guardband() {
        let s = study();
        for arm in [&s.dense, &s.pruned] {
            let nominal = arm.sweep.nominal().accuracy;
            for m in arm.sweep.points.iter().filter(|m| m.vccint_mv >= 600.0) {
                assert_eq!(m.accuracy, nominal);
            }
        }
    }
}
