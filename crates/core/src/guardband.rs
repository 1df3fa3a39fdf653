//! Voltage-region characterization (Fig. 3 and §4.2).
//!
//! Derives, per (board, benchmark), the paper's three regions from a
//! downward [`crate::sweep::voltage_sweep`]:
//!
//! * **guardband** — Vnom down to Vmin: no accuracy loss;
//! * **critical** — Vmin down to Vcrash: accuracy degrades;
//! * **crash** — below Vcrash: the board does not respond.

/// The measured voltage regions of one accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageRegions {
    /// Nominal voltage, mV.
    pub vnom_mv: f64,
    /// Minimum safe voltage: lowest step with no accuracy loss, mV.
    pub vmin_mv: f64,
    /// Lowest responsive voltage, mV.
    pub vcrash_mv: f64,
}

impl VoltageRegions {
    /// Guardband size in mV (the paper measures ≈280 mV on average).
    pub fn guardband_mv(&self) -> f64 {
        self.vnom_mv - self.vmin_mv
    }

    /// Guardband as a fraction of Vnom (the paper's ≈33 %).
    pub fn guardband_fraction(&self) -> f64 {
        self.guardband_mv() / self.vnom_mv
    }

    /// Critical-region size in mV (the paper measures ≈30 mV).
    pub fn critical_mv(&self) -> f64 {
        self.vmin_mv - self.vcrash_mv
    }

    /// Derives the regions from a measured downward sweep. `Vnom` is the
    /// sweep's first point. `Vmin` is the last point of the unbroken run
    /// of clean points from the top, where a point is clean when it
    /// observed no injected fault and its accuracy is within
    /// `accuracy_tolerance` of the first point's. `Vcrash` is the lowest
    /// responsive point (the sweep's last), whether or not the sweep
    /// ended in a hang.
    ///
    /// The rule reads only the measurements, so a point whose timing
    /// slack is already negative still counts as clean when its probe
    /// saw no fault.
    ///
    /// Returns `None` for an empty sweep.
    pub fn from_sweep(
        sweep: &crate::sweep::VoltageSweep,
        accuracy_tolerance: f64,
    ) -> Option<VoltageRegions> {
        let nominal = sweep.points.first()?;
        let mut vmin_mv = nominal.vccint_mv;
        for m in &sweep.points {
            if m.injected_faults == 0 && m.accuracy >= nominal.accuracy - accuracy_tolerance {
                vmin_mv = m.vccint_mv;
            } else {
                break;
            }
        }
        Some(VoltageRegions {
            vnom_mv: nominal.vccint_mv,
            vmin_mv,
            vcrash_mv: sweep.last_alive_mv()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;
    use crate::experiment::{Accelerator, AcceleratorConfig, Measurement};
    use crate::sweep::{voltage_sweep, SweepConfig, VoltageSweep};

    fn regions(board: u32) -> VoltageRegions {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig {
            board_sample: board,
            ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
        })
        .unwrap();
        let sweep = voltage_sweep(
            &mut acc,
            &SweepConfig {
                start_mv: 850.0,
                stop_mv: 450.0,
                step_mv: 5.0,
                images: 20,
            },
        )
        .unwrap();
        VoltageRegions::from_sweep(&sweep, 0.01).unwrap()
    }

    #[test]
    fn board0_matches_paper_regions() {
        let r = regions(0);
        assert_eq!(r.vnom_mv, 850.0);
        assert!(
            (565.0..=575.0).contains(&r.vmin_mv),
            "Vmin = {} (paper: 570)",
            r.vmin_mv
        );
        assert!(
            (535.0..=545.0).contains(&r.vcrash_mv),
            "Vcrash = {} (paper: 540)",
            r.vcrash_mv
        );
        assert!((0.30..0.36).contains(&r.guardband_fraction()));
        assert!((20.0..=40.0).contains(&r.critical_mv()));
    }

    #[test]
    fn three_boards_spread_like_the_paper() {
        let rs: Vec<VoltageRegions> = (0..3).map(regions).collect();
        let vmins: Vec<f64> = rs.iter().map(|r| r.vmin_mv).collect();
        let spread = vmins.iter().cloned().fold(f64::MIN, f64::max)
            - vmins.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (15.0..=45.0).contains(&spread),
            "ΔVmin = {spread} (paper: 31 mV), vmins = {vmins:?}"
        );
        let mean = vmins.iter().sum::<f64>() / 3.0;
        assert!((mean - 570.0).abs() <= 10.0, "mean Vmin = {mean}");
    }

    /// A measurement carrying only what `from_sweep` reads.
    fn point(vccint_mv: f64, accuracy: f64, injected_faults: u64) -> Measurement {
        Measurement {
            vccint_mv,
            f_mhz: 333.0,
            accuracy,
            power_w: 1.0,
            gops: 1.0,
            gops_per_w: 1.0,
            junction_c: 40.0,
            injected_faults,
            accuracy_std: 0.0,
        }
    }

    fn sweep(points: Vec<Measurement>, crashed_at_mv: Option<f64>) -> VoltageSweep {
        VoltageSweep {
            points,
            crashed_at_mv,
        }
    }

    #[test]
    fn fault_at_first_sub_nominal_step_pins_vmin_at_nominal() {
        let s = sweep(
            vec![
                point(850.0, 0.9, 0),
                point(845.0, 0.9, 1),
                point(840.0, 0.9, 0),
            ],
            None,
        );
        let r = VoltageRegions::from_sweep(&s, 0.01).unwrap();
        assert_eq!(r.vnom_mv, 850.0);
        assert_eq!(r.vmin_mv, 850.0, "a later clean point does not count");
        assert_eq!(r.vcrash_mv, 840.0);
    }

    #[test]
    fn accuracy_loss_counts_only_beyond_the_tolerance() {
        let s = sweep(
            vec![
                point(850.0, 0.90, 0),
                point(845.0, 0.895, 0),
                point(840.0, 0.85, 0),
                point(835.0, 0.90, 0),
            ],
            None,
        );
        let r = VoltageRegions::from_sweep(&s, 0.01).unwrap();
        assert_eq!(r.vmin_mv, 845.0, "0.005 loss is inside a 0.01 tolerance");
        assert_eq!(r.vcrash_mv, 835.0);
        let strict = VoltageRegions::from_sweep(&s, 0.001).unwrap();
        assert_eq!(strict.vmin_mv, 850.0);
    }

    #[test]
    fn hang_leaves_vcrash_at_the_last_responsive_point() {
        let s = sweep(
            vec![
                point(850.0, 0.9, 0),
                point(840.0, 0.9, 0),
                point(830.0, 0.4, 9),
            ],
            Some(820.0),
        );
        let r = VoltageRegions::from_sweep(&s, 0.01).unwrap();
        assert_eq!(r.vmin_mv, 840.0);
        assert_eq!(r.vcrash_mv, 830.0, "the hang point itself never responded");
        assert_eq!(r.critical_mv(), 10.0);
    }

    #[test]
    fn empty_sweep_has_no_regions() {
        assert_eq!(
            VoltageRegions::from_sweep(&sweep(Vec::new(), None), 0.01),
            None
        );
        assert_eq!(
            VoltageRegions::from_sweep(&sweep(Vec::new(), Some(850.0)), 0.01),
            None
        );
    }
}
