//! Power-efficiency analysis (Fig. 5, §4.3).

use crate::sweep::VoltageSweep;

/// Gain at (or interpolated nearest-below) a specific voltage.
pub fn gain_at(sweep: &VoltageSweep, mv: f64) -> Option<f64> {
    let nominal = sweep.nominal().gops_per_w;
    sweep.at_mv(mv).map(|m| m.gops_per_w / nominal)
}

/// The headline numbers of §4.3 for one benchmark sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyHeadline {
    /// GOPs/W gain at Vmin (the guardband-elimination gain; paper ≈2.6×).
    pub gain_at_vmin: f64,
    /// GOPs/W gain at the last responsive voltage (paper > 3×).
    pub gain_at_vcrash: f64,
    /// The extra gain from undervolting below the guardband
    /// (paper ≈ +43 %).
    pub extra_gain_below_guardband: f64,
}

/// Computes the headline gains from a sweep that reached the crash point.
///
/// Returns `None` if the sweep lacks a point at `vmin_mv` or never went
/// below it.
pub fn headline(sweep: &VoltageSweep, vmin_mv: f64) -> Option<EfficiencyHeadline> {
    let at_vmin = gain_at(sweep, vmin_mv)?;
    let last = sweep.points.last()?;
    if last.vccint_mv >= vmin_mv {
        return None;
    }
    let at_crash = last.gops_per_w / sweep.nominal().gops_per_w;
    Some(EfficiencyHeadline {
        gain_at_vmin: at_vmin,
        gain_at_vcrash: at_crash,
        extra_gain_below_guardband: at_crash / at_vmin - 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;
    use crate::experiment::{Accelerator, AcceleratorConfig};
    use crate::sweep::{voltage_sweep, SweepConfig};

    fn sweep() -> VoltageSweep {
        let mut acc =
            Accelerator::bring_up(&AcceleratorConfig::tiny(BenchmarkId::GoogleNet)).unwrap();
        voltage_sweep(
            &mut acc,
            &SweepConfig {
                start_mv: 850.0,
                stop_mv: 530.0,
                step_mv: 10.0,
                images: 12,
            },
        )
        .unwrap()
    }

    #[test]
    fn gain_rises_monotonically_as_voltage_falls() {
        let s = sweep();
        let series: Vec<f64> = s
            .points
            .iter()
            .map(|m| gain_at(&s, m.vccint_mv).unwrap())
            .collect();
        assert!((series[0] - 1.0).abs() < 1e-9);
        for w in series.windows(2) {
            assert!(w[1] > w[0] - 0.02, "{w:?}");
        }
    }

    #[test]
    fn headline_matches_paper_shape() {
        let s = sweep();
        let h = headline(&s, 570.0).expect("sweep crosses Vmin");
        assert!((h.gain_at_vmin - 2.6).abs() < 0.2, "{h:?}");
        assert!(h.gain_at_vcrash > 3.0, "{h:?}");
        assert!(
            (0.15..0.60).contains(&h.extra_gain_below_guardband),
            "{h:?}"
        );
    }

    #[test]
    fn headline_none_when_sweep_stops_early() {
        let mut acc =
            Accelerator::bring_up(&AcceleratorConfig::tiny(BenchmarkId::GoogleNet)).unwrap();
        let shallow = voltage_sweep(
            &mut acc,
            &SweepConfig {
                start_mv: 850.0,
                stop_mv: 700.0,
                step_mv: 50.0,
                images: 8,
            },
        )
        .unwrap();
        assert!(headline(&shallow, 570.0).is_none());
    }
}
