//! Fan and package thermal model.
//!
//! The paper regulates on-board temperature between 34 °C and 52 °C by
//! commanding the fan over PMBus and reading the temperature sensor back
//! over the same bus (§7). We model the junction temperature as
//! `T = T_base + R_th(fan duty) · P_onchip`, iterated to a fixed point with
//! the power model (leakage rises with temperature, which raises
//! temperature — the loop converges in a few iterations because the
//! coupling is weak).
//!
//! Two operating modes:
//!
//! * **Fan mode** — physical behaviour: temperature follows power and duty.
//! * **Forced mode** — an environmental-chamber override that pins the
//!   junction temperature, used by the temperature campaigns to hold the
//!   paper's fixed 34–52 °C set-points across a voltage sweep (the paper
//!   re-regulates the fan at every point to achieve the same).

use crate::calib;
use crate::power::{LoadProfile, PowerModel};

/// Thermal state of the board.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    /// Commanded fan duty, percent.
    fan_duty_pct: f64,
    /// Forced junction temperature, if in chamber mode.
    forced_c: Option<f64>,
}

impl ThermalModel {
    /// Creates the model at full fan duty (the board's power-on default).
    pub fn new() -> Self {
        ThermalModel {
            fan_duty_pct: 100.0,
            forced_c: None,
        }
    }

    /// Sets the fan duty in percent and returns to physical (fan) mode.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `0..=100`.
    pub fn set_fan_duty(&mut self, duty: f64) {
        assert!((0.0..=100.0).contains(&duty), "fan duty out of range");
        self.fan_duty_pct = duty;
        self.forced_c = None;
    }

    /// Current fan duty in percent.
    pub fn fan_duty(&self) -> f64 {
        self.fan_duty_pct
    }

    /// Pins the junction temperature (environmental-chamber mode).
    pub fn force_temperature(&mut self, temp_c: f64) {
        self.forced_c = Some(temp_c);
    }

    /// Package thermal resistance at the current duty, °C/W.
    pub fn r_th(&self) -> f64 {
        let t = self.fan_duty_pct / 100.0;
        calib::R_TH_FAN_MIN_CW + (calib::R_TH_FAN_MAX_CW - calib::R_TH_FAN_MIN_CW) * t
    }

    /// Steady-state junction temperature (°C) under the given electrical
    /// operating point, solving the weak temperature↔leakage coupling by
    /// fixed-point iteration.
    pub fn junction_c(
        &self,
        power: &PowerModel,
        vccint_mv: f64,
        vccbram_mv: f64,
        load: &LoadProfile,
    ) -> f64 {
        if let Some(t) = self.forced_c {
            return t;
        }
        let r = self.r_th();
        let mut t = calib::T_BASE_C + r * calib::P_ONCHIP_NOM_W * 0.5; // initial guess
        for _ in 0..20 {
            let p = power.on_chip_w(vccint_mv, vccbram_mv, t, load);
            let next = calib::T_BASE_C + r * p;
            if (next - t).abs() < 1e-6 {
                return next;
            }
            t = next;
        }
        t
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{T_REF_C, VNOM_MV};

    fn parts() -> (ThermalModel, PowerModel, LoadProfile) {
        (
            ThermalModel::new(),
            PowerModel::default(),
            LoadProfile::nominal(),
        )
    }

    #[test]
    fn full_fan_at_nominal_is_about_34c() {
        let (t, p, l) = parts();
        let j = t.junction_c(&p, VNOM_MV, VNOM_MV, &l);
        assert!((j - 34.0).abs() < 1.0, "junction = {j}");
    }

    #[test]
    fn stopped_fan_at_nominal_is_about_52c() {
        let (mut t, p, l) = parts();
        t.set_fan_duty(0.0);
        let j = t.junction_c(&p, VNOM_MV, VNOM_MV, &l);
        assert!((j - 52.0).abs() < 1.5, "junction = {j}");
    }

    #[test]
    fn temperature_monotone_in_duty() {
        let (mut t, p, l) = parts();
        let mut prev = f64::INFINITY;
        for duty in [0.0, 25.0, 50.0, 75.0, 100.0] {
            t.set_fan_duty(duty);
            let j = t.junction_c(&p, VNOM_MV, VNOM_MV, &l);
            assert!(j < prev, "temperature should fall with duty");
            prev = j;
        }
    }

    #[test]
    fn undervolted_board_runs_cooler() {
        let (t, p, l) = parts();
        let hot = t.junction_c(&p, VNOM_MV, VNOM_MV, &l);
        let cool = t.junction_c(&p, 570.0, 570.0, &l);
        assert!(cool < hot - 3.0, "{cool} vs {hot}");
    }

    #[test]
    fn forced_mode_overrides() {
        let (mut t, p, l) = parts();
        let physical = t.junction_c(&p, VNOM_MV, VNOM_MV, &l);
        t.force_temperature(47.5);
        assert_eq!(t.junction_c(&p, VNOM_MV, VNOM_MV, &l), 47.5);
        t.set_fan_duty(100.0);
        assert_eq!(t.junction_c(&p, VNOM_MV, VNOM_MV, &l), physical);
    }

    #[test]
    fn reference_temperature_is_reachable_span_floor() {
        // The calibration reference (34 °C) is the full-fan nominal point.
        let (t, p, l) = parts();
        let j = t.junction_c(&p, VNOM_MV, VNOM_MV, &l);
        assert!((j - T_REF_C).abs() < 1.0);
    }
}
