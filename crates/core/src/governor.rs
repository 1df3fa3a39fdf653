//! Dynamic voltage adjustment (§9 future work ii).
//!
//! A closed-loop governor that discovers and tracks the minimum safe
//! voltage at run time, instead of trusting a static calibration: after
//! every batch it reads the fault-detection counters (Razor-style error
//! flags — the same observability [`crate::mitigation`] relies on) and
//!
//! * steps **down** one notch after `clean_streak` consecutive clean
//!   batches (still above the configured floor);
//! * steps **up** one larger notch immediately when faults are detected;
//! * power-cycles and backs off when it overshoots into a hang.
//!
//! Because the fault boundary follows the inverse thermal dependence, the
//! governor automatically reaches deeper voltages on a hot board — the
//! §7.3 observation turned into a controller.

use crate::experiment::{Accelerator, MeasureError, Measurement};
use crate::mitigation::{LadderMove, MitigationLadder};
use redvolt_fpga::calib::VNOM_MV;

/// A point-in-time health reading of one accelerator, for fleet-level
/// consumers (the serving router scores boards with this). Everything
/// here derives from commanded state and seeded simulation counters, so
/// snapshots are pure functions of `(seed, config, history)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardHealth {
    /// Commanded `VCCINT`, mV.
    pub vccint_mv: f64,
    /// DPU clock, MHz.
    pub f_mhz: f64,
    /// Steady-state junction temperature, °C.
    pub junction_c: f64,
    /// Exact on-chip power at the present operating point, watts.
    pub power_w: f64,
    /// Whether the board is hung.
    pub crashed: bool,
    /// Power cycles so far.
    pub power_cycles: u64,
    /// Cumulative SDC/ECC defense events (see
    /// [`Accelerator::defense_events`]).
    pub defense_events: u64,
    /// Cumulative transient faults delivered into the datapath.
    pub dpu_faults: u64,
    /// Cumulative simulated DPU cycles executed.
    pub cycles_run: u64,
}

impl BoardHealth {
    /// Snapshots an accelerator's health.
    pub fn of(acc: &Accelerator) -> BoardHealth {
        let snap = acc.board().snapshot();
        BoardHealth {
            vccint_mv: snap.vccint_mv,
            f_mhz: acc.clock_mhz(),
            junction_c: snap.junction_c,
            power_w: snap.on_chip_power_w,
            crashed: snap.crashed,
            power_cycles: snap.power_cycles,
            defense_events: acc.defense_events(),
            dpu_faults: acc.faults_observed(),
            cycles_run: acc.cycles_run(),
        }
    }

    /// The reading as typed attributes, for flight-recorder snapshots
    /// and trace spans. Keys are stable export names.
    pub fn attrs(&self) -> Vec<(String, redvolt_telemetry::AttrValue)> {
        use redvolt_telemetry::AttrValue;
        vec![
            ("vccint_mv".to_string(), AttrValue::F64(self.vccint_mv)),
            ("f_mhz".to_string(), AttrValue::F64(self.f_mhz)),
            ("junction_c".to_string(), AttrValue::F64(self.junction_c)),
            ("power_w".to_string(), AttrValue::F64(self.power_w)),
            ("crashed".to_string(), AttrValue::Bool(self.crashed)),
            (
                "power_cycles".to_string(),
                AttrValue::U64(self.power_cycles),
            ),
            (
                "defense_events".to_string(),
                AttrValue::U64(self.defense_events),
            ),
            ("dpu_faults".to_string(), AttrValue::U64(self.dpu_faults)),
            ("cycles_run".to_string(), AttrValue::U64(self.cycles_run)),
        ]
    }
}

/// Governor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Downward step after a clean streak, mV.
    pub step_down_mv: f64,
    /// Upward step on detected faults, mV.
    pub step_up_mv: f64,
    /// Clean batches required before stepping down.
    pub clean_streak: u32,
    /// Lowest voltage the governor may command, mV.
    pub floor_mv: f64,
    /// Images per batch.
    pub batch_images: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            step_down_mv: 5.0,
            step_up_mv: 10.0,
            clean_streak: 2,
            floor_mv: 520.0,
            batch_images: 32,
        }
    }
}

/// One governor step record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorStep {
    /// Batch index.
    pub batch: u32,
    /// Voltage commanded for this batch, mV.
    pub vccint_mv: f64,
    /// Faults detected during the batch.
    pub faults: u64,
    /// Power during the batch, watts.
    pub power_w: f64,
    /// Whether the board hung and was power-cycled after this batch.
    pub crashed: bool,
}

/// Trace of a governor run.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorTrace {
    /// Per-batch records.
    pub steps: Vec<GovernorStep>,
    /// Voltage at the end of the run, mV.
    pub settled_mv: f64,
}

impl GovernorTrace {
    /// Mean power over the run's batches, watts.
    pub fn mean_power_w(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.power_w).sum::<f64>() / self.steps.len() as f64
    }

    /// Number of crash/power-cycle events.
    pub fn crash_count(&self) -> usize {
        self.steps.iter().filter(|s| s.crashed).count()
    }

    /// Canonical CSV serialization of the trace (one row per batch, plus a
    /// terminal `settled` row). Uses shortest round-trip float formatting,
    /// like [`crate::experiment::Measurement::csv_row`], so byte equality
    /// of two serialized traces means bit-identical results.
    pub fn csv_rows(&self) -> Vec<String> {
        let mut rows: Vec<String> = self
            .steps
            .iter()
            .map(|s| {
                format!(
                    "{},{:?},{},{:?},{}",
                    s.batch, s.vccint_mv, s.faults, s.power_w, s.crashed
                )
            })
            .collect();
        rows.push(format!("settled,{:?},,,", self.settled_mv));
        rows
    }
}

/// Runs the governor for `batches` batches on an accelerator.
///
/// # Errors
///
/// Propagates non-crash errors (crashes are handled by backing off).
pub fn run_governor(
    acc: &mut Accelerator,
    cfg: &GovernorConfig,
    batches: u32,
) -> Result<GovernorTrace, MeasureError> {
    let mut steps = Vec::with_capacity(batches as usize);
    let mut target_mv = acc.vccint_mv();
    let mut streak = 0u32;
    for batch in 0..batches {
        let commanded = target_mv;
        let result = acc
            .set_vccint_mv(commanded)
            .and_then(|()| acc.measure(cfg.batch_images));
        match result {
            Ok(m) => {
                let faulty = m.injected_faults > 0;
                steps.push(GovernorStep {
                    batch,
                    vccint_mv: commanded,
                    faults: m.injected_faults,
                    power_w: m.power_w,
                    crashed: false,
                });
                if faulty {
                    streak = 0;
                    target_mv = (commanded + cfg.step_up_mv).min(VNOM_MV);
                } else {
                    streak += 1;
                    if streak >= cfg.clean_streak && commanded - cfg.step_down_mv >= cfg.floor_mv {
                        streak = 0;
                        target_mv = commanded - cfg.step_down_mv;
                    }
                }
            }
            Err(MeasureError::Crashed { .. }) => {
                steps.push(GovernorStep {
                    batch,
                    vccint_mv: commanded,
                    faults: 0,
                    power_w: 0.0,
                    crashed: true,
                });
                acc.power_cycle();
                streak = 0;
                // Back well off from the hang point.
                target_mv = (commanded + 3.0 * cfg.step_up_mv).min(VNOM_MV);
            }
            Err(e) => {
                acc.power_cycle();
                return Err(e);
            }
        }
    }
    Ok(GovernorTrace {
        settled_mv: target_mv,
        steps,
    })
}

/// Tuning of the adaptive SDC governor.
///
/// Where [`run_governor`] *hunts* for the deepest safe voltage, the
/// adaptive governor *defends* a commanded operating point: it watches the
/// per-window SDC/ECC event rate and, while events keep arriving, walks
/// the point along the [`MitigationLadder`] — frequency underscaling
/// first, voltage backoff toward the guardband second — until
/// `clean_windows` consecutive probe windows are event-free (the
/// hysteresis that keeps a single lucky window from settling the loop).
/// The streak's last window runs at full batch size and becomes the
/// returned measurement, so a settled rescue is clean by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Escalation policy.
    pub ladder: MitigationLadder,
    /// Images per probe window.
    pub probe_images: usize,
    /// Consecutive clean windows required before settling.
    pub clean_windows: u32,
    /// Probe-window budget (a backstop; the ladder is finite, so the loop
    /// terminates long before this in practice).
    pub max_windows: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            ladder: MitigationLadder::default(),
            probe_images: 8,
            clean_windows: 2,
            max_windows: 32,
        }
    }
}

/// One probe window of an adaptive-governor run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RescueStep {
    /// Window index.
    pub window: u32,
    /// DPU clock during the window, MHz.
    pub f_mhz: f64,
    /// `VCCINT` during the window, mV.
    pub vccint_mv: f64,
    /// SDC/ECC events observed: faults delivered into the datapath plus
    /// defense-layer events (ECC words touched, ABFT mismatches).
    pub events: u64,
}

/// Trace of an adaptive-governor rescue.
#[derive(Debug, Clone, PartialEq)]
pub struct RescueTrace {
    /// Per-window records, in probe order.
    pub steps: Vec<RescueStep>,
    /// Whether the loop settled on an event-free operating point (false
    /// only when the ladder and window budget were both exhausted).
    pub rescued: bool,
}

impl RescueTrace {
    /// Whether the governor had to act at all: a clean commanded point
    /// settles without a single event and stays a plain measurement.
    pub fn intervened(&self) -> bool {
        self.steps.iter().any(|s| s.events > 0)
    }

    /// Canonical CSV rows (`rescue,window,f_mhz,vccint_mv,events`), using
    /// shortest round-trip float formatting like every campaign payload.
    pub fn csv_rows(&self) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| {
                format!(
                    "rescue,{},{:?},{:?},{}",
                    s.window, s.f_mhz, s.vccint_mv, s.events
                )
            })
            .collect()
    }
}

/// Probes the accelerator's current operating point and rescues it if it
/// produces SDC/ECC events, then takes the final measurement over
/// `images` images at the settled point.
///
/// The event signal ([`Accelerator::measure_events`]) combines the
/// faults delivered into the datapath with the defense counters, so the
/// governor escalates even when ECC/ABFT absorbed every corruption —
/// sustained correction traffic means the margin is gone, which is
/// exactly the paper's cue to underscale.
///
/// The last of the `clean_windows` hysteresis windows runs over the full
/// `images` batch and doubles as the returned measurement. Marginal
/// points fault in rare bursts that a short probe can miss, so settling
/// on probes alone would hand back a payload the governor never actually
/// watched; confirming on the full batch means `rescued == true` implies
/// the returned measurement itself produced zero events.
///
/// # Errors
///
/// Propagates measurement errors, including crashes (the supervisor owns
/// power-cycle-and-retry).
pub fn run_adaptive_rescue(
    acc: &mut Accelerator,
    cfg: &AdaptiveConfig,
    images: usize,
) -> Result<(Measurement, RescueTrace), MeasureError> {
    let mut steps = Vec::new();
    let mut clean = 0u32;
    for window in 0..cfg.max_windows {
        // The confirmation window closes the hysteresis streak at full
        // batch size; earlier windows are cheap short probes.
        let confirm = clean + 1 >= cfg.clean_windows;
        let n = if confirm { images } else { cfg.probe_images };
        let (m, events) = acc.measure_events(n)?;
        steps.push(RescueStep {
            window,
            f_mhz: acc.clock_mhz(),
            vccint_mv: acc.vccint_mv(),
            events,
        });
        if events == 0 {
            if confirm {
                return Ok((
                    m,
                    RescueTrace {
                        steps,
                        rescued: true,
                    },
                ));
            }
            clean += 1;
        } else {
            clean = 0;
            if cfg.ladder.step(acc)? == LadderMove::Exhausted {
                break;
            }
        }
    }
    // Windows or ladder exhausted: measure where we stand and report the
    // rescue as failed so the caller can see the payload was never
    // confirmed clean.
    let measurement = acc.measure(images)?;
    Ok((
        measurement,
        RescueTrace {
            steps,
            rescued: false,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;
    use crate::experiment::AcceleratorConfig;
    use proptest::prelude::*;
    use redvolt_nn::models::ModelScale;

    fn accelerator() -> Accelerator {
        Accelerator::bring_up(&AcceleratorConfig {
            eval_images: 32,
            repetitions: 1,
            scale: ModelScale::Paper,
            ..AcceleratorConfig::tiny(BenchmarkId::GoogleNet)
        })
        .unwrap()
    }

    #[test]
    fn board_health_snapshot_tracks_the_operating_point() {
        let mut acc = accelerator();
        acc.set_vccint_mv(600.0).unwrap();
        acc.set_clock_mhz(283.0);
        acc.measure(8).unwrap();
        let h = BoardHealth::of(&acc);
        // The PMBus VOUT command quantizes to the regulator's LSB, so the
        // snapshot reads back near — not exactly at — the requested point.
        assert!((h.vccint_mv - 600.0).abs() < 0.5, "vccint {}", h.vccint_mv);
        assert_eq!(h.f_mhz, 283.0);
        assert!(!h.crashed);
        assert!(h.cycles_run > 0);
        assert!(h.power_w > 0.0);
    }

    #[test]
    fn governor_descends_into_the_guardband() {
        let mut acc = accelerator();
        let trace = run_governor(&mut acc, &GovernorConfig::default(), 120).unwrap();
        assert!(
            trace.settled_mv < 620.0,
            "should dive deep into the guardband: {}",
            trace.settled_mv
        );
        // It saves energy vs static nominal operation.
        let nominal_power = trace.steps.first().unwrap().power_w;
        assert!(trace.steps.last().unwrap().power_w < nominal_power / 1.8);
    }

    #[test]
    fn governor_hovers_near_vmin_without_repeated_crashes() {
        let mut acc = accelerator();
        let trace = run_governor(&mut acc, &GovernorConfig::default(), 160).unwrap();
        // Late-phase voltages stay in a tight band around Vmin (570).
        let late: Vec<f64> = trace.steps.iter().skip(120).map(|s| s.vccint_mv).collect();
        let lo = late.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (545.0..=575.0).contains(&lo),
            "governor should probe near Vmin: lo = {lo}"
        );
        assert!(trace.crash_count() <= 2, "crashes: {}", trace.crash_count());
    }

    fn paper_scale(board: u32) -> AcceleratorConfig {
        AcceleratorConfig {
            board_sample: board,
            eval_images: 16,
            repetitions: 1,
            scale: ModelScale::Paper,
            ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
        }
    }

    #[test]
    fn adaptive_rescue_underscales_before_backing_voltage_off() {
        let mut acc = Accelerator::bring_up(&paper_scale(0)).unwrap();
        acc.set_vccint_mv(550.0).unwrap();
        assert!(
            acc.measure(16).unwrap().injected_faults > 0,
            "550 mV at the full clock must fault, or this test probes nothing"
        );
        let (m, trace) = run_adaptive_rescue(&mut acc, &AdaptiveConfig::default(), 16).unwrap();
        assert!(trace.rescued);
        assert!(trace.intervened());
        assert_eq!(m.injected_faults, 0, "settled point must be clean");
        assert!(m.f_mhz < 333.0, "rescue should underscale: {}", m.f_mhz);
        // Frequency moves strictly before voltage: every window at the
        // commanded 550 mV until the clock floor is reached.
        let first_backoff = trace.steps.iter().position(|s| s.vccint_mv > 550.0);
        if let Some(i) = first_backoff {
            assert!(
                (trace.steps[i].f_mhz - 258.0).abs() < 1e-9,
                "voltage must not move before the clock floor: {:?}",
                trace.steps[i]
            );
        }
    }

    #[test]
    fn adaptive_rescue_is_a_no_op_at_clean_points() {
        let mut acc = Accelerator::bring_up(&paper_scale(0)).unwrap();
        acc.set_vccint_mv(600.0).unwrap();
        let cfg = AdaptiveConfig::default();
        let (m, trace) = run_adaptive_rescue(&mut acc, &cfg, 16).unwrap();
        assert!(trace.rescued);
        assert!(!trace.intervened());
        assert_eq!(trace.steps.len(), cfg.clean_windows as usize);
        assert_eq!(m.vccint_mv, 600.0);
        assert_eq!(m.f_mhz, 333.0);
        assert_eq!(m.injected_faults, 0);
    }

    proptest! {
        /// The issue's mitigation property: for any board sample (process
        /// corner) and any commanded sub-Vmin voltage, the operating
        /// point the governor settles on yields zero injected faults
        /// while staying inside the paper's throughput band (Table 2
        /// keeps >= 70 % of nominal GOPs at every rescued point).
        #[test]
        fn rescue_lands_clean_within_the_throughput_band(
            board in 0u32..64,
            mv in 109u32..=113, // 545..=565 mV on the 5 mV grid
        ) {
            let mv = f64::from(mv) * 5.0;
            let mut acc = Accelerator::bring_up(&paper_scale(board)).unwrap();
            let nominal = acc.measure(16).unwrap();
            // Weak corners hang below their Vcrash at the deepest
            // commanded points; rescuing a hung board is the
            // supervisor's job (power-cycle + retry), not the governor's.
            if acc.set_vccint_mv(mv).is_ok() {
                match run_adaptive_rescue(&mut acc, &AdaptiveConfig::default(), 16) {
                    Ok((m, trace)) => {
                        prop_assert!(trace.rescued, "ladder must converge");
                        prop_assert_eq!(m.injected_faults, 0);
                        prop_assert!(
                            m.gops / nominal.gops >= 0.70,
                            "throughput band violated: {} vs {}",
                            m.gops,
                            nominal.gops
                        );
                    }
                    Err(MeasureError::Crashed { .. }) => {} // as above
                    Err(e) => panic!("unexpected measure error: {e}"),
                }
            }
        }
    }

    #[test]
    fn hot_board_settles_deeper_than_cold_board() {
        // ITD: the fault boundary moves down when hot, and the governor
        // follows it — §7.3 as a control loop.
        let settle = |temp: f64| {
            let mut acc = accelerator();
            acc.board_mut().thermal_mut().force_temperature(temp);
            let trace = run_governor(&mut acc, &GovernorConfig::default(), 160).unwrap();
            let late: Vec<f64> = trace.steps.iter().skip(100).map(|s| s.vccint_mv).collect();
            late.iter().sum::<f64>() / late.len() as f64
        };
        let cold = settle(34.0);
        let hot = settle(52.0);
        // ITD moves the fault boundary by only a few mV, below the
        // governor's 5 mV step; assert the hot board is no *worse* than
        // one control step above the cold one.
        assert!(
            hot <= cold + 5.0,
            "hot board should not run above the cold board: {hot} vs {cold}"
        );
    }
}
