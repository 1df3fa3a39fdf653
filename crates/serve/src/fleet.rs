//! The simulated board fleet: bring-up, Vmin calibration, batch
//! execution, energy accounting and governor escalation.
//!
//! Each [`FleetBoard`] wraps one [`Accelerator`] (its own process corner,
//! timing surface and fault physics). Bring-up reuses the process-wide
//! prepared-workload cache: every board shares one `WorkloadConfig`, so
//! the quantized model is prepared once and cloned per board.
//!
//! **Vmin calibration** replays the paper's methodology at fleet scale:
//! each board descends from the guardband edge in fixed steps, probing a
//! short batch at every point, and records the deepest voltage with zero
//! SDC/ECC events as its Vmin. The serving operating point is
//! `Vmin + margin` — a negative margin deliberately serves *below* Vmin,
//! the regime where the defense layer and the mitigation ladder earn
//! their keep.

use crate::event::Cycle;
use redvolt_core::experiment::{Accelerator, AcceleratorConfig, MeasureError, Measurement};
use redvolt_core::mitigation::{LadderMove, MitigationLadder};
use redvolt_core::sweep::{descend, SweepConfig};
use redvolt_dpu::runtime::RunError;
use redvolt_fpga::calib::F_NOM_MHZ;
use redvolt_fpga::power::EnergyAccount;
use redvolt_fpga::rails::RailId;
use redvolt_nn::tensor::Tensor;
use redvolt_num::rng::derive_substream_seed;
use redvolt_telemetry::AttrValue;
use std::ops::ControlFlow;

/// The calibration descent: first probed voltage (just inside the
/// guardband), deepest probed voltage and grid step, mV, with the images
/// of each probe batch.
const CALIBRATION: SweepConfig = SweepConfig {
    start_mv: 620.0,
    stop_mv: 550.0,
    step_mv: 10.0,
    images: 8,
};

/// Fixed dispatch overhead added to each served batch, reference cycles.
const BATCH_OVERHEAD_CYCLES: Cycle = 10_000;

/// Outcome of one served batch.
#[derive(Debug, Clone)]
pub struct BatchExec {
    /// Service time in reference cycles (DPU cycles rescaled from the
    /// board clock to the nominal clock, plus the dispatch overhead).
    pub service_ref_cycles: Cycle,
    /// Per-image predictions, in batch order.
    pub predictions: Vec<usize>,
    /// SDC/ECC events during the batch: faults delivered into the
    /// datapath plus ECC words touched plus ABFT mismatches.
    pub events: u64,
    /// ABFT mismatches still unresolved after the re-execution budget.
    pub unresolved: u64,
    /// ABFT checksum mismatches flagged.
    pub mismatches: u64,
    /// Whether the batch's responses are suspect under the armed defense
    /// (Detect: any mismatch; Correct: any unresolved mismatch).
    pub flagged: bool,
    /// Energy charged for the batch, joules.
    pub energy_j: f64,
    /// The board hung mid-batch (no responses; caller reboots + reroutes).
    pub crashed: bool,
}

/// Result of one governor escalation step, for the tracing layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Escalation {
    /// Ladder move taken: `"underscale"`, `"backoff"` or `"exhausted"`.
    pub kind: &'static str,
    /// Mitigation rungs away from the base point after the move.
    pub rungs: u32,
    /// Operating clock after the move, MHz.
    pub f_mhz: f64,
    /// Operating voltage after the move, mV.
    pub vccint_mv: f64,
}

/// One board of the serving fleet.
#[derive(Debug)]
pub struct FleetBoard {
    acc: Accelerator,
    /// Board index in the fleet (== `board_sample`).
    pub index: usize,
    /// Calibrated Vmin: deepest probed voltage with zero events, mV.
    pub vmin_mv: f64,
    /// Commanded serving operating point, mV (`vmin + margin`).
    pub base_mv: f64,
    /// Commanded serving clock, MHz.
    pub base_f_mhz: f64,
    /// Per-board mitigation ladder (ceiling keeps headroom above the
    /// board's own base point).
    pub ladder: MitigationLadder,
    /// Modeled energy per inference at the current operating point,
    /// joules (initialised from calibration, refreshed per batch).
    pub energy_per_inf_j: f64,
    /// Cumulative served energy.
    pub energy: EnergyAccount,
    /// Reference cycles this board spent busy.
    pub busy_cycles: Cycle,
    /// Batches dispatched to this board.
    pub batches: u64,
    /// Requests whose final (recorded) execution ran here.
    pub served: u64,
    /// Cumulative SDC/ECC events observed while serving.
    pub events: u64,
    /// Mitigation rungs the governor has currently walked this board
    /// away from its base point.
    pub rungs: u32,
    /// Board hangs while serving.
    pub crashes: u64,
    batch_seed: u64,
}

impl FleetBoard {
    /// Brings up board `index` of the fleet. The accelerator config is
    /// identical across boards except `board_sample`, so the prepared
    /// workload comes from the process-wide cache after the first board.
    pub fn bring_up(index: usize, config: &AcceleratorConfig) -> Result<Self, MeasureError> {
        let config = AcceleratorConfig {
            board_sample: index as u32,
            ..*config
        };
        let acc = Accelerator::bring_up(&config)?;
        Ok(FleetBoard {
            acc,
            index,
            vmin_mv: 0.0,
            base_mv: 0.0,
            base_f_mhz: F_NOM_MHZ,
            ladder: MitigationLadder::default(),
            energy_per_inf_j: 0.0,
            energy: EnergyAccount::new(),
            busy_cycles: 0,
            batches: 0,
            served: 0,
            events: 0,
            rungs: 0,
            crashes: 0,
            batch_seed: derive_substream_seed(config.seed, 0x5E23, index as u64),
        })
    }

    /// The wrapped accelerator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.acc
    }

    /// Point-in-time health reading as typed attributes, for the flight
    /// recorder's board snapshots. Keys are stable export names; every
    /// value derives from commanded state and seeded simulation counters,
    /// so a snapshot is a pure function of `(seed, config, history)`.
    /// `defense_events` is the SDC/ECC events less the delivered datapath
    /// faults: ECC corrected and uncorrectable words plus ABFT mismatches.
    pub(crate) fn health_attrs(&self) -> Vec<(String, AttrValue)> {
        let snap = self.acc.board().snapshot();
        let faults = self.acc.faults_observed();
        vec![
            ("vccint_mv".to_string(), AttrValue::F64(snap.vccint_mv)),
            ("f_mhz".to_string(), AttrValue::F64(self.acc.clock_mhz())),
            ("junction_c".to_string(), AttrValue::F64(snap.junction_c)),
            ("power_w".to_string(), AttrValue::F64(snap.on_chip_power_w)),
            ("crashed".to_string(), AttrValue::Bool(snap.crashed)),
            (
                "power_cycles".to_string(),
                AttrValue::U64(snap.power_cycles),
            ),
            (
                "defense_events".to_string(),
                AttrValue::U64(self.acc.sdc_events() - faults),
            ),
            ("dpu_faults".to_string(), AttrValue::U64(faults)),
            (
                "cycles_run".to_string(),
                AttrValue::U64(self.acc.cycles_run()),
            ),
        ]
    }

    /// Sets the DPU runtime's intra-batch image workers (bit-invariant
    /// across worker counts by construction).
    pub fn set_image_jobs(&mut self, jobs: usize) {
        self.acc.runtime_and_workload_mut().0.set_image_jobs(jobs);
    }

    /// Calibrates the board's Vmin and parks it at the serving point,
    /// `margin_mv` from Vmin (never below the deepest probed voltage).
    ///
    /// # Errors
    ///
    /// Propagates non-crash measurement errors (a crash during the
    /// descent ends it, and the descent power-cycles the board).
    pub fn calibrate(&mut self, margin_mv: f64, ops_per_image: u64) -> Result<(), MeasureError> {
        let (clean, _) = descend(&mut self.acc, &CALIBRATION, RailId::Vccint, |acc, mv| {
            Ok(match acc.measure_events(CALIBRATION.images)? {
                (_, 0) => ControlFlow::Continue(mv),
                _ => ControlFlow::Break(()),
            })
        })?;
        self.vmin_mv = clean.last().copied().unwrap_or(CALIBRATION.start_mv);
        self.base_mv = (self.vmin_mv + margin_mv).max(CALIBRATION.stop_mv);
        self.base_f_mhz = F_NOM_MHZ;
        // Keep voltage-backoff headroom above even a weak board's base.
        self.ladder = MitigationLadder {
            v_ceiling_mv: MitigationLadder::default()
                .v_ceiling_mv
                .max(self.base_mv + 3.0 * MitigationLadder::V_STEP_MV),
        };
        // Park at the serving point (the descent returned the board
        // power-cycled); a board too weak for a sub-Vmin margin falls
        // back to its Vmin.
        if self.acc.set_vccint_mv(self.base_mv).is_err() || self.acc.board().is_crashed() {
            self.acc.power_cycle();
            self.base_mv = self.vmin_mv;
            self.acc.set_vccint_mv(self.base_mv)?;
        }
        let (m, _) = self.acc.measure_events(CALIBRATION.images)?;
        self.energy_per_inf_j = energy_per_inference_j(&m, ops_per_image);
        self.rungs = 0;
        Ok(())
    }

    /// Runs one served batch over `image_indices` of the shared eval
    /// set. Never returns an error for a board hang — that comes back as
    /// `crashed: true` so the scheduler can reboot and reroute.
    ///
    /// # Errors
    ///
    /// Propagates non-crash run errors (these indicate a bug, not an
    /// operating-point excursion).
    pub fn run_serving_batch(&mut self, image_indices: &[usize]) -> Result<BatchExec, RunError> {
        let images: Vec<Tensor> = {
            let eval = &self.acc.workload().eval;
            image_indices
                .iter()
                .map(|&i| eval.images[i].clone())
                .collect()
        };
        let seed = derive_substream_seed(self.batch_seed, 1, self.batches);
        self.batches += 1;
        let defense = self.acc.config().defense;
        let (cycles_before, events_before) = (self.acc.cycles_run(), self.acc.sdc_events());
        let (runtime, workload) = self.acc.runtime_and_workload_mut();
        let result = runtime.run_batch(&workload.task, &images, seed, 0);
        match result {
            Ok(r) => {
                let dpu_cycles = self.acc.cycles_run() - cycles_before;
                let f_mhz = self.acc.clock_mhz();
                let service =
                    (dpu_cycles as f64 * F_NOM_MHZ / f_mhz).ceil() as Cycle + BATCH_OVERHEAD_CYCLES;
                let energy_j = self.energy.charge(r.on_chip_power_w, dpu_cycles, f_mhz);
                if !images.is_empty() {
                    self.energy_per_inf_j = energy_j / images.len() as f64;
                }
                let events = self.acc.sdc_events() - events_before;
                self.events += events;
                let flagged = match defense {
                    redvolt_nn::abft::DefenseMode::Off => false,
                    redvolt_nn::abft::DefenseMode::Detect => r.defense.mismatches > 0,
                    redvolt_nn::abft::DefenseMode::Correct => r.defense.unresolved > 0,
                };
                Ok(BatchExec {
                    service_ref_cycles: service,
                    predictions: r.predictions,
                    events,
                    unresolved: r.defense.unresolved,
                    mismatches: r.defense.mismatches,
                    flagged,
                    energy_j,
                    crashed: false,
                })
            }
            Err(RunError::BoardCrashed) => Ok(BatchExec {
                service_ref_cycles: 0,
                predictions: Vec::new(),
                events: 0,
                unresolved: 0,
                mismatches: 0,
                flagged: false,
                energy_j: 0.0,
                crashed: true,
            }),
            Err(e) => Err(e),
        }
    }

    /// Walks the board one rung down the mitigation ladder (frequency
    /// underscaling first, voltage backoff once the clock floor is
    /// reached). Called by the scheduler after an eventful batch when
    /// the governor is armed. Returns the post-move state so the caller
    /// can attach the escalation to its trace.
    pub fn escalate(&mut self) -> Escalation {
        // Only a voltage backoff can fail, and backing *up* in voltage
        // cannot hang the board.
        let kind = match self.ladder.step(&mut self.acc) {
            Ok(LadderMove::Underscale(_)) => "underscale",
            Ok(LadderMove::Backoff(_)) | Err(_) => "backoff",
            Ok(LadderMove::Exhausted) => "exhausted",
        };
        self.refresh_rungs();
        Escalation {
            kind,
            rungs: self.rungs,
            f_mhz: self.acc.clock_mhz(),
            vccint_mv: self.acc.vccint_mv(),
        }
    }

    /// Reboots a hung board and rejoins it one voltage-backoff rung
    /// above its base point (the crash proved the base too optimistic).
    pub fn on_crash(&mut self) {
        self.crashes += 1;
        self.acc.power_cycle();
        let rejoin = self.base_mv + MitigationLadder::V_STEP_MV;
        let _ = self.acc.set_vccint_mv(rejoin);
        self.refresh_rungs();
    }

    fn refresh_rungs(&mut self) {
        self.rungs = MitigationLadder::rungs_walked(
            self.base_f_mhz,
            self.base_mv,
            self.acc.clock_mhz(),
            self.acc.vccint_mv(),
        );
    }
}

/// Modeled energy per inference of a measurement, joules:
/// `P / (inferences per second)` with the inference rate derived from
/// the measured GOPs and the workload's dense-equivalent ops per image.
pub fn energy_per_inference_j(m: &Measurement, ops_per_image: u64) -> f64 {
    let inf_per_s = m.gops * 1e9 / (ops_per_image.max(1) as f64);
    if inf_per_s <= 0.0 {
        return 0.0;
    }
    m.power_w / inf_per_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use redvolt_core::bench_suite::BenchmarkId;

    fn config() -> AcceleratorConfig {
        AcceleratorConfig {
            repetitions: 1,
            ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
        }
    }

    #[test]
    fn calibration_finds_a_deep_clean_point() {
        let mut b = FleetBoard::bring_up(0, &config()).unwrap();
        let ops = b.accelerator().workload().dense_equivalent_ops;
        b.calibrate(0.0, ops).unwrap();
        assert!(b.vmin_mv <= 620.0 && b.vmin_mv >= 550.0, "{}", b.vmin_mv);
        assert_eq!(b.base_mv, b.vmin_mv, "zero margin serves at Vmin");
        assert!(b.energy_per_inf_j > 0.0);
        assert!(!b.accelerator().board().is_crashed());
    }

    #[test]
    fn calibration_is_reproducible_and_corner_dependent() {
        let vmin = |index: usize| {
            let mut b = FleetBoard::bring_up(index, &config()).unwrap();
            let ops = b.accelerator().workload().dense_equivalent_ops;
            b.calibrate(0.0, ops).unwrap();
            (b.vmin_mv, b.energy_per_inf_j)
        };
        assert_eq!(vmin(0), vmin(0), "same board, same calibration");
        // Across a fleet, corners differ enough that at least two boards
        // calibrate to different Vmin grid points.
        let all: Vec<f64> = (0..6).map(|i| vmin(i).0).collect();
        assert!(
            all.iter().any(|&v| (v - all[0]).abs() > 1e-9),
            "all six boards calibrated identically: {all:?}"
        );
    }

    #[test]
    fn serving_batch_returns_predictions_and_charges_energy() {
        let mut b = FleetBoard::bring_up(0, &config()).unwrap();
        let ops = b.accelerator().workload().dense_equivalent_ops;
        b.calibrate(0.0, ops).unwrap();
        let exec = b.run_serving_batch(&[0, 1, 2, 3]).unwrap();
        assert!(!exec.crashed);
        assert_eq!(exec.predictions.len(), 4);
        assert!(exec.service_ref_cycles > BATCH_OVERHEAD_CYCLES);
        assert!(exec.energy_j > 0.0);
        assert!((b.energy.total_j() - exec.energy_j).abs() < 1e-6);
    }

    #[test]
    fn health_attrs_track_the_operating_point() {
        let mut b = FleetBoard::bring_up(0, &config()).unwrap();
        let acc = &mut b.acc;
        acc.set_vccint_mv(600.0).unwrap();
        acc.set_clock_mhz(283.0);
        acc.measure(8).unwrap();
        let attrs = b.health_attrs();
        let keys: Vec<&str> = attrs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "vccint_mv",
                "f_mhz",
                "junction_c",
                "power_w",
                "crashed",
                "power_cycles",
                "defense_events",
                "dpu_faults",
                "cycles_run"
            ]
        );
        let value = |key: &str| &attrs.iter().find(|(k, _)| k == key).unwrap().1;
        // The PMBus VOUT command quantizes to the regulator's LSB, so the
        // snapshot reads back near — not exactly at — the requested point.
        let AttrValue::F64(vccint) = *value("vccint_mv") else {
            panic!("vccint_mv is not an f64");
        };
        assert!((vccint - 600.0).abs() < 0.5, "vccint {vccint}");
        assert_eq!(*value("f_mhz"), AttrValue::F64(283.0));
        assert_eq!(*value("crashed"), AttrValue::Bool(false));
        assert!(matches!(*value("cycles_run"), AttrValue::U64(c) if c > 0));
        assert!(matches!(*value("power_w"), AttrValue::F64(p) if p > 0.0));
    }

    #[test]
    fn escalation_underscales_then_backs_off() {
        let mut b = FleetBoard::bring_up(0, &config()).unwrap();
        let ops = b.accelerator().workload().dense_equivalent_ops;
        b.calibrate(0.0, ops).unwrap();
        assert_eq!(b.rungs, 0);
        b.escalate();
        assert_eq!(b.rungs, 1);
        assert!(b.accelerator().clock_mhz() < F_NOM_MHZ);
        for _ in 0..10 {
            b.escalate();
        }
        assert!(
            b.accelerator().vccint_mv() > b.base_mv,
            "voltage backed off"
        );
    }
}
