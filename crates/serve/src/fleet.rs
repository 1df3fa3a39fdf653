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
use redvolt_core::governor::BoardHealth;
use redvolt_core::mitigation::{LadderMove, MitigationLadder};
use redvolt_core::sweep::{descend, SweepConfig};
use redvolt_dpu::runtime::RunError;
use redvolt_fpga::calib::F_NOM_MHZ;
use redvolt_fpga::power::EnergyAccount;
use redvolt_fpga::rails::RailId;
use redvolt_nn::tensor::Tensor;
use redvolt_num::rng::derive_substream_seed;
use std::ops::ControlFlow;

/// Vmin-calibration settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibConfig {
    /// First probed voltage, mV (just inside the guardband).
    pub start_mv: f64,
    /// Deepest probed voltage, mV.
    pub floor_mv: f64,
    /// Probe grid step, mV.
    pub step_mv: f64,
    /// Images per probe batch.
    pub probe_images: usize,
    /// Serving margin added to the calibrated Vmin, mV (negative =
    /// deliberately serve below Vmin).
    pub margin_mv: f64,
}

impl Default for CalibConfig {
    fn default() -> Self {
        CalibConfig {
            start_mv: 620.0,
            floor_mv: 550.0,
            step_mv: 10.0,
            probe_images: 8,
            margin_mv: 0.0,
        }
    }
}

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

    /// Point-in-time health snapshot (router input).
    pub fn health(&self) -> BoardHealth {
        BoardHealth::of(&self.acc)
    }

    /// Sets the DPU runtime's intra-batch image workers (bit-invariant
    /// across worker counts by construction).
    pub fn set_image_jobs(&mut self, jobs: usize) {
        self.acc.runtime_and_workload_mut().0.set_image_jobs(jobs);
    }

    /// Calibrates the board's Vmin and parks it at the serving point.
    ///
    /// # Errors
    ///
    /// Propagates non-crash measurement errors (a crash during the
    /// descent ends it, and the descent power-cycles the board).
    pub fn calibrate(
        &mut self,
        calib: &CalibConfig,
        ops_per_image: u64,
    ) -> Result<(), MeasureError> {
        let schedule = SweepConfig {
            start_mv: calib.start_mv,
            stop_mv: calib.floor_mv,
            step_mv: calib.step_mv,
            images: calib.probe_images,
        };
        let (clean, _) = descend(&mut self.acc, &schedule, RailId::Vccint, |acc, mv| {
            Ok(match acc.measure_events(calib.probe_images)? {
                (_, 0) => ControlFlow::Continue(mv),
                _ => ControlFlow::Break(()),
            })
        })?;
        self.vmin_mv = clean.last().copied().unwrap_or(calib.start_mv);
        self.base_mv = (self.vmin_mv + calib.margin_mv).max(calib.floor_mv);
        self.base_f_mhz = F_NOM_MHZ;
        // Keep voltage-backoff headroom above even a weak board's base.
        let default_ladder = MitigationLadder::default();
        self.ladder = MitigationLadder {
            v_ceiling_mv: default_ladder
                .v_ceiling_mv
                .max(self.base_mv + 3.0 * default_ladder.v_step_mv),
            ..default_ladder
        };
        // Park at the serving point (the descent returned the board
        // power-cycled); a board too weak for a sub-Vmin margin falls
        // back to its Vmin.
        if self.acc.set_vccint_mv(self.base_mv).is_err() || self.acc.board().is_crashed() {
            self.acc.power_cycle();
            self.base_mv = self.vmin_mv;
            self.acc.set_vccint_mv(self.base_mv)?;
        }
        let (m, _) = self.acc.measure_events(calib.probe_images)?;
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
    pub fn run_serving_batch(
        &mut self,
        image_indices: &[usize],
        overhead_cycles: Cycle,
    ) -> Result<BatchExec, RunError> {
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
        let cycles_before = self.acc.cycles_run();
        let (runtime, workload) = self.acc.runtime_and_workload_mut();
        let result = runtime.run_batch(&mut workload.task, &images, seed, 0);
        match result {
            Ok(r) => {
                let dpu_cycles = self.acc.cycles_run() - cycles_before;
                let f_mhz = self.acc.clock_mhz();
                let service =
                    (dpu_cycles as f64 * F_NOM_MHZ / f_mhz).ceil() as Cycle + overhead_cycles;
                let energy_j = self.energy.charge(r.on_chip_power_w, dpu_cycles, f_mhz);
                if !images.is_empty() {
                    self.energy_per_inf_j = energy_j / images.len() as f64;
                }
                let events = r.injected_faults
                    + r.ecc.corrected_words
                    + r.ecc.uncorrectable_words
                    + r.defense.mismatches;
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
        let rejoin = self.base_mv + self.ladder.v_step_mv;
        let _ = self.acc.set_vccint_mv(rejoin);
        self.refresh_rungs();
    }

    fn refresh_rungs(&mut self) {
        self.rungs = self.ladder.rungs_walked(
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
        b.calibrate(&CalibConfig::default(), ops).unwrap();
        assert!(b.vmin_mv <= 620.0 && b.vmin_mv >= 550.0, "{}", b.vmin_mv);
        assert_eq!(b.base_mv, b.vmin_mv, "zero margin serves at Vmin");
        assert!(b.energy_per_inf_j > 0.0);
        assert!(!b.accelerator().board().is_crashed());
    }

    #[test]
    fn calibration_is_reproducible_and_corner_dependent() {
        let calib = CalibConfig::default();
        let vmin = |index: usize| {
            let mut b = FleetBoard::bring_up(index, &config()).unwrap();
            let ops = b.accelerator().workload().dense_equivalent_ops;
            b.calibrate(&calib, ops).unwrap();
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
        b.calibrate(&CalibConfig::default(), ops).unwrap();
        let exec = b.run_serving_batch(&[0, 1, 2, 3], 1000).unwrap();
        assert!(!exec.crashed);
        assert_eq!(exec.predictions.len(), 4);
        assert!(exec.service_ref_cycles > 1000);
        assert!(exec.energy_j > 0.0);
        assert!((b.energy.total_j() - exec.energy_j).abs() < 1e-6);
    }

    #[test]
    fn escalation_underscales_then_backs_off() {
        let mut b = FleetBoard::bring_up(0, &config()).unwrap();
        let ops = b.accelerator().workload().dense_equivalent_ops;
        b.calibrate(&CalibConfig::default(), ops).unwrap();
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
